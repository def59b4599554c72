//! The flat-list checker [`CheckingSink`](super::CheckingSink) replaced,
//! kept as the reference its differential test compares against: one
//! `Vec` of `(cell, state)` per sub-page, in the order of each cell's
//! latest transition, scanned on every event. It carries one fix over
//! the original: a rejection needs an `Atomic` holder other than the
//! rejected cell.

use ksr_core::time::Cycles;
use ksr_core::trace::{RingBufferSink, TraceEvent, TraceSink, TraceState};
use ksr_core::FxHashMap;
use ksr_mem::subpage_of;

use super::{legal_transition, writable, CheckerConfig, Rule, Violation};

pub(super) struct FlatChecker {
    cfg: CheckerConfig,
    shadow: FxHashMap<u64, Vec<(usize, TraceState)>>,
    recent: RingBufferSink,
    pub(super) violations: Vec<Violation>,
    pub(super) truncated: u64,
}

fn holder_set_violation(sp: u64, holders: &[(usize, TraceState)]) -> Option<(Rule, String)> {
    let writers = || {
        holders
            .iter()
            .filter(|(_, s)| writable(*s))
            .map(|(c, _)| *c)
    };
    match writers().count() {
        0 => None,
        1 => {
            let sharers = || {
                holders
                    .iter()
                    .filter(|(_, s)| *s == TraceState::Shared)
                    .map(|(c, _)| *c)
            };
            sharers().next()?;
            let writer = writers().next()?;
            let sharers: Vec<usize> = sharers().collect();
            Some((
                Rule::SharedWithWriter,
                format!(
                    "sub-page {sp}: cell {writer} holds a writable copy while cells \
                     {sharers:?} still hold Shared copies (invalidation not \
                     acknowledged before the write side committed)"
                ),
            ))
        }
        n => {
            let writers: Vec<usize> = writers().collect();
            Some((
                Rule::MultipleWriters,
                format!("sub-page {sp} has {n} writable copies: cells {writers:?}"),
            ))
        }
    }
}

impl FlatChecker {
    pub(super) fn new(cfg: CheckerConfig) -> Self {
        Self {
            cfg,
            shadow: FxHashMap::default(),
            recent: RingBufferSink::new(cfg.window),
            violations: Vec::new(),
            truncated: 0,
        }
    }

    pub(super) fn holder_state(&self, sp: u64, cell: usize) -> TraceState {
        self.shadow
            .get(&sp)
            .and_then(|h| h.iter().find(|(c, _)| *c == cell))
            .map_or(TraceState::Missing, |(_, s)| *s)
    }

    fn set_holder(&mut self, sp: u64, cell: usize, to: TraceState) {
        let holders = self.shadow.entry(sp).or_default();
        holders.retain(|(c, _)| *c != cell);
        if to != TraceState::Missing {
            holders.push((cell, to));
        } else if holders.is_empty() {
            self.shadow.remove(&sp);
        }
    }

    fn report(&mut self, at: Cycles, cell: usize, subpage: u64, rule: Rule, message: String) {
        if self.violations.len() >= self.cfg.max_violations {
            self.truncated += 1;
            return;
        }
        self.violations.push(Violation {
            at,
            cell,
            subpage,
            rule,
            message,
            window: self.recent.events().copied().collect(),
        });
    }

    pub(super) fn record(&mut self, event: &TraceEvent) {
        self.recent.record(event);
        self.check(event);
    }

    fn check_coherence(
        &mut self,
        at: Cycles,
        cell: usize,
        sp: u64,
        from: TraceState,
        to: TraceState,
    ) {
        let shadowed = self.holder_state(sp, cell);
        if shadowed != from {
            self.report(
                at,
                cell,
                sp,
                Rule::StaleTransition,
                format!(
                    "cell {cell} reports transition {} -> {} on sub-page {sp}, but the \
                     event stream implies it held {}",
                    from.label(),
                    to.label(),
                    shadowed.label()
                ),
            );
        }
        if !legal_transition(from, to) {
            let rule = if from == TraceState::Atomic {
                Rule::AtomicLost
            } else {
                Rule::IllegalTransition
            };
            self.report(
                at,
                cell,
                sp,
                rule,
                format!(
                    "illegal transition {} -> {} on sub-page {sp} in cell {cell}",
                    from.label(),
                    to.label()
                ),
            );
        }
        self.set_holder(sp, cell, to);
        let finding = self
            .shadow
            .get(&sp)
            .and_then(|holders| holder_set_violation(sp, holders));
        if let Some((rule, message)) = finding {
            self.report(at, cell, sp, rule, message);
        }
    }

    fn check(&mut self, event: &TraceEvent) {
        match *event {
            TraceEvent::Coherence {
                at,
                cell,
                subpage,
                from,
                to,
            } => self.check_coherence(at, cell, subpage, from, to),
            TraceEvent::Snarf { at, cell, subpage } => {
                let st = self.holder_state(subpage, cell);
                if st != TraceState::Shared {
                    self.report(
                        at,
                        cell,
                        subpage,
                        Rule::SnarfState,
                        format!(
                            "snarf refill on sub-page {subpage} left cell {cell} in {}, \
                             not Shared",
                            st.label()
                        ),
                    );
                }
            }
            TraceEvent::Invalidation { at, cell, subpage } => {
                let st = self.holder_state(subpage, cell);
                if st != TraceState::Invalid {
                    self.report(
                        at,
                        cell,
                        subpage,
                        Rule::InvalidationState,
                        format!(
                            "invalidation of sub-page {subpage} left cell {cell} in {}, \
                             not Invalid",
                            st.label()
                        ),
                    );
                }
            }
            TraceEvent::AtomicRejection { at, cell, subpage } => {
                let holders = self.shadow.get(&subpage).map_or(&[][..], Vec::as_slice);
                let other_holder = holders
                    .iter()
                    .any(|&(c, s)| c != cell && s == TraceState::Atomic);
                let own = holders.contains(&(cell, TraceState::Atomic));
                if !other_holder {
                    let message = if own {
                        format!(
                            "cell {cell} was rejected from sub-page {subpage}, which \
                             only it holds Atomic"
                        )
                    } else {
                        format!(
                            "cell {cell} was rejected from sub-page {subpage} but no \
                             cell holds it Atomic"
                        )
                    };
                    self.report(at, cell, subpage, Rule::RejectionWithoutHolder, message);
                }
            }
            TraceEvent::SyncAcquire {
                at,
                cell,
                subpage,
                rmw,
            } => {
                let st = self.holder_state(subpage, cell);
                if rmw {
                    let any_holder = self.shadow.contains_key(&subpage);
                    if any_holder && !writable(st) {
                        self.report(
                            at,
                            cell,
                            subpage,
                            Rule::AcquireWithoutOwnership,
                            format!(
                                "native RMW on sub-page {subpage} committed while cell \
                                 {cell} held {}",
                                st.label()
                            ),
                        );
                    }
                } else if st != TraceState::Atomic {
                    self.report(
                        at,
                        cell,
                        subpage,
                        Rule::AcquireWithoutOwnership,
                        format!(
                            "get_sub_page granted sub-page {subpage} to cell {cell} but \
                             left it in {}",
                            st.label()
                        ),
                    );
                }
            }
            TraceEvent::SyncRelease {
                at,
                cell,
                subpage,
                rmw,
            } => {
                let st = self.holder_state(subpage, cell);
                if !rmw && st != TraceState::Atomic {
                    self.report(
                        at,
                        cell,
                        subpage,
                        Rule::ReleaseWithoutAtomic,
                        format!(
                            "cell {cell} released sub-page {subpage} while holding {} \
                             (release_sub_page is only legal from Atomic)",
                            st.label()
                        ),
                    );
                }
            }
            TraceEvent::DataWrite { at, cell, addr } => {
                let sp = subpage_of(addr);
                let any_holder = self.shadow.contains_key(&sp);
                let st = self.holder_state(sp, cell);
                if any_holder && !writable(st) {
                    self.report(
                        at,
                        cell,
                        sp,
                        Rule::WriteWithoutOwnership,
                        format!(
                            "write to {addr:#x} committed while cell {cell} held \
                             sub-page {sp} in {}",
                            st.label()
                        ),
                    );
                }
            }
            TraceEvent::RingSlot { .. }
            | TraceEvent::BarrierEpisode { .. }
            | TraceEvent::LockHandoff { .. }
            | TraceEvent::DataRead { .. }
            | TraceEvent::SpinRead { .. } => {}
        }
    }
}
