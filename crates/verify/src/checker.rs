//! The ALLCACHE coherence-invariant checker.
//!
//! A [`CheckingSink`] shadows the *global* coherence state of every
//! sub-page by replaying [`TraceEvent`]s, and asserts the protocol
//! invariants the paper's results rest on (§2):
//!
//! * at most one `Exclusive`/`Atomic` copy of a sub-page at any time;
//! * no `Shared` copy coexisting with a writable copy (every
//!   invalidation must be acknowledged before a write commits);
//! * the per-cell transition emitted by the protocol must agree with the
//!   state the event stream itself implies (directory ⇔ cached copies);
//! * transitions must come from the protocol's legal transition table
//!   (e.g. an `Atomic` copy can only leave through a release);
//! * `get_sub_page` lands in `Atomic`, and `release_sub_page` is only
//!   issued while the releasing cell holds the sub-page `Atomic`;
//! * a snarf refill lands on a `Shared` copy, an invalidation leaves an
//!   `Invalid` place holder, an atomic rejection implies a live holder
//!   other than the rejected cell;
//! * a data write only commits on a cell holding write permission.
//!
//! Because `ksr-mem` routes *every* directory transition (including
//! warm-up and evictions) through one traced choke point, the shadow is
//! exact: any disagreement is a protocol bug, not checker drift. Each
//! violation is reported with the offending cycle, processor, and a
//! short event-window replay from an internal [`RingBufferSink`].

use ksr_core::time::Cycles;
use ksr_core::trace::{RingBufferSink, TraceEvent, TraceSink, TraceState};
use ksr_core::FxHashMap;
use ksr_mem::subpage_of;

/// Which invariant a [`Violation`] broke.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rule {
    /// Two or more cells hold writable (`Exclusive`/`Atomic`) copies.
    MultipleWriters,
    /// A `Shared` copy coexists with a writable copy — an invalidation
    /// was not acknowledged before the write side committed.
    SharedWithWriter,
    /// A transition's `from` state disagrees with the state the event
    /// stream itself implies for that cell.
    StaleTransition,
    /// A transition outside the protocol's legal transition table.
    IllegalTransition,
    /// An `Atomic` copy left through something other than a release.
    AtomicLost,
    /// A snarf refill on a cell not holding a fresh `Shared` copy.
    SnarfState,
    /// An invalidation event on a cell not left `Invalid`.
    InvalidationState,
    /// A `get_sub_page` rejection while no other cell holds the sub-page
    /// atomic.
    RejectionWithoutHolder,
    /// A `get_sub_page` that did not land in the state it promises
    /// (`Atomic` for the real instruction, write permission for a native
    /// RMW).
    AcquireWithoutOwnership,
    /// A `release_sub_page` issued by a cell not holding the sub-page
    /// `Atomic`.
    ReleaseWithoutAtomic,
    /// A data write committed on a cell without write permission.
    WriteWithoutOwnership,
}

impl Rule {
    /// Stable snake_case label (used in `violations.json`).
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Self::MultipleWriters => "multiple_writers",
            Self::SharedWithWriter => "shared_with_writer",
            Self::StaleTransition => "stale_transition",
            Self::IllegalTransition => "illegal_transition",
            Self::AtomicLost => "atomic_lost",
            Self::SnarfState => "snarf_state",
            Self::InvalidationState => "invalidation_state",
            Self::RejectionWithoutHolder => "rejection_without_holder",
            Self::AcquireWithoutOwnership => "acquire_without_ownership",
            Self::ReleaseWithoutAtomic => "release_without_atomic",
            Self::WriteWithoutOwnership => "write_without_ownership",
        }
    }
}

/// One detected invariant violation, with enough context to debug it.
#[derive(Debug, Clone)]
pub struct Violation {
    /// The virtual cycle at which the offending event committed.
    pub at: Cycles,
    /// The processor/cell the offending event belongs to.
    pub cell: usize,
    /// The sub-page involved.
    pub subpage: u64,
    /// The invariant broken.
    pub rule: Rule,
    /// Human-readable description.
    pub message: String,
    /// A short replay of the most recent events (oldest first, offending
    /// event last).
    pub window: Vec<TraceEvent>,
}

/// Checker tuning knobs.
#[derive(Debug, Clone, Copy)]
pub struct CheckerConfig {
    /// Events of replay context kept per violation.
    pub window: usize,
    /// Hard cap on retained violations (a seeded protocol bug cascades;
    /// the count past the cap is still tracked in
    /// [`CheckingSink::truncated`]).
    pub max_violations: usize,
}

impl Default for CheckerConfig {
    fn default() -> Self {
        Self {
            window: 24,
            max_violations: 64,
        }
    }
}

/// A [`TraceSink`] asserting the ALLCACHE invariants online.
///
/// **Shadow layout.** Two flat maps hold the shadow: each cell's copy of
/// each sub-page, keyed by (sub-page, cell), and per-sub-page counts of
/// live, writable, `Shared` and `Atomic` copies. Every per-event step —
/// a cell's state, a transition, the holder-set invariants, the
/// rejection check — is therefore O(1) expected however many cells hold
/// a hot sub-page, and a sub-page held by one cell allocates nothing of
/// its own. Cell lists are only built for a reported violation: each
/// copy carries the stamp of its latest transition, and sorting by it
/// lists cells in the order of their latest transitions.
///
/// The shadow deliberately shares no code with `ksr_mem::directory`: the
/// checker is the protocol's oracle, so a bug in the directory's holder
/// lists must not be able to hide from it.
#[derive(Debug)]
pub struct CheckingSink {
    cfg: CheckerConfig,
    /// Every non-`Missing` copy, keyed by (sub-page, cell).
    copies: FxHashMap<(u64, usize), Held>,
    /// Copy counts of every sub-page with a non-`Missing` copy.
    counts: FxHashMap<u64, Counts>,
    /// Transitions applied so far; the last one's [`Held::stamp`].
    transitions: u64,
    /// The highest cell that ever held a copy: report-time cell lists
    /// probe the cells up to it.
    max_cell: usize,
    recent: RingBufferSink,
    violations: Vec<Violation>,
    truncated: u64,
    events_seen: u64,
}

/// One cell's copy of one sub-page.
#[derive(Debug, Clone, Copy)]
struct Held {
    state: TraceState,
    /// When the copy last changed state, counted in transitions.
    stamp: u64,
}

/// Copy counts of one sub-page.
#[derive(Debug, Clone, Copy, Default)]
struct Counts {
    /// Non-`Missing` copies, place holders included.
    live: u32,
    /// `Exclusive` and `Atomic` copies.
    writable: u32,
    shared: u32,
    atomic: u32,
}

impl Counts {
    /// Count a copy in state `s` entering (`true`) or leaving the set.
    fn count(&mut self, s: TraceState, entering: bool) {
        let step = |n: &mut u32| {
            if entering {
                *n += 1;
            } else {
                *n -= 1;
            }
        };
        step(&mut self.live);
        if writable(s) {
            step(&mut self.writable);
        }
        match s {
            TraceState::Shared => step(&mut self.shared),
            TraceState::Atomic => step(&mut self.atomic),
            _ => {}
        }
    }

    /// The single-writer rule these counts break, if any.
    fn violation(self) -> Option<Rule> {
        match self.writable {
            0 => None,
            1 if self.shared == 0 => None,
            1 => Some(Rule::SharedWithWriter),
            _ => Some(Rule::MultipleWriters),
        }
    }
}

fn writable(s: TraceState) -> bool {
    matches!(s, TraceState::Exclusive | TraceState::Atomic)
}

/// Legal per-cell transitions of the ALLCACHE protocol. `Missing` never
/// degrades straight to a place holder, and an `Atomic` copy only leaves
/// through a release (`→ Exclusive` locally, `→ Missing` on the
/// cache-less machines, where the release drops the copy).
fn legal_transition(from: TraceState, to: TraceState) -> bool {
    use TraceState::{Atomic, Exclusive, Invalid, Missing, Shared};
    match (from, to) {
        (Missing, Invalid) => false,
        (Atomic, Shared | Invalid) => false,
        (f, t) if f == t => false, // no-op transitions are never emitted
        (Missing | Invalid | Shared | Exclusive | Atomic, _) => true,
    }
}

impl Default for CheckingSink {
    fn default() -> Self {
        Self::new(CheckerConfig::default())
    }
}

impl CheckingSink {
    /// A checker with the given tuning.
    #[must_use]
    pub fn new(cfg: CheckerConfig) -> Self {
        Self {
            cfg,
            copies: FxHashMap::default(),
            counts: FxHashMap::default(),
            transitions: 0,
            max_cell: 0,
            recent: RingBufferSink::new(cfg.window),
            violations: Vec::new(),
            truncated: 0,
            events_seen: 0,
        }
    }

    /// Violations detected so far (capped at
    /// [`CheckerConfig::max_violations`]).
    #[must_use]
    pub fn violations(&self) -> &[Violation] {
        &self.violations
    }

    /// Whether no invariant has been violated.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty() && self.truncated == 0
    }

    /// Violations dropped past the retention cap.
    #[must_use]
    pub fn truncated(&self) -> u64 {
        self.truncated
    }

    /// Total events observed (checked or not).
    #[must_use]
    pub fn events_seen(&self) -> u64 {
        self.events_seen
    }

    fn holder_state(&self, sp: u64, cell: usize) -> TraceState {
        self.copies
            .get(&(sp, cell))
            .map_or(TraceState::Missing, |h| h.state)
    }

    /// Whether any cell holds a copy of `sp`, place holders included.
    fn any_holder(&self, sp: u64) -> bool {
        self.counts.contains_key(&sp)
    }

    /// Apply one transition of `cell`'s copy of `sp`. Returns the state
    /// it replaced and `sp`'s counts afterwards (`None` once no copy is
    /// left).
    fn set_holder(&mut self, sp: u64, cell: usize, to: TraceState) -> (TraceState, Option<Counts>) {
        let old = if to == TraceState::Missing {
            self.copies.remove(&(sp, cell))
        } else {
            self.transitions += 1;
            self.max_cell = self.max_cell.max(cell);
            let held = Held {
                state: to,
                stamp: self.transitions,
            };
            self.copies.insert((sp, cell), held)
        };
        let from = old.map_or(TraceState::Missing, |h| h.state);
        if old.is_none() && to == TraceState::Missing {
            return (from, self.counts.get(&sp).copied());
        }
        let counts = self.counts.entry(sp).or_default();
        if old.is_some() {
            counts.count(from, false);
        }
        if to != TraceState::Missing {
            counts.count(to, true);
        }
        let after = *counts;
        if after.live == 0 {
            self.counts.remove(&sp);
            return (from, None);
        }
        (from, Some(after))
    }

    /// The cells holding `sp` in a state `keep` accepts, in the order of
    /// their latest transitions. Probes every cell up to
    /// [`Self::max_cell`], so only a reported violation builds one.
    fn cells_holding(&self, sp: u64, keep: impl Fn(TraceState) -> bool) -> Vec<usize> {
        let mut held: Vec<(u64, usize)> = (0..=self.max_cell)
            .filter_map(|c| {
                self.copies
                    .get(&(sp, c))
                    .filter(|h| keep(h.state))
                    .map(|h| (h.stamp, c))
            })
            .collect();
        held.sort_unstable();
        held.into_iter().map(|(_, c)| c).collect()
    }

    /// The message of a broken single-writer rule on `sp`.
    fn holder_set_message(&self, sp: u64, rule: Rule) -> String {
        let writers = self.cells_holding(sp, writable);
        if rule == Rule::MultipleWriters {
            return format!(
                "sub-page {sp} has {} writable copies: cells {writers:?}",
                writers.len()
            );
        }
        let sharers = self.cells_holding(sp, |s| s == TraceState::Shared);
        format!(
            "sub-page {sp}: cell {} holds a writable copy while cells \
             {sharers:?} still hold Shared copies (invalidation not \
             acknowledged before the write side committed)",
            writers[0]
        )
    }

    /// Record a violation. The message is only built for a violation
    /// that is kept: past the cap, a seeded fault's cascade only counts.
    fn report(
        &mut self,
        at: Cycles,
        cell: usize,
        subpage: u64,
        rule: Rule,
        message: impl FnOnce(&Self) -> String,
    ) {
        if self.violations.len() >= self.cfg.max_violations {
            self.truncated += 1;
            return;
        }
        let message = message(self);
        self.violations.push(Violation {
            at,
            cell,
            subpage,
            rule,
            message,
            window: self.recent.events().copied().collect(),
        });
    }

    fn check_coherence(
        &mut self,
        at: Cycles,
        cell: usize,
        sp: u64,
        from: TraceState,
        to: TraceState,
    ) {
        let (shadowed, counts) = self.set_holder(sp, cell, to);
        if shadowed != from {
            self.report(at, cell, sp, Rule::StaleTransition, |_| {
                format!(
                    "cell {cell} reports transition {} -> {} on sub-page {sp}, but the \
                     event stream implies it held {}",
                    from.label(),
                    to.label(),
                    shadowed.label()
                )
            });
        }
        if !legal_transition(from, to) {
            let rule = if from == TraceState::Atomic {
                Rule::AtomicLost
            } else {
                Rule::IllegalTransition
            };
            self.report(at, cell, sp, rule, |_| {
                format!(
                    "illegal transition {} -> {} on sub-page {sp} in cell {cell}",
                    from.label(),
                    to.label()
                )
            });
        }
        // Global invariants over the holder set after the transition.
        if let Some(rule) = counts.and_then(Counts::violation) {
            self.report(at, cell, sp, rule, |me| me.holder_set_message(sp, rule));
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
                    self.report(at, cell, subpage, Rule::SnarfState, |_| {
                        format!(
                            "snarf refill on sub-page {subpage} left cell {cell} in {}, \
                             not Shared",
                            st.label()
                        )
                    });
                }
            }
            TraceEvent::Invalidation { at, cell, subpage } => {
                let st = self.holder_state(subpage, cell);
                if st != TraceState::Invalid {
                    self.report(at, cell, subpage, Rule::InvalidationState, |_| {
                        format!(
                            "invalidation of sub-page {subpage} left cell {cell} in {}, \
                             not Invalid",
                            st.label()
                        )
                    });
                }
            }
            TraceEvent::AtomicRejection { at, cell, subpage } => {
                // The holder's own get_sub_page re-acquires, so only
                // another cell's Atomic copy can reject a request.
                let atomics = self.counts.get(&subpage).map_or(0, |c| c.atomic);
                let own = atomics > 0 && self.holder_state(subpage, cell) == TraceState::Atomic;
                if atomics == u32::from(own) {
                    self.report(at, cell, subpage, Rule::RejectionWithoutHolder, |_| {
                        if own {
                            format!(
                                "cell {cell} was rejected from sub-page {subpage}, which \
                                 only it holds Atomic"
                            )
                        } else {
                            format!(
                                "cell {cell} was rejected from sub-page {subpage} but no \
                                 cell holds it Atomic"
                            )
                        }
                    });
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
                    // A native RMW needs write permission, but only where
                    // caches exist at all (the cache-less machines leave
                    // no holder entries to check against).
                    if self.any_holder(subpage) && !writable(st) {
                        self.report(at, cell, subpage, Rule::AcquireWithoutOwnership, |_| {
                            format!(
                                "native RMW on sub-page {subpage} committed while cell \
                                 {cell} held {}",
                                st.label()
                            )
                        });
                    }
                } else if st != TraceState::Atomic {
                    self.report(at, cell, subpage, Rule::AcquireWithoutOwnership, |_| {
                        format!(
                            "get_sub_page granted sub-page {subpage} to cell {cell} but \
                             left it in {}",
                            st.label()
                        )
                    });
                }
            }
            TraceEvent::SyncRelease {
                at,
                cell,
                subpage,
                rmw,
            } => {
                // Real releases are stamped at issue time, while the
                // holder must still be Atomic. RMW "releases" carry no
                // Atomic state and share the acquire-side check.
                let st = self.holder_state(subpage, cell);
                if !rmw && st != TraceState::Atomic {
                    self.report(at, cell, subpage, Rule::ReleaseWithoutAtomic, |_| {
                        format!(
                            "cell {cell} released sub-page {subpage} while holding {} \
                             (release_sub_page is only legal from Atomic)",
                            st.label()
                        )
                    });
                }
            }
            TraceEvent::DataWrite { at, cell, addr } => {
                let sp = subpage_of(addr);
                // Only checkable where caches exist: the cache-less
                // machines never register holders for plain accesses.
                let st = self.holder_state(sp, cell);
                if self.any_holder(sp) && !writable(st) {
                    self.report(at, cell, sp, Rule::WriteWithoutOwnership, |_| {
                        format!(
                            "write to {addr:#x} committed while cell {cell} held \
                             sub-page {sp} in {}",
                            st.label()
                        )
                    });
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

impl TraceSink for CheckingSink {
    #[inline]
    fn record(&mut self, event: &TraceEvent) {
        self.events_seen += 1;
        self.recent.record(event);
        self.check(event);
    }
}

#[cfg(test)]
mod reference;

#[cfg(test)]
mod tests {
    use ksr_core::XorShift64;

    use super::reference::FlatChecker;
    use super::*;

    fn coh(at: Cycles, cell: usize, sp: u64, from: TraceState, to: TraceState) -> TraceEvent {
        TraceEvent::Coherence {
            at,
            cell,
            subpage: sp,
            from,
            to,
        }
    }

    fn checked(events: &[TraceEvent]) -> CheckingSink {
        let mut sink = CheckingSink::default();
        for e in events {
            sink.record(e);
        }
        sink
    }

    #[test]
    fn clean_handoff_sequence_passes() {
        use TraceState::{Atomic, Exclusive, Invalid, Missing, Shared};
        // Demotions/invalidations are emitted before the requester's
        // grant, exactly as `coherence_fetch` orders its set_state calls.
        let sink = checked(&[
            coh(10, 0, 5, Missing, Exclusive), // first touch
            coh(20, 0, 5, Exclusive, Shared),  // owner demotes...
            coh(20, 1, 5, Missing, Shared),    // ...then read miss fills
            coh(30, 0, 5, Shared, Invalid),    // invalidate first...
            coh(30, 1, 5, Shared, Exclusive),  // ...then upgrade
            TraceEvent::Invalidation {
                at: 30,
                cell: 0,
                subpage: 5,
            },
            TraceEvent::DataWrite {
                at: 31,
                cell: 1,
                addr: 5 * 128,
            },
            coh(40, 1, 5, Exclusive, Atomic), // get_sub_page local flip
            TraceEvent::SyncAcquire {
                at: 40,
                cell: 1,
                subpage: 5,
                rmw: false,
            },
            TraceEvent::AtomicRejection {
                at: 45,
                cell: 0,
                subpage: 5,
            },
            TraceEvent::SyncRelease {
                at: 50,
                cell: 1,
                subpage: 5,
                rmw: false,
            },
            coh(51, 1, 5, Atomic, Exclusive),  // release applied
            coh(60, 1, 5, Exclusive, Missing), // eviction
        ]);
        assert!(sink.is_clean(), "{:?}", sink.violations());
        assert_eq!(sink.events_seen(), 13);
    }

    #[test]
    fn two_writable_copies_detected() {
        use TraceState::{Exclusive, Missing};
        let sink = checked(&[
            coh(10, 0, 7, Missing, Exclusive),
            coh(90, 1, 7, Missing, Exclusive), // second writer: protocol bug
        ]);
        let v = &sink.violations()[0];
        assert_eq!(v.rule, Rule::MultipleWriters);
        assert_eq!(v.at, 90);
        assert_eq!(v.subpage, 7);
        assert_eq!(v.message, "sub-page 7 has 2 writable copies: cells [0, 1]");
        assert_eq!(v.window.len(), 2, "window replays the offending events");
    }

    #[test]
    fn shared_beside_exclusive_detected() {
        use TraceState::{Exclusive, Missing, Shared};
        let sink = checked(&[
            coh(10, 0, 3, Missing, Shared),
            coh(20, 1, 3, Missing, Exclusive), // demotion/invalidation missed
        ]);
        let v = sink
            .violations()
            .iter()
            .find(|v| v.rule == Rule::SharedWithWriter && v.at == 20)
            .expect("shared-with-writer violation reported");
        assert_eq!(
            v.message,
            "sub-page 3: cell 1 holds a writable copy while cells [0] still hold \
             Shared copies (invalidation not acknowledged before the write side \
             committed)"
        );
    }

    #[test]
    fn stale_from_state_detected() {
        use TraceState::{Exclusive, Missing, Shared};
        let sink = checked(&[
            coh(10, 0, 2, Missing, Exclusive),
            coh(20, 0, 2, Shared, Missing), // emitter thinks Shared; stream says Exclusive
        ]);
        assert_eq!(sink.violations()[0].rule, Rule::StaleTransition);
    }

    #[test]
    fn atomic_cannot_leave_without_release() {
        use TraceState::{Atomic, Invalid, Missing};
        let sink = checked(&[
            coh(10, 0, 9, Missing, Atomic),
            coh(20, 0, 9, Atomic, Invalid), // a locked copy silently dropped
        ]);
        assert_eq!(sink.violations()[0].rule, Rule::AtomicLost);
    }

    #[test]
    fn release_without_atomic_detected() {
        use TraceState::{Exclusive, Missing};
        let sink = checked(&[
            coh(10, 0, 4, Missing, Exclusive),
            TraceEvent::SyncRelease {
                at: 20,
                cell: 0,
                subpage: 4,
                rmw: false,
            },
        ]);
        let v = &sink.violations()[0];
        assert_eq!(v.rule, Rule::ReleaseWithoutAtomic);
        assert!(v.message.contains("exclusive"));
    }

    #[test]
    fn write_without_ownership_detected() {
        use TraceState::{Missing, Shared};
        let sink = checked(&[
            coh(10, 0, 4, Missing, Shared),
            TraceEvent::DataWrite {
                at: 20,
                cell: 0,
                addr: 4 * 128 + 8,
            },
        ]);
        assert_eq!(sink.violations()[0].rule, Rule::WriteWithoutOwnership);
    }

    #[test]
    fn cacheless_writes_are_not_flagged() {
        // No Coherence events ever seen for the sub-page (Butterfly-style
        // plain accesses): the write-permission rule must stay silent.
        let sink = checked(&[TraceEvent::DataWrite {
            at: 20,
            cell: 0,
            addr: 4 * 128,
        }]);
        assert!(sink.is_clean());
    }

    #[test]
    fn rejection_needs_a_holder() {
        let sink = checked(&[TraceEvent::AtomicRejection {
            at: 5,
            cell: 2,
            subpage: 1,
        }]);
        assert_eq!(sink.violations()[0].rule, Rule::RejectionWithoutHolder);
    }

    /// The protocol answers a holder's own `get_sub_page` with a
    /// re-acquire, so a rejection whose only `Atomic` holder is the
    /// rejected cell is a protocol bug.
    #[test]
    fn self_rejection_needs_another_holder() {
        let sink = checked(&[
            coh(1, 2, 1, TraceState::Missing, TraceState::Atomic),
            TraceEvent::AtomicRejection {
                at: 5,
                cell: 2,
                subpage: 1,
            },
        ]);
        let v = &sink.violations()[0];
        assert_eq!(v.rule, Rule::RejectionWithoutHolder);
        assert_eq!((v.at, v.cell, v.subpage), (5, 2, 1));
        assert_eq!(sink.violations().len(), 1);
    }

    #[test]
    fn violation_cap_counts_overflow() {
        use TraceState::{Exclusive, Missing};
        let mut sink = CheckingSink::new(CheckerConfig {
            window: 4,
            max_violations: 2,
        });
        sink.record(&coh(1, 0, 1, Missing, Exclusive));
        for i in 0..5 {
            // Same illegal pattern repeatedly: a second writable copy.
            sink.record(&coh(10 + i, 1, 1, Missing, Exclusive));
            sink.record(&coh(20 + i, 1, 1, Exclusive, Missing));
        }
        assert_eq!(sink.violations().len(), 2);
        assert!(sink.truncated() > 0);
        assert!(!sink.is_clean());
    }

    /// One random event over `cells` cells and the sub-pages in `sps`.
    /// Coherence events mostly start from the state the stream implies
    /// (`state`), so streams mix legal runs with every kind of violation.
    fn random_event(
        rng: &mut XorShift64,
        at: Cycles,
        cells: usize,
        sps: &[u64],
        state: impl Fn(u64, usize) -> TraceState,
    ) -> TraceEvent {
        use TraceState::{Atomic, Exclusive, Invalid, Missing, Shared};
        const TO: [TraceState; 16] = [
            Missing, Missing, Missing, Invalid, Invalid, Invalid, Invalid, Shared, Shared, Shared,
            Shared, Shared, Exclusive, Exclusive, Atomic, Atomic,
        ];
        let cell = rng.next_index(cells);
        let subpage = sps[rng.next_index(sps.len())];
        let rmw = rng.next_bool(0.5);
        match rng.next_index(20) {
            0..=10 => {
                let from = if rng.next_bool(0.9) {
                    state(subpage, cell)
                } else {
                    TO[rng.next_index(TO.len())]
                };
                coh(at, cell, subpage, from, TO[rng.next_index(TO.len())])
            }
            11 => TraceEvent::Snarf { at, cell, subpage },
            12 => TraceEvent::Invalidation { at, cell, subpage },
            13 | 14 => TraceEvent::AtomicRejection { at, cell, subpage },
            15 => TraceEvent::SyncAcquire {
                at,
                cell,
                subpage,
                rmw,
            },
            16 => TraceEvent::SyncRelease {
                at,
                cell,
                subpage,
                rmw,
            },
            17 | 18 => TraceEvent::DataWrite {
                at,
                cell,
                addr: subpage * 128 + 8 * rng.next_below(16),
            },
            _ => TraceEvent::DataRead {
                at,
                cell,
                addr: subpage * 128,
            },
        }
    }

    /// Differential test of the flat-map shadow against the flat-list
    /// checker it replaced: seeded streams of legal and illegal events
    /// over four sub-pages and 40 cells, with a cap that truncates and one
    /// that keeps everything. Both checkers must report the same
    /// violations, field for field, and truncate the same number; every
    /// rule must fire.
    #[test]
    fn shadow_matches_the_flat_list_checker() {
        const SPS: [u64; 4] = [0, 1, 127, 128];
        let mut rng = XorShift64::new(0x4b53_5256);
        let mut fired = Vec::new();
        for stream in 0..12 {
            let cfg = CheckerConfig {
                window: [4, 24][stream % 2],
                max_violations: [64, 1 << 20][(stream / 2) % 2],
            };
            let mut sink = CheckingSink::new(cfg);
            let mut flat = FlatChecker::new(cfg);
            let mut at = 0;
            for _ in 0..4000 {
                at += rng.next_below(3);
                let event = random_event(&mut rng, at, 40, &SPS, |sp, c| flat.holder_state(sp, c));
                sink.record(&event);
                flat.record(&event);
            }
            assert_eq!(sink.truncated(), flat.truncated, "stream {stream}");
            assert_eq!(
                sink.violations().len(),
                flat.violations.len(),
                "stream {stream}"
            );
            for (got, want) in sink.violations().iter().zip(&flat.violations) {
                assert_eq!(
                    (got.rule, got.at, got.cell, got.subpage, &got.message),
                    (want.rule, want.at, want.cell, want.subpage, &want.message),
                    "stream {stream}"
                );
                assert_eq!(got.window, want.window, "stream {stream}");
            }
            fired.extend(sink.violations().iter().map(|v| v.rule));
        }
        for rule in [
            Rule::MultipleWriters,
            Rule::SharedWithWriter,
            Rule::StaleTransition,
            Rule::IllegalTransition,
            Rule::AtomicLost,
            Rule::SnarfState,
            Rule::InvalidationState,
            Rule::RejectionWithoutHolder,
            Rule::AcquireWithoutOwnership,
            Rule::ReleaseWithoutAtomic,
            Rule::WriteWithoutOwnership,
        ] {
            assert!(fired.contains(&rule), "{} never fired", rule.label());
        }
    }
}
