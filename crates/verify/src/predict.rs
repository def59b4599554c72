//! Predictive concurrency analysis over a *single* observed trace.
//!
//! The happens-before race detector ([`crate::RaceDetector`]) only
//! reports pairs that are genuinely unordered in the one schedule the
//! deterministic coordinator picked. These passes predict problems a
//! *different* schedule could expose from the same trace:
//!
//! * [`lockset_analysis`] — an Eraser-style lockset pass: a shared
//!   variable written by two processors whose accesses share no common
//!   lock is flagged ([`PredictRule::EmptyLockset`]) even when the vector
//!   clocks happen to order the accesses in this run. Barrier-phased
//!   programs are handled by *era refinement*: an access in a strictly
//!   later barrier era than every previous access to the variable resets
//!   its state to exclusive (ownership legitimately handed off through
//!   the barrier), which keeps the bucket-handoff idiom of the NAS IS
//!   kernel clean without losing same-era detection.
//! * [`LockOrderGraph`] — an online [`TraceSink`] building the
//!   lock-order graph from nested `get_sub_page` holds: a cycle in the
//!   graph is a potential deadlock ([`PredictRule::PotentialDeadlock`])
//!   even if the observed run never blocked, and a barrier episode
//!   entered while holding a lock is flagged
//!   ([`PredictRule::LockHeldAtBarrier`]) as a lock/barrier interleaving
//!   hazard — one late arrival and every other processor waits behind
//!   the held lock.
//! * [`PredictiveSink`] — the coherence checker and the lock-order graph
//!   fused into one sink, so `run_all --check` runs both over every
//!   machine for free.
//!
//! Everything here only *observes*; findings are reported in a
//! deterministic order so `violations.json` is byte-stable.

use std::collections::{BTreeMap, BTreeSet};

use ksr_core::time::Cycles;
use ksr_core::trace::{TraceEvent, TraceSink};
use ksr_mem::subpage_of;

use crate::checker::{CheckerConfig, CheckingSink, Violation};
use crate::race::RaceDetector;

/// Which predictive rule a [`PredictFinding`] comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum PredictRule {
    /// A shared, written variable whose accesses share no common lock —
    /// a schedule-dependent race even if this run's accesses were
    /// ordered.
    EmptyLockset,
    /// A cycle in the lock-order graph — two processors acquiring the
    /// same locks in opposite nesting orders can deadlock under an
    /// adversarial schedule.
    PotentialDeadlock,
    /// A barrier episode completed while the processor still held a
    /// lock — a late peer blocks the whole barrier behind that lock.
    LockHeldAtBarrier,
}

impl PredictRule {
    /// Stable snake_case label (used in `violations.json`).
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Self::EmptyLockset => "empty_lockset",
            Self::PotentialDeadlock => "potential_deadlock",
            Self::LockHeldAtBarrier => "lock_held_at_barrier",
        }
    }
}

/// One predicted (never-observed) concurrency hazard.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PredictFinding {
    /// The rule that fired.
    pub rule: PredictRule,
    /// The address or sub-page the finding anchors to: the racy word for
    /// [`PredictRule::EmptyLockset`], the smallest lock sub-page of the
    /// cycle for [`PredictRule::PotentialDeadlock`], the held lock
    /// sub-page for [`PredictRule::LockHeldAtBarrier`].
    pub addr: u64,
    /// Processors involved, ascending.
    pub cells: Vec<usize>,
    /// Human-readable description.
    pub message: String,
}

// ---------------------------------------------------------------------
// Eraser-style lockset pass
// ---------------------------------------------------------------------

/// Lockset state of one shared variable (classic Eraser, plus a barrier
/// era for phase-structured programs).
#[derive(Debug)]
struct LocksetState {
    /// Cell of the last access (ownership while exclusive).
    owner: usize,
    /// Shared between cells since the last era reset.
    shared: bool,
    /// Written while shared (the dangerous state).
    written_shared: bool,
    /// Candidate lockset: locks held at *every* access since sharing
    /// began. `None` until first shared.
    lockset: Option<BTreeSet<u64>>,
    /// Highest barrier era of any access so far.
    era: u64,
    /// First two accesses from distinct cells with an empty lockset
    /// (witnesses for the report): (cell, at, write).
    witnesses: Vec<(usize, Cycles, bool)>,
}

/// Run the Eraser-style lockset discipline check over one collected
/// event batch.
///
/// Sub-pages classified as synchronization objects (locks, RMW targets,
/// spun-on flags — the same pre-pass the race detector uses) are exempt:
/// racing on them is their job. Results are sorted by address, one
/// finding per address.
#[must_use]
pub fn lockset_analysis(events: &[TraceEvent]) -> Vec<PredictFinding> {
    let sync = RaceDetector::sync_subpages(events);
    let mut order: Vec<usize> = (0..events.len()).collect();
    order.sort_by_key(|&i| events[i].at());

    let mut held: BTreeMap<usize, BTreeSet<u64>> = BTreeMap::new();
    let mut eras: BTreeMap<usize, u64> = BTreeMap::new();
    let mut vars: BTreeMap<u64, LocksetState> = BTreeMap::new();
    let mut findings: BTreeMap<u64, PredictFinding> = BTreeMap::new();

    for i in order {
        match events[i] {
            TraceEvent::SyncAcquire {
                cell,
                subpage,
                rmw: false,
                ..
            } => {
                held.entry(cell).or_default().insert(subpage);
            }
            TraceEvent::SyncRelease {
                cell,
                subpage,
                rmw: false,
                ..
            } => {
                held.entry(cell).or_default().remove(&subpage);
            }
            TraceEvent::BarrierEpisode { cell, .. } => {
                *eras.entry(cell).or_insert(0) += 1;
            }
            TraceEvent::DataRead { at, cell, addr } | TraceEvent::DataWrite { at, cell, addr } => {
                if sync.contains(&subpage_of(addr)) {
                    continue;
                }
                let write = matches!(events[i], TraceEvent::DataWrite { .. });
                let era = eras.get(&cell).copied().unwrap_or(0);
                let locks = held.get(&cell).cloned().unwrap_or_default();
                let var = vars.entry(addr).or_insert(LocksetState {
                    owner: cell,
                    shared: false,
                    written_shared: false,
                    lockset: Some(locks.clone()),
                    era,
                    witnesses: vec![(cell, at, write)],
                });
                if era > var.era {
                    // Barrier handoff: every older access happened in an
                    // earlier phase; ownership restarts with this access.
                    *var = LocksetState {
                        owner: cell,
                        shared: false,
                        written_shared: false,
                        lockset: Some(locks),
                        era,
                        witnesses: vec![(cell, at, write)],
                    };
                    continue;
                }
                // Refine the candidate lockset at *every* access since
                // the last era reset — including the exclusive phase, so
                // the first owner's locks participate in the
                // intersection once a second cell shows up.
                match &mut var.lockset {
                    None => var.lockset = Some(locks),
                    Some(ls) => {
                        let keep: BTreeSet<u64> = ls.intersection(&locks).copied().collect();
                        *ls = keep;
                    }
                }
                if !var.shared && cell == var.owner {
                    continue; // still exclusive to one cell
                }
                // Second cell reached the variable within one era.
                var.shared = true;
                var.written_shared |= write;
                if var.witnesses.len() < 2 && var.witnesses.first().map(|w| w.0) != Some(cell) {
                    var.witnesses.push((cell, at, write));
                }
                let empty = var.lockset.as_ref().is_some_and(BTreeSet::is_empty);
                if var.written_shared && empty && !findings.contains_key(&addr) {
                    let mut cells: Vec<usize> = var.witnesses.iter().map(|w| w.0).collect();
                    cells.sort_unstable();
                    cells.dedup();
                    findings.insert(
                        addr,
                        PredictFinding {
                            rule: PredictRule::EmptyLockset,
                            addr,
                            message: format!(
                                "address {addr:#x} is written by cells {cells:?} in the \
                                 same barrier era with no consistently held lock \
                                 (lockset became empty at cycle {at})"
                            ),
                            cells,
                        },
                    );
                }
            }
            _ => {}
        }
    }
    findings.into_values().collect()
}

// ---------------------------------------------------------------------
// Lock-order graph
// ---------------------------------------------------------------------

/// Online lock-order graph over the `SyncAcquire`/`SyncRelease` stream.
///
/// An edge `a -> b` means some processor acquired lock sub-page `b`
/// while holding `a`. A cycle means two processors can nest the same
/// locks in opposite orders — a potential deadlock even when the
/// observed schedule serialized them. RMW pseudo-locks (`rmw: true`) are
/// skipped: they are indivisible and can never participate in a hold
/// cycle.
#[derive(Debug, Default)]
pub struct LockOrderGraph {
    /// Per-cell held lock sub-pages, in acquisition order.
    held: BTreeMap<usize, Vec<u64>>,
    /// `a -> {b -> first witness (cell, at)}`.
    edges: BTreeMap<u64, BTreeMap<u64, (usize, Cycles)>>,
    /// First barrier episode completed while holding a lock, per cell:
    /// (at, held locks at that moment).
    barrier_hazards: BTreeMap<usize, (Cycles, Vec<u64>)>,
}

impl LockOrderGraph {
    /// An empty graph.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Feed one batch of already-collected events.
    pub fn ingest(&mut self, events: &[TraceEvent]) {
        let mut order: Vec<usize> = (0..events.len()).collect();
        order.sort_by_key(|&i| events[i].at());
        for i in order {
            self.record(&events[i]);
        }
    }

    /// Directed edges observed so far, as `(from, to, witness cell,
    /// witness cycle)` in deterministic order.
    #[must_use]
    pub fn edges(&self) -> Vec<(u64, u64, usize, Cycles)> {
        self.edges
            .iter()
            .flat_map(|(&a, tos)| tos.iter().map(move |(&b, &(c, at))| (a, b, c, at)))
            .collect()
    }

    fn reachable(&self, from: u64, to: u64) -> Option<Vec<u64>> {
        // BFS with parent links; lock graphs are tiny (a handful of
        // distinct lock sub-pages), so no need for anything cleverer.
        let mut parent: BTreeMap<u64, Option<u64>> = BTreeMap::new();
        parent.insert(from, None);
        let mut queue = std::collections::VecDeque::from([from]);
        while let Some(n) = queue.pop_front() {
            if n == to {
                let mut path = vec![n];
                let mut cur = n;
                while let Some(&Some(p)) = parent.get(&cur) {
                    cur = p;
                    path.push(cur);
                }
                path.reverse();
                return Some(path);
            }
            if let Some(tos) = self.edges.get(&n) {
                for &next in tos.keys() {
                    if let std::collections::btree_map::Entry::Vacant(e) = parent.entry(next) {
                        e.insert(Some(n));
                        queue.push_back(next);
                    }
                }
            }
        }
        None
    }

    /// All distinct lock-order cycles (as canonical sorted node sets,
    /// with one witness path each), in deterministic order.
    #[must_use]
    pub fn cycles(&self) -> Vec<Vec<u64>> {
        let mut seen: BTreeSet<Vec<u64>> = BTreeSet::new();
        let mut out = Vec::new();
        for (&a, tos) in &self.edges {
            for &b in tos.keys() {
                if a == b {
                    continue;
                }
                // Edge a -> b closes a cycle iff b reaches a.
                if let Some(back) = self.reachable(b, a) {
                    let mut canon = back.clone();
                    canon.sort_unstable();
                    canon.dedup();
                    if seen.insert(canon.clone()) {
                        out.push(canon);
                    }
                }
            }
        }
        out
    }

    /// Findings from the graph built so far: one
    /// [`PredictRule::PotentialDeadlock`] per distinct cycle, one
    /// [`PredictRule::LockHeldAtBarrier`] per offending cell.
    #[must_use]
    pub fn findings(&self) -> Vec<PredictFinding> {
        let mut out = Vec::new();
        for cycle in self.cycles() {
            let mut cells: Vec<usize> = Vec::new();
            for w in &cycle {
                for (&a, tos) in &self.edges {
                    for (&b, &(c, _)) in tos {
                        if (a == *w || b == *w) && cycle.contains(&a) && cycle.contains(&b) {
                            cells.push(c);
                        }
                    }
                }
            }
            cells.sort_unstable();
            cells.dedup();
            out.push(PredictFinding {
                rule: PredictRule::PotentialDeadlock,
                addr: cycle[0],
                message: format!(
                    "lock sub-pages {cycle:?} are acquired in conflicting nesting \
                     orders by cells {cells:?}: an adversarial schedule can deadlock \
                     here even though this run completed"
                ),
                cells,
            });
        }
        for (&cell, (at, locks)) in &self.barrier_hazards {
            out.push(PredictFinding {
                rule: PredictRule::LockHeldAtBarrier,
                addr: locks[0],
                cells: vec![cell],
                message: format!(
                    "cell {cell} completed a barrier episode at cycle {at} while \
                     holding lock sub-pages {locks:?}: a late peer serializes the \
                     whole barrier behind those locks"
                ),
            });
        }
        out
    }

    /// Whether no hazard has been found.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.findings().is_empty()
    }
}

impl TraceSink for LockOrderGraph {
    fn record(&mut self, event: &TraceEvent) {
        match *event {
            TraceEvent::SyncAcquire {
                at,
                cell,
                subpage,
                rmw: false,
            } => {
                let held = self.held.entry(cell).or_default();
                for &h in held.iter() {
                    if h != subpage {
                        self.edges
                            .entry(h)
                            .or_default()
                            .entry(subpage)
                            .or_insert((cell, at));
                    }
                }
                held.push(subpage);
            }
            TraceEvent::SyncRelease {
                cell,
                subpage,
                rmw: false,
                ..
            } => {
                if let Some(held) = self.held.get_mut(&cell) {
                    if let Some(pos) = held.iter().rposition(|&h| h == subpage) {
                        held.remove(pos);
                    }
                }
            }
            TraceEvent::BarrierEpisode { at, cell, .. } => {
                let held = self.held.get(&cell).filter(|h| !h.is_empty());
                if let Some(held) = held {
                    self.barrier_hazards
                        .entry(cell)
                        .or_insert_with(|| (at, held.clone()));
                }
            }
            _ => {}
        }
    }
}

// ---------------------------------------------------------------------
// Combined sink
// ---------------------------------------------------------------------

/// The coherence checker and the lock-order graph fused into one
/// [`TraceSink`], so a harness attaching one sink per machine gets both
/// analyses.
#[derive(Debug, Default)]
pub struct PredictiveSink {
    checker: CheckingSink,
    lock_graph: LockOrderGraph,
}

impl PredictiveSink {
    /// A combined sink with the given coherence-checker tuning.
    #[must_use]
    pub fn new(cfg: CheckerConfig) -> Self {
        Self {
            checker: CheckingSink::new(cfg),
            lock_graph: LockOrderGraph::new(),
        }
    }

    /// The coherence side.
    #[must_use]
    pub fn checker(&self) -> &CheckingSink {
        &self.checker
    }

    /// The lock-order side.
    #[must_use]
    pub fn lock_graph(&self) -> &LockOrderGraph {
        &self.lock_graph
    }

    /// Coherence violations detected so far.
    #[must_use]
    pub fn violations(&self) -> &[Violation] {
        self.checker.violations()
    }

    /// Predictive lock-order findings so far.
    #[must_use]
    pub fn predict_findings(&self) -> Vec<PredictFinding> {
        self.lock_graph.findings()
    }

    /// Whether both analyses are clean.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.checker.is_clean() && self.lock_graph.is_clean()
    }
}

impl TraceSink for PredictiveSink {
    #[inline]
    fn record(&mut self, event: &TraceEvent) {
        self.checker.record(event);
        self.lock_graph.record(event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SP: u64 = 128;

    fn acq(at: Cycles, cell: usize, sp: u64) -> TraceEvent {
        TraceEvent::SyncAcquire {
            at,
            cell,
            subpage: sp,
            rmw: false,
        }
    }

    fn rel(at: Cycles, cell: usize, sp: u64) -> TraceEvent {
        TraceEvent::SyncRelease {
            at,
            cell,
            subpage: sp,
            rmw: false,
        }
    }

    fn w(at: Cycles, cell: usize, addr: u64) -> TraceEvent {
        TraceEvent::DataWrite { at, cell, addr }
    }

    fn barrier(at: Cycles, cell: usize) -> TraceEvent {
        TraceEvent::BarrierEpisode {
            at,
            cell,
            episode: 1,
        }
    }

    #[test]
    fn ordered_but_unlocked_writes_are_flagged() {
        // Cell 1's write is ordered after cell 0's via a *different*
        // lock each time — happens-before sees no race, Eraser does.
        let data = 3 * SP;
        let findings = lockset_analysis(&[
            acq(10, 0, 50),
            w(11, 0, data),
            rel(12, 0, 50),
            acq(20, 1, 60),
            w(21, 1, data),
            rel(22, 1, 60),
        ]);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].rule, PredictRule::EmptyLockset);
        assert_eq!(findings[0].addr, data);
        assert_eq!(findings[0].cells, vec![0, 1]);
    }

    #[test]
    fn consistent_lock_keeps_the_lockset_nonempty() {
        let data = 3 * SP;
        let findings = lockset_analysis(&[
            acq(10, 0, 50),
            w(11, 0, data),
            rel(12, 0, 50),
            acq(20, 1, 50),
            w(21, 1, data),
            rel(22, 1, 50),
        ]);
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn barrier_era_handoff_is_not_flagged() {
        // Phase 1: cell 0 owns the word. Barrier. Phase 2: cell 1 owns
        // it. Classic bucket handoff — no lock needed, no finding.
        let data = 3 * SP;
        let findings = lockset_analysis(&[
            w(10, 0, data),
            barrier(20, 0),
            barrier(20, 1),
            w(30, 1, data),
        ]);
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn same_era_unlocked_sharing_is_still_flagged_after_a_barrier() {
        let data = 3 * SP;
        let findings =
            lockset_analysis(&[barrier(5, 0), barrier(5, 1), w(10, 0, data), w(30, 1, data)]);
        assert_eq!(findings.len(), 1);
    }

    #[test]
    fn sync_subpage_accesses_are_exempt() {
        let flag = 9 * SP;
        let findings = lockset_analysis(&[
            w(10, 0, flag),
            w(12, 1, flag),
            TraceEvent::SpinRead {
                at: 20,
                cell: 1,
                addr: flag,
            },
        ]);
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn opposite_nesting_orders_form_a_cycle() {
        let mut g = LockOrderGraph::new();
        g.ingest(&[
            acq(10, 0, 1),
            acq(11, 0, 2), // 1 -> 2
            rel(12, 0, 2),
            rel(13, 0, 1),
            acq(20, 1, 2),
            acq(21, 1, 1), // 2 -> 1: cycle
            rel(22, 1, 1),
            rel(23, 1, 2),
        ]);
        let cycles = g.cycles();
        assert_eq!(cycles, vec![vec![1, 2]]);
        let f = g.findings();
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, PredictRule::PotentialDeadlock);
        assert_eq!(f[0].cells, vec![0, 1]);
    }

    #[test]
    fn consistent_nesting_is_acyclic() {
        let mut g = LockOrderGraph::new();
        g.ingest(&[
            acq(10, 0, 1),
            acq(11, 0, 2),
            rel(12, 0, 2),
            rel(13, 0, 1),
            acq(20, 1, 1),
            acq(21, 1, 2),
            rel(22, 1, 2),
            rel(23, 1, 1),
        ]);
        assert!(g.is_clean(), "{:?}", g.findings());
        assert_eq!(g.edges().len(), 1);
    }

    #[test]
    fn three_lock_cycle_found_once() {
        let mut g = LockOrderGraph::new();
        // 1 -> 2 (cell 0), 2 -> 3 (cell 1), 3 -> 1 (cell 2).
        g.ingest(&[
            acq(10, 0, 1),
            acq(11, 0, 2),
            rel(12, 0, 2),
            rel(13, 0, 1),
            acq(20, 1, 2),
            acq(21, 1, 3),
            rel(22, 1, 3),
            rel(23, 1, 2),
            acq(30, 2, 3),
            acq(31, 2, 1),
            rel(32, 2, 1),
            rel(33, 2, 3),
        ]);
        assert_eq!(g.cycles(), vec![vec![1, 2, 3]]);
    }

    #[test]
    fn rmw_pseudo_locks_never_form_edges() {
        let mut g = LockOrderGraph::new();
        g.ingest(&[
            acq(10, 0, 1),
            TraceEvent::SyncAcquire {
                at: 11,
                cell: 0,
                subpage: 2,
                rmw: true,
            },
            TraceEvent::SyncRelease {
                at: 11,
                cell: 0,
                subpage: 2,
                rmw: true,
            },
            rel(12, 0, 1),
        ]);
        assert!(g.edges().is_empty());
    }

    #[test]
    fn barrier_while_holding_a_lock_is_a_hazard() {
        let mut g = LockOrderGraph::new();
        g.ingest(&[acq(10, 0, 7), barrier(20, 0), rel(30, 0, 7)]);
        let f = g.findings();
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, PredictRule::LockHeldAtBarrier);
        assert_eq!(f[0].addr, 7);
    }

    #[test]
    fn combined_sink_reports_both_sides() {
        use ksr_core::trace::TraceState::{Exclusive, Missing};
        let mut sink = PredictiveSink::default();
        for e in [
            TraceEvent::Coherence {
                at: 10,
                cell: 0,
                subpage: 9,
                from: Missing,
                to: Exclusive,
            },
            TraceEvent::Coherence {
                at: 20,
                cell: 1,
                subpage: 9,
                from: Missing,
                to: Exclusive,
            },
            acq(30, 0, 1),
            acq(31, 0, 2),
            rel(32, 0, 2),
            rel(33, 0, 1),
            acq(40, 1, 2),
            acq(41, 1, 1),
            rel(42, 1, 1),
            rel(43, 1, 2),
        ] {
            sink.record(&e);
        }
        assert!(!sink.is_clean());
        // The synthetic acquire/release events carry no backing Atomic
        // coherence transitions, so the checker also flags those; the
        // seeded double-writer must be among the violations.
        assert!(
            sink.violations()
                .iter()
                .any(|v| v.rule == crate::checker::Rule::MultipleWriters),
            "coherence side: {:?}",
            sink.violations()
        );
        let predicted = sink.predict_findings();
        assert_eq!(predicted.len(), 1, "lock-order side: {predicted:?}");
        assert_eq!(predicted[0].rule, PredictRule::PotentialDeadlock);
    }
}
