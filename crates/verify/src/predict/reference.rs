//! The lockset pass [`lockset_analysis`](super::lockset_analysis)
//! replaced, kept as the reference its differential test compares
//! against: `BTreeSet` locksets cloned at every access from per-cell
//! sets held in `BTreeMap`s, and an index sort of the whole trace.

use std::collections::{BTreeMap, BTreeSet};

use ksr_core::time::Cycles;
use ksr_core::trace::TraceEvent;
use ksr_mem::subpage_of;

use super::{PredictFinding, PredictRule};
use crate::race::reference::RaceDetector;

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
pub(crate) fn lockset_analysis(events: &[TraceEvent]) -> Vec<PredictFinding> {
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
