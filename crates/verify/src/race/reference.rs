//! The race detector [`RaceDetector`](super::RaceDetector) replaced,
//! kept as the reference its differential test compares against: a
//! clone of the processor's vector clock per access, a per-variable
//! `FxHashMap` of reader epochs, and an index sort of the whole trace.
//! It carries one change over the original: when several readers race
//! with one write, the report names the lowest reading cell (the
//! original took the first its map iterated).

use ksr_core::time::Cycles;
use ksr_core::trace::TraceEvent;
use ksr_core::{FxHashMap, FxHashSet};
use ksr_mem::subpage_of;

use super::{Access, RaceReport};

#[derive(Debug, Clone, PartialEq, Eq)]
struct VectorClock(Vec<u64>);

impl VectorClock {
    fn new(n: usize) -> Self {
        Self(vec![0; n])
    }

    fn get(&self, p: usize) -> u64 {
        self.0.get(p).copied().unwrap_or(0)
    }

    fn join(&mut self, other: &Self) {
        if self.0.len() < other.0.len() {
            self.0.resize(other.0.len(), 0);
        }
        for (i, &v) in other.0.iter().enumerate() {
            if self.0[i] < v {
                self.0[i] = v;
            }
        }
    }

    fn tick(&mut self, p: usize) {
        if self.0.len() <= p {
            self.0.resize(p + 1, 0);
        }
        self.0[p] += 1;
    }
}

#[derive(Debug, Default)]
struct VarState {
    /// Last write: (cell, writer's epoch at the write, cycle).
    write: Option<(usize, u64, Cycles)>,
    /// Per-cell last read: cell -> (reader's epoch, cycle).
    reads: FxHashMap<usize, (u64, Cycles)>,
}

/// Vector-clock happens-before race detector over one run's events
/// ([`analyze`](Self::analyze)).
#[derive(Debug)]
pub(crate) struct RaceDetector {
    nprocs: usize,
    /// Retention cap on reports (first race per address is always kept
    /// up to this many addresses).
    max_reports: usize,
    clocks: Vec<VectorClock>,
    locks: FxHashMap<u64, VectorClock>,
    vars: FxHashMap<u64, VarState>,
    reported_addrs: FxHashSet<u64>,
    reports: Vec<RaceReport>,
}

impl RaceDetector {
    /// A detector for programs running on `nprocs` processors.
    pub(crate) fn new(nprocs: usize) -> Self {
        let mut clocks = Vec::with_capacity(nprocs);
        for p in 0..nprocs {
            let mut c = VectorClock::new(nprocs);
            c.tick(p);
            clocks.push(c);
        }
        Self {
            nprocs,
            max_reports: 32,
            clocks,
            locks: FxHashMap::default(),
            vars: FxHashMap::default(),
            reported_addrs: FxHashSet::default(),
            reports: Vec::new(),
        }
    }

    /// Analyze a single run's events and return the reports found, in
    /// detection order (deterministic).
    pub(crate) fn analyze(mut self, events: &[TraceEvent]) -> Vec<RaceReport> {
        self.ingest(events);
        self.reports
    }

    /// Sub-pages acting as synchronization objects anywhere in `events`:
    /// targets of `SyncAcquire`/`SyncRelease` (locks, `get_sub_page`,
    /// native RMWs) and of satisfied spins (flags). Shared with the
    /// predictive lockset pass so both passes agree on what counts as a
    /// synchronization object.
    pub(crate) fn sync_subpages(events: &[TraceEvent]) -> FxHashSet<u64> {
        let mut sync = FxHashSet::default();
        for e in events {
            match *e {
                TraceEvent::SyncAcquire { subpage, .. }
                | TraceEvent::SyncRelease { subpage, .. } => {
                    sync.insert(subpage);
                }
                TraceEvent::SpinRead { addr, .. } => {
                    sync.insert(subpage_of(addr));
                }
                _ => {}
            }
        }
        sync
    }

    fn clock(&mut self, p: usize) -> &mut VectorClock {
        if self.clocks.len() <= p {
            let n = self.nprocs.max(p + 1);
            while self.clocks.len() <= p {
                let q = self.clocks.len();
                let mut c = VectorClock::new(n);
                c.tick(q);
                self.clocks.push(c);
            }
        }
        &mut self.clocks[p]
    }

    fn acquire(&mut self, cell: usize, sp: u64) {
        if let Some(l) = self.locks.get(&sp) {
            let l = l.clone();
            self.clock(cell).join(&l);
        }
    }

    fn release(&mut self, cell: usize, sp: u64) {
        let c = self.clock(cell).clone();
        // Join rather than overwrite so concurrent releasers of a flag
        // sub-page accumulate: conservative (adds edges), never reports a
        // false race.
        self.locks
            .entry(sp)
            .or_insert_with(|| VectorClock::new(0))
            .join(&c);
        self.clock(cell).tick(cell);
    }

    fn report(&mut self, addr: u64, first: Access, second: Access) {
        // One report per address keeps the output readable; a single
        // unsynchronized loop otherwise floods thousands of pairs.
        if !self.reported_addrs.insert(addr) || self.reports.len() >= self.max_reports {
            return;
        }
        self.reports.push(RaceReport {
            addr,
            subpage: subpage_of(addr),
            first,
            second,
        });
    }

    fn on_read(&mut self, cell: usize, at: Cycles, addr: u64) {
        let epoch = self.clock(cell).get(cell);
        let my_view = self.clock(cell).clone();
        let var = self.vars.entry(addr).or_default();
        if let Some((w_cell, w_epoch, w_at)) = var.write {
            if w_cell != cell && my_view.get(w_cell) < w_epoch {
                let first = Access {
                    cell: w_cell,
                    at: w_at,
                    write: true,
                };
                let second = Access {
                    cell,
                    at,
                    write: false,
                };
                self.report(addr, first, second);
                return;
            }
        }
        self.vars
            .entry(addr)
            .or_default()
            .reads
            .insert(cell, (epoch, at));
    }

    fn on_write(&mut self, cell: usize, at: Cycles, addr: u64) {
        let my_view = self.clock(cell).clone();
        let var = self.vars.entry(addr).or_default();
        let mut racy: Option<Access> = None;
        if let Some((w_cell, w_epoch, w_at)) = var.write {
            if w_cell != cell && my_view.get(w_cell) < w_epoch {
                racy = Some(Access {
                    cell: w_cell,
                    at: w_at,
                    write: true,
                });
            }
        }
        if racy.is_none() {
            // The one change from the original: of several racing
            // readers, name the lowest cell, not the first one the map
            // iterates.
            racy = var
                .reads
                .iter()
                .filter(|&(&r_cell, &(r_epoch, _))| r_cell != cell && my_view.get(r_cell) < r_epoch)
                .min_by_key(|&(&r_cell, _)| r_cell)
                .map(|(&r_cell, &(_, r_at))| Access {
                    cell: r_cell,
                    at: r_at,
                    write: false,
                });
        }
        let epoch = my_view.get(cell);
        let var = self.vars.entry(addr).or_default();
        var.write = Some((cell, epoch, at));
        var.reads.clear();
        if let Some(first) = racy {
            let second = Access {
                cell,
                at,
                write: true,
            };
            self.report(addr, first, second);
        }
    }

    /// Feed the run's events, in virtual-time order.
    fn ingest(&mut self, events: &[TraceEvent]) {
        let sync = Self::sync_subpages(events);
        let mut order: Vec<usize> = (0..events.len()).collect();
        // Stable sort: equal-cycle events keep arrival (coordinator
        // commit) order, which is itself deterministic.
        order.sort_by_key(|&i| events[i].at());
        for i in order {
            match events[i] {
                TraceEvent::SyncAcquire { cell, subpage, .. } => self.acquire(cell, subpage),
                TraceEvent::SyncRelease { cell, subpage, .. } => self.release(cell, subpage),
                TraceEvent::SpinRead { cell, addr, .. } => {
                    self.acquire(cell, subpage_of(addr));
                }
                TraceEvent::DataRead { at, cell, addr } => {
                    let sp = subpage_of(addr);
                    if sync.contains(&sp) {
                        // Reading a flag is an acquire of whatever its
                        // last producer released.
                        self.acquire(cell, sp);
                    } else {
                        self.on_read(cell, at, addr);
                    }
                }
                TraceEvent::DataWrite { at, cell, addr } => {
                    let sp = subpage_of(addr);
                    if sync.contains(&sp) {
                        // Writing a flag publishes the producer's history.
                        self.release(cell, sp);
                    } else {
                        self.on_write(cell, at, addr);
                    }
                }
                _ => {}
            }
        }
    }
}
