//! Happens-before data-race detection over the trace stream.
//!
//! A FastTrack-style vector-clock analysis ([`RaceDetector`]) over the
//! per-processor [`TraceEvent::DataRead`]/[`TraceEvent::DataWrite`]
//! stream, with synchronization edges recovered from the trace itself:
//!
//! * `get_sub_page` / `release_sub_page` pairs ([`TraceEvent::SyncAcquire`]
//!   / [`TraceEvent::SyncRelease`] with `rmw: false`) behave as lock
//!   acquire/release on their sub-page;
//! * native atomic RMWs (`rmw: true`) are an indivisible acquire+release
//!   of their sub-page;
//! * flag handoffs synchronize through the flag's sub-page: the producer's
//!   write releases, the consumer's satisfied spin
//!   ([`TraceEvent::SpinRead`]) acquires — this covers the
//!   write → poststore/snarf → spin wake-up idiom of every barrier in
//!   `ksr-sync`.
//!
//! Sub-pages touched by *any* synchronization primitive (acquired, spun
//! on, or hit by a native RMW anywhere in the run) are classified as
//! *sync sub-pages* in a pre-pass; accesses to them carry
//! happens-before edges and are exempt from race reporting (they are
//! synchronization, and racing on them is their job). Races are reported
//! only between plain data accesses to ordinary sub-pages.
//!
//! The detector is deliberately conservative in the safe direction: it
//! may miss a race (extra inferred edges), but a reported race is a real
//! pair of unordered conflicting accesses under the recovered
//! happens-before relation.

use ksr_core::time::Cycles;
use ksr_core::trace::{TraceEvent, TraceSink};
use ksr_core::{FxHashMap, FxHashSet};
use ksr_mem::subpage_of;

/// A [`TraceSink`] that simply buffers every event for offline analysis.
#[derive(Debug, Default)]
pub struct CollectingSink {
    events: Vec<TraceEvent>,
}

impl CollectingSink {
    /// An empty collector.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Events collected so far, in arrival order.
    #[must_use]
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Drain and return everything collected so far.
    pub fn take(&mut self) -> Vec<TraceEvent> {
        std::mem::take(&mut self.events)
    }

    /// Number of buffered events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether nothing has been collected.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

impl TraceSink for CollectingSink {
    fn record(&mut self, event: &TraceEvent) {
        self.events.push(*event);
    }

    fn record_batch(&mut self, events: &[TraceEvent]) {
        self.events.extend_from_slice(events);
    }
}

/// One side of a racy pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Access {
    /// Processor that issued the access.
    pub cell: usize,
    /// Virtual cycle at which it committed.
    pub at: Cycles,
    /// Whether it was a write.
    pub write: bool,
}

/// A pair of conflicting accesses with no happens-before path between
/// them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RaceReport {
    /// The word address both sides touched.
    pub addr: u64,
    /// Its sub-page.
    pub subpage: u64,
    /// The earlier access (by virtual time).
    pub first: Access,
    /// The later, unordered access. At least one side is a write.
    pub second: Access,
}

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
pub struct RaceDetector {
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
    #[must_use]
    pub fn new(nprocs: usize) -> Self {
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
    #[must_use]
    pub fn analyze(mut self, events: &[TraceEvent]) -> Vec<RaceReport> {
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
            for (&r_cell, &(r_epoch, r_at)) in &var.reads {
                if r_cell != cell && my_view.get(r_cell) < r_epoch {
                    racy = Some(Access {
                        cell: r_cell,
                        at: r_at,
                        write: false,
                    });
                    break;
                }
            }
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

#[cfg(test)]
mod tests {
    use super::*;

    const SP_BYTES: u64 = 128;

    fn write(at: Cycles, cell: usize, addr: u64) -> TraceEvent {
        TraceEvent::DataWrite { at, cell, addr }
    }

    fn read(at: Cycles, cell: usize, addr: u64) -> TraceEvent {
        TraceEvent::DataRead { at, cell, addr }
    }

    fn acquire(at: Cycles, cell: usize, sp: u64) -> TraceEvent {
        TraceEvent::SyncAcquire {
            at,
            cell,
            subpage: sp,
            rmw: false,
        }
    }

    fn release(at: Cycles, cell: usize, sp: u64) -> TraceEvent {
        TraceEvent::SyncRelease {
            at,
            cell,
            subpage: sp,
            rmw: false,
        }
    }

    #[test]
    fn unsynchronized_write_write_is_a_race() {
        let reports =
            RaceDetector::new(2).analyze(&[write(10, 0, 4 * SP_BYTES), write(20, 1, 4 * SP_BYTES)]);
        assert_eq!(reports.len(), 1);
        let r = reports[0];
        assert_eq!(r.addr, 4 * SP_BYTES);
        assert_eq!((r.first.cell, r.second.cell), (0, 1));
        assert!(r.first.write && r.second.write);
        assert_eq!((r.first.at, r.second.at), (10, 20));
    }

    #[test]
    fn unsynchronized_read_after_write_is_a_race() {
        let reports = RaceDetector::new(2).analyze(&[write(10, 0, 512), read(20, 1, 512)]);
        assert_eq!(reports.len(), 1);
        assert!(reports[0].first.write && !reports[0].second.write);
    }

    #[test]
    fn lock_protected_accesses_do_not_race() {
        let lock_sp = 99;
        let reports = RaceDetector::new(2).analyze(&[
            acquire(10, 0, lock_sp),
            write(11, 0, 512),
            release(12, 0, lock_sp),
            acquire(20, 1, lock_sp),
            write(21, 1, 512),
            release(22, 1, lock_sp),
        ]);
        assert!(reports.is_empty(), "{reports:?}");
    }

    #[test]
    fn rmw_pairs_order_accesses_too() {
        let sp = 7;
        let rmw = |at, cell| {
            [
                TraceEvent::SyncAcquire {
                    at,
                    cell,
                    subpage: sp,
                    rmw: true,
                },
                TraceEvent::SyncRelease {
                    at,
                    cell,
                    subpage: sp,
                    rmw: true,
                },
            ]
        };
        let mut events = vec![write(5, 0, 512)];
        events.extend(rmw(6, 0));
        events.extend(rmw(10, 1));
        events.push(read(11, 1, 512));
        assert!(RaceDetector::new(2).analyze(&events).is_empty());
    }

    #[test]
    fn flag_handoff_via_spin_orders_accesses() {
        // Producer writes data, then sets a flag; consumer spins on the
        // flag, then reads the data. The flag sub-page is classified as
        // sync because a SpinRead targets it.
        let flag = 9 * SP_BYTES;
        let data = 3 * SP_BYTES;
        let reports = RaceDetector::new(2).analyze(&[
            write(10, 0, data),
            write(11, 0, flag),
            TraceEvent::SpinRead {
                at: 20,
                cell: 1,
                addr: flag,
            },
            read(21, 1, data),
        ]);
        assert!(reports.is_empty(), "{reports:?}");
    }

    #[test]
    fn flag_accesses_themselves_are_not_reported() {
        let flag = 9 * SP_BYTES;
        let reports = RaceDetector::new(2).analyze(&[
            write(10, 0, flag),
            write(12, 1, flag),
            TraceEvent::SpinRead {
                at: 20,
                cell: 1,
                addr: flag,
            },
        ]);
        assert!(reports.is_empty(), "{reports:?}");
    }

    #[test]
    fn one_report_per_address() {
        let reports = RaceDetector::new(4).analyze(&[
            write(10, 0, 512),
            write(20, 1, 512),
            write(30, 2, 512),
            write(40, 3, 512),
        ]);
        assert_eq!(reports.len(), 1, "{reports:?}");
    }

    #[test]
    fn same_cell_accesses_never_race() {
        let reports =
            RaceDetector::new(1).analyze(&[write(10, 0, 512), read(20, 0, 512), write(30, 0, 512)]);
        assert!(reports.is_empty());
    }

    #[test]
    fn events_are_ordered_by_virtual_time_not_arrival() {
        // Release arrives in the buffer after the acquire but carries an
        // earlier timestamp; sorting by `at` must recover the real order.
        let lock_sp = 99;
        let reports = RaceDetector::new(2).analyze(&[
            acquire(10, 0, lock_sp),
            write(11, 0, 512),
            acquire(20, 1, lock_sp),
            write(21, 1, 512),
            release(12, 0, lock_sp), // out of arrival order
        ]);
        assert!(reports.is_empty(), "{reports:?}");
    }
}
