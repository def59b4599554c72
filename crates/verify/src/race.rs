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

/// The part of one trace the offline passes read, from the prepass they
/// share ([`Timeline::of`]).
pub(crate) struct Timeline {
    /// `(at, position, word)` of every synchronization, spin, data and
    /// barrier event, sorted: virtual-time order, with equal-cycle events
    /// in arrival (coordinator commit) order, which is itself
    /// deterministic. `word` numbers the ordinary words densely from 0 in
    /// order of first access, and is [`NOT_A_WORD`] for every other
    /// event.
    order: Vec<(Cycles, u32, u32)>,
    /// Distinct ordinary words.
    words: usize,
}

/// The `word` of an event that is not a plain access to an ordinary
/// word.
const NOT_A_WORD: u32 = u32::MAX;

impl Timeline {
    /// Two passes over the trace and one in-place sort. The first finds
    /// the sub-pages that act as synchronization objects anywhere in the
    /// trace: targets of `SyncAcquire`/`SyncRelease` (locks,
    /// `get_sub_page`, native RMWs) and of satisfied spins (flags); both
    /// passes exempt plain accesses to them, and agree on what counts as
    /// a synchronization object. The second keys the events the passes
    /// read, numbering each ordinary word on its first access, so the
    /// passes keep their per-word state in a `Vec` and look nothing up.
    ///
    /// # Panics
    /// On a trace of 2^32 - 1 events or more (128 GB of events).
    pub(crate) fn of(events: &[TraceEvent]) -> Self {
        assert!(
            events.len() < NOT_A_WORD as usize,
            "a trace of {} events is too long for the offline passes",
            events.len()
        );
        let read = |e: &TraceEvent| {
            matches!(
                e,
                TraceEvent::SyncAcquire { .. }
                    | TraceEvent::SyncRelease { .. }
                    | TraceEvent::SpinRead { .. }
                    | TraceEvent::DataRead { .. }
                    | TraceEvent::DataWrite { .. }
                    | TraceEvent::BarrierEpisode { .. }
            )
        };
        let mut sync = FxHashSet::default();
        let mut keys = 0;
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
            keys += usize::from(read(e));
        }
        let mut ids: FxHashMap<u64, u32> = FxHashMap::default();
        let mut order = Vec::with_capacity(keys);
        for (i, e) in events.iter().enumerate() {
            let word = match *e {
                TraceEvent::DataRead { addr, .. } | TraceEvent::DataWrite { addr, .. }
                    if !sync.contains(&subpage_of(addr)) =>
                {
                    let next = ids.len() as u32;
                    *ids.entry(addr).or_insert(next)
                }
                _ if read(e) => NOT_A_WORD,
                _ => continue,
            };
            order.push((e.at(), i as u32, word));
        }
        order.sort_unstable();
        Self {
            order,
            words: ids.len(),
        }
    }

    /// Distinct ordinary words: every word id is below this.
    pub(crate) fn words(&self) -> usize {
        self.words
    }

    /// The events the passes read, in time order, each with its word id
    /// when it is a plain access to an ordinary word (`None` for a data
    /// access to a synchronization sub-page, and for every other event).
    pub(crate) fn events<'a>(
        &'a self,
        events: &'a [TraceEvent],
    ) -> impl Iterator<Item = (&'a TraceEvent, Option<usize>)> + 'a {
        self.order.iter().map(move |&(_, i, word)| {
            (
                &events[i as usize],
                (word != NOT_A_WORD).then_some(word as usize),
            )
        })
    }
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
        for (mine, &theirs) in self.0.iter_mut().zip(&other.0) {
            if *mine < theirs {
                *mine = theirs;
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

/// One access as the detector remembers it: the cell, the cell's own
/// clock entry at the access, and the cycle.
#[derive(Debug, Clone, Copy)]
struct Epoch {
    cell: usize,
    clock: u64,
    at: Cycles,
}

impl Epoch {
    /// Whether the access is by another cell and not ordered before a
    /// cell whose clock is `view`.
    fn races(&self, cell: usize, view: &VectorClock) -> bool {
        self.cell != cell && view.get(self.cell) < self.clock
    }

    fn access(&self, write: bool) -> Access {
        Access {
            cell: self.cell,
            at: self.at,
            write,
        }
    }
}

/// Each cell's last read of one variable since its last write: the
/// first reader inline, any others (words that several cells read
/// between writes) in `more`, which allocates only then.
#[derive(Debug, Default)]
struct Readers {
    first: Option<Epoch>,
    more: Vec<Epoch>,
}

impl Readers {
    fn record(&mut self, read: Epoch) {
        match &mut self.first {
            None => self.first = Some(read),
            Some(first) if first.cell == read.cell => *first = read,
            Some(_) => match self.more.iter_mut().find(|r| r.cell == read.cell) {
                Some(slot) => *slot = read,
                None => self.more.push(read),
            },
        }
    }

    /// The racing reader of a write by `cell` whose clock is `view`: of
    /// several, the lowest cell.
    fn racing(&self, cell: usize, view: &VectorClock) -> Option<Epoch> {
        self.first
            .iter()
            .chain(&self.more)
            .filter(|r| r.races(cell, view))
            .min_by_key(|r| r.cell)
            .copied()
    }

    fn clear(&mut self) {
        self.first = None;
        self.more.clear();
    }
}

/// One ordinary word's access history.
#[derive(Debug, Default)]
struct VarState {
    /// Last write.
    write: Option<Epoch>,
    /// Reads since the last write.
    reads: Readers,
    /// Whether a race on this word has been reported: one report per
    /// word keeps the output readable, as a single unsynchronized loop
    /// otherwise floods thousands of pairs.
    reported: bool,
}

/// Processor `p`'s clock; a cell at or above `nprocs` gets one on first
/// use, as does every cell below it that has none yet.
fn clock(clocks: &mut Vec<VectorClock>, nprocs: usize, p: usize) -> &mut VectorClock {
    if clocks.len() <= p {
        let n = nprocs.max(p + 1);
        while clocks.len() <= p {
            let mut c = VectorClock::new(n);
            c.tick(clocks.len());
            clocks.push(c);
        }
    }
    &mut clocks[p]
}

/// Vector-clock happens-before race detector over one run's events
/// ([`analyze`](Self::analyze)).
///
/// A read races with an earlier write by another cell that is not
/// ordered before it; a write races with such a write, else with such a
/// read. When several readers race with one write, the report names the
/// lowest reading cell.
#[derive(Debug)]
pub struct RaceDetector {
    nprocs: usize,
    /// Retention cap on reports (first race per address is always kept
    /// up to this many addresses).
    max_reports: usize,
    clocks: Vec<VectorClock>,
    locks: FxHashMap<u64, VectorClock>,
    /// Per ordinary word, by the timeline's word id.
    vars: Vec<VarState>,
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
            vars: Vec::new(),
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

    fn acquire(&mut self, cell: usize, sp: u64) {
        if let Some(l) = self.locks.get(&sp) {
            clock(&mut self.clocks, self.nprocs, cell).join(l);
        }
    }

    fn release(&mut self, cell: usize, sp: u64) {
        let c = clock(&mut self.clocks, self.nprocs, cell);
        // Join rather than overwrite so concurrent releasers of a flag
        // sub-page accumulate: conservative (adds edges), never reports a
        // false race.
        self.locks
            .entry(sp)
            .or_insert_with(|| VectorClock::new(0))
            .join(c);
        c.tick(cell);
    }

    /// A plain access to ordinary word `word`: check it against the
    /// word's history, report a race, and record it.
    fn on_access(&mut self, word: usize, cell: usize, at: Cycles, addr: u64, write: bool) {
        let view = &*clock(&mut self.clocks, self.nprocs, cell);
        let var = &mut self.vars[word];
        let racy = match var.write {
            Some(w) if w.races(cell, view) => Some(w.access(true)),
            _ if write => var.reads.racing(cell, view).map(|r| r.access(false)),
            _ => None,
        };
        let me = Epoch {
            cell,
            clock: view.get(cell),
            at,
        };
        if write {
            var.write = Some(me);
            var.reads.clear();
        } else if racy.is_none() {
            // A read that races with the last write is reported, not
            // remembered.
            var.reads.record(me);
        }
        if let Some(first) = racy {
            if !var.reported && self.reports.len() < self.max_reports {
                self.reports.push(RaceReport {
                    addr,
                    subpage: subpage_of(addr),
                    first,
                    second: me.access(write),
                });
            }
            var.reported = true;
        }
    }

    /// Feed the run's events, in virtual-time order.
    fn ingest(&mut self, events: &[TraceEvent]) {
        let timeline = Timeline::of(events);
        self.vars.resize_with(timeline.words(), VarState::default);
        for (e, word) in timeline.events(events) {
            match (*e, word) {
                (TraceEvent::SyncAcquire { cell, subpage, .. }, _) => self.acquire(cell, subpage),
                (TraceEvent::SyncRelease { cell, subpage, .. }, _) => self.release(cell, subpage),
                (TraceEvent::SpinRead { cell, addr, .. }, _) => {
                    self.acquire(cell, subpage_of(addr));
                }
                (TraceEvent::DataRead { at, cell, addr }, Some(word)) => {
                    self.on_access(word, cell, at, addr, false);
                }
                (TraceEvent::DataWrite { at, cell, addr }, Some(word)) => {
                    self.on_access(word, cell, at, addr, true);
                }
                // Reading a flag is an acquire of whatever its last
                // producer released.
                (TraceEvent::DataRead { cell, addr, .. }, None) => {
                    self.acquire(cell, subpage_of(addr));
                }
                // Writing a flag publishes the producer's history.
                (TraceEvent::DataWrite { cell, addr, .. }, None) => {
                    self.release(cell, subpage_of(addr));
                }
                _ => {}
            }
        }
    }
}

#[cfg(test)]
pub(crate) mod reference;

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

    /// Of several readers that race with one write, the report names the
    /// lowest cell, whatever order they read in.
    #[test]
    fn a_write_racing_several_readers_names_the_lowest_cell() {
        let reports = RaceDetector::new(4).analyze(&[
            read(10, 3, 512),
            read(11, 1, 512),
            read(12, 2, 512),
            read(13, 3, 512),
            write(20, 0, 512),
        ]);
        assert_eq!(reports.len(), 1, "{reports:?}");
        let r = reports[0];
        assert_eq!((r.first.cell, r.first.at, r.first.write), (1, 11, false));
        assert_eq!((r.second.cell, r.second.at, r.second.write), (0, 20, true));
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
