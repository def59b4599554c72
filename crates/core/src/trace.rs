//! Cycle-stamped event tracing.
//!
//! The paper's method is observability: the authors attributed slowdowns
//! to cache capacity vs. ring saturation with the KSR-1's hardware
//! performance monitor (§2, §3.3.2). The aggregate counters live in
//! `ksr-mem`'s `PerfMon`; this module adds the *event* layer beneath
//! them — every ring slot acquisition, coherence transition, snarf,
//! invalidation, atomic rejection, barrier episode, and lock handoff can
//! be observed as it happens, stamped with the virtual cycle at which it
//! committed.
//!
//! Design constraints, in order:
//!
//! 1. **Determinism.** Sinks only *observe*; nothing they do can feed
//!    back into simulated time. A run produces identical cycle counts
//!    with tracing enabled or disabled (`tests/trace_determinism.rs`),
//!    and batching changes when a sink sees an event, never which events
//!    it sees or their order (`tests/trace_stream.rs` pins the ordered
//!    streams).
//! 2. **Zero cost when disabled, one lock per batch when enabled.** A
//!    [`Tracer`] is one machine's owned event buffer, an `Option` around
//!    a sink and a `Vec`. The disabled path is one branch, and event
//!    construction is deferred into a closure that never runs
//!    ([`Tracer::emit_with`]). The enabled path appends to the buffer and
//!    hands the sink [`Tracer::BATCH`] events at a time through one
//!    [`TraceSink::record_batch`] call: one lock and one dynamic call per
//!    batch, not per event.
//! 3. **No new dependencies, machines stay `Send`.** The buffer has one
//!    owner (the machine's memory system) and every emitter writes
//!    through `&mut Tracer`; only the sink is shared, as an
//!    `Arc<Mutex<_>>` from `std`, so a reader holds it after the run.
//!
//! **Delivery contract.** The buffer hands its events to the sink, in
//! emission order and as one batch, when an event finds it full, when
//! its owner calls [`Tracer::flush`], and when the tracer is dropped. The
//! machine flushes before every run and every warm-up returns, unwinding
//! included, and a bare memory system on `flush_trace`; so a reader that
//! locks the sink after a run sees the whole stream. A clone shares the
//! sink and starts with an empty buffer, so an event pending in the
//! original is delivered once, by the original.

use std::sync::{Arc, Mutex};

use crate::time::Cycles;

/// Coherence states as the tracer sees them — a mirror of `ksr-mem`'s
/// `SubpageState`, defined here so the net/mem/machine crates share one
/// event vocabulary without a dependency cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceState {
    /// No copy and no place holder in this cell.
    Missing,
    /// Invalid place holder (allocated, no data).
    Invalid,
    /// Valid read-only copy.
    Shared,
    /// The sole writable copy.
    Exclusive,
    /// Held atomic by `get_sub_page`.
    Atomic,
}

impl TraceState {
    /// Short label for rendering.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Self::Missing => "missing",
            Self::Invalid => "invalid",
            Self::Shared => "shared",
            Self::Exclusive => "exclusive",
            Self::Atomic => "atomic",
        }
    }
}

/// One cycle-stamped simulator event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEvent {
    /// A packet won a slot on a ring (or admission to a bus/switch): the
    /// "ring slot acquire/wait" pair the hardware monitor aggregates into
    /// `ring_wait_cycles`.
    RingSlot {
        /// When the packet entered the fabric.
        at: Cycles,
        /// Cycles spent waiting for admission.
        wait: Cycles,
        /// Whether every slot of the sub-ring was in flight (saturation).
        blocked: bool,
    },
    /// A sub-page changed coherence state in one cell.
    Coherence {
        /// When the new state became visible.
        at: Cycles,
        /// The cell whose state changed.
        cell: usize,
        /// The sub-page index.
        subpage: u64,
        /// State before the transition.
        from: TraceState,
        /// State after the transition.
        to: TraceState,
    },
    /// A read response refilled an invalid place holder in passing.
    Snarf {
        /// When the refill landed.
        at: Cycles,
        /// The cell whose place holder was refilled.
        cell: usize,
        /// The sub-page index.
        subpage: u64,
    },
    /// A cell's copy was demoted to a place holder by a remote writer.
    Invalidation {
        /// When the invalidation took effect.
        at: Cycles,
        /// The cell that lost its copy.
        cell: usize,
        /// The sub-page index.
        subpage: u64,
    },
    /// A `get_sub_page` lost to an existing atomic holder.
    AtomicRejection {
        /// When the rejection returned to the requester.
        at: Cycles,
        /// The rejected cell.
        cell: usize,
        /// The contested sub-page.
        subpage: u64,
    },
    /// One processor completed one barrier episode.
    BarrierEpisode {
        /// When the processor left the barrier.
        at: Cycles,
        /// The processor.
        cell: usize,
        /// Episodes completed so far (1-based after the first).
        episode: u64,
    },
    /// A parked processor was woken by a visibility event on the sub-page
    /// it was blocked on — the moment a lock or flag handoff lands.
    LockHandoff {
        /// When the woken processor resumes.
        at: Cycles,
        /// The woken processor.
        cell: usize,
        /// The sub-page whose release/update woke it.
        subpage: u64,
    },
    /// A program-level shared-memory load committed.
    DataRead {
        /// When the load's value became architecturally visible.
        at: Cycles,
        /// The loading processor.
        cell: usize,
        /// The loaded address.
        addr: u64,
    },
    /// A program-level shared-memory store committed.
    DataWrite {
        /// When the store became architecturally visible.
        at: Cycles,
        /// The storing processor.
        cell: usize,
        /// The stored address.
        addr: u64,
    },
    /// A fast-forwarded spin loop observed a value satisfying its
    /// predicate — the acquire side of a flag/lock handoff.
    SpinRead {
        /// When the satisfying load committed.
        at: Cycles,
        /// The spinning processor.
        cell: usize,
        /// The spun-on address.
        addr: u64,
    },
    /// A cell took atomic ownership of a sub-page: a successful
    /// `get_sub_page`, or the acquire half of a native atomic RMW.
    SyncAcquire {
        /// When ownership was granted.
        at: Cycles,
        /// The acquiring processor.
        cell: usize,
        /// The acquired sub-page.
        subpage: u64,
        /// True for the acquire half of a native atomic RMW (one fabric
        /// transaction, no `Atomic` directory state); false for a real
        /// `get_sub_page`.
        rmw: bool,
    },
    /// A cell gave up atomic ownership of a sub-page:
    /// `release_sub_page`, or the release half of a native atomic RMW.
    /// A real release is stamped at the moment it was *issued* (while
    /// the holder still owns the sub-page), so checkers can validate the
    /// release-only-from-Atomic invariant.
    SyncRelease {
        /// When the release was issued.
        at: Cycles,
        /// The releasing processor.
        cell: usize,
        /// The released sub-page.
        subpage: u64,
        /// True for the release half of a native atomic RMW; false for a
        /// real `release_sub_page`.
        rmw: bool,
    },
}

impl TraceEvent {
    /// The virtual cycle at which the event committed.
    #[must_use]
    pub fn at(&self) -> Cycles {
        match *self {
            Self::RingSlot { at, .. }
            | Self::Coherence { at, .. }
            | Self::Snarf { at, .. }
            | Self::Invalidation { at, .. }
            | Self::AtomicRejection { at, .. }
            | Self::BarrierEpisode { at, .. }
            | Self::LockHandoff { at, .. }
            | Self::DataRead { at, .. }
            | Self::DataWrite { at, .. }
            | Self::SpinRead { at, .. }
            | Self::SyncAcquire { at, .. }
            | Self::SyncRelease { at, .. } => at,
        }
    }

    /// The event's kind tag.
    #[must_use]
    pub fn kind(&self) -> TraceKind {
        match self {
            Self::RingSlot { .. } => TraceKind::RingSlot,
            Self::Coherence { .. } => TraceKind::Coherence,
            Self::Snarf { .. } => TraceKind::Snarf,
            Self::Invalidation { .. } => TraceKind::Invalidation,
            Self::AtomicRejection { .. } => TraceKind::AtomicRejection,
            Self::BarrierEpisode { .. } => TraceKind::BarrierEpisode,
            Self::LockHandoff { .. } => TraceKind::LockHandoff,
            Self::DataRead { .. } => TraceKind::DataRead,
            Self::DataWrite { .. } => TraceKind::DataWrite,
            Self::SpinRead { .. } => TraceKind::SpinRead,
            Self::SyncAcquire { .. } => TraceKind::SyncAcquire,
            Self::SyncRelease { .. } => TraceKind::SyncRelease,
        }
    }
}

/// Kind tags for [`TraceEvent`], used by counting sinks and filters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceKind {
    /// Ring/bus/switch slot acquisition.
    RingSlot,
    /// Coherence state transition.
    Coherence,
    /// Read-snarf refill.
    Snarf,
    /// Invalidation received.
    Invalidation,
    /// Atomic (`get_sub_page`) rejection.
    AtomicRejection,
    /// Barrier episode completion.
    BarrierEpisode,
    /// Lock/flag handoff wake-up.
    LockHandoff,
    /// Program-level load commit.
    DataRead,
    /// Program-level store commit.
    DataWrite,
    /// Spin-loop satisfying load.
    SpinRead,
    /// Atomic sub-page ownership acquired.
    SyncAcquire,
    /// Atomic sub-page ownership released.
    SyncRelease,
}

impl TraceKind {
    /// Every kind, in declaration order.
    pub const ALL: [Self; 12] = [
        Self::RingSlot,
        Self::Coherence,
        Self::Snarf,
        Self::Invalidation,
        Self::AtomicRejection,
        Self::BarrierEpisode,
        Self::LockHandoff,
        Self::DataRead,
        Self::DataWrite,
        Self::SpinRead,
        Self::SyncAcquire,
        Self::SyncRelease,
    ];

    /// Stable snake_case label (used in JSON results).
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Self::RingSlot => "ring_slot",
            Self::Coherence => "coherence",
            Self::Snarf => "snarf",
            Self::Invalidation => "invalidation",
            Self::AtomicRejection => "atomic_rejection",
            Self::BarrierEpisode => "barrier_episode",
            Self::LockHandoff => "lock_handoff",
            Self::DataRead => "data_read",
            Self::DataWrite => "data_write",
            Self::SpinRead => "spin_read",
            Self::SyncAcquire => "sync_acquire",
            Self::SyncRelease => "sync_release",
        }
    }

    fn index(self) -> usize {
        match self {
            Self::RingSlot => 0,
            Self::Coherence => 1,
            Self::Snarf => 2,
            Self::Invalidation => 3,
            Self::AtomicRejection => 4,
            Self::BarrierEpisode => 5,
            Self::LockHandoff => 6,
            Self::DataRead => 7,
            Self::DataWrite => 8,
            Self::SpinRead => 9,
            Self::SyncAcquire => 10,
            Self::SyncRelease => 11,
        }
    }
}

/// Consumer of trace events. Implementations must be cheap and must not
/// have observable side effects on the simulation (the tracer guarantees
/// they never can: they only see immutable event values).
pub trait TraceSink: Send {
    /// Record one event.
    fn record(&mut self, event: &TraceEvent);

    /// Record a batch of consecutive events, oldest first. The tracer
    /// delivers only through this method; the default records each event
    /// in turn, and a sink that can take a whole slice at once overrides
    /// it.
    fn record_batch(&mut self, events: &[TraceEvent]) {
        for event in events {
            self.record(event);
        }
    }
}

/// A sink that discards everything (useful to measure tracing overhead
/// itself, or as an explicit "on but ignored" placeholder).
#[derive(Debug, Clone, Copy, Default)]
pub struct NullSink;

impl TraceSink for NullSink {
    fn record(&mut self, _event: &TraceEvent) {}

    fn record_batch(&mut self, _events: &[TraceEvent]) {}
}

/// A sink that counts events per [`TraceKind`] — the cheapest useful
/// observer, mirroring what a hardware event-counting monitor does.
#[derive(Debug, Clone, Copy, Default)]
pub struct CountingSink {
    counts: [u64; TraceKind::ALL.len()],
}

impl CountingSink {
    /// Events of one kind seen so far.
    #[must_use]
    pub fn count(&self, kind: TraceKind) -> u64 {
        self.counts[kind.index()]
    }

    /// Total events of all kinds.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }
}

impl TraceSink for CountingSink {
    fn record(&mut self, event: &TraceEvent) {
        self.counts[event.kind().index()] += 1;
    }

    fn record_batch(&mut self, events: &[TraceEvent]) {
        for event in events {
            self.counts[event.kind().index()] += 1;
        }
    }
}

/// A bounded sink keeping the most recent `capacity` events (a flight
/// recorder: cheap to leave attached, inspect after the interesting
/// phase).
#[derive(Debug, Clone)]
pub struct RingBufferSink {
    capacity: usize,
    /// The retained events. Once full, `next` indexes the oldest, which
    /// the next event overwrites.
    buf: Vec<TraceEvent>,
    next: usize,
    dropped: u64,
}

impl RingBufferSink {
    /// A buffer holding at most `capacity` events (`capacity >= 1`).
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        Self {
            capacity: capacity.max(1),
            buf: Vec::new(),
            next: 0,
            dropped: 0,
        }
    }

    /// The retained events, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &TraceEvent> {
        let (newer, older) = self.buf.split_at(self.next);
        older.iter().chain(newer)
    }

    /// Number of retained events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been retained.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Events evicted to make room (total seen = `len() + dropped()`).
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.dropped
    }
}

impl TraceSink for RingBufferSink {
    #[inline]
    fn record(&mut self, event: &TraceEvent) {
        if self.buf.len() < self.capacity {
            self.buf.push(*event);
            return;
        }
        self.buf[self.next] = *event;
        self.next += 1;
        if self.next == self.capacity {
            self.next = 0;
        }
        self.dropped += 1;
    }
}

/// One machine's trace buffer: the sink it delivers to, plus the events
/// emitted since the last delivery. Disabled by default
/// ([`Tracer::disabled`]). The machine's memory system owns it, and every
/// emitter — fabric, coherence engine, coordinator — writes through
/// `&mut Tracer`.
///
/// Cloning shares the sink and starts with an empty buffer: events
/// pending in the original stay there, so no event is delivered twice.
#[derive(Default)]
pub struct Tracer {
    out: Option<Outlet>,
}

/// An attached sink and the events not yet delivered to it.
struct Outlet {
    sink: Arc<Mutex<dyn TraceSink>>,
    /// Allocated with [`Tracer::BATCH`] slots on the first event, and
    /// emptied, never shrunk, by each delivery.
    pending: Vec<TraceEvent>,
}

impl Outlet {
    #[inline]
    fn push(&mut self, event: TraceEvent) {
        if self.pending.len() == self.pending.capacity() {
            self.make_room();
        }
        self.pending.push(event);
    }

    /// Allocate the buffer on first use; deliver it when full.
    #[cold]
    #[inline(never)]
    fn make_room(&mut self) {
        if self.pending.capacity() == 0 {
            self.pending.reserve_exact(Tracer::BATCH);
        } else {
            self.deliver();
        }
    }

    /// Hand every pending event to the sink in one `record_batch` call.
    ///
    /// Never panics itself, so it is safe in `Drop` and while a panic
    /// unwinds. The batch leaves the buffer before the call, so a sink
    /// that panics never sees it again. A sink whose lock such a panic
    /// poisoned gets nothing more; whoever reads it sees the poisoning
    /// when they lock it.
    fn deliver(&mut self) {
        if self.pending.is_empty() {
            return;
        }
        let mut batch = std::mem::take(&mut self.pending);
        if let Ok(mut sink) = self.sink.lock() {
            sink.record_batch(&batch);
        }
        batch.clear();
        self.pending = batch;
    }
}

impl Clone for Tracer {
    fn clone(&self) -> Self {
        Self {
            out: self.out.as_ref().map(|out| Outlet {
                sink: Arc::clone(&out.sink),
                pending: Vec::new(),
            }),
        }
    }
}

impl Drop for Tracer {
    fn drop(&mut self) {
        self.flush();
    }
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tracer")
            .field("enabled", &self.is_enabled())
            .field("pending", &self.pending())
            .finish()
    }
}

// A full buffer is `Tracer::BATCH` events of this size: 128 KB.
const _: () = assert!(std::mem::size_of::<TraceEvent>() == 32);

impl Tracer {
    /// Events buffered before one delivery: 4096 events of 32 bytes,
    /// 128 KB per traced machine.
    pub const BATCH: usize = 4096;

    /// The zero-cost disabled tracer.
    #[must_use]
    pub fn disabled() -> Self {
        Self { out: None }
    }

    /// Attach a sink, returning the tracer plus a shared reference for
    /// reading the sink back. The sink holds every event emitted before
    /// the last delivery (see the module's delivery contract).
    #[must_use]
    pub fn attach<S: TraceSink + 'static>(sink: S) -> (Self, Arc<Mutex<S>>) {
        let shared = Arc::new(Mutex::new(sink));
        (
            Self {
                out: Some(Outlet {
                    sink: shared.clone(),
                    pending: Vec::new(),
                }),
            },
            shared,
        )
    }

    /// Whether a sink is attached.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.out.is_some()
    }

    /// Events emitted but not yet delivered to the sink.
    fn pending(&self) -> usize {
        self.out.as_ref().map_or(0, |out| out.pending.len())
    }

    /// Buffer the event produced by `make` — which is only invoked when
    /// a sink is attached, so the disabled path costs one branch. A full
    /// buffer is delivered first.
    #[inline]
    pub fn emit_with(&mut self, make: impl FnOnce() -> TraceEvent) {
        if let Some(out) = &mut self.out {
            out.push(make());
        }
    }

    /// Deliver every pending event to the sink now (one lock, one
    /// [`TraceSink::record_batch`] call; nothing when none is pending).
    pub fn flush(&mut self) {
        if let Some(out) = &mut self.out {
            out.deliver();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(at: Cycles) -> TraceEvent {
        TraceEvent::Snarf {
            at,
            cell: 1,
            subpage: 7,
        }
    }

    #[test]
    fn disabled_tracer_never_builds_events() {
        let mut t = Tracer::disabled();
        assert!(!t.is_enabled());
        t.emit_with(|| panic!("must not be called"));
        assert_eq!(t.pending(), 0);
    }

    #[test]
    fn counting_sink_counts_per_kind() {
        let (mut t, counts) = Tracer::attach(CountingSink::default());
        assert!(t.is_enabled());
        t.emit_with(|| ev(10));
        t.emit_with(|| ev(20));
        t.emit_with(|| TraceEvent::RingSlot {
            at: 5,
            wait: 2,
            blocked: false,
        });
        assert_eq!(counts.lock().unwrap().total(), 0, "still buffered");
        t.flush();
        let c = counts.lock().unwrap();
        assert_eq!(c.count(TraceKind::Snarf), 2);
        assert_eq!(c.count(TraceKind::RingSlot), 1);
        assert_eq!(c.count(TraceKind::Invalidation), 0);
        assert_eq!(c.total(), 3);
    }

    #[test]
    fn ring_buffer_keeps_most_recent() {
        let (mut t, buf) = Tracer::attach(RingBufferSink::new(2));
        for i in 0..5 {
            t.emit_with(|| ev(i));
        }
        t.flush();
        let b = buf.lock().unwrap();
        assert_eq!(b.len(), 2);
        assert_eq!(b.dropped(), 3);
        let ats: Vec<Cycles> = b.events().map(TraceEvent::at).collect();
        assert_eq!(ats, vec![3, 4]);
    }

    /// A sink logging each batch it is handed.
    #[derive(Default)]
    struct BatchLog {
        batches: Vec<Vec<TraceEvent>>,
    }

    impl TraceSink for BatchLog {
        fn record(&mut self, _event: &TraceEvent) {
            unreachable!("the tracer delivers through record_batch");
        }

        fn record_batch(&mut self, events: &[TraceEvent]) {
            self.batches.push(events.to_vec());
        }
    }

    fn sizes(log: &Mutex<BatchLog>) -> Vec<usize> {
        log.lock().unwrap().batches.iter().map(Vec::len).collect()
    }

    /// One `record_batch` call per filled buffer and per flush, none per
    /// event, and an empty buffer delivers nothing.
    #[test]
    fn delivers_one_batch_per_fill_and_per_flush() {
        let (mut t, log) = Tracer::attach(BatchLog::default());
        let n = 2 * Tracer::BATCH + 5;
        for at in 0..n as Cycles {
            t.emit_with(|| ev(at));
        }
        assert_eq!(sizes(&log), [Tracer::BATCH; 2]);
        assert_eq!(t.pending(), 5);
        t.flush();
        t.flush();
        assert_eq!(sizes(&log), [Tracer::BATCH, Tracer::BATCH, 5]);
        let ats: Vec<Cycles> = log
            .lock()
            .unwrap()
            .batches
            .concat()
            .iter()
            .map(TraceEvent::at)
            .collect();
        assert_eq!(
            ats,
            (0..n as Cycles).collect::<Vec<_>>(),
            "in emission order"
        );
    }

    #[test]
    fn drop_delivers_what_is_pending() {
        let (mut t, counts) = Tracer::attach(CountingSink::default());
        t.emit_with(|| ev(1));
        drop(t);
        assert_eq!(counts.lock().unwrap().total(), 1);
    }

    /// A clone delivers to the same sink from an empty buffer of its own;
    /// what the original had pending is delivered once, by the original.
    #[test]
    fn clone_shares_the_sink_but_not_the_pending_events() {
        let (mut t, log) = Tracer::attach(BatchLog::default());
        t.emit_with(|| ev(1));
        let mut t2 = t.clone();
        assert_eq!((t.pending(), t2.pending()), (1, 0));
        t2.emit_with(|| ev(2));
        drop(t2);
        drop(t);
        let ats: Vec<Cycles> = log
            .lock()
            .unwrap()
            .batches
            .concat()
            .iter()
            .map(TraceEvent::at)
            .collect();
        assert_eq!(ats, [2, 1]);
    }

    /// A sink that panicked mid-batch poisons its lock and gets nothing
    /// more: later flushes and the drop do not panic, not even while
    /// another panic unwinds (which would abort), and the reader sees the
    /// poisoning.
    #[test]
    fn a_poisoned_sink_gets_nothing_more_and_nothing_panics() {
        struct Panicky;
        impl TraceSink for Panicky {
            fn record(&mut self, _event: &TraceEvent) {
                panic!("sink failure");
            }
        }
        let (mut t, sink) = Tracer::attach(Panicky);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            t.emit_with(|| ev(1));
            t.flush();
        }));
        assert!(caught.is_err());
        assert_eq!(t.pending(), 0, "the failed batch is not kept");
        t.emit_with(|| ev(2));
        t.flush();
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || {
            t.emit_with(|| ev(3));
            panic!("program failure");
        }));
        let payload = caught.expect_err("the program panic propagates");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"program failure"));
        assert!(sink.lock().is_err(), "the reader sees the poisoned sink");
    }

    #[test]
    fn event_accessors() {
        assert_eq!(
            std::mem::size_of::<TraceEvent>(),
            32,
            "a batch is BATCH x 32 bytes"
        );
        let e = TraceEvent::LockHandoff {
            at: 99,
            cell: 3,
            subpage: 12,
        };
        assert_eq!(e.at(), 99);
        assert_eq!(e.kind(), TraceKind::LockHandoff);
        assert_eq!(e.kind().label(), "lock_handoff");
        assert_eq!(TraceKind::ALL.len(), 12);
        assert_eq!(TraceState::Atomic.label(), "atomic");
    }

    /// One event of every kind, with distinguishable `at` stamps.
    fn one_of_each(base: Cycles) -> Vec<TraceEvent> {
        vec![
            TraceEvent::RingSlot {
                at: base,
                wait: 1,
                blocked: false,
            },
            TraceEvent::Coherence {
                at: base + 1,
                cell: 0,
                subpage: 4,
                from: TraceState::Missing,
                to: TraceState::Exclusive,
            },
            TraceEvent::Snarf {
                at: base + 2,
                cell: 1,
                subpage: 4,
            },
            TraceEvent::Invalidation {
                at: base + 3,
                cell: 1,
                subpage: 4,
            },
            TraceEvent::AtomicRejection {
                at: base + 4,
                cell: 2,
                subpage: 4,
            },
            TraceEvent::BarrierEpisode {
                at: base + 5,
                cell: 0,
                episode: 1,
            },
            TraceEvent::LockHandoff {
                at: base + 6,
                cell: 1,
                subpage: 4,
            },
            TraceEvent::DataRead {
                at: base + 7,
                cell: 0,
                addr: 512,
            },
            TraceEvent::DataWrite {
                at: base + 8,
                cell: 0,
                addr: 512,
            },
            TraceEvent::SpinRead {
                at: base + 9,
                cell: 1,
                addr: 640,
            },
            TraceEvent::SyncAcquire {
                at: base + 10,
                cell: 2,
                subpage: 5,
                rmw: false,
            },
            TraceEvent::SyncRelease {
                at: base + 11,
                cell: 2,
                subpage: 5,
                rmw: false,
            },
        ]
    }

    #[test]
    fn kind_index_matches_declaration_order() {
        for (i, kind) in TraceKind::ALL.iter().enumerate() {
            assert_eq!(kind.index(), i, "{} out of order", kind.label());
        }
        let events = one_of_each(0);
        assert_eq!(events.len(), TraceKind::ALL.len());
        for (event, kind) in events.iter().zip(TraceKind::ALL) {
            assert_eq!(event.kind(), kind);
        }
    }

    #[test]
    fn counting_sink_totals_cover_every_kind() {
        let (mut t, counts) = Tracer::attach(CountingSink::default());
        // Emit each kind a distinct number of times: kind i fires i+1
        // times, so any cross-kind misattribution shows up as a wrong
        // per-kind total.
        for (i, event) in one_of_each(100).into_iter().enumerate() {
            for _ in 0..=i {
                t.emit_with(|| event);
            }
        }
        t.flush();
        let c = counts.lock().unwrap();
        for (i, kind) in TraceKind::ALL.iter().enumerate() {
            assert_eq!(c.count(*kind), (i + 1) as u64, "kind {}", kind.label());
        }
        let n = TraceKind::ALL.len() as u64;
        assert_eq!(c.total(), n * (n + 1) / 2);
    }

    #[test]
    fn ring_buffer_wraparound_preserves_arrival_order() {
        let mut sink = RingBufferSink::new(4);
        // 11 events across several wraps of a capacity-4 buffer.
        for at in 0..11 {
            sink.record(&ev(at));
        }
        assert_eq!(sink.len(), 4);
        assert_eq!(sink.dropped(), 7);
        let ats: Vec<Cycles> = sink.events().map(TraceEvent::at).collect();
        assert_eq!(ats, vec![7, 8, 9, 10], "oldest-first order after wrap");
        // One more event pushes out exactly the oldest survivor.
        sink.record(&ev(11));
        let ats: Vec<Cycles> = sink.events().map(TraceEvent::at).collect();
        assert_eq!(ats, vec![8, 9, 10, 11]);
        assert_eq!(sink.dropped(), 8);
    }

    #[test]
    fn ring_buffer_capacity_floor_is_one() {
        let mut sink = RingBufferSink::new(0);
        sink.record(&ev(1));
        sink.record(&ev(2));
        assert_eq!(sink.len(), 1);
        assert_eq!(sink.events().next().map(TraceEvent::at), Some(2));
    }
}
