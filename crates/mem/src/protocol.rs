//! The ALLCACHE coherence engine.
//!
//! This module ties the per-cell caches, the global directory, the SVA
//! backing store, and the interconnect fabric into one sequentially
//! consistent memory system with the KSR-1's invalidation protocol:
//!
//! * read miss → request circulates the ring, any valid holder responds,
//!   requester installs `Shared` (the previous `Exclusive` owner demotes to
//!   `Shared`); **read-snarfing** refills every invalid place holder the
//!   response passes;
//! * write to a non-writable copy → read-exclusive/upgrade transaction,
//!   all other copies demote to place holders (`Invalid`);
//! * `get_sub_page` → like a write miss but lands in `Atomic`; it *fails*
//!   if another cell already holds the sub-page atomic, and ordinary
//!   accesses by other cells block until `release_sub_page`;
//! * `prefetch` → non-blocking fetch into the local cache;
//! * `poststore` → update broadcast: every place holder becomes a valid
//!   `Shared` copy, *including the writer's* — the exact semantics that
//!   §3.3.3 found can hurt (the next writer pays an upgrade).
//!
//! **Hot-spot serialization**: transactions on the *same* sub-page
//! serialize through a per-sub-page busy time (same-location requests
//! "get serialized on the ring and the pipelining is of no help", §3.2.2),
//! while transactions on distinct sub-pages enjoy the full pipelining of
//! the slotted ring.
//!
//! **Eager-commit approximation**: state transitions and data values
//! commit when a transaction is processed, while its full latency is still
//! charged before the issuing processor may proceed. Conflicting
//! same-sub-page transactions are ordered by the busy table, so lock and
//! barrier handoffs are correctly ordered; the residual optimism window
//! for unrelated readers is bounded by one transaction latency
//! (≤ ~175 cycles), far below the phenomena measured in the paper.

use ksr_core::time::Cycles;
use ksr_core::trace::{TraceEvent, TraceState, Tracer};
use ksr_core::{FxHashMap, FxHashSet, Result, XorShift64};
use ksr_net::{Fabric, PacketKind, RingTiming, Transit};

use crate::directory::{split, Directory, Holders};
use crate::geometry::{subpage_of, MemGeometry, SUBBLOCK_BYTES, SUBPAGES_PER_PAGE, SUBPAGE_BYTES};
use crate::localcache::{LocalCache, PageAlloc};
use crate::perfmon::PerfMon;
use crate::state::SubpageState;
use crate::subcache::{SubCache, SubCacheFill};
use crate::sva::SvaStore;
use crate::timing::CacheTiming;

/// A processor-issued memory operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemOp {
    /// Load.
    Read,
    /// Store.
    Write,
    /// `get_sub_page`: acquire the sub-page in atomic state.
    GetSubPage,
    /// `release_sub_page`: drop the atomic state.
    ReleaseSubPage,
    /// `prefetch`: non-blocking fetch into the local cache.
    Prefetch {
        /// Fetch in exclusive (write-ready) state.
        exclusive: bool,
    },
    /// `poststore`: broadcast the updated sub-page to all place holders.
    Poststore,
    /// A native atomic read-modify-write (one fabric transaction). The
    /// KSR-1 has no such instruction — its fetch-and-Φ is synthesised
    /// from `get_sub_page` — but the §3.2.3 comparison machines
    /// (Symmetry, Butterfly) do, and their barrier results depend on it.
    AtomicRmw,
    /// **Extension** (§4 wish list): prefetch from the local cache into
    /// the sub-cache — "given that there is roughly an order of magnitude
    /// difference between their access times". Non-blocking; a no-op if
    /// the sub-page is not locally readable.
    SubcachePrefetch,
}

/// Result of presenting an operation to the memory system.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// The operation completed; the processor may continue at `done_at`.
    Done {
        /// Completion time.
        done_at: Cycles,
    },
    /// A `get_sub_page` lost to an existing atomic holder.
    AtomicFailed {
        /// When the rejection came back.
        done_at: Cycles,
    },
    /// An ordinary access hit a sub-page held atomic by another cell; the
    /// caller should park until the sub-page is released and retry.
    BlockedOnAtomic {
        /// The locked sub-page.
        subpage: u64,
    },
}

impl Outcome {
    /// Completion time of a finished (or failed) operation.
    ///
    /// # Panics
    /// Panics on [`Outcome::BlockedOnAtomic`] — callers that can receive
    /// that outcome must use [`Outcome::try_done_at`] (or park and retry,
    /// as the machine coordinator does) instead of asserting.
    #[must_use]
    pub fn done_at(&self) -> Cycles {
        self.try_done_at().unwrap_or_else(|e| {
            panic!("invariant (operation cannot block on an atomic sub-page) broken: {e}")
        })
    }

    /// Completion time of a finished (or failed) operation, or a typed
    /// [`ksr_core::Error::Protocol`] for an access blocked on a sub-page
    /// another cell holds atomic.
    pub fn try_done_at(&self) -> Result<Cycles> {
        match self {
            Self::Done { done_at } | Self::AtomicFailed { done_at } => Ok(*done_at),
            Self::BlockedOnAtomic { subpage } => Err(ksr_core::Error::Protocol(format!(
                "access blocked on sub-page {subpage} held atomic by another cell: \
                 no completion time exists until release_sub_page"
            ))),
        }
    }
}

/// A visibility event on a watched sub-page (used by the machine layer to
/// wake fast-forwarded spinners at the correct virtual time).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemEvent {
    /// The sub-page whose value or lock state changed.
    pub subpage: u64,
    /// When the change becomes visible.
    pub at: Cycles,
}

/// What a coherence fetch wants to end up holding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Want {
    Shared,
    Exclusive,
    Atomic,
}

/// A deliberately seeded protocol bug, used to validate that the
/// `ksr-verify` coherence checker actually catches broken protocols.
/// Never enabled on a measurement machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProtocolFault {
    /// Exclusive/atomic fetches skip invalidating the other copies, so
    /// two writable copies of one sub-page can coexist.
    MissedInvalidation,
    /// Read fetches skip demoting the `Exclusive` owner, so a `Shared`
    /// copy coexists with an `Exclusive` one.
    MissedDemotion,
}

/// Protocol feature toggles for ablation studies (everything on matches
/// the real KSR-1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProtocolOptions {
    /// Read-snarfing: a read response refills every invalid place holder
    /// it passes. §3.2.2 credits this for the cheap global-flag wake-ups.
    pub read_snarfing: bool,
    /// Whether `poststore` actually broadcasts (off = the instruction is
    /// a cheap no-op, so algorithms fall back to invalidate-and-refetch
    /// and read-snarfing carries the wake-up alone).
    pub poststore: bool,
    /// Seeded protocol bug for checker validation (`None` = the correct
    /// protocol).
    pub fault: Option<ProtocolFault>,
}

impl Default for ProtocolOptions {
    fn default() -> Self {
        Self {
            read_snarfing: true,
            poststore: true,
            fault: None,
        }
    }
}

/// The complete memory system of one simulated machine.
///
/// It owns the machine's trace buffer ([`Tracer`]). A clone is a full
/// copy of the simulated state whose tracer shares the sink and starts
/// with an empty buffer: events the original still buffers are
/// delivered once, by the original.
#[derive(Debug, Clone)]
pub struct MemorySystem {
    timing: CacheTiming,
    fabric: Fabric,
    subcaches: Vec<SubCache>,
    localcaches: Vec<LocalCache>,
    dir: Directory,
    subpage_busy: FxHashMap<u64, Cycles>,
    pending_fill: FxHashMap<(usize, u64), Cycles>,
    /// Sub-pages whose last cached copy was evicted. A real COMA never
    /// loses data: the ALLCACHE engine moves the page to some other
    /// cell's cache, so re-fetching a spilled sub-page costs a full ring
    /// transaction — the "overflowing the local-cache causes remote
    /// accesses" effect behind the paper's CG and IS low-processor-count
    /// behaviour.
    spilled: FxHashSet<u64>,
    /// **Extension** (§4 wish list): address ranges with sub-caching
    /// selectively turned off — streaming data bypasses the sub-cache so
    /// it cannot thrash the hot working set out of it.
    uncached: Vec<(u64, u64)>,
    options: ProtocolOptions,
    data: SvaStore,
    perf: Vec<PerfMon>,
    /// Sub-pages whose visibility events are kept for the coordinator.
    watched: FxHashSet<u64>,
    events: Vec<MemEvent>,
    /// Reusable buffer for the holder snapshot `warm` takes before it
    /// steals a sub-page, kept so warm-up does not allocate a fresh `Vec`
    /// per sub-page. (The request path's sweeps update the holder list in
    /// place and need no snapshot.)
    scratch_holders: Vec<(usize, SubpageState)>,
    coherent: bool,
    n_cells: usize,
    tracer: Tracer,
}

// A memory system, trace buffer included, moves with its machine
// between the executor's worker threads.
const _: fn() = || {
    fn send<T: Send>() {}
    send::<MemorySystem>();
};

/// Mirror a directory state into the fabric-agnostic trace vocabulary.
fn trace_state(s: SubpageState) -> TraceState {
    match s {
        SubpageState::Missing => TraceState::Missing,
        SubpageState::Invalid => TraceState::Invalid,
        SubpageState::Shared => TraceState::Shared,
        SubpageState::Exclusive => TraceState::Exclusive,
        SubpageState::Atomic => TraceState::Atomic,
    }
}

/// Emit the [`TraceEvent::Coherence`] of one directory transition that
/// changed a state.
fn trace_transition(
    tracer: &mut Tracer,
    at: Cycles,
    cell: usize,
    subpage: u64,
    from: SubpageState,
    to: SubpageState,
) {
    tracer.emit_with(|| TraceEvent::Coherence {
        at,
        cell,
        subpage,
        from: trace_state(from),
        to: trace_state(to),
    });
}

impl MemorySystem {
    /// Build a memory system for `n_cells` processors over `fabric`.
    /// `seed` drives the random replacement policies.
    pub fn new(
        geom: MemGeometry,
        timing: CacheTiming,
        fabric: Fabric,
        n_cells: usize,
        seed: u64,
    ) -> Result<Self> {
        Self::with_options(
            geom,
            timing,
            fabric,
            n_cells,
            seed,
            ProtocolOptions::default(),
        )
    }

    /// Like [`Self::new`] with explicit [`ProtocolOptions`] (ablations).
    pub fn with_options(
        geom: MemGeometry,
        timing: CacheTiming,
        fabric: Fabric,
        n_cells: usize,
        seed: u64,
        options: ProtocolOptions,
    ) -> Result<Self> {
        geom.validate()?;
        let root = XorShift64::new(seed);
        let coherent = fabric.has_coherent_caches();
        Ok(Self {
            timing,
            fabric,
            subcaches: (0..n_cells)
                .map(|c| SubCache::new(&geom, root.derive(2 * c as u64)))
                .collect(),
            localcaches: (0..n_cells)
                .map(|c| LocalCache::new(&geom, root.derive(2 * c as u64 + 1)))
                .collect(),
            dir: Directory::new(),
            subpage_busy: FxHashMap::default(),
            pending_fill: FxHashMap::default(),
            spilled: FxHashSet::default(),
            uncached: Vec::new(),
            options,
            data: SvaStore::new(),
            perf: vec![PerfMon::default(); n_cells],
            watched: FxHashSet::default(),
            events: Vec::new(),
            scratch_holders: Vec::new(),
            coherent,
            n_cells,
            tracer: Tracer::disabled(),
        })
    }

    /// Attach a tracer: this memory system's one event buffer. Coherence
    /// transitions, snarfs, invalidations and atomic rejections emit from
    /// here, slot grants from the fabric, and the machine's coordinator
    /// emits through [`Self::tracer_mut`]. The replaced tracer delivers
    /// what it still holds as it drops.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// The trace buffer, for the machine's coordinator to emit into.
    pub fn tracer_mut(&mut self) -> &mut Tracer {
        &mut self.tracer
    }

    /// Deliver every buffered trace event to the sink now. The buffer
    /// also delivers when it fills and when this memory system drops; the
    /// machine flushes after each run and warm-up.
    pub fn flush_trace(&mut self) {
        self.tracer.flush();
    }

    /// Book one fabric transaction for `cell`; its slot grants go to the
    /// trace buffer.
    fn transact(
        &mut self,
        now: Cycles,
        cell: usize,
        transit: Transit,
        sp: u64,
        kind: PacketKind,
    ) -> RingTiming {
        self.fabric
            .transact(now, cell, transit, sp, kind, &mut self.tracer)
    }

    /// Set a sub-page's directory state in one cell, emitting a
    /// [`TraceEvent::Coherence`] when the state actually changes. *Every*
    /// transition emits through [`trace_transition`] — here, or in the
    /// page-granular walks of warm-up (stamped at cycle 0) and evictions
    /// — so a checking sink shadowing the event stream reconstructs the
    /// directory exactly.
    fn set_state(&mut self, sp: u64, cell: usize, to: SubpageState, at: Cycles) {
        let from = self.dir.set(sp, cell, to);
        if from != to {
            trace_transition(&mut self.tracer, at, cell, sp, from, to);
        }
    }

    /// The cell holding `sp` atomic, if any, and `cell`'s own state: one
    /// directory lookup for the checks that open an access.
    fn atomic_holder_and_state(&self, sp: u64, cell: usize) -> (Option<usize>, SubpageState) {
        self.dir
            .holders(sp)
            .map_or((None, SubpageState::Missing), |h| {
                (h.atomic_holder(), h.state_of(cell))
            })
    }

    /// Debug check of the single-writer invariant on `sp`, run at the end
    /// of every path that changes its states (purges only ever remove
    /// copies, so they cannot break it). Suspended when a fault is seeded
    /// on purpose, so the checker (not this assert) is what reports it.
    fn debug_check_subpage(&self, sp: u64) {
        debug_assert!(
            self.options.fault.is_some() || !self.dir.violation_at(sp),
            "ALLCACHE invariant (at most one writable copy, no Shared beside \
             Exclusive) broken on sub-page {sp}: {:?}",
            self.dir.holders(sp).map(|h| h.iter().collect::<Vec<_>>())
        );
    }

    /// Number of processor cells.
    #[must_use]
    pub fn n_cells(&self) -> usize {
        self.n_cells
    }

    /// The data plane (authoritative bytes).
    #[must_use]
    pub fn data(&self) -> &SvaStore {
        &self.data
    }

    /// Mutable access to the data plane.
    pub fn data_mut(&mut self) -> &mut SvaStore {
        &mut self.data
    }

    /// Performance-monitor block of one cell.
    #[must_use]
    pub fn perfmon(&self, cell: usize) -> &PerfMon {
        &self.perf[cell]
    }

    /// Machine-wide sum of all performance monitors.
    #[must_use]
    pub fn perfmon_total(&self) -> PerfMon {
        self.perf
            .iter()
            .fold(PerfMon::default(), |acc, p| acc.merged(*p))
    }

    /// The interconnect (for its counters).
    #[must_use]
    pub fn fabric(&self) -> &Fabric {
        &self.fabric
    }

    /// Directory access for invariant checks in tests.
    #[must_use]
    pub fn directory(&self) -> &Directory {
        &self.dir
    }

    /// Start emitting [`MemEvent`]s for a sub-page (idempotent).
    pub fn watch(&mut self, subpage: u64) {
        self.watched.insert(subpage);
    }

    /// Stop emitting [`MemEvent`]s for a sub-page.
    pub fn unwatch(&mut self, subpage: u64) {
        self.watched.remove(&subpage);
    }

    /// Drain pending visibility events into a caller-owned buffer,
    /// keeping both buffers' capacity. The coordinator calls this once
    /// per scheduled request, so it stops allocating once the buffers
    /// reach their high-water mark.
    pub fn drain_events_into(&mut self, out: &mut Vec<MemEvent>) {
        out.append(&mut self.events);
    }

    fn emit(&mut self, subpage: u64, at: Cycles) {
        if self.watched.contains(&subpage) {
            self.events.push(MemEvent { subpage, at });
        }
    }

    /// Pre-install a range of addresses as `Exclusive` in `cell`'s local
    /// cache with no simulated cost. Stands in for untimed setup (e.g. the
    /// OS zeroing freshly allocated pages, or a workload's untimed
    /// initialisation phase). Evictions proceed normally so capacity
    /// behaviour stays honest.
    pub fn warm(&mut self, cell: usize, addr: u64, len: u64) {
        if !self.coherent {
            return;
        }
        let per_page = SUBPAGES_PER_PAGE as u64;
        let last = subpage_of(addr + len.saturating_sub(1));
        let mut first = subpage_of(addr);
        // Page by page: one frame check and one directory lookup per
        // page, in the same order of transitions as sub-page by sub-page.
        while first <= last {
            self.ensure_page_costed(cell, first * SUBPAGE_BYTES, 0);
            let page = first / per_page;
            let end = last.min(page * per_page + per_page - 1);
            let chunk = self.dir.chunk_or_insert(page);
            for sp in first..=end {
                let slot = (sp % per_page) as usize;
                // Steal the sub-page from whoever holds it.
                self.scratch_holders.clear();
                self.scratch_holders.extend(chunk.holders(slot).iter());
                for &(c, _) in &self.scratch_holders {
                    if c != cell {
                        let from = chunk.set(slot, c, SubpageState::Missing);
                        trace_transition(&mut self.tracer, 0, c, sp, from, SubpageState::Missing);
                        self.subcaches[c].invalidate_subpage(sp);
                    }
                }
                let from = chunk.set(slot, cell, SubpageState::Exclusive);
                if from != SubpageState::Exclusive {
                    trace_transition(&mut self.tracer, 0, cell, sp, from, SubpageState::Exclusive);
                }
                self.spilled.remove(&sp);
            }
            first = end + 1;
        }
    }

    /// Present one operation. `now` is the issuing processor's local time.
    pub fn access(&mut self, cell: usize, addr: u64, op: MemOp, now: Cycles) -> Outcome {
        assert!(cell < self.n_cells, "cell index out of range");
        if !self.coherent {
            return self.access_dancehall(cell, addr, op, now);
        }
        let sp = subpage_of(addr);
        match op {
            MemOp::Read => self.access_data(cell, addr, sp, false, now),
            // A native RMW behaves like a write plus the atomic-unit
            // overhead; the caller performs the data-plane update.
            MemOp::Write | MemOp::AtomicRmw => self.access_data(cell, addr, sp, true, now),
            MemOp::GetSubPage => self.get_sub_page(cell, sp, now),
            MemOp::ReleaseSubPage => self.release_sub_page(cell, sp, now),
            MemOp::Prefetch { exclusive } => self.prefetch(cell, sp, exclusive, now),
            MemOp::Poststore => self.poststore(cell, sp, now),
            MemOp::SubcachePrefetch => self.subcache_prefetch(cell, addr, sp, now),
        }
    }

    /// Mark `[addr, addr+len)` as not sub-cached (§4 extension). Applies
    /// to subsequent accesses on every cell.
    pub fn set_uncached(&mut self, addr: u64, len: u64) {
        self.uncached.push((addr, addr + len));
    }

    fn is_uncached(&self, addr: u64) -> bool {
        self.uncached
            .iter()
            .any(|&(lo, hi)| addr >= lo && addr < hi)
    }

    /// §4-extension instruction: pull a locally readable sub-page's
    /// sub-blocks into the sub-cache without stalling.
    fn subcache_prefetch(&mut self, cell: usize, addr: u64, sp: u64, now: Cycles) -> Outcome {
        let done_at = now + self.timing.prefetch_issue;
        if self.dir.state_of(sp, cell).readable() && !self.is_uncached(addr) {
            // Touch both sub-blocks of the sub-page.
            let base = sp * SUBPAGE_BYTES;
            for half in 0..2 {
                if let SubCacheFill::AllocatedBlock { .. } =
                    self.subcaches[cell].touch(base + half * 64)
                {
                    self.perf[cell].block_allocations += 1;
                }
            }
        }
        Outcome::Done { done_at }
    }

    // ----- coherent read/write -------------------------------------------------

    fn access_data(
        &mut self,
        cell: usize,
        addr: u64,
        sp: u64,
        is_write: bool,
        now: Cycles,
    ) -> Outcome {
        let (owner, st) = self.atomic_holder_and_state(sp, cell);
        if owner.is_some_and(|owner| owner != cell) {
            return Outcome::BlockedOnAtomic { subpage: sp };
        }
        let perm = if is_write {
            st.writable()
        } else {
            st.readable()
        };
        let uncached = self.is_uncached(addr);

        // Fast path: sub-cache hit with sufficient permission.
        if perm && !uncached && self.subcaches[cell].contains(addr) {
            self.perf[cell].subcache_hits += 1;
            let cost = if is_write {
                self.timing.subcache_write
            } else {
                self.timing.subcache_read
            };
            let done_at = now + cost;
            if is_write {
                self.emit(sp, done_at);
            }
            return Outcome::Done { done_at };
        }
        self.perf[cell].subcache_misses += 1;

        // If a prefetch for this sub-page is in flight, ride it.
        let mut t = now;
        if let Some(ready) = self.pending_fill.remove(&(cell, sp)) {
            t = t.max(ready);
        }

        if perm {
            self.perf[cell].localcache_hits += 1;
            t += if is_write {
                self.timing.localcache_write
            } else {
                self.timing.localcache_read
            };
        } else {
            self.perf[cell].localcache_misses += 1;
            let want = if is_write {
                Want::Exclusive
            } else {
                Want::Shared
            };
            t = self.coherence_fetch(cell, sp, t, want);
        }

        // Fill the sub-cache (block allocation may add the §3.1 "+50%") —
        // unless the range has sub-caching turned off (§4 extension).
        if !uncached {
            if let SubCacheFill::AllocatedBlock { .. } = self.subcaches[cell].touch(addr) {
                t += self.timing.block_alloc_penalty;
                self.perf[cell].block_allocations += 1;
            }
        }
        if is_write {
            self.emit(sp, t);
        }
        Outcome::Done { done_at: t }
    }

    /// One ring (or bus) coherence transaction ending with `cell` holding
    /// `sp` in the `want` state. Returns the completion time.
    ///
    /// The demote, snarf and invalidate sweeps update `sp`'s holder list
    /// in place, in insertion order, through one chunk lookup: O(1) host
    /// work per holder.
    fn coherence_fetch(&mut self, cell: usize, sp: u64, t_req: Cycles, want: Want) -> Cycles {
        // Same-sub-page transactions serialize (hot-spot behaviour).
        let t0 = t_req.max(self.subpage_busy.get(&sp).copied().unwrap_or(0));
        // The transit and the requester's own copy, read before any
        // state changes.
        let valid = self
            .dir
            .holders(sp)
            .filter(|h| h.any_valid())
            .map(|h| (self.transit_for(cell, h.iter()), h.state_of(cell)));

        let done = match valid {
            None => {
                let spilled = self.spilled.remove(&sp);
                let mut t = if spilled {
                    // The last copy was evicted earlier: the ALLCACHE engine
                    // holds it in some other cell's cache, a full ring fetch
                    // away.
                    let timing = self.transact(t0, cell, Transit::Local, sp, PacketKind::ReadData);
                    self.perf[cell].ring_transactions += 1;
                    self.perf[cell].ring_wait_cycles += timing.slot_wait;
                    let done = timing.response_at + self.timing.remote_overhead;
                    self.perf[cell].ring_latency_cycles += done - t_req;
                    done
                } else {
                    // Genuine first touch: the OS maps the page at the
                    // requester, no ring traffic.
                    t0 + self.timing.localcache_write
                };
                if self.ensure_page_costed(cell, sp * SUBPAGE_BYTES, t) {
                    t += self.timing.page_alloc_penalty;
                    self.perf[cell].page_allocations += 1;
                }
                let final_state = match want {
                    Want::Shared => SubpageState::Exclusive, // sole copy
                    Want::Exclusive => SubpageState::Exclusive,
                    Want::Atomic => SubpageState::Atomic,
                };
                self.set_state(sp, cell, final_state, t);
                t
            }
            Some((transit, own)) => {
                let kind = match want {
                    Want::Shared => PacketKind::ReadData,
                    Want::Exclusive if own == SubpageState::Shared => PacketKind::Invalidate,
                    Want::Exclusive => PacketKind::ReadExclusive,
                    Want::Atomic => PacketKind::GetSubPage,
                };
                let timing = self.transact(t0, cell, transit, sp, kind);
                self.perf[cell].ring_transactions += 1;
                if matches!(transit, Transit::CrossRing { .. }) {
                    // Golab RMR accounting: the packet left the requester's
                    // leaf ring (LCA above level 0), so this is a remote
                    // memory reference in the DSM/NUMA cost model.
                    self.perf[cell].remote_references += 1;
                }
                self.perf[cell].ring_wait_cycles += timing.slot_wait;
                let mut t = timing.response_at + self.timing.remote_overhead;
                if want != Want::Shared {
                    t += self.timing.remote_write_extra;
                }
                if self.ensure_page_costed(cell, sp * SUBPAGE_BYTES, t) {
                    t += self.timing.page_alloc_penalty;
                    self.perf[cell].page_allocations += 1;
                }
                self.perf[cell].ring_latency_cycles += t - t_req;
                self.sweep(cell, sp, want, t);
                let st = match want {
                    Want::Shared => SubpageState::Shared,
                    Want::Exclusive => SubpageState::Exclusive,
                    Want::Atomic => SubpageState::Atomic,
                };
                self.set_state(sp, cell, st, t);
                t
            }
        };
        self.subpage_busy.insert(sp, done);
        self.debug_check_subpage(sp);
        done
    }

    /// The other holders' side of a coherence fetch by `cell` at `t`: a
    /// read demotes the writable copy and snarf-refills the place
    /// holders; a write or `get_sub_page` invalidates every other copy.
    /// Each sweep walks the holder list once, in place.
    fn sweep(&mut self, cell: usize, sp: u64, want: Want, t: Cycles) {
        let fault = self.options.fault;
        let (page, slot) = split(sp);
        let chunk = self
            .dir
            .chunk_mut(page)
            .expect("a sub-page with a valid copy has a chunk");
        let tracer = &mut self.tracer;
        let perf = &mut self.perf;
        match want {
            Want::Shared => {
                // The old owner demotes *first*: no point in the event
                // stream may show a Shared copy beside a writable one.
                if fault != Some(ProtocolFault::MissedDemotion) {
                    chunk.update(slot, |c, s| {
                        if s != SubpageState::Exclusive {
                            return s;
                        }
                        trace_transition(tracer, t, c, sp, s, SubpageState::Shared);
                        SubpageState::Shared
                    });
                }
                // Read-snarfing: place holders refill for free.
                if self.options.read_snarfing {
                    chunk.update(slot, |c, s| {
                        if s != SubpageState::Invalid {
                            return s;
                        }
                        trace_transition(tracer, t, c, sp, s, SubpageState::Shared);
                        perf[c].snarfs += 1;
                        tracer.emit_with(|| TraceEvent::Snarf {
                            at: t,
                            cell: c,
                            subpage: sp,
                        });
                        SubpageState::Shared
                    });
                }
            }
            // The seeded MissedInvalidation fault leaves every other copy
            // valid — the two-writable-copies bug the ksr-verify checker
            // must catch.
            Want::Exclusive | Want::Atomic if fault == Some(ProtocolFault::MissedInvalidation) => {}
            Want::Exclusive | Want::Atomic => {
                let subcaches = &mut self.subcaches;
                chunk.update(slot, |c, s| {
                    if c == cell {
                        return s;
                    }
                    if s == SubpageState::Invalid {
                        // A place holder's sub-cache dropped the sub-page
                        // when the holder became one, and only a readable
                        // copy refills it: nothing to drop.
                        debug_assert!(
                            !(0..2).any(|half| subcaches[c]
                                .contains(sp * SUBPAGE_BYTES + half * SUBBLOCK_BYTES)),
                            "place holder {c} still sub-caches sub-page {sp}"
                        );
                    } else {
                        trace_transition(tracer, t, c, sp, s, SubpageState::Invalid);
                        subcaches[c].invalidate_subpage(sp);
                    }
                    perf[c].invalidations_received += 1;
                    tracer.emit_with(|| TraceEvent::Invalidation {
                        at: t,
                        cell: c,
                        subpage: sp,
                    });
                    SubpageState::Invalid
                });
            }
        }
    }

    /// [`Self::transit_for`] for a `get_sub_page` that `owner`'s `Atomic`
    /// copy rejects, reading `sp`'s holder list in place. The single-writer
    /// invariant leaves `owner` the list's only readable copy, and the
    /// transit rule only looks at readable copies, so it gets that one
    /// entry: O(1) however many place holders a hot sub-page collected.
    /// Only a seeded [`ProtocolFault`] leaves several readable copies;
    /// then the whole list is walked, in order.
    fn rejection_transit(&self, cell: usize, holders: &Holders, owner: usize) -> Transit {
        if holders.readable_count() > 1 {
            self.transit_for(cell, holders.iter())
        } else {
            self.transit_for(cell, std::iter::once((owner, SubpageState::Atomic)))
        }
    }

    /// Transit scope for a transaction by `cell` given the holders, in
    /// insertion order: the first readable copy on `cell`'s own leaf
    /// ring answers locally, else the first readable copy elsewhere.
    fn transit_for(
        &self,
        cell: usize,
        holders: impl Iterator<Item = (usize, SubpageState)>,
    ) -> Transit {
        match &self.fabric {
            Fabric::Ring(h) => {
                let my_leaf = h.leaf_of(cell);
                let mut first_remote = None;
                for (c, s) in holders {
                    if s.readable() {
                        let leaf = h.leaf_of(c);
                        if leaf == my_leaf {
                            return Transit::Local;
                        }
                        first_remote.get_or_insert(leaf);
                    }
                }
                first_remote.map_or(Transit::Local, |dst_leaf| Transit::CrossRing { dst_leaf })
            }
            _ => Transit::Local,
        }
    }

    /// Allocate the page frame for `addr` in `cell` if needed; purge any
    /// victim (eviction transitions are stamped `at`). Returns whether an
    /// allocation happened.
    fn ensure_page_costed(&mut self, cell: usize, addr: u64, at: Cycles) -> bool {
        let dir = &self.dir;
        let alloc = self.localcaches[cell].ensure_page_with(addr, |page| {
            dir.chunk(page).is_none_or(|chunk| !chunk.pins(cell))
        });
        match alloc {
            PageAlloc::AlreadyPresent => false,
            PageAlloc::Allocated { evicted } => {
                if let Some(victim) = evicted {
                    self.purge_page(cell, victim, at);
                }
                true
            }
        }
    }

    /// Remove every trace of a page from one cell (local-cache eviction).
    /// The SVA backing store retains the bytes, standing in for the
    /// ALLCACHE guarantee that the last copy of a sub-page is never lost;
    /// sub-pages whose last copy this eviction removed are marked
    /// *spilled*, and cost a ring fetch to get back.
    fn purge_page(&mut self, cell: usize, page: u64, at: Cycles) {
        if let Some(chunk) = self.dir.chunk_mut(page) {
            let first = page * SUBPAGES_PER_PAGE as u64;
            for (sp, slot) in (first..).zip(0..SUBPAGES_PER_PAGE) {
                let from = chunk.set(slot, cell, SubpageState::Missing);
                if from != SubpageState::Missing {
                    trace_transition(&mut self.tracer, at, cell, sp, from, SubpageState::Missing);
                    if from.readable() && !chunk.holders(slot).any_valid() {
                        self.spilled.insert(sp);
                    }
                }
            }
        }
        self.subcaches[cell].invalidate_page(page);
    }

    // ----- atomic sub-page operations ------------------------------------------

    fn get_sub_page(&mut self, cell: usize, sp: u64, now: Cycles) -> Outcome {
        // One read of the holder list: the atomic owner, then either the
        // rejection's transit or the requester's own state.
        let holders = self.dir.holders(sp);
        if let (Some(h), Some(owner)) = (holders, holders.and_then(Holders::atomic_holder)) {
            if owner == cell {
                // Re-acquire by the holder is a cheap local test.
                return Outcome::Done {
                    done_at: now + self.timing.subcache_read,
                };
            }
            // Rejected: the request still circulates the ring and still
            // serializes against other same-sub-page traffic.
            let transit = self.rejection_transit(cell, h, owner);
            let t0 = now.max(self.subpage_busy.get(&sp).copied().unwrap_or(0));
            let timing = self.transact(t0, cell, transit, sp, PacketKind::GetSubPage);
            self.perf[cell].ring_transactions += 1;
            if matches!(transit, Transit::CrossRing { .. }) {
                self.perf[cell].remote_references += 1;
            }
            self.perf[cell].ring_wait_cycles += timing.slot_wait;
            self.perf[cell].atomic_rejections += 1;
            let done_at = timing.response_at + self.timing.remote_overhead;
            self.perf[cell].ring_latency_cycles += done_at - now;
            self.tracer.emit_with(|| TraceEvent::AtomicRejection {
                at: done_at,
                cell,
                subpage: sp,
            });
            // A rejection transfers nothing — the holder answers "busy"
            // in passing — so it does NOT extend the sub-page busy time:
            // simultaneous rejected requests pipeline on the slotted ring
            // (this is what keeps hardware-lock contention linear rather
            // than quadratic in the processor count).
            return Outcome::AtomicFailed { done_at };
        }
        let st = holders.map_or(SubpageState::Missing, |h| h.state_of(cell));
        if st.writable() {
            // Already exclusive here: flip to atomic locally.
            let done_at = now + self.timing.atomic_overhead;
            self.set_state(sp, cell, SubpageState::Atomic, done_at);
            self.debug_check_subpage(sp);
            return Outcome::Done { done_at };
        }
        let done = self.coherence_fetch(cell, sp, now, Want::Atomic) + self.timing.atomic_overhead;
        Outcome::Done { done_at: done }
    }

    fn release_sub_page(&mut self, cell: usize, sp: u64, now: Cycles) -> Outcome {
        let st = self.dir.state_of(sp, cell);
        debug_assert_eq!(
            st,
            SubpageState::Atomic,
            "get_sub_page invariant (release_sub_page is only legal while the \
             releasing cell holds the sub-page Atomic) broken: cell {cell}, \
             sub-page {sp}"
        );
        let done_at = now + self.timing.localcache_write;
        if st == SubpageState::Atomic {
            self.set_state(sp, cell, SubpageState::Exclusive, done_at);
            self.emit(sp, done_at);
            self.debug_check_subpage(sp);
        }
        Outcome::Done { done_at }
    }

    // ----- prefetch / poststore -------------------------------------------------

    fn prefetch(&mut self, cell: usize, sp: u64, exclusive: bool, now: Cycles) -> Outcome {
        let issue_done = now + self.timing.prefetch_issue;
        let (owner, st) = self.atomic_holder_and_state(sp, cell);
        if owner.is_some_and(|owner| owner != cell) {
            // Prefetching a locked sub-page quietly does nothing.
            return Outcome::Done {
                done_at: issue_done,
            };
        }
        let satisfied = if exclusive {
            st.writable()
        } else {
            st.readable()
        };
        if satisfied || self.pending_fill.contains_key(&(cell, sp)) {
            return Outcome::Done {
                done_at: issue_done,
            };
        }
        self.perf[cell].prefetches += 1;
        let want = if exclusive {
            Want::Exclusive
        } else {
            Want::Shared
        };
        let ready = self.coherence_fetch(cell, sp, now, want);
        self.pending_fill.insert((cell, sp), ready);
        Outcome::Done {
            done_at: issue_done,
        }
    }

    fn poststore(&mut self, cell: usize, sp: u64, now: Cycles) -> Outcome {
        if !self.options.poststore {
            return Outcome::Done { done_at: now + 1 };
        }
        let st = self.dir.state_of(sp, cell);
        if st != SubpageState::Exclusive {
            // Nothing modified to broadcast — and a sub-page held *atomic*
            // must keep its lock: broadcasting it shared would silently
            // release `get_sub_page` (the hardware forbids this).
            return Outcome::Done {
                done_at: now + self.timing.poststore_issue,
            };
        }
        self.perf[cell].poststores += 1;
        let t0 = now.max(self.subpage_busy.get(&sp).copied().unwrap_or(0));
        // If any place holder lives on another leaf ring, the update must
        // cross Ring:1.
        let transit = match (&self.fabric, self.dir.holders(sp)) {
            (Fabric::Ring(h), Some(holders)) => {
                let my_leaf = h.leaf_of(cell);
                holders
                    .iter()
                    .find(|(c, s)| s.is_placeholder() && h.leaf_of(*c) != my_leaf)
                    .map_or(Transit::Local, |(c, _)| Transit::CrossRing {
                        dst_leaf: h.leaf_of(c),
                    })
            }
            _ => Transit::Local,
        };
        let timing = self.transact(t0, cell, transit, sp, PacketKind::Poststore);
        self.perf[cell].ring_transactions += 1;
        if matches!(transit, Transit::CrossRing { .. }) {
            self.perf[cell].remote_references += 1;
        }
        self.perf[cell].ring_wait_cycles += timing.slot_wait;
        // The writer's copy stops being exclusive as the broadcast
        // launches — demote it before any place holder refills, so the
        // event stream never shows a Shared copy beside a writable one.
        let at = timing.response_at;
        self.set_state(sp, cell, SubpageState::Shared, at);
        let (page, slot) = split(sp);
        let tracer = &mut self.tracer;
        self.dir
            .chunk_mut(page)
            .expect("the writer's sub-page has a chunk")
            .update(slot, |c, s| {
                if !s.is_placeholder() {
                    return s;
                }
                trace_transition(tracer, at, c, sp, s, SubpageState::Shared);
                SubpageState::Shared
            });
        self.subpage_busy.insert(sp, timing.response_at);
        self.emit(sp, timing.response_at);
        self.debug_check_subpage(sp);
        // The issuing processor stalls only until the packet is launched.
        Outcome::Done {
            done_at: now + self.timing.poststore_issue + timing.slot_wait,
        }
    }

    // ----- cache-less (Butterfly) path ------------------------------------------

    fn access_dancehall(&mut self, cell: usize, addr: u64, op: MemOp, now: Cycles) -> Outcome {
        let sp = subpage_of(addr);
        match op {
            MemOp::Read | MemOp::Write | MemOp::Poststore | MemOp::AtomicRmw => {
                let is_write = !matches!(op, MemOp::Read);
                if let Some(owner) = self.dir.holders(sp).and_then(|h| h.atomic_holder()) {
                    if owner != cell {
                        return Outcome::BlockedOnAtomic { subpage: sp };
                    }
                }
                let kind = if is_write {
                    PacketKind::ReadExclusive
                } else {
                    PacketKind::ReadData
                };
                let timing = self.transact(now, cell, Transit::Local, sp, kind);
                self.perf[cell].localcache_misses += 1;
                self.perf[cell].ring_transactions += 1;
                self.perf[cell].ring_wait_cycles += timing.slot_wait;
                let mut done_at = timing.response_at + self.timing.remote_overhead;
                if is_write {
                    done_at += self.timing.remote_write_extra;
                }
                self.perf[cell].ring_latency_cycles += done_at - now;
                if is_write {
                    self.emit(sp, done_at);
                }
                Outcome::Done { done_at }
            }
            MemOp::GetSubPage => {
                if let Some(owner) = self.dir.holders(sp).and_then(|h| h.atomic_holder()) {
                    let timing =
                        self.transact(now, cell, Transit::Local, sp, PacketKind::GetSubPage);
                    self.perf[cell].ring_transactions += 1;
                    let done_at = timing.response_at + self.timing.atomic_overhead;
                    if owner == cell {
                        return Outcome::Done { done_at };
                    }
                    self.perf[cell].atomic_rejections += 1;
                    self.tracer.emit_with(|| TraceEvent::AtomicRejection {
                        at: done_at,
                        cell,
                        subpage: sp,
                    });
                    return Outcome::AtomicFailed { done_at };
                }
                let timing = self.transact(now, cell, Transit::Local, sp, PacketKind::GetSubPage);
                self.perf[cell].ring_transactions += 1;
                let done_at = timing.response_at + self.timing.atomic_overhead;
                self.set_state(sp, cell, SubpageState::Atomic, done_at);
                Outcome::Done { done_at }
            }
            MemOp::ReleaseSubPage => {
                debug_assert_eq!(
                    self.dir.state_of(sp, cell),
                    SubpageState::Atomic,
                    "get_sub_page invariant (release_sub_page is only legal while \
                     the releasing cell holds the sub-page Atomic) broken: \
                     cell {cell}, sub-page {sp}"
                );
                let timing =
                    self.transact(now, cell, Transit::Local, sp, PacketKind::ReleaseSubPage);
                self.perf[cell].ring_transactions += 1;
                let done_at = timing.response_at;
                self.set_state(sp, cell, SubpageState::Missing, done_at);
                self.emit(sp, done_at);
                Outcome::Done { done_at }
            }
            MemOp::Prefetch { .. } | MemOp::SubcachePrefetch => {
                // No caches to prefetch into.
                Outcome::Done {
                    done_at: now + self.timing.prefetch_issue,
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use ksr_net::Topology;

    use super::*;

    fn ksr(n: usize) -> MemorySystem {
        MemorySystem::new(
            MemGeometry::ksr1(),
            CacheTiming::ksr1(),
            Topology::ksr1_32().build(n).unwrap(),
            n,
            42,
        )
        .unwrap()
    }

    fn done(o: Outcome) -> Cycles {
        o.done_at()
    }

    #[test]
    fn first_touch_then_subcache_hit() {
        let mut m = ksr(2);
        let t1 = done(m.access(0, 0x1000, MemOp::Write, 0));
        assert!(t1 > 100, "first touch pays page allocation: {t1}");
        let t2 = done(m.access(0, 0x1000, MemOp::Write, t1)) - t1;
        assert_eq!(t2, 3, "sub-cache write hit");
        let t3 = done(m.access(0, 0x1000, MemOp::Read, t1)) - t1;
        assert_eq!(t3, 2, "sub-cache read hit");
    }

    #[test]
    fn localcache_hit_is_18_cycles() {
        let mut m = ksr(1);
        m.warm(0, 0, 4096);
        // Warm marks the local cache but not the sub-cache: first access is
        // a local-cache hit (plus one block allocation).
        let t = done(m.access(0, 0, MemOp::Read, 0));
        assert_eq!(t, 18 + 9, "local-cache hit plus block allocation");
        // Same sub-block again: pure sub-cache hit.
        let t2 = done(m.access(0, 0, MemOp::Read, t)) - t;
        assert_eq!(t2, 2);
        // Different sub-block, same block: local-cache hit, no alloc.
        let t3 = done(m.access(0, 64, MemOp::Read, t)) - t;
        assert_eq!(t3, 18);
    }

    #[test]
    fn remote_read_is_175_cycles() {
        let mut m = ksr(2);
        m.warm(1, 0, 256);
        // Cell 0 reads data exclusively held by cell 1: full ring trip.
        // An extra block+page allocation lands at the requester.
        let t = done(m.access(0, 0, MemOp::Read, 0));
        assert_eq!(
            t,
            175 + 105 + 9,
            "published 175 + page alloc 105 + block alloc 9"
        );
        // Second sub-page of the same page: no page allocation.
        let t2 = done(m.access(0, 128, MemOp::Read, t)) - t;
        assert_eq!(t2, 175);
    }

    /// RMR attribution: only transactions whose LCA sits above the leaf
    /// ring count as remote references; same-leaf ring trips do not.
    #[test]
    fn remote_references_count_cross_ring_only() {
        let mut m = MemorySystem::new(
            MemGeometry::ksr1(),
            CacheTiming::ksr1(),
            Topology::ksr_64().build(64).unwrap(),
            64,
            42,
        )
        .unwrap();
        m.warm(32, 0, 128);
        // Cell 0 (leaf 0) fetches from cell 32 (leaf 1): crosses Ring:1.
        m.access(0, 0, MemOp::Read, 0);
        assert_eq!(m.perfmon(0).ring_transactions, 1);
        assert_eq!(m.perfmon(0).remote_references, 1);
        // Cell 1 (leaf 0) can now fetch from cell 0 on its own leaf:
        // a ring transaction, but not a remote reference.
        m.access(1, 0, MemOp::Read, 10_000);
        assert_eq!(m.perfmon(1).ring_transactions, 1);
        assert_eq!(m.perfmon(1).remote_references, 0);
    }

    /// 1024 cells on a three-level ring: 32 leaf rings of 32 cells.
    fn ring_1024() -> MemorySystem {
        let fabric = Topology::ring_levels(&[32, 8, 4]).build(1024).unwrap();
        MemorySystem::new(MemGeometry::ksr1(), CacheTiming::ksr1(), fabric, 1024, 42).unwrap()
    }

    /// Known values on a 1024-cell three-level ring: every cell reads one
    /// sub-page, then one cell writes it. The write is a single upgrade
    /// whose sweep invalidates all 1023 other copies, in insertion order.
    #[test]
    fn thousand_readers_then_one_writer() {
        let mut m = ring_1024();
        let mut t = 0;
        for cell in 0..1024 {
            t = done(m.access(cell, 0, MemOp::Read, t));
        }
        let holders = m.directory().holders(0).unwrap();
        assert!(
            holders.iter().map(|(c, _)| c).eq(0..1024),
            "insertion order"
        );
        assert!(holders.iter().all(|(_, s)| s == SubpageState::Shared));

        // Cell 512 opens leaf ring 16: its read crossed the hierarchy
        // (every earlier copy sat on leaves 0-15), its upgrade does not
        // (cells 513-543 share its leaf).
        let writer = 512;
        m.access(writer, 0, MemOp::Write, t);
        let total = m.perfmon_total();
        assert_eq!(total.invalidations_received, 1023);
        assert_eq!(m.perfmon(writer).invalidations_received, 0);
        assert_eq!(m.perfmon(writer).ring_transactions, 2);
        assert_eq!(m.perfmon(writer).remote_references, 1);
        let holders = m.directory().holders(0).unwrap();
        assert!(holders.iter().map(|(c, _)| c).eq(0..1024), "order kept");
        for (c, s) in holders.iter() {
            let want = if c == writer {
                SubpageState::Exclusive
            } else {
                SubpageState::Invalid
            };
            assert_eq!(s, want, "cell {c}");
        }
        assert_eq!(holders.atomic_holder(), None);
        assert_eq!(m.directory().find_violation(), None);
    }

    /// Known values for a rejection on a hot sub-page: 1023 cells hold
    /// `Invalid` place holders and cell 530, on leaf ring 16, holds the
    /// sub-page `Atomic`. A rejected `get_sub_page` goes to the one
    /// readable copy: across the hierarchy (one RMR) from leaf 0, within
    /// the leaf ring (no RMR) from leaf 16.
    #[test]
    fn rejection_goes_to_the_atomic_holder() {
        let mut m = ring_1024();
        let mut t = 0;
        for cell in 0..1024 {
            t = done(m.access(cell, 0, MemOp::Read, t));
        }
        let owner = 530;
        t = done(m.access(owner, 0, MemOp::GetSubPage, t));
        let holders = m.directory().holders(0).unwrap();
        assert_eq!(holders.atomic_holder(), Some(owner));
        assert_eq!(holders.readable_count(), 1);
        assert_eq!(
            holders
                .iter()
                .filter(|&(_, s)| s == SubpageState::Invalid)
                .count(),
            1023
        );
        for (cell, transit, rmr) in [
            (0, Transit::CrossRing { dst_leaf: 16 }, 1),
            (520, Transit::Local, 0),
        ] {
            let holders = m.directory().holders(0).unwrap();
            assert_eq!(
                m.rejection_transit(cell, holders, owner),
                transit,
                "cell {cell}"
            );
            let before = *m.perfmon(cell);
            let o = m.access(cell, 0, MemOp::GetSubPage, t);
            assert!(matches!(o, Outcome::AtomicFailed { .. }), "{o:?}");
            let after = m.perfmon(cell);
            assert_eq!(after.ring_transactions - before.ring_transactions, 1);
            assert_eq!(after.remote_references - before.remote_references, rmr);
            assert_eq!(after.atomic_rejections - before.atomic_rejections, 1);
        }
    }

    /// Differential test of the rejection shortcut: over seeded holder
    /// lists on the 1024-cell ring, the transit of a rejected
    /// `get_sub_page` equals the ordered walk over the full list. Lists
    /// grow and shrink across the 16-entry index threshold; half the
    /// checks first demote every other readable copy (the states a correct
    /// protocol leaves), the rest keep them (the states a seeded fault can
    /// leave: several readable copies beside the atomic one).
    #[test]
    fn rejection_transit_matches_the_full_list_walk() {
        use SubpageState::*;
        let mut m = ring_1024();
        let mut rng = XorShift64::new(0x4b53_5254);
        let (mut short, mut long, mut sole, mut several) = (0, 0, 0, 0);
        let (mut local, mut cross) = (0, 0);
        for phase in 0..48 {
            // Six sub-pages, eight phases each. Cells are spread over the
            // leaf rings. The narrow spans keep lists short, the wide ones
            // grow them past the threshold, and high removal rates shrink
            // them again.
            let sp = phase / 8;
            let span = [3, 12, 24, 40, 1024][rng.next_index(5)];
            let p_missing = [0.1, 0.4, 0.8][rng.next_index(3)];
            for _ in 0..300 {
                let cell = rng.next_index(span) * 37 % 1024;
                let st = if rng.next_bool(p_missing) {
                    Missing
                } else {
                    match rng.next_index(8) {
                        0..=4 => Invalid,
                        5 => Shared,
                        6 => Exclusive,
                        _ => Atomic,
                    }
                };
                m.dir.set(sp, cell, st);
                let Some(owner) = m.dir.holders(sp).and_then(|h| h.atomic_holder()) else {
                    continue;
                };
                if rng.next_bool(0.5) {
                    let (page, slot) = split(sp);
                    let chunk = m.dir.chunk_mut(page).unwrap();
                    chunk.update(slot, |c, s| {
                        if c != owner && s.readable() {
                            Invalid
                        } else {
                            s
                        }
                    });
                }
                let holders = m.dir.holders(sp).unwrap();
                if holders.iter().count() > 16 {
                    long += 1;
                } else {
                    short += 1;
                }
                if holders.readable_count() == 1 {
                    sole += 1;
                } else {
                    several += 1;
                }
                for _ in 0..4 {
                    let requester = rng.next_index(1024);
                    if requester == owner {
                        continue;
                    }
                    let want = m.transit_for(requester, holders.iter());
                    assert_eq!(m.rejection_transit(requester, holders, owner), want);
                    match want {
                        Transit::Local => local += 1,
                        Transit::CrossRing { .. } => cross += 1,
                    }
                }
            }
        }
        for (what, n) in [
            ("short lists", short),
            ("long lists", long),
            ("one readable copy", sole),
            ("several readable copies", several),
            ("local transits", local),
            ("cross-ring transits", cross),
        ] {
            assert!(n > 50, "too few checks with {what}: {n}");
        }
    }

    #[test]
    fn read_demotes_owner_to_shared() {
        let mut m = ksr(2);
        m.warm(1, 0, 128);
        m.access(0, 0, MemOp::Read, 0);
        assert_eq!(m.directory().state_of(0, 0), SubpageState::Shared);
        assert_eq!(m.directory().state_of(0, 1), SubpageState::Shared);
    }

    #[test]
    fn write_invalidates_other_copies_leaving_placeholders() {
        let mut m = ksr(3);
        m.warm(1, 0, 128);
        m.access(0, 0, MemOp::Read, 0);
        m.access(2, 0, MemOp::Read, 0);
        // Cell 1 upgrades its shared copy.
        let o = m.access(1, 0, MemOp::Write, 10_000);
        assert!(done(o) > 10_100, "upgrade pays a ring transaction");
        assert_eq!(m.directory().state_of(0, 1), SubpageState::Exclusive);
        assert_eq!(
            m.directory().state_of(0, 0),
            SubpageState::Invalid,
            "place holder"
        );
        assert_eq!(m.directory().state_of(0, 2), SubpageState::Invalid);
        assert_eq!(m.perfmon(0).invalidations_received, 1);
    }

    #[test]
    fn read_snarfing_refills_all_placeholders() {
        let mut m = ksr(4);
        m.warm(1, 0, 128);
        m.access(0, 0, MemOp::Read, 0);
        m.access(2, 0, MemOp::Read, 0);
        m.access(1, 0, MemOp::Write, 10_000); // invalidate 0 and 2
                                              // One re-read by cell 0 snarf-refills cell 2 as well.
        m.access(0, 0, MemOp::Read, 20_000);
        assert_eq!(m.directory().state_of(0, 2), SubpageState::Shared);
        assert_eq!(m.perfmon(2).snarfs, 1);
        // Cell 2's next read is a local hit, not a ring trip.
        let before = m.perfmon(2).ring_transactions;
        m.access(2, 0, MemOp::Read, 30_000);
        assert_eq!(m.perfmon(2).ring_transactions, before);
    }

    #[test]
    fn same_subpage_transactions_serialize() {
        let mut m = ksr(4);
        m.warm(3, 0, 128);
        // Three cells read the same sub-page at the same instant: the
        // completions must be strictly staggered (hot-spot serialization).
        let t0 = done(m.access(0, 0, MemOp::Read, 0));
        let t1 = done(m.access(1, 0, MemOp::Read, 0));
        let t2 = done(m.access(2, 0, MemOp::Read, 0));
        assert!(t1 > t0 && t2 > t1, "{t0} {t1} {t2}");
    }

    #[test]
    fn distinct_subpages_pipeline() {
        let mut m = ksr(3);
        m.warm(2, 0, 4096);
        // Two cells read distinct sub-pages concurrently: near-identical
        // latency (the second sees one extra cycle of slot-entry wait —
        // nothing like the serialization of a same-sub-page conflict).
        let a = done(m.access(0, 0, MemOp::Read, 0));
        let b = done(m.access(1, 256, MemOp::Read, 0));
        assert!(
            b - a <= 2,
            "pipelined ring serves distinct sub-pages in parallel: {a} vs {b}"
        );
    }

    #[test]
    fn get_sub_page_succeeds_then_blocks_others() {
        let mut m = ksr(3);
        let t = done(m.access(0, 0, MemOp::GetSubPage, 0));
        assert_eq!(m.directory().state_of(0, 0), SubpageState::Atomic);
        // Another cell's gsp fails.
        match m.access(1, 0, MemOp::GetSubPage, t) {
            Outcome::AtomicFailed { done_at } => assert!(done_at > t),
            other => panic!("expected AtomicFailed, got {other:?}"),
        }
        assert_eq!(m.perfmon(1).atomic_rejections, 1);
        // An ordinary access blocks.
        assert!(matches!(
            m.access(2, 0, MemOp::Read, t),
            Outcome::BlockedOnAtomic { subpage: 0 }
        ));
        // The holder itself may access freely.
        assert!(matches!(
            m.access(0, 0, MemOp::Write, t),
            Outcome::Done { .. }
        ));
    }

    #[test]
    fn release_reopens_the_subpage() {
        let mut m = ksr(2);
        m.access(0, 0, MemOp::GetSubPage, 0);
        let t = done(m.access(0, 0, MemOp::ReleaseSubPage, 100));
        assert_eq!(m.directory().state_of(0, 0), SubpageState::Exclusive);
        let o = m.access(1, 0, MemOp::GetSubPage, t);
        assert!(matches!(o, Outcome::Done { .. }));
        assert_eq!(m.directory().state_of(0, 1), SubpageState::Atomic);
        assert_eq!(m.directory().state_of(0, 0), SubpageState::Invalid);
    }

    #[test]
    fn release_emits_event_for_watchers() {
        let mut m = ksr(2);
        m.watch(0);
        m.access(0, 0, MemOp::GetSubPage, 0);
        m.access(0, 0, MemOp::ReleaseSubPage, 500);
        let mut ev = Vec::new();
        m.drain_events_into(&mut ev);
        assert_eq!(ev.len(), 1);
        assert_eq!(ev[0].subpage, 0);
        assert!(ev[0].at >= 500);
        m.unwatch(0);
        m.access(0, 0, MemOp::GetSubPage, 1000);
        m.access(0, 0, MemOp::ReleaseSubPage, 2000);
        ev.clear();
        m.drain_events_into(&mut ev);
        assert!(ev.is_empty(), "unwatched sub-pages stay silent");
    }

    #[test]
    fn writes_emit_events_for_watchers() {
        let mut m = ksr(1);
        m.watch(subpage_of(256));
        m.access(0, 256, MemOp::Write, 0);
        let mut ev = Vec::new();
        m.drain_events_into(&mut ev);
        assert_eq!(ev.len(), 1);
    }

    #[test]
    fn prefetch_hides_ring_latency() {
        let mut m = ksr(2);
        m.warm(1, 0, 256);
        // Prefetch at t=0 returns almost immediately.
        let issue = done(m.access(0, 0, MemOp::Prefetch { exclusive: false }, 0));
        assert!(issue < 20, "prefetch is non-blocking: {issue}");
        // An access long after the fill completes is a local-cache hit.
        let t = done(m.access(0, 0, MemOp::Read, 10_000)) - 10_000;
        assert_eq!(t, 18 + 9, "local hit + block alloc after prefetch");
        // Without prefetch the same read from cell 0 would cost 175+.
    }

    #[test]
    fn access_before_prefetch_completes_waits_for_it() {
        let mut m = ksr(2);
        m.warm(1, 0, 256);
        m.access(0, 0, MemOp::Prefetch { exclusive: false }, 0);
        let t = done(m.access(0, 0, MemOp::Read, 10));
        assert!(t > 100, "must wait for the in-flight fill: {t}");
        assert!(
            t < 175 + 105 + 50,
            "but cheaper than a fresh ring trip: {t}"
        );
    }

    #[test]
    fn poststore_refills_placeholders_and_demotes_writer() {
        let mut m = ksr(3);
        m.warm(0, 0, 128);
        m.access(1, 0, MemOp::Read, 0);
        m.access(2, 0, MemOp::Read, 0);
        m.access(0, 0, MemOp::Write, 10_000); // invalidates 1, 2
        assert_eq!(m.directory().state_of(0, 1), SubpageState::Invalid);
        let issue = done(m.access(0, 0, MemOp::Poststore, 20_000));
        assert!(issue - 20_000 < 100, "issuing processor continues quickly");
        assert_eq!(m.directory().state_of(0, 1), SubpageState::Shared);
        assert_eq!(m.directory().state_of(0, 2), SubpageState::Shared);
        assert_eq!(
            m.directory().state_of(0, 0),
            SubpageState::Shared,
            "writer demoted"
        );
        // The writer's next write pays an upgrade — the SP pathology.
        let before = m.perfmon(0).ring_transactions;
        m.access(0, 0, MemOp::Write, 30_000);
        assert_eq!(m.perfmon(0).ring_transactions, before + 1);
    }

    #[test]
    fn capacity_eviction_causes_refetch() {
        // Tiny caches: working set larger than the local cache forces
        // evictions and later re-fetches (cold first-touch path).
        let mut m = MemorySystem::new(
            MemGeometry::scaled(64),
            CacheTiming::ksr1(),
            Topology::ksr1_32().build(1).unwrap(),
            1,
            7,
        )
        .unwrap();
        // 512 KB local cache (32 page frames) -> write 2 MB.
        let mut t = 0;
        for i in 0..(2 * 1024 * 1024 / 128) {
            t = done(m.access(0, i * 128, MemOp::Write, t));
        }
        let allocs = m.perfmon(0).page_allocations;
        assert!(allocs > 32, "pages must have been recycled: {allocs}");
        assert_eq!(m.localcaches[0].resident_pages(), 32);
    }

    #[test]
    fn butterfly_every_access_is_remote() {
        let mut m = MemorySystem::new(
            MemGeometry::ksr1(),
            CacheTiming::butterfly(),
            Topology::butterfly(16).build(16).unwrap(),
            16,
            1,
        )
        .unwrap();
        let t1 = done(m.access(0, 0, MemOp::Read, 0));
        let t2 = done(m.access(0, 0, MemOp::Read, t1)) - t1;
        assert_eq!(t1, t2, "no caches: repeat reads cost the same");
        assert_eq!(m.perfmon(0).ring_transactions, 2);
    }

    #[test]
    fn butterfly_atomic_roundtrip() {
        let mut m = MemorySystem::new(
            MemGeometry::ksr1(),
            CacheTiming::butterfly(),
            Topology::butterfly(4).build(4).unwrap(),
            4,
            1,
        )
        .unwrap();
        let t = done(m.access(0, 0, MemOp::GetSubPage, 0));
        assert!(matches!(
            m.access(1, 0, MemOp::GetSubPage, t),
            Outcome::AtomicFailed { .. }
        ));
        let t2 = done(m.access(0, 0, MemOp::ReleaseSubPage, t));
        assert!(matches!(
            m.access(1, 0, MemOp::GetSubPage, t2),
            Outcome::Done { .. }
        ));
    }

    #[test]
    fn warm_steals_cleanly() {
        let mut m = ksr(2);
        m.warm(0, 0, 1024);
        m.warm(1, 0, 1024);
        assert_eq!(m.directory().state_of(0, 0), SubpageState::Missing);
        assert_eq!(m.directory().state_of(0, 1), SubpageState::Exclusive);
        assert_eq!(m.directory().find_violation(), None);
    }

    #[test]
    fn perfmon_totals_merge() {
        let mut m = ksr(2);
        m.warm(1, 0, 128);
        m.access(0, 0, MemOp::Read, 0);
        let total = m.perfmon_total();
        assert_eq!(
            total.ring_transactions,
            m.perfmon(0).ring_transactions + m.perfmon(1).ring_transactions
        );
    }
}
