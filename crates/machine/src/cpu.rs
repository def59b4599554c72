//! The processor handle simulated programs run against.
//!
//! A [`Cpu`] is owned by its program's future. Every shared-memory
//! operation *yields* an [`AccessOp`] to the machine coordinator (the
//! program future suspends at the `await` point) and resumes with the
//! coordinator's [`Reply`] once the access has been scheduled in global
//! virtual-time order; private computation advances the local clock
//! without suspension. This gives simulated programs a completely
//! ordinary imperative style — the CG inner loop looks like a loop, a
//! barrier looks like a function call with `.await` — while the
//! coordinator keeps the whole machine deterministic.
//!
//! The yield handshake is a per-processor `Slot`: the access future
//! deposits `(issue time, op)` and returns `Pending`; the event-loop
//! coordinator takes the request, deposits the reply, and polls again.
//! Coordinator and future live on the same thread (the event core is
//! single-threaded by construction), and each side only ever moves a
//! whole value into or out of the slot, so the slot is three plain
//! `Cell`s behind an `Rc` — no borrow flag, no atomics, no locks, no
//! rendezvous. Every access is one hand-written `Roundtrip` future:
//! its first poll deposits the request, its second takes the reply and
//! advances the local clock.
//!
//! The two spin loops are single accesses: [`Cpu::spin_until`] parks
//! until a visibility event, and [`Cpu::acquire_sub_page`] has the
//! coordinator retry each rejected `get_sub_page` at the rejection's
//! reply time. Every retry is still a costed request; the program
//! resumes once, when the loop exits.

use std::cell::Cell;
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll};

use ksr_core::time::{Cycles, Hz};
use ksr_core::trace::{TraceEvent, Tracer};

use crate::config::InterruptConfig;

/// One shared-memory operation yielded by a program to the coordinator.
///
/// This is the entire vocabulary a resumable program can speak: each
/// [`Program::resume`](crate::program::Program::resume) either yields one
/// of these (with the issue timestamp) or reports completion.
pub enum AccessOp {
    /// Load a 64-bit word.
    Read {
        /// SVA address.
        addr: u64,
    },
    /// Store a 64-bit word.
    Write {
        /// SVA address.
        addr: u64,
        /// Value to store.
        value: u64,
    },
    /// One `get_sub_page` attempt.
    GetSubPage {
        /// Address within the target sub-page.
        addr: u64,
    },
    /// `get_sub_page` retried until it succeeds (fast-forwarded spin
    /// loop; each retry is a fully costed ring request).
    AcquireSubPage {
        /// Address within the target sub-page.
        addr: u64,
    },
    /// `release_sub_page`.
    ReleaseSubPage {
        /// Address within the target sub-page.
        addr: u64,
    },
    /// Native atomic fetch-and-add (Symmetry/Butterfly only).
    FetchAdd {
        /// SVA address.
        addr: u64,
        /// Addend (wrapping).
        delta: u64,
    },
    /// Non-blocking `prefetch`.
    Prefetch {
        /// Address within the target sub-page.
        addr: u64,
        /// Fetch in exclusive state.
        exclusive: bool,
    },
    /// `poststore`.
    Poststore {
        /// Address within the target sub-page.
        addr: u64,
    },
    /// §4-extension: local-cache → sub-cache prefetch.
    SubcachePrefetch {
        /// Address within the target sub-page.
        addr: u64,
    },
    /// Park until `pred` holds for the word at `addr` (fast-forwarded
    /// spin loop; each wake-up is a fully costed re-read).
    Spin {
        /// SVA address being spun on.
        addr: u64,
        /// Exit predicate over the loaded value.
        pred: Box<dyn FnMut(u64) -> bool>,
    },
}

impl std::fmt::Debug for AccessOp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Read { addr } => f.debug_struct("Read").field("addr", addr).finish(),
            Self::Write { addr, value } => f
                .debug_struct("Write")
                .field("addr", addr)
                .field("value", value)
                .finish(),
            Self::GetSubPage { addr } => f.debug_struct("GetSubPage").field("addr", addr).finish(),
            Self::AcquireSubPage { addr } => f
                .debug_struct("AcquireSubPage")
                .field("addr", addr)
                .finish(),
            Self::ReleaseSubPage { addr } => f
                .debug_struct("ReleaseSubPage")
                .field("addr", addr)
                .finish(),
            Self::FetchAdd { addr, delta } => f
                .debug_struct("FetchAdd")
                .field("addr", addr)
                .field("delta", delta)
                .finish(),
            Self::Prefetch { addr, exclusive } => f
                .debug_struct("Prefetch")
                .field("addr", addr)
                .field("exclusive", exclusive)
                .finish(),
            Self::Poststore { addr } => f.debug_struct("Poststore").field("addr", addr).finish(),
            Self::SubcachePrefetch { addr } => f
                .debug_struct("SubcachePrefetch")
                .field("addr", addr)
                .finish(),
            Self::Spin { addr, .. } => f
                .debug_struct("Spin")
                .field("addr", addr)
                .finish_non_exhaustive(),
        }
    }
}

impl AccessOp {
    /// Short operation name for diagnostics.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            Self::Read { .. } => "read",
            Self::Write { .. } => "write",
            Self::GetSubPage { .. } => "get_sub_page",
            Self::AcquireSubPage { .. } => "acquire_sub_page",
            Self::ReleaseSubPage { .. } => "release_sub_page",
            Self::FetchAdd { .. } => "fetch_add",
            Self::Prefetch { .. } => "prefetch",
            Self::Poststore { .. } => "poststore",
            Self::SubcachePrefetch { .. } => "subcache_prefetch",
            Self::Spin { .. } => "spin",
        }
    }
}

/// Coordinator's answer to a yielded [`AccessOp`].
#[derive(Debug, Clone, Copy)]
pub enum Reply {
    /// A loaded value (reads, spins, fetch-and-add).
    Value {
        /// The loaded (or pre-update) value.
        value: u64,
        /// Completion time.
        at: Cycles,
    },
    /// Success flag (`get_sub_page`).
    Flag {
        /// Whether the attempt succeeded.
        ok: bool,
        /// Completion time.
        at: Cycles,
    },
    /// Plain completion.
    Unit {
        /// Completion time.
        at: Cycles,
    },
}

impl Reply {
    /// The virtual time the access completed.
    #[must_use]
    pub fn at(&self) -> Cycles {
        match self {
            Self::Value { at, .. } | Self::Flag { at, .. } | Self::Unit { at } => *at,
        }
    }
}

/// The per-processor yield cell shared by a program future and the
/// coordinator. Access strictly alternates (the coordinator never polls
/// without first depositing the awaited reply, and the future never
/// suspends without first depositing its request) and both sides live on
/// the coordinator's thread; each side moves a whole value in or out, so
/// plain `Cell`s suffice and no borrow is ever taken.
#[derive(Default)]
pub(crate) struct Slot {
    /// Deposited by the program future just before it suspends.
    request: Cell<Option<(Cycles, AccessOp)>>,
    /// Deposited by the coordinator just before it polls.
    reply: Cell<Option<Reply>>,
    /// Deposited by [`Cpu`]'s `Drop` when the program's future completes
    /// (the `Cpu` is owned by the future, so it drops exactly then):
    /// final local time and FLOP count.
    finished: Cell<Option<(Cycles, u64)>>,
}

impl Slot {
    pub(crate) fn put_reply(&self, reply: Reply) {
        self.reply.set(Some(reply));
    }

    pub(crate) fn take_request(&self) -> Option<(Cycles, AccessOp)> {
        self.request.take()
    }

    pub(crate) fn take_finished(&self) -> Option<(Cycles, u64)> {
        self.finished.take()
    }
}

/// One simulated processor, handed (by value) to the async closure a
/// [`crate::program::Program`] is built from.
pub struct Cpu {
    id: usize,
    nprocs: usize,
    clock_hz: Hz,
    flops_per_cycle: u64,
    local: Cycles,
    flops: u64,
    interrupts: Option<(InterruptConfig, Cycles)>,
    native_fetch_op: bool,
    tracer: Tracer,
    slot: Rc<Slot>,
}

impl std::fmt::Debug for Cpu {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Cpu")
            .field("id", &self.id)
            .field("nprocs", &self.nprocs)
            .field("local", &self.local)
            .field("flops", &self.flops)
            .finish_non_exhaustive()
    }
}

impl Drop for Cpu {
    fn drop(&mut self) {
        // The program future owns its Cpu, so this runs exactly when the
        // future completes (or is torn down mid-run after a peer's
        // failure): record the final clock and FLOP count for the
        // machine's run report.
        self.slot.finished.set(Some((self.local, self.flops)));
    }
}

impl Cpu {
    #[allow(clippy::too_many_arguments)] // internal constructor mirroring MachineConfig fields
    pub(crate) fn new(
        id: usize,
        nprocs: usize,
        start: Cycles,
        clock_hz: Hz,
        flops_per_cycle: u64,
        interrupts: Option<InterruptConfig>,
        native_fetch_op: bool,
        tracer: Tracer,
    ) -> Self {
        // Unsynchronized timers: each processor's first tick lands at a
        // different phase derived from its id.
        let interrupts = interrupts.map(|cfg| {
            let phase = (id as u64 * 7919) % cfg.quantum_cycles;
            (cfg, start + phase + 1)
        });
        Self {
            id,
            nprocs,
            clock_hz,
            flops_per_cycle,
            local: start,
            flops: 0,
            interrupts,
            native_fetch_op,
            tracer,
            slot: Rc::new(Slot::default()),
        }
    }

    /// The yield cell this processor's accesses go through (cloned by the
    /// program wrapper so it can read requests after polling).
    pub(crate) fn slot(&self) -> Rc<Slot> {
        Rc::clone(&self.slot)
    }

    /// Record the completion of one barrier episode by this processor
    /// (called by the synchronization library; a no-op when the machine
    /// has no tracer attached).
    pub fn trace_barrier_episode(&self, episode: u64) {
        let (at, cell) = (self.local, self.id);
        self.tracer
            .emit_with(|| TraceEvent::BarrierEpisode { at, cell, episode });
    }

    /// This processor's index (0-based).
    #[must_use]
    pub fn id(&self) -> usize {
        self.id
    }

    /// Number of processors participating in this run.
    #[must_use]
    pub fn nprocs(&self) -> usize {
        self.nprocs
    }

    /// The local virtual clock, in cycles.
    #[must_use]
    pub fn now(&self) -> Cycles {
        self.local
    }

    /// Cell clock rate.
    #[must_use]
    pub fn clock_hz(&self) -> Hz {
        self.clock_hz
    }

    /// Perform `cycles` of private computation (loop overhead, address
    /// arithmetic, anything not touching shared memory). Timer interrupts,
    /// when enabled, land inside computation.
    pub fn compute(&mut self, cycles: Cycles) {
        let mut remaining = cycles;
        if let Some((cfg, next)) = &mut self.interrupts {
            while self.local + remaining >= *next {
                let to_interrupt = next.saturating_sub(self.local);
                remaining -= to_interrupt.min(remaining);
                self.local = *next + cfg.duration_cycles;
                *next += cfg.quantum_cycles;
            }
        }
        self.local += remaining;
    }

    /// Perform `n` floating-point operations at the pipelined peak rate
    /// (2 per cycle on the KSR-1 — 40 MFLOPS at 20 MHz).
    pub fn flops(&mut self, n: u64) {
        self.flops += n;
        self.compute(n.div_ceil(self.flops_per_cycle));
    }

    /// Yield `op` to the coordinator and suspend until it replies.
    fn roundtrip(&mut self, op: AccessOp) -> Roundtrip<'_> {
        Roundtrip {
            cpu: self,
            op: Some(op),
        }
    }

    /// Load a 64-bit word from shared memory.
    pub async fn read_u64(&mut self, addr: u64) -> u64 {
        match self.roundtrip(AccessOp::Read { addr }).await {
            Reply::Value { value, .. } => value,
            _ => unreachable!("read must yield a value"),
        }
    }

    /// Store a 64-bit word to shared memory.
    pub async fn write_u64(&mut self, addr: u64, value: u64) {
        self.roundtrip(AccessOp::Write { addr, value }).await;
    }

    /// Load an `f64` from shared memory.
    pub async fn read_f64(&mut self, addr: u64) -> f64 {
        f64::from_bits(self.read_u64(addr).await)
    }

    /// Store an `f64` to shared memory.
    pub async fn write_f64(&mut self, addr: u64, value: f64) {
        self.write_u64(addr, value.to_bits()).await;
    }

    /// One `get_sub_page` attempt on the sub-page containing `addr`;
    /// `false` if another cell already holds it atomic.
    pub async fn get_sub_page(&mut self, addr: u64) -> bool {
        match self.roundtrip(AccessOp::GetSubPage { addr }).await {
            Reply::Flag { ok, .. } => ok,
            _ => unreachable!("get_sub_page must yield a flag"),
        }
    }

    /// Spin (in hardware fashion — each retry is a fresh ring request)
    /// until `get_sub_page` succeeds. This is exactly the "naive hardware
    /// exclusive lock" of §3.2.1. Semantically identical to
    /// `while !cpu.get_sub_page(addr).await {}` — every retry is a fully
    /// costed ring request issued at the previous rejection's reply time
    /// — but fast-forwarded: the coordinator re-queues each rejected
    /// attempt itself and resumes the program once, on success.
    pub async fn acquire_sub_page(&mut self, addr: u64) {
        match self.roundtrip(AccessOp::AcquireSubPage { addr }).await {
            Reply::Unit { .. } => {}
            _ => unreachable!("acquire_sub_page must yield a plain completion"),
        }
    }

    /// Release a sub-page held atomic.
    pub async fn release_sub_page(&mut self, addr: u64) {
        self.roundtrip(AccessOp::ReleaseSubPage { addr }).await;
    }

    /// Architecture-appropriate atomic fetch-and-add: a single fabric
    /// transaction where the hardware offers one, otherwise the KSR-1
    /// synthesis from `get_sub_page` (§3.2.2). Returns the old value.
    pub async fn fetch_add(&mut self, addr: u64, delta: u64) -> u64 {
        if self.native_fetch_op {
            match self.roundtrip(AccessOp::FetchAdd { addr, delta }).await {
                Reply::Value { value, .. } => value,
                _ => unreachable!("fetch_add must yield the old value"),
            }
        } else {
            self.acquire_sub_page(addr).await;
            let old = self.read_u64(addr).await;
            self.write_u64(addr, old.wrapping_add(delta)).await;
            self.release_sub_page(addr).await;
            old
        }
    }

    /// Issue a non-blocking `prefetch` of the sub-page containing `addr`
    /// into the local cache.
    pub async fn prefetch(&mut self, addr: u64, exclusive: bool) {
        self.roundtrip(AccessOp::Prefetch { addr, exclusive }).await;
    }

    /// Issue a `poststore` of the sub-page containing `addr`.
    pub async fn poststore(&mut self, addr: u64) {
        self.roundtrip(AccessOp::Poststore { addr }).await;
    }

    /// **Extension** (§4 wish list): non-blocking prefetch of a locally
    /// resident sub-page from the local cache into the sub-cache —
    /// "given that there is roughly an order of magnitude difference
    /// between their access times".
    pub async fn prefetch_subcache(&mut self, addr: u64) {
        self.roundtrip(AccessOp::SubcachePrefetch { addr }).await;
    }

    /// Spin on the word at `addr` until `pred` holds; returns the value
    /// that satisfied it. Semantically identical to
    /// `loop { let v = read(addr); if pred(v) { break v } }` — every
    /// wake-up is a fully costed re-read — but fast-forwarded so the
    /// simulator spends O(updates), not O(spin iterations).
    pub async fn spin_until(&mut self, addr: u64, pred: impl FnMut(u64) -> bool + 'static) -> u64 {
        match self
            .roundtrip(AccessOp::Spin {
                addr,
                pred: Box::new(pred),
            })
            .await
        {
            Reply::Value { value, .. } => value,
            _ => unreachable!("spin must yield a value"),
        }
    }

    /// Convenience: spin until the word equals `target`.
    pub async fn spin_until_eq(&mut self, addr: u64, target: u64) {
        self.spin_until(addr, move |v| v == target).await;
    }
}

/// The suspension point of every access: the first poll deposits
/// `(local, op)` and returns `Pending` (the program's driver then sees
/// the yielded op); the next poll — issued only after the driver has
/// deposited the reply — takes the reply, moves the local clock to its
/// completion time, and resolves to it.
struct Roundtrip<'a> {
    cpu: &'a mut Cpu,
    op: Option<AccessOp>,
}

impl Future for Roundtrip<'_> {
    type Output = Reply;

    fn poll(self: Pin<&mut Self>, _cx: &mut Context<'_>) -> Poll<Reply> {
        let this = self.get_mut();
        let cpu = &mut *this.cpu;
        if let Some(op) = this.op.take() {
            cpu.slot.request.set(Some((cpu.local, op)));
            return Poll::Pending;
        }
        let reply = cpu
            .slot
            .reply
            .take()
            .expect("program polled without a pending reply");
        cpu.local = reply.at();
        // Interrupts that would have fired during the stall are treated as
        // overlapped with it: skip them without extra charge.
        if let Some((cfg, next)) = &mut cpu.interrupts {
            while *next <= cpu.local {
                *next += cfg.quantum_cycles;
            }
        }
        Poll::Ready(reply)
    }
}
