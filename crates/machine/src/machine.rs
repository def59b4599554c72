//! The machine: processors + memory system + coordinator.
//!
//! ## Execution model
//!
//! Each simulated processor is a **resumable state machine** (a
//! [`Program`]): the coordinator polls it, receives either a timestamped
//! access request or a completion report, and services requests in
//! **global virtual-time order** — it only ever processes the
//! outstanding request with the smallest timestamp (ties broken by
//! processor id), so a run is fully deterministic for a given
//! configuration and seed.
//!
//! One host thread drives every processor of the machine (the **event
//! core**): delivering a reply *is* resuming the program — zero
//! channels, zero syscalls, zero context switches per access. Machine
//! size is bounded only by memory, not host thread limits.
//!
//! Spin loops ([`Cpu::spin_until`]) and accesses blocked on an atomic
//! sub-page park on a per-sub-page watch list and are re-issued — as
//! fully costed reads — whenever the memory system reports a visibility
//! event on that sub-page. This is semantically identical to a tight
//! polling loop (the woken read pays invalidation-refetch or snarf-refill
//! costs exactly as the protocol dictates) at O(updates) instead of
//! O(poll iterations) simulation cost.
//!
//! `get_sub_page` spins ([`Cpu::acquire_sub_page`]) are fast-forwarded
//! the same way, minus the parking: each rejected attempt stays a costed
//! ring request, and the coordinator re-queues the processor at the
//! rejection's reply time — the very `(time, proc)` entry the
//! program-side loop `while !get_sub_page(a) {}` pushed — so the
//! schedule, and every tie a `ScheduleOracle` sees, is unchanged. The
//! program resumes once, on success.

use std::cell::RefCell;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::marker::PhantomData;
use std::rc::Rc;
use std::sync::Arc;

use ksr_core::time::Cycles;
use ksr_core::trace::{TraceEvent, Tracer};
use ksr_core::{Error, FxHashMap, Result};
use ksr_mem::{MemOp, MemorySystem, Outcome, PerfMon};
use ksr_net::{FabricStats, Topology};

use crate::config::MachineConfig;
use crate::cpu::{AccessOp, Cpu, Reply, Slot};
use crate::heap::Heap;
use crate::program::{Program, Step};
use crate::report::RunReport;
use crate::schedule::ScheduleOracle;
use crate::snapshot::PerfSnapshot;

/// A hook invoked on every freshly built [`Machine`] (see
/// [`ObserverScope`]).
pub type MachineObserver = dyn Fn(&mut Machine) + Send + Sync;

thread_local! {
    /// Stack of scoped observers for the *current thread*. Deliberately
    /// thread-local rather than process-global: concurrent jobs each
    /// install their own observer and must never see machines built by
    /// another job's thread.
    static SCOPED_OBSERVERS: RefCell<Vec<Arc<MachineObserver>>> =
        const { RefCell::new(Vec::new()) };
}

/// Scoped, stacked registration of a hook invoked on every [`Machine`]
/// built **on the current thread** while the scope is alive.
/// Verification harnesses use this to attach checking sinks to machines
/// built deep inside experiment code they do not control; the hook runs
/// before the machine executes anything, so an attached sink observes
/// the complete event stream.
///
/// Scopes nest: the innermost (most recently installed) observer wins.
/// Dropping the scope uninstalls its observer. The handle is
/// deliberately `!Send` — registration is per-thread, and moving the
/// guard across threads would silently uninstall on the wrong stack.
#[must_use = "the observer is uninstalled when the scope is dropped"]
#[derive(Debug)]
pub struct ObserverScope {
    _not_send: PhantomData<*const ()>,
}

impl ObserverScope {
    /// Push `observer` onto the current thread's observer stack.
    pub fn install(observer: Arc<MachineObserver>) -> Self {
        SCOPED_OBSERVERS.with(|stack| stack.borrow_mut().push(observer));
        Self {
            _not_send: PhantomData,
        }
    }
}

impl Drop for ObserverScope {
    fn drop(&mut self) {
        SCOPED_OBSERVERS.with(|stack| {
            stack.borrow_mut().pop();
        });
    }
}

/// A simulated multiprocessor.
pub struct Machine {
    cfg: MachineConfig,
    mem: MemorySystem,
    heap: Heap,
    epoch: Cycles,
    oracle: Option<Box<dyn ScheduleOracle>>,
}

// Machines move between the executor's worker threads.
const _: fn() = || {
    fn send<T: Send>() {}
    send::<Machine>();
};

impl std::fmt::Debug for Machine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Machine")
            .field("cells", &self.cfg.cells)
            .field("epoch", &self.epoch)
            .field("oracle", &self.oracle.is_some())
            .finish_non_exhaustive()
    }
}

impl Machine {
    /// Build a machine from a validated configuration.
    pub fn new(cfg: MachineConfig) -> Result<Self> {
        cfg.validate()?;
        let fabric = cfg.build_fabric()?;
        let mem = MemorySystem::with_options(
            cfg.geometry,
            cfg.timing,
            fabric,
            cfg.cells,
            cfg.seed,
            cfg.protocol,
        )?;
        let mut machine = Self {
            cfg,
            mem,
            heap: Heap::new(),
            epoch: 0,
            oracle: None,
        };
        // Clone the innermost hook out before invoking it (the borrow
        // must end first) so a hook that builds another machine
        // re-enters the thread-local stack cleanly.
        let observer = SCOPED_OBSERVERS.with(|stack| stack.borrow().last().cloned());
        if let Some(observer) = observer {
            observer(&mut machine);
        }
        Ok(machine)
    }

    /// Attach a tracer to every instrumented layer of this machine: the
    /// interconnect (slot grants), the memory system (coherence
    /// transitions, snarfs, invalidations, atomic rejections), the
    /// coordinator (lock/flag handoffs), and the processors (barrier
    /// episodes). The memory system owns it as the machine's one event
    /// buffer, and the machine delivers the buffer to the sink before
    /// every [`Machine::run`] and [`Machine::warm`] returns. Sinks observe
    /// only — cycle counts are identical with tracing on or off.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.mem.set_tracer(tracer);
    }

    /// Install a [`ScheduleOracle`]: the coordinator consults it whenever
    /// several processors' requests tie at the minimal virtual time,
    /// instead of defaulting to ascending proc-id order. Used by the
    /// small-scope schedule explorer (`ksr_verify::explore`) to enumerate
    /// interleavings; measurement runs never install one.
    pub fn set_schedule_oracle(&mut self, oracle: Box<dyn ScheduleOracle>) {
        self.oracle = Some(oracle);
    }

    /// The paper's 32-cell KSR-1.
    pub fn ksr1(seed: u64) -> Result<Self> {
        Self::new(MachineConfig::ksr1(seed))
    }

    /// KSR-1 with caches scaled down by `factor`.
    pub fn ksr1_scaled(seed: u64, factor: u64) -> Result<Self> {
        Self::new(MachineConfig::ksr1_scaled(seed, factor))
    }

    /// The 64-cell KSR-2.
    pub fn ksr2(seed: u64) -> Result<Self> {
        Self::new(MachineConfig::ksr2(seed))
    }

    /// Sequent Symmetry-style bus machine.
    pub fn symmetry(cells: usize, seed: u64) -> Result<Self> {
        Self::new(MachineConfig::symmetry(cells, seed))
    }

    /// BBN Butterfly-style MIN machine.
    pub fn butterfly(cells: usize, seed: u64) -> Result<Self> {
        Self::new(MachineConfig::butterfly(cells, seed))
    }

    /// The machine configuration.
    #[must_use]
    pub fn config(&self) -> &MachineConfig {
        &self.cfg
    }

    /// The memory system (for perfmon and directory inspection).
    #[must_use]
    pub fn mem(&self) -> &MemorySystem {
        &self.mem
    }

    /// One cell's performance monitor.
    #[must_use]
    pub fn perfmon(&self, cell: usize) -> &PerfMon {
        self.mem.perfmon(cell)
    }

    /// Machine-wide performance-monitor totals.
    #[must_use]
    pub fn perfmon_total(&self) -> PerfMon {
        self.mem.perfmon_total()
    }

    /// Interconnect counters.
    #[must_use]
    pub fn fabric_stats(&self) -> FabricStats {
        self.mem.fabric().stats()
    }

    /// Packets absorbed by in-network ARD combining (0 unless the
    /// topology is a ring hierarchy built with combining enabled).
    #[must_use]
    pub fn combined_packets(&self) -> u64 {
        self.mem.fabric().combined_packets()
    }

    /// Freeze every hardware counter at the current virtual time. Take
    /// one snapshot before and one after a phase and
    /// [`PerfSnapshot::delta_since`] attributes the counters to it —
    /// exactly how the paper's authors used the hardware monitor.
    #[must_use]
    pub fn perfmon_snapshot(&self) -> PerfSnapshot {
        PerfSnapshot {
            at: self.epoch,
            per_cell: (0..self.cfg.cells).map(|c| *self.mem.perfmon(c)).collect(),
            total: self.mem.perfmon_total(),
            fabric: self.mem.fabric().stats(),
        }
    }

    /// Allocate `bytes` of shared memory with the given alignment.
    pub fn alloc(&mut self, bytes: u64, align: u64) -> Result<u64> {
        self.map(|heap| heap.alloc(bytes, align))
    }

    /// Allocate `words` 8-byte words.
    pub fn alloc_words(&mut self, words: u64) -> Result<u64> {
        self.map(|heap| heap.alloc_words(words))
    }

    /// Allocate on a fresh 128 B sub-page (no false sharing).
    pub fn alloc_subpage(&mut self, bytes: u64) -> Result<u64> {
        self.map(|heap| heap.alloc_subpage_aligned(bytes))
    }

    /// Run one heap allocation and map the grown heap in the data plane,
    /// so data accesses outside every allocation fail.
    fn map(&mut self, alloc: impl FnOnce(&mut Heap) -> Result<u64>) -> Result<u64> {
        let base = alloc(&mut self.heap)?;
        self.mem.data_mut().set_mapped(self.heap.mapped());
        Ok(base)
    }

    /// Pre-install an address range in a cell's local cache (untimed
    /// setup; see [`MemorySystem::warm`]). The sink holds the warm-up's
    /// transitions when this returns.
    pub fn warm(&mut self, cell: usize, addr: u64, len: u64) {
        self.mem.warm(cell, addr, len);
        self.mem.flush_trace();
    }

    /// **Extension** (§4 wish list): turn sub-caching off for an address
    /// range — streaming data then bypasses the sub-cache instead of
    /// thrashing the hot working set out of it.
    pub fn set_uncached(&mut self, addr: u64, len: u64) {
        self.mem.set_uncached(addr, len);
    }

    /// Untimed data-plane store (experiment setup).
    ///
    /// # Errors
    /// [`Error::BadAddress`] when `addr` lies outside every allocation,
    /// [`Error::Misaligned`] when it is not 8-byte aligned.
    pub fn poke_u64(&mut self, addr: u64, value: u64) -> Result<()> {
        self.mem.data_mut().write_u64(addr, value)
    }

    /// Untimed data-plane load (result verification).
    ///
    /// # Errors
    /// As [`Machine::poke_u64`].
    pub fn peek_u64(&mut self, addr: u64) -> Result<u64> {
        self.mem.data().read_u64(addr)
    }

    /// Untimed `f64` store.
    ///
    /// # Errors
    /// As [`Machine::poke_u64`].
    pub fn poke_f64(&mut self, addr: u64, value: f64) -> Result<()> {
        self.mem.data_mut().write_f64(addr, value)
    }

    /// Untimed `f64` load.
    ///
    /// # Errors
    /// As [`Machine::poke_u64`].
    pub fn peek_f64(&mut self, addr: u64) -> Result<f64> {
        self.mem.data().read_f64(addr)
    }

    /// Run one program per processor to completion; returns the run's
    /// timing report. May be called repeatedly — cache and directory state
    /// persist across runs (virtual time keeps increasing), which is how
    /// multi-phase experiments separate warm-up from measurement. An
    /// attached sink holds every event of the run when this returns or
    /// unwinds.
    ///
    /// # Errors
    /// [`Error::Config`] when `programs` is empty or holds more programs
    /// than the machine has cells; the machine is left untouched (its
    /// clock does not advance).
    ///
    /// # Panics
    /// Re-raises a simulated program's own panic as the run's root
    /// cause, and panics on simulation deadlock (every live processor
    /// parked on a sub-page no one is going to touch) — always a bug in
    /// the simulated program.
    pub fn run(&mut self, mut programs: Vec<Box<dyn Program + '_>>) -> Result<RunReport> {
        let n = programs.len();
        if n == 0 {
            return Err(Error::Config("need at least one program".into()));
        }
        if n > self.cfg.cells {
            return Err(Error::Config(format!(
                "{n} programs exceed the machine's {} cells",
                self.cfg.cells
            )));
        }
        let start = self.epoch;
        let traced = self.mem.tracer_mut().is_enabled();
        let cpus = self.build_cpus(n, start, traced);
        let slots = if traced {
            cpus.iter().map(Cpu::slot).collect()
        } else {
            Vec::new()
        };
        // Delivers the trace when the run ends, by return or by unwinding.
        let run = RunTrace {
            mem: &mut self.mem,
            slots,
        };
        let (proc_end, proc_flops) = coordinate_event(
            &mut *run.mem,
            &run.slots,
            &mut programs,
            cpus,
            self.oracle.as_deref_mut(),
        );
        drop(run);
        let finished_at = proc_end.iter().copied().max().unwrap_or(start);
        self.epoch = finished_at;
        Ok(RunReport {
            started_at: start,
            finished_at,
            clock_hz: self.cfg.clock_hz,
            proc_end,
            proc_flops,
        })
    }

    fn build_cpus(&self, n: usize, start: Cycles, traced: bool) -> Vec<Cpu> {
        // A KSR ring synthesises fetch-and-add from `get_sub_page`
        // (§3.2.2); the bus and the Butterfly have a native fetch-and-Φ,
        // which matters for the §3.2.3 barrier comparison.
        let native_fetch_op = !matches!(self.cfg.topology, Topology::Ring(_));
        (0..n)
            .map(|p| {
                Cpu::new(
                    p,
                    n,
                    start,
                    self.cfg.clock_hz,
                    self.cfg.flops_per_cycle,
                    self.cfg.interrupts,
                    native_fetch_op,
                    traced,
                )
            })
            .collect()
    }
}

/// Outcome of servicing one access request against the memory system.
enum Serviced {
    /// The access completed; resume the program with this reply.
    Reply(Reply),
    /// The access blocked: park the processor on `subpage` (watching for
    /// visibility events) and retry `op` on wake-up.
    Park {
        subpage: u64,
        at: Cycles,
        op: AccessOp,
    },
    /// A `get_sub_page` spin was rejected: queue `op` again at `at`
    /// without resuming the program.
    Retry { at: Cycles, op: AccessOp },
}

/// Diagnose a simulated program touching an unmapped or misaligned
/// data-plane address: a panic naming the processor, operation, address,
/// and cycle — the program's own bug, reported like any other program
/// panic (the run's root cause), never a bare `expect` poisoning the
/// coordinator.
fn data_fault(proc: usize, what: &str, addr: u64, at: Cycles, err: &Error) -> ! {
    panic!(
        "simulated program fault: processor {proc} {what} at address {addr:#x} \
         (cycle {at}): {err}"
    )
}

/// One `get_sub_page` attempt: whether it succeeded, and when its reply
/// came back. A success emits the acquire edge race detectors key on.
fn get_sub_page(mem: &mut MemorySystem, p: usize, addr: u64, t: Cycles) -> (bool, Cycles) {
    match mem.access(p, addr, MemOp::GetSubPage, t) {
        Outcome::Done { done_at } => {
            mem.tracer_mut().emit_with(|| TraceEvent::SyncAcquire {
                at: done_at,
                cell: p,
                subpage: ksr_mem::subpage_of(addr),
                rmw: false,
            });
            (true, done_at)
        }
        Outcome::AtomicFailed { done_at } => (false, done_at),
        Outcome::BlockedOnAtomic { .. } => {
            unreachable!("get_sub_page reports failure, not blockage")
        }
    }
}

/// Service one access request in virtual-time order — the single
/// request-processing path of the coordinator.
fn service(mem: &mut MemorySystem, p: usize, t: Cycles, op: AccessOp) -> Serviced {
    match op {
        AccessOp::Read { addr } => match mem.access(p, addr, MemOp::Read, t) {
            Outcome::Done { done_at } => {
                let value = mem
                    .data()
                    .read_u64(addr)
                    .unwrap_or_else(|e| data_fault(p, "read", addr, t, &e));
                mem.tracer_mut().emit_with(|| TraceEvent::DataRead {
                    at: done_at,
                    cell: p,
                    addr,
                });
                Serviced::Reply(Reply::Value { value, at: done_at })
            }
            Outcome::BlockedOnAtomic { subpage } => Serviced::Park {
                subpage,
                at: t,
                op: AccessOp::Read { addr },
            },
            Outcome::AtomicFailed { .. } => unreachable!("reads cannot fail atomically"),
        },
        AccessOp::Write { addr, value } => match mem.access(p, addr, MemOp::Write, t) {
            Outcome::Done { done_at } => {
                mem.data_mut()
                    .write_u64(addr, value)
                    .unwrap_or_else(|e| data_fault(p, "write", addr, t, &e));
                mem.tracer_mut().emit_with(|| TraceEvent::DataWrite {
                    at: done_at,
                    cell: p,
                    addr,
                });
                Serviced::Reply(Reply::Unit { at: done_at })
            }
            Outcome::BlockedOnAtomic { subpage } => Serviced::Park {
                subpage,
                at: t,
                op: AccessOp::Write { addr, value },
            },
            Outcome::AtomicFailed { .. } => unreachable!("writes cannot fail atomically"),
        },
        AccessOp::GetSubPage { addr } => {
            let (ok, at) = get_sub_page(mem, p, addr, t);
            Serviced::Reply(Reply::Flag { ok, at })
        }
        AccessOp::AcquireSubPage { addr } => match get_sub_page(mem, p, addr, t) {
            (true, at) => Serviced::Reply(Reply::Unit { at }),
            // The program-side loop would re-issue at exactly `at`.
            (false, at) => Serviced::Retry {
                at,
                op: AccessOp::AcquireSubPage { addr },
            },
        },
        AccessOp::FetchAdd { addr, delta } => match mem.access(p, addr, MemOp::AtomicRmw, t) {
            Outcome::Done { done_at } => {
                let old = mem
                    .data()
                    .read_u64(addr)
                    .unwrap_or_else(|e| data_fault(p, "fetch_add (read)", addr, t, &e));
                mem.data_mut()
                    .write_u64(addr, old.wrapping_add(delta))
                    .unwrap_or_else(|e| data_fault(p, "fetch_add (write)", addr, t, &e));
                // A native RMW is one indivisible acquire+release on
                // its sub-page: race detectors get a synchronization
                // edge without any `Atomic` directory state existing.
                let sp = ksr_mem::subpage_of(addr);
                mem.tracer_mut().emit_with(|| TraceEvent::SyncAcquire {
                    at: done_at,
                    cell: p,
                    subpage: sp,
                    rmw: true,
                });
                mem.tracer_mut().emit_with(|| TraceEvent::SyncRelease {
                    at: done_at,
                    cell: p,
                    subpage: sp,
                    rmw: true,
                });
                Serviced::Reply(Reply::Value {
                    value: old,
                    at: done_at,
                })
            }
            Outcome::BlockedOnAtomic { subpage } => Serviced::Park {
                subpage,
                at: t,
                op: AccessOp::FetchAdd { addr, delta },
            },
            Outcome::AtomicFailed { .. } => unreachable!("RMW cannot fail atomically"),
        },
        AccessOp::ReleaseSubPage { addr } => {
            // Stamped at issue time, before the memory system applies
            // the transition: the holder must still be `Atomic` here,
            // which is exactly what a checking sink verifies.
            mem.tracer_mut().emit_with(|| TraceEvent::SyncRelease {
                at: t,
                cell: p,
                subpage: ksr_mem::subpage_of(addr),
                rmw: false,
            });
            let done_at = mem.access(p, addr, MemOp::ReleaseSubPage, t).done_at();
            Serviced::Reply(Reply::Unit { at: done_at })
        }
        AccessOp::Prefetch { addr, exclusive } => {
            let done_at = mem
                .access(p, addr, MemOp::Prefetch { exclusive }, t)
                .done_at();
            Serviced::Reply(Reply::Unit { at: done_at })
        }
        AccessOp::Poststore { addr } => {
            let done_at = mem.access(p, addr, MemOp::Poststore, t).done_at();
            Serviced::Reply(Reply::Unit { at: done_at })
        }
        AccessOp::SubcachePrefetch { addr } => {
            let done_at = mem.access(p, addr, MemOp::SubcachePrefetch, t).done_at();
            Serviced::Reply(Reply::Unit { at: done_at })
        }
        AccessOp::Spin { addr, mut pred } => match mem.access(p, addr, MemOp::Read, t) {
            Outcome::Done { done_at } => {
                let value = mem
                    .data()
                    .read_u64(addr)
                    .unwrap_or_else(|e| data_fault(p, "spin read", addr, t, &e));
                if pred(value) {
                    mem.tracer_mut().emit_with(|| TraceEvent::SpinRead {
                        at: done_at,
                        cell: p,
                        addr,
                    });
                    Serviced::Reply(Reply::Value { value, at: done_at })
                } else {
                    Serviced::Park {
                        subpage: ksr_mem::subpage_of(addr),
                        at: done_at,
                        op: AccessOp::Spin { addr, pred },
                    }
                }
            }
            Outcome::BlockedOnAtomic { subpage } => Serviced::Park {
                subpage,
                at: t,
                op: AccessOp::Spin { addr, pred },
            },
            Outcome::AtomicFailed { .. } => unreachable!("reads cannot fail atomically"),
        },
    }
}

/// Min-queue of runnable processors keyed by (virtual time, proc id),
/// with a fast path for the common single-runnable case (n == 1, or
/// everyone else parked/done): the sole ready entry is held in `direct`
/// and never touches the heap. Invariant: when `direct` is `Some`, the
/// heap is empty — so `direct` is trivially the global minimum.
///
/// The heap orders one packed `u128` key, `(at << 64) | proc`: a single
/// integer compare that orders exactly as the `(at, proc)` tuple for
/// every `u64` time and every proc id below 2^64.
#[derive(Default)]
struct ReadyQueue {
    direct: Option<(Cycles, usize)>,
    heap: BinaryHeap<Reverse<u128>>,
}

fn pack(at: Cycles, p: usize) -> u128 {
    (u128::from(at) << 64) | p as u128
}

fn unpack(key: u128) -> (Cycles, usize) {
    ((key >> 64) as Cycles, key as u64 as usize)
}

impl ReadyQueue {
    fn push(&mut self, at: Cycles, p: usize) {
        if self.direct.is_none() && self.heap.is_empty() {
            self.direct = Some((at, p));
        } else {
            if let Some((d_at, d_p)) = self.direct.take() {
                self.heap.push(Reverse(pack(d_at, d_p)));
            }
            self.heap.push(Reverse(pack(at, p)));
        }
    }

    fn pop(&mut self) -> Option<(Cycles, usize)> {
        self.direct
            .take()
            .or_else(|| self.heap.pop().map(|Reverse(k)| unpack(k)))
    }

    /// Pop the next runnable processor, letting `oracle` (when installed)
    /// resolve minimal-timestamp ties instead of the default ascending
    /// proc-id order. The `direct` fast path is by construction the sole
    /// ready entry, so it never constitutes a choice point; with no
    /// oracle this is exactly [`ReadyQueue::pop`].
    fn pop_with(
        &mut self,
        oracle: Option<&mut (dyn ScheduleOracle + '_)>,
    ) -> Option<(Cycles, usize)> {
        let Some(oracle) = oracle else {
            return self.pop();
        };
        if let Some(d) = self.direct.take() {
            return Some(d);
        }
        let (t, first) = unpack(self.heap.pop()?.0);
        if self.heap.peek().is_none_or(|r| unpack(r.0).0 != t) {
            return Some((t, first));
        }
        // Two or more requests share the minimal timestamp: collect the
        // whole tie (heap pops ascend by (t, p), so `tied` is in
        // ascending proc-id order), ask the oracle, re-queue the rest.
        let mut tied = vec![first];
        while let Some(&Reverse(k)) = self.heap.peek() {
            let (t2, p) = unpack(k);
            if t2 != t {
                break;
            }
            self.heap.pop();
            tied.push(p);
        }
        let chosen = tied.swap_remove(oracle.pick(t, &tied).min(tied.len() - 1));
        for p in tied {
            self.heap.push(Reverse(pack(t, p)));
        }
        Some((t, chosen))
    }
}

/// Panic with the deadlock diagnosis: every live processor is parked on
/// a sub-page nobody is going to touch. Names each waiter.
fn deadlock_panic(live: usize, parked: &FxHashMap<u64, Vec<(usize, Cycles)>>) -> ! {
    let mut waiters: Vec<(usize, u64, Cycles)> = parked
        .iter()
        .flat_map(|(&sp, v)| v.iter().map(move |&(proc, at)| (proc, sp, at)))
        .collect();
    waiters.sort_unstable();
    panic!(
        "simulation deadlock: {live} processor(s) parked with no pending \
         writer; waiters as (proc, sub-page, parked_at): {waiters:?}"
    );
}

/// The event-driven coordinator: all processors of the machine driven by
/// the calling thread, strict smallest-timestamp-first. Delivering a
/// reply is a direct `resume` call on the program's state machine, so an
/// entire run makes **zero** syscalls for coordination. A program panic
/// unwinds straight through this loop with its original payload — it is
/// already on the coordinator's thread.
///
/// On a traced run, `slots` holds every processor's slot, and the events
/// a processor stamps there are appended to the trace right after the
/// `start` or `resume` that stamped them; an untraced run passes none.
fn coordinate_event(
    mem: &mut MemorySystem,
    slots: &[Rc<Slot>],
    programs: &mut [Box<dyn Program + '_>],
    cpus: Vec<Cpu>,
    mut oracle: Option<&mut (dyn ScheduleOracle + '_)>,
) -> (Vec<Cycles>, Vec<u64>) {
    let n = programs.len();
    // Op yielded by each suspended processor, serviced when its
    // timestamp is globally smallest.
    let mut pending: Vec<Option<AccessOp>> = (0..n).map(|_| None).collect();
    let mut ready = ReadyQueue::default();
    // sub-page -> parked (proc, parked_at)
    let mut parked: FxHashMap<u64, Vec<(usize, Cycles)>> = FxHashMap::default();
    // Reused across iterations so draining visibility events allocates
    // only until the buffer reaches its high-water mark.
    let mut events = Vec::new();
    let mut done = 0usize;
    let mut end_at = vec![0; n];
    let mut flops = vec![0; n];

    macro_rules! on_step {
        ($p:expr, $step:expr) => {{
            let step = $step;
            if let Some(slot) = slots.get($p) {
                slot.drain_events_into(mem.tracer_mut());
            }
            match step {
                Step::Yield { at, op } => {
                    pending[$p] = Some(op);
                    ready.push(at, $p);
                }
                Step::Done { at, flops: f } => {
                    done += 1;
                    end_at[$p] = at;
                    flops[$p] = f;
                }
            }
        }};
    }

    for (p, (prog, cpu)) in programs.iter_mut().zip(cpus).enumerate() {
        on_step!(p, prog.start(cpu));
    }

    while done < n {
        let Some((t, p)) = ready.pop_with(oracle.as_deref_mut()) else {
            deadlock_panic(n - done, &parked);
        };
        let op = pending[p]
            .take()
            .expect("scheduled processor has a request");

        match service(mem, p, t, op) {
            Serviced::Reply(reply) => on_step!(p, programs[p].resume(reply)),
            Serviced::Park { subpage, at, op } => {
                // A list in the map is never empty (a wake removes it
                // whole), so the sub-page is watched exactly while it
                // has waiters.
                let waiters = parked.entry(subpage).or_default();
                if waiters.is_empty() {
                    mem.watch(subpage);
                }
                waiters.push((p, at));
                pending[p] = Some(op);
            }
            Serviced::Retry { at, op } => {
                pending[p] = Some(op);
                ready.push(at, p);
            }
        }

        // Visibility events wake parked processors for a costed retry.
        mem.drain_events_into(&mut events);
        for ev in events.drain(..) {
            if let Some(waiters) = parked.remove(&ev.subpage) {
                mem.unwatch(ev.subpage);
                for (proc, parked_at) in waiters {
                    let wake_at = parked_at.max(ev.at);
                    mem.tracer_mut().emit_with(|| TraceEvent::LockHandoff {
                        at: wake_at,
                        cell: proc,
                        subpage: ev.subpage,
                    });
                    ready.push(wake_at, proc);
                }
            }
        }
    }
    (end_at, flops)
}

/// The trace side of one run: on drop — the run's return or its
/// unwinding from a program panic or a deadlock — appends what the
/// processors stamped in their slots and not yet handed over (only a
/// step that panicked leaves any), then delivers the memory system's
/// buffer to the sink. Neither step can panic while unwinding.
struct RunTrace<'a> {
    mem: &'a mut MemorySystem,
    /// The processors' slots on a traced run; empty otherwise.
    slots: Vec<Rc<Slot>>,
}

impl Drop for RunTrace<'_> {
    fn drop(&mut self) {
        for slot in &self.slots {
            slot.drain_events_into(self.mem.tracer_mut());
        }
        self.mem.flush_trace();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::program;

    #[test]
    fn single_program_runs_and_reports() {
        let mut m = Machine::ksr1(1).unwrap();
        let a = m.alloc_words(8).unwrap();
        let report = m
            .run(vec![program(move |mut cpu| async move {
                cpu.write_u64(a, 7).await;
                cpu.compute(100);
                let v = cpu.read_u64(a).await;
                assert_eq!(v, 7);
            })])
            .expect("run");
        assert!(report.duration_cycles() > 100);
        assert_eq!(m.peek_u64(a).unwrap(), 7);
    }

    #[test]
    fn determinism_across_runs() {
        let run_once = || {
            let mut m = Machine::ksr1(99).unwrap();
            let a = m.alloc_subpage(8).unwrap();
            let r = m
                .run(
                    (0..8)
                        .map(|_| {
                            program(move |mut cpu| async move {
                                for _ in 0..20 {
                                    cpu.acquire_sub_page(a).await;
                                    let v = cpu.read_u64(a).await;
                                    cpu.write_u64(a, v + 1).await;
                                    cpu.release_sub_page(a).await;
                                    cpu.compute(50);
                                }
                            })
                        })
                        .collect(),
                )
                .expect("run");
            (r.duration_cycles(), r.proc_end.clone())
        };
        assert_eq!(run_once(), run_once());
    }

    #[test]
    fn atomic_counter_is_exact_under_contention() {
        let mut m = Machine::ksr1(5).unwrap();
        let a = m.alloc_subpage(8).unwrap();
        let procs = 16;
        let iters = 25;
        m.run(
            (0..procs)
                .map(|_| {
                    program(move |mut cpu| async move {
                        for _ in 0..iters {
                            cpu.acquire_sub_page(a).await;
                            let v = cpu.read_u64(a).await;
                            cpu.write_u64(a, v + 1).await;
                            cpu.release_sub_page(a).await;
                        }
                    })
                })
                .collect(),
        )
        .expect("run");
        assert_eq!(m.peek_u64(a).unwrap(), (procs * iters) as u64);
    }

    /// `fetch_add` returns the old value and stores the sum, both as the
    /// KSR-1's `get_sub_page` synthesis and as the bus machine's native
    /// read-modify-write.
    #[test]
    fn fetch_add_returns_old_and_stores_new() {
        for mut m in [Machine::ksr1(1).unwrap(), Machine::symmetry(2, 1).unwrap()] {
            let a = m.alloc_subpage(8).unwrap();
            m.poke_u64(a, 10).unwrap();
            m.run(vec![program(move |mut cpu| async move {
                assert_eq!(cpu.fetch_add(a, 5).await, 10);
                assert_eq!(cpu.read_u64(a).await, 15);
            })])
            .expect("run");
            assert_eq!(m.peek_u64(a).unwrap(), 15);
        }
    }

    /// On both paths the sum wraps: adding `u64::MAX` subtracts one.
    #[test]
    fn fetch_add_wraps_correctly() {
        for mut m in [Machine::ksr1(1).unwrap(), Machine::symmetry(2, 1).unwrap()] {
            let a = m.alloc_subpage(8).unwrap();
            m.poke_u64(a, 3).unwrap();
            m.run(vec![program(move |mut cpu| async move {
                assert_eq!(cpu.fetch_add(a, u64::MAX).await, 3);
                assert_eq!(cpu.read_u64(a).await, 2);
                cpu.write_u64(a, 0).await;
                assert_eq!(cpu.fetch_add(a, u64::MAX).await, 0);
                assert_eq!(cpu.fetch_add(a, 1).await, u64::MAX);
            })])
            .expect("run");
            assert_eq!(m.peek_u64(a).unwrap(), 0);
        }
    }

    /// Concurrent `fetch_add`s lose no update on either path.
    #[test]
    fn concurrent_fetch_adds_do_not_lose_updates() {
        let procs = 12;
        let iters = 20;
        for mut m in [
            Machine::ksr1(2).unwrap(),
            Machine::symmetry(procs, 2).unwrap(),
        ] {
            let a = m.alloc_subpage(8).unwrap();
            m.run(
                (0..procs)
                    .map(|_| {
                        program(move |mut cpu| async move {
                            for _ in 0..iters {
                                cpu.fetch_add(a, 1).await;
                            }
                        })
                    })
                    .collect(),
            )
            .expect("run");
            assert_eq!(m.peek_u64(a).unwrap(), (procs * iters) as u64);
        }
    }

    #[test]
    fn spin_until_observes_writer() {
        let mut m = Machine::ksr1(3).unwrap();
        let flag = m.alloc_subpage(8).unwrap();
        let data = m.alloc_subpage(8).unwrap();
        let r = m
            .run(vec![
                program(move |mut cpu| async move {
                    cpu.compute(5_000);
                    cpu.write_u64(data, 42).await;
                    cpu.write_u64(flag, 1).await;
                }),
                program(move |mut cpu| async move {
                    cpu.spin_until_eq(flag, 1).await;
                    let v = cpu.read_u64(data).await;
                    assert_eq!(v, 42, "flag ordering must publish data");
                }),
            ])
            .expect("run");
        // The spinner cannot have finished before the writer's flag write.
        assert!(r.proc_end[1] > 5_000);
    }

    #[test]
    fn blocked_access_waits_for_release() {
        let mut m = Machine::ksr1(7).unwrap();
        let a = m.alloc_subpage(8).unwrap();
        let r = m
            .run(vec![
                program(move |mut cpu| async move {
                    cpu.acquire_sub_page(a).await;
                    cpu.write_u64(a, 9).await;
                    cpu.compute(10_000);
                    cpu.release_sub_page(a).await;
                }),
                program(move |mut cpu| async move {
                    cpu.compute(500); // let proc 0 take the lock first
                    let v = cpu.read_u64(a).await; // blocks until release
                    assert_eq!(v, 9);
                }),
            ])
            .expect("run");
        assert!(
            r.proc_end[1] > 10_000,
            "reader must stall past the critical section: {}",
            r.proc_end[1]
        );
    }

    #[test]
    fn per_proc_flops_accounted() {
        let mut m = Machine::ksr1(1).unwrap();
        let r = m
            .run(vec![
                program(|mut cpu| async move { cpu.flops(1000) }),
                program(|mut cpu| async move { cpu.flops(500) }),
            ])
            .expect("run");
        assert_eq!(r.proc_flops, vec![1000, 500]);
        assert_eq!(r.total_flops(), 1500);
        // 1000 flops at 2/cycle = 500 cycles.
        assert_eq!(r.proc_end[0], 500);
    }

    #[test]
    fn consecutive_runs_share_machine_state() {
        let mut m = Machine::ksr1(1).unwrap();
        let a = m.alloc_words(1).unwrap();
        let r1 = m
            .run(vec![program(move |mut cpu| async move {
                cpu.write_u64(a, 5).await;
            })])
            .expect("run");
        // Second run starts where the first ended, and the data persists.
        let r2 = m
            .run(vec![program(move |mut cpu| async move {
                assert_eq!(cpu.read_u64(a).await, 5);
            })])
            .expect("run");
        assert!(r2.started_at >= r1.finished_at);
        // Warm cache: that read is a cheap hit now.
        assert!(r2.duration_cycles() <= 30, "{}", r2.duration_cycles());
    }

    #[test]
    fn bad_program_counts_are_config_errors() {
        let mut m = Machine::ksr1(1).unwrap();
        let a = m.alloc_words(1).unwrap();
        m.run(vec![program(move |mut cpu| async move {
            cpu.write_u64(a, 1).await;
        })])
        .expect("run");
        let epoch = m.epoch;
        assert!(epoch > 0);
        assert_eq!(
            m.run(Vec::new()).unwrap_err(),
            Error::Config("need at least one program".into())
        );
        let cells = m.config().cells;
        let too_many = (0..=cells)
            .map(|_| program(|mut cpu| async move { cpu.compute(1) }))
            .collect();
        assert_eq!(
            m.run(too_many).unwrap_err(),
            Error::Config(format!(
                "{} programs exceed the machine's {cells} cells",
                cells + 1
            ))
        );
        assert_eq!(m.epoch, epoch, "a rejected run must not advance the clock");
    }

    #[test]
    fn empty_ring_spec_is_a_config_error() {
        assert!(matches!(
            Machine::new(MachineConfig::ksr_ring(0, &[])),
            Err(Error::Config(_))
        ));
    }

    /// A `ScheduleOracle` that picks a seeded index and records every tie
    /// it is shown.
    struct RecordingOracle {
        rng: ksr_core::XorShift64,
        seen: Vec<(Cycles, Vec<usize>, usize)>,
    }

    impl ScheduleOracle for RecordingOracle {
        fn pick(&mut self, at: Cycles, tied: &[usize]) -> usize {
            let i = self.rng.next_below(tied.len() as u64) as usize;
            self.seen.push((at, tied.to_vec(), i));
            i
        }
    }

    /// Seeded push/pop sequences over equal times, times near
    /// `u64::MAX` and procs up to 1023. With `oracle`, every pop goes
    /// through `pop_with`, and each tie it reports must be exactly the
    /// reference's minimal-time entries in ascending proc order.
    fn ready_queue_matches_reference(seed: u64, with_oracle: bool) {
        let mut rng = ksr_core::XorShift64::new(seed);
        let mut q = ReadyQueue::default();
        let mut reference: BinaryHeap<Reverse<(Cycles, usize)>> = BinaryHeap::new();
        let mut oracle = RecordingOracle {
            rng: ksr_core::XorShift64::new(seed ^ 0x5eed),
            seen: Vec::new(),
        };
        let bases = [0, 1 << 32, u64::MAX - 64];
        // Each proc is queued at most once, as in the coordinator.
        let mut queued = vec![false; 1024];
        for _ in 0..20_000 {
            if rng.next_below(5) < 3 {
                let p = rng.next_below(1024) as usize;
                if queued[p] {
                    continue;
                }
                let base = bases[rng.next_below(bases.len() as u64) as usize];
                let at = base + rng.next_below(8) * rng.next_below(8);
                queued[p] = true;
                q.push(at, p);
                reference.push(Reverse((at, p)));
                continue;
            }
            let (got, want) = if with_oracle {
                let before = oracle.seen.len();
                let got = q.pop_with(Some(&mut oracle));
                // Replay the oracle's decision, if any, on the reference.
                let want = if let Some((at, tied, i)) = oracle.seen.get(before) {
                    let mut ties = Vec::new();
                    while let Some(&Reverse((t, p))) = reference.peek() {
                        if t != *at {
                            break;
                        }
                        reference.pop();
                        ties.push(p);
                    }
                    assert_eq!(&ties, tied, "tie at {at} not in ascending proc order");
                    let chosen = ties.remove(*i);
                    for p in ties {
                        reference.push(Reverse((*at, p)));
                    }
                    Some((*at, chosen))
                } else {
                    reference.pop().map(|Reverse(x)| x)
                };
                (got, want)
            } else {
                (q.pop(), reference.pop().map(|Reverse(x)| x))
            };
            assert_eq!(got, want, "seed {seed}");
            if let Some((_, p)) = got {
                queued[p] = false;
            }
        }
        if with_oracle {
            assert!(
                oracle.seen.len() > 100,
                "too few ties: {}",
                oracle.seen.len()
            );
        }
    }

    #[test]
    fn ready_queue_pops_in_reference_order() {
        for seed in 1..=4 {
            ready_queue_matches_reference(seed, false);
        }
    }

    #[test]
    fn ready_queue_ties_reach_the_oracle_in_ascending_proc_order() {
        for seed in 1..=4 {
            ready_queue_matches_reference(seed, true);
        }
    }

    #[test]
    #[should_panic(expected = "deadlock")]
    fn deadlock_is_detected() {
        let mut m = Machine::ksr1(1).unwrap();
        let a = m.alloc_subpage(8).unwrap();
        let _ = m.run(vec![program(move |mut cpu| async move {
            cpu.spin_until_eq(a, 1).await; // nobody will ever write this
        })]);
    }

    #[test]
    fn deadlock_report_names_each_waiter() {
        let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut m = Machine::ksr1(1).unwrap();
            let a = m.alloc_subpage(8).unwrap();
            let _ = m.run(vec![
                program(move |mut cpu| async move {
                    cpu.spin_until_eq(a, 1).await; // nobody will ever write this
                }),
                program(move |mut cpu| async move {
                    cpu.compute(10);
                    cpu.spin_until_eq(a, 2).await; // nor this
                }),
            ]);
        }))
        .expect_err("two parked processors with no writer must deadlock");
        let msg = panic_message(&*payload);
        // The diagnostic must identify each waiter as a
        // (proc, sub-page, parked_at) triple, not just raw sub-page keys.
        assert!(msg.contains("(proc, sub-page, parked_at)"), "got: {msg}");
        assert!(msg.contains("(0, "), "waiter for proc 0 missing: {msg}");
        assert!(msg.contains("(1, "), "waiter for proc 1 missing: {msg}");
    }

    fn panic_program_set(m: &mut Machine) -> Vec<Box<dyn Program>> {
        let flag = m.alloc_subpage(8).unwrap();
        vec![
            program(move |mut cpu| async move {
                cpu.compute(10);
                let v = cpu.read_u64(flag).await;
                assert_eq!(v, 99, "the simulated program's own diagnosis");
            }),
            // Parked forever on a flag the panicking peer was about to
            // write: without abort propagation this peer dies with a
            // misleading "simulation deadlock" panic instead.
            program(move |mut cpu| async move {
                cpu.spin_until_eq(flag, 1).await;
            }),
        ]
    }

    #[test]
    fn program_panic_propagates_its_own_message() {
        let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut m = Machine::ksr1(7).unwrap();
            let programs = panic_program_set(&mut m);
            let _ = m.run(programs);
        }))
        .expect_err("a panicking program must fail the run");
        let msg = panic_message(&*payload);
        assert!(
            msg.contains("the simulated program's own diagnosis"),
            "expected the program's assertion to surface, got: {msg}"
        );
        assert!(
            !msg.contains("deadlock"),
            "the program's panic must not be masked as a deadlock: {msg}"
        );
    }

    #[test]
    fn poke_and_peek_report_unmapped_addresses() {
        let mut m = Machine::ksr1(1).unwrap();
        let a = m.alloc_words(1).unwrap();
        // 8-aligned, so only the mapping can reject them: the null
        // sub-page, the first word past the heap, and the far end of SVA.
        for bad in [0, a + 8, u64::MAX - 7] {
            assert_eq!(m.poke_u64(bad, 1), Err(Error::BadAddress(bad)));
            assert_eq!(m.peek_u64(bad), Err(Error::BadAddress(bad)));
            assert_eq!(m.poke_f64(bad, 1.0), Err(Error::BadAddress(bad)));
            assert_eq!(m.peek_f64(bad), Err(Error::BadAddress(bad)));
        }
        assert!(matches!(
            m.peek_u64(a + 4),
            Err(Error::Misaligned { required: 8, .. })
        ));
        // A valid address still round-trips.
        m.poke_u64(a, 77).unwrap();
        assert_eq!(m.peek_u64(a).unwrap(), 77);
    }

    #[test]
    fn in_run_fault_names_processor_and_address() {
        let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut m = Machine::ksr1(1).unwrap();
            let _ = m.run(vec![program(move |mut cpu| async move {
                // Unmapped (and 8-aligned): far past anything allocated.
                cpu.write_u64(u64::MAX - 7, 1).await;
            })]);
        }))
        .expect_err("an unmapped in-run access must fail the run");
        let msg = panic_message(&*payload);
        assert!(
            msg.contains("processor 0") && msg.contains("write"),
            "fault diagnostic must name proc and op: {msg}"
        );
        assert!(
            msg.contains("unmapped SVA address 0xfffffffffffffff8"),
            "fault diagnostic must name the unmapped address: {msg}"
        );
    }

    fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
        payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_else(|| {
                payload
                    .downcast_ref::<&str>()
                    .map_or_else(|| "<non-string payload>".to_string(), |s| (*s).to_string())
            })
    }

    #[test]
    fn timer_interrupts_stretch_compute() {
        use crate::config::InterruptConfig;
        let cfg = MachineConfig::ksr1(1).with_interrupts(InterruptConfig {
            quantum_cycles: 1_000,
            duration_cycles: 100,
        });
        let mut m = Machine::new(cfg).unwrap();
        let r = m
            .run(vec![program(|mut cpu| async move { cpu.compute(10_000) })])
            .expect("run");
        // ~10 interrupts of 100 cycles land inside 10k cycles of work.
        assert!(r.duration_cycles() >= 10_900, "{}", r.duration_cycles());
        assert!(r.duration_cycles() <= 11_200, "{}", r.duration_cycles());
    }

    #[test]
    fn timer_ticks_inside_a_stall_are_skipped_uncharged() {
        use std::cell::Cell;
        use std::rc::Rc;

        use crate::config::InterruptConfig;
        let cfg = MachineConfig::ksr1(7).with_interrupts(InterruptConfig {
            quantum_cycles: 1_000,
            duration_cycles: 100,
        });
        let mut m = Machine::new(cfg).unwrap();
        let a = m.alloc_subpage(8).unwrap();
        let after_read = Rc::new(Cell::new(0));
        let seen = Rc::clone(&after_read);
        let r = m
            .run(vec![
                program(move |mut cpu| async move {
                    // Processor 0 ticks at 1, 1001, 2001, ...
                    cpu.compute(500);
                    // Blocks on the atomic sub-page for ~10 quanta.
                    cpu.read_u64(a).await;
                    seen.set(cpu.now());
                    cpu.compute(2_000);
                }),
                program(move |mut cpu| async move {
                    cpu.acquire_sub_page(a).await;
                    cpu.compute(10_000);
                    cpu.release_sub_page(a).await;
                }),
            ])
            .expect("run");
        // The read resumes at its completion time: none of the ten ticks
        // that fell inside the stall (1001 ..= 11001) is charged.
        assert_eq!(after_read.get(), 11_544);
        // The next tick is the first one after the stall on processor
        // 0's phase, 12001; it and the one at 13001 land inside the
        // 2000-cycle compute.
        assert_eq!(r.proc_end[0], 11_544 + 2_000 + 2 * 100);
    }

    #[test]
    fn many_procs_distinct_data_pipelines() {
        // 16 processors each hammering their own sub-page: total time must
        // be far below 16x a single processor's (parallelism is real).
        let mut m = Machine::ksr1(11).unwrap();
        let addrs: Vec<u64> = (0..16).map(|_| m.alloc_subpage(8).unwrap()).collect();
        let solo = {
            let mut m1 = Machine::ksr1(11).unwrap();
            let a1 = m1.alloc_subpage(8).unwrap();
            let r = m1
                .run(vec![program(move |mut cpu| async move {
                    for i in 0..200 {
                        cpu.write_u64(a1, i).await;
                    }
                })])
                .expect("run");
            r.duration_cycles()
        };
        let r = m
            .run(
                addrs
                    .iter()
                    .map(|&a| {
                        program(move |mut cpu| async move {
                            for i in 0..200 {
                                cpu.write_u64(a, i).await;
                            }
                        })
                    })
                    .collect(),
            )
            .expect("run");
        assert!(
            r.duration_cycles() < solo * 4,
            "16 procs on distinct data should not serialize: {} vs solo {solo}",
            r.duration_cycles()
        );
    }

    #[test]
    fn observer_scope_sees_machines_built_in_scope_only() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let seen = Arc::new(AtomicUsize::new(0));
        let seen2 = Arc::clone(&seen);
        {
            let _scope = ObserverScope::install(Arc::new(move |_m: &mut Machine| {
                seen2.fetch_add(1, Ordering::SeqCst);
            }));
            let _a = Machine::ksr1_scaled(1, 64).unwrap();
            let _b = Machine::ksr1_scaled(2, 64).unwrap();
        }
        // Scope dropped: further machines are unobserved.
        let _c = Machine::ksr1_scaled(3, 64).unwrap();
        assert_eq!(seen.load(std::sync::atomic::Ordering::SeqCst), 2);
    }

    #[test]
    fn observer_scopes_nest_innermost_wins() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let outer = Arc::new(AtomicUsize::new(0));
        let inner = Arc::new(AtomicUsize::new(0));
        let (o2, i2) = (Arc::clone(&outer), Arc::clone(&inner));
        let _outer_scope = ObserverScope::install(Arc::new(move |_m: &mut Machine| {
            o2.fetch_add(1, Ordering::SeqCst);
        }));
        {
            let _inner_scope = ObserverScope::install(Arc::new(move |_m: &mut Machine| {
                i2.fetch_add(1, Ordering::SeqCst);
            }));
            let _m = Machine::ksr1_scaled(4, 64).unwrap();
        }
        let _m = Machine::ksr1_scaled(5, 64).unwrap();
        assert_eq!(inner.load(Ordering::SeqCst), 1, "inner scope shadowed");
        assert_eq!(outer.load(Ordering::SeqCst), 1, "outer resumes after pop");
    }

    #[test]
    fn observers_are_thread_local() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let seen = Arc::new(AtomicUsize::new(0));
        let seen2 = Arc::clone(&seen);
        let _scope = ObserverScope::install(Arc::new(move |_m: &mut Machine| {
            seen2.fetch_add(1, Ordering::SeqCst);
        }));
        // A machine built on another thread must not trip this thread's
        // observer.
        std::thread::scope(|s| {
            s.spawn(|| {
                let _m = Machine::ksr1_scaled(6, 64).unwrap();
            });
        });
        assert_eq!(seen.load(Ordering::SeqCst), 0);
        let _m = Machine::ksr1_scaled(7, 64).unwrap();
        assert_eq!(seen.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn empty_prefix_oracle_reproduces_the_default_schedule() {
        use crate::schedule::ReplayOracle;
        let run = |oracle: bool| {
            let mut m = Machine::ksr1(99).unwrap();
            let a = m.alloc_subpage(8).unwrap();
            let trace = oracle.then(|| {
                let (o, trace) = ReplayOracle::with_trace(Vec::new());
                m.set_schedule_oracle(Box::new(o));
                trace
            });
            let r = m
                .run(
                    (0..4)
                        .map(|_| {
                            program(move |mut cpu| async move {
                                for _ in 0..10 {
                                    cpu.acquire_sub_page(a).await;
                                    let v = cpu.read_u64(a).await;
                                    cpu.write_u64(a, v + 1).await;
                                    cpu.release_sub_page(a).await;
                                }
                            })
                        })
                        .collect(),
                )
                .expect("run");
            (r.proc_end.clone(), trace)
        };
        let (baseline, _) = run(false);
        let (replayed, trace) = run(true);
        assert_eq!(baseline, replayed, "prefix [] must be the default order");
        let t = trace.unwrap();
        let t = t.lock().unwrap();
        assert!(
            !t.fanouts.is_empty(),
            "4 procs starting at cycle 0 must tie at least once"
        );
        assert!(t.decisions.iter().all(|&d| d == 0));
    }

    #[test]
    fn oracle_choice_changes_the_schedule() {
        // Two procs race a get_sub_page at t=0; whoever is serviced
        // first wins the sub-page, so flipping the first tie must be
        // observable in the final memory state.
        let run = |prefix: Vec<usize>| {
            let mut m = Machine::ksr1(3).unwrap();
            let g = m.alloc_subpage(8).unwrap();
            let winner = m.alloc_subpage(8).unwrap();
            let (o, _trace) = crate::schedule::ReplayOracle::with_trace(prefix);
            m.set_schedule_oracle(Box::new(o));
            m.run(
                (0..2)
                    .map(|p| {
                        program(move |mut cpu| async move {
                            if cpu.get_sub_page(g).await {
                                cpu.write_u64(winner, p as u64 + 1).await;
                                cpu.release_sub_page(g).await;
                            }
                        })
                    })
                    .collect(),
            )
            .expect("run");
            m.peek_u64(winner).unwrap()
        };
        assert_eq!(run(vec![0]), 1, "default order: proc 0 wins the tie");
        assert_eq!(run(vec![1]), 2, "flipped tie: proc 1 wins");
    }

    #[test]
    fn event_core_runs_machines_far_beyond_thread_limits() {
        // 256 processors on one host thread: impossible under the old
        // thread-per-processor core on constrained hosts, trivial now.
        let mut m = Machine::butterfly(256, 13).unwrap();
        let a = m.alloc_subpage(8).unwrap();
        let r = m
            .run(
                (0..256)
                    .map(|_| {
                        program(move |mut cpu| async move {
                            cpu.fetch_add(a, 1).await;
                        })
                    })
                    .collect(),
            )
            .expect("run");
        assert_eq!(m.peek_u64(a).unwrap(), 256);
        assert!(r.duration_cycles() > 0);
    }

    #[test]
    fn deep_ring_machine_runs_1024_cells() {
        // A three-level 1024-cell KSR ring tree via the Topology API:
        // every cell bumps its own counter, far-side cells paying
        // multi-level crossings to reach cell 0's leaf.
        let mut m = Machine::new(MachineConfig::ksr_ring(17, &[32, 8, 4])).unwrap();
        let a = m.alloc_subpage(8).unwrap();
        let r = m
            .run(
                (0..1024)
                    .map(|_| {
                        program(move |mut cpu| async move {
                            cpu.fetch_add(a, 1).await;
                        })
                    })
                    .collect(),
            )
            .expect("run");
        assert_eq!(m.peek_u64(a).unwrap(), 1024);
        assert!(r.duration_cycles() > 0);
    }
}
