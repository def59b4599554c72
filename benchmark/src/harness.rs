//! Host-time and work accounting around the simulator's public API.
//!
//! Every machine a workload builds goes through [`Rep::machine`], every
//! run through [`Rep::run`] and every teardown through [`Rep::retire`].
//! One rep therefore yields its set-up, run and drop times, the
//! simulated work it did, and a digest of every simulated output.
//!
//! Sinks are attached by an [`ObserverScope`] while `Machine::new` runs,
//! before the machine allocates, warms or executes anything, so a sink
//! sees the machine's whole event stream. A checker attached any later
//! misses the warm-up transitions and reports false violations.
//!
//! A traced rep additionally wraps every `Program` to time `start` and
//! `resume`, times every sink's `record`, and counts events per kind.
//! Untraced reps pay none of that: a machine whose workload needs no
//! checker gets no tracer at all.

use std::cell::Cell;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use ksr_core::trace::{CountingSink, TraceEvent, TraceKind, TraceSink, Tracer};
use ksr_core::FingerprintBuilder;
use ksr_machine::{
    Cpu, Machine, MachineConfig, MachineObserver, ObserverScope, Program, Reply, RunReport, Step,
};
use ksr_verify::{CollectingSink, PredictiveSink};

/// The sink a workload itself attaches to a machine, traced or not.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Checker {
    /// No sink: the machine runs with tracing off unless the rep is
    /// traced.
    Off,
    /// A `PredictiveSink` (coherence checker plus lock-order graph), the
    /// sink `run_all --check` attaches to every machine.
    Predictive,
    /// A `CollectingSink` keeping the whole trace for offline passes.
    Collecting,
}

/// The workload's own sink inside a [`BenchSink`].
#[derive(Debug)]
enum Own {
    Off,
    Predictive(Box<PredictiveSink>),
    Collecting(CollectingSink),
}

impl Own {
    fn record(&mut self, event: &TraceEvent) {
        match self {
            Self::Off => {}
            Self::Predictive(s) => s.record(event),
            Self::Collecting(s) => s.record(event),
        }
    }
}

/// Per-kind event counts of one machine, plus the ring-slot grants that
/// found every slot in flight.
#[derive(Debug, Clone, Copy, Default)]
struct LayerCounts {
    kinds: CountingSink,
    blocked_slots: u64,
}

/// The one sink type the harness attaches: the workload's own sink and,
/// in a traced rep, the per-kind counters and the host-time clocks.
#[derive(Debug)]
struct BenchSink {
    own: Own,
    layers: Option<LayerCounts>,
}

impl TraceSink for BenchSink {
    fn record(&mut self, event: &TraceEvent) {
        let Some(layers) = &mut self.layers else {
            self.own.record(event);
            return;
        };
        let t0 = Instant::now();
        layers.kinds.record(event);
        if matches!(event, TraceEvent::RingSlot { blocked: true, .. }) {
            layers.blocked_slots += 1;
        }
        if !matches!(self.own, Own::Off) {
            let t1 = Instant::now();
            self.own.record(event);
            CLOCKS.with(|c| {
                add(&c.verify, t1.elapsed());
                c.verify_events.set(c.verify_events.get() + 1);
            });
        }
        CLOCKS.with(|c| add(&c.sink, t0.elapsed()));
    }
}

/// A machine built by [`Rep::machine`], with the sink attached to it.
#[derive(Debug)]
pub struct Sim {
    /// The machine.
    pub m: Machine,
    sink: Option<Arc<Mutex<BenchSink>>>,
}

impl Sim {
    /// The trace a [`Checker::Collecting`] machine kept.
    pub fn take_events(&self) -> Vec<TraceEvent> {
        let sink = self
            .sink
            .as_ref()
            .expect("machine was built with a checker");
        match &mut sink.lock().expect("bench sink poisoned").own {
            Own::Collecting(c) => c.take(),
            _ => panic!("take_events() needs a Checker::Collecting machine"),
        }
    }
}

/// Host time spent inside programs and sinks on this thread, kept where
/// the wrappers can reach it without a handle.
#[derive(Default)]
struct HostClocks {
    program: Cell<Duration>,
    resumes: Cell<u64>,
    sink: Cell<Duration>,
    verify: Cell<Duration>,
    verify_events: Cell<u64>,
}

thread_local! {
    static CLOCKS: HostClocks = HostClocks::default();
}

fn add(cell: &Cell<Duration>, d: Duration) {
    cell.set(cell.get() + d);
}

/// A program whose `start`/`resume` self time is accumulated; sink time
/// spent inside the step (a processor emitting a trace event) is left to
/// the sink's own clock.
struct TimedProgram(Box<dyn Program>);

impl TimedProgram {
    fn step(f: impl FnOnce() -> Step) -> Step {
        CLOCKS.with(|c| {
            let sink_before = c.sink.get();
            let t0 = Instant::now();
            let step = f();
            let spent = t0.elapsed();
            let nested = c.sink.get() - sink_before;
            add(&c.program, spent.saturating_sub(nested));
            c.resumes.set(c.resumes.get() + 1);
            step
        })
    }
}

impl Program for TimedProgram {
    fn start(&mut self, cpu: Cpu) -> Step {
        Self::step(|| self.0.start(cpu))
    }

    fn resume(&mut self, reply: Reply) -> Step {
        Self::step(|| self.0.resume(reply))
    }
}

/// Host seconds of one rep, split by what the time was spent on.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Times {
    /// From the start of `Machine::new` to the start of `Machine::run`:
    /// machine construction, allocation, warming, NAS input generation
    /// and program construction.
    pub setup: f64,
    /// Inside `Machine::new` (part of `setup`).
    pub new: f64,
    /// Inside `Machine::run`.
    pub run: f64,
    /// Dropping machines.
    pub drop: f64,
    /// `run` minus program self time minus sink time: the coordinator,
    /// memory system and fabric behind the public boundary (traced reps
    /// only; equal to `run` otherwise).
    pub service: f64,
    /// Program `start`/`resume` self time (traced reps only).
    pub program: f64,
    /// Time inside every sink's `record` (traced reps only).
    pub sink: f64,
    /// Time inside the workloads' own checking and collecting sinks
    /// (part of `sink`; traced reps only).
    pub verify: f64,
    /// Offline race and lockset passes.
    pub offline: f64,
}

/// Simulated work of one rep. Every count is exact and repeats bit for
/// bit on a correct build.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Work {
    /// Processor-issued accesses (`PerfMon::total_accesses`).
    pub accesses: u64,
    /// Accesses satisfied by the sub-cache.
    pub subcache_hits: u64,
    /// Sub-page invalidations received.
    pub invalidations: u64,
    /// `get_sub_page` attempts that lost to an atomic holder.
    pub atomic_rejections: u64,
    /// Ring transactions that crossed a level boundary.
    pub remote_references: u64,
    /// Packets the fabric carried.
    pub packets: u64,
    /// Packets absorbed by ARD combining.
    pub combined: u64,
    /// Program `start` and `resume` calls (traced reps only).
    pub resumes: u64,
    /// Events seen by the workloads' own sinks (traced reps only).
    pub verify_events: u64,
    /// Trace events of every kind (traced reps only).
    pub events: u64,
    /// Coherence transitions (traced reps only).
    pub coherence_events: u64,
    /// Parked processors woken by a visibility event (traced reps only).
    pub wakes: u64,
    /// Successful atomic acquisitions (traced reps only).
    pub sync_acquires: u64,
    /// Ring-slot grants (traced reps only).
    pub ring_slots: u64,
    /// Ring-slot grants that found every slot in flight (traced reps
    /// only).
    pub blocked_slots: u64,
}

/// What the observer attaches to the next machine built on this thread.
#[derive(Debug)]
struct Attach {
    traced: bool,
    checker: Checker,
    attached: Option<Arc<Mutex<BenchSink>>>,
}

/// Accounting for one rep of one workload.
#[derive(Debug)]
pub struct Rep {
    traced: bool,
    attach: Arc<Mutex<Attach>>,
    _scope: ObserverScope,
    clocks_at: ClockMark,
    setup_from: Option<Instant>,
    digest: FingerprintBuilder,
    /// Host seconds so far.
    pub times: Times,
    /// Simulated work so far.
    pub work: Work,
}

impl Rep {
    /// Start a rep on this thread; `traced` turns on the per-layer
    /// instrumentation.
    pub fn new(traced: bool) -> Self {
        let attach = Arc::new(Mutex::new(Attach {
            traced,
            checker: Checker::Off,
            attached: None,
        }));
        let slot = Arc::clone(&attach);
        let observer: Arc<MachineObserver> = Arc::new(move |m: &mut Machine| {
            let mut a = slot.lock().expect("attach slot poisoned");
            if a.checker == Checker::Off && !a.traced {
                return;
            }
            let own = match a.checker {
                Checker::Off => Own::Off,
                Checker::Predictive => Own::Predictive(Box::default()),
                Checker::Collecting => Own::Collecting(CollectingSink::new()),
            };
            let layers = a.traced.then(LayerCounts::default);
            let (tracer, sink) = Tracer::attach(BenchSink { own, layers });
            m.set_tracer(tracer);
            a.attached = Some(sink);
        });
        Self {
            traced,
            attach,
            _scope: ObserverScope::install(observer),
            clocks_at: ClockMark::read(),
            setup_from: None,
            digest: FingerprintBuilder::new(),
            times: Times::default(),
            work: Work::default(),
        }
    }

    /// Build a machine with `checker` attached from construction on.
    /// Set-up time runs from here to the machine's [`Rep::run`].
    pub fn machine(&mut self, cfg: MachineConfig, checker: Checker) -> Sim {
        let t0 = Instant::now();
        self.setup_from = Some(t0);
        {
            let mut a = self.attach.lock().expect("attach slot poisoned");
            a.checker = checker;
            a.attached = None;
        }
        let m = Machine::new(cfg).expect("benchmark machine configs are valid");
        self.times.new += t0.elapsed().as_secs_f64();
        let sink = self
            .attach
            .lock()
            .expect("attach slot poisoned")
            .attached
            .take();
        Sim { m, sink }
    }

    /// Run one program per processor and fold the run's timing report
    /// into the digest.
    pub fn run(&mut self, sim: &mut Sim, programs: Vec<Box<dyn Program>>) -> RunReport {
        if let Some(from) = self.setup_from.take() {
            self.times.setup += from.elapsed().as_secs_f64();
        }
        let programs: Vec<Box<dyn Program>> = if self.traced {
            programs
                .into_iter()
                .map(|p| Box::new(TimedProgram(p)) as Box<dyn Program>)
                .collect()
        } else {
            programs
        };
        let (program0, sink0) = CLOCKS.with(|c| (c.program.get(), c.sink.get()));
        let t0 = Instant::now();
        let report = sim.m.run(programs).expect("Machine::run");
        let spent = t0.elapsed();
        let (program1, sink1) = CLOCKS.with(|c| (c.program.get(), c.sink.get()));
        self.times.run += spent.as_secs_f64();
        self.times.service += spent
            .saturating_sub(program1 - program0)
            .saturating_sub(sink1 - sink0)
            .as_secs_f64();
        for v in [report.started_at, report.finished_at] {
            self.digest_u64(v);
        }
        report.proc_end.iter().for_each(|&v| self.digest_u64(v));
        report.proc_flops.iter().for_each(|&v| self.digest_u64(v));
        report
    }

    /// Fold a machine's counters into the work totals and the digest,
    /// then drop it, timing the teardown.
    ///
    /// # Panics
    /// When a [`Checker::Predictive`] sink recorded a coherence violation
    /// or a lock-order finding: the run counts as failed.
    pub fn retire(&mut self, sim: Sim) {
        let pm = sim.m.perfmon_total();
        let fabric = sim.m.fabric_stats();
        let combined = sim.m.combined_packets();
        for v in [
            pm.subcache_hits,
            pm.subcache_misses,
            pm.localcache_hits,
            pm.localcache_misses,
            pm.ring_transactions,
            pm.ring_wait_cycles,
            pm.ring_latency_cycles,
            pm.page_allocations,
            pm.block_allocations,
            pm.invalidations_received,
            pm.snarfs,
            pm.poststores,
            pm.prefetches,
            pm.atomic_rejections,
            pm.remote_references,
            fabric.packets,
            fabric.wait_cycles,
            combined,
        ] {
            self.digest_u64(v);
        }
        let w = &mut self.work;
        w.accesses += pm.total_accesses();
        w.subcache_hits += pm.subcache_hits;
        w.invalidations += pm.invalidations_received;
        w.atomic_rejections += pm.atomic_rejections;
        w.remote_references += pm.remote_references;
        w.packets += fabric.packets;
        w.combined += combined;
        if let Some(sink) = &sim.sink {
            let sink = sink.lock().expect("bench sink poisoned");
            if let Own::Predictive(p) = &sink.own {
                assert!(
                    p.violations().is_empty() && p.checker().truncated() == 0,
                    "coherence checker: {} violation(s), first {:?}",
                    p.violations().len() as u64 + p.checker().truncated(),
                    p.violations().first()
                );
                let findings = p.predict_findings();
                assert!(findings.is_empty(), "lock-order graph: {findings:?}");
            }
            if let Some(l) = sink.layers {
                w.events += l.kinds.total();
                w.coherence_events += l.kinds.count(TraceKind::Coherence);
                w.wakes += l.kinds.count(TraceKind::LockHandoff);
                w.sync_acquires += l.kinds.count(TraceKind::SyncAcquire);
                w.ring_slots += l.kinds.count(TraceKind::RingSlot);
                w.blocked_slots += l.blocked_slots;
            }
        }
        let t0 = Instant::now();
        drop(sim);
        self.times.drop += t0.elapsed().as_secs_f64();
    }

    /// Time an offline verification pass.
    pub fn offline<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let out = f();
        self.times.offline += t0.elapsed().as_secs_f64();
        out
    }

    /// Fold one simulated output value into the digest.
    pub fn digest_u64(&mut self, v: u64) {
        self.digest.update(&v.to_le_bytes());
    }

    /// The digest of everything folded in since the last call, as hex;
    /// starts the next one.
    pub fn take_digest(&mut self) -> String {
        std::mem::take(&mut self.digest).finish().hex()
    }

    /// Close the rep, adding the program and sink clocks this thread
    /// accumulated since [`Rep::new`].
    pub fn finish(mut self) -> (Times, Work) {
        let now = ClockMark::read();
        let at = self.clocks_at;
        self.times.program = (now.program - at.program).as_secs_f64();
        self.times.sink = (now.sink - at.sink).as_secs_f64();
        self.times.verify = (now.verify - at.verify).as_secs_f64();
        self.work.resumes = now.resumes - at.resumes;
        self.work.verify_events = now.verify_events - at.verify_events;
        (self.times, self.work)
    }
}

/// A reading of this thread's program and sink clocks.
#[derive(Debug, Clone, Copy)]
struct ClockMark {
    program: Duration,
    sink: Duration,
    verify: Duration,
    resumes: u64,
    verify_events: u64,
}

impl ClockMark {
    fn read() -> Self {
        CLOCKS.with(|c| Self {
            program: c.program.get(),
            sink: c.sink.get(),
            verify: c.verify.get(),
            resumes: c.resumes.get(),
            verify_events: c.verify_events.get(),
        })
    }
}
