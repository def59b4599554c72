//! Tracing must be observational: attaching a sink may not perturb one
//! cycle of the simulation, and the machine must report identical
//! virtual-time results with tracing on or off.

use ksr_core::trace::{TraceKind, Tracer};
use ksr_machine::{program, read_stream, Machine, PerfSnapshot, Program};
use ksr_sync::{AnyBarrier, BarrierAlg, BarrierKind, Episode};

const PROCS: usize = 8;
const ROUNDS: usize = 4;

struct RunOutcome {
    duration_cycles: u64,
    perfmon: ksr_mem::PerfMon,
    fabric: ksr_net::FabricStats,
    snapshot: PerfSnapshot,
}

/// A workload touching every traced subsystem: ring transactions,
/// coherence transitions, the synthesized fetch-add (atomic sub-page
/// acquisition, hence rejections under contention), barrier episodes,
/// and coordinator wake-ups.
fn run_workload(tracer: Option<Tracer>) -> RunOutcome {
    let mut m = Machine::ksr1(42).expect("machine");
    if let Some(t) = tracer {
        m.set_tracer(t);
    }
    let counter = m.alloc(128, 128).expect("alloc");
    let b = AnyBarrier::alloc(BarrierKind::Mcs, &mut m, PROCS).expect("barrier");
    let programs: Vec<Box<dyn Program>> = (0..PROCS)
        .map(|p| {
            program(move |mut cpu| async move {
                let mut ep = Episode::default();
                for round in 0..ROUNDS {
                    cpu.compute(((p * 61 + round * 17) % 97) as u64 + 5);
                    cpu.fetch_add(counter, 1).await;
                    b.wait(&mut cpu, &mut ep).await;
                }
            })
        })
        .collect();
    let r = m.run(programs).expect("run");
    RunOutcome {
        duration_cycles: r.duration_cycles(),
        perfmon: m.perfmon_total(),
        fabric: m.fabric_stats(),
        snapshot: m.perfmon_snapshot(),
    }
}

#[test]
fn tracing_does_not_change_the_simulation() {
    let off = run_workload(None);
    let (tracer, counts) = Tracer::counting();
    let on = run_workload(Some(tracer));

    assert_eq!(
        off.duration_cycles, on.duration_cycles,
        "attaching a tracer changed the run's virtual time"
    );
    assert_eq!(
        off.perfmon, on.perfmon,
        "tracing perturbed the hardware counters"
    );
    assert_eq!(
        off.fabric, on.fabric,
        "tracing perturbed the fabric counters"
    );
    assert_eq!(off.snapshot.at, on.snapshot.at);
    assert_eq!(off.snapshot.per_cell, on.snapshot.per_cell);

    // And the tracer did observe the run: ring slots for every fabric
    // transaction, coherence transitions, and one barrier-episode event
    // per processor per round.
    let counts = counts.lock().expect("sink");
    assert!(
        counts.count(TraceKind::RingSlot) > 0,
        "no ring events recorded"
    );
    assert!(
        counts.count(TraceKind::Coherence) > 0,
        "no coherence events recorded"
    );
    assert_eq!(
        counts.count(TraceKind::BarrierEpisode),
        (PROCS * ROUNDS) as u64,
        "one barrier event per processor per episode"
    );
    assert!(counts.total() > counts.count(TraceKind::BarrierEpisode));
}

#[test]
fn checking_sink_does_not_change_the_simulation() {
    let off = run_workload(None);
    let (tracer, sink) = Tracer::attach(ksr1_repro::verify::CheckingSink::default());
    let on = run_workload(Some(tracer));

    assert_eq!(
        off.duration_cycles, on.duration_cycles,
        "attaching the coherence checker changed the run's virtual time"
    );
    assert_eq!(off.perfmon, on.perfmon);
    assert_eq!(off.fabric, on.fabric);
    assert_eq!(off.snapshot.per_cell, on.snapshot.per_cell);

    // The checker observed the whole run and the real protocol is clean.
    let s = sink.lock().expect("sink");
    assert!(s.events_seen() > 0, "checker saw no events");
    assert!(s.is_clean(), "real protocol flagged: {:?}", s.violations());
}

#[test]
fn snapshot_deltas_attribute_phases() {
    let mut m = Machine::ksr1(7).expect("machine");
    let before = m.perfmon_snapshot();
    // Home the array on another cell so processor 0's reads must cross
    // the ring.
    read_stream(&mut m, 1, 64 * 1024, 256, |_| 1).expect("run");
    let after = m.perfmon_snapshot();
    let d = after.delta_since(&before);
    assert!(after.cycles_since(&before) > 0);
    assert!(
        d.total.ring_transactions > 0,
        "cold reads must cross the ring"
    );
    // The delta is attributable: re-deriving it from the raw snapshots
    // gives the same totals.
    assert_eq!(
        d.total.ring_transactions,
        after.total.ring_transactions - before.total.ring_transactions
    );
}
