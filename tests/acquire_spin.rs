//! `Cpu::acquire_sub_page` is fast-forwarded: the coordinator retries a
//! rejected `get_sub_page` itself and resumes the program only on
//! success. That must be invisible. The same contended program, once
//! with `acquire_sub_page` and once with the explicit program-side loop
//! `while !cpu.get_sub_page(a).await {}`, must give identical reports,
//! counters, trace events and schedule choice points.

use ksr_core::time::Cycles;
use ksr_core::trace::{TraceEvent, Tracer};
use ksr_machine::{
    program, Cpu, InterruptConfig, Machine, MachineConfig, Program, ReplayOracle, ScheduleTrace,
};
use ksr_mem::PerfMon;
use ksr_net::{FabricStats, Topology};
use ksr_verify::CollectingSink;

const ITERS: u64 = 6;

#[derive(Debug, Clone, Copy)]
enum Spin {
    /// `Cpu::acquire_sub_page`: one access, retried by the coordinator.
    Coordinator,
    /// The loop the coordinator's retry stands in for.
    ProgramLoop,
}

async fn acquire(cpu: &mut Cpu, addr: u64, spin: Spin) {
    match spin {
        Spin::Coordinator => cpu.acquire_sub_page(addr).await,
        Spin::ProgramLoop => while !cpu.get_sub_page(addr).await {},
    }
}

struct Outcome {
    started_at: Cycles,
    finished_at: Cycles,
    proc_end: Vec<Cycles>,
    perfmon: PerfMon,
    fabric: FabricStats,
    combined: u64,
    counter: u64,
    events: Vec<TraceEvent>,
    schedule: Option<ScheduleTrace>,
}

/// Every processor takes the lock `ITERS` times and bumps a counter on
/// its sub-page. Compute lands right after each acquire, so a timer tick
/// that fell inside the spin would be charged there if the final reply
/// did not skip it. The last processor also reads the lock's word, which
/// parks it whenever the lock is held.
fn run(cfg: MachineConfig, procs: usize, spin: Spin, oracle: bool) -> Outcome {
    let mut m = Machine::new(cfg).expect("machine");
    let (tracer, sink) = Tracer::attach(CollectingSink::new());
    m.set_tracer(tracer);
    let schedule = oracle.then(|| {
        let prefix = (0..96).map(|i| i * 7 % 5).collect();
        let (o, trace) = ReplayOracle::with_trace(prefix);
        m.set_schedule_oracle(Box::new(o));
        trace
    });
    let lock = m.alloc_subpage(8).expect("alloc");
    let counter = lock + 8;
    let programs: Vec<Box<dyn Program>> = (0..procs)
        .map(|p| {
            program(move |mut cpu| async move {
                for i in 0..ITERS {
                    cpu.compute((p as u64 * 37 + i * 11) % 53);
                    acquire(&mut cpu, lock, spin).await;
                    cpu.compute(150);
                    let v = cpu.read_u64(counter).await;
                    cpu.write_u64(counter, v + 1).await;
                    cpu.release_sub_page(lock).await;
                    if p + 1 == procs {
                        cpu.read_u64(lock).await;
                    }
                }
            })
        })
        .collect();
    let r = m.run(programs).expect("run");
    let events = sink.lock().expect("sink").take();
    Outcome {
        started_at: r.started_at,
        finished_at: r.finished_at,
        proc_end: r.proc_end,
        perfmon: m.perfmon_total(),
        fabric: m.fabric_stats(),
        combined: m.combined_packets(),
        counter: m.peek_u64(counter).expect("counter"),
        events,
        schedule: schedule.map(|t| t.lock().expect("trace").clone()),
    }
}

fn machines() -> Vec<(&'static str, MachineConfig, usize)> {
    let ksr1 = MachineConfig::ksr1(3).with_interrupts(InterruptConfig {
        quantum_cycles: 2_000,
        duration_cycles: 150,
    });
    let mut tree = MachineConfig::ksr_ring(5, &[4, 2]);
    let Topology::Ring(ring) = &mut tree.topology else {
        unreachable!("ksr_ring builds a ring topology");
    };
    ring.combining = true;
    vec![
        ("ksr1 with interrupts", ksr1, 12),
        ("ring[4x2]+combining", tree, 8),
        ("butterfly", MachineConfig::butterfly(8, 7), 8),
    ]
}

#[test]
fn coordinator_spin_matches_the_program_loop() {
    for (name, cfg, procs) in machines() {
        for oracle in [false, true] {
            let loop_run = run(cfg.clone(), procs, Spin::ProgramLoop, oracle);
            let fast = run(cfg.clone(), procs, Spin::Coordinator, oracle);
            assert_eq!(loop_run.counter, procs as u64 * ITERS, "{name}");
            assert!(
                loop_run.perfmon.atomic_rejections > procs as u64,
                "{name}: the lock must be contended"
            );
            if let Some(s) = &loop_run.schedule {
                assert!(s.decisions.iter().any(|&d| d > 0), "{name}: no tie flipped");
            }
            assert_same(&format!("{name}, oracle {oracle}"), &fast, &loop_run);
        }
    }
}

/// Field by field, so a failure names the first thing that moved.
fn assert_same(what: &str, fast: &Outcome, slow: &Outcome) {
    assert_eq!(
        (fast.started_at, fast.finished_at, &fast.proc_end),
        (slow.started_at, slow.finished_at, &slow.proc_end),
        "{what}: run report"
    );
    assert_eq!(fast.perfmon, slow.perfmon, "{what}: perfmon totals");
    assert_eq!(fast.fabric, slow.fabric, "{what}: fabric stats");
    assert_eq!(fast.combined, slow.combined, "{what}: combined packets");
    assert_eq!(fast.counter, slow.counter, "{what}: counter");
    if let Some(i) = (fast.events.iter().zip(&slow.events)).position(|(a, b)| a != b) {
        panic!(
            "{what}: trace event {i} differs: {:?} against {:?}",
            fast.events[i], slow.events[i]
        );
    }
    assert_eq!(fast.events.len(), slow.events.len(), "{what}: event count");
    assert_eq!(
        fast.schedule, slow.schedule,
        "{what}: schedule choice points"
    );
}

#[test]
fn combining_and_interrupts_are_exercised() {
    let machines = machines();
    let (_, tree, procs) = &machines[1];
    let r = run(tree.clone(), *procs, Spin::Coordinator, false);
    assert!(r.combined > 0, "the ARD must merge some acquires");
    let (_, ksr1, procs) = &machines[0];
    let mut quiet = ksr1.clone();
    quiet.interrupts = None;
    assert_ne!(
        run(ksr1.clone(), *procs, Spin::Coordinator, false).proc_end,
        run(quiet, *procs, Spin::Coordinator, false).proc_end,
        "timer ticks must land in the run"
    );
}
