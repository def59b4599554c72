//! Seeded-bug validation of the `ksr-verify` passes: the coherence
//! checker must catch deliberately broken protocol variants
//! ([`ProtocolFault`]), and the race detector must catch the
//! deliberately racy IS variant — while the correct protocol and the
//! properly locked kernels check clean.

use std::sync::{Arc, Mutex};

use ksr1_repro::core::trace::Tracer;
use ksr1_repro::machine::Machine;
use ksr1_repro::mem::{
    CacheTiming, MemGeometry, MemOp, MemorySystem, ProtocolFault, ProtocolOptions,
};
use ksr1_repro::nas::{IsConfig, IsSetup};
use ksr1_repro::net::Topology;
use ksr1_repro::verify::{CheckingSink, CollectingSink, RaceDetector, RaceReport, Rule, Violation};

/// A four-cell memory system with an optional seeded protocol bug, its
/// event stream shadowed by a [`CheckingSink`].
fn checked_mem(fault: Option<ProtocolFault>) -> (MemorySystem, Arc<Mutex<CheckingSink>>) {
    let mut mem = MemorySystem::with_options(
        MemGeometry::scaled(64),
        CacheTiming::ksr1(),
        Topology::ksr1_32().build(4).unwrap(),
        4,
        7,
        ProtocolOptions {
            fault,
            ..ProtocolOptions::default()
        },
    )
    .unwrap();
    let (tracer, sink) = Tracer::attach(CheckingSink::default());
    mem.set_tracer(tracer);
    (mem, sink)
}

fn violations(sink: &Arc<Mutex<CheckingSink>>) -> Vec<Violation> {
    sink.lock().unwrap().violations().to_vec()
}

#[test]
fn correct_protocol_checks_clean() {
    let (mut mem, sink) = checked_mem(None);
    let _ = mem.access(1, 128, MemOp::Write, 100).done_at();
    let _ = mem.access(0, 128, MemOp::Write, 5_000).done_at();
    let _ = mem.access(2, 128, MemOp::Read, 10_000).done_at();
    let _ = mem.access(3, 128, MemOp::Read, 15_000).done_at();
    let s = sink.lock().unwrap();
    assert!(s.is_clean(), "{:?}", s.violations());
    assert!(s.events_seen() > 0);
}

/// The mutant that skips invalidations lets two writable copies of one
/// sub-page coexist — the checker must report it, cycle-stamped.
#[test]
fn checker_catches_missed_invalidation() {
    let (mut mem, sink) = checked_mem(Some(ProtocolFault::MissedInvalidation));
    let _ = mem.access(1, 128, MemOp::Write, 100).done_at();
    // Cell 0 writes the same sub-page; the buggy fetch leaves cell 1's
    // Exclusive copy valid.
    let _ = mem.access(0, 128, MemOp::Write, 5_000).done_at();
    let vs = violations(&sink);
    let hit = vs
        .iter()
        .find(|v| v.rule == Rule::MultipleWriters)
        .unwrap_or_else(|| panic!("two Exclusive copies not flagged: {vs:?}"));
    assert!(hit.at > 0, "violation must carry the offending cycle");
    assert_eq!(hit.subpage, 1);
    assert!(!hit.window.is_empty(), "violation must replay its window");
}

/// The mutant that skips the owner demotion leaves a `Shared` copy
/// beside an `Exclusive` one.
#[test]
fn checker_catches_missed_demotion() {
    let (mut mem, sink) = checked_mem(Some(ProtocolFault::MissedDemotion));
    let _ = mem.access(0, 128, MemOp::Write, 100).done_at();
    // Cell 1 reads: the buggy fetch grants Shared without demoting the
    // Exclusive owner.
    let _ = mem.access(1, 128, MemOp::Read, 5_000).done_at();
    let vs = violations(&sink);
    let hit = vs
        .iter()
        .find(|v| v.rule == Rule::SharedWithWriter)
        .unwrap_or_else(|| panic!("Shared-beside-Exclusive not flagged: {vs:?}"));
    assert!(hit.at > 0);
    assert_eq!(hit.subpage, 1);
}

/// Run the IS kernel (locked or racy phase 6) under a collecting tracer
/// and hand the access stream to the race detector.
fn is_race_reports(racy: bool) -> Vec<RaceReport> {
    let procs = 4;
    let mut m = Machine::ksr1_scaled(11, 64).expect("machine");
    let (tracer, sink) = Tracer::attach(CollectingSink::new());
    m.set_tracer(tracer);
    let cfg = IsConfig {
        keys: 1 << 12,
        max_key: 256,
        seed: 424_242,
        chunk: 64,
    };
    let setup = IsSetup::new(&mut m, cfg, procs).expect("IS setup");
    m.run(if racy {
        setup.programs_racy_phase6()
    } else {
        setup.programs()
    })
    .expect("run");
    let events = sink.lock().unwrap().take();
    assert!(!events.is_empty(), "IS run must produce trace events");
    RaceDetector::new(procs).analyze(&events)
}

#[test]
fn locked_is_kernel_is_race_free() {
    let reports = is_race_reports(false);
    assert!(reports.is_empty(), "locked IS reported races: {reports:?}");
}

#[test]
fn racy_is_variant_is_caught() {
    let reports = is_race_reports(true);
    assert!(!reports.is_empty(), "the seeded phase-6 race was missed");
    // At least one report must be a genuine cross-processor conflict
    // involving a write, stamped with both access cycles.
    let hit = reports
        .iter()
        .find(|r| r.first.cell != r.second.cell && (r.first.write || r.second.write))
        .unwrap_or_else(|| panic!("no cross-cell write conflict in {reports:?}"));
    assert!(hit.second.at >= hit.first.at, "reports are cycle-ordered");
}

/// The whole-machine hookup: every coherence event of a real multi-cell
/// run flows through the checking sink, and the correct protocol is
/// clean end to end.
#[test]
fn full_is_run_checks_coherence_clean() {
    let mut m = Machine::ksr1_scaled(13, 64).expect("machine");
    let (tracer, sink) = Tracer::attach(CheckingSink::default());
    m.set_tracer(tracer);
    let cfg = IsConfig {
        keys: 1 << 12,
        max_key: 256,
        seed: 99,
        chunk: 64,
    };
    let setup = IsSetup::new(&mut m, cfg, 4).expect("IS setup");
    m.run(setup.programs()).expect("run");
    let s = sink.lock().unwrap();
    assert!(s.is_clean(), "{:?}", s.violations());
    assert!(
        s.events_seen() > 1_000,
        "checker saw {} events",
        s.events_seen()
    );
}

/// Concurrent machine construction with scoped observers: two threads
/// each install their own checking observer and build their own
/// machine; each scope must capture exactly its own machine's trace
/// (the old process-global observer hook would have cross-wired them).
#[test]
fn concurrent_machines_get_their_own_checking_sinks() {
    use ksr1_repro::machine::{program, MachineObserver, ObserverScope};

    let worker = |seed: u64| {
        let sinks: Arc<Mutex<Vec<Arc<Mutex<CheckingSink>>>>> = Arc::default();
        let registry = Arc::clone(&sinks);
        let observer: Arc<MachineObserver> = Arc::new(move |m: &mut Machine| {
            let (tracer, sink) = Tracer::attach(CheckingSink::default());
            m.set_tracer(tracer);
            registry.lock().unwrap().push(sink);
        });
        let _scope = ObserverScope::install(observer);
        let mut m = Machine::ksr1(seed).expect("machine");
        let a = m.alloc(1024, 128).expect("alloc");
        m.run(vec![program(move |mut cpu| async move {
            cpu.write_u64(a, seed).await;
            let _ = cpu.read_u64(a).await;
        })])
        .expect("run");
        let sinks = sinks.lock().unwrap();
        assert_eq!(
            sinks.len(),
            1,
            "a thread's scope must see exactly the machines built on that thread"
        );
        let s = sinks[0].lock().unwrap();
        assert!(s.is_clean(), "{:?}", s.violations());
        s.events_seen()
    };

    std::thread::scope(|sc| {
        let h1 = sc.spawn(|| worker(11));
        let h2 = sc.spawn(|| worker(12));
        assert!(h1.join().unwrap() > 0, "thread 1 saw no coherence events");
        assert!(h2.join().unwrap() > 0, "thread 2 saw no coherence events");
    });
}
