//! The trace buffer's delivery contract, seen from a sink: with no
//! explicit flush, a sink holds every event of a run when
//! `Machine::run` returns or unwinds, and every event of a warm-up when
//! `Machine::warm` returns; a bare memory system delivers on
//! `flush_trace` and on drop. "Every event" is checked by dropping the
//! machine afterwards: the drop delivers whatever was still buffered,
//! so the sink must not grow. Runs and warm-ups of several buffers keep
//! that contract, nothing but the tracer holds the sink when they
//! return, and a sink that panics on a later batch fails the run that
//! fed it.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex};

use ksr_core::trace::{CountingSink, TraceEvent, TraceKind, TraceSink, Tracer};
use ksr_machine::{program, Machine, Program};
use ksr_mem::{CacheTiming, MemGeometry, MemOp, MemorySystem};
use ksr_net::Topology;

/// A counting sink that also counts the batches it is handed.
#[derive(Default)]
struct Tally {
    kinds: CountingSink,
    batches: usize,
}

impl TraceSink for Tally {
    fn record(&mut self, event: &TraceEvent) {
        self.record_batch(std::slice::from_ref(event));
    }

    fn record_batch(&mut self, events: &[TraceEvent]) {
        self.kinds.record_batch(events);
        self.batches += 1;
    }
}

fn traced_machine() -> (Machine, Arc<Mutex<Tally>>) {
    let mut m = Machine::ksr1(21).expect("machine");
    let (tracer, sink) = Tracer::attach(Tally::default());
    m.set_tracer(tracer);
    (m, sink)
}

fn totals(sink: &Arc<Mutex<Tally>>) -> (u64, usize) {
    let s = sink.lock().expect("tally");
    (s.kinds.total(), s.batches)
}

/// Four processors bump a shared word; the first stamps a barrier
/// episode of its own after its last access and then, when `fail` is
/// set, panics in that same step.
fn programs(a: u64, fail: bool) -> Vec<Box<dyn Program>> {
    (0..4)
        .map(|p| {
            program(move |mut cpu| async move {
                for _ in 0..5 {
                    let v = cpu.read_u64(a).await;
                    cpu.write_u64(a, v + 1).await;
                }
                if p == 0 {
                    cpu.trace_barrier_episode(1);
                    assert!(!fail, "simulated program failure");
                }
            })
        })
        .collect()
}

/// Four processors bump one shared word `rounds` times each; every bump
/// moves the word between cells, so 200 rounds fill several buffers.
fn bumps(a: u64, rounds: usize) -> Vec<Box<dyn Program>> {
    (0..4)
        .map(|_| {
            program(move |mut cpu| async move {
                for _ in 0..rounds {
                    let v = cpu.read_u64(a).await;
                    cpu.write_u64(a, v + 1).await;
                }
            })
        })
        .collect()
}

#[test]
fn run_delivers_every_event_before_it_returns() {
    let (mut m, sink) = traced_machine();
    let a = m.alloc_subpage(8).expect("alloc");
    m.run(programs(a, false)).expect("run");
    let (events, batches) = totals(&sink);
    assert!(events > 0);
    assert_eq!(batches, 1, "one delivery, at the end of the run");
    assert_eq!(
        sink.lock().unwrap().kinds.count(TraceKind::BarrierEpisode),
        1
    );
    drop(m);
    assert_eq!(totals(&sink), (events, batches), "nothing was left behind");
}

#[test]
fn run_delivers_every_event_when_a_program_panics() {
    let (mut m, sink) = traced_machine();
    let a = m.alloc_subpage(8).expect("alloc");
    let caught = catch_unwind(AssertUnwindSafe(|| m.run(programs(a, true))));
    let payload = caught.expect_err("the program's panic propagates");
    let message = payload.downcast_ref::<&str>().copied().unwrap_or_default();
    assert_eq!(message, "simulated program failure");
    let (events, batches) = totals(&sink);
    assert!(events > 0);
    assert_eq!(batches, 1, "one delivery, as the run unwound");
    assert_eq!(
        sink.lock().unwrap().kinds.count(TraceKind::BarrierEpisode),
        1,
        "the episode stamped in the step that panicked"
    );
    drop(m);
    assert_eq!(totals(&sink), (events, batches), "nothing was left behind");
}

#[test]
fn warm_delivers_every_event_before_it_returns() {
    let (mut m, sink) = traced_machine();
    let a = m.alloc(64 * 1024, 16 * 1024).expect("alloc");
    m.warm(2, a, 64 * 1024);
    let (events, batches) = totals(&sink);
    assert_eq!(events, 512, "one transition per sub-page of four pages");
    assert_eq!(batches, 1);
    drop(m);
    assert_eq!(totals(&sink), (events, batches), "nothing was left behind");
}

#[test]
fn bare_memory_system_delivers_on_flush_and_on_drop() {
    let mut mem = MemorySystem::new(
        MemGeometry::scaled(64),
        CacheTiming::ksr1(),
        Topology::ksr1_32().build(4).unwrap(),
        4,
        3,
    )
    .unwrap();
    let (tracer, sink) = Tracer::attach(Tally::default());
    mem.set_tracer(tracer);
    mem.access(1, 128, MemOp::Write, 100);
    mem.access(0, 128, MemOp::Read, 5_000);
    assert_eq!(totals(&sink), (0, 0), "buffered until a flush");
    mem.flush_trace();
    let (flushed, _) = totals(&sink);
    assert!(flushed > 0);
    assert_eq!(totals(&sink).1, 1);
    mem.flush_trace();
    assert_eq!(totals(&sink).1, 1, "an empty buffer delivers nothing");
    mem.access(2, 128, MemOp::Write, 10_000);
    drop(mem);
    let (all, batches) = totals(&sink);
    assert!(all > flushed, "the drop delivered the write's events");
    assert_eq!(batches, 2);
}

/// A clone of a memory system shares the sink and starts with an empty
/// buffer: the original's pending events reach the sink once.
#[test]
fn memory_system_clone_never_delivers_twice() {
    let mut mem = MemorySystem::new(
        MemGeometry::scaled(64),
        CacheTiming::ksr1(),
        Topology::bus().build(2).unwrap(),
        2,
        3,
    )
    .unwrap();
    let (tracer, sink) = Tracer::attach(Tally::default());
    mem.set_tracer(tracer);
    mem.access(0, 128, MemOp::Write, 100);
    let mut copy = mem.clone();
    mem.flush_trace();
    let (original, _) = totals(&sink);
    assert!(original > 0);
    copy.flush_trace();
    assert_eq!(totals(&sink).0, original, "the copy had nothing pending");
    copy.access(1, 128, MemOp::Read, 5_000);
    drop(copy);
    assert!(totals(&sink).0 > original, "the copy's own events arrive");
}

/// A run, a warm-up and a bare memory system's flush that each fill
/// several buffers leave no handle to the sink behind but the tracer's
/// and the reader's.
#[test]
fn only_the_tracer_holds_the_sink_after_a_run_a_warm_up_or_a_flush() {
    let (mut m, sink) = traced_machine();
    let held = Arc::strong_count(&sink);
    let a = m.alloc_subpage(8).expect("alloc");
    m.run(bumps(a, 400)).expect("run");
    assert_eq!(Arc::strong_count(&sink), held, "after run");
    let (events, _) = totals(&sink);
    assert!(events > 3 * Tracer::BATCH as u64, "{events} events");

    let range = 80 * 16 * 1024;
    let b = m.alloc(range, 16 * 1024).expect("alloc");
    m.warm(3, b, range);
    assert_eq!(Arc::strong_count(&sink), held, "after warm");

    let mut mem = MemorySystem::new(
        MemGeometry::scaled(64),
        CacheTiming::ksr1(),
        Topology::ksr1_32().build(4).unwrap(),
        4,
        3,
    )
    .unwrap();
    let (tracer, sink) = Tracer::attach(Tally::default());
    let held = Arc::strong_count(&sink);
    mem.set_tracer(tracer);
    for i in 0..4_000u64 {
        mem.access((i % 4) as usize, 128, MemOp::Write, 100 + i * 1_000);
    }
    mem.flush_trace();
    assert_eq!(Arc::strong_count(&sink), held, "after flush_trace");
    let (events, batches) = totals(&sink);
    assert!(batches > 2, "{events} events in {batches} batches");
}

/// A warm-up of 80 pages, 10,240 sub-pages, hands the sink two full
/// buffers and the rest, all before `warm` returns.
#[test]
fn warm_delivers_every_event_of_several_buffers() {
    let (mut m, sink) = traced_machine();
    let range = 80 * 16 * 1024;
    let a = m.alloc(range, 16 * 1024).expect("alloc");
    m.warm(2, a, range);
    let (events, batches) = totals(&sink);
    assert_eq!(events, 80 * 128, "one transition per sub-page");
    assert_eq!(batches, 3);
    drop(m);
    assert_eq!(totals(&sink), (events, batches), "nothing was left behind");
}

/// A sink that panics on its second batch, handed over mid-run, fails
/// the run with its own payload and is left poisoned.
#[test]
fn a_sink_panic_on_a_later_batch_fails_the_run() {
    #[derive(Default)]
    struct FailsSecond {
        batches: usize,
    }
    impl TraceSink for FailsSecond {
        fn record(&mut self, _event: &TraceEvent) {
            unreachable!("the tracer delivers through record_batch");
        }
        fn record_batch(&mut self, _events: &[TraceEvent]) {
            self.batches += 1;
            assert!(self.batches < 2, "sink failure on the second batch");
        }
    }
    let mut m = Machine::ksr1(21).expect("machine");
    let (tracer, sink) = Tracer::attach(FailsSecond::default());
    m.set_tracer(tracer);
    let a = m.alloc_subpage(8).expect("alloc");
    let caught = catch_unwind(AssertUnwindSafe(|| m.run(bumps(a, 200))));
    let payload = caught.expect_err("the sink's panic fails the run");
    let message = payload.downcast_ref::<&str>().copied().unwrap_or_default();
    assert_eq!(message, "sink failure on the second batch");
    assert!(sink.lock().is_err(), "the sink is poisoned");
    drop(m);
}
