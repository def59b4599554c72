//! The full ordered event stream of traced runs, pinned to committed
//! digests. Each run below reaches a different set of emitters (ring,
//! bus and switch slot grants, the coherence engine, the coordinator,
//! the processors' barrier episodes, warm-up); every field of every
//! event, in arrival order, feeds one fingerprint. A change to how
//! events are buffered or delivered must leave every digest unchanged.
//! A change that alters the stream on purpose replaces [`PINNED`] with
//! the lines the failing tests print, and says why.
//!
//! The digests were taken when every event reached its sink on its own,
//! so the same digests from batched delivery prove that batching loses,
//! repeats and reorders nothing, across several full buffers
//! (`long_hot_spot_on_two_levels`), across flush points
//! (`multi_page_warm`), and where a processor's barrier episode, handed
//! over after its step, meets wake-ups in the same coordinator
//! iteration (`flag_handoff_orders_episodes_before_wakes`).
//!
//! `ticket_lock_32`'s digest was taken while the coordinator still pushed
//! every woken processor into the heap on its own and the protocol swept
//! a snapshot of each holder list, so it proves that wake fan-outs queued
//! as sorted runs and sweeps made in place reorder nothing, on wake
//! batches and holder lists longer than 16.
//!
//! `poststore_wake`'s digest was taken while the memory system still
//! reported sub-page changes through an event queue of its own, so it
//! proves that wake-ups read from the access's outcome land where that
//! queue put them, a poststore's at its broadcast's arrival.

use std::cell::Cell;
use std::rc::Rc;
use std::sync::{Arc, Mutex};

use ksr_core::trace::{TraceEvent, TraceKind, TraceSink, TraceState, Tracer};
use ksr_core::FingerprintBuilder;
use ksr_machine::{program, Machine, MachineConfig, Program};
use ksr_net::{RingHierarchyConfig, Topology};
use ksr_sync::{AnyBarrier, BarrierAlg, BarrierKind, Episode, LockMode, SwRwLock};
use ksr_verify::CollectingSink;

/// `(run, events, digest of the ordered stream)`.
const PINNED: &[(&str, usize, &str)] = &[
    ("hot_spot_4x2", 471, "56150f717fb528b23f8abed3594c4604"),
    ("mcs_barrier", 1498, "fbd44d71766a6f96962a16e0dc0fe2ad"),
    ("ticket_lock", 1716, "368ebbc49c61d661f32af0c3f8477d3c"),
    ("warm_pages", 1536, "69746fcb2ab3d5f365d4f68ed370e9b4"),
    ("symmetry_bus", 163, "4567b7ada375a8f8634bec88b20f8b79"),
    ("butterfly", 60, "f05d2e16a444f71cd487b36b4512a87a"),
    ("long_hot_spot", 21158, "6a2952d8623a20f931d7756b84af809a"),
    ("flag_handoff", 113, "b20bb09c5d93af31ddef00461c2ce150"),
    ("ticket_lock_32", 28253, "5454a4be332a0670f551573e9a804f03"),
    ("poststore_wake", 30, "55afdaa25787fd43ef4a140de201f194"),
];

fn state_code(s: TraceState) -> u64 {
    match s {
        TraceState::Missing => 0,
        TraceState::Invalid => 1,
        TraceState::Shared => 2,
        TraceState::Exclusive => 3,
        TraceState::Atomic => 4,
    }
}

/// Every field of one event as five words: a kind code, the cycle
/// stamp, then the variant's own fields.
fn encode(e: &TraceEvent) -> [u64; 5] {
    match *e {
        TraceEvent::RingSlot { at, wait, blocked } => [0, at, wait, u64::from(blocked), 0],
        TraceEvent::Coherence {
            at,
            cell,
            subpage,
            from,
            to,
        } => [
            1,
            at,
            cell as u64,
            subpage,
            state_code(from) << 8 | state_code(to),
        ],
        TraceEvent::Snarf { at, cell, subpage } => [2, at, cell as u64, subpage, 0],
        TraceEvent::Invalidation { at, cell, subpage } => [3, at, cell as u64, subpage, 0],
        TraceEvent::AtomicRejection { at, cell, subpage } => [4, at, cell as u64, subpage, 0],
        TraceEvent::BarrierEpisode { at, cell, episode } => [5, at, cell as u64, episode, 0],
        TraceEvent::LockHandoff { at, cell, subpage } => [6, at, cell as u64, subpage, 0],
        TraceEvent::DataRead { at, cell, addr } => [7, at, cell as u64, addr, 0],
        TraceEvent::DataWrite { at, cell, addr } => [8, at, cell as u64, addr, 0],
        TraceEvent::SpinRead { at, cell, addr } => [9, at, cell as u64, addr, 0],
        TraceEvent::SyncAcquire {
            at,
            cell,
            subpage,
            rmw,
        } => [10, at, cell as u64, subpage, u64::from(rmw)],
        TraceEvent::SyncRelease {
            at,
            cell,
            subpage,
            rmw,
        } => [11, at, cell as u64, subpage, u64::from(rmw)],
    }
}

/// Fingerprint `events`, check that every kind in `reaches` occurs, and
/// compare count and digest with the pinned line for `run`.
fn check(run: &str, events: &[TraceEvent], reaches: &[TraceKind]) {
    for kind in reaches {
        assert!(
            events.iter().any(|e| e.kind() == *kind),
            "{run}: no {} event, so the run no longer reaches its emitter",
            kind.label()
        );
    }
    let mut fp = FingerprintBuilder::new();
    for e in events {
        for word in encode(e) {
            fp.update(&word.to_le_bytes());
        }
    }
    let digest = fp.finish().hex();
    let line = format!("(\"{run}\", {}, \"{digest}\"),", events.len());
    let pinned = PINNED.iter().find(|(name, _, _)| *name == run);
    assert_eq!(
        pinned.map(|&(_, n, d)| (n, d)),
        Some((events.len(), digest.as_str())),
        "{run}: event stream changed; the current line is\n    {line}"
    );
}

/// A [`CollectingSink`] that also logs the size of every batch it is
/// handed.
#[derive(Default)]
struct Recorder {
    events: CollectingSink,
    batches: Vec<usize>,
}

impl TraceSink for Recorder {
    fn record(&mut self, event: &TraceEvent) {
        self.record_batch(std::slice::from_ref(event));
    }

    fn record_batch(&mut self, events: &[TraceEvent]) {
        self.events.record_batch(events);
        self.batches.push(events.len());
    }
}

/// A machine with a recording sink attached from construction on.
fn traced(cfg: MachineConfig) -> (Machine, Arc<Mutex<Recorder>>) {
    let mut m = Machine::new(cfg).expect("machine");
    let (tracer, sink) = Tracer::attach(Recorder::default());
    m.set_tracer(tracer);
    (m, sink)
}

fn take(sink: &Arc<Mutex<Recorder>>) -> Vec<TraceEvent> {
    sink.lock().expect("recorder").events.take()
}

fn batches(sink: &Arc<Mutex<Recorder>>) -> Vec<usize> {
    sink.lock().expect("recorder").batches.clone()
}

/// Every processor fetch-adds one counter and reads it back: the
/// synthesized fetch-add rejects, invalidates and re-acquires, and the
/// reads refill place holders in passing.
fn hot_spot_programs(procs: usize, ops: u64, counter: u64) -> Vec<Box<dyn Program>> {
    (0..procs)
        .map(|p| {
            program(move |mut cpu| async move {
                for i in 0..ops {
                    cpu.compute((p as u64 * 13 + i * 7) % 50 + 5);
                    cpu.fetch_add(counter, 1).await;
                    cpu.read_u64(counter).await;
                }
            })
        })
        .collect()
}

/// Two leaf rings of four under one upper ring, with ARD combining: slot
/// grants on both levels, every coherence emitter, rejections and the
/// data and sync edges.
#[test]
fn hot_spot_on_two_levels_with_combining() {
    let spec = [4, 2];
    let mut ring = RingHierarchyConfig::ring_levels(&spec);
    ring.combining = true;
    let mut cfg = MachineConfig::ksr_ring(3, &spec);
    cfg.topology = Topology::ring(ring);
    let (mut m, sink) = traced(cfg);
    let counter = m.alloc_subpage(8).expect("alloc");
    m.run(hot_spot_programs(8, 4, counter)).expect("run");
    assert_eq!(m.peek_u64(counter).unwrap(), 32);
    assert!(m.combined_packets() > 0, "no request was combined");
    check(
        "hot_spot_4x2",
        &take(&sink),
        &[
            TraceKind::RingSlot,
            TraceKind::Coherence,
            TraceKind::Snarf,
            TraceKind::Invalidation,
            TraceKind::AtomicRejection,
            TraceKind::SyncAcquire,
            TraceKind::SyncRelease,
            TraceKind::DataRead,
            TraceKind::DataWrite,
        ],
    );
}

/// The same machine and hot spot run long enough to emit several
/// thousand events, so the stream spans more than one buffered batch.
#[test]
fn long_hot_spot_on_two_levels() {
    let spec = [4, 2];
    let mut ring = RingHierarchyConfig::ring_levels(&spec);
    ring.combining = true;
    let mut cfg = MachineConfig::ksr_ring(4, &spec);
    cfg.topology = Topology::ring(ring);
    let (mut m, sink) = traced(cfg);
    let counter = m.alloc_subpage(8).expect("alloc");
    m.run(hot_spot_programs(8, 160, counter)).expect("run");
    assert_eq!(m.peek_u64(counter).unwrap(), 8 * 160);
    let events = take(&sink);
    assert!(events.len() > 16_384, "only {} events", events.len());
    // Full buffers as they filled, then the rest when the run returned.
    let full = events.len() / Tracer::BATCH;
    let mut expected = vec![Tracer::BATCH; full];
    expected.push(events.len() % Tracer::BATCH);
    assert_eq!(batches(&sink), expected);
    check("long_hot_spot", &events, &[TraceKind::AtomicRejection]);
}

/// The MCS-barrier workload of `trace_determinism.rs`: barrier episodes
/// stamped by the processors themselves, between accesses.
#[test]
fn mcs_barrier_episodes() {
    const PROCS: usize = 8;
    const ROUNDS: usize = 4;
    let (mut m, sink) = traced(MachineConfig::ksr1(42));
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
    m.run(programs).expect("run");
    let events = take(&sink);
    let episodes = events
        .iter()
        .filter(|e| e.kind() == TraceKind::BarrierEpisode)
        .count();
    assert_eq!(episodes, PROCS * ROUNDS);
    check(
        "mcs_barrier",
        &events,
        &[TraceKind::BarrierEpisode, TraceKind::LockHandoff],
    );
}

/// A processor writes a flag two others are parked on and stamps a
/// barrier episode in the step that follows the write, so the same
/// coordinator iteration emits the write, the episode and the two
/// wake-ups. The episode must come right after the write, before the
/// wake-ups, as it did when a processor emitted its episode itself.
#[test]
fn flag_handoff_orders_episodes_before_wakes() {
    let (mut m, sink) = traced(MachineConfig::ksr1(6));
    let flag = m.alloc_subpage(8).expect("alloc");
    let out = m.alloc_subpage(64).expect("alloc");
    let programs: Vec<Box<dyn Program>> = (0..3)
        .map(|p| {
            program(move |mut cpu| async move {
                for round in 1..=3 {
                    if p == 0 {
                        cpu.compute(400);
                        cpu.write_u64(flag, round).await;
                    } else {
                        cpu.spin_until(flag, move |v| v >= round).await;
                    }
                    cpu.trace_barrier_episode(round);
                    cpu.write_u64(out + 8 * p as u64, round).await;
                }
            })
        })
        .collect();
    m.run(programs).expect("run");
    let events = take(&sink);
    for (i, e) in events.iter().enumerate() {
        if let TraceEvent::BarrierEpisode { cell: 0, at, .. } = *e {
            assert_eq!(
                events[i - 1],
                TraceEvent::DataWrite {
                    at,
                    cell: 0,
                    addr: flag
                }
            );
            assert_eq!(events[i + 1].kind(), TraceKind::LockHandoff);
        }
    }
    check(
        "flag_handoff",
        &events,
        &[TraceKind::BarrierEpisode, TraceKind::LockHandoff],
    );
}

/// A holder writes `1` to a flag a spinner waits to see `2` on, takes the
/// flag back with an exclusive prefetch, poststores it, and writes `2`.
/// The spinner wakes three times: at each write's completion and, in
/// between, when the poststore's broadcast refills its place holder.
/// That broadcast arrives after the poststore has completed at the
/// holder, which stalls only until the packet launches.
#[test]
fn poststore_wakes_at_the_broadcast() {
    let (mut m, sink) = traced(MachineConfig::ksr1(7));
    let flag = m.alloc_subpage(8).expect("alloc");
    let posted = Rc::new(Cell::new(0));
    let posted_at = Rc::clone(&posted);
    let holder = program(move |mut cpu| async move {
        cpu.compute(2_000);
        cpu.write_u64(flag, 1).await;
        cpu.compute(2_000);
        cpu.prefetch(flag, true).await;
        cpu.compute(2_000);
        cpu.poststore(flag).await;
        posted_at.set(cpu.now());
        cpu.compute(2_000);
        cpu.write_u64(flag, 2).await;
    });
    let spinner = program(move |mut cpu| async move {
        cpu.spin_until_eq(flag, 2).await;
    });
    m.run(vec![holder, spinner]).expect("run");
    let events = take(&sink);
    let wakes: Vec<u64> = events
        .iter()
        .filter(|e| e.kind() == TraceKind::LockHandoff)
        .map(TraceEvent::at)
        .collect();
    // The spinner's place holder refills three times: by its own
    // re-reads after the two writes, and by the broadcast in between.
    let refills: Vec<u64> = events
        .iter()
        .filter_map(|e| match *e {
            TraceEvent::Coherence {
                at,
                cell: 1,
                from: TraceState::Invalid,
                to: TraceState::Shared,
                ..
            } => Some(at),
            _ => None,
        })
        .collect();
    assert_eq!(refills, [2_472, 6_443, 8_689]);
    assert_eq!(wakes, [2_297, refills[1], 8_514]);
    assert_eq!(posted.get(), 6_331, "the holder's poststore completed");
    check(
        "poststore_wake",
        &events,
        &[TraceKind::LockHandoff, TraceKind::SpinRead],
    );
}

/// The FCFS ticket lock: waiters park on the serving word, are woken by
/// the holder's release and leave on a satisfying spin read.
#[test]
fn ticket_lock_spin() {
    const PROCS: usize = 6;
    let (mut m, sink) = traced(MachineConfig::ksr1(5));
    let shared = m.alloc_subpage(8).expect("alloc");
    let lock = SwRwLock::alloc(&mut m).expect("lock");
    let programs: Vec<Box<dyn Program>> = (0..PROCS)
        .map(|p| {
            program(move |mut cpu| async move {
                for _ in 0..3 {
                    cpu.compute(p as u64 * 17 + 3);
                    let t = lock.acquire(&mut cpu, LockMode::Write).await;
                    let v = cpu.read_u64(shared).await;
                    cpu.compute(200);
                    cpu.write_u64(shared, v + 1).await;
                    lock.release(&mut cpu, t).await;
                }
            })
        })
        .collect();
    m.run(programs).expect("run");
    assert_eq!(m.peek_u64(shared).unwrap(), 3 * PROCS as u64);
    check(
        "ticket_lock",
        &take(&sink),
        &[TraceKind::LockHandoff, TraceKind::SpinRead],
    );
}

/// The write-only ticket lock on all 32 cells of the KSR-1: a release
/// wakes dozens of processors parked on the serving word at once, and a
/// write to that word sweeps a holder list longer than 16 entries, so
/// this stream pins large wake fan-outs and sweeps of long lists.
#[test]
fn ticket_lock_on_all_32_cells() {
    const PROCS: usize = 32;
    let (mut m, sink) = traced(MachineConfig::ksr1(11));
    let shared = m.alloc_subpage(8).expect("alloc");
    let lock = SwRwLock::alloc(&mut m).expect("lock");
    let programs: Vec<Box<dyn Program>> = (0..PROCS)
        .map(|p| {
            program(move |mut cpu| async move {
                for _ in 0..2 {
                    cpu.compute(p as u64 * 7 + 3);
                    let t = lock.acquire(&mut cpu, LockMode::Write).await;
                    let v = cpu.read_u64(shared).await;
                    cpu.compute(100);
                    cpu.write_u64(shared, v + 1).await;
                    lock.release(&mut cpu, t).await;
                }
            })
        })
        .collect();
    m.run(programs).expect("run");
    assert_eq!(m.peek_u64(shared).unwrap(), 2 * PROCS as u64);
    let events = take(&sink);
    let widest_wake = events
        .chunk_by(|a, b| a.kind() == b.kind())
        .filter(|run| run[0].kind() == TraceKind::LockHandoff)
        .map(<[TraceEvent]>::len)
        .max();
    // One sweep's invalidations share their cycle and sub-page.
    let mut sweeps = std::collections::BTreeMap::new();
    for e in &events {
        if let TraceEvent::Invalidation { at, subpage, .. } = *e {
            *sweeps.entry((at, subpage)).or_insert(0) += 1;
        }
    }
    assert!(widest_wake > Some(16), "widest wake {widest_wake:?}");
    assert!(
        sweeps.values().max() > Some(&16),
        "widest sweep {:?}",
        sweeps.values().max()
    );
    check(
        "ticket_lock_32",
        &events,
        &[
            TraceKind::LockHandoff,
            TraceKind::SpinRead,
            TraceKind::Invalidation,
            TraceKind::Snarf,
        ],
    );
}

/// Warm-up over several 16 KB pages on a machine whose local caches
/// hold two pages: a second cell steals pages from the first, and the
/// later pages evict earlier ones. Every transition is stamped at 0.
#[test]
fn multi_page_warm() {
    const PAGE: u64 = 16 * 1024;
    let (mut m, sink) = traced(MachineConfig::ksr1_scaled(8, 64));
    let base = m.alloc(6 * PAGE, PAGE).expect("alloc");
    m.warm(0, base, 4 * PAGE);
    m.warm(1, base + PAGE, 4 * PAGE);
    m.warm(0, base + 2 * PAGE, PAGE / 2);
    assert_eq!(batches(&sink).len(), 3, "one batch as each warm-up returns");
    let events = take(&sink);
    assert!(events.iter().all(|e| e.at() == 0), "warm-up is untimed");
    check("warm_pages", &events, &[TraceKind::Coherence]);
}

/// Symmetry: every transaction is a bus grant, and fetch-add is the
/// native read-modify-write.
#[test]
fn symmetry_bus() {
    let (mut m, sink) = traced(MachineConfig::symmetry(4, 9));
    let counter = m.alloc_subpage(8).expect("alloc");
    m.run(hot_spot_programs(4, 3, counter)).expect("run");
    assert_eq!(m.peek_u64(counter).unwrap(), 12);
    check(
        "symmetry_bus",
        &take(&sink),
        &[
            TraceKind::RingSlot,
            TraceKind::SyncAcquire,
            TraceKind::DataRead,
        ],
    );
}

/// Butterfly: no coherent caches, so every access is a switch grant at
/// a memory module.
#[test]
fn butterfly_switch() {
    let (mut m, sink) = traced(MachineConfig::butterfly(4, 9));
    let counter = m.alloc_subpage(8).expect("alloc");
    m.run(hot_spot_programs(4, 3, counter)).expect("run");
    assert_eq!(m.peek_u64(counter).unwrap(), 12);
    check(
        "butterfly",
        &take(&sink),
        &[
            TraceKind::RingSlot,
            TraceKind::SyncAcquire,
            TraceKind::DataRead,
        ],
    );
}

/// The table pins each of the ten runs above exactly once.
#[test]
fn pinned_table_names_each_run_once() {
    let mut names: Vec<&str> = PINNED.iter().map(|&(n, _, _)| n).collect();
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), PINNED.len(), "a run is pinned twice");
    assert_eq!(PINNED.len(), 10);
}
