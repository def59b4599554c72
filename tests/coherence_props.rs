//! Randomized (but fully deterministic) tests of the coherence protocol
//! and the machine layer.
//!
//! These drive seeded operation soups through the full stack and check
//! the invariants the ALLCACHE hardware guarantees:
//!
//! * at most one writable copy of any sub-page, never alongside readers;
//! * sequential consistency of the committed values (an atomic counter
//!   incremented under `get_sub_page` never loses updates);
//! * barrier safety under arbitrary arrival skews;
//! * determinism of the whole simulation for a fixed seed.
//!
//! The cases are generated with the in-tree [`XorShift64`] generator
//! instead of an external property-testing crate, so the registry-free
//! build stays offline while the coverage stays randomized: every run
//! explores the same seeded family of schedules.

use ksr1_repro::core::XorShift64;
use ksr1_repro::machine::{program, Machine};
use ksr1_repro::mem::{CacheTiming, MemGeometry, MemOp, MemorySystem, Outcome};
use ksr1_repro::net::Topology;
use ksr1_repro::sync::{AnyBarrier, BarrierAlg, BarrierKind, Episode};

/// A compact encoding of a memory operation for the soup.
#[derive(Debug, Clone, Copy)]
enum SoupOp {
    Read(u8),
    Write(u8),
    Gsp(u8),
    Release,
    Prefetch(u8, bool),
    Poststore(u8),
}

fn soup_op(rng: &mut XorShift64) -> SoupOp {
    let a = rng.next_u64() as u8;
    match rng.next_index(6) {
        0 => SoupOp::Read(a),
        1 => SoupOp::Write(a),
        2 => SoupOp::Gsp(a),
        3 => SoupOp::Release,
        4 => SoupOp::Prefetch(a, rng.next_bool(0.5)),
        _ => SoupOp::Poststore(a),
    }
}

/// Direct protocol-level soup: no sequence of operations from any
/// interleaving of cells may ever violate the single-writer invariant
/// or wedge the directory.
#[test]
fn protocol_soup_never_violates_single_writer() {
    for case in 0..64u64 {
        let mut rng = XorShift64::new(0xC0FFEE ^ case);
        let seed = rng.next_u64();
        let n_ops = 1 + rng.next_index(199);
        let mut mem = MemorySystem::new(
            MemGeometry::scaled(64),
            CacheTiming::ksr1(),
            Topology::ksr1_32().build(4).unwrap(),
            4,
            seed,
        )
        .unwrap();
        let mut now = 0u64;
        // Track which cell holds which sub-page atomically so the soup
        // stays well-formed (release only what you hold).
        let mut held: [Option<u64>; 4] = [None; 4];
        for _ in 0..n_ops {
            let cell = rng.next_index(4);
            let op = soup_op(&mut rng);
            let addr = |a: u8| 128 * u64::from(a) + 8;
            now += 50;
            match op {
                SoupOp::Read(a) => {
                    let _ = mem.access(cell, addr(a), MemOp::Read, now);
                }
                SoupOp::Write(a) => {
                    let _ = mem.access(cell, addr(a), MemOp::Write, now);
                }
                SoupOp::Gsp(a) => {
                    if held[cell].is_none() {
                        if let Outcome::Done { .. } =
                            mem.access(cell, addr(a), MemOp::GetSubPage, now)
                        {
                            held[cell] = Some(addr(a));
                        }
                    }
                }
                SoupOp::Release => {
                    if let Some(h) = held[cell].take() {
                        let _ = mem.access(cell, h, MemOp::ReleaseSubPage, now);
                    }
                }
                SoupOp::Prefetch(a, e) => {
                    let _ = mem.access(cell, addr(a), MemOp::Prefetch { exclusive: e }, now);
                }
                SoupOp::Poststore(a) => {
                    let _ = mem.access(cell, addr(a), MemOp::Poststore, now);
                }
            }
            assert_eq!(mem.directory().find_violation(), None, "case {case}");
        }
    }
}

/// Machine-level: a shared counter incremented under `get_sub_page` with
/// arbitrary compute skews never loses an update.
#[test]
fn atomic_counter_exact_under_random_skews() {
    for case in 0..12u64 {
        let mut rng = XorShift64::new(0xBEEF ^ (case << 8));
        let seed = rng.next_u64();
        let procs = 2 + rng.next_index(6);
        let skews: Vec<u64> = (0..procs).map(|_| rng.next_below(2_000)).collect();
        let iters = 1 + rng.next_index(7);
        let mut m = Machine::ksr1(seed).unwrap();
        let a = m.alloc_subpage(8).unwrap();
        m.run(
            skews
                .iter()
                .map(|&skew| {
                    program(move |mut cpu| async move {
                        cpu.compute(skew + 1);
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
        assert_eq!(
            m.peek_u64(a).unwrap(),
            (procs * iters) as u64,
            "case {case}"
        );
    }
}

/// Every barrier kind is safe under arbitrary arrival skews: nobody
/// leaves episode e before everyone entered episode e.
#[test]
fn barriers_safe_under_random_skews() {
    for (kind_idx, &kind) in BarrierKind::ALL.iter().enumerate() {
        let mut rng = XorShift64::new(0xBA55 ^ (kind_idx as u64) << 16);
        let seed = rng.next_u64();
        let procs = 2 + rng.next_index(5);
        let skews: Vec<u64> = (0..procs).map(|_| rng.next_below(3_000)).collect();
        let mut m = Machine::ksr1(seed).unwrap();
        let b = AnyBarrier::alloc(kind, &mut m, procs).unwrap();
        let marks: Vec<u64> = (0..procs).map(|_| m.alloc_subpage(8).unwrap()).collect();
        let all = marks.clone();
        m.run(
            (0..procs)
                .map(|p| {
                    let my = marks[p];
                    let all = all.clone();
                    let skew = skews[p];
                    program(move |mut cpu| async move {
                        let mut ep = Episode::default();
                        for e in 0..2u64 {
                            cpu.compute(skew * (e + 1) + 1);
                            cpu.write_u64(my, e + 1).await;
                            b.wait(&mut cpu, &mut ep).await;
                            for &other in &all {
                                let v = cpu.read_u64(other).await;
                                assert!(v > e, "{} escaped early", kind_idx);
                            }
                        }
                    })
                })
                .collect(),
        )
        .expect("run");
    }
}

/// Fixed seed => identical virtual-time history, independent of host
/// thread scheduling.
#[test]
fn simulation_is_deterministic() {
    for case in 0..6u64 {
        let mut rng = XorShift64::new(0xD17E ^ case);
        let seed = rng.next_u64();
        let procs = 2 + rng.next_index(4);
        let run = || {
            let mut m = Machine::ksr1(seed).unwrap();
            let a = m.alloc_subpage(16).unwrap();
            let r = m
                .run(
                    (0..procs)
                        .map(|p| {
                            program(move |mut cpu| async move {
                                for i in 0..10u64 {
                                    if (i + p as u64).is_multiple_of(3) {
                                        cpu.fetch_add(a, 1).await;
                                    } else {
                                        let _ = cpu.read_u64(a + 8).await;
                                        cpu.compute(30);
                                    }
                                }
                            })
                        })
                        .collect(),
                )
                .expect("run");
            (r.finished_at, r.proc_end.clone())
        };
        assert_eq!(run(), run(), "case {case}");
    }
}
