//! The four workloads and the drivers they are built from.
//!
//! Each driver mirrors one of the suite's jobs through the simulator's
//! public API only: it builds a machine, runs one program per processor,
//! asserts the job's own invariants (a failed assertion is a failed
//! run), and folds every simulated output into the rep's digest.
//!
//! Seeds follow the suite: the benchmark seed `S` is XORed into every
//! machine seed and every NAS input seed, as `RunOpts.seed` does, so
//! `--seed 0` runs exactly the suite's baseline points.

use ksr_core::time::cycles_to_seconds;
use ksr_machine::{program, Cpu, Machine, MachineConfig, Program, SharedU64};
use ksr_nas::is::generate_keys;
use ksr_nas::{
    cg_sequential, ranks_are_valid, sp_sequential, CgConfig, CgResult, CgSetup, IsConfig, IsSetup,
    SpConfig, SpLayout, SpSetup,
};
use ksr_net::{RingHierarchyConfig, Topology};
use ksr_sync::{CohortLock, HwLock, LockMode, SwRwLock};
use ksr_verify::{lockset_analysis, RaceDetector};

use crate::harness::{Checker, Rep};

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Ticket and cohort locks on all 1024 cells: coordinator park/wake
    /// and invalidation fan-out.
    LockHandoff1024,
    /// Fetch-add hot spot with combining off and on, and the hardware
    /// lock, on 1024 cells: atomic path and fabric, no wake-ups.
    AtomicHotspot1024,
    /// Stride streams, CG, IS and SP on the 32-cell KSR-1: the hit path,
    /// a 32-deep ready queue and program resume.
    Apps32,
    /// Locks, hot spot and CG under the predictive checker, and the race
    /// and lockset passes over a traced IS run: the verify layer.
    CheckedMix,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Self; 4] = [
        Self::LockHandoff1024,
        Self::AtomicHotspot1024,
        Self::Apps32,
        Self::CheckedMix,
    ];

    /// The workload's name on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Self::LockHandoff1024 => "lock_handoff_1024",
            Self::AtomicHotspot1024 => "atomic_hotspot_1024",
            Self::Apps32 => "apps_32",
            Self::CheckedMix => "checked_mix",
        }
    }

    /// Look a workload up by name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Problem sizes: the benchmark's own, or a tiny variant for tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The sizes the benchmark measures.
    Full,
    /// Eight-cell machines and toy inputs, for the test suite.
    Tiny,
}

/// One simulated run of a workload.
pub struct Part {
    /// Stable name, used to pin the part's digest.
    pub name: &'static str,
    /// Run the part once inside a rep.
    pub run: Box<dyn Fn(&mut Rep)>,
}

fn part(name: &'static str, run: impl Fn(&mut Rep) + 'static) -> Part {
    Part {
        name,
        run: Box::new(run),
    }
}

/// LCK's machine-seed base, hold time, high-contention delay and cohort
/// handoff budget.
const LCK_SEED: u64 = 5600;
const HOLD: u64 = 1_000;
const DELAY: u64 = 500;
const BUDGET: u64 = 8;
/// CMB's machine-seed base.
const CMB_SEED: u64 = 4300;
/// Cache scale factor of the CG and IS machines (TAB1/TAB2).
const NAS_SCALE: u64 = 64;
/// The cohort lock's 1024-cell high-contention point in the committed
/// `results/lck.json`: simulated µs and remote references per acquire.
const LCK_COHORT_1024_US: f64 = 90.5791748046875;
const LCK_COHORT_1024_RMR: f64 = 0.64501953125;

/// The parts of workload `w` at `seed`. Sequential references are
/// computed here, once, outside every timed rep.
pub fn parts(w: Workload, seed: u64, scale: Scale) -> Vec<Part> {
    let tiny = scale == Scale::Tiny;
    let leafs: &'static [usize] = if tiny { &[4, 2] } else { &[32, 8, 4] };
    let cells = leafs.iter().product::<usize>() as u64;
    match w {
        Workload::LockHandoff1024 => {
            let s = (LCK_SEED ^ seed) + cells;
            let pinned = !tiny && seed == 0;
            vec![
                part("ticket", move |rep| {
                    lock_loop(rep, AnyLock::ticket, leafs, 1, s, Checker::Off);
                }),
                part("cohort", move |rep| {
                    let (us, rmr) = lock_loop(rep, AnyLock::cohort, leafs, 2, s, Checker::Off);
                    if pinned {
                        assert!(
                            us == LCK_COHORT_1024_US && rmr == LCK_COHORT_1024_RMR,
                            "cohort 1024-cell point {us} us / {rmr} RMR differs from \
                             results/lck.json ({LCK_COHORT_1024_US} / {LCK_COHORT_1024_RMR})"
                        );
                    }
                }),
            ]
        }
        Workload::AtomicHotspot1024 => {
            let s = (CMB_SEED ^ seed) + cells;
            let lck = (LCK_SEED ^ seed) + cells;
            vec![
                part("cmb_off", move |rep| {
                    hot_spot(rep, leafs, false, 8, s, Checker::Off);
                }),
                part("cmb_on", move |rep| {
                    hot_spot(rep, leafs, true, 8, s, Checker::Off)
                }),
                part("hw_lock", move |rep| {
                    lock_loop(rep, AnyLock::hw, leafs, 1, lck, Checker::Off);
                }),
            ]
        }
        Workload::Apps32 => apps_parts(seed, tiny),
        Workload::CheckedMix => checked_parts(seed, tiny),
    }
}

fn apps_parts(seed: u64, tiny: bool) -> Vec<Part> {
    let procs = if tiny { 8 } else { 32 };
    // Sub-cache fills are slow in unoptimised builds, so the tiny stream
    // runs on four processors over 16 KB.
    let (stream_procs, array, samples) = if tiny {
        (4, 16 * 1024, 32)
    } else {
        (32, 1024 * 1024, 1024)
    };
    let mut parts: Vec<Part> = [
        ("fig2_remote_read", Target::RemoteRead, 100),
        ("fig2_remote_write", Target::RemoteWrite, 101),
        ("fig2_local_read", Target::LocalRead, 102),
        ("fig2_local_write", Target::LocalWrite, 103),
    ]
    .into_iter()
    .map(|(name, target, base)| {
        part(name, move |rep| {
            stride_stream(rep, target, stream_procs, array, samples, base ^ seed);
        })
    })
    .collect();

    let cg_cfg = CgConfig {
        n: if tiny { 120 } else { 1400 },
        offdiag_per_row: if tiny { 6 } else { 144 },
        iterations: if tiny { 2 } else { 5 },
        seed: 14_000 ^ seed,
        poststore: false,
        uncache_matrix: false,
    };
    let cg_ref = cg_sequential(&cg_cfg);
    parts.push(part("cg", move |rep| {
        cg(rep, cg_cfg, procs, 500 ^ seed, cg_ref, Checker::Off);
    }));

    let is_cfg = if tiny {
        tiny_is(seed)
    } else {
        IsConfig {
            keys: 1 << 16,
            max_key: 1 << 11,
            seed: (1 << 23) ^ seed,
            chunk: 128,
        }
    };
    let keys = generate_keys(&is_cfg);
    parts.push(part("is", move |rep| {
        is(rep, is_cfg, procs, 600 ^ seed, &keys, Checker::Off);
    }));

    let sp_cfg = SpConfig {
        n: if tiny { 8 } else { 32 },
        iterations: 2,
        seed: 646_464 ^ seed,
        layout: SpLayout::Padded,
        prefetch: true,
        poststore: false,
    };
    let sp_ref = sp_sequential(&sp_cfg);
    parts.push(part("sp", move |rep| {
        sp(rep, sp_cfg, procs, 700 ^ seed, &sp_ref);
    }));
    parts
}

fn checked_parts(seed: u64, tiny: bool) -> Vec<Part> {
    let leafs: &'static [usize] = if tiny { &[4, 2] } else { &[32, 8] };
    let cells = leafs.iter().product::<usize>() as u64;
    let (lock_s, cmb_s) = ((LCK_SEED ^ seed) + cells, (CMB_SEED ^ seed) + cells);
    let p = Checker::Predictive;
    let cg_cfg = CgConfig {
        n: if tiny { 120 } else { 280 },
        offdiag_per_row: if tiny { 6 } else { 36 },
        iterations: 2,
        seed: 14_000 ^ seed,
        poststore: false,
        uncache_matrix: false,
    };
    let cg_ref = cg_sequential(&cg_cfg);
    let procs = if tiny { 4 } else { 8 };
    // The `run_all --check` race and lockset suites' IS input, four
    // times the keys on twice the processors.
    let is_cfg = if tiny {
        tiny_is(seed)
    } else {
        IsConfig {
            keys: 1 << 14,
            max_key: 512,
            seed: 19_930_401 ^ seed,
            chunk: 64,
        }
    };
    let keys = generate_keys(&is_cfg);
    vec![
        part("ticket", move |rep| {
            lock_loop(rep, AnyLock::ticket, leafs, 2, lock_s, p);
        }),
        part("cohort", move |rep| {
            lock_loop(rep, AnyLock::cohort, leafs, 8, lock_s, p);
        }),
        part("cmb_off", move |rep| {
            hot_spot(rep, leafs, false, 32, cmb_s, p)
        }),
        part("cmb_on", move |rep| {
            hot_spot(rep, leafs, true, 32, cmb_s, p)
        }),
        part("cg", move |rep| {
            cg(rep, cg_cfg, procs, 500 ^ seed, cg_ref, p)
        }),
        part("is_race", move |rep| {
            is(rep, is_cfg, procs, 50 ^ seed, &keys, Checker::Collecting);
        }),
    ]
}

fn tiny_is(seed: u64) -> IsConfig {
    IsConfig {
        keys: 2_000,
        max_key: 256,
        seed: 5 ^ seed,
        chunk: 64,
    }
}

/// One of the LCK contenders, allocated on a machine.
#[derive(Debug, Clone, Copy)]
enum AnyLock {
    Hw(HwLock),
    Ticket(SwRwLock),
    Cohort(CohortLock),
}

impl AnyLock {
    fn hw(m: &mut Machine) -> Self {
        Self::Hw(HwLock::alloc(m).expect("alloc"))
    }

    fn ticket(m: &mut Machine) -> Self {
        Self::Ticket(SwRwLock::alloc(m).expect("alloc"))
    }

    fn cohort(m: &mut Machine) -> Self {
        Self::Cohort(CohortLock::with_budget(m, BUDGET).expect("alloc"))
    }

    /// One LCK critical section: acquire, read the shared word, hold,
    /// write it back incremented, release.
    async fn bump(self, cpu: &mut Cpu, shared: u64) {
        async fn held(cpu: &mut Cpu, shared: u64) {
            let v = cpu.read_u64(shared).await;
            cpu.compute(HOLD);
            cpu.write_u64(shared, v + 1).await;
        }
        match self {
            Self::Hw(l) => {
                l.acquire(cpu).await;
                held(cpu, shared).await;
                l.release(cpu).await;
            }
            Self::Ticket(l) => {
                let t = l.acquire(cpu, LockMode::Write).await;
                held(cpu, shared).await;
                l.release(cpu, t).await;
            }
            Self::Cohort(l) => {
                l.acquire(cpu).await;
                held(cpu, shared).await;
                l.release(cpu).await;
            }
        }
    }
}

/// LCK's loop on every cell of a `leafs` ring tree: `ops` critical
/// sections per cell under the lock `alloc` makes, [`DELAY`] cycles
/// apart. Returns the simulated µs and remote references per acquire.
fn lock_loop(
    rep: &mut Rep,
    alloc: fn(&mut Machine) -> AnyLock,
    leafs: &[usize],
    ops: usize,
    seed: u64,
    checker: Checker,
) -> (f64, f64) {
    let mut sim = rep.machine(MachineConfig::ksr_ring(seed, leafs), checker);
    let procs = sim.m.config().cells;
    let shared = sim.m.alloc_subpage(8).expect("alloc");
    let lock = alloc(&mut sim.m);
    let programs: Vec<Box<dyn Program>> = (0..procs)
        .map(|_| {
            program(move |mut cpu| async move {
                for _ in 0..ops {
                    lock.bump(&mut cpu, shared).await;
                    cpu.compute(DELAY);
                }
            })
        })
        .collect();
    let r = rep.run(&mut sim, programs);
    let total = (procs * ops) as u64;
    let count = sim.m.peek_u64(shared).expect("shared word");
    assert_eq!(count, total, "mutual exclusion lost an increment");
    rep.digest_u64(count);
    let us = cycles_to_seconds(r.duration_cycles(), sim.m.config().clock_hz) * 1e6 / total as f64;
    let rmr = sim.m.perfmon_total().remote_references as f64 / total as f64;
    rep.retire(sim);
    (us, rmr)
}

/// CMB's hot spot: every cell of a `leafs` ring tree fetch-adds one
/// counter `ops` times, with ARD combining off or on.
fn hot_spot(
    rep: &mut Rep,
    leafs: &[usize],
    combining: bool,
    ops: usize,
    seed: u64,
    checker: Checker,
) {
    let mut cfg = MachineConfig::ksr_ring(seed, leafs);
    if combining {
        let mut ring = RingHierarchyConfig::ring_levels(leafs);
        ring.combining = true;
        cfg.topology = Topology::ring(ring);
    }
    let mut sim = rep.machine(cfg, checker);
    let procs = sim.m.config().cells;
    let a = sim.m.alloc_subpage(8).expect("alloc");
    let programs: Vec<Box<dyn Program>> = (0..procs)
        .map(|p| {
            program(move |mut cpu| async move {
                for i in 0..ops {
                    cpu.compute(((p * 13 + i * 7) % 50) as u64 + 5);
                    cpu.fetch_add(a, 1).await;
                }
            })
        })
        .collect();
    rep.run(&mut sim, programs);
    let count = sim.m.peek_u64(a).expect("counter");
    assert_eq!(
        count,
        (procs * ops) as u64,
        "the hot spot dropped an increment"
    );
    rep.digest_u64(count);
    rep.retire(sim);
}

/// What one FIG2 stride stream measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Target {
    LocalRead,
    LocalWrite,
    RemoteRead,
    RemoteWrite,
}

/// Per-iteration cycles of FIG2's measurement loop itself.
const LOOP_OVERHEAD: u64 = 60;

/// FIG2's probe on the KSR-1: each of `procs` processors fills its
/// sub-cache from a private `array`-byte buffer, then times `samples`
/// strided accesses to a second one, held by itself (local) or by its
/// ring neighbour (remote).
fn stride_stream(rep: &mut Rep, target: Target, procs: usize, array: u64, samples: u64, seed: u64) {
    let mut sim = rep.machine(MachineConfig::ksr1(seed), Checker::Off);
    let m = &mut sim.m;
    let arrays: Vec<u64> = (0..procs)
        .map(|_| m.alloc(array, 16384).expect("alloc"))
        .collect();
    let fill: Vec<u64> = (0..procs)
        .map(|_| m.alloc(array, 16384).expect("alloc"))
        .collect();
    let results = SharedU64::alloc(m, procs).expect("alloc");
    let remote = matches!(target, Target::RemoteRead | Target::RemoteWrite);
    let stride = if remote { 128 } else { 64 };
    for (p, &a) in arrays.iter().enumerate() {
        let owner = if remote { (p + 1) % 32 } else { p };
        m.warm(owner, a, array);
        m.warm(p, fill[p], array);
    }
    let programs: Vec<Box<dyn Program>> = (0..procs)
        .map(|p| {
            let (a, b) = (arrays[p], fill[p]);
            program(move |mut cpu| async move {
                for _ in 0..2 {
                    let mut off = 0;
                    while off < array {
                        let _ = cpu.read_u64(b + off).await;
                        off += 64;
                    }
                }
                let t0 = cpu.now();
                let mut off = 0;
                for _ in 0..samples {
                    if matches!(target, Target::LocalRead | Target::RemoteRead) {
                        let _ = cpu.read_u64(a + off).await;
                    } else {
                        cpu.write_u64(a + off, off).await;
                    }
                    cpu.compute(LOOP_OVERHEAD);
                    off = (off + stride) % array;
                }
                let per = (cpu.now() - t0) / samples - LOOP_OVERHEAD;
                results.set(&mut cpu, p, per).await;
            })
        })
        .collect();
    rep.run(&mut sim, programs);
    for p in 0..procs {
        let cycles = results.peek(&mut sim.m, p);
        assert!(cycles > 0, "processor {p} reported no access latency");
        rep.digest_u64(cycles);
    }
    rep.retire(sim);
}

/// TAB1's CG on the cache-scaled KSR-1; the result must equal the
/// sequential reference bit for bit.
fn cg(
    rep: &mut Rep,
    cfg: CgConfig,
    procs: usize,
    seed: u64,
    reference: CgResult,
    checker: Checker,
) {
    let mut sim = rep.machine(MachineConfig::ksr1_scaled(seed, NAS_SCALE), checker);
    let setup = CgSetup::new(&mut sim.m, cfg, procs).expect("CG setup");
    let programs = setup.programs();
    rep.run(&mut sim, programs);
    let got = setup.result(&mut sim.m);
    let bits = [got.x_checksum.to_bits(), got.residual_sq.to_bits()];
    assert_eq!(
        bits,
        [
            reference.x_checksum.to_bits(),
            reference.residual_sq.to_bits()
        ],
        "parallel CG differs from the sequential reference"
    );
    bits.into_iter().for_each(|b| rep.digest_u64(b));
    rep.retire(sim);
}

/// TAB2's IS on the cache-scaled KSR-1; the ranks must sort `keys`. With
/// [`Checker::Collecting`] the run's trace then goes through the race
/// detector and the lockset pass, which must both stay silent.
fn is(rep: &mut Rep, cfg: IsConfig, procs: usize, seed: u64, keys: &[u64], checker: Checker) {
    let mut sim = rep.machine(MachineConfig::ksr1_scaled(seed, NAS_SCALE), checker);
    let setup = IsSetup::new(&mut sim.m, cfg, procs).expect("IS setup");
    let programs = setup.programs();
    rep.run(&mut sim, programs);
    let ranks = setup.ranks(&mut sim.m);
    assert!(
        ranks_are_valid(keys, &ranks),
        "IS ranks do not sort the keys"
    );
    ranks.into_iter().for_each(|r| rep.digest_u64(r));
    if checker == Checker::Collecting {
        let events = sim.take_events();
        let (races, lockset) = rep.offline(|| {
            (
                RaceDetector::new(procs).analyze(&events),
                lockset_analysis(&events),
            )
        });
        assert!(races.is_empty(), "locked IS raced: {:?}", races.first());
        assert!(
            lockset.is_empty(),
            "locked IS lockset: {:?}",
            lockset.first()
        );
        rep.digest_u64(events.len() as u64);
    }
    rep.retire(sim);
}

/// TAB3's optimised SP on the full-size KSR-1; the solution must equal
/// the sequential reference bit for bit.
fn sp(rep: &mut Rep, cfg: SpConfig, procs: usize, seed: u64, reference: &[f64]) {
    let mut sim = rep.machine(MachineConfig::ksr1(seed), Checker::Off);
    let setup = SpSetup::new(&mut sim.m, cfg, procs).expect("SP setup");
    let programs = setup.programs();
    rep.run(&mut sim, programs);
    let solution = setup.solution(&mut sim.m);
    assert_eq!(solution.len(), reference.len(), "SP grid size");
    for (got, want) in solution.iter().zip(reference) {
        assert_eq!(
            got.to_bits(),
            want.to_bits(),
            "parallel SP differs from the sequential reference"
        );
        rep.digest_u64(got.to_bits());
    }
    rep.retire(sim);
}
