//! The nine barrier implementations of §3.2.2 (Figures 4 and 5).
//!
//! | Paper label     | Type                                        |
//! |-----------------|---------------------------------------------|
//! | `counter`       | [`CounterBarrier`]                          |
//! | `tree`          | [`TreeBarrier`] (dynamic combining tree)    |
//! | `tree(M)`       | [`TreeBarrier`] with global wakeup flag     |
//! | `dissemination` | [`DisseminationBarrier`]                    |
//! | `tournament`    | [`TournamentBarrier`]                       |
//! | `tournament(M)` | [`TournamentBarrier`] with global flag      |
//! | `MCS`           | [`McsBarrier`]                              |
//! | `MCS(M)`        | [`McsBarrier`] with global flag             |
//! | `System`        | [`SystemBarrier`] (pthread-style library)   |
//!
//! Every mutually exclusive shared variable sits on its own 128 B
//! sub-page ("we have aligned (whenever possible) mutually exclusive
//! parts of shared data structures on separate cache lines so that there
//! is no false sharing") — with the single deliberate exception of the
//! MCS arrival word, whose four per-child slots *share* a sub-page: that
//! false sharing is intrinsic to the algorithm and is exactly what the
//! paper blames for MCS's extra ring traffic on the KSR-1.
//!
//! Completion flags carry monotonically increasing episode stamps, so
//! repeated barrier episodes need no reset phase; wake-up writes are
//! followed by `poststore` ("read-snarfing is further aided by the use of
//! poststore in our implementation of these algorithms"), toggleable for
//! the ablation benches.

mod counter;
mod dissemination;
mod mcs;
mod system;
mod tournament;
mod tree;

pub use counter::CounterBarrier;
pub use dissemination::DisseminationBarrier;
pub use mcs::McsBarrier;
pub use system::SystemBarrier;
pub use tournament::TournamentBarrier;
pub use tree::TreeBarrier;

use std::future::Future;

use ksr_core::time::cycles_to_seconds;
use ksr_core::Result;
use ksr_machine::{program, Cpu, Machine, Program};

/// Per-processor private barrier state: the episode counter.
#[derive(Debug, Clone, Copy, Default)]
pub struct Episode {
    /// Number of episodes this processor has completed.
    pub ep: u64,
}

/// A barrier algorithm usable by the generic experiment driver.
pub trait BarrierAlg: Copy + Send + 'static {
    /// Number of participating processors.
    fn nprocs(&self) -> usize;
    /// The algorithm body: block until all `nprocs()` processors have
    /// arrived for this episode. Implementations provide this; callers
    /// go through [`BarrierAlg::wait`].
    fn sync(&self, cpu: &mut Cpu, ep: &mut Episode) -> impl Future<Output = ()>;
    /// Block until all `nprocs()` processors have called `wait` for
    /// this episode, then stamp one cycle-stamped `BarrierEpisode`
    /// trace event per processor (a no-op unless the machine has a
    /// tracer attached). The verification passes key barrier *eras* off
    /// these events, so every barrier — whichever concrete type the
    /// kernel holds — reports episodes through this one place.
    fn wait(&self, cpu: &mut Cpu, ep: &mut Episode) -> impl Future<Output = ()> {
        async move {
            self.sync(cpu, ep).await;
            cpu.trace_barrier_episode(ep.ep);
        }
    }
}

/// Mean seconds per barrier episode on `m` — the measurement of
/// Figures 4 and 5. Each of the barrier's `nprocs()` processors runs
/// `warmup + episodes` episodes: a short compute phase, skewed per
/// processor and episode so arrivals are staggered like real compute
/// phases rather than lock-step, then [`BarrierAlg::wait`]. The run's
/// duration is divided over every episode, warm-up included, so the
/// warm-up episodes' first-touch page allocations inflate the mean by
/// at most `warmup / episodes`.
///
/// # Errors
/// Whatever [`Machine::run`] returns.
pub fn episode_seconds(
    m: &mut Machine,
    barrier: impl BarrierAlg,
    episodes: usize,
    warmup: usize,
) -> Result<f64> {
    let run_eps = episodes + warmup;
    let programs: Vec<Box<dyn Program>> = (0..barrier.nprocs())
        .map(|p| {
            program(move |mut cpu| async move {
                let mut ep = Episode::default();
                for e in 0..run_eps {
                    cpu.compute(((p * 89 + e * 37) % 200) as u64 + 20);
                    barrier.wait(&mut cpu, &mut ep).await;
                }
            })
        })
        .collect();
    let r = m.run(programs)?;
    Ok(cycles_to_seconds(
        r.duration_cycles() / run_eps as u64,
        m.config().clock_hz,
    ))
}

/// An array of episode-stamped flags, one sub-page per flag.
#[derive(Debug, Clone, Copy)]
pub(crate) struct FlagArray {
    base: u64,
}

impl FlagArray {
    pub(crate) fn alloc(m: &mut Machine, n: usize) -> Result<Self> {
        Ok(Self {
            base: m.alloc(128 * n as u64, 128)?,
        })
    }

    pub(crate) fn addr(&self, i: usize) -> u64 {
        self.base + 128 * i as u64
    }
}

/// The nine Figure-4 barriers behind one dispatchable value, in the
/// paper's legend order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BarrierKind {
    /// Library barrier ("System").
    System,
    /// Naive central counter.
    Counter,
    /// Dynamic combining tree, tree wakeup.
    Tree,
    /// Dynamic combining tree, global-flag wakeup.
    TreeFlag,
    /// Dissemination.
    Dissemination,
    /// Static tournament, tree wakeup.
    Tournament,
    /// Static tournament, global-flag wakeup.
    TournamentFlag,
    /// Mellor-Crummey & Scott 4-ary arrival / binary wakeup.
    Mcs,
    /// MCS arrival with global-flag wakeup.
    McsFlag,
}

impl BarrierKind {
    /// All nine, in the paper's legend order.
    pub const ALL: [Self; 9] = [
        Self::System,
        Self::Counter,
        Self::Tree,
        Self::TreeFlag,
        Self::Dissemination,
        Self::Tournament,
        Self::TournamentFlag,
        Self::Mcs,
        Self::McsFlag,
    ];

    /// The label used in the paper's figures.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            Self::System => "System",
            Self::Counter => "Counter",
            Self::Tree => "Tree",
            Self::TreeFlag => "Tree(M)",
            Self::Dissemination => "Dissemination",
            Self::Tournament => "Tournament",
            Self::TournamentFlag => "Tournament(M)",
            Self::Mcs => "MCS",
            Self::McsFlag => "MCS(M)",
        }
    }

    /// Whether this variant needs coherent caches for its wakeup
    /// broadcast (the global-flag variants cannot run on the Butterfly,
    /// §3.2.3).
    #[must_use]
    pub fn needs_coherent_caches(&self) -> bool {
        matches!(
            self,
            Self::TreeFlag | Self::TournamentFlag | Self::McsFlag | Self::System
        )
    }
}

/// Any of the nine barriers, dispatchable by value.
#[derive(Debug, Clone, Copy)]
pub enum AnyBarrier {
    /// Library barrier.
    System(SystemBarrier),
    /// Central counter.
    Counter(CounterBarrier),
    /// Dynamic tree (either wakeup flavour).
    Tree(TreeBarrier),
    /// Dissemination.
    Dissemination(DisseminationBarrier),
    /// Tournament (either wakeup flavour).
    Tournament(TournamentBarrier),
    /// MCS (either wakeup flavour).
    Mcs(McsBarrier),
}

impl AnyBarrier {
    /// Allocate a barrier of the given kind for `n` processors.
    pub fn alloc(kind: BarrierKind, m: &mut Machine, n: usize) -> Result<Self> {
        Ok(match kind {
            BarrierKind::System => Self::System(SystemBarrier::alloc(m, n)?),
            BarrierKind::Counter => Self::Counter(CounterBarrier::alloc(m, n)?),
            BarrierKind::Tree => Self::Tree(TreeBarrier::alloc(m, n, false)?),
            BarrierKind::TreeFlag => Self::Tree(TreeBarrier::alloc(m, n, true)?),
            BarrierKind::Dissemination => Self::Dissemination(DisseminationBarrier::alloc(m, n)?),
            BarrierKind::Tournament => Self::Tournament(TournamentBarrier::alloc(m, n, false)?),
            BarrierKind::TournamentFlag => Self::Tournament(TournamentBarrier::alloc(m, n, true)?),
            BarrierKind::Mcs => Self::Mcs(McsBarrier::alloc(m, n, false)?),
            BarrierKind::McsFlag => Self::Mcs(McsBarrier::alloc(m, n, true)?),
        })
    }
}

impl BarrierAlg for AnyBarrier {
    fn nprocs(&self) -> usize {
        match self {
            Self::System(b) => b.nprocs(),
            Self::Counter(b) => b.nprocs(),
            Self::Tree(b) => b.nprocs(),
            Self::Dissemination(b) => b.nprocs(),
            Self::Tournament(b) => b.nprocs(),
            Self::Mcs(b) => b.nprocs(),
        }
    }

    async fn sync(&self, cpu: &mut Cpu, ep: &mut Episode) {
        match self {
            Self::System(b) => b.sync(cpu, ep).await,
            Self::Counter(b) => b.sync(cpu, ep).await,
            Self::Tree(b) => b.sync(cpu, ep).await,
            Self::Dissemination(b) => b.sync(cpu, ep).await,
            Self::Tournament(b) => b.sync(cpu, ep).await,
            Self::Mcs(b) => b.sync(cpu, ep).await,
        }
    }
}

#[cfg(test)]
pub(crate) mod testutil {
    use ksr_machine::{program, Machine, Program, RunReport};

    use super::{AnyBarrier, BarrierAlg, Episode};

    /// Run `episodes` barrier episodes on `procs` processors, asserting
    /// the fundamental safety property: no processor enters episode k+1
    /// before every processor has entered episode k. Returns the report.
    pub(crate) fn check_barrier(
        m: &mut Machine,
        b: AnyBarrier,
        procs: usize,
        episodes: usize,
    ) -> RunReport {
        // Shared arrival counters per episode, updated with plain
        // (racy-free: distinct slots) writes.
        let marks = (0..procs)
            .map(|_| m.alloc_subpage(8 * episodes as u64).unwrap())
            .collect::<Vec<_>>();
        let all_marks = marks.clone();
        let programs: Vec<Box<dyn Program>> = (0..procs)
            .map(|p| {
                let my_mark = marks[p];
                let all = all_marks.clone();
                program(move |mut cpu| async move {
                    let mut ep = Episode::default();
                    for e in 0..episodes {
                        // Phase work so processors arrive skewed.
                        cpu.compute(((p * 137 + e * 59) % 500) as u64 + 10);
                        cpu.write_u64(my_mark + 8 * e as u64, 1).await;
                        b.wait(&mut cpu, &mut ep).await;
                        // After the barrier, every processor must have
                        // marked this episode.
                        for &other in &all {
                            let v = cpu.read_u64(other + 8 * e as u64).await;
                            assert_eq!(v, 1, "barrier let a processor through early (ep {e})");
                        }
                    }
                })
            })
            .collect();
        m.run(programs).expect("run")
    }
}

#[cfg(test)]
mod tests {
    use ksr_machine::Machine;

    use super::*;

    #[test]
    fn labels_are_unique() {
        let labels: Vec<_> = BarrierKind::ALL.iter().map(BarrierKind::label).collect();
        let mut dedup = labels.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), labels.len());
    }

    #[test]
    fn flag_variants_need_coherence() {
        assert!(BarrierKind::TournamentFlag.needs_coherent_caches());
        assert!(!BarrierKind::Dissemination.needs_coherent_caches());
        assert!(!BarrierKind::Counter.needs_coherent_caches());
        assert!(!BarrierKind::Mcs.needs_coherent_caches());
    }

    #[test]
    fn all_nine_allocate() {
        let mut m = Machine::ksr1(1).unwrap();
        for kind in BarrierKind::ALL {
            let b = AnyBarrier::alloc(kind, &mut m, 8).unwrap();
            assert_eq!(b.nprocs(), 8, "{}", kind.label());
        }
    }

    #[test]
    fn every_barrier_is_safe_on_ksr1() {
        for kind in BarrierKind::ALL {
            let mut m = Machine::ksr1(31).unwrap();
            let b = AnyBarrier::alloc(kind, &mut m, 8).unwrap();
            testutil::check_barrier(&mut m, b, 8, 3);
        }
    }

    #[test]
    fn every_barrier_is_safe_with_odd_proc_counts() {
        for kind in BarrierKind::ALL {
            for procs in [2usize, 3, 5, 7] {
                let mut m = Machine::ksr1(33).unwrap();
                let b = AnyBarrier::alloc(kind, &mut m, procs).unwrap();
                testutil::check_barrier(&mut m, b, procs, 2);
            }
        }
    }

    #[test]
    fn tree_barriers_work_at_32_procs() {
        for kind in [
            BarrierKind::Tree,
            BarrierKind::TournamentFlag,
            BarrierKind::Mcs,
        ] {
            let mut m = Machine::ksr1(35).unwrap();
            let b = AnyBarrier::alloc(kind, &mut m, 32).unwrap();
            testutil::check_barrier(&mut m, b, 32, 2);
        }
    }

    #[test]
    fn non_flag_barriers_run_on_butterfly() {
        for kind in BarrierKind::ALL {
            if kind.needs_coherent_caches() {
                continue;
            }
            let mut m = Machine::butterfly(8, 37).unwrap();
            let b = AnyBarrier::alloc(kind, &mut m, 8).unwrap();
            testutil::check_barrier(&mut m, b, 8, 2);
        }
    }

    #[test]
    fn barriers_run_on_symmetry() {
        for kind in [
            BarrierKind::Counter,
            BarrierKind::Mcs,
            BarrierKind::TournamentFlag,
        ] {
            let mut m = Machine::symmetry(8, 39).unwrap();
            let b = AnyBarrier::alloc(kind, &mut m, 8).unwrap();
            testutil::check_barrier(&mut m, b, 8, 2);
        }
    }

    #[test]
    fn barriers_run_on_ksr2_across_ring_boundary() {
        for kind in [BarrierKind::TournamentFlag, BarrierKind::Dissemination] {
            let mut m = Machine::ksr2(41).unwrap();
            let b = AnyBarrier::alloc(kind, &mut m, 40).unwrap();
            testutil::check_barrier(&mut m, b, 40, 2);
        }
    }
}
