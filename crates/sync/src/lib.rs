//! # ksr-sync
//!
//! Shared-memory synchronization on the simulated KSR-1, reproducing the
//! §3.2 experiments of *"Scalability Study of the KSR-1"*:
//!
//! * [`hwlock`] — the naive hardware exclusive lock (`get_sub_page` /
//!   `release_sub_page`), which serializes all requests;
//! * [`rwlock`] — the paper's software queue-based read/write ticket lock
//!   (modified Anderson ticket lock) with read combining and strict FCFS;
//! * [`cohort`] — topology-aware hierarchical (cohort) locks: per-leaf
//!   FCFS queues under a global FCFS queue with a bounded local-handoff
//!   budget, plus a reader-writer variant layered on the ticket lock;
//! * [`barrier`] — the nine barrier algorithms of Figures 4 and 5:
//!   counter, dynamic tree, dissemination, tournament, MCS, the three
//!   global-wakeup-flag "(M)" variants, and the "System" library barrier,
//!   plus [`episode_seconds`], the one driver that times their episodes;
//! * [`mutants`] — seeded concurrency-bug workloads (a lock-order
//!   inversion, a racy flag handoff, a missed-invalidation probe) whose
//!   default deterministic schedule is clean: validation targets for the
//!   predictive passes and the schedule explorer in `ksr-verify`.

#![warn(missing_docs)]

pub mod barrier;
pub mod cohort;
pub mod hwlock;
pub mod mutants;
pub mod rwlock;

pub use barrier::{
    episode_seconds, AnyBarrier, BarrierAlg, BarrierKind, CounterBarrier, DisseminationBarrier,
    Episode, McsBarrier, SystemBarrier, TournamentBarrier, TreeBarrier,
};
pub use cohort::{CohortLock, CohortRwLock, CohortTicket, DEFAULT_HANDOFF_BUDGET};
pub use hwlock::HwLock;
pub use mutants::{LockOrderMutant, MissedInvalidationProbe, RacyHandoff};
pub use rwlock::{LockMode, SwRwLock, Ticket};
