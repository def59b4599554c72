//! Seeded concurrency-bug workloads for validating `ksr-verify`.
//!
//! Each builder allocates its shared state on a [`Machine`] and hands
//! back one program per processor. All three mutants share a shape: the
//! processors race a *guard* sub-page with `get_sub_page` at virtual
//! time 0, so the coordinator's very first equal-time tie decides the
//! scenario — and the **default** tie-break (lowest proc id first)
//! always takes the benign path. The single deterministic schedule is
//! clean; only a different resolution of the tie (a
//! `ksr_machine::ScheduleOracle`, enumerated by `ksr_verify::explore`)
//! exposes the seeded bug:
//!
//! * [`LockOrderMutant`] — two processors nest two locks in opposite
//!   orders. Under the default schedule the critical sections are
//!   serialized and nobody blocks; under the flipped tie both hold one
//!   lock while (boundedly) retrying the other, recording the mutual
//!   blocking. The opposite-order *edges* are present in every trace,
//!   so the predictive lock-order graph flags the potential deadlock
//!   even from the clean run.
//! * [`RacyHandoff`] — a producer sets a flag before its data is
//!   written; the consumer polls the flag exactly once. Default: the
//!   poll loses the race, sees 0, and takes the fallback. Flipped: the
//!   poll sees the flag and reads stale data.
//! * [`MissedInvalidationProbe`] — a 4-processor probe for a seeded
//!   `ksr_mem` protocol fault (exclusive fetches skip invalidations).
//!   The fault is harmless while sub-page `x` has a single writer
//!   (default); the flipped tie adds a second writer and the coherence
//!   checker sees multiple writable copies.
//!
//! Every path is bounded — failed attempts are counted, never retried
//! forever — so no schedule deadlocks the simulator.

use ksr_core::Result;
use ksr_machine::{program, Machine, Program};

/// Virtual-cycle pad the guard loser takes before entering its critical
/// section.
const LOSER_PAD: u64 = 3_000;
/// Fixed pre-section pad of the second processor (makes the default
/// schedule serialize and the flipped one overlap).
const PRE_PAD: u64 = 4_000;
/// Cycles spent inside a critical section before touching the second
/// lock.
const HOLD: u64 = 2_000;
/// Gap between bounded lock retries.
const RETRY_GAP: u64 = 800;
/// Bounded retry count (keeps every schedule deadlock-free).
const TRIES: u64 = 6;

/// The value a correct handoff delivers.
pub const HANDOFF_VALUE: u64 = 42;
/// The fallback the consumer records when it (correctly) sees the flag
/// unset.
pub const HANDOFF_SENTINEL: u64 = 7_777;

/// Two processors nesting locks `A` and `B` in opposite orders behind a
/// racing guard.
#[derive(Debug, Clone, Copy)]
pub struct LockOrderMutant {
    guard: u64,
    lock_a: u64,
    lock_b: u64,
    fails: u64,
    counter: u64,
}

impl LockOrderMutant {
    /// Allocate the guard, both locks, and the per-processor
    /// failed-attempt counters.
    pub fn alloc(m: &mut Machine) -> Result<Self> {
        Ok(Self {
            guard: m.alloc_subpage(8)?,
            lock_a: m.alloc_subpage(8)?,
            lock_b: m.alloc_subpage(8)?,
            fails: m.alloc_subpage(16)?,
            counter: m.alloc_subpage(8)?,
        })
    }

    /// The mutant: proc 0 nests `A` then `B`, proc 1 nests `B` then `A`.
    #[must_use]
    pub fn programs(&self) -> Vec<Box<dyn Program>> {
        let s = *self;
        let section = |first: u64, second: u64, fails_at: u64, pre: u64| {
            program(move |mut cpu| async move {
                // Both processors race the guard at t=0; the tie-break is
                // the scenario's one scheduling choice.
                if cpu.get_sub_page(s.guard).await {
                    cpu.release_sub_page(s.guard).await;
                } else {
                    cpu.compute(LOSER_PAD);
                }
                cpu.compute(pre);
                cpu.acquire_sub_page(first).await;
                cpu.compute(HOLD);
                let mut fails = 0u64;
                for _ in 0..TRIES {
                    if cpu.get_sub_page(second).await {
                        cpu.release_sub_page(second).await;
                        break;
                    }
                    fails += 1;
                    cpu.compute(RETRY_GAP);
                }
                cpu.write_u64(fails_at, fails).await;
                cpu.release_sub_page(first).await;
            })
        };
        vec![
            section(s.lock_a, s.lock_b, s.fails, 0),
            section(s.lock_b, s.lock_a, s.fails + 8, PRE_PAD),
        ]
    }

    /// The clean counterpart: the same guard race and the same two
    /// locks, but both processors nest `A` then `B` around a shared
    /// counter — correct under every schedule.
    #[must_use]
    pub fn clean_programs(&self) -> Vec<Box<dyn Program>> {
        let s = *self;
        let worker = |pre: u64| {
            program(move |mut cpu| async move {
                if cpu.get_sub_page(s.guard).await {
                    cpu.release_sub_page(s.guard).await;
                } else {
                    cpu.compute(LOSER_PAD);
                }
                cpu.compute(pre);
                for _ in 0..2 {
                    cpu.acquire_sub_page(s.lock_a).await;
                    cpu.acquire_sub_page(s.lock_b).await;
                    let v = cpu.read_u64(s.counter).await;
                    cpu.compute(50);
                    cpu.write_u64(s.counter, v + 1).await;
                    cpu.release_sub_page(s.lock_b).await;
                    cpu.release_sub_page(s.lock_a).await;
                }
            })
        };
        vec![worker(0), worker(PRE_PAD)]
    }

    /// Counter value after [`Self::clean_programs`] (must be 4).
    pub fn counter_value(&self, m: &mut Machine) -> Result<u64> {
        m.peek_u64(self.counter)
    }

    /// Both processors' failed-acquisition counts (for state hashing).
    pub fn fail_counts(&self, m: &mut Machine) -> Result<(u64, u64)> {
        Ok((m.peek_u64(self.fails)?, m.peek_u64(self.fails + 8)?))
    }
}

/// A producer/consumer pair whose mutant consumer polls the ready flag
/// exactly once, without synchronization.
#[derive(Debug, Clone, Copy)]
pub struct RacyHandoff {
    flag: u64,
    data: u64,
    result: u64,
}

impl RacyHandoff {
    /// Allocate the flag, the payload, and the consumer's result word.
    pub fn alloc(m: &mut Machine) -> Result<Self> {
        Ok(Self {
            flag: m.alloc_subpage(8)?,
            data: m.alloc_subpage(8)?,
            result: m.alloc_subpage(8)?,
        })
    }

    /// The mutant: the producer publishes the flag *before* the data;
    /// the consumer polls the flag once, racing the producer's flag
    /// write at t=0.
    #[must_use]
    pub fn programs(&self) -> Vec<Box<dyn Program>> {
        let s = *self;
        vec![
            program(move |mut cpu| async move {
                let ready = cpu.read_u64(s.flag).await;
                if ready == 1 {
                    let d = cpu.read_u64(s.data).await;
                    cpu.write_u64(s.result, d).await;
                } else {
                    cpu.write_u64(s.result, HANDOFF_SENTINEL).await;
                }
            }),
            program(move |mut cpu| async move {
                cpu.write_u64(s.flag, 1).await;
                cpu.compute(HOLD);
                cpu.write_u64(s.data, HANDOFF_VALUE).await;
            }),
        ]
    }

    /// The clean counterpart: data is published before the flag and the
    /// consumer spins — correct under every schedule.
    #[must_use]
    pub fn clean_programs(&self) -> Vec<Box<dyn Program>> {
        let s = *self;
        vec![
            program(move |mut cpu| async move {
                cpu.spin_until_eq(s.flag, 1).await;
                let d = cpu.read_u64(s.data).await;
                cpu.write_u64(s.result, d).await;
            }),
            program(move |mut cpu| async move {
                cpu.write_u64(s.data, HANDOFF_VALUE).await;
                cpu.compute(HOLD);
                cpu.write_u64(s.flag, 1).await;
            }),
        ]
    }

    /// Whether the finished run delivered a stale payload: the consumer
    /// saw the flag but read data from before the producer's write.
    pub fn stale(&self, m: &mut Machine) -> Result<bool> {
        let r = m.peek_u64(self.result)?;
        Ok(r != HANDOFF_SENTINEL && r != HANDOFF_VALUE)
    }

    /// The consumer's delivered value (for state hashing).
    pub fn result_value(&self, m: &mut Machine) -> Result<u64> {
        m.peek_u64(self.result)
    }
}

/// A 4-processor probe that keeps a seeded `MissedInvalidation`
/// protocol fault dormant under the default schedule (sub-page `x` has
/// one writer) and triggers it under a flipped guard tie (a second
/// writer joins).
#[derive(Debug, Clone, Copy)]
pub struct MissedInvalidationProbe {
    guard: u64,
    x: u64,
    y: u64,
}

impl MissedInvalidationProbe {
    /// Allocate the guard and the two data sub-pages.
    pub fn alloc(m: &mut Machine) -> Result<Self> {
        Ok(Self {
            guard: m.alloc_subpage(8)?,
            x: m.alloc_subpage(8)?,
            y: m.alloc_subpage(8)?,
        })
    }

    /// The four programs. Procs 0 and 1 race the guard; proc 0 writes
    /// `x` only if it *loses*. Procs 2 and 3 are steady writers of `x`
    /// and `y` respectively, staggered off the t=0 tie.
    #[must_use]
    pub fn programs(&self) -> Vec<Box<dyn Program>> {
        let s = *self;
        vec![
            program(move |mut cpu| async move {
                if cpu.get_sub_page(s.guard).await {
                    cpu.release_sub_page(s.guard).await;
                } else {
                    cpu.write_u64(s.x, 1).await;
                }
            }),
            program(move |mut cpu| async move {
                if cpu.get_sub_page(s.guard).await {
                    cpu.release_sub_page(s.guard).await;
                }
            }),
            program(move |mut cpu| async move {
                cpu.compute(500);
                for i in 0..3u64 {
                    cpu.write_u64(s.x, 10 + i).await;
                    cpu.compute(400);
                }
            }),
            program(move |mut cpu| async move {
                cpu.compute(700);
                for i in 0..3u64 {
                    cpu.write_u64(s.y, i).await;
                    cpu.compute(400);
                }
            }),
        ]
    }

    /// Final `(x, y)` values (for state hashing).
    pub fn final_values(&self, m: &mut Machine) -> Result<(u64, u64)> {
        Ok((m.peek_u64(self.x)?, m.peek_u64(self.y)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lock_order_mutant_is_clean_under_the_default_schedule() {
        let mut m = Machine::ksr1(11).unwrap();
        let s = LockOrderMutant::alloc(&mut m).unwrap();
        m.run(s.programs()).expect("run");
        let (f0, f1) = s.fail_counts(&mut m).unwrap();
        assert!(
            f0 == 0 || f1 == 0,
            "default tie-break must serialize the critical sections: fails {f0}, {f1}"
        );
    }

    #[test]
    fn lock_order_clean_counterpart_counts_correctly() {
        let mut m = Machine::ksr1(11).unwrap();
        let s = LockOrderMutant::alloc(&mut m).unwrap();
        m.run(s.clean_programs()).expect("run");
        assert_eq!(s.counter_value(&mut m).unwrap(), 4);
    }

    #[test]
    fn racy_handoff_takes_the_fallback_by_default() {
        let mut m = Machine::ksr1(12).unwrap();
        let s = RacyHandoff::alloc(&mut m).unwrap();
        m.run(s.programs()).expect("run");
        assert!(!s.stale(&mut m).unwrap());
        assert_eq!(m.peek_u64(s.result).unwrap(), HANDOFF_SENTINEL);
    }

    #[test]
    fn clean_handoff_always_delivers() {
        let mut m = Machine::ksr1(12).unwrap();
        let s = RacyHandoff::alloc(&mut m).unwrap();
        m.run(s.clean_programs()).expect("run");
        assert_eq!(m.peek_u64(s.result).unwrap(), HANDOFF_VALUE);
    }

    #[test]
    fn missed_invalidation_probe_runs_on_a_correct_machine() {
        // On an unfaulted machine the probe is boring by design: it runs
        // to completion under the default schedule.
        let mut m = Machine::ksr1(13).unwrap();
        let s = MissedInvalidationProbe::alloc(&mut m).unwrap();
        m.run(s.programs()).expect("run");
        assert_eq!(m.peek_u64(s.x).unwrap(), 12, "last staggered write");
    }
}
