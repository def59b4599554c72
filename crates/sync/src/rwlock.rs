//! The software queue-based read/write ticket lock of §3.2.1.
//!
//! "We have implemented a simple read-write lock using the KSR-1 exclusive
//! lock primitive. Our algorithm is a modified version of Anderson's
//! ticket lock. A shared data structure can be acquired in read-shared
//! mode or in a write-exclusive mode. Lock requests are granted tickets
//! atomically using the get_sub_page primitive. Consecutive read lock
//! requests are combined by allowing them to get the same ticket.
//! Concurrent readers can thus share the lock and writers are stalled
//! until all readers (concurrently holding a read lock) have released the
//! lock. Fairness is assured among readers and writers by maintaining a
//! strict FCFS queue."
//!
//! ## Protocol
//!
//! Queue head state sits on one sub-page guarded by `get_sub_page`
//! (`next`, `serving`, `last_is_read`, `last_ticket`); per-ticket reader
//! bookkeeping lives in a 64-slot table (`readers[t]`, `released[t]`,
//! indexed by `t mod 64`) that is only ever touched while holding the
//! queue sub-page. Only read tickets own slots, so the table bounds the
//! read tickets in flight: a read ticket opens its slot only while fewer
//! than 64 tickets are ahead of it (a debug assertion checks this).
//! Write tickets never index the table, so a write-only queue takes any
//! number of processors — LCK runs one on 1024 cells.
//!
//! * a **reader** combines onto the most recent ticket when that ticket
//!   is a read ticket not yet retired (`last_ticket >= serving`);
//!   otherwise it opens a fresh read ticket;
//! * a **writer** always takes a fresh ticket and closes the open read
//!   ticket to further combining; if the queue head had already drained
//!   (`readers == released`) it advances `serving` over it immediately;
//! * the *last* releasing reader of the serving ticket advances `serving`
//!   when someone is queued behind it; with no one waiting the ticket
//!   stays open so later readers keep entering at zero cost;
//! * tickets are sequential, so the queue is strictly FCFS.

use ksr_core::Result;
use ksr_machine::{Cpu, Machine};

const NEXT: u64 = 0;
const SERVING: u64 = 8;
const LAST_IS_READ: u64 = 16;
const LAST_TICKET: u64 = 24;

/// Reader bookkeeping slots: more than the read tickets ever in flight
/// (a power of two).
const SLOTS: u64 = 64;

/// Acquisition mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LockMode {
    /// Shared (read) access.
    Read,
    /// Exclusive (write) access.
    Write,
}

/// Proof of acquisition, needed to release.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ticket {
    number: u64,
    mode: LockMode,
}

impl Ticket {
    /// Reconstruct a ticket from its queue position — for the cohort
    /// reader-writer lock (`crate::cohort`), whose local handoff passes
    /// an open global write ticket between same-leaf writers.
    pub(crate) fn internal(number: u64, mode: LockMode) -> Self {
        Self { number, mode }
    }

    /// The ticket's queue position.
    #[must_use]
    pub fn number(&self) -> u64 {
        self.number
    }

    /// The mode it was granted in.
    #[must_use]
    pub fn mode(&self) -> LockMode {
        self.mode
    }
}

/// The software read/write queue lock.
#[derive(Debug, Clone, Copy)]
pub struct SwRwLock {
    q: u64,
    rtab: u64,
}

impl SwRwLock {
    /// Allocate the lock's sub-pages.
    pub fn alloc(m: &mut Machine) -> Result<Self> {
        let q = m.alloc_subpage(32)?;
        let rtab = m.alloc_subpage(SLOTS * 16)?;
        Ok(Self { q, rtab })
    }

    fn readers_addr(&self, t: u64) -> u64 {
        self.rtab + (t % SLOTS) * 16
    }

    fn released_addr(&self, t: u64) -> u64 {
        self.rtab + (t % SLOTS) * 16 + 8
    }

    /// Acquire in the given mode; blocks (FCFS) until granted.
    pub async fn acquire(&self, cpu: &mut Cpu, mode: LockMode) -> Ticket {
        match mode {
            LockMode::Read => self.acquire_read(cpu).await,
            LockMode::Write => self.acquire_write(cpu).await,
        }
    }

    async fn acquire_read(&self, cpu: &mut Cpu) -> Ticket {
        cpu.acquire_sub_page(self.q).await;
        let serving = cpu.read_u64(self.q + SERVING).await;
        let last_is_read = cpu.read_u64(self.q + LAST_IS_READ).await == 1;
        let last_ticket = cpu.read_u64(self.q + LAST_TICKET).await;
        let ticket = if last_is_read && last_ticket >= serving {
            // Combine onto the open read ticket.
            let r = cpu.read_u64(self.readers_addr(last_ticket)).await;
            cpu.write_u64(self.readers_addr(last_ticket), r + 1).await;
            last_ticket
        } else {
            let t = cpu.read_u64(self.q + NEXT).await;
            cpu.write_u64(self.q + NEXT, t + 1).await;
            debug_assert!(
                t - serving < SLOTS,
                "more in-flight tickets than table slots"
            );
            cpu.write_u64(self.q + LAST_IS_READ, 1).await;
            cpu.write_u64(self.q + LAST_TICKET, t).await;
            cpu.write_u64(self.readers_addr(t), 1).await;
            cpu.write_u64(self.released_addr(t), 0).await;
            t
        };
        cpu.release_sub_page(self.q).await;
        if serving != ticket {
            cpu.spin_until(self.q + SERVING, move |v| v == ticket).await;
        }
        Ticket {
            number: ticket,
            mode: LockMode::Read,
        }
    }

    async fn acquire_write(&self, cpu: &mut Cpu) -> Ticket {
        cpu.acquire_sub_page(self.q).await;
        let ticket = cpu.read_u64(self.q + NEXT).await;
        cpu.write_u64(self.q + NEXT, ticket + 1).await;
        let serving = cpu.read_u64(self.q + SERVING).await;
        // If the head of the queue is a fully-drained read ticket, nobody
        // is left to advance it: step over it now.
        if cpu.read_u64(self.q + LAST_IS_READ).await == 1
            && serving == cpu.read_u64(self.q + LAST_TICKET).await
            && serving + 1 == ticket
        {
            let r = cpu.read_u64(self.readers_addr(serving)).await;
            let rel = cpu.read_u64(self.released_addr(serving)).await;
            if r == rel {
                cpu.write_u64(self.q + SERVING, ticket).await;
            }
        }
        cpu.write_u64(self.q + LAST_IS_READ, 0).await;
        cpu.release_sub_page(self.q).await;
        let at_head = cpu.read_u64(self.q + SERVING).await == ticket;
        if !at_head {
            cpu.spin_until(self.q + SERVING, move |v| v == ticket).await;
        }
        Ticket {
            number: ticket,
            mode: LockMode::Write,
        }
    }

    /// Release a previously acquired ticket.
    pub async fn release(&self, cpu: &mut Cpu, ticket: Ticket) {
        cpu.acquire_sub_page(self.q).await;
        match ticket.mode {
            LockMode::Write => {
                cpu.write_u64(self.q + SERVING, ticket.number + 1).await;
            }
            LockMode::Read => {
                let t = ticket.number;
                let rel = cpu.read_u64(self.released_addr(t)).await + 1;
                cpu.write_u64(self.released_addr(t), rel).await;
                let r = cpu.read_u64(self.readers_addr(t)).await;
                let next = cpu.read_u64(self.q + NEXT).await;
                // Advance only when the ticket is fully drained and
                // someone is queued behind it; otherwise leave it open so
                // later readers keep combining at zero cost.
                if rel == r && next > t + 1 {
                    cpu.write_u64(self.q + SERVING, t + 1).await;
                }
            }
        }
        cpu.release_sub_page(self.q).await;
    }
}

#[cfg(test)]
mod tests {
    use ksr_machine::{program, MachineConfig};

    use super::*;

    #[test]
    fn writers_exclude_each_other() {
        let mut m = Machine::ksr1(21).unwrap();
        let lock = SwRwLock::alloc(&mut m).unwrap();
        let shared = m.alloc_subpage(16).unwrap();
        m.run(
            (0..8)
                .map(|_| {
                    program(move |mut cpu| async move {
                        for _ in 0..8 {
                            let t = lock.acquire(&mut cpu, LockMode::Write).await;
                            let a = cpu.read_u64(shared).await;
                            cpu.compute(29);
                            cpu.write_u64(shared, a + 1).await;
                            let b = cpu.read_u64(shared + 8).await;
                            assert_eq!(a, b, "mutual exclusion violated");
                            cpu.write_u64(shared + 8, b + 1).await;
                            lock.release(&mut cpu, t).await;
                        }
                    })
                })
                .collect(),
        )
        .expect("run");
        assert_eq!(m.peek_u64(shared).unwrap(), 64);
        assert_eq!(m.peek_u64(shared + 8).unwrap(), 64);
    }

    /// Twice as many queued writers as the reader table has slots: write
    /// tickets never index it, so a write-only queue on 128 cells runs to
    /// the exact count.
    #[test]
    fn write_only_queue_outgrows_the_reader_table() {
        const PROCS: usize = 128;
        let mut m = Machine::new(MachineConfig::ksr_ring(22, &[32, 4])).unwrap();
        let lock = SwRwLock::alloc(&mut m).unwrap();
        let shared = m.alloc_subpage(8).unwrap();
        m.run(
            (0..PROCS)
                .map(|_| {
                    program(move |mut cpu| async move {
                        for _ in 0..2 {
                            let t = lock.acquire(&mut cpu, LockMode::Write).await;
                            let v = cpu.read_u64(shared).await;
                            cpu.write_u64(shared, v + 1).await;
                            lock.release(&mut cpu, t).await;
                        }
                    })
                })
                .collect(),
        )
        .expect("run");
        assert_eq!(m.peek_u64(shared).unwrap(), 2 * PROCS as u64);
    }

    #[test]
    fn concurrent_readers_overlap() {
        // With pure readers, total time must be far below the sum of hold
        // times (readers share) — the whole point of the §3.2.1 result.
        let mut m = Machine::ksr1(22).unwrap();
        let lock = SwRwLock::alloc(&mut m).unwrap();
        let hold = 20_000u64;
        let readers = 8;
        let r = m
            .run(
                (0..readers)
                    .map(|_| {
                        program(move |mut cpu| async move {
                            let t = lock.acquire(&mut cpu, LockMode::Read).await;
                            cpu.compute(hold);
                            lock.release(&mut cpu, t).await;
                        })
                    })
                    .collect(),
            )
            .expect("run");
        assert!(
            r.duration_cycles() < hold * readers / 2,
            "readers must overlap: {} vs serialized {}",
            r.duration_cycles(),
            hold * readers
        );
    }

    #[test]
    fn writer_waits_for_all_readers() {
        let mut m = Machine::ksr1(23).unwrap();
        let lock = SwRwLock::alloc(&mut m).unwrap();
        let data = m.alloc_subpage(8).unwrap();
        m.poke_u64(data, 1).unwrap();
        let r = m
            .run(vec![
                program(move |mut cpu| async move {
                    let t = lock.acquire(&mut cpu, LockMode::Read).await;
                    let v = cpu.read_u64(data).await;
                    assert_eq!(v, 1);
                    cpu.compute(30_000);
                    let v = cpu.read_u64(data).await;
                    assert_eq!(v, 1, "writer must still be excluded");
                    lock.release(&mut cpu, t).await;
                }),
                program(move |mut cpu| async move {
                    let t = lock.acquire(&mut cpu, LockMode::Read).await;
                    cpu.compute(10_000);
                    lock.release(&mut cpu, t).await;
                }),
                program(move |mut cpu| async move {
                    cpu.compute(2_000); // arrive after the readers
                    let t = lock.acquire(&mut cpu, LockMode::Write).await;
                    cpu.write_u64(data, 2).await;
                    lock.release(&mut cpu, t).await;
                }),
            ])
            .expect("run");
        assert_eq!(m.peek_u64(data).unwrap(), 2);
        assert!(
            r.proc_end[2] > 30_000,
            "writer finished only after the long reader"
        );
    }

    #[test]
    fn fcfs_reader_after_writer_waits() {
        let mut m = Machine::ksr1(24).unwrap();
        let lock = SwRwLock::alloc(&mut m).unwrap();
        let log = m.alloc_subpage(64).unwrap();
        let log_idx = m.alloc_subpage(8).unwrap();
        // Proc 0: long reader. Proc 1: writer queued behind it. Proc 2:
        // reader arriving after the writer — FCFS forbids queue-jumping.
        m.run(vec![
            program(move |mut cpu| async move {
                let t = lock.acquire(&mut cpu, LockMode::Read).await;
                cpu.compute(20_000);
                lock.release(&mut cpu, t).await;
            }),
            program(move |mut cpu| async move {
                cpu.compute(3_000);
                let t = lock.acquire(&mut cpu, LockMode::Write).await;
                let i = cpu.read_u64(log_idx).await;
                cpu.write_u64(log + i * 8, 100).await;
                cpu.write_u64(log_idx, i + 1).await;
                lock.release(&mut cpu, t).await;
            }),
            program(move |mut cpu| async move {
                cpu.compute(6_000);
                let t = lock.acquire(&mut cpu, LockMode::Read).await;
                let i = cpu.read_u64(log_idx).await;
                cpu.write_u64(log + i * 8, 200).await;
                cpu.write_u64(log_idx, i + 1).await;
                lock.release(&mut cpu, t).await;
            }),
        ])
        .expect("run");
        assert_eq!(
            m.peek_u64(log).unwrap(),
            100,
            "writer entered before the later reader"
        );
        assert_eq!(m.peek_u64(log + 8).unwrap(), 200);
    }

    #[test]
    fn writer_after_drained_readers_advances_itself() {
        let mut m = Machine::ksr1(26).unwrap();
        let lock = SwRwLock::alloc(&mut m).unwrap();
        let data = m.alloc_subpage(8).unwrap();
        m.run(vec![
            program(move |mut cpu| async move {
                let t = lock.acquire(&mut cpu, LockMode::Read).await;
                cpu.compute(100);
                lock.release(&mut cpu, t).await;
            }),
            program(move |mut cpu| async move {
                cpu.compute(50_000); // the reader is long gone
                let t = lock.acquire(&mut cpu, LockMode::Write).await;
                cpu.write_u64(data, 1).await;
                lock.release(&mut cpu, t).await;
            }),
        ])
        .expect("run");
        assert_eq!(
            m.peek_u64(data).unwrap(),
            1,
            "writer must not deadlock behind a drained ticket"
        );
    }

    #[test]
    fn late_reader_combines_with_in_service_ticket() {
        // A reader arriving while a read ticket is being served must enter
        // immediately (combining), not queue.
        let mut m = Machine::ksr1(27).unwrap();
        let lock = SwRwLock::alloc(&mut m).unwrap();
        let r = m
            .run(vec![
                program(move |mut cpu| async move {
                    let t = lock.acquire(&mut cpu, LockMode::Read).await;
                    cpu.compute(40_000);
                    lock.release(&mut cpu, t).await;
                }),
                program(move |mut cpu| async move {
                    cpu.compute(10_000); // proc 0 is mid-hold
                    let t = lock.acquire(&mut cpu, LockMode::Read).await;
                    cpu.compute(100);
                    lock.release(&mut cpu, t).await;
                }),
            ])
            .expect("run");
        assert!(
            r.proc_end[1] < 20_000,
            "combining reader must not wait for the holder: {}",
            r.proc_end[1]
        );
    }

    #[test]
    fn interleaved_modes_stress() {
        let mut m = Machine::ksr1(25).unwrap();
        let lock = SwRwLock::alloc(&mut m).unwrap();
        let counter = m.alloc_subpage(8).unwrap();
        let procs = 10;
        let iters = 6;
        m.run(
            (0..procs)
                .map(|p| {
                    program(move |mut cpu| async move {
                        for i in 0..iters {
                            if (p + i) % 3 == 0 {
                                let t = lock.acquire(&mut cpu, LockMode::Write).await;
                                let v = cpu.read_u64(counter).await;
                                cpu.compute(13);
                                cpu.write_u64(counter, v + 1).await;
                                lock.release(&mut cpu, t).await;
                            } else {
                                let t = lock.acquire(&mut cpu, LockMode::Read).await;
                                let _ = cpu.read_u64(counter).await;
                                cpu.compute(13);
                                lock.release(&mut cpu, t).await;
                            }
                        }
                    })
                })
                .collect(),
        )
        .expect("run");
        let expected: u64 = (0..procs)
            .map(|p| (0..iters).filter(|i| (p + i) % 3 == 0).count() as u64)
            .sum();
        assert_eq!(m.peek_u64(counter).unwrap(), expected, "no write was lost");
    }

    #[test]
    fn ticket_accessors() {
        let mut m = Machine::ksr1(1).unwrap();
        let lock = SwRwLock::alloc(&mut m).unwrap();
        m.run(vec![program(move |mut cpu| async move {
            let t = lock.acquire(&mut cpu, LockMode::Write).await;
            assert_eq!(t.number(), 0);
            assert_eq!(t.mode(), LockMode::Write);
            lock.release(&mut cpu, t).await;
            let t = lock.acquire(&mut cpu, LockMode::Read).await;
            assert_eq!(t.number(), 1);
            assert_eq!(t.mode(), LockMode::Read);
            lock.release(&mut cpu, t).await;
        })])
        .expect("run");
    }
}
