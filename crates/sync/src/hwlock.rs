//! The naive hardware exclusive lock of §3.2.1.
//!
//! "The KSR-1 hardware primitive get_sub_page provides an exclusive lock
//! on a sub-page for the requesting processor. This exclusive lock is
//! relinquished using the release_sub_page instruction. The hardware does
//! not guarantee FCFS to resolve lock contention but does guarantee
//! forward progress due to the unidirectionality of the ring."
//!
//! The paper's Figure 3 measures this lock against the software read/write
//! queue lock: it serializes *all* requests regardless of read-sharing,
//! which is exactly the weakness the experiment exposes.

use ksr_core::Result;
use ksr_machine::{Cpu, Machine};

/// An exclusive lock occupying one private sub-page.
#[derive(Debug, Clone, Copy)]
pub struct HwLock {
    addr: u64,
}

impl HwLock {
    /// Allocate the lock's sub-page.
    pub fn alloc(m: &mut Machine) -> Result<Self> {
        Ok(Self {
            addr: m.alloc_subpage(8)?,
        })
    }

    /// Sub-page address (diagnostics).
    #[must_use]
    pub fn addr(&self) -> u64 {
        self.addr
    }

    /// Spin until the sub-page is acquired atomically. Each retry is a
    /// fresh ring transaction issued as soon as the previous rejection
    /// returns, exactly like hardware spinning on `get_sub_page`; the
    /// machine retries in the coordinator
    /// ([`Cpu::acquire_sub_page`]), so the calling program resumes once.
    pub async fn acquire(&self, cpu: &mut Cpu) {
        cpu.acquire_sub_page(self.addr).await;
    }

    /// One acquisition attempt.
    pub async fn try_acquire(&self, cpu: &mut Cpu) -> bool {
        cpu.get_sub_page(self.addr).await
    }

    /// Release the lock.
    pub async fn release(&self, cpu: &mut Cpu) {
        cpu.release_sub_page(self.addr).await;
    }
}

#[cfg(test)]
mod tests {
    use ksr_machine::program;

    use super::*;

    #[test]
    fn mutual_exclusion_holds() {
        let mut m = Machine::ksr1(3).unwrap();
        let lock = HwLock::alloc(&mut m).unwrap();
        let shared = m.alloc_subpage(16).unwrap();
        // Two words updated non-atomically inside the critical section;
        // they stay equal only if the lock excludes.
        m.poke_u64(shared, 0).unwrap();
        m.poke_u64(shared + 8, 0).unwrap();
        m.run(
            (0..8)
                .map(|_| {
                    program(move |mut cpu| async move {
                        for _ in 0..10 {
                            lock.acquire(&mut cpu).await;
                            let a = cpu.read_u64(shared).await;
                            cpu.compute(37); // widen the race window
                            cpu.write_u64(shared, a + 1).await;
                            let b = cpu.read_u64(shared + 8).await;
                            assert_eq!(a, b, "critical-section invariant violated");
                            cpu.write_u64(shared + 8, b + 1).await;
                            lock.release(&mut cpu).await;
                        }
                    })
                })
                .collect(),
        )
        .expect("run");
        assert_eq!(m.peek_u64(shared).unwrap(), 80);
        assert_eq!(m.peek_u64(shared + 8).unwrap(), 80);
    }

    #[test]
    fn try_acquire_fails_while_held() {
        let mut m = Machine::ksr1(9).unwrap();
        let lock = HwLock::alloc(&mut m).unwrap();
        m.run(vec![
            program(move |mut cpu| async move {
                assert!(lock.try_acquire(&mut cpu).await);
                cpu.compute(5_000);
                lock.release(&mut cpu).await;
            }),
            program(move |mut cpu| async move {
                cpu.compute(1_000); // proc 0 holds the lock now
                assert!(!lock.try_acquire(&mut cpu).await, "lock is held");
                cpu.compute(10_000); // past the release
                assert!(lock.try_acquire(&mut cpu).await, "lock is free");
                lock.release(&mut cpu).await;
            }),
        ])
        .expect("run");
    }

    #[test]
    fn forward_progress_under_heavy_contention() {
        let mut m = Machine::ksr1(17).unwrap();
        let lock = HwLock::alloc(&mut m).unwrap();
        let counter = m.alloc_subpage(8).unwrap();
        m.run(
            (0..16)
                .map(|_| {
                    program(move |mut cpu| async move {
                        for _ in 0..5 {
                            lock.acquire(&mut cpu).await;
                            let v = cpu.read_u64(counter).await;
                            cpu.write_u64(counter, v + 1).await;
                            lock.release(&mut cpu).await;
                        }
                    })
                })
                .collect(),
        )
        .expect("run");
        assert_eq!(m.peek_u64(counter).unwrap(), 80);
    }
}
