//! The Conjugate Gradient (CG) kernel (§3.3.1, Table 1, Figure 8).
//!
//! "The CG kernel computes an approximation to the smallest eigenvalue of
//! a sparse symmetric positive definite matrix. On profiling the original
//! sequential code, we observed that most of the time (more than 90%) is
//! spent in a sparse matrix multiplication routine of the form y = Ax...
//! Since most of the time is spent only in this multiplication routine, we
//! parallelized only this routine for this study."
//!
//! Exactly as in the paper, the parallel version distributes *rows* of the
//! row-start/column-index matrix across processors — processor `p`
//! produces its block of `y` with no synchronization — while the remaining
//! vector operations (dots, AXPYs, direction update) run as a **serial
//! section** on processor 0. That serial section is what the paper blames
//! for the speedup drop at 32 processors: "the processor that executes the
//! serial code has more data to fetch from all the processors thus
//! increasing the number of remote references." The optional `poststore`
//! mode pushes each just-computed `q` sub-page to its place holders,
//! overlapping that communication with the parallel phase (the +3%
//! improvement the paper measured at 16 processors).

pub mod matrix;

pub use matrix::{random_spd, CsrMatrix};

use ksr_core::Result;
use ksr_machine::{program, Machine, Program, SharedF64, SharedU64};
use ksr_sync::{BarrierAlg, Episode, SystemBarrier};

/// CG problem parameters.
#[derive(Debug, Clone, Copy)]
pub struct CgConfig {
    /// Matrix dimension (paper: 14000; scaled default: 1400).
    pub n: usize,
    /// Average off-diagonal entries per row (paper: ~145 for 2.03M
    /// non-zeros; scaled default: 14).
    pub offdiag_per_row: usize,
    /// CG iterations to run.
    pub iterations: usize,
    /// Matrix seed.
    pub seed: u64,
    /// Use `poststore` to propagate `q` values as they are computed.
    pub poststore: bool,
    /// §4-extension experiment: turn sub-caching off for the streamed
    /// matrix arrays (`values`, `col_idx`), so they stop thrashing the
    /// reused vectors out of the sub-cache. This is the hypothesis §3.3.1
    /// says the authors could not test for lack of language support.
    pub uncache_matrix: bool,
}

impl Default for CgConfig {
    fn default() -> Self {
        Self {
            n: 1400,
            offdiag_per_row: 14,
            iterations: 6,
            seed: 20_030_101,
            poststore: true,
            uncache_matrix: false,
        }
    }
}

/// Result of a CG run: solution checksum and final residual.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CgResult {
    /// Sum of the solution vector (cheap cross-check between runs).
    pub x_checksum: f64,
    /// `||r||²` after the final iteration.
    pub residual_sq: f64,
}

/// Sequential reference: CG on `Ax = b` with `b = A·1` (so the exact
/// solution is the all-ones vector). Returns the result after
/// `cfg.iterations` iterations.
#[must_use]
pub fn cg_sequential(cfg: &CgConfig) -> CgResult {
    let a = random_spd(cfg.n, cfg.offdiag_per_row, cfg.seed);
    let ones = vec![1.0; cfg.n];
    let mut b = vec![0.0; cfg.n];
    a.matvec(&ones, &mut b);

    let n = cfg.n;
    let mut x = vec![0.0; n];
    let mut r = b;
    let mut p = r.clone();
    let mut q = vec![0.0; n];
    let mut rho: f64 = r.iter().map(|v| v * v).sum();
    for _ in 0..cfg.iterations {
        a.matvec(&p, &mut q);
        let pq: f64 = p.iter().zip(&q).map(|(a, b)| a * b).sum();
        let alpha = rho / pq;
        for i in 0..n {
            x[i] += alpha * p[i];
            r[i] -= alpha * q[i];
        }
        let rho_new: f64 = r.iter().map(|v| v * v).sum();
        let beta = rho_new / rho;
        rho = rho_new;
        for i in 0..n {
            p[i] = r[i] + beta * p[i];
        }
    }
    CgResult {
        x_checksum: x.iter().sum(),
        residual_sq: rho,
    }
}

/// CG wired onto a simulated machine.
#[derive(Debug)]
pub struct CgSetup {
    cfg: CgConfig,
    values: SharedF64,
    col_idx: SharedU64,
    row_start: SharedU64,
    x: SharedF64,
    r: SharedF64,
    p: SharedF64,
    q: SharedF64,
    /// Scalars: [rho, result_checksum, result_residual].
    scalars: SharedF64,
    barrier: SystemBarrier,
    procs: usize,
}

impl CgSetup {
    /// Allocate and initialise the shared problem state. Matrix data is
    /// warmed into processor 0's local cache (the sequential setup code
    /// ran there), so first-iteration fetches by other processors are the
    /// same compulsory remote misses the real run would see.
    pub fn new(m: &mut Machine, cfg: CgConfig, procs: usize) -> Result<Self> {
        let a = random_spd(cfg.n, cfg.offdiag_per_row, cfg.seed);
        let n = cfg.n;
        let nnz = a.nnz();
        let values = SharedF64::alloc(m, nnz)?;
        let col_idx = SharedU64::alloc(m, nnz)?;
        let row_start = SharedU64::alloc(m, n + 1)?;
        let x = SharedF64::alloc(m, n)?;
        let r = SharedF64::alloc(m, n)?;
        let p = SharedF64::alloc(m, n)?;
        let q = SharedF64::alloc(m, n)?;
        let scalars = SharedF64::alloc(m, 3)?;
        for (k, &v) in a.values.iter().enumerate() {
            values.poke(m, k, v);
        }
        for (k, &c) in a.col_idx.iter().enumerate() {
            col_idx.poke(m, k, c as u64);
        }
        for (i, &s) in a.row_start.iter().enumerate() {
            row_start.poke(m, i, s as u64);
        }
        // b = A·1; r = p = b; x = 0.
        let ones = vec![1.0; n];
        let mut b = vec![0.0; n];
        a.matvec(&ones, &mut b);
        let mut rho = 0.0;
        for (i, &bi) in b.iter().enumerate() {
            x.poke(m, i, 0.0);
            r.poke(m, i, bi);
            p.poke(m, i, bi);
            q.poke(m, i, 0.0);
            rho += bi * bi;
        }
        scalars.poke(m, 0, rho);
        // The sequential setup ran on cell 0.
        m.warm(0, values.addr(0), nnz as u64 * 8);
        m.warm(0, col_idx.addr(0), nnz as u64 * 8);
        m.warm(0, row_start.addr(0), (n as u64 + 1) * 8);
        for v in [&x, &r, &p, &q] {
            m.warm(0, v.addr(0), n as u64 * 8);
        }
        if cfg.uncache_matrix {
            m.set_uncached(values.addr(0), nnz as u64 * 8);
            m.set_uncached(col_idx.addr(0), nnz as u64 * 8);
        }
        let barrier = SystemBarrier::alloc(m, procs)?;
        Ok(Self {
            cfg,
            values,
            col_idx,
            row_start,
            x,
            r,
            p,
            q,
            scalars,
            barrier,
            procs,
        })
    }

    /// One program per processor.
    #[must_use]
    pub fn programs(&self) -> Vec<Box<dyn Program>> {
        let procs = self.procs;
        let cfg = self.cfg;
        let (values, col_idx, row_start) = (self.values, self.col_idx, self.row_start);
        let (x, r, p_vec, q, scalars, barrier) =
            (self.x, self.r, self.p, self.q, self.scalars, self.barrier);
        (0..procs)
            .map(|pid| {
                program(move |mut cpu| async move {
                    let n = cfg.n;
                    let lo = pid * n / procs;
                    let hi = (pid + 1) * n / procs;
                    let mut ep = Episode::default();
                    for _ in 0..cfg.iterations {
                        // ---- parallel phase: q[lo..hi] = (A p)[lo..hi]
                        let mut rs = row_start.get(&mut cpu, lo).await as usize;
                        for i in lo..hi {
                            let re = row_start.get(&mut cpu, i + 1).await as usize;
                            let mut sum = 0.0;
                            for k in rs..re {
                                let v = values.get(&mut cpu, k).await;
                                let c = col_idx.get(&mut cpu, k).await as usize;
                                let xv = p_vec.get(&mut cpu, c).await;
                                sum += v * xv;
                                cpu.flops(2);
                                cpu.compute(2); // index arithmetic
                            }
                            q.set(&mut cpu, i, sum).await;
                            // Propagate finished sub-pages eagerly so the
                            // serial section finds them locally.
                            if cfg.poststore && (i + 1) % 16 == 0 {
                                q.poststore(&mut cpu, i).await;
                            }
                            rs = re;
                        }
                        if cfg.poststore && hi > lo {
                            q.poststore(&mut cpu, hi - 1).await;
                        }
                        barrier.wait(&mut cpu, &mut ep).await;
                        // ---- serial section on processor 0
                        if pid == 0 {
                            let rho = scalars.get(&mut cpu, 0).await;
                            let mut pq = 0.0;
                            for i in 0..n {
                                pq += p_vec.get(&mut cpu, i).await * q.get(&mut cpu, i).await;
                                cpu.flops(2);
                            }
                            let alpha = rho / pq;
                            cpu.flops(1);
                            let mut rho_new = 0.0;
                            for i in 0..n {
                                let xi =
                                    x.get(&mut cpu, i).await + alpha * p_vec.get(&mut cpu, i).await;
                                x.set(&mut cpu, i, xi).await;
                                let ri =
                                    r.get(&mut cpu, i).await - alpha * q.get(&mut cpu, i).await;
                                r.set(&mut cpu, i, ri).await;
                                rho_new += ri * ri;
                                cpu.flops(6);
                            }
                            let beta = rho_new / rho;
                            cpu.flops(1);
                            for i in 0..n {
                                let pi =
                                    r.get(&mut cpu, i).await + beta * p_vec.get(&mut cpu, i).await;
                                p_vec.set(&mut cpu, i, pi).await;
                                cpu.flops(2);
                            }
                            scalars.set(&mut cpu, 0, rho_new).await;
                        }
                        barrier.wait(&mut cpu, &mut ep).await;
                    }
                    if pid == 0 {
                        let mut sum = 0.0;
                        for i in 0..n {
                            sum += x.get(&mut cpu, i).await;
                            cpu.flops(1);
                        }
                        scalars.set(&mut cpu, 1, sum).await;
                        let rho = scalars.get(&mut cpu, 0).await;
                        scalars.set(&mut cpu, 2, rho).await;
                    }
                })
            })
            .collect()
    }

    /// Read back the result after a run.
    pub fn result(&self, m: &mut Machine) -> CgResult {
        CgResult {
            x_checksum: self.scalars.peek(m, 1),
            residual_sq: self.scalars.peek(m, 2),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> CgConfig {
        CgConfig {
            n: 120,
            offdiag_per_row: 6,
            iterations: 4,
            seed: 77,
            poststore: false,
            uncache_matrix: false,
        }
    }

    #[test]
    fn sequential_residual_shrinks() {
        let cfg = tiny();
        let r1 = cg_sequential(&CgConfig {
            iterations: 1,
            ..cfg
        });
        let r4 = cg_sequential(&CgConfig {
            iterations: 4,
            ..cfg
        });
        assert!(
            r4.residual_sq < r1.residual_sq / 10.0,
            "{} vs {}",
            r4.residual_sq,
            r1.residual_sq
        );
    }

    #[test]
    fn sequential_converges_to_ones() {
        // b = A·1, so x -> 1 and the checksum -> n.
        let cfg = CgConfig {
            iterations: 30,
            ..tiny()
        };
        let r = cg_sequential(&cfg);
        assert!(
            (r.x_checksum - cfg.n as f64).abs() < 0.1,
            "checksum {} should approach n={}",
            r.x_checksum,
            cfg.n
        );
    }

    #[test]
    fn parallel_matches_sequential_bitwise() {
        let cfg = tiny();
        let reference = cg_sequential(&cfg);
        for procs in [1usize, 2, 5] {
            let mut m = Machine::ksr1_scaled(42, 64).unwrap();
            let setup = CgSetup::new(&mut m, cfg, procs).unwrap();
            m.run(setup.programs()).expect("run");
            let got = setup.result(&mut m);
            assert_eq!(
                got.x_checksum.to_bits(),
                reference.x_checksum.to_bits(),
                "procs={procs}: parallel CG must be bitwise identical"
            );
            assert_eq!(got.residual_sq.to_bits(), reference.residual_sq.to_bits());
        }
    }

    #[test]
    fn poststore_variant_is_numerically_identical() {
        let cfg = tiny();
        let plain = cg_sequential(&cfg);
        let mut m = Machine::ksr1_scaled(43, 64).unwrap();
        let setup = CgSetup::new(
            &mut m,
            CgConfig {
                poststore: true,
                ..cfg
            },
            4,
        )
        .unwrap();
        m.run(setup.programs()).expect("run");
        assert_eq!(
            setup.result(&mut m).x_checksum.to_bits(),
            plain.x_checksum.to_bits()
        );
    }

    #[test]
    fn parallel_speeds_up() {
        let cfg = tiny();
        let time = |procs| {
            let mut m = Machine::ksr1_scaled(44, 64).unwrap();
            let setup = CgSetup::new(&mut m, cfg, procs).unwrap();
            m.run(setup.programs()).expect("run").duration_cycles()
        };
        let t1 = time(1);
        let t4 = time(4);
        assert!(
            (t1 as f64 / t4 as f64) > 1.8,
            "CG should speed up: t1={t1} t4={t4}"
        );
    }
}
