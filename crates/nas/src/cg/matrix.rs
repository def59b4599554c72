//! The sparse matrix for the CG kernel, in the paper's improved
//! row-start / column-index format.
//!
//! "The sequential code uses a sparse matrix representation based on a
//! column start, row index format... the elements of y are computed in a
//! piece-meal manner owing to the indirection in accessing the y vector.
//! Therefore, there is a potential for increased cache misses... Thus we
//! modified the sparse matrix representation to a row start, column index
//! format. This new format also helps in parallelizing this loop."
//! (§3.3.1, Figures 6 and 7)

use ksr_core::XorShift64;

/// Row-start / column-index (CSR) — the paper's improved format: each
/// `y[i]` is computed in its entirety, rows partition cleanly across
/// processors with no synchronization on `y`.
#[derive(Debug, Clone, PartialEq)]
pub struct CsrMatrix {
    /// Dimension.
    pub n: usize,
    /// `row_start[i]..row_start[i+1]` indexes row `i`'s entries.
    pub row_start: Vec<usize>,
    /// Column of each entry.
    pub col_idx: Vec<usize>,
    /// Value of each entry.
    pub values: Vec<f64>,
}

impl CsrMatrix {
    /// Number of stored entries.
    #[must_use]
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// `y = A x` (the Figure-6 loop, rewritten row-wise).
    pub fn matvec(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.n);
        assert_eq!(y.len(), self.n);
        for (i, yi) in y.iter_mut().enumerate() {
            let mut sum = 0.0;
            for k in self.row_start[i]..self.row_start[i + 1] {
                sum += self.values[k] * x[self.col_idx[k]];
            }
            *yi = sum;
        }
    }
}

/// Generate a random sparse symmetric positive-definite matrix with about
/// `offdiag_per_row` off-diagonal entries per row (strictly diagonally
/// dominant, hence SPD). Deterministic in `seed`.
#[must_use]
pub fn random_spd(n: usize, offdiag_per_row: usize, seed: u64) -> CsrMatrix {
    let mut rng = XorShift64::new(seed);
    // Symmetric off-diagonal pattern.
    let mut rows: Vec<Vec<(usize, f64)>> = vec![Vec::new(); n];
    let pairs = n * offdiag_per_row / 2;
    for _ in 0..pairs {
        let i = rng.next_index(n);
        let j = rng.next_index(n);
        if i == j {
            continue;
        }
        let v = rng.next_f64() * 0.5 + 0.05;
        rows[i].push((j, v));
        rows[j].push((i, v));
    }
    // Merge duplicates, add a dominant diagonal.
    let mut row_start = Vec::with_capacity(n + 1);
    let mut col_idx = Vec::new();
    let mut values = Vec::new();
    row_start.push(0);
    for (i, row) in rows.iter_mut().enumerate() {
        row.sort_by_key(|&(j, _)| j);
        let mut merged: Vec<(usize, f64)> = Vec::with_capacity(row.len() + 1);
        for &(j, v) in row.iter() {
            match merged.last_mut() {
                Some(last) if last.0 == j => last.1 += v,
                _ => merged.push((j, v)),
            }
        }
        let offdiag_sum: f64 = merged.iter().map(|&(_, v)| v.abs()).sum();
        let diag = offdiag_sum + 1.0;
        let pos = merged.partition_point(|&(j, _)| j < i);
        merged.insert(pos, (i, diag));
        for (j, v) in merged {
            col_idx.push(j);
            values.push(v);
        }
        row_start.push(col_idx.len());
    }
    CsrMatrix {
        n,
        row_start,
        col_idx,
        values,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dense(a: &CsrMatrix) -> Vec<Vec<f64>> {
        let mut d = vec![vec![0.0; a.n]; a.n];
        for (i, row) in d.iter_mut().enumerate() {
            for k in a.row_start[i]..a.row_start[i + 1] {
                row[a.col_idx[k]] += a.values[k];
            }
        }
        d
    }

    #[test]
    fn generator_is_deterministic() {
        assert_eq!(random_spd(50, 6, 9), random_spd(50, 6, 9));
    }

    #[test]
    fn generated_matrix_is_symmetric() {
        let a = random_spd(40, 8, 3);
        let d = dense(&a);
        for (i, row) in d.iter().enumerate() {
            for (j, &v) in row.iter().enumerate() {
                assert!((v - d[j][i]).abs() < 1e-12, "asymmetry at ({i},{j})");
            }
        }
    }

    #[test]
    fn generated_matrix_is_diagonally_dominant() {
        let a = random_spd(60, 10, 4);
        let d = dense(&a);
        for (i, row) in d.iter().enumerate() {
            let off: f64 = row
                .iter()
                .enumerate()
                .filter(|&(j, _)| j != i)
                .map(|(_, v)| v.abs())
                .sum();
            assert!(row[i] > off, "row {i} not dominant");
        }
    }

    #[test]
    fn row_structure_is_sorted_and_consistent() {
        let a = random_spd(30, 4, 5);
        assert_eq!(a.row_start.len(), a.n + 1);
        assert_eq!(*a.row_start.last().unwrap(), a.nnz());
        for i in 0..a.n {
            let cols = &a.col_idx[a.row_start[i]..a.row_start[i + 1]];
            assert!(
                cols.windows(2).all(|w| w[0] < w[1]),
                "row {i} unsorted or dup"
            );
        }
    }

    #[test]
    fn matvec_identity_like() {
        // Diagonal-only matrix (no accepted off-diagonal pairs possible
        // with offdiag_per_row = 0).
        let a = random_spd(10, 0, 1);
        let x = vec![2.0; 10];
        let mut y = vec![0.0; 10];
        a.matvec(&x, &mut y);
        for &yi in &y {
            assert!(
                (yi - 2.0).abs() < 1e-12,
                "diag must be 1.0 with no off-diag"
            );
        }
    }
}
