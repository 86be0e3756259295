//! Dense LU factorization with partial pivoting.
//!
//! The MNA systems produced by the DRAM-cell netlist are tiny (≈10 unknowns),
//! so a dense solver is both simpler and faster than sparse machinery.
//! [`Matrix::solve_in_place`] takes any dimension; [`fixed_lu`] returns the
//! same solve compiled for one fixed dimension up to [`FIXED_LU_MAX`], which
//! the batched transient solver uses.

use crate::error::SpiceError;

/// A dense square matrix in row-major order.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    n: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates an `n × n` zero matrix.
    pub fn zeros(n: usize) -> Self {
        Matrix {
            n,
            data: vec![0.0; n * n],
        }
    }

    /// Matrix dimension.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Returns element `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range indices.
    pub fn get(&self, row: usize, col: usize) -> f64 {
        assert!(row < self.n && col < self.n);
        self.data[row * self.n + col]
    }

    /// Sets element `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range indices.
    pub fn set(&mut self, row: usize, col: usize, value: f64) {
        assert!(row < self.n && col < self.n);
        self.data[row * self.n + col] = value;
    }

    /// Adds `value` to element `(row, col)` — the MNA "stamp" operation.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range indices.
    pub fn add(&mut self, row: usize, col: usize, value: f64) {
        assert!(row < self.n && col < self.n);
        self.data[row * self.n + col] += value;
    }

    /// Resets all elements to zero, preserving the allocation.
    pub fn clear(&mut self) {
        self.data.iter_mut().for_each(|v| *v = 0.0);
    }

    /// Overwrites this matrix with the contents of `other` without
    /// allocating — the workspace-reuse analogue of `clone()`.
    ///
    /// # Panics
    ///
    /// Panics if the dimensions differ.
    pub fn copy_from(&mut self, other: &Matrix) {
        assert_eq!(self.n, other.n, "matrix dimensions must match");
        self.data.copy_from_slice(&other.data);
    }

    /// Solves `A · x = b` in place via LU with partial pivoting; `self` is
    /// consumed as workspace (overwritten with the factors).
    ///
    /// # Errors
    ///
    /// Returns [`SpiceError::SingularMatrix`] (with `time = 0`; callers attach
    /// the actual simulation time) when a pivot underflows.
    ///
    /// # Panics
    ///
    /// Panics if `b.len() != n`.
    pub fn solve_in_place(&mut self, b: &mut [f64]) -> Result<(), SpiceError> {
        let n = self.n;
        assert_eq!(b.len(), n, "rhs length must match matrix dimension");
        const PIVOT_EPS: f64 = 1e-30;
        for col in 0..n {
            // partial pivot
            let mut pivot_row = col;
            let mut pivot_val = self.data[col * n + col].abs();
            for row in (col + 1)..n {
                let v = self.data[row * n + col].abs();
                if v > pivot_val {
                    pivot_val = v;
                    pivot_row = row;
                }
            }
            if pivot_val < PIVOT_EPS {
                return Err(SpiceError::SingularMatrix { time: 0.0 });
            }
            if pivot_row != col {
                for k in 0..n {
                    self.data.swap(col * n + k, pivot_row * n + k);
                }
                b.swap(col, pivot_row);
            }
            let pivot = self.data[col * n + col];
            for row in (col + 1)..n {
                let factor = self.data[row * n + col] / pivot;
                if factor == 0.0 {
                    continue;
                }
                self.data[row * n + col] = 0.0;
                for k in (col + 1)..n {
                    self.data[row * n + k] -= factor * self.data[col * n + k];
                }
                b[row] -= factor * b[col];
            }
        }
        // back substitution
        for row in (0..n).rev() {
            let mut sum = b[row];
            for (k, &bk) in b.iter().enumerate().take(n).skip(row + 1) {
                sum -= self.data[row * n + k] * bk;
            }
            b[row] = sum / self.data[row * n + row];
        }
        Ok(())
    }
}

/// An in-place solve of `A · x = b` under [`Matrix::solve_in_place`]'s
/// contract: `A` is overwritten with its factors, `b` with the solution.
pub type Solve = fn(&mut Matrix, &mut [f64]) -> Result<(), SpiceError>;

/// The largest dimension with a fixed-size kernel in [`fixed_lu`].
pub const FIXED_LU_MAX: usize = 16;

/// The fixed-size LU kernel for `n × n` systems, for `1 ≤ n ≤`
/// [`FIXED_LU_MAX`].
///
/// Each kernel repeats [`Matrix::solve_in_place`] operation for operation:
/// the same strict-`>` pivot search and pivot threshold, whole-row swaps,
/// the same skipped zero factors, row updates and back substitution, each
/// in the same order and without fused or reciprocal arithmetic. Its
/// results therefore match bit for bit, errors included. It gains its
/// speed from the dimension being a constant: the rows are `[f64; N]`
/// arrays, so the loops have fixed trip counts and no bounds checks.
pub fn fixed_lu(n: usize) -> Option<Solve> {
    const KERNELS: [Solve; FIXED_LU_MAX] = [
        solve_fixed::<1>,
        solve_fixed::<2>,
        solve_fixed::<3>,
        solve_fixed::<4>,
        solve_fixed::<5>,
        solve_fixed::<6>,
        solve_fixed::<7>,
        solve_fixed::<8>,
        solve_fixed::<9>,
        solve_fixed::<10>,
        solve_fixed::<11>,
        solve_fixed::<12>,
        solve_fixed::<13>,
        solve_fixed::<14>,
        solve_fixed::<15>,
        solve_fixed::<16>,
    ];
    KERNELS.get(n.checked_sub(1)?).copied()
}

/// Views the matrix as `N` rows of `[f64; N]` and runs [`lu_rows`].
///
/// # Panics
///
/// Panics if the matrix is not `N × N` or `b.len() != N`.
fn solve_fixed<const N: usize>(m: &mut Matrix, b: &mut [f64]) -> Result<(), SpiceError> {
    assert_eq!(m.n, N, "matrix dimension must match the kernel");
    let (rows, _) = m.data.as_chunks_mut::<N>();
    let a: &mut [[f64; N]; N] = rows.try_into().expect("N × N matrix has N rows");
    let b: &mut [f64; N] = b
        .try_into()
        .expect("rhs length must match matrix dimension");
    lu_rows(a, b)
}

/// LU with partial pivoting on a fixed-size system, in the exact operation
/// order of [`Matrix::solve_in_place`].
fn lu_rows<const N: usize>(a: &mut [[f64; N]; N], b: &mut [f64; N]) -> Result<(), SpiceError> {
    // The threshold of `Matrix::solve_in_place`.
    const PIVOT_EPS: f64 = 1e-30;
    for col in 0..N {
        // partial pivot: the first row holding the largest magnitude
        let mut pivot_row = col;
        let mut pivot_val = a[col][col].abs();
        for (row, r) in a.iter().enumerate().skip(col + 1) {
            let v = r[col].abs();
            if v > pivot_val {
                pivot_val = v;
                pivot_row = row;
            }
        }
        if pivot_val < PIVOT_EPS {
            return Err(SpiceError::SingularMatrix { time: 0.0 });
        }
        if pivot_row != col {
            a.swap(col, pivot_row);
            b.swap(col, pivot_row);
        }
        let (upper, lower) = a.split_at_mut(col + 1);
        let pivot_r = &upper[col];
        let pivot = pivot_r[col];
        let (b_upper, b_lower) = b.split_at_mut(col + 1);
        let b_pivot = b_upper[col];
        for (r, br) in lower.iter_mut().zip(b_lower) {
            let factor = r[col] / pivot;
            if factor == 0.0 {
                continue;
            }
            r[col] = 0.0;
            for (x, &p) in r[col + 1..].iter_mut().zip(&pivot_r[col + 1..]) {
                *x -= factor * p;
            }
            *br -= factor * b_pivot;
        }
    }
    // back substitution
    for row in (0..N).rev() {
        let mut sum = b[row];
        for (&x, &bk) in a[row][row + 1..].iter().zip(&b[row + 1..]) {
            sum -= x * bk;
        }
        b[row] = sum / a[row][row];
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn from_rows(rows: &[&[f64]]) -> Matrix {
        let n = rows.len();
        let mut m = Matrix::zeros(n);
        for (i, r) in rows.iter().enumerate() {
            for (j, &v) in r.iter().enumerate() {
                m.set(i, j, v);
            }
        }
        m
    }

    #[test]
    fn solves_identity() {
        let mut m = from_rows(&[&[1.0, 0.0], &[0.0, 1.0]]);
        let mut b = vec![3.0, -4.0];
        m.solve_in_place(&mut b).unwrap();
        assert_eq!(b, vec![3.0, -4.0]);
    }

    #[test]
    fn solves_2x2() {
        // 2x + y = 5; x - y = 1  => x = 2, y = 1
        let mut m = from_rows(&[&[2.0, 1.0], &[1.0, -1.0]]);
        let mut b = vec![5.0, 1.0];
        m.solve_in_place(&mut b).unwrap();
        assert!((b[0] - 2.0).abs() < 1e-12);
        assert!((b[1] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn pivoting_handles_zero_diagonal() {
        // First diagonal entry is zero; requires a row swap.
        let mut m = from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]);
        let mut b = vec![2.0, 3.0];
        m.solve_in_place(&mut b).unwrap();
        assert!((b[0] - 3.0).abs() < 1e-12);
        assert!((b[1] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn singular_matrix_detected() {
        let mut m = from_rows(&[&[1.0, 2.0], &[2.0, 4.0]]);
        let mut b = vec![1.0, 2.0];
        assert!(matches!(
            m.solve_in_place(&mut b),
            Err(SpiceError::SingularMatrix { .. })
        ));
    }

    #[test]
    fn solves_larger_system_against_known_solution() {
        // Construct A with known x: b = A * x.
        let n = 6;
        let mut a = Matrix::zeros(n);
        for i in 0..n {
            for j in 0..n {
                let v = 1.0 / (1.0 + (i as f64 - j as f64).abs()) + if i == j { 2.0 } else { 0.0 };
                a.set(i, j, v);
            }
        }
        let x_true: Vec<f64> = (0..n).map(|i| (i as f64) - 2.5).collect();
        let mut b = vec![0.0; n];
        for (i, bi) in b.iter_mut().enumerate() {
            for (j, &xj) in x_true.iter().enumerate() {
                *bi += a.get(i, j) * xj;
            }
        }
        a.solve_in_place(&mut b).unwrap();
        for i in 0..n {
            assert!((b[i] - x_true[i]).abs() < 1e-10, "component {i}");
        }
    }

    #[test]
    fn stamp_accumulates() {
        let mut m = Matrix::zeros(2);
        m.add(0, 0, 1.5);
        m.add(0, 0, 0.5);
        assert_eq!(m.get(0, 0), 2.0);
        m.clear();
        assert_eq!(m.get(0, 0), 0.0);
    }

    #[test]
    #[should_panic]
    fn out_of_range_access_panics() {
        Matrix::zeros(2).get(2, 0);
    }

    #[test]
    fn copy_from_duplicates_bitwise() {
        let src = from_rows(&[&[1.5, -2.0], &[0.25, 1e-300]]);
        let mut dst = Matrix::zeros(2);
        dst.copy_from(&src);
        assert_eq!(dst, src);
        // and solving the copy leaves the source untouched
        let mut b = vec![1.0, 1.0];
        dst.solve_in_place(&mut b).unwrap();
        assert_eq!(src.get(0, 0), 1.5);
    }

    #[test]
    #[should_panic]
    fn copy_from_rejects_dimension_mismatch() {
        Matrix::zeros(2).copy_from(&Matrix::zeros(3));
    }
}
