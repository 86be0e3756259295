//! Dense LU factorization with partial pivoting.
//!
//! The MNA systems produced by the DRAM-cell netlist are tiny (≈10 unknowns),
//! so a dense solver is both simpler and faster than sparse machinery.
//! [`Matrix::solve_in_place`] solves one system of any dimension; it is the
//! reference. [`LaneLu`] solves `L` same-sized systems side by side, one per
//! lane of a [`LaneMatrix`], each lane bit for bit as `solve_in_place` would
//! solve it alone. The transient solver steps its Monte-Carlo trial lanes
//! through it; its one-lane instance is the scalar fast path.

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
    pub(crate) fn clear(&mut self) {
        self.data.iter_mut().for_each(|v| *v = 0.0);
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

/// The largest dimension [`LaneLu`] solves with a fixed-size kernel.
pub const FIXED_LU_MAX: usize = 16;

/// `L` dense `n × n` matrices side by side: entry `(row, col)` holds one
/// value per lane, so lane-wise arithmetic on an entry is one array
/// operation. Row-major, like [`Matrix`].
#[derive(Debug, Clone, PartialEq)]
pub struct LaneMatrix<const L: usize> {
    n: usize,
    data: Vec<[f64; L]>,
}

impl<const L: usize> LaneMatrix<L> {
    /// Creates `L` lanes of `n × n` zero matrices.
    pub fn zeros(n: usize) -> Self {
        LaneMatrix {
            n,
            data: vec![[0.0; L]; n * n],
        }
    }

    /// Returns every lane's element `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range indices.
    pub fn get(&self, row: usize, col: usize) -> [f64; L] {
        assert!(row < self.n && col < self.n);
        self.data[row * self.n + col]
    }

    /// Sets every lane's element `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range indices.
    pub fn set(&mut self, row: usize, col: usize, lanes: [f64; L]) {
        assert!(row < self.n && col < self.n);
        self.data[row * self.n + col] = lanes;
    }

    /// Adds `lanes` to element `(row, col)`, lane by lane — the MNA stamp.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range indices.
    pub(crate) fn add(&mut self, row: usize, col: usize, lanes: [f64; L]) {
        assert!(row < self.n && col < self.n);
        let entry = &mut self.data[row * self.n + col];
        for (x, v) in entry.iter_mut().zip(lanes) {
            *x += v;
        }
    }

    /// Resets every lane to zero, preserving the allocation.
    pub(crate) fn clear(&mut self) {
        self.data.fill([0.0; L]);
    }

    /// Overwrites one lane with the contents of `m`.
    ///
    /// # Panics
    ///
    /// Panics if the dimensions differ or `lane >= L`.
    pub(crate) fn set_lane(&mut self, lane: usize, m: &Matrix) {
        assert_eq!(self.n, m.n, "matrix dimensions must match");
        for (entry, &v) in self.data.iter_mut().zip(&m.data) {
            entry[lane] = v;
        }
    }

    /// Overwrites every lane with the contents of `other` without
    /// allocating.
    ///
    /// # Panics
    ///
    /// Panics if the dimensions differ.
    pub(crate) fn copy_from(&mut self, other: &LaneMatrix<L>) {
        assert_eq!(self.n, other.n, "matrix dimensions must match");
        self.data.copy_from_slice(&other.data);
    }
}

/// A solve over the lanes of a [`LaneMatrix`] in place, for the lanes
/// marked live, returning the lanes whose pivot underflowed.
type LaneKernel<const L: usize> = fn(&mut LaneMatrix<L>, &mut [[f64; L]], [bool; L]) -> [bool; L];

/// LU with partial pivoting over `L` lanes of `n × n` systems: each live
/// lane is solved exactly as [`Matrix::solve_in_place`] solves it alone.
///
/// Up to [`FIXED_LU_MAX`] unknowns the kernel is compiled for the
/// dimension: the rows are `[[f64; L]; N]` arrays, so the loops have fixed
/// trip counts, no bounds checks, and every operation covers all lanes at
/// once. Each lane repeats `solve_in_place` operation for operation: its
/// own strict-`>` pivot search and `1e-30` threshold, the same row swaps,
/// the same skipped zero factors, row updates and back substitution, each
/// in the same order and without fused or reciprocal arithmetic, so its
/// results match bit for bit. Where the lanes disagree (a pivot row, a
/// zero factor) the kernel selects per lane and never lets one lane's
/// arithmetic reach another's. Above [`FIXED_LU_MAX`] each live lane is
/// copied out and solved by `solve_in_place` itself.
#[derive(Debug, Clone)]
pub struct LaneLu<const L: usize> {
    kernel: Option<LaneKernel<L>>,
    /// One lane's system, for dimensions without a fixed-size kernel.
    single: Matrix,
    single_rhs: Vec<f64>,
}

impl<const L: usize> LaneLu<L> {
    /// Picks the solve for `n × n` systems.
    pub fn new(n: usize) -> Self {
        let kernel: Option<LaneKernel<L>> = match n {
            1 => Some(solve_fixed::<1, L>),
            2 => Some(solve_fixed::<2, L>),
            3 => Some(solve_fixed::<3, L>),
            4 => Some(solve_fixed::<4, L>),
            5 => Some(solve_fixed::<5, L>),
            6 => Some(solve_fixed::<6, L>),
            7 => Some(solve_fixed::<7, L>),
            8 => Some(solve_fixed::<8, L>),
            9 => Some(solve_fixed::<9, L>),
            10 => Some(solve_fixed::<10, L>),
            11 => Some(solve_fixed::<11, L>),
            12 => Some(solve_fixed::<12, L>),
            13 => Some(solve_fixed::<13, L>),
            14 => Some(solve_fixed::<14, L>),
            15 => Some(solve_fixed::<15, L>),
            16 => Some(solve_fixed::<16, L>),
            _ => None,
        };
        // Only the per-lane fallback needs a one-lane system.
        let fallback_n = if kernel.is_some() { 0 } else { n };
        LaneLu {
            kernel,
            single: Matrix::zeros(fallback_n),
            single_rhs: vec![0.0; fallback_n],
        }
    }

    /// Solves `A · x = b` in place for every lane marked `live`: `a` is
    /// overwritten with the lane's factors and `b` with its solution, as
    /// [`Matrix::solve_in_place`] would leave them. Returns the live lanes
    /// whose pivot underflowed (`solve_in_place`'s
    /// [`SingularMatrix`](SpiceError::SingularMatrix)); such a lane is left
    /// as `solve_in_place` leaves it when it returns that error. Lanes not
    /// marked live may be overwritten with anything.
    ///
    /// # Panics
    ///
    /// Panics if `a` is not of the dimension this solve was built for or
    /// `b.len()` differs from it.
    pub fn solve(
        &mut self,
        a: &mut LaneMatrix<L>,
        b: &mut [[f64; L]],
        live: [bool; L],
    ) -> [bool; L] {
        if let Some(kernel) = self.kernel {
            return kernel(a, b, live);
        }
        let n = a.n;
        assert_eq!(self.single.n, n, "matrix dimension must match the solve");
        assert_eq!(b.len(), n, "rhs length must match matrix dimension");
        let mut singular = [false; L];
        for lane in (0..L).filter(|&l| live[l]) {
            for (x, entry) in self.single.data.iter_mut().zip(&a.data) {
                *x = entry[lane];
            }
            for (x, entry) in self.single_rhs.iter_mut().zip(b.iter()) {
                *x = entry[lane];
            }
            singular[lane] = self.single.solve_in_place(&mut self.single_rhs).is_err();
            a.set_lane(lane, &self.single);
            for (entry, &x) in b.iter_mut().zip(&self.single_rhs) {
                entry[lane] = x;
            }
        }
        singular
    }
}

/// Views the lanes as `N` rows of `[[f64; L]; N]` and runs [`lu_rows`].
///
/// # Panics
///
/// Panics if the matrix is not `N × N` or `b.len() != N`.
fn solve_fixed<const N: usize, const L: usize>(
    m: &mut LaneMatrix<L>,
    b: &mut [[f64; L]],
    live: [bool; L],
) -> [bool; L] {
    assert_eq!(m.n, N, "matrix dimension must match the kernel");
    let (rows, _) = m.data.as_chunks_mut::<N>();
    let a: &mut [[[f64; L]; N]; N] = rows.try_into().expect("N × N matrix has N rows");
    let b: &mut [[f64; L]; N] = b
        .try_into()
        .expect("rhs length must match matrix dimension");
    lu_rows(a, b, live)
}

/// LU with partial pivoting on `L` lanes of a fixed-size system, each live
/// lane in the exact operation order of [`Matrix::solve_in_place`].
///
/// A lane that fails the pivot threshold stops there, as
/// `solve_in_place` returns there: from then on every swap and update
/// passes it by, so it keeps the factors and right-hand side it had. The
/// other lanes go on. Lanes not live on entry take whatever path is
/// cheapest.
fn lu_rows<const N: usize, const L: usize>(
    a: &mut [[[f64; L]; N]; N],
    b: &mut [[f64; L]; N],
    live: [bool; L],
) -> [bool; L] {
    // The threshold of `Matrix::solve_in_place`.
    const PIVOT_EPS: f64 = 1e-30;
    // Live lanes still being factored; `failed` lanes have stopped.
    let mut going = live;
    let mut failed = [false; L];
    for col in 0..N {
        // partial pivot, per lane: the first row holding the largest
        // magnitude
        let mut pivot_row = [col; L];
        let mut pivot_val = a[col][col].map(f64::abs);
        for (row, r) in a.iter().enumerate().skip(col + 1) {
            for l in 0..L {
                let v = r[col][l].abs();
                if v > pivot_val[l] {
                    pivot_val[l] = v;
                    pivot_row[l] = row;
                }
            }
        }
        for l in 0..L {
            if going[l] && pivot_val[l] < PIVOT_EPS {
                going[l] = false;
                failed[l] = true;
            }
        }
        let Some(first) = going.iter().position(|&g| g) else {
            return failed;
        };
        let stopped = failed.contains(&true);
        let p = pivot_row[first];
        if !stopped && (0..L).all(|l| !going[l] || pivot_row[l] == p) {
            if p != col {
                a.swap(col, p);
                b.swap(col, p);
            }
        } else {
            for l in (0..L).filter(|&l| going[l] && pivot_row[l] != col) {
                // The pivot row lies below `col`.
                let (upper, lower) = a.split_at_mut(pivot_row[l]);
                for (x, y) in upper[col].iter_mut().zip(&mut lower[0]) {
                    std::mem::swap(&mut x[l], &mut y[l]);
                }
                let (upper, lower) = b.split_at_mut(pivot_row[l]);
                std::mem::swap(&mut upper[col][l], &mut lower[0][l]);
            }
        }
        let (upper, lower) = a.split_at_mut(col + 1);
        let pivot_r = &upper[col];
        let pivot = pivot_r[col];
        let (b_upper, b_lower) = b.split_at_mut(col + 1);
        let b_pivot = b_upper[col];
        for (r, br) in lower.iter_mut().zip(b_lower) {
            let factor: [f64; L] = std::array::from_fn(|l| r[col][l] / pivot[l]);
            // A lane keeps its row where its factor is exactly zero (the
            // scalar `continue`) or it has stopped: `x - 0·p` is not
            // always `x` (`-0.0 - 0.0·p` is `+0.0`, an infinite `p` gives
            // NaN), so a kept lane is selected, never computed.
            let keep: [bool; L] = std::array::from_fn(|l| !going[l] || factor[l] == 0.0);
            let all_keep = (0..L).all(|l| !live[l] || keep[l]);
            let none_keep = (0..L).all(|l| !live[l] || !keep[l]);
            if all_keep {
                continue;
            }
            if none_keep {
                r[col] = [0.0; L];
                for (x, p) in r[col + 1..].iter_mut().zip(&pivot_r[col + 1..]) {
                    for l in 0..L {
                        x[l] -= factor[l] * p[l];
                    }
                }
                for l in 0..L {
                    br[l] -= factor[l] * b_pivot[l];
                }
            } else {
                for l in 0..L {
                    r[col][l] = if keep[l] { r[col][l] } else { 0.0 };
                }
                for (x, p) in r[col + 1..].iter_mut().zip(&pivot_r[col + 1..]) {
                    for l in 0..L {
                        x[l] = if keep[l] {
                            x[l]
                        } else {
                            x[l] - factor[l] * p[l]
                        };
                    }
                }
                for l in 0..L {
                    br[l] = if keep[l] {
                        br[l]
                    } else {
                        br[l] - factor[l] * b_pivot[l]
                    };
                }
            }
        }
    }
    // back substitution
    let stopped = failed.contains(&true);
    for row in (0..N).rev() {
        let mut sum = b[row];
        for (x, bk) in a[row][row + 1..].iter().zip(&b[row + 1..]) {
            for l in 0..L {
                sum[l] -= x[l] * bk[l];
            }
        }
        for l in 0..L {
            let x = sum[l] / a[row][row][l];
            b[row][l] = if stopped && failed[l] { b[row][l] } else { x };
        }
    }
    failed
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
    fn fixed_kernels_cover_one_to_fixed_lu_max() {
        // Past the table each lane falls back to `solve_in_place`, which
        // gives the same bits, so only this test sees a missing arm.
        assert!(LaneLu::<1>::new(0).kernel.is_none());
        assert!((1..=FIXED_LU_MAX).all(|n| LaneLu::<1>::new(n).kernel.is_some()));
        assert!((1..=FIXED_LU_MAX).all(|n| LaneLu::<4>::new(n).kernel.is_some()));
        assert!(LaneLu::<1>::new(FIXED_LU_MAX + 1).kernel.is_none());
    }

    #[test]
    fn lane_matrix_keeps_lanes_apart() {
        let mut m = LaneMatrix::<2>::zeros(2);
        m.add(0, 1, [1.5, -2.0]);
        m.add(0, 1, [0.5, 0.0]);
        assert_eq!(m.get(0, 1), [2.0, -2.0]);
        let mut one = Matrix::zeros(2);
        one.set(1, 0, 7.0);
        m.set_lane(1, &one);
        assert_eq!(m.get(0, 1), [2.0, 0.0]);
        assert_eq!(m.get(1, 0), [0.0, 7.0]);
        let mut copy = LaneMatrix::zeros(2);
        copy.copy_from(&m);
        assert_eq!(copy, m);
        m.clear();
        assert_eq!(m.get(1, 0), [0.0, 0.0]);
    }
}
