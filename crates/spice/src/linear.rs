//! LU factorization with partial pivoting.
//!
//! The MNA systems produced by the DRAM-cell netlist are tiny (12 unknowns),
//! so one dense row-major layout serves every solve.
//! [`Matrix::solve_in_place`] solves one system of any dimension; it is the
//! reference. [`LaneLu`] solves `L` same-sized systems side by side, one per
//! lane of a [`LaneMatrix`], each lane bit for bit as `solve_in_place` would
//! solve it alone. Its structured kernel, compiled per dimension up to
//! [`FIXED_LU_MAX`], touches only the entries a sparsity pattern allows
//! (one `u32` row mask per unknown, widened by fill-in as it eliminates):
//! the activation netlist's wiring allows 35 of its 144 entries. It steps
//! every lane together and either solves every live lane exactly or
//! declines; [`LaneLu::solve`], which copies each lane out to
//! `solve_in_place`, is the fallback. The transient solver steps its
//! Monte-Carlo trial lanes through both; its one-lane instance is the
//! scalar fast path.
//!
//! The structured kernel is `#[inline(always)]` from the dimension's
//! `match` down, and is chosen by dimension at each call rather than
//! through a table of function pointers: inlined into the transient
//! solver's stepping loop, it is compiled for whatever build that loop
//! runs in (`hammervolt_par::simd`), AVX-512 included. Called directly, it
//! is the portable build.

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

    /// The index of element `(row, col)` in [`entries_mut`]: worked out
    /// once, it lets a caller stamp an entry many times without checking
    /// its indices again.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range indices.
    ///
    /// [`entries_mut`]: Self::entries_mut
    pub(crate) fn offset(&self, row: usize, col: usize) -> usize {
        assert!(row < self.n && col < self.n);
        row * self.n + col
    }

    /// Every entry, row-major, each holding one value per lane.
    pub(crate) fn entries_mut(&mut self) -> &mut [[f64; L]] {
        &mut self.data
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

/// LU with partial pivoting over `L` lanes of `n × n` systems, each live
/// lane bit for bit as [`Matrix::solve_in_place`] solves it alone.
///
/// [`solve`](Self::solve) is the reference: it copies each live lane out
/// and calls `solve_in_place` itself. Up to [`FIXED_LU_MAX`] unknowns,
/// [`solve_structured`](Self::solve_structured) steps every lane together
/// with a kernel compiled for the dimension that touches only the entries
/// a sparsity pattern allows. It either solves every live lane exactly or
/// declines, leaving scratch behind; the caller then rebuilds the system
/// and calls the reference.
#[derive(Debug, Clone)]
pub struct LaneLu<const L: usize> {
    /// One lane's system, for the reference.
    single: Matrix,
    single_rhs: Vec<f64>,
}

impl<const L: usize> LaneLu<L> {
    /// Prepares the solves for `n × n` systems.
    pub fn new(n: usize) -> Self {
        LaneLu {
            single: Matrix::zeros(n),
            single_rhs: vec![0.0; n],
        }
    }

    /// Solves `A · x = b` in place for every lane marked `live` with the
    /// structured kernel, and returns whether it did. `pattern` holds one
    /// mask per row: bit `c` of `pattern[r]` is set where entry `(r, c)`
    /// may be nonzero. The caller guarantees, in every live lane, that
    /// every entry outside the pattern is `+0.0` and that no entry of `a`
    /// or `b` is `−0.0`.
    ///
    /// On `true` every live lane holds what [`Matrix::solve_in_place`]
    /// would leave, and none of them is singular. The kernel declines
    /// (`false`) where a live lane's pivot is under `solve_in_place`'s
    /// `1e-30` threshold or NaN, where live lanes pick different pivot
    /// rows, where a live lane's solution is not finite, and for every
    /// dimension without a kernel; `a` and `b` then hold scratch. Lanes
    /// not marked live may be overwritten with anything.
    ///
    /// Skipping is exact under the contract. A row that does not hold the
    /// pivot column has a zero factor, which the reference skips too; a
    /// skipped update `x − f·(+0.0)` is `x` for a finite `f`; a lane's
    /// zero-factor update `x − 0·p` is `x` for a finite `p`; and `x` is
    /// never `−0.0`, since `x − y` is `−0.0` only where `x` is. A
    /// non-finite factor, pivot-row entry or right-hand side, where these
    /// identities fail, always reaches the lane's solution, so checking the
    /// solution covers them.
    ///
    /// # Panics
    ///
    /// Panics if `a` is not of the dimension this solve was built for, or
    /// `b` or `pattern` has another length.
    #[inline(always)]
    pub fn solve_structured(
        &self,
        a: &mut LaneMatrix<L>,
        b: &mut [[f64; L]],
        pattern: &[u32],
        live: [bool; L],
    ) -> bool {
        debug_assert!(
            meets_contract(a, b, pattern, live),
            "a live lane has a nonzero entry outside the pattern, or a -0.0"
        );
        assert_eq!(a.n, self.single.n, "matrix dimension must match the solve");
        match a.n {
            1 => solve_fixed::<1, L>(a, b, pattern, live),
            2 => solve_fixed::<2, L>(a, b, pattern, live),
            3 => solve_fixed::<3, L>(a, b, pattern, live),
            4 => solve_fixed::<4, L>(a, b, pattern, live),
            5 => solve_fixed::<5, L>(a, b, pattern, live),
            6 => solve_fixed::<6, L>(a, b, pattern, live),
            7 => solve_fixed::<7, L>(a, b, pattern, live),
            8 => solve_fixed::<8, L>(a, b, pattern, live),
            9 => solve_fixed::<9, L>(a, b, pattern, live),
            10 => solve_fixed::<10, L>(a, b, pattern, live),
            11 => solve_fixed::<11, L>(a, b, pattern, live),
            12 => solve_fixed::<12, L>(a, b, pattern, live),
            13 => solve_fixed::<13, L>(a, b, pattern, live),
            14 => solve_fixed::<14, L>(a, b, pattern, live),
            15 => solve_fixed::<15, L>(a, b, pattern, live),
            16 => solve_fixed::<16, L>(a, b, pattern, live),
            _ => false,
        }
    }

    /// Solves `A · x = b` in place for every lane marked `live`, each
    /// copied out and solved by [`Matrix::solve_in_place`] itself: `a` is
    /// overwritten with the lane's factors and `b` with its solution.
    /// Returns the live lanes whose pivot underflowed (`solve_in_place`'s
    /// [`SingularMatrix`](SpiceError::SingularMatrix)); such a lane is left
    /// as `solve_in_place` leaves it when it returns that error. Lanes not
    /// marked live are left alone.
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

/// Whether every live lane meets the structured kernel's contract: `+0.0`
/// outside the pattern, and no `−0.0` anywhere.
fn meets_contract<const L: usize>(
    a: &LaneMatrix<L>,
    b: &[[f64; L]],
    pattern: &[u32],
    live: [bool; L],
) -> bool {
    let n = a.n;
    let minus_zero = |x: f64| x.to_bits() == (-0.0f64).to_bits();
    (0..L).filter(|&l| live[l]).all(|l| {
        !b.iter().any(|x| minus_zero(x[l]))
            && a.data.iter().enumerate().all(|(i, x)| {
                let inside = pattern.get(i / n).is_some_and(|m| m >> (i % n) & 1 == 1);
                !minus_zero(x[l]) && (inside || x[l] == 0.0)
            })
    })
}

/// Views the lanes as `N` rows of `[[f64; L]; N]` and runs [`lu_masked`].
///
/// # Panics
///
/// Panics if the matrix is not `N × N`, or `b` or `pattern` is not of
/// length `N`.
#[inline(always)]
fn solve_fixed<const N: usize, const L: usize>(
    m: &mut LaneMatrix<L>,
    b: &mut [[f64; L]],
    pattern: &[u32],
    live: [bool; L],
) -> bool {
    assert_eq!(m.n, N, "matrix dimension must match the kernel");
    let (rows, _) = m.data.as_chunks_mut::<N>();
    let a: &mut [[[f64; L]; N]; N] = rows.try_into().expect("N × N matrix has N rows");
    let b: &mut [[f64; L]; N] = b
        .try_into()
        .expect("rhs length must match matrix dimension");
    assert_eq!(pattern.len(), N, "the pattern has one mask per row");
    // Bits past the last column name no entry.
    let mask = std::array::from_fn(|row| pattern[row] & (u32::MAX >> (32 - N)));
    lu_masked(a, b, mask, live)
}

/// LU with partial pivoting on `L` lanes of a fixed-size system, stepping
/// every lane together over the entries `mask` allows, in the operation
/// order of [`Matrix::solve_in_place`]; `false` where it declines (see
/// [`LaneLu::solve_structured`]).
///
/// Per column it searches for the pivot among the rows whose mask holds
/// the column, swaps whole rows and their masks, updates each such row
/// over the pivot row's masked columns right of the diagonal, and ORs
/// those columns into the row's mask (fill-in). Back substitution runs
/// over each row's masked columns right of the diagonal, in ascending
/// order.
#[inline(always)]
fn lu_masked<const N: usize, const L: usize>(
    a: &mut [[[f64; L]; N]; N],
    b: &mut [[f64; L]; N],
    mut mask: [u32; N],
    live: [bool; L],
) -> bool {
    // The threshold of `Matrix::solve_in_place`.
    const PIVOT_EPS: f64 = 1e-30;
    let Some(first) = live.iter().position(|&l| l) else {
        return true;
    };
    for col in 0..N {
        let bit = 1u32 << col;
        // partial pivot, per lane: the first candidate row holding the
        // largest magnitude. A row outside the candidates holds `+0.0`,
        // which can never win the strict `>`.
        let mut pivot_row = [col; L];
        let mut pivot_val = a[col][col].map(f64::abs);
        for (row, r) in a.iter().enumerate().skip(col + 1) {
            if mask[row] & bit != 0 {
                for l in 0..L {
                    let v = r[col][l].abs();
                    if v > pivot_val[l] {
                        pivot_val[l] = v;
                        pivot_row[l] = row;
                    }
                }
            }
        }
        let p = pivot_row[first];
        let declines = |l: usize| {
            let v = pivot_val[l];
            v < PIVOT_EPS || v.is_nan() || pivot_row[l] != p
        };
        if (0..L).any(|l| live[l] && declines(l)) {
            return false;
        }
        if p != col {
            a.swap(col, p);
            b.swap(col, p);
            mask.swap(col, p);
        }
        let right = mask[col] & (u32::MAX << (col + 1));
        let (upper, lower) = a.split_at_mut(col + 1);
        let pivot_r = &upper[col];
        let pivot = pivot_r[col];
        let b_pivot = b[col];
        for (r, (br, m)) in lower
            .iter_mut()
            .zip(b[col + 1..].iter_mut().zip(&mut mask[col + 1..]))
        {
            if *m & bit == 0 {
                continue;
            }
            let factor: [f64; L] = std::array::from_fn(|l| r[col][l] / pivot[l]);
            // A lane whose factor is exactly zero keeps its entry, as the
            // reference's skipped row does; its update below leaves the
            // rest of the row as it was.
            r[col] = std::array::from_fn(|l| if factor[l] == 0.0 { r[col][l] } else { 0.0 });
            let mut cols = right;
            while cols != 0 {
                let k = cols.trailing_zeros() as usize;
                cols &= cols - 1;
                for l in 0..L {
                    r[k][l] -= factor[l] * pivot_r[k][l];
                }
            }
            for l in 0..L {
                br[l] -= factor[l] * b_pivot[l];
            }
            *m |= right;
        }
    }
    // back substitution
    let mut finite = true;
    for row in (0..N).rev() {
        let mut sum = b[row];
        let mut cols = mask[row] & (u32::MAX << (row + 1));
        while cols != 0 {
            let k = cols.trailing_zeros() as usize;
            cols &= cols - 1;
            for l in 0..L {
                sum[l] -= a[row][k][l] * b[k][l];
            }
        }
        for l in 0..L {
            let x = sum[l] / a[row][row][l];
            finite &= !live[l] || x.is_finite();
            b[row][l] = x;
        }
    }
    finite
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transient::Build;
    use hammervolt_par::simd::Kernel;

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

    /// [`LaneLu::solve_structured`] over every lane, as a kernel, so that
    /// it can run through the AVX-512 build.
    struct Structured<'a, const L: usize> {
        lu: &'a LaneLu<L>,
        a: &'a mut LaneMatrix<L>,
        b: &'a mut [[f64; L]],
        pattern: &'a [u32],
    }

    impl<const L: usize> Kernel for Structured<'_, L> {
        type Output = bool;

        #[inline(always)]
        fn run(self) -> bool {
            self.lu
                .solve_structured(self.a, self.b, self.pattern, [true; L])
        }
    }

    /// Whether the structured kernel solves `2·I · x = (1, 2, …, n)` in
    /// every lane through `build`, giving `x = (1/2, 1, …, n/2)` exactly.
    fn solves_diagonal<const L: usize>(n: usize, build: Build) -> bool {
        let lu = LaneLu::<L>::new(n);
        let mut a = LaneMatrix::<L>::zeros(n);
        let mut b: Vec<[f64; L]> = (0..n).map(|k| [(k + 1) as f64; L]).collect();
        let pattern: Vec<u32> = (0..n).map(|k| 1 << k).collect();
        for k in 0..n {
            a.set(k, k, [2.0; L]);
        }
        let kernel = Structured {
            lu: &lu,
            a: &mut a,
            b: &mut b,
            pattern: &pattern,
        };
        let vouched = build.run(kernel);
        let half = |k: usize| (k + 1) as f64 / 2.0;
        vouched && (0..n).all(|k| b[k] == [half(k); L])
    }

    #[test]
    fn fixed_kernels_cover_one_to_fixed_lu_max() {
        // Past the table every structured solve declines and each lane
        // falls back to `solve_in_place`, which gives the same bits, so
        // only this test sees a missing arm. Every dimension up to the
        // table's end must solve through each build the host runs: the
        // wide build's `match` is its own copy, inlined into the AVX-512
        // frame.
        for build in Build::all() {
            for n in 1..=FIXED_LU_MAX {
                assert!(solves_diagonal::<1>(n, build), "n {n}, {build:?}");
                assert!(solves_diagonal::<8>(n, build), "n {n}, {build:?}");
            }
            for n in [0, FIXED_LU_MAX + 1] {
                assert!(!solves_diagonal::<1>(n, build), "n {n}, {build:?}");
                assert!(!solves_diagonal::<8>(n, build), "n {n}, {build:?}");
            }
        }
    }

    #[test]
    fn lane_matrix_keeps_lanes_apart() {
        let mut m = LaneMatrix::<2>::zeros(2);
        let at = m.offset(0, 1);
        for stamp in [[1.5, -2.0], [0.5, 0.0]] {
            for (x, v) in m.entries_mut()[at].iter_mut().zip(stamp) {
                *x += v;
            }
        }
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

    #[test]
    #[should_panic]
    fn out_of_range_offset_panics() {
        LaneMatrix::<4>::zeros(2).offset(0, 2);
    }
}
