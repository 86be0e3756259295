//! LU factorization with partial pivoting.
//!
//! The MNA systems produced by the DRAM-cell netlist are tiny (12 unknowns),
//! so one dense row-major layout serves every solve.
//! [`Matrix::solve_in_place`] solves one system of any dimension; it is the
//! reference. [`LaneLu`] solves `L` same-sized systems side by side, one per
//! lane of a [`LaneMatrix`], each lane bit for bit as `solve_in_place` would
//! solve it alone. [`LaneLu::solve`], which copies each lane out to
//! `solve_in_place`, is the reference path, and it reports the rows the
//! first live lane's pivot search swapped in. A [`LuSchedule`] compiles
//! those swaps once, over a sparsity pattern (one `u32` row mask per
//! unknown, up to [`LU_SCHEDULE_MAX`]), into index lists over rows that
//! never move: per column the pivot row, the rows its search scans, and the
//! columns each elimination updates, fill-in included. The activation
//! netlist's wiring allows 35 of its 144 entries.
//! [`LaneLu::solve_scheduled`] replays a schedule on every lane together,
//! checks in each live lane that partial pivoting picks the scheduled rows,
//! and either solves every live lane exactly or declines. The transient
//! solver steps its Monte-Carlo trial lanes through both: each run compiles
//! its schedule from its first system, and again after a decline. Its
//! one-lane instance is the scalar fast path.
//!
//! [`LaneLu::solve_scheduled`] is `#[inline(always)]`: inlined into the
//! transient solver's stepping loop, it is compiled for whatever build that
//! loop runs in (`hammervolt_par::simd`), AVX-512 included. Called
//! directly, it is the portable build. A schedule's lists carry their own
//! lengths, so one copy of the replay serves every dimension.

use crate::error::SpiceError;

/// [`Matrix::solve_in_place`]'s pivot threshold: a column whose largest
/// magnitude is below it is singular.
const PIVOT_EPS: f64 = 1e-30;

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
        self.solve_pivoting(b, |_, _| {})
    }

    /// The body of [`solve_in_place`](Self::solve_in_place), calling
    /// `pivoted(col, row)` with the row position partial pivoting swaps
    /// into position `col` (`col` itself where it swaps nothing) once the
    /// column has passed the threshold: [`LaneLu::solve`] keeps these rows
    /// for a [`LuSchedule`].
    #[inline(always)]
    fn solve_pivoting(
        &mut self,
        b: &mut [f64],
        mut pivoted: impl FnMut(usize, usize),
    ) -> Result<(), SpiceError> {
        let n = self.n;
        assert_eq!(b.len(), n, "rhs length must match matrix dimension");
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
            pivoted(col, pivot_row);
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

/// The largest dimension a [`LuSchedule`] compiles for: its pattern holds
/// one `u32` row mask per unknown, and its index lists fit in bytes.
pub const LU_SCHEDULE_MAX: usize = 16;

/// The most entries a [`LuSchedule`] list holds: one per entry below the
/// diagonal, or one per entry above it.
const TRIANGLE: usize = LU_SCHEDULE_MAX * (LU_SCHEDULE_MAX - 1) / 2;

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
/// [`solve`](Self::solve) is the reference: it copies each live lane out,
/// calls `solve_in_place` itself, and keeps the first live lane's pivot
/// rows ([`pivots`](Self::pivots)), from which a [`LuSchedule`] compiles.
/// [`solve_scheduled`](Self::solve_scheduled) replays such a schedule on
/// every lane together, touching only the entries its pattern allows. It
/// either solves every live lane exactly or declines, leaving scratch
/// behind; the caller then rebuilds the system and calls the reference.
#[derive(Debug, Clone)]
pub struct LaneLu<const L: usize> {
    /// One lane's system, for the reference.
    single: Matrix,
    single_rhs: Vec<f64>,
    /// The pivot rows of the last reference solve's first live lane.
    pivots: Vec<usize>,
    /// Whether that lane was solved, so that `pivots` is whole.
    pivoted: bool,
}

impl<const L: usize> LaneLu<L> {
    /// Prepares the solves for `n × n` systems.
    pub fn new(n: usize) -> Self {
        LaneLu {
            single: Matrix::zeros(n),
            single_rhs: vec![0.0; n],
            pivots: vec![0; n],
            pivoted: false,
        }
    }

    /// Solves `A · x = b` in place for every lane marked `live` by
    /// replaying `schedule`, and returns whether it did. The caller
    /// guarantees, in every live lane, that every entry outside the
    /// schedule's pattern is `+0.0` and that no entry of `a` or `b` is
    /// `−0.0`.
    ///
    /// On `true` every live lane's `b` holds the solution
    /// [`Matrix::solve_in_place`] would leave, none of them is singular, and
    /// `a` holds scratch. The solve declines (`false`), leaving scratch in
    /// `a` and `b`, where a live lane's partial pivoting would pick another
    /// row than the schedule's: a row scanned before the scheduled pivot
    /// whose magnitude is not below the pivot's (a NaN included), or one
    /// scanned after it whose magnitude is above. It also declines where a
    /// scheduled pivot's magnitude is under `solve_in_place`'s `1e-30`
    /// threshold or NaN, and where a live lane's solution is not finite.
    /// Lanes not marked live may be overwritten with anything.
    ///
    /// Per column the replay divides each eliminated row's entry by the
    /// pivot once and updates the row over the schedule's columns, in
    /// `solve_in_place`'s operation order, with no fused multiply-add and
    /// no reciprocal. It swaps no rows: the schedule names each row where
    /// it is stored, and back substitution places each solution entry. It
    /// never zeroes an eliminated entry either, since nothing reads it
    /// again.
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
    /// Panics if `a` or `schedule` is not of the dimension this solve was
    /// built for, or `b` has another length.
    #[inline(always)]
    pub fn solve_scheduled(
        &self,
        schedule: &LuSchedule,
        a: &mut LaneMatrix<L>,
        b: &mut [[f64; L]],
        live: [bool; L],
    ) -> bool {
        let n = schedule.n;
        assert_eq!(a.n, self.single.n, "matrix dimension must match the solve");
        assert_eq!(n, a.n, "the schedule must be compiled for the dimension");
        assert_eq!(b.len(), n, "rhs length must match matrix dimension");
        debug_assert!(
            meets_contract(a, b, &schedule.pattern, live),
            "a live lane has a nonzero entry outside the pattern, or a -0.0"
        );
        let a = &mut a.data[..];
        // Per lane, whether every check so far has passed.
        let mut ok = [true; L];
        for col in 0..n {
            let p = usize::from(schedule.pivot[col]);
            let pivot = a[p * n + col];
            let magnitude = pivot.map(f64::abs);
            for l in 0..L {
                ok[l] &= magnitude[l] >= PIVOT_EPS;
            }
            // Partial pivoting keeps the first strict maximum of its scan,
            // and never takes a NaN after it.
            let rows = schedule.rows(col);
            let (before, after) = rows.split_at(usize::from(schedule.before[col]));
            for &r in before {
                let v = a[usize::from(r) * n + col];
                for l in 0..L {
                    ok[l] &= v[l].abs() < magnitude[l];
                }
            }
            for &r in after {
                let v = a[usize::from(r) * n + col];
                for l in 0..L {
                    ok[l] &= v[l].abs() <= magnitude[l] || v[l].is_nan();
                }
            }
            let cols = schedule.cols(col);
            let b_pivot = b[p];
            for &r in rows {
                let r = usize::from(r);
                let factor: [f64; L] = std::array::from_fn(|l| a[r * n + col][l] / pivot[l]);
                for &k in cols {
                    let k = usize::from(k);
                    let upper = a[p * n + k];
                    let x = &mut a[r * n + k];
                    for l in 0..L {
                        x[l] -= factor[l] * upper[l];
                    }
                }
                for l in 0..L {
                    b[r][l] -= factor[l] * b_pivot[l];
                }
            }
        }
        // back substitution, the solution by column
        let mut x = [[0.0; L]; LU_SCHEDULE_MAX];
        for col in (0..n).rev() {
            let p = usize::from(schedule.pivot[col]);
            let mut sum = b[p];
            for &k in schedule.cols(col) {
                let k = usize::from(k);
                for l in 0..L {
                    sum[l] -= a[p * n + k][l] * x[k][l];
                }
            }
            let diagonal = a[p * n + col];
            for l in 0..L {
                x[col][l] = sum[l] / diagonal[l];
                ok[l] &= x[col][l].is_finite();
            }
        }
        b.copy_from_slice(&x[..n]);
        (0..L).all(|l| ok[l] || !live[l])
    }

    /// Solves `A · x = b` in place for every lane marked `live`, each
    /// copied out and solved by [`Matrix::solve_in_place`]'s body: `a` is
    /// overwritten with the lane's factors and `b` with its solution.
    /// Returns the live lanes whose pivot underflowed (`solve_in_place`'s
    /// [`SingularMatrix`](SpiceError::SingularMatrix)); such a lane is left
    /// as `solve_in_place` leaves it when it returns that error. Lanes not
    /// marked live are left alone. The first live lane's pivot rows are
    /// kept for [`pivots`](Self::pivots).
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
        let first = live.iter().position(|&l| l);
        self.pivoted = false;
        let mut singular = [false; L];
        for lane in (0..L).filter(|&l| live[l]) {
            for (x, entry) in self.single.data.iter_mut().zip(&a.data) {
                *x = entry[lane];
            }
            for (x, entry) in self.single_rhs.iter_mut().zip(b.iter()) {
                *x = entry[lane];
            }
            let report = Some(lane) == first;
            let pivots = &mut self.pivots;
            let solved = self
                .single
                .solve_pivoting(&mut self.single_rhs, |col, row| {
                    if report {
                        pivots[col] = row;
                    }
                });
            singular[lane] = solved.is_err();
            self.pivoted |= report && solved.is_ok();
            a.set_lane(lane, &self.single);
            for (entry, &x) in b.iter_mut().zip(&self.single_rhs) {
                entry[lane] = x;
            }
        }
        singular
    }

    /// The row positions partial pivoting swapped in, column by column, on
    /// the first live lane of the last [`solve`](Self::solve): what
    /// [`LuSchedule::compile`] takes. `None` where that lane was singular,
    /// or no lane was live.
    pub fn pivots(&self) -> Option<&[usize]> {
        self.pivoted.then_some(&self.pivots[..])
    }
}

/// One system's elimination, compiled for [`LaneLu::solve_scheduled`] to
/// replay on systems of the same sparsity pattern: the pivot rows
/// [`Matrix::solve_in_place`] picked, as index lists over storage rows
/// that never move.
///
/// [`compile`](Self::compile) follows `solve_in_place`'s row swaps once,
/// over the pattern and its fill-in, and keeps per column:
/// - the pivot's storage row;
/// - the other rows the pivot search scans, in its order, and how many of
///   them come before the pivot. These are the rows the column
///   eliminates;
/// - the columns right of the diagonal the pivot row may hold, fill-in
///   included, ascending. Each elimination updates these columns, and
///   they are the back-substitution terms of the pivot's row.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LuSchedule {
    n: usize,
    /// The pattern compiled over, bits past the last column cleared.
    pattern: [u32; LU_SCHEDULE_MAX],
    pivot: [u8; LU_SCHEDULE_MAX],
    /// How many of each column's rows its scan meets before the pivot.
    before: [u8; LU_SCHEDULE_MAX],
    /// Column `c`'s rows are `rows[rows_at[c]..rows_at[c + 1]]`.
    rows_at: [u8; LU_SCHEDULE_MAX + 1],
    rows: [u8; TRIANGLE],
    /// Column `c`'s columns are `cols[cols_at[c]..cols_at[c + 1]]`.
    cols_at: [u8; LU_SCHEDULE_MAX + 1],
    cols: [u8; TRIANGLE],
}

impl LuSchedule {
    /// Compiles the elimination partial pivoting performs on an `n × n`
    /// system (`n = pivots.len()`) whose matrix may be nonzero only where
    /// `pattern` allows, bit `c` of `pattern[r]` marking entry `(r, c)`,
    /// when it swaps in the rows `pivots` names: `pivots[c]` is the row
    /// position swapped into position `c`, as [`LaneLu::pivots`] reports.
    ///
    /// `None` for `n = 0` or above [`LU_SCHEDULE_MAX`], for a pattern of
    /// fewer than `n` masks, and for a pivot out of range or outside the
    /// pattern, which no system under [`LaneLu::solve_scheduled`]'s
    /// contract picks.
    pub fn compile(pattern: &[u32], pivots: &[usize]) -> Option<Self> {
        let n = pivots.len();
        if n == 0 || n > LU_SCHEDULE_MAX || pattern.len() < n {
            return None;
        }
        let columns = u32::MAX >> (32 - n);
        // Each row's mask, widened by fill-in as the columns go by.
        let mut mask: [u32; LU_SCHEDULE_MAX] =
            std::array::from_fn(|r| if r < n { pattern[r] & columns } else { 0 });
        let mut s = LuSchedule {
            n,
            pattern: mask,
            pivot: [0; LU_SCHEDULE_MAX],
            before: [0; LU_SCHEDULE_MAX],
            rows_at: [0; LU_SCHEDULE_MAX + 1],
            rows: [0; TRIANGLE],
            cols_at: [0; LU_SCHEDULE_MAX + 1],
            cols: [0; TRIANGLE],
        };
        // `order[position]`: the storage row `solve_in_place` holds there.
        let mut order: [usize; LU_SCHEDULE_MAX] = std::array::from_fn(|r| r);
        let (mut rows, mut cols) = (0, 0);
        for (col, &at) in pivots.iter().enumerate() {
            let bit = 1u32 << col;
            if !(col..n).contains(&at) || mask[order[at]] & bit == 0 {
                return None;
            }
            let p = order[at];
            let right = mask[p] & (u32::MAX << (col + 1));
            for (position, &r) in order.iter().enumerate().take(n).skip(col) {
                if r != p && mask[r] & bit != 0 {
                    s.rows[rows] = r as u8;
                    rows += 1;
                    s.before[col] += u8::from(position < at);
                    mask[r] |= right;
                }
            }
            order.swap(col, at);
            let mut k = right;
            while k != 0 {
                s.cols[cols] = k.trailing_zeros() as u8;
                cols += 1;
                k &= k - 1;
            }
            s.pivot[col] = p as u8;
            s.rows_at[col + 1] = rows as u8;
            s.cols_at[col + 1] = cols as u8;
        }
        Some(s)
    }

    /// The dimension of the systems the schedule solves.
    pub fn n(&self) -> usize {
        self.n
    }

    /// The rows column `col` eliminates, in its pivot search's order.
    #[inline(always)]
    fn rows(&self, col: usize) -> &[u8] {
        &self.rows[usize::from(self.rows_at[col])..usize::from(self.rows_at[col + 1])]
    }

    /// The columns column `col`'s eliminations update, ascending.
    #[inline(always)]
    fn cols(&self, col: usize) -> &[u8] {
        &self.cols[usize::from(self.cols_at[col])..usize::from(self.cols_at[col + 1])]
    }
}

/// Whether every live lane meets the scheduled solve's contract: `+0.0`
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

    /// [`LaneLu::solve_scheduled`] over every lane, as a kernel, so that
    /// it can run through the AVX-512 build.
    struct Scheduled<'a, const L: usize> {
        lu: &'a LaneLu<L>,
        schedule: &'a LuSchedule,
        a: &'a mut LaneMatrix<L>,
        b: &'a mut [[f64; L]],
    }

    impl<const L: usize> Kernel for Scheduled<'_, L> {
        type Output = bool;

        #[inline(always)]
        fn run(self) -> bool {
            self.lu
                .solve_scheduled(self.schedule, self.a, self.b, [true; L])
        }
    }

    /// `2·I` and `(1, 2, …, n)` in every lane.
    fn diagonal<const L: usize>(n: usize) -> (LaneMatrix<L>, Vec<[f64; L]>) {
        let mut a = LaneMatrix::<L>::zeros(n);
        for k in 0..n {
            a.set(k, k, [2.0; L]);
        }
        (a, (0..n).map(|k| [(k + 1) as f64; L]).collect())
    }

    /// Compiles a schedule for `2·I · x = (1, 2, …, n)` from the reference
    /// solve's pivot rows, and whether replaying it through `build` solves
    /// every lane exactly, giving `x = (1/2, 1, …, n/2)`; `None` where no
    /// schedule compiles.
    fn solves_diagonal<const L: usize>(n: usize, build: Build) -> Option<bool> {
        let mut lu = LaneLu::<L>::new(n);
        let pattern: Vec<u32> = (0..n).map(|k| 1 << k).collect();
        let (mut a, mut b) = diagonal::<L>(n);
        lu.solve(&mut a, &mut b, [true; L]);
        let schedule = LuSchedule::compile(&pattern, lu.pivots()?)?;
        let (mut a, mut b) = diagonal::<L>(n);
        let kernel = Scheduled {
            lu: &lu,
            schedule: &schedule,
            a: &mut a,
            b: &mut b,
        };
        let vouched = build.run(kernel);
        let half = |k: usize| (k + 1) as f64 / 2.0;
        Some(vouched && (0..n).all(|k| b[k] == [half(k); L]))
    }

    #[test]
    fn schedules_cover_one_to_lu_schedule_max() {
        // The replay has one copy per lane count and build, whatever the
        // dimension; every dimension up to the limit must compile and
        // solve through each build the host runs, and past it (or at 0)
        // no schedule compiles, so every solve takes the reference.
        for build in Build::all() {
            for n in 0..=LU_SCHEDULE_MAX + 1 {
                let compiles = (1..=LU_SCHEDULE_MAX).contains(&n);
                let solved = (
                    solves_diagonal::<1>(n, build),
                    solves_diagonal::<8>(n, build),
                );
                let expected = compiles.then_some(true);
                assert_eq!(solved, (expected, expected), "n {n}, {build:?}");
            }
        }
    }

    #[test]
    fn schedule_follows_the_swaps_and_the_fill_in() {
        // Column 0 pivots on row 2, so rows 0 and 1 are eliminated over
        // row 2's column 1, which fills in both; column 1's search then
        // scans row 1 and, after it, row 0 (swapped into position 2).
        //   [1 0 0]    rows 0 and 1 hold column 0, row 2 its largest
        //   [2 0 1]    magnitude; row 2 alone holds column 1 at first
        //   [4 3 0]
        let pattern = [0b001, 0b101, 0b011];
        let s = LuSchedule::compile(&pattern, &[2, 1, 2]).unwrap();
        assert_eq!(s.n(), 3);
        assert_eq!(s.pivot[..3], [2, 1, 0]);
        assert_eq!((s.rows(0), s.before[0]), (&[0u8, 1][..], 2));
        assert_eq!(s.cols(0), [1]);
        assert_eq!((s.rows(1), s.before[1]), (&[0u8][..], 0));
        assert_eq!(s.cols(1), [2]);
        assert_eq!((s.rows(2), s.before[2]), (&[][..], 0));
        assert_eq!(s.cols(2), [] as [u8; 0]);
        // A pivot out of range or outside the pattern compiles nothing.
        assert_eq!(LuSchedule::compile(&pattern, &[3, 1, 2]), None);
        assert_eq!(LuSchedule::compile(&pattern, &[0, 1, 2]), None);
        assert_eq!(LuSchedule::compile(&pattern[..2], &[2, 1, 2]), None);
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
