//! Property-based tests for the circuit simulator.

#[cfg(target_arch = "x86_64")]
use hammervolt_par::simd::Avx512;
use hammervolt_par::simd::Kernel;
use hammervolt_spice::linear::{LaneLu, LaneMatrix, LuSchedule, Matrix, LU_SCHEDULE_MAX};
use hammervolt_spice::mosfet::{
    LaneMosfet, LaneOperatingPoint, Level1Params, MosfetParams, Polarity,
};
use hammervolt_spice::netlist::Circuit;
use hammervolt_spice::transient::{Transient, TransientConfig};
use hammervolt_spice::waveform::Waveform;
use proptest::prelude::*;
use proptest::test_runner::{TestCaseError, TestRng};

/// The builds a kernel runs through: called directly, its
/// `#[inline(always)]` body is the portable build; run through
/// [`Avx512::run`], the same body is compiled for AVX-512.
#[derive(Debug, Clone, Copy)]
enum Build {
    Portable,
    #[cfg(target_arch = "x86_64")]
    Avx512(Avx512),
}

impl Build {
    /// The portable build and, where the host has it, the AVX-512 build;
    /// on a host without it the test says so on stderr.
    fn all() -> Vec<Build> {
        #[cfg(target_arch = "x86_64")]
        if let Some(wide) = Avx512::detect() {
            return vec![Build::Portable, Build::Avx512(wide)];
        }
        eprintln!("no AVX-512 on this host: checking the portable build alone");
        vec![Build::Portable]
    }

    fn run<K: Kernel>(self, kernel: K) -> K::Output {
        match self {
            Build::Portable => kernel.run(),
            #[cfg(target_arch = "x86_64")]
            Build::Avx512(wide) => wide.run(kernel),
        }
    }
}

/// The system shapes the scheduled lane LU is compared on.
#[derive(Debug, Clone, Copy)]
enum Shape {
    /// Every entry uniform in [-10, 10).
    Dense,
    /// An MNA system: a conductance block over the nodes plus MOSFET-like
    /// asymmetric entries, then voltage-source rows and columns of ±1 with
    /// a zero diagonal, so elimination must pivot around them.
    Mna,
    /// Entries from {0, ±1, ±2}: pivot searches meet equal magnitudes.
    Tied,
    /// Entries at and around the pivot threshold 1e-30, on either side.
    NearEps,
    /// A dense system with a repeated row or an all-zero column.
    Singular,
    /// A dense system with ±0.0, ±inf and NaN sprinkled over the matrix and
    /// the right-hand side.
    Special,
}

const SHAPES: [Shape; 6] = [
    Shape::Dense,
    Shape::Mna,
    Shape::Tied,
    Shape::NearEps,
    Shape::Singular,
    Shape::Special,
];

/// xorshift64*: the systems are drawn from one seed per case.
struct Draw(u64);

impl Draw {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn pick(&mut self, options: &[f64]) -> f64 {
        options[self.below(options.len())]
    }
}

/// A row-major `n × n` matrix and right-hand side of the given shape.
fn system(shape: Shape, n: usize, rng: &mut Draw) -> (Vec<f64>, Vec<f64>) {
    const SPECIAL: [f64; 5] = [0.0, -0.0, f64::INFINITY, f64::NEG_INFINITY, f64::NAN];
    let mut a = vec![0.0; n * n];
    let mut b: Vec<f64> = (0..n).map(|_| rng.unit() * 4.0 - 2.0).collect();
    match shape {
        Shape::Dense | Shape::Singular | Shape::Special => {
            a.iter_mut().for_each(|x| *x = rng.unit() * 20.0 - 10.0);
        }
        Shape::Mna => {
            let sources = rng.below(n.min(4));
            let nodes = n - sources;
            for i in 0..nodes {
                a[i * n + i] += 1e-12;
                for j in (i + 1)..nodes {
                    if rng.below(3) == 0 {
                        let g = rng.unit() * 1e-3;
                        a[i * n + i] += g;
                        a[j * n + j] += g;
                        a[i * n + j] -= g;
                        a[j * n + i] -= g;
                    }
                }
                if rng.below(4) == 0 {
                    let col = rng.below(nodes);
                    a[i * n + col] += rng.unit() * 2e-4 - 1e-4;
                }
            }
            for k in 0..sources {
                let br = nodes + k;
                let plus = rng.below(nodes);
                a[plus * n + br] += 1.0;
                a[br * n + plus] += 1.0;
                let minus = rng.below(nodes);
                if minus != plus && rng.below(2) == 0 {
                    a[minus * n + br] -= 1.0;
                    a[br * n + minus] -= 1.0;
                }
            }
        }
        Shape::Tied => a
            .iter_mut()
            .for_each(|x| *x = rng.pick(&[0.0, 1.0, -1.0, 2.0, -2.0])),
        Shape::NearEps => {
            let eps = 1e-30f64;
            let near = [
                eps,
                -eps,
                eps.next_up(),
                eps.next_down(),
                -eps.next_down(),
                2.0 * eps,
                0.5 * eps,
                0.0,
            ];
            a.iter_mut().for_each(|x| *x = rng.pick(&near));
        }
    }
    match shape {
        Shape::Singular if n > 1 && rng.below(2) == 0 => {
            let from = rng.below(n);
            let to = (from + 1 + rng.below(n - 1)) % n;
            a.copy_within(from * n..(from + 1) * n, to * n);
        }
        Shape::Singular => {
            let col = rng.below(n);
            for row in 0..n {
                a[row * n + col] = 0.0;
            }
        }
        Shape::Special => {
            for x in a.iter_mut().chain(b.iter_mut()) {
                if rng.below(4) == 0 {
                    *x = rng.pick(&SPECIAL);
                }
            }
        }
        _ => {}
    }
    (a, b)
}

/// Bit equality, except that any NaN matches any NaN: Rust leaves the sign
/// and payload of a NaN produced by arithmetic unspecified.
fn same_bits(x: f64, y: f64) -> bool {
    x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan())
}

/// Lane `k`'s copy of a system: the same system with a few entries
/// changed (scaled, negated, zeroed, or pushed toward the pivot threshold),
/// so the lanes mostly agree on their pivots and zero factors but not
/// always.
fn nudged(a: &[f64], b: &[f64], rng: &mut Draw) -> (Vec<f64>, Vec<f64>) {
    let (mut a, b) = (a.to_vec(), b.to_vec());
    for _ in 0..rng.below(3) {
        let i = rng.below(a.len());
        a[i] = match rng.below(5) {
            0 => 0.0,
            1 => -a[i],
            2 => a[i] * (0.5 + rng.unit()),
            3 => a[i] * 1e-31,
            _ => a[i] + 1.0,
        };
    }
    (a, b)
}

/// One mask per row of an `n × n` system covering every nonzero entry of
/// every lane (a NaN counts), widened by a few random bits: a superset of
/// the nonzeros, as a circuit's pattern is of its matrix.
fn pattern_of(n: usize, systems: &[(Vec<f64>, Vec<f64>)], rng: &mut Draw) -> Vec<u32> {
    let mut rows = vec![0u32; n];
    for (a, _) in systems {
        for (i, _) in a.iter().enumerate().filter(|&(_, &x)| x != 0.0) {
            rows[i / n] |= 1 << (i % n);
        }
    }
    for _ in 0..rng.below(4) {
        rows[rng.below(n)] |= 1 << rng.below(n);
    }
    rows
}

/// Puts a system under the scheduled solve's contract: `+0.0` outside the
/// pattern, and no `−0.0` anywhere.
fn meet_contract(n: usize, (a, b): &mut (Vec<f64>, Vec<f64>), pattern: &[u32]) {
    for (i, x) in a.iter_mut().enumerate() {
        if *x == 0.0 || pattern[i / n] >> (i % n) & 1 == 0 {
            *x = 0.0;
        }
    }
    for x in b.iter_mut().filter(|x| **x == 0.0) {
        *x = 0.0;
    }
}

/// [`LaneLu::solve_scheduled`] as a kernel, so that it can run through
/// either build.
struct Scheduled<'a, const L: usize> {
    lu: &'a LaneLu<L>,
    schedule: &'a LuSchedule,
    a: &'a mut LaneMatrix<L>,
    b: &'a mut [[f64; L]],
    live: [bool; L],
}

impl<const L: usize> Kernel for Scheduled<'_, L> {
    type Output = bool;

    #[inline(always)]
    fn run(self) -> bool {
        self.lu
            .solve_scheduled(self.schedule, self.a, self.b, self.live)
    }
}

/// `L` row-major `n × n` systems as the lanes of one matrix and
/// right-hand side.
fn load<const L: usize>(
    n: usize,
    systems: &[(Vec<f64>, Vec<f64>)],
) -> (LaneMatrix<L>, Vec<[f64; L]>) {
    assert_eq!(systems.len(), L, "one system per lane");
    let mut lanes = LaneMatrix::<L>::zeros(n);
    let mut rhs = vec![[0.0; L]; n];
    for (row, b) in rhs.iter_mut().enumerate() {
        for col in 0..n {
            lanes.set(
                row,
                col,
                std::array::from_fn(|l| systems[l].0[row * n + col]),
            );
        }
        *b = std::array::from_fn(|l| systems[l].1[row]);
    }
    (lanes, rhs)
}

/// Each live lane's outcome (singular or not) and solution must be what
/// `Matrix::solve_in_place` gives that lane's system alone, by `to_bits`.
fn lanes_are_solve_in_place<const L: usize>(
    n: usize,
    systems: &[(Vec<f64>, Vec<f64>); L],
    live: [bool; L],
    singular: [bool; L],
    x: &[[f64; L]],
    path: &str,
) -> Result<(), TestCaseError> {
    for (lane, (a, b)) in systems.iter().enumerate().filter(|&(l, _)| live[l]) {
        let mut reference = Matrix::zeros(n);
        for (i, &v) in a.iter().enumerate() {
            reference.set(i / n, i % n, v);
        }
        let mut x_ref = b.clone();
        let r_ref = reference.solve_in_place(&mut x_ref);
        prop_assert!(
            singular[lane] == r_ref.is_err(),
            "n {n}, lane {lane}: {path} outcome"
        );
        for (i, (x, &r)) in x.iter().zip(&x_ref).enumerate() {
            let f = x[lane];
            prop_assert!(
                same_bits(f, r),
                "n {n}, lane {lane}, x[{i}]: {path} {f:e}, solve_in_place {r:e}"
            );
        }
    }
    Ok(())
}

/// Replays `schedule` on `L` systems through `build`. Where it vouches,
/// every live lane's solution must be `solve_in_place`'s, and no live lane
/// singular; where it declines, the systems are loaded again and the
/// reference `LaneLu::solve` must give `solve_in_place`'s outcome and
/// solution in every live lane. Returns whether the schedule vouched.
fn replay_matches_reference<const L: usize>(
    build: Build,
    lu: &mut LaneLu<L>,
    schedule: &LuSchedule,
    systems: &[(Vec<f64>, Vec<f64>); L],
    live: [bool; L],
) -> Result<bool, TestCaseError> {
    let n = schedule.n();
    let (mut lanes, mut rhs) = load(n, systems);
    let vouched = build.run(Scheduled {
        lu,
        schedule,
        a: &mut lanes,
        b: &mut rhs,
        live,
    });
    if vouched {
        let path = format!("{build:?} schedule");
        lanes_are_solve_in_place(n, systems, live, [false; L], &rhs, &path)?;
    } else {
        (lanes, rhs) = load(n, systems);
        let singular = lu.solve(&mut lanes, &mut rhs, live);
        lanes_are_solve_in_place(n, systems, live, singular, &rhs, "reference")?;
    }
    Ok(vouched)
}

/// Solves `L` systems as lanes with the reference `LaneLu::solve`, which
/// must give `solve_in_place`'s outcomes and solutions, then compiles a
/// schedule under `pattern` from the first live lane's pivot rows and
/// replays it on the same systems through `build`
/// ([`replay_matches_reference`]). Returns whether the schedule vouched,
/// or `None` where none compiled: the first live lane was singular, or
/// `n` is past [`LU_SCHEDULE_MAX`].
fn lanes_match_reference<const L: usize>(
    build: Build,
    n: usize,
    systems: &[(Vec<f64>, Vec<f64>); L],
    pattern: &[u32],
    live: [bool; L],
) -> Result<Option<bool>, TestCaseError> {
    let mut lu = LaneLu::<L>::new(n);
    let (mut lanes, mut rhs) = load(n, systems);
    let singular = lu.solve(&mut lanes, &mut rhs, live);
    lanes_are_solve_in_place(n, systems, live, singular, &rhs, "reference")?;
    let Some(schedule) = lu.pivots().and_then(|p| LuSchedule::compile(pattern, p)) else {
        return Ok(None);
    };
    replay_matches_reference(build, &mut lu, &schedule, systems, live).map(Some)
}

/// One case of the scheduled LU oracle through `build`: at every size, one
/// system of `shape` alone, then eight lanes that draw their own shapes or
/// nudge one shared system, with now and then a lane not live; each group
/// under a pattern of its nonzeros and the scheduled solve's contract.
/// Returns how often the schedule vouched and declined.
fn scheduled_case(build: Build, shape: Shape, seed: u64) -> Result<(usize, usize), TestCaseError> {
    let mut rng = Draw(seed | 1);
    let (mut vouched, mut declined) = (0, 0);
    let mut count = |v: Option<bool>| match v {
        Some(true) => vouched += 1,
        Some(false) => declined += 1,
        None => {}
    };
    for n in 1..=LU_SCHEDULE_MAX + 2 {
        let mut one = [system(shape, n, &mut rng)];
        let pattern = pattern_of(n, &one, &mut rng);
        meet_contract(n, &mut one[0], &pattern);
        count(lanes_match_reference::<1>(
            build,
            n,
            &one,
            &pattern,
            [true],
        )?);
        let mut lanes: [(Vec<f64>, Vec<f64>); 8] = if rng.below(2) == 0 {
            std::array::from_fn(|lane| {
                let own = if lane == 0 {
                    shape
                } else {
                    SHAPES[rng.below(SHAPES.len())]
                };
                system(own, n, &mut rng)
            })
        } else {
            let (a, b) = system(shape, n, &mut rng);
            std::array::from_fn(|_| nudged(&a, &b, &mut rng))
        };
        let pattern = pattern_of(n, &lanes, &mut rng);
        for lane in &mut lanes {
            meet_contract(n, lane, &pattern);
        }
        let live = std::array::from_fn(|_| rng.below(8) != 0);
        count(lanes_match_reference::<8>(
            build, n, &lanes, &pattern, live,
        )?);
    }
    Ok((vouched, declined))
}

// The scheduled lane LU is `Matrix::solve_in_place` bit for bit in every
// live lane wherever it vouches for a system, and the reference gives the
// same bits wherever it declines, at every size a schedule compiles for
// and just past it, on well-posed and adversarial systems alike, through
// the portable build and, where the host has it, the AVX-512 build. Each
// group's schedule is compiled from the reference's pivot rows on its
// first live lane. Both outcomes must occur across the run in each build,
// so that neither path goes untested.
#[test]
fn fixed_lu_matches_solve_in_place_bit_for_bit() {
    for build in Build::all() {
        let shapes = prop::sample::select(SHAPES.to_vec());
        let seeds = any::<u64>();
        let mut rng = TestRng::from_name("fixed_lu_matches_solve_in_place_bit_for_bit");
        let (mut vouched, mut declined) = (0, 0);
        for case in 0..256 {
            let (shape, seed) = (shapes.generate(&mut rng), seeds.generate(&mut rng));
            match scheduled_case(build, shape, seed) {
                Ok((v, d)) => (vouched, declined) = (vouched + v, declined + d),
                Err(e) => panic!("{build:?}, case {case} ({shape:?}, seed {seed}): {e}"),
            }
        }
        assert!(
            vouched > 0 && declined > 0,
            "{build:?}: the schedule vouched {vouched} times and declined {declined} times"
        );
    }
}

/// How a stale-schedule case changes the system its schedule was compiled
/// on, in column 0, where the scan meets the original entries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Stale {
    /// A row scanned before the pivot ties its magnitude: partial pivoting
    /// keeps the earlier row, so the schedule must decline.
    TieBefore,
    /// A row scanned after the pivot ties its magnitude: partial pivoting
    /// keeps the pivot, so the schedule must vouch.
    TieAfter,
    /// A NaN in a scanned row: the schedule must decline.
    Nan,
    /// The pivot exactly `1e-30`, every other candidate below it: the
    /// schedule must vouch.
    AtEps,
    /// The pivot the next double below `1e-30`: the column is singular,
    /// and the schedule must decline.
    BelowEps,
    /// One live lane's row outgrows the pivot, so the live lanes split
    /// their pivots: the schedule must decline.
    Split,
    /// The same, in a lane that is not live: the schedule must vouch.
    SplitIdle,
}

const STALE: [Stale; 7] = [
    Stale::TieBefore,
    Stale::TieAfter,
    Stale::Nan,
    Stale::AtEps,
    Stale::BelowEps,
    Stale::Split,
    Stale::SplitIdle,
];

impl Stale {
    /// Whether the schedule must vouch for the changed system.
    fn vouches(self) -> bool {
        matches!(self, Stale::TieAfter | Stale::AtEps | Stale::SplitIdle)
    }
}

/// A system whose column-0 pivot row `p0` holds column 0 alone and whose
/// other rows, over columns 1 on, are a row permutation of a strictly
/// diagonally dominant matrix: row 0 is dominant in column `p0` and row
/// `r` in column `r`. While row `p0` stays column 0's pivot, changing
/// column 0 moves no later pivot, since eliminating column 0 adds `f·0` to
/// the other rows' entries. Column 0 holds the pivot, of magnitude in
/// [1, 2), and in a random half of the other rows an entry of smaller
/// magnitude. Returns the system and its pattern: its nonzeros and a few
/// more bits outside column 0.
fn stale_system(n: usize, p0: usize, rng: &mut Draw) -> ((Vec<f64>, Vec<f64>), Vec<u32>) {
    let sign = |rng: &mut Draw| if rng.below(2) == 0 { 1.0 } else { -1.0 };
    let mut a = vec![0.0; n * n];
    let pivot = sign(rng) * (1.0 + rng.unit());
    a[p0 * n] = pivot;
    for r in (0..n).filter(|&r| r != p0) {
        if rng.below(2) == 0 {
            a[r * n] = sign(rng) * pivot.abs() * (0.1 + 0.8 * rng.unit());
        }
        let home = if r == 0 { p0 } else { r };
        for col in 1..n {
            a[r * n + col] = if col == home {
                sign(rng) * (4.0 + 4.0 * rng.unit())
            } else if rng.below(3) == 0 {
                sign(rng) * 0.1 * (0.1 + rng.unit())
            } else {
                0.0
            };
        }
    }
    let b = (0..n).map(|_| rng.unit() * 4.0 - 2.0).collect();
    let mut pattern = vec![0u32; n];
    for (i, _) in a.iter().enumerate().filter(|&(_, &x)| x != 0.0) {
        pattern[i / n] |= 1 << (i % n);
    }
    for _ in 0..rng.below(3) {
        pattern[rng.below(n)] |= 1 << (1 + rng.below(n - 1));
    }
    ((a, b), pattern)
}

/// One stale-schedule case through every build: a system of random size,
/// its schedule compiled from the reference's pivot rows, then each
/// change of [`STALE`] that the system allows, at one lane and at eight.
/// The schedule must vouch or decline as the change demands, and
/// [`replay_matches_reference`] checks the bits either way. Counts each
/// change checked in `seen`.
fn stale_case(builds: &[Build], seed: u64, seen: &mut [usize; 7]) -> Result<(), TestCaseError> {
    let mut rng = Draw(seed | 1);
    let n = 2 + rng.below(LU_SCHEDULE_MAX - 1);
    let p0 = rng.below(n);
    let (original, pattern) = stale_system(n, p0, &mut rng);
    let mut lu = LaneLu::<1>::new(n);
    let (mut a, mut b) = load::<1>(n, std::slice::from_ref(&original));
    prop_assert!(lu.solve(&mut a, &mut b, [true]) == [false]);
    let pivots = lu.pivots().expect("a solved lane has pivot rows");
    prop_assert_eq!(pivots[0], p0);
    let schedule = LuSchedule::compile(&pattern, pivots).expect("n is at most 16");
    // Column 0's candidates other than the pivot, in scan order.
    let candidates: Vec<usize> = (0..n).filter(|&r| r != p0 && pattern[r] & 1 == 1).collect();
    let pivot = original.0[p0 * n];
    for (k, &change) in STALE.iter().enumerate() {
        let rows: Vec<usize> = match change {
            Stale::TieBefore => candidates.iter().copied().filter(|&r| r < p0).collect(),
            Stale::TieAfter => candidates.iter().copied().filter(|&r| r > p0).collect(),
            Stale::Nan | Stale::Split | Stale::SplitIdle => candidates.clone(),
            Stale::AtEps | Stale::BelowEps => vec![p0],
        };
        if rows.is_empty() {
            continue;
        }
        let row = rows[rng.below(rows.len())];
        let mut changed = original.clone();
        let sign = if rng.below(2) == 0 { 1.0 } else { -1.0 };
        match change {
            Stale::TieBefore | Stale::TieAfter => changed.0[row * n] = sign * pivot.abs(),
            Stale::Nan => changed.0[row * n] = f64::NAN,
            Stale::AtEps | Stale::BelowEps => {
                for &r in &candidates {
                    changed.0[r * n] *= 1e-30 / 4.0;
                }
                let eps = if change == Stale::AtEps {
                    1e-30
                } else {
                    1e-30f64.next_down()
                };
                changed.0[p0 * n] = sign * eps;
            }
            Stale::Split | Stale::SplitIdle => changed.0[row * n] = sign * 2.0 * pivot.abs(),
        }
        let split = matches!(change, Stale::Split | Stale::SplitIdle);
        for &build in builds {
            let one = [changed.clone()];
            if !split {
                let vouched = replay_matches_reference(build, &mut lu, &schedule, &one, [true])?;
                prop_assert!(
                    vouched == change.vouches(),
                    "{build:?}, n {n}, {change:?}, one lane"
                );
            }
            // Eight lanes: the changed system in one lane and the original
            // in the others, or the changed system in every lane.
            let lane = 1 + rng.below(7);
            let mut live: [bool; 8] = std::array::from_fn(|_| rng.below(4) != 0);
            live[0] = true;
            live[lane] = change != Stale::SplitIdle;
            let systems: [(Vec<f64>, Vec<f64>); 8] = std::array::from_fn(|l| {
                if split && l != lane {
                    original.clone()
                } else {
                    changed.clone()
                }
            });
            let mut lanes = LaneLu::<8>::new(n);
            let vouched = replay_matches_reference(build, &mut lanes, &schedule, &systems, live)?;
            prop_assert!(
                vouched == change.vouches(),
                "{build:?}, n {n}, {change:?}, eight lanes"
            );
        }
        seen[k] += 1;
    }
    Ok(())
}

// A schedule compiled on one system and replayed on another must decline
// wherever partial pivoting would pick another row, and must never vouch
// for bits that are not `Matrix::solve_in_place`'s. Each case compiles a
// schedule on a system built so that its later pivots cannot move, then
// changes column 0: an exact magnitude tie with a row scanned before the
// pivot (declines: the earlier row wins) or after it (vouches), a NaN in a
// scanned row (declines), a pivot of exactly `1e-30` (vouches) or the next
// double below (declines), and one lane of eight whose row outgrows the
// pivot (declines where that lane is live, vouches where it is not). After
// each decline the reference must give `solve_in_place`'s bits. Every
// change must occur across the run.
#[test]
fn stale_schedule_declines_where_pivoting_differs() {
    let builds = Build::all();
    let seeds = any::<u64>();
    let mut rng = TestRng::from_name("stale_schedule_declines_where_pivoting_differs");
    let mut seen = [0usize; 7];
    for case in 0..256 {
        let seed = seeds.generate(&mut rng);
        if let Err(e) = stale_case(&builds, seed, &mut seen) {
            panic!("case {case} (seed {seed}): {e}");
        }
    }
    for (change, count) in STALE.iter().zip(seen) {
        assert!(count > 0, "{change:?} never occurred");
    }
}

/// Where a lane of the lane-wide MOSFET oracle is biased, in the NMOS frame
/// with the drain at or above the source.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Bias {
    Cutoff,
    Triode,
    Saturation,
    /// `vov` exactly `0.0`: the cutoff test's edge.
    VovZero,
    /// `vds` exactly `vov`: the triode test's edge, which saturation takes.
    VdsAtVov,
    /// Each terminal NaN, ±∞, ±0.0 or an ordinary voltage.
    Special,
}

const BIASES: [Bias; 6] = [
    Bias::Cutoff,
    Bias::Triode,
    Bias::Saturation,
    Bias::VovZero,
    Bias::VdsAtVov,
    Bias::Special,
];

/// A transistor around the 22 nm cards' magnitudes.
fn device(rng: &mut Draw, polarity: Polarity) -> MosfetParams {
    MosfetParams {
        model: Level1Params {
            vt0: 0.2 + 0.4 * rng.unit(),
            kp: 1e-4 + 5e-4 * rng.unit(),
            lambda: 0.2 * rng.unit(),
            gamma: 0.6 * rng.unit(),
            phi: 0.6 + 0.4 * rng.unit(),
        },
        polarity,
        width: 5e-8 + 2e-6 * rng.unit(),
        length: 2e-8 + 2e-7 * rng.unit(),
    }
}

/// The NMOS-frame threshold at a source-to-bulk bias, by
/// `MosfetParams::evaluate`'s own expressions.
fn threshold(m: &Level1Params, vsb_raw: f64) -> f64 {
    const EPS: f64 = 1e-3;
    let vsb = 0.5 * (vsb_raw + (vsb_raw * vsb_raw + EPS * EPS).sqrt());
    m.vt0 + m.gamma * ((m.phi + vsb).sqrt() - m.phi.sqrt())
}

/// One lane: a device, its bulk rail and its `[vd, vg, vs]` as wired. The
/// bias is built in the NMOS frame with the drain at or above the source;
/// `swap` then exchanges the wired drain and source, and a PMOS lane
/// negates every voltage, so that `evaluate`'s mirror and swap lead back
/// to the built bias. The exact edges put the source at `0.0`, where
/// `vgs = vg - 0.0` is `vg` exactly.
fn biased_lane(
    rng: &mut Draw,
    bias: Bias,
    polarity: Polarity,
    swap: bool,
) -> (MosfetParams, f64, [f64; 3]) {
    const SPECIAL: [f64; 5] = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 0.0, -0.0];
    let params = device(rng, polarity);
    let m = params.model;
    let bulk = rng.unit() - 0.5;
    let [d, g, s] = match bias {
        Bias::Special => std::array::from_fn(|_| {
            if rng.below(2) == 0 {
                rng.pick(&SPECIAL)
            } else {
                rng.unit() * 5.0 - 2.5
            }
        }),
        Bias::VovZero => [rng.unit() * 2.0, threshold(&m, 0.0 - bulk), 0.0],
        Bias::VdsAtVov => {
            let vt = threshold(&m, 0.0 - bulk);
            let vg = vt + 0.1 + rng.unit();
            [vg - vt, vg, 0.0]
        }
        Bias::Cutoff | Bias::Triode | Bias::Saturation => {
            let s = rng.unit() * 2.0 - 0.5;
            let vt = threshold(&m, s - bulk);
            let overdrive = 0.05 + rng.unit();
            let g = match bias {
                Bias::Cutoff => s + vt - overdrive,
                _ => s + vt + overdrive,
            };
            let vov = (g - s) - vt;
            let vds = match bias {
                Bias::Cutoff => 2.0 * rng.unit(),
                Bias::Triode => vov * (0.1 + 0.8 * rng.unit()),
                _ => vov * (1.2 + rng.unit()),
            };
            [s + vds, g, s]
        }
    };
    if bias != Bias::Special {
        // The region the reference's tests pick in the built frame.
        let vov = (g - s) - threshold(&m, s - bulk);
        let region = if vov <= 0.0 {
            Bias::Cutoff
        } else if d - s < vov {
            Bias::Triode
        } else {
            Bias::Saturation
        };
        let expected = match bias {
            Bias::VovZero => Bias::Cutoff,
            Bias::VdsAtVov => Bias::Saturation,
            other => other,
        };
        assert_eq!(region, expected, "{bias:?} built in the wrong region");
    }
    let [d, s] = if swap { [s, d] } else { [d, s] };
    match polarity {
        Polarity::Nmos => (params, bulk, [d, g, s]),
        Polarity::Pmos => (params, -bulk, [-d, -g, -s]),
    }
}

/// [`LaneMosfet::evaluate`] as a kernel, so that it can run through either
/// build.
struct Evaluate<'a, const L: usize> {
    device: &'a LaneMosfet<L>,
    volts: [[f64; L]; 3],
}

impl<const L: usize> Kernel for Evaluate<'_, L> {
    type Output = LaneOperatingPoint<L>;

    #[inline(always)]
    fn run(self) -> LaneOperatingPoint<L> {
        let [vd, vg, vs] = self.volts;
        self.device.evaluate(vd, vg, vs)
    }
}

/// One group of `L` independently drawn lanes, evaluated lane-wide through
/// each build and one lane at a time by `MosfetParams::evaluate`: all four
/// outputs of every lane must be the scalar's bits, a NaN matching any NaN
/// (the AVX-512 build returns a NaN input's `di_dvs` with the sign bit
/// set where the scalar keeps it clear). Counts each lane's
/// `(bias, PMOS, swap)` in `seen`.
fn lanes_match_scalar<const L: usize>(
    rng: &mut Draw,
    builds: &[Build],
    seen: &mut [[[usize; 2]; 2]; 6],
) -> Result<(), TestCaseError> {
    let lanes: [_; L] = std::array::from_fn(|_| {
        let k = rng.below(BIASES.len());
        let pmos = rng.below(2);
        let swap = rng.below(2);
        seen[k][pmos][swap] += 1;
        let polarity = [Polarity::Nmos, Polarity::Pmos][pmos];
        (BIASES[k], biased_lane(rng, BIASES[k], polarity, swap == 1))
    });
    let device = LaneMosfet::new(lanes.map(|(_, (params, bulk, _))| (params, bulk)));
    let volts: [[f64; L]; 3] = std::array::from_fn(|t| lanes.map(|(_, (_, _, v))| v[t]));
    for &build in builds {
        let op = build.run(Evaluate {
            device: &device,
            volts,
        });
        for (l, (bias, (params, bulk, [vd, vg, vs]))) in lanes.iter().enumerate() {
            let want = params.evaluate(*vd, *vg, *vs, *bulk);
            let fields = [
                ("i_ds", op.i_ds[l], want.i_ds),
                ("di_dvd", op.di_dvd[l], want.di_dvd),
                ("di_dvg", op.di_dvg[l], want.di_dvg),
                ("di_dvs", op.di_dvs[l], want.di_dvs),
            ];
            for (name, got, want) in fields {
                prop_assert!(
                    same_bits(got, want),
                    "{build:?}, {L} lanes, lane {l} ({bias:?}, {:?}, \
                     v = ({vd:e}, {vg:e}, {vs:e}), bulk {bulk:e}): {name} {got:e}, \
                     scalar {want:e}",
                    params.polarity
                );
            }
        }
    }
    Ok(())
}

// The lane-wide MOSFET evaluation gives every lane the bits of the scalar
// `MosfetParams::evaluate`, through the portable build and, where the host
// has it, the AVX-512 build. The lanes of a group are independent draws
// that mix NMOS and PMOS, wire the drain below the source, and cover the
// three regions, the two exact region edges (`vov` = 0 and `vds` = `vov`)
// and NaN, ±∞ and ±0.0 terminals; every combination of bias, polarity and
// swap must occur across the run.
#[test]
fn lane_evaluation_matches_scalar_bit_for_bit() {
    let builds = Build::all();
    let seeds = any::<u64>();
    let mut rng = TestRng::from_name("lane_evaluation_matches_scalar_bit_for_bit");
    let mut seen = [[[0usize; 2]; 2]; 6];
    for case in 0..256 {
        let seed = seeds.generate(&mut rng);
        let mut draw = Draw(seed | 1);
        let checked = lanes_match_scalar::<8>(&mut draw, &builds, &mut seen)
            .and_then(|()| lanes_match_scalar::<1>(&mut draw, &builds, &mut seen));
        if let Err(e) = checked {
            panic!("case {case} (seed {seed}): {e}");
        }
    }
    for (bias, counts) in BIASES.iter().zip(&seen) {
        assert!(
            counts.iter().flatten().all(|&n| n > 0),
            "{bias:?} missed a polarity or swap: {counts:?}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn lu_solves_diagonally_dominant_systems(
        n in 2usize..8,
        seed in any::<u64>(),
    ) {
        // Build a strictly diagonally dominant matrix (always nonsingular)
        // and a known solution; verify the residual.
        let mut rng = Draw(seed | 1);
        let mut next = move || rng.unit();
        let mut a = Matrix::zeros(n);
        for i in 0..n {
            let mut row_sum = 0.0;
            for j in 0..n {
                if i != j {
                    let v = next() * 2.0 - 1.0;
                    a.set(i, j, v);
                    row_sum += v.abs();
                }
            }
            a.set(i, i, row_sum + 1.0 + next());
        }
        let x_true: Vec<f64> = (0..n).map(|_| next() * 10.0 - 5.0).collect();
        let mut b = vec![0.0; n];
        for (i, bi) in b.iter_mut().enumerate() {
            for (j, &xj) in x_true.iter().enumerate() {
                *bi += a.get(i, j) * xj;
            }
        }
        a.solve_in_place(&mut b).unwrap();
        for i in 0..n {
            prop_assert!((b[i] - x_true[i]).abs() < 1e-8, "component {}", i);
        }
    }

    #[test]
    fn mosfet_partials_match_numerics(
        vd in 0.0..2.5f64,
        vg in 0.0..2.5f64,
        vs in 0.0..2.5f64,
        pmos in any::<bool>(),
    ) {
        let d = MosfetParams {
            model: Level1Params {
                vt0: 0.5,
                kp: 3e-4,
                lambda: 0.06,
                gamma: 0.4,
                phi: 0.85,
            },
            polarity: if pmos { Polarity::Pmos } else { Polarity::Nmos },
            width: 1e-6,
            length: 1e-7,
        };
        let bulk = if pmos { 2.5 } else { 0.0 };
        let h = 1e-6;
        let base = d.evaluate(vd, vg, vs, bulk);
        prop_assert!(base.i_ds.is_finite());
        let nd = (d.evaluate(vd + h, vg, vs, bulk).i_ds - base.i_ds) / h;
        let ng = (d.evaluate(vd, vg + h, vs, bulk).i_ds - base.i_ds) / h;
        let ns = (d.evaluate(vd, vg, vs + h, bulk).i_ds - base.i_ds) / h;
        let tol = 1e-4 + 0.03 * base.i_ds.abs().max(1e-5);
        prop_assert!((base.di_dvd - nd).abs() < tol.max(0.03 * nd.abs()), "dvd {} vs {}", base.di_dvd, nd);
        prop_assert!((base.di_dvg - ng).abs() < tol.max(0.03 * ng.abs()), "dvg {} vs {}", base.di_dvg, ng);
        prop_assert!((base.di_dvs - ns).abs() < tol.max(0.03 * ns.abs()), "dvs {} vs {}", base.di_dvs, ns);
    }

    #[test]
    fn rc_settles_to_source_voltage(v in 0.1..3.0f64, r in 100.0..10_000.0f64) {
        let mut c = Circuit::new();
        let vin = c.node("in");
        let vout = c.node("out");
        c.voltage_source("V1", vin, Circuit::GROUND, Waveform::Dc(v));
        c.resistor("R1", vin, vout, r);
        c.capacitor("C1", vout, Circuit::GROUND, 1e-12, 0.0);
        // run for 20 time constants
        let tau = r * 1e-12;
        let cfg = TransientConfig {
            t_stop: 20.0 * tau,
            dt: tau / 50.0,
            record_stride: 100,
            ..TransientConfig::default()
        };
        let res = Transient::new(&c, cfg).unwrap().run().unwrap();
        let v_end = *res.trace(vout).unwrap().last().unwrap();
        prop_assert!((v_end - v).abs() < 0.01 * v, "settled to {} expected {}", v_end, v);
    }

    #[test]
    fn charge_is_conserved_in_isolated_capacitor_pair(v0 in 0.2..2.0f64) {
        // Two capacitors joined by a resistor, no sources: final voltage is
        // the charge-weighted average.
        let c1 = 2e-12;
        let c2 = 1e-12;
        let mut c = Circuit::new();
        let a = c.node("a");
        let b = c.node("b");
        c.capacitor("C1", a, Circuit::GROUND, c1, v0);
        c.capacitor("C2", b, Circuit::GROUND, c2, 0.0);
        c.resistor("R1", a, b, 1_000.0);
        let cfg = TransientConfig {
            t_stop: 200e-9,
            dt: 20e-12,
            record_stride: 100,
            ..TransientConfig::default()
        };
        let res = Transient::new(&c, cfg).unwrap().run().unwrap();
        let expected = v0 * c1 / (c1 + c2);
        let va = *res.trace(a).unwrap().last().unwrap();
        let vb = *res.trace(b).unwrap().last().unwrap();
        prop_assert!((va - expected).abs() < 0.02 * v0, "va {} expected {}", va, expected);
        prop_assert!((vb - expected).abs() < 0.02 * v0, "vb {} expected {}", vb, expected);
    }

    #[test]
    fn waveform_pwl_stays_within_hull(
        t in 0.0..10.0f64,
        v0 in -2.0..2.0f64,
        v1 in -2.0..2.0f64,
    ) {
        let w = Waveform::Pwl(vec![(1.0, v0), (5.0, v1)]);
        let v = w.value(t);
        let (lo, hi) = if v0 <= v1 { (v0, v1) } else { (v1, v0) };
        prop_assert!(v >= lo - 1e-12 && v <= hi + 1e-12);
    }
}
