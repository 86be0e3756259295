//! The live DRAM device: state machine, cell state, and failure injection.
//!
//! A [`DramModule`] is one DIMM instantiated from its Table 3 spec and a
//! seed. It exposes the raw timing-explicit device interface the SoftMC-style
//! infrastructure drives:
//!
//! - [`DramModule::activate`] / [`DramModule::read`] / [`DramModule::write`] /
//!   [`DramModule::precharge`] — the DDR4 protocol, with caller-supplied
//!   timings (reads take the ACT→RD delay actually used; precharge takes the
//!   elapsed row-open time),
//! - [`DramModule::hammer`] — the bulk activate–precharge loop the engine
//!   uses for hammering (semantically a sequence of ACT/PRE pairs),
//! - [`DramModule::refresh`] — REF, which also feeds the in-DRAM TRR engine,
//! - [`DramModule::set_vpp`] — external wordline-voltage control; fails below
//!   the module's `V_PPmin` exactly as real modules stop responding (§4.1).
//!
//! # Failure injection
//!
//! Bit flips are *drawn* when a row is activated: accumulated RowHammer
//! disturbance and elapsed retention time become per-cell flip cutoffs, the
//! row's charge is restored, and its disturbance counter resets — matching
//! the physical process, where a row activation latches whatever the cells
//! currently hold and rewrites it. REF and TRR refreshes are activations
//! too.
//!
//! The flips those cutoffs select are *applied* later. Each activation
//! pushes them as a pending flip layer on the row, and the layers land,
//! oldest first, at the first access that can observe them: a read, the
//! first write to a row behind on-die ECC (which snapshots the array as its
//! reference), or a push past the row's small depth bound. A column write
//! overwrites its word in every layer pending at that moment, so the flip
//! work for a row that is rewritten before anyone reads it is never done.
//! Every flip decision reads only its own 64-bit word, so landing late
//! gives exactly the bits that applying each layer at its activation would.
//!
//! Reads additionally model transient `t_RCD`-violation corruption.

use crate::error::DramError;
use crate::geometry::Geometry;
use crate::hash;
use crate::mapping::AddressMapping;
use crate::ondie_ecc::OnDieEcc;
use crate::physics::{self, DisturbCoeffs};
use crate::registry::ModuleSpec;
use crate::timing::{self, ColumnSlots};
use crate::trr::{TrrEngine, TrrPolicy};
use crate::vendor::{self, Manufacturer, VendorProfile};
use hammervolt_obs::counter_add;
#[cfg(target_arch = "x86_64")]
use hammervolt_obs::simd::Avx512;
use hammervolt_obs::simd::Kernel;

/// Hash-domain salts so the independent per-cell properties draw from
/// unrelated streams.
const SALT_HC: u64 = 0x11;
const SALT_RET: u64 = 0x22;
const SALT_TRCD: u64 = 0x33;
const SALT_ORI: u64 = 0x44;
const SALT_PREF: u64 = 0x55;
const SALT_ROW: u64 = 0x66;
const SALT_INIT: u64 = 0x77;
const SALT_CLUSTER: u64 = 0x88;
const SALT_NOISE: u64 = 0x99;

/// Disturbance contribution of a distance-2 aggressor relative to distance-1
/// (the paper's double-sided attacks dominate through immediate neighbors).
const DIST2_WEIGHT: f64 = 0.04;

/// Two-sided synergy: alternating activations on *both* neighbors disturb a
/// victim superadditively (both adjacent wordlines toggle against the cell),
/// which is why the double-sided attack is the most effective shape at a
/// fixed activation budget (§4.2). The effective disturbance is
/// `(0.5·(L+R) + κ·min(L,R)) / (1+κ)`, normalized so the calibrated
/// symmetric double-sided case (`L = R = HC`) yields exactly `HC`.
const TWO_SIDED_KAPPA: f64 = 0.35;

/// State of one tracked (ever-written) row.
#[derive(Debug, Clone)]
struct RowState {
    /// Stored data, one `u64` per column.
    data: Vec<u64>,
    /// As-written reference, kept only when on-die ECC is enabled (the
    /// internal code is computed at write time).
    written: Option<Vec<u64>>,
    /// Time of the last charge restoration (write, activate, or refresh).
    restored_at_ns: f64,
    /// Accumulated weighted aggressor activations from the physically-below
    /// side (distance-1 weight 1, distance-2 scaled).
    disturb_below: f64,
    /// Accumulated weighted aggressor activations from the above side.
    disturb_above: f64,
    /// Charge restoration completeness in `(0, 1]`: below 1 when the row was
    /// last closed before `t_RAS_required` elapsed.
    charge_penalty: f64,
    /// Flip layers pushed by activations and not yet landed, oldest first;
    /// at most [`MAX_PENDING_LAYERS`].
    pending: Vec<FlipLayer>,
}

impl RowState {
    /// Marks columns `lo..hi` overwritten in every pending layer and drops
    /// the layers left with no live word. Returns how many it dropped.
    fn overwrite_pending(&mut self, lo: u32, hi: u32) -> u64 {
        let before = self.pending.len();
        self.pending.retain_mut(|layer| layer.kill(lo, hi));
        (before - self.pending.len()) as u64
    }
}

/// Pending layers a row may hold. A push beyond this lands the stack
/// first, so a row that is activated over and over without being read
/// keeps bounded bookkeeping.
const MAX_PENDING_LAYERS: usize = 4;

/// The flip work of one activation, drawn but not yet applied.
///
/// The activation fixes everything that depends on the noise stream or on
/// the row's timing — the per-class cutoffs and the conditions the
/// weak-cluster pass reads — and the layer applies them to the row's data
/// when it lands. Every flip decision reads only its own 64-bit word:
/// coupling looks at neighbours in the same word and treats a word edge as
/// opposite-valued, and retention and cluster flips are per cell. So a
/// layer landing on a word nothing has written since its activation gives
/// the bits it would have given then, and a word written since skips it.
#[derive(Debug, Clone)]
struct FlipLayer {
    /// RowHammer cutoffs per coupling class, `[aligned, anti-aligned]`;
    /// both zero when no cell of the row can hammer-flip.
    p_hammer: [f64; 2],
    /// Retention cutoff; zero when no cell can decay.
    p_ret: f64,
    /// Whether the row's weak-cluster cells are within reach.
    cluster: bool,
    /// Seconds since the row's previous restore, at the activation.
    elapsed_s: f64,
    /// Die temperature at the activation (°C).
    temp_c: f64,
    /// Wordline voltage at the activation (V).
    vpp: f64,
    /// The row's charge restoration completeness at the activation.
    charge_penalty: f64,
    /// One bit per column, set once a write has overwritten that word.
    killed: Vec<u64>,
    /// Columns not overwritten yet; the layer is dropped at zero.
    live: u32,
}

impl FlipLayer {
    /// Whether a write has overwritten `word` since the layer was pushed.
    #[inline]
    fn is_killed(&self, word: usize) -> bool {
        self.live_mask(word) == 0
    }

    /// All ones if `word` is live, zero if a write has overwritten it.
    #[inline]
    fn live_mask(&self, word: usize) -> u64 {
        ((self.killed[word / 64] >> (word % 64)) & 1).wrapping_sub(1)
    }

    /// Marks columns `lo..hi` overwritten. Returns whether a live word is
    /// left.
    fn kill(&mut self, lo: u32, hi: u32) -> bool {
        for i in lo / 64..hi.div_ceil(64) {
            let base = i * 64;
            let (start, end) = (lo.max(base) - base, hi.min(base + 64) - base);
            let below_end = if end == 64 {
                u64::MAX
            } else {
                (1u64 << end) - 1
            };
            let mask = below_end & (u64::MAX << start);
            let word = &mut self.killed[i as usize];
            self.live -= (mask & !*word).count_ones();
            *word |= mask;
        }
        self.live > 0
    }
}

/// Flip attribution and index builds for the metrics registry, tallied
/// locally (plain integer adds) and flushed once per landing. Pure
/// observation — nothing reads these back.
#[derive(Debug, Default)]
struct LandTally {
    hammer: u64,
    retention: u64,
    cluster: u64,
    index_builds: u64,
}

impl LandTally {
    fn flush(&self) {
        if self.hammer + self.retention + self.cluster > 0 {
            counter_add!("dram_flips_hammer", self.hammer);
            counter_add!("dram_flips_retention", self.retention);
            counter_add!("dram_flips_cluster", self.cluster);
        }
        if self.index_builds > 0 {
            counter_add!("dram_index_builds", self.index_builds);
        }
    }
}

/// The cutoff that picks a landing's index, and the list index's cap. A
/// cutoff at or below it reads the row's [`SaltIndex`], which keeps only
/// the cells with `u < FIRST_CAP` (about 2,048 of a 65,536-cell row): deep
/// enough for the `HC_first` search, whose many small cutoffs are most
/// landings, and cheap to scan entry by entry. A cutoff above it reads the
/// row's [`DenseIndex`], which decides 64 cells per word operation; once a
/// few percent of the row sits below the cutoff, that beats visiting
/// entries one at a time. It is a power of two, so `u < FIRST_CAP` is a
/// whole number of exponent buckets and the integer test `draw < 2^48`.
const FIRST_CAP: f64 = 1.0 / 32.0;

/// [`FIRST_CAP`] as an exact draw limit ([`hash::draw_limit`]): `2^48`.
const FIRST_LIMIT: u64 = hash::draw_limit(FIRST_CAP);

/// Share of cells whose charged polarity inverts the true-/anti-cell
/// checkerboard.
const ORI_SHARE: f64 = 0.05;
/// Share of cells that invert their horizontal-coupling class.
const PREF_SHARE: f64 = 0.10;

/// Entry flag: the cell's charged polarity (the value it stores when
/// charged).
const FLAG_POLARITY: u32 = 1;
/// Entry flag: the cell inverts its horizontal-coupling alignment class.
const FLAG_PREF: u32 = 2;

/// One flip candidate: the cell's fixed draw for the index's salt, its
/// index in the row, and its per-cell property flags.
#[derive(Debug, Clone, Copy, Default)]
struct IndexEntry {
    /// `uniform01(combine(cell_seed(rseed, cell), salt))`.
    u: f64,
    /// Cell index in the row (`word * 64 + bit`).
    cell: u32,
    /// [`FLAG_POLARITY`] | [`FLAG_PREF`] bits — in what would otherwise be
    /// the entry's padding.
    flags: u32,
}

impl IndexEntry {
    /// The entry for a kept cell: its draw scaled exactly as `uniform01`
    /// scales it, and its flags hashed from the cell's seed.
    #[inline]
    fn kept(draw: u64, cell: u32, rseed: u64, phys: u32) -> Self {
        IndexEntry {
            u: hash::unit_of_draw(draw),
            cell,
            flags: cell_flags(hash::cell_seed(rseed, cell), cell, phys),
        }
    }
}

/// The code an index build hashes its cells with. Both passes give the
/// same bits; they differ only in speed, and the wide one is chosen per
/// build when the host has it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum HashPass {
    /// One cell at a time for a list build, and the dense block kernel's
    /// body compiled for the baseline target. The only pass off x86-64 or
    /// without AVX-512, and the reference the wide pass is tested against.
    Portable,
    /// The hashing kernels compiled for AVX-512, carrying the proof that
    /// this host has it.
    #[cfg(target_arch = "x86_64")]
    Avx512(Avx512),
}

impl HashPass {
    /// The widest pass this host runs.
    fn detect() -> Self {
        #[cfg(target_arch = "x86_64")]
        if let Some(wide) = Avx512::detect() {
            return HashPass::Avx512(wide);
        }
        HashPass::Portable
    }

    /// Runs a kernel's body through this pass.
    #[inline]
    fn run<K: Kernel>(self, kernel: K) -> K::Output {
        match self {
            HashPass::Portable => kernel.run(),
            #[cfg(target_arch = "x86_64")]
            HashPass::Avx512(wide) => wide.run(kernel),
        }
    }

    /// Appends the cells `start ..= start + 63` whose draw is below `limit`
    /// to `kept`, in cell order, with their entries' `u` and flags.
    fn keep_block(
        self,
        rseed: u64,
        phys: u32,
        salt: u64,
        start: u32,
        limit: u64,
        kept: &mut Vec<IndexEntry>,
    ) {
        match self {
            HashPass::Portable => {
                for cell in (0..hash::DRAW_BLOCK as u32).map(|i| start + i) {
                    let draw = hash::cell_draw(rseed, cell, salt);
                    if draw < limit {
                        kept.push(IndexEntry::kept(draw, cell, rseed, phys));
                    }
                }
            }
            #[cfg(target_arch = "x86_64")]
            HashPass::Avx512(wide) => {
                let mut draws = [0u64; hash::DRAW_BLOCK];
                let mut keep = wide.run(hash::BlockDraws {
                    row_seed: rseed,
                    salt,
                    start,
                    limit,
                    draws: &mut draws,
                });
                while keep != 0 {
                    let i = keep.trailing_zeros();
                    keep &= keep - 1;
                    kept.push(IndexEntry::kept(draws[i as usize], start + i, rseed, phys));
                }
            }
        }
    }
}

/// A row's flip candidates for one salt below [`FIRST_CAP`], indexed for
/// the cutoffs at or below it.
///
/// A cell's flip draw `u = uniform01(combine(cell_seed(rseed, cell), salt))`
/// is a pure function of `(row, cell, salt)` — constant across
/// activations — and the flip decision is `u < p` for a per-activation
/// cutoff `p`. The list keeps only the cells with `u < FIRST_CAP` and
/// groups them by the uniform's binary exponent, which turns "which cells
/// can flip at cutoff p" (for `p <= FIRST_CAP`) into a prefix of `entries`:
/// every entry in a bucket below `p`'s exponent is `< p`, the bucket holding
/// `p`'s exponent needs the exact per-entry compare, and everything above
/// is `>= p`. Because `FIRST_CAP` is a power of two, the cells it drops all
/// sit in buckets at or above its own, so no cell with `u < p` is ever
/// missing. The charged polarity and coupling preference ride in each
/// entry's flags.
///
/// It is built once per `(row, salt)`, the first time a cutoff at or below
/// [`FIRST_CAP`] lands.
#[derive(Debug, Clone)]
struct SaltIndex {
    /// Kept entries grouped by the uniform's biased exponent, ascending
    /// bucket order, cell order within a bucket.
    entries: Vec<IndexEntry>,
    /// `entries[bucket_start[e] .. bucket_start[e + 1]]` holds the entries
    /// whose uniform has biased exponent `e`; one slot per bucket below
    /// [`FIRST_CAP`]'s exponent, plus the end.
    bucket_start: Vec<u32>,
}

impl SaltIndex {
    /// Biased-exponent bucket of a uniform in `[0, 1]`.
    #[inline]
    fn bucket(u: f64) -> usize {
        (u.to_bits() >> 52) as usize
    }

    /// Hashes every cell of a row once for `salt` through `pass`, keeps the
    /// cells with `u < FIRST_CAP` — the exact integer test `draw < 2^48` —
    /// scaling only kept draws to `u` and hashing only their flags, and
    /// counting-sorts them into exponent buckets. O(cells) hashes, O(kept)
    /// everything else.
    fn build(pass: HashPass, rseed: u64, phys: u32, cells: u32, salt: u64) -> Self {
        debug_assert_eq!(cells % hash::DRAW_BLOCK as u32, 0, "rows are whole words");
        let mut kept: Vec<IndexEntry> = Vec::with_capacity((f64::from(cells) * FIRST_CAP) as usize);
        for start in (0..cells).step_by(hash::DRAW_BLOCK) {
            pass.keep_block(rseed, phys, salt, start, FIRST_LIMIT, &mut kept);
        }
        let top = Self::bucket(FIRST_CAP);
        let mut bucket_start = vec![0u32; top + 1];
        for e in &kept {
            bucket_start[Self::bucket(e.u) + 1] += 1;
        }
        for b in 0..top {
            bucket_start[b + 1] += bucket_start[b];
        }
        let mut cursor: Vec<u32> = bucket_start[..top].to_vec();
        let mut entries = vec![IndexEntry::default(); kept.len()];
        for e in kept {
            let c = &mut cursor[Self::bucket(e.u)];
            entries[*c as usize] = e;
            *c += 1;
        }
        SaltIndex {
            entries,
            bucket_start,
        }
    }

    /// A superset of the entries with `u < p`: complete buckets below `p`'s
    /// exponent plus `p`'s own (partial) bucket. Callers re-check `u < p`
    /// per entry, which also keeps the comparison bit-identical to the
    /// original per-cell hash-and-compare. Requires `p <= FIRST_CAP`; `p`
    /// that is not positive (NaN included) selects nothing.
    #[inline]
    fn candidates(&self, p: f64) -> &[IndexEntry] {
        debug_assert!(
            p.is_nan() || p <= FIRST_CAP,
            "cutoff {p} above the list's cap"
        );
        if p.is_nan() || p <= 0.0 {
            return &[];
        }
        let end = (Self::bucket(p) + 1).min(self.bucket_start.len() - 1);
        &self.entries[..self.bucket_start[end] as usize]
    }
}

/// Code planes of a [`DenseIndex`]. A cell's code is the top 16 bits of
/// its 53-bit draw, `draw >> CODE_SHIFT`, and plane `j` holds code bit `j`.
const CODE_PLANES: usize = 16;
/// The draw bit that code plane 0 holds.
const CODE_SHIFT: u32 = 53 - CODE_PLANES as u32;
/// A dense index's plane of ORI exceptions: the cells whose charged
/// polarity inverts the checkerboard.
const ORI_PLANE: usize = CODE_PLANES;
/// A dense index's plane of coupling-preference bits.
const PREF_PLANE: usize = CODE_PLANES + 1;
/// Planes per word of a dense index.
const PLANES: usize = CODE_PLANES + 2;
/// Words per comparator step.
const COMPARE_STEP: usize = 8;

/// Every cell of a row for one salt, bit-sliced for the cutoffs above
/// [`FIRST_CAP`].
///
/// Word `w`'s 64 cells take 18 `u64`s. Sixteen are code planes: a cell's
/// code is bits 52..37 of its 53-bit draw (`hash::cell_draw`). Then come
/// its ORI-exception and PREF bits, the two hashed halves of
/// [`cell_flags`]. The layout is plane-major, plane `j` of word `w` at
/// `planes[j * words + w]`, so the comparator loads one plane of 8 words at
/// a time. A 65,536-cell row takes 144 KiB.
///
/// A cutoff `p` becomes the exact integer limit `L = hash::draw_limit(p)`,
/// since `u < p` ⇔ `draw < L`. The comparator ([`DenseIndex::below`])
/// decides `code < L >> 37` for 64 cells per word operation. The cells
/// whose code equals `L >> 37` (about one per row) are ties: each re-hashes
/// its draw and compares it with `L`. So the masks are exactly the per-cell
/// `u < p`, and a landing decides whole words from them with the same rule
/// the list scan applies cell by cell.
#[derive(Debug, Clone)]
struct DenseIndex {
    /// Plane `j` of word `w` at `j * words + w`: [`CODE_PLANES`] code
    /// planes, then [`ORI_PLANE`] and [`PREF_PLANE`].
    planes: Vec<u64>,
}

impl DenseIndex {
    /// Hashes every cell of a row of `words` words for `salt` through
    /// `pass`, one 64-cell [`DenseBlock`] per word.
    fn build(pass: HashPass, rseed: u64, words: usize, salt: u64) -> Self {
        let mut planes = vec![0u64; PLANES * words];
        for w in 0..words {
            let block = pass.run(DenseBlock {
                row_seed: rseed,
                salt,
                start: w as u32 * 64,
            });
            for (j, bits) in block.into_iter().enumerate() {
                planes[j * words + w] = bits;
            }
        }
        DenseIndex { planes }
    }

    /// Words in the row.
    fn words(&self) -> usize {
        self.planes.len() / PLANES
    }

    /// Plane `j`, one `u64` per word.
    fn plane(&self, j: usize) -> &[u64] {
        let words = self.words();
        &self.planes[j * words..(j + 1) * words]
    }

    /// The comparator: writes to `out[w]` the mask of word `w`'s cells
    /// whose draw is below `limit` ([`hash::draw_limit`] of a cutoff).
    fn below(&self, rseed: u64, salt: u64, limit: u64, out: &mut [u64]) {
        let words = self.words();
        debug_assert_eq!(out.len(), words);
        if limit == 0 {
            out.fill(0);
            return;
        }
        if limit >= 1 << 53 {
            out.fill(!0);
            return;
        }
        let code = limit >> CODE_SHIFT;
        // A tie's draw is at least `code << CODE_SHIFT`; when that is the
        // limit itself, no tie is below it.
        let ties = limit & ((1 << CODE_SHIFT) - 1) != 0;
        let settle = |below: &mut u64, word: usize, mut tie: u64| {
            while tie != 0 {
                let bit = tie.trailing_zeros();
                tie &= tie - 1;
                if hash::cell_draw(rseed, word as u32 * 64 + bit, salt) < limit {
                    *below |= 1 << bit;
                }
            }
        };
        let steps = words / COMPARE_STEP * COMPARE_STEP;
        for w0 in (0..steps).step_by(COMPARE_STEP) {
            let (lt, eq) = compare_codes::<COMPARE_STEP>(&self.planes, words, w0, code);
            let chunk = &mut out[w0..w0 + COMPARE_STEP];
            chunk.copy_from_slice(&lt);
            if ties && eq.iter().fold(0, |any, &e| any | e) != 0 {
                for (i, (below, &tie)) in chunk.iter_mut().zip(&eq).enumerate() {
                    settle(below, w0 + i, tie);
                }
            }
        }
        for (w, below) in out.iter_mut().enumerate().skip(steps) {
            let ([lt], [eq]) = compare_codes::<1>(&self.planes, words, w, code);
            *below = lt;
            if ties {
                settle(below, w, eq);
            }
        }
    }
}

/// The dense block kernel: one word's [`PLANES`] planes for the cells
/// `start ..= start + 63`, in [`DenseIndex`]'s plane order. Each cell's
/// seed is hashed once and then for its draw, its ORI exception and its
/// preference; both flags are exact integer compares of their draws. All
/// 64 seeds come first, so the draws start from independent vector chains.
struct DenseBlock {
    row_seed: u64,
    salt: u64,
    start: u32,
}

impl Kernel for DenseBlock {
    type Output = [u64; PLANES];

    #[inline(always)]
    fn run(self) -> [u64; PLANES] {
        const ORI_LIMIT: u64 = hash::draw_limit(ORI_SHARE);
        const PREF_LIMIT: u64 = hash::draw_limit(PREF_SHARE);
        let mut seeds = [0u64; hash::DRAW_BLOCK];
        for (i, seed) in seeds.iter_mut().enumerate() {
            *seed = hash::cell_seed(self.row_seed, self.start + i as u32);
        }
        let mut draws = [0u64; hash::DRAW_BLOCK];
        let mut ori = [0u64; hash::DRAW_BLOCK];
        let mut pref = [0u64; hash::DRAW_BLOCK];
        for (((d, o), p), &seed) in draws.iter_mut().zip(&mut ori).zip(&mut pref).zip(&seeds) {
            *d = hash::draw53(hash::combine(seed, self.salt));
            *o = hash::draw53(hash::combine(seed, SALT_ORI));
            *p = hash::draw53(hash::combine(seed, SALT_PREF));
        }
        let mut planes = [0u64; PLANES];
        for (j, plane) in planes[..CODE_PLANES].iter_mut().enumerate() {
            for (i, &d) in draws.iter().enumerate() {
                *plane |= ((d >> (CODE_SHIFT + j as u32)) & 1) << i;
            }
        }
        for (i, (&o, &p)) in ori.iter().zip(&pref).enumerate() {
            planes[ORI_PLANE] |= u64::from(o < ORI_LIMIT) << i;
            planes[PREF_PLANE] |= u64::from(p < PREF_LIMIT) << i;
        }
        planes
    }
}

/// Bit-sliced `code < limit_code` and `code == limit_code` for the `N`
/// words from `w0`: walks the code planes from the top bit down, with no
/// early exit, so every step is the same few word operations.
#[inline(always)]
fn compare_codes<const N: usize>(
    planes: &[u64],
    words: usize,
    w0: usize,
    limit_code: u64,
) -> ([u64; N], [u64; N]) {
    let (mut lt, mut eq) = ([0u64; N], [!0u64; N]);
    for j in (0..CODE_PLANES).rev() {
        let bit = 0u64.wrapping_sub((limit_code >> j) & 1);
        let plane = &planes[j * words + w0..][..N];
        for ((lt, eq), &x) in lt.iter_mut().zip(&mut eq).zip(plane) {
            *lt |= *eq & !x & bit;
            *eq &= !(x ^ bit);
        }
    }
    (lt, eq)
}

/// The true-/anti-cell checkerboard of row `phys`: bit `b` of every word
/// is the charged polarity `(b ^ phys) & 1` before ORI exceptions.
#[inline]
fn checkerboard(phys: u32) -> u64 {
    if phys & 1 == 0 {
        0xAAAA_AAAA_AAAA_AAAA
    } else {
        0x5555_5555_5555_5555
    }
}

/// The cells of word `d` whose horizontal neighbours both store the
/// opposite value — the aligned coupling class, before a cell's preference
/// bit inverts it. A word edge counts as opposite-valued.
#[inline]
fn opposite_neighbours(d: u64) -> u64 {
    let left = (d << 1) | (!d & 1);
    let right = (d >> 1) | (!d & (1 << 63));
    (left ^ d) & (right ^ d)
}

/// A cell's flag bits: its charged polarity — the checkerboard of
/// true-/anti-cells, inverted for 5 % of cells — and whether it inverts its
/// horizontal-coupling class (10 % of cells).
#[inline]
fn cell_flags(cseed: u64, cell: u32, phys: u32) -> u32 {
    let mut flags = (cell ^ phys) & FLAG_POLARITY;
    if hash::uniform01(hash::combine(cseed, SALT_ORI)) < ORI_SHARE {
        flags ^= FLAG_POLARITY;
    }
    if hash::uniform01(hash::combine(cseed, SALT_PREF)) < PREF_SHARE {
        flags |= FLAG_PREF;
    }
    flags
}

/// Reusable dense scratch for one layer's flip accumulation.
///
/// Flip decisions read the row's *pre-flip* data (neighbor bits, charge
/// state), so flips found by the candidate scan are staged here and XORed
/// into the row in one deferred pass. `flips` is a one-word-per-column
/// bitmap; `touched` lists the words the list scans staged bits in, so
/// their apply/reset pass never walks the whole row.
#[derive(Debug, Clone, Default)]
struct FlipScratch {
    flips: Vec<u64>,
    touched: Vec<u32>,
    /// Whether a dense landing staged bits in `flips` directly, without
    /// listing their words, so the apply must walk the whole row.
    whole_row: bool,
}

impl FlipScratch {
    /// Stages the bits of `mask` in `word`.
    #[inline]
    fn stage(&mut self, word: usize, mask: u64) {
        if self.flips[word] == 0 {
            self.touched.push(word as u32);
        }
        self.flips[word] |= mask;
    }
}

/// A row's flip indexes for one salt, each built the first time a landing
/// needs it and then kept: the list for cutoffs at or below
/// [`FIRST_CAP`], the dense index above it.
#[derive(Debug, Clone, Default)]
struct FlipIndexes {
    list: Option<SaltIndex>,
    dense: Option<DenseIndex>,
}

/// Cached per-row model parameters, derived from the physical row address.
#[derive(Debug, Clone)]
struct RowParams {
    /// ln of the row's weakest-cell `HC_first` at nominal `V_PP`.
    ln_hc_first: f64,
    /// Log-mean of the per-cell threshold distribution.
    mu_ln: f64,
    /// Log-σ of the per-cell threshold distribution.
    sigma: f64,
    /// Voltage-response coefficients.
    coeffs: DisturbCoeffs,
    /// Required `t_RCD` at nominal `V_PP` for this row (ns).
    trcd_base_ns: f64,
    /// Word indices carrying a 64 ms-window weak cell (Fig. 11a).
    cluster64_words: Vec<u32>,
    /// Word indices carrying a 128 ms-window weak cell (Fig. 11b).
    cluster128_words: Vec<u32>,
    /// RowHammer flip indexes (`SALT_HC`), built as layers that can
    /// hammer-flip land.
    hc: FlipIndexes,
    /// Retention flip indexes (`SALT_RET`), built as layers with a nonzero
    /// retention cutoff land.
    ret: FlipIndexes,
}

impl RowParams {
    /// The row's indexes for a flip salt.
    fn indexes(&mut self, salt: u64) -> &mut FlipIndexes {
        match salt {
            SALT_HC => &mut self.hc,
            SALT_RET => &mut self.ret,
            _ => unreachable!("no flip index for salt {salt:#x}"),
        }
    }
}

/// Sentinel for "no arena slot allocated" in the dense per-bank indexes.
const NO_SLOT: u32 = u32::MAX;

/// One bank: open-row state plus dense, physically-indexed arenas.
///
/// Row state and row parameters live in insertion-ordered arenas
/// (`states`, `params`); `state_index`/`params_index` map a physical row
/// address to its arena slot (`NO_SLOT` when absent), and `tracked` is a
/// bitmap mirroring `state_index` occupancy so bulk passes (refresh) can
/// scan tracked rows in ascending physical order without touching the
/// index vector's cold entries. All per-access paths are O(1) loads with
/// no hashing. The index vectors are sized lazily on first touch so
/// cloning a pristine module (one blueprint instantiation per work chunk)
/// costs nothing for banks the chunk never uses.
#[derive(Debug, Clone, Default)]
struct Bank {
    open_row: Option<u32>,
    /// Physical address of the open row, valid while `open_row` is `Some`.
    open_phys: u32,
    /// Physical row → slot in `states`, or `NO_SLOT`.
    state_index: Vec<u32>,
    /// One bit per physical row: set iff the row has a `states` slot.
    tracked: Vec<u64>,
    /// Row-state arena, insertion order.
    states: Vec<RowState>,
    /// Physical row → slot in `params`, or `NO_SLOT`.
    params_index: Vec<u32>,
    /// Row-parameter arena, insertion order.
    params: Vec<RowParams>,
    /// Materialization staging scratch, reused across calls.
    flip_scratch: FlipScratch,
    /// A dense landing's below-masks, two rows of words (the two RowHammer
    /// classes, or retention in the first), reused across calls.
    below: Vec<u64>,
}

impl Bank {
    /// Sizes the dense indexes on first touch.
    fn ensure_capacity(&mut self, rows: u32) {
        if self.state_index.is_empty() {
            self.state_index = vec![NO_SLOT; rows as usize];
            self.params_index = vec![NO_SLOT; rows as usize];
            self.tracked = vec![0u64; (rows as usize).div_ceil(64)];
        }
    }

    #[inline]
    fn is_tracked(&self, phys: u32) -> bool {
        self.tracked
            .get((phys / 64) as usize)
            .is_some_and(|w| (w >> (phys % 64)) & 1 == 1)
    }

    #[inline]
    fn state_slot(&self, phys: u32) -> Option<usize> {
        match self.state_index.get(phys as usize) {
            Some(&slot) if slot != NO_SLOT => Some(slot as usize),
            _ => None,
        }
    }

    #[inline]
    fn params_slot(&self, phys: u32) -> Option<usize> {
        match self.params_index.get(phys as usize) {
            Some(&slot) if slot != NO_SLOT => Some(slot as usize),
            _ => None,
        }
    }
}

/// A live DRAM module calibrated to a Table 3 record.
#[derive(Debug, Clone)]
pub struct DramModule {
    spec: ModuleSpec,
    profile: VendorProfile,
    geometry: Geometry,
    seed: u64,
    vpp: f64,
    temp_c: f64,
    clock_ns: f64,
    mapping: AddressMapping,
    banks: Vec<Bank>,
    trr: TrrEngine,
    /// Calibrated mean of the exponential per-row `HC_first` spread.
    eta_mean: f64,
    /// Base seed of the cycle-to-cycle measurement-noise stream. Defaults to
    /// a specimen-derived value; the parallel execution engine rebases it per
    /// work chunk so results do not depend on global operation order.
    noise_seed: u64,
    /// Monotone sequence number behind the cycle-to-cycle measurement noise.
    noise_seq: u64,
    /// On-die ECC configuration (None for all Table 3 modules, per §4.1).
    ondie_ecc: OnDieEcc,
    /// Words silently corrected by on-die ECC since instantiation.
    ecc_corrections: u64,
    /// −Φ⁻¹(1/cells_per_row): positions the weakest cell of a row.
    z_n: f64,
    /// `physics::t_rcd_required_ns(vpp, spec.trcd)` memoized at the current
    /// `V_PP` — row-independent, so it only changes when the rail moves, not
    /// on every column read.
    trcd_req_at_vpp_ns: f64,
}

impl DramModule {
    /// Builds a module from its spec and specimen seed, calibrating the
    /// per-row spread so the module-average BER at HC = 300 K matches the
    /// Table 3 record.
    ///
    /// # Errors
    ///
    /// Currently infallible in practice; returns `Result` for forward
    /// compatibility of the constructor contract.
    pub fn new(spec: ModuleSpec, seed: u64) -> Result<Self, DramError> {
        let geometry = spec.geometry();
        Self::with_geometry(spec, seed, geometry)
    }

    /// Builds a module with an overridden geometry (reduced row counts for
    /// fast tests). Cell-level behaviour is unchanged; only the address
    /// ranges shrink.
    ///
    /// # Errors
    ///
    /// Fails if the geometry has no rows or columns.
    pub fn with_geometry(
        spec: ModuleSpec,
        seed: u64,
        geometry: Geometry,
    ) -> Result<Self, DramError> {
        if geometry.rows_per_bank == 0 || geometry.columns_per_row == 0 || geometry.banks == 0 {
            return Err(DramError::AddressOutOfRange {
                what: "geometry must have at least one bank, row, and column".to_string(),
            });
        }
        let profile = vendor::profile(spec.mfr);
        let cells = geometry.bits_per_row() as f64;
        let z_n = -hash::inverse_normal_cdf(1.0 / cells);
        let eta_mean = calibrate_eta_mean(&spec, profile.cell_sigma, z_n);
        let mapping = AddressMapping::with_repairs(
            profile.scheme,
            geometry.rows_per_bank,
            profile.repairs_per_bank,
            hash::combine(seed, 0xBEEF),
        );
        let trr_policy = match spec.mfr {
            Manufacturer::A => TrrPolicy::Periodic { period: 2048 },
            Manufacturer::B => TrrPolicy::Probabilistic { chance: 1024 },
            Manufacturer::C => TrrPolicy::FrequencyTable { entries: 8 },
        };
        Ok(DramModule {
            profile,
            geometry,
            seed,
            vpp: physics::VPP_NOMINAL,
            temp_c: 50.0,
            clock_ns: 0.0,
            mapping,
            banks: vec![Bank::default(); geometry.banks as usize],
            trr: TrrEngine::new(trr_policy, hash::combine(seed, 0x7272)),
            eta_mean,
            noise_seed: seed ^ SALT_NOISE,
            noise_seq: 0,
            ondie_ecc: OnDieEcc::None,
            ecc_corrections: 0,
            z_n,
            trcd_req_at_vpp_ns: physics::t_rcd_required_ns(physics::VPP_NOMINAL, &spec.trcd),
            spec,
        })
    }

    /// The module's calibration record.
    pub fn spec(&self) -> &ModuleSpec {
        &self.spec
    }

    /// The module's vendor profile.
    pub fn profile(&self) -> &VendorProfile {
        &self.profile
    }

    /// The geometry in effect (may be reduced for tests).
    pub fn geometry(&self) -> Geometry {
        self.geometry
    }

    /// The internal address mapping. The methodology is expected to *not*
    /// use this directly but reverse engineer adjacency through hammering;
    /// it is exposed for validation and for constructing ground truth.
    pub fn mapping(&self) -> &AddressMapping {
        &self.mapping
    }

    /// Total row activations the device has seen (including bulk hammer
    /// activations), as observed by the internal TRR tracker.
    pub fn total_activations(&self) -> u64 {
        self.trr.activation_count()
    }

    /// The on-die ECC configuration.
    pub fn ondie_ecc(&self) -> OnDieEcc {
        self.ondie_ecc
    }

    /// Enables or disables on-die ECC. The study's modules run with
    /// [`OnDieEcc::None`] (§4.1); enabling SECDED is the extension that
    /// quantifies how much of the failure signal an internal code masks.
    pub fn set_ondie_ecc(&mut self, ecc: OnDieEcc) {
        self.ondie_ecc = ecc;
    }

    /// Words silently corrected by on-die ECC so far.
    pub fn ecc_corrections(&self) -> u64 {
        self.ecc_corrections
    }

    /// Current wordline voltage (V).
    pub fn vpp(&self) -> f64 {
        self.vpp
    }

    /// Drives the external `V_PP` rail.
    ///
    /// # Errors
    ///
    /// - [`DramError::VoltageOutOfRange`] outside absolute maximum ratings,
    /// - [`DramError::CommunicationLost`] below the module's `V_PPmin`.
    pub fn set_vpp(&mut self, vpp: f64) -> Result<(), DramError> {
        if !(physics::VPP_ABSOLUTE_MIN..=physics::VPP_ABSOLUTE_MAX).contains(&vpp) {
            return Err(DramError::VoltageOutOfRange { requested_vpp: vpp });
        }
        // Sub-millivolt tolerance: the supply's resolution is 1 mV and
        // floating-point ladder arithmetic must not flip the verdict at the
        // boundary.
        if vpp < self.spec.vpp_min - 1e-6 {
            return Err(DramError::CommunicationLost {
                requested_vpp: vpp,
                vpp_min: self.spec.vpp_min,
            });
        }
        self.vpp = vpp;
        self.trcd_req_at_vpp_ns = physics::t_rcd_required_ns(vpp, &self.spec.trcd);
        Ok(())
    }

    /// Current die temperature (°C).
    pub fn temperature_c(&self) -> f64 {
        self.temp_c
    }

    /// Sets the die temperature (the thermal controller's job).
    pub fn set_temperature_c(&mut self, temp_c: f64) {
        self.temp_c = temp_c;
    }

    /// Current device time (ns).
    pub fn now_ns(&self) -> f64 {
        self.clock_ns
    }

    /// Advances device time (the test infrastructure owns the clock).
    pub fn advance_ns(&mut self, dt_ns: f64) {
        self.clock_ns += dt_ns.max(0.0);
    }

    /// Activates a row: disturbs its neighbours, draws the flips its own
    /// disturbance and retention time have earned as a pending layer,
    /// restores its charge, and opens it for column access. The layer lands
    /// at the row's next read; writes before that overwrite it word by word.
    ///
    /// # Errors
    ///
    /// Fails on bad addresses or if the bank already has an open row.
    pub fn activate(&mut self, bank: u32, row: u32) -> Result<(), DramError> {
        self.geometry.check_bank(bank)?;
        self.geometry.check_row(row)?;
        if let Some(open) = self.banks[bank as usize].open_row {
            return Err(DramError::IllegalCommand {
                reason: format!("bank {bank} already has row {open} open"),
            });
        }
        let phys = self.mapping.logical_to_physical(row);
        self.disturb_neighbors(bank, phys, 1.0);
        self.trr.record_activations(row, 1);
        self.restore_row(bank, phys);
        let b = &mut self.banks[bank as usize];
        b.open_row = Some(row);
        b.open_phys = phys;
        Ok(())
    }

    /// Reads the 64-bit word at `column` from the open row.
    ///
    /// `t_rcd_used_ns` is the ACT→RD delay the controller actually used; if
    /// it is shorter than the row's requirement at the current `V_PP`, the
    /// returned word is (transiently) corrupted (§6.1). The row's pending
    /// flip layers land first, on every word, so the read sees them all.
    ///
    /// # Errors
    ///
    /// Fails on bad addresses or if no row is open.
    pub fn read(&mut self, bank: u32, column: u32, t_rcd_used_ns: f64) -> Result<u64, DramError> {
        self.geometry.check_bank(bank)?;
        self.geometry.check_column(column)?;
        if self.banks[bank as usize].open_row.is_none() {
            return Err(DramError::IllegalCommand {
                reason: format!("read from bank {bank} with no open row"),
            });
        }
        let phys = self.banks[bank as usize].open_phys;
        self.land_pending(bank, phys);
        let b = &self.banks[bank as usize];
        let (stored, written) = match b.state_slot(phys) {
            Some(slot) => {
                let r = &b.states[slot];
                (
                    r.data[column as usize],
                    r.written.as_ref().map(|w| w[column as usize]),
                )
            }
            None => (self.uninitialized_word(bank, phys, column), None),
        };
        // On-die ECC decodes the array word first; an activation-latency
        // violation then corrupts the transfer to the interface.
        let delivered = match written {
            Some(w) => {
                let result = self.ondie_ecc.read(stored, w);
                self.ecc_corrections += result.corrected_bits as u64;
                result.data
            }
            None => stored,
        };
        Ok(self.corrupt_for_trcd(bank, phys, column, delivered, t_rcd_used_ns))
    }

    /// Writes a 64-bit word into the open row.
    ///
    /// The word is overwritten in every flip layer pending on the row, so
    /// none of them lands on it; a layer with no word left is dropped. The
    /// first write to a row behind on-die ECC snapshots the whole array as
    /// the code's reference, so it lands the pending layers first.
    ///
    /// # Errors
    ///
    /// Fails on bad addresses or if no row is open.
    pub fn write(&mut self, bank: u32, column: u32, value: u64) -> Result<(), DramError> {
        self.geometry.check_bank(bank)?;
        self.geometry.check_column(column)?;
        let b = &self.banks[bank as usize];
        if b.open_row.is_none() {
            return Err(DramError::IllegalCommand {
                reason: format!("write to bank {bank} with no open row"),
            });
        }
        let phys = b.open_phys;
        let slot = self.begin_write(bank, phys);
        let clock = self.clock_ns;
        let ecc = self.ondie_ecc;
        let state = &mut self.banks[bank as usize].states[slot];
        let dropped = state.overwrite_pending(column, column + 1);
        state.data[column as usize] = value;
        if ecc != OnDieEcc::None {
            state.written.get_or_insert_with(|| state.data.clone())[column as usize] = value;
        }
        state.restored_at_ns = clock;
        if dropped > 0 {
            counter_add!("dram_flip_layers_dropped", dropped);
        }
        Ok(())
    }

    /// Precharges the bank, closing the open row. `elapsed_since_act_ns` is
    /// the time the row was kept open; closing earlier than the required
    /// restoration latency leaves the row partially charged (§6.2).
    ///
    /// # Errors
    ///
    /// Fails if the bank has no open row.
    pub fn precharge(&mut self, bank: u32, elapsed_since_act_ns: f64) -> Result<(), DramError> {
        self.geometry.check_bank(bank)?;
        let b = &mut self.banks[bank as usize];
        if b.open_row.take().is_none() {
            return Err(DramError::IllegalCommand {
                reason: format!("precharge of bank {bank} with no open row"),
            });
        }
        let phys = b.open_phys;
        let required = physics::t_ras_required_ns(self.vpp);
        if elapsed_since_act_ns < required {
            let penalty = (elapsed_since_act_ns / required).clamp(0.1, 1.0);
            if let Some(slot) = b.state_slot(phys) {
                b.states[slot].charge_penalty = penalty;
            }
        }
        Ok(())
    }

    /// Executes `count` activate–precharge cycles on `row` with the given
    /// cycle period — the hammering workhorse. Equivalent to `count` calls of
    /// [`DramModule::activate`]/[`DramModule::precharge`] with full `t_RAS`,
    /// but O(neighbors) instead of O(count). Advances the device clock by
    /// `count × period_ns`.
    ///
    /// The aggressor's own restore pushes one pending flip layer, as an
    /// activation does; the victims only accumulate disturbance, which
    /// their next activation turns into a layer of their own.
    ///
    /// # Errors
    ///
    /// Fails on bad addresses or if the bank has an open row.
    pub fn hammer(
        &mut self,
        bank: u32,
        row: u32,
        count: u64,
        period_ns: f64,
    ) -> Result<(), DramError> {
        self.geometry.check_bank(bank)?;
        self.geometry.check_row(row)?;
        if let Some(open) = self.banks[bank as usize].open_row {
            return Err(DramError::IllegalCommand {
                reason: format!("hammering bank {bank} while row {open} is open"),
            });
        }
        let phys = self.mapping.logical_to_physical(row);
        self.disturb_neighbors(bank, phys, count as f64);
        self.trr.record_activations(row, count);
        // The aggressor row itself is refreshed by its own activations.
        self.restore_row(bank, phys);
        self.clock_ns += count as f64 * period_ns.max(0.0);
        Ok(())
    }

    /// Issues a REF command: refreshes every tracked row and lets the TRR
    /// engine refresh the neighbors of sampled aggressors.
    ///
    /// A refresh is an activation: each refreshed row pushes a pending flip
    /// layer and is restored, and nothing lands until the row is read.
    ///
    /// The paper's methodology never calls this during tests — that is
    /// exactly how it disables TRR.
    pub fn refresh(&mut self) {
        let banks = self.geometry.banks;
        // TRR first: neighbors of sampled aggressors.
        let targets = self.trr.take_refresh_targets();
        for aggressor in targets {
            if aggressor < self.geometry.rows_per_bank {
                let (below, above) = self.mapping.physical_neighbors(aggressor);
                for victim in [below, above].into_iter().flatten() {
                    let victim_phys = self.mapping.logical_to_physical(victim);
                    for bank in 0..banks {
                        if self.banks[bank as usize].is_tracked(victim_phys) {
                            self.restore_row(bank, victim_phys);
                        }
                    }
                }
            }
        }
        // Regular refresh of all tracked rows, in ascending physical order.
        // Restoring never adds tracked rows, so a copied bitmap word stays
        // accurate while its bits are drained.
        for bank in 0..banks {
            let words = self.banks[bank as usize].tracked.len();
            for wi in 0..words {
                let mut word = self.banks[bank as usize].tracked[wi];
                while word != 0 {
                    let bit = word.trailing_zeros();
                    word &= word - 1;
                    self.restore_row(bank, wi as u32 * 64 + bit);
                }
            }
        }
    }

    /// Convenience: activate + write every column + precharge, with nominal
    /// timings. This is `initialize_row` in the paper's Alg. 1.
    ///
    /// # Errors
    ///
    /// Fails on bad addresses, an already-open bank, or a data length
    /// mismatch.
    pub fn write_row(&mut self, bank: u32, row: u32, data: &[u64]) -> Result<(), DramError> {
        if data.len() != self.geometry.columns_per_row as usize {
            return Err(DramError::AddressOutOfRange {
                what: format!(
                    "row data has {} words, geometry needs {}",
                    data.len(),
                    self.geometry.columns_per_row
                ),
            });
        }
        self.activate(bank, row)?;
        for (column, &value) in data.iter().enumerate() {
            self.write(bank, column as u32, value)?;
        }
        self.advance_ns(timing::NOMINAL_T_RAS_NS);
        self.precharge(bank, timing::NOMINAL_T_RAS_NS)?;
        self.advance_ns(timing::NOMINAL_T_RP_NS);
        Ok(())
    }

    /// Convenience: activate + read every column + precharge with the given
    /// ACT→RD delay.
    ///
    /// # Errors
    ///
    /// Fails on bad addresses or an already-open bank.
    pub fn read_row(&mut self, bank: u32, row: u32, t_rcd_ns: f64) -> Result<Vec<u64>, DramError> {
        self.activate(bank, row)?;
        self.advance_ns(t_rcd_ns);
        let mut out = Vec::with_capacity(self.geometry.columns_per_row as usize);
        for column in 0..self.geometry.columns_per_row {
            out.push(self.read(bank, column, t_rcd_ns)?);
        }
        let open_time = t_rcd_ns.max(timing::NOMINAL_T_RAS_NS);
        self.advance_ns(open_time - t_rcd_ns);
        self.precharge(bank, open_time)?;
        self.advance_ns(timing::NOMINAL_T_RP_NS);
        Ok(out)
    }

    // ------------------------------------------------------------------
    // Bulk open-row access — the SoftMC session operations' row bursts.
    //
    // These operate on the bank's *open* row like `read`/`write`, but move
    // a whole burst of columns per call so the per-access bookkeeping
    // (geometry checks, open-row check, arena slot and parameter lookups)
    // is paid once per row instead of once per column. Each is specified —
    // and tested, by the session-operation equivalence suite and the
    // lazy-vs-eager oracle — to leave the device in exactly the state the
    // per-column calls would.
    // ------------------------------------------------------------------

    /// Advances device time to an absolute instant (no-op if time is
    /// already past it). The slot-grid engine uses this to land the clock
    /// exactly on a precomputed command slot, which repeated relative
    /// [`DramModule::advance_ns`] calls could miss by an ulp.
    pub fn advance_to_ns(&mut self, t_ns: f64) {
        if t_ns > self.clock_ns {
            self.clock_ns = t_ns;
        }
    }

    /// Writes `value` into columns `0..columns` of the open row — the bulk
    /// equivalent of one [`DramModule::write`] per column. As with the
    /// per-column calls, the row's restore stamp is the *current* clock, so
    /// the caller advances time to the final write's command slot first.
    ///
    /// The written columns are overwritten in every pending flip layer, and
    /// layers left with no word are dropped: a whole-row fill clears the
    /// row's stack, so the flip work its activation drew is never done. On
    /// a row behind on-die ECC the first write lands the stack first, as
    /// the per-column calls do.
    ///
    /// # Errors
    ///
    /// Fails on a bad bank, more columns than the geometry has, or no open
    /// row.
    pub fn fill_open_row(&mut self, bank: u32, columns: u32, value: u64) -> Result<(), DramError> {
        self.geometry.check_bank(bank)?;
        if columns > self.geometry.columns_per_row {
            return Err(DramError::AddressOutOfRange {
                what: format!(
                    "burst of {} columns, geometry has {}",
                    columns, self.geometry.columns_per_row
                ),
            });
        }
        let b = &self.banks[bank as usize];
        if b.open_row.is_none() {
            return Err(DramError::IllegalCommand {
                reason: format!("write to bank {bank} with no open row"),
            });
        }
        let phys = b.open_phys;
        let slot = self.begin_write(bank, phys);
        let clock = self.clock_ns;
        let ecc = self.ondie_ecc;
        let n = columns as usize;
        let state = &mut self.banks[bank as usize].states[slot];
        let dropped = state.overwrite_pending(0, columns);
        state.data[..n].fill(value);
        if ecc != OnDieEcc::None {
            // Sequential per-column writes clone the array on the first
            // write (after that column already holds the new word) and then
            // overwrite each written column — identical to filling the data
            // first and cloning afterwards.
            state.written.get_or_insert_with(|| state.data.clone())[..n].fill(value);
        }
        state.restored_at_ns = clock;
        if dropped > 0 {
            counter_add!("dram_flip_layers_dropped", dropped);
        }
        Ok(())
    }

    /// Reads columns `0..columns` of the open row on successive command
    /// slots, appending the words to `out` — the bulk equivalent of one
    /// [`DramModule::read`] per column under the engine's slot-grid issue.
    ///
    /// The device clock must stand at the ACT issue slot of the open row
    /// (where the slot-grid engine leaves it immediately after
    /// [`DramModule::activate`]). Each column's effective ACT→RD delay comes
    /// from [`ColumnSlots`] — the first column sees `max(one command slot,
    /// t_rcd_ns)`, each later column one more slot — bit-identical to the
    /// controller issuing the reads one at a time, and the clock is left at
    /// the final read's slot.
    ///
    /// The row's pending flip layers land first, as at the first per-column
    /// read.
    ///
    /// A later column never issues earlier, so its `t_RCD` shortfall never
    /// grows: the per-column corruption check runs only until the first
    /// column that reads reliably, and every column after it is delivered
    /// clean. A tracked row without on-die ECC check words copies that
    /// clean suffix in one slice copy; untracked rows (power-on content)
    /// and rows with check words deliver it word by word.
    ///
    /// # Errors
    ///
    /// Fails on a bad bank, more columns than the geometry has, or no open
    /// row.
    pub fn read_open_row_into(
        &mut self,
        bank: u32,
        t_rcd_ns: f64,
        columns: u32,
        out: &mut Vec<u64>,
    ) -> Result<(), DramError> {
        self.geometry.check_bank(bank)?;
        if columns > self.geometry.columns_per_row {
            return Err(DramError::AddressOutOfRange {
                what: format!(
                    "burst of {} columns, geometry has {}",
                    columns, self.geometry.columns_per_row
                ),
            });
        }
        if self.banks[bank as usize].open_row.is_none() {
            return Err(DramError::IllegalCommand {
                reason: format!("read from bank {bank} with no open row"),
            });
        }
        let phys = self.banks[bank as usize].open_phys;
        self.land_pending(bank, phys);
        // Hoisted per-row work: parameters (derived on first touch, exactly
        // as the first per-column read would), the tRCD requirement, and the
        // row's hash seed.
        let pslot = self.ensure_params(bank, phys);
        let jitter = self.profile.trcd_jitter_ns;
        let required = self.banks[bank as usize].params[pslot].trcd_base_ns
            + self.trcd_req_at_vpp_ns
            - self.spec.trcd.base_ns;
        let rseed = hash::row_seed(self.seed, bank, phys);
        let ecc = self.ondie_ecc;
        let act_at = self.clock_ns;
        let mut slots = ColumnSlots::new(act_at, act_at + t_rcd_ns);
        let mut ecc_corrected: u64 = 0;
        let mut trcd_flip_bits: u64 = 0;
        let mut trcd_corrupt_reads: u64 = 0;
        out.reserve(columns as usize);
        {
            let b = &self.banks[bank as usize];
            let state = b.state_slot(phys).map(|slot| &b.states[slot]);
            let mut deliver = |column: u32| -> u64 {
                let Some(r) = state else {
                    return self.uninitialized_word(bank, phys, column);
                };
                let stored = r.data[column as usize];
                match &r.written {
                    Some(w) => {
                        let result = ecc.read(stored, w[column as usize]);
                        ecc_corrected += result.corrected_bits as u64;
                        result.data
                    }
                    None => stored,
                }
            };
            let mut column = 0;
            while column < columns {
                // Inlined `corrupt_for_trcd` with the per-row factors hoisted.
                let shortfall = required - (slots.slot(column) - act_at);
                if shortfall <= -jitter {
                    // Later columns issue no earlier: all of them read clean.
                    break;
                }
                let delivered = deliver(column);
                let p = ((shortfall + jitter) / (2.0 * jitter)).clamp(0.0, 1.0);
                let mut corrupted = delivered;
                for bit in 0..64u32 {
                    let cseed = hash::cell_seed(rseed, column * 64 + bit);
                    if hash::uniform01(hash::combine(cseed, SALT_TRCD)) < p {
                        corrupted ^= 1 << bit;
                    }
                }
                if corrupted != delivered {
                    trcd_flip_bits += u64::from((corrupted ^ delivered).count_ones());
                    trcd_corrupt_reads += 1;
                }
                out.push(corrupted);
                column += 1;
            }
            match state {
                Some(r) if r.written.is_none() => {
                    out.extend_from_slice(&r.data[column as usize..columns as usize]);
                }
                _ => out.extend((column..columns).map(deliver)),
            }
        }
        if columns > 0 {
            self.clock_ns = slots.slot(columns - 1);
        }
        self.ecc_corrections += ecc_corrected;
        if trcd_corrupt_reads > 0 {
            counter_add!("dram_flips_trcd", trcd_flip_bits);
            counter_add!("dram_trcd_corrupt_reads", trcd_corrupt_reads);
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Test oracle — model introspection for validation, not methodology.
    // ------------------------------------------------------------------

    /// Ground-truth `HC_first` of a row's weakest cell at nominal `V_PP`.
    ///
    /// This reads the generative model directly; the study methodology must
    /// instead *measure* it through the device interface. Exposed for
    /// validation tests and experiment ground truth.
    pub fn oracle_hc_first_nominal(&mut self, bank: u32, row: u32) -> f64 {
        let phys = self.mapping.logical_to_physical(row);
        let slot = self.ensure_params(bank, phys);
        self.banks[bank as usize].params[slot].ln_hc_first.exp()
    }

    /// Ground-truth normalized `HC_first` multiplier of a row at `vpp`.
    pub fn oracle_hc_multiplier(&mut self, bank: u32, row: u32, vpp: f64) -> f64 {
        let phys = self.mapping.logical_to_physical(row);
        let slot = self.ensure_params(bank, phys);
        let coeffs = self.banks[bank as usize].params[slot].coeffs;
        physics::hc_multiplier(vpp, &coeffs)
    }

    /// Ground-truth required `t_RCD` of a row at `vpp` (ns), excluding
    /// per-cell jitter.
    pub fn oracle_t_rcd_required(&mut self, bank: u32, row: u32, vpp: f64) -> f64 {
        let phys = self.mapping.logical_to_physical(row);
        let slot = self.ensure_params(bank, phys);
        let base = self.banks[bank as usize].params[slot].trcd_base_ns;
        base + physics::t_rcd_required_ns(vpp, &self.spec.trcd) - self.spec.trcd.base_ns
    }

    /// Pre-derives the row-parameter table for a chunk of logical rows and
    /// their distance-≤2 physical neighborhoods.
    ///
    /// The execution engine calls this once per work unit so the ladder's
    /// hammer loops run against a fully populated table instead of deriving
    /// parameters lazily mid-sweep. Derivation is a pure function of the
    /// specimen seed, so pre-deriving changes no results — only when the
    /// work happens. Out-of-range rows are ignored.
    pub fn prepare_rows(&mut self, bank: u32, rows: &[u32]) {
        if bank >= self.geometry.banks {
            return;
        }
        let rows_per_bank = self.geometry.rows_per_bank;
        for &row in rows {
            if row >= rows_per_bank {
                continue;
            }
            let phys = self.mapping.logical_to_physical(row);
            let lo = phys.saturating_sub(2);
            let hi = (phys + 2).min(rows_per_bank - 1);
            for p in lo..=hi {
                self.ensure_params(bank, p);
            }
        }
    }

    // ------------------------------------------------------------------
    // Internals
    // ------------------------------------------------------------------

    /// Cycle-to-cycle measurement noise: a multiplicative factor near 1,
    /// drawn from an advancing deterministic stream. Real devices show
    /// run-to-run variation (the paper quantifies it via the coefficient of
    /// variation in §4.6); without this term, repeated identical experiments
    /// on the model would be bit-identical and the CV analysis vacuous.
    fn next_noise(&mut self, sigma: f64) -> f64 {
        self.noise_seq += 1;
        (1.0 + sigma * hash::standard_normal(hash::combine(self.noise_seed, self.noise_seq)))
            .max(0.5)
    }

    /// Rebases the cycle-to-cycle measurement-noise stream onto `stream_seed`
    /// and restarts it from the beginning.
    ///
    /// Per-cell physics (thresholds, retention times, orientations) are
    /// untouched — the module remains the same specimen. Only the run-to-run
    /// noise becomes a pure function of `stream_seed` and the subsequent
    /// operation sequence instead of the module's full history. The parallel
    /// execution engine calls this with a seed derived from
    /// `(seed, module, bank, chunk)` (see `hash::chunk_seed`) so that sweep
    /// results are independent of worker count and scheduling.
    pub fn reseed_noise(&mut self, stream_seed: u64) {
        self.noise_seed = stream_seed;
        self.noise_seq = 0;
    }

    /// Returns the arena slot of the row's parameters, deriving them on
    /// first touch. A hit is a single bounds-checked load.
    fn ensure_params(&mut self, bank: u32, phys: u32) -> usize {
        let rows = self.geometry.rows_per_bank;
        {
            let b = &mut self.banks[bank as usize];
            b.ensure_capacity(rows);
            if let Some(slot) = b.params_slot(phys) {
                return slot;
            }
        }
        let params = self.derive_row_params(bank, phys);
        let b = &mut self.banks[bank as usize];
        let slot = b.params.len();
        b.params.push(params);
        b.params_index[phys as usize] = slot as u32;
        slot
    }

    fn derive_row_params(&self, bank: u32, phys: u32) -> RowParams {
        let spec = &self.spec;
        let profile = &self.profile;
        let rs = hash::row_seed(self.seed, bank, phys);
        let sigma = profile.cell_sigma;

        // Row HC_first: module minimum × exp(Exponential(eta_mean)).
        let eta = -self.eta_mean * hash::uniform01(hash::combine(rs, SALT_ROW)).max(1e-12).ln();
        let ln_hc_first = spec.hc_first_nominal.ln() + eta;
        let mu_ln = ln_hc_first + self.z_n * sigma;

        // Voltage response: target multiplier = module target × population
        // uplift × vendor spread, clamped to the vendor's Fig. 6 range;
        // margin and mechanism split drawn from the vendor profile;
        // coefficients solved to realize the target exactly at V_PPmin.
        //
        // The uplift reconciles two paper-reported statistics: Table 3's
        // module values are worst-case (the *minimum* HC_first across rows at
        // each voltage), while §5's +7.4 % / −15.2 % means are per-row
        // averages — the typical row responds more strongly than the ratio of
        // the worst-case values suggests.
        const ROW_POPULATION_UPLIFT: f64 = 1.05;
        let spread = (profile.row_multiplier_sigma
            * hash::standard_normal(hash::combine(rs, SALT_ROW ^ 0xA)))
        .exp();
        let (lo, hi) = profile.multiplier_range;
        let target = (spec.hc_multiplier_target() * ROW_POPULATION_UPLIFT * spread).clamp(lo, hi);
        let margin = hash::uniform(
            hash::combine(rs, SALT_ROW ^ 0xB),
            profile.margin_range.0,
            profile.margin_range.1,
        );
        let dq_share = hash::uniform(
            hash::combine(rs, SALT_ROW ^ 0xC),
            profile.dq_share_range.0,
            profile.dq_share_range.1,
        );
        let coeffs = physics::solve_coeffs(target, spec.vpp_min, margin, dq_share);

        // Activation latency: module base with mild, bounded per-row
        // variation.
        let trcd_base_ns =
            spec.trcd.base_ns + hash::uniform(hash::combine(rs, SALT_TRCD), -0.2, 0.2);

        // Retention weak clusters (Fig. 11): row membership and word choice.
        let pick_words = |clusters: &[vendor::WeakCluster], salt: u64| -> Vec<u32> {
            let mut words = Vec::new();
            let mut acc = 0.0;
            let u = hash::uniform01(hash::combine(rs, SALT_CLUSTER ^ salt));
            for (ci, cluster) in clusters.iter().enumerate() {
                acc += cluster.row_fraction;
                if u < acc {
                    // Arithmetic-progression sampling with an odd stride over
                    // the power-of-two column count: distinct by construction,
                    // so an n-word cluster really has n erroneous words
                    // (Fig. 11 plots these counts exactly).
                    let columns = self.geometry.columns_per_row;
                    let n = cluster.words.min(columns);
                    let h = hash::splitmix64(hash::combine(
                        rs,
                        SALT_CLUSTER ^ salt ^ ((ci as u64) << 32),
                    ));
                    let base = (h % columns as u64) as u32;
                    let stride = ((h >> 32) as u32 | 1) % columns.max(1);
                    let stride = stride.max(1) | 1;
                    for w in 0..n {
                        words.push((base.wrapping_add(w.wrapping_mul(stride))) % columns);
                    }
                    break;
                }
            }
            words.sort_unstable();
            words.dedup();
            words
        };
        let cluster64_words = pick_words(&spec.cluster64, 0x64);
        let cluster128_words = pick_words(&profile.cluster128, 0x128);

        RowParams {
            ln_hc_first,
            mu_ln,
            sigma,
            coeffs,
            trcd_base_ns,
            cluster64_words,
            cluster128_words,
            hc: FlipIndexes::default(),
            ret: FlipIndexes::default(),
        }
    }

    /// Makes the row's `salt` index for cutoff `p` ready: the list
    /// ([`SaltIndex`]) for `p <= FIRST_CAP`, the dense index
    /// ([`DenseIndex`]) above it. Each is built the first time a cutoff
    /// needs it and kept for the row's life, so a `(row, salt)` builds at
    /// most one list and one dense index.
    ///
    /// Pure per-cell hash draws — no observable behaviour depends on *when*
    /// this runs, so it is deferred until a landing layer actually has flip
    /// work for the salt. Returns whether it built.
    fn ensure_index(&mut self, bank: u32, pslot: usize, phys: u32, salt: u64, p: f64) -> bool {
        let columns = self.geometry.columns_per_row;
        let rseed = hash::row_seed(self.seed, bank, phys);
        let pass = HashPass::detect();
        let indexes = self.banks[bank as usize].params[pslot].indexes(salt);
        if p > FIRST_CAP {
            if indexes.dense.is_some() {
                return false;
            }
            indexes.dense = Some(DenseIndex::build(pass, rseed, columns as usize, salt));
        } else {
            if indexes.list.is_some() {
                return false;
            }
            indexes.list = Some(SaltIndex::build(pass, rseed, phys, columns * 64, salt));
        }
        true
    }

    /// Accumulates disturbance on the physical neighbors of an activated row.
    ///
    /// A hammer burst of N activations arrives here as one call with
    /// `count = N` — the whole burst is a single batched flush into the
    /// victims' accumulators. Victims are addressed physically, so no
    /// logical↔physical translation happens on this path; untracked
    /// neighbors cost one bitmap probe each.
    fn disturb_neighbors(&mut self, bank: u32, phys: u32, count: f64) {
        counter_add!("dram_disturb_events", 1);
        let count = count * self.next_noise(0.025);
        let rows = self.geometry.rows_per_bank;
        let b = &mut self.banks[bank as usize];
        if b.states.is_empty() {
            return;
        }
        // Each victim tracks which side the aggressor activity came from so
        // the two-sided synergy term can be evaluated at restore.
        // From a victim at phys v, an aggressor at v−1 or v−2 is "below".
        let contributions = [
            (phys.wrapping_sub(1), count, false), // victim below the aggressor → aggressor is its above-neighbor
            (phys + 1, count, true),
            (phys.wrapping_sub(2), 2.0 * DIST2_WEIGHT * count, false),
            (phys + 2, 2.0 * DIST2_WEIGHT * count, true),
        ];
        for (victim_phys, amount, aggressor_is_below) in contributions {
            if victim_phys >= rows {
                continue;
            }
            if let Some(slot) = b.state_slot(victim_phys) {
                let state = &mut b.states[slot];
                if aggressor_is_below {
                    state.disturb_below += amount;
                } else {
                    state.disturb_above += amount;
                }
            }
        }
    }

    /// The activation half of a row's flip process: converts the row's
    /// accumulated disturbance and elapsed retention time into flip
    /// cutoffs, pushes them as a pending [`FlipLayer`] when any cell can
    /// flip, and restores the row in place.
    ///
    /// Everything that draws from the sequenced noise stream or reads the
    /// row's timing happens here, in activation order; the index builds,
    /// candidate scans and XORs wait for [`DramModule::land_pending`].
    fn restore_row(&mut self, bank: u32, phys: u32) {
        let pslot = self.ensure_params(bank, phys);
        let slot = self.ensure_row_phys(bank, phys);
        let clock = self.clock_ns;
        let vpp = self.vpp;
        let temp = self.temp_c;
        let retention = self.profile.retention;
        let columns = self.geometry.columns_per_row;

        let (mu_ln, sigma, coeffs, has_cluster) = {
            let p = &self.banks[bank as usize].params[pslot];
            (
                p.mu_ln,
                p.sigma,
                p.coeffs,
                !p.cluster64_words.is_empty() || !p.cluster128_words.is_empty(),
            )
        };
        let (charge_penalty, disturb, elapsed_s) = {
            let s = &self.banks[bank as usize].states[slot];
            let (lo, hi) = (s.disturb_below, s.disturb_above);
            (
                s.charge_penalty,
                (0.5 * (lo + hi) + TWO_SIDED_KAPPA * lo.min(hi)) / (1.0 + TWO_SIDED_KAPPA),
                ((clock - s.restored_at_ns) * 1e-9).max(0.0),
            )
        };

        // --- RowHammer flip probabilities per pattern class -------------
        // A cell flips when its threshold (nominal lognormal x voltage
        // multiplier x pattern factor) is at or below the accumulated
        // disturbance; per cell this reduces to one hash + compare against
        // a per-class probability cutoff.
        let mut p_hammer = [0.0f64; 2]; // [aligned horizontal, anti-aligned]
        if disturb > 0.0 {
            let multiplier = physics::hc_multiplier(vpp, &coeffs) * charge_penalty.powf(0.5);
            let ln_d = disturb.ln();
            for (class, factor) in [(0usize, 1.0f64), (1usize, 1.25f64)] {
                let ln_thresh = mu_ln + multiplier.ln() + factor.ln();
                p_hammer[class] = hash::normal_cdf((ln_d - ln_thresh) / sigma);
            }
        }
        // Under 1e-4 expected flips at the smaller cutoff: no hammer work.
        if p_hammer[1] * (columns as f64) * 64.0 <= 1e-4 {
            p_hammer = [0.0; 2];
        }

        // --- Retention flip probability ---------------------------------
        let mut p_ret = 0.0f64;
        let mut cluster = false;
        if elapsed_s > 0.0 {
            let scale = retention.temperature_scale(temp)
                * retention.vpp_scale(vpp)
                * charge_penalty.powi(2);
            let adj = elapsed_s * self.next_noise(0.04) / scale.max(1e-12);
            p_ret = hash::normal_cdf((adj.ln() - retention.mu_ln_s) / retention.sigma_ln);
            if p_ret < 1e-12 {
                p_ret = 0.0;
            }
            // Weak clusters live in the tens-of-ms band at 80 degC; at lower
            // temperatures and nominal V_PP they scale out of reach.
            let min_cluster_s = 0.03 * retention.temperature_scale(temp) * retention.vpp_scale(vpp);
            cluster = has_cluster && elapsed_s >= min_cluster_s;
        }

        if p_hammer[1] > 0.0 || p_ret > 0.0 || cluster {
            if self.banks[bank as usize].states[slot].pending.len() == MAX_PENDING_LAYERS {
                self.land_pending(bank, phys);
            }
            let pending = &mut self.banks[bank as usize].states[slot].pending;
            pending.push(FlipLayer {
                p_hammer,
                p_ret,
                cluster,
                elapsed_s,
                temp_c: temp,
                vpp,
                charge_penalty,
                killed: vec![0; columns.div_ceil(64) as usize],
                live: columns,
            });
            debug_assert!(pending.len() <= MAX_PENDING_LAYERS);
        }
        // Restore in place.
        let state = &mut self.banks[bank as usize].states[slot];
        state.restored_at_ns = clock;
        state.disturb_below = 0.0;
        state.disturb_above = 0.0;
        state.charge_penalty = 1.0;
    }

    /// The access half of a row's flip process: lands the row's pending
    /// flip layers, oldest first, and empties its stack. A no-op for an
    /// untracked row and for a row with nothing pending.
    fn land_pending(&mut self, bank: u32, phys: u32) {
        let b = &mut self.banks[bank as usize];
        let Some(slot) = b.state_slot(phys) else {
            return;
        };
        if b.states[slot].pending.is_empty() {
            return;
        }
        let pslot = b
            .params_slot(phys)
            .expect("the activation that pushed a layer derived the row's parameters");
        let mut layers = std::mem::take(&mut b.states[slot].pending);
        let mut tally = LandTally::default();
        for layer in &layers {
            self.land_layer(bank, phys, pslot, slot, layer, &mut tally);
        }
        // Hand the emptied stack back so its allocation is reused.
        layers.clear();
        self.banks[bank as usize].states[slot].pending = layers;
        tally.flush();
    }

    /// Applies one layer's flips to the row's words that no write has
    /// overwritten since the layer was pushed. Each decision reads the word
    /// as the older layers left it, so a stack lands in push order.
    fn land_layer(
        &mut self,
        bank: u32,
        phys: u32,
        pslot: usize,
        slot: usize,
        layer: &FlipLayer,
        tally: &mut LandTally,
    ) {
        let retention = self.profile.retention;
        let vpp_min = self.spec.vpp_min;
        let rseed = hash::row_seed(self.seed, bank, phys);
        let columns = self.geometry.columns_per_row;
        let FlipLayer {
            p_hammer,
            p_ret,
            cluster: cluster_relevant,
            elapsed_s,
            temp_c: temp,
            vpp,
            charge_penalty,
            ..
        } = *layer;
        let hammer_possible = p_hammer[1] > 0.0;
        // RowHammer flips need a cell to clear the aligned-class cutoff (the
        // larger of the two), so that is the depth the hc index must reach.
        let p_hammer_max = p_hammer[0].max(p_hammer[1]);
        if hammer_possible {
            tally.index_builds +=
                u64::from(self.ensure_index(bank, pslot, phys, SALT_HC, p_hammer_max));
        }
        if p_ret > 0.0 {
            tally.index_builds += u64::from(self.ensure_index(bank, pslot, phys, SALT_RET, p_ret));
        }
        let words = columns as usize;
        // Borrow the arenas and the staging scratch disjointly so the
        // candidate scans mutate the state while reading the parameters in
        // place.
        let Bank {
            params,
            states,
            flip_scratch: scratch,
            below,
            ..
        } = &mut self.banks[bank as usize];
        let params = &params[pslot];
        let state = &mut states[slot];
        if hammer_possible || p_ret > 0.0 || cluster_relevant {
            scratch.flips.resize(words, 0);
            debug_assert!(scratch.touched.is_empty());
            let checker = checkerboard(phys);

            // RowHammer flips. A cell flips when it is charged (it stores
            // its polarity) and its draw is below its coupling class's
            // cutoff. The class comes from the pre-flip word: neighbours
            // storing the opposite value couple hardest (the aligned class,
            // cutoff `p_hammer[0]`), occasionally inverted by a per-cell
            // preference bit. Both indexes apply this rule; the list to the
            // cells whose draw can clear the larger cutoff, one at a time,
            // and the dense index to whole words.
            if hammer_possible && p_hammer_max > FIRST_CAP {
                let dense = params.hc.dense.as_ref().expect("ensured");
                below.resize(2 * words, 0);
                let (below_aligned, below_anti) = below.split_at_mut(words);
                let limits = p_hammer.map(hash::draw_limit);
                dense.below(rseed, SALT_HC, limits[0], below_aligned);
                dense.below(rseed, SALT_HC, limits[1], below_anti);
                let (ori, pref) = (dense.plane(ORI_PLANE), dense.plane(PREF_PLANE));
                for (w, staged) in scratch.flips[..words].iter_mut().enumerate() {
                    let current = state.data[w];
                    let charged = !(current ^ checker ^ ori[w]);
                    let aligned = opposite_neighbours(current) ^ pref[w];
                    let flips = layer.live_mask(w)
                        & charged
                        & ((aligned & below_aligned[w]) | (!aligned & below_anti[w]));
                    *staged |= flips;
                    tally.hammer += u64::from(flips.count_ones());
                }
                scratch.whole_row = true;
            } else if hammer_possible {
                let index = params.hc.list.as_ref().expect("ensured");
                for &IndexEntry { u, cell, flags } in index.candidates(p_hammer_max) {
                    let word = (cell >> 6) as usize;
                    if layer.is_killed(word) {
                        continue;
                    }
                    let bit = cell & 63;
                    let current = state.data[word];
                    if (current >> bit) & 1 != u64::from(flags & FLAG_POLARITY) {
                        continue; // discharged
                    }
                    let mut aligned = (opposite_neighbours(current) >> bit) & 1 == 1;
                    if flags & FLAG_PREF != 0 {
                        aligned = !aligned;
                    }
                    let p = if aligned { p_hammer[0] } else { p_hammer[1] };
                    if u < p {
                        scratch.stage(word, 1 << bit);
                        tally.hammer += 1;
                    }
                }
            }

            // Retention flips: charged cells below the cutoff that did not
            // already flip by hammer. Each cell appears at most once per
            // salt index, so a staged bit seen here can only be a hammer
            // flip — matching the per-cell loop's `continue` after a hammer
            // flip.
            if p_ret > FIRST_CAP {
                let dense = params.ret.dense.as_ref().expect("ensured");
                below.resize(2 * words, 0);
                let below = &mut below[..words];
                dense.below(rseed, SALT_RET, hash::draw_limit(p_ret), below);
                let ori = dense.plane(ORI_PLANE);
                for (w, staged) in scratch.flips[..words].iter_mut().enumerate() {
                    let charged = !(state.data[w] ^ checker ^ ori[w]);
                    let flips = layer.live_mask(w) & charged & below[w] & !*staged;
                    *staged |= flips;
                    tally.retention += u64::from(flips.count_ones());
                }
                scratch.whole_row = true;
            } else if p_ret > 0.0 {
                let index = params.ret.list.as_ref().expect("ensured");
                for &IndexEntry { u, cell, flags } in index.candidates(p_ret) {
                    if u >= p_ret {
                        continue;
                    }
                    let word = (cell >> 6) as usize;
                    if layer.is_killed(word) {
                        continue;
                    }
                    let bit = cell & 63;
                    if (state.data[word] >> bit) & 1 != u64::from(flags & FLAG_POLARITY) {
                        continue;
                    }
                    if (scratch.flips[word] >> bit) & 1 == 0 {
                        scratch.stage(word, 1 << bit);
                        tally.retention += 1;
                    }
                }
            }

            // Weak-cluster flips. The per-word pass called `cluster_flips`
            // on every word, but it returns 0 outside the row's cluster
            // lists; walking the (sorted, deduped) union is identical. Reads
            // the pre-flip word — the staged flips are not applied yet.
            if cluster_relevant {
                let (a, b) = (&params.cluster64_words, &params.cluster128_words);
                let (mut i, mut j) = (0usize, 0usize);
                while i < a.len() || j < b.len() {
                    let word = match (a.get(i), b.get(j)) {
                        (Some(&x), Some(&y)) if x == y => {
                            i += 1;
                            j += 1;
                            x
                        }
                        (Some(&x), Some(&y)) if x < y => {
                            i += 1;
                            x
                        }
                        (Some(_), Some(&y)) => {
                            j += 1;
                            y
                        }
                        (Some(&x), None) => {
                            i += 1;
                            x
                        }
                        (None, Some(&y)) => {
                            j += 1;
                            y
                        }
                        (None, None) => unreachable!(),
                    };
                    let w = word as usize;
                    if layer.is_killed(w) {
                        continue;
                    }
                    let cluster = cluster_flips(
                        params,
                        &retention,
                        vpp_min,
                        rseed,
                        phys,
                        word,
                        state.data[w],
                        elapsed_s,
                        temp,
                        vpp,
                        charge_penalty,
                    );
                    if cluster != 0 {
                        tally.cluster += u64::from((cluster & !scratch.flips[w]).count_ones());
                        scratch.stage(w, cluster);
                    }
                }
            }

            // Deferred apply: every decision above read pre-flip words, so
            // one XOR per touched word lands all of them at once. Staged
            // bits are cleared on the way out, leaving the scratch zeroed
            // for the next layer. A dense landing, or many touched words,
            // takes the wide-word whole-row pass (XOR with a zero mask is
            // the identity, so the result is the same either way); sparse
            // list landings walk the touched list.
            let FlipScratch {
                flips,
                touched,
                whole_row,
            } = scratch;
            let row_words = flips.len().min(state.data.len());
            if *whole_row || crate::wide::dense_apply_pays(touched.len(), row_words) {
                crate::wide::xor_apply_clear(&mut state.data[..row_words], &mut flips[..row_words]);
            } else {
                crate::wide::xor_apply_clear_sparse(&mut state.data, flips, touched);
            }
            touched.clear();
            *whole_row = false;
        }
    }

    /// The arena slot of the open row about to be written. The first write
    /// to a row behind on-die ECC copies the array into the code's
    /// reference, so the row's pending layers land before it.
    fn begin_write(&mut self, bank: u32, phys: u32) -> usize {
        let slot = self.ensure_row_phys(bank, phys);
        if self.ondie_ecc != OnDieEcc::None
            && self.banks[bank as usize].states[slot].written.is_none()
        {
            self.land_pending(bank, phys);
        }
        slot
    }

    /// Transient read corruption when the used `t_RCD` is below the row's
    /// requirement at the current `V_PP`.
    fn corrupt_for_trcd(
        &mut self,
        bank: u32,
        phys: u32,
        column: u32,
        stored: u64,
        t_rcd_used_ns: f64,
    ) -> u64 {
        let jitter = self.profile.trcd_jitter_ns;
        let slot = self.ensure_params(bank, phys);
        let trcd_base = self.banks[bank as usize].params[slot].trcd_base_ns;
        let module_base = self.spec.trcd.base_ns;
        let required = trcd_base + self.trcd_req_at_vpp_ns - module_base;
        // Per-cell requirements are *bounded*: row requirement ± jitter. A
        // read at or beyond `required + jitter` is reliable by construction,
        // which is what lets §6.1's "works at 24 ns / 15 ns" statements be
        // crisp rather than probabilistic.
        let shortfall = required - t_rcd_used_ns;
        if shortfall <= -jitter {
            return stored;
        }
        let p = ((shortfall + jitter) / (2.0 * jitter)).clamp(0.0, 1.0);
        let rseed = hash::row_seed(self.seed, bank, phys);
        let mut corrupted = stored;
        for bit in 0..64u32 {
            let cseed = hash::cell_seed(rseed, column * 64 + bit);
            if hash::uniform01(hash::combine(cseed, SALT_TRCD)) < p {
                corrupted ^= 1 << bit;
            }
        }
        if corrupted != stored {
            counter_add!("dram_flips_trcd", (corrupted ^ stored).count_ones());
            counter_add!("dram_trcd_corrupt_reads", 1);
        }
        corrupted
    }

    /// Deterministic power-on content of an untracked row's word.
    fn uninitialized_word(&self, bank: u32, phys: u32, column: u32) -> u64 {
        hash::splitmix64(hash::combine(
            hash::row_seed(self.seed, bank, phys),
            SALT_INIT ^ column as u64,
        ))
    }

    /// Returns the arena slot of the row's state, materializing the
    /// deterministic power-on content on first touch.
    fn ensure_row_phys(&mut self, bank: u32, phys: u32) -> usize {
        let columns = self.geometry.columns_per_row;
        let clock = self.clock_ns;
        let seed = self.seed;
        let rows = self.geometry.rows_per_bank;
        let b = &mut self.banks[bank as usize];
        b.ensure_capacity(rows);
        if let Some(slot) = b.state_slot(phys) {
            return slot;
        }
        let data = (0..columns)
            .map(|c| {
                hash::splitmix64(hash::combine(
                    hash::row_seed(seed, bank, phys),
                    SALT_INIT ^ c as u64,
                ))
            })
            .collect();
        let slot = b.states.len();
        b.states.push(RowState {
            data,
            written: None,
            restored_at_ns: clock,
            disturb_below: 0.0,
            disturb_above: 0.0,
            charge_penalty: 1.0,
            pending: Vec::new(),
        });
        b.state_index[phys as usize] = slot as u32;
        b.tracked[(phys / 64) as usize] |= 1u64 << (phys % 64);
        slot
    }
}

/// A pre-calibrated module template shared across work chunks.
///
/// Construction of a [`DramModule`] pays a fixed calibration cost
/// (`calibrate_eta_mean` evaluates a 256-point quadrature about 54 times
/// in its bisection, with the 256 `ln(u)` computed once) plus
/// vendor-profile and repair-map derivation. All of it is a pure function
/// of `(spec, seed, geometry)`, so the execution engine builds one
/// blueprint per module and clones the pristine device per
/// `(module, chunk)` work unit. A pristine module has empty per-bank
/// arenas, making the clone a handful of small allocations.
#[derive(Debug, Clone)]
pub struct ModuleBlueprint {
    pristine: DramModule,
    /// Memoized `(V_PPmin, ladder steps)` of the §4.1 descending search, if
    /// the owner has characterized it. Like the paper's per-module
    /// calibration, the search result is a pure function of the calibrated
    /// module, so units can replay the memo instead of re-running the
    /// ladder.
    vppmin_memo: Option<(f64, u64)>,
}

impl ModuleBlueprint {
    /// Calibrates a blueprint from a spec and specimen seed.
    ///
    /// # Errors
    ///
    /// Propagates [`DramModule::new`] errors.
    pub fn new(spec: ModuleSpec, seed: u64) -> Result<Self, DramError> {
        DramModule::new(spec, seed).map(|pristine| ModuleBlueprint {
            pristine,
            vppmin_memo: None,
        })
    }

    /// Calibrates a blueprint with an overridden geometry.
    ///
    /// # Errors
    ///
    /// Propagates [`DramModule::with_geometry`] errors.
    pub fn with_geometry(
        spec: ModuleSpec,
        seed: u64,
        geometry: Geometry,
    ) -> Result<Self, DramError> {
        DramModule::with_geometry(spec, seed, geometry).map(|pristine| ModuleBlueprint {
            pristine,
            vppmin_memo: None,
        })
    }

    /// The blueprint's calibration record.
    pub fn spec(&self) -> &ModuleSpec {
        &self.pristine.spec
    }

    /// The memoized `(V_PPmin, ladder steps)`, if characterized.
    pub fn vppmin_memo(&self) -> Option<(f64, u64)> {
        self.vppmin_memo
    }

    /// Records the result of a completed V_PPmin search: the minimum
    /// operable `V_PP` and the number of descending-ladder steps the search
    /// took to find it.
    pub fn set_vppmin_memo(&mut self, vpp_min: f64, steps: u64) {
        self.vppmin_memo = Some((vpp_min, steps));
    }

    /// Produces a fresh, pristine module — behaviorally identical to
    /// constructing one from the same `(spec, seed, geometry)`.
    pub fn instantiate(&self) -> DramModule {
        self.pristine.clone()
    }
}

/// Flips contributed by a word's weak-cluster cell, if any.
#[allow(clippy::too_many_arguments)]
fn cluster_flips(
    params: &RowParams,
    retention: &physics::RetentionProfile,
    vpp_min: f64,
    rseed: u64,
    phys: u32,
    word: u32,
    current: u64,
    elapsed_s: f64,
    temp: f64,
    vpp: f64,
    charge_penalty: f64,
) -> u64 {
    let scale =
        retention.temperature_scale(temp) * retention.vpp_scale(vpp) * charge_penalty.powi(2);
    let scale_min = retention.vpp_scale(vpp_min);
    let mut flips = 0u64;
    for (band_s, words) in [
        (0.064, &params.cluster64_words),
        (0.128, &params.cluster128_words),
    ] {
        if !words.contains(&word) {
            continue;
        }
        let wseed = hash::combine(rseed, SALT_CLUSTER ^ word as u64);
        let bit = (hash::splitmix64(wseed) % 64) as u32;
        // Base retention at 80 °C/nominal V_PP chosen so the cell fails
        // inside (band/2, band] at V_PPmin but survives `band` at
        // nominal V_PP.
        let base_s =
            band_s / scale_min.max(1e-9) * hash::uniform(hash::combine(wseed, 0xF00D), 0.76, 0.98);
        let effective = base_s * scale;
        if elapsed_s >= effective {
            // The weak cell shares the array's true-/anti-cell layout, so
            // the per-row worst-case checkerboard phase charges it — a
            // flip occurs when it stores its charged polarity.
            let stored = (current >> bit) & 1;
            let polarity = ((bit ^ phys) & 1) as u64;
            if stored == polarity {
                flips |= 1 << bit;
            }
        }
    }
    flips
}

/// Calibrates the mean of the exponential per-row `HC_first` spread so the
/// expected module BER at HC = 300 K and nominal `V_PP` matches the Table 3
/// record.
///
/// A 60-step bisection over a 256-point quadrature. The quadrature's
/// `ln(u)` are computed once per call, and the bisection returns as soon as
/// its midpoint rounds onto an end of the interval: from then on every step
/// leaves the result at that midpoint (about 54 evaluations instead of 61).
fn calibrate_eta_mean(spec: &ModuleSpec, sigma: f64, z_n: f64) -> f64 {
    const N: usize = 256;
    let a = (300_000.0f64.ln() - spec.hc_first_nominal.ln()) / sigma - z_n;
    let target = spec.ber_nominal;
    let ln_u: [f64; N] = std::array::from_fn(|i| ((i as f64 + 0.5) / N as f64).ln());
    let expected_ber = |mean: f64| -> f64 {
        // E_u[Φ(a − η/σ)], η = −mean·ln(u), over a quadrature grid.
        let mut acc = 0.0;
        for &ln in &ln_u {
            let eta = -mean * ln;
            acc += hash::normal_cdf(a - eta / sigma);
        }
        acc / N as f64
    };
    // Φ(a) is the zero-spread BER; if the target exceeds it, no spread is
    // the best we can do.
    if expected_ber(0.0) <= target {
        return 0.0;
    }
    let (mut lo, mut hi) = (0.0f64, 8.0f64);
    for _ in 0..60 {
        let mid = 0.5 * (lo + hi);
        if mid == lo || mid == hi {
            return mid;
        }
        if expected_ber(mid) > target {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    0.5 * (lo + hi)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::Geometry;
    use crate::registry::{self, ModuleId};

    fn small_module(id: ModuleId, seed: u64) -> DramModule {
        DramModule::with_geometry(registry::spec(id), seed, Geometry::small_test()).unwrap()
    }

    fn pattern_row(module: &DramModule, word: u64) -> Vec<u64> {
        vec![word; module.geometry().columns_per_row as usize]
    }

    #[test]
    fn set_vpp_enforces_limits() {
        let mut m = small_module(ModuleId::A0, 1);
        assert!(m.set_vpp(2.5).is_ok());
        assert!(m.set_vpp(1.4).is_ok()); // A0's V_PPmin
        assert!(matches!(
            m.set_vpp(1.3),
            Err(DramError::CommunicationLost { .. })
        ));
        assert!(matches!(
            m.set_vpp(3.5),
            Err(DramError::VoltageOutOfRange { .. })
        ));
        assert!(matches!(
            m.set_vpp(0.2),
            Err(DramError::VoltageOutOfRange { .. })
        ));
    }

    #[test]
    fn write_then_read_round_trips() {
        let mut m = small_module(ModuleId::B3, 7);
        let data = pattern_row(&m, 0xAAAA_AAAA_AAAA_AAAA);
        m.write_row(0, 10, &data).unwrap();
        let back = m.read_row(0, 10, 13.5).unwrap();
        assert_eq!(back, data);
    }

    #[test]
    fn protocol_violations_are_rejected() {
        let mut m = small_module(ModuleId::A0, 1);
        assert!(matches!(
            m.read(0, 0, 13.5),
            Err(DramError::IllegalCommand { .. })
        ));
        m.activate(0, 5).unwrap();
        assert!(matches!(
            m.activate(0, 6),
            Err(DramError::IllegalCommand { .. })
        ));
        m.precharge(0, 35.0).unwrap();
        assert!(matches!(
            m.precharge(0, 35.0),
            Err(DramError::IllegalCommand { .. })
        ));
        assert!(matches!(
            m.activate(0, 1 << 30),
            Err(DramError::AddressOutOfRange { .. })
        ));
    }

    #[test]
    fn hammering_flips_bits_in_neighbors() {
        let mut m = small_module(ModuleId::B0, 3); // weakest module: HC_first 7.9K
        let victim = 100;
        let (below, above) = m.mapping().physical_neighbors(victim);
        let (below, above) = (below.unwrap(), above.unwrap());
        // Use the victim's charged-aligned checkerboard for worst case.
        let data = pattern_row(&m, 0xAAAA_AAAA_AAAA_AAAA);
        let inv = pattern_row(&m, !0xAAAA_AAAA_AAAA_AAAAu64);
        m.write_row(0, victim, &data).unwrap();
        m.write_row(0, below, &inv).unwrap();
        m.write_row(0, above, &inv).unwrap();
        // Double-sided hammer at 300K per aggressor.
        m.hammer(0, below, 300_000, 48.5).unwrap();
        m.hammer(0, above, 300_000, 48.5).unwrap();
        let back = m.read_row(0, victim, 13.5).unwrap();
        let flips: u32 = back
            .iter()
            .zip(&data)
            .map(|(a, b)| (a ^ b).count_ones())
            .sum();
        assert!(flips > 0, "expected RowHammer flips on the weakest module");
        // Determinism: the same module re-instantiated flips the same cells.
        let mut m2 = small_module(ModuleId::B0, 3);
        m2.write_row(0, victim, &data).unwrap();
        m2.write_row(0, below, &inv).unwrap();
        m2.write_row(0, above, &inv).unwrap();
        m2.hammer(0, below, 300_000, 48.5).unwrap();
        m2.hammer(0, above, 300_000, 48.5).unwrap();
        assert_eq!(m2.read_row(0, victim, 13.5).unwrap(), back);
    }

    #[test]
    fn no_flips_without_hammering() {
        let mut m = small_module(ModuleId::B0, 3);
        let data = pattern_row(&m, 0x5555_5555_5555_5555);
        m.write_row(0, 50, &data).unwrap();
        // Immediately read back: no disturbance, negligible retention.
        let back = m.read_row(0, 50, 13.5).unwrap();
        assert_eq!(back, data);
    }

    #[test]
    fn rewriting_a_row_clears_accumulated_disturbance() {
        let mut m = small_module(ModuleId::B0, 3);
        let victim = 100;
        let (below, above) = m.mapping().physical_neighbors(victim);
        let (below, above) = (below.unwrap(), above.unwrap());
        let data = pattern_row(&m, 0xAAAA_AAAA_AAAA_AAAA);
        m.write_row(0, victim, &data).unwrap();
        m.write_row(0, below, &data).unwrap();
        m.write_row(0, above, &data).unwrap();
        m.hammer(0, below, 150_000, 48.5).unwrap();
        m.hammer(0, above, 150_000, 48.5).unwrap();
        // Re-initialize the victim: restores charge and clears disturbance.
        m.write_row(0, victim, &data).unwrap();
        m.hammer(0, below, 1_000, 48.5).unwrap();
        m.hammer(0, above, 1_000, 48.5).unwrap();
        let back = m.read_row(0, victim, 13.5).unwrap();
        assert_eq!(back, data, "1K hammers after re-init must not flip");
    }

    #[test]
    fn more_hammers_flip_more_cells() {
        let mut total = [0u32; 2];
        for (i, hc) in [50_000u64, 300_000].into_iter().enumerate() {
            let mut m = small_module(ModuleId::B0, 11);
            let victim = 200;
            let (below, above) = m.mapping().physical_neighbors(victim);
            let (below, above) = (below.unwrap(), above.unwrap());
            let data = pattern_row(&m, 0xAAAA_AAAA_AAAA_AAAA);
            m.write_row(0, victim, &data).unwrap();
            m.write_row(0, below, &data).unwrap();
            m.write_row(0, above, &data).unwrap();
            m.hammer(0, below, hc, 48.5).unwrap();
            m.hammer(0, above, hc, 48.5).unwrap();
            let back = m.read_row(0, victim, 13.5).unwrap();
            total[i] = back
                .iter()
                .zip(&data)
                .map(|(a, b)| (a ^ b).count_ones())
                .sum();
        }
        assert!(
            total[1] > total[0],
            "300K hammers ({}) must flip more than 50K ({})",
            total[1],
            total[0]
        );
    }

    #[test]
    fn reduced_vpp_reduces_hammer_flips_on_typical_module() {
        // B3 is the paper's strongest responder: BER at V_PPmin is 0.40× the
        // nominal BER.
        let mut flips = Vec::new();
        for vpp in [2.5, 1.6] {
            let mut m = small_module(ModuleId::B3, 5);
            m.set_vpp(vpp).unwrap();
            let data = pattern_row(&m, 0xAAAA_AAAA_AAAA_AAAA);
            let mut count = 0u32;
            for victim in (10..200u32).step_by(7) {
                let (below, above) = m.mapping().physical_neighbors(victim);
                let (below, above) = (below.unwrap(), above.unwrap());
                m.write_row(0, victim, &data).unwrap();
                m.write_row(0, below, &data).unwrap();
                m.write_row(0, above, &data).unwrap();
                m.hammer(0, below, 300_000, 48.5).unwrap();
                m.hammer(0, above, 300_000, 48.5).unwrap();
                let back = m.read_row(0, victim, 13.5).unwrap();
                count += back
                    .iter()
                    .zip(&data)
                    .map(|(a, b)| (a ^ b).count_ones())
                    .sum::<u32>();
            }
            flips.push(count);
        }
        assert!(
            flips[1] < flips[0],
            "B3 flips at 1.6 V ({}) must be below 2.5 V ({})",
            flips[1],
            flips[0]
        );
    }

    #[test]
    fn retention_flips_appear_after_long_waits_at_80c() {
        let mut m = small_module(ModuleId::C2, 9);
        m.set_temperature_c(80.0);
        let data = pattern_row(&m, 0xAAAA_AAAA_AAAA_AAAA);
        let mut flips_by_wait = Vec::new();
        for wait_s in [0.064f64, 16.0] {
            let mut total = 0u32;
            for row in (0..160u32).step_by(5) {
                m.write_row(0, row, &data).unwrap();
            }
            m.advance_ns(wait_s * 1e9);
            for row in (0..160u32).step_by(5) {
                let back = m.read_row(0, row, 13.5).unwrap();
                total += back
                    .iter()
                    .zip(&data)
                    .map(|(a, b)| (a ^ b).count_ones())
                    .sum::<u32>();
            }
            flips_by_wait.push(total);
        }
        assert_eq!(flips_by_wait[0], 0, "no retention failures at 64 ms");
        assert!(
            flips_by_wait[1] > 0,
            "expected retention failures after 16 s at 80 °C"
        );
    }

    #[test]
    fn retention_is_safe_during_rowhammer_windows_at_50c() {
        let mut m = small_module(ModuleId::C2, 9);
        m.set_temperature_c(50.0);
        let data = pattern_row(&m, 0xAAAA_AAAA_AAAA_AAAA);
        m.write_row(0, 77, &data).unwrap();
        m.advance_ns(30e6); // 30 ms: the paper's test-window bound
        let back = m.read_row(0, 77, 13.5).unwrap();
        assert_eq!(back, data);
    }

    #[test]
    fn trcd_violation_corrupts_reads_transiently() {
        let mut m = small_module(ModuleId::A0, 1);
        let data = pattern_row(&m, 0x0F0F_0F0F_0F0F_0F0F);
        m.write_row(0, 30, &data).unwrap();
        // Far below any plausible requirement: reads corrupt.
        let bad = m.read_row(0, 30, 3.0).unwrap();
        let flips: u32 = bad
            .iter()
            .zip(&data)
            .map(|(a, b)| (a ^ b).count_ones())
            .sum();
        assert!(flips > 0, "t_RCD = 3 ns must corrupt");
        // But the stored data is untouched: a nominal read is clean.
        let good = m.read_row(0, 30, 13.5).unwrap();
        assert_eq!(good, data);
    }

    #[test]
    fn trcd_requirement_rises_at_low_vpp_for_a0() {
        let mut m = small_module(ModuleId::A0, 1);
        let data = pattern_row(&m, 0x0F0F_0F0F_0F0F_0F0F);
        m.write_row(0, 40, &data).unwrap();
        // At nominal V_PP, 13.5 ns is reliable.
        assert_eq!(m.read_row(0, 40, 13.5).unwrap(), data);
        // At V_PPmin = 1.4 V, A0 needs ~24 ns: 13.5 ns now corrupts...
        m.set_vpp(1.4).unwrap();
        let bad = m.read_row(0, 40, 13.5).unwrap();
        assert_ne!(bad, data, "nominal t_RCD must fail at V_PPmin on A0");
        // ...and 24 ns is reliable again.
        assert_eq!(m.read_row(0, 40, 24.0).unwrap(), data);
    }

    #[test]
    fn oracle_matches_table3_direction() {
        let mut m = small_module(ModuleId::B3, 77);
        // Average oracle multiplier at V_PPmin across rows should be near the
        // module target of 1.271.
        let mut acc = 0.0;
        let n = 200;
        for row in 0..n {
            acc += m.oracle_hc_multiplier(0, row, 1.6);
        }
        let mean = acc / n as f64;
        assert!(
            (mean - 1.271).abs() < 0.12,
            "mean oracle multiplier {mean} vs target 1.271"
        );
    }

    #[test]
    fn hc_first_oracle_min_near_module_spec() {
        let mut m = small_module(ModuleId::B0, 123);
        let min = (0..512u32)
            .map(|r| m.oracle_hc_first_nominal(0, r))
            .fold(f64::INFINITY, f64::min);
        // 512 rows only sample the spread partially; the minimum must sit
        // within a small factor of the module's 7.9K record.
        assert!(min >= 7.9e3 * 0.99, "min {min} below module record");
        assert!(min < 7.9e3 * 2.5, "min {min} far above module record");
    }

    #[test]
    fn refresh_resets_retention_clock() {
        let mut m = small_module(ModuleId::C2, 9);
        m.set_temperature_c(80.0);
        let data = pattern_row(&m, 0xAAAA_AAAA_AAAA_AAAA);
        for row in 0..40u32 {
            m.write_row(0, row, &data).unwrap();
        }
        // Refresh every 4 s for 16 s total: refreshes keep rows alive where a
        // single 16 s wait would flip (statistically).
        for _ in 0..4 {
            m.advance_ns(4.0 * 1e9);
            m.refresh();
        }
        let mut flips_refreshed = 0u32;
        for row in 0..40u32 {
            let back = m.read_row(0, row, 13.5).unwrap();
            flips_refreshed += back
                .iter()
                .zip(&data)
                .map(|(a, b)| (a ^ b).count_ones())
                .sum::<u32>();
        }
        // Same wait without refresh.
        let mut m2 = small_module(ModuleId::C2, 9);
        m2.set_temperature_c(80.0);
        for row in 0..40u32 {
            m2.write_row(0, row, &data).unwrap();
        }
        m2.advance_ns(16.0 * 1e9);
        let mut flips_unrefreshed = 0u32;
        for row in 0..40u32 {
            let back = m2.read_row(0, row, 13.5).unwrap();
            flips_unrefreshed += back
                .iter()
                .zip(&data)
                .map(|(a, b)| (a ^ b).count_ones())
                .sum::<u32>();
        }
        assert!(
            flips_refreshed < flips_unrefreshed,
            "refreshed {flips_refreshed} vs unrefreshed {flips_unrefreshed}"
        );
    }

    #[test]
    fn reseed_noise_decouples_results_from_history() {
        // Two modules of the same specimen, one with extra prior activity.
        // After rebasing both noise streams onto the same chunk seed, the
        // same measurement sequence must produce identical readouts even
        // though their histories differ.
        let run = |prior_hammers: u64| -> Vec<u64> {
            let mut m = small_module(ModuleId::B0, 3);
            let data = pattern_row(&m, 0xAAAA_AAAA_AAAA_AAAA);
            let inv = pattern_row(&m, !0xAAAA_AAAA_AAAA_AAAAu64);
            if prior_hammers > 0 {
                m.write_row(0, 40, &data).unwrap();
                m.hammer(0, 41, prior_hammers, 48.5).unwrap();
            }
            m.reseed_noise(crate::hash::chunk_seed(3, 0, 7));
            let victim = 100;
            let (below, above) = m.mapping().physical_neighbors(victim);
            let (below, above) = (below.unwrap(), above.unwrap());
            m.write_row(0, victim, &data).unwrap();
            m.write_row(0, below, &inv).unwrap();
            m.write_row(0, above, &inv).unwrap();
            m.hammer(0, below, 300_000, 48.5).unwrap();
            m.hammer(0, above, 300_000, 48.5).unwrap();
            m.read_row(0, victim, 13.5).unwrap()
        };
        assert_eq!(run(0), run(120_000));
        // Different chunk seeds give a different (still deterministic) run.
        let mut m = small_module(ModuleId::B0, 3);
        m.reseed_noise(crate::hash::chunk_seed(3, 0, 8));
        let data = pattern_row(&m, 0xAAAA_AAAA_AAAA_AAAA);
        let inv = pattern_row(&m, !0xAAAA_AAAA_AAAA_AAAAu64);
        let victim = 100;
        let (below, above) = m.mapping().physical_neighbors(victim);
        let (below, above) = (below.unwrap(), above.unwrap());
        m.write_row(0, victim, &data).unwrap();
        m.write_row(0, below, &inv).unwrap();
        m.write_row(0, above, &inv).unwrap();
        m.hammer(0, below, 300_000, 48.5).unwrap();
        m.hammer(0, above, 300_000, 48.5).unwrap();
        let other = m.read_row(0, victim, 13.5).unwrap();
        assert_ne!(other, run(0), "distinct chunk streams must differ");
    }

    #[test]
    fn set_vpp_boundary_semantics_are_pinned() {
        let mut m = small_module(ModuleId::A0, 1); // V_PPmin = 1.4 V
                                                   // Absolute maximum rating is inclusive; a hair above is rejected.
        assert!(m.set_vpp(physics::VPP_ABSOLUTE_MAX).is_ok());
        assert!(matches!(
            m.set_vpp(physics::VPP_ABSOLUTE_MAX + 1e-9),
            Err(DramError::VoltageOutOfRange { .. })
        ));
        // Absolute minimum is inside the supply range (no VoltageOutOfRange)
        // but below every module's V_PPmin, so the module stops responding.
        assert!(matches!(
            m.set_vpp(physics::VPP_ABSOLUTE_MIN),
            Err(DramError::CommunicationLost { .. })
        ));
        assert!(matches!(
            m.set_vpp(physics::VPP_ABSOLUTE_MIN - 1e-9),
            Err(DramError::VoltageOutOfRange { .. })
        ));
        // The module V_PPmin edge: exact value works, and so does a value
        // within the supply's 1 mV tolerance band below it...
        let vmin = m.spec().vpp_min;
        assert!(m.set_vpp(vmin).is_ok());
        assert!(m.set_vpp(vmin - 1e-6).is_ok());
        // ...but anything clearly below V_PPmin loses the module.
        assert!(matches!(
            m.set_vpp(vmin - 2e-6),
            Err(DramError::CommunicationLost { .. })
        ));
    }

    #[test]
    fn blueprint_instantiation_matches_fresh_construction() {
        let bp =
            ModuleBlueprint::with_geometry(registry::spec(ModuleId::B0), 3, Geometry::small_test())
                .unwrap();
        let run = |mut m: DramModule| -> Vec<u64> {
            let data = pattern_row(&m, 0xAAAA_AAAA_AAAA_AAAA);
            let inv = pattern_row(&m, !0xAAAA_AAAA_AAAA_AAAAu64);
            let victim = 100;
            let (below, above) = m.mapping().physical_neighbors(victim);
            let (below, above) = (below.unwrap(), above.unwrap());
            m.write_row(0, victim, &data).unwrap();
            m.write_row(0, below, &inv).unwrap();
            m.write_row(0, above, &inv).unwrap();
            m.hammer(0, below, 300_000, 48.5).unwrap();
            m.hammer(0, above, 300_000, 48.5).unwrap();
            m.read_row(0, victim, 13.5).unwrap()
        };
        let fresh = run(small_module(ModuleId::B0, 3));
        assert_eq!(run(bp.instantiate()), fresh);
        // Instantiation is repeatable: a second clone is equally pristine.
        assert_eq!(run(bp.instantiate()), fresh);
    }

    #[test]
    fn vppmin_memo_round_trips_and_survives_clone() {
        let mut bp =
            ModuleBlueprint::with_geometry(registry::spec(ModuleId::B3), 3, Geometry::small_test())
                .unwrap();
        assert_eq!(bp.vppmin_memo(), None);
        bp.set_vppmin_memo(1.6, 10);
        assert_eq!(bp.vppmin_memo(), Some((1.6, 10)));
        assert_eq!(bp.clone().vppmin_memo(), Some((1.6, 10)));
    }

    #[test]
    fn prepare_rows_changes_no_results() {
        let run = |prepare: bool| -> Vec<u64> {
            let mut m = small_module(ModuleId::B0, 3);
            let victim = 100;
            if prepare {
                m.prepare_rows(0, &[victim]);
            }
            let data = pattern_row(&m, 0xAAAA_AAAA_AAAA_AAAA);
            let inv = pattern_row(&m, !0xAAAA_AAAA_AAAA_AAAAu64);
            let (below, above) = m.mapping().physical_neighbors(victim);
            let (below, above) = (below.unwrap(), above.unwrap());
            m.write_row(0, victim, &data).unwrap();
            m.write_row(0, below, &inv).unwrap();
            m.write_row(0, above, &inv).unwrap();
            m.hammer(0, below, 300_000, 48.5).unwrap();
            m.hammer(0, above, 300_000, 48.5).unwrap();
            m.read_row(0, victim, 13.5).unwrap()
        };
        assert_eq!(run(true), run(false));
    }

    #[test]
    fn uninitialized_rows_read_deterministic_garbage() {
        let mut m1 = small_module(ModuleId::A3, 4);
        let mut m2 = small_module(ModuleId::A3, 4);
        let a = m1.read_row(0, 123, 13.5).unwrap();
        let b = m2.read_row(0, 123, 13.5).unwrap();
        assert_eq!(a, b);
        let mut m3 = small_module(ModuleId::A3, 5);
        let c = m3.read_row(0, 123, 13.5).unwrap();
        assert_ne!(a, c, "different specimen, different power-on content");
    }

    /// One cell as the index should report it: `(cell, u, polarity, pref)`.
    type OracleCell = (u32, f64, bool, bool);

    /// Every cell of a row, hashed from scratch the way the per-cell
    /// materialization loop once did: its draw for `salt`, its charged
    /// polarity and its coupling-preference bit.
    fn brute_force_row(m: &DramModule, bank: u32, phys: u32, salt: u64) -> Vec<OracleCell> {
        let rseed = hash::row_seed(m.seed, bank, phys);
        (0..m.geometry().bits_per_row())
            .map(|cell| {
                let cseed = hash::cell_seed(rseed, cell);
                let u = hash::uniform01(hash::combine(cseed, salt));
                let bit = cell % 64;
                let flipped = hash::uniform01(hash::combine(cseed, SALT_ORI)) < 0.05;
                let polarity = ((bit ^ phys) & 1 == 1) != flipped;
                let pref = hash::uniform01(hash::combine(cseed, SALT_PREF)) < 0.10;
                (cell, u, polarity, pref)
            })
            .collect()
    }

    /// The cells a list reports below `p`, after the exact `u < p` re-check
    /// every consumer applies, in cell order.
    fn listed_below(list: &SaltIndex, p: f64) -> Vec<OracleCell> {
        let mut cells: Vec<OracleCell> = list
            .candidates(p)
            .iter()
            .filter(|e| e.u < p)
            .map(|e| {
                let polarity = e.flags & FLAG_POLARITY != 0;
                (e.cell, e.u, polarity, e.flags & FLAG_PREF != 0)
            })
            .collect();
        cells.sort_unstable_by_key(|c| c.0);
        cells
    }

    /// A list's entries as comparable bits: `(u.to_bits(), cell, flags)`.
    fn entry_bits(list: &SaltIndex) -> Vec<(u64, u32, u32)> {
        list.entries
            .iter()
            .map(|e| (e.u.to_bits(), e.cell, e.flags))
            .collect()
    }

    /// One ulp above `x`.
    fn next_up(x: f64) -> f64 {
        f64::from_bits(x.to_bits() + 1)
    }

    /// One ulp below a positive `x`.
    fn next_down(x: f64) -> f64 {
        f64::from_bits(x.to_bits() - 1)
    }

    /// The passes this host runs: the portable one, and the wide one when
    /// the host has it.
    fn passes() -> Vec<HashPass> {
        let mut passes = vec![HashPass::Portable];
        if HashPass::detect() != HashPass::Portable {
            passes.push(HashPass::detect());
        }
        passes
    }

    #[test]
    fn salt_index_matches_brute_force_at_every_cutoff() {
        let mut m = small_module(ModuleId::B0, 3);
        // Every cutoff the list serves, up to 1/32 itself; cutoffs that
        // are not positive select nothing.
        let cutoffs = [
            0.0,
            -0.0,
            f64::from_bits(1),
            1e-12,
            1e-3,
            next_down(FIRST_CAP),
            FIRST_CAP,
            f64::NAN,
        ];
        for phys in [0u32, 17, 255, 511] {
            let pslot = m.ensure_params(0, phys);
            for salt in [SALT_HC, SALT_RET] {
                let oracle = brute_force_row(&m, 0, phys, salt);
                assert!(m.ensure_index(0, pslot, phys, salt, FIRST_CAP));
                let list = m.banks[0].params[pslot]
                    .indexes(salt)
                    .list
                    .as_ref()
                    .unwrap();
                for p in cutoffs {
                    let expected: Vec<OracleCell> =
                        oracle.iter().copied().filter(|c| c.1 < p).collect();
                    assert_eq!(
                        listed_below(list, p),
                        expected,
                        "row {phys}, salt {salt:#x}, p {p}"
                    );
                }
                // The list keeps exactly the cells below 1/32: a few percent
                // of the row.
                let kept = oracle.iter().filter(|c| c.1 < FIRST_CAP).count();
                assert_eq!(list.entries.len(), kept);
                assert!(kept < oracle.len() / 16, "{kept} of {}", oracle.len());
            }
        }
    }

    #[test]
    fn dense_index_matches_brute_force_at_every_cutoff() {
        // The small geometry's 1,024 words, and 13 words: not a multiple of
        // the comparator's 8-word step, so its tail runs too.
        let odd = Geometry {
            columns_per_row: 13,
            ..Geometry::small_test()
        };
        let modules = [
            (small_module(ModuleId::B0, 3), vec![0u32, 17, 255, 511]),
            (
                DramModule::with_geometry(registry::spec(ModuleId::C2), 9, odd).unwrap(),
                vec![6u32],
            ),
        ];
        let mut cutoffs = vec![0.2, 0.75, 1.0, 1.5, 0.0, -0.0, f64::from_bits(1), f64::NAN];
        for k in [1u32, 5, 2047, 2048, 2049, 32_768, 65_535] {
            let p = f64::from(k) / 65_536.0;
            cutoffs.extend([next_down(p), p, next_up(p)]);
        }
        assert!(cutoffs.contains(&FIRST_CAP));
        let passes = passes();
        for (m, rows) in &modules {
            let words = m.geometry().columns_per_row as usize;
            for &phys in rows {
                let rseed = hash::row_seed(m.seed, 0, phys);
                for salt in [SALT_HC, SALT_RET] {
                    let oracle = brute_force_row(m, 0, phys, salt);
                    // Ties: cutoffs at and just above a few cells' own
                    // draws, so cells share the limit's code.
                    let mut cutoffs = cutoffs.clone();
                    for c in [0usize, 64, oracle.len() - 1] {
                        cutoffs.extend([oracle[c].1, next_up(oracle[c].1)]);
                    }
                    for &pass in &passes {
                        let dense = DenseIndex::build(pass, rseed, words, salt);
                        assert_eq!(dense.planes.len(), PLANES * words);
                        let checker = checkerboard(phys);
                        for &(cell, _, polarity, pref) in &oracle {
                            let (w, bit) = ((cell / 64) as usize, cell % 64);
                            let draw = hash::cell_draw(rseed, cell, salt);
                            let code: u64 = (0..CODE_PLANES)
                                .map(|j| ((dense.plane(j)[w] >> bit) & 1) << j)
                                .sum();
                            assert_eq!(code, draw >> 37, "row {phys}, cell {cell}, {pass:?}");
                            let flags = cell_flags(hash::cell_seed(rseed, cell), cell, phys);
                            let ori = (dense.plane(ORI_PLANE)[w] >> bit) & 1;
                            assert_eq!((checker ^ (ori << bit)) >> bit & 1 == 1, polarity);
                            assert_eq!(
                                u64::from(flags & FLAG_POLARITY),
                                ((checker >> bit) & 1) ^ ori
                            );
                            assert_eq!((dense.plane(PREF_PLANE)[w] >> bit) & 1 == 1, pref);
                            assert_eq!(flags & FLAG_PREF != 0, pref);
                        }
                        let mut below = vec![0u64; words];
                        for &p in &cutoffs {
                            let mut expected = vec![0u64; words];
                            for &(cell, u, _, _) in &oracle {
                                expected[(cell / 64) as usize] |= u64::from(u < p) << (cell % 64);
                            }
                            dense.below(rseed, salt, hash::draw_limit(p), &mut below);
                            assert_eq!(
                                below, expected,
                                "row {phys}, salt {salt:#x}, p {p}, {pass:?}"
                            );
                        }
                    }
                }
            }
        }
    }

    /// Serializes the tests that switch metrics collection on, so that one
    /// restoring the flag cannot switch it off under another.
    static METRICS_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    /// Runs `f` with metrics on, inside a fresh scope labelled `test`, and
    /// returns the scope with `f`'s result.
    fn with_metrics<R>(
        test: &str,
        f: impl FnOnce() -> R,
    ) -> (std::sync::Arc<hammervolt_obs::scope::Scope>, R) {
        let _lock = METRICS_LOCK
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        let was_on = hammervolt_obs::metrics_enabled();
        hammervolt_obs::set_metrics(true);
        let scope = hammervolt_obs::scope::Scope::new(&[("test", test)]);
        let out = {
            let _guard = hammervolt_obs::scope::enter(&scope);
            f()
        };
        hammervolt_obs::set_metrics(was_on);
        (scope, out)
    }

    #[test]
    fn landings_match_the_per_cell_rule_on_both_indexes() {
        let mut m = small_module(ModuleId::B0, 3);
        let phys = 100;
        let slot = m.ensure_row_phys(0, phys);
        let pslot = m.ensure_params(0, phys);
        let columns = m.geometry().columns_per_row;
        let hc = brute_force_row(&m, 0, phys, SALT_HC);
        let ret = brute_force_row(&m, 0, phys, SALT_RET);
        // `[aligned, anti-aligned]` RowHammer cutoffs and the retention
        // cutoff: each index alone, each salt on each side of 1/32, and
        // cutoffs that keep the whole row.
        let cases = [
            ([0.01, 0.005], 0.02),
            ([0.3, 0.2], 0.5),
            ([0.3, 0.01], 0.02),
            ([0.02, 0.01], 0.4),
            ([0.0, 0.0], 0.6),
            ([0.25, 0.1], 0.0),
            ([1.0, 0.9], 1.0),
        ];
        // A cell below both cutoffs flips once and counts as a hammer flip.
        let (scope, (hammer_flips, retention_flips)) = with_metrics("per_cell_rule", || {
            let (mut hammer_flips, mut retention_flips) = (0u64, 0u64);
            for (case, &(p_hammer, p_ret)) in cases.iter().enumerate() {
                let before: Vec<u64> = (0..u64::from(columns))
                    .map(|c| hash::splitmix64(hash::combine(case as u64, c)))
                    .collect();
                let mut layer = FlipLayer {
                    p_hammer,
                    p_ret,
                    cluster: false,
                    elapsed_s: 0.0,
                    temp_c: 50.0,
                    vpp: m.vpp,
                    charge_penalty: 1.0,
                    killed: vec![0; columns.div_ceil(64) as usize],
                    live: columns,
                };
                assert!(layer.kill(3, 5) && layer.kill(700, 701));
                let state = &mut m.banks[0].states[slot];
                state.data.clone_from(&before);
                state.pending.push(layer.clone());
                m.land_pending(0, phys);
                // The rule, cell by cell, on the pre-flip words.
                let mut expected = before.clone();
                for (cell, (h, r)) in hc.iter().zip(&ret).enumerate() {
                    let (w, bit) = (cell / 64, cell % 64);
                    let current = before[w];
                    let stored = (current >> bit) & 1 == 1;
                    if layer.is_killed(w) || stored != h.2 {
                        continue;
                    }
                    let left = if bit > 0 {
                        (current >> (bit - 1)) & 1 == 1
                    } else {
                        !stored
                    };
                    let right = if bit < 63 {
                        (current >> (bit + 1)) & 1 == 1
                    } else {
                        !stored
                    };
                    let aligned = (left != stored && right != stored) != h.3;
                    let p = if aligned { p_hammer[0] } else { p_hammer[1] };
                    let hammer = p_hammer[1] > 0.0 && h.1 < p;
                    let retention = !hammer && p_ret > 0.0 && r.1 < p_ret;
                    if hammer || retention {
                        expected[w] ^= 1 << bit;
                    }
                    hammer_flips += u64::from(hammer);
                    retention_flips += u64::from(retention);
                }
                let landed = &m.banks[0].states[slot].data;
                assert_eq!(landed, &expected, "p_hammer {p_hammer:?}, p_ret {p_ret}");
                assert_ne!(landed, &before, "p_hammer {p_hammer:?}, p_ret {p_ret}");
            }
            (hammer_flips, retention_flips)
        });
        assert_eq!(scope.counter_value("dram_flips_hammer"), hammer_flips);
        assert_eq!(scope.counter_value("dram_flips_retention"), retention_flips);
        let params = &m.banks[0].params[pslot];
        for indexes in [&params.hc, &params.ret] {
            assert!(indexes.list.is_some() && indexes.dense.is_some());
        }
    }

    #[test]
    fn cluster_only_layers_flip_each_listed_word_once() {
        // A layer with no RowHammer or retention cutoff lands weak-cluster
        // flips alone. A word on both cluster lists is walked once: one
        // `cluster_flips` call checks both bands and flips at most one bit.
        let mut m = small_module(ModuleId::B0, 3);
        let phys = 100;
        let slot = m.ensure_row_phys(0, phys);
        let pslot = m.ensure_params(0, phys);
        let columns = m.geometry().columns_per_row;
        let shared = [17, 500];
        {
            let params = &mut m.banks[0].params[pslot];
            params.cluster64_words = vec![3, 17, 500];
            params.cluster128_words = vec![17, 200, 500, 900];
        }
        let retention = m.profile.retention;
        let (vpp_min, rseed) = (m.spec.vpp_min, hash::row_seed(m.seed, 0, phys));
        let (elapsed_s, temp_c, vpp) = (10.0, 80.0, m.vpp);
        let mut shared_flips = 0;
        let (scope, landed) = with_metrics("cluster_only", || {
            let mut landed = 0u64;
            // Each listed word's weak cell is charged under one of the
            // two fills.
            for fill in [0u64, u64::MAX] {
                let before = vec![fill; columns as usize];
                let mut layer = FlipLayer {
                    p_hammer: [0.0, 0.0],
                    p_ret: 0.0,
                    cluster: true,
                    elapsed_s,
                    temp_c,
                    vpp,
                    charge_penalty: 1.0,
                    killed: vec![0; columns.div_ceil(64) as usize],
                    live: columns,
                };
                assert!(layer.kill(200, 201));
                let state = &mut m.banks[0].states[slot];
                state.data.clone_from(&before);
                state.pending.push(layer.clone());
                m.land_pending(0, phys);
                let params = &m.banks[0].params[pslot];
                let after = &m.banks[0].states[slot].data;
                for word in 0..columns {
                    let w = word as usize;
                    let listed = params.cluster64_words.contains(&word)
                        || params.cluster128_words.contains(&word);
                    let flips = if listed && !layer.is_killed(w) {
                        cluster_flips(
                            params, &retention, vpp_min, rseed, phys, word, before[w], elapsed_s,
                            temp_c, vpp, 1.0,
                        )
                    } else {
                        0
                    };
                    assert_eq!(after[w], before[w] ^ flips, "word {word}, fill {fill:#x}");
                    landed += u64::from(flips.count_ones());
                    if shared.contains(&word) {
                        shared_flips += flips.count_ones();
                    }
                }
            }
            landed
        });
        assert_eq!(
            shared_flips, 2,
            "each shared word flips once, under one fill"
        );
        assert_eq!(scope.counter_value("dram_flips_cluster"), landed);
    }

    #[test]
    fn each_row_and_salt_builds_one_list_and_one_dense_index() {
        let mut m = small_module(ModuleId::C2, 9);
        let (bank, phys) = (1, 300);
        let pslot = m.ensure_params(bank, phys);
        let kinds = |m: &mut DramModule, salt: u64| {
            let indexes = m.banks[1].params[pslot].indexes(salt);
            (indexes.list.is_some(), indexes.dense.is_some())
        };
        // Retention, dense first: a cutoff above 1/32 builds the dense index
        // once, the first cutoff at or below 1/32 builds the list, and
        // nothing builds after that.
        assert!(m.ensure_index(bank, pslot, phys, SALT_RET, 0.2));
        assert_eq!(kinds(&mut m, SALT_RET), (false, true));
        for p in [0.9, 1.0, next_up(FIRST_CAP), 1.5] {
            assert!(!m.ensure_index(bank, pslot, phys, SALT_RET, p));
        }
        assert!(m.ensure_index(bank, pslot, phys, SALT_RET, 1e-9));
        assert_eq!(kinds(&mut m, SALT_RET), (true, true));
        for p in [FIRST_CAP, 1e-300, 0.2, 1.0] {
            assert!(!m.ensure_index(bank, pslot, phys, SALT_RET, p));
        }
        assert_eq!(kinds(&mut m, SALT_RET), (true, true));
        // RowHammer, list first: salts are independent. A rising sequence
        // with ratio 1.7 builds the list at its first cutoff and the dense
        // index at the first one above 1/32, and nothing else.
        assert_eq!(kinds(&mut m, SALT_HC), (false, false));
        let mut p: f64 = 1e-15;
        let mut builds = 0;
        while p < 2.0 {
            builds += u32::from(m.ensure_index(bank, pslot, phys, SALT_HC, p));
            assert_eq!(kinds(&mut m, SALT_HC), (true, p > FIRST_CAP), "p {p}");
            p *= 1.7;
        }
        assert_eq!(builds, 2);
    }

    /// One block's kept entries through a pass, as comparable bits:
    /// `(u.to_bits(), cell, flags)`.
    fn kept_block(
        pass: HashPass,
        rseed: u64,
        salt: u64,
        start: u32,
        limit: u64,
    ) -> Vec<(u64, u32, u32)> {
        let mut kept = Vec::new();
        pass.keep_block(rseed, 7, salt, start, limit, &mut kept);
        kept.iter()
            .map(|e| (e.u.to_bits(), e.cell, e.flags))
            .collect()
    }

    #[test]
    fn wide_hash_pass_matches_portable_bit_for_bit() {
        let cutoffs: Vec<f64> = (0..=5).map(|k| 1.0 / f64::from(1u32 << k)).collect();
        let mut rng = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = || {
            rng = hash::splitmix64(rng);
            rng
        };
        let mut cases: Vec<(u64, u64, u32)> = Vec::new();
        for rseed in [0, u64::MAX, next()] {
            for start in [0, u32::MAX - 63, 64 * 1023] {
                cases.push((rseed, SALT_HC, start));
                cases.push((rseed, SALT_RET, start));
            }
        }
        for _ in 0..64 {
            let start = (next() as u32) & !63;
            cases.push((next(), next(), start));
        }
        // The portable pass against per-cell `uniform01`: kept exactly when
        // `u < p`, with its bits, in cell order.
        for &(rseed, salt, start) in &cases {
            for &p in &cutoffs {
                let expected: Vec<(u64, u32, u32)> = (0..64)
                    .map(|i| start + i)
                    .filter_map(|cell| {
                        let cseed = hash::cell_seed(rseed, cell);
                        let u = hash::uniform01(hash::combine(cseed, salt));
                        (u < p).then(|| (u.to_bits(), cell, cell_flags(cseed, cell, 7)))
                    })
                    .collect();
                let got = kept_block(HashPass::Portable, rseed, salt, start, hash::draw_limit(p));
                assert_eq!(
                    got, expected,
                    "rseed {rseed:#x} salt {salt:#x} start {start} p {p}"
                );
            }
        }
        let wide = HashPass::detect();
        if wide == HashPass::Portable {
            println!("this host has no AVX-512F/DQ/VL: skipped the wide hash pass");
            return;
        }
        for &(rseed, salt, start) in &cases {
            for &p in &cutoffs {
                let limit = hash::draw_limit(p);
                assert_eq!(
                    kept_block(wide, rseed, salt, start, limit),
                    kept_block(HashPass::Portable, rseed, salt, start, limit),
                    "rseed {rseed:#x} salt {salt:#x} start {start} p {p}"
                );
            }
            // The dense block kernel: every plane, flags included.
            let block = |pass: HashPass| {
                pass.run(DenseBlock {
                    row_seed: rseed,
                    salt,
                    start,
                })
            };
            assert_eq!(
                block(wide),
                block(HashPass::Portable),
                "rseed {rseed:#x} salt {salt:#x} start {start}"
            );
        }
        // Whole-row lists through each pass, entry by entry, and whole-row
        // dense indexes, plane by plane.
        let cells = 65_536;
        for (rseed, salt) in [(0, SALT_HC), (u64::MAX, SALT_RET), (next(), next())] {
            let a = SaltIndex::build(wide, rseed, 3, cells, salt);
            let b = SaltIndex::build(HashPass::Portable, rseed, 3, cells, salt);
            assert_eq!(a.bucket_start, b.bucket_start);
            assert_eq!(entry_bits(&a), entry_bits(&b));
            let words = cells as usize / 64;
            assert_eq!(
                DenseIndex::build(wide, rseed, words, salt).planes,
                DenseIndex::build(HashPass::Portable, rseed, words, salt).planes
            );
        }
    }

    #[test]
    fn materialization_builds_only_the_salts_it_needs() {
        let mut m = small_module(ModuleId::B0, 3);
        let victim = 100;
        let (below, above) = m.mapping().physical_neighbors(victim);
        let (below, above) = (below.unwrap(), above.unwrap());
        let data = pattern_row(&m, 0xAAAA_AAAA_AAAA_AAAA);
        let inv = pattern_row(&m, !0xAAAA_AAAA_AAAA_AAAAu64);
        m.write_row(0, victim, &data).unwrap();
        m.write_row(0, below, &inv).unwrap();
        m.write_row(0, above, &inv).unwrap();
        m.hammer(0, below, 300_000, 48.5).unwrap();
        m.hammer(0, above, 300_000, 48.5).unwrap();
        let flipped = m.read_row(0, victim, 13.5).unwrap() != data;
        assert!(flipped, "the weakest module flips at 300K");
        let phys = m.mapping().logical_to_physical(victim);
        let pslot = m.banks[0].params_slot(phys).unwrap();
        let params = &m.banks[0].params[pslot];
        // 300K hammers put the victim's cutoff above 1/32: the read lands
        // it through the dense index alone.
        assert!(
            params.hc.dense.is_some() && params.hc.list.is_none(),
            "hammered victim indexes its hc draws densely"
        );
        assert!(
            params.ret.dense.is_none() && params.ret.list.is_none(),
            "a short test never needs retention draws"
        );
    }

    #[test]
    fn a_rewrite_before_any_read_drops_the_flip_work() {
        let mut m = small_module(ModuleId::B0, 3);
        let victim = 100;
        let (below, above) = m.mapping().physical_neighbors(victim);
        let (below, above) = (below.unwrap(), above.unwrap());
        let data = pattern_row(&m, 0xAAAA_AAAA_AAAA_AAAA);
        let inv = pattern_row(&m, !0xAAAA_AAAA_AAAA_AAAAu64);
        m.write_row(0, victim, &data).unwrap();
        m.write_row(0, below, &inv).unwrap();
        m.write_row(0, above, &inv).unwrap();
        m.hammer(0, below, 300_000, 48.5).unwrap();
        m.hammer(0, above, 300_000, 48.5).unwrap();
        // The rewrite's ACT draws the victim's flips as a layer; its writes
        // overwrite every word of it, so the layer goes without an index
        // build or a scan.
        m.write_row(0, victim, &data).unwrap();
        let phys = m.mapping().logical_to_physical(victim);
        let slot = m.banks[0].state_slot(phys).unwrap();
        assert!(m.banks[0].states[slot].pending.is_empty());
        let pslot = m.banks[0].params_slot(phys).unwrap();
        let hc = &m.banks[0].params[pslot].hc;
        assert!(hc.list.is_none() && hc.dense.is_none());
        assert_eq!(m.read_row(0, victim, 13.5).unwrap(), data);
    }

    /// A tracked row's final `(bank, phys, data, on-die ECC reference)`.
    type FinalRow = (u32, u32, Vec<u64>, Option<Vec<u64>>);

    /// Which index kinds a session built, `[salt][kind]`: salts `SALT_HC`
    /// and `SALT_RET`; a list, a dense index, and both on one row.
    type IndexKinds = [[bool; 3]; 2];

    /// What a lazy-vs-eager session observes: every word read, in order,
    /// and every tracked row's final contents.
    #[derive(Debug, PartialEq)]
    struct SessionTrace {
        reads: Vec<u64>,
        rows: Vec<FinalRow>,
    }

    /// Lands the pending layers of every tracked row.
    fn land_all(m: &mut DramModule) {
        for bank in 0..m.geometry().banks {
            for phys in 0..m.geometry().rows_per_bank {
                if m.banks[bank as usize].is_tracked(phys) {
                    m.land_pending(bank, phys);
                }
            }
        }
    }

    /// The deepest pending stack of any row.
    fn max_depth(m: &DramModule) -> usize {
        m.banks
            .iter()
            .flat_map(|b| b.states.iter().map(|s| s.pending.len()))
            .max()
            .unwrap_or(0)
    }

    /// A random session over seven physically adjacent rows of both banks,
    /// generated from `seed`: whole-row and partial writes (per column and
    /// bulk), hammers of 1K–300K activations repeated past the depth bound
    /// with no access between them, REFs, 80 °C waits of 1–16 s, early
    /// precharges, `V_PP` changes and whole-row and partial reads (per
    /// column and bulk).
    ///
    /// With `eager`, every tracked row's layers land right after each
    /// activate, hammer and refresh — the semantics of applying each
    /// activation's flips on the spot. Returns the trace, the deepest stack
    /// seen and the index kinds built.
    fn random_session(seed: u64, ecc: OnDieEcc, eager: bool) -> (SessionTrace, usize, IndexKinds) {
        let id = if seed.is_multiple_of(2) {
            ModuleId::B0
        } else {
            ModuleId::B6 // weak clusters in 15.5 % of rows
        };
        let mut m = small_module(id, seed);
        m.set_ondie_ecc(ecc);
        let cols = m.geometry().columns_per_row;
        let rows: Vec<u32> = (100..107)
            .map(|p| m.mapping().physical_to_logical(p))
            .collect();
        let mut draws = 0u64;
        let mut next = |n: u64| {
            draws += 1;
            hash::splitmix64(hash::combine(seed, draws)) % n
        };
        let settle = |m: &mut DramModule| {
            if eager {
                land_all(m);
            }
        };
        let patterns = [0xAAAA_AAAA_AAAA_AAAAu64, 0x5555_5555_5555_5555, 0, !0];
        let mut reads = Vec::new();
        let mut deepest = 0;
        for _ in 0..40 {
            let bank = u32::from(next(4) == 0);
            let row = rows[next(rows.len() as u64) as usize];
            let word = patterns[next(4) as usize];
            m.advance_ns(100.0);
            match next(11) {
                0 => {
                    // Whole row, one write per column, non-uniform data.
                    m.activate(bank, row).unwrap();
                    settle(&mut m);
                    for c in 0..cols {
                        m.write(bank, c, word ^ u64::from(c % 3)).unwrap();
                    }
                    m.precharge(bank, 35.0).unwrap();
                }
                1 => {
                    // Bulk fill of the whole row or a prefix.
                    let n = if next(2) == 0 {
                        cols
                    } else {
                        1 + next(u64::from(cols)) as u32
                    };
                    m.activate(bank, row).unwrap();
                    settle(&mut m);
                    m.fill_open_row(bank, n, word).unwrap();
                    m.precharge(bank, 35.0).unwrap();
                }
                2 => {
                    // A prefix, one write per column, non-uniform data.
                    let n = 1 + next(u64::from(cols)) as u32;
                    m.activate(bank, row).unwrap();
                    settle(&mut m);
                    for c in 0..n {
                        m.write(bank, c, word.rotate_left(c % 64)).unwrap();
                    }
                    m.precharge(bank, 35.0).unwrap();
                }
                3 => {
                    // A few random columns, one write each.
                    m.activate(bank, row).unwrap();
                    settle(&mut m);
                    for _ in 0..1 + next(8) {
                        let c = next(u64::from(cols)) as u32;
                        m.write(bank, c, word).unwrap();
                    }
                    m.precharge(bank, 35.0).unwrap();
                }
                4 => {
                    // Hammer one row up to six times with no access between.
                    for _ in 0..1 + next(6) {
                        m.hammer(bank, row, 1_000 + next(299_000), 48.5).unwrap();
                        settle(&mut m);
                        deepest = deepest.max(max_depth(&m));
                    }
                }
                5 => {
                    m.refresh();
                    settle(&mut m);
                }
                6 => {
                    m.set_temperature_c(80.0);
                    m.advance_ns((1 + next(16)) as f64 * 1e9);
                }
                7 => {
                    m.set_temperature_c(50.0);
                    let vpp = if next(2) == 0 { 2.5 } else { m.spec().vpp_min };
                    m.set_vpp(vpp).unwrap();
                }
                8 => {
                    // Whole row, one read per column.
                    m.activate(bank, row).unwrap();
                    settle(&mut m);
                    for c in 0..cols {
                        reads.push(m.read(bank, c, 40.0).unwrap());
                    }
                    m.precharge(bank, 35.0).unwrap();
                }
                9 => {
                    // Bulk read of a prefix.
                    let n = 1 + next(u64::from(cols)) as u32;
                    m.activate(bank, row).unwrap();
                    settle(&mut m);
                    m.read_open_row_into(bank, 40.0, n, &mut reads).unwrap();
                    m.precharge(bank, 35.0).unwrap();
                }
                _ => {
                    // A few random columns read, then an early precharge
                    // now and then, which leaves the row partly charged.
                    m.activate(bank, row).unwrap();
                    settle(&mut m);
                    for _ in 0..1 + next(8) {
                        let c = next(u64::from(cols)) as u32;
                        reads.push(m.read(bank, c, 40.0).unwrap());
                    }
                    let open_ns = if next(3) == 0 { 5.0 } else { 35.0 };
                    m.precharge(bank, open_ns).unwrap();
                }
            }
            deepest = deepest.max(max_depth(&m));
        }
        land_all(&mut m);
        let mut final_rows = Vec::new();
        for (bank, b) in m.banks.iter().enumerate() {
            for phys in 0..m.geometry().rows_per_bank {
                if let Some(slot) = b.state_slot(phys) {
                    let s = &b.states[slot];
                    final_rows.push((bank as u32, phys, s.data.clone(), s.written.clone()));
                }
            }
        }
        let mut kinds = [[false; 3]; 2];
        for params in m.banks.iter().flat_map(|b| &b.params) {
            for (built, indexes) in kinds.iter_mut().zip([&params.hc, &params.ret]) {
                let (list, dense) = (indexes.list.is_some(), indexes.dense.is_some());
                built[0] |= list;
                built[1] |= dense;
                built[2] |= list && dense;
            }
        }
        let trace = SessionTrace {
            reads,
            rows: final_rows,
        };
        (trace, deepest, kinds)
    }

    /// `calibrate_eta_mean` as it was first written: a `ln` per quadrature
    /// point per step and all 60 bisection steps.
    fn calibrate_eta_mean_reference(spec: &ModuleSpec, sigma: f64, z_n: f64) -> f64 {
        let a = (300_000.0f64.ln() - spec.hc_first_nominal.ln()) / sigma - z_n;
        let target = spec.ber_nominal;
        let expected_ber = |mean: f64| -> f64 {
            let n = 256;
            let mut acc = 0.0;
            for i in 0..n {
                let u = (i as f64 + 0.5) / n as f64;
                let eta = -mean * u.ln();
                acc += hash::normal_cdf(a - eta / sigma);
            }
            acc / n as f64
        };
        if expected_ber(0.0) <= target {
            return 0.0;
        }
        let (mut lo, mut hi) = (0.0f64, 8.0f64);
        for _ in 0..60 {
            let mid = 0.5 * (lo + hi);
            if expected_ber(mid) > target {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        0.5 * (lo + hi)
    }

    /// The η calibration gives the reference's bits for every registry spec
    /// at its own and the small-test geometry, and for 1,024 generated
    /// population specs at the small-test geometry the population measures.
    #[test]
    fn eta_calibration_matches_reference_bit_for_bit() {
        let z_n = |g: Geometry| -hash::inverse_normal_cdf(1.0 / g.bits_per_row() as f64);
        let check = |spec: &ModuleSpec, z_n: f64| {
            let sigma = vendor::profile(spec.mfr).cell_sigma;
            assert_eq!(
                calibrate_eta_mean(spec, sigma, z_n).to_bits(),
                calibrate_eta_mean_reference(spec, sigma, z_n).to_bits(),
                "{spec:?}"
            );
        };
        for id in ModuleId::ALL {
            let spec = registry::spec(id);
            for geometry in [spec.geometry(), Geometry::small_test()] {
                check(&spec, z_n(geometry));
            }
        }
        let sampler = crate::population::PopulationSpec {
            family_mix: Default::default(),
            size: 1024,
            seed: 0x5eed,
        }
        .sampler();
        for index in 0..1024 {
            check(&sampler.module_spec(index), z_n(Geometry::small_test()));
        }
    }

    #[test]
    fn lazy_landing_matches_eager_landing() {
        let (scope, (deepest, kinds)) = with_metrics("lazy_vs_eager", || {
            let mut deepest = 0;
            let mut kinds = [[false; 3]; 2];
            for ecc in [OnDieEcc::None, OnDieEcc::Secded64] {
                for seed in 0..40 {
                    let (lazy, depth, built) = random_session(seed, ecc, false);
                    let (eager, _, _) = random_session(seed, ecc, true);
                    assert_eq!(lazy, eager, "seed {seed}, {ecc:?}");
                    deepest = deepest.max(depth);
                    for (all, one) in kinds.iter_mut().flatten().zip(built.iter().flatten()) {
                        *all |= one;
                    }
                }
            }
            (deepest, kinds)
        });
        // The sessions exercise every mechanism: stacks reach the bound,
        // writes drop layers, and every flip cause lands. Cutoffs fall on
        // both sides of 1/32 for both salts, so each salt builds lists and
        // dense indexes, and some row holds both.
        assert_eq!(deepest, MAX_PENDING_LAYERS);
        assert_eq!(kinds, [[true; 3]; 2], "[salt][list, dense, both]");
        for name in [
            "dram_flip_layers_dropped",
            "dram_index_builds",
            "dram_flips_hammer",
            "dram_flips_retention",
            "dram_flips_cluster",
        ] {
            assert!(scope.counter_value(name) > 0, "{name} did not move");
        }
    }
}
