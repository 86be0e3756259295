//! The tested-module registry: the paper's Table 3 as calibration data.
//!
//! Each of the thirty DIMMs the paper characterizes (A0–A9, B0–B9, C0–C9) is
//! encoded here with its published metadata and measurements: DIMM model,
//! density, frequency, organization, die revision, manufacturing date, and
//! the RowHammer characteristics at nominal `V_PP` (2.5 V), at `V_PPmin`, and
//! at the recommended `V_PPrec`. [`instantiate`] turns a spec into a live
//! [`DramModule`] whose behaviour is calibrated to those endpoints.

use crate::error::DramError;
use crate::geometry::{ChipOrg, Density, Geometry};
use crate::module::DramModule;
use crate::physics::TrcdCoeffs;
use crate::vendor::{Manufacturer, WeakCluster};
use serde::{Deserialize, Serialize};

/// Identifier of one of the thirty tested modules.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
#[allow(missing_docs)]
pub enum ModuleId {
    A0,
    A1,
    A2,
    A3,
    A4,
    A5,
    A6,
    A7,
    A8,
    A9,
    B0,
    B1,
    B2,
    B3,
    B4,
    B5,
    B6,
    B7,
    B8,
    B9,
    C0,
    C1,
    C2,
    C3,
    C4,
    C5,
    C6,
    C7,
    C8,
    C9,
}

impl ModuleId {
    /// All thirty modules in Table 3 order.
    pub const ALL: [ModuleId; 30] = [
        ModuleId::A0,
        ModuleId::A1,
        ModuleId::A2,
        ModuleId::A3,
        ModuleId::A4,
        ModuleId::A5,
        ModuleId::A6,
        ModuleId::A7,
        ModuleId::A8,
        ModuleId::A9,
        ModuleId::B0,
        ModuleId::B1,
        ModuleId::B2,
        ModuleId::B3,
        ModuleId::B4,
        ModuleId::B5,
        ModuleId::B6,
        ModuleId::B7,
        ModuleId::B8,
        ModuleId::B9,
        ModuleId::C0,
        ModuleId::C1,
        ModuleId::C2,
        ModuleId::C3,
        ModuleId::C4,
        ModuleId::C5,
        ModuleId::C6,
        ModuleId::C7,
        ModuleId::C8,
        ModuleId::C9,
    ];

    /// The module's manufacturer.
    pub fn manufacturer(&self) -> Manufacturer {
        match (*self as usize) / 10 {
            0 => Manufacturer::A,
            1 => Manufacturer::B,
            _ => Manufacturer::C,
        }
    }

    /// Display label, e.g. `"B3"`.
    pub fn label(&self) -> String {
        format!("{}{}", self.manufacturer().letter(), (*self as usize) % 10)
    }

    /// The module a Table 3 label names, in any case (`"b3"` is B3); `None`
    /// for any other string.
    pub fn from_label(label: &str) -> Option<ModuleId> {
        ModuleId::ALL
            .into_iter()
            .find(|m| m.label().eq_ignore_ascii_case(label))
    }
}

impl std::fmt::Display for ModuleId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.label())
    }
}

/// Static description and calibration record of one tested module.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ModuleSpec {
    /// Module identifier.
    pub id: ModuleId,
    /// Manufacturer.
    pub mfr: Manufacturer,
    /// DIMM model string.
    pub dimm_model: &'static str,
    /// Die density.
    pub density: Density,
    /// Data-transfer frequency (MT/s).
    pub frequency_mts: u32,
    /// Chip organization.
    pub org: ChipOrg,
    /// Die revision, if documented.
    pub die_revision: Option<char>,
    /// Manufacturing date as (week, year), if documented.
    pub mfr_date: Option<(u8, u8)>,
    /// DRAM chips on the module.
    pub chips: u32,
    /// Minimum `HC_first` across tested rows at nominal `V_PP` (activations).
    pub hc_first_nominal: f64,
    /// RowHammer BER at HC = 300 K, nominal `V_PP`.
    pub ber_nominal: f64,
    /// Lowest `V_PP` at which the module still communicates (V).
    pub vpp_min: f64,
    /// Minimum `HC_first` at `V_PPmin`.
    pub hc_first_at_vppmin: f64,
    /// BER at `V_PPmin`.
    pub ber_at_vppmin: f64,
    /// Recommended operating `V_PP` (V).
    pub vpp_rec: f64,
    /// Minimum `HC_first` at `V_PPrec`.
    pub hc_first_at_rec: f64,
    /// BER at `V_PPrec`.
    pub ber_at_rec: f64,
    /// Activation-latency voltage response.
    pub trcd: TrcdCoeffs,
    /// Weak-cell clusters that fail at the 64 ms window at `V_PPmin`
    /// (Fig. 11a; empty for the 23 clean modules of Obsv. 13).
    pub cluster64: Vec<WeakCluster>,
}

impl ModuleSpec {
    /// Module-level normalized `HC_first` at `V_PPmin` (the calibration
    /// target for the mean row voltage response).
    pub fn hc_multiplier_target(&self) -> f64 {
        self.hc_first_at_vppmin / self.hc_first_nominal
    }

    /// Module-level normalized BER at `V_PPmin`.
    pub fn ber_ratio_at_vppmin(&self) -> f64 {
        self.ber_at_vppmin / self.ber_nominal
    }

    /// Rank geometry of this module.
    pub fn geometry(&self) -> Geometry {
        Geometry::ddr4(self.density, self.org)
    }

    /// Whether this module exhibits retention bit flips at the nominal 64 ms
    /// refresh window when operated at `V_PPmin` (Obsv. 13's seven modules).
    pub fn flips_at_64ms(&self) -> bool {
        !self.cluster64.is_empty()
    }
}

/// `t_RCD` response calibrated through two points: the base requirement at
/// nominal `V_PP` and the requirement at `V_PPmin`, with quadratic growth.
fn trcd_two_point(base_ns: f64, at_vppmin_ns: f64, vpp_min: f64) -> TrcdCoeffs {
    let dv = 2.5 - vpp_min;
    TrcdCoeffs {
        base_ns,
        slope_ns: (at_vppmin_ns - base_ns) / (dv * dv),
        curve: 2.0,
    }
}

/// Fig. 11a weak-cluster structure for the three Mfr. B modules that flip at
/// 64 ms: 15.5 % of rows with four weak words, 0.01 % with 116.
fn cluster64_b() -> Vec<WeakCluster> {
    vec![
        WeakCluster {
            words: 4,
            row_fraction: 0.155,
        },
        WeakCluster {
            words: 116,
            row_fraction: 0.0001,
        },
    ]
}

/// Fig. 11a structure for the four Mfr. C modules: 0.2 % of rows with one
/// weak word.
fn cluster64_c() -> Vec<WeakCluster> {
    vec![WeakCluster {
        words: 1,
        row_fraction: 0.002,
    }]
}

/// Returns the spec for a module.
pub fn spec(id: ModuleId) -> ModuleSpec {
    use ChipOrg::*;
    use Density::*;
    use ModuleId::*;
    // (model, density, MT/s, org, die rev, date, chips,
    //  hcf@2.5, ber@2.5, vppmin, hcf@min, ber@min, vpprec, hcf@rec, ber@rec,
    //  trcd base, trcd@vppmin)
    #[allow(clippy::type_complexity)]
    let row: (
        &'static str,
        Density,
        u32,
        ChipOrg,
        Option<char>,
        Option<(u8, u8)>,
        u32,
        f64,
        f64,
        f64,
        f64,
        f64,
        f64,
        f64,
        f64,
        f64,
        f64,
    ) = match id {
        A0 => (
            "MTA18ASF2G72PZ-2G3B1QK",
            D8Gb,
            2400,
            X4,
            Some('B'),
            Some((11, 19)),
            16,
            39.8e3,
            1.24e-3,
            1.4,
            42.2e3,
            1.00e-3,
            1.4,
            42.2e3,
            1.00e-3,
            10.4,
            23.4,
        ),
        A1 => (
            "MTA18ASF2G72PZ-2G3B1QK",
            D8Gb,
            2400,
            X4,
            Some('B'),
            Some((11, 19)),
            16,
            42.2e3,
            9.90e-4,
            1.4,
            46.4e3,
            7.83e-4,
            1.4,
            46.4e3,
            7.83e-4,
            10.6,
            22.8,
        ),
        A2 => (
            "MTA18ASF2G72PZ-2G3B1QK",
            D8Gb,
            2400,
            X4,
            Some('B'),
            Some((11, 19)),
            16,
            41.0e3,
            1.24e-3,
            1.7,
            39.8e3,
            1.35e-3,
            2.1,
            42.1e3,
            1.55e-3,
            10.5,
            22.3,
        ),
        A3 => (
            "CT4G4DFS8266.C8FF",
            D4Gb,
            2666,
            X8,
            Some('F'),
            Some((7, 21)),
            8,
            16.7e3,
            3.33e-2,
            1.4,
            16.5e3,
            3.52e-2,
            1.7,
            17.0e3,
            3.48e-2,
            10.3,
            12.3,
        ),
        A4 => (
            "CT4G4DFS8266.C8FF",
            D4Gb,
            2666,
            X8,
            Some('F'),
            Some((7, 21)),
            8,
            14.4e3,
            3.18e-2,
            1.5,
            14.4e3,
            3.33e-2,
            2.5,
            14.4e3,
            3.18e-2,
            10.2,
            11.1,
        ),
        A5 => (
            "CT4G4SFS8213.C8FBD1",
            D4Gb,
            2400,
            X8,
            None,
            Some((48, 16)),
            8,
            140.7e3,
            1.39e-6,
            2.4,
            145.4e3,
            3.39e-6,
            2.4,
            145.4e3,
            3.39e-6,
            10.6,
            10.8,
        ),
        A6 => (
            "CT4G4DFS8266.C8FF",
            D4Gb,
            2666,
            X8,
            Some('F'),
            Some((7, 21)),
            8,
            16.5e3,
            3.50e-2,
            1.5,
            16.5e3,
            3.66e-2,
            2.5,
            16.5e3,
            3.50e-2,
            10.4,
            11.2,
        ),
        A7 => (
            "CMV4GX4M1A2133C15",
            D4Gb,
            2133,
            X8,
            None,
            None,
            8,
            16.5e3,
            3.42e-2,
            1.8,
            16.5e3,
            3.52e-2,
            2.5,
            16.5e3,
            3.42e-2,
            10.3,
            11.0,
        ),
        A8 => (
            "MTA18ASF2G72PZ-2G3B1QG",
            D8Gb,
            2400,
            X4,
            Some('B'),
            Some((11, 19)),
            16,
            35.2e3,
            2.38e-3,
            1.4,
            39.8e3,
            2.07e-3,
            1.4,
            39.8e3,
            2.07e-3,
            10.5,
            11.3,
        ),
        A9 => (
            "CMV4GX4M1A2133C15",
            D4Gb,
            2133,
            X8,
            None,
            None,
            8,
            14.3e3,
            3.33e-2,
            1.5,
            14.3e3,
            3.48e-2,
            1.6,
            14.6e3,
            3.47e-2,
            10.4,
            11.2,
        ),
        B0 => (
            "M378A1K43DB2-CTD",
            D8Gb,
            2666,
            X8,
            Some('D'),
            Some((10, 21)),
            8,
            7.9e3,
            1.18e-1,
            2.0,
            7.6e3,
            1.22e-1,
            2.5,
            7.9e3,
            1.18e-1,
            10.5,
            10.9,
        ),
        B1 => (
            "M378A1K43DB2-CTD",
            D8Gb,
            2666,
            X8,
            Some('D'),
            Some((10, 21)),
            8,
            7.3e3,
            1.26e-1,
            2.0,
            7.6e3,
            1.28e-1,
            2.0,
            7.6e3,
            1.28e-1,
            10.4,
            10.8,
        ),
        B2 => (
            "F4-2400C17S-8GNT",
            D4Gb,
            2400,
            X8,
            Some('F'),
            Some((2, 21)),
            8,
            11.2e3,
            2.52e-2,
            1.6,
            12.0e3,
            2.22e-2,
            1.6,
            12.0e3,
            2.22e-2,
            10.8,
            14.4,
        ),
        B3 => (
            "M393A1K43BB1-CTD6Y",
            D8Gb,
            2666,
            X8,
            Some('B'),
            Some((52, 20)),
            8,
            16.6e3,
            2.73e-3,
            1.6,
            21.1e3,
            1.09e-3,
            1.6,
            21.1e3,
            1.09e-3,
            10.5,
            11.5,
        ),
        B4 => (
            "M393A1K43BB1-CTD6Y",
            D8Gb,
            2666,
            X8,
            Some('B'),
            Some((52, 20)),
            8,
            21.0e3,
            2.95e-3,
            1.8,
            19.9e3,
            2.52e-3,
            2.0,
            21.1e3,
            2.68e-3,
            10.4,
            12.25,
        ),
        B5 => (
            "M471A5143EB0-CPB",
            D4Gb,
            2133,
            X8,
            Some('E'),
            Some((8, 17)),
            8,
            21.0e3,
            7.78e-3,
            1.8,
            21.0e3,
            6.02e-3,
            2.0,
            21.1e3,
            8.67e-3,
            10.9,
            14.2,
        ),
        B6 => (
            "CMK16GX4M2B3200C16",
            D8Gb,
            3200,
            X8,
            None,
            None,
            8,
            10.3e3,
            1.14e-2,
            1.7,
            10.5e3,
            9.82e-3,
            1.7,
            10.5e3,
            9.82e-3,
            10.5,
            12.4,
        ),
        B7 => (
            "M378A1K43DB2-CTD",
            D8Gb,
            2666,
            X8,
            Some('D'),
            Some((10, 21)),
            8,
            7.3e3,
            1.32e-1,
            2.0,
            7.6e3,
            1.33e-1,
            2.0,
            7.6e3,
            1.33e-1,
            10.3,
            10.7,
        ),
        B8 => (
            "CMK16GX4M2B3200C16",
            D8Gb,
            3200,
            X8,
            None,
            None,
            8,
            11.6e3,
            2.88e-2,
            1.7,
            10.5e3,
            2.37e-2,
            1.8,
            11.7e3,
            2.58e-2,
            10.6,
            11.5,
        ),
        B9 => (
            "M471A5244CB0-CRC",
            D8Gb,
            2133,
            X8,
            Some('C'),
            Some((19, 19)),
            8,
            11.8e3,
            2.68e-2,
            1.7,
            8.8e3,
            2.39e-2,
            1.8,
            12.3e3,
            2.54e-2,
            10.5,
            11.4,
        ),
        C0 => (
            "F4-2400C17S-8GNT",
            D4Gb,
            2400,
            X8,
            Some('B'),
            Some((2, 21)),
            8,
            19.3e3,
            7.29e-3,
            1.7,
            23.4e3,
            6.61e-3,
            1.7,
            23.4e3,
            6.61e-3,
            10.4,
            11.2,
        ),
        C1 => (
            "F4-2400C17S-8GNT",
            D4Gb,
            2400,
            X8,
            Some('B'),
            Some((2, 21)),
            8,
            19.3e3,
            6.31e-3,
            1.7,
            20.6e3,
            5.90e-3,
            1.7,
            20.6e3,
            5.90e-3,
            10.5,
            11.3,
        ),
        C2 => (
            "KSM32RD8/16HDR",
            D8Gb,
            3200,
            X8,
            Some('D'),
            Some((48, 20)),
            8,
            9.6e3,
            2.82e-2,
            1.5,
            9.2e3,
            2.34e-2,
            2.3,
            10.0e3,
            2.89e-2,
            10.3,
            12.3,
        ),
        C3 => (
            "KSM32RD8/16HDR",
            D8Gb,
            3200,
            X8,
            Some('D'),
            Some((48, 20)),
            8,
            9.3e3,
            2.57e-2,
            1.5,
            8.9e3,
            2.21e-2,
            2.3,
            9.7e3,
            2.66e-2,
            10.4,
            11.2,
        ),
        C4 => (
            "HMAA4GU6AJR8N-XN",
            D16Gb,
            3200,
            X8,
            Some('A'),
            Some((51, 20)),
            8,
            11.6e3,
            3.22e-2,
            1.5,
            11.7e3,
            2.88e-2,
            1.5,
            11.7e3,
            2.88e-2,
            10.5,
            11.3,
        ),
        C5 => (
            "HMAA4GU6AJR8N-XN",
            D16Gb,
            3200,
            X8,
            Some('A'),
            Some((51, 20)),
            8,
            9.4e3,
            3.28e-2,
            1.5,
            12.7e3,
            2.85e-2,
            1.5,
            12.7e3,
            2.85e-2,
            10.4,
            11.2,
        ),
        C6 => (
            "CMV4GX4M1A2133C15",
            D4Gb,
            2133,
            X8,
            Some('C'),
            None,
            8,
            14.2e3,
            3.08e-2,
            1.6,
            15.5e3,
            2.25e-2,
            1.6,
            15.5e3,
            2.25e-2,
            10.3,
            11.1,
        ),
        C7 => (
            "CMV4GX4M1A2133C15",
            D4Gb,
            2133,
            X8,
            Some('C'),
            None,
            8,
            11.7e3,
            3.24e-2,
            1.6,
            13.6e3,
            2.60e-2,
            1.6,
            13.6e3,
            2.60e-2,
            10.4,
            11.2,
        ),
        C8 => (
            "KSM32RD8/16HDR",
            D8Gb,
            3200,
            X8,
            Some('D'),
            Some((48, 20)),
            8,
            11.4e3,
            2.69e-2,
            1.6,
            9.5e3,
            2.57e-2,
            2.5,
            11.4e3,
            2.69e-2,
            10.5,
            11.3,
        ),
        C9 => (
            "F4-2400C17S-8GNT",
            D4Gb,
            2400,
            X8,
            Some('B'),
            Some((2, 21)),
            8,
            12.6e3,
            2.18e-2,
            1.7,
            15.2e3,
            1.63e-2,
            1.7,
            15.2e3,
            1.63e-2,
            10.4,
            12.35,
        ),
    };
    let (
        dimm_model,
        density,
        frequency_mts,
        org,
        die_revision,
        mfr_date,
        chips,
        hcf,
        ber,
        vpp_min,
        hcf_min,
        ber_min,
        vpp_rec,
        hcf_rec,
        ber_rec,
        trcd_base,
        trcd_at_min,
    ) = row;
    // The seven modules of Obsv. 13 that flip at the 64 ms refresh window.
    let cluster64 = match id {
        B6 | B8 | B9 => cluster64_b(),
        C1 | C3 | C5 | C9 => cluster64_c(),
        _ => Vec::new(),
    };
    ModuleSpec {
        id,
        mfr: id.manufacturer(),
        dimm_model,
        density,
        frequency_mts,
        org,
        die_revision,
        mfr_date,
        chips,
        hc_first_nominal: hcf,
        ber_nominal: ber,
        vpp_min,
        hc_first_at_vppmin: hcf_min,
        ber_at_vppmin: ber_min,
        vpp_rec,
        hc_first_at_rec: hcf_rec,
        ber_at_rec: ber_rec,
        trcd: trcd_two_point(trcd_base, trcd_at_min, vpp_min),
        cluster64,
    }
}

/// Instantiates a live device calibrated to a module's Table 3 record.
///
/// The `seed` selects the specific specimen: all cell-level randomness
/// derives from it, so two instantiations with the same seed are identical
/// devices.
///
/// # Errors
///
/// Propagates construction failures from [`DramModule::new`].
pub fn instantiate(id: ModuleId, seed: u64) -> Result<DramModule, DramError> {
    DramModule::new(spec(id), seed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thirty_modules_ten_per_vendor() {
        assert_eq!(ModuleId::ALL.len(), 30);
        for mfr in Manufacturer::ALL {
            let n = ModuleId::ALL
                .iter()
                .filter(|m| m.manufacturer() == mfr)
                .count();
            assert_eq!(n, 10, "{mfr} has {n} modules");
        }
    }

    #[test]
    fn chip_count_totals_272() {
        let total: u32 = ModuleId::ALL.iter().map(|&m| spec(m).chips).sum();
        assert_eq!(total, 272);
    }

    #[test]
    fn labels_match_table() {
        assert_eq!(ModuleId::A0.label(), "A0");
        assert_eq!(ModuleId::B3.label(), "B3");
        assert_eq!(ModuleId::C9.to_string(), "C9");
        for id in ModuleId::ALL {
            assert_eq!(ModuleId::from_label(&id.label()), Some(id));
            assert_eq!(ModuleId::from_label(&id.label().to_lowercase()), Some(id));
        }
        assert_eq!(ModuleId::from_label("Z9"), None);
        assert_eq!(ModuleId::from_label("B10"), None);
        assert_eq!(ModuleId::from_label(""), None);
    }

    #[test]
    fn extreme_modules_match_table3() {
        // B3 shows the largest module-level BER reduction (0.40×), and its
        // vendor's per-row range tops out at 1.86 — the paper's +85.8 % rows.
        let b3 = spec(ModuleId::B3);
        assert!((b3.hc_multiplier_target() - 1.271).abs() < 0.01);
        assert!(b3.ber_ratio_at_vppmin() < 0.45);
        let min_ber_ratio = ModuleId::ALL
            .iter()
            .map(|&m| spec(m).ber_ratio_at_vppmin())
            .fold(f64::INFINITY, f64::min);
        assert_eq!(min_ber_ratio, b3.ber_ratio_at_vppmin());
        // C5 has the largest module-level HC_first gain (1.351×).
        let max_hc = ModuleId::ALL
            .iter()
            .map(|&m| spec(m))
            .max_by(|a, b| {
                a.hc_multiplier_target()
                    .partial_cmp(&b.hc_multiplier_target())
                    .unwrap()
            })
            .unwrap();
        assert_eq!(max_hc.id, ModuleId::C5);
    }

    #[test]
    fn vppmin_extremes_match_section7() {
        // §7: "lowest at 1.4 V for A0 and highest at 2.4 V for A5".
        assert_eq!(spec(ModuleId::A0).vpp_min, 1.4);
        assert_eq!(spec(ModuleId::A5).vpp_min, 2.4);
        let min = ModuleId::ALL
            .iter()
            .map(|&m| spec(m).vpp_min)
            .fold(f64::INFINITY, f64::min);
        let max = ModuleId::ALL
            .iter()
            .map(|&m| spec(m).vpp_min)
            .fold(0.0, f64::max);
        assert_eq!(min, 1.4);
        assert_eq!(max, 2.4);
    }

    #[test]
    fn seven_modules_flip_at_64ms() {
        let flipping: Vec<String> = ModuleId::ALL
            .iter()
            .map(|&m| spec(m))
            .filter(|s| s.flips_at_64ms())
            .map(|s| s.id.label())
            .collect();
        assert_eq!(flipping, vec!["B6", "B8", "B9", "C1", "C3", "C5", "C9"]);
    }

    #[test]
    fn trcd_failing_modules_match_section61() {
        use crate::physics::t_rcd_required_ns;
        // A0–A2 and B2, B5 exceed nominal 13.5 ns at V_PPmin; all others stay
        // under it.
        for &id in &ModuleId::ALL {
            let s = spec(id);
            let worst = t_rcd_required_ns(s.vpp_min, &s.trcd);
            let exceeds = worst > 13.5;
            let expected = matches!(
                id,
                ModuleId::A0 | ModuleId::A1 | ModuleId::A2 | ModuleId::B2 | ModuleId::B5
            );
            assert_eq!(exceeds, expected, "{id}: worst t_RCD = {worst:.1} ns");
            // and nobody needs more than the 24 ns fix
            assert!(worst <= 24.0 + 1e-9);
        }
    }

    #[test]
    fn x4_modules_have_16_chips() {
        for &id in &ModuleId::ALL {
            let s = spec(id);
            let expected = match s.org {
                ChipOrg::X4 => 16,
                ChipOrg::X8 => 8,
                ChipOrg::X16 => 4,
            };
            assert_eq!(s.chips, expected, "{id}");
        }
    }

    #[test]
    fn geometry_scales_with_density() {
        let small = spec(ModuleId::A3).geometry(); // 4Gb x8
        let large = spec(ModuleId::C4).geometry(); // 16Gb x8
        assert_eq!(large.rows_per_bank, 4 * small.rows_per_bank);
    }
}
