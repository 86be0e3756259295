//! Module geometry: densities, organizations, and address ranges.

use crate::error::DramError;
use serde::{Deserialize, Serialize};

/// Die density of a DDR4 chip, as listed in the paper's Table 3.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Density {
    /// 4 Gbit die.
    D4Gb,
    /// 8 Gbit die.
    D8Gb,
    /// 16 Gbit die.
    D16Gb,
}

impl Density {
    /// Capacity in bits.
    pub fn bits(&self) -> u64 {
        match self {
            Density::D4Gb => 4 << 30,
            Density::D8Gb => 8 << 30,
            Density::D16Gb => 16 << 30,
        }
    }

    /// Rows per bank for a standard ×8 part of this density (DDR4: 16 banks,
    /// 1 KB page per ×8 chip ⇒ 8 Kb row).
    pub fn rows_per_bank_x8(&self) -> u32 {
        match self {
            Density::D4Gb => 32 * 1024,
            Density::D8Gb => 64 * 1024,
            Density::D16Gb => 128 * 1024,
        }
    }
}

impl std::fmt::Display for Density {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Density::D4Gb => write!(f, "4Gb"),
            Density::D8Gb => write!(f, "8Gb"),
            Density::D16Gb => write!(f, "16Gb"),
        }
    }
}

/// Chip organization: data-bus width per chip.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ChipOrg {
    /// ×4 organization (16 chips per 64-bit rank).
    X4,
    /// ×8 organization (8 chips per 64-bit rank).
    X8,
    /// ×16 organization (4 chips per 64-bit rank).
    X16,
}

impl ChipOrg {
    /// Data bits this chip contributes per beat.
    pub fn width(&self) -> u32 {
        match self {
            ChipOrg::X4 => 4,
            ChipOrg::X8 => 8,
            ChipOrg::X16 => 16,
        }
    }
}

impl std::fmt::Display for ChipOrg {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ChipOrg::X4 => write!(f, "x4"),
            ChipOrg::X8 => write!(f, "x8"),
            ChipOrg::X16 => write!(f, "x16"),
        }
    }
}

/// Rank-level geometry of a module as the memory controller sees it.
///
/// The study addresses a module as `banks × rows × (64-bit) columns`: chips in
/// a rank operate in lock-step, so one "row" here is the full rank row (e.g.
/// 8 KB for a ×8 rank).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Geometry {
    /// Number of banks (DDR4: 16).
    pub banks: u32,
    /// Rows per bank.
    pub rows_per_bank: u32,
    /// 64-bit columns per row. A standard 8 KB rank row has 1024.
    pub columns_per_row: u32,
}

impl Geometry {
    /// Standard DDR4 rank geometry for a density/organization pair.
    pub fn ddr4(density: Density, org: ChipOrg) -> Self {
        // Rank page size is 8 KB regardless of org (chip page × chips/rank);
        // rows per bank scales with density and org width.
        let rows_x8 = density.rows_per_bank_x8();
        let rows = match org {
            ChipOrg::X4 => rows_x8 * 2,
            ChipOrg::X8 => rows_x8,
            ChipOrg::X16 => rows_x8 / 2,
        };
        Geometry {
            banks: 16,
            rows_per_bank: rows,
            columns_per_row: 1024,
        }
    }

    /// A reduced geometry for fast tests: full-width rows, few of them.
    pub fn small_test() -> Self {
        Geometry {
            banks: 2,
            rows_per_bank: 512,
            columns_per_row: 1024,
        }
    }

    /// Bits per row across the rank.
    pub fn bits_per_row(&self) -> u32 {
        self.columns_per_row * 64
    }

    /// Validates a bank index.
    ///
    /// # Errors
    ///
    /// Fails with [`DramError::AddressOutOfRange`].
    pub fn check_bank(&self, bank: u32) -> Result<(), DramError> {
        if bank < self.banks {
            Ok(())
        } else {
            Err(DramError::AddressOutOfRange {
                what: format!("bank {bank} (module has {})", self.banks),
            })
        }
    }

    /// Validates a row index.
    ///
    /// # Errors
    ///
    /// Fails with [`DramError::AddressOutOfRange`].
    pub fn check_row(&self, row: u32) -> Result<(), DramError> {
        if row < self.rows_per_bank {
            Ok(())
        } else {
            Err(DramError::AddressOutOfRange {
                what: format!("row {row} (bank has {})", self.rows_per_bank),
            })
        }
    }

    /// Validates a column index.
    ///
    /// # Errors
    ///
    /// Fails with [`DramError::AddressOutOfRange`].
    pub fn check_column(&self, column: u32) -> Result<(), DramError> {
        if column < self.columns_per_row {
            Ok(())
        } else {
            Err(DramError::AddressOutOfRange {
                what: format!("column {column} (row has {})", self.columns_per_row),
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn density_bits() {
        assert_eq!(Density::D4Gb.bits(), 1u64 << 32);
        assert_eq!(Density::D16Gb.bits(), 1u64 << 34);
    }

    #[test]
    fn ddr4_geometry_totals_match_density() {
        // 8Gb ×8: 16 banks × 64K rows × 8KB rows = 8 Gb × 8 chips.
        let g = Geometry::ddr4(Density::D8Gb, ChipOrg::X8);
        assert_eq!(g.banks, 16);
        assert_eq!(g.rows_per_bank, 64 * 1024);
        assert_eq!(g.bits_per_row(), 65536);
        let rank_bits = g.banks as u64 * g.rows_per_bank as u64 * g.bits_per_row() as u64;
        assert_eq!(rank_bits, Density::D8Gb.bits() * 8);
    }

    #[test]
    fn x4_has_twice_the_rows() {
        let x8 = Geometry::ddr4(Density::D8Gb, ChipOrg::X8);
        let x4 = Geometry::ddr4(Density::D8Gb, ChipOrg::X4);
        assert_eq!(x4.rows_per_bank, 2 * x8.rows_per_bank);
    }

    #[test]
    fn address_checks() {
        let g = Geometry::small_test();
        assert!(g.check_bank(0).is_ok());
        assert!(g.check_bank(g.banks).is_err());
        assert!(g.check_row(g.rows_per_bank - 1).is_ok());
        assert!(g.check_row(g.rows_per_bank).is_err());
        assert!(g.check_column(0).is_ok());
        assert!(g.check_column(g.columns_per_row).is_err());
    }

    #[test]
    fn display_strings() {
        assert_eq!(Density::D8Gb.to_string(), "8Gb");
        assert_eq!(ChipOrg::X4.to_string(), "x4");
    }
}
