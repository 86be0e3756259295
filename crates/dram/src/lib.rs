//! Behavioral DDR4 DRAM device model for the hammervolt study.
//!
//! The reproduced paper characterizes 272 real DDR4 chips (30 DIMMs, Table 3)
//! under reduced wordline voltage `V_PP`. This crate is the synthetic stand-in
//! for those chips: a cell-accurate behavioral model whose failure physics
//! respond to `V_PP` the way the paper's real devices do.
//!
//! # Model overview
//!
//! Every cell's properties are derived *deterministically* from a hash of
//! `(module seed, bank, row, column, bit)` ([`hash`]), so a module is fully
//! reproducible from its seed and calibration record. The physics
//! ([`physics`]) capture four `V_PP`-dependent mechanisms:
//!
//! 1. **Charge restoration saturation** (Obsv. 10): a restored cell holds
//!    `min(V_DD, ≈0.87·V_PP − 0.51)` volts, full only for `V_PP ≳ 2.0 V`.
//! 2. **RowHammer disturbance** (§2.3): each aggressor activation deposits
//!    `dq ∝ (1 + s·(V_PP − 2.5))` of disturbance into neighbor cells; a cell
//!    flips when accumulated disturbance exceeds its critical charge, which
//!    itself shrinks with the restored level. Lower `V_PP` ⇒ weaker hammering
//!    but also less stored charge — the tension behind the paper's
//!    minority-direction rows (Obsvs. 2 and 5).
//! 3. **Activation latency**: the required `t_RCD` grows as `V_PP` falls;
//!    reads issued faster than a cell's requirement return corrupted bits.
//! 4. **Retention**: heavy-tailed per-cell retention times, Arrhenius
//!    temperature scaling, scaled down by the restored-charge fraction.
//!
//! Module-level behaviour is calibrated against the paper's Table 3
//! ([`registry`]): each of the thirty modules (A0–A9, B0–B9, C0–C9) gets the
//! published `HC_first`/BER at nominal `V_PP` and at its `V_PPmin`, and the
//! per-manufacturer profiles ([`vendor`]) carry the population spreads of
//! Figs. 4 and 6, the retention tail shapes of Fig. 10, and the weak-cell
//! cluster structure of Fig. 11.
//!
//! The device speaks a raw timing-explicit interface ([`module::DramModule`]):
//! `activate`/`read`/`write`/`precharge`/`refresh` with caller-supplied
//! timings, plus `set_vpp` (which fails below the module's `V_PPmin`, as the
//! real modules stop responding). The SoftMC-style test infrastructure in the
//! `hammervolt-softmc` crate drives this interface.
//!
//! # Example
//!
//! ```
//! use hammervolt_dram::registry::{self, ModuleId};
//!
//! let mut module = registry::instantiate(ModuleId::A0, 42).unwrap();
//! module.set_vpp(2.5).unwrap();
//! assert!(module.set_vpp(1.0).is_err()); // below V_PPmin: chip stops responding
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod error;
pub mod geometry;
pub mod hash;
pub mod mapping;
pub mod module;
pub mod ondie_ecc;
pub mod physics;
pub mod population;
pub mod registry;
pub mod timing;
pub mod trr;
pub mod vendor;
pub mod wide;

pub use error::DramError;
pub use geometry::Geometry;
pub use module::{DramModule, ModuleBlueprint};
pub use registry::{instantiate, ModuleId, ModuleSpec};
pub use vendor::Manufacturer;
