//! SoftMC-style DRAM test infrastructure model.
//!
//! The paper's experiments run on "an infrastructure based on SoftMC, the
//! state-of-the-art FPGA-based open-source infrastructure for DRAM
//! characterization", extensively modified for DDR4 (§4.1): a Xilinx Alveo
//! U200 issuing raw DDR4 command streams, an Adexelec interposer whose `V_PP`
//! shunt resistor is removed so an external TTi PL068-P supply drives the
//! wordline rail at ±1 mV precision, and heater pads under a MaxWell FT200
//! PID controller holding the chips at ±0.1 °C.
//!
//! This crate rebuilds each piece:
//!
//! - [`inst`] / [`program`] — the DDR4 instruction set and loop-structured
//!   test programs (real SoftMC programs are exactly this shape),
//! - [`engine`] — the command engine: executes programs against a
//!   [`hammervolt_dram::DramModule`] with timing enforcement at the 1.5 ns
//!   command-slot granularity, and runs each session operation as one bulk
//!   step bit-identical to its program,
//! - [`power`] — the external supply and the interposer shunt,
//! - [`thermal`] — the PID temperature controller and heater-pad plant,
//! - [`host`] — [`SoftMc`], the top-level session tying it all together.
//!
//! # Example
//!
//! ```
//! use hammervolt_dram::registry::{self, ModuleId};
//! use hammervolt_softmc::SoftMc;
//!
//! let module = registry::instantiate(ModuleId::A0, 1).unwrap();
//! let mut mc = SoftMc::new(module);
//! mc.set_vpp(2.4).unwrap();
//! assert_eq!(mc.vpp(), 2.4);
//! let vppmin = mc.find_vppmin().unwrap();
//! assert!((vppmin - 1.4).abs() < 1e-9); // A0's Table 3 V_PPmin
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod engine;
pub mod error;
pub mod host;
pub mod inst;
pub mod power;
pub mod program;
pub mod thermal;

pub use engine::{CommandMix, Engine, EngineScratch};
pub use error::SoftMcError;
pub use host::SoftMc;
pub use inst::Instruction;
pub use program::Program;
