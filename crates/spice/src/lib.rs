//! A compact SPICE-class transient circuit simulator.
//!
//! The reproduced paper (§4.5) verifies its real-device observations with
//! LTspice simulations of a DRAM cell, bitline, and sense amplifier using the
//! 22 nm PTM transistor model. This crate rebuilds that toolchain from
//! scratch:
//!
//! - [`netlist`] — circuit construction: named nodes, resistors, capacitors
//!   (with initial conditions), independent voltage sources, and MOSFETs,
//! - [`waveform`] — source waveforms (DC and piecewise-linear),
//! - [`mosfet`] — a level-1 (Shichman–Hodges) MOSFET model with body effect
//!   and channel-length modulation, parameterized by a PTM-like 22 nm card
//!   ([`ptm`]), evaluated one device at a time or lane-wide,
//! - [`linear`] — dense LU factorization with partial pivoting, plus a
//!   lane solver that replays one system's compiled elimination on several
//!   same-sized systems at once, each bit-identical to the one-system
//!   solve,
//! - [`mna`] / [`transient`] — modified nodal analysis with Newton–Raphson
//!   iteration and backward-Euler companion models for capacitors; the
//!   reference engine steps one circuit, the lane solver steps several
//!   same-shaped circuits in lockstep, each bit-identical to the reference,
//!   compiled for AVX-512 where the host has it,
//! - [`analysis`] — trace measurements (threshold crossings, in a recorded
//!   trace or sample by sample, and settling times),
//! - [`montecarlo`] — ±5 % component variation across seeded trials (§4.5),
//! - [`dram_cell`] — the paper's Table 2 netlist: 16.8 fF cell, 100.5 fF
//!   bitline, access NMOS, and a cross-coupled sense amplifier, with
//!   activation/restoration experiments that reproduce Figs. 8 and 9,
//! - [`batch`] — the batched Monte-Carlo runner: one symbolic analysis per
//!   netlist shape, per-worker solver workspaces, trials stepped eight at a
//!   time as solver lanes, data-parallel lane groups with results
//!   bit-identical to the serial reference for any worker count.
//!
//! # Example: RC step response
//!
//! ```
//! use hammervolt_spice::netlist::Circuit;
//! use hammervolt_spice::transient::{Transient, TransientConfig};
//! use hammervolt_spice::waveform::Waveform;
//!
//! let mut c = Circuit::new();
//! let vin = c.node("in");
//! let vout = c.node("out");
//! c.voltage_source("V1", vin, Circuit::GROUND, Waveform::Dc(1.0));
//! c.resistor("R1", vin, vout, 1_000.0);
//! c.capacitor("C1", vout, Circuit::GROUND, 1e-9, 0.0);
//!
//! let cfg = TransientConfig { t_stop: 5e-6, dt: 1e-9, ..TransientConfig::default() };
//! let result = Transient::new(&c, cfg).unwrap().run().unwrap();
//! let v_end = *result.trace(vout).unwrap().last().unwrap();
//! assert!((v_end - 1.0).abs() < 1e-2); // settled to the source voltage
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod batch;
pub mod dram_cell;
pub mod error;
pub mod linear;
pub mod mna;
pub mod montecarlo;
pub mod mosfet;
pub mod netlist;
pub mod ptm;
pub mod transient;
pub mod waveform;

pub use error::SpiceError;
pub use netlist::Circuit;
pub use transient::{Transient, TransientConfig, TransientResult};
