//! Circuit (netlist) construction.
//!
//! A [`Circuit`] is a bag of named nodes plus elements referencing them.
//! Node 0 is always ground. Construction is infallible for nodes and
//! validated per element; the transient engine re-validates node references
//! before simulation.

use crate::mosfet::MosfetParams;
use crate::waveform::Waveform;
use std::collections::HashMap;

/// Node identifier. `0` is ground.
pub type NodeId = usize;

/// A resistor between two nodes.
#[derive(Debug, Clone, PartialEq)]
pub struct Resistor {
    /// Element name (diagnostics only).
    pub name: String,
    /// First terminal.
    pub a: NodeId,
    /// Second terminal.
    pub b: NodeId,
    /// Resistance in ohms; strictly positive.
    pub ohms: f64,
}

/// A capacitor between two nodes with an initial voltage `v(a) - v(b)`.
#[derive(Debug, Clone, PartialEq)]
pub struct Capacitor {
    /// Element name (diagnostics only).
    pub name: String,
    /// First terminal.
    pub a: NodeId,
    /// Second terminal.
    pub b: NodeId,
    /// Capacitance in farads; strictly positive.
    pub farads: f64,
    /// Initial condition `v(a) − v(b)` at `t = 0`.
    pub initial_volts: f64,
}

/// An independent voltage source from `plus` to `minus`.
#[derive(Debug, Clone, PartialEq)]
pub struct VoltageSource {
    /// Element name (diagnostics only).
    pub name: String,
    /// Positive terminal.
    pub plus: NodeId,
    /// Negative terminal.
    pub minus: NodeId,
    /// Source waveform.
    pub waveform: Waveform,
}

/// A MOSFET instance.
#[derive(Debug, Clone, PartialEq)]
pub struct Mosfet {
    /// Element name (diagnostics only).
    pub name: String,
    /// Drain node.
    pub drain: NodeId,
    /// Gate node.
    pub gate: NodeId,
    /// Source node.
    pub source: NodeId,
    /// Bulk rail voltage (not a circuit node): 0 for NMOS, V_DD for PMOS
    /// in the DRAM netlist.
    pub bulk_volts: f64,
    /// Device parameters.
    pub params: MosfetParams,
}

/// A complete circuit under construction.
#[derive(Debug, Clone, Default)]
pub struct Circuit {
    name_to_node: HashMap<String, NodeId>,
    /// Resistors in the circuit.
    pub resistors: Vec<Resistor>,
    /// Capacitors in the circuit.
    pub capacitors: Vec<Capacitor>,
    /// Independent voltage sources in the circuit.
    pub sources: Vec<VoltageSource>,
    /// MOSFET instances in the circuit.
    pub mosfets: Vec<Mosfet>,
}

/// Clamp applied to every resistance entering a circuit: non-positive or
/// non-finite values become a 1 mΩ minimum, matching SPICE's forgiving
/// behaviour for degenerate elements.
fn clamp_ohms(ohms: f64) -> f64 {
    if ohms.is_finite() && ohms > 0.0 {
        ohms
    } else {
        1e-3
    }
}

/// Clamp applied to every capacitance entering a circuit: non-positive or
/// non-finite values become a 1 aF minimum.
fn clamp_farads(farads: f64) -> f64 {
    if farads.is_finite() && farads > 0.0 {
        farads
    } else {
        1e-18
    }
}

impl Circuit {
    /// The ground node, always present.
    pub const GROUND: NodeId = 0;

    /// Creates an empty circuit containing only the ground node.
    pub fn new() -> Self {
        let mut c = Circuit::default();
        c.name_to_node.insert("0".to_string(), 0);
        c
    }

    /// Returns the node with the given name, creating it if necessary.
    /// The name `"0"` always maps to ground.
    pub fn node(&mut self, name: &str) -> NodeId {
        if let Some(&id) = self.name_to_node.get(name) {
            return id;
        }
        let id = self.name_to_node.len();
        self.name_to_node.insert(name.to_string(), id);
        id
    }

    /// Looks up an existing node by name.
    pub fn find_node(&self, name: &str) -> Option<NodeId> {
        self.name_to_node.get(name).copied()
    }

    /// Total node count including ground.
    pub fn node_count(&self) -> usize {
        self.name_to_node.len()
    }

    /// Adds a resistor. Non-positive or non-finite resistance is clamped to a
    /// 1 mΩ minimum rather than rejected, matching SPICE's forgiving behaviour
    /// for degenerate elements; callers that care should validate upstream.
    pub fn resistor(&mut self, name: &str, a: NodeId, b: NodeId, ohms: f64) -> &mut Self {
        let ohms = clamp_ohms(ohms);
        self.resistors.push(Resistor {
            name: name.to_string(),
            a,
            b,
            ohms,
        });
        self
    }

    /// Adds a capacitor with an initial condition.
    pub fn capacitor(
        &mut self,
        name: &str,
        a: NodeId,
        b: NodeId,
        farads: f64,
        initial_volts: f64,
    ) -> &mut Self {
        let farads = clamp_farads(farads);
        self.capacitors.push(Capacitor {
            name: name.to_string(),
            a,
            b,
            farads,
            initial_volts,
        });
        self
    }

    /// Adds an independent voltage source.
    pub fn voltage_source(
        &mut self,
        name: &str,
        plus: NodeId,
        minus: NodeId,
        waveform: Waveform,
    ) -> &mut Self {
        self.sources.push(VoltageSource {
            name: name.to_string(),
            plus,
            minus,
            waveform,
        });
        self
    }

    /// Adds a MOSFET.
    pub fn mosfet(
        &mut self,
        name: &str,
        drain: NodeId,
        gate: NodeId,
        source: NodeId,
        bulk_volts: f64,
        params: MosfetParams,
    ) -> &mut Self {
        self.mosfets.push(Mosfet {
            name: name.to_string(),
            drain,
            gate,
            source,
            bulk_volts,
            params,
        });
        self
    }

    /// Looks up an element index by name in the resistor list.
    pub fn resistor_index(&self, name: &str) -> Option<usize> {
        self.resistors.iter().position(|r| r.name == name)
    }

    /// Looks up an element index by name in the capacitor list.
    pub fn capacitor_index(&self, name: &str) -> Option<usize> {
        self.capacitors.iter().position(|c| c.name == name)
    }

    /// Looks up an element index by name in the MOSFET list.
    pub fn mosfet_index(&self, name: &str) -> Option<usize> {
        self.mosfets.iter().position(|m| m.name == name)
    }

    /// Overwrites a resistor's value in place, applying the same degenerate
    /// clamp as [`Circuit::resistor`]. Used by batched runners that patch a
    /// template circuit per trial instead of rebuilding it.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn set_resistance(&mut self, index: usize, ohms: f64) {
        self.resistors[index].ohms = clamp_ohms(ohms);
    }

    /// Overwrites a capacitor's value and initial condition in place,
    /// applying the same degenerate clamp as [`Circuit::capacitor`].
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn set_capacitance(&mut self, index: usize, farads: f64, initial_volts: f64) {
        let c = &mut self.capacitors[index];
        c.farads = clamp_farads(farads);
        c.initial_volts = initial_volts;
    }

    /// Overwrites a MOSFET's device parameters in place.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn set_mosfet_params(&mut self, index: usize, params: MosfetParams) {
        self.mosfets[index].params = params;
    }

    /// The largest node index referenced by any element, or `None` if the
    /// circuit has no elements.
    pub fn max_referenced_node(&self) -> Option<NodeId> {
        let mut max: Option<NodeId> = None;
        let mut touch = |n: NodeId| max = Some(max.map_or(n, |m: NodeId| m.max(n)));
        for r in &self.resistors {
            touch(r.a);
            touch(r.b);
        }
        for c in &self.capacitors {
            touch(c.a);
            touch(c.b);
        }
        for s in &self.sources {
            touch(s.plus);
            touch(s.minus);
        }
        for m in &self.mosfets {
            touch(m.drain);
            touch(m.gate);
            touch(m.source);
        }
        max
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ptm;

    #[test]
    fn ground_is_node_zero() {
        let mut c = Circuit::new();
        assert_eq!(c.node("0"), 0);
        assert_eq!(c.node_count(), 1);
        assert_eq!(c.find_node("0"), Some(Circuit::GROUND));
    }

    #[test]
    fn nodes_are_interned() {
        let mut c = Circuit::new();
        let a = c.node("bl");
        let b = c.node("bl");
        assert_eq!(a, b);
        assert_eq!(c.node_count(), 2);
        assert_eq!(c.find_node("bl"), Some(a));
        assert_eq!(c.find_node("missing"), None);
    }

    #[test]
    fn elements_register() {
        let mut c = Circuit::new();
        let a = c.node("a");
        let b = c.node("b");
        c.resistor("R1", a, b, 100.0)
            .capacitor("C1", b, Circuit::GROUND, 1e-12, 0.5)
            .voltage_source("V1", a, Circuit::GROUND, Waveform::Dc(1.0))
            .mosfet("M1", a, b, Circuit::GROUND, 0.0, ptm::sense_amp_nmos());
        assert_eq!(c.resistors.len(), 1);
        assert_eq!(c.capacitors.len(), 1);
        assert_eq!(c.sources.len(), 1);
        assert_eq!(c.mosfets.len(), 1);
        assert_eq!(c.max_referenced_node(), Some(b));
    }

    #[test]
    fn degenerate_values_are_clamped() {
        let mut c = Circuit::new();
        let a = c.node("a");
        c.resistor("R0", a, 0, 0.0);
        c.resistor("Rneg", a, 0, -5.0);
        c.capacitor("C0", a, 0, 0.0, 0.0);
        assert!(c.resistors.iter().all(|r| r.ohms > 0.0));
        assert!(c.capacitors.iter().all(|cp| cp.farads > 0.0));
    }

    #[test]
    fn empty_circuit_has_no_referenced_nodes() {
        assert_eq!(Circuit::new().max_referenced_node(), None);
    }

    #[test]
    fn in_place_setters_match_builder_semantics() {
        let mut c = Circuit::new();
        let a = c.node("a");
        c.resistor("R1", a, 0, 100.0);
        c.capacitor("C1", a, 0, 1e-12, 0.5);
        c.mosfet("M1", a, 0, 0, 0.0, ptm::sense_amp_nmos());
        let r = c.resistor_index("R1").unwrap();
        let cp = c.capacitor_index("C1").unwrap();
        let m = c.mosfet_index("M1").unwrap();
        assert_eq!(c.resistor_index("missing"), None);
        assert_eq!(c.capacitor_index("missing"), None);
        assert_eq!(c.mosfet_index("missing"), None);

        c.set_resistance(r, 250.0);
        assert_eq!(c.resistors[r].ohms, 250.0);
        // degenerate values take the same clamp as the builder
        c.set_resistance(r, -1.0);
        assert_eq!(c.resistors[r].ohms, 1e-3);
        c.set_capacitance(cp, f64::NAN, 0.7);
        assert_eq!(c.capacitors[cp].farads, 1e-18);
        assert_eq!(c.capacitors[cp].initial_volts, 0.7);

        let mut p = ptm::sense_amp_nmos();
        p.width *= 2.0;
        c.set_mosfet_params(m, p);
        assert_eq!(c.mosfets[m].params.width, p.width);
    }
}
