//! Modified nodal analysis: variable layout and element stamps.
//!
//! Unknown vector layout: node voltages for nodes `1..N` (ground excluded)
//! followed by one branch current per independent voltage source. The
//! [`Stamper`] assembles the Newton-iteration Jacobian and right-hand side for
//! one candidate solution at one timestep; `pattern` marks every matrix
//! entry those stamps can touch for a given circuit's wiring.

use crate::linear::{Matrix, LU_SCHEDULE_MAX};
use crate::netlist::{Circuit, NodeId};

/// Maps circuit nodes/sources onto MNA unknown indices.
#[derive(Debug, Clone)]
pub struct Layout {
    node_count: usize,
    source_count: usize,
}

impl Layout {
    /// Builds the layout for a circuit.
    pub fn new(circuit: &Circuit) -> Self {
        Layout {
            node_count: circuit.node_count(),
            source_count: circuit.sources.len(),
        }
    }

    /// Number of MNA unknowns.
    pub fn unknowns(&self) -> usize {
        (self.node_count - 1) + self.source_count
    }

    /// Row/column index of a node voltage, or `None` for ground.
    pub fn node_index(&self, node: NodeId) -> Option<usize> {
        if node == 0 {
            None
        } else {
            Some(node - 1)
        }
    }

    /// Row/column index of a voltage-source branch current.
    pub fn source_index(&self, source: usize) -> usize {
        (self.node_count - 1) + source
    }
}

/// Assembles the MNA Jacobian and residual right-hand side.
///
/// The system solved each Newton iteration is `J · x = b` where `x` is the
/// *next* candidate solution (not a delta); element stamps therefore include
/// their linearization constants on the right-hand side.
#[derive(Debug, Clone)]
pub struct Stamper {
    /// Jacobian under construction.
    pub matrix: Matrix,
    /// Right-hand side under construction.
    pub rhs: Vec<f64>,
    layout: Layout,
}

impl Stamper {
    /// Creates a stamper for the given layout.
    pub fn new(layout: Layout) -> Self {
        let n = layout.unknowns();
        Stamper {
            matrix: Matrix::zeros(n),
            rhs: vec![0.0; n],
            layout,
        }
    }

    /// The layout in use.
    pub fn layout(&self) -> &Layout {
        &self.layout
    }

    /// Clears matrix and RHS for the next assembly.
    pub fn clear(&mut self) {
        self.matrix.clear();
        self.rhs.iter_mut().for_each(|v| *v = 0.0);
    }

    /// Stamps a conductance `g` between nodes `a` and `b`.
    pub fn conductance(&mut self, a: NodeId, b: NodeId, g: f64) {
        if let Some(i) = self.layout.node_index(a) {
            self.matrix.add(i, i, g);
        }
        if let Some(j) = self.layout.node_index(b) {
            self.matrix.add(j, j, g);
        }
        if let (Some(i), Some(j)) = (self.layout.node_index(a), self.layout.node_index(b)) {
            self.matrix.add(i, j, -g);
            self.matrix.add(j, i, -g);
        }
    }

    /// Stamps a current source of `amps` flowing from node `a` to node `b`
    /// (i.e. out of `a`, into `b`).
    pub fn current_source(&mut self, a: NodeId, b: NodeId, amps: f64) {
        if let Some(i) = self.layout.node_index(a) {
            self.rhs[i] -= amps;
        }
        if let Some(j) = self.layout.node_index(b) {
            self.rhs[j] += amps;
        }
    }

    /// Stamps voltage source `k` forcing `v(plus) − v(minus) = volts`: the
    /// ±1 incidence entries in the matrix, then `volts` in the right-hand
    /// side.
    pub fn voltage_source(&mut self, k: usize, plus: NodeId, minus: NodeId, volts: f64) {
        self.source_incidence(k, plus, minus);
        self.source_value(k, volts);
    }

    /// Stamps the matrix half of voltage source `k`: the ±1 entries tying
    /// its branch current to its terminals.
    pub(crate) fn source_incidence(&mut self, k: usize, plus: NodeId, minus: NodeId) {
        let br = self.layout.source_index(k);
        if let Some(i) = self.layout.node_index(plus) {
            self.matrix.add(i, br, 1.0);
            self.matrix.add(br, i, 1.0);
        }
        if let Some(j) = self.layout.node_index(minus) {
            self.matrix.add(j, br, -1.0);
            self.matrix.add(br, j, -1.0);
        }
    }

    /// Stamps the right-hand-side half of voltage source `k`: its value.
    pub(crate) fn source_value(&mut self, k: usize, volts: f64) {
        self.rhs[self.layout.source_index(k)] += volts;
    }

    /// Stamps a linearized transconductor: a current into terminal `d` (and
    /// out of terminal `s`) of
    /// `I(v) ≈ i0 + gd·v_d + gg·v_g + gs·v_s`
    /// where `i0` already folds in the operating-point offset
    /// (`i* − gd·v_d* − gg·v_g* − gs·v_s*`).
    #[allow(clippy::too_many_arguments)]
    pub fn linearized_fet(
        &mut self,
        d: NodeId,
        g_node: NodeId,
        s: NodeId,
        i0: f64,
        gd: f64,
        gg: f64,
        gs: f64,
    ) {
        let terms = [(d, gd), (g_node, gg), (s, gs)];
        if let Some(di) = self.layout.node_index(d) {
            for (n, gval) in terms {
                if let Some(ni) = self.layout.node_index(n) {
                    self.matrix.add(di, ni, gval);
                }
            }
            self.rhs[di] -= i0;
        }
        if let Some(si) = self.layout.node_index(s) {
            for (n, gval) in terms {
                if let Some(ni) = self.layout.node_index(n) {
                    self.matrix.add(si, ni, -gval);
                }
            }
            self.rhs[si] += i0;
        }
    }
}

/// The matrix entries the transient stamps of `circuit` can touch, one
/// mask per unknown: bit `c` of `rows[r]` marks entry `(r, c)`. It follows
/// the [`Stamper`] calls entry for entry: gmin on each node's diagonal
/// ([`conductance`](Stamper::conductance) to ground), the 2×2 conductance
/// block of each resistor and capacitor, each voltage source's incidence
/// entries ([`source_incidence`](Stamper::source_incidence)), and each
/// MOSFET's drain and source rows over its drain, gate and source columns
/// ([`linearized_fet`](Stamper::linearized_fet)). Ground's rows and
/// columns drop out, and rows past the last unknown stay empty.
///
/// `None` above [`LU_SCHEDULE_MAX`] unknowns, where no
/// [`LuSchedule`](crate::linear::LuSchedule) compiles.
pub(crate) fn pattern(layout: &Layout, circuit: &Circuit) -> Option<[u32; LU_SCHEDULE_MAX]> {
    if layout.unknowns() > LU_SCHEDULE_MAX {
        return None;
    }
    let mut rows = [0u32; LU_SCHEDULE_MAX];
    let mut mark = |row: Option<usize>, col: Option<usize>| {
        if let (Some(r), Some(c)) = (row, col) {
            rows[r] |= 1 << c;
        }
    };
    let node = |n: NodeId| layout.node_index(n);
    for n in 1..layout.node_count {
        mark(node(n), node(n));
    }
    let two_terminal = circuit
        .resistors
        .iter()
        .map(|r| (r.a, r.b))
        .chain(circuit.capacitors.iter().map(|c| (c.a, c.b)));
    for (a, b) in two_terminal {
        for (r, c) in [(a, a), (a, b), (b, a), (b, b)] {
            mark(node(r), node(c));
        }
    }
    for (k, s) in circuit.sources.iter().enumerate() {
        let br = Some(layout.source_index(k));
        for t in [s.plus, s.minus] {
            mark(node(t), br);
            mark(br, node(t));
        }
    }
    for m in &circuit.mosfets {
        for r in [m.drain, m.source] {
            for c in [m.drain, m.gate, m.source] {
                mark(node(r), node(c));
            }
        }
    }
    Some(rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::waveform::Waveform;

    fn two_node_circuit() -> Circuit {
        let mut c = Circuit::new();
        let a = c.node("a");
        let b = c.node("b");
        c.voltage_source("V1", a, Circuit::GROUND, Waveform::Dc(1.0));
        c.resistor("R1", a, b, 1.0);
        c.resistor("R2", b, Circuit::GROUND, 1.0);
        c
    }

    #[test]
    fn layout_indices() {
        let c = two_node_circuit();
        let l = Layout::new(&c);
        assert_eq!(l.unknowns(), 3); // 2 nodes + 1 source branch
        assert_eq!(l.node_index(0), None);
        assert_eq!(l.node_index(1), Some(0));
        assert_eq!(l.node_index(2), Some(1));
        assert_eq!(l.source_index(0), 2);
    }

    #[test]
    fn resistive_divider_solves() {
        // V1 = 1 V into R1–R2 divider: v(b) must be 0.5 V.
        let c = two_node_circuit();
        let l = Layout::new(&c);
        let mut st = Stamper::new(l);
        st.conductance(1, 2, 1.0);
        st.conductance(2, 0, 1.0);
        st.voltage_source(0, 1, 0, 1.0);
        let mut rhs = st.rhs.clone();
        st.matrix.clone().solve_in_place(&mut rhs).unwrap();
        assert!((rhs[0] - 1.0).abs() < 1e-12); // v(a)
        assert!((rhs[1] - 0.5).abs() < 1e-12); // v(b)
        assert!((rhs[2] + 0.5).abs() < 1e-12); // source current = −0.5 A (flows out of +)
    }

    #[test]
    fn current_source_moves_rhs() {
        let c = two_node_circuit();
        let mut st = Stamper::new(Layout::new(&c));
        st.current_source(1, 2, 2.0);
        assert_eq!(st.rhs[0], -2.0);
        assert_eq!(st.rhs[1], 2.0);
        // grounded end only affects the non-ground side
        st.clear();
        st.current_source(1, 0, 1.5);
        assert_eq!(st.rhs[0], -1.5);
    }

    #[test]
    fn conductance_to_ground_stamps_diagonal_only() {
        let c = two_node_circuit();
        let mut st = Stamper::new(Layout::new(&c));
        st.conductance(1, 0, 3.0);
        assert_eq!(st.matrix.get(0, 0), 3.0);
        assert_eq!(st.matrix.get(0, 1), 0.0);
    }

    #[test]
    fn clear_resets_state() {
        let c = two_node_circuit();
        let mut st = Stamper::new(Layout::new(&c));
        st.conductance(1, 2, 1.0);
        st.current_source(1, 2, 1.0);
        st.clear();
        assert_eq!(st.matrix.get(0, 0), 0.0);
        assert!(st.rhs.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn pattern_covers_every_entry_the_stamps_touch() {
        // Every element kind, with a source between two non-ground nodes
        // and MOSFETs with a grounded terminal, stamped as a transient
        // Newton iteration stamps them, with nonzero values that do not
        // cancel. Node `g` is only a source terminal and a gate, so gmin
        // alone stamps its diagonal.
        let mut c = Circuit::new();
        let [a, b, d, e, g] = ["a", "b", "d", "e", "g"].map(|name| c.node(name));
        c.voltage_source("V1", a, 0, Waveform::Dc(1.0));
        c.voltage_source("V2", b, d, Waveform::Dc(0.5));
        c.voltage_source("V3", g, 0, Waveform::Dc(2.0));
        c.resistor("R1", a, b, 3.0);
        c.resistor("R2", e, 0, 7.0);
        c.capacitor("C1", d, 0, 2e-15, 0.0);
        c.capacitor("C2", b, e, 5e-15, 0.0);
        let params = crate::ptm::cell_access_nmos();
        c.mosfet("M1", e, g, 0, 0.0, params);
        c.mosfet("M2", d, 0, b, 0.0, params);
        let layout = Layout::new(&c);
        let n = layout.unknowns();
        let mut st = Stamper::new(layout.clone());
        for node in 1..c.node_count() {
            st.conductance(node, 0, 1e-12);
        }
        for r in &c.resistors {
            st.conductance(r.a, r.b, 1.0 / r.ohms);
        }
        for cap in &c.capacitors {
            st.conductance(cap.a, cap.b, cap.farads / 1e-12);
        }
        for (k, s) in c.sources.iter().enumerate() {
            st.voltage_source(k, s.plus, s.minus, 1.0);
        }
        for (k, m) in c.mosfets.iter().enumerate() {
            let g = 1e-3 * (k + 1) as f64;
            st.linearized_fet(m.drain, m.gate, m.source, 1e-4, g, 2.0 * g, -3.0 * g);
        }
        let rows = pattern(&layout, &c).expect("a pattern up to LU_SCHEDULE_MAX unknowns");
        let mut touched = 0;
        for (row, mask) in rows.iter().enumerate().take(n) {
            for col in 0..n {
                let inside = mask >> col & 1 == 1;
                if st.matrix.get(row, col) != 0.0 {
                    touched += 1;
                    assert!(
                        inside,
                        "entry ({row}, {col}) is stamped outside the pattern"
                    );
                }
            }
        }
        assert!(rows[n..].iter().all(|&r| r == 0), "rows past the unknowns");
        assert!(
            rows.iter().all(|&r| r >> n == 0),
            "columns past the unknowns"
        );
        // The pattern is the stamped entries and no more.
        assert_eq!(rows.iter().map(|r| r.count_ones()).sum::<u32>(), touched);
        let mut big = Circuit::new();
        for k in 0..=LU_SCHEDULE_MAX {
            big.node(&format!("n{k}"));
        }
        assert_eq!(pattern(&Layout::new(&big), &big), None);
    }

    #[test]
    fn linearized_fet_stamps_kcl_pair() {
        let c = two_node_circuit();
        let mut st = Stamper::new(Layout::new(&c));
        // drain = node 1, gate = ground (no stamp), source = node 2
        st.linearized_fet(1, 0, 2, 0.1, 0.01, 0.02, -0.03);
        // drain row gains +gd on drain col, +gs on source col
        assert_eq!(st.matrix.get(0, 0), 0.01);
        assert_eq!(st.matrix.get(0, 1), -0.03);
        // source row mirrors with opposite sign
        assert_eq!(st.matrix.get(1, 0), -0.01);
        assert_eq!(st.matrix.get(1, 1), 0.03);
        assert_eq!(st.rhs[0], -0.1);
        assert_eq!(st.rhs[1], 0.1);
    }
}
