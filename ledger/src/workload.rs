//! The four workloads behind one interface: generate inputs from the seed
//! and bring the entry point up (set-up), run one untraced pass, or run the
//! traced replay that fills the layer table.

use crate::alg::Counts;
use crate::spans::{empty_span_ns, SpanTree};
use crate::{population, quick, serve, spice};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    QuickStudy,
    PopulationFleet,
    ServeMix,
    SpiceMc,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::QuickStudy,
        Workload::PopulationFleet,
        Workload::ServeMix,
        Workload::SpiceMc,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::QuickStudy => "quick_study",
            Workload::PopulationFleet => "population_fleet",
            Workload::ServeMix => "serve_mix",
            Workload::SpiceMc => "spice_mc",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Set-up: generates the run's inputs from `seed` and brings the entry
    /// point to ready.
    pub fn prepare(self, seed: u64, size: Size) -> Result<Prepared, String> {
        Ok(match self {
            Workload::QuickStudy => Prepared::Quick(quick::inputs(seed, size)),
            Workload::PopulationFleet => Prepared::Population(population::inputs(seed, size)),
            Workload::ServeMix => Prepared::Serve(serve::start(seed, size)?),
            Workload::SpiceMc => Prepared::Spice(Box::new(spice::inputs(seed, size))),
        })
    }

    /// The traced run that fills the layer table.
    pub fn traced(self, seed: u64, size: Size) -> Result<TracedOutput, String> {
        match self {
            Workload::QuickStudy => quick::traced(seed, size),
            Workload::PopulationFleet => population::traced(seed, size),
            Workload::ServeMix => serve::traced(seed, size),
            Workload::SpiceMc => spice::traced(seed, size),
        }
    }
}

/// Workload scale: `Full` is the benchmark; `Tiny` exists so the test suite
/// can drive every workload end to end in seconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    Full,
    Tiny,
}

impl Size {
    pub fn name(self) -> &'static str {
        match self {
            Size::Full => "full",
            Size::Tiny => "tiny",
        }
    }

    pub fn parse(name: &str) -> Option<Size> {
        [Size::Full, Size::Tiny]
            .into_iter()
            .find(|s| s.name() == name)
    }
}

/// A workload whose inputs are generated and whose entry point is ready.
pub enum Prepared {
    Quick(quick::Inputs),
    Population(population::Inputs),
    Serve(serve::Running),
    Spice(Box<spice::Inputs>),
}

impl Prepared {
    /// One untraced, timed pass.
    pub fn pass(&self) -> Result<PassOutput, String> {
        match self {
            Prepared::Quick(inputs) => quick::pass(inputs),
            Prepared::Population(inputs) => population::pass(inputs),
            Prepared::Serve(running) => serve::pass(running),
            Prepared::Spice(inputs) => spice::pass(inputs),
        }
    }

    /// Stops whatever set-up started.
    pub fn finish(self) {
        if let Prepared::Serve(running) = self {
            running.stop();
        }
    }
}

/// One untraced pass's outcome.
pub struct PassOutput {
    /// Wall time of the timed phase.
    pub wall_s: f64,
    /// The workload's output bytes (their FNV-1a-64 is the run's digest).
    pub payload: Vec<u8>,
    /// Operations attempted: sweeps, population runs, requests or V_PP
    /// levels.
    pub attempted: u64,
    /// Operations that errored, answered non-2xx, or failed a check.
    pub failed: u64,
    /// Workload-specific figures the session ledger reports beside the
    /// end-to-end metrics (request latencies for the serve mix).
    pub extras: Vec<(&'static str, f64)>,
}

/// A traced run's outcome.
pub struct TracedOutput {
    pub layers: Layers,
    pub spans: SpanTree,
    /// Digest of the engine's output in this run.
    pub digest: u64,
    /// Output comparisons made (replay vs engine and the like).
    pub attempted: u64,
    /// Comparisons that did not match.
    pub failed: u64,
}

/// Layer metrics by `BENCHMARK.json` name; a name a workload never sets is
/// a layer it bypasses and reads as zero.
#[derive(Debug, Default, Clone)]
pub struct Layers(Vec<(&'static str, f64)>);

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

impl Layers {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.0.retain(|(n, _)| *n != name);
        self.0.push((name, value));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| *n == name).map(|&(_, v)| v)
    }

    pub fn names(&self) -> impl Iterator<Item = &'static str> + '_ {
        self.0.iter().map(|&(n, _)| n)
    }

    /// The device-model, SoftMC and algorithm layers of a replay, plus the
    /// simulated ACT rate of the untraced engine pass.
    pub fn device(&mut self, tree: &SpanTree, c: &Counts, engine_wall_s: f64) {
        let hammer_s = tree.total_s("softmc.hammer");
        let read_s = tree.total_s("softmc.read");
        let reads = tree.count("softmc.read") as f64;
        self.set("dram.instantiate_s", tree.total_s("dram.instantiate"));
        self.set("dram.prepare_s", tree.total_s("dram.prepare"));
        self.set(
            "dram.blueprint_build_s",
            tree.total_s("dram.blueprint_build"),
        );
        self.set("dram.flip_bits", c.flip_bits as f64);
        self.set("softmc.hammer_s", hammer_s);
        self.set("softmc.acts", c.acts as f64);
        self.set("softmc.ns_per_act", ratio(hammer_s * 1e9, c.acts as f64));
        self.set("softmc.read_s", read_s);
        self.set("softmc.reads", reads);
        self.set("softmc.us_per_read", ratio(read_s * 1e6, reads));
        self.set("softmc.init_s", tree.total_s("softmc.init_row"));
        self.set("softmc.inits", tree.count("softmc.init_row") as f64);
        self.set("softmc.set_vpp_s", tree.total_s("softmc.set_vpp"));
        self.set("softmc.wait_s", tree.total_s("softmc.wait"));
        self.set("alg1.wcdp_s", tree.total_s("alg1.wcdp"));
        self.set("alg1.ber_s", tree.total_s("alg1.ber"));
        self.set("alg1.hc_search_s", tree.total_s("alg1.hc_search"));
        self.set("alg1.search_steps", c.search_steps as f64);
        self.set("alg2.measure_row_s", tree.total_s("alg2.measure_row"));
        self.set("alg2.rows", tree.count("alg2.measure_row") as f64);
        self.set("alg3.window_s", tree.total_s("alg3.window"));
        self.set("alg3.windows", tree.count("alg3.window") as f64);
        self.set("exec.sim_acts_per_s", ratio(c.acts as f64, engine_wall_s));
        self.tracing(tree);
    }

    /// The tracer's own cost and coverage.
    pub fn tracing(&mut self, tree: &SpanTree) {
        let spans_s = tree.span_count() as f64 * empty_span_ns() * 1e-9;
        self.set("obs.span_overhead_ratio", ratio(spans_s, tree.root_s()));
        self.set("obs.unattributed_ratio", tree.unattributed_ratio());
    }
}
