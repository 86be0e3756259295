//! `monte_carlo_activation` takes its worker count from `HAMMERVOLT_JOBS`,
//! like the study engine's `ExecConfig::from_env`, and must treat a
//! malformed value the same way: warn through the observability event
//! sink, then fall back to one worker per CPU with unchanged statistics.
//!
//! Environment variables and the event sink are process-global, so this
//! binary holds only this test.

use hammervolt_obs::MemorySink;
use hammervolt_spice::dram_cell::{
    monte_carlo_activation, monte_carlo_activation_serial, DramCellParams,
};
use hammervolt_spice::montecarlo::MonteCarlo;
use std::sync::Arc;

#[test]
fn malformed_jobs_env_warns_from_the_monte_carlo_entry_point() {
    let base = DramCellParams {
        t_stop: 40e-9,
        dt: 20e-12,
        ..DramCellParams::default()
    };
    let mc = MonteCarlo::quick(2);

    let sink = Arc::new(MemorySink::new());
    hammervolt_obs::set_sink(Some(sink.clone()));
    std::env::set_var("HAMMERVOLT_JOBS", "two");
    let stats = monte_carlo_activation(&base, 2.5, &mc);
    std::env::remove_var("HAMMERVOLT_JOBS");
    hammervolt_obs::set_sink(None);

    let lines = sink.lines();
    assert!(
        lines
            .iter()
            .any(|l| l.contains("\"type\":\"warn\"") && l.contains("HAMMERVOLT_JOBS=\\\"two\\\"")),
        "a warn event must name the bad value: {lines:?}"
    );
    let stats = stats.expect("the study still runs");
    let reference = monte_carlo_activation_serial(&base, 2.5, &mc).unwrap();
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(stats.failures, reference.failures);
    assert_eq!(bits(&stats.t_rcd), bits(&reference.t_rcd));
    assert_eq!(bits(&stats.v_restore), bits(&reference.v_restore));
}
