//! Figure regeneration and experiment running for the AutoFL
//! reproduction.
//!
//! [`figures`] holds the paper's figures and the extension studies, each
//! a function that returns its text; the `figures` binary prints them by
//! name. The `spec_run` binary executes checked-in
//! [`autofl_fed::spec::ExperimentSpec`] files through the same registry
//! and prints the same comparison tables, so every figure row is
//! reproducible from a declarative JSON file; `spec_serve` runs a queue
//! of them with checkpoints.

use autofl_fed::engine::{SimConfig, SimResult};
pub use autofl_fed::policy::{run_policy, Policy, PolicyRegistry};
use rayon::prelude::*;

pub use autofl_core::policy::{standard_registry, PAPER_POLICIES};

pub mod figures;

/// Baselines only (everything except AutoFL), in reporting order.
pub const BASELINE_POLICIES: [&str; 5] = [
    "FedAvg-Random",
    "Power",
    "Performance",
    "O_participant",
    "O_FL",
];

/// Runs every `(config, policy)` pair of a sweep in parallel across the
/// pool and returns the results in input order.
///
/// Each run owns its `Simulation` and its seeds, so results are identical
/// to running the pairs sequentially — config-level fan-out is the
/// outermost (and best-scaling) parallelism the figures have.
pub fn par_sweep(runs: &[(SimConfig, &dyn Policy)]) -> Vec<SimResult> {
    runs.par_iter()
        .map(|(config, policy)| run_policy(config, *policy))
        .collect()
}

/// Best-effort peak resident-set size of this process in kB (`VmHWM`
/// from `/proc/self/status`); `None` off Linux or when unreadable.
pub fn peak_rss_kb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse::<f64>().ok()
}

/// One row of a normalised comparison table.
#[derive(Debug, Clone)]
pub struct Row {
    /// Policy label.
    pub label: String,
    /// PPW relative to the baseline.
    pub ppw_norm: f64,
    /// Convergence-time speedup relative to the baseline.
    pub conv_speedup: f64,
    /// Round the run converged, if it did.
    pub converged_round: Option<usize>,
    /// Final accuracy.
    pub accuracy: f64,
}

impl Row {
    /// Normalises a set of borrowed results against the first one
    /// (conventionally FedAvg-Random).
    pub fn normalised(results: &[&SimResult]) -> Vec<Row> {
        let base_ppw = results[0].ppw_global().max(1e-300);
        let base_time = results[0].time_to_target_s().max(1e-300);
        results
            .iter()
            .map(|r| Row {
                label: r.policy.clone(),
                ppw_norm: r.ppw_global() / base_ppw,
                conv_speedup: base_time / r.time_to_target_s().max(1e-300),
                converged_round: r.converged_round(),
                accuracy: r.final_accuracy(),
            })
            .collect()
    }
}

/// Runs a set of policies (resolved from `registry` by name) on every
/// configuration and normalises each configuration's PPW / convergence
/// time to the first name in the list (conventionally
/// `"FedAvg-Random"`). Returns one table of rows per configuration.
///
/// Every run is an independent simulation, so the whole set fans out
/// through [`par_sweep`]; normalisation happens afterwards in input order.
///
/// # Panics
///
/// Panics if a name is not registered (the figures hold their policy
/// lists as compile-time constants).
pub fn comparison(
    configs: &[SimConfig],
    registry: &PolicyRegistry,
    names: &[&str],
) -> Vec<Vec<Row>> {
    let runs: Vec<(SimConfig, &dyn Policy)> = configs
        .iter()
        .flat_map(|config| names.iter().map(|n| (config.clone(), registry.expect(n))))
        .collect();
    par_sweep(&runs)
        .chunks(names.len())
        .map(|results| Row::normalised(&results.iter().collect::<Vec<_>>()))
        .collect()
}

/// A comparison table with a title, as the figures and `spec_run` print
/// it.
pub fn rows_table(title: &str, rows: &[Row]) -> String {
    let mut out = format!(
        "\n--- {title} ---\n{:<16} {:>9} {:>12} {:>10} {:>9}\n",
        "policy", "PPW x", "conv-speed x", "converged", "accuracy"
    );
    for row in rows {
        out += &format!(
            "{:<16} {:>8.2}x {:>11.2}x {:>10} {:>8.1}%\n",
            row.label,
            row.ppw_norm,
            row.conv_speedup,
            row.converged_round
                .map(|r| r.to_string())
                .unwrap_or_else(|| "no".into()),
            row.accuracy * 100.0
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn comparison_normalises_to_first_policy() {
        let cfg = SimConfig::tiny_test(1);
        let reg = standard_registry();
        let rows = comparison(&[cfg], &reg, &["FedAvg-Random", "Performance"]).remove(0);
        assert_eq!(rows[0].ppw_norm, 1.0);
        assert_eq!(rows[0].label, "FedAvg-Random");
        assert_eq!(rows.len(), 2);
    }

    #[test]
    fn every_paper_policy_resolves_and_names() {
        let reg = standard_registry();
        for name in PAPER_POLICIES {
            let p = reg.expect(name);
            assert_eq!(p.name(), name);
            assert_eq!(p.make_selector().name(), name);
        }
        assert_eq!(&PAPER_POLICIES[..5], &BASELINE_POLICIES[..]);
    }

    #[test]
    #[should_panic(expected = "unknown policy")]
    fn unknown_names_panic_with_the_registry_contents() {
        let reg = standard_registry();
        let _ = reg.expect("NotARealPolicy");
    }
}
