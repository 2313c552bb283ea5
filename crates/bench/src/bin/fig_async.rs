//! Async-runtime study: buffered staleness-weighted aggregation versus
//! the full barrier, swept over buffer size × staleness exponent.
//!
//! For every grid cell the binary runs the event-driven runtime
//! (`autofl_fed::runtime`) on a fleet with full dynamics enabled and
//! reports accuracy, mean staleness, the logical clock the simulated
//! federation consumed, and throughput in **simulated hours per
//! wall-clock second** — the figure of merit for a discrete-event
//! scheduler (how much fleet time one second of simulation buys).
//!
//! The `barrier` row is the control: the event scheduler with a full
//! barrier is synchronous lockstep FedAvg, the default driver (see
//! `docs/async-runtime.md`), so every difference in the buffered rows is
//! attributable to the buffer/staleness knobs, not to the scheduler.
//!
//! ```sh
//! cargo run --release -p autofl-bench --bin fig_async              # 10k devices
//! cargo run --release -p autofl-bench --bin fig_async -- --smoke   # CI: 40 devices
//! ```
//!
//! Runs are deterministic in the seed; only the wall-clock columns vary.

use autofl_fed::engine::{SimConfig, Simulation};
use autofl_fed::fleet::FleetDynamics;
use autofl_fed::runtime::AsyncRuntime;
use autofl_fed::selection::RandomSelector;
use autofl_nn::zoo::Workload;
use std::time::Instant;

/// How many model versions ahead the dispatcher may run in buffered
/// mode. Two concurrent cohorts already produce cross-cohort staleness;
/// deeper pipelines mostly add noise at this scale.
const COHORTS: usize = 2;

fn base_config(smoke: bool) -> SimConfig {
    if smoke {
        let mut cfg = SimConfig::smoke(42);
        cfg.scenario = autofl_device::scenario::VarianceScenario::realistic();
        cfg.max_rounds = 40;
        cfg.target_accuracy = Some(1.1); // fixed horizon: aligned rows
        cfg.fleet = Some(FleetDynamics::realistic());
        cfg
    } else {
        Simulation::builder(Workload::CnnMnist)
            .devices(10_000)
            .shards(16)
            .scenario(autofl_device::scenario::VarianceScenario::realistic())
            .samples_per_device(8)
            .test_samples(64)
            .max_rounds(40)
            .target_accuracy(1.1)
            .fleet_dynamics(FleetDynamics::realistic())
            .seed(42)
            .build_config()
            .expect("async sweep config is valid")
    }
}

struct Cell {
    label: String,
    exponent: f64,
    rounds: usize,
    accuracy: f64,
    mean_staleness: f64,
    logical_hours: f64,
    wall_s: f64,
}

fn run_cell(base: &SimConfig, runtime: AsyncRuntime, label: &str) -> Cell {
    let mut cfg = base.clone();
    cfg.runtime = Some(runtime);
    let mut sim = Simulation::new(cfg);
    let t = Instant::now();
    let result = sim.run(&mut RandomSelector::new());
    let wall_s = t.elapsed().as_secs_f64();
    let last = result.records.last().expect("sweep runs at least a round");
    let mean_staleness =
        result.records.iter().map(|r| r.mean_staleness).sum::<f64>() / result.records.len() as f64;
    Cell {
        label: label.to_string(),
        exponent: runtime.staleness_exponent,
        rounds: result.records.len(),
        accuracy: result.final_accuracy(),
        mean_staleness,
        logical_hours: last.logical_time_s / 3600.0,
        wall_s,
    }
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let base = base_config(smoke);
    let k = base.params.num_participants;
    // Buffer sizes as fractions of the cohort size K: flushing every K/4
    // uploads is the "very async" end, flushing at K approaches (but does
    // not reach) the barrier because cohorts still overlap.
    let buffers: Vec<usize> = if smoke {
        vec![(k / 4).max(1)]
    } else {
        vec![(k / 4).max(1), (k / 2).max(1), k.max(1)]
    };
    let exponents: &[f64] = if smoke { &[0.0, 1.0] } else { &[0.0, 0.5, 1.0] };

    println!(
        "== fig_async ({}, {} devices, K={k}, {} rounds, dynamics on) ==",
        if smoke { "smoke" } else { "full" },
        base.num_devices,
        base.max_rounds,
    );
    println!(
        "{:<14} {:>5} {:>7} {:>9} {:>11} {:>11} {:>8} {:>12}",
        "runtime", "exp", "rounds", "accuracy", "staleness", "sim-hours", "wall-s", "sim-h/s"
    );

    let mut cells = vec![run_cell(&base, AsyncRuntime::barrier(), "barrier")];
    for &m in &buffers {
        for &a in exponents {
            let rt = AsyncRuntime::buffered(m, a).concurrent_cohorts(COHORTS);
            cells.push(run_cell(&base, rt, &format!("buffered M={m}")));
        }
    }

    for cell in &cells {
        let sim_hours_per_s = cell.logical_hours / cell.wall_s.max(1e-9);
        println!(
            "{:<14} {:>5.1} {:>7} {:>8.1}% {:>11.2} {:>11.2} {:>8.2} {:>12.1}",
            cell.label,
            cell.exponent,
            cell.rounds,
            cell.accuracy * 100.0,
            cell.mean_staleness,
            cell.logical_hours,
            cell.wall_s,
            sim_hours_per_s,
        );
        assert!(
            cell.accuracy.is_finite() && cell.accuracy > 0.0,
            "degenerate run in cell {}",
            cell.label
        );
    }

    println!(
        "\nSmaller buffers aggregate sooner (higher round throughput, more \
         staleness); the exponent discounts stale updates back toward the \
         barrier trajectory."
    );
}
