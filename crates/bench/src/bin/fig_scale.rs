//! Fleet-size scaling benchmark: how fast (and how big) the simulator is
//! at N ∈ {1k, 10k, 100k, 1M} devices.
//!
//! The ROADMAP's north star is "heavy traffic from millions of users";
//! this binary is the proof and the regression guard. For every fleet
//! size it builds a Surrogate-fidelity simulation (sharded
//! structure-of-arrays stores, labels-only data), runs a fixed number of
//! FedAvg-Random rounds, and reports setup time, rounds/second and a
//! peak-RSS proxy — once on a static fleet and once with full fleet
//! dynamics (battery / thermal / churn) enabled. Rows merge into
//! `BENCH_autofl.json` next to `perf_report`'s kernel timings.
//!
//! ```sh
//! cargo run --release -p autofl-bench --bin fig_scale              # up to 1M devices
//! cargo run --release -p autofl-bench --bin fig_scale -- --smoke   # CI: up to 10k
//! cargo run --release -p autofl-bench --bin fig_scale -- --out /tmp/bench.json
//! ```
//!
//! Every run is deterministic in the seed and bit-identical at any
//! `AUTOFL_THREADS` / shard setting (the workspace contract); only the
//! wall-clock columns vary.

use autofl_bench::{merge_bench_rows, peak_rss_kb, read_bench_rows, BenchRow};
use autofl_fed::engine::Simulation;
use autofl_fed::fleet::FleetDynamics;
use autofl_fed::selection::RandomSelector;
use autofl_nn::zoo::Workload;
use std::time::Instant;

const ROUNDS: usize = 5;
/// A few samples per device keep the partition honest (non-trivial label
/// mixes) without drowning a million-device run in label storage.
const SAMPLES_PER_DEVICE: usize = 8;
/// Shard count of the sweep: enough shards that store parallelism and
/// the hierarchical aggregation tree are genuinely exercised at scale.
const SHARDS: usize = 16;

struct ScaleRow {
    bench: String,
    devices: usize,
    dynamics: bool,
    setup_ms: f64,
    rounds_ms: f64,
    rounds_per_s: f64,
    rss_kb: f64,
    final_accuracy: f64,
}

fn run_scale(devices: usize, dynamics: bool) -> ScaleRow {
    let t_setup = Instant::now();
    let mut builder = Simulation::builder(Workload::CnnMnist)
        .devices(devices)
        .shards(SHARDS)
        .samples_per_device(SAMPLES_PER_DEVICE)
        .test_samples(64)
        .max_rounds(ROUNDS)
        .target_accuracy(1.1) // never converge: fixed round count
        .seed(42);
    if dynamics {
        builder = builder.fleet_dynamics(FleetDynamics::realistic());
    }
    let mut sim = builder.build().expect("scale config is valid");
    let setup_ms = t_setup.elapsed().as_secs_f64() * 1e3;

    let mut selector = RandomSelector::new();
    let t_rounds = Instant::now();
    let mut accuracy = 0.0;
    while let Some(record) = sim.step(&mut selector) {
        let k = sim.config().params.num_participants.min(devices);
        assert!(
            !record.participants.is_empty() && record.participants.len() <= k,
            "selection must stay bounded at scale"
        );
        accuracy = record.accuracy;
    }
    let rounds_ms = t_rounds.elapsed().as_secs_f64() * 1e3;
    assert!(accuracy.is_finite() && accuracy > 0.0, "degenerate run");

    ScaleRow {
        bench: format!(
            "fleet_scale{}_n{devices}",
            if dynamics { "_dyn" } else { "" }
        ),
        devices,
        dynamics,
        setup_ms,
        rounds_ms,
        rounds_per_s: ROUNDS as f64 / (rounds_ms / 1e3).max(1e-9),
        // VmHWM is a process high-water mark: with fleet sizes swept in
        // ascending order it tracks the largest simulation so far, i.e.
        // the current one. Where /proc is unavailable, fall back to the
        // simulation's tracked per-device store bytes.
        rss_kb: peak_rss_kb().unwrap_or_else(|| sim.store_bytes() as f64 / 1024.0),
        final_accuracy: accuracy,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
        .unwrap_or("BENCH_autofl.json")
        .to_string();
    let sizes: &[usize] = if smoke {
        &[1_000, 10_000]
    } else {
        &[1_000, 10_000, 100_000, 1_000_000]
    };
    let threads = rayon::current_num_threads();

    println!(
        "== fig_scale ({}, {ROUNDS} rounds, K=20, shards={SHARDS}, {threads} threads) ==",
        if smoke { "smoke" } else { "full" }
    );
    println!(
        "{:>10} {:>9} {:>10} {:>11} {:>10} {:>12} {:>9}",
        "devices", "dynamics", "setup_ms", "rounds_ms", "rounds/s", "peakRSS_kB", "accuracy"
    );

    // A multi-threaded sweep reports measured speedup against the
    // single-thread rows already merged into the out file (the
    // computation is bit-identical, so the ratio is pure scheduling).
    let baseline = read_bench_rows(&out_path);
    let mut rows = Vec::new();
    for &n in sizes {
        for dynamics in [false, true] {
            let row = run_scale(n, dynamics);
            println!(
                "{:>10} {:>9} {:>10.1} {:>11.1} {:>10.2} {:>12.0} {:>8.1}%",
                row.devices,
                if row.dynamics { "on" } else { "off" },
                row.setup_ms,
                row.rounds_ms,
                row.rounds_per_s,
                row.rss_kb,
                row.final_accuracy * 100.0
            );
            let speedup = baseline
                .iter()
                .find(|r| r.bench == row.bench && r.threads == 1 && threads > 1)
                .map(|base| base.wall_ms / row.rounds_ms.max(1e-9))
                .unwrap_or(1.0);
            rows.push(BenchRow {
                bench: row.bench,
                threads,
                wall_ms: row.rounds_ms,
                speedup,
                rounds_per_s: row.rounds_per_s,
                peak_rss_kb: row.rss_kb,
            });
        }
    }

    merge_bench_rows(&out_path, rows).expect("write bench json");
    println!("\nmerged rows into {out_path}");
}
