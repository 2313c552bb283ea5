//! Performance trajectory report: times the workspace's hot paths —
//! matmul/conv kernels, one surrogate round, one real-training round and a
//! multi-config policy sweep — at `AUTOFL_THREADS = 1` and `= N` (machine
//! parallelism), and writes the results to `BENCH_autofl.json` so the
//! perf trend is tracked across PRs.
//!
//! ```sh
//! cargo run --release -p autofl-bench --bin perf_report            # full sizes
//! cargo run --release -p autofl-bench --bin perf_report -- --smoke # CI sizes
//! ```
//!
//! Every benchmark is bit-deterministic in its seed at any thread count
//! (the workspace's parallel-runtime contract), so the two thread
//! settings time *identical* computations: `speedup` is a pure scheduling
//! ratio, `wall_ms(threads=1) / wall_ms(threads=N)`.

use autofl_bench::{merge_bench_rows, par_sweep, peak_rss_kb, standard_registry, BenchRow, Policy};
use autofl_fed::engine::{Fidelity, SimConfig, Simulation};
use autofl_fed::selection::RandomSelector;
use autofl_nn::layers::{Conv2d, Layer};
use autofl_nn::tensor::Tensor;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

fn pseudo_tensor(shape: Vec<usize>, rng: &mut SmallRng) -> Tensor {
    let n: usize = shape.iter().product();
    Tensor::from_vec(shape, (0..n).map(|_| rng.gen::<f32>() - 0.5).collect())
}

fn time_ms(mut f: impl FnMut()) -> f64 {
    let t = Instant::now();
    f();
    t.elapsed().as_secs_f64() * 1e3
}

/// Each benchmark returns `(wall_ms, rounds)`; `rounds` is zero for
/// kernel microbenchmarks where "rounds per second" is meaningless.
fn bench_matmul(smoke: bool) -> (f64, usize) {
    let dim = if smoke { 192 } else { 384 };
    let iters = if smoke { 4 } else { 10 };
    let mut rng = SmallRng::seed_from_u64(1);
    let a = pseudo_tensor(vec![dim, dim], &mut rng);
    let b = pseudo_tensor(vec![dim, dim], &mut rng);
    let mut out = Tensor::zeros(vec![0]);
    let mut sink = 0.0f32;
    let ms = time_ms(|| {
        for _ in 0..iters {
            a.matmul_into(&b, &mut out);
            a.matmul_tn_into(&b, &mut out);
            a.matmul_nt_into(&b, &mut out);
            sink += out.data()[0];
        }
    });
    assert!(sink.is_finite());
    (ms, 0)
}

fn bench_conv(smoke: bool) -> (f64, usize) {
    let (batch, hw) = if smoke { (4, 16) } else { (8, 24) };
    let iters = if smoke { 4 } else { 10 };
    let mut rng = SmallRng::seed_from_u64(2);
    let mut conv = Conv2d::new(8, 16, 3, 1, 1, &mut rng);
    let x = pseudo_tensor(vec![batch, 8, hw, hw], &mut rng);
    let ms = time_ms(|| {
        for _ in 0..iters {
            let y = conv.forward(&x, true);
            let _ = conv.backward(&y);
        }
    });
    (ms, 0)
}

fn bench_surrogate_round(smoke: bool) -> (f64, usize) {
    let rounds = if smoke { 60 } else { 250 };
    let mut cfg = SimConfig::smoke(7);
    cfg.max_rounds = rounds;
    cfg.target_accuracy = Some(1.1); // never converge: fixed round count
    let mut sim = Simulation::new(cfg);
    let mut sel = RandomSelector::new();
    let ms = time_ms(|| while sim.step(&mut sel).is_some() {});
    (ms, rounds)
}

fn bench_real_training_round(smoke: bool) -> (f64, usize) {
    let rounds = if smoke { 2 } else { 5 };
    let mut cfg = SimConfig::tiny_test(7);
    cfg.fidelity = Fidelity::RealTraining {
        lr: 0.08,
        eval_samples: 48,
    };
    cfg.max_rounds = rounds;
    cfg.target_accuracy = Some(1.1);
    let mut sim = Simulation::new(cfg);
    let mut sel = RandomSelector::new();
    let ms = time_ms(|| while sim.step(&mut sel).is_some() {});
    (ms, rounds)
}

fn bench_scale_10k(smoke: bool) -> (f64, usize) {
    // The fleet-size axis at a CI-friendly point: 10k devices, sharded
    // stores, labels-only surrogate data, full fleet dynamics. The
    // deeper sweep (up to 1M devices) lives in the `fig_scale` binary.
    let rounds = if smoke { 3 } else { 5 };
    let mut sim = Simulation::builder(autofl_nn::zoo::Workload::CnnMnist)
        .devices(10_000)
        .shards(16)
        .samples_per_device(8)
        .test_samples(64)
        .max_rounds(rounds)
        .target_accuracy(1.1)
        .fleet_dynamics(autofl_fed::fleet::FleetDynamics::realistic())
        .seed(42)
        .build()
        .expect("10k scale config is valid");
    let mut sel = RandomSelector::new();
    let ms = time_ms(|| while sim.step(&mut sel).is_some() {});
    (ms, rounds)
}

fn bench_sweep(smoke: bool) -> (f64, usize) {
    // Config-level fan-out: the sweep dimension the fig binaries scale
    // along. Every (config, policy) pair is an independent simulation.
    let seeds: &[u64] = if smoke {
        &[1, 2, 3, 4]
    } else {
        &[1, 2, 3, 4, 5, 6, 7, 8]
    };
    let registry = standard_registry();
    let mut runs: Vec<(SimConfig, &dyn Policy)> = Vec::new();
    for &seed in seeds {
        let mut cfg = SimConfig::smoke(seed);
        if smoke {
            cfg.max_rounds = 120;
        }
        runs.push((cfg.clone(), registry.expect("FedAvg-Random")));
        runs.push((cfg, registry.expect("Performance")));
    }
    let ms = time_ms(|| {
        let results = par_sweep(&runs);
        assert_eq!(results.len(), runs.len());
    });
    (ms, 0)
}

type BenchFn = fn(bool) -> (f64, usize);

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
    let max_threads = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);

    let benches: Vec<(&'static str, BenchFn)> = vec![
        ("matmul_kernels", bench_matmul),
        ("conv_fwd_bwd", bench_conv),
        ("surrogate_rounds", bench_surrogate_round),
        ("real_training_rounds", bench_real_training_round),
        ("multi_config_sweep", bench_sweep),
        ("fleet_scale_10k_rounds", bench_scale_10k),
    ];

    println!(
        "== perf_report ({}, {} hw threads) ==",
        if smoke { "smoke" } else { "full" },
        max_threads
    );
    println!(
        "{:<22} {:>8} {:>12} {:>9}",
        "bench", "threads", "wall_ms", "speedup"
    );

    let prev = std::env::var("AUTOFL_THREADS").ok();
    let mut rows: Vec<BenchRow> = Vec::new();
    for (name, f) in &benches {
        let mut base_ms = 0.0;
        for &threads in &[1usize, max_threads] {
            std::env::set_var("AUTOFL_THREADS", threads.to_string());
            rayon::refresh_thread_count();
            // One untimed warm-up pass amortises pool spawn and allocator
            // warm-up out of the measurement.
            let _ = f(smoke);
            let (wall_ms, rounds) = f(smoke);
            if threads == 1 {
                base_ms = wall_ms;
            }
            let speedup = if wall_ms > 0.0 {
                base_ms / wall_ms
            } else {
                1.0
            };
            println!("{name:<22} {threads:>8} {wall_ms:>12.2} {speedup:>8.2}x");
            rows.push(BenchRow {
                bench: name.to_string(),
                threads,
                wall_ms,
                speedup,
                rounds_per_s: if rounds > 0 {
                    rounds as f64 / (wall_ms / 1e3).max(1e-9)
                } else {
                    0.0
                },
                peak_rss_kb: peak_rss_kb().unwrap_or(0.0),
            });
            if max_threads == 1 {
                break; // threads=1 and threads=N are the same measurement
            }
        }
    }
    match prev {
        Some(v) => std::env::set_var("AUTOFL_THREADS", v),
        None => std::env::remove_var("AUTOFL_THREADS"),
    }
    rayon::refresh_thread_count();

    // Merge rather than overwrite: `fig_scale` rows in the same file
    // survive a perf_report refresh (and vice versa).
    merge_bench_rows(&out_path, rows).expect("write bench json");
    println!("\nmerged rows into {out_path}");
}
