//! The simulator's benchmark: four federated-learning workloads, each
//! run in its own process.
//!
//! ```sh
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! perfbench --describe        # the metric catalogue as JSON
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with no instrumentation
//! at `AUTOFL_THREADS` = the machine's parallelism. `--trace 1` repeats
//! the workload untraced and traced at 1 and 2 threads and reports the
//! per-layer metrics. Both print a human-readable table and, as the last
//! line, one JSON object `{correct, attempted, failed, metrics}`. Every
//! emitted record is checked (see `check.rs`); any violation makes the
//! process exit with code 1.

mod check;
mod probe;
mod stats;
mod trace;
mod workloads;

use check::Gate;
use probe::Layers;
use stats::{mean, median, quantile, summary};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;
use trace::{SelectLayer, SharedLog, Timed, TraceLog};
use workloads::{
    checkpoint, drive, resume, serve_resume_check, set_threads, sweep_configs, warm, Pass,
    SampleCounter, ServeTimes, Stepper, SweepStepper, Workload,
};

use autofl_bench::standard_registry;
use autofl_fed::engine::{RoundRecord, SimConfig, Simulation};
use autofl_fed::policy::Policy;
use autofl_fed::serve::ExperimentRun;

/// End-to-end metrics: `(name, unit, better)`.
const END_TO_END: [(&str, &str, &str); 6] = [
    ("rounds_per_s", "1/s", "higher"),
    ("round_ms_p50", "ms", "lower"),
    ("round_ms_p90", "ms", "lower"),
    ("sim_hours_per_s", "h/s", "higher"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
];

/// Per-layer metrics measured at 1 and at 2 threads (suffix `.t1`/`.t2`).
const PER_THREAD: [(&str, &str, &str); 30] = [
    ("device.scenario.sample_into_ms", "ms", "lower"),
    ("fed.fleet.begin_round_ms", "ms", "lower"),
    ("fed.fleet.end_round_ms", "ms", "lower"),
    ("fed.fleet.eligible_ids_ms", "ms", "lower"),
    ("fed.selection.select_ms", "ms", "lower"),
    ("fed.oracle.select_ms", "ms", "lower"),
    ("core.controller.select_ms", "ms", "lower"),
    ("core.controller.observe_ms", "ms", "lower"),
    ("core.overhead.observe_us", "us", "lower"),
    ("core.overhead.select_us", "us", "lower"),
    ("core.overhead.reward_us", "us", "lower"),
    ("core.overhead.update_us", "us", "lower"),
    ("fed.estimate.participant_costs_ms", "ms", "lower"),
    ("fed.runtime.step_ms", "ms", "lower"),
    ("fed.fabric.link_draw_us", "us", "lower"),
    ("fed.fabric.transcode_ms", "ms", "lower"),
    ("fed.algorithms.aggregate_sharded_ms", "ms", "lower"),
    ("fed.accuracy.apply_round_ms", "ms", "lower"),
    ("fed.accuracy.evaluate_ms", "ms", "lower"),
    ("nn.tensor.matmul_gflops", "GFLOP/s", "higher"),
    ("nn.layers.conv_fwd_bwd_ms", "ms", "lower"),
    ("fed.serve.snapshot_ms", "ms", "lower"),
    ("fed.serve.write_checkpoint_ms", "ms", "lower"),
    ("fed.serve.read_checkpoint_ms", "ms", "lower"),
    ("fed.serve.resume_ms", "ms", "lower"),
    ("data.generate_stats_only_ms", "ms", "lower"),
    ("fed.engine.new_ms", "ms", "lower"),
    ("fed.engine.round_ms", "ms", "lower"),
    ("fed.engine.other_ms", "ms", "lower"),
    ("bench.par_sweep.busy_frac", "ratio", "higher"),
];

/// Per-layer work counts and ratios (thread-independent).
const COUNTS: [(&str, &str, &str); 7] = [
    ("device.scenario.devices_sampled", "count", "lower"),
    ("fed.fleet.eligible_frac", "ratio", "higher"),
    ("core.qtable.bytes", "bytes", "lower"),
    ("fed.runtime.mean_staleness", "versions", "lower"),
    ("fed.fabric.bytes_uplinked", "bytes", "lower"),
    ("fed.serve.checkpoint_bytes", "bytes", "lower"),
    ("bench.tracing_overhead_frac", "ratio", "lower"),
];

const THREAD_SETTINGS: [usize; 2] = [1, 2];

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<&str, String> {
        let i = args
            .iter()
            .position(|a| a == flag)
            .ok_or(format!("missing {flag}"))?;
        args.get(i + 1)
            .map(String::as_str)
            .ok_or(format!("{flag} needs a value"))
    };
    let name = value("--workload")?;
    Ok(Args {
        workload: Workload::parse(name).ok_or(format!("unknown workload `{name}`"))?,
        seed: value("--seed")?
            .parse()
            .map_err(|e| format!("--seed: {e}"))?,
        seconds: value("--seconds")?
            .parse::<f64>()
            .ok()
            .filter(|s| s.is_finite() && *s > 0.0)
            .ok_or("--seconds must be a positive number")?,
        trace: match value("--trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, not `{other}`")),
        },
    })
}

/// One measured figure with its unit.
struct Metric {
    name: String,
    unit: &'static str,
    value: f64,
}

#[derive(Default)]
struct Report {
    metrics: Vec<Metric>,
    lines: Vec<String>,
}

impl Report {
    fn metric(&mut self, name: impl Into<String>, unit: &'static str, value: f64) {
        self.metrics.push(Metric {
            name: name.into(),
            unit,
            value,
        });
    }

    /// A table row: median, quartiles and sample count of `values`.
    fn row(&mut self, name: &str, unit: &str, values: &[f64]) {
        let s = summary(values);
        self.lines.push(format!(
            "  {name:<22} {unit:<6} median {:>12.4}  q1 {:>12.4}  q3 {:>12.4}  n {}",
            s.median, s.q1, s.q3, s.n
        ));
    }
}

fn main() -> ExitCode {
    if std::env::args().any(|a| a == "--describe") {
        println!("{}", describe());
        return ExitCode::SUCCESS;
    }
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    let scratch = PathBuf::from(".bench_run").join(format!(
        "{}-{}",
        args.workload.name(),
        std::process::id()
    ));
    if let Err(e) = std::fs::create_dir_all(&scratch) {
        eprintln!("perfbench: cannot create {}: {e}", scratch.display());
        return ExitCode::from(2);
    }
    let mut gate = Gate::default();
    let started = Instant::now();
    let report = if args.trace {
        traced(&args, &scratch, &mut gate)
    } else {
        untraced(&args, &scratch, &mut gate)
    };
    let _ = std::fs::remove_dir_all(&scratch);
    let _ = std::fs::remove_dir(".bench_run"); // only succeeds when empty

    println!(
        "== perfbench {} (seed {}, {} s, trace {}, {:.1} s total) ==",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        started.elapsed().as_secs_f64()
    );
    for line in &report.lines {
        println!("{line}");
    }
    for message in &gate.messages {
        println!("  FAILED: {message}");
    }
    let finite = report.metrics.iter().all(|m| m.value.is_finite());
    if !finite {
        for m in report.metrics.iter().filter(|m| !m.value.is_finite()) {
            println!("  FAILED: metric {} was not measured", m.name);
        }
    }
    let correct = gate.failed == 0 && gate.attempted > 0 && finite;
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, value, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        gate.attempted.max(1),
        gate.failed,
        metrics.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The metric catalogue in `BENCHMARK.json` form.
fn describe() -> String {
    let entry = |name: &str, unit: &str, better: &str| {
        format!("    {{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\"}}")
    };
    let mut per_layer = Vec::new();
    for (name, unit, better) in PER_THREAD {
        for t in THREAD_SETTINGS {
            per_layer.push(entry(&format!("{name}.t{t}"), unit, better));
        }
    }
    for (name, unit, better) in COUNTS {
        per_layer.push(entry(name, unit, better));
    }
    let end_to_end: Vec<String> = END_TO_END
        .iter()
        .map(|(name, unit, better)| entry(name, unit, better))
        .collect();
    format!(
        "{{\n  \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}",
        end_to_end.join(",\n"),
        per_layer.join(",\n")
    )
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Peak resident set of this process (`VmHWM`) in MB.
fn peak_rss_mb() -> f64 {
    autofl_bench::peak_rss_kb().map_or(f64::NAN, |kb| kb / 1024.0)
}

fn seconds_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

// ---------------------------------------------------------------------------
// Untraced run: end-to-end metrics.
// ---------------------------------------------------------------------------

fn untraced(args: &Args, scratch: &Path, gate: &mut Gate) -> Report {
    let threads = nproc();
    set_threads(threads);
    let w = args.workload;
    let registry = standard_registry();
    let mut report = Report::default();
    report.lines.push(format!(
        "  workload {} at AUTOFL_THREADS={threads}",
        w.name()
    ));
    let mut setup = Vec::new();
    let pass = if w == Workload::PaperSweep {
        let runs = sweep_configs(args.seed);
        // Six policies share each config: set-up is one simulation per
        // distinct config.
        let mut distinct: Vec<&SimConfig> = runs.iter().map(|(config, _)| config).collect();
        distinct.dedup();
        for _ in 0..w.setup_reps() {
            let t = Instant::now();
            for config in &distinct {
                std::hint::black_box(Simulation::new((*config).clone()));
            }
            setup.push(seconds_since(t));
        }
        let mut sweep = SweepStepper::new(&runs, &registry, false);
        drive(&mut [&mut sweep], args.seconds, gate);
        report.row("sweep_s", "s", &sweep.pass.sweep_s);
        sweep.pass
    } else {
        let config = w.config(args.seed);
        let policy = registry.expect(w.policy());
        let mut reference = Vec::new();
        if w == Workload::ServeAutofl10k {
            // The resume check doubles as the warm-up job and, run at one
            // thread, as the thread-invariance reference.
            set_threads(1);
            let (job, times) = serve_resume_check(&config, policy, scratch, 2, gate);
            set_threads(threads);
            let resume_s: Vec<f64> = times
                .read_ms
                .iter()
                .zip(&times.resume_ms)
                .map(|(r, s)| (r + s) / 1e3)
                .collect();
            report.row("resume_s", "s", &resume_s);
            reference = job;
        }
        let mut run = None;
        for i in 0..w.setup_reps() {
            drop(run.take());
            let t = Instant::now();
            let mut built = match ExperimentRun::new(&config, policy, None) {
                Ok(built) => built,
                Err(e) => {
                    gate.fail(format!("ExperimentRun::new: {e}"));
                    return report;
                }
            };
            setup.push(seconds_since(t));
            if i == 0 && w != Workload::ServeAutofl10k {
                // Thread-invariance reference: the first records at 1 thread.
                set_threads(1);
                reference = warm(&mut built, w.reference_records(), gate);
                set_threads(threads);
            }
            run = Some(built);
        }
        let mut run = run.expect("at least one set-up repetition");
        let mut trace = warm(&mut run, w.warmup_records(), gate);
        let counter = (w == Workload::RealtrainCnn).then(|| SampleCounter::new(&config));
        let mut stepper = Stepper::new(w, &config, policy, run, scratch, counter.as_ref());
        drive(&mut [&mut stepper], args.seconds, gate);
        let (pass, _) = stepper.finish();
        trace.extend(&pass.digests);
        gate.same_prefix(
            "threads-1 reference vs measured run",
            &reference,
            &trace,
            w.reference_records(),
        );
        if counter.is_some() {
            report.row("train_samples_per_s", "1/s", &pass.train_samples_per_s());
        }
        pass
    };
    end_to_end(&mut report, &pass, &setup);
    report.row(
        "failed_frac",
        "ratio",
        &[gate.failed as f64 / gate.attempted.max(1) as f64],
    );
    report
}

fn end_to_end(report: &mut Report, pass: &Pass, setup: &[f64]) {
    let rps = pass.rounds_per_s();
    let hps = pass.sim_hours_per_s();
    report.row("rounds_per_s", "1/s", &rps);
    report.row("round_ms", "ms", &pass.round_ms);
    report.lines.push(format!(
        "  {:<22} {:<6} {:>19.4}  (n {})",
        "round_ms_p90",
        "ms",
        quantile(&pass.round_ms, 0.9),
        pass.round_ms.len()
    ));
    report.row("sim_hours_per_s", "h/s", &hps);
    report.row("setup_s", "s", setup);
    let rss = peak_rss_mb();
    report.row("peak_rss_mb", "MB", &[rss]);
    report.metric("rounds_per_s", "1/s", median(&rps));
    report.metric("round_ms_p50", "ms", quantile(&pass.round_ms, 0.5));
    report.metric("round_ms_p90", "ms", quantile(&pass.round_ms, 0.9));
    report.metric("sim_hours_per_s", "h/s", median(&hps));
    report.metric("setup_s", "s", median(setup));
    report.metric("peak_rss_mb", "MB", rss);
}

// ---------------------------------------------------------------------------
// Traced run: per-layer metrics at 1 and 2 threads.
// ---------------------------------------------------------------------------

/// What one traced pass at one thread count produced.
struct Traced {
    threads: usize,
    pass: Pass,
    log: TraceLog,
    serve: ServeTimes,
    layers: Layers,
}

fn traced(args: &Args, scratch: &Path, gate: &mut Gate) -> Report {
    let w = args.workload;
    let registry = standard_registry();
    // One third of the budget traced at 1 thread; two thirds at 2 threads,
    // split evenly between an untraced and a traced run taking turns.
    let budget = args.seconds / 3.0;
    let mut phases: Vec<String> = Vec::new();
    let mut phase =
        |name: &str, t: Instant| phases.push(format!("{name} {:.2} s", seconds_since(t)));
    let (untraced, traced) = if w == Workload::PaperSweep {
        let runs = sweep_configs(args.seed);
        let t = Instant::now();
        set_threads(1);
        let mut t1 = SweepStepper::new(&runs, &registry, true);
        drive(&mut [&mut t1], budget, gate);
        phase("traced sweeps at 1 thread", t);
        let t = Instant::now();
        set_threads(2);
        let mut bare = SweepStepper::new(&runs, &registry, false);
        let mut t2 = SweepStepper::new(&runs, &registry, true);
        drive(&mut [&mut bare, &mut t2], budget, gate);
        phase("untraced and traced sweeps at 2 threads", t);
        // Probes and the serve calls run on the sweep's first config
        // under the learned policy.
        let config = runs[0].0.clone();
        let policy = registry.expect("AutoFL");
        let mut traced = Vec::new();
        for (threads, stepper) in [(1, t1), (2, t2)] {
            let t = Instant::now();
            set_threads(threads);
            gate.same_prefix(
                &format!("traced threads-{threads} sweep vs untraced sweep"),
                &stepper.pass.digests,
                &bare.pass.digests,
                runs.len(),
            );
            let serve = serve_probe(&config, policy, scratch, gate);
            let layers = probe_at(&config, None);
            let log = std::mem::take(&mut *stepper.log.lock().expect("trace log"));
            traced.push(Traced {
                threads,
                pass: stepper.pass,
                log,
                serve,
                layers,
            });
            phase(
                &format!("serve calls and layer probes at {threads} threads"),
                t,
            );
        }
        (bare.pass, traced)
    } else {
        let config = w.config(args.seed);
        let policy = registry.expect(w.policy());
        let counter = (w == Workload::RealtrainCnn).then(|| SampleCounter::new(&config));
        let counter = counter.as_ref();
        let t = Instant::now();
        set_threads(1);
        let log1 = SharedLog::default();
        let timed1 = Timed::new(policy, log1.clone(), true);
        let Some((mut s1, warm1)) = start(w, &config, &timed1, scratch, counter, gate) else {
            return Report::default();
        };
        drive(&mut [&mut s1], budget, gate);
        phase("traced run at 1 thread", t);
        let t = Instant::now();
        let t1 = finish_traced(1, s1, warm1, &log1, &config, &timed1, scratch, gate);
        phase("serve calls and layer probes at 1 thread", t);

        let t = Instant::now();
        set_threads(2);
        let log2 = SharedLog::default();
        let timed2 = Timed::new(policy, log2.clone(), true);
        let Some((mut s0, warm0)) = start(w, &config, policy, scratch, counter, gate) else {
            return Report::default();
        };
        let Some((mut s2, warm2)) = start(w, &config, &timed2, scratch, counter, gate) else {
            return Report::default();
        };
        drive(&mut [&mut s0, &mut s2], budget, gate);
        let (mut untraced, run0) = s0.finish();
        drop(run0);
        untraced.digests = [warm0, untraced.digests].concat();
        phase("untraced and traced runs at 2 threads", t);
        let t = Instant::now();
        let t2 = finish_traced(2, s2, warm2, &log2, &config, &timed2, scratch, gate);
        phase("serve calls and layer probes at 2 threads", t);
        for t in [&t1, &t2] {
            gate.same_prefix(
                &format!("traced threads-{} run vs untraced run", t.threads),
                &t.pass.digests,
                &untraced.digests,
                w.reference_records(),
            );
        }
        (untraced, vec![t1, t2])
    };
    let mut report = per_layer(w, args.seed, &untraced, &traced);
    report
        .lines
        .push(format!("  phases: {}", phases.join(", ")));
    report.lines.push(format!(
        "  peak RSS of the traced run: {:.1} MB",
        peak_rss_mb()
    ));
    report
}

/// Builds and warms up a run of `config` under `policy` and wraps it in a
/// stepper; also returns the warm-up records' digests.
fn start<'p, 'c>(
    w: Workload,
    config: &'c SimConfig,
    policy: &'p dyn Policy,
    scratch: &Path,
    counter: Option<&'c SampleCounter>,
    gate: &mut Gate,
) -> Option<(Stepper<'p, 'c>, Vec<u64>)> {
    let mut run = match ExperimentRun::new(config, policy, None) {
        Ok(run) => run,
        Err(e) => {
            gate.fail(format!("ExperimentRun::new: {e}"));
            return None;
        }
    };
    let digests = warm(&mut run, w.warmup_records(), gate);
    Some((
        Stepper::new(w, config, policy, run, scratch, counter),
        digests,
    ))
}

/// Closes a traced pass: checkpoints the final run, drops it, reads the
/// checkpoint back and resumes it (the serve calls at the workload's own
/// size), then probes every layer at the same thread count.
#[allow(clippy::too_many_arguments)]
fn finish_traced(
    threads: usize,
    stepper: Stepper<'_, '_>,
    warm: Vec<u64>,
    log: &SharedLog,
    config: &SimConfig,
    policy: &dyn Policy,
    scratch: &Path,
    gate: &mut Gate,
) -> Traced {
    let (mut pass, run) = stepper.finish();
    pass.digests = [warm, std::mem::take(&mut pass.digests)].concat();
    let mut serve = std::mem::take(&mut pass.serve);
    let path = scratch.join("probe.ckpt.json");
    checkpoint(&run, &path, &mut serve, gate);
    drop(run);
    if let Some(mut resumed) = resume(config, policy, &path, &mut serve, gate) {
        if let Err(e) = resumed.step() {
            gate.fail(format!("step after resume: {e}"));
        }
    }
    let layers = probe_at(config, pass.last.as_ref());
    let log = std::mem::take(&mut *log.lock().expect("trace log"));
    Traced {
        threads,
        pass,
        log,
        serve,
        layers,
    }
}

/// The serve calls on a short run of `config`: step, checkpoint, read
/// back, resume, step again.
fn serve_probe(
    config: &SimConfig,
    policy: &dyn Policy,
    scratch: &Path,
    gate: &mut Gate,
) -> ServeTimes {
    let mut times = ServeTimes::default();
    let path = scratch.join("probe.ckpt.json");
    for _ in 0..3 {
        let Ok(mut run) = ExperimentRun::new(config, policy, None) else {
            gate.fail("serve probe: config rejected".into());
            return times;
        };
        let t = Instant::now();
        let stepped = warm(&mut run, 20, gate).len();
        times
            .step_ms
            .push(seconds_since(t) * 1e3 / stepped.max(1) as f64);
        checkpoint(&run, &path, &mut times, gate);
        drop(run);
        if let Some(mut resumed) = resume(config, policy, &path, &mut times, gate) {
            let _ = warm(&mut resumed, 1, gate);
        }
    }
    times
}

/// Builds the workload's simulation (timed) and probes every layer on it.
fn probe_at(config: &SimConfig, cohort: Option<&RoundRecord>) -> Layers {
    let t = Instant::now();
    let sim = Simulation::new(config.clone());
    let setup_ms = seconds_since(t) * 1e3;
    probe::probe(config, &sim, setup_ms, cohort)
}

fn per_layer(w: Workload, seed: u64, untraced: &Pass, runs: &[Traced]) -> Report {
    let mut report = Report::default();
    let config = w.config(seed);
    let sweep = w == Workload::PaperSweep;
    for t in runs {
        let name = |base: &str| format!("{base}.t{}", t.threads);
        let layers = &t.layers;
        let log = &t.log;
        let from_log = |acc: &trace::Acc, fallback: f64| acc.mean_ms().unwrap_or(fallback);
        let sel = SelectLayer::Selection as usize;
        let ora = SelectLayer::Oracle as usize;
        let ctl = SelectLayer::Controller as usize;
        let mut values: Vec<(String, f64)> = Vec::new();
        for key in [
            "device.scenario.sample_into_ms",
            "fed.fleet.begin_round_ms",
            "fed.fleet.end_round_ms",
            "fed.fleet.eligible_ids_ms",
            "fed.estimate.participant_costs_ms",
            "fed.fabric.link_draw_us",
            "fed.fabric.transcode_ms",
            "fed.algorithms.aggregate_sharded_ms",
            "fed.accuracy.apply_round_ms",
            "fed.accuracy.evaluate_ms",
            "nn.tensor.matmul_gflops",
            "nn.layers.conv_fwd_bwd_ms",
            "data.generate_stats_only_ms",
            "fed.engine.new_ms",
        ] {
            values.push((name(key), layers.time(key)));
        }
        values.push((
            name("fed.selection.select_ms"),
            from_log(&log.select[sel], layers.time("fed.selection.select_ms")),
        ));
        values.push((
            name("fed.oracle.select_ms"),
            from_log(&log.select[ora], layers.time("fed.oracle.select_ms")),
        ));
        values.push((
            name("core.controller.select_ms"),
            from_log(&log.select[ctl], layers.time("core.controller.select_ms")),
        ));
        values.push((
            name("core.controller.observe_ms"),
            from_log(&log.observe[ctl], layers.time("core.controller.observe_ms")),
        ));
        let overhead = log.overhead_per_round_us().unwrap_or([
            layers.time("core.overhead.observe_us"),
            layers.time("core.overhead.select_us"),
            layers.time("core.overhead.reward_us"),
            layers.time("core.overhead.update_us"),
        ]);
        for (phase, us) in ["observe", "select", "reward", "update"]
            .iter()
            .zip(overhead)
        {
            values.push((name(&format!("core.overhead.{phase}_us")), us));
        }
        let serve_ms = |v: &[f64]| median(v);
        values.push((
            name("fed.serve.snapshot_ms"),
            serve_ms(&t.serve.snapshot_ms),
        ));
        values.push((
            name("fed.serve.write_checkpoint_ms"),
            serve_ms(&t.serve.write_ms),
        ));
        values.push((
            name("fed.serve.read_checkpoint_ms"),
            serve_ms(&t.serve.read_ms),
        ));
        values.push((name("fed.serve.resume_ms"), serve_ms(&t.serve.resume_ms)));

        // Round time and where it goes. The driver's mean time per record
        // minus every layer the record's round runs through leaves the
        // engine's own bookkeeping (idle energy, straggler handling,
        // record assembly) as `other`.
        let select_total: f64 = log.select.iter().map(|a| a.total_s).sum::<f64>() * 1e3;
        let observe_total: f64 = log.observe.iter().map(|a| a.total_s).sum::<f64>() * 1e3;
        // Busy fraction: on paper_sweep, how much of the pool's capacity
        // whole runs (set-up included) kept busy; elsewhere, the share of
        // the driver's time spent stepping rather than checkpointing.
        let (rounds, round_ms, step_ms, busy_frac) = if sweep {
            let rounds = log.runs.iter().map(|s| s.rounds).sum::<usize>().max(1) as f64;
            let span_s: f64 = log.runs.iter().map(|s| s.seconds).sum();
            let whole_s: f64 = log.runs.iter().map(|s| s.whole_seconds).sum();
            (
                rounds,
                span_s * 1e3 / rounds,
                mean(&t.serve.step_ms),
                whole_s / (t.threads as f64 * t.pass.busy_s),
            )
        } else {
            let step = mean(&t.pass.step_ms);
            (
                t.pass.records.max(1) as f64,
                step,
                step,
                t.pass.step_ms.iter().sum::<f64>() / 1e3 / t.pass.busy_s,
            )
        };
        let mut parts = Vec::new();
        parts.push((
            "device.scenario.sample_into_ms",
            layers.time("device.scenario.sample_into_ms"),
        ));
        if config.fleet.is_some() && !sweep {
            parts.push((
                "fed.fleet.begin_round_ms",
                layers.time("fed.fleet.begin_round_ms"),
            ));
            parts.push((
                "fed.fleet.end_round_ms",
                layers.time("fed.fleet.end_round_ms"),
            ));
        }
        parts.push(("select (traced)", select_total / rounds));
        parts.push(("observe (traced)", observe_total / rounds));
        parts.push((
            "fed.estimate.participant_costs_ms",
            layers.time("fed.estimate.participant_costs_ms"),
        ));
        if config.network.is_some() && !sweep {
            parts.push((
                "fed.fabric.link_draw_us (cohort)",
                layers.time("fed.fabric.link_draw_us") * config.params.num_participants as f64
                    / 1e3,
            ));
        }
        parts.push((
            "fed.accuracy.apply_round_ms",
            layers.time("fed.accuracy.apply_round_ms"),
        ));
        let accounted: f64 = parts.iter().map(|(_, v)| v).sum();
        values.push((name("fed.runtime.step_ms"), step_ms));
        values.push((name("fed.engine.round_ms"), round_ms));
        values.push((name("fed.engine.other_ms"), round_ms - accounted));
        values.push((name("bench.par_sweep.busy_frac"), busy_frac));

        report.lines.push(format!(
            "  threads {}: round {:.4} ms = {} + other {:.4} ms",
            t.threads,
            round_ms,
            parts
                .iter()
                .map(|(k, v)| format!("{k} {v:.4}"))
                .collect::<Vec<_>>()
                .join(" + "),
            round_ms - accounted
        ));
        for (key, value) in values {
            let unit = unit_of(&key);
            report
                .lines
                .push(format!("  {key:<44} {value:>14.6} {unit}"));
            report.metric(key, unit, value);
        }
    }

    // Thread-independent counts, from the 2-thread pass.
    let last = runs.last().expect("two traced passes");
    let untraced_rps = median(&untraced.rounds_per_s());
    let traced_rps = median(&last.pass.rounds_per_s());
    let counts = [
        (
            "device.scenario.devices_sampled",
            last.layers.count("device.scenario.devices_sampled"),
        ),
        (
            "fed.fleet.eligible_frac",
            last.layers.count("fed.fleet.eligible_frac"),
        ),
        (
            "core.qtable.bytes",
            if last.log.qtable_bytes > 0 {
                last.log.qtable_bytes as f64
            } else {
                last.layers.count("core.qtable.bytes")
            },
        ),
        ("fed.runtime.mean_staleness", mean(&last.pass.staleness)),
        ("fed.fabric.bytes_uplinked", mean(&last.pass.bytes_uplinked)),
        ("fed.serve.checkpoint_bytes", median(&last.serve.bytes)),
        (
            "bench.tracing_overhead_frac",
            1.0 - traced_rps / untraced_rps,
        ),
    ];
    report.lines.push(format!(
        "  tracing overhead: traced {traced_rps:.4} rounds/s vs untraced {untraced_rps:.4} rounds/s at 2 threads"
    ));
    for (key, value) in counts {
        let unit = unit_of(key);
        report
            .lines
            .push(format!("  {key:<44} {value:>14.6} {unit}"));
        report.metric(key, unit, value);
    }
    report
}

fn unit_of(name: &str) -> &'static str {
    let base = name.trim_end_matches(".t1").trim_end_matches(".t2");
    PER_THREAD
        .iter()
        .chain(COUNTS.iter())
        .find(|(n, _, _)| *n == base)
        .map_or("?", |(_, unit, _)| unit)
}
