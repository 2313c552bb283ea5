//! The four workloads: their generated configurations and the drivers
//! that run them for a time budget.

use crate::check::{check_record, digest, Gate};
use crate::trace::{SharedLog, Timed};
use autofl_bench::{par_sweep, PAPER_POLICIES};
use autofl_data::partition::DataDistribution;
use autofl_data::FlData;
use autofl_device::scenario::VarianceScenario;
use autofl_fed::engine::{Fidelity, RoundRecord, SimConfig, SimResult, Simulation};
use autofl_fed::fabric::{CodecSpec, LinkModel, NetworkFabric};
use autofl_fed::fleet::{FleetDynamics, StragglerPolicy};
use autofl_fed::global::GlobalParams;
use autofl_fed::policy::{Policy, PolicyRegistry};
use autofl_fed::runtime::AsyncRuntime;
use autofl_fed::serve::{read_checkpoint, write_checkpoint, ExperimentRun};
use autofl_nn::zoo::Workload as Model;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Records per `serve_autofl_10k` job; every job is a fresh
/// `ExperimentRun` of the same spec, so every job costs the same. Long
/// enough that most records come after the controller's warm-up ramp.
pub const SERVE_JOB_RECORDS: usize = 100;
/// A full checkpoint after every this many records of a job.
pub const SERVE_CHECKPOINT_EVERY: usize = 100;
/// The record after which the resume check checkpoints its job and later
/// restarts it from disk.
pub const SERVE_RESUME_AT: usize = 50;
/// Records per throughput block on the lockstep workloads.
const BLOCK_RECORDS: usize = 10;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Fleet1mDyn,
    ServeAutofl10k,
    RealtrainCnn,
    PaperSweep,
}

pub const ALL: [Workload; 4] = [
    Workload::Fleet1mDyn,
    Workload::ServeAutofl10k,
    Workload::RealtrainCnn,
    Workload::PaperSweep,
];

impl Workload {
    pub fn name(self) -> &'static str {
        match self {
            Workload::Fleet1mDyn => "fleet_1m_dyn",
            Workload::ServeAutofl10k => "serve_autofl_10k",
            Workload::RealtrainCnn => "realtrain_cnn",
            Workload::PaperSweep => "paper_sweep",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        ALL.into_iter().find(|w| w.name() == name)
    }

    /// Registry name of the policy a single-run workload drives.
    pub fn policy(self) -> &'static str {
        match self {
            Workload::ServeAutofl10k => "AutoFL",
            _ => "FedAvg-Random",
        }
    }

    /// Untimed records stepped before the clock starts (caches, lazily
    /// sized stores, the first Q-table rows).
    pub fn warmup_records(self) -> usize {
        match self {
            Workload::Fleet1mDyn => 3,
            Workload::RealtrainCnn => 5,
            // Serve warms up on the resume-check job; paper_sweep on
            // nothing (every run builds its own simulation).
            Workload::ServeAutofl10k | Workload::PaperSweep => 0,
        }
    }

    /// Records compared between a threads-1 run and the threads-N run.
    pub fn reference_records(self) -> usize {
        match self {
            Workload::Fleet1mDyn => 5,
            Workload::ServeAutofl10k => SERVE_JOB_RECORDS,
            Workload::RealtrainCnn => 20,
            Workload::PaperSweep => 0,
        }
    }

    /// Set-up repetitions per run; `setup_s` is their median.
    pub fn setup_reps(self) -> usize {
        match self {
            Workload::Fleet1mDyn => 3,
            Workload::PaperSweep => 5,
            Workload::ServeAutofl10k | Workload::RealtrainCnn => 25,
        }
    }

    /// The configuration of a single-run workload, generated from `seed`.
    pub fn config(self, seed: u64) -> SimConfig {
        let builder = match self {
            Workload::Fleet1mDyn => Simulation::builder(Model::CnnMnist)
                .devices(1_000_000)
                .shards(16)
                .samples_per_device(8)
                .test_samples(64)
                .fleet_dynamics(FleetDynamics::realistic())
                .max_rounds(1_000_000),
            Workload::ServeAutofl10k => Simulation::builder(Model::CnnMnist)
                .devices(10_000)
                .shards(16)
                .samples_per_device(8)
                .test_samples(64)
                .scenario(VarianceScenario::realistic())
                .fleet_dynamics(FleetDynamics::realistic())
                .runtime(AsyncRuntime::buffered(10, 0.5).concurrent_cohorts(2))
                .network(
                    NetworkFabric::new(LinkModel::realistic())
                        .with_codec(CodecSpec::TopK { k_frac: 0.1 }),
                )
                .max_rounds(SERVE_JOB_RECORDS),
            Workload::RealtrainCnn => Simulation::builder(Model::CnnMnist)
                .devices(100)
                .shards(4)
                .params(GlobalParams::new(16, 1, 10))
                // No straggler is cut, so every round trains all K
                // clients: the same SGD work per round at every seed.
                .straggler_deadline_factor(1e6)
                .samples_per_device(60)
                .test_samples(256)
                .distribution(DataDistribution::non_iid_percent(50))
                .fidelity(Fidelity::RealTraining {
                    lr: 0.08,
                    eval_samples: 256,
                })
                .network(NetworkFabric::ideal().with_codec(CodecSpec::Int8Quant))
                .max_rounds(1_000_000),
            Workload::PaperSweep => return sweep_configs(seed).swap_remove(0).0,
        };
        builder
            .target_accuracy(1.1) // never converges: a fixed amount of work
            .seed(seed)
            .build_config()
            .expect("benchmark workload configs are valid")
    }
}

/// The `paper_sweep` runs: every paper policy × paper workload ×
/// {calm, realistic} runtime variance × two seeds, at 50% non-IID on the
/// 200-device paper fleet, each run to its convergence target.
pub fn sweep_configs(seed: u64) -> Vec<(SimConfig, &'static str)> {
    let mut runs = Vec::new();
    for model in Model::paper_workloads() {
        for scenario in [VarianceScenario::calm(), VarianceScenario::realistic()] {
            for s in [seed, seed.wrapping_add(1)] {
                let config = Simulation::builder(model)
                    .distribution(DataDistribution::non_iid_percent(50))
                    .scenario(scenario)
                    .seed(s)
                    .build_config()
                    .expect("paper sweep configs are valid");
                for policy in PAPER_POLICIES {
                    runs.push((config.clone(), policy));
                }
            }
        }
    }
    runs
}

/// Cohort size a run advertises to its selector.
pub fn advertised_k(config: &SimConfig) -> usize {
    let extra = match config.fleet.as_ref().map(|f| f.straggler) {
        Some(StragglerPolicy::OverSelect { extra }) => extra,
        _ => 0,
    };
    config.params.num_participants + extra
}

pub fn set_threads(n: usize) {
    std::env::set_var("AUTOFL_THREADS", n.to_string());
    rayon::refresh_thread_count();
}

/// Throughput over one block of records.
#[derive(Debug, Clone, Copy, Default)]
pub struct Block {
    pub records: usize,
    pub busy_s: f64,
    pub sim_s: f64,
    pub samples: f64,
}

/// Checkpoint-path timings of the serve calls.
#[derive(Debug, Default)]
pub struct ServeTimes {
    pub snapshot_ms: Vec<f64>,
    pub write_ms: Vec<f64>,
    pub read_ms: Vec<f64>,
    pub resume_ms: Vec<f64>,
    pub bytes: Vec<f64>,
    /// Mean `ExperimentRun::step` milliseconds of each probed run.
    pub step_ms: Vec<f64>,
}

/// One timed pass of a workload.
#[derive(Debug, Default)]
pub struct Pass {
    /// Host milliseconds per record, including any checkpoint the step
    /// triggered.
    pub round_ms: Vec<f64>,
    /// Host milliseconds inside `ExperimentRun::step` alone.
    pub step_ms: Vec<f64>,
    pub blocks: Vec<Block>,
    /// Digests of the first job's records (or of every sweep run), in
    /// emission order.
    pub digests: Vec<u64>,
    pub records: usize,
    pub busy_s: f64,
    pub serve: ServeTimes,
    pub staleness: Vec<f64>,
    pub bytes_uplinked: Vec<f64>,
    /// Per-sweep wall seconds (`paper_sweep`).
    pub sweep_s: Vec<f64>,
    /// The last record the pass emitted: its cohort is what the layer
    /// probes replay.
    pub last: Option<RoundRecord>,
}

impl Pass {
    pub fn rounds_per_s(&self) -> Vec<f64> {
        self.blocks
            .iter()
            .map(|b| b.records as f64 / b.busy_s)
            .collect()
    }

    pub fn sim_hours_per_s(&self) -> Vec<f64> {
        self.blocks
            .iter()
            .map(|b| b.sim_s / 3600.0 / b.busy_s)
            .collect()
    }

    pub fn train_samples_per_s(&self) -> Vec<f64> {
        self.blocks.iter().map(|b| b.samples / b.busy_s).collect()
    }

    fn absorb(&mut self, rec: &RoundRecord, gate: &mut Gate, max_k: usize) {
        gate.record(check_record(rec, max_k));
        self.records += 1;
        self.staleness.push(rec.mean_staleness);
        self.bytes_uplinked
            .push(rec.net.map_or(0.0, |n| n.bytes_uplinked as f64));
        self.last = Some(rec.clone());
    }
}

/// Local SGD samples a record's cohort trained on (`E` epochs over each
/// participant's shard, scaled by the completed fraction).
pub struct SampleCounter {
    counts: Vec<usize>,
    epochs: f64,
}

impl SampleCounter {
    pub fn new(config: &SimConfig) -> Self {
        // The labels-only generator reproduces the full generator's
        // partition bit for bit, so this is the run's own partition.
        let data = FlData::generate_stats_only(
            config.workload,
            config.num_devices,
            config.samples_per_device,
            config.test_samples,
            config.distribution,
            config.seed,
        );
        SampleCounter {
            counts: (0..config.num_devices)
                .map(|d| data.partition.device_sample_count(d))
                .collect(),
            epochs: config.params.local_epochs as f64,
        }
    }

    fn samples(&self, rec: &RoundRecord) -> f64 {
        rec.participants
            .iter()
            .zip(&rec.update_fractions)
            .map(|(id, f)| self.counts[id.0] as f64 * f * self.epochs)
            .sum()
    }
}

/// Distinct checkpoint file names for concurrently live steppers.
static JOBS: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);

/// Steps a single-run workload one block at a time. On the serve
/// workload every block is one whole job — a fresh `ExperimentRun` of the
/// same spec, checkpointed on a fixed cadence into `scratch` — and every
/// job must reproduce the first job's trace.
pub struct Stepper<'p, 'c> {
    w: Workload,
    config: &'c SimConfig,
    policy: &'p dyn Policy,
    run: ExperimentRun<'p>,
    samples: Option<&'c SampleCounter>,
    ckpt: PathBuf,
    pub pass: Pass,
}

impl<'p, 'c> Stepper<'p, 'c> {
    /// Starts from `run` (already built and warmed up).
    pub fn new(
        w: Workload,
        config: &'c SimConfig,
        policy: &'p dyn Policy,
        run: ExperimentRun<'p>,
        scratch: &Path,
        samples: Option<&'c SampleCounter>,
    ) -> Self {
        Stepper {
            w,
            config,
            policy,
            run,
            samples,
            ckpt: scratch.join(format!(
                "job-{}.ckpt.json",
                JOBS.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
            )),
            pass: Pass::default(),
        }
    }

    pub fn finish(self) -> (Pass, ExperimentRun<'p>) {
        (self.pass, self.run)
    }
}

impl Blocks for Stepper<'_, '_> {
    fn block(&mut self, gate: &mut Gate) -> bool {
        let serve = self.w == Workload::ServeAutofl10k;
        let block_records = if serve {
            SERVE_JOB_RECORDS
        } else {
            BLOCK_RECORDS
        };
        let max_k = advertised_k(self.config);
        let mut block = Block::default();
        let mut job = Vec::new();
        if serve && !self.pass.blocks.is_empty() {
            let t = Instant::now();
            match ExperimentRun::new(self.config, self.policy, None) {
                Ok(fresh) => self.run = fresh,
                Err(e) => {
                    gate.fail(format!("job start: {e}"));
                    return false;
                }
            }
            block.busy_s += t.elapsed().as_secs_f64();
        }
        while block.records < block_records {
            let t = Instant::now();
            let rec = match self.run.step() {
                Ok(Some(rec)) => rec,
                Ok(None) => {
                    gate.fail(format!("{}: run ended early", self.w.name()));
                    return false;
                }
                Err(e) => {
                    gate.fail(format!("step: {e}"));
                    return false;
                }
            };
            let step_s = t.elapsed().as_secs_f64();
            if serve
                && self
                    .run
                    .records()
                    .len()
                    .is_multiple_of(SERVE_CHECKPOINT_EVERY)
            {
                checkpoint(&self.run, &self.ckpt, &mut self.pass.serve, gate);
            }
            let round_s = t.elapsed().as_secs_f64();
            let pass = &mut self.pass;
            pass.step_ms.push(step_s * 1e3);
            pass.round_ms.push(round_s * 1e3);
            block.records += 1;
            block.busy_s += round_s;
            block.sim_s += rec.round_time_s;
            if let Some(counter) = self.samples {
                block.samples += counter.samples(&rec);
            }
            pass.absorb(&rec, gate, max_k);
            job.push(digest(&rec));
        }
        let pass = &mut self.pass;
        if !serve || pass.digests.is_empty() {
            pass.digests.extend(job);
        } else {
            gate.same_prefix(
                "serve job vs first job",
                &job,
                &pass.digests,
                SERVE_JOB_RECORDS,
            );
        }
        pass.busy_s += block.busy_s;
        pass.blocks.push(block);
        true
    }

    fn busy_s(&self) -> f64 {
        self.pass.busy_s
    }
}

/// A workload driver that runs in whole blocks.
pub trait Blocks {
    /// Runs one block; `false` once the run failed.
    fn block(&mut self, gate: &mut Gate) -> bool;
    /// Seconds spent in blocks so far.
    fn busy_s(&self) -> f64;
}

/// Drives each of `drivers` for `budget_s` seconds of blocks, taking
/// turns block by block. Interleaving puts every driver under the same
/// machine conditions, so their throughputs compare fairly.
pub fn drive(drivers: &mut [&mut dyn Blocks], budget_s: f64, gate: &mut Gate) {
    while drivers.iter().any(|d| d.busy_s() < budget_s) {
        for driver in drivers.iter_mut() {
            if driver.busy_s() < budget_s && !driver.block(gate) {
                return;
            }
        }
    }
}

/// Snapshots `run` and writes the checkpoint envelope, timing both.
pub fn checkpoint(run: &ExperimentRun<'_>, path: &Path, times: &mut ServeTimes, gate: &mut Gate) {
    let t = Instant::now();
    let payload = run.state_snapshot();
    times.snapshot_ms.push(t.elapsed().as_secs_f64() * 1e3);
    let t = Instant::now();
    if let Err(e) = write_checkpoint(path, payload) {
        gate.fail(format!("write_checkpoint: {e}"));
        return;
    }
    times.write_ms.push(t.elapsed().as_secs_f64() * 1e3);
    times
        .bytes
        .push(std::fs::metadata(path).map_or(0.0, |m| m.len() as f64));
}

/// Reads the checkpoint at `path` back and resumes it, timing both.
pub fn resume<'p>(
    config: &SimConfig,
    policy: &'p dyn Policy,
    path: &Path,
    times: &mut ServeTimes,
    gate: &mut Gate,
) -> Option<ExperimentRun<'p>> {
    let t = Instant::now();
    let payload = match read_checkpoint(path) {
        Ok(p) => p,
        Err(e) => {
            gate.fail(format!("read_checkpoint: {e}"));
            return None;
        }
    };
    times.read_ms.push(t.elapsed().as_secs_f64() * 1e3);
    let t = Instant::now();
    match ExperimentRun::resume(config, policy, None, &payload) {
        Ok(run) => {
            times.resume_ms.push(t.elapsed().as_secs_f64() * 1e3);
            Some(run)
        }
        Err(e) => {
            gate.fail(format!("resume: {e}"));
            None
        }
    }
}

/// Runs one serve job to its end with a checkpoint after record
/// [`SERVE_RESUME_AT`], then resumes that checkpoint `reps` times and
/// requires every resumed job to emit the uninterrupted job's trace.
/// Returns the job's digests and the resume timings.
pub fn serve_resume_check(
    config: &SimConfig,
    policy: &dyn Policy,
    scratch: &Path,
    reps: usize,
    gate: &mut Gate,
) -> (Vec<u64>, ServeTimes) {
    let path = scratch.join("resume.ckpt.json");
    let mut times = ServeTimes::default();
    let mut run = match ExperimentRun::new(config, policy, None) {
        Ok(run) => run,
        Err(e) => {
            gate.fail(format!("serve job: {e}"));
            return (Vec::new(), times);
        }
    };
    let straight = step_to_end(&mut run, gate, Some((&path, &mut times)));
    for _ in 0..reps {
        if let Some(mut resumed) = resume(config, policy, &path, &mut times, gate) {
            let _ = step_to_end(&mut resumed, gate, None);
            let trace: Vec<u64> = resumed.records().iter().map(digest).collect();
            gate.same_prefix(
                "resumed job vs uninterrupted job",
                &trace,
                &straight,
                straight.len(),
            );
        }
    }
    (straight, times)
}

fn step_to_end(
    run: &mut ExperimentRun<'_>,
    gate: &mut Gate,
    mut checkpoint_at: Option<(&Path, &mut ServeTimes)>,
) -> Vec<u64> {
    loop {
        match run.step() {
            Ok(Some(_)) => {}
            Ok(None) => break,
            Err(e) => {
                gate.fail(format!("step: {e}"));
                break;
            }
        }
        if run.records().len() == SERVE_RESUME_AT {
            if let Some((path, times)) = checkpoint_at.as_mut() {
                checkpoint(run, path, times, gate);
            }
        }
    }
    run.records().iter().map(digest).collect()
}

/// Steps `run` `records` times untimed and returns their digests.
pub fn warm(run: &mut ExperimentRun<'_>, records: usize, gate: &mut Gate) -> Vec<u64> {
    let mut digests = Vec::new();
    for _ in 0..records {
        match run.step() {
            Ok(Some(rec)) => digests.push(digest(&rec)),
            Ok(None) => break,
            Err(e) => {
                gate.fail(format!("warm-up step: {e}"));
                break;
            }
        }
    }
    digests
}

/// One `paper_sweep` repetition's runs, in input order.
pub fn sweep_once(
    runs: &[(SimConfig, &'static str)],
    registry: &PolicyRegistry,
    log: &SharedLog,
    calls: bool,
) -> (f64, Vec<SimResult>) {
    let wrapped: Vec<Timed<'_>> = runs
        .iter()
        .map(|(_, name)| Timed::new(registry.expect(name), log.clone(), calls))
        .collect();
    let pairs: Vec<(SimConfig, &dyn Policy)> = runs
        .iter()
        .zip(&wrapped)
        .map(|((config, _), policy)| (config.clone(), policy as &dyn Policy))
        .collect();
    let t = Instant::now();
    let results = par_sweep(&pairs);
    (t.elapsed().as_secs_f64(), results)
}

/// Steps `paper_sweep` one whole sweep per block. Every repetition must
/// reproduce the first one's records exactly.
pub struct SweepStepper<'r> {
    runs: &'r [(SimConfig, &'static str)],
    registry: &'r PolicyRegistry,
    pub log: SharedLog,
    calls: bool,
    pub pass: Pass,
}

impl<'r> SweepStepper<'r> {
    /// `calls` selects the full timing wrapper; without it only per-run
    /// spans are recorded.
    pub fn new(
        runs: &'r [(SimConfig, &'static str)],
        registry: &'r PolicyRegistry,
        calls: bool,
    ) -> Self {
        SweepStepper {
            runs,
            registry,
            log: SharedLog::default(),
            calls,
            pass: Pass::default(),
        }
    }
}

impl Blocks for SweepStepper<'_> {
    fn block(&mut self, gate: &mut Gate) -> bool {
        let spans_before = self.log.lock().expect("trace log").runs.len();
        let (seconds, results) = sweep_once(self.runs, self.registry, &self.log, self.calls);
        let mut block = Block {
            busy_s: seconds,
            ..Block::default()
        };
        let mut digests = Vec::with_capacity(results.len());
        for ((config, _), result) in self.runs.iter().zip(&results) {
            let max_k = advertised_k(config);
            let mut ok = Ok(());
            for rec in &result.records {
                if let Err(e) = check_record(rec, max_k) {
                    ok = Err(format!(
                        "{} on {}: {e}",
                        result.policy,
                        config.workload.name()
                    ));
                }
                block.sim_s += rec.round_time_s;
                self.pass.staleness.push(rec.mean_staleness);
                self.pass
                    .bytes_uplinked
                    .push(rec.net.map_or(0.0, |n| n.bytes_uplinked as f64));
            }
            gate.record(ok);
            block.records += result.records.len();
            digests.push(crate::check::combine(
                &result.records.iter().map(digest).collect::<Vec<_>>(),
            ));
        }
        let pass = &mut self.pass;
        if pass.digests.is_empty() {
            pass.digests = digests;
        } else {
            gate.same_prefix(
                "sweep repetition vs first sweep",
                &digests,
                &pass.digests,
                self.runs.len(),
            );
        }
        // Runs execute in parallel, so single rounds are not timed: each
        // round counts at its run's mean host time per round.
        for span in &self.log.lock().expect("trace log").runs[spans_before..] {
            let ms = span.seconds * 1e3 / span.rounds.max(1) as f64;
            pass.round_ms.extend(std::iter::repeat_n(ms, span.rounds));
        }
        pass.records += block.records;
        pass.busy_s += seconds;
        pass.sweep_s.push(seconds);
        pass.blocks.push(block);
        true
    }

    fn busy_s(&self) -> f64 {
        self.pass.busy_s
    }
}
