//! Checkpoint/resume experiment serving with convergence-controlled
//! auto-tuning.
//!
//! This module turns the one-shot experiment runners into a durable
//! service (`spec_serve` in `autofl-bench`):
//!
//! - A **queue directory** of [`crate::spec::ExperimentSpec`] JSON files
//!   is consumed job by job ([`serve`]); each `(policy, repeat)` unit
//!   streams a JSONL round trace and **checkpoints** its full simulation
//!   state — global model / surrogate curve, Q-tables, fleet lifecycle
//!   state, the async scheduler's event heap and every live RNG stream
//!   position — through the workspace serde stack.
//! - A killed run **resumes bit-identically**: restarting the daemon
//!   finds the job in `active/`, restores the last checkpoint, rewrites
//!   the trace from the checkpointed records (so a line torn by SIGKILL
//!   disappears) and continues; the final trace is byte-for-byte the
//!   trace of a run that was never interrupted (pinned in
//!   `tests/checkpoint.rs` and the CI smoke job).
//! - A spec's [`ConvergeTarget`] (a per-round energy budget or an
//!   accuracy floor) attaches a [`ConvergenceController`] to each run,
//!   which retunes `K` *every round* instead of leaving `(B, E, K)` at
//!   what [`Policy::tune`] chose once at the start. The controller is a
//!   field of the [`ExperimentRun`] every runner drives, so a spec's
//!   `control` block means the same thing under `spec_run` and here.
//!
//! Layout under the serve root:
//!
//! ```text
//! root/queue/<job>.json                      # pending specs
//! root/active/<job>/spec.json                # the job being run
//! root/active/<job>/traces/<policy>-r<i>.jsonl
//! root/active/<job>/state/<policy>-r<i>.ckpt.json
//! root/active/<job>/state/<policy>-r<i>.summary.json  # unit finished
//! root/done/<job>/…                          # finished jobs (+ summary.json)
//! root/failed/<job>/…                        # refused jobs (+ error.txt)
//! ```
//!
//! See `docs/serving.md` for the checkpoint envelope, the resume
//! contract and the controller targets.

use crate::builder::ConfigError;
use crate::engine::{RoundRecord, SimConfig, SimResult, Simulation};
use crate::global::GlobalParams;
use crate::observe::RoundObserver;
use crate::policy::{Policy, PolicyRegistry};
use crate::selection::Selector;
use crate::spec::{ExperimentSpec, SpecError};
use serde::{Deserialize, Serialize};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

// ---------------------------------------------------------------------------
// Errors.
// ---------------------------------------------------------------------------

/// Why the serve loop (or one of its jobs) failed.
#[derive(Debug)]
pub enum ServeError {
    /// A filesystem or trace-writer failure, with the path involved.
    Io {
        /// What the daemon was doing.
        context: String,
        /// The underlying error.
        source: std::io::Error,
    },
    /// A spec file that does not parse or validate.
    Spec {
        /// The spec file.
        path: PathBuf,
        /// The underlying error.
        source: SpecError,
    },
    /// A checkpoint that does not parse, fails its digest, or does not
    /// match the run it is being restored onto.
    Checkpoint {
        /// The checkpoint file.
        path: PathBuf,
        /// What is wrong with it.
        reason: String,
    },
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Io { context, source } => write!(f, "{context}: {source}"),
            ServeError::Spec { path, source } => write!(f, "{}: {source}", path.display()),
            ServeError::Checkpoint { path, reason } => {
                write!(f, "checkpoint {}: {reason}", path.display())
            }
        }
    }
}

impl std::error::Error for ServeError {}

impl ServeError {
    fn io(context: impl Into<String>) -> impl FnOnce(std::io::Error) -> ServeError {
        let context = context.into();
        move |source| ServeError::Io { context, source }
    }
}

// ---------------------------------------------------------------------------
// Checkpoint envelope.
// ---------------------------------------------------------------------------

/// Version of the checkpoint envelope this build writes and reads.
/// Version 4 holds each cohort in flight as the record it will become
/// plus what the record lacks; version 3 restated the record's fields
/// one by one. Version 3 and older are refused: version 2's one map per
/// Q row and per pending device, and version 1's separate lockstep/event
/// driver.
pub const CHECKPOINT_VERSION: u64 = 4;

/// FNV-1a 64-bit digest of the canonical payload JSON, as fixed-width
/// hex. Not cryptographic — it guards against torn writes and hand
/// edits, not adversaries.
pub fn payload_digest(payload: &serde::Value) -> String {
    let text = serde_json::to_string(payload).expect("checkpoint payload serializes");
    fnv1a_hex(text.as_bytes())
}

fn fnv1a_hex(bytes: &[u8]) -> String {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in bytes {
        hash ^= u64::from(*byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{hash:016x}")
}

/// Atomically writes `payload` to `path` inside a versioned, digested
/// envelope `{version, digest, payload}` (tmp file + rename, so a crash
/// mid-write leaves either the old checkpoint or the new one, never a
/// torn file). The crash this guards against is a killed process;
/// nothing is fsynced, so a power cut may still lose the newest file.
///
/// The payload is serialized once: the digest is taken of exactly the
/// payload bytes the file holds, and the file is those bytes wrapped in
/// the envelope — the compact serialization of the envelope map.
pub fn write_checkpoint(path: &Path, payload: serde::Value) -> std::io::Result<()> {
    let text = serde_json::to_string(&payload).expect("checkpoint payload serializes");
    let head = format!(
        "{{\"version\":{CHECKPOINT_VERSION},\"digest\":\"{}\",\"payload\":",
        fnv1a_hex(text.as_bytes())
    );
    let tmp = path.with_extension("tmp");
    let mut file = std::fs::File::create(&tmp)?;
    file.write_all(head.as_bytes())?;
    file.write_all(text.as_bytes())?;
    file.write_all(b"}")?;
    drop(file);
    std::fs::rename(&tmp, path)
}

/// Reads a checkpoint envelope back, verifying the version and the
/// payload digest, and returns the payload.
///
/// A file laid out exactly as [`write_checkpoint`] writes it is hashed in
/// place: its payload text is the text the digest was taken of. Any other
/// file is checked against the canonical re-serialization of its parsed
/// payload, not against its bytes, so a checkpoint that was re-indented
/// or otherwise reformatted still loads.
pub fn read_checkpoint(path: &Path) -> Result<serde::Value, ServeError> {
    let bad = |reason: String| ServeError::Checkpoint {
        path: path.to_path_buf(),
        reason,
    };
    let text = std::fs::read_to_string(path).map_err(|e| bad(format!("cannot read: {e}")))?;
    if let Some((digest, payload)) = canonical_parts(&text) {
        if fnv1a_hex(payload.as_bytes()) == digest {
            return serde_json::parse(payload).map_err(|e| bad(format!("not valid JSON: {e}")));
        }
    }
    let envelope = serde_json::parse(&text).map_err(|e| bad(format!("not valid JSON: {e}")))?;
    // Freed before the digest check allocates the canonical text, so a
    // read holds at most one payload text beside the tree.
    drop(text);
    let version = u64::from_value(serde::field_or_null(&envelope, "version"))
        .map_err(|e| bad(format!("bad version field: {e}")))?;
    if version != CHECKPOINT_VERSION {
        return Err(bad(format!(
            "envelope version {version} is not the supported version {CHECKPOINT_VERSION}"
        )));
    }
    let digest = String::from_value(serde::field_or_null(&envelope, "digest"))
        .map_err(|e| bad(format!("bad digest field: {e}")))?;
    // Moved out of the envelope, not copied; the first `payload` key
    // wins, as in `Value::get`.
    let payload = match envelope {
        serde::Value::Map(mut entries) => entries
            .iter()
            .position(|(key, _)| key == "payload")
            .map(|i| entries.swap_remove(i).1),
        _ => None,
    }
    .ok_or_else(|| bad("missing payload".to_string()))?;
    let actual = payload_digest(&payload);
    if actual != digest {
        return Err(bad(format!(
            "digest mismatch: envelope says {digest}, payload hashes to {actual}"
        )));
    }
    Ok(payload)
}

/// The digest and the payload text of a file laid out exactly as
/// [`write_checkpoint`] writes it at [`CHECKPOINT_VERSION`], or `None`.
fn canonical_parts(text: &str) -> Option<(&str, &str)> {
    let head = format!("{{\"version\":{CHECKPOINT_VERSION},\"digest\":\"");
    let rest = text.strip_prefix(head.as_str())?;
    let digest = rest.get(..16)?;
    let payload = rest[16..]
        .strip_prefix("\",\"payload\":")?
        .strip_suffix('}')?;
    Some((digest, payload))
}

// ---------------------------------------------------------------------------
// Convergence control.
// ---------------------------------------------------------------------------

/// What a controlled run converges *toward* — the quantity the
/// [`ConvergenceController`] steers each round by retuning `K`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum ConvergeTarget {
    /// Keep the fleet's total per-round energy near a budget. Overspent
    /// rounds shrink the cohort, under-budget rounds grow it back.
    EnergyBudget {
        /// The per-round budget in joules.
        joules_per_round: f64,
    },
    /// Keep the measured accuracy at or above a floor. Rounds below the
    /// floor grow the cohort; rounds comfortably above it shrink the
    /// cohort to save energy.
    AccuracyFloor {
        /// The accuracy floor in `[0, 1]`.
        accuracy: f64,
    },
}

impl ConvergeTarget {
    /// Checks that the budget or floor is finite and positive. Floors
    /// above 1 stay legal, as accuracy targets above 1 do; a negative
    /// budget would pin `K` at 1 and a NaN one would write a checkpoint
    /// no run can resume.
    pub fn validate(&self) -> Result<(), ConfigError> {
        let value = match *self {
            ConvergeTarget::EnergyBudget { joules_per_round } => joules_per_round,
            ConvergeTarget::AccuracyFloor { accuracy } => accuracy,
        };
        if !value.is_finite() || value <= 0.0 {
            return Err(ConfigError::BadControlTarget(value));
        }
        Ok(())
    }

    /// The `(actual, target)` pair for one completed round — the
    /// controller's measurement and setpoint. Both targets share one
    /// sign convention: *actual below target grows `K`*, actual above
    /// shrinks it (an under-budget round has headroom to field a larger
    /// cohort; accuracy above the floor is license to field a smaller,
    /// cheaper one).
    pub fn get_actual_and_target(&self, record: &RoundRecord) -> (f64, f64) {
        match self {
            ConvergeTarget::EnergyBudget { joules_per_round } => {
                (record.total_energy_j(), *joules_per_round)
            }
            ConvergeTarget::AccuracyFloor { accuracy } => (record.accuracy, *accuracy),
        }
    }
}

/// The serializable position of a [`ConvergenceController`] — what a
/// checkpoint needs so a resumed run continues the same control
/// trajectory.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ControllerState {
    /// Multiplicative scale applied to the base `K` (starts at 1).
    pub scale: f64,
    /// Exponential moving average of the measured quantity; `None`
    /// before the first round.
    pub ema: Option<f64>,
}

impl Default for ControllerState {
    fn default() -> Self {
        ControllerState {
            scale: 1.0,
            ema: None,
        }
    }
}

/// A proportional controller over the cohort size: each round it folds
/// the measured quantity into an EMA, compares it to the target, and
/// nudges a multiplicative scale on the base `K` toward closing the
/// gap. Deliberately simple — one gain, one smoothing factor, hard
/// clamps — because the plant (round energy vs. `K`) is close to linear
/// and the controller must stay deterministic and serializable.
#[derive(Debug, Clone)]
pub struct ConvergenceController {
    target: ConvergeTarget,
    base: GlobalParams,
    /// Largest `K` the configuration stays valid at (fleet size, minus
    /// any over-selection margin).
    max_k: usize,
    gain: f64,
    alpha: f64,
    state: ControllerState,
}

impl ConvergenceController {
    /// Bounds on the multiplicative scale, so one wild round cannot
    /// collapse or explode the cohort.
    const SCALE_RANGE: (f64, f64) = (0.02, 50.0);

    /// A controller for `target` on `config`, treating `base` as the
    /// scale-1.0 reference parameters.
    pub fn new(target: ConvergeTarget, base: GlobalParams, config: &SimConfig) -> Self {
        let margin = match &config.fleet {
            Some(fleet) => match fleet.straggler {
                crate::fleet::StragglerPolicy::OverSelect { extra } => extra,
                _ => 0,
            },
            None => 0,
        };
        ConvergenceController {
            target,
            base,
            max_k: config.num_devices.saturating_sub(margin).max(1),
            gain: 0.2,
            alpha: 0.3,
            state: ControllerState::default(),
        }
    }

    /// The controller's serializable position.
    pub fn state(&self) -> ControllerState {
        self.state
    }

    /// Restores a position captured by [`ConvergenceController::state`].
    pub fn restore(&mut self, state: ControllerState) {
        self.state = state;
    }

    /// Folds one completed round into the controller: updates the EMA
    /// and moves the scale one proportional step toward the target.
    pub fn observe(&mut self, record: &RoundRecord) {
        let (actual, target) = self.target.get_actual_and_target(record);
        let ema = match self.state.ema {
            Some(prev) => self.alpha * actual + (1.0 - self.alpha) * prev,
            None => actual,
        };
        self.state.ema = Some(ema);
        // Relative error in the shared sign convention: positive when
        // the measurement sits below the target (grow), negative above
        // (shrink). Clamped so a degenerate round moves the scale at
        // most one full gain step.
        let denom = target.abs().max(f64::MIN_POSITIVE);
        let error = ((target - ema) / denom).clamp(-1.0, 1.0);
        let (lo, hi) = Self::SCALE_RANGE;
        self.state.scale = (self.state.scale * (1.0 + self.gain * error)).clamp(lo, hi);
    }

    /// The parameters the current scale implies: the base `(B, E)` with
    /// `K` rescaled and clamped to `[1, max_k]` — always a valid
    /// configuration, so retuning can never invalidate the run.
    pub fn params(&self) -> GlobalParams {
        let k = (self.base.num_participants as f64 * self.state.scale).round() as usize;
        GlobalParams {
            num_participants: k.clamp(1, self.max_k),
            ..self.base
        }
    }
}

// ---------------------------------------------------------------------------
// A single resumable (policy, repeat) run.
// ---------------------------------------------------------------------------

/// One policy × one seed, runnable a record at a time, checkpointable
/// between any two records, and resumable bit-identically — the one
/// driver of a policy run. [`crate::policy::run_policy`],
/// [`ExperimentSpec::run`], `spec_run --trace` and [`serve`] all build an
/// `ExperimentRun`, so the start-of-run [`Policy::tune`], the optional
/// per-round [`ConvergenceController`] and the record order are decided
/// here alone.
///
/// ```
/// use autofl_fed::engine::SimConfig;
/// use autofl_fed::selection::RandomSelector;
/// use autofl_fed::serve::ExperimentRun;
///
/// let config = SimConfig::tiny_test(7);
/// let mut run = ExperimentRun::new(&config, &RandomSelector, None).unwrap();
/// while run.step().unwrap().is_some() {}
/// assert!(!run.records().is_empty());
/// let result = run.into_result();
/// assert_eq!(result.policy, "FedAvg-Random");
/// ```
pub struct ExperimentRun<'p> {
    selector: Box<dyn Selector>,
    sim: Simulation,
    /// Records emitted so far, in emission (completion) order: the order
    /// the trace streams in, and so the order a checkpoint replays.
    records: Vec<RoundRecord>,
    policy: &'p dyn Policy,
    controller: Option<ConvergenceController>,
}

impl std::fmt::Debug for ExperimentRun<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ExperimentRun")
            .field("policy", &self.policy.name())
            .field("records", &self.records().len())
            .finish()
    }
}

impl<'p> ExperimentRun<'p> {
    /// Starts a fresh run of `policy` on `config`, optionally steering
    /// toward `control` each round. The policy's [`Policy::tune`] hook
    /// runs once, here: its parameters start an uncontrolled run and are
    /// the scale-1.0 base of a controlled one. An invalid configuration,
    /// control target or tuned configuration is returned as a
    /// [`ConfigError`] instead of a panic — a daemon must outlive a bad
    /// job.
    pub fn new(
        config: &SimConfig,
        policy: &'p dyn Policy,
        control: Option<ConvergeTarget>,
    ) -> Result<Self, ConfigError> {
        config.validate()?;
        if let Some(target) = control {
            target.validate()?;
        }
        let tuned = policy.tune(config);
        let controller = control.map(|target| {
            ConvergenceController::new(target, tuned.unwrap_or(config.params), config)
        });
        let mut config = config.clone();
        if let Some(params) = controller.as_ref().map(|c| c.params()).or(tuned) {
            config.params = params;
            config.validate()?;
        }
        // Minted before the simulation is built, so the selector's
        // lifetime spans the run's set-up.
        let selector = policy.make_selector();
        Ok(ExperimentRun {
            selector,
            sim: Simulation::new(config),
            records: Vec::new(),
            policy,
            controller,
        })
    }

    /// Reconstructs a checkpointed run: builds the same fresh state
    /// [`ExperimentRun::new`] would (same start-of-run tuning, so the
    /// accuracy engine's nominal parameters match), then restores
    /// `payload` over it.
    pub fn resume(
        config: &SimConfig,
        policy: &'p dyn Policy,
        control: Option<ConvergeTarget>,
        payload: &serde::Value,
    ) -> Result<Self, ServeError> {
        let bad = |reason: String| ServeError::Checkpoint {
            path: PathBuf::new(),
            reason,
        };
        let mut run = Self::new(config, policy, control)
            .map_err(|e| bad(format!("config no longer validates: {e}")))?;
        run.state_restore(payload).map_err(|e| bad(e.to_string()))?;
        Ok(run)
    }

    /// Records emitted so far, in emission order (the order the trace
    /// streams in; round order unless cohorts run concurrently).
    pub fn records(&self) -> &[RoundRecord] {
        &self.records
    }

    /// The global parameters currently in force (moves as the
    /// convergence controller retunes `K`).
    pub fn params(&self) -> GlobalParams {
        self.sim.config().params
    }

    /// Runs until the next record is emitted, keeps it and returns it:
    /// `None` once the run has finished (converged or horizon exhausted,
    /// and every cohort in flight drained). After a record, the
    /// convergence controller — if any — observes it and retunes `K`, so
    /// the next cohort dispatches with the new parameters.
    fn advance(&mut self) -> Option<&RoundRecord> {
        let record = self.sim.step(self.selector.as_mut())?;
        if let Some(controller) = &mut self.controller {
            controller.observe(&record);
            self.sim.set_params(controller.params());
        }
        self.records.push(record);
        self.records.last()
    }

    /// Runs until the next record is emitted and returns a copy of it, or
    /// `None` once the run has finished (see [`ExperimentRun::finish`]
    /// for running to the end). Stepping itself cannot fail; the
    /// `io::Result` keeps the signature stable for drivers that stream
    /// records to a writer.
    pub fn step(&mut self) -> std::io::Result<Option<RoundRecord>> {
        Ok(self.advance().cloned())
    }

    /// Runs to the end with `observers` attached and returns the result.
    /// Each observer sees every record this call emits, in emission
    /// order, and then — if the run reached its target — the result
    /// sorted by round. Observers only borrow the records, so they cannot
    /// perturb the run. An observer error (closed pipe, full disk) stops
    /// the run at that record and is returned.
    pub fn finish(
        mut self,
        observers: &mut [&mut dyn RoundObserver],
    ) -> std::io::Result<SimResult> {
        while let Some(record) = self.advance() {
            for observer in observers.iter_mut() {
                observer.on_round_end(record)?;
            }
        }
        let result = self.into_result();
        if result.converged() {
            for observer in observers.iter_mut() {
                observer.on_converged(&result)?;
            }
        }
        Ok(result)
    }

    /// Wraps the records emitted so far, sorted by round, in a
    /// [`SimResult`] labelled with the policy name. Concurrent cohorts
    /// can complete out of dispatch order; `logical_time_s` keeps the
    /// completion order. The records give back the spare capacity they
    /// grew while the run pushed them, since a sweep holds every result.
    pub fn into_result(mut self) -> SimResult {
        self.records.sort_by_key(|r| r.round);
        self.records.shrink_to_fit();
        SimResult {
            policy: self.policy.name().to_string(),
            target_accuracy: self.sim.config().target(),
            records: self.records,
        }
    }

    /// Serializes everything a resumed process needs: the simulation's
    /// live state (engine RNG, accuracy engine, fleet lifecycle store,
    /// tuned parameters and the event scheduler), the records emitted so
    /// far, the selector's learned state (Q-tables, pending rounds, agent
    /// RNG) and the controller position.
    pub fn state_snapshot(&self) -> serde::Value {
        serde::Value::Map(vec![
            ("policy".to_string(), self.policy.name().to_value()),
            ("sim".to_string(), self.sim.state_snapshot()),
            ("records".to_string(), self.records.to_value()),
            (
                "selector".to_string(),
                self.selector.state_snapshot().unwrap_or(serde::NULL),
            ),
            (
                "controller".to_string(),
                match &self.controller {
                    Some(c) => c.state().to_value(),
                    None => serde::Value::Null,
                },
            ),
        ])
    }

    /// Restores a payload captured by [`ExperimentRun::state_snapshot`]
    /// onto a freshly built run of the same spec. Every completed cohort
    /// emitted one record, so the record count must match the restored
    /// scheduler's.
    fn state_restore(&mut self, payload: &serde::Value) -> Result<(), serde::Error> {
        let policy: String = serde::field(payload, "policy")?;
        if policy != self.policy.name() {
            return Err(serde::Error::custom(format!(
                "checkpoint belongs to policy `{policy}`, not `{}`",
                self.policy.name()
            )));
        }
        self.sim
            .state_restore(serde::field_or_null(payload, "sim"))
            .map_err(|e| e.at("sim"))?;
        self.records = serde::field(payload, "records")?;
        let completed = self.sim.sched.completed_cohorts();
        if self.records.len() != completed {
            return Err(serde::Error::custom(format!(
                "{} records, but {completed} cohorts have completed",
                self.records.len()
            ))
            .at("records"));
        }
        self.selector
            .state_restore(serde::field_or_null(payload, "selector"))
            .and_then(|()| self.selector.check_restored(self.sim.fleet().len()))
            .map_err(|e| e.at("selector"))?;
        let controller: Option<ControllerState> = serde::field(payload, "controller")?;
        match (&mut self.controller, controller) {
            (Some(c), Some(state)) => {
                c.restore(state);
                // Re-assert the restored control trajectory: the sim's
                // restored params already reflect it, but keeping both
                // in lockstep costs nothing and survives refactors.
                self.sim.set_params(c.params());
            }
            (None, None) => {}
            (have, _) => {
                return Err(serde::Error::custom(format!(
                    "checkpoint {} a controller state but the spec {} convergence control",
                    if have.is_some() { "lacks" } else { "holds" },
                    if have.is_some() {
                        "requests"
                    } else {
                        "does not request"
                    }
                ))
                .at("controller"));
            }
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// The serve daemon.
// ---------------------------------------------------------------------------

/// Tuning of the [`serve`] loop.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Root directory holding `queue/`, `active/` and `done/`.
    pub root: PathBuf,
    /// Drain everything currently queued (and any interrupted jobs in
    /// `active/`), then return instead of polling forever.
    pub once: bool,
    /// Poll interval for new queue entries, in milliseconds.
    pub poll_ms: u64,
    /// Checkpoint each unit every this many emitted records.
    pub checkpoint_every: usize,
    /// Test/CI hook: hard-abort the process (the deterministic stand-in
    /// for SIGKILL) after this many records have been emitted across
    /// all units. `None` in production.
    pub crash_after_records: Option<usize>,
}

impl ServeOptions {
    /// Defaults: poll every 250 ms, checkpoint every round, never crash.
    pub fn new(root: impl Into<PathBuf>) -> Self {
        ServeOptions {
            root: root.into(),
            once: false,
            poll_ms: 250,
            checkpoint_every: 1,
            crash_after_records: None,
        }
    }
}

/// What one [`serve`] call accomplished.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServeReport {
    /// Jobs moved to `done/`.
    pub jobs: usize,
    /// `(policy, repeat)` units completed (including resumed ones) in
    /// the jobs moved to `done/`.
    pub units: usize,
    /// Jobs moved to `failed/`: a spec, checkpoint or completion marker
    /// the daemon refused.
    pub failed: usize,
}

/// One row of a job's `summary.json`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct UnitSummary {
    /// The policy's registry name.
    pub policy: String,
    /// 0-based repeat index.
    pub repeat: usize,
    /// The master seed of this repeat.
    pub seed: u64,
    /// Rounds recorded.
    pub rounds: usize,
    /// Whether the run reached its accuracy target.
    pub converged: bool,
    /// Accuracy after the last round.
    pub final_accuracy: f64,
    /// Total energy across the run in joules.
    pub total_energy_j: f64,
    /// The `K` in force when the run ended (moves under convergence
    /// control; equals the spec's `K` otherwise).
    pub final_k: usize,
}

/// Runs the serve loop: consumes `root/queue/*.json` specs job by job,
/// resuming any interrupted jobs found in `root/active/` first. With
/// [`ServeOptions::once`] the call returns after draining; otherwise it
/// polls forever (run it under a supervisor and SIGKILL at will — that
/// is the point).
///
/// A job whose spec, checkpoint or completion marker is refused
/// ([`ServeError::Spec`], [`ServeError::Checkpoint`]) moves to
/// `root/failed/<job>/` with the error and a retry in `error.txt`, and
/// the loop goes on. A job moved back into `root/active/` is run again,
/// and once it finishes its `error.txt` is gone. A filesystem error
/// ([`ServeError::Io`]) is the daemon's own and is returned.
pub fn serve(registry: &PolicyRegistry, opts: &ServeOptions) -> Result<ServeReport, ServeError> {
    let queue = opts.root.join("queue");
    let active = opts.root.join("active");
    let done = opts.root.join("done");
    let failed = opts.root.join("failed");
    for dir in [&queue, &active, &done, &failed] {
        std::fs::create_dir_all(dir)
            .map_err(ServeError::io(format!("creating {}", dir.display())))?;
    }
    let crash_counter = AtomicUsize::new(0);
    let mut report = ServeReport::default();
    loop {
        // Interrupted jobs first (their queue file is already gone), in
        // name order for determinism; then newly queued specs.
        let mut jobs: Vec<PathBuf> = list_sorted(&active)?
            .into_iter()
            .filter(|p| p.join("spec.json").is_file())
            .collect();
        for entry in list_sorted(&queue)? {
            if entry.extension().map(|e| e != "json").unwrap_or(true) {
                continue;
            }
            let stem = entry
                .file_stem()
                .map(|s| s.to_string_lossy().into_owned())
                .unwrap_or_else(|| "job".to_string());
            let job_dir = active.join(&stem);
            std::fs::create_dir_all(&job_dir)
                .map_err(ServeError::io(format!("creating {}", job_dir.display())))?;
            std::fs::rename(&entry, job_dir.join("spec.json")).map_err(ServeError::io(format!(
                "claiming {} into {}",
                entry.display(),
                job_dir.display()
            )))?;
            jobs.push(job_dir);
        }
        if jobs.is_empty() {
            if opts.once {
                return Ok(report);
            }
            std::thread::sleep(std::time::Duration::from_millis(opts.poll_ms));
            continue;
        }
        for job_dir in jobs {
            let name = job_dir.file_name().expect("job dirs are named");
            let error_path = job_dir.join("error.txt");
            let failed_dest = failed.join(name);
            // A refused job's error names each file where it will live,
            // under `failed/<job>/`, and how to bring the job back.
            let moved = |path: PathBuf| match path.strip_prefix(&job_dir) {
                Ok(relative) => failed_dest.join(relative),
                Err(_) => path,
            };
            let refused = match run_job(registry, &job_dir, opts, &crash_counter) {
                Ok(units) => {
                    report.units += units;
                    report.jobs += 1;
                    None
                }
                Err(ServeError::Spec { path, source }) => Some((
                    ServeError::Spec {
                        path: moved(path),
                        source,
                    },
                    "fix the spec",
                )),
                Err(ServeError::Checkpoint { path, reason }) => Some((
                    ServeError::Checkpoint {
                        path: moved(path),
                        reason,
                    },
                    "delete that file to restart its unit from scratch",
                )),
                Err(e) => return Err(e),
            };
            let dest = match refused {
                Some((e, remedy)) => {
                    let text = format!(
                        "{e}\nTo retry, {remedy}, then move {} back into {}.\n",
                        failed_dest.display(),
                        active.display()
                    );
                    std::fs::write(&error_path, text)
                        .map_err(ServeError::io(format!("writing {}", error_path.display())))?;
                    report.failed += 1;
                    failed_dest
                }
                None => {
                    // A retried job still holds the error.txt it was
                    // refused with; the finished job keeps none.
                    if error_path.is_file() {
                        std::fs::remove_file(&error_path).map_err(ServeError::io(format!(
                            "removing {}",
                            error_path.display()
                        )))?;
                    }
                    done.join(name)
                }
            };
            if dest.exists() {
                std::fs::remove_dir_all(&dest)
                    .map_err(ServeError::io(format!("clearing stale {}", dest.display())))?;
            }
            std::fs::rename(&job_dir, &dest).map_err(ServeError::io(format!(
                "finishing {} into {}",
                job_dir.display(),
                dest.display()
            )))?;
        }
        if opts.once {
            // Re-scan once more: a job may have been queued while the
            // batch ran; `once` means "drain", not "one batch".
            continue;
        }
    }
}

/// Directory entries sorted by file name (std gives no order).
fn list_sorted(dir: &Path) -> Result<Vec<PathBuf>, ServeError> {
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)
        .map_err(ServeError::io(format!("listing {}", dir.display())))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .collect();
    entries.sort();
    Ok(entries)
}

/// Runs (or resumes) every `(policy, repeat)` unit of one job and writes
/// its `summary.json`. Returns the number of units completed.
fn run_job(
    registry: &PolicyRegistry,
    job_dir: &Path,
    opts: &ServeOptions,
    crash_counter: &AtomicUsize,
) -> Result<usize, ServeError> {
    let spec_path = job_dir.join("spec.json");
    let text = std::fs::read_to_string(&spec_path)
        .map_err(ServeError::io(format!("reading {}", spec_path.display())))?;
    let spec = ExperimentSpec::from_json(&text).map_err(|source| ServeError::Spec {
        path: spec_path.clone(),
        source,
    })?;
    let policies = spec.resolve(registry).map_err(|source| ServeError::Spec {
        path: spec_path.clone(),
        source,
    })?;
    for sub in ["traces", "state"] {
        let dir = job_dir.join(sub);
        std::fs::create_dir_all(&dir)
            .map_err(ServeError::io(format!("creating {}", dir.display())))?;
    }
    let mut summaries = Vec::new();
    for repeat in 0..spec.repeats {
        for policy in &policies {
            summaries.push(run_unit(
                &spec,
                *policy,
                repeat,
                job_dir,
                opts,
                crash_counter,
            )?);
        }
    }
    let summary = serde_json::to_string_pretty(&summaries).expect("summaries serialize");
    let summary_path = job_dir.join("summary.json");
    std::fs::write(&summary_path, summary).map_err(ServeError::io(format!(
        "writing {}",
        summary_path.display()
    )))?;
    // All units completed: the per-unit checkpoints are now dead weight.
    let _ = std::fs::remove_dir_all(job_dir.join("state"));
    Ok(summaries.len())
}

/// Runs one `(policy, repeat)` unit to completion, resuming from its
/// checkpoint if one exists, streaming its trace and checkpointing every
/// [`ServeOptions::checkpoint_every`] records. A finished unit leaves its
/// summary under `state/` as a completion marker; a unit that has one is
/// not run again.
fn run_unit(
    spec: &ExperimentSpec,
    policy: &dyn Policy,
    repeat: usize,
    job_dir: &Path,
    opts: &ServeOptions,
    crash_counter: &AtomicUsize,
) -> Result<UnitSummary, ServeError> {
    let mut config = spec.config.clone();
    config.seed = spec.config.seed.wrapping_add(repeat as u64);
    let unit = format!("{}-r{repeat}", policy.name());
    let trace_path = job_dir.join("traces").join(format!("{unit}.jsonl"));
    let ckpt_path = job_dir.join("state").join(format!("{unit}.ckpt.json"));
    let marker_path = job_dir.join("state").join(format!("{unit}.summary.json"));

    // A finished unit left its summary behind; its trace is complete, so
    // a restart returns the summary and leaves the trace alone.
    if marker_path.is_file() {
        return read_marker(&marker_path, policy.name(), repeat, config.seed);
    }
    let mut run = if ckpt_path.is_file() {
        let payload = read_checkpoint(&ckpt_path)?;
        ExperimentRun::resume(&config, policy, spec.control, &payload).map_err(|e| match e {
            // Attach the real path (resume has no path context).
            ServeError::Checkpoint { reason, .. } => ServeError::Checkpoint {
                path: ckpt_path.clone(),
                reason,
            },
            other => other,
        })?
    } else {
        ExperimentRun::new(&config, policy, spec.control).map_err(|source| ServeError::Spec {
            path: job_dir.join("spec.json"),
            source: SpecError::Config(source),
        })?
    };

    // (Re)write the trace from the records the run already carries: on
    // a fresh run that truncates to empty; on resume it replays the
    // checkpointed emission order, erasing any line the kill tore.
    let mut trace = std::fs::File::create(&trace_path)
        .map_err(ServeError::io(format!("creating {}", trace_path.display())))?;
    let trace_io = |e: std::io::Error| ServeError::Io {
        context: format!("writing {}", trace_path.display()),
        source: e,
    };
    for record in run.records() {
        let line = serde_json::to_string(record).expect("round record serializes");
        writeln!(trace, "{line}").map_err(trace_io)?;
    }
    trace.flush().map_err(trace_io)?;

    let mut since_checkpoint = 0usize;
    while let Some(record) = run.step().map_err(trace_io)? {
        let line = serde_json::to_string(&record).expect("round record serializes");
        writeln!(trace, "{line}").map_err(trace_io)?;
        trace.flush().map_err(trace_io)?;
        since_checkpoint += 1;
        if since_checkpoint >= opts.checkpoint_every.max(1) {
            write_checkpoint(&ckpt_path, run.state_snapshot())
                .map_err(ServeError::io(format!("writing {}", ckpt_path.display())))?;
            since_checkpoint = 0;
        }
        if let Some(n) = opts.crash_after_records {
            if crash_counter.fetch_add(1, Ordering::Relaxed) + 1 >= n {
                // The deterministic stand-in for SIGKILL: no unwinding,
                // no destructors, no flushes beyond what already hit
                // the OS — exactly what the resume path must survive.
                std::process::abort();
            }
        }
    }
    let final_k = run.params().num_participants;
    let result = run.into_result();
    let summary = UnitSummary {
        policy: result.policy.clone(),
        repeat,
        seed: config.seed,
        rounds: result.records.len(),
        converged: result.converged(),
        final_accuracy: result.final_accuracy(),
        total_energy_j: result
            .records
            .iter()
            .map(|r| r.total_energy_j())
            .sum::<f64>(),
        final_k,
    };
    // The marker lands (tmp file + rename) before the checkpoint goes, so
    // a crash between the two leaves both, and the marker wins.
    let text = serde_json::to_string_pretty(&summary).expect("a summary serializes");
    let tmp = marker_path.with_extension("tmp");
    std::fs::write(&tmp, text)
        .and_then(|()| std::fs::rename(&tmp, &marker_path))
        .map_err(ServeError::io(format!("writing {}", marker_path.display())))?;
    let _ = std::fs::remove_file(&ckpt_path);
    Ok(summary)
}

/// The summary a finished unit left at `path`, refused unless it names
/// the unit's own policy, repeat and seed.
fn read_marker(
    path: &Path,
    policy: &str,
    repeat: usize,
    seed: u64,
) -> Result<UnitSummary, ServeError> {
    let bad = |reason: String| ServeError::Checkpoint {
        path: path.to_path_buf(),
        reason,
    };
    let text = std::fs::read_to_string(path).map_err(|e| bad(format!("cannot read: {e}")))?;
    let summary: UnitSummary =
        serde_json::from_str(&text).map_err(|e| bad(format!("not a unit summary: {e}")))?;
    if (summary.policy.as_str(), summary.repeat, summary.seed) != (policy, repeat, seed) {
        return Err(bad(format!(
            "the summary of {}-r{} at seed {} marks the unit {policy}-r{repeat} at seed {seed}",
            summary.policy, summary.repeat, summary.seed
        )));
    }
    Ok(summary)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::baseline_registry;
    use crate::selection::RandomSelector;

    fn records_equal(a: &[RoundRecord], b: &[RoundRecord]) -> bool {
        let line = |r: &RoundRecord| serde_json::to_string(r).expect("serializes");
        a.len() == b.len() && a.iter().zip(b).all(|(x, y)| line(x) == line(y))
    }

    /// A one-second round at accuracy 0.5 that spent `energy` joules.
    fn record_with_energy(energy: f64) -> RoundRecord {
        RoundRecord {
            round: 0,
            participants: Vec::new(),
            plans: Vec::new(),
            round_time_s: 1.0,
            active_energy_j: energy,
            idle_energy_j: 0.0,
            accuracy: 0.5,
            dropped: Vec::new(),
            update_fractions: Vec::new(),
            dropouts: Vec::new(),
            ineligible: 0,
            dispatch_time_s: 0.0,
            logical_time_s: 1.0,
            mean_staleness: 0.0,
            net: None,
            adversarial: None,
            flagged: None,
        }
    }

    #[test]
    fn checkpoint_envelope_roundtrips_and_rejects_tampering() {
        let dir = std::env::temp_dir().join(format!("autofl-ckpt-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("unit.ckpt.json");
        let payload = serde::Value::Map(vec![
            ("x".to_string(), 3usize.to_value()),
            ("y".to_string(), serde::Value::Str("hello".into())),
        ]);
        write_checkpoint(&path, payload.clone()).unwrap();
        assert_eq!(read_checkpoint(&path).unwrap(), payload);

        // Flip one payload byte: the digest must catch it.
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, text.replace("hello", "jello")).unwrap();
        let err = read_checkpoint(&path).unwrap_err();
        assert!(err.to_string().contains("digest mismatch"), "{err}");

        // Another version — newer, or an older payload layout: refused,
        // not misread.
        for other in [1, 2, 3, 999] {
            write_checkpoint(&path, payload.clone()).unwrap();
            let text = std::fs::read_to_string(&path).unwrap();
            let current = format!("\"version\":{CHECKPOINT_VERSION}");
            std::fs::write(
                &path,
                text.replace(&current, &format!("\"version\":{other}")),
            )
            .unwrap();
            let err = read_checkpoint(&path).unwrap_err();
            assert!(
                err.to_string().contains(&format!("version {other} ")),
                "{err}"
            );
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn the_writer_lays_out_what_the_reader_hashes_in_place() {
        let dir = std::env::temp_dir().join(format!("autofl-ckpt-layout-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("unit.ckpt.json");
        let payload = serde::Value::Map(vec![("x".to_string(), 3usize.to_value())]);
        write_checkpoint(&path, payload.clone()).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let (digest, body) = canonical_parts(&text).expect("the writer's layout is canonical");
        assert_eq!(digest, payload_digest(&payload));
        assert_eq!(body, serde_json::to_string(&payload).unwrap());
        // Any other layout is left to the re-serializing check.
        assert!(canonical_parts(&text.replacen(':', ": ", 1)).is_none());
        assert!(canonical_parts(&format!("{text}\n")).is_none());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn stepped_run_matches_run_policy() {
        let config = SimConfig::tiny_test(3);
        let mut run = ExperimentRun::new(&config, &RandomSelector, None).unwrap();
        while run.step().unwrap().is_some() {}
        let stepped = run.into_result();
        let straight = crate::policy::run_policy(&config, &RandomSelector);
        assert_eq!(stepped.policy, straight.policy);
        assert!(records_equal(&stepped.records, &straight.records));
    }

    #[test]
    fn lockstep_checkpoint_resume_is_bit_identical() {
        let config = SimConfig::tiny_test(5);
        // Uninterrupted reference.
        let mut reference = ExperimentRun::new(&config, &RandomSelector, None).unwrap();
        while reference.step().unwrap().is_some() {}
        let reference = reference.into_result();

        // Kill after 3 records, resume from the snapshot.
        let mut first = ExperimentRun::new(&config, &RandomSelector, None).unwrap();
        for _ in 0..3 {
            first.step().unwrap().unwrap();
        }
        let snapshot = first.state_snapshot();
        drop(first);
        let mut resumed = ExperimentRun::resume(&config, &RandomSelector, None, &snapshot).unwrap();
        while resumed.step().unwrap().is_some() {}
        let resumed = resumed.into_result();
        assert!(records_equal(&reference.records, &resumed.records));
    }

    #[test]
    fn controller_grows_under_target_and_shrinks_over() {
        let config = SimConfig::tiny_test(1);
        let target = ConvergeTarget::EnergyBudget {
            joules_per_round: 100.0,
        };
        let mut ctrl = ConvergenceController::new(target, GlobalParams::new(8, 1, 6), &config);
        // Far over budget: K must shrink.
        for _ in 0..10 {
            ctrl.observe(&record_with_energy(500.0));
        }
        assert!(ctrl.params().num_participants < 6, "{:?}", ctrl.params());
        // Far under budget: K must recover and grow past the base.
        for _ in 0..40 {
            ctrl.observe(&record_with_energy(10.0));
        }
        assert!(ctrl.params().num_participants > 6, "{:?}", ctrl.params());
        // Never outside the valid range.
        assert!(ctrl.params().num_participants <= config.num_devices);
    }

    #[test]
    fn accuracy_floor_direction_matches_the_sign_convention() {
        let target = ConvergeTarget::AccuracyFloor { accuracy: 0.8 };
        let below = record_with_energy(1.0);
        let (actual, tgt) = target.get_actual_and_target(&below);
        assert!(actual < tgt, "below the floor must read as below target");
        let budget = ConvergeTarget::EnergyBudget {
            joules_per_round: 100.0,
        };
        let (actual, tgt) = budget.get_actual_and_target(&below);
        assert!(
            actual < tgt,
            "an under-budget round must read as below target (headroom to grow)"
        );
    }

    #[test]
    fn controlled_run_checkpoint_carries_the_controller() {
        let mut config = SimConfig::tiny_test(8);
        config.target_accuracy = Some(1.1); // record the full horizon
        config.max_rounds = 12;
        // tiny_test spends ~0.15 J/round at K=4; a 0.05 J budget is a
        // ~3× overshoot the controller must answer by shrinking K.
        let control = Some(ConvergeTarget::EnergyBudget {
            joules_per_round: 0.05,
        });
        let mut reference = ExperimentRun::new(&config, &RandomSelector, control).unwrap();
        while reference.step().unwrap().is_some() {}
        let final_k = reference.params().num_participants;
        assert!(
            final_k < 4,
            "an over-tight budget must shrink K from 4, got {final_k}"
        );
        let reference = reference.into_result();

        let mut first = ExperimentRun::new(&config, &RandomSelector, control).unwrap();
        for _ in 0..5 {
            first.step().unwrap().unwrap();
        }
        let snapshot = first.state_snapshot();
        let mut resumed =
            ExperimentRun::resume(&config, &RandomSelector, control, &snapshot).unwrap();
        while resumed.step().unwrap().is_some() {}
        assert!(records_equal(
            &reference.records,
            &resumed.into_result().records
        ));
    }

    #[test]
    fn a_non_finite_control_target_is_a_config_error() {
        let config = SimConfig::tiny_test(2);
        for target in [
            ConvergeTarget::EnergyBudget {
                joules_per_round: f64::NAN,
            },
            ConvergeTarget::AccuracyFloor {
                accuracy: f64::INFINITY,
            },
        ] {
            let err = ExperimentRun::new(&config, &RandomSelector, Some(target)).unwrap_err();
            assert!(
                matches!(err, ConfigError::BadControlTarget(_)),
                "got {err:?}"
            );
        }
    }

    #[test]
    fn resume_rejects_a_mismatched_policy_or_controller() {
        let config = SimConfig::tiny_test(2);
        let mut run = ExperimentRun::new(&config, &RandomSelector, None).unwrap();
        run.step().unwrap().unwrap();
        let snapshot = run.state_snapshot();

        let registry = baseline_registry();
        let other = registry.expect("Performance");
        let err = ExperimentRun::resume(&config, other, None, &snapshot).unwrap_err();
        assert!(err.to_string().contains("belongs to policy"), "{err}");

        let control = Some(ConvergeTarget::AccuracyFloor { accuracy: 0.5 });
        let err = ExperimentRun::resume(&config, &RandomSelector, control, &snapshot).unwrap_err();
        assert!(err.to_string().contains("controller"), "{err}");
    }

    #[test]
    fn serve_once_drains_a_queued_job() {
        let root = std::env::temp_dir().join(format!("autofl-serve-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(root.join("queue")).unwrap();
        let mut config = SimConfig::tiny_test(4);
        config.max_rounds = 3;
        config.target_accuracy = Some(1.1);
        let spec = ExperimentSpec::new("smoke", config, ["FedAvg-Random", "Performance"], 2);
        std::fs::write(root.join("queue/smoke.json"), spec.to_json()).unwrap();

        let opts = ServeOptions {
            once: true,
            ..ServeOptions::new(&root)
        };
        let report = serve(&baseline_registry(), &opts).unwrap();
        assert_eq!(
            report,
            ServeReport {
                jobs: 1,
                units: 4,
                failed: 0
            }
        );
        // The queue entry became a finished job with traces + summary.
        assert!(!root.join("queue/smoke.json").exists());
        assert!(!root.join("active/smoke").exists());
        let done = root.join("done/smoke");
        assert!(done.join("spec.json").is_file());
        assert!(done.join("summary.json").is_file());
        for unit in [
            "FedAvg-Random-r0",
            "Performance-r0",
            "FedAvg-Random-r1",
            "Performance-r1",
        ] {
            let trace = done.join("traces").join(format!("{unit}.jsonl"));
            let text = std::fs::read_to_string(&trace).unwrap();
            assert_eq!(text.lines().count(), 3, "{unit} should run 3 rounds");
        }
        // Checkpoints of completed units are cleaned up with the job.
        assert!(!done.join("state").exists());

        // The trace bytes equal a straight in-process run of the same unit.
        let mut config = spec.config.clone();
        config.seed = spec.config.seed.wrapping_add(1);
        let result = crate::policy::run_policy(&config, &RandomSelector);
        let expected: String = result
            .records
            .iter()
            .map(|r| format!("{}\n", serde_json::to_string(r).unwrap()))
            .collect();
        let trace = done.join("traces/FedAvg-Random-r1.jsonl");
        assert_eq!(std::fs::read_to_string(trace).unwrap(), expected);
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn a_restart_keeps_the_units_a_job_already_finished() {
        let root = std::env::temp_dir().join(format!("autofl-serve-marker-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let mut config = SimConfig::tiny_test(6);
        config.max_rounds = 4;
        config.target_accuracy = Some(1.1);
        let spec = ExperimentSpec::new("marker", config, ["FedAvg-Random", "Performance"], 1);
        let registry = baseline_registry();
        let read = |path: PathBuf| std::fs::read_to_string(path).unwrap();
        let once = |root: PathBuf| ServeOptions {
            once: true,
            ..ServeOptions::new(root)
        };
        // The job as a daemon under `root` left it in `active/`.
        let active_job = |root: &Path| {
            let job = root.join("active/marker");
            std::fs::create_dir_all(job.join("traces")).unwrap();
            std::fs::create_dir_all(job.join("state")).unwrap();
            std::fs::write(job.join("spec.json"), spec.to_json()).unwrap();
            job
        };

        let straight = root.join("straight");
        std::fs::create_dir_all(straight.join("queue")).unwrap();
        std::fs::write(straight.join("queue/marker.json"), spec.to_json()).unwrap();
        serve(&registry, &once(straight.clone())).unwrap();

        let restarted = root.join("restarted");
        let job = active_job(&restarted);
        let policies = spec.resolve(&registry).unwrap();
        let opts = once(restarted.clone());
        run_unit(&spec, policies[0], 0, &job, &opts, &AtomicUsize::new(0)).unwrap();
        assert!(job.join("state/FedAvg-Random-r0.summary.json").is_file());
        assert!(!job.join("state/FedAvg-Random-r0.ckpt.json").exists());
        std::fs::write(job.join("traces/FedAvg-Random-r0.jsonl"), "sentinel\n").unwrap();
        let report = serve(&registry, &opts).unwrap();
        assert_eq!(
            report,
            ServeReport {
                jobs: 1,
                units: 2,
                failed: 0
            }
        );
        let (done, reference) = (restarted.join("done/marker"), straight.join("done/marker"));
        assert_eq!(
            read(done.join("traces/FedAvg-Random-r0.jsonl")),
            "sentinel\n"
        );
        for file in ["summary.json", "traces/Performance-r0.jsonl"] {
            assert_eq!(read(done.join(file)), read(reference.join(file)), "{file}");
        }

        // A marker that names another unit is refused, not trusted.
        let mismatched = root.join("mismatched");
        let job = active_job(&mismatched);
        let rows: Vec<UnitSummary> =
            serde_json::from_str(&read(reference.join("summary.json"))).unwrap();
        let summary = UnitSummary {
            seed: 7,
            ..rows[0].clone()
        };
        std::fs::write(
            job.join("state/FedAvg-Random-r0.summary.json"),
            serde_json::to_string_pretty(&summary).unwrap(),
        )
        .unwrap();
        let report = serve(&registry, &once(mismatched.clone())).unwrap();
        assert_eq!(
            report,
            ServeReport {
                jobs: 0,
                units: 0,
                failed: 1
            }
        );
        assert!(!mismatched.join("active/marker").exists());
        let error = read(mismatched.join("failed/marker/error.txt"));
        assert!(
            error.contains("at seed 7 marks the unit FedAvg-Random-r0 at seed 6"),
            "{error}"
        );
        let marker = mismatched.join("failed/marker/state/FedAvg-Random-r0.summary.json");
        assert!(
            error.contains(&format!("checkpoint {}: the summary", marker.display())),
            "{error}"
        );
        assert!(
            error.contains("delete that file to restart its unit from scratch"),
            "{error}"
        );
        std::fs::remove_dir_all(&root).unwrap();
    }

    /// Every file under `dir`, by path relative to it, with its bytes.
    fn files(dir: &Path) -> std::collections::BTreeMap<PathBuf, Vec<u8>> {
        let mut files = std::collections::BTreeMap::new();
        let mut dirs = vec![dir.to_path_buf()];
        while let Some(at) = dirs.pop() {
            for path in list_sorted(&at).unwrap() {
                if path.is_dir() {
                    dirs.push(path);
                } else {
                    let bytes = std::fs::read(&path).unwrap();
                    files.insert(path.strip_prefix(dir).unwrap().to_path_buf(), bytes);
                }
            }
        }
        files
    }

    #[test]
    fn a_refused_job_moves_to_failed_and_the_daemon_goes_on() {
        let root = std::env::temp_dir().join(format!("autofl-serve-failed-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let mut config = SimConfig::tiny_test(9);
        config.max_rounds = 3;
        config.target_accuracy = Some(1.1);
        let good = ExperimentSpec::new("good", config.clone(), ["FedAvg-Random"], 1);
        let fixed = ExperimentSpec::new("bad", config.clone(), ["FedAvg-Random"], 1);
        let bad = ExperimentSpec::new("bad", config, ["FedAvg-Random", "No-Such-Policy"], 1);
        let registry = baseline_registry();
        let serve_queue = |root: &Path, specs: &[(&str, &ExperimentSpec)]| {
            std::fs::create_dir_all(root.join("queue")).unwrap();
            for (name, spec) in specs {
                std::fs::write(root.join(format!("queue/{name}.json")), spec.to_json()).unwrap();
            }
            let opts = ServeOptions {
                once: true,
                ..ServeOptions::new(root)
            };
            serve(&registry, &opts).unwrap()
        };

        // The bad job sorts first, so the good one is served after it.
        let mixed = root.join("mixed");
        let report = serve_queue(&mixed, &[("a_bad", &bad), ("b_good", &good)]);
        assert_eq!(
            report,
            ServeReport {
                jobs: 1,
                units: 1,
                failed: 1
            }
        );
        assert_eq!(std::fs::read_dir(mixed.join("active")).unwrap().count(), 0);
        let failed_job = mixed.join("failed/a_bad");
        let error = std::fs::read_to_string(failed_job.join("error.txt")).unwrap();
        assert!(error.contains("No-Such-Policy"), "{error}");
        // The error names the spec where it now lives, never where it
        // was when it was refused.
        let spec_path = failed_job.join("spec.json");
        assert!(error.contains(&spec_path.display().to_string()), "{error}");
        assert!(!error.contains("active/a_bad"), "{error}");
        assert!(spec_path.is_file());

        // The retry error.txt states: fix the spec, move the directory
        // back into active/ and serve again.
        assert!(
            error.contains(&format!(
                "fix the spec, then move {} back into {}",
                failed_job.display(),
                mixed.join("active").display()
            )),
            "{error}"
        );
        std::fs::write(&spec_path, fixed.to_json()).unwrap();
        std::fs::rename(&failed_job, mixed.join("active/a_bad")).unwrap();
        let report = serve_queue(&mixed, &[]);
        assert_eq!(
            report,
            ServeReport {
                jobs: 1,
                units: 1,
                failed: 0
            }
        );

        // Both jobs end as a solo run of their (fixed) spec leaves them:
        // the same files with the same bytes, and no stale error.txt.
        let solo = root.join("solo");
        serve_queue(&solo, &[("a_bad", &fixed), ("b_good", &good)]);
        for job in ["done/a_bad", "done/b_good"] {
            assert_eq!(files(&mixed.join(job)), files(&solo.join(job)), "{job}");
        }
        std::fs::remove_dir_all(&root).unwrap();
    }
}
