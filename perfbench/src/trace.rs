//! Timing wrapper around the `Policy`/`Selector` seam.
//!
//! [`Timed`] wraps any registry policy. Every selector it mints forwards
//! to the wrapped policy's selector and records, into a shared
//! [`TraceLog`], the time of each `select` and `observe` call, the run's
//! lifetime (first selection to drop) and, for the AutoFL controller,
//! the controller's own §6.4 overhead counters and Q-table size. The
//! wrapper forwards `tune`, `state_snapshot` and `state_restore`, so a
//! wrapped run is the same computation as a bare one and checkpoints
//! still work.

use autofl_core::{AutoFl, AutoFlPolicy};
use autofl_fed::engine::SimConfig;
use autofl_fed::global::GlobalParams;
use autofl_fed::policy::Policy;
use autofl_fed::selection::{RoundContext, RoundFeedback, SelectionDecision, Selector};
use rand::rngs::SmallRng;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// The layer a policy's selection work belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SelectLayer {
    /// `fed::selection` baselines (Random, Power, Performance, clusters).
    Selection = 0,
    /// `fed::oracle` (`O_participant`, `O_FL`).
    Oracle = 1,
    /// `core::controller` (AutoFL).
    Controller = 2,
}

impl SelectLayer {
    pub fn of(policy: &str) -> Self {
        match policy {
            "AutoFL" => SelectLayer::Controller,
            "O_FL" | "O_participant" => SelectLayer::Oracle,
            _ => SelectLayer::Selection,
        }
    }
}

/// Total seconds over a number of calls.
#[derive(Debug, Clone, Copy, Default)]
pub struct Acc {
    pub total_s: f64,
    pub calls: usize,
}

impl Acc {
    fn add(&mut self, seconds: f64) {
        self.total_s += seconds;
        self.calls += 1;
    }

    pub fn mean_ms(&self) -> Option<f64> {
        (self.calls > 0).then(|| self.total_s * 1e3 / self.calls as f64)
    }
}

/// One finished run and the rounds it observed.
#[derive(Debug, Clone, Copy)]
pub struct RunSpan {
    /// Wall seconds from the first selection to the selector's drop: the
    /// run's rounds.
    pub seconds: f64,
    /// Wall seconds from minting the selector to its drop: the whole run,
    /// simulation set-up included.
    pub whole_seconds: f64,
    pub rounds: usize,
}

/// Everything the wrapped selectors recorded.
#[derive(Debug, Default)]
pub struct TraceLog {
    pub select: [Acc; 3],
    pub observe: [Acc; 3],
    /// AutoFL's `Overhead` per-round microseconds (observe, select,
    /// reward, update), weighted by rounds and summed over runs.
    pub overhead_us: [f64; 4],
    pub overhead_rounds: usize,
    /// Largest Q-table footprint seen at the end of a run.
    pub qtable_bytes: usize,
    pub runs: Vec<RunSpan>,
}

impl TraceLog {
    /// Mean AutoFL overhead per round in microseconds, by phase.
    pub fn overhead_per_round_us(&self) -> Option<[f64; 4]> {
        let n = self.overhead_rounds as f64;
        (self.overhead_rounds > 0).then(|| self.overhead_us.map(|us| us / n))
    }
}

pub type SharedLog = Arc<Mutex<TraceLog>>;

/// A registry policy behind the timing wrapper. With `calls` off, only
/// run lifetimes are recorded (two clock reads per run), which is how the
/// untraced sweep measures per-run latency.
pub struct Timed<'p> {
    inner: &'p dyn Policy,
    log: SharedLog,
    calls: bool,
}

impl<'p> Timed<'p> {
    pub fn new(inner: &'p dyn Policy, log: SharedLog, calls: bool) -> Self {
        Timed { inner, log, calls }
    }
}

impl Policy for Timed<'_> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn make_selector(&self) -> Box<dyn Selector> {
        // The AutoFL agent is built concretely (same hyper-parameters as
        // the registry's) so its overhead counters stay readable; every
        // other policy is wrapped as the trait object it mints.
        let inner = if self.inner.name() == "AutoFL" {
            Inner::AutoFl(Box::new(AutoFl::new(
                AutoFlPolicy::paper_default().config().clone(),
            )))
        } else {
            Inner::Other(self.inner.make_selector())
        };
        Box::new(TimedSelector {
            layer: SelectLayer::of(self.inner.name()) as usize,
            inner,
            log: Arc::clone(&self.log),
            calls: self.calls,
            minted: Instant::now(),
            born: None,
            rounds: 0,
        })
    }

    fn tune(&self, config: &SimConfig) -> Option<GlobalParams> {
        self.inner.tune(config)
    }
}

enum Inner {
    AutoFl(Box<AutoFl>),
    Other(Box<dyn Selector>),
}

struct TimedSelector {
    inner: Inner,
    layer: usize,
    log: SharedLog,
    calls: bool,
    minted: Instant,
    /// The first `select` call: a run's span covers its rounds, not the
    /// simulation set-up that precedes them.
    born: Option<Instant>,
    rounds: usize,
}

impl TimedSelector {
    fn selector(&mut self) -> &mut dyn Selector {
        match &mut self.inner {
            Inner::AutoFl(agent) => agent.as_mut(),
            Inner::Other(selector) => selector.as_mut(),
        }
    }

    fn selector_ref(&self) -> &dyn Selector {
        match &self.inner {
            Inner::AutoFl(agent) => agent.as_ref(),
            Inner::Other(selector) => selector.as_ref(),
        }
    }

    fn log(&self) -> std::sync::MutexGuard<'_, TraceLog> {
        self.log.lock().expect("trace log lock poisoned")
    }
}

impl Selector for TimedSelector {
    fn select(&mut self, ctx: &RoundContext<'_>, rng: &mut SmallRng) -> SelectionDecision {
        self.born.get_or_insert_with(Instant::now);
        if !self.calls {
            return self.selector().select(ctx, rng);
        }
        let t = Instant::now();
        let decision = self.selector().select(ctx, rng);
        let seconds = t.elapsed().as_secs_f64();
        let layer = self.layer;
        self.log().select[layer].add(seconds);
        decision
    }

    fn observe(&mut self, feedback: &RoundFeedback<'_>) {
        self.rounds += 1;
        if !self.calls {
            return self.selector().observe(feedback);
        }
        let t = Instant::now();
        self.selector().observe(feedback);
        let seconds = t.elapsed().as_secs_f64();
        let layer = self.layer;
        self.log().observe[layer].add(seconds);
    }

    fn name(&self) -> &'static str {
        self.selector_ref().name()
    }

    fn state_snapshot(&self) -> Option<serde::Value> {
        self.selector_ref().state_snapshot()
    }

    fn state_restore(&mut self, state: &serde::Value) -> Result<(), serde::Error> {
        self.selector().state_restore(state)
    }
}

impl Drop for TimedSelector {
    fn drop(&mut self) {
        let span = RunSpan {
            seconds: self.born.map_or(0.0, |t| t.elapsed().as_secs_f64()),
            whole_seconds: self.minted.elapsed().as_secs_f64(),
            rounds: self.rounds,
        };
        let agent = match &self.inner {
            Inner::AutoFl(agent) => Some((
                agent.overhead().per_round_us(),
                agent.overhead().rounds(),
                agent.memory_bytes(),
            )),
            Inner::Other(_) => None,
        };
        // Never panic in drop: a poisoned log just loses this run's span.
        let Ok(mut log) = self.log.lock() else {
            return;
        };
        log.runs.push(span);
        if let Some(((observe, select, reward, update), rounds, bytes)) = agent {
            let n = rounds as f64;
            for (slot, us) in log
                .overhead_us
                .iter_mut()
                .zip([observe, select, reward, update])
            {
                *slot += us * n;
            }
            log.overhead_rounds += rounds;
            log.qtable_bytes = log.qtable_bytes.max(bytes);
        }
    }
}
