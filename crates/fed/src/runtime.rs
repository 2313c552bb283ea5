//! The round driver: a deterministic discrete-event scheduler on logical
//! time.
//!
//! Every run advances through [`Simulation::step`]. A cohort's check-in,
//! selection and execution run at dispatch; its uploads and its
//! completion become *timestamped events* on a logical clock, with
//! durations from the per-device cost model. How the server folds
//! updates into the global model is the run's [`AsyncRuntime`]:
//!
//! - the **full barrier** ([`AsyncRuntime::barrier`], which
//!   [`crate::engine::SimConfig::runtime`] `= None` means) aggregates
//!   each cohort when its slowest survivor finishes, one cohort in
//!   flight: synchronous (lockstep) FedAvg;
//! - **buffered** aggregation is asynchronous, FedBuff-style: updates
//!   accumulate in a buffer of size `M` and each is discounted by its
//!   staleness (the number of global aggregation steps since its cohort
//!   was dispatched) with weight `1 / (1 + staleness)^a`.
//!
//! The event loop runs in-process on a [`std::collections::BinaryHeap`]
//! ordered by `(time, sequence)`; all stochastic inputs flow through the
//! engine's seeded streams, so the same seed reproduces a run bit for bit
//! at any `AUTOFL_THREADS` or shard count (see `docs/async-runtime.md`).

use crate::engine::{DispatchOutcome, RoundRecord, Simulation};
use crate::selection::Selector;
use autofl_device::fleet::DeviceId;
use serde::{Deserialize, Serialize};
use std::cmp::Reverse;
use std::collections::{BTreeMap, BTreeSet, BinaryHeap};

/// How the event scheduler aggregates.
///
/// Attach one to a simulation with
/// [`crate::builder::SimBuilder::runtime`] (or by setting
/// [`crate::engine::SimConfig::runtime`] on a profile); without one a run
/// uses [`AsyncRuntime::barrier`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AsyncRuntime {
    /// Server aggregation buffer size `M`: the global model folds in
    /// buffered updates as soon as `M` have arrived. `None` is the full
    /// barrier — each cohort aggregates exactly when its slowest
    /// surviving member finishes (synchronous FedAvg).
    pub buffer_size: Option<usize>,
    /// Staleness-discount exponent `a` in `1 / (1 + staleness)^a`.
    /// `0.0` weights every update fully regardless of staleness.
    pub staleness_exponent: f64,
    /// Number of cohorts in flight at once. The scheduler keeps this
    /// many dispatched: a new cohort starts the moment one completes.
    /// `1` is sequential dispatch.
    pub concurrent_cohorts: usize,
}

impl AsyncRuntime {
    /// The full barrier: aggregate each cohort exactly at its completion
    /// event, no staleness discount, one cohort in flight — synchronous
    /// (lockstep) FedAvg, and what runs when no runtime is configured.
    pub fn barrier() -> Self {
        AsyncRuntime {
            buffer_size: None,
            staleness_exponent: 0.0,
            concurrent_cohorts: 1,
        }
    }

    /// Buffered asynchronous aggregation: fold the global model forward
    /// whenever `buffer_size` updates have arrived, discounting each by
    /// `1 / (1 + staleness)^staleness_exponent`.
    pub fn buffered(buffer_size: usize, staleness_exponent: f64) -> Self {
        AsyncRuntime {
            buffer_size: Some(buffer_size),
            staleness_exponent,
            concurrent_cohorts: 1,
        }
    }

    /// Returns `self` with `cohorts` cohorts kept in flight at once.
    pub fn concurrent_cohorts(mut self, cohorts: usize) -> Self {
        self.concurrent_cohorts = cohorts;
        self
    }
}

/// The staleness discount `1 / (1 + staleness)^exponent` applied to an
/// update that waited `staleness` global aggregation steps in the buffer.
///
/// Exactly `1.0` (not merely approximately) when `staleness == 0` or
/// `exponent == 0.0`, so a fresh update's fraction passes through the
/// multiplication bit-unchanged — the identity the barrier's exact
/// aggregation rests on. Deterministic: a pure function of its arguments.
pub fn staleness_weight(staleness: u64, exponent: f64) -> f64 {
    if staleness == 0 || exponent == 0.0 {
        1.0
    } else {
        (1.0 + staleness as f64).powf(exponent).recip()
    }
}

/// What the scheduler does when an event fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
enum EventKind {
    /// One participant's update arrives at the server (buffered mode
    /// only; the barrier aggregates whole cohorts at `CohortDone`).
    Upload { round: usize, slot: usize },
    /// A cohort's slowest surviving member finished: close out the
    /// round — aggregate, advance lifecycles, emit the record.
    CohortDone { round: usize },
}

/// A timestamped event. Ordered by `(time, seq)`: `seq` is the global
/// scheduling counter, so simultaneous events fire in the deterministic
/// order they were scheduled (uploads before their cohort's completion).
#[derive(Debug, Clone, Serialize, Deserialize)]
struct Event {
    time: f64,
    seq: u64,
    kind: EventKind,
}

impl PartialEq for Event {
    fn eq(&self, other: &Self) -> bool {
        self.seq == other.seq
    }
}
impl Eq for Event {}
impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Event {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.time
            .total_cmp(&other.time)
            .then_with(|| self.seq.cmp(&other.seq))
    }
}

/// A dispatched cohort waiting for its events to fire.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct InFlight {
    /// Global aggregation version at dispatch; staleness of this
    /// cohort's updates is measured against it.
    version_at_dispatch: u64,
    /// Sum of the staleness values its aggregated updates carried.
    staleness_sum: f64,
    /// How many of its updates have been folded into the global model.
    aggregated: usize,
    /// The cohort's execution outcome and its record, held until
    /// completion.
    outcome: DispatchOutcome,
}

impl InFlight {
    /// The update participant `slot` delivers.
    fn update(&self, slot: usize) -> BufferedUpdate {
        let record = &self.outcome.record;
        BufferedUpdate {
            round: record.round,
            slot,
            id: record.participants[slot],
            fraction: record.update_fractions[slot],
        }
    }

    /// Every surviving update, in slot order: the barrier's closing
    /// aggregation input.
    fn survivors(&self) -> Vec<BufferedUpdate> {
        let record = &self.outcome.record;
        (0..record.participants.len())
            .filter(|&slot| record.update_fractions[slot] > 0.0)
            .map(|slot| self.update(slot))
            .collect()
    }

    /// Rejects a restored cohort whose per-participant columns disagree
    /// in length, that names a device outside a fleet of `devices` or a
    /// participant twice (the fleet store walks a completed cohort's
    /// participants in id order, one lane each), or that claims a
    /// dispatch version later than `version`. The record's
    /// completion-time fields are not checked: completion overwrites
    /// them.
    fn check(&self, devices: usize, version: u64) -> Result<(), serde::Error> {
        let o = &self.outcome;
        let r = &o.record;
        let err = |msg: String| serde::Error::custom(format!("round {}: {msg}", r.round));
        let n = r.participants.len();
        let columns = [
            r.plans.len(),
            o.completion.len(),
            r.update_fractions.len(),
            o.per_participant_energy.len(),
        ];
        if columns.iter().any(|&len| len != n) {
            return Err(err(format!(
                "per-participant columns {columns:?} do not match {n} participants"
            )));
        }
        let mut ids = r.participants.iter().chain(&r.dropped).chain(&r.dropouts);
        if let Some(id) = ids.find(|id| id.0 >= devices) {
            return Err(err(format!(
                "device {} is outside the {devices}-device fleet",
                id.0
            )));
        }
        let mut sorted: Vec<usize> = r.participants.iter().map(|id| id.0).collect();
        sorted.sort_unstable();
        if let Some(pair) = sorted.windows(2).find(|pair| pair[0] == pair[1]) {
            return Err(err(format!("device {} is a participant twice", pair[0])));
        }
        if self.version_at_dispatch > version {
            return Err(err(format!(
                "dispatched at version {} after the current version {version}",
                self.version_at_dispatch
            )));
        }
        Ok(())
    }
}

/// One update waiting in the server's aggregation buffer.
#[derive(Debug, Clone, Copy)]
struct BufferedUpdate {
    round: usize,
    slot: usize,
    id: DeviceId,
    fraction: f64,
}

/// The scheduler state that carries over between two
/// [`Simulation::step`] calls: pending events, cohorts in flight and the
/// dispatch cursor. The aggregation buffer is not part of it: every
/// cohort completion drains the buffer, so it is empty whenever a step
/// returns.
#[derive(Debug)]
pub(crate) struct Scheduler {
    heap: BinaryHeap<Reverse<Event>>,
    /// Sequence number of the next scheduled event.
    seq: u64,
    in_flight: BTreeMap<usize, InFlight>,
    /// Global aggregation version: the number of flushes applied so far.
    version: u64,
    /// The next round to dispatch.
    next_round: usize,
    /// Cleared once a record reaches the accuracy target: cohorts in
    /// flight drain, no new ones start.
    dispatching: bool,
    /// Logical time of the latest cohort completion, where top-up
    /// dispatches start.
    last_completion_s: f64,
}

impl Scheduler {
    /// A scheduler with nothing dispatched, at logical time zero.
    pub(crate) fn new() -> Self {
        Scheduler {
            heap: BinaryHeap::new(),
            seq: 0,
            in_flight: BTreeMap::new(),
            version: 0,
            next_round: 0,
            dispatching: true,
            last_completion_s: 0.0,
        }
    }

    fn schedule(&mut self, time: f64, kind: EventKind) {
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Reverse(Event { time, seq, kind }));
    }

    /// Puts a cohort dispatched at logical time `at` in flight, stamping
    /// its record's dispatch time: its surviving uploads (buffered mode
    /// only) and its completion land on the heap at their cost-model
    /// times.
    fn launch(&mut self, mut outcome: DispatchOutcome, at: f64, buffered: bool) {
        let record = &mut outcome.record;
        record.dispatch_time_s = at;
        let round = record.round;
        if buffered {
            // Uploads are scheduled before the cohort's completion so
            // an upload tied with CohortDone at the same instant (the
            // slowest survivor's own update) is buffered first.
            for slot in 0..record.participants.len() {
                if record.update_fractions[slot] > 0.0 {
                    self.schedule(
                        at + outcome.completion[slot],
                        EventKind::Upload { round, slot },
                    );
                }
            }
        }
        self.schedule(at + record.round_time_s, EventKind::CohortDone { round });
        self.in_flight.insert(
            round,
            InFlight {
                version_at_dispatch: self.version,
                staleness_sum: 0.0,
                aggregated: 0,
                outcome,
            },
        );
    }

    /// Cohorts dispatched and completed so far: each one emitted a
    /// record.
    pub(crate) fn completed_cohorts(&self) -> usize {
        self.next_round - self.in_flight.len()
    }

    /// Serializes the full scheduler state — pending events in pop
    /// order, cohorts in flight with their execution outcomes, the
    /// version and the dispatch cursor.
    pub(crate) fn state_snapshot(&self) -> serde::Value {
        let mut events: Vec<&Event> = self.heap.iter().map(|Reverse(e)| e).collect();
        events.sort();
        let in_flight: Vec<&InFlight> = self.in_flight.values().collect();
        serde::Value::Map(vec![
            ("seq".to_string(), self.seq.to_value()),
            ("version".to_string(), self.version.to_value()),
            ("events".to_string(), events.to_value()),
            ("in_flight".to_string(), in_flight.to_value()),
            ("next_round".to_string(), self.next_round.to_value()),
            ("dispatching".to_string(), self.dispatching.to_value()),
            (
                "last_completion_s".to_string(),
                self.last_completion_s.to_value(),
            ),
        ])
    }

    /// Rebuilds a scheduler from [`Scheduler::state_snapshot`] output for
    /// a fleet of `devices`. A checkpoint can pass its digest and still
    /// be inconsistent, so everything [`Simulation::step`] will index is
    /// checked here: every cohort in flight must pass [`InFlight::check`]
    /// and be one of the `next_round` dispatched so far; every pending
    /// event must name a cohort in flight (and an upload a slot inside
    /// its participant list) and carry a distinct `seq` below the
    /// restored one; and every cohort must have exactly one
    /// `CohortDone`, ordered after each of its uploads — as
    /// [`Scheduler::launch`] schedules them.
    pub(crate) fn restore(value: &serde::Value, devices: usize) -> Result<Self, serde::Error> {
        let version: u64 = serde::field(value, "version")?;
        let next_round: usize = serde::field(value, "next_round")?;
        let mut in_flight = BTreeMap::new();
        for fl in serde::field::<Vec<InFlight>>(value, "in_flight")? {
            fl.check(devices, version).map_err(|e| e.at("in_flight"))?;
            let round = fl.outcome.record.round;
            if round >= next_round {
                return Err(serde::Error::custom(format!(
                    "round {round} is in flight but only {next_round} rounds were dispatched"
                ))
                .at("in_flight"));
            }
            if in_flight.insert(round, fl).is_some() {
                return Err(
                    serde::Error::custom(format!("round {round} is in flight twice"))
                        .at("in_flight"),
                );
            }
        }
        let seq: u64 = serde::field(value, "seq")?;
        let events: Vec<Event> = serde::field(value, "events")?;
        let dangling = events.iter().find(|e| match e.kind {
            EventKind::Upload { round, slot } => !in_flight
                .get(&round)
                .is_some_and(|fl| slot < fl.outcome.record.participants.len()),
            EventKind::CohortDone { round } => !in_flight.contains_key(&round),
        });
        if let Some(event) = dangling {
            return Err(serde::Error::custom(format!(
                "{:?} names no cohort slot in flight",
                event.kind
            ))
            .at("events"));
        }
        let mut seqs = BTreeSet::new();
        if let Some(event) = events.iter().find(|e| e.seq >= seq || !seqs.insert(e.seq)) {
            return Err(serde::Error::custom(format!(
                "event seq {} repeats or is not below the next seq {seq}",
                event.seq
            ))
            .at("events"));
        }
        for &round in in_flight.keys() {
            let of_round = |e: &&Event| match e.kind {
                EventKind::Upload { round: r, .. } | EventKind::CohortDone { round: r } => {
                    r == round
                }
            };
            let mut dones = events
                .iter()
                .filter(of_round)
                .filter(|e| matches!(e.kind, EventKind::CohortDone { .. }));
            let (Some(done), None) = (dones.next(), dones.next()) else {
                return Err(serde::Error::custom(format!(
                    "round {round} is in flight without exactly one CohortDone"
                ))
                .at("events"));
            };
            if events.iter().filter(of_round).any(|e| e > done) {
                return Err(serde::Error::custom(format!(
                    "an upload of round {round} fires after its CohortDone"
                ))
                .at("events"));
            }
        }
        Ok(Scheduler {
            heap: events.into_iter().map(Reverse).collect(),
            seq,
            in_flight,
            version,
            next_round,
            dispatching: serde::field(value, "dispatching")?,
            last_completion_s: serde::field(value, "last_completion_s")?,
        })
    }
}

impl Simulation {
    /// Advances the run to its next record: tops the pipeline up to the
    /// runtime's `concurrent_cohorts` dispatches at the time of the
    /// latest completion, then fires events until a cohort completes,
    /// and returns that cohort's record. Returns `None` once the run is
    /// over — the accuracy target was reached or `max_rounds` cohorts
    /// were dispatched, and every cohort in flight has completed.
    ///
    /// Dispatching at the start of the call, not at the end of the
    /// previous one, means whatever the caller changes between two
    /// records (a convergence controller retuning `K` through
    /// [`Simulation::set_params`]) reaches the very next cohort.
    ///
    /// ```
    /// use autofl_fed::engine::{SimConfig, Simulation};
    /// use autofl_fed::selection::RandomSelector;
    ///
    /// let mut config = SimConfig::tiny_test(1);
    /// config.max_rounds = 3;
    /// config.target_accuracy = Some(1.1); // never converge: run the horizon
    /// let mut sim = Simulation::new(config);
    /// let mut selector = RandomSelector::new();
    /// let mut rounds = Vec::new();
    /// while let Some(record) = sim.step(&mut selector) {
    ///     rounds.push(record.round);
    /// }
    /// assert_eq!(rounds, [0, 1, 2]);
    /// assert!(sim.step(&mut selector).is_none(), "a finished run stays finished");
    /// ```
    pub fn step(&mut self, selector: &mut dyn Selector) -> Option<RoundRecord> {
        let rt = self.config().runtime.unwrap_or_else(AsyncRuntime::barrier);
        while self.sched.dispatching
            && self.sched.next_round < self.config().max_rounds
            && self.sched.in_flight.len() < rt.concurrent_cohorts.max(1)
        {
            let round = self.sched.next_round;
            let outcome = self.dispatch_round(selector, round);
            self.sched.next_round += 1;
            let at = self.sched.last_completion_s;
            self.sched.launch(outcome, at, rt.buffer_size.is_some());
        }
        let mut buffer = Vec::new();
        while let Some(Reverse(event)) = self.sched.heap.pop() {
            match event.kind {
                EventKind::Upload { round, slot } => {
                    buffer.push(self.sched.in_flight[&round].update(slot));
                    if rt.buffer_size.is_some_and(|m| buffer.len() >= m) {
                        self.flush(std::mem::take(&mut buffer), rt.staleness_exponent);
                    }
                }
                EventKind::CohortDone { round } => {
                    // The closing aggregation step: the cohort's own
                    // survivors under a barrier; everything still buffered
                    // (this cohort's tail plus any other cohort's early
                    // uploads) under buffered aggregation.
                    let entries = match rt.buffer_size {
                        None => self.sched.in_flight[&round].survivors(),
                        Some(_) => std::mem::take(&mut buffer),
                    };
                    let accuracy = self.flush(entries, rt.staleness_exponent);
                    let mut fl = self
                        .sched
                        .in_flight
                        .remove(&round)
                        .expect("completed cohort is in flight");
                    let record = &mut fl.outcome.record;
                    record.accuracy = accuracy;
                    record.logical_time_s = event.time;
                    record.mean_staleness = if fl.aggregated > 0 {
                        fl.staleness_sum / fl.aggregated as f64
                    } else {
                        0.0
                    };
                    self.sched.last_completion_s = event.time;
                    let record = self.complete_cohort(fl.outcome, selector);
                    if record.accuracy >= self.config().target() {
                        // Stop dispatching; cohorts already in flight
                        // drain to completion so no consumed device work
                        // is lost.
                        self.sched.dispatching = false;
                    }
                    return Some(record);
                }
            }
        }
        None
    }

    /// Folds `entries` into the global model as one aggregation step and
    /// returns the new accuracy. Entries are ordered by `(round, slot)`
    /// — dispatch order, never arrival order — so aggregation is
    /// independent of how uploads interleaved on the clock. Always
    /// aggregates, even with zero entries: the surrogate engine draws
    /// from its RNG once per aggregation step, so a fully dropped round
    /// still advances it exactly once.
    fn flush(&mut self, mut entries: Vec<BufferedUpdate>, staleness_exponent: f64) -> f64 {
        entries.sort_by_key(|e| (e.round, e.slot));
        let mut ids = Vec::with_capacity(entries.len());
        let mut fractions = Vec::with_capacity(entries.len());
        for e in &entries {
            let fl = self
                .sched
                .in_flight
                .get_mut(&e.round)
                .expect("buffered update from a cohort in flight");
            let staleness = self.sched.version - fl.version_at_dispatch;
            fl.staleness_sum += staleness as f64;
            fl.aggregated += 1;
            ids.push(e.id);
            // Both discounts are exactly 1.0 in their disabled cases
            // (fresh update / no fabric), so each multiply passes the
            // fraction through bit-unchanged. `codec_fidelity` is read
            // per entry: a mixed flush may span cohorts.
            fractions.push(
                e.fraction
                    * staleness_weight(staleness, staleness_exponent)
                    * fl.outcome.codec_fidelity,
            );
        }
        let accuracy = self.aggregate_update(ids, fractions);
        self.sched.version += 1;
        accuracy
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn staleness_weight_is_exactly_one_when_fresh_or_flat() {
        for exponent in [0.0, 0.3, 1.0, 2.5] {
            assert_eq!(staleness_weight(0, exponent).to_bits(), 1.0f64.to_bits());
        }
        for staleness in [0u64, 1, 5, 1000] {
            assert_eq!(staleness_weight(staleness, 0.0).to_bits(), 1.0f64.to_bits());
        }
    }

    #[test]
    fn staleness_weight_decays_monotonically() {
        let mut prev = staleness_weight(0, 0.5);
        for s in 1..20 {
            let w = staleness_weight(s, 0.5);
            assert!(w < prev, "weight must strictly decay at staleness {s}");
            assert!(w > 0.0);
            prev = w;
        }
    }

    #[test]
    fn events_order_by_time_then_sequence() {
        let mut heap = BinaryHeap::new();
        let k = EventKind::CohortDone { round: 0 };
        for (time, seq) in [(2.0, 0), (1.0, 2), (1.0, 1), (3.0, 3)] {
            heap.push(Reverse(Event { time, seq, kind: k }));
        }
        let order: Vec<u64> = std::iter::from_fn(|| heap.pop().map(|Reverse(e)| e.seq)).collect();
        assert_eq!(order, vec![1, 2, 0, 3]);
    }

    #[test]
    fn barrier_constructor_is_the_lockstep_special_case() {
        let rt = AsyncRuntime::barrier();
        assert_eq!(rt.buffer_size, None);
        assert_eq!(rt.staleness_exponent, 0.0);
        assert_eq!(rt.concurrent_cohorts, 1);
        let buffered = AsyncRuntime::buffered(8, 0.5).concurrent_cohorts(3);
        assert_eq!(buffered.buffer_size, Some(8));
        assert_eq!(buffered.concurrent_cohorts, 3);
    }
}
