//! Kill-and-resume bit-identity of the checkpoint/resume service.
//!
//! The contract under test (`docs/serving.md`): interrupting a run at any
//! round, serializing its state through the checkpoint envelope, and
//! resuming in a fresh process state must reproduce the *exact* JSONL
//! trace of a run that was never interrupted — same bytes, under every
//! combination of worker threads, shard counts, fleet dynamics, the
//! buffered async runtime and the network fabric.

mod common;

use autofl_core::policy::{standard_registry, AutoFlPolicy};
use autofl_core::{AutoFlConfig, QSharing};
use autofl_fed::engine::{RoundRecord, SimConfig};
use autofl_fed::fabric::{LinkModel, NetworkFabric};
use autofl_fed::fleet::FleetDynamics;
use autofl_fed::policy::Policy;
use autofl_fed::runtime::AsyncRuntime;
use autofl_fed::selection::RandomSelector;
use autofl_fed::serve::{
    payload_digest, read_checkpoint, write_checkpoint, ConvergeTarget, ExperimentRun, ServeError,
    CHECKPOINT_VERSION,
};
use common::fnv1a_hex;

/// The golden file of checkpoint-file digests, keyed by run label.
const CHECKPOINT_DIGESTS: &str = "tests/specs/checkpoint_digests.json";

/// The golden file of AutoFL run digests for the controller
/// configurations the other goldens leave out: each case's trace and its
/// learned-state snapshots under separate keys.
const AUTOFL_DIGESTS: &str = "tests/specs/autofl_digests.json";

/// Runs `f` with `AUTOFL_THREADS` pinned to `threads`, restoring the
/// previous value afterwards (same idiom as tests/determinism.rs: thread
/// count must never affect results, only scheduling).
fn with_threads<R>(threads: usize, f: impl FnOnce() -> R) -> R {
    let prev = std::env::var("AUTOFL_THREADS").ok();
    std::env::set_var("AUTOFL_THREADS", threads.to_string());
    rayon::refresh_thread_count();
    let result = f();
    match prev {
        Some(v) => std::env::set_var("AUTOFL_THREADS", v),
        None => std::env::remove_var("AUTOFL_THREADS"),
    }
    rayon::refresh_thread_count();
    result
}

/// The trace as `spec_serve` streams it: one JSON line per record, in
/// emission order. Byte equality here is byte equality of trace files.
fn trace(records: &[RoundRecord]) -> String {
    records
        .iter()
        .map(|r| format!("{}\n", serde_json::to_string(r).expect("record serializes")))
        .collect()
}

/// A small config with everything turned on: fleet dynamics, the network
/// fabric, `shards` fleet shards, fixed horizon.
fn full_config(seed: u64, shards: usize) -> SimConfig {
    let mut config = SimConfig::tiny_test(seed);
    config.shards = shards;
    config.fleet = Some(FleetDynamics::realistic());
    config.network = Some(NetworkFabric::new(LinkModel::calm()));
    config.max_rounds = 10;
    config.target_accuracy = Some(1.1);
    config
}

/// Reference trace of an uninterrupted run, and the resumed trace of the
/// same run killed after `stop_after` records — the checkpoint travels
/// through the on-disk envelope (digest and all), not just memory.
fn interrupted_vs_straight(
    config: &SimConfig,
    policy: &dyn Policy,
    control: Option<ConvergeTarget>,
    stop_after: usize,
) -> (String, String) {
    let mut straight = ExperimentRun::new(config, policy, control).expect("config validates");
    while straight.step().expect("no observers").is_some() {}
    let reference = trace(straight.records());

    let mut first = ExperimentRun::new(config, policy, control).expect("config validates");
    for _ in 0..stop_after {
        first
            .step()
            .expect("no observers")
            .expect("interrupt point is before the end of the run");
    }
    let dir = std::env::temp_dir().join(format!(
        "autofl-ckpt-test-{}-{}",
        std::process::id(),
        config.seed
    ));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("unit.ckpt.json");
    write_checkpoint(&path, first.state_snapshot()).expect("checkpoint writes");
    drop(first); // the "killed" process

    let payload = read_checkpoint(&path).expect("checkpoint validates");
    let mut resumed =
        ExperimentRun::resume(config, policy, control, &payload).expect("checkpoint restores");
    while resumed.step().expect("no observers").is_some() {}
    let resumed = trace(resumed.records());
    std::fs::remove_dir_all(&dir).unwrap();
    (reference, resumed)
}

#[test]
fn lockstep_resume_is_bit_identical_across_threads_and_shards() {
    for threads in [1, 4] {
        for shards in [1, 4] {
            with_threads(threads, || {
                let config = full_config(11, shards);
                for stop_after in [1, 5] {
                    let (reference, resumed) =
                        interrupted_vs_straight(&config, &RandomSelector, None, stop_after);
                    assert_eq!(
                        reference, resumed,
                        "trace diverged: threads={threads} shards={shards} stop={stop_after}"
                    );
                }
            });
        }
    }
}

#[test]
fn event_driven_buffered_resume_is_bit_identical() {
    for threads in [1, 4] {
        for shards in [1, 4] {
            with_threads(threads, || {
                let mut config = full_config(23, shards);
                config.runtime = Some(AsyncRuntime::buffered(2, 1.0).concurrent_cohorts(2));
                for stop_after in [1, 4] {
                    let (reference, resumed) =
                        interrupted_vs_straight(&config, &RandomSelector, None, stop_after);
                    assert_eq!(
                        reference, resumed,
                        "trace diverged: threads={threads} shards={shards} stop={stop_after}"
                    );
                }
            });
        }
    }
}

/// The entry `key` of a map inside a checkpoint payload.
fn entry<'v>(value: &'v mut serde_json::Value, key: &str) -> &'v mut serde_json::Value {
    match value {
        serde_json::Value::Map(entries) => {
            &mut entries
                .iter_mut()
                .find(|(k, _)| k == key)
                .unwrap_or_else(|| panic!("no `{key}` entry"))
                .1
        }
        other => panic!("expected a map holding `{key}`, found {}", other.kind()),
    }
}

/// A checkpoint can pass its digest and still be inconsistent. Steps a
/// pipelined buffered run of `policy` for `records` records (two cohorts
/// dispatched, one still in flight), lets `corrupt` edit its payload,
/// re-envelopes the payload so the digest matches, and returns the error
/// resuming yields — resume must refuse the state as a
/// [`ServeError::Checkpoint`] instead of panicking in a later step.
fn corrupted_resume_error(
    label: &str,
    policy: &dyn Policy,
    records: usize,
    corrupt: impl FnOnce(&mut serde_json::Value),
) -> String {
    corrupted_resume_error_when(label, policy, |run| run.records().len() == records, corrupt)
}

/// [`corrupted_resume_error`] of the run stepped until `ready` holds.
fn corrupted_resume_error_when(
    label: &str,
    policy: &dyn Policy,
    ready: impl Fn(&ExperimentRun) -> bool,
    corrupt: impl FnOnce(&mut serde_json::Value),
) -> String {
    let mut config = full_config(29, 1);
    config.runtime = Some(AsyncRuntime::buffered(2, 1.0).concurrent_cohorts(2));
    let mut run = ExperimentRun::new(&config, policy, None).expect("config validates");
    while !ready(&run) {
        run.step().expect("no observers").expect("a record");
    }
    let mut payload = run.state_snapshot();
    corrupt(&mut payload);

    let dir = std::env::temp_dir().join(format!("autofl-ckpt-{label}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("unit.ckpt.json");
    write_checkpoint(&path, payload).expect("checkpoint writes");
    let payload = read_checkpoint(&path).expect("the digest still matches");
    std::fs::remove_dir_all(&dir).unwrap();
    let err = ExperimentRun::resume(&config, policy, None, &payload)
        .expect_err("an inconsistent checkpoint must not resume");
    assert!(matches!(err, ServeError::Checkpoint { .. }), "{err:?}");
    err.to_string()
}

/// [`corrupted_resume_error`] of a FedAvg-Random run stepped until a
/// cohort is in flight with an upload still pending, with `corrupt`
/// editing its scheduler state. Every edit below needs that state, and
/// which record first holds it follows the run's draws.
fn resume_error(label: &str, corrupt: impl FnOnce(&mut serde_json::Value)) -> String {
    corrupted_resume_error_when(
        label,
        &RandomSelector,
        |run| {
            let mut payload = run.state_snapshot();
            let scheduler = entry(entry(&mut payload, "sim"), "scheduler");
            items(entry(scheduler, "events"))
                .iter()
                .any(|e| serde_json::to_string(e).unwrap().contains("Upload"))
        },
        |payload| corrupt(entry(entry(payload, "sim"), "scheduler")),
    )
}

/// [`corrupted_resume_error`] of an AutoFL run after three records, with
/// `corrupt` editing its selector state (`tiny_test`: 12 devices).
fn selector_resume_error(label: &str, corrupt: impl FnOnce(&mut serde_json::Value)) -> String {
    let registry = standard_registry();
    corrupted_resume_error(label, registry.expect("AutoFL"), 3, |payload| {
        corrupt(entry(payload, "selector"))
    })
}

/// Cuts the sequence `value` to `len` items, or extends it with copies
/// of its last item.
fn resize(value: &mut serde_json::Value, len: usize) {
    let serde_json::Value::Seq(items) = value else {
        panic!("expected a sequence, found {}", value.kind());
    };
    let last = items.last().expect("a non-empty sequence").clone();
    items.resize(len, last);
}

#[test]
fn resume_rejects_an_event_for_a_cohort_not_in_flight() {
    let err = resume_error("event", |scheduler| {
        let serde_json::Value::Seq(events) = entry(scheduler, "events") else {
            panic!("events are a sequence");
        };
        let serde_json::Value::Map(kind) = entry(&mut events[0], "kind") else {
            panic!("event kinds are variant maps");
        };
        *entry(&mut kind[0].1, "round") = serde_json::Value::UInt(999);
    });
    assert!(err.contains("scheduler.events"), "{err}");
}

/// The events of a scheduler state, and the index of the first
/// `CohortDone` among them.
fn events_and_done(scheduler: &mut serde_json::Value) -> (&mut Vec<serde_json::Value>, usize) {
    let serde_json::Value::Seq(events) = entry(scheduler, "events") else {
        panic!("events are a sequence");
    };
    let done = events
        .iter()
        .position(|e| serde_json::to_string(e).unwrap().contains("CohortDone"))
        .expect("a cohort is in flight");
    (events, done)
}

#[test]
fn resume_rejects_event_seqs_no_run_could_assign() {
    let err = resume_error("seq-repeat", |scheduler| {
        let (events, _) = events_and_done(scheduler);
        let first = entry(&mut events[0], "seq").clone();
        *entry(&mut events[1], "seq") = first;
    });
    assert!(err.contains("sim.scheduler.events: event seq"), "{err}");
    assert!(
        err.contains("repeats or is not below the next seq"),
        "{err}"
    );
    let err = resume_error("seq-ahead", |scheduler| {
        let next = entry(scheduler, "seq").clone();
        let (events, _) = events_and_done(scheduler);
        *entry(&mut events[0], "seq") = next;
    });
    assert!(
        err.contains("repeats or is not below the next seq"),
        "{err}"
    );
}

#[test]
fn resume_rejects_a_cohort_without_exactly_one_completion() {
    let err = resume_error("done-missing", |scheduler| {
        let (events, done) = events_and_done(scheduler);
        events.remove(done);
    });
    assert!(err.contains("without exactly one CohortDone"), "{err}");
    let err = resume_error("done-twice", |scheduler| {
        let serde_json::Value::UInt(next) = *entry(scheduler, "seq") else {
            panic!("seq is an integer");
        };
        *entry(scheduler, "seq") = serde_json::Value::UInt(next + 1);
        let (events, done) = events_and_done(scheduler);
        let mut copy = events[done].clone();
        *entry(&mut copy, "seq") = serde_json::Value::UInt(next);
        events.push(copy);
    });
    assert!(err.contains("without exactly one CohortDone"), "{err}");
}

/// The variant name and round of a scheduler event.
fn event_kind(event: &mut serde_json::Value) -> (String, u64) {
    let serde_json::Value::Map(kind) = entry(event, "kind") else {
        panic!("event kinds are variant maps");
    };
    let (name, fields) = &mut kind[0];
    let serde_json::Value::UInt(round) = *entry(fields, "round") else {
        panic!("rounds are integers");
    };
    (name.clone(), round)
}

#[test]
fn resume_rejects_an_upload_that_fires_after_its_cohort_completes() {
    // A run schedules every upload before its cohort's `CohortDone`, at
    // a time no later than the round time; moved past it, the upload
    // used to fire into a cohort already removed and panic.
    let err = resume_error("late-upload", |scheduler| {
        let events = items(entry(scheduler, "events"));
        let kinds: Vec<(String, u64)> = events.iter_mut().map(event_kind).collect();
        let upload = kinds
            .iter()
            .position(|(name, _)| name == "Upload")
            .expect("an upload");
        let done = kinds
            .iter()
            .position(|(name, round)| name == "CohortDone" && *round == kinds[upload].1)
            .expect("the upload's cohort is in flight");
        let serde_json::Value::Float(end) = *entry(&mut events[done], "time") else {
            panic!("event times are floats");
        };
        *entry(&mut events[upload], "time") = serde_json::Value::Float(end + 1.0);
    });
    assert!(err.contains("fires after its CohortDone"), "{err}");
}

#[test]
fn resume_rejects_a_fleet_column_that_does_not_fit_its_shard() {
    // `full_config(29, 1)`: one shard of all 12 devices.
    for column in ["throttle", "charging", "foreground", "online", "eligible"] {
        for len in [11, 13] {
            let err = corrupted_resume_error(&format!("{column}-{len}"), &RandomSelector, 1, |p| {
                let fleet = entry(entry(p, "sim"), "fleet_state");
                let serde_json::Value::Seq(shards) = entry(fleet, "shards") else {
                    panic!("shards are a sequence");
                };
                resize(entry(&mut shards[0], column), len);
            });
            let expected = format!(
                "sim.fleet_state.shards[0]: column `{column}` holds {len} devices \
                 but the shard covers 12"
            );
            assert!(err.contains(&expected), "{err}");
        }
    }
}

#[test]
fn resume_rejects_parameters_the_config_rejects() {
    // `tiny_test`: 12 devices. Each of these used to resume and run on.
    for (label, field, value, expected) in [
        ("k-zero", "num_participants", 0, "must all be positive"),
        (
            "k-500",
            "num_participants",
            500,
            "exceeds the fleet of 12 devices",
        ),
        ("b-zero", "batch_size", 0, "must all be positive"),
    ] {
        let err = corrupted_resume_error(label, &RandomSelector, 1, |payload| {
            *entry(entry(entry(payload, "sim"), "params"), field) = serde_json::Value::UInt(value);
        });
        assert!(err.contains("sim.params: "), "{err}");
        assert!(err.contains(expected), "{err}");
    }
}

#[test]
fn resume_rejects_a_record_count_the_scheduler_does_not_match() {
    // After three records the trace holds three lines; a checkpoint
    // holding fewer used to resume and silently drop them.
    for (label, len) in [
        ("records-none", 0),
        ("records-short", 2),
        ("records-long", 4),
    ] {
        let err = corrupted_resume_error(label, &RandomSelector, 3, |payload| {
            resize(entry(payload, "records"), len);
        });
        let expected = format!("records: {len} records, but 3 cohorts have completed");
        assert!(err.contains(&expected), "{err}");
    }
}

#[test]
fn resume_rejects_a_participant_outside_the_fleet() {
    let err = resume_error("device", |scheduler| {
        let serde_json::Value::Seq(in_flight) = entry(scheduler, "in_flight") else {
            panic!("in_flight is a sequence");
        };
        let record = entry(entry(&mut in_flight[0], "outcome"), "record");
        let serde_json::Value::Seq(participants) = entry(record, "participants") else {
            panic!("participants are a sequence");
        };
        // `tiny_test` fleets hold devices 0..12.
        participants[0] = serde_json::Value::UInt(12);
    });
    assert!(err.contains("outside the 12-device fleet"), "{err}");
}

#[test]
fn resume_rejects_a_participant_named_twice() {
    // The fleet store applies a completed cohort's update to each
    // participant once, walking the participants in id order.
    let err = resume_error("twice", |scheduler| {
        let serde_json::Value::Seq(in_flight) = entry(scheduler, "in_flight") else {
            panic!("in_flight is a sequence");
        };
        let record = entry(entry(&mut in_flight[0], "outcome"), "record");
        let serde_json::Value::Seq(participants) = entry(record, "participants") else {
            panic!("participants are a sequence");
        };
        participants[1] = participants[0].clone();
    });
    assert!(err.contains("is a participant twice"), "{err}");
}

#[test]
fn resume_rejects_an_eligible_count_that_disagrees_with_its_column() {
    // `full_config(29, 1)`: one shard of all 12 devices. FedAvg-Random
    // draws its ranks below the summed counts and the rank lookup walks
    // each shard's count, so a count off by one either way must be
    // refused, not drawn from.
    for delta in [-1i64, 1] {
        let err = corrupted_resume_error(&format!("count{delta}"), &RandomSelector, 1, |p| {
            let fleet = entry(entry(p, "sim"), "fleet_state");
            let serde_json::Value::Seq(shards) = entry(fleet, "shards") else {
                panic!("shards are a sequence");
            };
            let count = entry(&mut shards[0], "eligible_count");
            let serde_json::Value::UInt(n) = *count else {
                panic!("the count is an integer");
            };
            *count = serde_json::Value::UInt(n.saturating_add_signed(delta));
        });
        assert!(
            err.contains("sim.fleet_state.shards[0]: eligible_count is")
                && err.contains("but column `eligible` holds"),
            "{err}"
        );
    }
}

#[test]
fn resume_rejects_in_flight_columns_that_disagree_with_the_cohort() {
    // The first in-flight cohort loses one entry of one column. Its
    // columns are checked in the order plans, completion times, update
    // fractions, energies; the round and the cohort size are read from
    // the snapshot being cut.
    for (at, (in_record, column)) in [
        (true, "plans"),
        (false, "completion"),
        (true, "update_fractions"),
        (false, "per_participant_energy"),
    ]
    .into_iter()
    .enumerate()
    {
        let mut cohort = None;
        let err = resume_error(&format!("short-{column}"), |scheduler| {
            let outcome = entry(&mut items(entry(scheduler, "in_flight"))[0], "outcome");
            let record = entry(outcome, "record");
            let serde_json::Value::UInt(round) = *entry(record, "round") else {
                panic!("the round is an integer");
            };
            cohort = Some((round, items(entry(record, "participants")).len()));
            let holder = if in_record { record } else { outcome };
            let len = items(entry(holder, column)).len();
            resize(entry(holder, column), len - 1);
        });
        let (round, n) = cohort.expect("a cohort in flight");
        let mut lengths = [n; 4];
        lengths[at] -= 1;
        let expected = format!(
            "sim.scheduler.in_flight: round {round}: per-participant columns {lengths:?} \
             do not match {n} participants"
        );
        assert!(err.contains(&expected), "{column}: {err}");
    }
}

#[test]
fn resume_rejects_a_dvfs_step_that_does_not_fit_a_byte() {
    let err = corrupted_resume_error("dvfs-step", &RandomSelector, 1, |payload| {
        let serde_json::Value::Seq(records) = entry(payload, "records") else {
            panic!("records are a sequence");
        };
        let serde_json::Value::Seq(plans) = entry(&mut records[0], "plans") else {
            panic!("plans are a sequence");
        };
        *entry(&mut plans[0], "freq_step") = serde_json::Value::UInt(256);
    });
    assert!(err.contains("256"), "{err}");
}

#[test]
fn resume_rejects_selector_state_that_does_not_fit_the_fleet() {
    // `tiny_test` fleets hold devices 0..12; resuming any of these used
    // to succeed, and the short ones panicked in a later step.
    for (label, len) in [("index-short", 3), ("index-long", 13)] {
        let err = selector_resume_error(label, |selector| {
            resize(entry(entry(selector, "tables"), "index"), len);
        });
        let expected = format!(
            "selector.tables.index: the Q-table index covers {len} devices but the fleet has 12"
        );
        assert!(err.contains(&expected), "{err}");
    }
    let err = selector_resume_error("pending-short", |selector| {
        let pending = first_pending(selector);
        resize(entry(pending, "locals"), 2);
        resize(entry(pending, "actions"), 2);
    });
    assert!(
        err.contains(
            "selector.pending[0].locals: the pending round covers 2 devices but the fleet has 12"
        ),
        "{err}"
    );
}

/// The items of the sequence `value`.
fn items(value: &mut serde_json::Value) -> &mut Vec<serde_json::Value> {
    match value {
        serde_json::Value::Seq(items) => items,
        other => panic!("expected a sequence, found {}", other.kind()),
    }
}

/// The first pending round of an AutoFL selector state.
fn first_pending(selector: &mut serde_json::Value) -> &mut serde_json::Value {
    let pending = items(entry(selector, "pending"));
    assert!(!pending.is_empty(), "a cohort is in flight");
    &mut pending[0]
}

#[test]
fn resume_rejects_a_pending_action_outside_the_action_space() {
    // An action index past the last action used to resume as a `Train`
    // action the Q-row has no slot for, and the next step panicked.
    let err = selector_resume_error("action-7", |selector| {
        items(entry(first_pending(selector), "actions"))[0] = serde_json::Value::UInt(7);
    });
    assert!(
        err.contains("selector.pending[0].actions[0]: action index 7 is outside the 7 actions"),
        "{err}"
    );
}

#[test]
fn resume_rejects_selector_columns_of_unequal_length() {
    for (label, expected) in [
        ("q", "selector.tables.q: "),
        ("rng", "selector.tables.rng: "),
        ("g", "selector.tables.rows: the row counts do not sum"),
        (
            "actions",
            "selector.pending[0].actions: 11 actions for 12 local states",
        ),
    ] {
        let err = selector_resume_error(&format!("short-{label}"), |selector| {
            let column = if label == "actions" {
                entry(first_pending(selector), label)
            } else {
                entry(entry(selector, "tables"), label)
            };
            let len = items(column).len();
            resize(column, len - 1);
        });
        assert!(err.contains(expected), "{label}: {err}");
    }
}

#[test]
fn resume_rejects_selector_keys_out_of_range() {
    use serde_json::Value::UInt;
    let err = selector_resume_error("g-range", |selector| {
        items(entry(entry(selector, "tables"), "g"))[0] = UInt(1 << 48);
    });
    assert!(
        err.contains("selector.tables.g[0]: 281474976710656 is not a packed global state"),
        "{err}"
    );
    let err = selector_resume_error("l-range", |selector| {
        items(entry(entry(selector, "tables"), "l"))[0] = UInt(1 << 40);
    });
    assert!(
        err.contains("selector.tables.l[0]: 1099511627776 is not a packed local state"),
        "{err}"
    );
    let err = selector_resume_error("local-range", |selector| {
        items(entry(first_pending(selector), "locals"))[0] = UInt(1 << 40);
    });
    assert!(
        err.contains("selector.pending[0].locals[0]: 1099511627776 is not a packed local state"),
        "{err}"
    );
    let err = selector_resume_error("index-range", |selector| {
        items(entry(entry(selector, "tables"), "index"))[0] = UInt(12);
    });
    assert!(
        err.contains("selector.tables.index: device maps to table 12 but only 12 tables exist"),
        "{err}"
    );
}

#[test]
fn resume_rejects_a_q_table_state_listed_twice() {
    let err = selector_resume_error("twice", |selector| {
        let tables = entry(selector, "tables");
        let rows: Vec<u64> = items(entry(tables, "rows"))
            .iter()
            .map(|n| match n {
                serde_json::Value::UInt(n) => *n,
                other => panic!("row counts are integers, found {}", other.kind()),
            })
            .collect();
        // The first table holding two rows: its first row's state, listed
        // again as its second.
        let table = rows
            .iter()
            .position(|&n| n >= 2)
            .expect("a table holds two rows");
        let first = rows[..table].iter().sum::<u64>() as usize;
        for column in ["g", "l"] {
            let column = items(entry(tables, column));
            column[first + 1] = column[first].clone();
        }
    });
    assert!(err.contains("selector.tables.l["), "{err}");
    assert!(err.contains("twice"), "{err}");
}

/// One step into a payload node: a map key or a sequence index.
#[derive(Debug, Clone)]
enum Step {
    Key(String),
    Index(usize),
}

/// The node of `value` at `path`.
fn node_mut<'v>(value: &'v mut serde_json::Value, path: &[Step]) -> &'v mut serde_json::Value {
    path.iter().fold(value, |node, step| match (node, step) {
        (serde_json::Value::Map(entries), Step::Key(key)) => {
            &mut entries
                .iter_mut()
                .find(|(k, _)| k == key)
                .expect("the path was read from this payload")
                .1
        }
        (serde_json::Value::Seq(items), Step::Index(i)) => &mut items[*i],
        (other, step) => panic!("{step:?} does not lead into a {}", other.kind()),
    })
}

/// Pushes the path of every node of `value` whose shape — its path with
/// every index above 0 read as `[i]` — is not in `seen` yet, in
/// pre-order, together with that shape.
fn distinct_shapes(
    value: &serde_json::Value,
    path: &mut Vec<Step>,
    shape: &str,
    seen: &mut std::collections::HashSet<String>,
    out: &mut Vec<(Vec<Step>, String)>,
) {
    if seen.insert(shape.to_string()) {
        out.push((path.clone(), shape.to_string()));
    }
    let children: Vec<(Step, String, &serde_json::Value)> = match value {
        serde_json::Value::Map(entries) => entries
            .iter()
            .map(|(k, v)| {
                let dot = if shape.is_empty() { "" } else { "." };
                (Step::Key(k.clone()), format!("{shape}{dot}{k}"), v)
            })
            .collect(),
        serde_json::Value::Seq(items) => items
            .iter()
            .enumerate()
            .map(|(i, v)| {
                let index = if i == 0 { "0" } else { "i" };
                (Step::Index(i), format!("{shape}[{index}]"), v)
            })
            .collect(),
        _ => Vec::new(),
    };
    for (step, shape, child) in children {
        path.push(step);
        distinct_shapes(child, path, &shape, seen, out);
        path.pop();
    }
}

/// The mutations the sweep applies to one node, each as a label and the
/// replacement node: a sequence is cut by one item and grown by a copy
/// of its last; with `scalars`, an unsigned integer becomes 0, +1,
/// +1000 and 2^40, a float −1, ±1e300 and 2x+1, and a bool flips.
fn mutations(node: &serde_json::Value, scalars: bool) -> Vec<(&'static str, serde_json::Value)> {
    use serde_json::Value as V;
    match node {
        V::Seq(items) if !items.is_empty() => {
            let cut = items[..items.len() - 1].to_vec();
            let mut grown = items.clone();
            grown.push(items[items.len() - 1].clone());
            vec![("cut by one", V::Seq(cut)), ("grown by one", V::Seq(grown))]
        }
        V::UInt(v) if scalars => vec![
            ("= 0", V::UInt(0)),
            ("+ 1", V::UInt(v.wrapping_add(1))),
            ("+ 1000", V::UInt(v.wrapping_add(1000))),
            ("= 2^40", V::UInt(1 << 40)),
        ],
        V::Float(x) if scalars => vec![
            ("= -1", V::Float(-1.0)),
            ("= 1e300", V::Float(1e300)),
            ("= -1e300", V::Float(-1e300)),
            ("= 2x+1", V::Float(2.0 * x + 1.0)),
        ],
        V::Bool(b) if scalars => vec![("flipped", V::Bool(!b))],
        _ => Vec::new(),
    }
}

/// Mutates the checkpoint of a pipelined buffered run of `policy` after
/// three records at every distinct node shape ([`distinct_shapes`],
/// [`mutations`]; `records` only as a sequence), re-envelopes each
/// payload and resumes it. Returns the number of cases and a line for
/// each case whose resume or resumed run panicked, or that did not step
/// to its end within 2,000 steps.
fn mutation_sweep(label: &str, policy: &dyn Policy) -> (usize, Vec<String>) {
    let mut config = full_config(29, 2);
    config.runtime = Some(AsyncRuntime::buffered(2, 1.0).concurrent_cohorts(2));
    let mut run = ExperimentRun::new(&config, policy, None).expect("config validates");
    for _ in 0..3 {
        run.step().expect("no observers").expect("a record");
    }
    let payload = run.state_snapshot();
    drop(run);
    let mut nodes = Vec::new();
    distinct_shapes(
        &payload,
        &mut Vec::new(),
        "",
        &mut Default::default(),
        &mut nodes,
    );

    let dir = std::env::temp_dir().join(format!("autofl-sweep-{label}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("unit.ckpt.json");
    let mut cases = 0;
    let mut failures = Vec::new();
    for (at, shape) in &nodes {
        let mut target = payload.clone();
        let scalars = !shape.starts_with("records");
        for (what, replacement) in mutations(node_mut(&mut target, at), scalars) {
            cases += 1;
            let mut mutated = target.clone();
            *node_mut(&mut mutated, at) = replacement;
            write_checkpoint(&path, mutated).expect("checkpoint writes");
            let restored = read_checkpoint(&path).expect("the digest still matches");
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let Ok(mut resumed) = ExperimentRun::resume(&config, policy, None, &restored)
                else {
                    return true;
                };
                (0..2_000).any(|_| resumed.step().expect("no observers").is_none())
            }));
            match outcome {
                Ok(true) => {}
                Ok(false) => failures.push(format!("{shape} {what}: ran past 2,000 steps")),
                Err(panic) => {
                    let message = panic
                        .downcast_ref::<String>()
                        .cloned()
                        .or_else(|| panic.downcast_ref::<&str>().map(|s| s.to_string()))
                        .unwrap_or_default();
                    failures.push(format!("{shape} {what}: panicked: {message}"));
                }
            }
        }
    }
    std::fs::remove_dir_all(&dir).unwrap();
    (cases, failures)
}

#[test]
fn mutated_checkpoints_are_refused_or_run_to_the_end() {
    // ROADMAP: a malformed checkpoint returns an error, never panics or
    // hangs. The digest cannot catch these: each mutated payload is
    // re-enveloped, as a hand-edited or buggy writer's file would be.
    let registry = standard_registry();
    let mut failures = Vec::new();
    for name in ["FedAvg-Random", "AutoFL", "O_FL"] {
        let (cases, failed) = mutation_sweep(name, registry.expect(name));
        assert!(cases > 100, "{name}: only {cases} mutations");
        failures.extend(failed.into_iter().map(|f| format!("{name}: {f}")));
    }
    assert!(
        failures.is_empty(),
        "{} mutated checkpoints failed:\n{}",
        failures.len(),
        failures.join("\n")
    );
}

#[test]
fn autofl_selector_state_survives_the_checkpoint() {
    // AutoFL carries the heaviest selector state — Q-tables, pending
    // rounds awaiting reward, its own RNG — all of which must round-trip.
    let registry = standard_registry();
    let policy = registry.expect("AutoFL");
    let config = full_config(37, 2);
    let (reference, resumed) = interrupted_vs_straight(&config, policy, None, 5);
    assert_eq!(reference, resumed, "AutoFL trace diverged after resume");
}

#[test]
fn controlled_run_resumes_on_the_same_control_trajectory() {
    let mut config = full_config(53, 1);
    config.max_rounds = 12;
    let control = Some(ConvergeTarget::EnergyBudget {
        joules_per_round: 0.05,
    });
    let (reference, resumed) = interrupted_vs_straight(&config, &RandomSelector, control, 6);
    assert_eq!(
        reference, resumed,
        "controller EMA/scale must continue, not restart, after resume"
    );
}

#[test]
fn a_checkpoint_with_the_parent_reward_layout_resumes_identically() {
    // Checkpoints of the same version written before Eq. (7) lost its
    // options hold eight keys under `resolved_reward`: α, β, the two
    // energy scales and four zero penalties. The reader looks each field
    // up by name, so such a file resumes on its two scales.
    let registry = standard_registry();
    let policy = registry.expect("AutoFL");
    let mut config = full_config(29, 1);
    config.runtime = Some(AsyncRuntime::buffered(2, 1.0).concurrent_cohorts(2));
    let snapshot_text = |run: &ExperimentRun| {
        serde_json::to_string(&run.state_snapshot()).expect("snapshot serializes")
    };
    let mut straight = ExperimentRun::new(&config, policy, None).expect("config validates");
    while straight.step().expect("no observers").is_some() {}

    let mut first = ExperimentRun::new(&config, policy, None).expect("config validates");
    for _ in 0..3 {
        first.step().expect("no observers").expect("a record");
    }
    let mut payload = first.state_snapshot();
    let scales = entry(entry(&mut payload, "selector"), "resolved_reward");
    let global = entry(scales, "global_energy_scale_j").clone();
    let local = entry(scales, "local_energy_scale_j").clone();
    let float = serde_json::Value::Float;
    *scales = serde_json::Value::Map(vec![
        ("alpha".to_string(), float(1.0)),
        ("beta".to_string(), float(5.0)),
        ("global_energy_scale_j".to_string(), global),
        ("local_energy_scale_j".to_string(), local),
        ("straggler_penalty".to_string(), float(0.0)),
        ("dropout_penalty".to_string(), float(0.0)),
        ("staleness_penalty".to_string(), float(0.0)),
        ("bytes_penalty".to_string(), float(0.0)),
    ]);
    let dir = std::env::temp_dir().join(format!("autofl-ckpt-parent-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("unit.ckpt.json");
    write_checkpoint(&path, payload).expect("checkpoint writes");
    let payload = read_checkpoint(&path).expect("checkpoint validates");
    std::fs::remove_dir_all(&dir).unwrap();
    let mut resumed =
        ExperimentRun::resume(&config, policy, None, &payload).expect("checkpoint restores");
    while resumed.step().expect("no observers").is_some() {}
    assert!(
        trace(resumed.records()) == trace(straight.records()),
        "the resumed trace diverged"
    );
    assert!(
        snapshot_text(&resumed) == snapshot_text(&straight),
        "the resumed run ended on another learned state"
    );

    // A pending round was selected, so it needs the scales its select
    // resolved; without them its feedback has no reward.
    let err = selector_resume_error("no-scales", |selector| {
        *entry(selector, "resolved_reward") = serde_json::Value::Null;
    });
    assert!(err.contains("selector.resolved_reward: "), "{err}");
}

/// AutoFL — Q-tables, pending rounds, agent RNG — on the full config with
/// the buffered, pipelined runtime, checkpointed through
/// `write_checkpoint` after `records` records. Returns the payload and
/// the checkpoint file's text.
fn autofl_checkpoint(label: &str, records: usize) -> (serde_json::Value, String) {
    let registry = standard_registry();
    let mut config = full_config(41, 2);
    config.runtime = Some(AsyncRuntime::buffered(2, 1.0).concurrent_cohorts(2));
    let mut run =
        ExperimentRun::new(&config, registry.expect("AutoFL"), None).expect("config validates");
    for _ in 0..records {
        run.step()
            .expect("no observers")
            .expect("checkpoint point is before the end of the run");
    }
    let payload = run.state_snapshot();
    let dir = std::env::temp_dir().join(format!("autofl-ckpt-{label}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("unit.ckpt.json");
    write_checkpoint(&path, payload.clone()).expect("checkpoint writes");
    let file = std::fs::read_to_string(&path).expect("checkpoint reads back");
    std::fs::remove_dir_all(&dir).unwrap();
    (payload, file)
}

#[test]
fn checkpoint_files_are_the_canonical_envelope_and_pinned() {
    // Owns `CHECKPOINT_DIGESTS`: every pinned checkpoint in file order,
    // so a stale, missing or non-canonical entry fails here.
    let mut entries = Vec::new();
    for records in [1, 6] {
        let label = format!("AutoFL buffered stop={records}");
        let (payload, file) = autofl_checkpoint(&format!("pin-{records}"), records);
        let envelope = serde_json::Value::Map(vec![
            (
                "version".to_string(),
                serde_json::Value::UInt(CHECKPOINT_VERSION),
            ),
            (
                "digest".to_string(),
                serde_json::Value::Str(payload_digest(&payload)),
            ),
            ("payload".to_string(), payload),
        ]);
        assert!(
            file == serde_json::to_string(&envelope).expect("envelope serializes"),
            "{label}: the checkpoint file is not the compact envelope"
        );
        entries.push((label, serde_json::Value::Str(fnv1a_hex(file.as_bytes()))));
    }
    let text = serde_json::to_string_pretty(&serde_json::Value::Map(entries))
        .expect("digests serialize")
        + "\n";
    if std::env::var("AUTOFL_REGEN_SPECS").is_ok() {
        std::fs::write(CHECKPOINT_DIGESTS, &text).expect("write checkpoint digests");
        return;
    }
    let golden = std::fs::read_to_string(CHECKPOINT_DIGESTS)
        .unwrap_or_else(|e| panic!("{CHECKPOINT_DIGESTS}: {e} (AUTOFL_REGEN_SPECS=1 to create)"));
    assert_eq!(
        golden, text,
        "{CHECKPOINT_DIGESTS} is stale or not canonical \
         (AUTOFL_REGEN_SPECS=1 to regenerate intentionally)"
    );
}

#[test]
fn readers_check_the_canonical_payload_not_the_file_bytes() {
    let (payload, file) = autofl_checkpoint("read-side", 6);
    let dir = std::env::temp_dir().join(format!("autofl-ckpt-read-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("unit.ckpt.json");

    // Re-indenting moves every byte but not the canonical payload.
    let envelope = serde_json::parse(&file).expect("checkpoint is JSON");
    let pretty = serde_json::to_string_pretty(&envelope).expect("envelope serializes");
    assert_ne!(pretty, file);

    // The leading digit of the first Q-value, flipped: still valid JSON,
    // but no longer the payload the digest was taken of.
    let flip_q = |text: &str| {
        let q = text.find("\"q\":").expect("AutoFL checkpoints hold Q rows");
        let at = q + text[q..]
            .find(|c: char| c.is_ascii_digit())
            .expect("Q rows hold numbers");
        let mut bytes = text.as_bytes().to_vec();
        bytes[at] = if bytes[at] == b'1' { b'2' } else { b'1' };
        bytes
    };
    // The writer's own file is hashed in place, a re-indented one through
    // its canonical re-serialization: both load, and both refuse a
    // flipped digit.
    for (form, text) in [("canonical", &file), ("re-indented", &pretty)] {
        std::fs::write(&path, text).unwrap();
        let restored = read_checkpoint(&path).unwrap_or_else(|e| panic!("{form}: {e}"));
        assert!(restored == payload, "{form}: the payload changed");
        std::fs::write(&path, flip_q(text)).unwrap();
        let err = read_checkpoint(&path).expect_err("a flipped payload byte must be rejected");
        assert!(err.to_string().contains("digest mismatch"), "{form}: {err}");
    }

    // A canonical file whose digest was taken of other bytes.
    let digest = payload_digest(&payload);
    let wrong = format!("{:016x}", u64::from_str_radix(&digest, 16).unwrap() ^ 1);
    std::fs::write(&path, file.replacen(&digest, &wrong, 1)).unwrap();
    let err = read_checkpoint(&path).expect_err("a wrong digest must be rejected");
    let expected = format!("envelope says {wrong}, payload hashes to {digest}");
    assert!(err.to_string().contains(&expected), "{err}");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The two texts `AUTOFL_DIGESTS` pins of one AutoFL run, each under its
/// own key: its trace, and its `state_snapshot` texts after record `mid`
/// (with cohorts in flight, so pending rounds land in it) and after the
/// last record. Q-tables, pending rounds, agent RNG and the
/// `reward_history` bits are all in the snapshots, so a checkpoint format
/// change moves only the second. Also asserts that a run resumed from the
/// mid-run snapshot ends on the same trace and snapshot.
fn autofl_pinned_texts(config: &SimConfig, policy: &dyn Policy, mid: usize) -> [String; 2] {
    let snapshot_text = |run: &ExperimentRun| {
        serde_json::to_string(&run.state_snapshot()).expect("snapshot serializes")
    };
    let mut run = ExperimentRun::new(config, policy, None).expect("config validates");
    for _ in 0..mid {
        run.step()
            .expect("no observers")
            .expect("the snapshot point is before the end of the run");
    }
    let payload = run.state_snapshot();
    let mid_text = serde_json::to_string(&payload).expect("snapshot serializes");
    while run.step().expect("no observers").is_some() {}
    let end_text = snapshot_text(&run);

    let mut resumed =
        ExperimentRun::resume(config, policy, None, &payload).expect("snapshot restores");
    while resumed.step().expect("no observers").is_some() {}
    assert!(
        trace(resumed.records()) == trace(run.records()) && snapshot_text(&resumed) == end_text,
        "resuming after record {mid} diverged"
    );
    [trace(run.records()), mid_text + "\n" + &end_text]
}

/// The `"<label> trace"` and `"<label> snapshots"` entries of one case.
fn pinned_entries(label: &str, texts: &[String; 2]) -> [(String, serde_json::Value); 2] {
    let pin = |part: &str, text: &String| {
        (
            format!("{label} {part}"),
            serde_json::Value::Str(fnv1a_hex(text.as_bytes())),
        )
    };
    [pin("trace", &texts[0]), pin("snapshots", &texts[1])]
}

#[test]
fn autofl_configurations_are_pinned() {
    // Owns `AUTOFL_DIGESTS`. Every case pipelines two buffered cohorts
    // under realistic fleet dynamics. Under `SharedPerTier` the order in
    // which devices first touch a shared row fixes its random initial
    // Q-values, so the pin covers row-creation order across devices.
    let case = |devices: usize, shards: usize, seed: u64| {
        let mut config = full_config(seed, shards);
        config.num_devices = devices;
        config.max_rounds = 24;
        config.runtime = Some(AsyncRuntime::buffered(2, 1.0).concurrent_cohorts(2));
        config
    };
    let cases = [
        (
            "SharedPerTier",
            AutoFlConfig {
                sharing: QSharing::SharedPerTier,
                ..Default::default()
            },
        ),
        (
            "dvfs off",
            AutoFlConfig {
                dvfs_enabled: false,
                ..Default::default()
            },
        ),
        (
            "epsilon_decay=0.9",
            AutoFlConfig {
                epsilon_decay: 0.9,
                ..Default::default()
            },
        ),
        (
            // Every round explores: rows are created only by updates.
            "epsilon=1",
            AutoFlConfig {
                epsilon: 1.0,
                ..Default::default()
            },
        ),
        (
            "epsilon=0",
            AutoFlConfig {
                epsilon: 0.0,
                ..Default::default()
            },
        ),
    ];
    let mut entries = Vec::new();
    for (seed, (label, agent)) in (61..).zip(cases) {
        let policy = AutoFlPolicy::with_config(agent);
        let texts = autofl_pinned_texts(&case(48, 2, seed), &policy, 9);
        entries.extend(pinned_entries(&format!("AutoFL {label}"), &texts));
    }
    let policy = AutoFlPolicy::paper_default();
    let large = case(4_000, 16, 67);
    let t1 = with_threads(1, || autofl_pinned_texts(&large, &policy, 9));
    let t4 = with_threads(4, || autofl_pinned_texts(&large, &policy, 9));
    assert!(
        t1 == t4,
        "4000-device AutoFL differs between 1 and 4 threads"
    );
    entries.extend(pinned_entries("AutoFL 4000 devices 16 shards", &t1));

    let text = serde_json::to_string_pretty(&serde_json::Value::Map(entries))
        .expect("digests serialize")
        + "\n";
    if std::env::var("AUTOFL_REGEN_SPECS").is_ok() {
        std::fs::write(AUTOFL_DIGESTS, &text).expect("write AutoFL digests");
        return;
    }
    let golden = std::fs::read_to_string(AUTOFL_DIGESTS)
        .unwrap_or_else(|e| panic!("{AUTOFL_DIGESTS}: {e} (AUTOFL_REGEN_SPECS=1 to create)"));
    assert_eq!(
        golden, text,
        "{AUTOFL_DIGESTS} is stale or not canonical \
         (AUTOFL_REGEN_SPECS=1 to regenerate intentionally)"
    );
}
