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
use autofl_fed::policy::{Policy, RandomPolicy};
use autofl_fed::runtime::AsyncRuntime;
use autofl_fed::serve::{
    payload_digest, read_checkpoint, write_checkpoint, ConvergeTarget, ExperimentRun,
    CHECKPOINT_VERSION,
};
use common::fnv1a_hex;

/// The golden file of checkpoint-file digests, keyed by run label.
const CHECKPOINT_DIGESTS: &str = "tests/specs/checkpoint_digests.json";

/// The golden file of AutoFL run digests (trace plus learned state) for
/// the controller configurations the other goldens leave out.
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
                        interrupted_vs_straight(&config, &RandomPolicy, None, stop_after);
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
                        interrupted_vs_straight(&config, &RandomPolicy, None, stop_after);
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
/// resuming yields — resume must refuse the state instead of panicking
/// in a later step.
fn corrupted_resume_error(
    label: &str,
    policy: &dyn Policy,
    records: usize,
    corrupt: impl FnOnce(&mut serde_json::Value),
) -> String {
    let mut config = full_config(29, 1);
    config.runtime = Some(AsyncRuntime::buffered(2, 1.0).concurrent_cohorts(2));
    let mut run = ExperimentRun::new(&config, policy, None).expect("config validates");
    for _ in 0..records {
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
    ExperimentRun::resume(&config, policy, None, &payload)
        .expect_err("an inconsistent checkpoint must not resume")
        .to_string()
}

/// [`corrupted_resume_error`] of a FedAvg-Random run after one record,
/// with `corrupt` editing its scheduler state.
fn resume_error(label: &str, corrupt: impl FnOnce(&mut serde_json::Value)) -> String {
    corrupted_resume_error(label, &RandomPolicy, 1, |payload| {
        corrupt(entry(entry(payload, "sim"), "scheduler"))
    })
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

#[test]
fn resume_rejects_a_participant_outside_the_fleet() {
    let err = resume_error("device", |scheduler| {
        let serde_json::Value::Seq(in_flight) = entry(scheduler, "in_flight") else {
            panic!("in_flight is a sequence");
        };
        let outcome = entry(&mut in_flight[0], "outcome");
        let serde_json::Value::Seq(participants) = entry(outcome, "participants") else {
            panic!("participants are a sequence");
        };
        // `tiny_test` fleets hold devices 0..12.
        participants[0] = serde_json::Value::UInt(12);
    });
    assert!(err.contains("outside the 12-device fleet"), "{err}");
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
        let serde_json::Value::Seq(pending) = entry(selector, "pending") else {
            panic!("pending is a sequence");
        };
        assert!(!pending.is_empty(), "a cohort is in flight");
        resize(entry(&mut pending[0], "per_device"), 2);
    });
    assert!(
        err.contains(
            "selector.pending[0].per_device: the pending round covers 2 devices but the fleet has 12"
        ),
        "{err}"
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
    let (reference, resumed) = interrupted_vs_straight(&config, &RandomPolicy, control, 6);
    assert_eq!(
        reference, resumed,
        "controller EMA/scale must continue, not restart, after resume"
    );
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
    std::fs::write(&path, &pretty).unwrap();
    let restored = read_checkpoint(&path).expect("a re-indented checkpoint still validates");
    assert!(restored == payload, "re-indenting changed the payload");

    // Flip the leading digit of the first Q-value: still valid JSON, but
    // no longer the payload the digest was taken of.
    let q = file
        .find("\"q\":[")
        .expect("AutoFL checkpoints hold Q rows");
    let at = q + file[q..]
        .find(|c: char| c.is_ascii_digit())
        .expect("Q rows hold numbers");
    let mut flipped = file.into_bytes();
    flipped[at] = if flipped[at] == b'1' { b'2' } else { b'1' };
    std::fs::write(&path, &flipped).unwrap();
    let err = read_checkpoint(&path).expect_err("a flipped payload byte must be rejected");
    assert!(err.to_string().contains("digest mismatch"), "{err}");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The text `AUTOFL_DIGESTS` pins of one AutoFL run: its trace, then its
/// `state_snapshot` text after record `mid` (with cohorts in flight, so
/// pending rounds land in it) and after the last record. Q-tables,
/// pending rounds, agent RNG and the `reward_history` bits are all in
/// the snapshots. Also asserts that a run resumed from the mid-run
/// snapshot ends on the same trace and snapshot.
fn autofl_pinned_text(config: &SimConfig, policy: &dyn Policy, mid: usize) -> String {
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
    trace(run.records()) + &mid_text + "\n" + &end_text
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
        let text = autofl_pinned_text(&case(48, 2, seed), &policy, 9);
        entries.push((
            format!("AutoFL {label}"),
            serde_json::Value::Str(fnv1a_hex(text.as_bytes())),
        ));
    }
    let policy = AutoFlPolicy::paper_default();
    let large = case(4_000, 16, 67);
    let t1 = with_threads(1, || {
        fnv1a_hex(autofl_pinned_text(&large, &policy, 9).as_bytes())
    });
    let t4 = with_threads(4, || {
        fnv1a_hex(autofl_pinned_text(&large, &policy, 9).as_bytes())
    });
    assert_eq!(t1, t4, "4000-device AutoFL differs between 1 and 4 threads");
    entries.push((
        "AutoFL 4000 devices 16 shards".to_string(),
        serde_json::Value::Str(t1),
    ));

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
