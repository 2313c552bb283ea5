//! Helpers shared by the integration-test binaries that declare
//! `mod common;`: JSONL traces, FNV-1a digests and the pinned barrier
//! traces.
//!
//! Every run steps the event scheduler, and its full barrier (the
//! default) reproduces the traces of the lockstep FedAvg loop it replaced
//! byte for byte. Those traces are pinned as FNV-1a digests in
//! [`BARRIER_DIGESTS`], which `tests/async_runtime.rs` owns and
//! regenerates: `AUTOFL_REGEN_SPECS=1 cargo test --test async_runtime`.

// Each test binary uses only some of these helpers.
#![allow(dead_code)]

use autofl_fed::engine::{RoundRecord, SimConfig, SimResult};
use autofl_fed::fabric::{CodecSpec, LinkModel, NetworkFabric, PartitionRule, PartitionSchedule};
use autofl_fed::observe::JsonlSink;
use autofl_fed::serve::ExperimentRun;
use autofl_fed::spec::ExperimentSpec;

/// The golden file of barrier trace digests, keyed by run label.
pub const BARRIER_DIGESTS: &str = "tests/specs/barrier_digests.json";

/// FNV-1a 64-bit digest of `bytes`, as fixed-width hex.
pub fn fnv1a_hex(bytes: &[u8]) -> String {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in bytes {
        hash ^= u64::from(*byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{hash:016x}")
}

/// A run's JSONL trace: one serialized record per line, as the round
/// sinks write it.
pub fn jsonl(records: &[RoundRecord]) -> String {
    records
        .iter()
        .map(|r| serde_json::to_string(r).expect("record serializes") + "\n")
        .collect()
}

/// FNV-1a 64-bit digest of a run's JSONL trace, as fixed-width hex.
/// Floats serialize shortest-round-trip, so equal digests mean
/// bit-identical records.
pub fn trace_digest(records: &[RoundRecord]) -> String {
    fnv1a_hex(jsonl(records).as_bytes())
}

/// Exactly what `spec_run <spec> --trace` writes, and the run behind it:
/// the spec's first policy at the first repeat's seed, under the spec's
/// `control`, with a JSONL round sink attached.
pub fn spec_run_trace(spec: &ExperimentSpec) -> (String, SimResult) {
    let registry = autofl::standard_registry();
    let policy = registry.expect(&spec.policies[0]);
    let mut sink = JsonlSink::new(Vec::new());
    let result = ExperimentRun::new(&spec.config, policy, spec.control)
        .expect("spec validates")
        .finish(&mut [&mut sink])
        .expect("in-memory sink cannot fail");
    let trace = String::from_utf8(sink.into_inner()).expect("JSONL is UTF-8");
    (trace, result)
}

/// A fabric exercising every feature at once: noisy lossy links, a
/// composed sparsifying codec, periodic full syncs and a scripted
/// partition.
pub fn kitchen_sink_fabric(devices: usize) -> NetworkFabric {
    NetworkFabric::new(LinkModel::calm())
        .with_codec(CodecSpec::TopKInt8 { k_frac: 0.2 })
        .with_full_sync(5)
        .with_partitions(PartitionSchedule::single(PartitionRule {
            from_round: 3,
            until_round: 9,
            device_begin: 0,
            device_end: devices / 4,
        }))
}

/// The run pinned as `network-fabric`: the kitchen-sink fabric on the
/// smoke fleet for ten rounds.
pub fn fabric_barrier_config() -> SimConfig {
    let mut cfg = SimConfig::smoke(31);
    cfg.max_rounds = 10;
    cfg.target_accuracy = Some(1.1);
    cfg.network = Some(kitchen_sink_fabric(cfg.num_devices));
    cfg
}

/// Asserts that `records`, the run pinned as `label` stepped at
/// `threads` threads, reproduce the pinned lockstep trace. The file is
/// not read under `AUTOFL_REGEN_SPECS`, while its owner rewrites it.
pub fn assert_pinned_barrier_trace(label: &str, records: &[RoundRecord], threads: usize) {
    if std::env::var("AUTOFL_REGEN_SPECS").is_ok() {
        return;
    }
    let text = std::fs::read_to_string(BARRIER_DIGESTS)
        .unwrap_or_else(|e| panic!("{BARRIER_DIGESTS}: {e} (AUTOFL_REGEN_SPECS=1 to create)"));
    let pinned: serde_json::Value = serde_json::from_str(&text).expect("digests parse");
    assert_eq!(
        pinned.get(label),
        Some(&serde_json::Value::Str(trace_digest(records))),
        "{label} at {threads} threads drifted from its pinned lockstep trace \
         (AUTOFL_REGEN_SPECS=1 to regenerate intentionally)"
    );
}
