//! Integration tests of the network fabric (`autofl_fed::fabric`):
//! codec round-trip properties, exact byte accounting, partition and
//! loss semantics, and the bit-reproducibility contract with the fabric
//! enabled across thread counts and shard layouts.

mod common;

use autofl_device::network::{NetworkObservation, SignalStrength, BANDWIDTH_THRESHOLD_MBPS};
use autofl_fed::engine::{SimConfig, SimResult, Simulation};
use autofl_fed::fabric::{
    top_k_count, CodecSpec, LinkModel, NetworkFabric, PartitionRule, PartitionSchedule,
};
use autofl_fed::selection::RandomSelector;
use common::{assert_pinned_barrier_trace, fabric_barrier_config, kitchen_sink_fabric};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Runs `f` with `AUTOFL_THREADS` pinned to `threads` (see
/// `tests/determinism.rs` for the contract).
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

/// A run's JSONL trace. Floats serialize shortest-round-trip, so equal
/// traces mean bit-identical records.
fn trace(result: &SimResult) -> String {
    result
        .records
        .iter()
        .map(|r| serde_json::to_string(r).expect("record serializes") + "\n")
        .collect()
}

// ---------------------------------------------------------------------
// Engine semantics
// ---------------------------------------------------------------------

/// An ideal fabric (zero latency, zero loss, identity codec) must leave
/// the simulation bit-identical to no fabric at all — the only change is
/// that byte accounting appears on the records.
#[test]
fn ideal_fabric_reproduces_the_bare_engine_bit_for_bit() {
    let mut base_cfg = SimConfig::smoke(17);
    base_cfg.max_rounds = 25;
    base_cfg.target_accuracy = Some(1.1);
    let mut fabric_cfg = base_cfg.clone();
    fabric_cfg.network = Some(NetworkFabric::ideal());

    let base = Simulation::new(base_cfg).run(&mut RandomSelector::new());
    let with_fabric = Simulation::new(fabric_cfg).run(&mut RandomSelector::new());

    assert_eq!(base.records.len(), with_fabric.records.len());
    for (ra, rb) in base.records.iter().zip(&with_fabric.records) {
        assert_eq!(ra.participants, rb.participants, "round {}", ra.round);
        assert_eq!(ra.plans, rb.plans);
        assert_eq!(ra.dropped, rb.dropped);
        assert_eq!(ra.dropouts, rb.dropouts);
        assert_eq!(ra.accuracy.to_bits(), rb.accuracy.to_bits());
        assert_eq!(ra.round_time_s.to_bits(), rb.round_time_s.to_bits());
        assert_eq!(ra.active_energy_j.to_bits(), rb.active_energy_j.to_bits());
        assert_eq!(ra.idle_energy_j.to_bits(), rb.idle_energy_j.to_bits());
        assert!(ra.net.is_none(), "no fabric must record no net stats");
        let net = rb.net.expect("fabric rounds carry net stats");
        assert!(net.bytes_uplinked > 0, "transmitting rounds uplink bytes");
        assert!(net.bytes_downlinked > 0);
        assert_eq!(net.net_drops, 0, "ideal links drop nothing");
        assert_eq!(net.partitioned, 0);
    }
    assert_eq!(
        base.ppw_global().to_bits(),
        with_fabric.ppw_global().to_bits()
    );
}

/// The AutoFL policy learns from round feedback, which carries
/// `bytes_uplinked`; an ideal fabric must not perturb its selection
/// either.
#[test]
fn ideal_fabric_is_reward_neutral_for_the_learned_policy() {
    let mut base_cfg = SimConfig::smoke(23);
    base_cfg.max_rounds = 15;
    base_cfg.target_accuracy = Some(1.1);
    let mut fabric_cfg = base_cfg.clone();
    fabric_cfg.network = Some(NetworkFabric::ideal());

    let base = Simulation::new(base_cfg).run(&mut autofl_core::AutoFl::paper_default());
    let with_fabric = Simulation::new(fabric_cfg).run(&mut autofl_core::AutoFl::paper_default());
    assert_eq!(base.records.len(), with_fabric.records.len());
    for (ra, rb) in base.records.iter().zip(&with_fabric.records) {
        assert_eq!(ra.participants, rb.participants, "round {}", ra.round);
        assert_eq!(ra.accuracy.to_bits(), rb.accuracy.to_bits());
    }
}

/// Scripted partitions remove their device span from eligibility for
/// exactly the scripted rounds, and the record reports the count.
#[test]
fn partitions_mask_their_device_span_for_their_round_span() {
    let mut cfg = SimConfig::tiny_test(3);
    cfg.max_rounds = 8;
    cfg.target_accuracy = Some(1.1);
    cfg.network = Some(
        NetworkFabric::ideal().with_partitions(PartitionSchedule::single(PartitionRule {
            from_round: 2,
            until_round: 5,
            device_begin: 0,
            device_end: 6,
        })),
    );
    let result = Simulation::new(cfg).run(&mut RandomSelector::new());
    assert_eq!(result.records.len(), 8);
    for record in &result.records {
        let net = record.net.expect("fabric records net stats");
        if (2..5).contains(&record.round) {
            assert_eq!(net.partitioned, 6, "round {}", record.round);
            assert_eq!(record.ineligible, 6, "round {}", record.round);
            assert!(
                record.participants.iter().all(|id| id.0 >= 6),
                "round {}: partitioned device selected: {:?}",
                record.round,
                record.participants
            );
        } else {
            assert_eq!(net.partitioned, 0, "round {}", record.round);
            assert_eq!(record.ineligible, 0, "round {}", record.round);
        }
    }
}

/// With `drop_prob = 1` every upload is lost in transit: the device
/// trained (energy charged), transmitted (bytes charged), but its update
/// never lands — the dropout path, not silent disappearance.
#[test]
fn lost_uploads_count_as_dropouts_with_full_energy_and_bytes() {
    let mut cfg = SimConfig::tiny_test(9);
    cfg.max_rounds = 5;
    cfg.target_accuracy = Some(1.1);
    let mut link = LinkModel::ideal();
    link.drop_prob = 1.0;
    cfg.network = Some(NetworkFabric::new(link));
    let result = Simulation::new(cfg).run(&mut RandomSelector::new());
    let reference = autofl_nn::zoo::Workload::TinyTest.reference_model_bytes();
    for record in &result.records {
        let net = record.net.expect("fabric records net stats");
        assert_eq!(
            net.net_drops,
            record.participants.len(),
            "round {}: every upload must be lost",
            record.round
        );
        assert_eq!(record.dropouts, record.participants);
        assert!(record.update_fractions.iter().all(|&f| f == 0.0));
        // They still trained and still transmitted: full energy, full bytes.
        assert!(record.active_energy_j > 0.0);
        assert_eq!(
            net.bytes_uplinked,
            record.participants.len() as u64 * reference,
            "identity codec: every lost upload still burned its bytes"
        );
    }
}

/// Swapping in a compressing codec cuts the recorded uplink volume by
/// roughly its design ratio (exact ratios are pinned by unit tests; the
/// trajectories of different codecs legitimately diverge, so the
/// integration check is coarse).
#[test]
fn compressing_codecs_cut_recorded_uplink_bytes() {
    let total_bytes = |codec: CodecSpec| {
        let mut cfg = SimConfig::smoke(42);
        cfg.max_rounds = 12;
        cfg.target_accuracy = Some(1.1);
        cfg.network = Some(NetworkFabric::ideal().with_codec(codec));
        let result = Simulation::new(cfg).run(&mut RandomSelector::new());
        result
            .records
            .iter()
            .map(|r| r.net.expect("fabric").bytes_uplinked)
            .sum::<u64>() as f64
    };
    let identity = total_bytes(CodecSpec::Identity);
    let top_k = total_bytes(CodecSpec::TopK { k_frac: 0.1 });
    let int8 = total_bytes(CodecSpec::Int8Quant);
    assert!(
        identity / top_k > 4.5,
        "TopK(10%) reduction only {:.2}x",
        identity / top_k
    );
    assert!(
        identity / int8 > 3.5,
        "Int8 reduction only {:.2}x",
        identity / int8
    );
}

// ---------------------------------------------------------------------
// Determinism
// ---------------------------------------------------------------------

/// The acceptance contract: a fabric-enabled run (loss, partitions,
/// composed codec, full syncs, realistic variance) is bit-reproducible
/// across `AUTOFL_THREADS` × shard layouts.
#[test]
fn fabric_enabled_runs_are_bit_identical_across_threads_and_shards() {
    let run = |threads: usize, shards: usize| {
        with_threads(threads, || {
            let mut cfg = SimConfig::smoke(21);
            cfg.scenario = autofl_device::scenario::VarianceScenario::realistic();
            cfg.max_rounds = 12;
            cfg.target_accuracy = Some(1.1);
            cfg.shards = shards;
            let mut fabric = kitchen_sink_fabric(cfg.num_devices);
            fabric.link.drop_prob = 0.05;
            cfg.network = Some(fabric);
            Simulation::new(cfg).run(&mut RandomSelector::new())
        })
    };
    let base = run(1, 1);
    let drops: usize = base
        .records
        .iter()
        .map(|r| r.net.expect("fabric").net_drops)
        .sum();
    assert!(drops > 0, "the lossy config must actually lose uploads");
    for threads in [1, 4] {
        for shards in [1, 4] {
            if (threads, shards) == (1, 1) {
                continue;
            }
            assert_eq!(
                trace(&base),
                trace(&run(threads, shards)),
                "threads {threads}, shards {shards}"
            );
        }
    }
}

/// The default barrier reproduces the replaced lockstep loop with the
/// fabric attached: the kitchen-sink run's trace is pinned in
/// `tests/specs/barrier_digests.json` (see `tests/common/mod.rs`).
#[test]
fn barrier_runtime_matches_lockstep_with_fabric_enabled() {
    for threads in [1, 4] {
        let result = with_threads(threads, || {
            Simulation::new(fabric_barrier_config()).run(&mut RandomSelector::new())
        });
        assert_pinned_barrier_trace("network-fabric", &result.records, threads);
    }
}

// ---------------------------------------------------------------------
// Codec properties
// ---------------------------------------------------------------------

fn random_delta(rng: &mut SmallRng, len: usize, magnitude: f32) -> Vec<f32> {
    (0..len)
        .map(|_| rng.gen_range(-1.0f32..1.0) * magnitude)
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// TopK keeps exactly the `k` largest-magnitude coordinates bit-intact
    /// (ties to the lower index) and zeroes the rest.
    #[test]
    fn top_k_preserves_the_largest_coordinates_exactly(
        seed in 0u64..1_000_000,
        len in 1usize..300,
        k_frac in 0.01f64..1.0,
    ) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let original = random_delta(&mut rng, len, 2.0);
        let mut coded = original.clone();
        let codec = NetworkFabric::ideal().with_codec(CodecSpec::TopK { k_frac });
        codec.transcode(&mut coded, 0, &mut rng);

        let k = top_k_count(k_frac, len);
        // Reference: stable sort by (magnitude desc, index asc).
        let mut order: Vec<usize> = (0..len).collect();
        order.sort_by_key(|&i| (std::cmp::Reverse(original[i].abs().to_bits()), i));
        let mut expected = vec![0.0f32; len];
        for &i in &order[..k] {
            expected[i] = original[i];
        }
        for i in 0..len {
            prop_assert_eq!(
                coded[i].to_bits(), expected[i].to_bits(),
                "coordinate {} of {} (k={})", i, len, k
            );
        }
        prop_assert_eq!(codec.encoded_bytes(len, 0), 8 * k as u64);
    }

    /// Int8 stochastic quantization reconstructs every coordinate to
    /// within one quantization step of the slice's scale.
    #[test]
    fn int8_round_trip_error_is_within_one_step(
        seed in 0u64..1_000_000,
        len in 1usize..300,
        magnitude in 0.001f32..100.0,
    ) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let original = random_delta(&mut rng, len, magnitude);
        let mut coded = original.clone();
        let codec = NetworkFabric::ideal().with_codec(CodecSpec::Int8Quant);
        codec.transcode(&mut coded, 0, &mut rng);

        let max_abs = original.iter().fold(0.0f32, |m, v| m.max(v.abs()));
        let step = max_abs / 127.0;
        for (o, c) in original.iter().zip(&coded) {
            prop_assert!(
                (o - c).abs() <= step * 1.0001,
                "error {} exceeds one step {}", (o - c).abs(), step
            );
            prop_assert!(c.abs() <= max_abs * 1.0001, "reconstruction escaped the range");
        }
        prop_assert_eq!(codec.encoded_bytes(len, 0), len as u64 + 4);
    }

    /// Byte counts are exact closed forms of `params` for every codec,
    /// and a full-sync cadence switches between compressed and full-size
    /// payloads on its rounds.
    #[test]
    fn encoded_byte_counts_are_exact(
        params in 1usize..5_000,
        k_frac in 0.01f64..1.0,
        every in 1usize..12,
    ) {
        let k = top_k_count(k_frac, params) as u64;
        let bytes = |codec| NetworkFabric::ideal().with_codec(codec).encoded_bytes(params, 0);
        prop_assert_eq!(bytes(CodecSpec::Identity), 4 * params as u64);
        prop_assert_eq!(bytes(CodecSpec::TopK { k_frac }), 8 * k);
        prop_assert_eq!(bytes(CodecSpec::Int8Quant), params as u64 + 4);
        prop_assert_eq!(bytes(CodecSpec::TopKInt8 { k_frac }), 5 * k + 4);
        let periodic = NetworkFabric::ideal()
            .with_codec(CodecSpec::TopK { k_frac })
            .with_full_sync(every);
        for round in 0..3 * every {
            let expected = if round % every == 0 { 4 * params as u64 } else { 8 * k };
            prop_assert_eq!(periodic.encoded_bytes(params, round), expected, "round {}", round);
            let fidelity = periodic.fidelity(round);
            if round % every == 0 {
                prop_assert_eq!(fidelity.to_bits(), 1.0f64.to_bits(), "sync rounds are lossless");
            } else {
                prop_assert!(fidelity < 1.0);
            }
        }
    }

    /// Transcoding is deterministic in the tagged stream: the same seed
    /// reproduces the same reconstruction bit for bit, different seeds
    /// may not (stochastic rounding).
    #[test]
    fn transcode_is_deterministic_in_the_stream_seed(
        seed in 0u64..1_000_000,
        len in 2usize..200,
    ) {
        let mut source = SmallRng::seed_from_u64(seed ^ 0xd15c);
        let original = random_delta(&mut source, len, 1.0);
        let codec = NetworkFabric::ideal().with_codec(CodecSpec::TopKInt8 { k_frac: 0.5 });
        let run = |stream_seed: u64| {
            let mut delta = original.clone();
            codec.transcode(&mut delta, 3, &mut SmallRng::seed_from_u64(stream_seed));
            delta
        };
        let a = run(seed);
        let b = run(seed);
        for (x, y) in a.iter().zip(&b) {
            prop_assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    /// The satellite bugfix pin: a `Weak` signal observation never
    /// classifies as the paper's `Regular` network state, for any seed —
    /// the Gaussian tail above the 40 Mbps threshold is clamped.
    #[test]
    fn weak_signal_observations_are_never_regular(seed in 0u64..u64::MAX / 2) {
        let mut rng = SmallRng::seed_from_u64(seed);
        for _ in 0..64 {
            let o = NetworkObservation::sample(SignalStrength::Weak, &mut rng);
            prop_assert!(!o.is_regular(), "weak draw above threshold: {:?}", o);
            prop_assert!(o.bandwidth_mbps <= BANDWIDTH_THRESHOLD_MBPS);
            prop_assert!(o.bandwidth_mbps >= 1.0);
        }
    }
}
