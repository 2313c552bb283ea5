//! Integration tests of the adversary subsystem (`autofl_fed::adversary`)
//! and the robust aggregators it motivates: disabled-path bit-neutrality,
//! bit-reproducibility of adversarial runs across thread counts and shard
//! layouts, free-rider cost accounting, checkpoint/resume under attack,
//! order-statistics aggregator properties, a golden spec + trace
//! exercising poisoners against Krum end to end, and pinned digests of
//! the selectors that read conditions while faulty sensors lie to them.

mod common;

use autofl::fed::spec::ExperimentSpec;
use autofl::standard_registry;
use autofl_fed::adversary::{AdversaryConfig, AdversaryRole};
use autofl_fed::algorithms::{krum_select, AggregationAlgorithm, ClientUpdate};
use autofl_fed::engine::{RoundRecord, SimConfig, SimResult, Simulation};
use autofl_fed::fabric::{LinkModel, NetworkFabric};
use autofl_fed::fleet::FleetDynamics;
use autofl_fed::policy::run_policy;
use autofl_fed::selection::RandomSelector;
use autofl_fed::serve::{read_checkpoint, write_checkpoint, ExperimentRun};
use common::{spec_run_trace, trace_digest};
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

fn assert_bit_identical(a: &SimResult, b: &SimResult) {
    assert_eq!(a.records.len(), b.records.len(), "round counts differ");
    for (ra, rb) in a.records.iter().zip(b.records.iter()) {
        assert_eq!(ra.participants, rb.participants, "round {}", ra.round);
        assert_eq!(ra.plans, rb.plans, "round {}", ra.round);
        assert_eq!(ra.dropped, rb.dropped, "round {}", ra.round);
        assert_eq!(ra.dropouts, rb.dropouts, "round {}", ra.round);
        assert_eq!(ra.adversarial, rb.adversarial, "round {}", ra.round);
        assert_eq!(ra.flagged, rb.flagged, "round {}", ra.round);
        assert_eq!(ra.accuracy.to_bits(), rb.accuracy.to_bits());
        assert_eq!(ra.round_time_s.to_bits(), rb.round_time_s.to_bits());
        assert_eq!(ra.active_energy_j.to_bits(), rb.active_energy_j.to_bits());
        assert_eq!(ra.idle_energy_j.to_bits(), rb.idle_energy_j.to_bits());
    }
    assert_eq!(a.ppw_global().to_bits(), b.ppw_global().to_bits());
    assert_eq!(a.ppw_local().to_bits(), b.ppw_local().to_bits());
}

// ---------------------------------------------------------------------
// Disabled-path neutrality
// ---------------------------------------------------------------------

/// An adversary config whose every role fraction is zero assigns only
/// honest devices and must leave the trajectory bit-identical to no
/// adversary at all — the only change is that the per-round adversarial
/// counters appear (as zero) on the records.
#[test]
fn zero_fraction_adversary_reproduces_the_bare_engine_bit_for_bit() {
    let mut base_cfg = SimConfig::smoke(17);
    base_cfg.max_rounds = 25;
    base_cfg.target_accuracy = Some(1.1);
    let mut adv_cfg = base_cfg.clone();
    adv_cfg.adversary = Some(AdversaryConfig::poisoning(0.0));

    let base = Simulation::new(base_cfg).run(&mut RandomSelector::new());
    let with_adv = Simulation::new(adv_cfg).run(&mut RandomSelector::new());

    assert_eq!(base.records.len(), with_adv.records.len());
    for (ra, rb) in base.records.iter().zip(&with_adv.records) {
        assert_eq!(ra.participants, rb.participants, "round {}", ra.round);
        assert_eq!(ra.plans, rb.plans);
        assert_eq!(ra.dropped, rb.dropped);
        assert_eq!(ra.dropouts, rb.dropouts);
        assert_eq!(ra.accuracy.to_bits(), rb.accuracy.to_bits());
        assert_eq!(ra.round_time_s.to_bits(), rb.round_time_s.to_bits());
        assert_eq!(ra.active_energy_j.to_bits(), rb.active_energy_j.to_bits());
        assert_eq!(ra.idle_energy_j.to_bits(), rb.idle_energy_j.to_bits());
        assert!(
            ra.adversarial.is_none() && ra.flagged.is_none(),
            "no adversary must record no adversary stats"
        );
        assert_eq!(rb.adversarial, Some(0), "all-honest fleet");
        assert_eq!(rb.flagged, Some(0));
    }
    assert_eq!(base.ppw_global().to_bits(), with_adv.ppw_global().to_bits());
}

/// The learned policy reads the same reward inputs either way: an
/// all-honest adversary config must not perturb AutoFL's selections.
#[test]
fn zero_fraction_adversary_is_neutral_for_the_learned_policy() {
    let mut base_cfg = SimConfig::smoke(23);
    base_cfg.max_rounds = 15;
    base_cfg.target_accuracy = Some(1.1);
    let mut adv_cfg = base_cfg.clone();
    adv_cfg.adversary = Some(AdversaryConfig::mixed(0.0));

    let base = Simulation::new(base_cfg).run(&mut autofl_core::AutoFl::paper_default());
    let with_adv = Simulation::new(adv_cfg).run(&mut autofl_core::AutoFl::paper_default());
    assert_eq!(base.records.len(), with_adv.records.len());
    for (ra, rb) in base.records.iter().zip(&with_adv.records) {
        assert_eq!(ra.participants, rb.participants, "round {}", ra.round);
        assert_eq!(ra.accuracy.to_bits(), rb.accuracy.to_bits());
    }
}

// ---------------------------------------------------------------------
// Determinism
// ---------------------------------------------------------------------

/// The acceptance contract: an adversarial run (mixed roles, realistic
/// fleet dynamics, a robust sharded aggregator) is bit-reproducible
/// across `AUTOFL_THREADS` × shard layouts — roles and per-round
/// misbehaviour live on tagged per-device streams, never on scheduling.
#[test]
fn adversarial_runs_are_bit_identical_across_threads_and_shards() {
    let run = |threads: usize, shards: usize| {
        with_threads(threads, || {
            let mut cfg = SimConfig::smoke(21);
            cfg.scenario = autofl_device::scenario::VarianceScenario::realistic();
            cfg.fleet = Some(FleetDynamics::realistic());
            cfg.max_rounds = 12;
            cfg.target_accuracy = Some(1.1);
            cfg.shards = shards;
            cfg.algorithm = AggregationAlgorithm::Median;
            let mut adv = AdversaryConfig::mixed(0.2);
            adv.free_rider_fraction = 0.1;
            adv.faulty_sensor_fraction = 0.1;
            cfg.adversary = Some(adv);
            Simulation::new(cfg).run(&mut RandomSelector::new())
        })
    };
    let base = run(1, 1);
    let adversarial: usize = base
        .records
        .iter()
        .map(|r| r.adversarial.expect("subsystem on"))
        .sum();
    assert!(adversarial > 0, "the 40% mixed fleet must select attackers");
    for threads in [1, 4] {
        for shards in [1, 4] {
            if (threads, shards) == (1, 1) {
                continue;
            }
            assert_bit_identical(&base, &run(threads, shards));
        }
    }
}

// ---------------------------------------------------------------------
// Free-rider accounting
// ---------------------------------------------------------------------

/// Free-riders skip compute but still transmit: versus the same honest
/// fleet they burn strictly less active energy, uplink exactly the same
/// bytes, and every one of them is flagged by the server.
#[test]
fn free_riders_cost_communication_but_not_compute() {
    let make_cfg = |free_riders: bool| {
        let mut cfg = SimConfig::smoke(29);
        cfg.max_rounds = 8;
        cfg.target_accuracy = Some(1.1);
        cfg.network = Some(NetworkFabric::new(LinkModel::ideal()));
        if free_riders {
            let mut adv = AdversaryConfig::poisoning(0.0);
            adv.free_rider_fraction = 1.0;
            cfg.adversary = Some(adv);
        }
        cfg
    };
    let honest = Simulation::new(make_cfg(false)).run(&mut RandomSelector::new());
    let lazy = Simulation::new(make_cfg(true)).run(&mut RandomSelector::new());
    assert_eq!(honest.records.len(), lazy.records.len());
    for (rh, rl) in honest.records.iter().zip(&lazy.records) {
        assert_eq!(rh.participants, rl.participants, "round {}", rh.round);
        assert!(
            rl.active_energy_j < rh.active_energy_j,
            "round {}: comm-only energy {} must undercut honest {}",
            rh.round,
            rl.active_energy_j,
            rh.active_energy_j
        );
        assert_eq!(
            rh.net.expect("fabric").bytes_uplinked,
            rl.net.expect("fabric").bytes_uplinked,
            "round {}: a zero-work update still ships full-size",
            rh.round
        );
        assert_eq!(
            rl.adversarial,
            Some(rl.participants.len()),
            "round {}: the whole cohort free-rides",
            rl.round
        );
        let landed = rl.update_fractions.iter().filter(|&&f| f > 0.0).count();
        assert_eq!(
            rl.flagged,
            Some(landed),
            "round {}: every landed zero-mass update is flagged",
            rl.round
        );
    }
}

// ---------------------------------------------------------------------
// Checkpoint/resume
// ---------------------------------------------------------------------

/// Kill-and-resume byte-equality with the adversary active: role
/// assignment and per-round misbehaviour are pure functions of
/// `(seed, TAG_ADV, round, id)`, so a resumed run replays the same
/// attacks and the same robust-aggregation outcomes, byte for byte.
#[test]
fn checkpoint_resume_with_adversaries_is_byte_identical() {
    let trace = |records: &[RoundRecord]| -> String {
        records
            .iter()
            .map(|r| format!("{}\n", serde_json::to_string(r).expect("record serializes")))
            .collect()
    };
    let mut config = SimConfig::tiny_test(37);
    config.fleet = Some(FleetDynamics::realistic());
    config.algorithm = AggregationAlgorithm::Median;
    let mut adv = AdversaryConfig::mixed(0.3);
    adv.free_rider_fraction = 0.1;
    config.adversary = Some(adv);
    config.max_rounds = 10;
    config.target_accuracy = Some(1.1);
    let policy = &RandomSelector;

    let mut straight = ExperimentRun::new(&config, policy, None).expect("config validates");
    while straight.step().expect("no observers").is_some() {}
    let reference = trace(straight.records());
    assert!(
        reference.contains("\"adversarial\":"),
        "adversary-enabled traces must carry the counters"
    );

    let mut first = ExperimentRun::new(&config, policy, None).expect("config validates");
    for _ in 0..5 {
        first
            .step()
            .expect("no observers")
            .expect("interrupt point is before the end of the run");
    }
    let dir = std::env::temp_dir().join(format!("autofl-adv-ckpt-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("adv.ckpt.json");
    write_checkpoint(&path, first.state_snapshot()).expect("checkpoint writes");
    drop(first); // the "killed" process

    let payload = read_checkpoint(&path).expect("checkpoint validates");
    let mut resumed =
        ExperimentRun::resume(&config, policy, None, &payload).expect("checkpoint restores");
    while resumed.step().expect("no observers").is_some() {}
    let resumed = trace(resumed.records());
    std::fs::remove_dir_all(&dir).unwrap();
    assert_eq!(
        reference, resumed,
        "adversarial trace diverged after resume"
    );
}

// ---------------------------------------------------------------------
// Aggregator properties
// ---------------------------------------------------------------------

fn random_updates(rng: &mut SmallRng, n: usize, dim: usize) -> Vec<ClientUpdate> {
    (0..n)
        .map(|_| ClientUpdate {
            delta: (0..dim).map(|_| rng.gen_range(-2.0f32..2.0)).collect(),
            num_samples: rng.gen_range(1usize..200),
            local_steps: rng.gen_range(1usize..8),
        })
        .collect()
}

fn aggregate_with(
    algorithm: &AggregationAlgorithm,
    updates: &[ClientUpdate],
    dim: usize,
    shards: usize,
) -> Vec<f32> {
    let mut global = vec![0.25f32; dim];
    algorithm.aggregate_sharded(&mut global, updates, shards);
    global
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Order statistics are order-blind: permuting the cohort leaves the
    /// median and trimmed-mean aggregates bit-identical.
    #[test]
    fn median_and_trimmed_mean_are_permutation_invariant(
        seed in 0u64..1_000_000,
        n in 1usize..12,
        dim in 1usize..40,
        rotate in 0usize..12,
    ) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let updates = random_updates(&mut rng, n, dim);
        let mut permuted = updates.clone();
        permuted.rotate_left(rotate % n);
        permuted.reverse();
        for algorithm in [
            AggregationAlgorithm::Median,
            AggregationAlgorithm::TrimmedMean { trim: 0.2 },
        ] {
            let a = aggregate_with(&algorithm, &updates, dim, 1);
            let b = aggregate_with(&algorithm, &permuted, dim, 1);
            for (x, y) in a.iter().zip(&b) {
                prop_assert_eq!(x.to_bits(), y.to_bits(), "{}", algorithm.name());
            }
        }
    }

    /// Krum never synthesises: the aggregate is the starting point plus
    /// exactly one submitted update, verbatim, and the selection is the
    /// pairwise-score argmin.
    #[test]
    fn krum_applies_exactly_one_submitted_update(
        seed in 0u64..1_000_000,
        n in 1usize..10,
        dim in 1usize..40,
    ) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let updates = random_updates(&mut rng, n, dim);
        let global = aggregate_with(&AggregationAlgorithm::Krum, &updates, dim, 1);
        let chosen = krum_select(&updates);
        prop_assert!(chosen < n);
        let expected: Vec<f32> = updates[chosen]
            .delta
            .iter()
            .map(|d| (f64::from(0.25f32) + f64::from(*d)) as f32)
            .collect();
        for (x, y) in global.iter().zip(&expected) {
            prop_assert_eq!(x.to_bits(), y.to_bits(), "chosen update {} not verbatim", chosen);
        }
    }

    /// At `trim = 0` nothing is discarded and the trimmed mean collapses
    /// to sample-weighted FedAvg, bit for bit.
    #[test]
    fn trimmed_mean_at_zero_trim_is_fedavg(
        seed in 0u64..1_000_000,
        n in 1usize..10,
        dim in 1usize..40,
    ) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let updates = random_updates(&mut rng, n, dim);
        let fedavg = aggregate_with(&AggregationAlgorithm::FedAvg, &updates, dim, 1);
        let trimmed = aggregate_with(
            &AggregationAlgorithm::TrimmedMean { trim: 0.0 }, &updates, dim, 1,
        );
        for (x, y) in fedavg.iter().zip(&trimmed) {
            prop_assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    /// Everywhere an exact two-level combine is claimed
    /// (`exact_sharded()`), the sharded aggregate equals the flat one bit
    /// for bit, for every shard count.
    #[test]
    fn sharded_equals_flat_wherever_exactness_is_claimed(
        seed in 0u64..1_000_000,
        n in 1usize..10,
        dim in 1usize..40,
        shards in 1usize..9,
    ) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let updates = random_updates(&mut rng, n, dim);
        for algorithm in [
            AggregationAlgorithm::FedAvg,
            AggregationAlgorithm::FedNova,
            AggregationAlgorithm::Median,
            AggregationAlgorithm::TrimmedMean { trim: 0.25 },
        ] {
            prop_assert!(algorithm.exact_sharded());
            let flat = aggregate_with(&algorithm, &updates, dim, 1);
            let sharded = aggregate_with(&algorithm, &updates, dim, shards);
            for (x, y) in flat.iter().zip(&sharded) {
                prop_assert_eq!(
                    x.to_bits(), y.to_bits(),
                    "{} at {} shards", algorithm.name(), shards
                );
            }
        }
    }

    /// Role assignment is a pure function of `(seed, id)`: independent of
    /// call order, other devices, and the fraction layout within a role.
    #[test]
    fn role_assignment_is_pure_in_seed_and_id(
        seed in 0u64..1_000_000,
        id in 0usize..10_000,
    ) {
        let adv = AdversaryConfig::mixed(0.3);
        let first = adv.role_of(seed, id);
        for _ in 0..4 {
            prop_assert_eq!(adv.role_of(seed, id), first);
        }
        // Raising a disjoint role's fraction never flips an assignment
        // between the roles below it in the cumulative cut.
        let mut wider = adv;
        wider.faulty_sensor_fraction = 0.2;
        let widened = wider.role_of(seed, id);
        if first != AdversaryRole::Honest {
            prop_assert_eq!(widened, first, "cut widening reshuffled a role");
        }
    }
}

// ---------------------------------------------------------------------
// Golden spec + trace: poisoners vs Krum, end to end.
// ---------------------------------------------------------------------

/// The adversarial smoke spec: a 30% label-flipping fleet under Krum at
/// smoke scale. Regenerate with `AUTOFL_REGEN_SPECS=1 cargo test --test
/// adversary` after an intentional schema change.
fn adv_smoke_spec() -> ExperimentSpec {
    let mut config = SimConfig::smoke(42);
    config.max_rounds = 60;
    config.target_accuracy = Some(1.1);
    config.algorithm = AggregationAlgorithm::Krum;
    config.adversary = Some(AdversaryConfig::poisoning(0.3));
    ExperimentSpec::new("adv-smoke", config, ["FedAvg-Random"], 1)
}

#[test]
fn checked_in_adv_spec_matches_its_generator() {
    let path = "tests/specs/adv_smoke.json";
    let spec = adv_smoke_spec();
    if std::env::var("AUTOFL_REGEN_SPECS").is_ok() {
        std::fs::write(path, spec.to_json() + "\n").expect("write spec file");
        return;
    }
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("{path}: {e} (AUTOFL_REGEN_SPECS=1 to create)"));
    let parsed = ExperimentSpec::from_json(&text).expect(path);
    assert_eq!(parsed, spec, "{path} drifted from its generator");
    assert_eq!(text.trim_end(), spec.to_json(), "{path} is not canonical");
}

#[test]
fn adv_spec_trace_matches_the_checked_in_golden_file() {
    // Pins the adversarial trajectory — poisoners active, Krum filtering,
    // `adversarial`/`flagged` counters on every record — byte for byte,
    // exactly as `spec_run tests/specs/adv_smoke.json --trace` writes it.
    let path = "tests/specs/adv_smoke_trace.jsonl";
    let (produced, result) = spec_run_trace(&adv_smoke_spec());
    assert_eq!(produced.lines().count(), result.records.len());
    let poisoned: usize = result
        .records
        .iter()
        .map(|r| r.adversarial.expect("subsystem on"))
        .sum();
    assert!(
        poisoned > 0,
        "the 30% poisoning fleet must select attackers"
    );
    if std::env::var("AUTOFL_REGEN_SPECS").is_ok() {
        std::fs::write(path, &produced).expect("write golden trace");
        return;
    }
    let golden = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("{path}: {e} (AUTOFL_REGEN_SPECS=1 to create)"));
    assert!(
        produced == golden,
        "{path} drifted from `spec_run --trace` output: the JSONL record \
         format or the adversarial smoke trajectory changed \
         (AUTOFL_REGEN_SPECS=1 to regenerate intentionally)"
    );
}

// ---------------------------------------------------------------------
// Golden digests: condition-reading selectors under faulty sensors.
// ---------------------------------------------------------------------

/// The golden file of faulty-sensor trace digests, keyed by run label.
/// Regenerate with `AUTOFL_REGEN_SPECS=1 cargo test --test adversary`
/// after an intentional trajectory change.
const CONDITIONS_DIGESTS: &str = "tests/specs/conditions_digests.json";

/// A smoke fleet on which every input of the conditions path is live:
/// realistic variance, fleet dynamics (whose thermal throttle the cost
/// model reads), faulty sensors lying to selection under FedAvg, and
/// realistic links whose latency and loss draws read the true signal.
fn lying_sensor_config(shards: usize) -> SimConfig {
    let mut cfg = SimConfig::smoke(29);
    cfg.scenario = autofl_device::scenario::VarianceScenario::realistic();
    cfg.fleet = Some(FleetDynamics::realistic());
    cfg.network = Some(NetworkFabric::new(LinkModel::realistic()));
    cfg.algorithm = AggregationAlgorithm::FedAvg;
    cfg.adversary = Some(AdversaryConfig {
        faulty_sensor_fraction: 0.2,
        ..AdversaryConfig::poisoning(0.0)
    });
    cfg.max_rounds = 20;
    cfg.target_accuracy = Some(1.1);
    cfg.shards = shards;
    cfg
}

/// Digests of the selectors that read every device's reported conditions
/// — `O_participant`, `O_FL` and AutoFL — at shards {1, 4}, in file order.
fn conditions_digests() -> Vec<(String, serde_json::Value)> {
    let registry = standard_registry();
    let mut entries = Vec::new();
    for name in ["O_participant", "O_FL", "AutoFL"] {
        let policy = registry.get(name).expect("registered policy");
        for shards in [1, 4] {
            let result = run_policy(&lying_sensor_config(shards), policy);
            let label = format!("{name} shards={shards}");
            assert!(
                result
                    .records
                    .iter()
                    .any(|r| r.adversarial.expect("subsystem on") > 0),
                "{label}: no faulty sensor was ever selected"
            );
            entries.push((label, serde_json::Value::Str(trace_digest(&result.records))));
        }
    }
    entries
}

#[test]
fn faulty_sensor_traces_match_their_pinned_digests() {
    let entries = with_threads(1, conditions_digests);
    assert_eq!(
        with_threads(4, conditions_digests),
        entries,
        "condition reads must not depend on the thread count"
    );
    let text = serde_json::to_string_pretty(&serde_json::Value::Map(entries))
        .expect("digests serialize")
        + "\n";
    if std::env::var("AUTOFL_REGEN_SPECS").is_ok() {
        std::fs::write(CONDITIONS_DIGESTS, &text).expect("write conditions digests");
        return;
    }
    let golden = std::fs::read_to_string(CONDITIONS_DIGESTS)
        .unwrap_or_else(|e| panic!("{CONDITIONS_DIGESTS}: {e} (AUTOFL_REGEN_SPECS=1 to create)"));
    assert_eq!(
        golden, text,
        "{CONDITIONS_DIGESTS} is stale or not canonical \
         (AUTOFL_REGEN_SPECS=1 to regenerate intentionally)"
    );
}
