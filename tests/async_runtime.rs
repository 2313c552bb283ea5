//! The event runtime's two contracts (see `docs/async-runtime.md`):
//!
//! 1. **The barrier is lockstep FedAvg.** Every run steps the event
//!    scheduler, and its full barrier (the default) reproduces the traces
//!    of the lockstep loop it replaced byte for byte. They are pinned as
//!    digests in `tests/specs/barrier_digests.json` — every registered
//!    policy at shards {1, 4} with fleet dynamics, dropout and OverSelect
//!    active, real training, and a network fabric with every feature on
//!    (checked in `tests/network_fabric.rs`) — and checked at
//!    `AUTOFL_THREADS` ∈ {1, 4}. A convergence controller retunes before
//!    the next cohort dispatches, as in a lockstep loop.
//! 2. **Determinism** — buffered staleness-weighted aggregation is
//!    bit-reproducible per seed at any thread count, and the staleness
//!    weights themselves are deterministic and sum-normalized.
//!
//! To regenerate the digests after an intentional trajectory change:
//! `AUTOFL_REGEN_SPECS=1 cargo test --test async_runtime`.

mod common;

use autofl_fed::engine::{Fidelity, RoundRecord, SimConfig, Simulation};
use autofl_fed::fleet::{survivor_weights, FleetDynamics, StragglerPolicy};
use autofl_fed::policy::{run_policy, RandomPolicy};
use autofl_fed::runtime::{staleness_weight, AsyncRuntime};
use autofl_fed::selection::RandomSelector;
use autofl_fed::serve::{ConvergeTarget, ExperimentRun};
use autofl_nn::zoo::Workload;
use common::{assert_pinned_barrier_trace, fabric_barrier_config, trace_digest, BARRIER_DIGESTS};
use proptest::prelude::*;

/// Runs `f` with `AUTOFL_THREADS` pinned to `threads`, restoring the
/// previous value afterwards (same helper as `tests/determinism.rs`).
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

/// A run's JSONL trace, one serialized record per line as the round
/// sinks write it. Floats serialize shortest-round-trip, so equal traces
/// mean bit-identical records.
fn trace(records: &[RoundRecord]) -> String {
    records
        .iter()
        .map(|r| serde_json::to_string(r).expect("record serializes") + "\n")
        .collect()
}

/// A smoke-scale configuration with every fleet-dynamics effect active —
/// churn, battery, mid-round dropout and OverSelect — the hardest config
/// for the barrier contract.
fn dynamic_config(seed: u64, shards: usize) -> SimConfig {
    let mut cfg = SimConfig::smoke(seed);
    cfg.scenario = autofl_device::scenario::VarianceScenario::realistic();
    cfg.max_rounds = 20;
    cfg.target_accuracy = Some(1.1);
    cfg.shards = shards;
    cfg.fleet = Some(
        FleetDynamics::with_dropout_rate(0.35).straggler(StragglerPolicy::OverSelect { extra: 5 }),
    );
    cfg
}

/// The pinned runs of every registered policy at shards {1, 4} on the
/// full-dynamics config, as `(label, records)`.
fn policy_runs() -> Vec<(String, Vec<RoundRecord>)> {
    let mut runs = Vec::new();
    for policy in autofl_core::standard_registry().iter() {
        for shards in [1, 4] {
            let result = run_policy(&dynamic_config(13, shards), policy);
            runs.push((format!("{} shards={shards}", policy.name()), result.records));
        }
    }
    runs
}

/// The pinned real-training run: the tiny workload for four rounds.
fn real_training_run() -> Vec<RoundRecord> {
    let mut cfg = SimConfig::tiny_test(5);
    cfg.fidelity = Fidelity::RealTraining {
        lr: 0.08,
        eval_samples: 48,
    };
    cfg.max_rounds = 4;
    cfg.target_accuracy = Some(1.1);
    Simulation::new(cfg).run(&mut RandomSelector::new()).records
}

#[test]
fn barrier_runtime_reproduces_lockstep_for_every_policy() {
    // Across the whole policy registry (baselines, clusters, oracles,
    // AutoFL) at AUTOFL_THREADS ∈ {1, 4} × shards ∈ {1, 4}.
    for threads in [1, 4] {
        for (label, records) in with_threads(threads, policy_runs) {
            assert!(
                records.iter().all(|r| r.mean_staleness == 0.0),
                "{label}: a full barrier has no stale updates"
            );
            assert_pinned_barrier_trace(&label, &records, threads);
        }
    }
}

#[test]
fn barrier_equivalence_holds_under_real_training() {
    // The contract is engine-agnostic: pin it once on the real-training
    // path too (tiny workload, few rounds).
    for threads in [1, 4] {
        let records = with_threads(threads, real_training_run);
        assert_pinned_barrier_trace("real-training", &records, threads);
    }
}

#[test]
fn checked_in_barrier_digests_match_their_generator() {
    // Every pinned run in file order, so an entry that no run produces,
    // or a non-canonical file, fails here.
    let digest = |records: Vec<RoundRecord>| serde_json::Value::Str(trace_digest(&records));
    let mut entries: Vec<(String, serde_json::Value)> = policy_runs()
        .into_iter()
        .map(|(label, records)| (label, digest(records)))
        .collect();
    entries.push(("real-training".to_string(), digest(real_training_run())));
    let fabric = Simulation::new(fabric_barrier_config()).run(&mut RandomSelector::new());
    entries.push(("network-fabric".to_string(), digest(fabric.records)));
    let text = serde_json::to_string_pretty(&serde_json::Value::Map(entries))
        .expect("digests serialize")
        + "\n";
    if std::env::var("AUTOFL_REGEN_SPECS").is_ok() {
        std::fs::write(BARRIER_DIGESTS, &text).expect("write barrier digests");
        return;
    }
    let golden = std::fs::read_to_string(BARRIER_DIGESTS)
        .unwrap_or_else(|e| panic!("{BARRIER_DIGESTS}: {e} (AUTOFL_REGEN_SPECS=1 to create)"));
    assert_eq!(
        golden, text,
        "{BARRIER_DIGESTS} is stale or not canonical \
         (AUTOFL_REGEN_SPECS=1 to regenerate intentionally)"
    );
}

#[test]
fn convergence_control_retunes_before_the_next_dispatch() {
    // The controller observes record r and retunes K before cohort r + 1
    // dispatches, so every cohort is sized by the K in force after the
    // previous record — with an explicit barrier exactly as by default.
    let control = Some(ConvergeTarget::EnergyBudget {
        joules_per_round: 0.05,
    });
    let controlled_trace = |runtime: Option<AsyncRuntime>| {
        let mut config = SimConfig::tiny_test(53);
        config.fleet = Some(FleetDynamics::realistic());
        config.max_rounds = 12;
        config.target_accuracy = Some(1.1);
        config.runtime = runtime;
        let mut run =
            ExperimentRun::new(&config, &RandomPolicy, control).expect("config validates");
        let mut k = run.params().num_participants;
        while let Some(record) = run.step().expect("stepping cannot fail") {
            let eligible = config.num_devices - record.ineligible;
            assert_eq!(
                record.participants.len(),
                k.min(eligible),
                "round {} ignored the K retuned after the previous record",
                record.round
            );
            k = run.params().num_participants;
        }
        assert!(k < 4, "a 0.05 J budget must shrink K from 4, ended at {k}");
        trace(run.records())
    };
    assert_eq!(
        controlled_trace(None),
        controlled_trace(Some(AsyncRuntime::barrier()))
    );
}

#[test]
fn lockstep_logical_clock_accumulates_round_times() {
    let result = Simulation::new(dynamic_config(7, 1)).run(&mut RandomSelector::new());
    let mut clock = 0.0f64;
    for rec in &result.records {
        assert_eq!(rec.dispatch_time_s.to_bits(), clock.to_bits());
        clock += rec.round_time_s;
        assert_eq!(rec.logical_time_s.to_bits(), clock.to_bits());
    }
}

fn buffered_config(seed: u64) -> SimConfig {
    let mut cfg = dynamic_config(seed, 4);
    cfg.runtime = Some(AsyncRuntime::buffered(8, 0.5).concurrent_cohorts(3));
    cfg
}

#[test]
fn buffered_runtime_is_bit_reproducible_across_thread_counts() {
    let run = |threads: usize| {
        with_threads(threads, || {
            Simulation::new(buffered_config(19)).run(&mut RandomSelector::new())
        })
    };
    let base = run(1);
    for threads in [2, 4] {
        assert_eq!(
            trace(&base.records),
            trace(&run(threads).records),
            "threads {threads}"
        );
    }
    // The async pipeline must actually exercise staleness: with three
    // cohorts in flight and an 8-update buffer, some updates wait.
    assert!(
        base.records.iter().any(|r| r.mean_staleness > 0.0),
        "a 3-deep pipeline must produce stale updates"
    );
    // Logical time stays monotone in completion order even when cohorts
    // finish out of dispatch order.
    for rec in &base.records {
        assert!(rec.logical_time_s >= rec.dispatch_time_s);
        assert!(rec.mean_staleness.is_finite() && rec.mean_staleness >= 0.0);
    }
}

#[test]
fn buffered_runtime_diverges_from_the_barrier() {
    // Sanity check that the buffer/staleness knobs are actually live:
    // a buffered run must differ observably from the barrier run.
    let barrier = {
        let mut cfg = dynamic_config(19, 4);
        cfg.runtime = Some(AsyncRuntime::barrier());
        Simulation::new(cfg).run(&mut RandomSelector::new())
    };
    let buffered = Simulation::new(buffered_config(19)).run(&mut RandomSelector::new());
    let same_accuracy = barrier
        .records
        .iter()
        .zip(buffered.records.iter())
        .all(|(a, b)| a.accuracy.to_bits() == b.accuracy.to_bits());
    assert!(
        !same_accuracy,
        "buffered staleness-weighted aggregation must change the trajectory"
    );
}

#[test]
fn spec_round_trips_the_runtime_block() {
    // AsyncRuntime serializes through SimConfig (spec files) and an
    // absent field deserializes to `None`, the barrier default.
    let mut cfg = SimConfig::tiny_test(1);
    cfg.runtime = Some(AsyncRuntime::buffered(4, 1.0).concurrent_cohorts(2));
    let json = serde_json::to_string(&cfg).expect("config serializes");
    let back: SimConfig = serde_json::from_str(&json).expect("config parses");
    assert_eq!(back, cfg);

    let plain = serde_json::to_string(&SimConfig::tiny_test(1)).expect("serializes");
    let stripped = plain.replace("\"runtime\":null,", "");
    let back: SimConfig = serde_json::from_str(&stripped).expect("pre-runtime spec parses");
    assert_eq!(back.runtime, None);
}

#[test]
fn builder_builds_event_driven_simulations() {
    let result = Simulation::builder(Workload::TinyTest)
        .devices(12)
        .params(autofl_fed::global::GlobalParams::new(8, 1, 4))
        .samples_per_device(24)
        .test_samples(48)
        .max_rounds(6)
        .target_accuracy(1.1)
        .runtime(AsyncRuntime::buffered(2, 1.0))
        .seed(3)
        .build()
        .expect("valid event-driven configuration")
        .run(&mut RandomSelector::new());
    assert_eq!(result.records.len(), 6);
    assert!(result.final_accuracy() > 0.0);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Staleness weights are a deterministic pure function, bounded in
    /// (0, 1], exactly 1 when fresh, and non-increasing in staleness.
    #[test]
    fn staleness_weights_are_deterministic_and_bounded(
        staleness in 0u64..10_000,
        exponent in 0.0f64..8.0,
    ) {
        let w = staleness_weight(staleness, exponent);
        prop_assert_eq!(w.to_bits(), staleness_weight(staleness, exponent).to_bits());
        prop_assert!(w > 0.0 && w <= 1.0);
        prop_assert_eq!(staleness_weight(0, exponent).to_bits(), 1.0f64.to_bits());
        prop_assert!(staleness_weight(staleness + 1, exponent) <= w);
    }

    /// Aggregation stays sum-normalized under staleness discounting: the
    /// survivor weights computed from staleness-discounted sample masses
    /// sum to exactly 1.0 (bit-for-bit), as the engine's debug invariant
    /// demands.
    #[test]
    fn discounted_survivor_weights_sum_to_exactly_one(
        seed in 0u64..1_000_000,
        cohort in 1usize..40,
        exponent in 0.0f64..4.0,
    ) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
        let effectives: Vec<f64> = (0..cohort)
            .map(|_| {
                let mass = rng.gen_range(1..10_000u32) as f64;
                let staleness = rng.gen_range(0..50u64);
                mass * staleness_weight(staleness, exponent)
            })
            .collect();
        let weights = survivor_weights(&effectives);
        prop_assert_eq!(weights.iter().sum::<f64>().to_bits(), 1.0f64.to_bits());
    }
}
