//! Bit-reproducibility of the round engine.
//!
//! Everything stochastic in the workspace flows from explicit seeds
//! (`SimConfig::seed`, `AutoFlConfig::seed`), through the in-tree
//! deterministic `rand` shim. These tests pin the contract: the same seed
//! must reproduce a run *bit for bit* — round counts, selected cohorts,
//! execution plans, energies and PPW metrics — and different seeds must
//! actually change the simulation.

use autofl_core::AutoFl;
use autofl_device::scenario::VarianceScenario;
use autofl_fed::engine::{Fidelity, SimConfig, SimResult, Simulation};
use autofl_fed::fleet::{FleetDynamics, StragglerPolicy};
use autofl_fed::oracle::OracleSelector;
use autofl_fed::policy::run_policy;
use autofl_fed::selection::{RandomSelector, Selector};

/// Runs `f` with `AUTOFL_THREADS` pinned to `threads`, restoring the
/// previous value afterwards. Concurrently-running tests may observe the
/// temporary value, but thread count never affects results (that is
/// exactly the contract under test), only scheduling.
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

fn run_with(seed: u64, make: &dyn Fn() -> Box<dyn Selector>) -> SimResult {
    let mut selector = make();
    Simulation::new(SimConfig::smoke(seed)).run(selector.as_mut())
}

fn assert_bit_identical(a: &SimResult, b: &SimResult) {
    assert_eq!(a.records.len(), b.records.len(), "round counts differ");
    for (ra, rb) in a.records.iter().zip(b.records.iter()) {
        assert_eq!(ra.participants, rb.participants, "round {}", ra.round);
        assert_eq!(ra.plans, rb.plans, "round {}", ra.round);
        assert_eq!(ra.dropped, rb.dropped, "round {}", ra.round);
        assert_eq!(ra.dropouts, rb.dropouts, "round {}", ra.round);
        assert_eq!(ra.ineligible, rb.ineligible, "round {}", ra.round);
        // f64 equality on purpose: the contract is bit-reproducibility,
        // not approximate agreement.
        assert_eq!(ra.accuracy.to_bits(), rb.accuracy.to_bits());
        assert_eq!(ra.round_time_s.to_bits(), rb.round_time_s.to_bits());
        assert_eq!(ra.active_energy_j.to_bits(), rb.active_energy_j.to_bits());
        assert_eq!(ra.idle_energy_j.to_bits(), rb.idle_energy_j.to_bits());
    }
    assert_eq!(a.ppw_global().to_bits(), b.ppw_global().to_bits());
    assert_eq!(a.ppw_local().to_bits(), b.ppw_local().to_bits());
    assert_eq!(
        a.time_to_target_s().to_bits(),
        b.time_to_target_s().to_bits()
    );
}

type PolicyFactory = Box<dyn Fn() -> Box<dyn Selector>>;

fn policies() -> Vec<(&'static str, PolicyFactory)> {
    vec![
        ("random", Box::new(|| Box::new(RandomSelector::new()))),
        ("autofl", Box::new(|| Box::new(AutoFl::paper_default()))),
        ("oracle", Box::new(|| Box::new(OracleSelector::full()))),
    ]
}

#[test]
fn same_seed_reproduces_every_policy_bit_for_bit() {
    for (name, make) in policies() {
        let a = run_with(7, make.as_ref());
        let b = run_with(7, make.as_ref());
        assert_eq!(a.records.len(), b.records.len(), "{name}");
        assert_bit_identical(&a, &b);
    }
}

#[test]
fn thread_count_never_changes_surrogate_results() {
    // The parallel-runtime contract: AUTOFL_THREADS tunes wall-clock
    // only. Same seed ⇒ bit-identical rounds, energies, PPW and final
    // accuracy at 1, 2 and 8 threads, for every policy.
    for (name, make) in policies() {
        let base = with_threads(1, || run_with(11, make.as_ref()));
        for threads in [2, 8] {
            let other = with_threads(threads, || run_with(11, make.as_ref()));
            assert_eq!(
                base.final_accuracy().to_bits(),
                other.final_accuracy().to_bits(),
                "{name} at {threads} threads"
            );
            assert_bit_identical(&base, &other);
        }
    }
}

fn real_training_run() -> SimResult {
    let mut cfg = SimConfig::tiny_test(5);
    cfg.fidelity = Fidelity::RealTraining {
        lr: 0.08,
        eval_samples: 48,
    };
    cfg.max_rounds = 6;
    Simulation::new(cfg).run(&mut RandomSelector::new())
}

#[test]
fn thread_count_never_changes_real_training_results() {
    // Real federated SGD fans each client out across the pool; per-device
    // RNG streams and participant-order aggregation keep the global model
    // (and hence accuracy, energy, PPW) bit-identical at any thread count.
    let base = with_threads(1, real_training_run);
    for threads in [2, 8] {
        let other = with_threads(threads, real_training_run);
        assert_eq!(
            base.final_accuracy().to_bits(),
            other.final_accuracy().to_bits(),
            "real training diverged at {threads} threads"
        );
        assert_bit_identical(&base, &other);
    }
}

/// A smoke-scale configuration with every fleet-dynamics effect active:
/// runtime variance, churn, battery, thermal, mid-round dropout.
fn dropout_config(seed: u64, straggler: StragglerPolicy) -> SimConfig {
    let mut cfg = SimConfig::smoke(seed);
    cfg.scenario = VarianceScenario::realistic();
    cfg.max_rounds = 20;
    cfg.target_accuracy = Some(1.1);
    cfg.fleet = Some(FleetDynamics::with_dropout_rate(0.35).straggler(straggler));
    cfg
}

#[test]
fn thread_count_never_changes_dropout_enabled_results() {
    // The fleet-dynamics subsystem evolves lifecycle state with
    // per-device RNG streams; this pins the contract across every
    // registered policy (baselines, clusters, oracles, AutoFL) with
    // dropout, churn and OverSelect all active.
    let registry = autofl_core::standard_registry();
    for policy in registry.iter() {
        let run = |threads: usize| {
            with_threads(threads, || {
                let cfg = dropout_config(13, StragglerPolicy::OverSelect { extra: 5 });
                run_policy(&cfg, policy)
            })
        };
        let base = run(1);
        let total_dropouts: usize = base.records.iter().map(|r| r.dropouts.len()).sum();
        assert!(
            total_dropouts > 0,
            "{}: the dropout config must actually drop devices",
            policy.name()
        );
        for threads in [2, 8] {
            let other = run(threads);
            assert_bit_identical(&base, &other);
        }
    }
}

#[test]
fn thread_count_never_changes_wait_and_drop_policies() {
    // The remaining straggler policies, pinned with the random baseline.
    for straggler in [
        StragglerPolicy::Drop,
        StragglerPolicy::WaitBounded { grace: 1.6 },
    ] {
        let run = |threads: usize| {
            with_threads(threads, || {
                let mut selector = RandomSelector::new();
                Simulation::new(dropout_config(29, straggler)).run(&mut selector)
            })
        };
        let base = run(1);
        for threads in [2, 8] {
            assert_bit_identical(&base, &run(threads));
        }
    }
}

#[test]
fn different_seeds_diverge() {
    for (name, make) in policies() {
        let a = run_with(7, make.as_ref());
        let b = run_with(8, make.as_ref());
        // The runs must differ somewhere observable: cohort history,
        // energy totals, or convergence round.
        let same_participants = a.records.len() == b.records.len()
            && a.records
                .iter()
                .zip(b.records.iter())
                .all(|(ra, rb)| ra.participants == rb.participants);
        let same_energy = a.energy_to_target_j().to_bits() == b.energy_to_target_j().to_bits();
        assert!(
            !(same_participants && same_energy),
            "{name}: seeds 7 and 8 produced identical runs"
        );
    }
}

#[test]
fn determinism_survives_interleaved_construction() {
    // Two simulations built and stepped in interleaved order must not
    // share hidden state (thread-locals, statics).
    let mut cfg = SimConfig::smoke(3);
    cfg.max_rounds = 20;
    cfg.target_accuracy = Some(1.1);
    let mut sim_a = Simulation::new(cfg.clone());
    let mut sim_b = Simulation::new(cfg);
    let mut sel_a = RandomSelector::new();
    let mut sel_b = RandomSelector::new();
    for round in 0..20 {
        let ra = sim_a.step(&mut sel_a).expect("fixed horizon");
        let rb = sim_b.step(&mut sel_b).expect("fixed horizon");
        assert_eq!(ra.participants, rb.participants, "round {round}");
        assert_eq!(ra.accuracy.to_bits(), rb.accuracy.to_bits());
    }
}
