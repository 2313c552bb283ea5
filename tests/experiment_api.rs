//! Cross-crate contract tests for the experiment API: a conformance
//! suite every registered policy must pass, spec-file round-trips against
//! the checked-in files under `tests/specs/`, and builder/registry
//! integration.
//!
//! To regenerate the checked-in spec files after an intentional schema
//! change: `AUTOFL_REGEN_SPECS=1 cargo test --test experiment_api`.

mod common;

use autofl::fed::engine::{SimConfig, Simulation};
use autofl::fed::fabric::{CodecSpec, LinkModel, NetworkFabric};
use autofl::fed::fleet::FleetDynamics;
use autofl::fed::policy::{run_policy, Policy};
use autofl::fed::runtime::AsyncRuntime;
use autofl::fed::serve::{serve, ConvergeTarget, ServeOptions, UnitSummary};
use autofl::fed::spec::ExperimentSpec;
use autofl::{standard_registry, PAPER_POLICIES};
use autofl_fed::GlobalParams;
use autofl_nn::zoo::Workload;
use common::{jsonl, spec_run_trace};

/// A small fleet with every tier present, high enough that K=20 fits.
fn conformance_config() -> SimConfig {
    let mut cfg = SimConfig::smoke(11);
    cfg.max_rounds = 3;
    cfg.target_accuracy = Some(1.1); // fixed round count for comparisons
    cfg
}

/// Runs `policy` for the config's fixed horizon and returns each round's
/// (participants, plans).
fn decisions(cfg: &SimConfig, policy: &dyn Policy) -> Vec<(Vec<usize>, Vec<String>)> {
    let mut selector = policy.make_selector();
    Simulation::new(cfg.clone())
        .run(selector.as_mut())
        .records
        .iter()
        .map(|rec| {
            (
                rec.participants.iter().map(|id| id.0).collect(),
                rec.plans.iter().map(|p| format!("{p:?}")).collect(),
            )
        })
        .collect()
}

#[test]
fn every_registered_policy_passes_the_conformance_suite() {
    let cfg = conformance_config();
    let registry = standard_registry();
    assert!(registry.len() >= PAPER_POLICIES.len());
    for policy in registry.iter() {
        let name = policy.name().to_string();
        // 1. The minted selector reports the policy's name.
        assert_eq!(policy.make_selector().name(), name, "{name}");

        let first = decisions(&cfg, policy);
        for (round, (participants, plans)) in first.iter().enumerate() {
            // 2. K is respected exactly (the smoke fleet can realise every
            // composition by falling back to random fill).
            assert_eq!(
                participants.len(),
                cfg.params.num_participants,
                "{name} round {round} violated K"
            );
            assert_eq!(plans.len(), participants.len(), "{name} plan alignment");
            // 3. Every id is a member of the fleet...
            assert!(
                participants.iter().all(|id| *id < cfg.num_devices),
                "{name} round {round} selected outside the fleet"
            );
            // 4. ...and no id repeats.
            let mut unique = participants.clone();
            unique.sort_unstable();
            unique.dedup();
            assert_eq!(
                unique.len(),
                participants.len(),
                "{name} round {round} selected a duplicate"
            );
        }

        // 5. Decisions are deterministic under a fixed seed: a fresh
        // selector on a fresh simulation reproduces every round exactly.
        let second = decisions(&cfg, policy);
        assert_eq!(first, second, "{name} is not deterministic per seed");
    }
}

#[test]
fn registry_and_direct_selector_runs_are_bit_identical() {
    let cfg = conformance_config();
    let registry = standard_registry();
    for name in PAPER_POLICIES {
        let policy = registry.expect(name);
        let via_registry = run_policy(&cfg, policy);
        let mut selector = policy.make_selector();
        let direct = Simulation::new(cfg.clone()).run(selector.as_mut());
        assert_eq!(via_registry.records.len(), direct.records.len(), "{name}");
        for (a, b) in via_registry.records.iter().zip(&direct.records) {
            assert_eq!(a.participants, b.participants, "{name}");
            assert_eq!(a.accuracy.to_bits(), b.accuracy.to_bits(), "{name}");
            assert_eq!(
                a.active_energy_j.to_bits(),
                b.active_energy_j.to_bits(),
                "{name}"
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Checked-in spec files.
// ---------------------------------------------------------------------------

/// The CI smoke spec: three policies, one repeat, smoke-scale fleet.
fn smoke_spec() -> ExperimentSpec {
    let mut config = SimConfig::smoke(42);
    config.max_rounds = 120;
    config.target_accuracy = Some(1.1);
    ExperimentSpec::new(
        "ci-smoke",
        config,
        ["FedAvg-Random", "Performance", "AutoFL"],
        1,
    )
}

/// One full Figure 4 row: CNN-MNIST at S3, the random baseline plus every
/// fixed cluster C1–C7 (the `spec_run` binary prints the same PPW ratios
/// the `fig04` figure computes for this row).
fn fig04_spec() -> ExperimentSpec {
    let config = Simulation::builder(Workload::CnnMnist)
        .params(GlobalParams::s3())
        .max_rounds(400)
        .build_config()
        .expect("fig04 row config is valid");
    ExperimentSpec::new(
        "fig04-s3-cnn-mnist",
        config,
        ["FedAvg-Random", "C1", "C2", "C3", "C4", "C5", "C6", "C7"],
        1,
    )
}

/// The CI convergence-control spec: the smoke fleet under a per-round
/// energy budget of about half what uncontrolled FedAvg-Random spends
/// there (the `figures fig_tune --smoke` ratio), so the controller
/// shrinks `K`.
fn control_smoke_spec() -> ExperimentSpec {
    let mut config = SimConfig::smoke(42);
    config.max_rounds = 60;
    config.target_accuracy = Some(1.1);
    ExperimentSpec::new("ci-control-smoke", config, ["FedAvg-Random", "AutoFL"], 1).with_control(
        ConvergeTarget::EnergyBudget {
            joules_per_round: 200.0,
        },
    )
}

/// The CI spec whose serve kill lands with cohorts in flight: two
/// pipelined buffered cohorts under realistic fleet dynamics and calm
/// links with top-k, so its checkpoints hold in-flight cohorts, pending
/// AutoFL rounds and the fleet's lifecycle columns.
fn serve_async_smoke_spec() -> ExperimentSpec {
    let mut config = SimConfig::smoke(42);
    config.num_devices = 60;
    config.max_rounds = 40;
    config.target_accuracy = Some(1.1);
    config.fleet = Some(FleetDynamics::realistic());
    config.runtime = Some(AsyncRuntime::buffered(2, 1.0).concurrent_cohorts(2));
    config.network =
        Some(NetworkFabric::new(LinkModel::calm()).with_codec(CodecSpec::TopK { k_frac: 0.1 }));
    ExperimentSpec::new(
        "ci-serve-async-smoke",
        config,
        ["FedAvg-Random", "AutoFL"],
        1,
    )
}

#[test]
fn checked_in_spec_files_match_their_generators() {
    let specs = [
        ("tests/specs/smoke.json", smoke_spec()),
        ("tests/specs/fig04_s3_cnn.json", fig04_spec()),
        ("tests/specs/control_smoke.json", control_smoke_spec()),
        (
            "tests/specs/serve_async_smoke.json",
            serve_async_smoke_spec(),
        ),
    ];
    for (path, spec) in specs {
        if std::env::var("AUTOFL_REGEN_SPECS").is_ok() {
            std::fs::write(path, spec.to_json() + "\n").expect("write spec file");
            continue;
        }
        let text = std::fs::read_to_string(path)
            .unwrap_or_else(|e| panic!("{path}: {e} (AUTOFL_REGEN_SPECS=1 to create)"));
        let parsed = ExperimentSpec::from_json(&text).expect(path);
        assert_eq!(parsed, spec, "{path} drifted from its generator");
        // The files are byte-canonical: re-exporting produces the same
        // text, so diffs stay reviewable.
        assert_eq!(text.trim_end(), spec.to_json(), "{path} is not canonical");
    }
}

#[test]
fn smoke_spec_trace_matches_the_checked_in_golden_file() {
    // Reproduces exactly what `spec_run tests/specs/smoke.json --trace`
    // writes — the spec's first policy at the first repeat's seed with a
    // JSONL round sink — and pins it byte for byte, so the observer
    // output format (and the trajectory underneath it) cannot drift
    // silently. `AUTOFL_REGEN_SPECS=1` regenerates after an intentional
    // format change.
    let path = "tests/specs/smoke_trace.jsonl";
    let text = std::fs::read_to_string("tests/specs/smoke.json").expect("smoke spec");
    let spec = ExperimentSpec::from_json(&text).expect("smoke spec parses");
    let (produced, result) = spec_run_trace(&spec);
    assert_eq!(produced.lines().count(), result.records.len());
    if std::env::var("AUTOFL_REGEN_SPECS").is_ok() {
        std::fs::write(path, &produced).expect("write golden trace");
        return;
    }
    let golden = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("{path}: {e} (AUTOFL_REGEN_SPECS=1 to create)"));
    assert!(
        produced == golden,
        "{path} drifted from `spec_run --trace` output: the JSONL record \
         format or the smoke trajectory changed \
         (AUTOFL_REGEN_SPECS=1 to regenerate intentionally)"
    );
}

#[test]
fn a_controlled_spec_gives_one_trace_through_every_runner() {
    // `control` means the same thing under `ExperimentSpec::run`,
    // `spec_run --trace` and `spec_serve`.
    let spec = control_smoke_spec();
    let registry = standard_registry();
    let runs = spec.run(&registry).expect("control spec runs");
    let from_spec_run = jsonl(&runs[0].result.records);
    assert!(
        spec_run_trace(&spec).0 == from_spec_run,
        "spec_run --trace and ExperimentSpec::run disagree"
    );

    // What `spec_serve --once` writes for the same unit.
    let root = std::env::temp_dir().join(format!("autofl-control-smoke-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    std::fs::create_dir_all(root.join("queue")).expect("queue dir");
    std::fs::write(root.join("queue/control_smoke.json"), spec.to_json()).expect("queue spec");
    let opts = ServeOptions {
        once: true,
        ..ServeOptions::new(&root)
    };
    serve(&registry, &opts).expect("serve drains the job");
    let done = root.join("done/control_smoke");
    let served =
        std::fs::read_to_string(done.join("traces/FedAvg-Random-r0.jsonl")).expect("served trace");
    assert!(
        served == from_spec_run,
        "spec_serve and ExperimentSpec::run disagree"
    );

    // The control block took effect: K shrank, and the trace differs from
    // the same spec without control.
    let summary: Vec<UnitSummary> =
        serde_json::from_str(&std::fs::read_to_string(done.join("summary.json")).expect("summary"))
            .expect("summary parses");
    assert!(
        summary
            .iter()
            .all(|unit| unit.final_k < spec.config.params.num_participants),
        "an energy budget of half the uncontrolled spend must shrink K: {summary:?}"
    );
    let uncontrolled = ExperimentSpec {
        control: None,
        ..spec.clone()
    };
    let plain = uncontrolled.run(&registry).expect("uncontrolled spec runs");
    assert!(jsonl(&plain[0].result.records) != from_spec_run);
    std::fs::remove_dir_all(&root).expect("clean up");
}

#[test]
fn smoke_spec_file_runs_end_to_end_deterministically() {
    let text = std::fs::read_to_string("tests/specs/smoke.json").expect("smoke spec");
    let spec = ExperimentSpec::from_json(&text).expect("smoke spec parses");
    let registry = standard_registry();
    let a = spec.run(&registry).expect("smoke spec runs");
    let b = spec.run(&registry).expect("smoke spec runs");
    assert_eq!(a.len(), spec.policies.len());
    for (ra, rb) in a.iter().zip(&b) {
        assert_eq!(ra.policy, rb.policy);
        assert_eq!(ra.result.records.len(), rb.result.records.len());
        for (x, y) in ra.result.records.iter().zip(&rb.result.records) {
            assert_eq!(x.participants, y.participants, "{}", ra.policy);
            assert_eq!(x.accuracy.to_bits(), y.accuracy.to_bits(), "{}", ra.policy);
        }
    }
    // All three runs recorded the full fixed horizon (target 1.1 never
    // triggers), so downstream row comparisons see aligned lengths.
    for run in &a {
        assert_eq!(run.result.records.len(), spec.config.max_rounds);
    }
}

#[test]
fn fig04_spec_file_is_the_fig04_row_configuration() {
    let text = std::fs::read_to_string("tests/specs/fig04_s3_cnn.json").expect("fig04 spec");
    let spec = ExperimentSpec::from_json(&text).expect("fig04 spec parses");
    // Pin the row to the fig04 binary's S3 configuration: same workload,
    // Table 5 S3 parameters, paper fleet, 400-round horizon, seed 42.
    assert_eq!(spec.config.workload, Workload::CnnMnist);
    assert_eq!(spec.config.params, GlobalParams::s3());
    assert_eq!(spec.config.num_devices, 200);
    assert_eq!(spec.config.max_rounds, 400);
    assert_eq!(spec.config.seed, 42);
    assert_eq!(spec.policies.len(), 8);
    // Every policy resolves against the standard registry.
    assert!(spec.resolve(&standard_registry()).is_ok());
}
