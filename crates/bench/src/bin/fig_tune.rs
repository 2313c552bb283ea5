//! Convergence-control study: the
//! [`autofl_fed::serve::ConvergenceController`] an
//! [`autofl_fed::serve::ExperimentRun`] holds retunes the cohort size `K`
//! every round, steering it toward a per-round energy budget from the
//! base that [`autofl_fed::policy::Policy::tune`] chose at the start.
//!
//! The binary first runs the uncontrolled baseline to measure its mean
//! per-round energy `E0`, then repeats the run under energy budgets at
//! fixed fractions of `E0`. For each budget it reports the mean round
//! energy of the first and last thirds of the run and the `K` the
//! controller settled on — the tail third sits close to the budget
//! (within the resolution a discrete `K` allows) while the head third
//! still carries the transient, which is the convergence the controller
//! exists to produce.
//!
//! ```sh
//! cargo run --release -p autofl-bench --bin fig_tune              # 1k devices
//! cargo run --release -p autofl-bench --bin fig_tune -- --smoke   # CI: 40 devices
//! ```
//!
//! Deterministic in the seed: the controller is plain arithmetic on the
//! round records, so controlled runs replay bit-identically (and
//! checkpoint/resume cleanly — see `docs/serving.md`).

use autofl_fed::engine::{SimConfig, Simulation};
use autofl_fed::policy::{Policy, RandomPolicy};
use autofl_fed::serve::{ConvergeTarget, ExperimentRun};
use autofl_nn::zoo::Workload;

fn base_config(smoke: bool) -> SimConfig {
    let mut cfg = if smoke {
        SimConfig::smoke(42)
    } else {
        Simulation::builder(Workload::CnnMnist)
            .devices(1_000)
            .shards(4)
            .samples_per_device(8)
            .test_samples(64)
            .seed(42)
            .build_config()
            .expect("tune sweep config is valid")
    };
    cfg.max_rounds = if smoke { 60 } else { 120 };
    cfg.target_accuracy = Some(1.1); // fixed horizon: aligned rows
    cfg
}

struct Row {
    label: String,
    budget: Option<f64>,
    rounds: usize,
    accuracy: f64,
    head_energy: f64,
    tail_energy: f64,
    final_k: usize,
}

fn run_row(config: &SimConfig, control: Option<ConvergeTarget>, label: &str) -> Row {
    let mut run =
        ExperimentRun::new(config, &RandomPolicy, control).expect("tune sweep config validates");
    while run.step().expect("no observers attached").is_some() {}
    let final_k = run.params().num_participants;
    let result = run.into_result();
    let energies: Vec<f64> = result.records.iter().map(|r| r.total_energy_j()).collect();
    let third = (energies.len() / 3).max(1);
    let mean = |w: &[f64]| w.iter().sum::<f64>() / w.len() as f64;
    Row {
        label: label.to_string(),
        budget: control.map(|t| match t {
            ConvergeTarget::EnergyBudget { joules_per_round } => joules_per_round,
            ConvergeTarget::AccuracyFloor { accuracy } => accuracy,
        }),
        rounds: energies.len(),
        accuracy: result.final_accuracy(),
        head_energy: mean(&energies[..third]),
        tail_energy: mean(&energies[energies.len() - third..]),
        final_k,
    }
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let base = base_config(smoke);
    println!(
        "== fig_tune ({}, {} devices, base K={}, {} rounds, policy {}) ==",
        if smoke { "smoke" } else { "full" },
        base.num_devices,
        base.params.num_participants,
        base.max_rounds,
        RandomPolicy.name(),
    );

    let baseline = run_row(&base, None, "uncontrolled");
    let e0 = baseline.tail_energy;
    let fractions: &[f64] = if smoke {
        &[0.5, 1.5]
    } else {
        &[0.5, 0.75, 1.25, 1.5]
    };

    let mut rows = vec![baseline];
    for &f in fractions {
        let target = ConvergeTarget::EnergyBudget {
            joules_per_round: f * e0,
        };
        rows.push(run_row(&base, Some(target), &format!("budget {f:.2}x")));
    }

    println!(
        "{:<14} {:>12} {:>7} {:>9} {:>12} {:>12} {:>8} {:>10}",
        "run", "budget J/rd", "rounds", "accuracy", "head J/rd", "tail J/rd", "final K", "tail/tgt"
    );
    for row in &rows {
        let budget = row
            .budget
            .map(|b| format!("{b:.3}"))
            .unwrap_or_else(|| "-".into());
        let ratio = row
            .budget
            .map(|b| format!("{:.2}", row.tail_energy / b))
            .unwrap_or_else(|| "-".into());
        println!(
            "{:<14} {:>12} {:>7} {:>8.1}% {:>12.3} {:>12.3} {:>8} {:>10}",
            row.label,
            budget,
            row.rounds,
            row.accuracy * 100.0,
            row.head_energy,
            row.tail_energy,
            row.final_k,
            ratio,
        );
    }

    // The demonstrable claim: under a halved budget the controller ends
    // the run spending less than the uncontrolled baseline, and it got
    // there by shrinking K through Policy::tune (never by invalidating
    // the config — K stays >= 1).
    let base_tail = rows[0].tail_energy;
    let halved = &rows[1];
    assert!(
        halved.tail_energy < base_tail,
        "a halved budget must reduce tail energy: {} vs {base_tail}",
        halved.tail_energy
    );
    assert!(
        halved.final_k < rows[0].final_k,
        "the energy cut must come from a smaller cohort"
    );
    let over = rows.last().expect("at least one controlled row");
    assert!(
        over.final_k >= rows[0].final_k,
        "a generous budget must not shrink the cohort"
    );

    println!(
        "\nEach controlled run retunes K every round via Policy::tune; the \
         tail third sits at the budget to the resolution a discrete K \
         allows, while the head third still carries the transient."
    );
}
