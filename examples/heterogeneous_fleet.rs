//! Sweep the paper's four global-parameter settings S1–S4 (Table 5) and
//! show how the best fixed device cluster shifts — the Section 3.1
//! characterization — then let AutoFL adapt on its own, and say which
//! composition won and how often AutoFL beat it. Configurations
//! come from `Simulation::builder`; every contender is resolved from the
//! policy registry by name (the clusters C1–C7 are registered policies).
//!
//! ```sh
//! cargo run --release --example heterogeneous_fleet
//! ```

use autofl::fed::engine::Simulation;
use autofl::{run_policy, standard_registry};
use autofl_fed::clusters::CharacterizationCluster;
use autofl_fed::GlobalParams;
use autofl_nn::zoo::Workload;

fn main() {
    println!("== Optimal cluster vs global parameters (CNN-MNIST) ==");
    println!(
        "{:<8} {:>10} {:>12} {:>12}",
        "setting", "best", "best PPWx", "AutoFL PPWx"
    );
    let registry = standard_registry();
    let settings = GlobalParams::paper_settings();
    let (mut best_names, mut autofl_wins) = (Vec::new(), 0);
    for (label, params) in settings {
        let config = Simulation::builder(Workload::CnnMnist)
            .params(params)
            .max_rounds(300)
            .build_config()
            .expect("valid sweep configuration");

        let baseline = run_policy(&config, registry.expect("FedAvg-Random"));
        let base_ppw = baseline.ppw_global();

        // Characterize every fixed Table 4 composition.
        let mut best = ("C0", 1.0);
        for cluster in CharacterizationCluster::fixed() {
            let result = run_policy(&config, registry.expect(cluster.name()));
            let gain = result.ppw_global() / base_ppw;
            if gain > best.1 {
                best = (cluster.name(), gain);
            }
        }

        let learned = run_policy(&config, registry.expect("AutoFL"));
        let learned_gain = learned.ppw_global() / base_ppw;
        println!(
            "{:<8} {:>10} {:>11.2}x {:>11.2}x",
            label, best.0, best.1, learned_gain
        );
        best_names.push(best.0);
        autofl_wins += usize::from(learned_gain > best.1);
    }
    best_names.dedup();
    let best = match best_names[..] {
        [one] => format!("{one} at every setting"),
        _ => format!("{} across the settings", best_names.join(", ")),
    };
    println!(
        "\nThe best fixed composition is {best}; AutoFL beats it at {autofl_wins} of {} settings.",
        settings.len()
    );
}
