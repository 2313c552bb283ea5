//! Real on-device training, no surrogate: run a miniature federated
//! deployment where every round actually trains the scaled-down CNN with
//! the `autofl-nn` substrate and evaluates on a held-out test set.
//!
//! Demonstrates a custom [`RoundObserver`]: the per-round report is an
//! observer attached through `ExperimentRun::finish`, not a hand-rolled
//! loop around `ExperimentRun::step`.
//!
//! ```sh
//! cargo run --release --example train_on_device
//! ```

use autofl::fed::engine::{Fidelity, RoundRecord, SimResult, Simulation};
use autofl::fed::serve::ExperimentRun;
use autofl::{standard_registry, RoundObserver};
use autofl_data::partition::DataDistribution;
use autofl_fed::GlobalParams;
use autofl_nn::zoo::Workload;

/// Prints each round's accuracy, time, energy and cohort.
struct RoundReport;

impl RoundObserver for RoundReport {
    fn on_round_end(&mut self, record: &RoundRecord) -> std::io::Result<()> {
        println!(
            "round {:>2}: acc {:>5.1}%  round time {:>6.1} s  energy {:>7.1} J  cohort {:?}",
            record.round,
            record.accuracy * 100.0,
            record.round_time_s,
            record.total_energy_j(),
            record
                .participants
                .iter()
                .map(|id| id.0)
                .collect::<Vec<_>>(),
        );
        Ok(())
    }

    fn on_converged(&mut self, _result: &SimResult) -> std::io::Result<()> {
        println!("target reached.");
        Ok(())
    }
}

fn main() {
    // Shrink the deployment so real training stays interactive.
    let config = Simulation::builder(Workload::CnnMnist)
        .devices(20)
        .samples_per_device(60)
        .test_samples(256)
        .params(GlobalParams::new(16, 1, 5))
        .fidelity(Fidelity::RealTraining {
            lr: 0.08,
            eval_samples: 256,
        })
        .distribution(DataDistribution::non_iid_percent(50))
        .max_rounds(25)
        .target_accuracy(0.90)
        .build_config()
        .expect("valid real-training configuration");

    println!(
        "== Real federated training ({} devices, CNN on synthetic digits) ==",
        config.num_devices
    );
    let registry = standard_registry();
    let run = ExperimentRun::new(&config, registry.expect("AutoFL"), None)
        .expect("AutoFL keeps the configuration valid");
    let _ = run.finish(&mut [&mut RoundReport]);
}
