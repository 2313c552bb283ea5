//! Section 6.4: AutoFL's own runtime cost — per-phase microseconds per
//! round, Q-table memory for 200 devices, and the misprediction overhead
//! relative to the oracle after reward convergence.

use autofl_bench::{run_policy, standard_registry};
use autofl_core::AutoFl;
use autofl_fed::engine::Simulation;
use autofl_nn::zoo::Workload;

fn main() {
    let cfg = Simulation::builder(Workload::CnnMnist)
        .max_rounds(300)
        .build_config()
        .expect("valid configuration");
    let mut agent = AutoFl::paper_default();
    let result = Simulation::new(cfg.clone()).run(&mut agent);

    let (observe, select, reward, update) = agent.overhead().per_round_us();
    println!("=== Section 6.4: controller overhead (200 devices) ===");
    println!("observe states : {observe:>9.1} us/round   (paper: 496.8)");
    println!("select         : {select:>9.1} us/round   (paper: 10.5)");
    println!("compute reward : {reward:>9.1} us/round   (paper: 2.1)");
    println!("update Q-tables: {update:>9.1} us/round   (paper: 22.1)");
    println!(
        "total          : {:>9.1} us/round   (paper: 531.5, 0.8% of a round)",
        agent.overhead().total_per_round_us()
    );
    println!(
        "Q-table memory : {:>9.1} KiB        (paper: 80 MB dense tables; ours: the lazy row arena's allocation)",
        agent.memory_bytes() as f64 / 1024.0
    );

    // Misprediction overhead: AutoFL vs O_FL on time and energy.
    let oracle = run_policy(&cfg, standard_registry().expect("O_FL"));
    let time_over = result.time_to_target_s() / oracle.time_to_target_s() - 1.0;
    let energy_over = result.energy_to_target_j() / oracle.energy_to_target_j() - 1.0;
    println!(
        "\nvs O_FL: +{:.1}% time, +{:.1}% energy (paper: 5.6% timing, 8.8% energy overhead)",
        time_over * 100.0,
        energy_over * 100.0
    );
}
