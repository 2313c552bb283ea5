//! Figure 12: how closely AutoFL tracks the oracle's decisions —
//! participant-selection overlap and execution-target agreement, after the
//! Q-tables converge.

use autofl_core::AutoFl;
use autofl_data::partition::DataDistribution;
use autofl_device::scenario::VarianceScenario;
use autofl_fed::engine::{SimConfig, Simulation};
use autofl_fed::fleet::shadow_stream_seed;
use autofl_fed::oracle::OracleSelector;
use autofl_fed::selection::{RoundContext, RoundFeedback, SelectionDecision, Selector};
use autofl_nn::zoo::Workload;
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// Runs the AutoFL agent and asks a shadow oracle what it *would* have
/// decided on the same round context, without executing it. The oracle
/// draws from its own `TAG_SHADOW` stream, so it cannot perturb the run,
/// and it never sees feedback.
struct ShadowOracle {
    agent: AutoFl,
    oracle: OracleSelector,
    seed: u64,
    /// The oracle's decision for the latest dispatched round.
    shadow: Option<SelectionDecision>,
}

impl Selector for ShadowOracle {
    fn select(&mut self, ctx: &RoundContext<'_>, rng: &mut SmallRng) -> SelectionDecision {
        let decision = self.agent.select(ctx, rng);
        let mut shadow_rng = SmallRng::seed_from_u64(shadow_stream_seed(self.seed, ctx.round));
        self.shadow = Some(self.oracle.select(ctx, &mut shadow_rng));
        decision
    }

    fn observe(&mut self, feedback: &RoundFeedback<'_>) {
        self.agent.observe(feedback);
    }

    fn name(&self) -> &'static str {
        self.agent.name()
    }
}

/// Runs AutoFL with a shadow oracle over the whole horizon and returns
/// (participant overlap, target agreement) averaged over the rounds from
/// `warmup` on.
fn prediction_accuracy(cfg: &SimConfig, warmup: usize) -> (f64, f64) {
    let mut sim = Simulation::new(cfg.clone());
    let mut selector = ShadowOracle {
        agent: AutoFl::paper_default(),
        oracle: OracleSelector::full(),
        seed: cfg.seed,
        shadow: None,
    };
    let (mut overlap_sum, mut target_sum, mut measured) = (0.0, 0.0, 0usize);
    while let Some(record) = sim.step(&mut selector) {
        let shadow = selector
            .shadow
            .take()
            .expect("every dispatch asks the shadow");
        if record.round < warmup {
            continue;
        }
        let hits = record
            .participants
            .iter()
            .filter(|id| shadow.participants.contains(id))
            .count();
        overlap_sum += hits as f64 / record.participants.len().max(1) as f64;
        // Target agreement over the devices both policies picked.
        let mut agree = 0usize;
        let mut both = 0usize;
        for (id, plan) in record.participants.iter().zip(&record.plans) {
            if let Some(pos) = shadow.participants.iter().position(|s| s == id) {
                both += 1;
                if shadow.plans[pos].target == plan.target {
                    agree += 1;
                }
            }
        }
        target_sum += if both > 0 {
            agree as f64 / both as f64
        } else {
            1.0
        };
        measured += 1;
    }
    (
        overlap_sum / measured.max(1) as f64,
        target_sum / measured.max(1) as f64,
    )
}

fn main() {
    println!("=== Figure 12(a): per-workload tracking of O_FL ===");
    for workload in Workload::paper_workloads() {
        let cfg = Simulation::builder(workload)
            .max_rounds(300)
            .target_accuracy(1.1) // run all 300 rounds, past convergence
            .build_config()
            .expect("valid figure configuration");
        let (sel, tgt) = prediction_accuracy(&cfg, 100);
        println!(
            "{:<20} participant overlap {:>5.1}%  target agreement {:>5.1}%",
            workload.name(),
            sel * 100.0,
            tgt * 100.0
        );
    }
    println!("\n=== Figure 12(b): tracking under variance / data heterogeneity ===");
    let interference = Simulation::builder(Workload::CnnMnist)
        .scenario(VarianceScenario::with_interference())
        .max_rounds(300)
        .target_accuracy(1.1)
        .build_config()
        .expect("valid figure configuration");
    let noniid = Simulation::builder(Workload::CnnMnist)
        .distribution(DataDistribution::non_iid_percent(50))
        .max_rounds(300)
        .target_accuracy(1.1)
        .build_config()
        .expect("valid figure configuration");
    for (label, cfg) in [("interference", interference), ("non-IID 50%", noniid)] {
        let (sel, tgt) = prediction_accuracy(&cfg, 100);
        println!(
            "{:<20} participant overlap {:>5.1}%  target agreement {:>5.1}%",
            label,
            sel * 100.0,
            tgt * 100.0
        );
    }
    println!("\npaper: ~94% participant- and ~92.9% target-prediction accuracy.");
}
