//! Criterion benches for the Section 6.4 overhead claims: the per-round
//! cost of AutoFL's observe/select/reward/update pipeline at fleet scale.

use autofl_core::AutoFl;
use autofl_fed::engine::Simulation;
use autofl_fed::selection::RandomSelector;
use autofl_nn::zoo::Workload;
use criterion::{criterion_group, criterion_main, Criterion};

/// The paper-default simulation with no round limit and an unreachable
/// target, so every bench iteration can step one more round.
fn open_ended_paper_run() -> Simulation {
    Simulation::builder(Workload::CnnMnist)
        .max_rounds(usize::MAX)
        .target_accuracy(1.1)
        .build()
        .expect("paper defaults are valid")
}

/// One full AutoFL round on the 200-device paper fleet (the controller
/// decision + learning cost dominates over the analytic cost model).
fn autofl_round(c: &mut Criterion) {
    let mut group = c.benchmark_group("controller");
    group.sample_size(20);
    group.bench_function("autofl_round_200_devices", |b| {
        let mut sim = open_ended_paper_run();
        let mut agent = AutoFl::paper_default();
        b.iter(|| sim.step(&mut agent).expect("open-ended run").round_time_s);
    });
    group.bench_function("random_round_200_devices", |b| {
        let mut sim = open_ended_paper_run();
        let mut selector = RandomSelector::new();
        b.iter(|| {
            sim.step(&mut selector)
                .expect("open-ended run")
                .round_time_s
        });
    });
    group.finish();
}

criterion_group!(benches, autofl_round);
criterion_main!(benches);
