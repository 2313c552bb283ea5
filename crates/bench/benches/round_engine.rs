//! Criterion benches for the simulation substrate: round cost estimation
//! and oracle decision-making at fleet scale.

use autofl_device::cost::{ExecutionPlan, TrainingTask};
use autofl_device::fleet::{DeviceId, Fleet};
use autofl_device::store::ConditionsStore;
use autofl_fed::engine::Simulation;
use autofl_fed::estimate::estimate_round;
use autofl_fed::oracle::OracleSelector;
use autofl_nn::zoo::Workload;
use criterion::{criterion_group, criterion_main, Criterion};

fn estimate(c: &mut Criterion) {
    let fleet = Fleet::paper_fleet(1);
    let conditions = ConditionsStore::new(fleet.len(), 1);
    let ids: Vec<DeviceId> = (0..20).map(DeviceId).collect();
    let plans: Vec<ExecutionPlan> = ids
        .iter()
        .map(|id| ExecutionPlan::cpu_max(fleet.device(*id).tier()))
        .collect();
    let tasks = vec![
        TrainingTask {
            flops: 100_000_000_000,
            upload_bytes: 6_653_480,
        };
        20
    ];
    c.bench_function("estimate_round_k20_n200", |b| {
        b.iter(|| estimate_round(&fleet, &ids, &plans, &tasks, &conditions))
    });

    let mut group = c.benchmark_group("oracle");
    group.sample_size(20);
    group.bench_function("ofl_round_200_devices", |b| {
        // No round limit and an unreachable target: every iteration can
        // step one more round.
        let mut sim = Simulation::builder(Workload::CnnMnist)
            .max_rounds(usize::MAX)
            .target_accuracy(1.1)
            .build()
            .expect("paper defaults are valid");
        let mut oracle = OracleSelector::full();
        b.iter(|| sim.step(&mut oracle).expect("open-ended run").round_time_s);
    });
    group.finish();
}

criterion_group!(benches, estimate);
criterion_main!(benches);
