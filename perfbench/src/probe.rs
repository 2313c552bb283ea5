//! Standalone calls into each layer's public functions at a workload's
//! sizes: the fleet, stores, partition and cohort size of the workload's
//! own configuration.

use autofl_core::AutoFl;
use autofl_data::FlData;
use autofl_device::cost::TrainingTask;
use autofl_device::fleet::DeviceId;
use autofl_device::store::ConditionsStore;
use autofl_fed::accuracy::{AccuracyEngine, CohortStats, RealTrainingEngine, SurrogateEngine};
use autofl_fed::algorithms::ClientUpdate;
use autofl_fed::engine::{Fidelity, RoundRecord, SimConfig, Simulation};
use autofl_fed::estimate::participant_costs;
use autofl_fed::fabric::{CodecSpec, LinkModel, NetworkFabric, UpdateCodec};
use autofl_fed::fleet::{AvailabilityView, FleetDynamics, FleetStore};
use autofl_fed::oracle::OracleSelector;
use autofl_fed::selection::{
    RandomSelector, RoundContext, RoundFeedback, SelectionDecision, Selector,
};
use autofl_nn::layers::{Conv2d, Layer};
use autofl_nn::tensor::Tensor;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use std::time::Instant;

/// What one probe measured: per-call times (milliseconds unless the name
/// says otherwise) and work counts.
#[derive(Debug, Default)]
pub struct Layers {
    pub times: Vec<(&'static str, f64)>,
    pub counts: Vec<(&'static str, f64)>,
}

impl Layers {
    pub fn time(&self, name: &str) -> f64 {
        self.times
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(f64::NAN, |(_, v)| *v)
    }

    pub fn count(&self, name: &str) -> f64 {
        self.counts
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(f64::NAN, |(_, v)| *v)
    }
}

/// Median milliseconds per call of `f` over at least `min_reps` calls,
/// repeating until `budget_s` has elapsed (at most 2000 calls).
fn time_ms(min_reps: usize, budget_s: f64, mut f: impl FnMut(u64)) -> f64 {
    let start = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < min_reps
        || (start.elapsed().as_secs_f64() < budget_s && samples.len() < 2000)
    {
        let t = Instant::now();
        f(samples.len() as u64);
        samples.push(t.elapsed().as_secs_f64() * 1e3);
    }
    crate::stats::median(&samples)
}

/// Repetitions for a fleet-wide call: a handful at a million devices,
/// more where each call is cheap.
fn reps(devices: usize) -> usize {
    if devices >= 100_000 {
        3
    } else {
        7
    }
}

fn random_vec(len: usize, rng: &mut SmallRng) -> Vec<f32> {
    (0..len).map(|_| rng.gen::<f32>() - 0.5).collect()
}

/// Times every layer's public calls at `config`'s sizes. `sim` is a
/// freshly built simulation of `config` (its fleet and partition are the
/// inputs); `setup_ms` is what building it cost. `cohort` is a record the
/// workload emitted: the cohort-sized calls replay its participants,
/// plans and surviving update fractions (a Random cohort stands in when
/// there is none).
pub fn probe(
    config: &SimConfig,
    sim: &Simulation,
    setup_ms: f64,
    cohort: Option<&RoundRecord>,
) -> Layers {
    let mut out = Layers::default();
    let n = config.num_devices;
    let seed = config.seed;
    let budget = 0.15;
    let fleet = sim.fleet();
    let partition = &sim.data().partition;
    out.times.push(("fed.engine.new_ms", setup_ms));
    out.times.push((
        "data.generate_stats_only_ms",
        time_ms(reps(n).min(3), budget, |i| {
            black_box(FlData::generate_stats_only(
                config.workload,
                n,
                config.samples_per_device,
                config.test_samples,
                config.distribution,
                seed ^ i,
            ));
        }),
    ));

    // device::scenario — the fleet-wide condition sample.
    let mut conditions = ConditionsStore::new(n, config.shards);
    out.times.push((
        "device.scenario.sample_into_ms",
        time_ms(reps(n), budget, |i| {
            config
                .scenario
                .sample_into(fleet, seed ^ (i << 32), &mut conditions)
        }),
    ));
    out.counts
        .push(("device.scenario.devices_sampled", n as f64));

    // fed::fleet — lifecycle scans under the workload's dynamics (the
    // realistic profile where the workload runs a static fleet).
    let dynamics = config
        .fleet
        .clone()
        .unwrap_or_else(FleetDynamics::realistic);
    let mut store = FleetStore::new(&dynamics, fleet, seed ^ 0xf1ee7, config.shards);
    let mut round = 0usize;
    out.times.push((
        "fed.fleet.begin_round_ms",
        time_ms(reps(n), budget, |_| {
            store.begin_round(&dynamics, fleet, round);
            round += 1;
        }),
    ));
    let view = if config.fleet.is_some() {
        AvailabilityView::Dynamic(&store)
    } else {
        AvailabilityView::Ideal { devices: n }
    };
    out.times.push((
        "fed.fleet.eligible_ids_ms",
        time_ms(reps(n), budget, |_| {
            black_box(view.eligible_ids());
        }),
    ));
    out.counts.push((
        "fed.fleet.eligible_frac",
        view.eligible_count() as f64 / n as f64,
    ));

    let params = config.params;
    let ctx = RoundContext {
        round,
        fleet,
        conditions: &conditions,
        availability: view,
        partition,
        params: &params,
        workload: config.workload,
        layer_counts: config.workload.reference_layer_counts(),
        prev_accuracy: 0.5,
    };
    let mut rng = SmallRng::seed_from_u64(seed);

    // fed::selection and fed::oracle.
    out.times.push((
        "fed.selection.select_ms",
        time_ms(reps(n), budget, |_| {
            black_box(RandomSelector::new().select(&ctx, &mut rng));
        }),
    ));
    out.times.push((
        "fed.oracle.select_ms",
        time_ms(reps(n).min(3), budget, |_| {
            black_box(OracleSelector::full().select(&ctx, &mut rng));
        }),
    ));
    let decision = match cohort {
        Some(rec) => SelectionDecision {
            participants: rec.participants.clone(),
            plans: rec.plans.clone(),
        },
        None => RandomSelector::new().select(&ctx, &mut rng),
    };
    let fractions = cohort.map_or_else(
        || vec![1.0; decision.participants.len()],
        |rec| rec.update_fractions.clone(),
    );
    let tasks: Vec<TrainingTask> = decision
        .participants
        .iter()
        .map(|id| ctx.task_for(*id))
        .collect();

    // fed::estimate — the cohort's execution costs.
    out.times.push((
        "fed.estimate.participant_costs_ms",
        time_ms(7, budget, |_| {
            black_box(participant_costs(
                fleet,
                &decision.participants,
                &decision.plans,
                &tasks,
                &conditions,
            ));
        }),
    ));
    let costs = participant_costs(
        fleet,
        &decision.participants,
        &decision.plans,
        &tasks,
        &conditions,
    );
    let busy: Vec<f64> = costs.iter().map(|c| c.total_time_s()).collect();
    let energy: Vec<f64> = costs.iter().map(|c| c.total_energy_j()).collect();
    let round_time_s = busy.iter().copied().fold(1e-9, f64::max);

    // core::controller — one observe/select/reward/update cycle.
    let (select_ms, observe_ms, agent) = controller(&ctx, &energy, round_time_s, &mut rng);
    out.times.push(("core.controller.select_ms", select_ms));
    out.times.push(("core.controller.observe_ms", observe_ms));
    let (o, s, r, u) = agent.overhead().per_round_us();
    out.times.push(("core.overhead.observe_us", o));
    out.times.push(("core.overhead.select_us", s));
    out.times.push(("core.overhead.reward_us", r));
    out.times.push(("core.overhead.update_us", u));
    out.counts
        .push(("core.qtable.bytes", agent.memory_bytes() as f64));
    drop(agent);

    // fed::fabric — per-participant link draws.
    let link = config
        .network
        .as_ref()
        .map_or(LinkModel::realistic(), |f| f.link);
    let tiers: Vec<_> = decision
        .participants
        .iter()
        .map(|id| fleet.device(*id).tier())
        .collect();
    let per_cohort_ms = time_ms(20, budget, |i| {
        let mut link_rng = SmallRng::seed_from_u64(seed ^ i);
        for tier in &tiers {
            black_box(link.draw(*tier, false, &mut link_rng));
        }
    });
    out.times.push((
        "fed.fabric.link_draw_us",
        per_cohort_ms * 1e3 / tiers.len().max(1) as f64,
    ));

    // fed::fleet — the end-of-round lifecycle update.
    out.times.push((
        "fed.fleet.end_round_ms",
        time_ms(reps(n), budget, |_| {
            store.end_round(
                &dynamics,
                fleet,
                round_time_s,
                &decision.participants,
                &busy,
                &energy,
            )
        }),
    ));
    drop(store);

    // fed::fabric and fed::algorithms on the trainable model's deltas.
    let model_params = config.workload.build_trainable(seed).param_count();
    let codec: Box<dyn UpdateCodec> = config.network.as_ref().map_or_else(
        || {
            NetworkFabric::ideal()
                .with_codec(CodecSpec::TopK { k_frac: 0.1 })
                .build_codec()
        },
        |f| f.build_codec(),
    );
    let delta = random_vec(model_params, &mut rng);
    out.times.push((
        "fed.fabric.transcode_ms",
        time_ms(7, budget, |i| {
            let mut d = delta.clone();
            let mut codec_rng = SmallRng::seed_from_u64(seed ^ i);
            codec.transcode(&mut d, i as usize, &mut codec_rng);
            black_box(d);
        }),
    ));
    let updates: Vec<ClientUpdate> = decision
        .participants
        .iter()
        .map(|id| ClientUpdate {
            delta: random_vec(model_params, &mut rng),
            num_samples: partition.device_sample_count(id.0).max(1),
            local_steps: 1,
        })
        .collect();
    let mut global = vec![0.0f32; model_params];
    out.times.push((
        "fed.algorithms.aggregate_sharded_ms",
        time_ms(7, budget, |_| {
            config
                .algorithm
                .aggregate_sharded(&mut global, &updates, config.shards)
        }),
    ));

    // fed::accuracy — one aggregation step of the workload's engine, and
    // a test-set evaluation of its model.
    let (survivors, survivor_fractions): (Vec<DeviceId>, Vec<f64>) = decision
        .participants
        .iter()
        .zip(&fractions)
        .filter(|(_, &f)| f > 0.0)
        .map(|(id, f)| (*id, *f))
        .unzip();
    let ids: Vec<usize> = survivors.iter().map(|id| id.0).collect();
    let stats = CohortStats {
        effective_samples: ids
            .iter()
            .zip(&survivor_fractions)
            .map(|(&d, f)| partition.device_sample_count(d) as f64 * f)
            .sum(),
        participants: survivors,
        update_fractions: survivor_fractions,
        class_coverage: partition.cohort_class_coverage(&ids),
        divergence: partition.cohort_divergence(&ids),
        mean_member_divergence: crate::stats::mean(
            &ids.iter()
                .map(|&d| partition.device_divergence(d))
                .collect::<Vec<_>>(),
        ),
        local_epochs: params.local_epochs,
        batch_size: params.batch_size,
        poison: 0.0,
    };
    let (apply_ms, evaluate_ms) = accuracy(config, sim, &stats);
    out.times.push(("fed.accuracy.apply_round_ms", apply_ms));
    out.times.push(("fed.accuracy.evaluate_ms", evaluate_ms));

    // nn — the CNN's dense and conv kernels at the workload's batch size.
    let (gflops, conv_ms) = kernels(params.batch_size, &mut rng);
    out.times.push(("nn.tensor.matmul_gflops", gflops));
    out.times.push(("nn.layers.conv_fwd_bwd_ms", conv_ms));
    out
}

fn controller(
    ctx: &RoundContext<'_>,
    energy: &[f64],
    round_time_s: f64,
    rng: &mut SmallRng,
) -> (f64, f64, AutoFl) {
    let mut agent = AutoFl::paper_default();
    let mut select = Vec::new();
    let mut observe = Vec::new();
    let reps = reps(ctx.fleet.len());
    for _ in 0..reps {
        let t = Instant::now();
        let decision = agent.select(ctx, rng);
        select.push(t.elapsed().as_secs_f64() * 1e3);
        // Charge the cohort the probe cohort's energies, cycled to its size.
        let per: Vec<f64> = (0..decision.participants.len())
            .map(|i| energy[i % energy.len().max(1)])
            .collect();
        let feedback = RoundFeedback {
            round: ctx.round,
            participants: &decision.participants,
            per_participant_energy_j: &per,
            idle_energy_per_device_j: 1.0,
            global_energy_j: per.iter().sum::<f64>() + ctx.fleet.len() as f64,
            round_time_s,
            accuracy: ctx.prev_accuracy + 0.01,
            prev_accuracy: ctx.prev_accuracy,
            dropped: &[],
            dropouts: &[],
            mean_staleness: 0.0,
            bytes_uplinked: 0,
        };
        let t = Instant::now();
        agent.observe(&feedback);
        observe.push(t.elapsed().as_secs_f64() * 1e3);
    }
    (
        crate::stats::median(&select),
        crate::stats::median(&observe),
        agent,
    )
}

/// `(apply_round_ms, evaluate_ms)`. Real-training workloads step their
/// own engine; surrogate workloads step the surrogate and evaluate the
/// workload's trainable model on their test-set size.
fn accuracy(config: &SimConfig, sim: &Simulation, stats: &CohortStats) -> (f64, f64) {
    let budget = 0.3;
    let codec = config.network.as_ref().map(|f| f.build_codec());
    match config.fidelity {
        Fidelity::RealTraining { lr, eval_samples } => {
            let mut engine = RealTrainingEngine::new(
                config.workload,
                sim.data().clone(),
                config.algorithm,
                lr,
                eval_samples,
                config.seed,
                config.shards,
                codec,
                config.adversary,
            );
            let apply = time_ms(5, budget, |_| {
                black_box(engine.apply_round(stats));
            });
            let evaluate = time_ms(5, budget, |_| {
                black_box(engine.evaluate());
            });
            (apply, evaluate)
        }
        Fidelity::Surrogate => {
            let mut surrogate = SurrogateEngine::new(
                config.workload,
                config.algorithm,
                (config.params.num_participants * config.samples_per_device) as f64,
                config.params.local_epochs as f64,
                config.seed,
            );
            let apply = time_ms(50, budget, |_| {
                black_box(surrogate.apply_round(stats));
            });
            let k = config.params.num_participants;
            let data = FlData::generate(
                config.workload,
                k,
                config.samples_per_device.min(32),
                config.test_samples,
                config.distribution,
                config.seed,
            );
            let mut engine = RealTrainingEngine::new(
                config.workload,
                data,
                config.algorithm,
                0.08,
                config.test_samples,
                config.seed,
                1,
                None,
                None,
            );
            let evaluate = time_ms(5, budget, |_| {
                black_box(engine.evaluate());
            });
            (apply, evaluate)
        }
    }
}

/// `(matmul GFLOP/s, conv forward+backward ms)` for the CNN-MNIST model's
/// dense layer (108→32) and both conv layers at batch `batch`.
fn kernels(batch: usize, rng: &mut SmallRng) -> (f64, f64) {
    let tensor = |shape: Vec<usize>, rng: &mut SmallRng| {
        let len = shape.iter().product();
        Tensor::from_vec(shape, random_vec(len, rng))
    };
    let (input, output) = (12 * 3 * 3, 32);
    let x = tensor(vec![batch, input], rng);
    let w = tensor(vec![input, output], rng);
    let gy = tensor(vec![batch, output], rng);
    let mut out = Tensor::zeros(vec![0]);
    let matmul_ms = time_ms(200, 0.15, |_| {
        x.matmul_into(&w, &mut out); // forward
        x.matmul_tn_into(&gy, &mut out); // weight gradient
        gy.matmul_nt_into(&w, &mut out); // input gradient
        black_box(out.data()[0]);
    });
    let flops = 3.0 * 2.0 * (batch * input * output) as f64;
    let gflops = flops / (matmul_ms * 1e-3) / 1e9;

    let mut conv1 = Conv2d::new(1, 6, 3, 1, 1, rng);
    let mut conv2 = Conv2d::new(6, 12, 3, 1, 1, rng);
    let x1 = tensor(vec![batch, 1, 14, 14], rng);
    let x2 = tensor(vec![batch, 6, 7, 7], rng);
    let conv_ms = time_ms(20, 0.15, |_| {
        let y1 = conv1.forward(&x1, true);
        black_box(conv1.backward(&y1));
        let y2 = conv2.forward(&x2, true);
        black_box(conv2.backward(&y2));
    });
    (gflops, conv_ms)
}
