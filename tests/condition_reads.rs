//! Selectors pay for the conditions they read.
//!
//! The engine derives a device's conditions when a selector reads them
//! (`autofl_fed::conditions::ConditionsView`), so each read costs a
//! stream derivation. These tests wrap a round's conditions in a counting
//! fake and pin how many reads each policy makes per `select`: the
//! baselines that never look at conditions read nothing, and the policies
//! that rank every device (the oracles and AutoFL) read each device at
//! most once outside the cohort they pick — at most N + K reads in all.

use autofl_core::AutoFl;
use autofl_data::partition::DataDistribution;
use autofl_device::fleet::DeviceId;
use autofl_device::scenario::{Conditions, DeviceConditions, VarianceScenario};
use autofl_fed::clusters::CharacterizationCluster;
use autofl_fed::conditions::ConditionsView;
use autofl_fed::engine::{SimConfig, Simulation};
use autofl_fed::fleet::{AvailabilityView, FleetDynamics, FleetStore};
use autofl_fed::oracle::OracleSelector;
use autofl_fed::selection::{ClusterSelector, RandomSelector, RoundContext, Selector};
use autofl_nn::zoo::Workload;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Conditions that count every read, per device.
#[derive(Debug)]
struct CountingConditions<'a> {
    inner: &'a dyn Conditions,
    reads: Vec<AtomicUsize>,
}

impl<'a> CountingConditions<'a> {
    fn new(inner: &'a dyn Conditions, devices: usize) -> Self {
        CountingConditions {
            inner,
            reads: (0..devices).map(|_| AtomicUsize::new(0)).collect(),
        }
    }

    /// Per-device read counts since the last call, resetting them.
    fn take(&self) -> Vec<usize> {
        self.reads
            .iter()
            .map(|r| r.swap(0, Ordering::Relaxed))
            .collect()
    }
}

impl Conditions for CountingConditions<'_> {
    fn get(&self, id: usize) -> DeviceConditions {
        self.reads[id].fetch_add(1, Ordering::Relaxed);
        self.inner.get(id)
    }
}

/// Runs `selector` for a few rounds on the 200-device paper fleet under
/// realistic variance — static, and with fleet dynamics narrowing the
/// eligible pool — and returns each `select`'s per-device read counts
/// with the cohort it picked.
fn reads_per_select(selector: &mut dyn Selector) -> Vec<(Vec<usize>, Vec<DeviceId>)> {
    let mut config = SimConfig::paper_default(Workload::CnnMnist);
    config.distribution = DataDistribution::non_iid_percent(50);
    let sim = Simulation::new(config.clone());
    let fleet = sim.fleet();
    let n = fleet.len();
    let dynamics = FleetDynamics::realistic();
    let mut store = FleetStore::new(&dynamics, fleet, 5, 4);
    let mut rng = SmallRng::seed_from_u64(9);
    let mut out = Vec::new();
    for round in 0..6 {
        let dynamic = round % 2 == 1;
        if dynamic {
            store.begin_round(&dynamics, fleet, round);
        }
        let (availability, lifecycle) = if dynamic {
            (AvailabilityView::Dynamic(&store), Some(&store))
        } else {
            (AvailabilityView::Ideal { devices: n }, None)
        };
        let truth = ConditionsView::new(
            VarianceScenario::realistic(),
            fleet,
            0x7ead ^ round as u64,
            lifecycle,
        );
        let counting = CountingConditions::new(&truth, n);
        let ctx = RoundContext {
            round,
            fleet,
            conditions: &counting,
            availability,
            partition: &sim.data().partition,
            params: &config.params,
            workload: config.workload,
            layer_counts: config.workload.reference_layer_counts(),
            prev_accuracy: 0.3,
        };
        let decision = selector.select(&ctx, &mut rng);
        assert!(!decision.participants.is_empty());
        out.push((counting.take(), decision.participants));
    }
    out
}

#[test]
fn baselines_read_no_conditions() {
    let mut selectors: Vec<Box<dyn Selector>> = vec![
        Box::new(RandomSelector::new()),
        Box::new(ClusterSelector::performance()),
        Box::new(ClusterSelector::power()),
        Box::new(ClusterSelector::new(CharacterizationCluster::C3)),
    ];
    for selector in &mut selectors {
        for (reads, _) in reads_per_select(selector.as_mut()) {
            assert_eq!(
                reads.iter().sum::<usize>(),
                0,
                "{} read conditions it never uses",
                selector.name()
            );
        }
    }
}

#[test]
fn ranking_selectors_read_each_device_at_most_once_outside_the_cohort() {
    let k = SimConfig::paper_default(Workload::CnnMnist)
        .params
        .num_participants;
    let mut selectors: Vec<Box<dyn Selector>> = vec![
        Box::new(OracleSelector::participant()),
        Box::new(OracleSelector::full()),
        Box::new(AutoFl::paper_default()),
    ];
    for selector in &mut selectors {
        let name = selector.name();
        for (round, (reads, cohort)) in reads_per_select(selector.as_mut()).into_iter().enumerate()
        {
            let n = reads.len();
            let total: usize = reads.iter().sum();
            assert!(total > 0, "{name} round {round}: ranked without reading");
            assert!(
                total <= n + k,
                "{name} round {round}: {total} reads exceed N + K = {}",
                n + k
            );
            for (id, &count) in reads.iter().enumerate() {
                if !cohort.contains(&DeviceId(id)) {
                    assert!(
                        count <= 1,
                        "{name} round {round}: device {id} outside the cohort read {count} times"
                    );
                }
            }
        }
    }
}
