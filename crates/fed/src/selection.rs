//! Participant-selection policies and the [`Selector`] trait AutoFL plugs
//! into.

use crate::clusters::CharacterizationCluster;
use crate::fleet::AvailabilityView;
use crate::global::GlobalParams;
use autofl_data::partition::Partition;
use autofl_device::cost::{ExecutionPlan, TrainingTask};
use autofl_device::fleet::{DeviceId, Fleet};
use autofl_device::scenario::Conditions;
use autofl_device::tier::DeviceTier;
use autofl_nn::model::LayerCounts;
use autofl_nn::zoo::Workload;
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::Rng;
use std::cmp::Ordering;
use std::collections::BTreeSet;

/// Everything a selection policy may observe at the start of a round.
///
/// This mirrors the information the de-facto FL protocol already collects
/// from devices (resource usage, network bandwidth, data-class counts) —
/// footnote 3 of the paper. Per-device state is exposed through read
/// views rather than struct slices, so building the context costs nothing
/// at million-device fleet sizes and a policy pays only for the devices it
/// reads (see `docs/scaling.md`).
#[derive(Debug)]
pub struct RoundContext<'a> {
    /// 0-based aggregation-round index.
    pub round: usize,
    /// The device fleet.
    pub fleet: &'a Fleet,
    /// Per-device runtime conditions this round as the devices report
    /// them, indexed by raw device id. The engine derives a device's
    /// conditions when they are read ([`crate::conditions::ConditionsView`]),
    /// so a policy should read each device at most once per round.
    pub conditions: &'a dyn Conditions,
    /// Per-device availability this round (check-in eligibility, battery,
    /// thermal, sessions). All-ideal — with no backing storage — when the
    /// fleet-dynamics block is disabled.
    pub availability: AvailabilityView<'a>,
    /// The training-data partition (for data-class counts).
    pub partition: &'a Partition,
    /// FL global parameters.
    pub params: &'a GlobalParams,
    /// The workload being trained.
    pub workload: Workload,
    /// CONV/FC/RC counts of the (paper-scale) model.
    pub layer_counts: LayerCounts,
    /// Global test accuracy after the previous round, in `[0, 1]`.
    pub prev_accuracy: f64,
}

impl RoundContext<'_> {
    /// Whether device `id` passed this round's eligibility check-in.
    pub fn is_eligible(&self, id: DeviceId) -> bool {
        self.availability.is_eligible(id.0)
    }

    /// Ids of every eligible device, in fleet order. Identical to
    /// [`Fleet::ids`] when fleet dynamics are disabled; under dynamics it
    /// walks the per-shard availability bins and skips dark shards.
    pub fn eligible_ids(&self) -> Vec<DeviceId> {
        self.availability.eligible_ids()
    }

    /// Ids of every eligible device of one tier, in fleet order.
    pub fn eligible_ids_of_tier(&self, tier: DeviceTier) -> Vec<DeviceId> {
        self.fleet
            .ids_of_tier(tier)
            .into_iter()
            .filter(|id| self.availability.is_eligible(id.0))
            .collect()
    }

    /// The training task device `id` would perform this round:
    /// `E × local_samples × training FLOPs/sample`, plus the gradient
    /// upload.
    pub fn task_for(&self, id: DeviceId) -> TrainingTask {
        let samples = self.partition.device_sample_count(id.0) as u64;
        TrainingTask {
            flops: self.params.local_epochs as u64
                * samples
                * self.workload.reference_training_flops_per_sample(),
            upload_bytes: self.workload.reference_model_bytes(),
        }
    }
}

/// What a policy decided for one round: who participates, and on what
/// silicon/frequency each participant trains.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SelectionDecision {
    /// The `≤ K` chosen devices.
    pub participants: Vec<DeviceId>,
    /// Execution plan per participant, aligned with `participants`.
    pub plans: Vec<ExecutionPlan>,
}

impl SelectionDecision {
    /// Builds a decision that trains every participant on its CPU at
    /// maximum frequency — the conventional default all non-O_FL baselines
    /// use.
    pub fn cpu_max(fleet: &Fleet, participants: Vec<DeviceId>) -> Self {
        let plans = participants
            .iter()
            .map(|id| ExecutionPlan::cpu_max(fleet.device(*id).tier()))
            .collect();
        SelectionDecision {
            participants,
            plans,
        }
    }
}

/// Feedback a learning selector receives after the round completes.
///
/// Borrows the engine's round buffers rather than owning copies: the
/// round hot loop hands the same scratch slices to every observer without
/// cloning per round. Observers that need to retain data copy exactly
/// what they keep.
#[derive(Debug, Clone, Copy)]
pub struct RoundFeedback<'a> {
    /// The dispatch round this feedback reports on. Under the full
    /// barrier feedback arrives in round order; with concurrent cohorts
    /// ([`crate::runtime`]) they can complete out of dispatch order, so
    /// learning selectors must match feedback to the decision they made
    /// at this round, not to the latest one.
    pub round: usize,
    /// The decision that was executed.
    pub participants: &'a [DeviceId],
    /// Per-participant active energy in joules (Eq. 5 selected branch),
    /// aligned with `participants`.
    pub per_participant_energy_j: &'a [f64],
    /// Idle energy per non-participant in joules (Eq. 5 else branch).
    pub idle_energy_per_device_j: f64,
    /// Global energy of the round (Eq. 6).
    pub global_energy_j: f64,
    /// Wall-clock round time in seconds.
    pub round_time_s: f64,
    /// Test accuracy after aggregation, in `[0, 1]`.
    pub accuracy: f64,
    /// Test accuracy before this round, in `[0, 1]`.
    pub prev_accuracy: f64,
    /// Participants dropped as stragglers this round.
    pub dropped: &'a [DeviceId],
    /// Participants that vanished mid-round (battery death or network
    /// churn); disjoint from `dropped` and empty when fleet dynamics are
    /// disabled.
    pub dropouts: &'a [DeviceId],
    /// Mean staleness (in aggregation versions) of this cohort's updates
    /// when they were folded into the global model. Exactly `0.0` under
    /// the full barrier; positive only under buffered asynchronous
    /// aggregation.
    pub mean_staleness: f64,
    /// Bytes the cohort uplinked (encoded updates that finished
    /// transmitting). Exactly `0` when no network fabric is attached —
    /// byte accounting needs [`crate::fabric::NetworkFabric`].
    pub bytes_uplinked: u64,
}

/// A participant-selection (and execution-target) policy.
///
/// Implemented by the baselines here and by `autofl_core::AutoFl`.
pub trait Selector {
    /// Chooses up to `K` participants and their execution plans. Each
    /// participant must be a device of the fleet and appear once: the
    /// round engine panics on a decision that breaks this.
    fn select(&mut self, ctx: &RoundContext<'_>, rng: &mut SmallRng) -> SelectionDecision;

    /// Receives the measured outcome of the round (learning selectors
    /// update their policy here).
    fn observe(&mut self, feedback: &RoundFeedback<'_>) {
        let _ = feedback;
    }

    /// Policy name used in reports.
    fn name(&self) -> &'static str;

    /// Serializes whatever state `observe` accumulates across rounds, for
    /// a checkpoint ([`mod@crate::serve`]). Stateless selectors — everything
    /// whose decisions depend only on the round context and the engine's
    /// RNG — keep the default `None`; learning selectors (the AutoFL
    /// agent's Q-tables, pending rounds and exploration stream) return
    /// `Some` so a resumed run keeps learning from where it stopped.
    fn state_snapshot(&self) -> Option<serde::Value> {
        None
    }

    /// Restores state captured by [`Selector::state_snapshot`] onto a
    /// freshly minted selector of the same policy. The default accepts
    /// only the stateless `None` snapshot.
    fn state_restore(&mut self, state: &serde::Value) -> Result<(), serde::Error> {
        match state {
            serde::Value::Null => Ok(()),
            other => Err(serde::Error::custom(format!(
                "selector `{}` is stateless but the checkpoint holds a {} state",
                self.name(),
                other.kind()
            ))),
        }
    }

    /// Checks state restored by [`Selector::state_restore`] against the
    /// fleet of `devices` devices the run resumes on, which the restore
    /// itself does not see: a checkpoint can pass its digest and still
    /// hold per-device state of the wrong length. Runs after every
    /// restore; the default accepts anything.
    fn check_restored(&self, devices: usize) -> Result<(), serde::Error> {
        let _ = devices;
        Ok(())
    }
}

/// Deterministic partial top-`k` selection: truncates `items` to the `k`
/// elements a *stable full sort* under `cmp` would place first, in that
/// exact order, in `O(N + K log K)` instead of `O(N log N)`.
///
/// `cmp` must be a total order over the input (break ties on a unique key
/// such as the device id or the original position): a total order makes
/// the unstable partition below indistinguishable from a stable sort, so
/// replacing a full-fleet sort with this call is bit-transparent —
/// `tests/scale_invariance.rs` and the unit tests here pin the
/// equivalence. Ranking selectors (the oracles' per-tier ranking, the
/// AutoFL controller's Q-value cut) route through this so their per-round
/// cost stays near-linear at million-device fleet sizes.
pub fn top_k_by<T>(items: &mut Vec<T>, k: usize, cmp: impl Fn(&T, &T) -> Ordering) {
    if k == 0 {
        items.clear();
        return;
    }
    if k < items.len() {
        // O(N) three-way partition around the k-th element, then drop the
        // tail; only the surviving head is sorted.
        items.select_nth_unstable_by(k - 1, &cmp);
        items.truncate(k);
    }
    items.sort_unstable_by(cmp);
}

/// The FedAvg baseline: `K` participants chosen uniformly at random
/// (cluster C0), trained on CPU at maximum frequency.
#[derive(Debug, Clone, Default)]
pub struct RandomSelector;

impl RandomSelector {
    /// Creates the selector.
    pub fn new() -> Self {
        RandomSelector
    }
}

impl Selector for RandomSelector {
    /// Draws `k = min(K, m)` distinct ranks over the `m` eligible devices
    /// by Floyd's algorithm, one `gen_range(0..=j)` for each `j` in
    /// `m − k..m`, and maps the sorted ranks to their devices
    /// ([`AvailabilityView::eligible_ids_at`]). Every `k`-subset is
    /// equally likely, the cohort comes out in fleet order, and the cost
    /// follows `k`, not the fleet.
    fn select(&mut self, ctx: &RoundContext<'_>, rng: &mut SmallRng) -> SelectionDecision {
        let m = ctx.availability.eligible_count();
        let k = ctx.params.num_participants.min(m);
        let mut ranks = BTreeSet::new();
        for j in m - k..m {
            let t = rng.gen_range(0..=j);
            // Every rank drawn so far is below `j`, so `j` is never taken.
            if !ranks.insert(t) {
                ranks.insert(j);
            }
        }
        let ranks: Vec<usize> = ranks.into_iter().collect();
        let participants = ctx.availability.eligible_ids_at(&ranks);
        SelectionDecision::cpu_max(ctx.fleet, participants)
    }

    fn name(&self) -> &'static str {
        "FedAvg-Random"
    }
}

/// A fixed Table 4 composition (C1–C7): picks the prescribed number of
/// devices per tier, uniformly within each tier.
#[derive(Debug, Clone)]
pub struct ClusterSelector {
    cluster: CharacterizationCluster,
    label: &'static str,
}

impl ClusterSelector {
    /// Creates a selector for any fixed cluster.
    ///
    /// # Panics
    ///
    /// Panics if `cluster` is C0 (random has no fixed composition).
    pub fn new(cluster: CharacterizationCluster) -> Self {
        assert!(
            cluster.base_composition().is_some(),
            "C0 is the random baseline; use RandomSelector"
        );
        ClusterSelector {
            cluster,
            label: cluster.name(),
        }
    }

    /// The `Performance` policy: all high-end devices (C1).
    pub fn performance() -> Self {
        let mut s = ClusterSelector::new(CharacterizationCluster::C1);
        s.label = "Performance";
        s
    }

    /// The `Power` policy: all low-end devices (C7).
    pub fn power() -> Self {
        let mut s = ClusterSelector::new(CharacterizationCluster::C7);
        s.label = "Power";
        s
    }

    /// The cluster this selector realises.
    pub fn cluster(&self) -> CharacterizationCluster {
        self.cluster
    }
}

impl Selector for ClusterSelector {
    fn select(&mut self, ctx: &RoundContext<'_>, rng: &mut SmallRng) -> SelectionDecision {
        let (h, m, l) = self
            .cluster
            .composition(ctx.params.num_participants)
            .expect("fixed cluster");
        let mut participants = Vec::with_capacity(ctx.params.num_participants);
        for (tier, want) in [
            (DeviceTier::High, h),
            (DeviceTier::Mid, m),
            (DeviceTier::Low, l),
        ] {
            let mut pool = ctx.eligible_ids_of_tier(tier);
            pool.shuffle(rng);
            // If the fleet has fewer eligible devices of the tier than
            // requested, take what exists; the shortfall is filled below.
            participants.extend(pool.into_iter().take(want));
        }
        // Fill any shortfall with random eligible devices not yet
        // selected.
        if participants.len() < ctx.params.num_participants {
            let mut rest: Vec<DeviceId> = ctx
                .eligible_ids()
                .into_iter()
                .filter(|id| !participants.contains(id))
                .collect();
            rest.shuffle(rng);
            participants.extend(
                rest.into_iter()
                    .take(ctx.params.num_participants - participants.len()),
            );
        }
        SelectionDecision::cpu_max(ctx.fleet, participants)
    }

    fn name(&self) -> &'static str {
        self.label
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fleet::{FleetDynamics, FleetStore, ShardBin};
    use autofl_data::partition::DataDistribution;
    use autofl_data::FlData;
    use autofl_device::store::ConditionsStore;
    use rand::{Rng, SeedableRng};

    fn context_fixture() -> (Fleet, FlData, GlobalParams, ConditionsStore) {
        let fleet = Fleet::paper_fleet(1);
        let data = FlData::generate(
            Workload::TinyTest,
            200,
            8,
            16,
            DataDistribution::IidIdeal,
            1,
        );
        let conditions = ConditionsStore::new(200, 1);
        (fleet, data, GlobalParams::s3(), conditions)
    }

    fn ctx<'a>(
        fleet: &'a Fleet,
        data: &'a FlData,
        params: &'a GlobalParams,
        conditions: &'a ConditionsStore,
    ) -> RoundContext<'a> {
        RoundContext {
            round: 0,
            fleet,
            conditions,
            availability: AvailabilityView::Ideal {
                devices: fleet.len(),
            },
            partition: &data.partition,
            params,
            workload: Workload::TinyTest,
            layer_counts: Workload::TinyTest.reference_layer_counts(),
            prev_accuracy: 0.1,
        }
    }

    #[test]
    fn random_selects_k_distinct_devices() {
        let (fleet, data, params, conditions) = context_fixture();
        let c = ctx(&fleet, &data, &params, &conditions);
        let mut rng = SmallRng::seed_from_u64(1);
        let d = RandomSelector::new().select(&c, &mut rng);
        assert_eq!(d.participants.len(), 20);
        let mut unique = d.participants.clone();
        unique.sort();
        unique.dedup();
        assert_eq!(unique.len(), 20);
        assert_eq!(d.plans.len(), 20);
    }

    fn entry<'v>(value: &'v mut serde::Value, key: &str) -> &'v mut serde::Value {
        let serde::Value::Map(entries) = value else {
            panic!("expected a map holding `{key}`");
        };
        &mut entries
            .iter_mut()
            .find(|(k, _)| k == key)
            .expect("the key")
            .1
    }

    /// The stores and masks behind the availability views a draw must
    /// handle, over `context_fixture`'s 200-device fleet.
    struct Views {
        /// A live dynamics store in 4 shards, after one begin pass.
        store: FleetStore,
        /// The same store with no eligible device in its second shard,
        /// restored from an edited snapshot.
        dark: FleetStore,
        /// A partition mask over the live store: every third device cut.
        reachable: Vec<bool>,
        /// The mask's bins.
        bins: Vec<ShardBin>,
    }

    impl Views {
        fn new(fleet: &Fleet) -> Self {
            let dynamics = FleetDynamics::realistic();
            let mut store = FleetStore::new(&dynamics, fleet, 3, 4);
            store.begin_round(&dynamics, fleet, 0);
            let mut snapshot = store.state_snapshot();
            let serde::Value::Seq(shards) = entry(&mut snapshot, "shards") else {
                panic!("shards are a sequence");
            };
            let serde::Value::Seq(lanes) = entry(&mut shards[1], "eligible") else {
                panic!("a column is a sequence");
            };
            lanes.fill(serde::Value::Bool(false));
            *entry(&mut shards[1], "eligible_count") = serde::Value::UInt(0);
            let mut dark = store.clone();
            dark.state_restore(&snapshot)
                .expect("a consistent snapshot");
            assert_eq!(dark.bins()[1].eligible, 0);
            let reachable: Vec<bool> = (0..fleet.len())
                .map(|i| store.is_eligible(i) && i % 3 != 0)
                .collect();
            let bins = masked_bins(&store, &reachable);
            Views {
                store,
                dark,
                reachable,
                bins,
            }
        }

        /// Ideal, Dynamic, Dynamic with a dark shard, and Masked.
        fn all(&self) -> [AvailabilityView<'_>; 4] {
            [
                AvailabilityView::Ideal {
                    devices: self.store.len(),
                },
                AvailabilityView::Dynamic(&self.store),
                AvailabilityView::Dynamic(&self.dark),
                AvailabilityView::Masked {
                    eligible: &self.reachable,
                    bins: &self.bins,
                    count: self.bins.iter().map(|b| b.eligible).sum(),
                    store: Some(&self.store),
                },
            ]
        }
    }

    /// `store`'s bins, each counting the set lanes of `mask`.
    fn masked_bins(store: &FleetStore, mask: &[bool]) -> Vec<ShardBin> {
        store
            .bins()
            .into_iter()
            .map(|b| ShardBin {
                eligible: mask[b.offset..b.offset + b.len]
                    .iter()
                    .filter(|&&e| e)
                    .count(),
                ..b
            })
            .collect()
    }

    #[test]
    fn rank_lookup_equals_the_eligible_list_on_every_view() {
        let (fleet, ..) = context_fixture();
        let views = Views::new(&fleet);
        for view in views.all() {
            let ids = view.eligible_ids();
            let last = ids.len() - 1;
            for (r, &id) in ids.iter().enumerate() {
                assert_eq!(view.eligible_ids_at(&[r]), [id], "rank {r}");
            }
            assert_eq!(view.eligible_ids_at(&[0, last]), [ids[0], ids[last]]);
            let every: Vec<usize> = (0..ids.len()).collect();
            assert_eq!(view.eligible_ids_at(&every), ids);
            for stride in [2, 7, 31] {
                let ranks: Vec<usize> = (stride / 2..ids.len()).step_by(stride).collect();
                let expect: Vec<DeviceId> = ranks.iter().map(|&r| ids[r]).collect();
                assert_eq!(view.eligible_ids_at(&ranks), expect, "stride {stride}");
            }
            assert!(view.eligible_ids_at(&[]).is_empty());
        }
    }

    /// Floyd's draw as `docs/determinism.md` states it, over the eligible
    /// list: `min(K, m)` calls `gen_range(0..=j)`, a repeat replaced by
    /// `j`, the ranks sorted and looked up in the list.
    fn floyd_reference(ctx: &RoundContext<'_>, rng: &mut SmallRng) -> Vec<DeviceId> {
        let ids = ctx.eligible_ids();
        let m = ids.len();
        let mut ranks = Vec::new();
        for j in m - ctx.params.num_participants.min(m)..m {
            let t = rng.gen_range(0..=j);
            ranks.push(if ranks.contains(&t) { j } else { t });
        }
        ranks.sort_unstable();
        ranks.into_iter().map(|r| ids[r]).collect()
    }

    #[test]
    fn random_draws_min_k_distinct_eligible_ids_in_fleet_order() {
        let (fleet, data, params, conditions) = context_fixture();
        let views = Views::new(&fleet);
        let nobody = vec![false; fleet.len()];
        let empty_bins = masked_bins(&views.store, &nobody);
        let empty = AvailabilityView::Masked {
            eligible: &nobody,
            bins: &empty_bins,
            count: 0,
            store: Some(&views.store),
        };
        for view in views.all().into_iter().chain([empty]) {
            let eligible = view.eligible_count();
            for k in [1, 20, eligible, eligible + 7] {
                let params = GlobalParams {
                    num_participants: k,
                    ..params
                };
                let c = RoundContext {
                    availability: view,
                    params: &params,
                    ..ctx(&fleet, &data, &params, &conditions)
                };
                for seed in 0..3 {
                    let mut rng = SmallRng::seed_from_u64(seed);
                    let mut reference_rng = rng.clone();
                    let drawn = RandomSelector.select(&c, &mut rng).participants;
                    assert_eq!(drawn.len(), k.min(eligible), "k = {k}");
                    assert!(
                        drawn.windows(2).all(|w| w[0] < w[1]),
                        "distinct, fleet order"
                    );
                    assert!(drawn.iter().all(|id| view.is_eligible(id.0)));
                    if k >= eligible {
                        assert_eq!(drawn, view.eligible_ids(), "the whole pool");
                    }
                    // The reference makes exactly `min(K, m)` draws.
                    assert_eq!(drawn, floyd_reference(&c, &mut reference_rng), "k = {k}");
                    assert_eq!(rng.gen::<u64>(), reference_rng.gen::<u64>(), "RNG state");
                }
            }
        }
    }

    #[test]
    fn random_draws_every_eligible_device_equally_often() {
        // 20,000 cohorts of K = 20 from the m = 146 eligible devices. A
        // device's count is a sum of 20,000 independent coins of
        // probability p = K / m, so it stays within 6 σ = 6 √(n p (1 − p))
        // of n p (≈ 11 % of it here) unless the draw favours some ranks.
        let (fleet, data, params, conditions) = context_fixture();
        let views = Views::new(&fleet);
        let view = AvailabilityView::Dynamic(&views.store);
        let c = RoundContext {
            availability: view,
            ..ctx(&fleet, &data, &params, &conditions)
        };
        let (n, k, m) = (20_000, params.num_participants, view.eligible_count());
        assert!(m < fleet.len() && m > 2 * k, "a partly eligible pool: {m}");
        let mut counts = vec![0usize; fleet.len()];
        let mut rng = SmallRng::seed_from_u64(0x5e1ec7);
        for _ in 0..n {
            for id in RandomSelector.select(&c, &mut rng).participants {
                counts[id.0] += 1;
            }
        }
        let p = k as f64 / m as f64;
        let (mean, sigma) = (n as f64 * p, (n as f64 * p * (1.0 - p)).sqrt());
        for (i, &count) in counts.iter().enumerate() {
            if view.is_eligible(i) {
                let off = (count as f64 - mean).abs();
                assert!(off <= 6.0 * sigma, "device {i}: {count} against {mean:.0}");
            } else {
                assert_eq!(count, 0, "ineligible device {i} drawn");
            }
        }
        assert_eq!(counts.iter().sum::<usize>(), n * k);
    }

    #[test]
    fn performance_selects_only_high_end() {
        let (fleet, data, params, conditions) = context_fixture();
        let c = ctx(&fleet, &data, &params, &conditions);
        let mut rng = SmallRng::seed_from_u64(2);
        let d = ClusterSelector::performance().select(&c, &mut rng);
        assert!(d
            .participants
            .iter()
            .all(|id| fleet.device(*id).tier() == DeviceTier::High));
    }

    #[test]
    fn cluster_c3_mixes_tiers_as_table4() {
        let (fleet, data, params, conditions) = context_fixture();
        let c = ctx(&fleet, &data, &params, &conditions);
        let mut rng = SmallRng::seed_from_u64(3);
        let d = ClusterSelector::new(CharacterizationCluster::C3).select(&c, &mut rng);
        let count = |t: DeviceTier| {
            d.participants
                .iter()
                .filter(|id| fleet.device(**id).tier() == t)
                .count()
        };
        assert_eq!(
            (
                count(DeviceTier::High),
                count(DeviceTier::Mid),
                count(DeviceTier::Low)
            ),
            (10, 5, 5)
        );
    }

    #[test]
    fn task_for_scales_with_local_data_and_epochs() {
        let (fleet, data, params, conditions) = context_fixture();
        let c = ctx(&fleet, &data, &params, &conditions);
        let t = c.task_for(DeviceId(0));
        let samples = data.partition.device_indices(0).len() as u64;
        assert_eq!(
            t.flops,
            params.local_epochs as u64
                * samples
                * Workload::TinyTest.reference_training_flops_per_sample()
        );
    }

    /// `top_k_by` must be indistinguishable from a stable full sort
    /// truncated to `k`, including with heavy score ties (the stable
    /// order is reproduced through an index tie-break).
    #[test]
    fn top_k_matches_the_stable_sort_prefix() {
        let mut rng = SmallRng::seed_from_u64(0xbeef);
        for n in [0usize, 1, 2, 7, 100, 513] {
            for k in [0usize, 1, 2, 5, n / 2, n, n + 3] {
                // Coarse scores force ties; idx makes the order total.
                let items: Vec<(usize, f64)> = (0..n)
                    .map(|idx| (idx, f64::from(rng.gen_range(0i32..8))))
                    .collect();
                let mut expect = items.clone();
                expect.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite"));
                expect.truncate(k);
                let mut got = items;
                top_k_by(&mut got, k, |a, b| {
                    b.1.partial_cmp(&a.1)
                        .expect("finite")
                        .then_with(|| a.0.cmp(&b.0))
                });
                assert_eq!(got, expect, "n={n}, k={k}");
            }
        }
    }
}
