//! The deterministic network fabric between dispatch and aggregation:
//! per-device link model (tier- and signal-conditioned latency, message
//! loss), scripted network partitions, and communication-efficient update
//! codecs with exact byte accounting.
//!
//! Attach a [`NetworkFabric`] to a simulation through
//! [`crate::builder::SimBuilder::network`] (or
//! [`crate::engine::SimConfig::network`] on a profile). `None` — the
//! default — bypasses every fabric code path and reproduces pre-fabric
//! runs bit for bit.
//!
//! Every stochastic draw follows the workspace determinism contract
//! (`docs/determinism.md`): link draws come from per-device streams
//! seeded `(seed, TAG_NET, round, id)`, codec stochastic rounding from
//! `(seed, TAG_CODEC, round, id)`, so results are bit-identical at any
//! `AUTOFL_THREADS` or shard count. See `docs/network-fabric.md`.

use crate::fleet::{device_stream_seed, TAG_CODEC, TAG_NET};
use autofl_device::tier::DeviceTier;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Per-message link behaviour: a latency draw added to a participant's
/// completion time plus a loss coin that discards its upload.
///
/// Latency is Gaussian `N(latency_mean_s, latency_std_s²)` clamped to
/// ≥ 0, scaled by the device tier (low-end radios and distant cells are
/// slower) and by [`LinkModel::weak_latency_factor`] when the device's
/// signal is weak this round. The loss probability is
/// `drop_prob × weak_drop_factor` under weak signal (clamped to `[0, 1]`).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LinkModel {
    /// Mean one-way link latency in seconds.
    pub latency_mean_s: f64,
    /// Standard deviation of the latency draw in seconds.
    pub latency_std_s: f64,
    /// Multiplier on the latency draw under weak signal.
    pub weak_latency_factor: f64,
    /// Per-upload loss probability under strong signal, in `[0, 1]`.
    pub drop_prob: f64,
    /// Multiplier on `drop_prob` under weak signal (the product is
    /// clamped to `[0, 1]`).
    pub weak_drop_factor: f64,
}

impl LinkModel {
    /// A perfect link: zero latency, zero loss. With the identity codec
    /// this isolates pure-codec effects in experiments.
    pub fn ideal() -> Self {
        LinkModel {
            latency_mean_s: 0.0,
            latency_std_s: 0.0,
            weak_latency_factor: 1.0,
            drop_prob: 0.0,
            weak_drop_factor: 1.0,
        }
    }

    /// A well-behaved in-the-field link: sub-second latencies, rare loss.
    pub fn calm() -> Self {
        LinkModel {
            latency_mean_s: 0.08,
            latency_std_s: 0.03,
            weak_latency_factor: 2.0,
            drop_prob: 0.002,
            weak_drop_factor: 3.0,
        }
    }

    /// A realistic cellular/Wi-Fi mix: noticeable latency tails and a
    /// few-percent loss rate that weak signal amplifies.
    pub fn realistic() -> Self {
        LinkModel {
            latency_mean_s: 0.25,
            latency_std_s: 0.10,
            weak_latency_factor: 3.0,
            drop_prob: 0.02,
            weak_drop_factor: 4.0,
        }
    }

    /// Tier scaling of the latency draw (cheaper radios, worse antennas).
    pub fn tier_latency_factor(tier: DeviceTier) -> f64 {
        match tier {
            DeviceTier::High => 1.0,
            DeviceTier::Mid => 1.2,
            DeviceTier::Low => 1.5,
        }
    }

    /// Draws one participant's link behaviour for a round.
    ///
    /// Exactly two RNG draws are consumed in a fixed order (one standard
    /// normal for latency, one uniform for the loss coin) regardless of
    /// the parameters, so a stream's draw positions never depend on
    /// earlier outcomes.
    pub fn draw(&self, tier: DeviceTier, weak_signal: bool, rng: &mut SmallRng) -> LinkDraw {
        // Standard-normal via Box–Muller on two uniforms would consume a
        // variable draw count in some implementations; the shim's
        // `rand_distr::Normal` is draw-count-stable, but sampling
        // N(0, 1) and scaling keeps this correct even at std = 0.
        let z = rand_distr::Distribution::sample(
            &rand_distr::Normal::new(0.0, 1.0).expect("unit normal"),
            rng,
        );
        let coin = rng.gen::<f64>();
        let weak_factor = if weak_signal {
            self.weak_latency_factor
        } else {
            1.0
        };
        let latency_s = (self.latency_mean_s + self.latency_std_s * z).max(0.0)
            * Self::tier_latency_factor(tier)
            * weak_factor;
        let p = (self.drop_prob
            * if weak_signal {
                self.weak_drop_factor
            } else {
                1.0
            })
        .clamp(0.0, 1.0);
        LinkDraw {
            latency_s,
            dropped: coin < p,
        }
    }
}

/// One participant's sampled link behaviour for a round.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkDraw {
    /// Extra seconds the upload spends on the wire beyond bandwidth time.
    pub latency_s: f64,
    /// Whether the upload is lost (the device still burned the energy).
    pub dropped: bool,
}

/// One scripted partition: devices `[device_begin, device_end)` are
/// unreachable during rounds `[from_round, until_round)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PartitionRule {
    /// First round (inclusive) the partition is active.
    pub from_round: usize,
    /// First round (exclusive) after the partition heals.
    pub until_round: usize,
    /// First device id (inclusive) inside the partition.
    pub device_begin: usize,
    /// First device id (exclusive) outside the partition.
    pub device_end: usize,
}

impl PartitionRule {
    /// Whether the rule is active in `round`.
    pub fn covers_round(&self, round: usize) -> bool {
        (self.from_round..self.until_round).contains(&round)
    }

    /// Whether the rule makes device `id` unreachable in `round`.
    pub fn isolates(&self, round: usize, id: usize) -> bool {
        self.covers_round(round) && (self.device_begin..self.device_end).contains(&id)
    }
}

/// A script of [`PartitionRule`]s. Devices inside an active rule fail the
/// round's eligibility check-in (they cannot reach the server), flowing
/// into [`crate::fleet::AvailabilityView`] like any other ineligibility.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct PartitionSchedule {
    /// The scripted rules; overlapping rules union.
    pub rules: Vec<PartitionRule>,
}

impl PartitionSchedule {
    /// No partitions, ever.
    pub fn none() -> Self {
        PartitionSchedule { rules: Vec::new() }
    }

    /// A schedule with one rule.
    pub fn single(rule: PartitionRule) -> Self {
        PartitionSchedule { rules: vec![rule] }
    }

    /// Whether any rule is active in `round`.
    pub fn is_active(&self, round: usize) -> bool {
        self.rules.iter().any(|r| r.covers_round(round))
    }

    /// Whether device `id` is unreachable in `round`.
    pub fn unreachable(&self, round: usize, id: usize) -> bool {
        self.rules.iter().any(|r| r.isolates(round, id))
    }
}

/// The serializable codec selection of a [`NetworkFabric`].
///
/// Together with [`NetworkFabric::full_sync_every`] this is the whole
/// codec: [`NetworkFabric::encoded_bytes`], [`NetworkFabric::fidelity`]
/// and [`NetworkFabric::transcode`] each match on it, sync rounds first.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum CodecSpec {
    /// No compression: full float32 deltas.
    Identity,
    /// Top-k sparsification: keep the `k_frac` largest-magnitude
    /// coordinates, drop the rest. Encoded as (u32 index, f32 value)
    /// pairs — 8 bytes per survivor.
    TopK {
        /// Fraction of coordinates kept, in `(0, 1]`.
        k_frac: f64,
    },
    /// QSGD-style int8 quantization with stochastic rounding: one byte
    /// per coordinate plus a 4-byte scale.
    Int8Quant,
    /// Top-k sparsification followed by int8 quantization of the
    /// survivors: (u32 index, i8 value) pairs — 5 bytes per survivor —
    /// plus a 4-byte scale.
    TopKInt8 {
        /// Fraction of coordinates kept, in `(0, 1]`.
        k_frac: f64,
    },
}

impl CodecSpec {
    /// Short label for tables and figures.
    pub fn label(&self) -> String {
        match self {
            CodecSpec::Identity => "identity".to_string(),
            CodecSpec::TopK { k_frac } => format!("topk({k_frac})"),
            CodecSpec::Int8Quant => "int8".to_string(),
            CodecSpec::TopKInt8 { k_frac } => format!("topk8({k_frac})"),
        }
    }
}

/// The full network-fabric configuration: link model, update codec (with
/// optional periodic full-sync) and partition schedule.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NetworkFabric {
    /// Per-message latency and loss.
    pub link: LinkModel,
    /// Update compression applied to every uplink.
    pub codec: CodecSpec,
    /// Every `n`-th round (round index divisible by `n`) uploads the
    /// uncompressed update — the periodic full-sync composition that
    /// bounds compression drift. `None` compresses every round.
    pub full_sync_every: Option<usize>,
    /// Scripted partitions isolating sub-fleets for round spans.
    pub partitions: PartitionSchedule,
}

impl NetworkFabric {
    /// A fabric around `link` with no compression and no partitions.
    pub fn new(link: LinkModel) -> Self {
        NetworkFabric {
            link,
            codec: CodecSpec::Identity,
            full_sync_every: None,
            partitions: PartitionSchedule::none(),
        }
    }

    /// A perfect link, no compression, no partitions — the do-nothing
    /// fabric, useful as a base for builder-style composition.
    pub fn ideal() -> Self {
        NetworkFabric::new(LinkModel::ideal())
    }

    /// Returns `self` with `codec` as the uplink codec.
    pub fn with_codec(mut self, codec: CodecSpec) -> Self {
        self.codec = codec;
        self
    }

    /// Returns `self` uploading a full-precision update every `every`
    /// rounds.
    pub fn with_full_sync(mut self, every: usize) -> Self {
        self.full_sync_every = Some(every);
        self
    }

    /// Returns `self` with the partition script `partitions`.
    pub fn with_partitions(mut self, partitions: PartitionSchedule) -> Self {
        self.partitions = partitions;
        self
    }

    /// Whether `round` is a full-precision sync round: a round index
    /// divisible by [`NetworkFabric::full_sync_every`]. Never, without a
    /// full-sync cadence.
    pub fn is_sync_round(&self, round: usize) -> bool {
        self.full_sync_every
            .is_some_and(|every| round % every.max(1) == 0)
    }

    /// Uplink bytes of one encoded update with `params` coordinates in
    /// round `round` — the *exact* payload size wired into the Eq. 3
    /// communication time/energy path. Sync rounds and the identity codec
    /// send 4 bytes per coordinate.
    pub fn encoded_bytes(&self, params: usize, round: usize) -> u64 {
        if self.is_sync_round(round) {
            return 4 * params as u64;
        }
        match self.codec {
            CodecSpec::Identity => 4 * params as u64,
            CodecSpec::TopK { k_frac } => 8 * top_k_count(k_frac, params) as u64,
            CodecSpec::Int8Quant => params as u64 + 4,
            CodecSpec::TopKInt8 { k_frac } => 5 * top_k_count(k_frac, params) as u64 + 4,
        }
    }

    /// The surrogate's calibrated update-quality multiplier in `(0, 1]`
    /// for round `round`, applied to survivor update fractions before
    /// aggregation under `Fidelity::Surrogate`. Exactly `1.0` for
    /// lossless rounds, so the multiplication passes fractions through
    /// bit-unchanged.
    pub fn fidelity(&self, round: usize) -> f64 {
        if self.is_sync_round(round) {
            return 1.0;
        }
        // Top-k is calibrated so 10 % costs ~1pp of plateau accuracy on
        // the surrogate — consistent with the near-baseline accuracy
        // top-k sparsification reaches in practice at these densities.
        // Stochastic rounding is unbiased, so int8 charges only the added
        // quantization variance.
        match self.codec {
            CodecSpec::Identity => 1.0,
            CodecSpec::TopK { k_frac } => k_frac.clamp(0.0, 1.0).powf(0.08),
            CodecSpec::Int8Quant => 0.99,
            CodecSpec::TopKInt8 { k_frac } => 0.99 * k_frac.clamp(0.0, 1.0).powf(0.08),
        }
    }

    /// Applies the codec's encode→decode round trip to `delta` in place,
    /// the real transport applied to model deltas under
    /// `Fidelity::RealTraining`. `rng` is the device's tagged
    /// `TAG_CODEC` stream; sync rounds leave `delta` untouched.
    pub fn transcode(&self, delta: &mut [f32], round: usize, rng: &mut SmallRng) {
        if self.is_sync_round(round) {
            return;
        }
        match self.codec {
            CodecSpec::Identity => {}
            CodecSpec::TopK { k_frac } => sparsify_top_k(delta, top_k_count(k_frac, delta.len())),
            CodecSpec::Int8Quant => int8_round_trip(delta, rng),
            CodecSpec::TopKInt8 { k_frac } => {
                sparsify_top_k(delta, top_k_count(k_frac, delta.len()));
                int8_round_trip(delta, rng);
            }
        }
    }

    /// The fabric as a boxed [`UpdateCodec`], for the real-training
    /// engine's per-delta transcode.
    pub fn build_codec(&self) -> Box<dyn UpdateCodec> {
        Box::new(self.clone())
    }
}

/// The RNG stream of one device's link draws for one round
/// (`TAG_NET` in the `(seed, tag, round, id)` discipline).
pub(crate) fn net_stream(seed: u64, round: usize, id: usize) -> SmallRng {
    SmallRng::seed_from_u64(device_stream_seed(seed, TAG_NET, round as u64, id))
}

/// The RNG stream of one device's codec stochastic rounding for one
/// round (`TAG_CODEC`).
pub(crate) fn codec_stream(seed: u64, round: usize, id: usize) -> SmallRng {
    SmallRng::seed_from_u64(device_stream_seed(seed, TAG_CODEC, round as u64, id))
}

/// A communication-efficient update transform: the encode→decode round
/// trip of [`NetworkFabric::transcode`] behind a trait object.
///
/// [`NetworkFabric`] is its one implementation. The trait stays so that
/// [`crate::accuracy::RealTrainingEngine::new`] and external harnesses
/// (the perfbench timing harness) can hold the codec as a
/// `Box<dyn UpdateCodec>`; byte counts and surrogate fidelity are plain
/// [`NetworkFabric`] methods.
pub trait UpdateCodec: Send + Sync + std::fmt::Debug {
    /// Applies the encode→decode round trip to `delta` in place.
    /// `rng` is the device's tagged `TAG_CODEC` stream.
    fn transcode(&self, delta: &mut [f32], round: usize, rng: &mut SmallRng);
}

impl UpdateCodec for NetworkFabric {
    fn transcode(&self, delta: &mut [f32], round: usize, rng: &mut SmallRng) {
        NetworkFabric::transcode(self, delta, round, rng);
    }
}

/// Number of coordinates a top-k codec keeps: `round(k_frac × params)`,
/// at least 1, at most `params`.
pub fn top_k_count(k_frac: f64, params: usize) -> usize {
    ((k_frac * params as f64).round() as usize).clamp(1, params.max(1))
}

/// Zeroes every coordinate of `delta` outside its `k` largest magnitudes
/// (ties broken toward the lower index, matching a stable descending
/// sort), in place. Deterministic: a pure function of its inputs.
fn sparsify_top_k(delta: &mut [f32], k: usize) {
    if k >= delta.len() {
        return;
    }
    let mut order: Vec<usize> = (0..delta.len()).collect();
    let key = |i: usize| (std::cmp::Reverse(ordered_abs(delta[i])), i);
    order.select_nth_unstable_by_key(k - 1, |&i| key(i));
    order.truncate(k);
    let mut keep = vec![false; delta.len()];
    for &i in &order {
        keep[i] = true;
    }
    for (v, kept) in delta.iter_mut().zip(&keep) {
        if !kept {
            *v = 0.0;
        }
    }
}

/// Total-order magnitude key: |v| as a sortable bit pattern (finite
/// floats only; NaNs order last so they are dropped first).
fn ordered_abs(v: f32) -> u32 {
    let bits = v.abs().to_bits();
    if v.is_nan() {
        0
    } else {
        bits
    }
}

/// Quantizes `delta` to int8 with stochastic rounding against the slice's
/// max magnitude, then reconstructs — the decode(encode(x)) round trip.
/// Reconstruction error is at most one quantization step
/// (`scale = max|v| / 127`) per coordinate. Consumes exactly one uniform
/// draw per coordinate (including zeros), keeping stream positions
/// value-independent.
fn int8_round_trip(delta: &mut [f32], rng: &mut SmallRng) {
    let max_abs = delta.iter().fold(0.0f32, |m, v| m.max(v.abs()));
    if max_abs == 0.0 || !max_abs.is_finite() {
        for _ in 0..delta.len() {
            let _ = rng.gen::<f64>();
        }
        return;
    }
    let scale = max_abs / 127.0;
    for v in delta.iter_mut() {
        let u = rng.gen::<f64>();
        let x = (*v / scale) as f64;
        let floor = x.floor();
        let frac = x - floor;
        let q = if u < frac { floor + 1.0 } else { floor };
        let q = q.clamp(-127.0, 127.0);
        *v = (q as f32) * scale;
    }
}

/// Per-round network accounting carried on
/// [`crate::engine::RoundRecord::net`] when a fabric is attached.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct RoundNetStats {
    /// Bytes uploaded by participants that transmitted this round:
    /// survivors, partial updates, deadline-cut stragglers (their late
    /// upload is discarded server-side, but it crossed the wire) and
    /// fabric-lost uploads. Only mid-round dropouts never finished
    /// transmitting.
    pub bytes_uplinked: u64,
    /// Bytes broadcast to the cohort (the full model per participant).
    pub bytes_downlinked: u64,
    /// Uploads lost to the link's drop coin this round.
    pub net_drops: usize,
    /// Devices a partition rule made unreachable this round (out of those
    /// that would otherwise have been eligible).
    pub partitioned: usize,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng(seed: u64) -> SmallRng {
        SmallRng::seed_from_u64(seed)
    }

    /// An ideal-link fabric compressing every round with `codec`.
    fn fabric(codec: CodecSpec) -> NetworkFabric {
        NetworkFabric::ideal().with_codec(codec)
    }

    #[test]
    fn top_k_keeps_exactly_k_largest_magnitudes() {
        let codec = fabric(CodecSpec::TopK { k_frac: 0.4 });
        let mut delta = vec![0.1f32, -3.0, 0.2, 2.0, -0.05];
        codec.transcode(&mut delta, 0, &mut rng(1));
        assert_eq!(delta, vec![0.0, -3.0, 0.0, 2.0, 0.0]);
    }

    #[test]
    fn top_k_tie_break_is_the_lower_index() {
        let mut delta = vec![1.0f32, -1.0, 1.0];
        sparsify_top_k(&mut delta, 2);
        assert_eq!(delta, vec![1.0, -1.0, 0.0]);
    }

    #[test]
    fn int8_round_trip_error_is_bounded_by_one_step() {
        let mut delta: Vec<f32> = (0..257).map(|i| (i as f32 - 128.0) * 0.013).collect();
        let original = delta.clone();
        int8_round_trip(&mut delta, &mut rng(7));
        let scale = original.iter().fold(0.0f32, |m, v| m.max(v.abs())) / 127.0;
        for (a, b) in delta.iter().zip(&original) {
            assert!((a - b).abs() <= scale * (1.0 + 1e-6), "{a} vs {b}");
        }
    }

    #[test]
    fn encoded_bytes_are_exact() {
        let params = 1_000_000;
        let bytes = |codec| fabric(codec).encoded_bytes(params, 3);
        assert_eq!(bytes(CodecSpec::Identity), 4_000_000);
        assert_eq!(bytes(CodecSpec::TopK { k_frac: 0.1 }), 800_000);
        assert_eq!(bytes(CodecSpec::Int8Quant), 1_000_004);
        assert_eq!(bytes(CodecSpec::TopKInt8 { k_frac: 0.1 }), 500_004);
    }

    #[test]
    fn top_k_at_ten_percent_is_at_least_five_x() {
        let params = 1_663_370; // CnnMnist reference model / 4 bytes
        let full = NetworkFabric::ideal().encoded_bytes(params, 0) as f64;
        let topk = fabric(CodecSpec::TopK { k_frac: 0.1 }).encoded_bytes(params, 0) as f64;
        assert!(full / topk >= 5.0, "reduction {}", full / topk);
    }

    #[test]
    fn periodic_full_sync_composes() {
        let codec = fabric(CodecSpec::TopK { k_frac: 0.25 }).with_full_sync(4);
        assert_eq!(codec.encoded_bytes(100, 0), 400);
        assert_eq!(codec.encoded_bytes(100, 1), 8 * 25);
        assert_eq!(codec.encoded_bytes(100, 4), 400);
        assert_eq!(codec.fidelity(0).to_bits(), 1.0f64.to_bits());
        assert!(codec.fidelity(1) < 1.0);
        let mut delta = vec![1.0f32, 0.5, 0.25, 0.125];
        codec.transcode(&mut delta, 0, &mut rng(1));
        assert_eq!(delta, vec![1.0, 0.5, 0.25, 0.125], "sync round is lossless");
    }

    #[test]
    fn fabric_builds_the_composed_codec() {
        let fabric = NetworkFabric::ideal()
            .with_codec(CodecSpec::TopK { k_frac: 0.1 })
            .with_full_sync(10);
        let codec = fabric.build_codec();
        let delta: Vec<f32> = (1..=20).map(|i| i as f32).collect();
        for round in [0, 10, 20] {
            let mut synced = delta.clone();
            codec.transcode(&mut synced, round, &mut rng(1));
            assert_eq!(synced, delta, "sync round {round} is lossless");
        }
        for round in [1, 5, 19] {
            let mut sparse = delta.clone();
            codec.transcode(&mut sparse, round, &mut rng(1));
            let kept: Vec<usize> = (0..sparse.len()).filter(|&i| sparse[i] != 0.0).collect();
            assert_eq!(kept, [18, 19], "round {round} keeps the top 10 %");
        }
    }

    #[test]
    fn partition_rules_cover_their_round_and_device_spans() {
        let schedule = PartitionSchedule::single(PartitionRule {
            from_round: 5,
            until_round: 8,
            device_begin: 10,
            device_end: 20,
        });
        assert!(!schedule.is_active(4));
        assert!(schedule.is_active(5) && schedule.is_active(7));
        assert!(!schedule.is_active(8));
        assert!(schedule.unreachable(6, 10) && schedule.unreachable(6, 19));
        assert!(!schedule.unreachable(6, 9) && !schedule.unreachable(6, 20));
        assert!(!schedule.unreachable(4, 15));
    }

    #[test]
    fn link_draws_are_deterministic_and_weak_signal_hurts() {
        let link = LinkModel::realistic();
        let a = link.draw(DeviceTier::Mid, false, &mut rng(42));
        let b = link.draw(DeviceTier::Mid, false, &mut rng(42));
        assert_eq!(a, b);
        // Same unit-normal draw, so the weak/tier factors scale exactly.
        let strong = link.draw(DeviceTier::High, false, &mut rng(9));
        let weak = link.draw(DeviceTier::High, true, &mut rng(9));
        assert!(weak.latency_s >= strong.latency_s * (link.weak_latency_factor - 1e-9));
    }

    #[test]
    fn ideal_link_is_a_no_op() {
        let link = LinkModel::ideal();
        for seed in 0..50 {
            let d = link.draw(DeviceTier::Low, true, &mut rng(seed));
            assert_eq!(d.latency_s, 0.0);
            assert!(!d.dropped);
        }
    }

    #[test]
    fn codec_fidelity_is_exactly_one_for_identity() {
        assert_eq!(
            NetworkFabric::ideal().fidelity(17).to_bits(),
            1.0f64.to_bits()
        );
        let f = fabric(CodecSpec::TopK { k_frac: 0.1 }).fidelity(0);
        assert!(f > 0.7 && f < 1.0, "fidelity {f}");
    }
}
