//! Gradient aggregation algorithms: FedAvg and the comparators the paper
//! evaluates against (FedProx, FedNova, FEDL), the Byzantine-robust
//! aggregators (coordinate-wise median, trimmed mean, Krum), and the
//! two-level hierarchical aggregation path used at fleet scale.
//!
//! # Rules and their implementations
//!
//! [`AggregationAlgorithm`] is the serializable *spec* of a rule — the
//! thing configs and experiment files carry — and the one home of its
//! metadata (name, partial-update policy, robustness, sharding
//! exactness). [`AggregationAlgorithm::aggregate_sharded`] dispatches to
//! one of four private implementations, because the linear rules and the
//! order-statistics rules have fundamentally different sharding stories:
//!
//! * **Linear rules** (FedAvg, FedProx, FedNova, FEDL) are weighted sums,
//!   so per-shard partials reduce to one [`ExactF32Sum`] per coordinate
//!   and merge exactly (`linear_aggregate`).
//! * **Order-statistics rules** (median, trimmed mean) cannot reduce a
//!   shard to a running sum: the only partial state that combines exactly
//!   is the multiset of submitted values itself. Concatenating the shard
//!   partials in any order feeds the same multiset to the sort, so the
//!   two-level combine is still exact — `median_aggregate` and
//!   `trimmed_mean_aggregate` compute the flat statistic directly at
//!   every shard count and still honour
//!   [`AggregationAlgorithm::exact_sharded`].
//! * **Krum** (`krum_aggregate`, which applies the update [`krum_select`]
//!   picks) scores every update against every other, which no per-shard
//!   state can carry; it is flat-only (`exact_sharded() == false`) and
//!   configuration validation rejects it with `shards > 1`.
//!
//! # Hierarchical aggregation and exact summation
//!
//! At production scale the server does not fold a million client updates
//! into the global model one by one: shards of clients pre-combine their
//! weighted deltas and the coordinator merges the per-shard partials.
//! Floating-point addition is not associative, so a naive two-level sum
//! would make the global model depend on the shard count — poison for
//! this workspace's bit-reproducibility contract. The partial
//! accumulators here ([`ExactF32Sum`]) therefore sum the `f32` terms in
//! **exact fixed-point arithmetic** (a 320-bit integer spanning the full
//! `f32` exponent range): integer addition is associative and
//! commutative, so any grouping of updates into shards — and any merge
//! order — produces the *same* accumulated value, and
//! [`AggregationAlgorithm::aggregate_sharded`] is bit-identical to the
//! flat [`AggregationAlgorithm::aggregate`] for every shard count
//! (pinned by a property test over random shard counts in
//! `tests/scale_invariance.rs`).

use autofl_device::store::shard_extents;
use rayon::prelude::*;
use serde::{Deserialize, Serialize};

/// A client's contribution to one aggregation round.
#[derive(Debug, Clone)]
pub struct ClientUpdate {
    /// Parameter delta `w_local − w_global` after local training.
    pub delta: Vec<f32>,
    /// Number of local training samples.
    pub num_samples: usize,
    /// Number of local SGD steps actually taken (partial updates take
    /// fewer).
    pub local_steps: usize,
}

/// The server-side aggregation rule (plus the client-side objective it
/// implies).
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub enum AggregationAlgorithm {
    /// FedAvg (McMahan et al.): sample-weighted averaging of deltas.
    /// Stragglers past the round deadline are dropped.
    #[default]
    FedAvg,
    /// FedProx (Li et al.): FedAvg aggregation plus a client-side proximal
    /// term `µ/2‖w − w_global‖²`; accepts partial updates from stragglers.
    FedProx {
        /// Proximal coefficient µ.
        mu: f32,
    },
    /// FedNova (Wang et al.): normalises each client's delta by its number
    /// of local steps before averaging, removing objective inconsistency
    /// from heterogeneous step counts; accepts partial updates.
    FedNova,
    /// FEDL (Dinh et al.): clients solve a local approximation controlled
    /// by `eta`; aggregation averages the approximate solutions; accepts
    /// partial updates.
    Fedl {
        /// Local approximation accuracy parameter η.
        eta: f32,
    },
    /// Coordinate-wise median (robust): each global coordinate moves by
    /// the median of the submitted deltas at that coordinate, ignoring
    /// sample weights. Tolerates up to half the cohort sending arbitrary
    /// values per coordinate.
    Median,
    /// Coordinate-wise trimmed mean (robust): per coordinate, the
    /// `⌊trim·n⌋` lowest and highest values are discarded and the rest
    /// are sample-weight averaged with the surviving weight mass
    /// renormalised. `trim = 0` keeps every value and is bit-identical
    /// to FedAvg.
    TrimmedMean {
        /// Fraction of updates trimmed from *each* end per coordinate,
        /// in `[0, 0.5)`.
        trim: f64,
    },
    /// Krum (Blanchard et al.): selects the single submitted update whose
    /// summed squared distance to its closest peers is smallest and
    /// applies it verbatim. Scores every update against every other, so
    /// it is flat-only (`shards` must stay 1; validation enforces this).
    Krum,
}

impl AggregationAlgorithm {
    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            AggregationAlgorithm::FedAvg => "FedAvg",
            AggregationAlgorithm::FedProx { .. } => "FedProx",
            AggregationAlgorithm::FedNova => "FedNova",
            AggregationAlgorithm::Fedl { .. } => "FEDL",
            AggregationAlgorithm::Median => "Median",
            AggregationAlgorithm::TrimmedMean { .. } => "TrimmedMean",
            AggregationAlgorithm::Krum => "Krum",
        }
    }

    /// Whether stragglers may submit partial updates (fewer local steps)
    /// instead of being dropped. Only classic FedAvg drops them; the
    /// robust aggregators tolerate shrunken updates by construction
    /// (order statistics treat them as any other value).
    pub fn accepts_partial_updates(&self) -> bool {
        !matches!(self, AggregationAlgorithm::FedAvg)
    }

    /// How strongly the algorithm suppresses the harm of heterogeneous
    /// (non-IID, uneven-step) updates, in `[0, 1]`. Consumed by the
    /// surrogate accuracy engine; 0 means fully exposed (FedAvg).
    ///
    /// Ordering follows the paper's Section 6.3: FedNova and FEDL are
    /// "robust to data heterogeneity by giving less weight to gradient
    /// updates from non-IID devices", with FedNova slightly ahead. The
    /// order-statistics aggregators damp outlier *coordinates*, which
    /// helps moderately against skew; Krum keeps a single client's
    /// update per round and therefore averages nothing away.
    pub fn heterogeneity_robustness(&self) -> f64 {
        match self {
            AggregationAlgorithm::FedAvg => 0.0,
            AggregationAlgorithm::FedProx { .. } => 0.40,
            AggregationAlgorithm::FedNova => 0.55,
            AggregationAlgorithm::Fedl { .. } => 0.50,
            AggregationAlgorithm::Median => 0.45,
            AggregationAlgorithm::TrimmedMean { .. } => 0.35,
            AggregationAlgorithm::Krum => 0.15,
        }
    }

    /// How strongly the rule suppresses *actively poisoned* update mass
    /// (label-flipping, scaled gradients), in `[0, 1]`. Consumed by the
    /// surrogate's poison-impact term ([`crate::accuracy`]). The linear
    /// rules trust every update (0); median and Krum discard outliers
    /// almost entirely; the trimmed mean's defense grows with its trim
    /// fraction and vanishes at `trim = 0`, where it *is* FedAvg.
    pub fn poison_robustness(&self) -> f64 {
        match self {
            AggregationAlgorithm::FedAvg
            | AggregationAlgorithm::FedProx { .. }
            | AggregationAlgorithm::FedNova
            | AggregationAlgorithm::Fedl { .. } => 0.0,
            AggregationAlgorithm::Median => 0.85,
            AggregationAlgorithm::TrimmedMean { trim } => (2.0 * trim).clamp(0.0, 0.8),
            AggregationAlgorithm::Krum => 0.90,
        }
    }

    /// Whether [`AggregationAlgorithm::aggregate_sharded`] is bit-equal
    /// to the flat path at every shard count (an exact two-level combine
    /// exists). Flat-only rules are rejected by configuration validation
    /// when `shards > 1`.
    pub fn exact_sharded(&self) -> bool {
        !matches!(self, AggregationAlgorithm::Krum)
    }

    /// Applies the aggregation rule to the global parameter vector
    /// (single-shard [`AggregationAlgorithm::aggregate_sharded`]).
    ///
    /// # Panics
    ///
    /// Panics if any update's delta length differs from the global
    /// vector, or any delta term is non-finite.
    pub fn aggregate(&self, global: &mut [f32], updates: &[ClientUpdate]) {
        self.aggregate_sharded(global, updates, 1);
    }

    /// Two-level hierarchical aggregation: updates are grouped into
    /// `shards` contiguous ranges whose partials combine exactly, so the
    /// result is **bit-identical for every shard count** wherever
    /// [`AggregationAlgorithm::exact_sharded`] holds — `shards` tunes
    /// parallelism and the simulated server topology, never the model.
    /// Aggregating an empty cohort is a no-op.
    ///
    /// # Panics
    ///
    /// Panics if any update's delta length differs from the global
    /// vector, any delta term is non-finite, or a flat-only rule (Krum)
    /// is asked for `shards > 1`.
    pub fn aggregate_sharded(&self, global: &mut [f32], updates: &[ClientUpdate], shards: usize) {
        match *self {
            AggregationAlgorithm::FedAvg
            | AggregationAlgorithm::FedProx { .. }
            | AggregationAlgorithm::FedNova
            | AggregationAlgorithm::Fedl { .. } => linear_aggregate(*self, global, updates, shards),
            AggregationAlgorithm::Median => median_aggregate(global, updates),
            AggregationAlgorithm::TrimmedMean { trim } => {
                trimmed_mean_aggregate(trim, global, updates)
            }
            AggregationAlgorithm::Krum => krum_aggregate(global, updates, shards),
        }
    }
}

/// FedAvg-family sample-fraction weights, computed once over the full
/// cohort in update order — never per shard — so sharded aggregation
/// sees exactly the flat path's coefficients. Shared by the linear path
/// and the trimmed mean (whose `trim = 0` case must reproduce FedAvg bit
/// for bit).
fn sample_fraction_weights(updates: &[ClientUpdate]) -> Vec<f32> {
    let total: f64 = updates.iter().map(|u| u.num_samples as f64).sum();
    updates
        .iter()
        .map(|u| (u.num_samples as f64 / total) as f32)
        .collect()
}

fn assert_deltas_conform(global: &[f32], updates: &[ClientUpdate]) {
    for u in updates {
        assert_eq!(u.delta.len(), global.len(), "client delta length mismatch");
    }
}

/// The weighted-sum rules (FedAvg, FedProx, FedNova, FEDL) on the exact
/// hierarchical summation path: folds the cohort's weighted deltas into
/// `global` through `shards` exact partial sums, bit-identical at every
/// shard count.
fn linear_aggregate(
    spec: AggregationAlgorithm,
    global: &mut [f32],
    updates: &[ClientUpdate],
    shards: usize,
) {
    if updates.is_empty() {
        return;
    }
    assert_deltas_conform(global, updates);
    // The per-update aggregation weights this rule assigns (sample
    // fractions for FedAvg/FedProx/FEDL; step-normalised sample fractions
    // rescaled by the effective step count for FedNova).
    let weights = match spec {
        AggregationAlgorithm::FedNova => {
            // Normalise by local steps, then re-scale by the effective
            // step count so the update magnitude matches homogeneous
            // FedAvg: Δ = τ_eff · Σ p_i · (Δ_i / τ_i).
            let total: f64 = updates.iter().map(|u| u.num_samples as f64).sum();
            let tau_eff: f64 = updates
                .iter()
                .map(|u| u.num_samples as f64 / total * u.local_steps.max(1) as f64)
                .sum();
            updates
                .iter()
                .map(|u| {
                    (u.num_samples as f64 / total * tau_eff / u.local_steps.max(1) as f64) as f32
                })
                .collect()
        }
        _ => sample_fraction_weights(updates),
    };
    // Per-shard partial aggregates, fanned out across the pool. The term
    // `w · d` is rounded to f32 exactly as the flat inner loop would
    // compute it, so grouping cannot change the terms — and the exact
    // accumulator means grouping cannot change their sum.
    let extents = shard_extents(updates.len(), shards);
    let mut partials: Vec<Vec<ExactF32Sum>> = extents
        .par_iter()
        .map(|&(offset, len)| {
            let mut acc = vec![ExactF32Sum::default(); global.len()];
            for u in offset..offset + len {
                let w = weights[u];
                for (a, d) in acc.iter_mut().zip(updates[u].delta.iter()) {
                    a.add(w * d);
                }
            }
            acc
        })
        .collect();
    // Global combine: exact merge in shard order (any order would give
    // the same bits — integer addition commutes).
    let mut combined = partials.swap_remove(0);
    for partial in &partials {
        for (a, b) in combined.iter_mut().zip(partial.iter()) {
            a.merge(b);
        }
    }
    for (g, a) in global.iter_mut().zip(combined.iter()) {
        *g = (f64::from(*g) + a.to_f64()) as f32;
    }
}

/// Coordinate-wise median: moves each coordinate of `global` by the
/// median of the submitted deltas at that coordinate. The per-shard
/// partial is the multiset of submitted values itself — concatenation is
/// an exact combine — so this sorts each coordinate's full column
/// directly and is bit-identical at every shard count; parallelism fans
/// out across coordinates instead of shards.
fn median_aggregate(global: &mut [f32], updates: &[ClientUpdate]) {
    if updates.is_empty() {
        return;
    }
    assert_deltas_conform(global, updates);
    let n = updates.len();
    let steps: Vec<f32> = (0..global.len())
        .into_par_iter()
        .with_min_len(256)
        .map(|j| {
            let mut column: Vec<f32> = updates
                .iter()
                .map(|u| {
                    let v = u.delta[j];
                    assert!(v.is_finite(), "median aggregation requires finite deltas");
                    v
                })
                .collect();
            // A total order makes the result permutation-invariant.
            column.sort_by(f32::total_cmp);
            if n % 2 == 1 {
                column[n / 2]
            } else {
                ((f64::from(column[n / 2 - 1]) + f64::from(column[n / 2])) / 2.0) as f32
            }
        })
        .collect();
    for (g, s) in global.iter_mut().zip(steps.iter()) {
        *g = (f64::from(*g) + f64::from(*s)) as f32;
    }
}

/// Coordinate-wise trimmed mean: moves each coordinate of `global` by the
/// weighted mean of the deltas left after trimming the `⌊trim·n⌋` lowest
/// and highest at that coordinate (`trim` in `[0, 0.5)`). Like the
/// median, the exact per-shard partial is the raw value multiset, so the
/// flat statistic is computed directly at every shard count. The
/// surviving values are summed with FedAvg's sample-fraction weights on
/// the exact accumulator, and the trimmed-away weight mass is
/// renormalised back in; with `trim = 0` nothing is trimmed, the
/// renormalisation factor is exactly `1.0`, and the result is
/// bit-identical to FedAvg.
fn trimmed_mean_aggregate(trim: f64, global: &mut [f32], updates: &[ClientUpdate]) {
    if updates.is_empty() {
        return;
    }
    assert_deltas_conform(global, updates);
    let n = updates.len();
    // Validation pins trim < 0.5, so 2k < n and at least one value
    // survives per coordinate.
    let k = (trim * n as f64).floor() as usize;
    let weights = sample_fraction_weights(updates);
    let total_w: f64 = weights.iter().copied().map(f64::from).sum();
    let steps: Vec<f64> = (0..global.len())
        .into_par_iter()
        .with_min_len(256)
        .map(|j| {
            let mut column: Vec<(f32, usize)> = updates
                .iter()
                .enumerate()
                .map(|(u, upd)| {
                    let v = upd.delta[j];
                    assert!(v.is_finite(), "trimmed mean requires finite deltas");
                    (v, u)
                })
                .collect();
            column.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
            // Sum the kept terms in *update* order (not sorted order): at
            // trim = 0 this is term-for-term the FedAvg inner loop.
            let mut kept: Vec<usize> = column[k..n - k].iter().map(|&(_, u)| u).collect();
            kept.sort_unstable();
            let mut acc = ExactF32Sum::default();
            let mut kept_w = 0.0f64;
            for &u in &kept {
                acc.add(weights[u] * updates[u].delta[j]);
                kept_w += f64::from(weights[u]);
            }
            // Renormalise the surviving weight mass. With nothing trimmed
            // `kept_w` is the same f64 sum as `total_w`, the factor is
            // exactly 1.0 and the multiply is a bit-exact no-op — the
            // FedAvg-equality contract.
            acc.to_f64() * (total_w / kept_w)
        })
        .collect();
    for (g, s) in global.iter_mut().zip(steps.iter()) {
        *g = (f64::from(*g) + s) as f32;
    }
}

/// Index of the update Krum selects: it scores every update by the
/// summed squared distance to its `n − f − 2` nearest peers (with
/// `f = ⌊(n−1)/3⌋` assumed Byzantine) and picks the lowest score (ties
/// go to the lowest index).
///
/// # Panics
///
/// Panics on an empty cohort.
pub fn krum_select(updates: &[ClientUpdate]) -> usize {
    let n = updates.len();
    assert!(n > 0, "Krum selection needs at least one update");
    if n == 1 {
        return 0;
    }
    let f = (n - 1) / 3;
    let neighbours = n.saturating_sub(f + 2).max(1).min(n - 1);
    // Pairwise squared L2 distances, accumulated in coordinate order
    // (f64) — deterministic and symmetric.
    let mut d2 = vec![0.0f64; n * n];
    for i in 0..n {
        for j in i + 1..n {
            let d: f64 = updates[i]
                .delta
                .iter()
                .zip(updates[j].delta.iter())
                .map(|(a, b)| {
                    let diff = f64::from(*a) - f64::from(*b);
                    diff * diff
                })
                .sum();
            d2[i * n + j] = d;
            d2[j * n + i] = d;
        }
    }
    let mut best = 0usize;
    let mut best_score = f64::INFINITY;
    let mut nearest: Vec<f64> = Vec::with_capacity(n - 1);
    for i in 0..n {
        nearest.clear();
        nearest.extend((0..n).filter(|&j| j != i).map(|j| d2[i * n + j]));
        nearest.sort_by(f64::total_cmp);
        let score: f64 = nearest[..neighbours].iter().sum();
        if score < best_score {
            best_score = score;
            best = i;
        }
    }
    best
}

/// Krum: applies the [`krum_select`]ed update to `global` verbatim, so
/// the output is always one of the submitted deltas. Flat-only: the
/// pairwise score matrix has no exact per-shard partial.
///
/// # Panics
///
/// Panics if `shards > 1`.
fn krum_aggregate(global: &mut [f32], updates: &[ClientUpdate], shards: usize) {
    assert!(
        shards <= 1,
        "Krum is flat-only: no exact per-shard partial exists \
         (configuration validation rejects shards > 1)"
    );
    if updates.is_empty() {
        return;
    }
    assert_deltas_conform(global, updates);
    for u in updates {
        for v in &u.delta {
            assert!(v.is_finite(), "Krum requires finite deltas");
        }
    }
    let chosen = krum_select(updates);
    for (g, d) in global.iter_mut().zip(updates[chosen].delta.iter()) {
        *g = (f64::from(*g) + f64::from(*d)) as f32;
    }
}

/// Number of 64-bit digit windows an [`ExactF32Sum`] spans: the scaled
/// `f32` integer range is 278 bits (24-bit significands shifted by up to
/// 254 exponent steps), so five windows hold every term with headroom for
/// trillions of additions before any digit could saturate.
const ACC_DIGITS: usize = 5;

/// An exact accumulator for sums of finite `f32` values.
///
/// Every `f32` is an integer multiple of `2⁻¹⁴⁹`; the accumulator stores
/// the running sum as that integer, split into 64-bit digit windows held
/// in `i128` lanes (so carries never need propagating during
/// accumulation). Addition of integers is associative and commutative,
/// which is the property hierarchical aggregation needs: *any* grouping
/// of the same terms produces the same accumulated value, bit for bit.
/// [`ExactF32Sum::to_f64`] rounds the exact integer back to the nearest
/// representable `f64` once, at the end.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ExactF32Sum {
    digits: [i128; ACC_DIGITS],
}

impl ExactF32Sum {
    /// Adds one term exactly.
    ///
    /// # Panics
    ///
    /// Panics on a non-finite term: infinities and NaNs have no integer
    /// representation, and silently poisoning an exact sum would defeat
    /// its purpose. (Client deltas are gradient-clipped upstream, so a
    /// non-finite term is always a bug.)
    #[inline]
    pub fn add(&mut self, term: f32) {
        assert!(term.is_finite(), "exact summation requires finite terms");
        if term == 0.0 {
            return;
        }
        let bits = term.to_bits();
        let exp = (bits >> 23) & 0xff;
        let frac = bits & 0x7f_ffff;
        // value = m · 2^(shift − 149): normals carry the implicit bit and
        // a biased exponent; subnormals are already plain integers.
        let (m, shift) = if exp == 0 {
            (u128::from(frac), 0u32)
        } else {
            (u128::from(frac | 0x80_0000), exp - 1)
        };
        let digit = (shift / 64) as usize;
        let wide = m << (shift % 64); // ≤ 2^87, fits u128
        let lo = (wide & u128::from(u64::MAX)) as i128;
        let hi = (wide >> 64) as i128;
        if bits >> 31 == 1 {
            self.digits[digit] -= lo;
            self.digits[digit + 1] -= hi;
        } else {
            self.digits[digit] += lo;
            self.digits[digit + 1] += hi;
        }
    }

    /// Merges another accumulator into this one — exact, so the merge
    /// order can never matter.
    #[inline]
    pub fn merge(&mut self, other: &ExactF32Sum) {
        for (a, b) in self.digits.iter_mut().zip(other.digits.iter()) {
            *a += b;
        }
    }

    /// Rounds the exact sum to `f64`.
    ///
    /// The digit lanes are first normalised (carries propagated, a global
    /// sign extracted) so the conversion is a monotone Horner walk over
    /// same-sign digits — no catastrophic cancellation between lanes. The
    /// result is a pure function of the exact integer value.
    pub fn to_f64(&self) -> f64 {
        let mut digits = self.digits;
        carry_propagate(&mut digits);
        let negative = digits[ACC_DIGITS - 1] < 0;
        if negative {
            for d in digits.iter_mut() {
                *d = -*d;
            }
            carry_propagate(&mut digits);
        }
        let mut magnitude = 0.0f64;
        for &d in digits.iter().rev() {
            magnitude = magnitude * 1.844_674_407_370_955_2e19 + d as f64; // · 2^64
        }
        let value = magnitude * 2.0f64.powi(-149);
        if negative {
            -value
        } else {
            value
        }
    }
}

/// Normalises digit lanes so every lane but the last lies in
/// `[0, 2^64)`; the top lane carries the sign.
fn carry_propagate(digits: &mut [i128; ACC_DIGITS]) {
    for i in 0..ACC_DIGITS - 1 {
        let carry = digits[i] >> 64; // arithmetic shift: floor division
        digits[i] -= carry << 64;
        digits[i + 1] += carry;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn update(delta: Vec<f32>, samples: usize, steps: usize) -> ClientUpdate {
        ClientUpdate {
            delta,
            num_samples: samples,
            local_steps: steps,
        }
    }

    #[test]
    fn fedavg_weights_by_samples() {
        let mut global = vec![0.0f32; 2];
        AggregationAlgorithm::FedAvg.aggregate(
            &mut global,
            &[
                update(vec![1.0, 0.0], 30, 10),
                update(vec![0.0, 1.0], 10, 10),
            ],
        );
        assert!((global[0] - 0.75).abs() < 1e-6);
        assert!((global[1] - 0.25).abs() < 1e-6);
    }

    #[test]
    fn fednova_equalises_unequal_steps() {
        // Two clients with equal data but one ran 4x the steps (and thus a
        // ~4x delta). FedNova should not let the long-runner dominate.
        let mut nova = vec![0.0f32; 1];
        AggregationAlgorithm::FedNova.aggregate(
            &mut nova,
            &[update(vec![4.0], 10, 40), update(vec![1.0], 10, 10)],
        );
        let mut avg = vec![0.0f32; 1];
        AggregationAlgorithm::FedAvg.aggregate(
            &mut avg,
            &[update(vec![4.0], 10, 40), update(vec![1.0], 10, 10)],
        );
        // FedAvg sees (4+1)/2 = 2.5; FedNova sees per-step 0.1 each,
        // tau_eff = 25 -> 2.5... with equal per-step progress they agree;
        // the difference appears when per-step progress is unequal.
        assert!((avg[0] - 2.5).abs() < 1e-6);
        assert!((nova[0] - 2.5).abs() < 1e-6);

        // Unequal per-step progress: straggler contributed 10 of 40 steps.
        let mut nova2 = vec![0.0f32; 1];
        AggregationAlgorithm::FedNova.aggregate(
            &mut nova2,
            &[update(vec![1.0], 10, 10), update(vec![4.0], 10, 40)],
        );
        let mut avg2 = vec![0.0f32; 1];
        AggregationAlgorithm::FedAvg.aggregate(
            &mut avg2,
            &[update(vec![1.0], 10, 10), update(vec![4.0], 10, 40)],
        );
        assert_eq!(nova2, nova);
        assert_eq!(avg2, avg);
    }

    #[test]
    fn fednova_normalised_direction_is_step_fair() {
        // One client took 1 step of size 1, another 100 steps totalling 1.
        // FedNova weights their *per-step* progress equally.
        let mut nova = vec![0.0f32; 1];
        AggregationAlgorithm::FedNova.aggregate(
            &mut nova,
            &[update(vec![1.0], 10, 1), update(vec![1.0], 10, 100)],
        );
        // per-step: 1.0 and 0.01; tau_eff = 50.5; delta = 50.5*(0.5*1 + 0.5*0.01) = 25.5
        assert!((nova[0] - 25.502_5).abs() < 1e-3, "got {}", nova[0]);
    }

    #[test]
    fn partial_update_policy_matches_paper() {
        assert!(!AggregationAlgorithm::FedAvg.accepts_partial_updates());
        assert!(AggregationAlgorithm::FedNova.accepts_partial_updates());
        assert!(AggregationAlgorithm::FedProx { mu: 0.01 }.accepts_partial_updates());
        assert!(AggregationAlgorithm::Fedl { eta: 0.1 }.accepts_partial_updates());
        assert!(AggregationAlgorithm::Median.accepts_partial_updates());
        assert!(AggregationAlgorithm::Krum.accepts_partial_updates());
    }

    #[test]
    fn empty_round_is_a_no_op() {
        for algorithm in [
            AggregationAlgorithm::FedAvg,
            AggregationAlgorithm::Median,
            AggregationAlgorithm::TrimmedMean { trim: 0.2 },
            AggregationAlgorithm::Krum,
        ] {
            let mut global = vec![1.0f32, 2.0];
            algorithm.aggregate(&mut global, &[]);
            assert_eq!(global, vec![1.0, 2.0], "{}", algorithm.name());
        }
    }

    #[test]
    fn exact_sum_is_order_and_grouping_invariant() {
        // Terms engineered so floating-point addition order matters:
        // a plain f32/f64 left fold gives different results for the two
        // orders; the exact accumulator must not.
        let terms = [
            1.0e30f32,
            -1.0e30,
            1.5e-40, // subnormal
            3.25,
            -7.125e10,
            1.0e-20,
            f32::MAX / 4.0,
            -f32::MAX / 4.0,
        ];
        let mut fwd = ExactF32Sum::default();
        for t in terms {
            fwd.add(t);
        }
        let mut rev = ExactF32Sum::default();
        for t in terms.iter().rev() {
            rev.add(*t);
        }
        assert_eq!(fwd, rev);
        // Grouped: two partials merged.
        let mut a = ExactF32Sum::default();
        let mut b = ExactF32Sum::default();
        for (i, t) in terms.iter().enumerate() {
            if i % 2 == 0 {
                a.add(*t);
            } else {
                b.add(*t);
            }
        }
        a.merge(&b);
        assert_eq!(a, fwd);
        assert_eq!(a.to_f64().to_bits(), fwd.to_f64().to_bits());
    }

    #[test]
    fn exact_sum_survives_catastrophic_cancellation() {
        // f32::MAX/2 − f32::MAX/2 + tiny: a float accumulator visiting
        // the large terms first loses `tiny` entirely only if it rounds;
        // the exact path recovers it regardless of order.
        let tiny = 1.0e-42f32; // subnormal
        let mut acc = ExactF32Sum::default();
        acc.add(f32::MAX / 2.0);
        acc.add(tiny);
        acc.add(-f32::MAX / 2.0);
        assert_eq!(acc.to_f64(), f64::from(tiny));
        // Exact negative values round-trip through the sign handling.
        let mut neg = ExactF32Sum::default();
        neg.add(-3.5);
        neg.add(1.25);
        assert_eq!(neg.to_f64(), -2.25);
        assert_eq!(ExactF32Sum::default().to_f64(), 0.0);
    }

    #[test]
    #[should_panic(expected = "finite terms")]
    fn exact_sum_rejects_non_finite_terms() {
        ExactF32Sum::default().add(f32::NAN);
    }

    #[test]
    fn sharded_aggregation_matches_flat_for_every_shard_count() {
        let updates: Vec<ClientUpdate> = (0..13)
            .map(|i| {
                update(
                    (0..9)
                        .map(|j| ((i * 31 + j * 17) % 23) as f32 * 0.37 - 4.0)
                        .collect(),
                    10 + i * 3,
                    1 + (i % 5),
                )
            })
            .collect();
        for algorithm in [
            AggregationAlgorithm::FedAvg,
            AggregationAlgorithm::FedNova,
            AggregationAlgorithm::FedProx { mu: 0.01 },
            AggregationAlgorithm::Median,
            AggregationAlgorithm::TrimmedMean { trim: 0.0 },
            AggregationAlgorithm::TrimmedMean { trim: 0.3 },
        ] {
            let mut flat = vec![0.5f32; 9];
            algorithm.aggregate(&mut flat, &updates);
            for shards in [2, 3, 5, 13, 40] {
                let mut sharded = vec![0.5f32; 9];
                algorithm.aggregate_sharded(&mut sharded, &updates, shards);
                let flat_bits: Vec<u32> = flat.iter().map(|v| v.to_bits()).collect();
                let sharded_bits: Vec<u32> = sharded.iter().map(|v| v.to_bits()).collect();
                assert_eq!(flat_bits, sharded_bits, "{} at {shards}", algorithm.name());
            }
        }
    }

    #[test]
    fn median_resists_a_poisoned_minority() {
        // Three honest clients push +1, two attackers push -100: the
        // mean is dragged far negative, the median stays at +1.
        let updates: Vec<ClientUpdate> = [1.0f32, 1.0, 1.0, -100.0, -100.0]
            .iter()
            .map(|&v| update(vec![v], 10, 5))
            .collect();
        let mut median = vec![0.0f32; 1];
        AggregationAlgorithm::Median.aggregate(&mut median, &updates);
        assert_eq!(median[0], 1.0);
        let mut mean = vec![0.0f32; 1];
        AggregationAlgorithm::FedAvg.aggregate(&mut mean, &updates);
        assert!(mean[0] < -30.0, "FedAvg should be dragged, got {}", mean[0]);
    }

    #[test]
    fn median_of_even_cohort_is_the_midpoint() {
        let updates: Vec<ClientUpdate> = [2.0f32, 4.0, -10.0, 100.0]
            .iter()
            .map(|&v| update(vec![v], 10, 5))
            .collect();
        let mut g = vec![0.0f32; 1];
        AggregationAlgorithm::Median.aggregate(&mut g, &updates);
        assert_eq!(g[0], 3.0);
    }

    #[test]
    fn trimmed_mean_discards_the_tails() {
        // trim = 0.25 over 4 updates cuts one value from each end.
        let updates: Vec<ClientUpdate> = [1.0f32, 2.0, 3.0, 1000.0]
            .iter()
            .map(|&v| update(vec![v], 10, 5))
            .collect();
        let mut g = vec![0.0f32; 1];
        AggregationAlgorithm::TrimmedMean { trim: 0.25 }.aggregate(&mut g, &updates);
        // Kept: 2.0 and 3.0 with equal weights -> 2.5.
        assert!((g[0] - 2.5).abs() < 1e-6, "got {}", g[0]);
    }

    #[test]
    fn trimmed_mean_at_zero_is_fedavg_bit_for_bit() {
        let updates: Vec<ClientUpdate> = (0..7)
            .map(|i| {
                update(
                    (0..5)
                        .map(|j| ((i * 13 + j * 7) % 11) as f32 * 0.21 - 1.0)
                        .collect(),
                    5 + i * 2,
                    3,
                )
            })
            .collect();
        let mut avg = vec![0.25f32; 5];
        AggregationAlgorithm::FedAvg.aggregate(&mut avg, &updates);
        let mut trimmed = vec![0.25f32; 5];
        AggregationAlgorithm::TrimmedMean { trim: 0.0 }.aggregate(&mut trimmed, &updates);
        let a: Vec<u32> = avg.iter().map(|v| v.to_bits()).collect();
        let b: Vec<u32> = trimmed.iter().map(|v| v.to_bits()).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn krum_applies_one_submitted_update_verbatim() {
        // A tight honest cluster and one far-away attacker: Krum must
        // pick a cluster member and apply its delta exactly.
        let updates = vec![
            update(vec![1.0, 1.1], 10, 5),
            update(vec![1.1, 0.9], 10, 5),
            update(vec![0.9, 1.0], 10, 5),
            update(vec![50.0, -50.0], 10, 5),
        ];
        let chosen = krum_select(&updates);
        assert!(chosen < 3, "Krum picked the attacker ({chosen})");
        let mut g = vec![0.0f32; 2];
        AggregationAlgorithm::Krum.aggregate(&mut g, &updates);
        for (a, b) in g.iter().zip(updates[chosen].delta.iter()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    #[should_panic(expected = "flat-only")]
    fn krum_rejects_sharded_aggregation() {
        let updates = vec![update(vec![1.0], 10, 5)];
        let mut g = vec![0.0f32; 1];
        AggregationAlgorithm::Krum.aggregate_sharded(&mut g, &updates, 2);
    }
}
