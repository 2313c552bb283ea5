//! Stochastic fleet dynamics: battery, thermal, churn and mid-round
//! dropout, stored as a sharded structure-of-arrays [`FleetStore`].
//!
//! Production FL fleets are unstable — devices are only eligible while
//! idle, charging (or sufficiently charged) and connected; sustained
//! training heats the SoC until the governor throttles it; and selected
//! participants can vanish mid-round when their battery dies or their
//! network drops. [`FleetDynamics`] is the configuration block
//! (`SimConfig::fleet`, off by default) that switches those effects on;
//! [`FleetStore`] carries the per-device lifecycle state across rounds.
//!
//! At million-device fleet sizes the store keeps each lifecycle field
//! (state of charge, throttle, session flags) in its own array, sharded
//! into contiguous device ranges (`SimConfig::shards`) so one parallel
//! task owns one shard outright. Sharding never changes results: every
//! per-round coin is drawn from a per-device RNG stream seeded
//! `(seed, tag, round, id)` with the device's *global* id — the same rule
//! as [`VarianceScenario::sample_device`](autofl_device::scenario::VarianceScenario::sample_device)
//! — and all cross-shard reductions are integer counts, so trajectories
//! are bit-identical at any shard and thread count (pinned by
//! `tests/scale_invariance.rs`).
//!
//! The round engine pairs the dynamics with a [`StragglerPolicy`]
//! deciding what happens to participants that miss the deadline or drop
//! out: cut them at the deadline (`Drop`), wait a bounded grace factor
//! (`WaitBounded`), or over-provision the selection (`OverSelect`) so the
//! surviving cohort still reaches `K`. Partial FedAvg aggregation is
//! reweighted over the survivors through the effective sample masses the
//! engine feeds to `CohortStats`; [`survivor_weights`] is the canonical
//! normalised form of those masses (summing to exactly 1.0), asserted on
//! the engine's aggregation path in debug builds and pinned bit-exact by
//! property tests.

use autofl_device::fleet::{DeviceId, Fleet};
use autofl_device::store::{shard_extents, shard_size};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use rayon::prelude::*;
use serde::{Deserialize, Serialize};

/// How the round engine treats participants that miss the deadline
/// (stragglers) on top of mid-round dropouts.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub enum StragglerPolicy {
    /// Cut stragglers at the deadline — FedAvg's conventional behaviour
    /// (partial-update algorithms still keep their partial work).
    #[default]
    Drop,
    /// Wait up to `grace × deadline` for stragglers before cutting them:
    /// fewer lost updates, longer (and more energy-hungry) rounds.
    WaitBounded {
        /// Multiplier (≥ 1) on the nominal straggler deadline.
        grace: f64,
    },
    /// Select `K + extra` participants so that the expected survivor
    /// count stays near `K` under dropout, at the cost of extra active
    /// energy.
    OverSelect {
        /// Additional participants selected beyond `K`.
        extra: usize,
    },
}

impl StragglerPolicy {
    /// Short label used in reports.
    pub fn name(&self) -> String {
        match self {
            StragglerPolicy::Drop => "Drop".to_string(),
            StragglerPolicy::WaitBounded { grace } => format!("Wait({grace})"),
            StragglerPolicy::OverSelect { extra } => format!("OverSelect(K+{extra})"),
        }
    }
}

/// The `fleet` block of [`crate::engine::SimConfig`]: per-round lifecycle
/// dynamics of the device fleet. `None` (the default) reproduces the
/// static fleet bit for bit.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetDynamics {
    /// Lower bound of the initial per-device state of charge.
    pub initial_soc_min: f64,
    /// Upper bound of the initial per-device state of charge.
    pub initial_soc_max: f64,
    /// Per-round probability an unplugged device gets plugged in.
    pub charge_prob: f64,
    /// State of charge gained per simulated second while plugged in.
    pub charge_rate_per_s: f64,
    /// State of charge lost per simulated second while idle and
    /// unplugged.
    pub idle_drain_per_s: f64,
    /// Multiplier on each tier's nominal battery capacity
    /// ([`autofl_device::tier::DeviceTier::battery_capacity_j`]); values
    /// below 1 make training drain (and kill) batteries faster.
    pub battery_capacity_scale: f64,
    /// Minimum state of charge for an unplugged device to be eligible
    /// (the production check-in rule's battery gate).
    pub min_soc: f64,
    /// State of charge at which a training device dies mid-round.
    pub reserve_soc: f64,
    /// Per-round base probability of a foreground user session (scaled by
    /// each device's interference propensity).
    pub foreground_prob: f64,
    /// Per-round base probability of being offline (scaled by each
    /// device's weak-signal propensity).
    pub offline_prob: f64,
    /// Per-round base probability that a selected participant loses
    /// connectivity mid-round (scaled by its weak-signal propensity).
    pub mid_round_drop_prob: f64,
    /// Thermal throttle gained per second of training.
    pub heat_per_s: f64,
    /// Thermal throttle shed per second while not training.
    pub cool_per_s: f64,
    /// Straggler / dropout handling at aggregation.
    pub straggler: StragglerPolicy,
}

impl Default for FleetDynamics {
    fn default() -> Self {
        FleetDynamics::realistic()
    }
}

impl FleetDynamics {
    /// An in-the-field default: most devices healthy, a noticeable
    /// minority churning, moderate mid-round dropout.
    pub fn realistic() -> Self {
        FleetDynamics {
            initial_soc_min: 0.25,
            initial_soc_max: 1.0,
            charge_prob: 0.35,
            charge_rate_per_s: 4e-4,
            idle_drain_per_s: 2e-5,
            battery_capacity_scale: 1.0,
            min_soc: 0.20,
            reserve_soc: 0.05,
            foreground_prob: 0.15,
            offline_prob: 0.10,
            mid_round_drop_prob: 0.05,
            heat_per_s: 4e-3,
            cool_per_s: 1e-2,
            straggler: StragglerPolicy::Drop,
        }
    }

    /// The realistic profile with the churn knobs scaled to a target
    /// mid-round dropout rate (the x-axis of the `fig16` sweep in
    /// `autofl_bench::figures`).
    pub fn with_dropout_rate(rate: f64) -> Self {
        FleetDynamics {
            mid_round_drop_prob: rate,
            offline_prob: (rate * 0.5).min(1.0),
            ..FleetDynamics::realistic()
        }
    }

    /// Returns `self` with a different straggler policy (builder-style).
    #[must_use]
    pub fn straggler(mut self, policy: StragglerPolicy) -> Self {
        self.straggler = policy;
        self
    }
}

/// What the round engine (and every selection policy through
/// [`crate::selection::RoundContext::availability`]) knows about one
/// device's availability at the start of a round.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DeviceAvailability {
    /// Whether the device passes the check-in rule and may be selected.
    pub eligible: bool,
    /// Battery state of charge in `[0, 1]`.
    pub soc: f64,
    /// Thermal throttle level in `[0, 1]`.
    pub throttle: f64,
    /// Whether the device is plugged in.
    pub charging: bool,
    /// Whether a foreground user session is active.
    pub foreground: bool,
    /// Whether the device has connectivity.
    pub online: bool,
}

impl DeviceAvailability {
    /// A fully available device — what every device reports when the
    /// fleet block is disabled.
    pub fn ideal() -> Self {
        DeviceAvailability {
            eligible: true,
            soc: 1.0,
            throttle: 0.0,
            charging: false,
            foreground: false,
            online: true,
        }
    }
}

/// Session stickiness: probability of *staying* plugged in, in a
/// foreground session, or offline from one round to the next. Charging
/// and user sessions span several rounds rather than flickering per
/// round, which is what gives an adaptive selector a signal to learn.
const STAY_CHARGING: f64 = 0.70;
const STAY_FOREGROUND: f64 = 0.40;
const STAY_OFFLINE: f64 = 0.30;

/// Mixes a stream tag into per-device seeds (SplitMix64 finalizer — the
/// same construction as the engine's condition streams, with distinct
/// tags so lifecycle coins, dropout draws and condition samples never
/// share a stream).
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Seed of device `id`'s RNG stream for `(tag, round)`.
pub(crate) fn device_stream_seed(seed: u64, tag: u64, round: u64, id: usize) -> u64 {
    mix(seed
        .wrapping_add(tag)
        .wrapping_add(round.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        ^ (id as u64).wrapping_mul(0xd1b5_4a32_d192_ed03))
}

const TAG_INIT: u64 = 0x11fe;
const TAG_ROUND: u64 = 0x10fe;
const TAG_DROP: u64 = 0xd109;
const TAG_SHADOW: u64 = 0x5ad0;
/// Per-device link draws (latency + message loss) of the network fabric.
pub(crate) const TAG_NET: u64 = 0x7e70;
/// Stochastic-rounding streams of the int8 update codecs
/// (`CodecSpec::Int8Quant`, `CodecSpec::TopKInt8`).
pub(crate) const TAG_CODEC: u64 = 0xc0de;
/// Adversary subsystem streams: role assignment (round key 0) and
/// per-round misbehaviour draws (round key `round + 1`) — see
/// [`crate::adversary`].
pub(crate) const TAG_ADV: u64 = 0xadfe;

/// Seed of a shadow selector's per-round RNG stream (`TAG_SHADOW`).
///
/// A shadow selector — asked what it *would* decide on a round's context
/// without executing it, like the Figure 12 oracle — draws from its own
/// tagged stream so it can never perturb the main run's RNG; routing it
/// through the same `(seed, tag, round, id)` construction as every other
/// stream keeps the seeds collision-free across `(seed, round)` pairs
/// (the previous ad-hoc `seed ^ round * constant` mix collided whenever
/// two pairs XOR-ed to the same value, e.g. any round 0 against any
/// seed).
pub fn shadow_stream_seed(seed: u64, round: usize) -> u64 {
    device_stream_seed(seed, TAG_SHADOW, round as u64, 0)
}

/// One contiguous range of devices' lifecycle state, one field per array.
/// Device `offset + j` lives at lane `j` of every array.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct FleetShard {
    offset: usize,
    soc: Vec<f64>,
    throttle: Vec<f64>,
    charging: Vec<bool>,
    foreground: Vec<bool>,
    online: Vec<bool>,
    eligible: Vec<bool>,
    eligible_count: usize,
}

impl FleetShard {
    fn len(&self) -> usize {
        self.soc.len()
    }
}

/// One shard's availability summary. [`AvailabilityView::eligible_ids`]
/// walks these instead of scanning every device (a bin with
/// `eligible == 0` is skipped outright), and the summed counts
/// ([`AvailabilityView::eligible_count`]) let large-fleet consumers —
/// the AutoFL controller's candidate buffer, the engine's ineligible
/// tally — size and account without a fleet scan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardBin {
    /// First global device id covered by the bin.
    pub offset: usize,
    /// Devices covered by the bin.
    pub len: usize,
    /// Check-in-eligible devices in the bin this round.
    pub eligible: usize,
}

/// The carried lifecycle state of every device — battery state of charge,
/// thermal throttle, session flags and check-in eligibility — as a
/// sharded structure-of-arrays, plus the seed its RNG streams derive
/// from.
///
/// The shard count is a layout/parallelism knob only: results are
/// bit-identical at any shard count because every stochastic draw comes
/// from a per-device stream keyed by the global device id.
///
/// A completed cohort's lifecycle update is *held* (at most one at a
/// time) and applied to each device at the head of the next
/// [`FleetStore::begin_round`], in the same pass that draws the new
/// sessions. [`FleetStore::end_round`] applies an update at once.
#[derive(Debug, Clone)]
pub struct FleetStore {
    seed: u64,
    len: usize,
    shard_size: usize,
    shards: Vec<FleetShard>,
    /// The held end-of-round update, if any; its participants are
    /// `members`.
    held: Option<RoundEnd>,
    /// The held update's participants, sorted by id. The buffer is
    /// reused from one hand-over to the next.
    members: Vec<Member>,
}

/// The per-pass constants of one completed round's lifecycle update,
/// each product formed once per pass.
#[derive(Debug, Clone, Copy)]
struct RoundEnd {
    round_time_s: f64,
    /// `charge_rate_per_s × round_time_s`: what a plugged-in device gains.
    charge: f64,
    /// `idle_drain_per_s × round_time_s`: what an idle unplugged device
    /// loses.
    drain: f64,
    /// `cool_per_s × round_time_s`: what an idle device sheds.
    cool: f64,
    heat_per_s: f64,
    cool_per_s: f64,
}

/// One participant of a held update: what its end-of-round update reads
/// besides its own lanes.
#[derive(Debug, Clone, Copy)]
struct Member {
    id: usize,
    busy_s: f64,
    energy_j: f64,
    /// `battery_capacity_j × battery_capacity_scale`, formed at hand-over.
    capacity_j: f64,
}

impl RoundEnd {
    /// Advances one device's `soc` and `throttle` over the round:
    /// `member` pays battery from its measured energy and heats for its
    /// busy seconds; every other device drains (or charges) and cools
    /// over the round duration. One clamp per device: a participant's
    /// net throttle change is computed before clamping, otherwise the
    /// clamp floor would eat the cooling term and credit spurious heat.
    #[inline(always)]
    fn apply(&self, member: Option<&Member>, charging: bool, soc: &mut f64, throttle: &mut f64) {
        match member {
            Some(m) => {
                if charging {
                    *soc += self.charge;
                } else {
                    *soc -= m.energy_j / m.capacity_j;
                }
                // Heats for its busy seconds, cools for the idle
                // remainder of the round.
                let busy = m.busy_s.min(self.round_time_s);
                *throttle += self.heat_per_s * busy - self.cool_per_s * (self.round_time_s - busy);
            }
            None => {
                // `soc + (−drain)` is `soc − drain` bit for bit, so the
                // charging branch is a select.
                *soc += if charging { self.charge } else { -self.drain };
                *throttle -= self.cool;
            }
        }
        *soc = soc.clamp(0.0, 1.0);
        *throttle = throttle.clamp(0.0, 1.0);
    }

    /// Applies the update to every lane of `shard`; `members` holds the
    /// update's participants sorted by id.
    fn settle(&self, members: &[Member], shard: &mut FleetShard) {
        let n = shard.len();
        let mut members = shard_members(members, shard).iter().peekable();
        let (soc, throttle, charging) = (
            &mut shard.soc[..n],
            &mut shard.throttle[..n],
            &shard.charging[..n],
        );
        for j in 0..n {
            let member = members.next_if(|m| m.id == shard.offset + j);
            self.apply(member, charging[j], &mut soc[j], &mut throttle[j]);
        }
    }
}

/// The production FL check-in rule over raw lifecycle fields: online,
/// not in a foreground session, and either plugged in or above
/// `min_soc`.
///
/// This is the single definition of eligibility, called by the
/// structure-of-arrays pass in [`FleetStore::begin_round`]. The operators
/// do not short-circuit, so the rule costs no branch in that per-device
/// loop.
#[inline]
fn check_in_eligible(
    online: bool,
    foreground: bool,
    charging: bool,
    soc: f64,
    min_soc: f64,
) -> bool {
    online & !foreground & (charging | (soc >= min_soc))
}

/// The run of `members` (sorted by id) that falls inside `shard`.
fn shard_members<'m>(members: &'m [Member], shard: &FleetShard) -> &'m [Member] {
    let lo = members.partition_point(|m| m.id < shard.offset);
    let hi = members.partition_point(|m| m.id < shard.offset + shard.len());
    &members[lo..hi]
}

impl FleetStore {
    /// Initial state for a fleet in `shards` contiguous extents:
    /// per-device SoC drawn uniformly from the configured range on stream
    /// `(seed, TAG_INIT, id)`; everyone cool, idle and online.
    pub fn new(config: &FleetDynamics, fleet: &Fleet, seed: u64, shards: usize) -> Self {
        let size = shard_size(fleet.len(), shards);
        let extents = shard_extents(fleet.len(), shards);
        let shards: Vec<FleetShard> = extents
            .into_iter()
            .map(|(offset, n)| {
                let mut soc = Vec::with_capacity(n);
                for j in 0..n {
                    let i = offset + j;
                    let mut rng = SmallRng::seed_from_u64(device_stream_seed(seed, TAG_INIT, 0, i));
                    soc.push(if config.initial_soc_max > config.initial_soc_min {
                        rng.gen_range(config.initial_soc_min..config.initial_soc_max)
                    } else {
                        config.initial_soc_min
                    });
                }
                FleetShard {
                    offset,
                    soc,
                    throttle: vec![0.0; n],
                    charging: vec![false; n],
                    foreground: vec![false; n],
                    online: vec![true; n],
                    eligible: vec![true; n],
                    eligible_count: n,
                }
            })
            .collect();
        FleetStore {
            seed,
            len: fleet.len(),
            shard_size: size,
            shards,
            held: None,
            members: Vec::new(),
        }
    }

    /// Number of devices covered.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the store covers no devices.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Shard and lane of device `i`. Every per-device reader goes
    /// through here, and the engine reads only after a begin pass, so a
    /// held update must not be pending: it would be read unapplied.
    #[inline]
    fn locate(&self, i: usize) -> (usize, usize) {
        debug_assert!(i < self.len, "device {i} outside store of {}", self.len);
        debug_assert!(
            self.held.is_none(),
            "device {i} read while an end-of-round update is held"
        );
        (i / self.shard_size, i % self.shard_size)
    }

    /// Materialises device `i`'s availability as of the last
    /// [`FleetStore::begin_round`].
    #[inline]
    pub fn availability(&self, i: usize) -> DeviceAvailability {
        let (s, j) = self.locate(i);
        let shard = &self.shards[s];
        DeviceAvailability {
            eligible: shard.eligible[j],
            soc: shard.soc[j],
            throttle: shard.throttle[j],
            charging: shard.charging[j],
            foreground: shard.foreground[j],
            online: shard.online[j],
        }
    }

    /// Device `i`'s thermal throttle level — the lifecycle field the cost
    /// model reads through [`crate::conditions::ConditionsView`].
    #[inline]
    pub(crate) fn throttle(&self, i: usize) -> f64 {
        let (s, j) = self.locate(i);
        self.shards[s].throttle[j]
    }

    /// Whether device `i` passed the last round's eligibility check-in.
    #[inline]
    pub fn is_eligible(&self, i: usize) -> bool {
        let (s, j) = self.locate(i);
        self.shards[s].eligible[j]
    }

    /// Per-shard availability bins as of the last
    /// [`FleetStore::begin_round`].
    pub fn bins(&self) -> Vec<ShardBin> {
        self.shards
            .iter()
            .map(|s| ShardBin {
                offset: s.offset,
                len: s.len(),
                eligible: s.eligible_count,
            })
            .collect()
    }

    /// Check-in-eligible devices as of the last round start.
    pub fn eligible_count(&self) -> usize {
        self.shards.iter().map(|s| s.eligible_count).sum()
    }

    /// Serializes the carried lifecycle state (per-device SoC, throttle,
    /// session flags, eligibility) for a checkpoint, with any held
    /// end-of-round update applied to a copy: the columns are written
    /// settled, and the held update itself is never written. The seed
    /// and shard geometry are *not* captured: both are deterministic
    /// functions of the simulation config, and
    /// [`FleetStore::state_restore`] verifies the geometry instead of
    /// trusting the file.
    pub fn state_snapshot(&self) -> serde::Value {
        let shards = match &self.held {
            None => self.shards.to_value(),
            Some(end) => {
                let mut shards = self.shards.clone();
                for shard in &mut shards {
                    end.settle(&self.members, shard);
                }
                shards.to_value()
            }
        };
        serde::Value::Map(vec![
            ("len".to_string(), self.len.to_value()),
            ("shards".to_string(), shards),
        ])
    }

    /// Restores state captured by [`FleetStore::state_snapshot`] onto a
    /// store freshly built from the same config (same fleet size and
    /// shard count), dropping any held update: the snapshot's columns
    /// are settled. Every per-device column of a shard must cover the
    /// shard's extent, and its eligible count must equal the eligible
    /// devices of its column.
    pub fn state_restore(&mut self, value: &serde::Value) -> Result<(), serde::Error> {
        let len: usize = serde::field(value, "len")?;
        let shards: Vec<FleetShard> = serde::field(value, "shards")?;
        if len != self.len || shards.len() != self.shards.len() {
            return Err(serde::Error::custom(format!(
                "fleet geometry mismatch: store is {} devices / {} shards, checkpoint holds {} / {}",
                self.len,
                self.shards.len(),
                len,
                shards.len()
            )));
        }
        for (s, (have, got)) in self.shards.iter().zip(&shards).enumerate() {
            if have.offset != got.offset || have.len() != got.len() {
                return Err(serde::Error::custom(
                    "fleet shard extents do not match the checkpoint",
                ));
            }
            let columns = [
                ("throttle", got.throttle.len()),
                ("charging", got.charging.len()),
                ("foreground", got.foreground.len()),
                ("online", got.online.len()),
                ("eligible", got.eligible.len()),
            ];
            if let Some((column, len)) = columns.iter().find(|(_, len)| *len != have.len()) {
                return Err(serde::Error::custom(format!(
                    "column `{column}` holds {len} devices but the shard covers {}",
                    have.len()
                ))
                .at(&format!("shards[{s}]")));
            }
            // The eligible-id fill sizes each shard's run by this count.
            let eligible = got.eligible.iter().filter(|&&e| e).count();
            if got.eligible_count != eligible {
                return Err(serde::Error::custom(format!(
                    "eligible_count is {} but column `eligible` holds {eligible} eligible devices",
                    got.eligible_count
                ))
                .at(&format!("shards[{s}]")));
            }
        }
        self.shards = shards;
        self.held = None;
        Ok(())
    }

    /// Applies the held end-of-round update, if any, then draws this
    /// round's charging / foreground / connectivity sessions (sticky
    /// across rounds), refreshes every device's stored availability, and
    /// returns the number of ineligible devices. Both happen in one pass
    /// over each device: its update reads only its own lanes and the
    /// cohort, and its draws read only its own lanes.
    ///
    /// Shards evolve in parallel; every device draws from its own stream
    /// `(seed, TAG_ROUND, round, id)` and the ineligible total is a sum
    /// of per-shard integer counts, so the result is independent of
    /// shard count, thread count and schedule.
    pub fn begin_round(&mut self, config: &FleetDynamics, fleet: &Fleet, round: usize) -> usize {
        let seed = self.seed;
        let held = self.held.take();
        let members = &self.members;
        let charge_prob = config.charge_prob.clamp(0.0, 1.0);
        self.shards.par_iter_mut().for_each(|shard| {
            let n = shard.len();
            let offset = shard.offset;
            let mut cohort = shard_members(members, shard).iter().peekable();
            let FleetShard {
                soc,
                throttle,
                charging,
                foreground,
                online,
                eligible,
                eligible_count,
                ..
            } = shard;
            let (soc, throttle, charging, foreground, online, eligible) = (
                &mut soc[..n],
                &mut throttle[..n],
                &mut charging[..n],
                &mut foreground[..n],
                &mut online[..n],
                &mut eligible[..n],
            );
            let mut count = 0usize;
            for j in 0..n {
                let i = offset + j;
                if let Some(end) = &held {
                    let member = cohort.next_if(|m| m.id == i);
                    end.apply(member, charging[j], &mut soc[j], &mut throttle[j]);
                }
                let mut rng =
                    SmallRng::seed_from_u64(device_stream_seed(seed, TAG_ROUND, round as u64, i));
                let device = fleet.device(DeviceId(i));
                // Fixed draw order per device: charging, foreground,
                // connectivity — three coins per round regardless of
                // state, so streams never drift.
                let p_charge = if charging[j] {
                    STAY_CHARGING
                } else {
                    charge_prob
                };
                charging[j] = rng.gen_bool(p_charge);
                let p_fg = if foreground[j] {
                    STAY_FOREGROUND
                } else {
                    (config.foreground_prob * device.interference_propensity()).clamp(0.0, 1.0)
                };
                foreground[j] = rng.gen_bool(p_fg);
                let p_off = if online[j] {
                    (config.offline_prob * device.weak_signal_propensity()).clamp(0.0, 1.0)
                } else {
                    STAY_OFFLINE
                };
                online[j] = !rng.gen_bool(p_off);
                let ok = check_in_eligible(
                    online[j],
                    foreground[j],
                    charging[j],
                    soc[j],
                    config.min_soc,
                );
                eligible[j] = ok;
                count += usize::from(ok);
            }
            *eligible_count = count;
        });
        self.len - self.eligible_count()
    }

    /// Decides whether participant `id` drops out mid-round, given its
    /// full-round energy `energy_j`, from stream `(seed, TAG_DROP, round,
    /// id)` plus deterministic battery depletion. Returns the fraction of
    /// the round completed before vanishing (`None` = survived).
    pub fn mid_round_dropout(
        &self,
        config: &FleetDynamics,
        fleet: &Fleet,
        round: usize,
        id: DeviceId,
        energy_j: f64,
    ) -> Option<f64> {
        let (s, j) = self.locate(id.0);
        let shard = &self.shards[s];
        let mut fraction: Option<f64> = None;
        // Battery death: unplugged devices die when the round's energy
        // would push SoC below the reserve — deterministic given state.
        if !shard.charging[j] && energy_j > 0.0 {
            let capacity =
                fleet.device(id).tier().battery_capacity_j() * config.battery_capacity_scale;
            let budget_j = (shard.soc[j] - config.reserve_soc).max(0.0) * capacity;
            if budget_j < energy_j {
                fraction = Some((budget_j / energy_j).clamp(0.0, 1.0));
            }
        }
        // Connectivity churn: one coin + one uniform draw per participant.
        let mut rng =
            SmallRng::seed_from_u64(device_stream_seed(self.seed, TAG_DROP, round as u64, id.0));
        let p_drop = (config.mid_round_drop_prob * fleet.device(id).weak_signal_propensity())
            .clamp(0.0, 1.0);
        let churn_coin = p_drop > 0.0 && rng.gen_bool(p_drop);
        let churn_frac = rng.gen_range(0.05..0.95);
        if churn_coin {
            fraction = Some(match fraction {
                Some(f) => f.min(churn_frac),
                None => churn_frac,
            });
        }
        fraction
    }

    /// Holds one completed round's lifecycle update until the next
    /// [`FleetStore::begin_round`], which applies it to each device at
    /// the head of its pass: participants pay battery from their measured
    /// energy and heat up for their busy seconds; everyone else drains
    /// (or charges) and cools over the round duration.
    ///
    /// At most one update is held. A hand-over while one is still held
    /// (cohorts completing with no dispatch between them, as when a run
    /// drains) first settles the held one in a pass of its own, so
    /// updates apply in completion order. Each participant's battery
    /// capacity is read here, so the held update needs neither `fleet`
    /// nor `config` later.
    ///
    /// `busy_s` and `energy_j` are aligned with `participants`, which
    /// must be distinct.
    pub(crate) fn hold_end_round(
        &mut self,
        config: &FleetDynamics,
        fleet: &Fleet,
        round_time_s: f64,
        participants: &[DeviceId],
        busy_s: &[f64],
        energy_j: &[f64],
    ) {
        debug_assert_eq!(participants.len(), busy_s.len());
        debug_assert_eq!(participants.len(), energy_j.len());
        self.settle();
        self.members.clear();
        self.members
            .extend(participants.iter().zip(busy_s).zip(energy_j).map(
                |((id, &busy_s), &energy_j)| Member {
                    id: id.0,
                    busy_s,
                    energy_j,
                    capacity_j: fleet.device(*id).tier().battery_capacity_j()
                        * config.battery_capacity_scale,
                },
            ));
        self.members.sort_unstable_by_key(|m| m.id);
        assert!(
            self.members.windows(2).all(|w| w[0].id < w[1].id),
            "participants must be distinct"
        );
        self.held = Some(RoundEnd {
            round_time_s,
            charge: config.charge_rate_per_s * round_time_s,
            drain: config.idle_drain_per_s * round_time_s,
            cool: config.cool_per_s * round_time_s,
            heat_per_s: config.heat_per_s,
            cool_per_s: config.cool_per_s,
        });
    }

    /// Applies the held end-of-round update, if any, in a pass of its
    /// own. Shards update in parallel (per-device writes are
    /// independent, so the result is schedule-free).
    fn settle(&mut self) {
        if let Some(end) = self.held.take() {
            let members = &self.members;
            self.shards
                .par_iter_mut()
                .for_each(|shard| end.settle(members, shard));
        }
    }

    /// Applies one completed round to the lifecycle states at once:
    /// participants pay battery from their measured energy and heat up
    /// for their busy seconds; everyone else drains (or charges) and
    /// cools over the round duration. The round engine holds the update
    /// instead (`hold_end_round`) and applies it in its next begin pass,
    /// with the same arithmetic.
    ///
    /// `busy_s` and `energy_j` are aligned with `participants`.
    pub fn end_round(
        &mut self,
        config: &FleetDynamics,
        fleet: &Fleet,
        round_time_s: f64,
        participants: &[DeviceId],
        busy_s: &[f64],
        energy_j: &[f64],
    ) {
        self.hold_end_round(config, fleet, round_time_s, participants, busy_s, energy_j);
        self.settle();
    }
}

/// What a round context exposes about per-device availability: either the
/// static all-ideal fleet (no storage, no per-round fill) or a borrowed
/// view of the dynamics [`FleetStore`].
///
/// Selectors read eligibility through this view; large-fleet consumers
/// use [`AvailabilityView::bins`] to skip entirely-dark shards without
/// touching their devices.
#[derive(Debug, Clone, Copy)]
pub enum AvailabilityView<'a> {
    /// A static fleet: every device permanently ideal and eligible.
    Ideal {
        /// Fleet size.
        devices: usize,
    },
    /// A live fleet-dynamics store.
    Dynamic(&'a FleetStore),
    /// A network-partition overlay: the base availability (the dynamics
    /// store, or an ideal fleet when `store` is `None`) intersected with
    /// the round's partition reachability
    /// ([`crate::fabric::PartitionSchedule`]). The engine precomputes the
    /// combined mask once per partitioned round; rounds without an active
    /// partition rule use the plain variants above, so the fabric-disabled
    /// path is untouched.
    Masked {
        /// Per-device combined eligibility (base check-in ∧ reachable),
        /// indexed by raw device id.
        eligible: &'a [bool],
        /// Per-shard bins over the combined mask, same geometry as the
        /// base view's bins.
        bins: &'a [ShardBin],
        /// Total combined-eligible devices (Σ `bins[..].eligible`).
        count: usize,
        /// The dynamics store backing availability materialisation;
        /// `None` when the fleet block is disabled.
        store: Option<&'a FleetStore>,
    },
}

impl<'a> AvailabilityView<'a> {
    /// Number of devices covered.
    pub fn devices(&self) -> usize {
        match self {
            AvailabilityView::Ideal { devices } => *devices,
            AvailabilityView::Dynamic(store) => store.len(),
            AvailabilityView::Masked { eligible, .. } => eligible.len(),
        }
    }

    /// Whether device `i` passed this round's eligibility check-in.
    #[inline]
    pub fn is_eligible(&self, i: usize) -> bool {
        match self {
            AvailabilityView::Ideal { .. } => true,
            AvailabilityView::Dynamic(store) => store.is_eligible(i),
            AvailabilityView::Masked { eligible, .. } => eligible[i],
        }
    }

    /// Materialises device `i`'s availability. Under a partition mask an
    /// unreachable device reports `eligible: false` (and, with no
    /// dynamics store, `online: false` — the partition is a connectivity
    /// outage) on top of its base state.
    #[inline]
    pub fn get(&self, i: usize) -> DeviceAvailability {
        match self {
            AvailabilityView::Ideal { .. } => DeviceAvailability::ideal(),
            AvailabilityView::Dynamic(store) => store.availability(i),
            AvailabilityView::Masked {
                eligible, store, ..
            } => {
                let mut a = match store {
                    Some(store) => store.availability(i),
                    None => DeviceAvailability::ideal(),
                };
                if !eligible[i] {
                    a.eligible = false;
                    if store.is_none() {
                        a.online = false;
                    }
                }
                a
            }
        }
    }

    /// Check-in-eligible devices this round.
    pub fn eligible_count(&self) -> usize {
        match self {
            AvailabilityView::Ideal { devices } => *devices,
            AvailabilityView::Dynamic(store) => store.eligible_count(),
            AvailabilityView::Masked { count, .. } => *count,
        }
    }

    /// Per-shard availability bins (a single full bin for a static
    /// fleet).
    pub fn bins(&self) -> Vec<ShardBin> {
        match self {
            AvailabilityView::Ideal { devices } => vec![ShardBin {
                offset: 0,
                len: *devices,
                eligible: *devices,
            }],
            AvailabilityView::Dynamic(store) => store.bins(),
            AvailabilityView::Masked { bins, .. } => bins.to_vec(),
        }
    }

    /// Ids of every eligible device, in fleet order. Each availability
    /// bin writes its eligible ids at its own offset of the result, the
    /// prefix sum of the bins' eligible counts. Bins are filled in
    /// parallel, each by `fill_run`, and a bin with no eligible device
    /// writes nothing. Ids are integers written to pre-assigned slots, so
    /// the result is identical to a sequential scan at any thread count.
    pub fn eligible_ids(&self) -> Vec<DeviceId> {
        let Some(runs) = self.runs() else {
            return (0..self.devices()).map(DeviceId).collect();
        };
        let mut ids = vec![DeviceId(0); runs.iter().map(|r| r.count).sum()];
        let mut rest = &mut ids[..];
        let mut jobs = Vec::with_capacity(runs.len());
        for run in runs {
            let (out, tail) = std::mem::take(&mut rest).split_at_mut(run.count);
            jobs.push((run, out));
            rest = tail;
        }
        jobs.par_iter_mut()
            .for_each(|(run, out)| fill_run(run.offset, run.lanes, out));
        ids
    }

    /// The devices at `ranks` of the fleet-order eligible list, that is
    /// `eligible_ids()[r]` for each `r`, without building the list.
    /// `ranks` must be strictly increasing and below
    /// [`AvailabilityView::eligible_count`]. The lookup walks the bins'
    /// eligible counts and scans lanes only inside a bin that holds a
    /// rank, and there only up to its last one; the ideal fleet's rank is
    /// the id itself.
    ///
    /// # Panics
    ///
    /// Panics if `ranks` is not strictly increasing or reaches past the
    /// eligible count.
    pub fn eligible_ids_at(&self, ranks: &[usize]) -> Vec<DeviceId> {
        assert!(
            ranks.windows(2).all(|w| w[0] < w[1]),
            "ranks must be strictly increasing"
        );
        if let Some(&last) = ranks.last() {
            let count = self.eligible_count();
            assert!(last < count, "rank {last} past {count} eligible devices");
        }
        let Some(runs) = self.runs() else {
            return ranks.iter().map(|&r| DeviceId(r)).collect();
        };
        let mut ids = Vec::with_capacity(ranks.len());
        let (mut rest, mut first) = (ranks, 0);
        for run in runs {
            let (inside, tail) = rest.split_at(rest.partition_point(|&r| r < first + run.count));
            let mut set = run.lanes.iter().enumerate().filter(|&(_, &e)| e);
            // `set` yields the device of rank `next` next.
            let mut next = first;
            for &r in inside {
                let (j, _) = set
                    .nth(r - next)
                    .expect("a bin's eligible count disagrees with its lanes");
                ids.push(DeviceId(run.offset + j));
                next = r + 1;
            }
            (rest, first) = (tail, first + run.count);
        }
        ids
    }

    /// Each bin's eligibility lanes, in fleet order: the one match the id
    /// fill and the rank lookup share. `None` for the ideal fleet, which
    /// stores no lanes because every device is eligible.
    fn runs(&self) -> Option<Vec<Run<'a>>> {
        match *self {
            AvailabilityView::Ideal { .. } => None,
            AvailabilityView::Dynamic(store) => Some(
                store
                    .shards
                    .iter()
                    .map(|s| Run {
                        offset: s.offset,
                        lanes: &s.eligible,
                        count: s.eligible_count,
                    })
                    .collect(),
            ),
            AvailabilityView::Masked { eligible, bins, .. } => Some(
                bins.iter()
                    .map(|b| Run {
                        offset: b.offset,
                        lanes: &eligible[b.offset..b.offset + b.len],
                        count: b.eligible,
                    })
                    .collect(),
            ),
        }
    }
}

/// One availability bin's eligibility: device `offset + j` is eligible
/// when `lanes[j]` is set, and `count` lanes are set.
struct Run<'a> {
    offset: usize,
    lanes: &'a [bool],
    count: usize,
}

/// Writes `DeviceId(offset + j)` for every set lane `j` of `lanes`, in
/// order, into `out`, which holds exactly as many slots as there are set
/// lanes. Branch-free: every lane up to the last set one writes its id at
/// the cursor, and only a set lane advances it, so the next lane
/// overwrites an unset lane's write. No lane after the last set one is
/// visited, so every write lands inside `out`; a bin with no slot reads no
/// lane.
fn fill_run(offset: usize, lanes: &[bool], out: &mut [DeviceId]) {
    if out.is_empty() {
        return;
    }
    let end = lanes.iter().rposition(|&e| e).map_or(0, |last| last + 1);
    let mut k = 0;
    for (j, &e) in lanes[..end].iter().enumerate() {
        out[k] = DeviceId(offset + j);
        k += usize::from(e);
    }
    assert_eq!(
        k,
        out.len(),
        "a bin's eligible count disagrees with its lanes"
    );
}

/// Normalised aggregation weights over the surviving cohort:
/// `w_i = e_i / Σe`, with the last survivor absorbing the floating-point
/// remainder so the weights sum to *exactly* 1.0 (bit-exact), as partial
/// FedAvg reweighting requires.
///
/// `effective` holds each survivor's effective sample mass
/// (`samples × update fraction`) and must be strictly positive.
pub fn survivor_weights(effective: &[f64]) -> Vec<f64> {
    if effective.is_empty() {
        return Vec::new();
    }
    let total: f64 = effective.iter().sum();
    if total <= 0.0 || total.is_nan() {
        // Degenerate cohort: fall back to uniform, same exact-sum rule.
        let n = effective.len();
        let mut w = vec![1.0 / n as f64; n];
        let head: f64 = w[..n - 1].iter().sum();
        w[n - 1] = 1.0 - head;
        return w;
    }
    let mut w: Vec<f64> = effective.iter().map(|e| e / total).collect();
    let head: f64 = w[..w.len() - 1].iter().sum();
    let last = w.len() - 1;
    w[last] = 1.0 - head;
    w
}

#[cfg(test)]
mod tests {
    use super::*;
    use autofl_device::tier::DeviceTier;
    use proptest::prelude::*;
    use rand::seq::SliceRandom;

    fn fleet() -> Fleet {
        Fleet::custom(
            &[
                (autofl_device::tier::DeviceTier::High, 4),
                (autofl_device::tier::DeviceTier::Mid, 8),
                (autofl_device::tier::DeviceTier::Low, 12),
            ],
            7,
        )
    }

    fn availabilities(store: &FleetStore) -> Vec<DeviceAvailability> {
        (0..store.len()).map(|i| store.availability(i)).collect()
    }

    #[test]
    fn begin_round_is_deterministic_across_threads_and_shards() {
        let cfg = FleetDynamics::realistic();
        let f = fleet();
        let run = |threads: &str, shards: usize| {
            let prev = std::env::var("AUTOFL_THREADS").ok();
            std::env::set_var("AUTOFL_THREADS", threads);
            rayon::refresh_thread_count();
            let mut store = FleetStore::new(&cfg, &f, 42, shards);
            let mut history = Vec::new();
            for round in 0..20 {
                store.begin_round(&cfg, &f, round);
                history.push(availabilities(&store));
            }
            match prev {
                Some(v) => std::env::set_var("AUTOFL_THREADS", v),
                None => std::env::remove_var("AUTOFL_THREADS"),
            }
            rayon::refresh_thread_count();
            history
        };
        let base = run("1", 1);
        for (threads, shards) in [("8", 1), ("1", 4), ("8", 16), ("4", 24)] {
            assert_eq!(
                base,
                run(threads, shards),
                "diverged at threads={threads}, shards={shards}"
            );
        }
    }

    #[test]
    fn bins_partition_the_fleet_and_count_eligibility() {
        let cfg = FleetDynamics::realistic();
        let f = fleet();
        let mut store = FleetStore::new(&cfg, &f, 11, 4);
        let ineligible = store.begin_round(&cfg, &f, 0);
        let bins = store.bins();
        assert_eq!(bins.iter().map(|b| b.len).sum::<usize>(), f.len());
        assert_eq!(
            bins.iter().map(|b| b.eligible).sum::<usize>(),
            f.len() - ineligible
        );
        let view = AvailabilityView::Dynamic(&store);
        let ids = view.eligible_ids();
        assert_eq!(ids.len(), view.eligible_count());
        assert!(ids.windows(2).all(|w| w[0] < w[1]), "fleet order");
        assert!(ids.iter().all(|id| view.is_eligible(id.0)));
    }

    #[test]
    #[should_panic(expected = "rank 5 past 5 eligible devices")]
    fn eligible_ids_at_refuses_a_rank_past_the_count() {
        AvailabilityView::Ideal { devices: 5 }.eligible_ids_at(&[1, 5]);
    }

    #[test]
    fn ideal_view_reports_everyone_eligible_without_storage() {
        let view = AvailabilityView::Ideal { devices: 5 };
        assert_eq!(view.devices(), 5);
        assert_eq!(view.eligible_count(), 5);
        assert_eq!(view.get(3), DeviceAvailability::ideal());
        assert_eq!(view.eligible_ids().len(), 5);
        assert_eq!(
            view.bins(),
            vec![ShardBin {
                offset: 0,
                len: 5,
                eligible: 5
            }]
        );
    }

    #[test]
    fn sessions_churn_but_most_devices_stay_eligible() {
        let cfg = FleetDynamics::realistic();
        let f = fleet();
        let mut store = FleetStore::new(&cfg, &f, 3, 1);
        let mut ineligible_rounds = 0;
        for round in 0..50 {
            let ineligible = store.begin_round(&cfg, &f, round);
            assert!(ineligible < f.len(), "whole fleet went dark");
            if ineligible > 0 {
                ineligible_rounds += 1;
            }
        }
        assert!(
            ineligible_rounds > 25,
            "realistic dynamics should churn most rounds ({ineligible_rounds}/50)"
        );
    }

    #[test]
    fn battery_death_is_deterministic_and_proportional() {
        let mut cfg = FleetDynamics::realistic();
        cfg.mid_round_drop_prob = 0.0;
        let f = fleet();
        let mut store = FleetStore::new(&cfg, &f, 5, 2);
        let id = DeviceId(0);
        store.shards[0].soc[0] = cfg.reserve_soc + 0.001;
        store.shards[0].charging[0] = false;
        let capacity = f.device(id).tier().battery_capacity_j();
        // Ten times the remaining budget: dies at ~10% of the round.
        let energy = 0.001 * capacity * 10.0;
        let frac = store
            .mid_round_dropout(&cfg, &f, 1, id, energy)
            .expect("must die");
        assert!((frac - 0.1).abs() < 1e-12, "died at {frac}");
        // Plugged in: survives the same round.
        store.shards[0].charging[0] = true;
        assert_eq!(store.mid_round_dropout(&cfg, &f, 1, id, energy), None);
    }

    #[test]
    fn end_round_drains_participants_and_cools_idlers() {
        let mut cfg = FleetDynamics::realistic();
        cfg.charge_prob = 0.0;
        let f = fleet();
        let mut store = FleetStore::new(&cfg, &f, 9, 3);
        for shard in &mut store.shards {
            for j in 0..shard.len() {
                shard.charging[j] = false;
                shard.throttle[j] = 0.5;
                shard.soc[j] = 0.8;
            }
        }
        let id = DeviceId(1);
        let capacity = f.device(id).tier().battery_capacity_j();
        store.end_round(&cfg, &f, 100.0, &[id], &[100.0], &[0.1 * capacity]);
        let trained = store.availability(id.0);
        let idle = store.availability(0);
        assert!(trained.soc < idle.soc, "training drains more than idling");
        assert!(
            trained.throttle > idle.throttle,
            "training heats while idling cools"
        );
        assert!(idle.throttle < 0.5);
    }

    #[test]
    fn end_round_is_shard_invariant() {
        let cfg = FleetDynamics::realistic();
        let f = fleet();
        let run = |shards: usize| {
            let mut store = FleetStore::new(&cfg, &f, 21, shards);
            for round in 0..6 {
                store.begin_round(&cfg, &f, round);
                let participants = [DeviceId(1), DeviceId(9), DeviceId(17)];
                store.end_round(
                    &cfg,
                    &f,
                    120.0,
                    &participants,
                    &[80.0, 110.0, 60.0],
                    &[900.0, 1800.0, 500.0],
                );
            }
            availabilities(&store)
        };
        let base = run(1);
        for shards in [2, 4, 16, 24] {
            assert_eq!(base, run(shards), "shards={shards}");
        }
    }

    /// Asserts that every column of `a` equals `b`'s bit for bit.
    fn assert_same_columns(a: &FleetStore, b: &FleetStore, at: &str) {
        for (s, (x, y)) in a.shards.iter().zip(&b.shards).enumerate() {
            let bits = |v: &[f64]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&x.soc), bits(&y.soc), "{at}: soc of shard {s}");
            assert_eq!(
                bits(&x.throttle),
                bits(&y.throttle),
                "{at}: throttle of shard {s}"
            );
            assert_eq!(x.charging, y.charging, "{at}: charging of shard {s}");
            assert_eq!(x.foreground, y.foreground, "{at}: foreground of shard {s}");
            assert_eq!(x.online, y.online, "{at}: online of shard {s}");
            assert_eq!(x.eligible, y.eligible, "{at}: eligible of shard {s}");
            assert_eq!(
                x.eligible_count, y.eligible_count,
                "{at}: count of shard {s}"
            );
        }
    }

    /// Runs one random schedule of begin passes, hand-overs (a second
    /// one in a round is a drain) and snapshots twice: once through
    /// [`FleetStore::hold_end_round`], once through the eager
    /// [`FleetStore::end_round`]. Every begin pass must leave the same
    /// columns and every snapshot the same text.
    fn held_and_eager_agree(seed: u64) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let tiers = [DeviceTier::High, DeviceTier::Mid, DeviceTier::Low];
        let runs: Vec<(DeviceTier, usize)> = (0..rng.gen_range(1..=3))
            .map(|_| (tiers[rng.gen_range(0..3)], rng.gen_range(1..=100)))
            .collect();
        let fleet = Fleet::custom(&runs, seed);
        let n = fleet.len();
        let config = FleetDynamics {
            charge_prob: rng.gen_range(0.0..=1.0),
            battery_capacity_scale: rng.gen_range(1e-3..=1.0),
            min_soc: rng.gen_range(0.0..=0.6),
            heat_per_s: rng.gen_range(0.0..=1e-2),
            cool_per_s: rng.gen_range(0.0..=1e-2),
            ..FleetDynamics::realistic()
        };
        let shards = rng.gen_range(1..=8);
        let mut held = FleetStore::new(&config, &fleet, seed, shards);
        let mut eager = held.clone();
        for round in 0..rng.gen_range(1..=8) {
            let at = format!("round {round}");
            assert_eq!(
                held.begin_round(&config, &fleet, round),
                eager.begin_round(&config, &fleet, round),
                "{at}"
            );
            assert_same_columns(&held, &eager, &at);
            for _ in 0..rng.gen_range(1..=2) {
                let mut cohort: Vec<DeviceId> = match rng.gen_range(0..4) {
                    0 => Vec::new(),
                    1 => {
                        let shard = &held.shards[rng.gen_range(0..held.shards.len())];
                        (shard.offset..shard.offset + shard.len())
                            .map(DeviceId)
                            .collect()
                    }
                    _ => {
                        let mut ids = fleet.ids();
                        ids.shuffle(&mut rng);
                        ids.truncate(rng.gen_range(1..=n.min(40)));
                        ids
                    }
                };
                cohort.shuffle(&mut rng);
                let round_time_s = rng.gen_range(1.0..=600.0);
                let busy: Vec<f64> = cohort
                    .iter()
                    .map(|_| rng.gen_range(0.0..=2.0 * round_time_s))
                    .collect();
                let energy: Vec<f64> = cohort.iter().map(|_| rng.gen_range(0.0..=5e3)).collect();
                held.hold_end_round(&config, &fleet, round_time_s, &cohort, &busy, &energy);
                eager.end_round(&config, &fleet, round_time_s, &cohort, &busy, &energy);
            }
            if rng.gen_bool(0.3) {
                let text = |s: &FleetStore| serde_json::to_string(&s.state_snapshot()).unwrap();
                let snapshot = text(&held);
                assert_eq!(snapshot, text(&eager), "{at}: snapshot");
                if rng.gen_bool(0.5) {
                    // A resumed store holds nothing: its columns are settled.
                    let value = serde_json::from_str(&snapshot).unwrap();
                    held.state_restore(&value).expect("a snapshot restores");
                    assert_same_columns(&held, &eager, &format!("{at}: restored"));
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        #[test]
        fn a_held_update_equals_the_eager_one(seed in 0u64..u64::MAX) {
            for threads in ["1", "4"] {
                let prev = std::env::var("AUTOFL_THREADS").ok();
                std::env::set_var("AUTOFL_THREADS", threads);
                rayon::refresh_thread_count();
                held_and_eager_agree(seed);
                match prev {
                    Some(v) => std::env::set_var("AUTOFL_THREADS", v),
                    None => std::env::remove_var("AUTOFL_THREADS"),
                }
                rayon::refresh_thread_count();
            }
        }
    }

    #[test]
    fn eligibility_gates_match_the_checkin_rule() {
        let rule = |online, foreground, charging, soc| {
            check_in_eligible(online, foreground, charging, soc, 0.2)
        };
        assert!(rule(true, false, false, 1.0), "healthy device");
        assert!(!rule(true, false, false, 0.1), "low battery and unplugged");
        assert!(
            rule(true, false, true, 0.1),
            "plugged in overrides low battery"
        );
        assert!(!rule(true, true, true, 0.1), "foreground session blocks");
        assert!(!rule(false, false, true, 0.1), "offline blocks");
    }

    #[test]
    fn survivor_weights_sum_to_exactly_one() {
        for effective in [
            vec![300.0, 120.0, 77.0],
            vec![1.0],
            vec![0.05, 0.05, 0.9, 1e6],
            vec![3.0; 20],
        ] {
            let w = survivor_weights(&effective);
            assert_eq!(w.len(), effective.len());
            assert!(w.iter().all(|x| *x >= 0.0));
            let sum: f64 = w.iter().sum();
            assert_eq!(sum.to_bits(), 1.0f64.to_bits(), "weights {w:?}");
        }
        assert!(survivor_weights(&[]).is_empty());
    }

    #[test]
    fn straggler_policy_names_and_default() {
        assert_eq!(StragglerPolicy::default(), StragglerPolicy::Drop);
        assert_eq!(StragglerPolicy::Drop.name(), "Drop");
        assert_eq!(
            StragglerPolicy::WaitBounded { grace: 1.5 }.name(),
            "Wait(1.5)"
        );
        assert_eq!(
            StragglerPolicy::OverSelect { extra: 5 }.name(),
            "OverSelect(K+5)"
        );
    }
}
