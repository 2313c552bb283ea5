//! Sharded structure-of-arrays storage for per-device round state.
//!
//! A fleet-sized store wants each field in its own array, *sharded* into
//! contiguous device ranges ([`shard_extents`]) so that one worker owns
//! one shard outright — no locks, no interleaved cache lines, and a
//! layout that is identical for any shard count. The fleet-dynamics
//! lifecycle store in `autofl-fed` uses this layout every round.
//! [`ConditionsStore`] is the materialised form of one round's
//! conditions: [`VarianceScenario::sample_into`] fills it shard-parallel,
//! and fixtures and benches hand it to anything that reads
//! [`Conditions`]. The round engine itself never materialises the
//! fleet's conditions; it derives each device's on read
//! ([`VarianceScenario::sample_device`]).
//!
//! [`VarianceScenario::sample_into`]: crate::scenario::VarianceScenario::sample_into
//! [`VarianceScenario::sample_device`]: crate::scenario::VarianceScenario::sample_device
//!
//! Sharding is a **layout and parallelism** knob only. Every sampled
//! value is drawn from a per-device RNG stream keyed by the device's
//! *global* id (the `(seed, tag, round, id)` contract documented in
//! `docs/determinism.md`), so the stored bytes are a pure function of
//! the configuration — independent of shard count, thread count and
//! execution schedule.

use crate::interference::Interference;
use crate::network::{NetworkObservation, SignalStrength};
use crate::scenario::{Conditions, DeviceConditions};

/// Splits `len` devices into at most `shards` contiguous `(offset, len)`
/// extents of equal size (the last may be shorter). At least one extent
/// is returned for a non-empty range; `shards` is clamped to `[1, len]`.
///
/// Both the fleet-state store in `autofl-fed` and [`ConditionsStore`]
/// derive their layout from this function, so per-shard views of the two
/// stores are always aligned.
pub fn shard_extents(len: usize, shards: usize) -> Vec<(usize, usize)> {
    if len == 0 {
        return Vec::new();
    }
    let shards = shards.clamp(1, len);
    let size = len.div_ceil(shards);
    (0..len.div_ceil(size))
        .map(|s| {
            let offset = s * size;
            (offset, size.min(len - offset))
        })
        .collect()
}

/// The uniform shard size implied by [`shard_extents`] (every shard but
/// the last holds exactly this many devices).
pub fn shard_size(len: usize, shards: usize) -> usize {
    if len == 0 {
        return 1;
    }
    len.div_ceil(shards.clamp(1, len))
}

/// One shard's field arrays. All vectors have the same length (the shard's
/// device count); device `offset + j` lives at index `j` of each array.
#[derive(Debug, Clone, Default)]
pub struct ConditionShard {
    /// First global device id covered by this shard.
    pub offset: usize,
    /// Co-running CPU utilisation per device.
    pub co_cpu: Vec<f64>,
    /// Co-running memory utilisation per device.
    pub co_mem: Vec<f64>,
    /// Signal regime per device.
    pub signal: Vec<SignalStrength>,
    /// Sampled bandwidth per device in Mbps.
    pub bandwidth_mbps: Vec<f64>,
    /// Thermal throttle level per device in `[0, 1]`.
    pub throttle: Vec<f64>,
}

impl ConditionShard {
    fn with_capacity(offset: usize, len: usize) -> Self {
        ConditionShard {
            offset,
            co_cpu: vec![0.0; len],
            co_mem: vec![0.0; len],
            signal: vec![SignalStrength::Strong; len],
            bandwidth_mbps: vec![SignalStrength::Strong.mean_bandwidth_mbps(); len],
            throttle: vec![0.0; len],
        }
    }

    /// Devices in this shard.
    pub fn len(&self) -> usize {
        self.co_cpu.len()
    }

    /// Whether the shard is empty (never true for a built store).
    pub fn is_empty(&self) -> bool {
        self.co_cpu.is_empty()
    }

    /// Writes one device's sampled conditions into lane `j`.
    pub fn set_lane(&mut self, j: usize, c: &DeviceConditions) {
        self.co_cpu[j] = c.interference.co_cpu;
        self.co_mem[j] = c.interference.co_mem;
        self.signal[j] = c.network.signal;
        self.bandwidth_mbps[j] = c.network.bandwidth_mbps;
        self.throttle[j] = c.throttle;
    }
}

/// Sharded structure-of-arrays storage of every device's per-round
/// [`DeviceConditions`].
///
/// [`Conditions::get`] materialises the struct view for one device (a
/// handful of register moves); bulk producers operate on the per-shard
/// field arrays directly.
#[derive(Debug, Clone, Default)]
pub struct ConditionsStore {
    len: usize,
    shard_size: usize,
    shards: Vec<ConditionShard>,
}

impl ConditionsStore {
    /// An all-ideal store for `len` devices split into `shards` extents.
    pub fn new(len: usize, shards: usize) -> Self {
        let mut store = ConditionsStore::default();
        store.reshape(len, shards);
        store
    }

    /// Resizes the store for `len` devices in `shards` extents. A no-op
    /// when the geometry already matches; otherwise existing contents are
    /// discarded (every slot reset to ideal).
    fn reshape(&mut self, len: usize, shards: usize) {
        let size = shard_size(len, shards);
        if self.len == len && self.shard_size == size {
            return;
        }
        self.len = len;
        self.shard_size = size;
        self.shards = shard_extents(len, shards)
            .into_iter()
            .map(|(offset, n)| ConditionShard::with_capacity(offset, n))
            .collect();
    }

    /// Number of devices covered.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the store covers no devices.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Mutable access to the shards (disjoint ranges — the parallel
    /// sampling entry point fans out over these).
    pub fn shards_mut(&mut self) -> &mut [ConditionShard] {
        &mut self.shards
    }

    #[inline]
    fn locate(&self, i: usize) -> (usize, usize) {
        debug_assert!(i < self.len, "device {i} outside store of {}", self.len);
        (i / self.shard_size, i % self.shard_size)
    }

    /// Writes one device's conditions.
    pub fn set(&mut self, i: usize, c: &DeviceConditions) {
        let (s, j) = self.locate(i);
        self.shards[s].set_lane(j, c);
    }
}

impl Conditions for ConditionsStore {
    /// Materialises device `id`'s conditions.
    #[inline]
    fn get(&self, id: usize) -> DeviceConditions {
        let (s, j) = self.locate(id);
        let shard = &self.shards[s];
        DeviceConditions {
            interference: Interference {
                co_cpu: shard.co_cpu[j],
                co_mem: shard.co_mem[j],
            },
            network: NetworkObservation {
                signal: shard.signal[j],
                bandwidth_mbps: shard.bandwidth_mbps[j],
            },
            throttle: shard.throttle[j],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_extents_cover_the_range_exactly_once() {
        for (len, shards) in [(10, 1), (10, 3), (10, 10), (10, 50), (1, 4), (1000, 16)] {
            let extents = shard_extents(len, shards);
            assert!(!extents.is_empty());
            let mut next = 0;
            for (offset, n) in &extents {
                assert_eq!(*offset, next, "gap at {len}/{shards}");
                assert!(*n > 0);
                next = offset + n;
            }
            assert_eq!(next, len, "extents must cover {len} devices");
            assert!(extents.len() <= shards.max(1));
        }
        assert!(shard_extents(0, 4).is_empty());
    }

    #[test]
    fn store_roundtrips_conditions_at_any_shard_count() {
        let conditions: Vec<DeviceConditions> = (0..23)
            .map(|i| DeviceConditions {
                interference: Interference {
                    co_cpu: i as f64 * 0.01,
                    co_mem: i as f64 * 0.02,
                },
                network: NetworkObservation {
                    signal: if i % 3 == 0 {
                        SignalStrength::Weak
                    } else {
                        SignalStrength::Strong
                    },
                    bandwidth_mbps: 10.0 + i as f64,
                },
                throttle: i as f64 * 0.03,
            })
            .collect();
        for shards in [1, 2, 5, 23, 99] {
            let mut store = ConditionsStore::new(conditions.len(), shards);
            for (i, c) in conditions.iter().enumerate() {
                store.set(i, c);
            }
            for (i, c) in conditions.iter().enumerate() {
                assert_eq!(store.get(i), *c, "device {i} at {shards} shards");
            }
        }
    }

    #[test]
    fn reshape_is_a_noop_for_matching_geometry() {
        let mut store = ConditionsStore::new(10, 2);
        let cond = DeviceConditions {
            throttle: 0.5,
            ..DeviceConditions::ideal()
        };
        store.set(3, &cond);
        store.reshape(10, 2);
        assert_eq!(
            store.get(3).throttle,
            0.5,
            "matching reshape must keep data"
        );
        store.reshape(10, 5);
        assert_eq!(store.get(3).throttle, 0.0, "regrown store resets to ideal");
    }
}
