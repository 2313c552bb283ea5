//! The AutoFL reinforcement-learning state (Table 1 of the paper).
//!
//! The state splits into a *global* part shared by every device in a round
//! (NN layer mix and the `(B, E, K)` parameters) and a *local* part
//! observed per device (co-running CPU/memory load, network bandwidth,
//! data classes). Continuous features are discretised into the published
//! Table 1 bins, which the paper derived offline with DBSCAN;
//! [`StateSpace`] holds those boundaries.

use autofl_device::network::BANDWIDTH_THRESHOLD_MBPS;
use autofl_device::scenario::DeviceConditions;
use autofl_fed::fleet::DeviceAvailability;
use autofl_fed::selection::RoundContext;
use serde::{Deserialize, Serialize};

/// The discretised global state `S_global`: one value per Table 1 row of
/// the "NN-related Features" and "Global Parameters" groups.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct GlobalState {
    /// `S_CONV` bin: # of CONV layers.
    pub conv: u8,
    /// `S_FC` bin: # of FC layers.
    pub fc: u8,
    /// `S_RC` bin: # of RC layers.
    pub rc: u8,
    /// `S_B` bin: batch size.
    pub batch: u8,
    /// `S_E` bin: local epochs.
    pub epochs: u8,
    /// `S_K` bin: participants per round.
    pub k: u8,
}

impl GlobalState {
    /// The six bytes packed most significant first, in declaration order
    /// (below 2^48): how Q-table keys and checkpoints hold a global state.
    pub(crate) fn pack(&self) -> u64 {
        pack_bytes(&[self.conv, self.fc, self.rc, self.batch, self.epochs, self.k])
    }
}

/// The discretised per-device state `S_local`: the "Runtime Variance" and
/// "Data Classes" groups of Table 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LocalState {
    /// `S_Co_CPU` bin: co-running CPU utilisation
    /// (none / small / medium / large).
    pub co_cpu: u8,
    /// `S_Co_MEM` bin: co-running memory usage.
    pub co_mem: u8,
    /// `S_Network` bin: 0 = regular (> 40 Mbps), 1 = bad.
    pub network: u8,
    /// `S_Data` bin: fraction of label classes present
    /// (small < 25% / medium < 100% / large = 100%).
    pub data: u8,
    /// `S_Avail` bin: device availability under fleet dynamics
    /// (0 = available and healthy, 1 = stressed — low battery or
    /// thermally throttled, 2 = ineligible). Always 0 with a static
    /// fleet, so the state space is unchanged when dynamics are off.
    pub avail: u8,
}

impl LocalState {
    /// The five bytes packed most significant first, in declaration order
    /// (below 2^40): how Q-table keys and checkpoints hold a local state.
    pub(crate) fn pack(&self) -> u64 {
        pack_bytes(&[
            self.co_cpu,
            self.co_mem,
            self.network,
            self.data,
            self.avail,
        ])
    }

    /// Inverts [`LocalState::pack`]; `None` for a value at or above 2^40.
    pub(crate) fn unpack(packed: u64) -> Option<LocalState> {
        if packed >> 40 != 0 {
            return None;
        }
        let [co_cpu, co_mem, network, data, avail] =
            std::array::from_fn(|i| (packed >> (8 * (4 - i))) as u8);
        Some(LocalState {
            co_cpu,
            co_mem,
            network,
            data,
            avail,
        })
    }
}

/// `bytes` as one big-endian integer.
fn pack_bytes(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0, |packed, &byte| packed << 8 | u64::from(byte))
}

/// Maps a continuous 1-D feature to the bin its value falls in, given
/// the boundaries between adjacent bins.
#[derive(Debug, Clone)]
struct Discretizer {
    /// Strictly increasing boundaries; bin `i` holds the values from
    /// boundary `i − 1` (inclusive) up to boundary `i` (exclusive).
    boundaries: Vec<f64>,
}

impl Discretizer {
    /// A discretizer with explicit boundaries (the published Table 1
    /// bins).
    ///
    /// # Panics
    ///
    /// Panics if the boundaries are not strictly increasing.
    fn from_boundaries(boundaries: Vec<f64>) -> Self {
        assert!(
            boundaries.windows(2).all(|w| w[0] < w[1]),
            "boundaries must be strictly increasing"
        );
        Discretizer { boundaries }
    }

    /// Maps a value to its bin index in `0..=boundaries.len()`.
    fn bin(&self, value: f64) -> usize {
        self.boundaries.iter().take_while(|&&b| value >= b).count()
    }
}

/// Bin boundaries for every state feature.
#[derive(Debug, Clone)]
pub struct StateSpace {
    conv: Discretizer,
    fc: Discretizer,
    rc: Discretizer,
    batch: Discretizer,
    epochs: Discretizer,
    k: Discretizer,
    co_cpu: Discretizer,
    co_mem: Discretizer,
}

impl Default for StateSpace {
    fn default() -> Self {
        StateSpace::paper_bins()
    }
}

impl StateSpace {
    /// The published Table 1 bins.
    pub fn paper_bins() -> Self {
        StateSpace {
            // small (<10), medium (<20), large (<40), larger (>=40)
            conv: Discretizer::from_boundaries(vec![10.0, 20.0, 40.0]),
            // small (<10), large (>=10)
            fc: Discretizer::from_boundaries(vec![10.0]),
            // small (<5), medium (<10), large (>=10)
            rc: Discretizer::from_boundaries(vec![5.0, 10.0]),
            // small (<8), medium (<32), large (>=32)
            batch: Discretizer::from_boundaries(vec![8.0, 32.0]),
            // small (<5), medium (<10), large (>=10)
            epochs: Discretizer::from_boundaries(vec![5.0, 10.0]),
            // small (<10), medium (<50), large (>=50)
            k: Discretizer::from_boundaries(vec![10.0, 50.0]),
            // small (<25%), medium (<75%), large (<=100%); the "none"
            // bin is handled specially for an exact zero.
            co_cpu: Discretizer::from_boundaries(vec![0.25, 0.75]),
            co_mem: Discretizer::from_boundaries(vec![0.25, 0.75]),
        }
    }

    /// Discretises the round-global features.
    pub fn global_state(&self, ctx: &RoundContext<'_>) -> GlobalState {
        GlobalState {
            conv: self.conv.bin(ctx.layer_counts.conv as f64) as u8,
            fc: self.fc.bin(ctx.layer_counts.fc as f64) as u8,
            rc: self.rc.bin(ctx.layer_counts.rc as f64) as u8,
            batch: self.batch.bin(ctx.params.batch_size as f64) as u8,
            epochs: self.epochs.bin(ctx.params.local_epochs as f64) as u8,
            k: self.k.bin(ctx.params.num_participants as f64) as u8,
        }
    }

    /// Discretises one device's local features.
    ///
    /// `class_fraction` is the share of label classes present on the
    /// device (`S_Data`); `availability` is the device's fleet-dynamics
    /// state (`S_Avail` — pass [`DeviceAvailability::ideal`] for a static
    /// fleet).
    pub fn local_state(
        &self,
        conditions: &DeviceConditions,
        class_fraction: f64,
        availability: &DeviceAvailability,
    ) -> LocalState {
        // Table 1 gives CPU/MEM a dedicated "none" bin at exactly 0%.
        let cpu_bin = if conditions.interference.co_cpu == 0.0 {
            0
        } else {
            1 + self.co_cpu.bin(conditions.interference.co_cpu) as u8
        };
        let mem_bin = if conditions.interference.co_mem == 0.0 {
            0
        } else {
            1 + self.co_mem.bin(conditions.interference.co_mem) as u8
        };
        let network = if conditions.network.bandwidth_mbps > BANDWIDTH_THRESHOLD_MBPS {
            0
        } else {
            1
        };
        let data = if class_fraction < 0.25 {
            0
        } else if class_fraction < 1.0 {
            1
        } else {
            2
        };
        let avail = if !availability.eligible {
            2
        } else if availability.soc < 0.5 || availability.throttle > 0.25 {
            1
        } else {
            0
        };
        LocalState {
            co_cpu: cpu_bin,
            co_mem: mem_bin,
            network,
            data,
            avail,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use autofl_device::interference::Interference;
    use autofl_device::network::{NetworkObservation, SignalStrength};
    use proptest::prelude::*;

    fn conditions(co_cpu: f64, co_mem: f64, bw: f64) -> DeviceConditions {
        DeviceConditions {
            interference: Interference { co_cpu, co_mem },
            network: NetworkObservation {
                signal: if bw > 40.0 {
                    SignalStrength::Strong
                } else {
                    SignalStrength::Weak
                },
                bandwidth_mbps: bw,
            },
            throttle: 0.0,
        }
    }

    #[test]
    fn availability_bins_cover_healthy_stressed_ineligible() {
        let space = StateSpace::paper_bins();
        let at = |avail: DeviceAvailability| {
            space
                .local_state(&conditions(0.0, 0.0, 80.0), 1.0, &avail)
                .avail
        };
        assert_eq!(at(DeviceAvailability::ideal()), 0);
        assert_eq!(
            at(DeviceAvailability {
                soc: 0.3,
                ..DeviceAvailability::ideal()
            }),
            1,
            "low battery is stressed"
        );
        assert_eq!(
            at(DeviceAvailability {
                throttle: 0.6,
                ..DeviceAvailability::ideal()
            }),
            1,
            "thermal throttling is stressed"
        );
        assert_eq!(
            at(DeviceAvailability {
                eligible: false,
                online: false,
                ..DeviceAvailability::ideal()
            }),
            2,
            "ineligible dominates"
        );
    }

    #[test]
    fn local_state_bins_match_table1() {
        let space = StateSpace::paper_bins();
        // None / small / medium / large CPU bins.
        assert_eq!(
            space
                .local_state(
                    &conditions(0.0, 0.0, 80.0),
                    1.0,
                    &DeviceAvailability::ideal()
                )
                .co_cpu,
            0
        );
        assert_eq!(
            space
                .local_state(
                    &conditions(0.1, 0.0, 80.0),
                    1.0,
                    &DeviceAvailability::ideal()
                )
                .co_cpu,
            1
        );
        assert_eq!(
            space
                .local_state(
                    &conditions(0.5, 0.0, 80.0),
                    1.0,
                    &DeviceAvailability::ideal()
                )
                .co_cpu,
            2
        );
        assert_eq!(
            space
                .local_state(
                    &conditions(0.9, 0.0, 80.0),
                    1.0,
                    &DeviceAvailability::ideal()
                )
                .co_cpu,
            3
        );
        // Network threshold at 40 Mbps.
        assert_eq!(
            space
                .local_state(
                    &conditions(0.0, 0.0, 80.0),
                    1.0,
                    &DeviceAvailability::ideal()
                )
                .network,
            0
        );
        assert_eq!(
            space
                .local_state(
                    &conditions(0.0, 0.0, 30.0),
                    1.0,
                    &DeviceAvailability::ideal()
                )
                .network,
            1
        );
        // Data classes: small / medium / large.
        assert_eq!(
            space
                .local_state(
                    &conditions(0.0, 0.0, 80.0),
                    0.2,
                    &DeviceAvailability::ideal()
                )
                .data,
            0
        );
        assert_eq!(
            space
                .local_state(
                    &conditions(0.0, 0.0, 80.0),
                    0.7,
                    &DeviceAvailability::ideal()
                )
                .data,
            1
        );
        assert_eq!(
            space
                .local_state(
                    &conditions(0.0, 0.0, 80.0),
                    1.0,
                    &DeviceAvailability::ideal()
                )
                .data,
            2
        );
    }

    #[test]
    fn explicit_boundaries_match_table1_semantics() {
        // S_B bins: small (<8), medium (<32), large (>=32).
        let d = Discretizer::from_boundaries(vec![8.0, 32.0]);
        assert_eq!(d.bin(4.0), 0);
        assert_eq!(d.bin(16.0), 1);
        assert_eq!(d.bin(32.0), 2);
        assert_eq!(d.bin(64.0), 2);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn rejects_unsorted_boundaries() {
        let _ = Discretizer::from_boundaries(vec![5.0, 2.0]);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Discretizer bins are total: any f64 maps into one of the
        /// `boundaries + 1` bins.
        #[test]
        fn discretizer_bins_are_total(value in -1e6f64..1e6) {
            let d = Discretizer::from_boundaries(vec![8.0, 32.0]);
            prop_assert!(d.bin(value) <= d.boundaries.len());
        }
    }

    #[test]
    fn states_pack_most_significant_byte_first() {
        let g = GlobalState {
            conv: 1,
            fc: 2,
            rc: 3,
            batch: 4,
            epochs: 5,
            k: 255,
        };
        assert_eq!(g.pack(), 0x01_02_03_04_05_ff);
        let l = LocalState {
            co_cpu: 255,
            co_mem: 7,
            network: 1,
            data: 2,
            avail: 0,
        };
        assert_eq!(l.pack(), 0xff_07_01_02_00);
        assert_eq!(LocalState::unpack(l.pack()), Some(l));
        assert_eq!(
            LocalState::unpack((1 << 40) - 1).map(|l| l.avail),
            Some(255)
        );
        assert_eq!(LocalState::unpack(1 << 40), None);
    }
}
