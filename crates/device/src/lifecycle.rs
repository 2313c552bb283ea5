//! Per-device lifecycle state for stochastic fleet dynamics.
//!
//! Real FL fleets are unstable: a phone is only eligible while it is
//! idle, sufficiently charged (or plugged in) and on a usable network,
//! and sustained training heats the SoC until DVFS throttles it. This
//! module holds the slow-moving per-device state those effects evolve —
//! battery state-of-charge, charging status, thermal throttle level,
//! foreground-user sessions and connectivity — which
//! `autofl_fed::fleet::FleetStore` advances round by round with
//! per-device RNG streams.

use serde::{Deserialize, Serialize};

/// The slow-moving state one device carries across aggregation rounds.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DeviceLifecycle {
    /// Battery state of charge in `[0, 1]`.
    pub soc: f64,
    /// Whether the device is plugged in this round.
    pub charging: bool,
    /// Thermal throttle level in `[0, 1]`: 0 = cool (full frequency),
    /// 1 = fully throttled. Scales execution throughput down via
    /// [`crate::scenario::DeviceConditions::throttle`].
    pub throttle: f64,
    /// Whether the user is actively using the device (foreground
    /// session) this round — such devices are ineligible, matching the
    /// production FL protocol's "idle" requirement.
    pub foreground: bool,
    /// Whether the device currently has network connectivity.
    pub online: bool,
}

/// The production FL check-in rule over raw lifecycle fields: online,
/// not in a foreground session, and either plugged in or above
/// `min_soc`.
///
/// This is the single definition of eligibility — both the struct view
/// ([`DeviceLifecycle::eligible`]) and the structure-of-arrays hot path
/// (`autofl_fed::fleet::FleetStore::begin_round`) call it, so the rule
/// cannot silently diverge between layouts. The operators do not
/// short-circuit, so the rule costs no branch in that per-device loop.
#[inline]
pub fn check_in_eligible(
    online: bool,
    foreground: bool,
    charging: bool,
    soc: f64,
    min_soc: f64,
) -> bool {
    online & !foreground & (charging | (soc >= min_soc))
}

impl DeviceLifecycle {
    /// A fully available device: full battery, cool, idle, online.
    pub fn healthy() -> Self {
        DeviceLifecycle {
            soc: 1.0,
            charging: false,
            throttle: 0.0,
            foreground: false,
            online: true,
        }
    }

    /// Eligibility under the production FL check-in rule
    /// ([`check_in_eligible`]).
    pub fn eligible(&self, min_soc: f64) -> bool {
        check_in_eligible(
            self.online,
            self.foreground,
            self.charging,
            self.soc,
            min_soc,
        )
    }

    /// Clamps `soc` and `throttle` back into `[0, 1]` after an update.
    pub fn clamp(&mut self) {
        self.soc = self.soc.clamp(0.0, 1.0);
        self.throttle = self.throttle.clamp(0.0, 1.0);
    }
}

impl Default for DeviceLifecycle {
    fn default() -> Self {
        DeviceLifecycle::healthy()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn healthy_device_is_eligible() {
        let d = DeviceLifecycle::healthy();
        assert!(d.eligible(0.2));
        assert_eq!(d, DeviceLifecycle::default());
    }

    #[test]
    fn eligibility_gates_match_the_checkin_rule() {
        let mut d = DeviceLifecycle::healthy();
        d.soc = 0.1;
        assert!(!d.eligible(0.2), "low battery and unplugged");
        d.charging = true;
        assert!(d.eligible(0.2), "plugged in overrides low battery");
        d.foreground = true;
        assert!(!d.eligible(0.2), "foreground session blocks");
        d.foreground = false;
        d.online = false;
        assert!(!d.eligible(0.2), "offline blocks");
    }

    #[test]
    fn clamp_bounds_soc_and_throttle() {
        let mut d = DeviceLifecycle::healthy();
        d.soc = 1.7;
        d.throttle = -0.3;
        d.clamp();
        assert_eq!(d.soc, 1.0);
        assert_eq!(d.throttle, 0.0);
    }
}
