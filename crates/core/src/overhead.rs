//! Runtime overhead accounting (Section 6.4 of the paper).
//!
//! The paper reports the per-round cost of AutoFL itself: observing states
//! (496.8 µs), selecting participants/targets (10.5 µs), computing the
//! reward (2.1 µs) and updating the Q-tables (22.1 µs), plus 80 MB of
//! Q-table memory for 200 devices. [`Overhead`] collects the same
//! breakdown from the live controller (`crate::controller`):
//!
//! - **observe**: the global state and every device's local state, one
//!   conditions read per device (plus, on the first round, the Q-table
//!   set-up and the reward scales);
//! - **select**: finding or creating the Q-table row of every eligible
//!   device, scoring it, the top-K cut, the per-device ε-greedy action
//!   and the pace clamp — or, in an exploring round, the random draw;
//! - **reward**: Eq. (5)–(7), once for the idle devices and once for
//!   each device the round's feedback names;
//! - **update**: the rows of the devices `select` did not score (it
//!   hands the others over as row handles), then one Q-update per
//!   device in id order.
//!
//! The memory figure, `AutoFl::memory_bytes`, is what the Q-table arena
//! has allocated (`crate::qtable::QTableSet::memory_bytes`), not a
//! per-row estimate.

use std::time::Duration;

/// Accumulated controller-side costs.
#[derive(Debug, Clone, Copy, Default)]
pub struct Overhead {
    observe: Duration,
    select: Duration,
    reward: Duration,
    update: Duration,
    rounds: usize,
}

impl Overhead {
    /// Records one round's phase durations.
    pub fn record(
        &mut self,
        observe: Duration,
        select: Duration,
        reward: Duration,
        update: Duration,
    ) {
        self.observe += observe;
        self.select += select;
        self.reward += reward;
        self.update += update;
        self.rounds += 1;
    }

    /// Records only the decision phases (called from `select`).
    pub fn record_decision(&mut self, observe: Duration, select: Duration) {
        self.observe += observe;
        self.select += select;
        self.rounds += 1;
    }

    /// Records only the learning phases (called from `observe`).
    pub fn record_learning(&mut self, reward: Duration, update: Duration) {
        self.reward += reward;
        self.update += update;
    }

    /// Number of recorded rounds.
    pub fn rounds(&self) -> usize {
        self.rounds
    }

    /// Per-round averages in microseconds:
    /// `(observe, select, reward, update)`.
    pub fn per_round_us(&self) -> (f64, f64, f64, f64) {
        let n = self.rounds.max(1) as f64;
        (
            self.observe.as_secs_f64() * 1e6 / n,
            self.select.as_secs_f64() * 1e6 / n,
            self.reward.as_secs_f64() * 1e6 / n,
            self.update.as_secs_f64() * 1e6 / n,
        )
    }

    /// Total per-round controller cost in microseconds.
    pub fn total_per_round_us(&self) -> f64 {
        let (a, b, c, d) = self.per_round_us();
        a + b + c + d
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn averages_divide_by_rounds() {
        let mut o = Overhead::default();
        o.record(
            Duration::from_micros(100),
            Duration::from_micros(10),
            Duration::from_micros(2),
            Duration::from_micros(20),
        );
        o.record(
            Duration::from_micros(300),
            Duration::from_micros(30),
            Duration::from_micros(6),
            Duration::from_micros(60),
        );
        let (obs, sel, rew, upd) = o.per_round_us();
        assert!((obs - 200.0).abs() < 1e-6);
        assert!((sel - 20.0).abs() < 1e-6);
        assert!((rew - 4.0).abs() < 1e-6);
        assert!((upd - 40.0).abs() < 1e-6);
        assert!((o.total_per_round_us() - 264.0).abs() < 1e-6);
    }

    #[test]
    fn zero_rounds_reports_zero() {
        let o = Overhead::default();
        assert_eq!(o.total_per_round_us(), 0.0);
    }
}
