//! The characterization clusters C0–C7 (Table 4 of the paper).

use serde::{Deserialize, Serialize};

/// A fixed composition of participant tiers used in the Section 3
/// characterization and as the `Power` / `Performance` baselines.
///
/// Table 4 defines the compositions for `K = 20`; for other `K` the mix is
/// scaled proportionally.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CharacterizationCluster {
    /// Random selection (the FedAvg baseline).
    C0,
    /// 20 H / 0 M / 0 L — the `Performance` policy.
    C1,
    /// 15 H / 5 M / 0 L.
    C2,
    /// 10 H / 5 M / 5 L.
    C3,
    /// 5 H / 10 M / 5 L.
    C4,
    /// 5 H / 5 M / 10 L.
    C5,
    /// 0 H / 5 M / 15 L.
    C6,
    /// 0 H / 0 M / 20 L — the `Power` policy.
    C7,
}

impl CharacterizationCluster {
    /// All clusters in Table 4 order.
    pub fn all() -> [CharacterizationCluster; 8] {
        use CharacterizationCluster::*;
        [C0, C1, C2, C3, C4, C5, C6, C7]
    }

    /// The non-random fixed compositions (C1–C7).
    pub fn fixed() -> [CharacterizationCluster; 7] {
        use CharacterizationCluster::*;
        [C1, C2, C3, C4, C5, C6, C7]
    }

    /// Display name.
    pub fn name(&self) -> &'static str {
        use CharacterizationCluster::*;
        match self {
            C0 => "C0",
            C1 => "C1",
            C2 => "C2",
            C3 => "C3",
            C4 => "C4",
            C5 => "C5",
            C6 => "C6",
            C7 => "C7",
        }
    }

    /// Table 4 composition for `K = 20` as `(high, mid, low)` counts.
    /// Returns `None` for C0 (random has no fixed composition).
    pub fn base_composition(&self) -> Option<(usize, usize, usize)> {
        use CharacterizationCluster::*;
        match self {
            C0 => None,
            C1 => Some((20, 0, 0)),
            C2 => Some((15, 5, 0)),
            C3 => Some((10, 5, 5)),
            C4 => Some((5, 10, 5)),
            C5 => Some((5, 5, 10)),
            C6 => Some((0, 5, 15)),
            C7 => Some((0, 0, 20)),
        }
    }

    /// Composition scaled to an arbitrary `k`, preserving the mix and the
    /// total (largest-remainder rounding).
    pub fn composition(&self, k: usize) -> Option<(usize, usize, usize)> {
        let (h, m, l) = self.base_composition()?;
        let total = (h + m + l) as f64;
        let exact = [
            h as f64 * k as f64 / total,
            m as f64 * k as f64 / total,
            l as f64 * k as f64 / total,
        ];
        let mut counts = [
            exact[0].floor() as usize,
            exact[1].floor() as usize,
            exact[2].floor() as usize,
        ];
        let mut remainders: Vec<(usize, f64)> = exact
            .iter()
            .enumerate()
            .map(|(i, &e)| (i, e - e.floor()))
            .collect();
        remainders.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite remainders"));
        let mut short = k - counts.iter().sum::<usize>();
        for (i, _) in remainders {
            if short == 0 {
                break;
            }
            counts[i] += 1;
            short -= 1;
        }
        Some((counts[0], counts[1], counts[2]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table4_compositions_sum_to_20() {
        for c in CharacterizationCluster::fixed() {
            let (h, m, l) = c.base_composition().unwrap();
            assert_eq!(h + m + l, 20, "{} does not sum to 20", c.name());
        }
    }

    #[test]
    fn c1_is_performance_and_c7_is_power() {
        assert_eq!(
            CharacterizationCluster::C1.base_composition(),
            Some((20, 0, 0))
        );
        assert_eq!(
            CharacterizationCluster::C7.base_composition(),
            Some((0, 0, 20))
        );
    }

    #[test]
    fn scaling_preserves_total() {
        for c in CharacterizationCluster::fixed() {
            for k in [5, 10, 13, 20, 40] {
                let (h, m, l) = c.composition(k).unwrap();
                assert_eq!(h + m + l, k, "{} at k={}", c.name(), k);
            }
        }
    }

    #[test]
    fn c0_has_no_fixed_composition() {
        assert_eq!(CharacterizationCluster::C0.base_composition(), None);
        assert_eq!(CharacterizationCluster::C0.composition(10), None);
    }
}
