//! Per-device and shared (per-tier) Q-tables.

use crate::action::Action;
use crate::state::{GlobalState, LocalState};
use autofl_device::fleet::{DeviceId, Fleet};
use autofl_device::tier::DeviceTier;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// One lookup table `Q(S_global, S_local, A)`.
///
/// Rows are created lazily with small random values, matching Algorithm 1's
/// "initialize Q as random values" without materialising the full state
/// space.
#[derive(Debug, Clone)]
pub struct QTable {
    entries: HashMap<(GlobalState, LocalState), Vec<f64>>,
    rng: SmallRng,
}

impl QTable {
    /// Creates an empty table seeded for reproducible random
    /// initialisation.
    pub fn new(seed: u64) -> Self {
        QTable {
            entries: HashMap::new(),
            rng: SmallRng::seed_from_u64(seed),
        }
    }

    fn row(&mut self, g: GlobalState, l: LocalState) -> &mut Vec<f64> {
        let rng = &mut self.rng;
        // Random initialisation (Algorithm 1), placed *below* the Eq. (7)
        // failure branch's floor of `accuracy − 100`. Untried actions are
        // therefore discovered through epsilon-greedy exploration rather
        // than by outranking devices that participated in an unlucky
        // round, which keeps the learned cohort stable.
        self.entries.entry((g, l)).or_insert_with(|| {
            (0..Action::COUNT)
                .map(|_| rng.gen_range(-100.0..-99.0))
                .collect()
        })
    }

    /// One tabular Q-learning step on `(g, l, action)` with one row
    /// lookup: `q ← q + learning_rate · (reward + discount · max − q)`,
    /// bootstrapping against the best value of the same row. The max
    /// runs over the row in index order — [`Action::all`] order — and
    /// keeps the first of equal values, exactly as
    /// [`QTable::best_action`] over [`Action::all`] does.
    pub fn update(
        &mut self,
        g: GlobalState,
        l: LocalState,
        action: Action,
        reward: f64,
        learning_rate: f64,
        discount: f64,
    ) {
        let row = self.row(g, l);
        let max = row[1..]
            .iter()
            .fold(row[0], |best, &q| if q > best { q } else { best });
        let q = &mut row[action.index()];
        *q += learning_rate * (reward + discount * max - *q);
    }

    /// The best action among `candidates` and its Q-value.
    ///
    /// # Panics
    ///
    /// Panics if `candidates` is empty.
    pub fn best_action(
        &mut self,
        g: GlobalState,
        l: LocalState,
        candidates: &[Action],
    ) -> (Action, f64) {
        assert!(!candidates.is_empty(), "need at least one candidate");
        let row = self.row(g, l);
        let mut best = candidates[0];
        let mut best_q = row[best.index()];
        for &a in &candidates[1..] {
            let q = row[a.index()];
            if q > best_q {
                best = a;
                best_q = q;
            }
        }
        (best, best_q)
    }

    /// Number of materialised `(state, action-row)` entries.
    pub fn num_rows(&self) -> usize {
        self.entries.len()
    }

    /// Approximate resident size of the table in bytes.
    pub fn memory_bytes(&self) -> usize {
        // Key + row of f64s + map overhead estimate.
        self.entries.len()
            * (std::mem::size_of::<(GlobalState, LocalState)>()
                + Action::COUNT * std::mem::size_of::<f64>()
                + 48)
    }
}

impl Serialize for QTable {
    fn to_value(&self) -> serde::Value {
        // `HashMap` iteration order is nondeterministic, so checkpoints
        // sort rows by their state bytes — equal tables always serialize
        // to equal bytes, which the checkpoint digest relies on.
        let mut rows: Vec<_> = self.entries.iter().collect();
        rows.sort_by_key(|((g, l), _)| {
            (
                [g.conv, g.fc, g.rc, g.batch, g.epochs, g.k],
                [l.co_cpu, l.co_mem, l.network, l.data, l.avail],
            )
        });
        serde::Value::Map(vec![
            (
                "rows".to_string(),
                serde::Value::Seq(
                    rows.into_iter()
                        .map(|((g, l), q)| {
                            serde::Value::Map(vec![
                                ("g".to_string(), g.to_value()),
                                ("l".to_string(), l.to_value()),
                                ("q".to_string(), q.to_value()),
                            ])
                        })
                        .collect(),
                ),
            ),
            ("rng".to_string(), self.rng.state().to_vec().to_value()),
        ])
    }
}

impl Deserialize for QTable {
    fn from_value(value: &serde::Value) -> Result<Self, serde::Error> {
        let rows = match serde::field_or_null(value, "rows") {
            serde::Value::Seq(items) => items,
            other => return Err(serde::Error::invalid_type("sequence", other).at("rows")),
        };
        let mut entries = HashMap::with_capacity(rows.len());
        for (i, row) in rows.iter().enumerate() {
            let in_row = |e: serde::Error| e.at(&format!("rows[{i}]"));
            let g: GlobalState = serde::field(row, "g").map_err(in_row)?;
            let l: LocalState = serde::field(row, "l").map_err(in_row)?;
            let q: Vec<f64> = serde::field(row, "q").map_err(in_row)?;
            if q.len() != Action::COUNT {
                return Err(in_row(serde::Error::custom(format!(
                    "Q row holds {} values but the action space has {}",
                    q.len(),
                    Action::COUNT
                ))));
            }
            entries.insert((g, l), q);
        }
        let words: Vec<u64> = serde::field(value, "rng")?;
        let state: [u64; 4] = words.try_into().map_err(|w: Vec<u64>| {
            serde::Error::custom(format!("rng state needs 4 words, found {}", w.len())).at("rng")
        })?;
        Ok(QTable {
            entries,
            rng: SmallRng::from_state(state),
        })
    }
}

/// How Q-tables are shared across devices (Section 6.4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum QSharing {
    /// One table per device (highest fidelity, slowest to warm up).
    PerDevice,
    /// One table per performance tier; devices of a tier learn jointly,
    /// converging ~29% faster at a small accuracy cost.
    SharedPerTier,
}

/// The collection of Q-tables for a fleet under a sharing mode.
#[derive(Debug, Clone)]
pub struct QTableSet {
    sharing: QSharing,
    tables: Vec<QTable>,
    /// Device id → table index.
    index: Vec<usize>,
}

impl QTableSet {
    /// Builds the set for a fleet.
    pub fn new(fleet: &Fleet, sharing: QSharing, seed: u64) -> Self {
        match sharing {
            QSharing::PerDevice => QTableSet {
                sharing,
                tables: (0..fleet.len())
                    .map(|i| QTable::new(seed.wrapping_add(i as u64)))
                    .collect(),
                index: (0..fleet.len()).collect(),
            },
            QSharing::SharedPerTier => {
                let tiers = DeviceTier::all();
                let tables = tiers
                    .iter()
                    .enumerate()
                    .map(|(i, _)| QTable::new(seed.wrapping_add(i as u64)))
                    .collect();
                let index = fleet
                    .iter()
                    .map(|d| {
                        tiers
                            .iter()
                            .position(|t| *t == d.tier())
                            .expect("tier covered")
                    })
                    .collect();
                QTableSet {
                    sharing,
                    tables,
                    index,
                }
            }
        }
    }

    /// The sharing mode.
    pub fn sharing(&self) -> QSharing {
        self.sharing
    }

    /// The table backing `device`.
    pub fn table_mut(&mut self, device: DeviceId) -> &mut QTable {
        let idx = self.index[device.0];
        &mut self.tables[idx]
    }

    /// Total approximate memory of all tables in bytes.
    pub fn memory_bytes(&self) -> usize {
        self.tables.iter().map(|t| t.memory_bytes()).sum()
    }

    /// Number of distinct tables.
    pub fn num_tables(&self) -> usize {
        self.tables.len()
    }
}

impl Serialize for QTableSet {
    fn to_value(&self) -> serde::Value {
        serde::Value::Map(vec![
            ("sharing".to_string(), self.sharing.to_value()),
            ("tables".to_string(), self.tables.to_value()),
            ("index".to_string(), self.index.to_value()),
        ])
    }
}

impl Deserialize for QTableSet {
    fn from_value(value: &serde::Value) -> Result<Self, serde::Error> {
        let sharing: QSharing = serde::field(value, "sharing")?;
        let tables: Vec<QTable> = serde::field(value, "tables")?;
        let index: Vec<usize> = serde::field(value, "index")?;
        if let Some(bad) = index.iter().find(|&&i| i >= tables.len()) {
            return Err(serde::Error::custom(format!(
                "device maps to table {bad} but only {} tables exist",
                tables.len()
            ))
            .at("index"));
        }
        Ok(QTableSet {
            sharing,
            tables,
            index,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn g() -> GlobalState {
        GlobalState {
            conv: 0,
            fc: 0,
            rc: 0,
            batch: 1,
            epochs: 1,
            k: 1,
        }
    }

    fn l() -> LocalState {
        LocalState {
            co_cpu: 0,
            co_mem: 0,
            network: 0,
            data: 2,
            avail: 0,
        }
    }

    /// The Q-value of `(g(), l(), action)`.
    fn value(t: &mut QTable, action: Action) -> f64 {
        t.best_action(g(), l(), &[action]).1
    }

    #[test]
    fn values_initialise_small_and_persist() {
        let mut t = QTable::new(1);
        let v = value(&mut t, Action::Idle);
        assert!((-100.0..-99.0).contains(&v));
        assert_eq!(value(&mut t, Action::Idle), v);
        t.update(g(), l(), Action::Idle, 5.0, 0.5, 0.0);
        assert_eq!(value(&mut t, Action::Idle), v + 0.5 * (5.0 - v));
    }

    #[test]
    fn update_bootstraps_against_the_row_maximum() {
        let mut t = QTable::new(5);
        let all = Action::all();
        for (i, a) in all.iter().enumerate() {
            assert_eq!(a.index(), i, "Action::all() is in index order");
        }
        let (gamma, mu, r) = (0.3, 0.1, -7.25);
        for a in [Action::Idle, all[3], all[6], all[3]] {
            let (_, max) = t.best_action(g(), l(), &all);
            let q = value(&mut t, a);
            t.update(g(), l(), a, r, gamma, mu);
            assert_eq!(
                value(&mut t, a).to_bits(),
                (q + gamma * (r + mu * max - q)).to_bits()
            );
        }
    }

    #[test]
    fn best_action_tracks_updates() {
        let mut t = QTable::new(2);
        let a = Action::from_index(2);
        t.update(g(), l(), a, 10.0, 1.0, 0.0);
        let (best, q) = t.best_action(g(), l(), &Action::all());
        assert_eq!(best, a);
        assert_eq!(q, value(&mut t, a));
        assert!((q - 10.0).abs() < 1e-9, "{q}");
    }

    #[test]
    fn shared_mode_uses_three_tables_for_paper_fleet() {
        let fleet = Fleet::paper_fleet(1);
        let set = QTableSet::new(&fleet, QSharing::SharedPerTier, 7);
        assert_eq!(set.num_tables(), 3);
        let per = QTableSet::new(&fleet, QSharing::PerDevice, 7);
        assert_eq!(per.num_tables(), 200);
    }

    #[test]
    fn shared_table_is_shared_within_tier() {
        let fleet = Fleet::paper_fleet(2);
        let mut set = QTableSet::new(&fleet, QSharing::SharedPerTier, 3);
        let high_ids = fleet.ids_of_tier(DeviceTier::High);
        set.table_mut(high_ids[0])
            .update(g(), l(), Action::Idle, 9.0, 1.0, 0.0);
        let updated = value(set.table_mut(high_ids[0]), Action::Idle);
        assert!(updated > 0.0, "{updated}");
        assert_eq!(value(set.table_mut(high_ids[1]), Action::Idle), updated);
    }

    #[test]
    fn memory_grows_with_rows() {
        let mut t = QTable::new(4);
        let before = t.memory_bytes();
        let _ = value(&mut t, Action::Idle);
        assert!(t.memory_bytes() > before);
        assert_eq!(t.num_rows(), 1);
    }
}
