//! The fleet's Q-tables — per-device or shared per tier — in one arena.
//!
//! Algorithm 1 keeps a table `Q(S_global, S_local, A)` per device (or,
//! with [`QSharing::SharedPerTier`], per performance tier). Rows are
//! materialised lazily, the first time a device touches a state, so
//! [`QTableSet`] stores every table's rows in one flat arena instead of
//! one map per table:
//!
//! - `rows`: one `[f64; Action::COUNT]` per materialised `(table, state)`,
//!   in creation order. A [`RowId`] indexes it and never moves, so the
//!   controller carries row handles from `select` to the Q-update.
//! - one packed `u128` key per row: the table index, then the six global
//!   and five local state bytes, most significant first.
//! - one map from packed key to row, hashed by a fixed multiply-xorshift
//!   mix of the key. The keys come from the simulation or from the run's
//!   own checkpoints, which guard against torn writes, not adversaries,
//!   so SipHash's keyed hashing buys nothing here.
//! - each table's own RNG, which draws the random initial values of the
//!   rows created in it, and the device → table index.
//!
//! A row's initial values depend only on its table's RNG position when
//! the row is created, so callers fix every initial Q-value by the order
//! in which they first touch rows. Under [`QSharing::SharedPerTier`]
//! several devices touch the same table, so that order runs across
//! devices.

use crate::action::Action;
use crate::state::{GlobalState, LocalState};
use autofl_device::fleet::{DeviceId, Fleet};
use autofl_device::tier::DeviceTier;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// How Q-tables are shared across devices (Section 6.4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum QSharing {
    /// One table per device (highest fidelity, slowest to warm up).
    PerDevice,
    /// One table per performance tier; devices of a tier learn jointly,
    /// converging ~29% faster at a small accuracy cost.
    SharedPerTier,
}

/// A handle on one row of a [`QTableSet`]. Rows are never moved or
/// removed, so a handle stays valid for the set's lifetime; it is not
/// serialized (a restored set numbers its rows afresh).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RowId(u32);

/// One row: the Q-value of every action, in [`Action::all`] order.
type Row = [f64; Action::COUNT];

/// `(table, g, l)` packed most significant first, so packed keys order
/// like `(table, global state bytes, local state bytes)`: the order in
/// which checkpoints list rows.
fn pack(table: u32, g: GlobalState, l: LocalState) -> u128 {
    [
        g.conv, g.fc, g.rc, g.batch, g.epochs, g.k, l.co_cpu, l.co_mem, l.network, l.data, l.avail,
    ]
    .iter()
    .fold(u128::from(table), |key, &byte| key << 8 | u128::from(byte))
}

/// Inverts [`pack`].
fn unpack(key: u128) -> (u32, GlobalState, LocalState) {
    let byte = |i: u32| (key >> (8 * (10 - i))) as u8;
    let g = GlobalState {
        conv: byte(0),
        fc: byte(1),
        rc: byte(2),
        batch: byte(3),
        epochs: byte(4),
        k: byte(5),
    };
    let l = LocalState {
        co_cpu: byte(6),
        co_mem: byte(7),
        network: byte(8),
        data: byte(9),
        avail: byte(10),
    };
    ((key >> 88) as u32, g, l)
}

/// splitmix64's finaliser: a multiply-xorshift mix whose every output
/// bit depends on every input bit.
fn mix(mut x: u64) -> u64 {
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// The key map's hasher: [`mix`] over the packed key's two halves.
#[derive(Debug, Default, Clone, Copy)]
struct KeyHasher(u64);

impl Hasher for KeyHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.0 = mix(self.0 ^ u64::from(byte));
        }
    }

    fn write_u128(&mut self, key: u128) {
        self.0 = mix(key as u64 ^ mix((key >> 64) as u64));
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// Every Q-table of a fleet under one sharing mode, in one arena (see
/// the [module docs](self)).
#[derive(Debug, Clone)]
pub struct QTableSet {
    sharing: QSharing,
    /// Q-values, one row per materialised `(table, state)`, in creation
    /// order; indexed by [`RowId`].
    rows: Vec<Row>,
    /// Row `r`'s packed key is `keys[r]`.
    keys: Vec<u128>,
    /// Packed key → row.
    map: HashMap<u128, RowId, BuildHasherDefault<KeyHasher>>,
    /// Each table's initialisation stream.
    rngs: Vec<SmallRng>,
    /// Device id → table.
    index: Vec<u32>,
}

impl QTableSet {
    /// Builds the set for a fleet: table `i` draws its initial values
    /// from a stream seeded with `seed + i`.
    pub fn new(fleet: &Fleet, sharing: QSharing, seed: u64) -> Self {
        let table = |i: usize| u32::try_from(i).expect("fewer than 2^32 tables");
        let (tables, index) = match sharing {
            QSharing::PerDevice => (fleet.len(), (0..fleet.len()).map(table).collect()),
            QSharing::SharedPerTier => {
                let tiers = DeviceTier::all();
                let index = fleet
                    .iter()
                    .map(|d| {
                        table(
                            tiers
                                .iter()
                                .position(|t| *t == d.tier())
                                .expect("tier covered"),
                        )
                    })
                    .collect();
                (tiers.len(), index)
            }
        };
        QTableSet {
            sharing,
            rows: Vec::new(),
            keys: Vec::new(),
            map: HashMap::default(),
            rngs: (0..tables)
                .map(|i| SmallRng::seed_from_u64(seed.wrapping_add(i as u64)))
                .collect(),
            index,
        }
    }

    /// The sharing mode.
    pub fn sharing(&self) -> QSharing {
        self.sharing
    }

    /// Number of distinct tables.
    pub fn num_tables(&self) -> usize {
        self.rngs.len()
    }

    /// Number of devices the set maps to tables.
    pub fn num_devices(&self) -> usize {
        self.index.len()
    }

    /// Number of materialised rows across all tables.
    pub fn num_rows(&self) -> usize {
        self.rows.len()
    }

    /// The row of state `(g, l)` in `device`'s table, created if missing.
    ///
    /// A new row draws [`Action::COUNT`] values from its table's RNG —
    /// Algorithm 1's "initialize Q as random values" — placed *below*
    /// the Eq. (7) failure branch's floor of `accuracy − 100`. Untried
    /// actions are therefore discovered through epsilon-greedy
    /// exploration rather than by outranking devices that participated
    /// in an unlucky round, which keeps the learned cohort stable.
    pub fn row(&mut self, device: DeviceId, g: GlobalState, l: LocalState) -> RowId {
        let table = self.index[device.0];
        let key = pack(table, g, l);
        let next = self.next_row();
        let row = *self.map.entry(key).or_insert(next);
        if row == next {
            let rng = &mut self.rngs[table as usize];
            self.rows
                .push(std::array::from_fn(|_| rng.gen_range(-100.0..-99.0)));
            self.keys.push(key);
        }
        row
    }

    /// The id the next created row gets.
    fn next_row(&self) -> RowId {
        RowId(u32::try_from(self.rows.len()).expect("fewer than 2^32 rows"))
    }

    /// The best action among `candidates` on `row`, and its Q-value. Ties
    /// keep the earliest candidate.
    ///
    /// # Panics
    ///
    /// Panics if `candidates` is empty.
    pub fn best_action(&self, row: RowId, candidates: &[Action]) -> (Action, f64) {
        assert!(!candidates.is_empty(), "need at least one candidate");
        let row = &self.rows[row.0 as usize];
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

    /// One tabular Q-learning step on `(row, action)`:
    /// `q ← q + learning_rate · (reward + discount · max − q)`,
    /// bootstrapping against the best value of the same row. The max
    /// runs over the row in [`Action::all`] order and keeps the first of
    /// equal values, exactly as [`QTableSet::best_action`] over
    /// [`Action::all`] does.
    pub fn update(
        &mut self,
        row: RowId,
        action: Action,
        reward: f64,
        learning_rate: f64,
        discount: f64,
    ) {
        let row = &mut self.rows[row.0 as usize];
        let max = row[1..]
            .iter()
            .fold(row[0], |best, &q| if q > best { q } else { best });
        let q = &mut row[action.index()];
        *q += learning_rate * (reward + discount * max - *q);
    }

    /// Bytes the arena has allocated: the capacities of the rows, keys,
    /// key map (entries plus one control byte each), RNGs and index.
    pub fn memory_bytes(&self) -> usize {
        use std::mem::size_of;
        self.rows.capacity() * size_of::<Row>()
            + self.keys.capacity() * size_of::<u128>()
            + self.map.capacity() * (size_of::<(u128, RowId)>() + 1)
            + self.rngs.capacity() * size_of::<SmallRng>()
            + self.index.capacity() * size_of::<u32>()
    }
}

impl Serialize for QTableSet {
    fn to_value(&self) -> serde::Value {
        // The map's iteration order is an artefact of hashing and the row
        // order one of creation, so checkpoints list each table's rows by
        // state bytes: equal tables always serialize to equal bytes,
        // which the checkpoint digest relies on. Sorting row ids by
        // packed key yields exactly that order, grouped by table.
        let mut order: Vec<usize> = (0..self.rows.len()).collect();
        order.sort_unstable_by_key(|&r| self.keys[r]);
        let mut sorted = order
            .into_iter()
            .map(|r| (unpack(self.keys[r]), &self.rows[r]))
            .peekable();
        let tables = self
            .rngs
            .iter()
            .enumerate()
            .map(|(t, rng)| {
                let mut rows = Vec::new();
                while let Some(((_, g, l), q)) =
                    sorted.next_if(|((table, ..), _)| *table as usize == t)
                {
                    rows.push(serde::Value::Map(vec![
                        ("g".to_string(), g.to_value()),
                        ("l".to_string(), l.to_value()),
                        ("q".to_string(), q.as_slice().to_value()),
                    ]));
                }
                serde::Value::Map(vec![
                    ("rows".to_string(), serde::Value::Seq(rows)),
                    ("rng".to_string(), rng.state().to_vec().to_value()),
                ])
            })
            .collect();
        serde::Value::Map(vec![
            ("sharing".to_string(), self.sharing.to_value()),
            ("tables".to_string(), serde::Value::Seq(tables)),
            ("index".to_string(), self.index.to_value()),
        ])
    }
}

impl Deserialize for QTableSet {
    fn from_value(value: &serde::Value) -> Result<Self, serde::Error> {
        fn sequence(value: &serde::Value) -> Result<&[serde::Value], serde::Error> {
            match value {
                serde::Value::Seq(items) => Ok(items),
                other => Err(serde::Error::invalid_type("sequence", other)),
            }
        }
        let sharing: QSharing = serde::field(value, "sharing")?;
        let tables = sequence(serde::field_or_null(value, "tables")).map_err(|e| e.at("tables"))?;
        let mut set = QTableSet {
            sharing,
            rows: Vec::new(),
            keys: Vec::new(),
            map: HashMap::default(),
            rngs: Vec::with_capacity(tables.len()),
            index: serde::field(value, "index")?,
        };
        for (t, table) in tables.iter().enumerate() {
            let in_table = |e: serde::Error| e.at(&format!("tables[{t}]"));
            let rows = sequence(serde::field_or_null(table, "rows"))
                .map_err(|e| in_table(e.at("rows")))?;
            for (i, row) in rows.iter().enumerate() {
                let in_row = |e: serde::Error| in_table(e.at(&format!("rows[{i}]")));
                let g: GlobalState = serde::field(row, "g").map_err(in_row)?;
                let l: LocalState = serde::field(row, "l").map_err(in_row)?;
                let q: Vec<f64> = serde::field(row, "q").map_err(in_row)?;
                let q: Row = q.try_into().map_err(|q: Vec<f64>| {
                    in_row(serde::Error::custom(format!(
                        "Q row holds {} values but the action space has {}",
                        q.len(),
                        Action::COUNT
                    )))
                })?;
                let key = pack(t as u32, g, l);
                if set.map.insert(key, set.next_row()).is_some() {
                    return Err(in_row(serde::Error::custom(format!(
                        "the table lists state {g:?} {l:?} twice"
                    ))));
                }
                set.rows.push(q);
                set.keys.push(key);
            }
            let words: Vec<u64> = serde::field(table, "rng").map_err(in_table)?;
            let state: [u64; 4] = words.try_into().map_err(|w: Vec<u64>| {
                in_table(
                    serde::Error::custom(format!("rng state needs 4 words, found {}", w.len()))
                        .at("rng"),
                )
            })?;
            set.rngs.push(SmallRng::from_state(state));
        }
        if let Some(bad) = set.index.iter().find(|&&t| t as usize >= tables.len()) {
            return Err(serde::Error::custom(format!(
                "device maps to table {bad} but only {} tables exist",
                tables.len()
            ))
            .at("index"));
        }
        Ok(set)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The per-table layout the arena replaced, kept as its reference
    /// model: one map of state → row plus its own initialisation RNG.
    #[derive(Debug, Clone)]
    struct QTable {
        entries: HashMap<(GlobalState, LocalState), Vec<f64>>,
        rng: SmallRng,
    }

    impl QTable {
        fn new(seed: u64) -> Self {
            QTable {
                entries: HashMap::new(),
                rng: SmallRng::seed_from_u64(seed),
            }
        }

        fn row(&mut self, g: GlobalState, l: LocalState) -> &mut Vec<f64> {
            let rng = &mut self.rng;
            self.entries.entry((g, l)).or_insert_with(|| {
                (0..Action::COUNT)
                    .map(|_| rng.gen_range(-100.0..-99.0))
                    .collect()
            })
        }

        fn update(
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

        fn best_action(
            &mut self,
            g: GlobalState,
            l: LocalState,
            candidates: &[Action],
        ) -> (Action, f64) {
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

        fn to_value(&self) -> serde::Value {
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

    /// The reference model of a whole [`QTableSet`]: one [`QTable`] per
    /// table, and the same device → table index.
    struct Reference {
        sharing: QSharing,
        tables: Vec<QTable>,
        index: Vec<usize>,
    }

    impl Reference {
        fn new(fleet: &Fleet, sharing: QSharing, seed: u64) -> Self {
            let set = QTableSet::new(fleet, sharing, seed);
            Reference {
                sharing,
                tables: (0..set.num_tables())
                    .map(|i| QTable::new(seed.wrapping_add(i as u64)))
                    .collect(),
                index: set.index.iter().map(|&t| t as usize).collect(),
            }
        }

        fn table(&mut self, device: DeviceId) -> &mut QTable {
            &mut self.tables[self.index[device.0]]
        }

        fn to_value(&self) -> serde::Value {
            serde::Value::Map(vec![
                ("sharing".to_string(), self.sharing.to_value()),
                (
                    "tables".to_string(),
                    serde::Value::Seq(self.tables.iter().map(QTable::to_value).collect()),
                ),
                ("index".to_string(), self.index.to_value()),
            ])
        }
    }

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

    /// A set over a small mixed fleet, and the row of `(g(), l())` in
    /// device 0's table.
    fn one_row(seed: u64) -> (QTableSet, RowId) {
        let fleet = Fleet::custom(&[(DeviceTier::High, 2), (DeviceTier::Low, 2)], 1);
        let mut set = QTableSet::new(&fleet, QSharing::PerDevice, seed);
        let row = set.row(DeviceId(0), g(), l());
        (set, row)
    }

    /// The Q-value of `(row, action)`.
    fn value(set: &QTableSet, row: RowId, action: Action) -> f64 {
        set.best_action(row, &[action]).1
    }

    #[test]
    fn values_initialise_small_and_persist() {
        let (mut set, row) = one_row(1);
        let v = value(&set, row, Action::Idle);
        assert!((-100.0..-99.0).contains(&v));
        assert_eq!(set.row(DeviceId(0), g(), l()), row);
        assert_eq!(value(&set, row, Action::Idle), v);
        set.update(row, Action::Idle, 5.0, 0.5, 0.0);
        assert_eq!(value(&set, row, Action::Idle), v + 0.5 * (5.0 - v));
    }

    #[test]
    fn update_bootstraps_against_the_row_maximum() {
        let (mut set, row) = one_row(5);
        let all = Action::all();
        for (i, a) in all.iter().enumerate() {
            assert_eq!(a.index(), i, "Action::all() is in index order");
        }
        let (gamma, mu, r) = (0.3, 0.1, -7.25);
        for a in [Action::Idle, all[3], all[6], all[3]] {
            let (_, max) = set.best_action(row, &all);
            let q = value(&set, row, a);
            set.update(row, a, r, gamma, mu);
            assert_eq!(
                value(&set, row, a).to_bits(),
                (q + gamma * (r + mu * max - q)).to_bits()
            );
        }
    }

    #[test]
    fn best_action_tracks_updates() {
        let (mut set, row) = one_row(2);
        let a = Action::from_index(2);
        set.update(row, a, 10.0, 1.0, 0.0);
        let (best, q) = set.best_action(row, &Action::all());
        assert_eq!(best, a);
        assert_eq!(q, value(&set, row, a));
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
        let row = set.row(high_ids[0], g(), l());
        set.update(row, Action::Idle, 9.0, 1.0, 0.0);
        let updated = value(&set, row, Action::Idle);
        assert!(updated > 0.0, "{updated}");
        assert_eq!(set.row(high_ids[1], g(), l()), row);
        let low = set.row(fleet.ids_of_tier(DeviceTier::Low)[0], g(), l());
        assert_ne!(low, row, "tiers keep separate tables");
    }

    #[test]
    fn memory_grows_with_rows() {
        let fleet = Fleet::custom(&[(DeviceTier::Mid, 3)], 4);
        let mut set = QTableSet::new(&fleet, QSharing::PerDevice, 4);
        let before = set.memory_bytes();
        assert!(before > 0, "RNGs and index are allocated up front");
        let _ = set.row(DeviceId(1), g(), l());
        assert!(set.memory_bytes() > before);
        assert_eq!(set.num_rows(), 1);
    }

    /// Entry `i` of `value`, a map or a sequence.
    fn nth(value: &mut serde::Value, i: usize) -> &mut serde::Value {
        match value {
            serde::Value::Map(entries) => &mut entries[i].1,
            serde::Value::Seq(items) => &mut items[i],
            other => panic!("expected a map or a sequence, found {}", other.kind()),
        }
    }

    #[test]
    fn reader_refuses_a_state_listed_twice_or_a_short_row() {
        let (mut set, _) = one_row(3);
        let _ = set.row(DeviceId(0), g(), LocalState { avail: 1, ..l() });
        let tree = set.to_value();
        // Row `i` of table 0 in a serialized set: `tables[0].rows[i]`.
        fn row(tree: &mut serde::Value, i: usize) -> &mut serde::Value {
            nth(nth(nth(nth(tree, 1), 0), 0), i)
        }
        let mut twice = tree.clone();
        *row(&mut twice, 1) = row(&mut twice, 0).clone();
        let mut short = tree.clone();
        *nth(row(&mut short, 1), 2) = vec![0.0; Action::COUNT - 1].to_value();
        for (bad, expect) in [(twice, "twice"), (short, "holds 6 values")] {
            let err = QTableSet::from_value(&bad)
                .expect_err("an inconsistent table must not restore")
                .to_string();
            assert!(err.contains("tables[0].rows[1]"), "{err}");
            assert!(err.contains(expect), "{err}");
        }
        assert!(QTableSet::from_value(&tree).is_ok());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Random find-or-create, `best_action` and `update` sequences
        /// leave the arena and the reference tables with the same Q bits
        /// after every step and the same checkpoint tree at the end, and
        /// that tree round-trips. States draw mostly from a few values,
        /// so devices of a shared tier collide on rows, and sometimes
        /// from any byte a checkpoint may carry.
        #[test]
        fn arena_matches_the_reference_tables(
            seed in 0u64..u64::MAX,
            shared in proptest::bool::ANY,
            devices in 1usize..10,
            steps in 1usize..200,
        ) {
            let fleet = Fleet::custom(
                &[
                    (DeviceTier::High, devices),
                    (DeviceTier::Mid, devices / 2),
                    (DeviceTier::Low, 1),
                ],
                seed,
            );
            let sharing = if shared { QSharing::SharedPerTier } else { QSharing::PerDevice };
            let mut set = QTableSet::new(&fleet, sharing, seed);
            let mut reference = Reference::new(&fleet, sharing, seed);
            let mut rng = SmallRng::seed_from_u64(seed);
            let byte = |rng: &mut SmallRng| -> u8 {
                if rng.gen_bool(0.9) {
                    rng.gen_range(0u8..3)
                } else {
                    rng.gen_range(0u8..=255)
                }
            };
            let all = Action::all();
            for step in 0..steps {
                let device = DeviceId(rng.gen_range(0..fleet.len()));
                let g = GlobalState {
                    conv: byte(&mut rng),
                    fc: 0,
                    rc: byte(&mut rng),
                    batch: 1,
                    epochs: 1,
                    k: byte(&mut rng),
                };
                let l = LocalState {
                    co_cpu: byte(&mut rng),
                    co_mem: 0,
                    network: byte(&mut rng),
                    data: 2,
                    avail: byte(&mut rng),
                };
                let table = reference.table(device);
                let rows = set.num_rows();
                let row = set.row(device, g, l);
                prop_assert_eq!(set.num_rows() > rows, !table.entries.contains_key(&(g, l)));
                match rng.gen_range(0..3) {
                    0 => {
                        let _ = table.row(g, l);
                    }
                    1 => {
                        let first = rng.gen_range(0..all.len());
                        let candidates = &all[first..];
                        let (a, q) = set.best_action(row, candidates);
                        let (ra, rq) = table.best_action(g, l, candidates);
                        prop_assert_eq!((a, q.to_bits()), (ra, rq.to_bits()));
                    }
                    _ => {
                        let action = all[rng.gen_range(0..all.len())];
                        let reward = rng.gen_range(-150.0..50.0);
                        let (gamma, mu) = (rng.gen_range(0.0..1.0), rng.gen_range(0.0..1.0));
                        set.update(row, action, reward, gamma, mu);
                        table.update(g, l, action, reward, gamma, mu);
                    }
                }
                let bits: Vec<u64> = all.iter().map(|&a| value(&set, row, a).to_bits()).collect();
                let expected: Vec<u64> = table.row(g, l).iter().map(|q| q.to_bits()).collect();
                prop_assert_eq!(bits, expected, "step {}", step);
                if step == steps / 2 {
                    // Restoring renumbers the rows; the set must carry on
                    // exactly as before.
                    set = QTableSet::from_value(&set.to_value()).expect("the set round-trips");
                }
            }
            let tree = set.to_value();
            prop_assert!(tree == reference.to_value(), "checkpoint trees differ");
            let restored = QTableSet::from_value(&tree).expect("the set round-trips");
            prop_assert!(restored.to_value() == tree, "round trip changed the tree");
            prop_assert_eq!(restored.num_rows(), set.num_rows());
        }
    }
}
