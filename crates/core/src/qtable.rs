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
//! Checkpoints hold the same arena as a few flat columns, with the rows
//! sorted by packed key.
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
    key(table, g.pack(), l.pack())
}

/// The key of a table and two packed states ([`GlobalState::pack`],
/// [`LocalState::pack`]).
fn key(table: u32, g: u64, l: u64) -> u128 {
    u128::from(table) << 88 | u128::from(g) << 40 | u128::from(l)
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

/// A [`QTableSet`] as checkpoints hold it: a few flat columns, with every
/// row listed once, sorted by packed key, that is by table and then by
/// state bytes. Row creation order is an artefact of the run and the key
/// map's order one of hashing, so sorting makes equal sets serialize to
/// equal bytes, which the checkpoint digests rely on.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub(crate) struct QTableColumns {
    /// The sharing mode.
    sharing: QSharing,
    /// Each table's row count; table `t`'s rows follow table `t − 1`'s.
    rows: Vec<usize>,
    /// Each row's packed global state ([`GlobalState::pack`]).
    g: Vec<u64>,
    /// Each row's packed local state ([`LocalState::pack`]).
    l: Vec<u64>,
    /// Each row's Q-values, [`Action::COUNT`] per row, in row order.
    q: Vec<f64>,
    /// Each table's RNG state: four words per table.
    rng: Vec<u64>,
    /// Device id → table.
    index: Vec<u32>,
}

impl QTableSet {
    /// The set as checkpoint columns.
    pub(crate) fn columns(&self) -> QTableColumns {
        // Keys are unique, so sorting `(key, row)` pairs sorts by key.
        let mut order: Vec<(u128, usize)> = self.keys.iter().copied().zip(0..).collect();
        order.sort_unstable();
        let mut rows = vec![0; self.rngs.len()];
        let mut g = Vec::with_capacity(order.len());
        let mut l = Vec::with_capacity(order.len());
        let mut q = Vec::with_capacity(order.len() * Action::COUNT);
        for (key, r) in order {
            rows[(key >> 88) as usize] += 1;
            g.push((key >> 40) as u64 & ((1 << 48) - 1));
            l.push(key as u64 & ((1 << 40) - 1));
            q.extend_from_slice(&self.rows[r]);
        }
        QTableColumns {
            sharing: self.sharing,
            rows,
            g,
            l,
            q,
            rng: self.rngs.iter().flat_map(|rng| rng.state()).collect(),
            index: self.index.clone(),
        }
    }
}

/// Restores a set from its columns, refusing columns no set could have
/// written: lengths that disagree, a packed state out of range, a state
/// listed twice in one table, or a device mapped to a missing table.
impl TryFrom<QTableColumns> for QTableSet {
    type Error = serde::Error;

    fn try_from(columns: QTableColumns) -> Result<Self, serde::Error> {
        let QTableColumns {
            sharing,
            rows,
            g,
            l,
            q,
            rng,
            index,
        } = columns;
        let wrong = |column: &str, msg: String| Err(serde::Error::custom(msg).at(column));
        let tables = rows.len();
        let total = rows.iter().try_fold(0usize, |sum, &n| sum.checked_add(n));
        let Some(total) = total.filter(|&total| total == g.len()) else {
            return wrong(
                "rows",
                format!("the row counts do not sum to the {} rows", g.len()),
            );
        };
        if l.len() != total {
            return wrong("l", format!("{} local states for {total} rows", l.len()));
        }
        if q.len() != total * Action::COUNT {
            return wrong(
                "q",
                format!(
                    "{} Q-values for {total} rows of {} actions",
                    q.len(),
                    Action::COUNT
                ),
            );
        }
        if rng.len() != 4 * tables {
            return wrong(
                "rng",
                format!("{} words for {tables} tables of 4", rng.len()),
            );
        }
        if let Some(bad) = index.iter().find(|&&t| t as usize >= tables) {
            return wrong(
                "index",
                format!("device maps to table {bad} but only {tables} tables exist"),
            );
        }
        let mut set = QTableSet {
            sharing,
            rows: q
                .chunks_exact(Action::COUNT)
                .map(|row| row.try_into().expect("chunks of one row"))
                .collect(),
            keys: Vec::with_capacity(total),
            map: HashMap::with_capacity_and_hasher(total, Default::default()),
            rngs: rng
                .chunks_exact(4)
                .map(|w| SmallRng::from_state([w[0], w[1], w[2], w[3]]))
                .collect(),
            index,
        };
        let table_of_row = (0u32..)
            .zip(&rows)
            .flat_map(|(t, &n)| std::iter::repeat(t).take(n));
        for (r, (table, (&g, &l))) in table_of_row.zip(g.iter().zip(&l)).enumerate() {
            if g >> 48 != 0 {
                return wrong(
                    &format!("g[{r}]"),
                    format!("{g} is not a packed global state"),
                );
            }
            if l >> 40 != 0 {
                return wrong(
                    &format!("l[{r}]"),
                    format!("{l} is not a packed local state"),
                );
            }
            let key = key(table, g, l);
            let row = RowId(u32::try_from(r).expect("fewer than 2^32 rows"));
            if set.map.insert(key, row).is_some() {
                return wrong(
                    &format!("l[{r}]"),
                    format!("table {table} lists state ({g:#x}, {l:#x}) twice"),
                );
            }
            set.keys.push(key);
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

        /// The checkpoint columns of the reference tables, rendered from
        /// their maps without the arena: each table's rows sorted by state
        /// bytes, each state packed most significant byte first.
        fn columns(&self) -> QTableColumns {
            let pack = |bytes: &[u8]| bytes.iter().fold(0u64, |p, &b| p << 8 | u64::from(b));
            let mut columns = QTableColumns {
                sharing: self.sharing,
                rows: Vec::new(),
                g: Vec::new(),
                l: Vec::new(),
                q: Vec::new(),
                rng: Vec::new(),
                index: self.index.iter().map(|&t| t as u32).collect(),
            };
            for table in &self.tables {
                let mut rows: Vec<(u64, u64, &Vec<f64>)> = table
                    .entries
                    .iter()
                    .map(|((g, l), q)| {
                        (
                            pack(&[g.conv, g.fc, g.rc, g.batch, g.epochs, g.k]),
                            pack(&[l.co_cpu, l.co_mem, l.network, l.data, l.avail]),
                            q,
                        )
                    })
                    .collect();
                rows.sort_by_key(|&(g, l, _)| (g, l));
                columns.rows.push(rows.len());
                for (g, l, q) in rows {
                    columns.g.push(g);
                    columns.l.push(l);
                    columns.q.extend(q);
                }
                columns.rng.extend(table.rng.state());
            }
            columns
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

    #[test]
    fn reader_refuses_a_state_listed_twice_or_a_short_row() {
        let (mut set, _) = one_row(3);
        let _ = set.row(DeviceId(0), g(), LocalState { avail: 1, ..l() });
        let columns = set.columns();
        assert_eq!(columns.rows[0], 2, "both rows are in device 0's table");
        let mut twice = columns.clone();
        twice.l[1] = twice.l[0];
        let mut short = columns.clone();
        short.q.pop();
        for (bad, expect) in [
            (twice, "l[1]: table 0 lists state"),
            (short, "q: 13 Q-values for 2 rows of 7 actions"),
        ] {
            let err = QTableSet::try_from(bad)
                .expect_err("an inconsistent table must not restore")
                .to_string();
            assert!(err.contains(expect), "{err}");
        }
        assert!(QTableSet::try_from(columns).is_ok());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Random find-or-create, `best_action` and `update` sequences
        /// leave the arena and the reference tables with the same Q bits
        /// after every step and the same checkpoint columns at the end,
        /// and those columns round-trip through their tree. States draw mostly from a few values,
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
                    set = QTableSet::try_from(set.columns()).expect("the set round-trips");
                }
            }
            let columns = set.columns();
            prop_assert!(columns == reference.columns(), "checkpoint columns differ");
            let tree = columns.to_value();
            let read = QTableColumns::from_value(&tree).expect("the columns read back");
            let restored = QTableSet::try_from(read).expect("the set round-trips");
            prop_assert!(restored.columns().to_value() == tree, "round trip changed the tree");
            prop_assert_eq!(restored.num_rows(), set.num_rows());
        }
    }
}
