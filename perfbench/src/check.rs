//! The correctness gate: invariants every emitted round record must
//! satisfy, checked from outside the library, plus a stable per-record
//! digest for comparing two runs of the same inputs.

use autofl_fed::engine::RoundRecord;

/// Checks one record against the round invariants. `max_k` is the
/// cohort size the run advertised to its selector.
pub fn check_record(rec: &RoundRecord, max_k: usize) -> Result<(), String> {
    let n = rec.participants.len();
    let fail = |what: String| Err(format!("round {}: {what}", rec.round));
    if n > max_k {
        return fail(format!("cohort of {n} exceeds the advertised K={max_k}"));
    }
    if rec.plans.len() != n || rec.update_fractions.len() != n {
        return fail("plans/fractions not aligned with participants".into());
    }
    let mut ids: Vec<usize> = rec.participants.iter().map(|id| id.0).collect();
    ids.sort_unstable();
    if ids.windows(2).any(|w| w[0] == w[1]) {
        return fail("a participant was selected twice".into());
    }
    let is_member = |id: usize| ids.binary_search(&id).is_ok();
    if !rec
        .dropped
        .iter()
        .chain(&rec.dropouts)
        .all(|id| is_member(id.0))
    {
        return fail("dropped/dropouts not a subset of participants".into());
    }
    if rec.dropped.iter().any(|d| rec.dropouts.contains(d)) {
        return fail("dropped and dropouts intersect".into());
    }
    // Survivors (positive update fraction) are participants by
    // construction; they must also be neither dropped nor dropouts.
    let survivors = rec.survivors();
    if survivors
        .iter()
        .any(|s| rec.dropped.contains(s) || rec.dropouts.contains(s))
    {
        return fail("a survivor is also dropped or a dropout".into());
    }
    let unit = |x: f64| x.is_finite() && (0.0..=1.0).contains(&x);
    if !rec.update_fractions.iter().all(|&f| unit(f)) || !unit(rec.accuracy) {
        return fail("a fraction or the accuracy lies outside [0, 1]".into());
    }
    let non_negative = |x: f64| x.is_finite() && x >= 0.0;
    if !non_negative(rec.active_energy_j) || !non_negative(rec.idle_energy_j) {
        return fail("an energy is negative or not finite".into());
    }
    if !non_negative(rec.round_time_s) || rec.round_time_s == 0.0 {
        return fail("round time is not a finite positive number".into());
    }
    if !non_negative(rec.mean_staleness) {
        return fail("mean staleness is negative or not finite".into());
    }
    if rec.logical_time_s.is_nan() || rec.logical_time_s < rec.dispatch_time_s {
        return fail("logical_time_s precedes dispatch_time_s".into());
    }
    Ok(())
}

/// FNV-1a 64-bit digest of the record's canonical JSON serialization.
pub fn digest(rec: &RoundRecord) -> u64 {
    let text = serde_json::to_string(rec).expect("round records serialize");
    fnv1a(text.as_bytes(), 0xcbf2_9ce4_8422_2325)
}

/// Folds a sequence of record digests into one.
pub fn combine(digests: &[u64]) -> u64 {
    digests
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, d| fnv1a(&d.to_le_bytes(), h))
}

fn fnv1a(bytes: &[u8], mut hash: u64) -> u64 {
    for byte in bytes {
        hash ^= u64::from(*byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Counts operations and failures, keeping the first few messages.
#[derive(Debug, Default)]
pub struct Gate {
    pub attempted: usize,
    pub failed: usize,
    pub messages: Vec<String>,
}

impl Gate {
    /// Records one operation's outcome.
    pub fn record(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(message) = outcome {
            self.fail(message);
        }
    }

    /// Records a failure of an operation already counted (or of the run
    /// as a whole).
    pub fn fail(&mut self, message: String) {
        self.failed += 1;
        if self.messages.len() < 8 {
            self.messages.push(message);
        }
    }

    /// Compares two digest sequences over their common prefix, which must
    /// hold at least `min_common` records.
    pub fn same_prefix(&mut self, what: &str, a: &[u64], b: &[u64], min_common: usize) {
        let common = a.len().min(b.len());
        if common < min_common {
            self.fail(format!(
                "{what}: only {common} records to compare, need {min_common}"
            ));
        } else if let Some(i) = (0..common).find(|&i| a[i] != b[i]) {
            self.fail(format!("{what}: record {i} differs"));
        }
    }
}
