//! Per-round introspection: the [`RoundObserver`] trait and built-in
//! sinks.
//!
//! Observers attach to a policy run through
//! [`crate::serve::ExperimentRun::finish`] and see every [`RoundRecord`]
//! as it is produced, so live progress reporting and machine-readable
//! traces no longer require re-mining the returned [`SimResult`] or
//! sprinkling `println!` through runner binaries.
//!
//! ```
//! use autofl_fed::engine::Simulation;
//! use autofl_fed::global::GlobalParams;
//! use autofl_fed::observe::{JsonlSink, RoundObserver};
//! use autofl_fed::selection::RandomSelector;
//! use autofl_fed::serve::ExperimentRun;
//! use autofl_nn::zoo::Workload;
//!
//! let mut sink = JsonlSink::new(Vec::new());
//! let config = Simulation::builder(Workload::TinyTest)
//!     .devices(12).params(GlobalParams::new(8, 1, 4))
//!     .samples_per_device(24).test_samples(48)
//!     .max_rounds(5).target_accuracy(1.1).seed(1)
//!     .build_config().unwrap();
//! let run = ExperimentRun::new(&config, &RandomSelector, None).unwrap();
//! let result = run.finish(&mut [&mut sink]).unwrap();
//! let lines = String::from_utf8(sink.into_inner()).unwrap();
//! assert_eq!(lines.lines().count(), result.records.len());
//! ```

use crate::engine::{RoundRecord, SimResult};
use std::io::{self, Write};

/// Observes the lifecycle of a simulation run.
///
/// All methods default to no-ops so observers implement only what they
/// need. Each hook returns [`io::Result`]: a sink whose writer fails (a
/// closed pipe, a full disk) surfaces the error through
/// [`crate::serve::ExperimentRun::finish`] instead of panicking
/// mid-experiment, and the run stops at the failing round (fail-fast — no
/// further rounds execute once an observer errors).
pub trait RoundObserver {
    /// Called with the completed round's record.
    fn on_round_end(&mut self, record: &RoundRecord) -> io::Result<()> {
        let _ = record;
        Ok(())
    }

    /// Called once if (and when) the run reaches its convergence target.
    fn on_converged(&mut self, result: &SimResult) -> io::Result<()> {
        let _ = result;
        Ok(())
    }
}

/// Streams one CSV row per round to any writer.
///
/// Columns: `round,accuracy,round_time_s,active_energy_j,idle_energy_j,`
/// `participants,dropped,dropouts,ineligible,logical_time_s,`
/// `mean_staleness` — the id lists are space-separated so the file stays
/// quote-free. The `logical_time_s` and `mean_staleness` columns carry
/// the event scheduler's clock and staleness (see
/// `docs/async-runtime.md`); under the full barrier they are the
/// cumulative round time and 0.
pub struct CsvSink<W: Write> {
    out: W,
    wrote_header: bool,
}

impl<W: Write> std::fmt::Debug for CsvSink<W> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CsvSink")
            .field("wrote_header", &self.wrote_header)
            .finish()
    }
}

impl<W: Write> CsvSink<W> {
    /// A sink writing to `out`.
    pub fn new(out: W) -> Self {
        CsvSink {
            out,
            wrote_header: false,
        }
    }

    /// Consumes the sink and returns the writer.
    pub fn into_inner(self) -> W {
        self.out
    }
}

fn join_ids(ids: &[autofl_device::fleet::DeviceId]) -> String {
    ids.iter()
        .map(|id| id.0.to_string())
        .collect::<Vec<_>>()
        .join(" ")
}

impl<W: Write> RoundObserver for CsvSink<W> {
    fn on_round_end(&mut self, record: &RoundRecord) -> io::Result<()> {
        if !self.wrote_header {
            writeln!(
                self.out,
                "round,accuracy,round_time_s,active_energy_j,idle_energy_j,\
                 participants,dropped,dropouts,ineligible,logical_time_s,\
                 mean_staleness,bytes_up,bytes_down,net_drops,partitioned"
            )?;
            self.wrote_header = true;
        }
        // The four network columns read 0 when no fabric is attached
        // (`record.net` is `None`), keeping every row the same width.
        let net = record.net.unwrap_or_default();
        writeln!(
            self.out,
            "{},{},{},{},{},{},{},{},{},{},{},{},{},{},{}",
            record.round,
            record.accuracy,
            record.round_time_s,
            record.active_energy_j,
            record.idle_energy_j,
            join_ids(&record.participants),
            join_ids(&record.dropped),
            join_ids(&record.dropouts),
            record.ineligible,
            record.logical_time_s,
            record.mean_staleness,
            net.bytes_uplinked,
            net.bytes_downlinked,
            net.net_drops,
            net.partitioned,
        )
    }
}

/// Streams one JSON object per round (JSON Lines) to any writer — the
/// full [`RoundRecord`], including execution plans and update fractions.
pub struct JsonlSink<W: Write> {
    out: W,
}

impl<W: Write> std::fmt::Debug for JsonlSink<W> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JsonlSink").finish()
    }
}

impl<W: Write> JsonlSink<W> {
    /// A sink writing to `out`.
    pub fn new(out: W) -> Self {
        JsonlSink { out }
    }

    /// Consumes the sink and returns the writer.
    pub fn into_inner(self) -> W {
        self.out
    }
}

impl<W: Write> RoundObserver for JsonlSink<W> {
    fn on_round_end(&mut self, record: &RoundRecord) -> io::Result<()> {
        // Serialization itself is infallible (every record field maps to a
        // JSON value); only the writer can fail.
        let line = serde_json::to_string(record).expect("round record serializes");
        writeln!(self.out, "{line}")
    }
}

/// Live progress on stderr: one line every `every` rounds plus a
/// convergence summary.
#[derive(Debug, Clone)]
pub struct Progress {
    every: usize,
    label: String,
}

impl Progress {
    /// Reports every `every` rounds (clamped to at least 1) under `label`.
    pub fn new(label: impl Into<String>, every: usize) -> Self {
        Progress {
            every: every.max(1),
            label: label.into(),
        }
    }
}

impl RoundObserver for Progress {
    fn on_round_end(&mut self, record: &RoundRecord) -> io::Result<()> {
        if record.round % self.every == 0 {
            eprintln!(
                "[{}] round {:>4}  acc {:>5.1}%  {:>6.1} s/round  {:>8.0} J",
                self.label,
                record.round,
                record.accuracy * 100.0,
                record.round_time_s,
                record.total_energy_j(),
            );
        }
        Ok(())
    }

    fn on_converged(&mut self, result: &SimResult) -> io::Result<()> {
        eprintln!(
            "[{}] converged at round {} ({:.1}% >= {:.1}%)",
            self.label,
            result
                .converged_round()
                .expect("on_converged implies round"),
            result.final_accuracy() * 100.0,
            result.target_accuracy * 100.0,
        );
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{SimConfig, Simulation};
    use crate::policy::Policy;
    use crate::selection::{RandomSelector, Selector};
    use crate::serve::ExperimentRun;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn short_config() -> SimConfig {
        let mut cfg = SimConfig::tiny_test(1);
        cfg.max_rounds = 8;
        cfg.target_accuracy = Some(1.1); // never converge: fixed row count
        cfg
    }

    /// Runs `policy` on `config` to the end with `observers` attached.
    fn observed(
        config: &SimConfig,
        policy: &dyn Policy,
        observers: &mut [&mut dyn RoundObserver],
    ) -> io::Result<SimResult> {
        ExperimentRun::new(config, policy, None)
            .expect("valid test config")
            .finish(observers)
    }

    #[test]
    fn csv_sink_writes_header_and_one_row_per_round() {
        let mut sink = CsvSink::new(Vec::new());
        let result = observed(&short_config(), &RandomSelector, &mut [&mut sink]).unwrap();
        let text = String::from_utf8(sink.into_inner()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), result.records.len() + 1);
        assert!(lines[0].starts_with("round,accuracy"));
        assert!(lines[1].starts_with("0,"));
    }

    #[test]
    fn jsonl_sink_rows_parse_back_to_records() {
        let mut sink = JsonlSink::new(Vec::new());
        let result = observed(&short_config(), &RandomSelector, &mut [&mut sink]).unwrap();
        let text = String::from_utf8(sink.into_inner()).unwrap();
        for (line, record) in text.lines().zip(&result.records) {
            let parsed: RoundRecord = serde_json::from_str(line).expect("JSONL line parses");
            assert_eq!(parsed.round, record.round);
            assert_eq!(parsed.participants, record.participants);
            assert_eq!(parsed.accuracy.to_bits(), record.accuracy.to_bits());
            assert_eq!(parsed.plans, record.plans);
        }
    }

    #[test]
    fn observers_do_not_perturb_the_run() {
        let plain = Simulation::new(short_config()).run(&mut RandomSelector::new());
        let mut sink = CsvSink::new(Vec::new());
        let observed = observed(&short_config(), &RandomSelector, &mut [&mut sink]).unwrap();
        assert_eq!(plain.records.len(), observed.records.len());
        for (a, b) in plain.records.iter().zip(&observed.records) {
            assert_eq!(a.participants, b.participants);
            assert_eq!(a.accuracy.to_bits(), b.accuracy.to_bits());
        }
    }

    #[test]
    fn on_converged_fires_only_on_reached_targets() {
        struct Count(usize);
        impl RoundObserver for Count {
            fn on_converged(&mut self, _: &SimResult) -> io::Result<()> {
                self.0 += 1;
                Ok(())
            }
        }
        let mut count = Count(0);
        let result =
            observed(&SimConfig::tiny_test(1), &RandomSelector, &mut [&mut count]).unwrap();
        assert!(result.converged());
        assert_eq!(count.0, 1);

        let mut count = Count(0);
        let _ = observed(&short_config(), &RandomSelector, &mut [&mut count]).unwrap();
        assert_eq!(count.0, 0, "unreachable target must not fire on_converged");
    }

    /// A writer that accepts `ok_bytes` bytes, then fails every write —
    /// the closed-pipe / full-disk case the sinks must surface instead of
    /// panicking.
    struct FailingWriter {
        ok_bytes: usize,
        written: usize,
    }

    impl Write for FailingWriter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            if self.written + buf.len() > self.ok_bytes {
                return Err(io::Error::new(io::ErrorKind::WriteZero, "disk full"));
            }
            self.written += buf.len();
            Ok(buf.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn failing_writer_surfaces_an_error_instead_of_panicking() {
        for ok_bytes in [0usize, 200] {
            let mut sink = CsvSink::new(FailingWriter {
                ok_bytes,
                written: 0,
            });
            let err = observed(&short_config(), &RandomSelector, &mut [&mut sink]).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::WriteZero);
        }
        let mut sink = JsonlSink::new(FailingWriter {
            ok_bytes: 0,
            written: 0,
        });
        let err = observed(&short_config(), &RandomSelector, &mut [&mut sink]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::WriteZero);
    }

    #[test]
    fn failing_writer_stops_the_run_at_the_failing_round() {
        // Enough budget for the header + first row only: the run must
        // stop after round 0's record errors, not execute all 8 rounds.
        static SELECTIONS: AtomicUsize = AtomicUsize::new(0);
        struct CountingSelector(RandomSelector);
        impl Selector for CountingSelector {
            fn select(
                &mut self,
                ctx: &crate::selection::RoundContext<'_>,
                rng: &mut rand::rngs::SmallRng,
            ) -> crate::selection::SelectionDecision {
                SELECTIONS.fetch_add(1, Ordering::Relaxed);
                self.0.select(ctx, rng)
            }
            fn name(&self) -> &'static str {
                "counting"
            }
        }
        struct CountingPolicy;
        impl Policy for CountingPolicy {
            fn name(&self) -> &str {
                "counting"
            }
            fn make_selector(&self) -> Box<dyn Selector> {
                Box::new(CountingSelector(RandomSelector::new()))
            }
        }
        let mut sink = CsvSink::new(FailingWriter {
            ok_bytes: 200,
            written: 0,
        });
        let err = observed(&short_config(), &CountingPolicy, &mut [&mut sink]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::WriteZero);
        let ran = SELECTIONS.load(Ordering::Relaxed);
        assert!(ran <= 2, "run must fail fast, ran {ran} rounds");
    }
}
