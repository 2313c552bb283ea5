//! Per-round introspection: the [`RoundObserver`] trait and the JSON
//! Lines sink [`JsonlSink`].
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
        let mut sink = JsonlSink::new(Vec::new());
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

    /// Bytes of the first line a [`JsonlSink`] writes for the Random run
    /// on [`short_config`]: a budget that fits round 0 and fails round 1.
    fn first_line_bytes() -> usize {
        let result = Simulation::new(short_config()).run(&mut RandomSelector::new());
        serde_json::to_string(&result.records[0])
            .expect("round record serializes")
            .len()
            + 1
    }

    #[test]
    fn failing_writer_surfaces_an_error_instead_of_panicking() {
        for ok_bytes in [0, first_line_bytes()] {
            let mut sink = JsonlSink::new(FailingWriter {
                ok_bytes,
                written: 0,
            });
            let err = observed(&short_config(), &RandomSelector, &mut [&mut sink]).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::WriteZero);
        }
    }

    #[test]
    fn failing_writer_stops_the_run_at_the_failing_round() {
        // Enough budget for round 0's line only: the run must stop after
        // round 1's record errors, not execute all 8 rounds.
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
        let mut sink = JsonlSink::new(FailingWriter {
            ok_bytes: first_line_bytes(),
            written: 0,
        });
        let err = observed(&short_config(), &CountingPolicy, &mut [&mut sink]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::WriteZero);
        let ran = SELECTIONS.load(Ordering::Relaxed);
        assert!(ran <= 2, "run must fail fast, ran {ran} rounds");
    }
}
