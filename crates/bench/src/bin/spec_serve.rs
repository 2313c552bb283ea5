//! The checkpoint/resume experiment daemon over a queue directory of
//! [`autofl_fed::spec::ExperimentSpec`] JSON files.
//!
//! ```sh
//! cargo run --release -p autofl-bench --bin spec_serve -- --root runs --once
//! cp tests/specs/smoke.json runs/queue/   # then: watch runs/done/
//! ```
//!
//! Jobs move `queue/<job>.json` → `active/<job>/` → `done/<job>/`, or
//! to `failed/<job>/` with an `error.txt` when their spec or a
//! checkpoint is refused (`--once` then exits non-zero). Each
//! `(policy, repeat)` unit streams `traces/<policy>-r<i>.jsonl` and
//! checkpoints `state/<policy>-r<i>.ckpt.json` every `--checkpoint-every`
//! rounds. Killing the daemon at any point is safe: restarting it resumes
//! every interrupted unit from its checkpoint and the finished trace is
//! byte-for-byte the trace of an uninterrupted run (see
//! `docs/serving.md`).
//!
//! `--crash-after-rounds N` is the CI hook that makes "killing it" a
//! deterministic test: the process hard-aborts after N rounds have been
//! emitted across all units, exactly like a SIGKILL.

use autofl_bench::standard_registry;
use autofl_fed::serve::{serve, ServeOptions};
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!(
        "usage: spec_serve --root <dir> [--once] [--poll-ms <ms>] \
         [--checkpoint-every <rounds>] [--crash-after-rounds <n>]"
    );
    ExitCode::FAILURE
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let value_of = |flag: &str| {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .cloned()
    };
    let Some(root) = value_of("--root") else {
        return usage();
    };
    let mut opts = ServeOptions::new(root);
    opts.once = args.iter().any(|a| a == "--once");
    if let Some(ms) = value_of("--poll-ms") {
        match ms.parse() {
            Ok(ms) => opts.poll_ms = ms,
            Err(_) => return usage(),
        }
    }
    if let Some(every) = value_of("--checkpoint-every") {
        match every.parse() {
            Ok(every) if every > 0 => opts.checkpoint_every = every,
            _ => return usage(),
        }
    }
    if let Some(n) = value_of("--crash-after-rounds") {
        match n.parse() {
            Ok(n) => opts.crash_after_records = Some(n),
            Err(_) => return usage(),
        }
    }

    match serve(&standard_registry(), &opts) {
        Ok(report) => {
            println!(
                "spec_serve: drained {} job(s), {} unit(s), {} failed, under {}",
                report.jobs,
                report.units,
                report.failed,
                opts.root.display()
            );
            if report.failed > 0 {
                eprintln!("spec_serve: see failed/<job>/error.txt");
                return ExitCode::FAILURE;
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("spec_serve: {e}");
            ExitCode::FAILURE
        }
    }
}
