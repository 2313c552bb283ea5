//! Executes a declarative [`ExperimentSpec`] JSON file against the
//! standard policy registry and prints the normalised comparison rows the
//! figures report — every figure row is reproducible from a checked-in
//! file instead of code.
//!
//! ```sh
//! cargo run --release -p autofl-bench --bin spec_run -- tests/specs/fig04_s3_cnn.json
//! cargo run --release -p autofl-bench --bin spec_run -- spec.json --trace rounds.jsonl
//! ```
//!
//! `--trace FILE` additionally re-runs the spec's *first* policy at the
//! first repeat's seed (under the spec's `control`, if any) with a JSONL
//! round sink attached, writing one JSON object per round for offline
//! analysis — the same bytes `spec_serve` writes to that unit's trace.

use autofl_bench::{rows_table, standard_registry, Row};
use autofl_fed::observe::JsonlSink;
use autofl_fed::serve::ExperimentRun;
use autofl_fed::spec::ExperimentSpec;
use std::io::{BufWriter, Write};
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!("usage: spec_run <spec.json> [--trace <rounds.jsonl>]");
    ExitCode::FAILURE
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(spec_path) = args.first().filter(|a| !a.starts_with("--")) else {
        return usage();
    };
    let trace_path = match args.iter().position(|a| a == "--trace") {
        Some(i) => match args.get(i + 1) {
            Some(p) => Some(p.clone()),
            None => return usage(),
        },
        None => None,
    };

    let text = match std::fs::read_to_string(spec_path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("spec_run: cannot read {spec_path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let spec = match ExperimentSpec::from_json(&text) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("spec_run: {spec_path}: {e}");
            return ExitCode::FAILURE;
        }
    };

    println!(
        "== spec `{}`: {} on {} devices, {} polic{}, {} repeat{} ==",
        spec.name,
        spec.config.workload.name(),
        spec.config.num_devices,
        spec.policies.len(),
        if spec.policies.len() == 1 { "y" } else { "ies" },
        spec.repeats,
        if spec.repeats == 1 { "" } else { "s" },
    );

    let registry = standard_registry();
    let runs = match spec.run(&registry) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("spec_run: {spec_path}: {e}");
            return ExitCode::FAILURE;
        }
    };

    // `ExperimentSpec::run` returns repeat-major groups in policy order;
    // normalise each repeat against its own first policy, like the figures
    // do.
    for (repeat, chunk) in runs.chunks(spec.policies.len()).enumerate() {
        let results: Vec<_> = chunk.iter().map(|r| &r.result).collect();
        let rows = Row::normalised(&results);
        print!(
            "{}",
            rows_table(
                &format!("{} (repeat {repeat}, seed {})", spec.name, chunk[0].seed),
                &rows,
            )
        );
    }

    if let Some(path) = trace_path {
        // `spec.run` already resolved every policy name, so a miss here
        // is unreachable in practice — but a registry change between the
        // two lookups should fail cleanly, not panic.
        let Some(policy) = registry.get(&spec.policies[0]) else {
            eprintln!(
                "spec_run: policy `{}` vanished from the registry",
                spec.policies[0]
            );
            return ExitCode::FAILURE;
        };
        let file = match std::fs::File::create(&path) {
            Ok(f) => f,
            Err(e) => {
                eprintln!("spec_run: cannot create {path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        let run = match ExperimentRun::new(&spec.config, policy, spec.control) {
            Ok(run) => run,
            Err(e) => {
                eprintln!("spec_run: {spec_path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        let mut sink = JsonlSink::new(BufWriter::new(file));
        let finished = run.finish(&mut [&mut sink]);
        // The last buffered bytes reach the file only on a flush, whose
        // error a dropped `BufWriter` would swallow.
        let result = match finished.and_then(|r| sink.into_inner().flush().map(|()| r)) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("spec_run: trace write to {path} failed: {e}");
                return ExitCode::FAILURE;
            }
        };
        println!(
            "\ntraced {} rounds of {} into {path}",
            result.records.len(),
            result.policy
        );
    }
    ExitCode::SUCCESS
}
