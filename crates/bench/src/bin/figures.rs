//! Prints the paper's figures and the extension studies by name (see
//! [`autofl_bench::figures`]).
//!
//! ```sh
//! cargo run --release -p autofl-bench --bin figures -- fig08
//! cargo run --release -p autofl-bench --bin figures -- fig16 fig_comm --smoke
//! ```
//!
//! `--smoke` selects the CI scale of the studies that have one. With no
//! name, or an unknown one, it lists the known names and exits non-zero
//! before running anything.

use autofl_bench::figures::{find, FIGURES};
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut smoke = false;
    let mut renders = Vec::new();
    for arg in std::env::args().skip(1) {
        if arg == "--smoke" {
            smoke = true;
        } else if let Some(render) = find(&arg) {
            renders.push(render);
        } else {
            eprintln!("figures: unknown figure `{arg}`");
            return usage();
        }
    }
    if renders.is_empty() {
        return usage();
    }
    for render in renders {
        print!("{}", render(smoke));
    }
    ExitCode::SUCCESS
}

fn usage() -> ExitCode {
    let names: Vec<&str> = FIGURES.iter().map(|&(name, _)| name).collect();
    eprintln!("usage: figures <name>... [--smoke]");
    eprintln!("names: {}", names.join(" "));
    ExitCode::FAILURE
}
