//! The `figures` binary refuses a call that names no figure, or an
//! unknown one, and lists the names it knows; every listed name resolves.

use autofl_bench::figures::{find, FIGURES};
use std::process::Command;

#[test]
fn figures_without_a_known_name_fails_and_lists_every_name() {
    let known: Vec<&str> = FIGURES.iter().map(|&(name, _)| name).collect();
    for args in [&[][..], &["--smoke"], &["fig99"], &["fig01", "fig_nope"]] {
        let output = Command::new(env!("CARGO_BIN_EXE_figures"))
            .args(args)
            .output()
            .expect("the figures binary starts");
        assert!(!output.status.success(), "figures {args:?} must fail");
        assert!(output.stdout.is_empty(), "figures {args:?} ran a figure");
        let stderr = String::from_utf8(output.stderr).expect("usage is UTF-8");
        let listed: Vec<&str> = stderr
            .lines()
            .find_map(|line| line.strip_prefix("names: "))
            .unwrap_or_else(|| panic!("figures {args:?} lists no names:\n{stderr}"))
            .split(' ')
            .collect();
        assert_eq!(listed, known, "figures {args:?}");
    }
    for name in known {
        assert!(find(name).is_some(), "`{name}` does not resolve");
    }
}
