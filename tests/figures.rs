//! The paper's figures, pinned: the full text of each of the twelve
//! figures that reproduce a table or figure of the paper, as FNV-1a
//! digests in [`FIGURE_DIGESTS`].
//!
//! A figure prints the same bytes at any thread count and in the test and
//! release profiles, so CI's thread matrix checks both thread counts
//! against one file. After an intentional change to a figure, regenerate
//! the file and commit it: `AUTOFL_REGEN_SPECS=1 cargo test --test
//! figures`.

mod common;

use autofl_bench::figures;
use common::fnv1a_hex;

/// The golden file of paper-figure digests, keyed by figure name.
const FIGURE_DIGESTS: &str = "tests/specs/figure_digests.json";

/// The figures that reproduce the paper, in file order. The studies
/// (`fig16`, `fig_adv`, `fig_async`, `fig_comm`, `fig_tune`) and the
/// wall-clock `overhead_report` are not pinned here.
const PAPER_FIGURES: [&str; 12] = [
    "fig01", "fig04", "fig05", "fig06", "fig08", "fig09", "fig10", "fig11", "fig12", "fig13",
    "fig14", "fig15",
];

#[test]
fn paper_figures_match_their_pinned_digests() {
    let entries: Vec<(String, serde_json::Value)> = PAPER_FIGURES
        .iter()
        .map(|&name| {
            let render = figures::find(name).expect("every paper figure is named");
            let text = render(false);
            (
                name.to_string(),
                serde_json::Value::Str(fnv1a_hex(text.as_bytes())),
            )
        })
        .collect();
    let text = serde_json::to_string_pretty(&serde_json::Value::Map(entries))
        .expect("digests serialize")
        + "\n";
    if std::env::var("AUTOFL_REGEN_SPECS").is_ok() {
        std::fs::write(FIGURE_DIGESTS, &text).expect("write figure digests");
        return;
    }
    let golden = std::fs::read_to_string(FIGURE_DIGESTS)
        .unwrap_or_else(|e| panic!("{FIGURE_DIGESTS}: {e} (AUTOFL_REGEN_SPECS=1 to create)"));
    assert_eq!(
        golden, text,
        "{FIGURE_DIGESTS} is stale or not canonical: a paper figure's text changed \
         (AUTOFL_REGEN_SPECS=1 to regenerate intentionally)"
    );
}
