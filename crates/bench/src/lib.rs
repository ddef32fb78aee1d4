//! Shared helpers for the experiment binaries (the `fig*`/`exp*` bins that
//! regenerate the paper's figures and the extended-evaluation tables).

#![warn(missing_docs)]

pub mod ingest;
pub mod ledger;

use std::fs;
use std::path::PathBuf;

/// Writes experiment CSV output under `results/` (created on demand) and
/// returns the path written.
///
/// # Panics
///
/// Panics when the results directory or file cannot be written — experiment
/// binaries have nothing sensible to do without their output.
pub fn write_results(name: &str, contents: &str) -> PathBuf {
    let dir = PathBuf::from("results");
    fs::create_dir_all(&dir).expect("create results dir");
    let path = dir.join(name);
    fs::write(&path, contents).expect("write results file");
    path
}

/// Formats a row of right-aligned columns for the stdout tables.
pub fn row(cells: &[String], widths: &[usize]) -> String {
    cells
        .iter()
        .zip(widths)
        .map(|(c, w)| format!("{c:>width$}", width = w))
        .collect::<Vec<_>>()
        .join("  ")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn row_aligns() {
        let r = row(&["a".into(), "bb".into()], &[3, 4]);
        assert_eq!(r, "  a    bb");
    }
}
