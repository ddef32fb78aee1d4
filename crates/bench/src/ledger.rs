//! The per-layer timing ledger, `BENCH_layers.json`, and its regression
//! gate.
//!
//! The file is a JSON array with one row object per line:
//!
//! ```text
//! [
//! {"row": "e3.save", "ns": 86.066, "reference_ns": 24.112},
//! {"row": "e3.save_slot", "ns": 21.270, "reference_ns": 24.095}
//! ]
//! ```
//!
//! `ns` is the row's fastest time per operation and `reference_ns` the
//! fastest step time of a fixed host-speed reference pass timed next to it,
//! so `ns / reference_ns` compares across runs on a host whose speed drifts.
//! [`parse`] accepts exactly what [`render`] writes and nothing else.

use std::collections::HashSet;

/// A row fails the gate when its reference-scaled time is this many times
/// its committed one. Wide, because the host is shared and noisy.
pub const SLOWDOWN_LIMIT: f64 = 2.0;

/// One measured row.
#[derive(Debug, PartialEq)]
pub struct Row {
    /// Name: lowercase ASCII letters, digits, `_` and `.`.
    pub row: String,
    /// Fastest time per operation, in nanoseconds.
    pub ns: f64,
    /// Fastest step time of the reference pass timed next to the row.
    pub reference_ns: f64,
}

impl Row {
    /// The row's time in reference steps.
    fn scaled(&self) -> f64 {
        self.ns / self.reference_ns
    }
}

/// How a measured row compares with the committed ledger.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Change {
    /// The committed ledger has no row of this name.
    New,
    /// Reference-scaled time over the committed reference-scaled time.
    Ratio(f64),
}

impl Change {
    /// Whether the row passes the gate: it is committed and less than
    /// [`SLOWDOWN_LIMIT`] times slower than committed.
    pub fn passes(self) -> bool {
        matches!(self, Change::Ratio(ratio) if ratio < SLOWDOWN_LIMIT)
    }
}

/// The ledger file's text for `rows`.
pub fn render(rows: &[Row]) -> String {
    let lines: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                "{{\"row\": \"{}\", \"ns\": {:.3}, \"reference_ns\": {:.3}}}",
                r.row, r.ns, r.reference_ns
            )
        })
        .collect();
    format!("[\n{}\n]\n", lines.join(",\n"))
}

/// Reads a ledger written by [`render`]: at least one row, no duplicate
/// names, every time finite and positive.
pub fn parse(text: &str) -> Result<Vec<Row>, String> {
    let body = text
        .strip_prefix("[\n")
        .and_then(|t| t.strip_suffix("\n]\n"))
        .ok_or("not a `[` line, row lines and a `]` line")?;
    let lines: Vec<&str> = body.split('\n').collect();
    let mut names = HashSet::new();
    let mut rows = Vec::with_capacity(lines.len());
    for (i, line) in lines.iter().enumerate() {
        let object = if i + 1 < lines.len() {
            line.strip_suffix(',')
        } else {
            Some(*line)
        };
        let row = object
            .and_then(parse_row)
            .ok_or_else(|| format!("line {}: not a row object: {line}", i + 2))?;
        if !names.insert(row.row.clone()) {
            return Err(format!("line {}: row {} appears twice", i + 2, row.row));
        }
        rows.push(row);
    }
    Ok(rows)
}

fn parse_row(object: &str) -> Option<Row> {
    let rest = object.strip_prefix("{\"row\": \"")?;
    let (row, rest) = rest.split_once("\", \"ns\": ")?;
    let (ns, rest) = rest.split_once(", \"reference_ns\": ")?;
    let reference_ns = rest.strip_suffix('}')?;
    let valid_name = !row.is_empty()
        && row
            .bytes()
            .all(|b| b.is_ascii_lowercase() || b.is_ascii_digit() || b == b'_' || b == b'.');
    if !valid_name {
        return None;
    }
    let time = |s: &str| s.parse::<f64>().ok().filter(|t| t.is_finite() && *t > 0.0);
    Some(Row {
        row: row.to_string(),
        ns: time(ns)?,
        reference_ns: time(reference_ns)?,
    })
}

/// Compares freshly measured rows with the committed ledger's text, one
/// [`Change`] per fresh row. Fails when the committed text is malformed or
/// holds a row that was not measured.
pub fn compare(committed: &str, fresh: &[Row]) -> Result<Vec<Change>, String> {
    let committed = parse(committed)?;
    if let Some(gone) = committed
        .iter()
        .find(|c| !fresh.iter().any(|f| f.row == c.row))
    {
        return Err(format!(
            "row {} is in the committed ledger but was not measured",
            gone.row
        ));
    }
    Ok(fresh
        .iter()
        .map(|f| match committed.iter().find(|c| c.row == f.row) {
            Some(c) => Change::Ratio(f.scaled() / c.scaled()),
            None => Change::New,
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(name: &str, ns: f64, reference_ns: f64) -> Row {
        Row {
            row: name.to_string(),
            ns,
            reference_ns,
        }
    }

    #[test]
    fn render_and_parse_round_trip() {
        let rows = vec![
            row("e1.hook", 2.5, 10.0),
            row("wal.append_group8", 120.25, 9.5),
        ];
        assert_eq!(parse(&render(&rows)), Ok(rows));
    }

    #[test]
    fn slowdown_is_measured_in_reference_steps_and_gated_at_two() {
        // Committed: 10 ns at 5 ns per reference step, i.e. 2 steps.
        let committed = render(&[row("a", 10.0, 5.0), row("b", 10.0, 5.0)]);
        // A host twice as slow doubles both times: no slowdown.
        let fresh = [row("a", 20.0, 10.0), row("b", 40.0, 10.0)];
        let changes = compare(&committed, &fresh).expect("committed ledger parses");
        assert_eq!(changes, [Change::Ratio(1.0), Change::Ratio(2.0)]);
        assert!(changes[0].passes());
        assert!(!changes[1].passes(), "2.0x slower must fail");
        let fresh = [row("a", 10.0, 5.0), row("b", 38.0, 10.0)];
        let changes = compare(&committed, &fresh).expect("committed ledger parses");
        assert!(changes.iter().all(|c| c.passes()), "1.9x slower passes");
    }

    #[test]
    fn malformed_ledgers_are_errors() {
        let fresh = [row("a", 1.0, 1.0)];
        let good = render(&fresh);
        assert!(compare(&good, &fresh).is_ok());
        for bad in [
            String::new(),
            "[\n]\n".to_string(),
            good.replace("\n]\n", "\n]"),
            good.replace("\"ns\": 1.000", "\"ns\": 0.000"),
            good.replace("\"ns\": 1.000", "\"ns\": NaN"),
            good.replace("\"ns\": 1.000", "\"ns\": 1.0,"),
            good.replace("\"row\": \"a\"", "\"row\": \"A\""),
            good.replace("\"reference_ns\"", "\"ref_ns\""),
            render(&[row("a", 1.0, 1.0), row("a", 2.0, 1.0)]),
            render(&[row("a", 1.0, 1.0), row("b", 2.0, 1.0)]).replace("},\n", "}\n"),
        ] {
            assert!(compare(&bad, &fresh).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn a_committed_row_that_was_not_measured_is_an_error() {
        let committed = render(&[row("a", 1.0, 1.0), row("b", 1.0, 1.0)]);
        let err = compare(&committed, &[row("a", 1.0, 1.0)]).unwrap_err();
        assert!(err.contains("row b"), "{err}");
    }

    #[test]
    fn a_new_row_is_reported_as_new_and_fails_the_gate() {
        let committed = render(&[row("a", 1.0, 1.0)]);
        let fresh = [row("a", 1.0, 1.0), row("b", 1.0, 1.0)];
        let changes = compare(&committed, &fresh).expect("committed ledger parses");
        assert_eq!(changes, [Change::Ratio(1.0), Change::New]);
        assert!(!changes[1].passes());
    }
}
