//! Plain-text tables and JSON result dumps.

use std::fmt::Write as _;
use std::fs;
use std::path::Path;

use crate::args::Options;

/// A paper artifact's records, as `repro` prints and dumps them.
pub trait Artifact {
    /// The text tables, rendered from the records.
    fn render(&self, options: &Options) -> String;
    /// The records `--json` writes.
    fn json(&self) -> serde_json::Value;
}

/// A simple column-aligned text table for experiment output.
///
/// # Examples
///
/// ```
/// use snnmap_bench::table::Table;
///
/// let mut t = Table::new(&["method", "energy"]);
/// t.row(&["Random", "1.00"]);
/// t.row(&["Proposed", "0.08"]);
/// let s = t.render();
/// assert!(s.contains("Proposed"));
/// ```
#[derive(Debug, Clone)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new(headers: &[&str]) -> Self {
        Self { headers: headers.iter().map(|s| s.to_string()).collect(), rows: Vec::new() }
    }

    /// Appends a row; missing cells render empty, extra cells are kept.
    pub fn row<S: AsRef<str>>(&mut self, cells: &[S]) -> &mut Self {
        self.rows.push(cells.iter().map(|c| c.as_ref().to_string()).collect());
        self
    }

    /// Renders the table with aligned columns.
    pub fn render(&self) -> String {
        let cols = self
            .rows
            .iter()
            .map(|r| r.len())
            .chain(std::iter::once(self.headers.len()))
            .max()
            .unwrap_or(0);
        let mut widths = vec![0usize; cols];
        for (i, h) in self.headers.iter().enumerate() {
            widths[i] = widths[i].max(h.len());
        }
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |out: &mut String, cells: &[String]| {
            for (i, w) in widths.iter().enumerate() {
                let empty = String::new();
                let c = cells.get(i).unwrap_or(&empty);
                let _ = write!(out, "{c:<w$}  ");
            }
            while out.ends_with(' ') {
                out.pop();
            }
            out.push('\n');
        };
        fmt_row(&mut out, &self.headers);
        let total: usize = widths.iter().sum::<usize>() + 2 * widths.len().saturating_sub(1);
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            fmt_row(&mut out, row);
        }
        out
    }
}

/// Writes a serializable result to a JSON file (pretty-printed).
///
/// # Errors
///
/// Propagates I/O and serialization errors.
pub fn write_json<T: serde::Serialize>(
    path: &Path,
    value: &T,
) -> Result<(), Box<dyn std::error::Error>> {
    fs::write(path, serde_json::to_string_pretty(value)?)?;
    Ok(())
}

/// Human-friendly formatting for wide-ranging floats (3 significant-ish
/// digits, scientific for very large/small).
pub fn fmt_value(v: f64) -> String {
    if v == 0.0 {
        "0".to_string()
    } else if v.abs() >= 1e6 || v.abs() < 1e-3 {
        format!("{v:.3e}")
    } else if v.abs() >= 100.0 {
        format!("{v:.1}")
    } else {
        format!("{v:.3}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = Table::new(&["a", "bbbb"]);
        t.row(&["xxxxx", "y"]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 3);
        // The second column starts at the same offset in header and row.
        let h = lines[0].find("bbbb").unwrap();
        let r = lines[2].find('y').unwrap();
        assert_eq!(h, r);
    }

    #[test]
    fn ragged_rows_are_tolerated() {
        let mut t = Table::new(&["a"]);
        t.row(&["1", "2", "3"]);
        t.row(&[] as &[&str]);
        assert!(t.render().contains('3'));
    }

    #[test]
    fn fmt_value_ranges() {
        assert_eq!(fmt_value(0.0), "0");
        assert_eq!(fmt_value(1.5), "1.500");
        assert_eq!(fmt_value(123.4), "123.4");
        assert!(fmt_value(1.23e9).contains('e'));
        assert!(fmt_value(0.00012).contains('e'));
    }

    #[test]
    fn write_json_roundtrips() {
        let dir = std::env::temp_dir().join("snnmap_bench_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.json");
        write_json(&path, &vec![1, 2, 3]).unwrap();
        let back: Vec<i32> =
            serde_json::from_str(&std::fs::read_to_string(&path).unwrap()).unwrap();
        assert_eq!(back, vec![1, 2, 3]);
    }
}
