//! Table rendering and machine-readable result output.

use serde::Serialize;
use std::path::Path;

/// A fixed-width text table accumulated row by row.
#[derive(Debug, Clone)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// New table with `headers`.
    pub fn new(title: &str, headers: &[&str]) -> Self {
        Table {
            title: title.to_string(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row (must match the header count).
    pub fn row(&mut self, cells: &[String]) {
        assert_eq!(cells.len(), self.headers.len(), "row width mismatch");
        self.rows.push(cells.to_vec());
    }

    /// Render to stdout.
    pub fn print(&self) {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for r in &self.rows {
            for (w, c) in widths.iter_mut().zip(r) {
                *w = (*w).max(c.len());
            }
        }
        println!("\n=== {} ===", self.title);
        let line = |cells: &[String]| {
            let mut s = String::new();
            for (c, w) in cells.iter().zip(&widths) {
                s.push_str(&format!("{c:>w$}  ", w = w));
            }
            println!("{}", s.trim_end());
        };
        line(&self.headers);
        println!(
            "{}",
            "-".repeat(widths.iter().sum::<usize>() + 2 * widths.len())
        );
        for r in &self.rows {
            line(r);
        }
    }
}

/// Write `value` as pretty JSON under `results/<name>.json` (creating the
/// directory), so every figure's numbers are regenerable.
pub fn write_json<T: Serialize>(name: &str, value: &T) {
    let dir = Path::new("results");
    if std::fs::create_dir_all(dir).is_err() {
        return; // read-only checkout: stdout output still has everything
    }
    let path = dir.join(format!("{name}.json"));
    if let Ok(json) = serde_json::to_string_pretty(value) {
        let _ = std::fs::write(path, json);
    }
}

/// Format a float with engineering-friendly precision.
pub fn fmt(v: f64) -> String {
    if v == 0.0 {
        "0".to_string()
    } else if v.abs() >= 100.0 {
        format!("{v:.0}")
    } else if v.abs() >= 1.0 {
        format!("{v:.2}")
    } else {
        format!("{v:.3e}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_rejects_ragged_rows() {
        let mut t = Table::new("t", &["a", "b"]);
        t.row(&["1".into(), "2".into()]);
        assert!(std::panic::catch_unwind(move || {
            t.row(&["only-one".into()]);
        })
        .is_err());
    }

    #[test]
    fn fmt_ranges() {
        assert_eq!(fmt(0.0), "0");
        assert_eq!(fmt(123.4), "123");
        assert_eq!(fmt(1.5), "1.50");
        assert_eq!(fmt(0.00123), "1.230e-3");
    }
}
