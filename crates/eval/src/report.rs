//! Fixed-width text tables for the experiment harnesses.
//!
//! Every `rtped-bench` binary prints its results through this module so
//! Table 1 / Table 2 / throughput reports share one look.

use std::fmt::Write as _;

/// A simple fixed-width table with a title, column headers, and rows.
///
/// # Example
///
/// ```
/// use rtped_eval::report::Table;
///
/// let mut t = Table::new("Demo", &["scale", "accuracy"]);
/// t.row(&["1.1", "97.81"]);
/// let s = t.render();
/// assert!(s.contains("Demo"));
/// assert!(s.contains("97.81"));
/// ```
#[derive(Debug, Clone)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates an empty table.
    ///
    /// # Panics
    ///
    /// Panics if `headers` is empty.
    #[must_use]
    pub fn new(title: &str, headers: &[&str]) -> Self {
        assert!(!headers.is_empty(), "table needs at least one column");
        Self {
            title: title.to_string(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the cell count differs from the header count.
    pub fn row(&mut self, cells: &[&str]) {
        assert_eq!(
            cells.len(),
            self.headers.len(),
            "row width does not match header"
        );
        self.rows
            .push(cells.iter().map(|s| s.to_string()).collect());
    }

    /// Appends a row of already-owned strings.
    ///
    /// # Panics
    ///
    /// Panics if the cell count differs from the header count.
    pub fn row_owned(&mut self, cells: Vec<String>) {
        assert_eq!(
            cells.len(),
            self.headers.len(),
            "row width does not match header"
        );
        self.rows.push(cells);
    }

    /// Number of data rows.
    #[must_use]
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// `true` if no rows were added.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders the table as aligned text.
    #[must_use]
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        let total: usize = widths.iter().sum::<usize>() + 3 * (widths.len() - 1);
        let _ = writeln!(out, "{}", self.title);
        let _ = writeln!(out, "{}", "=".repeat(total.max(self.title.len())));
        for (i, (h, w)) in self.headers.iter().zip(&widths).enumerate() {
            if i > 0 {
                out.push_str(" | ");
            }
            let _ = write!(out, "{h:>w$}");
        }
        out.push('\n');
        let _ = writeln!(out, "{}", "-".repeat(total.max(self.title.len())));
        for row in &self.rows {
            for (i, (cell, w)) in row.iter().zip(&widths).enumerate() {
                if i > 0 {
                    out.push_str(" | ");
                }
                let _ = write!(out, "{cell:>w$}");
            }
            out.push('\n');
        }
        out
    }
}

/// Formats a ratio as a percentage with 4 decimals, the precision of the
/// paper's Table 1 (e.g. `98.0375`).
#[must_use]
pub fn percent(value: f64) -> String {
    format!("{:.4}", value * 100.0)
}

/// Formats a float with the given number of decimals.
#[must_use]
pub fn float(value: f64, decimals: usize) -> String {
    format!("{value:.decimals$}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = Table::new("T", &["a", "long_header"]);
        t.row(&["1", "2"]);
        t.row(&["333", "4"]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        // Header, separator x2, 2 data rows, title.
        assert_eq!(lines.len(), 6);
        // All data lines have equal width.
        assert_eq!(lines[4].len(), lines[5].len());
    }

    #[test]
    fn percent_matches_paper_precision() {
        assert_eq!(percent(0.980375), "98.0375");
        assert_eq!(percent(1.0), "100.0000");
    }

    #[test]
    fn float_helper() {
        assert_eq!(float(1.23456, 2), "1.23");
    }

    #[test]
    #[should_panic(expected = "row width does not match header")]
    fn row_width_checked() {
        let mut t = Table::new("T", &["a", "b"]);
        t.row(&["only one"]);
    }

    #[test]
    #[should_panic(expected = "table needs at least one column")]
    fn empty_header_rejected() {
        let _ = Table::new("T", &[]);
    }

    #[test]
    fn len_and_is_empty() {
        let mut t = Table::new("T", &["a"]);
        assert!(t.is_empty());
        t.row_owned(vec!["x".into()]);
        assert_eq!(t.len(), 1);
        assert!(!t.is_empty());
    }
}
