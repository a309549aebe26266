//! Plain-text table rendering for the experiment binaries.
//!
//! Every `fig*`/`table*` binary prints one of these tables; keeping the
//! formatting here keeps the binaries declarative.

use std::fmt::Write as _;

/// A simple column-aligned text table with a title.
#[derive(Debug, Clone, Default)]
pub struct Table {
    title: String,
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with a title and column headers.
    pub fn new(title: impl Into<String>, header: &[&str]) -> Self {
        Table {
            title: title.into(),
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (must match the header arity). Takes the cells by
    /// value — rows are formatted fresh at every call site, so the table
    /// adopts them instead of cloning.
    ///
    /// # Panics
    ///
    /// Panics if the arity differs from the header.
    pub fn row(&mut self, cells: impl Into<Vec<String>>) -> &mut Self {
        let cells = cells.into();
        assert_eq!(
            cells.len(),
            self.header.len(),
            "row arity mismatch in table {:?}: header has {} columns, row has {} cells: {:?}",
            self.title,
            self.header.len(),
            cells.len(),
            cells
        );
        self.rows.push(cells);
        self
    }

    /// Appends a failed-cell row: the first column plus `n/a` in every
    /// remaining column, for matrix cells that did not complete.
    pub fn na_row(&mut self, first: impl Into<String>) -> &mut Self {
        let mut cells = vec![first.into()];
        cells.resize(self.header.len(), "n/a".to_owned());
        self.rows.push(cells);
        self
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// `true` when no rows were added.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders the table.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "== {} ==", self.title);
        let line = |cells: &[String], widths: &[usize]| {
            let mut s = String::new();
            for (i, cell) in cells.iter().enumerate() {
                if i == 0 {
                    let _ = write!(s, "{:<width$}", cell, width = widths[i]);
                } else {
                    let _ = write!(s, "  {:>width$}", cell, width = widths[i]);
                }
            }
            s
        };
        let _ = writeln!(out, "{}", line(&self.header, &widths));
        let total: usize = widths.iter().sum::<usize>() + 2 * (widths.len() - 1);
        let _ = writeln!(out, "{}", "-".repeat(total));
        for row in &self.rows {
            let _ = writeln!(out, "{}", line(row, &widths));
        }
        out
    }
}

/// Formats a ratio as a signed percentage (e.g. `+12.3%`); a missing
/// value (a summary over no completed rows) renders as `n/a`.
pub fn pct(x: impl Into<Option<f64>>) -> String {
    fmt_or_na(x, |x| format!("{:+.1}%", x * 100.0))
}

/// Formats a float with three decimals; a missing value renders as `n/a`.
pub fn f3(x: impl Into<Option<f64>>) -> String {
    fmt_or_na(x, |x| format!("{x:.3}"))
}

/// Formats a present value with `fmt`, a missing one as `n/a`.
pub fn fmt_or_na(x: impl Into<Option<f64>>, fmt: impl FnOnce(f64) -> String) -> String {
    x.into().map_or_else(|| "n/a".to_owned(), fmt)
}

/// Geometric mean of strictly positive values; `None` for empty input,
/// so a summary over no completed rows renders `n/a`, not a number.
///
/// MPKI ratios are multiplicative, so cross-workload summaries use the
/// geometric mean.
pub fn geomean(values: impl IntoIterator<Item = f64>) -> Option<f64> {
    let mut log_sum = 0.0;
    let mut n = 0usize;
    for v in values {
        assert!(v > 0.0, "geomean requires positive values, got {v}");
        log_sum += v.ln();
        n += 1;
    }
    (n > 0).then(|| (log_sum / n as f64).exp())
}

/// Arithmetic mean; `None` for empty input.
pub fn mean(values: impl IntoIterator<Item = f64>) -> Option<f64> {
    let mut sum = 0.0;
    let mut n = 0usize;
    for v in values {
        sum += v;
        n += 1;
    }
    (n > 0).then(|| sum / n as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned_columns() {
        let mut t = Table::new("demo", &["workload", "mpki"]);
        t.row(["NodeApp".into(), "4.43".into()]);
        t.row(["Kafka".into(), "0.26".into()]);
        let s = t.render();
        assert!(s.contains("== demo =="));
        assert!(s.contains("NodeApp"));
        assert!(s.lines().count() >= 5);
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
    }

    #[test]
    #[should_panic(
        expected = "row arity mismatch in table \"demo\": header has 2 columns, row has 1 cells"
    )]
    fn mismatched_rows_are_rejected() {
        let mut t = Table::new("demo", &["a", "b"]);
        t.row(["only one".into()]);
    }

    #[test]
    fn na_rows_fill_every_remaining_column() {
        let mut t = Table::new("demo", &["workload", "base", "speedup"]);
        t.na_row("NodeApp");
        let s = t.render();
        assert!(s.contains("NodeApp"));
        assert_eq!(s.matches("n/a").count(), 2);
    }

    #[test]
    fn geomean_matches_hand_computation() {
        assert!((geomean([1.0, 4.0]).unwrap() - 2.0).abs() < 1e-12);
        assert!((geomean([2.0, 2.0, 2.0]).unwrap() - 2.0).abs() < 1e-12);
        assert_eq!(geomean(std::iter::empty()), None);
    }

    #[test]
    fn mean_is_arithmetic() {
        assert!((mean([1.0, 2.0, 3.0]).unwrap() - 2.0).abs() < 1e-12);
        assert_eq!(mean(std::iter::empty()), None);
    }

    #[test]
    fn pct_formats_sign_and_scale() {
        assert_eq!(pct(0.123), "+12.3%");
        assert_eq!(pct(-0.05), "-5.0%");
    }

    #[test]
    fn summaries_over_no_rows_render_na() {
        let none = std::iter::empty::<f64>;
        assert_eq!(pct(geomean(none()).map(|g| 1.0 - g)), "n/a");
        assert_eq!(f3(geomean(none())), "n/a");
        assert_eq!(f3(mean(none())), "n/a");
        assert_eq!(fmt_or_na(mean(none()), |m| format!("{m:.2}")), "n/a");
        assert_eq!(f3(Some(0.5)), "0.500");
    }
}
