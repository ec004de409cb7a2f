//! Plain-text tables and the number formats they print. Experiment CSVs
//! are written by [`crate::csv`].

/// A simple aligned-column table.
#[derive(Debug, Clone, Default)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Create a table with a title and column headers.
    pub fn new(title: &str, headers: &[&str]) -> Self {
        Table {
            title: title.to_string(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row. Shorter rows are padded with empty cells; longer rows
    /// are a caller bug.
    pub fn row(&mut self, cells: Vec<String>) -> &mut Self {
        assert!(
            cells.len() <= self.headers.len(),
            "row has {} cells but the table has {} columns",
            cells.len(),
            self.headers.len()
        );
        let mut cells = cells;
        cells.resize(self.headers.len(), String::new());
        self.rows.push(cells);
        self
    }

    /// Number of data rows (the experiments' render tests count them).
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.rows.len()
    }

    /// Render as an aligned text table.
    pub fn render(&self) -> String {
        let cols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.chars().count()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.chars().count());
            }
        }
        let mut out = String::new();
        if !self.title.is_empty() {
            out.push_str(&format!("== {} ==\n", self.title));
        }
        let sep: String = widths.iter().map(|w| "-".repeat(w + 2)).collect::<Vec<_>>().join("+");
        let fmt_row = |cells: &[String]| -> String {
            let mut line = String::new();
            for (i, width) in widths.iter().enumerate().take(cols) {
                let cell = cells.get(i).map(String::as_str).unwrap_or("");
                let pad = width - cell.chars().count();
                line.push_str(&format!(" {}{} |", cell, " ".repeat(pad)));
            }
            // drop trailing " |" separator into a clean line end
            line.pop();
            line
        };
        out.push_str(&fmt_row(&self.headers));
        out.push('\n');
        out.push_str(&sep);
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row));
            out.push('\n');
        }
        out
    }
}

/// Format a float with `prec` decimals.
pub fn f(x: f64, prec: usize) -> String {
    format!("{x:.prec$}")
}

/// Format a possibly-infinite variation value the way the paper quotes
/// them (`Vt=57.29`, or `inf` for a zero-wait rank).
pub fn var(x: f64) -> String {
    if x.is_finite() {
        format!("{x:.2}")
    } else {
        "inf".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = Table::new("Demo", &["name", "value"]);
        t.row(vec!["alpha".into(), "1".into()]);
        t.row(vec!["b".into(), "22.5".into()]);
        let s = t.render();
        assert!(s.contains("== Demo =="));
        let lines: Vec<&str> = s.lines().collect();
        // header + separator + 2 rows + title
        assert_eq!(lines.len(), 5);
        // all data lines same width
        assert_eq!(lines[2].len(), lines[3].len());
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn pads_short_rows() {
        let mut t = Table::new("", &["a", "b", "c"]);
        t.row(vec!["x".into()]);
        assert!(t.render().contains('x'));
    }

    #[test]
    #[should_panic]
    fn overlong_row_panics() {
        let mut t = Table::new("", &["a"]);
        t.row(vec!["1".into(), "2".into()]);
    }

    #[test]
    fn float_and_variation_formatting() {
        assert_eq!(f(1.23456, 2), "1.23");
        assert_eq!(var(57.286), "57.29"); // paper's Vt=57.29
        assert_eq!(var(f64::INFINITY), "inf");
    }
}
