//! Experiment result containers and table rendering.
//!
//! The bench binaries print the same rows and series the paper reports;
//! these helpers hold that output and render it as Markdown.

/// A named series of `(x, y)` points — one line of Figure 5 or Figure 6.
#[derive(Debug, Clone)]
pub struct Series {
    /// Algorithm / configuration label.
    pub label: String,
    /// X positions (e.g. N).
    pub x: Vec<f64>,
    /// Y values (e.g. Recall@N).
    pub y: Vec<f64>,
}

/// A labelled table — one paper table (rows = algorithms).
#[derive(Debug, Clone)]
pub struct Table {
    /// Table caption.
    pub title: String,
    /// Column headers (first column is the row label).
    pub headers: Vec<String>,
    /// Rows: label followed by numeric cells rendered upstream.
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// Create an empty table.
    pub fn new(title: impl Into<String>, headers: Vec<String>) -> Self {
        Self {
            title: title.into(),
            headers,
            rows: Vec::new(),
        }
    }

    /// Append a row.
    ///
    /// # Panics
    ///
    /// Panics if the row width disagrees with the header width.
    pub fn push_row(&mut self, row: Vec<String>) {
        assert_eq!(row.len(), self.headers.len(), "row width mismatch");
        self.rows.push(row);
    }

    /// Render as GitHub-flavoured Markdown.
    pub fn to_markdown(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("### {}\n\n", self.title));
        out.push_str(&format!("| {} |\n", self.headers.join(" | ")));
        out.push_str(&format!(
            "|{}\n",
            self.headers.iter().map(|_| "---|").collect::<String>()
        ));
        for row in &self.rows {
            out.push_str(&format!("| {} |\n", row.join(" | ")));
        }
        out
    }
}

/// Render a set of series as a Markdown table with x as the first column —
/// the text form of a paper figure.
pub fn series_to_markdown(title: &str, x_label: &str, series: &[Series]) -> String {
    let mut out = String::new();
    out.push_str(&format!("### {title}\n\n"));
    out.push_str(&format!("| {x_label} |"));
    for s in series {
        out.push_str(&format!(" {} |", s.label));
    }
    out.push('\n');
    out.push_str("|---|");
    for _ in series {
        out.push_str("---|");
    }
    out.push('\n');
    let n = series.first().map_or(0, |s| s.x.len());
    for i in 0..n {
        out.push_str(&format!("| {} |", format_num(series[0].x[i])));
        for s in series {
            out.push_str(&format!(" {} |", format_num(s.y[i])));
        }
        out.push('\n');
    }
    out
}

/// Compact numeric formatting: integers plain, reals to 4 significant
/// decimals.
pub fn format_num(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e12 {
        format!("{}", v as i64)
    } else {
        format!("{v:.4}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_markdown() {
        let mut t = Table::new("Diversity", vec!["Algo".into(), "Douban".into()]);
        t.push_row(vec!["AC2".into(), "0.58".into()]);
        let md = t.to_markdown();
        assert!(md.contains("### Diversity"));
        assert!(md.contains("| Algo | Douban |"));
        assert!(md.contains("| AC2 | 0.58 |"));
    }

    #[test]
    #[should_panic(expected = "width")]
    fn ragged_row_rejected() {
        let mut t = Table::new("x", vec!["a".into(), "b".into()]);
        t.push_row(vec!["only-one".into()]);
    }

    #[test]
    fn series_renders_rows_per_x() {
        let s = vec![
            Series {
                label: "HT".into(),
                x: vec![1.0, 2.0],
                y: vec![0.1, 0.2],
            },
            Series {
                label: "AT".into(),
                x: vec![1.0, 2.0],
                y: vec![0.15, 0.25],
            },
        ];
        let md = series_to_markdown("Recall", "N", &s);
        assert!(md.contains("| N | HT | AT |"));
        assert!(md.contains("| 1 | 0.1000 | 0.1500 |"));
        assert!(md.contains("| 2 | 0.2000 | 0.2500 |"));
    }

    #[test]
    fn numbers_format_compactly() {
        assert_eq!(format_num(3.0), "3");
        assert_eq!(format_num(0.12345), "0.1235");
    }
}
