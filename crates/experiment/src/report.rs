//! Report rendering: aligned text tables ("a prepared evaluation report,
//! which is easy to understand") plus CSV and JSON for machine
//! consumption.

use mtt_json::Json;

/// A simple column-aligned table.
#[derive(Clone, Debug, Default)]
pub struct Table {
    title: String,
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// New table with a title and column headers.
    pub fn new(title: impl Into<String>, header: &[&str]) -> Self {
        Table {
            title: title.into(),
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row (must match the header arity).
    pub fn row(&mut self, cells: &[String]) {
        assert_eq!(
            cells.len(),
            self.header.len(),
            "row arity mismatch in table `{}`",
            self.title
        );
        self.rows.push(cells.to_vec());
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Render as aligned text.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        out.push_str(&format!("== {} ==\n", self.title));
        let fmt_row = |cells: &[String]| -> String {
            cells
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:<w$}", c, w = widths[i]))
                .collect::<Vec<_>>()
                .join("  ")
        };
        out.push_str(&fmt_row(&self.header));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row));
            out.push('\n');
        }
        out
    }

    /// Render as CSV (RFC-4180-ish quoting for commas/quotes).
    pub fn to_csv(&self) -> String {
        let quote = |s: &str| -> String {
            if s.contains(',') || s.contains('"') || s.contains('\n') {
                format!("\"{}\"", s.replace('"', "\"\""))
            } else {
                s.to_string()
            }
        };
        let mut out = String::new();
        out.push_str(
            &self
                .header
                .iter()
                .map(|h| quote(h))
                .collect::<Vec<_>>()
                .join(","),
        );
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.iter().map(|c| quote(c)).collect::<Vec<_>>().join(","));
            out.push('\n');
        }
        out
    }
}

/// The three views of a [`Report`]: text by default, `--csv`, `--json`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Format {
    /// Every table aligned, then the text tail.
    Text,
    /// Every table as CSV, concatenated.
    Csv,
    /// The JSON view.
    Json,
}

impl Format {
    /// The command-line flag that selects this view.
    pub fn flag(self) -> &'static str {
        match self {
            Format::Text => "",
            Format::Csv => "--csv",
            Format::Json => "--json",
        }
    }
}

/// What one experiment prints: its tables, a text tail after them, and
/// an optional JSON view that is built only when it is rendered.
#[derive(Default)]
pub struct Report {
    /// The tables, in print order.
    tables: Vec<Table>,
    /// Text printed after the tables, in the text view only (a report
    /// without tables prints it as its CSV view too).
    tail: String,
    json: Option<Box<dyn Fn() -> Json>>,
}

impl Report {
    /// A report of `tables` with no tail and no JSON view.
    pub fn new(tables: Vec<Table>) -> Self {
        Report {
            tables,
            ..Report::default()
        }
    }

    /// Set the text tail (builder style).
    pub fn with_tail(mut self, tail: String) -> Self {
        self.tail = tail;
        self
    }

    /// Give the report a JSON view (builder style).
    pub fn with_json(mut self, json: impl Fn() -> Json + 'static) -> Self {
        self.json = Some(Box::new(json));
        self
    }

    /// Render one view; `None` for JSON without a view set by
    /// [`Report::with_json`]. A report with no tables is one block of
    /// text, which its CSV view prints as well.
    pub fn render(&self, format: Format) -> Option<String> {
        match format {
            Format::Text => {
                let mut out: String = self.tables.iter().map(|t| t.render() + "\n").collect();
                out.push_str(&self.tail);
                Some(out)
            }
            Format::Csv if self.tables.is_empty() => Some(self.tail.clone()),
            Format::Csv => Some(self.tables.iter().map(Table::to_csv).collect()),
            Format::Json => self.json.as_ref().map(|json| json().dump() + "\n"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Table {
        let mut t = Table::new("demo", &["name", "value"]);
        t.row(&["alpha".into(), "1".into()]);
        t.row(&["a,b".into(), "2".into()]);
        t
    }

    #[test]
    fn render_aligns_columns() {
        let s = sample().render();
        assert!(s.contains("== demo =="));
        assert!(s.contains("name   value"));
        assert!(s.lines().count() >= 5);
    }

    #[test]
    fn csv_quotes_commas() {
        let c = sample().to_csv();
        assert!(c.starts_with("name,value\n"));
        assert!(c.contains("\"a,b\",2"));
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn arity_mismatch_panics() {
        let mut t = Table::new("t", &["a", "b"]);
        t.row(&["only-one".into()]);
    }

    #[test]
    fn len_and_empty() {
        assert!(Table::new("t", &["a"]).is_empty());
        assert_eq!(sample().len(), 2);
    }
}
