//! Experiment reports: a uniform tabular result type rendered as ASCII
//! (terminal) or Markdown (EXPERIMENTS.md).

use nf2_core::display::render_table;

/// One experiment's result table.
#[derive(Debug, Clone)]
pub struct Report {
    /// Experiment id (E1…E15).
    pub id: String,
    /// Title naming the paper artifact reproduced.
    pub title: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Data rows.
    pub rows: Vec<Vec<String>>,
    /// Free-form notes: paper-vs-measured commentary, renderings.
    pub notes: Vec<String>,
}

impl Report {
    /// Creates a report with headers.
    pub fn new(id: &str, title: &str, headers: &[&str]) -> Self {
        Self {
            id: id.to_owned(),
            title: title.to_owned(),
            headers: headers.iter().map(|s| (*s).to_owned()).collect(),
            rows: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Appends a data row.
    pub fn push_row(&mut self, row: Vec<String>) {
        debug_assert_eq!(row.len(), self.headers.len());
        self.rows.push(row);
    }

    /// Appends a note paragraph.
    pub fn note(&mut self, text: impl Into<String>) {
        self.notes.push(text.into());
    }

    /// ASCII rendering for terminals.
    pub fn to_ascii(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("== {} — {} ==\n", self.id, self.title));
        out.push_str(&render_table("", &self.headers, &self.rows));
        for n in &self.notes {
            out.push_str(n);
            out.push('\n');
        }
        out
    }

    /// JSON rendering for the machine-readable report (`repro --json=…`).
    ///
    /// `elapsed_millis` is the wall-clock time the experiment took — one
    /// unrepeated run, a smoke signal and not a measurement.
    pub fn to_json(&self, elapsed_millis: f64) -> String {
        let headers: Vec<String> = self.headers.iter().map(|h| json_string(h)).collect();
        let rows: Vec<String> = self
            .rows
            .iter()
            .map(|row| {
                let cells: Vec<String> = row.iter().map(|c| json_string(c)).collect();
                format!("[{}]", cells.join(","))
            })
            .collect();
        let notes: Vec<String> = self.notes.iter().map(|n| json_string(n)).collect();
        format!(
            "{{\"id\":{},\"title\":{},\"elapsed_millis\":{:.3},\"headers\":[{}],\"rows\":[{}],\"notes\":[{}]}}",
            json_string(&self.id),
            json_string(&self.title),
            elapsed_millis,
            headers.join(","),
            rows.join(","),
            notes.join(",")
        )
    }

    /// Markdown rendering for EXPERIMENTS.md.
    pub fn to_markdown(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("### {} — {}\n\n", self.id, self.title));
        out.push_str(&format!("| {} |\n", self.headers.join(" | ")));
        out.push_str(&format!(
            "|{}|\n",
            self.headers
                .iter()
                .map(|_| "---")
                .collect::<Vec<_>>()
                .join("|")
        ));
        for row in &self.rows {
            out.push_str(&format!("| {} |\n", row.join(" | ")));
        }
        out.push('\n');
        for n in &self.notes {
            out.push_str(n);
            out.push_str("\n\n");
        }
        out
    }
}

/// Escapes a string as a JSON string literal (quotes included).
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Report {
        let mut r = Report::new("E0", "Sample", &["k", "v"]);
        r.push_row(vec!["a".into(), "1".into()]);
        r.note("a note");
        r
    }

    #[test]
    fn ascii_contains_title_and_rows() {
        let text = sample().to_ascii();
        assert!(text.contains("E0"));
        assert!(text.contains("Sample"));
        assert!(text.contains("| a "));
        assert!(text.contains("a note"));
    }

    #[test]
    fn json_escapes_and_carries_timing() {
        let mut r = sample();
        r.note("quote \" backslash \\ newline\nend");
        let json = r.to_json(12.5);
        assert!(json.contains("\"id\":\"E0\""));
        assert!(json.contains("\"elapsed_millis\":12.500"));
        assert!(json.contains("[\"a\",\"1\"]"));
        assert!(json.contains("quote \\\" backslash \\\\ newline\\nend"));
    }

    #[test]
    fn markdown_is_a_table() {
        let md = sample().to_markdown();
        assert!(md.contains("### E0 — Sample"));
        assert!(md.contains("| k | v |"));
        assert!(md.contains("|---|---|"));
        assert!(md.contains("| a | 1 |"));
    }
}
