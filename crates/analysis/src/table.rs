//! Result tables.
//!
//! Every experiment produces a [`Table`]: a titled grid of stringly-typed
//! cells plus free-form notes (e.g. fitted slopes). Tables render to Markdown
//! (the driver's stdout), CSV (for archiving / plotting) and JSON (the
//! result document).

use serde::Serialize;

/// A titled result table.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct Table {
    /// The experiment identifier and human-readable title.
    pub title: String,
    /// Column headers.
    pub columns: Vec<String>,
    /// Data rows; every row must have exactly one cell per column.
    pub rows: Vec<Vec<String>>,
    /// Free-form notes appended below the table (fitted slopes, verdicts, …).
    pub notes: Vec<String>,
}

impl Table {
    /// Creates an empty table with the given title and columns.
    pub fn new(title: impl Into<String>, columns: &[&str]) -> Self {
        Table {
            title: title.into(),
            columns: columns.iter().map(|c| c.to_string()).collect(),
            rows: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Appends a data row.
    ///
    /// # Panics
    ///
    /// Panics if the row length does not match the number of columns.
    pub fn push_row<I, S>(&mut self, row: I)
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let row: Vec<String> = row.into_iter().map(Into::into).collect();
        assert_eq!(
            row.len(),
            self.columns.len(),
            "row length must match the number of columns"
        );
        self.rows.push(row);
    }

    /// Appends a note rendered below the table.
    pub fn push_note(&mut self, note: impl Into<String>) {
        self.notes.push(note.into());
    }

    /// Renders the table as GitHub-flavoured Markdown.
    pub fn to_markdown(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("### {}\n\n", self.title));
        out.push_str(&format!("| {} |\n", self.columns.join(" | ")));
        out.push_str(&format!(
            "|{}\n",
            self.columns.iter().map(|_| "---|").collect::<String>()
        ));
        for row in &self.rows {
            out.push_str(&format!("| {} |\n", row.join(" | ")));
        }
        if !self.notes.is_empty() {
            out.push('\n');
            for note in &self.notes {
                out.push_str(&format!("- {note}\n"));
            }
        }
        out
    }

    /// Renders the table as a pretty-printed JSON document with the same
    /// field layout `serde_json` would produce for this struct.
    ///
    /// This is the result document the driver writes with `--csv` (and
    /// `ci/sweep-quick.json` pins byte for byte), so the output must be
    /// valid JSON for *any* experiment output — escaping is delegated to
    /// [`json_escape`].
    pub fn to_json(&self) -> String {
        fn string_array(items: &[String], indent: &str) -> String {
            if items.is_empty() {
                return "[]".to_string();
            }
            let cells: Vec<String> = items
                .iter()
                .map(|s| format!("\"{}\"", json_escape(s)))
                .collect();
            format!(
                "[\n{indent}  {}\n{indent}]",
                cells.join(&format!(",\n{indent}  "))
            )
        }
        let rows = if self.rows.is_empty() {
            "[]".to_string()
        } else {
            let rendered: Vec<String> = self
                .rows
                .iter()
                .map(|row| string_array(row, "    "))
                .collect();
            format!("[\n    {}\n  ]", rendered.join(",\n    "))
        };
        format!(
            "{{\n  \"title\": \"{}\",\n  \"columns\": {},\n  \"rows\": {},\n  \"notes\": {}\n}}",
            json_escape(&self.title),
            string_array(&self.columns, "  "),
            rows,
            string_array(&self.notes, "  ")
        )
    }

    /// Renders the table as CSV (header row first; notes are omitted).
    pub fn to_csv(&self) -> String {
        let escape = |cell: &str| -> String {
            if cell.contains(',') || cell.contains('"') || cell.contains('\n') {
                format!("\"{}\"", cell.replace('"', "\"\""))
            } else {
                cell.to_string()
            }
        };
        let mut out = String::new();
        out.push_str(
            &self
                .columns
                .iter()
                .map(|c| escape(c))
                .collect::<Vec<_>>()
                .join(","),
        );
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.iter().map(|c| escape(c)).collect::<Vec<_>>().join(","));
            out.push('\n');
        }
        out
    }
}

/// Escapes a string for embedding inside a JSON string literal (between the
/// quotes — the caller writes the quotes).
///
/// Handles the full set RFC 8259 requires: `"` and `\` get their two-char
/// escapes, the common control characters get theirs (`\n`, `\r`, `\t`),
/// every other control character below U+0020 becomes `\u00XX`. The JS line
/// separators U+2028/U+2029 are escaped too: valid JSON unescaped, but they
/// break naive log/eval consumers, and escaping costs nothing.
///
/// # Examples
///
/// ```
/// use analysis::table::json_escape;
/// assert_eq!(json_escape("a\"b\\c"), "a\\\"b\\\\c");
/// assert_eq!(json_escape("line\u{1f}end"), "line\\u001fend");
/// ```
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{08}' => out.push_str("\\b"),
            '\u{0c}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            '\u{2028}' => out.push_str("\\u2028"),
            '\u{2029}' => out.push_str("\\u2029"),
            c => out.push(c),
        }
    }
    out
}

/// Formats a float with a sensible number of significant digits for table
/// cells.
pub fn fmt_f64(value: f64) -> String {
    if !value.is_finite() {
        return value.to_string();
    }
    if value == 0.0 {
        "0".to_string()
    } else if value.abs() >= 1000.0 {
        format!("{value:.0}")
    } else if value.abs() >= 10.0 {
        format!("{value:.1}")
    } else {
        format!("{value:.3}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn markdown_rendering_includes_all_parts() {
        let mut t = Table::new("E0 — demo", &["n", "time"]);
        t.push_row(["16", "3.5"]);
        t.push_row(["32", "7.1"]);
        t.push_note("slope ≈ 1.0");
        let md = t.to_markdown();
        assert!(md.contains("### E0 — demo"));
        assert!(md.contains("| n | time |"));
        assert!(md.contains("| 32 | 7.1 |"));
        assert!(md.contains("- slope ≈ 1.0"));
    }

    #[test]
    fn csv_rendering_escapes_commas_and_quotes() {
        let mut t = Table::new("x", &["a", "b"]);
        t.push_row(["1,5", "say \"hi\""]);
        let csv = t.to_csv();
        assert!(csv.starts_with("a,b\n"));
        assert!(csv.contains("\"1,5\",\"say \"\"hi\"\"\""));
    }

    #[test]
    fn json_rendering_escapes_and_nests() {
        let mut t = Table::new("E0 \"quoted\" \\ demo", &["n", "time"]);
        t.push_row(["16", "3.5\nnewline"]);
        t.push_note("tab\there");
        let json = t.to_json();
        assert!(json.contains("\"title\": \"E0 \\\"quoted\\\" \\\\ demo\""));
        assert!(json.contains("\"3.5\\nnewline\""));
        assert!(json.contains("\"tab\\there\""));
        // Structural sanity: balanced braces/brackets and all four fields.
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        for field in ["\"title\"", "\"columns\"", "\"rows\"", "\"notes\""] {
            assert!(json.contains(field), "missing {field}");
        }
        // Empty table renders empty arrays, not malformed fragments.
        let empty = Table::new("x", &[]).to_json();
        assert!(empty.contains("\"columns\": []"));
        assert!(empty.contains("\"rows\": []"));
    }

    #[test]
    #[should_panic(expected = "row length")]
    fn mismatched_row_rejected() {
        let mut t = Table::new("x", &["a", "b"]);
        t.push_row(["only one"]);
    }

    #[test]
    fn json_escape_covers_quotes_backslashes_and_controls() {
        assert_eq!(json_escape("plain"), "plain");
        assert_eq!(json_escape("say \"hi\""), "say \\\"hi\\\"");
        assert_eq!(json_escape("back\\slash"), "back\\\\slash");
        assert_eq!(json_escape("a\nb\rc\td"), "a\\nb\\rc\\td");
        assert_eq!(json_escape("\u{08}\u{0c}"), "\\b\\f");
        // Every remaining control character gets the \u00XX form.
        assert_eq!(json_escape("\u{00}\u{01}\u{1f}"), "\\u0000\\u0001\\u001f");
        // JS line separators are escaped defensively.
        assert_eq!(json_escape("a\u{2028}b\u{2029}"), "a\\u2028b\\u2029");
        // Non-ASCII passes through untouched (JSON is UTF-8).
        assert_eq!(json_escape("Θ(√n) — ε"), "Θ(√n) — ε");
    }

    #[test]
    fn json_escape_output_never_contains_raw_controls_or_bare_quotes() {
        // Property over a hostile sample: the escaped form must be directly
        // embeddable between quotes.
        let hostile: String = (0u32..0x20)
            .filter_map(char::from_u32)
            .chain(['"', '\\', '\u{2028}'])
            .collect();
        let escaped = json_escape(&hostile);
        assert!(escaped.chars().all(|c| (c as u32) >= 0x20));
        let mut prev_backslash = false;
        for c in escaped.chars() {
            if c == '"' {
                assert!(prev_backslash, "bare quote in escaped output");
            }
            prev_backslash = c == '\\' && !prev_backslash;
        }
    }

    #[test]
    fn to_json_stays_valid_for_hostile_cells() {
        let mut t = Table::new("E\u{0} \"wire\"", &["a"]);
        t.push_row(["\u{1}\u{2028}\"cell\"\\"]);
        let json = t.to_json();
        // No raw control characters may survive into the document.
        assert!(json.chars().all(|c| (c as u32) >= 0x20 || c == '\n'));
        assert!(json.contains("\\u0000"));
        assert!(json.contains("\\u2028"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn float_formatting_is_stable() {
        assert_eq!(fmt_f64(0.0), "0");
        assert_eq!(fmt_f64(3.15159), "3.152");
        assert_eq!(fmt_f64(42.34), "42.3");
        assert_eq!(fmt_f64(12345.6), "12346");
    }
}
