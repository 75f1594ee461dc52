//! Aligned text-table formatter for `rlwe-m4sim`'s table reproduction
//! binaries.
//!
//! They used to hand-maintain `format!` strings like
//! `"{:<10} {:>10} {:>8}"` — easy to desynchronize between header and
//! rows. [`TextTable`] keeps one column spec and renders both. Padding
//! follows `format!` minimum-width semantics: cells longer than their
//! column are emitted in full, never truncated.

use std::fmt::Write;

/// Cell alignment within a column.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Align {
    /// Pad on the right.
    Left,
    /// Pad on the left.
    Right,
}

/// One column: header text, minimum width, alignment.
#[derive(Debug, Clone)]
pub struct Col {
    header: String,
    width: usize,
    align: Align,
}

impl Col {
    /// A left-aligned column.
    pub fn left(header: impl Into<String>, width: usize) -> Self {
        Self {
            header: header.into(),
            width,
            align: Align::Left,
        }
    }

    /// A right-aligned column.
    pub fn right(header: impl Into<String>, width: usize) -> Self {
        Self {
            header: header.into(),
            width,
            align: Align::Right,
        }
    }
}

fn pad(cell: &str, width: usize, align: Align) -> String {
    match align {
        Align::Left => format!("{cell:<width$}"),
        Align::Right => format!("{cell:>width$}"),
    }
}

/// An aligned text table: fixed columns, accumulated rows.
#[derive(Debug, Clone)]
pub struct TextTable {
    cols: Vec<Col>,
    sep: String,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// A table with the given columns and a single-space separator.
    pub fn new(cols: Vec<Col>) -> Self {
        Self {
            cols,
            sep: " ".into(),
            rows: Vec::new(),
        }
    }

    /// Replaces the inter-column separator (e.g. `""` when the widths
    /// already include spacing, as in the m4sim tables).
    pub fn separator(mut self, sep: impl Into<String>) -> Self {
        self.sep = sep.into();
        self
    }

    /// Appends one row. Missing cells render empty; extra cells are
    /// appended unpadded.
    pub fn row<I>(&mut self, cells: I)
    where
        I: IntoIterator,
        I::Item: Into<String>,
    {
        self.rows.push(cells.into_iter().map(Into::into).collect());
    }

    fn line(&self, cells: &[String]) -> String {
        let mut out = String::new();
        let empty = String::new();
        for (i, col) in self.cols.iter().enumerate() {
            if i > 0 {
                out.push_str(&self.sep);
            }
            let cell = cells.get(i).unwrap_or(&empty);
            out.push_str(&pad(cell, col.width, col.align));
        }
        for cell in cells.iter().skip(self.cols.len()) {
            out.push_str(&self.sep);
            out.push_str(cell);
        }
        out
    }

    /// The header row alone (no trailing newline).
    pub fn header_line(&self) -> String {
        let headers: Vec<String> = self.cols.iter().map(|c| c.header.clone()).collect();
        self.line(&headers)
    }

    /// Header plus all rows, one line each, every line
    /// newline-terminated.
    pub fn render(&self) -> String {
        let mut out = self.header_line();
        out.push('\n');
        let _ = write!(out, "{}", self.render_rows());
        out
    }

    /// All data rows without the header, newline-terminated.
    pub fn render_rows(&self) -> String {
        let mut out = String::new();
        for row in &self.rows {
            out.push_str(&self.line(row));
            out.push('\n');
        }
        out
    }
}

/// Renders `1234567` as `1 234 567` — the DATE-paper digit grouping the
/// table binaries use for cycle counts.
pub fn group_digits(v: u64) -> String {
    let digits: Vec<char> = v.to_string().chars().collect();
    let mut out = String::new();
    for (i, c) in digits.iter().enumerate() {
        if i > 0 && (digits.len() - i).is_multiple_of(3) {
            out.push(' ');
        }
        out.push(*c);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digits_group_in_threes() {
        assert_eq!(group_digits(0), "0");
        assert_eq!(group_digits(999), "999");
        assert_eq!(group_digits(1000), "1 000");
        assert_eq!(group_digits(2761640), "2 761 640");
    }

    #[test]
    fn matches_format_macro_alignment() {
        let mut t = TextTable::new(vec![Col::left("op", 10), Col::right("ok", 10)]);
        t.row(["encrypt", "6"]);
        assert_eq!(t.header_line(), format!("{:<10} {:>10}", "op", "ok"));
        assert_eq!(t.render_rows(), format!("{:<10} {:>10}\n", "encrypt", "6"));
    }

    #[test]
    fn empty_separator_concatenates_columns() {
        let mut t = TextTable::new(vec![Col::left("a", 4), Col::right("b", 6)]).separator("");
        t.row(["x", "1"]);
        assert_eq!(t.render(), "a        b\nx        1\n");
    }

    #[test]
    fn long_cells_are_never_truncated() {
        let mut t = TextTable::new(vec![Col::left("h", 2)]);
        t.row(["longer-than-two"]);
        assert!(t.render().contains("longer-than-two"));
    }

    #[test]
    fn missing_cells_render_empty() {
        let mut t = TextTable::new(vec![Col::left("a", 3), Col::right("b", 3)]);
        t.row(["x"]);
        assert_eq!(t.render_rows(), "x      \n");
    }
}
