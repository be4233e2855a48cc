//! Plain-text tables and CSV output.

use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::Path;

/// A simple column-aligned text table.
///
/// # Example
///
/// ```
/// use rac::output::TextTable;
///
/// let mut t = TextTable::new(&["param", "value"]);
/// t.row(&["MaxClients".into(), "150".into()]);
/// let s = t.to_string();
/// assert!(s.contains("MaxClients"));
/// ```
#[derive(Debug, Clone)]
pub struct TextTable {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Creates a table with the given column headers.
    pub fn new(headers: &[&str]) -> Self {
        TextTable {
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the arity differs from the header.
    pub fn row(&mut self, cells: &[String]) {
        assert_eq!(cells.len(), self.headers.len(), "row arity mismatch");
        self.rows.push(cells.to_vec());
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// `true` when no data rows were added.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders the table as a CSV string (what [`write_csv`](Self::write_csv)
    /// puts on disk) — lets tests digest the exact bytes without I/O.
    pub fn render_csv(&self) -> String {
        let mut out = String::new();
        let escape = |cell: &str| {
            if cell.contains(',') || cell.contains('"') {
                format!("\"{}\"", cell.replace('"', "\"\""))
            } else {
                cell.to_string()
            }
        };
        let _ = writeln!(
            out,
            "{}",
            self.headers
                .iter()
                .map(|h| escape(h))
                .collect::<Vec<_>>()
                .join(",")
        );
        for row in &self.rows {
            let _ = writeln!(
                out,
                "{}",
                row.iter().map(|c| escape(c)).collect::<Vec<_>>().join(",")
            );
        }
        out
    }

    /// Writes the table as CSV.
    ///
    /// # Errors
    ///
    /// Returns any underlying I/O error.
    pub fn write_csv(&self, path: &Path) -> io::Result<()> {
        if let Some(parent) = path.parent() {
            fs::create_dir_all(parent)?;
        }
        fs::write(path, self.render_csv())
    }
}

impl std::fmt::Display for TextTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let line = |f: &mut std::fmt::Formatter<'_>, cells: &[String]| -> std::fmt::Result {
            for (w, cell) in widths.iter().zip(cells) {
                write!(f, " {cell:>w$} ")?;
            }
            writeln!(f)
        };
        line(f, &self.headers)?;
        let total: usize = widths.iter().map(|w| w + 2).sum();
        writeln!(f, "{}", "-".repeat(total))?;
        for row in &self.rows {
            line(f, row)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_and_writes_csv() {
        let mut t = TextTable::new(&["a", "b"]);
        t.row(&["1".into(), "hello, world".into()]);
        t.row(&["2".into(), "x\"y".into()]);
        assert_eq!(t.len(), 2);
        let text = t.to_string();
        assert!(text.contains("hello, world"));

        let dir = std::env::temp_dir().join(format!("rac-out-test-{}", std::process::id()));
        let path = dir.join("t.csv");
        t.write_csv(&path).unwrap();
        let csv = fs::read_to_string(&path).unwrap();
        assert_eq!(csv, t.render_csv(), "disk CSV must match the rendering");
        assert!(csv.starts_with("a,b\n"));
        assert!(csv.contains("\"hello, world\""));
        assert!(csv.contains("\"x\"\"y\""));
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn wrong_arity_panics() {
        TextTable::new(&["a"]).row(&["1".into(), "2".into()]);
    }
}
