//! The one module that writes experiment bytes: CSV files, Markdown
//! tables and rendered text artifacts. (The aligned terminal table is
//! [`crate::render_table`]; it writes nothing.)

use std::io::Write as _;
use std::path::Path;

fn csv_quote(s: &str) -> String {
    if s.contains(',') || s.contains('"') || s.contains('\n') {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_string()
    }
}

fn csv_line<'a>(cells: impl Iterator<Item = &'a str>) -> String {
    cells.map(csv_quote).collect::<Vec<_>>().join(",")
}

/// Writes `rows` under `headers` as a CSV file at `path` (RFC-4180-style
/// quoting), creating parent directories on demand.
///
/// # Errors
///
/// Propagates I/O errors.
///
/// # Panics
///
/// Panics if any row's length differs from the header's.
pub fn write_csv(
    path: &Path,
    headers: &[&str],
    rows: impl IntoIterator<Item = Vec<String>>,
) -> std::io::Result<()> {
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(w, "{}", csv_line(headers.iter().copied()))?;
    for row in rows {
        assert_eq!(row.len(), headers.len(), "csv row width mismatch in {}", path.display());
        writeln!(w, "{}", csv_line(row.iter().map(String::as_str)))?;
    }
    w.flush()
}

/// Renders `rows` under `headers` as a GitHub-flavoured Markdown table.
pub fn render_markdown(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut out = format!("| {} |\n|{}\n", headers.join(" | "), "---|".repeat(headers.len()));
    for row in rows {
        out.push_str(&format!("| {} |\n", row.join(" | ")));
    }
    out
}

/// Writes a rendered text artifact `name` under `dir`, creating the
/// directory on demand.
///
/// # Errors
///
/// Propagates I/O errors.
pub fn write_text(dir: &Path, name: &str, content: &str) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    std::fs::write(dir.join(name), content)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(cells: &[&str]) -> Vec<String> {
        cells.iter().map(|c| c.to_string()).collect()
    }

    #[test]
    fn csv_quotes_and_creates_parent_directories() {
        let dir = std::env::temp_dir().join("trace_sink_test");
        let path = dir.join("nested").join("t.csv");
        write_csv(&path, &["a", "b"], vec![row(&["1", "x,y"]), row(&["2", "quo\"te"])]).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text, "a,b\n1,\"x,y\"\n2,\"quo\"\"te\"\n");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    #[should_panic(expected = "csv row width mismatch in")]
    fn csv_rejects_a_ragged_row() {
        let dir = std::env::temp_dir().join("trace_sink_ragged_test");
        let result = std::panic::catch_unwind(|| {
            write_csv(&dir.join("t.csv"), &["a", "b"], vec![row(&["1"])])
        });
        std::fs::remove_dir_all(&dir).ok();
        std::panic::resume_unwind(result.unwrap_err());
    }

    #[test]
    fn markdown_renders_table() {
        assert_eq!(
            render_markdown(&["x", "y"], &[row(&["1", "2"])]),
            "| x | y |\n|---|---|\n| 1 | 2 |\n"
        );
    }

    #[test]
    fn io_errors_are_returned() {
        // A path under a file (not a directory) cannot be created.
        let dir = std::env::temp_dir().join("trace_sink_err_test");
        let blocker = dir.join("blocker");
        write_text(&dir, "blocker", "x").unwrap();
        assert!(write_csv(&blocker.join("t.csv"), &["a"], vec![row(&["1"])]).is_err());
        assert!(write_text(&blocker, "t.txt", "x").is_err());
        std::fs::remove_dir_all(&dir).ok();
    }
}
