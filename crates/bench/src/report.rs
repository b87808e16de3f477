//! Table rendering and TSV persistence for experiment output.

use std::fmt::Write as _;
use std::fs;
use std::io::Write as _;
use std::path::Path;

use pbitree_joins::JoinStats;

/// A simple column-aligned table that also serializes as TSV.
#[derive(Debug, Clone)]
pub struct Table {
    title: String,
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Starts a table with a title and column names.
    pub fn new<S: AsRef<str>>(title: &str, header: &[S]) -> Self {
        Table {
            title: title.to_owned(),
            header: header.iter().map(|s| s.as_ref().to_owned()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends one row (must match the header width).
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.header.len(), "row width mismatch");
        self.rows.push(cells);
    }

    /// Renders the aligned text table.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "== {} ==", self.title);
        let line = |cells: &[String], widths: &[usize]| {
            let mut s = String::new();
            for (i, c) in cells.iter().enumerate() {
                let _ = write!(s, "{:>w$}  ", c, w = widths[i]);
            }
            s.trim_end().to_owned()
        };
        let _ = writeln!(out, "{}", line(&self.header, &widths));
        let _ = writeln!(
            out,
            "{}",
            "-".repeat(widths.iter().sum::<usize>() + 2 * widths.len())
        );
        for row in &self.rows {
            let _ = writeln!(out, "{}", line(row, &widths));
        }
        out
    }

    /// Prints to stdout and writes a TSV copy under `results/` (created
    /// on demand) whose second header line is the invoking command (see
    /// [`command_line`]). Errors writing the file are reported, not fatal
    /// — the console output is the primary artifact.
    pub fn emit(&self, results_dir: &Path, file_stem: &str) {
        println!("{}", self.render());
        if let Err(e) = self.write_tsv(results_dir, file_stem, &command_line()) {
            eprintln!("warning: could not write results TSV: {e}");
        }
    }

    fn write_tsv(&self, dir: &Path, stem: &str, command: &str) -> std::io::Result<()> {
        fs::create_dir_all(dir)?;
        let path = dir.join(format!("{stem}.tsv"));
        let mut f = fs::File::create(&path)?;
        writeln!(f, "# {}", self.title)?;
        writeln!(f, "# command: {command}")?;
        writeln!(f, "{}", self.header.join("\t"))?;
        for row in &self.rows {
            writeln!(f, "{}", row.join("\t"))?;
        }
        Ok(())
    }
}

/// The running binary's invocation as the `cargo run` line that repeats
/// it: the binary named by `argv[0]`'s file stem, then its arguments.
pub fn command_line() -> String {
    let mut argv = std::env::args();
    let bin = argv.next().unwrap_or_default();
    let bin = Path::new(&bin)
        .file_stem()
        .unwrap_or_default()
        .to_string_lossy();
    let mut line = format!("cargo run --release -p pbitree-bench --bin {bin}");
    let rest: Vec<String> = argv.collect();
    if !rest.is_empty() {
        line = format!("{line} -- {}", rest.join(" "));
    }
    line
}

/// What every panel prints per measured run, in this order: simulated
/// disk seconds, measured CPU seconds, pages moved. The two clocks are
/// separate columns and never summed.
pub const CLOCK_COLS: [&str; 3] = ["sim_s", "cpu_s", "pages"];

/// A header of `keys`, then [`CLOCK_COLS`] for each labelled run
/// (`{label}_sim_s`, `{label}_cpu_s`, `{label}_pages`).
pub fn clock_header<L: std::fmt::Display>(keys: &[&str], labels: &[L]) -> Vec<String> {
    let mut header: Vec<String> = keys.iter().map(|k| k.to_string()).collect();
    for label in labels {
        header.extend(CLOCK_COLS.map(|c| format!("{label}_{c}")));
    }
    header
}

/// One run's cells under [`CLOCK_COLS`].
pub fn clock_cells(stats: &JoinStats) -> [String; 3] {
    [
        fmt_secs(stats.io.sim_secs()),
        fmt_secs(stats.cpu_ns as f64 / 1e9),
        stats.io.total().to_string(),
    ]
}

/// A row under [`clock_header`] with one key column: `key`, then each
/// run's [`clock_cells`].
pub fn clock_row(key: String, runs: &[&JoinStats]) -> Vec<String> {
    let mut row = vec![key];
    for stats in runs {
        row.extend(clock_cells(stats));
    }
    row
}

/// Formats seconds with adaptive precision (paper style: "402.7", "0.88").
pub fn fmt_secs(s: f64) -> String {
    if s >= 100.0 {
        format!("{s:.1}")
    } else if s >= 1.0 {
        format!("{s:.2}")
    } else {
        format!("{s:.3}")
    }
}

/// Formats a ratio as a percentage.
pub fn fmt_pct(r: f64) -> String {
    format!("{:.1}%", r * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_and_tsv() {
        let mut t = Table::new("Demo", &["name", "value"]);
        t.row(vec!["SLLH".into(), "42".into()]);
        t.row(vec!["x".into(), "7".into()]);
        let s = t.render();
        assert!(s.contains("Demo"));
        assert!(s.contains("SLLH"));
        let dir = std::env::temp_dir().join(format!("pbitree-report-{}", std::process::id()));
        t.write_tsv(&dir, "demo", "cargo run --bin demo").unwrap();
        let tsv = std::fs::read_to_string(dir.join("demo.tsv")).unwrap();
        let lines: Vec<&str> = tsv.lines().collect();
        assert_eq!(
            lines[..3],
            ["# Demo", "# command: cargo run --bin demo", "name\tvalue"]
        );
        assert!(tsv.contains("SLLH\t42"));
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn clock_header_labels_each_run() {
        let h = clock_header(&["dataset"], &["SHCJ", "VPJ"]);
        assert_eq!(h[0], "dataset");
        assert_eq!(h[1..4], ["SHCJ_sim_s", "SHCJ_cpu_s", "SHCJ_pages"]);
        assert_eq!(h.len(), 7);
    }

    #[test]
    fn formatting() {
        assert_eq!(fmt_secs(402.71), "402.7");
        assert_eq!(fmt_secs(7.068), "7.07");
        assert_eq!(fmt_secs(0.88), "0.880");
        assert_eq!(fmt_pct(0.955), "95.5%");
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn width_checked() {
        let mut t = Table::new("t", &["a", "b"]);
        t.row(vec!["only-one".into()]);
    }
}
