//! Shared harness for the experiment binaries: result tables, CSV
//! emission, parallel sweeps, and the golden harness ([`golden`]).
//!
//! Every table and figure of the paper has one binary in `src/bin/`
//! that regenerates it (see DESIGN.md's per-experiment index).  The
//! binaries whose output is pinned (`engine_perf`, `resilience`,
//! `migration`, `service`, `preemption`) gate it on byte-identical
//! golden CSVs through [`golden`].

pub mod cm5_common;
pub mod golden;
pub mod plot;
pub mod regions_common;
pub mod service_common;
pub mod svg;
pub mod workload_common;

use std::fmt::Write as _;
use std::fs;
use std::path::PathBuf;

/// A rectangular results table that renders as aligned text and CSV.
#[derive(Debug, Clone)]
pub struct ResultTable {
    title: String,
    columns: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl ResultTable {
    /// New table with the given title and column headers.
    #[must_use]
    pub fn new(title: impl Into<String>, columns: &[&str]) -> Self {
        Self {
            title: title.into(),
            columns: columns.iter().map(|s| (*s).to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append one row (must match the column count).
    ///
    /// # Panics
    /// Panics on column-count mismatch.
    pub fn push_row(&mut self, row: Vec<String>) {
        assert_eq!(row.len(), self.columns.len(), "row/column mismatch");
        self.rows.push(row);
    }

    /// Number of data rows.
    #[must_use]
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no data rows.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Aligned human-readable rendering.
    #[must_use]
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.columns.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "{}", self.title);
        let mut header = String::new();
        for (w, c) in widths.iter().zip(&self.columns) {
            let _ = write!(header, "{c:>w$}  ", w = w);
        }
        let _ = writeln!(out, "{}", header.trim_end());
        let _ = writeln!(out, "{}", "-".repeat(header.trim_end().len()));
        for row in &self.rows {
            let mut line = String::new();
            for (w, cell) in widths.iter().zip(row) {
                let _ = write!(line, "{cell:>w$}  ", w = w);
            }
            let _ = writeln!(out, "{}", line.trim_end());
        }
        out
    }

    /// CSV rendering (header + rows).
    #[must_use]
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{}", self.columns.join(","));
        for row in &self.rows {
            let _ = writeln!(out, "{}", row.join(","));
        }
        out
    }

    /// Write the CSV into `results/<name>.csv` under the workspace
    /// root; returns the path.
    ///
    /// # Panics
    /// Panics if the results directory cannot be created or written.
    pub fn save_csv(&self, name: &str) -> PathBuf {
        let dir = results_dir();
        fs::create_dir_all(&dir).expect("create results dir");
        let path = dir.join(format!("{name}.csv"));
        fs::write(&path, self.to_csv()).expect("write csv");
        path
    }
}

/// `<workspace>/results` (next to the top-level Cargo.toml), with the
/// workspace root resolved at run time ([`golden::workspace_root`]).
#[must_use]
pub fn results_dir() -> PathBuf {
    golden::workspace_root().join("results")
}

/// Format an efficiency / ratio to three decimals, or `-`.
#[must_use]
pub fn fmt_opt(x: Option<f64>) -> String {
    x.map_or_else(|| "-".to_string(), |v| format!("{v:.3}"))
}

/// Run a sweep in parallel across the host's cores, preserving input
/// order.  Each simulation inside stays single-run deterministic; only
/// *independent* runs are parallelised (see DESIGN.md §7).
pub fn parallel_sweep<I, O, F>(inputs: Vec<I>, f: F) -> Vec<O>
where
    I: Send + Sync,
    O: Send,
    F: Fn(&I) -> O + Sync,
{
    let workers = std::thread::available_parallelism()
        .map_or(1, std::num::NonZeroUsize::get)
        .min(inputs.len().max(1));
    if workers <= 1 {
        return inputs.iter().map(&f).collect();
    }
    // Interleaved work-split over scoped threads: worker w takes inputs
    // w, w + workers, w + 2·workers, …, so long and short simulations
    // spread evenly without a work-stealing queue.
    let mut out: Vec<Option<O>> = Vec::with_capacity(inputs.len());
    out.resize_with(inputs.len(), || None);
    let slots: Vec<(usize, std::sync::Mutex<&mut Option<O>>)> = out
        .iter_mut()
        .enumerate()
        .map(|(i, slot)| (i, std::sync::Mutex::new(slot)))
        .collect();
    std::thread::scope(|scope| {
        for w in 0..workers {
            let f = &f;
            let inputs = &inputs;
            let slots = &slots;
            scope.spawn(move || {
                for (i, slot) in slots.iter().skip(w).step_by(workers) {
                    let value = f(&inputs[*i]);
                    **slot.lock().expect("sweep slot lock") = Some(value);
                }
            });
        }
    });
    out.into_iter()
        .map(|v| v.expect("every sweep slot filled"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_render_and_csv() {
        let mut t = ResultTable::new("demo", &["n", "E"]);
        t.push_row(vec!["64".into(), "0.5".into()]);
        t.push_row(vec!["128".into(), "0.75".into()]);
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
        let text = t.render();
        assert!(text.contains("demo"));
        assert!(text.contains("0.75"));
        let csv = t.to_csv();
        assert_eq!(csv.lines().next(), Some("n,E"));
        assert_eq!(csv.lines().count(), 3);
    }

    #[test]
    #[should_panic(expected = "row/column mismatch")]
    fn row_length_checked() {
        let mut t = ResultTable::new("demo", &["a", "b"]);
        t.push_row(vec!["1".into()]);
    }

    #[test]
    fn parallel_sweep_preserves_order() {
        let out = parallel_sweep((0..100).collect(), |&x: &i32| x * 2);
        assert_eq!(out, (0..100).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn results_dir_is_workspace_level() {
        let d = results_dir();
        assert!(d.ends_with("results"));
        assert!(d.parent().unwrap().join("Cargo.toml").exists());
    }
}
