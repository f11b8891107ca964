//! In-memory spans and counts for the traced pass.  Spans are recorded
//! by the benchmark around its calls into each layer's public
//! functions; nothing inside the program is instrumented.  The whole
//! trace is written out once, after the pass.

use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

use crate::report::{json_num, json_str, metrics_object, Metric};

#[derive(Debug, Clone)]
pub struct Span {
    pub name: String,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    #[must_use]
    pub fn secs(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 * 1e-9
    }
}

#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    counts: Vec<(String, f64)>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    #[must_use]
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            counts: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Open a span whose parent is the innermost span still open.
    pub fn begin(&mut self, name: impl Into<String>) -> usize {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name: name.into(),
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
        id
    }

    /// Close span `id` (and any span opened inside it and left open);
    /// returns its duration in seconds.
    pub fn end(&mut self, id: usize) -> f64 {
        let now = self.now_ns();
        while let Some(top) = self.open.pop() {
            self.spans[top].end_ns = now;
            if top == id {
                break;
            }
        }
        self.spans[id].secs()
    }

    /// Time `f` as a span named `name`.
    pub fn span<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> (T, f64) {
        let id = self.begin(name);
        let out = f();
        let secs = self.end(id);
        (out, secs)
    }

    /// Add `by` to the count `name`.
    pub fn count(&mut self, name: &str, by: f64) {
        match self.counts.iter_mut().find(|(n, _)| n == name) {
            Some((_, v)) => *v += by,
            None => self.counts.push((name.to_string(), by)),
        }
    }

    #[must_use]
    pub fn counts(&self) -> &[(String, f64)] {
        &self.counts
    }

    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span name: duration minus the part covered by
    /// its direct children, summed per name, in first-seen order.
    #[must_use]
    pub fn self_times(&self) -> Vec<(String, f64)> {
        let mut child = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.secs();
            }
        }
        let mut out: Vec<(String, f64)> = Vec::new();
        for (s, c) in self.spans.iter().zip(child) {
            let own = (s.secs() - c).max(0.0);
            match out.iter_mut().find(|(n, _)| *n == s.name) {
                Some((_, v)) => *v += own,
                None => out.push((s.name.clone(), own)),
            }
        }
        out
    }

    /// Write the trace as one JSON document: context, metrics, counts,
    /// self times and every span.
    ///
    /// # Errors
    /// Propagates I/O errors creating the directory or writing the file.
    pub fn write(
        &self,
        path: &Path,
        context: &[(&str, String)],
        metrics: &[Metric],
    ) -> std::io::Result<()> {
        let mut s = String::from("{\n  \"context\": {");
        let ctx: Vec<String> = context
            .iter()
            .map(|(k, v)| format!("{}: {}", json_str(k), json_str(v)))
            .collect();
        s.push_str(&ctx.join(", "));
        let _ = write!(
            s,
            "}},\n  \"metrics\": {},\n  \"counts\": {{",
            metrics_object(metrics)
        );
        let counts: Vec<String> = self
            .counts
            .iter()
            .map(|(k, v)| format!("{}: {}", json_str(k), json_num(*v)))
            .collect();
        s.push_str(&counts.join(", "));
        s.push_str("},\n  \"self_ms\": {");
        let selfs: Vec<String> = self
            .self_times()
            .iter()
            .map(|(k, v)| format!("{}: {}", json_str(k), json_num(v * 1e3)))
            .collect();
        s.push_str(&selfs.join(", "));
        s.push_str("},\n  \"spans\": [\n");
        for (i, sp) in self.spans.iter().enumerate() {
            let _ = writeln!(
                s,
                "    {{\"id\": {i}, \"parent\": {}, \"name\": {}, \"start_ns\": {}, \"end_ns\": {}}}{}",
                sp.parent.map_or("null".to_string(), |p| p.to_string()),
                json_str(&sp.name),
                sp.start_ns,
                sp.end_ns,
                if i + 1 == self.spans.len() { "" } else { "," }
            );
        }
        s.push_str("  ]\n}\n");
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_record_parents_and_self_time() {
        let mut t = Tracer::new();
        let outer = t.begin("outer");
        let (_, inner) = t.span("inner", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        let total = t.end(outer);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert!(total >= inner && inner > 0.0);
        let selfs = t.self_times();
        let outer_self = selfs.iter().find(|(n, _)| n == "outer").unwrap().1;
        assert!((outer_self - (total - inner)).abs() < 1e-6);
        t.count("x", 2.0);
        t.count("x", 3.0);
        assert_eq!(t.counts(), &[("x".to_string(), 5.0)]);
    }
}
