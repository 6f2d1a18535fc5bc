//! In-memory span recorder for the traced runs.
//!
//! The benchmark opens a span around each call it makes into a layer's
//! public API. A span has a name, the id of the repetition or job it
//! belongs to, a start, an end and the span that caused it. Spans stay
//! in memory until the run ends, then go to one JSON-lines file.

use std::collections::BTreeMap;
use std::fs;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::time::Instant;

/// One recorded interval.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub name: &'static str,
    pub id: u32,
    pub start: Instant,
    pub end: Instant,
    pub parent: Option<usize>,
}

/// Every span of a run, in the order they were opened.
#[derive(Debug)]
pub struct Spans {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Spans {
    pub fn new() -> Self {
        Spans {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Opens a span now; [`close`](Self::close) sets its end.
    pub fn open(&mut self, name: &'static str, id: u32, parent: Option<usize>) -> usize {
        let now = Instant::now();
        self.record(name, id, parent, now, now)
    }

    pub fn close(&mut self, span: usize) {
        self.spans[span].end = Instant::now();
    }

    /// Adds a span whose ends the caller already measured.
    pub fn record(
        &mut self,
        name: &'static str,
        id: u32,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> usize {
        self.spans.push(Span {
            name,
            id,
            start,
            end,
            parent,
        });
        self.spans.len() - 1
    }

    /// Runs `f` inside a span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        id: u32,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> T {
        let span = self.open(name, id, parent);
        let out = f();
        self.close(span);
        out
    }

    /// Self time in host seconds per `(id, name)`: each span's duration
    /// minus the part of it its direct children cover.
    pub fn self_times(&self) -> BTreeMap<(u32, &'static str), f64> {
        let secs = |s: &Span| s.end.duration_since(s.start).as_secs_f64();
        let mut children = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p] += secs(s);
            }
        }
        let mut out = BTreeMap::new();
        for (s, covered) in self.spans.iter().zip(children) {
            *out.entry((s.id, s.name)).or_insert(0.0) += secs(s) - covered;
        }
        out
    }

    /// Writes every span as one JSON line (times in ns since the
    /// recorder was created).
    pub fn write(&self, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            fs::create_dir_all(dir)?;
        }
        let mut out = BufWriter::new(fs::File::create(path)?);
        let ns = |t: Instant| t.duration_since(self.epoch).as_nanos();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            writeln!(
                out,
                r#"{{"span":{i},"name":"{}","id":{},"start_ns":{},"end_ns":{},"parent":{parent}}}"#,
                s.name,
                s.id,
                ns(s.start),
                ns(s.end)
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use std::time::Duration;

    use super::*;

    #[test]
    fn self_time_subtracts_direct_children() {
        let mut spans = Spans::new();
        let t0 = Instant::now();
        let ms = |n| t0 + Duration::from_millis(n);
        let root = spans.record("outer", 1, None, ms(0), ms(10));
        let child = spans.record("inner", 1, Some(root), ms(2), ms(6));
        spans.record("leaf", 1, Some(child), ms(3), ms(4));
        spans.record("inner", 2, None, ms(20), ms(21));
        let st = spans.self_times();
        let close = |a: f64, b: f64| (a - b).abs() < 1e-9;
        assert!(close(st[&(1, "outer")], 0.006));
        assert!(close(st[&(1, "inner")], 0.003));
        assert!(close(st[&(1, "leaf")], 0.001));
        assert!(close(st[&(2, "inner")], 0.001));
    }
}
