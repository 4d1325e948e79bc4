//! Benchmark-side spans: one record around every call the traced run
//! makes into a layer's public entry point. Spans live in memory and
//! are written to `benchmark/out/trace-<rung>.jsonl` when the run ends;
//! nothing inside the program is instrumented.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One timed call. `parent` indexes the span that caused it (a
/// transaction's root span for its calls, `None` for the root itself);
/// spans of one transaction share `txn`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u32>,
    pub txn: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// An in-memory span log with its own epoch.
#[derive(Debug)]
pub struct Spans {
    t0: Instant,
    spans: Vec<Span>,
}

impl Default for Spans {
    fn default() -> Self {
        Spans::new()
    }
}

impl Spans {
    pub fn new() -> Spans {
        Spans {
            t0: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Open a span now; close it with [`close`](Self::close).
    pub fn open(&mut self, name: &'static str, parent: Option<u32>, txn: u64) -> u32 {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            txn,
        });
        (self.spans.len() - 1) as u32
    }

    pub fn close(&mut self, id: u32) {
        self.spans[id as usize].end_ns = self.now_ns();
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Merge another thread's log (its span indices are rebased; its
    /// clock is shifted onto this log's epoch).
    pub fn absorb(&mut self, other: Spans) {
        let base = self.spans.len() as u32;
        let shift = other.t0.saturating_duration_since(self.t0).as_nanos() as u64;
        self.spans.extend(other.spans.into_iter().map(|s| Span {
            start_ns: s.start_ns + shift,
            end_ns: s.end_ns + shift,
            parent: s.parent.map(|p| p + base),
            ..s
        }));
    }

    /// Write one JSON object per line:
    /// `{"id":..,"name":"..","start_ns":..,"end_ns":..,"parent":..|null,"txn":..}`.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"txn\":{}}}",
                s.name, s.start_ns, s.end_ns, s.txn
            )?;
        }
        out.flush()
    }
}

/// Time `f` as a span of `spans` when tracing, or just run it.
pub fn timed<R>(
    spans: &mut Option<Spans>,
    name: &'static str,
    parent: Option<u32>,
    txn: u64,
    f: impl FnOnce() -> R,
) -> R {
    match spans {
        None => f(),
        Some(s) => {
            let id = s.open(name, parent, txn);
            let r = f();
            s.close(id);
            r
        }
    }
}

/// Open a transaction's root span when tracing.
pub fn open_txn(spans: &mut Option<Spans>, txn: u64) -> Option<u32> {
    spans.as_mut().map(|s| s.open("txn", None, txn))
}

/// Close the root span [`open_txn`] opened.
pub fn close_txn(spans: &mut Option<Spans>, root: Option<u32>) {
    if let (Some(s), Some(root)) = (spans.as_mut(), root) {
        s.close(root);
    }
}

/// Self time of every span: its duration minus its children's (the
/// time spent in the span's own code, here the driver loop around the
/// calls). Children run one after another on one thread, so their
/// durations add.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut child = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child[p as usize] += s.dur_ns();
        }
    }
    spans
        .iter()
        .zip(child)
        .map(|(s, c)| s.dur_ns().saturating_sub(c))
        .collect()
}

/// Per span name, in first-appearance order: count, mean duration and
/// mean self time in nanoseconds.
pub fn by_name(spans: &[Span]) -> Vec<(&'static str, usize, f64, f64)> {
    let selfs = self_times_ns(spans);
    let mut rows: Vec<(&'static str, usize, u64, u64)> = Vec::new();
    for (s, own) in spans.iter().zip(selfs) {
        match rows.iter_mut().find(|r| r.0 == s.name) {
            Some(r) => {
                r.1 += 1;
                r.2 += s.dur_ns();
                r.3 += own;
            }
            None => rows.push((s.name, 1, s.dur_ns(), own)),
        }
    }
    rows.into_iter()
        .map(|(n, c, d, o)| (n, c, d as f64 / c as f64, o as f64 / c as f64))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<u32>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            txn: 1,
        }
    }

    #[test]
    fn self_time_subtracts_children_at_every_level() {
        // txn [0,100] -> begin [5,15], batch [20,90] -> hop [30,70]
        let tree = [
            span("txn", 0, 100, None),
            span("begin", 5, 15, Some(0)),
            span("batch", 20, 90, Some(0)),
            span("hop", 30, 70, Some(2)),
        ];
        assert_eq!(self_times_ns(&tree), vec![20, 10, 30, 40]);
        // Self times of a tree sum to the root's duration.
        assert_eq!(self_times_ns(&tree).iter().sum::<u64>(), 100);
        let rows = by_name(&tree);
        assert_eq!(rows[0], ("txn", 1, 100.0, 20.0));
        assert_eq!(rows[2], ("batch", 1, 70.0, 30.0));
    }

    #[test]
    fn children_longer_than_their_parent_saturate() {
        let tree = [span("txn", 10, 20, None), span("call", 0, 50, Some(0))];
        assert_eq!(self_times_ns(&tree), vec![0, 50]);
    }

    #[test]
    fn timed_records_only_when_tracing() {
        let mut off = None;
        assert_eq!(timed(&mut off, "x", None, 0, || 3), 3);
        assert_eq!(open_txn(&mut off, 9), None);
        close_txn(&mut off, None);
        let mut on = Some(Spans::new());
        let root = open_txn(&mut on, 9);
        assert_eq!(timed(&mut on, "call", root, 9, || 4), 4);
        close_txn(&mut on, root);
        let s = on.unwrap();
        assert_eq!(s.spans().len(), 2);
        assert_eq!(s.spans()[1].parent, Some(0));
        assert!(s.spans()[0].end_ns >= s.spans()[1].end_ns);
    }

    #[test]
    fn absorb_rebases_parents() {
        let mut a = Spans::new();
        let r = a.open("txn", None, 1);
        a.close(r);
        let mut b = Spans::new();
        let r = b.open("txn", None, 2);
        let c = b.open("call", Some(r), 2);
        b.close(c);
        b.close(r);
        a.absorb(b);
        assert_eq!(a.spans()[2].parent, Some(1));
        assert_eq!(a.spans()[1].parent, None);
    }
}
