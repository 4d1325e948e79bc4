//! The emission handle and its shared plumbing.
//!
//! [`TraceHub`] is built once per run from a [`TraceConfig`] and owns the
//! pieces every shard shares: the global order stamp, the (optional)
//! JSONL sink, and the per-shard flight-recorder rings. It mints one
//! [`Tracer`] per shard; the engine threads the tracer through its hot
//! paths and calls [`Tracer::emit`] at each lifecycle point.
//!
//! A disabled tracer ([`Tracer::off`], the default) is a single `None`
//! check per emission site — no allocation, no locks, no syscalls — so
//! traced-off runs are bit-identical to builds that never heard of
//! tracing, which the differential tests pin down.

use crate::event::{EventKind, TraceEvent};
use crate::recorder::FlightRecorder;
use std::io::Write;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

/// Lock a trace mutex, recovering from poison: a shard worker that
/// panicked mid-emit leaves its ring poisoned, and the whole point of the
/// flight recorder is to be readable *after* such a crash. Ring and sink
/// state stay well-formed under any interleaving of their short critical
/// sections, so the poison flag carries no information here.
fn lock_unpoisoned<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// What to trace and where it goes.
#[derive(Clone, Debug, Default)]
pub struct TraceConfig {
    /// Per-shard flight-recorder capacity in events (0 = no ring).
    pub ring_capacity: usize,
    /// Live JSONL stream: every event from every shard, appended as it
    /// happens (merged order is by `gseq`, not file order).
    pub sink: Option<PathBuf>,
    /// Directory where the fault supervisor writes flight-recorder dumps
    /// (`flight-shard<K>.jsonl`) on worker panic or unrecoverable
    /// storage.
    pub dump_dir: Option<PathBuf>,
}

impl TraceConfig {
    /// Events to a JSONL sink with a default 4096-event ring per shard.
    pub fn to_sink(path: impl Into<PathBuf>) -> TraceConfig {
        TraceConfig {
            ring_capacity: 4096,
            sink: Some(path.into()),
            dump_dir: None,
        }
    }

    /// Ring-only tracing (flight recorder without a live stream).
    pub fn ring(capacity: usize) -> TraceConfig {
        TraceConfig {
            ring_capacity: capacity,
            sink: None,
            dump_dir: None,
        }
    }

    /// Set the flight-recorder dump directory.
    pub fn with_dump_dir(mut self, dir: impl Into<PathBuf>) -> TraceConfig {
        self.dump_dir = Some(dir.into());
        self
    }
}

/// The JSONL sink and the count of writes to it that failed.
struct SinkFile {
    w: Box<dyn Write + Send>,
    failed_writes: u64,
}

type Sink = Arc<Mutex<SinkFile>>;

/// The shared half of a tracing run: global stamp, sink, rings.
pub struct TraceHub {
    gseq: Arc<AtomicU64>,
    sink: Option<Sink>,
    ring_capacity: usize,
    dump_dir: Option<PathBuf>,
    rings: Mutex<Vec<(u32, Arc<Mutex<FlightRecorder>>)>>,
}

impl TraceHub {
    /// Build the hub (opening the sink file when configured).
    pub fn new(cfg: &TraceConfig) -> std::io::Result<TraceHub> {
        let sink: Option<Sink> = match &cfg.sink {
            Some(path) => {
                if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
                    std::fs::create_dir_all(parent)?;
                }
                let file = std::fs::File::create(path)?;
                Some(Arc::new(Mutex::new(SinkFile {
                    w: Box::new(std::io::BufWriter::new(file)),
                    failed_writes: 0,
                })))
            }
            None => None,
        };
        Ok(TraceHub {
            gseq: Arc::new(AtomicU64::new(0)),
            sink,
            ring_capacity: cfg.ring_capacity,
            dump_dir: cfg.dump_dir.clone(),
            rings: Mutex::new(Vec::new()),
        })
    }

    /// Mint the tracer for `shard`, registering its flight-recorder ring
    /// with the hub (so a supervisor can dump it after the shard dies).
    pub fn tracer(&self, shard: u32) -> Tracer {
        let ring = if self.ring_capacity > 0 {
            let ring = Arc::new(Mutex::new(FlightRecorder::new(self.ring_capacity)));
            lock_unpoisoned(&self.rings).push((shard, ring.clone()));
            Some(ring)
        } else {
            None
        };
        Tracer(Some(Box::new(TracerInner {
            shard,
            seq: 0,
            gseq: self.gseq.clone(),
            ring,
            sink: self.sink.clone(),
        })))
    }

    /// The flight-recorder ring of `shard` (the most recently minted
    /// tracer for it), if rings are on.
    pub fn ring(&self, shard: u32) -> Option<Arc<Mutex<FlightRecorder>>> {
        lock_unpoisoned(&self.rings)
            .iter()
            .rev()
            .find(|(s, _)| *s == shard)
            .map(|(_, r)| r.clone())
    }

    /// Snapshot every ring's events, merged into one totally ordered
    /// trace (sorted by `gseq`).
    pub fn merged_events(&self) -> Vec<TraceEvent> {
        let rings = lock_unpoisoned(&self.rings);
        let mut events = Vec::new();
        for (_, ring) in rings.iter() {
            events.extend(lock_unpoisoned(ring).events().copied());
        }
        crate::recorder::merge_ordered(events)
    }

    /// Where flight-recorder dumps go (from the config).
    pub fn dump_dir(&self) -> Option<&PathBuf> {
        self.dump_dir.as_ref()
    }

    /// Dump shard `shard`'s flight-recorder ring to
    /// `<dump_dir>/flight-shard<shard>.jsonl`, returning the path written.
    /// `None` when no dump dir is configured, the shard has no ring, or
    /// the ring is empty. The ring outlives the shard worker (the hub
    /// holds it), so this works *after* the worker panicked — its whole
    /// purpose.
    pub fn dump_ring(&self, shard: u32) -> std::io::Result<Option<PathBuf>> {
        let Some(dir) = &self.dump_dir else {
            return Ok(None);
        };
        let Some(ring) = self.ring(shard) else {
            return Ok(None);
        };
        let body = lock_unpoisoned(&ring).dump_jsonl();
        if body.is_empty() {
            return Ok(None);
        }
        std::fs::create_dir_all(dir)?;
        let path = dir.join(format!("flight-shard{shard}.jsonl"));
        std::fs::write(&path, body)?;
        Ok(Some(path))
    }

    /// Flush the JSONL sink (call before reading the file).
    pub fn flush(&self) -> std::io::Result<()> {
        match &self.sink {
            Some(sink) => lock_unpoisoned(sink).w.flush(),
            None => Ok(()),
        }
    }

    /// Writes to the JSONL sink that failed so far (0 without a sink):
    /// each lost an event. Events still in the buffer when the device
    /// fails are lost at the next [`flush`](Self::flush), whose error
    /// reports them; they are not counted here.
    pub fn failed_writes(&self) -> u64 {
        self.sink
            .as_ref()
            .map_or(0, |sink| lock_unpoisoned(sink).failed_writes)
    }
}

struct TracerInner {
    shard: u32,
    seq: u64,
    gseq: Arc<AtomicU64>,
    ring: Option<Arc<Mutex<FlightRecorder>>>,
    sink: Option<Sink>,
}

/// The per-shard emission handle. Default is off: emission is a `None`
/// check and nothing else.
#[derive(Default)]
pub struct Tracer(Option<Box<TracerInner>>);

impl Tracer {
    /// A disabled tracer (the default): every emit is a no-op.
    pub fn off() -> Tracer {
        Tracer(None)
    }

    /// Whether events are being recorded.
    pub fn is_on(&self) -> bool {
        self.0.is_some()
    }

    /// Emit one event at `tick`. On the disabled path this is a single
    /// inlined branch — no call, no allocation, no stamping, no I/O.
    #[inline]
    pub fn emit(&mut self, tick: u64, kind: EventKind) {
        if let Some(inner) = self.0.as_mut() {
            inner.record(tick, kind);
        }
    }
}

impl TracerInner {
    /// Stamp and record one event: the traced path, out of line.
    #[cold]
    fn record(&mut self, tick: u64, kind: EventKind) {
        self.seq += 1;
        let ev = TraceEvent {
            gseq: self.gseq.fetch_add(1, Ordering::Relaxed) + 1,
            shard: self.shard,
            seq: self.seq,
            tick,
            kind,
        };
        if let Some(ring) = &self.ring {
            lock_unpoisoned(ring).push(ev);
        }
        if let Some(sink) = &self.sink {
            let mut sink = lock_unpoisoned(sink);
            if writeln!(sink.w, "{}", ev.to_jsonl()).is_err() {
                sink.failed_writes += 1;
            }
        }
    }
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.0 {
            Some(i) => write!(f, "Tracer(on, shard={}, seq={})", i.shard, i.seq),
            None => write!(f, "Tracer(off)"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::validate_jsonl_line;

    #[test]
    fn off_tracer_is_inert() {
        let mut t = Tracer::off();
        assert!(!t.is_on());
        t.emit(0, EventKind::TxnBegin { txn: 1 }); // no-op, no panic
    }

    #[test]
    fn hub_stamps_a_total_order_across_tracers() {
        let hub = TraceHub::new(&TraceConfig::ring(16)).unwrap();
        let mut a = hub.tracer(0);
        let mut b = hub.tracer(1);
        a.emit(1, EventKind::TxnBegin { txn: 1 });
        b.emit(1, EventKind::TxnBegin { txn: 2 });
        a.emit(2, EventKind::Commit { txn: 1 });
        let merged = hub.merged_events();
        assert_eq!(merged.len(), 3);
        // Stamps are unique and sorted.
        for w in merged.windows(2) {
            assert!(w[0].gseq < w[1].gseq);
        }
        // Per-shard sequences are gap-free.
        let shard0: Vec<u64> = merged
            .iter()
            .filter(|e| e.shard == 0)
            .map(|e| e.seq)
            .collect();
        assert_eq!(shard0, vec![1, 2]);
    }

    #[test]
    fn sink_receives_valid_jsonl() {
        let dir = std::env::temp_dir().join("ccopt-trace-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("sink-{}.jsonl", std::process::id()));
        let hub = TraceHub::new(&TraceConfig::to_sink(&path)).unwrap();
        let mut t = hub.tracer(0);
        t.emit(1, EventKind::TxnBegin { txn: 7 });
        t.emit(
            2,
            EventKind::Abort {
                txn: 7,
                rule: crate::event::ConflictRule::Deadlock,
                var: Some(3),
                opponent: Some(8),
            },
        );
        hub.flush().unwrap();
        assert_eq!(hub.failed_writes(), 0);
        let body = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = body.lines().collect();
        assert_eq!(lines.len(), 2);
        for line in lines {
            validate_jsonl_line(line).unwrap();
        }
        let _ = std::fs::remove_file(&path);
    }

    /// A full device refuses the buffered writes once the buffer fills,
    /// and the final flush: both are reported, neither is dropped.
    #[cfg(target_os = "linux")]
    #[test]
    fn a_full_sink_counts_its_failed_writes_and_fails_its_flush() {
        let hub = TraceHub::new(&TraceConfig::to_sink("/dev/full")).unwrap();
        let mut t = hub.tracer(0);
        for tick in 0..1000 {
            t.emit(tick, EventKind::TxnBegin { txn: tick });
        }
        assert!(hub.failed_writes() > 0);
        assert!(hub.flush().is_err());
    }
}
