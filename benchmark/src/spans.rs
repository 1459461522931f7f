//! In-memory span recorder for the traced run.
//!
//! Spans are taken around calls into each layer's public functions, from
//! this package's own files; nothing inside the program is instrumented.
//! Every span carries its name, start, end, the span that caused it and
//! the id of the job it belongs to. The recorder keeps the first
//! [`SPAN_CAP`] spans for the Chrome-trace export; per-layer sums are
//! accumulated by the callers and are not capped.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Spans kept for the timeline file (a 30 s traced run takes millions).
const SPAN_CAP: usize = 60_000;

pub type SpanId = u32;

struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<SpanId>,
    job: u64,
}

pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    dropped: u64,
}

impl Recorder {
    pub fn new() -> Self {
        Recorder {
            epoch: Instant::now(),
            spans: Vec::new(),
            dropped: 0,
        }
    }

    /// Record a finished span; returns its id for children to name as
    /// their parent (`None` once the cap is reached).
    pub fn push(
        &mut self,
        name: &'static str,
        job: u64,
        parent: Option<SpanId>,
        start: Instant,
        end: Instant,
    ) -> Option<SpanId> {
        if self.spans.len() >= SPAN_CAP {
            self.dropped += 1;
            return None;
        }
        let ns = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns: ns(start),
            end_ns: ns(end),
            parent,
            job,
        });
        Some((self.spans.len() - 1) as SpanId)
    }

    /// Reserve a parent span whose end is not known yet.
    pub fn open(&mut self, name: &'static str, job: u64, start: Instant) -> Option<SpanId> {
        self.push(name, job, None, start, start)
    }

    pub fn close(&mut self, id: Option<SpanId>, end: Instant) {
        if let Some(id) = id {
            let ns = end.saturating_duration_since(self.epoch).as_nanos() as u64;
            self.spans[id as usize].end_ns = ns;
        }
    }

    /// Write the kept spans as Chrome-trace JSON (`chrome://tracing`,
    /// Perfetto): complete events, microsecond timestamps.
    pub fn write_chrome(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        write!(out, "{{\"droppedSpans\":{},\"traceEvents\":[", self.dropped)?;
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                write!(out, ",")?;
            }
            let parent = s.parent.map_or(-1, i64::from);
            write!(
                out,
                "\n{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"id\":{i},\"parent\":{parent},\"job\":{}}}}}",
                s.name,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                s.job
            )?;
        }
        writeln!(out, "\n]}}")?;
        out.flush()
    }
}
