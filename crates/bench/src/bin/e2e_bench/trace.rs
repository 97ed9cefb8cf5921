//! In-memory span recorder for the traced run.
//!
//! The harness records one span per call it makes into a layer, all from
//! the benchmark's own files: the layers themselves stay uninstrumented.
//! Spans of one epoch share the epoch number as their trace id; every
//! non-root span is a child of that epoch's [`EPOCH`] span.  Spans stay in
//! memory until the run ends and are then written as JSON lines.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Root span: one whole closed-loop epoch as the harness drives it.
pub const EPOCH: &str = "epoch";
pub const SERVICE_STEP: &str = "cloudsim.service.step_epoch";
pub const ENGINE_STEP: &str = "cloudsim.engine.step";
pub const CONTROLLER: &str = "deepdive.controller.process_epoch";
pub const FEEDBACK: &str = "deepdive.service.feedback";
pub const INJECT: &str = "harness.inject";

/// Counts observed at a span's boundary (stat deltas, event kinds).
pub type Counts = Vec<(&'static str, u64)>;

#[derive(Debug, Clone)]
pub struct Span {
    pub epoch: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub counts: Counts,
}

impl Span {
    pub fn duration_s(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 * 1e-9
    }

    pub fn count(&self, key: &str) -> u64 {
        self.counts
            .iter()
            .find(|(k, _)| *k == key)
            .map_or(0, |&(_, v)| v)
    }
}

#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Nanoseconds since the tracer was created.
    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Records a span from two [`Tracer::now_ns`] readings.  The caller
    /// reads the end before it gathers `counts`, so that work lands in the
    /// root span's self time, not in the layer's span.
    pub fn record(
        &mut self,
        epoch: u64,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        counts: Counts,
    ) {
        self.spans.push(Span {
            epoch,
            name,
            start_ns,
            end_ns,
            counts,
        });
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Spans with the given name, in recording order.
    pub fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Span> {
        self.spans.iter().filter(move |s| s.name == name)
    }

    /// Total seconds spent in spans with the given name.
    pub fn busy_s(&self, name: &str) -> f64 {
        self.named(name)
            .fold(0.0, |total, s| total + s.duration_s())
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for span in &self.spans {
            let parent = if span.name == EPOCH {
                "null".to_string()
            } else {
                format!("\"{EPOCH}\"")
            };
            let counts: Vec<String> = span
                .counts
                .iter()
                .map(|(k, v)| format!("\"{k}\":{v}"))
                .collect();
            writeln!(
                out,
                "{{\"trace\":{},\"span\":\"{}\",\"parent\":{parent},\"start_ns\":{},\
                 \"end_ns\":{},\"counts\":{{{}}}}}",
                span.epoch,
                span.name,
                span.start_ns,
                span.end_ns,
                counts.join(",")
            )?;
        }
        out.flush()
    }
}
