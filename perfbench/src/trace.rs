//! In-memory span recorder for the traced run.
//!
//! Spans are opened and closed around calls into the program's public
//! functions from this benchmark's own code. Each span keeps its name, start,
//! end, parent span and operation id; nothing is written until the run ends.
//! A disabled tracer reads no clock, so the same code path measures the
//! untraced cost and the difference is the tracing overhead.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

const NO_PARENT: u32 = u32::MAX;

#[derive(Clone, Copy)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: u32,
    op: u32,
}

/// Per-name totals of one or more traced operations.
#[derive(Debug, Default, Clone, Copy)]
pub struct SpanTotals {
    /// Sum of span durations in seconds.
    pub total_s: f64,
    /// Sum of span durations minus the time their direct children cover.
    pub self_s: f64,
    /// Number of spans with this name.
    pub count: u64,
}

pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    op: u32,
    last: Vec<Span>,
}

/// Handle of an open span; closing it with [`Tracer::exit`] records its end.
#[must_use]
pub struct Open(u32);

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
            last: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Starts a new operation: later spans carry its id.
    pub fn begin_op(&mut self) {
        self.op += 1;
    }

    pub fn enter(&mut self, name: &'static str) -> Open {
        if !self.enabled {
            return Open(NO_PARENT);
        }
        let index = self.spans.len() as u32;
        let parent = self.open.last().copied().unwrap_or(NO_PARENT);
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            op: self.op,
        });
        self.open.push(index);
        Open(index)
    }

    pub fn exit(&mut self, open: Open) {
        if !self.enabled {
            return;
        }
        let end_ns = self.now_ns();
        let popped = self.open.pop();
        debug_assert_eq!(popped, Some(open.0), "spans close in LIFO order");
        self.spans[open.0 as usize].end_ns = end_ns;
    }

    /// Records an interval timed elsewhere (another thread, a child process)
    /// as a closed span under `parent`, or under the innermost open span.
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<u32>,
    ) -> u32 {
        if !self.enabled {
            return NO_PARENT;
        }
        let ns = |at: Instant| at.saturating_duration_since(self.origin).as_nanos() as u64;
        let parent = parent.unwrap_or_else(|| self.open.last().copied().unwrap_or(NO_PARENT));
        let index = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            start_ns: ns(start),
            end_ns: ns(end),
            parent,
            op: self.op,
        });
        index
    }

    /// Per-name totals of the spans recorded since the last call, with self
    /// time computed from the parent links. The spans move aside for
    /// [`Tracer::write_spans`], so only the last operation's stay in memory.
    pub fn take_totals(&mut self) -> BTreeMap<&'static str, SpanTotals> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if span.parent != NO_PARENT {
                child_ns[span.parent as usize] += span.end_ns - span.start_ns;
            }
        }
        let mut totals: BTreeMap<&'static str, SpanTotals> = BTreeMap::new();
        for (span, children) in self.spans.iter().zip(&child_ns) {
            let duration = span.end_ns - span.start_ns;
            let entry = totals.entry(span.name).or_default();
            entry.total_s += duration as f64 * 1e-9;
            entry.self_s += duration.saturating_sub(*children) as f64 * 1e-9;
            entry.count += 1;
        }
        self.last = std::mem::take(&mut self.spans);
        totals
    }

    /// Writes the last operation's spans as tab-separated lines
    /// (`op  index  parent  name  start_ns  end_ns`; parent `-` for roots).
    pub fn write_spans(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "op\tindex\tparent\tname\tstart_ns\tend_ns")?;
        for (index, span) in self.last.iter().enumerate() {
            let parent = if span.parent == NO_PARENT {
                "-".to_string()
            } else {
                span.parent.to_string()
            };
            writeln!(
                out,
                "{}\t{index}\t{parent}\t{}\t{}\t{}",
                span.op, span.name, span.start_ns, span.end_ns
            )?;
        }
        out.flush()
    }
}
