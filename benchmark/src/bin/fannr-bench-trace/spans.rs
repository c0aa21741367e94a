//! Spans recorded from the benchmark's side of every layer boundary,
//! kept in memory and written out when the run ends.
//!
//! One span per line of `trace_<workload>.jsonl`:
//! `{name, span, parent, request, start_ns, end_ns}`. Spans of one
//! request share `request`; `parent` is 0 for a root. A layer's self time
//! is its span minus the part its children cover.

use std::collections::HashMap;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    /// 1-based; 0 is "no parent".
    pub span: u32,
    pub parent: u32,
    pub request: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Recorder {
    origin: Instant,
    pub spans: Vec<Span>,
}

impl Recorder {
    pub fn new() -> Recorder {
        Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Open a span now; close it with [`Recorder::end`].
    pub fn begin(&mut self, name: &'static str, parent: u32, request: u64) -> u32 {
        let span = self.spans.len() as u32 + 1;
        let now = self.ns(Instant::now());
        self.spans.push(Span {
            name,
            span,
            parent,
            request,
            start_ns: now,
            end_ns: now,
        });
        span
    }

    pub fn end(&mut self, span: u32) {
        let now = self.ns(Instant::now());
        self.spans[span as usize - 1].end_ns = now;
    }

    /// Record a span whose ends were observed elsewhere (a client-side
    /// span from the load generator, or the server-reported service time
    /// placed inside it).
    pub fn add(
        &mut self,
        name: &'static str,
        parent: u32,
        request: u64,
        start: Instant,
        end: Instant,
    ) -> u32 {
        let span = self.spans.len() as u32 + 1;
        self.spans.push(Span {
            name,
            span,
            parent,
            request,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
        });
        span
    }

    /// Durations of every span called `name`, microseconds.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64 / 1e3)
            .collect()
    }

    /// Self time of every span called `name`, microseconds: its duration
    /// minus the durations of its direct children (children of one span
    /// never overlap here: each layer is called in turn).
    pub fn self_times_us(&self, name: &str) -> Vec<f64> {
        let mut covered: HashMap<u32, u64> = HashMap::new();
        for s in &self.spans {
            if s.parent != 0 {
                *covered.entry(s.parent).or_default() += s.duration_ns();
            }
        }
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| {
                let inside = covered.get(&s.span).copied().unwrap_or(0);
                s.duration_ns().saturating_sub(inside) as f64 / 1e3
            })
            .collect()
    }

    /// Total self time per span name, largest first: where the traced
    /// time went.
    pub fn self_time_by_name(&self) -> Vec<(&'static str, f64)> {
        let mut names: Vec<&'static str> = self.spans.iter().map(|s| s.name).collect();
        names.sort_unstable();
        names.dedup();
        let mut rows: Vec<(&'static str, f64)> = names
            .into_iter()
            .map(|n| (n, self.self_times_us(n).iter().sum::<f64>()))
            .collect();
        rows.sort_by(|a, b| b.1.total_cmp(&a.1));
        rows
    }

    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        let mut out = BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            writeln!(
                out,
                r#"{{"name":"{}","span":{},"parent":{},"request":{},"start_ns":{},"end_ns":{}}}"#,
                s.name, s.span, s.parent, s.request, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}
