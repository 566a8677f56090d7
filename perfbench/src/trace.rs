//! In-memory span recorder for the traced runs.
//!
//! A span is recorded around each call the benchmark makes into one of
//! the program's layers: name, start, end, the span that caused it (the
//! request it belongs to), process CPU time over the call and the
//! counters the call returned. Spans stay in memory and are written out
//! as JSON when the run ends. With tracing off every method is a plain
//! call, so the untraced run measures the program alone.

use crate::host;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Counters attached to a span, in the order the call reported them.
pub type Counters = Vec<(&'static str, f64)>;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    /// Seconds since the recorder was created.
    pub start_s: f64,
    pub end_s: f64,
    /// Process CPU seconds (all threads) spent between start and end.
    pub cpu_s: f64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    pub counters: Counters,
}

impl Span {
    pub fn wall_s(&self) -> f64 {
        self.end_s - self.start_s
    }
}

/// Totals over every span of one name.
#[derive(Debug, Clone, Default)]
pub struct Totals {
    pub calls: usize,
    pub wall_s: f64,
    pub cpu_s: f64,
    pub counters: BTreeMap<&'static str, f64>,
}

impl Totals {
    pub fn counter(&self, name: &str) -> f64 {
        self.counters.get(name).copied().unwrap_or(0.0)
    }

    /// Mean wall time per call in milliseconds (0 when never called).
    pub fn mean_ms(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.wall_s * 1e3 / self.calls as f64
        }
    }
}

/// [`Totals`] by span name.
pub struct Layers(BTreeMap<&'static str, Totals>);

impl Layers {
    /// The totals of spans named `name` (zeros if there were none).
    pub fn get(&self, name: &str) -> Totals {
        self.0.get(name).cloned().unwrap_or_default()
    }
}

pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Turns recording on or off for the spans that follow.
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Opens a span that later spans nest under until [`Self::end`].
    pub fn begin(&mut self, name: &'static str) {
        if !self.enabled {
            return;
        }
        let span = Span {
            name,
            start_s: self.origin.elapsed().as_secs_f64(),
            end_s: 0.0,
            cpu_s: host::process_cpu_s(),
            parent: self.open.last().copied(),
            counters: Vec::new(),
        };
        self.open.push(self.spans.len());
        self.spans.push(span);
    }

    /// Closes the innermost span opened by [`Self::begin`].
    pub fn end(&mut self) {
        if !self.enabled {
            return;
        }
        if let Some(index) = self.open.pop() {
            let end_s = self.origin.elapsed().as_secs_f64();
            let span = &mut self.spans[index];
            span.end_s = end_s;
            span.cpu_s = host::process_cpu_s() - span.cpu_s;
        }
    }

    /// Runs `call` inside a span named `name`; on success `counters`
    /// turns the call's result into the span's counters.
    pub fn call<T, E>(
        &mut self,
        name: &'static str,
        call: impl FnOnce() -> Result<T, E>,
        counters: impl FnOnce(&T) -> Counters,
    ) -> Result<T, E> {
        if !self.enabled {
            return call();
        }
        self.begin(name);
        let result = call();
        self.end();
        if let (Ok(value), Some(span)) = (&result, self.spans.last_mut()) {
            span.counters = counters(value);
        }
        result
    }

    /// Per-name totals over the spans whose top-level ancestor satisfies
    /// `keep` (given that ancestor's name).
    pub fn totals(&self, keep: impl Fn(&str) -> bool) -> Layers {
        let mut totals: BTreeMap<&'static str, Totals> = BTreeMap::new();
        for span in &self.spans {
            if !keep(self.root(span).name) {
                continue;
            }
            let entry = totals.entry(span.name).or_default();
            entry.calls += 1;
            entry.wall_s += span.wall_s();
            entry.cpu_s += span.cpu_s;
            for (name, value) in &span.counters {
                *entry.counters.entry(name).or_default() += value;
            }
        }
        Layers(totals)
    }

    fn root<'a>(&'a self, mut span: &'a Span) -> &'a Span {
        while let Some(parent) = span.parent {
            span = &self.spans[parent];
        }
        span
    }

    /// Summed wall time of the direct children of the top-level spans
    /// named `request`, over the summed wall time of those top-level
    /// spans: the share of measured request time spent inside program
    /// calls rather than in benchmark glue.
    pub fn coverage(&self, request: &str) -> f64 {
        let mut covered = 0.0;
        let mut total = 0.0;
        for span in &self.spans {
            match span.parent {
                None if span.name == request => total += span.wall_s(),
                Some(parent) if self.spans[parent].name == request => covered += span.wall_s(),
                _ => {}
            }
        }
        if total > 0.0 {
            covered / total
        } else {
            0.0
        }
    }

    /// The spans as a JSON array.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[\n");
        for (i, span) in self.spans.iter().enumerate() {
            let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "  {{\"id\": {i}, \"name\": \"{}\", \"start_s\": {:.9}, \"end_s\": {:.9}, \
                 \"cpu_s\": {:.3}, \"parent\": {parent}, \"counters\": {{",
                span.name, span.start_s, span.end_s, span.cpu_s
            );
            for (j, (name, value)) in span.counters.iter().enumerate() {
                let sep = if j == 0 { "" } else { ", " };
                let _ = write!(out, "{sep}\"{name}\": {}", crate::json_number(*value));
            }
            out.push_str("}}");
            out.push_str(if i + 1 == self.spans.len() {
                "\n"
            } else {
                ",\n"
            });
        }
        out.push(']');
        out
    }
}
