//! The traced run's span record, and the arithmetic derived from it.
//!
//! A span is one call into a layer, timed from the benchmark's own code:
//! name, start, end, the span that was open when it started (its parent)
//! and the request it belongs to. Spans stay in memory until the run
//! ends and are then written out as JSON lines.
//!
//! * **Self time** of a span is its duration minus the part of its
//!   interval that its child spans cover (overlapping children count
//!   once).
//! * **Coverage** of a request is the summed duration of the layer calls
//!   that stand in for one opaque call, divided by that call's duration:
//!   1.0 means the layer calls explain the opaque call's time, less means
//!   the opaque call does work no layer call accounts for.

use std::sync::Mutex;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the recorder's epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: String,
    pub request: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    pub fn micros(&self) -> f64 {
        self.duration_ns() as f64 / 1e3
    }
}

#[derive(Debug, Default)]
struct State {
    spans: Vec<Span>,
    open: Vec<usize>,
    request: u64,
}

/// Records spans from one thread of calls at a time; the lock only makes
/// the recorder shareable with the timing store wrapper, which the trace
/// store trait requires to be `Sync`.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    state: Mutex<State>,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder { epoch: Instant::now(), state: Mutex::new(State::default()) }
    }
}

/// Closes its span when dropped.
pub struct Guard<'a> {
    recorder: &'a Recorder,
    index: usize,
}

impl Drop for Guard<'_> {
    fn drop(&mut self) {
        let end = self.recorder.now();
        let mut state = self.recorder.lock();
        state.spans[self.index].end_ns = end;
        if let Some(pos) = state.open.iter().rposition(|&i| i == self.index) {
            state.open.truncate(pos);
        }
    }
}

impl Recorder {
    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, State> {
        self.state.lock().expect("span recorder lock: no recording thread panics")
    }

    /// Tags the spans opened from now on with request `id`.
    pub fn set_request(&self, id: u64) {
        self.lock().request = id;
    }

    /// Opens a span whose parent is the innermost span still open.
    pub fn span(&self, name: impl Into<String>) -> Guard<'_> {
        let name = name.into();
        let mut state = self.lock();
        let index = state.spans.len();
        let parent = state.open.last().copied();
        let request = state.request;
        state.open.push(index);
        let start = self.now();
        state.spans.push(Span { name, request, parent, start_ns: start, end_ns: start });
        Guard { recorder: self, index }
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<T>(&self, name: impl Into<String>, f: impl FnOnce() -> T) -> T {
        let _span = self.span(name);
        f()
    }

    /// Every span recorded so far, in opening order.
    pub fn spans(&self) -> Vec<Span> {
        self.lock().spans.clone()
    }
}

/// The children of every span, by index.
pub fn children(spans: &[Span]) -> Vec<Vec<usize>> {
    let mut out = vec![Vec::new(); spans.len()];
    for (i, span) in spans.iter().enumerate() {
        if let Some(parent) = span.parent {
            out[parent].push(i);
        }
    }
    out
}

/// Length of the union of `intervals`, each clipped to `[lo, hi]`.
fn union_len(mut intervals: Vec<(u64, u64)>, lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut reach = lo;
    for (start, end) in intervals {
        let start = start.clamp(lo, hi).max(reach);
        let end = end.clamp(lo, hi);
        if end > start {
            total += end - start;
            reach = end;
        }
    }
    total
}

/// Self time of every span, in nanoseconds: its duration minus the part
/// its children cover.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let kids = children(spans);
    spans
        .iter()
        .enumerate()
        .map(|(i, span)| {
            let covered = union_len(
                kids[i].iter().map(|&c| (spans[c].start_ns, spans[c].end_ns)).collect(),
                span.start_ns,
                span.end_ns,
            );
            span.duration_ns() - covered
        })
        .collect()
}

/// Per request, the summed duration of the children of its `calls` span
/// divided by the duration of its `opaque` span. Requests missing either
/// span, or whose opaque span took no measurable time, are skipped.
pub fn coverage(spans: &[Span], opaque: &str, calls: &str) -> Vec<f64> {
    let kids = children(spans);
    let mut opaque_ns = std::collections::BTreeMap::new();
    let mut calls_ns = std::collections::BTreeMap::new();
    for (i, span) in spans.iter().enumerate() {
        if span.name == opaque {
            opaque_ns.insert(span.request, span.duration_ns());
        } else if span.name == calls {
            let sum: u64 = kids[i].iter().map(|&c| spans[c].duration_ns()).sum();
            calls_ns.insert(span.request, sum);
        }
    }
    opaque_ns
        .iter()
        .filter(|(_, &ns)| ns > 0)
        .filter_map(|(request, &ns)| calls_ns.get(request).map(|&sum| sum as f64 / ns as f64))
        .collect()
}

/// Durations (µs) of every span named `name`.
pub fn durations_us(spans: &[Span], name: &str) -> Vec<f64> {
    spans.iter().filter(|s| s.name == name).map(Span::micros).collect()
}

/// Summed duration (seconds) of every span named `name`.
pub fn total_s(spans: &[Span], name: &str) -> f64 {
    spans.iter().filter(|s| s.name == name).map(|s| s.duration_ns() as f64 / 1e9).sum()
}

/// Writes the spans as JSON lines.
pub fn write_jsonl(spans: &[Span], path: &std::path::Path) -> std::io::Result<()> {
    use std::io::Write;
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (i, span) in spans.iter().enumerate() {
        let mut value = serde_json::Value::object();
        value.insert("id", serde_json::Value::from(i));
        value.insert("name", serde_json::Value::from(span.name.as_str()));
        value.insert("request", serde_json::Value::from(span.request));
        value
            .insert("parent", span.parent.map_or(serde_json::Value::Null, serde_json::Value::from));
        value.insert("start_ns", serde_json::Value::from(span.start_ns));
        value.insert("end_ns", serde_json::Value::from(span.end_ns));
        writeln!(out, "{value}")?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, request: u64, parent: Option<usize>, start: u64, end: u64) -> Span {
        Span { name: name.into(), request, parent, start_ns: start, end_ns: end }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span("retrieve", 0, None, 0, 100),
            span("store", 0, Some(0), 10, 30),
            // Overlaps the first child by 10 ns: counted once.
            span("store", 0, Some(0), 20, 50),
            span("store", 0, Some(0), 80, 90),
            // A grandchild does not count against the root.
            span("decode", 0, Some(3), 82, 88),
        ];
        assert_eq!(self_times(&spans), vec![100 - 40 - 10, 20, 30, 10 - 6, 6]);
    }

    #[test]
    fn children_outside_the_parent_interval_are_clipped() {
        let spans = vec![span("p", 0, None, 10, 20), span("c", 0, Some(0), 5, 15)];
        assert_eq!(self_times(&spans)[0], 5);
    }

    #[test]
    fn coverage_is_layer_calls_over_the_opaque_call_per_request() {
        let spans = vec![
            span("request", 1, None, 0, 400),
            span("serve_line", 1, Some(0), 0, 100),
            span("pipeline", 1, Some(0), 100, 400),
            span("parse", 1, Some(2), 100, 110),
            span("retrieve", 1, Some(2), 110, 190),
            span("store", 1, Some(4), 120, 130),
            span("request", 2, None, 400, 500),
            span("serve_line", 2, Some(6), 400, 450),
            span("pipeline", 2, Some(6), 450, 500),
            span("parse", 2, Some(8), 450, 475),
        ];
        // Request 1: (10 + 80) / 100; grandchildren are not summed again.
        // Request 2: 25 / 50.
        assert_eq!(coverage(&spans, "serve_line", "pipeline"), vec![0.9, 0.5]);
    }

    #[test]
    fn recorder_nests_spans_and_tags_requests() {
        let recorder = Recorder::default();
        recorder.set_request(7);
        {
            let _outer = recorder.span("outer");
            recorder.time("inner", || ());
        }
        recorder.time("sibling", || ());
        let spans = recorder.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, None);
        assert!(spans.iter().all(|s| s.request == 7 && s.end_ns >= s.start_ns));
        assert!(spans[0].end_ns >= spans[1].end_ns);
    }
}
