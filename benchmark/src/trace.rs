//! The benchmark's own span recorder.
//!
//! Spans are recorded around the calls the benchmark makes into each
//! layer (name, start, end, parent, request id), kept in memory, and
//! written out as a chrome://tracing file when the run ends. It is owned
//! by the benchmark rather than built on `anna-telemetry`, whose API
//! ROADMAP item 5 reworks; spans *inside* the program are a later issue.

use crate::json::Json;
use std::collections::BTreeMap;
use std::time::Instant;

#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    request: u64,
}

/// Handle returned by [`Recorder::begin`]; pass it back to
/// [`Recorder::end`].
#[derive(Debug, Clone, Copy)]
pub struct SpanId(Option<usize>);

/// In-memory span log. A disabled recorder never reads the clock, so the
/// untraced rounds pay one `Instant` pair per request path and nothing
/// else.
#[derive(Debug)]
pub struct Recorder {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    requests: u64,
}

impl Recorder {
    pub fn disabled() -> Self {
        Self::new(false)
    }

    pub fn enabled() -> Self {
        Self::new(true)
    }

    fn new(enabled: bool) -> Self {
        Self {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            requests: 0,
        }
    }

    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Starts the next request path; spans opened until the following
    /// call share its id.
    pub fn next_request(&mut self) {
        self.requests += 1;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open span.
    pub fn begin(&mut self, name: &'static str) -> SpanId {
        if !self.enabled {
            return SpanId(None);
        }
        let index = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            request: self.requests,
        });
        self.open.push(index);
        SpanId(Some(index))
    }

    /// Closes `id`, which must be the innermost open span.
    pub fn end(&mut self, id: SpanId) {
        if let Some(index) = id.0 {
            let end_ns = self.now_ns();
            let top = self.open.pop();
            assert_eq!(top, Some(index), "spans must close innermost first");
            self.spans[index].end_ns = end_ns;
        }
    }

    /// Per span name: `(count, total self nanoseconds)`, where a span's
    /// self time is its duration minus the part its child spans cover.
    pub fn self_times(&self) -> BTreeMap<&'static str, (u64, u64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                child_ns[parent] += span.end_ns - span.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
        for (span, children) in self.spans.iter().zip(&child_ns) {
            let entry = out.entry(span.name).or_default();
            entry.0 += 1;
            entry.1 += (span.end_ns - span.start_ns).saturating_sub(*children);
        }
        out
    }

    /// Total duration of all spans named `name`.
    pub fn total_ns(&self, name: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end_ns - s.start_ns)
            .sum()
    }

    /// The chrome://tracing document (`ph: "X"` complete events, µs).
    pub fn chrome_trace(&self) -> Json {
        let events = self
            .spans
            .iter()
            .map(|s| {
                Json::obj([
                    ("name", Json::str(s.name)),
                    ("ph", Json::str("X")),
                    ("ts", Json::Num(s.start_ns as f64 / 1e3)),
                    ("dur", Json::Num((s.end_ns - s.start_ns) as f64 / 1e3)),
                    ("pid", Json::Num(1.0)),
                    ("tid", Json::Num(1.0)),
                    (
                        "args",
                        Json::obj([
                            ("request", Json::Num(s.request as f64)),
                            (
                                "parent",
                                s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                            ),
                        ]),
                    ),
                ])
            })
            .collect();
        Json::obj([("traceEvents", Json::Arr(events))])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_and_disabled_records_nothing() {
        let mut rec = Recorder::enabled();
        (0..7).for_each(|_| rec.next_request());
        let root = rec.begin("request");
        let child = rec.begin("engine.plan");
        std::thread::sleep(std::time::Duration::from_millis(2));
        rec.end(child);
        rec.end(root);
        let selfs = rec.self_times();
        let (count, plan_ns) = selfs["engine.plan"];
        assert_eq!(count, 1);
        assert!(plan_ns >= 2_000_000);
        // The root's self time excludes the child it encloses.
        assert_eq!(selfs["request"].1 + plan_ns, rec.total_ns("request"));
        assert!(rec.chrome_trace().render().contains("\"request\":7"));

        let mut off = Recorder::disabled();
        let id = off.begin("request");
        off.end(id);
        assert!(off.self_times().is_empty());
    }
}
