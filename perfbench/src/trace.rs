//! The traced run's in-memory recorder: spans around the benchmark's own
//! calls into each crate, counters at the same boundaries, distributions
//! (route lengths, cell times), and a [`Probe`] that counts the program's
//! telemetry events.
//!
//! Nothing here reaches inside the program: a span brackets one call the
//! benchmark makes into a crate's public API. With tracing off the recorder
//! keeps nothing and only returns elapsed times.

use geogossip::analysis::json::JsonValue;
use geogossip::telemetry::{Event, Probe};
use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded span: a named interval and the span that enclosed it.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name, e.g. `graph.build`.
    pub name: &'static str,
    /// Start, in nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the recorder was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

/// A span that has begun; hand it back to [`Tracer::end`].
#[must_use = "a begun span must be ended"]
pub struct Open {
    index: Option<usize>,
    start: Instant,
}

/// Counts every telemetry event it receives, by kind.
#[derive(Debug, Default)]
pub struct CountingProbe {
    /// Events seen per [`Event::kind`].
    pub by_kind: BTreeMap<&'static str, u64>,
}

impl CountingProbe {
    /// Events of one kind.
    pub fn count(&self, kind: &str) -> u64 {
        self.by_kind.get(kind).copied().unwrap_or(0)
    }

    /// Events of every kind.
    pub fn total(&self) -> u64 {
        self.by_kind.values().sum()
    }
}

impl Probe for CountingProbe {
    fn on_event(&mut self, event: Event) {
        *self.by_kind.entry(event.kind()).or_insert(0) += 1;
    }
}

/// Spans, counters and distributions of one run.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    counters: BTreeMap<&'static str, f64>,
    samples: BTreeMap<&'static str, Vec<f64>>,
    /// The event counter handed to the program's probed entry points.
    pub probe: CountingProbe,
}

impl Tracer {
    /// A recorder that keeps everything (`enabled`) or only times.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            counters: BTreeMap::new(),
            samples: BTreeMap::new(),
            probe: CountingProbe::default(),
        }
    }

    /// Whether spans, samples and events are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Begins a span nested in the innermost open one.
    pub fn begin(&mut self, name: &'static str) -> Open {
        let start = Instant::now();
        let index = self.enabled.then(|| {
            let index = self.spans.len();
            self.spans.push(Span {
                name,
                start_ns: self.ns(start),
                end_ns: 0,
                parent: self.stack.last().copied(),
            });
            self.stack.push(index);
            index
        });
        Open { index, start }
    }

    /// Ends a span, returning its duration in seconds.
    pub fn end(&mut self, open: Open) -> f64 {
        let end = Instant::now();
        if let Some(index) = open.index {
            let top = self.stack.pop();
            debug_assert_eq!(top, Some(index), "spans must end innermost first");
            self.spans[index].end_ns = self.ns(end);
        }
        (end - open.start).as_secs_f64()
    }

    /// Records a span that already happened (the lab reports a cell's
    /// duration only once the cell is done), returning its length.
    pub fn record(&mut self, name: &'static str, start: Instant, end: Instant) -> f64 {
        if self.enabled {
            let span = Span {
                name,
                start_ns: self.ns(start),
                end_ns: self.ns(end),
                parent: self.stack.last().copied(),
            };
            self.spans.push(span);
        }
        (end - start).as_secs_f64()
    }

    /// Adds `value` to a counter kept at a layer boundary.
    pub fn add(&mut self, counter: &'static str, value: f64) {
        if self.enabled {
            *self.counters.entry(counter).or_insert(0.0) += value;
        }
    }

    /// A counter's total (0 when never touched).
    pub fn counter(&self, counter: &str) -> f64 {
        self.counters.get(counter).copied().unwrap_or(0.0)
    }

    /// Keeps one observation of a distribution (route lengths, cell times).
    pub fn sample(&mut self, metric: &'static str, value: f64) {
        if self.enabled {
            self.samples.entry(metric).or_default().push(value);
        }
    }

    /// The observations of one distribution.
    pub fn samples(&self, name: &str) -> &[f64] {
        self.samples.get(name).map_or(&[], Vec::as_slice)
    }

    /// The recorded spans, in begin order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total and self time (duration minus the part covered by child spans)
    /// per span name, in seconds.
    pub fn span_totals(&self) -> BTreeMap<&'static str, (f64, f64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                child_ns[parent] += span.end_ns.saturating_sub(span.start_ns);
            }
        }
        let mut totals: BTreeMap<&'static str, (f64, f64)> = BTreeMap::new();
        for (span, child) in self.spans.iter().zip(child_ns) {
            let duration = span.end_ns.saturating_sub(span.start_ns);
            let entry = totals.entry(span.name).or_default();
            entry.0 += duration as f64 * 1e-9;
            entry.1 += duration.saturating_sub(child) as f64 * 1e-9;
        }
        totals
    }

    /// Everything recorded, as one JSON document.
    pub fn to_json(&self, context: JsonValue, metrics: JsonValue) -> JsonValue {
        let spans = self
            .spans
            .iter()
            .map(|s| {
                JsonValue::object(vec![
                    ("name", JsonValue::string(s.name)),
                    ("start_ns", s.start_ns.into()),
                    ("end_ns", s.end_ns.into()),
                    (
                        "parent",
                        s.parent.map_or(JsonValue::Null, |p| (p as u64).into()),
                    ),
                ])
            })
            .collect();
        let totals = self
            .span_totals()
            .into_iter()
            .map(|(name, (total, own))| {
                (
                    name.to_string(),
                    JsonValue::object(vec![("total_s", total.into()), ("self_s", own.into())]),
                )
            })
            .collect();
        let counters = self
            .counters
            .iter()
            .map(|(name, v)| (name.to_string(), (*v).into()))
            .collect();
        let events = self
            .probe
            .by_kind
            .iter()
            .map(|(kind, n)| (kind.to_string(), (*n).into()))
            .collect();
        JsonValue::object(vec![
            ("context", context),
            ("metrics", metrics),
            ("span_totals", JsonValue::Object(totals)),
            ("counters", JsonValue::Object(counters)),
            ("events", JsonValue::Object(events)),
            ("spans", JsonValue::Array(spans)),
        ])
    }

    fn ns(&self, at: Instant) -> u64 {
        (at - self.origin).as_nanos() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_self_time_excludes_children() {
        let mut tracer = Tracer::new(true);
        let outer = tracer.begin("outer");
        let inner = tracer.begin("inner");
        std::thread::sleep(std::time::Duration::from_millis(5));
        tracer.end(inner);
        tracer.end(outer);
        assert_eq!(tracer.spans()[1].parent, Some(0));
        let totals = tracer.span_totals();
        let (outer_total, outer_self) = totals["outer"];
        assert!(outer_total >= 0.005);
        assert!(outer_self < outer_total);
    }

    #[test]
    fn a_disabled_tracer_keeps_nothing_but_still_times() {
        let mut tracer = Tracer::new(false);
        let open = tracer.begin("x");
        assert!(tracer.end(open) >= 0.0);
        tracer.sample("x", 1.0);
        tracer.add("y", 1.0);
        assert!(tracer.spans().is_empty() && tracer.samples("x").is_empty());
        assert_eq!(tracer.counter("y"), 0.0);
    }
}
