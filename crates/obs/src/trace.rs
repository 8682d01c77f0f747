//! Structured events, span guards, and pluggable subscribers.
//!
//! The shape follows the DataTracks optimizer exemplar: producers emit
//! named events with key/value fields from inside hot code
//! (per-rewrite-rule applications, statement completions), and a
//! process-chosen [`Subscriber`] consumes them — silently dropped when
//! none is installed. The enabled check is a single `Relaxed` load, so
//! instrumentation left in place costs ~nothing with tracing off.

use std::collections::VecDeque;
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use parking_lot::{Mutex, RwLock};

use crate::clock::Stopwatch;
use crate::metrics::{Histogram, MetricsRegistry};

/// A structured field value.
#[derive(Debug, Clone, PartialEq)]
pub enum FieldValue {
    /// Unsigned integer.
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Floating point.
    F64(f64),
    /// Text.
    Str(String),
}

impl fmt::Display for FieldValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FieldValue::U64(v) => write!(f, "{v}"),
            FieldValue::I64(v) => write!(f, "{v}"),
            FieldValue::F64(v) => write!(f, "{v:.3}"),
            FieldValue::Str(v) => write!(f, "{v}"),
        }
    }
}

impl From<u64> for FieldValue {
    fn from(v: u64) -> Self {
        FieldValue::U64(v)
    }
}
impl From<usize> for FieldValue {
    fn from(v: usize) -> Self {
        FieldValue::U64(v as u64)
    }
}
impl From<i64> for FieldValue {
    fn from(v: i64) -> Self {
        FieldValue::I64(v)
    }
}
impl From<f64> for FieldValue {
    fn from(v: f64) -> Self {
        FieldValue::F64(v)
    }
}
impl From<&str> for FieldValue {
    fn from(v: &str) -> Self {
        FieldValue::Str(v.to_owned())
    }
}
impl From<String> for FieldValue {
    fn from(v: String) -> Self {
        FieldValue::Str(v)
    }
}

/// One structured event: a name plus key/value fields.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Event name, dot-separated by convention (`stmt.slow`,
    /// `optimizer.rule`).
    pub name: &'static str,
    /// Structured fields, in emission order.
    pub fields: Vec<(&'static str, FieldValue)>,
}

impl Event {
    /// Renders `name{k=v, k=v}` — the sink-side text form.
    pub fn render(&self) -> String {
        let mut out = String::from(self.name);
        if !self.fields.is_empty() {
            out.push('{');
            for (i, (k, v)) in self.fields.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                out.push_str(&format!("{k}={v}"));
            }
            out.push('}');
        }
        out
    }
}

/// Consumes emitted [`Event`]s. Implementations must be cheap or
/// internally buffered — they run inline on the emitting thread.
pub trait Subscriber: Send + Sync {
    /// Receives one event.
    fn event(&self, event: &Event);
}

/// A subscriber that renders events to stderr as they arrive.
#[derive(Debug, Default)]
pub struct StderrSink;

impl Subscriber for StderrSink {
    fn event(&self, event: &Event) {
        eprintln!("[nf2-obs] {}", event.render());
    }
}

/// A subscriber that keeps the last `capacity` rendered events in a
/// ring buffer — the default consumer for tests and the interactive
/// shell (`\metrics` shows the tail).
#[derive(Debug)]
pub struct RingBufferSink {
    capacity: usize,
    buf: Mutex<VecDeque<String>>,
}

impl RingBufferSink {
    /// A ring holding at most `capacity` events (≥ 1).
    pub fn new(capacity: usize) -> Self {
        RingBufferSink {
            capacity: capacity.max(1),
            buf: Mutex::new(VecDeque::new()),
        }
    }

    /// The buffered events, oldest first.
    pub fn events(&self) -> Vec<String> {
        self.buf.lock().iter().cloned().collect()
    }

    /// Number of buffered events.
    pub fn len(&self) -> usize {
        self.buf.lock().len()
    }

    /// Whether the ring holds no events.
    pub fn is_empty(&self) -> bool {
        self.buf.lock().is_empty()
    }
}

impl Subscriber for RingBufferSink {
    fn event(&self, event: &Event) {
        let mut buf = self.buf.lock();
        if buf.len() == self.capacity {
            buf.pop_front();
        }
        buf.push_back(event.render());
    }
}

/// The observability hub an engine (or any component) hangs onto: a
/// metrics registry plus an optional subscriber behind a fast enabled
/// flag.
///
/// Two independent switches:
///
/// * the **subscriber** is silent by default — producers check
///   [`enabled`](Obs::enabled) (one `Relaxed` load) before building any
///   event, so tracing left in shipping code costs ~nothing off;
/// * **metrics** recording is on by default and can be killed with
///   [`set_metrics_enabled`](Obs::set_metrics_enabled) — the switch the
///   benchmark's `obs.metrics_overhead` toggles to price the
///   instrumentation itself.
#[derive(Debug)]
pub struct Obs {
    metrics_enabled: AtomicBool,
    subscriber_enabled: AtomicBool,
    subscriber: RwLock<Option<Arc<dyn Subscriber>>>,
    registry: Arc<MetricsRegistry>,
}

impl fmt::Debug for dyn Subscriber {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("Subscriber")
    }
}

impl Default for Obs {
    fn default() -> Self {
        Obs::new()
    }
}

impl Obs {
    /// A hub with its own private registry and no subscriber.
    pub fn new() -> Self {
        Obs::with_registry(Arc::new(MetricsRegistry::new()))
    }

    /// A hub recording into `registry` (share one across components, or
    /// pass [`crate::metrics::global`] wrapped in an `Arc` holder).
    pub fn with_registry(registry: Arc<MetricsRegistry>) -> Self {
        Obs {
            metrics_enabled: AtomicBool::new(true),
            subscriber_enabled: AtomicBool::new(false),
            subscriber: RwLock::new(None),
            registry,
        }
    }

    /// The metrics registry this hub records into.
    pub fn registry(&self) -> &Arc<MetricsRegistry> {
        &self.registry
    }

    /// Whether a subscriber is installed (the producer-side fast path).
    #[inline]
    pub fn enabled(&self) -> bool {
        self.subscriber_enabled.load(Ordering::Relaxed)
    }

    /// Whether metric recording is on (default: yes).
    #[inline]
    pub fn metrics_enabled(&self) -> bool {
        self.metrics_enabled.load(Ordering::Relaxed)
    }

    /// Kills or revives metric recording (histogram/counter updates at
    /// instrumentation sites that honor the flag).
    pub fn set_metrics_enabled(&self, on: bool) {
        self.metrics_enabled.store(on, Ordering::Relaxed);
    }

    /// Installs (or removes, with `None`) the subscriber.
    pub fn set_subscriber(&self, subscriber: Option<Arc<dyn Subscriber>>) {
        let mut slot = self.subscriber.write();
        self.subscriber_enabled
            .store(subscriber.is_some(), Ordering::Relaxed);
        *slot = subscriber;
    }

    /// Dispatches an already-built event to the subscriber, if any.
    pub fn emit(&self, event: &Event) {
        if !self.enabled() {
            return;
        }
        if let Some(sub) = self.subscriber.read().as_ref() {
            sub.event(event);
        }
    }

    /// Builds and dispatches an event **only when enabled** — with no
    /// subscriber the closure never runs and nothing allocates.
    #[inline]
    pub fn event(
        &self,
        name: &'static str,
        fields: impl FnOnce() -> Vec<(&'static str, FieldValue)>,
    ) {
        if !self.enabled() {
            return;
        }
        self.emit(&Event {
            name,
            fields: fields(),
        });
    }

    /// Opens a timed span guard: on drop it records its duration (µs)
    /// into the histogram set by [`Span::observe`] and emits a
    /// `name{…, us=…}` event when a subscriber is installed.
    pub fn span(&self, name: &'static str) -> Span<'_> {
        Span {
            obs: self,
            name,
            sw: Stopwatch::start(),
            hist: None,
            fields: Vec::new(),
        }
    }
}

/// A live span: a stopwatch plus structured fields, closed by `Drop`.
/// Fields are only collected while a subscriber is installed.
#[must_use = "a span measures the scope it is held for"]
#[derive(Debug)]
pub struct Span<'a> {
    obs: &'a Obs,
    name: &'static str,
    sw: Stopwatch,
    hist: Option<Histogram>,
    fields: Vec<(&'static str, FieldValue)>,
}

impl Span<'_> {
    /// Attaches a structured field (dropped unless a subscriber is
    /// installed, so producers can annotate unconditionally).
    pub fn field(mut self, key: &'static str, value: impl Into<FieldValue>) -> Self {
        if self.obs.enabled() {
            self.fields.push((key, value.into()));
        }
        self
    }

    /// Also records the span's duration (µs) into `hist` on drop,
    /// honoring the hub's metrics kill switch.
    pub fn observe(mut self, hist: &Histogram) -> Self {
        if self.obs.metrics_enabled() {
            self.hist = Some(hist.clone());
        }
        self
    }

    /// Elapsed time so far, in nanoseconds.
    pub fn elapsed_nanos(&self) -> u64 {
        self.sw.elapsed_nanos()
    }
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        let us = self.sw.elapsed_us();
        if let Some(h) = &self.hist {
            h.record(us);
        }
        if self.obs.enabled() {
            let mut fields = std::mem::take(&mut self.fields);
            fields.push(("us", FieldValue::U64(us)));
            self.obs.emit(&Event {
                name: self.name,
                fields,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_render_name_and_fields() {
        let e = Event {
            name: "optimizer.rule",
            fields: vec![
                ("rule", FieldValue::from("push-select")),
                ("delta", FieldValue::from(-12.0f64)),
                ("pass", FieldValue::from(3usize)),
            ],
        };
        assert_eq!(
            e.render(),
            "optimizer.rule{rule=push-select, delta=-12.000, pass=3}"
        );
        assert_eq!(
            Event {
                name: "tick",
                fields: vec![]
            }
            .render(),
            "tick"
        );
    }

    #[test]
    fn ring_buffer_keeps_the_tail() {
        let ring = RingBufferSink::new(2);
        assert!(ring.is_empty());
        for i in 0..3 {
            ring.event(&Event {
                name: "e",
                fields: vec![("i", FieldValue::U64(i))],
            });
        }
        assert_eq!(ring.len(), 2);
        assert_eq!(
            ring.events(),
            vec!["e{i=1}".to_owned(), "e{i=2}".to_owned()]
        );
    }

    #[test]
    fn disabled_hub_drops_events_and_closure_never_runs() {
        let obs = Obs::new();
        assert!(!obs.enabled());
        let mut ran = false;
        obs.event("never", || {
            ran = true;
            vec![]
        });
        assert!(!ran, "field closure must not run with no subscriber");
    }

    #[test]
    fn subscriber_receives_span_and_event() {
        let obs = Obs::new();
        let ring = Arc::new(RingBufferSink::new(8));
        obs.set_subscriber(Some(ring.clone()));
        assert!(obs.enabled());
        obs.event("one", || vec![("k", FieldValue::from("v"))]);
        {
            let _span = obs.span("work").field("rows", 7u64);
        }
        let events = ring.events();
        assert_eq!(events[0], "one{k=v}");
        assert!(events[1].starts_with("work{rows=7, us="), "{}", events[1]);
        obs.set_subscriber(None);
        obs.event("two", Vec::new);
        assert_eq!(ring.len(), 2, "uninstalled subscriber gets nothing");
    }

    #[test]
    fn span_observe_records_into_histogram_honoring_kill_switch() {
        let obs = Obs::new();
        let h = obs.registry().histogram("work.us");
        {
            let _s = obs.span("work").observe(&h);
        }
        assert_eq!(h.summarize().count, 1);
        obs.set_metrics_enabled(false);
        {
            let _s = obs.span("work").observe(&h);
        }
        assert_eq!(h.summarize().count, 1, "killed metrics record nothing");
    }
}
