//! # nf2-obs — structured tracing and metrics for the NF² engine
//!
//! A lightweight, dependency-free observability layer (the workspace is
//! offline, so this is vendored in-tree rather than pulled from
//! crates.io), in three pieces:
//!
//! * [`clock`] — [`Stopwatch`], the **only** sanctioned monotonic-time
//!   source outside the bench crate (`cargo xtask lint` confines
//!   `std::time::Instant` here);
//! * [`metrics`] — a [`MetricsRegistry`] of named atomic [`Counter`]s
//!   and log₂-bucketed latency [`Histogram`]s (p50/p95/p99 summaries),
//!   snapshot-exportable as text and JSON;
//! * [`trace`] — [`Span`] guards and structured [`Event`]s dispatched
//!   to a pluggable [`Subscriber`] ([`RingBufferSink`], [`StderrSink`];
//!   silent by default) behind a one-load enabled flag.
//!
//! The engine hangs onto an [`Obs`] hub and threads it through the
//! statement lifecycle; see the README's Observability section for the
//! span taxonomy and metric names.
//!
//! ```
//! use nf2_obs::{Obs, RingBufferSink};
//! use std::sync::Arc;
//!
//! let obs = Obs::new();
//! let lat = obs.registry().histogram("stmt.select.us");
//! {
//!     let _span = obs.span("stmt.select").observe(&lat);
//!     // ... run the statement ...
//! }
//! assert_eq!(lat.summarize().count, 1);
//!
//! let ring = Arc::new(RingBufferSink::new(16));
//! obs.set_subscriber(Some(ring.clone()));
//! obs.event("optimizer.rule", || vec![("rule", "push-select".into())]);
//! assert_eq!(ring.events(), vec!["optimizer.rule{rule=push-select}".to_owned()]);
//! ```

#![forbid(unsafe_code)]

pub mod clock;
pub mod metrics;
pub mod trace;

pub use clock::{format_nanos, Stopwatch};
pub use metrics::{global, Counter, Histogram, HistogramSummary, MetricsRegistry, MetricsSnapshot};
pub use trace::{Event, FieldValue, Obs, RingBufferSink, Span, StderrSink, Subscriber};
