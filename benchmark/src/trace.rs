//! The benchmark's own tracing: spans the driver records around its
//! calls into each layer (no span or counter is added to the program).
//! Spans stay in memory and are written out when the run ends.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::sync::OnceLock;
use std::time::Instant;

/// Nanoseconds since the first call in this process — the one clock every
/// latency and span uses.
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

pub const NO_PARENT: u32 = u32::MAX;

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    /// Op kind for `op` roots (`point`, `insert`, …); empty otherwise.
    pub kind: &'static str,
    /// The op's sequence number: the identifier its spans share.
    pub op: u64,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one, or [`NO_PARENT`].
    pub parent: u32,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

#[derive(Debug, Default)]
pub struct Tracer {
    spans: Vec<Span>,
}

impl Tracer {
    /// Room for `spans` spans up front, so recording inside a timed
    /// section does not allocate.
    pub fn reserve(&mut self, spans: usize) {
        self.spans.reserve(spans);
    }

    pub fn root(
        &mut self,
        name: &'static str,
        kind: &'static str,
        op: u64,
        start_ns: u64,
        end_ns: u64,
    ) -> u32 {
        self.push(Span {
            name,
            kind,
            op,
            start_ns,
            end_ns,
            parent: NO_PARENT,
        })
    }

    pub fn child(&mut self, parent: u32, name: &'static str, start_ns: u64, end_ns: u64) -> u32 {
        let op = self.spans[parent as usize].op;
        self.push(Span {
            name,
            kind: "",
            op,
            start_ns,
            end_ns,
            parent,
        })
    }

    fn push(&mut self, span: Span) -> u32 {
        debug_assert!(span.end_ns >= span.start_ns);
        self.spans.push(span);
        (self.spans.len() - 1) as u32
    }

    #[cfg(test)]
    fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations (µs) of every span called `name`.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64 / 1e3)
            .collect()
    }

    /// Per span: its duration minus the part its children cover. The
    /// driver is single-threaded, so sibling spans never overlap and the
    /// covered part is the sum of the children's durations.
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::duration_ns).collect();
        for span in &self.spans {
            if span.parent != NO_PARENT {
                let p = span.parent as usize;
                own[p] = own[p].saturating_sub(span.duration_ns());
            }
        }
        own
    }

    /// Self time summed by span name: where the time went, by layer.
    pub fn self_by_name_ns(&self) -> BTreeMap<&'static str, u64> {
        let mut by_name = BTreeMap::new();
        for (span, own) in self.spans.iter().zip(self.self_times_ns()) {
            *by_name.entry(span.name).or_insert(0) += own;
        }
        by_name
    }

    /// The largest share of any parent span that its children leave
    /// uncovered (0 when no span has children). The run requires this to
    /// stay within 5 %: the children of an `op` must account for it.
    pub fn worst_uncovered_share(&self) -> f64 {
        let mut has_child = vec![false; self.spans.len()];
        for span in &self.spans {
            if span.parent != NO_PARENT {
                has_child[span.parent as usize] = true;
            }
        }
        self.spans
            .iter()
            .zip(self.self_times_ns())
            .zip(has_child)
            .filter(|((span, _), has)| *has && span.duration_ns() > 0)
            .map(|((span, own), _)| own as f64 / span.duration_ns() as f64)
            .fold(0.0, f64::max)
    }

    /// Writes the spans as one JSON array, a span per line.
    pub fn write_json(&self, path: &Path, workload: &str) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "[")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NO_PARENT {
                "null".to_owned()
            } else {
                s.parent.to_string()
            };
            let comma = if i + 1 == self.spans.len() { "" } else { "," };
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"workload\":\"{workload}\",\"kind\":\"{}\",\"op\":{},\"start_ns\":{},\"end_ns\":{},\"parent\":{parent}}}{comma}",
                s.name, s.kind, s.op, s.start_ns, s.end_ns
            )?;
        }
        writeln!(out, "]")?;
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_children() {
        let mut t = Tracer::default();
        let op = t.root("op", "point", 7, 100, 1100);
        t.child(op, "query.bind", 100, 300);
        let drain = t.child(op, "query.drain", 300, 1050);
        t.child(drain, "inner", 400, 500);
        let lone = t.root("storage.checkpoint", "", 8, 2000, 2600);
        let own = t.self_times_ns();
        assert_eq!(own[op as usize], 1000 - 200 - 750);
        assert_eq!(own[drain as usize], 750 - 100);
        assert_eq!(own[lone as usize], 600);
        let by_name = t.self_by_name_ns();
        assert_eq!(by_name["op"], 50);
        assert_eq!(by_name["query.bind"], 200);
        assert_eq!(by_name["query.drain"], 650);
        // Self times partition the roots' total.
        assert_eq!(by_name.values().sum::<u64>(), 1000 + 600);
        assert_eq!(t.spans()[drain as usize].op, 7, "children share the op id");
    }

    #[test]
    fn uncovered_share_flags_ops_their_children_do_not_explain() {
        let mut t = Tracer::default();
        let a = t.root("op", "insert", 0, 0, 1000);
        t.child(a, "storage.write_apply", 0, 600);
        t.child(a, "storage.wal.flush", 600, 1000);
        assert_eq!(t.worst_uncovered_share(), 0.0);
        let b = t.root("op", "insert", 1, 1000, 2000);
        t.child(b, "storage.write_apply", 1000, 1900);
        assert!((t.worst_uncovered_share() - 0.1).abs() < 1e-12);
        assert_eq!(t.durations_us("storage.write_apply"), vec![0.6, 0.9]);
    }

    #[test]
    fn clock_is_monotonic() {
        let a = now_ns();
        let b = now_ns();
        assert!(b >= a);
    }
}
