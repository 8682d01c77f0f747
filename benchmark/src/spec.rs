//! What the benchmark declares: its workloads and every metric with unit,
//! direction and regression bound. `BENCHMARK.json` at the repo root says
//! the same thing for the driver; `selfcheck` fails if the two disagree or
//! a run emits a name that is not here.

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricSpec {
    pub name: &'static str,
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// End-to-end only: the share of the baseline median by which the
    /// metric may worsen before it counts as a regression.
    pub bound: Option<f64>,
    /// Counts the program makes itself: they repeat exactly for a seed,
    /// so `compare` wants them within 0.5 % instead of within a spread.
    pub exact: bool,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    bound: f64,
) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound: Some(bound),
        exact: false,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound: None,
        exact: false,
    }
}

const fn exact(name: &'static str, unit: &'static str, better: &'static str) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound: None,
        exact: true,
    }
}

pub const WORKLOADS: [(&str, &str); 4] = [
    (
        "read_serving",
        "prepared reads on 100k students (~500k rows, larger than the LLC), fresh segments, no writes: the scan/prune/zone/stream path works; parser, planner, maintenance and WAL are bypassed",
    ),
    (
        "adhoc_mix",
        "a fresh SQL text per statement through Session::run on 400 students (fits in L2): lex, parse, plan, optimize, verify, compile and render dominate; storage is idle",
    ),
    (
        "oltp_durable",
        "75% prepared reads, 25% durable writes on 20k students, autoflushed WAL, periodic checkpoints, crash and recovery: writes beside reads on the same layers",
    ),
    (
        "bulk_ingest",
        "cold sharded bulk loads, append_batch streams in batches of 100/1000/5000, checkpoint and reopen: kernel nest, shard fan-out and the rebuild policy work; the query layer is idle",
    ),
];

/// Measured with tracing off; every workload reports every one of them.
pub const END_TO_END: [MetricSpec; 5] = [
    e2e("setup_s", "s", "lower", 0.25),
    e2e("throughput_ops_s", "1/s", "higher", 0.25),
    e2e("op_p50_us", "us", "lower", 0.25),
    e2e("op_p99_us", "us", "lower", 0.25),
    e2e("peak_rss_mb", "MiB", "lower", 0.10),
];

/// Measured in the traced run. A workload that does not exercise a layer
/// reports 0 for it: "this layer did nothing here" is the bypass half of
/// each mechanism/bypass pair.
pub const PER_LAYER: [MetricSpec; 70] = [
    // The end-to-end quantities that only some workloads have, taken from
    // the untraced slices of the traced run.
    layer("read_p50_us", "us", "lower"),
    layer("read_p99_us", "us", "lower"),
    layer("write_p50_us", "us", "lower"),
    layer("write_p99_us", "us", "lower"),
    layer("ingest_rows_s", "1/s", "higher"),
    layer("batch_rows_s", "1/s", "higher"),
    layer("checkpoint_s", "s", "lower"),
    layer("recover_s", "s", "lower"),
    layer("recover_lost_writes", "count", "lower"),
    exact("write_amp", "ratio", "lower"),
    exact("space_amp", "ratio", "lower"),
    exact("error_rate", "ratio", "lower"),
    // query
    layer("query.parse_us", "us", "lower"),
    layer("query.prepare_us", "us", "lower"),
    layer("algebra.plan_us", "us", "lower"),
    layer("query.execute_us", "us", "lower"),
    layer("query.run_over_prepared", "ratio", "lower"),
    layer("query.bind_us", "us", "lower"),
    layer("query.drain_us", "us", "lower"),
    layer("query.kind.point_p50_us", "us", "lower"),
    layer("query.kind.join_p50_us", "us", "lower"),
    layer("query.kind.count_p50_us", "us", "lower"),
    layer("query.kind.scan_eq_p50_us", "us", "lower"),
    layer("query.kind.merge_topk_p50_us", "us", "lower"),
    layer("query.kind.heap_topk_p50_us", "us", "lower"),
    layer("query.kind.proj_topk_p50_us", "us", "lower"),
    layer("query.kind.explain_p50_us", "us", "lower"),
    layer("query.kind.insert_p50_us", "us", "lower"),
    layer("query.kind.delete_p50_us", "us", "lower"),
    layer("query.kind.update_p50_us", "us", "lower"),
    exact("query.rows_examined_per_row", "ratio", "lower"),
    // algebra
    exact("algebra.merge_path_ratio", "ratio", "higher"),
    // core
    exact("core.shard.probes_per_point_read", "count", "lower"),
    exact("core.segment.skipped_per_point_read", "count", "higher"),
    exact("core.segment.examined_fraction", "ratio", "lower"),
    exact("core.maintenance.probes_per_write", "count", "lower"),
    exact("core.maintenance.compositions_per_write", "count", "lower"),
    exact(
        "core.maintenance.decompositions_per_write",
        "count",
        "lower",
    ),
    exact("core.maintenance.recons_per_write", "count", "lower"),
    exact("core.mvcc.installs_per_write", "count", "lower"),
    exact("core.mvcc.pins_per_read", "count", "lower"),
    layer("core.kernel.nest_rows_s", "1/s", "higher"),
    layer("core.shard.fanout_speedup", "ratio", "higher"),
    exact("core.bulk.rebuild_ratio", "ratio", "higher"),
    layer("core.bulk.us_per_op.100", "us", "lower"),
    layer("core.bulk.us_per_op.1000", "us", "lower"),
    layer("core.bulk.us_per_op.5000", "us", "lower"),
    exact("core.nest.tuples_per_row", "ratio", "lower"),
    // storage
    layer("storage.table.write_apply_us", "us", "lower"),
    layer("storage.wal.flush_us", "us", "lower"),
    exact("storage.wal.bytes_per_write", "bytes", "lower"),
    exact("storage.wal.syscalls_per_write", "count", "lower"),
    exact("storage.wal.flushes_per_write", "count", "lower"),
    layer("storage.wal.flush_growth", "ratio", "lower"),
    layer("storage.checkpoint.ms", "ms", "lower"),
    layer("storage.checkpoint.bytes", "bytes", "lower"),
    layer("storage.open.ms", "ms", "lower"),
    layer("storage.table.read_fresh_p50_us", "us", "lower"),
    layer("storage.table.read_stale_p50_us", "us", "lower"),
    layer("storage.table.stale_penalty", "ratio", "lower"),
    layer("storage.table.scan_tuples_s", "1/s", "higher"),
    layer("storage.dictionary.intern_ns", "ns", "lower"),
    layer("storage.dictionary.lookup_ns", "ns", "lower"),
    // obs
    layer("obs.metrics_overhead", "ratio", "lower"),
    // across layers
    exact("alloc.count_per_op", "count", "lower"),
    exact("alloc.bytes_per_op", "bytes", "lower"),
    layer("trace.overhead", "ratio", "lower"),
    layer("driver.self_share", "ratio", "lower"),
    layer("clients2.read_speedup", "ratio", "higher"),
    layer("clients2.write_speedup", "ratio", "higher"),
];

pub fn is_valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.as_bytes()[0].is_ascii_alphanumeric()
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
}

pub fn find(name: &str) -> Option<&'static MetricSpec> {
    END_TO_END.iter().chain(&PER_LAYER).find(|m| m.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn declared_names_are_valid_and_unique() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .chain(&PER_LAYER)
            .map(|m| m.name)
            .collect();
        names.extend(WORKLOADS.iter().map(|w| w.0));
        assert!(names.iter().all(|n| is_valid_name(n)), "{names:?}");
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used once");
        assert!(END_TO_END
            .iter()
            .all(|m| m.bound.is_some_and(|b| b > 0.0 && b <= 0.25)));
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == "lower"));
        assert!(WORKLOADS
            .iter()
            .all(|w| w.1.len() <= 200 && !w.1.contains('\n')));
    }
}
