//! Sharded canonical storage: partitioning `ν_P(R*)` on the outermost
//! nest attribute.
//!
//! Run on a whole relation, §4 maintenance hits a scale wall: every
//! `recons` pays a candidate scan (`candt`) over *all* NF² tuples, so
//! its cost grows linearly with the relation. The engine partitions the
//! canonical relation on the values of the **outermost** nest attribute
//! `P(n−1)` — the attribute nested *last* — and runs §4 only on one
//! outer key's slice of one shard ([`crate::bulk`]).
//!
//! Why that attribute, and why the partition is exact: the canonical
//! fold (see [`NestKernel`]) sorts flat rows with `P(n−1)` outermost, so
//! every ν stage before the last groups rows that agree on `P(n−1)` —
//! stages `0…n−2` never combine rows with different `P(n−1)` values.
//! Only the final `ν_{P(n−1)}` merges across values, and that merge is
//! *associative*: it groups tuples by set-equality of the other `n−1`
//! positions and unions the `P(n−1)` sets. Therefore
//!
//! ```text
//! ν_P(R*)  =  merge_{P(n−1)} ( ⋃_s ν_P(R*_s) )
//! ```
//!
//! for **any** value-based partition `R* = ⊎_s R*_s` on `P(n−1)`: each
//! shard maintains the full canonical form of its own rows (all §4
//! invariants hold per shard), and [`merge_shards`] recovers the exact
//! global canonical form with one grouping pass
//! ([`NestKernel::nest_once`] over the concatenated shards). Property
//! tests pin sharded ≡ unsharded across every workload generator, shard
//! count and routing mode.
//!
//! The payoff is twofold:
//!
//! * **routing** — an op touches exactly the one shard its outer value
//!   routes to, so writers on different shards never meet;
//! * **batches** — [`apply_batch`](ShardedCanonical::apply_batch) runs
//!   each shard's sub-batch by the keyed batch procedure
//!   ([`crate::bulk`]) on that shard's own [`NestKernel`] scratch, the
//!   sub-batches side by side under [`std::thread::scope`]. A point
//!   write is a batch of one.

use std::collections::HashSet;
use std::sync::{Arc, Mutex};

use crate::bulk::{BatchSummary, Op};
use crate::error::{NfError, Result};
use crate::kernel::NestKernel;
use crate::maintenance::{CanonicalRelation, CostCounter};
use crate::mvcc::ShardVersion;
use crate::relation::{FlatRelation, NfRelation};
use crate::schema::{AttrId, NestOrder, Schema};
use crate::segment::{Segment, ShardSegments, Tiling, DEFAULT_SEGMENT_ROWS};
use crate::tuple::{FlatTuple, NfTuple};
use crate::value::Atom;

/// How the outermost-attribute value space is split into shards.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShardSpec {
    /// `shards` buckets by a mixed hash of the atom id — the default,
    /// balanced without knowing the value distribution.
    Hash {
        /// Number of shards (≥ 1).
        shards: usize,
    },
    /// Range partitioning: `boundaries` (strictly ascending) split the
    /// atom id space into `boundaries.len() + 1` shards; a value `v`
    /// routes to the number of boundaries `≤ v`. Right for workloads
    /// where the outer attribute has a known, locality-friendly order.
    Range {
        /// Strictly ascending shard boundaries.
        boundaries: Vec<Atom>,
    },
}

impl ShardSpec {
    /// The degenerate single-shard spec (sharding disabled).
    pub fn single() -> Self {
        ShardSpec::Hash { shards: 1 }
    }

    /// Hash partitioning over `shards` buckets.
    pub fn hash(shards: usize) -> Result<Self> {
        if shards == 0 {
            return Err(NfError::InvalidShardSpec(
                "shard count must be at least 1".into(),
            ));
        }
        Ok(ShardSpec::Hash { shards })
    }

    /// Range partitioning with the given strictly ascending boundaries.
    pub fn range(boundaries: Vec<Atom>) -> Result<Self> {
        if boundaries.windows(2).any(|w| w[0] >= w[1]) {
            return Err(NfError::InvalidShardSpec(
                "range boundaries must be strictly ascending".into(),
            ));
        }
        Ok(ShardSpec::Range { boundaries })
    }

    /// Number of shards the spec produces.
    pub fn shard_count(&self) -> usize {
        match self {
            ShardSpec::Hash { shards } => *shards,
            ShardSpec::Range { boundaries } => boundaries.len() + 1,
        }
    }

    /// The shard a single outer-attribute value routes to.
    pub fn route_value(&self, v: Atom) -> usize {
        match self {
            ShardSpec::Hash { shards } => (mix64(u64::from(v.id())) % *shards as u64) as usize,
            ShardSpec::Range { boundaries } => boundaries.partition_point(|b| *b <= v),
        }
    }
}

/// Below this many rows per shard a cold build nests its shards one
/// after the other on the calling thread: a kernel pass over a few
/// hundred rows costs less than spawning its thread, and every thread
/// that ever allocated a shard's tuples leaves an allocator arena
/// behind (measured on a 2 000-row, 4-shard load: 2.4 → 1.3 ms and
/// 0.5 MiB less resident memory inline).
const MIN_ROWS_PER_BUILD_THREAD: usize = 4096;

/// SplitMix64 finalizer: a cheap, well-mixed value → bucket map (atom
/// ids are dense small integers, so modulo without mixing would stripe).
#[inline]
fn mix64(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// A [`ShardSpec`] bound to the routing attribute of one nest order: the
/// outermost (last-nested) attribute `P(n−1)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardRouter {
    spec: ShardSpec,
    /// The routing attribute (`P(n−1)`), or `None` for the degenerate
    /// zero-arity schema (everything routes to shard 0).
    attr: Option<AttrId>,
    /// Arity of the rows this router routes.
    arity: usize,
}

impl ShardRouter {
    /// Binds a spec to a nest order's outermost attribute.
    pub fn new(spec: ShardSpec, order: &NestOrder) -> Self {
        let arity = order.arity();
        let attr = arity.checked_sub(1).map(|last| order.attr_at(last));
        ShardRouter { spec, attr, arity }
    }

    /// The spec being routed on.
    pub fn spec(&self) -> &ShardSpec {
        &self.spec
    }

    /// The routing attribute (`P(n−1)`), if the schema has one.
    pub fn attr(&self) -> Option<AttrId> {
        self.attr
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.spec.shard_count()
    }

    /// The shard a flat row routes to. The routing attribute is indexed
    /// unchecked, so `row` must have the schema's arity — rows from
    /// outside go through [`route_checked`](Self::route_checked).
    pub fn route_row(&self, row: &[Atom]) -> usize {
        match self.attr {
            Some(a) => self.spec.route_value(row[a]),
            None => 0,
        }
    }

    /// [`route_row`](Self::route_row) after checking the row's arity.
    pub fn route_checked(&self, row: &[Atom]) -> Result<usize> {
        if row.len() != self.arity {
            return Err(NfError::ArityMismatch {
                expected: self.arity,
                got: row.len(),
            });
        }
        Ok(self.route_row(row))
    }

    /// Whether the store whose shard `s` is `shard(s)` contains `row` —
    /// `searcht` against exactly the one shard the row routes to. A row
    /// of the wrong arity is contained in nothing.
    pub fn contains<'a>(
        &self,
        row: &[Atom],
        shard: impl FnOnce(usize) -> &'a ShardVersion,
    ) -> bool {
        self.route_checked(row)
            .is_ok_and(|s| shard(s).contains(row))
    }

    /// Splits a batch into per-shard sub-batches of borrowed ops, each
    /// beside its position in `ops` (order preserved within each shard;
    /// ops on different shards touch disjoint row sets, so cross-shard
    /// order is immaterial). Arity is validated for the whole batch up
    /// front, so applying the sub-batches cannot fail halfway through.
    pub fn partition_ops<'a>(&self, ops: &'a [Op]) -> Result<Vec<Vec<(usize, &'a Op)>>> {
        let mut per_shard: Vec<Vec<(usize, &Op)>> = vec![Vec::new(); self.shard_count()];
        for (at, op) in ops.iter().enumerate() {
            per_shard[self.route_checked(op.row())?].push((at, op));
        }
        Ok(per_shard)
    }

    /// The set of shards (sorted, deduplicated) that can hold any row
    /// whose outermost-attribute value lies in `values` — the predicate
    /// side of shard pruning: a selection that fixes `P(n−1)` to this
    /// value set can skip every other shard entirely, because routing is
    /// value-based and every atom in a shard's tuples routes to that
    /// shard. An empty value set prunes everything. Works for hash and
    /// range specs alike (under a range spec a contiguous value interval
    /// maps to a contiguous shard interval).
    pub fn shards_for_values(&self, values: &[Atom]) -> Vec<usize> {
        match self.attr {
            Some(_) => {
                let mut out: Vec<usize> =
                    values.iter().map(|&v| self.spec.route_value(v)).collect();
                out.sort_unstable();
                out.dedup();
                out
            }
            None => vec![0],
        }
    }

    /// The shards that can hold a row satisfying **every** conjunct on
    /// the routing attribute — the intersection of the conjuncts'
    /// [`shards_for_values`](Self::shards_for_values) sets, ascending;
    /// every shard when there is no such conjunct.
    pub fn shards_for_conjuncts<'a>(
        &self,
        conjuncts: impl IntoIterator<Item = &'a [Atom]>,
    ) -> Vec<usize> {
        let mut shards: Vec<usize> = (0..self.shard_count()).collect();
        for values in conjuncts {
            let holding = self.shards_for_values(values);
            shards.retain(|s| holding.contains(s));
        }
        shards
    }
}

/// §4 maintenance cost aggregated across shards, with the per-shard
/// breakdown preserved.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MaintenanceCost {
    /// Sum over all shards.
    pub total: CostCounter,
    /// Per-shard counters, indexed by shard id.
    pub per_shard: Vec<CostCounter>,
}

impl MaintenanceCost {
    /// What the given writer lanes (in shard order) have accumulated.
    pub fn of_lanes<'a>(lanes: impl IntoIterator<Item = &'a ShardWriter>) -> Self {
        let per_shard: Vec<CostCounter> = lanes.into_iter().map(|l| l.cost).collect();
        let mut total = CostCounter::new();
        for cost in &per_shard {
            total.accumulate(cost);
        }
        MaintenanceCost { total, per_shard }
    }
}

/// What a batch did, per shard or summed over the shards it ran on
/// ([`apply_sub_batches`]).
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct BatchReport {
    /// Effective inserts, deletes and no-ops, counted as §4 replay
    /// counts them, and the no-ops' positions in the caller's batch.
    pub summary: BatchSummary,
    /// Distinct outer (`P(n−1)`) keys the ops addressed.
    pub keys: usize,
    /// Stored tuples that left for the regroup: those that lost a key
    /// and those a tuple some key gained merged with.
    pub tuples_regrouped: usize,
    /// Segments rebuilt — each touched segment once, patched from its
    /// predecessor's postings or, where it has none (a first segment, a
    /// split), encoded afresh.
    pub segments_reencoded: usize,
    /// Tuple handles written into the new chunks of those segments: the
    /// kept tuples' handles cloned and the entering tuples moved in.
    /// Untouched segments share their chunks and add nothing.
    pub tuples_copied: usize,
    /// Codes whose row list those segments rebuilt one by one: in a
    /// patched segment, the codes the leaving and entering tuples hold
    /// (a code carried over in an untouched run counts nothing); in one
    /// encoded afresh, every code of every column.
    pub codes_rewritten: usize,
    /// Shards in which every tuple held went through the regroup — the
    /// batch amounted to a re-nest of the shard.
    pub shards_regrouped_whole: usize,
}

impl std::ops::AddAssign for BatchReport {
    fn add_assign(&mut self, other: Self) {
        self.summary += other.summary;
        self.keys += other.keys;
        self.tuples_regrouped += other.tuples_regrouped;
        self.segments_reencoded += other.segments_reencoded;
        self.tuples_copied += other.tuples_copied;
        self.codes_rewritten += other.codes_rewritten;
        self.shards_regrouped_whole += other.shards_regrouped_whole;
    }
}

/// One shard's **writer-side** state: the shard's current
/// [`ShardVersion`], its private [`NestKernel`] scratch, and its
/// accumulated §4 maintenance cost. Every mutation of a shard goes
/// through its writer.
///
/// Every write is one [`apply_batch`](Self::apply_batch) — the keyed
/// batch of the write's ops on this shard — which builds the replacement version
/// beside the current one, so pinned readers keep streaming the old
/// state. The new version shares every segment the write does not
/// touch, chunk and all (segments are `Arc`-held), and leaves the
/// shard's chunks back to back in the kernel's order (see
/// [`crate::bulk`] and [`crate::segment`]). Re-tiles edit the version
/// copy-on-write ([`Arc::make_mut`]); a cold build replaces it.
///
/// A [`ShardedCanonical`] owns one writer per shard; a table that wants
/// per-shard write concurrency takes them over with
/// [`ShardedCanonical::into_writers`] and wraps each in a mutex (a
/// *lane*): a write then locks exactly the writers its ops route to,
/// builds their replacement `Arc<ShardVersion>`s in parallel with
/// writers on other shards, and publishes through
/// [`crate::mvcc::VersionCell::submit`]. The
/// writer itself is lock-free — acquisition ordering across writers is
/// the caller's contract (the storage write module locks ascending shard
/// index).
#[derive(Debug)]
pub struct ShardWriter {
    version: Arc<ShardVersion>,
    /// Cold builds and batch regroups re-use the shard's sort/intern
    /// buffers (and threads never share one).
    kernel: NestKernel,
    cost: CostCounter,
    /// The routing attribute and tuples-per-segment target every
    /// mutation re-encodes touched segments with.
    tiling: Tiling,
}

impl ShardWriter {
    fn over(version: Arc<ShardVersion>, tiling: Tiling) -> Self {
        ShardWriter {
            version,
            kernel: NestKernel::new(),
            cost: CostCounter::new(),
            tiling,
        }
    }

    /// The shard's current version — what gets published after a
    /// mutation (cheap `Arc` clone).
    pub fn version(&self) -> &Arc<ShardVersion> {
        &self.version
    }

    /// The target tuples-per-segment currently in effect.
    pub fn segment_rows(&self) -> usize {
        self.tiling.target_rows
    }

    /// Changes the tuples-per-segment target and re-tiles the shard.
    pub fn set_segment_rows(&mut self, rows: usize) {
        self.tiling.target_rows = rows.max(1);
        Arc::make_mut(&mut self.version).retile(self.tiling);
    }

    /// Replaces the shard's contents with a freshly nested canonical
    /// form, its tuples moved into uniformly tiled chunks (the
    /// cold-build path).
    fn install(&mut self, canon: CanonicalRelation) {
        self.version = Arc::new(ShardVersion::new(canon, self.tiling));
    }

    fn check_arity(&self, got: usize) -> Result<()> {
        let expected = self.version.schema.arity();
        if got != expected {
            return Err(NfError::ArityMismatch { expected, got });
        }
        Ok(())
    }

    /// Applies this shard's sub-batch by the keyed batch procedure
    /// ([`crate::bulk`]): each outer key's ops replayed on that key's
    /// slice, one regroup on `P(n−1)`, one ordered merge into the
    /// chunks it touches — leaving the chunks back to back in kernel
    /// order. Each op comes beside its position in the caller's batch,
    /// the position the report names it by if it was a no-op. The
    /// replacement version is built beside the current one and swapped
    /// in; a batch that changes nothing keeps the current `Arc`,
    /// untouched and uncloned.
    pub fn apply_batch(&mut self, batch: &[(usize, &Op)]) -> Result<BatchReport> {
        for (_, op) in batch {
            self.check_arity(op.row().len())?;
        }
        let (report, next) =
            self.version
                .apply_batch(&mut self.kernel, batch, &mut self.cost, self.tiling)?;
        if let Some(next) = next {
            self.version = Arc::new(next);
        }
        Ok(report)
    }
}

/// How many threads a batch's sub-batches are dealt out to at most: the
/// cores this process may run on, asked once (the answer reads cgroup
/// files). A thread beyond that cannot run beside the others, and
/// spawning it costs about what a 25-op sub-batch does.
fn batch_workers() -> usize {
    static CORES: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// Applies per-shard sub-batches through their writers
/// ([`ShardWriter::apply_batch`]), side by side under
/// [`std::thread::scope`]: the sub-batches queue up, and the calling
/// thread drains the queue beside as many spawned helpers as there are
/// further cores and further sub-batches — one shard's worth of work,
/// or one core, spawns nothing. Empty sub-batches leave their shard
/// untouched. Returns the reports summed, the no-op positions (the
/// ones the ops came beside) ascending.
pub fn apply_sub_batches<'a>(
    work: impl IntoIterator<Item = (&'a mut ShardWriter, &'a [(usize, &'a Op)])>,
) -> Result<BatchReport> {
    let work: Vec<(&mut ShardWriter, &[(usize, &Op)])> = work
        .into_iter()
        .filter(|(_, batch)| !batch.is_empty())
        .collect();
    let helpers = match work.len() {
        0 | 1 => 0,
        jobs => jobs.min(batch_workers()) - 1,
    };
    let mut outcomes: Vec<Option<Result<BatchReport>>> = work.iter().map(|_| None).collect();
    let queue = Mutex::new(work.into_iter().zip(outcomes.iter_mut()));
    let drain = || loop {
        let next = queue
            .lock()
            .expect("the queue is only ever advanced under the lock")
            .next();
        let Some(((lane, batch), slot)) = next else {
            break;
        };
        *slot = Some(lane.apply_batch(batch));
    };
    std::thread::scope(|scope| {
        for _ in 0..helpers {
            scope.spawn(drain);
        }
        drain();
    });
    drop(queue);
    let mut total = BatchReport::default();
    for outcome in outcomes {
        total += outcome.expect("the queue was drained: one slot filled per sub-batch")?;
    }
    total.summary.noop_positions.sort_unstable();
    Ok(total)
}

/// The exact global canonical form `ν_P(R*)` of a sharded store:
/// concatenates the per-shard tuples (disjoint by routing), walking each
/// shard's chunks in order, and runs the final `ν_{P(n−1)}` grouping
/// once, merging tuples whose `P(n−1)` sets were split across shards.
/// One shard needs no merge at all. A store has at least one shard.
pub fn merge_shards<'a>(
    router: &ShardRouter,
    shards: impl IntoIterator<Item = &'a ShardVersion>,
) -> NfRelation {
    let shards: Vec<&ShardVersion> = shards.into_iter().collect();
    let schema = &shards[0].schema;
    let mut tuples = Vec::with_capacity(shards.iter().map(|s| s.tuple_count()).sum());
    for seg in shards.iter().flat_map(|s| s.segments().segments()) {
        tuples.extend_from_slice(seg.tuples());
    }
    if shards.len() == 1 || tuples.is_empty() {
        // One shard's chunks back to back are its canonical vector.
        return NfRelation::from_valid_tuples(schema.clone(), tuples);
    }
    // Zero-arity schemas route everything to shard 0 above.
    let attr = router
        .attr()
        .expect("multi-shard relations have a routing attribute");
    // Shards partition the P(n−1) value space, so cross-shard
    // expansions are disjoint and the concatenation is a valid NFR.
    let concat = NfRelation::from_disjoint_tuples(schema.clone(), tuples)
        .expect("per-shard tuples carry the shared schema arity");
    NestKernel::new().nest_once(&concat, attr)
}

/// How many tuples [`merge_shards`] builds, without building them. The
/// final `ν_{P(n−1)}` merges tuples that agree on every component but
/// `P(n−1)`'s, and no two tuples of one shard do (a shard is already
/// nested on `P(n−1)`), so the count is the number of distinct such
/// rests across the shards.
pub fn merged_tuple_count<'a>(
    router: &ShardRouter,
    shards: impl IntoIterator<Item = &'a ShardVersion>,
) -> usize {
    let shards: Vec<&ShardVersion> = shards.into_iter().collect();
    let Some(attr) = router.attr().filter(|_| shards.len() > 1) else {
        return shards.iter().map(|s| s.tuple_count()).sum();
    };
    let rest = |tuple: &'a NfTuple| {
        let (before, from) = tuple.components().split_at(attr);
        (before, &from[1..])
    };
    let rests: HashSet<_> = shards.iter().flat_map(|s| s.tuples()).map(rest).collect();
    rests.len()
}

/// A canonical NFR partitioned on the outermost nest attribute: one
/// [`ShardWriter`] per shard, with every §4 operation routed to exactly
/// one shard and batches fanned out across shards on scoped threads.
///
/// Invariant: shard `s` holds `ν_P(R*_s)` where `R*_s` is exactly the
/// set of flat rows whose `P(n−1)` value routes to `s` — checked
/// exhaustively by [`verify`](Self::verify) and the property suite.
#[derive(Debug)]
pub struct ShardedCanonical {
    schema: Arc<Schema>,
    order: NestOrder,
    router: ShardRouter,
    lanes: Vec<ShardWriter>,
}

impl ShardedCanonical {
    /// An empty sharded canonical relation.
    pub fn new(schema: Arc<Schema>, order: NestOrder, spec: ShardSpec) -> Result<Self> {
        if order.arity() != schema.arity() {
            return Err(NfError::InvalidNestOrder(format!(
                "order covers {} attributes, schema has {}",
                order.arity(),
                schema.arity()
            )));
        }
        let tiling = Tiling {
            outer_attr: ShardRouter::new(spec.clone(), &order).attr(),
            target_rows: DEFAULT_SEGMENT_ROWS,
        };
        let versions = (0..spec.shard_count())
            .map(|_| {
                let canon = CanonicalRelation::new(schema.clone(), order.clone())?;
                Ok(Arc::new(ShardVersion::new(canon, tiling)))
            })
            .collect::<Result<Vec<_>>>()?;
        Self::from_versions(schema, order, spec, versions, DEFAULT_SEGMENT_ROWS)
    }

    /// Assembles a store over existing shard versions — how a table
    /// whose writers live in per-shard lanes hands out an inspection
    /// copy. The versions must come from a store built with the same
    /// schema, order, and spec (shard count must match).
    pub fn from_versions(
        schema: Arc<Schema>,
        order: NestOrder,
        spec: ShardSpec,
        versions: Vec<Arc<ShardVersion>>,
        segment_rows: usize,
    ) -> Result<Self> {
        let router = ShardRouter::new(spec, &order);
        if versions.len() != router.shard_count() {
            return Err(NfError::InvalidShardSpec(format!(
                "{} versions supplied for a {}-shard spec",
                versions.len(),
                router.shard_count()
            )));
        }
        let tiling = Tiling {
            outer_attr: router.attr(),
            target_rows: segment_rows.max(1),
        };
        let lanes = versions
            .into_iter()
            .map(|v| ShardWriter::over(v, tiling))
            .collect();
        Ok(ShardedCanonical {
            schema,
            order,
            router,
            lanes,
        })
    }

    /// Builds the sharded form of an existing 1NF relation: rows are
    /// routed first, then every shard nests its own rows — in parallel
    /// on scoped threads when there is more than one shard and each has
    /// at least `MIN_ROWS_PER_BUILD_THREAD` rows on average.
    pub fn from_flat(flat: &FlatRelation, order: NestOrder, spec: ShardSpec) -> Result<Self> {
        let mut sharded = Self::new(flat.schema().clone(), order, spec)?;
        let n = sharded.shard_count();
        let mut per_shard: Vec<Vec<FlatTuple>> = vec![Vec::new(); n];
        for row in flat.rows() {
            per_shard[sharded.router.route_row(row)].push(row.clone());
        }
        let order = &sharded.order;
        let schema = &sharded.schema;
        let mut built: Vec<Result<Option<CanonicalRelation>>> = (0..n).map(|_| Ok(None)).collect();
        std::thread::scope(|scope| {
            for ((slot, lane), rows) in built
                .iter_mut()
                .zip(sharded.lanes.iter_mut())
                .zip(per_shard)
            {
                if rows.is_empty() {
                    continue; // keep the empty shard created by new()
                }
                let kernel = &mut lane.kernel;
                let task = move || -> Result<Option<CanonicalRelation>> {
                    let flat = FlatRelation::from_rows(schema.clone(), rows)?;
                    CanonicalRelation::from_flat_with(kernel, &flat, order.clone()).map(Some)
                };
                if n == 1 || flat.len() < n * MIN_ROWS_PER_BUILD_THREAD {
                    *slot = task();
                } else {
                    scope.spawn(move || *slot = task());
                }
            }
        });
        for (lane, result) in sharded.lanes.iter_mut().zip(built) {
            if let Some(canon) = result? {
                lane.install(canon);
            }
        }
        Ok(sharded)
    }

    /// Replaces shard `idx` with the kernel's nest of its own `rows`,
    /// tiled at the current target: how a reopen rebuilds each
    /// checkpointed shard, one at a time.
    pub fn nest_shard(&mut self, idx: usize, rows: &FlatRelation) -> Result<&ShardVersion> {
        let lane = &mut self.lanes[idx];
        let canon = CanonicalRelation::from_flat_with(&mut lane.kernel, rows, self.order.clone())?;
        lane.install(canon);
        Ok(&lane.version)
    }

    /// The schema.
    pub fn schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    /// The nest order every shard is canonical for.
    pub fn order(&self) -> &NestOrder {
        &self.order
    }

    /// The value router.
    pub fn router(&self) -> &ShardRouter {
        &self.router
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.lanes.len()
    }

    /// One shard's canonical relation, materialised from its chunks — an
    /// owned copy for tests and the paper experiments; the store itself
    /// is the shard's segments ([`version`](Self::version)).
    pub fn shard(&self, idx: usize) -> CanonicalRelation {
        self.lanes[idx].version.canonical()
    }

    /// One shard's current version (its segments, chunks included).
    pub fn version(&self, idx: usize) -> &Arc<ShardVersion> {
        &self.lanes[idx].version
    }

    /// Cheap `Arc` clones of every shard's current version, in shard
    /// order — what a table publishes into its MVCC
    /// [`crate::mvcc::VersionCell`].
    pub fn versions(&self) -> Vec<Arc<ShardVersion>> {
        self.lanes.iter().map(|l| Arc::clone(&l.version)).collect()
    }

    /// One shard's segments.
    pub fn shard_segments(&self, idx: usize) -> &ShardSegments {
        self.lanes[idx].version.segments()
    }

    /// Changes the target tuples-per-segment and re-tiles every shard.
    /// Test and experiment knob.
    pub fn set_segment_rows(&mut self, rows: usize) {
        for lane in &mut self.lanes {
            lane.set_segment_rows(rows);
        }
    }

    /// Total NF² tuples across shards. For more than one shard this can
    /// exceed the unsharded canonical count: a global tuple whose
    /// `P(n−1)` set spans shards is held split (see
    /// [`to_relation`](Self::to_relation)).
    pub fn tuple_count(&self) -> usize {
        self.lanes.iter().map(|l| l.version.tuple_count()).sum()
    }

    /// Total flat rows (`|R*|`) across shards.
    pub fn flat_count(&self) -> u128 {
        self.lanes.iter().map(|l| l.version.flat_count()).sum()
    }

    /// Whether no shard holds any row.
    pub fn is_empty(&self) -> bool {
        self.lanes.iter().all(|l| l.version.tuple_count() == 0)
    }

    /// Whether `R*` contains `row` ([`ShardRouter::contains`]).
    pub fn contains(&self, row: &[Atom]) -> bool {
        self.router.contains(row, |s| &self.lanes[s].version)
    }

    /// §4.2 insertion, routed to one shard. Returns `true` if new.
    pub fn insert(&mut self, row: FlatTuple) -> Result<bool> {
        self.apply_one(Op::Insert(row))
    }

    /// §4.3 deletion, routed to one shard. Returns `true` if present.
    pub fn delete(&mut self, row: &[Atom]) -> Result<bool> {
        self.apply_one(Op::Delete(row.to_vec()))
    }

    /// `op` as a keyed batch of one on the shard it routes to; `true`
    /// if it changed the shard.
    fn apply_one(&mut self, op: Op) -> Result<bool> {
        let shard = self.router.route_checked(op.row())?;
        Ok(self.lanes[shard].apply_batch(&[(0, &op)])?.summary.noops == 0)
    }

    /// Applies a batch, each shard's share by the keyed batch procedure
    /// ([`apply_sub_batches`]). Returns the shards' reports summed.
    pub fn apply_batch(&mut self, ops: &[Op]) -> Result<BatchReport> {
        let per_shard = self.router.partition_ops(ops)?;
        apply_sub_batches(
            self.lanes
                .iter_mut()
                .zip(per_shard.iter().map(Vec::as_slice)),
        )
    }

    /// §4 maintenance cost accumulated by every operation since
    /// construction (or the last
    /// [`reset_maintenance_cost`](Self::reset_maintenance_cost)), per
    /// shard and in total.
    pub fn maintenance_cost(&self) -> MaintenanceCost {
        MaintenanceCost::of_lanes(&self.lanes)
    }

    /// Zeroes every shard's maintenance counters — the line between
    /// building a store (WAL replay, a benchmark's ingest phase) and
    /// what is measured on it afterwards.
    pub fn reset_maintenance_cost(&mut self) {
        for lane in &mut self.lanes {
            lane.cost = CostCounter::new();
        }
    }

    /// The exact global canonical form `ν_P(R*)` ([`merge_shards`]).
    pub fn to_relation(&self) -> NfRelation {
        merge_shards(&self.router, self.lanes.iter().map(|l| &*l.version))
    }

    /// Re-derives every invariant from scratch: each shard's chunks back
    /// to back are the canonical vector of its own rows, every row lives
    /// in the shard it routes to, each segment's columns and counts are
    /// an exact encoding of its chunk, and the merged relation equals the
    /// unsharded canonical form. Test/diagnostic helper.
    pub fn verify(&self) -> Result<()> {
        let mut all_rows = FlatRelation::new(self.schema.clone());
        for idx in 0..self.shard_count() {
            let shard = self.shard(idx);
            shard.verify()?;
            self.verify_segments(idx)?;
            for row in shard.relation().expand().rows() {
                if self.router.route_row(row) != idx {
                    return Err(NfError::InvalidShardSpec(format!(
                        "row routed to shard {} but stored in shard {idx}",
                        self.router.route_row(row)
                    )));
                }
                all_rows.insert(row.clone())?;
            }
        }
        let unsharded = crate::nest::canonical_of_flat(&all_rows, &self.order);
        if self.to_relation() == unsharded {
            Ok(())
        } else {
            Err(NfError::InvalidShardSpec(
                "merged sharded relation differs from the unsharded canonical form".into(),
            ))
        }
    }

    /// Checks one shard's segment invariants: none is empty, the
    /// cumulative row counts add up, and each is exactly the encoding of
    /// its own chunk — columns, zone bounds and flat count alike.
    fn verify_segments(&self, idx: usize) -> Result<()> {
        let ss = self.lanes[idx].version.segments();
        let seg_err = |msg: String| NfError::InvalidShardSpec(format!("shard {idx}: {msg}"));
        let held: usize = ss.segments().iter().map(|seg| seg.rows()).sum();
        if ss.covered_rows() != held {
            return Err(seg_err(format!(
                "row counts add up to {} of {held} tuples",
                ss.covered_rows()
            )));
        }
        for (range, seg) in ss.ranges() {
            let start = range.start;
            if range.is_empty() {
                return Err(seg_err(format!("empty segment at {start}")));
            }
            if *seg != Segment::encode(seg.tuples().into()) {
                return Err(seg_err(format!(
                    "segment at {start} is not the encoding of its chunk"
                )));
            }
        }
        Ok(())
    }

    /// Hands the per-shard writers over — the constructor for a table's
    /// per-shard commit pipeline; the shared routing/schema context
    /// stays with the caller.
    pub fn into_writers(self) -> Vec<ShardWriter> {
        self.lanes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schema(attrs: &[&str]) -> Arc<Schema> {
        Schema::new("R", attrs).unwrap()
    }

    fn row(vals: &[u32]) -> FlatTuple {
        vals.iter().map(|&v| Atom(v)).collect()
    }

    /// A deterministic pseudo-random flat relation.
    fn random_flat(arity: usize, rows: usize, domain: u32, seed: u64) -> FlatRelation {
        let names: Vec<String> = (0..arity).map(|i| format!("E{i}")).collect();
        let refs: Vec<&str> = names.iter().map(String::as_str).collect();
        let s = Schema::new("RND", &refs).unwrap();
        let mut state = seed | 1;
        let mut out = Vec::new();
        for _ in 0..rows {
            let row: Vec<Atom> = (0..arity)
                .map(|a| {
                    state = state
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    Atom(100 * a as u32 + (state >> 33) as u32 % domain)
                })
                .collect();
            out.push(row);
        }
        FlatRelation::from_rows(s, out).unwrap()
    }

    fn specs(domain_hint: u32) -> Vec<ShardSpec> {
        vec![
            ShardSpec::single(),
            ShardSpec::hash(2).unwrap(),
            ShardSpec::hash(7).unwrap(),
            ShardSpec::range(vec![Atom(domain_hint / 3), Atom(2 * domain_hint / 3)]).unwrap(),
        ]
    }

    #[test]
    fn spec_validation_and_counts() {
        assert!(ShardSpec::hash(0).is_err());
        assert_eq!(ShardSpec::hash(4).unwrap().shard_count(), 4);
        assert!(ShardSpec::range(vec![Atom(5), Atom(5)]).is_err());
        assert!(ShardSpec::range(vec![Atom(9), Atom(2)]).is_err());
        let r = ShardSpec::range(vec![Atom(10), Atom(20)]).unwrap();
        assert_eq!(r.shard_count(), 3);
        assert_eq!(r.route_value(Atom(3)), 0);
        assert_eq!(r.route_value(Atom(10)), 1);
        assert_eq!(r.route_value(Atom(19)), 1);
        assert_eq!(r.route_value(Atom(20)), 2);
        assert_eq!(ShardSpec::single().shard_count(), 1);
    }

    #[test]
    fn hash_routing_is_deterministic_and_in_bounds() {
        let spec = ShardSpec::hash(5).unwrap();
        for v in 0..1000u32 {
            let s = spec.route_value(Atom(v));
            assert!(s < 5);
            assert_eq!(s, spec.route_value(Atom(v)));
        }
        // The mixer spreads dense ids: no shard hogs everything.
        let mut counts = [0usize; 5];
        for v in 0..1000u32 {
            counts[spec.route_value(Atom(v))] += 1;
        }
        assert!(counts.iter().all(|&c| c > 100), "balanced-ish: {counts:?}");
    }

    #[test]
    fn router_targets_the_outermost_attribute() {
        let order = NestOrder::new(vec![2, 0, 1], 3).unwrap();
        let router = ShardRouter::new(ShardSpec::hash(4).unwrap(), &order);
        assert_eq!(router.attr(), Some(1), "P(n-1) is the last-applied attr");
        let r = row(&[7, 9, 11]);
        assert_eq!(
            router.route_row(&r),
            router.spec().route_value(Atom(9)),
            "rows route on the outermost attribute's value"
        );
    }

    #[test]
    fn sharded_from_flat_merges_back_to_unsharded() {
        for arity in 1..=3usize {
            for seed in 0..4u64 {
                let flat = random_flat(arity, 60, 5, 0xC0FFEE ^ seed);
                for order in NestOrder::all(arity) {
                    let unsharded = crate::nest::canonical_of_flat(&flat, &order);
                    for spec in specs(100 * (arity as u32 - 1) + 3) {
                        let sharded =
                            ShardedCanonical::from_flat(&flat, order.clone(), spec.clone())
                                .unwrap();
                        assert_eq!(
                            sharded.to_relation(),
                            unsharded,
                            "arity {arity} seed {seed} order {order} spec {spec:?}"
                        );
                        assert_eq!(sharded.flat_count(), flat.len() as u128);
                    }
                }
            }
        }
    }

    #[test]
    fn routed_point_maintenance_matches_unsharded() {
        let flat = random_flat(3, 50, 4, 0xFEED);
        let order = NestOrder::identity(3);
        let mut unsharded = CanonicalRelation::from_flat(&flat, order.clone()).unwrap();
        let mut sharded =
            ShardedCanonical::from_flat(&flat, order.clone(), ShardSpec::hash(4).unwrap()).unwrap();
        let mut state = 0x5EEDu64;
        for _ in 0..120 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let r = row(&[
                (state >> 13) as u32 % 5,
                100 + (state >> 29) as u32 % 5,
                200 + (state >> 47) as u32 % 4,
            ]);
            if state.is_multiple_of(3) {
                assert_eq!(sharded.delete(&r).unwrap(), unsharded.delete(&r).unwrap());
            } else {
                assert_eq!(
                    sharded.insert(r.clone()).unwrap(),
                    unsharded.insert(r).unwrap()
                );
            }
        }
        assert_eq!(sharded.to_relation(), *unsharded.relation());
        sharded.verify().unwrap();
    }

    #[test]
    fn contains_routes_to_one_shard() {
        let flat = random_flat(2, 40, 6, 1);
        let sharded =
            ShardedCanonical::from_flat(&flat, NestOrder::identity(2), ShardSpec::hash(3).unwrap())
                .unwrap();
        for r in flat.rows() {
            assert!(sharded.contains(r));
        }
        assert!(!sharded.contains(&row(&[999, 999])));
        // A row of the wrong arity is contained in nothing.
        let stored = flat.rows().next().unwrap();
        assert!(!sharded.contains(&stored[..1]));
        assert!(!sharded.contains(&[stored.as_slice(), &[Atom(0)]].concat()));
        assert!(!sharded.contains(&[]));
    }

    #[test]
    fn batches_agree_with_unsharded_bulk() {
        use crate::bulk::apply_batch;
        let flat = random_flat(3, 40, 4, 7);
        let order = NestOrder::identity(3);
        let mut ops = Vec::new();
        let mut state = 0xABCDu64;
        for _ in 0..80 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let r = row(&[
                (state >> 11) as u32 % 6,
                100 + (state >> 31) as u32 % 5,
                200 + (state >> 49) as u32 % 4,
            ]);
            if state.is_multiple_of(4) {
                ops.push(Op::Delete(r));
            } else {
                ops.push(Op::Insert(r));
            }
        }
        let mut oracle = CanonicalRelation::from_flat(&flat, order.clone()).unwrap();
        let mut oracle_cost = CostCounter::new();
        let oracle_summary = apply_batch(&mut oracle, &ops, &mut oracle_cost).unwrap();
        for spec in specs(5) {
            let mut auto = ShardedCanonical::from_flat(&flat, order.clone(), spec.clone()).unwrap();
            let report = auto.apply_batch(&ops).unwrap();
            assert_eq!(report.summary, oracle_summary, "{spec:?}");
            assert_eq!(auto.to_relation(), *oracle.relation(), "{spec:?}");
            let versions = auto.versions();
            let counted = merged_tuple_count(auto.router(), versions.iter().map(|v| &**v));
            assert_eq!(counted, oracle.tuple_count(), "{spec:?}");
            auto.verify().unwrap();
        }
    }

    /// One tuple per row — (a, b) pairs are unique, c is the outer key —
    /// in a single shard.
    fn one_tuple_per_row(tuples: u32) -> ShardedCanonical {
        let s = schema(&["A", "B", "C"]);
        let rows = (0..tuples).map(|i| row(&[i % 97, 1_000 + i / 97, 100_000 + i]));
        let flat = FlatRelation::from_rows(s, rows).unwrap();
        let c = ShardedCanonical::from_flat(&flat, NestOrder::identity(3), ShardSpec::single())
            .unwrap();
        assert_eq!(c.tuple_count(), tuples as usize);
        c
    }

    #[test]
    fn point_write_probes_do_not_grow_with_the_shard() {
        // One tuple per row — (a, b) pairs are unique, c is the outer
        // key — in a single shard. Each insert brings a new outer value
        // under an (a, b) pair some tuple already has: the key's slice
        // is empty, so §4 probes nothing; the pull finds the one stored
        // tuple with that rest by its postings, and the regroup composes
        // the two. None of that depends on how many tuples the shard
        // holds.
        let writes = 4u32;
        let cost_of = |tuples: u32| -> CostCounter {
            let mut c = one_tuple_per_row(tuples);
            for w in 0..writes {
                let at = w * (tuples / writes) + 3;
                let fresh = row(&[at % 97, 1_000 + at / 97, 900_000 + w]);
                assert!(c.insert(fresh).unwrap());
            }
            c.maintenance_cost().total
        };
        let at_small = cost_of(5_000);
        assert_eq!(at_small, cost_of(20_000), "a write costs what it touches");
        assert_eq!(at_small.compositions, u64::from(writes));
        assert_eq!(
            at_small.candidate_probes,
            u64::from(writes),
            "one pull each"
        );
    }

    #[test]
    fn maintenance_cost_breaks_down_per_shard() {
        let flat = random_flat(2, 60, 8, 77);
        let mut sharded =
            ShardedCanonical::from_flat(&flat, NestOrder::identity(2), ShardSpec::hash(3).unwrap())
                .unwrap();
        assert_eq!(
            sharded.maintenance_cost().total,
            CostCounter::new(),
            "a cold build costs no §4 maintenance"
        );
        for i in 0..20u32 {
            sharded.insert(row(&[500 + i, 600 + i])).unwrap();
        }
        sharded.reset_maintenance_cost();
        assert_eq!(sharded.maintenance_cost().total, CostCounter::new());
        let mut state = 9u64;
        for _ in 0..20 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let r = row(&[(state >> 13) as u32 % 8, 100 + (state >> 33) as u32 % 8]);
            let _ = sharded.insert(r).unwrap();
        }
        let cost = sharded.maintenance_cost();
        let sum: u64 = cost.per_shard.iter().map(|c| c.candidate_probes).sum();
        assert_eq!(sum, cost.total.candidate_probes, "breakdown sums to total");
        assert!(cost.per_shard.iter().filter(|c| c.recons_calls > 0).count() >= 2);
    }

    #[test]
    fn arity_and_order_mismatches_are_rejected() {
        let s = schema(&["A", "B"]);
        assert!(
            ShardedCanonical::new(s.clone(), NestOrder::identity(3), ShardSpec::single()).is_err()
        );
        let mut c =
            ShardedCanonical::new(s, NestOrder::identity(2), ShardSpec::hash(2).unwrap()).unwrap();
        assert!(c.insert(row(&[1])).is_err());
        assert!(c.delete(&row(&[1, 2, 3])).is_err());
        assert!(c.apply_batch(&[Op::Insert(row(&[1]))]).is_err());
    }

    /// Every shard's chunks back to back are the kernel's vector for its
    /// rows, each chunk what its columns decode to.
    fn assert_sorted_and_tiled(sharded: &ShardedCanonical) {
        for s in 0..sharded.shard_count() {
            let shard = sharded.shard(s);
            let rebuilt =
                crate::nest::canonical_of_flat(&shard.relation().expand(), sharded.order());
            assert_eq!(shard.relation().tuples(), rebuilt.tuples(), "shard {s}");
            for seg in sharded.shard_segments(s).segments() {
                assert_eq!(seg.decode(), seg.tuples(), "shard {s}");
            }
        }
        sharded.verify().unwrap();
    }

    #[test]
    fn segments_follow_the_rebuild_and_delta_lifecycle() {
        let flat = random_flat(3, 200, 9, 0xBEEF);
        let order = NestOrder::identity(3);
        let mut sharded =
            ShardedCanonical::from_flat(&flat, order.clone(), ShardSpec::hash(4).unwrap()).unwrap();
        sharded.set_segment_rows(8);
        assert_sorted_and_tiled(&sharded);

        // A point op repairs the routed shard's segments in place: the
        // new version shares every untouched segment (and every other
        // shard) with its predecessor.
        let before = sharded.versions();
        // A and B outside random_flat's value ranges (nothing composes
        // with it), C inside (its shard is populated).
        let r = row(&[50, 150, 204]);
        let shard = sharded.router().route_row(&r);
        assert!(sharded.insert(r.clone()).unwrap());
        assert_sorted_and_tiled(&sharded);
        for (s, old) in before.iter().enumerate() {
            assert_eq!(
                Arc::ptr_eq(old, sharded.version(s)),
                s != shard,
                "only the routed shard is re-versioned"
            );
        }
        let old = before[shard].segments().segments();
        let new = sharded.shard_segments(shard).segments();
        assert_eq!(
            old.len(),
            new.len(),
            "one more tuple fits an existing segment"
        );
        let reencoded = old
            .iter()
            .zip(new)
            .filter(|(a, b)| !Arc::ptr_eq(a, b))
            .count();
        assert_eq!(reencoded, 1, "one new tuple touches one segment");
        let shared_tuples = before[shard]
            .tuples()
            .filter(|o| {
                let mut new = sharded.version(shard).tuples();
                new.any(|n| n.shares_storage_with(o))
            })
            .count();
        assert_eq!(
            shared_tuples,
            before[shard].tuple_count(),
            "an insert that composes with nothing re-allocates no stored tuple"
        );

        // A no-op (duplicate insert / absent delete) changes nothing.
        let after = Arc::clone(sharded.version(shard));
        assert!(!sharded.insert(r.clone()).unwrap());
        assert_eq!(**sharded.version(shard), *after);

        // Deleting it again restores the original vector and tiling.
        assert!(sharded.delete(&r).unwrap());
        assert!(sharded.version(shard).tuples().eq(before[shard].tuples()));
        assert_sorted_and_tiled(&sharded);

        // A batch of no-ops, however long, leaves the version where it is.
        let after = Arc::clone(sharded.version(shard));
        let big = vec![Op::Delete(r); 500];
        assert_eq!(sharded.apply_batch(&big).unwrap().summary.noops, 500);
        assert!(Arc::ptr_eq(&after, sharded.version(shard)));
        assert_sorted_and_tiled(&sharded);
    }

    #[test]
    fn batches_keep_segments_exact_whatever_their_size() {
        let flat = random_flat(2, 30, 5, 3);
        let order = NestOrder::identity(2);
        let mut sharded =
            ShardedCanonical::from_flat(&flat, order, ShardSpec::hash(2).unwrap()).unwrap();
        sharded.set_segment_rows(4);
        // A batch several times the relation's size: new keys by the
        // hundred, segments outgrown and split on the way.
        let big: Vec<Op> = (0..200u32)
            .map(|i| Op::Insert(row(&[1000 + i, 2000 + i % 7])))
            .collect();
        let report = sharded.apply_batch(&big).unwrap();
        assert_eq!(report.summary.inserted, 200);
        assert_eq!(report.keys, 7);
        assert_sorted_and_tiled(&sharded);
        // A small one patches the segments its keys touch; the result is
        // the same vector a rebuild would produce.
        let small: Vec<Op> = (0..9u32)
            .map(|i| match i % 3 {
                0 => Op::Delete(row(&[1000 + i, 2000 + i % 7])),
                _ => Op::Insert(row(&[5000 + i, 6000 + i % 2])),
            })
            .collect();
        let report = sharded.apply_batch(&small).unwrap();
        assert_eq!(
            report.shards_regrouped_whole, 0,
            "nine ops against a large shard leave most of it alone"
        );
        assert_eq!(report.summary.inserted + report.summary.deleted, 9);
        assert_sorted_and_tiled(&sharded);
    }

    #[test]
    fn batch_probes_do_not_grow_with_the_shard() {
        // 200 ops, none a no-op: 100 rows under new outer keys whose
        // (a, b) rest a stored tuple already has (nothing holds the key,
        // one tuple is pulled), 50 deletes of other stored rows (one
        // holder, dropped), 50 rows that share nothing (no holder, no
        // pull). Every search is a posting lookup, so what a batch
        // probes is what it touches — the same in a shard four times
        // the size.
        let batch: Vec<Op> = (0..200u32)
            .map(|i| match i % 4 {
                0 | 1 => Op::Insert(row(&[(41 * i) % 97, 1_000 + i % 25, 900_000 + i])),
                2 => {
                    let at = 2_500 + 23 * (i / 4);
                    Op::Delete(row(&[at % 97, 1_000 + at / 97, 100_000 + at]))
                }
                _ => Op::Insert(row(&[500 + i, 700_000 + i, 800_000 + i])),
            })
            .collect();
        let cost_of = |tuples: u32| -> CostCounter {
            let mut c = one_tuple_per_row(tuples);
            let report = c.apply_batch(&batch).unwrap();
            assert_eq!(report.summary.noops, 0);
            assert_eq!(report.keys, 200);
            assert_eq!(report.tuples_regrouped, 150);
            c.maintenance_cost().total
        };
        let (at_small, at_large) = (cost_of(5_000), cost_of(20_000));
        assert_eq!(at_small, at_large, "a batch costs what it touches");
        assert_eq!(
            at_small.candidate_probes, 150,
            "one per holder found and one per pulled tuple tested"
        );
        assert_eq!(at_small.compositions, 100, "each pull is one merge");
    }

    #[test]
    fn a_batch_of_noops_leaves_every_version_where_it_is() {
        let flat = random_flat(3, 200, 9, 0xBEEF);
        let mut sharded =
            ShardedCanonical::from_flat(&flat, NestOrder::identity(3), ShardSpec::hash(4).unwrap())
                .unwrap();
        // Published, as a table's versions are: a copy-on-write clone of
        // any of them would show as a new `Arc`.
        let published = sharded.versions();
        let segments: Vec<Vec<Arc<Segment>>> = published
            .iter()
            .map(|v| v.segments().segments().to_vec())
            .collect();
        let stored: Vec<FlatTuple> = flat.rows().take(40).cloned().collect();
        let mut noops: Vec<Op> = stored.iter().cloned().map(Op::Insert).collect();
        noops.extend((0..40u32).map(|i| Op::Delete(row(&[900 + i, 950, 200 + i % 9]))));
        // An insert the same batch takes back is no change either.
        noops.push(Op::Insert(row(&[77, 177, 203])));
        noops.push(Op::Delete(row(&[77, 177, 203])));
        let report = sharded.apply_batch(&noops).unwrap();
        assert_eq!(report.summary.noops, 80);
        assert_eq!(
            report.summary.noop_positions,
            (0..80).collect::<Vec<usize>>(),
            "no-ops named by their place in the batch, across all four shards"
        );
        assert_eq!((report.summary.inserted, report.summary.deleted), (1, 1));
        assert_eq!(report.tuples_regrouped + report.segments_reencoded, 0);
        for (s, old) in published.iter().enumerate() {
            assert!(
                Arc::ptr_eq(old, sharded.version(s)),
                "shard {s}: the lane still holds the version it published"
            );
            let now = sharded.version(s).segments().segments();
            assert_eq!(now.len(), segments[s].len());
            assert!(now.iter().zip(&segments[s]).all(|(a, b)| Arc::ptr_eq(a, b)));
        }
    }

    #[test]
    fn set_segment_rows_retiles_fresh_shards() {
        let flat = random_flat(2, 300, 40, 11);
        let mut sharded =
            ShardedCanonical::from_flat(&flat, NestOrder::identity(2), ShardSpec::single())
                .unwrap();
        let one = sharded.shard_segments(0).segment_count();
        assert_eq!(one, 1, "300 rows fit one default-size segment");
        sharded.set_segment_rows(16);
        let tiled = sharded.shard_segments(0).segment_count();
        assert!(tiled > 1, "16-row target must split the shard");
        assert_eq!(
            sharded.shard_segments(0).covered_rows(),
            sharded.shard(0).tuple_count()
        );
        sharded.verify().unwrap();
    }

    #[test]
    fn shard_writer_guards_arity_and_segment_rows() {
        let s = schema(&["A", "B"]);
        let store =
            ShardedCanonical::new(s, NestOrder::identity(2), ShardSpec::hash(2).unwrap()).unwrap();
        let mut writers = store.into_writers();
        assert!(writers[0]
            .apply_batch(&[(0, &Op::Insert(row(&[1])))])
            .is_err());
        assert!(writers[0]
            .apply_batch(&[(0, &Op::Delete(row(&[1, 2, 3])))])
            .is_err());
        for i in 0..40u32 {
            writers[0]
                .apply_batch(&[(0, &Op::Insert(row(&[i, i])))])
                .unwrap();
        }
        writers[0].set_segment_rows(4);
        assert_eq!(writers[0].segment_rows(), 4);
    }

    #[test]
    fn from_versions_rejects_shard_count_mismatch() {
        let s = schema(&["A", "B"]);
        let store = ShardedCanonical::new(
            s.clone(),
            NestOrder::identity(2),
            ShardSpec::hash(2).unwrap(),
        )
        .unwrap();
        let versions = store.versions();
        assert!(ShardedCanonical::from_versions(
            s,
            NestOrder::identity(2),
            ShardSpec::hash(3).unwrap(),
            versions,
            DEFAULT_SEGMENT_ROWS,
        )
        .is_err());
    }

    #[test]
    fn empty_and_single_row_relations() {
        let s = schema(&["A", "B"]);
        let c = ShardedCanonical::new(
            s.clone(),
            NestOrder::identity(2),
            ShardSpec::hash(4).unwrap(),
        )
        .unwrap();
        assert!(c.is_empty());
        assert!(c.to_relation().is_empty());
        c.verify().unwrap();
        let f = FlatRelation::from_rows(s, vec![row(&[1, 2])]).unwrap();
        let c =
            ShardedCanonical::from_flat(&f, NestOrder::identity(2), ShardSpec::hash(4).unwrap())
                .unwrap();
        assert_eq!(c.tuple_count(), 1);
        assert_eq!(c.to_relation().tuple_count(), 1);
    }
}
