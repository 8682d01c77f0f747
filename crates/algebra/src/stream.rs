//! Iterator-driven ("streaming") building blocks for pull-based plans.
//!
//! [`Expr::eval`](crate::Expr::eval) materializes the full result of every
//! node before its parent sees one tuple — right for the paper's §3
//! reference semantics, hostile to a serving engine where most consumers
//! want the first rows fast. This module holds the per-tuple operators a
//! compiled pipeline (the query layer's physical plans) is assembled
//! from, each tuple-identical to its strict [`ops`](crate::ops)
//! counterpart (property-tested in this crate):
//!
//! * [`RelStream`] scans yield [`TupleView::Borrowed`] straight from the
//!   source — no clone, no copy;
//! * [`SelectProject`] is σ and a streaming π as one rule over a tuple
//!   read in place: a constrained attribute π drops is only tested, and
//!   each output tuple is written set by set into a block
//!   ([`ChunkBuilder`]). A located scan runs it inside its own loop
//!   (`nf2_storage::TableScan::located`), so a σ/π over a scan builds
//!   blocks, not tuples. [`filter_box`] (intersects components
//!   tuple-at-a-time, keeping the borrow whenever no component shrinks)
//!   and [`select_project`] (the same under a projection that streams)
//!   are its property-tested reference, and run σ and π over anything
//!   but a scan;
//! * [`JoinLayout::probe`] joins one streamed probe tuple against a
//!   materialized **build side**;
//! * sort, bounded-heap top-k and the k-way merge of sorted parts order
//!   a stream, all deferred behind [`lazy_iter`] until the first pull.
//!
//! Every operator preserves the partition invariant (disjoint rectangles
//! in, disjoint rectangles out), which is what lets
//! [`RelStream::into_relation`] materialize with the linear-time
//! [`NfRelation::from_disjoint_tuples`] instead of the validating
//! constructor.

use std::cmp::Ordering;
use std::sync::atomic::AtomicUsize;
use std::sync::Arc;

use nf2_core::chunk::{ChunkBuilder, Rewrite};
use nf2_core::error::Result;
use nf2_core::relation::NfRelation;
use nf2_core::schema::Schema;
use nf2_core::tuple::{NfTuple, SetRef, TupleRef, TupleView, ValueSet};
use nf2_core::value::Atom;

/// A boxed pull-based tuple pipeline.
pub type TupleIter<'a> = Box<dyn Iterator<Item = TupleView<'a>> + 'a>;

/// Wraps a pipeline factory so the inner pipeline is built on the
/// **first pull**, not when the enclosing plan is assembled.
///
/// Blocking operators (a join's build side, projection's input, a
/// top-k's drain) do real work — scans included — the moment they are
/// constructed. Deferring construction behind this adapter keeps the
/// whole plan pull-driven end to end: a consumer that never asks for a
/// tuple (`LIMIT 0`, an early-dropped cursor) never pays a single scan
/// probe, whatever the plan shape.
pub fn lazy_iter<'a>(make: impl FnOnce() -> TupleIter<'a> + 'a) -> TupleIter<'a> {
    enum Lazy<'a> {
        Pending(Option<Box<dyn FnOnce() -> TupleIter<'a> + 'a>>),
        Running(TupleIter<'a>),
    }
    impl<'a> Iterator for Lazy<'a> {
        type Item = TupleView<'a>;
        fn next(&mut self) -> Option<TupleView<'a>> {
            loop {
                match self {
                    Lazy::Running(iter) => return iter.next(),
                    Lazy::Pending(make) => {
                        let make = make.take().expect("pending state holds the factory");
                        *self = Lazy::Running(make());
                    }
                }
            }
        }
    }
    Box::new(Lazy::Pending(Some(Box::new(make))))
}

/// Sort direction of an `ORDER BY` / top-k operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SortDir {
    /// Smallest key first.
    Asc,
    /// Largest key first.
    Desc,
}

/// An atom comparator: how two attribute values rank against each other.
///
/// The algebra itself only sees opaque [`Atom`]s; a storage layer with a
/// dictionary plugs in a comparator that ranks atoms by their *resolved*
/// values (this is how `nf2-query` gives `ORDER BY` lexicographic string
/// semantics instead of intern-order semantics).
pub type AtomCmp = Arc<dyn Fn(Atom, Atom) -> Ordering + Send + Sync>;

/// A total order on NF² tuples over one attribute — one key of the
/// [`sorted_by`](RelStream::sorted_by) and [`top_k_by`](RelStream::top_k_by)
/// operators.
///
/// An NF² tuple's component on the attribute is a *set*; the tuple's
/// sort key is the set's **extreme member under the direction** — the
/// minimum for [`SortDir::Asc`], the maximum for [`SortDir::Desc`] — so
/// "top-k groups" ranks each group by its best value. Tuples with equal
/// keys compare equal; both operators break such ties by stream
/// position (stable), which is what makes `top_k_by(k)` tuple-identical
/// to a stable full sort followed by `take(k)`.
#[derive(Clone)]
pub struct TupleOrder {
    attr: usize,
    dir: SortDir,
    cmp: AtomCmp,
}

impl std::fmt::Debug for TupleOrder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TupleOrder")
            .field("attr", &self.attr)
            .field("dir", &self.dir)
            .finish_non_exhaustive()
    }
}

impl TupleOrder {
    /// Orders by raw atom id (dictionary intern order) — the right
    /// choice when atoms *are* the values, as in the workload benches.
    pub fn by_atom_id(attr: usize, dir: SortDir) -> Self {
        Self::with_cmp(attr, dir, Arc::new(|a: Atom, b: Atom| a.id().cmp(&b.id())))
    }

    /// Orders with a caller-supplied atom comparator (`cmp` must be a
    /// total order).
    pub fn with_cmp(attr: usize, dir: SortDir, cmp: AtomCmp) -> Self {
        TupleOrder { attr, dir, cmp }
    }

    /// The attribute being ordered on.
    pub fn attr(&self) -> usize {
        self.attr
    }

    /// The direction.
    pub fn dir(&self) -> SortDir {
        self.dir
    }

    /// The tuple's sort key: the extreme member of its component under
    /// the direction (min for ASC, max for DESC).
    pub fn key_of(&self, t: TupleRef<'_>) -> Atom {
        let comp = t.component(self.attr).as_slice();
        let mut best = comp[0];
        for &v in &comp[1..] {
            let better = match self.dir {
                SortDir::Asc => (self.cmp)(v, best) == Ordering::Less,
                SortDir::Desc => (self.cmp)(v, best) == Ordering::Greater,
            };
            if better {
                best = v;
            }
        }
        best
    }

    /// Compares two already-extracted keys in *emission* order (the
    /// direction folded in): `Less` means "emitted first".
    pub fn cmp_keys(&self, a: Atom, b: Atom) -> Ordering {
        match self.dir {
            SortDir::Asc => (self.cmp)(a, b),
            SortDir::Desc => (self.cmp)(b, a),
        }
    }
}

/// The compound sort key of a tuple under a multi-attribute order: one
/// extreme member per [`TupleOrder`], in order-list position. `ORDER BY
/// a, b` ranks by `a`'s key first and breaks ties with `b`'s.
pub fn compound_key_of(orders: &[TupleOrder], t: TupleRef<'_>) -> Vec<Atom> {
    orders.iter().map(|o| o.key_of(t)).collect()
}

/// Lexicographic comparison of two compound keys in emission order
/// (each position compared under its own [`TupleOrder`], directions
/// folded in). Keys must come from [`compound_key_of`] over the same
/// `orders`.
pub fn cmp_compound_keys(orders: &[TupleOrder], a: &[Atom], b: &[Atom]) -> Ordering {
    orders
        .iter()
        .zip(a.iter().zip(b))
        .map(|(o, (&ka, &kb))| o.cmp_keys(ka, kb))
        .find(|&c| c != Ordering::Equal)
        .unwrap_or(Ordering::Equal)
}

/// Observable counters of one [`top_k_by`](RelStream::top_k_by)
/// execution: how many tuples the operator pulled from its input and the
/// largest number it ever held at once (`≤ k` by construction — this is
/// the bounded-memory claim, pinned by tests).
#[derive(Debug, Default)]
pub struct TopKStats {
    /// Tuples pulled from the input stream.
    pub pulled: AtomicUsize,
    /// Peak number of tuples retained in the heap.
    pub peak_retained: AtomicUsize,
}

/// Per-operator actuals for `EXPLAIN ANALYZE`: tuples yielded and
/// inclusive wall time (nanoseconds, measured by the caller — this
/// crate never touches a clock). One tally may be shared by several
/// pipelines (a sharded scan's per-shard streams all feed the same
/// plan node), so both fields are cumulative across clones of the
/// owning `Arc`. All accesses are `Relaxed`: tallies are read only
/// after the cursor is fully drained on the draining thread.
#[derive(Debug, Default)]
pub struct OpTally {
    rows: std::sync::atomic::AtomicU64,
    nanos: std::sync::atomic::AtomicU64,
}

impl OpTally {
    /// Records one tuple yielded by the operator.
    #[inline]
    pub fn add_row(&self) {
        self.rows.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    }

    /// Records `n` tuples yielded by the operator.
    #[inline]
    pub fn add_rows(&self, n: u64) {
        self.rows.fetch_add(n, std::sync::atomic::Ordering::Relaxed);
    }

    /// Adds inclusive operator time in nanoseconds.
    #[inline]
    pub fn add_nanos(&self, n: u64) {
        self.nanos
            .fetch_add(n, std::sync::atomic::Ordering::Relaxed);
    }

    /// Total tuples yielded so far.
    pub fn rows(&self) -> u64 {
        self.rows.load(std::sync::atomic::Ordering::Relaxed)
    }

    /// Total inclusive nanoseconds so far.
    pub fn nanos(&self) -> u64 {
        self.nanos.load(std::sync::atomic::Ordering::Relaxed)
    }
}

/// A streamed relation: the schema plus a lazily-evaluated tuple pipeline.
pub struct RelStream<'a> {
    schema: Arc<Schema>,
    iter: TupleIter<'a>,
}

impl std::fmt::Debug for RelStream<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RelStream")
            .field("schema", &self.schema)
            .finish_non_exhaustive()
    }
}

impl<'a> RelStream<'a> {
    /// Wraps an existing pipeline under a schema.
    pub fn new(schema: Arc<Schema>, iter: TupleIter<'a>) -> Self {
        Self { schema, iter }
    }

    /// A stream with no tuples.
    pub fn empty(schema: Arc<Schema>) -> Self {
        Self {
            schema,
            iter: Box::new(std::iter::empty()),
        }
    }

    /// A stream over a borrowed relation's tuples (zero-copy).
    pub fn scan(rel: &'a NfRelation) -> Self {
        Self {
            schema: rel.schema().clone(),
            iter: Box::new(rel.tuples().iter().map(TupleView::Borrowed)),
        }
    }

    /// Concatenates several streams under one schema — the shape a
    /// sharded table presents to a pipeline: per-shard tuple streams,
    /// back-to-back, still fully lazy (a consumer that stops early never
    /// pulls the later shards at all).
    ///
    /// Correctness requirement (the sharded store guarantees it by
    /// value-routing): the parts' expansions must be pairwise disjoint,
    /// so the concatenation is a valid NFR over the same `R*`.
    pub fn concat(schema: Arc<Schema>, parts: Vec<RelStream<'a>>) -> Self {
        Self {
            schema,
            iter: Box::new(parts.into_iter().flat_map(|p| p.iter)),
        }
    }

    /// The output schema.
    pub fn schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    /// Drains the stream into a relation.
    ///
    /// Linear in the number of tuples: the pipeline operators preserve
    /// pairwise disjointness, so no overlap re-validation is needed.
    pub fn into_relation(self) -> Result<NfRelation> {
        let tuples: Vec<NfTuple> = self.iter.map(TupleView::into_owned).collect();
        NfRelation::from_disjoint_tuples(self.schema, tuples)
    }

    /// Sums `|R*|` over the stream without materializing any tuple list.
    pub fn flat_count(self) -> u128 {
        self.iter.map(|t| t.as_ref().expansion_count()).sum()
    }

    /// Blocking sort by a **compound** order (`ORDER BY a, b DESC, …`):
    /// lexicographic over the orders' keys, stable on full ties (equal
    /// keys keep their stream order). The input is drained on the
    /// **first pull**, not at construction, so an unconsumed sorted
    /// stream costs nothing.
    pub fn sorted_by(self, orders: Vec<TupleOrder>) -> RelStream<'a> {
        let RelStream { schema, iter } = self;
        let out = lazy_iter(move || {
            let mut entries: Vec<(Vec<Atom>, usize, TupleView<'a>)> = iter
                .enumerate()
                .map(|(seq, t)| (compound_key_of(&orders, t.as_ref()), seq, t))
                .collect();
            entries.sort_by(|(ka, sa, _), (kb, sb, _)| {
                cmp_compound_keys(&orders, ka, kb).then(sa.cmp(sb))
            });
            Box::new(entries.into_iter().map(|(_, _, t)| t)) as TupleIter<'a>
        });
        RelStream::new(schema, out)
    }

    /// Streaming merge of **already-sorted** parts into one sorted
    /// stream — the `ORDER BY` fast path over a sharded store whose
    /// per-shard segments are kernel-sorted on the order key: no shard
    /// is drained, no heap over the full input, each pull compares the
    /// parts' current heads and emits the best.
    ///
    /// Correctness requirement: every part must already be sorted under
    /// `orders` (compound keys non-decreasing in emission order). Ties
    /// across parts go to the lowest part index, and each part is FIFO
    /// within itself, so the merge is tuple-identical to
    /// `concat(parts).sorted_by(orders)` — the stable blocking sort —
    /// whenever the parts arrive in concatenation order.
    ///
    /// Head selection is a linear scan over the parts: with shard
    /// counts in the tens, that beats heap bookkeeping and keeps the
    /// code obviously correct. Construction is lazy; the first pull
    /// primes one head per part, after which `LIMIT k` costs about
    /// `k + parts` input pulls instead of a full drain.
    pub fn merge_sorted(
        schema: Arc<Schema>,
        parts: Vec<RelStream<'a>>,
        orders: Vec<TupleOrder>,
    ) -> RelStream<'a> {
        if parts.len() == 1 {
            // Single part: already sorted, nothing to merge.
            let mut parts = parts;
            let only = parts.pop().expect("one part is present");
            return RelStream::new(schema, only.iter);
        }
        let out = lazy_iter(move || {
            let mut iters: Vec<TupleIter<'a>> = parts.into_iter().map(|p| p.iter).collect();
            let mut heads: Vec<Option<(Vec<Atom>, TupleView<'a>)>> = iters
                .iter_mut()
                .map(|it| it.next().map(|t| (compound_key_of(&orders, t.as_ref()), t)))
                .collect();
            let merged = std::iter::from_fn(move || {
                let mut best: Option<usize> = None;
                for i in 0..heads.len() {
                    let Some((ki, _)) = &heads[i] else { continue };
                    best = match best {
                        None => Some(i),
                        Some(b) => {
                            let (kb, _) = heads[b].as_ref().expect("best head is occupied");
                            // Strict Less: on equal keys the earlier
                            // part wins, matching stable concat order.
                            if cmp_compound_keys(&orders, ki, kb) == Ordering::Less {
                                Some(i)
                            } else {
                                Some(b)
                            }
                        }
                    };
                }
                let b = best?;
                let (_, t) = heads[b].take().expect("best head is occupied");
                heads[b] = iters[b]
                    .next()
                    .map(|t| (compound_key_of(&orders, t.as_ref()), t));
                Some(t)
            });
            Box::new(merged) as TupleIter<'a>
        });
        RelStream::new(schema, out)
    }

    /// Streaming top-k: the first `k` tuples of
    /// [`sorted_by`](Self::sorted_by) — tuple-identical, ties included —
    /// computed with a **bounded binary heap** that pulls the input
    /// exactly once and retains at most `k` tuples at any moment (never
    /// the full input). `k = 0` yields nothing and pulls nothing. Work
    /// happens on the first pull.
    pub fn top_k_by(self, orders: Vec<TupleOrder>, k: usize) -> RelStream<'a> {
        self.top_k_by_with_stats(orders, k, Arc::new(TopKStats::default()))
    }

    /// [`top_k_by`](Self::top_k_by) with shared counters: `stats`
    /// records the tuples pulled and the peak heap occupancy (`≤ k`),
    /// which is how tests pin the bounded-memory claim.
    pub fn top_k_by_with_stats(
        self,
        orders: Vec<TupleOrder>,
        k: usize,
        stats: Arc<TopKStats>,
    ) -> RelStream<'a> {
        let RelStream { schema, iter } = self;
        if k == 0 {
            // Nothing can survive the limit: do not even build the
            // upstream pipeline (no scan probes — the LIMIT 0 tests pin
            // this across plan shapes).
            return RelStream::empty(schema);
        }
        RelStream::new(schema, bounded_top_k(iter, k, stats, orders))
    }
}

/// The bounded-heap top-k core: pulls the input exactly once, retains at
/// most `k` entries, emits the stable-sort prefix under `orders`.
fn bounded_top_k<'a>(
    iter: TupleIter<'a>,
    k: usize,
    stats: Arc<TopKStats>,
    orders: Vec<TupleOrder>,
) -> TupleIter<'a> {
    use std::sync::atomic::Ordering::Relaxed;
    type Entry<'a> = (Vec<Atom>, usize, TupleView<'a>);
    lazy_iter(move || {
        // Ranks entries in emission order (`Less` = emitted first).
        let rank = |a: &Entry<'a>, b: &Entry<'a>| {
            cmp_compound_keys(&orders, &a.0, &b.0).then(a.1.cmp(&b.1))
        };
        // Max-heap with the *worst* retained entry at the root
        // ("worst" = latest in emission order), so a better incoming
        // tuple evicts it in O(log k).
        let mut heap: Vec<Entry<'a>> = Vec::with_capacity(k.min(1024));
        let worse = |a: &Entry<'a>, b: &Entry<'a>| rank(a, b) == Ordering::Greater;
        for (seq, t) in iter.enumerate() {
            stats.pulled.fetch_add(1, Relaxed);
            let entry = (compound_key_of(&orders, t.as_ref()), seq, t);
            if heap.len() < k {
                // Sift up.
                heap.push(entry);
                let mut i = heap.len() - 1;
                while i > 0 {
                    let parent = (i - 1) / 2;
                    if worse(&heap[i], &heap[parent]) {
                        heap.swap(i, parent);
                        i = parent;
                    } else {
                        break;
                    }
                }
                stats.peak_retained.fetch_max(heap.len(), Relaxed);
            } else if worse(&heap[0], &entry) {
                // Replace the root and sift down. (A later tuple with
                // an equal key is *worse* — larger seq — so ties
                // never evict, exactly like a stable sort.)
                heap[0] = entry;
                let mut i = 0;
                loop {
                    let (l, r) = (2 * i + 1, 2 * i + 2);
                    let mut biggest = i;
                    if l < heap.len() && worse(&heap[l], &heap[biggest]) {
                        biggest = l;
                    }
                    if r < heap.len() && worse(&heap[r], &heap[biggest]) {
                        biggest = r;
                    }
                    if biggest == i {
                        break;
                    }
                    heap.swap(i, biggest);
                    i = biggest;
                }
            }
        }
        heap.sort_by(rank);
        Box::new(heap.into_iter().map(|(_, _, t)| t)) as TupleIter<'a>
    })
}

impl<'a> Iterator for RelStream<'a> {
    type Item = TupleView<'a>;

    fn next(&mut self) -> Option<TupleView<'a>> {
        self.iter.next()
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.iter.size_hint()
    }
}

/// What every conjunct of `constraints` on `attr`, folded in order,
/// leaves of `comp`: `comp` itself when none constrains `attr`, `None`
/// when the intersection empties. A set of up to the inline capacity
/// lives on the stack, so folding one allocates nothing.
fn fold(constraints: &[(usize, ValueSet)], attr: usize, comp: SetRef<'_>) -> Option<ValueSet> {
    let mut sets = constraints.iter().filter(|c| c.0 == attr).map(|c| &c.1);
    let Some(first) = sets.next() else {
        return Some(comp.to_set());
    };
    sets.try_fold(comp.intersection(first)?, |kept, set| {
        kept.intersection(set)
    })
}

/// Whether folding every conjunct of `constraints` on `attr` into
/// `comp` ([`fold`]) leaves anything — whether some member of `comp`
/// lies in all of them — decided without building a set.
fn meets(constraints: &[(usize, ValueSet)], attr: usize, comp: SetRef<'_>) -> bool {
    let on_attr = || constraints.iter().filter(|c| c.0 == attr).map(|c| &c.1);
    comp.as_slice()
        .iter()
        .any(|&v| on_attr().all(|set| set.contains(v)))
}

/// Applies box-selection constraints to one tuple. `None` drops the
/// tuple; an unchanged tuple keeps its (possibly borrowed) view; a
/// narrowed one is built as one new component block.
///
/// Constraints fold progressively — a second conjunct on the same
/// attribute intersects the already-narrowed component, exactly like the
/// strict [`crate::ops::select_box`].
///
/// Public so physical executors built on this pipeline (the query
/// layer's compiled prepared plans) apply exactly the same per-tuple
/// selection semantics.
pub fn filter_box<'a>(
    t: TupleView<'a>,
    constraints: &[(usize, ValueSet)],
) -> Option<TupleView<'a>> {
    // Decide before building anything: a rejected or an intact tuple
    // allocates nothing (a small set's intersection lives on the stack).
    let tuple = t.as_ref();
    let mut narrows = false;
    for &(attr, _) in constraints {
        let comp = tuple.component(attr);
        narrows |= fold(constraints, attr, comp)?.len() != comp.len();
    }
    if !narrows {
        return Some(t); // every component survived intact — zero-copy
    }
    let narrowed = tuple.components().enumerate().map(|(attr, comp)| {
        fold(constraints, attr, comp)
            .expect("every constrained component intersects: checked above")
    });
    Some(TupleView::Owned(narrowed.collect()))
}

/// A selection directly under a projection that streams, as one
/// per-tuple step: exactly [`filter_box`] with `constraints`, then the
/// tuple of the `attrs` components of what it left, in that order —
/// `None` where `filter_box` drops `t`.
///
/// A constrained attribute `attrs` drops is only tested — does some
/// member lie in every conjunct on it, which is whether `filter_box`'s
/// conjunct-by-conjunct fold leaves anything — and never built; one
/// `attrs` keeps is narrowed while the output tuple is built. So the
/// output tuple is the step's one component block, where `filter_box`
/// and the projection would build one each, and a rejected tuple
/// allocates nothing.
pub fn select_project(
    t: &TupleView<'_>,
    constraints: &[(usize, ValueSet)],
    attrs: &[usize],
) -> Option<NfTuple> {
    let tuple = t.as_ref();
    if !constraints
        .iter()
        .all(|&(attr, _)| meets(constraints, attr, tuple.component(attr)))
    {
        return None;
    }
    Some(
        attrs
            .iter()
            .map(|&attr| {
                fold(constraints, attr, tuple.component(attr))
                    .expect("every constrained component intersects: checked above")
            })
            .collect(),
    )
}

/// σ's box and a streaming π's kept attributes as one rule over a
/// tuple read in place, writing its output tuple set by set into a
/// block ([`ChunkBuilder`]) instead of building an [`NfTuple`]: the
/// per-tuple step of a located scan (`nf2_storage::TableScan::located`,
/// which owns the block and calls [`write`](Self::write) for each
/// tuple it locates).
///
/// Its output is exactly [`filter_box`]'s when it keeps every
/// attribute, and [`select_project`]'s otherwise — those two stay as
/// its property-tested reference. A tuple whose output is the tuple
/// itself (σ narrows nothing and no attribute is dropped or moved) is
/// reported [`Rewrite::Unchanged`] and not copied, as `filter_box`
/// keeps its borrow.
#[derive(Debug, Clone)]
pub struct SelectProject {
    /// `(attribute, values)` conjuncts, folded per attribute in order.
    constraints: Vec<(usize, ValueSet)>,
    /// Kept attributes in output order; `None` keeps every one (σ
    /// alone).
    attrs: Option<Arc<Vec<usize>>>,
    /// Sets per output tuple.
    arity: usize,
}

impl SelectProject {
    /// The rule of σ with `constraints` under a streaming π keeping
    /// `attrs` (`None`: no π) over tuples of `arity` sets. A π that
    /// keeps every attribute in order is no π.
    pub fn new(
        constraints: Vec<(usize, ValueSet)>,
        attrs: Option<Arc<Vec<usize>>>,
        arity: usize,
    ) -> Self {
        let attrs = attrs.filter(|attrs| !attrs.iter().copied().eq(0..arity));
        let arity = attrs.as_ref().map_or(arity, |attrs| attrs.len());
        SelectProject {
            constraints,
            attrs,
            arity,
        }
    }

    /// Sets per output tuple.
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// Whether every tuple a zoned scan locates by these same conjuncts
    /// passes: each constrained attribute has one conjunct, so a tuple
    /// that intersects it keeps that intersection. With two on one
    /// attribute, a tuple can meet each and not both.
    pub fn passes_every_located(&self) -> bool {
        self.constraints
            .iter()
            .enumerate()
            .all(|(i, &(attr, _))| self.constraints[..i].iter().all(|c| c.0 != attr))
    }

    /// Applies the rule to `t`: [`Rewrite::Rejected`] where σ drops it,
    /// [`Rewrite::Unchanged`] where the output is `t` itself, and
    /// otherwise appends the output tuple to `out` (which the caller
    /// has reserved room in) and says [`Rewrite::Appended`]. A rejected
    /// or unchanged tuple appends nothing.
    #[inline]
    pub fn write(&self, t: TupleRef<'_>, out: &mut ChunkBuilder) -> Rewrite {
        let constraints = &self.constraints[..];
        if !constraints
            .iter()
            .all(|&(attr, _)| meets(constraints, attr, t.component(attr)))
        {
            return Rewrite::Rejected;
        }
        match &self.attrs {
            None => {
                let narrows = constraints.iter().any(|&(attr, _)| {
                    let on = || constraints.iter().filter(|c| c.0 == attr);
                    t.component(attr)
                        .iter()
                        .any(|v| !on().all(|c| c.1.contains(v)))
                });
                if !narrows {
                    return Rewrite::Unchanged;
                }
                for attr in 0..t.arity() {
                    self.push_kept(t, attr, out);
                }
            }
            Some(attrs) => {
                for &attr in attrs.iter() {
                    self.push_kept(t, attr, out);
                }
            }
        }
        out.end_tuple();
        Rewrite::Appended
    }

    /// Appends what σ keeps of `t`'s component of `attr`: its members
    /// that lie in every conjunct on `attr` — [`fold`]'s set, not built.
    #[inline]
    fn push_kept(&self, t: TupleRef<'_>, attr: usize, out: &mut ChunkBuilder) {
        let comp = t.component(attr);
        let on = || self.constraints.iter().filter(|c| c.0 == attr);
        if on().next().is_none() {
            out.push_set(comp.iter());
        } else {
            out.push_set(comp.iter().filter(|&v| on().all(|c| c.1.contains(v))));
        }
    }
}

/// The precomputed shape of a natural join with a streamed probe (left)
/// side and a materialized build (right) side: which right-side
/// components intersect which left-side components, which are appended,
/// and the output schema. Physical executors (the query layer's compiled
/// plans) run their joins through it, so the join semantics live in one
/// place beside the strict [`crate::ops::natural_join`].
#[derive(Debug, Clone)]
pub struct JoinLayout {
    /// `(right attr, left attr)` pairs of shared attribute names.
    pub shared: Vec<(usize, usize)>,
    /// Right-side attributes appended after the left schema.
    pub right_only: Vec<usize>,
    /// Output schema: left attributes then right-only attributes
    /// (mirrors [`crate::ops::natural_join`]).
    pub schema: Arc<Schema>,
}

impl JoinLayout {
    /// Computes the join layout of two input schemas.
    pub fn of(lschema: &Schema, rschema: &Schema) -> Result<JoinLayout> {
        let mut shared: Vec<(usize, usize)> = Vec::new(); // (right, left)
        let mut right_only: Vec<usize> = Vec::new();
        for (r_id, r_name) in rschema.attr_names().enumerate() {
            match lschema.attr_id(r_name) {
                Ok(l_id) => shared.push((r_id, l_id)),
                Err(_) => right_only.push(r_id),
            }
        }
        let mut names: Vec<&str> = lschema.attr_names().collect();
        let right_names: Vec<&str> = rschema.attr_names().collect();
        for &r_id in &right_only {
            names.push(right_names[r_id]);
        }
        let schema = Schema::new(
            format!("{}_join_{}", lschema.name(), rschema.name()),
            &names,
        )?;
        Ok(JoinLayout {
            shared,
            right_only,
            schema,
        })
    }

    /// Joins one probe tuple against the whole build side, appending the
    /// surviving combined rectangles to `out` — the per-pair rectangle
    /// intersection of [`crate::ops::natural_join`].
    pub fn probe<'a>(
        &self,
        l: &TupleView<'a>,
        build: &[TupleView<'a>],
        out: &mut Vec<TupleView<'a>>,
    ) {
        let l = l.as_ref();
        for r in build {
            let r = r.as_ref();
            // Test before copying: a pair whose shared components are
            // disjoint (most of a build side) costs no allocation.
            let disjoint = |&(r_id, l_id): &(usize, usize)| {
                l.component(l_id).is_disjoint_from(r.component(r_id))
            };
            if self.shared.iter().any(disjoint) {
                continue;
            }
            let left = l.components().enumerate().map(|(l_id, c)| {
                match self.shared.iter().find(|pair| pair.1 == l_id) {
                    Some(&(r_id, _)) => c
                        .intersection(r.component(r_id))
                        .expect("shared components intersect: checked above"),
                    None => c.to_set(),
                }
            });
            let right = self
                .right_only
                .iter()
                .map(|&r_id| r.component(r_id).to_set());
            out.push(TupleView::Owned(left.chain(right).collect()));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops;
    use nf2_core::relation::FlatRelation;
    use nf2_core::schema::NestOrder;

    fn sc() -> NfRelation {
        let schema = Schema::new("SC", &["Student", "Course"]).unwrap();
        let flat = FlatRelation::from_rows(
            schema,
            vec![
                vec![Atom(1), Atom(10)],
                vec![Atom(1), Atom(11)],
                vec![Atom(2), Atom(10)],
                vec![Atom(3), Atom(12)],
            ],
        )
        .unwrap();
        nf2_core::nest::canonical_of_flat(&flat, &NestOrder::identity(2))
    }

    fn cp() -> NfRelation {
        let schema = Schema::new("CP", &["Course", "Prof"]).unwrap();
        let flat = FlatRelation::from_rows(
            schema,
            vec![
                vec![Atom(10), Atom(90)],
                vec![Atom(11), Atom(91)],
                vec![Atom(12), Atom(90)],
            ],
        )
        .unwrap();
        NfRelation::from_flat(&flat)
    }

    fn vs(ids: &[u32]) -> ValueSet {
        ValueSet::new(ids.iter().map(|&i| Atom(i)).collect()).unwrap()
    }

    /// Box selection the streaming way: [`filter_box`] over a scan.
    fn filtered(rel: &NfRelation, constraints: &[(usize, ValueSet)]) -> NfRelation {
        let kept = RelStream::scan(rel).filter_map(|t| filter_box(t, constraints));
        RelStream::new(rel.schema().clone(), Box::new(kept))
            .into_relation()
            .unwrap()
    }

    #[test]
    fn scan_is_zero_copy() {
        let rel = sc();
        let mut stream = RelStream::scan(&rel);
        let first = stream.next().unwrap();
        assert!(first.is_borrowed());
        assert_eq!(stream.count() + 1, rel.tuple_count());
    }

    #[test]
    fn select_keeps_borrow_when_nothing_shrinks() {
        let rel = sc();
        // Student ∈ {1, 2, 3} keeps every component intact.
        let all = ValueSet::new(vec![Atom(1), Atom(2), Atom(3)]).unwrap();
        let kept = filter_box(
            TupleView::Borrowed(&rel.tuples()[0]),
            &[(0usize, all.clone())],
        )
        .unwrap();
        assert!(kept.is_borrowed(), "no narrowing → zero-copy");
        // Student ∈ {1} must narrow multi-student tuples into owned ones.
        let narrow = ValueSet::singleton(Atom(1));
        for t in rel.tuples() {
            if let Some(out) = filter_box(TupleView::Borrowed(t), &[(0usize, narrow.clone())]) {
                assert!(out.as_ref().component(0).is_singleton());
            }
        }
    }

    #[test]
    fn repeated_attr_conjuncts_fold_progressively() {
        // Two conjuncts on ONE attribute: the second must intersect the
        // already-narrowed component, not the original (last-write-wins
        // would wrongly keep a tuple here).
        let rel = sc();
        let disjoint = [(0usize, vs(&[1])), (0usize, vs(&[2]))];
        let strict = ops::select_box(&rel, &disjoint).unwrap();
        assert!(strict.is_empty(), "{{1}} ∩ {{2}} = ∅");
        assert_eq!(strict, filtered(&rel, &disjoint));
        // And a satisfiable pair narrows to the common value.
        let overlapping = [(0usize, vs(&[1, 2])), (0usize, vs(&[2, 3]))];
        let streamed = filtered(&rel, &overlapping);
        assert_eq!(ops::select_box(&rel, &overlapping).unwrap(), streamed);
        for t in streamed.tuples() {
            assert!(t.component(0).as_slice() == [Atom(2)]);
        }
    }

    /// `t` under `constraints` by the strict operator: the one tuple of
    /// `select_box` over the relation holding just `t`.
    fn strict_select(t: &NfTuple, names: &[&str], constraints: &[(usize, ValueSet)]) -> NfTuple {
        let schema = Schema::new("T", names).unwrap();
        let rel = NfRelation::from_tuples(schema, vec![t.clone()]).unwrap();
        let out = ops::select_box(&rel, constraints).unwrap();
        assert_eq!(out.tuple_count(), 1);
        out.tuples()[0].clone()
    }

    #[test]
    fn filter_box_folds_two_conjuncts_on_one_attribute() {
        let t = NfTuple::new(vec![vs(&[1, 2, 3]), vs(&[10])]);
        let both = [(0usize, vs(&[1, 2])), (0usize, vs(&[2, 3]))];
        let out = filter_box(TupleView::Borrowed(&t), &both).unwrap();
        assert_eq!(
            out.as_ref().component(0),
            vs(&[2]),
            "{{1,2,3}} ∩ {{1,2}} ∩ {{2,3}}"
        );
        assert_eq!(out.as_tuple(), &strict_select(&t, &["A", "B"], &both));
        // Each conjunct alone keeps the tuple; together they reject it.
        let apart = [(0usize, vs(&[1])), (0usize, vs(&[3]))];
        assert!(filter_box(TupleView::Borrowed(&t), &apart).is_none());
    }

    #[test]
    fn filter_box_that_narrows_nothing_is_zero_copy() {
        let t = NfTuple::new(vec![vs(&[1, 2]), vs(&[10])]);
        let wide = [(0usize, vs(&[1, 2, 3])), (1usize, vs(&[10, 11]))];
        let out = filter_box(TupleView::Borrowed(&t), &wide).unwrap();
        assert!(out.is_zero_copy());
        assert!(matches!(out, TupleView::Borrowed(kept) if std::ptr::eq(kept, &t)));
    }

    #[test]
    fn filter_box_narrows_two_attributes_into_one_new_block() {
        let t = NfTuple::new(vec![vs(&[1, 2]), vs(&[10, 11]), vs(&[20, 21])]);
        let two = [(0usize, vs(&[2])), (2usize, vs(&[20, 22]))];
        let out = filter_box(TupleView::Borrowed(&t), &two).unwrap();
        assert!(!out.is_zero_copy());
        let out = out.into_owned();
        assert_eq!(out, NfTuple::new(vec![vs(&[2]), vs(&[10, 11]), vs(&[20])]));
        assert_eq!(out, strict_select(&t, &["A", "B", "C"], &two));
    }

    #[test]
    fn probe_builds_only_the_matching_pair() {
        // One build tuple of three shares a course with the probe tuple.
        let (sc, cp) = (sc(), cp());
        let layout = JoinLayout::of(sc.schema(), cp.schema()).unwrap();
        let build: Vec<TupleView<'_>> = RelStream::scan(&cp).collect();
        let probe = sc
            .tuples()
            .iter()
            .find(|t| t.component(1).as_slice() == [Atom(12)])
            .unwrap();
        let mut joined = Vec::new();
        layout.probe(&TupleView::Borrowed(probe), &build, &mut joined);
        assert_eq!(joined.len(), 1);
        let alone = NfRelation::from_tuples(sc.schema().clone(), vec![probe.clone()]).unwrap();
        let strict = ops::natural_join(&alone, &cp).unwrap();
        assert_eq!(strict.tuples(), [joined[0].clone().into_owned()]);
    }

    #[test]
    fn streaming_matches_strict_join() {
        let (sc, cp) = (sc(), cp());
        let strict = ops::natural_join(&sc, &cp).unwrap();
        let layout = JoinLayout::of(sc.schema(), cp.schema()).unwrap();
        let build: Vec<TupleView<'_>> = RelStream::scan(&cp).collect();
        let mut joined = Vec::new();
        for l in RelStream::scan(&sc) {
            layout.probe(&l, &build, &mut joined);
        }
        let streamed = RelStream::new(layout.schema.clone(), Box::new(joined.into_iter()))
            .into_relation()
            .unwrap();
        assert_eq!(strict, streamed);
        assert_eq!(strict.expand(), streamed.expand());
    }

    #[test]
    fn flat_count_streams_without_materializing() {
        let rel = sc();
        assert_eq!(RelStream::scan(&rel).flat_count(), rel.flat_count());
    }

    #[test]
    fn concat_streams_lazily_in_order() {
        let rel = sc();
        let (a, b) = (RelStream::scan(&rel), RelStream::scan(&rel));
        let cat = RelStream::concat(rel.schema().clone(), vec![a, b]);
        assert_eq!(cat.count(), 2 * rel.tuple_count());
        // Laziness: taking one tuple pulls one tuple.
        let (a, b) = (RelStream::scan(&rel), RelStream::scan(&rel));
        let mut cat = RelStream::concat(rel.schema().clone(), vec![a, b]);
        assert!(cat.next().unwrap().is_borrowed());
    }

    /// Sort-then-truncate oracle for the top-k operator, sharing the
    /// exact key/tie rules.
    fn sort_truncate(rel: &NfRelation, order: &TupleOrder, k: usize) -> Vec<NfTuple> {
        let mut keyed: Vec<(Atom, usize, NfTuple)> = rel
            .tuples()
            .iter()
            .enumerate()
            .map(|(i, t)| (order.key_of(t.as_ref()), i, t.clone()))
            .collect();
        keyed.sort_by(|(ka, sa, _), (kb, sb, _)| order.cmp_keys(*ka, *kb).then(sa.cmp(sb)));
        keyed.into_iter().take(k).map(|(_, _, t)| t).collect()
    }

    #[test]
    fn sorted_is_a_stable_full_sort() {
        let rel = sc();
        for dir in [SortDir::Asc, SortDir::Desc] {
            for attr in 0..2 {
                let order = TupleOrder::by_atom_id(attr, dir);
                let got: Vec<NfTuple> = RelStream::scan(&rel)
                    .sorted_by(vec![order.clone()])
                    .map(TupleView::into_owned)
                    .collect();
                assert_eq!(
                    got,
                    sort_truncate(&rel, &order, usize::MAX),
                    "{attr} {dir:?}"
                );
                // Keys are monotone in emission order.
                for w in got.windows(2) {
                    assert_ne!(
                        order.cmp_keys(order.key_of(w[0].as_ref()), order.key_of(w[1].as_ref())),
                        std::cmp::Ordering::Greater
                    );
                }
            }
        }
    }

    #[test]
    fn top_k_equals_sort_then_truncate_and_stays_bounded() {
        let rel = sc();
        for dir in [SortDir::Asc, SortDir::Desc] {
            for attr in 0..2 {
                for k in 0..=rel.tuple_count() + 1 {
                    let order = TupleOrder::by_atom_id(attr, dir);
                    let stats = Arc::new(TopKStats::default());
                    let got: Vec<NfTuple> = RelStream::scan(&rel)
                        .top_k_by_with_stats(vec![order.clone()], k, stats.clone())
                        .map(TupleView::into_owned)
                        .collect();
                    assert_eq!(got, sort_truncate(&rel, &order, k), "attr {attr} k {k}");
                    let peak = stats
                        .peak_retained
                        .load(std::sync::atomic::Ordering::Relaxed);
                    assert!(peak <= k, "heap bound: retained {peak} > k {k}");
                    let pulled = stats.pulled.load(std::sync::atomic::Ordering::Relaxed);
                    if k == 0 {
                        assert_eq!(pulled, 0, "k = 0 must not pull the input at all");
                    } else {
                        assert_eq!(pulled, rel.tuple_count(), "input pulled exactly once");
                    }
                }
            }
        }
    }

    #[test]
    fn top_k_ties_are_stable() {
        // Three tuples share Course=10 on attr 1 after a custom build:
        // the kept prefix must preserve stream order among equal keys.
        let schema = Schema::new("T", &["A", "B"]).unwrap();
        let tuples: Vec<NfTuple> = [(1u32, 10u32), (2, 10), (3, 10), (4, 5)]
            .iter()
            .map(|&(a, b)| NfTuple::from_flat(&[Atom(a), Atom(b)]))
            .collect();
        let rel = NfRelation::from_disjoint_tuples(schema, tuples).unwrap();
        let order = TupleOrder::by_atom_id(1, SortDir::Asc);
        let got: Vec<NfTuple> = RelStream::scan(&rel)
            .top_k_by(vec![order.clone()], 3)
            .map(TupleView::into_owned)
            .collect();
        assert_eq!(got, sort_truncate(&rel, &order, 3));
        // (4,5) first (smallest B), then (1,10) and (2,10) in stream order.
        assert_eq!(got[0].component(0).as_slice(), [Atom(4)]);
        assert_eq!(got[1].component(0).as_slice(), [Atom(1)]);
        assert_eq!(got[2].component(0).as_slice(), [Atom(2)]);
    }

    #[test]
    fn tuple_order_keys_use_the_set_extreme() {
        // A set-valued component ranks by its min (ASC) / max (DESC).
        let t = NfTuple::new(vec![
            ValueSet::new(vec![Atom(5), Atom(2), Atom(9)]).unwrap(),
            ValueSet::singleton(Atom(1)),
        ]);
        assert_eq!(
            TupleOrder::by_atom_id(0, SortDir::Asc).key_of(t.as_ref()),
            Atom(2)
        );
        assert_eq!(
            TupleOrder::by_atom_id(0, SortDir::Desc).key_of(t.as_ref()),
            Atom(9)
        );
    }

    #[test]
    fn custom_comparator_reorders_atoms() {
        // Reverse-id comparator: ASC under it is DESC by id.
        let rel = sc();
        let cmp: AtomCmp = Arc::new(|a: Atom, b: Atom| b.id().cmp(&a.id()));
        let order = TupleOrder::with_cmp(0, SortDir::Asc, cmp);
        let got: Vec<NfTuple> = RelStream::scan(&rel)
            .sorted_by(vec![order])
            .map(TupleView::into_owned)
            .collect();
        let by_id_desc: Vec<NfTuple> = RelStream::scan(&rel)
            .sorted_by(vec![TupleOrder::by_atom_id(0, SortDir::Desc)])
            .map(TupleView::into_owned)
            .collect();
        assert_eq!(got, by_id_desc);
    }

    #[test]
    fn lazy_iter_defers_construction_until_first_pull() {
        let built = std::cell::Cell::new(false);
        let mut it = lazy_iter(|| {
            built.set(true);
            Box::new(std::iter::empty())
        });
        assert!(!built.get(), "construction must not run the factory");
        assert!(it.next().is_none());
        assert!(built.get());
        // And an unpulled sorted/top-k stream does no work either.
        let rel = sc();
        let pulls = std::cell::Cell::new(0usize);
        let counted: TupleIter<'_> =
            Box::new(rel.tuples().iter().map(TupleView::Borrowed).inspect(|_| {
                pulls.set(pulls.get() + 1);
            }));
        let stream = RelStream::new(rel.schema().clone(), counted)
            .sorted_by(vec![TupleOrder::by_atom_id(0, SortDir::Asc)]);
        drop(stream);
        assert_eq!(pulls.get(), 0, "dropped-before-pull sort reads nothing");
    }

    /// Four tuples with ties on A so a second key matters.
    fn multi_key_rel() -> NfRelation {
        let schema = Schema::new("T", &["A", "B"]).unwrap();
        let tuples: Vec<NfTuple> = [(2u32, 7u32), (1, 9), (2, 3), (1, 4)]
            .iter()
            .map(|&(a, b)| NfTuple::from_flat(&[Atom(a), Atom(b)]))
            .collect();
        NfRelation::from_disjoint_tuples(schema, tuples).unwrap()
    }

    #[test]
    fn sorted_by_orders_lexicographically() {
        let rel = multi_key_rel();
        let orders = vec![
            TupleOrder::by_atom_id(0, SortDir::Asc),
            TupleOrder::by_atom_id(1, SortDir::Desc),
        ];
        let got: Vec<Vec<Atom>> = RelStream::scan(&rel)
            .sorted_by(orders)
            .map(|t| {
                let t = t.as_ref();
                vec![t.component(0).as_slice()[0], t.component(1).as_slice()[0]]
            })
            .collect();
        // A ascending, B descending within equal A.
        assert_eq!(
            got,
            vec![
                vec![Atom(1), Atom(9)],
                vec![Atom(1), Atom(4)],
                vec![Atom(2), Atom(7)],
                vec![Atom(2), Atom(3)],
            ]
        );
    }

    #[test]
    fn top_k_by_matches_sorted_by_prefix_and_stays_bounded() {
        let rel = multi_key_rel();
        let orders = vec![
            TupleOrder::by_atom_id(0, SortDir::Asc),
            TupleOrder::by_atom_id(1, SortDir::Asc),
        ];
        for k in 0..=rel.tuple_count() + 1 {
            let stats = Arc::new(TopKStats::default());
            let got: Vec<NfTuple> = RelStream::scan(&rel)
                .top_k_by_with_stats(orders.clone(), k, stats.clone())
                .map(TupleView::into_owned)
                .collect();
            let want: Vec<NfTuple> = RelStream::scan(&rel)
                .sorted_by(orders.clone())
                .map(TupleView::into_owned)
                .take(k)
                .collect();
            assert_eq!(got, want, "k {k}");
            let peak = stats
                .peak_retained
                .load(std::sync::atomic::Ordering::Relaxed);
            assert!(peak <= k, "heap bound: retained {peak} > k {k}");
        }
    }

    #[test]
    fn merge_sorted_equals_blocking_sort_of_concat() {
        // Split a relation into sorted runs, merge them, compare with
        // sorting the concatenation — the streaming/blocking agreement
        // that lets the query layer swap one for the other.
        let rel = sc();
        let order = TupleOrder::by_atom_id(1, SortDir::Asc);
        let sorted_all: Vec<NfTuple> = RelStream::scan(&rel)
            .sorted_by(vec![order.clone()])
            .map(TupleView::into_owned)
            .collect();
        // Parts = odd/even positions of the sorted list (each sorted).
        let split = |keep: &dyn Fn(usize) -> bool| {
            NfRelation::from_disjoint_tuples(
                rel.schema().clone(),
                sorted_all
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| keep(*i))
                    .map(|(_, t)| t.clone())
                    .collect(),
            )
            .unwrap()
        };
        let (even, odd) = (split(&|i| i % 2 == 0), split(&|i| i % 2 == 1));
        let merged: Vec<NfTuple> = RelStream::merge_sorted(
            rel.schema().clone(),
            vec![RelStream::scan(&even), RelStream::scan(&odd)],
            vec![order.clone()],
        )
        .map(TupleView::into_owned)
        .collect();
        assert_eq!(merged, sorted_all);
        // Keys are monotone in emission order.
        for w in merged.windows(2) {
            assert_ne!(
                order.cmp_keys(order.key_of(w[0].as_ref()), order.key_of(w[1].as_ref())),
                std::cmp::Ordering::Greater
            );
        }
        // Empty parts and a single part are handled.
        let one: Vec<NfTuple> = RelStream::merge_sorted(
            rel.schema().clone(),
            vec![RelStream::scan(&even)],
            vec![order.clone()],
        )
        .map(TupleView::into_owned)
        .collect();
        assert_eq!(one.len(), even.tuple_count());
        let with_empty: Vec<NfTuple> = RelStream::merge_sorted(
            rel.schema().clone(),
            vec![
                RelStream::empty(rel.schema().clone()),
                RelStream::scan(&even),
                RelStream::empty(rel.schema().clone()),
            ],
            vec![order],
        )
        .map(TupleView::into_owned)
        .collect();
        assert_eq!(with_empty.len(), even.tuple_count());
    }

    #[test]
    fn merge_sorted_breaks_ties_by_part_index() {
        // Two parts with the same single key: part 0's tuple must come
        // first, matching stable concat order.
        let schema = Schema::new("T", &["A", "B"]).unwrap();
        let mk = |a: u32, b: u32| {
            NfRelation::from_disjoint_tuples(
                schema.clone(),
                vec![NfTuple::from_flat(&[Atom(a), Atom(b)])],
            )
            .unwrap()
        };
        let (p0, p1) = (mk(1, 10), mk(2, 10));
        let order = TupleOrder::by_atom_id(1, SortDir::Asc);
        let got: Vec<NfTuple> = RelStream::merge_sorted(
            schema.clone(),
            vec![RelStream::scan(&p0), RelStream::scan(&p1)],
            vec![order],
        )
        .map(TupleView::into_owned)
        .collect();
        assert_eq!(got[0].component(0).as_slice(), [Atom(1)]);
        assert_eq!(got[1].component(0).as_slice(), [Atom(2)]);
    }

    #[test]
    fn merge_sorted_pulls_lazily() {
        // LIMIT-style consumption: taking 1 tuple from a merge of two
        // parts pulls one head per part plus one refill — never a drain.
        fn counted<'r>(r: &'r NfRelation, pulls: &'r std::cell::Cell<usize>) -> TupleIter<'r> {
            Box::new(
                r.tuples()
                    .iter()
                    .map(TupleView::Borrowed)
                    .inspect(move |_| {
                        pulls.set(pulls.get() + 1);
                    }),
            )
        }
        let rel = sc();
        let pulls = std::cell::Cell::new(0usize);
        let order = TupleOrder::by_atom_id(0, SortDir::Asc);
        let merged = RelStream::merge_sorted(
            rel.schema().clone(),
            vec![
                RelStream::new(rel.schema().clone(), counted(&rel, &pulls)),
                RelStream::new(rel.schema().clone(), counted(&rel, &pulls)),
            ],
            vec![order],
        );
        assert_eq!(pulls.get(), 0, "construction pulls nothing");
        let first = merged.take(1).count();
        assert_eq!(first, 1);
        assert!(
            pulls.get() <= 3,
            "one emission needs at most heads + refill pulls, got {}",
            pulls.get()
        );
    }
}
