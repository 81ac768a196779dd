//! Batched estimation with a shared cross-query sub-twig cache.
//!
//! The per-query estimators in [`crate::estimator`] memoize sub-twig
//! estimates only for the duration of one query. Realistic workloads
//! (Figure 9's query sets, the online tuner's feedback loop) estimate many
//! structurally overlapping twigs against the same summary, recomputing the
//! same decompositions query after query. [`EstimationEngine`] keeps those
//! sub-twig estimates in a hash-sharded cache that persists across queries
//! and is shared by the worker threads of [`EstimationEngine::estimate_batch`].
//!
//! ## Correctness
//!
//! A cached value is a pure function of three inputs: the summary content,
//! the canonical sub-twig key, and the *effective voting width* (the number
//! of removable pairs averaged per recursion node — 1 for
//! [`Estimator::Recursive`] and both fix-sized estimators, `voting_cap` for
//! [`Estimator::RecursiveVoting`]). The cache is therefore keyed by
//! (generation, voting class, canonical key):
//!
//! * **Generation** — every [`TreeLattice`] carries a generation drawn from
//!   a process-wide counter, reassigned by every mutation: each one goes
//!   through [`TreeLattice::summary_mut`] ([`TreeLattice::merge`],
//!   [`TreeLattice::update_after_edit`], [`TreeLattice::prune`], and the
//!   online tuner's in-place feedback). A shard only answers lookups whose
//!   generation matches the one its entries were computed against, so
//!   stale entries are unreachable by construction and are evicted lazily
//!   on the next write.
//! * **Voting class** — estimates computed under different effective voting
//!   widths are distinct cache populations; [`Estimator::Recursive`],
//!   [`Estimator::FixSized`], and [`Estimator::FixSizedVoting`] share class
//!   1 (their inner recursions are identical), `RecursiveVoting` uses its
//!   saturated `voting_cap`.
//!
//! Since the interned-id rework, the key axis is a [`TwigId`] from the
//! engine-wide [`TwigInterner`] rather than the canonical byte string
//! itself: each distinct sub-twig encoding is hashed and cloned once, when
//! it takes a slot; every later probe — including across generations and
//! voting classes — is a shard-table lookup with no hashing of key bytes
//! and no allocation.
//!
//! ## Bounded state
//!
//! The slot table and the shard entries together stay under
//! [`EngineConfig::budget_bytes`], counted as [`EngineStats::bytes`]
//! counts them. Before a fresh encoding takes a slot, the engine evicts
//! with the table's CLOCK sweep until the table, plus one shard entry per
//! registered voting class for every interned encoding, fits; an evicted
//! slot's entries go with it, and its next tenant gets a new incarnation.
//! A cache entry records the incarnation it was computed under and only
//! answers an id of that incarnation, so a reused slot never answers for
//! the key it held before — also while a query that interned the old key
//! is still running, whose DAG tells the two apart by the same id. An
//! eviction can therefore only lose a hit, never change a value.
//!
//! Because cached values equal what a per-query evaluation would compute,
//! batch results are bit-for-bit identical to a sequential
//! [`TreeLattice::estimate_with`] loop, for every estimator and any thread
//! count. Two workers may race to compute the same key; both arrive at the
//! same `f64`, so the duplicate store is benign.
//!
//! ## When the batch path wins
//!
//! The shared cache pays off when queries overlap structurally: workload
//! sweeps over one dataset, repeated estimation during tuning, and skewed
//! query logs. For a single isolated query it degenerates to the per-query
//! memo plus some locking overhead; use [`TreeLattice::estimate`] there.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::RwLock;
use tl_fault::{failpoints, Fault};
use tl_twig::{Twig, TwigId, TwigInterner};
use tl_xml::FxHashMap;

use crate::catalog::{has_unknown_label, Catalog};
use crate::dag::{estimate_dag, DagStats, IdCache};
use crate::resilient::{estimate_resilient_with, ResilientEstimate};
#[cfg(doc)]
use crate::TreeLattice;
use crate::{EstimateOptions, Estimator};

/// The default [`EngineConfig::budget_bytes`]: 8 MiB.
pub const DEFAULT_BUDGET_BYTES: usize = 8 << 20;

/// Construction knobs for [`EstimationEngine`].
#[derive(Clone, Copy, Debug)]
pub struct EngineConfig {
    /// Number of cache shards, rounded up to a power of two. More shards
    /// reduce write contention between batch workers; 16 is plenty up to a
    /// few dozen threads.
    pub shards: usize,
    /// Worker threads for [`EstimationEngine::estimate_batch`]
    /// (`0` = available parallelism).
    pub threads: usize,
    /// Bytes the engine's state may hold, counted as [`EngineStats::bytes`]
    /// counts them: slot records, index entries and key bytes of the slot
    /// table, and shard entries. Past it the engine evicts (see the module
    /// docs). Defaults to [`DEFAULT_BUDGET_BYTES`]; `usize::MAX` never
    /// evicts.
    pub budget_bytes: usize,
}

impl Default for EngineConfig {
    fn default() -> Self {
        Self {
            shards: 16,
            threads: 0,
            budget_bytes: DEFAULT_BUDGET_BYTES,
        }
    }
}

/// Point-in-time cache counters, exposed by [`EstimationEngine::stats`].
#[derive(Clone, Copy, Debug, Default)]
pub struct EngineStats {
    /// Sub-twig lookups answered from the shared cache.
    pub hits: u64,
    /// Sub-twig lookups that had to be computed (each is followed by a
    /// store, so this is also the number of entries ever written).
    pub misses: u64,
    /// Entries currently cached across all shards.
    pub entries: usize,
    /// The engine's state as its budget counts it: the slot table's
    /// records, index entries and key bytes, plus 25 bytes per shard
    /// entry. Tables count at their lengths, not their capacities.
    pub bytes: usize,
    /// Wall-clock duration of the most recent
    /// [`EstimationEngine::estimate_batch`] call.
    pub last_batch: Duration,
    /// Interner occupancy: canonical encodings holding a slot now.
    pub interner_keys: usize,
    /// Slots the budget evicted so far.
    pub evicted: u64,
    /// Distinct sub-twig nodes materialized across all evaluation DAGs.
    pub dag_nodes: u64,
    /// Total sub-twig references across all evaluation DAGs; exceeds
    /// `dag_nodes` whenever decomposition operands are shared.
    pub dag_refs: u64,
    /// Canonical key bytes cloned into the interner — charged only when an
    /// encoding takes a slot. A warm probe clones zero key bytes; this
    /// counter staying flat across a repeat workload is the allocation-free
    /// lookup guarantee.
    pub key_clone_bytes: u64,
    /// Pattern-store probes served by counting backends (the mmap catalog)
    /// during estimates on this engine. In-memory backends are not metered
    /// and contribute 0.
    pub catalog_lookups: u64,
}

impl EngineStats {
    /// Fraction of lookups served from cache; 0 when nothing was looked up.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Shared-sub-twig dedup ratio: DAG references per distinct DAG node.
    /// Greater than 1 whenever structural sharing collapsed any references;
    /// 0 when no DAG was built yet.
    pub fn dedup_ratio(&self) -> f64 {
        if self.dag_nodes == 0 {
            0.0
        } else {
            self.dag_refs as f64 / self.dag_nodes as f64
        }
    }
}

/// A shard entry as the budget charges it: `(voting class, slot)` →
/// `(incarnation, estimate)` plus the hash table's control byte.
const ENTRY_BYTES: usize = std::mem::size_of::<((u32, u32), (u32, f64))>() + 1;

/// One lock-guarded slice of the cache.
struct Shard {
    /// Generation the entries were computed against. Lookups for any other
    /// generation miss; stores for a newer one clear the shard first.
    generation: u64,
    /// `(voting class, slot) -> (incarnation, estimate)`, flattened to a
    /// single probe on the warm path. A value answers only an id of the
    /// incarnation it records.
    entries: FxHashMap<(u32, u32), (u32, f64)>,
}

/// A persistent, thread-safe estimation service over any [`Catalog`].
///
/// ```
/// use tl_xml::{parse_document, ParseOptions};
/// use treelattice::{BuildConfig, EstimationEngine, Estimator, TreeLattice};
///
/// let doc = parse_document(
///     b"<r><a><b/><c/></a><a><b/></a></r>",
///     ParseOptions::default(),
/// ).unwrap();
/// let lattice = TreeLattice::build(&doc, &BuildConfig::with_k(2));
/// let engine = EstimationEngine::default();
/// let twigs = vec![lattice.parse_query("a[b][c]").unwrap(); 8];
/// let batch = engine.estimate_batch(
///     &lattice,
///     &twigs,
///     Estimator::RecursiveVoting,
///     &Default::default(),
/// );
/// assert_eq!(batch.len(), 8);
/// assert!(engine.stats().hits > 0); // repeated queries share sub-twigs
/// ```
pub struct EstimationEngine {
    shards: Box<[RwLock<Shard>]>,
    /// `shards.len() - 1`; shard count is a power of two.
    mask: usize,
    threads: usize,
    budget: usize,
    /// Engine-wide slot table for canonical sub-twig encodings. Read-lock
    /// fast path for warm probes; a write lock is taken only to give a
    /// fresh encoding a slot, evicting first when the budget is reached.
    /// Survives [`EstimationEngine::clear`] and generation bumps.
    interner: RwLock<TwigInterner>,
    /// Voting classes stored so far: an evicted slot's entries are removed
    /// under each, and the budget reserves one entry per class per slot.
    classes: RwLock<Vec<u32>>,
    /// Source of per-query epochs for the slot table's reference bits.
    epochs: AtomicU32,
    /// Shard entries across all shards.
    entries: AtomicUsize,
    hits: AtomicU64,
    misses: AtomicU64,
    evicted: AtomicU64,
    key_clone_bytes: AtomicU64,
    dag_nodes: AtomicU64,
    dag_refs: AtomicU64,
    catalog_lookups: AtomicU64,
    last_batch_nanos: AtomicU64,
    /// Metric sink shared with batch worker threads; [`tl_obs::Noop`]
    /// unless [`EstimationEngine::with_recorder`] installed a live one.
    rec: Arc<dyn tl_obs::Recorder>,
}

impl Default for EstimationEngine {
    fn default() -> Self {
        Self::new(EngineConfig::default())
    }
}

impl EstimationEngine {
    /// Creates an engine with an empty cache.
    pub fn new(config: EngineConfig) -> Self {
        Self::with_recorder(config, Arc::new(tl_obs::Noop))
    }

    /// Creates an engine reporting to `rec`: per-query `engine.queries` /
    /// `engine.query.latency_us` / `engine.decomposition.depth`, cache
    /// `engine.cache.{hits,misses,evicted}` and the `engine.cache.bytes`
    /// gauge, and the `engine.batch` span. The recorder is `Arc`-shared so
    /// batch worker threads report too.
    pub fn with_recorder(config: EngineConfig, rec: Arc<dyn tl_obs::Recorder>) -> Self {
        let n = config.shards.max(1).next_power_of_two();
        let shards = (0..n)
            .map(|_| {
                RwLock::new(Shard {
                    generation: 0,
                    entries: FxHashMap::default(),
                })
            })
            .collect::<Vec<_>>()
            .into_boxed_slice();
        Self {
            shards,
            mask: n - 1,
            threads: config.threads,
            budget: config.budget_bytes,
            interner: RwLock::new(TwigInterner::new()),
            classes: RwLock::new(Vec::new()),
            epochs: AtomicU32::new(0),
            entries: AtomicUsize::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evicted: AtomicU64::new(0),
            key_clone_bytes: AtomicU64::new(0),
            dag_nodes: AtomicU64::new(0),
            dag_refs: AtomicU64::new(0),
            catalog_lookups: AtomicU64::new(0),
            last_batch_nanos: AtomicU64::new(0),
            rec,
        }
    }

    /// Estimates one query through the shared cache, against any
    /// [`Catalog`] backend: the in-memory lattice or the zero-copy mmap
    /// reader. Returns exactly what [`TreeLattice::estimate_with`]
    /// (or [`crate::estimate_catalog`]) returns for the same inputs.
    /// Generations keep backends apart: every opened catalog carries a
    /// fresh one, so cached values never leak between stores.
    pub fn estimate<C: Catalog + ?Sized>(
        &self,
        catalog: &C,
        twig: &Twig,
        estimator: Estimator,
        opts: &EstimateOptions,
    ) -> f64 {
        self.with_cache(catalog, estimator, opts, |cache| {
            self.estimate_in(catalog, twig, estimator, opts, cache)
        })
    }

    /// Runs `f` with one cache adapter for `catalog`'s generation and the
    /// estimator's voting class, flushes the adapter's counters, and
    /// charges the catalog probes `f` made.
    fn with_cache<C: Catalog + ?Sized, R>(
        &self,
        catalog: &C,
        estimator: Estimator,
        opts: &EstimateOptions,
        f: impl FnOnce(&mut SharedIdCache<'_>) -> R,
    ) -> R {
        let before = catalog.served_lookups();
        let mut cache =
            SharedIdCache::new(self, catalog.generation(), voting_class(estimator, opts));
        let result = f(&mut cache);
        drop(cache);
        self.catalog_lookups.fetch_add(
            catalog.served_lookups().saturating_sub(before),
            Ordering::Relaxed,
        );
        result
    }

    /// One query against an existing cache adapter (whose `(generation,
    /// voting class)` must match the arguments). Batch workers reuse one
    /// adapter across all their queries so counters flush once per worker,
    /// not once per query.
    fn estimate_in<C: Catalog + ?Sized>(
        &self,
        catalog: &C,
        twig: &Twig,
        estimator: Estimator,
        opts: &EstimateOptions,
        cache: &mut SharedIdCache<'_>,
    ) -> f64 {
        if has_unknown_label(catalog, twig) {
            return 0.0;
        }
        cache.begin_query();
        let start = cache.recording.then(Instant::now);
        let (value, depth, stats) = estimate_dag(catalog, twig, estimator, opts, cache);
        self.note_query(start);
        cache.note_dag(depth, stats);
        value
    }

    /// Counts one query and observes its latency, when recording.
    fn note_query(&self, start: Option<Instant>) {
        if let Some(start) = start {
            self.rec.add(tl_obs::names::ENGINE_QUERIES, 1);
            self.rec.observe(
                tl_obs::names::QUERY_LATENCY_US,
                start.elapsed().as_micros() as u64,
            );
        }
    }

    /// Estimates every twig in `batch`, in order, splitting the work over
    /// the configured worker threads, against any [`Catalog`] backend.
    /// Workers pull indices from a shared atomic cursor, so an expensive
    /// query does not stall the others. `Sync` because workers probe the
    /// store concurrently — every backend qualifies (the mmap catalog's
    /// lookup counter is atomic).
    ///
    /// Results are bit-for-bit equal to calling [`estimate`](Self::estimate)
    /// per twig, regardless of thread count.
    pub fn estimate_batch<C: Catalog + Sync + ?Sized>(
        &self,
        catalog: &C,
        batch: &[Twig],
        estimator: Estimator,
        opts: &EstimateOptions,
    ) -> Vec<f64> {
        self.run_batch(catalog, batch.len(), estimator, opts, |cache, i| {
            self.estimate_in(catalog, &batch[i], estimator, opts, cache)
        })
    }

    /// Estimates one query through the shared cache under the budget in
    /// `opts`, against any [`Catalog`] backend, degrading instead of
    /// erroring (see [`crate::resilient`]), and containing any panic in the
    /// estimation path as [`tl_fault::FaultKind::WorkerPanic`].
    ///
    /// Only the undegraded rung reads and writes the shared cache —
    /// degraded values stay in a query-local memo, so a budget-constrained
    /// caller can never pollute estimates served to unconstrained ones.
    pub fn estimate_resilient<C: Catalog + ?Sized>(
        &self,
        catalog: &C,
        twig: &Twig,
        estimator: Estimator,
        opts: &EstimateOptions,
    ) -> Result<ResilientEstimate, Fault> {
        self.with_cache(catalog, estimator, opts, |cache| {
            self.estimate_resilient_in(catalog, twig, estimator, opts, cache)
        })
    }

    /// One resilient query against an existing cache adapter, under
    /// `catch_unwind`.
    fn estimate_resilient_in<C: Catalog + ?Sized>(
        &self,
        catalog: &C,
        twig: &Twig,
        estimator: Estimator,
        opts: &EstimateOptions,
        cache: &mut SharedIdCache<'_>,
    ) -> Result<ResilientEstimate, Fault> {
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            if failpoints::fire(failpoints::sites::ENGINE_WORKER) {
                panic!(
                    "injected by fail-point `{}`",
                    failpoints::sites::ENGINE_WORKER
                );
            }
            if has_unknown_label(catalog, twig) {
                return ResilientEstimate::exact(0.0);
            }
            // Rung 1 runs on the DAG through the shared shards, so its
            // values are shared with the plain paths; the degraded rungs
            // use query-local caches inside the ladder.
            cache.begin_query();
            let start = cache.recording.then(Instant::now);
            let (est, rung1) = estimate_resilient_with(catalog, twig, estimator, opts, cache);
            self.note_query(start);
            if let Some((depth, stats)) = rung1 {
                cache.note_dag(depth, stats);
            }
            est
        }));
        match outcome {
            Ok(est) => {
                if self.rec.enabled() && est.degradation.is_degraded() {
                    self.rec.add(tl_obs::names::ENGINE_DEGRADED, 1);
                }
                Ok(est)
            }
            Err(payload) => {
                self.rec.add(tl_obs::names::FAULT_WORKER_PANICS, 1);
                self.rec.add(tl_obs::names::FAULT_TOTAL, 1);
                let msg = payload
                    .downcast_ref::<&str>()
                    .map(|s| (*s).to_owned())
                    .or_else(|| payload.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "worker panicked".to_owned());
                Err(Fault::worker_panic(msg))
            }
        }
    }

    /// [`estimate_batch`](EstimationEngine::estimate_batch) with per-query
    /// fault isolation: each item runs under `catch_unwind`, so one
    /// poisoned query comes back as `Err(FaultKind::WorkerPanic)` while
    /// every other entry completes normally. The shard locks are
    /// `parking_lot` (no poisoning) and the shared cache only ever holds
    /// fully-computed undegraded values, so a contained panic cannot leave
    /// the cache inconsistent. Each worker carries one cache adapter
    /// through all its items, as the plain batch does.
    pub fn estimate_batch_resilient<C: Catalog + Sync + ?Sized>(
        &self,
        catalog: &C,
        batch: &[Twig],
        estimator: Estimator,
        opts: &EstimateOptions,
    ) -> Vec<Result<ResilientEstimate, Fault>> {
        self.run_batch(catalog, batch.len(), estimator, opts, |cache, i| {
            self.estimate_resilient_in(catalog, &batch[i], estimator, opts, cache)
        })
    }

    /// Runs `item` on every index of a batch of `len` and returns the
    /// results in index order, over the configured worker threads. Workers
    /// pull indices from a shared atomic cursor, so an expensive query does
    /// not stall the others, and each carries one cache adapter through all
    /// its items. Records the `engine.batch` span and the batch time, and
    /// charges the catalog probes.
    fn run_batch<C: Catalog + Sync + ?Sized, T: Send>(
        &self,
        catalog: &C,
        len: usize,
        estimator: Estimator,
        opts: &EstimateOptions,
        item: impl Fn(&mut SharedIdCache<'_>, usize) -> T + Sync,
    ) -> Vec<T> {
        let _span = tl_obs::SpanGuard::start(&*self.rec, tl_obs::names::SPAN_BATCH);
        let start = Instant::now();
        let probes_before = catalog.served_lookups();
        let generation = catalog.generation();
        let class = voting_class(estimator, opts);
        let init = || SharedIdCache::new(self, generation, class);
        let threads = self.effective_threads(len);
        let results = if threads <= 1 {
            let mut cache = init();
            (0..len).map(|i| item(&mut cache, i)).collect()
        } else {
            let cursor = AtomicUsize::new(0);
            let mut slots: Vec<Option<T>> = (0..len).map(|_| None).collect();
            std::thread::scope(|scope| {
                let workers: Vec<_> = (0..threads)
                    .map(|_| {
                        scope.spawn(|| {
                            let mut cache = init();
                            let mut done = Vec::new();
                            loop {
                                let i = cursor.fetch_add(1, Ordering::Relaxed);
                                if i >= len {
                                    break done;
                                }
                                done.push((i, item(&mut cache, i)));
                            }
                        })
                    })
                    .collect();
                for worker in workers {
                    // The resilient path contains estimation panics itself;
                    // a panic here propagates, as a plain estimate's would.
                    for (i, result) in worker.join().expect("batch worker exited cleanly") {
                        slots[i] = Some(result);
                    }
                }
            });
            slots
                .into_iter()
                .map(|slot| slot.expect("cursor visits every index"))
                .collect()
        };
        self.catalog_lookups.fetch_add(
            catalog.served_lookups().saturating_sub(probes_before),
            Ordering::Relaxed,
        );
        self.last_batch_nanos
            .store(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
        results
    }

    /// Drops every cached entry (counters and interned keys are kept).
    pub fn clear(&self) {
        for shard in &self.shards {
            let mut guard = shard.write();
            self.entries
                .fetch_sub(guard.entries.len(), Ordering::Relaxed);
            guard.entries.clear();
            guard.generation = 0;
        }
    }

    /// Current cache statistics.
    pub fn stats(&self) -> EngineStats {
        let interner = self.interner.read();
        let entries = self.entries.load(Ordering::Relaxed);
        EngineStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            entries,
            bytes: interner.heap_bytes() + entries * ENTRY_BYTES,
            last_batch: Duration::from_nanos(self.last_batch_nanos.load(Ordering::Relaxed)),
            interner_keys: interner.len(),
            evicted: self.evicted.load(Ordering::Relaxed),
            dag_nodes: self.dag_nodes.load(Ordering::Relaxed),
            dag_refs: self.dag_refs.load(Ordering::Relaxed),
            key_clone_bytes: self.key_clone_bytes.load(Ordering::Relaxed),
            catalog_lookups: self.catalog_lookups.load(Ordering::Relaxed),
        }
    }

    fn effective_threads(&self, batch_len: usize) -> usize {
        let configured = if self.threads == 0 {
            std::thread::available_parallelism().map_or(1, |n| n.get())
        } else {
            self.threads
        };
        configured.min(batch_len.max(1))
    }

    /// Slots need no hashing to pick a shard: their low bits are already
    /// spread by first-sighting order.
    fn shard_for(&self, id: TwigId) -> &RwLock<Shard> {
        &self.shards[(id.slot() as usize) & self.mask]
    }

    /// Evicts from `table` until it fits the budget with one entry per
    /// registered class reserved for every slot, and room for a fresh key
    /// of `fresh` bytes if one is about to be interned. An evicted slot's
    /// entries are removed under every registered class. Returns the
    /// number of slots evicted.
    fn make_room(&self, table: &mut TwigInterner, fresh: Option<usize>) -> u64 {
        let classes = self.classes.read();
        let per_slot = classes.len().max(1) * ENTRY_BYTES;
        let mut evicted = 0;
        loop {
            let need = fresh.map_or(0, |len| table.cost_of(len) + per_slot);
            if table.heap_bytes() + table.len() * per_slot + need <= self.budget {
                break;
            }
            let Some(victim) = table.evict() else { break };
            evicted += 1;
            let mut shard = self.shard_for(victim).write();
            for &class in classes.iter() {
                if shard.entries.remove(&(class, victim.slot())).is_some() {
                    self.entries.fetch_sub(1, Ordering::Relaxed);
                }
            }
        }
        evicted
    }

    /// Registers a voting class before its first store, evicting until the
    /// budget's per-class reservation fits again. Returns the slots evicted.
    fn register_class(&self, class: u32) -> u64 {
        if self.classes.read().contains(&class) {
            return 0;
        }
        let mut table = self.interner.write();
        {
            let mut classes = self.classes.write();
            if classes.contains(&class) {
                return 0;
            }
            classes.push(class);
        }
        self.make_room(&mut table, None)
    }
}

/// The effective voting width a cached estimate was computed under.
pub(crate) fn voting_class(estimator: Estimator, opts: &EstimateOptions) -> u32 {
    match estimator {
        // The inner recursion of both fix-sized estimators runs non-voting,
        // identical to plain recursive decomposition (width 1).
        Estimator::Recursive | Estimator::FixSized | Estimator::FixSizedVoting => 1,
        Estimator::RecursiveVoting => opts.voting_cap.clamp(1, u32::MAX as usize) as u32,
    }
}

/// Routes the DAG evaluator's id-keyed cache traffic to the engine's
/// shards, batching counter updates until drop. Valid for one
/// `(generation, voting class)` pair, so a batch worker holds a single
/// adapter across all its queries and pays the atomic flush once.
struct SharedIdCache<'e> {
    engine: &'e EstimationEngine,
    generation: u64,
    class: u32,
    /// The current query's epoch (see [`TwigInterner::probe`]).
    epoch: u32,
    /// Whether this adapter's class is registered with the engine.
    registered: bool,
    hits: u64,
    misses: u64,
    evicted: u64,
    key_clone_bytes: u64,
    fresh_keys: u64,
    dag_nodes: u64,
    dag_refs: u64,
    /// `rec.enabled()` sampled once at construction, so the per-query path
    /// skips the dynamic dispatch entirely while a worker holds the adapter.
    recording: bool,
}

impl<'e> SharedIdCache<'e> {
    fn new(engine: &'e EstimationEngine, generation: u64, class: u32) -> Self {
        Self {
            engine,
            generation,
            class,
            epoch: 0,
            registered: false,
            hits: 0,
            misses: 0,
            evicted: 0,
            key_clone_bytes: 0,
            fresh_keys: 0,
            dag_nodes: 0,
            dag_refs: 0,
            recording: engine.rec.enabled(),
        }
    }

    /// Starts a query: probes from now on carry a fresh epoch.
    fn begin_query(&mut self) {
        self.epoch = self.engine.epochs.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds one DAG build's statistics to the batched counters and, when
    /// recording, observes its decomposition depth.
    fn note_dag(&mut self, depth: usize, stats: DagStats) {
        self.dag_nodes += stats.nodes;
        self.dag_refs += stats.refs;
        if self.recording {
            self.engine
                .rec
                .observe(tl_obs::names::DECOMP_DEPTH, depth as u64);
        }
    }
}

impl IdCache for SharedIdCache<'_> {
    fn intern(&mut self, bytes: &[u8]) -> TwigId {
        // Warm probe: a shared read lock and no allocation. Only a
        // first-sighting encoding escalates to the write lock and pays the
        // one-time clone.
        if let Some(id) = self.engine.interner.read().probe(bytes, self.epoch) {
            return id;
        }
        let mut table = self.engine.interner.write();
        // A thread that lost the race to intern the same encoding finds it
        // here and clones nothing.
        if let Some(id) = table.probe(bytes, self.epoch) {
            return id;
        }
        self.evicted += self.engine.make_room(&mut table, Some(bytes.len()));
        let id = table.insert(bytes, self.epoch);
        self.key_clone_bytes += bytes.len() as u64;
        self.fresh_keys += 1;
        id
    }

    fn lookup(&mut self, id: TwigId) -> Option<f64> {
        let guard = self.engine.shard_for(id).read();
        let value = if guard.generation == self.generation {
            guard
                .entries
                .get(&(self.class, id.slot()))
                .filter(|&&(incarnation, _)| incarnation == id.incarnation())
                .map(|&(_, value)| value)
        } else {
            None
        };
        match value {
            Some(_) => self.hits += 1,
            None => self.misses += 1,
        }
        value
    }

    fn store(&mut self, id: TwigId, value: f64) {
        if !self.registered {
            self.evicted += self.engine.register_class(self.class);
            self.registered = true;
        }
        let mut guard = self.engine.shard_for(id).write();
        if guard.generation != self.generation {
            // Entries belong to a superseded summary; evict lazily.
            self.engine
                .entries
                .fetch_sub(guard.entries.len(), Ordering::Relaxed);
            guard.entries.clear();
            guard.generation = self.generation;
        }
        // A slot evicted since `id` was interned may hold another key now;
        // the value is stored under `id`'s incarnation, so it can only cost
        // that key a hit.
        let previous = guard
            .entries
            .insert((self.class, id.slot()), (id.incarnation(), value));
        if previous.is_none() {
            self.engine.entries.fetch_add(1, Ordering::Relaxed);
        }
    }
}

impl Drop for SharedIdCache<'_> {
    fn drop(&mut self) {
        // Zero deltas skip the shared-line RMW: a warm single-probe query
        // flushes exactly one counter.
        let engine = self.engine;
        for (counter, delta) in [
            (&engine.hits, self.hits),
            (&engine.misses, self.misses),
            (&engine.evicted, self.evicted),
            (&engine.key_clone_bytes, self.key_clone_bytes),
            (&engine.dag_nodes, self.dag_nodes),
            (&engine.dag_refs, self.dag_refs),
        ] {
            if delta > 0 {
                counter.fetch_add(delta, Ordering::Relaxed);
            }
        }
        if self.recording {
            use tl_obs::names;
            for (name, delta) in [
                (names::ENGINE_CACHE_HITS, self.hits),
                (names::ENGINE_CACHE_MISSES, self.misses),
                (names::ENGINE_CACHE_EVICTED, self.evicted),
                (names::ENGINE_INTERNER_KEYS, self.fresh_keys),
                (names::ENGINE_KEY_CLONE_BYTES, self.key_clone_bytes),
                (names::ENGINE_DAG_NODES, self.dag_nodes),
                (names::ENGINE_DAG_REFS, self.dag_refs),
            ] {
                engine.rec.add(name, delta);
            }
            // The state only changes on a miss, so a warm query skips the
            // gauge and its lock.
            if self.misses > 0 {
                let bytes = engine.interner.read().heap_bytes()
                    + engine.entries.load(Ordering::Relaxed) * ENTRY_BYTES;
                engine.rec.gauge(names::ENGINE_CACHE_BYTES, bytes as f64);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use tl_xml::{parse_document, Document, ParseOptions};

    use super::*;
    use crate::{BuildConfig, TreeLattice};

    fn doc(s: &str) -> Document {
        parse_document(s.as_bytes(), ParseOptions::default()).unwrap()
    }

    fn sample_lattice() -> TreeLattice {
        let mut s = String::from("<r>");
        for _ in 0..6 {
            s.push_str("<a><b><c/><d/></b><e/></a>");
        }
        s.push_str("</r>");
        TreeLattice::build(&doc(&s), &BuildConfig::with_k(3))
    }

    #[test]
    fn engine_matches_per_query_estimates() {
        let _fp = tl_fault::failpoints::shared();
        let lat = sample_lattice();
        let engine = EstimationEngine::default();
        let queries = ["a[b[c][d]][e]", "a/b/c", "a[b][e]", "r/a/b/c"];
        for est in Estimator::ALL {
            for q in queries {
                let twig = lat.parse_query(q).unwrap();
                let direct = lat.estimate(&twig, est);
                let cached = engine.estimate(&lat, &twig, est, &EstimateOptions::default());
                assert_eq!(direct.to_bits(), cached.to_bits(), "{est} {q}");
                // Second pass answers from cache with the same bits.
                let warm = engine.estimate(&lat, &twig, est, &EstimateOptions::default());
                assert_eq!(direct.to_bits(), warm.to_bits(), "{est} {q} warm");
            }
        }
        let stats = engine.stats();
        assert!(stats.hits > 0, "repeat queries must hit");
        assert!(stats.entries > 0);
        assert!(stats.bytes > 0);
    }

    /// The engine's batch path must produce bit-identical results whether
    /// it reads from the in-memory lattice or the zero-copy mmap catalog,
    /// and the two generations must not share cache entries.
    #[test]
    fn engine_batch_agrees_across_catalog_backends() {
        let _fp = tl_fault::failpoints::shared();
        let lat = sample_lattice();
        let dir = std::env::temp_dir().join(format!(
            "tl-engine-test-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("engine.tlat");
        std::fs::write(&path, lat.to_bytes()).unwrap();
        let mmap = crate::catalog::MmapCatalog::open(&path).unwrap();
        let queries = ["a[b[c][d]][e]", "a/b/c", "a[b][e]", "r/a/b/c"];
        let batch: Vec<Twig> = queries
            .iter()
            .map(|q| lat.parse_query(q).unwrap())
            .collect();
        let engine = EstimationEngine::default();
        for est in Estimator::ALL {
            let opts = EstimateOptions::default();
            let mem = engine.estimate_batch(&lat, &batch, est, &opts);
            let via_mmap = engine.estimate_batch(&mmap, &batch, est, &opts);
            for (q, (a, b)) in queries.iter().zip(mem.iter().zip(&via_mmap)) {
                assert_eq!(a.to_bits(), b.to_bits(), "{est} {q}");
            }
        }
        assert!(mmap.lookups() > 0, "mmap backend actually served probes");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn unknown_labels_estimate_zero_without_caching() {
        let _fp = tl_fault::failpoints::shared();
        let lat = sample_lattice();
        let engine = EstimationEngine::default();
        let twig = lat.parse_query("nosuchlabel/other").unwrap();
        assert_eq!(
            engine.estimate(
                &lat,
                &twig,
                Estimator::Recursive,
                &EstimateOptions::default()
            ),
            0.0
        );
        assert_eq!(engine.stats().entries, 0);
    }

    #[test]
    fn voting_classes_do_not_collide() {
        let _fp = tl_fault::failpoints::shared();
        let lat = sample_lattice();
        let engine = EstimationEngine::default();
        let twig = lat.parse_query("a[b[c][d]][e]").unwrap();
        let opts = EstimateOptions::default();
        // Warm the non-voting class first, then voting must not reuse it.
        let plain = engine.estimate(&lat, &twig, Estimator::Recursive, &opts);
        let voted = engine.estimate(&lat, &twig, Estimator::RecursiveVoting, &opts);
        assert_eq!(
            plain.to_bits(),
            lat.estimate(&twig, Estimator::Recursive).to_bits()
        );
        assert_eq!(
            voted.to_bits(),
            lat.estimate(&twig, Estimator::RecursiveVoting).to_bits()
        );
    }

    #[test]
    fn generation_bump_invalidates() {
        let _fp = tl_fault::failpoints::shared();
        let mut lat = sample_lattice();
        let engine = EstimationEngine::default();
        let twig = lat.parse_query("a[b[c][d]][e]").unwrap();
        let opts = EstimateOptions::default();
        let before = engine.estimate(&lat, &twig, Estimator::Recursive, &opts);
        assert!(before > 0.0);
        let g0 = lat.generation();
        lat.prune(0.0);
        assert_ne!(lat.generation(), g0);
        let after = engine.estimate(&lat, &twig, Estimator::Recursive, &opts);
        assert_eq!(
            after.to_bits(),
            lat.estimate(&twig, Estimator::Recursive).to_bits(),
            "post-mutation estimates come from the new summary"
        );
    }

    #[test]
    fn clear_empties_the_cache() {
        let _fp = tl_fault::failpoints::shared();
        let lat = sample_lattice();
        let engine = EstimationEngine::default();
        let twig = lat.parse_query("a[b[c][d]][e]").unwrap();
        engine.estimate(
            &lat,
            &twig,
            Estimator::Recursive,
            &EstimateOptions::default(),
        );
        assert!(engine.stats().entries > 0);
        engine.clear();
        assert_eq!(engine.stats().entries, 0);
    }

    #[test]
    fn recorder_sees_queries_cache_traffic_and_batch_span() {
        let _fp = tl_fault::failpoints::shared();
        let lat = sample_lattice();
        let rec = Arc::new(tl_obs::MetricsRecorder::new());
        let engine = EstimationEngine::with_recorder(
            EngineConfig {
                shards: 4,
                threads: 2,
                ..EngineConfig::default()
            },
            rec.clone(),
        );
        let plain = EstimationEngine::default();
        let twigs: Vec<_> = ["a[b[c][d]][e]", "a/b/c", "a[b[c][d]][e]"]
            .iter()
            .map(|q| lat.parse_query(q).unwrap())
            .collect();
        let opts = EstimateOptions::default();
        let observed = engine.estimate_batch(&lat, &twigs, Estimator::RecursiveVoting, &opts);
        let expected = plain.estimate_batch(&lat, &twigs, Estimator::RecursiveVoting, &opts);
        for (a, b) in observed.iter().zip(&expected) {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "recording must not change results"
            );
        }
        let snap = rec.snapshot();
        assert_eq!(snap.counters[tl_obs::names::ENGINE_QUERIES], 3);
        assert_eq!(snap.histograms[tl_obs::names::QUERY_LATENCY_US].count, 3);
        assert_eq!(snap.histograms[tl_obs::names::DECOMP_DEPTH].count, 3);
        assert_eq!(snap.spans[tl_obs::names::SPAN_BATCH].count, 1);
        let stats = engine.stats();
        assert_eq!(snap.counters[tl_obs::names::ENGINE_CACHE_HITS], stats.hits);
        assert_eq!(
            snap.counters[tl_obs::names::ENGINE_CACHE_MISSES],
            stats.misses
        );
        assert!(stats.hits > 0, "the repeated query must hit the cache");
    }

    #[test]
    fn warm_probes_clone_zero_key_bytes() {
        let _fp = tl_fault::failpoints::shared();
        let lat = sample_lattice();
        let engine = EstimationEngine::default();
        let twig = lat.parse_query("a[b[c][d]][e]").unwrap();
        let opts = EstimateOptions::default();
        engine.estimate(&lat, &twig, Estimator::Recursive, &opts);
        let cold = engine.stats();
        assert!(cold.key_clone_bytes > 0, "first sighting pays the clone");
        assert!(cold.interner_keys > 0);
        for _ in 0..4 {
            engine.estimate(&lat, &twig, Estimator::Recursive, &opts);
        }
        let warm = engine.stats();
        assert_eq!(
            warm.key_clone_bytes, cold.key_clone_bytes,
            "warm probes must clone zero key bytes"
        );
        assert_eq!(warm.interner_keys, cold.interner_keys);
        assert!(
            warm.hits > cold.hits,
            "repeat queries answer from the shards"
        );
    }

    #[test]
    fn dedup_ratio_exceeds_one_on_standard_workload() {
        let _fp = tl_fault::failpoints::shared();
        let lat = sample_lattice();
        let engine = EstimationEngine::default();
        let opts = EstimateOptions::default();
        for q in ["a[b[c][d]][e]", "a/b/c", "a[b][e]", "r/a/b/c"] {
            let twig = lat.parse_query(q).unwrap();
            engine.estimate(&lat, &twig, Estimator::Recursive, &opts);
        }
        let stats = engine.stats();
        assert!(stats.dag_nodes > 0);
        assert!(
            stats.dedup_ratio() > 1.0,
            "shared sub-twigs must collapse references: {}",
            stats.dedup_ratio()
        );
    }

    #[test]
    fn interner_survives_clear_and_generation_bumps() {
        let _fp = tl_fault::failpoints::shared();
        let mut lat = sample_lattice();
        let engine = EstimationEngine::default();
        let twig = lat.parse_query("a[b[c][d]][e]").unwrap();
        let opts = EstimateOptions::default();
        engine.estimate(&lat, &twig, Estimator::Recursive, &opts);
        let keys = engine.stats().interner_keys;
        engine.clear();
        lat.prune(0.0);
        // Pruning may force deeper expansion (new sub-twigs, new ids) …
        engine.estimate(&lat, &twig, Estimator::Recursive, &opts);
        let first = engine.stats();
        assert!(
            first.interner_keys >= keys,
            "nothing is evicted within budget"
        );
        // … but keys outlive values: repeating the workload against the
        // cleared cache and new generation re-clones nothing.
        engine.clear();
        engine.estimate(&lat, &twig, Estimator::Recursive, &opts);
        let second = engine.stats();
        assert_eq!(second.interner_keys, first.interner_keys);
        assert_eq!(second.key_clone_bytes, first.key_clone_bytes);
    }

    /// The resilient path runs the same DAG as the plain one, so a cold
    /// decomposing twig must report the same DAG work through both.
    #[test]
    fn resilient_path_reports_its_dag_work_like_the_plain_path() {
        let _fp = tl_fault::failpoints::shared();
        let lat = sample_lattice();
        let twig = lat.parse_query("a[b[c][d]][e]").unwrap();
        let opts = EstimateOptions::default();
        let recorded = || {
            let rec = Arc::new(tl_obs::MetricsRecorder::new());
            let engine = EstimationEngine::with_recorder(EngineConfig::default(), rec.clone());
            (engine, rec)
        };
        let (plain, plain_rec) = recorded();
        let (resilient, resilient_rec) = recorded();
        for est in [Estimator::Recursive, Estimator::RecursiveVoting] {
            let want = plain.estimate(&lat, &twig, est, &opts);
            let got = resilient
                .estimate_resilient(&lat, &twig, est, &opts)
                .unwrap();
            assert_eq!(got.degradation, tl_fault::Degradation::None);
            assert_eq!(got.value.to_bits(), want.to_bits(), "{est}");
        }
        let (p, r) = (plain.stats(), resilient.stats());
        assert!(p.dag_nodes > 0, "the twig decomposes");
        assert_eq!(r.dag_nodes, p.dag_nodes);
        assert_eq!(r.dag_refs, p.dag_refs);
        let depth_samples = |rec: &tl_obs::MetricsRecorder| {
            rec.snapshot().histograms[tl_obs::names::DECOMP_DEPTH].count
        };
        assert_eq!(depth_samples(&resilient_rec), depth_samples(&plain_rec));
        assert_eq!(depth_samples(&plain_rec), 2);
    }

    #[test]
    fn shard_count_rounds_to_power_of_two() {
        let engine = EstimationEngine::new(EngineConfig {
            shards: 3,
            threads: 1,
            ..EngineConfig::default()
        });
        assert_eq!(engine.shards.len(), 4);
        assert_eq!(engine.mask, 3);
    }
}
