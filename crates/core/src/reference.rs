//! Byte-keyed recursive reference engine for differential testing and
//! benchmarking.
//!
//! [`ReferenceEngine`] keeps the pre-interning architecture alive as an
//! executable specification: a hash-sharded cross-query cache keyed by
//! canonical byte strings, feeding the paper's estimators written as plain
//! recursion (Figure 4, Lemma 1; Figure 5, Lemma 3). It is the only
//! recursive estimator left in the crate — every production path runs the
//! decomposition DAG (the crate's `dag` module) — and the DAG must stay
//! bit-for-bit identical to it for every estimator and workload: the engine
//! proptests, the `dag` unit tests and the `bench_decompose` harness all
//! diff against it, and the harness reports the production path's speedup
//! over it.
//!
//! Semantics and costs mirror the superseded engine faithfully: the same
//! unknown-label guard, the same `(generation, voting class, key)` cache
//! axes, the same lazy per-shard eviction, the same lock-guarded shards
//! addressed by hashing the full canonical byte string, and the same
//! drop-time counter flush. What it deliberately lacks is the interner
//! (every probe boxes a fresh key, hashes its bytes once to pick a shard
//! and again inside the map) and the iterative DAG evaluator (every query
//! recurses from scratch, sharing only through the byte-keyed maps) — the
//! two costs `bench_decompose` exists to measure. It enforces no budget.

use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::RwLock;
use tl_twig::canonical::key_of;
use tl_twig::ops::{decompose_pair, fixed_cover_with, removable_pairs, CoverStrategy};
use tl_twig::{Twig, TwigKey};
use tl_xml::{FxHashMap, FxHasher};

use crate::engine::voting_class;
use crate::summary::{Lookup, Summary};
use crate::{EstimateOptions, Estimator, TreeLattice};

/// One lock-guarded slice of the cache, exactly as the superseded engine
/// sharded it.
struct Shard {
    /// Generation the entries were computed against. Lookups for any other
    /// generation miss; stores for a newer one clear the shard first.
    generation: u64,
    /// Voting class -> canonical key -> estimate.
    classes: FxHashMap<u32, FxHashMap<TwigKey, f64>>,
}

/// Byte-keyed sharded cross-query estimation cache over the recursive
/// estimators; the reference implementation [`crate::EstimationEngine`]
/// is measured and diffed against.
pub struct ReferenceEngine {
    shards: Box<[RwLock<Shard>]>,
    /// `shards.len() - 1`; shard count is a power of two.
    mask: usize,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl Default for ReferenceEngine {
    fn default() -> Self {
        Self::new()
    }
}

impl ReferenceEngine {
    /// Creates an engine with an empty cache, sharded like the default
    /// production configuration.
    pub fn new() -> Self {
        let n = 16usize;
        let shards = (0..n)
            .map(|_| {
                RwLock::new(Shard {
                    generation: 0,
                    classes: FxHashMap::default(),
                })
            })
            .collect::<Vec<_>>()
            .into_boxed_slice();
        Self {
            shards,
            mask: n - 1,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// Estimates one query through the byte-keyed cross-query cache.
    /// Returns exactly what [`TreeLattice::estimate_with`] returns for the
    /// same inputs.
    pub fn estimate(
        &self,
        lattice: &TreeLattice,
        twig: &Twig,
        estimator: Estimator,
        opts: &EstimateOptions,
    ) -> f64 {
        // Same unknown-label guard as the production engine.
        if twig
            .nodes()
            .any(|n| twig.label(n).index() >= lattice.labels().len())
        {
            return 0.0;
        }
        self.recurse(
            lattice.summary(),
            lattice.generation(),
            twig,
            estimator,
            opts,
        )
        .0
    }

    /// Estimates every twig in `batch`, in order, sequentially.
    pub fn estimate_batch(
        &self,
        lattice: &TreeLattice,
        batch: &[Twig],
        estimator: Estimator,
        opts: &EstimateOptions,
    ) -> Vec<f64> {
        batch
            .iter()
            .map(|t| self.estimate(lattice, t, estimator, opts))
            .collect()
    }

    /// Entries currently cached across all shards and voting classes.
    pub fn entries(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.read().classes.values().map(FxHashMap::len).sum::<usize>())
            .sum()
    }

    /// Sub-twig lookups answered from the cache since construction.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    fn shard_for(&self, key: &TwigKey) -> &RwLock<Shard> {
        use std::hash::Hasher;
        let mut h = FxHasher::default();
        h.write(key.as_bytes());
        &self.shards[(h.finish() as usize) & self.mask]
    }

    /// A recursion over `summary` whose memo is this engine's cache under
    /// `(generation, class)`.
    fn ctx<'s>(
        &self,
        summary: &'s Summary,
        generation: u64,
        class: u32,
        voting: bool,
        cap: usize,
    ) -> RecursiveCtx<'s, '_> {
        RecursiveCtx {
            summary,
            cache: ByteKeyedCache {
                engine: self,
                generation,
                class,
                hits: 0,
                misses: 0,
            },
            voting,
            cap,
            scratch: Vec::new(),
            depth: 0,
            max_depth: 0,
        }
    }

    /// Runs `estimator` on `summary` through this engine's cache, returning
    /// the estimate and the deepest decomposition recursion it forced (0
    /// when every sub-twig resolved from the summary or cache).
    fn recurse(
        &self,
        summary: &Summary,
        generation: u64,
        twig: &Twig,
        estimator: Estimator,
        opts: &EstimateOptions,
    ) -> (f64, usize) {
        let voting = matches!(estimator, Estimator::RecursiveVoting);
        let cap = match estimator {
            Estimator::RecursiveVoting => opts.voting_cap.max(1),
            _ => 1,
        };
        let mut ctx = self.ctx(
            summary,
            generation,
            voting_class(estimator, opts),
            voting,
            cap,
        );
        let k = summary.max_size();
        let value = match estimator {
            Estimator::Recursive | Estimator::RecursiveVoting => ctx.estimate_key(key_of(twig)),
            // Canonicalize first so the pre-order cover (and hence the
            // result) is identical for isomorphic queries.
            Estimator::FixSized => {
                ctx.estimate_fixed(&key_of(twig).decode(), CoverStrategy::AncestorsFirst, k)
            }
            Estimator::FixSizedVoting => {
                let canonical = key_of(twig).decode();
                let strategies = [CoverStrategy::AncestorsFirst, CoverStrategy::ChildrenFirst];
                let mut sum = 0.0f64;
                for &st in &strategies {
                    sum += ctx.estimate_fixed(&canonical, st, k);
                }
                sum / strategies.len() as f64
            }
        };
        (value, ctx.max_depth)
    }
}

/// The recursion's estimate and depth for `estimator` on `summary`, with a
/// fresh memo: the baseline the DAG evaluator's unit tests diff against.
#[cfg(test)]
pub(crate) fn reference_estimate(
    summary: &Summary,
    twig: &Twig,
    estimator: Estimator,
    opts: &EstimateOptions,
) -> (f64, usize) {
    ReferenceEngine::new().recurse(summary, 0, twig, estimator, opts)
}

/// The recursion's fix-sized estimate over windows of `k` nodes, with a
/// fresh memo: the baseline for the ladder's reduced-k rung.
#[cfg(test)]
pub(crate) fn reference_fixed_at(summary: &Summary, twig: &Twig, k: usize) -> f64 {
    let engine = ReferenceEngine::new();
    let mut ctx = engine.ctx(summary, 0, 1, false, 1);
    ctx.estimate_fixed(&key_of(twig).decode(), CoverStrategy::AncestorsFirst, k)
}

/// Per-query adapter routing the recursion's cache traffic to the shards,
/// batching counter updates until drop — the superseded engine's
/// `SharedCache`, verbatim.
struct ByteKeyedCache<'e> {
    engine: &'e ReferenceEngine,
    generation: u64,
    class: u32,
    hits: u64,
    misses: u64,
}

impl ByteKeyedCache<'_> {
    fn lookup(&mut self, key: &TwigKey) -> Option<f64> {
        let guard = self.engine.shard_for(key).read();
        let value = if guard.generation == self.generation {
            guard
                .classes
                .get(&self.class)
                .and_then(|map| map.get(key))
                .copied()
        } else {
            None
        };
        match value {
            Some(_) => self.hits += 1,
            None => self.misses += 1,
        }
        value
    }

    fn store(&mut self, key: TwigKey, value: f64) {
        let mut guard = self.engine.shard_for(&key).write();
        if guard.generation != self.generation {
            // Entries belong to a superseded summary; evict lazily.
            guard.classes.clear();
            guard.generation = self.generation;
        }
        guard
            .classes
            .entry(self.class)
            .or_default()
            .insert(key, value);
    }
}

impl Drop for ByteKeyedCache<'_> {
    fn drop(&mut self) {
        self.engine.hits.fetch_add(self.hits, Ordering::Relaxed);
        self.engine.misses.fetch_add(self.misses, Ordering::Relaxed);
    }
}

/// Recursive-decomposition state: the summary plus the byte-keyed memo.
struct RecursiveCtx<'s, 'e> {
    summary: &'s Summary,
    cache: ByteKeyedCache<'e>,
    voting: bool,
    cap: usize,
    /// Recycled twig buffers for decoding keys on cache misses, one per
    /// active recursion depth.
    scratch: Vec<Twig>,
    /// Current and deepest decomposition recursion reached.
    depth: usize,
    max_depth: usize,
}

impl RecursiveCtx<'_, '_> {
    /// The recursive estimator of Figure 4 on a canonical key.
    ///
    /// Takes the key by value: every caller builds a fresh key anyway, and
    /// moving it into the cache avoids the clone a borrowing insert forces.
    fn estimate_key(&mut self, key: TwigKey) -> f64 {
        if let Some(v) = self.cache.lookup(&key) {
            return v;
        }
        let value = match self.summary.lookup(&key) {
            Lookup::Exact(c) => c as f64,
            Lookup::Derivable | Lookup::TooLarge => {
                if key.node_count() <= 2 {
                    // Levels 1–2 are never pruned; reaching here means the
                    // summary genuinely lacks the pattern.
                    0.0
                } else {
                    let mut twig = self
                        .scratch
                        .pop()
                        .unwrap_or_else(|| Twig::single(key.root_label()));
                    key.decode_into(&mut twig);
                    self.depth += 1;
                    self.max_depth = self.max_depth.max(self.depth);
                    let v = self.decompose(&twig);
                    self.depth -= 1;
                    self.scratch.push(twig);
                    v
                }
            }
        };
        self.cache.store(key, value);
        value
    }

    /// One decomposition step (Lemma 1), optionally averaged over all pairs
    /// (voting).
    fn decompose(&mut self, twig: &Twig) -> f64 {
        let pairs = removable_pairs(twig);
        debug_assert!(!pairs.is_empty(), "size >= 3 twigs always decompose");
        let take = if self.voting { self.cap } else { 1 };
        let mut sum = 0.0;
        let mut n = 0usize;
        for &(u, v) in pairs.iter().take(take) {
            let d = decompose_pair(twig, u, v);
            let e1 = self.estimate_key(key_of(&d.t1));
            if e1 <= 0.0 {
                n += 1;
                continue;
            }
            let e2 = self.estimate_key(key_of(&d.t2));
            if e2 <= 0.0 {
                n += 1;
                continue;
            }
            let e12 = self.estimate_key(key_of(&d.t12));
            if e12 > 0.0 {
                sum += e1 * e2 / e12;
            }
            n += 1;
        }
        if n == 0 {
            0.0
        } else {
            sum / n as f64
        }
    }

    /// The fix-sized estimator of Lemma 3, over windows of `k` nodes.
    fn estimate_fixed(&mut self, twig: &Twig, strategy: CoverStrategy, k: usize) -> f64 {
        if twig.len() <= k {
            return self.estimate_key(key_of(twig));
        }
        assert!(
            k >= 2,
            "fix-sized estimation requires a summary of order >= 2"
        );
        let mut numerator = 1.0f64;
        let mut denominator = 1.0f64;
        for step in fixed_cover_with(twig, k, strategy) {
            let s_sub = self.estimate_key(key_of(&step.subtree));
            if s_sub <= 0.0 {
                return 0.0;
            }
            numerator *= s_sub;
            if let Some(overlap) = &step.overlap {
                let s_ov = self.estimate_key(key_of(overlap));
                if s_ov <= 0.0 {
                    return 0.0;
                }
                denominator *= s_ov;
            }
        }
        numerator / denominator
    }
}

#[cfg(test)]
mod tests {
    use tl_xml::{parse_document, ParseOptions};

    use super::*;
    use crate::{BuildConfig, EstimationEngine};

    fn sample_lattice() -> TreeLattice {
        let mut s = String::from("<r>");
        for _ in 0..6 {
            s.push_str("<a><b><c/><d/></b><e/></a>");
        }
        s.push_str("</r>");
        let doc = parse_document(s.as_bytes(), ParseOptions::default()).unwrap();
        TreeLattice::build(&doc, &BuildConfig::with_k(3))
    }

    #[test]
    fn reference_matches_production_engine_bitwise() {
        let _fp = tl_fault::failpoints::shared();
        let lat = sample_lattice();
        let reference = ReferenceEngine::new();
        let engine = EstimationEngine::default();
        let opts = EstimateOptions::default();
        for est in Estimator::ALL {
            for q in ["a[b[c][d]][e]", "a/b/c", "a[b][e]", "r/a/b/c", "a/b/c"] {
                let twig = lat.parse_query(q).unwrap();
                let want = reference.estimate(&lat, &twig, est, &opts);
                let got = engine.estimate(&lat, &twig, est, &opts);
                assert_eq!(want.to_bits(), got.to_bits(), "{est} {q}");
            }
        }
        assert!(reference.entries() > 0);
        assert!(reference.hits() > 0, "repeated queries share sub-twigs");
    }

    #[test]
    fn reference_tracks_generation_bumps() {
        let _fp = tl_fault::failpoints::shared();
        let mut lat = sample_lattice();
        let reference = ReferenceEngine::new();
        let opts = EstimateOptions::default();
        let twig = lat.parse_query("a[b[c][d]][e]").unwrap();
        reference.estimate(&lat, &twig, Estimator::Recursive, &opts);
        lat.prune(0.0);
        let after = reference.estimate(&lat, &twig, Estimator::Recursive, &opts);
        assert_eq!(
            after.to_bits(),
            lat.estimate(&twig, Estimator::Recursive).to_bits(),
            "post-mutation estimates come from the new summary"
        );
    }

    #[test]
    fn reference_guards_unknown_labels() {
        let _fp = tl_fault::failpoints::shared();
        let lat = sample_lattice();
        let reference = ReferenceEngine::new();
        let twig = lat.parse_query("nosuchlabel/other").unwrap();
        let opts = EstimateOptions::default();
        assert_eq!(
            reference.estimate(&lat, &twig, Estimator::Recursive, &opts),
            0.0
        );
        assert_eq!(reference.entries(), 0);
    }
}
