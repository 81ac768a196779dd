//! Byte-keyed reference engine for differential testing and benchmarking.
//!
//! [`ReferenceEngine`] is the pre-interning architecture kept alive as an
//! executable specification: the hash-sharded cross-query cache keyed by
//! canonical byte strings, feeding the recursive estimator directly. The
//! production [`crate::EstimationEngine`] must stay bit-for-bit identical to
//! it for every estimator and workload — the engine proptests and the
//! `bench_decompose` harness both diff against this implementation, and the
//! harness reports the production path's speedup over it.
//!
//! Semantics and costs mirror the superseded engine faithfully: the same
//! unknown-label guard, the same `(generation, voting class, key)` cache
//! axes, the same lazy per-shard eviction, the same lock-guarded shards
//! addressed by hashing the full canonical byte string, and the same
//! drop-time counter flush. What it deliberately lacks is the interner
//! (every probe boxes a fresh key, hashes its bytes once to pick a shard
//! and again inside the map) and the iterative DAG evaluator (every query
//! recurses from scratch, sharing only through the byte-keyed maps) — the
//! two costs `bench_decompose` exists to measure.

use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::RwLock;
use tl_twig::{Twig, TwigKey};
use tl_xml::{FxHashMap, FxHasher};

use crate::engine::voting_class;
use crate::estimator::{estimate_with_cache, SubtwigCache};
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

/// Byte-keyed sharded cross-query estimation cache; the reference
/// implementation [`crate::EstimationEngine`] is measured and diffed
/// against.
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
        let mut cache = ByteKeyedCache {
            engine: self,
            generation: lattice.generation(),
            class: voting_class(estimator, opts),
            hits: 0,
            misses: 0,
        };
        estimate_with_cache(lattice.summary(), twig, estimator, opts, &mut cache)
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

impl SubtwigCache for ByteKeyedCache<'_> {
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
