//! On-line, workload-aware summary maintenance.
//!
//! The paper's future-work list (§6) proposes adapting TreeLattice "in a
//! manner similar to XPathLearner, where information learned from on-line
//! workload can guide what is to be maintained in the summary". This
//! module implements that loop: a [`TunedLattice`] wraps a mined lattice
//! and a byte budget; every time the query executor learns a query's *true*
//! selectivity it calls [`TunedLattice::observe`], which stores the exact
//! count under the query's canonical key — even for patterns larger than
//! the mined order `k` — and evicts cold online patterns when the budget
//! overflows.
//!
//! The mined lattice is the durable statistic and is never written: the
//! observed counts live in an *overlay* beside it, one row per online
//! pattern, and the tuner serves lookups from base ⊕ overlay as a
//! [`PatternStore`] and [`Catalog`] of its own. Four rules hold:
//!
//! 1. **The overlay is checked before the base.** An online row answers its
//!    pattern exactly, at any size, whether the base mined it or not.
//! 2. **An eviction drops only its row.** A corrected mined count comes
//!    back, no level is marked pruned, and the complete levels keep
//!    answering exact zeros (§5.1): [`TunedLattice::lattice`] stays
//!    byte-identical to what was mined or recovered.
//! 3. **Fix-sized windows follow the mined order.** The tuner's
//!    [`PatternStore::max_size`] is the base's `k` however large the online
//!    patterns are, so Lemma 3's cover uses windows of `k` nodes.
//! 4. **Fix-sized looks up the whole query first.** An online twig larger
//!    than `k` answers its observed count under every estimator, as the
//!    recursive estimators' root probe already does.
//!
//! Effects:
//! * repeated queries (the common case for optimizer workloads) answer
//!   exactly from then on;
//! * larger stored patterns improve the decomposition of their
//!   super-queries (the recursive estimator bottoms out earlier);
//! * observed zero counts (negative queries) become *stored* zeros, so the
//!   rare false-positive negatives of §5.1 are corrected by feedback;
//! * an observation the base already answers exactly stores nothing: a
//!   mined count, or the zero a complete level gives a pattern it lacks.
//!
//! Eviction is cold-first: lowest heat, then least recently touched, then
//! the larger key, then key bytes. An ordered index beside the overlay
//! keeps that order, so an eviction costs `O(log n)` in the online
//! patterns. Every insert and eviction assigns a fresh generation, which
//! discards the engine's cached estimates.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use tl_twig::canonical::key_of;
use tl_twig::{Twig, TwigKey};
use tl_xml::{FxHashMap, LabelInterner};

use crate::catalog::{estimate_catalog, Catalog, PatternStore};
use crate::estimator::{EstimateOptions, Estimator};
use crate::{next_generation, Lookup, TreeLattice};

/// Statistics of the tuning loop.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TunerStats {
    /// Observations received.
    pub observed: u64,
    /// Observations that inserted or updated a pattern.
    pub inserted: u64,
    /// Online patterns evicted to stay within budget.
    pub evicted: u64,
}

/// One online pattern of the overlay.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OnlineRow {
    /// The last observed count; lookups answer it before the base's.
    pub count: u64,
    /// Observations while online (eviction priority).
    pub heat: u64,
    /// Clock value of the last observation (LRU tie-break).
    pub touched: u64,
}

/// An eviction-index entry: a row's `(heat, touched, larger key first,
/// key)` rank as of one touch, reversed so the coldest pops first.
type Victim = Reverse<(u64, u64, Reverse<usize>, TwigKey)>;

fn victim(key: TwigKey, row: &OnlineRow) -> Victim {
    Reverse((row.heat, row.touched, Reverse(key.heap_bytes()), key))
}

/// A mined lattice plus an overlay of observed counts, maintained from
/// query feedback and served as one pattern store.
#[derive(Clone, Debug)]
pub struct TunedLattice {
    lattice: TreeLattice,
    /// Byte budget for the overlay (on top of the mined summary).
    online_budget: usize,
    /// Bytes currently used by online patterns.
    online_bytes: usize,
    /// The overlay: one row per online pattern.
    online: FxHashMap<TwigKey, OnlineRow>,
    /// Eviction index over `online`. Each touch pushes the row's new rank;
    /// the entry of an earlier touch is stale and skipped when popped.
    coldest: BinaryHeap<Victim>,
    /// Monotone clock for LRU tie-breaking.
    clock: u64,
    /// Content version of base ⊕ overlay (see [`Catalog::generation`]).
    generation: u64,
    stats: TunerStats,
}

impl TunedLattice {
    /// Wraps `lattice` with an online layer of at most `online_budget`
    /// bytes.
    pub fn new(lattice: TreeLattice, online_budget: usize) -> Self {
        Self {
            // An empty overlay serves exactly the base's content.
            generation: lattice.generation(),
            lattice,
            online_budget,
            online_bytes: 0,
            online: FxHashMap::default(),
            coldest: BinaryHeap::new(),
            clock: 0,
            stats: TunerStats::default(),
        }
    }

    /// The wrapped base lattice, as mined or recovered: feedback never
    /// changes it. Estimate through the tuner itself to see the overlay.
    pub fn lattice(&self) -> &TreeLattice {
        &self.lattice
    }

    /// Durable-state view for crash-consistent snapshots: the LRU clock
    /// plus the overlay's rows, sorted by key bytes so the encoding is
    /// canonical. Together with the base frame this is everything replay
    /// determinism depends on; [`TunerStats`] is process-local diagnostics
    /// and deliberately excluded.
    pub fn online_state(&self) -> (u64, Vec<(TwigKey, OnlineRow)>) {
        let mut rows: Vec<(TwigKey, OnlineRow)> =
            self.online.iter().map(|(k, r)| (k.clone(), *r)).collect();
        rows.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        (self.clock, rows)
    }

    /// Rebuilds a tuner with the exact online-layer state captured by
    /// [`TunedLattice::online_state`]. `online_bytes` is recomputed from
    /// the keys; stats restart at zero.
    pub fn restore_online_state(
        lattice: TreeLattice,
        online_budget: usize,
        clock: u64,
        rows: Vec<(TwigKey, OnlineRow)>,
    ) -> Self {
        let mut tuned = Self::new(lattice, online_budget);
        tuned.clock = clock;
        for (key, row) in rows {
            tuned.online_bytes += key.heap_bytes();
            tuned.coldest.push(victim(key.clone(), &row));
            tuned.online.insert(key, row);
        }
        if !tuned.online.is_empty() {
            tuned.generation = next_generation();
        }
        tuned
    }

    /// Tuning statistics so far.
    pub fn stats(&self) -> TunerStats {
        self.stats
    }

    /// Bytes used by online patterns.
    pub fn online_bytes(&self) -> usize {
        self.online_bytes
    }

    /// Content version of base ⊕ overlay; changes on every insert and
    /// eviction.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// The stored count of `key`: its online row's, or else the base's.
    pub fn stored(&self, key: &TwigKey) -> Option<u64> {
        match self.online.get(key) {
            Some(row) => Some(row.count),
            None => self.lattice.summary().stored(key),
        }
    }

    /// Base ⊕ overlay as one lattice: each online count inserted into a
    /// copy of the base (a level past `k` is added as incomplete). What
    /// offline recovery writes out as a plain frame.
    pub fn compacted(&self) -> TreeLattice {
        let mut summary = self.lattice.summary().clone();
        for (key, row) in &self.online {
            summary.insert(key.clone(), row.count);
        }
        TreeLattice::from_parts(self.lattice.labels().clone(), summary)
    }

    /// Estimates a twig from base ⊕ overlay with default options.
    pub fn estimate(&self, twig: &Twig, estimator: Estimator) -> f64 {
        estimate_catalog(self, twig, estimator, &EstimateOptions::default())
    }

    /// Feeds back the true selectivity of an executed query.
    pub fn observe(&mut self, twig: &Twig, true_count: u64) {
        self.stats.observed += 1;
        self.clock += 1;
        let key = key_of(twig);
        let row = match self.online.get_mut(&key) {
            Some(row) => {
                row.count = true_count;
                row.heat += 1;
                row.touched = self.clock;
                *row
            }
            None => {
                // Already answered exactly by the base (a stored count, or
                // the zero a complete level gives a pattern it lacks)?
                // Nothing to store.
                if self.lattice.summary().lookup(&key) == Lookup::Exact(true_count) {
                    return;
                }
                let row = OnlineRow {
                    count: true_count,
                    heat: 1,
                    touched: self.clock,
                };
                self.online_bytes += key.heap_bytes();
                self.online.insert(key.clone(), row);
                row
            }
        };
        self.coldest.push(victim(key, &row));
        self.generation = next_generation();
        self.stats.inserted += 1;
        self.enforce_budget();
    }

    /// Evicts cold online patterns until the overlay fits the budget.
    fn enforce_budget(&mut self) {
        let live = |online: &FxHashMap<TwigKey, OnlineRow>, touched: u64, key: &TwigKey| {
            online.get(key).is_some_and(|row| row.touched == touched)
        };
        while self.online_bytes > self.online_budget {
            let Some(Reverse((_, touched, _, key))) = self.coldest.pop() else {
                break;
            };
            if live(&self.online, touched, &key) {
                self.online.remove(&key);
                self.online_bytes -= key.heap_bytes();
                self.stats.evicted += 1;
            }
        }
        // Stale entries are at most half the index, so each drop is paid
        // for by the touches that made them stale.
        if self.coldest.len() > 2 * self.online.len() {
            let online = &self.online;
            self.coldest
                .retain(|Reverse((_, touched, _, key))| live(online, *touched, key));
        }
    }
}

impl PatternStore for TunedLattice {
    #[inline]
    fn lookup_bytes(&self, bytes: &[u8]) -> Lookup {
        match self.online.get(bytes) {
            Some(row) => Lookup::Exact(row.count),
            None => self.lattice.summary().lookup_bytes(bytes),
        }
    }

    #[inline]
    fn max_size(&self) -> usize {
        self.lattice.k()
    }
}

impl Catalog for TunedLattice {
    #[inline]
    fn labels(&self) -> &LabelInterner {
        self.lattice.labels()
    }

    #[inline]
    fn generation(&self) -> u64 {
        self.generation
    }
}

#[cfg(test)]
mod tests {
    use tl_xml::{parse_document, ParseOptions};

    use crate::BuildConfig;

    use super::*;

    fn setup() -> (tl_xml::Document, TreeLattice) {
        // Correlated data: a[b] and a[c] co-occur only in half the records,
        // so independence-based estimates of a[b][c] are off.
        let mut s = String::from("<r>");
        for _ in 0..8 {
            s.push_str("<a><b/><c/></a>");
        }
        for _ in 0..8 {
            s.push_str("<a><b/></a><a><c/></a>");
        }
        s.push_str("</r>");
        let doc = parse_document(s.as_bytes(), ParseOptions::default()).unwrap();
        let lattice = TreeLattice::build(&doc, &BuildConfig::with_k(2));
        (doc, lattice)
    }

    #[test]
    fn observation_makes_repeat_queries_exact() {
        let _fp = tl_fault::failpoints::shared();
        let (doc, lattice) = setup();
        let mut tuned = TunedLattice::new(lattice, 4096);
        let q = tuned.lattice().parse_query("a[b][c]").unwrap();
        let truth = tl_twig::count_matches(&doc, &q);
        assert_eq!(truth, 8);
        let before = tuned.estimate(&q, Estimator::Recursive);
        assert_ne!(before, truth as f64, "correlated pattern is mis-estimated");
        tuned.observe(&q, truth);
        assert_eq!(tuned.estimate(&q, Estimator::Recursive), truth as f64);
        assert_eq!(tuned.stats().inserted, 1);
    }

    #[test]
    fn observed_patterns_improve_super_queries() {
        let _fp = tl_fault::failpoints::shared();
        let (doc, lattice) = setup();
        let mut tuned = TunedLattice::new(lattice, 4096);
        let sub = tuned.lattice().parse_query("a[b][c]").unwrap();
        let sup = tuned.lattice().parse_query("r/a[b][c]").unwrap();
        let truth_sup = tl_twig::count_matches(&doc, &sup) as f64;
        let err_before = (tuned.estimate(&sup, Estimator::Recursive) - truth_sup).abs();
        tuned.observe(&sub, tl_twig::count_matches(&doc, &sub));
        let err_after = (tuned.estimate(&sup, Estimator::Recursive) - truth_sup).abs();
        assert!(
            err_after <= err_before,
            "feedback must not hurt super-queries: {err_before} -> {err_after}"
        );
    }

    #[test]
    fn negative_feedback_stores_zero() {
        let _fp = tl_fault::failpoints::shared();
        let (_, lattice) = setup();
        let mut tuned = TunedLattice::new(lattice, 4096);
        // A size-3 pattern absent from the document, on a level beyond the
        // mined k=2 so the estimator would otherwise derive a value.
        let q = tuned.lattice().parse_query("a[b][b]").unwrap();
        tuned.observe(&q, 0);
        assert_eq!(tuned.estimate(&q, Estimator::Recursive), 0.0);
    }

    #[test]
    fn budget_evicts_cold_patterns() {
        let _fp = tl_fault::failpoints::shared();
        let (doc, lattice) = setup();
        // Budget fits roughly two size-3 patterns (26 bytes each).
        let mut tuned = TunedLattice::new(lattice, 60);
        let queries = ["a[b][c]", "r/a[b]", "r/a[c]", "r[a][a]"];
        let twigs: Vec<Twig> = queries
            .iter()
            .map(|q| tuned.lattice().parse_query(q).unwrap())
            .collect();
        // Heat the first query.
        let truth0 = tl_twig::count_matches(&doc, &twigs[0]);
        for _ in 0..5 {
            tuned.observe(&twigs[0], truth0);
        }
        for t in &twigs[1..] {
            tuned.observe(t, tl_twig::count_matches(&doc, t));
        }
        assert!(tuned.online_bytes() <= 60);
        assert!(tuned.stats().evicted > 0);
        // The hot pattern survived.
        assert_eq!(
            tuned.estimate(&twigs[0], Estimator::Recursive),
            truth0 as f64
        );
    }

    #[test]
    fn observing_an_already_exact_pattern_is_a_noop() {
        let _fp = tl_fault::failpoints::shared();
        let (doc, lattice) = setup();
        let mut tuned = TunedLattice::new(lattice, 4096);
        let q = tuned.lattice().parse_query("a/b").unwrap();
        let truth = tl_twig::count_matches(&doc, &q);
        tuned.observe(&q, truth);
        assert_eq!(tuned.stats().inserted, 0);
        assert_eq!(tuned.online_bytes(), 0);
        // A pattern of size <= k that never occurs: its complete level
        // already answers the observed zero exactly.
        let absent = tuned.lattice().parse_query("b/a").unwrap();
        assert_eq!(tl_twig::count_matches(&doc, &absent), 0);
        let before = tuned.compacted().to_bytes();
        tuned.observe(&absent, 0);
        assert_eq!(tuned.stats().inserted, 0);
        assert_eq!(tuned.online_bytes(), 0);
        assert_eq!(tuned.compacted().to_bytes(), before);
    }

    #[test]
    fn feedback_invalidates_engine_cache() {
        let _fp = tl_fault::failpoints::shared();
        let (doc, lattice) = setup();
        let engine = crate::engine::EstimationEngine::default();
        let opts = EstimateOptions::default();
        let mut tuned = TunedLattice::new(lattice, 4096);
        let q = tuned.lattice().parse_query("a[b][c]").unwrap();
        let truth = tl_twig::count_matches(&doc, &q);
        // Warm the engine cache with the pre-feedback (wrong) estimate.
        let before = engine.estimate(&tuned, &q, Estimator::Recursive, &opts);
        assert_ne!(before, truth as f64);
        tuned.observe(&q, truth);
        // The observation bumped the generation: the engine must now answer
        // from the corrected overlay, not its cache.
        let after = engine.estimate(&tuned, &q, Estimator::Recursive, &opts);
        assert_eq!(after, truth as f64);
    }

    #[test]
    fn estimate_and_learn_returns_pre_feedback_value() {
        let _fp = tl_fault::failpoints::shared();
        let (doc, lattice) = setup();
        let mut tuned = TunedLattice::new(lattice, 4096);
        let q = tuned.lattice().parse_query("a[b][c]").unwrap();
        let truth = tl_twig::count_matches(&doc, &q);
        let first = tuned.estimate(&q, Estimator::Recursive);
        tuned.observe(&q, truth);
        assert_ne!(first, truth as f64);
        let second = tuned.estimate(&q, Estimator::Recursive);
        tuned.observe(&q, truth);
        assert_eq!(second, truth as f64);
    }

    /// IMDB stand-in, 20k elements, seed 5, k = 4, and 300 twigs of 5 to
    /// 8 nodes sampled from it, then one of `k + 5`.
    fn imdb() -> (TreeLattice, Vec<Twig>, Twig) {
        let doc = tl_datagen::Dataset::Imdb.generate(tl_datagen::GenConfig {
            seed: 5,
            target_elements: 20_000,
        });
        let lattice = TreeLattice::build(&doc, &BuildConfig::with_k(4));
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(5);
        let mut sample = |size| tl_workload::sample::random_occurred_twig(&doc, &mut rng, size);
        let twigs = (0..300).filter_map(|i| sample(5 + i % 4)).collect();
        let big = sample(lattice.k() + 5).expect("a 9-node twig occurs");
        (lattice, twigs, big)
    }

    #[test]
    fn an_online_twig_past_k_answers_its_count_under_every_estimator() {
        let _fp = tl_fault::failpoints::shared();
        let (lattice, _, big) = imdb();
        let mut tuned = TunedLattice::new(lattice, 4096);
        tuned.observe(&big, 38);
        assert_eq!(tuned.max_size(), 4, "the window stays at the mined order");
        for est in Estimator::ALL {
            assert_eq!(tuned.estimate(&big, est), 38.0, "{est}");
        }
    }

    #[test]
    fn an_evicted_large_twig_leaves_fixed_sized_estimates_as_mined() {
        let _fp = tl_fault::failpoints::shared();
        let (lattice, twigs, big) = imdb();
        assert!(twigs.len() >= 250, "{} twigs sampled", twigs.len());
        let mut tuned = TunedLattice::new(lattice.clone(), 0);
        tuned.observe(&big, 38);
        assert_eq!(tuned.stats().evicted, 1, "a 0-byte layer evicts at once");
        assert_eq!(tuned.max_size(), lattice.k());
        assert_eq!(tuned.lattice().to_bytes(), lattice.to_bytes());
        for twig in &twigs {
            for est in [Estimator::FixSized, Estimator::FixSizedVoting] {
                assert_eq!(
                    tuned.estimate(twig, est).to_bits(),
                    lattice.estimate(twig, est).to_bits(),
                    "{est} on a {}-node twig",
                    twig.len()
                );
            }
        }
    }
}
