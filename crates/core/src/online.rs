//! On-line, workload-aware summary maintenance.
//!
//! The paper's future-work list (§6) proposes adapting TreeLattice "in a
//! manner similar to XPathLearner, where information learned from on-line
//! workload can guide what is to be maintained in the summary". This
//! module implements that loop: a [`TunedLattice`] wraps a summary and a
//! byte budget; every time the query executor learns a query's *true*
//! selectivity it calls [`TunedLattice::observe`], which stores the exact
//! count under the query's canonical key — even for patterns larger than
//! the mined order `k` — and evicts cold online patterns when the budget
//! overflows.
//!
//! Effects:
//! * repeated queries (the common case for optimizer workloads) answer
//!   exactly from then on;
//! * larger stored patterns improve the decomposition of their
//!   super-queries (the recursive estimator bottoms out earlier);
//! * observed zero counts (negative queries) become *stored* zeros, so the
//!   rare false-positive negatives of §5.1 are corrected by feedback.
//!
//! Eviction is cold-first, then largest-first: mined base patterns (the
//! k-lattice itself) are never evicted, matching the paper's framing of
//! the lattice as the durable statistic and the online layer as a tunable
//! cache.
//!
//! The insert and the evictions change the live summary in place, through
//! [`TreeLattice::summary_mut`], so an update never copies the table; it
//! still assigns a fresh generation, which discards the engine's cached
//! estimates.

use tl_twig::canonical::key_of;
use tl_twig::{Twig, TwigKey};
use tl_xml::FxHashMap;

use crate::estimator::{estimate, EstimateOptions, Estimator};
use crate::TreeLattice;

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

/// A lattice plus an online pattern cache maintained from query feedback.
#[derive(Clone, Debug)]
pub struct TunedLattice {
    lattice: TreeLattice,
    /// Byte budget for the *online* layer (on top of the mined summary).
    online_budget: usize,
    /// Bytes currently used by online-inserted patterns.
    online_bytes: usize,
    /// Observation heat per online pattern (eviction priority).
    heat: FxHashMap<TwigKey, u64>,
    /// Monotone clock for LRU tie-breaking.
    clock: u64,
    /// Last-touch time per online pattern.
    touched: FxHashMap<TwigKey, u64>,
    stats: TunerStats,
}

impl TunedLattice {
    /// Wraps `lattice` with an online layer of at most `online_budget`
    /// bytes.
    pub fn new(lattice: TreeLattice, online_budget: usize) -> Self {
        Self {
            lattice,
            online_budget,
            online_bytes: 0,
            heat: FxHashMap::default(),
            clock: 0,
            touched: FxHashMap::default(),
            stats: TunerStats::default(),
        }
    }

    /// The wrapped lattice (mined summary + online layer).
    pub fn lattice(&self) -> &TreeLattice {
        &self.lattice
    }

    /// Durable-state view for crash-consistent snapshots: the LRU clock
    /// plus the `(key, heat, last-touch)` rows of the online layer,
    /// sorted by key bytes so the encoding is canonical. Together with
    /// the serialized summary this is everything replay determinism
    /// depends on; [`TunerStats`] is process-local diagnostics and
    /// deliberately excluded.
    pub fn online_state(&self) -> (u64, Vec<(TwigKey, u64, u64)>) {
        let mut rows: Vec<(TwigKey, u64, u64)> = self
            .heat
            .iter()
            .map(|(k, &h)| (k.clone(), h, self.touched.get(k).copied().unwrap_or(0)))
            .collect();
        rows.sort_by(|a, b| a.0.as_bytes().cmp(b.0.as_bytes()));
        (self.clock, rows)
    }

    /// Rebuilds a tuner with the exact online-layer state captured by
    /// [`TunedLattice::online_state`]. `online_bytes` is recomputed from
    /// the keys; stats restart at zero.
    pub fn restore_online_state(
        lattice: TreeLattice,
        online_budget: usize,
        clock: u64,
        rows: Vec<(TwigKey, u64, u64)>,
    ) -> Self {
        let mut tuned = Self::new(lattice, online_budget);
        tuned.clock = clock;
        for (key, heat, touched) in rows {
            tuned.online_bytes += key.heap_bytes();
            tuned.touched.insert(key.clone(), touched);
            tuned.heat.insert(key, heat);
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

    /// Estimates a twig (identical to the plain lattice estimate, but
    /// benefits from online-inserted patterns).
    pub fn estimate(&self, twig: &Twig, estimator: Estimator) -> f64 {
        self.lattice.estimate(twig, estimator)
    }

    /// Feeds back the true selectivity of an executed query.
    pub fn observe(&mut self, twig: &Twig, true_count: u64) {
        self.stats.observed += 1;
        self.clock += 1;
        let key = key_of(twig);
        // Already exact in the mined summary? Nothing to store.
        if self.lattice.summary().stored(&key) == Some(true_count) && !self.heat.contains_key(&key)
        {
            return;
        }
        let is_new = !self.heat.contains_key(&key);
        *self.heat.entry(key.clone()).or_insert(0) += 1;
        self.touched.insert(key.clone(), self.clock);
        if is_new {
            self.online_bytes += key.heap_bytes();
        }
        self.lattice.summary_mut().insert(key, true_count);
        self.stats.inserted += 1;
        self.enforce_budget();
    }

    /// Evicts cold online patterns until the online layer fits the budget.
    fn enforce_budget(&mut self) {
        if self.online_bytes <= self.online_budget {
            return;
        }
        // Coldest first; among equals, least recently touched, then
        // largest pattern (frees the most bytes).
        let mut candidates: Vec<(u64, u64, usize, TwigKey)> = self
            .heat
            .iter()
            .map(|(k, &h)| {
                (
                    h,
                    self.touched.get(k).copied().unwrap_or(0),
                    usize::MAX - k.heap_bytes(),
                    k.clone(),
                )
            })
            .collect();
        candidates.sort();
        let summary = self.lattice.summary_mut();
        for (_, _, _, key) in candidates {
            if self.online_bytes <= self.online_budget {
                break;
            }
            summary.remove(&key);
            self.heat.remove(&key);
            self.touched.remove(&key);
            self.online_bytes = self.online_bytes.saturating_sub(key.heap_bytes());
            self.stats.evicted += 1;
        }
    }
}

/// Re-derivation error of a stored pattern if it were removed — exposed
/// for tooling that wants smarter-than-cold eviction (evict the most
/// derivable first).
pub fn derivation_error(lattice: &TreeLattice, key: &TwigKey) -> Option<f64> {
    let stored = lattice.summary().stored(key)?;
    let mut reduced = lattice.summary().clone();
    reduced.remove(key);
    let est = estimate(
        &reduced,
        &key.decode(),
        Estimator::Recursive,
        &EstimateOptions::default(),
    );
    Some((est - stored as f64).abs() / (stored as f64).max(1.0))
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
        let before = engine.estimate(tuned.lattice(), &q, Estimator::Recursive, &opts);
        assert_ne!(before, truth as f64);
        tuned.observe(&q, truth);
        // The observation bumped the generation: the engine must now answer
        // from the corrected summary, not its cache.
        let after = engine.estimate(tuned.lattice(), &q, Estimator::Recursive, &opts);
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

    #[test]
    fn derivation_error_identifies_derivable_patterns() {
        let _fp = tl_fault::failpoints::shared();
        // Perfectly independent data: the joint pattern is fully derivable.
        let mut s = String::from("<r>");
        for _ in 0..6 {
            s.push_str("<a><b/><c/></a>");
        }
        s.push_str("</r>");
        let doc = parse_document(s.as_bytes(), ParseOptions::default()).unwrap();
        let lattice = TreeLattice::build(&doc, &BuildConfig::with_k(3));
        let q = lattice.parse_query("a[b][c]").unwrap();
        let key = key_of(&q);
        let err = derivation_error(&lattice, &key).unwrap();
        assert!(
            err < 1e-9,
            "independent joint pattern should be derivable: {err}"
        );
        let missing = key_of(&lattice.parse_query("r/a/b").unwrap());
        let mut reduced = lattice.summary().clone();
        reduced.remove(&missing);
        // derivation_error on an absent key is None.
        let other = TreeLattice::from_parts(lattice.labels().clone(), reduced);
        assert!(derivation_error(&other, &missing).is_none());
    }
}
