//! # treelattice — decomposition-based twig selectivity estimation
//!
//! A reproduction of *"A Decomposition-Based Probabilistic Framework for
//! Estimating the Selectivity of XML Twig Queries"* (Wang, Jin,
//! Parthasarathy). The system summarizes an XML document by the exact
//! occurrence counts of all small twig patterns (the *lattice summary*,
//! built by [`tl_miner`]) and estimates the selectivity of larger twig
//! queries by probabilistic decomposition under a conditional-independence
//! assumption (Theorem 1).
//!
//! ## Quick start
//!
//! ```
//! use tl_xml::{parse_document, ParseOptions};
//! use treelattice::{BuildConfig, Estimator, TreeLattice};
//!
//! let doc = parse_document(
//!     b"<computer><laptops>\
//!         <laptop><brand/><price/></laptop>\
//!         <laptop><brand/><price/></laptop>\
//!       </laptops><desktops/></computer>",
//!     ParseOptions::default(),
//! ).unwrap();
//!
//! // Build a 3-lattice summary and estimate Figure 1's query.
//! let lattice = TreeLattice::build(&doc, &BuildConfig::with_k(3));
//! let est = lattice
//!     .estimate_query("//laptop[brand][price]", Estimator::RecursiveVoting)
//!     .unwrap();
//! assert_eq!(est, 2.0); // small twigs are answered exactly
//! ```
//!
//! ## Modules
//!
//! The lattice summary itself, with its complete/pruned level semantics,
//! is [`Summary`]: [`tl_miner`] builds it, and a [`TreeLattice`] owns it.
//! Only [`TreeLattice::merge`], [`TreeLattice::update_after_edit`] and
//! [`TreeLattice::prune`] change it; online feedback lives in an overlay
//! beside it (see [`online`]).
//!
//! * [`estimator`] — recursive decomposition (± voting) and fix-sized
//!   covering estimators;
//! * [`pruning`] — δ-derivable pattern pruning (Definition 2 / Figure 6);
//! * [`online`] — workload-aware on-line tuning (the paper's §6 future
//!   work): executed queries' true counts kept in an overlay over the
//!   mined summary;
//! * [`interval`] — decomposition-disagreement error bars (the §6 "error
//!   bound" direction), on any pattern store;
//! * [`mod@explain`] — human-readable decomposition traces (EXPLAIN for the
//!   estimator), on any pattern store;
//! * [`serialize`] — versioned binary persistence of summaries;
//! * [`catalog`] — swappable pattern-store backends: in-memory, and a
//!   zero-copy mmap reader serving lookups from frame bytes;
//! * [`trie`] — a prefix-tree summary store kept for the §4.2 ablation.

pub mod catalog;
pub(crate) mod dag;
pub mod engine;
pub mod estimator;
pub mod explain;
pub mod interval;
pub mod online;
pub mod pruning;
pub mod resilient;
pub mod serialize;
pub mod trie;
pub mod wal;

use tl_miner::{mine_with_index_budgeted, MineConfig};
use tl_twig::{parse_twig, parse_twig_in, Twig, TwigParseError};
use tl_xml::{DocIndex, Document, LabelInterner};

pub use catalog::{estimate_catalog, Catalog, CatalogError, MmapCatalog, PatternStore};
pub use engine::{EngineConfig, EngineStats, EstimationEngine};
pub use estimator::{estimate, estimate_fixed_at, EstimateOptions, Estimator};
pub use explain::explain;
pub use interval::{estimate_interval, IntervalEstimate};
pub use online::{OnlineRow, TunedLattice, TunerStats};
pub use pruning::{prune_derivable, PruneReport};
pub use resilient::{estimate_resilient_catalog, markov_estimate, ResilientEstimate};
pub use serialize::ReadError;
// The pattern table is tl-miner's: mining produces the one `Summary` a
// lattice owns from then on.
pub use tl_miner::{Lookup, Summary};
pub use wal::{
    recover, Applied, DurabilityPolicy, DurableLattice, DurableOptions, IdemCache, Recovered,
    RecoveryReport,
};
// Corpus mining's config/report are part of the build API surface:
// `TreeLattice::build_corpus` takes the former and summarizes the latter.
pub use tl_miner::{CorpusConfig, CorpusReport};
// The fault vocabulary is part of this crate's public API surface: budgets
// ride in `EstimateOptions`/`BuildConfig`, resilient results are tagged
// with `Degradation`, and fallible paths report `Fault`.
pub use tl_fault::{exit_code, Budget, Degradation, Fault, FaultKind, Outcome};

/// Configuration for [`TreeLattice::build`].
#[derive(Clone, Copy, Debug)]
pub struct BuildConfig {
    /// Lattice order: the largest pattern size stored (the paper's default
    /// evaluation uses 4).
    pub k: usize,
    /// Mining worker threads (`0` = available parallelism).
    pub threads: usize,
    /// Prune δ-derivable patterns right after mining when set.
    pub prune_delta: Option<f64>,
    /// Resource limits for the mining run. When the deadline or memory cap
    /// trips between levels, mining stops early and the build degrades to a
    /// lower-order (but internally consistent) summary instead of failing;
    /// see [`TreeLattice::build_with_report`].
    pub budget: Budget,
}

impl Default for BuildConfig {
    fn default() -> Self {
        Self {
            k: 4,
            threads: 0,
            prune_delta: None,
            budget: Budget::unlimited(),
        }
    }
}

impl BuildConfig {
    /// A configuration with lattice order `k` and defaults otherwise.
    pub fn with_k(k: usize) -> Self {
        Self {
            k,
            ..Self::default()
        }
    }
}

/// The TreeLattice selectivity estimator: a label table plus the lattice
/// summary mined from one document.
#[derive(Clone, Debug)]
pub struct TreeLattice {
    labels: LabelInterner,
    summary: Summary,
    /// Summary-content version, drawn from a process-wide counter. Every
    /// mutation goes through `summary_mut`, which assigns a fresh value;
    /// that is how [`engine::EstimationEngine`] invalidates its shared
    /// cache. Clones keep the generation: identical summaries may share
    /// cached estimates.
    generation: u64,
}

/// Process-wide generation source; starts at 1 so 0 can mean "never set".
static GENERATION: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(1);

fn next_generation() -> u64 {
    GENERATION.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
}

impl TreeLattice {
    /// Mines `doc` and builds the summary.
    pub fn build(doc: &Document, config: &BuildConfig) -> Self {
        Self::build_with_index(doc, &DocIndex::new(doc), config)
    }

    /// [`build`](TreeLattice::build) over a pre-built document index, so one
    /// index per document serves mining, ground truth, and baselines.
    pub fn build_with_index(doc: &Document, index: &DocIndex, config: &BuildConfig) -> Self {
        Self::build_with_index_observed(doc, index, config, &tl_obs::NOOP)
    }

    /// [`build_with_index`](TreeLattice::build_with_index), reporting the
    /// mining run's statistics to `rec` (see
    /// [`tl_miner::mine_with_index_observed`]).
    pub fn build_with_index_observed(
        doc: &Document,
        index: &DocIndex,
        config: &BuildConfig,
        rec: &dyn tl_obs::Recorder,
    ) -> Self {
        Self::build_with_report(doc, index, config, rec).0
    }

    /// [`build_with_index_observed`](TreeLattice::build_with_index_observed),
    /// additionally returning the fault that stopped mining early, if the
    /// build budget tripped. A `Some` fault means the summary's order is
    /// lower than `config.k` but every stored level is exact and usable.
    pub fn build_with_report(
        doc: &Document,
        index: &DocIndex,
        config: &BuildConfig,
        rec: &dyn tl_obs::Recorder,
    ) -> (Self, Option<Fault>) {
        let report = mine_with_index_budgeted(
            index,
            MineConfig {
                max_size: config.k,
                threads: config.threads,
            },
            config.budget,
            rec,
        );
        let mut lattice = Self::from_parts(doc.labels().clone(), report.lattice);
        if let Some(delta) = config.prune_delta {
            lattice.prune(delta);
        }
        (lattice, report.stopped_early)
    }

    /// Builds a lattice over a multi-document corpus: documents are sharded
    /// across workers, mined independently, and the per-shard lattices are
    /// merged in a tree reduction (see [`tl_miner::mine_corpus`]). The
    /// resulting counts — and the canonical serialization — are identical
    /// for every shard count. When `prune_delta` is set, δ-pruning runs once
    /// over the *merged* summary (pruning does not commute with merging, so
    /// it must come last).
    pub fn build_corpus(docs: &[Document], config: CorpusConfig, prune_delta: Option<f64>) -> Self {
        Self::build_corpus_observed(docs, config, prune_delta, &tl_obs::NOOP)
    }

    /// [`build_corpus`](TreeLattice::build_corpus), recording
    /// `miner.corpus.shards` and `miner.merge.ms` to `rec`.
    pub fn build_corpus_observed(
        docs: &[Document],
        config: CorpusConfig,
        prune_delta: Option<f64>,
        rec: &dyn tl_obs::Recorder,
    ) -> Self {
        let report = tl_miner::mine_corpus_observed(docs, config, rec);
        let mut lattice = Self::from_parts(report.labels, report.lattice);
        if let Some(delta) = prune_delta {
            lattice.prune(delta);
        }
        lattice
    }

    /// Merges `other`'s summary into this one: label universes union (ids
    /// already assigned here never move), pattern counts add, pruned flags
    /// OR. Keys of `other` expressed in a different label universe are
    /// translated and re-canonicalized on the way in, by the same
    /// [`Summary::merge_relabeled`] that folds a corpus.
    ///
    /// Merging is commutative and associative in the stored counts, but
    /// δ-pruning is *not* a monoid homomorphism: a pattern derivable in each
    /// operand may not be derivable in the sum. Merge all operands first,
    /// then [`prune`](TreeLattice::prune) once — the order the corpus gate
    /// verifies against sequential mining.
    pub fn merge(&mut self, other: &TreeLattice) {
        let map = self.labels.extend_from(other.labels());
        self.summary_mut().merge_relabeled(other.summary(), &map);
    }

    /// Assembles a lattice from pre-built parts (deserialization, tests).
    pub fn from_parts(labels: LabelInterner, summary: Summary) -> Self {
        Self {
            labels,
            summary,
            generation: next_generation(),
        }
    }

    /// The summary-content version. Changes on every mutation; equal values
    /// imply the summaries are interchangeable for caching purposes (a
    /// lattice and its unmutated clones share a generation).
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// The lattice order `k`.
    pub fn k(&self) -> usize {
        self.summary.max_size()
    }

    /// The label table the summary is keyed against.
    pub fn labels(&self) -> &LabelInterner {
        &self.labels
    }

    /// The underlying summary.
    pub fn summary(&self) -> &Summary {
        &self.summary
    }

    /// The summary, to change in place. Assigns a fresh generation first,
    /// so the engine's cache never answers from the summary as it was.
    /// Every mutation goes through here: [`merge`](TreeLattice::merge),
    /// [`update_after_edit`](TreeLattice::update_after_edit) and
    /// [`prune`](TreeLattice::prune).
    fn summary_mut(&mut self) -> &mut Summary {
        self.generation = next_generation();
        &mut self.summary
    }

    /// Summary memory footprint in bytes.
    pub fn summary_bytes(&self) -> usize {
        self.summary.heap_bytes()
    }

    /// Estimates the selectivity of a twig with default options.
    pub fn estimate(&self, twig: &Twig, estimator: Estimator) -> f64 {
        self.estimate_with(twig, estimator, &EstimateOptions::default())
    }

    /// Estimates the selectivity of a twig with explicit options.
    pub fn estimate_with(&self, twig: &Twig, estimator: Estimator, opts: &EstimateOptions) -> f64 {
        estimate_catalog(self, twig, estimator, opts)
    }

    /// [`estimate_with`](TreeLattice::estimate_with), reporting per-query
    /// metrics to `rec`: `engine.queries`, `engine.query.latency_us`, and
    /// `engine.decomposition.depth` (the same names the shared-cache engine
    /// uses, so one snapshot covers both paths).
    pub fn estimate_with_observed(
        &self,
        twig: &Twig,
        estimator: Estimator,
        opts: &EstimateOptions,
        rec: &dyn tl_obs::Recorder,
    ) -> f64 {
        if catalog::has_unknown_label(self, twig) {
            return 0.0;
        }
        let start = rec.enabled().then(std::time::Instant::now);
        let mut cache = dag::LocalIdCache::default();
        let (value, depth, _stats) =
            dag::estimate_dag(&self.summary, twig, estimator, opts, &mut cache);
        if let Some(start) = start {
            rec.add(tl_obs::names::ENGINE_QUERIES, 1);
            rec.observe(
                tl_obs::names::QUERY_LATENCY_US,
                start.elapsed().as_micros() as u64,
            );
            rec.observe(tl_obs::names::DECOMP_DEPTH, depth as u64);
        }
        value
    }

    /// Estimates a twig under the budget in `opts`, degrading instead of
    /// failing: the result is always a finite, non-negative estimate, and
    /// its [`Degradation`] tag records which rung of the ladder produced it
    /// (see [`resilient`]).
    pub fn estimate_resilient(
        &self,
        twig: &Twig,
        estimator: Estimator,
        opts: &EstimateOptions,
    ) -> ResilientEstimate {
        estimate_resilient_catalog(self, twig, estimator, opts)
    }

    /// Parses a query in the twig surface syntax and estimates it.
    ///
    /// Labels that never occurred in the document yield an estimate of `0.0`
    /// (they cannot match), not a parse error.
    pub fn estimate_query(&self, query: &str, estimator: Estimator) -> Result<f64, TwigParseError> {
        Ok(self.estimate(&self.parse_query(query)?, estimator))
    }

    /// Parses a query against this lattice's label table, read in place
    /// (new labels are allowed and mapped to fresh ids past the table,
    /// which estimate to zero; see [`tl_twig::parse_twig_in`]).
    pub fn parse_query(&self, query: &str) -> Result<Twig, TwigParseError> {
        parse_twig_in(query, &self.labels)
    }

    /// Renders a decomposition trace for a query (EXPLAIN); see
    /// [`explain::explain`].
    pub fn explain_query(&self, query: &str) -> Result<String, TwigParseError> {
        let mut scratch = self.labels.clone();
        let twig = parse_twig(query, &mut scratch)?;
        Ok(explain::explain(&self.summary, &scratch, &twig))
    }

    /// Estimates a query with value predicates (`laptop[brand="Dell"]`).
    /// The `mode` must match the [`tl_xml::ValueMode`] the document was
    /// parsed with; see `tl_twig::parse_twig_valued`.
    pub fn estimate_query_valued(
        &self,
        query: &str,
        mode: tl_xml::ValueMode,
        estimator: Estimator,
    ) -> Result<f64, TwigParseError> {
        let mut scratch = self.labels.clone();
        let twig = tl_twig::parse_twig_valued(query, &mut scratch, mode)?;
        Ok(self.estimate(&twig, estimator))
    }

    /// Incrementally refreshes the summary after a document edit
    /// (`tl_xml::append_subtree` / `remove_subtree`): patterns containing
    /// none of the edit's `touched` labels keep their counts; the rest are
    /// recounted against `doc_new`. Equivalent to a full rebuild, usually
    /// much cheaper (paper §2.2's "incremental by design").
    ///
    /// # Panics
    ///
    /// Panics if the summary has pruned levels (prune *after* updates).
    pub fn update_after_edit(
        &mut self,
        doc_new: &Document,
        touched: &[tl_xml::LabelId],
    ) -> tl_miner::UpdateReport {
        let k = self.summary.max_size();
        assert!(
            (1..=k).all(|size| !self.summary.is_pruned(size)),
            "update_after_edit requires an unpruned summary"
        );
        let (updated, report) = tl_miner::update_mined(
            doc_new,
            &self.summary,
            touched,
            MineConfig {
                max_size: k,
                threads: 1,
            },
        );
        self.labels = doc_new.labels().clone();
        *self.summary_mut() = updated;
        report
    }

    /// Prunes δ-derivable patterns in place; returns the report.
    pub fn prune(&mut self, delta: f64) -> PruneReport {
        let (kept, report) = prune_derivable(&self.summary, delta);
        *self.summary_mut() = kept;
        report
    }

    /// Serializes to the versioned binary format.
    pub fn to_bytes(&self) -> Vec<u8> {
        serialize::to_bytes(self)
    }

    /// Parses the versioned binary format.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, ReadError> {
        serialize::from_bytes(bytes)
    }
}

#[cfg(test)]
mod tests {
    use tl_xml::{parse_document, ParseOptions};

    use super::*;

    fn doc(s: &str) -> Document {
        parse_document(s.as_bytes(), ParseOptions::default()).unwrap()
    }

    #[test]
    fn small_queries_are_exact() {
        let _fp = tl_fault::failpoints::shared();
        let d = doc("<computer><laptops>\
               <laptop><brand/><price/></laptop>\
               <laptop><brand/><price/></laptop>\
             </laptops><desktops/></computer>");
        let lat = TreeLattice::build(&d, &BuildConfig::with_k(3));
        for e in Estimator::ALL {
            assert_eq!(
                lat.estimate_query("//laptop[brand][price]", e).unwrap(),
                2.0,
                "{e}"
            );
            assert_eq!(lat.estimate_query("laptop", e).unwrap(), 2.0, "{e}");
        }
    }

    #[test]
    fn unknown_labels_estimate_zero() {
        let _fp = tl_fault::failpoints::shared();
        let d = doc("<a><b/></a>");
        let lat = TreeLattice::build(&d, &BuildConfig::with_k(2));
        for e in Estimator::ALL {
            assert_eq!(lat.estimate_query("nosuchtag", e).unwrap(), 0.0);
            assert_eq!(lat.estimate_query("a/nosuchtag", e).unwrap(), 0.0);
        }
    }

    #[test]
    fn big_query_estimates_are_positive_for_occurring_twigs() {
        let _fp = tl_fault::failpoints::shared();
        // A regular document where conditional independence holds exactly.
        let mut s = String::from("<r>");
        for _ in 0..10 {
            s.push_str("<a><b><c/><d/></b><e/></a>");
        }
        s.push_str("</r>");
        let d = doc(&s);
        let lat = TreeLattice::build(&d, &BuildConfig::with_k(3));
        // Query size 5 > k: must decompose. True count = 10.
        for e in Estimator::ALL {
            let est = lat.estimate_query("a[b[c][d]][e]", e).unwrap();
            assert!(
                (est - 10.0).abs() < 1e-6,
                "{e}: est = {est}, expected 10 on perfectly regular data"
            );
        }
    }

    #[test]
    fn figure11_small_twig_is_exact_from_lattice() {
        let _fp = tl_fault::failpoints::shared();
        let d = tl_datagen::figure11_document();
        let lat = TreeLattice::build(&d, &BuildConfig::with_k(3));
        let est = lat.estimate_query("b[c][d]", Estimator::Recursive).unwrap();
        assert_eq!(est, 4.0, "the lattice answers the Figure 11 twig exactly");
    }

    #[test]
    fn build_with_pruning_keeps_estimates() {
        let _fp = tl_fault::failpoints::shared();
        let mut s = String::from("<r>");
        for _ in 0..7 {
            s.push_str("<a><b><c/></b><d/></a>");
        }
        s.push_str("</r>");
        let d = doc(&s);
        let full = TreeLattice::build(&d, &BuildConfig::with_k(4));
        let pruned = TreeLattice::build(
            &d,
            &BuildConfig {
                k: 4,
                threads: 0,
                prune_delta: Some(0.0),
                ..BuildConfig::default()
            },
        );
        assert!(pruned.summary_bytes() <= full.summary_bytes());
        for q in ["a[b[c]][d]", "a/b/c", "r/a/b", "a[b][d]"] {
            let e1 = full.estimate_query(q, Estimator::Recursive).unwrap();
            let e2 = pruned.estimate_query(q, Estimator::Recursive).unwrap();
            assert!((e1 - e2).abs() < 1e-6, "{q}: {e1} vs {e2}");
        }
    }

    #[test]
    fn observed_build_and_estimate_match_plain_and_record() {
        let _fp = tl_fault::failpoints::shared();
        let mut s = String::from("<r>");
        for _ in 0..10 {
            s.push_str("<a><b><c/><d/></b><e/></a>");
        }
        s.push_str("</r>");
        let d = doc(&s);
        let index = DocIndex::new(&d);
        let cfg = BuildConfig::with_k(3);
        let rec = tl_obs::MetricsRecorder::new();
        let observed = TreeLattice::build_with_index_observed(&d, &index, &cfg, &rec);
        let plain = TreeLattice::build_with_index(&d, &index, &cfg);
        let q = observed.parse_query("a[b[c][d]][e]").unwrap();
        let opts = EstimateOptions::default();
        let v = observed.estimate_with_observed(&q, Estimator::Recursive, &opts, &rec);
        assert_eq!(
            v.to_bits(),
            plain.estimate(&q, Estimator::Recursive).to_bits()
        );
        let snap = rec.snapshot();
        assert_eq!(snap.counters[tl_obs::names::MINER_RUNS], 1);
        assert_eq!(snap.counters[tl_obs::names::ENGINE_QUERIES], 1);
        assert_eq!(snap.histograms[tl_obs::names::QUERY_LATENCY_US].count, 1);
        // The size-5 query over a 3-summary must have decomposed.
        let depth = &snap.histograms[tl_obs::names::DECOMP_DEPTH];
        assert_eq!(depth.count, 1);
        assert!(depth.sum >= 1, "size-5 query over k=3 must decompose");
    }

    #[test]
    fn corpus_build_matches_merged_single_builds() {
        let _fp = tl_fault::failpoints::shared();
        let docs = vec![
            doc("<a><b><c/></b><b/></a>"),
            doc("<x><a><b/></a><a/></x>"),
            doc("<b><a/></b>"),
        ];
        let corpus = TreeLattice::build_corpus(&docs, CorpusConfig::with_max_size(3), None);
        let mut folded = TreeLattice::build(&docs[0], &BuildConfig::with_k(3));
        for d in &docs[1..] {
            folded.merge(&TreeLattice::build(d, &BuildConfig::with_k(3)));
        }
        assert_eq!(
            corpus.to_bytes(),
            folded.to_bytes(),
            "corpus build and pairwise lattice merges serialize identically"
        );
        let q = corpus.estimate_query("a/b", Estimator::Recursive).unwrap();
        assert_eq!(q, 3.0, "counts sum across documents");
    }

    #[test]
    fn merge_translates_label_universes() {
        let _fp = tl_fault::failpoints::shared();
        // `other` interns b before a, so its ids differ from `base`'s.
        let mut base = TreeLattice::build(&doc("<a><b/></a>"), &BuildConfig::with_k(2));
        let other = TreeLattice::build(&doc("<b><a/><c/></b>"), &BuildConfig::with_k(2));
        let gen_before = base.generation();
        base.merge(&other);
        assert_ne!(base.generation(), gen_before, "merge is a mutation");
        assert_eq!(base.labels().len(), 3);
        for (q, want) in [
            ("a", 2.0),
            ("b", 2.0),
            ("a/b", 1.0),
            ("b/a", 1.0),
            ("b/c", 1.0),
        ] {
            let est = base.estimate_query(q, Estimator::Recursive).unwrap();
            assert_eq!(est, want, "{q}");
        }
    }

    #[test]
    fn estimate_options_voting_cap() {
        let _fp = tl_fault::failpoints::shared();
        let d = doc("<r><a><b/><c/><d/></a><a><b/></a></r>");
        let lat = TreeLattice::build(&d, &BuildConfig::with_k(2));
        let mut q = lat.parse_query("a[b][c][d]").unwrap();
        let full = lat.estimate_with(&q, Estimator::RecursiveVoting, &EstimateOptions::default());
        let capped = lat.estimate_with(
            &q,
            Estimator::RecursiveVoting,
            &EstimateOptions {
                voting_cap: 1,
                ..EstimateOptions::default()
            },
        );
        let plain = lat.estimate(&q, Estimator::Recursive);
        assert!((capped - plain).abs() < 1e-12);
        assert!(full.is_finite());
        // Exercise parse_query mutability path too.
        q = lat.parse_query("a[b][c]").unwrap();
        assert!(lat.estimate(&q, Estimator::FixSized) >= 0.0);
    }
}
