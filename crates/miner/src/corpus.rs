//! Corpus-scale mining: shard a multi-document corpus across workers and
//! merge per-worker partial lattices.
//!
//! The paper mines one document tree; a corpus is the sum of its documents
//! (a twig's corpus selectivity is the sum of its per-document match
//! counts), so corpus mining is embarrassingly parallel *if* the per-shard
//! statistics are mergeable. They are, in three steps:
//!
//! 1. A serial pass folds every document's labels into one shared
//!    [`LabelInterner`] (see [`LabelInterner::extend_from`]) — the shared
//!    universe depends only on document order, never on sharding.
//! 2. Workers pull documents off a shared work-stealing cursor, mine each
//!    in its *own* label space, and remap the mined keys into the shared
//!    universe before folding them into a worker-local partial lattice
//!    (identity maps skip the remap entirely).
//! 3. The partials merge pairwise in a tree reduction. Because u64 count
//!    addition is commutative and associative, the merged lattice is
//!    bit-identical (content-wise, and therefore in the canonical sorted
//!    serialization) to mining the documents sequentially in order — the
//!    property the corpus gate (`gates --only corpus`) enforces.

use std::sync::atomic::{AtomicUsize, Ordering};

use tl_twig::canonical::KeyEncoder;
use tl_twig::{Twig, TwigKey};
use tl_xml::{DocIndex, Document, FxHashMap, LabelId, LabelInterner};

use crate::{mine_with_index, MineConfig, MinedLattice};

/// Configuration for [`mine_corpus`].
#[derive(Clone, Copy, Debug)]
pub struct CorpusConfig {
    /// Largest pattern size to enumerate (the `k` of the k-lattice).
    pub max_size: usize,
    /// Number of shard workers mining documents concurrently. `0` means
    /// "use available parallelism"; `1` mines the corpus serially. The
    /// effective count never exceeds the number of documents.
    pub shards: usize,
    /// Worker threads for candidate counting *within* one document (the
    /// [`MineConfig::threads`] of each per-document mine). Defaults to 1:
    /// corpus parallelism comes from sharding documents, and nesting
    /// per-document counting threads under shard workers oversubscribes.
    pub threads: usize,
}

impl Default for CorpusConfig {
    fn default() -> Self {
        Self {
            max_size: 4,
            shards: 0,
            threads: 1,
        }
    }
}

impl CorpusConfig {
    /// A configuration with the given lattice order and default sharding.
    pub fn with_max_size(max_size: usize) -> Self {
        Self {
            max_size,
            ..Self::default()
        }
    }

    fn effective_shards(&self) -> usize {
        if self.shards != 0 {
            self.shards
        } else {
            std::thread::available_parallelism().map_or(1, |n| n.get())
        }
    }

    fn per_doc(&self) -> MineConfig {
        MineConfig {
            max_size: self.max_size,
            threads: self.threads.max(1),
        }
    }
}

/// The result of a corpus mining run.
#[derive(Clone, Debug)]
pub struct CorpusReport {
    /// Summed pattern counts over the whole corpus, in the shared label
    /// universe.
    pub lattice: MinedLattice,
    /// The shared label universe (union of every document's labels, in
    /// document order).
    pub labels: LabelInterner,
    /// Shard workers actually used.
    pub shards: usize,
    /// Documents mined.
    pub docs: usize,
    /// Wall-clock milliseconds spent in the final tree reduction.
    pub merge_ms: u64,
}

/// Mines every document of `docs` up to `config.max_size` and merges the
/// per-document lattices into one corpus lattice over a shared label
/// universe. See the module docs for the sharding scheme.
///
/// The result is deterministic: counts (and the canonical serialization of
/// the summary built from them) are identical for every shard count,
/// including fully serial mining.
///
/// # Examples
///
/// ```
/// use tl_xml::{parse_document, ParseOptions};
/// use tl_miner::{mine_corpus, CorpusConfig};
/// use tl_twig::parse_twig_in;
///
/// let docs: Vec<_> = [b"<a><b/></a>" as &[u8], b"<c><a><b/></a></c>"]
///     .iter()
///     .map(|s| parse_document(s, ParseOptions::default()).unwrap())
///     .collect();
/// let report = mine_corpus(&docs, CorpusConfig::with_max_size(2));
/// let q = parse_twig_in("a/b", &report.labels).unwrap();
/// assert_eq!(report.lattice.get_twig(&q), Some(2), "counts sum over docs");
/// ```
pub fn mine_corpus(docs: &[Document], config: CorpusConfig) -> CorpusReport {
    mine_corpus_observed(docs, config, &tl_obs::NOOP)
}

/// [`mine_corpus`], recording `miner.corpus.shards` and `miner.merge.ms`
/// (plus one `miner.runs` per document via the per-document mines being
/// unobserved — corpus runs report at corpus granularity only).
pub fn mine_corpus_observed(
    docs: &[Document],
    config: CorpusConfig,
    rec: &dyn tl_obs::Recorder,
) -> CorpusReport {
    // Phase 1 (serial): shared label universe + per-document translations.
    let mut labels = LabelInterner::new();
    let maps: Vec<Vec<LabelId>> = docs
        .iter()
        .map(|d| labels.extend_from(d.labels()))
        .collect();

    let shards = config.effective_shards().min(docs.len()).max(1);
    rec.add(tl_obs::names::MINER_CORPUS_SHARDS, shards as u64);
    let per_doc = config.per_doc();

    // Phase 2: shard workers pull documents off a shared cursor (document
    // mining cost varies with document size, so static chunking would
    // serialize behind the unlucky worker — same scheme as the candidate
    // counter's work stealing).
    let mut partials: Vec<MinedLattice> = if shards <= 1 {
        let mut acc = MinedLattice::default();
        for (doc, map) in docs.iter().zip(&maps) {
            let mined = mine_with_index(&DocIndex::new(doc), per_doc).lattice;
            merge_remapped(&mut acc, mined, map);
        }
        vec![acc]
    } else {
        let cursor = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..shards)
                .map(|_| {
                    let cursor = &cursor;
                    let maps = &maps;
                    scope.spawn(move || {
                        let mut acc = MinedLattice::default();
                        loop {
                            let i = cursor.fetch_add(1, Ordering::Relaxed);
                            let Some(doc) = docs.get(i) else { break };
                            let mined = mine_with_index(&DocIndex::new(doc), per_doc).lattice;
                            merge_remapped(&mut acc, mined, &maps[i]);
                        }
                        acc
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("corpus shard worker panicked"))
                .collect()
        })
    };

    // Phase 3: pairwise tree reduction of the shard partials. Commutativity
    // of the merge makes the pairing order irrelevant to the result; the
    // tree shape just keeps each round's operands similar in size.
    let start = std::time::Instant::now();
    while partials.len() > 1 {
        let mut next = Vec::with_capacity(partials.len().div_ceil(2));
        let mut it = partials.into_iter();
        while let Some(mut a) = it.next() {
            if let Some(b) = it.next() {
                a.merge(&b);
            }
            next.push(a);
        }
        partials = next;
    }
    let lattice = partials.pop().unwrap_or_default();
    let merge_ms = u64::try_from(start.elapsed().as_millis()).unwrap_or(u64::MAX);
    rec.add(tl_obs::names::MINER_MERGE_MS, merge_ms);

    CorpusReport {
        lattice,
        labels,
        shards,
        docs: docs.len(),
        merge_ms,
    }
}

/// Folds a per-document lattice into a shard accumulator, translating its
/// keys from the document's label space into the shared universe via `map`
/// first. Identity maps (document labels already aligned with the shared
/// interner — always true for the first document) skip the rewrite.
fn merge_remapped(acc: &mut MinedLattice, mined: MinedLattice, map: &[LabelId]) {
    if map.iter().enumerate().all(|(i, id)| id.index() == i) {
        acc.merge(&mined);
        return;
    }
    let mut enc = KeyEncoder::new();
    let mut buf: Vec<u8> = Vec::new();
    let mut scratch = Twig::single(LabelId(0));
    let mut levels: Vec<FxHashMap<TwigKey, u64>> = Vec::with_capacity(mined.max_size());
    for size in 1..=mined.max_size() {
        let mut level = FxHashMap::default();
        for (key, count) in mined.iter_level(size) {
            key.decode_into(&mut scratch);
            scratch.relabel(map);
            // Canonical order depends on label ids, so re-encode from
            // scratch rather than patching bytes in place.
            enc.encode_into(&scratch, &mut buf);
            level.insert(TwigKey::from_raw(buf.as_slice().into()), count);
        }
        levels.push(level);
    }
    acc.merge(&MinedLattice::from_levels(levels));
}

#[cfg(test)]
mod tests {
    use tl_xml::{parse_document, ParseOptions};

    use super::*;

    fn doc(s: &str) -> Document {
        parse_document(s.as_bytes(), ParseOptions::default()).unwrap()
    }

    fn assert_same(a: &MinedLattice, b: &MinedLattice) {
        assert_eq!(a.max_size(), b.max_size());
        assert_eq!(a.len(), b.len());
        for (key, count) in a.iter() {
            assert_eq!(b.get(key), Some(count));
        }
    }

    #[test]
    fn corpus_counts_sum_over_documents() {
        let docs = vec![
            doc("<a><b><c/></b><b/></a>"),
            doc("<a><b/></a>"),
            doc("<x><a><b/></a></x>"),
        ];
        let report = mine_corpus(&docs, CorpusConfig::with_max_size(3));
        let q = |s: &str| tl_twig::parse_twig_in(s, &report.labels).unwrap();
        assert_eq!(report.lattice.get_twig(&q("a/b")), Some(4));
        assert_eq!(report.lattice.get_twig(&q("a")), Some(3));
        assert_eq!(report.lattice.get_twig(&q("x/a/b")), Some(1));
        assert_eq!(report.docs, 3);
    }

    #[test]
    fn label_universes_union_across_documents() {
        // Same tag strings in different per-document id orders must land on
        // the same shared ids.
        let docs = vec![doc("<b><a/></b>"), doc("<a><b/></a>")];
        let report = mine_corpus(&docs, CorpusConfig::with_max_size(2));
        assert_eq!(report.labels.len(), 2);
        let q = |s: &str| tl_twig::parse_twig_in(s, &report.labels).unwrap();
        assert_eq!(report.lattice.get_twig(&q("a/b")), Some(1));
        assert_eq!(report.lattice.get_twig(&q("b/a")), Some(1));
        assert_eq!(report.lattice.get_twig(&q("a")), Some(2));
    }

    #[test]
    fn sharded_matches_sequential() {
        let docs: Vec<_> = (0..7)
            .map(|i| {
                tl_datagen::Dataset::Xmark.generate(tl_datagen::GenConfig {
                    seed: 100 + i,
                    target_elements: 300,
                })
            })
            .collect();
        let serial = mine_corpus(
            &docs,
            CorpusConfig {
                max_size: 3,
                shards: 1,
                threads: 1,
            },
        );
        for shards in [2, 3, 8] {
            let sharded = mine_corpus(
                &docs,
                CorpusConfig {
                    max_size: 3,
                    shards,
                    threads: 1,
                },
            );
            assert_same(&serial.lattice, &sharded.lattice);
            assert_eq!(serial.labels.len(), sharded.labels.len());
            for (id, name) in serial.labels.iter() {
                assert_eq!(sharded.labels.resolve(id), name);
            }
        }
    }

    #[test]
    fn single_document_corpus_matches_plain_mine() {
        let d = doc("<a><b><c/></b><b/><d/></a>");
        let plain = crate::mine(&d, MineConfig::with_max_size(3));
        let corpus = mine_corpus(std::slice::from_ref(&d), CorpusConfig::with_max_size(3));
        assert_same(&plain.lattice, &corpus.lattice);
    }

    #[test]
    fn observed_run_records_shards_and_merge_time() {
        let docs = vec![doc("<a><b/></a>"), doc("<a><b/></a>")];
        let rec = tl_obs::MetricsRecorder::new();
        let report = mine_corpus_observed(
            &docs,
            CorpusConfig {
                max_size: 2,
                shards: 2,
                threads: 1,
            },
            &rec,
        );
        assert_eq!(report.shards, 2);
        let snap = rec.snapshot();
        assert_eq!(snap.counters[tl_obs::names::MINER_CORPUS_SHARDS], 2);
        assert!(snap.counters.contains_key(tl_obs::names::MINER_MERGE_MS));
    }

    #[test]
    fn empty_corpus_yields_empty_lattice() {
        let report = mine_corpus(&[], CorpusConfig::default());
        assert!(report.lattice.is_empty());
        assert!(report.labels.is_empty());
        assert_eq!(report.shards, 1);
    }
}
