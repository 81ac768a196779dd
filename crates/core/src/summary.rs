//! The lattice summary (paper §4).
//!
//! A [`Summary`] stores the occurrence counts of small twig patterns in
//! per-level hash tables (the paper found hash tables beat prefix trees for
//! this workload, §4.2; we keep a trie alternative in
//! [`crate::trie`] to benchmark the claim). Levels 1 and 2 are always
//! complete; higher levels may be *pruned* (δ-derivable patterns removed,
//! §4.3), which changes the meaning of a lookup miss:
//!
//! * miss on a **complete** level ⇒ the pattern does not occur ⇒ count 0;
//! * miss on a **pruned** level ⇒ unknown — the estimator re-derives the
//!   value by decomposition (Lemma 5).

use tl_twig::canonical::{key_of, NODE_BYTES};
use tl_twig::{Twig, TwigKey};
use tl_xml::FxHashMap;

use tl_miner::MinedLattice;

/// Result of a summary lookup.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Lookup {
    /// The exact stored count (or an exact zero from a complete level).
    Exact(u64),
    /// The level was pruned and the key is absent: derive by decomposition.
    Derivable,
    /// The pattern is larger than the summary order `k`.
    TooLarge,
}

/// Occurrence statistics of all (kept) twig patterns up to size `k`.
#[derive(Clone, Debug)]
pub struct Summary {
    levels: Vec<FxHashMap<TwigKey, u64>>,
    /// `pruned[i]` marks level `i + 1` as incomplete (δ-pruning applied).
    pruned: Vec<bool>,
}

impl Summary {
    /// Wraps a mined lattice as an unpruned summary.
    pub fn from_mined(lattice: MinedLattice) -> Self {
        let levels: Vec<FxHashMap<TwigKey, u64>> = (1..=lattice.max_size())
            .map(|s| lattice.level_map(s).cloned().unwrap_or_default())
            .collect();
        let pruned = vec![false; levels.len()];
        Self { levels, pruned }
    }

    /// Builds a summary directly from per-level maps and pruned flags (used
    /// by deserialization and pruning).
    pub(crate) fn from_parts(levels: Vec<FxHashMap<TwigKey, u64>>, pruned: Vec<bool>) -> Self {
        assert_eq!(levels.len(), pruned.len());
        Self { levels, pruned }
    }

    /// The identity of the merge monoid: no levels, no patterns. Merging
    /// any summary with it leaves the other operand unchanged.
    pub fn empty() -> Self {
        Self {
            levels: Vec::new(),
            pruned: Vec::new(),
        }
    }

    /// Merges `other`'s pattern counts into `self`: counts of shared keys
    /// add (saturating), missing keys are inserted, pruned flags OR.
    ///
    /// Both operands must be keyed against the **same label universe** —
    /// canonical keys embed label ids, so merging summaries mined under
    /// different interners silently conflates unrelated patterns. Corpus
    /// mining guarantees this by interning every document's labels into one
    /// shared table up front; [`crate::TreeLattice::merge`] handles the
    /// general case by re-keying first.
    ///
    /// A level present in one operand but absent from the other is treated
    /// as *complete with zero counts*, which matches how the miner produces
    /// short lattices: mining stops at the first empty level, and by
    /// downward closure every larger pattern's count is exactly zero. Under
    /// that contract merging is commutative and associative (u64 addition),
    /// so shard-merge reductions in any order produce identical summaries.
    ///
    /// δ-pruning does **not** commute with merging: a pattern derivable in
    /// each shard alone need not be derivable in the union. Callers that
    /// want a pruned result re-run [`crate::prune_derivable`] *after* the
    /// final merge (the unpruned merge of pruned operands stays correct —
    /// pruned flags OR, so estimation misses keep deriving).
    pub fn merge(&mut self, other: &Summary) {
        while self.levels.len() < other.levels.len() {
            self.levels.push(FxHashMap::default());
            self.pruned.push(false);
        }
        for (i, level) in other.levels.iter().enumerate() {
            self.levels[i].reserve(level.len());
            for (key, &count) in level {
                let slot = self.levels[i].entry(key.clone()).or_insert(0);
                *slot = slot.saturating_add(count);
            }
            self.pruned[i] = self.pruned[i] || other.pruned[i];
        }
    }

    /// The summary order `k` (largest pattern size stored).
    pub fn max_size(&self) -> usize {
        self.levels.len()
    }

    /// Looks up a canonical key.
    pub fn lookup(&self, key: &TwigKey) -> Lookup {
        let size = key.node_count();
        if size == 0 || size > self.levels.len() {
            return Lookup::TooLarge;
        }
        match self.levels[size - 1].get(key) {
            Some(&c) => Lookup::Exact(c),
            None if self.pruned[size - 1] => Lookup::Derivable,
            None => Lookup::Exact(0),
        }
    }

    /// Looks up a twig (canonicalizing first).
    pub fn lookup_twig(&self, twig: &Twig) -> Lookup {
        self.lookup(&key_of(twig))
    }

    /// [`Summary::lookup`] over raw canonical encoding bytes, without
    /// materializing a boxed [`TwigKey`]. Allocation-free: the per-level maps
    /// are probed through `TwigKey`'s `Borrow<[u8]>` bridge. This is the
    /// lookup the interner-backed evaluation DAG uses on every node.
    pub fn lookup_bytes(&self, bytes: &[u8]) -> Lookup {
        let size = bytes.len() / NODE_BYTES;
        if size == 0 || size > self.levels.len() {
            return Lookup::TooLarge;
        }
        match self.levels[size - 1].get(bytes) {
            Some(&c) => Lookup::Exact(c),
            None if self.pruned[size - 1] => Lookup::Derivable,
            None => Lookup::Exact(0),
        }
    }

    /// Raw stored count, ignoring pruned-level semantics.
    pub fn stored(&self, key: &TwigKey) -> Option<u64> {
        let size = key.node_count();
        self.levels.get(size.wrapping_sub(1))?.get(key).copied()
    }

    /// Number of patterns stored at `size`.
    pub fn patterns_at(&self, size: usize) -> usize {
        self.levels
            .get(size.wrapping_sub(1))
            .map_or(0, FxHashMap::len)
    }

    /// Total stored patterns.
    pub fn len(&self) -> usize {
        self.levels.iter().map(FxHashMap::len).sum()
    }

    /// Whether the summary stores nothing.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether level `size` has been pruned.
    pub fn is_pruned(&self, size: usize) -> bool {
        self.pruned
            .get(size.wrapping_sub(1))
            .copied()
            .unwrap_or(false)
    }

    /// Iterates `(key, count)` pairs at one level.
    pub fn iter_level(&self, size: usize) -> impl Iterator<Item = (&TwigKey, u64)> {
        self.levels
            .get(size.wrapping_sub(1))
            .into_iter()
            .flat_map(|m| m.iter().map(|(k, &c)| (k, c)))
    }

    /// Iterates all `(key, count)` pairs, smallest patterns first.
    pub fn iter(&self) -> impl Iterator<Item = (&TwigKey, u64)> {
        self.levels
            .iter()
            .flat_map(|m| m.iter().map(|(k, &c)| (k, c)))
    }

    /// Summary memory footprint in bytes, the quantity the paper reports in
    /// Table 3 and Figure 10.
    ///
    /// Accounts for the hash tables as allocated, not just the payload:
    /// every *bucket* (allocated at capacity, whether occupied or not)
    /// holds an inline `(TwigKey, u64)` pair plus one control byte, and
    /// every *stored* key additionally owns its out-of-line canonical
    /// encoding. `TwigKey::heap_bytes` already bundles the 8-byte count
    /// with the encoding, and the count is part of the inline pair here, so
    /// only the encoding length is added per entry.
    pub fn heap_bytes(&self) -> usize {
        let bucket = std::mem::size_of::<(TwigKey, u64)>() + 1;
        self.levels
            .iter()
            .map(|level| {
                level.capacity() * bucket
                    + level
                        .keys()
                        .map(|k| k.heap_bytes() - std::mem::size_of::<u64>())
                        .sum::<usize>()
            })
            .sum()
    }

    /// Removes `key` from its level and marks the level pruned (a removed
    /// pattern is no longer distinguishable from a never-stored one, so the
    /// level loses its completeness guarantee). Returns the removed count.
    pub fn remove(&mut self, key: &TwigKey) -> Option<u64> {
        let size = key.node_count();
        let level = self.levels.get_mut(size.wrapping_sub(1))?;
        let removed = level.remove(key);
        if removed.is_some() {
            self.pruned[size - 1] = true;
        }
        removed
    }

    /// Inserts (or replaces) a pattern count; used when extending a pruned
    /// summary with selected higher-level patterns (Figure 10(b)).
    pub fn insert(&mut self, key: TwigKey, count: u64) {
        let size = key.node_count();
        assert!(size >= 1, "empty key");
        while self.levels.len() < size {
            self.levels.push(FxHashMap::default());
            // A level added on demand is not complete.
            self.pruned.push(true);
        }
        self.levels[size - 1].insert(key, count);
    }

    /// Marks a level as pruned/incomplete explicitly.
    pub fn mark_pruned(&mut self, size: usize) {
        if size >= 1 && size <= self.pruned.len() {
            self.pruned[size - 1] = true;
        }
    }

    /// Per-level `(stored, pruned)` listing for reports.
    pub fn level_info(&self) -> Vec<(usize, bool)> {
        self.levels
            .iter()
            .zip(&self.pruned)
            .map(|(m, &p)| (m.len(), p))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use tl_xml::LabelInterner;

    use super::*;

    fn summary_of(patterns: &[(&str, u64)]) -> (Summary, LabelInterner) {
        // Builds *complete* levels sized to the largest pattern.
        let mut it = LabelInterner::new();
        let parsed: Vec<(tl_twig::Twig, u64)> = patterns
            .iter()
            .map(|(q, c)| (tl_twig::parse_twig(q, &mut it).unwrap(), *c))
            .collect();
        let k = parsed.iter().map(|(t, _)| t.len()).max().unwrap_or(1);
        let mut levels = vec![FxHashMap::default(); k];
        for (t, c) in parsed {
            levels[t.len() - 1].insert(key_of(&t), c);
        }
        let s = Summary::from_parts(levels, vec![false; k]);
        (s, it)
    }

    #[test]
    fn complete_level_miss_is_exact_zero() {
        let _fp = tl_fault::failpoints::shared();
        let (mined, it) = {
            let mut it = LabelInterner::new();
            let doc = {
                let mut b = tl_xml::DocumentBuilder::new();
                b.begin("a");
                b.begin("b");
                b.end();
                b.end();
                b.finish().unwrap()
            };
            let m = tl_miner::mine(&doc, tl_miner::MineConfig::with_max_size(2));
            it.intern("a");
            it.intern("b");
            it.intern("z");
            (m.lattice, it)
        };
        let s = Summary::from_mined(mined);
        let z = tl_twig::parse_twig_in("z", &it).unwrap();
        // `z` is absent from the complete level 1 => exact zero.
        assert_eq!(s.lookup_twig(&z), Lookup::Exact(0));
    }

    #[test]
    fn pruned_level_miss_is_derivable() {
        let (mut s, mut it) = summary_of(&[("a", 5), ("a/b", 3), ("a/b/c", 2)]);
        let abc = key_of(&tl_twig::parse_twig("a/b/c", &mut it).unwrap());
        assert_eq!(s.lookup(&abc), Lookup::Exact(2));
        s.remove(&abc);
        assert_eq!(s.lookup(&abc), Lookup::Derivable);
        assert!(s.is_pruned(3));
        assert!(!s.is_pruned(2));
    }

    #[test]
    fn too_large_patterns_reported() {
        let (s, mut it) = summary_of(&[("a", 1), ("a/b", 1)]);
        let big = key_of(&tl_twig::parse_twig("a/b/c", &mut it).unwrap());
        assert_eq!(s.lookup(&big), Lookup::TooLarge);
    }

    #[test]
    fn insert_beyond_k_creates_incomplete_level() {
        let (mut s, mut it) = summary_of(&[("a", 4), ("a/b", 2)]);
        assert_eq!(s.max_size(), 2);
        let abc = key_of(&tl_twig::parse_twig("a/b/c", &mut it).unwrap());
        s.insert(abc.clone(), 1);
        assert_eq!(s.max_size(), 3);
        assert_eq!(s.lookup(&abc), Lookup::Exact(1));
        // Another size-3 key is absent but the level is incomplete.
        let abd = key_of(&tl_twig::parse_twig("a/b/d", &mut it).unwrap());
        assert_eq!(s.lookup(&abd), Lookup::Derivable);
    }

    #[test]
    fn merge_adds_counts_and_unions_keys() {
        let (mut a, mut it) = summary_of(&[("a", 4), ("a/b", 2)]);
        let b = {
            let parsed: Vec<(tl_twig::Twig, u64)> = [("a", 3), ("a/c", 5)]
                .iter()
                .map(|(q, c)| (tl_twig::parse_twig(q, &mut it).unwrap(), *c))
                .collect();
            let mut levels = vec![FxHashMap::default(); 2];
            for (t, c) in parsed {
                levels[t.len() - 1].insert(key_of(&t), c);
            }
            Summary::from_parts(levels, vec![false; 2])
        };
        a.merge(&b);
        let mut key = |q: &str| key_of(&tl_twig::parse_twig(q, &mut it).unwrap());
        assert_eq!(a.lookup(&key("a")), Lookup::Exact(7), "shared counts add");
        assert_eq!(a.lookup(&key("a/b")), Lookup::Exact(2));
        assert_eq!(a.lookup(&key("a/c")), Lookup::Exact(5));
        assert_eq!(a.lookup(&key("b/c")), Lookup::Exact(0), "complete miss");
    }

    #[test]
    fn merge_with_empty_is_identity_both_ways() {
        let (s, _) = summary_of(&[("a", 4), ("a/b", 2), ("a/b/c", 1)]);
        let mut left = s.clone();
        left.merge(&Summary::empty());
        let mut right = Summary::empty();
        right.merge(&s);
        for m in [&left, &right] {
            assert_eq!(m.max_size(), s.max_size());
            assert_eq!(m.level_info(), s.level_info());
            for (key, count) in s.iter() {
                assert_eq!(m.stored(key), Some(count));
            }
        }
    }

    #[test]
    fn merge_extends_short_operand_with_complete_levels() {
        let (mut a, mut it) = summary_of(&[("a", 1)]); // one level, complete
        let (b, _) = {
            let mut other = LabelInterner::new();
            other.intern("a");
            other.intern("b");
            summary_of(&[("a", 2), ("a/b", 3)])
        };
        a.merge(&b);
        assert_eq!(a.max_size(), 2);
        assert!(!a.is_pruned(2), "absent level merges as zero-complete");
        let ab = key_of(&tl_twig::parse_twig("a/b", &mut it).unwrap());
        assert_eq!(a.lookup(&ab), Lookup::Exact(3));
    }

    #[test]
    fn merge_ors_pruned_flags() {
        let (mut a, mut it) = summary_of(&[("a", 1), ("a/b", 1), ("a/b/c", 4)]);
        let (mut b, _) = summary_of(&[("a", 1), ("a/b", 1), ("a/b/c", 4)]);
        let abc = key_of(&tl_twig::parse_twig("a/b/c", &mut it).unwrap());
        b.remove(&abc); // marks level 3 pruned in b
        a.merge(&b);
        assert!(a.is_pruned(3), "pruned-ness is sticky under merge");
        assert_eq!(a.lookup(&abc), Lookup::Exact(4), "kept count survives");
    }

    #[test]
    fn heap_bytes_count_table_capacity_overhead() {
        let (s, _) = summary_of(&[("a", 1), ("a/b", 1), ("a/b/c", 1)]);
        // Strictly more than the bare key+count payload: the tables
        // allocate whole buckets at capacity.
        let payload: usize = s.iter().map(|(k, _)| k.heap_bytes()).sum();
        assert!(s.heap_bytes() > payload);
    }

    #[test]
    fn heap_bytes_shrink_on_remove() {
        let (mut s, mut it) = summary_of(&[("a", 1), ("a/b", 1), ("a/b/c", 1)]);
        let before = s.heap_bytes();
        let abc = key_of(&tl_twig::parse_twig("a/b/c", &mut it).unwrap());
        s.remove(&abc);
        assert!(s.heap_bytes() < before);
    }
}
