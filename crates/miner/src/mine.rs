//! The mining algorithm: candidate generation + root-map counting.

use tl_fault::{failpoints, Budget, Fault, FaultKind};
use tl_twig::canonical::{key_of, KeyEncoder};
use tl_twig::{Twig, TwigKey};
use tl_xml::{DocIndex, Document, FxHashMap, FxHashSet, LabelId};

use crate::Summary;

/// Sparse root map of a pattern: `(rank, m)` pairs, sorted ascending, where
/// `rank` is the within-label rank (see [`DocIndex::rank`]) of a document
/// node hosting `m ≥ 1` matches of the pattern. Rank-keyed so counting can
/// scatter a map into a dense per-label vector and read it back with plain
/// indexing; sparse at rest so the level cache stays proportional to the
/// number of *occurrences*, not to the document.
type RootMap = Vec<(u32, u64)>;

/// Configuration for [`mine`].
#[derive(Clone, Copy, Debug)]
pub struct MineConfig {
    /// Largest pattern size to enumerate (the `k` of the k-lattice).
    pub max_size: usize,
    /// Worker threads for candidate counting. `0` means "use available
    /// parallelism"; `1` runs fully serial.
    pub threads: usize,
}

impl Default for MineConfig {
    fn default() -> Self {
        Self {
            max_size: 4,
            threads: 0,
        }
    }
}

impl MineConfig {
    /// A serial configuration with the given lattice order.
    pub fn with_max_size(max_size: usize) -> Self {
        Self {
            max_size,
            ..Self::default()
        }
    }

    fn effective_threads(&self) -> usize {
        if self.threads != 0 {
            self.threads
        } else {
            std::thread::available_parallelism().map_or(1, |n| n.get())
        }
    }
}

/// The result of a mining run.
#[derive(Clone, Debug)]
pub struct MineReport {
    /// The mined pattern counts: complete levels, none pruned.
    pub lattice: Summary,
    /// Candidate patterns generated per level (before counting filtered the
    /// non-occurring ones) — levels are 1-based sizes, index 0 = size 1.
    pub candidates_per_level: Vec<usize>,
    /// Set when a mining [`Budget`] tripped between levels: the run stopped
    /// early and the lattice's order is lower than requested, but every
    /// stored level holds exact counts (graceful degradation, not
    /// corruption). `None` for unbudgeted runs and completed budgeted runs.
    pub stopped_early: Option<Fault>,
}

/// Mines all occurred twig patterns of `doc` up to `config.max_size` nodes,
/// with exact selectivities.
///
/// Builds a throwaway [`DocIndex`]; callers that already hold one (the
/// lattice builder, the bench harness) use [`mine_with_index`] to share it.
///
/// # Examples
///
/// ```
/// use tl_xml::{parse_document, ParseOptions};
/// use tl_miner::{mine, Lookup, MineConfig};
/// use tl_twig::parse_twig_in;
///
/// let doc = parse_document(b"<a><b><c/></b><b/></a>", ParseOptions::default()).unwrap();
/// let report = mine(&doc, MineConfig { max_size: 3, threads: 1 });
/// let q = parse_twig_in("a/b", doc.labels()).unwrap();
/// assert_eq!(report.lattice.lookup_twig(&q), Lookup::Exact(2));
/// let q3 = parse_twig_in("a[b[c]][b]", doc.labels());
/// assert!(q3.is_ok());
/// ```
pub fn mine(doc: &Document, config: MineConfig) -> MineReport {
    mine_with_index(&DocIndex::new(doc), config)
}

/// [`mine_with_index`], reporting run statistics to `rec`: the `miner.mine`
/// wall-clock span, aggregate `miner.{runs,candidates,patterns_kept,
/// pruned_zero}` counters, and per-level `miner.level<N>.{candidates,kept,
/// pruned}` counters with a `miner.level<N>` span each (levels are 1-based
/// pattern sizes; level 1 has no counting pass, so no per-level stats).
pub fn mine_with_index_observed(
    index: &DocIndex,
    config: MineConfig,
    rec: &dyn tl_obs::Recorder,
) -> MineReport {
    mine_with_index_budgeted(index, config, Budget::unlimited(), rec)
}

/// [`mine_with_index_observed`] under a resource [`Budget`].
///
/// The budget is consulted *between* levels: `max_k` caps the lattice order
/// up front, while a deadline or memory-cap trip stops the run before the
/// next level and records the fault in [`MineReport::stopped_early`]. The
/// already-mined levels are exact, so the result degrades to a lower-order
/// summary rather than failing.
pub fn mine_with_index_budgeted(
    index: &DocIndex,
    config: MineConfig,
    budget: Budget,
    rec: &dyn tl_obs::Recorder,
) -> MineReport {
    let _span = tl_obs::SpanGuard::start(rec, tl_obs::names::SPAN_MINE);
    rec.add(tl_obs::names::MINER_RUNS, 1);
    mine_inner(index, config, budget, rec)
}

/// [`mine`] over a pre-built document index.
///
/// Everything the miner asks of the document — label populations, per-label
/// child slices, the label-level adjacency bounding candidate generation —
/// comes from the index, so one index per document serves mining, ground
/// truth, and the experiment harness without re-indexing.
pub fn mine_with_index(index: &DocIndex, config: MineConfig) -> MineReport {
    mine_inner(index, config, Budget::unlimited(), &tl_obs::NOOP)
}

/// The between-level budget gate: fail-point first (deterministic chaos),
/// then the real deadline and memory checks.
fn check_mine_budget(budget: &Budget, charged_bytes: u64) -> Result<(), Fault> {
    if failpoints::fire(failpoints::sites::MINER_DEADLINE) {
        return Err(Fault::injected(
            FaultKind::Timeout,
            failpoints::sites::MINER_DEADLINE,
        ));
    }
    budget.check_deadline()?;
    budget.check_mem(charged_bytes)
}

fn mine_inner(
    index: &DocIndex,
    config: MineConfig,
    budget: Budget,
    rec: &dyn tl_obs::Recorder,
) -> MineReport {
    assert!(config.max_size >= 1, "max_size must be at least 1");
    let max_size = config
        .max_size
        .min(budget.max_k.unwrap_or(usize::MAX))
        .max(1);
    let mut stopped_early: Option<Fault> = None;
    let mut charged_bytes: u64 = 0;

    let mut levels: Vec<FxHashMap<TwigKey, u64>> = Vec::with_capacity(max_size);
    let mut candidates_per_level: Vec<usize> = Vec::with_capacity(max_size);

    // Level 1: one pattern per occurring label.
    let mut level1 = FxHashMap::default();
    for l in 0..index.n_labels() {
        let label = LabelId(l as u32);
        let count = index.label_count(label);
        if count > 0 {
            level1.insert(key_of(&Twig::single(label)), count);
        }
    }
    candidates_per_level.push(level1.len());
    if rec.enabled() {
        let n = level1.len() as u64;
        rec.add(tl_obs::names::MINER_CANDIDATES, n);
        rec.add(tl_obs::names::MINER_KEPT, n);
        rec.add("miner.level1.candidates", n);
        rec.add("miner.level1.kept", n);
    }
    levels.push(level1);

    // Root-map cache for patterns that may appear as subtrees of later
    // candidates (sizes 2 ..= max_size - 1). Size-1 subtrees are implicit.
    let mut cache: FxHashMap<TwigKey, RootMap> = FxHashMap::default();

    for size in 2..=max_size {
        if let Err(fault) = check_mine_budget(&budget, charged_bytes) {
            stopped_early = Some(fault);
            break;
        }
        let level_span = rec
            .enabled()
            .then(|| tl_obs::SpanGuard::start_dynamic(rec, format!("miner.level{size}")));
        let candidates = generate_candidates(&levels[size - 2], index);
        candidates_per_level.push(candidates.len());
        let n_candidates = candidates.len();
        let keep_maps = size < max_size;
        let counted = count_candidates(
            index,
            &cache,
            candidates,
            config.effective_threads(),
            keep_maps,
        );
        let mut level = FxHashMap::default();
        for (key, count, map) in counted {
            if count == 0 {
                continue;
            }
            if keep_maps {
                cache.insert(key.clone(), map.expect("map kept when requested"));
            }
            level.insert(key, count);
        }
        if rec.enabled() {
            let kept = level.len() as u64;
            let pruned = n_candidates as u64 - kept;
            rec.add(tl_obs::names::MINER_CANDIDATES, n_candidates as u64);
            rec.add(tl_obs::names::MINER_KEPT, kept);
            rec.add(tl_obs::names::MINER_PRUNED_ZERO, pruned);
            rec.add(
                &format!("miner.level{size}.candidates"),
                n_candidates as u64,
            );
            rec.add(&format!("miner.level{size}.kept"), kept);
            rec.add(&format!("miner.level{size}.pruned"), pruned);
        }
        drop(level_span);
        if budget.max_mem_bytes.is_some() {
            // Same accounting the summary uses: key bytes + entry overhead.
            charged_bytes += level
                .keys()
                .map(|k| k.as_bytes().len() as u64 + 24)
                .sum::<u64>();
        }
        let empty = level.is_empty();
        levels.push(level);
        if empty {
            break; // No pattern of this size occurs; larger ones cannot either.
        }
    }

    let pruned = vec![false; levels.len()];
    MineReport {
        lattice: Summary::from_parts(levels, pruned),
        candidates_per_level,
        stopped_early,
    }
}

/// Extends every level-(n−1) pattern by one child edge, deduplicates by
/// canonical key, and Apriori-prunes candidates with a non-occurring
/// sub-pattern. Extension labels come from the index's label-level
/// adjacency. Returns canonical twigs sorted by key for determinism.
fn generate_candidates(prev: &FxHashMap<TwigKey, u64>, index: &DocIndex) -> Vec<(TwigKey, Twig)> {
    let mut seen: FxHashSet<TwigKey> = FxHashSet::default();
    let mut out: Vec<(TwigKey, Twig)> = Vec::new();
    // Scratch twigs reused across the whole enumeration: `base` receives
    // each previous-level pattern, `sub` each one-smaller sub-pattern of a
    // candidate during the Apriori check. Keys are encoded into reused
    // buffers and probed as raw bytes (`TwigKey: Borrow<[u8]>`), so the
    // duplicate-heavy enumeration boxes a key only on the first sighting of
    // each distinct candidate and the Apriori probes box nothing at all.
    let mut base = Twig::single(LabelId(0));
    let mut sub = Twig::single(LabelId(0));
    let mut enc = KeyEncoder::new();
    let mut ext_buf: Vec<u8> = Vec::new();
    let mut sub_buf: Vec<u8> = Vec::new();
    for key in prev.keys() {
        key.decode_into(&mut base);
        let n = base.len() as u32;
        for q in 0..n {
            for &l in index.child_labels_of(base.label(q)) {
                // Extend the scratch twig in place; `pop_leaf` backs the
                // extension out at the bottom of the loop, so a clone is
                // paid only for candidates that survive every filter.
                let added = base.add_child(q, l);
                enc.encode_into(&base, &mut ext_buf);
                if seen.contains(ext_buf.as_slice()) {
                    base.pop_leaf(added);
                    continue;
                }
                // Apriori: every one-smaller sub-pattern must occur.
                // Removing the node just added reproduces the unextended
                // pattern, whose key is in `prev` by construction — no need
                // to re-canonicalize that one.
                let ok = base
                    .removable_nodes()
                    .into_iter()
                    .filter(|&r| r != added)
                    .all(|r| {
                        base.remove_node_into(r, &mut sub);
                        enc.encode_into(&sub, &mut sub_buf);
                        prev.contains_key(sub_buf.as_slice())
                    });
                let ext_key = TwigKey::from_raw(ext_buf.as_slice().into());
                if ok {
                    out.push((ext_key.clone(), base.clone()));
                }
                seen.insert(ext_key);
                base.pop_leaf(added);
            }
        }
    }
    out.sort_unstable_by(|a, b| a.0.cmp(&b.0));
    out
}

/// How one same-label child group of the current candidate produces its
/// per-root factor `f`.
#[derive(Clone, Copy)]
enum GroupF {
    /// Single leaf child: `f(v)` = number of children of `v` with the
    /// group's label, read from the per-(parent label, child label) count
    /// vector in [`Scratch::pair_cache`].
    Leaf,
    /// Single non-leaf child: `f(v)` = sum of the child map's `m` over the
    /// children of `v`, pre-accumulated into `Scratch::facc[slot]` by one
    /// pass over the map (each occurrence walks up to its parent).
    Cached(usize),
    /// Same-label sibling group: injective subset DP over the document
    /// children, using the per-member dense vectors in `Scratch::dense`.
    Dp,
}

/// Per-child-label count vector for one (parent label, child label) pair:
/// `cnt[r]` = how many children with the child label the `r`-th parent-label
/// node has; `support` lists the ranks with `cnt > 0`, sorted.
struct PairCounts {
    cnt: Vec<u64>,
    support: Vec<u32>,
}

/// Per-worker reusable buffers for [`count_one`]: pools of dense vectors
/// (all-zero between uses — each use scatters data in and un-scatters it on
/// the way out), the subset-DP table and weights, the per-candidate small
/// vectors that would otherwise be reallocated for every candidate, and a
/// cache of per-(parent label, child label) child counts shared by every
/// candidate the worker processes. Borrows from the level cache live `'c`.
#[derive(Default)]
struct Scratch<'c> {
    /// Dense child m-vectors for DP groups, indexed by within-label rank of
    /// the *child* label.
    dense: Vec<Vec<u64>>,
    dp: Vec<u64>,
    weights: Vec<u64>,
    cached: Vec<Option<&'c RootMap>>,
    dense_slot: Vec<usize>,
    roots: Vec<u32>,
    group_labels: Vec<LabelId>,
    group_members: Vec<Vec<usize>>,
    group_kind: Vec<GroupF>,
    /// Accumulated factors for [`GroupF::Cached`] groups, indexed by
    /// within-label rank of the *root* label, plus their nonzero ranks.
    facc: Vec<Vec<u64>>,
    facc_support: Vec<Vec<u32>>,
    pair_cache: FxHashMap<(u32, u32), PairCounts>,
    /// Pooled canonical encoder + output buffer for probing the level cache
    /// by raw bytes, instead of boxing a fresh key per non-leaf child.
    enc: KeyEncoder,
    key_buf: Vec<u8>,
}

impl PairCounts {
    /// Counts, for every node of `root_label`, its children labeled
    /// `child_label` — one pass over the child label's population.
    fn build(index: &DocIndex, root_label: LabelId, child_label: LabelId) -> Self {
        let parents = index.nodes_with_label(root_label);
        let mut cnt = vec![0u64; parents.len()];
        let mut support = Vec::new();
        for &u in index.nodes_with_label(child_label) {
            let Some(p) = index.parent(u) else { continue };
            let r = index.rank(p) as usize;
            if parents.get(r) == Some(&p) {
                if cnt[r] == 0 {
                    support.push(r as u32);
                }
                cnt[r] += 1;
            }
        }
        support.sort_unstable();
        Self { cnt, support }
    }
}

/// Counts each candidate; optionally returns its root map for the cache.
fn count_candidates(
    index: &DocIndex,
    cache: &FxHashMap<TwigKey, RootMap>,
    candidates: Vec<(TwigKey, Twig)>,
    threads: usize,
    keep_maps: bool,
) -> Vec<(TwigKey, u64, Option<RootMap>)> {
    if threads <= 1 || candidates.len() < 64 {
        let mut scratch = Scratch::default();
        return candidates
            .into_iter()
            .map(|(key, twig)| {
                let (count, map) = count_one(index, cache, &twig, keep_maps, &mut scratch);
                (key, count, map)
            })
            .collect();
    }
    // Work-stealing over a shared cursor: candidate cost varies wildly (a
    // deep same-label DP group can dominate a level), so a static chunk
    // split would serialize behind the unlucky worker. Results are written
    // back by index; keys never cross threads — they are moved out of the
    // owned candidates vec afterwards, pairing each with its slot.
    let cursor = std::sync::atomic::AtomicUsize::new(0);
    let workers = threads.min(candidates.len());
    let mut slots: Vec<Option<(u64, Option<RootMap>)>> = Vec::new();
    slots.resize_with(candidates.len(), || None);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                let cursor = &cursor;
                let candidates = &candidates;
                scope.spawn(move || {
                    let mut scratch = Scratch::default();
                    let mut out = Vec::new();
                    loop {
                        let i = cursor.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        let Some((_, twig)) = candidates.get(i) else {
                            break;
                        };
                        let (count, map) = count_one(index, cache, twig, keep_maps, &mut scratch);
                        out.push((i, count, map));
                    }
                    out
                })
            })
            .collect();
        for h in handles {
            for (i, count, map) in h.join().expect("mining worker panicked") {
                slots[i] = Some((count, map));
            }
        }
    });
    candidates
        .into_iter()
        .zip(slots)
        .map(|((key, _), slot)| {
            let (count, map) = slot.expect("every candidate counted");
            (key, count, map)
        })
        .collect()
}

/// Counts one candidate using the cached root maps of its child subtrees.
///
/// Cached maps are sparse `(rank, m)` pairs; each non-leaf child's map is
/// scattered into a dense per-label vector from `scratch` for the duration
/// of the call (and zeroed again on the way out), so the inner loops index
/// by [`DocIndex::rank`] with no hash probes.
///
/// When the candidate has at least one non-leaf child, the root loop runs
/// only over the *parents* of that child's map entries (the smallest map is
/// chosen) instead of every node carrying the root label: any other root
/// has no match of that subtree below it and would contribute zero anyway.
/// For selective patterns this shrinks the scan from the root label's
/// population to the subtree's occurrence count.
fn count_one<'c>(
    index: &DocIndex,
    cache: &'c FxHashMap<TwigKey, RootMap>,
    twig: &Twig,
    keep_map: bool,
    scratch: &mut Scratch<'c>,
) -> (u64, Option<RootMap>) {
    let root = twig.root();
    let candidates = index.nodes_with_label(twig.label(root));
    if candidates.is_empty() {
        return (0, keep_map.then(RootMap::new));
    }

    // Pass 1 — resolve cached maps before touching any scratch buffer, so
    // the missing-subtree early-out leaves the scratch invariant intact.
    let root_children = twig.children(root);
    scratch.cached.clear();
    for &c in root_children {
        if twig.children(c).is_empty() {
            scratch.cached.push(None); // Leaf: m = 1 on label match.
        } else {
            scratch
                .enc
                .encode_subtree_into(twig, c, &mut scratch.key_buf);
            match cache.get(scratch.key_buf.as_slice()) {
                Some(pairs) => scratch.cached.push(Some(pairs)),
                // Subtree does not occur => the candidate cannot occur.
                None => return (0, keep_map.then(RootMap::new)),
            }
        }
    }
    let root_label = twig.label(root);
    let Scratch {
        dense,
        dp,
        weights,
        cached,
        dense_slot,
        roots,
        group_labels,
        group_members,
        group_kind,
        facc,
        facc_support,
        pair_cache,
        ..
    } = scratch;

    // Group child indices by label (first-appearance order), reusing the
    // member vectors across calls.
    group_labels.clear();
    for (i, &c) in root_children.iter().enumerate() {
        let label = twig.label(c);
        match group_labels.iter().position(|&l| l == label) {
            Some(g) => group_members[g].push(i),
            None => {
                group_labels.push(label);
                if group_members.len() < group_labels.len() {
                    group_members.push(Vec::new());
                }
                let g = group_labels.len() - 1;
                group_members[g].clear();
                group_members[g].push(i);
            }
        }
    }
    let n_groups = group_labels.len();

    // Pass 2 — prepare each group's factor source. Leaf singletons read the
    // shared pair-count cache; cached singletons accumulate their map into a
    // dense per-root vector by walking each occurrence up to its parent (so
    // the root loop below never touches child lists for them); DP groups
    // scatter their members' maps by child rank, as the DP reads per-child
    // weights.
    dense_slot.clear();
    dense_slot.resize(root_children.len(), usize::MAX);
    group_kind.clear();
    let (mut n_dense, mut n_facc) = (0usize, 0usize);
    for g in 0..n_groups {
        let label = group_labels[g];
        let members = &group_members[g];
        if members.len() > 1 {
            // DP group: dense per-member child m-vectors.
            for &i in members {
                let Some(pairs) = cached[i] else { continue };
                if dense.len() == n_dense {
                    dense.push(Vec::new());
                }
                let buf = &mut dense[n_dense];
                let need = index.label_count(label) as usize;
                if buf.len() < need {
                    buf.resize(need, 0);
                }
                for &(rank, m) in pairs.iter() {
                    buf[rank as usize] = m;
                }
                dense_slot[i] = n_dense;
                n_dense += 1;
            }
            group_kind.push(GroupF::Dp);
        } else if let Some(pairs) = cached[members[0]] {
            // Cached singleton: accumulate m onto parents with root label.
            if facc.len() == n_facc {
                facc.push(Vec::new());
                facc_support.push(Vec::new());
            }
            let buf = &mut facc[n_facc];
            if buf.len() < candidates.len() {
                buf.resize(candidates.len(), 0);
            }
            let sup = &mut facc_support[n_facc];
            sup.clear();
            let child_nodes = index.nodes_with_label(label);
            for &(rank, m) in pairs.iter() {
                let Some(p) = index.parent(child_nodes[rank as usize]) else {
                    continue;
                };
                // `p` carries the root label iff its rank points back at
                // it inside the root label group.
                let r = index.rank(p) as usize;
                if candidates.get(r) == Some(&p) {
                    if buf[r] == 0 {
                        sup.push(r as u32);
                    }
                    buf[r] = buf[r].saturating_add(m); // m ≥ 1 keeps it > 0.
                }
            }
            group_kind.push(GroupF::Cached(n_facc));
            n_facc += 1;
        } else {
            // Leaf singleton: per-(root label, child label) child counts,
            // built once per worker and shared by every candidate.
            pair_cache
                .entry((root_label.0, label.0))
                .or_insert_with(|| PairCounts::build(index, root_label, label));
            group_kind.push(GroupF::Leaf);
        }
    }
    // All pair-cache insertions are done; immutable borrows are safe now.
    let leaf_counts: Vec<Option<&PairCounts>> = (0..n_groups)
        .map(|g| match group_kind[g] {
            GroupF::Leaf => Some(&pair_cache[&(root_label.0, group_labels[g].0)]),
            _ => None,
        })
        .collect();

    // Candidate roots: the smallest known support among the groups, or the
    // whole root label group when every group is a DP group. Roots outside
    // any group's support have that factor equal to zero and contribute
    // nothing, so restricting the loop leaves the count unchanged.
    let mut best: Option<&[u32]> = None;
    for g in 0..n_groups {
        let sup: &[u32] = match group_kind[g] {
            GroupF::Leaf => &leaf_counts[g].expect("leaf counts").support,
            GroupF::Cached(slot) => &facc_support[slot],
            GroupF::Dp => continue,
        };
        if best.is_none_or(|b| sup.len() < b.len()) {
            best = Some(sup);
        }
    }
    roots.clear();
    match best {
        None => roots.extend(0..candidates.len() as u32),
        Some(sup) => {
            roots.extend_from_slice(sup);
            roots.sort_unstable(); // Facc supports are built unsorted.
        }
    }

    let mut total: u64 = 0;
    let mut map = RootMap::new();
    for &rank_v in roots.iter() {
        let mut m_v: u64 = 1;
        for g in 0..n_groups {
            let f = match group_kind[g] {
                GroupF::Leaf => leaf_counts[g].expect("leaf counts").cnt[rank_v as usize],
                GroupF::Cached(slot) => facc[slot][rank_v as usize],
                GroupF::Dp => {
                    // Injective subset DP over the same-label group.
                    let v = candidates[rank_v as usize];
                    let members = &group_members[g];
                    let doc_children = index.children_with_label(v, group_labels[g]);
                    let n = members.len();
                    if doc_children.len() < n {
                        0
                    } else {
                        let full = (1usize << n) - 1;
                        dp.clear();
                        dp.resize(full + 1, 0);
                        dp[0] = 1;
                        weights.clear();
                        weights.resize(n, 0);
                        for &u in doc_children {
                            let rank = index.rank(u) as usize;
                            let mut any = false;
                            for (slot, &i) in members.iter().enumerate() {
                                weights[slot] = match dense_slot[i] {
                                    usize::MAX => 1,
                                    s => dense[s][rank],
                                };
                                any |= weights[slot] != 0;
                            }
                            if !any {
                                continue;
                            }
                            for mask in (1..=full).rev() {
                                let mut add = 0u64;
                                let mut bits = mask;
                                while bits != 0 {
                                    let s = bits.trailing_zeros() as usize;
                                    bits &= bits - 1;
                                    if weights[s] != 0 {
                                        add = add.saturating_add(
                                            dp[mask ^ (1 << s)].saturating_mul(weights[s]),
                                        );
                                    }
                                }
                                dp[mask] = dp[mask].saturating_add(add);
                            }
                        }
                        dp[full]
                    }
                }
            };
            if f == 0 {
                m_v = 0;
                break;
            }
            m_v = m_v.saturating_mul(f);
        }
        if m_v > 0 {
            total = total.saturating_add(m_v);
            if keep_map {
                map.push((rank_v, m_v)); // rank_v == index.rank(v).
            }
        }
    }

    // Pass 3 — un-scatter: restore the all-zero invariant of the dense and
    // facc pools by zeroing exactly the slots each map touched (O(nnz)).
    for (i, pairs) in cached.iter().enumerate() {
        let Some(pairs) = pairs else { continue };
        if dense_slot[i] == usize::MAX {
            continue; // Accumulated into facc, not scattered into dense.
        }
        let buf = &mut dense[dense_slot[i]];
        for &(rank, _) in pairs.iter() {
            buf[rank as usize] = 0;
        }
    }
    for slot in 0..n_facc {
        let buf = &mut facc[slot];
        for &r in &facc_support[slot] {
            buf[r as usize] = 0;
        }
    }

    (total, keep_map.then_some(map))
}

#[cfg(test)]
mod tests {
    use tl_datagen::{Dataset, GenConfig};
    use tl_twig::{count_matches, parse_twig_in};
    use tl_xml::{parse_document, ParseOptions};

    use super::*;
    use crate::Lookup;

    fn doc(s: &str) -> Document {
        parse_document(s.as_bytes(), ParseOptions::default()).unwrap()
    }

    #[test]
    fn level1_counts_labels() {
        let d = doc("<a><b/><b/><c/></a>");
        let r = mine(&d, MineConfig::with_max_size(1));
        assert_eq!(r.lattice.max_size(), 1);
        assert_eq!(r.lattice.patterns_at(1), 3);
        let b = parse_twig_in("b", d.labels()).unwrap();
        assert_eq!(r.lattice.lookup_twig(&b), Lookup::Exact(2));
    }

    #[test]
    fn level2_counts_edges() {
        let d = doc("<a><b><c/></b><b/></a>");
        let r = mine(&d, MineConfig::with_max_size(2));
        let ab = parse_twig_in("a/b", d.labels()).unwrap();
        let bc = parse_twig_in("b/c", d.labels()).unwrap();
        assert_eq!(r.lattice.lookup_twig(&ab), Lookup::Exact(2));
        assert_eq!(r.lattice.lookup_twig(&bc), Lookup::Exact(1));
        let ac = parse_twig_in("a/c", d.labels()).unwrap();
        assert_eq!(
            r.lattice.lookup_twig(&ac),
            Lookup::Exact(0),
            "a/c does not occur"
        );
    }

    #[test]
    fn figure1_lattice() {
        let d = doc("<computer><laptops>\
               <laptop><brand/><price/></laptop>\
               <laptop><brand/><price/></laptop>\
             </laptops><desktops/></computer>");
        let r = mine(&d, MineConfig::with_max_size(3));
        let q = parse_twig_in("laptop[brand][price]", d.labels()).unwrap();
        assert_eq!(r.lattice.lookup_twig(&q), Lookup::Exact(2));
    }

    #[test]
    fn shared_index_mine_matches_owned() {
        let d = Dataset::Xmark.generate(GenConfig {
            seed: 11,
            target_elements: 1200,
        });
        let index = DocIndex::new(&d);
        let cfg = MineConfig {
            max_size: 3,
            threads: 1,
        };
        let owned = mine(&d, cfg);
        let shared = mine_with_index(&index, cfg);
        assert_eq!(owned.lattice.len(), shared.lattice.len());
        for (key, count) in owned.lattice.iter() {
            assert_eq!(shared.lattice.stored(key), Some(count));
        }
        assert_eq!(owned.candidates_per_level, shared.candidates_per_level);
    }

    /// Brute-force check: every mined count equals the exact matcher's
    /// count, and every occurring pattern is present.
    #[test]
    fn mined_counts_agree_with_exact_matcher() {
        let d = Dataset::Psd.generate(GenConfig {
            seed: 9,
            target_elements: 800,
        });
        let r = mine(
            &d,
            MineConfig {
                max_size: 4,
                threads: 1,
            },
        );
        let counter = tl_twig::MatchCounter::new(&d);
        let mut checked = 0;
        for size in 1..=4 {
            for (key, count) in r.lattice.iter_level(size) {
                let twig = key.decode();
                assert_eq!(
                    counter.count(&twig),
                    count,
                    "mined count mismatch for {:?}",
                    twig.to_query_string(d.labels())
                );
                checked += 1;
            }
        }
        assert!(checked > 50, "only {checked} patterns checked");
    }

    #[test]
    fn parallel_equals_serial() {
        let d = Dataset::Xmark.generate(GenConfig {
            seed: 4,
            target_elements: 3000,
        });
        let serial = mine(
            &d,
            MineConfig {
                max_size: 4,
                threads: 1,
            },
        );
        let parallel = mine(
            &d,
            MineConfig {
                max_size: 4,
                threads: 4,
            },
        );
        assert_eq!(serial.lattice.len(), parallel.lattice.len());
        for (key, count) in serial.lattice.iter() {
            assert_eq!(parallel.lattice.stored(key), Some(count));
        }
    }

    #[test]
    fn all_subpatterns_of_stored_patterns_are_stored() {
        // Downward closure: the lattice is closed under leaf removal.
        let d = Dataset::Nasa.generate(GenConfig {
            seed: 2,
            target_elements: 1500,
        });
        let r = mine(
            &d,
            MineConfig {
                max_size: 4,
                threads: 1,
            },
        );
        for size in 2..=4 {
            for (key, _) in r.lattice.iter_level(size) {
                let twig = key.decode();
                for rnode in twig.removable_nodes() {
                    let sub = twig.remove_node(rnode);
                    assert!(
                        r.lattice.stored(&key_of(&sub)).is_some(),
                        "missing sub-pattern of a stored pattern"
                    );
                }
            }
        }
    }

    #[test]
    fn duplicate_sibling_patterns_counted_injectively() {
        let d = doc("<a><b/><b/><b/></a>");
        let r = mine(&d, MineConfig::with_max_size(3));
        // Pattern a[b][b]: 3 * 2 = 6 ordered injective pairs.
        let labels = d.labels().clone();
        let (a, b) = (labels.get("a").unwrap(), labels.get("b").unwrap());
        let mut q = Twig::single(a);
        q.add_child(q.root(), b);
        q.add_child(q.root(), b);
        assert_eq!(r.lattice.lookup_twig(&q), Lookup::Exact(6));
        assert_eq!(count_matches(&d, &q), 6);
    }

    #[test]
    fn mining_stops_when_a_level_is_empty() {
        let d = doc("<a><b/></a>");
        let r = mine(&d, MineConfig::with_max_size(6));
        // Only patterns: a, b, a/b — levels 3.. are empty.
        assert_eq!(r.lattice.len(), 3);
    }

    #[test]
    fn candidates_reported_per_level() {
        let d = doc("<a><b><c/></b></a>");
        let r = mine(&d, MineConfig::with_max_size(3));
        assert_eq!(r.candidates_per_level.len(), 3);
        assert_eq!(r.candidates_per_level[0], 3);
        assert!(r.candidates_per_level[1] >= 2);
    }

    #[test]
    fn observed_mining_reports_per_level_stats() {
        let d = doc("<a><b><c/></b><b/></a>");
        let index = DocIndex::new(&d);
        let cfg = MineConfig {
            max_size: 3,
            threads: 1,
        };
        let rec = tl_obs::MetricsRecorder::new();
        let observed = mine_with_index_observed(&index, cfg, &rec);
        let plain = mine_with_index(&index, cfg);
        assert_eq!(observed.lattice.len(), plain.lattice.len());
        for (key, count) in plain.lattice.iter() {
            assert_eq!(observed.lattice.stored(key), Some(count));
        }
        let snap = rec.snapshot();
        assert_eq!(snap.counters[tl_obs::names::MINER_RUNS], 1);
        assert_eq!(snap.spans[tl_obs::names::SPAN_MINE].count, 1);
        // Per-level stats reconcile with the report and the aggregates.
        for (i, &n) in observed.candidates_per_level.iter().enumerate() {
            let level = i + 1;
            assert_eq!(
                snap.counters[&format!("miner.level{level}.candidates")],
                n as u64
            );
        }
        let kept: u64 = (1..=3)
            .map(|l| snap.counters[&format!("miner.level{l}.kept")])
            .sum();
        assert_eq!(snap.counters[tl_obs::names::MINER_KEPT], kept);
        assert_eq!(kept, observed.lattice.len() as u64);
        assert_eq!(
            snap.counters[tl_obs::names::MINER_CANDIDATES],
            observed.candidates_per_level.iter().sum::<usize>() as u64
        );
        assert_eq!(snap.spans["miner.level2"].count, 1);
    }

    #[test]
    fn recursive_structure_patterns() {
        let d = doc("<s><s><s/><s/></s></s>");
        let r = mine(&d, MineConfig::with_max_size(3));
        let labels = d.labels().clone();
        let s = labels.get("s").unwrap();
        // s/s edges: (1,2),(2,3),(2,4) = 3.
        assert_eq!(
            r.lattice.lookup_twig(&Twig::path(&[s, s])),
            Lookup::Exact(3)
        );
        // s/s/s chains: (1,2,3),(1,2,4) = 2.
        assert_eq!(
            r.lattice.lookup_twig(&Twig::path(&[s, s, s])),
            Lookup::Exact(2)
        );
        // s[s][s]: node 2 has two s children: 2 ordered pairs.
        let mut q = Twig::single(s);
        q.add_child(q.root(), s);
        q.add_child(q.root(), s);
        assert_eq!(r.lattice.lookup_twig(&q), Lookup::Exact(2));
    }
}
