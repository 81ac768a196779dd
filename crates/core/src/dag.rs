//! The iterative decomposition-DAG evaluator: the one estimation kernel
//! behind every estimate, plain, batched, catalog-backed or resilient.
//!
//! The recursive scheme (Figure 4) re-derives the same sub-twigs constantly:
//! the three operands of neighboring removable pairs overlap in all but one
//! or two nodes, so one voting step over `p` pairs references `3p` operands
//! of which typically far fewer are distinct. The recursive formulation
//! (kept only as the differential baseline in [`crate::reference`]) hides
//! that sharing inside a byte-keyed memo probed with freshly encoded,
//! freshly boxed keys. This module makes the sharing explicit:
//!
//! 1. every sub-twig is interned to a dense [`TwigId`] once (the
//!    [`IdCache`]'s interner), after which all bookkeeping is `u32`s;
//! 2. a query is expanded — iteratively, with an explicit stack — into a
//!    *decomposition DAG* held in flat arenas (`nodes`, `pairs`): one node
//!    per distinct sub-twig, one `[t1, t2, t12]` id triple per taken
//!    removable pair, structural dedup via an id-to-node index;
//! 3. unresolved nodes are evaluated bottom-up in one pass, ordered by
//!    (size, creation index) — a valid topological order because every
//!    operand is strictly smaller than the twig it decomposes — and each
//!    unique node is evaluated exactly once, its value stored back to the
//!    shared cache so later queries in the batch resolve it on sight.
//!
//! The arithmetic per node replicates the recursion's `decompose` loop
//! verbatim (same pair enumeration order, same `<= 0` short-circuit
//! structure, same summation order), so results are bit-identical to the
//! reference recursion; the only observable difference is *eagerness* —
//! operands the recursion skipped past a zero factor still get evaluated
//! and cached, which can only add cache entries, never change a value
//! (every sub-twig's estimate is a pure function of the summary and the
//! voting class).
//!
//! Given a [`Budget`] (the degradation ladder in [`crate::resilient`]),
//! the evaluator checks the deadline before every root probe — each
//! fix-sized window included — and before it expands or evaluates each
//! node, and charges key bytes + 32 against the memory cap for every node
//! it resolves other than from the cache. A trip abandons the evaluation:
//! the cache keeps only values that were finished before it, and the
//! thread's scratch is reset on its next use. Without a budget nothing is
//! checked.
//!
//! Three cold-path economies keep single-query latency below the reference
//! engine's (the `gate.decompose.min_cold_speedup` floor): the arena
//! buffers live in a thread-local [`DagScratch`] pool, so a cold query
//! reuses the previous query's capacity instead of growing fresh vectors;
//! roots the pattern store can answer directly (within-`k` patterns —
//! exact counts or trivially-zero levels) return after one store probe
//! without touching the arenas at all; and expansion never leaves the
//! canonical byte domain. A pending node keeps its canonical bytes, and a
//! [`RemovalView`] over them writes each operand's bytes straight from the
//! parent's, copying untouched subtrees and re-emitting only the ancestors
//! of the removed nodes. `T − x` is derived once per removable node `x`
//! and shared by every pair holding it, `T − u − v` once per taken pair;
//! no operand is built as a [`Twig`] or encoded from one.
//!
//! The evaluator is generic over [`PatternStore`], so the same DAG runs
//! against the in-memory summary or the zero-copy mmap catalog (see
//! [`crate::catalog`]).

use tl_fault::{Budget, Fault};
use tl_twig::canonical::{key_of, KeyEncoder, RemovalView, NODE_BYTES};
use tl_twig::ops::{fixed_cover_with, CoverStrategy};
use tl_twig::{Twig, TwigId, TwigInterner};
use tl_xml::FxHashMap;

use crate::catalog::PatternStore;
use crate::estimator::{EstimateOptions, Estimator};
use crate::Lookup;

/// Where interned ids and resolved sub-twig estimates live during DAG
/// evaluation: the per-query implementation is [`LocalIdCache`]; the
/// engine substitutes its sharded cross-query cache.
pub(crate) trait IdCache {
    /// Interns a canonical encoding, returning its dense id.
    fn intern(&mut self, bytes: &[u8]) -> TwigId;

    /// Returns the cached estimate for an interned id, if present.
    fn lookup(&mut self, id: TwigId) -> Option<f64>;

    /// Records the estimate for an interned id.
    fn store(&mut self, id: TwigId, value: f64);
}

/// Per-query id cache: a private interner plus a dense value table. Ids are
/// dense and first-sighting ordered, so the values live in a flat vector —
/// no hashing after the intern.
#[derive(Debug, Default)]
pub(crate) struct LocalIdCache {
    interner: TwigInterner,
    values: Vec<Option<f64>>,
}

impl IdCache for LocalIdCache {
    fn intern(&mut self, bytes: &[u8]) -> TwigId {
        self.interner.intern_bytes(bytes).0
    }

    fn lookup(&mut self, id: TwigId) -> Option<f64> {
        self.values.get(id as usize).copied().flatten()
    }

    fn store(&mut self, id: TwigId, value: f64) {
        let ix = id as usize;
        if self.values.len() <= ix {
            self.values.resize(ix + 1, None);
        }
        self.values[ix] = Some(value);
    }
}

/// Evaluation statistics for one DAG build: `nodes` distinct sub-twigs
/// materialized, `refs` total references to them. `refs / nodes` is the
/// shared-sub-twig dedup ratio — strictly greater than 1 whenever
/// decomposition operands overlap.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct DagStats {
    pub nodes: u64,
    pub refs: u64,
}

/// The budget one estimation enforces, and the memory charged against it
/// so far. Without a budget every check passes without looking.
#[derive(Clone, Copy)]
struct Meter {
    budget: Option<Budget>,
    charged: u64,
}

impl Meter {
    fn new(budget: Option<&Budget>) -> Self {
        Self {
            budget: budget.copied(),
            charged: 0,
        }
    }

    fn check_deadline(&self) -> Result<(), Fault> {
        match &self.budget {
            Some(budget) => budget.check_deadline(),
            None => Ok(()),
        }
    }

    /// Charges one node resolved other than from the cache: its canonical
    /// key bytes plus 32 bytes of cache-entry overhead.
    fn charge(&mut self, key_bytes: usize) -> Result<(), Fault> {
        match &self.budget {
            Some(budget) => {
                self.charged += key_bytes as u64 + 32;
                budget.check_mem(self.charged)
            }
            None => Ok(()),
        }
    }
}

enum State {
    Resolved(f64),
    /// Awaiting bottom-up evaluation; the fields slice this node's operand
    /// triples out of the shared pair arena.
    Pending {
        first_pair: u32,
        n_pairs: u32,
    },
}

/// One distinct sub-twig: its interned id, node count, and resolution state.
struct DagNode {
    id: TwigId,
    size: u32,
    state: State,
}

/// A pending node's place on the expansion worklist: its node index, the
/// depth it expands at, and where its canonical bytes sit in
/// [`DagScratch::keys`].
struct Expansion {
    ix: u32,
    depth: usize,
    key: (u32, u32),
}

/// The operands of the node being expanded, in the canonical byte domain:
/// the view over its encoding, `T − x` for each removable node `x` derived
/// on first use, and `T − u − v` for the pair being materialized.
#[derive(Default)]
struct Operands {
    view: RemovalView,
    /// Per removable node, in view order: the byte range of `T − x` in
    /// `minus_one_bytes`, once derived.
    minus_one: Vec<Option<(u32, u32)>>,
    minus_one_bytes: Vec<u8>,
    minus_two: Vec<u8>,
}

impl Operands {
    /// Starts the expansion of the node whose canonical bytes are `key`.
    fn load(&mut self, key: &[u8]) {
        self.view.load(key);
        self.minus_one.clear();
        self.minus_one.resize(self.view.removable().len(), None);
        self.minus_one_bytes.clear();
    }

    /// The bytes of `T − x` for the `i`-th removable node, derived the
    /// first time any pair asks for them.
    fn minus_one(&mut self, i: usize) -> &[u8] {
        let (start, end) = match self.minus_one[i] {
            Some(range) => range,
            None => {
                let start = self.minus_one_bytes.len() as u32;
                let x = self.view.removable()[i];
                self.view.write_minus_one(x, &mut self.minus_one_bytes);
                let range = (start, self.minus_one_bytes.len() as u32);
                self.minus_one[i] = Some(range);
                range
            }
        };
        &self.minus_one_bytes[start as usize..end as usize]
    }

    /// The bytes of `T − u − v` for the `i`-th and `j`-th removable nodes.
    fn minus_two(&mut self, i: usize, j: usize) -> &[u8] {
        let (u, v) = (self.view.removable()[i], self.view.removable()[j]);
        self.minus_two.clear();
        self.view.write_minus_two(u, v, &mut self.minus_two);
        &self.minus_two
    }
}

/// The pooled arena storage behind a [`DagEvaluator`]: node and pair
/// arenas, the dedup index, worklists, the pending nodes' canonical bytes,
/// and the encode and operand scratch. One instance lives per thread (see
/// [`with_dag_scratch`]) and is reset — clearing lengths, keeping
/// capacities — at the start of every evaluation, so cold queries stop
/// paying the arena's allocation ramp-up after the thread's first query.
#[derive(Default)]
pub(crate) struct DagScratch {
    /// Node arena, in first-reference order.
    nodes: Vec<DagNode>,
    /// Pair arena: `[t1, t2, t12]` node indices per taken removable pair.
    pairs: Vec<[u32; 3]>,
    /// Structural dedup: interned id → node index.
    index: FxHashMap<TwigId, u32>,
    /// Node indices awaiting evaluation this round.
    pending: Vec<u32>,
    /// Expansion worklist, drained depth-first.
    build_stack: Vec<Expansion>,
    /// Canonical bytes of every node queued for expansion this evaluation.
    keys: Vec<u8>,
    encoder: KeyEncoder,
    /// The canonical bytes of the root being estimated: the root probe's
    /// (see [`estimate_dag_within`]) or [`DagEvaluator::eval_twig`]'s.
    root_key: Vec<u8>,
    operands: Operands,
    /// Evaluation order scratch for `evaluate`.
    order: Vec<u32>,
}

impl DagScratch {
    /// Clears per-evaluation state; pools and capacities survive. An
    /// evaluation abandoned on a budget trip leaves its worklist here.
    fn reset(&mut self) {
        self.nodes.clear();
        self.pairs.clear();
        self.index.clear();
        self.pending.clear();
        self.build_stack.clear();
        self.keys.clear();
        self.order.clear();
    }
}

thread_local! {
    /// One arena pool per thread: DAG evaluation never nests (no callback
    /// re-enters the estimator), so a single borrow is always available.
    static DAG_SCRATCH: std::cell::RefCell<DagScratch> =
        std::cell::RefCell::new(DagScratch::default());
}

/// Runs `f` with the thread's pooled [`DagScratch`].
fn with_dag_scratch<R>(f: impl FnOnce(&mut DagScratch) -> R) -> R {
    DAG_SCRATCH.with(|s| f(&mut s.borrow_mut()))
}

/// The explicit decomposition DAG of one query (or one batch of fix-sized
/// windows), built and evaluated without recursion against any
/// [`PatternStore`] backend.
pub(crate) struct DagEvaluator<'a, 's, 'c, C: IdCache, S: PatternStore + ?Sized> {
    store: &'s S,
    cache: &'c mut C,
    voting: bool,
    cap: usize,
    meter: Meter,
    scratch: &'a mut DagScratch,
    /// Deepest expansion reached — mirrors the recursion's depth counter:
    /// the root of each `eval_twig` expands at depth 1, its operands at 2, …
    max_depth: usize,
    refs: u64,
}

impl<'a, 's, 'c, C: IdCache, S: PatternStore + ?Sized> DagEvaluator<'a, 's, 'c, C, S> {
    fn new(
        store: &'s S,
        cache: &'c mut C,
        voting: bool,
        cap: usize,
        meter: Meter,
        scratch: &'a mut DagScratch,
    ) -> Self {
        scratch.reset();
        Self {
            store,
            cache,
            voting,
            cap,
            meter,
            scratch,
            max_depth: 0,
            refs: 0,
        }
    }

    fn stats(&self) -> DagStats {
        DagStats {
            nodes: self.scratch.nodes.len() as u64,
            refs: self.refs,
        }
    }

    /// Evaluates one twig: interns it, expands everything reachable, runs
    /// one bottom-up pass, returns the root's estimate. Callable repeatedly
    /// on the same evaluator — fix-sized windows share the node table.
    fn eval_twig(&mut self, twig: &Twig) -> Result<f64, Fault> {
        self.meter.check_deadline()?;
        let mut buf = std::mem::take(&mut self.scratch.root_key);
        self.scratch.encoder.encode_into(twig, &mut buf);
        let root = self.ensure(&buf, 1);
        self.scratch.root_key = buf;
        let root = root?;
        self.build()?;
        self.evaluate()?;
        Ok(self.resolved(root))
    }

    /// [`eval_twig`](Self::eval_twig) for a root whose canonical bytes the
    /// caller's fast-path probe already encoded into the scratch's
    /// `root_key`, interned to `id`, and looked up (missing) — the cache
    /// must see exactly one probe per root either way.
    fn eval_probed_root(&mut self, id: TwigId) -> Result<f64, Fault> {
        self.refs += 1;
        let bytes = std::mem::take(&mut self.scratch.root_key);
        let root = self.admit(&bytes, 1, id, None);
        self.scratch.root_key = bytes;
        let root = root?;
        self.build()?;
        self.evaluate()?;
        Ok(self.resolved(root))
    }

    /// Interns `bytes` and returns its node index, creating the node if this
    /// is its first reference: resolved straight from the cache or store
    /// where possible, queued for expansion otherwise. `depth` is the
    /// expansion depth the node gets *if* it needs decomposing.
    fn ensure(&mut self, bytes: &[u8], depth: usize) -> Result<u32, Fault> {
        self.refs += 1;
        let id = self.cache.intern(bytes);
        if let Some(&ix) = self.scratch.index.get(&id) {
            return Ok(ix);
        }
        let cached = self.cache.lookup(id);
        self.admit(bytes, depth, id, cached)
    }

    /// Materializes the node for a first-referenced id, given the result of
    /// its (already counted) cache lookup.
    fn admit(
        &mut self,
        bytes: &[u8],
        depth: usize,
        id: TwigId,
        cached: Option<f64>,
    ) -> Result<u32, Fault> {
        let ix = u32::try_from(self.scratch.nodes.len()).expect("DAG node arena overflow");
        let size = (bytes.len() / NODE_BYTES) as u32;
        let state = if let Some(v) = cached {
            State::Resolved(v)
        } else {
            match self.store.lookup_bytes(bytes) {
                Lookup::Exact(c) => {
                    let v = c as f64;
                    self.meter.charge(bytes.len())?;
                    self.cache.store(id, v);
                    State::Resolved(v)
                }
                Lookup::Derivable | Lookup::TooLarge => {
                    if size <= 2 {
                        // Levels 1–2 are never pruned; reaching here means
                        // the store genuinely lacks the pattern.
                        self.meter.charge(bytes.len())?;
                        self.cache.store(id, 0.0);
                        State::Resolved(0.0)
                    } else {
                        let start = self.scratch.keys.len() as u32;
                        self.scratch.keys.extend_from_slice(bytes);
                        let key = (start, self.scratch.keys.len() as u32);
                        self.scratch.build_stack.push(Expansion { ix, depth, key });
                        self.scratch.pending.push(ix);
                        // Placeholder; `expand` fills the pair slice in.
                        State::Pending {
                            first_pair: 0,
                            n_pairs: 0,
                        }
                    }
                }
            }
        };
        self.scratch.nodes.push(DagNode { id, size, state });
        self.scratch.index.insert(id, ix);
        Ok(ix)
    }

    /// Drains the expansion worklist depth-first.
    fn build(&mut self) -> Result<(), Fault> {
        while let Some(job) = self.scratch.build_stack.pop() {
            self.meter.check_deadline()?;
            self.max_depth = self.max_depth.max(job.depth);
            let mut ops = std::mem::take(&mut self.scratch.operands);
            ops.load(&self.scratch.keys[job.key.0 as usize..job.key.1 as usize]);
            let expanded = self.expand(job.ix, job.depth, &mut ops);
            self.scratch.operands = ops;
            expanded?;
        }
        Ok(())
    }

    /// Materializes one node's removable-pair operands into the arenas,
    /// straight from its canonical bytes (loaded into `ops`). `T − x` is
    /// derived once per removable node and shared by every pair holding
    /// `x`; `T − u − v` once per taken pair. Operands are ensured in the
    /// recursion's order, `T − v`, `T − u`, `T − u − v` per pair, so node
    /// ids, references and budget charges follow it exactly.
    fn expand(&mut self, ix: u32, depth: usize, ops: &mut Operands) -> Result<(), Fault> {
        let r = ops.view.removable().len();
        debug_assert!(r >= 2, "size >= 3 twigs always decompose");
        let take = if self.voting { self.cap } else { 1 };
        let n = take.min(r * (r - 1) / 2);
        let first_pair = u32::try_from(self.scratch.pairs.len()).expect("DAG pair arena overflow");
        let pairs = (0..r).flat_map(|i| (i + 1..r).map(move |j| (i, j)));
        for (i, j) in pairs.take(n) {
            let a = self.ensure(ops.minus_one(j), depth + 1)?;
            let b = self.ensure(ops.minus_one(i), depth + 1)?;
            let c = self.ensure(ops.minus_two(i, j), depth + 1)?;
            self.scratch.pairs.push([a, b, c]);
        }
        self.scratch.nodes[ix as usize].state = State::Pending {
            first_pair,
            n_pairs: n as u32,
        };
        Ok(())
    }

    /// One bottom-up pass over this round's pending nodes, smallest first.
    /// Every operand of a pending node is strictly smaller, so by the time a
    /// node is reached all its operands are resolved — either earlier this
    /// round or in a previous one. Each node's value replicates the
    /// recursion's `decompose` average over its taken pairs exactly.
    fn evaluate(&mut self) -> Result<(), Fault> {
        if self.scratch.pending.is_empty() {
            return Ok(());
        }
        std::mem::swap(&mut self.scratch.pending, &mut self.scratch.order);
        self.scratch.pending.clear();
        let order = std::mem::take(&mut self.scratch.order);
        {
            let nodes = &self.scratch.nodes;
            let mut order = order;
            order.sort_unstable_by_key(|&ix| (nodes[ix as usize].size, ix));
            self.scratch.order = order;
        }
        for i in 0..self.scratch.order.len() {
            self.meter.check_deadline()?;
            let ix = self.scratch.order[i];
            let (first, n) = match self.scratch.nodes[ix as usize].state {
                State::Pending {
                    first_pair,
                    n_pairs,
                } => (first_pair as usize, n_pairs as usize),
                State::Resolved(_) => unreachable!("pending list holds only pending nodes"),
            };
            let mut sum = 0.0;
            let mut cnt = 0usize;
            for p in first..first + n {
                let [a, b, c] = self.scratch.pairs[p];
                let e1 = self.resolved(a);
                if e1 <= 0.0 {
                    cnt += 1;
                    continue;
                }
                let e2 = self.resolved(b);
                if e2 <= 0.0 {
                    cnt += 1;
                    continue;
                }
                let e12 = self.resolved(c);
                if e12 > 0.0 {
                    sum += e1 * e2 / e12;
                }
                cnt += 1;
            }
            let value = if cnt == 0 { 0.0 } else { sum / cnt as f64 };
            let node = &mut self.scratch.nodes[ix as usize];
            self.meter.charge(node.size as usize * NODE_BYTES)?;
            node.state = State::Resolved(value);
            self.cache.store(node.id, value);
        }
        self.scratch.order.clear();
        Ok(())
    }

    fn resolved(&self, ix: u32) -> f64 {
        match self.scratch.nodes[ix as usize].state {
            State::Resolved(v) => v,
            State::Pending { .. } => unreachable!("operand evaluated before its dependent"),
        }
    }
}

/// Estimates `twig` on the DAG with no budget: infallible. Returns
/// `(estimate, max expansion depth, dag statistics)`.
pub(crate) fn estimate_dag<C: IdCache, S: PatternStore + ?Sized>(
    store: &S,
    twig: &Twig,
    estimator: Estimator,
    opts: &EstimateOptions,
    cache: &mut C,
) -> (f64, usize, DagStats) {
    estimate_dag_within(store, twig, estimator, opts, None, cache)
        .expect("unbudgeted estimation cannot fault")
}

/// Estimates `twig` on the DAG, enforcing `budget` when one is given (see
/// the module docs for where it is checked). Dispatches on the estimator
/// and canonicalizes the fix-sized covers first, so isomorphic queries get
/// identical covers. Generic over the pattern-store backend.
pub(crate) fn estimate_dag_within<C: IdCache, S: PatternStore + ?Sized>(
    store: &S,
    twig: &Twig,
    estimator: Estimator,
    opts: &EstimateOptions,
    budget: Option<&Budget>,
    cache: &mut C,
) -> Result<(f64, usize, DagStats), Fault> {
    let voting = matches!(estimator, Estimator::RecursiveVoting);
    let cap = match estimator {
        Estimator::RecursiveVoting => opts.voting_cap.max(1),
        _ => 1,
    };
    let mut meter = Meter::new(budget);
    let k = store.max_size();
    match estimator {
        Estimator::Recursive | Estimator::RecursiveVoting => with_dag_scratch(|scratch| {
            // Probe the root before building anything: on a warm cache the
            // whole query resolves to one intern and one lookup, with no
            // arena, no expansion, and no allocation.
            meter.check_deadline()?;
            scratch.encoder.encode_into(twig, &mut scratch.root_key);
            let root = &scratch.root_key;
            let id = cache.intern(root);
            if let Some(v) = cache.lookup(id) {
                // One reference, no node materialized: warm repeats raise
                // the cross-query dedup ratio instead of diluting it.
                return Ok((v, 0, DagStats { nodes: 0, refs: 1 }));
            }
            // Cold direct probe, mirroring `admit`'s resolution rules:
            // roots the store can answer (within-k exact counts, trivially
            // absent size ≤ 2 patterns) skip the arena machinery entirely.
            match store.lookup_bytes(root) {
                Lookup::Exact(c) => {
                    let v = c as f64;
                    meter.charge(root.len())?;
                    cache.store(id, v);
                    return Ok((v, 0, DagStats { nodes: 0, refs: 1 }));
                }
                Lookup::Derivable | Lookup::TooLarge if root.len() / NODE_BYTES <= 2 => {
                    meter.charge(root.len())?;
                    cache.store(id, 0.0);
                    return Ok((0.0, 0, DagStats { nodes: 0, refs: 1 }));
                }
                Lookup::Derivable | Lookup::TooLarge => {}
            }
            let mut ev = DagEvaluator::new(store, cache, voting, cap, meter, scratch);
            let value = ev.eval_probed_root(id)?;
            Ok((value, ev.max_depth, ev.stats()))
        }),
        Estimator::FixSized => estimate_fixed_dag(store, twig, k, budget, cache),
        Estimator::FixSizedVoting => with_dag_scratch(|scratch| {
            let mut ev = DagEvaluator::new(store, cache, voting, cap, meter, scratch);
            let canonical = key_of(twig).decode();
            let strategies = [CoverStrategy::AncestorsFirst, CoverStrategy::ChildrenFirst];
            let mut sum = 0.0f64;
            for &st in &strategies {
                sum += eval_fixed(&mut ev, &canonical, st, k)?;
            }
            let value = sum / strategies.len() as f64;
            Ok((value, ev.max_depth, ev.stats()))
        }),
    }
}

/// Fix-sized estimation (Lemma 3) over windows of `k` nodes: the store's
/// order for [`Estimator::FixSized`], or fewer for the `ReducedK` rung of
/// the degradation ladder and [`crate::estimate_fixed_at`]. Windows and
/// overlaps at sizes `<= k` still resolve exactly from the store; only
/// the covering is coarser. Returns what [`estimate_dag_within`] returns.
pub(crate) fn estimate_fixed_dag<C: IdCache, S: PatternStore + ?Sized>(
    store: &S,
    twig: &Twig,
    k: usize,
    budget: Option<&Budget>,
    cache: &mut C,
) -> Result<(f64, usize, DagStats), Fault> {
    with_dag_scratch(|scratch| {
        let mut ev = DagEvaluator::new(store, cache, false, 1, Meter::new(budget), scratch);
        // Canonicalize first so the pre-order cover (and hence the result)
        // is identical for isomorphic queries.
        let value = eval_fixed(
            &mut ev,
            &key_of(twig).decode(),
            CoverStrategy::AncestorsFirst,
            k,
        )?;
        Ok((value, ev.max_depth, ev.stats()))
    })
}

/// The fix-sized telescoping product (Lemma 3) over DAG-evaluated windows
/// of `k` nodes. Windows are evaluated lazily in cover order with the same
/// early-zero return as the recursive formulation, so both the value and
/// the set of evaluated windows match it exactly.
fn eval_fixed<C: IdCache, S: PatternStore + ?Sized>(
    ev: &mut DagEvaluator<'_, '_, '_, C, S>,
    twig: &Twig,
    strategy: CoverStrategy,
    k: usize,
) -> Result<f64, Fault> {
    if twig.len() <= k {
        return ev.eval_twig(twig);
    }
    assert!(
        k >= 2,
        "fix-sized estimation requires a summary of order >= 2"
    );
    let mut numerator = 1.0f64;
    let mut denominator = 1.0f64;
    for step in fixed_cover_with(twig, k, strategy) {
        let s_sub = ev.eval_twig(&step.subtree)?;
        if s_sub <= 0.0 {
            return Ok(0.0);
        }
        numerator *= s_sub;
        if let Some(overlap) = &step.overlap {
            let s_ov = ev.eval_twig(overlap)?;
            if s_ov <= 0.0 {
                return Ok(0.0);
            }
            denominator *= s_ov;
        }
    }
    Ok(numerator / denominator)
}

#[cfg(test)]
mod tests {
    use tl_twig::canonical::key_of;
    use tl_xml::LabelInterner;

    use super::*;
    use crate::estimator::{EstimateOptions, Estimator};
    use crate::reference::reference_estimate;
    use crate::Summary;

    fn summary_of(patterns: &[(&str, u64)], k: usize) -> (Summary, LabelInterner) {
        let mut it = LabelInterner::new();
        let mut levels = vec![FxHashMap::default(); k];
        for (q, c) in patterns {
            let t = tl_twig::parse_twig(q, &mut it).unwrap();
            assert!(t.len() <= k, "pattern {q} larger than k");
            levels[t.len() - 1].insert(key_of(&t), *c);
        }
        (Summary::from_parts(levels, vec![false; k]), it)
    }

    fn q(it: &mut LabelInterner, s: &str) -> Twig {
        tl_twig::parse_twig(s, it).unwrap()
    }

    /// The DAG path must agree bit-for-bit with the recursive path on every
    /// estimator, including the reported decomposition depth for queries
    /// with no zero short-circuits.
    #[test]
    fn dag_matches_recursive_path_bitwise() {
        let (s, mut it) = summary_of(
            &[
                ("a", 2),
                ("b", 4),
                ("c", 8),
                ("d", 16),
                ("a/b", 6),
                ("b/c", 12),
                ("c/d", 24),
                ("a/c", 3),
                ("a/d", 5),
                ("b/d", 7),
            ],
            2,
        );
        let queries = [
            "a/b/c/d",
            "a[b][c]",
            "a[b][c][d]",
            "a[b[c]][d]",
            "a/b[c][d]",
        ];
        let opts = EstimateOptions::default();
        for qs in queries {
            let t = q(&mut it, qs);
            for e in Estimator::ALL {
                let (rec_v, rec_d) = reference_estimate(&s, &t, e, &opts);
                let mut cache = LocalIdCache::default();
                let (dag_v, dag_d, stats) = estimate_dag(&s, &t, e, &opts, &mut cache);
                assert_eq!(rec_v.to_bits(), dag_v.to_bits(), "{e} on {qs}");
                assert!(
                    dag_d >= rec_d,
                    "DAG depth can only grow (eagerness): {e} on {qs}"
                );
                assert!(stats.refs >= stats.nodes);
            }
        }
    }

    /// Pinned DAG shape for a known query: the Markov chain `a/b/c/d` over
    /// an order-2 summary expands root → {b/c/d, a/b/c} → shared operands.
    /// Distinct sub-twigs: abcd, bcd, abc, bc, cd, c, ab, b = 8 nodes;
    /// references: 1 (root) + 3 per expansion × 3 expansions = 10, so the
    /// dedup ratio is 10/8 — the `b/c` operand is shared between branches.
    #[test]
    fn dag_node_count_is_pinned_for_markov_chain() {
        let (s, mut it) = summary_of(
            &[
                ("a", 2),
                ("b", 4),
                ("c", 8),
                ("d", 16),
                ("a/b", 6),
                ("b/c", 12),
                ("c/d", 24),
            ],
            2,
        );
        let t = q(&mut it, "a/b/c/d");
        let mut cache = LocalIdCache::default();
        let (value, depth, stats) = estimate_dag(
            &s,
            &t,
            Estimator::Recursive,
            &EstimateOptions::default(),
            &mut cache,
        );
        let expected = 6.0 * 12.0 * 24.0 / (4.0 * 8.0);
        assert!((value - expected).abs() < 1e-9);
        assert_eq!(stats.nodes, 8, "distinct sub-twigs");
        assert_eq!(stats.refs, 10, "total references");
        assert!(stats.refs > stats.nodes, "dedup ratio > 1");
        assert_eq!(depth, 2, "root at 1, b/c/d and a/b/c at 2");
    }

    /// A warm shared cache resolves repeat queries without re-expansion.
    #[test]
    fn warm_cache_resolves_without_expansion() {
        let (s, mut it) = summary_of(&[("a", 2), ("b", 4), ("c", 8), ("a/b", 6), ("b/c", 12)], 2);
        let t = q(&mut it, "a/b/c");
        let opts = EstimateOptions::default();
        let mut cache = LocalIdCache::default();
        let (cold, _, cold_stats) = estimate_dag(&s, &t, Estimator::Recursive, &opts, &mut cache);
        let (warm, warm_depth, warm_stats) =
            estimate_dag(&s, &t, Estimator::Recursive, &opts, &mut cache);
        assert_eq!(cold.to_bits(), warm.to_bits());
        assert!(cold_stats.nodes > 1);
        assert_eq!(warm_stats.nodes, 0, "no node materialized on a warm root");
        assert_eq!(warm_stats.refs, 1, "the repeat query is one reference");
        assert_eq!(warm_depth, 0, "no expansion on a warm cache");
    }

    /// A root the summary answers directly (size ≤ k) must not build a DAG
    /// even on a stone-cold cache — the cold-path economy behind the
    /// decompose gate's cold-speedup floor.
    #[test]
    fn within_k_roots_skip_the_arena_when_cold() {
        let (s, mut it) = summary_of(&[("a", 2), ("b", 4), ("a/b", 6)], 2);
        let opts = EstimateOptions::default();
        // Stored pattern: answered exactly.
        let t = q(&mut it, "a/b");
        let mut cache = LocalIdCache::default();
        let (v, depth, stats) = estimate_dag(&s, &t, Estimator::Recursive, &opts, &mut cache);
        assert_eq!(v, 6.0);
        assert_eq!(stats.nodes, 0, "no node materialized");
        assert_eq!(stats.refs, 1);
        assert_eq!(depth, 0);
        // Absent small pattern: exact zero, same shape.
        let t0 = q(&mut it, "b/a");
        let (v0, _, stats0) = estimate_dag(&s, &t0, Estimator::Recursive, &opts, &mut cache);
        assert_eq!(v0, 0.0);
        assert_eq!(stats0.nodes, 0);
        // Both roots are cached now: a repeat is a pure cache hit.
        let (v1, _, _) = estimate_dag(&s, &t, Estimator::Recursive, &opts, &mut cache);
        assert_eq!(v1.to_bits(), v.to_bits());
    }

    /// Voting over capped pairs only expands the taken pairs, like the
    /// recursion's `pairs.iter().take(cap)`.
    #[test]
    fn voting_cap_limits_expansion() {
        let (s, mut it) = summary_of(
            &[
                ("a", 2),
                ("a/b", 4),
                ("a/c", 6),
                ("a/d", 8),
                ("a[b][c]", 10),
                ("a[b][d]", 20),
                ("a[c][d]", 30),
            ],
            3,
        );
        let t = q(&mut it, "a[b][c][d]");
        let full_opts = EstimateOptions::default();
        let mut cache = LocalIdCache::default();
        let (_, _, full) = estimate_dag(&s, &t, Estimator::RecursiveVoting, &full_opts, &mut cache);
        let capped_opts = EstimateOptions {
            voting_cap: 1,
            ..EstimateOptions::default()
        };
        let mut cache2 = LocalIdCache::default();
        let (capped_v, _, capped) = estimate_dag(
            &s,
            &t,
            Estimator::RecursiveVoting,
            &capped_opts,
            &mut cache2,
        );
        assert!(capped.refs < full.refs, "cap must shrink the DAG");
        let plain = crate::estimator::estimate(&s, &t, Estimator::Recursive, &full_opts);
        assert_eq!(capped_v.to_bits(), plain.to_bits());
    }

    /// Back-to-back evaluations on one thread reuse the pooled scratch and
    /// stay bit-identical to fresh-arena evaluation (the pool only recycles
    /// capacity, never state).
    #[test]
    fn pooled_scratch_is_reset_between_queries() {
        let (s, mut it) = summary_of(
            &[
                ("a", 2),
                ("b", 4),
                ("c", 8),
                ("d", 16),
                ("a/b", 6),
                ("b/c", 12),
                ("c/d", 24),
            ],
            2,
        );
        let opts = EstimateOptions::default();
        let queries = ["a/b/c/d", "a/b/c", "b/c/d", "a/b/c/d"];
        let mut first_pass: Vec<u64> = Vec::new();
        for qs in queries {
            let t = q(&mut it, qs);
            // Fresh cache every time: every evaluation is fully cold and
            // reuses the thread's scratch left dirty by the previous one.
            let mut cache = LocalIdCache::default();
            let (v, _, _) = estimate_dag(&s, &t, Estimator::Recursive, &opts, &mut cache);
            first_pass.push(v.to_bits());
        }
        assert_eq!(first_pass[0], first_pass[3], "same query, same bits");
        // And against the recursive reference, still bit-identical.
        for (qs, bits) in queries.iter().zip(&first_pass) {
            let t = q(&mut it, qs);
            let (rec_v, _) = reference_estimate(&s, &t, Estimator::Recursive, &opts);
            assert_eq!(rec_v.to_bits(), *bits, "{qs}");
        }
    }
}
