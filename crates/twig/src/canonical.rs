//! Canonical encoding of unordered labeled twigs.
//!
//! Definition 1's match semantics are unordered: sibling order in the query
//! does not affect selectivity. The lattice summary must therefore key
//! patterns by their isomorphism class. We use the classic recursive
//! canonical form: the encoding of a node is its label followed by the
//! lexicographically *sorted* encodings of its children, wrapped in
//! open/close sentinels. Two twigs are isomorphic iff their encodings are
//! byte-equal.
//!
//! Labels are written as fixed-width big-endian `u32`s, so label bytes can
//! never be confused with the sentinels (`0x01` open, `0x02` close are legal
//! label bytes but appear at fixed offsets within each node record).
//!
//! Every subtree is therefore one contiguous byte range, and every run of
//! siblings is sorted. [`RemovalView`] uses both to write the encodings of
//! a twig's decomposition operands straight from the twig's own bytes.

use std::fmt;

use serde::{Deserialize, Serialize};
use tl_xml::LabelId;

use crate::twig::{Twig, TwigNodeId};

/// A canonical key for a twig: byte-equal exactly for isomorphic twigs.
///
/// `TwigKey` is the hash key of the lattice summary. It also orders twigs
/// (lexicographically by encoding), which gives mining a deterministic
/// candidate order.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct TwigKey(Box<[u8]>);

impl TwigKey {
    /// The raw encoded bytes.
    pub fn as_bytes(&self) -> &[u8] {
        &self.0
    }

    /// Number of nodes in the encoded twig (each node contributes exactly
    /// [`NODE_BYTES`]).
    pub fn node_count(&self) -> usize {
        self.0.len() / NODE_BYTES
    }

    /// The label of the encoded twig's root.
    pub fn root_label(&self) -> LabelId {
        debug_assert!(self.0.len() >= NODE_BYTES);
        LabelId(u32::from_be_bytes([
            self.0[0], self.0[1], self.0[2], self.0[3],
        ]))
    }

    /// In-memory footprint in bytes (encoding plus the count it maps to),
    /// used for the summary size accounting of Table 3 / Fig. 10.
    pub fn heap_bytes(&self) -> usize {
        self.0.len() + std::mem::size_of::<u64>()
    }

    /// Wraps raw bytes as a key without validation. Intended for
    /// deserialization paths, which should validate the bytes with
    /// [`check_encoding`] before trusting the key.
    pub fn from_raw(bytes: Box<[u8]>) -> TwigKey {
        TwigKey(bytes)
    }

    /// Non-panicking decode: returns `None` if the bytes are not a valid
    /// canonical encoding (see [`check_encoding`]).
    pub fn try_decode(&self) -> Option<Twig> {
        check_encoding(&self.0, usize::MAX)?;
        Some(self.decode())
    }

    /// Decodes the key back into a twig (children in canonical order).
    ///
    /// # Panics
    ///
    /// Panics if the bytes are not a valid encoding (cannot happen for keys
    /// produced by [`key_of`]).
    pub fn decode(&self) -> Twig {
        assert!(self.0.len() >= NODE_BYTES, "corrupt twig key");
        let mut t = Twig::single(self.root_label());
        self.decode_into(&mut t);
        t
    }

    /// Decodes into an existing twig, reusing its buffers. Equivalent to
    /// `*out = self.decode()` but without reallocating the node vectors;
    /// hot estimator loops pass the same scratch twig repeatedly.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`TwigKey::decode`].
    pub fn decode_into(&self, out: &mut Twig) {
        decode_bytes_into(&self.0, out);
    }
}

/// [`TwigKey::decode_into`] over raw encoding bytes, for callers (the
/// interner-backed evaluation DAG) that hold an encoding without a boxed key.
///
/// # Panics
///
/// Panics if the bytes are not a valid canonical encoding.
pub fn decode_bytes_into(b: &[u8], out: &mut Twig) {
    assert!(
        b.len() >= NODE_BYTES && b.len().is_multiple_of(NODE_BYTES),
        "corrupt twig key"
    );
    let mut pos = 0usize;
    let root_label = read_label(b, &mut pos);
    assert_eq!(b[pos], OPEN, "corrupt twig key");
    pos += 1;
    out.reset(root_label);
    decode_children(b, &mut pos, out, 0);
    assert_eq!(b[pos], CLOSE, "corrupt twig key");
    pos += 1;
    assert_eq!(pos, b.len(), "trailing bytes in twig key");
}

/// Allocation-free hash-map probes: a `FxHashMap<TwigKey, V>` can be probed
/// by raw encoding bytes. Sound because `TwigKey`'s derived `Hash`/`Eq`
/// forward to the wrapped `[u8]`, so `k.borrow()` hashes and compares
/// identically to `k` itself.
impl std::borrow::Borrow<[u8]> for TwigKey {
    fn borrow(&self) -> &[u8] {
        &self.0
    }
}

fn read_label(b: &[u8], pos: &mut usize) -> LabelId {
    let l = LabelId(u32::from_be_bytes([
        b[*pos],
        b[*pos + 1],
        b[*pos + 2],
        b[*pos + 3],
    ]));
    *pos += 4;
    l
}

fn decode_children(b: &[u8], pos: &mut usize, t: &mut Twig, parent: TwigNodeId) {
    while *pos < b.len() && b[*pos] != CLOSE {
        let label = read_label(b, pos);
        assert_eq!(b[*pos], OPEN, "corrupt twig key");
        *pos += 1;
        let id = t.add_child(parent, label);
        decode_children(b, pos, t, id);
        assert_eq!(b[*pos], CLOSE, "corrupt twig key");
        *pos += 1;
    }
}

impl fmt::Debug for TwigKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "TwigKey({} nodes)", self.node_count())
    }
}

const OPEN: u8 = 0x01;
const CLOSE: u8 = 0x02;

/// Bytes per node in a canonical encoding: the 4-byte label, then the open
/// and close sentinels. An encoding of `n` nodes is `n * NODE_BYTES` long.
pub const NODE_BYTES: usize = 6;

/// Checks that `bytes` is a well-formed canonical encoding of at most
/// [`crate::twig::MAX_TWIG_NODES`] nodes, every label below `label_bound`,
/// and returns its node count; `None` if it is not. Each node must be a
/// label followed by the open sentinel, every node must be closed, and
/// nothing may follow the root's close. One pass, no allocation, no twig
/// built: persisted summaries check every stored key with it on load.
/// Sibling order is not checked.
pub fn check_encoding(bytes: &[u8], label_bound: usize) -> Option<usize> {
    if bytes.len() > crate::twig::MAX_TWIG_NODES * NODE_BYTES {
        return None;
    }
    let (mut pos, mut depth, mut nodes) = (0usize, 0usize, 0usize);
    while pos < bytes.len() {
        if depth > 0 && bytes[pos] == CLOSE {
            depth -= 1;
            pos += 1;
            continue;
        }
        if depth == 0 && nodes > 0 {
            return None;
        }
        let label = bytes.get(pos..pos + 4)?;
        let label = u32::from_be_bytes(label.try_into().expect("4 bytes"));
        if bytes.get(pos + 4) != Some(&OPEN) || label as usize >= label_bound {
            return None;
        }
        depth += 1;
        nodes += 1;
        pos += 5;
    }
    (nodes > 0 && depth == 0).then_some(nodes)
}

/// Computes the canonical key of `twig`.
///
/// # Examples
///
/// ```
/// use tl_xml::LabelInterner;
/// use tl_twig::{canonical::key_of, Twig};
///
/// let mut it = LabelInterner::new();
/// let (a, b, c) = (it.intern("a"), it.intern("b"), it.intern("c"));
/// // a[b][c] and a[c][b] are isomorphic.
/// let mut t1 = Twig::single(a);
/// t1.add_child(t1.root(), b);
/// t1.add_child(t1.root(), c);
/// let mut t2 = Twig::single(a);
/// t2.add_child(t2.root(), c);
/// t2.add_child(t2.root(), b);
/// assert_eq!(key_of(&t1), key_of(&t2));
/// ```
pub fn key_of(twig: &Twig) -> TwigKey {
    TwigKey(encode_node(twig, twig.root()).into_boxed_slice())
}

/// Canonical key of the subtree of `twig` rooted at `node`.
pub fn key_of_subtree(twig: &Twig, node: TwigNodeId) -> TwigKey {
    TwigKey(encode_node(twig, node).into_boxed_slice())
}

fn encode_node(t: &Twig, n: TwigNodeId) -> Vec<u8> {
    let mut child_encodings: Vec<Vec<u8>> =
        t.children(n).iter().map(|&c| encode_node(t, c)).collect();
    child_encodings.sort_unstable();
    let total: usize = NODE_BYTES + child_encodings.iter().map(Vec::len).sum::<usize>();
    let mut out = Vec::with_capacity(total);
    out.extend_from_slice(&t.label(n).0.to_be_bytes());
    out.push(OPEN);
    for ce in child_encodings {
        out.extend_from_slice(&ce);
    }
    out.push(CLOSE);
    out
}

/// A pooled canonical encoder: [`key_of`] without the per-call allocations.
///
/// `key_of` allocates one `Vec<u8>` per node (child encodings collected,
/// sorted, concatenated) and a boxed key for the result. The encoder keeps a
/// pool of child buffers and writes the encoding into a caller-supplied
/// `Vec<u8>`, so a hot loop that encodes millions of sub-twigs reuses the
/// same handful of allocations. Output bytes are identical to `key_of`:
/// children are encoded in twig order into pooled buffers, sorted
/// lexicographically by content (the same comparison `encode_node` applies
/// to its freshly collected vectors), and concatenated.
#[derive(Debug, Default)]
pub struct KeyEncoder {
    /// Free-list of child encoding buffers, recycled across calls.
    pool: Vec<Vec<u8>>,
    /// In-flight child encodings; each recursion level operates on the
    /// suffix it pushed, so nested multi-child nodes nest like stack frames.
    stack: Vec<Vec<u8>>,
}

impl KeyEncoder {
    /// An encoder with empty pools.
    pub fn new() -> Self {
        Self::default()
    }

    /// Writes the canonical encoding of `twig` into `out` (cleared first).
    /// The bytes equal `key_of(twig).as_bytes()`.
    pub fn encode_into(&mut self, twig: &Twig, out: &mut Vec<u8>) {
        out.clear();
        self.encode_node_into(twig, twig.root(), out);
    }

    /// Writes the canonical encoding of the subtree of `twig` rooted at
    /// `node` into `out` (cleared first). The bytes equal
    /// `key_of_subtree(twig, node).as_bytes()`.
    pub fn encode_subtree_into(&mut self, twig: &Twig, node: TwigNodeId, out: &mut Vec<u8>) {
        out.clear();
        self.encode_node_into(twig, node, out);
    }

    fn encode_node_into(&mut self, t: &Twig, n: TwigNodeId, out: &mut Vec<u8>) {
        out.extend_from_slice(&t.label(n).0.to_be_bytes());
        out.push(OPEN);
        let children = t.children(n);
        match children.len() {
            0 => {}
            // A single child needs no sort: encode it straight into `out`.
            1 => self.encode_node_into(t, children[0], out),
            _ => {
                let start = self.stack.len();
                for i in 0..children.len() {
                    let c = t.children(n)[i];
                    let mut buf = self.pool.pop().unwrap_or_default();
                    buf.clear();
                    self.encode_node_into(t, c, &mut buf);
                    self.stack.push(buf);
                }
                self.stack[start..].sort_unstable();
                for i in start..self.stack.len() {
                    out.extend_from_slice(&self.stack[i]);
                }
                while self.stack.len() > start {
                    self.pool.push(self.stack.pop().expect("suffix non-empty"));
                }
            }
        }
        out.push(CLOSE);
    }
}

/// One canonical encoding, indexed so that the encodings of its
/// decomposition operands can be written without decoding it.
///
/// Lemma 1's operands of a twig `T` are `T − x` for a removable node `x`
/// and `T − u − v` for a removable pair. Removing a leaf changes the
/// encoding of its ancestors only, so the view copies every untouched
/// subtree as a byte slice and re-emits just those ancestors. Each one
/// re-inserts its changed child into its already-sorted run of siblings;
/// at the lowest common ancestor of a removed pair there are two changed
/// children. Removing a degree-1 root leaves its only child's subtree. The
/// bytes written equal `key_of` of the operands that
/// [`crate::ops::decompose_pair`] builds on the decoded twig.
///
/// Node ids are pre-order positions in the encoding, which are exactly the
/// node ids of [`TwigKey::decode`]'s twig. One view is meant to be reused:
/// [`RemovalView::load`] keeps every buffer's capacity.
#[derive(Debug, Default)]
pub struct RemovalView {
    /// The loaded encoding.
    bytes: Vec<u8>,
    /// Per node: the byte range of its subtree's encoding.
    spans: Vec<(u32, u32)>,
    /// Per node: its parent, [`NO_PARENT`] for the root.
    parents: Vec<u32>,
    /// Removable nodes in [`crate::ops::removable_pairs`] order.
    removable: Vec<TwigNodeId>,
    /// Per node, for the operand being written: what becomes of it.
    fates: Vec<Fate>,
    /// Re-emitted encodings of the changed ancestors.
    rebuilt: Vec<u8>,
    /// Nodes still open while `load` parses.
    open: Vec<u32>,
}

const NO_PARENT: u32 = u32::MAX;

/// What becomes of one node of `T` in the operand being written.
#[derive(Clone, Copy, Debug)]
enum Fate {
    /// Untouched: its subtree's bytes are copied as they are.
    Kept,
    /// One of the removed nodes.
    Removed,
    /// An ancestor of a removed node, not yet re-emitted.
    Changed,
    /// Re-emitted into `rebuilt[start..end]`.
    Rebuilt(u32, u32),
}

impl RemovalView {
    /// An empty view; [`load`](Self::load) an encoding before use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Indexes `bytes`, a canonical encoding (as produced by [`key_of`]),
    /// replacing whatever the view held.
    ///
    /// # Panics
    ///
    /// Panics if the bytes are not a valid canonical encoding.
    pub fn load(&mut self, bytes: &[u8]) {
        assert!(
            bytes.len() >= NODE_BYTES && bytes.len().is_multiple_of(NODE_BYTES),
            "corrupt twig key"
        );
        self.bytes.clear();
        self.bytes.extend_from_slice(bytes);
        self.spans.clear();
        self.parents.clear();
        self.open.clear();
        let mut pos = 0usize;
        while pos < bytes.len() {
            match self.open.last() {
                Some(&node) if bytes[pos] == CLOSE => {
                    self.spans[node as usize].1 = (pos + 1) as u32;
                    self.open.pop();
                    pos += 1;
                }
                parent => {
                    assert!(
                        parent.is_some() || self.spans.is_empty(),
                        "corrupt twig key"
                    );
                    assert_eq!(bytes.get(pos + 4), Some(&OPEN), "corrupt twig key");
                    let parent = parent.copied().unwrap_or(NO_PARENT);
                    self.open.push(self.spans.len() as u32);
                    self.spans.push((pos as u32, 0));
                    self.parents.push(parent);
                    pos += 5;
                }
            }
        }
        assert!(self.open.is_empty(), "corrupt twig key");
        // Leaves in pre-order, then a degree-1 root: `Twig::removable_nodes`
        // on the decoded twig.
        self.removable.clear();
        for (node, &(start, end)) in self.spans.iter().enumerate() {
            if end - start == NODE_BYTES as u32 {
                self.removable.push(node as TwigNodeId);
            }
        }
        if self.spans.len() >= 2 && self.spans[1].1 + 1 == self.spans[0].1 {
            self.removable.push(0);
        }
    }

    /// The removable nodes, in the order [`crate::ops::removable_pairs`]
    /// pairs them on the decoded twig: leaves in pre-order, then the root
    /// if it has degree 1.
    pub fn removable(&self) -> &[TwigNodeId] {
        &self.removable
    }

    /// Appends the canonical encoding of `T − x` to `out`.
    ///
    /// # Panics
    ///
    /// Panics if `x` is not removable or is the twig's only node.
    pub fn write_minus_one(&mut self, x: TwigNodeId, out: &mut Vec<u8>) {
        self.write_without(&[x], out);
    }

    /// Appends the canonical encoding of `T − u − v` to `out`.
    ///
    /// # Panics
    ///
    /// Panics if `u == v`, either node is not removable, or nothing would
    /// be left.
    pub fn write_minus_two(&mut self, u: TwigNodeId, v: TwigNodeId, out: &mut Vec<u8>) {
        assert!(u != v, "decomposition nodes must differ");
        self.write_without(&[u, v], out);
    }

    fn write_without(&mut self, removed: &[TwigNodeId], out: &mut Vec<u8>) {
        let n = self.spans.len();
        assert!(n > removed.len(), "nothing would be left");
        self.fates.clear();
        self.fates.resize(n, Fate::Kept);
        for &x in removed {
            assert!(self.removable.contains(&x), "node {x} is not removable");
            self.fates[x as usize] = Fate::Removed;
        }
        for &x in removed {
            let mut p = self.parents[x as usize];
            while p != NO_PARENT && matches!(self.fates[p as usize], Fate::Kept) {
                self.fates[p as usize] = Fate::Changed;
                p = self.parents[p as usize];
            }
        }
        // A removed degree-1 root hands the twig to its only child, which
        // for three or more nodes is not itself a leaf.
        let top = usize::from(matches!(self.fates[0], Fate::Removed));
        self.rebuilt.clear();
        // Children follow their parent in pre-order, so one descending
        // sweep re-emits every changed node after its changed children.
        for node in (top..n).rev() {
            if matches!(self.fates[node], Fate::Changed) {
                self.rebuild(node);
            }
        }
        match self.fates[top] {
            Fate::Kept => {
                let (start, end) = self.spans[top];
                out.extend_from_slice(&self.bytes[start as usize..end as usize]);
            }
            Fate::Rebuilt(start, end) => {
                out.extend_from_slice(&self.rebuilt[start as usize..end as usize]);
            }
            Fate::Removed | Fate::Changed => unreachable!("the new root survives, re-emitted"),
        }
    }

    /// Re-emits changed `node` into `rebuilt`: its label, then its kept
    /// children's byte slices merged with its re-emitted children in sorted
    /// order, skipping removed ones.
    fn rebuild(&mut self, node: usize) {
        let (start, end) = self.spans[node];
        let first_child = node + 1;
        let next_sibling =
            |spans: &[(u32, u32)], c: usize| c + (spans[c].1 - spans[c].0) as usize / NODE_BYTES;
        // At most two children changed: one per removed node below.
        let mut changed = [(0u32, 0u32); 2];
        let mut n_changed = 0;
        let mut c = first_child;
        while c < self.spans.len() && self.spans[c].0 < end {
            if let Fate::Rebuilt(s, e) = self.fates[c] {
                changed[n_changed] = (s, e);
                n_changed += 1;
            }
            c = next_sibling(&self.spans, c);
        }
        let slice = |(s, e): (u32, u32)| s as usize..e as usize;
        if n_changed == 2 && self.rebuilt[slice(changed[1])] < self.rebuilt[slice(changed[0])] {
            changed.swap(0, 1);
        }
        let out_start = self.rebuilt.len();
        self.rebuilt
            .extend_from_slice(&self.bytes[start as usize..start as usize + 5]);
        let mut next = 0;
        let mut c = first_child;
        while c < self.spans.len() && self.spans[c].0 < end {
            if matches!(self.fates[c], Fate::Kept) {
                let kept = &self.bytes[slice(self.spans[c])];
                while next < n_changed && self.rebuilt[slice(changed[next])] < *kept {
                    self.rebuilt.extend_from_within(slice(changed[next]));
                    next += 1;
                }
                self.rebuilt.extend_from_slice(kept);
            }
            c = next_sibling(&self.spans, c);
        }
        for &range in &changed[next..n_changed] {
            self.rebuilt.extend_from_within(slice(range));
        }
        self.rebuilt.push(CLOSE);
        self.fates[node] = Fate::Rebuilt(out_start as u32, self.rebuilt.len() as u32);
    }
}

/// Returns a structurally canonical copy of `twig`: same isomorphism class,
/// children everywhere in canonical (sorted-encoding) order, nodes numbered
/// in pre-order. Canonical twigs of isomorphic inputs are identical values.
pub fn canonicalize(twig: &Twig) -> Twig {
    key_of(twig).decode()
}

/// Whether two twigs are isomorphic as unordered labeled trees.
pub fn isomorphic(a: &Twig, b: &Twig) -> bool {
    a.len() == b.len() && key_of(a) == key_of(b)
}

#[cfg(test)]
mod tests {
    use tl_xml::LabelInterner;

    use super::*;

    fn labels(n: usize) -> Vec<LabelId> {
        let mut it = LabelInterner::new();
        (0..n).map(|i| it.intern(&format!("l{i}"))).collect()
    }

    #[test]
    fn sibling_order_is_ignored() {
        let l = labels(3);
        let mut t1 = Twig::single(l[0]);
        t1.add_child(t1.root(), l[1]);
        t1.add_child(t1.root(), l[2]);
        let mut t2 = Twig::single(l[0]);
        t2.add_child(t2.root(), l[2]);
        t2.add_child(t2.root(), l[1]);
        assert!(isomorphic(&t1, &t2));
    }

    #[test]
    fn deep_reordering_is_ignored() {
        let l = labels(4);
        // a[b[c][d]] vs a[b[d][c]]
        let mut t1 = Twig::single(l[0]);
        let b1 = t1.add_child(t1.root(), l[1]);
        t1.add_child(b1, l[2]);
        t1.add_child(b1, l[3]);
        let mut t2 = Twig::single(l[0]);
        let b2 = t2.add_child(t2.root(), l[1]);
        t2.add_child(b2, l[3]);
        t2.add_child(b2, l[2]);
        assert_eq!(key_of(&t1), key_of(&t2));
    }

    #[test]
    fn different_structures_differ() {
        let l = labels(3);
        // a[b[c]] vs a[b][c]
        let mut t1 = Twig::single(l[0]);
        let b = t1.add_child(t1.root(), l[1]);
        t1.add_child(b, l[2]);
        let mut t2 = Twig::single(l[0]);
        t2.add_child(t2.root(), l[1]);
        t2.add_child(t2.root(), l[2]);
        assert_ne!(key_of(&t1), key_of(&t2));
    }

    #[test]
    fn different_labels_differ() {
        let l = labels(3);
        let t1 = Twig::path(&[l[0], l[1]]);
        let t2 = Twig::path(&[l[0], l[2]]);
        assert_ne!(key_of(&t1), key_of(&t2));
    }

    #[test]
    fn node_count_from_key() {
        let l = labels(3);
        let mut t = Twig::single(l[0]);
        let b = t.add_child(t.root(), l[1]);
        t.add_child(b, l[2]);
        t.add_child(t.root(), l[2]);
        assert_eq!(key_of(&t).node_count(), 4);
        assert_eq!(key_of(&t).root_label(), l[0]);
    }

    #[test]
    fn decode_round_trips() {
        let l = labels(5);
        let mut t = Twig::single(l[0]);
        let b = t.add_child(t.root(), l[4]);
        t.add_child(b, l[2]);
        t.add_child(b, l[1]);
        t.add_child(t.root(), l[3]);
        let key = key_of(&t);
        let decoded = key.decode();
        assert_eq!(decoded.len(), t.len());
        assert_eq!(key_of(&decoded), key);
    }

    #[test]
    fn decode_into_reuses_buffers_and_matches_decode() {
        let l = labels(5);
        let mut t = Twig::single(l[0]);
        let b = t.add_child(t.root(), l[4]);
        t.add_child(b, l[2]);
        t.add_child(t.root(), l[3]);
        let big = key_of(&t);
        let small = key_of(&Twig::path(&[l[0], l[1]]));
        let mut scratch = Twig::single(l[0]);
        big.decode_into(&mut scratch);
        assert_eq!(scratch, big.decode());
        // Shrinking reuse: a larger previous decode must not leak nodes.
        small.decode_into(&mut scratch);
        assert_eq!(scratch, small.decode());
        big.decode_into(&mut scratch);
        assert_eq!(key_of(&scratch), big);
    }

    #[test]
    fn canonicalize_is_idempotent_and_deterministic() {
        let l = labels(4);
        let mut t1 = Twig::single(l[0]);
        t1.add_child(t1.root(), l[3]);
        let b1 = t1.add_child(t1.root(), l[1]);
        t1.add_child(b1, l[2]);
        let mut t2 = Twig::single(l[0]);
        let b2 = t2.add_child(t2.root(), l[1]);
        t2.add_child(b2, l[2]);
        t2.add_child(t2.root(), l[3]);
        let c1 = canonicalize(&t1);
        let c2 = canonicalize(&t2);
        assert_eq!(
            c1, c2,
            "canonical copies of isomorphic twigs are equal values"
        );
        assert_eq!(canonicalize(&c1), c1, "idempotent");
    }

    #[test]
    fn identical_sibling_subtrees_allowed() {
        let l = labels(2);
        let mut t = Twig::single(l[0]);
        t.add_child(t.root(), l[1]);
        t.add_child(t.root(), l[1]);
        let key = key_of(&t);
        assert_eq!(key.node_count(), 3);
        assert_eq!(key_of(&key.decode()), key);
    }

    #[test]
    fn subtree_key_matches_extracted_subtwig() {
        let l = labels(4);
        let mut t = Twig::single(l[0]);
        let b = t.add_child(t.root(), l[1]);
        t.add_child(b, l[3]);
        t.add_child(b, l[2]);
        let sub = t.subtwig(&[b, t.children(b)[0], t.children(b)[1]]);
        assert_eq!(key_of_subtree(&t, b), key_of(&sub));
    }

    #[test]
    fn try_decode_accepts_valid_and_rejects_corrupt() {
        let l = labels(3);
        let mut t = Twig::single(l[0]);
        let b = t.add_child(t.root(), l[1]);
        t.add_child(b, l[2]);
        let key = key_of(&t);
        let ok = key.try_decode().unwrap();
        assert_eq!(key_of(&ok), key);

        // Corrupt framing variants.
        let raw = key.as_bytes().to_vec();
        assert!(TwigKey::from_raw(raw[..raw.len() - 1].into())
            .try_decode()
            .is_none());
        let mut flipped = raw.clone();
        flipped[4] = 0x07; // clobber the root OPEN sentinel
        assert!(TwigKey::from_raw(flipped.into()).try_decode().is_none());
        let mut unbalanced = raw;
        let last = unbalanced.len() - 1;
        unbalanced[last] = 0x01; // CLOSE -> OPEN
        assert!(TwigKey::from_raw(unbalanced.into()).try_decode().is_none());
        assert!(TwigKey::from_raw(Box::from(&b""[..]))
            .try_decode()
            .is_none());
    }

    #[test]
    fn check_encoding_counts_nodes_and_bounds_labels() {
        let l = labels(3);
        let mut t = Twig::single(l[0]);
        let b = t.add_child(t.root(), l[1]);
        t.add_child(b, l[2]);
        t.add_child(t.root(), l[2]);
        let raw = key_of(&t).as_bytes().to_vec();
        assert_eq!(check_encoding(&raw, 3), Some(4));
        assert_eq!(check_encoding(&raw, 2), None, "label 2 is out of range");
        // Two roots side by side are not one encoding.
        let single = key_of(&Twig::single(l[0])).as_bytes().to_vec();
        assert_eq!(check_encoding(&single, 1), Some(1));
        assert_eq!(check_encoding(&[single.clone(), single].concat(), 1), None);
        // The largest twig passes; one node more does not.
        let chain = |n: usize| {
            let mut b = [0u8, 0, 0, 0, OPEN].repeat(n);
            b.extend(std::iter::repeat_n(CLOSE, n));
            b
        };
        let most = crate::twig::MAX_TWIG_NODES;
        assert_eq!(check_encoding(&chain(most), 1), Some(most));
        assert_eq!(check_encoding(&chain(most + 1), 1), None);
        assert!(TwigKey::from_raw(chain(most).into()).try_decode().is_some());
        assert!(TwigKey::from_raw(chain(most + 1).into())
            .try_decode()
            .is_none());
    }

    #[test]
    fn key_encoder_matches_key_of() {
        let l = labels(5);
        // A mix of shapes: deep chain, bushy root, nested multi-child with
        // identical siblings — everything that exercises the sort paths.
        let mut shapes: Vec<Twig> = Vec::new();
        shapes.push(Twig::single(l[0]));
        shapes.push(Twig::path(&[l[0], l[1], l[2], l[3]]));
        let mut bushy = Twig::single(l[0]);
        bushy.add_child(bushy.root(), l[4]);
        bushy.add_child(bushy.root(), l[1]);
        let b = bushy.add_child(bushy.root(), l[2]);
        bushy.add_child(b, l[3]);
        bushy.add_child(b, l[1]);
        bushy.add_child(b, l[1]);
        shapes.push(bushy);
        let mut enc = KeyEncoder::new();
        let mut buf = Vec::new();
        for t in &shapes {
            enc.encode_into(t, &mut buf);
            assert_eq!(
                buf.as_slice(),
                key_of(t).as_bytes(),
                "pooled encoding diverged"
            );
        }
        // Re-encoding with warm pools is still identical.
        for t in shapes.iter().rev() {
            enc.encode_into(t, &mut buf);
            assert_eq!(buf.as_slice(), key_of(t).as_bytes());
        }
        // Subtree encoding matches key_of_subtree for every node.
        for t in &shapes {
            for n in t.nodes() {
                enc.encode_subtree_into(t, n, &mut buf);
                assert_eq!(buf.as_slice(), key_of_subtree(t, n).as_bytes());
            }
        }
    }

    #[test]
    fn borrowed_byte_probes_hit_keyed_maps() {
        use std::collections::HashMap;
        let l = labels(3);
        let t = Twig::path(&[l[0], l[1], l[2]]);
        let key = key_of(&t);
        let mut map: HashMap<TwigKey, u64> = HashMap::new();
        map.insert(key.clone(), 7);
        let bytes = key.as_bytes().to_vec();
        assert_eq!(map.get(bytes.as_slice()), Some(&7));
    }

    #[test]
    fn decode_bytes_into_matches_decode_into() {
        let l = labels(4);
        let mut t = Twig::single(l[0]);
        let b = t.add_child(t.root(), l[2]);
        t.add_child(b, l[1]);
        t.add_child(t.root(), l[3]);
        let key = key_of(&t);
        let mut via_key = Twig::single(l[0]);
        let mut via_bytes = Twig::single(l[0]);
        key.decode_into(&mut via_key);
        decode_bytes_into(key.as_bytes(), &mut via_bytes);
        assert_eq!(via_key, via_bytes);
    }

    #[test]
    fn key_ordering_is_total_and_stable() {
        let l = labels(3);
        let k1 = key_of(&Twig::path(&[l[0], l[1]]));
        let k2 = key_of(&Twig::path(&[l[0], l[2]]));
        assert!(k1 < k2 || k2 < k1);
    }

    /// Random twigs of 3–12 nodes over a three-label alphabet, so that
    /// equal-label siblings and identical sibling subtrees are common. A
    /// third of them grow as near-chains and a third under a degree-1 root.
    struct ArbTwig;

    impl proptest::strategy::Strategy for ArbTwig {
        type Value = Twig;

        fn generate(&self, rng: &mut proptest::test_runner::TestRng) -> Twig {
            let n = 3 + rng.below(10) as u32;
            let shape = rng.below(3);
            let mut t = Twig::single(LabelId(rng.below(3) as u32));
            for i in 1..n {
                let parent = match shape {
                    0 => rng.below(u64::from(i)) as u32,
                    1 => i - 1 - rng.below(u64::from(i.min(2))) as u32,
                    _ if i == 1 => 0,
                    _ => 1 + rng.below(u64::from(i - 1)) as u32,
                };
                t.add_child(parent, LabelId(rng.below(3) as u32));
            }
            t
        }
    }

    proptest::proptest! {
        /// The view lists the removable nodes in `removable_pairs` order,
        /// and for every pair the bytes it derives for `T − v`, `T − u` and
        /// `T − u − v` equal the keys of `decompose_pair`'s operands.
        #[test]
        fn removal_view_derives_decompose_pair_operands(twig in ArbTwig) {
            use crate::ops::{decompose_pair, removable_pairs};
            let key = key_of(&twig);
            let decoded = key.decode();
            let mut view = RemovalView::new();
            view.load(key.as_bytes());
            proptest::prop_assert_eq!(view.removable().to_vec(), decoded.removable_nodes());
            let r = view.removable().to_vec();
            let mut view_pairs = Vec::new();
            for i in 0..r.len() {
                for j in i + 1..r.len() {
                    view_pairs.push((r[i], r[j]));
                }
            }
            proptest::prop_assert_eq!(&view_pairs, &removable_pairs(&decoded));
            for (u, v) in view_pairs {
                let d = decompose_pair(&decoded, u, v);
                let want = [key_of(&d.t1), key_of(&d.t2), key_of(&d.t12)];
                let mut got = [Vec::new(), Vec::new(), Vec::new()];
                view.write_minus_one(v, &mut got[0]);
                view.write_minus_one(u, &mut got[1]);
                view.write_minus_two(u, v, &mut got[2]);
                for (g, w) in got.iter().zip(&want) {
                    proptest::prop_assert_eq!(g.as_slice(), w.as_bytes(), "pair ({}, {})", u, v);
                }
            }
        }
    }

    #[test]
    fn removal_view_appends_and_handles_the_smallest_twigs() {
        let l = labels(2);
        let mut view = RemovalView::new();
        view.load(key_of(&Twig::single(l[0])).as_bytes());
        assert_eq!(view.removable(), &[0]);
        // a/b: both nodes removable, leaf first; each removal leaves one.
        view.load(key_of(&Twig::path(&[l[0], l[1]])).as_bytes());
        assert_eq!(view.removable(), &[1, 0]);
        let mut out = vec![9u8];
        view.write_minus_one(1, &mut out);
        view.write_minus_one(0, &mut out);
        let mut want = vec![9u8];
        want.extend_from_slice(key_of(&Twig::single(l[0])).as_bytes());
        want.extend_from_slice(key_of(&Twig::single(l[1])).as_bytes());
        assert_eq!(out, want, "writes append");
    }

    #[test]
    #[should_panic(expected = "not removable")]
    fn removal_view_rejects_an_inner_node() {
        let l = labels(3);
        let mut view = RemovalView::new();
        view.load(key_of(&Twig::path(&[l[0], l[1], l[2]])).as_bytes());
        view.write_minus_one(1, &mut Vec::new());
    }
}
