//! Dense interning of canonical twig encodings, in a slot table that can
//! forget.
//!
//! The estimation hot path identifies sub-twigs by their canonical byte
//! encoding ([`crate::canonical`]). Hashing and cloning those byte strings on
//! every cache probe is pure overhead once a sub-twig has been seen: the
//! interner gives each distinct encoding a slot exactly once, after which
//! every layer above (engine shards, per-query evaluation DAGs) addresses the
//! sub-twig by a [`TwigId`]. The design follows the label-interner /
//! rank-array precedent in `tl_xml::DocIndex`: content-addressed dense ids,
//! each key stored once, in its slot.
//!
//! ## The incarnation rule
//!
//! A table that never evicts assigns slots densely in first-sighting order,
//! and an id then names its encoding forever. A bounded owner (the
//! estimation engine) evicts with [`TwigInterner::evict`], a CLOCK sweep,
//! and the freed slot is reused for the next fresh encoding. Every reuse
//! bumps the slot's incarnation, and a [`TwigId`] carries both: the same
//! slot under two incarnations is two different ids. So anything keyed by a
//! full id (a cached value, a DAG node) can never answer for the encoding
//! the slot held before, even while a query that interned the old one is
//! still running.
//!
//! ## CLOCK reference bits
//!
//! Probes carry an epoch, one per query. A slot's reference bit is set when
//! a probe from an epoch other than the one that last touched it finds it,
//! so only reuse across queries counts; a query that references its own
//! fresh sub-twigs many times does not keep them alive by that alone.

use std::hash::Hasher;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};

use tl_xml::{FxHashMap, FxHasher};

/// A handle on an interned encoding: the slot that holds it and the slot's
/// incarnation (see the module docs). Two ids are equal only when both
/// agree.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TwigId {
    slot: u32,
    incarnation: u32,
}

impl TwigId {
    /// The slot index; dense in first-sighting order until the table's
    /// owner evicts.
    pub fn slot(self) -> u32 {
        self.slot
    }

    /// How many times the slot was reused before it took this encoding.
    pub fn incarnation(self) -> u32 {
        self.incarnation
    }
}

impl std::hash::Hash for TwigId {
    fn hash<H: Hasher>(&self, state: &mut H) {
        // One word, so an FxHash probe is one multiply.
        state.write_u64(u64::from(self.incarnation) << 32 | u64::from(self.slot));
    }
}

/// End of a hash chain.
const NONE: u32 = u32::MAX;

/// One encoding's slot. An empty key marks a free slot (a canonical
/// encoding is never empty).
#[derive(Debug)]
struct Slot {
    key: Box<[u8]>,
    /// The next slot whose key hashes to the same 64-bit value.
    next: u32,
    incarnation: u32,
    /// The epoch of the last probe that touched this slot.
    stamp: AtomicU32,
    /// CLOCK reference bit.
    referenced: AtomicBool,
}

/// Bytes [`TwigInterner::heap_bytes`] charges per index entry: a `(hash, slot)`
/// pair plus the hash table's control byte.
const INDEX_ENTRY_BYTES: usize = std::mem::size_of::<(u64, u32)>() + 1;

/// Maps canonical twig encodings to [`TwigId`]s, once per encoding.
///
/// Probes by raw `&[u8]` are allocation-free; the encoding bytes are cloned
/// exactly once, into the slot, when an id is first assigned.
///
/// # Examples
///
/// ```
/// use tl_twig::{canonical::key_of, interner::TwigInterner, Twig};
/// use tl_xml::LabelInterner;
///
/// let mut it = LabelInterner::new();
/// let (a, b) = (it.intern("a"), it.intern("b"));
/// let key = key_of(&Twig::path(&[a, b]));
///
/// let mut interner = TwigInterner::new();
/// let (id, cloned) = interner.intern_bytes(key.as_bytes());
/// assert_eq!(cloned, key.as_bytes().len(), "first sighting clones the key");
/// assert_eq!(interner.intern_bytes(key.as_bytes()), (id, 0), "warm probe");
/// assert_eq!(interner.get(key.as_bytes()), Some(id));
///
/// // Evicting frees the slot; its next tenant is a different id.
/// assert_eq!(interner.evict(), Some(id));
/// assert_eq!(interner.get(key.as_bytes()), None);
/// let (again, _) = interner.intern_bytes(key.as_bytes());
/// assert_eq!(again.slot(), id.slot());
/// assert_ne!(again, id);
/// ```
#[derive(Debug, Default)]
pub struct TwigInterner {
    /// Key hash → first slot of its chain.
    index: FxHashMap<u64, u32>,
    slots: Vec<Slot>,
    /// Free slots, reused before the table grows.
    free: Vec<u32>,
    /// The CLOCK hand: the next slot [`evict`](Self::evict) examines.
    hand: usize,
    key_bytes: usize,
}

fn hash_of(bytes: &[u8]) -> u64 {
    let mut h = FxHasher::default();
    h.write(bytes);
    // This crate's unit tests fold every key onto four hash values, so the
    // chains that real 64-bit collisions would build are exercised.
    if cfg!(test) {
        h.finish() & 3
    } else {
        h.finish()
    }
}

impl TwigInterner {
    /// An empty interner.
    pub fn new() -> Self {
        Self::default()
    }

    /// Looks up the id of an encoding without interning it or touching its
    /// reference bit. Never allocates.
    pub fn get(&self, bytes: &[u8]) -> Option<TwigId> {
        self.find(hash_of(bytes), bytes)
    }

    /// [`get`](Self::get) for a probe made in `epoch`: a hit sets the slot's
    /// reference bit unless the same epoch touched it last. Takes `&self`,
    /// so concurrent probes can share a read lock.
    pub fn probe(&self, bytes: &[u8], epoch: u32) -> Option<TwigId> {
        let id = self.get(bytes)?;
        let slot = &self.slots[id.slot as usize];
        if slot.stamp.load(Ordering::Relaxed) != epoch {
            slot.stamp.store(epoch, Ordering::Relaxed);
            slot.referenced.store(true, Ordering::Relaxed);
        }
        Some(id)
    }

    fn find(&self, hash: u64, bytes: &[u8]) -> Option<TwigId> {
        let mut s = *self.index.get(&hash)?;
        while s != NONE {
            let slot = &self.slots[s as usize];
            if *slot.key == *bytes {
                return Some(TwigId {
                    slot: s,
                    incarnation: slot.incarnation,
                });
            }
            s = slot.next;
        }
        None
    }

    /// Interns an encoding, returning its id and the number of key bytes
    /// cloned: `0` when the encoding was already present (a *warm* probe),
    /// `bytes.len()` when this call assigned a fresh id. Callers use the
    /// second component as the "zero key bytes cloned on warm probes"
    /// evidence.
    pub fn intern_bytes(&mut self, bytes: &[u8]) -> (TwigId, usize) {
        match self.get(bytes) {
            Some(id) => (id, 0),
            None => (self.insert(bytes, 0), bytes.len()),
        }
    }

    /// Gives `bytes`, which must not be interned yet, a slot: a free one
    /// if any, a new one otherwise. `epoch` is the inserting query's, so
    /// its own later probes do not set the reference bit.
    pub fn insert(&mut self, bytes: &[u8], epoch: u32) -> TwigId {
        debug_assert!(!bytes.is_empty(), "a canonical encoding is never empty");
        debug_assert!(self.get(bytes).is_none(), "{bytes:?} is interned already");
        let s = match self.free.pop() {
            Some(s) => s,
            None => {
                let s = u32::try_from(self.slots.len())
                    .ok()
                    .filter(|&s| s != NONE)
                    .expect("more than u32::MAX - 1 interned twigs");
                self.slots.push(Slot {
                    key: Box::default(),
                    next: NONE,
                    incarnation: 0,
                    stamp: AtomicU32::new(0),
                    referenced: AtomicBool::new(false),
                });
                s
            }
        };
        let next = self.index.insert(hash_of(bytes), s).unwrap_or(NONE);
        let slot = &mut self.slots[s as usize];
        slot.key = bytes.into();
        slot.next = next;
        *slot.stamp.get_mut() = epoch;
        *slot.referenced.get_mut() = false;
        self.key_bytes += bytes.len();
        TwigId {
            slot: s,
            incarnation: slot.incarnation,
        }
    }

    /// Advances the CLOCK hand to the first live slot whose reference bit
    /// is clear, clearing the bits it passes, and frees that slot. Returns
    /// the evicted id, or `None` when nothing is interned. The slot's next
    /// tenant gets the next incarnation.
    pub fn evict(&mut self) -> Option<TwigId> {
        if self.is_empty() {
            return None;
        }
        // Every live slot is passed at most twice: once to clear its bit,
        // once to evict it.
        loop {
            let s = self.hand;
            self.hand = (self.hand + 1) % self.slots.len();
            let slot = &mut self.slots[s];
            if slot.key.is_empty() {
                continue;
            }
            if std::mem::take(slot.referenced.get_mut()) {
                continue;
            }
            let id = TwigId {
                slot: s as u32,
                incarnation: slot.incarnation,
            };
            self.unlink(id.slot);
            let slot = &mut self.slots[s];
            self.key_bytes -= slot.key.len();
            slot.key = Box::default();
            slot.incarnation = slot.incarnation.wrapping_add(1);
            self.free.push(id.slot);
            return Some(id);
        }
    }

    /// Removes live slot `s` from its hash chain.
    fn unlink(&mut self, s: u32) {
        let slot = &self.slots[s as usize];
        let (hash, next) = (hash_of(&slot.key), slot.next);
        let head = self.index.get_mut(&hash).expect("a live slot is indexed");
        if *head == s {
            if next == NONE {
                self.index.remove(&hash);
            } else {
                *head = next;
            }
            return;
        }
        let mut prev = *head;
        while self.slots[prev as usize].next != s {
            prev = self.slots[prev as usize].next;
        }
        self.slots[prev as usize].next = next;
    }

    /// The encoding `id` names, while it is still interned under that
    /// incarnation.
    pub fn key(&self, id: TwigId) -> Option<&[u8]> {
        self.slots
            .get(id.slot as usize)
            .filter(|slot| slot.incarnation == id.incarnation && !slot.key.is_empty())
            .map(|slot| &*slot.key)
    }

    /// Number of encodings interned now (the interner occupancy).
    pub fn len(&self) -> usize {
        self.slots.len() - self.free.len()
    }

    /// Whether nothing is interned.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The table's size as a bounded owner budgets it: every slot record,
    /// free ones included, an index entry per interned encoding (a
    /// `(hash, slot)` pair and the hash table's control byte), and the key
    /// bytes. Tables count at their lengths; spare capacity is not charged.
    pub fn heap_bytes(&self) -> usize {
        self.slots.len() * std::mem::size_of::<Slot>()
            + self.len() * INDEX_ENTRY_BYTES
            + self.key_bytes
    }

    /// What interning a fresh key of `key_len` bytes adds to
    /// [`heap_bytes`](Self::heap_bytes).
    pub fn cost_of(&self, key_len: usize) -> usize {
        let record = if self.free.is_empty() {
            std::mem::size_of::<Slot>()
        } else {
            0
        };
        record + INDEX_ENTRY_BYTES + key_len
    }
}

#[cfg(test)]
mod tests {
    use tl_xml::LabelInterner;

    use super::*;
    use crate::canonical::{key_of, TwigKey};
    use crate::Twig;

    fn keys(n: usize) -> Vec<TwigKey> {
        let mut it = LabelInterner::new();
        let labels: Vec<_> = (0..=n).map(|i| it.intern(&format!("l{i}"))).collect();
        (0..n)
            .map(|i| key_of(&Twig::path(&labels[..=i + 1])))
            .collect()
    }

    #[test]
    fn ids_are_dense_and_first_sighting_ordered() {
        let ks = keys(4);
        let mut it = TwigInterner::new();
        for (i, k) in ks.iter().enumerate() {
            assert_eq!(it.intern_bytes(k.as_bytes()).0.slot(), i as u32);
        }
        assert_eq!(it.len(), 4);
        // Re-interning in any order returns the original ids.
        for (i, k) in ks.iter().enumerate().rev() {
            assert_eq!(it.intern_bytes(k.as_bytes()).0.slot(), i as u32);
        }
        assert_eq!(it.len(), 4);
    }

    #[test]
    fn warm_probes_clone_zero_bytes() {
        let ks = keys(2);
        let mut it = TwigInterner::new();
        let (id, cold) = it.intern_bytes(ks[0].as_bytes());
        assert_eq!(cold, ks[0].as_bytes().len());
        for _ in 0..10 {
            assert_eq!(it.intern_bytes(ks[0].as_bytes()), (id, 0));
        }
    }

    #[test]
    fn get_does_not_intern() {
        let ks = keys(1);
        let it_ro = TwigInterner::new();
        assert_eq!(it_ro.get(ks[0].as_bytes()), None);
        let mut it = TwigInterner::new();
        let (id, _) = it.intern_bytes(ks[0].as_bytes());
        assert_eq!(it.get(ks[0].as_bytes()), Some(id));
        assert_eq!(it.len(), 1);
    }

    #[test]
    fn heap_bytes_grows_with_occupancy() {
        let ks = keys(8);
        let mut it = TwigInterner::new();
        assert_eq!(it.heap_bytes(), 0);
        let mut expected = 0;
        for k in &ks {
            expected += it.cost_of(k.as_bytes().len());
            it.intern_bytes(k.as_bytes());
        }
        assert_eq!(it.heap_bytes(), expected);
        // An eviction gives back the key and its index entry; the record
        // stays for the next tenant.
        let evicted = it.evict().unwrap();
        let len = ks[evicted.slot() as usize].as_bytes().len();
        assert_eq!(it.heap_bytes(), expected - len - INDEX_ENTRY_BYTES);
        assert_eq!(it.cost_of(len), len + INDEX_ENTRY_BYTES, "a free record");
    }

    /// CLOCK: a slot referenced from another epoch survives one sweep; the
    /// unreferenced ones go first, in hand order.
    #[test]
    fn clock_spares_slots_reused_across_epochs() {
        let ks = keys(4);
        let mut it = TwigInterner::new();
        let ids: Vec<_> = ks.iter().map(|k| it.insert(k.as_bytes(), 1)).collect();
        // Same epoch: no reference bit. Another epoch: the bit is set.
        assert_eq!(it.probe(ks[0].as_bytes(), 1), Some(ids[0]));
        assert_eq!(it.probe(ks[1].as_bytes(), 2), Some(ids[1]));
        assert_eq!(it.evict(), Some(ids[0]));
        assert_eq!(it.evict(), Some(ids[2]));
        assert_eq!(it.evict(), Some(ids[3]));
        assert_eq!(it.evict(), Some(ids[1]), "its bit was cleared by the sweep");
        assert_eq!(it.evict(), None);
        assert!(it.is_empty());
    }

    /// A reused slot is a new id: the old one stops resolving, and keys
    /// sharing a hash chain stay reachable through evictions.
    #[test]
    fn reused_slots_get_a_new_incarnation() {
        let ks = keys(3);
        let mut it = TwigInterner::new();
        let a = it.insert(ks[0].as_bytes(), 0);
        let b = it.insert(ks[1].as_bytes(), 0);
        assert_eq!(it.evict(), Some(a));
        assert_eq!(it.key(a), None);
        assert_eq!(it.key(b), Some(ks[1].as_bytes()));
        let c = it.insert(ks[2].as_bytes(), 0);
        assert_eq!(c.slot(), a.slot());
        assert_eq!(c.incarnation(), a.incarnation() + 1);
        assert_eq!(it.key(a), None);
        assert_eq!(it.key(c), Some(ks[2].as_bytes()));
        assert_eq!(it.get(ks[0].as_bytes()), None);
        assert_eq!(it.get(ks[2].as_bytes()), Some(c));
    }

    /// Under this module's folded hash, eight keys share four chains;
    /// evicting them in CLOCK order unlinks heads and middles alike, and
    /// every key still interned stays findable throughout.
    #[test]
    fn colliding_keys_stay_findable_through_evictions() {
        let ks = keys(8);
        let mut it = TwigInterner::new();
        let ids: Vec<_> = ks.iter().map(|k| it.insert(k.as_bytes(), 0)).collect();
        assert!(it.index.len() <= 4, "keys collide");
        // Touch every other key from another epoch so evictions skip
        // around the chains.
        for k in ks.iter().step_by(2) {
            it.probe(k.as_bytes(), 1);
        }
        let mut live: Vec<_> = ids.clone();
        while let Some(victim) = it.evict() {
            live.retain(|&id| id != victim);
            assert_eq!(it.get(ks[victim.slot() as usize].as_bytes()), None);
            for &id in &live {
                let key = ks[id.slot() as usize].as_bytes();
                assert_eq!(it.get(key), Some(id));
            }
        }
        assert!(live.is_empty() && it.index.is_empty());
    }
}
