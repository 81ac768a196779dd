//! Dense interning of canonical twig encodings.
//!
//! The estimation hot path identifies sub-twigs by their canonical byte
//! encoding ([`crate::canonical`]). Hashing and cloning those byte strings on
//! every cache probe is pure overhead once a sub-twig has been seen: the
//! interner assigns each distinct encoding a dense [`TwigId`] exactly once,
//! after which every layer above (engine shards, per-query evaluation DAGs)
//! addresses the sub-twig by a `u32`. The design follows the label-interner /
//! rank-array precedent in `tl_xml::DocIndex`: content-addressed dense ids,
//! stored in the key-to-id direction only.
//!
//! Ids are content-addressed and never recycled, so they are stable across
//! summary generations — invalidation stays a per-value concern and the id
//! space only grows with the set of *distinct* sub-twigs ever referenced.

use tl_xml::FxHashMap;

use crate::canonical::TwigKey;

/// A dense id for a canonical twig encoding, assigned by [`TwigInterner`] in
/// first-sighting order starting at 0.
pub type TwigId = u32;

/// Maps canonical twig encodings to dense [`TwigId`]s, once per encoding.
///
/// Probes by raw `&[u8]` are allocation-free (via the `Borrow<[u8]>` bridge
/// on [`TwigKey`]); the encoding bytes are cloned exactly once, into the
/// map's key, when an id is first assigned.
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
/// ```
#[derive(Debug, Default)]
pub struct TwigInterner {
    ids: FxHashMap<TwigKey, TwigId>,
}

impl TwigInterner {
    /// An empty interner.
    pub fn new() -> Self {
        Self::default()
    }

    /// Looks up the id of an encoding without interning it. Never allocates.
    pub fn get(&self, bytes: &[u8]) -> Option<TwigId> {
        self.ids.get(bytes).copied()
    }

    /// Interns an encoding, returning its id and the number of key bytes
    /// cloned: `0` when the encoding was already present (a *warm* probe),
    /// `bytes.len()` when this call assigned a fresh id. Callers use the
    /// second component as the "zero key bytes cloned on warm probes"
    /// evidence.
    pub fn intern_bytes(&mut self, bytes: &[u8]) -> (TwigId, usize) {
        if let Some(&id) = self.ids.get(bytes) {
            return (id, 0);
        }
        let id = u32::try_from(self.ids.len()).expect("more than u32::MAX distinct twigs");
        self.ids.insert(TwigKey::from_raw(bytes.into()), id);
        (id, bytes.len())
    }

    /// Interns a [`TwigKey`], returning its dense id.
    pub fn intern(&mut self, key: &TwigKey) -> TwigId {
        self.intern_bytes(key.as_bytes()).0
    }

    /// Number of distinct encodings interned (the interner occupancy).
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Whether nothing has been interned yet.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Approximate heap footprint: the map's table plus the stored
    /// encodings, each kept once as its key.
    pub fn heap_bytes(&self) -> usize {
        let encodings: usize = self.ids.keys().map(|k| k.as_bytes().len()).sum();
        encodings + self.ids.capacity() * (std::mem::size_of::<(TwigKey, TwigId)>() + 1)
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
            assert_eq!(it.intern(k), i as TwigId);
        }
        assert_eq!(it.len(), 4);
        // Re-interning in any order returns the original ids.
        for (i, k) in ks.iter().enumerate().rev() {
            assert_eq!(it.intern(k), i as TwigId);
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
        let id = it.intern(&ks[0]);
        assert_eq!(it.get(ks[0].as_bytes()), Some(id));
        assert_eq!(it.len(), 1);
    }

    #[test]
    fn heap_bytes_grows_with_occupancy() {
        let ks = keys(8);
        let mut it = TwigInterner::new();
        let empty = it.heap_bytes();
        for k in &ks {
            it.intern(k);
        }
        assert!(it.heap_bytes() > empty);
    }
}
