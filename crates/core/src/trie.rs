//! A byte-trie map over canonical twig keys.
//!
//! §4.2 of the paper reports that the authors tried a prefix-tree store for
//! the lattice statistics and found hash tables faster ("quite a bit of
//! pointer chasing"). We keep a compact array-backed trie implementation so
//! the claim is *measurable* in this reproduction (see the `summary_lookup`
//! criterion bench) rather than folklore. The trie is not used on the hot
//! estimation path.

/// Map from byte strings to `u64` counts, stored as an array-indexed trie.
///
/// Nodes hold sorted `(byte, child)` edge lists; lookup does a binary
/// search per byte. Construction order does not affect lookup results.
#[derive(Clone, Debug, Default)]
pub struct TrieMap {
    nodes: Vec<TrieNode>,
    len: usize,
}

#[derive(Clone, Debug, Default)]
struct TrieNode {
    edges: Vec<(u8, u32)>,
    value: Option<u64>,
}

impl TrieMap {
    /// Creates an empty trie.
    pub fn new() -> Self {
        Self {
            nodes: vec![TrieNode::default()],
            len: 0,
        }
    }

    /// Number of stored keys.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the trie stores nothing.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Inserts `key -> value`, returning the previous value if any.
    pub fn insert(&mut self, key: &[u8], value: u64) -> Option<u64> {
        let mut cur = 0usize;
        for &b in key {
            cur = match self.nodes[cur].edges.binary_search_by_key(&b, |e| e.0) {
                Ok(i) => self.nodes[cur].edges[i].1 as usize,
                Err(i) => {
                    let id = self.nodes.len() as u32;
                    self.nodes.push(TrieNode::default());
                    self.nodes[cur].edges.insert(i, (b, id));
                    id as usize
                }
            };
        }
        let old = self.nodes[cur].value.replace(value);
        if old.is_none() {
            self.len += 1;
        }
        old
    }

    /// Looks up `key`.
    pub fn get(&self, key: &[u8]) -> Option<u64> {
        let mut cur = 0usize;
        for &b in key {
            match self.nodes[cur].edges.binary_search_by_key(&b, |e| e.0) {
                Ok(i) => cur = self.nodes[cur].edges[i].1 as usize,
                Err(_) => return None,
            }
        }
        self.nodes[cur].value
    }

    /// Approximate heap usage in bytes.
    pub fn heap_bytes(&self) -> usize {
        self.nodes.len() * std::mem::size_of::<TrieNode>()
            + self
                .nodes
                .iter()
                .map(|n| n.edges.capacity() * std::mem::size_of::<(u8, u32)>())
                .sum::<usize>()
    }
}

/// Builds a trie over every `(key, count)` in a summary.
pub fn trie_of_summary(summary: &crate::Summary) -> TrieMap {
    let mut t = TrieMap::new();
    for (key, count) in summary.iter() {
        t.insert(key.as_bytes(), count);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_roundtrip() {
        let mut t = TrieMap::new();
        assert_eq!(t.insert(b"abc", 1), None);
        assert_eq!(t.insert(b"abd", 2), None);
        assert_eq!(t.insert(b"ab", 3), None);
        assert_eq!(t.get(b"abc"), Some(1));
        assert_eq!(t.get(b"abd"), Some(2));
        assert_eq!(t.get(b"ab"), Some(3));
        assert_eq!(t.get(b"a"), None);
        assert_eq!(t.get(b"abcd"), None);
        assert_eq!(t.len(), 3);
    }

    #[test]
    fn reinsert_replaces() {
        let mut t = TrieMap::new();
        t.insert(b"k", 1);
        assert_eq!(t.insert(b"k", 9), Some(1));
        assert_eq!(t.get(b"k"), Some(9));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn empty_key_is_a_valid_key() {
        let mut t = TrieMap::new();
        assert!(t.is_empty());
        t.insert(b"", 7);
        assert_eq!(t.get(b""), Some(7));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn trie_of_summary_contains_every_pattern() {
        let _fp = tl_fault::failpoints::shared();
        let doc = tl_xml::parse_document(
            b"<r><a><b/><c/></a><a><b/></a></r>",
            tl_xml::ParseOptions::default(),
        )
        .unwrap();
        let mined = tl_miner::mine(&doc, tl_miner::MineConfig::with_max_size(3));
        let summary = mined.lattice;
        let trie = trie_of_summary(&summary);
        assert_eq!(trie.len(), summary.len());
        for (key, count) in summary.iter() {
            assert_eq!(trie.get(key.as_bytes()), Some(count));
        }
    }

    #[test]
    fn agrees_with_hashmap_on_random_keys() {
        use std::collections::HashMap;
        let mut t = TrieMap::new();
        let mut m: HashMap<Vec<u8>, u64> = HashMap::new();
        // Deterministic pseudo-random byte strings.
        let mut state = 0x2545F4914F6CDD1Du64;
        for i in 0..500 {
            let mut key = Vec::new();
            let len = (state >> 5) as usize % 12;
            for _ in 0..len {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                key.push((state >> 33) as u8);
            }
            t.insert(&key, i);
            m.insert(key, i);
        }
        for (k, v) in &m {
            assert_eq!(t.get(k), Some(*v));
        }
        assert_eq!(t.len(), m.len());
    }
}
