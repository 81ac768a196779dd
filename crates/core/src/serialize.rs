//! Binary (de)serialization of a [`TreeLattice`] summary.
//!
//! The summary is the artifact a query optimizer ships and loads at startup,
//! so it has a compact, versioned, self-describing binary format with an
//! integrity frame:
//!
//! ```text
//! magic "TLAT" | u8 version | u32 crc32(payload) | u64 payload-len
//! | payload:
//!   u32 label-count | labels (u16 len + utf8)*
//!   | u8 k | per level: u8 pruned-flag, u32 entry-count,
//!     entries (u16 key-len, key bytes, u64 count)*
//! ```
//!
//! All integers are little-endian. The frame makes truncation and
//! bit-flips detectable *before* structural parsing: a length mismatch or
//! checksum failure is reported as [`ReadError::Corrupt`] without touching
//! the payload decoder. Structural validation (label references, key
//! sizes, level placement) still runs afterwards as defense in depth
//! against crafted files whose checksum is valid. Every failure is a typed
//! error — never a panic — and converts to
//! [`tl_fault::FaultKind::CorruptSummary`] via `From<ReadError> for Fault`.

use bytes::{Buf, BufMut};
use tl_fault::{failpoints, Fault, FaultKind};
use tl_twig::TwigKey;
use tl_xml::{FxHashMap, LabelInterner};

use crate::summary::Summary;
use crate::TreeLattice;

pub(crate) const MAGIC: &[u8; 4] = b"TLAT";
/// Version 2 introduced the crc32 + length integrity frame; version-1
/// files (no frame) are no longer readable and re-serialize on upgrade.
pub(crate) const VERSION: u8 = 2;
/// Bytes before the payload: magic, version, crc32, payload length.
pub(crate) const HEADER_LEN: usize = 4 + 1 + 4 + 8;

/// Deserialization failure.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ReadError {
    /// Input does not start with the format magic.
    BadMagic,
    /// Unsupported format version.
    BadVersion(u8),
    /// Input ended before a field was complete.
    Truncated(&'static str),
    /// The integrity frame rejected the payload (length mismatch,
    /// checksum failure, or trailing garbage).
    Corrupt(&'static str),
    /// A label string was not valid UTF-8.
    BadLabel,
    /// A pattern key was structurally invalid or on the wrong level.
    BadKey,
}

impl std::fmt::Display for ReadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReadError::BadMagic => write!(f, "not a TreeLattice summary (bad magic)"),
            ReadError::BadVersion(v) => write!(f, "unsupported summary version {v}"),
            ReadError::Truncated(what) => write!(f, "truncated input while reading {what}"),
            ReadError::Corrupt(what) => write!(f, "corrupt summary file: {what}"),
            ReadError::BadLabel => write!(f, "label is not valid UTF-8"),
            ReadError::BadKey => write!(f, "corrupt pattern key"),
        }
    }
}

impl std::error::Error for ReadError {}

impl From<ReadError> for Fault {
    fn from(err: ReadError) -> Self {
        Fault::new(FaultKind::CorruptSummary, err.to_string())
    }
}

/// IEEE CRC-32 (the zlib/PNG polynomial), table-driven. Implemented
/// locally so persistence needs no external dependency.
pub(crate) fn crc32(bytes: &[u8]) -> u32 {
    static TABLE: std::sync::OnceLock<[u32; 256]> = std::sync::OnceLock::new();
    let table = TABLE.get_or_init(|| {
        let mut table = [0u32; 256];
        for (i, slot) in table.iter_mut().enumerate() {
            let mut c = i as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 {
                    0xedb8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
            }
            *slot = c;
        }
        table
    });
    let mut crc = !0u32;
    for &b in bytes {
        crc = table[((crc ^ u32::from(b)) & 0xff) as usize] ^ (crc >> 8);
    }
    !crc
}

/// Serializes `lattice` into a byte vector.
pub fn to_bytes(lattice: &TreeLattice) -> Vec<u8> {
    let summary = lattice.summary();
    let labels = lattice.labels();
    let mut payload = Vec::with_capacity(summary.heap_bytes() + labels.len() * 12 + 64);
    payload.put_u32_le(labels.len() as u32);
    for (_, name) in labels.iter() {
        // The parser bounds names at tl_xml::parser::MAX_NAME_BYTES, far
        // below u16::MAX; a longer label here means a caller bypassed the
        // parser, and truncating would corrupt the file.
        assert!(
            name.len() <= u16::MAX as usize,
            "label too long to serialize"
        );
        payload.put_u16_le(name.len() as u16);
        payload.put_slice(name.as_bytes());
    }
    let k = summary.max_size();
    debug_assert!(k <= u8::MAX as usize);
    payload.put_u8(k as u8);
    for size in 1..=k {
        payload.put_u8(u8::from(summary.is_pruned(size)));
        // Canonical order: hash-map iteration depends on insertion history,
        // so sort by key bytes to make serialization a pure function of the
        // summary's content (round trips are byte-identical).
        let mut entries: Vec<(&TwigKey, u64)> = summary.iter_level(size).collect();
        entries.sort_unstable_by_key(|(key, _)| key.as_bytes());
        payload.put_u32_le(entries.len() as u32);
        for (key, count) in entries {
            let bytes = key.as_bytes();
            debug_assert!(bytes.len() <= u16::MAX as usize);
            payload.put_u16_le(bytes.len() as u16);
            payload.put_slice(bytes);
            payload.put_u64_le(count);
        }
    }
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
    out.put_slice(MAGIC);
    out.put_u8(VERSION);
    out.put_u32_le(crc32(&payload));
    out.put_u64_le(payload.len() as u64);
    out.extend_from_slice(&payload);
    out
}

/// Parses a serialized lattice, verifying the integrity frame first.
pub fn from_bytes(input: &[u8]) -> Result<TreeLattice, ReadError> {
    if input.len() < 4 || &input[..4] != MAGIC {
        return Err(ReadError::BadMagic);
    }
    if input.len() < 5 {
        return Err(ReadError::Truncated("version"));
    }
    let version = input[4];
    if version != VERSION {
        return Err(ReadError::BadVersion(version));
    }
    if input.len() < HEADER_LEN {
        return Err(ReadError::Truncated("integrity frame"));
    }
    let expected_crc = u32::from_le_bytes(input[5..9].try_into().expect("4 bytes"));
    let expected_len = u64::from_le_bytes(input[9..HEADER_LEN].try_into().expect("8 bytes"));
    let payload = &input[HEADER_LEN..];
    if (payload.len() as u64) < expected_len {
        return Err(ReadError::Truncated("payload"));
    }
    if payload.len() as u64 > expected_len {
        return Err(ReadError::Corrupt("trailing bytes after payload"));
    }
    // Chaos hook: flip one payload byte *before* verification, asserting
    // the checksum actually catches single-bit corruption end to end.
    let corrupted;
    let payload = if failpoints::fire(failpoints::sites::SUMMARY_CORRUPT) && !payload.is_empty() {
        let mut copy = payload.to_vec();
        let mid = copy.len() / 2;
        copy[mid] ^= 0x01;
        corrupted = copy;
        &corrupted[..]
    } else {
        payload
    };
    if crc32(payload) != expected_crc {
        return Err(ReadError::Corrupt("checksum mismatch"));
    }
    parse_payload(payload)
}

/// Parses the structural payload (everything after the frame).
fn parse_payload(mut input: &[u8]) -> Result<TreeLattice, ReadError> {
    let buf = &mut input;
    if buf.remaining() < 4 {
        return Err(ReadError::Truncated("label count"));
    }
    let n_labels = buf.get_u32_le() as usize;
    let mut labels = LabelInterner::new();
    for _ in 0..n_labels {
        if buf.remaining() < 2 {
            return Err(ReadError::Truncated("label length"));
        }
        let len = buf.get_u16_le() as usize;
        if buf.remaining() < len {
            return Err(ReadError::Truncated("label bytes"));
        }
        let bytes = buf.copy_to_bytes(len);
        let name = std::str::from_utf8(&bytes).map_err(|_| ReadError::BadLabel)?;
        labels.intern(name);
    }
    if buf.remaining() < 1 {
        return Err(ReadError::Truncated("summary order"));
    }
    let k = buf.get_u8() as usize;
    let mut levels: Vec<FxHashMap<TwigKey, u64>> = Vec::with_capacity(k);
    let mut pruned: Vec<bool> = Vec::with_capacity(k);
    for size in 1..=k {
        if buf.remaining() < 5 {
            return Err(ReadError::Truncated("level header"));
        }
        pruned.push(buf.get_u8() != 0);
        let n = buf.get_u32_le() as usize;
        let mut level = FxHashMap::default();
        for _ in 0..n {
            if buf.remaining() < 2 {
                return Err(ReadError::Truncated("key length"));
            }
            let len = buf.get_u16_le() as usize;
            if buf.remaining() < len + 8 {
                return Err(ReadError::Truncated("key bytes"));
            }
            let key_bytes = buf.copy_to_bytes(len).to_vec();
            let count = buf.get_u64_le();
            let key = validate_key(&key_bytes, size, labels.len())?;
            level.insert(key, count);
        }
        levels.push(level);
    }
    Ok(TreeLattice::from_parts(
        labels,
        Summary::from_parts(levels, pruned),
    ))
}

/// Validates raw key bytes: decodable, right node count, known labels.
fn validate_key(bytes: &[u8], expected_size: usize, n_labels: usize) -> Result<TwigKey, ReadError> {
    if bytes.len() != expected_size * 6 {
        return Err(ReadError::BadKey);
    }
    let key = TwigKey::from_raw(bytes.to_vec().into_boxed_slice());
    let twig = key.try_decode().ok_or(ReadError::BadKey)?;
    if twig.len() != expected_size {
        return Err(ReadError::BadKey);
    }
    if twig.nodes().any(|n| twig.label(n).index() >= n_labels) {
        return Err(ReadError::BadKey);
    }
    Ok(key)
}

#[cfg(test)]
mod tests {
    use tl_xml::{parse_document, ParseOptions};

    use crate::{BuildConfig, TreeLattice};

    use super::*;

    fn sample_lattice() -> TreeLattice {
        let doc = parse_document(
            b"<r><a><b/><c/></a><a><b/></a><d><a><c/></a></d></r>",
            ParseOptions::default(),
        )
        .unwrap();
        TreeLattice::build(&doc, &BuildConfig::with_k(3))
    }

    #[test]
    fn round_trip_preserves_everything() {
        let _fp = tl_fault::failpoints::shared();
        let lat = sample_lattice();
        let bytes = to_bytes(&lat);
        let back = from_bytes(&bytes).unwrap();
        assert_eq!(back.k(), lat.k());
        assert_eq!(back.summary().len(), lat.summary().len());
        for (key, count) in lat.summary().iter() {
            assert_eq!(back.summary().stored(key), Some(count));
        }
        for (id, name) in lat.labels().iter() {
            assert_eq!(back.labels().get(name), Some(id));
        }
    }

    #[test]
    fn round_trip_preserves_pruned_flags() {
        let _fp = tl_fault::failpoints::shared();
        let mut lat = sample_lattice();
        lat.prune(0.0);
        let back = from_bytes(&to_bytes(&lat)).unwrap();
        for size in 1..=lat.k() {
            assert_eq!(
                back.summary().is_pruned(size),
                lat.summary().is_pruned(size)
            );
        }
    }

    #[test]
    fn bad_magic_rejected() {
        assert_eq!(from_bytes(b"NOPE.....").unwrap_err(), ReadError::BadMagic);
        assert_eq!(from_bytes(b"").unwrap_err(), ReadError::BadMagic);
    }

    #[test]
    fn bad_version_rejected() {
        let _fp = tl_fault::failpoints::shared();
        let mut bytes = to_bytes(&sample_lattice());
        bytes[4] = 99;
        assert_eq!(from_bytes(&bytes).unwrap_err(), ReadError::BadVersion(99));
    }

    #[test]
    fn version_1_files_are_rejected_not_misparsed() {
        let _fp = tl_fault::failpoints::shared();
        let mut bytes = to_bytes(&sample_lattice());
        bytes[4] = 1;
        assert_eq!(from_bytes(&bytes).unwrap_err(), ReadError::BadVersion(1));
    }

    #[test]
    fn truncation_rejected_at_every_prefix() {
        let _fp = tl_fault::failpoints::shared();
        let bytes = to_bytes(&sample_lattice());
        for cut in 0..bytes.len() {
            let res = from_bytes(&bytes[..cut]);
            assert!(res.is_err(), "prefix of {cut} bytes must not parse");
        }
        assert!(from_bytes(&bytes).is_ok());
    }

    #[test]
    fn every_single_byte_flip_is_rejected() {
        let _fp = tl_fault::failpoints::shared();
        // The frame guarantees *any* one-byte corruption fails typed:
        // magic/version flips hit their checks, header flips break the
        // crc or length match, payload flips break the checksum.
        let bytes = to_bytes(&sample_lattice());
        for i in 0..bytes.len() {
            for flip in [0x01u8, 0x80] {
                let mut corrupt = bytes.clone();
                corrupt[i] ^= flip;
                assert!(
                    from_bytes(&corrupt).is_err(),
                    "flip 0x{flip:02x} at byte {i} must not parse"
                );
            }
        }
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let _fp = tl_fault::failpoints::shared();
        let mut bytes = to_bytes(&sample_lattice());
        bytes.push(0);
        assert_eq!(
            from_bytes(&bytes).unwrap_err(),
            ReadError::Corrupt("trailing bytes after payload")
        );
    }

    #[test]
    fn payload_flip_reports_checksum_mismatch() {
        let _fp = tl_fault::failpoints::shared();
        let mut bytes = to_bytes(&sample_lattice());
        let last = bytes.len() - 1;
        bytes[last] ^= 0x10;
        assert_eq!(
            from_bytes(&bytes).unwrap_err(),
            ReadError::Corrupt("checksum mismatch")
        );
    }

    #[test]
    fn corrupt_key_with_valid_checksum_still_rejected() {
        let _fp = tl_fault::failpoints::shared();
        // Defense in depth: a crafted file can carry a *valid* checksum
        // over structurally broken content; key validation must catch it.
        let lat = sample_lattice();
        let mut bytes = to_bytes(&lat);
        // Locate the first level-1 key inside the payload and break its
        // structural sentinel, then re-stamp the checksum.
        let mut idx = HEADER_LEN + 4;
        for _ in 0..lat.labels().len() {
            let len = u16::from_le_bytes([bytes[idx], bytes[idx + 1]]) as usize;
            idx += 2 + len;
        }
        idx += 1; // k
        idx += 1 + 4; // level 1 header
        idx += 2; // key length
        bytes[idx + 4] = 0xEE;
        let crc = crc32(&bytes[HEADER_LEN..]);
        bytes[5..9].copy_from_slice(&crc.to_le_bytes());
        assert_eq!(from_bytes(&bytes).unwrap_err(), ReadError::BadKey);
    }

    #[test]
    fn read_error_converts_to_corrupt_summary_fault() {
        let fault: Fault = ReadError::Corrupt("checksum mismatch").into();
        assert_eq!(fault.kind, FaultKind::CorruptSummary);
        assert!(fault.message.contains("checksum"));
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard IEEE CRC-32 test vectors.
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414f_a339
        );
    }

    #[test]
    fn injected_corruption_is_caught_by_the_checksum() {
        let fp = tl_fault::failpoints::exclusive();
        let bytes = to_bytes(&sample_lattice());
        fp.with_active("summary.corrupt=always", 0, || {
            assert_eq!(
                from_bytes(&bytes).unwrap_err(),
                ReadError::Corrupt("checksum mismatch")
            );
        });
        // And the same bytes parse cleanly once the fail-point is gone.
        assert!(from_bytes(&bytes).is_ok());
    }

    #[test]
    fn estimates_survive_round_trip() {
        let _fp = tl_fault::failpoints::shared();
        let lat = sample_lattice();
        let back = from_bytes(&to_bytes(&lat)).unwrap();
        let est1 = lat.estimate_query("a[b][c]", crate::Estimator::RecursiveVoting);
        let est2 = back.estimate_query("a[b][c]", crate::Estimator::RecursiveVoting);
        assert_eq!(est1.unwrap(), est2.unwrap());
    }
}
