//! Crash-consistent durability for the online feedback layer: a
//! write-ahead update log, atomic snapshots, and startup recovery.
//!
//! The paper's framework is explicitly online — true counts observed at
//! query time feed back into the summary — so a served correction must
//! survive a crash or the estimator silently forgets what it learned.
//! This module makes the [`TunedLattice`] durable:
//!
//! * **WAL** — every accepted observation is appended to `wal.log` as a
//!   length-prefixed, FNV-1a-checksummed record (the tl-wire/1 idiom)
//!   *before* it is acknowledged, under a configurable fsync policy
//!   ([`DurabilityPolicy`]).
//! * **Snapshots** — the full tuner state (summary frame + online-layer
//!   heat/clock + idempotency window, sealed under a CRC) is written
//!   temp-file → fsync → rename, and the WAL is truncated only after
//!   the snapshot is durable. Snapshot filenames encode the covered
//!   sequence number, so a crash between rename and truncation is
//!   harmless: replay skips records the snapshot already covers.
//! * **Recovery** — [`recover`] loads the newest *valid* snapshot and
//!   replays the WAL tail. A torn/partial final record is a clean
//!   end-of-log (the crash interrupted an unacknowledged append); any
//!   mid-log corruption — a bad checksum on a *complete* record, a
//!   sequence gap, an undecodable key — is a typed
//!   [`FaultKind::CorruptSummary`] fault, never a wrong answer.
//!
//! The invariant the whole design serves: after a crash at *any* point,
//! recovery yields tuner state bit-identical to a synchronous replay of
//! the acknowledged prefix. Fail-point sites (`wal.append.torn`,
//! `wal.append.short`, `wal.fsync`, `snapshot.before_rename`,
//! `snapshot.after_rename`) let the chaos suite and `gate_recovery`
//! prove it for every injected crash point.

use std::collections::VecDeque;
use std::fs::{File, OpenOptions};
use std::io::{Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use tl_fault::failpoints::{fire, sites};
use tl_fault::{fnv1a, Fault, FaultKind};
use tl_obs::{names, Recorder};
use tl_twig::canonical::key_of;
use tl_twig::{Twig, TwigKey};
use tl_xml::FxHashMap;

use crate::online::TunedLattice;
use crate::serialize::crc32;
use crate::TreeLattice;

/// When an accepted update may be acknowledged relative to stable
/// storage.
///
/// All three levels survive `kill -9` identically: the record bytes are
/// written (into the OS page cache at minimum) before the ack leaves the
/// server, and process death does not discard the page cache. The levels
/// differ only in what survives an *OS crash or power failure*.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DurabilityPolicy {
    /// `write(2)` only, never fsync. An OS crash can lose acknowledged
    /// records; a process crash cannot.
    None,
    /// fsync every [`BATCH_FSYNC_EVERY`]-th append (and always on
    /// snapshot/drain): a bounded loss window under power failure.
    Batch,
    /// fsync before every acknowledgement: an acked update is on stable
    /// storage even across power failure.
    Strict,
}

/// Appends between fsyncs under [`DurabilityPolicy::Batch`].
pub const BATCH_FSYNC_EVERY: u64 = 32;

impl DurabilityPolicy {
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "none" => Ok(Self::None),
            "batch" => Ok(Self::Batch),
            "strict" => Ok(Self::Strict),
            other => Err(format!(
                "unknown durability policy `{other}` (expected none|batch|strict)"
            )),
        }
    }
}

impl std::fmt::Display for DurabilityPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Self::None => "none",
            Self::Batch => "batch",
            Self::Strict => "strict",
        })
    }
}

/// One logged observation: the canonical pattern key and its true count,
/// stamped with a monotone sequence number and an optional client
/// idempotency key (`0` = none).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WalRecord {
    pub seq: u64,
    pub idem: u64,
    pub key: TwigKey,
    pub count: u64,
}

/// WAL file name inside the durable directory.
pub const WAL_FILE: &str = "wal.log";

/// Sanity cap on one record frame; a length prefix beyond this on a
/// complete read is corruption, not a huge pattern.
const MAX_RECORD_LEN: usize = 1 << 20;

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn get_u32(bytes: &[u8], at: &mut usize) -> Option<u32> {
    let v = bytes.get(*at..*at + 4)?;
    *at += 4;
    Some(u32::from_le_bytes(v.try_into().unwrap()))
}

fn get_u64(bytes: &[u8], at: &mut usize) -> Option<u64> {
    let v = bytes.get(*at..*at + 8)?;
    *at += 8;
    Some(u64::from_le_bytes(v.try_into().unwrap()))
}

fn corrupt(msg: impl Into<String>) -> Fault {
    Fault::corrupt_summary(msg)
}

impl WalRecord {
    /// Encodes the full frame: `u32 body-len | body | u64 fnv1a(body)`.
    fn encode(&self) -> Vec<u8> {
        let key = self.key.as_bytes();
        let mut body = Vec::with_capacity(28 + key.len());
        put_u64(&mut body, self.seq);
        put_u64(&mut body, self.idem);
        put_u32(&mut body, key.len() as u32);
        body.extend_from_slice(key);
        put_u64(&mut body, self.count);
        let mut frame = Vec::with_capacity(body.len() + 12);
        put_u32(&mut frame, body.len() as u32);
        frame.extend_from_slice(&body);
        put_u64(&mut frame, fnv1a(&body));
        frame
    }

    fn decode_body(body: &[u8]) -> Result<Self, Fault> {
        let mut at = 0;
        let err = || corrupt("wal record body truncated");
        let seq = get_u64(body, &mut at).ok_or_else(err)?;
        let idem = get_u64(body, &mut at).ok_or_else(err)?;
        let key_len = get_u32(body, &mut at).ok_or_else(err)? as usize;
        let key = body.get(at..at + key_len).ok_or_else(err)?;
        at += key_len;
        let count = get_u64(body, &mut at).ok_or_else(err)?;
        if at != body.len() {
            return Err(corrupt("wal record has trailing bytes"));
        }
        let key = TwigKey::from_raw(key.to_vec().into_boxed_slice());
        if key.try_decode().is_none() {
            return Err(corrupt(format!(
                "wal record seq {seq}: key bytes do not decode to a twig"
            )));
        }
        Ok(Self {
            seq,
            idem,
            key,
            count,
        })
    }
}

/// Result of scanning a WAL file: every complete, checksummed record
/// plus where the valid prefix ends.
pub struct WalScan {
    pub records: Vec<WalRecord>,
    /// Byte length of the valid record prefix; anything past it is a
    /// torn tail from an interrupted append.
    pub valid_len: u64,
    /// Torn-tail bytes past `valid_len` (0 on a clean log).
    pub torn_bytes: u64,
}

/// Reads every complete record, applying the torn-tail rule: running out
/// of bytes mid-record is a clean end-of-log, but a checksum mismatch on
/// a complete record — or a nonsense length prefix — is typed
/// corruption.
pub fn scan_wal(path: &Path) -> Result<WalScan, Fault> {
    let bytes = match std::fs::read(path) {
        Ok(b) => b,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
            return Ok(WalScan {
                records: Vec::new(),
                valid_len: 0,
                torn_bytes: 0,
            })
        }
        Err(e) => return Err(corrupt(format!("{}: {e}", path.display()))),
    };
    let mut records = Vec::new();
    let mut at = 0usize;
    loop {
        let start = at;
        let Some(len) = get_u32(&bytes, &mut at) else {
            // Fewer than 4 bytes left: torn length prefix.
            return Ok(scan_done(records, start, bytes.len()));
        };
        let len = len as usize;
        if at + len + 8 > bytes.len() {
            if len > MAX_RECORD_LEN {
                // Not enough bytes *and* an absurd length: we cannot
                // distinguish a torn prefix from corruption, and the
                // torn-tail rule wins only for the final record — an
                // absurd length is corruption either way.
                return Err(corrupt(format!(
                    "{}: record at byte {start} claims {len} bytes",
                    path.display()
                )));
            }
            // Torn mid-body or mid-checksum.
            return Ok(scan_done(records, start, bytes.len()));
        }
        if len > MAX_RECORD_LEN {
            return Err(corrupt(format!(
                "{}: record at byte {start} claims {len} bytes",
                path.display()
            )));
        }
        let body = &bytes[at..at + len];
        at += len;
        let sum = get_u64(&bytes, &mut at).expect("bounds checked above");
        if sum != fnv1a(body) {
            // The record is complete — all its bytes are present — so a
            // bad checksum is mid-log corruption, never a torn tail.
            return Err(corrupt(format!(
                "{}: checksum mismatch on complete record at byte {start}",
                path.display()
            )));
        }
        records.push(WalRecord::decode_body(body)?);
    }
}

fn scan_done(records: Vec<WalRecord>, valid_len: usize, total: usize) -> WalScan {
    WalScan {
        records,
        valid_len: valid_len as u64,
        torn_bytes: (total - valid_len) as u64,
    }
}

/// Appender half of the WAL. Opened by recovery (which seals any torn
/// tail off first), appends acknowledge-gating records under the
/// configured fsync policy, and repairs or poisons itself on failure so
/// a failed append can never leave a complete-but-unacknowledged record
/// behind.
#[derive(Debug)]
pub struct WalWriter {
    file: File,
    path: PathBuf,
    policy: DurabilityPolicy,
    /// Committed length: every byte below this is a complete record.
    len: u64,
    next_seq: u64,
    since_fsync: u64,
    poisoned: bool,
}

impl WalWriter {
    /// Opens (creating if absent) the log at `path`, truncating it to
    /// `valid_len` — recovery's scan told us everything past that is a
    /// torn tail, and appending after garbage would turn a clean torn
    /// tail into mid-log corruption.
    pub fn open(
        path: &Path,
        policy: DurabilityPolicy,
        next_seq: u64,
        valid_len: u64,
    ) -> Result<Self, Fault> {
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)
            .map_err(|e| corrupt(format!("{}: {e}", path.display())))?;
        file.set_len(valid_len)
            .and_then(|()| file.seek(SeekFrom::Start(valid_len)))
            .map_err(|e| corrupt(format!("{}: seal torn tail: {e}", path.display())))?;
        Ok(Self {
            file,
            path: path.to_path_buf(),
            policy,
            len: valid_len,
            next_seq,
            since_fsync: 0,
            poisoned: false,
        })
    }

    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    pub fn len(&self) -> u64 {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Winds the file back to the committed length after a failed write
    /// or fsync, so the file holds exactly the acknowledged records.
    fn repair(&mut self) -> bool {
        let ok = self
            .file
            .set_len(self.len)
            .and_then(|()| self.file.seek(SeekFrom::Start(self.len)))
            .is_ok();
        if !ok {
            self.poisoned = true;
        }
        ok
    }

    /// Appends one observation; returns its sequence number. The record
    /// gates the acknowledgement: an `Err` here means the update must
    /// not be acked (and was not applied).
    pub fn append(
        &mut self,
        idem: u64,
        key: &TwigKey,
        count: u64,
        rec: &dyn Recorder,
    ) -> Result<u64, Fault> {
        if self.poisoned {
            rec.add(names::WAL_APPEND_FAILURES, 1);
            return Err(corrupt(
                "wal poisoned by an earlier failed append; restart to recover",
            ));
        }
        let record = WalRecord {
            seq: self.next_seq,
            idem,
            key: key.clone(),
            count,
        };
        let frame = record.encode();
        // Injected torn/short writes emulate a crash mid-append: the
        // partial frame stays in the file (recovery must treat it as a
        // clean end-of-log) and the writer is poisoned, because appending
        // after garbage would manufacture mid-log corruption.
        if fire(sites::WAL_APPEND_TORN) {
            let _ = self.file.write_all(&frame[..frame.len() / 2]);
            self.poisoned = true;
            rec.add(names::WAL_APPEND_FAILURES, 1);
            return Err(Fault::injected(
                FaultKind::CorruptSummary,
                sites::WAL_APPEND_TORN,
            ));
        }
        if fire(sites::WAL_APPEND_SHORT) {
            let _ = self.file.write_all(&frame[..frame.len() - 4]);
            self.poisoned = true;
            rec.add(names::WAL_APPEND_FAILURES, 1);
            return Err(Fault::injected(
                FaultKind::CorruptSummary,
                sites::WAL_APPEND_SHORT,
            ));
        }
        if let Err(e) = self.file.write_all(&frame) {
            // An organic short write is repairable in-process: wind the
            // file back to the committed prefix and let the caller retry.
            self.repair();
            rec.add(names::WAL_APPEND_FAILURES, 1);
            return Err(corrupt(format!("{}: append: {e}", self.path.display())));
        }
        let need_fsync = match self.policy {
            DurabilityPolicy::None => false,
            DurabilityPolicy::Batch => self.since_fsync + 1 >= BATCH_FSYNC_EVERY,
            DurabilityPolicy::Strict => true,
        };
        if need_fsync {
            if let Err(fault) = self.fsync(rec) {
                // The record bytes are written but the ack contract is
                // not met: undo the record so the file holds exactly the
                // acknowledged prefix.
                self.repair();
                rec.add(names::WAL_APPEND_FAILURES, 1);
                return Err(fault);
            }
            self.since_fsync = 0;
        } else {
            self.since_fsync += 1;
        }
        self.len += frame.len() as u64;
        self.next_seq += 1;
        rec.add(names::WAL_APPENDS, 1);
        rec.add(names::WAL_APPEND_BYTES, frame.len() as u64);
        Ok(record.seq)
    }

    fn fsync(&mut self, rec: &dyn Recorder) -> Result<(), Fault> {
        if fire(sites::WAL_FSYNC) {
            return Err(Fault::injected(FaultKind::CorruptSummary, sites::WAL_FSYNC));
        }
        self.file
            .sync_data()
            .map_err(|e| corrupt(format!("{}: fsync: {e}", self.path.display())))?;
        rec.add(names::WAL_FSYNCS, 1);
        Ok(())
    }

    /// Forces everything written so far to stable storage (drain and
    /// pre-snapshot barrier), regardless of policy.
    pub fn flush(&mut self, rec: &dyn Recorder) -> Result<(), Fault> {
        let r = self.fsync(rec);
        if r.is_ok() {
            self.since_fsync = 0;
        }
        r
    }

    /// Empties the log after a snapshot became durable.
    pub fn truncate_all(&mut self, rec: &dyn Recorder) -> Result<(), Fault> {
        self.file
            .set_len(0)
            .and_then(|()| self.file.seek(SeekFrom::Start(0)))
            .and_then(|_| self.file.sync_data())
            .map_err(|e| {
                self.poisoned = true;
                corrupt(format!("{}: truncate: {e}", self.path.display()))
            })?;
        self.len = 0;
        self.since_fsync = 0;
        rec.add(names::WAL_TRUNCATIONS, 1);
        Ok(())
    }
}

/// Bounded sliding window of client idempotency keys. A retried update
/// whose key is still in the window is acknowledged without being
/// re-applied, so an ack lost in flight cannot double-apply.
#[derive(Clone, Debug)]
pub struct IdemCache {
    set: FxHashMap<u64, ()>,
    order: VecDeque<u64>,
    cap: usize,
}

impl IdemCache {
    pub fn new(cap: usize) -> Self {
        Self {
            set: FxHashMap::default(),
            order: VecDeque::new(),
            cap: cap.max(1),
        }
    }

    pub fn contains(&self, key: u64) -> bool {
        key != 0 && self.set.contains_key(&key)
    }

    /// Records a key (0 = no key, ignored), evicting the oldest beyond
    /// capacity.
    pub fn insert(&mut self, key: u64) {
        if key == 0 || self.set.contains_key(&key) {
            return;
        }
        if self.order.len() == self.cap {
            if let Some(old) = self.order.pop_front() {
                self.set.remove(&old);
            }
        }
        self.set.insert(key, ());
        self.order.push_back(key);
    }

    pub fn len(&self) -> usize {
        self.order.len()
    }

    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }

    /// Keys oldest-first — the canonical snapshot encoding order, so a
    /// recovered cache evicts in the same order as the live one did.
    pub fn iter(&self) -> impl Iterator<Item = u64> + '_ {
        self.order.iter().copied()
    }
}

const SNAPSHOT_MAGIC: &[u8; 4] = b"TSNP";
const SNAPSHOT_VERSION: u8 = 1;

/// Durable tuner state as captured by a snapshot: everything replay
/// determinism depends on. [`crate::TunerStats`] is deliberately absent
/// (process-local diagnostics, not state).
struct SnapshotState {
    last_seq: u64,
    clock: u64,
    online: Vec<(TwigKey, u64, u64)>,
    idem: Vec<u64>,
    lattice_bytes: Vec<u8>,
}

fn encode_snapshot_payload(state: &SnapshotState) -> Vec<u8> {
    let mut p = Vec::with_capacity(64 + state.lattice_bytes.len());
    put_u64(&mut p, state.last_seq);
    put_u64(&mut p, state.clock);
    put_u32(&mut p, state.online.len() as u32);
    for (key, heat, touched) in &state.online {
        put_u32(&mut p, key.as_bytes().len() as u32);
        p.extend_from_slice(key.as_bytes());
        put_u64(&mut p, *heat);
        put_u64(&mut p, *touched);
    }
    put_u32(&mut p, state.idem.len() as u32);
    for k in &state.idem {
        put_u64(&mut p, *k);
    }
    put_u64(&mut p, state.lattice_bytes.len() as u64);
    p.extend_from_slice(&state.lattice_bytes);
    p
}

fn encode_snapshot(state: &SnapshotState) -> Vec<u8> {
    let payload = encode_snapshot_payload(state);
    let mut out = Vec::with_capacity(17 + payload.len());
    out.extend_from_slice(SNAPSHOT_MAGIC);
    out.push(SNAPSHOT_VERSION);
    out.extend_from_slice(&crc32(&payload).to_le_bytes());
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(&payload);
    out
}

fn decode_snapshot(bytes: &[u8], path: &Path) -> Result<SnapshotState, Fault> {
    let ctx = |msg: &str| corrupt(format!("{}: {msg}", path.display()));
    if bytes.len() < 17 || &bytes[..4] != SNAPSHOT_MAGIC {
        return Err(ctx("bad snapshot magic"));
    }
    if bytes[4] != SNAPSHOT_VERSION {
        return Err(ctx("unsupported snapshot version"));
    }
    let crc = u32::from_le_bytes(bytes[5..9].try_into().unwrap());
    let len = u64::from_le_bytes(bytes[9..17].try_into().unwrap()) as usize;
    let payload = bytes
        .get(17..17 + len)
        .filter(|_| bytes.len() == 17 + len)
        .ok_or_else(|| ctx("snapshot payload length mismatch"))?;
    if crc32(payload) != crc {
        return Err(ctx("snapshot payload checksum mismatch"));
    }
    let mut at = 0usize;
    let err = || ctx("snapshot payload truncated");
    let last_seq = get_u64(payload, &mut at).ok_or_else(err)?;
    let clock = get_u64(payload, &mut at).ok_or_else(err)?;
    let n_online = get_u32(payload, &mut at).ok_or_else(err)? as usize;
    let mut online = Vec::with_capacity(n_online.min(1 << 16));
    for _ in 0..n_online {
        let key_len = get_u32(payload, &mut at).ok_or_else(err)? as usize;
        let key = payload.get(at..at + key_len).ok_or_else(err)?;
        at += key_len;
        let heat = get_u64(payload, &mut at).ok_or_else(err)?;
        let touched = get_u64(payload, &mut at).ok_or_else(err)?;
        online.push((
            TwigKey::from_raw(key.to_vec().into_boxed_slice()),
            heat,
            touched,
        ));
    }
    let n_idem = get_u32(payload, &mut at).ok_or_else(err)? as usize;
    let mut idem = Vec::with_capacity(n_idem.min(1 << 16));
    for _ in 0..n_idem {
        idem.push(get_u64(payload, &mut at).ok_or_else(err)?);
    }
    let lat_len = get_u64(payload, &mut at).ok_or_else(err)? as usize;
    let lattice_bytes = payload.get(at..at + lat_len).ok_or_else(err)?;
    at += lat_len;
    if at != payload.len() {
        return Err(ctx("snapshot payload has trailing bytes"));
    }
    Ok(SnapshotState {
        last_seq,
        clock,
        online,
        idem,
        lattice_bytes: lattice_bytes.to_vec(),
    })
}

fn snapshot_file_name(seq: u64) -> String {
    format!("snap-{seq:020}.tlat")
}

fn parse_snapshot_name(name: &str) -> Option<u64> {
    let digits = name.strip_prefix("snap-")?.strip_suffix(".tlat")?;
    if digits.len() != 20 || !digits.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    digits.parse().ok()
}

/// Snapshot files in `dir`, newest (highest covered seq) first.
fn list_snapshots(dir: &Path) -> Result<Vec<(u64, PathBuf)>, Fault> {
    let mut out = Vec::new();
    let entries = match std::fs::read_dir(dir) {
        Ok(e) => e,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(out),
        Err(e) => return Err(corrupt(format!("{}: {e}", dir.display()))),
    };
    for entry in entries {
        let entry = entry.map_err(|e| corrupt(format!("{}: {e}", dir.display())))?;
        if let Some(seq) = entry.file_name().to_str().and_then(parse_snapshot_name) {
            out.push((seq, entry.path()));
        }
    }
    out.sort_by_key(|&(seq, _)| std::cmp::Reverse(seq));
    Ok(out)
}

/// Writes `bytes` into `dir/{name}` atomically: temp file → fsync →
/// rename → fsync(dir). Crashing before the rename leaves only a `.tmp`
/// that recovery ignores; after it, the file is complete or absent.
fn write_atomic(dir: &Path, name: &str, bytes: &[u8]) -> Result<PathBuf, Fault> {
    let final_path = dir.join(name);
    let tmp_path = dir.join(format!("{name}.tmp"));
    let io = |e: std::io::Error| corrupt(format!("{}: {e}", tmp_path.display()));
    let mut tmp = File::create(&tmp_path).map_err(io)?;
    tmp.write_all(bytes).map_err(io)?;
    tmp.sync_all().map_err(io)?;
    drop(tmp);
    if fire(sites::SNAPSHOT_BEFORE_RENAME) {
        // Crash semantics: the durable temp file stays behind (recovery
        // ignores `.tmp`), the published snapshot does not exist.
        return Err(Fault::injected(
            FaultKind::CorruptSummary,
            sites::SNAPSHOT_BEFORE_RENAME,
        ));
    }
    std::fs::rename(&tmp_path, &final_path)
        .map_err(|e| corrupt(format!("{}: rename: {e}", final_path.display())))?;
    // Durability of the rename itself. Best-effort: opening a directory
    // for fsync is not supported on every platform, and the rename is
    // already atomic; this only narrows the power-failure window.
    if let Ok(d) = File::open(dir) {
        let _ = d.sync_all();
    }
    Ok(final_path)
}

/// What startup recovery found and did.
#[derive(Clone, Debug, Default)]
pub struct RecoveryReport {
    /// Sequence covered by the snapshot recovery loaded (0 = none).
    pub snapshot_seq: u64,
    pub snapshot_path: Option<PathBuf>,
    /// Highest applied sequence after replay.
    pub last_seq: u64,
    /// WAL records replayed (seq above the snapshot).
    pub replayed: u64,
    /// WAL records skipped because the snapshot already covered them.
    pub skipped: u64,
    /// Torn-tail bytes sealed off the end of the log.
    pub torn_bytes: u64,
    /// Byte length of the valid WAL prefix (where appends resume).
    pub wal_valid_len: u64,
}

impl std::fmt::Display for RecoveryReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "snapshot seq {} ({}), replayed {} wal record(s) (skipped {}), last seq {}, torn tail {} byte(s)",
            self.snapshot_seq,
            self.snapshot_path
                .as_ref()
                .map(|p| p.display().to_string())
                .unwrap_or_else(|| "none".into()),
            self.replayed,
            self.skipped,
            self.last_seq,
            self.torn_bytes,
        )
    }
}

/// Everything [`recover`] hands back: the rebuilt tuner, the idempotency
/// window, and the report.
pub struct Recovered {
    pub tuned: TunedLattice,
    pub idem: IdemCache,
    pub report: RecoveryReport,
}

/// Tuning knobs for [`DurableLattice`].
#[derive(Clone, Debug)]
pub struct DurableOptions {
    pub online_budget: usize,
    pub policy: DurabilityPolicy,
    /// Snapshot after this many records since the last one (0 = only on
    /// drain).
    pub snapshot_every: u64,
    /// Idempotency-window capacity.
    pub idem_capacity: usize,
}

impl Default for DurableOptions {
    fn default() -> Self {
        Self {
            online_budget: 1 << 20,
            policy: DurabilityPolicy::Batch,
            snapshot_every: 512,
            idem_capacity: 4096,
        }
    }
}

/// Rebuilds tuner state from `dir`: newest valid snapshot, then the WAL
/// tail. `base` seeds the state when no snapshot exists yet (the mined
/// summary the server was started with); once a snapshot exists it is
/// authoritative and `base` is ignored.
pub fn recover(
    dir: &Path,
    base: Option<&TreeLattice>,
    opts: &DurableOptions,
    rec: &dyn Recorder,
) -> Result<Recovered, Fault> {
    let snapshots = list_snapshots(dir)?;
    let mut chosen: Option<(SnapshotState, PathBuf)> = None;
    let mut first_err: Option<Fault> = None;
    for (_, path) in &snapshots {
        let result = std::fs::read(path)
            .map_err(|e| corrupt(format!("{}: {e}", path.display())))
            .and_then(|bytes| decode_snapshot(&bytes, path));
        match result {
            Ok(state) => {
                chosen = Some((state, path.clone()));
                break;
            }
            Err(e) => first_err = first_err.or(Some(e)),
        }
    }
    if chosen.is_none() {
        if let Some(e) = first_err {
            // Snapshots exist but none is valid. The WAL was truncated
            // when the oldest of them was written, so falling back to
            // the base summary would silently lose acknowledged
            // updates: fail typed instead.
            return Err(corrupt(format!(
                "no valid snapshot in {}: {e}",
                dir.display()
            )));
        }
    }

    let (mut tuned, snapshot_seq, snapshot_path, mut idem) = match chosen {
        Some((state, path)) => {
            let lattice = TreeLattice::from_bytes(&state.lattice_bytes)
                .map_err(|e| corrupt(format!("{}: {e}", path.display())))?;
            let tuned = TunedLattice::restore_online_state(
                lattice,
                opts.online_budget,
                state.clock,
                state.online,
            );
            let mut idem = IdemCache::new(opts.idem_capacity);
            for k in state.idem {
                idem.insert(k);
            }
            (tuned, state.last_seq, Some(path), idem)
        }
        None => {
            let base = base.ok_or_else(|| {
                corrupt(format!(
                    "{}: no snapshot found and no base summary provided",
                    dir.display()
                ))
            })?;
            (
                TunedLattice::new(base.clone(), opts.online_budget),
                0,
                None,
                IdemCache::new(opts.idem_capacity),
            )
        }
    };

    let scan = scan_wal(&dir.join(WAL_FILE))?;
    let mut report = RecoveryReport {
        snapshot_seq,
        snapshot_path,
        last_seq: snapshot_seq,
        torn_bytes: scan.torn_bytes,
        wal_valid_len: scan.valid_len,
        ..RecoveryReport::default()
    };
    let mut prev_seq: Option<u64> = None;
    for record in &scan.records {
        if let Some(prev) = prev_seq {
            if record.seq != prev + 1 {
                return Err(corrupt(format!(
                    "wal sequence gap: record {} follows {}",
                    record.seq, prev
                )));
            }
        }
        prev_seq = Some(record.seq);
        if record.seq <= snapshot_seq {
            report.skipped += 1;
            continue;
        }
        if record.seq != report.last_seq + 1 {
            return Err(corrupt(format!(
                "wal sequence gap: snapshot covers {} but replay starts at {}",
                report.last_seq, record.seq
            )));
        }
        tuned.observe(&record.key.decode(), record.count);
        idem.insert(record.idem);
        report.last_seq = record.seq;
        report.replayed += 1;
    }
    rec.add(names::WAL_REPLAYED, report.replayed);
    Ok(Recovered {
        tuned,
        idem,
        report,
    })
}

/// Outcome of one [`DurableLattice::apply`].
#[derive(Clone, Debug)]
pub struct Applied {
    /// Sequence the observation was logged under (the highest applied
    /// sequence, on a dedup hit).
    pub seq: u64,
    /// Summary generation after the apply.
    pub generation: u64,
    /// True when the idempotency window answered a retried update
    /// without re-applying it.
    pub deduped: bool,
    /// A periodic snapshot attempted by this apply failed. The update
    /// itself is durable in the WAL and acknowledged; the fault is
    /// operational telemetry, not an ack failure.
    pub snapshot_fault: Option<Fault>,
}

/// A [`TunedLattice`] whose observations survive crashes: WAL-before-ack,
/// periodic atomic snapshots, idempotent retries.
#[derive(Debug)]
pub struct DurableLattice {
    tuned: TunedLattice,
    wal: WalWriter,
    dir: PathBuf,
    snapshot_every: u64,
    snapshot_seq: u64,
    last_seq: u64,
    idem: IdemCache,
}

impl DurableLattice {
    /// Runs recovery over `dir` (created if missing) and opens the WAL
    /// for appending, sealing any torn tail.
    pub fn open(
        dir: &Path,
        base: Option<&TreeLattice>,
        opts: &DurableOptions,
        rec: &dyn Recorder,
    ) -> Result<(Self, RecoveryReport), Fault> {
        std::fs::create_dir_all(dir).map_err(|e| corrupt(format!("{}: {e}", dir.display())))?;
        let recovered = recover(dir, base, opts, rec)?;
        let wal = WalWriter::open(
            &dir.join(WAL_FILE),
            opts.policy,
            recovered.report.last_seq + 1,
            recovered.report.wal_valid_len,
        )?;
        let this = Self {
            tuned: recovered.tuned,
            wal,
            dir: dir.to_path_buf(),
            snapshot_every: opts.snapshot_every,
            snapshot_seq: recovered.report.snapshot_seq,
            last_seq: recovered.report.last_seq,
            idem: recovered.idem,
        };
        Ok((this, recovered.report))
    }

    pub fn tuned(&self) -> &TunedLattice {
        &self.tuned
    }

    pub fn lattice(&self) -> &TreeLattice {
        self.tuned.lattice()
    }

    pub fn last_seq(&self) -> u64 {
        self.last_seq
    }

    pub fn snapshot_seq(&self) -> u64 {
        self.snapshot_seq
    }

    /// Logs and applies one observation. The WAL append gates the
    /// acknowledgement: on `Err` the state is untouched and the caller
    /// must answer with the typed fault, not an ack.
    pub fn apply(
        &mut self,
        twig: &Twig,
        true_count: u64,
        idem: u64,
        rec: &dyn Recorder,
    ) -> Result<Applied, Fault> {
        if self.idem.contains(idem) {
            return Ok(Applied {
                seq: self.last_seq,
                generation: self.tuned.lattice().generation(),
                deduped: true,
                snapshot_fault: None,
            });
        }
        let key = key_of(twig);
        let seq = self.wal.append(idem, &key, true_count, rec)?;
        self.tuned.observe(twig, true_count);
        self.last_seq = seq;
        self.idem.insert(idem);
        let mut snapshot_fault = None;
        if self.snapshot_every > 0 && seq.saturating_sub(self.snapshot_seq) >= self.snapshot_every {
            if let Err(fault) = self.snapshot(rec) {
                rec.add(names::SNAPSHOT_FAILURES, 1);
                snapshot_fault = Some(fault);
            }
        }
        Ok(Applied {
            seq,
            generation: self.tuned.lattice().generation(),
            deduped: false,
            snapshot_fault,
        })
    }

    /// The canonical durable-state encoding (what a snapshot file's
    /// payload holds). Two instances with bit-identical state encode to
    /// bit-identical bytes — the recovery gate's comparison key.
    pub fn state_bytes(&self) -> Vec<u8> {
        encode_snapshot_payload(&self.snapshot_state())
    }

    fn snapshot_state(&self) -> SnapshotState {
        let (clock, online) = self.tuned.online_state();
        SnapshotState {
            last_seq: self.last_seq,
            clock,
            online,
            idem: self.idem.iter().collect(),
            lattice_bytes: self.tuned.lattice().to_bytes(),
        }
    }

    /// Writes an atomic snapshot covering everything applied so far,
    /// then truncates the WAL. On `Err` the previous snapshot and the
    /// WAL are intact and recovery remains correct.
    pub fn snapshot(&mut self, rec: &dyn Recorder) -> Result<u64, Fault> {
        // Barrier: records the snapshot will supersede must be stable
        // before the WAL can be truncated below them.
        self.wal.flush(rec)?;
        let seq = self.last_seq;
        let bytes = encode_snapshot(&self.snapshot_state());
        write_atomic(&self.dir, &snapshot_file_name(seq), &bytes)?;
        rec.add(names::SNAPSHOT_WRITES, 1);
        rec.add(names::SNAPSHOT_BYTES, bytes.len() as u64);
        // From here the snapshot is durable and authoritative even if
        // the remaining cleanup fails.
        self.snapshot_seq = seq;
        if fire(sites::SNAPSHOT_AFTER_RENAME) {
            // Crash semantics: the WAL keeps records the snapshot
            // already covers; replay skips them by sequence.
            return Err(Fault::injected(
                FaultKind::CorruptSummary,
                sites::SNAPSHOT_AFTER_RENAME,
            ));
        }
        self.wal.truncate_all(rec)?;
        self.retire_old_snapshots(seq);
        Ok(seq)
    }

    /// Best-effort retention: keep the newest snapshot plus one
    /// predecessor, drop older ones and stale temp files. Failures are
    /// harmless (the files are re-candidates next snapshot).
    fn retire_old_snapshots(&self, newest: u64) {
        if let Ok(snapshots) = list_snapshots(&self.dir) {
            for (seq, path) in snapshots.iter().skip(2) {
                if *seq < newest {
                    let _ = std::fs::remove_file(path);
                }
            }
        }
        if let Ok(entries) = std::fs::read_dir(&self.dir) {
            for entry in entries.flatten() {
                if entry.file_name().to_string_lossy().ends_with(".tmp") {
                    let _ = std::fs::remove_file(entry.path());
                }
            }
        }
    }

    /// Drain for shutdown: force the WAL to stable storage, then write a
    /// final snapshot. On `Err` the WAL and the previous snapshot are
    /// intact, so nothing acknowledged is lost — the process should exit
    /// with the fault code and recovery will finish the job.
    pub fn drain(&mut self, rec: &dyn Recorder) -> Result<(), Fault> {
        self.wal.flush(rec)?;
        if self.last_seq > self.snapshot_seq || (self.last_seq > 0 && !self.wal.is_empty()) {
            self.snapshot(rec)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use tl_fault::failpoints;
    use tl_obs::NOOP;
    use tl_xml::{parse_document, ParseOptions};

    use crate::BuildConfig;

    use super::*;

    fn test_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "tl-wal-{name}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn base_lattice() -> TreeLattice {
        let mut s = String::from("<r>");
        for _ in 0..6 {
            s.push_str("<a><b><c/></b><d/></a>");
        }
        s.push_str("</r>");
        let doc = parse_document(s.as_bytes(), ParseOptions::default()).unwrap();
        TreeLattice::build(&doc, &BuildConfig::with_k(2))
    }

    fn storm(lattice: &TreeLattice, n: usize) -> Vec<(Twig, u64)> {
        let queries = ["a[b][d]", "r/a/b/c", "a[b[c]][d]", "r/a[d]", "a/b"];
        (0..n)
            .map(|i| {
                let twig = lattice.parse_query(queries[i % queries.len()]).unwrap();
                (twig, (i as u64).wrapping_mul(7) % 100)
            })
            .collect()
    }

    fn opts() -> DurableOptions {
        DurableOptions {
            online_budget: 1 << 20,
            policy: DurabilityPolicy::Strict,
            snapshot_every: 0,
            idem_capacity: 64,
        }
    }

    #[test]
    fn append_replay_round_trips() {
        let _fp = tl_fault::failpoints::shared();
        let dir = test_dir("roundtrip");
        let base = base_lattice();
        let (mut durable, report) =
            DurableLattice::open(&dir, Some(&base), &opts(), &NOOP).unwrap();
        assert_eq!(report.last_seq, 0);
        for (twig, count) in storm(&base, 10) {
            durable.apply(&twig, count, 0, &NOOP).unwrap();
        }
        let want = durable.state_bytes();
        drop(durable);

        let (recovered, report) = DurableLattice::open(&dir, Some(&base), &opts(), &NOOP).unwrap();
        assert_eq!(report.replayed, 10);
        assert_eq!(report.last_seq, 10);
        assert_eq!(
            recovered.state_bytes(),
            want,
            "replayed state bit-identical"
        );
    }

    #[test]
    fn torn_tail_is_a_clean_end_of_log() {
        let _fp = tl_fault::failpoints::shared();
        let dir = test_dir("torn");
        let base = base_lattice();
        let (mut durable, _) = DurableLattice::open(&dir, Some(&base), &opts(), &NOOP).unwrap();
        for (twig, count) in storm(&base, 6) {
            durable.apply(&twig, count, 0, &NOOP).unwrap();
        }
        let want = durable.state_bytes();
        drop(durable);

        // Chop bytes off the end one at a time down to mid-first-record:
        // every cut must recover to the longest complete prefix.
        let wal_path = dir.join(WAL_FILE);
        let full = std::fs::read(&wal_path).unwrap();
        for cut in (1..full.len()).rev() {
            std::fs::write(&wal_path, &full[..cut]).unwrap();
            let scan = scan_wal(&wal_path).unwrap();
            assert!(scan.records.len() <= 6);
            assert_eq!(scan.torn_bytes as usize, cut - scan.valid_len as usize);
        }
        // Un-truncated file still recovers bit-identically.
        std::fs::write(&wal_path, &full).unwrap();
        let (recovered, _) = DurableLattice::open(&dir, Some(&base), &opts(), &NOOP).unwrap();
        assert_eq!(recovered.state_bytes(), want);
    }

    #[test]
    fn mid_log_corruption_is_a_typed_fault() {
        let _fp = tl_fault::failpoints::shared();
        let dir = test_dir("midlog");
        let base = base_lattice();
        let (mut durable, _) = DurableLattice::open(&dir, Some(&base), &opts(), &NOOP).unwrap();
        for (twig, count) in storm(&base, 6) {
            durable.apply(&twig, count, 0, &NOOP).unwrap();
        }
        drop(durable);
        let wal_path = dir.join(WAL_FILE);
        let mut bytes = std::fs::read(&wal_path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        std::fs::write(&wal_path, &bytes).unwrap();
        let err = DurableLattice::open(&dir, Some(&base), &opts(), &NOOP).unwrap_err();
        assert_eq!(err.kind, FaultKind::CorruptSummary, "{err}");
    }

    #[test]
    fn snapshot_truncates_wal_and_recovery_prefers_it() {
        let _fp = tl_fault::failpoints::shared();
        let dir = test_dir("snap");
        let base = base_lattice();
        let mut o = opts();
        o.snapshot_every = 4;
        let (mut durable, _) = DurableLattice::open(&dir, Some(&base), &o, &NOOP).unwrap();
        for (twig, count) in storm(&base, 10) {
            durable.apply(&twig, count, 0, &NOOP).unwrap();
        }
        assert!(durable.snapshot_seq() >= 8);
        assert!(durable.wal.len() < 200, "wal truncated at each snapshot");
        let want = durable.state_bytes();
        drop(durable);
        let (recovered, report) = DurableLattice::open(&dir, Some(&base), &o, &NOOP).unwrap();
        assert!(report.snapshot_path.is_some());
        assert!(report.replayed <= 2);
        assert_eq!(recovered.state_bytes(), want);
    }

    #[test]
    fn corrupt_newest_snapshot_falls_back_to_predecessor() {
        let _fp = tl_fault::failpoints::shared();
        let dir = test_dir("fallback");
        let base = base_lattice();
        let mut o = opts();
        o.snapshot_every = 0;
        let (mut durable, _) = DurableLattice::open(&dir, Some(&base), &o, &NOOP).unwrap();
        let updates = storm(&base, 8);
        for (twig, count) in &updates[..4] {
            durable.apply(twig, *count, 0, &NOOP).unwrap();
        }
        durable.snapshot(&NOOP).unwrap();
        for (twig, count) in &updates[4..] {
            durable.apply(twig, *count, 0, &NOOP).unwrap();
        }
        durable.snapshot(&NOOP).unwrap();
        let want = durable.state_bytes();
        drop(durable);

        // Flip a byte in the newest snapshot: recovery must fall back to
        // the predecessor and replay the (empty) tail — state regresses
        // to seq 4, never a wrong answer.
        let snaps = list_snapshots(&dir).unwrap();
        assert_eq!(snaps.len(), 2);
        let newest = &snaps[0].1;
        let mut bytes = std::fs::read(newest).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        std::fs::write(newest, &bytes).unwrap();
        let (recovered, report) = DurableLattice::open(&dir, Some(&base), &o, &NOOP).unwrap();
        assert_eq!(report.snapshot_seq, 4);
        assert_ne!(recovered.state_bytes(), want);
        assert_eq!(recovered.last_seq(), 4);
    }

    #[test]
    fn idempotent_retry_does_not_double_apply() {
        let _fp = tl_fault::failpoints::shared();
        let dir = test_dir("idem");
        let base = base_lattice();
        let (mut durable, _) = DurableLattice::open(&dir, Some(&base), &opts(), &NOOP).unwrap();
        let twig = base.parse_query("a[b][d]").unwrap();
        let first = durable.apply(&twig, 42, 777, &NOOP).unwrap();
        assert!(!first.deduped);
        let retry = durable.apply(&twig, 42, 777, &NOOP).unwrap();
        assert!(retry.deduped);
        assert_eq!(retry.seq, first.seq);
        assert_eq!(durable.last_seq(), 1, "retry logged nothing");

        // The window survives recovery: a retry after restart still
        // deduplicates.
        drop(durable);
        let (mut recovered, _) = DurableLattice::open(&dir, Some(&base), &opts(), &NOOP).unwrap();
        let retry = recovered.apply(&twig, 42, 777, &NOOP).unwrap();
        assert!(retry.deduped);
        assert_eq!(recovered.last_seq(), 1);
    }

    #[test]
    fn every_injected_crash_point_recovers_bit_identically() {
        let fp = failpoints::exclusive();
        let base = base_lattice();
        let mut o = opts();
        o.snapshot_every = 4;
        let crash_sites = [
            sites::WAL_APPEND_TORN,
            sites::WAL_APPEND_SHORT,
            sites::WAL_FSYNC,
            sites::SNAPSHOT_BEFORE_RENAME,
            sites::SNAPSHOT_AFTER_RENAME,
        ];
        for site in crash_sites {
            let dir = test_dir(&format!("crash-{}", site.replace('.', "-")));
            let (mut durable, _) = DurableLattice::open(&dir, Some(&base), &o, &NOOP).unwrap();
            let mut acked = 0u64;
            fp.with_active(&format!("{site}=nth:1"), 7, || {
                for (twig, count) in storm(&base, 9) {
                    match durable.apply(&twig, count, 0, &NOOP) {
                        Ok(a) => {
                            acked += 1;
                            if let Some(f) = a.snapshot_fault {
                                assert_eq!(f.kind, FaultKind::CorruptSummary, "{site}: {f}");
                            }
                        }
                        Err(f) => {
                            assert_eq!(f.kind, FaultKind::CorruptSummary, "{site}: {f}");
                            break;
                        }
                    }
                }
            });
            drop(durable);

            let (recovered, report) = DurableLattice::open(&dir, Some(&base), &o, &NOOP).unwrap();
            assert_eq!(report.last_seq, acked, "{site}: acked prefix recovered");

            // Replica: synchronous replay of the acknowledged prefix
            // through an identical pipeline, no faults.
            let replica_dir = test_dir(&format!("replica-{}", site.replace('.', "-")));
            let (mut replica, _) =
                DurableLattice::open(&replica_dir, Some(&base), &o, &NOOP).unwrap();
            for (twig, count) in storm(&base, 9).into_iter().take(acked as usize) {
                replica.apply(&twig, count, 0, &NOOP).unwrap();
            }
            assert_eq!(
                recovered.state_bytes(),
                replica.state_bytes(),
                "{site}: recovered state bit-identical to synchronous replay"
            );
        }
    }

    #[test]
    fn drain_writes_a_final_snapshot() {
        let _fp = tl_fault::failpoints::shared();
        let dir = test_dir("drain");
        let base = base_lattice();
        let (mut durable, _) = DurableLattice::open(&dir, Some(&base), &opts(), &NOOP).unwrap();
        for (twig, count) in storm(&base, 5) {
            durable.apply(&twig, count, 0, &NOOP).unwrap();
        }
        durable.drain(&NOOP).unwrap();
        assert_eq!(durable.snapshot_seq(), 5);
        assert!(durable.wal.is_empty());
        drop(durable);
        let (_, report) = DurableLattice::open(&dir, Some(&base), &opts(), &NOOP).unwrap();
        assert_eq!(report.replayed, 0, "everything came from the snapshot");
        assert_eq!(report.last_seq, 5);
    }

    #[test]
    fn policy_parse_round_trips() {
        for p in [
            DurabilityPolicy::None,
            DurabilityPolicy::Batch,
            DurabilityPolicy::Strict,
        ] {
            assert_eq!(DurabilityPolicy::parse(&p.to_string()).unwrap(), p);
        }
        assert!(DurabilityPolicy::parse("paranoid").is_err());
    }

    #[test]
    fn seq_gap_is_a_typed_fault() {
        let _fp = tl_fault::failpoints::shared();
        let dir = test_dir("gap");
        let base = base_lattice();
        let (mut durable, _) = DurableLattice::open(&dir, Some(&base), &opts(), &NOOP).unwrap();
        for (twig, count) in storm(&base, 4) {
            durable.apply(&twig, count, 0, &NOOP).unwrap();
        }
        drop(durable);
        // Drop the second record from the file wholesale: checksums all
        // pass, but the sequence run has a hole.
        let wal_path = dir.join(WAL_FILE);
        let bytes = std::fs::read(&wal_path).unwrap();
        let first_len = 4 + u32::from_le_bytes(bytes[..4].try_into().unwrap()) as usize + 8;
        let second_len = 4
            + u32::from_le_bytes(bytes[first_len..first_len + 4].try_into().unwrap()) as usize
            + 8;
        let mut cut = bytes[..first_len].to_vec();
        cut.extend_from_slice(&bytes[first_len + second_len..]);
        std::fs::write(&wal_path, &cut).unwrap();
        let err = DurableLattice::open(&dir, Some(&base), &opts(), &NOOP).unwrap_err();
        assert_eq!(err.kind, FaultKind::CorruptSummary);
        assert!(err.message.contains("gap"), "{err}");
    }
}
