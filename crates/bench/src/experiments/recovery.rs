//! Injected-crash recovery matrix (`bench_recovery`).
//!
//! Drives every durability fail-point site through every injection rule,
//! crashing a [`DurableLattice`] mid-update-storm (drop without drain,
//! exactly what a `kill -9` leaves on disk for the in-process write
//! path), then recovers over the same directory and compares the
//! recovered state **bit-for-bit** against a never-crashed replica fed
//! the same acknowledged prefix. The contract under test is the one the
//! server acks against: every `Ok` from `apply` survives any crash, an
//! injected append failure is never an ack, and recovery lands on
//! exactly the acknowledged sequence — no more, no less.
//!
//! Three scripted corruption rows ride along with the injection matrix:
//!
//! * **mid-log corruption**: a byte flipped inside a fully-written record
//!   must surface as a typed `CorruptSummary` fault, never a short count;
//! * **torn tail**: bytes sheared off the final record must seal as a
//!   clean end-of-log (the crash-mid-append case);
//! * **drain round trip**: flush + final snapshot + reopen must be
//!   byte-identical to the state before the drain.
//!
//! Results land in `BENCH_recovery.json` (the `tl-metrics/1` snapshot
//! schema) and gate CI through `gates --only recovery`.

use std::path::Path;

use tl_datagen::{Dataset, GenConfig};
use tl_fault::failpoints::{self, sites};
use tl_twig::canonical::NODE_BYTES;
use tl_workload::positive_workload;
use treelattice::{
    BuildConfig, DurabilityPolicy, DurableLattice, DurableOptions, FaultKind, TreeLattice,
};

use crate::Table;

/// The durability fail-point sites the crash matrix sweeps. Each guards a
/// distinct failure moment: a torn append, a short append, a failed
/// fsync, a crash before the snapshot rename, and a crash after it.
pub const CRASH_SITES: &[&str] = &[
    sites::WAL_APPEND_TORN,
    sites::WAL_APPEND_SHORT,
    sites::WAL_FSYNC,
    sites::SNAPSHOT_BEFORE_RENAME,
    sites::SNAPSHOT_AFTER_RENAME,
];

/// The injection rules each site is driven under: fail every time, fail
/// exactly once mid-storm, and fail on a deterministic seeded coin.
pub const CRASH_RULES: &[&str] = &["always", "nth:2", "1in3"];

/// Online budget of every durable store the matrix opens: room for two of
/// the storm's 3-node keys, so the storm evicts, and each recovery must
/// reproduce the eviction state too.
const ONLINE_BUDGET: usize = 2 * (3 * NODE_BYTES + std::mem::size_of::<u64>());

/// Crash points the matrix covers (`sites × rules`).
pub fn matrix_size() -> usize {
    CRASH_SITES.len() * CRASH_RULES.len()
}

/// Shape of the generated fixture and per-crash-point storm.
#[derive(Clone, Copy, Debug)]
pub struct RecoveryBenchConfig {
    /// Target elements in the generated XMark document.
    pub scale: usize,
    /// Seed for document generation, workload sampling, and the
    /// fail-point coin.
    pub seed: u64,
    /// Summary order.
    pub k: usize,
    /// Updates attempted per crash point.
    pub updates: u64,
    /// Periodic-snapshot cadence during the storm (small, so the
    /// snapshot sites actually fire mid-run).
    pub snapshot_every: u64,
}

/// The fixed configuration `bench_recovery` and the recovery gate run
/// with. Changing it invalidates `tests/gates/recovery.json`; regenerate
/// with `gates --only recovery --write-thresholds`.
pub fn bench_config() -> RecoveryBenchConfig {
    RecoveryBenchConfig {
        scale: 1_500,
        seed: 42,
        k: 3,
        updates: 8,
        snapshot_every: 3,
    }
}

/// One crash point: a (site, rule) pair driven to a crash and recovered.
#[derive(Clone, Debug)]
pub struct CrashRow {
    /// Fail-point site that was armed.
    pub site: &'static str,
    /// Injection rule it was armed with.
    pub rule: &'static str,
    /// Updates acknowledged (`Ok` from `apply`) before the crash.
    pub acked: u64,
    /// Highest sequence the post-crash recovery landed on.
    pub recovered_seq: u64,
    /// WAL records replayed above the newest snapshot.
    pub replayed: u64,
    /// Faults the fail-point harness injected during the storm.
    pub injected: u64,
    /// Online patterns the never-crashed replica evicted while applying
    /// the acknowledged updates.
    pub evicted: u64,
    /// Recovered state is byte-identical to a never-crashed replica fed
    /// the acknowledged operations in order, and `recovered_seq == acked`.
    pub bit_identical: bool,
}

/// The full crash-matrix measurement.
#[derive(Clone, Debug)]
pub struct RecoveryBench {
    /// Configuration echo.
    pub cfg: RecoveryBenchConfig,
    /// One row per (site, rule) crash point.
    pub rows: Vec<CrashRow>,
    /// Crash points whose recovery was bit-identical to the replica.
    pub identical_points: u64,
    /// A flipped byte mid-log surfaced as a typed `CorruptSummary` fault.
    pub corruption_typed: bool,
    /// Bytes sheared off the final record sealed as a clean end-of-log.
    pub torn_tail_sealed: bool,
    /// Drain + reopen reproduced the pre-drain state byte-for-byte.
    pub drain_round_trip: bool,
    /// Logical CPUs of the host that ran the matrix.
    pub host_cpus: usize,
}

impl RecoveryBench {
    /// Crash points driven.
    pub fn crash_points(&self) -> u64 {
        self.rows.len() as u64
    }

    /// Every crash point recovered bit-identically.
    pub fn all_identical(&self) -> bool {
        self.identical_points == self.crash_points()
    }
}

fn durable_options(snapshot_every: u64) -> DurableOptions {
    DurableOptions {
        online_budget: ONLINE_BUDGET,
        policy: DurabilityPolicy::Strict,
        snapshot_every,
        ..DurableOptions::default()
    }
}

/// Deterministic count carried by storm record `seq`.
fn storm_count(seq: u64) -> u64 {
    1_000 + seq
}

/// Applies records `1..=n` of the canonical storm to `durable`, asserting
/// every one acks (used for replicas and the scripted corruption rows,
/// which run injection-free).
fn apply_prefix(durable: &mut DurableLattice, twigs: &[tl_twig::Twig], n: u64) {
    for seq in 1..=n {
        let twig = &twigs[(seq - 1) as usize % twigs.len()];
        durable
            .apply(twig, storm_count(seq), seq, &tl_obs::NOOP)
            .expect("injection-free apply acks");
    }
}

/// Drives one (site, rule) crash point: storm under the armed fail-point,
/// crash by dropping without drain, recover injection-free, and compare
/// against a never-crashed replica fed the same acknowledged prefix.
#[allow(clippy::too_many_arguments)]
fn run_crash_point(
    site: &'static str,
    rule: &'static str,
    seed: u64,
    lattice: &TreeLattice,
    twigs: &[tl_twig::Twig],
    cfg: &RecoveryBenchConfig,
    root: &Path,
    tag: usize,
) -> CrashRow {
    let dir = root.join(format!("crash-{tag}"));
    let opts = durable_options(cfg.snapshot_every);
    let before = failpoints::injected_total();
    let spec = format!("{site}={rule}");
    // The storm: every `Ok` is an acknowledgement the recovery below must
    // honor; every `Err` must leave state untouched. A failed attempt is
    // skipped, not retried, so the acked set need not be a contiguous run
    // of attempt numbers (an fsync failure repairs the log and later
    // appends succeed) — record exactly what was acknowledged, in order.
    // Dropping the handle without drain is the in-process crash — nothing
    // is flushed or snapshotted on the way out.
    let acked_ops: Vec<(usize, u64, u64)> = failpoints::with_active(&spec, seed, || {
        let (mut durable, _) = DurableLattice::open(&dir, Some(lattice), &opts, &tl_obs::NOOP)
            .expect("open on a fresh dir never faults");
        let mut acked = Vec::new();
        for attempt in 1..=cfg.updates {
            let qi = (attempt - 1) as usize % twigs.len();
            if durable
                .apply(&twigs[qi], storm_count(attempt), attempt, &tl_obs::NOOP)
                .is_ok()
            {
                acked.push((qi, storm_count(attempt), attempt));
            }
        }
        acked
    });
    let injected = failpoints::injected_total() - before;
    let acked = acked_ops.len() as u64;

    // Injection-free recovery over whatever the crash left behind.
    let (recovered, report) = DurableLattice::open(&dir, Some(lattice), &opts, &tl_obs::NOOP)
        .expect("recovery after an injected crash");

    // The never-crashed replica: same base, fed exactly the acknowledged
    // operations in order, no injection. Bit-identity of the canonical
    // state encoding is the pass condition.
    let replica_dir = root.join(format!("replica-{tag}"));
    let (mut replica, _) = DurableLattice::open(&replica_dir, Some(lattice), &opts, &tl_obs::NOOP)
        .expect("replica open");
    for &(qi, count, idem) in &acked_ops {
        replica
            .apply(&twigs[qi], count, idem, &tl_obs::NOOP)
            .expect("injection-free replica apply acks");
    }
    let bit_identical =
        report.last_seq == acked && recovered.state_bytes() == replica.state_bytes();

    CrashRow {
        site,
        rule,
        acked,
        recovered_seq: report.last_seq,
        replayed: report.replayed,
        injected,
        evicted: replica.tuned().stats().evicted,
        bit_identical,
    }
}

/// A byte flipped inside a complete mid-log record must be a typed
/// `CorruptSummary` fault on recovery — never a silently shorter replay.
fn corruption_is_typed(lattice: &TreeLattice, twigs: &[tl_twig::Twig], root: &Path) -> bool {
    let dir = root.join("corrupt");
    let opts = durable_options(0);
    {
        let (mut durable, _) = DurableLattice::open(&dir, Some(lattice), &opts, &tl_obs::NOOP)
            .expect("open corruption fixture");
        apply_prefix(&mut durable, twigs, 5);
    }
    let wal = dir.join("wal.log");
    let mut bytes = std::fs::read(&wal).expect("read wal");
    // Offset 10 lands in the first record's sequence field, past the
    // 4-byte length prefix; the four complete records behind it rule out
    // any torn-tail reading.
    bytes[10] ^= 0xff;
    std::fs::write(&wal, &bytes).expect("write corrupted wal");
    matches!(
        DurableLattice::open(&dir, Some(lattice), &opts, &tl_obs::NOOP),
        Err(fault) if fault.kind == FaultKind::CorruptSummary
    )
}

/// Bytes sheared off the final record (a crash mid-append) must seal as a
/// clean end-of-log covering every earlier record.
fn torn_tail_seals(lattice: &TreeLattice, twigs: &[tl_twig::Twig], root: &Path) -> bool {
    let dir = root.join("torn");
    let opts = durable_options(0);
    {
        let (mut durable, _) = DurableLattice::open(&dir, Some(lattice), &opts, &tl_obs::NOOP)
            .expect("open torn fixture");
        apply_prefix(&mut durable, twigs, 5);
    }
    let wal = dir.join("wal.log");
    let len = std::fs::metadata(&wal).expect("stat wal").len();
    let file = std::fs::OpenOptions::new()
        .write(true)
        .open(&wal)
        .expect("open wal for shearing");
    file.set_len(len - 3).expect("shear the final record");
    drop(file);
    match DurableLattice::open(&dir, Some(lattice), &opts, &tl_obs::NOOP) {
        Ok((_, report)) => report.last_seq == 4 && report.torn_bytes > 0,
        Err(_) => false,
    }
}

/// Drain (flush + final snapshot) then reopen must reproduce the
/// pre-drain state byte-for-byte, with the WAL fully truncated.
fn drain_round_trips(lattice: &TreeLattice, twigs: &[tl_twig::Twig], root: &Path) -> bool {
    let dir = root.join("drain");
    let opts = durable_options(0);
    let before = {
        let (mut durable, _) = DurableLattice::open(&dir, Some(lattice), &opts, &tl_obs::NOOP)
            .expect("open drain fixture");
        apply_prefix(&mut durable, twigs, 5);
        let before = durable.state_bytes();
        durable.drain(&tl_obs::NOOP).expect("clean drain");
        before
    };
    let wal_empty = std::fs::metadata(dir.join("wal.log")).is_ok_and(|m| m.len() == 0);
    match DurableLattice::open(&dir, Some(lattice), &opts, &tl_obs::NOOP) {
        Ok((reopened, report)) => {
            wal_empty
                && report.snapshot_seq == 5
                && report.replayed == 0
                && reopened.state_bytes() == before
        }
        Err(_) => false,
    }
}

/// Runs the full crash matrix without printing or writing.
pub fn build(cfg: &RecoveryBenchConfig) -> RecoveryBench {
    let doc = Dataset::Xmark.generate(GenConfig {
        seed: cfg.seed,
        target_elements: cfg.scale,
    });
    let lattice = TreeLattice::build(&doc, &BuildConfig::with_k(cfg.k));
    let twigs: Vec<tl_twig::Twig> = positive_workload(&doc, 3, 8, cfg.seed.wrapping_add(3))
        .cases
        .into_iter()
        .map(|c| c.twig)
        .collect();
    assert!(!twigs.is_empty(), "recovery bench workload is empty");

    let root = std::env::temp_dir().join(format!(
        "tl-bench-recovery-{}-{}",
        cfg.seed,
        std::process::id()
    ));
    std::fs::remove_dir_all(&root).ok();
    std::fs::create_dir_all(&root).expect("create bench temp dir");

    let mut rows = Vec::new();
    let mut tag = 0usize;
    for &site in CRASH_SITES {
        for &rule in CRASH_RULES {
            let seed = cfg.seed.wrapping_add(tag as u64);
            rows.push(run_crash_point(
                site, rule, seed, &lattice, &twigs, cfg, &root, tag,
            ));
            tag += 1;
        }
    }
    let identical_points = rows.iter().filter(|r| r.bit_identical).count() as u64;

    let corruption_typed = corruption_is_typed(&lattice, &twigs, &root);
    let torn_tail_sealed = torn_tail_seals(&lattice, &twigs, &root);
    let drain_round_trip = drain_round_trips(&lattice, &twigs, &root);
    std::fs::remove_dir_all(&root).ok();

    RecoveryBench {
        cfg: *cfg,
        rows,
        identical_points,
        corruption_typed,
        torn_tail_sealed,
        drain_round_trip,
        host_cpus: std::thread::available_parallelism().map_or(1, |n| n.get()),
    }
}

/// Renders the result as a `tl-metrics/1` snapshot. The meta also records
/// the host's CPU count and the repeat count: each crash point runs once,
/// and every figure is a count, not a timing.
pub fn to_snapshot(b: &RecoveryBench) -> tl_obs::Snapshot {
    let mut snap = tl_obs::Snapshot::default();
    snap.meta.insert("bench".into(), "recovery".into());
    snap.meta.insert("dataset".into(), "xmark".into());
    snap.meta.insert("scale".into(), b.cfg.scale.to_string());
    snap.meta.insert("seed".into(), b.cfg.seed.to_string());
    snap.meta.insert("k".into(), b.cfg.k.to_string());
    snap.meta
        .insert("updates_per_point".into(), b.cfg.updates.to_string());
    snap.meta
        .insert("snapshot_every".into(), b.cfg.snapshot_every.to_string());
    snap.meta
        .insert("online_budget".into(), ONLINE_BUDGET.to_string());
    snap.meta
        .insert("host.cpus".into(), b.host_cpus.to_string());
    snap.meta.insert("repeats".into(), "1".into());
    snap.counters
        .insert("bench.recovery.crash_points".into(), b.crash_points());
    snap.counters
        .insert("bench.recovery.identical_points".into(), b.identical_points);
    snap.counters.insert(
        "bench.recovery.injected_faults".into(),
        b.rows.iter().map(|r| r.injected).sum(),
    );
    snap.counters.insert(
        "bench.recovery.replayed_records".into(),
        b.rows.iter().map(|r| r.replayed).sum(),
    );
    snap.counters.insert(
        "bench.recovery.evictions".into(),
        b.rows.iter().map(|r| r.evicted).sum(),
    );
    snap.gauges.insert(
        "bench.recovery.bit_identity".into(),
        if b.all_identical() { 1.0 } else { 0.0 },
    );
    snap.gauges.insert(
        "bench.recovery.corruption_typed".into(),
        if b.corruption_typed { 1.0 } else { 0.0 },
    );
    snap.gauges.insert(
        "bench.recovery.torn_tail_sealed".into(),
        if b.torn_tail_sealed { 1.0 } else { 0.0 },
    );
    snap.gauges.insert(
        "bench.recovery.drain_round_trip".into(),
        if b.drain_round_trip { 1.0 } else { 0.0 },
    );
    snap
}

/// [`to_snapshot`] serialized as JSON.
pub fn to_json(b: &RecoveryBench) -> String {
    to_snapshot(b).to_json()
}

/// Runs, prints, and writes `BENCH_recovery.json`.
pub fn run(cfg: &RecoveryBenchConfig) -> RecoveryBench {
    let b = build(cfg);
    let mut t = Table::new(
        "Crash matrix: injected durability faults, recovery vs replica",
        &[
            "Site",
            "Rule",
            "Acked",
            "Recovered",
            "Replayed",
            "Injected",
            "Evicted",
            "Identical",
        ],
    );
    for r in &b.rows {
        t.row(vec![
            r.site.to_string(),
            r.rule.to_string(),
            r.acked.to_string(),
            r.recovered_seq.to_string(),
            r.replayed.to_string(),
            r.injected.to_string(),
            r.evicted.to_string(),
            r.bit_identical.to_string(),
        ]);
    }
    t.print();
    println!(
        "crash points: {}/{} bit-identical | mid-log corruption typed: {} | torn tail sealed: {} | drain round trip: {}",
        b.identical_points,
        b.crash_points(),
        b.corruption_typed,
        b.torn_tail_sealed,
        b.drain_round_trip,
    );
    let path = crate::workspace_root().join("BENCH_recovery.json");
    match std::fs::write(&path, to_json(&b)) {
        Ok(()) => println!("wrote {}", path.display()),
        Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
    }
    b
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crash_matrix_recovers_bit_identically_everywhere() {
        let b = build(&RecoveryBenchConfig {
            scale: 1_200,
            seed: 7,
            k: 3,
            updates: 6,
            snapshot_every: 2,
        });
        assert_eq!(b.crash_points() as usize, matrix_size());
        for r in &b.rows {
            assert!(
                r.bit_identical,
                "{}={} diverged: acked {} recovered {}",
                r.site, r.rule, r.acked, r.recovered_seq
            );
            assert!(r.recovered_seq <= b.cfg.updates);
        }
        assert!(b.all_identical());
        assert!(b.corruption_typed, "mid-log corruption must be typed");
        assert!(b.torn_tail_sealed, "torn tail must seal cleanly");
        assert!(b.drain_round_trip, "drain must round-trip the state");
        // The always-rules genuinely injected faults somewhere.
        assert!(b.rows.iter().any(|r| r.injected > 0));
        // Two keys fit the online layer, so every storm that acked three
        // distinct updates evicted, and recovery reproduced it.
        for r in b.rows.iter().filter(|r| r.acked >= 3) {
            assert!(
                r.evicted > 0,
                "{}={} acked {} and evicted nothing",
                r.site,
                r.rule,
                r.acked
            );
        }
        assert!(b.rows.iter().any(|r| r.acked >= 3));
        let snap = to_snapshot(&b);
        let parsed = tl_obs::Snapshot::from_json(&to_json(&b)).unwrap();
        assert_eq!(parsed, snap);
        assert_eq!(snap.gauges["bench.recovery.bit_identity"], 1.0);
    }
}
