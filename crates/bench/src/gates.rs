//! CI regression gates (accuracy and perf smoke).
//!
//! Both gates compare a fresh, fully deterministic measurement against
//! thresholds committed under `tests/gates/` in the `tl-metrics/1`
//! snapshot schema, so the same tooling (`treelattice metrics report`)
//! renders thresholds, baselines, and live metrics alike.
//!
//! * **Accuracy** ([`measure_accuracy`] / [`check_accuracy`]): mines a
//!   fixed synthetic XMark document, estimates a canned positive workload
//!   with both recursive estimators, and fails when the mean relative
//!   error exceeds `gate.accuracy.max_mean_error_pct.<estimator>` or the
//!   shared-cache engine's hit rate falls below `gate.engine.min_hit_rate`.
//! * **Perf smoke** ([`measure_perf`] / [`check_perf`]): times the
//!   `bench matcher` comparison on a tiny fixture and fails when it runs
//!   more than `factor`× slower than `gate.perf.matcher_build_ms`.
//! * **Decompose** ([`check_decompose`]): runs `bench_decompose` on a
//!   reduced fixture and counts the engine's work, which no host changes.
//!   It fails when a cold batch builds more DAG nodes, DAG references or
//!   interner keys than its estimator's committed ceiling
//!   (`gate.decompose.max_{dag_nodes,dag_refs,interner_keys}.<estimator>`),
//!   when a warm repeat builds a node or makes more than one reference
//!   per query, or when the DAG dedup ratio falls below
//!   `gate.decompose.min_dedup_ratio`. Fail-closed: a missing threshold
//!   gauge is itself a failure.
//! * **Corpus** ([`check_corpus`]): mines the reduced corpus fixture
//!   sequentially and sharded, and fails unless every sharded build is
//!   bit-identical to the sequential one and (on multi-core hosts) the
//!   sharded build clears `gate.corpus.min_parallel_speedup`.
//! * **Server** ([`check_server`]): drives the closed-loop
//!   million-request mixed-tenant soak (`experiments::server`) and fails
//!   unless it clears the committed contract — soak size, tenant and
//!   parked-request floors, `gate.server.max_p99_us` /
//!   `gate.server.max_shed_rate` ceilings, bit-identity of every exact
//!   response against the in-process engine, and zero untyped errors.
//! * **Recovery** ([`check_recovery`]): sweeps the injected-crash matrix
//!   (`experiments::recovery`) — every durability fail-point site under
//!   every rule — and fails unless each crash point recovers bit-identical
//!   to a never-crashed replica of the acknowledged prefix, mid-log
//!   corruption surfaces as a typed fault, a torn tail seals cleanly, and
//!   a drain round-trips the state byte-for-byte.
//!
//! Every gate runs through the one shared runner in [`crate::gate_runner`],
//! which the `gates` binary calls.
//!
//! Every quantity the gates measure is seeded and single-threaded, so the
//! committed thresholds can be tight: reruns of the same build produce the
//! same workload, the same estimates, and the same hit counts.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

use tl_datagen::{Dataset, GenConfig};
use tl_obs::Snapshot;
use tl_workload::{average_relative_error_pct, positive_workload_with_index};
use tl_xml::DocIndex;
use treelattice::{
    BuildConfig, EngineConfig, EstimateOptions, EstimationEngine, Estimator, TreeLattice,
};

use crate::{
    experiments::{corpus, decompose, matcher, recovery, server},
    ExpConfig,
};

/// Threshold gauge name prefix for per-estimator mean error ceilings.
pub const MAX_MEAN_ERROR_PCT: &str = "gate.accuracy.max_mean_error_pct";
/// Threshold gauge name for the engine hit-rate floor.
pub const MIN_HIT_RATE: &str = "gate.engine.min_hit_rate";
/// Baseline gauge name for the perf smoke wall-clock.
pub const MATCHER_BUILD_MS: &str = "gate.perf.matcher_build_ms";
/// Threshold gauge name prefix for the per-estimator ceiling on DAG nodes
/// one cold decompose batch builds.
pub const MAX_DAG_NODES: &str = "gate.decompose.max_dag_nodes";
/// Threshold gauge name prefix for the per-estimator ceiling on DAG
/// references one cold decompose batch makes.
pub const MAX_DAG_REFS: &str = "gate.decompose.max_dag_refs";
/// Threshold gauge name prefix for the per-estimator ceiling on interner
/// keys one cold decompose batch assigns.
pub const MAX_INTERNER_KEYS: &str = "gate.decompose.max_interner_keys";
/// Threshold gauge name for the DAG nodes a warm repeat of the decompose
/// batch may build: 0, every root resolves from the cache.
pub const MAX_WARM_DAG_NODES: &str = "gate.decompose.max_warm_dag_nodes";
/// Threshold gauge name for the DAG references per query of a warm
/// repeat: 1, the root probe.
pub const MAX_WARM_REFS_PER_QUERY: &str = "gate.decompose.max_warm_refs_per_query";
/// Threshold gauge name for the decompose DAG dedup-ratio floor.
pub const MIN_DEDUP_RATIO: &str = "gate.decompose.min_dedup_ratio";
/// Threshold gauge name for the corpus parallel-construction speedup floor.
pub const MIN_PARALLEL_SPEEDUP: &str = "gate.corpus.min_parallel_speedup";
/// Threshold gauge marking the shard-merge bit-identity check as required
/// (`1.0`). Carried in the thresholds file so the identity check is
/// fail-closed like every other comparison: an empty file fails.
pub const REQUIRE_MERGE_IDENTITY: &str = "gate.corpus.require_merge_identity";
/// Threshold gauge name for the server soak's p99 latency ceiling (µs).
pub const MAX_P99_US: &str = "gate.server.max_p99_us";
/// Threshold gauge name for the server soak's shed-rate ceiling.
pub const MAX_SHED_RATE: &str = "gate.server.max_shed_rate";
/// Threshold gauge name for the soak's minimum completed wire requests.
pub const MIN_REQUESTS: &str = "gate.server.min_requests";
/// Threshold gauge name for the soak's minimum driven tenant count.
pub const MIN_TENANTS: &str = "gate.server.min_tenants";
/// Threshold gauge name for the soak's minimum count of requests that
/// parked for an execution slot, so the bit-identity check provably
/// covers handed-off requests.
pub const MIN_QUEUED: &str = "gate.server.min_queued";
/// Threshold gauge marking the server-vs-engine bit-identity check as
/// required (`1.0`), fail-closed like [`REQUIRE_MERGE_IDENTITY`].
pub const REQUIRE_SERVER_IDENTITY: &str = "gate.server.require_bit_identity";
/// Threshold gauge marking the zero-untyped-errors check as required
/// (`1.0`): every soak response must be an estimate, a degraded estimate
/// with provenance, or a typed fault — never a bare transport error.
pub const REQUIRE_ZERO_UNTYPED: &str = "gate.server.require_zero_untyped";
/// Threshold gauge marking crash-recovery bit-identity as required
/// (`1.0`): every injected crash point must recover byte-identical to a
/// never-crashed replica of the acknowledged prefix. Fail-closed.
pub const REQUIRE_RECOVERY_IDENTITY: &str = "gate.recovery.require_bit_identity";
/// Threshold gauge for the minimum crash points the matrix must sweep.
pub const MIN_CRASH_POINTS: &str = "gate.recovery.min_crash_points";
/// Threshold gauge marking the typed-corruption check as required
/// (`1.0`): a byte flipped mid-log must surface as a typed fault.
pub const REQUIRE_TYPED_CORRUPTION: &str = "gate.recovery.require_typed_corruption";
/// Threshold gauge marking the torn-tail seal check as required (`1.0`).
pub const REQUIRE_TORN_TAIL_SEAL: &str = "gate.recovery.require_torn_tail_seal";
/// Threshold gauge marking the drain round-trip check as required (`1.0`).
pub const REQUIRE_DRAIN_ROUND_TRIP: &str = "gate.recovery.require_drain_round_trip";

/// The fixed configuration the accuracy gate runs with. Changing it
/// invalidates `tests/gates/accuracy.json`; regenerate with
/// `gates --only accuracy --write-thresholds`.
pub fn accuracy_config() -> ExpConfig {
    ExpConfig {
        scale: 8_000,
        seed: 42,
        queries: 30,
        k: 4,
        ..ExpConfig::default()
    }
}

/// The tiny fixture the perf smoke gate times. Small enough that the gate
/// adds seconds, not minutes, to CI.
pub fn perf_config() -> ExpConfig {
    ExpConfig {
        scale: 1_500,
        seed: 42,
        queries: 5,
        k: 3,
        ..ExpConfig::default()
    }
}

/// What the accuracy gate measured on this build.
#[derive(Clone, Debug)]
pub struct AccuracyMeasurement {
    /// Mean relative error (percent) keyed by estimator name.
    pub mean_error_pct: BTreeMap<&'static str, f64>,
    /// Shared-cache engine hit rate over the whole workload, in [0, 1].
    pub hit_rate: f64,
    /// Total queries in the canned workload.
    pub queries: usize,
}

/// Runs the deterministic accuracy measurement: XMark at `cfg.scale`,
/// positive workloads of sizes 4–6, both recursive estimators, and one
/// single-threaded engine batch for the cache hit rate.
pub fn measure_accuracy(cfg: &ExpConfig) -> AccuracyMeasurement {
    let doc = Dataset::Xmark.generate(GenConfig {
        seed: cfg.seed,
        target_elements: cfg.scale,
    });
    let index = DocIndex::new(&doc);
    let lattice = TreeLattice::build_with_index(
        &doc,
        &index,
        &BuildConfig {
            k: cfg.k,
            threads: 0,
            prune_delta: None,
            ..BuildConfig::default()
        },
    );

    let mut twigs = Vec::new();
    let mut truths = Vec::new();
    for size in [4usize, 5, 6] {
        let w = positive_workload_with_index(
            &doc,
            &index,
            size,
            cfg.queries,
            cfg.seed.wrapping_add(size as u64),
        );
        for case in w.cases {
            truths.push(case.true_count);
            twigs.push(case.twig);
        }
    }
    assert!(!twigs.is_empty(), "accuracy gate workload is empty");

    let opts = EstimateOptions::default();
    let mut mean_error_pct = BTreeMap::new();
    for (name, estimator) in [
        ("recursive", Estimator::Recursive),
        ("voting", Estimator::RecursiveVoting),
    ] {
        let estimates: Vec<f64> = twigs
            .iter()
            .map(|t| lattice.estimate_with(t, estimator, &opts))
            .collect();
        mean_error_pct.insert(name, average_relative_error_pct(&truths, &estimates));
    }

    // One worker: concurrent workers can race to the same uncached key and
    // double-count misses, and a gate must measure the same value every run.
    let engine = EstimationEngine::new(EngineConfig {
        threads: 1,
        ..EngineConfig::default()
    });
    let _ = engine.estimate_batch(&lattice, &twigs, Estimator::RecursiveVoting, &opts);
    let stats = engine.stats();

    AccuracyMeasurement {
        mean_error_pct,
        hit_rate: stats.hit_rate(),
        queries: twigs.len(),
    }
}

/// Renders the measurement as a thresholds snapshot with headroom:
/// error ceilings at `1.15×` measured (floored at 1pp above), hit-rate
/// floor at measured `− 0.05`.
pub fn accuracy_thresholds(m: &AccuracyMeasurement, cfg: &ExpConfig) -> Snapshot {
    let mut snap = Snapshot::default();
    snap.meta.insert("gate".into(), "accuracy".into());
    snap.meta.insert("dataset".into(), "xmark".into());
    snap.meta.insert("scale".into(), cfg.scale.to_string());
    snap.meta.insert("seed".into(), cfg.seed.to_string());
    snap.meta.insert("k".into(), cfg.k.to_string());
    snap.meta
        .insert("queries_per_size".into(), cfg.queries.to_string());
    for (name, &err) in &m.mean_error_pct {
        snap.gauges.insert(
            format!("{MAX_MEAN_ERROR_PCT}.{name}"),
            (err * 1.15).max(err + 1.0),
        );
    }
    snap.gauges
        .insert(MIN_HIT_RATE.into(), (m.hit_rate - 0.05).max(0.0));
    snap
}

/// The outcome of one gate check: human-readable lines for every
/// comparison, plus the subset that failed.
#[derive(Clone, Debug, Default)]
pub struct GateReport {
    /// One line per comparison, pass or fail.
    pub lines: Vec<String>,
    /// Failure messages (empty means the gate passed).
    pub failures: Vec<String>,
}

impl GateReport {
    /// Whether every comparison passed.
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }

    pub(crate) fn check(&mut self, ok: bool, line: String) {
        self.lines
            .push(format!("{} {line}", if ok { "PASS" } else { "FAIL" }));
        if !ok {
            self.failures.push(line);
        }
    }
}

/// Compares a measurement against a thresholds snapshot. A threshold the
/// snapshot does not carry is itself a failure: a gate that silently
/// checks nothing is worse than a missing gate.
pub fn check_accuracy(m: &AccuracyMeasurement, thresholds: &Snapshot) -> GateReport {
    let mut report = GateReport::default();
    for (name, &err) in &m.mean_error_pct {
        let key = format!("{MAX_MEAN_ERROR_PCT}.{name}");
        match thresholds.gauges.get(&key) {
            Some(&max) => report.check(
                err <= max,
                format!("{name}: mean error {err:.2}% (max {max:.2}%)"),
            ),
            None => report.check(false, format!("thresholds missing gauge `{key}`")),
        }
    }
    match thresholds.gauges.get(MIN_HIT_RATE) {
        Some(&min) => report.check(
            m.hit_rate >= min,
            format!(
                "engine: cache hit rate {:.3} over {} queries (min {min:.3})",
                m.hit_rate, m.queries
            ),
        ),
        None => report.check(false, format!("thresholds missing gauge `{MIN_HIT_RATE}`")),
    }
    report
}

/// Times one `bench matcher` comparison run (generation, workloads, both
/// kernels, mining) in milliseconds.
pub fn measure_perf(cfg: &ExpConfig) -> f64 {
    let start = Instant::now();
    let b = matcher::build(cfg);
    std::hint::black_box(b.kernel.len());
    start.elapsed().as_secs_f64() * 1e3
}

/// Renders a measured perf run as a baseline snapshot (raw, no headroom:
/// the slack lives in the comparison factor, not the stored number).
pub fn perf_baseline(measured_ms: f64, cfg: &ExpConfig) -> Snapshot {
    let mut snap = Snapshot::default();
    snap.meta.insert("gate".into(), "perf".into());
    snap.meta.insert("scale".into(), cfg.scale.to_string());
    snap.meta.insert("seed".into(), cfg.seed.to_string());
    snap.meta.insert("k".into(), cfg.k.to_string());
    snap.meta.insert("queries".into(), cfg.queries.to_string());
    snap.gauges.insert(MATCHER_BUILD_MS.into(), measured_ms);
    snap
}

/// Compares a measured wall-clock against the committed baseline, allowing
/// `factor`× headroom for shared-runner noise.
pub fn check_perf(measured_ms: f64, baseline: &Snapshot, factor: f64) -> GateReport {
    let mut report = GateReport::default();
    match baseline.gauges.get(MATCHER_BUILD_MS) {
        Some(&base) => report.check(
            measured_ms <= base * factor,
            format!(
                "matcher build {measured_ms:.1}ms vs baseline {base:.1}ms (allowed {:.1}ms = {factor}x)",
                base * factor
            ),
        ),
        None => report.check(
            false,
            format!("baseline missing gauge `{MATCHER_BUILD_MS}`"),
        ),
    }
    report
}

/// The reduced configuration the decompose gate runs with: small enough
/// for CI, large enough that the workloads exercise multi-level
/// decomposition. Changing it invalidates `tests/gates/decompose.json`;
/// regenerate with `gates --only decompose --write-thresholds`.
pub fn decompose_config() -> ExpConfig {
    ExpConfig {
        scale: 2_000,
        seed: 42,
        queries: 10,
        k: 4,
        ..ExpConfig::default()
    }
}

/// Renders a measured decompose run as a thresholds snapshot: the cold
/// batch's counts as exact ceilings (they are deterministic, so any extra
/// node, reference or key is a regression), the warm contract of no node
/// and one reference per query, and the dedup floor at `0.9×` the worst
/// measured row, clamped to at least 1 (every workload shares some
/// operands).
pub fn decompose_thresholds(b: &decompose::DecomposeBench, cfg: &ExpConfig) -> Snapshot {
    let worst_dedup = b
        .rows
        .iter()
        .map(|r| r.dedup_ratio)
        .fold(f64::INFINITY, f64::min);
    let mut snap = Snapshot::default();
    snap.meta.insert("gate".into(), "decompose".into());
    snap.meta.insert("dataset".into(), "xmark".into());
    snap.meta.insert("scale".into(), cfg.scale.to_string());
    snap.meta.insert("seed".into(), cfg.seed.to_string());
    snap.meta.insert("k".into(), cfg.k.to_string());
    snap.meta
        .insert("queries_per_size".into(), cfg.queries.to_string());
    for r in &b.rows {
        for (prefix, _, count) in cold_counts(r) {
            snap.gauges
                .insert(format!("{prefix}.{}", r.estimator), count as f64);
        }
    }
    snap.gauges.insert(MAX_WARM_DAG_NODES.into(), 0.0);
    snap.gauges.insert(MAX_WARM_REFS_PER_QUERY.into(), 1.0);
    snap.gauges
        .insert(MIN_DEDUP_RATIO.into(), (worst_dedup * 0.9).max(1.0));
    snap
}

/// A row's cold-batch counts: ceiling gauge prefix, name, count.
fn cold_counts(r: &decompose::DecomposeRow) -> [(&'static str, &'static str, u64); 3] {
    [
        (MAX_DAG_NODES, "DAG nodes", r.dag_nodes),
        (MAX_DAG_REFS, "DAG refs", r.dag_refs),
        (MAX_INTERNER_KEYS, "interner keys", r.interner_keys as u64),
    ]
}

/// Compares a decompose measurement against a thresholds snapshot. Every
/// estimator row must stay within each ceiling and above the dedup floor;
/// a missing gauge is a failure.
pub fn check_decompose(b: &decompose::DecomposeBench, thresholds: &Snapshot) -> GateReport {
    let mut report = GateReport::default();
    let mut check =
        |gauge: &str, ok: &dyn Fn(f64) -> bool, line: String| match thresholds.gauges.get(gauge) {
            Some(&bound) => report.check(ok(bound), format!("{line} (bound {bound})")),
            None => report.check(false, format!("thresholds missing gauge `{gauge}`")),
        };
    for r in &b.rows {
        let e = r.estimator;
        for (prefix, what, count) in cold_counts(r) {
            check(
                &format!("{prefix}.{e}"),
                &|max| count as f64 <= max,
                format!("{e}: cold batch made {count} {what}"),
            );
        }
        check(
            MAX_WARM_DAG_NODES,
            &|max| r.warm_dag_nodes as f64 <= max,
            format!("{e}: warm repeat built {} DAG nodes", r.warm_dag_nodes),
        );
        check(
            MAX_WARM_REFS_PER_QUERY,
            &|max| r.warm_dag_refs as f64 <= max * r.queries as f64,
            format!(
                "{e}: warm repeat made {} DAG refs over {} queries",
                r.warm_dag_refs, r.queries
            ),
        );
        check(
            MIN_DEDUP_RATIO,
            &|min| r.dedup_ratio >= min,
            format!("{e}: DAG dedup ratio {:.2}x", r.dedup_ratio),
        );
    }
    report
}

/// The reduced corpus the corpus gate mines: small enough for CI seconds,
/// sharded enough to exercise the tree-reduction merge. Changing it
/// invalidates `tests/gates/corpus.json`; regenerate with
/// `gates --only corpus --write-thresholds`.
pub fn corpus_gate_config() -> corpus::CorpusBenchConfig {
    corpus::CorpusBenchConfig {
        docs: 8,
        elements_per_doc: 1_200,
        seed: 42,
        k: 3,
        repeats: 3,
    }
}

/// Renders corpus-gate thresholds. The parallel speedup floor is a fixed
/// contract (`2.0`) rather than a measured fraction: the merge monoid's
/// whole point is that N shards cut construction time, and on a
/// multi-core runner 2 of N cores must at least halve it. The bit-identity
/// requirement is carried as a `1.0` gauge so an empty thresholds file
/// fails closed.
pub fn corpus_thresholds(b: &corpus::CorpusBench) -> Snapshot {
    let cfg = &b.cfg;
    let mut snap = Snapshot::default();
    snap.meta.insert("gate".into(), "corpus".into());
    snap.meta.insert("dataset".into(), "xmark".into());
    snap.meta.insert("docs".into(), cfg.docs.to_string());
    snap.meta
        .insert("elements_per_doc".into(), cfg.elements_per_doc.to_string());
    snap.meta.insert("seed".into(), cfg.seed.to_string());
    snap.meta.insert("k".into(), cfg.k.to_string());
    snap.gauges.insert(MIN_PARALLEL_SPEEDUP.into(), 2.0);
    snap.gauges.insert(REQUIRE_MERGE_IDENTITY.into(), 1.0);
    snap
}

/// Compares a corpus measurement against a thresholds snapshot.
///
/// * **Bit-identity** (always enforced): every sharded build must
///   serialize byte-for-byte equal to the sequential one.
/// * **Parallel speedup** (enforced on multi-core hosts): the widest
///   sharded build must beat sequential by the committed floor. A
///   single-core host cannot measure parallel speedup at all, so the
///   check passes there with an explicit waiver line — the *identity*
///   half of the contract still runs everywhere.
///
/// A missing threshold gauge is a failure either way.
pub fn check_corpus(b: &corpus::CorpusBench, thresholds: &Snapshot) -> GateReport {
    let mut report = GateReport::default();
    match thresholds.gauges.get(REQUIRE_MERGE_IDENTITY) {
        Some(&req) if req > 0.0 => report.check(
            b.merge_identical,
            format!(
                "merge: sharded builds ({} shard configs) bit-identical to sequential: {}",
                b.rows.len(),
                b.merge_identical
            ),
        ),
        Some(_) => report.check(false, "merge identity requirement disabled".into()),
        None => report.check(
            false,
            format!("thresholds missing gauge `{REQUIRE_MERGE_IDENTITY}`"),
        ),
    }
    match thresholds.gauges.get(MIN_PARALLEL_SPEEDUP) {
        Some(&min) => {
            let best = b
                .rows
                .iter()
                .filter(|r| r.shards > 1)
                .map(|r| r.speedup)
                .fold(0.0, f64::max);
            if b.host_threads < 2 {
                report.check(
                    true,
                    format!(
                        "parallel: speedup floor {min:.2}x waived (host has {} core)",
                        b.host_threads
                    ),
                );
            } else {
                report.check(
                    best >= min,
                    format!(
                        "parallel: best sharded speedup {best:.2}x over sequential (min {min:.2}x, {} cores)",
                        b.host_threads
                    ),
                );
            }
        }
        None => report.check(
            false,
            format!("thresholds missing gauge `{MIN_PARALLEL_SPEEDUP}`"),
        ),
    }
    report
}

/// The configuration the server gate soaks with: the full one-million
/// request mixed-tenant load at a CI-matrix seed. Changing anything but
/// the seed invalidates `tests/gates/server.json`; regenerate with
/// `gates --only server --write-thresholds`.
pub fn server_gate_config(seed: u64) -> server::ServerBenchConfig {
    server::ServerBenchConfig {
        seed,
        ..server::bench_config()
    }
}

/// Renders server-gate thresholds. Like the corpus gate, most of these
/// are fixed contract values rather than measured fractions: the soak
/// size, tenant and parked-request floors restate the gate's definition
/// (one parked request proves the handoff path was exercised), the
/// identity and typed-error requirements are carried as `1.0` gauges so
/// an empty thresholds file fails closed, and only the latency/shed
/// ceilings are judgement calls — generous enough for throttled shared
/// runners, tight enough that a pathological server (lock convoy, queue
/// leak, busy retry loop) cannot pass.
pub fn server_thresholds(cfg: &server::ServerBenchConfig) -> Snapshot {
    let mut snap = Snapshot::default();
    snap.meta.insert("gate".into(), "server".into());
    snap.meta.insert("dataset".into(), "xmark".into());
    snap.meta.insert("scale".into(), cfg.scale.to_string());
    snap.meta.insert("k".into(), cfg.k.to_string());
    snap.meta.insert("workers".into(), cfg.workers.to_string());
    snap.gauges.insert(MAX_P99_US.into(), 50_000.0);
    snap.gauges.insert(MAX_SHED_RATE.into(), 0.25);
    snap.gauges.insert(MIN_REQUESTS.into(), cfg.requests as f64);
    snap.gauges.insert(MIN_TENANTS.into(), 3.0);
    snap.gauges.insert(MIN_QUEUED.into(), 1.0);
    snap.gauges.insert(REQUIRE_SERVER_IDENTITY.into(), 1.0);
    snap.gauges.insert(REQUIRE_ZERO_UNTYPED.into(), 1.0);
    snap
}

/// Compares a server soak against a thresholds snapshot. A missing
/// threshold gauge is a failure.
pub fn check_server(b: &server::ServerBench, thresholds: &Snapshot) -> GateReport {
    let mut report = GateReport::default();
    match thresholds.gauges.get(MIN_REQUESTS) {
        Some(&min) => report.check(
            b.requests as f64 >= min,
            format!(
                "soak: {} wire requests completed (min {min:.0})",
                b.requests
            ),
        ),
        None => report.check(false, format!("thresholds missing gauge `{MIN_REQUESTS}`")),
    }
    match thresholds.gauges.get(MIN_TENANTS) {
        Some(&min) => report.check(
            b.tenants.len() as f64 >= min,
            format!(
                "tenants: {} driven [{}] (min {min:.0})",
                b.tenants.len(),
                b.tenants.join(",")
            ),
        ),
        None => report.check(false, format!("thresholds missing gauge `{MIN_TENANTS}`")),
    }
    match thresholds.gauges.get(MIN_QUEUED) {
        Some(&min) => report.check(
            b.queued as f64 >= min,
            format!(
                "handoff: {} requests parked for a slot (min {min:.0})",
                b.queued
            ),
        ),
        None => report.check(false, format!("thresholds missing gauge `{MIN_QUEUED}`")),
    }
    match thresholds.gauges.get(MAX_P99_US) {
        Some(&max) => report.check(
            b.p99_us <= max,
            format!(
                "latency: p50 {:.0}µs p95 {:.0}µs p99 {:.0}µs (p99 max {max:.0}µs)",
                b.p50_us, b.p95_us, b.p99_us
            ),
        ),
        None => report.check(false, format!("thresholds missing gauge `{MAX_P99_US}`")),
    }
    match thresholds.gauges.get(MAX_SHED_RATE) {
        Some(&max) => report.check(
            b.shed_rate <= max,
            format!(
                "overload: {} sheds over {} requests = rate {:.4} (max {max:.2})",
                b.shed, b.requests, b.shed_rate
            ),
        ),
        None => report.check(false, format!("thresholds missing gauge `{MAX_SHED_RATE}`")),
    }
    match thresholds.gauges.get(REQUIRE_SERVER_IDENTITY) {
        Some(&req) if req > 0.0 => report.check(
            b.identity_checked > 0 && b.identity_mismatches == 0,
            format!(
                "identity: {}/{} exact responses bit-identical to the in-process engine",
                b.identity_checked - b.identity_mismatches,
                b.identity_checked
            ),
        ),
        Some(_) => report.check(false, "server identity requirement disabled".into()),
        None => report.check(
            false,
            format!("thresholds missing gauge `{REQUIRE_SERVER_IDENTITY}`"),
        ),
    }
    match thresholds.gauges.get(REQUIRE_ZERO_UNTYPED) {
        Some(&req) if req > 0.0 => report.check(
            b.untyped_errors == 0,
            format!(
                "contract: {} untyped errors ({} typed faults, {} degraded-with-provenance)",
                b.untyped_errors, b.faults, b.degraded
            ),
        ),
        Some(_) => report.check(false, "zero-untyped requirement disabled".into()),
        None => report.check(
            false,
            format!("thresholds missing gauge `{REQUIRE_ZERO_UNTYPED}`"),
        ),
    }
    report
}

/// The configuration the recovery gate sweeps with: the full crash
/// matrix at a CI-matrix seed (the seed varies the workload, the
/// fail-point coin, and the crash timing — the contract does not).
/// Changing anything but the seed invalidates `tests/gates/recovery.json`;
/// regenerate with `gates --only recovery --write-thresholds`.
pub fn recovery_gate_config(seed: u64) -> recovery::RecoveryBenchConfig {
    recovery::RecoveryBenchConfig {
        seed,
        ..recovery::bench_config()
    }
}

/// Renders recovery-gate thresholds. All contract values: the crash-point
/// floor restates the matrix the sweep drives, and the four requirement
/// gauges are carried as `1.0` so an empty thresholds file fails closed.
pub fn recovery_thresholds(cfg: &recovery::RecoveryBenchConfig) -> Snapshot {
    let mut snap = Snapshot::default();
    snap.meta.insert("gate".into(), "recovery".into());
    snap.meta.insert("dataset".into(), "xmark".into());
    snap.meta.insert("scale".into(), cfg.scale.to_string());
    snap.meta.insert("k".into(), cfg.k.to_string());
    snap.meta
        .insert("updates_per_point".into(), cfg.updates.to_string());
    snap.gauges
        .insert(MIN_CRASH_POINTS.into(), recovery::matrix_size() as f64);
    snap.gauges.insert(REQUIRE_RECOVERY_IDENTITY.into(), 1.0);
    snap.gauges.insert(REQUIRE_TYPED_CORRUPTION.into(), 1.0);
    snap.gauges.insert(REQUIRE_TORN_TAIL_SEAL.into(), 1.0);
    snap.gauges.insert(REQUIRE_DRAIN_ROUND_TRIP.into(), 1.0);
    snap
}

/// Compares a crash-matrix sweep against a thresholds snapshot. A missing
/// threshold gauge is a failure.
pub fn check_recovery(b: &recovery::RecoveryBench, thresholds: &Snapshot) -> GateReport {
    let mut report = GateReport::default();
    match thresholds.gauges.get(MIN_CRASH_POINTS) {
        Some(&min) => report.check(
            b.crash_points() as f64 >= min,
            format!(
                "matrix: {} crash points swept ({} sites x {} rules, min {min:.0})",
                b.crash_points(),
                recovery::CRASH_SITES.len(),
                recovery::CRASH_RULES.len()
            ),
        ),
        None => report.check(
            false,
            format!("thresholds missing gauge `{MIN_CRASH_POINTS}`"),
        ),
    }
    match thresholds.gauges.get(REQUIRE_RECOVERY_IDENTITY) {
        Some(&req) if req > 0.0 => {
            let diverged: Vec<String> = b
                .rows
                .iter()
                .filter(|r| !r.bit_identical)
                .map(|r| format!("{}={}", r.site, r.rule))
                .collect();
            report.check(
                b.crash_points() > 0 && diverged.is_empty(),
                format!(
                    "identity: {}/{} crash points recovered bit-identical to the replica{}",
                    b.identical_points,
                    b.crash_points(),
                    if diverged.is_empty() {
                        String::new()
                    } else {
                        format!(" (diverged: {})", diverged.join(", "))
                    }
                ),
            );
        }
        Some(_) => report.check(false, "recovery identity requirement disabled".into()),
        None => report.check(
            false,
            format!("thresholds missing gauge `{REQUIRE_RECOVERY_IDENTITY}`"),
        ),
    }
    match thresholds.gauges.get(REQUIRE_TYPED_CORRUPTION) {
        Some(&req) if req > 0.0 => report.check(
            b.corruption_typed,
            format!(
                "corruption: mid-log byte flip surfaced as a typed fault: {}",
                b.corruption_typed
            ),
        ),
        Some(_) => report.check(false, "typed-corruption requirement disabled".into()),
        None => report.check(
            false,
            format!("thresholds missing gauge `{REQUIRE_TYPED_CORRUPTION}`"),
        ),
    }
    match thresholds.gauges.get(REQUIRE_TORN_TAIL_SEAL) {
        Some(&req) if req > 0.0 => report.check(
            b.torn_tail_sealed,
            format!(
                "torn tail: sheared final record sealed as clean end-of-log: {}",
                b.torn_tail_sealed
            ),
        ),
        Some(_) => report.check(false, "torn-tail requirement disabled".into()),
        None => report.check(
            false,
            format!("thresholds missing gauge `{REQUIRE_TORN_TAIL_SEAL}`"),
        ),
    }
    match thresholds.gauges.get(REQUIRE_DRAIN_ROUND_TRIP) {
        Some(&req) if req > 0.0 => report.check(
            b.drain_round_trip,
            format!(
                "drain: flush + snapshot + reopen reproduced the state byte-for-byte: {}",
                b.drain_round_trip
            ),
        ),
        Some(_) => report.check(false, "drain round-trip requirement disabled".into()),
        None => report.check(
            false,
            format!("thresholds missing gauge `{REQUIRE_DRAIN_ROUND_TRIP}`"),
        ),
    }
    report
}

/// Loads a thresholds/baseline snapshot from disk.
pub fn load_snapshot(path: &Path) -> Result<Snapshot, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Snapshot::from_json(&text).map_err(|e| format!("{}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_config() -> ExpConfig {
        ExpConfig {
            scale: 1_500,
            seed: 42,
            queries: 5,
            k: 3,
            ..ExpConfig::default()
        }
    }

    #[test]
    fn accuracy_measurement_is_deterministic() {
        let cfg = tiny_config();
        let a = measure_accuracy(&cfg);
        let b = measure_accuracy(&cfg);
        assert_eq!(a.mean_error_pct, b.mean_error_pct);
        assert_eq!(a.hit_rate, b.hit_rate);
        assert_eq!(a.queries, b.queries);
        assert!(a.queries > 0);
        assert!(a.hit_rate > 0.0, "repeated sub-twigs should hit the cache");
    }

    #[test]
    fn generated_thresholds_pass_their_own_measurement() {
        let cfg = tiny_config();
        let m = measure_accuracy(&cfg);
        let thresholds = accuracy_thresholds(&m, &cfg);
        let report = check_accuracy(&m, &thresholds);
        assert!(report.passed(), "{:?}", report.failures);
        assert_eq!(report.lines.len(), 3, "two estimators + hit rate");
    }

    #[test]
    fn tightened_thresholds_fail() {
        let cfg = tiny_config();
        let m = measure_accuracy(&cfg);
        let mut thresholds = accuracy_thresholds(&m, &cfg);
        for v in thresholds.gauges.values_mut() {
            *v = match *v {
                // Error ceilings shrink below measurement...
                x if x > 1.0 => x / 100.0,
                // ...and the hit-rate floor rises above it.
                _ => 1.01,
            };
        }
        let report = check_accuracy(&m, &thresholds);
        assert!(!report.passed());
        assert_eq!(report.failures.len(), 3);
    }

    #[test]
    fn missing_threshold_gauges_fail_closed() {
        let cfg = tiny_config();
        let m = measure_accuracy(&cfg);
        let report = check_accuracy(&m, &Snapshot::default());
        assert!(!report.passed());
        assert!(report.failures.iter().all(|f| f.contains("missing gauge")));
    }

    #[test]
    fn perf_gate_passes_against_own_baseline_and_fails_tightened() {
        let baseline = perf_baseline(100.0, &tiny_config());
        assert!(check_perf(100.0, &baseline, 3.0).passed());
        assert!(check_perf(299.0, &baseline, 3.0).passed());
        assert!(!check_perf(301.0, &baseline, 3.0).passed());
        assert!(!check_perf(100.0, &Snapshot::default(), 3.0).passed());
    }

    fn decompose_row(estimator: &'static str) -> decompose::DecomposeRow {
        decompose::DecomposeRow {
            estimator,
            queries: 10,
            engine_cold_ms: 1.0,
            engine_warm_ms: 0.1,
            warm_ns_per_query: 100.0,
            dedup_ratio: 2.0,
            interner_keys: 15,
            dag_nodes: 20,
            dag_refs: 40,
            warm_dag_nodes: 0,
            warm_dag_refs: 10,
        }
    }

    fn decompose_bench(rows: Vec<decompose::DecomposeRow>) -> decompose::DecomposeBench {
        decompose::DecomposeBench {
            scale: 2_000,
            seed: 42,
            host_cpus: 2,
            rows,
        }
    }

    #[test]
    fn decompose_gate_checks_synthetic_rows() {
        let good = decompose_bench(vec![decompose_row("recursive"), decompose_row("voting")]);
        let thresholds = decompose_thresholds(&good, &decompose_config());
        // Ceilings are the measured counts; the dedup floor is 0.9x.
        assert_eq!(
            thresholds.gauges["gate.decompose.max_dag_nodes.voting"],
            20.0
        );
        assert_eq!(
            thresholds.gauges["gate.decompose.max_dag_refs.recursive"],
            40.0
        );
        assert_eq!(
            thresholds.gauges["gate.decompose.max_interner_keys.voting"],
            15.0
        );
        assert_eq!(thresholds.gauges[MAX_WARM_DAG_NODES], 0.0);
        assert_eq!(thresholds.gauges[MAX_WARM_REFS_PER_QUERY], 1.0);
        assert_eq!(thresholds.gauges[MIN_DEDUP_RATIO], 1.8);
        let report = check_decompose(&good, &thresholds);
        assert!(report.passed(), "{:?}", report.failures);
        // Less sharing fails the floor...
        let mut shallow = decompose_row("voting");
        shallow.dedup_ratio = 1.2;
        assert!(!check_decompose(&decompose_bench(vec![shallow]), &thresholds).passed());
        // ...and the floor never drops below 1.
        let mut weak = decompose_row("voting");
        weak.dedup_ratio = 1.05;
        let weak = decompose_thresholds(&decompose_bench(vec![weak]), &decompose_config());
        assert_eq!(weak.gauges[MIN_DEDUP_RATIO], 1.0);
        // A thresholds file missing any one gauge fails closed.
        for gauge in thresholds.gauges.keys() {
            let mut partial = thresholds.clone();
            partial.gauges.remove(gauge);
            let report = check_decompose(&good, &partial);
            assert!(!report.passed(), "{gauge}");
            assert!(
                report.failures.iter().all(|f| f.contains("missing gauge")),
                "{gauge}: {:?}",
                report.failures
            );
        }
        let report = check_decompose(&good, &Snapshot::default());
        assert!(!report.passed());
        assert!(report.failures.iter().all(|f| f.contains("missing gauge")));
    }

    #[test]
    fn decompose_gate_fails_a_cold_regression() {
        // One more cold node, reference or interner key than committed —
        // the work a lost dedup or a skipped root probe adds — fails.
        let good = decompose_bench(vec![decompose_row("recursive")]);
        let thresholds = decompose_thresholds(&good, &decompose_config());
        for what in ["DAG nodes", "DAG refs", "interner keys"] {
            let mut row = decompose_row("recursive");
            match what {
                "DAG nodes" => row.dag_nodes += 1,
                "DAG refs" => row.dag_refs += 1,
                _ => row.interner_keys += 1,
            }
            let report = check_decompose(&decompose_bench(vec![row]), &thresholds);
            assert_eq!(report.failures.len(), 1, "{what}: {:?}", report.failures);
            assert!(
                report.failures[0].contains(what),
                "{what}: {:?}",
                report.failures
            );
        }
        // A warm repeat that builds a node, or probes more than its roots,
        // fails too.
        let mut warm_node = decompose_row("recursive");
        warm_node.warm_dag_nodes = 1;
        warm_node.warm_dag_refs += 3;
        let report = check_decompose(&decompose_bench(vec![warm_node]), &thresholds);
        assert_eq!(report.failures.len(), 2, "{:?}", report.failures);
        assert!(report.failures.iter().all(|f| f.contains("warm repeat")));
    }

    #[test]
    fn corpus_gate_checks_identity_and_speedup() {
        let bench = |identical: bool, speedup: f64, host: usize| corpus::CorpusBench {
            cfg: corpus_gate_config(),
            host_threads: host,
            rows: vec![
                corpus::CorpusScalingRow {
                    shards: 1,
                    build_ms: 100.0,
                    speedup: 1.0,
                },
                corpus::CorpusScalingRow {
                    shards: 4,
                    build_ms: 100.0 / speedup,
                    speedup,
                },
            ],
            merge_identical: identical,
            merge_ms: 1.0,
            summary_patterns: 500,
            summary_heap_bytes: 40_000,
            mmap_bytes: 20_000,
            mmap_cold_lookup_ns: 300.0,
            mmap_probes: 128,
        };
        let good = bench(true, 3.0, 4);
        let thresholds = corpus_thresholds(&good);
        assert_eq!(thresholds.gauges[MIN_PARALLEL_SPEEDUP], 2.0);
        assert!(check_corpus(&good, &thresholds).passed());
        // Bit-identity failures are fatal regardless of speed or cores.
        assert!(!check_corpus(&bench(false, 3.0, 4), &thresholds).passed());
        assert!(!check_corpus(&bench(false, 3.0, 1), &thresholds).passed());
        // Slow scaling fails on a multi-core host...
        assert!(!check_corpus(&bench(true, 1.1, 4), &thresholds).passed());
        // ...but is waived (with identity still required) on one core.
        let waived = check_corpus(&bench(true, 1.0, 1), &thresholds);
        assert!(waived.passed());
        assert!(waived.lines.iter().any(|l| l.contains("waived")));
        // Fail-closed on an empty thresholds file.
        let report = check_corpus(&good, &Snapshot::default());
        assert!(!report.passed());
        assert!(report.failures.iter().all(|f| f.contains("missing gauge")));
    }

    #[test]
    fn server_gate_checks_contract_and_ceilings() {
        let bench = |p99: f64, shed: u64, untyped: u64, mismatches: u64| {
            let requests = 1_000_000u64;
            crate::experiments::server::ServerBench {
                cfg: server_gate_config(42),
                host_cpus: 2,
                tenants: vec![
                    "gold".into(),
                    "silver".into(),
                    "bronze".into(),
                    "strict".into(),
                ],
                requests,
                queries: requests + 50_000,
                wall_s: 10.0,
                throughput_rps: requests as f64 / 10.0,
                p50_us: 100.0,
                p95_us: 500.0,
                p99_us: p99,
                shed,
                queued: 5_000,
                degraded: 10_000,
                faults: 0,
                untyped_errors: untyped,
                identity_checked: 800_000 - mismatches,
                identity_mismatches: mismatches,
                shed_rate: shed as f64 / requests as f64,
            }
        };
        let good = bench(2_000.0, 100, 0, 0);
        let thresholds = server_thresholds(&good.cfg);
        assert_eq!(thresholds.gauges[MIN_REQUESTS], 1_000_000.0);
        assert!(check_server(&good, &thresholds).passed());
        // Each ceiling and contract fails independently...
        assert!(!check_server(&bench(60_000.0, 100, 0, 0), &thresholds).passed());
        assert!(!check_server(&bench(2_000.0, 300_000, 0, 0), &thresholds).passed());
        assert!(!check_server(&bench(2_000.0, 100, 1, 0), &thresholds).passed());
        assert!(!check_server(&bench(2_000.0, 100, 0, 1), &thresholds).passed());
        // ...a too-small soak fails...
        let mut short = bench(2_000.0, 100, 0, 0);
        short.requests = 999;
        assert!(!check_server(&short, &thresholds).passed());
        // ...too few tenants fails...
        let mut narrow = bench(2_000.0, 100, 0, 0);
        narrow.tenants.truncate(2);
        assert!(!check_server(&narrow, &thresholds).passed());
        // ...a soak where no request parked for a slot fails...
        let mut unqueued = bench(2_000.0, 100, 0, 0);
        unqueued.queued = 0;
        assert!(!check_server(&unqueued, &thresholds).passed());
        // ...and an empty thresholds file fails closed.
        let report = check_server(&good, &Snapshot::default());
        assert!(!report.passed());
        assert!(report.failures.iter().all(|f| f.contains("missing gauge")));
    }

    #[test]
    fn recovery_gate_checks_contract() {
        let row = |identical: bool| recovery::CrashRow {
            site: "wal.append.torn",
            rule: "always",
            acked: 0,
            recovered_seq: 0,
            replayed: 0,
            injected: 6,
            bit_identical: identical,
        };
        let bench = |identical: bool, corrupt: bool, torn: bool, drain: bool| {
            let rows: Vec<recovery::CrashRow> = (0..recovery::matrix_size())
                .map(|_| row(identical))
                .collect();
            let identical_points = rows.iter().filter(|r| r.bit_identical).count() as u64;
            recovery::RecoveryBench {
                cfg: recovery_gate_config(42),
                rows,
                identical_points,
                corruption_typed: corrupt,
                torn_tail_sealed: torn,
                drain_round_trip: drain,
            }
        };
        let good = bench(true, true, true, true);
        let thresholds = recovery_thresholds(&good.cfg);
        assert_eq!(
            thresholds.gauges[MIN_CRASH_POINTS],
            recovery::matrix_size() as f64
        );
        assert!(check_recovery(&good, &thresholds).passed());
        // Each contract fails independently...
        assert!(!check_recovery(&bench(false, true, true, true), &thresholds).passed());
        assert!(!check_recovery(&bench(true, false, true, true), &thresholds).passed());
        assert!(!check_recovery(&bench(true, true, false, true), &thresholds).passed());
        assert!(!check_recovery(&bench(true, true, true, false), &thresholds).passed());
        // ...a diverged point is named in the failure line...
        let report = check_recovery(&bench(false, true, true, true), &thresholds);
        assert!(report.failures.iter().any(|f| f.contains("diverged")));
        // ...a too-small matrix fails...
        let mut narrow = bench(true, true, true, true);
        narrow.rows.truncate(2);
        narrow.identical_points = 2;
        assert!(!check_recovery(&narrow, &thresholds).passed());
        // ...and an empty thresholds file fails closed.
        let empty = check_recovery(&good, &Snapshot::default());
        assert!(!empty.passed());
        assert!(empty.failures.iter().all(|f| f.contains("missing gauge")));
    }

    #[test]
    fn thresholds_round_trip_through_snapshot_json() {
        let cfg = tiny_config();
        let m = measure_accuracy(&cfg);
        let thresholds = accuracy_thresholds(&m, &cfg);
        let parsed = Snapshot::from_json(&thresholds.to_json()).unwrap();
        assert_eq!(parsed, thresholds);
        assert_eq!(
            parsed.meta.get("gate").map(String::as_str),
            Some("accuracy")
        );
    }
}
