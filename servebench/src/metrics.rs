//! The declared metrics, their computation, and the printed result.

use std::path::Path;

use tl_obs::json::{write_escaped, write_f64};
use tl_obs::{MetricsRecorder, Snapshot};
use treelattice::{DurableOptions, TreeLattice};

use crate::checks::Report;
use crate::drive::{Phase, Record, Slice, WindowCost};
use crate::layers::{self, Replicas};
use crate::setup::{Queries, SetupTimes};
use crate::spec::Spec;
use crate::sys::{interquartile_mean, median, percentile};
use crate::trace::{self, Tracer};

/// End-to-end metrics (`--trace 0`), as declared in BENCHMARK.json.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("throughput_rps", "1/s"),
    ("estimate_p50_us", "us"),
    ("estimate_p90_us", "us"),
    ("server_cpu_us_per_request", "us"),
    ("peak_rss_mb", "MiB"),
    ("qerror_gmean", "ratio"),
];

/// Per-layer metrics (`--trace 1`), as declared in BENCHMARK.json.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("xml.parse_s", "s"),
    ("xml.index_s", "s"),
    ("miner.mine_s", "s"),
    ("miner.patterns", "count"),
    ("serialize.to_bytes_s", "s"),
    ("serialize.frame_bytes", "bytes"),
    ("server.start_s", "s"),
    ("protocol.encode_us", "us"),
    ("protocol.decode_us", "us"),
    ("protocol.bytes_per_request", "bytes"),
    ("twig.parse_us", "us"),
    ("queue.admit_us", "us"),
    ("obs.record_us", "us"),
    ("server.conn_cpu_us_per_request", "us"),
    ("server.worker_cpu_us_per_request", "us"),
    ("server.ctx_switches_per_request", "count"),
    ("server.latency_p50_us", "us"),
    ("engine.estimate_p50_us", "us"),
    ("engine.estimate_p90_us", "us"),
    ("engine.hit_rate", "ratio"),
    ("catalog.estimate_p50_us", "us"),
    ("catalog.estimate_p90_us", "us"),
    ("catalog.lookups_per_query", "count"),
    ("online.observe_p50_us", "us"),
    ("online.summary_bytes", "bytes"),
    ("wal.apply_p50_us", "us"),
    ("wal.apply_p90_us", "us"),
    ("wal.bytes_per_update", "bytes"),
    ("wal.fsyncs_per_update", "count"),
    ("snapshot.writes", "count"),
    ("client.cpu_us_per_request", "us"),
    ("transport.residual_us", "us"),
    ("trace.overhead_pct", "%"),
];

/// Requests the engine and catalog passes replay at most.
const PASS_ESTIMATES: usize = 2_000;
/// Updates the online pass applies.
const PASS_OBSERVES: usize = 128;
/// Updates the WAL pass applies: one more than a snapshot interval, so
/// the pass writes one snapshot.
const PASS_APPLIES: usize = 520;

/// Everything a run measured, before it is turned into metrics.
pub struct Outcome<'a> {
    pub spec: &'a Spec,
    pub elements: usize,
    pub patterns: usize,
    pub frame_bytes: usize,
    pub setup: &'a SetupTimes,
    pub queries: &'a Queries,
    pub log: &'a [Record],
    pub heldout: &'a [Option<u64>],
    pub window: WindowCost,
    pub peak_rss_mb: f64,
    pub scrape: &'a Snapshot,
    pub report: &'a Report,
    pub cold_wraps: u64,
    /// File system of the directory the WAL pass writes into.
    pub wal_fs: String,
    /// CPUs available to the process before it pinned itself.
    pub host_cpus: usize,
    /// The CPU every thread of the process runs on, if pinning worked.
    pub pinned_cpu: Option<usize>,
}

/// The two stdout lines of a measuring process.
pub struct Printed {
    pub diagnostics: String,
    pub result: String,
    pub correct: bool,
}

fn geometric_mean(values: &[f64]) -> f64 {
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len().max(1) as f64).exp()
}

fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

fn per_request(total: f64, requests: usize) -> f64 {
    total / requests.max(1) as f64
}

impl Outcome<'_> {
    fn window_us(&self) -> Vec<f64> {
        self.log
            .iter()
            .filter(|r| r.phase == Phase::Window)
            .map(|r| us(r.ns))
            .collect()
    }

    fn attempted(&self) -> usize {
        self.log.len() + self.heldout.len()
    }

    /// Failed requests: transport errors, fault statuses and degraded
    /// answers, plus answers that differ from the reference.
    fn failed(&self, extra: u64) -> usize {
        let transport = self.log.iter().filter(|r| r.answer.is_none()).count()
            + self.heldout.iter().filter(|h| h.is_none()).count();
        transport + self.report.mismatches + extra as usize
    }

    fn qerrors(&self) -> Vec<f64> {
        self.heldout
            .iter()
            .zip(&self.queries.heldout_truth)
            .filter_map(|(bits, &truth)| {
                Some(tl_workload::q_error(truth, f64::from_bits((*bits)?)))
            })
            .collect()
    }

    /// Interquartile mean of `f` over the window's untraced slices. Host
    /// noise on a shared VM comes both as outlier slices and as a fast and
    /// a slow mode that alternate every few seconds: dropping the outer
    /// quarters removes the first, and averaging the rest tracks the mix
    /// of the second smoothly where a median would jump between the modes.
    fn over_slices(&self, f: impl Fn(&Slice) -> f64) -> f64 {
        let mut v: Vec<f64> = self
            .window
            .slices
            .iter()
            .filter(|s| s.phase == Phase::Window && s.requests() > 0)
            .map(f)
            .collect();
        interquartile_mean(&mut v)
    }

    /// Latency percentile (µs) of one slice's requests.
    fn slice_latency(&self, s: &Slice, p: f64) -> f64 {
        let mut v: Vec<f64> = self.log[s.first..s.end].iter().map(|r| us(r.ns)).collect();
        percentile(&mut v, p)
    }

    pub fn end_to_end(&self) -> Printed {
        let values = [
            self.setup.total().as_secs_f64(),
            self.over_slices(|s| s.requests() as f64 / s.elapsed.as_secs_f64()),
            self.over_slices(|s| self.slice_latency(s, 0.5)),
            self.over_slices(|s| self.slice_latency(s, 0.9)),
            self.over_slices(|s| per_request(us(s.server_cpu_ns), s.requests())),
            self.peak_rss_mb,
            geometric_mean(&self.qerrors()),
        ];
        self.print(END_TO_END, &values, 0, Vec::new())
    }

    pub fn per_layer(&self, l: LayerData) -> Printed {
        let spans = &l.spans;
        let reqs = &l.requests;
        let mut residual: Vec<f64> = reqs.iter().map(|r| r.residual_ns as f64 / 1e3).collect();
        let mut traced_rt: Vec<f64> = reqs.iter().map(|r| us(r.round_trip_ns)).collect();
        let mut untraced_rt: Vec<f64> = spans
            .iter()
            .filter(|s| s.layer == "untraced.estimate")
            .map(|s| us(s.ns()))
            .collect();
        let untraced_p50 = median(&mut untraced_rt);
        let counter = |name: &str| l.wal.counters.get(name).copied().unwrap_or(0) as f64;
        let appends = counter(tl_obs::names::WAL_APPENDS);
        let values = [
            trace::layer_median_s(spans, "xml.parse"),
            trace::layer_median_s(spans, "xml.index"),
            trace::layer_median_s(spans, "miner.mine"),
            self.patterns as f64,
            trace::layer_median_s(spans, "serialize.to_bytes"),
            self.frame_bytes as f64,
            trace::layer_median_s(spans, "server.start"),
            trace::request_layer_us(reqs, "protocol.encode"),
            trace::request_layer_us(reqs, "protocol.decode"),
            l.bytes_per_request,
            trace::request_layer_us(reqs, "twig.parse"),
            trace::request_layer_us(reqs, "queue.admit"),
            trace::request_layer_us(reqs, "obs.record"),
            self.over_slices(|s| per_request(us(s.conn_cpu_ns), s.requests())),
            self.over_slices(|s| per_request(us(s.worker_cpu_ns), s.requests())),
            self.over_slices(|s| per_request(s.server_switches as f64, s.requests())),
            hist_p50(self.scrape, tl_obs::names::SERVER_LATENCY_US),
            trace::layer_us(spans, "engine.estimate", 0.5),
            trace::layer_us(spans, "engine.estimate", 0.9),
            l.engine_hit_rate,
            trace::layer_us(spans, "catalog.estimate", 0.5),
            trace::layer_us(spans, "catalog.estimate", 0.9),
            l.catalog_lookups_per_query,
            trace::layer_us(spans, "online.observe", 0.5),
            l.summary_bytes as f64,
            trace::layer_us(spans, "wal.apply", 0.5),
            trace::layer_us(spans, "wal.apply", 0.9),
            counter(tl_obs::names::WAL_APPEND_BYTES) / appends.max(1.0),
            counter(tl_obs::names::WAL_FSYNCS) / appends.max(1.0),
            counter(tl_obs::names::SNAPSHOT_WRITES),
            self.over_slices(|s| per_request(us(s.client_cpu_ns), s.requests())),
            median(&mut residual),
            (median(&mut traced_rt) - untraced_p50) / untraced_p50 * 100.0,
        ];
        let scraped = |name: &str| self.scrape.counters.get(name).copied().unwrap_or(0);
        let server_hits = scraped(tl_obs::names::ENGINE_CACHE_HITS);
        let server_misses = scraped(tl_obs::names::ENGINE_CACHE_MISSES);
        let extra = vec![
            ("trace_file", Diag::Str(l.trace_file.clone())),
            ("traced_requests", Diag::Num(reqs.len() as f64)),
            ("spans", Diag::Num(spans.len() as f64)),
            ("replica_mismatches", Diag::Num(l.replica_mismatches as f64)),
            (
                "server_engine_hit_rate",
                Diag::Num(server_hits as f64 / (server_hits + server_misses).max(1) as f64),
            ),
        ];
        self.print(PER_LAYER, &values, l.replica_mismatches, extra)
    }

    fn print(
        &self,
        declared: &[(&str, &str)],
        values: &[f64],
        extra_failed: u64,
        mut diag: Vec<(&str, Diag)>,
    ) -> Printed {
        assert_eq!(
            declared.len(),
            values.len(),
            "one value per declared metric"
        );
        let attempted = self.attempted();
        let failed = self.failed(extra_failed);
        let correct = failed == 0;
        let metrics = declared.iter().zip(values).map(|(&(n, u), &v)| (n, u, v));
        let result = result_line(correct, attempted as u64, failed as u64, metrics);

        let w = &self.window;
        let mut est = self.window_us();
        let mut d: Vec<(&str, Diag)> = vec![
            ("host_cpus", Diag::Num(self.host_cpus as f64)),
            (
                "pinned_cpu",
                Diag::Str(self.pinned_cpu.map_or("none".into(), |c| c.to_string())),
            ),
            ("window_s", Diag::Num(w.elapsed.as_secs_f64())),
            ("dataset", Diag::Str("imdb".into())),
            ("elements", Diag::Num(self.elements as f64)),
            ("k", Diag::Num(self.spec.k as f64)),
            (
                "backend",
                Diag::Str(if self.spec.mmap { "mmap" } else { "memory" }.into()),
            ),
            ("estimator", Diag::Str(format!("{:?}", self.spec.estimator))),
            ("wal_fs", Diag::Str(self.wal_fs.clone())),
            ("wal_policy", Diag::Str(wal_policy())),
            ("samples.estimate", Diag::Num(est.len() as f64)),
            ("samples.qerror", Diag::Num(self.qerrors().len() as f64)),
            (
                "qerror_p90",
                Diag::Num(percentile(&mut self.qerrors(), 0.9)),
            ),
            ("estimate_p99_us", Diag::Num(percentile(&mut est, 0.99))),
            ("checked_answers", Diag::Num(self.report.checked as f64)),
            ("check_mismatches", Diag::Num(self.report.mismatches as f64)),
            ("cold_pool_wraps", Diag::Num(self.cold_wraps as f64)),
            (
                "slice_rps",
                Diag::Str(
                    w.slices
                        .iter()
                        .map(|s| format!("{:.0}", s.requests() as f64 / s.elapsed.as_secs_f64()))
                        .collect::<Vec<_>>()
                        .join(" "),
                ),
            ),
        ];
        d.append(&mut diag);
        Printed {
            diagnostics: object(&d),
            result,
            correct,
        }
    }
}

/// The result line: `correct`, `attempted`, `failed` and each metric's
/// value and unit.
pub fn result_line<'a>(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: impl Iterator<Item = (&'a str, &'a str, f64)>,
) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, (name, unit, value)) in metrics.enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        write_escaped(&mut out, name);
        out.push_str(": {\"value\": ");
        write_f64(&mut out, value);
        out.push_str(", \"unit\": ");
        write_escaped(&mut out, unit);
        out.push('}');
    }
    out.push_str("}}");
    out
}

/// A JSON object of diagnostics.
pub fn object(entries: &[(&str, Diag)]) -> String {
    let mut out = String::from("{");
    for (i, (k, v)) in entries.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        write_escaped(&mut out, k);
        out.push_str(": ");
        match v {
            Diag::Num(x) => write_f64(&mut out, *x),
            Diag::Str(s) => write_escaped(&mut out, s),
            Diag::Nums(xs) => {
                out.push('[');
                for (j, x) in xs.iter().enumerate() {
                    if j > 0 {
                        out.push_str(", ");
                    }
                    write_f64(&mut out, *x);
                }
                out.push(']');
            }
            Diag::Json(j) => out.push_str(j),
        }
    }
    out.push('}');
    out
}

/// The flush policy of the WAL pass: the store's defaults, which are
/// also the server's.
fn wal_policy() -> String {
    let opts = DurableOptions::default();
    format!("{}, snapshot every {}", opts.policy, opts.snapshot_every)
}

pub enum Diag {
    Num(f64),
    Str(String),
    Nums(Vec<f64>),
    /// Already JSON text.
    Json(String),
}

/// Median of a scraped base-2 histogram, interpolated linearly inside
/// the bucket that holds it.
fn hist_p50(scrape: &Snapshot, name: &str) -> f64 {
    let Some(h) = scrape.histograms.get(name) else {
        return 0.0;
    };
    let half = h.count as f64 / 2.0;
    let mut seen = 0.0;
    for &(lo, n) in &h.buckets {
        let n = n as f64;
        if seen + n >= half {
            let width = lo.max(1) as f64;
            return lo as f64 + width * (half - seen) / n;
        }
        seen += n;
    }
    0.0
}

/// What the traced run adds: the spans read back from the trace file and
/// the layer counters.
pub struct LayerData {
    pub spans: Vec<trace::Span>,
    pub requests: Vec<trace::RequestBreakdown>,
    pub trace_file: String,
    pub bytes_per_request: f64,
    pub engine_hit_rate: f64,
    pub catalog_lookups_per_query: f64,
    pub summary_bytes: usize,
    pub wal: Snapshot,
    pub replica_mismatches: u64,
}

/// Runs the standalone layer passes a workload's server path does not
/// cover, writes the span file, and reads it back.
pub fn layer_passes(
    o: &Outcome,
    lattice: &TreeLattice,
    frame: &[u8],
    frame_path: &Path,
    work: &Path,
    replicas: Replicas,
    mut t: Tracer,
) -> Result<LayerData, String> {
    let spec = o.spec;
    let q = o.queries;
    let estimates: Vec<&tl_twig::Twig> = o
        .log
        .iter()
        .filter(|r| r.phase == Phase::Traced)
        .take(PASS_ESTIMATES)
        .map(|r| &q.pool[r.query as usize].twig)
        .collect();
    // Feedback updates carry a twig's exact count: the held-out twigs.
    let updates: Vec<(&tl_twig::Twig, u64)> = q
        .heldout
        .iter()
        .map(|h| &h.twig)
        .zip(q.heldout_truth.iter().copied())
        .collect();

    let engine_hit_rate = match replicas.engine_hit_rate() {
        Some(rate) => rate,
        None => layers::engine_pass(&mut t, frame, &estimates, spec.estimator)?,
    };
    let catalog_lookups_per_query = match replicas.catalog_lookups() {
        Some(n) => n as f64 / replicas.requests.max(1) as f64,
        None => layers::catalog_pass(&mut t, frame_path, &estimates, spec.estimator)?,
    };
    let online: Vec<(&tl_twig::Twig, u64)> = updates.iter().copied().take(PASS_OBSERVES).collect();
    let summary_bytes = layers::online_pass(&mut t, lattice, &online);
    let rec = MetricsRecorder::with_schema();
    let applies: Vec<(&tl_twig::Twig, u64)> =
        updates.iter().copied().cycle().take(PASS_APPLIES).collect();
    layers::wal_pass(&mut t, &work.join("pass-wal"), lattice, &applies, &rec)?;
    let wal = rec.snapshot();

    let out = Path::new(crate::OUT_DIR);
    let path = out.join(format!("trace-{}.tsv", spec.name));
    t.write(&path)
        .map_err(|e| format!("{}: {e}", path.display()))?;
    let spans = trace::read(&path)?;
    let requests = trace::breakdown(&spans);
    Ok(LayerData {
        spans,
        requests,
        trace_file: path.display().to_string(),
        bytes_per_request: replicas.frame_bytes as f64 / replicas.requests.max(1) as f64,
        engine_hit_rate,
        catalog_lookups_per_query,
        summary_bytes,
        wal,
        replica_mismatches: replicas.mismatches,
    })
}
