//! The collecting [`Recorder`] implementation.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

use crate::snapshot::{HistSnapshot, Snapshot, SpanSnapshot};
use crate::{bucket_index, bucket_lower_bound, names, Recorder, N_BUCKETS};

/// One base-2 exponential histogram (see [`bucket_index`]).
struct Hist {
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum: AtomicU64,
}

impl Hist {
    fn new() -> Self {
        Self {
            buckets: (0..N_BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }

    fn observe(&self, value: u64) {
        self.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        // Saturating: a sum overflowing u64 pins at the max instead of
        // wrapping into a nonsense value.
        self.sum
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |s| {
                Some(s.saturating_add(value))
            })
            .ok();
    }

    fn snapshot(&self) -> HistSnapshot {
        HistSnapshot {
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
            buckets: self
                .buckets
                .iter()
                .enumerate()
                .filter_map(|(i, b)| {
                    let n = b.load(Ordering::Relaxed);
                    (n > 0).then(|| (bucket_lower_bound(i), n))
                })
                .collect(),
        }
    }
}

/// Aggregated wall-clock statistics for one span name.
struct SpanStat {
    count: AtomicU64,
    total_ns: AtomicU64,
    min_ns: AtomicU64,
    max_ns: AtomicU64,
}

impl SpanStat {
    fn new() -> Self {
        Self {
            count: AtomicU64::new(0),
            total_ns: AtomicU64::new(0),
            min_ns: AtomicU64::new(u64::MAX),
            max_ns: AtomicU64::new(0),
        }
    }

    fn record(&self, nanos: u64) {
        self.count.fetch_add(1, Ordering::Relaxed);
        self.total_ns.fetch_add(nanos, Ordering::Relaxed);
        self.min_ns.fetch_min(nanos, Ordering::Relaxed);
        self.max_ns.fetch_max(nanos, Ordering::Relaxed);
    }

    fn snapshot(&self) -> SpanSnapshot {
        let count = self.count.load(Ordering::Relaxed);
        SpanSnapshot {
            count,
            total_ns: self.total_ns.load(Ordering::Relaxed),
            min_ns: if count == 0 {
                0
            } else {
                self.min_ns.load(Ordering::Relaxed)
            },
            max_ns: self.max_ns.load(Ordering::Relaxed),
        }
    }
}

/// Generic named-metric registry: a read-mostly map of atomics. The read
/// path takes a shared lock and one atomic op; the write lock is only taken
/// the first time a name appears.
struct Registry<T> {
    map: RwLock<HashMap<String, Arc<T>>>,
}

impl<T> Registry<T> {
    fn new() -> Self {
        Self {
            map: RwLock::new(HashMap::new()),
        }
    }

    fn with(&self, name: &str, make: impl FnOnce() -> T, use_it: impl FnOnce(&T)) {
        if let Some(entry) = self.map.read().expect("registry lock").get(name) {
            use_it(entry);
            return;
        }
        let entry = {
            let mut guard = self.map.write().expect("registry lock");
            guard
                .entry(name.to_owned())
                .or_insert_with(|| Arc::new(make()))
                .clone()
        };
        use_it(&entry);
    }

    fn ensure(&self, name: &str, make: impl FnOnce() -> T) {
        self.with(name, make, |_| {});
    }

    fn collect<U>(&self, f: impl Fn(&T) -> U) -> Vec<(String, U)> {
        self.map
            .read()
            .expect("registry lock")
            .iter()
            .map(|(k, v)| (k.clone(), f(v)))
            .collect()
    }
}

/// The collecting recorder: thread-safe counters, histograms, gauges, and
/// span statistics, snapshotted into the `tl-metrics/1` JSON schema.
///
/// Cloning is not supported; share it as `&MetricsRecorder` or wrap it in
/// an [`Arc`] where an owned handle is needed (e.g.
/// `EstimationEngine::with_recorder`).
pub struct MetricsRecorder {
    counters: Registry<AtomicU64>,
    hists: Registry<Hist>,
    /// Gauges store `f64::to_bits`; last write wins.
    gauges: Registry<AtomicU64>,
    spans: Registry<SpanStat>,
    meta: RwLock<Vec<(String, String)>>,
}

impl Default for MetricsRecorder {
    fn default() -> Self {
        Self::new()
    }
}

impl MetricsRecorder {
    /// An empty recorder; metrics appear as they are first recorded.
    pub fn new() -> Self {
        Self {
            counters: Registry::new(),
            hists: Registry::new(),
            gauges: Registry::new(),
            spans: Registry::new(),
            meta: RwLock::new(Vec::new()),
        }
    }

    /// A recorder with the whole pipeline vocabulary pre-registered (see
    /// [`names`]): snapshots then always contain every metric family, with
    /// zero values for the ones the run did not exercise. This is what
    /// keeps the `--metrics` schema stable across subcommands.
    pub fn with_schema() -> Self {
        let rec = Self::new();
        for &name in names::SCHEMA_COUNTERS {
            rec.counters.ensure(name, || AtomicU64::new(0));
        }
        for &name in names::SCHEMA_HISTOGRAMS {
            rec.hists.ensure(name, Hist::new);
        }
        for &name in names::SCHEMA_GAUGES {
            rec.gauges.ensure(name, || AtomicU64::new(0));
        }
        for &name in names::SCHEMA_SPANS {
            rec.spans.ensure(name, SpanStat::new);
        }
        rec
    }

    /// Attaches a metadata key/value (configuration echo: dataset, scale,
    /// command line). Later writes of the same key win.
    pub fn set_meta(&self, key: impl Into<String>, value: impl Into<String>) {
        let (key, value) = (key.into(), value.into());
        let mut guard = self.meta.write().expect("meta lock");
        match guard.iter_mut().find(|(k, _)| *k == key) {
            Some((_, v)) => *v = value,
            None => guard.push((key, value)),
        }
    }

    /// Captures the current values of every metric.
    pub fn snapshot(&self) -> Snapshot {
        Snapshot {
            meta: self
                .meta
                .read()
                .expect("meta lock")
                .iter()
                .cloned()
                .collect(),
            counters: self
                .counters
                .collect(|c| c.load(Ordering::Relaxed))
                .into_iter()
                .collect(),
            gauges: self
                .gauges
                .collect(|g| f64::from_bits(g.load(Ordering::Relaxed)))
                .into_iter()
                .collect(),
            histograms: self.hists.collect(Hist::snapshot).into_iter().collect(),
            spans: self.spans.collect(SpanStat::snapshot).into_iter().collect(),
        }
    }
}

impl Recorder for MetricsRecorder {
    fn enabled(&self) -> bool {
        true
    }

    fn add(&self, name: &str, delta: u64) {
        self.counters.with(
            name,
            || AtomicU64::new(0),
            |c| {
                c.fetch_add(delta, Ordering::Relaxed);
            },
        );
    }

    fn observe(&self, name: &str, value: u64) {
        self.hists.with(name, Hist::new, |h| h.observe(value));
    }

    fn gauge(&self, name: &str, value: f64) {
        self.gauges.with(
            name,
            || AtomicU64::new(0),
            |g| g.store(value.to_bits(), Ordering::Relaxed),
        );
    }

    fn span(&self, name: &str, nanos: u64) {
        self.spans.with(name, SpanStat::new, |s| s.record(nanos));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Noop;

    /// A toy instrumented computation: identical results under any
    /// recorder (the enabled/disabled parity the pipeline relies on).
    fn instrumented_sum(rec: &dyn Recorder, inputs: &[u64]) -> u64 {
        let _span = crate::SpanGuard::start(rec, "test.sum");
        let mut total = 0u64;
        for &x in inputs {
            rec.add("test.items", 1);
            rec.observe("test.value", x);
            total += x;
        }
        rec.gauge("test.total", total as f64);
        total
    }

    #[test]
    fn enabled_disabled_parity() {
        let inputs = [3u64, 0, 7, 1 << 40];
        let rec = MetricsRecorder::new();
        let live = instrumented_sum(&rec, &inputs);
        let silent = instrumented_sum(&Noop, &inputs);
        assert_eq!(live, silent, "recording must not change results");
        let snap = rec.snapshot();
        assert_eq!(snap.counters["test.items"], 4);
        assert_eq!(snap.histograms["test.value"].count, 4);
        assert_eq!(snap.histograms["test.value"].sum, 10 + (1 << 40));
        assert_eq!(snap.gauges["test.total"], live as f64);
        assert_eq!(snap.spans["test.sum"].count, 1);
    }

    #[test]
    fn histogram_bucket_boundaries_in_snapshot() {
        let rec = MetricsRecorder::new();
        // 0 -> bucket lo 0; 1 -> lo 1; 2,3 -> lo 2; 8 -> lo 8.
        for v in [0u64, 1, 2, 3, 8] {
            rec.observe("h", v);
        }
        let h = &rec.snapshot().histograms["h"];
        assert_eq!(h.count, 5);
        assert_eq!(h.sum, 14);
        assert_eq!(h.buckets, vec![(0, 1), (1, 1), (2, 2), (8, 1)]);
    }

    #[test]
    fn concurrent_counter_increments_are_lossless() {
        let rec = MetricsRecorder::new();
        const THREADS: usize = 8;
        const PER_THREAD: u64 = 10_000;
        std::thread::scope(|scope| {
            for _ in 0..THREADS {
                scope.spawn(|| {
                    for i in 0..PER_THREAD {
                        rec.add("c", 1);
                        rec.observe("h", i % 17);
                        rec.span("s", i + 1);
                    }
                });
            }
        });
        let snap = rec.snapshot();
        assert_eq!(snap.counters["c"], THREADS as u64 * PER_THREAD);
        assert_eq!(snap.histograms["h"].count, THREADS as u64 * PER_THREAD);
        let s = &snap.spans["s"];
        assert_eq!(s.count, THREADS as u64 * PER_THREAD);
        assert_eq!(s.min_ns, 1);
        assert_eq!(s.max_ns, PER_THREAD);
    }

    #[test]
    fn span_min_max_total() {
        let rec = MetricsRecorder::new();
        for ns in [50u64, 10, 90] {
            rec.span("s", ns);
        }
        let s = &rec.snapshot().spans["s"];
        assert_eq!((s.count, s.total_ns, s.min_ns, s.max_ns), (3, 150, 10, 90));
    }

    #[test]
    fn empty_span_snapshot_has_zero_min() {
        let rec = MetricsRecorder::with_schema();
        let s = &rec.snapshot().spans[names::SPAN_PARSE];
        assert_eq!((s.count, s.min_ns, s.max_ns), (0, 0, 0));
    }

    #[test]
    fn with_schema_preregisters_all_families() {
        let snap = MetricsRecorder::with_schema().snapshot();
        for &name in names::SCHEMA_COUNTERS {
            assert_eq!(snap.counters.get(name), Some(&0), "{name}");
        }
        for &name in names::SCHEMA_HISTOGRAMS {
            assert!(snap.histograms.contains_key(name), "{name}");
        }
        for &name in names::SCHEMA_GAUGES {
            assert_eq!(snap.gauges.get(name), Some(&0.0), "{name}");
        }
        for &name in names::SCHEMA_SPANS {
            assert!(snap.spans.contains_key(name), "{name}");
        }
    }

    #[test]
    fn meta_last_write_wins() {
        let rec = MetricsRecorder::new();
        rec.set_meta("k", "1");
        rec.set_meta("k", "2");
        assert_eq!(rec.snapshot().meta["k"], "2");
    }

    #[test]
    fn gauges_store_floats() {
        let rec = MetricsRecorder::new();
        rec.gauge("g", 0.25);
        rec.gauge("g", 0.75);
        assert_eq!(rec.snapshot().gauges["g"], 0.75);
    }
}
