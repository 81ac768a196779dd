//! Spans recorded around calls into each layer, kept in memory, written
//! as one tab-separated file, and read back to derive the layer metrics.
//!
//! A traced request is a `request.estimate` root span with these children:
//! `wire.round_trip` (the real client call) and one span per replica
//! layer call made right after it with the same inputs. The replica spans
//! are the layer costs; `transport.residual_us` is the round trip minus
//! their sum, so the two add up to the client-observed time by
//! construction.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

use crate::setup::SetupTimes;
use crate::sys::{median, percentile};

/// Layer names that make up a request's round trip (everything else under
/// a request root is bookkeeping).
pub const ROUND_TRIP: &str = "wire.round_trip";

/// One span. In memory the layer is a static name; read back from a
/// file it is owned.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span<L = String> {
    pub id: u32,
    pub request: u32,
    pub parent: Option<u32>,
    pub layer: L,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl<L> Span<L> {
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// In-memory span sink. Disabled tracers record nothing.
pub struct Tracer {
    epoch: Instant,
    enabled: bool,
    spans: Vec<Span<&'static str>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self {
            epoch: Instant::now(),
            enabled,
            spans: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Nanoseconds since the tracer was created.
    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a root span; close it with [`Tracer::close`].
    pub fn open(&mut self, request: u32, layer: &'static str) -> u32 {
        let start = self.now();
        self.push(request, None, layer, start, start)
    }

    pub fn close(&mut self, id: u32) {
        let end = self.now();
        if let Some(span) = self.spans.get_mut(id as usize) {
            span.end_ns = end;
        }
    }

    pub fn push(
        &mut self,
        request: u32,
        parent: Option<u32>,
        layer: &'static str,
        start: u64,
        end: u64,
    ) -> u32 {
        let id = self.spans.len() as u32;
        if self.enabled {
            self.spans.push(Span {
                id,
                request,
                parent,
                layer,
                start_ns: start,
                end_ns: end,
            });
        }
        id
    }

    /// Times `f` as a child span of `parent`.
    pub fn time<T>(
        &mut self,
        request: u32,
        parent: u32,
        layer: &'static str,
        f: impl FnOnce() -> T,
    ) -> T {
        let start = self.now();
        let out = f();
        let end = self.now();
        self.push(request, Some(parent), layer, start, end);
        out
    }

    /// Records one set-up as a `setup` root with a child per stage, laid
    /// end to end from `start`.
    pub fn record_setup(&mut self, request: u32, start: u64, times: &SetupTimes) {
        let root = self.push(
            request,
            None,
            "setup",
            start,
            start + times.total().as_nanos() as u64,
        );
        let mut at = start;
        for (layer, d) in times.stages() {
            let end = at + d.as_nanos() as u64;
            self.push(request, Some(root), layer, at, end);
            at = end;
        }
    }

    /// Number of spans recorded so far; pass it to [`Tracer::truncate`].
    pub fn mark(&self) -> usize {
        self.spans.len()
    }

    /// Drops the spans recorded since `mark` (warm-up traffic).
    pub fn truncate(&mut self, mark: usize) {
        self.spans.truncate(mark);
    }

    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "span\trequest\tparent\tlayer\tstart_ns\tend_ns")?;
        for s in &self.spans {
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}\t{}",
                s.id, s.request, parent, s.layer, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Reads a span file written by [`Tracer::write`].
pub fn read(path: &Path) -> Result<Vec<Span>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut spans = Vec::new();
    for (n, line) in text.lines().enumerate().skip(1) {
        let f: Vec<&str> = line.split('\t').collect();
        let bad = || format!("{}:{}: malformed span", path.display(), n + 1);
        if f.len() != 6 {
            return Err(bad());
        }
        let num = |s: &str| s.parse::<u64>().map_err(|_| bad());
        spans.push(Span {
            id: num(f[0])? as u32,
            request: num(f[1])? as u32,
            parent: if f[2] == "-" {
                None
            } else {
                Some(num(f[2])? as u32)
            },
            layer: f[3].to_string(),
            start_ns: num(f[4])?,
            end_ns: num(f[5])?,
        });
    }
    Ok(spans)
}

/// One traced request: its round trip and layer self times.
#[derive(Clone, Debug)]
pub struct RequestBreakdown {
    pub round_trip_ns: u64,
    /// Self time per layer, summed over the request's spans of that layer.
    pub layers: BTreeMap<String, u64>,
    /// Round trip minus the layer sum (may be negative).
    pub residual_ns: i64,
}

/// Self time of each span: its duration minus the part of it that its
/// children cover.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: BTreeMap<u32, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut covered = 0;
            let mut at = s.start_ns;
            let mut kids = children.get(&s.id).cloned().unwrap_or_default();
            kids.sort_unstable();
            for (a, b) in kids {
                let (a, b) = (a.max(at), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    at = b;
                }
            }
            s.ns() - covered
        })
        .collect()
}

/// Splits every `request.estimate` root into its round trip and layer
/// self times.
pub fn breakdown(spans: &[Span]) -> Vec<RequestBreakdown> {
    let selfs = self_times(spans);
    let mut by_root: BTreeMap<u32, RequestBreakdown> = BTreeMap::new();
    for s in spans {
        if s.layer == "request.estimate" {
            by_root.insert(
                s.id,
                RequestBreakdown {
                    round_trip_ns: 0,
                    layers: BTreeMap::new(),
                    residual_ns: 0,
                },
            );
        }
    }
    for (s, &own) in spans.iter().zip(&selfs) {
        let Some(r) = s.parent.and_then(|p| by_root.get_mut(&p)) else {
            continue;
        };
        if s.layer == ROUND_TRIP {
            r.round_trip_ns += s.ns();
        } else {
            *r.layers.entry(s.layer.clone()).or_default() += own;
        }
    }
    by_root
        .into_values()
        .map(|mut r| {
            r.residual_ns = r.round_trip_ns as i64 - r.layers.values().sum::<u64>() as i64;
            r
        })
        .collect()
}

/// Percentile (µs) of the durations of every span named `layer`.
pub fn layer_us(spans: &[Span], layer: &str, p: f64) -> f64 {
    let mut v: Vec<f64> = spans
        .iter()
        .filter(|s| s.layer == layer)
        .map(|s| s.ns() as f64 / 1e3)
        .collect();
    percentile(&mut v, p)
}

/// Median (seconds) of the durations of every span named `layer`.
pub fn layer_median_s(spans: &[Span], layer: &str) -> f64 {
    let mut v: Vec<f64> = spans
        .iter()
        .filter(|s| s.layer == layer)
        .map(|s| s.ns() as f64 / 1e9)
        .collect();
    median(&mut v)
}

/// Median over traced requests of one layer's per-request self time (µs).
pub fn request_layer_us(requests: &[RequestBreakdown], layer: &str) -> f64 {
    let mut v: Vec<f64> = requests
        .iter()
        .filter_map(|r| r.layers.get(layer))
        .map(|&ns| ns as f64 / 1e3)
        .collect();
    median(&mut v)
}
