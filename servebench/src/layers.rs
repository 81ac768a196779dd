//! Replica layer calls for the traced run.
//!
//! The server's layers cannot be timed from outside while it serves, so
//! each traced request is followed by the same calls, on replicas holding
//! the same state, that the server made for it: frame encode/decode,
//! label-table clone plus twig parse, fair-queue admission, the engine
//! or catalog call, and the recorder calls. Standalone passes measure
//! the layers a workload's server path does not run (the other estimate
//! backend, online feedback and the WAL), so every layer metric exists
//! on every workload.

use std::path::Path;
use std::sync::Arc;

use tl_obs::{names, MetricsRecorder, Recorder, NOOP};
use tl_server::{FairQueue, Request, Response, TenantConfig, WireEstimate};
use tl_twig::{parse_twig, Twig};
use tl_xml::LabelInterner;
use treelattice::{
    estimate_catalog, DurableLattice, DurableOptions, EngineConfig, EstimateOptions,
    EstimationEngine, Estimator, MmapCatalog, TreeLattice, TunedLattice,
};

use crate::trace::Tracer;

/// Bytes a frame adds around its body: `u32` length and `u64` checksum.
const FRAME_OVERHEAD: usize = 12;

/// The layer the server's worker runs for an estimate.
enum Backend {
    Engine {
        engine: EstimationEngine,
        lattice: TreeLattice,
    },
    Catalog(MmapCatalog),
}

pub struct Replicas {
    estimator: Estimator,
    labels: LabelInterner,
    queue: FairQueue<u32>,
    rec: MetricsRecorder,
    backend: Backend,
    pub frame_bytes: u64,
    pub requests: u64,
    /// Requests whose replica answer differed from the served one.
    pub mismatches: u64,
}

impl Replicas {
    /// Builds replicas of the server that serves `frame_path`: the same
    /// backend and a fresh engine with a live recorder, as the server's.
    pub fn new(
        estimator: Estimator,
        mmap: bool,
        frame: &[u8],
        frame_path: &Path,
    ) -> Result<Self, String> {
        let lattice = TreeLattice::from_bytes(frame).map_err(|e| format!("replica frame: {e}"))?;
        let labels = lattice.labels().clone();
        let backend = if mmap {
            Backend::Catalog(
                MmapCatalog::open(frame_path).map_err(|e| format!("replica catalog: {e}"))?,
            )
        } else {
            let recorder = Arc::new(MetricsRecorder::with_schema());
            let engine = EstimationEngine::with_recorder(EngineConfig::default(), recorder);
            Backend::Engine { engine, lattice }
        };
        Ok(Self {
            estimator,
            labels,
            queue: FairQueue::new(&[TenantConfig::new(tl_server::DEFAULT_TENANT, 1, 256)]),
            rec: MetricsRecorder::with_schema(),
            backend,
            frame_bytes: 0,
            requests: 0,
            mismatches: 0,
        })
    }

    /// Repeats, span by span, the layer calls the server made for one
    /// estimate, all as children of `root`.
    pub fn replay(
        &mut self,
        t: &mut Tracer,
        req: u32,
        root: u32,
        query: &str,
        served: &WireEstimate,
    ) {
        let tenant = tl_server::DEFAULT_TENANT.to_string();
        let request = Request::Estimate {
            tenant: tenant.clone(),
            estimator: self.estimator,
            query: query.to_string(),
        };
        let body = t.time(req, root, "protocol.encode", || request.encode());
        let decoded = t.time(req, root, "protocol.decode", || Request::decode(&body));
        let mut agrees = decoded.ok().as_ref() == Some(&request);
        let labels = &self.labels;
        let twig = t.time(req, root, "twig.parse", || {
            let mut scratch = labels.clone();
            parse_twig(query, &mut scratch)
        });
        let Ok(twig) = twig else {
            self.mismatches += 1;
            return;
        };
        let queue = &self.queue;
        t.time(req, root, "queue.admit", || {
            let admitted = queue.enqueue(0, req).is_ok();
            admitted && queue.dequeue().is_some()
        });
        let start = t.now();
        agrees &= self.estimate(t, req, root, &twig).to_bits() == served.value.to_bits();
        let us = (t.now() - start) / 1_000;
        let rec = &self.rec;
        t.time(req, root, "obs.record", || {
            rec.add(names::SERVER_ACCEPTED, 1);
            rec.gauge(names::SERVER_QUEUE_DEPTH, 1.0);
            rec.gauge(names::SERVER_QUEUE_DEPTH, 0.0);
            rec.observe(names::SERVER_LATENCY_US, us);
            rec.observe(&names::server_tenant_latency(&tenant), us);
        });
        let response = Response::Estimate(served.clone());
        let out = t.time(req, root, "protocol.encode", || response.encode());
        let back = t.time(req, root, "protocol.decode", || Response::decode(&out));
        if !agrees || back.ok().as_ref() != Some(&response) {
            self.mismatches += 1;
        }
        self.frame_bytes += (body.len() + out.len() + 2 * FRAME_OVERHEAD) as u64;
        self.requests += 1;
    }

    /// The worker's estimate call on the replica backend.
    fn estimate(&self, t: &mut Tracer, req: u32, root: u32, twig: &Twig) -> f64 {
        let est = self.estimator;
        match &self.backend {
            Backend::Engine { engine, lattice } => t.time(req, root, "engine.estimate", || {
                engine
                    .estimate_resilient(lattice, twig, est, &EstimateOptions::default())
                    .map_or(f64::NAN, |e| e.value)
            }),
            Backend::Catalog(catalog) => t.time(req, root, "catalog.estimate", || {
                estimate_catalog(catalog, twig, est, &EstimateOptions::default())
            }),
        }
    }

    /// Engine cache hit rate over this replica's lifetime, if it has an engine.
    pub fn engine_hit_rate(&self) -> Option<f64> {
        match &self.backend {
            Backend::Engine { engine, .. } => Some(engine.stats().hit_rate()),
            Backend::Catalog(_) => None,
        }
    }

    /// Catalog lookups per estimate, if the replica serves from a catalog.
    pub fn catalog_lookups(&self) -> Option<u64> {
        match &self.backend {
            Backend::Catalog(c) => Some(c.lookups()),
            Backend::Engine { .. } => None,
        }
    }
}

/// Engine pass: `estimate_resilient` over `twigs` on a fresh engine.
/// Returns the engine's cache hit rate.
pub fn engine_pass(
    t: &mut Tracer,
    frame: &[u8],
    twigs: &[&Twig],
    est: Estimator,
) -> Result<f64, String> {
    let lattice = TreeLattice::from_bytes(frame).map_err(|e| format!("engine pass: {e}"))?;
    let engine = EstimationEngine::new(EngineConfig::default());
    for (i, twig) in twigs.iter().enumerate() {
        let start = t.now();
        let ok = engine
            .estimate_resilient(&lattice, twig, est, &EstimateOptions::default())
            .is_ok();
        t.push(i as u32, None, "engine.estimate", start, t.now());
        if !ok {
            return Err("engine pass: estimate faulted".into());
        }
    }
    Ok(engine.stats().hit_rate())
}

/// Catalog pass: `estimate_catalog` over `twigs` on a fresh mmap catalog.
/// Returns lookups per estimate.
pub fn catalog_pass(
    t: &mut Tracer,
    frame_path: &Path,
    twigs: &[&Twig],
    est: Estimator,
) -> Result<f64, String> {
    let catalog = MmapCatalog::open(frame_path).map_err(|e| format!("catalog pass: {e}"))?;
    for (i, twig) in twigs.iter().enumerate() {
        let start = t.now();
        std::hint::black_box(estimate_catalog(
            &catalog,
            twig,
            est,
            &EstimateOptions::default(),
        ));
        t.push(i as u32, None, "catalog.estimate", start, t.now());
    }
    Ok(catalog.lookups() as f64 / twigs.len().max(1) as f64)
}

/// Online pass: `TunedLattice::observe` for each update. Returns the
/// summary's heap bytes afterwards.
pub fn online_pass(t: &mut Tracer, lattice: &TreeLattice, updates: &[(&Twig, u64)]) -> usize {
    let mut tuned = TunedLattice::new(lattice.clone(), DurableOptions::default().online_budget);
    for (i, (twig, count)) in updates.iter().enumerate() {
        let start = t.now();
        tuned.observe(twig, *count);
        t.push(i as u32, None, "online.observe", start, t.now());
    }
    tuned.lattice().summary().heap_bytes()
}

/// WAL pass: `DurableLattice::apply` for each update into a fresh
/// directory, reporting to `rec`.
pub fn wal_pass(
    t: &mut Tracer,
    dir: &Path,
    lattice: &TreeLattice,
    updates: &[(&Twig, u64)],
    rec: &dyn Recorder,
) -> Result<(), String> {
    let (mut durable, _) =
        DurableLattice::open(dir, Some(lattice), &DurableOptions::default(), &NOOP)
            .map_err(|f| format!("wal pass: {f}"))?;
    for (i, (twig, count)) in updates.iter().enumerate() {
        let start = t.now();
        let ok = durable.apply(twig, *count, i as u64 + 1, rec).is_ok();
        t.push(i as u32, None, "wal.apply", start, t.now());
        if !ok {
            return Err("wal pass: apply faulted".into());
        }
    }
    Ok(())
}
