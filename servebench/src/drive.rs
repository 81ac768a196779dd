//! The closed-loop load generator: one connection, one request in flight.

use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tl_server::{Client, ClientError, WireEstimate};

use crate::layers::Replicas;
use crate::setup::Queries;
use crate::spec::{Kind, Spec};
use crate::sys;
use crate::trace::{Tracer, ROUND_TRIP};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Phase {
    Warmup,
    /// Traced run only: requests followed by replica layer calls.
    Traced,
    /// Untraced requests: the whole window of an untraced run, every
    /// other slice of a traced one.
    Window,
}

/// One estimate as sent and answered.
#[derive(Clone, Copy, Debug)]
pub struct Record {
    pub phase: Phase,
    /// Index into the pool.
    pub query: u32,
    pub ns: u64,
    /// Estimate bits; `None` when the request failed (transport error,
    /// fault status or degraded answer).
    pub answer: Option<u64>,
}

/// Length of one slice of a window. Window metrics are interquartile
/// means over slices, so a burst of host noise moves a few slices and not
/// the result.
pub const SLICE: Duration = Duration::from_millis(500);

/// One slice of a window: its requests and what they cost the server and
/// the client.
#[derive(Clone, Debug)]
pub struct Slice {
    pub phase: Phase,
    pub elapsed: Duration,
    /// The slice's requests are `log[first..end]`.
    pub first: usize,
    pub end: usize,
    pub conn_cpu_ns: u64,
    pub worker_cpu_ns: u64,
    pub server_cpu_ns: u64,
    pub server_switches: u64,
    pub client_cpu_ns: u64,
}

impl Slice {
    pub fn requests(&self) -> usize {
        self.end - self.first
    }
}

/// A measured window, cut into slices.
#[derive(Clone, Debug, Default)]
pub struct WindowCost {
    pub elapsed: Duration,
    pub slices: Vec<Slice>,
}

/// Draws the next twig: serve-hot picks uniformly from the pool,
/// serve-cold walks it in order so no twig repeats until it wraps.
pub struct Traffic {
    rng: StdRng,
    kind: Kind,
    pool: usize,
    next: usize,
    /// serve-cold: times the walk ran off the end of the pool.
    pub wraps: u64,
}

impl Traffic {
    pub fn new(spec: &Spec, pool: usize, seed: u64) -> Self {
        Self {
            rng: StdRng::seed_from_u64(seed ^ 0x7a5f_f1c0),
            kind: spec.kind,
            pool,
            next: 0,
            wraps: 0,
        }
    }

    pub fn next(&mut self) -> usize {
        if self.kind == Kind::ServeHot {
            return self.rng.gen_range(0..self.pool);
        }
        let q = self.next;
        self.next += 1;
        if self.next == self.pool {
            self.next = 0;
            self.wraps += 1;
        }
        q
    }
}

/// The closed-loop client, the request log, and in a traced run the
/// replicas and span sink.
pub struct LoadGen<'a> {
    pub client: &'a mut Client,
    pub spec: &'a Spec,
    pub queries: &'a Queries,
    pub traffic: Traffic,
    pub log: Vec<Record>,
    pub replicas: Option<Replicas>,
    pub tracer: Tracer,
    next_request: u32,
}

impl<'a> LoadGen<'a> {
    pub fn new(
        client: &'a mut Client,
        spec: &'a Spec,
        queries: &'a Queries,
        seed: u64,
        replicas: Option<Replicas>,
        tracer: Tracer,
    ) -> Self {
        Self {
            client,
            spec,
            queries,
            traffic: Traffic::new(spec, queries.pool.len(), seed),
            log: Vec::with_capacity(1 << 16),
            replicas,
            tracer,
            next_request: 0,
        }
    }

    /// Sends one estimate. Only the client call is inside the timed region.
    fn send(&mut self, q: usize) -> (u64, Result<WireEstimate, ClientError>) {
        let query = &self.queries.pool[q].text;
        let start = Instant::now();
        let result = self.client.estimate(self.spec.estimator, query);
        (start.elapsed().as_nanos() as u64, result)
    }

    fn one(&mut self, phase: Phase, q: usize) {
        let traced = phase != Phase::Window && self.replicas.is_some();
        let req = self.next_request;
        self.next_request += 1;
        let root = traced.then(|| self.tracer.open(req, "request.estimate"));
        let rt_start = self.tracer.now();
        let (ns, result) = self.send(q);
        let answer = match &result {
            Ok(e) if !e.degradation.is_degraded() => Some(e.value.to_bits()),
            _ => None,
        };
        if let (Some(root), Ok(served)) = (root, &result) {
            self.tracer
                .push(req, Some(root), ROUND_TRIP, rt_start, rt_start + ns);
            let text = &self.queries.pool[q].text;
            let replicas = self.replicas.as_mut().expect("traced");
            replicas.replay(&mut self.tracer, req, root, text, served);
            self.tracer.close(root);
        } else if phase == Phase::Window && self.tracer.enabled() {
            // The traced run's untraced slices: round trips only, the
            // baseline of `trace.overhead_pct`.
            self.tracer
                .push(req, None, "untraced.estimate", rt_start, rt_start + ns);
        }
        self.log.push(Record {
            phase,
            query: q as u32,
            ns,
            answer,
        });
    }

    /// Warm-up: serve-hot first touches every pool twig, then every
    /// workload sends `spec.warmup` requests of its own traffic. In a
    /// traced run the replicas see the warm-up too, but its spans are
    /// dropped.
    pub fn warm_up(&mut self) {
        let mark = self.tracer.mark();
        if self.spec.kind == Kind::ServeHot {
            for q in 0..self.queries.pool.len() {
                self.one(Phase::Warmup, q);
            }
        }
        for _ in 0..self.spec.warmup {
            let q = self.traffic.next();
            self.one(Phase::Warmup, q);
        }
        self.tracer.truncate(mark);
    }

    /// Runs the window for `length`, closed loop, in [`SLICE`]-long
    /// slices. When `traced`, slices alternate between traced and
    /// untraced requests, starting traced, so both see the same host
    /// state. Per-thread CPU is read at every slice boundary, while the
    /// connection is still open: connection threads exit on EOF and take
    /// their counters with them. The reads fall between slices.
    pub fn run(&mut self, length: Duration, traced: bool) -> WindowCost {
        let mut slices = Vec::new();
        let mut elapsed = Duration::ZERO;
        while elapsed < length {
            let phase = if traced && slices.len() % 2 == 0 {
                Phase::Traced
            } else {
                Phase::Window
            };
            let threads0 = sys::threads();
            let client0 = sys::own_cpu_ns();
            let slice_first = self.log.len();
            // The last slice takes the remainder rather than leave a stub.
            let remaining = length - elapsed;
            let slice_len = if remaining < SLICE * 3 / 2 {
                remaining
            } else {
                SLICE
            };
            let start = Instant::now();
            while start.elapsed() < slice_len {
                let q = self.traffic.next();
                self.one(phase, q);
            }
            let slice_elapsed = start.elapsed();
            let client1 = sys::own_cpu_ns();
            let threads1 = sys::threads();
            let (server_cpu_ns, server_switches) = sys::delta(&threads0, &threads1, "tl-server");
            slices.push(Slice {
                phase,
                elapsed: slice_elapsed,
                first: slice_first,
                end: self.log.len(),
                conn_cpu_ns: sys::delta(&threads0, &threads1, "tl-server-conn").0,
                worker_cpu_ns: sys::delta(&threads0, &threads1, "tl-server-work").0,
                server_cpu_ns,
                server_switches,
                client_cpu_ns: client1.saturating_sub(client0),
            });
            elapsed += slice_elapsed;
        }
        WindowCost { elapsed, slices }
    }
}
