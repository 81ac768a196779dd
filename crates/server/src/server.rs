//! The estimation service: listener, worker pool, and the
//! degraded-with-provenance overload path.
//!
//! Request lifecycle:
//!
//! 1. A connection thread reads one frame, decodes it, and parses the
//!    query against the catalog's label table. Malformed bytes are a
//!    typed fault (status 3); a bad query string is a usage error
//!    (status 2). Neither costs a queue slot.
//! 2. The request is admitted into its tenant's fair-queue lane. If the
//!    lane is full (or the server is draining), the request is **shed**:
//!    the connection thread answers immediately with the closed-form
//!    Markov estimate ([`treelattice::markov_estimate_store`]) tagged
//!    [`Degradation::Markov`] and a cause fault naming the refusal — the
//!    [`treelattice::ResilientEstimate`] contract, so overload is never
//!    an untyped error and never silence.
//! 3. A worker dequeues in weighted-fair order and runs the requested
//!    estimator under the tenant's [`Budget`] (deadline measured from
//!    admission, so queue wait counts against it). Budget trips degrade
//!    down the ladder inside the engine; the response carries the rung.
//!
//! `scrape` bypasses the queue entirely: observability must work *best*
//! exactly when the server is overloaded.

use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use parking_lot::RwLock;
use tl_fault::{Budget, Degradation, Fault};
use tl_obs::{names, MetricsRecorder, Recorder};
use tl_twig::canonical::key_of;
use tl_twig::{parse_twig_in, Twig, TwigParseError};
use treelattice::{
    markov_estimate_store, Catalog, DurabilityPolicy, DurableLattice, DurableOptions, EngineConfig,
    EstimateOptions, EstimationEngine, Estimator, Lookup, MmapCatalog, PatternStore,
    ResilientEstimate, TreeLattice, TunedLattice,
};

use crate::protocol::{read_frame_with, write_frame, FrameError, Request, Response, WireEstimate};
use crate::queue::{FairQueue, Refusal, TenantConfig};

/// Per-tenant budget template; a concrete [`Budget`] (with its deadline
/// anchored at admission time) is minted per request.
#[derive(Clone, Copy, Debug, Default)]
pub struct BudgetSpec {
    pub time_limit_ms: Option<u64>,
    pub max_mem_bytes: Option<u64>,
    pub max_k: Option<usize>,
}

impl BudgetSpec {
    pub fn is_unlimited(&self) -> bool {
        self.time_limit_ms.is_none() && self.max_mem_bytes.is_none() && self.max_k.is_none()
    }

    /// Mints the per-request budget, anchoring the deadline now.
    pub fn to_budget(&self) -> Budget {
        let mut b = Budget {
            max_mem_bytes: self.max_mem_bytes,
            deadline: None,
            max_k: self.max_k,
        };
        if let Some(ms) = self.time_limit_ms {
            b = b.with_time_limit(Duration::from_millis(ms));
        }
        b
    }
}

/// One tenant: scheduling lane plus an optional budget override.
#[derive(Clone, Debug)]
pub struct TenantSpec {
    pub config: TenantConfig,
    /// `None` inherits [`ServerConfig::default_budget`].
    pub budget: Option<BudgetSpec>,
}

impl TenantSpec {
    pub fn new(name: impl Into<String>, weight: u32, queue_cap: usize) -> Self {
        Self {
            config: TenantConfig::new(name, weight, queue_cap),
            budget: None,
        }
    }
}

/// Full server configuration.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    pub summary_path: PathBuf,
    /// Serve from the zero-copy mmap catalog instead of deserializing
    /// into memory. Read-only: `update` requests are refused as usage
    /// errors, and rung-1 estimates run unbudgeted (catalog parity with
    /// the CLI's `--mmap` contract); sheds still degrade to Markov.
    pub mmap: bool,
    /// Port to bind on 127.0.0.1; `0` asks the OS for an ephemeral port
    /// (read it back from [`ServerHandle::addr`] or `--port-file`).
    pub port: u16,
    /// Worker threads; `0` means available parallelism.
    pub workers: usize,
    pub tenants: Vec<TenantSpec>,
    /// Budget for tenants without an override.
    pub default_budget: BudgetSpec,
    /// Byte budget of the online feedback layer (`update` requests).
    pub online_budget_bytes: usize,
    /// Durability directory. When set, every accepted `update` is
    /// appended to a write-ahead log here before it is acknowledged, and
    /// startup recovers from the newest valid snapshot plus the WAL
    /// tail. Incompatible with `mmap` (read-only backend).
    pub wal_dir: Option<PathBuf>,
    /// fsync policy for WAL appends (only meaningful with `wal_dir`).
    pub durability: DurabilityPolicy,
    /// Publish an atomic snapshot (and truncate the WAL) every N
    /// acknowledged updates; `0` disables count-triggered snapshots
    /// (drain still writes a final one).
    pub snapshot_every: u64,
    /// Close connections idle longer than this many milliseconds;
    /// `0` keeps half-open peers forever (the pre-durability behavior).
    pub idle_timeout_ms: u64,
}

impl ServerConfig {
    pub fn new(summary_path: impl Into<PathBuf>) -> Self {
        Self {
            summary_path: summary_path.into(),
            mmap: false,
            port: 0,
            workers: 0,
            tenants: Vec::new(),
            default_budget: BudgetSpec::default(),
            online_budget_bytes: 1 << 20,
            wal_dir: None,
            durability: DurabilityPolicy::Batch,
            snapshot_every: 512,
            idle_timeout_ms: 60_000,
        }
    }
}

/// The lane every unconfigured tenant name maps to.
pub const DEFAULT_TENANT: &str = "default";
const DEFAULT_QUEUE_CAP: usize = 256;

/// The in-memory store behind `update`: a plain tuned lattice (loss on
/// crash) or a [`DurableLattice`] whose WAL append gates every ack.
enum Store {
    Plain(TunedLattice),
    Durable(DurableLattice),
}

impl Store {
    fn tuned(&self) -> &TunedLattice {
        match self {
            Store::Plain(t) => t,
            Store::Durable(d) => d.tuned(),
        }
    }
}

enum Backend {
    Memory {
        // Boxed so the enum stays near the size of its mmap variant.
        store: Box<RwLock<Store>>,
        engine: EstimationEngine,
    },
    Mmap {
        catalog: MmapCatalog,
    },
}

impl Backend {
    /// Rung 3 for sheds and expired deadlines: closed-form Markov over
    /// whatever store backs the server. Bit-identical across backends by
    /// the store-identity contract.
    fn markov(&self, twig: &Twig) -> f64 {
        match self {
            Backend::Memory { store, .. } => {
                markov_estimate_store(store.read().tuned().lattice(), twig)
            }
            Backend::Mmap { catalog } => markov_estimate_store(catalog, twig),
        }
    }

    /// Parses `query` against the served label table in place, under
    /// the store read lock; labels the table lacks get ids past its end,
    /// which estimate to zero.
    fn parse(&self, query: &str) -> Result<Twig, TwigParseError> {
        match self {
            Backend::Memory { store, .. } => {
                parse_twig_in(query, store.read().tuned().lattice().labels())
            }
            Backend::Mmap { catalog } => parse_twig_in(query, catalog.labels()),
        }
    }

    fn estimate(&self, twig: &Twig, estimator: Estimator, budget: Budget) -> Response {
        match self {
            Backend::Memory { store, engine } => {
                let opts = EstimateOptions {
                    budget,
                    ..EstimateOptions::default()
                };
                let guard = store.read();
                match engine.estimate_resilient(guard.tuned().lattice(), twig, estimator, &opts) {
                    Ok(est) => Response::Estimate(wire(est)),
                    Err(fault) => Response::fault(fault),
                }
            }
            Backend::Mmap { catalog } => {
                // Catalog parity with the CLI: rung 1 runs unbudgeted,
                // but an already-expired deadline (queue wait ate it)
                // still degrades instead of burning worker time.
                if let Err(cause) = budget.check_deadline() {
                    return Response::Estimate(WireEstimate {
                        value: markov_estimate_store(catalog, twig),
                        degradation: Degradation::Markov,
                        cause: Some(cause),
                    });
                }
                let value = treelattice::estimate_catalog(
                    catalog,
                    twig,
                    estimator,
                    &EstimateOptions::default(),
                );
                Response::Estimate(WireEstimate::exact(value))
            }
        }
    }

    fn truth(&self, twig: &Twig) -> Response {
        let key = key_of(twig);
        let stored = match self {
            Backend::Memory { store, .. } => store.read().tuned().lattice().summary().stored(&key),
            Backend::Mmap { catalog } => match catalog.lookup_bytes(key.as_bytes()) {
                Lookup::Exact(c) => Some(c),
                Lookup::Derivable | Lookup::TooLarge => None,
            },
        };
        Response::Truth { stored }
    }

    fn update(&self, twig: &Twig, true_count: u64, idem: u64, rec: &dyn Recorder) -> Response {
        match self {
            Backend::Memory { store, .. } => {
                let mut guard = store.write();
                match &mut *guard {
                    Store::Plain(tuned) => {
                        tuned.observe(twig, true_count);
                        Response::Updated {
                            generation: tuned.lattice().generation(),
                        }
                    }
                    // The WAL append gates the ack: an append failure is a
                    // typed fault and the observation is NOT applied, so a
                    // client never holds an ack the log cannot replay.
                    Store::Durable(durable) => match durable.apply(twig, true_count, idem, rec) {
                        Ok(applied) => Response::Updated {
                            generation: applied.generation,
                        },
                        Err(fault) => Response::fault(fault),
                    },
                }
            }
            Backend::Mmap { .. } => Response::usage(Fault::parse(
                "update is not supported on the read-only --mmap backend",
            )),
        }
    }
}

fn wire(est: ResilientEstimate) -> WireEstimate {
    WireEstimate {
        value: est.value,
        degradation: est.degradation,
        cause: est.cause,
    }
}

/// Pre-parsed work a queue job carries to a worker.
enum Work {
    Estimate {
        twig: Twig,
        estimator: Estimator,
    },
    Batch {
        twigs: Vec<Twig>,
        estimator: Estimator,
    },
    Truth {
        twig: Twig,
    },
    Update {
        twig: Twig,
        true_count: u64,
        idem: u64,
    },
}

struct Job {
    work: Work,
    budget: Budget,
    admitted: Instant,
    reply: mpsc::Sender<Response>,
}

struct Shared {
    backend: Backend,
    queue: FairQueue<Job>,
    budgets: Vec<BudgetSpec>,
    /// Each lane's latency histogram name, built once at start-up and
    /// indexed by lane.
    tenant_latency: Vec<String>,
    rec: Arc<MetricsRecorder>,
    shutting_down: AtomicBool,
    /// Per-connection idle deadline; zero disables shedding.
    idle_timeout: Duration,
}

impl Shared {
    fn lane_for(&self, tenant: &str) -> usize {
        self.queue
            .lane_of(tenant)
            .or_else(|| self.queue.lane_of(DEFAULT_TENANT))
            .expect("default lane always configured")
    }

    fn parse(&self, query: &str) -> Result<Twig, Response> {
        self.backend
            .parse(query)
            .map_err(|e| Response::usage(Fault::parse(format!("query `{query}`: {e}"))))
    }

    /// Whether a connection whose last frame completed at `last_activity`
    /// should keep waiting on its peer: not once the server shuts down,
    /// nor past the idle deadline, which sheds half-open and slow-loris
    /// peers deterministically instead of holding a thread forever.
    fn keep_waiting(&self, last_activity: Instant) -> bool {
        if self.shutting_down.load(Ordering::SeqCst) {
            return false;
        }
        if !self.idle_timeout.is_zero() && last_activity.elapsed() >= self.idle_timeout {
            self.rec.add(names::SERVER_IDLE_CLOSED, 1);
            return false;
        }
        true
    }

    /// The shed answer: rung 3 with provenance, never an untyped error.
    fn shed(&self, work: &Work, refusal: Refusal) -> Response {
        self.rec.add(names::SERVER_SHED, 1);
        let cause = Fault::budget(match refusal {
            Refusal::LaneFull => "shed by admission control: tenant lane full",
            Refusal::Draining => "shed: server draining for shutdown",
        });
        let degraded = |twig: &Twig| WireEstimate {
            value: self.backend.markov(twig),
            degradation: Degradation::Markov,
            cause: Some(cause.clone()),
        };
        match work {
            Work::Estimate { twig, .. } => Response::Estimate(degraded(twig)),
            Work::Batch { twigs, .. } => {
                Response::Batch(twigs.iter().map(|t| Ok(degraded(t))).collect())
            }
            // Truth and update have no degraded form; the refusal itself
            // is the typed answer.
            Work::Truth { .. } | Work::Update { .. } => Response::fault(cause),
        }
    }

    /// Decodes and answers one request body. Blocks until the response
    /// is ready (workers run queued ops; sheds and scrapes are inline).
    fn process(&self, body: &[u8]) -> Response {
        let request = match Request::decode(body) {
            Ok(r) => r,
            Err(fault) => {
                self.rec.add(names::SERVER_RESP_FAULT, 1);
                return Response::fault(fault);
            }
        };
        if let Request::Scrape { .. } = request {
            self.rec.add(names::SERVER_ACCEPTED, 1);
            self.rec
                .gauge(names::SERVER_QUEUE_DEPTH, self.queue.depth() as f64);
            if let Backend::Memory { store, .. } = &self.backend {
                if let Store::Durable(durable) = &*store.read() {
                    self.rec
                        .gauge("server.wal.last_seq", durable.last_seq() as f64);
                    self.rec
                        .gauge("server.snapshot.seq", durable.snapshot_seq() as f64);
                }
            }
            return Response::Scrape {
                json: self.rec.snapshot().to_json(),
            };
        }
        let lane = self.lane_for(request.tenant());
        let work = match self.build_work(request) {
            Ok(w) => w,
            Err(resp) => {
                self.rec.add(names::SERVER_RESP_FAULT, 1);
                return resp;
            }
        };
        let budget = self.budgets[lane].to_budget();
        let (tx, rx) = mpsc::channel();
        let job = Job {
            work,
            budget,
            admitted: Instant::now(),
            reply: tx,
        };
        match self.queue.enqueue(lane, job) {
            Ok(depth) => {
                self.rec.add(names::SERVER_ACCEPTED, 1);
                if depth > 1 {
                    self.rec.add(names::SERVER_QUEUED, 1);
                }
                self.rec.gauge(names::SERVER_QUEUE_DEPTH, depth as f64);
            }
            Err((job, refusal)) => {
                let resp = self.shed(&job.work, refusal);
                if matches!(resp, Response::Error { .. }) {
                    self.rec.add(names::SERVER_RESP_FAULT, 1);
                } else {
                    self.rec.add(names::SERVER_RESP_DEGRADED, 1);
                }
                return resp;
            }
        }
        match rx.recv() {
            Ok(resp) => resp,
            // Worker pool gone mid-request: only happens in shutdown.
            Err(_) => Response::fault(Fault::timeout("server shut down before answering")),
        }
    }

    fn build_work(&self, request: Request) -> Result<Work, Response> {
        Ok(match request {
            Request::Estimate {
                estimator, query, ..
            } => Work::Estimate {
                twig: self.parse(&query)?,
                estimator,
            },
            Request::EstimateBatch {
                estimator, queries, ..
            } => {
                let mut twigs = Vec::with_capacity(queries.len());
                for q in &queries {
                    twigs.push(self.parse(q)?);
                }
                Work::Batch { twigs, estimator }
            }
            Request::Truth { query, .. } => Work::Truth {
                twig: self.parse(&query)?,
            },
            Request::Update {
                query,
                true_count,
                idem,
                ..
            } => Work::Update {
                twig: self.parse(&query)?,
                true_count,
                idem,
            },
            Request::Scrape { .. } => unreachable!("scrape handled inline"),
        })
    }

    fn run_work(&self, work: &Work, budget: Budget) -> Response {
        match work {
            Work::Estimate { twig, estimator } => self.backend.estimate(twig, *estimator, budget),
            Work::Batch { twigs, estimator } => Response::Batch(
                twigs
                    .iter()
                    .map(|t| match self.backend.estimate(t, *estimator, budget) {
                        Response::Estimate(e) => Ok(e),
                        Response::Error { fault, .. } => Err(fault),
                        _ => unreachable!("estimate returns estimate or error"),
                    })
                    .collect(),
            ),
            Work::Truth { twig } => self.backend.truth(twig),
            Work::Update {
                twig,
                true_count,
                idem,
            } => self
                .backend
                .update(twig, *true_count, *idem, self.rec.as_ref()),
        }
    }

    fn worker_loop(&self) {
        while let Some((lane, job)) = self.queue.dequeue() {
            self.rec
                .gauge(names::SERVER_QUEUE_DEPTH, self.queue.depth() as f64);
            let resp = self.run_work(&job.work, job.budget);
            let us = job.admitted.elapsed().as_micros() as u64;
            self.rec.observe(names::SERVER_LATENCY_US, us);
            self.rec.observe(&self.tenant_latency[lane], us);
            match &resp {
                Response::Error { .. } => self.rec.add(names::SERVER_RESP_FAULT, 1),
                Response::Estimate(e) if e.degradation.is_degraded() => {
                    self.rec.add(names::SERVER_RESP_DEGRADED, 1)
                }
                Response::Batch(items)
                    if items.iter().any(|i| {
                        matches!(i, Ok(e) if e.degradation.is_degraded()) || i.is_err()
                    }) =>
                {
                    self.rec.add(names::SERVER_RESP_DEGRADED, 1)
                }
                _ => {}
            }
            // A gone receiver means the connection died; nothing to do.
            let _ = job.reply.send(resp);
        }
    }
}

/// A running server. Dropping without [`ServerHandle::shutdown`] leaves
/// threads running; call `shutdown` for a clean drain-and-join.
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    threads: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    pub fn recorder(&self) -> Arc<MetricsRecorder> {
        self.shared.rec.clone()
    }

    /// Flags shutdown without blocking (signal-handler safe side:
    /// the handler only stores a flag; this runs on the main thread).
    pub fn signal_shutdown(&self) {
        self.shared.shutting_down.store(true, Ordering::SeqCst);
    }

    /// Stops admitting new work while continuing to serve queued requests
    /// and scrapes — the load-balancer-removal half of a graceful
    /// shutdown. New estimates are answered shed (degraded Markov with a
    /// draining cause), not refused.
    pub fn begin_drain(&self) {
        self.shared.queue.begin_drain();
    }

    /// Graceful shutdown: stop accepting, refuse new admissions, drain
    /// queued work, join the listener and workers, then — on a durable
    /// backend — flush the WAL and publish a final snapshot. An error
    /// from the durable drain is a typed fault (the previous snapshot
    /// and WAL are left intact on disk); the threads are already joined
    /// either way.
    pub fn shutdown(mut self) -> Result<(), Fault> {
        self.shared.shutting_down.store(true, Ordering::SeqCst);
        self.shared.queue.begin_drain();
        let drain_deadline = Instant::now() + Duration::from_secs(10);
        while self.shared.queue.depth() > 0 && Instant::now() < drain_deadline {
            thread::sleep(Duration::from_millis(5));
        }
        self.shared.queue.shutdown();
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
        if let Backend::Memory { store, .. } = &self.shared.backend {
            if let Store::Durable(durable) = &mut *store.write() {
                durable.drain(self.shared.rec.as_ref())?;
            }
        }
        Ok(())
    }
}

/// Loads the summary, binds the listener, and spawns the accept loop and
/// worker pool. Returns once the socket is live.
pub fn serve(config: ServerConfig) -> Result<ServerHandle, Fault> {
    let rec = Arc::new(MetricsRecorder::with_schema());
    rec.set_meta("server.summary", config.summary_path.display().to_string());
    rec.set_meta(
        "server.backend",
        if config.mmap { "mmap" } else { "memory" },
    );

    let backend = if config.mmap {
        if config.wal_dir.is_some() {
            return Err(Fault::parse(
                "--wal-dir is incompatible with the read-only --mmap backend",
            ));
        }
        let catalog =
            MmapCatalog::open_observed(&config.summary_path, rec.as_ref()).map_err(|e| {
                Fault::corrupt_summary(format!("{}: {e}", config.summary_path.display()))
            })?;
        Backend::Mmap { catalog }
    } else {
        let bytes = std::fs::read(&config.summary_path).map_err(|e| {
            Fault::corrupt_summary(format!("{}: {e}", config.summary_path.display()))
        })?;
        let lattice = TreeLattice::from_bytes(&bytes).map_err(|e| {
            Fault::corrupt_summary(format!("{}: {e}", config.summary_path.display()))
        })?;
        let engine = EstimationEngine::with_recorder(EngineConfig::default(), rec.clone());
        let store = match &config.wal_dir {
            Some(dir) => {
                let opts = DurableOptions {
                    online_budget: config.online_budget_bytes,
                    policy: config.durability,
                    snapshot_every: config.snapshot_every,
                    ..DurableOptions::default()
                };
                let (durable, report) =
                    DurableLattice::open(dir, Some(&lattice), &opts, rec.as_ref())?;
                rec.set_meta("server.wal_dir", dir.display().to_string());
                rec.set_meta("server.durability", config.durability.to_string());
                rec.set_meta("server.recovery", report.to_string());
                Store::Durable(durable)
            }
            None => Store::Plain(TunedLattice::new(lattice, config.online_budget_bytes)),
        };
        Backend::Memory {
            store: Box::new(RwLock::new(store)),
            engine,
        }
    };

    let mut tenants = config.tenants.clone();
    if !tenants.iter().any(|t| t.config.name == DEFAULT_TENANT) {
        tenants.push(TenantSpec::new(DEFAULT_TENANT, 1, DEFAULT_QUEUE_CAP));
    }
    let lanes: Vec<TenantConfig> = tenants.iter().map(|t| t.config.clone()).collect();
    let budgets: Vec<BudgetSpec> = tenants
        .iter()
        .map(|t| t.budget.unwrap_or(config.default_budget))
        .collect();
    for t in &tenants {
        rec.set_meta(
            format!("server.tenant.{}", t.config.name),
            format!("weight={} cap={}", t.config.weight, t.config.queue_cap),
        );
    }

    let tenant_latency = lanes
        .iter()
        .map(|lane| names::server_tenant_latency(&lane.name))
        .collect();
    let shared = Arc::new(Shared {
        backend,
        queue: FairQueue::new(&lanes),
        budgets,
        tenant_latency,
        rec,
        shutting_down: AtomicBool::new(false),
        idle_timeout: Duration::from_millis(config.idle_timeout_ms),
    });

    let listener = TcpListener::bind(("127.0.0.1", config.port))
        .and_then(|l| {
            l.set_nonblocking(true)?;
            Ok(l)
        })
        .map_err(|e| Fault::new(tl_fault::FaultKind::Timeout, format!("bind: {e}")))?;
    let addr = listener
        .local_addr()
        .map_err(|e| Fault::new(tl_fault::FaultKind::Timeout, format!("local_addr: {e}")))?;

    let workers = if config.workers == 0 {
        thread::available_parallelism().map_or(4, |n| n.get())
    } else {
        config.workers
    };
    let mut threads = Vec::with_capacity(workers + 1);
    for i in 0..workers {
        let shared = shared.clone();
        threads.push(
            thread::Builder::new()
                .name(format!("tl-server-worker-{i}"))
                .spawn(move || shared.worker_loop())
                .expect("spawn worker"),
        );
    }
    {
        let shared = shared.clone();
        threads.push(
            thread::Builder::new()
                .name("tl-server-accept".into())
                .spawn(move || accept_loop(listener, shared))
                .expect("spawn accept loop"),
        );
    }

    Ok(ServerHandle {
        addr,
        shared,
        threads,
    })
}

fn accept_loop(listener: TcpListener, shared: Arc<Shared>) {
    loop {
        if shared.shutting_down.load(Ordering::SeqCst) {
            return;
        }
        match listener.accept() {
            Ok((stream, _)) => {
                shared.rec.add(names::SERVER_CONNECTIONS, 1);
                let shared = shared.clone();
                // Connection threads are detached: they poll the
                // shutdown flag via read timeouts and exit on their own.
                let _ = thread::Builder::new()
                    .name("tl-server-conn".into())
                    .spawn(move || connection_loop(stream, shared));
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                thread::sleep(Duration::from_millis(10));
            }
            Err(_) => thread::sleep(Duration::from_millis(10)),
        }
    }
}

fn connection_loop(stream: TcpStream, shared: Arc<Shared>) {
    // Socket-option failures are surfaced, never silently swallowed:
    // a connection that cannot poll (no read timeout) would pin a thread
    // through shutdown, so it is dropped instead of served blind.
    if stream.set_nodelay(true).is_err() {
        shared.rec.add(names::SERVER_SOCKOPT_ERRORS, 1);
    }
    if stream
        .set_read_timeout(Some(Duration::from_millis(100)))
        .is_err()
    {
        shared.rec.add(names::SERVER_SOCKOPT_ERRORS, 1);
        return;
    }
    let mut reader = match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    };
    let mut writer = stream;
    let mut last_activity = Instant::now();
    loop {
        // The 100 ms read timeout polls the shutdown flag and the idle
        // deadline. A timeout mid-frame resumes the same frame: only a
        // gap before a frame's first byte is idle time.
        let body = match read_frame_with(&mut reader, || shared.keep_waiting(last_activity)) {
            Ok(body) => body,
            Err(FrameError::Idle) if shared.keep_waiting(last_activity) => continue,
            Err(FrameError::Eof | FrameError::Idle | FrameError::Io(_)) => return,
            Err(FrameError::Corrupt(fault)) => {
                // The stream cannot be resynchronized after garbage:
                // answer the typed fault, then close.
                shared.rec.add(names::SERVER_RESP_FAULT, 1);
                let resp = Response::fault(fault);
                let _ = write_frame(&mut writer, &resp.encode());
                return;
            }
        };
        last_activity = Instant::now();
        let resp = shared.process(&body);
        if write_frame(&mut writer, &resp.encode()).is_err() {
            return;
        }
    }
}
