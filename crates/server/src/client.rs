//! Blocking client for the tl-wire/1 protocol.
//!
//! One request in flight per connection: `request` writes a frame and
//! blocks for the response frame. This is the closed-loop shape the load
//! harness and the smoke tests drive; open many clients for concurrency.
//!
//! Robustness: every request runs under a per-request deadline
//! ([`ClientConfig::request_timeout`]), and transport failures
//! (connect refused, read error, peer closed) are retried on a fresh
//! connection with capped exponential backoff plus jitter — but only for
//! requests that are safe to retry. Reads (`estimate`, `truth`,
//! `scrape`) are naturally idempotent; `update` is retried only because
//! the client stamps it with an idempotency key, so a retried ack can
//! never double-apply on the server. A request that fails in any way
//! other than a server answer drops its connection, so a late reply is
//! never read as the answer to the next request.

use std::fmt;
use std::io;
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

use tl_fault::Fault;
use treelattice::Estimator;

use crate::protocol::{
    is_timeout, read_frame, write_frame, FrameError, Request, Response, WireEstimate,
};

/// Client-side failure: transport trouble or a typed protocol fault.
#[derive(Debug)]
pub enum ClientError {
    Io(io::Error),
    /// The response frame or body failed validation (checksum, decode).
    Protocol(Fault),
    /// The peer closed the connection before answering.
    Closed,
    /// The per-request deadline expired (including all retries).
    Deadline,
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "i/o: {e}"),
            ClientError::Protocol(fault) => write!(f, "protocol: {fault}"),
            ClientError::Closed => f.write_str("connection closed"),
            ClientError::Deadline => f.write_str("request deadline expired"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e)
    }
}

/// Transport knobs. The defaults suit tests and CLI probes; the load
/// harness tightens them.
#[derive(Clone, Copy, Debug)]
pub struct ClientConfig {
    /// Total wall-clock budget for one logical request, retries
    /// included.
    pub request_timeout: Duration,
    /// Budget for one TCP connect attempt.
    pub connect_timeout: Duration,
    /// Retry attempts after the first failure (0 = fail fast).
    pub max_retries: u32,
    /// First backoff delay; doubles per retry.
    pub backoff_base: Duration,
    /// Backoff ceiling.
    pub backoff_cap: Duration,
    /// Seed for backoff jitter and idempotency keys; 0 derives one from
    /// the process id and clock.
    pub seed: u64,
}

impl Default for ClientConfig {
    fn default() -> Self {
        Self {
            request_timeout: Duration::from_secs(30),
            connect_timeout: Duration::from_secs(5),
            max_retries: 3,
            backoff_base: Duration::from_millis(25),
            backoff_cap: Duration::from_secs(1),
            seed: 0,
        }
    }
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

pub struct Client {
    addrs: Vec<SocketAddr>,
    stream: Option<TcpStream>,
    tenant: String,
    config: ClientConfig,
    rng: u64,
    idem_salt: u64,
    idem_counter: u64,
}

impl Client {
    /// Connects and pins every request from this client to `tenant`.
    pub fn connect(addr: impl ToSocketAddrs, tenant: impl Into<String>) -> io::Result<Self> {
        Self::connect_with(addr, tenant, ClientConfig::default())
    }

    /// [`Client::connect`] with explicit transport knobs.
    pub fn connect_with(
        addr: impl ToSocketAddrs,
        tenant: impl Into<String>,
        config: ClientConfig,
    ) -> io::Result<Self> {
        let addrs: Vec<SocketAddr> = addr.to_socket_addrs()?.collect();
        if addrs.is_empty() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "address resolved to nothing",
            ));
        }
        let mut seed = config.seed;
        if seed == 0 {
            let nanos = std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .map_or(0, |d| d.subsec_nanos() as u64 | (d.as_secs() << 32));
            seed = nanos ^ ((std::process::id() as u64) << 17) ^ 0x005e_edc1_1e47;
        }
        let mut rng = seed;
        let idem_salt = splitmix64(&mut rng) | 1; // never zero
        let mut client = Self {
            addrs,
            stream: None,
            tenant: tenant.into(),
            config,
            rng,
            idem_salt,
            idem_counter: 0,
        };
        let stream = client.open_stream()?;
        client.stream = Some(stream);
        Ok(client)
    }

    pub fn tenant(&self) -> &str {
        &self.tenant
    }

    fn open_stream(&self) -> io::Result<TcpStream> {
        let mut last = None;
        for addr in &self.addrs {
            match TcpStream::connect_timeout(addr, self.config.connect_timeout) {
                Ok(stream) => {
                    stream.set_nodelay(true)?;
                    return Ok(stream);
                }
                Err(e) => last = Some(e),
            }
        }
        Err(last.unwrap_or_else(|| io::Error::new(io::ErrorKind::NotFound, "no address")))
    }

    /// Capped exponential backoff with multiplicative jitter in
    /// [0.5, 1.5), never sleeping past the deadline.
    fn backoff(&mut self, attempt: u32, deadline: Instant) {
        let exp = self
            .config
            .backoff_base
            .saturating_mul(1u32 << attempt.min(16))
            .min(self.config.backoff_cap);
        let jitter_milli = 500 + splitmix64(&mut self.rng) % 1000;
        let delay = exp.mul_f64(jitter_milli as f64 / 1000.0);
        let remaining = deadline.saturating_duration_since(Instant::now());
        std::thread::sleep(delay.min(remaining));
    }

    /// The next idempotency key: unique per (client, update) with
    /// overwhelming probability, never zero. splitmix64 is a bijection,
    /// so distinct counters under one salt never collide with each other.
    fn next_idem(&mut self) -> u64 {
        self.idem_counter += 1;
        let mut state = self.idem_salt ^ self.idem_counter;
        let key = splitmix64(&mut state);
        if key == 0 {
            1
        } else {
            key
        }
    }

    /// One request/response exchange on the current connection under the
    /// remaining deadline. Any failure drops the connection: after a
    /// deadline, an I/O error or a corrupt frame the client no longer
    /// knows where it is in the response stream, and a late reply must
    /// never be read as the answer to the next request. A decoded
    /// [`Response::Error`] is an answer, and keeps the connection.
    fn exchange(&mut self, request: &Request, deadline: Instant) -> Result<Response, ClientError> {
        let result = self.round_trip(request, deadline);
        if result.is_err() {
            self.stream = None;
        }
        result
    }

    fn round_trip(
        &mut self,
        request: &Request,
        deadline: Instant,
    ) -> Result<Response, ClientError> {
        let remaining = deadline.saturating_duration_since(Instant::now());
        if remaining.is_zero() {
            return Err(ClientError::Deadline);
        }
        let stream = match &mut self.stream {
            Some(s) => s,
            None => {
                let s = self.open_stream()?;
                self.stream.insert(s)
            }
        };
        stream.set_read_timeout(Some(remaining))?;
        stream.set_write_timeout(Some(remaining))?;
        write_frame(stream, &request.encode())?;
        let body = read_frame(stream).map_err(|e| match e {
            FrameError::Eof => ClientError::Closed,
            FrameError::Idle => ClientError::Deadline,
            FrameError::Io(e) if is_timeout(&e) => ClientError::Deadline,
            FrameError::Io(e) => ClientError::Io(e),
            FrameError::Corrupt(f) => ClientError::Protocol(f),
        })?;
        Response::decode(&body).map_err(ClientError::Protocol)
    }

    /// Sends one request and blocks for its response under the
    /// per-request deadline. No transport retry: callers that know their
    /// request is idempotent go through the typed methods instead.
    pub fn request(&mut self, request: &Request) -> Result<Response, ClientError> {
        let deadline = Instant::now() + self.config.request_timeout;
        self.exchange(request, deadline)
    }

    /// Sends a retriable request: transport failures retry on a fresh
    /// connection with backoff, until the deadline or the retry budget
    /// runs out. Protocol faults are never retried — the server
    /// answered; the answer is the answer.
    fn request_retriable(&mut self, request: &Request) -> Result<Response, ClientError> {
        let deadline = Instant::now() + self.config.request_timeout;
        let mut attempt = 0u32;
        loop {
            match self.exchange(request, deadline) {
                Ok(resp) => return Ok(resp),
                Err(e @ (ClientError::Io(_) | ClientError::Closed)) => {
                    if attempt >= self.config.max_retries || Instant::now() >= deadline {
                        return Err(e);
                    }
                    self.backoff(attempt, deadline);
                    attempt += 1;
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Estimates one query; faults come back as `Err(ClientError::Protocol)`
    /// carrying the server's typed fault.
    pub fn estimate(
        &mut self,
        estimator: Estimator,
        query: &str,
    ) -> Result<WireEstimate, ClientError> {
        let resp = self.request_retriable(&Request::Estimate {
            tenant: self.tenant.clone(),
            estimator,
            query: query.to_owned(),
        })?;
        match resp {
            Response::Estimate(e) => Ok(e),
            Response::Error { fault, .. } => Err(ClientError::Protocol(fault)),
            other => Err(ClientError::Protocol(Fault::parse(format!(
                "unexpected response to estimate: {other:?}"
            )))),
        }
    }

    pub fn estimate_batch(
        &mut self,
        estimator: Estimator,
        queries: &[String],
    ) -> Result<Vec<Result<WireEstimate, Fault>>, ClientError> {
        let resp = self.request_retriable(&Request::EstimateBatch {
            tenant: self.tenant.clone(),
            estimator,
            queries: queries.to_vec(),
        })?;
        match resp {
            Response::Batch(items) => Ok(items),
            Response::Error { fault, .. } => Err(ClientError::Protocol(fault)),
            other => Err(ClientError::Protocol(Fault::parse(format!(
                "unexpected response to estimate-batch: {other:?}"
            )))),
        }
    }

    pub fn truth(&mut self, query: &str) -> Result<Option<u64>, ClientError> {
        let resp = self.request_retriable(&Request::Truth {
            tenant: self.tenant.clone(),
            query: query.to_owned(),
        })?;
        match resp {
            Response::Truth { stored } => Ok(stored),
            Response::Error { fault, .. } => Err(ClientError::Protocol(fault)),
            other => Err(ClientError::Protocol(Fault::parse(format!(
                "unexpected response to truth: {other:?}"
            )))),
        }
    }

    /// Feeds back an executed query's true count; returns the summary
    /// generation after the observation. Stamped with a fresh
    /// idempotency key, so the transport may retry it safely.
    pub fn update(&mut self, query: &str, true_count: u64) -> Result<u64, ClientError> {
        let idem = self.next_idem();
        self.update_with_idem(query, true_count, idem)
    }

    /// [`Client::update`] with an explicit idempotency key (`0` opts out
    /// of both deduplication and transport retry).
    pub fn update_with_idem(
        &mut self,
        query: &str,
        true_count: u64,
        idem: u64,
    ) -> Result<u64, ClientError> {
        let request = Request::Update {
            tenant: self.tenant.clone(),
            query: query.to_owned(),
            true_count,
            idem,
        };
        let resp = if idem == 0 {
            self.request(&request)?
        } else {
            self.request_retriable(&request)?
        };
        match resp {
            Response::Updated { generation } => Ok(generation),
            Response::Error { fault, .. } => Err(ClientError::Protocol(fault)),
            other => Err(ClientError::Protocol(Fault::parse(format!(
                "unexpected response to update: {other:?}"
            )))),
        }
    }

    /// Fetches the tl-metrics/1 snapshot JSON.
    pub fn scrape(&mut self) -> Result<String, ClientError> {
        let resp = self.request_retriable(&Request::Scrape {
            tenant: self.tenant.clone(),
        })?;
        match resp {
            Response::Scrape { json } => Ok(json),
            Response::Error { fault, .. } => Err(ClientError::Protocol(fault)),
            other => Err(ClientError::Protocol(Fault::parse(format!(
                "unexpected response to scrape: {other:?}"
            )))),
        }
    }
}
