//! # tl-server — the estimation service
//!
//! A long-running process that loads one summary (in-memory or zero-copy
//! mmap [`treelattice::MmapCatalog`]) at startup and serves `estimate`,
//! `estimate-batch`, `truth`, and `update` requests over a
//! length-prefixed, checksummed binary protocol on a TCP socket
//! ([`protocol`], "tl-wire/1").
//!
//! Multi-tenancy is first-class: each tenant gets a weighted fair-queue
//! lane with an admission cap and a [`tl_fault::Budget`] template
//! ([`queue`], [`BudgetSpec`]). Each request runs on the connection
//! thread that read it, once the lanes grant it one of the server's
//! execution slots. Overload is answered, not errored: a shed
//! request gets the closed-form Markov estimate tagged
//! [`tl_fault::Degradation::Markov`] with a cause fault — the same
//! degraded-with-provenance contract as the in-process resilient ladder.
//! The server never returns an untyped error; every response carries a
//! degradation tag or a typed [`tl_fault::Fault`], and the wire status
//! byte is the shared exit-code table ([`tl_fault::exit_code`]).
//!
//! Observability rides the tl-metrics/1 snapshot: a `scrape` request
//! (which bypasses the slot gate) returns the full recorder snapshot
//! including the `server.*` counters, parked-depth gauge, and overall
//! plus per-tenant latency histograms.

pub mod client;
pub mod protocol;
pub mod queue;
pub mod server;

pub use client::{Client, ClientConfig, ClientError};
pub use protocol::{Request, Response, WireEstimate};
pub use queue::{FairQueue, Refusal, TenantConfig};
pub use server::{serve, BudgetSpec, ServerConfig, ServerHandle, TenantSpec, DEFAULT_TENANT};
