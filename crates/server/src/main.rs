//! tl-server — serve twig-selectivity estimates over TCP.
//!
//! ```text
//! tl-server serve <summary.tlat> [--mmap] [--port N] [--port-file PATH]
//!                 [--workers N] [--tenant name=weight[:cap][:ms]]...
//!                 [--budget-ms N] [--budget-mem BYTES] [--max-k K]
//!                 [--online-budget BYTES] [--wal-dir DIR]
//!                 [--durability none|batch|strict] [--snapshot-every N]
//!                 [--idle-timeout-ms N]
//! tl-server probe <addr> <query> [--tenant T] [--estimator E]
//! tl-server scrape <addr> [--tenant T]
//! ```
//!
//! `serve` runs until SIGTERM/SIGINT, then finishes running and parked
//! requests and exits 0. With `--wal-dir` every accepted update is
//! write-ahead logged before its ack, startup replays the newest
//! snapshot + WAL tail, and the drain publishes a final snapshot — a
//! failed final snapshot exits 3 with the previous snapshot and WAL left
//! intact. `--port 0` binds an
//! ephemeral port; `--port-file` writes the bound `host:port` for
//! scripts (the CI smoke test uses both). Exit codes follow the shared
//! table: usage errors are 2, faults are 3.

use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

use tl_fault::{exit_code, Outcome};
use tl_server::{serve, BudgetSpec, Client, ServerConfig, TenantSpec, DEFAULT_TENANT};
use treelattice::Estimator;

const USAGE: &str = "usage:
  tl-server serve <summary.tlat> [--mmap] [--port N] [--port-file PATH]
                  [--workers N] [--tenant name=weight[:cap][:ms]]...
                  [--budget-ms N] [--budget-mem BYTES] [--max-k K]
                  [--online-budget BYTES] [--wal-dir DIR]
                  [--durability none|batch|strict] [--snapshot-every N]
                  [--idle-timeout-ms N]
  tl-server probe <addr> <query> [--tenant T] [--estimator E]
  tl-server scrape <addr> [--tenant T]";

static SHUTDOWN: AtomicBool = AtomicBool::new(false);

// std already links libc; declaring `signal` directly avoids a crate
// dependency. The handler only stores into an atomic — async-signal-safe.
extern "C" {
    fn signal(signum: i32, handler: usize) -> usize;
}

extern "C" fn on_signal(_sig: i32) {
    SHUTDOWN.store(true, Ordering::SeqCst);
}

const SIGINT: i32 = 2;
const SIGTERM: i32 = 15;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        Some("serve") => cmd_serve(&args[1..]),
        Some("probe") => cmd_probe(&args[1..]),
        Some("scrape") => cmd_scrape(&args[1..]),
        _ => {
            eprintln!("{USAGE}");
            exit_code(Outcome::UsageError)
        }
    };
    ExitCode::from(code as u8)
}

fn usage_err(msg: &str) -> i32 {
    eprintln!("tl-server: {msg}\n{USAGE}");
    exit_code(Outcome::UsageError)
}

fn fault_err(msg: impl std::fmt::Display) -> i32 {
    eprintln!("tl-server: {msg}");
    exit_code(Outcome::Fault)
}

/// Parses `name=weight[:cap][:budget_ms]`.
fn parse_tenant(spec: &str) -> Result<TenantSpec, String> {
    let (name, rest) = spec
        .split_once('=')
        .ok_or_else(|| format!("--tenant `{spec}`: expected name=weight[:cap][:ms]"))?;
    let mut parts = rest.split(':');
    let weight: u32 = parts
        .next()
        .unwrap_or("")
        .parse()
        .map_err(|e| format!("--tenant `{spec}`: weight: {e}"))?;
    let cap: usize = match parts.next() {
        Some(c) => c
            .parse()
            .map_err(|e| format!("--tenant `{spec}`: cap: {e}"))?,
        None => 256,
    };
    let budget = match parts.next() {
        Some(ms) => Some(BudgetSpec {
            time_limit_ms: Some(
                ms.parse()
                    .map_err(|e| format!("--tenant `{spec}`: budget ms: {e}"))?,
            ),
            ..BudgetSpec::default()
        }),
        None => None,
    };
    if parts.next().is_some() {
        return Err(format!("--tenant `{spec}`: too many `:` parts"));
    }
    let mut tenant = TenantSpec::new(name, weight, cap);
    tenant.budget = budget;
    Ok(tenant)
}

fn cmd_serve(args: &[String]) -> i32 {
    let mut summary: Option<String> = None;
    let mut config_port: u16 = 0;
    let mut port_file: Option<String> = None;
    let mut mmap = false;
    let mut workers = 0usize;
    let mut tenants = Vec::new();
    let mut budget = BudgetSpec::default();
    let mut online_budget = 1usize << 20;
    let mut wal_dir: Option<String> = None;
    let mut durability = treelattice::DurabilityPolicy::Batch;
    let mut snapshot_every = 512u64;
    let mut idle_timeout_ms = 60_000u64;

    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .map(String::as_str)
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match arg.as_str() {
            "--mmap" => mmap = true,
            "--port" => {
                match value("--port").and_then(|v| v.parse().map_err(|e| format!("--port: {e}"))) {
                    Ok(p) => config_port = p,
                    Err(e) => return usage_err(&e),
                }
            }
            "--port-file" => match value("--port-file") {
                Ok(v) => port_file = Some(v.to_owned()),
                Err(e) => return usage_err(&e),
            },
            "--workers" => match value("--workers")
                .and_then(|v| v.parse().map_err(|e| format!("--workers: {e}")))
            {
                Ok(w) => workers = w,
                Err(e) => return usage_err(&e),
            },
            "--tenant" => match value("--tenant").map(parse_tenant) {
                Ok(Ok(t)) => tenants.push(t),
                Ok(Err(e)) => return usage_err(&e),
                Err(e) => return usage_err(&e),
            },
            "--budget-ms" => match value("--budget-ms")
                .and_then(|v| v.parse().map_err(|e| format!("--budget-ms: {e}")))
            {
                Ok(ms) => budget.time_limit_ms = Some(ms),
                Err(e) => return usage_err(&e),
            },
            "--budget-mem" => match value("--budget-mem")
                .and_then(|v| v.parse().map_err(|e| format!("--budget-mem: {e}")))
            {
                Ok(b) => budget.max_mem_bytes = Some(b),
                Err(e) => return usage_err(&e),
            },
            "--max-k" => match value("--max-k")
                .and_then(|v| v.parse().map_err(|e| format!("--max-k: {e}")))
            {
                Ok(k) => budget.max_k = Some(k),
                Err(e) => return usage_err(&e),
            },
            "--online-budget" => match value("--online-budget")
                .and_then(|v| v.parse().map_err(|e| format!("--online-budget: {e}")))
            {
                Ok(b) => online_budget = b,
                Err(e) => return usage_err(&e),
            },
            "--wal-dir" => match value("--wal-dir") {
                Ok(v) => wal_dir = Some(v.to_owned()),
                Err(e) => return usage_err(&e),
            },
            "--durability" => match value("--durability").and_then(|v| {
                treelattice::DurabilityPolicy::parse(v).map_err(|e| format!("--durability: {e}"))
            }) {
                Ok(p) => durability = p,
                Err(e) => return usage_err(&e),
            },
            "--snapshot-every" => match value("--snapshot-every")
                .and_then(|v| v.parse().map_err(|e| format!("--snapshot-every: {e}")))
            {
                Ok(n) => snapshot_every = n,
                Err(e) => return usage_err(&e),
            },
            "--idle-timeout-ms" => match value("--idle-timeout-ms")
                .and_then(|v| v.parse().map_err(|e| format!("--idle-timeout-ms: {e}")))
            {
                Ok(ms) => idle_timeout_ms = ms,
                Err(e) => return usage_err(&e),
            },
            other if !other.starts_with('-') && summary.is_none() => {
                summary = Some(other.to_owned())
            }
            other => return usage_err(&format!("unknown flag `{other}`")),
        }
    }
    let Some(summary) = summary else {
        return usage_err("serve needs a <summary.tlat>");
    };

    let mut config = ServerConfig::new(summary);
    config.mmap = mmap;
    config.port = config_port;
    config.workers = workers;
    config.tenants = tenants;
    config.default_budget = budget;
    config.online_budget_bytes = online_budget;
    config.wal_dir = wal_dir.map(Into::into);
    config.durability = durability;
    config.snapshot_every = snapshot_every;
    config.idle_timeout_ms = idle_timeout_ms;
    if config.mmap && config.wal_dir.is_some() {
        return usage_err("--wal-dir is incompatible with --mmap");
    }
    // Chaos harnesses inject faults into the spawned server via the same
    // TL_CHAOS/TL_CHAOS_SEED contract the CLI honors.
    if let Err(e) = tl_fault::failpoints::activate_from_env() {
        return usage_err(&format!("TL_CHAOS: {e}"));
    }

    let handle = match serve(config) {
        Ok(h) => h,
        Err(fault) => return fault_err(fault),
    };
    unsafe {
        signal(SIGTERM, on_signal as *const () as usize);
        signal(SIGINT, on_signal as *const () as usize);
    }
    let addr = handle.addr();
    if let Some(path) = &port_file {
        if let Err(e) = std::fs::write(path, addr.to_string()) {
            let _ = handle.shutdown();
            return fault_err(format!("{path}: {e}"));
        }
    }
    println!("tl-server listening on {addr}");

    while !SHUTDOWN.load(Ordering::SeqCst) {
        std::thread::sleep(Duration::from_millis(25));
    }
    eprintln!("tl-server: signal received, draining");
    match handle.shutdown() {
        Ok(()) => exit_code(Outcome::Success),
        // A failed durable drain (e.g. the final snapshot hit a fault)
        // must not look like a clean exit: the previous snapshot and the
        // WAL are intact on disk, and the operator needs to know.
        Err(fault) => fault_err(format!("drain: {fault}")),
    }
}

fn parse_estimator(name: &str) -> Result<Estimator, String> {
    match name {
        "recursive" | "rec" => Ok(Estimator::Recursive),
        "voting" | "vote" => Ok(Estimator::RecursiveVoting),
        "fixed" | "fix" | "fix-sized" => Ok(Estimator::FixSized),
        other => Err(format!(
            "unknown estimator `{other}` (expected recursive|voting|fixed)"
        )),
    }
}

fn parse_probe_args(
    args: &[String],
    positionals: usize,
) -> Result<(Vec<&str>, &str, Estimator), String> {
    let mut pos = Vec::new();
    let mut tenant = DEFAULT_TENANT;
    let mut estimator = Estimator::RecursiveVoting;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--tenant" => {
                tenant = it
                    .next()
                    .map(String::as_str)
                    .ok_or("--tenant needs a value")?
            }
            "--estimator" => {
                estimator = parse_estimator(
                    it.next()
                        .map(String::as_str)
                        .ok_or("--estimator needs a value")?,
                )?
            }
            other if !other.starts_with('-') => pos.push(other),
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    if pos.len() != positionals {
        return Err(format!("expected {positionals} positional arguments"));
    }
    Ok((pos, tenant, estimator))
}

fn cmd_probe(args: &[String]) -> i32 {
    let (pos, tenant, estimator) = match parse_probe_args(args, 2) {
        Ok(v) => v,
        Err(e) => return usage_err(&e),
    };
    let mut client = match Client::connect(pos[0], tenant) {
        Ok(c) => c,
        Err(e) => return fault_err(format!("{}: {e}", pos[0])),
    };
    match client.estimate(estimator, pos[1]) {
        Ok(est) => {
            println!("{}", est.value);
            if est.degradation.is_degraded() {
                eprintln!(
                    "note: degraded estimate ({}){}",
                    est.degradation,
                    est.cause
                        .map(|c| format!(", cause: {c}"))
                        .unwrap_or_default()
                );
                exit_code(Outcome::DegradedOk)
            } else {
                exit_code(Outcome::Success)
            }
        }
        Err(e) => fault_err(e),
    }
}

fn cmd_scrape(args: &[String]) -> i32 {
    let (pos, tenant, _) = match parse_probe_args(args, 1) {
        Ok(v) => v,
        Err(e) => return usage_err(&e),
    };
    let mut client = match Client::connect(pos[0], tenant) {
        Ok(c) => c,
        Err(e) => return fault_err(format!("{}: {e}", pos[0])),
    };
    match client.scrape() {
        Ok(json) => {
            println!("{json}");
            exit_code(Outcome::Success)
        }
        Err(e) => fault_err(e),
    }
}
