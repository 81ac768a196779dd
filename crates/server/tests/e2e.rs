//! End-to-end tests: a real server on an ephemeral port, driven through
//! the blocking client.

use std::io::Write;
use std::net::TcpStream;
use std::time::Duration;

use tl_fault::{Degradation, FaultKind};
use tl_server::protocol::{read_frame, write_frame, FrameError, Request, Response};
use tl_server::{serve, BudgetSpec, Client, ClientError, ServerConfig, TenantSpec};
use tl_xml::{parse_document, ParseOptions};
use treelattice::{
    estimate_catalog, markov_estimate_store, BuildConfig, Catalog, EstimateOptions, Estimator,
    MmapCatalog, TreeLattice,
};

fn sample_lattice() -> TreeLattice {
    let mut s = String::from("<r>");
    for _ in 0..8 {
        s.push_str("<a><b><c/><d/></b><e/></a><f><a><b/></a></f>");
    }
    s.push_str("</r>");
    let doc = parse_document(s.as_bytes(), ParseOptions::default()).unwrap();
    TreeLattice::build(&doc, &BuildConfig::with_k(3))
}

fn write_summary(lattice: &TreeLattice, name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "tl-server-e2e-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(name);
    std::fs::write(&path, lattice.to_bytes()).unwrap();
    path
}

const QUERIES: &[&str] = &[
    "a",
    "a/b",
    "a/b/c",
    "a[b[c][d]][e]",
    "f/a/b",
    "//a/b",
    "nosuch",
];

#[test]
fn estimates_are_bit_identical_to_in_process_engine() {
    let lattice = sample_lattice();
    let path = write_summary(&lattice, "bitid.tlat");
    let handle = serve(ServerConfig::new(&path)).unwrap();
    let mut client = Client::connect(handle.addr(), "default").unwrap();

    for &query in QUERIES {
        let twig = lattice.parse_query(query).unwrap();
        for est in Estimator::ALL {
            let local = lattice.estimate(&twig, est);
            let remote = client.estimate(est, query).unwrap();
            assert_eq!(remote.degradation, Degradation::None, "{est} {query}");
            assert_eq!(
                remote.value.to_bits(),
                local.to_bits(),
                "{est} {query}: server {} vs local {local}",
                remote.value
            );
        }
    }
    handle.shutdown().expect("clean drain");
}

#[test]
fn batch_matches_singles() {
    let lattice = sample_lattice();
    let path = write_summary(&lattice, "batch.tlat");
    let handle = serve(ServerConfig::new(&path)).unwrap();
    let mut client = Client::connect(handle.addr(), "default").unwrap();

    let queries: Vec<String> = QUERIES.iter().map(|q| q.to_string()).collect();
    let batch = client
        .estimate_batch(Estimator::RecursiveVoting, &queries)
        .unwrap();
    assert_eq!(batch.len(), queries.len());
    for (q, item) in queries.iter().zip(&batch) {
        let single = client.estimate(Estimator::RecursiveVoting, q).unwrap();
        let item = item.as_ref().unwrap();
        assert_eq!(item.value.to_bits(), single.value.to_bits(), "{q}");
    }
    handle.shutdown().expect("clean drain");
}

#[test]
fn truth_update_and_generation_bump() {
    let lattice = sample_lattice();
    let path = write_summary(&lattice, "truth.tlat");
    let handle = serve(ServerConfig::new(&path)).unwrap();
    let mut client = Client::connect(handle.addr(), "default").unwrap();

    // Level-1 patterns are always stored exactly.
    let stored = client.truth("a").unwrap();
    assert_eq!(stored, Some(16), "16 <a> elements in the sample doc");

    // Feed back a truth the summary does not hold; it becomes stored.
    assert_eq!(client.truth("a[b][e]").unwrap().is_some(), {
        use tl_twig::canonical::key_of;
        lattice
            .summary()
            .stored(&key_of(&lattice.parse_query("a[b][e]").unwrap()))
            .is_some()
    });
    let g1 = client.update("a[b][e]", 123).unwrap();
    assert_eq!(client.truth("a[b][e]").unwrap(), Some(123));
    let g2 = client.update("a[b][e]", 124).unwrap();
    assert!(g2 > g1, "each observation bumps the generation");
    assert_eq!(client.truth("a[b][e]").unwrap(), Some(124));
    handle.shutdown().expect("clean drain");
}

#[test]
fn bad_query_is_usage_not_fault() {
    let lattice = sample_lattice();
    let path = write_summary(&lattice, "usage.tlat");
    let handle = serve(ServerConfig::new(&path)).unwrap();
    let mut client = Client::connect(handle.addr(), "default").unwrap();

    let err = client.estimate(Estimator::Recursive, "a[[b").unwrap_err();
    match err {
        ClientError::Protocol(fault) => assert_eq!(fault.kind, FaultKind::Parse),
        other => panic!("expected protocol fault, got {other}"),
    }
    // The connection survives a usage error.
    assert!(client.estimate(Estimator::Recursive, "a").is_ok());
    handle.shutdown().expect("clean drain");
}

#[test]
fn drained_server_sheds_with_markov_provenance() {
    let lattice = sample_lattice();
    let path = write_summary(&lattice, "shed.tlat");
    let handle = serve(ServerConfig::new(&path)).unwrap();
    let mut client = Client::connect(handle.addr(), "default").unwrap();

    handle.begin_drain();
    let est = client
        .estimate(Estimator::RecursiveVoting, "a/b/c")
        .unwrap();
    assert_eq!(est.degradation, Degradation::Markov);
    let cause = est.cause.expect("shed carries its cause");
    assert_eq!(cause.kind, FaultKind::BudgetExhausted);
    assert!(cause.message.contains("draining"), "{}", cause.message);
    // The shed value is the closed-form Markov product, bit-for-bit.
    let twig = lattice.parse_query("a/b/c").unwrap();
    assert_eq!(
        est.value.to_bits(),
        markov_estimate_store(&lattice, &twig).to_bits()
    );

    // Scrape bypasses admission control and still works while draining.
    let snap = tl_obs::Snapshot::from_json(&client.scrape().unwrap()).unwrap();
    assert!(snap.counters["server.requests.shed"] >= 1);
    handle.shutdown().expect("clean drain");
}

#[test]
fn scrape_exposes_server_metrics() {
    let lattice = sample_lattice();
    let path = write_summary(&lattice, "scrape.tlat");
    let handle = serve(ServerConfig::new(&path)).unwrap();
    let mut client = Client::connect(handle.addr(), "ops").unwrap();

    for _ in 0..5 {
        client.estimate(Estimator::Recursive, "a/b").unwrap();
    }
    let snap = tl_obs::Snapshot::from_json(&client.scrape().unwrap()).unwrap();
    assert!(snap.counters["server.requests.accepted"] >= 5);
    assert!(snap.counters["server.connections"] >= 1);
    assert_eq!(snap.counters["server.responses.fault"], 0);
    assert!(snap.histograms["server.latency_us"].count >= 5);
    // Unconfigured tenant names ride the default lane.
    assert!(snap.histograms["server.tenant.default.latency_us"].count >= 5);
    handle.shutdown().expect("clean drain");
}

/// One estimate request's frame, as the client would send it.
fn estimate_frame(query: &str) -> Vec<u8> {
    let body = Request::Estimate {
        tenant: "default".into(),
        estimator: Estimator::Recursive,
        query: query.into(),
    }
    .encode();
    let mut wire = Vec::new();
    write_frame(&mut wire, &body).unwrap();
    wire
}

#[test]
fn a_frame_whose_body_arrives_late_is_answered() {
    let lattice = sample_lattice();
    let path = write_summary(&lattice, "late-body.tlat");
    let handle = serve(ServerConfig::new(&path)).unwrap();
    let mut stream = TcpStream::connect(handle.addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();

    let wire = estimate_frame("a/b");
    stream.write_all(&wire[..4]).unwrap();
    // Longer than the server's 100 ms read poll: the gap falls inside
    // the frame, so it is not idle time.
    std::thread::sleep(Duration::from_millis(300));
    stream.write_all(&wire[4..]).unwrap();

    let local = lattice.estimate(&lattice.parse_query("a/b").unwrap(), Estimator::Recursive);
    match Response::decode(&read_frame(&mut stream).unwrap()).unwrap() {
        Response::Estimate(e) => assert_eq!(e.value.to_bits(), local.to_bits()),
        other => panic!("expected an estimate, got {other:?}"),
    }
    handle.shutdown().expect("clean drain");
}

#[test]
fn a_peer_stalled_mid_frame_past_the_idle_timeout_is_closed() {
    let lattice = sample_lattice();
    let path = write_summary(&lattice, "stalled.tlat");
    let mut config = ServerConfig::new(&path);
    config.idle_timeout_ms = 200;
    let handle = serve(config).unwrap();
    let mut stream = TcpStream::connect(handle.addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();

    stream.write_all(&estimate_frame("a/b")[..4]).unwrap();
    match read_frame(&mut stream) {
        Err(FrameError::Eof) => {}
        other => panic!("expected the server to close, got {other:?}"),
    }
    let mut client = Client::connect(handle.addr(), "ops").unwrap();
    let snap = tl_obs::Snapshot::from_json(&client.scrape().unwrap()).unwrap();
    assert_eq!(snap.counters["server.conn.idle_closed"], 1);
    assert_eq!(snap.counters["server.responses.fault"], 0);
    handle.shutdown().expect("clean drain");
}

#[test]
fn mmap_backend_serves_and_refuses_update() {
    let lattice = sample_lattice();
    let path = write_summary(&lattice, "mmap.tlat");
    let mut config = ServerConfig::new(&path);
    config.mmap = true;
    let handle = serve(config).unwrap();
    let mut client = Client::connect(handle.addr(), "default").unwrap();

    let catalog = MmapCatalog::open(&path).unwrap();
    for &query in QUERIES {
        let mut labels = catalog.labels().clone();
        let twig = tl_twig::parse_twig(query, &mut labels).unwrap();
        let local = estimate_catalog(
            &catalog,
            &twig,
            Estimator::FixSized,
            &EstimateOptions::default(),
        );
        let remote = client.estimate(Estimator::FixSized, query).unwrap();
        assert_eq!(remote.value.to_bits(), local.to_bits(), "{query}");
    }
    assert_eq!(client.truth("a").unwrap(), Some(16));

    match client.update("a/b", 7).unwrap_err() {
        ClientError::Protocol(fault) => {
            assert!(fault.message.contains("mmap"), "{}", fault.message)
        }
        other => panic!("expected typed refusal, got {other}"),
    }
    handle.shutdown().expect("clean drain");
}

#[test]
fn per_tenant_deadline_budget_degrades_with_provenance() {
    let lattice = sample_lattice();
    let path = write_summary(&lattice, "budget.tlat");
    let mut config = ServerConfig::new(&path);
    // A zero-millisecond deadline: expired by the time a worker picks the
    // job up, so rung 1 trips and the ladder answers degraded.
    let mut tenant = TenantSpec::new("strict", 1, 64);
    tenant.budget = Some(BudgetSpec {
        time_limit_ms: Some(0),
        ..BudgetSpec::default()
    });
    config.tenants = vec![tenant];
    let handle = serve(config).unwrap();
    let mut client = Client::connect(handle.addr(), "strict").unwrap();

    let est = client
        .estimate(Estimator::RecursiveVoting, "a[b[c][d]][e]")
        .unwrap();
    assert!(est.degradation.is_degraded(), "got {:?}", est.degradation);
    assert!(est.cause.is_some());
    assert!(est.value.is_finite() && est.value >= 0.0);

    // An unlimited tenant on the same server still gets the exact path.
    let mut relaxed = Client::connect(handle.addr(), "default").unwrap();
    let exact = relaxed
        .estimate(Estimator::RecursiveVoting, "a[b[c][d]][e]")
        .unwrap();
    assert_eq!(exact.degradation, Degradation::None);
    handle.shutdown().expect("clean drain");
}

#[test]
fn binary_smoke_port_file_and_sigterm() {
    let lattice = sample_lattice();
    let path = write_summary(&lattice, "smoke.tlat");
    let port_file = path.with_extension("port");
    let mut child = std::process::Command::new(env!("CARGO_BIN_EXE_tl-server"))
        .args([
            "serve",
            path.to_str().unwrap(),
            "--port",
            "0",
            "--port-file",
            port_file.to_str().unwrap(),
            "--workers",
            "2",
        ])
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .spawn()
        .unwrap();

    // Wait for the ephemeral port to be published.
    let mut addr = String::new();
    for _ in 0..100 {
        if let Ok(s) = std::fs::read_to_string(&port_file) {
            if !s.is_empty() {
                addr = s;
                break;
            }
        }
        std::thread::sleep(Duration::from_millis(50));
    }
    assert!(!addr.is_empty(), "server never wrote its port file");

    let mut client = Client::connect(addr.trim(), "default").unwrap();
    let est = client.estimate(Estimator::RecursiveVoting, "a/b").unwrap();
    assert!(est.value > 0.0);

    // SIGTERM → drain → exit 0.
    let pid = child.id().to_string();
    let status = std::process::Command::new("kill")
        .args(["-TERM", &pid])
        .status()
        .unwrap();
    assert!(status.success());
    let mut exit = None;
    for _ in 0..100 {
        if let Some(st) = child.try_wait().unwrap() {
            exit = Some(st);
            break;
        }
        std::thread::sleep(Duration::from_millis(50));
    }
    let exit = exit.expect("server did not exit after SIGTERM");
    assert_eq!(exit.code(), Some(0), "clean shutdown exits 0");
}
