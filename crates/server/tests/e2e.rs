//! End-to-end tests: a real server on an ephemeral port, driven through
//! the blocking client.

use std::io::Write;
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use tl_fault::{Degradation, FaultKind};
use tl_server::protocol::{read_frame, write_frame, FrameError, Request, Response};
use tl_server::{serve, BudgetSpec, Client, ClientError, ServerConfig, TenantSpec};
use tl_xml::{parse_document, ParseOptions};
use treelattice::{
    estimate_catalog, markov_estimate, BuildConfig, Catalog, EstimateOptions, Estimator,
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

/// The server's counter `name` from a fresh scrape.
fn scraped(client: &mut Client, name: &str) -> u64 {
    tl_obs::Snapshot::from_json(&client.scrape().unwrap())
        .unwrap()
        .counters[name]
}

/// A wire batch is one engine batch call on either backend: every item
/// answers bit for bit like the same twig sent alone, and the engine
/// counts one query per item.
#[test]
fn batches_run_through_the_engine_on_both_backends() {
    let lattice = sample_lattice();
    let path = write_summary(&lattice, "engine-batch.tlat");
    // Known labels only: an unknown one answers 0 before the engine.
    let queries: Vec<String> = QUERIES
        .iter()
        .filter(|&&q| q != "nosuch")
        .map(|q| q.to_string())
        .collect();
    for mmap in [false, true] {
        let mut config = ServerConfig::new(&path);
        config.mmap = mmap;
        let handle = serve(config).unwrap();
        let mut batcher = Client::connect(handle.addr(), "default").unwrap();
        let mut singles = Client::connect(handle.addr(), "default").unwrap();
        for est in Estimator::ALL {
            let queries_before = scraped(&mut batcher, "engine.queries");
            let batch = batcher.estimate_batch(est, &queries).unwrap();
            let counted = scraped(&mut batcher, "engine.queries") - queries_before;
            assert_eq!(counted, queries.len() as u64, "mmap={mmap} {est}");
            for (q, item) in queries.iter().zip(&batch) {
                let item = item.as_ref().unwrap();
                let single = singles.estimate(est, q).unwrap();
                assert_eq!(
                    item.degradation, single.degradation,
                    "mmap={mmap} {est} {q}"
                );
                assert_eq!(
                    item.value.to_bits(),
                    single.value.to_bits(),
                    "mmap={mmap} {est} {q}"
                );
            }
        }
        handle.shutdown().expect("clean drain");
    }
}

/// `count` distinct twigs of 3–6 nodes, each the top of a random node's
/// subtree in a seeded XMark document, as query strings.
fn seeded_pool(seed: u64, count: usize) -> (TreeLattice, Vec<String>) {
    use rand::{Rng, SeedableRng};
    let doc = tl_datagen::Dataset::Xmark.generate(tl_datagen::GenConfig {
        seed,
        target_elements: 2_000,
    });
    let lattice = TreeLattice::build(&doc, &BuildConfig::with_k(3));
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut pool = std::collections::BTreeSet::new();
    for _ in 0..20 * count {
        if pool.len() == count {
            break;
        }
        let size = rng.gen_range(3..=6);
        let start = tl_xml::NodeId(rng.gen_range(0..doc.len() as u32));
        let mut twig = tl_twig::Twig::single(doc.label(start));
        let mut frontier = vec![(start, twig.root())];
        while twig.len() < size && !frontier.is_empty() {
            let (node, at) = frontier.swap_remove(rng.gen_range(0..frontier.len()));
            for child in doc.children(node) {
                if twig.len() < size {
                    frontier.push((child, twig.add_child(at, doc.label(child))));
                }
            }
        }
        if twig.len() >= 3 {
            pool.insert(twig.to_query_string(doc.labels()));
        }
    }
    assert_eq!(pool.len(), count, "the pool came up short");
    (lattice, pool.into_iter().collect())
}

/// Both backends estimate through the server's engine; over a seeded pool,
/// sent twice so the second pass answers from the cache, the mmap and
/// memory answers stay bit-identical to each other and to the engineless
/// estimate.
#[test]
fn mmap_and_memory_answer_bit_identically_over_a_seeded_pool() {
    let (lattice, pool) = seeded_pool(17, 60);
    let path = write_summary(&lattice, "pool.tlat");
    let serve_on = |mmap: bool| {
        let mut config = ServerConfig::new(&path);
        config.mmap = mmap;
        serve(config).unwrap()
    };
    let (mmap, memory) = (serve_on(true), serve_on(false));
    let mut on_mmap = Client::connect(mmap.addr(), "default").unwrap();
    let mut on_memory = Client::connect(memory.addr(), "default").unwrap();
    let catalog = MmapCatalog::open(&path).unwrap();
    for pass in ["cold", "warm"] {
        for q in &pool {
            let mut labels = catalog.labels().clone();
            let twig = tl_twig::parse_twig(q, &mut labels).unwrap();
            for est in [Estimator::Recursive, Estimator::RecursiveVoting] {
                let a = on_mmap.estimate(est, q).unwrap();
                let b = on_memory.estimate(est, q).unwrap();
                let local = estimate_catalog(&catalog, &twig, est, &EstimateOptions::default());
                assert_eq!(a.degradation, Degradation::None, "{pass} {est} {q}");
                assert_eq!(a.value.to_bits(), b.value.to_bits(), "{pass} {est} {q}");
                assert_eq!(a.value.to_bits(), local.to_bits(), "{pass} {est} {q}");
            }
        }
    }
    for client in [&mut on_mmap, &mut on_memory] {
        assert!(
            scraped(client, "engine.cache.hits") > 0,
            "the warm pass hit"
        );
    }
    mmap.shutdown().expect("clean drain");
    memory.shutdown().expect("clean drain");
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

/// A memory-backend server over `path`, with `online_budget_bytes` and,
/// when `durable`, a fresh WAL directory.
fn memory_server(
    path: &std::path::Path,
    online_budget_bytes: usize,
    durable: bool,
) -> ServerConfig {
    let mut config = ServerConfig::new(path);
    config.online_budget_bytes = online_budget_bytes;
    if durable {
        let wal = path.with_extension(format!("wal-{online_budget_bytes}"));
        std::fs::remove_dir_all(&wal).ok();
        config.wal_dir = Some(wal);
    }
    config
}

#[test]
fn served_estimates_answer_an_observed_twig_past_k() {
    let lattice = sample_lattice();
    let path = write_summary(&lattice, "past-k.tlat");
    let query = "a[b[c][d]][e]";
    assert!(lattice.parse_query(query).unwrap().len() > lattice.k());
    for durable in [false, true] {
        let handle = serve(memory_server(&path, 1 << 20, durable)).unwrap();
        let mut client = Client::connect(handle.addr(), "default").unwrap();
        client.update(query, 99).unwrap();
        assert_eq!(client.truth(query).unwrap(), Some(99));
        for est in Estimator::ALL {
            let served = client.estimate(est, query).unwrap();
            assert_eq!(served.degradation, Degradation::None, "{est}");
            assert_eq!(served.value, 99.0, "{est}, durable {durable}");
        }
        handle.shutdown().expect("clean drain");
    }
}

#[test]
fn an_evicted_correction_serves_the_mined_summary() {
    let lattice = sample_lattice();
    let path = write_summary(&lattice, "evicted.tlat");
    let mined = Some(16);
    assert_eq!(
        lattice.summary().stored(&tl_twig::canonical::key_of(
            &lattice.parse_query("a/b").unwrap()
        )),
        mined
    );
    for durable in [false, true] {
        let handle = serve(memory_server(&path, 0, durable)).unwrap();
        let mut client = Client::connect(handle.addr(), "default").unwrap();
        // A correction of a mined count, evicted at once by the 0-byte layer.
        client.update("a/b", 5).unwrap();
        assert_eq!(client.truth("a/b").unwrap(), mined, "durable {durable}");
        for &query in QUERIES {
            let twig = lattice.parse_query(query).unwrap();
            for est in Estimator::ALL {
                let served = client.estimate(est, query).unwrap();
                assert_eq!(
                    served.value.to_bits(),
                    lattice.estimate(&twig, est).to_bits(),
                    "{est} {query}, durable {durable}"
                );
            }
        }
        handle.shutdown().expect("clean drain");
    }
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
        markov_estimate(&lattice, &twig).to_bits()
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

/// One execution slot, a long batch holding it, and a client looping
/// single estimates beside it: singles that arrive while the batch runs
/// park, are handed the slot when it finishes, and answer exactly.
#[test]
fn requests_parked_for_a_slot_are_handed_it_and_answer_exactly() {
    let lattice = Arc::new(sample_lattice());
    let path = write_summary(&lattice, "parked.tlat");
    let mut config = ServerConfig::new(&path);
    config.workers = 1;
    let handle = serve(config).unwrap();
    let addr = handle.addr();

    let stop = Arc::new(AtomicBool::new(false));
    let singles = {
        let (lattice, stop) = (lattice.clone(), stop.clone());
        thread::spawn(move || {
            let mut client = Client::connect(addr, "default").unwrap();
            let local =
                lattice.estimate(&lattice.parse_query("a/b/c").unwrap(), Estimator::Recursive);
            while !stop.load(Ordering::SeqCst) {
                let remote = client.estimate(Estimator::Recursive, "a/b/c").unwrap();
                assert_eq!(remote.value.to_bits(), local.to_bits());
            }
        })
    };
    let batch: Vec<String> = QUERIES
        .iter()
        .cycle()
        .take(4_000)
        .map(|q| q.to_string())
        .collect();
    let expected: Vec<u64> = batch
        .iter()
        .map(|q| {
            lattice
                .estimate(&lattice.parse_query(q).unwrap(), Estimator::Recursive)
                .to_bits()
        })
        .collect();
    let mut client = Client::connect(addr, "default").unwrap();
    // Each batch holds the only slot for thousands of estimates; rounds
    // repeat until a single has been seen to park behind one.
    let mut queued = 0;
    for _ in 0..50 {
        let items = client.estimate_batch(Estimator::Recursive, &batch).unwrap();
        let bits: Vec<u64> = items
            .iter()
            .map(|i| i.as_ref().unwrap().value.to_bits())
            .collect();
        assert_eq!(bits, expected);
        let snap = tl_obs::Snapshot::from_json(&client.scrape().unwrap()).unwrap();
        queued = snap.counters["server.requests.queued"];
        if queued > 0 {
            break;
        }
    }
    stop.store(true, Ordering::SeqCst);
    singles.join().unwrap();
    assert!(queued > 0, "no request parked for the slot");
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

/// The mmap backend runs the full degradation ladder: a tenant capped at
/// `max_k = 2` answers from the reduced-k rung bit-for-bit like the same
/// tenant on the memory backend, while the default tenant stays
/// bit-identical to `estimate_catalog`.
#[test]
fn mmap_backend_degrades_a_capped_tenant_like_the_memory_backend() {
    let lattice = sample_lattice();
    let path = write_summary(&lattice, "mmap-ladder.tlat");
    let serve_capped = |mmap: bool| {
        let mut config = ServerConfig::new(&path);
        config.mmap = mmap;
        let mut tenant = TenantSpec::new("capped", 1, 64);
        tenant.budget = Some(BudgetSpec {
            max_k: Some(2),
            ..BudgetSpec::default()
        });
        config.tenants = vec![tenant];
        serve(config).unwrap()
    };
    let mmap = serve_capped(true);
    let memory = serve_capped(false);
    let mut capped_mmap = Client::connect(mmap.addr(), "capped").unwrap();
    let mut capped_memory = Client::connect(memory.addr(), "capped").unwrap();
    let mut default_mmap = Client::connect(mmap.addr(), "default").unwrap();

    let catalog = MmapCatalog::open(&path).unwrap();
    let mut reduced = 0;
    for &query in QUERIES {
        let mut labels = catalog.labels().clone();
        let twig = tl_twig::parse_twig(query, &mut labels).unwrap();
        for est in Estimator::ALL {
            let ctx = format!("{est} {query}");
            let on_mmap = capped_mmap.estimate(est, query).unwrap();
            let on_memory = capped_memory.estimate(est, query).unwrap();
            assert_eq!(on_mmap.degradation, on_memory.degradation, "{ctx}");
            assert_eq!(on_mmap.value.to_bits(), on_memory.value.to_bits(), "{ctx}");
            if twig.len() > 2 {
                assert_eq!(on_mmap.degradation, Degradation::ReducedK { k: 2 }, "{ctx}");
                reduced += 1;
            }
            let exact = default_mmap.estimate(est, query).unwrap();
            let local = estimate_catalog(&catalog, &twig, est, &EstimateOptions::default());
            assert_eq!(exact.degradation, Degradation::None, "{ctx}");
            assert_eq!(exact.value.to_bits(), local.to_bits(), "{ctx}");
        }
    }
    assert!(reduced > 0, "no query was large enough to hit the cap");
    mmap.shutdown().expect("clean drain");
    memory.shutdown().expect("clean drain");
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
