//! The server's thread model: connection threads run their own requests.
//! A binary of its own, so the threads `/proc/self/task` lists are this
//! test's server and clients alone.

use std::sync::{Arc, Barrier};
use std::thread;

use tl_fault::Degradation;
use tl_server::{serve, Client, ServerConfig};
use tl_xml::{parse_document, ParseOptions};
use treelattice::{BuildConfig, Estimator, TreeLattice};

const QUERIES: &[&str] = &["a", "a/b", "a/b/c", "a[b[c][d]][e]", "f/a/b", "nosuch"];

/// The names of every live thread of this process.
fn thread_names() -> Vec<String> {
    std::fs::read_dir("/proc/self/task")
        .expect("list /proc/self/task")
        .flatten()
        .filter_map(|task| std::fs::read_to_string(task.path().join("comm")).ok())
        .map(|name| name.trim().to_string())
        .collect()
}

#[test]
fn connection_threads_answer_without_a_worker_pool() {
    let mut xml = String::from("<r>");
    for _ in 0..8 {
        xml.push_str("<a><b><c/><d/></b><e/></a><f><a><b/></a></f>");
    }
    xml.push_str("</r>");
    let doc = parse_document(xml.as_bytes(), ParseOptions::default()).unwrap();
    let lattice = Arc::new(TreeLattice::build(&doc, &BuildConfig::with_k(3)));
    let dir = std::env::temp_dir().join(format!("tl-server-threads-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("threads.tlat");
    std::fs::write(&path, lattice.to_bytes()).unwrap();

    let mut config = ServerConfig::new(&path);
    config.workers = 4;
    let handle = serve(config).unwrap();
    let addr = handle.addr();

    // Clients stay connected until the main thread has listed threads.
    const CLIENTS: usize = 3;
    let listed = Arc::new(Barrier::new(CLIENTS + 1));
    let done = Arc::new(Barrier::new(CLIENTS + 1));
    let clients: Vec<_> = (0..CLIENTS)
        .map(|_| {
            let (lattice, listed, done) = (lattice.clone(), listed.clone(), done.clone());
            thread::spawn(move || {
                let mut client = Client::connect(addr, "default").unwrap();
                for _ in 0..20 {
                    for &query in QUERIES {
                        let twig = lattice.parse_query(query).unwrap();
                        for est in Estimator::ALL {
                            let remote = client.estimate(est, query).unwrap();
                            assert_eq!(remote.degradation, Degradation::None, "{est} {query}");
                            assert_eq!(
                                remote.value.to_bits(),
                                lattice.estimate(&twig, est).to_bits(),
                                "{est} {query}"
                            );
                        }
                    }
                }
                listed.wait();
                done.wait();
            })
        })
        .collect();

    listed.wait();
    let names = thread_names();
    done.wait();
    for client in clients {
        client.join().unwrap();
    }
    let conns = names.iter().filter(|n| *n == "tl-server-conn").count();
    assert_eq!(conns, CLIENTS, "one thread per connection: {names:?}");
    assert!(
        !names.iter().any(|n| n.starts_with("tl-server-work")),
        "no worker pool: {names:?}"
    );
    handle.shutdown().expect("clean drain");
    std::fs::remove_dir_all(&dir).ok();
}
