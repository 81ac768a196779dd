//! The client never reads a late reply as the answer to the next
//! request. A scripted listener stands in for the server, so the test
//! decides exactly when each reply is written; nothing waits on a sleep.

use std::net::{TcpListener, TcpStream};
use std::sync::mpsc;
use std::thread;
use std::time::Duration;

use tl_server::protocol::{read_frame, write_frame, Request, Response, WireEstimate};
use tl_server::{Client, ClientConfig, ClientError};
use treelattice::Estimator;

/// Reads one estimate request and returns its query.
fn read_query(conn: &mut TcpStream) -> Option<String> {
    match Request::decode(&read_frame(conn).ok()?).ok()? {
        Request::Estimate { query, .. } => Some(query),
        other => panic!("scripted listener got {other:?}"),
    }
}

/// Answers with a value that names the query, so a mix-up shows.
fn reply(conn: &mut TcpStream, query: &str) {
    let value = if query == "a/b" { 1.0 } else { 2.0 };
    let body = Response::Estimate(WireEstimate::exact(value)).encode();
    // The client may have closed this connection already.
    let _ = write_frame(conn, &body);
}

#[test]
fn a_late_reply_is_never_read_as_the_next_answer() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let (gave_up_tx, gave_up_rx) = mpsc::channel::<()>();
    let (late_tx, late_rx) = mpsc::channel::<()>();
    thread::spawn(move || {
        let (mut first, _) = listener.accept().unwrap();
        let query = read_query(&mut first).unwrap();
        // Hold reply 1 until the client has returned `Deadline`.
        gave_up_rx.recv().unwrap();
        reply(&mut first, &query);
        late_tx.send(()).unwrap();
        // Answer everything after that at once, on new connections.
        for conn in listener.incoming() {
            let mut conn = conn.unwrap();
            while let Some(query) = read_query(&mut conn) {
                reply(&mut conn, &query);
            }
        }
    });

    let config = ClientConfig {
        request_timeout: Duration::from_millis(500),
        max_retries: 0,
        ..ClientConfig::default()
    };
    let mut client = Client::connect_with(addr, "default", config).unwrap();
    match client.estimate(Estimator::Recursive, "a/b") {
        Err(ClientError::Deadline) => {}
        other => panic!("expected the deadline, got {other:?}"),
    }
    gave_up_tx.send(()).unwrap();
    late_rx.recv().unwrap();
    // Reply 1 now sits on the old connection; the next call must not
    // take it for its own.
    let second = client.estimate(Estimator::Recursive, "c/d").unwrap();
    assert_eq!(second.value, 2.0, "the late reply to `a/b` was returned");
}
