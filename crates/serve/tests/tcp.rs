//! The TCP transport, pinned end to end — the in-process form of CI's
//! TCP smoke:
//!
//! * a snapshot-started server answers the socket-mode load driver
//!   byte-identically to the in-process driver, for any worker count
//!   (`answers_fnv64` and the whole deterministic report agree);
//! * the full v1/v2 protocol (open / ask / stats / close) works over a
//!   raw socket, malformed lines answer in-band without tearing the
//!   connection down, and stats responses carry their transport and
//!   connection context;
//! * framing is independent of how the bytes arrive (a line written one
//!   byte at a time answers exactly like one written whole), and an
//!   over-deep line answers `invalid_json` while the server keeps
//!   serving everyone;
//! * admission control answers `overloaded` in-band — a full connection
//!   table refuses new sockets with a protocol line, a full work queue
//!   refuses lines without dropping any, and both recover cleanly;
//! * graceful shutdown drains every in-flight line before the server
//!   exits — nothing is silently dropped;
//! * per-connection sessions are reaped on disconnect under
//!   `--session-scope conn` and survive it under `global`;
//! * after identical drives, the server's in-band stats equal the
//!   in-process engine's — one registry, whatever the transport.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use cachemind_serve::engine::{ServeConfig, ServeEngine};
use cachemind_serve::load::{run_load_driver, LoadSpec, Transport};
use cachemind_serve::net::{self, NetConfig, SessionScope, TcpServer};
use cachemind_tracedb::TraceDatabaseBuilder;
use serde_json::Value;

const QUESTION: &str = "What is the overall miss rate of the mcf workload under LRU?";

fn engine(threads: usize) -> ServeEngine {
    let config = ServeConfig { threads: Some(threads), shards: 3, ..Default::default() };
    let db = TraceDatabaseBuilder::quick_demo()
        .shards(config.shards)
        .try_build_sharded()
        .expect("demo build");
    ServeEngine::over(db, config)
}

fn start_server(threads: usize, config: NetConfig) -> TcpServer {
    TcpServer::start(Arc::new(engine(threads)), "127.0.0.1:0", config).expect("bind ephemeral")
}

/// A raw newline-JSON protocol client over one socket.
struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    fn connect(addr: SocketAddr) -> Client {
        let writer = TcpStream::connect(addr).expect("connect");
        let reader = BufReader::new(writer.try_clone().expect("clone read half"));
        Client { writer, reader }
    }

    fn send(&mut self, line: &str) {
        writeln!(self.writer, "{line}").expect("write line");
        self.writer.flush().expect("flush line");
    }

    fn recv(&mut self) -> Value {
        let mut line = String::new();
        let n = self.reader.read_line(&mut line).expect("read response");
        assert!(n > 0, "connection closed while a response was expected");
        serde_json::from_str(line.trim()).expect("responses are valid JSON")
    }

    fn round_trip(&mut self, line: &str) -> Value {
        self.send(line);
        self.recv()
    }

    fn ask(&mut self, session: u64) -> Value {
        self.round_trip(&format!("{{\"question\": \"{QUESTION}\", \"session\": {session}}}"))
    }
}

fn field<'a>(value: &'a Value, path: &[&str]) -> &'a Value {
    let mut current = value;
    for key in path {
        current = current.get(key).unwrap_or_else(|| panic!("missing {path:?} at {key}"));
    }
    current
}

fn count(value: &Value, path: &[&str]) -> u64 {
    field(value, path).as_u64().unwrap_or_else(|| panic!("{path:?} is not a u64"))
}

fn text<'a>(value: &'a Value, path: &[&str]) -> &'a str {
    field(value, path).as_str().unwrap_or_else(|| panic!("{path:?} is not a string"))
}

/// On the wire, success is the absence of the uniform error shape.
fn is_ok(value: &Value) -> bool {
    value.get("error_kind").is_none() && value.get("error").is_none()
}

fn temp_snapshot(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("cachemind_{}_{}.snap", name, std::process::id()))
}

/// The aggregate answer digest a deterministic report pins.
fn answers_fnv64(report: &str) -> &str {
    let marker = "\"answers_fnv64\": \"";
    let start = report.find(marker).expect("report carries answers_fnv64") + marker.len();
    let end = report[start..].find('"').expect("digest is quoted");
    &report[start..start + end]
}

/// Polls a condition that a background teardown thread satisfies shortly
/// after a disconnect.
fn eventually(what: &str, mut check: impl FnMut() -> bool) {
    for _ in 0..200 {
        if check() {
            return;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    panic!("timed out waiting for {what}");
}

#[test]
fn tcp_driver_matches_stdin_byte_for_byte_across_worker_counts() {
    // Snapshot-started servers, exactly like CI's `--db-path` smoke.
    let path = temp_snapshot("tcp_identity");
    let db = TraceDatabaseBuilder::quick_demo().shards(3).try_build_sharded().expect("demo build");
    db.save(&path).expect("save snapshot");

    let spec = LoadSpec { sessions: 4, questions: 3, scenarios: vec![], repeat_period: 0 };
    let config = ServeConfig { threads: Some(1), shards: 3, ..Default::default() };
    let local = ServeEngine::from_snapshot(&path, config.clone()).expect("snapshot loads");
    let reference_outcome =
        run_load_driver(&local, spec.clone(), Transport::InProcess).expect("in-process drive");
    assert_eq!(reference_outcome.errors(), 0);
    let reference = reference_outcome.render(&local, false);

    for threads in [1usize, 2, 8] {
        let served = ServeEngine::from_snapshot(
            &path,
            ServeConfig { threads: Some(threads), ..config.clone() },
        )
        .expect("snapshot loads");
        let server = TcpServer::start(Arc::new(served), "127.0.0.1:0", NetConfig::default())
            .expect("bind ephemeral");
        let outcome = run_load_driver(&local, spec.clone(), Transport::Tcp(server.local_addr()))
            .expect("tcp drive");
        assert_eq!(outcome.errors(), 0, "{threads} workers");
        let report = outcome.render(&local, false);
        assert_eq!(
            answers_fnv64(&report),
            answers_fnv64(&reference),
            "answer digest diverged from the stdin drive at {threads} workers"
        );
        assert_eq!(
            report, reference,
            "tcp deterministic report diverged from stdin at {threads} workers"
        );
        // The transport shows up in the timing block only — the full
        // render says tcp, the deterministic half says nothing.
        let full = outcome.render(&local, true);
        assert!(full.contains("\"transport\": \"tcp\""), "{full}");
        assert!(!report.contains("transport"), "{report}");
        server.shutdown();
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn full_protocol_works_over_a_raw_socket() {
    let server = start_server(2, NetConfig::default());
    let mut client = Client::connect(server.local_addr());

    // v2 lifecycle: explicit open, ask in session, close.
    let opened = client.round_trip("{\"open\": true}");
    assert!(is_ok(&opened), "{opened:?}");
    let session = count(&opened, &["session"]);
    let answer = client.ask(session);
    assert!(is_ok(&answer), "{answer:?}");
    assert!(!text(&answer, &["answer"]).is_empty(), "{answer:?}");

    // A malformed line answers in-band and leaves the connection alive.
    let garbage = client.round_trip("this is not json");
    assert_eq!(text(&garbage, &["error_kind"]), "invalid_json", "{garbage:?}");
    let after = client.ask(session);
    assert!(is_ok(&after), "the connection survived the bad line: {after:?}");

    // Stats answer in-band, tagged with the transport and the asking
    // connection's identity.
    let stats = client.round_trip("{\"stats\": true}");
    assert_eq!(text(&stats, &["transport"]), "tcp", "{stats:?}");
    assert!(field(&stats, &["connection", "id"]).as_u64().is_some(), "{stats:?}");
    assert!(field(&stats, &["connection", "peer"]).as_str().is_some(), "{stats:?}");
    assert_eq!(count(&stats, &["errors", "by_kind", "invalid_json"]), 1, "{stats:?}");

    let closed = client.round_trip(&format!("{{\"close\": true, \"session\": {session}}}"));
    assert!(is_ok(&closed), "{closed:?}");
    server.shutdown();
}

#[test]
fn full_connection_table_refuses_in_band_and_recovers() {
    let server = start_server(1, NetConfig { max_connections: 1, ..NetConfig::default() });
    let addr = server.local_addr();

    let mut admitted = Client::connect(addr);
    let opened = admitted.round_trip("{\"open\": true}");
    assert!(is_ok(&opened), "{opened:?}");

    // The second socket is answered — not silently dropped — with the
    // uniform overloaded error, then closed.
    let mut refused = TcpStream::connect(addr).expect("connect over the limit");
    let mut rejection = String::new();
    refused.read_to_string(&mut rejection).expect("read rejection");
    let rejection: Value =
        serde_json::from_str(rejection.trim()).expect("rejections are protocol lines");
    assert!(!is_ok(&rejection), "{rejection:?}");
    assert_eq!(text(&rejection, &["error_kind"]), "overloaded", "{rejection:?}");

    // The admitted connection never noticed.
    let still = admitted.round_trip("{\"stats\": true}");
    assert_eq!(text(&still, &["transport"]), "tcp", "{still:?}");
    assert_eq!(count(&still, &["metrics", "counters", "serve.net.connections_rejected"]), 1);

    // Freeing the slot restores admission.
    drop(admitted);
    eventually("the connection slot to free", || server.connection_count() == 0);
    let mut next = Client::connect(addr);
    let welcome = next.round_trip("{\"open\": true}");
    assert!(is_ok(&welcome), "admission recovered: {welcome:?}");
    server.shutdown();
}

#[test]
fn overloaded_queue_answers_every_line_in_band() {
    // One worker and a two-slot queue under a 200-line burst: some lines
    // answer ok, some answer overloaded, every single one answers.
    let server = start_server(1, NetConfig { queue_capacity: 2, ..NetConfig::default() });
    let mut client = Client::connect(server.local_addr());

    const BURST: usize = 200;
    let mut burst = String::new();
    for _ in 0..BURST {
        burst.push_str("{\"stats\": true}\n");
    }
    client.writer.write_all(burst.as_bytes()).expect("write burst");
    client.writer.flush().expect("flush burst");

    let mut ok = 0usize;
    let mut overloaded = 0usize;
    for _ in 0..BURST {
        let response = client.recv();
        match response.get("error_kind").and_then(Value::as_str) {
            Some("overloaded") => overloaded += 1,
            Some(kind) => panic!("unexpected error kind {kind} in {response:?}"),
            None => {
                assert!(response.get("stats_version").is_some(), "{response:?}");
                ok += 1;
            }
        }
    }
    assert_eq!(ok + overloaded, BURST, "every line answered exactly once");

    // The connection recovers: the next line answers normally.
    let after = client.round_trip("{\"stats\": true}");
    assert!(after.get("stats_version").is_some(), "clean recovery after overload: {after:?}");
    server.shutdown();
}

#[test]
fn graceful_shutdown_drains_every_in_flight_line() {
    let server = start_server(2, NetConfig::default());
    let mut client = Client::connect(server.local_addr());

    // A burst of asks with the shutdown request riding last: the server
    // must answer all of them, ack the shutdown, then close and exit.
    const ASKS: usize = 20;
    let mut burst = String::new();
    for _ in 0..ASKS {
        burst.push_str(&format!("{{\"question\": \"{QUESTION}\"}}\n"));
    }
    burst.push_str("{\"shutdown\": true}\n");
    client.writer.write_all(burst.as_bytes()).expect("write burst");
    client.writer.flush().expect("flush burst");

    let mut answers = 0usize;
    let mut acked = false;
    for _ in 0..ASKS + 1 {
        let response = client.recv();
        if response.get("shutdown").and_then(Value::as_bool) == Some(true) {
            acked = true;
        } else {
            assert!(is_ok(&response), "{response:?}");
            answers += 1;
        }
    }
    assert_eq!(answers, ASKS, "every in-flight ask drained before exit");
    assert!(acked, "the shutdown request was acknowledged in-band");

    // The socket now reads EOF and the server side has fully stopped.
    let mut rest = String::new();
    client.reader.read_to_string(&mut rest).expect("drain to EOF");
    assert!(rest.trim().is_empty(), "nothing after the drain: {rest:?}");
    server.wait();
}

#[test]
fn send_shutdown_stops_a_server_remotely() {
    let server = start_server(1, NetConfig::default());
    let ack = net::send_shutdown(server.local_addr()).expect("shutdown round-trip");
    assert_eq!(ack, "{\"shutdown\":true}");
    server.wait();
}

#[test]
fn conn_scope_reaps_sessions_and_global_scope_keeps_them() {
    // conn scope: the sessions a connection opened die with it.
    let server =
        start_server(2, NetConfig { session_scope: SessionScope::Conn, ..NetConfig::default() });
    let mut client = Client::connect(server.local_addr());
    for _ in 0..3 {
        let opened = client.round_trip("{\"open\": true}");
        assert!(is_ok(&opened), "{opened:?}");
    }
    assert_eq!(server.engine().session_count(), 3);
    drop(client);
    eventually("conn-scoped sessions to be reaped", || server.engine().session_count() == 0);
    server.shutdown();

    // global scope: sessions outlive the connection and stay usable
    // from another one.
    let server =
        start_server(2, NetConfig { session_scope: SessionScope::Global, ..NetConfig::default() });
    let mut first = Client::connect(server.local_addr());
    let opened = first.round_trip("{\"open\": true}");
    let session = count(&opened, &["session"]);
    drop(first);
    eventually("the first connection to tear down", || server.connection_count() == 0);
    assert_eq!(server.engine().session_count(), 1, "global sessions survive disconnect");

    let mut second = Client::connect(server.local_addr());
    let answer = second.ask(session);
    assert!(is_ok(&answer), "the session answers from a new socket: {answer:?}");
    server.shutdown();
}

#[test]
fn tcp_and_stdin_drives_land_in_the_same_stats_registry() {
    // Identical drives, one per transport; global scope so no reaper
    // skews the session gauges. Both drivers open their sessions and ask
    // their questions with the same protocol lines, so the request,
    // error and session stats must agree exactly — it is one engine
    // registry either way.
    let spec = LoadSpec { sessions: 4, questions: 3, scenarios: vec![], repeat_period: 0 };

    let stdin_engine = engine(2);
    let stdin_outcome =
        run_load_driver(&stdin_engine, spec.clone(), Transport::InProcess).expect("drive");
    assert_eq!(stdin_outcome.errors(), 0);
    let stdin_stats = stdin_engine.stats_value();

    let server =
        start_server(2, NetConfig { session_scope: SessionScope::Global, ..NetConfig::default() });
    let driver = engine(2);
    let tcp_outcome =
        run_load_driver(&driver, spec, Transport::Tcp(server.local_addr())).expect("tcp drive");
    assert_eq!(tcp_outcome.errors(), 0);

    // Read the server's stats the way any client would: in-band over the
    // socket. The response reflects the drive and never counts itself.
    let mut client = Client::connect(server.local_addr());
    let tcp_stats = client.round_trip("{\"stats\": true}");
    for section in ["requests", "errors", "sessions"] {
        assert_eq!(
            field(&tcp_stats, &[section]),
            field(&stdin_stats, &[section]),
            "the {section} stats diverged between transports"
        );
    }
    assert_eq!(count(&tcp_stats, &["requests", "open"]), 4, "one open line per session");
    assert_eq!(text(&tcp_stats, &["transport"]), "tcp");
    server.shutdown();
}

#[test]
fn one_byte_writes_frame_exactly_like_a_whole_line() {
    let line = format!("{{\"question\": \"{QUESTION}\"}}\n");
    // Responses over TCP carry wall-clock `micros`; drop it to compare.
    let deterministic = |mut response: Value| {
        if let Value::Object(map) = &mut response {
            map.remove("micros");
        }
        response
    };

    let whole_server = start_server(1, NetConfig::default());
    let mut whole = Client::connect(whole_server.local_addr());
    whole.writer.write_all(line.as_bytes()).expect("write line");
    let expected = deterministic(whole.recv());
    assert!(is_ok(&expected), "{expected:?}");
    whole_server.shutdown();

    // A fresh server, so session ids and turns line up; the same line
    // arrives in one-byte segments.
    let dribble_server = start_server(1, NetConfig::default());
    let mut dribble = Client::connect(dribble_server.local_addr());
    dribble.writer.set_nodelay(true).expect("nodelay");
    for byte in line.as_bytes() {
        dribble.writer.write_all(std::slice::from_ref(byte)).expect("write byte");
        dribble.writer.flush().expect("flush byte");
    }
    assert_eq!(deterministic(dribble.recv()), expected, "framing depends on write sizes");
    dribble_server.shutdown();
}

#[test]
fn over_deep_lines_answer_invalid_json_and_the_server_keeps_serving() {
    let server = start_server(2, NetConfig::default());
    let mut bystander = Client::connect(server.local_addr());
    let opened = bystander.round_trip("{\"open\": true}");
    let session = count(&opened, &["session"]);

    // 200k opening brackets, then 200k closing ones: without a parser
    // depth bound this overflows a worker's stack and aborts the process.
    let mut hostile = Client::connect(server.local_addr());
    let crash = "[".repeat(200_000) + &"]".repeat(200_000);
    let response = hostile.round_trip(&crash);
    assert_eq!(text(&response, &["error_kind"]), "invalid_json", "{response:?}");

    // Both connections keep working.
    assert!(is_ok(&hostile.round_trip("{\"open\": true}")));
    let answer = bystander.ask(session);
    assert!(is_ok(&answer), "the other client is still served: {answer:?}");
    server.shutdown();
}
