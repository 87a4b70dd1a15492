//! The TCP transport behind `cachemind-serve --tcp`: a real network
//! front-end over the same [`ServeEngine`] the stdin loop drives.
//!
//! # Thread topology
//!
//! ```text
//!                    ┌────────────────────────────────────────────┐
//!   TcpListener ──▶  │ acceptor thread (poll + admission control) │
//!                    └───────────────┬────────────────────────────┘
//!                                    │ register in the bounded
//!                                    ▼ connection table
//!        per connection: ┌────────┐     ┌────────┐
//!                        │ reader │     │ writer │
//!                        └───┬────┘     └───▲────┘
//!          frame newline-JSON│              │responses, reordered by
//!          lines, seq-number │              │per-connection sequence
//!          them              ▼              │number, then flushed
//!                    ┌──────────────────────┴─────┐
//!                    │ bounded work queue          │
//!                    │ → SERVE_NUM_THREADS workers │──▶ ServeEngine
//!                    └─────────────────────────────┘
//! ```
//!
//! * **Acceptor** — one thread polling a non-blocking [`TcpListener`].
//!   Each accepted socket passes admission control against the bounded
//!   connection table ([`NetConfig::max_connections`]): refused
//!   connections are answered with one in-band
//!   `error_kind:"overloaded"` line and closed, never silently dropped.
//! * **Reader** (per connection) — frames newline-delimited JSON request
//!   lines off the socket, assigns each a per-connection sequence
//!   number, and enqueues `(connection, seq, line)` work items into the
//!   bounded work queue. A full queue answers that line in-band with
//!   `error_kind:"overloaded"` on its own connection — the request is
//!   *not* processed, and the connection survives. Malformed lines are
//!   *not* a transport error either: they travel to the engine like any
//!   other line and come back as in-band `invalid_json`, exactly as on
//!   stdin. Only EOF or a socket error tears a connection down.
//! * **Workers** — `SERVE_NUM_THREADS` threads popping the shared queue
//!   and calling [`ServeEngine::serve_line`], so TCP traffic flows
//!   through the same parse/dispatch/render path (and the same metrics
//!   registry) as stdin traffic.
//! * **Writer** (per connection) — receives rendered responses, restores
//!   per-connection request order by sequence number (workers finish out
//!   of order), writes and flushes. One writer per socket means
//!   responses on a connection are never interleaved.
//!
//! # Session ownership
//!
//! Sessions opened over a connection belong to it under
//! [`SessionScope::Conn`] (the default): when the connection goes away,
//! its sessions are reaped (counted under `serve.net.sessions_reaped`).
//! [`SessionScope::Global`] matches stdin semantics — sessions outlive
//! the connection that opened them and ids are usable from any
//! connection.
//!
//! # Graceful shutdown
//!
//! [`TcpServer::shutdown`] (or an in-band `{"shutdown": true}` line)
//! stops accepting, lets every reader drain the complete lines it has
//! already buffered, waits for the workers to answer everything queued,
//! flushes every writer, then joins all threads — in-flight requests are
//! never dropped. The determinism contract carries over: answers are a
//! pure function of `(store, question, scope)`, so the load driver's
//! deterministic `--no-timing` report over TCP is byte-identical to the
//! stdin-mode report at any worker count.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::io::{BufWriter, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::time::Duration;

use cachemind_obs::names;
use serde_json::Value;

use crate::engine::ServeEngine;
use crate::protocol::{AskResponse, ProtocolError};

/// How long a blocked reader waits before re-checking the shutdown flag.
/// Also bounds how stale an idle acceptor's view of the flag can be.
const POLL_INTERVAL: Duration = Duration::from_millis(20);

/// Who owns a session opened over a TCP connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionScope {
    /// Sessions belong to the connection that opened them and are reaped
    /// when it disconnects (the default — a vanished client must not
    /// leak session state).
    Conn,
    /// Sessions outlive their connection, exactly as on stdin; any
    /// connection may address any session id.
    Global,
}

impl SessionScope {
    /// Parses the `--session-scope` flag value.
    pub fn parse(text: &str) -> Option<Self> {
        match text {
            "conn" => Some(SessionScope::Conn),
            "global" => Some(SessionScope::Global),
            _ => None,
        }
    }
}

impl std::fmt::Display for SessionScope {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            SessionScope::Conn => "conn",
            SessionScope::Global => "global",
        })
    }
}

/// TCP transport configuration.
#[derive(Debug, Clone)]
pub struct NetConfig {
    /// Admission bound on the connection table; connections past it are
    /// answered `error_kind:"overloaded"` and closed.
    pub max_connections: usize,
    /// Bound on the pending-request queue between the readers and the
    /// worker pool; lines past it are answered `error_kind:"overloaded"`
    /// in-band on their own connection.
    pub queue_capacity: usize,
    /// Who owns sessions opened over a connection.
    pub session_scope: SessionScope,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig { max_connections: 64, queue_capacity: 256, session_scope: SessionScope::Conn }
    }
}

/// One framed request line waiting for a worker.
struct WorkItem {
    conn: Arc<ConnState>,
    seq: u64,
    line: String,
}

/// Messages into a connection's writer thread.
enum WriterMsg {
    /// One rendered response line, tagged with the request's
    /// per-connection sequence number.
    Response { seq: u64, line: String },
    /// The reader is done framing: exactly `total` responses will arrive
    /// in all (some possibly already have). The writer exits once it has
    /// written that many.
    Finish { total: u64 },
}

/// The bounded multi-producer/multi-consumer queue between the readers
/// and the worker pool. `try_push` never blocks — admission control
/// answers overload in-band instead of back-pressuring the socket into
/// an opaque stall.
struct WorkQueue {
    state: Mutex<QueueState>,
    available: Condvar,
}

struct QueueState {
    items: VecDeque<WorkItem>,
    capacity: usize,
    closed: bool,
}

impl WorkQueue {
    fn new(capacity: usize) -> Self {
        WorkQueue {
            state: Mutex::new(QueueState {
                items: VecDeque::new(),
                capacity: capacity.max(1),
                closed: false,
            }),
            available: Condvar::new(),
        }
    }

    /// Enqueues unless the queue is full or closed; returns the item on
    /// refusal so the caller can answer it in-band.
    fn try_push(&self, item: WorkItem) -> Result<(), WorkItem> {
        let mut state = self.state.lock().expect("work queue lock");
        if state.closed || state.items.len() >= state.capacity {
            return Err(item);
        }
        state.items.push_back(item);
        drop(state);
        self.available.notify_one();
        Ok(())
    }

    /// Blocks for the next item; `None` once the queue is closed *and*
    /// drained — close never discards queued work.
    fn pop(&self) -> Option<WorkItem> {
        let mut state = self.state.lock().expect("work queue lock");
        loop {
            if let Some(item) = state.items.pop_front() {
                return Some(item);
            }
            if state.closed {
                return None;
            }
            state = self.available.wait(state).expect("work queue lock");
        }
    }

    fn close(&self) {
        self.state.lock().expect("work queue lock").closed = true;
        self.available.notify_all();
    }
}

/// Per-connection state shared between its reader, the workers, and the
/// connection table.
struct ConnState {
    id: u64,
    peer: String,
    writer_tx: mpsc::Sender<WriterMsg>,
    /// Sessions opened over this connection and not yet closed — the set
    /// [`SessionScope::Conn`] reaps at disconnect.
    owned: Mutex<BTreeSet<u64>>,
}

impl ConnState {
    /// The per-connection context stamped into stats responses served
    /// over this connection.
    fn context(&self) -> Value {
        let mut obj = Value::object();
        obj.insert("id", Value::from(self.id));
        obj.insert("peer", Value::from(self.peer.as_str()));
        obj
    }
}

/// Pre-registered `serve.net.*` metric handles, recording into the
/// engine's own registry so `{"stats": true}` over any transport sees
/// them.
#[derive(Clone)]
struct NetMetrics {
    accept: cachemind_obs::HistogramHandle,
    read: cachemind_obs::HistogramHandle,
    write: cachemind_obs::HistogramHandle,
    connections_open: cachemind_obs::Gauge,
    connections_accepted: cachemind_obs::Counter,
    connections_rejected: cachemind_obs::Counter,
    queue_rejected: cachemind_obs::Counter,
    bytes_in: cachemind_obs::Counter,
    bytes_out: cachemind_obs::Counter,
    sessions_reaped: cachemind_obs::Counter,
}

impl NetMetrics {
    fn new(registry: &cachemind_obs::MetricsRegistry) -> Self {
        NetMetrics {
            accept: registry.histogram(names::SERVE_NET_ACCEPT),
            read: registry.histogram(names::SERVE_NET_READ),
            write: registry.histogram(names::SERVE_NET_WRITE),
            connections_open: registry.gauge(names::SERVE_NET_CONNECTIONS_OPEN),
            connections_accepted: registry.counter(names::SERVE_NET_CONNECTIONS_ACCEPTED),
            connections_rejected: registry.counter(names::SERVE_NET_CONNECTIONS_REJECTED),
            queue_rejected: registry.counter(names::SERVE_NET_QUEUE_REJECTED),
            bytes_in: registry.counter(names::SERVE_NET_BYTES_IN),
            bytes_out: registry.counter(names::SERVE_NET_BYTES_OUT),
            sessions_reaped: registry.counter(names::SERVE_NET_SESSIONS_REAPED),
        }
    }
}

/// State shared by every thread of one server.
struct Shared {
    engine: Arc<ServeEngine>,
    config: NetConfig,
    /// The drain flag every loop polls: set once, never cleared.
    shutdown: AtomicBool,
    /// Wakes [`TcpServer::wait`] when shutdown is requested (from
    /// [`TcpServer::signal_shutdown`] or an in-band shutdown line).
    signal: (Mutex<bool>, Condvar),
    queue: WorkQueue,
    conns: Mutex<BTreeMap<u64, Arc<ConnState>>>,
    next_conn: AtomicU64,
    /// Reader + writer thread handles, joined at shutdown. Handles of
    /// already-finished threads are joined lazily here too — the vec is
    /// append-only until the final drain.
    conn_threads: Mutex<Vec<std::thread::JoinHandle<()>>>,
    metrics: NetMetrics,
}

impl Shared {
    fn shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Requests shutdown: raises the drain flag and wakes `wait()`.
    fn request_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        let (lock, condvar) = &self.signal;
        *lock.lock().expect("signal lock") = true;
        condvar.notify_all();
    }
}

/// One in-band overloaded failure, rendered for the wire.
fn overloaded_line(detail: String) -> String {
    AskResponse::failure(0, &ProtocolError::Overloaded(detail)).to_json(true)
}

/// A running TCP server over an engine. Dropping the server without
/// calling [`TcpServer::shutdown`] / [`TcpServer::wait`] shuts it down
/// gracefully too (drop joins every thread).
pub struct TcpServer {
    shared: Arc<Shared>,
    local_addr: SocketAddr,
    acceptor: Option<std::thread::JoinHandle<()>>,
    workers: Vec<std::thread::JoinHandle<()>>,
    stopped: bool,
}

impl TcpServer {
    /// Binds `addr` (e.g. `127.0.0.1:0` for an ephemeral port) and
    /// starts the acceptor plus `engine.num_threads()` worker threads.
    pub fn start(
        engine: Arc<ServeEngine>,
        addr: impl ToSocketAddrs,
        config: NetConfig,
    ) -> std::io::Result<TcpServer> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;

        let metrics = NetMetrics::new(engine.metrics());
        let queue_capacity = config.queue_capacity;
        let shared = Arc::new(Shared {
            engine,
            config,
            shutdown: AtomicBool::new(false),
            signal: (Mutex::new(false), Condvar::new()),
            queue: WorkQueue::new(queue_capacity),
            conns: Mutex::new(BTreeMap::new()),
            next_conn: AtomicU64::new(1),
            conn_threads: Mutex::new(Vec::new()),
            metrics,
        });

        let workers = (0..shared.engine.num_threads())
            .map(|index| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("serve-net-worker-{index}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn worker thread")
            })
            .collect();
        let acceptor = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("serve-net-acceptor".into())
                .spawn(move || acceptor_loop(&shared, listener))
                .expect("spawn acceptor thread")
        };

        Ok(TcpServer { shared, local_addr, acceptor: Some(acceptor), workers, stopped: false })
    }

    /// The bound address (read the ephemeral port from here).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The engine this server fronts.
    pub fn engine(&self) -> &Arc<ServeEngine> {
        &self.shared.engine
    }

    /// Number of connections currently in the table.
    pub fn connection_count(&self) -> usize {
        self.shared.conns.lock().expect("connection table lock").len()
    }

    /// Requests a graceful shutdown without blocking — pair with
    /// [`TcpServer::wait`]. Also raised by an in-band
    /// `{"shutdown": true}` line.
    pub fn signal_shutdown(&self) {
        self.shared.request_shutdown();
    }

    /// A detached handle other threads (e.g. a stdin control loop) can
    /// use to request shutdown while the owning thread blocks in
    /// [`TcpServer::wait`].
    pub fn shutdown_handle(&self) -> ShutdownHandle {
        ShutdownHandle { shared: Arc::clone(&self.shared) }
    }

    /// Blocks until shutdown is requested (via
    /// [`TcpServer::signal_shutdown`] or an in-band shutdown line), then
    /// drains and joins everything.
    pub fn wait(mut self) {
        {
            let (lock, condvar) = &self.shared.signal;
            let mut signaled = lock.lock().expect("signal lock");
            while !*signaled {
                signaled = condvar.wait(signaled).expect("signal lock");
            }
        }
        self.stop();
    }

    /// Graceful shutdown: stop accepting, drain every in-flight request,
    /// flush every writer, join every thread.
    pub fn shutdown(mut self) {
        self.shared.request_shutdown();
        self.stop();
    }

    /// The drain sequence. Order matters:
    ///
    /// 1. acceptor exits (no new connections, no new reader threads);
    /// 2. readers exit (each drains the complete lines it already
    ///    buffered, then promises its writer a final response count);
    /// 3. the work queue closes *after* the last reader has pushed —
    ///    workers drain what is queued, answer it, then exit;
    /// 4. writers exit once they have written every promised response —
    ///    nothing in flight is dropped.
    fn stop(&mut self) {
        if self.stopped {
            return;
        }
        self.stopped = true;
        self.shared.request_shutdown();
        if let Some(acceptor) = self.acceptor.take() {
            acceptor.join().expect("acceptor thread");
        }
        // Readers and writers share one handle list; readers all exit on
        // the flag, writers exit on their drain counters (the workers
        // they depend on are still running here).
        let conn_threads =
            std::mem::take(&mut *self.shared.conn_threads.lock().expect("thread list lock"));
        for handle in conn_threads {
            handle.join().expect("connection thread");
        }
        self.shared.queue.close();
        for handle in self.workers.drain(..) {
            handle.join().expect("worker thread");
        }
    }
}

impl Drop for TcpServer {
    fn drop(&mut self) {
        self.stop();
    }
}

/// A clonable shutdown trigger for a running [`TcpServer`] (see
/// [`TcpServer::shutdown_handle`]).
#[derive(Clone)]
pub struct ShutdownHandle {
    shared: Arc<Shared>,
}

impl ShutdownHandle {
    /// Requests a graceful shutdown, waking [`TcpServer::wait`].
    pub fn signal(&self) {
        self.shared.request_shutdown();
    }
}

impl std::fmt::Debug for ShutdownHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShutdownHandle").finish()
    }
}

impl std::fmt::Debug for TcpServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TcpServer")
            .field("local_addr", &self.local_addr)
            .field("stopped", &self.stopped)
            .finish()
    }
}

/// The acceptor: polls the non-blocking listener, applies admission
/// control, and spawns a reader/writer pair per admitted connection.
fn acceptor_loop(shared: &Arc<Shared>, listener: TcpListener) {
    loop {
        if shared.shutting_down() {
            return;
        }
        match listener.accept() {
            Ok((stream, peer)) => accept_connection(shared, stream, peer),
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(POLL_INTERVAL);
            }
            Err(_) => {
                // Transient accept errors (e.g. the peer aborted between
                // SYN and accept) must not kill the listener.
                std::thread::sleep(POLL_INTERVAL);
            }
        }
    }
}

fn accept_connection(shared: &Arc<Shared>, stream: TcpStream, peer: SocketAddr) {
    let span = shared.metrics.accept.start_span();
    let mut conns = shared.conns.lock().expect("connection table lock");
    if conns.len() >= shared.config.max_connections {
        drop(conns);
        shared.metrics.connections_rejected.inc();
        let line = overloaded_line(format!(
            "connection table full (max {})",
            shared.config.max_connections
        ));
        let mut stream = stream;
        let _ = stream.write_all(line.as_bytes());
        let _ = stream.write_all(b"\n");
        let _ = stream.flush();
        span.finish();
        return;
    }

    let write_half = match stream.try_clone() {
        Ok(clone) => clone,
        Err(_) => {
            drop(conns);
            span.finish();
            return;
        }
    };
    if stream.set_read_timeout(Some(POLL_INTERVAL)).is_err() {
        drop(conns);
        span.finish();
        return;
    }
    stream.set_nodelay(true).ok();

    let id = shared.next_conn.fetch_add(1, Ordering::SeqCst);
    let (writer_tx, writer_rx) = mpsc::channel();
    let conn = Arc::new(ConnState {
        id,
        peer: peer.to_string(),
        writer_tx,
        owned: Mutex::new(BTreeSet::new()),
    });
    conns.insert(id, Arc::clone(&conn));
    drop(conns);
    shared.metrics.connections_accepted.inc();
    shared.metrics.connections_open.add(1);

    let reader = {
        let shared = Arc::clone(shared);
        let conn = Arc::clone(&conn);
        std::thread::Builder::new()
            .name(format!("serve-net-reader-{id}"))
            .spawn(move || reader_loop(&shared, &conn, stream))
            .expect("spawn reader thread")
    };
    let writer = {
        let shared = Arc::clone(shared);
        std::thread::Builder::new()
            .name(format!("serve-net-writer-{id}"))
            .spawn(move || writer_loop(&shared, &conn, write_half, writer_rx))
            .expect("spawn writer thread")
    };
    shared.conn_threads.lock().expect("thread list lock").extend([reader, writer]);
    span.finish();
}

/// The per-connection reader: frames newline-JSON lines, seq-numbers
/// them, enqueues them for the workers (answering `overloaded` in-band
/// when the queue refuses), and finally promises the writer an exact
/// response count. On shutdown it drains the complete lines it has
/// already buffered before exiting — a read timeout (not a socket
/// shutdown) is what unblocks it, so no buffered request is discarded.
fn reader_loop(shared: &Arc<Shared>, conn: &Arc<ConnState>, mut stream: TcpStream) {
    let mut buffer: Vec<u8> = Vec::new();
    // How much of `buffer` is known to hold no newline: the search resumes
    // past it after every read, so framing a long line costs O(n), not a
    // rescan from byte 0 per 4 KB read.
    let mut scanned = 0usize;
    let mut scratch = [0u8; 4096];
    let mut next_seq = 0u64;
    loop {
        // Frame every complete line currently buffered.
        while let Some(offset) = buffer[scanned..].iter().position(|&b| b == b'\n') {
            let newline = scanned + offset;
            scanned = 0;
            let span = shared.metrics.read.start_span();
            let raw: Vec<u8> = buffer.drain(..=newline).collect();
            shared.metrics.bytes_in.add(raw.len() as u64);
            let line = String::from_utf8_lossy(&raw[..newline]).trim().to_string();
            if line.is_empty() {
                span.finish();
                continue;
            }
            let seq = next_seq;
            next_seq += 1;
            let item = WorkItem { conn: Arc::clone(conn), seq, line };
            if let Err(refused) = shared.queue.try_push(item) {
                shared.metrics.queue_rejected.inc();
                let line = overloaded_line(format!(
                    "pending-request queue full (capacity {})",
                    shared.config.queue_capacity
                ));
                let _ = conn.writer_tx.send(WriterMsg::Response { seq: refused.seq, line });
            }
            span.finish();
        }
        scanned = buffer.len();
        if shared.shutting_down() {
            break;
        }
        match stream.read(&mut scratch) {
            Ok(0) => break,
            Ok(n) => buffer.extend_from_slice(&scratch[..n]),
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                continue;
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => break,
        }
    }
    let _ = conn.writer_tx.send(WriterMsg::Finish { total: next_seq });
}

/// A worker: pops framed lines and serves them through the engine's
/// shared line path, tracking session ownership per connection and
/// honouring in-band shutdown requests.
fn worker_loop(shared: &Arc<Shared>) {
    while let Some(item) = shared.queue.pop() {
        let outcome = shared.engine.serve_line(&item.line, true, "tcp", Some(item.conn.context()));
        if let Some(id) = outcome.opened_session {
            item.conn.owned.lock().expect("owned set lock").insert(id);
        }
        if let Some(id) = outcome.closed_session {
            item.conn.owned.lock().expect("owned set lock").remove(&id);
        }
        if outcome.shutdown {
            shared.request_shutdown();
        }
        let _ =
            item.conn.writer_tx.send(WriterMsg::Response { seq: item.seq, line: outcome.rendered });
    }
}

/// The per-connection writer: restores request order by sequence number,
/// writes + flushes each response, and — once every promised response is
/// on the wire — tears the connection down (reaping its sessions under
/// [`SessionScope::Conn`]).
fn writer_loop(
    shared: &Arc<Shared>,
    conn: &Arc<ConnState>,
    stream: TcpStream,
    rx: mpsc::Receiver<WriterMsg>,
) {
    let mut out = BufWriter::new(stream);
    let mut pending: BTreeMap<u64, String> = BTreeMap::new();
    let mut next_seq = 0u64;
    let mut written = 0u64;
    let mut finish_total: Option<u64> = None;
    loop {
        if finish_total == Some(written) {
            break;
        }
        let Ok(msg) = rx.recv() else { break };
        match msg {
            WriterMsg::Response { seq, line } => {
                pending.insert(seq, line);
                while let Some(line) = pending.remove(&next_seq) {
                    let span = shared.metrics.write.start_span();
                    // Write errors mean the client is gone; keep
                    // consuming so the drain accounting still completes.
                    if out.write_all(line.as_bytes()).is_ok() && out.write_all(b"\n").is_ok() {
                        let _ = out.flush();
                        shared.metrics.bytes_out.add(line.len() as u64 + 1);
                    }
                    span.finish();
                    next_seq += 1;
                    written += 1;
                }
            }
            WriterMsg::Finish { total } => finish_total = Some(total),
        }
    }
    teardown_connection(shared, conn);
}

/// Removes a finished connection from the table and reaps the sessions
/// it still owns under [`SessionScope::Conn`].
fn teardown_connection(shared: &Shared, conn: &ConnState) {
    shared.conns.lock().expect("connection table lock").remove(&conn.id);
    shared.metrics.connections_open.add(-1);
    if shared.config.session_scope == SessionScope::Conn {
        let owned = std::mem::take(&mut *conn.owned.lock().expect("owned set lock"));
        for session in owned {
            if shared.engine.close_session(session).is_ok() {
                shared.metrics.sessions_reaped.inc();
            }
        }
    }
}

/// Sends one `{"shutdown": true}` line to a running server and returns
/// its acknowledgement — the client half of `--shutdown-server`.
pub fn send_shutdown(addr: impl ToSocketAddrs) -> std::io::Result<String> {
    let mut stream = TcpStream::connect(addr)?;
    stream.write_all(b"{\"shutdown\": true}\n")?;
    stream.flush()?;
    let mut response = String::new();
    stream.read_to_string(&mut response)?;
    Ok(response.trim().to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::ServeConfig;
    use cachemind_tracedb::TraceDatabaseBuilder;

    fn test_conn() -> Arc<ConnState> {
        let (writer_tx, _rx) = mpsc::channel();
        Arc::new(ConnState {
            id: 1,
            peer: "test".into(),
            writer_tx,
            owned: Mutex::new(BTreeSet::new()),
        })
    }

    fn item(seq: u64) -> WorkItem {
        WorkItem { conn: test_conn(), seq, line: format!("line {seq}") }
    }

    #[test]
    fn work_queue_bounds_admission_and_preserves_order() {
        let queue = WorkQueue::new(2);
        assert!(queue.try_push(item(0)).is_ok());
        assert!(queue.try_push(item(1)).is_ok());
        // The third is refused and handed back intact for the in-band
        // overloaded answer.
        let refused = queue.try_push(item(2)).expect_err("queue is full");
        assert_eq!(refused.seq, 2);
        assert_eq!(refused.line, "line 2");
        // Draining frees capacity again — clean recovery.
        assert_eq!(queue.pop().expect("queued").seq, 0);
        assert!(queue.try_push(item(3)).is_ok());
        assert_eq!(queue.pop().expect("queued").seq, 1);
        assert_eq!(queue.pop().expect("queued").seq, 3);
    }

    #[test]
    fn work_queue_close_drains_but_never_discards() {
        let queue = WorkQueue::new(4);
        assert!(queue.try_push(item(0)).is_ok());
        assert!(queue.try_push(item(1)).is_ok());
        queue.close();
        // Push after close is refused...
        assert!(queue.try_push(item(2)).is_err());
        // ... but what was queued still drains before the None.
        assert_eq!(queue.pop().expect("queued").seq, 0);
        assert_eq!(queue.pop().expect("queued").seq, 1);
        assert!(queue.pop().is_none());
        assert!(queue.pop().is_none(), "closed-and-empty is terminal");
    }

    #[test]
    fn work_queue_pop_blocks_until_pushed() {
        let queue = Arc::new(WorkQueue::new(4));
        let popper = {
            let queue = Arc::clone(&queue);
            std::thread::spawn(move || queue.pop().map(|i| i.seq))
        };
        std::thread::sleep(Duration::from_millis(10));
        assert!(queue.try_push(item(7)).is_ok());
        assert_eq!(popper.join().expect("popper thread"), Some(7));
    }

    #[test]
    fn session_scope_parses_the_flag_values() {
        assert_eq!(SessionScope::parse("conn"), Some(SessionScope::Conn));
        assert_eq!(SessionScope::parse("global"), Some(SessionScope::Global));
        assert_eq!(SessionScope::parse("session"), None);
        assert_eq!(SessionScope::Conn.to_string(), "conn");
        assert_eq!(SessionScope::Global.to_string(), "global");
        assert_eq!(NetConfig::default().session_scope, SessionScope::Conn);
    }

    #[test]
    fn server_starts_serves_one_line_and_shuts_down() {
        let config = ServeConfig { threads: Some(2), shards: 2, ..Default::default() };
        let db = TraceDatabaseBuilder::quick_demo()
            .shards(config.shards)
            .try_build_sharded()
            .expect("demo build");
        let engine = Arc::new(ServeEngine::over(db, config));
        let server = TcpServer::start(Arc::clone(&engine), "127.0.0.1:0", NetConfig::default())
            .expect("bind ephemeral port");
        let addr = server.local_addr();

        let mut stream = TcpStream::connect(addr).expect("connect");
        stream
            .write_all(
                b"{\"question\": \"What is the overall miss rate of the mcf workload under LRU?\"}\n",
            )
            .expect("send");
        let mut reader = std::io::BufReader::new(stream.try_clone().expect("clone"));
        let mut line = String::new();
        std::io::BufRead::read_line(&mut reader, &mut line).expect("response line");
        assert!(line.contains("\"answer\""), "{line}");
        assert!(line.contains("\"session\":1"), "{line}");
        drop(reader);
        drop(stream);

        server.shutdown();
        assert_eq!(engine.session_count(), 0, "conn scope reaps the session at teardown");
    }
}
