//! [`ServeEngine`] — the multi-session query-serving front-end.
//!
//! One engine owns many concurrent [`ChatSession`]s over a single shared
//! (`Arc`) sharded trace database. Every request enters through one door,
//! [`ServeEngine::serve_line`]: one protocol line in, one rendered
//! response line out. Concurrency comes from the callers — the TCP
//! workers and the load driver's client threads, `SERVE_NUM_THREADS` of
//! them — each serving one line at a time.
//!
//! Determinism contract: answering is a pure function of `(store,
//! question, scope)` and runs outside the session lock, while session
//! bookkeeping (ids, turns, transcripts) happens under it. A caller that
//! opens its sessions in order and asks each session's questions in
//! order therefore gets byte-identical responses, transcripts and memory
//! state for any `SERVE_NUM_THREADS`.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use cachemind_core::chat::ChatSession;
use cachemind_core::system::{CacheMind, Query, RetrieverKind};
use cachemind_lang::profiles::BackendKind;
use cachemind_obs::{names, Counter, HistogramHandle, MetricsRegistry};
use cachemind_sim::config::MachineConfig;
use cachemind_sim::prefetch::PrefetcherKind;
use cachemind_tracedb::database::BuildError;
use cachemind_tracedb::shard::ShardedTraceDatabase;
use cachemind_tracedb::snapshot::{LazyTraceDatabase, SnapshotError, VerifiedSnapshot};
use cachemind_tracedb::store::TraceStore;
use cachemind_tracedb::{ScenarioSelector, TraceDatabaseBuilder};
use cachemind_workloads::workload::Scale;

use crate::protocol::{AskRequest, AskResponse, ProtocolError, Request, Response, STATS_VERSION};
use serde_json::Value;

/// Serving configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Retriever every session routes through ([`RetrieverKind::Dense`] is
    /// not servable: its per-session index build is a benchmark artefact,
    /// not a serving path).
    pub retriever: RetrieverKind,
    /// Generator backend.
    pub backend: BackendKind,
    /// Trace-database scale.
    pub scale: Scale,
    /// Shard count for the sharded build.
    pub shards: usize,
    /// Requests in flight (TCP workers, load-driver clients); `None` reads
    /// `SERVE_NUM_THREADS`, falling back to the machine's available
    /// parallelism.
    pub threads: Option<usize>,
    /// Extra [`MachineConfig`] preset names (`"table2"`, `"small"`) to
    /// build machine-qualified traces for, on top of the primary machine —
    /// the database behind scenario-pinned (protocol v2) sessions.
    pub machines: Vec<String>,
    /// Extra prefetcher names (`"nextline"`, `"stride4"`; see
    /// [`PrefetcherKind::parse`]) to build prefetcher-qualified traces
    /// for, on top of the no-prefetch baseline — so sessions pinned to
    /// `+stride4` selectors answer from real transformed-stream traces.
    pub prefetchers: Vec<String>,
    /// Reap sessions left untouched for this many consecutive rounds —
    /// every ask and every open is one round of the engine's clock (a
    /// reaped id is thereafter an unknown session, exactly as if the
    /// client had closed it). `None` disables reaping — sessions then
    /// live until closed. A value of 0 is clamped to 1.
    pub max_idle_rounds: Option<u64>,
    /// Whether the engine's [`CacheMind`] keeps a whole-answer cache
    /// (answers keyed by db fingerprint + canonical selector + question).
    /// Answering is deterministic, so the cache never changes a byte of
    /// any response — on by default; `--no-answer-cache` turns it off for
    /// A/B measurement.
    pub answer_cache: bool,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            retriever: RetrieverKind::Sieve,
            backend: BackendKind::Gpt4o,
            scale: Scale::Tiny,
            shards: TraceDatabaseBuilder::DEFAULT_SHARDS,
            threads: None,
            machines: Vec::new(),
            prefetchers: Vec::new(),
            max_idle_rounds: None,
            answer_cache: true,
        }
    }
}

impl ServeConfig {
    /// Resolves the worker count: explicit setting, then the
    /// `SERVE_NUM_THREADS` environment variable, then available
    /// parallelism.
    pub fn num_threads(&self) -> usize {
        if let Some(n) = self.threads {
            return n.max(1);
        }
        match std::env::var("SERVE_NUM_THREADS").ok().and_then(|v| v.parse::<usize>().ok()) {
            Some(n) if n >= 1 => n,
            _ => std::thread::available_parallelism().map(std::num::NonZeroUsize::get).unwrap_or(1),
        }
    }
}

/// One served session: the chat state plus its pinned scenario scope.
#[derive(Debug)]
struct SessionState {
    chat: ChatSession,
    /// The session's default scenario scope, pinned at open (unscoped for
    /// v1 sessions). A request-level `scenario` overrides it per turn.
    pinned: ScenarioSelector,
    /// The last round that touched this session (opened it, probed it,
    /// or asked through it) — the idle clock
    /// [`ServeConfig::max_idle_rounds`] reaps against.
    last_active_round: u64,
}

/// The session map plus the engine's round clock, guarded by one mutex so
/// activity stamps and reaping are atomic with session bookkeeping.
#[derive(Debug, Default)]
struct SessionTable {
    sessions: BTreeMap<u64, SessionState>,
    /// Round counter: incremented once per ask and once per open, under
    /// the lock — the request-counting clock idle reaping measures
    /// against (wall time would make reaping depend on machine speed).
    round: u64,
}

/// The engine's pre-registered metric handles: looked up once at
/// construction so the per-request hot path is atomic increments only
/// (the error path looks its per-kind counter up dynamically — errors
/// are off the hot path by definition).
#[derive(Debug, Clone)]
struct EngineMetrics {
    registry: MetricsRegistry,
    requests_ask: Counter,
    requests_open: Counter,
    requests_close: Counter,
    requests_stats: Counter,
    sessions_opened: Counter,
    sessions_closed: Counter,
    sessions_reaped: Counter,
    ask_latency: HistogramHandle,
    parse: HistogramHandle,
    respond: HistogramHandle,
}

impl EngineMetrics {
    fn new(registry: MetricsRegistry) -> Self {
        EngineMetrics {
            requests_ask: registry.counter(names::SERVE_REQUESTS_ASK),
            requests_open: registry.counter(names::SERVE_REQUESTS_OPEN),
            requests_close: registry.counter(names::SERVE_REQUESTS_CLOSE),
            requests_stats: registry.counter(names::SERVE_REQUESTS_STATS),
            sessions_opened: registry.counter(names::SERVE_SESSIONS_OPENED),
            sessions_closed: registry.counter(names::SERVE_SESSIONS_CLOSED),
            sessions_reaped: registry.counter(names::SERVE_SESSIONS_REAPED),
            ask_latency: registry.histogram(names::SERVE_ASK),
            parse: registry.histogram(names::SERVE_PARSE),
            respond: registry.histogram(names::SERVE_RESPOND),
            registry,
        }
    }

    /// Counts one in-band error under its stable `error_kind`.
    fn error(&self, kind: &str) {
        self.registry.counter(&format!("{}{kind}", names::SERVE_ERRORS_PREFIX)).inc();
    }
}

/// What serving one protocol line did, beyond the rendered response —
/// the session-lifecycle side effects a connection-scoped transport
/// tracks (see [`ServeEngine::serve_line`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LineOutcome {
    /// The response, rendered as one compact JSON line.
    pub rendered: String,
    /// The session this line opened (a session-less ask or a fresh
    /// `open`), when it succeeded.
    pub opened_session: Option<u64>,
    /// The session this line closed (a successful `close`).
    pub closed_session: Option<u64>,
    /// Whether the line was a `{"shutdown": true}` control message the
    /// transport must act on after writing the response.
    pub shutdown: bool,
}

/// The serving front-end: a session manager behind one protocol-line
/// entry point, [`ServeEngine::serve_line`].
#[derive(Debug)]
pub struct ServeEngine {
    store: Arc<dyn TraceStore>,
    mind: CacheMind,
    sessions: Mutex<SessionTable>,
    next_session: AtomicU64,
    config: ServeConfig,
    /// This engine's own metric handles — per-engine (not process-global),
    /// so a server's `stats` snapshot counts exactly its own traffic.
    metrics: EngineMetrics,
    /// The store's canonical machine labels, snapshotted on first use (the
    /// store is immutable for the engine's lifetime): used to canonicalize
    /// preset-name scopes into keyed lookups and to resolve the machine a
    /// scoped answer cites. Lazy so a snapshot-backed engine
    /// ([`ServeEngine::from_snapshot`]) does not force a decode at
    /// startup.
    machine_labels: std::sync::OnceLock<Vec<String>>,
    /// The store's canonical prefetcher labels, snapshotted like
    /// `machine_labels`: used to resolve the prefetcher a scoped answer's
    /// grounded evidence cites.
    prefetcher_labels: std::sync::OnceLock<Vec<String>>,
}

impl ServeEngine {
    /// Builds the sharded trace database described by `config` and starts
    /// an engine over it. `config.machines` preset names add
    /// machine-qualified traces to the build and `config.prefetchers`
    /// prefetcher names add prefetcher-qualified (transformed-stream)
    /// traces, so scenario-pinned sessions have per-machine,
    /// per-prefetcher entries to answer from.
    ///
    /// Unknown workload/policy/machine-preset/prefetcher names surface as
    /// a clean [`BuildError`] — validation happens before any shard worker
    /// runs.
    pub fn build(config: ServeConfig) -> Result<Self, BuildError> {
        let db = build_database(&config)?;
        Ok(Self::over(db, config))
    }

    /// Starts an engine over a database loaded from a snapshot file
    /// written by [`ShardedTraceDatabase::save`] (see
    /// `cachemind_tracedb::snapshot`) — the instant-startup path: no
    /// simulation runs. The snapshot's own shard count wins over
    /// `config.shards` (the file records the physical layout).
    ///
    /// `config.scale`, `machines` and `prefetchers` describe *builds*, so
    /// they are ignored here beyond being echoed in [`ServeEngine::config`];
    /// the snapshot determines which traces exist.
    /// The snapshot is checksum-verified in full before this returns (any
    /// corruption is a startup error, never a mid-round surprise), but the
    /// entries themselves decode lazily on the first query — the ready
    /// banner and the listen loop come up without paying the decode.
    pub fn from_snapshot(
        path: impl AsRef<std::path::Path>,
        mut config: ServeConfig,
    ) -> Result<Self, SnapshotError> {
        let registry = MetricsRegistry::new();
        // The open/verify span also lands in this engine's registry (the
        // library records it globally), so a server's own stats carry its
        // startup cost.
        let verify_span = registry.span(names::TRACEDB_SNAPSHOT_VERIFY);
        let snapshot = VerifiedSnapshot::open(path)?;
        verify_span.finish();
        config.shards = snapshot.num_shards().max(1);
        let store: Arc<dyn TraceStore> =
            Arc::new(LazyTraceDatabase::new(snapshot).with_metrics(&registry));
        Ok(Self::over_registry(store, config, registry))
    }

    /// Starts an engine over an already-built sharded database.
    ///
    /// # Panics
    ///
    /// Panics if `config.retriever` is [`RetrieverKind::Dense`] (not a
    /// serving retriever; see [`ServeConfig::retriever`]).
    pub fn over(db: ShardedTraceDatabase, mut config: ServeConfig) -> Self {
        // The builder clamps to one shard minimum; keep the recorded config
        // in agreement with the physical layout it describes.
        config.shards = config.shards.max(1);
        Self::over_store(Arc::new(db), config)
    }

    /// Starts an engine over any [`TraceStore`] — the common tail of
    /// [`ServeEngine::over`] (eager, in-memory) and
    /// [`ServeEngine::from_snapshot`] (lazy, snapshot-backed). `config` is
    /// recorded as given; callers reconcile `config.shards` with the
    /// store's physical layout first.
    ///
    /// # Panics
    ///
    /// Panics if `config.retriever` is [`RetrieverKind::Dense`] (not a
    /// serving retriever; see [`ServeConfig::retriever`]).
    fn over_store(store: Arc<dyn TraceStore>, config: ServeConfig) -> Self {
        Self::over_registry(store, config, MetricsRegistry::new())
    }

    /// The common tail with an explicit metrics registry —
    /// [`ServeEngine::from_snapshot`] passes the registry its lazy store
    /// already records into, so decode telemetry and request telemetry
    /// land in one snapshot.
    fn over_registry(
        store: Arc<dyn TraceStore>,
        config: ServeConfig,
        registry: MetricsRegistry,
    ) -> Self {
        assert!(
            config.retriever != RetrieverKind::Dense,
            "the dense baseline is not servable; use Sieve or Ranger"
        );
        let mind = CacheMind::shared(Arc::clone(&store))
            .with_retriever(config.retriever)
            .with_backend(config.backend)
            .with_metrics(&registry)
            .with_answer_cache(config.answer_cache);
        ServeEngine {
            store,
            mind,
            sessions: Mutex::new(SessionTable::default()),
            next_session: AtomicU64::new(1),
            config,
            metrics: EngineMetrics::new(registry),
            machine_labels: std::sync::OnceLock::new(),
            prefetcher_labels: std::sync::OnceLock::new(),
        }
    }

    /// This engine's metrics registry — every counter, gauge and span the
    /// engine (and the pipeline layers it owns) records. Snapshot it for
    /// reports, or read the serialized form via [`ServeEngine::stats_value`].
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics.registry
    }

    /// The store's canonical machine labels, computed on first use (this
    /// forces a lazy snapshot store to decode).
    fn machine_labels(&self) -> &[String] {
        self.machine_labels.get_or_init(|| self.store.machines())
    }

    /// The store's canonical prefetcher labels, computed on first use.
    fn prefetcher_labels(&self) -> &[String] {
        self.prefetcher_labels.get_or_init(|| self.store.prefetchers())
    }

    /// Rewrites a scope's machine from a preset *name* (`table2`) to the
    /// store's canonical *label* (`table2@llc2048x16+dram160`), resolved
    /// once per request against the engine's label snapshot — so every
    /// scoped trace lookup downstream takes the keyed fast path instead
    /// of a linear store scan. Labels already canonical (or unknown
    /// machines, which must keep matching nothing) pass through
    /// unchanged; a name matching several labels resolves to the first in
    /// sorted order, the same entry the unresolved scan would have found.
    fn canonicalize(&self, selector: ScenarioSelector) -> ScenarioSelector {
        match &selector.machine {
            Some(machine) if !self.machine_labels().iter().any(|l| l == machine) => {
                match self.machine_labels().iter().find(|l| selector.matches_machine(l)) {
                    Some(label) => {
                        let label = label.clone();
                        selector.with_machine(label)
                    }
                    None => selector,
                }
            }
            _ => selector,
        }
    }

    /// The shared trace store.
    pub fn store(&self) -> &dyn TraceStore {
        &*self.store
    }

    /// The engine configuration.
    pub fn config(&self) -> &ServeConfig {
        &self.config
    }

    /// Resolved number of requests in flight.
    pub fn num_threads(&self) -> usize {
        self.config.num_threads()
    }

    /// Number of open sessions.
    pub fn session_count(&self) -> usize {
        self.sessions.lock().expect("session map lock").sessions.len()
    }

    /// Allocates an id and constructs a session around its own
    /// [`CacheMind`] sharing the engine's store, with a pinned scenario
    /// scope.
    ///
    /// Serving answers always flow through the engine's shared pipeline
    /// (`self.mind`); the per-session mind is configured identically by
    /// construction, so a session used directly answers exactly as the
    /// engine would.
    fn fresh_session(&self, pinned: ScenarioSelector) -> (u64, SessionState) {
        self.metrics.sessions_opened.inc();
        let id = self.next_session.fetch_add(1, Ordering::SeqCst);
        let chat = ChatSession::new(
            CacheMind::shared(Arc::clone(&self.store))
                .with_retriever(self.config.retriever)
                .with_backend(self.config.backend),
        );
        (id, SessionState { chat, pinned, last_active_round: 0 })
    }

    /// The scenario scope a session pinned at open (unscoped for v1
    /// sessions); `None` for unknown sessions.
    pub fn pinned_scenario(&self, session: u64) -> Option<ScenarioSelector> {
        self.sessions
            .lock()
            .expect("session map lock")
            .sessions
            .get(&session)
            .map(|s| s.pinned.clone())
    }

    /// The `(question, answer)` transcript of a session.
    pub fn transcript(&self, session: u64) -> Option<Vec<(String, String)>> {
        self.sessions
            .lock()
            .expect("session map lock")
            .sessions
            .get(&session)
            .map(|s| s.chat.transcript().to_vec())
    }

    /// Vector-memory recall within one session (for isolation checks and
    /// the chat tooling).
    pub fn recall(&self, session: u64, query: &str, k: usize) -> Option<Vec<String>> {
        self.sessions
            .lock()
            .expect("session map lock")
            .sessions
            .get(&session)
            .map(|s| s.chat.recall(query, k))
    }

    /// Closes a session, removing it (and its conversation memory) from
    /// the session map — the lifecycle half of the protocol, without which
    /// the map only grows. Returns the number of turns the session
    /// answered; closing an unknown (or already-closed) session is an
    /// [`ProtocolError::UnknownSession`].
    pub(crate) fn close_session(&self, session: u64) -> Result<usize, ProtocolError> {
        self.sessions
            .lock()
            .expect("session map lock")
            .sessions
            .remove(&session)
            .map(|state| {
                self.metrics.sessions_closed.inc();
                state.chat.transcript().len()
            })
            .ok_or(ProtocolError::UnknownSession(session))
    }

    /// Reaps sessions idle past the configured `--max-idle-rounds`
    /// horizon — the shared tail of every round-clock tick (each ask and
    /// each open). Measured against the table's *current* round (which
    /// concurrent requests may have advanced), so a session is only
    /// reaped when no tick has touched it for the full window. A no-op
    /// when no horizon is configured.
    fn reap_idle(&self, table: &mut SessionTable) {
        if let Some(max_idle) = self.config.max_idle_rounds {
            let limit = max_idle.max(1);
            let current = table.round;
            let before = table.sessions.len();
            table.sessions.retain(|_, s| current.saturating_sub(s.last_active_round) < limit);
            let reaped = before - table.sessions.len();
            if reaped > 0 {
                self.metrics.sessions_reaped.add(reaped as u64);
            }
        }
    }

    /// Opens a session (or probes an existing one) without asking a
    /// question — the engine half of the protocol's `open` request.
    ///
    /// With `session: None`, opens a fresh session pinned to `scenario`
    /// (unscoped when absent) and acknowledges at turn 0. With a session
    /// id, echoes the existing pin and turn count, refreshing the
    /// session's idle clock; unknown ids fail in-band.
    ///
    /// Like an ask, an `open` ticks the round clock and reaps sessions
    /// idle past the `--max-idle-rounds` horizon — so a globally scoped
    /// TCP server whose traffic is opens and probes still retires
    /// abandoned sessions. The session being opened or probed is stamped
    /// with the new round first, so it is never reaped by its own
    /// request.
    fn open(&self, session: Option<u64>, scenario: Option<ScenarioSelector>) -> AskResponse {
        match session {
            None => {
                let pinned = scenario.unwrap_or_default();
                let (id, mut state) = self.fresh_session(pinned.clone());
                let mut table = self.sessions.lock().expect("session map lock");
                table.round += 1;
                state.last_active_round = table.round;
                table.sessions.insert(id, state);
                self.reap_idle(&mut table);
                AskResponse::opened(id, 0, &pinned)
            }
            Some(id) => {
                let mut table = self.sessions.lock().expect("session map lock");
                table.round += 1;
                let round = table.round;
                let response = match table.sessions.get_mut(&id) {
                    Some(state) => {
                        state.last_active_round = round;
                        AskResponse::opened(id, state.chat.transcript().len(), &state.pinned)
                    }
                    None => self.unknown_session(id),
                };
                self.reap_idle(&mut table);
                response
            }
        }
    }

    /// Serves one raw protocol line on behalf of a named transport: parse,
    /// dispatch, render — the engine's only request entry point, behind
    /// the stdin loop (`"stdin"`), the TCP workers (`"tcp"`, via
    /// `crate::net`) and the load driver (`"in_process"`, via
    /// `crate::load`). The `serve.parse` / `serve.respond` spans and the
    /// per-`error_kind` counters are recorded on the way through; parse
    /// failures answer in-band.
    ///
    /// The transport tag and the optional per-connection context surface
    /// in `stats` responses only (wall-clock side-channel content); every
    /// other response renders byte-identically across transports, which
    /// is what makes the TCP determinism tests able to `cmp` against
    /// stdin output. The returned [`LineOutcome`] additionally reports
    /// the session-lifecycle side effects of the line, so a connection-
    /// scoped transport can track which sessions it owns, and whether the
    /// line was a graceful-shutdown request the transport must act on.
    pub fn serve_line(
        &self,
        line: &str,
        with_timing: bool,
        transport: &str,
        connection: Option<Value>,
    ) -> LineOutcome {
        let parse_span = self.metrics.parse.start_span();
        let parsed = Request::from_json(line);
        parse_span.finish();
        let mut outcome = LineOutcome {
            rendered: String::new(),
            opened_session: None,
            closed_session: None,
            shutdown: false,
        };
        let response = match parsed {
            Ok(Request::Ask(ask)) => {
                let response = self.ask(&ask);
                if ask.session.is_none() && response.is_ok() {
                    outcome.opened_session = Some(response.session);
                }
                Response::Ask(response)
            }
            Ok(Request::Open { session, scenario }) => {
                self.metrics.requests_open.inc();
                let response = self.open(session, scenario);
                if session.is_none() && response.is_ok() {
                    outcome.opened_session = Some(response.session);
                }
                Response::Ask(response)
            }
            Ok(Request::Close { session }) => {
                self.metrics.requests_close.inc();
                Response::Ask(match self.close_session(session) {
                    Ok(turns) => {
                        outcome.closed_session = Some(session);
                        AskResponse::closed(session, turns)
                    }
                    Err(error) => {
                        self.metrics.error(error.kind());
                        AskResponse::failure(session, &error)
                    }
                })
            }
            Ok(Request::Stats) => {
                // Snapshot first, count after: the response never counts
                // itself, so after driving N requests the first stats
                // response reports exactly N.
                let mut stats = self.stats_value_tagged(transport);
                self.metrics.requests_stats.inc();
                if let Some(connection) = connection {
                    stats.insert("connection", connection);
                }
                Response::Stats(stats)
            }
            // A transport-level control message: acknowledged in-band but
            // never counted, so stats bytes are unaffected by how a run
            // was stopped. The transport (TCP server, stdin loop) acts on
            // the flag; the engine itself has nothing to stop.
            Ok(Request::Shutdown) => {
                outcome.shutdown = true;
                Response::Shutdown
            }
            Err(error) => {
                self.metrics.error(error.kind());
                Response::Ask(AskResponse::failure(0, &error))
            }
        };
        let respond_span = self.metrics.respond.start_span();
        outcome.rendered = response.to_json(with_timing);
        respond_span.finish();
        outcome
    }

    /// The versioned stats object answering `{"stats": true}`: session
    /// lifecycle counts, requests by kind, per-`error_kind` counts, and
    /// the full metrics snapshot (histograms included). A pure read — it
    /// counts nothing, so callers control whether the read itself is
    /// recorded (the protocol path counts it *after* snapshotting).
    pub fn stats_value(&self) -> Value {
        let open_now = self.session_count();
        self.metrics.registry.gauge(names::SERVE_SESSIONS_OPEN).set(open_now as i64);
        let snap = self.metrics.registry.snapshot();

        let mut sessions = Value::object();
        sessions.insert("open", Value::from(open_now as u64));
        sessions.insert("opened", Value::from(snap.counter(names::SERVE_SESSIONS_OPENED)));
        sessions.insert("closed", Value::from(snap.counter(names::SERVE_SESSIONS_CLOSED)));
        sessions.insert("reaped", Value::from(snap.counter(names::SERVE_SESSIONS_REAPED)));

        let by_kind_counts = snap.counters_with_prefix(names::SERVE_ERRORS_PREFIX);
        let mut errors_total = 0u64;
        let mut by_kind = Value::object();
        for (name, count) in &by_kind_counts {
            errors_total += count;
            by_kind.insert(&name[names::SERVE_ERRORS_PREFIX.len()..], Value::from(*count));
        }
        let mut errors = Value::object();
        errors.insert("total", Value::from(errors_total));
        errors.insert("by_kind", by_kind);

        let ask = snap.counter(names::SERVE_REQUESTS_ASK);
        let open = snap.counter(names::SERVE_REQUESTS_OPEN);
        let close = snap.counter(names::SERVE_REQUESTS_CLOSE);
        let stats = snap.counter(names::SERVE_REQUESTS_STATS);
        let mut requests = Value::object();
        requests.insert("ask", Value::from(ask));
        requests.insert("open", Value::from(open));
        requests.insert("close", Value::from(close));
        requests.insert("stats", Value::from(stats));
        requests.insert("total", Value::from(ask + open + close + stats));

        // The whole-answer cache (stats v2): entry count plus the
        // `retrieval.cache.*` counters, read from the cache's own handles
        // so a `--no-answer-cache` server reports `enabled: false` and
        // nothing else.
        let mut cache = Value::object();
        match self.mind.answer_cache() {
            Some(answers) => {
                cache.insert("enabled", Value::from(true));
                cache.insert("entries", Value::from(answers.len() as u64));
                cache.insert("hits", Value::from(answers.hits()));
                cache.insert("misses", Value::from(answers.misses()));
                cache.insert("inserts", Value::from(answers.inserts()));
            }
            None => {
                cache.insert("enabled", Value::from(false));
            }
        }

        let mut root = Value::object();
        root.insert("stats_version", Value::from(STATS_VERSION));
        root.insert("sessions", sessions);
        root.insert("requests", requests);
        root.insert("errors", errors);
        root.insert("cache", cache);
        root.insert("metrics", snap.to_value());
        root
    }

    /// [`ServeEngine::stats_value`] plus the `transport` tag the protocol
    /// path stamps on stats responses — for out-of-band consumers (the
    /// binary's `--stats-json` writer) that want the same shape a
    /// `{"stats": true}` line would have answered with on that transport.
    pub fn stats_value_tagged(&self, transport: &str) -> Value {
        let mut value = self.stats_value();
        value.insert("transport", Value::from(transport));
        value
    }

    /// Answers one ask: resolve (or open) the session and its scope under
    /// the session lock, answer outside it, then record the turn under
    /// the lock again. A request without a session id opens one pinned to
    /// its scenario; a request-level scenario overrides the session's pin
    /// for this turn only. Scoped (v2) requests additionally report the
    /// machine and prefetcher labels their grounded evidence cites; v1
    /// responses keep the legacy bytes exactly.
    fn ask(&self, request: &AskRequest) -> AskResponse {
        self.metrics.requests_ask.inc();
        let (id, round, selector) = {
            let mut table = self.sessions.lock().expect("session map lock");
            table.round += 1;
            let round = table.round;
            let (id, selector) = match request.session {
                Some(id) => match table.sessions.get_mut(&id) {
                    Some(session) => {
                        session.last_active_round = round;
                        (id, request.scenario.clone().unwrap_or_else(|| session.pinned.clone()))
                    }
                    None => {
                        self.reap_idle(&mut table);
                        return self.unknown_session(id);
                    }
                },
                None => {
                    let pinned = request.scenario.clone().unwrap_or_default();
                    let (id, mut session) = self.fresh_session(pinned.clone());
                    session.last_active_round = round;
                    table.sessions.insert(id, session);
                    (id, pinned)
                }
            };
            (id, round, selector)
        };

        // Canonicalizing may force a lazy store to decode its labels, so
        // it runs outside the lock like the answer itself.
        let query = Query::scoped(request.question.clone(), self.canonicalize(selector));
        let span = self.metrics.ask_latency.start_span();
        let answer = self.mind.ask_query(&query);
        let micros = span.finish();
        let (machine, prefetcher) = if query.selector.machine_scope().is_unscoped() {
            (None, None)
        } else {
            (
                cited_machine(self.machine_labels(), &answer),
                cited_prefetcher(self.prefetcher_labels(), &answer),
            )
        };

        let mut table = self.sessions.lock().expect("session map lock");
        // Another request may have closed (or reaped) the session while
        // the answer was being computed: an in-band unknown-session
        // failure, not a panic — a poisoned map would brick the engine.
        let Some(session) = table.sessions.get_mut(&id) else {
            self.reap_idle(&mut table);
            return self.unknown_session(id);
        };
        // Stamp with max: a concurrent later request may already have
        // moved this session's clock past ours.
        session.last_active_round = session.last_active_round.max(round);
        session.chat.log(&query.text, &answer.text);
        let turn = session.chat.transcript().len();
        self.reap_idle(&mut table);
        AskResponse {
            session: id,
            turn,
            answer: Some(answer.text),
            verdict: Some(format!("{:?}", answer.verdict)),
            machine,
            prefetcher,
            scenario: None,
            closed: false,
            error: None,
            error_kind: None,
            micros,
        }
    }

    /// The in-band failure for a request naming a session the engine does
    /// not hold (never opened, closed, or reaped), counted by kind.
    fn unknown_session(&self, id: u64) -> AskResponse {
        let error = ProtocolError::UnknownSession(id);
        self.metrics.error(error.kind());
        AskResponse::failure(id, &error)
    }
}

/// Builds the sharded trace database a [`ServeConfig`] describes — the
/// shared build path behind [`ServeEngine::build`], the
/// `cachemind-serve --build-db` offline mode, and the snapshot benches.
/// Unknown machine-preset/prefetcher names surface as a clean
/// [`BuildError`] before any shard worker runs.
pub fn build_database(config: &ServeConfig) -> Result<ShardedTraceDatabase, BuildError> {
    let mut machines = Vec::with_capacity(config.machines.len());
    for name in &config.machines {
        machines.push(
            MachineConfig::preset(name).ok_or_else(|| BuildError::UnknownMachine(name.clone()))?,
        );
    }
    let mut prefetchers = Vec::with_capacity(config.prefetchers.len());
    for name in &config.prefetchers {
        prefetchers.push(
            PrefetcherKind::parse(name)
                .ok_or_else(|| BuildError::UnknownPrefetcher(name.clone()))?,
        );
    }
    TraceDatabaseBuilder::new()
        .scale(config.scale)
        .shards(config.shards)
        .machines(machines)
        .prefetchers(prefetchers)
        .try_build_sharded()
}

/// The canonical machine label a scoped answer's grounded evidence cites:
/// the store label that appears in one of the retrieved facts. `None`
/// when the evidence cites no machine (e.g. a hit/miss lookup, whose
/// facts carry no scenario sentence). Of the labels that match, the
/// *longest* wins — one canonical label can be a prefix of another
/// (`...dram160` / `...dram1600`), and substring containment alone would
/// report the shorter one.
fn cited_machine(labels: &[String], answer: &cachemind_core::system::Answer) -> Option<String> {
    labels
        .iter()
        .filter(|label| answer.context.facts.iter().any(|f| f.render().contains(label.as_str())))
        .max_by_key(|label| (label.len(), (*label).clone()))
        .cloned()
}

/// The canonical prefetcher label a scoped answer's grounded evidence
/// cites: a store label that appears as `prefetcher <label>` in one of the
/// retrieved facts — the phrase owned by
/// `cachemind_tracedb::meta::ipc_citation` /
/// `meta::scenario_citation_suffix` and the metadata's prefetcher
/// sentence, so the match target has one definition. `None` when the
/// evidence names no prefetcher — baseline traces never do, so unscoped
/// and v1 traffic is unaffected. Longest label wins, mirroring
/// [`cited_machine`] (`stride4` vs a hypothetical `stride42`).
fn cited_prefetcher(labels: &[String], answer: &cachemind_core::system::Answer) -> Option<String> {
    labels
        .iter()
        .filter(|label| label.as_str() != "none")
        .filter(|label| {
            let needle = format!("prefetcher {label}");
            answer.context.facts.iter().any(|f| f.render().contains(&needle))
        })
        .max_by_key(|label| (label.len(), (*label).clone()))
        .cloned()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn engine(threads: usize) -> ServeEngine {
        let config = ServeConfig { threads: Some(threads), shards: 3, ..Default::default() };
        let db = TraceDatabaseBuilder::quick_demo()
            .shards(config.shards)
            .try_build_sharded()
            .expect("demo build");
        ServeEngine::over(db, config)
    }

    /// Serves one line and parses its ask-shaped response.
    fn serve(engine: &ServeEngine, line: &str) -> AskResponse {
        let rendered = engine.serve_line(line, false, "stdin", None).rendered;
        AskResponse::from_json(&rendered).expect("ask-shaped response")
    }

    /// Serves one ask through the protocol line path.
    fn ask(engine: &ServeEngine, request: AskRequest) -> AskResponse {
        serve(engine, &request.to_json())
    }

    /// Opens a session with an `open` line, optionally pinned.
    fn open(engine: &ServeEngine, scenario: Option<ScenarioSelector>) -> u64 {
        let response = serve(engine, &Request::Open { session: None, scenario }.to_json());
        assert!(response.is_ok(), "{response:?}");
        response.session
    }

    #[test]
    fn fresh_requests_open_sessions_in_order() {
        let engine = engine(2);
        let responses = [
            ask(
                &engine,
                AskRequest::new("What is the overall miss rate of the mcf workload under LRU?"),
            ),
            ask(
                &engine,
                AskRequest::new("What is the overall miss rate of the lbm workload under LRU?"),
            ),
        ];
        assert_eq!(responses[0].session, 1);
        assert_eq!(responses[1].session, 2);
        assert_eq!(engine.session_count(), 2);
        assert!(responses.iter().all(AskResponse::is_ok));
        assert_eq!(responses[0].turn, 1);
    }

    #[test]
    fn unknown_sessions_fail_in_band() {
        let engine = engine(1);
        let response = ask(&engine, AskRequest::in_session(42, "hello?"));
        assert!(!response.is_ok());
        assert!(response.error.as_deref().unwrap().contains("unknown session 42"));
        // The unified in-band error shape: same fields as a parse failure,
        // discriminated by the stable error_kind.
        assert_eq!(response.error_kind.as_deref(), Some("unknown_session"));
        assert_eq!(response.turn, 0);
        let parse_failure = AskResponse::failure(0, &ProtocolError::BadRequest("x".into()));
        assert_eq!(parse_failure.error_kind.as_deref(), Some("bad_request"));
        assert_eq!(parse_failure.turn, response.turn, "both error shapes agree");
    }

    #[test]
    fn pinned_sessions_scope_every_turn_to_their_machine() {
        let config = ServeConfig {
            threads: Some(2),
            shards: 3,
            retriever: RetrieverKind::Ranger,
            machines: vec!["table2".into(), "small".into()],
            ..Default::default()
        };
        let engine = ServeEngine::build(config).expect("presets are valid");
        let a = open(&engine, Some(ScenarioSelector::all().with_machine("table2")));
        let b = open(&engine, Some(ScenarioSelector::all().with_machine("small")));
        assert_eq!(
            engine.pinned_scenario(a).unwrap().machine.as_deref(),
            Some("table2"),
            "pin recorded"
        );

        let q = "What is the estimated IPC for mcf under LRU?";
        let responses = [
            ask(&engine, AskRequest::in_session(a, q)),
            ask(&engine, AskRequest::in_session(b, q)),
        ];
        assert!(responses.iter().all(AskResponse::is_ok));
        let on_a = responses[0].machine.as_deref().expect("scoped response cites its machine");
        let on_b = responses[1].machine.as_deref().expect("scoped response cites its machine");
        assert!(on_a.starts_with("table2@"), "session a answered from {on_a}");
        assert!(on_b.starts_with("small@"), "session b answered from {on_b}");

        // A request-level scenario overrides the session pin for one turn.
        let scoped = AskRequest::in_session(a, q)
            .with_scenario(ScenarioSelector::all().with_machine("small"));
        let overridden = ask(&engine, scoped);
        assert_eq!(
            overridden.machine.as_deref(),
            Some(on_b),
            "override answers from session b's machine"
        );
        assert_eq!(overridden.answer, responses[1].answer);
        // ... and the pin is untouched afterwards.
        assert_eq!(engine.pinned_scenario(a).unwrap().machine.as_deref(), Some("table2"));
    }

    #[test]
    fn v2_opening_requests_pin_their_scenario() {
        let config = ServeConfig {
            threads: Some(1),
            shards: 2,
            machines: vec!["small".into()],
            ..Default::default()
        };
        let engine = ServeEngine::build(config).expect("preset is valid");
        let opening = AskRequest::new("What is the estimated IPC for mcf under LRU?")
            .with_scenario(ScenarioSelector::all().with_machine("small"));
        let response = ask(&engine, opening);
        assert!(response.is_ok());
        let pinned = engine.pinned_scenario(response.session).expect("session opened");
        assert_eq!(pinned.machine.as_deref(), Some("small"), "opening scenario becomes the pin");
    }

    #[test]
    fn unknown_machine_presets_fail_the_build_cleanly() {
        let config = ServeConfig { machines: vec!["cray-1".into()], ..Default::default() };
        let err = ServeEngine::build(config).expect_err("unknown preset");
        assert_eq!(err, BuildError::UnknownMachine("cray-1".into()));
        assert!(err.to_string().contains("cray-1"));
    }

    #[test]
    fn rounds_record_turns_into_the_right_sessions() {
        let engine = engine(4);
        let a = open(&engine, None);
        let b = open(&engine, None);
        let responses = [
            ask(
                &engine,
                AskRequest::in_session(
                    a,
                    "What is the overall miss rate of the mcf workload under LRU?",
                ),
            ),
            ask(
                &engine,
                AskRequest::in_session(b, "Which policy has the lowest miss rate in astar?"),
            ),
            ask(
                &engine,
                AskRequest::in_session(a, "List all unique PCs in the mcf trace under LRU."),
            ),
        ];
        assert_eq!(responses[0].turn, 1);
        assert_eq!(responses[1].turn, 1);
        assert_eq!(responses[2].turn, 2, "second question to session a is its turn 2");
        let ta = engine.transcript(a).unwrap();
        assert_eq!(ta.len(), 2);
        assert!(ta[1].0.contains("unique PCs"));
        assert_eq!(engine.transcript(b).unwrap().len(), 1);
    }

    #[test]
    fn close_removes_the_session_from_the_map() {
        let engine = engine(2);
        let a = open(&engine, None);
        let b = open(&engine, None);
        ask(
            &engine,
            AskRequest::in_session(
                a,
                "What is the overall miss rate of the mcf workload under LRU?",
            ),
        );
        assert_eq!(engine.session_count(), 2);

        let close = Request::Close { session: a }.to_json();
        let response = serve(&engine, &close);
        assert!(response.is_ok());
        assert!(response.closed);
        assert_eq!(response.turn, 1, "echoes the turns the session answered");
        assert_eq!(engine.session_count(), 1);
        assert_eq!(engine.transcript(a), None, "state is gone");
        assert_eq!(engine.pinned_scenario(a), None);

        // A closed id is thereafter unknown, to asks and closes alike.
        let again = serve(&engine, &close);
        assert_eq!(again.error_kind.as_deref(), Some("unknown_session"));
        assert!(!again.closed);
        let asked = ask(&engine, AskRequest::in_session(a, "hello?"));
        assert_eq!(asked.error_kind.as_deref(), Some("unknown_session"));

        // Ids are never reused: the next open continues the sequence.
        let c = open(&engine, None);
        assert!(c > b, "ids must stay monotonic after a close");
    }

    #[test]
    fn prefetcher_pinned_sessions_answer_from_qualified_traces() {
        let config = ServeConfig {
            threads: Some(2),
            shards: 3,
            retriever: RetrieverKind::Ranger,
            machines: vec!["table2".into()],
            prefetchers: vec!["stride4".into()],
            ..Default::default()
        };
        let engine = ServeEngine::build(config).expect("presets and prefetchers valid");
        let pin = ScenarioSelector::parse("astar@table2+stride4/lru").expect("selector");
        let opening = AskRequest::new("What is the estimated IPC?").with_scenario(pin.clone());
        let response = ask(&engine, opening);
        assert!(response.is_ok(), "{:?}", response.error);
        assert_eq!(engine.pinned_scenario(response.session), Some(pin));
        let machine = response.machine.as_deref().expect("scoped response cites its machine");
        assert!(machine.starts_with("table2@"), "{machine}");
        assert_eq!(
            response.prefetcher.as_deref(),
            Some("stride4"),
            "scoped response cites the grounded prefetcher"
        );

        // The same session's baseline override drops the citation.
        let baseline = AskRequest::in_session(response.session, "What is the estimated IPC?")
            .with_scenario(ScenarioSelector::parse("astar@table2/lru").unwrap());
        let overridden = ask(&engine, baseline);
        assert_eq!(overridden.prefetcher, None, "baseline evidence cites no prefetcher");
        assert_ne!(overridden.answer, response.answer, "prefetch-aware IPC must differ");
    }

    #[test]
    fn unknown_prefetchers_fail_the_build_cleanly() {
        let config = ServeConfig { prefetchers: vec!["markov".into()], ..Default::default() };
        let err = ServeEngine::build(config).expect_err("unknown prefetcher");
        assert_eq!(err, BuildError::UnknownPrefetcher("markov".into()));
        assert!(err.to_string().contains("markov"));
    }

    #[test]
    fn from_snapshot_answers_like_a_fresh_build() {
        let config = ServeConfig { threads: Some(2), shards: 3, ..Default::default() };
        let db = TraceDatabaseBuilder::quick_demo()
            .shards(config.shards)
            .try_build_sharded()
            .expect("demo build");
        let path =
            std::env::temp_dir().join(format!("cachemind_engine_{}.snap", std::process::id()));
        db.save(&path).expect("save snapshot");
        let fresh = ServeEngine::over(db, config.clone());
        // Deliberately wrong shard count in the config: the snapshot's
        // physical layout must win.
        let loaded = ServeEngine::from_snapshot(&path, ServeConfig { shards: 999, ..config })
            .expect("snapshot loads");
        std::fs::remove_file(&path).ok();

        assert_eq!(loaded.config().shards, 3, "snapshot shard count wins");
        assert_eq!(loaded.store().len(), fresh.store().len());
        let q = "What is the overall miss rate of the mcf workload under LRU?";
        let a = ask(&fresh, AskRequest::new(q));
        let b = ask(&loaded, AskRequest::new(q));
        assert!(a.is_ok() && b.is_ok());
        assert_eq!(a.answer, b.answer, "snapshot-backed answers are byte-identical");
        assert_eq!(a.verdict, b.verdict);
    }

    #[test]
    fn missing_snapshots_fail_the_engine_cleanly() {
        let err = ServeEngine::from_snapshot("/nonexistent/engine.snap", ServeConfig::default())
            .expect_err("missing file");
        assert!(matches!(err, SnapshotError::Io { .. }), "{err}");
    }

    #[test]
    fn idle_sessions_are_reaped_after_the_configured_rounds() {
        let config = ServeConfig {
            threads: Some(1),
            shards: 3,
            max_idle_rounds: Some(2),
            ..Default::default()
        };
        let db = TraceDatabaseBuilder::quick_demo()
            .shards(config.shards)
            .try_build_sharded()
            .expect("demo build");
        let engine = ServeEngine::over(db, config);
        let active = open(&engine, None); // round 1
        let idle = open(&engine, None); // round 2
        assert_eq!(engine.session_count(), 2);

        let q = "What is the overall miss rate of the mcf workload under LRU?";
        // Round 3 touches only `active`; `idle` has sat out one round —
        // still within the two-round window.
        assert!(ask(&engine, AskRequest::in_session(active, q)).is_ok());
        assert_eq!(engine.session_count(), 2, "one idle round survives a window of two");
        // Round 4: `idle` has now sat out two full rounds — reaped.
        assert!(ask(&engine, AskRequest::in_session(active, q)).is_ok());
        assert_eq!(engine.session_count(), 1);
        assert_eq!(engine.transcript(idle), None, "reaped state is gone");
        let resp = ask(&engine, AskRequest::in_session(idle, q)); // round 5
        assert_eq!(
            resp.error_kind.as_deref(),
            Some("unknown_session"),
            "a reaped id fails exactly like a closed one"
        );

        // An `open` probe counts as activity: it resets the idle clock.
        assert!(ask(&engine, AskRequest::in_session(active, q)).is_ok()); // round 6
        let probed = open(&engine, None); // round 7
        assert!(ask(&engine, AskRequest::in_session(active, q)).is_ok()); // round 8
        serve(&engine, &Request::Open { session: Some(probed), scenario: None }.to_json());
        assert!(ask(&engine, AskRequest::in_session(active, q)).is_ok()); // round 10
        assert!(engine.transcript(probed).is_some(), "probe refreshed the idle clock");
    }

    #[test]
    fn open_requests_tick_the_round_clock_and_reap_idle_sessions() {
        let config = ServeConfig {
            threads: Some(1),
            shards: 3,
            max_idle_rounds: Some(2),
            ..Default::default()
        };
        let db = TraceDatabaseBuilder::quick_demo()
            .shards(config.shards)
            .try_build_sharded()
            .expect("demo build");
        let engine = ServeEngine::over(db, config);
        let probe = |session: Option<u64>| {
            serve(&engine, &Request::Open { session, scenario: None }.to_json())
        };

        // A session abandoned at round 1; all later traffic is opens and
        // probes only — the TCP-global-scope shape where no ask ever runs.
        let abandoned = open(&engine, None); // round 1
        let first = probe(None); // round 2
        assert!(first.is_ok());
        assert_eq!(engine.session_count(), 2, "one idle round survives a window of two");
        let second = probe(None); // round 3: abandoned is 2 rounds idle
        assert!(second.is_ok());
        assert_eq!(engine.session_count(), 2, "opens-only traffic reaped the abandoned session");
        assert!(engine.transcript(abandoned).is_none(), "reaped state is gone");

        // A probe stamps its own session before reaping, so it is never
        // reaped by its own request.
        let probed = probe(Some(first.session)); // round 4
        assert!(probed.is_ok());
        assert_eq!(probed.session, first.session);
        assert_eq!(engine.session_count(), 2);

        // Even a failed probe ticks the clock and reaps: `second` (last
        // active at round 3) falls to this round-5 tick.
        let missing = probe(Some(999)); // round 5
        assert_eq!(missing.error_kind.as_deref(), Some("unknown_session"));
        assert_eq!(engine.session_count(), 1);
        assert!(engine.transcript(first.session).is_some(), "the probed session survived");
        assert!(engine.transcript(second.session).is_none());

        let stats = engine.stats_value();
        let reaped = stats.get("sessions").and_then(|s| s.get("reaped")).and_then(Value::as_u64);
        assert_eq!(reaped, Some(2), "both reaps counted");
    }

    #[test]
    fn stats_report_the_answer_cache() {
        let engine = engine(1);
        let q = "What is the overall miss rate of the mcf workload under LRU?";
        ask(&engine, AskRequest::new(q));
        ask(&engine, AskRequest::new(q));
        let stats = engine.stats_value();
        let cache = stats.get("cache").expect("stats v2 carries the cache object");
        let count = |key: &str| cache.get(key).and_then(Value::as_u64);
        assert_eq!(cache.get("enabled").and_then(Value::as_bool), Some(true));
        assert_eq!(count("entries"), Some(1), "one distinct question");
        assert_eq!(count("hits"), Some(1), "the repeat replayed the stored answer");
        assert_eq!(count("misses"), Some(1));
        assert_eq!(count("inserts"), Some(1));

        // A cache-off engine reports only the flag.
        let config =
            ServeConfig { threads: Some(1), shards: 3, answer_cache: false, ..Default::default() };
        let db = TraceDatabaseBuilder::quick_demo()
            .shards(config.shards)
            .try_build_sharded()
            .expect("demo build");
        let off = ServeEngine::over(db, config);
        ask(&off, AskRequest::new(q));
        let stats = off.stats_value();
        let cache = stats.get("cache").expect("cache object present even when disabled");
        assert_eq!(cache.get("enabled").and_then(Value::as_bool), Some(false));
        assert!(cache.get("hits").is_none(), "no counters for a disabled cache");
    }

    #[test]
    fn open_requests_acknowledge_without_burning_a_question() {
        let config = ServeConfig {
            threads: Some(1),
            shards: 2,
            machines: vec!["small".into()],
            ..Default::default()
        };
        let engine = ServeEngine::build(config).expect("preset is valid");
        let pin = ScenarioSelector::all().with_machine("small");
        let resp =
            serve(&engine, &Request::Open { session: None, scenario: Some(pin.clone()) }.to_json());
        assert!(resp.is_ok());
        assert_eq!(resp.turn, 0, "fresh opens acknowledge at turn 0");
        assert_eq!(resp.scenario.as_deref(), Some("@small"), "the pin comes back");
        assert_eq!(engine.pinned_scenario(resp.session), Some(pin));
        assert_eq!(engine.transcript(resp.session).unwrap().len(), 0, "no question burned");

        // After a turn, a probe echoes the pin and the turn count.
        let q = "What is the estimated IPC for mcf under LRU?";
        ask(&engine, AskRequest::in_session(resp.session, q));
        let probe = serve(
            &engine,
            &Request::Open { session: Some(resp.session), scenario: None }.to_json(),
        );
        assert!(probe.is_ok());
        assert_eq!(probe.session, resp.session);
        assert_eq!(probe.turn, 1);
        assert_eq!(probe.scenario.as_deref(), Some("@small"));
        assert_eq!(engine.transcript(resp.session).unwrap().len(), 1, "probe burned nothing");

        // Probing an unknown session fails in-band.
        let missing =
            serve(&engine, &Request::Open { session: Some(999), scenario: None }.to_json());
        assert_eq!(missing.error_kind.as_deref(), Some("unknown_session"));
    }

    #[test]
    fn concurrent_closes_never_poison_the_engine() {
        let engine = engine(2);
        let ids: Vec<u64> = (0..6).map(|_| open(&engine, None)).collect();
        let q = "What is the overall miss rate of the mcf workload under LRU?";

        std::thread::scope(|scope| {
            let closer = scope.spawn(|| {
                for id in &ids {
                    let _ = engine.close_session(*id);
                }
            });
            // Asks race the closer: every response must be either a real
            // answer or an in-band unknown-session failure — never a panic
            // or a poisoned lock.
            for _ in 0..3 {
                for id in &ids {
                    let response = ask(&engine, AskRequest::in_session(*id, q));
                    assert!(
                        response.is_ok()
                            || response.error_kind.as_deref() == Some("unknown_session"),
                        "unexpected response shape: {response:?}"
                    );
                }
            }
            closer.join().expect("closer thread");
        });

        // The engine still serves fresh sessions after the churn.
        let after = ask(&engine, AskRequest::new(q));
        assert!(after.is_ok());
    }

    #[test]
    fn serve_line_reports_lifecycle_outcomes() {
        let engine = engine(1);
        let q = "What is the overall miss rate of the mcf workload under LRU?";

        // A session-less ask opens a session.
        let asked = engine.serve_line(&format!("{{\"question\": \"{q}\"}}"), false, "tcp", None);
        assert_eq!(asked.opened_session, Some(1));
        assert_eq!(asked.closed_session, None);
        assert!(!asked.shutdown);

        // A fresh open opens one; a probe of it does not.
        let opened = engine.serve_line("{\"open\": true}", false, "tcp", None);
        assert_eq!(opened.opened_session, Some(2));
        let probed = engine.serve_line("{\"open\": true, \"session\": 2}", false, "tcp", None);
        assert_eq!(probed.opened_session, None);

        // A successful close reports the closed session; a failed one
        // reports nothing.
        let closed = engine.serve_line("{\"close\": true, \"session\": 2}", false, "tcp", None);
        assert_eq!(closed.closed_session, Some(2));
        let refused = engine.serve_line("{\"close\": true, \"session\": 2}", false, "tcp", None);
        assert_eq!(refused.closed_session, None);
        assert!(refused.rendered.contains("unknown_session"), "{}", refused.rendered);

        // A shutdown line raises the flag and acknowledges in-band,
        // without counting as a request.
        let before = engine.stats_value();
        let shutdown = engine.serve_line("{\"shutdown\": true}", false, "tcp", None);
        assert!(shutdown.shutdown);
        assert_eq!(shutdown.rendered, "{\"shutdown\":true}");
        let after = engine.stats_value();
        assert_eq!(
            before.get("requests").unwrap().to_string(),
            after.get("requests").unwrap().to_string(),
            "shutdown is a transport control message, not a request"
        );
    }

    #[test]
    fn over_deep_lines_answer_invalid_json_without_overflowing() {
        // 200k opening brackets, then 200k closing ones: deep enough to
        // overflow the stack of a recursive parser with no depth bound.
        let engine = engine(1);
        let line = "[".repeat(200_000) + &"]".repeat(200_000);
        let outcome = engine.serve_line(&line, false, "stdin", None);
        let response = AskResponse::from_json(&outcome.rendered).expect("one in-band response");
        assert_eq!(response.error_kind.as_deref(), Some("invalid_json"), "{}", outcome.rendered);
        assert_eq!(outcome.opened_session, None);

        // The engine keeps serving.
        let q = "What is the overall miss rate of the mcf workload under LRU?";
        assert!(ask(&engine, AskRequest::new(q)).is_ok());
    }

    #[test]
    fn stats_lines_carry_their_transport_and_connection_context() {
        let engine = engine(1);
        let stdin = engine.serve_line("{\"stats\": true}", true, "stdin", None).rendered;
        assert!(stdin.contains("\"transport\":\"stdin\""), "{stdin}");
        assert!(!stdin.contains("\"connection\""), "{stdin}");

        let mut conn = Value::object();
        conn.insert("id", Value::from(7u64));
        let tcp = engine.serve_line("{\"stats\": true}", true, "tcp", Some(conn));
        assert!(tcp.rendered.contains("\"transport\":\"tcp\""), "{}", tcp.rendered);
        assert!(tcp.rendered.contains("\"connection\":{\"id\":7}"), "{}", tcp.rendered);

        // Non-stats responses never carry the tag: ask bytes stay
        // transport-independent (the cross-transport determinism
        // contract).
        let q = "{\"question\": \"What is the overall miss rate of the mcf workload under LRU?\"}";
        let over_tcp = engine.serve_line(q, false, "tcp", None).rendered;
        assert!(!over_tcp.contains("transport"), "{over_tcp}");

        // The out-of-band writer shape matches the in-band one.
        let tagged = engine.stats_value_tagged("tcp");
        assert_eq!(tagged.get("transport").and_then(Value::as_str), Some("tcp"));
    }
}
