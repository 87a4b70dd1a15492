//! `chat-tcp`: chat sessions over a real socket. A Tiny-scale snapshot
//! is served by `TcpServer` in this process (two workers, Sieve, answer
//! cache on); two closed-loop clients run sessions back to back —
//! connect, `open`, a few dozen asks, `close`, disconnect. Most asks
//! repeat an earlier question and hit the answer cache; the rest are new
//! and go through Sieve.

use std::collections::HashSet;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use cachemind_core::system::RetrieverKind;
use cachemind_serve::engine::build_database;
use cachemind_serve::protocol::AskResponse;
use cachemind_serve::{NetConfig, ServeConfig, ServeEngine, TcpServer};
use serde_json::Value;

use crate::inputs::{
    chat_sessions, chat_universe, read_items, read_sessions, write_items, write_sessions, Item,
};
use crate::pipeline::{
    ask_line, close_line, normalise, opened_session, Pipeline, OPEN_LINE, SERVE_LINE,
};
use crate::qa::{cache_counters, category_mix, decode, reference_answers, score_catalog, WARMUP};
use crate::report::Outcome;
use crate::stats::{median, median_of, peak_rss_mb, share, sorted, tail, StealMeter};
use crate::trace::Recorder;

pub const CLIENTS: usize = 2;

/// Server starts per run; `setup_s` is their median.
const SETUP_REPS: usize = 15;

/// Distinct questions in the universe sessions draw new questions from.
const UNIVERSE: usize = 40_000;

/// Asks scripted per run: more than two clients get through in a run.
const SCRIPTED_ASKS: usize = 400_000;

const SNAPSHOT: &str = "db.snap";
const QUESTIONS: &str = "questions.tsv";
const SESSIONS: &str = "sessions.txt";

pub fn config() -> ServeConfig {
    ServeConfig { threads: Some(CLIENTS), ..ServeConfig::default() }
}

pub fn generate(dir: &Path, seed: u64) -> Result<(), String> {
    let db = build_database(&config()).map_err(|e| e.to_string())?;
    db.save(dir.join(SNAPSHOT)).map_err(|e| e.to_string())?;
    let unified = db.into_unified();
    let universe = chat_universe(&unified, seed, UNIVERSE);
    write_items(&dir.join(QUESTIONS), &universe).map_err(|e| e.to_string())?;
    write_sessions(&dir.join(SESSIONS), &chat_sessions(universe.len(), seed, SCRIPTED_ASKS))
        .map_err(|e| e.to_string())
}

/// A client connection speaking newline-delimited JSON.
struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Conn {
    fn connect(addr: SocketAddr) -> std::io::Result<Conn> {
        let writer = TcpStream::connect(addr)?;
        writer.set_nodelay(true)?;
        writer.set_read_timeout(Some(Duration::from_secs(30)))?;
        Ok(Conn { reader: BufReader::new(writer.try_clone()?), writer })
    }

    /// Sends one line and waits for its response: (response, µs).
    fn round_trip(&mut self, line: &str) -> std::io::Result<(String, f64)> {
        let started = Instant::now();
        self.writer.write_all(format!("{line}\n").as_bytes())?;
        let mut response = String::new();
        if self.reader.read_line(&mut response)? == 0 {
            return Err(std::io::Error::new(std::io::ErrorKind::UnexpectedEof, "server closed"));
        }
        let micros = started.elapsed().as_secs_f64() * 1e6;
        Ok((response.trim_end().to_owned(), micros))
    }
}

/// Starts a server over a fresh engine and answers its first request over
/// the socket.
fn start(snapshot: &Path) -> Result<(TcpServer, f64), String> {
    let started = Instant::now();
    let engine = ServeEngine::from_snapshot(snapshot, config()).map_err(|e| e.to_string())?;
    let server = TcpServer::start(Arc::new(engine), "127.0.0.1:0", NetConfig::default())
        .map_err(|e| e.to_string())?;
    let mut conn = Conn::connect(server.local_addr()).map_err(|e| e.to_string())?;
    let line = cachemind_serve::protocol::AskRequest::new(WARMUP).to_json();
    let (response, _) = conn.round_trip(&line).map_err(|e| e.to_string())?;
    let elapsed = started.elapsed().as_secs_f64();
    let ok = AskResponse::from_json(&response).is_ok_and(|r| r.is_ok());
    if !ok {
        return Err(format!("warm-up request failed: {response}"));
    }
    Ok((server, elapsed))
}

/// One session as the client saw it.
struct SessionLog {
    script: usize,
    /// Connect → `open` response on the fresh socket.
    first_reply_us: f64,
    open: String,
    /// (question index, response, round trip µs) per ask.
    asks: Vec<(usize, String, f64)>,
    close: String,
    /// Round trips of every request: open, asks, close.
    rtts: Vec<f64>,
}

fn run_session(
    addr: SocketAddr,
    script: usize,
    questions: &[usize],
    items: &[Item],
) -> Result<SessionLog, String> {
    let connecting = Instant::now();
    let mut conn = Conn::connect(addr).map_err(|e| e.to_string())?;
    let (open, open_rtt) = conn.round_trip(OPEN_LINE).map_err(|e| e.to_string())?;
    let first_reply_us = connecting.elapsed().as_secs_f64() * 1e6;
    let session = opened_session(&open)?;
    let mut log = SessionLog {
        script,
        first_reply_us,
        open,
        asks: Vec::new(),
        close: String::new(),
        rtts: vec![open_rtt],
    };
    for &q in questions {
        let (response, rtt) =
            conn.round_trip(&ask_line(session, &items[q].text)).map_err(|e| e.to_string())?;
        log.asks.push((q, response, rtt));
        log.rtts.push(rtt);
    }
    let (close, close_rtt) = conn.round_trip(&close_line(session)).map_err(|e| e.to_string())?;
    log.close = close;
    log.rtts.push(close_rtt);
    Ok(log)
}

/// What the socket phase produced.
struct Phase {
    logs: Vec<SessionLog>,
    /// Sessions that could not complete (refused or broken connection).
    broken: Vec<String>,
    wall: f64,
}

extern "C" {
    /// glibc `nice(3)`; on Linux it sets the calling thread's nice value.
    fn nice(inc: std::os::raw::c_int) -> std::os::raw::c_int;
}

/// One lowest-priority spinning thread per core while it lives, so no
/// core halts between requests.
///
/// A cache-hit round trip is four thread wake-ups (reader, worker,
/// writer, client) around 20 µs of work. On a virtual machine, waking a
/// halted virtual CPU goes through the hypervisor, and how long that
/// takes swings with the host's load: measured here, the round-trip p50
/// moved between about 95 and 150 µs from one minute to the next with
/// idle cores, and stayed at 60–70 µs with the cores kept busy. The
/// spinners run at nice 19, so any serving or client thread preempts
/// them; this does what disabling deep idle states does on a dedicated
/// machine.
struct KeepAwake {
    stop: Arc<AtomicBool>,
    spinners: Vec<std::thread::JoinHandle<()>>,
}

impl KeepAwake {
    fn start() -> KeepAwake {
        let stop = Arc::new(AtomicBool::new(false));
        let cores = std::thread::available_parallelism().map_or(1, usize::from);
        let spinners = (0..cores)
            .map(|_| {
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    // SAFETY: nice(3) takes a plain integer and touches no
                    // memory of this process; on failure the spinner just
                    // keeps the default priority.
                    unsafe { nice(19) };
                    while !stop.load(Ordering::Relaxed) {
                        std::hint::spin_loop();
                    }
                })
            })
            .collect();
        KeepAwake { stop, spinners }
    }
}

impl Drop for KeepAwake {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        for spinner in self.spinners.drain(..) {
            let _ = spinner.join();
        }
    }
}

/// Two closed-loop clients run scripted sessions until the deadline; a
/// session that has started runs to its end. Every core is kept awake
/// meanwhile (see [`KeepAwake`]).
fn drive(addr: SocketAddr, scripts: &[Vec<usize>], items: &[Item], seconds: f64) -> Phase {
    let _awake = KeepAwake::start();
    let next = AtomicUsize::new(0);
    let started = Instant::now();
    let deadline = started + Duration::from_secs_f64(seconds);
    let mut broken = Vec::new();
    let mut logs: Vec<SessionLog> = std::thread::scope(|scope| {
        let clients: Vec<_> = (0..CLIENTS)
            .map(|_| {
                scope.spawn(|| {
                    let mut logs = Vec::new();
                    let mut broken = Vec::new();
                    while Instant::now() < deadline {
                        let script = next.fetch_add(1, Ordering::Relaxed);
                        let Some(questions) = scripts.get(script) else { break };
                        match run_session(addr, script, questions, items) {
                            Ok(log) => logs.push(log),
                            Err(e) => broken.push(e),
                        }
                    }
                    (logs, broken)
                })
            })
            .collect();
        clients
            .into_iter()
            .flat_map(|c| {
                let (logs, b) = c.join().expect("client thread does not panic");
                broken.extend(b);
                logs
            })
            .collect()
    });
    let wall = started.elapsed().as_secs_f64();
    logs.sort_by_key(|l| l.script);
    Phase { logs, broken, wall }
}

fn is_ok(line: &str) -> bool {
    AskResponse::from_json(line).is_ok_and(|r| r.is_ok())
}

fn is_refusal(line: &str) -> bool {
    AskResponse::from_json(line).is_ok_and(|r| r.error_kind.as_deref() == Some("overloaded"))
}

/// Replays every logged session through `serve_line` on `engine` and
/// checks each socket response against it, normalised to the replay's
/// session id. Returns the number of differing lines.
fn replay_matches(
    engine: &ServeEngine,
    logs: &[SessionLog],
    items: &[Item],
    out: &mut Outcome,
) -> Result<u64, String> {
    let mut differing = 0;
    let mut compare =
        |socket: &str, replayed: &str, session: u64, out: &mut Outcome| -> Result<(), String> {
            if normalise(socket, session)? != replayed {
                differing += 1;
                if differing <= 3 {
                    out.problem(format!(
                        "socket answer {socket} differs from serve_line {replayed}"
                    ));
                }
            }
            Ok(())
        };
    for log in logs {
        let open = engine.serve_line(OPEN_LINE, false, "stdin", None).rendered;
        let session = opened_session(&open)?;
        compare(&log.open, &open, session, out)?;
        for (q, socket, _) in &log.asks {
            let replayed =
                engine.serve_line(&ask_line(session, &items[*q].text), false, "stdin", None);
            compare(socket, &replayed.rendered, session, out)?;
        }
        let close = engine.serve_line(&close_line(session), false, "stdin", None).rendered;
        compare(&log.close, &close, session, out)?;
    }
    Ok(differing)
}

pub fn run(dir: &Path, seconds: f64, out: &mut Outcome) -> Result<(), String> {
    let items = read_items(&dir.join(QUESTIONS))?;
    let scripts = read_sessions(&dir.join(SESSIONS))?;
    let snapshot = dir.join(SNAPSHOT);

    let mut setups = Vec::new();
    let mut server = None;
    for _ in 0..SETUP_REPS {
        if let Some(old) = server.take() {
            TcpServer::shutdown(old);
        }
        let (started, setup) = start(&snapshot)?;
        setups.push(setup);
        server = Some(started);
    }
    let server = server.expect("at least one set-up");

    let steal = StealMeter::start();
    let phase = drive(server.local_addr(), &scripts, &items, seconds);
    out.detail("cpu_steal_share", steal.finish());
    let (hits, misses, entries) = cache_counters(server.engine());
    let peak = peak_rss_mb();
    server.shutdown();

    // Every request gets one response, and none is refused or failed.
    let responses: Vec<&str> = phase
        .logs
        .iter()
        .flat_map(|l| std::iter::once(&l.open).chain(l.asks.iter().map(|a| &a.1)).chain([&l.close]))
        .map(String::as_str)
        .collect();
    let refused = responses.iter().filter(|r| is_refusal(r)).count() as u64;
    let failed = responses.iter().filter(|r| !is_ok(r)).count() as u64 + phase.broken.len() as u64;
    out.attempted = responses.len() as u64 + phase.broken.len() as u64;
    out.failed = failed;
    out.check(failed == 0, || {
        format!("{failed} requests failed or were refused: {:?}", phase.broken.first())
    });
    out.check(!phase.logs.is_empty(), || "no session completed".into());

    // Socket answers equal serve_line answers for the same lines.
    let replay = ServeEngine::from_snapshot(&snapshot, config()).map_err(|e| e.to_string())?;
    let differing = replay_matches(&replay, &phase.logs, &items, out)?;
    out.check(differing == 0, || format!("{differing} socket responses differ from serve_line"));
    drop(replay);

    // Accuracy over the catalog questions asked, from a cache-off
    // ask_query pass that must also agree with the socket answers.
    let mut seen = HashSet::new();
    let mut catalog: Vec<(&Item, &str)> = Vec::new();
    for log in &phase.logs {
        for (q, response, _) in &log.asks {
            if items[*q].expected.is_some() && seen.insert(*q) {
                catalog.push((&items[*q], response));
            }
        }
    }
    let texts: Vec<&str> = catalog.iter().map(|(i, _)| i.text.as_str()).collect();
    let reference = reference_answers(decode(&snapshot)?, RetrieverKind::Sieve, &texts);
    for ((item, response), (text, verdict, _)) in catalog.iter().zip(&reference) {
        let same = AskResponse::from_json(response).is_ok_and(|r| {
            r.answer.as_deref() == Some(text.as_str())
                && r.verdict.as_deref() == Some(verdict.as_str())
        });
        out.check(same, || format!("socket answer differs from ask_query for {:?}", item.text));
    }
    let asked: Vec<&Item> = catalog.iter().map(|(i, _)| *i).collect();
    let (points, possible, scored) = score_catalog(&asked, &reference);

    let rtts = sorted(&phase.logs.iter().flat_map(|l| l.rtts.iter().copied()).collect::<Vec<_>>());
    let tail = tail(&rtts).unwrap_or_default();
    out.metric("throughput_qps", (out.attempted - failed) as f64 / phase.wall);
    out.metric("latency_p50_us", median(&rtts).unwrap_or(0.0));
    out.metric("latency_p99_us", tail.value);
    out.metric(
        "success_pct",
        100.0 * (out.attempted - failed) as f64 / out.attempted.max(1) as f64,
    );
    out.metric("accuracy_pct", 100.0 * points / possible.max(1.0));
    out.metric("setup_s", median_of(&setups));
    out.metric("peak_rss_mb", peak);

    let asks: Vec<usize> = phase.logs.iter().flat_map(|l| l.asks.iter().map(|a| a.0)).collect();
    let distinct: HashSet<usize> = asks.iter().copied().collect();
    out.detail("sessions", phase.logs.len() as u64);
    out.detail("asks", asks.len() as u64);
    out.detail("wall_s", phase.wall);
    out.detail("latency_tail_percentile", tail.percentile);
    out.detail("latency_samples", tail.samples as u64);
    out.detail("setup_samples_s", Value::Array(setups.iter().map(|s| Value::from(*s)).collect()));
    out.detail(
        "first_reply_p50_us",
        median_of(&phase.logs.iter().map(|l| l.first_reply_us).collect::<Vec<_>>()),
    );
    out.detail("distinct_share", share(distinct.len() as u64, asks.len() as u64));
    out.detail("answer_cache_hit_share", share(hits, hits + misses));
    out.detail("answer_cache_entries", entries);
    out.detail("catalog_questions_scored", scored);
    out.detail("refused", refused);
    out.detail("error_share", share(failed, out.attempted));
    out.detail("category_mix", category_mix(asks.iter().map(|&q| items[q].kind.as_str())));
    Ok(())
}

/// The traced run: half the time on the socket (network-layer metrics),
/// half replaying the same sessions in process through `serve_line` and
/// the layer-by-layer pipeline on a fresh engine that sees the same
/// sequence of cache hits and misses.
pub fn run_traced(
    dir: &Path,
    seconds: f64,
    spans_path: Option<&Path>,
    out: &mut Outcome,
) -> Result<(), String> {
    let items = read_items(&dir.join(QUESTIONS))?;
    let scripts = read_sessions(&dir.join(SESSIONS))?;
    let snapshot = dir.join(SNAPSHOT);
    let unified = crate::qa::snapshot_layers(&snapshot, 5, out)?;
    out.metric(
        "retrieval.probe_success_pct",
        crate::qa::probe_success(&unified, RetrieverKind::Sieve),
    );

    let (server, _) = start(&snapshot)?;
    let phase = drive(server.local_addr(), &scripts, &items, seconds / 2.0);
    let (hits, misses, entries) = cache_counters(server.engine());
    server.shutdown();
    let responses =
        phase.logs.iter().flat_map(|l| std::iter::once(&l.open).chain(l.asks.iter().map(|a| &a.1)));
    let refused = responses.filter(|r| is_refusal(r)).count();
    out.metric("serve.net.connections", phase.logs.len() as f64 + phase.broken.len() as f64);
    out.metric("serve.net.refused", refused as f64);
    out.metric(
        "serve.net.first_reply_us",
        median_of(&phase.logs.iter().map(|l| l.first_reply_us).collect::<Vec<_>>()),
    );
    out.metric("core.answer_cache.hit_share", share(hits, hits + misses));
    out.metric("core.answer_cache.lookups", (hits + misses) as f64);
    out.metric("core.answer_cache.entries", entries as f64);
    out.check(phase.broken.is_empty(), || format!("sessions broke: {:?}", phase.broken.first()));

    let (engine, _) = crate::qa::start(&snapshot, &config())?;
    let recorder = Arc::new(Recorder::default());
    let mut pipeline =
        Pipeline::new(Arc::new(unified), RetrieverKind::Sieve, Arc::clone(&recorder));
    let deadline = Instant::now() + Duration::from_secs_f64(seconds / 2.0);
    let mut hit_requests = HashSet::new();
    let mut facts = Vec::new();
    let mut socket_rtts = Vec::new();
    let mut traced = 0u64;
    let mut mismatches = 0u64;
    let mut request = 0u64;
    for log in &phase.logs {
        if Instant::now() >= deadline {
            break;
        }
        let open = engine.serve_line(OPEN_LINE, false, "stdin", None).rendered;
        let session = opened_session(&open)?;
        for (q, socket, rtt) in &log.asks {
            request += 1;
            recorder.set_request(request);
            let line = ask_line(session, &items[*q].text);
            let _request = recorder.span("request");
            let (served, result) = if request.is_multiple_of(2) {
                let served =
                    recorder.time(SERVE_LINE, || engine.serve_line(&line, false, "stdin", None));
                (served, pipeline.ask(&line)?)
            } else {
                let result = pipeline.ask(&line)?;
                (
                    recorder.time(SERVE_LINE, || engine.serve_line(&line, false, "stdin", None)),
                    result,
                )
            };
            traced += 1;
            socket_rtts.push(*rtt);
            if result.cache_hit {
                hit_requests.insert(request);
            } else {
                facts.push(result.facts as f64);
            }
            let socket = normalise(socket, session)?;
            if result.rendered != served.rendered || socket != served.rendered {
                mismatches += 1;
                if mismatches <= 3 {
                    out.problem(format!(
                        "traced {} / socket {socket} / serve_line {} differ",
                        result.rendered, served.rendered
                    ));
                }
            }
        }
        engine.serve_line(&close_line(session), false, "stdin", None);
    }
    out.attempted = traced;
    out.failed = mismatches;
    let spans = recorder.spans();
    let serve_line_us = crate::trace::durations_us(&spans, SERVE_LINE);
    out.metric("serve.net.overhead_us", median_of(&socket_rtts) - median_of(&serve_line_us));
    crate::traced::ask_layers(&spans, &hit_requests, &facts, out);
    if let Some(path) = spans_path {
        crate::trace::write_jsonl(&spans, path).map_err(|e| e.to_string())?;
    }
    out.detail("sessions", phase.logs.len() as u64);
    Ok(())
}
