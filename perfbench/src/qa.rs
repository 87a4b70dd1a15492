//! `qa-grounded`: the paper's own question mix against a Small-scale
//! snapshot, answered in process through `ServeEngine::serve_line` with
//! the Ranger retriever by two closed-loop clients. Every question in a
//! run is distinct, so the answer cache is consulted but never hits and
//! retrieval carries almost all of the work.

use std::collections::{BTreeMap, HashSet};
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use cachemind_benchsuite::scoring::score;
use cachemind_core::system::{CacheMind, Query, RetrieverKind};
use cachemind_lang::generator::GeneratorAnswer;
use cachemind_obs::MetricsRegistry;
use cachemind_retrieval::probes::{probe_queries, run_probes};
use cachemind_retrieval::ranger::RangerRetriever;
use cachemind_retrieval::retriever::Retriever;
use cachemind_retrieval::sieve::SieveRetriever;
use cachemind_serve::engine::build_database;
use cachemind_serve::protocol::AskResponse;
use cachemind_serve::{ServeConfig, ServeEngine};
use cachemind_tracedb::snapshot::VerifiedSnapshot;
use cachemind_tracedb::store::TraceStore;
use cachemind_tracedb::TraceDatabase;
use cachemind_workloads::workload::Scale;
use serde_json::Value;

use crate::inputs::{qa_questions, read_items, write_items, Item};
use crate::pipeline::{ask_line, opened_session, Pipeline, OPEN_LINE, SERVE_LINE};
use crate::report::Outcome;
use crate::stats::{median_of, peak_rss_mb, share, sorted, tail, StealMeter};
use crate::trace::Recorder;

/// Closed-loop clients, one session each.
pub const CLIENTS: usize = 2;

/// Engine starts per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;

/// Seed-drawn trace questions written per run: more than two clients
/// answer in a run, so every question in a run is distinct.
const TRACE_QUESTIONS: usize = 20_000;

pub const SNAPSHOT: &str = "db.snap";
pub const QUESTIONS: &str = "questions.tsv";

/// The first answered request of a freshly started engine; its text is
/// not in any question stream.
pub const WARMUP: &str = "Warm-up: what is the overall miss rate of the mcf workload under LRU?";

pub fn config() -> ServeConfig {
    ServeConfig {
        retriever: RetrieverKind::Ranger,
        scale: Scale::Small,
        machines: vec!["table2".into(), "small".into()],
        threads: Some(CLIENTS),
        ..ServeConfig::default()
    }
}

/// Builds the database, writes the snapshot, draws the questions.
pub fn generate(dir: &Path, seed: u64) -> Result<(), String> {
    let db = build_database(&config()).map_err(|e| e.to_string())?;
    db.save(dir.join(SNAPSHOT)).map_err(|e| e.to_string())?;
    let unified = db.into_unified();
    write_items(&dir.join(QUESTIONS), &qa_questions(&unified, seed, TRACE_QUESTIONS))
        .map_err(|e| e.to_string())
}

/// Starts an engine and answers its first request: the set-up a user
/// waits through before the first answer (verify, lazy decode, answer).
pub fn start(snapshot: &Path, config: &ServeConfig) -> Result<(ServeEngine, f64), String> {
    let started = Instant::now();
    let engine = ServeEngine::from_snapshot(snapshot, config.clone()).map_err(|e| e.to_string())?;
    let warm = engine.serve_line(&ask_line_new(WARMUP), false, "stdin", None).rendered;
    let elapsed = started.elapsed().as_secs_f64();
    let response = AskResponse::from_json(&warm).map_err(|e| e.to_string())?;
    if !response.is_ok() {
        return Err(format!("warm-up request failed: {warm}"));
    }
    Ok((engine, elapsed))
}

fn ask_line_new(question: &str) -> String {
    cachemind_serve::protocol::AskRequest::new(question).to_json()
}

/// One answered request of the measured phase.
struct Answered {
    index: usize,
    micros: f64,
    rendered: String,
}

/// Two closed-loop clients, each with one session, take the next question
/// until the deadline; returns the answers and the phase's wall time.
fn drive(engine: &ServeEngine, items: &[Item], seconds: f64) -> (Vec<Answered>, f64, u64) {
    let next = AtomicUsize::new(0);
    let started = Instant::now();
    let deadline = started + Duration::from_secs_f64(seconds);
    let mut failures = 0;
    let mut answered: Vec<Answered> = std::thread::scope(|scope| {
        let clients: Vec<_> = (0..CLIENTS)
            .map(|_| {
                scope.spawn(|| {
                    let mut out = Vec::new();
                    let open = engine.serve_line(OPEN_LINE, false, "stdin", None).rendered;
                    let Ok(session) = opened_session(&open) else {
                        return (out, 1);
                    };
                    while Instant::now() < deadline {
                        let index = next.fetch_add(1, Ordering::Relaxed);
                        let Some(item) = items.get(index) else { break };
                        let line = ask_line(session, &item.text);
                        let t = Instant::now();
                        let rendered = engine.serve_line(&line, false, "stdin", None).rendered;
                        let micros = t.elapsed().as_secs_f64() * 1e6;
                        out.push(Answered { index, micros, rendered });
                    }
                    (out, 0)
                })
            })
            .collect();
        clients
            .into_iter()
            .flat_map(|c| {
                let (out, failed) = c.join().expect("client thread does not panic");
                failures += failed;
                out
            })
            .collect()
    });
    let wall = started.elapsed().as_secs_f64();
    answered.sort_by_key(|a| a.index);
    (answered, wall, failures)
}

/// Cache counters from an engine's stats: (hits, misses, entries).
pub fn cache_counters(engine: &ServeEngine) -> (u64, u64, u64) {
    let stats = engine.stats_value();
    let field = |name: &str| {
        stats.get("cache").and_then(|c| c.get(name)).and_then(Value::as_u64).unwrap_or(0)
    };
    (field("hits"), field("misses"), field("entries"))
}

/// Counts by question kind.
pub fn category_mix<'a>(kinds: impl Iterator<Item = &'a str>) -> Value {
    let mut counts: BTreeMap<&str, u64> = BTreeMap::new();
    for kind in kinds {
        *counts.entry(kind).or_default() += 1;
    }
    let mut value = Value::object();
    for (kind, count) in counts {
        value.insert(kind, Value::from(count));
    }
    value
}

/// The snapshot's database, decoded afresh for a reference pass.
pub fn decode(snapshot: &Path) -> Result<Arc<dyn TraceStore>, String> {
    let verified = VerifiedSnapshot::open(snapshot).map_err(|e| e.to_string())?;
    Ok(Arc::new(verified.decode().map_err(|e| e.to_string())?))
}

/// Answers `texts` on a cache-off `CacheMind` with `CLIENTS` threads:
/// the reference every served answer must equal. Returns (answer text,
/// rendered verdict, scoring view) per text.
pub fn reference_answers(
    store: Arc<dyn TraceStore>,
    kind: RetrieverKind,
    texts: &[&str],
) -> Vec<(String, String, GeneratorAnswer)> {
    let mind = CacheMind::shared(store).with_retriever(kind).with_metrics(&MetricsRegistry::new());
    let chunk = texts.len().div_ceil(CLIENTS).max(1);
    std::thread::scope(|scope| {
        let workers: Vec<_> = texts
            .chunks(chunk)
            .map(|part| {
                let mind = &mind;
                scope.spawn(move || {
                    part.iter()
                        .map(|text| {
                            let a = mind.ask_query(&Query::new(*text));
                            let verdict = format!("{:?}", a.verdict);
                            (
                                a.text.clone(),
                                verdict,
                                GeneratorAnswer { text: a.text, verdict: a.verdict },
                            )
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("reference worker does not panic"))
            .collect()
    })
}

/// Scores catalog items against their reference answers: (points,
/// possible, questions).
pub fn score_catalog(
    items: &[&Item],
    answers: &[(String, String, GeneratorAnswer)],
) -> (f64, f64, u64) {
    let mut points = 0.0;
    let mut possible = 0.0;
    let mut questions = 0;
    for (item, (_, _, answer)) in items.iter().zip(answers) {
        if let Some(question) = item.question() {
            points += score(&question, answer);
            possible += question.max_points();
            questions += 1;
        }
    }
    (points, possible, questions)
}

/// The untraced run: set-up, the measured phase, then the output checks.
pub fn run(dir: &Path, seconds: f64, out: &mut Outcome) -> Result<(), String> {
    let items = read_items(&dir.join(QUESTIONS))?;
    let snapshot = dir.join(SNAPSHOT);
    let config = config();

    let mut setups = Vec::new();
    let mut engine = None;
    for _ in 0..SETUP_REPS {
        drop(engine.take());
        let (started, setup) = start(&snapshot, &config)?;
        setups.push(setup);
        engine = Some(started);
    }
    let engine = engine.expect("at least one set-up");

    let steal = StealMeter::start();
    let (answered, wall, open_failures) = drive(&engine, &items, seconds);
    out.detail("cpu_steal_share", steal.finish());
    let (hits, misses, entries) = cache_counters(&engine);
    let peak = peak_rss_mb();
    drop(engine);

    // Output checks. Every request gets one response, and it is an answer.
    out.attempted = answered.len() as u64 + CLIENTS as u64;
    let mut failed = open_failures;
    let responses: Vec<Option<AskResponse>> = answered
        .iter()
        .map(|a| {
            AskResponse::from_json(&a.rendered).ok().filter(|r| r.is_ok() && r.answer.is_some())
        })
        .collect();
    failed += responses.iter().filter(|r| r.is_none()).count() as u64;
    out.failed = failed;
    out.check(failed == 0, || format!("{failed} requests failed"));
    out.check(!answered.is_empty(), || "no request was answered".into());

    // Served answers equal a cache-off CacheMind::ask_query pass.
    let asked: Vec<&Item> = answered.iter().map(|a| &items[a.index]).collect();
    let texts: Vec<&str> = asked.iter().map(|i| i.text.as_str()).collect();
    let reference = reference_answers(decode(&snapshot)?, RetrieverKind::Ranger, &texts);
    let mut mismatches = 0;
    for ((response, item), (text, verdict, _)) in responses.iter().zip(&asked).zip(&reference) {
        let same = response.as_ref().is_some_and(|r| {
            r.answer.as_deref() == Some(text.as_str())
                && r.verdict.as_deref() == Some(verdict.as_str())
        });
        if !same {
            mismatches += 1;
            if mismatches <= 3 {
                out.problem(format!("served answer differs from ask_query for {:?}", item.text));
            }
        }
    }
    out.check(mismatches == 0, || format!("{mismatches} served answers differ from ask_query"));

    let (points, possible, catalog) = score_catalog(&asked, &reference);
    let latencies = sorted(&answered.iter().map(|a| a.micros).collect::<Vec<_>>());
    let tail = tail(&latencies).unwrap_or_default();
    let ok = answered.len() as u64 - (failed - open_failures);
    out.metric("throughput_qps", ok as f64 / wall);
    out.metric("latency_p50_us", crate::stats::median(&latencies).unwrap_or(0.0));
    out.metric("latency_p99_us", tail.value);
    out.metric(
        "success_pct",
        100.0 * (out.attempted - failed) as f64 / out.attempted.max(1) as f64,
    );
    out.metric("accuracy_pct", 100.0 * points / possible.max(1.0));
    out.metric("setup_s", median_of(&setups));
    out.metric("peak_rss_mb", peak);

    let distinct: HashSet<&str> = texts.iter().copied().collect();
    out.detail("answered", answered.len() as u64);
    out.detail("wall_s", wall);
    out.detail("latency_tail_percentile", tail.percentile);
    out.detail("latency_samples", tail.samples as u64);
    out.detail("setup_samples_s", Value::Array(setups.iter().map(|s| Value::from(*s)).collect()));
    out.detail("distinct_share", share(distinct.len() as u64, texts.len() as u64));
    out.detail("answer_cache_hit_share", share(hits, hits + misses));
    out.detail("answer_cache_entries", entries);
    out.detail("catalog_questions_scored", catalog);
    out.detail("category_mix", category_mix(asked.iter().map(|i| i.kind.as_str())));
    out.detail("error_share", share(failed, out.attempted));
    Ok(())
}

/// Times `f` `reps` times and returns the median seconds and the last
/// result.
pub fn median_time<T>(
    reps: usize,
    mut f: impl FnMut() -> Result<T, String>,
) -> Result<(f64, T), String> {
    let mut times = Vec::new();
    let mut last = None;
    for _ in 0..reps {
        let t = Instant::now();
        last = Some(f()?);
        times.push(t.elapsed().as_secs_f64());
    }
    Ok((median_of(&times), last.expect("reps > 0")))
}

/// Snapshot layer metrics and the decoded, unified database the traced
/// pipeline and the retrieval probes run on.
pub fn snapshot_layers(
    snapshot: &Path,
    reps: usize,
    out: &mut Outcome,
) -> Result<TraceDatabase, String> {
    let (verify_s, verified) =
        median_time(reps, || VerifiedSnapshot::open(snapshot).map_err(|e| e.to_string()))?;
    let (decode_s, decoded) = median_time(reps, || verified.decode().map_err(|e| e.to_string()))?;
    out.metric("tracedb.snapshot.verify_s", verify_s);
    out.metric("tracedb.snapshot.decode_s", decode_s);
    out.metric(
        "tracedb.snapshot.bytes",
        std::fs::metadata(snapshot).map_err(|e| e.to_string())?.len() as f64,
    );
    Ok(decoded.into_unified())
}

/// Retrieval success over the probe set, in percent.
pub fn probe_success(db: &TraceDatabase, kind: RetrieverKind) -> f64 {
    let probes = probe_queries(db);
    let retriever: Box<dyn Retriever> = match kind {
        RetrieverKind::Ranger => Box::new(RangerRetriever::new()),
        _ => Box::new(SieveRetriever::new()),
    };
    100.0 * run_probes(db, &*retriever, &probes).success_rate()
}

/// The traced run: the same questions, each answered once through
/// `serve_line` and once through the layer-by-layer pipeline, whose
/// rendered answer must match byte for byte.
pub fn run_traced(
    dir: &Path,
    seconds: f64,
    spans_path: Option<&Path>,
    out: &mut Outcome,
) -> Result<(), String> {
    let items = read_items(&dir.join(QUESTIONS))?;
    let snapshot = dir.join(SNAPSHOT);
    let config = config();
    let unified = snapshot_layers(&snapshot, 3, out)?;
    out.metric("retrieval.probe_success_pct", probe_success(&unified, RetrieverKind::Ranger));

    let (engine, _) = start(&snapshot, &config)?;
    let session = opened_session(&engine.serve_line(OPEN_LINE, false, "stdin", None).rendered)?;
    let recorder = Arc::new(Recorder::default());
    let mut pipeline =
        Pipeline::new(Arc::new(unified), RetrieverKind::Ranger, Arc::clone(&recorder));

    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut hit_requests = HashSet::new();
    let mut facts = Vec::new();
    let mut traced = 0u64;
    let mut mismatches = 0u64;
    for (i, item) in items.iter().enumerate() {
        if Instant::now() >= deadline {
            break;
        }
        let request = i as u64;
        recorder.set_request(request);
        let line = ask_line(session, &item.text);
        let _request = recorder.span("request");
        // Alternate which call runs first, so neither always finds the
        // other's data warm in the CPU caches.
        let (served, result) = if i.is_multiple_of(2) {
            let served =
                recorder.time(SERVE_LINE, || engine.serve_line(&line, false, "stdin", None));
            (served, pipeline.ask(&line)?)
        } else {
            let result = pipeline.ask(&line)?;
            (recorder.time(SERVE_LINE, || engine.serve_line(&line, false, "stdin", None)), result)
        };
        pipeline.ranger_stages(&item.text);
        traced += 1;
        if result.cache_hit {
            hit_requests.insert(request);
        } else {
            facts.push(result.facts as f64);
        }
        if result.rendered != served.rendered {
            mismatches += 1;
            if mismatches <= 3 {
                out.problem(format!(
                    "traced answer differs from serve_line for {:?}: {} vs {}",
                    item.text, result.rendered, served.rendered
                ));
            }
        }
    }
    out.attempted = traced;
    out.failed = mismatches;
    out.check(traced > 0, || "no request was traced".into());

    let (hits, misses, entries) = cache_counters(&engine);
    out.metric("core.answer_cache.hit_share", share(hits, hits + misses));
    out.metric("core.answer_cache.lookups", (hits + misses) as f64);
    out.metric("core.answer_cache.entries", entries as f64);
    let spans = recorder.spans();
    crate::traced::ask_layers(&spans, &hit_requests, &facts, out);
    if let Some(path) = spans_path {
        crate::trace::write_jsonl(&spans, path).map_err(|e| e.to_string())?;
    }
    out.detail(
        "category_mix",
        category_mix(items.iter().take(traced as usize).map(|i| i.kind.as_str())),
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_share_counts_repeated_questions_as_hits() {
        let engine = ServeEngine::build(ServeConfig { threads: Some(1), ..ServeConfig::default() })
            .expect("tiny database builds");
        let session = opened_session(&engine.serve_line(OPEN_LINE, false, "stdin", None).rendered)
            .expect("session opens");
        let asks = [
            "How many times did PC 0x1 appear in astar under LRU?",
            "What is the overall miss rate of the mcf workload under LRU?",
        ];
        // Two new questions, then three repeats.
        for q in [asks[0], asks[1], asks[0], asks[0], asks[1]] {
            engine.serve_line(&ask_line(session, q), false, "stdin", None);
        }
        let (hits, misses, entries) = cache_counters(&engine);
        assert_eq!((hits, misses, entries), (3, 2, 2));
        assert_eq!(share(hits, hits + misses), 0.6);
    }
}
