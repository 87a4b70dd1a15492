//! The in-band telemetry contract, pinned end to end:
//!
//! * after a load-driver run, the engine's stats counters equal the
//!   driver's own open/question/error totals exactly — including the
//!   `serve.ask` latency histogram's sample count;
//! * a `{"stats": true}` line answers in-band with the versioned stats
//!   object, and never counts itself (the response after driving N
//!   requests reports exactly N);
//! * protocol failures land in per-`error_kind` counters that sum to
//!   `errors.total`;
//! * metrics stay out of the deterministic report: driving load with
//!   metrics on changes no deterministic byte.

use cachemind_serve::engine::{ServeConfig, ServeEngine};
use cachemind_serve::load::{run_load_driver, LoadOutcome, LoadSpec, Transport};
use cachemind_tracedb::TraceDatabaseBuilder;
use serde_json::Value;

fn engine(threads: usize) -> ServeEngine {
    let config = ServeConfig { threads: Some(threads), shards: 3, ..Default::default() };
    let db = TraceDatabaseBuilder::quick_demo()
        .shards(config.shards)
        .try_build_sharded()
        .expect("demo build");
    ServeEngine::over(db, config)
}

fn drive(engine: &ServeEngine, spec: LoadSpec) -> LoadOutcome {
    run_load_driver(engine, spec, Transport::InProcess).expect("in-process drive")
}

/// Serves one protocol line and returns the rendered response.
fn line(engine: &ServeEngine, line: &str) -> String {
    engine.serve_line(line, true, "stdin", None).rendered
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

#[test]
fn stats_counters_match_the_load_driver_totals() {
    let engine = engine(4);
    let spec = LoadSpec { sessions: 4, questions: 3, scenarios: vec![], repeat_period: 0 };
    let outcome = drive(&engine, spec);
    let driven = (outcome.answered() + outcome.errors()) as u64;
    assert_eq!(driven, 12, "4 sessions x 3 questions");

    let stats = engine.stats_value();
    assert_eq!(count(&stats, &["stats_version"]), 2);
    assert_eq!(count(&stats, &["requests", "ask"]), driven, "ask counter == driven questions");
    assert_eq!(count(&stats, &["requests", "open"]), 4, "one open line per session");
    assert_eq!(count(&stats, &["requests", "total"]), driven + 4, "nothing else was requested");
    assert_eq!(count(&stats, &["errors", "total"]), outcome.errors() as u64);
    assert_eq!(count(&stats, &["sessions", "opened"]), 4);
    assert_eq!(count(&stats, &["sessions", "open"]), 4, "driver leaves its sessions open");
    assert_eq!(count(&stats, &["sessions", "closed"]), 0);

    // The per-request latency histogram saw exactly one sample per driven
    // question, and its per-stage siblings were populated by the drive.
    let ask = field(&stats, &["metrics", "histograms", "serve.ask"]);
    assert_eq!(count(ask, &["count"]), driven, "one ask-latency sample per question");
    let parse = field(&stats, &["metrics", "histograms", "serve.parse"]);
    assert_eq!(count(parse, &["count"]), driven + 4, "every open and ask is a parsed line");
    let drive = field(&stats, &["metrics", "histograms", "serve.load_drive"]);
    assert_eq!(count(drive, &["count"]), 1, "one span for the whole drive");
    assert_eq!(count(&stats, &["metrics", "version"]), 1, "snapshot schema is versioned");
}

#[test]
fn stats_requests_answer_in_band_and_never_count_themselves() {
    let engine = engine(2);
    let response = line(
        &engine,
        "{\"question\": \"What is the overall miss rate of the mcf workload under LRU?\"}",
    );
    assert!(!response.contains("\"error\""), "{response}");

    // First stats response: 1 ask, 0 stats — the read does not count
    // itself.
    let first = serde_json::from_str(&line(&engine, "{\"stats\": true}"))
        .expect("stats lines are valid JSON");
    assert_eq!(count(&first, &["stats_version"]), 2, "a stats object, not an ask shape");
    assert_eq!(count(&first, &["requests", "ask"]), 1);
    assert_eq!(count(&first, &["requests", "stats"]), 0, "the response never counts itself");
    assert_eq!(count(&first, &["requests", "total"]), 1);

    // Second stats response sees the first one.
    let second = serde_json::from_str(&line(&engine, "{\"stats\": true}"))
        .expect("stats lines are valid JSON");
    assert_eq!(count(&second, &["requests", "stats"]), 1);
    assert_eq!(count(&second, &["requests", "total"]), 2);
}

#[test]
fn protocol_failures_land_in_per_kind_error_counters() {
    let engine = engine(2);
    // One malformed line, one structurally-bad request, two unknown
    // sessions through different paths.
    let garbage = line(&engine, "this is not json");
    assert!(garbage.contains("\"error\""), "{garbage}");
    let bad = line(&engine, "{\"stats\": false}");
    assert!(bad.contains("\"error\""), "{bad}");
    let _ = line(&engine, "{\"question\": \"hi\", \"session\": 999}");
    let _ = line(&engine, "{\"close\": true, \"session\": 998}");

    let stats = engine.stats_value();
    assert_eq!(count(&stats, &["errors", "by_kind", "invalid_json"]), 1);
    assert_eq!(count(&stats, &["errors", "by_kind", "bad_request"]), 1);
    assert_eq!(count(&stats, &["errors", "by_kind", "unknown_session"]), 2);
    assert_eq!(count(&stats, &["errors", "total"]), 4, "by_kind sums to the total");
    // The failed close still counted as a close request; the failed ask as
    // an ask. Parse failures never reach dispatch, so they count nowhere.
    assert_eq!(count(&stats, &["requests", "ask"]), 1);
    assert_eq!(count(&stats, &["requests", "close"]), 1);
    assert_eq!(count(&stats, &["requests", "total"]), 2);
}

#[test]
fn metrics_never_perturb_the_deterministic_report() {
    // Drive two identical loads — one on an engine whose metrics were
    // pre-warmed with extra traffic — and require byte-identical
    // deterministic reports: telemetry is a wall-clock side channel only.
    let spec = LoadSpec { sessions: 3, questions: 2, scenarios: vec![], repeat_period: 0 };
    let quiet = engine(2);
    let quiet_outcome = drive(&quiet, spec.clone());

    let noisy = engine(2);
    let _ = line(&noisy, "not json at all");
    let _ = line(&noisy, "{\"stats\": true}");
    let noisy_outcome = drive(&noisy, spec);
    // The warm-up asked nothing, so both drives see identical session ids
    // and identical questions.
    assert_eq!(
        quiet_outcome.render(&quiet, false),
        noisy_outcome.render(&noisy, false),
        "metrics traffic must not change a deterministic byte"
    );
    // But the full report carries the divergent metrics snapshot.
    let noisy_full = noisy_outcome.render(&noisy, true);
    assert!(noisy_full.contains("\"serve.errors.invalid_json\": 1"), "{noisy_full}");
}
