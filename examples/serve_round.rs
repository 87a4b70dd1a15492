//! Minimal serving-subsystem tour: build a sharded database, open two chat
//! sessions with protocol lines, ask each a question, and print the
//! transcripts.
//!
//! ```sh
//! cargo run --release --example serve_round
//! ```

use cachemind_suite::serve::engine::{ServeConfig, ServeEngine};
use cachemind_suite::serve::protocol::{AskRequest, AskResponse};
use cachemind_suite::tracedb::{TraceDatabaseBuilder, TraceStore};

/// Serves one protocol line, the way stdin and TCP clients reach the
/// engine, and parses the response line.
fn serve(engine: &ServeEngine, line: &str) -> AskResponse {
    let outcome = engine.serve_line(line, false, "stdin", None);
    AskResponse::from_json(&outcome.rendered).expect("ask-shaped response")
}

fn main() {
    let db = TraceDatabaseBuilder::quick_demo()
        .shards(3)
        .try_build_sharded()
        .expect("demo names are valid");
    println!("sharded database: {} traces across {} shards", db.len(), db.num_shards());

    let engine = ServeEngine::over(db, ServeConfig { threads: Some(2), ..Default::default() });
    let alice = serve(&engine, "{\"open\": true}").session;
    let bob = serve(&engine, "{\"open\": true}").session;

    let requests = [
        AskRequest::in_session(
            alice,
            "What is the overall miss rate of the mcf workload under LRU?",
        ),
        AskRequest::in_session(bob, "Which policy has the lowest miss rate in astar?"),
        AskRequest::in_session(alice, "List all unique PCs in the mcf trace under LRU."),
    ];
    for request in &requests {
        let response = serve(&engine, &request.to_json());
        println!("\nsession {} turn {}:", response.session, response.turn);
        println!("  {}", response.answer.as_deref().unwrap_or("<error>"));
    }

    println!("\n--- transcripts ---");
    for (name, id) in [("alice", alice), ("bob", bob)] {
        println!("{name} ({} turns):", engine.transcript(id).map(|t| t.len()).unwrap_or(0));
        for (q, _) in engine.transcript(id).unwrap_or_default() {
            println!("  Q: {q}");
        }
    }
}
