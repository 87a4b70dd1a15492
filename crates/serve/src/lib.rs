//! # cachemind-serve
//!
//! The CacheMind serving subsystem: a multi-session front-end over one
//! shared, sharded trace database.
//!
//! * [`engine::ServeEngine`] — the session manager. Many concurrent
//!   [`ChatSession`](cachemind_core::chat::ChatSession)s share a single
//!   `Arc`'d [`ShardedTraceDatabase`](cachemind_tracedb::shard::ShardedTraceDatabase);
//!   every request — from stdin, TCP or the load driver — is one protocol
//!   line through [`ServeEngine::serve_line`].
//! * [`protocol`] — the newline-delimited JSON wire format
//!   ([`AskRequest`] / [`AskResponse`], plus the session-lifecycle
//!   [`Request::Close`]) with in-band errors and
//!   per-request timing. The full v1/v2 specification lives in
//!   `docs/PROTOCOL.md`.
//! * [`load`] — the synthetic load driver behind
//!   `cachemind-serve --load-driver`: replays N sessions × M questions and
//!   reports throughput and latency percentiles as JSON
//!   (`BENCH_serve.json`), in process or over a real TCP socket
//!   (`--tcp`), sending the same protocol lines either way.
//! * [`net`] — the TCP transport behind `cachemind-serve --tcp`: an
//!   acceptor thread, a bounded connection table with per-connection
//!   reader/writer threads, a bounded work queue feeding the
//!   `SERVE_NUM_THREADS` worker pool, in-band `overloaded` admission
//!   control, per-connection session ownership, and graceful shutdown.
//!
//! Determinism is the backbone: answers, transcripts and the aggregate
//! report are byte-identical for any worker count, which is what the
//! `serve determinism` integration tests and the CI smoke step diff.
//!
//! # Quickstart
//!
//! ```rust
//! use cachemind_serve::engine::{ServeConfig, ServeEngine};
//! use cachemind_serve::protocol::{AskRequest, AskResponse};
//! use cachemind_tracedb::TraceDatabaseBuilder;
//!
//! let db = TraceDatabaseBuilder::quick_demo().shards(3).try_build_sharded().unwrap();
//! let engine = ServeEngine::over(db, ServeConfig { threads: Some(2), ..Default::default() });
//! let line = AskRequest::new("What is the overall miss rate of the mcf workload under LRU?");
//! let outcome = engine.serve_line(&line.to_json(), false, "stdin", None);
//! assert_eq!(outcome.opened_session, Some(1), "a session-less ask opens a session");
//! let response = AskResponse::from_json(&outcome.rendered).unwrap();
//! assert!(response.is_ok());
//! ```

pub mod engine;
pub mod load;
pub mod net;
pub mod protocol;

pub use engine::{LineOutcome, ServeConfig, ServeEngine};
pub use load::{run_load_driver, LoadOutcome, LoadSpec, Transport};
pub use net::{NetConfig, SessionScope, TcpServer};
pub use protocol::{AskRequest, AskResponse, ProtocolError, Request};
