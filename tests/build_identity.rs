//! Build identity: the simulated trace database a serve configuration
//! describes must come out byte for byte the same, whichever engine stages
//! the grid and however many workers run it.
//!
//! The pinned configuration covers both machine kinds (the LLC-only
//! primary and the full `table2` / `small` machines), each with and without
//! a prefetcher, so a change to any per-cell stage — transform, prepare,
//! replay, IPC or prefetch accounting, metadata rendering — moves the hash.

use cachemind_suite::serve::engine::build_database;
use cachemind_suite::serve::ServeConfig;
use cachemind_suite::tracedb::snapshot::write_snapshot;
use cachemind_suite::tracedb::store::{fnv64, TraceStore};
use cachemind_suite::workloads::Scale;

#[test]
fn tiny_multi_scenario_build_is_pinned() {
    let config = ServeConfig {
        scale: Scale::Tiny,
        machines: vec!["table2".into(), "small".into()],
        prefetchers: vec!["stride4".into()],
        ..Default::default()
    };
    let db = build_database(&config).expect("known presets build");
    assert_eq!(db.len(), 72, "3 workloads x 4 policies x 3 machines x 2 prefetcher slots");
    let bytes = write_snapshot(&db);
    assert_eq!(bytes.len(), 16_979_560);
    assert_eq!(fnv64(&bytes), 0x4a86_ecbd_06a4_2fbf, "simulated build output changed");
}
