//! The parallel sweep engine must be schedule-independent: the same grid
//! aggregated on one worker thread and on many must produce byte-identical
//! reports (table and JSON renderings both) — for a grid of LLC-only
//! machines *and* a grid of full machines × prefetchers.
//!
//! These tests drive thread count through `RAYON_NUM_THREADS`, which the
//! rayon shim re-reads per parallel stage. They run in one `#[test]` so the
//! env-var mutation cannot race a sibling test in this binary.

use cachemind_suite::policies::by_name;
use cachemind_suite::prelude::*;
use cachemind_suite::sim::prefetch::PrefetcherKind;
use cachemind_suite::sim::sweep::{ScenarioGrid, SweepStream};
use cachemind_suite::workloads::{self, Scale};

fn llc_only_grid() -> ScenarioGrid {
    let mut grid = ScenarioGrid::default()
        .policy("lru")
        .policy("srrip")
        .policy("ship")
        .policy("belady")
        .machine(MachineConfig::llc_only(CacheConfig::new("small", 4, 4, 6)))
        .machine(MachineConfig::llc_only(CacheConfig::new("tiny", 2, 2, 6)))
        .prefetcher(PrefetcherKind::None);
    for name in ["astar", "lbm", "mcf"] {
        let w = workloads::by_name(name, Scale::Tiny).expect("known workload");
        grid.streams.push(SweepStream::new(w.name, w.accesses).with_instr_count(w.instr_count));
    }
    grid
}

fn scenario_grid() -> ScenarioGrid {
    let mut grid = ScenarioGrid::default()
        .policy("lru")
        .policy("srrip")
        .machine(MachineConfig::preset("table2").expect("preset"))
        .machine(MachineConfig::preset("small").expect("preset"))
        .prefetcher(PrefetcherKind::None)
        .prefetcher(PrefetcherKind::Stride { degree: 4 });
    for name in ["lbm", "mcf"] {
        let w = workloads::by_name(name, Scale::Tiny).expect("known workload");
        grid.streams.push(SweepStream::new(w.name, w.accesses).with_instr_count(w.instr_count));
    }
    grid
}

fn run_with_threads(threads: &str) -> [String; 4] {
    std::env::set_var("RAYON_NUM_THREADS", threads);
    let llc_only = llc_only_grid().run(by_name).expect("LLC-only grid runs");
    let scenario = scenario_grid().run(by_name).expect("scenario grid runs");
    std::env::remove_var("RAYON_NUM_THREADS");
    [
        llc_only.to_table(),
        serde_json::to_string(&llc_only).expect("LLC-only report serializes"),
        scenario.to_table(),
        serde_json::to_string(&scenario).expect("scenario report serializes"),
    ]
}

#[test]
fn sweep_report_is_identical_across_thread_counts() {
    let reference = run_with_threads("1");
    for threads in ["2", "8", "13"] {
        let other = run_with_threads(threads);
        for (i, kind) in ["LLC-only table", "LLC-only JSON", "scenario table", "scenario JSON"]
            .iter()
            .enumerate()
        {
            assert_eq!(
                reference[i], other[i],
                "1-thread vs {threads}-thread {kind} reports differ"
            );
        }
    }

    // Sanity: the grids actually covered their full cross products.
    let llc_only = llc_only_grid().run(by_name).expect("LLC-only grid runs");
    assert_eq!(llc_only.cells.len(), 24); // 4 policies x 3 workloads x 2 machines
    assert!(reference[0].contains("belady"));
    assert!(reference[1].contains("\"policy_totals\""));

    let scenario = scenario_grid().run(by_name).expect("scenario grid runs");
    assert_eq!(scenario.cells.len(), 16); // 2 policies x 2 workloads x 2 machines x 2 prefetchers
    assert_eq!(scenario.machine_totals.len(), 2);
    assert_eq!(scenario.prefetcher_totals.len(), 2);
    assert!(scenario.cells.iter().all(|c| c.ipc > 0.0), "every scenario cell reports IPC");
    assert!(reference[3].contains("\"prefetcher_totals\""));
    assert!(reference[3].contains("\"machine_totals\""));
}
