//! Retrieval identity: what the plan runtime and the two retrievers return
//! over the multi-machine store must come out byte for byte the same,
//! however the executor computes it.
//!
//! Two digests, each an `fnv64` over every case's rendered result:
//!
//! * every plan shape — all `Plan` variants, with and without PC/address
//!   filters — over every `(workload, policy)` pair and the six-selector
//!   palette: `Debug` of the facts (or error) plus `render_code()`;
//! * every catalog question under each palette selector, retrieved by
//!   Sieve and by Ranger: `Debug` of the facts plus the graded quality.

use std::fmt::Write as _;
use std::sync::OnceLock;

use cachemind_suite::benchsuite::Catalog;
use cachemind_suite::lang::QueryIntent;
use cachemind_suite::prelude::*;
use cachemind_suite::retrieval::{AggColumn, AggFunc, Plan, RangerRetriever, SieveRetriever};
use cachemind_suite::serve::engine::{build_database, ServeConfig};
use cachemind_suite::tracedb::store::{fnv64, TraceStore};

/// The multi-machine, multi-prefetcher store of `tests/plan_equivalence.rs`.
fn db() -> &'static cachemind_suite::tracedb::ShardedTraceDatabase {
    static DB: OnceLock<cachemind_suite::tracedb::ShardedTraceDatabase> = OnceLock::new();
    DB.get_or_init(|| {
        let config = ServeConfig {
            shards: 3,
            machines: vec!["table2".into(), "small".into()],
            prefetchers: vec!["stride4".into()],
            ..Default::default()
        };
        build_database(&config).expect("multi-machine demo build")
    })
}

/// Unscoped, machine, machine + prefetcher, fully qualified, and a scope
/// matching nothing.
fn selectors() -> Vec<ScenarioSelector> {
    ["", "@table2", "@small", "@table2+stride4", "mcf@small/lru", "@nonexistent_machine"]
        .iter()
        .map(|s| {
            if s.is_empty() {
                ScenarioSelector::all()
            } else {
                ScenarioSelector::parse(s).expect("palette selector parses")
            }
        })
        .collect()
}

/// A real `(pc, address)` from the named baseline trace.
fn row_from(workload: &str, policy: &str, index: usize) -> (Pc, Address) {
    let entry = db().get(&format!("{workload}_evictions_{policy}")).expect("baseline trace");
    let rows = entry.frame.rows();
    let row = &rows[index % rows.len()];
    (row.pc, row.address)
}

/// Every plan shape for one `(workload, policy)` pair. `foreign` is a PC
/// from another workload, so filtered plans also reach the empty result.
fn plans_for(workload: &str, policy: &str, foreign: Pc) -> Vec<Plan> {
    let (w, p) = (workload.to_owned(), policy.to_owned());
    let (pc, address) = row_from(workload, policy, 7);
    let (_, other_address) = row_from(workload, policy, 101);
    let mut plans = Vec::new();
    for (pc, address) in [
        (None, None),
        (Some(pc), None),
        (None, Some(address)),
        (Some(pc), Some(address)),
        (Some(pc), Some(other_address)),
        (Some(foreign), None),
    ] {
        plans.push(Plan::Lookup { workload: w.clone(), policy: p.clone(), pc, address });
        for misses_only in [false, true] {
            plans.push(Plan::CountRows {
                workload: w.clone(),
                policy: p.clone(),
                pc,
                address,
                misses_only,
            });
        }
    }
    for pc in [pc, foreign] {
        plans.push(Plan::PcMissRate { workload: w.clone(), policy: p.clone(), pc });
    }
    plans.push(Plan::WorkloadMissRate { workload: w.clone(), policy: p.clone() });
    plans.push(Plan::WorkloadIpc { workload: w.clone(), policy: p.clone() });
    plans.push(Plan::CompareIpcAcrossPolicies { workload: w.clone() });
    plans.push(Plan::CompareIpcAcrossWorkloads { policy: p.clone() });
    for pc in [None, Some(pc), Some(foreign)] {
        plans.push(Plan::CompareAcrossPolicies { workload: w.clone(), pc });
    }
    plans.push(Plan::CompareAcrossWorkloads { policy: p.clone() });
    let columns = [AggColumn::AccessedReuse, AggColumn::EvictedReuse, AggColumn::Recency];
    let funcs = [AggFunc::Mean, AggFunc::Sum, AggFunc::Max, AggFunc::Min, AggFunc::Std];
    for (i, func) in funcs.into_iter().enumerate() {
        for pc in [None, Some(pc)] {
            plans.push(Plan::Aggregate {
                workload: w.clone(),
                policy: p.clone(),
                pc,
                column: columns[i % columns.len()],
                func,
            });
        }
    }
    for limit in [0, 5] {
        plans.push(Plan::PerPcTable { workload: w.clone(), policy: p.clone(), limit });
    }
    plans.push(Plan::PerSetTable { workload: w.clone(), policy: p.clone() });
    for pc in [None, Some(pc), Some(foreign)] {
        plans.push(Plan::ContextBundle { workload: w.clone(), policy: p.clone(), pc });
    }
    plans.push(Plan::UniquePcs { workload: w.clone(), policy: p.clone() });
    plans.push(Plan::UniqueSets { workload: w.clone(), policy: p.clone() });
    plans.push(Plan::GroupPcsByReuseVariance { workload: w.clone(), policy: p.clone() });
    plans.push(Plan::HotColdSets { workload: w, policy: p });
    plans
}

#[test]
fn plan_results_are_pinned() {
    let workloads = db().workloads();
    let policies = db().policies();
    let mut out = String::new();
    let mut cases = 0usize;
    for selector in selectors() {
        for (wi, workload) in workloads.iter().enumerate() {
            let other = &workloads[(wi + 1) % workloads.len()];
            for policy in &policies {
                let (foreign, _) = row_from(other, policy, 3);
                for plan in plans_for(workload, policy, foreign) {
                    let result = plan.run_scoped(db(), &selector);
                    writeln!(out, "{selector}|{result:?}|{}", plan.render_code()).unwrap();
                    cases += 1;
                }
            }
        }
    }
    assert_eq!(cases, 3_456);
    assert_eq!(fnv64(out.as_bytes()), 0x6ca0_c22d_0316_a6d0, "plan results changed");
}

#[test]
fn retriever_contexts_are_pinned() {
    let catalog_db = TraceDatabaseBuilder::new().scale(Scale::Tiny).build();
    let catalog = Catalog::generate(&catalog_db);
    let workloads = db().workloads();
    let policies = db().policies();
    let workload_refs: Vec<&str> = workloads.iter().map(String::as_str).collect();
    let policy_refs: Vec<&str> = policies.iter().map(String::as_str).collect();
    let (sieve, ranger) = (SieveRetriever::new(), RangerRetriever::new());
    let (mut sieve_out, mut ranger_out) = (String::new(), String::new());
    let mut cases = 0usize;
    for selector in selectors() {
        for question in catalog.questions() {
            let intent =
                QueryIntent::parse_scoped(&question.text, &workload_refs, &policy_refs, &selector);
            let ctx = sieve.retrieve(db(), &intent);
            writeln!(sieve_out, "{selector}|{:?}|{:?}", ctx.facts, ctx.quality).unwrap();
            let ctx = ranger.retrieve(db(), &intent);
            writeln!(ranger_out, "{selector}|{:?}|{:?}", ctx.facts, ctx.quality).unwrap();
            cases += 1;
        }
    }
    assert_eq!(cases, 600);
    assert_eq!(fnv64(sieve_out.as_bytes()), 0xf10c_0878_07a4_3269, "Sieve contexts changed");
    assert_eq!(fnv64(ranger_out.as_bytes()), 0x3a66_ec4d_b94a_1584, "Ranger contexts changed");
}
