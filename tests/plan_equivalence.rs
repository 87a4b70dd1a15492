//! Reference harness for the plan executor (proptest).
//!
//! `Plan::run_scoped` computes its lookups its own way — `Lookup` stops at
//! the first matching row, and the four `Compare*` plans share one ranking
//! loop. These tests pin each of those against a reference that does not
//! go through that code:
//!
//! * `Lookup` against `TraceFrame::filter(..).first()` on the `get_scoped`
//!   entry;
//! * `CountRows` against `TraceFrame::count`;
//! * every ranking fact against the single-trace plan for the same
//!   `(workload, policy)` pair;
//! * `PerPcTable` rows against the statistical expert's per-PC miss order.
//!
//! The store is a small **multi-machine** database — baseline,
//! machine-qualified (`table2`, `small`) and prefetcher-qualified
//! (`stride4`) traces — so scope resolution meets every
//! entry-qualification shape, not just the unqualified demo store.
//!
//! Two layers:
//!
//! * a proptest sweep over randomly assembled plans × selectors (the
//!   random half explores filter/scope combinations no template hits);
//! * an exhaustive sweep of the lookup, count and ranking plans over every
//!   `(workload, policy, selector)` triple.

use std::sync::OnceLock;

use proptest::prelude::*;

use cachemind_suite::lang::context::Fact;
use cachemind_suite::prelude::*;
use cachemind_suite::retrieval::plan::PlanError;
use cachemind_suite::retrieval::Plan;
use cachemind_suite::serve::engine::{build_database, ServeConfig};
use cachemind_suite::tracedb::database::TraceId;
use cachemind_suite::tracedb::filter::Predicate;
use cachemind_suite::tracedb::meta;
use cachemind_suite::tracedb::stats::CacheStatisticalExpert;
use cachemind_suite::tracedb::store::TraceStore;

type PlanResult = Result<Vec<Fact>, PlanError>;

/// The shared multi-machine, multi-prefetcher store — built once; every
/// test case reads it immutably.
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

/// The selector palette: unscoped, machine-scoped, machine+prefetcher,
/// fully qualified, and a scope matching nothing (the empty-result edge).
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

/// A real `(pc, address)` from the named trace, so filtered plans can hit
/// rows; falls back to values that match nothing when the trace is absent.
fn row_from(workload: &str, policy: &str, index: usize) -> (Pc, Address) {
    match db().get(&format!("{workload}_evictions_{policy}")) {
        Some(entry) => {
            let rows = entry.frame.rows();
            let row = &rows[index % rows.len()];
            (row.pc, row.address)
        }
        None => (Pc::new(0xdead_beef), Address::new(0xdead_beef)),
    }
}

/// The `get_scoped` entry for a pair, or the error the executor reports.
fn scoped_entry(
    workload: &str,
    policy: &str,
    selector: &ScenarioSelector,
) -> Result<&'static TraceEntry, PlanError> {
    let id = TraceId::new(workload, policy);
    db().get_scoped(&id, selector).ok_or_else(|| PlanError::UnknownTrace(id.key()))
}

fn predicate(pc: Option<Pc>, address: Option<Address>, misses_only: bool) -> Predicate {
    let mut pred = Predicate::True;
    if let Some(pc) = pc {
        pred = pred.and(Predicate::PcEquals(pc));
    }
    if let Some(addr) = address {
        pred = pred.and(Predicate::AddressEquals(addr));
    }
    if misses_only {
        pred = pred.and(Predicate::IsMiss(true));
    }
    pred
}

/// `Lookup`'s reference: the first row of the filtered frame.
fn lookup_reference(
    workload: &str,
    policy: &str,
    pc: Option<Pc>,
    address: Option<Address>,
    selector: &ScenarioSelector,
) -> PlanResult {
    let entry = scoped_entry(workload, policy, selector)?;
    let rows = entry.frame.filter(&predicate(pc, address, false));
    let row = rows.first().ok_or(PlanError::EmptyResult)?;
    Ok(vec![Fact::Outcome {
        pc: Some(row.pc),
        address: Some(row.address),
        workload: workload.to_owned(),
        policy: policy.to_owned(),
        is_miss: row.is_miss,
        evicted: row.evicted_address.map(|e| (e, row.evicted_reuse_distance)),
        inserted_reuse: row.accessed_reuse_distance,
    }])
}

/// `CountRows`' reference: the frame's own predicate count.
fn count_reference(
    workload: &str,
    policy: &str,
    pred: &Predicate,
    selector: &ScenarioSelector,
) -> PlanResult {
    let entry = scoped_entry(workload, policy, selector)?;
    match entry.frame.count(pred) {
        0 => Err(PlanError::EmptyResult),
        n => Ok(vec![Fact::CountValue {
            what: format!("matching accesses in {workload}_{policy}"),
            value: n as u64,
            complete: true,
        }]),
    }
}

/// A ranking plan's reference: for each axis value in store order, the
/// single-trace plan for that pair (`single`), its value read back out of
/// the one fact it returns, and the metric name the ranking cites.
fn ranking_reference(
    axis: Vec<String>,
    pair: impl Fn(&str) -> (String, String),
    single: impl Fn(String, String) -> Plan,
    metric: impl Fn(&TraceEntry) -> String,
    selector: &ScenarioSelector,
) -> PlanResult {
    let mut facts = Vec::new();
    for name in axis {
        let (workload, policy) = pair(&name);
        let Ok(entry) = scoped_entry(&workload, &policy, selector) else { continue };
        let Ok(single_facts) = single(workload, policy).run_scoped(db(), selector) else {
            continue;
        };
        let value = match single_facts.as_slice() {
            [Fact::NumericValue { value, .. }] => *value,
            [Fact::MissRate { percent, .. }] => *percent,
            other => panic!("single-trace plan returned {other:?}"),
        };
        facts.push(Fact::PolicyValue { policy: name, metric: metric(entry), value });
    }
    if facts.is_empty() {
        Err(PlanError::EmptyResult)
    } else {
        Ok(facts)
    }
}

/// The reference result of `plan` under `selector`, computed without the
/// executor's own lookup code.
fn reference(plan: &Plan, selector: &ScenarioSelector) -> PlanResult {
    let suffix = |e: &TraceEntry| meta::scenario_citation_suffix(&e.metadata);
    match plan.clone() {
        Plan::Lookup { workload, policy, pc, address } => {
            lookup_reference(&workload, &policy, pc, address, selector)
        }
        Plan::CountRows { workload, policy, pc, address, misses_only } => {
            count_reference(&workload, &policy, &predicate(pc, address, misses_only), selector)
        }
        Plan::CompareIpcAcrossPolicies { workload } => ranking_reference(
            db().policies(),
            |p| (workload.clone(), p.to_owned()),
            |workload, policy| Plan::WorkloadIpc { workload, policy },
            |e| format!("estimated IPC{}", suffix(e)),
            selector,
        ),
        Plan::CompareIpcAcrossWorkloads { policy } => ranking_reference(
            db().workloads(),
            |w| (w.to_owned(), policy.clone()),
            |workload, policy| Plan::WorkloadIpc { workload, policy },
            |e| format!("estimated IPC under {policy}{}", suffix(e)),
            selector,
        ),
        Plan::CompareAcrossPolicies { workload, pc } => ranking_reference(
            db().policies(),
            |p| (workload.clone(), p.to_owned()),
            |workload, policy| match pc {
                Some(pc) => Plan::PcMissRate { workload, policy, pc },
                None => Plan::WorkloadMissRate { workload, policy },
            },
            |_| "miss rate %".to_owned(),
            selector,
        ),
        Plan::CompareAcrossWorkloads { policy } => ranking_reference(
            db().workloads(),
            |w| (w.to_owned(), policy.clone()),
            |workload, policy| Plan::WorkloadMissRate { workload, policy },
            |_| format!("miss rate % under {policy}"),
            selector,
        ),
        other => panic!("no reference for {other:?}"),
    }
}

/// Asserts that `plan` returns its reference result under `selector`,
/// structurally and byte for byte in its rendered form.
fn assert_matches_reference(plan: &Plan, selector: &ScenarioSelector) -> Result<(), TestCaseError> {
    let actual = plan.run_scoped(db(), selector);
    let expected = reference(plan, selector);
    prop_assert_eq!(
        &actual,
        &expected,
        "{:?} under {} diverged from its reference",
        plan,
        selector
    );
    prop_assert_eq!(
        format!("{actual:?}"),
        format!("{expected:?}"),
        "rendered facts diverged for {:?} under {}",
        plan,
        selector
    );
    Ok(())
}

/// `PerPcTable`'s reference: one row per PC in descending miss order,
/// truncated to the limit.
fn assert_per_pc_table(
    workload: &str,
    policy: &str,
    limit: usize,
    selector: &ScenarioSelector,
) -> Result<(), TestCaseError> {
    let plan = Plan::PerPcTable { workload: workload.to_owned(), policy: policy.to_owned(), limit };
    let actual = plan.run_scoped(db(), selector);
    let entry = match scoped_entry(workload, policy, selector) {
        Ok(entry) => entry,
        Err(err) => {
            prop_assert_eq!(actual, Err(err));
            return Ok(());
        }
    };
    let mut stats = CacheStatisticalExpert::new().per_pc(&entry.frame);
    stats.sort_by_key(|s| std::cmp::Reverse(s.misses));
    if limit > 0 {
        stats.truncate(limit);
    }
    let facts = actual.expect("a non-empty trace has a per-PC table");
    let [Fact::Snippet { text, .. }] = facts.as_slice() else {
        panic!("per-PC table is one snippet: {facts:?}")
    };
    let lines: Vec<&str> = text.lines().collect();
    prop_assert_eq!(lines.len(), stats.len());
    for (line, s) in lines.iter().zip(&stats) {
        let prefix = format!("{}: accesses={} misses={} ", s.pc, s.accesses, s.misses);
        prop_assert!(line.starts_with(&prefix), "{} does not start with {}", line, prefix);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Random plans × selectors return their reference results.
    #[test]
    fn random_plans_match_their_references(
        kind in 0usize..8,
        w in 0usize..16,
        p in 0usize..16,
        s in 0usize..6,
        filter in 0usize..4,
        row in 0usize..64,
    ) {
        let workloads = db().workloads();
        let policies = db().policies();
        let workload = workloads[w % workloads.len()].clone();
        let policy = policies[p % policies.len()].clone();
        let (pc, address) = row_from(&workload, &policy, row);
        let pc_filter = (filter % 2 == 1).then_some(pc);
        let address_filter = (filter >= 2).then_some(address);
        let selector = selectors()[s].clone();

        let plan = match kind {
            0 => Plan::Lookup {
                workload,
                policy,
                pc: pc_filter,
                address: address_filter,
            },
            1 => Plan::CountRows {
                workload,
                policy,
                pc: None,
                address: None,
                misses_only: false,
            },
            2 => Plan::CountRows {
                workload,
                policy,
                pc: pc_filter,
                address: address_filter,
                misses_only: filter % 2 == 0,
            },
            3 => Plan::CompareIpcAcrossPolicies { workload },
            4 => Plan::CompareIpcAcrossWorkloads { policy },
            5 => Plan::CompareAcrossPolicies { workload, pc: pc_filter },
            6 => Plan::CompareAcrossWorkloads { policy },
            _ => return assert_per_pc_table(&workload, &policy, row % 7, &selector),
        };
        assert_matches_reference(&plan, &selector)?;
    }
}

/// The lookup, count and ranking plans × every `(workload, policy,
/// selector)` triple — the deterministic floor under the random sweep.
#[test]
fn every_plan_matches_its_reference_across_the_whole_grid() {
    let workloads = db().workloads();
    let policies = db().policies();
    let mut checked = 0usize;
    for selector in selectors() {
        for workload in &workloads {
            for policy in &policies {
                let (pc, _) = row_from(workload, policy, 0);
                let plans = [
                    Plan::Lookup {
                        workload: workload.clone(),
                        policy: policy.clone(),
                        pc: None,
                        address: None,
                    },
                    Plan::Lookup {
                        workload: workload.clone(),
                        policy: policy.clone(),
                        pc: Some(pc),
                        address: None,
                    },
                    Plan::CountRows {
                        workload: workload.clone(),
                        policy: policy.clone(),
                        pc: None,
                        address: None,
                        misses_only: false,
                    },
                    Plan::CompareIpcAcrossPolicies { workload: workload.clone() },
                    Plan::CompareIpcAcrossWorkloads { policy: policy.clone() },
                    Plan::CompareAcrossPolicies { workload: workload.clone(), pc: None },
                    Plan::CompareAcrossPolicies { workload: workload.clone(), pc: Some(pc) },
                    Plan::CompareAcrossWorkloads { policy: policy.clone() },
                ];
                for plan in plans {
                    assert_matches_reference(&plan, &selector).unwrap();
                    checked += 1;
                }
            }
        }
    }
    assert!(checked >= 8 * 6, "the grid actually swept: {checked} cases");
}
