//! The plan-rewrite entry point, kept as a documented identity.
//!
//! [`Plan::run_scoped`] is the one executor for trace lookups, and the one
//! rewrite that ever measured faster — `Lookup` as a first-match scan —
//! lives inside its `Lookup` arm. Nothing is left to rewrite, so
//! [`optimize`] returns its input. It stays, with its signature, only
//! because the repository benchmark's traced pipeline (`perfbench/`)
//! calls it; it goes with the next change to that benchmark.

use cachemind_sim::scenario::ScenarioSelector;

use crate::plan::Plan;

/// Returns `plan` unchanged: every plan already runs on the one executor,
/// [`Plan::run_scoped`], under whatever selector it is run with.
#[must_use]
pub fn optimize(plan: Plan, _selector: &ScenarioSelector) -> Plan {
    plan
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plans() -> [Plan; 3] {
        [
            Plan::Lookup { workload: "mcf".into(), policy: "lru".into(), pc: None, address: None },
            Plan::CountRows {
                workload: "mcf".into(),
                policy: "lru".into(),
                pc: None,
                address: None,
                misses_only: true,
            },
            Plan::CompareAcrossWorkloads { policy: "lru".into() },
        ]
    }

    #[test]
    fn filtered_counts_and_tables_pass_through() {
        let sel = ScenarioSelector::parse("@table2").unwrap();
        let table = Plan::PerPcTable { workload: "mcf".into(), policy: "lru".into(), limit: 5 };
        for plan in plans().into_iter().chain([table]) {
            assert_eq!(optimize(plan.clone(), &sel), plan);
        }
    }

    #[test]
    fn optimize_is_idempotent() {
        let sel = ScenarioSelector::parse("@quick_demo").unwrap();
        for plan in plans() {
            let once = optimize(plan, &sel);
            assert_eq!(optimize(once.clone(), &sel), once);
        }
    }

    #[test]
    fn optimized_plans_run_byte_identically() {
        let db = cachemind_tracedb::TraceDatabaseBuilder::quick_demo().build();
        let sel = ScenarioSelector::all();
        for plan in plans() {
            let optimized = optimize(plan.clone(), &sel);
            assert_eq!(plan.run_scoped(&db, &sel), optimized.run_scoped(&db, &sel));
        }
    }
}
