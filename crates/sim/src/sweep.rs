//! Parallel scenario sweeps: workload × machine × prefetcher × policy.
//!
//! The figure binaries, the paper's use cases (§6.3) and the trace-database
//! build all replay every workload under every policy for several machines
//! and prefetchers: `|workloads| × |machines| × |prefetchers| × |policies|`
//! independent replays. [`ScenarioGrid`] is the one engine that stages that
//! grid, on a [`MachineConfig`] each — the full hierarchy, or LLC-only for
//! bare geometry sweeps and the trace database's primary machine — in two
//! rayon stages:
//!
//! 1. one task per `(workload, machine, prefetcher)` triple transforms the
//!    stream through a [`Prefetcher`], runs the hierarchy filter
//!    (full-machine mode) and builds the [`LlcReplay`] (stream copy + reuse
//!    oracle) exactly once, as a [`PreparedScenario`] every policy shares;
//! 2. one task per `(triple, policy)` cell hands the prepared scenario and
//!    a fresh policy to a per-cell closure ([`ScenarioGrid::run_cells`]).
//!
//! [`ScenarioGrid::run`] is that entry with a closure that runs the
//! record-free [`LlcReplay::run_summary`] fast path and reduces it to a
//! [`ScenarioCell`] (miss taxonomy, prefetch accuracy/coverage,
//! [`IpcModel`]-derived IPC); the trace-database builder keeps each cell's
//! records instead. Both derive the prefetch and IPC columns through
//! [`PreparedScenario::cell_metrics`].
//!
//! **Determinism is a contract, not an accident.** Each cell's result
//! depends only on its own inputs, results come back in the grid's index
//! order, and [`ScenarioGrid::run`] sorts its cells by `(workload, machine,
//! prefetcher, policy)` before any reduction, so the report is
//! byte-identical whatever the worker count or finishing order. The
//! `sweep_determinism` integration test diffs the rendered reports across
//! `RAYON_NUM_THREADS` settings.
//!
//! The engine lives in `cachemind-sim` and therefore cannot name concrete
//! policies from `cachemind-policies`; callers supply a policy *factory*
//! (for example `cachemind_policies::by_name`).

use std::collections::HashSet;

use rayon::prelude::*;
use serde::{Deserialize, Serialize};

use crate::access::{AccessKind, MemoryAccess};
use crate::config::MachineConfig;
use crate::hierarchy::CacheHierarchy;
use crate::prefetch::{Prefetcher, PrefetcherKind};
use crate::replacement::ReplacementPolicy;
use crate::replay::{EvictionRecord, LlcReplay};
use crate::stats::CacheStats;
use crate::timing::IpcModel;

/// A named access stream to sweep over (typically one workload's demand
/// stream), with the dynamic instruction count the IPC model charges for.
#[derive(Debug, Clone)]
pub struct SweepStream {
    /// Stable workload name used as the aggregation key.
    pub name: String,
    /// The access stream.
    pub accesses: Vec<MemoryAccess>,
    /// Total dynamic instructions behind the stream (defaults to the
    /// stream length; real workloads override with their instruction
    /// count so per-cell IPC is meaningful).
    pub instr_count: u64,
}

impl SweepStream {
    /// Bundles a name and a stream; `instr_count` defaults to the stream
    /// length.
    pub fn new(name: impl Into<String>, accesses: Vec<MemoryAccess>) -> Self {
        let instr_count = accesses.len() as u64;
        SweepStream { name: name.into(), accesses, instr_count }
    }

    /// Sets the dynamic instruction count, returning `self` for chaining.
    pub fn with_instr_count(mut self, instr_count: u64) -> Self {
        self.instr_count = instr_count;
        self
    }
}

/// Order-preserving parallel map over independent sweep configurations —
/// the primitive behind both [`ScenarioGrid`] stages, exposed so the
/// figure binaries (`figure5_quality`, `figure6_fewshot`,
/// `ablation_sweeps`, ...) can spread their per-backend / per-parameter
/// replays across cores under the same determinism contract: each output
/// cell depends only on its own input, and results come back in input
/// order no matter how many worker threads ran them or in what order they
/// finished.
pub fn sweep_cells<T, O, F>(items: Vec<T>, f: F) -> Vec<O>
where
    T: Send,
    O: Send,
    F: Fn(T) -> O + Sync,
{
    items.into_par_iter().map(f).collect()
}

/// The policy-independent half of one scenario cell — stage 1 of the
/// scenario pipeline: the prepared [`LlcReplay`] (stream copy + reuse
/// oracle) and, for full machines, the baseline hierarchy counters the
/// [`IpcModel`] reads.
#[derive(Debug)]
pub struct PreparedScenario {
    /// The LLC replay every policy in the cell reruns.
    pub replay: LlcReplay,
    /// Baseline hierarchy counters (full-machine mode only), with the
    /// captured LLC stream already drained into the replay.
    pub hierarchy: Option<crate::hierarchy::HierarchyReport>,
}

/// The derived columns of one replayed cell — prefetch usefulness and the
/// model-estimated IPC — shared by [`ScenarioCell`] and the trace
/// database's entries (see [`PreparedScenario::cell_metrics`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CellMetrics {
    /// Demand (load/store/fetch) misses of the replay — what the IPC model
    /// charges DRAM latency for.
    pub demand_misses: u64,
    /// Prefetch accesses that actually filled a line.
    pub prefetch_fills: u64,
    /// Demand accesses served from a line a prefetch brought in.
    pub useful_prefetches: u64,
    /// `useful_prefetches / prefetch_fills` (0 when nothing was fetched).
    pub prefetch_accuracy: f64,
    /// `useful_prefetches / (useful_prefetches + demand_misses)` — the
    /// fraction of would-be misses the prefetcher covered.
    pub prefetch_coverage: f64,
    /// Model-estimated IPC.
    pub ipc: f64,
}

impl PreparedScenario {
    /// Derives the [`CellMetrics`] of one policy's replay of this scenario
    /// on `machine`, from the replay's counters.
    ///
    /// IPC: full machines charge the hierarchy counters; LLC-only machines
    /// charge demand accesses the LLC hit latency and demand misses DRAM,
    /// and let prefetches run without stalling the core.
    ///
    /// Prefetch usefulness: `llc_prefetches` is `None` for a cell that
    /// reports no prefetch activity. Otherwise full machines take the
    /// hierarchy's counters, because a useful prefetch is typically
    /// consumed by an L1 hit the LLC replay never sees, and LLC-only
    /// machines call `llc_prefetches` for the replay's own
    /// `(fills, useful)` count.
    pub fn cell_metrics(
        &self,
        machine: &MachineConfig,
        stats: &CacheStats,
        instr_count: u64,
        mlp_override: Option<f64>,
        llc_prefetches: Option<impl FnOnce() -> (u64, u64)>,
    ) -> CellMetrics {
        let mut model = IpcModel::from_config(&machine.hierarchy);
        if let Some(mlp) = mlp_override {
            model = model.with_mlp(mlp);
        }
        let demand_misses = stats.demand_misses;
        let ipc = match &self.hierarchy {
            Some(hreport) => model.ipc(hreport, demand_misses),
            None => {
                let demand_accesses = stats.accesses - stats.prefetches;
                let demand_hits = demand_accesses.saturating_sub(demand_misses);
                model.ipc_from_llc(instr_count, demand_hits, demand_misses)
            }
        };
        let (prefetch_fills, useful_prefetches) = match (&self.hierarchy, llc_prefetches) {
            (_, None) => (0, 0),
            (Some(hreport), Some(_)) => (hreport.prefetch_fills, hreport.useful_prefetches),
            (None, Some(llc_prefetches)) => llc_prefetches(),
        };
        let prefetch_accuracy = if prefetch_fills == 0 {
            0.0
        } else {
            useful_prefetches as f64 / prefetch_fills as f64
        };
        let covered = useful_prefetches + demand_misses;
        let prefetch_coverage =
            if covered == 0 { 0.0 } else { useful_prefetches as f64 / covered as f64 };
        CellMetrics {
            demand_misses,
            prefetch_fills,
            useful_prefetches,
            prefetch_accuracy,
            prefetch_coverage,
            ipc,
        }
    }
}

/// Stage 1a of the scenario pipeline: rewrites a demand stream through a
/// hardware prefetcher. Returns `None` for [`PrefetcherKind::None`] so
/// callers can borrow the original stream instead of cloning it — the
/// transform depends only on `(stream, prefetcher)`, so every machine
/// replaying the pair can share one rewritten copy.
pub fn transform_stream(
    kind: PrefetcherKind,
    accesses: &[MemoryAccess],
) -> Option<Vec<MemoryAccess>> {
    match kind {
        PrefetcherKind::None => None,
        kind => Some(Prefetcher::new(kind).transform(accesses)),
    }
}

/// Stage 1b of the scenario pipeline: prepares the policy-independent half
/// of a replay on one machine. LLC-only machines replay the (possibly
/// prefetcher-transformed) stream directly against their LLC geometry; full
/// machines filter it through L1/L2 first via [`CacheHierarchy`] and keep
/// the baseline counters the IPC model charges.
pub fn prepare_scenario(
    machine: &MachineConfig,
    accesses: &[MemoryAccess],
    instr_count: u64,
) -> PreparedScenario {
    if machine.llc_only {
        PreparedScenario {
            replay: LlcReplay::new(machine.hierarchy.llc.clone(), accesses),
            hierarchy: None,
        }
    } else {
        let mut hierarchy = CacheHierarchy::new(machine.hierarchy.clone());
        let mut report = hierarchy.run(accesses, instr_count);
        let llc_stream = std::mem::take(&mut report.llc_stream);
        PreparedScenario {
            replay: LlcReplay::from_stream(machine.hierarchy.llc.clone(), llc_stream),
            hierarchy: Some(report),
        }
    }
}

/// One `(workload, machine, prefetcher, policy)` cell of a running grid,
/// as [`ScenarioGrid::run_cells`] hands it to the per-cell closure.
#[derive(Debug, Clone, Copy)]
pub struct GridCell<'g> {
    /// The cell's workload stream (before any prefetcher transform).
    pub stream: &'g SweepStream,
    /// Position of `stream` in [`ScenarioGrid::streams`].
    pub stream_index: usize,
    /// The machine the cell replays on.
    pub machine: &'g MachineConfig,
    /// Position of `machine` in [`ScenarioGrid::machines`].
    pub machine_index: usize,
    /// The prefetcher that rewrote the stream.
    pub prefetcher: PrefetcherKind,
    /// The policy name; the closure receives the policy itself.
    pub policy: &'g str,
    /// The triple's stage-1 output, shared by every policy replaying it.
    pub scenario: &'g PreparedScenario,
}

/// Errors surfaced by [`ScenarioGrid::run`] and [`ScenarioGrid::run_cells`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SweepError {
    /// The policy factory returned `None` for a requested policy name.
    UnknownPolicy(String),
    /// The grid had an empty axis (no policies, streams, machines or
    /// prefetchers).
    EmptyGrid,
    /// A policy name, stream name, machine label or prefetcher label
    /// appears more than once; each axis must uniquely key its cells or
    /// cells would be silently duplicated and totals double-counted.
    DuplicateKey(String),
}

impl std::fmt::Display for SweepError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SweepError::UnknownPolicy(name) => write!(f, "unknown policy {name:?}"),
            SweepError::EmptyGrid => write!(f, "sweep grid has an empty axis"),
            SweepError::DuplicateKey(key) => write!(f, "duplicate grid key {key:?}"),
        }
    }
}

impl std::error::Error for SweepError {}

/// One `(workload, machine, prefetcher, policy)` cell of the scenario
/// grid, reduced to its aggregate counters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenarioCell {
    /// Workload (stream) name.
    pub workload: String,
    /// Machine label (see [`MachineConfig::machine_label`]).
    pub machine: String,
    /// Prefetcher label (see [`PrefetcherKind::label`]).
    pub prefetcher: String,
    /// Policy name.
    pub policy: String,
    /// LLC accesses replayed (demand + prefetch).
    pub accesses: u64,
    /// Total hits.
    pub hits: u64,
    /// Total misses.
    pub misses: u64,
    /// Miss rate over the replayed LLC stream.
    pub miss_rate: f64,
    /// Demand (load/store/fetch) misses only — what the IPC model charges
    /// DRAM latency for.
    pub demand_misses: u64,
    /// Compulsory misses.
    pub compulsory_misses: u64,
    /// Capacity misses.
    pub capacity_misses: u64,
    /// Conflict misses.
    pub conflict_misses: u64,
    /// Evictions whose victim was needed sooner than the inserted line.
    pub wrong_evictions: u64,
    /// Total evictions.
    pub evictions: u64,
    /// Prefetch accesses that reached the LLC replay.
    pub prefetches: u64,
    /// Prefetch accesses that actually filled a line: prefetch misses in
    /// the LLC replay (LLC-only machines) or anywhere in the hierarchy
    /// (full machines).
    pub prefetch_fills: u64,
    /// Demand accesses served from a line a prefetch brought in, at the
    /// level the demand found it.
    pub useful_prefetches: u64,
    /// `useful_prefetches / prefetch_fills` (0 when nothing was fetched).
    pub prefetch_accuracy: f64,
    /// `useful_prefetches / (useful_prefetches + demand_misses)` — the
    /// fraction of would-be misses the prefetcher covered.
    pub prefetch_coverage: f64,
    /// Dynamic instructions charged by the IPC model.
    pub instr_count: u64,
    /// Model-estimated IPC for this cell.
    pub ipc: f64,
}

impl ScenarioCell {
    /// Hit rate over the replayed LLC stream (zero when nothing replayed).
    pub fn hit_rate(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.hits as f64 / self.accesses as f64
        }
    }
}

/// Aggregate counters for one value of a scenario axis (policy,
/// prefetcher or machine) across the whole grid.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AxisTotal {
    /// The axis value (policy name, prefetcher label or machine label).
    pub key: String,
    /// Cells aggregated.
    pub cells: u64,
    /// Total accesses.
    pub accesses: u64,
    /// Total hits.
    pub hits: u64,
    /// Total misses.
    pub misses: u64,
    /// Miss rate over all aggregated accesses.
    pub miss_rate: f64,
    /// Total wrong evictions.
    pub wrong_evictions: u64,
    /// Unweighted mean of the per-cell IPC estimates.
    pub mean_ipc: f64,
}

/// A completed scenario sweep: cells in canonical `(workload, machine,
/// prefetcher, policy)` order plus per-axis roll-ups.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenarioReport {
    /// Every grid cell, canonically sorted.
    pub cells: Vec<ScenarioCell>,
    /// Per-policy roll-up, sorted by policy name.
    pub policy_totals: Vec<AxisTotal>,
    /// Per-prefetcher roll-up, sorted by prefetcher label.
    pub prefetcher_totals: Vec<AxisTotal>,
    /// Per-machine roll-up, sorted by machine label.
    pub machine_totals: Vec<AxisTotal>,
}

/// The scenario grid specification: every policy replays every stream
/// under every machine and prefetcher.
#[derive(Debug, Clone, Default)]
pub struct ScenarioGrid {
    /// Policy names, resolved through the caller's factory.
    pub policies: Vec<String>,
    /// Workload streams.
    pub streams: Vec<SweepStream>,
    /// Machine configurations.
    pub machines: Vec<MachineConfig>,
    /// Prefetcher kinds.
    pub prefetchers: Vec<PrefetcherKind>,
    /// Optional memory-level-parallelism override applied to every cell's
    /// IPC model (pointer-chasing studies use 1.0).
    pub mlp_override: Option<f64>,
}

/// Walks a replay's records and counts prefetch usefulness, returning
/// `(fills, useful)`: a prefetch *fill* (prefetch miss) marks its line
/// pending; a demand hit on a pending line is a *useful* prefetch; eviction
/// or a demand miss clears the line. This is the LLC-only counterpart of
/// the hierarchy's own usefulness counters (full machines consume useful
/// prefetches at L1, which an LLC replay never sees); the trace-database
/// builder reuses it to annotate prefetcher-qualified entries.
pub fn prefetch_usefulness(records: &[EvictionRecord], line_bits: u32) -> (u64, u64) {
    let mut pending: HashSet<u64> = HashSet::new();
    let mut fills = 0u64;
    let mut useful = 0u64;
    for r in records {
        if let Some(evicted) = r.evicted_address {
            pending.remove(&(evicted.value() >> line_bits));
        }
        let line = r.address.value() >> line_bits;
        if r.kind == AccessKind::Prefetch {
            if r.is_miss && !r.bypassed {
                fills += 1;
                pending.insert(line);
            }
        } else if !r.is_miss && pending.remove(&line) {
            useful += 1;
        } else {
            pending.remove(&line);
        }
    }
    (fills, useful)
}

fn axis_totals<'c, K>(cells: &'c [ScenarioCell], key: K) -> Vec<AxisTotal>
where
    K: Fn(&'c ScenarioCell) -> &'c str,
{
    let mut keys: Vec<&str> = cells.iter().map(&key).collect();
    keys.sort_unstable();
    keys.dedup();
    keys.into_iter()
        .map(|k| {
            let mut total = AxisTotal {
                key: k.to_owned(),
                cells: 0,
                accesses: 0,
                hits: 0,
                misses: 0,
                miss_rate: 0.0,
                wrong_evictions: 0,
                mean_ipc: 0.0,
            };
            let mut ipc_sum = 0.0;
            for cell in cells.iter().filter(|c| key(c) == k) {
                total.cells += 1;
                total.accesses += cell.accesses;
                total.hits += cell.hits;
                total.misses += cell.misses;
                total.wrong_evictions += cell.wrong_evictions;
                ipc_sum += cell.ipc;
            }
            if total.accesses > 0 {
                total.miss_rate = total.misses as f64 / total.accesses as f64;
            }
            if total.cells > 0 {
                total.mean_ipc = ipc_sum / total.cells as f64;
            }
            total
        })
        .collect()
}

impl ScenarioGrid {
    /// Builder-style: adds a policy name.
    pub fn policy(mut self, name: impl Into<String>) -> Self {
        self.policies.push(name.into());
        self
    }

    /// Builder-style: adds a stream.
    pub fn stream(mut self, stream: SweepStream) -> Self {
        self.streams.push(stream);
        self
    }

    /// Builder-style: adds a machine.
    pub fn machine(mut self, machine: MachineConfig) -> Self {
        self.machines.push(machine);
        self
    }

    /// Builder-style: adds a prefetcher kind.
    pub fn prefetcher(mut self, kind: PrefetcherKind) -> Self {
        self.prefetchers.push(kind);
        self
    }

    /// Overrides the IPC model's effective memory-level parallelism for
    /// every cell (pointer-chasing studies use 1.0).
    pub fn with_mlp(mut self, mlp: f64) -> Self {
        self.mlp_override = Some(mlp);
        self
    }

    /// Number of grid cells.
    pub fn cells(&self) -> usize {
        self.policies.len() * self.streams.len() * self.machines.len() * self.prefetchers.len()
    }

    fn validate<F>(&self, make_policy: &F) -> Result<(), SweepError>
    where
        F: Fn(&str) -> Option<Box<dyn ReplacementPolicy>> + Sync,
    {
        if self.cells() == 0 {
            return Err(SweepError::EmptyGrid);
        }
        // Fail fast (and deterministically) on unresolvable policy names
        // instead of panicking from a worker mid-sweep.
        for name in &self.policies {
            if make_policy(name).is_none() {
                return Err(SweepError::UnknownPolicy(name.clone()));
            }
        }
        // Every grid axis must be duplicate-free, or cells lose their
        // unique (workload, machine, prefetcher, policy) key and totals
        // double-count.
        let mut seen = HashSet::new();
        let axes = self
            .policies
            .iter()
            .cloned()
            .chain(self.streams.iter().map(|s| format!("stream:{}", s.name)))
            .chain(self.machines.iter().map(|m| format!("machine:{}", m.machine_label())))
            .chain(self.prefetchers.iter().map(|p| format!("prefetcher:{}", p.label())));
        for key in axes {
            if !seen.insert(key.clone()) {
                return Err(SweepError::DuplicateKey(key));
            }
        }
        Ok(())
    }

    /// Stage 1 of the scenario pipeline: transforms each `(stream,
    /// prefetcher)` pair once (1a) and prepares each `(stream, machine,
    /// prefetcher)` triple once (1b). Exactly
    /// `streams × machines × prefetchers` prepare tasks run, regardless of
    /// how many policies will replay each triple; the result is indexed
    /// `(s × machines + m) × prefetchers + p`.
    fn prepare_stage(&self) -> Vec<PreparedScenario> {
        // Stage 1a ([`transform_stream`]): one task per (stream,
        // prefetcher) pair — the transform depends only on those two axes,
        // so every machine replaying the pair shares one transformed stream
        // instead of rebuilding its own copy. `None` borrows the original
        // stream rather than cloning it.
        let pairs: Vec<(usize, usize)> = (0..self.streams.len())
            .flat_map(|s| (0..self.prefetchers.len()).map(move |p| (s, p)))
            .collect();
        let transformed_streams: Vec<Option<Vec<MemoryAccess>>> = sweep_cells(pairs, |(s, p)| {
            transform_stream(self.prefetchers[p], &self.streams[s].accesses)
        });

        // Stage 1b ([`prepare_scenario`]): one task per (stream, machine,
        // prefetcher) triple — hierarchy filter (full-machine mode) and the
        // replay's reuse oracle are the expensive, policy-independent
        // parts, shared by every policy replaying the triple.
        let triples: Vec<(usize, usize, usize)> = (0..self.streams.len())
            .flat_map(|s| {
                (0..self.machines.len())
                    .flat_map(move |m| (0..self.prefetchers.len()).map(move |p| (s, m, p)))
            })
            .collect();
        sweep_cells(triples, |(s, m, p)| {
            let stream = &self.streams[s];
            let transformed: &[MemoryAccess] =
                match &transformed_streams[s * self.prefetchers.len() + p] {
                    Some(rewritten) => rewritten,
                    None => &stream.accesses,
                };
            prepare_scenario(&self.machines[m], transformed, stream.instr_count)
        })
    }

    /// Runs the grid in parallel and maps every cell through `cell`.
    ///
    /// Validates the grid, runs stage 1 once per `(stream, machine,
    /// prefetcher)` triple, then calls `cell` once per `(triple, policy)`
    /// with the prepared scenario and a fresh policy from `make_policy`.
    /// `make_policy` and `cell` run on the worker thread that replays the
    /// cell, so policies need not be `Send`/`Sync` themselves — only the
    /// factory and the closure must be shareable. Results come back in the
    /// grid's index order (stream, then machine, prefetcher, policy)
    /// whatever the worker count.
    pub fn run_cells<F, C, T>(&self, make_policy: F, cell: C) -> Result<Vec<T>, SweepError>
    where
        F: Fn(&str) -> Option<Box<dyn ReplacementPolicy>> + Sync,
        C: Fn(GridCell<'_>, Box<dyn ReplacementPolicy>) -> T + Sync,
        T: Send,
    {
        self.validate(&make_policy)?;

        // Stage timings feed the process-global telemetry registry only —
        // wall-clock side channels the bench bins report; nothing below
        // reads them back.
        let prepare_span = cachemind_obs::global().span(cachemind_obs::names::SWEEP_PREPARE);
        let prepared = self.prepare_stage();
        prepare_span.finish();
        // Every cell beyond the first per triple reuses a prepared
        // scenario instead of re-preparing it; the count is a deterministic
        // function of the grid shape.
        cachemind_obs::global()
            .counter(cachemind_obs::names::SWEEP_PREPARE_REUSE)
            .add((self.cells() - prepared.len()) as u64);
        let replay_span = cachemind_obs::global().span(cachemind_obs::names::SWEEP_REPLAY);

        // Stage 2: one task per (triple, policy) cell.
        let (machines, prefetchers) = (self.machines.len(), self.prefetchers.len());
        let cell_inputs: Vec<(usize, usize)> = (0..prepared.len())
            .flat_map(|t| (0..self.policies.len()).map(move |p| (t, p)))
            .collect();
        let results = sweep_cells(cell_inputs, |(t, p)| {
            let cell_span = cachemind_obs::global().span(cachemind_obs::names::SWEEP_CELL_REPLAY);
            // Triple `t` is `(s × machines + m) × prefetchers + f`.
            let (s, m, f) =
                (t / prefetchers / machines, t / prefetchers % machines, t % prefetchers);
            let policy = &self.policies[p];
            let grid_cell = GridCell {
                stream: &self.streams[s],
                stream_index: s,
                machine: &self.machines[m],
                machine_index: m,
                prefetcher: self.prefetchers[f],
                policy,
                scenario: &prepared[t],
            };
            let out =
                cell(grid_cell, make_policy(policy).expect("policy resolved during validation"));
            cell_span.finish();
            out
        });
        replay_span.finish();
        Ok(results)
    }

    /// Runs the full grid in parallel and reduces it to a
    /// [`ScenarioReport`]: each cell takes the record-free
    /// [`LlcReplay::run_summary`] fast path, and the cells are sorted into
    /// canonical `(workload, machine, prefetcher, policy)` order before the
    /// axis roll-ups.
    pub fn run<F>(&self, make_policy: F) -> Result<ScenarioReport, SweepError>
    where
        F: Fn(&str) -> Option<Box<dyn ReplacementPolicy>> + Sync,
    {
        let mut cells = self.run_cells(make_policy, |cell, policy| {
            let summary = cell.scenario.replay.run_summary(policy);
            // The replay's streaming usefulness counters equal
            // `prefetch_usefulness` over the records it never materialises.
            let metrics = cell.scenario.cell_metrics(
                cell.machine,
                &summary.stats,
                cell.stream.instr_count,
                self.mlp_override,
                Some(|| (summary.prefetch_fills, summary.useful_prefetches)),
            );
            ScenarioCell {
                workload: cell.stream.name.clone(),
                machine: cell.machine.machine_label(),
                prefetcher: cell.prefetcher.label(),
                policy: cell.policy.to_owned(),
                accesses: summary.stats.accesses,
                hits: summary.stats.hits,
                misses: summary.stats.misses,
                miss_rate: summary.miss_rate(),
                demand_misses: metrics.demand_misses,
                compulsory_misses: summary.compulsory_misses,
                capacity_misses: summary.capacity_misses,
                conflict_misses: summary.conflict_misses,
                wrong_evictions: summary.wrong_evictions,
                evictions: summary.stats.evictions,
                prefetches: summary.stats.prefetches,
                prefetch_fills: metrics.prefetch_fills,
                useful_prefetches: metrics.useful_prefetches,
                prefetch_accuracy: metrics.prefetch_accuracy,
                prefetch_coverage: metrics.prefetch_coverage,
                instr_count: cell.stream.instr_count,
                ipc: metrics.ipc,
            }
        })?;

        // Canonical order before any reduction: aggregation must not
        // observe scheduling order.
        cells.sort_by(|a, b| {
            (&a.workload, &a.machine, &a.prefetcher, &a.policy).cmp(&(
                &b.workload,
                &b.machine,
                &b.prefetcher,
                &b.policy,
            ))
        });

        let policy_totals = axis_totals(&cells, |c| c.policy.as_str());
        let prefetcher_totals = axis_totals(&cells, |c| c.prefetcher.as_str());
        let machine_totals = axis_totals(&cells, |c| c.machine.as_str());

        Ok(ScenarioReport { cells, policy_totals, prefetcher_totals, machine_totals })
    }
}

impl ScenarioReport {
    /// The cell for a `(workload, machine, prefetcher, policy)` key, if
    /// present.
    pub fn cell(
        &self,
        workload: &str,
        machine: &str,
        prefetcher: &str,
        policy: &str,
    ) -> Option<&ScenarioCell> {
        self.cells.iter().find(|c| {
            c.workload == workload
                && c.machine == machine
                && c.prefetcher == prefetcher
                && c.policy == policy
        })
    }

    /// Renders the report as a fixed-width text table (cells, then the
    /// three axis roll-ups). Stable across runs and thread counts.
    pub fn to_table(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:<10} {:<26} {:<10} {:<11} {:>9} {:>9} {:>7} {:>7} {:>7} {:>7} {:>8}\n",
            "workload",
            "machine",
            "prefetch",
            "policy",
            "accesses",
            "misses",
            "miss%",
            "pf-acc%",
            "pf-cov%",
            "wrong",
            "ipc",
        ));
        for c in &self.cells {
            out.push_str(&format!(
                "{:<10} {:<26} {:<10} {:<11} {:>9} {:>9} {:>6.2}% {:>6.2}% {:>6.2}% {:>7} {:>8.4}\n",
                c.workload,
                c.machine,
                c.prefetcher,
                c.policy,
                c.accesses,
                c.misses,
                c.miss_rate * 100.0,
                c.prefetch_accuracy * 100.0,
                c.prefetch_coverage * 100.0,
                c.wrong_evictions,
                c.ipc,
            ));
        }
        for (title, totals) in [
            ("policy", &self.policy_totals),
            ("prefetcher", &self.prefetcher_totals),
            ("machine", &self.machine_totals),
        ] {
            out.push('\n');
            out.push_str(&format!(
                "{:<26} {:>5} {:>10} {:>10} {:>7} {:>7} {:>8}\n",
                title, "cells", "accesses", "misses", "miss%", "wrong", "mean-ipc",
            ));
            for t in totals.iter() {
                out.push_str(&format!(
                    "{:<26} {:>5} {:>10} {:>10} {:>6.2}% {:>7} {:>8.4}\n",
                    t.key,
                    t.cells,
                    t.accesses,
                    t.misses,
                    t.miss_rate * 100.0,
                    t.wrong_evictions,
                    t.mean_ipc,
                ));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::{Address, Pc};
    use crate::config::{CacheConfig, HierarchyConfig};
    use crate::replacement::RecencyPolicy;

    fn cyclic_stream(lines: u64, len: u64) -> Vec<MemoryAccess> {
        (0..len)
            .map(|i| MemoryAccess::load(Pc::new(0x400000), Address::new((i % lines) * 64), i))
            .collect()
    }

    fn sequential_stream(len: u64) -> Vec<MemoryAccess> {
        (0..len).map(|i| MemoryAccess::load(Pc::new(0x400100), Address::new(i * 64), i)).collect()
    }

    /// An LLC-only machine over a bare `name` geometry.
    fn llc(name: &str, sets_log2: u32, ways: usize) -> MachineConfig {
        MachineConfig::llc_only(CacheConfig::new(name, sets_log2, ways, 6))
    }

    fn lru_only(name: &str) -> Option<Box<dyn ReplacementPolicy>> {
        match name {
            "lru" => Some(Box::new(RecencyPolicy::lru())),
            "fifo" => Some(Box::new(RecencyPolicy::fifo())),
            _ => None,
        }
    }

    #[test]
    fn grid_covers_every_cell_in_canonical_order() {
        let grid = ScenarioGrid::default()
            .policy("lru")
            .policy("fifo")
            .stream(SweepStream::new("cyc8", cyclic_stream(8, 200)))
            .stream(SweepStream::new("cyc2", cyclic_stream(2, 200)))
            .machine(llc("a", 1, 2))
            .machine(llc("b", 2, 2))
            .prefetcher(PrefetcherKind::None);
        let report = grid.run(lru_only).expect("grid runs");
        assert_eq!(report.cells.len(), 8);
        let keys: Vec<(String, String, String)> = report
            .cells
            .iter()
            .map(|c| (c.workload.clone(), c.machine.clone(), c.policy.clone()))
            .collect();
        let mut sorted = keys.clone();
        sorted.sort();
        assert_eq!(keys, sorted, "cells must come out canonically sorted");
        assert_eq!(report.policy_totals.len(), 2);
    }

    #[test]
    fn cells_match_direct_replay() {
        let stream = cyclic_stream(16, 300);
        let cfg = CacheConfig::new("t", 1, 2, 6);
        let machine = MachineConfig::llc_only(cfg.clone());
        let grid = ScenarioGrid::default()
            .policy("lru")
            .stream(SweepStream::new("w", stream.clone()))
            .machine(machine.clone())
            .prefetcher(PrefetcherKind::None);
        let report = grid.run(lru_only).expect("grid runs");
        let direct = LlcReplay::new(cfg, &stream).run(RecencyPolicy::lru());
        let cell = report.cell("w", &machine.machine_label(), "none", "lru").expect("cell exists");
        assert_eq!(cell.hits, direct.stats.hits);
        assert_eq!(cell.misses, direct.stats.misses);
        assert_eq!(cell.compulsory_misses, direct.compulsory_misses);
        assert_eq!(cell.wrong_evictions, direct.wrong_evictions);
    }

    #[test]
    fn unknown_policy_is_an_error_not_a_panic() {
        let grid = ScenarioGrid::default()
            .policy("nope")
            .stream(SweepStream::new("w", cyclic_stream(4, 50)))
            .machine(llc("t", 1, 2))
            .prefetcher(PrefetcherKind::None);
        assert_eq!(grid.run(lru_only), Err(SweepError::UnknownPolicy("nope".into())));
    }

    #[test]
    fn empty_grid_is_an_error() {
        assert_eq!(ScenarioGrid::default().run(lru_only), Err(SweepError::EmptyGrid));
        // One empty axis is enough: here, no policies.
        let no_policies = ScenarioGrid::default()
            .stream(SweepStream::new("w", cyclic_stream(4, 50)))
            .machine(llc("t", 1, 2))
            .prefetcher(PrefetcherKind::None);
        assert_eq!(no_policies.run(lru_only), Err(SweepError::EmptyGrid));
    }

    #[test]
    fn duplicate_axis_entries_are_an_error() {
        let base = |policies: &[&str]| {
            let mut g = ScenarioGrid::default()
                .stream(SweepStream::new("w", cyclic_stream(4, 50)))
                .machine(llc("t", 1, 2))
                .prefetcher(PrefetcherKind::None);
            g.policies = policies.iter().map(|s| (*s).to_owned()).collect();
            g
        };
        assert_eq!(
            base(&["lru", "lru"]).run(lru_only),
            Err(SweepError::DuplicateKey("lru".into()))
        );
        let two_streams = base(&["lru"]).stream(SweepStream::new("w", cyclic_stream(2, 10)));
        assert_eq!(two_streams.run(lru_only), Err(SweepError::DuplicateKey("stream:w".into())));
        // Same machine label (name + geometry) twice, even via distinct values.
        let two_machines = base(&["lru"])
            .machine(MachineConfig::llc_only(CacheConfig::new("t", 1, 2, 6).with_latency(5)));
        assert_eq!(
            two_machines.run(lru_only),
            Err(SweepError::DuplicateKey("machine:t@2x2".into()))
        );
        // Duplicate prefetcher labels are rejected too.
        let two_prefetchers = base(&["lru"]).prefetcher(PrefetcherKind::None);
        assert_eq!(
            two_prefetchers.run(lru_only),
            Err(SweepError::DuplicateKey("prefetcher:none".into()))
        );
    }

    #[test]
    fn run_cells_returns_results_in_index_order() {
        // Axes deliberately out of name order: the generic entry keeps the
        // grid's index order; only `run` sorts by name.
        let grid = ScenarioGrid::default()
            .policy("lru")
            .policy("fifo")
            .stream(SweepStream::new("b", cyclic_stream(8, 64)))
            .stream(SweepStream::new("a", cyclic_stream(4, 64)))
            .machine(llc("m1", 1, 2))
            .machine(llc("m0", 2, 2))
            .prefetcher(PrefetcherKind::NextLine)
            .prefetcher(PrefetcherKind::None);
        let seen = grid
            .run_cells(lru_only, |cell, policy| {
                assert_eq!(policy.name(), cell.policy);
                assert_eq!(cell.stream.name, grid.streams[cell.stream_index].name);
                assert_eq!(cell.machine, &grid.machines[cell.machine_index]);
                let (stream, machine) = (&cell.stream.name, &cell.machine.name);
                format!("{stream} {machine} {} {}", cell.prefetcher.label(), cell.policy)
            })
            .expect("grid runs");
        let mut expected = Vec::new();
        for s in ["b", "a"] {
            for m in ["m1", "m0"] {
                for p in ["nextline", "none"] {
                    for policy in ["lru", "fifo"] {
                        expected.push(format!("{s} {m} {p} {policy}"));
                    }
                }
            }
        }
        assert_eq!(seen, expected);
    }

    #[test]
    fn totals_sum_their_cells() {
        let grid = ScenarioGrid::default()
            .policy("lru")
            .stream(SweepStream::new("a", cyclic_stream(8, 128)))
            .stream(SweepStream::new("b", cyclic_stream(32, 128)))
            .machine(llc("t", 1, 2))
            .prefetcher(PrefetcherKind::None);
        let report = grid.run(lru_only).expect("grid runs");
        let total = &report.policy_totals[0];
        let hits: u64 = report.cells.iter().map(|c| c.hits).sum();
        let misses: u64 = report.cells.iter().map(|c| c.misses).sum();
        assert_eq!(total.hits, hits);
        assert_eq!(total.misses, misses);
        assert_eq!(total.cells, 2);
    }

    #[test]
    fn scenario_covers_full_cross_product() {
        let grid = ScenarioGrid::default()
            .policy("lru")
            .policy("fifo")
            .stream(SweepStream::new("seq", sequential_stream(600)))
            .stream(SweepStream::new("cyc", cyclic_stream(16, 600)))
            .machine(MachineConfig::new("table2", HierarchyConfig::table2()))
            .machine(MachineConfig::new("small", HierarchyConfig::small()))
            .prefetcher(PrefetcherKind::None)
            .prefetcher(PrefetcherKind::NextLine);
        assert_eq!(grid.cells(), 16);
        let report = grid.run(lru_only).expect("grid runs");
        assert_eq!(report.cells.len(), 16);
        let keys: Vec<_> = report
            .cells
            .iter()
            .map(|c| {
                (c.workload.clone(), c.machine.clone(), c.prefetcher.clone(), c.policy.clone())
            })
            .collect();
        let mut sorted = keys.clone();
        sorted.sort();
        assert_eq!(keys, sorted, "cells must come out canonically sorted");
        assert_eq!(report.policy_totals.len(), 2);
        assert_eq!(report.prefetcher_totals.len(), 2);
        assert_eq!(report.machine_totals.len(), 2);
        for cell in &report.cells {
            assert!(cell.ipc > 0.0, "cell {cell:?} must report IPC");
        }
        // The rendered table mentions every axis section.
        let table = report.to_table();
        for needle in ["prefetcher", "machine", "mean-ipc", "table2@llc2048x16+dram160"] {
            assert!(table.contains(needle), "table missing {needle}:\n{table}");
        }
    }

    #[test]
    fn next_line_prefetching_covers_a_sequential_stream() {
        let grid = ScenarioGrid::default()
            .policy("lru")
            .stream(SweepStream::new("seq", sequential_stream(2048)))
            .machine(MachineConfig::llc_only(CacheConfig::new("LLC", 4, 4, 6)))
            .prefetcher(PrefetcherKind::None)
            .prefetcher(PrefetcherKind::NextLine);
        let report = grid.run(lru_only).expect("grid runs");
        let base = report.cell("seq", "LLC@16x4", "none", "lru").expect("baseline cell");
        let pf = report.cell("seq", "LLC@16x4", "nextline", "lru").expect("prefetch cell");
        assert_eq!(base.prefetches, 0);
        assert_eq!(base.prefetch_accuracy, 0.0);
        assert!(pf.prefetch_fills > 0);
        assert!(
            pf.prefetch_accuracy > 0.9,
            "next-line on a sequential stream should be accurate: {}",
            pf.prefetch_accuracy
        );
        assert!(
            pf.prefetch_coverage > 0.9,
            "next-line should cover the stream: {}",
            pf.prefetch_coverage
        );
        assert!(pf.demand_misses < base.demand_misses);
        assert!(pf.ipc > base.ipc, "covered misses must raise IPC");
    }

    #[test]
    fn full_machine_prefetch_counters_come_from_the_hierarchy() {
        // On a full machine a useful next-line prefetch is consumed by an
        // L1 hit the LLC replay never observes — the cell must still
        // report high accuracy/coverage (from the hierarchy's counters).
        let grid = ScenarioGrid::default()
            .policy("lru")
            .stream(SweepStream::new("seq", sequential_stream(2048)))
            .machine(MachineConfig::new("small", HierarchyConfig::small()))
            .prefetcher(PrefetcherKind::NextLine);
        let report = grid.run(lru_only).expect("grid runs");
        let cell = &report.cells[0];
        assert!(cell.prefetch_fills > 0);
        assert!(cell.prefetch_accuracy > 0.9, "accuracy {}", cell.prefetch_accuracy);
        assert!(cell.prefetch_coverage > 0.9, "coverage {}", cell.prefetch_coverage);
    }

    #[test]
    fn llc_only_ipc_matches_manual_model() {
        let cfg = CacheConfig::new("LLC", 3, 4, 6);
        let stream = cyclic_stream(64, 500);
        let grid = ScenarioGrid::default()
            .policy("lru")
            .stream(SweepStream::new("w", stream.clone()).with_instr_count(5_000))
            .machine(MachineConfig::llc_only(cfg.clone()))
            .prefetcher(PrefetcherKind::None);
        let report = grid.run(lru_only).expect("grid runs");
        let cell = &report.cells[0];
        assert_eq!(cell.instr_count, 5_000);
        let direct = LlcReplay::new(cfg.clone(), &stream).run(RecencyPolicy::lru());
        let machine = MachineConfig::llc_only(cfg);
        let model = IpcModel::from_config(&machine.hierarchy);
        let expected = model.ipc_from_llc(
            5_000,
            direct.stats.accesses - direct.stats.demand_misses,
            direct.stats.demand_misses,
        );
        assert!((cell.ipc - expected).abs() < 1e-12, "{} vs {}", cell.ipc, expected);
    }

    #[test]
    fn full_machine_cells_filter_through_the_hierarchy() {
        // A hot 4-line loop: L1 absorbs nearly everything, so the
        // full-machine cell sees far fewer LLC accesses than the LLC-only
        // cell replaying the raw stream.
        let stream = cyclic_stream(4, 400);
        let grid = ScenarioGrid::default()
            .policy("lru")
            .stream(SweepStream::new("hot", stream.clone()))
            .machine(MachineConfig::new("small", HierarchyConfig::small()))
            .machine(MachineConfig::llc_only(CacheConfig::small_llc()))
            .prefetcher(PrefetcherKind::None);
        let report = grid.run(lru_only).expect("grid runs");
        let full = report.cell("hot", "small@llc64x4+dram160", "none", "lru").unwrap();
        let raw = report.cell("hot", "LLC@64x4", "none", "lru").unwrap();
        assert!(full.accesses < raw.accesses / 10, "{} vs {}", full.accesses, raw.accesses);
        assert!(full.ipc > raw.ipc, "an L1-resident loop must run faster with caches modelled");
    }

    #[test]
    fn dram_latency_lowers_ipc() {
        let stream = sequential_stream(1500);
        let grid = ScenarioGrid::default()
            .policy("lru")
            .stream(SweepStream::new("seq", stream))
            .machine(MachineConfig::new("fast", HierarchyConfig::small()).with_dram_latency(100))
            .machine(MachineConfig::new("slow", HierarchyConfig::small()).with_dram_latency(800))
            .prefetcher(PrefetcherKind::None);
        let report = grid.run(lru_only).expect("grid runs");
        let fast = report.cell("seq", "fast@llc64x4+dram100", "none", "lru").unwrap();
        let slow = report.cell("seq", "slow@llc64x4+dram800", "none", "lru").unwrap();
        assert!(fast.ipc > slow.ipc, "fast {} vs slow {}", fast.ipc, slow.ipc);
    }

    #[test]
    fn mlp_override_serialises_misses() {
        let stream = sequential_stream(1000);
        let base = ScenarioGrid::default()
            .policy("lru")
            .stream(SweepStream::new("seq", stream.clone()))
            .machine(MachineConfig::llc_only(CacheConfig::new("LLC", 3, 4, 6).with_mshr(64)))
            .prefetcher(PrefetcherKind::None);
        let parallel = base.clone().run(lru_only).expect("runs");
        let serial = base.with_mlp(1.0).run(lru_only).expect("runs");
        assert!(
            serial.cells[0].ipc < parallel.cells[0].ipc,
            "MLP=1 must hurt a miss-heavy stream: {} vs {}",
            serial.cells[0].ipc,
            parallel.cells[0].ipc
        );
    }

    #[test]
    fn prepare_stage_runs_one_task_per_triple() {
        // 2 streams x 1 machine x 2 prefetchers x 2 policies = 8 cells,
        // but stage 1 must prepare only the 4 (stream, machine, prefetcher)
        // triples; each policy replay borrows its triple's scenario.
        let grid = ScenarioGrid::default()
            .policy("lru")
            .policy("fifo")
            .stream(SweepStream::new("seq", sequential_stream(100)))
            .stream(SweepStream::new("cyc", cyclic_stream(8, 100)))
            .machine(MachineConfig::llc_only(CacheConfig::new("LLC", 2, 2, 6)))
            .prefetcher(PrefetcherKind::None)
            .prefetcher(PrefetcherKind::NextLine);
        assert_eq!(grid.cells(), 8);
        let prepared = grid.prepare_stage();
        assert_eq!(
            prepared.len(),
            grid.streams.len() * grid.machines.len() * grid.prefetchers.len()
        );
        // The full run produces one cell per (triple, policy).
        let report = grid.run(lru_only).expect("grid runs");
        assert_eq!(report.cells.len(), prepared.len() * grid.policies.len());
    }
}
