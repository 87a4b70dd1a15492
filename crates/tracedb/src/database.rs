//! The trace database and its builder: simulate workloads under policies
//! and store the annotated traces.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::sync::Arc;

use serde::{Deserialize, Serialize};

use cachemind_policies::by_name as policy_by_name;
use cachemind_sim::config::{CacheConfig, MachineConfig};
use cachemind_sim::prefetch::PrefetcherKind;
use cachemind_sim::replacement::ReplacementPolicy;
use cachemind_sim::sweep::{
    prefetch_usefulness, prepare_scenario, sweep_cells, transform_stream, GridCell, ScenarioGrid,
    SweepError, SweepStream,
};
use cachemind_workloads::program::ProgramImage;
use cachemind_workloads::workload::{Scale, Workload};
use cachemind_workloads::{by_name as workload_by_name, DATABASE_WORKLOADS};

use crate::frame::TraceFrame;
use crate::meta;
use crate::record::TraceRow;
use crate::shard::ShardedTraceDatabase;
use crate::store::TraceStore;

/// A parsed trace identifier, optionally qualified with the scenario the
/// trace was produced under. The full key grammar is
///
/// ```text
/// <workload>_evictions_<policy>[@<machine_label>][+<prefetcher_label>]
/// ```
///
/// mirroring the [`ScenarioSelector`](cachemind_sim::scenario::ScenarioSelector)
/// text form: `mcf_evictions_lru` (primary machine, no prefetcher),
/// `mcf_evictions_lru@table2@llc2048x16+dram160` (machine-qualified),
/// `mcf_evictions_lru+stride4` (prefetcher-qualified on the primary
/// machine), `mcf_evictions_lru@table2@llc2048x16+dram160+stride4` (both).
///
/// Traces built on the builder's *primary* machine with *no* prefetcher
/// keep the unqualified legacy key, so a database without extra machines
/// or prefetchers is byte-identical to what earlier builders produced;
/// qualified traces are addressed through
/// [`TraceStore::get_scoped`].
///
/// Because canonical machine labels themselves contain `@` and `+`
/// (`table2@llc2048x16+dram160`), [`TraceId::parse`] is right-anchored the
/// same way selector parsing is: a trailing `+component` is a prefetcher
/// qualification only if it parses as a
/// [`PrefetcherKind`] name;
/// everything after the first `@` up to there belongs to the machine.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct TraceId {
    /// Workload name (e.g. `mcf`).
    pub workload: String,
    /// Policy name (e.g. `lru`).
    pub policy: String,
    /// Canonical machine label for non-primary-machine traces; `None` for
    /// the primary machine (legacy key shape).
    pub machine: Option<String>,
    /// Canonical prefetcher label (`nextline`, `stride4`) for traces whose
    /// stream was rewritten by a hardware prefetcher before replay; `None`
    /// for the untransformed baseline (the builder never writes a `+none`
    /// qualification — baseline entries are simply unqualified).
    pub prefetcher: Option<String>,
}

impl TraceId {
    /// Creates an id on the primary machine with no prefetcher.
    pub fn new(workload: &str, policy: &str) -> Self {
        TraceId {
            workload: workload.to_owned(),
            policy: policy.to_owned(),
            machine: None,
            prefetcher: None,
        }
    }

    /// Creates a machine-qualified id (no prefetcher).
    pub fn scoped(workload: &str, policy: &str, machine: &str) -> Self {
        TraceId { machine: Some(machine.to_owned()), ..TraceId::new(workload, policy) }
    }

    /// Creates a fully qualified id: any combination of machine and
    /// prefetcher qualification. `None` in either slot selects the primary
    /// machine / the no-prefetch baseline respectively.
    pub fn qualified(
        workload: &str,
        policy: &str,
        machine: Option<&str>,
        prefetcher: Option<&str>,
    ) -> Self {
        TraceId {
            machine: machine.map(str::to_owned),
            prefetcher: prefetcher.map(str::to_owned),
            ..TraceId::new(workload, policy)
        }
    }

    /// Parses a `<workload>_evictions_<policy>[@<machine>][+<prefetcher>]`
    /// key (see the type-level grammar notes).
    pub fn parse(key: &str) -> Option<Self> {
        use cachemind_sim::prefetch::PrefetcherKind;
        let (workload, rest) = key.split_once("_evictions_")?;
        // Right-anchored, like selector parsing: a trailing `+component`
        // is a prefetcher qualification iff it names a prefetcher kind —
        // `+dram160` inside a machine label never parses as one.
        let (rest, prefetcher) = match rest.rfind('+') {
            Some(idx) => match PrefetcherKind::parse(&rest[idx + 1..]) {
                Some(kind) => (&rest[..idx], Some(kind.label())),
                None => (rest, None),
            },
            None => (rest, None),
        };
        let (policy, machine) = match rest.split_once('@') {
            Some((policy, machine)) => {
                if machine.is_empty() {
                    return None;
                }
                (policy, Some(machine.to_owned()))
            }
            None => (rest, None),
        };
        if workload.is_empty() || policy.is_empty() {
            return None;
        }
        Some(TraceId {
            workload: workload.to_owned(),
            policy: policy.to_owned(),
            machine,
            prefetcher,
        })
    }

    /// The storage key (the grammar in the type-level docs).
    pub fn key(&self) -> String {
        let mut key = format!("{}_evictions_{}", self.workload, self.policy);
        if let Some(machine) = &self.machine {
            key.push('@');
            key.push_str(machine);
        }
        if let Some(prefetcher) = &self.prefetcher {
            key.push('+');
            key.push_str(prefetcher);
        }
        key
    }
}

impl fmt::Display for TraceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.key())
    }
}

/// One stored trace: frame + metadata string + description (§4.3), plus
/// the machine the trace was produced on and its model-estimated IPC.
#[derive(Debug, Clone)]
pub struct TraceEntry {
    /// The trace identifier.
    pub id: TraceId,
    /// Per-access rows with program context.
    pub frame: TraceFrame,
    /// The "Cache Performance Summary" string (includes the scenario
    /// sentence: machine label + estimated IPC).
    pub metadata: String,
    /// Human-readable workload + policy description.
    pub description: String,
    /// Canonical label of the machine the trace replayed on.
    pub machine: String,
    /// Canonical label of the prefetcher whose transform rewrote the
    /// stream before replay (`"none"` for baseline entries).
    pub prefetcher: String,
    /// Prefetch accesses that actually filled a line (0 for baseline
    /// entries).
    pub prefetch_fills: u64,
    /// Demand accesses served from a line a prefetch brought in.
    pub useful_prefetches: u64,
    /// `useful_prefetches / prefetch_fills` (0 when nothing was fetched).
    pub prefetch_accuracy: f64,
    /// `useful_prefetches / (useful_prefetches + demand_misses)` — the
    /// fraction of would-be misses the prefetcher covered.
    pub prefetch_coverage: f64,
    /// Model-estimated IPC of the replay (prefetch-aware: covered demand
    /// misses raise it).
    pub ipc: f64,
}

/// The external store: trace id -> entry.
#[derive(Debug, Clone, Default)]
pub struct TraceDatabase {
    entries: BTreeMap<String, TraceEntry>,
    llc: Option<CacheConfig>,
}

impl TraceDatabase {
    /// Creates an empty database.
    pub fn new() -> Self {
        TraceDatabase::default()
    }

    /// Inserts an entry, replacing any previous trace with the same id.
    pub fn insert(&mut self, entry: TraceEntry) {
        self.entries.insert(entry.id.key(), entry);
    }

    /// Looks up a trace by its `<workload>_evictions_<policy>` key.
    pub fn get(&self, key: &str) -> Option<&TraceEntry> {
        self.entries.get(key)
    }

    /// Looks up a trace by parsed id.
    pub fn get_id(&self, id: &TraceId) -> Option<&TraceEntry> {
        self.entries.get(&id.key())
    }

    /// All trace keys, sorted.
    pub fn trace_ids(&self) -> impl Iterator<Item = &str> {
        self.entries.keys().map(String::as_str)
    }

    /// All entries.
    pub fn entries(&self) -> impl Iterator<Item = &TraceEntry> {
        self.entries.values()
    }

    /// Distinct workload names present, sorted.
    pub fn workloads(&self) -> Vec<String> {
        let names: BTreeSet<&str> = self.entries.values().map(|e| e.id.workload.as_str()).collect();
        names.into_iter().map(str::to_owned).collect()
    }

    /// Distinct policy names present, sorted.
    pub fn policies(&self) -> Vec<String> {
        let names: BTreeSet<&str> = self.entries.values().map(|e| e.id.policy.as_str()).collect();
        names.into_iter().map(str::to_owned).collect()
    }

    /// The LLC geometry the traces were produced under (if built by the
    /// builder).
    pub fn llc_config(&self) -> Option<&CacheConfig> {
        self.llc.as_ref()
    }

    /// Number of stored traces.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the database is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Records the LLC geometry the traces were produced under.
    pub fn set_llc_config(&mut self, config: CacheConfig) {
        self.llc = Some(config);
    }

    /// Consumes the database, yielding its entries in ascending key order.
    pub fn into_entries(self) -> impl Iterator<Item = TraceEntry> {
        self.entries.into_values()
    }
}

impl TraceStore for TraceDatabase {
    fn get(&self, key: &str) -> Option<&TraceEntry> {
        TraceDatabase::get(self, key)
    }

    fn trace_keys(&self) -> Vec<String> {
        self.entries.keys().cloned().collect()
    }

    fn entries<'a>(&'a self) -> Box<dyn Iterator<Item = &'a TraceEntry> + 'a> {
        Box::new(self.entries.values())
    }

    fn workloads(&self) -> Vec<String> {
        TraceDatabase::workloads(self)
    }

    fn policies(&self) -> Vec<String> {
        TraceDatabase::policies(self)
    }

    fn llc_config(&self) -> Option<&CacheConfig> {
        TraceDatabase::llc_config(self)
    }

    fn len(&self) -> usize {
        TraceDatabase::len(self)
    }
}

/// An unresolvable builder configuration: the name does not exist in the
/// workload or policy registry.
///
/// Surfaced by [`TraceDatabaseBuilder::try_build`] and friends *before* any
/// simulation starts, so shard workers never panic mid-build and service
/// layers can turn the failure into a clean protocol error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BuildError {
    /// A workload name the registry does not know.
    UnknownWorkload(String),
    /// A policy name the registry does not know.
    UnknownPolicy(String),
    /// A machine preset name [`MachineConfig::preset`] does not know
    /// (surfaced by service layers that resolve presets before building).
    UnknownMachine(String),
    /// A prefetcher name [`PrefetcherKind::parse`] does not know (surfaced
    /// by service layers that resolve prefetcher names before building).
    UnknownPrefetcher(String),
}

impl fmt::Display for BuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildError::UnknownWorkload(name) => write!(f, "unknown workload {name:?}"),
            BuildError::UnknownPolicy(name) => write!(f, "unknown policy {name:?}"),
            BuildError::UnknownMachine(name) => write!(f, "unknown machine preset {name:?}"),
            BuildError::UnknownPrefetcher(name) => write!(f, "unknown prefetcher {name:?}"),
        }
    }
}

impl std::error::Error for BuildError {}

/// Builds a [`TraceDatabase`] by simulating workloads under policies.
///
/// The build is a [`ScenarioGrid`] whose cells keep their records: machine
/// slot 0 is the primary LLC-only machine the builder's LLC geometry
/// describes, prefetcher slot 0 the untransformed baseline, and every cell
/// runs the full record-emitting replay into one [`TraceEntry`].
///
/// # Example
///
/// ```rust
/// use cachemind_tracedb::database::TraceDatabaseBuilder;
/// use cachemind_workloads::Scale;
///
/// let db = TraceDatabaseBuilder::new()
///     .workloads(["mcf"])
///     .policies(["lru", "belady"])
///     .scale(Scale::Tiny)
///     .build();
/// assert_eq!(db.len(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct TraceDatabaseBuilder {
    workloads: Vec<String>,
    policies: Vec<String>,
    scale: Scale,
    llc: CacheConfig,
    keep_snapshots_every: usize,
    num_shards: usize,
    extra_machines: Vec<MachineConfig>,
    extra_prefetchers: Vec<PrefetcherKind>,
}

/// What a trace entry needs of its workload besides the access stream,
/// which moves into the build grid.
struct WorkloadContext {
    description: String,
    program: Arc<ProgramImage>,
}

/// The names in first-seen order, each kept once: a repeated name would
/// only rebuild identical entries under the same key.
fn unique<I, S>(names: I) -> Vec<String>
where
    I: IntoIterator<Item = S>,
    S: Into<String>,
{
    let mut out: Vec<String> = Vec::new();
    for name in names.into_iter().map(Into::into) {
        if !out.contains(&name) {
            out.push(name);
        }
    }
    out
}

impl Default for TraceDatabaseBuilder {
    fn default() -> Self {
        TraceDatabaseBuilder::new()
    }
}

impl TraceDatabaseBuilder {
    /// The LLC geometry used for database experiments: 256 sets x 8 ways
    /// (a scaled-down Table-2 LLC so that the synthetic working sets
    /// exercise capacity pressure; see DESIGN.md).
    pub fn experiment_llc() -> CacheConfig {
        CacheConfig::new("LLC", 8, 8, 6).with_latency(26).with_mshr(64)
    }

    /// Starts a builder with the paper's defaults: the three database
    /// workloads, the four database policies, `Scale::Small`.
    pub fn new() -> Self {
        TraceDatabaseBuilder {
            workloads: DATABASE_WORKLOADS.iter().map(|s| (*s).to_owned()).collect(),
            policies: cachemind_policies::DATABASE_POLICIES
                .iter()
                .map(|s| (*s).to_owned())
                .collect(),
            scale: Scale::Small,
            llc: Self::experiment_llc(),
            keep_snapshots_every: 1,
            num_shards: Self::DEFAULT_SHARDS,
            extra_machines: Vec::new(),
            extra_prefetchers: Vec::new(),
        }
    }

    /// A tiny database (all workloads x all policies at `Scale::Tiny`,
    /// under a proportionally small 128-line LLC so the short traces still
    /// exercise real capacity pressure) for tests and doc examples.
    pub fn quick_demo() -> Self {
        TraceDatabaseBuilder::new()
            .scale(Scale::Tiny)
            .llc(CacheConfig::new("LLC", 5, 4, 6).with_latency(26).with_mshr(16))
    }

    /// Selects the workloads to simulate (a repeated name is kept once).
    pub fn workloads<I, S>(mut self, names: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        self.workloads = unique(names);
        self
    }

    /// Selects the replacement policies to replay (a repeated name is kept
    /// once).
    pub fn policies<I, S>(mut self, names: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        self.policies = unique(names);
        self
    }

    /// Sets the generation scale.
    pub fn scale(mut self, scale: Scale) -> Self {
        self.scale = scale;
        self
    }

    /// Overrides the LLC geometry.
    pub fn llc(mut self, config: CacheConfig) -> Self {
        self.llc = config;
        self
    }

    /// Keeps the bulky snapshot columns (resident lines, history, scores)
    /// on every `n`-th row only (1 = every row, 0 = never).
    pub fn keep_snapshots_every(mut self, n: usize) -> Self {
        self.keep_snapshots_every = n;
        self
    }

    /// Adds a machine to build traces for, *in addition to* the primary
    /// (LLC-only) machine the builder's LLC geometry describes.
    ///
    /// Primary-machine traces keep their legacy unqualified keys and are
    /// byte-identical whether or not extra machines are configured; every
    /// extra machine contributes one machine-qualified trace per
    /// `workload × policy` pair ([`TraceId::scoped`]), replayed under that
    /// machine's LLC (full machines filter the stream through L1/L2 first)
    /// with its own [`IpcModel`](cachemind_sim::timing::IpcModel) estimate
    /// — so one database can answer per-machine questions for many
    /// scenarios at once.
    ///
    /// Machines are keyed by [`MachineConfig::machine_label`]: a repeated
    /// label is kept once, and a machine labelled like the primary machine
    /// is the primary itself, so neither is simulated twice.
    pub fn machine(mut self, machine: MachineConfig) -> Self {
        let label = machine.machine_label();
        if !self.extra_machines.iter().any(|m| m.machine_label() == label) {
            self.extra_machines.push(machine);
        }
        self
    }

    /// Replaces the extra-machine set (see [`TraceDatabaseBuilder::machine`]
    /// for the per-machine semantics).
    pub fn machines<I: IntoIterator<Item = MachineConfig>>(mut self, machines: I) -> Self {
        self.extra_machines.clear();
        for machine in machines {
            self = self.machine(machine);
        }
        self
    }

    /// Adds a hardware prefetcher to build traces for, *in addition to* the
    /// no-prefetch baseline.
    ///
    /// Every extra prefetcher contributes one prefetcher-qualified trace
    /// per `workload × machine × policy` cell: the workload stream is
    /// rewritten through the prefetcher model ([`transform_stream`], the
    /// grid's stage 1a) *before* the hierarchy filter and replay, the
    /// entry's key gains the `+<prefetcher>` qualification
    /// ([`TraceId::qualified`]), and its metadata records the prefetcher
    /// sentence (label, accuracy, coverage) next to a prefetch-aware IPC
    /// estimate — so a `+stride4` selector scopes to real traces.
    ///
    /// Baseline entries keep their unqualified keys and are byte-identical
    /// whether or not extra prefetchers are configured.
    /// [`PrefetcherKind::None`] names the always-built baseline and is
    /// ignored here; duplicate kinds (by canonical label) are kept once.
    pub fn prefetcher(mut self, kind: PrefetcherKind) -> Self {
        if kind != PrefetcherKind::None
            && !self.extra_prefetchers.iter().any(|k| k.label() == kind.label())
        {
            self.extra_prefetchers.push(kind);
        }
        self
    }

    /// Replaces the extra-prefetcher set (see
    /// [`TraceDatabaseBuilder::prefetcher`] for the per-kind semantics).
    pub fn prefetchers<I: IntoIterator<Item = PrefetcherKind>>(mut self, kinds: I) -> Self {
        self.extra_prefetchers.clear();
        for kind in kinds {
            self = self.prefetcher(kind);
        }
        self
    }

    /// The default shard count for [`TraceDatabaseBuilder::try_build_sharded`].
    ///
    /// A fixed constant — **not** the worker count — so the physical layout
    /// of the database is identical regardless of how many threads built it.
    pub const DEFAULT_SHARDS: usize = 4;

    /// Sets the number of shards the sharded build partitions the
    /// `workload × policy` pairs into (clamped to at least 1).
    pub fn shards(mut self, n: usize) -> Self {
        self.num_shards = n.max(1);
        self
    }

    /// Validates every configured name against the registries, failing fast
    /// (and deterministically: first offending workload in configuration
    /// order, then first offending policy) before any simulation runs.
    fn validate(&self) -> Result<(), BuildError> {
        for wname in &self.workloads {
            if !cachemind_workloads::is_known(wname) {
                return Err(BuildError::UnknownWorkload(wname.clone()));
            }
        }
        for pname in &self.policies {
            if policy_by_name(pname).is_none() {
                return Err(BuildError::UnknownPolicy(pname.clone()));
            }
        }
        Ok(())
    }

    /// Generates the workloads (one task each) and lays the build out as a
    /// [`ScenarioGrid`]: machine 0 is the primary LLC-only machine and
    /// prefetcher 0 the untransformed baseline — the slots whose traces
    /// keep unqualified keys. Each workload's access stream moves into the
    /// grid; the rest of it stays behind for the entries.
    fn grid(&self) -> Result<(ScenarioGrid, Vec<WorkloadContext>), BuildError> {
        let generated = sweep_cells(self.workloads.clone(), |wname| {
            let workload = workload_by_name(&wname, self.scale);
            (wname, workload)
        });
        let primary = MachineConfig::llc_only(self.llc.clone());
        let primary_label = primary.machine_label();
        let extra_machines =
            self.extra_machines.iter().filter(|m| m.machine_label() != primary_label);
        let mut grid = ScenarioGrid {
            policies: self.policies.clone(),
            streams: Vec::with_capacity(generated.len()),
            machines: std::iter::once(primary).chain(extra_machines.cloned()).collect(),
            prefetchers: std::iter::once(PrefetcherKind::None)
                .chain(self.extra_prefetchers.iter().copied())
                .collect(),
            mlp_override: None,
        };
        let mut contexts = Vec::with_capacity(generated.len());
        for (wname, workload) in generated {
            let Workload { description, program, accesses, instr_count, .. } =
                workload.ok_or_else(|| BuildError::UnknownWorkload(wname.clone()))?;
            grid.streams.push(SweepStream::new(wname, accesses).with_instr_count(instr_count));
            contexts.push(WorkloadContext { description, program: Arc::new(program) });
        }
        Ok((grid, contexts))
    }

    /// Simulates one grid cell into its trace entry: the full
    /// record-emitting replay, with the prefetch and IPC columns derived
    /// as every scenario cell derives them
    /// ([`PreparedScenario::cell_metrics`](cachemind_sim::sweep::PreparedScenario::cell_metrics)).
    fn build_entry(
        &self,
        contexts: &[WorkloadContext],
        cell: GridCell<'_>,
        policy: Box<dyn ReplacementPolicy>,
    ) -> TraceEntry {
        let report = cell.scenario.replay.run(policy);
        let rows: Vec<TraceRow> = report
            .records
            .iter()
            .enumerate()
            .map(|(i, r)| {
                let keep = self.keep_snapshots_every > 0 && i % self.keep_snapshots_every == 0;
                TraceRow::from_record(r, keep)
            })
            .collect();
        // Baseline entries record no prefetch activity, even where a
        // workload issues its own software prefetches; prefetcher entries
        // on LLC-only machines walk their records for usefulness.
        let line_bits = cell.machine.hierarchy.llc.line_size_log2;
        let metrics = cell.scenario.cell_metrics(
            cell.machine,
            &report.stats,
            cell.stream.instr_count,
            None,
            (cell.prefetcher != PrefetcherKind::None)
                .then_some(|| prefetch_usefulness(&report.records, line_bits)),
        );
        let label = cell.machine.machine_label();
        let prefetcher_label = cell.prefetcher.label();
        // The scenario sentence: which machine the trace replayed on and
        // the model-estimated IPC; prefetcher entries add the prefetcher's
        // accuracy and coverage.
        let metadata = match cell.prefetcher {
            PrefetcherKind::None => meta::render_scenario(&report, &label, metrics.ipc),
            _ => meta::render_scenario_prefetched(
                &report,
                &label,
                &prefetcher_label,
                metrics.ipc,
                metrics.prefetch_accuracy,
                metrics.prefetch_coverage,
            ),
        };
        let wname = &cell.stream.name;
        let context = &contexts[cell.stream_index];
        let description = format!(
            "Workload: {}. Replacement Policy: {}. {}",
            wname,
            policy_description(cell.policy),
            context.description
        );
        let id = TraceId::qualified(
            wname,
            cell.policy,
            (cell.machine_index != 0).then_some(label.as_str()),
            (cell.prefetcher != PrefetcherKind::None).then_some(prefetcher_label.as_str()),
        );
        TraceEntry {
            id,
            frame: TraceFrame::new(rows, Arc::clone(&context.program)),
            metadata,
            description,
            machine: label,
            prefetcher: prefetcher_label,
            prefetch_fills: metrics.prefetch_fills,
            useful_prefetches: metrics.useful_prefetches,
            prefetch_accuracy: metrics.prefetch_accuracy,
            prefetch_coverage: metrics.prefetch_coverage,
            ipc: metrics.ipc,
        }
    }

    /// Simulates everything and assembles the sharded database.
    ///
    /// The build grid runs through [`ScenarioGrid::run_cells`]: one task
    /// per workload generates its stream, stage 1 transforms and prepares
    /// each `workload × machine × prefetcher` triple once, and one task per
    /// cell replays a policy into its entry. Entries are routed to shards
    /// by the deterministic [`shard_index`](crate::store::shard_index)
    /// assignment, so the result is identical no matter how many threads
    /// ran the build.
    ///
    /// Unknown workload or policy names surface as a [`BuildError`] before
    /// any simulation starts — shard workers never panic on bad names. No
    /// workloads or no policies build an empty database.
    pub fn try_build_sharded(self) -> Result<ShardedTraceDatabase, BuildError> {
        self.validate()?;
        let _span = cachemind_obs::global().span(cachemind_obs::names::TRACEDB_BUILD);
        let (grid, contexts) = self.grid()?;
        let entries = match grid
            .run_cells(policy_by_name, |cell, policy| self.build_entry(&contexts, cell, policy))
        {
            Ok(entries) => entries,
            Err(SweepError::EmptyGrid) => Vec::new(),
            // validate() resolved every policy, and the builder keeps
            // every axis duplicate-free.
            Err(e) => unreachable!("validated build grid failed: {e}"),
        };
        Ok(ShardedTraceDatabase::from_entries(entries, self.num_shards, Some(self.llc.clone())))
    }

    /// Simulates everything in parallel and assembles a monolithic
    /// database (the sharded build, unified).
    pub fn try_build(self) -> Result<TraceDatabase, BuildError> {
        Ok(self.try_build_sharded()?.into_unified())
    }

    /// The serial reference implementation of [`TraceDatabaseBuilder::try_build`]:
    /// plain loops over the build grid's cells on the calling thread,
    /// through the same per-cell entry function as the parallel build.
    /// Kept as the oracle the parallel/sharded builds are tested against.
    pub fn build_serial(self) -> Result<TraceDatabase, BuildError> {
        self.validate()?;
        let _span = cachemind_obs::global().span(cachemind_obs::names::TRACEDB_BUILD);
        let (grid, contexts) = self.grid()?;
        let mut db = TraceDatabase { entries: BTreeMap::new(), llc: Some(self.llc.clone()) };
        for (stream_index, stream) in grid.streams.iter().enumerate() {
            for &prefetcher in &grid.prefetchers {
                let transformed = transform_stream(prefetcher, &stream.accesses);
                let accesses = transformed.as_deref().unwrap_or(&stream.accesses);
                for (machine_index, machine) in grid.machines.iter().enumerate() {
                    let scenario = prepare_scenario(machine, accesses, stream.instr_count);
                    for policy in &grid.policies {
                        let cell = GridCell {
                            stream,
                            stream_index,
                            machine,
                            machine_index,
                            prefetcher,
                            policy,
                            scenario: &scenario,
                        };
                        let replacement = policy_by_name(policy).expect("policy validated");
                        db.insert(self.build_entry(&contexts, cell, replacement));
                    }
                }
            }
        }
        Ok(db)
    }

    /// Simulates everything and assembles the database.
    ///
    /// # Panics
    ///
    /// Panics if a workload or policy name is unknown (the builder is the
    /// trusted configuration surface at this call site; services that take
    /// names from the network use [`TraceDatabaseBuilder::try_build`] and
    /// surface [`BuildError`] instead).
    pub fn build(self) -> TraceDatabase {
        self.try_build().unwrap_or_else(|e| panic!("{e}"))
    }
}

/// A one-line description of each policy, used in trace descriptions and
/// retrieval context.
pub fn policy_description(name: &str) -> &'static str {
    match name {
        "lru" => "LRU evicts the least-recently-used line in the set.",
        "mru" => "MRU evicts the most-recently-used line in the set.",
        "fifo" => "FIFO evicts the line that was inserted earliest.",
        "random" => "Random replacement evicts a uniformly random line.",
        "belady" => {
            "Belady's optimal (MIN) evicts the line whose next use is farthest in the \
             future; an offline oracle upper bound."
        }
        "srrip" => "SRRIP predicts re-reference intervals with 2-bit counters.",
        "brrip" => "BRRIP inserts lines with distant re-reference predictions most of the time.",
        "drrip" => "DRRIP set-duels SRRIP against BRRIP insertion.",
        "dip" => "DIP set-duels LRU against bimodal insertion to resist thrashing.",
        "lip" => "LIP inserts every line at the LRU position; lines must earn promotion.",
        "bip" => "BIP inserts at the LRU position, occasionally at MRU.",
        "ship" => "SHiP biases insertion using PC-signature hit prediction.",
        "hawkeye" => "Hawkeye classifies PCs with Belady-derived labels (OPTgen).",
        "mockingjay" => {
            "Mockingjay predicts continuous reuse distances per PC and evicts the line \
             with the largest estimated time remaining."
        }
        "parrot" => {
            "PARROT imitates Belady's policy with a learned model over PC and address \
             features (imitation learning)."
        }
        "mlp" => "MLP scores lines with a multi-layer perceptron reuse predictor.",
        "bypass" => "A base policy wrapped with a per-PC bypass list.",
        _ => "Unknown policy.",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_id_round_trips() {
        let id = TraceId::new("lbm", "lru");
        assert_eq!(id.key(), "lbm_evictions_lru");
        assert_eq!(TraceId::parse("lbm_evictions_lru"), Some(id));
        assert_eq!(TraceId::parse("garbage"), None);
        assert_eq!(TraceId::parse("_evictions_"), None);
    }

    #[test]
    fn scoped_trace_ids_round_trip() {
        let id = TraceId::scoped("lbm", "lru", "table2@llc2048x16+dram160");
        assert_eq!(id.key(), "lbm_evictions_lru@table2@llc2048x16+dram160");
        assert_eq!(TraceId::parse(&id.key()), Some(id));
        assert_eq!(TraceId::parse("lbm_evictions_lru@"), None, "empty machine is invalid");
        // Unqualified parse keeps machine = None.
        assert_eq!(TraceId::parse("lbm_evictions_lru").unwrap().machine, None);
    }

    #[test]
    fn extra_machines_add_scoped_entries_without_touching_primary_keys() {
        use crate::store::TraceStore;
        use cachemind_sim::scenario::ScenarioSelector;

        let base = || {
            TraceDatabaseBuilder::quick_demo().workloads(["mcf", "lbm"]).policies(["lru", "belady"])
        };
        let plain = base().build();
        let multi = base()
            .machine(MachineConfig::preset("table2").expect("preset"))
            .machine(MachineConfig::preset("small").expect("preset"))
            .build();

        // Primary entries are byte-identical to the machine-free build.
        assert_eq!(multi.len(), 3 * plain.len(), "one extra entry set per machine");
        for key in plain.trace_ids() {
            let a = plain.get(key).expect("plain entry");
            let b = multi.get(key).expect("primary entry survives");
            assert_eq!(a.metadata, b.metadata, "{key}");
            assert_eq!(a.frame.rows(), b.frame.rows(), "{key}");
            assert_eq!(a.machine, b.machine, "{key}");
        }

        // The store sees all three machines, and scoped lookups land on
        // the right one.
        let labels = TraceStore::machines(&multi);
        assert_eq!(labels.len(), 3, "{labels:?}");
        assert!(labels.iter().any(|l| l.starts_with("table2@")), "{labels:?}");
        assert!(labels.iter().any(|l| l.starts_with("small@")), "{labels:?}");

        let id = TraceId::new("mcf", "lru");
        let unscoped = multi.get_scoped(&id, &ScenarioSelector::all()).expect("primary");
        assert_eq!(unscoped.id.machine, None, "unscoped lookups stay on the primary machine");
        let on_table2 = multi
            .get_scoped(&id, &ScenarioSelector::all().with_machine("table2"))
            .expect("table2 entry");
        assert!(on_table2.machine.starts_with("table2@"));
        assert_eq!(meta::extract_machine(&on_table2.metadata), Some(on_table2.machine.as_str()));
        let on_small = multi
            .get_scoped(&id, &ScenarioSelector::all().with_machine("small"))
            .expect("small entry");
        assert!(on_small.machine.starts_with("small@"));
        assert!(
            multi.get_scoped(&id, &ScenarioSelector::all().with_machine("cray-1")).is_none(),
            "unknown machines select nothing"
        );

        // Different machines, different IPC estimates in the metadata.
        assert!(on_table2.ipc > 0.0 && on_small.ipc > 0.0);
        assert_ne!(on_table2.ipc, on_small.ipc, "machines must not share an IPC estimate");

        // select() scopes the full entry iterator.
        let scoped: Vec<_> = multi.select(&ScenarioSelector::all().with_machine("small")).collect();
        assert_eq!(scoped.len(), 4, "2 workloads x 2 policies on the small machine");
        assert!(scoped.iter().all(|e| e.machine.starts_with("small@")));
    }

    #[test]
    fn prefetcher_qualified_trace_ids_round_trip() {
        let id = TraceId::qualified("mcf", "lru", None, Some("stride4"));
        assert_eq!(id.key(), "mcf_evictions_lru+stride4");
        assert_eq!(TraceId::parse(&id.key()), Some(id));

        let id =
            TraceId::qualified("mcf", "lru", Some("table2@llc2048x16+dram160"), Some("nextline"));
        assert_eq!(id.key(), "mcf_evictions_lru@table2@llc2048x16+dram160+nextline");
        assert_eq!(TraceId::parse(&id.key()), Some(id));

        // A machine label's own `+dram...` segment never parses as a
        // prefetcher qualification.
        let id = TraceId::parse("mcf_evictions_lru@table2@llc2048x16+dram160").unwrap();
        assert_eq!(id.machine.as_deref(), Some("table2@llc2048x16+dram160"));
        assert_eq!(id.prefetcher, None);
    }

    #[test]
    fn extra_prefetchers_add_qualified_entries_without_touching_primary_keys() {
        use crate::meta;
        use crate::store::TraceStore;
        use cachemind_sim::scenario::ScenarioSelector;

        let base = || TraceDatabaseBuilder::quick_demo().workloads(["mcf"]).policies(["lru"]);
        let plain = base().build();
        let multi = base()
            .machine(MachineConfig::preset("table2").expect("preset"))
            .prefetcher(PrefetcherKind::Stride { degree: 4 })
            .build();

        // One entry per machine slot × prefetcher slot × pair; primary
        // baseline entries are byte-identical to the axis-free build.
        assert_eq!(multi.len(), 4 * plain.len());
        for key in plain.trace_ids() {
            let a = plain.get(key).expect("plain entry");
            let b = multi.get(key).expect("primary entry survives");
            assert_eq!(a.metadata, b.metadata, "{key}");
            assert_eq!(a.frame.rows(), b.frame.rows(), "{key}");
            assert_eq!(b.prefetcher, "none", "{key}");
            assert_eq!(b.prefetch_fills, 0, "{key}");
        }
        assert_eq!(TraceStore::prefetchers(&multi), vec!["none", "stride4"]);

        // A +stride4 scope lands on the qualified entry, on either machine.
        let id = TraceId::new("mcf", "lru");
        let baseline = multi.get_scoped(&id, &ScenarioSelector::all()).expect("baseline");
        let pf = ScenarioSelector::parse("+stride4").expect("selector");
        let strided = multi.get_scoped(&id, &pf).expect("prefetcher-qualified entry");
        assert_eq!(strided.prefetcher, "stride4");
        assert_eq!(strided.id.prefetcher.as_deref(), Some("stride4"));
        assert_eq!(strided.id.machine, None, "machine-unscoped stays primary");
        assert_eq!(meta::extract_prefetcher(&strided.metadata), Some("stride4"));
        assert!(strided.prefetch_fills > 0, "transformed stream must fill lines");
        assert!(strided.prefetch_accuracy > 0.0 && strided.prefetch_accuracy <= 1.0);
        assert!(strided.prefetch_coverage > 0.0 && strided.prefetch_coverage < 1.0);
        assert_ne!(strided.ipc, baseline.ipc, "prefetch-aware IPC must differ");
        assert_eq!(meta::extract_prefetcher(&baseline.metadata), None);

        let both = ScenarioSelector::parse("@table2+stride4").expect("selector");
        let on_table2 = multi.get_scoped(&id, &both).expect("fully qualified entry");
        assert!(on_table2.machine.starts_with("table2@"));
        assert_eq!(on_table2.prefetcher, "stride4");
        assert!(
            multi.get_scoped(&id, &ScenarioSelector::parse("+nextline").unwrap()).is_none(),
            "unbuilt prefetchers select nothing"
        );

        // select() scopes the full entry iterator by prefetcher.
        let scoped: Vec<_> = multi.select(&pf).collect();
        assert_eq!(scoped.len(), 2, "one stride4 entry per machine slot");
        assert!(scoped.iter().all(|e| e.prefetcher == "stride4"));
    }

    #[test]
    fn multi_prefetcher_parallel_build_matches_serial() {
        let make = || {
            TraceDatabaseBuilder::quick_demo()
                .workloads(["mcf"])
                .policies(["lru", "belady"])
                .machine(MachineConfig::preset("small").expect("preset"))
                .prefetchers([PrefetcherKind::NextLine, PrefetcherKind::Stride { degree: 2 }])
        };
        let serial = make().build_serial().expect("serial build");
        let parallel = make().shards(3).try_build().expect("parallel build");
        assert_eq!(parallel.len(), serial.len());
        assert_eq!(parallel.len(), 2 * 2 * 3, "pairs x machine slots x prefetcher slots");
        for (a, b) in parallel.entries().zip(serial.entries()) {
            assert_eq!(a.id, b.id);
            assert_eq!(a.metadata, b.metadata);
            assert_eq!(a.prefetcher, b.prefetcher);
            assert_eq!(a.frame.rows(), b.frame.rows(), "{} rows diverge", a.id);
        }
    }

    #[test]
    fn none_and_duplicate_prefetchers_collapse() {
        let db = TraceDatabaseBuilder::quick_demo()
            .workloads(["mcf"])
            .policies(["lru"])
            .prefetchers([PrefetcherKind::None, PrefetcherKind::NextLine, PrefetcherKind::NextLine])
            .build();
        // None is the always-built baseline; the duplicate collapses.
        assert_eq!(db.len(), 2);
    }

    #[test]
    fn duplicate_machines_collapse() {
        let table2 = || MachineConfig::preset("table2").expect("preset");
        let base = TraceDatabaseBuilder::quick_demo();
        let primary = MachineConfig::llc_only(base.llc.clone());
        let builder = base
            .workloads(["mcf", "mcf"])
            .policies(["lru", "lru"])
            .machines([table2(), table2()])
            // Labelled like the primary machine: it is the primary.
            .machine(primary);
        // Every name and machine label is simulated once: one workload,
        // one policy, the primary machine and table2.
        let (grid, _) = builder.grid().expect("known workloads");
        assert_eq!((grid.streams.len(), grid.policies.len(), grid.machines.len()), (1, 1, 2));
        let db = builder.build();
        assert_eq!(db.len(), 2);
        assert_eq!(TraceStore::machines(&db).len(), 2);
    }

    #[test]
    fn multi_machine_parallel_build_matches_serial() {
        let make = || {
            TraceDatabaseBuilder::quick_demo()
                .workloads(["mcf"])
                .policies(["lru", "belady"])
                .machine(MachineConfig::preset("small").expect("preset"))
        };
        let serial = make().build_serial().expect("serial build");
        let parallel = make().shards(3).try_build().expect("parallel build");
        assert_eq!(parallel.len(), serial.len());
        for (a, b) in parallel.entries().zip(serial.entries()) {
            assert_eq!(a.id, b.id);
            assert_eq!(a.metadata, b.metadata);
            assert_eq!(a.frame.rows(), b.frame.rows(), "{} rows diverge", a.id);
        }
    }

    #[test]
    fn builder_builds_all_pairs() {
        let db = TraceDatabaseBuilder::new()
            .workloads(["mcf", "lbm"])
            .policies(["lru", "belady"])
            .scale(Scale::Tiny)
            .build();
        assert_eq!(db.len(), 4);
        assert_eq!(db.workloads(), vec!["lbm", "mcf"]);
        assert_eq!(db.policies(), vec!["belady", "lru"]);
        let entry = db.get("mcf_evictions_belady").unwrap();
        assert!(entry.metadata.contains("miss rate"));
        assert!(entry.description.contains("Belady"));
        assert!(!entry.frame.is_empty());
    }

    #[test]
    fn entries_record_machine_and_ipc() {
        let db = TraceDatabaseBuilder::quick_demo().build();
        let llc = db.llc_config().expect("builder records llc").clone();
        let expected_label = cachemind_sim::config::MachineConfig::llc_only(llc).machine_label();
        for entry in db.entries() {
            assert_eq!(entry.machine, expected_label, "{}", entry.id);
            assert!(entry.ipc > 0.0, "{} has no IPC", entry.id);
            assert_eq!(meta::extract_machine(&entry.metadata), Some(entry.machine.as_str()));
            let cited = meta::extract_ipc(&entry.metadata).expect("metadata cites IPC");
            assert!((cited - entry.ipc).abs() < 1e-6, "{} vs {}", cited, entry.ipc);
        }
        // Belady's IPC dominates LRU's on every workload, as its misses do.
        for w in db.workloads() {
            let opt = db.get(&format!("{w}_evictions_belady")).unwrap();
            let lru = db.get(&format!("{w}_evictions_lru")).unwrap();
            assert!(opt.ipc >= lru.ipc, "OPT slower than LRU on {w}");
        }
    }

    #[test]
    fn belady_dominates_lru_in_every_built_trace() {
        let db = TraceDatabaseBuilder::quick_demo().build();
        for w in db.workloads() {
            let opt = db.get(&format!("{w}_evictions_belady")).unwrap();
            let lru = db.get(&format!("{w}_evictions_lru")).unwrap();
            let miss = |e: &TraceEntry| e.frame.rows().iter().filter(|r| r.is_miss).count();
            assert!(miss(opt) <= miss(lru), "OPT must not miss more than LRU on {w}");
        }
    }

    #[test]
    fn extended_policy_set_builds() {
        // The paper sketches "an extended database with potentially 8-10
        // replacement policies"; the builder supports any registered policy.
        let db = TraceDatabaseBuilder::new()
            .workloads(["lbm"])
            .policies(["lru", "belady", "ship", "hawkeye", "mockingjay", "drrip", "dip", "lip"])
            .scale(Scale::Tiny)
            .build();
        assert_eq!(db.len(), 8);
        assert_eq!(db.policies().len(), 8);
        for entry in db.entries() {
            assert!(!entry.frame.is_empty(), "{} has rows", entry.id);
            assert!(entry.metadata.contains("miss rate"));
        }
    }

    #[test]
    fn extended_workload_set_builds() {
        let db = TraceDatabaseBuilder::new()
            .workloads(["bzip2", "milc"])
            .policies(["lru"])
            .scale(Scale::Tiny)
            .build();
        assert_eq!(db.workloads(), vec!["bzip2", "milc"]);
        let entry = db.get("bzip2_evictions_lru").unwrap();
        let pc = entry.frame.rows()[0].pc;
        assert!(entry.frame.function_name(pc).is_some(), "bzip2 PCs map to code");
    }

    #[test]
    #[should_panic(expected = "unknown policy")]
    fn unknown_policy_panics() {
        let _ = TraceDatabaseBuilder::new()
            .workloads(["mcf"])
            .policies(["optimal-prime"])
            .scale(Scale::Tiny)
            .build();
    }

    #[test]
    fn unknown_names_surface_as_errors_not_panics() {
        let err = TraceDatabaseBuilder::new()
            .workloads(["mcf"])
            .policies(["optimal-prime"])
            .scale(Scale::Tiny)
            .try_build()
            .unwrap_err();
        assert_eq!(err, BuildError::UnknownPolicy("optimal-prime".into()));
        assert_eq!(err.to_string(), "unknown policy \"optimal-prime\"");

        let err = TraceDatabaseBuilder::new()
            .workloads(["spectre"])
            .policies(["lru"])
            .scale(Scale::Tiny)
            .try_build_sharded()
            .unwrap_err();
        assert_eq!(err, BuildError::UnknownWorkload("spectre".into()));

        // Documented order: workloads are validated before policies.
        let err = TraceDatabaseBuilder::new()
            .workloads(["mcf", "spectre"])
            .policies(["optimal-prime"])
            .scale(Scale::Tiny)
            .try_build()
            .unwrap_err();
        assert_eq!(err, BuildError::UnknownWorkload("spectre".into()));
    }

    #[test]
    fn parallel_build_matches_serial_reference() {
        let make = || {
            TraceDatabaseBuilder::new()
                .workloads(["mcf", "lbm"])
                .policies(["lru", "belady"])
                .scale(Scale::Tiny)
        };
        let serial = make().build_serial().expect("serial build");
        for shards in [1usize, 3, 16] {
            let parallel = make().shards(shards).try_build().expect("parallel build");
            assert_eq!(parallel.len(), serial.len());
            for (a, b) in parallel.entries().zip(serial.entries()) {
                assert_eq!(a.id, b.id);
                assert_eq!(a.metadata, b.metadata);
                assert_eq!(a.description, b.description);
                assert_eq!(a.frame.rows(), b.frame.rows(), "{} rows diverge", a.id);
            }
            assert_eq!(parallel.llc_config(), serial.llc_config());
        }
    }

    #[test]
    fn snapshot_sampling_reduces_stored_context() {
        let full = TraceDatabaseBuilder::new()
            .workloads(["mcf"])
            .policies(["lru"])
            .scale(Scale::Tiny)
            .build();
        let sampled = TraceDatabaseBuilder::new()
            .workloads(["mcf"])
            .policies(["lru"])
            .scale(Scale::Tiny)
            .keep_snapshots_every(16)
            .build();
        let count_hist = |db: &TraceDatabase| {
            db.get("mcf_evictions_lru")
                .unwrap()
                .frame
                .rows()
                .iter()
                .filter(|r| !r.access_history.is_empty())
                .count()
        };
        assert!(count_hist(&sampled) < count_hist(&full));
    }
}
