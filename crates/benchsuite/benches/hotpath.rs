//! The workspace's one criterion suite: the replay hot path, then the
//! retrieval layer and the design-choice ablations.
//!
//! Replay layers, innermost first, so a regression can be localised at a
//! glance (see `docs/PERFORMANCE.md` for how to read the trajectory):
//!
//! * `cache_access` — raw [`SetAssociativeCache`] probe/fill throughput
//!   under LRU, no oracle, no record bookkeeping: the floor every other
//!   number sits on.
//! * `cell_replay` — one full scenario cell on the record-free
//!   [`LlcReplay::run_summary`] fast path, per policy. The prepared replay
//!   (stream + reuse oracle) is built once outside the timing loop, exactly
//!   as `ScenarioGrid` stage 2 sees it.
//! * `llc_replay/lru_annotated` — the same LRU cell on the record-emitting
//!   [`LlcReplay::run`] path the trace database keeps.
//! * `scenario_prepare` — stage 1 for one `(workload, machine)` triple:
//!   hierarchy filter plus oracle construction, the policy-independent cost
//!   every cell amortises.
//! * `tracedb_build` — the end-to-end `quick_demo` trace-database build,
//!   the closest proxy for the serve path's cold start.
//!
//! Above the replay, over a `quick_demo` database:
//!
//! * `retrieval_latency/<retriever>/hitmiss` — Sieve, Ranger and the dense
//!   index answering one hit/miss question (the Figure 9 latency column);
//! * `intent_parse` — question text to [`QueryIntent`];
//! * the ablations DESIGN.md calls out: `sieve_semantic` and
//!   `ranger_schema` (on/off), `embedding_dims` (16/64/256) and
//!   `record_history_len` (2/8/32, ptrchase on the annotated path).
//!
//! Run with `cargo bench -p cachemind-benchsuite --bench hotpath`.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

use cachemind_lang::embed::HashedEmbedder;
use cachemind_lang::intent::QueryIntent;
use cachemind_retrieval::dense::DenseIndexRetriever;
use cachemind_retrieval::ranger::RangerRetriever;
use cachemind_retrieval::retriever::Retriever;
use cachemind_retrieval::sieve::SieveRetriever;
use cachemind_sim::cache::SetAssociativeCache;
use cachemind_sim::config::{CacheConfig, HierarchyConfig, MachineConfig};
use cachemind_sim::replacement::{AccessContext, RecencyPolicy};
use cachemind_sim::replay::LlcReplay;
use cachemind_sim::sweep::prepare_scenario;
use cachemind_tracedb::{TraceDatabase, TraceDatabaseBuilder};
use cachemind_workloads::{by_name, Scale};

/// The LLC geometry the trace database replays against: 256 sets x 8 ways.
fn bench_llc() -> CacheConfig {
    CacheConfig::new("LLC", 8, 8, 6).with_latency(26).with_mshr(64)
}

fn mcf_stream() -> (Vec<cachemind_sim::access::MemoryAccess>, u64) {
    let w = by_name("mcf", Scale::Small).expect("mcf generator");
    (w.accesses, w.instr_count)
}

fn cache_access(c: &mut Criterion) {
    let (stream, _) = mcf_stream();
    let config = bench_llc();
    let mut group = c.benchmark_group("cache_access");
    group.throughput(Throughput::Elements(stream.len() as u64));
    group.bench_function("lru_probe_fill", |b| {
        b.iter(|| {
            let mut cache = SetAssociativeCache::new(config.clone(), RecencyPolicy::lru());
            for (i, a) in stream.iter().enumerate() {
                let set = cache.set_of(a.address);
                black_box(cache.access(&AccessContext::demand(i as u64, a, set)));
            }
            cache.stats().hits
        });
    });
    group.finish();
}

fn cell_replay(c: &mut Criterion) {
    let (stream, _) = mcf_stream();
    let replay = LlcReplay::new(bench_llc(), &stream);
    let mut group = c.benchmark_group("cell_replay");
    group.throughput(Throughput::Elements(replay.stream().len() as u64));
    for policy in ["lru", "srrip", "ship", "belady", "mockingjay"] {
        group.bench_function(policy, |b| {
            b.iter(|| {
                let p = cachemind_policies::by_name(policy).expect("known policy");
                black_box(replay.run_summary(p).stats.hits)
            });
        });
    }
    group.finish();

    let mut group = c.benchmark_group("llc_replay");
    group.throughput(Throughput::Elements(replay.stream().len() as u64));
    group.bench_function("lru_annotated", |b| {
        b.iter(|| black_box(replay.run(RecencyPolicy::lru()).records.len()))
    });
    group.finish();
}

fn scenario_prepare(c: &mut Criterion) {
    let (stream, instr_count) = mcf_stream();
    let machine = MachineConfig::new("table2", HierarchyConfig::table2());
    let mut group = c.benchmark_group("scenario_prepare");
    group.throughput(Throughput::Elements(stream.len() as u64));
    group.bench_function("mcf_table2", |b| {
        b.iter(|| {
            let prepared = prepare_scenario(&machine, &stream, instr_count);
            black_box(prepared.replay.stream().len())
        });
    });
    group.finish();
}

fn prepare_split(c: &mut Criterion) {
    use cachemind_sim::hierarchy::CacheHierarchy;
    let (stream, instr_count) = mcf_stream();
    let machine = MachineConfig::new("table2", HierarchyConfig::table2());
    let mut group = c.benchmark_group("prepare_split");
    group.throughput(Throughput::Elements(stream.len() as u64));
    group.bench_function("hierarchy_run", |b| {
        b.iter(|| {
            let mut h = CacheHierarchy::new(machine.hierarchy.clone());
            black_box(h.run(&stream, instr_count).llc_stream.len())
        });
    });
    let mut h = CacheHierarchy::new(machine.hierarchy.clone());
    let llc_stream = h.run(&stream, instr_count).llc_stream;
    group.bench_function("oracle_build", |b| {
        b.iter(|| {
            black_box(
                LlcReplay::from_stream(machine.hierarchy.llc.clone(), llc_stream.clone())
                    .oracle()
                    .num_lines(),
            )
        });
    });
    group.bench_function("hierarchy_alloc", |b| {
        b.iter(|| {
            black_box(CacheHierarchy::new(machine.hierarchy.clone()).config().dram.latency_cycles)
        });
    });
    group.finish();
}

fn tracedb_build(c: &mut Criterion) {
    let mut group = c.benchmark_group("tracedb_build");
    group.bench_function("quick_demo", |b| {
        b.iter(|| black_box(TraceDatabaseBuilder::quick_demo().build().len()));
    });
    group.finish();
}

/// Parses `question` against the workloads and policies `db` holds.
fn intent(db: &TraceDatabase, question: &str) -> QueryIntent {
    let workloads = db.workloads();
    let policies = db.policies();
    QueryIntent::parse(
        question,
        &workloads.iter().map(String::as_str).collect::<Vec<_>>(),
        &policies.iter().map(String::as_str).collect::<Vec<_>>(),
    )
}

fn retrieval(c: &mut Criterion) {
    let db = TraceDatabaseBuilder::quick_demo().build();
    let row = db.get("mcf_evictions_lru").expect("trace").frame.rows()[10].clone();
    let hitmiss = intent(
        &db,
        &format!(
            "Does the memory access with PC {} and address {} result in a cache hit or miss \
             for the mcf workload and LRU replacement policy?",
            row.pc, row.address
        ),
    );
    let retrievers: [(&str, Box<dyn Retriever>); 3] = [
        ("sieve", Box::new(SieveRetriever::new())),
        ("ranger", Box::new(RangerRetriever::new())),
        ("dense", Box::new(DenseIndexRetriever::build(&db, 4))),
    ];
    let mut group = c.benchmark_group("retrieval_latency");
    for (name, retriever) in &retrievers {
        group.bench_function(BenchmarkId::new(*name, "hitmiss"), |b| {
            b.iter(|| retriever.retrieve(&db, &hitmiss))
        });
    }
    group.finish();

    let q = "Which policy has the lowest miss rate for PC 0x409270 in astar?";
    c.bench_function("intent_parse", |b| {
        b.iter(|| {
            QueryIntent::parse(q, &["astar", "lbm", "mcf"], &["belady", "lru", "mlp", "parrot"])
        })
    });

    let miss_rate = intent(&db, "What is the overall miss rate of the mcf workload under LRU?");
    let mut group = c.benchmark_group("sieve_semantic");
    let (on, off) = (SieveRetriever::new(), SieveRetriever::new().without_semantic());
    group.bench_function("on", |b| b.iter(|| on.retrieve(&db, &miss_rate)));
    group.bench_function("off", |b| b.iter(|| off.retrieve(&db, &miss_rate)));
    group.finish();

    let reuse =
        intent(&db, "What is the average evicted reuse distance for the lbm workload with LRU?");
    let mut group = c.benchmark_group("ranger_schema");
    let (on, off) = (RangerRetriever::new(), RangerRetriever::new().without_schema());
    group.bench_function("on", |b| b.iter(|| on.retrieve(&db, &reuse)));
    group.bench_function("off", |b| b.iter(|| off.retrieve(&db, &reuse)));
    group.finish();
}

fn ablations(c: &mut Criterion) {
    let text = "TRACE_ID: astar_evictions_lru program_counter=0x409538 \
                memory_address=0x2bfd401b693 evict=Cache Miss";
    let mut group = c.benchmark_group("embedding_dims");
    for dims in [16usize, 64, 256] {
        let embedder = HashedEmbedder::new(dims);
        group
            .bench_function(BenchmarkId::from_parameter(dims), |b| b.iter(|| embedder.embed(text)));
    }
    group.finish();

    let workload = by_name("ptrchase", Scale::Tiny).expect("ptrchase generator");
    let mut group = c.benchmark_group("record_history_len");
    for len in [2usize, 8, 32] {
        let replay = LlcReplay::new(CacheConfig::new("LLC", 8, 8, 6), &workload.accesses)
            .with_history_len(len);
        group.bench_function(BenchmarkId::from_parameter(len), |b| {
            b.iter(|| replay.run(RecencyPolicy::lru()))
        });
    }
    group.finish();
}

criterion_group!(
    hotpath,
    cache_access,
    cell_replay,
    scenario_prepare,
    prepare_split,
    tracedb_build,
    retrieval,
    ablations
);
criterion_main!(hotpath);
