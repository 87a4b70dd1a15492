//! `sweep-small`: `ScenarioGrid::run` over Small-scale streams with two
//! rayon workers, in the CI grid's shape (4 workloads × {table2, small} ×
//! {none, nextline, stride4} × 5 policies = 120 cells). The seed draws
//! which workloads and policies fill it. All of the work is stream
//! preparation and policy replay; nothing is served.

use std::path::Path;
use std::time::{Duration, Instant};

use cachemind_sim::config::MachineConfig;
use cachemind_sim::prefetch::PrefetcherKind;
use cachemind_sim::sweep::{
    prepare_scenario, transform_stream, ScenarioGrid, ScenarioReport, SweepStream,
};
use cachemind_workloads::workload::Scale;
use serde_json::Value;

use crate::inputs::{read_grid, sweep_grid, write_grid, GridSpec};
use crate::report::Outcome;
use crate::stats::{median, median_of, peak_rss_mb, sorted, tail, StealMeter};
use crate::trace::{total_s, Recorder};

/// Stream generations per run; `setup_s` is their median.
const SETUP_REPS: usize = 31;

const GRID: &str = "grid.txt";

pub fn generate(dir: &Path, seed: u64) -> Result<(), String> {
    write_grid(&dir.join(GRID), &sweep_grid(seed)).map_err(|e| e.to_string())
}

/// Generates the access streams of the grid's workloads.
fn streams(spec: &GridSpec, recorder: Option<&Recorder>) -> Result<Vec<SweepStream>, String> {
    spec.workloads
        .iter()
        .map(|name| {
            let generate = || cachemind_workloads::by_name(name, Scale::Small);
            let workload = match recorder {
                Some(r) => r.time("workloads.generate", generate),
                None => generate(),
            }
            .ok_or_else(|| format!("unknown workload {name:?}"))?;
            Ok(SweepStream::new(workload.name, workload.accesses)
                .with_instr_count(workload.instr_count))
        })
        .collect()
}

fn build_grid(spec: &GridSpec, streams: Vec<SweepStream>) -> Result<ScenarioGrid, String> {
    let machines = spec
        .machines
        .iter()
        .map(|m| MachineConfig::preset(m).ok_or_else(|| format!("unknown machine {m:?}")))
        .collect::<Result<Vec<_>, _>>()?;
    let prefetchers = spec
        .prefetchers
        .iter()
        .map(|p| PrefetcherKind::parse(p).ok_or_else(|| format!("unknown prefetcher {p:?}")))
        .collect::<Result<Vec<_>, _>>()?;
    Ok(ScenarioGrid {
        policies: spec.policies.clone(),
        streams,
        machines,
        prefetchers,
        mlp_override: None,
    })
}

/// A cell's simulated counts, keyed by (workload, machine, prefetcher,
/// policy), in one comparable line.
type CellCounts = Vec<(String, String)>;

fn report_counts(report: &ScenarioReport) -> CellCounts {
    report
        .cells
        .iter()
        .map(|c| {
            (
                format!("{} {} {} {}", c.workload, c.machine, c.prefetcher, c.policy),
                format!(
                    "{} {} {} {} {} {} {} {} {} {} {} {}",
                    c.accesses,
                    c.hits,
                    c.misses,
                    c.demand_misses,
                    c.compulsory_misses,
                    c.capacity_misses,
                    c.conflict_misses,
                    c.wrong_evictions,
                    c.evictions,
                    c.prefetches,
                    c.prefetch_fills,
                    c.useful_prefetches
                ),
            )
        })
        .collect()
}

/// The grid's cells computed one call at a time — transform, prepare,
/// replay — with no parallelism and nothing shared with
/// `ScenarioGrid::run` but the public functions themselves. With a
/// recorder, each call is a span.
fn serial_counts(grid: &ScenarioGrid, recorder: Option<&Recorder>) -> Result<CellCounts, String> {
    fn timed<T>(recorder: Option<&Recorder>, name: String, f: impl FnOnce() -> T) -> T {
        match recorder {
            Some(r) => r.time(name, f),
            None => f(),
        }
    }
    let mut out = Vec::new();
    for stream in &grid.streams {
        for prefetcher in &grid.prefetchers {
            let transformed = timed(recorder, "sim.transform".into(), || {
                transform_stream(*prefetcher, &stream.accesses)
            });
            let accesses = transformed.as_deref().unwrap_or(&stream.accesses);
            for machine in &grid.machines {
                let prepared = timed(recorder, "sim.prepare".into(), || {
                    prepare_scenario(machine, accesses, stream.instr_count)
                });
                for policy in &grid.policies {
                    let replacement = cachemind_policies::by_name(policy)
                        .ok_or_else(|| format!("unknown policy {policy:?}"))?;
                    let summary = timed(recorder, format!("sim.replay.{policy}"), || {
                        prepared.replay.run_summary(replacement)
                    });
                    // Full machines count prefetch usefulness in the
                    // hierarchy (an L1 hit consumes a useful prefetch the
                    // LLC replay never sees); LLC-only machines in the
                    // replay.
                    let (fills, useful) = match &prepared.hierarchy {
                        Some(h) => (h.prefetch_fills, h.useful_prefetches),
                        None => (summary.prefetch_fills, summary.useful_prefetches),
                    };
                    let s = &summary.stats;
                    out.push((
                        format!(
                            "{} {} {} {policy}",
                            stream.name,
                            machine.machine_label(),
                            prefetcher.label()
                        ),
                        format!(
                            "{} {} {} {} {} {} {} {} {} {} {fills} {useful}",
                            s.accesses,
                            s.hits,
                            s.misses,
                            s.demand_misses,
                            summary.compulsory_misses,
                            summary.capacity_misses,
                            summary.conflict_misses,
                            summary.wrong_evictions,
                            s.evictions,
                            s.prefetches,
                        ),
                    ));
                }
            }
        }
    }
    out.sort();
    Ok(out)
}

/// Checks `got` against `want` cell by cell; returns matching cells.
fn compare(got: &CellCounts, want: &CellCounts, what: &str, out: &mut Outcome) -> u64 {
    let mut sorted_got = got.clone();
    sorted_got.sort();
    let mut matching = 0;
    for (g, w) in sorted_got.iter().zip(want) {
        if g == w {
            matching += 1;
        } else {
            out.problem(format!(
                "{what}: cell {} has counts {} but {} expects {}",
                g.0, g.1, w.0, w.1
            ));
        }
    }
    out.check(sorted_got.len() == want.len(), || {
        format!("{what}: {} cells against {}", sorted_got.len(), want.len())
    });
    matching
}

fn cell_list(spec: &GridSpec) -> Value {
    let mut value = Value::object();
    for (axis, list) in [
        ("workloads", &spec.workloads),
        ("machines", &spec.machines),
        ("prefetchers", &spec.prefetchers),
        ("policies", &spec.policies),
    ] {
        value.insert(axis, Value::Array(list.iter().map(|s| Value::from(s.as_str())).collect()));
    }
    value
}

pub fn run(dir: &Path, seconds: f64, out: &mut Outcome) -> Result<(), String> {
    let spec = read_grid(&dir.join(GRID))?;
    let mut setups = Vec::new();
    let mut generated = None;
    for _ in 0..SETUP_REPS {
        drop(generated.take());
        let started = Instant::now();
        generated = Some(streams(&spec, None)?);
        setups.push(started.elapsed().as_secs_f64());
    }
    let grid = build_grid(&spec, generated.expect("at least one set-up"))?;
    let expected_cells = grid.cells() as u64;

    // The measured phase: whole grid runs until the deadline. Every run
    // must reproduce the first one exactly.
    let steal = StealMeter::start();
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut walls = Vec::new();
    let mut first: Option<ScenarioReport> = None;
    let mut cells = 0u64;
    let mut differing_runs = 0u64;
    while walls.is_empty() || Instant::now() < deadline {
        let started = Instant::now();
        let report = grid.run(cachemind_policies::by_name).map_err(|e| e.to_string())?;
        walls.push(started.elapsed().as_secs_f64());
        cells += report.cells.len() as u64;
        match &first {
            None => first = Some(report),
            Some(f) => differing_runs += u64::from(*f != report),
        }
    }
    let peak = peak_rss_mb();
    out.detail("cpu_steal_share", steal.finish());
    let report = first.expect("at least one grid run");

    out.attempted = walls.len() as u64 * expected_cells;
    out.failed = out.attempted - cells;
    let missing = out.failed;
    out.check(missing == 0, || format!("{missing} cells missing from grid reports"));
    out.check(differing_runs == 0, || format!("{differing_runs} grid runs differ from the first"));
    let reference = serial_counts(&grid, None)?;
    let matching = compare(&report_counts(&report), &reference, "grid vs serial", out);

    let micros = sorted(&walls.iter().map(|w| w * 1e6).collect::<Vec<_>>());
    let tail = tail(&micros).unwrap_or_default();
    out.metric("throughput_qps", cells as f64 / walls.iter().sum::<f64>());
    out.metric("latency_p50_us", median(&micros).unwrap_or(0.0));
    out.metric("latency_p99_us", tail.value);
    out.metric("success_pct", 100.0 * cells as f64 / out.attempted.max(1) as f64);
    out.metric("accuracy_pct", 100.0 * matching as f64 / expected_cells.max(1) as f64);
    out.metric("setup_s", median_of(&setups));
    out.metric("peak_rss_mb", peak);

    out.detail("sweep_cells_per_s", cells as f64 / walls.iter().sum::<f64>());
    out.detail("grid_runs", walls.len() as u64);
    out.detail("cells", cells);
    out.detail("latency_tail_percentile", tail.percentile);
    out.detail("latency_samples", tail.samples as u64);
    out.detail("setup_samples_s", Value::Array(setups.iter().map(|s| Value::from(*s)).collect()));
    out.detail("cell_list", cell_list(&spec));
    out.detail("llc_accesses", report.cells.iter().map(|c| c.accesses).sum::<u64>());
    out.detail("error_share", crate::stats::share(out.failed, out.attempted));
    Ok(())
}

/// The traced run: generate → transform → prepare → replay one call at a
/// time inside spans, after an untraced serial pass of the same calls
/// (the overhead baseline) and an untraced `ScenarioGrid::run` whose
/// counts the traced cells must reproduce exactly.
pub fn run_traced(
    dir: &Path,
    seconds: f64,
    spans_path: Option<&Path>,
    out: &mut Outcome,
) -> Result<(), String> {
    let spec = read_grid(&dir.join(GRID))?;
    let grid = build_grid(&spec, streams(&spec, None)?)?;
    let report = grid.run(cachemind_policies::by_name).map_err(|e| e.to_string())?;

    let started = Instant::now();
    let untraced = serial_counts(&grid, None)?;
    let untraced_s = started.elapsed().as_secs_f64();

    // Traced passes repeat until the time budget is spent; each must
    // reproduce the grid's counts.
    let recorder = Recorder::default();
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut passes = 0u64;
    let mut traced_s = Vec::new();
    let mut counts = Vec::new();
    while passes == 0 || Instant::now() < deadline {
        recorder.set_request(passes);
        let started = Instant::now();
        let traced = {
            let _pass = recorder.span("sweep.pass");
            let traced_grid = build_grid(&spec, streams(&spec, Some(&recorder))?)?;
            serial_counts(&traced_grid, Some(&recorder))?
        };
        traced_s.push(started.elapsed().as_secs_f64());
        counts = traced;
        passes += 1;
    }
    let mut want = report_counts(&report);
    want.sort();
    let matching = compare(&counts, &want, "traced vs grid", out);
    compare(&untraced, &want, "serial vs grid", out);
    out.attempted = passes * grid.cells() as u64;
    out.failed = grid.cells() as u64 - matching;

    let spans = recorder.spans();
    let per_pass = |name: &str| total_s(&spans, name) / passes as f64;
    let replay_s: f64 = spans
        .iter()
        .filter(|s| s.name.starts_with("sim.replay."))
        .map(|s| s.duration_ns() as f64 / 1e9)
        .sum::<f64>()
        / passes as f64;
    out.metric("workloads.generate_s", per_pass("workloads.generate"));
    out.metric("sim.transform_s", per_pass("sim.transform"));
    out.metric("sim.prepare_s", per_pass("sim.prepare"));
    out.metric("sim.replay_s", replay_s);
    for policy in &spec.policies {
        out.metric(&format!("sim.replay_s.{policy}"), per_pass(&format!("sim.replay.{policy}")));
    }
    let accesses: u64 = report.cells.iter().map(|c| c.accesses).sum();
    out.metric("sim.llc_accesses", accesses as f64);
    out.metric("sim.llc_misses", report.cells.iter().map(|c| c.misses).sum::<u64>() as f64);
    out.metric("sim.replay_accesses_per_s", accesses as f64 / replay_s);
    // Same calls, same order, with and without spans; the traced pass
    // also regenerates the streams, so that time is left out.
    out.metric(
        "trace.overhead_s",
        median_of(&traced_s) - per_pass("workloads.generate") - untraced_s,
    );
    out.metric("trace.spans", spans.len() as f64);
    out.metric("trace.requests", passes as f64);
    if let Some(path) = spans_path {
        crate::trace::write_jsonl(&spans, path).map_err(|e| e.to_string())?;
    }
    out.detail("cell_list", cell_list(&spec));
    Ok(())
}
