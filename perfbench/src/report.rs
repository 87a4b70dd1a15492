//! The metric vocabulary and the result a run prints.
//!
//! Every run prints every end-to-end metric (untraced) or every per-layer
//! metric (traced), in the units listed here; `BENCHMARK.json` names the
//! same metrics. A per-layer metric of a layer the workload does not
//! exercise reads 0.

use std::collections::BTreeMap;

use serde_json::Value;

/// End-to-end metrics: what a user of the system sees.
pub const END_TO_END: [(&str, &str); 7] = [
    ("throughput_qps", "1/s"),
    ("latency_p50_us", "us"),
    ("latency_p99_us", "us"),
    ("success_pct", "%"),
    ("accuracy_pct", "%"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Every policy a sweep grid can draw, for the per-policy replay times.
pub const POLICIES: [&str; 16] = [
    "belady",
    "bip",
    "brrip",
    "dip",
    "drrip",
    "fifo",
    "hawkeye",
    "lip",
    "lru",
    "mlp",
    "mockingjay",
    "mru",
    "parrot",
    "random",
    "ship",
    "srrip",
];

/// Per-layer metrics from the traced run (the per-policy replay times
/// follow from [`POLICIES`]).
pub const PER_LAYER: [(&str, &str); 40] = [
    ("serve.protocol.parse_us", "us"),
    ("serve.protocol.render_us", "us"),
    ("serve.engine.serve_line_us", "us"),
    ("serve.engine.serve_line_p99_us", "us"),
    ("serve.engine.coverage", "ratio"),
    ("serve.net.first_reply_us", "us"),
    ("serve.net.overhead_us", "us"),
    ("serve.net.connections", "count"),
    ("serve.net.refused", "count"),
    ("core.answer_cache.hit_share", "ratio"),
    ("core.answer_cache.lookups", "count"),
    ("core.answer_cache.entries", "count"),
    ("core.answer_cache.get_us", "us"),
    ("lang.intent.parse_us", "us"),
    ("lang.prompt.render_us", "us"),
    ("lang.generate_us", "us"),
    ("retrieval.retrieve_us", "us"),
    ("retrieval.retrieve_p99_us", "us"),
    ("retrieval.retrieve_self_us", "us"),
    ("retrieval.ranger.compile_us", "us"),
    ("retrieval.plan.run_us", "us"),
    ("retrieval.plan.run_p99_us", "us"),
    ("retrieval.facts", "count"),
    ("retrieval.probe_success_pct", "%"),
    ("tracedb.store.calls", "count"),
    ("tracedb.store_us", "us"),
    ("tracedb.snapshot.verify_s", "s"),
    ("tracedb.snapshot.decode_s", "s"),
    ("tracedb.snapshot.bytes", "bytes"),
    ("workloads.generate_s", "s"),
    ("sim.transform_s", "s"),
    ("sim.prepare_s", "s"),
    ("sim.replay_s", "s"),
    ("sim.replay_accesses_per_s", "1/s"),
    ("sim.llc_accesses", "count"),
    ("sim.llc_misses", "count"),
    ("trace.overhead_us", "us"),
    ("trace.overhead_s", "s"),
    ("trace.spans", "count"),
    ("trace.requests", "count"),
];

/// Every per-layer metric name with its unit, per-policy replay times
/// included.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> =
        PER_LAYER.iter().map(|(n, u)| ((*n).to_owned(), *u)).collect();
    out.extend(POLICIES.iter().map(|p| (format!("sim.replay_s.{p}"), "s")));
    out
}

/// What a workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Failed output checks; the run is correct only when this is empty.
    pub problems: Vec<String>,
    pub metrics: BTreeMap<String, f64>,
    /// Input properties and other context printed with the result.
    pub details: BTreeMap<String, Value>,
}

impl Outcome {
    pub fn metric(&mut self, name: &str, value: f64) {
        self.metrics.insert(name.to_owned(), value);
    }

    pub fn detail(&mut self, name: &str, value: impl Into<Value>) {
        self.details.insert(name.to_owned(), value.into());
    }

    /// Records a failed check (keeping the first few messages per run).
    pub fn problem(&mut self, message: impl Into<String>) {
        if self.problems.len() < 20 {
            self.problems.push(message.into());
        }
    }

    /// Records a failed check unless `ok`.
    pub fn check(&mut self, ok: bool, message: impl FnOnce() -> String) {
        if !ok {
            self.problem(message());
        }
    }

    /// The details line: input properties, check results and every
    /// measured number under its own name.
    pub fn details_line(&self, workload: &str, trace: bool) -> String {
        let mut root = Value::object();
        root.insert("workload", Value::from(workload));
        root.insert("trace", Value::from(trace));
        let mut details = Value::object();
        for (k, v) in &self.details {
            details.insert(k, v.clone());
        }
        root.insert("details", details);
        let mut measured = Value::object();
        for (k, v) in &self.metrics {
            measured.insert(k, Value::from(*v));
        }
        root.insert("measured", measured);
        root.insert(
            "problems",
            Value::Array(self.problems.iter().map(|p| Value::from(p.as_str())).collect()),
        );
        root.to_string()
    }

    /// The result line: `correct`, `attempted`, `failed` and the metric
    /// set of the run kind, each with its unit. An end-to-end metric the
    /// workload failed to produce is itself a failed check.
    pub fn result_line(&mut self, trace: bool) -> String {
        let names: Vec<(String, &str)> = if trace {
            per_layer()
        } else {
            END_TO_END.iter().map(|(n, u)| ((*n).to_owned(), *u)).collect()
        };
        let mut metrics = Value::object();
        for (name, unit) in names {
            let value = match self.metrics.get(&name) {
                Some(v) if v.is_finite() => *v,
                _ if trace => 0.0,
                _ => {
                    self.problem(format!("end-to-end metric {name} was not measured"));
                    0.0
                }
            };
            let mut entry = Value::object();
            entry.insert("value", Value::from(value));
            entry.insert("unit", Value::from(unit));
            metrics.insert(&name, entry);
        }
        let mut root = Value::object();
        root.insert("correct", Value::from(self.problems.is_empty()));
        root.insert("attempted", Value::from(self.attempted.max(1)));
        root.insert("failed", Value::from(self.failed));
        root.insert("metrics", metrics);
        root.to_string()
    }
}
