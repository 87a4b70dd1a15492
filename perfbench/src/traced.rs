//! Per-layer metrics derived from the spans of a traced ask run (shared
//! by qa-grounded and chat-tcp).

use std::collections::HashSet;

use crate::pipeline::{
    CACHE_GET, COMPILE, GENERATE, INTENT, PARSE, PIPELINE, PLAN_RUN, PROMPT, RENDER, RETRIEVE,
    SERVE_LINE,
};
use crate::report::Outcome;
use crate::stats::{median_of, tail_of};
use crate::store::STORE_SPAN;
use crate::trace::{coverage, durations_us, self_times, Span};

/// Fills the ask-path per-layer metrics. `hit_requests` are the requests
/// whose answer-cache lookup hit; `facts` the fact count of every
/// retrieved context.
pub fn ask_layers(spans: &[Span], hit_requests: &HashSet<u64>, facts: &[f64], out: &mut Outcome) {
    let p50 = |name: &str| median_of(&durations_us(spans, name));
    let p99 = |name: &str| tail_of(&durations_us(spans, name));
    out.metric("serve.protocol.parse_us", p50(PARSE));
    out.metric("serve.protocol.render_us", p50(RENDER));
    out.metric("serve.engine.serve_line_us", p50(SERVE_LINE));
    out.metric("serve.engine.serve_line_p99_us", p99(SERVE_LINE));
    out.metric("serve.engine.coverage", median_of(&coverage(spans, SERVE_LINE, PIPELINE)));
    out.metric("lang.intent.parse_us", p50(INTENT));
    out.metric("lang.prompt.render_us", p50(PROMPT));
    out.metric("lang.generate_us", p50(GENERATE));
    out.metric("retrieval.retrieve_us", p50(RETRIEVE));
    out.metric("retrieval.retrieve_p99_us", p99(RETRIEVE));
    out.metric("retrieval.ranger.compile_us", p50(COMPILE));
    out.metric("retrieval.plan.run_us", p50(PLAN_RUN));
    out.metric("retrieval.plan.run_p99_us", p99(PLAN_RUN));
    out.metric("retrieval.facts", facts.iter().sum::<f64>() / facts.len().max(1) as f64);

    // The cache lookup the workload exercises: hits where there are any
    // (chat-tcp), otherwise the misses of a distinct-question stream.
    let gets: Vec<&Span> = spans.iter().filter(|s| s.name == CACHE_GET).collect();
    let hits: Vec<f64> =
        gets.iter().filter(|s| hit_requests.contains(&s.request)).map(|s| s.micros()).collect();
    let all: Vec<f64> = gets.iter().map(|s| s.micros()).collect();
    out.metric("core.answer_cache.get_us", median_of(if hits.is_empty() { &all } else { &hits }));

    let selfs = self_times(spans);
    let retrieve_self: Vec<f64> = spans
        .iter()
        .zip(&selfs)
        .filter(|(s, _)| s.name == RETRIEVE)
        .map(|(_, &ns)| ns as f64 / 1e3)
        .collect();
    out.metric("retrieval.retrieve_self_us", median_of(&retrieve_self));

    // Store calls made on the traced path, per traced ask (the Ranger
    // stage probe outside the pipeline span is not counted).
    let pipeline_requests: HashSet<u64> =
        spans.iter().filter(|s| s.name == PIPELINE).map(|s| s.request).collect();
    let asks = pipeline_requests.len().max(1) as f64;
    let in_pipeline = |span: &Span| {
        let mut parent = span.parent;
        while let Some(p) = parent {
            if spans[p].name == PIPELINE {
                return true;
            }
            parent = spans[p].parent;
        }
        false
    };
    let store: Vec<&Span> =
        spans.iter().filter(|s| s.name == STORE_SPAN && in_pipeline(s)).collect();
    out.metric("tracedb.store.calls", store.len() as f64 / asks);
    out.metric("tracedb.store_us", store.iter().map(|s| s.micros()).sum::<f64>() / asks);

    out.metric("trace.overhead_us", p50(PIPELINE) - p50(SERVE_LINE));
    out.metric("trace.spans", spans.len() as f64);
    out.metric("trace.requests", pipeline_requests.len() as f64);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, request: u64, start: u64, end: u64) -> Span {
        Span { name: name.into(), request, parent: None, start_ns: start, end_ns: end }
    }

    #[test]
    fn cache_get_time_is_taken_from_hits_when_there_are_any() {
        let spans = vec![
            span(CACHE_GET, 1, 0, 9_000),
            span(CACHE_GET, 2, 0, 1_000),
            span(CACHE_GET, 3, 0, 3_000),
        ];
        let mut out = Outcome::default();
        ask_layers(&spans, &HashSet::from([2, 3]), &[], &mut out);
        assert_eq!(out.metrics["core.answer_cache.get_us"], 2.0);
        // A stream without hits (qa-grounded) reports its misses.
        let mut out = Outcome::default();
        ask_layers(&spans, &HashSet::new(), &[], &mut out);
        assert_eq!(out.metrics["core.answer_cache.get_us"], 3.0);
    }
}
