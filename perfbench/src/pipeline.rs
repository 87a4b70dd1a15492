//! The traced ask path: one protocol line answered by calling each
//! layer's public function in turn, as `ServeEngine::serve_line` does
//! internally — parse → answer-cache get → intent → retrieve (through the
//! timing store) → prompt → generate → cache insert → render — each call
//! inside its own span. The rendered line must equal what the engine
//! renders for the same line, byte for byte, or the breakdown would
//! describe different work.

use std::collections::HashMap;
use std::sync::Arc;

use cachemind_core::system::{Answer, CacheMind, RetrieverKind};
use cachemind_core::AnswerCache;
use cachemind_lang::generator::{Generator, GeneratorRequest, SimulatedBackend};
use cachemind_lang::profiles::BackendKind;
use cachemind_lang::prompt::PromptBuilder;
use cachemind_obs::MetricsRegistry;
use cachemind_retrieval::optimize::optimize;
use cachemind_retrieval::ranger::RangerRetriever;
use cachemind_retrieval::retriever::Retriever;
use cachemind_retrieval::sieve::SieveRetriever;
use cachemind_serve::protocol::{AskResponse, Request, Response};
use cachemind_sim::scenario::ScenarioSelector;
use cachemind_tracedb::store::TraceStore;

use crate::store::TimedStore;
use crate::trace::Recorder;

/// Span names of the layer calls.
pub const PIPELINE: &str = "pipeline";
pub const SERVE_LINE: &str = "serve.engine.serve_line";
pub const PARSE: &str = "serve.protocol.parse";
pub const RENDER: &str = "serve.protocol.render";
pub const CACHE_GET: &str = "core.answer_cache.get";
pub const CACHE_INSERT: &str = "core.answer_cache.insert";
pub const INTENT: &str = "lang.intent.parse";
pub const EXPLORE: &str = "core.explore";
pub const RETRIEVE: &str = "retrieval.retrieve";
pub const PROMPT: &str = "lang.prompt.render";
pub const GENERATE: &str = "lang.generate";
pub const COMPILE: &str = "retrieval.ranger.compile";
pub const PLAN_RUN: &str = "retrieval.plan.run";

/// What one traced ask did, beyond its spans.
#[derive(Debug, Clone, PartialEq)]
pub struct Traced {
    pub rendered: String,
    pub cache_hit: bool,
    pub facts: usize,
}

/// The layers an engine with the same configuration owns, called one by
/// one. Sessions are the engine's: the pipeline reads the session id from
/// each line and counts turns the way a session does.
pub struct Pipeline {
    recorder: Arc<Recorder>,
    store: Arc<dyn TraceStore>,
    mind: CacheMind,
    kind: RetrieverKind,
    ranger: RangerRetriever,
    sieve: SieveRetriever,
    backend: SimulatedBackend,
    cache: AnswerCache,
    turns: HashMap<u64, usize>,
}

/// The exploration commands `CacheMind` routes to the plan runtime
/// before retrieval (the keyword test its router applies).
fn is_exploration(question: &str) -> bool {
    let lower = question.to_lowercase();
    lower.contains("unique pc")
        || lower.contains("all pcs")
        || lower.contains("unique cache sets")
        || lower.contains("unique sets")
        || ((lower.contains("group") || lower.contains("cluster")) && lower.contains("variance"))
        || (lower.contains("hot") && lower.contains("cold") && lower.contains("set"))
        || lower.contains("per-pc")
        || lower.contains("per pc table")
}

impl Pipeline {
    /// A pipeline over `db`, with the serving defaults (GPT-4o backend,
    /// zero-shot, exploration routing on) and the given retriever.
    pub fn new(db: Arc<dyn TraceStore>, kind: RetrieverKind, recorder: Arc<Recorder>) -> Self {
        let store: Arc<dyn TraceStore> = Arc::new(TimedStore::new(db, Arc::clone(&recorder)));
        let registry = MetricsRegistry::new();
        let mind = CacheMind::shared(Arc::clone(&store))
            .with_retriever(kind)
            .with_backend(BackendKind::Gpt4o)
            .with_metrics(&registry);
        let cache = AnswerCache::new(&registry);
        // The fingerprint is memoized on first use, as in the engine; pay
        // it here rather than inside the first traced request.
        cache.fingerprint(&*store);
        Pipeline {
            recorder,
            store,
            mind,
            kind,
            ranger: RangerRetriever::new().with_metrics(&registry),
            sieve: SieveRetriever::new(),
            backend: SimulatedBackend::new(BackendKind::Gpt4o),
            cache,
            turns: HashMap::new(),
        }
    }

    fn retriever(&self) -> &dyn Retriever {
        match self.kind {
            RetrieverKind::Ranger => &self.ranger,
            _ => &self.sieve,
        }
    }

    /// Answers one ask line inside a `pipeline` span.
    pub fn ask(&mut self, line: &str) -> Result<Traced, String> {
        let rec = Arc::clone(&self.recorder);
        let _pipeline = rec.span(PIPELINE);
        let request = rec.time(PARSE, || Request::from_json(line));
        let Ok(Request::Ask(ask)) = request else {
            return Err(format!("not an ask line: {line}"));
        };
        let session = ask.session.ok_or("ask without a session")?;
        let selector = ask.scenario.clone().unwrap_or_else(ScenarioSelector::all);
        let key = format!(
            "{:016x}|{}|{}|{}",
            self.cache.fingerprint(&*self.store),
            selector,
            1u8,
            ask.question
        );
        let cached = rec.time(CACHE_GET, || self.cache.get(&key));
        let cache_hit = cached.is_some();
        let answer = match cached {
            Some(answer) => answer,
            None => {
                let question = ask.question.as_str();
                let intent = rec.time(INTENT, || self.mind.parse_scoped(question, &selector));
                let explored = if is_exploration(question) {
                    rec.time(EXPLORE, || self.mind.try_exploration(question))
                } else {
                    None
                };
                let answer = match explored {
                    Some(answer) => answer,
                    None => {
                        let context =
                            rec.time(RETRIEVE, || self.retriever().retrieve(&*self.store, &intent));
                        let prompt =
                            rec.time(PROMPT, || PromptBuilder::new().render(question, &context));
                        let request = GeneratorRequest {
                            question: question.to_owned(),
                            intent: intent.clone(),
                            context: context.clone(),
                            examples: Vec::new(),
                        };
                        let generated = rec.time(GENERATE, || self.backend.answer(&request));
                        Answer { text: generated.text, verdict: generated.verdict, context, prompt }
                    }
                };
                rec.time(CACHE_INSERT, || self.cache.insert(key, answer.clone()));
                answer
            }
        };
        let facts = answer.context.facts.len();
        let turn = self.turns.entry(session).or_default();
        *turn += 1;
        let response = AskResponse {
            session,
            turn: *turn,
            answer: Some(answer.text),
            verdict: Some(format!("{:?}", answer.verdict)),
            machine: None,
            prefetcher: None,
            scenario: None,
            closed: false,
            error: None,
            error_kind: None,
            micros: 0,
        };
        let rendered = rec.time(RENDER, || Response::Ask(response).to_json(false));
        Ok(Traced { rendered, cache_hit, facts })
    }

    /// Ranger's two inner stages, timed apart: compile the plan, then run
    /// the optimized plan (what `retrieve` executes) on the same store.
    /// Outside the `pipeline` span, so they do not count towards coverage.
    pub fn ranger_stages(&self, question: &str) {
        if self.kind != RetrieverKind::Ranger || is_exploration(question) {
            return;
        }
        let rec = &self.recorder;
        let intent = self.mind.parse_scoped(question, &ScenarioSelector::all());
        let plan = rec.time(COMPILE, || self.ranger.compile(&*self.store, &intent));
        if let Some(plan) = plan {
            let optimized = optimize(plan, &intent.selector);
            let scope = intent.selector.machine_scope();
            rec.time(PLAN_RUN, || optimized.run_scoped(&*self.store, &scope).map(|f| f.len()).ok());
        }
    }
}

/// The ask line for `question` in `session`.
pub fn ask_line(session: u64, question: &str) -> String {
    cachemind_serve::protocol::AskRequest::in_session(session, question).to_json()
}

pub const OPEN_LINE: &str = "{\"open\":true}";

pub fn close_line(session: u64) -> String {
    format!("{{\"close\":true,\"session\":{session}}}")
}

/// A response line re-rendered with its session id replaced and its
/// wall-clock field dropped: two servers that assign different ids answer
/// the same script with equal normalised lines.
pub fn normalise(line: &str, session: u64) -> Result<String, String> {
    let mut response = AskResponse::from_json(line).map_err(|e| format!("{e}: {line}"))?;
    response.session = session;
    response.micros = 0;
    Ok(response.to_json(false))
}

/// The session id of an `open` acknowledgement.
pub fn opened_session(line: &str) -> Result<u64, String> {
    let response = AskResponse::from_json(line).map_err(|e| format!("{e}: {line}"))?;
    match response.error_kind {
        None => Ok(response.session),
        Some(kind) => Err(format!("open refused ({kind}): {line}")),
    }
}
