//! The CacheMind system: query-first, retrieval-augmented answering.
//!
//! [`CacheMind`] holds its trace store behind an `Arc<dyn TraceStore>`, so
//! one database — monolithic or sharded — can be shared by any number of
//! concurrent sessions (the serve layer's whole premise). Answering is a
//! pure function of the question and the store, which is what makes every
//! served answer byte-identical regardless of how many requests are in
//! flight.

use std::sync::Arc;

use cachemind_lang::context::RetrievedContext;
use cachemind_lang::generator::{Generator, GeneratorAnswer, GeneratorRequest, Verdict};
use cachemind_lang::intent::QueryIntent;
use cachemind_lang::profiles::BackendKind;
use cachemind_lang::prompt::{Example, PromptBuilder};
use cachemind_lang::SimulatedBackend;
use cachemind_retrieval::dense::DenseIndexRetriever;
use cachemind_retrieval::ranger::RangerRetriever;
use cachemind_retrieval::retriever::Retriever;
use cachemind_retrieval::sieve::SieveRetriever;
use cachemind_sim::scenario::ScenarioSelector;
use cachemind_tracedb::database::TraceDatabase;
use cachemind_tracedb::store::TraceStore;

/// Which retriever the system routes queries through.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RetrieverKind {
    /// CacheMind-Sieve: symbolic–semantic filtering.
    Sieve,
    /// CacheMind-Ranger: plan generation + execution runtime.
    Ranger,
    /// The dense-embedding baseline (for comparisons).
    Dense,
}

/// Options modulating how a query is answered.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryOptions {
    /// Route the Figure 10–13 exploration vocabulary ("list all unique
    /// PCs", ...) straight to the Ranger plan runtime before the RAG
    /// pipeline. On by default; disable to force retrieval-augmented
    /// answering even for exploration commands.
    pub explore: bool,
}

impl Default for QueryOptions {
    fn default() -> Self {
        QueryOptions { explore: true }
    }
}

/// A typed query: the question text plus its scenario scope and options —
/// the primary input of [`CacheMind::ask_query`]. A bare string converts
/// into an unscoped query, which answers byte-identically to the legacy
/// [`CacheMind::ask`] path.
///
/// The selector uses the canonical scenario grammar
/// `workload@machine+prefetcher/policy` (every component optional — see
/// [`ScenarioSelector`]): its workload/policy halves act as slot
/// *defaults* for intent parsing, while its machine/prefetcher halves are
/// a hard retrieval scope, resolved against qualified trace keys
/// (`<workload>_evictions_<policy>[@machine][+prefetcher]`). Inline
/// selector tokens in the question text (`mcf@table2`, `+stride4`) win
/// per-field over this selector.
///
/// ```rust
/// use cachemind_core::system::Query;
/// use cachemind_sim::scenario::ScenarioSelector;
///
/// let query = Query::scoped(
///     "What is the estimated IPC?",
///     ScenarioSelector::parse("astar@table2+stride4/lru").unwrap(),
/// );
/// assert_eq!(query.selector.prefetcher.as_deref(), Some("stride4"));
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Query {
    /// The natural-language question.
    pub text: String,
    /// The scenario scope: slot defaults for workload/policy, a hard
    /// machine/prefetcher scope for retrieval. Inline `@machine` syntax in
    /// `text` wins per-field over this selector.
    pub selector: ScenarioSelector,
    /// Answering options.
    pub options: QueryOptions,
}

impl Query {
    /// An unscoped query.
    pub fn new(text: impl Into<String>) -> Self {
        Query { text: text.into(), ..Query::default() }
    }

    /// A query scoped by a selector.
    pub fn scoped(text: impl Into<String>, selector: ScenarioSelector) -> Self {
        Query { text: text.into(), selector, options: QueryOptions::default() }
    }

    /// Replaces the selector.
    pub fn with_selector(mut self, selector: ScenarioSelector) -> Self {
        self.selector = selector;
        self
    }

    /// Replaces the options.
    pub fn with_options(mut self, options: QueryOptions) -> Self {
        self.options = options;
        self
    }
}

impl From<&str> for Query {
    fn from(text: &str) -> Self {
        Query::new(text)
    }
}

impl From<String> for Query {
    fn from(text: String) -> Self {
        Query::new(text)
    }
}

/// A grounded answer: text, verdict and the evidence behind it.
#[derive(Debug, Clone)]
pub struct Answer {
    /// Natural-language answer.
    pub text: String,
    /// Machine-checkable verdict.
    pub verdict: Verdict,
    /// The retrieved context the answer is grounded in.
    pub context: RetrievedContext,
    /// The full prompt that was rendered for the generator.
    pub prompt: String,
}

/// The CacheMind system.
///
/// Owns a shared handle to the trace store, a retriever and a generator
/// backend; turning a natural-language question into a trace-grounded
/// answer is one [`CacheMind::ask`] call.
#[derive(Debug)]
pub struct CacheMind {
    db: Arc<dyn TraceStore>,
    retriever: RetrieverKind,
    backend: SimulatedBackend,
    shots: Vec<Example>,
    sieve: SieveRetriever,
    ranger: RangerRetriever,
    dense: Option<DenseIndexRetriever>,
    metrics: cachemind_obs::MetricsRegistry,
    answers: Option<crate::cache::AnswerCache>,
}

impl CacheMind {
    /// Creates the system over a database with the paper's default
    /// configuration: Sieve retrieval, GPT-4o backend, zero-shot.
    pub fn new(db: TraceDatabase) -> Self {
        CacheMind::shared(Arc::new(db))
    }

    /// Creates the system over an already-shared trace store (the serve
    /// layer hands every session the same `Arc` of one sharded database).
    pub fn shared(db: Arc<dyn TraceStore>) -> Self {
        CacheMind {
            db,
            retriever: RetrieverKind::Sieve,
            backend: SimulatedBackend::new(BackendKind::Gpt4o),
            shots: Vec::new(),
            sieve: SieveRetriever::new(),
            ranger: RangerRetriever::new(),
            dense: None,
            metrics: cachemind_obs::global().clone(),
            answers: None,
        }
    }

    /// Selects the retriever.
    pub fn with_retriever(mut self, kind: RetrieverKind) -> Self {
        if kind == RetrieverKind::Dense && self.dense.is_none() {
            self.dense = Some(DenseIndexRetriever::build(&*self.db, 4));
        }
        self.retriever = kind;
        self
    }

    /// Selects the generator backend.
    pub fn with_backend(mut self, kind: BackendKind) -> Self {
        self.backend = SimulatedBackend::new(kind);
        self
    }

    /// Enables k-shot prompting with the given examples.
    pub fn with_examples(mut self, examples: Vec<Example>) -> Self {
        self.shots = examples;
        self
    }

    /// Redirects retrieval-stage telemetry (plan compile/run spans, and
    /// the answer-cache counters of any *subsequently* enabled cache) to
    /// `metrics` instead of the process-global registry — the serve layer
    /// passes each engine's own registry down here.
    pub fn with_metrics(mut self, metrics: &cachemind_obs::MetricsRegistry) -> Self {
        self.ranger = self.ranger.with_metrics(metrics);
        self.metrics = metrics.clone();
        self
    }

    /// Enables (or disables) the whole-answer cache: answers keyed by
    /// `(db fingerprint, canonical selector, options, question text)` are
    /// replayed instead of recomputed. Answering is deterministic, so the
    /// cache is semantics-free — every ask path returns byte-identical
    /// answers with it on or off. Call after [`CacheMind::with_metrics`]
    /// so the `retrieval.cache.*` counters land in the owner's registry.
    pub fn with_answer_cache(mut self, enabled: bool) -> Self {
        self.answers = enabled.then(|| crate::cache::AnswerCache::new(&self.metrics));
        self
    }

    /// The whole-answer cache, when enabled.
    pub fn answer_cache(&self) -> Option<&crate::cache::AnswerCache> {
        self.answers.as_ref()
    }

    /// The underlying trace store.
    pub fn database(&self) -> &dyn TraceStore {
        &*self.db
    }

    /// A second handle to the underlying trace store.
    pub fn store(&self) -> Arc<dyn TraceStore> {
        Arc::clone(&self.db)
    }

    /// Parses a question against the database vocabulary (unscoped).
    pub fn parse(&self, question: &str) -> QueryIntent {
        self.parse_scoped(question, &ScenarioSelector::all())
    }

    /// Parses a question against the database vocabulary within a
    /// scenario scope (a session-pinned or wire-level selector).
    pub fn parse_scoped(&self, question: &str, scope: &ScenarioSelector) -> QueryIntent {
        let workloads = self.db.workloads();
        let policies = self.db.policies();
        QueryIntent::parse_scoped(
            question,
            &workloads.iter().map(String::as_str).collect::<Vec<_>>(),
            &policies.iter().map(String::as_str).collect::<Vec<_>>(),
            scope,
        )
    }

    fn active_retriever(&self) -> &dyn Retriever {
        match self.retriever {
            RetrieverKind::Sieve => &self.sieve,
            RetrieverKind::Ranger => &self.ranger,
            RetrieverKind::Dense => {
                self.dense.as_ref().expect("dense index built in with_retriever")
            }
        }
    }

    /// Retrieves the context bundle for a question without generating.
    pub fn retrieve(&self, question: &str) -> RetrievedContext {
        let intent = self.parse(question);
        self.active_retriever().retrieve(&*self.db, &intent)
    }

    /// Routes *exploration commands* — the Figure 10–13 chat vocabulary
    /// that goes beyond the eleven benchmark categories — straight to the
    /// Ranger plan runtime: "list all unique PCs", "list unique cache
    /// sets", "group PCs by reuse/ETR variance", "identify hot and cold
    /// sets". Returns `None` when the question is not an exploration
    /// command.
    pub fn try_exploration(&self, question: &str) -> Option<Answer> {
        let intent = self.parse(question);
        self.try_exploration_intent(question, &intent)
    }

    /// [`CacheMind::try_exploration`] over a pre-parsed intent — the form
    /// the shared answer pipeline uses, so a query's scenario scope rides
    /// into the exploration plans too.
    fn try_exploration_intent(&self, question: &str, intent: &QueryIntent) -> Option<Answer> {
        use cachemind_retrieval::plan::Plan;
        let lower = question.to_lowercase();
        let workload = intent.workload.clone().or_else(|| self.db.workloads().first().cloned())?;
        let policy = intent.policy.clone().unwrap_or_else(|| "lru".to_owned());

        let plan = if lower.contains("unique pc") || lower.contains("all pcs") {
            Plan::UniquePcs { workload, policy }
        } else if lower.contains("unique cache sets") || lower.contains("unique sets") {
            Plan::UniqueSets { workload, policy }
        } else if (lower.contains("group") || lower.contains("cluster"))
            && lower.contains("variance")
        {
            Plan::GroupPcsByReuseVariance { workload, policy }
        } else if lower.contains("hot") && lower.contains("cold") && lower.contains("set") {
            Plan::HotColdSets { workload, policy }
        } else if lower.contains("per-pc") || lower.contains("per pc table") {
            Plan::PerPcTable { workload, policy, limit: 20 }
        } else {
            return None;
        };

        let facts = plan.run_scoped(&*self.db, &intent.selector.machine_scope()).ok()?;
        let context = RetrievedContext {
            facts,
            quality: cachemind_lang::context::ContextQuality::High,
            retriever: "ranger".to_owned(),
        };
        let text = context.render();
        Some(Answer {
            text,
            verdict: Verdict::FreeForm { quality: 5 },
            context,
            prompt: plan.render_code(),
        })
    }

    /// The retrieve → generate pipeline behind [`CacheMind::ask_query`]:
    /// exploration-command routing first, then retrieval-augmented
    /// generation.
    fn answer(&self, question: &str, intent: &QueryIntent, options: &QueryOptions) -> Answer {
        if options.explore {
            if let Some(answer) = self.try_exploration_intent(question, intent) {
                return answer;
            }
        }
        let context = self.active_retriever().retrieve(&*self.db, intent);
        let mut builder = PromptBuilder::new();
        for ex in &self.shots {
            builder = builder.example(ex.clone());
        }
        let prompt = builder.render(question, &context);
        let request = GeneratorRequest {
            question: question.to_owned(),
            intent: intent.clone(),
            context: context.clone(),
            examples: self.shots.clone(),
        };
        let GeneratorAnswer { text, verdict } = self.backend.answer(&request);
        Answer { text, verdict, context, prompt }
    }

    /// The whole-answer cache key for a query: db fingerprint, canonical
    /// selector, options, and the verbatim question text — every input of
    /// the pure answering function (see `crate::cache` for the anatomy).
    /// Checked *before* intent parsing, so a hit skips the whole pipeline.
    fn answer_key(&self, query: &Query, cache: &crate::cache::AnswerCache) -> String {
        format!(
            "{:016x}|{}|{}|{}",
            cache.fingerprint(&*self.db),
            query.selector,
            u8::from(query.options.explore),
            query.text,
        )
    }

    /// Wraps an answer production with the whole-answer cache when it is
    /// enabled: replay on hit, produce-then-store on miss.
    fn answer_through_cache(&self, query: &Query, produce: impl FnOnce() -> Answer) -> Answer {
        match &self.answers {
            None => produce(),
            Some(cache) => {
                let key = self.answer_key(query, cache);
                if let Some(hit) = cache.get(&key) {
                    return hit;
                }
                let answer = produce();
                cache.insert(key, answer.clone());
                answer
            }
        }
    }

    /// Answers a typed query — the primary entry point: the query's
    /// selector scopes parsing (slot defaults) and retrieval (machine /
    /// prefetcher scope), inline `@machine` syntax in the text wins
    /// per-field, and the options gate exploration-command routing.
    /// Selector-free queries answer byte-identically to [`CacheMind::ask`].
    pub fn ask_query(&self, query: &Query) -> Answer {
        self.answer_through_cache(query, || {
            let intent = self.parse_scoped(&query.text, &query.selector);
            self.answer(&query.text, &intent, &query.options)
        })
    }

    /// Answers a question: exploration-command routing, then
    /// parse → retrieve → generate — the unscoped wrapper over
    /// [`CacheMind::ask_query`].
    pub fn ask(&self, question: &str) -> Answer {
        self.ask_query(&Query::new(question))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cachemind_tracedb::TraceDatabaseBuilder;

    fn mind() -> CacheMind {
        CacheMind::new(TraceDatabaseBuilder::quick_demo().build())
    }

    #[test]
    fn ask_produces_grounded_answer() {
        let m = mind().with_retriever(RetrieverKind::Ranger);
        let a = m.ask("What is the overall miss rate of the lbm workload under LRU?");
        assert!(matches!(a.verdict, Verdict::Number(_)), "verdict {:?}", a.verdict);
        assert!(!a.context.facts.is_empty());
        assert!(a.prompt.contains("SYSTEM:"));
    }

    #[test]
    fn retriever_switch_changes_evidence() {
        let m = mind();
        let db = m.database();
        let pc = db.get("astar_evictions_lru").unwrap().frame.rows()[0].pc;
        let q = format!("How many times did PC {pc} appear in astar under LRU?");
        let sieve_ctx = m.retrieve(&q);
        let ranger_ctx = CacheMind::new(TraceDatabaseBuilder::quick_demo().build())
            .with_retriever(RetrieverKind::Ranger)
            .retrieve(&q);
        // Sieve's count is truncated, Ranger's is complete.
        use cachemind_lang::context::Fact;
        let complete = |ctx: &RetrievedContext| {
            ctx.facts.iter().any(|f| matches!(f, Fact::CountValue { complete: true, .. }))
        };
        assert!(!complete(&sieve_ctx) || complete(&ranger_ctx));
        assert!(complete(&ranger_ctx));
    }

    #[test]
    fn exploration_commands_route_to_plans() {
        let m = mind();
        let a = m.ask("List all unique PCs in the mcf trace under LRU.");
        assert!(a.text.contains("0x"), "expected PC list, got {}", a.text);
        assert!(a.prompt.contains("program_counter.unique"), "prompt shows generated code");

        let a = m.ask("Group PCs by reuse-distance variance for the lbm workload under LRU.");
        assert!(a.text.contains("LowVar"), "got {}", a.text);

        let a = m.ask("Identify 5 hot and 5 cold sets by hit rate in astar under Belady.");
        assert!(a.text.contains("Hot Sets"), "got {}", a.text);

        // Non-exploration questions still take the RAG path.
        assert!(m.try_exploration("What is the miss rate of mcf under LRU?").is_none());
    }

    #[test]
    fn k_shot_examples_enter_the_prompt() {
        use cachemind_lang::prompt::Example;
        let m = mind().with_examples(vec![Example::figure6()]);
        let a = m.ask("Does PC 0x999999 hit on lbm under LRU?");
        assert!(a.prompt.contains("EXAMPLE 1:"), "prompt must carry the example");
    }

    #[test]
    fn dense_baseline_is_available() {
        let m = mind().with_retriever(RetrieverKind::Dense);
        let a = m.ask("Does PC 0x401380 hit on mcf under LRU?");
        // The baseline may answer anything, but it must not panic and must
        // label its retriever.
        assert_eq!(a.context.retriever, "dense");
    }

    #[test]
    fn sharded_store_answers_like_the_monolith() {
        let sharded =
            TraceDatabaseBuilder::quick_demo().shards(3).try_build_sharded().expect("valid names");
        let shared = CacheMind::shared(Arc::new(sharded));
        let flat = mind();
        for q in [
            "What is the overall miss rate of the lbm workload under LRU?",
            "Which policy has the lowest miss rate in astar?",
            "Why does Belady outperform LRU in mcf?",
        ] {
            let a = shared.ask(q);
            let b = flat.ask(q);
            assert_eq!(a.text, b.text, "{q}");
            assert_eq!(a.prompt, b.prompt, "{q}");
        }
    }

    #[test]
    fn ask_is_a_thin_wrapper_over_ask_query() {
        // The redesign's compatibility pin: for selector-free queries the
        // typed path answers byte-identically to the legacy string path —
        // text, prompt, verdict and evidence.
        let m = mind().with_retriever(RetrieverKind::Ranger);
        for q in [
            "What is the overall miss rate of the lbm workload under LRU?",
            "Which policy has the lowest miss rate in astar?",
            "List all unique PCs in the mcf trace under LRU.",
            "What is the estimated IPC for mcf under LRU?",
            "Why does Belady outperform LRU in mcf?",
        ] {
            let legacy = m.ask(q);
            let typed = m.ask_query(&Query::new(q));
            assert_eq!(legacy.text, typed.text, "{q}");
            assert_eq!(legacy.prompt, typed.prompt, "{q}");
            assert_eq!(legacy.verdict, typed.verdict, "{q}");
        }
    }

    #[test]
    fn scoped_queries_answer_from_the_selected_machine() {
        use cachemind_sim::config::MachineConfig;

        let db = TraceDatabaseBuilder::quick_demo()
            .workloads(["mcf", "lbm"])
            .policies(["lru", "belady"])
            .machine(MachineConfig::preset("table2").expect("preset"))
            .machine(MachineConfig::preset("small").expect("preset"))
            .build();
        let m = CacheMind::new(db).with_retriever(RetrieverKind::Ranger);
        let q = "What is the estimated IPC for mcf under LRU?";

        let mut cited = Vec::new();
        for machine in ["table2", "small"] {
            let query = Query::scoped(q, ScenarioSelector::all().with_machine(machine));
            let answer = m.ask_query(&query);
            let fact = answer.context.facts.first().expect("IPC fact").render();
            assert!(
                fact.contains(&format!("{machine}@")),
                "{machine}: answer must cite its machine, got {fact}"
            );
            cited.push(fact);
        }
        assert_ne!(cited[0], cited[1], "different machines, different cited facts");

        // The unscoped query still answers from the primary machine.
        let primary = m.ask_query(&Query::new(q));
        let fact = primary.context.facts.first().expect("IPC fact").render();
        let label = m.database().get("mcf_evictions_lru").unwrap().machine.clone();
        assert!(fact.contains(&label), "unscoped answers stay primary: {fact}");
    }

    #[test]
    fn query_options_gate_exploration_routing() {
        let m = mind();
        let q = "List all unique PCs in the mcf trace under LRU.";
        let explored = m.ask_query(&Query::new(q));
        assert!(explored.prompt.contains("program_counter.unique"), "plan runtime");
        let rag = m.ask_query(&Query::new(q).with_options(QueryOptions { explore: false }));
        assert!(!rag.prompt.contains("program_counter.unique"), "forced RAG path");
        assert!(rag.prompt.contains("SYSTEM:"), "RAG prompt rendered");
    }
}
