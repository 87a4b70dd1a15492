//! The whole-answer cache: `(canonical query text, canonical selector,
//! db fingerprint)` → [`Answer`].
//!
//! Answering is a pure function of `(store, question, selector, options)`
//! — the property the serve layer's `answers_fnv64` checksums already
//! prove — so replaying a stored answer is indistinguishable from
//! recomputing it. The cache key captures every input of that function:
//!
//! * **db fingerprint** — a wide-FNV digest over the store's trace keys,
//!   metadata, and row counts (the same [`fnv64_wide`] machinery the
//!   snapshot module uses for segment checksums). Stores are immutable
//!   once built, so the fingerprint identifies the database; a rebuilt or
//!   different database changes the fingerprint and thereby invalidates
//!   every stale entry *by key*, with no explicit flush.
//! * **canonical selector** — the query's
//!   [`ScenarioSelector`](cachemind_sim::scenario::ScenarioSelector) in its
//!   canonical text form (the serve layer canonicalizes preset machine
//!   names before asking, so aliases of one scope share entries).
//! * **options** — the exploration-routing flag.
//! * **question text** — verbatim.
//!
//! Lookups and inserts count into the owning [`MetricsRegistry`] under
//! the `retrieval.cache.*` names, which is how serve's `{"stats":true}`
//! response reports hit rates. The map is sharded eight ways by key hash
//! so concurrent serve workers do not contend on one lock.

use std::collections::HashMap;
use std::sync::{Mutex, OnceLock};

use cachemind_obs::{names, Counter, MetricsRegistry};
use cachemind_tracedb::snapshot::fnv64_wide;
use cachemind_tracedb::store::{fnv64, TraceStore};

use crate::system::Answer;

/// Number of independently locked map shards.
const SHARDS: usize = 8;

/// A sharded, metrics-instrumented whole-answer cache (see the module
/// docs for the key anatomy).
#[derive(Debug)]
pub struct AnswerCache {
    shards: [Mutex<HashMap<String, Answer>>; SHARDS],
    fingerprint: OnceLock<u64>,
    hits: Counter,
    misses: Counter,
    inserts: Counter,
}

impl AnswerCache {
    /// An empty cache whose counters register into `metrics` under the
    /// `retrieval.cache.*` names.
    pub fn new(metrics: &MetricsRegistry) -> Self {
        AnswerCache {
            shards: std::array::from_fn(|_| Mutex::new(HashMap::new())),
            fingerprint: OnceLock::new(),
            hits: metrics.counter(names::RETRIEVAL_CACHE_HITS),
            misses: metrics.counter(names::RETRIEVAL_CACHE_MISSES),
            inserts: metrics.counter(names::RETRIEVAL_CACHE_INSERTS),
        }
    }

    /// The store fingerprint, computed on first use and memoized: a
    /// [`fnv64_wide`] digest over every trace key, its metadata, and its
    /// row count, in ascending key order. One metadata-level pass — frames
    /// are not rehashed — so the first cached ask stays cheap even on
    /// large stores.
    pub fn fingerprint(&self, db: &dyn TraceStore) -> u64 {
        *self.fingerprint.get_or_init(|| {
            let mut bytes = Vec::new();
            for entry in db.entries() {
                bytes.extend_from_slice(entry.id.key().as_bytes());
                bytes.push(0);
                bytes.extend_from_slice(entry.metadata.as_bytes());
                bytes.push(0);
                bytes.extend_from_slice(&(entry.frame.rows().len() as u64).to_le_bytes());
            }
            fnv64_wide(&bytes)
        })
    }

    fn shard(&self, key: &str) -> &Mutex<HashMap<String, Answer>> {
        &self.shards[(fnv64(key.as_bytes()) % SHARDS as u64) as usize]
    }

    /// Looks up a stored answer, counting a hit or a miss.
    pub fn get(&self, key: &str) -> Option<Answer> {
        let found = self.shard(key).lock().expect("answer cache shard lock").get(key).cloned();
        match &found {
            Some(_) => self.hits.inc(),
            None => self.misses.inc(),
        }
        found
    }

    /// Stores an answer, counting the insert. Concurrent inserts under
    /// one key are benign: answering is deterministic, so both writers
    /// store byte-identical values.
    pub fn insert(&self, key: String, answer: Answer) {
        self.shard(&key).lock().expect("answer cache shard lock").insert(key, answer);
        self.inserts.inc();
    }

    /// Number of stored answers across all shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().expect("answer cache shard lock").len()).sum()
    }

    /// Whether the cache holds no answers.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total lookups that replayed a stored answer.
    pub fn hits(&self) -> u64 {
        self.hits.get()
    }

    /// Total lookups that fell through to the answering pipeline.
    pub fn misses(&self) -> u64 {
        self.misses.get()
    }

    /// Total answers stored after misses.
    pub fn inserts(&self) -> u64 {
        self.inserts.get()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::{CacheMind, Query, RetrieverKind};
    use cachemind_sim::scenario::ScenarioSelector;
    use cachemind_tracedb::TraceDatabaseBuilder;

    fn mind_with_cache() -> CacheMind {
        // A private registry per test: counter handles are shared by name
        // within a registry, so minds sharing the global registry would
        // see each other's hit/miss counts.
        let registry = cachemind_obs::MetricsRegistry::new();
        CacheMind::new(TraceDatabaseBuilder::quick_demo().build())
            .with_retriever(RetrieverKind::Ranger)
            .with_metrics(&registry)
            .with_answer_cache(true)
    }

    #[test]
    fn repeated_questions_hit_and_replay_identical_answers() {
        let m = mind_with_cache();
        let q = "What is the overall miss rate of the lbm workload under LRU?";
        let first = m.ask(q);
        let cache = m.answer_cache().expect("cache enabled");
        assert_eq!(cache.hits(), 0);
        assert_eq!(cache.misses(), 1);
        assert_eq!(cache.inserts(), 1);
        assert_eq!(cache.len(), 1);
        let second = m.ask(q);
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.len(), 1);
        assert_eq!(first.text, second.text);
        assert_eq!(first.prompt, second.prompt);
        assert_eq!(first.verdict, second.verdict);
    }

    #[test]
    fn distinct_selectors_never_alias() {
        let m = mind_with_cache();
        let q = "What is the estimated IPC for mcf under LRU?";
        m.ask_query(&Query::new(q));
        m.ask_query(&Query::scoped(q, ScenarioSelector::all().with_machine("quick_demo")));
        let cache = m.answer_cache().expect("cache enabled");
        assert_eq!(cache.len(), 2, "scoped and unscoped queries use distinct keys");
        assert_eq!(cache.hits(), 0);
    }

    #[test]
    fn cached_answers_match_uncached_byte_for_byte() {
        let cached = mind_with_cache();
        let plain = CacheMind::new(TraceDatabaseBuilder::quick_demo().build())
            .with_retriever(RetrieverKind::Ranger);
        let questions = [
            "What is the overall miss rate of the lbm workload under LRU?",
            "Which policy gives the highest IPC on mcf?",
            "List all unique PCs in the mcf trace under LRU.",
            "What is the overall miss rate of the lbm workload under LRU?",
        ];
        for q in questions {
            let a = cached.ask(q);
            let b = plain.ask(q);
            assert_eq!(a.text, b.text, "{q}");
            assert_eq!(a.prompt, b.prompt, "{q}");
            assert_eq!(a.verdict, b.verdict, "{q}");
        }
        assert_eq!(cached.answer_cache().unwrap().hits(), 1, "the duplicate hit");
    }

    #[test]
    fn fingerprint_distinguishes_databases() {
        let registry = cachemind_obs::MetricsRegistry::new();
        let cache = AnswerCache::new(&registry);
        let a = TraceDatabaseBuilder::quick_demo().build();
        let fp_a = cache.fingerprint(&a);
        assert_eq!(cache.fingerprint(&a), fp_a, "memoized and stable");

        let other = AnswerCache::new(&registry);
        let b = TraceDatabaseBuilder::quick_demo().workloads(["mcf"]).build();
        assert_ne!(other.fingerprint(&b), fp_a, "different stores, different fingerprints");
    }
}
