//! A [`TraceStore`] that times every call into the store it wraps.
//!
//! The traced run hands this wrapper to the intent parser and the
//! retriever, so each store call becomes a `tracedb.store` span nested
//! under the layer that made it; retrieval self time is then retrieve
//! minus store. Every method forwards to the inner store exactly once
//! (including the ones the trait gives defaults for), so a call is one
//! span and answers are unchanged. An `entries`/`select` span covers
//! building the iterator; walking it is the caller's time.

use std::sync::Arc;

use cachemind_sim::config::CacheConfig;
use cachemind_sim::scenario::ScenarioSelector;
use cachemind_tracedb::store::TraceStore;
use cachemind_tracedb::{TraceEntry, TraceId};

use crate::trace::Recorder;

/// The span name of one store call.
pub const STORE_SPAN: &str = "tracedb.store";

#[derive(Debug)]
pub struct TimedStore {
    inner: Arc<dyn TraceStore>,
    recorder: Arc<Recorder>,
}

impl TimedStore {
    pub fn new(inner: Arc<dyn TraceStore>, recorder: Arc<Recorder>) -> Self {
        TimedStore { inner, recorder }
    }
}

impl TraceStore for TimedStore {
    fn get(&self, key: &str) -> Option<&TraceEntry> {
        self.recorder.time(STORE_SPAN, || self.inner.get(key))
    }

    fn get_id(&self, id: &TraceId) -> Option<&TraceEntry> {
        self.recorder.time(STORE_SPAN, || self.inner.get_id(id))
    }

    fn trace_keys(&self) -> Vec<String> {
        self.recorder.time(STORE_SPAN, || self.inner.trace_keys())
    }

    fn entries<'a>(&'a self) -> Box<dyn Iterator<Item = &'a TraceEntry> + 'a> {
        self.recorder.time(STORE_SPAN, || self.inner.entries())
    }

    fn workloads(&self) -> Vec<String> {
        self.recorder.time(STORE_SPAN, || self.inner.workloads())
    }

    fn policies(&self) -> Vec<String> {
        self.recorder.time(STORE_SPAN, || self.inner.policies())
    }

    fn llc_config(&self) -> Option<&CacheConfig> {
        self.recorder.time(STORE_SPAN, || self.inner.llc_config())
    }

    fn len(&self) -> usize {
        self.recorder.time(STORE_SPAN, || self.inner.len())
    }

    fn is_empty(&self) -> bool {
        self.recorder.time(STORE_SPAN, || self.inner.is_empty())
    }

    fn shard_count(&self) -> usize {
        self.recorder.time(STORE_SPAN, || self.inner.shard_count())
    }

    fn shard_of(&self, key: &str) -> usize {
        self.recorder.time(STORE_SPAN, || self.inner.shard_of(key))
    }

    fn machines(&self) -> Vec<String> {
        self.recorder.time(STORE_SPAN, || self.inner.machines())
    }

    fn prefetchers(&self) -> Vec<String> {
        self.recorder.time(STORE_SPAN, || self.inner.prefetchers())
    }

    fn select<'a>(
        &'a self,
        selector: &ScenarioSelector,
    ) -> Box<dyn Iterator<Item = &'a TraceEntry> + 'a> {
        self.recorder.time(STORE_SPAN, || self.inner.select(selector))
    }

    fn get_scoped(&self, id: &TraceId, selector: &ScenarioSelector) -> Option<&TraceEntry> {
        self.recorder.time(STORE_SPAN, || self.inner.get_scoped(id, selector))
    }

    fn get_scoped_resolved(&self, id: &TraceId, scope: &ScenarioSelector) -> Option<&TraceEntry> {
        self.recorder.time(STORE_SPAN, || self.inner.get_scoped_resolved(id, scope))
    }
}
