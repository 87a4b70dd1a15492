//! # cachemind-sim
//!
//! Trace-driven, multi-level set-associative cache hierarchy simulator — the
//! ChampSim-style substrate of the CacheMind reproduction.
//!
//! The CacheMind paper consumes two things from its simulators (ChampSim and
//! gem5):
//!
//! 1. **Eviction-annotated LLC traces** — one record per last-level-cache
//!    access carrying PC, address, set, hit/miss, miss type, the evicted
//!    line, reuse distances, recency, a snapshot of the resident lines, a
//!    recent-access history, and the policy's per-line eviction scores
//!    (§4.3 of the paper). Those records are produced by [`replay::LlcReplay`].
//! 2. **First-order IPC estimates** so that use-case interventions (bypass,
//!    software prefetch, Mockingjay retraining) can be measured as speedups.
//!    Those come from [`timing::IpcModel`].
//!
//! The crate is deliberately self-contained: replacement policies plug in
//! through the [`replacement::ReplacementPolicy`] trait (implemented in the
//! `cachemind-policies` crate) and workloads are plain access streams
//! (produced by `cachemind-workloads`).
//!
//! # Example
//!
//! ```rust
//! use cachemind_sim::prelude::*;
//!
//! // A tiny direct-mapped cache with an LRU-by-default policy.
//! let config = CacheConfig::new("toy", 4, 2, 6);
//! let mut cache = SetAssociativeCache::new(config, RecencyPolicy::lru());
//!
//! let access = MemoryAccess::load(Pc::new(0x400000), Address::new(0x1000), 0);
//! let outcome = cache.access(&AccessContext::demand(0, &access, cache.set_of(Address::new(0x1000))));
//! assert!(!outcome.hit); // cold miss
//! ```

pub mod access;
pub mod addr;
pub mod cache;
pub mod config;
pub mod hierarchy;
pub mod mshr;
pub mod prefetch;
pub mod replacement;
pub mod replay;
pub mod reuse;
pub mod scenario;
pub mod stats;
pub mod sweep;
pub mod timing;

pub use access::{AccessKind, MemoryAccess};
pub use addr::{Address, LineAddr, Pc, SetId};
pub use cache::{AccessOutcome, LineMeta, SetAssociativeCache, SetView, SetViewBuf};
pub use config::{CacheConfig, DramConfig, HierarchyConfig, MachineConfig, ProcessorConfig};
pub use hierarchy::{CacheHierarchy, HierarchyReport};
pub use mshr::Mshr;
pub use prefetch::{Prefetcher, PrefetcherKind};
pub use replacement::{AccessContext, Decision, RecencyPolicy, ReplacementPolicy};
pub use replay::{EvictionRecord, LlcReplay, MissType, ReplayReport, ReplaySummary};
pub use reuse::ReuseOracle;
pub use scenario::{ScenarioSelector, SelectorParseError};
pub use stats::CacheStats;
pub use sweep::{AxisTotal, ScenarioCell, ScenarioGrid, ScenarioReport, SweepStream};
pub use timing::IpcModel;

/// Commonly used types, for glob import.
pub mod prelude {
    pub use crate::access::{AccessKind, MemoryAccess};
    pub use crate::addr::{Address, LineAddr, Pc, SetId};
    pub use crate::cache::{AccessOutcome, LineMeta, SetAssociativeCache, SetView, SetViewBuf};
    pub use crate::config::{
        CacheConfig, DramConfig, HierarchyConfig, MachineConfig, ProcessorConfig,
    };
    pub use crate::hierarchy::{CacheHierarchy, HierarchyReport};
    pub use crate::prefetch::{Prefetcher, PrefetcherKind};
    pub use crate::replacement::{AccessContext, Decision, RecencyPolicy, ReplacementPolicy};
    pub use crate::replay::{EvictionRecord, LlcReplay, MissType, ReplayReport, ReplaySummary};
    pub use crate::reuse::ReuseOracle;
    pub use crate::scenario::{ScenarioSelector, SelectorParseError};
    pub use crate::stats::CacheStats;
    pub use crate::sweep::{
        AxisTotal, ScenarioCell, ScenarioGrid, ScenarioReport, SweepError, SweepStream,
    };
    pub use crate::timing::IpcModel;
}
