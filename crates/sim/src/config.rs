//! Simulator configuration, defaulting to Table 2 of the CacheMind paper.

use serde::{Deserialize, Serialize};

use crate::addr::{Address, SetId};

/// Geometry and latency of one cache level.
///
/// ```rust
/// use cachemind_sim::config::CacheConfig;
///
/// let llc = CacheConfig::llc();
/// assert_eq!(llc.sets(), 2048);
/// assert_eq!(llc.ways, 16);
/// assert_eq!(llc.capacity_bytes(), 2 * 1024 * 1024);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheConfig {
    /// Human-readable level name ("L1D", "LLC", ...).
    pub name: String,
    /// log2 of the number of sets.
    pub sets_log2: u32,
    /// Associativity.
    pub ways: usize,
    /// log2 of the line size in bytes.
    pub line_size_log2: u32,
    /// Access latency in cycles.
    pub latency_cycles: u64,
    /// Number of MSHR entries.
    pub mshr_entries: usize,
}

impl CacheConfig {
    /// Creates a configuration with the given geometry and default
    /// latency/MSHR parameters.
    pub fn new(name: &str, sets_log2: u32, ways: usize, line_size_log2: u32) -> Self {
        CacheConfig {
            name: name.to_owned(),
            sets_log2,
            ways,
            line_size_log2,
            latency_cycles: 1,
            mshr_entries: 8,
        }
    }

    /// Sets the access latency, returning `self` for chaining.
    pub fn with_latency(mut self, cycles: u64) -> Self {
        self.latency_cycles = cycles;
        self
    }

    /// Sets the MSHR entry count, returning `self` for chaining.
    pub fn with_mshr(mut self, entries: usize) -> Self {
        self.mshr_entries = entries;
        self
    }

    /// Number of sets.
    pub const fn sets(&self) -> usize {
        1 << self.sets_log2
    }

    /// Line size in bytes.
    pub const fn line_size(&self) -> usize {
        1 << self.line_size_log2
    }

    /// Total capacity in bytes.
    pub const fn capacity_bytes(&self) -> usize {
        self.sets() * self.ways * self.line_size()
    }

    /// Number of lines the cache can hold.
    pub const fn capacity_lines(&self) -> usize {
        self.sets() * self.ways
    }

    /// The set an address maps to under this geometry.
    pub fn set_of(&self, address: Address) -> SetId {
        address.line(self.line_size_log2).set(self.sets_log2)
    }

    /// Table 2: 32 KB, 64 sets, 8 ways, 4-cycle latency, 8-entry MSHR L1I.
    pub fn l1i() -> Self {
        CacheConfig::new("L1I", 6, 8, 6).with_latency(4).with_mshr(8)
    }

    /// Table 2: 32 KB, 64 sets, 8 ways, 4-cycle latency, 16-entry MSHR L1D.
    pub fn l1d() -> Self {
        CacheConfig::new("L1D", 6, 8, 6).with_latency(4).with_mshr(16)
    }

    /// Table 2: 512 KB, 1024 sets, 8 ways, 12-cycle latency, 32-entry MSHR L2.
    pub fn l2() -> Self {
        CacheConfig::new("L2", 10, 8, 6).with_latency(12).with_mshr(32)
    }

    /// Table 2: 2 MB, 2048 sets, 16 ways, 26-cycle latency, 64-entry MSHR LLC.
    pub fn llc() -> Self {
        CacheConfig::new("LLC", 11, 16, 6).with_latency(26).with_mshr(64)
    }

    /// A small LLC (64 sets, 4 ways) for fast tests and examples.
    pub fn small_llc() -> Self {
        CacheConfig::new("LLC", 6, 4, 6).with_latency(26).with_mshr(16)
    }
}

/// DRAM timing (Table 2: DDR4-3200, tRP = tRCD = tCAS = 12.5 ns @ 4 GHz core).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DramConfig {
    /// Average access latency in core cycles.
    pub latency_cycles: u64,
    /// Channel count (bandwidth model input).
    pub channels: usize,
}

impl Default for DramConfig {
    fn default() -> Self {
        // 3 * 12.5ns at 4 GHz = 150 cycles row-miss; add controller overhead.
        DramConfig { latency_cycles: 160, channels: 1 }
    }
}

/// Core front/back-end parameters (Table 2).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ProcessorConfig {
    /// Core frequency in GHz (informational).
    pub frequency_ghz: u32,
    /// Fetch/decode/execute width.
    pub width: usize,
    /// Retire width.
    pub retire_width: usize,
    /// Reorder-buffer entries (bounds memory-level parallelism).
    pub rob_entries: usize,
    /// Load-queue entries.
    pub load_queue: usize,
    /// Store-queue entries.
    pub store_queue: usize,
}

impl Default for ProcessorConfig {
    fn default() -> Self {
        ProcessorConfig {
            frequency_ghz: 4,
            width: 6,
            retire_width: 4,
            rob_entries: 352,
            load_queue: 128,
            store_queue: 72,
        }
    }
}

/// Full-machine configuration: core, cache levels and DRAM.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HierarchyConfig {
    /// Core parameters.
    pub processor: ProcessorConfig,
    /// L1 instruction cache.
    pub l1i: CacheConfig,
    /// L1 data cache.
    pub l1d: CacheConfig,
    /// Unified L2.
    pub l2: CacheConfig,
    /// Last-level cache.
    pub llc: CacheConfig,
    /// DRAM timing.
    pub dram: DramConfig,
}

impl Default for HierarchyConfig {
    fn default() -> Self {
        HierarchyConfig {
            processor: ProcessorConfig::default(),
            l1i: CacheConfig::l1i(),
            l1d: CacheConfig::l1d(),
            l2: CacheConfig::l2(),
            llc: CacheConfig::llc(),
            dram: DramConfig::default(),
        }
    }
}

impl HierarchyConfig {
    /// The paper's Table 2 configuration.
    pub fn table2() -> Self {
        HierarchyConfig::default()
    }

    /// A scaled-down hierarchy for unit tests and fast examples
    /// (4 KB L1D, 16 KB L2, 16 KB 4-way LLC).
    pub fn small() -> Self {
        HierarchyConfig {
            processor: ProcessorConfig::default(),
            l1i: CacheConfig::new("L1I", 4, 4, 6).with_latency(4),
            l1d: CacheConfig::new("L1D", 4, 4, 6).with_latency(4),
            l2: CacheConfig::new("L2", 6, 4, 6).with_latency(12),
            llc: CacheConfig::small_llc(),
            dram: DramConfig::default(),
        }
    }

    /// Renders the configuration as the rows of the paper's Table 2.
    pub fn describe(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "Processor: 1 core; {} GHz; {}-wide fetch/decode/execute; {}-wide retire; \
             {}-entry ROB; {}-entry LQ; {}-entry SQ\n",
            self.processor.frequency_ghz,
            self.processor.width,
            self.processor.retire_width,
            self.processor.rob_entries,
            self.processor.load_queue,
            self.processor.store_queue,
        ));
        for level in [&self.l1i, &self.l1d, &self.l2, &self.llc] {
            out.push_str(&format!(
                "{}: {} KB, {} sets, {} ways; {}-cycle latency; {}-entry MSHR\n",
                level.name,
                level.capacity_bytes() / 1024,
                level.sets(),
                level.ways,
                level.latency_cycles,
                level.mshr_entries,
            ));
        }
        out.push_str(&format!(
            "DRAM: DDR4-3200; {} channel(s); ~{} core cycles average latency\n",
            self.dram.channels, self.dram.latency_cycles,
        ));
        out
    }
}

/// A named full-machine configuration — one point on the scenario grid's
/// machine axis.
///
/// `MachineConfig` composes a [`HierarchyConfig`] (which already carries the
/// core, cache-level and DRAM parameters) with a stable `name` and a replay
/// mode. In the default *full-machine* mode a scenario cell simulates the
/// whole hierarchy and reports [`IpcModel`](crate::timing::IpcModel)-derived
/// IPC; in *LLC-only* mode the access stream is replayed directly against
/// the LLC geometry — bare geometry sweeps, and the trace database's
/// primary machine.
///
/// ```rust
/// use cachemind_sim::config::{HierarchyConfig, MachineConfig};
///
/// let m = MachineConfig::new("table2", HierarchyConfig::table2());
/// assert_eq!(m.machine_label(), "table2@llc2048x16+dram160");
/// let fast = m.clone().with_dram_latency(80);
/// assert_eq!(fast.machine_label(), "table2@llc2048x16+dram80");
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MachineConfig {
    /// Stable machine name used in labels ("table2", "small", ...).
    pub name: String,
    /// The composed core + cache + DRAM parameters.
    pub hierarchy: HierarchyConfig,
    /// When set, scenario cells skip the L1/L2 filter and replay the stream
    /// directly against `hierarchy.llc` (see [`MachineConfig::llc_only`]).
    pub llc_only: bool,
}

impl MachineConfig {
    /// A full-machine configuration.
    pub fn new(name: impl Into<String>, hierarchy: HierarchyConfig) -> Self {
        MachineConfig { name: name.into(), hierarchy, llc_only: false }
    }

    /// Wraps a bare LLC geometry as an LLC-only machine (Table-2 core and
    /// DRAM defaults around it), labelled `name@<sets>x<ways>`. This is the
    /// trace database's primary machine — the one whose traces keep
    /// unqualified keys — and the machine axis of bare LLC-geometry sweeps.
    pub fn llc_only(llc: CacheConfig) -> Self {
        let name = llc.name.clone();
        let hierarchy = HierarchyConfig { llc, ..HierarchyConfig::default() };
        MachineConfig { name, hierarchy, llc_only: true }
    }

    /// Overrides the DRAM latency, returning `self` for chaining — the
    /// sweep driver's `--dram-latency` axis.
    pub fn with_dram_latency(mut self, cycles: u64) -> Self {
        self.hierarchy.dram.latency_cycles = cycles;
        self
    }

    /// Canonical label: `name@llc<sets>x<ways>+dram<latency>` for a full
    /// machine, `name@<sets>x<ways>` when LLC-only.
    pub fn machine_label(&self) -> String {
        let llc = &self.hierarchy.llc;
        if self.llc_only {
            format!("{}@{}x{}", self.name, llc.sets(), llc.ways)
        } else {
            format!(
                "{}@llc{}x{}+dram{}",
                self.name,
                llc.sets(),
                llc.ways,
                self.hierarchy.dram.latency_cycles
            )
        }
    }

    /// Named machine presets for drivers: `table2` and `small`.
    pub fn preset(name: &str) -> Option<MachineConfig> {
        match name {
            "table2" => Some(MachineConfig::new("table2", HierarchyConfig::table2())),
            "small" => Some(MachineConfig::new("small", HierarchyConfig::small())),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_geometries_match_paper() {
        let cfg = HierarchyConfig::table2();
        assert_eq!(cfg.l1i.capacity_bytes(), 32 * 1024);
        assert_eq!(cfg.l1d.capacity_bytes(), 32 * 1024);
        assert_eq!(cfg.l1d.sets(), 64);
        assert_eq!(cfg.l1d.ways, 8);
        assert_eq!(cfg.l2.capacity_bytes(), 512 * 1024);
        assert_eq!(cfg.l2.sets(), 1024);
        assert_eq!(cfg.llc.capacity_bytes(), 2 * 1024 * 1024);
        assert_eq!(cfg.llc.sets(), 2048);
        assert_eq!(cfg.llc.ways, 16);
        assert_eq!(cfg.processor.rob_entries, 352);
    }

    #[test]
    fn describe_mentions_every_level() {
        let text = HierarchyConfig::table2().describe();
        for name in ["L1I", "L1D", "L2", "LLC", "DRAM"] {
            assert!(text.contains(name), "missing {name} in {text}");
        }
    }

    #[test]
    fn machine_labels_are_canonical() {
        let full = MachineConfig::new("table2", HierarchyConfig::table2());
        assert_eq!(full.machine_label(), "table2@llc2048x16+dram160");
        assert_eq!(full.with_dram_latency(400).machine_label(), "table2@llc2048x16+dram400");
        let llc = MachineConfig::llc_only(CacheConfig::new("LLC-half", 10, 16, 6));
        assert_eq!(llc.machine_label(), "LLC-half@1024x16");
        assert!(MachineConfig::preset("table2").is_some());
        assert!(MachineConfig::preset("small").unwrap().hierarchy.llc.ways == 4);
        assert!(MachineConfig::preset("cray-1").is_none());
    }

    #[test]
    fn set_of_uses_line_then_set_bits() {
        let cfg = CacheConfig::llc();
        let a = Address::new((0b10110011101 << 6) | (1 << 40));
        assert_eq!(cfg.set_of(a).index() as u64, 0b10110011101 & ((1 << 11) - 1));
    }
}
