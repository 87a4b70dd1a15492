//! [`PcIndex`] — a frame's per-PC index.
//!
//! Built in one pass over a frame's rows the first time a PC-scoped
//! question touches the frame (see [`TraceFrame`](crate::frame::TraceFrame)),
//! it holds the frame's per-PC and per-set summaries and each PC's row ids
//! in stream order. Per-PC statistics then become a binary search, and
//! PC-filtered scans visit only that PC's rows.
//!
//! Memory: one `u32` row id per row, plus one [`PcStats`], one offset and
//! one first-seen entry per distinct PC, and one [`SetStats`] per distinct
//! set — bounded by the frame, whatever the questions asked of it.

use std::collections::HashMap;

use cachemind_sim::addr::Pc;

use crate::record::TraceRow;
use crate::stats::{mean_stddev, PcStats, SetStats};

/// A frame's per-PC index.
#[derive(Debug, Clone)]
pub(crate) struct PcIndex {
    /// Per-PC statistics, ascending by PC.
    stats: Vec<PcStats>,
    /// Distinct PCs in first-seen order.
    first_seen: Vec<Pc>,
    /// Per-set statistics, ascending by set index.
    sets: Vec<SetStats>,
    /// Each PC's row ids, parallel to `stats`; `None` when the frame has
    /// more rows than a `u32` row id can name.
    rows: Option<RowIds>,
}

/// Row ids grouped by PC in compressed-sparse-row form: the rows of
/// `stats[i].pc` are `ids[starts[i]..starts[i + 1]]`, in stream order.
#[derive(Debug, Clone)]
struct RowIds {
    starts: Vec<u32>,
    ids: Vec<u32>,
}

impl PcIndex {
    /// Indexes `rows`.
    pub(crate) fn build(rows: &[TraceRow]) -> Self {
        Self::build_with_id_limit(rows, u32::MAX as usize)
    }

    /// Indexes `rows`, keeping row ids only when there are at most
    /// `max_rows` of them.
    pub(crate) fn build_with_id_limit(rows: &[TraceRow], max_rows: usize) -> Self {
        #[derive(Default)]
        struct Acc {
            accesses: u64,
            hits: u64,
            misses: u64,
            reuse: Vec<f64>,
            evicted_reuse: Vec<f64>,
            evictions: u64,
        }
        // Slots number the PCs in first-seen order.
        let mut slots: HashMap<Pc, usize> = HashMap::new();
        let mut first_seen: Vec<Pc> = Vec::new();
        let mut accs: Vec<Acc> = Vec::new();
        let mut sets: HashMap<usize, SetStats> = HashMap::new();
        for row in rows {
            let slot = *slots.entry(row.pc).or_insert_with(|| {
                first_seen.push(row.pc);
                accs.push(Acc::default());
                accs.len() - 1
            });
            let acc = &mut accs[slot];
            acc.accesses += 1;
            if row.is_miss {
                acc.misses += 1;
            } else {
                acc.hits += 1;
            }
            if let Some(d) = row.accessed_reuse_distance {
                acc.reuse.push(d as f64);
            }
            if let Some(d) = row.evicted_reuse_distance {
                acc.evicted_reuse.push(d as f64);
            }
            if row.evicted_address.is_some() {
                acc.evictions += 1;
            }
            let set = sets.entry(row.set.index()).or_insert(SetStats {
                set: row.set.index(),
                accesses: 0,
                hits: 0,
            });
            set.accesses += 1;
            set.hits += (!row.is_miss) as u64;
        }

        let mut by_pc: Vec<usize> = (0..accs.len()).collect();
        by_pc.sort_unstable_by_key(|&slot| first_seen[slot]);
        let stats = by_pc
            .iter()
            .map(|&slot| {
                let acc = &accs[slot];
                let (mean, sd) = mean_stddev(&acc.reuse);
                let (emean, _) = mean_stddev(&acc.evicted_reuse);
                PcStats {
                    pc: first_seen[slot],
                    accesses: acc.accesses,
                    hits: acc.hits,
                    misses: acc.misses,
                    mean_accessed_reuse: mean,
                    mean_evicted_reuse: emean,
                    reuse_stddev: sd,
                    evictions_caused: acc.evictions,
                }
            })
            .collect();

        let row_ids = (rows.len() <= max_rows).then(|| {
            // A counting sort of row ids by their PC's rank: each PC's
            // rows land in stream order.
            let mut rank = vec![0usize; accs.len()];
            let mut starts = Vec::with_capacity(accs.len() + 1);
            starts.push(0u32);
            for (r, &slot) in by_pc.iter().enumerate() {
                rank[slot] = r;
                starts.push(starts[r] + accs[slot].accesses as u32);
            }
            let mut next = starts.clone();
            let mut ids = vec![0u32; rows.len()];
            for (id, row) in rows.iter().enumerate() {
                let cursor = &mut next[rank[slots[&row.pc]]];
                ids[*cursor as usize] = id as u32;
                *cursor += 1;
            }
            RowIds { starts, ids }
        });

        let mut sets: Vec<SetStats> = sets.into_values().collect();
        sets.sort_unstable_by_key(|s| s.set);
        PcIndex { stats, first_seen, sets, rows: row_ids }
    }

    fn position(&self, pc: Pc) -> Option<usize> {
        self.stats.binary_search_by_key(&pc, |s| s.pc).ok()
    }

    /// Per-PC statistics, ascending by PC.
    pub(crate) fn per_pc(&self) -> &[PcStats] {
        &self.stats
    }

    /// Statistics for one PC, if it appears in the frame.
    pub(crate) fn pc_stats(&self, pc: Pc) -> Option<&PcStats> {
        self.position(pc).map(|i| &self.stats[i])
    }

    /// Whether `pc` appears in the frame.
    pub(crate) fn contains(&self, pc: Pc) -> bool {
        self.position(pc).is_some()
    }

    /// Distinct PCs in first-seen order.
    pub(crate) fn unique_pcs(&self) -> &[Pc] {
        &self.first_seen
    }

    /// Per-set statistics, ascending by set index.
    pub(crate) fn per_set(&self) -> &[SetStats] {
        &self.sets
    }

    /// The row ids of `pc` in stream order (empty for an absent PC), or
    /// `None` when the index keeps no row ids and callers must scan.
    pub(crate) fn row_ids(&self, pc: Pc) -> Option<&[u32]> {
        let rows = self.rows.as_ref()?;
        Some(match self.position(pc) {
            Some(i) => &rows.ids[rows.starts[i] as usize..rows.starts[i + 1] as usize],
            None => &[],
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cachemind_sim::addr::{Address, SetId};

    fn rows() -> Vec<TraceRow> {
        (0..12u64)
            .map(|i| TraceRow {
                index: i,
                pc: Pc::new(0x30 - (i % 3) * 8),
                address: Address::new(0x1000 + i * 64),
                kind: cachemind_sim::access::AccessKind::Load,
                set: SetId::new((i % 5) as usize),
                is_miss: i % 2 == 0,
                miss_type: None,
                evicted_address: None,
                accessed_reuse_distance: Some(i),
                evicted_reuse_distance: None,
                recency: None,
                resident_lines: Vec::new(),
                access_history: Vec::new(),
                eviction_scores: Vec::new(),
                bypassed: false,
            })
            .collect()
    }

    #[test]
    fn row_ids_group_each_pc_in_stream_order() {
        let index = PcIndex::build(&rows());
        assert_eq!(index.row_ids(Pc::new(0x30)), Some(&[0, 3, 6, 9][..]));
        assert_eq!(index.row_ids(Pc::new(0x20)), Some(&[2, 5, 8, 11][..]));
        assert_eq!(index.row_ids(Pc::new(0x99)), Some(&[][..]));
        assert_eq!(index.unique_pcs(), [Pc::new(0x30), Pc::new(0x28), Pc::new(0x20)]);
        let pcs: Vec<Pc> = index.per_pc().iter().map(|s| s.pc).collect();
        assert_eq!(pcs, [Pc::new(0x20), Pc::new(0x28), Pc::new(0x30)]);
    }

    #[test]
    fn over_long_frames_keep_summaries_but_no_row_ids() {
        let (full, capped) = (PcIndex::build(&rows()), PcIndex::build_with_id_limit(&rows(), 11));
        assert_eq!(capped.row_ids(Pc::new(0x30)), None);
        assert_eq!(capped.per_pc(), full.per_pc());
        assert_eq!(capped.per_set(), full.per_set());
        assert_eq!(capped.unique_pcs(), full.unique_pcs());
        assert!(capped.contains(Pc::new(0x28)));
        assert!(PcIndex::build_with_id_limit(&rows(), 12).row_ids(Pc::new(0x30)).is_some());
    }

    #[test]
    fn empty_frames_index_to_nothing() {
        let index = PcIndex::build(&[]);
        assert!(index.per_pc().is_empty() && index.per_set().is_empty());
        assert_eq!(index.row_ids(Pc::new(0x30)), Some(&[][..]));
    }
}
