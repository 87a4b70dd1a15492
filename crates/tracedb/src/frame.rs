//! [`TraceFrame`] — the database's per-trace "data_frame".

use std::fmt;
use std::sync::{Arc, OnceLock};

use cachemind_sim::addr::Pc;
use cachemind_workloads::program::ProgramImage;

use crate::filter::Predicate;
use crate::pc_index::PcIndex;
use crate::record::TraceRow;

/// A frame of trace rows plus the program image that maps PCs to code.
///
/// Equivalent to the paper's pandas `data_frame`, with text columns
/// (`function_name`, `function_code`, `assembly_code`) joined lazily from
/// the shared [`ProgramImage`].
///
/// The first PC-scoped question asked of a frame ([`TraceFrame::rows_of`],
/// [`TraceFrame::has_pc`], a predicate with a `PcEquals` conjunct, the
/// per-PC and per-set statistics) builds the frame's PC index in one pass;
/// every later one reads it. Decoding and building a frame never do.
#[derive(Clone)]
pub struct TraceFrame {
    rows: Vec<TraceRow>,
    program: Arc<ProgramImage>,
    index: OnceLock<PcIndex>,
}

impl fmt::Debug for TraceFrame {
    // The index is derived, lazily built state: leaving it out keeps a
    // frame's rendering independent of the questions already asked of it.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TraceFrame")
            .field("rows", &self.rows)
            .field("program", &self.program)
            .finish()
    }
}

/// The rows a predicate can match: one PC's rows (by row id, or by a scan
/// when the index keeps no row ids), or the whole frame.
enum Candidates<'a> {
    Ids(&'a [TraceRow], std::slice::Iter<'a, u32>),
    Scan(std::slice::Iter<'a, TraceRow>, Option<Pc>),
}

impl<'a> Iterator for Candidates<'a> {
    type Item = &'a TraceRow;

    fn next(&mut self) -> Option<&'a TraceRow> {
        match self {
            Candidates::Ids(rows, ids) => ids.next().map(|&id| &rows[id as usize]),
            Candidates::Scan(rows, None) => rows.next(),
            Candidates::Scan(rows, Some(pc)) => rows.find(|r| r.pc == *pc),
        }
    }
}

impl TraceFrame {
    /// Creates a frame over `rows` with `program` as the code-lookup source.
    pub fn new(rows: Vec<TraceRow>, program: Arc<ProgramImage>) -> Self {
        TraceFrame { rows, program, index: OnceLock::new() }
    }

    /// The frame's PC index, built on first use.
    pub(crate) fn pc_index(&self) -> &PcIndex {
        self.index.get_or_init(|| PcIndex::build(&self.rows))
    }

    fn candidates(&self, pc: Option<Pc>) -> Candidates<'_> {
        match pc.and_then(|pc| self.pc_index().row_ids(pc)) {
            Some(ids) => Candidates::Ids(&self.rows, ids.iter()),
            None => Candidates::Scan(self.rows.iter(), pc),
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the frame has no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// All rows, in stream order.
    pub fn rows(&self) -> &[TraceRow] {
        &self.rows
    }

    /// The program image behind the frame's PCs.
    pub fn program(&self) -> &ProgramImage {
        &self.program
    }

    /// Rows issued by `pc`, in stream order.
    pub fn rows_of(&self, pc: Pc) -> impl Iterator<Item = &TraceRow> + '_ {
        self.candidates(Some(pc))
    }

    /// Whether any row was issued by `pc`.
    pub fn has_pc(&self, pc: Pc) -> bool {
        self.pc_index().contains(pc)
    }

    /// Rows matching `predicate`, in stream order (borrowed). A predicate
    /// with a `PcEquals` conjunct visits only that PC's rows.
    pub fn filter(&self, predicate: &Predicate) -> Vec<&TraceRow> {
        self.candidates(predicate.required_pc()).filter(|r| predicate.matches(r)).collect()
    }

    /// Number of rows matching `predicate`.
    pub fn count(&self, predicate: &Predicate) -> usize {
        self.candidates(predicate.required_pc()).filter(|r| predicate.matches(r)).count()
    }

    /// The first row matching `predicate`, in stream order.
    pub fn find(&self, predicate: &Predicate) -> Option<&TraceRow> {
        self.candidates(predicate.required_pc()).find(|r| predicate.matches(r))
    }

    /// The `function_name` column value for a PC.
    pub fn function_name(&self, pc: Pc) -> Option<&str> {
        self.program.function_of(pc).map(|f| f.name.as_str())
    }

    /// The `function_code` column value for a PC.
    pub fn function_code(&self, pc: Pc) -> Option<&str> {
        self.program.source_of(pc)
    }

    /// The `assembly_code` column value for a PC (a window of disassembly).
    pub fn assembly_code(&self, pc: Pc) -> Option<String> {
        self.program.assembly_window(pc, 2)
    }

    /// Distinct PCs in first-seen order.
    pub fn unique_pcs(&self) -> Vec<Pc> {
        self.pc_index().unique_pcs().to_vec()
    }

    /// Renders the frame as CSV, one row per access, with the paper's
    /// column names (snapshot columns are summarised by their lengths).
    /// Intended for exporting artifacts and interoperating with pandas.
    pub fn to_csv(&self) -> String {
        let mut out = String::from(
            "index,program_counter,memory_address,cache_set_id,evict,miss_type,\
             evicted_address,accessed_address_reuse_distance_numeric,\
             evicted_address_reuse_distance_numeric,accessed_address_recency_numeric,\
             accessed_address_recency,function_name,is_miss\n",
        );
        for r in &self.rows {
            let opt_u64 = |v: Option<u64>| v.map(|x| x.to_string()).unwrap_or_default();
            let opt_addr = |v: Option<cachemind_sim::addr::Address>| {
                v.map(|a| format!("{a}")).unwrap_or_default()
            };
            out.push_str(&format!(
                "{},{},{},{},{},{},{},{},{},{},{},{},{}\n",
                r.index,
                r.pc,
                r.address,
                r.set.index(),
                r.evict_label(),
                r.miss_type_label(),
                opt_addr(r.evicted_address),
                opt_u64(r.accessed_reuse_distance),
                opt_u64(r.evicted_reuse_distance),
                opt_u64(r.recency),
                r.recency_label(),
                self.function_name(r.pc).unwrap_or(""),
                r.is_miss as u8,
            ));
        }
        out
    }

    /// Distinct set ids, ascending.
    pub fn unique_sets(&self) -> Vec<usize> {
        self.pc_index().per_set().iter().map(|s| s.set).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cachemind_sim::addr::{Address, SetId};

    fn frame() -> TraceFrame {
        let mut rows = Vec::new();
        for i in 0..10u64 {
            rows.push(TraceRow {
                index: i,
                pc: Pc::new(0x400000 + (i % 3) * 4),
                address: Address::new(0x1000 + i * 64),
                kind: cachemind_sim::access::AccessKind::Load,
                set: SetId::new((i % 4) as usize),
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
            });
        }
        TraceFrame::new(rows, Arc::new(ProgramImage::new()))
    }

    #[test]
    fn filter_and_count_agree() {
        let f = frame();
        let p = Predicate::IsMiss(true);
        assert_eq!(f.filter(&p).len(), f.count(&p));
        assert_eq!(f.count(&p), 5);
    }

    #[test]
    fn pc_scoped_scans_read_only_that_pcs_rows() {
        let f = frame();
        let pc = Pc::new(0x400000);
        let indices: Vec<u64> = f.rows_of(pc).map(|r| r.index).collect();
        assert_eq!(indices, [0, 3, 6, 9]);
        let p = Predicate::PcEquals(pc).and(Predicate::IsMiss(true));
        assert_eq!(f.count(&p), 2);
        assert_eq!(f.find(&p).map(|r| r.index), Some(0));
        assert!(f.has_pc(pc) && !f.has_pc(Pc::new(0x1)));
    }

    #[test]
    fn frames_without_row_ids_fall_back_to_scans() {
        let indexed = frame();
        let scanned = frame();
        assert!(scanned.index.set(PcIndex::build_with_id_limit(scanned.rows(), 0)).is_ok());
        for pc in [0x400000, 0x400004, 0x400008, 0x1].map(Pc::new) {
            let p = Predicate::PcEquals(pc).and(Predicate::IsMiss(false));
            assert_eq!(scanned.filter(&p), indexed.filter(&p));
            assert_eq!(scanned.count(&p), indexed.count(&p));
            assert_eq!(scanned.find(&p), indexed.find(&p));
            assert!(scanned.rows_of(pc).eq(indexed.rows_of(pc)));
            assert_eq!(scanned.has_pc(pc), indexed.has_pc(pc));
        }
    }

    #[test]
    fn unique_pcs_and_sets() {
        let f = frame();
        assert_eq!(f.unique_pcs().len(), 3);
        assert_eq!(f.unique_sets(), vec![0, 1, 2, 3]);
    }

    #[test]
    fn unmapped_pc_has_no_function() {
        let f = frame();
        assert!(f.function_name(Pc::new(0x400000)).is_none());
    }

    #[test]
    fn csv_export_has_header_and_rows() {
        let f = frame();
        let csv = f.to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), f.len() + 1);
        assert!(lines[0].starts_with("index,program_counter"));
        assert!(lines[1].contains("Cache Miss") || lines[1].contains("Cache Hit"));
        // Every data row has the same number of fields as the header.
        let fields = lines[0].split(',').count();
        for l in &lines[1..] {
            assert_eq!(l.split(',').count(), fields, "row {l}");
        }
    }
}
