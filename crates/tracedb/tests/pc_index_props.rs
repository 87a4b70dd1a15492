//! Property tests for the frame's PC index.
//!
//! On random frames and random predicate trees, every answer the index
//! serves — `filter`, `count`, `find`, `rows_of`, `has_pc`, the per-PC and
//! per-set statistics, `unique_pcs`, `unique_sets`, `outcomes_for` — must
//! equal a naive full-scan oracle kept here: the same rows, in the same
//! order, and bit-identical statistics. Frames include empty ones, probes
//! include PCs the frame never issues, predicate trees nest `PcEquals`
//! under `And`, `Or` and `Not`, and the index is checked after a clone and
//! under racing first builds.

use std::collections::{HashMap, HashSet};
use std::sync::{Arc, Barrier};

use cachemind_sim::access::AccessKind;
use cachemind_sim::addr::{Address, Pc, SetId};
use cachemind_sim::replay::MissType;
use cachemind_tracedb::prelude::*;
use cachemind_workloads::program::ProgramImage;
use proptest::prelude::*;

/// A tiny deterministic PRNG (splitmix64) so each case derives a whole
/// frame and its probes from one generated seed.
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, bound: u64) -> u64 {
        self.next() % bound.max(1)
    }

    fn chance(&mut self, one_in: u64) -> bool {
        self.below(one_in) == 0
    }
}

/// Frames issue PCs from the first six slots of this pool; probes draw
/// from all eight, so two are always absent.
fn pool_pc(slot: u64) -> Pc {
    Pc::new(0x40_0000 + slot * 4)
}

/// A small address pool, so `(pc, address)` pairs repeat and some share a
/// line without being byte-equal.
fn pool_address(rng: &mut Mix) -> Address {
    Address::new(0x1000 + rng.below(10) * 24)
}

fn synth_frame(rng: &mut Mix) -> TraceFrame {
    let len = if rng.chance(8) { 0 } else { 1 + rng.below(160) };
    let pcs = 1 + rng.below(6);
    let rows = (0..len)
        .map(|index| {
            let is_miss = rng.chance(2);
            TraceRow {
                index,
                pc: pool_pc(rng.below(pcs)),
                address: pool_address(rng),
                kind: match rng.below(3) {
                    0 => AccessKind::Load,
                    1 => AccessKind::Store,
                    _ => AccessKind::Prefetch,
                },
                set: SetId::new(rng.below(12) as usize),
                is_miss,
                miss_type: is_miss.then_some(MissType::Capacity),
                evicted_address: rng.chance(3).then(|| pool_address(rng)),
                accessed_reuse_distance: rng.chance(2).then(|| rng.below(1 << 12)),
                evicted_reuse_distance: rng.chance(3).then(|| rng.below(1 << 12)),
                recency: rng.chance(2).then(|| rng.below(1 << 10)),
                resident_lines: Vec::new(),
                access_history: Vec::new(),
                eviction_scores: Vec::new(),
                bypassed: rng.chance(8),
            }
        })
        .collect();
    TraceFrame::new(rows, Arc::new(ProgramImage::new()))
}

fn probe_pc(rng: &mut Mix) -> Pc {
    pool_pc(rng.below(8))
}

fn leaf(rng: &mut Mix) -> Predicate {
    match rng.below(12) {
        0 => Predicate::True,
        1..=3 => Predicate::PcEquals(probe_pc(rng)),
        4 => Predicate::PcIn(vec![probe_pc(rng), probe_pc(rng)]),
        5 => Predicate::AddressEquals(pool_address(rng)),
        6 => Predicate::LineOf(pool_address(rng)),
        7 => Predicate::SetEquals(SetId::new(rng.below(12) as usize)),
        8 => Predicate::IsMiss(rng.chance(2)),
        9 => Predicate::KindIs(AccessKind::Store),
        10 => Predicate::ReuseDistanceAtLeast(rng.below(1 << 12)),
        _ => {
            let lo = rng.below(160);
            Predicate::IndexInRange(lo, lo + rng.below(80))
        }
    }
}

fn tree(rng: &mut Mix, depth: u32) -> Predicate {
    if depth == 0 || rng.chance(3) {
        return leaf(rng);
    }
    match rng.below(3) {
        0 => tree(rng, depth - 1).and(tree(rng, depth - 1)),
        1 => tree(rng, depth - 1).or(tree(rng, depth - 1)),
        _ => tree(rng, depth - 1).not(),
    }
}

/// Random trees, plus shapes that always put a `PcEquals` under an `And`,
/// an `Or` and a `Not`.
fn predicates(rng: &mut Mix) -> Vec<Predicate> {
    let mut out: Vec<Predicate> = (0..6).map(|_| tree(rng, 4)).collect();
    let pc = Predicate::PcEquals(probe_pc(rng));
    out.push(pc.clone().and(tree(rng, 3)));
    out.push(tree(rng, 3).and(tree(rng, 2).and(pc.clone())));
    out.push(pc.clone().or(tree(rng, 3)));
    out.push(pc.clone().not().and(tree(rng, 3)));
    out.push(pc.clone().and(Predicate::PcEquals(probe_pc(rng))));
    out.push(pc.and(tree(rng, 2)).not());
    out
}

/// What one case asks of a frame.
struct Probe {
    predicates: Vec<Predicate>,
    pcs: Vec<Pc>,
    pairs: Vec<(Pc, Address)>,
}

fn synth_probe(rng: &mut Mix) -> Probe {
    Probe {
        predicates: predicates(rng),
        pcs: (0..8).map(pool_pc).collect(),
        pairs: (0..8).map(|_| (probe_pc(rng), pool_address(rng))).collect(),
    }
}

/// Every answer, with rows named by their (unique) stream index.
#[derive(Debug, PartialEq)]
struct Answers {
    filter: Vec<Vec<u64>>,
    count: Vec<usize>,
    find: Vec<Option<u64>>,
    rows_of: Vec<Vec<u64>>,
    has_pc: Vec<bool>,
    pc_stats: Vec<Option<PcStats>>,
    outcomes: Vec<Vec<bool>>,
    per_pc: Vec<PcStats>,
    per_set: Vec<SetStats>,
    unique_pcs: Vec<Pc>,
    unique_sets: Vec<usize>,
}

fn indices<'a>(rows: impl IntoIterator<Item = &'a TraceRow>) -> Vec<u64> {
    rows.into_iter().map(|r| r.index).collect()
}

fn indexed(frame: &TraceFrame, probe: &Probe) -> Answers {
    let expert = CacheStatisticalExpert::new();
    Answers {
        filter: probe.predicates.iter().map(|p| indices(frame.filter(p))).collect(),
        count: probe.predicates.iter().map(|p| frame.count(p)).collect(),
        find: probe.predicates.iter().map(|p| frame.find(p).map(|r| r.index)).collect(),
        rows_of: probe.pcs.iter().map(|&pc| indices(frame.rows_of(pc))).collect(),
        has_pc: probe.pcs.iter().map(|&pc| frame.has_pc(pc)).collect(),
        pc_stats: probe.pcs.iter().map(|&pc| expert.pc_stats(frame, pc)).collect(),
        outcomes: probe.pairs.iter().map(|&(pc, a)| expert.outcomes_for(frame, pc, a)).collect(),
        per_pc: expert.per_pc(frame),
        per_set: expert.per_set(frame),
        unique_pcs: frame.unique_pcs(),
        unique_sets: frame.unique_sets(),
    }
}

/// The full-scan oracle: per-PC statistics accumulated row by row in
/// stream order, exactly as the frame computed them before it had an index.
fn oracle_per_pc(rows: &[TraceRow]) -> Vec<PcStats> {
    let mut groups: HashMap<Pc, Vec<&TraceRow>> = HashMap::new();
    for row in rows {
        groups.entry(row.pc).or_default().push(row);
    }
    let mean_stddev = |values: &[f64]| {
        if values.is_empty() {
            return (None, None);
        }
        let n = values.len() as f64;
        let mean = values.iter().sum::<f64>() / n;
        let var = values.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / n;
        (Some(mean), Some(var.sqrt()))
    };
    let mut out: Vec<PcStats> = groups
        .into_iter()
        .map(|(pc, rows)| {
            let reuse: Vec<f64> =
                rows.iter().filter_map(|r| r.accessed_reuse_distance.map(|d| d as f64)).collect();
            let evicted: Vec<f64> =
                rows.iter().filter_map(|r| r.evicted_reuse_distance.map(|d| d as f64)).collect();
            let (mean, sd) = mean_stddev(&reuse);
            let misses = rows.iter().filter(|r| r.is_miss).count() as u64;
            PcStats {
                pc,
                accesses: rows.len() as u64,
                hits: rows.len() as u64 - misses,
                misses,
                mean_accessed_reuse: mean,
                mean_evicted_reuse: mean_stddev(&evicted).0,
                reuse_stddev: sd,
                evictions_caused: rows.iter().filter(|r| r.evicted_address.is_some()).count()
                    as u64,
            }
        })
        .collect();
    out.sort_by_key(|s| s.pc);
    out
}

fn oracle(rows: &[TraceRow], probe: &Probe) -> Answers {
    let per_pc = oracle_per_pc(rows);
    let mut sets: Vec<usize> = rows.iter().map(|r| r.set.index()).collect();
    sets.sort_unstable();
    sets.dedup();
    let per_set = sets
        .iter()
        .map(|&set| {
            let in_set: Vec<&TraceRow> = rows.iter().filter(|r| r.set.index() == set).collect();
            SetStats {
                set,
                accesses: in_set.len() as u64,
                hits: in_set.iter().filter(|r| !r.is_miss).count() as u64,
            }
        })
        .collect();
    let mut seen = HashSet::new();
    let matching = |p: &Predicate| rows.iter().filter(|r| p.matches(r)).collect::<Vec<_>>();
    Answers {
        filter: probe.predicates.iter().map(|p| indices(matching(p))).collect(),
        count: probe.predicates.iter().map(|p| matching(p).len()).collect(),
        find: probe.predicates.iter().map(|p| matching(p).first().map(|r| r.index)).collect(),
        rows_of: probe.pcs.iter().map(|&pc| indices(rows.iter().filter(|r| r.pc == pc))).collect(),
        has_pc: probe.pcs.iter().map(|&pc| rows.iter().any(|r| r.pc == pc)).collect(),
        pc_stats: probe.pcs.iter().map(|&pc| per_pc.iter().find(|s| s.pc == pc).cloned()).collect(),
        outcomes: probe
            .pairs
            .iter()
            .map(|&(pc, a)| {
                rows.iter().filter(|r| r.pc == pc && r.address == a).map(|r| r.is_miss).collect()
            })
            .collect(),
        per_pc,
        per_set,
        unique_pcs: rows.iter().map(|r| r.pc).filter(|&pc| seen.insert(pc)).collect(),
        unique_sets: sets,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn index_answers_equal_the_full_scan_oracle(seed in any::<u64>()) {
        let mut rng = Mix(seed);
        let frame = synth_frame(&mut rng);
        let probe = synth_probe(&mut rng);
        let expected = oracle(frame.rows(), &probe);
        prop_assert_eq!(indexed(&frame, &probe), expected);
        // Asked again, the built index gives the same answers.
        prop_assert_eq!(indexed(&frame, &probe), oracle(frame.rows(), &probe));
        // The two pool PCs no frame issues are absent.
        for pc in [pool_pc(6), pool_pc(7)] {
            prop_assert!(!frame.has_pc(pc));
            prop_assert!(CacheStatisticalExpert::new().pc_stats(&frame, pc).is_none());
            prop_assert_eq!(frame.rows_of(pc).count(), 0);
        }
    }

    #[test]
    fn cloned_frames_keep_a_valid_index(seed in any::<u64>()) {
        let mut rng = Mix(seed);
        let frame = synth_frame(&mut rng);
        let probe = synth_probe(&mut rng);
        let before = indexed(&frame, &probe);
        let clone = frame.clone();
        prop_assert_eq!(indexed(&clone, &probe), oracle(clone.rows(), &probe));
        prop_assert_eq!(indexed(&clone, &probe), before);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn racing_first_builds_agree(seed in any::<u64>()) {
        let mut rng = Mix(seed);
        let frame = synth_frame(&mut rng);
        let probe = synth_probe(&mut rng);
        let start = Barrier::new(4);
        let answers: Vec<Answers> = std::thread::scope(|s| {
            let workers: Vec<_> = (0..4)
                .map(|_| {
                    s.spawn(|| {
                        start.wait();
                        indexed(&frame, &probe)
                    })
                })
                .collect();
            workers.into_iter().map(|w| w.join().expect("worker")).collect()
        });
        let expected = oracle(frame.rows(), &probe);
        for a in &answers {
            prop_assert_eq!(a, &expected);
        }
    }
}

#[test]
fn empty_frames_answer_nothing() {
    let frame = TraceFrame::new(Vec::new(), Arc::new(ProgramImage::new()));
    let probe = synth_probe(&mut Mix(7));
    let answers = indexed(&frame, &probe);
    assert_eq!(answers, oracle(&[], &probe));
    assert!(answers.per_pc.is_empty() && answers.unique_sets.is_empty());
    assert!(frame.find(&Predicate::True).is_none());
}
