//! Seeded input generation and the files that carry inputs to the
//! measured process.
//!
//! The generator (`perfbench gen`) runs in its own process: it builds the
//! trace database, writes the snapshot, and draws questions, session
//! scripts or grid cells from the seed. The measured process
//! (`perfbench run`) receives only these files.

use std::collections::{HashMap, HashSet};
use std::fmt::Write as _;
use std::path::Path;

use cachemind_benchsuite::catalog::Catalog;
use cachemind_benchsuite::question::{Expected, Question};
use cachemind_lang::intent::QueryCategory;
use cachemind_tracedb::{TraceDatabase, TraceEntry};

use crate::stats::Rng;

/// One question in a workload's input, with its kind (the category mix
/// reports count by kind) and, for CacheMindBench catalog questions, the
/// verified answer.
#[derive(Debug, Clone, PartialEq)]
pub struct Item {
    pub kind: String,
    pub expected: Option<Expected>,
    pub text: String,
}

impl Item {
    fn new(kind: &str, text: String) -> Self {
        Item { kind: kind.to_owned(), expected: None, text }
    }

    /// The catalog question this item is, for scoring. Scoring reads only
    /// the expected answer, so the category is not carried in the file.
    pub fn question(&self) -> Option<Question> {
        self.expected.clone().map(|expected| Question {
            id: self.kind.clone(),
            text: self.text.clone(),
            category: QueryCategory::HitMiss,
            expected,
        })
    }
}

fn encode_expected(expected: &Option<Expected>) -> String {
    match expected {
        None => "-".to_owned(),
        Some(Expected::HitMiss(miss)) => format!("hitmiss:{miss}"),
        Some(Expected::Number { value, tolerance }) => format!("number:{value:?}:{tolerance:?}"),
        Some(Expected::RankingFirst(name)) => format!("rank:{name}"),
        Some(Expected::Trick) => "trick".to_owned(),
        Some(Expected::Rubric) => "rubric".to_owned(),
    }
}

fn decode_expected(text: &str) -> Result<Option<Expected>, String> {
    let bad = || format!("bad expected answer {text:?}");
    let mut parts = text.splitn(3, ':');
    Ok(match parts.next().ok_or_else(bad)? {
        "-" => None,
        "hitmiss" => Some(Expected::HitMiss(parts.next().ok_or_else(bad)? == "true")),
        "number" => {
            let value = parts.next().and_then(|v| v.parse().ok()).ok_or_else(bad)?;
            let tolerance = parts.next().and_then(|v| v.parse().ok()).ok_or_else(bad)?;
            Some(Expected::Number { value, tolerance })
        }
        "rank" => Some(Expected::RankingFirst(text["rank:".len()..].to_owned())),
        "trick" => Some(Expected::Trick),
        "rubric" => Some(Expected::Rubric),
        _ => return Err(bad()),
    })
}

/// Writes items as `kind \t expected \t text` lines.
pub fn write_items(path: &Path, items: &[Item]) -> std::io::Result<()> {
    let mut out = String::new();
    for item in items {
        debug_assert!(!item.text.contains(['\t', '\n']));
        let _ = writeln!(out, "{}\t{}\t{}", item.kind, encode_expected(&item.expected), item.text);
    }
    std::fs::write(path, out)
}

pub fn read_items(path: &Path) -> Result<Vec<Item>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    text.lines()
        .map(|line| {
            let mut parts = line.splitn(3, '\t');
            match (parts.next(), parts.next(), parts.next()) {
                (Some(kind), Some(expected), Some(text)) => Ok(Item {
                    kind: kind.to_owned(),
                    expected: decode_expected(expected)?,
                    text: text.to_owned(),
                }),
                _ => Err(format!("malformed question line {line:?}")),
            }
        })
        .collect()
}

/// Upper-cases policy names the way the catalog writes them.
fn policy_caps(policy: &str) -> String {
    match policy {
        "lru" => "LRU".to_owned(),
        "mlp" => "MLP".to_owned(),
        "parrot" => "PARROT".to_owned(),
        "belady" => "Belady".to_owned(),
        other => other.to_owned(),
    }
}

/// One trace a question can be about, with the PCs it holds and how a
/// question names its scope: `mcf` for the primary machine, `mcf@table2`
/// for a machine-qualified trace.
struct Source<'a> {
    entry: &'a TraceEntry,
    pcs: Vec<String>,
    scope: String,
    machine: Option<String>,
}

/// Every unprefetched trace of `db`; with `pinned`, the machine-qualified
/// ones too.
fn sources(db: &TraceDatabase, pinned: bool) -> Vec<Source<'_>> {
    db.entries()
        .filter(|e| e.id.prefetcher.is_none() && (pinned || e.id.machine.is_none()))
        .map(|entry| {
            // Canonical labels start with the preset name: `table2@llc...`.
            let machine =
                entry.id.machine.as_ref().map(|m| m.split('@').next().unwrap_or(m).to_owned());
            let scope = match &machine {
                Some(m) => format!("{}@{m}", entry.id.workload),
                None => entry.id.workload.clone(),
            };
            let pcs = entry.frame.unique_pcs().iter().map(ToString::to_string).collect();
            Source { entry, pcs, scope, machine }
        })
        .collect()
}

/// The exploration vocabulary that routes straight to the plan runtime.
const EXPLORATIONS: [&str; 5] = [
    "List all unique PCs in the {w} trace under {p}.",
    "List the unique cache sets in the {w} trace under {p}.",
    "Group PCs by reuse variance in the {w} trace under {p}.",
    "Identify hot and cold sets in the {w} trace under {p}.",
    "Show the per-PC table for {w} under {p}.",
];

/// Lead-ins that make distinct question texts (the answer cache keys on
/// the verbatim text) for the same trace lookup, as users rephrase; the
/// trace-grounded template spaces alone hold only a few hundred questions
/// per kind.
const LEAD_INS: [&str; 16] = [
    "",
    "Quick question: ",
    "Please answer: ",
    "Based on the traces, ",
    "I am curious: ",
    "Question: ",
    "From the simulation data, ",
    "One more thing: ",
    "Looking at the database, ",
    "Help me understand: ",
    "Next: ",
    "Can you check: ",
    "For my analysis, ",
    "Follow-up: ",
    "In the stored results, ",
    "Please check: ",
];

const ARITHMETIC: [&str; 3] = ["average", "maximum", "minimum"];
const COLUMNS: [&str; 2] = ["reuse distance", "evicted reuse distance"];

/// Draws a question of `kind` about `source`, in the catalog's phrasing.
/// `None` when the trace cannot ground the kind.
fn draw(source: &Source<'_>, kind: &str, rng: &mut Rng) -> Option<Item> {
    let (w, p) = (&source.scope, policy_caps(&source.entry.id.policy));
    let pc = &source.pcs[rng.below(source.pcs.len())];
    let text = match kind {
        "hitmiss" => {
            let rows = source.entry.frame.rows();
            let row = &rows[rng.below(rows.len())];
            format!(
                "Does the memory access with PC {} and address {} result in a cache hit or \
                 cache miss for the {w} workload and {p} replacement policy?",
                row.pc, row.address
            )
        }
        "missrate" => format!(
            "What is the miss rate for PC {pc} in the {w} workload with the {p} replacement \
             policy? Answer in percent."
        ),
        "count" => match rng.below(2) {
            0 => format!("How many times did PC {pc} appear in the {w} workload under {p}?"),
            _ => format!("How many cache misses did PC {pc} cause in the {w} workload under {p}?"),
        },
        "arithmetic" => format!(
            "What is the {} {} of PC {pc} for the {w} workload with {p}?",
            ARITHMETIC[rng.below(ARITHMETIC.len())],
            COLUMNS[rng.below(COLUMNS.len())]
        ),
        "ranking" => {
            let extreme = if rng.below(2) == 0 { "lowest" } else { "highest" };
            format!("Which policy has the {extreme} miss rate for PC {pc} in the {w} workload?")
        }
        "ipc" => {
            source.machine.as_ref()?;
            match rng.below(2) {
                0 => format!("What is the estimated IPC for {w} under {p}?"),
                _ => format!("Which policy gives the highest IPC on {w}?"),
            }
        }
        "explore" => {
            EXPLORATIONS[rng.below(EXPLORATIONS.len())].replace("{w}", w).replace("{p}", &p)
        }
        other => unreachable!("unknown question kind {other}"),
    };
    Some(Item::new(kind, format!("{}{text}", LEAD_INS[rng.below(LEAD_INS.len())])))
}

/// Draws `n` distinct questions following a repeating `schedule` of
/// kinds. Each kind walks the traces round-robin in a seed-shuffled
/// order, so every seed spreads each kind evenly over the traces (and
/// their costs). A kind whose template space is exhausted (no fresh
/// question in a bounded number of draws) drops out of the schedule; the
/// others continue in order.
fn draw_distinct(
    sources: &[Source<'_>],
    schedule: &[&str],
    n: usize,
    seen: &mut HashSet<String>,
    rng: &mut Rng,
) -> Vec<Item> {
    let kinds: HashSet<&str> = schedule.iter().copied().collect();
    let mut order: Vec<usize> = (0..sources.len()).collect();
    rng.shuffle(&mut order);
    let mut cursors: HashMap<&str, usize> = HashMap::new();
    let mut exhausted: HashSet<&str> = HashSet::new();
    let mut out = Vec::with_capacity(n);
    let mut slot = 0usize;
    while out.len() < n && exhausted.len() < kinds.len() {
        let kind = schedule[slot % schedule.len()];
        slot += 1;
        if exhausted.contains(kind) {
            continue;
        }
        let cursor = cursors.entry(kind).or_default();
        let fresh = (0..200)
            .filter_map(|_| {
                *cursor += 1;
                draw(&sources[order[*cursor % order.len()]], kind, rng)
            })
            .find(|item| seen.insert(item.text.clone()));
        match fresh {
            Some(item) => out.push(item),
            None => {
                exhausted.insert(kind);
            }
        }
    }
    out
}

/// The CacheMindBench catalog of `db`, as items.
fn catalog_items(db: &TraceDatabase) -> Vec<Item> {
    Catalog::generate(db)
        .questions()
        .iter()
        .map(|q| Item {
            kind: format!("catalog.{:?}", q.category).to_lowercase(),
            expected: Some(q.expected.clone()),
            text: q.text.replace(['\t', '\n'], " "),
        })
        .collect()
}

/// Puts `catalog` at every `stride`-th position of `trace`, so any
/// prefix of the stream longer than `stride × catalog.len()` holds every
/// catalog question.
fn interleave(catalog: Vec<Item>, trace: Vec<Item>, stride: usize) -> Vec<Item> {
    let mut out = Vec::with_capacity(catalog.len() + trace.len());
    let mut catalog = catalog.into_iter();
    let mut trace = trace.into_iter();
    loop {
        let next = if out.len() % stride == 0 {
            catalog.next().or_else(|| trace.next())
        } else {
            trace.next().or_else(|| catalog.next())
        };
        match next {
            Some(item) => out.push(item),
            None => return out,
        }
    }
}

/// The qa-grounded question stream: the catalog interleaved every tenth
/// question with seed-drawn trace questions about every machine's traces,
/// every text distinct. The schedule follows the catalog's trace-grounded
/// category shares, plus IPC questions and exploration commands.
pub fn qa_questions(db: &TraceDatabase, seed: u64, n: usize) -> Vec<Item> {
    let catalog = catalog_items(db);
    let mut seen: HashSet<String> = catalog.iter().map(|i| i.text.clone()).collect();
    let schedule = [
        "hitmiss",
        "missrate",
        "ranking",
        "arithmetic",
        "hitmiss",
        "count",
        "ipc",
        "ranking",
        "hitmiss",
        "explore",
        "missrate",
        "arithmetic",
        "hitmiss",
        "ranking",
        "ipc",
        "count",
        "hitmiss",
        "explore",
        "hitmiss",
        "arithmetic",
    ];
    let sources = sources(db, true);
    let trace = draw_distinct(&sources, &schedule, n, &mut seen, &mut Rng::new(seed, 1));
    interleave(catalog, trace, 10)
}

/// The chat-tcp question universe: the catalog interleaved with
/// seed-drawn trace questions, every text distinct. Sessions introduce
/// them in this order.
pub fn chat_universe(db: &TraceDatabase, seed: u64, n: usize) -> Vec<Item> {
    let catalog = catalog_items(db);
    let mut seen: HashSet<String> = catalog.iter().map(|i| i.text.clone()).collect();
    let schedule =
        ["hitmiss", "missrate", "ranking", "hitmiss", "count", "arithmetic", "hitmiss", "explore"];
    let sources = sources(db, false);
    let trace = draw_distinct(&sources, &schedule, n, &mut seen, &mut Rng::new(seed, 2));
    interleave(catalog, trace, 10)
}

/// Share of asks that introduce a question no session has asked before;
/// the rest repeat an earlier one.
pub const CHAT_NEW_SHARE: f64 = 0.2;

/// Asks per session, inclusive range.
pub const CHAT_SESSION_ASKS: (usize, usize) = (20, 40);

/// Session scripts over a universe of `universe` questions: each session
/// is a list of question indices. A repeat picks an already-asked
/// question with popularity skewed towards the earliest ones (the index
/// is drawn as `asked × u³` for uniform `u`).
pub fn chat_sessions(universe: usize, seed: u64, total_asks: usize) -> Vec<Vec<usize>> {
    let mut rng = Rng::new(seed, 3);
    let mut asked = 0usize;
    let mut sessions = Vec::new();
    let mut count = 0usize;
    while count < total_asks {
        let (lo, hi) = CHAT_SESSION_ASKS;
        let len = lo + rng.below(hi - lo + 1);
        let session: Vec<usize> = (0..len)
            .map(|_| {
                if asked < universe && (asked == 0 || rng.unit() < CHAT_NEW_SHARE) {
                    asked += 1;
                    asked - 1
                } else {
                    let u = rng.unit();
                    ((asked as f64 * u * u * u) as usize).min(asked - 1)
                }
            })
            .collect();
        count += session.len();
        sessions.push(session);
    }
    sessions
}

pub fn write_sessions(path: &Path, sessions: &[Vec<usize>]) -> std::io::Result<()> {
    let mut out = String::new();
    for session in sessions {
        let line: Vec<String> = session.iter().map(usize::to_string).collect();
        let _ = writeln!(out, "{}", line.join(" "));
    }
    std::fs::write(path, out)
}

pub fn read_sessions(path: &Path) -> Result<Vec<Vec<usize>>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    text.lines()
        .map(|line| {
            line.split_whitespace()
                .map(|i| i.parse().map_err(|_| format!("bad session line {line:?}")))
                .collect()
        })
        .collect()
}

/// The sweep grid a seed draws: which workloads and policies fill the
/// fixed 4 × 2 × 3 × 5 shape.
#[derive(Debug, Clone, PartialEq)]
pub struct GridSpec {
    pub workloads: Vec<String>,
    pub machines: Vec<String>,
    pub prefetchers: Vec<String>,
    pub policies: Vec<String>,
}

/// Policy classes by replay cost (each class's members replay a cell in
/// about the same time). The draw takes one policy from each, so the
/// replay work of a grid, and with it cells per second, does not swing
/// with the seed. `mlp` replays about ten times slower than any other
/// policy; a grid with it would measure little else, so it is not drawn.
pub const POLICY_CLASSES: [&[&str]; 5] = [
    &["lru", "fifo", "mru", "random"],
    &["srrip", "brrip", "drrip", "dip"],
    &["ship", "bip", "lip"],
    &["hawkeye", "mockingjay", "parrot"],
    &["belady"],
];

/// The light workloads a grid draws one of. `lbm`, `mcf` (heavy) and
/// `ptrchase` (light) are in every grid: generating the streams of both
/// `astar` and `bzip2` takes twice as long as any other draw, which would
/// make set-up time bimodal across seeds. Streams are ordered light,
/// heavy, heavy, light — the CI grid's pattern (astar, lbm, mcf,
/// ptrchase) — so each half of the grid, which the parallel stages hand
/// to one worker each, holds one heavy and one light stream for every
/// draw. Another order would measure a seed-dependent load imbalance
/// instead of the code.
pub const LIGHT_WORKLOADS: [&str; 2] = ["astar", "bzip2"];

pub fn sweep_grid(seed: u64) -> GridSpec {
    let mut rng = Rng::new(seed, 4);
    let mut pick = |class: &[&str]| class[rng.below(class.len())].to_owned();
    let light = pick(&LIGHT_WORKLOADS);
    let mut policies: Vec<String> = POLICY_CLASSES.iter().map(|class| pick(class)).collect();
    policies.sort();
    GridSpec {
        workloads: vec![light, "lbm".into(), "mcf".into(), "ptrchase".into()],
        machines: vec!["table2".into(), "small".into()],
        prefetchers: vec!["none".into(), "nextline".into(), "stride4".into()],
        policies,
    }
}

pub fn write_grid(path: &Path, grid: &GridSpec) -> std::io::Result<()> {
    std::fs::write(
        path,
        format!(
            "workloads {}\nmachines {}\nprefetchers {}\npolicies {}\n",
            grid.workloads.join(","),
            grid.machines.join(","),
            grid.prefetchers.join(","),
            grid.policies.join(",")
        ),
    )
}

pub fn read_grid(path: &Path) -> Result<GridSpec, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let field = |name: &str| -> Result<Vec<String>, String> {
        text.lines()
            .find_map(|l| l.strip_prefix(name).and_then(|rest| rest.strip_prefix(' ')))
            .map(|list| list.split(',').map(str::to_owned).collect())
            .ok_or_else(|| format!("grid file lacks {name}"))
    };
    Ok(GridSpec {
        workloads: field("workloads")?,
        machines: field("machines")?,
        prefetchers: field("prefetchers")?,
        policies: field("policies")?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expected_answers_round_trip_through_the_file_encoding() {
        for expected in [
            None,
            Some(Expected::HitMiss(true)),
            Some(Expected::Number { value: 44.690000000000005, tolerance: 0.05 }),
            Some(Expected::RankingFirst("belady".into())),
            Some(Expected::Trick),
            Some(Expected::Rubric),
        ] {
            assert_eq!(decode_expected(&encode_expected(&expected)).unwrap(), expected);
        }
    }

    #[test]
    fn interleave_places_the_catalog_every_stride() {
        let items = |kind: &str, n: usize| -> Vec<Item> {
            (0..n).map(|i| Item::new(kind, format!("{kind}{i}"))).collect()
        };
        let out = interleave(items("c", 3), items("t", 20), 5);
        assert_eq!(out.len(), 23);
        let catalog_at: Vec<usize> =
            out.iter().enumerate().filter(|(_, i)| i.kind == "c").map(|(p, _)| p).collect();
        assert_eq!(catalog_at, vec![0, 5, 10]);
    }

    #[test]
    fn chat_sessions_introduce_questions_in_order_and_mostly_repeat() {
        let sessions = chat_sessions(10_000, 5, 20_000);
        let asks: Vec<usize> = sessions.iter().flatten().copied().collect();
        assert!(asks.len() >= 20_000);
        let mut next_new = 0;
        let mut new = 0;
        for &q in &asks {
            assert!(q <= next_new, "question {q} asked before {next_new}");
            if q == next_new {
                next_new += 1;
                new += 1;
            }
        }
        let share = new as f64 / asks.len() as f64;
        assert!((0.15..0.25).contains(&share), "new-question share {share}");
        assert!(sessions.iter().all(|s| (20..=40).contains(&s.len())));
        assert_eq!(chat_sessions(10_000, 5, 20_000), sessions);
    }

    #[test]
    fn sweep_grid_draws_the_ci_shape() {
        let grid = sweep_grid(9);
        assert_eq!(grid.workloads.len() * grid.machines.len(), 8);
        assert_eq!(grid.prefetchers.len() * grid.policies.len(), 15);
        assert_eq!(sweep_grid(9), grid);
    }
}
