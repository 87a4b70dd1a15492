//! The repository benchmark.
//!
//! ```text
//! perfbench gen --workload W --seed N --dir D
//! perfbench run --workload W --dir D --seconds S --trace 0|1 [--spans FILE]
//! ```
//!
//! `gen` draws a workload's inputs from the seed into `D`; `run` is the
//! measured process, which receives only those files. `run` prints a
//! details line (input properties, checks, every measured number) and,
//! last, the result line: `correct`, `attempted`, `failed` and the
//! end-to-end (`--trace 0`) or per-layer (`--trace 1`) metrics. See
//! README.md in this directory for what each workload and metric means.

mod chat;
mod inputs;
mod pipeline;
mod qa;
mod report;
mod stats;
mod store;
mod sweep;
mod trace;
mod traced;

use std::path::PathBuf;

use report::Outcome;

pub const WORKLOADS: [&str; 3] = ["qa-grounded", "chat-tcp", "sweep-small"];

struct Args {
    command: String,
    workload: String,
    seed: u64,
    dir: PathBuf,
    seconds: f64,
    trace: bool,
    spans: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let command = args.next().ok_or("usage: perfbench gen|run --workload W ...")?;
    let mut parsed = Args {
        command,
        workload: String::new(),
        seed: 0,
        dir: PathBuf::new(),
        seconds: 10.0,
        trace: false,
        spans: None,
    };
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || value.parse::<f64>().map_err(|_| format!("bad {flag} value {value:?}"));
        match flag.as_str() {
            "--workload" => parsed.workload = value.clone(),
            "--seed" => {
                parsed.seed = value.parse().map_err(|_| format!("bad --seed value {value:?}"))?
            }
            "--dir" => parsed.dir = PathBuf::from(&value),
            "--seconds" => parsed.seconds = number()?,
            "--trace" => parsed.trace = value == "1",
            "--spans" => parsed.spans = Some(PathBuf::from(&value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&parsed.workload.as_str()) {
        return Err(format!("unknown workload {:?} (one of {WORKLOADS:?})", parsed.workload));
    }
    if parsed.seconds.is_nan() || parsed.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(parsed)
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("perfbench: {message}");
            std::process::exit(2);
        }
    };
    let result = match args.command.as_str() {
        "gen" => generate(&args),
        "run" => measure(&args),
        other => Err(format!("unknown command {other:?}")),
    };
    if let Err(message) = result {
        eprintln!("perfbench: {message}");
        std::process::exit(1);
    }
}

fn generate(args: &Args) -> Result<(), String> {
    std::fs::create_dir_all(&args.dir).map_err(|e| format!("{}: {e}", args.dir.display()))?;
    match args.workload.as_str() {
        "qa-grounded" => qa::generate(&args.dir, args.seed),
        "chat-tcp" => chat::generate(&args.dir, args.seed),
        _ => sweep::generate(&args.dir, args.seed),
    }
}

fn measure(args: &Args) -> Result<(), String> {
    // Two workers everywhere: two closed-loop clients, two serve workers,
    // two rayon workers for the sweep.
    std::env::set_var("RAYON_NUM_THREADS", "2");
    let mut out = Outcome::default();
    let spans = args.spans.as_deref();
    let (dir, seconds) = (&args.dir, args.seconds);
    match (args.workload.as_str(), args.trace) {
        ("qa-grounded", false) => qa::run(dir, seconds, &mut out)?,
        ("qa-grounded", true) => qa::run_traced(dir, seconds, spans, &mut out)?,
        ("chat-tcp", false) => chat::run(dir, seconds, &mut out)?,
        ("chat-tcp", true) => chat::run_traced(dir, seconds, spans, &mut out)?,
        (_, false) => sweep::run(dir, seconds, &mut out)?,
        (_, true) => sweep::run_traced(dir, seconds, spans, &mut out)?,
    }
    out.check(out.attempted > 0, || "nothing was attempted".into());
    println!("{}", out.details_line(&args.workload, args.trace));
    let result = out.result_line(args.trace);
    println!("{result}");
    if out.problems.is_empty() {
        Ok(())
    } else {
        Err(format!("output checks failed: {}", out.problems.join("; ")))
    }
}
