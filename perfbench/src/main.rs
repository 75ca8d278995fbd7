//! The amgen benchmark: three closed-loop workloads over the
//! public API, each printing one JSON result line.
//!
//! ```text
//! perfbench --workload <figures_warm|sweep_tcp|chip_signoff> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` the run measures the workload untraced and prints the
//! end-to-end metrics. With `--trace 1` it prints the per-layer metrics
//! instead, from traced phases of every workload (see `trace.rs`), and
//! writes the spans as a Chrome trace under `perfbench/out/`.
//! `perfbench/NOTES.md` says why each workload and metric was chosen.

mod chip;
mod figures;
mod host;
mod layers;
mod requests;
mod stats;
mod sweep;
mod trace;

use std::time::Duration;

use stats::{Metric, Outcome};

/// The workloads, as named on the command line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    FiguresWarm,
    SweepTcp,
    ChipSignoff,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::FiguresWarm,
        Workload::SweepTcp,
        Workload::ChipSignoff,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::FiguresWarm => "figures_warm",
            Workload::SweepTcp => "sweep_tcp",
            Workload::ChipSignoff => "chip_signoff",
        }
    }

    fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: Duration,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("`{flag}` needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload `{value}`"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(Duration::from_secs_f64(s));
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
    })
}

/// Runs one workload untraced and returns its end-to-end metrics.
fn end_to_end(args: &Args) -> (Outcome, Vec<Metric>) {
    let outcome = match args.workload {
        Workload::FiguresWarm => figures::run(args.seed, args.seconds, figures::SETUP_REPS, true),
        Workload::SweepTcp => sweep::run(args.seed, args.seconds, sweep::SETUP_REPS, true),
        Workload::ChipSignoff => chip::run(args.seconds, chip::SETUP_REPS, true),
    };
    let metrics = outcome.end_to_end_metrics();
    (outcome, metrics)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let (mut outcome, metrics) = if args.trace {
        trace::run(args.workload, args.seed, args.seconds)
    } else {
        end_to_end(&args)
    };
    for m in metrics.iter().filter(|m| !m.value.is_finite()) {
        outcome.problem(format!("{} is not a finite number", m.name));
    }
    for problem in &outcome.problems {
        eprintln!("perfbench: check failed: {problem}");
    }
    println!("{}", stats::result_line(&outcome, &metrics));
    if !outcome.correct() {
        std::process::exit(1);
    }
}
