//! `chip_signoff`: one caller building and signing off a chip.
//!
//! Each op builds the Fig. 9 amplifier cold on a fresh uncached context,
//! tiles it `REPLICATION` times, runs DRC, the latch-up check,
//! connectivity and parasitic extraction, and writes GDS. The input is
//! the same every op: the seed has nothing to vary here.

use std::sync::Arc;
use std::time::{Duration, Instant};

use amgen::amp::build_amplifier;
use amgen::core::GenCtx;
use amgen::drc::{latchup, Drc};
use amgen::export::write_gds;
use amgen::extract::Extractor;
use amgen::tech::{RuleSet, Tech};
use amgen::trace::TraceSink;
use amgen_bench::workloads;

use crate::host::HostSpeed;
use crate::stats::Outcome;

/// Set-up repetitions; `setup_s` is their median.
pub const SETUP_REPS: usize = 5;

/// Amplifier tiles per chip.
pub const REPLICATION: usize = 8;

/// Nets the 8-tile chip extracts to: 48 per amplifier.
pub const EXPECTED_NETS: usize = 384;

/// What one signoff produced.
pub struct Signoff {
    pub shapes: usize,
    pub violations: usize,
    pub latchup: usize,
    pub nets: usize,
    pub parasitic_nets: usize,
    pub gds_bytes: usize,
}

impl Signoff {
    /// `Err` says what makes the chip fail signoff.
    pub fn check(&self) -> Result<(), String> {
        if self.violations != 0 || self.latchup != 0 {
            return Err(format!(
                "chip has {} DRC and {} latch-up violations",
                self.violations, self.latchup
            ));
        }
        if self.nets != EXPECTED_NETS || self.parasitic_nets != EXPECTED_NETS {
            return Err(format!(
                "chip extracts {} nets ({} with parasitics), expected {EXPECTED_NETS}",
                self.nets, self.parasitic_nets
            ));
        }
        if self.gds_bytes == 0 {
            return Err("GDS stream is empty".into());
        }
        Ok(())
    }
}

/// The compiled technology every op shares.
pub struct Deck {
    pub tech: Tech,
    pub rules: Arc<RuleSet>,
}

impl Deck {
    pub fn compile() -> Deck {
        let tech = workloads::tech();
        let rules = tech.compile_arc();
        Deck { tech, rules }
    }
}

/// One signoff, each public call inside a span of `sink` (inert when
/// the sink is disabled).
pub fn signoff(deck: &Deck, sink: &TraceSink) -> Result<Signoff, String> {
    let ctx = GenCtx::new(Arc::clone(&deck.rules));
    let amp = {
        let _s = sink.span("amp", || "build");
        build_amplifier(&ctx)
            .map_err(|e| format!("amplifier build failed: {e}"))?
            .0
    };
    let chip = {
        let _s = sink.span("db", || "assemble");
        workloads::fig_chip(&deck.tech, &amp, REPLICATION)
    };
    {
        let _s = sink.span("geom", || "index_build");
        chip.spatial_index();
    }
    let violations = {
        let _s = sink.span("drc", || "check");
        Drc::new(&ctx).check(&chip).len()
    };
    let latchup = {
        let _s = sink.span("drc", || "latchup");
        latchup::check_latchup(&ctx, &chip).len()
    };
    let ex = Extractor::new(&ctx);
    let nets = {
        let _s = sink.span("extract", || "connectivity");
        ex.connectivity(&chip).len()
    };
    let parasitic_nets = {
        let _s = sink.span("extract", || "parasitics");
        ex.parasitics(&chip).len()
    };
    let gds_bytes = {
        let _s = sink.span("export", || "gds");
        write_gds(&deck.tech, &chip).len()
    };
    Ok(Signoff {
        shapes: chip.len(),
        violations,
        latchup,
        nets,
        parasitic_nets,
        gds_bytes,
    })
}

/// Runs ops back to back for `seconds`, checking each; `host` scales
/// their times.
pub fn timed_phase(
    deck: &Deck,
    seconds: Duration,
    sink: &TraceSink,
    host: &mut HostSpeed,
    outcome: &mut Outcome,
) {
    let start = Instant::now();
    host.start();
    while start.elapsed() < seconds {
        let t = Instant::now();
        let verdict = {
            let _s = sink.span("op", || "chip_signoff");
            signoff(deck, sink)
        }
        .and_then(|s| s.check());
        host.op(outcome, t.elapsed(), verdict.is_ok());
        if let Err(e) = verdict {
            outcome.problem(e);
        }
    }
    host.settle(outcome);
}

/// Set-up compiles the deck and runs one warm-up signoff, `reps` times;
/// the last deck runs the timed phase. `scaled` selects host-speed
/// scaling (see `host.rs`).
pub fn run(seconds: Duration, reps: usize, scaled: bool) -> Outcome {
    let mut outcome = Outcome::default();
    let mut host = HostSpeed::new(scaled);
    let mut deck = None;
    for _ in 0..reps {
        let before = host.sample();
        let start = Instant::now();
        let d = Deck::compile();
        if let Err(e) = signoff(&d, &TraceSink::new()).and_then(|s| s.check()) {
            outcome.problem(format!("warm-up signoff: {e}"));
        }
        let raw = start.elapsed();
        let after = host.sample();
        outcome.setup.push(host.scale(raw, before, after));
        deck = Some(d);
    }
    let deck = deck.expect("at least one set-up repetition");
    timed_phase(&deck, seconds, &TraceSink::new(), &mut host, &mut outcome);
    outcome
}
