//! Host speed, measured while a workload runs, for the in-process
//! CPU-bound workloads.
//!
//! The 2-vCPU VM on a shared Xeon host this benchmark was tuned on runs
//! one CPU-bound op at two speeds about 1.4× apart, switching every few
//! seconds in proportions that drift over minutes: the same chip signoff
//! took 63 ms or 92 ms within one process, in wall and in thread CPU time
//! alike. Over ten 20 s runs, the spread of raw times (interquartile
//! range over median) reached 0.15 for `chip_signoff` throughput and
//! 0.31 for `figures_warm` p50. A fixed piece of reference work, timed
//! between ops, slows down with them; scaled by it, the same spreads
//! stayed at or below 0.07.
//!
//! So `figures_warm` and `chip_signoff` report every time scaled to a
//! host on which the reference takes [`NOMINAL`]: each op's latency, the
//! timed phase and each set-up repetition is multiplied by `NOMINAL`
//! over the mean of the reference samples taken just before and just
//! after it. A change to the program under test moves its op times and
//! not the reference, so it shows in full. `sweep_tcp` scales its
//! set-up only: a third of its op latencies are set by the kernel's
//! delayed-ACK timer, not by the CPU. The traced run scales its
//! in-process phases the same way (see `HostSpeed::factor`).

use std::hint::black_box;
use std::time::{Duration, Instant};

use crate::requests::Rng;
use crate::stats::Outcome;

/// The reference work's time on the host the scaled figures describe:
/// about its time on the tuning VM in its slower state.
pub const NOMINAL: Duration = Duration::from_micros(800);

/// Ops finished within this much wall time share one pair of reference
/// samples. The reference costs about 3% of it.
const INTERVAL: Duration = Duration::from_millis(25);

/// Elements the reference work sorts.
const REFERENCE_LEN: usize = 1 << 15;

pub struct HostSpeed {
    scaled: bool,
    rng: Rng,
    buf: Vec<u64>,
    last: Duration,
    mark: Instant,
    pending: Vec<(Duration, bool)>,
    /// Wall time booked by `settle`, raw and scaled.
    booked_raw: Duration,
    booked_scaled: Duration,
}

impl HostSpeed {
    /// `scaled: false` passes raw wall times through unchanged.
    pub fn new(scaled: bool) -> HostSpeed {
        let mut host = HostSpeed {
            scaled,
            rng: Rng::new(0x5eed),
            buf: vec![0; REFERENCE_LEN],
            last: NOMINAL,
            mark: Instant::now(),
            pending: Vec::new(),
            booked_raw: Duration::ZERO,
            booked_scaled: Duration::ZERO,
        };
        host.last = host.sample();
        host.mark = Instant::now();
        host
    }

    /// Times the reference work once: fill a buffer from a PRNG and sort
    /// it. Integer, branchy and cache-resident, like the ops it paces.
    pub fn sample(&mut self) -> Duration {
        if !self.scaled {
            return NOMINAL;
        }
        let start = Instant::now();
        for v in self.buf.iter_mut() {
            *v = self.rng.next_u64();
        }
        self.buf.sort_unstable();
        black_box(&self.buf);
        start.elapsed()
    }

    /// `raw` scaled by the reference samples taken before and after it.
    pub fn scale(&self, raw: Duration, before: Duration, after: Duration) -> Duration {
        if !self.scaled {
            return raw;
        }
        raw.mul_f64(2.0 * NOMINAL.as_secs_f64() / (before + after).as_secs_f64())
    }

    /// Restarts the timed phase's clock.
    pub fn start(&mut self) {
        self.pending.clear();
        self.mark = Instant::now();
    }

    /// Records one op of the timed phase; its latency is scaled once
    /// the next reference sample is in.
    pub fn op(&mut self, outcome: &mut Outcome, latency: Duration, ok: bool) {
        self.pending.push((latency, ok));
        if self.mark.elapsed() >= INTERVAL {
            self.settle(outcome);
        }
    }

    /// Takes a reference sample and books the ops and the wall time
    /// since the previous one, scaled by the two samples around them.
    pub fn settle(&mut self, outcome: &mut Outcome) {
        let wall = self.mark.elapsed();
        let before = self.last;
        let after = self.sample();
        for (latency, ok) in std::mem::take(&mut self.pending) {
            outcome.op(self.scale(latency, before, after), ok);
        }
        let scaled = self.scale(wall, before, after);
        outcome.elapsed += scaled;
        self.booked_raw += wall;
        self.booked_scaled += scaled;
        self.last = after;
        self.mark = Instant::now();
    }

    /// Scaled over raw time, over everything `settle` has booked: the
    /// factor that puts a raw time measured meanwhile on the scaled clock.
    pub fn factor(&self) -> f64 {
        self.booked_scaled.as_secs_f64() / self.booked_raw.as_secs_f64().max(1e-12)
    }
}
