//! The traced run: per-layer metrics from spans the benchmark records
//! around each public call.
//!
//! Whatever the selected workload, the run traces all three, so every
//! per-layer metric is measured where its layer does its work: the
//! request front half on `figures_warm`, generation and serialization on
//! a replay of the `sweep_tcp` stream, the socket on `sweep_tcp` itself,
//! and geometry on `chip_signoff`. Only `trace.overhead` and
//! `serve.unattributed_share` describe the selected workload. Times of
//! the in-process phases are host-scaled like the end-to-end figures
//! (`host.rs`); socket times are raw. Spans stay in memory until the
//! end, then go to a Chrome trace file
//! (`perfbench/out/trace-<workload>.json`) and the per-layer figures to
//! `perfbench/out/layers-<workload>.json`.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::{Duration, Instant};

use amgen::core::Stage;
use amgen::serve::{ServeConfig, Server};
use amgen::trace::{Phase, Trace, TraceSink};

use crate::chip::{self, Deck};
use crate::figures::{self, Checker, Order, Turn};
use crate::host::HostSpeed;
use crate::layers::Pipeline;
use crate::requests::{self, Sweep};
use crate::stats::{median, metrics_json, ms, us, Metric, Outcome};
use crate::sweep;
use crate::Workload;

/// Requests of the sweep stream replayed in process: enough to turn the
/// 256-module cache over several times.
const SWEEP_REPLAY: usize = 600;

/// A round trip over this is a stalled one: twice the slowest
/// unstalled round trip, and half the 40 ms delayed-ACK timer.
const STALL: Duration = Duration::from_millis(20);

/// Span time by `(op, category, name)`, and op counts and time by op.
#[derive(Default)]
struct Spans {
    layers: BTreeMap<(String, &'static str, String), Duration>,
    ops: BTreeMap<String, (u64, Duration)>,
}

impl Spans {
    /// Sums every span, charging each to the top-level `op` span that
    /// encloses it on its thread.
    fn from_trace(trace: &Trace) -> Spans {
        let mut spans = Spans::default();
        let mut open: BTreeMap<u32, Vec<(&'static str, String, u64)>> = BTreeMap::new();
        for e in &trace.events {
            let stack = open.entry(e.tid).or_default();
            match e.phase {
                Phase::Begin => stack.push((e.cat, e.name.as_str().to_string(), e.t_ns)),
                Phase::End => {
                    let Some((cat, name, begin)) = stack.pop() else {
                        continue;
                    };
                    let d = Duration::from_nanos(e.t_ns.saturating_sub(begin));
                    if cat == "op" {
                        let op = spans.ops.entry(name).or_default();
                        op.0 += 1;
                        op.1 += d;
                    } else if let Some((_, op, _)) = stack.first() {
                        *spans.layers.entry((op.clone(), cat, name)).or_default() += d;
                    }
                }
                Phase::Instant => {}
            }
        }
        spans
    }

    fn count(&self, op: &str) -> u64 {
        self.ops.get(op).map_or(0, |o| o.0)
    }

    /// Mean time per op of layer span `cat`/`name` under `op`.
    fn mean(&self, op: &str, cat: &'static str, name: &str) -> Duration {
        let total = self
            .layers
            .get(&(op.to_string(), cat, name.to_string()))
            .copied()
            .unwrap_or_default();
        total / self.count(op).max(1) as u32
    }

    /// Share of the `op` spans' time covered by no layer span.
    fn unattributed(&self, op: &str) -> f64 {
        let total = self.ops.get(op).map_or(Duration::ZERO, |o| o.1);
        let layers: Duration = self
            .layers
            .iter()
            .filter(|((o, _, _), _)| o == op)
            .map(|(_, d)| *d)
            .sum();
        1.0 - layers.as_secs_f64() / total.as_secs_f64().max(1e-12)
    }

    /// Mean time per op of every layer span under `op`, summed.
    fn layers_mean(&self, op: &str) -> Duration {
        let sum: Duration = self
            .layers
            .iter()
            .filter(|((o, _, _), _)| o == op)
            .map(|(_, d)| *d)
            .sum();
        sum / self.count(op).max(1) as u32
    }
}

/// What a traced in-process phase measured on the host-scaled clock.
struct Measured {
    throughput: f64,
    /// Scaled over raw time: puts the phase's raw span times on the
    /// clock of the end-to-end figures.
    factor: f64,
}

/// The figure corpus replayed through the layers for `seconds`, in
/// whole passes, each payload checked against `run_once`'s. Also
/// returns the refusals per pass.
fn figures_phase(
    seed: u64,
    seconds: Duration,
    sink: &TraceSink,
    outcome: &mut Outcome,
) -> (Measured, f64) {
    // `run_once`'s own answers are the reference payloads.
    let mut checker = Checker::new();
    let mut pass = Order::new(seed, checker.works.len()).next_pass();
    let mut in_flight = None;
    let mut problems = Vec::new();
    let result = figures::session(|answer| {
        if let (Some(a), Some(k)) = (answer, in_flight) {
            if let Err(e) = checker.check(k, &a.payload) {
                problems.push(e);
            }
        }
        in_flight = pass.pop();
        match in_flight {
            Some(k) => Turn::Send(checker.works[k].frame.clone()),
            None => Turn::Stop,
        }
    });
    if let Err(e) = result {
        problems.push(format!("run_once failed: {e}"));
    }
    for p in problems {
        outcome.problem(p);
    }

    let pipeline = Pipeline::new();
    let mut order = Order::new(seed.wrapping_add(1), checker.works.len());
    // One untraced pass warms the pipeline's cache, as set-up does for
    // the server.
    for k in order.next_pass() {
        if let Err(e) = pipeline.serve(&TraceSink::new(), &checker.works[k].frame) {
            outcome.problem(format!("replay failed: {e}"));
        }
    }
    let (mut passes, mut refused) = (0u64, 0u64);
    let mut phase = Outcome::default();
    let mut host = HostSpeed::new(true);
    host.start();
    let start = Instant::now();
    while start.elapsed() < seconds {
        for k in order.next_pass() {
            let t = Instant::now();
            let served = {
                let _op = sink.span("op", || "figures_warm");
                pipeline.serve(sink, &checker.works[k].frame)
            };
            let latency = t.elapsed();
            let verdict = served.and_then(|s| {
                let payload = amgen::serve::proto::read_frame(&mut &s.frame[..], usize::MAX)
                    .map_err(|e| e.to_string())?;
                checker.check(k, &payload)
            });
            if let Err(e) = &verdict {
                phase.problem(format!("replay differs from run_once: {e}"));
            }
            if checker.works[k].expect != requests::Expect::Ok {
                refused += 1;
            }
            host.op(&mut phase, latency, verdict.is_ok());
        }
        passes += 1;
    }
    host.settle(&mut phase);
    let measured = Measured {
        throughput: phase.throughput(),
        factor: host.factor(),
    };
    outcome.absorb(phase);
    (measured, refused as f64 / passes.max(1) as f64)
}

/// Socket figures of the traced `sweep_tcp` phase.
#[derive(Default)]
struct Socket {
    throughput: f64,
    large_share: f64,
    stalled_share: f64,
    outside_run: Duration,
    mean_rtt: Duration,
}

fn sweep_tcp_phase(
    seed: u64,
    seconds: Duration,
    sink: &TraceSink,
    outcome: &mut Outcome,
) -> Socket {
    let mut rig = match sweep::start_rig(seed) {
        Ok(r) => r,
        Err(e) => {
            outcome.problem(e);
            return Socket::default();
        }
    };
    let (elapsed, conns) = sweep::timed_phase(&mut rig, seed, seconds, sink);
    drop(rig);
    sweep::account(outcome, &conns);
    let detail: Vec<_> = conns
        .iter()
        .flat_map(|c| c.detail.iter().copied())
        .collect();
    let n = detail.len().max(1) as f64;
    let share = |pred: &dyn Fn(&(usize, Duration, u64)) -> bool| {
        detail.iter().filter(|d| pred(d)).count() as f64 / n
    };
    let rtt_total: Duration = detail.iter().map(|d| d.1).sum();
    let outside: f64 = detail
        .iter()
        .map(|&(_, rtt, wall)| us(rtt) - wall as f64)
        .sum::<f64>()
        / n;
    Socket {
        throughput: detail.len() as f64 / elapsed.as_secs_f64(),
        large_share: share(&|d| d.0 > sweep::SERVER_WRITE_BUFFER),
        stalled_share: share(&|d| d.1 > STALL),
        outside_run: Duration::from_secs_f64(outside.max(0.0) / 1e6),
        mean_rtt: rtt_total / detail.len().max(1) as u32,
    }
}

/// Generation counters of the in-process sweep replay.
#[derive(Default)]
struct Generation {
    hits: u64,
    misses: u64,
    evicted: u64,
    objects_placed: u64,
    stage_nanos: BTreeMap<&'static str, u64>,
    response_bytes: u64,
}

/// Replays the first `SWEEP_REPLAY` requests of both connections'
/// streams, alternating as the server sees them, through the layers.
fn sweep_replay(seed: u64, sink: &TraceSink, outcome: &mut Outcome) -> (Generation, f64) {
    let pipeline = Pipeline::new();
    let mut phase = Outcome::default();
    let mut host = HostSpeed::new(true);
    host.start();
    let names = sweep::tenants();
    let mut streams = [
        Sweep::new(seed, 0, &names[0]),
        Sweep::new(seed, 1, &names[1]),
    ];
    let mut gen = Generation::default();
    for i in 0..SWEEP_REPLAY {
        let frame = requests::frame(&streams[i % 2].next_json());
        let t = Instant::now();
        let served = {
            let _op = sink.span("op", || "sweep_replay");
            pipeline.serve(sink, &frame)
        };
        let latency = t.elapsed();
        let ok = match served {
            Ok(s) => {
                let payload = amgen::serve::proto::read_frame(&mut &s.frame[..], usize::MAX)
                    .unwrap_or_default();
                gen.response_bytes += s.frame.len() as u64;
                gen.hits += s.snap.cache_hits;
                gen.misses += s.snap.cache_misses;
                gen.evicted += s.snap.cache_evicted;
                gen.objects_placed += s.snap.objects_placed;
                for stage in Stage::ALL {
                    *gen.stage_nanos.entry(stage.name()).or_default() += s.snap.stage_nanos(stage);
                }
                sweep::is_ok(&payload)
            }
            Err(_) => false,
        };
        if !ok {
            phase.problem("a replayed sweep request was not ok");
        }
        host.op(&mut phase, latency, ok);
    }
    host.settle(&mut phase);
    outcome.absorb(phase);
    (gen, host.factor())
}

/// Median of `reps` timings of `f`.
fn timed(reps: usize, mut f: impl FnMut()) -> Duration {
    let samples: Vec<Duration> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed()
        })
        .collect();
    median(&samples)
}

pub fn run(workload: Workload, seed: u64, seconds: Duration) -> (Outcome, Vec<Metric>) {
    let quarter = seconds / 4;
    let mut outcome = Outcome::default();

    let compile = timed(21, || {
        std::hint::black_box(amgen_bench::workloads::tech().compile_arc());
    });
    let mut starts = Vec::new();
    for _ in 0..3 {
        let t = Instant::now();
        match Server::start("127.0.0.1:0", ServeConfig::default()) {
            Ok(server) => {
                starts.push(t.elapsed());
                server.shutdown();
            }
            Err(e) => outcome.problem(format!("server start failed: {e}")),
        }
    }
    let server_start = median(&starts);

    // The selected workload untraced, for the overhead ratio; scaled
    // like its traced phase.
    let untraced = match workload {
        Workload::FiguresWarm => figures::run(seed, quarter, 1, true),
        Workload::SweepTcp => sweep::run(seed, quarter, 1, false),
        Workload::ChipSignoff => chip::run(quarter, 1, true),
    };
    for p in &untraced.problems {
        outcome.problem(p.clone());
    }

    let sink = TraceSink::new();
    sink.set_enabled(true);
    let started = Instant::now();
    let (figures, refused_per_pass) = figures_phase(seed, quarter, &sink, &mut outcome);
    let socket = sweep_tcp_phase(seed, quarter, &sink, &mut outcome);
    let (gen, replay_factor) = sweep_replay(seed, &sink, &mut outcome);
    let deck = Deck::compile();
    let last = chip::signoff(&deck, &TraceSink::new());
    let mut chip_outcome = Outcome::default();
    let mut chip_host = HostSpeed::new(true);
    chip::timed_phase(&deck, quarter, &sink, &mut chip_host, &mut chip_outcome);
    let chip = Measured {
        throughput: chip_outcome.throughput(),
        factor: chip_host.factor(),
    };
    outcome.absorb(chip_outcome);
    outcome.elapsed = started.elapsed();
    let trace = sink.drain();
    let spans = Spans::from_trace(&trace);

    let traced_tput = match workload {
        Workload::FiguresWarm => figures.throughput,
        Workload::SweepTcp => socket.throughput,
        Workload::ChipSignoff => chip.throughput,
    };
    let unattributed = match workload {
        Workload::FiguresWarm => spans.unattributed("figures_warm"),
        Workload::ChipSignoff => spans.unattributed("chip_signoff"),
        // The replay holds every layer of the server; what a round trip
        // spends outside them is socket, queueing and stall time.
        Workload::SweepTcp => {
            1.0 - spans.layers_mean("sweep_replay").as_secs_f64()
                / socket.mean_rtt.as_secs_f64().max(1e-12)
        }
    };
    let signoff = match last {
        Ok(s) => s,
        Err(e) => {
            outcome.problem(e);
            return (outcome, Vec::new());
        }
    };

    // In-process layer times go on the host-scaled clock of the
    // end-to-end figures; socket and set-up times stay raw.
    let f = |cat, name| us(spans.mean("figures_warm", cat, name)) * figures.factor;
    let s = |cat, name| us(spans.mean("sweep_replay", cat, name)) * replay_factor;
    let c = |cat, name| ms(spans.mean("chip_signoff", cat, name)) * chip.factor;
    let n_replay = SWEEP_REPLAY as f64;
    let stage_us = |stage: &str| {
        gen.stage_nanos.get(stage).copied().unwrap_or(0) as f64 / n_replay / 1e3 * replay_factor
    };
    let metrics = vec![
        Metric::new("lint.certify_us", f("lint", "certify"), "us"),
        Metric::new("lint.refused", refused_per_pass, "count"),
        Metric::new("serve.parse_us", f("serve", "parse"), "us"),
        Metric::new("serve.ctx_setup_us", f("serve", "ctx_setup"), "us"),
        Metric::new("serve.frame_read_us", f("serve", "frame_read"), "us"),
        Metric::new("serve.frame_write_us", f("serve", "frame_write"), "us"),
        Metric::new("dsl.run_us", s("dsl", "run"), "us"),
        Metric::new("serve.serialize_us", s("serve", "serialize"), "us"),
        Metric::new(
            "serve.response_bytes",
            gen.response_bytes as f64 / n_replay,
            "bytes",
        ),
        Metric::new(
            "genctx.cache_hit_ratio",
            gen.hits as f64 / (gen.hits + gen.misses).max(1) as f64,
            "ratio",
        ),
        Metric::new("genctx.cache_evicted", gen.evicted as f64, "count"),
        Metric::new("db.objects_placed", gen.objects_placed as f64, "count"),
        Metric::new("prim.stage_us", stage_us("prim"), "us"),
        Metric::new("compact.stage_us", stage_us("compact"), "us"),
        Metric::new("extract.stage_us", stage_us("extract"), "us"),
        Metric::new("serve.large_response_share", socket.large_share, "ratio"),
        Metric::new("serve.stalled_share", socket.stalled_share, "ratio"),
        Metric::new("serve.outside_run_us", us(socket.outside_run), "us"),
        Metric::new("drc.check_ms", c("drc", "check"), "ms"),
        Metric::new("drc.latchup_ms", c("drc", "latchup"), "ms"),
        Metric::new(
            "extract.connectivity_ms",
            c("extract", "connectivity"),
            "ms",
        ),
        Metric::new("extract.parasitics_ms", c("extract", "parasitics"), "ms"),
        Metric::new("geom.index_build_ms", c("geom", "index_build"), "ms"),
        Metric::new("amp.build_ms", c("amp", "build"), "ms"),
        Metric::new("db.assemble_ms", c("db", "assemble"), "ms"),
        Metric::new("export.gds_ms", c("export", "gds"), "ms"),
        Metric::new(
            "drc.violations",
            (signoff.violations + signoff.latchup) as f64,
            "count",
        ),
        Metric::new("extract.nets", signoff.nets as f64, "count"),
        Metric::new("db.shapes", signoff.shapes as f64, "count"),
        Metric::new("export.gds_bytes", signoff.gds_bytes as f64, "bytes"),
        Metric::new("tech.compile_us", us(compile), "us"),
        Metric::new("serve.start_ms", ms(server_start), "ms"),
        Metric::new(
            "trace.overhead",
            untraced.throughput() / traced_tput.max(1e-12),
            "ratio",
        ),
        Metric::new("serve.unattributed_share", unattributed, "ratio"),
    ];
    if let Err(e) = write_out(workload, &trace, &metrics) {
        outcome.problem(format!("writing the trace files failed: {e}"));
    }
    (outcome, metrics)
}

/// Writes the span file and the per-layer figures under `perfbench/out/`.
fn write_out(workload: Workload, trace: &Trace, metrics: &[Metric]) -> std::io::Result<()> {
    let dir = Path::new("perfbench/out");
    std::fs::create_dir_all(dir)?;
    trace.write_chrome_file(dir.join(format!("trace-{}.json", workload.name())))?;
    std::fs::write(
        dir.join(format!("layers-{}.json", workload.name())),
        format!("{{\n  {}\n}}\n", metrics_json(metrics).join(",\n  ")),
    )
}
