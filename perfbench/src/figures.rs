//! `figures_warm`: one caller streaming figure requests and bombs
//! through `run_once`, the `amgen-serve --once` pipeline, in process.
//!
//! `run_once` reads frames from a `Read` and writes responses to a
//! `Write`. The loop below hands it the next request only when it asks
//! for more input, which is after the previous response was flushed:
//! a closed loop with one caller and no sockets.

use std::cell::{Cell, RefCell};
use std::io::{Read, Write};
use std::rc::Rc;
use std::time::{Duration, Instant};

use amgen::serve::json::{self, Json};
use amgen::serve::proto::read_frame;
use amgen::serve::{run_once, ServeConfig};

use crate::host::HostSpeed;
use crate::requests::{self, Expect, Rng, Work};
use crate::stats::Outcome;

/// Set-up repetitions; `setup_s` is their median.
pub const SETUP_REPS: usize = 21;

/// What the caller does at each turn of the loop.
pub enum Turn {
    Send(Vec<u8>),
    Stop,
}

/// The response the previous turn's request got.
pub struct Answer {
    pub payload: Vec<u8>,
    pub sent: Instant,
    pub done: Instant,
}

/// The input side handed to `run_once`: produces the next request frame
/// each time the previous one has been consumed.
struct Feed<F> {
    out: Rc<RefCell<Vec<u8>>>,
    flushed: Rc<Cell<Instant>>,
    frame: Vec<u8>,
    pos: usize,
    sent: Option<Instant>,
    turn: F,
}

impl<F: FnMut(Option<Answer>) -> Turn> Read for Feed<F> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        if self.pos == self.frame.len() {
            // `run_once` wants the next frame, so it has written the
            // response to the previous one.
            let answer = self.sent.take().map(|sent| {
                let bytes = std::mem::take(&mut *self.out.borrow_mut());
                let payload = read_frame(&mut &bytes[..], usize::MAX).unwrap_or_default();
                Answer {
                    payload,
                    sent,
                    done: self.flushed.get(),
                }
            });
            match (self.turn)(answer) {
                Turn::Send(frame) => {
                    self.frame = frame;
                    self.pos = 0;
                    self.sent = Some(Instant::now());
                }
                Turn::Stop => return Ok(0),
            }
        }
        let n = buf.len().min(self.frame.len() - self.pos);
        buf[..n].copy_from_slice(&self.frame[self.pos..self.pos + n]);
        self.pos += n;
        Ok(n)
    }
}

/// The output side: collects response bytes; `write_frame` flushes once
/// per response, which marks the response complete.
struct Sink {
    out: Rc<RefCell<Vec<u8>>>,
    flushed: Rc<Cell<Instant>>,
}

impl Write for Sink {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.out.borrow_mut().extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.flushed.set(Instant::now());
        Ok(())
    }
}

/// Runs one `run_once` session driven by `turn`.
pub fn session(turn: impl FnMut(Option<Answer>) -> Turn) -> std::io::Result<()> {
    let out = Rc::new(RefCell::new(Vec::new()));
    let flushed = Rc::new(Cell::new(Instant::now()));
    let mut feed = Feed {
        out: Rc::clone(&out),
        flushed: Rc::clone(&flushed),
        frame: Vec::new(),
        pos: 0,
        sent: None,
        turn,
    };
    let mut sink = Sink { out, flushed };
    run_once(ServeConfig::default(), &mut feed, &mut sink).map(|_| ())
}

/// Checks responses against the figure corpus. The first answer to each
/// request is parsed and checked in full; every later answer must match
/// its deterministic part byte for byte.
pub struct Checker {
    pub works: Vec<Work>,
    pub first: Vec<Option<Vec<u8>>>,
}

impl Checker {
    pub fn new() -> Checker {
        let works = requests::figures();
        let first = vec![None; works.len()];
        Checker { works, first }
    }

    /// `Err` describes what was wrong with the answer to request `k`.
    pub fn check(&mut self, k: usize, payload: &[u8]) -> Result<(), String> {
        let work = &self.works[k];
        let det = requests::deterministic(payload)
            .ok_or_else(|| format!("{}: response has no stats section", work.id))?;
        if let Expect::Refused(_) = work.expect {
            let stats = &payload[det.len()..];
            if !contains(stats, b"\"fuel_used\":0,") {
                return Err(format!("{}: not refused with zero fuel spent", work.id));
            }
        }
        match &self.first[k] {
            Some(first) if first.as_slice() == det => Ok(()),
            Some(_) => Err(format!(
                "{}: payload differs from its first answer",
                work.id
            )),
            None => {
                check_full(work, payload)?;
                self.first[k] = Some(det.to_vec());
                Ok(())
            }
        }
    }
}

fn contains(hay: &[u8], needle: &[u8]) -> bool {
    hay.windows(needle.len()).any(|w| w == needle)
}

/// Parses a response and checks it against what `work` expects.
fn check_full(work: &Work, payload: &[u8]) -> Result<(), String> {
    let text = std::str::from_utf8(payload).map_err(|e| format!("{}: {e}", work.id))?;
    let doc = json::parse(text).map_err(|e| format!("{}: bad JSON: {e}", work.id))?;
    if doc.get("id").and_then(Json::as_str) != Some(work.id.as_str()) {
        return Err(format!(
            "{}: response id does not echo the request",
            work.id
        ));
    }
    let ok = doc.get("ok").and_then(Json::as_bool);
    let code = doc
        .get("error")
        .and_then(|e| e.get("code"))
        .and_then(Json::as_str);
    let fuel = doc
        .get("stats")
        .and_then(|s| s.get("fuel_used"))
        .and_then(Json::as_num);
    match work.expect {
        Expect::Ok if ok == Some(true) => Ok(()),
        Expect::Ok => Err(format!("{}: expected ok, got {code:?}", work.id)),
        Expect::Refused(want) if code == Some(want) && fuel == Some(0.0) => Ok(()),
        Expect::Refused(want) => Err(format!(
            "{}: expected {want} with zero fuel, got {code:?} with fuel {fuel:?}",
            work.id
        )),
    }
}

/// The seeded request order: one pass is every request once, each pass
/// in its own seeded order.
pub struct Order {
    rng: Rng,
    pass: Vec<usize>,
    n: usize,
}

impl Order {
    pub fn new(seed: u64, n: usize) -> Order {
        Order {
            rng: Rng::new(seed),
            pass: Vec::new(),
            n,
        }
    }

    pub fn next_pass(&mut self) -> Vec<usize> {
        let mut pass: Vec<usize> = (0..self.n).collect();
        self.rng.shuffle(&mut pass);
        pass
    }

    pub fn next(&mut self) -> usize {
        if self.pass.is_empty() {
            self.pass = self.next_pass();
        }
        self.pass.pop().expect("pass refilled above")
    }
}

/// Set-up runs `reps` sessions, each one warm-up pass from a cold
/// start; the last session then runs the timed phase. `scaled` selects
/// host-speed scaling (see `host.rs`).
pub fn run(seed: u64, seconds: Duration, reps: usize, scaled: bool) -> Outcome {
    let mut checker = Checker::new();
    let mut outcome = Outcome::default();
    let mut host = HostSpeed::new(scaled);
    let warm = Order::new(seed, checker.works.len()).next_pass();
    let mut order = Order::new(seed.wrapping_add(1), checker.works.len());
    for rep in 0..reps {
        let timed = rep + 1 == reps;
        let before = host.sample();
        let start = Instant::now();
        let mut warm_left = warm.clone();
        let mut in_flight: Option<(usize, bool)> = None;
        let mut deadline = None;
        let result = session(|answer| {
            if let (Some(a), Some((k, is_warm))) = (answer, in_flight) {
                let verdict = checker.check(k, &a.payload);
                if let Err(e) = &verdict {
                    outcome.problem(e.clone());
                }
                if !is_warm {
                    host.op(&mut outcome, a.done - a.sent, verdict.is_ok());
                } else if warm_left.is_empty() {
                    let after = host.sample();
                    outcome
                        .setup
                        .push(host.scale(a.done - start, before, after));
                }
            }
            if let Some(k) = warm_left.pop() {
                in_flight = Some((k, true));
                return Turn::Send(checker.works[k].frame.clone());
            }
            if !timed {
                return Turn::Stop;
            }
            let now = Instant::now();
            let end = *deadline.get_or_insert_with(|| {
                host.start();
                now + seconds
            });
            if now >= end {
                host.settle(&mut outcome);
                return Turn::Stop;
            }
            let k = order.next();
            in_flight = Some((k, false));
            Turn::Send(checker.works[k].frame.clone())
        });
        if let Err(e) = result {
            outcome.problem(format!("run_once failed: {e}"));
        }
    }
    outcome
}
