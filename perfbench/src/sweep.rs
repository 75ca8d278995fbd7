//! `sweep_tcp`: two connections, on two tenants that land on different
//! shards, send a seeded parameter sweep to an in-process `Server`.
//!
//! The client builds each request frame in a buffer and sends it with
//! one write on a `TCP_NODELAY` socket. Calling `write_frame` on the
//! socket itself sends the length line and the payload as two writes,
//! and Nagle's algorithm then holds the payload until the server's
//! delayed ACK, about 40 ms, on every request: that would measure the
//! client. The server's own two-write responses (over its 8 KiB
//! `BufWriter`) are left as they are; their stall is part of what the
//! workload measures.

use std::io::{BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use amgen::serve::json::{self, Json};
use amgen::serve::proto::read_frame;
use amgen::serve::{ServeConfig, Server};
use amgen::trace::TraceSink;

use crate::figures::{self, Turn};
use crate::host::HostSpeed;
use crate::requests::{self, Rng, Sweep};
use crate::stats::Outcome;

/// Set-up repetitions; `setup_s` is their median.
pub const SETUP_REPS: usize = 7;

/// The server's response write buffer: frames above it go out in two
/// writes.
pub const SERVER_WRITE_BUFFER: usize = 8 * 1024;

/// Small requests each connection sends during set-up, so the timed
/// phase starts after the kernel's initial quick-ACK period.
const WARM_REQUESTS: usize = 24;

/// One sampled request in `SAMPLE_EVERY` is kept and replayed through
/// `run_once` after the timed phase.
const SAMPLE_EVERY: u64 = 64;

/// The two tenants: `amgen-serve` shards by FNV-1a of the tenant name,
/// so these two hash to different shards of the default two.
pub fn tenants() -> [String; 2] {
    let fnv1a = |s: &str| {
        s.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
    };
    let shards = ServeConfig::default().workers as u64;
    let a = "sweep-a".to_string();
    let b = (0..)
        .map(|i| format!("sweep-b{i}"))
        .find(|b| fnv1a(b) % shards != fnv1a(&a) % shards)
        .expect("some name lands on another shard");
    [a, b]
}

/// One client connection.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    buf: Vec<u8>,
}

/// One round trip as the client saw it.
pub struct Trip {
    pub payload: Vec<u8>,
    pub rtt: Duration,
    /// Frame bytes of the response: the length line plus the payload.
    pub frame_len: usize,
}

impl Client {
    pub fn connect(addr: SocketAddr) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Client {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
            buf: Vec::new(),
        })
    }

    /// Sends one request in a single write and waits for the response.
    pub fn round_trip(&mut self, json: &str, sink: &TraceSink) -> std::io::Result<Trip> {
        let start = Instant::now();
        {
            let _s = sink.span("client", || "send");
            self.buf.clear();
            amgen::serve::proto::write_frame(&mut self.buf, json.as_bytes())?;
            self.writer.write_all(&self.buf)?;
        }
        let payload = {
            let _s = sink.span("client", || "await_response");
            read_frame(&mut self.reader, usize::MAX)
                .map_err(|e| std::io::Error::other(e.to_string()))?
        };
        let rtt = start.elapsed();
        let frame_len = payload.len() + payload.len().to_string().len() + 1;
        Ok(Trip {
            payload,
            rtt,
            frame_len,
        })
    }
}

/// The answer's check: the response is `ok`.
pub fn is_ok(payload: &[u8]) -> bool {
    requests::deterministic(payload).is_some_and(|d| d.ends_with(b"\"ok\":true,\"protocol\":1"))
}

/// A sampled request and the deterministic payload TCP answered it with.
type Sample = (String, Vec<u8>);

/// What one connection measured in a timed phase.
#[derive(Default)]
pub struct ConnStats {
    pub trips: Vec<(Duration, bool)>,
    pub samples: Vec<Sample>,
    /// Per response: frame bytes, round trip, server-side `wall_us`.
    pub detail: Vec<(usize, Duration, u64)>,
    pub error: Option<String>,
}

/// Runs one connection's closed loop until `end`.
fn conn_loop(
    client: &mut Client,
    sweep: &mut Sweep,
    sample: &mut Rng,
    end: Instant,
    sink: &TraceSink,
) -> ConnStats {
    let mut stats = ConnStats::default();
    while Instant::now() < end {
        let json = sweep.next_json();
        let trip = {
            let _op = sink.span("op", || "sweep_tcp");
            client.round_trip(&json, sink)
        };
        let trip = match trip {
            Ok(t) => t,
            Err(e) => {
                stats.error = Some(format!("connection failed: {e}"));
                break;
            }
        };
        let ok = is_ok(&trip.payload);
        stats.trips.push((trip.rtt, ok));
        if sink.enabled() {
            stats
                .detail
                .push((trip.frame_len, trip.rtt, wall_us(&trip.payload)));
        }
        if sample.next_u64().is_multiple_of(SAMPLE_EVERY) {
            if let Some(det) = requests::deterministic(&trip.payload) {
                stats.samples.push((json, det.to_vec()));
            }
        }
    }
    stats
}

/// The server-side run time the response reports in `stats.wall_us`.
fn wall_us(payload: &[u8]) -> u64 {
    let Some(det) = requests::deterministic(payload) else {
        return 0;
    };
    let stats = std::str::from_utf8(&payload[det.len() + ",\"stats\":".len()..payload.len() - 1]);
    stats
        .ok()
        .and_then(|s| json::parse(s).ok())
        .and_then(|doc| doc.get("wall_us").and_then(Json::as_num))
        .map_or(0, |v| v as u64)
}

/// A started server with both clients connected and warmed up.
pub struct Rig {
    // Clients first: fields drop in order, and the connections should
    // close before the server drains.
    pub clients: Vec<Client>,
    _server: Server,
}

/// Starts the server and warms both connections; `Err` if any step or
/// warm-up answer fails.
pub fn start_rig(seed: u64) -> Result<Rig, String> {
    let server = Server::start("127.0.0.1:0", ServeConfig::default())
        .map_err(|e| format!("server start failed: {e}"))?;
    let mut clients = Vec::new();
    for tenant in tenants() {
        let mut client =
            Client::connect(server.addr()).map_err(|e| format!("connect failed: {e}"))?;
        let mut rng = Rng::new(seed);
        for i in 0..WARM_REQUESTS {
            let json = format!(
                r#"{{"id":"warm-{i}","tenant":"{tenant}","source":"x = ContactRow(layer = \"poly\", W = w)","params":{{"w":{}}}}}"#,
                rng.range(4, 40)
            );
            let trip = client
                .round_trip(&json, &TraceSink::new())
                .map_err(|e| format!("warm-up failed: {e}"))?;
            if !is_ok(&trip.payload) {
                return Err(format!("warm-up request {i} was not ok"));
            }
        }
        clients.push(client);
    }
    Ok(Rig {
        clients,
        _server: server,
    })
}

/// Runs both connections' closed loops for `seconds`.
pub fn timed_phase(
    rig: &mut Rig,
    seed: u64,
    seconds: Duration,
    sink: &TraceSink,
) -> (Duration, Vec<ConnStats>) {
    let names = tenants();
    let start = Instant::now();
    let end = start + seconds;
    let stats = std::thread::scope(|scope| {
        let handles: Vec<_> = rig
            .clients
            .iter_mut()
            .zip(&names)
            .enumerate()
            .map(|(c, (client, tenant))| {
                scope.spawn(move || {
                    let mut sweep = Sweep::new(seed, c, tenant);
                    let mut sample = Rng::new(seed ^ (0x5a3e_0000 + c as u64));
                    conn_loop(client, &mut sweep, &mut sample, end, sink)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread does not panic"))
            .collect::<Vec<_>>()
    });
    (start.elapsed(), stats)
}

/// Folds both connections' trips into `outcome` and replays the sampled
/// requests through `run_once`: each must get the payload TCP gave it.
pub fn account(outcome: &mut Outcome, conns: &[ConnStats]) {
    let mut samples = Vec::new();
    for conn in conns {
        if let Some(e) = &conn.error {
            outcome.problem(e.clone());
        }
        for &(rtt, ok) in &conn.trips {
            outcome.op(rtt, ok);
            if !ok {
                outcome.problem("a sweep response was not ok");
            }
        }
        samples.extend(conn.samples.iter().cloned());
    }
    if samples.is_empty() {
        outcome.problem("no request was sampled for the run_once cross-check");
        return;
    }
    let mut next = samples.iter();
    let mut in_flight: Option<&Sample> = None;
    let mut mismatches = 0u64;
    let result = figures::session(|answer| {
        if let (Some(a), Some((_, tcp))) = (answer, in_flight) {
            if requests::deterministic(&a.payload) != Some(tcp.as_slice()) {
                mismatches += 1;
            }
        }
        in_flight = next.next();
        match in_flight {
            Some((json, _)) => Turn::Send(requests::frame(json)),
            None => Turn::Stop,
        }
    });
    if let Err(e) = result {
        outcome.problem(format!("run_once cross-check failed: {e}"));
    }
    if mismatches > 0 {
        outcome.failed += mismatches;
        outcome.problem(format!(
            "{mismatches} of {} sampled TCP payloads differ from run_once's",
            samples.len()
        ));
    }
}

/// Set-up starts the server and warms both connections, `reps` times;
/// the last rig runs the timed phase. `scaled` scales the set-up times,
/// which are CPU-bound round trips of small responses, by host speed
/// (see `host.rs`); the timed phase's times stay raw, since a third of
/// them are set by the delayed-ACK timer.
pub fn run(seed: u64, seconds: Duration, reps: usize, scaled: bool) -> Outcome {
    let mut outcome = Outcome::default();
    let mut host = HostSpeed::new(scaled);
    let mut rig = None;
    for _ in 0..reps {
        drop(rig.take());
        let before = host.sample();
        let start = Instant::now();
        match start_rig(seed) {
            Ok(r) => rig = Some(r),
            Err(e) => {
                outcome.problem(e);
                return outcome;
            }
        }
        let raw = start.elapsed();
        let after = host.sample();
        outcome.setup.push(host.scale(raw, before, after));
    }
    let mut rig = rig.expect("at least one set-up repetition");
    let (elapsed, conns) = timed_phase(&mut rig, seed, seconds, &TraceSink::new());
    outcome.elapsed = elapsed;
    account(&mut outcome, &conns);
    outcome
}
