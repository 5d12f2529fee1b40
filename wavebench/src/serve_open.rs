//! The serve probe: an in-process `run_serve` (2 workers, result cache)
//! driven open-loop over one connection. One sender thread sends every
//! request when it is due, never waiting for a reply; one reader thread
//! collects the replies. Latency runs from when a request was due to the
//! arrival of its terminal reply's JSON body, so a stall also counts
//! against the requests queued behind it.
//!
//! This is the serve probe of a traced `sweep-inline` run, not a workload
//! of its own: the service's request rate and latency swing by 1.4–2x
//! from one run to the next on a shared 2-vCPU machine, under every
//! estimator tried, which is too far for a bound.
//!
//! Phases, after an untimed warm-up: sequential pings, a low fixed rate
//! (traced), and a high fixed rate (untraced, then traced). The mix is
//! half fresh submits (simulate, journal), 30 % repeat submits (cache
//! hits) and 20 % queries of completed ids ([`crate::gen::SERVE_SHARES`]).

use std::collections::{BTreeMap, VecDeque};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

use idlewave::serve::protocol::{parse_request, Reply, Request, StatsBody};
use idlewave::serve::{run_serve, ServeOptions, ServeReport};
use idlewave::sweep::{run_sweep, Scenario, ScenarioResult, SweepOptions};
use mpisim::{try_run_summary_pooled, EnginePools, RunLimits};
use tracefmt::fnv1a_64;
use tracefmt::json::{self, FromJson, Json, ToJson};

use crate::gen::{Ask, ServeMix, SERVE_SHARES};
use crate::now;
use crate::spans::Tracer;
use crate::stats::{median, Dist};
use crate::{sync_disk, Outcome, Plan, Scale};

/// Offered rate of the low phase (requests/s): one request per 10 ms,
/// against 0.2–2 ms per request, so requests rarely overlap and the phase
/// gives the latency of a request on its own. A chosen rate, not one seen
/// in use.
pub const LOW_RPS: f64 = 100.0;
/// Offered rate of the high phase (requests/s): under half of the
/// 2200–4700 req/s that bursts of requests reach, so requests overlap and
/// queue without saturating the service. A chosen rate, not one seen in
/// use.
pub const HIGH_RPS: f64 = 1000.0;
/// Shares of the probe's time for the low phase and for each of the two
/// high phases.
const LOW_SHARE: f64 = 0.5;
const HIGH_SHARE: f64 = 0.2;
/// Untimed bursts of `WARMUP_BURST_REQS` requests, sent all at once,
/// before the measured phases.
const WARMUP_BURSTS: usize = 20;
const WARMUP_BURST_REQS: usize = 1000;

/// What a request is, for matching replies and checking records.
#[derive(Debug, Clone)]
enum Kind {
    Fresh(Box<Scenario>),
    Repeat(Box<Scenario>, usize),
    Query(usize),
    Stats,
    Ping(u64),
}

/// One request's life as the client saw it.
#[derive(Debug)]
struct Req {
    kind: Kind,
    due: Instant,
    sent: Option<Instant>,
    acked: Option<Instant>,
    done: Option<Instant>,
    ok: bool,
    /// FNV-1a of the terminal record's JSON (submits and queries).
    record: Option<u64>,
    stats: Option<StatsBody>,
}

/// Requests in flight and how to match replies to them.
#[derive(Default)]
struct Book {
    reqs: Vec<Req>,
    by_id: BTreeMap<String, usize>,
    queries: BTreeMap<usize, VecDeque<usize>>,
    stats: VecDeque<usize>,
    pings: BTreeMap<u64, usize>,
    /// Replies that matched no request (e.g. protocol `error` lines).
    stray: Vec<String>,
}

impl Book {
    fn finish(&mut self, i: usize, at: Instant, ok: bool) {
        let r = &mut self.reqs[i];
        if r.done.is_none() {
            r.done = Some(at);
            r.ok = ok;
        }
    }

    fn on_reply(&mut self, reply: Reply, at: Instant) {
        match reply {
            Reply::Hello { .. } => {}
            Reply::Accepted { id, .. } => match self.by_id.get(&id) {
                Some(&i) => self.reqs[i].acked = Some(at),
                None => self.stray.push(format!("accepted for unknown id {id}")),
            },
            Reply::Result { record } => {
                let digest = fnv1a_64(json::to_string(&record.to_json()).as_bytes());
                let ok = record.is_ok();
                // A submission's own result first; otherwise the oldest
                // open query for that id (queries are answered in order).
                let slot = match self.by_id.get(&record.id) {
                    Some(&i) if self.reqs[i].done.is_none() => Some(i),
                    _ => warm_index(&record.id)
                        .and_then(|k| self.queries.get_mut(&k).and_then(VecDeque::pop_front)),
                };
                match slot {
                    Some(i) => {
                        self.reqs[i].record = Some(digest);
                        self.finish(i, at, ok);
                    }
                    None => self
                        .stray
                        .push(format!("result for unknown id {}", record.id)),
                }
            }
            Reply::Overloaded { id, .. } | Reply::Rejected { id, .. } => {
                match self.by_id.get(&id) {
                    Some(&i) => self.finish(i, at, false),
                    None => self.stray.push(format!("refusal for unknown id {id}")),
                }
            }
            Reply::NoResult { id } => {
                let slot = warm_index(&id)
                    .and_then(|k| self.queries.get_mut(&k).and_then(VecDeque::pop_front));
                match slot {
                    Some(i) => self.finish(i, at, false),
                    None => self.stray.push(format!("no-result for unknown id {id}")),
                }
            }
            Reply::Stats(body) => match self.stats.pop_front() {
                Some(i) => {
                    self.reqs[i].stats = Some(body);
                    self.finish(i, at, true);
                }
                None => self.stray.push("unrequested stats".to_string()),
            },
            Reply::Pong { nonce } => match self.pings.get(&nonce) {
                Some(&i) => self.finish(i, at, true),
                None => self.stray.push(format!("pong for unknown nonce {nonce}")),
            },
            Reply::Draining => self.stray.push("server is draining".to_string()),
            Reply::Error { error } => self.stray.push(format!("error reply: {error}")),
        }
    }
}

/// `w007` -> 7: the ids of warm scenarios, which queries ask for.
fn warm_index(id: &str) -> Option<usize> {
    id.strip_prefix('w')?.parse().ok()
}

/// Ask the kernel to acknowledge received data at once instead of on the
/// delayed-ACK timer (Linux `TCP_QUICKACK`). The service writes each reply
/// as its JSON body and then a newline, without `TCP_NODELAY`, so Nagle
/// holds everything after the body until the client acknowledges it. A
/// delayed ACK would ride on the client's next request (one request gap
/// later) or wait for the 40 ms timer, and the latency measured would be
/// that timer's, not the service's. The flag does not stick, so it is set
/// again after every read; setting it also sends an ACK that is due.
#[cfg(target_os = "linux")]
fn quickack(stream: &TcpStream) {
    use std::os::fd::AsRawFd;
    extern "C" {
        fn setsockopt(fd: i32, level: i32, name: i32, value: *const i32, len: u32) -> i32;
    }
    const IPPROTO_TCP: i32 = 6;
    const TCP_QUICKACK: i32 = 12;
    let one: i32 = 1;
    // SAFETY: `setsockopt` is the libc prototype; the fd is open for the
    // life of `stream` and the option value is a live 4-byte int.
    unsafe {
        setsockopt(stream.as_raw_fd(), IPPROTO_TCP, TCP_QUICKACK, &one, 4);
    }
}

#[cfg(not(target_os = "linux"))]
fn quickack(_stream: &TcpStream) {}

/// The reply stream split into lines, each stamped with the time of the
/// read that delivered its last byte before the newline: a reply is
/// complete when its JSON body has arrived, however long its separately
/// written newline trails it.
struct Replies {
    stream: TcpStream,
    ready: VecDeque<(Result<String, String>, Instant)>,
    line: Vec<u8>,
    line_at: Option<Instant>,
}

impl Replies {
    fn new(stream: TcpStream) -> Replies {
        quickack(&stream);
        Replies {
            stream,
            ready: VecDeque::new(),
            line: Vec::new(),
            line_at: None,
        }
    }

    /// The next line and its stamp; `None` at end of stream.
    fn next(&mut self) -> Option<(Result<String, String>, Instant)> {
        let mut chunk = [0u8; 8192];
        loop {
            if let Some(l) = self.ready.pop_front() {
                return Some(l);
            }
            let n = match self.stream.read(&mut chunk) {
                Ok(0) => return None,
                Ok(n) => n,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => return None,
            };
            let at = now();
            quickack(&self.stream);
            for &b in &chunk[..n] {
                match b {
                    b'\n' => {
                        let text = String::from_utf8(std::mem::take(&mut self.line))
                            .map_err(|_| "reply is not UTF-8".to_string());
                        self.ready
                            .push_back((text, self.line_at.take().unwrap_or(at)));
                    }
                    b'\r' => {}
                    _ => {
                        self.line.push(b);
                        self.line_at = Some(at);
                    }
                }
            }
        }
    }
}

/// The client side of the one connection.
struct Client {
    writer: Arc<Mutex<TcpStream>>,
    book: Arc<Mutex<Book>>,
    reader: Option<std::thread::JoinHandle<()>>,
}

impl Client {
    /// Connect and read the greeting; also returns when the greeting
    /// arrived.
    fn connect(addr: &str) -> Result<(Client, Instant), String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        // The client adds no Nagle delay of its own: what remains is the
        // service's.
        stream
            .set_nodelay(true)
            .map_err(|e| format!("set_nodelay: {e}"))?;
        let read_half = stream.try_clone().map_err(|e| format!("clone: {e}"))?;
        let mut replies = Replies::new(read_half);
        // The greeting arrives before the reader thread exists.
        let hello_at = match replies.next() {
            Some((Ok(l), at)) if l.contains("hello") => at,
            other => return Err(format!("expected a hello greeting, got {other:?}")),
        };
        let book = Arc::new(Mutex::new(Book::default()));
        let rbook = Arc::clone(&book);
        let reader = std::thread::spawn(move || {
            while let Some((line, at)) = replies.next() {
                let reply = line.and_then(|l| {
                    Json::parse(&l)
                        .map_err(|e| e.0)
                        .and_then(|v| Reply::from_json(&v).map_err(|e| e.0))
                });
                let mut b = rbook.lock().expect("book poisoned");
                match reply {
                    Ok(r) => b.on_reply(r, at),
                    Err(e) => b.stray.push(format!("undecodable reply: {e}")),
                }
            }
        });
        let client = Client {
            writer: Arc::new(Mutex::new(stream)),
            book,
            reader: Some(reader),
        };
        Ok((client, hello_at))
    }

    /// Register `asks` due at `start + offsets`, send them on schedule from
    /// one sender thread, and wait until every one has a terminal reply
    /// (or `timeout` passes). Returns the book indices.
    fn phase(
        &self,
        start: Instant,
        items: Vec<(Duration, Kind)>,
        t: &mut Tracer,
        timeout: Duration,
    ) -> Vec<usize> {
        let mut lines = Vec::with_capacity(items.len());
        let mut idx = Vec::with_capacity(items.len());
        {
            let mut b = self.book.lock().expect("book poisoned");
            for (off, kind) in items {
                let i = b.reqs.len();
                let req = match &kind {
                    Kind::Fresh(s) => {
                        b.by_id.insert(s.id.clone(), i);
                        Request::Submit(s.clone())
                    }
                    Kind::Repeat(s, _) => {
                        b.by_id.insert(s.id.clone(), i);
                        Request::Submit(s.clone())
                    }
                    Kind::Query(k) => {
                        b.queries.entry(*k).or_default().push_back(i);
                        Request::Query {
                            id: format!("w{k:03}"),
                        }
                    }
                    Kind::Stats => {
                        b.stats.push_back(i);
                        Request::Stats
                    }
                    Kind::Ping(nonce) => {
                        b.pings.insert(*nonce, i);
                        Request::Ping { nonce: *nonce }
                    }
                };
                let mut line = t.span("tracefmt.wire_encode", i as u64, |_| json::to_string(&req));
                if t.on() {
                    let parsed = t.span("tracefmt.wire_parse", i as u64, |_| parse_request(&line));
                    if parsed.as_ref() != Ok(&req) {
                        b.stray
                            .push(format!("request {i} does not round-trip the wire"));
                    }
                }
                line.push('\n');
                b.reqs.push(Req {
                    kind,
                    due: start + off,
                    sent: None,
                    acked: None,
                    done: None,
                    ok: false,
                    record: None,
                    stats: None,
                });
                lines.push((start + off, line));
                idx.push(i);
            }
        }
        let writer = Arc::clone(&self.writer);
        let book = Arc::clone(&self.book);
        let first = idx.first().copied().unwrap_or(0);
        let sender = std::thread::spawn(move || {
            let mut w = writer.lock().expect("writer poisoned");
            for (n, (due, line)) in lines.into_iter().enumerate() {
                let t = now();
                if due > t {
                    std::thread::sleep(due - t);
                }
                let sent = now();
                let res = w.write_all(line.as_bytes());
                let mut b = book.lock().expect("book poisoned");
                b.reqs[first + n].sent = Some(sent);
                if let Err(e) = res {
                    b.stray.push(format!("send failed: {e}"));
                    b.finish(first + n, sent, false);
                }
            }
        });
        if sender.join().is_err() {
            let mut b = self.book.lock().expect("book poisoned");
            b.stray.push("the sender thread panicked".to_string());
        }
        let deadline = now() + timeout;
        loop {
            let pending = {
                let b = self.book.lock().expect("book poisoned");
                idx.iter().any(|&i| b.reqs[i].done.is_none())
            };
            if !pending || now() > deadline {
                break;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        idx
    }

    fn close(mut self) {
        if let Ok(w) = self.writer.lock() {
            let _ = w.shutdown(std::net::Shutdown::Both);
        }
        if let Some(h) = self.reader.take() {
            let _ = h.join();
        }
    }
}

/// Figures of one phase.
#[derive(Debug, Default)]
struct PhaseStats {
    rps: f64,
    lat_ms: Vec<f64>,
    /// Latency by request kind: fresh, repeat, query.
    kind_ms: [Vec<f64>; 3],
    ack_ms: Vec<f64>,
    result_ms: Vec<f64>,
    late_ms: Vec<f64>,
    /// (fresh scenario, result_ms) for the queue-wait estimate.
    fresh_result_ms: Vec<(Scenario, f64)>,
    attempted: u64,
    failed: u64,
    /// Accepted minus completed jobs at the phase's end, less the same
    /// at its start (from its two `stats` probes).
    backlog_growth: i64,
}

impl PhaseStats {
    /// The backlog grew across the phase by more than 16 jobs plus 1 % of
    /// its requests; below capacity it stays within a few jobs.
    fn over_capacity(&self) -> bool {
        self.backlog_growth as f64 > 16.0 + 0.01 * self.attempted as f64
    }
}

fn ask_kind(ask: Ask) -> Kind {
    match ask {
        Ask::Fresh(s) => Kind::Fresh(Box::new(s)),
        Ask::Repeat(s, k) => Kind::Repeat(Box::new(s), k),
        Ask::Query(k) => Kind::Query(k),
    }
}

/// Build one phase: a `stats` probe, `n` requests evenly spaced at `rps`,
/// and a closing `stats` probe.
fn schedule(mix: &mut ServeMix, rps: f64, secs: f64) -> Vec<(Duration, Kind)> {
    let n = (rps * secs).round().max(1.0) as usize;
    let gap = 1.0 / rps;
    let mut v = Vec::with_capacity(n + 2);
    v.push((Duration::ZERO, Kind::Stats));
    for i in 0..n {
        let off = Duration::from_secs_f64(gap * (i as f64 + 0.5));
        v.push((off, ask_kind(mix.next_ask())));
    }
    v.push((Duration::from_secs_f64(secs), Kind::Stats));
    v
}

/// A warm-up burst: `n` requests all due at once.
fn burst(mix: &mut ServeMix, n: usize) -> Vec<(Duration, Kind)> {
    (0..n)
        .map(|_| (Duration::ZERO, ask_kind(mix.next_ask())))
        .collect()
}

fn ms(a: Instant, z: Instant) -> f64 {
    z.saturating_duration_since(a).as_secs_f64() * 1e3
}

/// One phase's figures; spans for every answered request.
fn collect(client: &Client, idx: &[usize], rps: f64, t: &mut Tracer) -> PhaseStats {
    let b = client.book.lock().expect("book poisoned");
    let mut ps = PhaseStats {
        rps,
        ..PhaseStats::default()
    };
    let mut probes = Vec::new();
    for &i in idx {
        let r = &b.reqs[i];
        if let Kind::Stats = r.kind {
            probes.extend(r.stats);
            continue;
        }
        ps.attempted += 1;
        if let Some(sent) = r.sent {
            ps.late_ms.push(ms(r.due, sent));
        }
        let Some(done) = r.done.filter(|_| r.ok) else {
            ps.failed += 1;
            continue;
        };
        ps.lat_ms.push(ms(r.due, done));
        match r.kind {
            Kind::Fresh(_) => ps.kind_ms[0].push(ms(r.due, done)),
            Kind::Repeat(..) => ps.kind_ms[1].push(ms(r.due, done)),
            Kind::Query(_) => ps.kind_ms[2].push(ms(r.due, done)),
            _ => {}
        }
        t.record("loadgen.request", i as u64, r.due, done);
        if let (Some(sent), Some(acked)) = (r.sent, r.acked) {
            ps.ack_ms.push(ms(sent, acked));
            ps.result_ms.push(ms(acked, done));
            t.record("serve.ack", i as u64, sent, acked);
            t.record("serve.result", i as u64, acked, done);
            if let Kind::Fresh(s) = &r.kind {
                ps.fresh_result_ms.push(((**s).clone(), ms(acked, done)));
            }
        }
    }
    if let [s0, .., s1] = probes[..] {
        let backlog = |s: StatsBody| s.accepted as i64 - s.completed as i64;
        ps.backlog_growth = backlog(s1) - backlog(s0);
    }
    ps
}

/// Request latency of a phase as the mix sees it: each kind's median,
/// weighted by the kind's share. The plain median of all requests would
/// sit where the slower fresh submits meet the rest, and jump between the
/// two from seed to seed.
fn mix_latency(ps: &PhaseStats) -> f64 {
    ps.kind_ms
        .iter()
        .zip(SERVE_SHARES)
        .map(|(v, share)| median(v) * share as f64 / 10.0)
        .sum()
}

/// The sweep-path records every served record must equal byte for byte.
#[derive(Default)]
struct Refs {
    /// Record JSON by scenario id (warm and fresh).
    by_id: BTreeMap<String, String>,
}

impl Refs {
    /// Run every fresh submission of the book (the warm set included)
    /// through `run_sweep`.
    fn build(client: &Client, dir: &Path) -> Result<Refs, String> {
        let fresh: Vec<Scenario> = {
            let b = client.book.lock().expect("book poisoned");
            b.reqs
                .iter()
                .filter_map(|r| match &r.kind {
                    Kind::Fresh(s) => Some((**s).clone()),
                    _ => None,
                })
                .collect()
        };
        let opts = SweepOptions {
            threads: 2,
            shards: Some(2),
            ..SweepOptions::default()
        };
        let rep = run_sweep(&fresh, &opts, &dir.join("reference.jsonl"))
            .map_err(|e| format!("reference sweep failed: {e}"))?;
        Ok(Refs {
            by_id: rep
                .results
                .into_iter()
                .map(|r| (r.id.clone(), json::to_string(&r.to_json())))
                .collect(),
        })
    }

    /// The record a request must have been answered with.
    fn want(&self, kind: &Kind) -> Option<(String, Option<String>)> {
        Some(match kind {
            Kind::Fresh(s) => (s.id.clone(), self.by_id.get(&s.id).cloned()),
            Kind::Repeat(s, k) => {
                // A repeat is warm scenario `k`'s config under a new id.
                let warm = self.by_id.get(&format!("w{k:03}"));
                let want = warm.and_then(|w| {
                    let mut r = ScenarioResult::from_json(&Json::parse(w).ok()?).ok()?;
                    r.id.clone_from(&s.id);
                    Some(json::to_string(&r.to_json()))
                });
                (s.id.clone(), want)
            }
            Kind::Query(k) => {
                let id = format!("w{k:03}");
                let want = self.by_id.get(&id).cloned();
                (id, want)
            }
            Kind::Stats | Kind::Ping(_) => return None,
        })
    }

    /// Check every answered request against the sweep path's record.
    fn check_all(&self, client: &Client, out: &mut Outcome) {
        let b = client.book.lock().expect("book poisoned");
        for (i, r) in b.reqs.iter().enumerate() {
            let (Some(got), Some((id, want))) = (r.record, self.want(&r.kind)) else {
                continue;
            };
            if want.map(|w| fnv1a_64(w.as_bytes())) != Some(got) {
                out.fail(format!(
                    "served record for {id} (request {i}) differs from the sweep path"
                ));
            }
        }
    }
}

/// A running service and the client's one connection to it.
struct Running {
    server: std::thread::JoinHandle<std::io::Result<ServeReport>>,
    shutdown: Arc<AtomicBool>,
    client: Client,
    connect_ms: f64,
}

impl Running {
    /// Start a fresh service in `dir`, connect, and submit the warm set
    /// (so repeats hit the cache and queries find a completed record).
    fn start(dir: &Path, mix: &ServeMix, server_cpu: Option<usize>) -> Result<Running, String> {
        let _ = std::fs::remove_dir_all(dir);
        let opts = ServeOptions {
            dir: dir.join("state"),
            threads: 2,
            // Room for every request of a phase: over capacity
            // shows as latency and backlog, not as shedding.
            queue_cap: 1 << 16,
            cache_dir: Some(dir.join("cache")),
            ..ServeOptions::default()
        };
        let shutdown = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&shutdown);
        let (tx, rx) = mpsc::channel();
        let server = std::thread::spawn(move || {
            // The service's threads start from this one and inherit its CPU.
            let _pin = server_cpu.and_then(crate::CpuPin::to);
            run_serve(&opts, &flag, |addr| {
                let _ = tx.send(addr.to_string());
            })
        });
        let abort = |server: std::thread::JoinHandle<_>, e: String| {
            shutdown.store(true, Ordering::SeqCst);
            let _ = server.join();
            Err(e)
        };
        let Ok(addr) = rx.recv_timeout(TIMEOUT) else {
            return abort(server, "the service never became ready".to_string());
        };
        let c0 = now();
        let (client, hello_at) = match Client::connect(&addr) {
            Ok(c) => c,
            Err(e) => return abort(server, e),
        };
        let connect_ms = ms(c0, hello_at);
        let warm = mix
            .warm
            .iter()
            .map(|s| (Duration::ZERO, Kind::Fresh(Box::new(s.clone()))))
            .collect();
        let idx = client.phase(now(), warm, &mut Tracer::new(false, c0), TIMEOUT);
        let complete = {
            let b = client.book.lock().expect("book poisoned");
            idx.iter().all(|&i| b.reqs[i].ok)
        };
        let running = Running {
            server,
            shutdown,
            client,
            connect_ms,
        };
        if complete {
            Ok(running)
        } else {
            let _ = running.stop();
            Err("the warm set did not complete".to_string())
        }
    }

    /// Close the connection and drain the service.
    fn stop(self) -> Result<ServeReport, String> {
        self.client.close();
        self.shutdown.store(true, Ordering::SeqCst);
        match self.server.join() {
            Ok(Ok(report)) => Ok(report),
            Ok(Err(e)) => Err(format!("serve failed: {e}")),
            Err(_) => Err("serve panicked".to_string()),
        }
    }
}

/// How long a phase may wait for its last reply.
const TIMEOUT: Duration = Duration::from_secs(30);

/// The service's per-layer metrics, from a traced probe of about `secs`
/// seconds after an untimed warm-up: sequential pings, the low rate
/// traced, and the high rate untraced and then traced.
///
/// # Errors
/// The service could not start, or the client could not connect.
pub fn traced_layers(plan: &Plan, secs: Duration, out: &mut Outcome) -> Result<(), String> {
    // The service gets one CPU and the client the other. Left to the
    // kernel, the placement of the six busy threads decides the service's
    // speed, which then flips by up to 2x for stretches of many seconds.
    let cpus = crate::allowed_cpus();
    let server_cpu = cpus.last().copied();
    let client_cpu = cpus.iter().rev().nth(1).copied().or(server_cpu);
    let _pin = crate::pin_for_measurement(client_cpu, "serve client", out);
    out.line(match server_cpu {
        Some(c) => format!("service pinned to CPU {c}"),
        None => "service not pinned: CPU affinity is unavailable".to_string(),
    });
    let mut mix = ServeMix::new(plan.seed, plan.scale);
    let dir = plan.work.join("serve");
    let quick = plan.scale == Scale::Quick;
    sync_disk(&plan.work);
    let running = Running::start(&dir, &mix, server_cpu)?;
    let client = &running.client;

    let mut traced = Tracer::new(true, now());
    let mut off = Tracer::new(false, now());
    let total = secs.as_secs_f64();
    // The service runs up to twice as fast after its first ten thousand or
    // so requests; measure it warm.
    let w0 = now();
    for _ in 0..if quick { 1 } else { WARMUP_BURSTS } {
        let items = burst(&mut mix, if quick { 50 } else { WARMUP_BURST_REQS });
        client.phase(now(), items, &mut off, TIMEOUT);
    }
    out.line(format!(
        "serve warm-up: {:.3} s",
        w0.elapsed().as_secs_f64()
    ));

    // The transport floor: sequential pings, one in flight at a time.
    let mut ping_us = Vec::new();
    for n in 0..if quick { 5 } else { 50 } {
        let item = vec![(Duration::ZERO, Kind::Ping(n))];
        let idx = client.phase(now(), item, &mut traced, TIMEOUT);
        let b = client.book.lock().expect("book poisoned");
        let r = &b.reqs[idx[0]];
        if let (Some(sent), Some(done)) = (r.sent, r.done) {
            traced.record("serve.ping", n, sent, done);
            ping_us.push(ms(sent, done) * 1e3);
        }
    }
    let mut phase = |rps: f64, share: f64, t: &mut Tracer| {
        let items = schedule(&mut mix, rps, share * total);
        sync_disk(&dir);
        let idx = client.phase(now() + Duration::from_millis(5), items, t, TIMEOUT);
        collect(client, &idx, rps, t)
    };
    let low = phase(LOW_RPS, LOW_SHARE, &mut traced);
    let untraced = phase(HIGH_RPS, HIGH_SHARE, &mut off);
    let high = phase(HIGH_RPS, HIGH_SHARE, &mut traced);

    match Refs::build(client, &dir) {
        Ok(refs) => refs.check_all(client, out),
        Err(e) => out.fail(e),
    }
    let final_stats = {
        let item = vec![(Duration::ZERO, Kind::Stats)];
        let idx = client.phase(now(), item, &mut off, TIMEOUT);
        let b = client.book.lock().expect("book poisoned");
        b.reqs[idx[0]].stats
    };
    let strays = client.book.lock().expect("book poisoned").stray.clone();
    for s in strays {
        out.fail(s);
    }
    let connect_ms = running.connect_ms;
    match running.stop() {
        Ok(report) => out.check(report.warnings.is_empty(), || {
            format!("service warnings: {:?}", report.warnings)
        }),
        Err(e) => out.fail(e),
    }

    for (name, ps) in [("low", &low), ("high-untraced", &untraced), ("high", &high)] {
        out.attempted += ps.attempted;
        out.failed += ps.failed;
        let Some(d) = Dist::of(&ps.lat_ms) else {
            continue;
        };
        out.line(d.line(&format!("serve latency_ms.{name}@{:.0}rps", ps.rps), "ms"));
        for (k, v) in ["fresh", "repeat", "query"].iter().zip(&ps.kind_ms) {
            if let Some(d) = Dist::of(v) {
                out.line(d.line(
                    &format!("serve latency_ms.{name}.{k}@{:.0}rps", ps.rps),
                    "ms",
                ));
            }
        }
        out.line(format!(
            "serve mix_latency_ms.{name}@{:.0}rps = {:.4} ms",
            ps.rps,
            mix_latency(ps)
        ));
        out.line(format!(
            "serve backlog_growth.{name}@{:.0}rps = {} jobs{}",
            ps.rps,
            ps.backlog_growth,
            if ps.over_capacity() {
                " (over capacity)"
            } else {
                ""
            }
        ));
    }

    let p50 = |s: &PhaseStats| median(&s.lat_ms);
    out.line(format!(
        "serve trace overhead = {:.2} % of the untraced median latency at {HIGH_RPS:.0} req/s",
        100.0 * (p50(&high) - p50(&untraced)) / p50(&untraced)
    ));
    out.layer("serve.ping_rtt_us", median(&ping_us));
    let acks: Vec<f64> = [&low, &high]
        .iter()
        .flat_map(|s| s.ack_ms.clone())
        .collect();
    out.layer("serve.ack_ms", median(&acks));
    out.layer("serve.result_ms", median(&high.result_ms));
    let fresh: Vec<Scenario> = high
        .fresh_result_ms
        .iter()
        .map(|(s, _)| s.clone())
        .collect();
    let best = fastest_runs(&fresh, out);
    let waits: Vec<f64> = high
        .fresh_result_ms
        .iter()
        .filter_map(|(s, r)| best.get(&s.id).map(|b| r - b))
        .collect();
    out.layer("serve.queue_wait_ms", median(&waits));
    let us = |v: Vec<f64>| median(&v) / 1e3;
    out.layer(
        "tracefmt.wire_parse_us",
        us(traced.self_ns("tracefmt.wire_parse")),
    );
    out.layer(
        "tracefmt.wire_encode_us",
        us(traced.self_ns("tracefmt.wire_encode")),
    );
    out.layer("serve.connect_ms", connect_ms);
    if let Some(s) = final_stats {
        out.layer("serve.stats.accepted", s.accepted as f64);
        out.layer("serve.stats.shed", s.shed as f64);
        out.layer("serve.stats.completed", s.completed as f64);
        out.layer("serve.stats.cache_hits", s.cache_hits as f64);
        out.layer("serve.stats.cache_misses", s.cache_misses as f64);
    }
    let late: Vec<f64> = [&low, &untraced, &high]
        .iter()
        .flat_map(|s| s.late_ms.clone())
        .collect();
    out.layer(
        "loadgen.late_p99_ms",
        Dist::of(&late).map_or(0.0, |d| d.tail),
    );
    let path = plan.work.join(format!("spans-serve-{}.jsonl", plan.seed));
    traced
        .write_jsonl(&path)
        .map_err(|e| format!("writing spans: {e}"))
}

/// Each scenario's fastest of three standalone pooled runs, in ms: what
/// queue wait is measured against.
fn fastest_runs(scenarios: &[Scenario], out: &mut Outcome) -> BTreeMap<String, f64> {
    let mut pools = EnginePools::new();
    let mut best = BTreeMap::new();
    for s in scenarios {
        let mut ms = f64::INFINITY;
        for _ in 0..3 {
            let start = now();
            if let Err(e) = try_run_summary_pooled(&s.config, &RunLimits::none(), &mut pools) {
                out.fail(format!("{}: standalone run failed: {e}", s.id));
            }
            ms = ms.min(start.elapsed().as_secs_f64() * 1e3);
        }
        best.insert(s.id.clone(), ms);
    }
    best
}
