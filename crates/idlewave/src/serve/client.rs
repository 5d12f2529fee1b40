//! Client side of the serve protocol: a typed connection and the
//! `wavesim loadgen` driver.
//!
//! [`ServeClient`] wraps one TCP connection — framed reads through
//! [`wire::LineReader`], typed [`Request`]/[`Reply`] records — and is
//! what the drill, the CLI tests, and [`run_loadgen`] all speak through.
//!
//! [`run_loadgen`] generates a *deterministic* request population
//! (fixed ids, fixed seeds), spreads it over several connections,
//! retries load-shed submissions with the server's retry-after hint
//! (jittered, so synchronized clients de-stampede), and writes the
//! collected terminal records sorted by id — which makes two loadgen
//! runs against equivalent servers byte-comparable, the property the
//! smoke scripts and the recovery drill assert.

use std::io::{self, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::time::Duration;

use simdes::SimDuration;
use tracefmt::json::{self, FromJson, Json, ToJson};
use tracefmt::{fnv1a_64, wire};

use super::protocol::{Reply, Request, StatsBody};
use crate::experiment::WaveExperiment;
use crate::sweep::{Scenario, ScenarioResult};

/// One typed client connection to a serve instance.
pub struct ServeClient {
    reader: wire::LineReader<TcpStream>,
    writer: TcpStream,
    /// The `serve_format` the server greeted with.
    pub serve_format: u64,
}

impl ServeClient {
    /// Connect and consume the `hello` greeting.
    pub fn connect(addr: &str) -> io::Result<ServeClient> {
        let stream = TcpStream::connect(addr)?;
        // Requests are single small lines: send each at once instead of
        // letting Nagle's algorithm wait on the server's delayed ACK.
        stream.set_nodelay(true)?;
        let writer = stream.try_clone()?;
        let mut client = ServeClient {
            reader: wire::LineReader::new(stream, wire::DEFAULT_MAX_LINE_BYTES),
            writer,
            serve_format: 0,
        };
        match client.next_reply()? {
            Reply::Hello { serve_format } => client.serve_format = serve_format,
            other => {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("expected a hello greeting, got {other:?}"),
                ))
            }
        }
        Ok(client)
    }

    /// Send one request line.
    pub fn send(&mut self, req: &Request) -> io::Result<()> {
        wire::write_json_line(&mut self.writer, req)
    }

    /// Send one raw line, bypassing the typed layer — for tests that
    /// need to put malformed bytes on the wire.
    pub fn send_raw(&mut self, line: &str) -> io::Result<()> {
        self.writer.write_all(line.as_bytes())?;
        self.writer.write_all(b"\n")?;
        self.writer.flush()
    }

    /// Next reply line, blocking. EOF and undecodable replies are
    /// errors — a well-behaved server never sends either mid-session.
    pub fn next_reply(&mut self) -> io::Result<Reply> {
        loop {
            match self.reader.next_line()? {
                None => {
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "server closed the connection",
                    ))
                }
                Some(Err(frame)) => {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        frame.to_string(),
                    ))
                }
                Some(Ok(line)) => {
                    let v = Json::parse(&line).map_err(|e| {
                        io::Error::new(io::ErrorKind::InvalidData, format!("bad reply: {}", e.0))
                    })?;
                    return Reply::from_json(&v).map_err(|e| {
                        io::Error::new(io::ErrorKind::InvalidData, format!("bad reply: {}", e.0))
                    });
                }
            }
        }
    }

    /// Round-trip a `ping`; returns the echoed nonce.
    ///
    /// # Panics
    /// Never — non-pong replies become `InvalidData` errors.
    pub fn ping(&mut self, nonce: u64) -> io::Result<u64> {
        self.send(&Request::Ping { nonce })?;
        match self.next_reply()? {
            Reply::Pong { nonce } => Ok(nonce),
            other => Err(unexpected("pong", &other)),
        }
    }

    /// Fetch the service counters.
    pub fn stats(&mut self) -> io::Result<StatsBody> {
        self.send(&Request::Stats)?;
        match self.next_reply()? {
            Reply::Stats(body) => Ok(body),
            other => Err(unexpected("stats", &other)),
        }
    }

    /// Query the terminal record for `id`: `Some` if the server has one.
    pub fn query(&mut self, id: &str) -> io::Result<Option<ScenarioResult>> {
        self.send(&Request::Query { id: id.to_string() })?;
        match self.next_reply()? {
            Reply::Result { record } => Ok(Some(record)),
            Reply::NoResult { .. } => Ok(None),
            other => Err(unexpected("result/no-result", &other)),
        }
    }

    /// Ask the server to drain (stop accepting, finish in-flight, exit).
    pub fn drain(&mut self) -> io::Result<()> {
        self.send(&Request::Drain)?;
        match self.next_reply()? {
            Reply::Draining => Ok(()),
            other => Err(unexpected("draining", &other)),
        }
    }
}

fn unexpected(wanted: &str, got: &Reply) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!("expected a {wanted} reply, got {got:?}"),
    )
}

/// How `wavesim loadgen` drives a server.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadgenOptions {
    /// Server address (`host:port`).
    pub addr: String,
    /// Total requests across all connections.
    pub requests: usize,
    /// Concurrent client connections.
    pub connections: usize,
    /// Ranks per generated scenario.
    pub ranks: u32,
    /// Steps per generated scenario.
    pub steps: u32,
    /// Where to write the collected records (sorted by id, one JSON
    /// record per line); `None` keeps them in the report only.
    pub out: Option<PathBuf>,
    /// Query mode: instead of submitting, poll `query` for the same
    /// deterministic ids until every record is served — how the smoke
    /// scripts read results back from a restarted server.
    pub query: bool,
    /// Bound on overload retries (and on query polls) per request.
    pub max_retries: u32,
}

impl Default for LoadgenOptions {
    fn default() -> Self {
        LoadgenOptions {
            addr: String::new(),
            requests: 12,
            connections: 3,
            ranks: 8,
            steps: 4,
            out: None,
            query: false,
            max_retries: 600,
        }
    }
}

/// What a loadgen run observed.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadgenReport {
    /// Requests attempted.
    pub sent: usize,
    /// Terminal records collected.
    pub completed: usize,
    /// Submissions refused by admission control.
    pub rejected: usize,
    /// Load-shed replies absorbed by retrying.
    pub overload_retries: u64,
    /// Wall-clock for the whole run.
    pub elapsed: Duration,
    /// The collected terminal records, sorted by id.
    pub results: Vec<ScenarioResult>,
}

impl LoadgenReport {
    /// Completed requests per wall-clock second (0 when instantaneous).
    pub fn requests_per_sec(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs > 0.0 {
            self.completed as f64 / secs
        } else {
            0.0
        }
    }
}

impl ToJson for LoadgenReport {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("type", Json::Str("loadgen".into())),
            ("sent", (self.sent as u64).to_json()),
            ("completed", (self.completed as u64).to_json()),
            ("rejected", (self.rejected as u64).to_json()),
            ("overload_retries", self.overload_retries.to_json()),
            ("elapsed_ms", (self.elapsed.as_millis() as u64).to_json()),
            ("requests_per_sec", Json::Float(self.requests_per_sec())),
        ])
    }
}

/// The deterministic loadgen population: fixed ids (`load-000`…), fixed
/// per-request seeds, pairwise-distinct config fingerprints. Generating
/// it twice — in a submit run and a later query run, or on two sides of
/// a server restart — yields the same requests, which is what makes
/// loadgen output byte-comparable.
pub fn loadgen_scenarios(requests: usize, ranks: u32, steps: u32) -> Vec<Scenario> {
    (0..requests)
        .map(|i| {
            let config = WaveExperiment::flat_chain(ranks.max(2))
                .texec(SimDuration::from_micros(200))
                .steps(steps.max(1))
                .seed(i as u64 + 1)
                .into_config();
            Scenario::new(format!("load-{i:03}"), config)
        })
        .collect()
}

/// Jittered overload backoff: the server's hint scaled by a factor in
/// [0.5, 1.5) derived from the request id and attempt, so clients shed
/// at the same instant do not retry at the same instant either.
fn shed_backoff(retry_after_ms: u64, salt: u64, attempt: u32) -> Duration {
    let bits = simdes::splitmix64(salt ^ (u64::from(attempt) << 32 | 0x9e37_79b9));
    let factor = 0.5 + (bits >> 11) as f64 / (1u64 << 53) as f64;
    Duration::from_millis(retry_after_ms.max(1)).mul_f64(factor)
}

/// Drive one connection's share of the population to terminal records.
fn run_connection(
    addr: &str,
    scenarios: Vec<Scenario>,
    opts: &LoadgenOptions,
) -> io::Result<ConnTally> {
    let mut client = ServeClient::connect(addr)?;
    let mut tally = ConnTally::default();
    if opts.query {
        for s in scenarios {
            tally.sent += 1;
            let mut polls = 0u32;
            loop {
                match client.query(&s.id)? {
                    Some(record) => {
                        tally.results.push(record);
                        break;
                    }
                    None if polls < opts.max_retries => {
                        polls += 1;
                        std::thread::sleep(Duration::from_millis(50));
                    }
                    None => {
                        return Err(io::Error::new(
                            io::ErrorKind::TimedOut,
                            format!("no terminal record for '{}' after {polls} polls", s.id),
                        ))
                    }
                }
            }
        }
        return Ok(tally);
    }
    // Submit the whole share up front, then absorb the interleaved reply
    // stream; shed submissions go back out after a jittered backoff.
    let mut outstanding = 0usize;
    for s in &scenarios {
        tally.sent += 1;
        client.send(&Request::Submit(Box::new(s.clone())))?;
        outstanding += 1;
    }
    let mut retries: std::collections::BTreeMap<String, u32> = std::collections::BTreeMap::new();
    while outstanding > 0 {
        match client.next_reply()? {
            Reply::Accepted { .. } => {}
            Reply::Result { record } => {
                tally.results.push(record);
                outstanding -= 1;
            }
            Reply::Rejected { id, error, .. } => {
                tally.rejected += 1;
                tally.errors.push(format!("'{id}' rejected: {error}"));
                outstanding -= 1;
            }
            Reply::Overloaded {
                id, retry_after_ms, ..
            } => {
                let attempt = retries.entry(id.clone()).or_insert(0);
                *attempt += 1;
                if *attempt > opts.max_retries {
                    return Err(io::Error::new(
                        io::ErrorKind::TimedOut,
                        format!("'{id}' still shed after {} retries", opts.max_retries),
                    ));
                }
                tally.overload_retries += 1;
                std::thread::sleep(shed_backoff(
                    retry_after_ms,
                    fnv1a_64(id.as_bytes()),
                    *attempt,
                ));
                let again = scenarios
                    .iter()
                    .find(|s| s.id == id)
                    .expect("shed reply names a scenario this connection sent");
                client.send(&Request::Submit(Box::new(again.clone())))?;
            }
            Reply::Draining => {
                return Err(io::Error::new(
                    io::ErrorKind::ConnectionAborted,
                    "server is draining; submission not accepted",
                ))
            }
            Reply::Error { error } => {
                return Err(io::Error::new(io::ErrorKind::InvalidData, error))
            }
            other @ (Reply::Hello { .. }
            | Reply::NoResult { .. }
            | Reply::Pong { .. }
            | Reply::Stats(_)) => return Err(unexpected("submission reply", &other)),
        }
    }
    Ok(tally)
}

#[derive(Default)]
struct ConnTally {
    sent: usize,
    rejected: usize,
    overload_retries: u64,
    results: Vec<ScenarioResult>,
    errors: Vec<String>,
}

/// Run the loadgen population against `opts.addr` and collect every
/// terminal record (submitting, or querying with [`LoadgenOptions::query`]).
///
/// # Panics
/// Never — connection failures surface as `Err`.
pub fn run_loadgen(opts: &LoadgenOptions) -> io::Result<LoadgenReport> {
    let scenarios = loadgen_scenarios(opts.requests, opts.ranks, opts.steps);
    let connections = opts.connections.clamp(1, scenarios.len().max(1));
    // simlint: allow(wall-clock) — loadgen measures real service latency.
    let started = std::time::Instant::now();
    let mut shares: Vec<Vec<Scenario>> = vec![Vec::new(); connections];
    for (i, s) in scenarios.into_iter().enumerate() {
        shares[i % connections].push(s);
    }
    let tallies: Vec<io::Result<ConnTally>> = std::thread::scope(|scope| {
        let handles: Vec<_> = shares
            .into_iter()
            .map(|share| scope.spawn(|| run_connection(&opts.addr, share, opts)))
            .collect();
        handles
            .into_iter()
            .map(|h| match h.join() {
                Ok(r) => r,
                Err(_) => Err(io::Error::other("loadgen connection thread panicked")),
            })
            .collect()
    });
    let mut report = LoadgenReport {
        sent: 0,
        completed: 0,
        rejected: 0,
        overload_retries: 0,
        elapsed: Duration::ZERO,
        results: Vec::new(),
    };
    for tally in tallies {
        let tally = tally?;
        report.sent += tally.sent;
        report.rejected += tally.rejected;
        report.overload_retries += tally.overload_retries;
        report.results.extend(tally.results);
    }
    report.elapsed = started.elapsed();
    report.completed = report.results.len();
    report.results.sort_by(|a, b| a.id.cmp(&b.id));
    if let Some(out) = &opts.out {
        let mut body = String::new();
        for r in &report.results {
            body.push_str(&json::to_string(r));
            body.push('\n');
        }
        std::fs::write(out, body)?;
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpisim::config_fingerprint;

    #[test]
    fn the_loadgen_population_is_deterministic_and_distinct() {
        let a = loadgen_scenarios(12, 8, 4);
        let b = loadgen_scenarios(12, 8, 4);
        assert_eq!(a, b, "same parameters must mean the same requests");
        let mut fps: Vec<u64> = a.iter().map(|s| config_fingerprint(&s.config)).collect();
        fps.sort_unstable();
        fps.dedup();
        assert_eq!(fps.len(), 12, "per-request seeds must differ");
        assert_eq!(a[0].id, "load-000");
        assert_eq!(a[11].id, "load-011");
    }

    #[test]
    fn connections_send_requests_without_nagle_delay() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind loopback");
        let addr = listener.local_addr().expect("bound").to_string();
        let greeter = std::thread::spawn(move || {
            let (mut server, _) = listener.accept().expect("accept");
            let hello = Reply::Hello { serve_format: 1 };
            wire::write_json_line(&mut server, &hello).expect("greet");
            server
        });
        let client = ServeClient::connect(&addr).expect("connect");
        assert_eq!(client.serve_format, 1);
        assert!(client.writer.nodelay().expect("read TCP_NODELAY"));
        drop(greeter.join().expect("greeter thread"));
    }

    #[test]
    fn shed_backoff_is_deterministic_and_bounded_by_the_hint() {
        for attempt in 1..=5u32 {
            let d = shed_backoff(250, 7, attempt);
            assert_eq!(d, shed_backoff(250, 7, attempt));
            assert!(d >= Duration::from_millis(125), "{d:?}");
            assert!(d < Duration::from_millis(375), "{d:?}");
        }
        assert_ne!(shed_backoff(250, 7, 1), shed_backoff(250, 8, 1));
    }
}
