//! `wavesim serve` — a hardened, crash-recoverable scenario service.
//!
//! A long-running TCP front door over the sweep fabric's supervision
//! machinery: clients submit [`crate::sweep::Scenario`]s as
//! line-delimited JSON ([`protocol`]) and receive streamed replies plus
//! the same terminal [`crate::sweep::ScenarioResult`] records a sweep
//! would persist — byte-identical, cache-served when warm. The headline
//! is the robustness envelope, not the plumbing:
//!
//! * **Admission control** ([`admission`]): `simcheck` + the static
//!   budget pass reject invalid or over-budget submissions with SC
//!   diagnostics (`SC028`) before they cost a worker anything.
//! * **Backpressure, not buffering**: a bounded job queue sheds load
//!   with an explicit `overloaded` reply and retry-after hint (`SC029`)
//!   instead of growing memory.
//! * **Per-request deadlines**: each job runs under the sweep
//!   supervisor — deterministic sim-time watchdog, wall-clock backstop,
//!   capped-and-jittered retries for transients.
//! * **Per-connection isolation**: a panicking job is a `panic` record,
//!   not a dead server; a client that disconnects mid-stream has its
//!   queued jobs cancelled, and the next connection is served as if
//!   nothing happened.
//! * **Graceful drain**: SIGTERM (or a `drain` request) stops the
//!   accept loop, finishes and flushes everything already admitted, and
//!   exits 0.
//! * **Crash-safe journal** ([`journal`]): admitted jobs are durable
//!   before they are acknowledged, so a SIGKILLed server re-runs
//!   pending jobs on restart — bit-identically, by determinism — and
//!   `query` serves every completed record across restarts.
//!
//! The [`drill`] module self-tests the envelope the way the sweep drill
//! does: overload, malformed input, disconnects, drain, SIGKILL +
//! recovery, each phase asserting byte-identity against an undisturbed
//! control run. See `docs/SERVE.md`.

mod admission;
pub mod client;
pub mod drill;
mod journal;
pub mod protocol;
pub mod signals;

use std::io;
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::Duration;

use mpisim::{config_fingerprint, PoolBudget};
use tracefmt::json;
use tracefmt::wire;

use crate::sweep::cache::Lookup;
use crate::sweep::{self, Scenario, ScenarioResult, ScenarioStatus, SweepOptions};
use admission::{Admission, Job, JobQueue};
use journal::{Journal, JournalRecord};
use protocol::{Reply, Request, StatsBody, SERVE_FORMAT};

/// Service policy for one `run_serve`.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeOptions {
    /// Bind address (`host:port`; port 0 picks a free one — the bound
    /// address is reported through `on_ready`).
    pub addr: String,
    /// Service state directory: holds `journal.jsonl`.
    pub dir: PathBuf,
    /// Worker threads executing jobs.
    pub threads: usize,
    /// Job-queue capacity; submissions beyond it are load-shed.
    pub queue_cap: usize,
    /// The retry-after hint sent with `overloaded` replies.
    pub retry_after: Duration,
    /// Per-attempt wall-clock deadline (the sweep supervisor's
    /// `wall_timeout` backstop behind the sim-time watchdog).
    pub deadline: Duration,
    /// Extra attempts after a transient failure or deadline miss.
    pub retries: u32,
    /// Base of the capped, jittered exponential retry backoff.
    pub retry_backoff: Duration,
    /// Sim-time watchdog budget factor (see
    /// [`SweepOptions::watchdog_factor`]).
    pub watchdog_factor: f64,
    /// Admission ceiling on *predicted* events per submission (`SC018`
    /// → `rejected`); `None` disables the gate.
    pub admission_budget: Option<u64>,
    /// Verified result-cache directory shared with `wavesim sweep`;
    /// warm entries serve repeat submissions without simulating.
    pub cache_dir: Option<PathBuf>,
    /// Fsync journal lines (not just flush) — survives OS-level crashes.
    pub fsync: bool,
    /// Per-request line-length bound; longer lines get a structured
    /// `error` reply and are discarded.
    pub max_line_bytes: usize,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            addr: "127.0.0.1:0".to_string(),
            dir: PathBuf::from("wavesim-serve"),
            threads: 4,
            queue_cap: 64,
            retry_after: Duration::from_millis(250),
            deadline: Duration::from_secs(30),
            retries: 2,
            retry_backoff: Duration::from_millis(10),
            watchdog_factor: 64.0,
            admission_budget: None,
            cache_dir: None,
            fsync: false,
            max_line_bytes: wire::DEFAULT_MAX_LINE_BYTES,
        }
    }
}

/// What a drained service did over its lifetime.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeReport {
    /// The address the listener was actually bound to.
    pub addr: String,
    /// Final counter snapshot.
    pub stats: StatsBody,
    /// Journal-replay and runtime warnings, one per incident.
    pub warnings: Vec<String>,
}

/// Process-wide counters, mirrored into `stats` replies.
#[derive(Default)]
struct Counters {
    accepted: AtomicU64,
    rejected: AtomicU64,
    shed: AtomicU64,
    completed: AtomicU64,
    cancelled: AtomicU64,
    recovered: AtomicU64,
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
    inflight: AtomicU64,
}

/// Everything the accept loop, connections, and workers share.
struct Shared {
    sweep_opts: SweepOptions,
    queue: JobQueue,
    journal: Mutex<Journal>,
    /// Latest terminal record per scenario id (journal replay + this
    /// lifetime), the `query` index.
    results: Mutex<std::collections::BTreeMap<String, ScenarioResult>>,
    counters: Counters,
    draining: AtomicBool,
    next_job: AtomicU64,
    admission_budget: Option<u64>,
    retry_after: Duration,
    cache: Option<sweep::cache::ResultCache>,
    warnings: Mutex<Vec<String>>,
}

impl Shared {
    fn stats(&self) -> StatsBody {
        StatsBody {
            accepted: self.counters.accepted.load(Ordering::Relaxed),
            rejected: self.counters.rejected.load(Ordering::Relaxed),
            shed: self.counters.shed.load(Ordering::Relaxed),
            completed: self.counters.completed.load(Ordering::Relaxed),
            cancelled: self.counters.cancelled.load(Ordering::Relaxed),
            recovered: self.counters.recovered.load(Ordering::Relaxed),
            cache_hits: self.counters.cache_hits.load(Ordering::Relaxed),
            cache_misses: self.counters.cache_misses.load(Ordering::Relaxed),
            queued: self.queue.len() as u64,
            inflight: self.counters.inflight.load(Ordering::Relaxed),
            draining: self.draining.load(Ordering::SeqCst),
        }
    }

    fn warn(&self, w: String) {
        self.warnings.lock().expect("warnings poisoned").push(w);
    }
}

fn zero_budget() -> PoolBudget {
    PoolBudget {
        ranks: 0,
        steps: 0,
        peak_queue: 0,
        requests_per_rank: 0,
        trace_records: 0,
    }
}

/// Run the service until `shutdown` is set (the CLI wires SIGTERM and
/// SIGINT to it) or a client sends `drain`, then drain gracefully:
/// stop accepting, finish and journal everything already admitted,
/// flush, and return the lifetime report.
///
/// `on_ready` fires once with the bound address (after journal recovery,
/// before the first accept) — the CLI prints it as a `ready` record,
/// tests use it to learn the ephemeral port.
///
/// # Panics
/// Panics if `opts.threads` is zero.
pub fn run_serve(
    opts: &ServeOptions,
    shutdown: &AtomicBool,
    on_ready: impl FnOnce(&str),
) -> io::Result<ServeReport> {
    assert!(opts.threads >= 1, "need at least one worker thread");
    let (journal, recovery) = Journal::open(&opts.dir, opts.fsync)?;

    let mut warnings = recovery.warnings;
    let cache = match &opts.cache_dir {
        Some(dir) => match sweep::cache::ResultCache::open(dir) {
            Ok(c) => Some(c),
            Err(e) => {
                warnings.push(simcheck::cache_dir_unwritable(dir, &e).to_string());
                None
            }
        },
        None => None,
    };

    // Every job runs under the sweep supervisor with the service's
    // deadline policy; `threads`/`shards` are fabric knobs the
    // supervisor never reads.
    let sweep_opts = SweepOptions {
        retries: opts.retries,
        retry_backoff: opts.retry_backoff,
        wall_timeout: opts.deadline,
        watchdog_factor: opts.watchdog_factor,
        ..SweepOptions::default()
    };

    let shared = Arc::new(Shared {
        sweep_opts,
        queue: JobQueue::new(opts.queue_cap),
        journal: Mutex::new(journal),
        results: Mutex::new(std::collections::BTreeMap::new()),
        counters: Counters::default(),
        draining: AtomicBool::new(false),
        next_job: AtomicU64::new(recovery.next_job),
        admission_budget: opts.admission_budget,
        retry_after: opts.retry_after,
        cache,
        warnings: Mutex::new(warnings),
    });

    // Seed the query index with completed records (later lines win),
    // then re-queue the restart obligations. Their results are fetched
    // via `query` — the connections that submitted them died with the
    // previous process.
    {
        let mut results = shared.results.lock().expect("results poisoned");
        for r in recovery.completed {
            results.insert(r.id.clone(), r);
        }
    }
    shared
        .counters
        .recovered
        .store(recovery.pending.len() as u64, Ordering::Relaxed);
    for (jobno, scenario) in recovery.pending {
        let report = simcheck::budget::budget(&scenario.config);
        shared.queue.push_recovered(Job {
            job: jobno,
            fingerprint: config_fingerprint(&scenario.config),
            config_json: json::to_string(&scenario.config),
            pool: report.pool,
            cancel: Arc::new(AtomicBool::new(false)),
            reply: None,
            scenario,
        });
    }

    let mut workers = Vec::with_capacity(opts.threads);
    for _ in 0..opts.threads {
        let shared = Arc::clone(&shared);
        workers.push(std::thread::spawn(move || worker(&shared)));
    }

    let listener = TcpListener::bind(&opts.addr)?;
    listener.set_nonblocking(true)?;
    let addr = listener.local_addr()?.to_string();
    on_ready(&addr);

    let mut conns: Vec<std::thread::JoinHandle<()>> = Vec::new();
    loop {
        if shutdown.load(Ordering::SeqCst) || shared.draining.load(Ordering::SeqCst) {
            break;
        }
        match listener.accept() {
            Ok((stream, _)) => {
                let shared = Arc::clone(&shared);
                let max_line = opts.max_line_bytes;
                conns.push(std::thread::spawn(move || {
                    connection(&shared, stream, max_line);
                }));
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                conns.retain(|h| !h.is_finished());
                std::thread::sleep(Duration::from_millis(20));
            }
            Err(e) => return Err(e),
        }
    }

    // Graceful drain: no new connections (loop exited), no new
    // admissions (flag + closed queue), everything already admitted
    // runs to a journaled terminal record before the workers exit.
    shared.draining.store(true, Ordering::SeqCst);
    shared.queue.close();
    for w in workers {
        let _ = w.join();
    }
    for c in conns {
        let _ = c.join();
    }

    let stats = shared.stats();
    let shared = Arc::try_unwrap(shared)
        .unwrap_or_else(|arc| panic!("{} live references after drain", Arc::strong_count(&arc)));
    let mut warnings = shared.warnings.into_inner().expect("warnings poisoned");
    warnings.sort();
    Ok(ServeReport {
        addr,
        stats,
        warnings,
    })
}

/// One worker: drain the queue to terminal, journaled records.
fn worker(shared: &Shared) {
    let pool = sweep::pool_slot(zero_budget());
    while let Some(job) = shared.queue.pop() {
        shared.counters.inflight.fetch_add(1, Ordering::SeqCst);
        let result = if job.cancel.load(Ordering::SeqCst) {
            ScenarioResult {
                id: job.scenario.id.clone(),
                status: ScenarioStatus::Cancelled,
                attempts: 0,
                error: Some(
                    "cancelled before running: the submitting client disconnected".to_string(),
                ),
                summary: None,
                config_fingerprint: Some(job.fingerprint),
            }
        } else {
            run_job(shared, &job, &pool)
        };
        // The journal write is best-effort *here* (the result is already
        // earned and the client still gets it); a failure is surfaced as
        // a warning and the job simply re-runs after a restart.
        if let Err(e) =
            shared
                .journal
                .lock()
                .expect("journal poisoned")
                .append(&JournalRecord::Done {
                    job: job.job,
                    result: result.clone(),
                })
        {
            shared.warn(format!(
                "job {} ('{}'): journal append failed ({e}); the job will re-run \
                 if the service restarts",
                job.job, result.id
            ));
        }
        shared
            .results
            .lock()
            .expect("results poisoned")
            .insert(result.id.clone(), result.clone());
        let counter = if result.status == ScenarioStatus::Cancelled {
            &shared.counters.cancelled
        } else {
            &shared.counters.completed
        };
        counter.fetch_add(1, Ordering::Relaxed);
        if let Some(tx) = &job.reply {
            // The client may be long gone; that is its problem, not ours.
            let _ = tx.send(Reply::Result { record: result });
        }
        shared.counters.inflight.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Execute one admitted job: cache-serve when warm, else supervise a
/// real run under the service deadline policy (and store clean
/// completions back).
fn run_job(shared: &Shared, job: &Job, pool: &sweep::PoolSlot) -> ScenarioResult {
    let (result, event) = sweep::run_cached(
        shared.cache.as_ref(),
        &job.scenario,
        &shared.sweep_opts,
        (&job.config_json, job.fingerprint),
        || {
            sweep::ensure_pool_budget(pool, job.pool);
            sweep::supervise(&job.scenario, &shared.sweep_opts, None, pool)
        },
    );
    match event {
        Some(Lookup::Hit { .. }) => {
            shared.counters.cache_hits.fetch_add(1, Ordering::Relaxed);
        }
        Some(Lookup::Miss) => {
            shared.counters.cache_misses.fetch_add(1, Ordering::Relaxed);
        }
        Some(Lookup::Quarantined(reason)) => shared.warn(format!(
            "job {} ('{}'): cache entry {:#018x} quarantined ({reason}); \
             re-simulating",
            job.job, job.scenario.id, job.fingerprint
        )),
        None => {}
    }
    result
}

/// Prepare an accepted stream for a connection: `TCP_NODELAY`, so a
/// small reply is not held back by Nagle's algorithm waiting on the
/// peer's delayed ACK, and a 50 ms read timeout, so the reader polls and
/// notices a drain without client traffic.
fn tune_stream(stream: &TcpStream) -> io::Result<()> {
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(Duration::from_millis(50)))
}

/// One client connection: a reader loop (this thread) and a writer
/// thread serializing all replies — the reader's synchronous answers and
/// every in-flight job's eventual `result` — onto the socket.
fn connection(shared: &Arc<Shared>, stream: TcpStream, max_line: usize) {
    if tune_stream(&stream).is_err() {
        return;
    }
    let Ok(write_half) = stream.try_clone() else {
        return;
    };
    let cancel = Arc::new(AtomicBool::new(false));
    let (tx, rx) = mpsc::channel::<Reply>();
    let writer_cancel = Arc::clone(&cancel);
    let writer = std::thread::spawn(move || {
        let mut out = write_half;
        for reply in rx {
            if wire::write_json_line(&mut out, &reply).is_err() {
                // The client stopped reading: its queued jobs are
                // orphans from here on.
                writer_cancel.store(true, Ordering::SeqCst);
                break;
            }
        }
    });
    let _ = tx.send(Reply::Hello {
        serve_format: SERVE_FORMAT,
    });

    let mut reader = wire::LineReader::new(stream, max_line);
    let mut client_gone = false;
    loop {
        if shared.draining.load(Ordering::SeqCst) {
            // Drain is not disconnect: pending jobs keep their reply
            // senders and finish; only the reader stops.
            break;
        }
        match reader.next_line() {
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                continue
            }
            Err(_) | Ok(None) => {
                client_gone = true;
                break;
            }
            Ok(Some(Err(frame_err))) => {
                let _ = tx.send(Reply::Error {
                    error: frame_err.to_string(),
                });
            }
            Ok(Some(Ok(line))) => match protocol::parse_request(&line) {
                Err(e) => {
                    let _ = tx.send(Reply::Error { error: e });
                }
                Ok(req) => handle_request(shared, req, &tx, &cancel),
            },
        }
    }
    if client_gone {
        cancel.store(true, Ordering::SeqCst);
    }
    drop(tx);
    let _ = writer.join();
}

/// Answer one parsed request on behalf of `connection`.
fn handle_request(
    shared: &Arc<Shared>,
    req: Request,
    tx: &mpsc::Sender<Reply>,
    cancel: &Arc<AtomicBool>,
) {
    match req {
        Request::Ping { nonce } => {
            let _ = tx.send(Reply::Pong { nonce });
        }
        Request::Stats => {
            let _ = tx.send(Reply::Stats(shared.stats()));
        }
        Request::Drain => {
            shared.draining.store(true, Ordering::SeqCst);
            let _ = tx.send(Reply::Draining);
        }
        Request::Query { id } => {
            let found = shared
                .results
                .lock()
                .expect("results poisoned")
                .get(&id)
                .cloned();
            let _ = tx.send(match found {
                Some(record) => Reply::Result { record },
                None => Reply::NoResult { id },
            });
        }
        Request::Submit(scenario) => submit(shared, *scenario, tx, cancel),
    }
}

/// The submit path: admission → capacity reservation → durable journal
/// line → queue, with every refusal an explicit structured reply.
fn submit(
    shared: &Arc<Shared>,
    scenario: Scenario,
    tx: &mpsc::Sender<Reply>,
    cancel: &Arc<AtomicBool>,
) {
    if shared.draining.load(Ordering::SeqCst) {
        let _ = tx.send(Reply::Draining);
        return;
    }
    let report = match admission::admit(&scenario, shared.admission_budget) {
        Admission::Reject { error, diagnostics } => {
            shared.counters.rejected.fetch_add(1, Ordering::Relaxed);
            let _ = tx.send(Reply::Rejected {
                id: scenario.id,
                error,
                diagnostics,
            });
            return;
        }
        Admission::Accept(report) => report,
    };
    let depth = match shared.queue.reserve() {
        Err(depth) => {
            shared.counters.shed.fetch_add(1, Ordering::Relaxed);
            let retry_after_ms = shared.retry_after.as_millis() as u64;
            let _ = tx.send(Reply::Overloaded {
                id: scenario.id,
                queued: depth as u64,
                capacity: shared.queue.capacity() as u64,
                retry_after_ms,
                diagnostics: vec![tracefmt::json::ToJson::to_json(
                    &simcheck::serve_overloaded(depth, shared.queue.capacity(), shared.retry_after),
                )],
            });
            return;
        }
        Ok(depth) => depth,
    };
    let jobno = shared.next_job.fetch_add(1, Ordering::SeqCst);
    // Journal *before* acknowledging: an accepted job survives SIGKILL.
    let journaled = shared
        .journal
        .lock()
        .expect("journal poisoned")
        .append(&JournalRecord::Job {
            job: jobno,
            scenario: scenario.clone(),
        });
    if let Err(e) = journaled {
        shared.queue.unreserve();
        shared.warn(format!(
            "job {jobno} ('{}'): journal append failed ({e}); submission refused",
            scenario.id
        ));
        let _ = tx.send(Reply::Error {
            error: format!("journal write failed: {e}"),
        });
        return;
    }
    // Acknowledge before queueing: the job is already durable, and this
    // keeps the per-job reply order deterministic (`accepted` always
    // precedes that job's `result` on the serialized writer).
    shared.counters.accepted.fetch_add(1, Ordering::Relaxed);
    let _ = tx.send(Reply::Accepted {
        id: scenario.id.clone(),
        job: jobno,
        queued: depth as u64,
    });
    shared.queue.push_reserved(Job {
        job: jobno,
        fingerprint: config_fingerprint(&scenario.config),
        config_json: json::to_string(&scenario.config),
        pool: report.pool,
        cancel: Arc::clone(cancel),
        reply: Some(tx.clone()),
        scenario,
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accepted_streams_are_tuned_for_small_replies() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
        let client = TcpStream::connect(listener.local_addr().expect("bound")).expect("connect");
        let (server, _) = listener.accept().expect("accept");
        tune_stream(&server).expect("tune accepted stream");
        assert!(server.nodelay().expect("read TCP_NODELAY"));
        // The kernel rounds the timeout to its tick, so only its presence
        // is checked.
        assert!(server.read_timeout().expect("read timeout").is_some());
        drop(client);
    }
}
