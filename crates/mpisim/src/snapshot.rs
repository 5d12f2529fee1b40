//! Deterministic checkpoint/restart.
//!
//! A [`Snapshot`] is a complete, versioned copy of a paused [`Engine`]:
//! the event queue (clock, sequence counters, every pending event), each
//! rank's state machine including its xoshiro256++ stream positions, the
//! protocol bookkeeping sets, fault-stream positions, partial trace
//! records, and the configuration the run was built from. Because the
//! engine is deterministic — integer timestamps, FIFO tie-breaking,
//! per-entity RNG streams — restoring a snapshot and running to completion
//! produces a trace **bit-identical** to the uninterrupted run, for any
//! cut point. `tests/checkpoint.rs` holds that contract as a `for_all`
//! property over seeds, fault plans, and cut points.
//!
//! ## On-disk format
//!
//! [`Snapshot::encode`] produces exactly two lines:
//!
//! ```text
//! {"version":1,"config":{...},"queue":{...},...}
//! {"snapshot_digest":1234567890}
//! ```
//!
//! The first line is the body; the second is an integrity footer carrying
//! the FNV-1a digest of the body's raw bytes ([`tracefmt::fnv1a_64`], the
//! same machinery as `Trace::fingerprint`). A torn write — truncated body,
//! missing footer, partial final line — fails the digest check and decodes
//! to an error instead of silently resuming wrong state.
//!
//! ## Rejection diagnostics
//!
//! Decode and restore failures are [`SimError::Snapshot`] values carrying
//! one of three RT-series codes, so callers (and their tests) can tell the
//! failure modes apart:
//!
//! * `RT003` — the body is intact but its `version` is not
//!   [`SNAPSHOT_VERSION`]: written by an incompatible build.
//! * `RT004` — the file is torn or corrupt: missing/bad footer, digest
//!   mismatch, unparseable body, or internally inconsistent state (queue
//!   events before the clock, wrong rank counts, degenerate RNG states).
//! * `RT005` — the snapshot is intact but was taken under a *different*
//!   configuration than the caller is restoring into.

use simdes::{EventQueue, SimDuration, SimRng, SimTime};
use tracefmt::json;
use tracefmt::{fnv1a_64, FromJson, Json, PhaseRecord, ToJson};

use crate::config::{Mode, SimConfig};
use crate::diag::Diagnostic;
use crate::engine::{
    validated, EarlySet, Engine, Ev, Phase, RankState, Ranks, ReqState, Request, RunStats,
    TraceMode,
};
use crate::error::SimError;

/// Format version written into every snapshot body. Bump on any change to
/// the body schema; old files then decode to `RT003` instead of garbage.
pub const SNAPSHOT_VERSION: u32 = 1;

/// FNV-1a digest of a configuration's canonical JSON form. The sweep
/// runner records this in its JSONL header and per-scenario records so a
/// `--resume` against a different configuration is detected (satellite of
/// the same robustness contract the snapshot footer serves).
pub fn config_fingerprint(cfg: &SimConfig) -> u64 {
    fnv1a_64(json::to_string(cfg).as_bytes())
}

/// When to cut checkpoints during [`Engine::try_run_checkpointed`]. Both
/// cadences may be active at once; either coming due triggers a snapshot.
/// The default is inert (no checkpoints).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CheckpointPolicy {
    /// Snapshot when sim time advances this far past the previous cut.
    pub every_sim_time: Option<SimDuration>,
    /// Snapshot every this many delivered events.
    pub every_events: Option<u64>,
}

impl CheckpointPolicy {
    /// No checkpoints: [`Engine::try_run_checkpointed`] degenerates to
    /// [`Engine::try_run_with_stats`].
    pub fn none() -> Self {
        CheckpointPolicy::default()
    }

    /// `true` when at least one cadence is set.
    pub fn is_active(&self) -> bool {
        self.every_sim_time.is_some() || self.every_events.is_some()
    }
}

/// A complete copy of a paused [`Engine`], cut between event deliveries.
/// Capture with [`Engine::checkpoint`], persist with [`Snapshot::encode`],
/// load with [`Snapshot::decode`], and resume with [`Engine::restore`].
#[derive(Debug, Clone)]
pub struct Snapshot {
    pub(crate) config: SimConfig,
    pub(crate) started: bool,
    pub(crate) now: SimTime,
    pub(crate) next_seq: u64,
    pub(crate) delivered: u64,
    pub(crate) events: Vec<(SimTime, u64, Ev)>,
    pub(crate) ranks: Vec<RankState>,
    pub(crate) early_rts: Vec<(u32, u32, u32)>,
    pub(crate) early_eager: Vec<(u32, u32, u32)>,
    pub(crate) outstanding_eager: Vec<(u32, u32, u64)>,
    pub(crate) socket_members: Vec<Vec<u32>>,
    pub(crate) records: Vec<PhaseRecord>,
    pub(crate) done_count: u32,
    pub(crate) nic_free: Vec<SimTime>,
    pub(crate) stats: RunStats,
    pub(crate) fault_rngs: Vec<(u32, u32, [u64; 4])>,
    pub(crate) crashed: Vec<u32>,
    pub(crate) lost: Vec<String>,
}

fn rt004(value: impl std::fmt::Display, message: impl Into<String>) -> SimError {
    SimError::Snapshot(Diagnostic::error("RT004", "snapshot", value, message))
}

impl Snapshot {
    /// Copy the full state of a paused engine. All hash containers are
    /// sorted into canonical order here so encoding is deterministic: the
    /// same engine state always produces byte-identical snapshot files.
    pub fn capture(engine: &Engine) -> Self {
        let early_rts = engine.early_rts.entries_sorted();
        let early_eager = engine.early_eager.entries_sorted();
        let mut outstanding_eager: Vec<_> = engine
            .outstanding_eager
            .iter()
            .map(|(&(s, d), &b)| (s, d, b))
            .collect();
        outstanding_eager.sort_unstable();
        let mut fault_rngs: Vec<_> = engine
            .fault_rngs
            .iter()
            .map(|(&(s, d), rng)| (s, d, rng.state()))
            .collect();
        fault_rngs.sort_unstable();
        Snapshot {
            config: engine.cfg.clone(),
            started: engine.started,
            now: engine.q.now(),
            next_seq: engine.q.next_seq(),
            delivered: engine.q.delivered(),
            events: engine
                .q
                .pending()
                .into_iter()
                .map(|(t, seq, ev)| (t, seq, *ev))
                .collect(),
            ranks: (0..engine.ranks.len())
                .map(|r| engine.ranks.state_of(r))
                .collect(),
            early_rts,
            early_eager,
            outstanding_eager,
            socket_members: engine
                .socket_members
                .iter()
                .map(|s| s.iter().copied().collect())
                .collect(),
            records: engine.records.clone(),
            done_count: engine.done_count,
            nic_free: engine.nic_free.clone(),
            stats: engine.stats,
            fault_rngs,
            crashed: engine.crashed.clone(),
            lost: engine.lost.clone(),
        }
    }

    /// The configuration the snapshot was taken under.
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// The simulation clock at the cut point.
    pub fn sim_time(&self) -> SimTime {
        self.now
    }

    /// Events delivered before the cut point.
    pub fn events_delivered(&self) -> u64 {
        self.delivered
    }

    /// Trace records already completed at the cut point.
    pub fn records_done(&self) -> usize {
        self.records.len()
    }

    /// Serialize to the two-line body + integrity-footer format described
    /// in the module docs. The output ends with a newline.
    pub fn encode(&self) -> String {
        let body = json::to_string(&self.body_json());
        let footer = json::to_string(&Json::obj(vec![(
            "snapshot_digest",
            fnv1a_64(body.as_bytes()).to_json(),
        )]));
        format!("{body}\n{footer}\n")
    }

    /// Parse and verify an encoded snapshot. Works on raw bytes so torn
    /// files that are not even valid UTF-8 are still reported as `RT004`
    /// rather than panicking or erroring opaquely.
    pub fn decode(bytes: &[u8]) -> Result<Self, SimError> {
        let Some(split) = bytes.iter().position(|&b| b == b'\n') else {
            return Err(rt004(
                format!("{} bytes", bytes.len()),
                "missing integrity footer (no newline): the snapshot write was torn",
            ));
        };
        let body_bytes = &bytes[..split];
        let footer_bytes = &bytes[split + 1..];
        let footer_text = std::str::from_utf8(footer_bytes)
            .map_err(|e| rt004(e, "integrity footer is not UTF-8"))?;
        let footer: Json = json::from_str(footer_text.trim_end())
            .map_err(|e| rt004(e, "integrity footer is not a JSON object"))?;
        let want = footer
            .field("snapshot_digest")
            .and_then(Json::expect_u64)
            .map_err(|e| rt004(e, "integrity footer lacks a snapshot_digest"))?;
        let got = fnv1a_64(body_bytes);
        if got != want {
            return Err(rt004(
                format!("expected {want:#018x}, found {got:#018x}"),
                "integrity digest mismatch: the snapshot file is torn or corrupt",
            ));
        }
        let body_text =
            std::str::from_utf8(body_bytes).map_err(|e| rt004(e, "snapshot body is not UTF-8"))?;
        let body = Json::parse(body_text).map_err(|e| {
            rt004(
                e,
                "snapshot body is not valid JSON despite a matching digest",
            )
        })?;
        // Version gates the schema: check it before decoding any other
        // field so future formats fail with RT003, not a confusing RT004.
        let version = body
            .field("version")
            .and_then(Json::expect_u64)
            .map_err(|e| rt004(e, "snapshot body lacks a version field"))?;
        if version != u64::from(SNAPSHOT_VERSION) {
            return Err(SimError::Snapshot(Diagnostic::error(
                "RT003",
                "snapshot",
                version,
                format!(
                    "unsupported snapshot version (this build reads version {SNAPSHOT_VERSION})"
                ),
            )));
        }
        let snap = Snapshot::from_body(&body)
            .map_err(|e| rt004(e, "snapshot body does not decode to a v1 snapshot"))?;
        snap.validate()?;
        Ok(snap)
    }

    /// Internal-consistency checks on decoded state, so a file that passes
    /// the digest but encodes impossible state (hand-edited, or produced
    /// by a buggy writer) is rejected as `RT004` instead of tripping
    /// asserts deep inside `EventQueue::restore` or `SimRng::from_state`.
    fn validate(&self) -> Result<(), SimError> {
        let nranks = self.config.ranks() as usize;
        if self.ranks.len() != nranks {
            return Err(rt004(
                self.ranks.len(),
                format!("snapshot holds state for the wrong rank count (config has {nranks})"),
            ));
        }
        if self.nic_free.len() != nranks {
            return Err(rt004(self.nic_free.len(), "nic_free length != rank count"));
        }
        let sockets = self.config.network.machine.total_sockets() as usize;
        if self.socket_members.len() != sockets {
            return Err(rt004(
                self.socket_members.len(),
                format!("socket_members length != machine socket count {sockets}"),
            ));
        }
        if self.delivered > self.next_seq {
            return Err(rt004(
                format!("delivered {} > next_seq {}", self.delivered, self.next_seq),
                "queue counters are inconsistent",
            ));
        }
        for &(t, seq, _) in &self.events {
            if t < self.now {
                return Err(rt004(
                    format!("event at t = {t} vs clock {}", self.now),
                    "a pending event lies before the snapshot clock",
                ));
            }
            if seq >= self.next_seq {
                return Err(rt004(
                    format!("seq {seq} vs next_seq {}", self.next_seq),
                    "a pending event's sequence number was never issued",
                ));
            }
        }
        for (i, r) in self.ranks.iter().enumerate() {
            if r.rng.state() == [0; 4] || r.comm_rng.state() == [0; 4] {
                return Err(rt004(i, "a rank RNG is in the degenerate all-zero state"));
            }
        }
        for &(s, d, st) in &self.fault_rngs {
            if st == [0; 4] {
                return Err(rt004(
                    format!("link {s} -> {d}"),
                    "a fault RNG is in the degenerate all-zero state",
                ));
            }
        }
        let done = self.ranks.iter().filter(|r| r.phase == Phase::Done).count() as u32;
        if done != self.done_count {
            return Err(rt004(
                format!("done_count {} vs {done} Done ranks", self.done_count),
                "completion counter disagrees with rank phases",
            ));
        }
        Ok(())
    }

    fn body_json(&self) -> Json {
        Json::obj(vec![
            ("version", SNAPSHOT_VERSION.to_json()),
            ("config", self.config.to_json()),
            ("started", self.started.to_json()),
            (
                "queue",
                Json::obj(vec![
                    ("now", self.now.to_json()),
                    ("next_seq", self.next_seq.to_json()),
                    ("delivered", self.delivered.to_json()),
                    (
                        "events",
                        Json::Array(
                            self.events
                                .iter()
                                .map(|&(t, seq, ev)| {
                                    Json::Array(vec![t.to_json(), seq.to_json(), ev.to_json()])
                                })
                                .collect(),
                        ),
                    ),
                ]),
            ),
            (
                "ranks",
                Json::Array(self.ranks.iter().map(rank_to_json).collect()),
            ),
            ("early_rts", triples_to_json(&self.early_rts)),
            ("early_eager", triples_to_json(&self.early_eager)),
            (
                "outstanding_eager",
                Json::Array(
                    self.outstanding_eager
                        .iter()
                        .map(|&(s, d, b)| Json::Array(vec![s.to_json(), d.to_json(), b.to_json()]))
                        .collect(),
                ),
            ),
            ("socket_members", self.socket_members.to_json()),
            ("records", self.records.to_json()),
            ("done_count", self.done_count.to_json()),
            ("nic_free", self.nic_free.to_json()),
            ("stats", stats_to_json(&self.stats)),
            (
                "fault_rngs",
                Json::Array(
                    self.fault_rngs
                        .iter()
                        .map(|&(s, d, st)| {
                            Json::Array(vec![s.to_json(), d.to_json(), rng_words_to_json(st)])
                        })
                        .collect(),
                ),
            ),
            ("crashed", self.crashed.to_json()),
            ("lost", self.lost.to_json()),
        ])
    }

    fn from_body(v: &Json) -> json::Result<Self> {
        let q = v.field("queue")?;
        let events = q
            .field("events")?
            .expect_array()?
            .iter()
            .map(|e| {
                let parts = e.expect_array()?;
                if parts.len() != 3 {
                    return Err(json::JsonError(format!(
                        "queue event needs [time, seq, ev], got {} elements",
                        parts.len()
                    )));
                }
                Ok((
                    SimTime::from_json(&parts[0])?,
                    u64::from_json(&parts[1])?,
                    Ev::from_json(&parts[2])?,
                ))
            })
            .collect::<json::Result<Vec<_>>>()?;
        Ok(Snapshot {
            config: SimConfig::from_json(v.field("config")?)?,
            started: bool::from_json(v.field("started")?)?,
            now: SimTime::from_json(q.field("now")?)?,
            next_seq: u64::from_json(q.field("next_seq")?)?,
            delivered: u64::from_json(q.field("delivered")?)?,
            events,
            ranks: v
                .field("ranks")?
                .expect_array()?
                .iter()
                .map(rank_from_json)
                .collect::<json::Result<Vec<_>>>()?,
            early_rts: triples_from_json(v.field("early_rts")?)?,
            early_eager: triples_from_json(v.field("early_eager")?)?,
            outstanding_eager: v
                .field("outstanding_eager")?
                .expect_array()?
                .iter()
                .map(|e| {
                    let parts = e.expect_array()?;
                    Ok((
                        u32::from_json(&parts[0])?,
                        u32::from_json(&parts[1])?,
                        u64::from_json(&parts[2])?,
                    ))
                })
                .collect::<json::Result<Vec<_>>>()?,
            socket_members: Vec::<Vec<u32>>::from_json(v.field("socket_members")?)?,
            records: Vec::<PhaseRecord>::from_json(v.field("records")?)?,
            done_count: u32::from_json(v.field("done_count")?)?,
            nic_free: Vec::<SimTime>::from_json(v.field("nic_free")?)?,
            stats: stats_from_json(v.field("stats")?)?,
            fault_rngs: v
                .field("fault_rngs")?
                .expect_array()?
                .iter()
                .map(|e| {
                    let parts = e.expect_array()?;
                    Ok((
                        u32::from_json(&parts[0])?,
                        u32::from_json(&parts[1])?,
                        rng_words_from_json(&parts[2])?,
                    ))
                })
                .collect::<json::Result<Vec<_>>>()?,
            crashed: Vec::<u32>::from_json(v.field("crashed")?)?,
            lost: Vec::<String>::from_json(v.field("lost")?)?,
        })
    }
}

impl Engine {
    /// Capture a [`Snapshot`] of the engine's full state. Meaningful at
    /// any point between event deliveries; [`Engine::try_run_checkpointed`]
    /// calls this on the [`CheckpointPolicy`] cadence.
    ///
    /// # Panics
    /// Panics on the engine of a summary-mode run
    /// ([`crate::try_run_summary_pooled`]): summary mode discards the
    /// completed records a resumable snapshot must carry.
    pub fn checkpoint(&self) -> Snapshot {
        assert!(
            self.mode == TraceMode::Full,
            "cannot checkpoint a summary-mode run: completed records are not retained"
        );
        Snapshot::capture(self)
    }

    /// Rebuild a runnable engine from a snapshot. `cfg` must equal the
    /// configuration the snapshot was taken under (`RT005` otherwise) —
    /// pass `snap.config().clone()` to resume under the embedded one.
    /// Returns `RT004` for snapshots whose state is internally
    /// inconsistent with the configuration.
    ///
    /// Running the restored engine to completion yields a trace
    /// bit-identical to the uninterrupted original run.
    pub fn restore(cfg: SimConfig, snap: &Snapshot) -> Result<Engine, SimError> {
        let cfg = validated(cfg)?;
        if cfg != snap.config {
            return Err(SimError::Snapshot(Diagnostic::error(
                "RT005",
                "snapshot",
                format!(
                    "snapshot config fingerprint {:#018x}, caller's {:#018x}",
                    config_fingerprint(&snap.config),
                    config_fingerprint(&cfg)
                ),
                "snapshot was taken under a different configuration; \
                 refusing to resume into mismatched state",
            )));
        }
        // Re-run the structural checks: a Snapshot built in-process is
        // always valid, but `restore` is also the last line of defence for
        // snapshots assembled by future decoders.
        snap.validate()?;
        // Scaffold rebuilds every derived cache (partner CSR, link costs,
        // base execution times) from the — already equality-checked —
        // config, then the snapshot's dynamic state overwrites the fresh
        // defaults.
        let mut e = Engine::scaffold(cfg, None);
        let n = snap.ranks.len();
        e.q = EventQueue::restore(snap.now, snap.next_seq, snap.delivered, snap.events.clone());
        e.ranks = Ranks::from_states(&snap.ranks);
        e.early_rts = EarlySet::from_entries(n, &snap.early_rts);
        e.early_eager = EarlySet::from_entries(n, &snap.early_eager);
        e.outstanding_eager = snap
            .outstanding_eager
            .iter()
            .map(|&(s, d, b)| ((s, d), b))
            .collect();
        e.socket_members = snap
            .socket_members
            .iter()
            .map(|s| s.iter().copied().collect())
            .collect();
        e.records = snap.records.clone();
        e.done_count = snap.done_count;
        e.nic_free = snap.nic_free.clone();
        e.stats = snap.stats;
        e.fault_rngs = snap
            .fault_rngs
            .iter()
            .map(|&(s, d, st)| ((s, d), SimRng::from_state(st)))
            .collect();
        e.crashed = snap.crashed.clone();
        e.lost = snap.lost.clone();
        e.started = snap.started;
        e.recount_requests();
        Ok(e)
    }
}

// ---- field-level serialization helpers ----------------------------------

fn triples_to_json(v: &[(u32, u32, u32)]) -> Json {
    Json::Array(
        v.iter()
            .map(|&(a, b, c)| Json::Array(vec![a.to_json(), b.to_json(), c.to_json()]))
            .collect(),
    )
}

fn triples_from_json(v: &Json) -> json::Result<Vec<(u32, u32, u32)>> {
    v.expect_array()?
        .iter()
        .map(|e| {
            let parts = e.expect_array()?;
            if parts.len() != 3 {
                return Err(json::JsonError(format!(
                    "expected [a, b, c] triple, got {} elements",
                    parts.len()
                )));
            }
            Ok((
                u32::from_json(&parts[0])?,
                u32::from_json(&parts[1])?,
                u32::from_json(&parts[2])?,
            ))
        })
        .collect()
}

fn rng_words_to_json(s: [u64; 4]) -> Json {
    Json::Array(s.iter().map(|w| w.to_json()).collect())
}

fn rng_words_from_json(v: &Json) -> json::Result<[u64; 4]> {
    let parts = v.expect_array()?;
    if parts.len() != 4 {
        return Err(json::JsonError(format!(
            "xoshiro state needs 4 words, got {}",
            parts.len()
        )));
    }
    Ok([
        u64::from_json(&parts[0])?,
        u64::from_json(&parts[1])?,
        u64::from_json(&parts[2])?,
        u64::from_json(&parts[3])?,
    ])
}

fn stats_to_json(s: &RunStats) -> Json {
    Json::obj(vec![
        ("events", s.events.to_json()),
        ("peak_queue", (s.peak_queue as u64).to_json()),
        ("messages", s.messages.to_json()),
        ("eager_fallbacks", s.eager_fallbacks.to_json()),
        ("retransmissions", s.retransmissions.to_json()),
        ("dropped_transfers", s.dropped_transfers.to_json()),
        ("corrupted_transfers", s.corrupted_transfers.to_json()),
        ("lost_transfers", s.lost_transfers.to_json()),
    ])
}

fn stats_from_json(v: &Json) -> json::Result<RunStats> {
    Ok(RunStats {
        events: u64::from_json(v.field("events")?)?,
        peak_queue: u64::from_json(v.field("peak_queue")?)? as usize,
        messages: u64::from_json(v.field("messages")?)?,
        eager_fallbacks: u64::from_json(v.field("eager_fallbacks")?)?,
        retransmissions: u64::from_json(v.field("retransmissions")?)?,
        dropped_transfers: u64::from_json(v.field("dropped_transfers")?)?,
        corrupted_transfers: u64::from_json(v.field("corrupted_transfers")?)?,
        lost_transfers: u64::from_json(v.field("lost_transfers")?)?,
    })
}

fn rank_to_json(r: &RankState) -> Json {
    Json::obj(vec![
        ("phase", r.phase.to_json()),
        ("step", r.step.to_json()),
        (
            "reqs",
            Json::Array(r.reqs.iter().map(req_to_json).collect()),
        ),
        ("exec_start", r.exec_start.to_json()),
        ("exec_end", r.exec_end.to_json()),
        ("injected", r.injected.to_json()),
        ("noise", r.noise_amt.to_json()),
        ("epoch", r.epoch.to_json()),
        // f64 stored as raw IEEE-754 bits: JSON decimal round-tripping is
        // not allowed anywhere near a bit-identical-resume contract.
        (
            "remaining_bytes_bits",
            r.remaining_bytes.to_bits().to_json(),
        ),
        ("last_update", r.last_update.to_json()),
        ("rng", rng_words_to_json(r.rng.state())),
        ("comm_rng", rng_words_to_json(r.comm_rng.state())),
    ])
}

fn rank_from_json(v: &Json) -> json::Result<RankState> {
    let rng_words = rng_words_from_json(v.field("rng")?)?;
    let comm_words = rng_words_from_json(v.field("comm_rng")?)?;
    if rng_words == [0; 4] || comm_words == [0; 4] {
        return Err(json::JsonError(
            "all-zero xoshiro state in rank snapshot".to_string(),
        ));
    }
    Ok(RankState {
        phase: Phase::from_json(v.field("phase")?)?,
        step: u32::from_json(v.field("step")?)?,
        reqs: v
            .field("reqs")?
            .expect_array()?
            .iter()
            .map(req_from_json)
            .collect::<json::Result<Vec<_>>>()?,
        exec_start: SimTime::from_json(v.field("exec_start")?)?,
        exec_end: SimTime::from_json(v.field("exec_end")?)?,
        injected: SimDuration::from_json(v.field("injected")?)?,
        noise_amt: SimDuration::from_json(v.field("noise")?)?,
        epoch: u64::from_json(v.field("epoch")?)?,
        remaining_bytes: f64::from_bits(u64::from_json(v.field("remaining_bytes_bits")?)?),
        last_update: SimTime::from_json(v.field("last_update")?)?,
        rng: SimRng::from_state(rng_words),
        comm_rng: SimRng::from_state(comm_words),
    })
}

fn req_to_json(r: &Request) -> Json {
    Json::obj(vec![
        ("peer", r.peer.to_json()),
        ("is_send", r.is_send.to_json()),
        ("mode", r.mode.to_json()),
        ("state", r.state.to_json()),
    ])
}

fn req_from_json(v: &Json) -> json::Result<Request> {
    Ok(Request {
        peer: u32::from_json(v.field("peer")?)?,
        is_send: bool::from_json(v.field("is_send")?)?,
        mode: Mode::from_json(v.field("mode")?)?,
        state: ReqState::from_json(v.field("state")?)?,
    })
}

impl ToJson for Phase {
    fn to_json(&self) -> Json {
        Json::Str(
            match self {
                Phase::Computing => "Computing",
                Phase::Waiting => "Waiting",
                Phase::Done => "Done",
                Phase::Crashed => "Crashed",
            }
            .to_string(),
        )
    }
}

impl FromJson for Phase {
    fn from_json(v: &Json) -> json::Result<Self> {
        match v.expect_str()? {
            "Computing" => Ok(Phase::Computing),
            "Waiting" => Ok(Phase::Waiting),
            "Done" => Ok(Phase::Done),
            "Crashed" => Ok(Phase::Crashed),
            other => Err(json::JsonError(format!("unknown Phase variant '{other}'"))),
        }
    }
}

impl ToJson for ReqState {
    fn to_json(&self) -> Json {
        Json::Str(
            match self {
                ReqState::Unmatched => "Unmatched",
                ReqState::MatchedNoCts => "MatchedNoCts",
                ReqState::InFlight => "InFlight",
                ReqState::Complete => "Complete",
            }
            .to_string(),
        )
    }
}

impl FromJson for ReqState {
    fn from_json(v: &Json) -> json::Result<Self> {
        match v.expect_str()? {
            "Unmatched" => Ok(ReqState::Unmatched),
            "MatchedNoCts" => Ok(ReqState::MatchedNoCts),
            "InFlight" => Ok(ReqState::InFlight),
            "Complete" => Ok(ReqState::Complete),
            other => Err(json::JsonError(format!(
                "unknown ReqState variant '{other}'"
            ))),
        }
    }
}

impl ToJson for Ev {
    fn to_json(&self) -> Json {
        let variant =
            |name: &str, fields: Vec<(&str, Json)>| Json::obj(vec![(name, Json::obj(fields))]);
        match *self {
            Ev::ExecEnd { rank, epoch } => variant(
                "ExecEnd",
                vec![("rank", rank.to_json()), ("epoch", epoch.to_json())],
            ),
            Ev::WorkStart { rank } => variant("WorkStart", vec![("rank", rank.to_json())]),
            Ev::WorkEnd { rank, epoch } => variant(
                "WorkEnd",
                vec![("rank", rank.to_json()), ("epoch", epoch.to_json())],
            ),
            Ev::RtsArrive { src, dst, step } => variant(
                "RtsArrive",
                vec![
                    ("src", src.to_json()),
                    ("dst", dst.to_json()),
                    ("step", step.to_json()),
                ],
            ),
            Ev::CtsArrive {
                sender,
                receiver,
                step,
            } => variant(
                "CtsArrive",
                vec![
                    ("sender", sender.to_json()),
                    ("receiver", receiver.to_json()),
                    ("step", step.to_json()),
                ],
            ),
            Ev::EagerArrive { src, dst, step } => variant(
                "EagerArrive",
                vec![
                    ("src", src.to_json()),
                    ("dst", dst.to_json()),
                    ("step", step.to_json()),
                ],
            ),
            Ev::XferDone {
                sender,
                receiver,
                step,
            } => variant(
                "XferDone",
                vec![
                    ("sender", sender.to_json()),
                    ("receiver", receiver.to_json()),
                    ("step", step.to_json()),
                ],
            ),
        }
    }
}

impl FromJson for Ev {
    fn from_json(v: &Json) -> json::Result<Self> {
        let (name, body) = v.expect_variant()?;
        match name {
            "ExecEnd" => Ok(Ev::ExecEnd {
                rank: u32::from_json(body.field("rank")?)?,
                epoch: u64::from_json(body.field("epoch")?)?,
            }),
            "WorkStart" => Ok(Ev::WorkStart {
                rank: u32::from_json(body.field("rank")?)?,
            }),
            "WorkEnd" => Ok(Ev::WorkEnd {
                rank: u32::from_json(body.field("rank")?)?,
                epoch: u64::from_json(body.field("epoch")?)?,
            }),
            "RtsArrive" => Ok(Ev::RtsArrive {
                src: u32::from_json(body.field("src")?)?,
                dst: u32::from_json(body.field("dst")?)?,
                step: u32::from_json(body.field("step")?)?,
            }),
            "CtsArrive" => Ok(Ev::CtsArrive {
                sender: u32::from_json(body.field("sender")?)?,
                receiver: u32::from_json(body.field("receiver")?)?,
                step: u32::from_json(body.field("step")?)?,
            }),
            "EagerArrive" => Ok(Ev::EagerArrive {
                src: u32::from_json(body.field("src")?)?,
                dst: u32::from_json(body.field("dst")?)?,
                step: u32::from_json(body.field("step")?)?,
            }),
            "XferDone" => Ok(Ev::XferDone {
                sender: u32::from_json(body.field("sender")?)?,
                receiver: u32::from_json(body.field("receiver")?)?,
                step: u32::from_json(body.field("step")?)?,
            }),
            other => Err(json::JsonError(format!("unknown Ev variant '{other}'"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use netmodel::presets;
    use workload::{Boundary, CommPattern, Direction};

    use super::*;
    use crate::config::Protocol;
    use crate::error::RunLimits;
    use crate::faults::FaultPlan;

    fn cfg(ranks: u32, steps: u32) -> SimConfig {
        let net = presets::loggopsim_like(ranks);
        let mut c = SimConfig::baseline(
            net,
            CommPattern::next_neighbor(Direction::Bidirectional, Boundary::Periodic),
            steps,
        );
        c.protocol = Protocol::Rendezvous;
        c
    }

    /// Capture a snapshot after `cut` events and also the uninterrupted
    /// trace, from identical engines.
    fn snapshot_at(c: &SimConfig, cut: u64) -> (Snapshot, tracefmt::Trace) {
        let mut first: Option<Snapshot> = None;
        let policy = CheckpointPolicy {
            every_sim_time: None,
            every_events: Some(cut),
        };
        let (trace, _) = Engine::try_new(c.clone())
            .expect("valid config")
            .try_run_checkpointed(&RunLimits::none(), &policy, |s| {
                if first.is_none() {
                    first = Some(s.clone());
                }
            })
            .expect("run completes");
        (first.expect("run has at least `cut` events"), trace)
    }

    #[test]
    fn restore_resumes_bit_identically() {
        let c = cfg(6, 4);
        let (snap, full_trace) = snapshot_at(&c, 9);
        assert!(snap.events_delivered() >= 9);
        let resumed = Engine::restore(c, &snap)
            .expect("valid snapshot restores")
            .try_run_with_stats(&RunLimits::none())
            .expect("resumed run completes")
            .0;
        assert_eq!(resumed.fingerprint(), full_trace.fingerprint());
        assert_eq!(resumed, full_trace);
    }

    #[test]
    fn encode_decode_round_trips_and_is_deterministic() {
        let mut c = cfg(5, 3);
        c.faults = FaultPlan::none().with_drops(0.2, SimDuration::from_micros(150));
        let (snap, full_trace) = snapshot_at(&c, 14);
        let text = snap.encode();
        assert_eq!(text, snap.encode(), "encoding must be deterministic");
        let decoded = Snapshot::decode(text.as_bytes()).expect("own encoding decodes");
        assert_eq!(decoded.encode(), text, "decode/encode round trip");
        let resumed = Engine::restore(decoded.config().clone(), &decoded)
            .expect("decoded snapshot restores")
            .try_run_with_stats(&RunLimits::none())
            .expect("resumed run completes")
            .0;
        assert_eq!(resumed.fingerprint(), full_trace.fingerprint());
    }

    #[test]
    fn fresh_engine_snapshot_restores_the_whole_run() {
        // `started: false` round trip: checkpointing before the first event
        // must yield a snapshot that reproduces the entire run.
        let c = cfg(4, 3);
        let baseline = crate::run(&c);
        let snap = Engine::try_new(c.clone()).expect("valid").checkpoint();
        assert!(!snap.started);
        let resumed = Engine::restore(c, &snap)
            .expect("restores")
            .try_run_with_stats(&RunLimits::none())
            .expect("resumed run completes")
            .0;
        assert_eq!(resumed.fingerprint(), baseline.fingerprint());
    }

    #[test]
    fn config_mismatch_is_rt005() {
        let c = cfg(5, 3);
        let (snap, _) = snapshot_at(&c, 5);
        let mut other = c;
        other.seed = other.seed.wrapping_add(1);
        let err = Engine::restore(other, &snap).err().expect("seed differs");
        let SimError::Snapshot(d) = err else {
            panic!("expected snapshot rejection, got {err:?}");
        };
        assert_eq!(d.code, "RT005");
    }

    #[test]
    fn torn_and_corrupt_files_are_rt004() {
        let (snap, _) = snapshot_at(&cfg(4, 3), 6);
        let text = snap.encode();
        // Truncated mid-body: no footer newline survives in the prefix.
        let torn = &text.as_bytes()[..text.len() / 3];
        let err = Snapshot::decode(torn).expect_err("torn file");
        assert_eq!(err.clone().into_diagnostics()[0].code, "RT004");
        // One flipped byte in the body fails the digest.
        let mut flipped = text.clone().into_bytes();
        flipped[10] ^= 0x01;
        let err = Snapshot::decode(&flipped).expect_err("flipped byte");
        assert_eq!(err.into_diagnostics()[0].code, "RT004");
        // Binary garbage is rejected, not a panic.
        let err = Snapshot::decode(&[0xff, 0xfe, b'\n', 0x00]).expect_err("garbage");
        assert_eq!(err.into_diagnostics()[0].code, "RT004");
    }

    #[test]
    fn wrong_version_is_rt003() {
        let (snap, _) = snapshot_at(&cfg(4, 3), 6);
        let text = snap.encode();
        let (body, _) = text.split_once('\n').expect("two lines");
        let tampered_body = body.replacen("\"version\":1", "\"version\":99", 1);
        assert_ne!(body, tampered_body, "version field must be present");
        let tampered = format!(
            "{tampered_body}\n{}\n",
            json::to_string(&Json::obj(vec![(
                "snapshot_digest",
                fnv1a_64(tampered_body.as_bytes()).to_json(),
            )]))
        );
        let err = Snapshot::decode(tampered.as_bytes()).expect_err("future version");
        assert_eq!(err.into_diagnostics()[0].code, "RT003");
    }

    #[test]
    fn config_fingerprint_tracks_config_identity() {
        let a = cfg(5, 3);
        let mut b = a.clone();
        assert_eq!(config_fingerprint(&a), config_fingerprint(&b));
        b.seed ^= 0xdead_beef;
        assert_ne!(config_fingerprint(&a), config_fingerprint(&b));
    }
}
