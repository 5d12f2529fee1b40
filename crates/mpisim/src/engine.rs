//! The discrete-event message-passing engine.
//!
//! Each rank is a small state machine cycling through `Computing →
//! Waiting → Computing → … → Done`:
//!
//! 1. **Computing**: the execution phase. Its length is the execution
//!    model's work time plus any injected one-off delay plus sampled noise.
//!    For the memory-bound model the work time is dynamic: ranks working
//!    concurrently on one socket share its memory bandwidth
//!    (processor-sharing fluid model; rates re-integrate at every
//!    join/leave).
//! 2. **Waiting**: at the end of the execution phase the rank posts all
//!    nonblocking receives and sends for the step (`MPI_Isend`/`MPI_Irecv`)
//!    and enters `MPI_Waitall`. The step completes when every request
//!    completes.
//!
//! ## Protocol semantics
//!
//! * **Eager**: a send completes immediately at post (internal buffering);
//!   the payload arrives at the receiver one transfer time later and the
//!   matching receive completes at `max(arrival, post)`. With a finite
//!   eager-buffer capacity, a send that would overflow the outstanding
//!   unconsumed bytes towards its destination falls back to rendezvous
//!   (paper, footnote 1).
//! * **Rendezvous**: the sender posts an RTS control message. The receiver
//!   answers with a CTS, *but only once none of its posted receives is
//!   still unmatched* — the head-of-line CTS gating rule. On CTS the
//!   payload transfer starts; both requests complete when it ends.
//!
//! The CTS gating rule is the one modelling choice that is not literal MPI
//! standard text, and it is load-bearing: it abstracts the weak-progress /
//! serialized request servicing of real MPI libraries inside a blocked
//! `MPI_Waitall`, and it is what reproduces the **2× idle-wave propagation
//! speed for bidirectional rendezvous communication** that the paper
//! measures on real hardware (Fig. 5 g/h, Fig. 7, Eq. 2's σ = 2). With
//! per-request autonomous progress instead, simulation gives σ = 1 in all
//! modes, contradicting the measurements. See DESIGN.md §5.
//!
//! Everything is deterministic: integer-nanosecond timestamps, FIFO tie
//! breaking, per-rank RNG streams derived from the master seed.
//!
//! ## Hot-path layout (see docs/PERF.md)
//!
//! Per-rank dynamic state lives in [`Ranks`], a structure-of-arrays: the
//! event loop touches one or two fields of many ranks, so parallel `Vec`s
//! keep those accesses dense where an array-of-structs would drag the
//! whole 150-byte record through the cache per touch. Derived lookups that
//! never change during a run — communication partners ([`PartnerCsr`]),
//! per-domain link costs ([`LinkCache`]), per-rank execution times — are
//! precomputed at construction so the per-event work is a handful of array
//! index operations. Everything per-step that needs heap space (request
//! lists, partner scratch, CTS scratch) is reused across steps and, via
//! [`EnginePools`], across whole runs.

// The hash containers below are membership maps that are never iterated,
// so their nondeterministic order cannot leak into traces.
use std::collections::{BTreeSet, HashMap}; // simlint: allow(hash-collections)

use netmodel::{Domain, PointToPoint};
use simdes::{EventQueue, SeedFactory, SimDuration, SimRng, SimTime};
use tracefmt::{PhaseRecord, Trace};
use workload::{CommPattern, ExecModel};

use crate::config::{Mode, NoisePlacement, SimConfig};
use crate::diag;
use crate::error::{RunLimits, SimError};
use crate::faults::{CrashOutcome, Delivery};
use crate::snapshot::{CheckpointPolicy, Snapshot};

mod dispatch;

/// Events of the message-passing simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Ev {
    /// A rank's execution phase ends (work + injected delay + noise done).
    ExecEnd { rank: u32, epoch: u64 },
    /// A memory-bound rank's injected delay ended; it starts contending
    /// for socket bandwidth.
    WorkStart { rank: u32 },
    /// A memory-bound rank's shared-bandwidth work finished.
    WorkEnd { rank: u32, epoch: u64 },
    /// A rendezvous ready-to-send control message reaches the receiver.
    RtsArrive { src: u32, dst: u32, step: u32 },
    /// A clear-to-send control message reaches the data sender.
    CtsArrive {
        sender: u32,
        receiver: u32,
        step: u32,
    },
    /// An eager payload reaches the receiver.
    EagerArrive { src: u32, dst: u32, step: u32 },
    /// A rendezvous payload transfer completes (both endpoints).
    XferDone {
        sender: u32,
        receiver: u32,
        step: u32,
    },
}

/// Lifecycle of one posted request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ReqState {
    /// Rendezvous recv without RTS, eager recv without data, rendezvous
    /// send without CTS: waiting on an external event.
    Unmatched,
    /// Rendezvous recv whose RTS arrived but whose CTS is withheld by the
    /// head-of-line gating rule.
    MatchedNoCts,
    /// A transfer with a known completion time is under way.
    InFlight,
    /// Done.
    Complete,
}

#[derive(Debug, Clone, Copy)]
pub(crate) struct Request {
    pub(crate) peer: u32,
    pub(crate) is_send: bool,
    pub(crate) mode: Mode,
    pub(crate) state: ReqState,
}

/// Number of [`Request`] slots stored inline in [`ReqSlots`]. Next-neighbor
/// patterns post at most two receives and two sends per step, so four slots
/// cover every stencil config without touching the heap.
const REQ_INLINE: usize = 4;

/// A rank's posted requests for the current step. The inline array keeps
/// the whole list (plus its length) on the rank's own cache line — the
/// request-matching scans in the message handlers are the hottest reads in
/// the engine, and a per-rank `Vec` would put them behind a second
/// dependent pointer chase. Wider communication graphs (schedules, dense
/// stencils) spill to a heap vector that keeps its capacity across steps.
#[derive(Debug, Clone)]
pub(crate) struct ReqSlots {
    len: u32,
    inline: [Request; REQ_INLINE],
    spill: Vec<Request>,
}

impl Default for ReqSlots {
    fn default() -> Self {
        const EMPTY: Request = Request {
            peer: 0,
            is_send: false,
            mode: Mode::Eager,
            state: ReqState::Complete,
        };
        ReqSlots {
            len: 0,
            inline: [EMPTY; REQ_INLINE],
            spill: Vec::new(),
        }
    }
}

impl ReqSlots {
    pub(crate) fn from_slice(reqs: &[Request]) -> Self {
        let mut s = ReqSlots::default();
        for &r in reqs {
            s.push(r);
        }
        s
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.len == 0
    }

    pub(crate) fn clear(&mut self) {
        self.len = 0;
        self.spill.clear();
    }

    pub(crate) fn reserve(&mut self, n: usize) {
        if n > REQ_INLINE {
            self.spill.reserve(n.saturating_sub(self.spill.len()));
        }
    }

    /// Heap capacity only; the inline slots are part of the struct.
    fn spill_capacity(&self) -> usize {
        self.spill.capacity()
    }

    pub(crate) fn push(&mut self, r: Request) {
        let n = self.len as usize;
        if n < REQ_INLINE {
            self.inline[n] = r;
        } else {
            if n == REQ_INLINE {
                // First spill: migrate the inline slots so the whole list
                // lives in one place and `as_slice` stays contiguous.
                self.spill.clear();
                self.spill.extend_from_slice(&self.inline);
            }
            self.spill.push(r);
        }
        self.len += 1;
    }

    pub(crate) fn as_slice(&self) -> &[Request] {
        if self.len as usize <= REQ_INLINE {
            &self.inline[..self.len as usize]
        } else {
            &self.spill
        }
    }

    pub(crate) fn as_mut_slice(&mut self) -> &mut [Request] {
        if self.len as usize <= REQ_INLINE {
            &mut self.inline[..self.len as usize]
        } else {
            &mut self.spill
        }
    }

    pub(crate) fn iter(&self) -> std::slice::Iter<'_, Request> {
        self.as_slice().iter()
    }

    pub(crate) fn iter_mut(&mut self) -> std::slice::IterMut<'_, Request> {
        self.as_mut_slice().iter_mut()
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Phase {
    Computing,
    Waiting,
    Done,
    /// Fail-stop crash (see [`crate::faults::RankFaultKind::Crash`]): the
    /// rank never progresses again and its peers starve.
    Crashed,
}

/// One rank's dynamic state as a single record — the snapshot interchange
/// form. The engine itself stores this state as structure-of-arrays
/// ([`Ranks`]); `RankState` survives as the unit the checkpoint format
/// serializes, keeping the on-disk schema independent of the in-memory
/// layout.
#[derive(Debug, Clone)]
pub(crate) struct RankState {
    pub(crate) phase: Phase,
    pub(crate) step: u32,
    pub(crate) reqs: Vec<Request>,
    pub(crate) exec_start: SimTime,
    pub(crate) exec_end: SimTime,
    pub(crate) injected: SimDuration,
    pub(crate) noise_amt: SimDuration,
    pub(crate) epoch: u64,
    /// Memory-bound: bytes of phase traffic still to move.
    pub(crate) remaining_bytes: f64,
    /// Memory-bound: last time `remaining_bytes` was integrated.
    pub(crate) last_update: SimTime,
    pub(crate) rng: SimRng,
    pub(crate) comm_rng: SimRng,
}

/// Per-rank dynamic state, structure-of-arrays. Index `r` across every
/// vector is rank `r`'s state; [`Ranks::state_of`]/[`Ranks::from_states`]
/// convert to and from the [`RankState`] snapshot interchange form.
#[derive(Debug)]
pub(crate) struct Ranks {
    pub(crate) phase: Vec<Phase>,
    pub(crate) step: Vec<u32>,
    pub(crate) reqs: Vec<ReqSlots>,
    pub(crate) exec_start: Vec<SimTime>,
    pub(crate) exec_end: Vec<SimTime>,
    pub(crate) injected: Vec<SimDuration>,
    pub(crate) noise_amt: Vec<SimDuration>,
    pub(crate) epoch: Vec<u64>,
    pub(crate) remaining_bytes: Vec<f64>,
    pub(crate) last_update: Vec<SimTime>,
    pub(crate) rng: Vec<SimRng>,
    pub(crate) comm_rng: Vec<SimRng>,
}

impl Ranks {
    fn new(nranks: u32, seeds: &SeedFactory, reqs: Vec<ReqSlots>) -> Self {
        let n = nranks as usize;
        let mut reqs = reqs;
        reqs.iter_mut().for_each(ReqSlots::clear);
        reqs.resize_with(n, ReqSlots::default);
        reqs.truncate(n);
        Ranks {
            phase: vec![Phase::Computing; n],
            step: vec![0; n],
            reqs,
            exec_start: vec![SimTime::ZERO; n],
            exec_end: vec![SimTime::ZERO; n],
            injected: vec![SimDuration::ZERO; n],
            noise_amt: vec![SimDuration::ZERO; n],
            epoch: vec![0; n],
            remaining_bytes: vec![0.0; n],
            last_update: vec![SimTime::ZERO; n],
            rng: (0..nranks)
                .map(|r| seeds.stream("exec-noise", u64::from(r)))
                .collect(),
            comm_rng: (0..nranks)
                .map(|r| seeds.stream("comm-noise", u64::from(r)))
                .collect(),
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.phase.len()
    }

    /// Rank `r`'s state gathered into the snapshot interchange record.
    pub(crate) fn state_of(&self, r: usize) -> RankState {
        RankState {
            phase: self.phase[r],
            step: self.step[r],
            reqs: self.reqs[r].as_slice().to_vec(),
            exec_start: self.exec_start[r],
            exec_end: self.exec_end[r],
            injected: self.injected[r],
            noise_amt: self.noise_amt[r],
            epoch: self.epoch[r],
            remaining_bytes: self.remaining_bytes[r],
            last_update: self.last_update[r],
            rng: self.rng[r].clone(),
            comm_rng: self.comm_rng[r].clone(),
        }
    }

    /// Scatter snapshot records back into the SoA layout.
    pub(crate) fn from_states(states: &[RankState]) -> Self {
        Ranks {
            phase: states.iter().map(|s| s.phase).collect(),
            step: states.iter().map(|s| s.step).collect(),
            reqs: states
                .iter()
                .map(|s| ReqSlots::from_slice(&s.reqs))
                .collect(),
            exec_start: states.iter().map(|s| s.exec_start).collect(),
            exec_end: states.iter().map(|s| s.exec_end).collect(),
            injected: states.iter().map(|s| s.injected).collect(),
            noise_amt: states.iter().map(|s| s.noise_amt).collect(),
            epoch: states.iter().map(|s| s.epoch).collect(),
            remaining_bytes: states.iter().map(|s| s.remaining_bytes).collect(),
            last_update: states.iter().map(|s| s.last_update).collect(),
            rng: states.iter().map(|s| s.rng.clone()).collect(),
            comm_rng: states.iter().map(|s| s.comm_rng.clone()).collect(),
        }
    }
}

/// Early-arrival set (RTS or eager payloads that beat the matching recv
/// post), stored per destination rank. The per-`dst` lists are almost
/// always empty and never hold more than a rank's in-degree, so a linear
/// scan beats hashing the `(src, dst, step)` triple — membership updates
/// sit on the per-message hot path.
#[derive(Debug)]
pub(crate) struct EarlySet {
    per_dst: Vec<Vec<(u32, u32)>>,
}

impl EarlySet {
    fn new(nranks: usize) -> Self {
        EarlySet {
            per_dst: vec![Vec::new(); nranks],
        }
    }

    fn insert(&mut self, src: u32, dst: u32, step: u32) {
        let v = &mut self.per_dst[dst as usize];
        // Set semantics: a duplicate arrival is recorded once.
        if !v.contains(&(src, step)) {
            v.push((src, step));
        }
    }

    fn remove(&mut self, src: u32, dst: u32, step: u32) -> bool {
        let v = &mut self.per_dst[dst as usize];
        match v.iter().position(|&e| e == (src, step)) {
            Some(i) => {
                v.swap_remove(i);
                true
            }
            None => false,
        }
    }

    /// All entries as `(src, dst, step)` triples in canonical sorted
    /// order — the form the snapshot schema stores.
    pub(crate) fn entries_sorted(&self) -> Vec<(u32, u32, u32)> {
        let mut out: Vec<(u32, u32, u32)> = self
            .per_dst
            .iter()
            .enumerate()
            .flat_map(|(dst, v)| v.iter().map(move |&(src, step)| (src, dst as u32, step)))
            .collect();
        out.sort_unstable();
        out
    }

    pub(crate) fn from_entries(nranks: usize, entries: &[(u32, u32, u32)]) -> Self {
        let mut set = EarlySet::new(nranks);
        for &(src, dst, step) in entries {
            set.insert(src, dst, step);
        }
        set
    }
}

/// Per-rank communication partners in compressed sparse row form, built
/// once at construction for pattern-driven runs (a [`CommPattern`]'s
/// partner queries allocate a fresh `Vec` per call — off the hot path).
/// Schedule-driven runs read the schedule's own per-step graphs instead.
#[derive(Debug)]
struct PartnerCsr {
    recv_off: Vec<u32>,
    recv: Vec<u32>,
    send_off: Vec<u32>,
    send: Vec<u32>,
}

impl PartnerCsr {
    fn build(pattern: &CommPattern, nranks: u32) -> Self {
        let mut recv_off = Vec::with_capacity(nranks as usize + 1);
        let mut send_off = Vec::with_capacity(nranks as usize + 1);
        let mut recv = Vec::new();
        let mut send = Vec::new();
        recv_off.push(0);
        send_off.push(0);
        for r in 0..nranks {
            recv.extend(pattern.recv_partners(r, nranks));
            send.extend(pattern.send_partners(r, nranks));
            recv_off.push(recv.len() as u32);
            send_off.push(send.len() as u32);
        }
        PartnerCsr {
            recv_off,
            recv,
            send_off,
            send,
        }
    }

    #[inline]
    fn recv_of(&self, r: u32) -> &[u32] {
        &self.recv[self.recv_off[r as usize] as usize..self.recv_off[r as usize + 1] as usize]
    }

    #[inline]
    fn send_of(&self, r: u32) -> &[u32] {
        &self.send[self.send_off[r as usize] as usize..self.send_off[r as usize + 1] as usize]
    }
}

/// Whether `cfg` can take the engine's fused fast path (`run_fused`).
///
/// The fused path replaces the event chain of every (rank, step) cell —
/// compute → post → match → complete — with a step-major sweep of the
/// eager max-plus recurrence: per step, one pass computes every rank's
/// execution end and a second takes each rank's Waitall end as the max
/// over its senders' arrivals. That is only sound when every decision
/// along the chain is statically determined:
///
/// * static partner lists (a `schedule` interposes a per-step graph),
/// * a `Compute` execution model (memory-bound work times depend on who
///   else occupies the socket at the time),
/// * pure eager protocol with an unbounded buffer (rendezvous and the
///   finite-buffer fallback gate progress on the receiver),
/// * unserialized sends (the NIC port serializes across steps),
/// * noise on the execution phase only (comm noise draws from one stream
///   per transfer in event order, which a per-rank sweep does not
///   reproduce),
/// * and no fault plan of any kind (faults reroute steps dynamically).
///
/// Eligibility is necessary but not sufficient: the engine additionally
/// requires the pattern's send/recv lists to be duals of each other
/// ([`FusedPlan::build`]), and budgeted, checkpointed, and restored runs
/// always take the general event loop regardless — see `run_loop`.
pub fn fused_path_eligible(cfg: &SimConfig) -> bool {
    cfg.schedule.is_none()
        && matches!(cfg.exec, ExecModel::Compute { .. })
        && cfg.protocol.mode_for(cfg.msg_bytes) == Mode::Eager
        && cfg.eager_buffer_bytes.is_none()
        && !cfg.serialize_sends
        && matches!(cfg.noise_placement, NoisePlacement::ExecOnly)
        && cfg.faults.is_empty()
}

/// Precomputed plan for the fused fast path: the static payload transfer
/// cost of every recv slot of the [`PartnerCsr`], so a step's Waitall end
/// is one max over `exec_end(src) + recv_cost` per slot. Built once at
/// construction iff the config is [`fused_path_eligible`] and the
/// pattern's send/recv lists are duals.
struct FusedPlan {
    /// Static payload transfer duration per `PartnerCsr::recv` slot.
    recv_cost: Vec<SimDuration>,
}

impl FusedPlan {
    /// Returns `None` unless every send slot feeds a distinct recv slot
    /// and every recv slot is fed (a send/recv duality without
    /// self-messages). The sweep reads each rank's senders off its recv
    /// list, which only matches the messages the event path delivers
    /// under that bijection, so other patterns take the general loop.
    fn build(
        csr: &PartnerCsr,
        nranks: u32,
        links: &LinkCache,
        rank_node: &[u32],
        rank_socket: &[u32],
    ) -> Option<FusedPlan> {
        let mut claimed = vec![false; csr.recv.len()];
        for src in 0..nranks {
            for &dst in csr.send_of(src) {
                if src == dst {
                    return None;
                }
                let base = csr.recv_off[dst as usize] as usize;
                // Duplicate same-peer recvs each claim their own slot.
                let slot = csr
                    .recv_of(dst)
                    .iter()
                    .enumerate()
                    .position(|(i, &peer)| peer == src && !claimed[base + i])?;
                claimed[base + slot] = true;
            }
        }
        if !claimed.iter().all(|&c| c) {
            return None;
        }
        // Same domain classification as `Engine::domain_idx`, which does
        // not exist yet while the plan is being built.
        let dom = |a: usize, b: usize| {
            if rank_node[a] != rank_node[b] {
                2
            } else if rank_socket[a] != rank_socket[b] {
                1
            } else {
                0
            }
        };
        let recv_cost = (0..nranks as usize)
            .flat_map(|dst| {
                csr.recv_of(dst as u32)
                    .iter()
                    .map(move |&src| links.xfer[dom(src as usize, dst)])
            })
            .collect();
        Some(FusedPlan { recv_cost })
    }
}

/// Per-domain link costs, precomputed when no degradation windows exist:
/// with a static topology every transfer cost depends only on which of
/// the three domains (socket / node / network) the pair spans, so the
/// LogGOPS/Hockney arithmetic runs three times at construction instead of
/// once per message.
#[derive(Debug, Clone, Copy)]
struct LinkCache {
    xfer: [SimDuration; 3],
    ctrl: [SimDuration; 3],
    gap: [SimDuration; 3],
}

const DOMAIN_ORDER: [Domain; 3] = [Domain::Socket, Domain::Node, Domain::Network];

/// Trace retention policy of a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum TraceMode {
    /// Retain every [`PhaseRecord`] and build a full [`Trace`] — required
    /// for checkpointing and all figure analyses.
    Full,
    /// Stream records into a [`RunSummary`] (count, order-insensitive
    /// digest, per-rank finish times) without retaining them — O(ranks)
    /// memory instead of O(ranks × steps), for throughput benchmarking
    /// and bulk sweeps that only need aggregate results.
    Summary,
}

/// Aggregate result of a summary-mode run ([`try_run_summary_pooled`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunSummary {
    /// Ranks in the run.
    pub ranks: u32,
    /// Steps in the run.
    pub steps: u32,
    /// Phase records streamed through (always `ranks × steps` for a
    /// completed run).
    pub records: u64,
    /// Order-insensitive digest: the wrapping sum of every record's
    /// [`PhaseRecord::digest`]. Equal to the same fold over a full run's
    /// trace iff the two runs produced bit-identical records.
    pub digest: u64,
    /// Per-rank time of the final step's communication-phase end.
    pub finish: Vec<SimTime>,
}

impl RunSummary {
    /// Wall-clock time at which the whole run finished (slowest rank).
    pub fn total_runtime(&self) -> SimTime {
        self.finish.iter().copied().max().unwrap_or(SimTime::ZERO)
    }

    /// The summary a [`try_run_summary_pooled`] run of the same scenario
    /// would produce, folded from a full trace. The bridge the tests use
    /// to prove summary mode loses nothing but the per-record detail.
    pub fn of_trace(t: &Trace) -> RunSummary {
        let mut digest = 0u64;
        for r in t.iter() {
            digest = digest.wrapping_add(r.digest());
        }
        RunSummary {
            ranks: t.ranks(),
            steps: t.steps(),
            records: u64::from(t.ranks()) * u64::from(t.steps()),
            digest,
            finish: (0..t.ranks()).map(|r| t.finish_time(r)).collect(),
        }
    }
}

/// Resource statistics of a completed simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RunStats {
    /// Events delivered by the queue.
    pub events: u64,
    /// Largest number of simultaneously pending events.
    pub peak_queue: usize,
    /// Messages transferred (eager payloads + rendezvous transfers).
    pub messages: u64,
    /// Sends that fell back from eager to rendezvous (finite buffers).
    pub eager_fallbacks: u64,
    /// Extra copies sent after a drop or corruption (fault injection).
    pub retransmissions: u64,
    /// Transfer copies dropped in flight (fault injection).
    pub dropped_transfers: u64,
    /// Transfer copies delivered corrupt and rejected (fault injection).
    pub corrupted_transfers: u64,
    /// Transfers abandoned after the retry budget (fault injection); a
    /// nonzero count means the run stalled.
    pub lost_transfers: u64,
}

/// Reusable allocations for engines run back to back — the event queue,
/// record buffer, per-rank request lists, and scratch vectors survive
/// across runs, so a pooled engine of the same shape stops allocating
/// after its first run. Build one with [`EnginePools::new`], hand it to
/// [`Engine::try_new_pooled`] (or the `*_pooled` run helpers), and give
/// the buffers back with [`Engine::recycle`].
#[derive(Debug)]
pub struct EnginePools {
    q: EventQueue<Ev>,
    records: Vec<PhaseRecord>,
    reqs: Vec<ReqSlots>,
    scratch_recv: Vec<u32>,
    scratch_send: Vec<u32>,
    scratch_cts: Vec<u32>,
    /// Highest total capacity (entries across all pooled buffers) ever
    /// returned by a recycle.
    watermark: usize,
    grows: u64,
    runs: u64,
}

/// Predicted buffer shape for one scenario, the contract between a static
/// analyzer and [`EnginePools::with_budget`]. Plain data on purpose: the
/// prediction math lives outside this crate (`simcheck::budget` derives a
/// `PoolBudget` from a `SimConfig`), and the engine only consumes the
/// numbers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolBudget {
    /// Ranks in the scenario (sizes request lists and scratch vectors).
    pub ranks: u32,
    /// Bulk-synchronous steps (with `ranks`, sizes the trace buffer).
    pub steps: u32,
    /// Predicted peak event-queue occupancy.
    pub peak_queue: usize,
    /// Worst-case posted requests on any one rank in any one step.
    pub requests_per_rank: usize,
    /// Phase records a full-trace run retains (`ranks * steps`); zero for
    /// summary-only pools.
    pub trace_records: usize,
}

impl PoolBudget {
    /// Estimated peak resident bytes of a pool sized to this budget. An
    /// estimate, not an accounting identity: the calendar queue's year
    /// buckets and allocator rounding add real but bounded overhead on
    /// top of it.
    pub fn bytes(&self) -> u64 {
        let n = self.ranks as usize;
        let entry = std::mem::size_of::<(SimTime, u64, Ev)>();
        let spill =
            self.requests_per_rank.saturating_sub(REQ_INLINE) * std::mem::size_of::<Request>() * n;
        let fixed = n * (std::mem::size_of::<ReqSlots>() + 3 * std::mem::size_of::<u32>());
        (self.peak_queue * entry
            + self.trace_records * std::mem::size_of::<PhaseRecord>()
            + spill
            + fixed) as u64
    }
}

impl EnginePools {
    /// Empty pools; the first run's allocations become the baseline.
    pub fn new() -> Self {
        EnginePools {
            q: EventQueue::new(),
            records: Vec::new(),
            reqs: Vec::new(),
            scratch_recv: Vec::new(),
            scratch_send: Vec::new(),
            scratch_cts: Vec::new(),
            watermark: 0,
            grows: 0,
            runs: 0,
        }
    }

    /// Pools pre-sized from a static [`PoolBudget`], so the first run
    /// already finds every buffer at capacity and the grow counter stays
    /// at zero from run 1 — no warmup runs. Unlike [`EnginePools::new`],
    /// the budget (not the first run) sets the capacity watermark, so an
    /// under-predicted budget shows up as `grows() > 0` immediately.
    pub fn with_budget(budget: &PoolBudget) -> Self {
        let n = budget.ranks as usize;
        let mut reqs: Vec<ReqSlots> = Vec::with_capacity(n);
        reqs.resize_with(n, ReqSlots::default);
        for r in &mut reqs {
            r.reserve(budget.requests_per_rank);
        }
        let mut pools = EnginePools {
            q: EventQueue::with_capacity(budget.peak_queue),
            records: Vec::with_capacity(budget.trace_records),
            reqs,
            scratch_recv: Vec::with_capacity(n),
            scratch_send: Vec::with_capacity(n),
            scratch_cts: Vec::with_capacity(n),
            watermark: 0,
            grows: 0,
            runs: 0,
        };
        // The calendar queue spreads pending events over year buckets and
        // swaps bucket allocations into the run segment during pops, so a
        // settled queue carries more total segment capacity than its peak
        // occupancy. Grant that headroom up front; the watermark is the
        // budget's promise, and `recycle` charges a grow the moment a run
        // exceeds it.
        let bucket_slack = 4 * budget.peak_queue + 16 * 1024;
        pools.watermark = pools.capacity() + bucket_slack;
        pools
    }

    /// Number of recycles in which some pooled buffer had grown past the
    /// previous capacity watermark. After the first run of a given
    /// scenario shape, this must stay constant — the allocation-stability
    /// contract the pooling tests assert.
    pub fn grows(&self) -> u64 {
        self.grows
    }

    /// Number of runs recycled into this pool.
    pub fn runs(&self) -> u64 {
        self.runs
    }

    /// Total pooled capacity, in buffer entries.
    fn capacity(&self) -> usize {
        self.q.capacity()
            + self.records.capacity()
            + self.reqs.capacity()
            + self
                .reqs
                .iter()
                .map(ReqSlots::spill_capacity)
                .sum::<usize>()
            + self.scratch_recv.capacity()
            + self.scratch_send.capacity()
            + self.scratch_cts.capacity()
    }
}

impl Default for EnginePools {
    fn default() -> Self {
        EnginePools::new()
    }
}

/// The simulation engine. Build with [`Engine::try_new`] (or
/// [`Engine::new`], [`Engine::try_new_pooled`], [`Engine::restore`]) and
/// run with [`Engine::try_run_with_stats`] or, with periodic snapshots,
/// [`Engine::try_run_checkpointed`]. The pooled helpers
/// [`try_run_checkpointed_pooled`] and [`try_run_summary_pooled`] build,
/// run, and [`recycle`](Engine::recycle) in one call; [`crate::run`] is
/// the panicking convenience.
pub struct Engine {
    pub(crate) cfg: SimConfig,
    pub(crate) q: EventQueue<Ev>,
    pub(crate) ranks: Ranks,
    /// RTS that arrived before the matching recv was posted.
    pub(crate) early_rts: EarlySet,
    /// Eager payloads that arrived before the matching recv was posted.
    pub(crate) early_eager: EarlySet,
    /// Unconsumed eager bytes per (src, dst), for the finite-buffer
    /// fallback. Only maintained when a buffer capacity is configured
    /// (`track_eager`); keyed lookup only, never iterated.
    pub(crate) outstanding_eager: HashMap<(u32, u32), u64>, // simlint: allow(hash-collections)
    /// Ranks currently in the shared-bandwidth work segment, per socket.
    pub(crate) socket_members: Vec<BTreeSet<u32>>,
    pub(crate) records: Vec<PhaseRecord>,
    pub(crate) done_count: u32,
    pub(crate) base_mode: Mode,
    /// Per-rank time at which the rank's injection port is free again
    /// (only consulted when `cfg.serialize_sends` is on).
    pub(crate) nic_free: Vec<SimTime>,
    pub(crate) stats: RunStats,
    /// Stream factory, kept for lazily created fault streams.
    pub(crate) seeds: SeedFactory,
    /// One RNG stream per directed link that has carried a faulted
    /// transfer; keyed lookup only, never iterated.
    pub(crate) fault_rngs: HashMap<(u32, u32), SimRng>, // simlint: allow(hash-collections)
    /// Ranks taken down by a fail-stop crash.
    pub(crate) crashed: Vec<u32>,
    /// Human-readable log of transfers lost after the retry budget.
    pub(crate) lost: Vec<String>,
    /// Whether the initial `start_exec` round has run. A fresh engine has
    /// not started; a restored one resumes mid-run and must not re-seed
    /// the queue with step-0 executions.
    pub(crate) started: bool,
    // ---- derived caches, rebuilt from `cfg` and never snapshotted ----
    pub(crate) mode: TraceMode,
    /// Maintain `outstanding_eager`? Only when a finite eager buffer can
    /// actually force a fallback.
    track_eager: bool,
    /// Any stalls/crashes in the fault plan at all?
    has_rank_faults: bool,
    /// Per rank: does the injection plan target it anywhere?
    has_inj: Vec<bool>,
    /// Compute model: per-rank work time with imbalance applied.
    base_exec: Vec<SimDuration>,
    /// Memory-bound model: per-rank phase bytes with imbalance applied.
    base_bytes: Vec<f64>,
    rank_node: Vec<u32>,
    rank_socket: Vec<u32>,
    link_cache: Option<LinkCache>,
    csr: Option<PartnerCsr>,
    // Request-progress counters, always derivable from `ranks.reqs` (and
    // recomputed from them on restore). They make the per-event `service`
    // check three integer compares instead of two request scans:
    /// Per rank: posted receives still in [`ReqState::Unmatched`] — the
    /// head-of-line CTS gate is `unmatched_recvs == 0`.
    unmatched_recvs: Vec<u32>,
    /// Per rank: receives in [`ReqState::MatchedNoCts`] awaiting a CTS
    /// grant; the grant scan only runs when this is nonzero.
    gated_cts: Vec<u32>,
    /// Per rank: requests not yet [`ReqState::Complete`] — the step
    /// finishes when this hits zero.
    incomplete: Vec<u32>,
    scratch_recv: Vec<u32>,
    scratch_send: Vec<u32>,
    scratch_cts: Vec<u32>,
    summary_records: u64,
    summary_digest: u64,
    finish: Vec<SimTime>,
    /// Calendar events the fused fast path advanced past without
    /// delivering. `RunStats::events` reports `q.delivered() + elided` so
    /// the event count stays a property of the scenario, not of the path
    /// that ran it (the budget analyzer's predictions pin this).
    elided: u64,
    /// Fused fast-path plan; `Some` iff the config is
    /// [`fused_path_eligible`] and the pattern passed the duality check.
    /// Never snapshotted: restored engines resume on the general path.
    fused: Option<FusedPlan>,
    /// Scratch for batching a handler's event emissions into one
    /// [`EventQueue::push_batch`] splice; always drained after use.
    batch: Vec<(SimTime, Ev)>,
}

/// `cfg` itself when [`SimConfig::check`] finds no error-level problem,
/// otherwise [`SimError::InvalidConfig`] with the rejecting diagnostics —
/// the validation every engine constructor runs first.
pub(crate) fn validated(cfg: SimConfig) -> Result<SimConfig, SimError> {
    let diags = cfg.check();
    if diag::has_errors(&diags) {
        let errors = diags.into_iter().filter(|d| d.is_error()).collect();
        return Err(SimError::InvalidConfig(errors));
    }
    Ok(cfg)
}

impl Engine {
    /// Set up a simulation for `cfg` (validates the config).
    ///
    /// # Panics
    /// Panics with the rendered diagnostic report when
    /// [`SimConfig::validate`] finds error-level problems. Library code
    /// should prefer [`Engine::try_new`].
    pub fn new(cfg: SimConfig) -> Self {
        Engine::try_new(cfg).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible [`Engine::new`]: returns [`SimError::InvalidConfig`] with
    /// the rejecting diagnostics instead of panicking.
    pub fn try_new(cfg: SimConfig) -> Result<Self, SimError> {
        Ok(Engine::scaffold(validated(cfg)?, None))
    }

    /// [`Engine::try_new`] drawing its large allocations from `pools`
    /// instead of the allocator. [`Engine::recycle`] (or the `*_pooled`
    /// run helpers, which call it) gives them back afterwards.
    pub fn try_new_pooled(cfg: SimConfig, pools: &mut EnginePools) -> Result<Self, SimError> {
        Ok(Engine::scaffold(validated(cfg)?, Some(pools)))
    }

    /// Build an engine in the fresh (pre-run) state with every derived
    /// cache computed from a validated `cfg`. `restore` overwrites the
    /// dynamic state afterwards; `try_new` uses it as-is.
    pub(crate) fn scaffold(cfg: SimConfig, pools: Option<&mut EnginePools>) -> Self {
        let seeds = SeedFactory::new(cfg.seed);
        let nranks = cfg.ranks();
        let n = nranks as usize;
        // Take reusable buffers out of the pool (fresh Vecs otherwise).
        let (mut q, records, reqs, scratch_recv, scratch_send, scratch_cts) = match pools {
            Some(p) => (
                std::mem::take(&mut p.q),
                std::mem::take(&mut p.records),
                std::mem::take(&mut p.reqs),
                std::mem::take(&mut p.scratch_recv),
                std::mem::take(&mut p.scratch_send),
                std::mem::take(&mut p.scratch_cts),
            ),
            None => (
                EventQueue::with_capacity(4 * n),
                Vec::new(),
                Vec::new(),
                Vec::new(),
                Vec::new(),
                Vec::new(),
            ),
        };
        q.reset();
        let ranks = Ranks::new(nranks, &seeds, reqs);
        let sockets = cfg.network.machine.total_sockets() as usize;
        let base_mode = cfg.protocol.mode_for(cfg.msg_bytes);
        let mut has_inj = vec![false; n];
        for inj in cfg.injections.injections() {
            if let Some(f) = has_inj.get_mut(inj.rank as usize) {
                *f = true;
            }
        }
        let (base_exec, base_bytes) = {
            let factor = |r: usize| cfg.imbalance.get(r).copied().unwrap_or(1.0);
            match cfg.exec {
                ExecModel::Compute { duration } => (
                    (0..n).map(|r| duration.mul_f64(factor(r))).collect(),
                    Vec::new(),
                ),
                ExecModel::MemoryBound { bytes, .. } => (
                    Vec::new(),
                    (0..n).map(|r| bytes as f64 * factor(r)).collect(),
                ),
            }
        };
        let rank_node: Vec<u32> = (0..nranks).map(|r| cfg.network.locate(r).node).collect();
        let rank_socket: Vec<u32> = (0..nranks).map(|r| cfg.network.socket_of(r)).collect();
        let link_cache = if cfg.faults.degradations.is_empty() {
            let model = |d: Domain| -> PointToPoint { cfg.network.models.for_domain(d) };
            Some(LinkCache {
                xfer: DOMAIN_ORDER.map(|d| model(d).transfer_time(cfg.msg_bytes)),
                ctrl: DOMAIN_ORDER.map(|d| model(d).ctrl_latency()),
                gap: DOMAIN_ORDER.map(|d| model(d).injection_gap()),
            })
        } else {
            None
        };
        let csr = if cfg.schedule.is_none() {
            Some(PartnerCsr::build(&cfg.pattern, nranks))
        } else {
            None
        };
        let track_eager = cfg.eager_buffer_bytes.is_some();
        let has_rank_faults = !cfg.faults.rank_faults.is_empty();
        let fused = match (&csr, &link_cache) {
            (Some(csr), Some(links)) if fused_path_eligible(&cfg) => {
                FusedPlan::build(csr, nranks, links, &rank_node, &rank_socket)
            }
            _ => None,
        };
        Engine {
            cfg,
            q,
            ranks,
            early_rts: EarlySet::new(n),
            early_eager: EarlySet::new(n),
            outstanding_eager: HashMap::new(), // simlint: allow(hash-collections)
            socket_members: vec![BTreeSet::new(); sockets],
            records,
            done_count: 0,
            base_mode,
            nic_free: vec![SimTime::ZERO; n],
            stats: RunStats::default(),
            seeds,
            fault_rngs: HashMap::new(), // simlint: allow(hash-collections)
            crashed: Vec::new(),
            lost: Vec::new(),
            started: false,
            mode: TraceMode::Full,
            track_eager,
            has_rank_faults,
            has_inj,
            base_exec,
            base_bytes,
            rank_node,
            rank_socket,
            link_cache,
            csr,
            unmatched_recvs: vec![0; n],
            gated_cts: vec![0; n],
            incomplete: vec![0; n],
            scratch_recv,
            scratch_send,
            scratch_cts,
            summary_records: 0,
            summary_digest: 0,
            finish: vec![SimTime::ZERO; n],
            elided: 0,
            fused,
            batch: Vec::new(),
        }
    }

    /// Return every pooled buffer to `pools` for the next run, updating
    /// the capacity watermark and grow counter.
    pub fn recycle(mut self, pools: &mut EnginePools) {
        self.q.reset();
        self.records.clear();
        let mut reqs = self.ranks.reqs;
        reqs.iter_mut().for_each(ReqSlots::clear);
        self.scratch_recv.clear();
        self.scratch_send.clear();
        self.scratch_cts.clear();
        pools.q = self.q;
        pools.records = self.records;
        pools.reqs = reqs;
        pools.scratch_recv = self.scratch_recv;
        pools.scratch_send = self.scratch_send;
        pools.scratch_cts = self.scratch_cts;
        let cap = pools.capacity();
        // A fresh pool's first run sets the baseline; a budgeted pool
        // (nonzero watermark before any run) is held to its budget from
        // run 1.
        if (pools.runs > 0 || pools.watermark > 0) && cap > pools.watermark {
            pools.grows += 1;
        }
        pools.watermark = pools.watermark.max(cap);
        pools.runs += 1;
    }

    /// Run to completion under optional [`RunLimits`] budgets, returning
    /// the trace together with resource statistics of the simulation
    /// itself. On success the trace covers every `(rank, step)` cell; on
    /// failure the error describes which scenario pathology ended the run:
    /// deadlock and starvation become [`SimError::Stalled`], a tripped
    /// budget becomes [`SimError::Watchdog`].
    pub fn try_run_with_stats(self, limits: &RunLimits) -> Result<(Trace, RunStats), SimError> {
        self.try_run_checkpointed(limits, &CheckpointPolicy::none(), |_| {})
    }

    fn take_summary(&mut self) -> (RunSummary, RunStats) {
        (
            RunSummary {
                ranks: self.cfg.ranks(),
                steps: self.cfg.steps,
                records: self.summary_records,
                digest: self.summary_digest,
                finish: std::mem::take(&mut self.finish),
            },
            self.stats,
        )
    }

    /// [`Engine::try_run_with_stats`] with periodic checkpointing: whenever
    /// the `policy` cadence comes due, a [`Snapshot`] of the paused engine
    /// is captured and handed to `sink`. Snapshots are cut between event
    /// deliveries, so resuming one replays the remaining schedule exactly —
    /// the restored run's trace fingerprint is bit-identical to this run's.
    ///
    /// `sink` is infallible by design: checkpointing is best-effort and a
    /// failed write must never abort a healthy simulation. Callers that do
    /// I/O (the sweep runner) handle and log their own errors.
    pub fn try_run_checkpointed<F>(
        mut self,
        limits: &RunLimits,
        policy: &CheckpointPolicy,
        mut sink: F,
    ) -> Result<(Trace, RunStats), SimError>
    where
        F: FnMut(&Snapshot),
    {
        self.run_loop(limits, policy, &mut sink)?;
        let trace = Trace::from_records(
            self.cfg.ranks(),
            self.cfg.steps,
            std::mem::take(&mut self.records),
        );
        Ok((trace, self.stats))
    }

    /// The event loop proper: drain the queue, dispatching every event,
    /// until the run completes, a budget trips, or the queue starves.
    fn run_loop<F>(
        &mut self,
        limits: &RunLimits,
        policy: &CheckpointPolicy,
        sink: &mut F,
    ) -> Result<(), SimError>
    where
        F: FnMut(&Snapshot),
    {
        let nranks = self.cfg.ranks();
        if self.mode == TraceMode::Full {
            // Reserve the full record budget up front (outside the timed
            // construction path, retained across pooled reuse).
            let want = nranks as usize * self.cfg.steps as usize;
            self.records
                .reserve(want.saturating_sub(self.records.len()));
        }
        let plain =
            limits.max_sim_time.is_none() && limits.max_events.is_none() && !policy.is_active();
        if !self.started {
            self.started = true;
            if plain && self.fused.is_some() {
                // Fused fast path: eligible config, fresh engine, and no
                // budget or checkpoint cadence to observe — advance whole
                // steps without the calendar. Budgeted, checkpointed, and
                // restored runs (`started` already set) always replay
                // through the general event loop, which is what makes
                // resuming a snapshot bit-identical regardless of which
                // path produced it.
                self.run_fused();
            } else {
                for r in 0..nranks {
                    self.start_exec(r, SimTime::ZERO);
                }
            }
        }
        if plain {
            // Budget- and checkpoint-free fast path: nothing between pop
            // and dispatch but the peak-queue statistic, with the
            // handlers monomorphized for the run's protocol and trace
            // mode. A no-op after `run_fused` (the queue stays empty).
            dispatch::pump_plain(self);
        } else {
            // Checkpoint cadence is measured from where *this* run
            // started, so a restored engine checkpoints relative to its
            // resume point. The counters are deliberately not part of the
            // snapshot: checkpoint timing never feeds back into
            // simulation state.
            let mut last_ckpt_events = self.q.delivered();
            let mut next_ckpt_time = policy.every_sim_time.map(|dt| self.q.now() + dt);
            while let Some((now, ev)) = self.q.pop() {
                self.stats.peak_queue = self.stats.peak_queue.max(self.q.len() + 1);
                if let Some(budget) = limits.max_sim_time {
                    if now > budget {
                        return Err(SimError::Watchdog {
                            at: now,
                            events: self.q.delivered(),
                            why: format!("sim time budget t = {budget} exceeded"),
                        });
                    }
                }
                if let Some(max_events) = limits.max_events {
                    if self.q.delivered() > max_events {
                        return Err(SimError::Watchdog {
                            at: now,
                            events: self.q.delivered(),
                            why: format!("event budget {max_events} exceeded"),
                        });
                    }
                }
                self.dispatch(now, ev);
                let events_due = policy
                    .every_events
                    .is_some_and(|n| self.q.delivered() - last_ckpt_events >= n);
                let time_due = next_ckpt_time.is_some_and(|t| now >= t);
                if events_due || time_due {
                    last_ckpt_events = self.q.delivered();
                    if let (Some(dt), Some(t)) = (policy.every_sim_time, next_ckpt_time) {
                        let mut next = t;
                        while now >= next {
                            next = next + dt;
                        }
                        next_ckpt_time = Some(next);
                    }
                    sink(&self.checkpoint());
                }
            }
        }
        self.stats.events = self.q.delivered() + self.elided;
        if self.done_count != nranks {
            return Err(SimError::Stalled {
                done: self.done_count,
                ranks: nranks,
                report: self.deadlock_report(),
            });
        }
        Ok(())
    }

    /// Drive a fusion-eligible run to completion without the calendar.
    ///
    /// [`fused_path_eligible`] pins every decision the event loop would
    /// otherwise make dynamically: every execution phase is `Compute`,
    /// every send is eager and completes at post, every transfer cost is
    /// the static per-domain link cost, and no fault can reroute a step.
    /// Under those rules the run is the eager max-plus recurrence of
    /// [`crate::reference`], which this evaluates step-major with two
    /// dense passes over the ranks per step:
    ///
    /// 1. `exec_end(r) = start(r) + injected(r, k) + base_exec(r) +
    ///    noise(r)`, each rank drawing from its own noise stream, so the
    ///    draws happen in step order exactly as on the event path;
    /// 2. `comm_end(r) = max(exec_end(r), exec_end(src) + recv_cost)` over
    ///    `r`'s recv slots, folding the phase record (or summary digest)
    ///    and starting the next step at `comm_end(r)`.
    ///
    /// The event path's FIFO (time, seq) tie-break resolves same-time
    /// arrivals to the same `max()`, so the sweep reproduces its trace bit
    /// for bit (held to by the golden figures and
    /// tests/fused_reference.rs).
    ///
    /// Every calendar event the event path would have delivered — one
    /// `ExecEnd` per (rank, step) plus one `EagerArrive` per payload — is
    /// counted in `elided` instead, keeping `RunStats::events` exact for
    /// the budget analyzer.
    fn run_fused(&mut self) {
        let plan = self.fused.as_ref().expect("run_fused needs a fused plan");
        let csr = self.csr.as_ref().expect("fused runs are pattern-driven");
        let nranks = self.cfg.ranks();
        let steps = self.cfg.steps;
        let ranks = &mut self.ranks;
        // `exec_start` holds each rank's start of the current step.
        for step in 0..steps {
            for r in 0..nranks as usize {
                let injected = if self.has_inj[r] {
                    self.cfg.injections.delay_for(r as u32, step)
                } else {
                    SimDuration::ZERO
                };
                let noise = self.cfg.noise.sample(&mut ranks.rng[r]);
                ranks.injected[r] = injected;
                ranks.noise_amt[r] = noise;
                ranks.exec_end[r] = ranks.exec_start[r] + injected + self.base_exec[r] + noise;
            }
            for r in 0..nranks as usize {
                let slots = csr.recv_off[r] as usize..csr.recv_off[r + 1] as usize;
                let mut comm_end = ranks.exec_end[r];
                for (&src, &cost) in csr.recv[slots.clone()].iter().zip(&plan.recv_cost[slots]) {
                    comm_end = comm_end.max(ranks.exec_end[src as usize] + cost);
                }
                let rank = r as u32;
                match self.mode {
                    TraceMode::Full => self.records.push(PhaseRecord {
                        rank,
                        step,
                        exec_start: ranks.exec_start[r],
                        exec_end: ranks.exec_end[r],
                        comm_end,
                        injected: ranks.injected[r],
                        noise: ranks.noise_amt[r],
                    }),
                    TraceMode::Summary => {
                        self.summary_digest =
                            self.summary_digest
                                .wrapping_add(PhaseRecord::digest_of_parts(
                                    rank,
                                    step,
                                    ranks.exec_start[r],
                                    ranks.exec_end[r],
                                    comm_end,
                                    ranks.injected[r],
                                    ranks.noise_amt[r],
                                ))
                    }
                }
                ranks.exec_start[r] = comm_end;
            }
        }
        if self.mode == TraceMode::Summary {
            self.summary_records = u64::from(nranks) * u64::from(steps);
            self.finish.copy_from_slice(&ranks.exec_start);
        }
        self.done_count = nranks;
        let sends = csr.send.len() as u64 * u64::from(steps);
        self.stats.messages += sends;
        self.elided += u64::from(nranks) * u64::from(steps) + sends;
    }

    /// Post-mortem for a drained event queue with unfinished ranks: build
    /// the wait-for graph implied by the stuck requests (a rank waits on a
    /// peer whose RTS, CTS, or eager payload it still needs) and name the
    /// rank cycle — the same diagnosis `simcheck::analyze` produces
    /// statically as `SC001` before a run.
    fn deadlock_report(&self) -> String {
        let nranks = self.cfg.ranks() as usize;
        let mut g = simdes::Digraph::new(nranks);
        let mut stuck = Vec::new();
        for r in 0..nranks {
            if self.ranks.phase[r] == Phase::Done {
                continue;
            }
            stuck.push(format!(
                "rank {r}: step {} phase {:?} reqs {:?}",
                self.ranks.step[r],
                self.ranks.phase[r],
                self.ranks.reqs[r].as_slice()
            ));
            if self.ranks.phase[r] != Phase::Waiting {
                continue;
            }
            for req in self.ranks.reqs[r].iter() {
                let blocked_on_peer = match (req.is_send, req.state) {
                    // Posted recv with no RTS / eager payload from the peer.
                    (false, ReqState::Unmatched) => true,
                    // Rendezvous send still waiting for the peer's CTS.
                    (true, ReqState::Unmatched) => req.mode == Mode::Rendezvous,
                    _ => false,
                };
                if blocked_on_peer {
                    g.add_edge(r, req.peer as usize);
                }
            }
        }
        let verdict = if !self.crashed.is_empty() || !self.lost.is_empty() {
            // Fault starvation explains the stall even when the surviving
            // requests happen to form a ring — this is not an SC001
            // configuration deadlock.
            let mut causes: Vec<String> = self
                .crashed
                .iter()
                .map(|r| format!("rank {r} crashed (fail-stop)"))
                .collect();
            causes.extend(self.lost.iter().cloned());
            format!("injected faults starved the run ({})", causes.join("; "))
        } else {
            match g.find_cycle() {
                Some(c) => format!(
                    "wait-for cycle [SC001]: ranks {} (each waits on the next \
                     for an RTS, CTS, or eager payload; simcheck::analyze flags \
                     this statically)",
                    c.iter()
                        .map(|v| v.to_string())
                        .collect::<Vec<_>>()
                        .join(" -> ")
                ),
                None => "no wait-for cycle among stuck ranks: an event was lost \
                         (engine bug, not a configuration deadlock)"
                    .to_string(),
            }
        };
        format!("{verdict}\n{}", stuck.join("\n"))
    }

    /// General-spec dispatch for the budgeted/checkpointed loop, which
    /// cannot pin the protocol or trace mode at compile time.
    fn dispatch(&mut self, now: SimTime, ev: Ev) {
        self.dispatch_ev::<dispatch::General>(now, ev);
    }

    fn dispatch_ev<S: dispatch::Spec>(&mut self, now: SimTime, ev: Ev) {
        match ev {
            Ev::ExecEnd { rank, epoch } => {
                if self.ranks.epoch[rank as usize] == epoch {
                    self.on_exec_end::<S>(rank, now);
                }
            }
            Ev::WorkStart { rank } => self.on_work_start(rank, now),
            Ev::WorkEnd { rank, epoch } => {
                if self.ranks.epoch[rank as usize] == epoch {
                    self.on_work_end(rank, now);
                }
            }
            Ev::RtsArrive { src, dst, step } => self.on_rts::<S>(src, dst, step, now),
            Ev::CtsArrive {
                sender,
                receiver,
                step,
            } => self.on_cts::<S>(sender, receiver, step, now),
            Ev::EagerArrive { src, dst, step } => self.on_eager::<S>(src, dst, step, now),
            Ev::XferDone {
                sender,
                receiver,
                step,
            } => self.on_xfer_done::<S>(sender, receiver, step, now),
        }
    }

    // ---- execution phase ------------------------------------------------

    fn start_exec(&mut self, rank: u32, now: SimTime) {
        let ri = rank as usize;
        let step = self.ranks.step[ri];
        // Rank faults fold into the injected-delay bookkeeping: a stall
        // and a recoverable crash outage both lengthen the execution phase
        // exactly like a one-off injection, so every downstream analysis
        // (wave speed, decay fits, trace records) sees them uniformly.
        // Both lookups scan plan vectors, so they are gated on cheap
        // "anything there at all?" flags computed at construction.
        let mut injected = SimDuration::ZERO;
        if self.has_inj[ri] {
            injected = injected + self.cfg.injections.delay_for(rank, step);
        }
        if self.has_rank_faults {
            injected = injected + self.cfg.faults.stall_for(rank, step);
            match self.cfg.faults.crash_for(rank, step) {
                Some(CrashOutcome::FailStop) => {
                    self.ranks.phase[ri] = Phase::Crashed;
                    self.ranks.exec_start[ri] = now;
                    self.ranks.epoch[ri] += 1; // invalidate anything already scheduled
                    self.crashed.push(rank);
                    return;
                }
                Some(CrashOutcome::Recovers(outage)) => injected += outage,
                None => {}
            }
        }
        let noise = self.cfg.noise.sample(&mut self.ranks.rng[ri]);
        self.ranks.phase[ri] = Phase::Computing;
        self.ranks.exec_start[ri] = now;
        self.ranks.injected[ri] = injected;
        self.ranks.noise_amt[ri] = noise;
        self.ranks.epoch[ri] += 1;
        match self.cfg.exec {
            ExecModel::Compute { .. } => {
                let total = injected + self.base_exec[ri] + noise;
                let epoch = self.ranks.epoch[ri];
                self.q.schedule_at(now + total, Ev::ExecEnd { rank, epoch });
            }
            ExecModel::MemoryBound { .. } => {
                self.ranks.remaining_bytes[ri] = self.base_bytes[ri];
                // The injected delay stalls the core *before* the memory
                // work (matches how the paper draws delay bars), and a
                // stalled core does not contend for bandwidth.
                self.q.schedule_at(now + injected, Ev::WorkStart { rank });
            }
        }
    }

    fn on_work_start(&mut self, rank: u32, now: SimTime) {
        let socket = self.rank_socket[rank as usize] as usize;
        self.integrate_socket(socket, now);
        self.ranks.last_update[rank as usize] = now;
        self.socket_members[socket].insert(rank);
        self.reschedule_socket(socket, now);
    }

    fn on_work_end(&mut self, rank: u32, now: SimTime) {
        let socket = self.rank_socket[rank as usize] as usize;
        self.integrate_socket(socket, now);
        self.socket_members[socket].remove(&rank);
        self.reschedule_socket(socket, now);
        // Trailing noise is serial (OS interference, not memory traffic).
        let ri = rank as usize;
        self.ranks.epoch[ri] += 1;
        let epoch = self.ranks.epoch[ri];
        let noise = self.ranks.noise_amt[ri];
        self.q.schedule_at(now + noise, Ev::ExecEnd { rank, epoch });
    }

    /// Integrate outstanding work for every member of `socket` up to `now`
    /// at the rate that held since the last membership change.
    fn integrate_socket(&mut self, socket: usize, now: SimTime) {
        let n = self.socket_members[socket].len() as u32;
        if n == 0 {
            return;
        }
        let rate = self.cfg.exec.shared_rate_bps(n);
        for &m in &self.socket_members[socket] {
            let mi = m as usize;
            let dt = now
                .saturating_since(self.ranks.last_update[mi])
                .as_secs_f64();
            self.ranks.remaining_bytes[mi] = (self.ranks.remaining_bytes[mi] - dt * rate).max(0.0);
            self.ranks.last_update[mi] = now;
        }
    }

    /// After a membership change, recompute each member's completion time.
    fn reschedule_socket(&mut self, socket: usize, now: SimTime) {
        let n = self.socket_members[socket].len() as u32;
        if n == 0 {
            return;
        }
        let rate = self.cfg.exec.shared_rate_bps(n);
        for &m in &self.socket_members[socket] {
            let mi = m as usize;
            self.ranks.epoch[mi] += 1;
            let finish = now + SimDuration::from_secs_f64(self.ranks.remaining_bytes[mi] / rate);
            self.q.schedule_at(
                finish,
                Ev::WorkEnd {
                    rank: m,
                    epoch: self.ranks.epoch[mi],
                },
            );
        }
    }

    // ---- communication phase --------------------------------------------

    fn on_exec_end<S: dispatch::Spec>(&mut self, rank: u32, now: SimTime) {
        let ri = rank as usize;
        self.ranks.exec_end[ri] = now;
        self.ranks.phase[ri] = Phase::Waiting;

        // Post all receives, then all sends (Isend/Irecv then Waitall).
        if let Some(csr) = self.csr.take() {
            // No schedule: the partner lists live in the CSR, moved out
            // of the engine for the duration of the call so the posting
            // loops can mutate the engine without copying the slices.
            self.post_requests::<S>(rank, now, csr.recv_of(rank), csr.send_of(rank));
            self.csr = Some(csr);
        } else {
            // Schedule path: the graph borrow cannot outlive the posting
            // loops' mutations, so partners go through reusable scratch
            // buffers.
            let mut recv_buf = std::mem::take(&mut self.scratch_recv);
            let mut send_buf = std::mem::take(&mut self.scratch_send);
            recv_buf.clear();
            send_buf.clear();
            {
                let step = self.ranks.step[ri];
                let sched = self
                    .cfg
                    .schedule
                    .as_ref()
                    .expect("partner CSR is built whenever there is no schedule");
                let g = sched.graph_for(step);
                recv_buf.extend_from_slice(g.recv_partners(rank));
                send_buf.extend_from_slice(g.send_partners(rank));
            }
            self.post_requests::<S>(rank, now, &recv_buf, &send_buf);
            self.scratch_recv = recv_buf;
            self.scratch_send = send_buf;
        }
        self.service::<S>(rank, now);
    }

    /// Post this step's receive and send requests for `rank` and fire the
    /// protocol's opening messages (eager payloads or RTS).
    ///
    /// The pure-protocol specs skip the early-set probes for messages the
    /// protocol can never produce (see [`dispatch::Spec`]); the general
    /// spec keeps the runtime `base_mode` branches.
    fn post_requests<S: dispatch::Spec>(
        &mut self,
        rank: u32,
        now: SimTime,
        recvs: &[u32],
        sends: &[u32],
    ) {
        let ri = rank as usize;
        let step = self.ranks.step[ri];
        let mut reqs = std::mem::take(&mut self.ranks.reqs[ri]);
        debug_assert!(reqs.is_empty(), "requests from the previous step leaked");
        reqs.reserve(recvs.len() + sends.len());
        let mut n_unmatched = 0u32;
        let mut n_gated = 0u32;
        let mut n_incomplete = 0u32;

        for &src in recvs {
            let mut req = Request {
                peer: src,
                is_send: false,
                mode: self.base_mode,
                state: ReqState::Unmatched,
            };
            if S::PURE_EAGER {
                // No fallback exists, so the only possible early match is
                // an eager payload, and there is no buffer accounting.
                if self.early_eager.remove(src, rank, step) {
                    req.state = ReqState::Complete;
                }
            } else if S::PURE_RDVZ {
                if self.early_rts.remove(src, rank, step) {
                    req.state = ReqState::MatchedNoCts;
                }
            } else {
                match self.base_mode {
                    Mode::Eager => {
                        if self.early_eager.remove(src, rank, step) {
                            self.consume_eager(src, rank);
                            req.state = ReqState::Complete;
                        } else if self.early_rts.remove(src, rank, step) {
                            // The sender fell back to rendezvous (full buffer).
                            req.mode = Mode::Rendezvous;
                            req.state = ReqState::MatchedNoCts;
                        }
                    }
                    Mode::Rendezvous => {
                        if self.early_rts.remove(src, rank, step) {
                            req.state = ReqState::MatchedNoCts;
                        }
                    }
                }
            }
            match req.state {
                ReqState::Unmatched => {
                    n_unmatched += 1;
                    n_incomplete += 1;
                }
                ReqState::MatchedNoCts => {
                    n_gated += 1;
                    n_incomplete += 1;
                }
                ReqState::InFlight | ReqState::Complete => {}
            }
            reqs.push(req);
        }

        // Emissions collect into the batch scratch and splice into the
        // calendar in one sorted pass (`push_batch`) after the loop.
        let mut batch = std::mem::take(&mut self.batch);
        debug_assert!(batch.is_empty(), "emission batch leaked");
        for &dst in sends {
            let mode = if S::PURE_EAGER {
                Mode::Eager
            } else if S::PURE_RDVZ {
                Mode::Rendezvous
            } else {
                self.effective_send_mode(rank, dst)
            };
            if self.base_mode == Mode::Eager && mode == Mode::Rendezvous {
                self.stats.eager_fallbacks += 1;
            }
            let state = match mode {
                Mode::Eager => {
                    // A buffered send completes locally even when every
                    // copy is lost in flight: the *receiver* starves.
                    if let Some(extra) = self.fault_delay(rank, dst, "eager payload", step) {
                        self.stats.messages += 1;
                        if self.track_eager {
                            *self.outstanding_eager.entry((rank, dst)).or_insert(0) +=
                                self.cfg.msg_bytes;
                        }
                        let arrive = self.launch_transfer(rank, dst, now + extra);
                        batch.push((
                            arrive,
                            Ev::EagerArrive {
                                src: rank,
                                dst,
                                step,
                            },
                        ));
                    }
                    ReqState::Complete
                }
                Mode::Rendezvous => {
                    if let Some(extra) = self.fault_delay(rank, dst, "RTS", step) {
                        let depart = now + extra;
                        let dt = self.ctrl_latency_at(rank, dst, depart);
                        batch.push((
                            depart + dt,
                            Ev::RtsArrive {
                                src: rank,
                                dst,
                                step,
                            },
                        ));
                    }
                    n_incomplete += 1;
                    ReqState::Unmatched
                }
            };
            reqs.push(Request {
                peer: dst,
                is_send: true,
                mode,
                state,
            });
        }
        self.q.push_batch(&mut batch);
        self.batch = batch;

        self.ranks.reqs[ri] = reqs;
        self.unmatched_recvs[ri] = n_unmatched;
        self.gated_cts[ri] = n_gated;
        self.incomplete[ri] = n_incomplete;
    }

    /// Eager unless the message would overflow the destination buffer.
    fn effective_send_mode(&self, src: u32, dst: u32) -> Mode {
        match self.base_mode {
            Mode::Rendezvous => Mode::Rendezvous,
            Mode::Eager => match self.cfg.eager_buffer_bytes {
                None => Mode::Eager,
                Some(cap) => {
                    let used = self
                        .outstanding_eager
                        .get(&(src, dst))
                        .copied()
                        .unwrap_or(0);
                    if used + self.cfg.msg_bytes > cap {
                        Mode::Rendezvous
                    } else {
                        Mode::Eager
                    }
                }
            },
        }
    }

    fn consume_eager(&mut self, src: u32, dst: u32) {
        if !self.track_eager {
            return;
        }
        if let Some(v) = self.outstanding_eager.get_mut(&(src, dst)) {
            *v = v.saturating_sub(self.cfg.msg_bytes);
        }
    }

    /// Which cached-link domain the pair `a -> b` spans: 0 socket, 1 node,
    /// 2 network (matches [`DOMAIN_ORDER`]).
    #[inline]
    fn domain_idx(&self, a: u32, b: u32) -> usize {
        debug_assert_ne!(a, b, "self-message on rank {a}");
        if self.rank_node[a as usize] != self.rank_node[b as usize] {
            2
        } else if self.rank_socket[a as usize] != self.rank_socket[b as usize] {
            1
        } else {
            0
        }
    }

    /// The link model `a -> b` effective at `now`: the base topology link,
    /// degraded by any active fault windows. Slow path — callers consult
    /// the [`LinkCache`] first when no degradations exist.
    fn link_at(&self, a: u32, b: u32, now: SimTime) -> PointToPoint {
        let link = self.cfg.network.link(a, b);
        match self.cfg.faults.degradation_at(a, b, now) {
            Some((lf, bf)) => link.degraded(lf, bf),
            None => link,
        }
    }

    /// Control-message latency `a -> b` for a packet departing at `now`.
    fn ctrl_latency_at(&self, a: u32, b: u32, now: SimTime) -> SimDuration {
        match &self.link_cache {
            Some(c) => c.ctrl[self.domain_idx(a, b)],
            None => self.link_at(a, b, now).ctrl_latency(),
        }
    }

    /// Sample the message-fault fate of one transfer departing on the
    /// directed link `src -> dst`. `Some(extra)` means a copy is
    /// eventually delivered, departing `extra` accumulated retransmission
    /// backoff later than the original send; `None` means every copy
    /// failed — the transfer is lost, logged, and never scheduled, so the
    /// requests depending on it starve and the run ends in
    /// [`SimError::Stalled`].
    fn fault_delay(&mut self, src: u32, dst: u32, what: &str, step: u32) -> Option<SimDuration> {
        let Some(m) = self.cfg.faults.messages else {
            return Some(SimDuration::ZERO);
        };
        if !m.is_active() {
            return Some(SimDuration::ZERO);
        }
        let key = (src, dst);
        let nranks = u64::from(self.cfg.ranks());
        let seeds = &self.seeds;
        let rng = self.fault_rngs.entry(key).or_insert_with(|| {
            let index = u64::from(src) * nranks + u64::from(dst);
            seeds.stream("fault-link", index)
        });
        let fate = m.sample_delivery(rng);
        let (attempts, dropped, corrupted) = match fate {
            Delivery::Delivered {
                attempts,
                dropped,
                corrupted,
                ..
            }
            | Delivery::Lost {
                attempts,
                dropped,
                corrupted,
            } => (attempts, dropped, corrupted),
        };
        self.stats.retransmissions += u64::from(attempts - 1);
        self.stats.dropped_transfers += u64::from(dropped);
        self.stats.corrupted_transfers += u64::from(corrupted);
        match fate {
            Delivery::Delivered { extra_delay, .. } => Some(extra_delay),
            Delivery::Lost { attempts, .. } => {
                self.stats.lost_transfers += 1;
                self.lost.push(format!(
                    "{what} {src} -> {dst} at step {step} lost after {attempts} attempts"
                ));
                None
            }
        }
    }

    fn transfer_duration(&mut self, a: u32, b: u32, now: SimTime) -> SimDuration {
        let base = match &self.link_cache {
            Some(c) => c.xfer[self.domain_idx(a, b)],
            None => self.link_at(a, b, now).transfer_time(self.cfg.msg_bytes),
        };
        match self.cfg.noise_placement {
            NoisePlacement::ExecOnly => base,
            NoisePlacement::ExecAndComm => {
                let extra = self.cfg.noise.sample(&mut self.ranks.comm_rng[a as usize]);
                base + extra
            }
        }
    }

    /// Start a payload transfer from `from` to `to` at `now` (or, with
    /// send serialisation on, when `from`'s injection port frees up) and
    /// return its completion time. With serialisation, the port stays
    /// busy for at least the link's LogGOPS injection gap `g`, so
    /// back-to-back small messages cannot exceed the model's injection
    /// rate.
    fn launch_transfer(&mut self, from: u32, to: u32, now: SimTime) -> SimTime {
        let dt = self.transfer_duration(from, to, now);
        if self.cfg.serialize_sends {
            let start = now.max(self.nic_free[from as usize]);
            let done = start + dt;
            let gap = match &self.link_cache {
                Some(c) => c.gap[self.domain_idx(from, to)],
                None => self.link_at(from, to, now).injection_gap(),
            };
            self.nic_free[from as usize] = start + dt.max(gap);
            done
        } else {
            now + dt
        }
    }

    /// Drive a waiting rank forward: issue gated CTS messages and detect
    /// Waitall completion.
    fn service<S: dispatch::Spec>(&mut self, rank: u32, now: SimTime) {
        let ri = rank as usize;
        if self.ranks.phase[ri] != Phase::Waiting {
            return;
        }
        // Head-of-line CTS gating: grant CTS only when no posted receive is
        // still unmatched (see module docs). The counters are maintained at
        // every request state transition, so the common case is three
        // integer compares with no request scan — and a pure-eager run can
        // never gate a CTS at all.
        if !S::PURE_EAGER && self.unmatched_recvs[ri] == 0 && self.gated_cts[ri] > 0 {
            self.issue_cts(rank, now);
        }
        if self.incomplete[ri] == 0 {
            self.finish_step::<S>(rank, now);
        }
    }

    /// Grant every gated CTS: flip `MatchedNoCts` receives to `InFlight`
    /// and schedule one CTS control message per matched receive. Duplicate
    /// same-peer receives each send their own CTS (with their own
    /// fault-RNG draw), matching the request-matching order exactly.
    fn issue_cts(&mut self, rank: u32, now: SimTime) {
        let ri = rank as usize;
        let step = self.ranks.step[ri];
        let mut reqs = std::mem::take(&mut self.ranks.reqs[ri]);
        let mut cts = std::mem::take(&mut self.scratch_cts);
        cts.clear();
        cts.extend(
            reqs.iter()
                .filter(|r| {
                    !r.is_send && r.mode == Mode::Rendezvous && r.state == ReqState::MatchedNoCts
                })
                .map(|r| r.peer),
        );
        let mut batch = std::mem::take(&mut self.batch);
        debug_assert!(batch.is_empty(), "emission batch leaked");
        for &sender in &cts {
            for r in reqs.iter_mut() {
                if !r.is_send && r.peer == sender && r.state == ReqState::MatchedNoCts {
                    r.state = ReqState::InFlight;
                    self.gated_cts[ri] -= 1;
                }
            }
            if let Some(extra) = self.fault_delay(rank, sender, "CTS", step) {
                let depart = now + extra;
                let dt = self.ctrl_latency_at(rank, sender, depart);
                batch.push((
                    depart + dt,
                    Ev::CtsArrive {
                        sender,
                        receiver: rank,
                        step,
                    },
                ));
            }
        }
        self.q.push_batch(&mut batch);
        self.batch = batch;
        self.scratch_cts = cts;
        self.ranks.reqs[ri] = reqs;
    }

    /// Recompute the request-progress counters from `ranks.reqs`. Called
    /// after a snapshot restore, where requests are rebuilt wholesale
    /// rather than via the incremental transitions that normally maintain
    /// the counters.
    pub(crate) fn recount_requests(&mut self) {
        for ri in 0..self.ranks.len() {
            let mut unmatched = 0u32;
            let mut gated = 0u32;
            let mut incomplete = 0u32;
            for r in self.ranks.reqs[ri].iter() {
                if r.state != ReqState::Complete {
                    incomplete += 1;
                }
                if !r.is_send {
                    match r.state {
                        ReqState::Unmatched => unmatched += 1,
                        ReqState::MatchedNoCts => gated += 1,
                        ReqState::InFlight | ReqState::Complete => {}
                    }
                }
            }
            self.unmatched_recvs[ri] = unmatched;
            self.gated_cts[ri] = gated;
            self.incomplete[ri] = incomplete;
        }
    }

    fn finish_step<S: dispatch::Spec>(&mut self, rank: u32, now: SimTime) {
        let ri = rank as usize;
        debug_assert_eq!(self.incomplete[ri], 0);
        debug_assert_eq!(self.unmatched_recvs[ri], 0);
        debug_assert_eq!(self.gated_cts[ri], 0);
        let step = self.ranks.step[ri];
        // The trace-mode branch folds away under the specialized specs.
        match S::TRACE.unwrap_or(self.mode) {
            TraceMode::Full => self.records.push(PhaseRecord {
                rank,
                step,
                exec_start: self.ranks.exec_start[ri],
                exec_end: self.ranks.exec_end[ri],
                comm_end: now,
                injected: self.ranks.injected[ri],
                noise: self.ranks.noise_amt[ri],
            }),
            TraceMode::Summary => {
                self.summary_records += 1;
                self.summary_digest =
                    self.summary_digest
                        .wrapping_add(PhaseRecord::digest_of_parts(
                            rank,
                            step,
                            self.ranks.exec_start[ri],
                            self.ranks.exec_end[ri],
                            now,
                            self.ranks.injected[ri],
                            self.ranks.noise_amt[ri],
                        ));
                self.finish[ri] = now;
            }
        }
        self.ranks.reqs[ri].clear();
        self.ranks.step[ri] = step + 1;
        if step + 1 == self.cfg.steps {
            self.ranks.phase[ri] = Phase::Done;
            self.done_count += 1;
        } else {
            self.start_exec(rank, now);
        }
    }

    fn on_rts<S: dispatch::Spec>(&mut self, src: u32, dst: u32, step: u32, now: SimTime) {
        debug_assert!(!S::PURE_EAGER, "RTS delivered on a pure-eager run");
        let di = dst as usize;
        let matched = self.ranks.phase[di] == Phase::Waiting && self.ranks.step[di] == step;
        if matched {
            let req = self.ranks.reqs[di]
                .iter_mut()
                .find(|r| !r.is_send && r.peer == src && r.state == ReqState::Unmatched)
                .unwrap_or_else(|| {
                    panic!("rank {dst} step {step}: RTS from {src} has no matching recv")
                });
            // An eager-posted recv can be matched by a rendezvous RTS when
            // the sender's buffer overflowed.
            req.mode = Mode::Rendezvous;
            req.state = ReqState::MatchedNoCts;
            self.unmatched_recvs[di] -= 1;
            self.gated_cts[di] += 1;
            self.service::<S>(dst, now);
        } else {
            debug_assert!(
                self.ranks.step[di] <= step,
                "RTS for a step the receiver already completed"
            );
            self.early_rts.insert(src, dst, step);
        }
    }

    fn on_cts<S: dispatch::Spec>(&mut self, sender: u32, receiver: u32, step: u32, now: SimTime) {
        debug_assert!(!S::PURE_EAGER, "CTS delivered on a pure-eager run");
        {
            let si = sender as usize;
            debug_assert_eq!(self.ranks.step[si], step, "CTS for a foreign step");
            let req = self.ranks.reqs[si]
                .iter_mut()
                .find(|r| r.is_send && r.peer == receiver && r.state == ReqState::Unmatched)
                .unwrap_or_else(|| {
                    panic!("rank {sender} step {step}: CTS from {receiver} has no pending send")
                });
            req.state = ReqState::InFlight;
        }
        if let Some(extra) = self.fault_delay(sender, receiver, "payload", step) {
            self.stats.messages += 1;
            let done = self.launch_transfer(sender, receiver, now + extra);
            self.q.schedule_at(
                done,
                Ev::XferDone {
                    sender,
                    receiver,
                    step,
                },
            );
        }
    }

    fn on_eager<S: dispatch::Spec>(&mut self, src: u32, dst: u32, step: u32, now: SimTime) {
        debug_assert!(
            !S::PURE_RDVZ,
            "eager payload delivered on a pure-rendezvous run"
        );
        let di = dst as usize;
        let matched = self.ranks.phase[di] == Phase::Waiting && self.ranks.step[di] == step;
        if matched {
            let req = self.ranks.reqs[di]
                .iter_mut()
                .find(|r| {
                    !r.is_send
                        && r.peer == src
                        // On a pure-eager run every recv is eager-mode.
                        && (S::PURE_EAGER || r.mode == Mode::Eager)
                        && r.state == ReqState::Unmatched
                })
                .unwrap_or_else(|| {
                    panic!("rank {dst} step {step}: eager data from {src} has no matching recv")
                });
            req.state = ReqState::Complete;
            self.unmatched_recvs[di] -= 1;
            self.incomplete[di] -= 1;
            if !S::PURE_EAGER {
                // Pure-eager runs have no finite buffer to account for.
                self.consume_eager(src, dst);
            }
            self.service::<S>(dst, now);
        } else {
            debug_assert!(
                self.ranks.step[di] <= step,
                "eager data for a step the receiver already completed"
            );
            self.early_eager.insert(src, dst, step);
        }
    }

    fn on_xfer_done<S: dispatch::Spec>(
        &mut self,
        sender: u32,
        receiver: u32,
        step: u32,
        now: SimTime,
    ) {
        debug_assert!(!S::PURE_EAGER, "rendezvous transfer on a pure-eager run");
        {
            let req = self.ranks.reqs[sender as usize]
                .iter_mut()
                .find(|r| r.is_send && r.peer == receiver && r.state == ReqState::InFlight)
                .expect("transfer completion without in-flight send");
            req.state = ReqState::Complete;
            self.incomplete[sender as usize] -= 1;
        }
        {
            debug_assert_eq!(self.ranks.step[receiver as usize], step);
            let req = self.ranks.reqs[receiver as usize]
                .iter_mut()
                .find(|r| !r.is_send && r.peer == sender && r.state == ReqState::InFlight)
                .expect("transfer completion without in-flight recv");
            req.state = ReqState::Complete;
            self.incomplete[receiver as usize] -= 1;
        }
        self.service::<S>(sender, now);
        self.service::<S>(receiver, now);
    }
}

/// Run a simulation described by `cfg` and return its trace — the one
/// panicking convenience. Library code should build an [`Engine`] with
/// [`Engine::try_new`] and call [`Engine::try_run_with_stats`], which
/// returns every failure below as a [`SimError`] value.
///
/// # Panics
/// Panics when the config fails validation (with the rendered diagnostic
/// report) or the simulation deadlocks (event queue drained with
/// unfinished ranks): with an empty fault plan a deadlock always
/// indicates an engine or configuration bug; with faults it can also mean
/// a fail-stop crash or a lost transfer starved the run.
pub fn run(cfg: &SimConfig) -> Trace {
    match Engine::new(cfg.clone()).try_run_with_stats(&RunLimits::none()) {
        Ok((trace, _)) => trace,
        Err(SimError::Stalled {
            done,
            ranks,
            report,
        }) => panic!("simulation deadlocked with {done}/{ranks} ranks finished:\n{report}"),
        Err(e) => panic!("{e}"),
    }
}

/// Build a pooled engine for `cfg`, drive it with `run`, and hand every
/// buffer back to `pools` whether the run completed or not.
fn run_pooled<T>(
    cfg: &SimConfig,
    pools: &mut EnginePools,
    run: impl FnOnce(&mut Engine) -> Result<T, SimError>,
) -> Result<T, SimError> {
    let mut e = Engine::try_new_pooled(cfg.clone(), pools)?;
    let out = run(&mut e);
    e.recycle(pools);
    out
}

/// [`Engine::try_run_checkpointed`] drawing and returning all large
/// allocations from `pools`: the sweep runner's per-worker path, so a
/// supervisor thread churning through hundreds of scenarios reuses one
/// set of buffers instead of reallocating per attempt. With
/// [`CheckpointPolicy::none`] it is a pooled [`Engine::try_run_with_stats`].
pub fn try_run_checkpointed_pooled<F>(
    cfg: &SimConfig,
    limits: &RunLimits,
    policy: &CheckpointPolicy,
    mut sink: F,
    pools: &mut EnginePools,
) -> Result<(Trace, RunStats), SimError>
where
    F: FnMut(&Snapshot),
{
    run_pooled(cfg, pools, |e| {
        e.run_loop(limits, policy, &mut sink)?;
        let trace = Trace::from_record_buffer(e.cfg.ranks(), e.cfg.steps, &mut e.records);
        Ok((trace, e.stats))
    })
}

/// Run to completion with phase records folded into a [`RunSummary`] as
/// they complete instead of being retained, so memory stays O(ranks)
/// regardless of step count, drawing and returning all large allocations
/// from `pools` — the throughput benchmark's measurement kernel. The
/// summary's digest equals [`RunSummary::of_trace`] of the full trace of
/// the same scenario iff the runs are bit-identical.
pub fn try_run_summary_pooled(
    cfg: &SimConfig,
    limits: &RunLimits,
    pools: &mut EnginePools,
) -> Result<(RunSummary, RunStats), SimError> {
    run_pooled(cfg, pools, |e| {
        e.mode = TraceMode::Summary;
        e.run_loop(limits, &CheckpointPolicy::none(), &mut |_| {})?;
        Ok(e.take_summary())
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use netmodel::presets;
    use workload::{Boundary, CommPattern, Direction};

    fn engine(ranks: u32) -> Engine {
        let net = presets::loggopsim_like(ranks);
        let mut cfg = SimConfig::baseline(
            net,
            CommPattern::next_neighbor(Direction::Bidirectional, Boundary::Periodic),
            3,
        );
        cfg.protocol = crate::Protocol::Rendezvous;
        Engine::new(cfg)
    }

    /// A real deadlock is unreachable (the engine's nonblocking-waitall
    /// semantics always make progress), so the post-mortem is exercised on
    /// a synthetic stuck state: each rank waits on its upper neighbour's
    /// CTS, forming a ring.
    #[test]
    fn deadlock_report_names_the_rank_cycle() {
        let mut e = engine(4);
        for r in 0..4usize {
            e.ranks.phase[r] = Phase::Waiting;
            e.ranks.reqs[r] = ReqSlots::from_slice(&[Request {
                peer: ((r + 1) % 4) as u32,
                is_send: true,
                mode: Mode::Rendezvous,
                state: ReqState::Unmatched,
            }]);
        }
        let report = e.deadlock_report();
        assert!(report.contains("wait-for cycle [SC001]"), "{report}");
        assert!(report.contains("0 -> 1 -> 2 -> 3 -> 0"), "{report}");
        assert!(report.contains("rank 2: step 0 phase Waiting"), "{report}");
    }

    #[test]
    fn deadlock_report_without_a_cycle_points_at_the_engine() {
        let mut e = engine(4);
        // One rank stuck on a completed peer: no cycle — a lost event.
        e.ranks.phase[1] = Phase::Waiting;
        e.ranks.reqs[1] = ReqSlots::from_slice(&[Request {
            peer: 2,
            is_send: false,
            mode: Mode::Eager,
            state: ReqState::Unmatched,
        }]);
        for r in [0usize, 2, 3] {
            e.ranks.phase[r] = Phase::Done;
        }
        let report = e.deadlock_report();
        assert!(report.contains("no wait-for cycle"), "{report}");
        assert!(report.contains("engine bug"), "{report}");
    }

    #[test]
    fn completed_eager_sends_do_not_count_as_blocking() {
        let mut e = engine(4);
        for r in 0..4usize {
            e.ranks.phase[r] = Phase::Waiting;
            e.ranks.reqs[r] = ReqSlots::from_slice(&[Request {
                peer: ((r + 1) % 4) as u32,
                is_send: true,
                mode: Mode::Eager,
                state: ReqState::Complete,
            }]);
        }
        assert!(e.deadlock_report().contains("no wait-for cycle"));
    }

    #[test]
    fn early_set_has_set_semantics_and_canonical_entries() {
        let mut s = EarlySet::new(4);
        s.insert(1, 2, 0);
        s.insert(1, 2, 0); // duplicate collapses
        s.insert(3, 2, 1);
        s.insert(0, 1, 5);
        assert_eq!(s.entries_sorted(), vec![(0, 1, 5), (1, 2, 0), (3, 2, 1)]);
        assert!(s.remove(1, 2, 0));
        assert!(!s.remove(1, 2, 0), "set semantics: one entry to remove");
        let round = EarlySet::from_entries(4, &s.entries_sorted());
        assert_eq!(round.entries_sorted(), s.entries_sorted());
    }

    // ---- fault injection -------------------------------------------------

    use crate::error::{RunLimits, SimError};
    use crate::faults::{FaultPlan, LinkDegradation, MessageFaults};

    fn fault_cfg(ranks: u32) -> SimConfig {
        let net = presets::loggopsim_like(ranks);
        let mut cfg = SimConfig::baseline(
            net,
            CommPattern::next_neighbor(Direction::Bidirectional, Boundary::Periodic),
            4,
        );
        cfg.protocol = crate::Protocol::Rendezvous;
        cfg
    }

    #[test]
    fn try_new_reports_invalid_configs_as_values() {
        let mut cfg = fault_cfg(8);
        cfg.steps = 0;
        let Err(SimError::InvalidConfig(diags)) = Engine::try_new(cfg) else {
            panic!("zero steps must be rejected");
        };
        assert!(diags.iter().any(|d| d.code == "SC004"));
    }

    #[test]
    fn empty_fault_plan_changes_nothing() {
        let cfg = fault_cfg(8);
        let baseline = run(&cfg);
        let mut with_plan = cfg;
        with_plan.faults = FaultPlan::none().with_messages(MessageFaults::default());
        let (trace, stats) = Engine::new(with_plan)
            .try_run_with_stats(&RunLimits::none())
            .expect("lossless plan completes");
        assert_eq!(baseline.total_runtime(), trace.total_runtime());
        assert_eq!(stats.retransmissions, 0);
        assert_eq!(stats.lost_transfers, 0);
    }

    #[test]
    fn drops_cause_retransmissions_and_delay_the_run() {
        let mut cfg = fault_cfg(8);
        cfg.faults = FaultPlan::none().with_drops(0.3, SimDuration::from_micros(200));
        let clean_finish = {
            let mut c = cfg.clone();
            c.faults = FaultPlan::none();
            run(&c).total_runtime()
        };
        let (trace, stats) = Engine::new(cfg)
            .try_run_with_stats(&RunLimits::none())
            .expect("30% drops with 16 retries must still complete");
        assert!(stats.retransmissions > 0, "{stats:?}");
        assert!(stats.dropped_transfers >= stats.retransmissions);
        assert!(
            trace.total_runtime() > clean_finish,
            "retransmission backoff must cost sim time: {} vs {clean_finish}",
            trace.total_runtime()
        );
    }

    #[test]
    fn certain_loss_stalls_with_a_fault_verdict() {
        let mut cfg = fault_cfg(8);
        cfg.faults = FaultPlan::none().with_messages(MessageFaults {
            drop_prob: 1.0,
            max_retries: 2,
            ..MessageFaults::default()
        });
        let err = Engine::new(cfg)
            .try_run_with_stats(&RunLimits::none())
            .expect_err("guaranteed loss cannot complete");
        let SimError::Stalled { done, report, .. } = err else {
            panic!("expected a stall, got {err:?}");
        };
        assert_eq!(done, 0);
        assert!(
            report.contains("injected faults starved the run"),
            "{report}"
        );
        assert!(report.contains("lost after 3 attempts"), "{report}");
    }

    #[test]
    fn fail_stop_crash_stalls_and_names_the_rank() {
        let mut cfg = fault_cfg(8);
        cfg.faults = FaultPlan::none().with_crash(3, 1, None);
        let err = Engine::new(cfg)
            .try_run_with_stats(&RunLimits::none())
            .expect_err("fail-stop starves the neighbours");
        let SimError::Stalled { report, .. } = err else {
            panic!("expected a stall, got {err:?}");
        };
        assert!(report.contains("rank 3 crashed (fail-stop)"), "{report}");
    }

    #[test]
    fn recovering_crash_acts_like_an_injected_delay() {
        let outage = SimDuration::from_millis(2);
        let mut crash = fault_cfg(8);
        crash.faults = FaultPlan::none().with_crash(3, 1, Some(outage));
        let crash_trace = run(&crash);
        let mut inject = fault_cfg(8);
        inject.injections = noise_model::InjectionPlan::single(3, 1, outage);
        let inject_trace = run(&inject);
        assert_eq!(crash_trace.total_runtime(), inject_trace.total_runtime());
    }

    #[test]
    fn stall_fault_matches_equal_injection() {
        let d = SimDuration::from_millis(1);
        let mut stall = fault_cfg(8);
        stall.faults = FaultPlan::none().with_stall(2, 0, d);
        let mut inject = fault_cfg(8);
        inject.injections = noise_model::InjectionPlan::single(2, 0, d);
        assert_eq!(run(&stall).total_runtime(), run(&inject).total_runtime());
    }

    #[test]
    fn degradation_window_slows_only_transfers_inside_it() {
        let mut cfg = fault_cfg(8);
        let clean_finish = run(&cfg).total_runtime();
        // Degrade every link 10x across the whole run.
        cfg.faults = FaultPlan::none().with_degradation(LinkDegradation {
            from: SimTime::ZERO,
            until: SimTime(u64::MAX),
            link: None,
            latency_factor: 10.0,
            bandwidth_factor: 10.0,
        });
        let slow_finish = run(&cfg).total_runtime();
        assert!(
            slow_finish > clean_finish,
            "{slow_finish} vs {clean_finish}"
        );
        // A window that closes before the first communication phase (3 ms
        // compute) never applies.
        cfg.faults = FaultPlan::none().with_degradation(LinkDegradation {
            from: SimTime::ZERO,
            until: SimTime(1_000),
            link: None,
            latency_factor: 10.0,
            bandwidth_factor: 10.0,
        });
        assert_eq!(run(&cfg).total_runtime(), clean_finish);
    }

    #[test]
    fn watchdog_budgets_trip_as_errors() {
        let cfg = fault_cfg(8);
        let err = Engine::new(cfg.clone())
            .try_run_with_stats(&RunLimits::sim_time(SimTime(1_000)))
            .expect_err("a 4-step run lasts far past 1 us");
        assert!(matches!(err, SimError::Watchdog { .. }), "{err:?}");
        let err = Engine::new(cfg)
            .try_run_with_stats(&RunLimits::events(5))
            .expect_err("a 4-step run takes more than 5 events");
        let SimError::Watchdog { events, .. } = err else {
            panic!("expected watchdog, got {err:?}");
        };
        assert!(events > 5);
    }

    #[test]
    fn faulty_runs_are_bit_identical_across_reruns() {
        let mut cfg = fault_cfg(8);
        cfg.faults = FaultPlan::none()
            .with_drops(0.25, SimDuration::from_micros(100))
            .with_stall(1, 2, SimDuration::from_micros(300));
        let a = run(&cfg);
        let b = run(&cfg);
        assert_eq!(a, b);
    }

    // ---- summary mode and pooling ---------------------------------------

    #[test]
    fn summary_run_matches_the_full_trace_fold() {
        let mut cfg = fault_cfg(8);
        cfg.faults = FaultPlan::none().with_drops(0.2, SimDuration::from_micros(150));
        let (trace, full_stats) = Engine::new(cfg.clone())
            .try_run_with_stats(&RunLimits::none())
            .expect("completes");
        let (summary, sum_stats) =
            try_run_summary_pooled(&cfg, &RunLimits::none(), &mut EnginePools::new())
                .expect("completes");
        assert_eq!(summary, RunSummary::of_trace(&trace));
        assert_eq!(summary.total_runtime(), trace.total_runtime());
        assert_eq!(full_stats, sum_stats);
    }

    /// A generous hand-built budget for the `fault_cfg` shapes; the exact
    /// per-config prediction lives in `simcheck::budget` (which this crate
    /// cannot depend on) and is drift-tested at the workspace level.
    fn test_budget(cfg: &SimConfig, trace: bool) -> PoolBudget {
        let n = cfg.ranks();
        PoolBudget {
            ranks: n,
            steps: cfg.steps,
            peak_queue: 8 * n as usize,
            requests_per_rank: 4,
            trace_records: if trace {
                n as usize * cfg.steps as usize
            } else {
                0
            },
        }
    }

    fn full_pooled(
        cfg: &SimConfig,
        pools: &mut EnginePools,
    ) -> Result<(Trace, RunStats), SimError> {
        try_run_checkpointed_pooled(
            cfg,
            &RunLimits::none(),
            &CheckpointPolicy::none(),
            |_| {},
            pools,
        )
    }

    #[test]
    fn pooled_runs_are_bit_identical_and_stop_allocating() {
        let cfg = fault_cfg(8);
        let baseline = run(&cfg);
        let mut pools = EnginePools::with_budget(&test_budget(&cfg, true));
        let mut fingerprints = Vec::new();
        for _ in 0..5 {
            let (trace, _) = full_pooled(&cfg, &mut pools).expect("completes");
            fingerprints.push(trace.fingerprint());
            // Budget-driven pre-sizing: every run, including the first,
            // fits inside the budgeted watermark. No warmup runs.
            assert_eq!(
                pools.grows(),
                0,
                "a budgeted pool must settle on run 1 (run {})",
                pools.runs()
            );
        }
        assert!(
            fingerprints.iter().all(|&f| f == baseline.fingerprint()),
            "pooled runs must be bit-identical to fresh runs"
        );
        assert_eq!(pools.runs(), 5);
    }

    #[test]
    fn unbudgeted_pools_keep_the_first_run_baseline_contract() {
        let cfg = fault_cfg(8);
        let mut pools = EnginePools::new();
        let mut grows_per_run = Vec::new();
        for _ in 0..5 {
            let (_, _) = full_pooled(&cfg, &mut pools).expect("completes");
            grows_per_run.push(pools.grows());
        }
        // Without a budget the first run sets the baseline and run 2 may
        // settle swap-shuffled queue segments; runs 3..5 must be stable.
        assert_eq!(
            grows_per_run[4], grows_per_run[1],
            "same-shape reruns must reuse the pooled capacity"
        );
    }

    #[test]
    fn pooled_summary_runs_match_and_stop_allocating() {
        let cfg = fault_cfg(8);
        let reference = RunSummary::of_trace(&run(&cfg));
        // Summary pools retain no trace records.
        let mut pools = EnginePools::with_budget(&test_budget(&cfg, false));
        for _ in 0..6 {
            let (s, _) =
                try_run_summary_pooled(&cfg, &RunLimits::none(), &mut pools).expect("completes");
            assert_eq!(s, reference);
            assert_eq!(
                pools.grows(),
                0,
                "a budgeted summary pool must settle on run 1 (run {})",
                pools.runs()
            );
        }
    }

    // ---- fused fast path -------------------------------------------------

    /// An eligible scenario with everything the fused path must get
    /// bit-identical: a one-off injection, exponential noise drawn from
    /// the per-rank streams, and per-rank imbalance.
    fn fused_cfg(ranks: u32) -> SimConfig {
        let net = presets::loggopsim_like(ranks);
        let mut cfg = SimConfig::baseline(
            net,
            CommPattern::next_neighbor(Direction::Bidirectional, Boundary::Periodic),
            6,
        );
        cfg.protocol = crate::Protocol::Eager;
        cfg.injections = noise_model::InjectionPlan::single(2, 1, SimDuration::from_millis(9));
        cfg.noise = noise_model::DelayDistribution::Exponential {
            mean: SimDuration::from_micros(40),
        };
        cfg.imbalance = (0..ranks).map(|r| 1.0 + 0.01 * f64::from(r % 3)).collect();
        cfg
    }

    #[test]
    fn fused_eligibility_tracks_the_dynamic_features() {
        let cfg = fused_cfg(8);
        assert!(fused_path_eligible(&cfg));
        assert!(Engine::new(cfg.clone()).fused.is_some());

        let mut rdvz = cfg.clone();
        rdvz.protocol = crate::Protocol::Rendezvous;
        assert!(!fused_path_eligible(&rdvz));

        let mut buffered = cfg.clone();
        buffered.eager_buffer_bytes = Some(1 << 20);
        assert!(!fused_path_eligible(&buffered));

        let mut serialized = cfg.clone();
        serialized.serialize_sends = true;
        assert!(!fused_path_eligible(&serialized));

        let mut comm_noise = cfg.clone();
        comm_noise.noise_placement = NoisePlacement::ExecAndComm;
        assert!(!fused_path_eligible(&comm_noise));

        let mut faulty = cfg;
        faulty.faults = FaultPlan::none().with_drops(0.05, SimDuration::from_micros(100));
        assert!(!fused_path_eligible(&faulty));
    }

    #[test]
    fn fused_path_is_bit_identical_to_the_general_loop() {
        let cfg = fused_cfg(8);
        // Plain run: takes the fused path (no calendar traffic at all).
        let (fused, fused_stats) = Engine::new(cfg.clone())
            .try_run_with_stats(&RunLimits::none())
            .expect("completes");
        assert_eq!(fused_stats.peak_queue, 0, "fused runs skip the calendar");
        // An event budget (far above the real count) forces the general
        // loop without perturbing it.
        let (general, general_stats) = Engine::new(cfg.clone())
            .try_run_with_stats(&RunLimits::events(1_000_000))
            .expect("completes");
        assert!(
            general_stats.peak_queue > 0,
            "general loop uses the calendar"
        );
        assert_eq!(fused, general, "fused trace must be bit-identical");
        assert_eq!(
            fused_stats.events, general_stats.events,
            "elided events must keep the semantic count"
        );
        assert_eq!(fused_stats.messages, general_stats.messages);

        // Summary mode folds the same records on both paths.
        let (summary, _) =
            try_run_summary_pooled(&cfg, &RunLimits::none(), &mut EnginePools::new())
                .expect("completes");
        assert_eq!(summary, RunSummary::of_trace(&fused));
    }

    #[test]
    fn fused_path_matches_the_reference_recurrence() {
        let cfg = fused_cfg(12);
        assert!(crate::reference::supports(&cfg));
        assert_eq!(run(&cfg), crate::reference::reference_trace(&cfg));
    }

    #[test]
    fn pool_budget_byte_estimates_scale_with_the_shape() {
        let small = PoolBudget {
            ranks: 8,
            steps: 4,
            peak_queue: 64,
            requests_per_rank: 4,
            trace_records: 32,
        };
        let big = PoolBudget {
            ranks: 1024,
            steps: 40,
            peak_queue: 8192,
            requests_per_rank: 8,
            trace_records: 1024 * 40,
        };
        assert!(small.bytes() > 0);
        assert!(
            big.bytes() > small.bytes(),
            "budget byte estimates must grow with the predicted shape"
        );
        // Spilled request lists (beyond the four inline slots) cost heap
        // bytes; a wider schedule must never estimate cheaper.
        let wide = PoolBudget {
            requests_per_rank: 32,
            ..small
        };
        assert!(wide.bytes() > small.bytes());
    }
}
