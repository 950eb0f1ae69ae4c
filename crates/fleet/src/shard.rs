//! One scheduler shard: a [`Scheduler`] plus its journal, socket set,
//! supervisor, and shard-local clock (DESIGN §10.1).
//!
//! The shard runs the same drive protocol as the fuzzer's raw drive,
//! with one deliberate difference in phase: a request returned by
//! `advance` is served at the *start of the next step*, not the end of
//! the current one. Both orders produce identical timing (the read
//! happens at the same shard-local instant), but serve-at-next-step
//! makes the whole step atomic under tick-boundary faults: a shard
//! killed between ticks has never consumed a message whose `ReadEnd`
//! it did not commit, so the cross-shard checker's consumed-vs-observed
//! accounting holds by construction — the same fork-point discipline
//! `CrashSweep` uses.
//!
//! The shard-local clock advances by the same per-marker costs the
//! fuzzer charges (reads 1 tick, selection/dispatch/completion from
//! the [`WcetTable`], execution the task's WCET), so response times
//! measured here are comparable against the Prosa bounds.

use std::collections::VecDeque;
use std::sync::Arc;

use rossl::{
    FirstByteCodec, Request, Response, RestartPolicy, Scheduler, Step, Supervisor,
};
use rossl_journal::JournalWriter;
use rossl_model::{Instant, Job, Message, SocketId, TaskSet, WcetTable};
use rossl_sockets::{ReadOutcome, SocketSet};
use rossl_trace::{Marker, Trace};

use crate::tracing::ShardTracer;

/// What the fleet learns from one shard step.
#[derive(Debug, Clone)]
pub enum ShardEvent {
    /// A delivered payload was read and became a job (`ReadEnd` with a
    /// job committed).
    Accepted {
        /// Fleet-wide payload sequence number.
        seq: u64,
        /// The job it became on this shard.
        job: Job,
        /// Shard-local clock at the commit.
        at: u64,
    },
    /// A job ran to completion (`Completion` committed).
    Completed {
        /// The completed job (its payload carries the sequence number).
        job: Job,
        /// Shard-local clock at the commit.
        at: u64,
    },
    /// The scheduler rejected the drive — treated as a crash.
    Crashed,
}

/// Virtual-clock cost of one marker: reads 1 tick, selection, dispatch
/// and completion from the [`WcetTable`], execution the task's WCET.
/// The fleet shards and the fuzzer's raw drive both charge it, so their
/// response times live on the same clock the timing analysis bounds.
/// Every cost is ≥ 1, so the clock is strictly monotone.
#[must_use]
pub fn marker_cost(marker: &Marker, wcet: &WcetTable, tasks: &TaskSet) -> u64 {
    match marker {
        Marker::ReadStart | Marker::ReadEnd { .. } => 1,
        Marker::Selection => wcet.selection.ticks(),
        Marker::Dispatch(_) => wcet.dispatch.ticks(),
        Marker::Execution(j) => tasks
            .task(j.task())
            .map(|t| t.wcet().ticks())
            .unwrap_or(1)
            .max(1),
        Marker::Completion(_) => wcet.completion.ticks(),
        // Mode switches are bounded like one idle iteration (see
        // `rossl_timing::wcet_check`).
        Marker::Idling | Marker::ModeSwitch { .. } => wcet.idling.ticks(),
    }
}

/// One fleet member.
#[derive(Debug)]
pub struct Shard {
    id: usize,
    config: Arc<rossl::ClientConfig>,
    wcet: WcetTable,
    sched: Option<Scheduler<FirstByteCodec>>,
    supervisor: Supervisor,
    journal: JournalWriter,
    sockets: SocketSet,
    /// Per-socket FIFO mirror of delivered-but-unread payloads,
    /// carrying the fleet sequence numbers the socket substrate does
    /// not know about. Popped in lockstep with successful reads.
    unread: Vec<VecDeque<(u64, Message)>>,
    /// The request returned by the last `advance`, served at the start
    /// of the next step.
    pending_request: Option<Request>,
    clock: u64,
    /// Completions accumulated before the last journal rebase (the
    /// scheduler's own counter restarts from the journal).
    segments: Vec<Trace>,
    current: Trace,
    consumed: Vec<usize>,
    /// Last fleet tick this shard completed a step (the heartbeat).
    pub(crate) last_step_tick: u64,
    pub(crate) killed: bool,
    pub(crate) fenced: bool,
    pub(crate) paused_until: u64,
    pub(crate) partitioned_until: u64,
    /// Optional span emitter; `None` costs one branch per hook.
    tracer: Option<ShardTracer>,
    /// [`SeededBug::OrphanSpan`](rossl::SeededBug::OrphanSpan): the
    /// tracer skips closing enqueue spans at `ReadEnd`.
    pub(crate) orphan_bug: bool,
}

impl Shard {
    /// A fresh shard running `config` under `policy`.
    #[must_use]
    pub fn new(
        id: usize,
        config: Arc<rossl::ClientConfig>,
        wcet: WcetTable,
        policy: RestartPolicy,
    ) -> Shard {
        let n_sockets = config.n_sockets();
        Shard {
            sched: Some(Scheduler::with_shared_config(Arc::clone(&config), FirstByteCodec)),
            supervisor: Supervisor::new(policy),
            journal: JournalWriter::new(),
            sockets: SocketSet::new(n_sockets),
            unread: vec![VecDeque::new(); n_sockets],
            pending_request: None,
            clock: 0,
            segments: Vec::new(),
            current: Vec::new(),
            consumed: vec![0; n_sockets],
            last_step_tick: 0,
            killed: false,
            fenced: false,
            paused_until: 0,
            partitioned_until: 0,
            tracer: None,
            orphan_bug: false,
            id,
            config,
            wcet,
        }
    }

    /// Attaches a span emitter (built by
    /// [`Fleet::with_tracer`](crate::Fleet::with_tracer)).
    pub(crate) fn attach_tracer(&mut self, tracer: ShardTracer) {
        self.tracer = Some(tracer);
    }

    /// The attached span emitter, if any.
    pub(crate) fn tracer_mut(&mut self) -> Option<&mut ShardTracer> {
        self.tracer.as_mut()
    }

    /// The attached span emitter, if any (shared view).
    pub(crate) fn tracer_ref(&self) -> Option<&ShardTracer> {
        self.tracer.as_ref()
    }

    /// The shard's index in the fleet.
    #[must_use]
    pub fn id(&self) -> usize {
        self.id
    }

    /// The shard-local clock, in ticks.
    #[must_use]
    pub fn clock(&self) -> u64 {
        self.clock
    }

    /// Is this shard currently able to step at fleet tick `now`?
    #[must_use]
    pub fn can_step(&self, now: u64) -> bool {
        !self.killed && !self.fenced && now >= self.paused_until
    }

    /// Can the router deliver a datagram at fleet tick `now`? Paused
    /// shards accept (the machine is up, only the scheduler is
    /// stopped); killed, fenced, and partitioned shards do not.
    #[must_use]
    pub fn reachable(&self, now: u64) -> bool {
        !self.killed && !self.fenced && now >= self.partitioned_until
    }

    /// Accepted-but-uncompleted backlog: delivered-but-unread payloads
    /// plus jobs pending in the scheduler.
    #[must_use]
    pub fn depth(&self) -> usize {
        let unread: usize = self.unread.iter().map(VecDeque::len).sum();
        unread + self.sched.as_ref().map_or(0, Scheduler::pending_count)
    }

    /// Nothing left to do: no unread payloads, no pending jobs, and
    /// the scheduler is idling (or the shard is dead).
    #[must_use]
    pub fn quiescent(&self) -> bool {
        if self.killed || self.fenced {
            return true;
        }
        self.unread.iter().all(VecDeque::is_empty)
            && self.sched.as_ref().map_or(true, |s| s.pending_count() == 0)
            && matches!(self.current.last(), None | Some(Marker::Idling))
    }

    /// Enqueues a routed payload on `sock` at the current shard-local
    /// instant (readable strictly after it, per the socket model).
    pub fn deliver(&mut self, sock: SocketId, seq: u64, data: Vec<u8>) {
        let at = Instant(self.clock);
        if self.sockets.enqueue(sock, at, Message::new(data.clone())).is_ok() {
            self.unread[sock.0].push_back((seq, Message::new(data)));
        }
    }

    /// Runs one scheduler step at fleet tick `now`: serve the previous
    /// request, advance, journal and commit the marker.
    pub fn step(&mut self, now: u64) -> Vec<ShardEvent> {
        let mut events = Vec::new();
        if !self.can_step(now) {
            return events;
        }
        let Some(sched) = self.sched.as_mut() else {
            return events;
        };
        let mut read_seq = None;
        let response = match self.pending_request.take() {
            Some(Request::Read(sock)) => {
                let data = match self.sockets.try_read(sock, Instant(self.clock)) {
                    Ok(ReadOutcome::Data { msg, .. }) => {
                        self.consumed[sock.0] += 1;
                        read_seq = self.unread[sock.0].pop_front().map(|(seq, _)| seq);
                        Some(msg.into_data())
                    }
                    _ => None,
                };
                Some(Response::ReadResult(data))
            }
            // Fleet jobs run within budget: the shard charges the
            // task's WCET through the marker cost below.
            Some(Request::Execute(_)) => Some(Response::Executed),
            None => None,
        };
        let Step { marker, request } = match sched.advance(response) {
            Ok(step) => step,
            Err(_) => {
                self.killed = true;
                events.push(ShardEvent::Crashed);
                return events;
            }
        };
        let clock_before = self.clock;
        self.clock += marker_cost(&marker, &self.wcet, self.config.tasks());
        self.journal.append_committed(&marker, Instant(self.clock));
        // Only request-phase markers reach the tracer and the fleet; the
        // idle polls that make up most steps fall through untouched.
        let prio_of = |task: rossl_model::TaskId| {
            self.config.tasks().task(task).map_or(0, |t| u64::from(t.priority().0))
        };
        match &marker {
            Marker::ReadEnd { job: Some(j), .. } => {
                if let Some(seq) = read_seq {
                    if let Some(tracer) = self.tracer.as_mut() {
                        tracer.on_accept(
                            seq,
                            j.id().0,
                            j.task().0 as u64,
                            prio_of(j.task()),
                            self.clock,
                            self.journal.commits_written(),
                            self.orphan_bug,
                        );
                    }
                    events.push(ShardEvent::Accepted { seq, job: j.clone(), at: self.clock });
                }
            }
            Marker::Dispatch(j) => {
                if let Some(tracer) = self.tracer.as_mut() {
                    tracer.on_dispatch(
                        j.id().0,
                        j.task().0 as u64,
                        prio_of(j.task()),
                        self.clock,
                        self.journal.commits_written(),
                    );
                }
            }
            Marker::Completion(j) => {
                if let Some(tracer) = self.tracer.as_mut() {
                    tracer.on_complete(j.id().0, self.clock, self.journal.commits_written());
                }
                events.push(ShardEvent::Completed { job: j.clone(), at: self.clock });
            }
            Marker::ModeSwitch { .. } => {
                if let Some(tracer) = self.tracer.as_mut() {
                    tracer.on_mode_switch(clock_before, self.clock);
                }
            }
            _ => {}
        }
        self.current.push(marker);
        self.pending_request = request;
        self.last_step_tick = now;
        events
    }

    /// Can this shard run a quiet window starting at fleet tick `now`
    /// through [`Shard::idle_run`]? It must be able to step, have
    /// nothing to read and nothing pending, have no job in flight
    /// (after `M_Dispatch` the next marker is `M_Execution`), and run
    /// without a mode policy, the only source of mode switches.
    pub(crate) fn idle_eligible(&self, now: u64) -> bool {
        let Some(sched) = self.sched.as_ref() else {
            return false;
        };
        self.can_step(now)
            && sched.pending_count() == 0
            && sched.mode_policy().is_none()
            && self.unread.iter().all(VecDeque::is_empty)
            && !matches!(self.pending_request, Some(Request::Execute(_)))
            && !matches!(self.current.last(), Some(Marker::Dispatch(_) | Marker::Execution(_)))
    }

    /// Steps an [`idle_eligible`](Shard::idle_eligible) shard once per
    /// fleet tick in `from..until`, exactly as [`Shard::step`] would:
    /// every marker still comes from `advance`, is charged and journaled.
    /// Its sockets are empty, so each read is answered `⊥` without
    /// polling them, and the markers (`M_ReadS`, `M_ReadE ⊥`,
    /// `M_Selection`, `M_Idling`) raise no event and no span.
    pub(crate) fn idle_run(&mut self, from: u64, until: u64) {
        let Some(sched) = self.sched.as_mut() else {
            return;
        };
        let tasks = self.config.tasks();
        let mut request = self.pending_request.take();
        for _ in from..until {
            // Only reads are outstanding in a quiet window.
            let response = request.map(|_| Response::ReadResult(None));
            let Ok(Step { marker, request: next }) = sched.advance(response) else {
                unreachable!("an idle scheduler accepts an empty read");
            };
            self.clock += marker_cost(&marker, &self.wcet, tasks);
            self.journal.append_committed(&marker, Instant(self.clock));
            self.current.push(marker);
            request = next;
        }
        self.pending_request = request;
        self.last_step_tick = until - 1;
    }

    /// The supervisor owning this shard's restart budget.
    pub fn supervisor_mut(&mut self) -> &mut Supervisor {
        &mut self.supervisor
    }

    /// The committed journal bytes.
    #[must_use]
    pub fn journal_bytes(&self) -> &[u8] {
        self.journal.bytes()
    }

    /// The shared client configuration.
    #[must_use]
    pub fn config(&self) -> &Arc<rossl::ClientConfig> {
        &self.config
    }

    /// Closes the current trace segment (a restart seam) and returns
    /// the index the *next* segment will have.
    pub fn close_segment(&mut self) -> usize {
        let seg = std::mem::take(&mut self.current);
        self.segments.push(seg);
        self.segments.len()
    }

    /// Fences the shard out of the fleet permanently: it never steps
    /// again, even if a pause that killed its heartbeat later ends.
    pub fn fence(&mut self) {
        self.fenced = true;
        self.close_segment();
        self.sched = None;
        self.pending_request = None;
    }

    /// Installs a recovered scheduler after a restart or migration.
    /// The in-flight request (if any) is dropped — crash semantics: an
    /// unserved read never consumed its message, an unserved execute
    /// left its dispatch to be voided and re-pended by journal replay.
    pub fn install(&mut self, sched: Scheduler<FirstByteCodec>) {
        self.sched = Some(sched);
        self.pending_request = None;
    }

    /// Replaces the journal wholesale (migration rebase: the successor
    /// re-journals its own committed history plus the replayed
    /// `ReadEnd`s of the migrated jobs).
    pub fn replace_journal(&mut self, journal: JournalWriter) {
        self.journal = journal;
    }

    /// Drains every delivered-but-unread payload, in per-socket FIFO
    /// order: `(sock, seq, message)`. Used at failover to re-route
    /// stranded payloads to the successor.
    pub fn take_unread(&mut self) -> Vec<(SocketId, u64, Message)> {
        let mut out = Vec::new();
        for (sock, q) in self.unread.iter_mut().enumerate() {
            for (seq, msg) in q.drain(..) {
                out.push((SocketId(sock), seq, msg));
            }
        }
        out
    }

    /// The shard's observable history for the cross-shard checker:
    /// closed segments plus the still-open one (a fenced shard's fence
    /// already closed its last segment). The `dead` flag is the fence.
    #[must_use]
    pub fn history(&self) -> rossl_verify::ShardHistory {
        let mut segments = self.segments.clone();
        if !self.fenced {
            segments.push(self.current.clone());
        }
        self.history_of(segments)
    }

    /// [`Shard::history`] by move, for the end of a run: the shard's
    /// trace segments are left empty.
    pub(crate) fn take_history(&mut self) -> rossl_verify::ShardHistory {
        let mut segments = std::mem::take(&mut self.segments);
        if !self.fenced {
            segments.push(std::mem::take(&mut self.current));
        }
        self.history_of(segments)
    }

    fn history_of(&self, segments: Vec<Trace>) -> rossl_verify::ShardHistory {
        rossl_verify::ShardHistory {
            shard: self.id,
            segments,
            consumed: self.consumed.clone(),
            dead: self.fenced,
        }
    }
}
