//! Fleet-side span emission (DESIGN §11.2).
//!
//! Tracing is strictly optional: a fleet built without
//! [`Fleet::with_tracer`](crate::Fleet::with_tracer) carries `None`
//! tracers and pays one branch per hook. With a collector attached, the
//! router emits `Route`/`Retry`/`Breaker` spans on the fleet clock and
//! each shard emits the request-phase spans (`Enqueue`, `DispatchWait`,
//! `Execute`) plus journal and suspension spans on its local clock.
//! Span boundaries are the *post-commit* clock readings — the same
//! instants the fleet derives response times from — so the attribution
//! engine's per-job sum is tick-exact by construction.

use std::sync::Arc;

use rossl_obs::{ClockDomain, SpanBatch, SpanId, SpanKind, TraceCollector, TraceId};

/// The per-key state of work in flight: a handful of entries at a time
/// (payloads between delivery and read, jobs between read and
/// completion), so a scan of one short vector replaces a tree walk.
#[derive(Debug)]
struct InFlight<T>(Vec<(u64, T)>);

impl<T> InFlight<T> {
    fn new() -> InFlight<T> {
        InFlight(Vec::new())
    }

    fn insert(&mut self, key: u64, value: T) {
        match self.get_mut(key) {
            Some(slot) => *slot = value,
            None => self.0.push((key, value)),
        }
    }

    fn get(&self, key: u64) -> Option<&T> {
        self.0.iter().find(|(k, _)| *k == key).map(|(_, v)| v)
    }

    fn get_mut(&mut self, key: u64) -> Option<&mut T> {
        self.0.iter_mut().find(|(k, _)| *k == key).map(|(_, v)| v)
    }

    fn remove(&mut self, key: u64) -> Option<T> {
        let pos = self.0.iter().position(|(k, _)| *k == key)?;
        Some(self.0.swap_remove(pos).1)
    }
}

/// Per-job tracing context on one shard, keyed by raw job id.
#[derive(Debug)]
struct JobCtx {
    trace: TraceId,
    /// Cross-domain causal parent: the route span that delivered the
    /// payload (none for migrated re-pends).
    parent: Option<SpanId>,
    wait: Option<SpanId>,
    exec: Option<SpanId>,
}

/// The shard-side tracer: opens the enqueue span at delivery and walks
/// it through the `ReadEnd`/`Dispatch`/`Completion` commits.
#[derive(Debug)]
pub(crate) struct ShardTracer {
    collector: Arc<TraceCollector>,
    domain: ClockDomain,
    /// Open enqueue span (and its route parent) per fleet sequence
    /// number, between delivery and the `ReadEnd` commit.
    enqueue_open: InFlight<(SpanId, Option<SpanId>)>,
    jobs: InFlight<JobCtx>,
}

impl ShardTracer {
    pub(crate) fn new(collector: Arc<TraceCollector>, shard: usize) -> ShardTracer {
        ShardTracer {
            collector,
            domain: ClockDomain::Shard(shard),
            enqueue_open: InFlight::new(),
            jobs: InFlight::new(),
        }
    }

    /// The journal append + commit instants for a request-relevant
    /// marker, nested in the phase span the marker closed.
    fn journal_pair(
        batch: &mut SpanBatch<'_>,
        domain: ClockDomain,
        trace: TraceId,
        parent: Option<SpanId>,
        clock: u64,
        commit: u64,
    ) {
        for kind in [SpanKind::JournalAppend, SpanKind::JournalCommit] {
            batch.instant(trace, parent, kind, domain, clock, &[("commit", commit)]);
        }
    }

    /// A routed payload landed on a socket at shard clock `clock`.
    pub(crate) fn on_deliver(&mut self, seq: u64, parent: Option<SpanId>, clock: u64) {
        let id =
            self.collector.start(TraceId(seq), parent, SpanKind::Enqueue, self.domain, clock);
        self.enqueue_open.insert(seq, (id, parent));
    }

    /// The `ReadEnd` for `seq` committed at `clock`: the payload became
    /// job `job`. `skip_close` is [`SeededBug::OrphanSpan`]
    /// (rossl::SeededBug::OrphanSpan): the enqueue span is left open.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn on_accept(
        &mut self,
        seq: u64,
        job: u64,
        task: u64,
        prio: u64,
        clock: u64,
        commit: u64,
        skip_close: bool,
    ) {
        let Some((enq, parent)) = self.enqueue_open.remove(seq) else {
            return; // untraced delivery
        };
        let trace = TraceId(seq);
        let mut batch = self.collector.batch();
        if !skip_close {
            batch.end(enq, clock);
        }
        Self::journal_pair(&mut batch, self.domain, trace, Some(enq), clock, commit);
        let wait = batch.start_with(
            trace,
            parent,
            SpanKind::DispatchWait,
            self.domain,
            clock,
            &[("task", task), ("prio", prio), ("job", job)],
        );
        self.jobs.insert(job, JobCtx { trace, parent, wait: Some(wait), exec: None });
    }

    /// The `Dispatch` for `job` committed at `clock`.
    pub(crate) fn on_dispatch(&mut self, job: u64, task: u64, prio: u64, clock: u64, commit: u64) {
        let Some(ctx) = self.jobs.get_mut(job) else {
            return;
        };
        let mut batch = self.collector.batch();
        if let Some(w) = ctx.wait {
            batch.end(w, clock);
        }
        let exec = batch.start_with(
            ctx.trace,
            ctx.parent,
            SpanKind::Execute,
            self.domain,
            clock,
            &[("task", task), ("prio", prio), ("job", job)],
        );
        ctx.exec = Some(exec);
        Self::journal_pair(&mut batch, self.domain, ctx.trace, ctx.wait, clock, commit);
    }

    /// The `Completion` for `job` committed at `clock`.
    pub(crate) fn on_complete(&mut self, job: u64, clock: u64, commit: u64) {
        let Some(ctx) = self.jobs.remove(job) else {
            return;
        };
        if let Some(x) = ctx.exec {
            let mut batch = self.collector.batch();
            batch.end(x, clock);
            Self::journal_pair(&mut batch, self.domain, ctx.trace, Some(x), clock, commit);
        }
    }

    /// A mode-switch suspension charged between `start` and `end` on
    /// the shard clock (system trace — it belongs to no one request).
    pub(crate) fn on_mode_switch(&mut self, start: u64, end: u64) {
        let id =
            self.collector.start(TraceId::SYSTEM, None, SpanKind::Suspension, self.domain, start);
        self.collector.end(id, end);
    }

    /// The last request-phase span of `job` on this shard, for the
    /// migration seam's causal link (the wait if the job was pending,
    /// the interrupted execute if it was in flight).
    pub(crate) fn span_of(&self, job: u64) -> Option<SpanId> {
        self.jobs.get(job).and_then(|c| c.exec.or(c.wait))
    }

    /// A migrated job re-arrived pre-accepted at successor clock
    /// `clock`: a zero-length enqueue span carrying the migration
    /// latency and a causal link back to the dead shard's span, then an
    /// open wait (replay re-pended the job).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn on_migrate_in(
        &mut self,
        seq: u64,
        job: u64,
        task: u64,
        prio: u64,
        clock: u64,
        latency: u64,
        from: Option<SpanId>,
    ) {
        let trace = TraceId(seq);
        let mut batch = self.collector.batch();
        let enq = batch.start_with(
            trace,
            None,
            SpanKind::Enqueue,
            self.domain,
            clock,
            &[("migration_latency", latency)],
        );
        if let Some(target) = from {
            batch.link(enq, target);
        }
        batch.end(enq, clock);
        let wait = batch.start_with(
            trace,
            None,
            SpanKind::DispatchWait,
            self.domain,
            clock,
            &[("task", task), ("prio", prio), ("job", job)],
        );
        self.jobs.insert(job, JobCtx { trace, parent: None, wait: Some(wait), exec: None });
    }
}

/// The router-side tracer: one `Route` span per routing episode (a
/// resend after failover opens a fresh episode), `Retry` instants
/// nested inside it, and system-trace `Breaker` instants.
#[derive(Debug)]
pub(crate) struct RouterTracer {
    collector: Arc<TraceCollector>,
    open: InFlight<SpanId>,
    /// The most recently closed episode per seq, indexed by seq (the
    /// fleet numbers its submissions from 0) — the cross-domain parent
    /// of the shard-side enqueue span.
    last: Vec<Option<SpanId>>,
}

/// Stable numeric codes for routing outcomes in span args.
pub(crate) mod outcome_code {
    pub(crate) const DELIVERED: u64 = 0;
    pub(crate) const SHED: u64 = 1;
    pub(crate) const FAILED: u64 = 2;
}

impl RouterTracer {
    pub(crate) fn new(collector: Arc<TraceCollector>) -> RouterTracer {
        RouterTracer { collector, open: InFlight::new(), last: Vec::new() }
    }

    fn open_episode(&mut self, seq: u64, tick: u64, resend_from: Option<u64>) {
        let id = self.collector.batch().start_with(
            TraceId(seq),
            None,
            SpanKind::Route,
            ClockDomain::Fleet,
            tick,
            resend_from.map(|from| ("resend_from", from)).as_slice(),
        );
        self.open.insert(seq, id);
    }

    pub(crate) fn on_submit(&mut self, seq: u64, tick: u64) {
        self.open_episode(seq, tick, None);
    }

    pub(crate) fn on_resend(&mut self, seq: u64, tick: u64, from_shard: u64) {
        self.open_episode(seq, tick, Some(from_shard));
    }

    pub(crate) fn on_retry(&mut self, seq: u64, shard: u64, attempt: u64, due: u64, tick: u64) {
        let parent = self.open.get(seq).copied();
        self.collector.instant(
            TraceId(seq),
            parent,
            SpanKind::Retry,
            ClockDomain::Fleet,
            tick,
            &[("shard", shard), ("attempt", attempt), ("due", due)],
        );
    }

    pub(crate) fn on_breaker(&mut self, shard: u64, state: u64, tick: u64) {
        self.collector.instant(
            TraceId::SYSTEM,
            None,
            SpanKind::Breaker,
            ClockDomain::Fleet,
            tick,
            &[("shard", shard), ("state", state)],
        );
    }

    /// Closes `seq`'s episode; `args` lead with its `outcome` code.
    fn close(&mut self, seq: u64, tick: u64, args: &[(&'static str, u64)]) {
        let Some(id) = self.open.remove(seq) else {
            return;
        };
        self.collector.batch().end_with(id, tick, args);
        let slot = seq as usize;
        if slot >= self.last.len() {
            self.last.resize(slot + 1, None);
        }
        self.last[slot] = Some(id);
    }

    pub(crate) fn on_delivered(&mut self, seq: u64, shard: u64, attempt: u64, tick: u64) {
        self.close(
            seq,
            tick,
            &[("outcome", outcome_code::DELIVERED), ("shard", shard), ("attempt", attempt)],
        );
    }

    pub(crate) fn on_shed(&mut self, seq: u64, shard: u64, tick: u64) {
        self.close(seq, tick, &[("outcome", outcome_code::SHED), ("shard", shard)]);
    }

    pub(crate) fn on_failed(&mut self, seq: u64, reason: u64, tick: u64) {
        self.close(seq, tick, &[("outcome", outcome_code::FAILED), ("reason", reason)]);
    }

    /// The closed route span a delivery of `seq` came from.
    pub(crate) fn route_parent(&self, seq: u64) -> Option<SpanId> {
        self.last.get(seq as usize).copied().flatten()
    }
}
