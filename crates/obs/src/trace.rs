//! Causal tracing: spans with parent links on deterministic tick
//! clocks, a bounded collector, a well-formedness checker and a Chrome
//! trace-event exporter (DESIGN §11).
//!
//! A *trace* follows one fleet request end to end: the router's routing
//! decision, retries and breaker transitions on the fleet clock, then
//! the shard-side life of the job it became — enqueue (delivery to
//! `ReadEnd`), dispatch wait, execution — on that shard's local clock,
//! plus journal commits and, across a failover, the successor shard's
//! replayed continuation. Spans therefore live in an explicit
//! [`ClockDomain`]; instants from different domains are never compared.
//!
//! The collector is bounded exactly like
//! [`SpanLog`](crate::span::SpanLog): a ring of closed spans with a
//! displacement counter, so tracing can stay attached to a long
//! campaign without growing without bound, and truncation is visible
//! rather than silent.

use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::sync::{Arc, Mutex};

use crate::metrics::Counter;
use crate::registry::Registry;

/// Identifies one causally-related request trace. The fleet derives it
/// deterministically from the request's sequence number.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TraceId(pub u64);

impl TraceId {
    /// The reserved trace for system activity that belongs to no single
    /// request: breaker transitions, heartbeats, migration summaries.
    pub const SYSTEM: TraceId = TraceId(u64::MAX);
}

impl fmt::Display for TraceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if *self == TraceId::SYSTEM {
            f.write_str("system")
        } else {
            write!(f, "t{}", self.0)
        }
    }
}

/// Identifies one span within a collector, unique across traces.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SpanId(pub u64);

impl fmt::Display for SpanId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}", self.0)
    }
}

/// The clock a span's `start`/`end` ticks are read from. Shard-local
/// clocks advance independently (per-marker costs), so instants are
/// only comparable within one domain.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ClockDomain {
    /// The fleet supervisor's tick clock (router, health checks).
    Fleet,
    /// Shard `n`'s local marker-cost clock.
    Shard(usize),
}

impl fmt::Display for ClockDomain {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClockDomain::Fleet => f.write_str("fleet"),
            ClockDomain::Shard(s) => write!(f, "shard{s}"),
        }
    }
}

/// What a span measures. The request-phase kinds (`Enqueue`,
/// `DispatchWait`, `Execute`) partition a job's observed response time;
/// the attribution engine (`crate::attribution`) relies on that.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SpanKind {
    /// Router: submission to terminal routing outcome (fleet clock).
    Route,
    /// Router: one scheduled retry attempt (instant, child of `Route`).
    Retry,
    /// Router: a circuit-breaker transition (system trace, instant).
    Breaker,
    /// Shard: delivery on a socket until the `ReadEnd` commit — the
    /// observable release jitter.
    Enqueue,
    /// Shard: `ReadEnd` commit until the `Dispatch` commit — the wait
    /// window the recurrence's interference/blocking terms bound.
    DispatchWait,
    /// Shard: `Dispatch` commit until the `Completion` commit — own
    /// execution plus the completion action.
    Execute,
    /// Shard: a mode-switch suspension charged by the scheduler.
    Suspension,
    /// Shard: a journal append of a request-relevant marker (instant).
    JournalAppend,
    /// Shard: the journal commit sealing that append (instant).
    JournalCommit,
    /// Fleet: a health-check heartbeat observation (system trace).
    Heartbeat,
    /// Fleet: one failover's journal-replay migration window.
    Migrate,
}

impl SpanKind {
    /// Stable lower-case name, used by exporters and reports.
    pub fn name(&self) -> &'static str {
        match self {
            SpanKind::Route => "route",
            SpanKind::Retry => "retry",
            SpanKind::Breaker => "breaker",
            SpanKind::Enqueue => "enqueue",
            SpanKind::DispatchWait => "dispatch-wait",
            SpanKind::Execute => "execute",
            SpanKind::Suspension => "suspension",
            SpanKind::JournalAppend => "journal-append",
            SpanKind::JournalCommit => "journal-commit",
            SpanKind::Heartbeat => "heartbeat",
            SpanKind::Migrate => "migrate",
        }
    }
}

impl fmt::Display for SpanKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One recorded span: a `[start, end]` window on one clock domain,
/// causally placed by its parent link and (optionally) a cross-domain
/// causal link (migration seams).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// The trace this span belongs to.
    pub trace: TraceId,
    /// Collector-unique id.
    pub id: SpanId,
    /// The causally enclosing span, if any (may live in another
    /// domain — e.g. a shard `Enqueue` under a fleet `Route`).
    pub parent: Option<SpanId>,
    /// A causal predecessor in the *same trace* but another domain:
    /// a migrated job's successor span links back to the span it
    /// continues on the dead shard.
    pub link: Option<SpanId>,
    /// What the span measures.
    pub kind: SpanKind,
    /// The clock its instants are read from.
    pub domain: ClockDomain,
    /// Opening instant (domain ticks).
    pub start: u64,
    /// Closing instant (domain ticks); `>= start` once closed.
    pub end: u64,
    /// `true` when the span was still open at run end and was stamped
    /// by [`TraceCollector::finish`] rather than closed by its emitter.
    pub truncated: bool,
    /// Small numeric annotations (task, priority, seq, byte offsets…).
    pub args: Vec<(&'static str, u64)>,
}

impl Span {
    /// The span's length in domain ticks (0 for instants).
    pub fn len(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }

    /// `true` iff the span is zero-length.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The first annotation under `key`, if any.
    pub fn arg(&self, key: &str) -> Option<u64> {
        self.args.iter().find(|(k, _)| *k == key).map(|&(_, v)| v)
    }
}

/// A span as the collector keeps it: everything but its annotations,
/// which sit in a buffer of their own while it is open and in
/// `CollectorInner::args` once it is closed. Recording a span thus
/// allocates nothing; [`TraceCollector::drain`] builds the [`Span`]s.
#[derive(Debug, Clone, Copy)]
struct Rec {
    trace: TraceId,
    id: SpanId,
    parent: Option<SpanId>,
    link: Option<SpanId>,
    kind: SpanKind,
    domain: ClockDomain,
    start: u64,
    end: u64,
    truncated: bool,
    /// Annotations in `CollectorInner::args` (closed spans only).
    n_args: usize,
}

/// An open span and the annotations gathered so far.
#[derive(Debug)]
struct Open {
    rec: Rec,
    args: Vec<(&'static str, u64)>,
}

#[derive(Debug, Default)]
struct CollectorInner {
    /// The next span id to hand out.
    next: u64,
    open: Vec<Open>,
    /// Closed spans, oldest first.
    closed: VecDeque<Rec>,
    /// The annotations of `closed`, span after span.
    args: VecDeque<(&'static str, u64)>,
    /// Emptied annotation buffers of closed spans, for the spans opened
    /// next.
    spare: Vec<Vec<(&'static str, u64)>>,
}

/// A bounded concurrent span collector: open spans are tracked until
/// closed, closed spans sit in a ring of capacity `cap` (oldest
/// displaced first, counted). Span ids are allocated in lock order
/// from a single counter, so a single-threaded drive records
/// deterministically.
#[derive(Debug)]
pub struct TraceCollector {
    inner: Mutex<CollectorInner>,
    cap: usize,
    recorded: Arc<Counter>,
    displaced: Arc<Counter>,
}

/// Default closed-span ring capacity.
pub const DEFAULT_TRACE_CAP: usize = 16 * 1024;

impl Default for TraceCollector {
    fn default() -> TraceCollector {
        TraceCollector::new(DEFAULT_TRACE_CAP)
    }
}

impl TraceCollector {
    /// A collector keeping at most `cap` closed spans.
    pub fn new(cap: usize) -> TraceCollector {
        TraceCollector {
            inner: Mutex::new(CollectorInner::default()),
            cap: cap.max(1),
            recorded: Arc::new(Counter::new()),
            displaced: Arc::new(Counter::new()),
        }
    }

    /// Like [`TraceCollector::new`], but binds the recorded/displaced
    /// counters into `registry` (as `{prefix}.recorded` and
    /// `{prefix}.displaced`) so snapshot exports make truncation
    /// visible.
    pub fn registered(cap: usize, registry: &Registry, prefix: &str) -> TraceCollector {
        let mut c = TraceCollector::new(cap);
        c.recorded = registry.counter(&format!("{prefix}.recorded"));
        c.displaced = registry.counter(&format!("{prefix}.displaced"));
        c
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, CollectorInner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Opens a span at `start` and returns its id.
    pub fn start(
        &self,
        trace: TraceId,
        parent: Option<SpanId>,
        kind: SpanKind,
        domain: ClockDomain,
        start: u64,
    ) -> SpanId {
        self.batch().start_with(trace, parent, kind, domain, start, &[])
    }

    /// Records an already-closed (possibly zero-length) span carrying
    /// `args`.
    pub fn instant(
        &self,
        trace: TraceId,
        parent: Option<SpanId>,
        kind: SpanKind,
        domain: ClockDomain,
        at: u64,
        args: &[(&'static str, u64)],
    ) -> SpanId {
        self.batch().instant(trace, parent, kind, domain, at, args)
    }

    /// Adds a numeric annotation to an open span (no-op once closed).
    pub fn annotate(&self, id: SpanId, key: &'static str, value: u64) {
        self.batch().annotate(id, key, value);
    }

    /// Links an open span to its causal predecessor `target` (same
    /// trace, another clock domain — the migration seam).
    pub fn link(&self, id: SpanId, target: SpanId) {
        self.batch().link(id, target);
    }

    /// Closes span `id` at `end`. Unknown ids are ignored (the span may
    /// have been displaced or double-closed by a crashing emitter).
    pub fn end(&self, id: SpanId, end: u64) {
        self.batch().end(id, end);
    }

    /// Holds the collector's lock for several span operations in a row
    /// (a tracer hook that closes one phase and opens the next). Each
    /// [`SpanBatch`] method records exactly what the collector method of
    /// the same name does; `start_with` and `end_with` are `start` and
    /// `end` that also annotate the span.
    pub fn batch(&self) -> SpanBatch<'_> {
        SpanBatch { collector: self, inner: self.lock(), closed: 0 }
    }

    /// Closes every still-open span as *truncated*, stamping its end
    /// from `end_of(domain)` — the final clock reading of the span's
    /// domain. Call once when the run stops.
    pub fn finish(&self, end_of: impl Fn(&ClockDomain) -> u64) {
        let mut batch = self.batch();
        for Open { mut rec, args } in std::mem::take(&mut batch.inner.open) {
            rec.end = rec.start.max(end_of(&rec.domain));
            rec.truncated = true;
            batch.close(rec, args, &[]);
        }
    }

    /// Removes and returns every closed span, oldest first.
    pub fn drain(&self) -> Vec<Span> {
        let mut inner = self.lock();
        let CollectorInner { closed, args, .. } = &mut *inner;
        closed
            .drain(..)
            .map(|rec| Span {
                trace: rec.trace,
                id: rec.id,
                parent: rec.parent,
                link: rec.link,
                kind: rec.kind,
                domain: rec.domain,
                start: rec.start,
                end: rec.end,
                truncated: rec.truncated,
                args: args.drain(..rec.n_args).collect(),
            })
            .collect()
    }

    /// Spans closed so far (including truncated ones).
    pub fn recorded(&self) -> u64 {
        self.recorded.get()
    }

    /// Closed spans displaced from the ring so far.
    pub fn displaced(&self) -> u64 {
        self.displaced.get()
    }

    /// Spans currently open.
    pub fn open_count(&self) -> usize {
        self.lock().open.len()
    }
}

/// The collector's lock held across several span operations; see
/// [`TraceCollector::batch`].
#[derive(Debug)]
pub struct SpanBatch<'a> {
    collector: &'a TraceCollector,
    inner: std::sync::MutexGuard<'a, CollectorInner>,
    /// Spans this batch closed, added to the `recorded` counter once
    /// when it drops.
    closed: u64,
}

impl Drop for SpanBatch<'_> {
    fn drop(&mut self) {
        if self.closed > 0 {
            self.collector.recorded.add(self.closed);
        }
    }
}

impl SpanBatch<'_> {
    fn new_rec(
        &mut self,
        trace: TraceId,
        parent: Option<SpanId>,
        kind: SpanKind,
        domain: ClockDomain,
        start: u64,
    ) -> Rec {
        let id = SpanId(self.inner.next);
        self.inner.next += 1;
        Rec {
            trace,
            id,
            parent,
            link: None,
            kind,
            domain,
            start,
            end: start,
            truncated: false,
            n_args: 0,
        }
    }

    /// Moves `rec` into the closed ring with its annotations `args`
    /// followed by `extra`, displacing the oldest closed span when the
    /// ring is full; the emptied `args` buffer is kept for reuse.
    fn close(
        &mut self,
        mut rec: Rec,
        mut args: Vec<(&'static str, u64)>,
        extra: &[(&'static str, u64)],
    ) {
        self.closed += 1;
        let inner = &mut *self.inner;
        if inner.closed.len() == self.collector.cap {
            if let Some(old) = inner.closed.pop_front() {
                inner.args.drain(..old.n_args);
            }
            self.collector.displaced.inc();
        }
        rec.n_args = args.len() + extra.len();
        inner.args.extend(args.iter().copied());
        inner.args.extend(extra.iter().copied());
        if args.capacity() > 0 {
            args.clear();
            inner.spare.push(args);
        }
        inner.closed.push_back(rec);
    }

    /// [`TraceCollector::start`], then one
    /// [`TraceCollector::annotate`] per entry of `args`.
    pub fn start_with(
        &mut self,
        trace: TraceId,
        parent: Option<SpanId>,
        kind: SpanKind,
        domain: ClockDomain,
        start: u64,
        args: &[(&'static str, u64)],
    ) -> SpanId {
        let rec = self.new_rec(trace, parent, kind, domain, start);
        let mut buf = self.inner.spare.pop().unwrap_or_default();
        buf.extend_from_slice(args);
        self.inner.open.push(Open { rec, args: buf });
        rec.id
    }

    /// [`TraceCollector::instant`] under the held lock.
    pub fn instant(
        &mut self,
        trace: TraceId,
        parent: Option<SpanId>,
        kind: SpanKind,
        domain: ClockDomain,
        at: u64,
        args: &[(&'static str, u64)],
    ) -> SpanId {
        let rec = self.new_rec(trace, parent, kind, domain, at);
        self.close(rec, Vec::new(), args);
        rec.id
    }

    /// [`TraceCollector::end`] under the held lock.
    pub fn end(&mut self, id: SpanId, end: u64) {
        self.end_with(id, end, &[]);
    }

    /// One [`TraceCollector::annotate`] per entry of `args`, then
    /// [`TraceCollector::end`].
    pub fn end_with(&mut self, id: SpanId, end: u64, args: &[(&'static str, u64)]) {
        if let Some(pos) = self.inner.open.iter().position(|o| o.rec.id == id) {
            let Open { mut rec, args: own } = self.inner.open.swap_remove(pos);
            rec.end = rec.start.max(end);
            self.close(rec, own, args);
        }
    }

    /// [`TraceCollector::annotate`] under the held lock.
    pub fn annotate(&mut self, id: SpanId, key: &'static str, value: u64) {
        if let Some(o) = self.open_mut(id) {
            o.args.push((key, value));
        }
    }

    /// [`TraceCollector::link`] under the held lock.
    pub fn link(&mut self, id: SpanId, target: SpanId) {
        if let Some(o) = self.open_mut(id) {
            o.rec.link = Some(target);
        }
    }

    fn open_mut(&mut self, id: SpanId) -> Option<&mut Open> {
        self.inner.open.iter_mut().find(|o| o.rec.id == id)
    }
}

// ---------------------------------------------------------------------
// Well-formedness
// ---------------------------------------------------------------------

/// One violation of trace well-formedness.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceDefect {
    /// A span closed before it opened (`end < start`) — clock ran
    /// backwards or the emitter mixed domains.
    EndBeforeStart {
        /// The offending span.
        span: SpanId,
    },
    /// A span names a parent that is nowhere in its trace.
    MissingParent {
        /// The child span.
        span: SpanId,
        /// The absent parent id.
        parent: SpanId,
    },
    /// A child escapes its same-domain parent's window.
    NestingViolation {
        /// The child span.
        span: SpanId,
        /// Its parent.
        parent: SpanId,
    },
    /// Adjacent request phases disagree on their shared boundary
    /// (e.g. `enqueue.end != dispatch_wait.start`).
    PhaseMismatch {
        /// The trace whose phases disagree.
        trace: TraceId,
        /// The earlier phase.
        earlier: SpanKind,
        /// The later phase.
        later: SpanKind,
    },
    /// A phase span was left open (truncated at run end) even though a
    /// successor phase started — its emitter forgot to close it.
    OrphanPhase {
        /// The trace carrying the orphan.
        trace: TraceId,
        /// The orphaned (truncated) phase.
        kind: SpanKind,
    },
    /// A causal link names a span that is nowhere in the same trace.
    DanglingLink {
        /// The linking span.
        span: SpanId,
        /// The absent link target.
        target: SpanId,
    },
}

impl fmt::Display for TraceDefect {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceDefect::EndBeforeStart { span } => write!(f, "{span}: end before start"),
            TraceDefect::MissingParent { span, parent } => {
                write!(f, "{span}: parent {parent} missing from trace")
            }
            TraceDefect::NestingViolation { span, parent } => {
                write!(f, "{span}: escapes parent {parent}'s window")
            }
            TraceDefect::PhaseMismatch { trace, earlier, later } => {
                write!(f, "{trace}: {earlier} does not hand off to {later} at one instant")
            }
            TraceDefect::OrphanPhase { trace, kind } => {
                write!(f, "{trace}: {kind} span left open after its successor phase began")
            }
            TraceDefect::DanglingLink { span, target } => {
                write!(f, "{span}: causal link to missing span {target}")
            }
        }
    }
}

/// The result of checking a drained trace set.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceCheck {
    /// Distinct traces seen (including the system trace).
    pub traces: usize,
    /// Spans checked.
    pub spans: usize,
    /// All violations found (empty iff well-formed).
    pub defects: Vec<TraceDefect>,
}

impl TraceCheck {
    /// `true` iff no defect was found.
    pub fn is_ok(&self) -> bool {
        self.defects.is_empty()
    }
}

/// Checks the structural invariants of a drained span set:
///
/// 1. every span is closed with `end >= start`;
/// 2. parent links resolve within the trace, and a child in the *same*
///    clock domain as its parent stays inside the parent's window;
/// 3. request phases hand off exactly: within one `(trace, domain)`,
///    `enqueue.end == first wait.start` and each `execute.start` equals
///    the latest preceding `wait.end` (the attribution engine's
///    exactness rests on this);
/// 4. a truncated `Enqueue`/`DispatchWait` with a live successor phase
///    in the same domain is an orphan — its emitter skipped the close;
/// 5. causal links resolve within the trace.
///
/// Pass the collector's [`displaced`](TraceCollector::displaced) count:
/// once spans have been displaced, missing-parent/link and phase checks
/// are skipped (their counterpart may simply have fallen out of the
/// ring), while per-span and nesting checks still run.
pub fn check_trace(spans: &[Span], displaced: u64) -> TraceCheck {
    let mut defects = Vec::new();
    let by_id: HashMap<SpanId, &Span> = spans.iter().map(|s| (s.id, s)).collect();
    let complete = displaced == 0;

    for s in spans {
        if s.end < s.start {
            defects.push(TraceDefect::EndBeforeStart { span: s.id });
        }
        if let Some(pid) = s.parent {
            match by_id.get(&pid) {
                None if complete => {
                    defects.push(TraceDefect::MissingParent { span: s.id, parent: pid });
                }
                Some(p)
                    if p.domain == s.domain
                        && !p.truncated
                        && !s.truncated
                        && (s.start < p.start || s.end > p.end) =>
                {
                    defects.push(TraceDefect::NestingViolation { span: s.id, parent: pid });
                }
                _ => {}
            }
        }
        if let Some(target) = s.link {
            let ok = by_id.get(&target).is_some_and(|t| t.trace == s.trace);
            if complete && !ok {
                defects.push(TraceDefect::DanglingLink { span: s.id, target });
            }
        }
    }

    // Phase handoff per (trace, domain).
    let mut groups: HashMap<(TraceId, ClockDomain), Vec<&Span>> = HashMap::new();
    for s in spans {
        if matches!(s.kind, SpanKind::Enqueue | SpanKind::DispatchWait | SpanKind::Execute) {
            groups.entry((s.trace, s.domain)).or_default().push(s);
        }
    }
    let traces: std::collections::HashSet<TraceId> = spans.iter().map(|s| s.trace).collect();
    if complete {
        for ((trace, _), mut group) in groups {
            group.sort_by_key(|s| (s.start, s.id));
            let enqueue = group.iter().find(|s| s.kind == SpanKind::Enqueue);
            let waits: Vec<&&Span> =
                group.iter().filter(|s| s.kind == SpanKind::DispatchWait).collect();
            let execs: Vec<&&Span> = group.iter().filter(|s| s.kind == SpanKind::Execute).collect();
            if let (Some(enq), Some(first_wait)) = (enqueue, waits.first()) {
                if enq.truncated {
                    defects.push(TraceDefect::OrphanPhase { trace, kind: SpanKind::Enqueue });
                } else if enq.end != first_wait.start {
                    defects.push(TraceDefect::PhaseMismatch {
                        trace,
                        earlier: SpanKind::Enqueue,
                        later: SpanKind::DispatchWait,
                    });
                }
            }
            for exec in &execs {
                // The wait that handed off to this execution: the last
                // wait opening at or before it.
                let handoff = waits.iter().rev().find(|w| w.start <= exec.start);
                match handoff {
                    Some(w) if w.truncated => {
                        defects
                            .push(TraceDefect::OrphanPhase { trace, kind: SpanKind::DispatchWait });
                    }
                    Some(w) if w.end != exec.start => {
                        defects.push(TraceDefect::PhaseMismatch {
                            trace,
                            earlier: SpanKind::DispatchWait,
                            later: SpanKind::Execute,
                        });
                    }
                    _ => {}
                }
            }
        }
    }

    TraceCheck { traces: traces.len(), spans: spans.len(), defects }
}

// ---------------------------------------------------------------------
// Chrome trace-event export
// ---------------------------------------------------------------------

fn chrome_pid(domain: &ClockDomain) -> u64 {
    match domain {
        ClockDomain::Fleet => 0,
        ClockDomain::Shard(s) => 1 + *s as u64,
    }
}

/// Renders spans as Chrome trace-event JSON (the `traceEvents` array
/// format Perfetto and `chrome://tracing` load). Each span becomes a
/// complete (`"X"`) event — pid encodes the clock domain, tid the
/// trace — and each causal link becomes a flow (`"s"`/`"f"`) pair
/// across the migration seam.
pub fn render_chrome_trace(spans: &[Span]) -> String {
    let mut out = String::with_capacity(spans.len() * 160 + 64);
    out.push_str("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[");
    let mut first = true;
    let mut push = |out: &mut String, ev: String| {
        if !std::mem::take(&mut first) {
            out.push(',');
        }
        out.push_str(&ev);
    };
    let by_id: HashMap<SpanId, &Span> = spans.iter().map(|s| (s.id, s)).collect();
    for s in spans {
        let mut args = format!("\"trace\":{},\"span\":{}", s.trace.0, s.id.0);
        if let Some(p) = s.parent {
            args.push_str(&format!(",\"parent\":{}", p.0));
        }
        if s.truncated {
            args.push_str(",\"truncated\":1");
        }
        for (k, v) in &s.args {
            args.push_str(&format!(",\"{k}\":{v}"));
        }
        push(
            &mut out,
            format!(
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\
                 \"pid\":{},\"tid\":{},\"args\":{{{args}}}}}",
                s.kind.name(),
                s.domain,
                s.start,
                s.len(),
                chrome_pid(&s.domain),
                s.trace.0 & 0x7fff_ffff,
            ),
        );
        if let Some(target) = s.link {
            if let Some(t) = by_id.get(&target) {
                push(
                    &mut out,
                    format!(
                        "{{\"name\":\"migrate\",\"cat\":\"link\",\"ph\":\"s\",\"id\":{},\
                         \"ts\":{},\"pid\":{},\"tid\":{}}}",
                        s.id.0,
                        t.end,
                        chrome_pid(&t.domain),
                        t.trace.0 & 0x7fff_ffff,
                    ),
                );
                push(
                    &mut out,
                    format!(
                        "{{\"name\":\"migrate\",\"cat\":\"link\",\"ph\":\"f\",\"bp\":\"e\",\
                         \"id\":{},\"ts\":{},\"pid\":{},\"tid\":{}}}",
                        s.id.0,
                        s.start,
                        chrome_pid(&s.domain),
                        s.trace.0 & 0x7fff_ffff,
                    ),
                );
            }
        }
    }
    out.push_str("]}");
    out
}

/// One event parsed back from Chrome trace-event JSON.
#[derive(Debug, Clone, PartialEq)]
pub struct ChromeEvent {
    /// The event name (the span kind for `"X"` events).
    pub name: String,
    /// The phase tag (`"X"`, `"s"`, `"f"`, …).
    pub ph: String,
    /// Timestamp (ticks).
    pub ts: u64,
    /// Duration for complete events.
    pub dur: Option<u64>,
    /// Process id (clock domain).
    pub pid: u64,
    /// Thread id (trace lane).
    pub tid: u64,
}

/// Why parsing a Chrome trace-event file failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ChromeParseError {
    /// The document is not syntactically valid JSON.
    Syntax(
        /// Byte offset where parsing failed.
        usize,
    ),
    /// The document parses but lacks a `traceEvents` array.
    NoTraceEvents,
    /// An event is missing a required field or has it at the wrong
    /// type.
    BadEvent(
        /// Index of the offending event.
        usize,
    ),
}

impl fmt::Display for ChromeParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ChromeParseError::Syntax(at) => write!(f, "invalid JSON at byte {at}"),
            ChromeParseError::NoTraceEvents => f.write_str("no traceEvents array"),
            ChromeParseError::BadEvent(i) => write!(f, "event {i} malformed"),
        }
    }
}

impl std::error::Error for ChromeParseError {}

// A minimal JSON value model — the vendored serde shim is a no-op, so
// the round-trip validation parses by hand.
#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 => Some(*n as u64),
            _ => None,
        }
    }

    fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }
}

struct JsonParser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> JsonParser<'a> {
    fn new(text: &'a str) -> JsonParser<'a> {
        JsonParser { bytes: text.as_bytes(), pos: 0 }
    }

    fn err<T>(&self) -> Result<T, ChromeParseError> {
        Err(ChromeParseError::Syntax(self.pos))
    }

    fn skip_ws(&mut self) {
        while self.bytes.get(self.pos).is_some_and(|b| b.is_ascii_whitespace()) {
            self.pos += 1;
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, b: u8) -> Result<(), ChromeParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            self.err()
        }
    }

    fn value(&mut self) -> Result<Json, ChromeParseError> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => self.string().map(Json::Str),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => self.err(),
        }
    }

    fn literal(&mut self, lit: &str, val: Json) -> Result<Json, ChromeParseError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(val)
        } else {
            self.err()
        }
    }

    fn number(&mut self) -> Result<Json, ChromeParseError> {
        let start = self.pos;
        if self.bytes.get(self.pos) == Some(&b'-') {
            self.pos += 1;
        }
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| b.is_ascii_digit() || matches!(b, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.pos += 1;
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .ok()
            .and_then(|s| s.parse::<f64>().ok())
            .map(Json::Num)
            .ok_or(ChromeParseError::Syntax(start))
    }

    fn string(&mut self) -> Result<String, ChromeParseError> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            match self.bytes.get(self.pos) {
                None => return self.err(),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.bytes.get(self.pos) {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b't') => out.push('\t'),
                        Some(b'r') => out.push('\r'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .and_then(char::from_u32);
                            match hex {
                                Some(c) => {
                                    out.push(c);
                                    self.pos += 4;
                                }
                                None => return self.err(),
                            }
                        }
                        _ => return self.err(),
                    }
                    self.pos += 1;
                }
                Some(&b) => {
                    // Multi-byte UTF-8 sequences pass through verbatim.
                    let len = match b {
                        0x00..=0x7f => 1,
                        0xc0..=0xdf => 2,
                        0xe0..=0xef => 3,
                        _ => 4,
                    };
                    match self.bytes.get(self.pos..self.pos + len) {
                        Some(chunk) => match std::str::from_utf8(chunk) {
                            Ok(s) => {
                                out.push_str(s);
                                self.pos += len;
                            }
                            Err(_) => return self.err(),
                        },
                        None => return self.err(),
                    }
                }
            }
        }
    }

    fn array(&mut self) -> Result<Json, ChromeParseError> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return self.err(),
            }
        }
    }

    fn object(&mut self) -> Result<Json, ChromeParseError> {
        self.eat(b'{')?;
        let mut fields = Vec::new();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.eat(b':')?;
            fields.push((key, self.value()?));
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return self.err(),
            }
        }
    }
}

/// Parses a Chrome trace-event JSON document (as written by
/// [`render_chrome_trace`], but tolerant of any conforming emitter)
/// back into its event list — the serde-free round-trip check CI runs
/// on the exported artifact.
///
/// # Errors
///
/// Returns [`ChromeParseError`] when the document is not valid JSON,
/// lacks a `traceEvents` array, or an event is missing `name`/`ph`/
/// `ts`/`pid`/`tid`.
pub fn parse_chrome_trace(text: &str) -> Result<Vec<ChromeEvent>, ChromeParseError> {
    let mut parser = JsonParser::new(text);
    let doc = parser.value()?;
    parser.skip_ws();
    if parser.pos != parser.bytes.len() {
        return Err(ChromeParseError::Syntax(parser.pos));
    }
    let events = match &doc {
        // Both container formats are legal: an object with
        // `traceEvents`, or the bare array.
        Json::Arr(items) => items.as_slice(),
        _ => match doc.get("traceEvents") {
            Some(Json::Arr(items)) => items.as_slice(),
            _ => return Err(ChromeParseError::NoTraceEvents),
        },
    };
    events
        .iter()
        .enumerate()
        .map(|(i, ev)| {
            let field = |k: &str| ev.get(k).ok_or(ChromeParseError::BadEvent(i));
            Ok(ChromeEvent {
                name: field("name")?.as_str().ok_or(ChromeParseError::BadEvent(i))?.to_string(),
                ph: field("ph")?.as_str().ok_or(ChromeParseError::BadEvent(i))?.to_string(),
                ts: field("ts")?.as_u64().ok_or(ChromeParseError::BadEvent(i))?,
                dur: ev.get("dur").and_then(Json::as_u64),
                pid: field("pid")?.as_u64().ok_or(ChromeParseError::BadEvent(i))?,
                tid: field("tid")?.as_u64().ok_or(ChromeParseError::BadEvent(i))?,
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn collector() -> TraceCollector {
        TraceCollector::new(64)
    }

    /// Records a clean three-phase request trace on shard 0, under a
    /// fleet-domain route span.
    fn record_request(c: &TraceCollector, seq: u64) -> TraceId {
        let t = TraceId(seq);
        let route = c.start(t, None, SpanKind::Route, ClockDomain::Fleet, 10);
        let enq = c.start(t, Some(route), SpanKind::Enqueue, ClockDomain::Shard(0), 100);
        c.end(enq, 104);
        let wait = c.start(t, Some(route), SpanKind::DispatchWait, ClockDomain::Shard(0), 104);
        c.end(wait, 110);
        let exec = c.start(t, Some(route), SpanKind::Execute, ClockDomain::Shard(0), 110);
        c.annotate(exec, "task", 1);
        c.end(exec, 115);
        c.end(route, 12);
        t
    }

    #[test]
    fn clean_trace_is_well_formed() {
        let c = collector();
        record_request(&c, 7);
        let spans = c.drain();
        assert_eq!(spans.len(), 4);
        let check = check_trace(&spans, c.displaced());
        assert!(check.is_ok(), "{:?}", check.defects);
        assert_eq!(check.traces, 1);
    }

    #[test]
    fn ring_displaces_and_counts() {
        let c = TraceCollector::new(2);
        // Annotations of several lengths: a displaced span takes exactly
        // its own annotations with it, and a span opened after another
        // closed starts with none of the closed one's.
        let args = [("a", 1), ("b", 2), ("c", 3)];
        for i in 0..4 {
            let n = i as usize % 3;
            c.instant(TraceId(i), None, SpanKind::Heartbeat, ClockDomain::Fleet, i, &args[..n]);
        }
        let fleet = ClockDomain::Fleet;
        let s = c.batch().start_with(TraceId(8), None, SpanKind::Route, fleet, 4, &args);
        c.batch().end_with(s, 5, &[("d", 4)]);
        let s = c.start(TraceId(9), None, SpanKind::Route, fleet, 6);
        c.end(s, 7);
        assert_eq!(c.recorded(), 6);
        assert_eq!(c.displaced(), 4);
        let kept: Vec<_> = c.drain().into_iter().map(|s| (s.trace, s.args)).collect();
        let all = vec![("a", 1), ("b", 2), ("c", 3), ("d", 4)];
        assert_eq!(kept, [(TraceId(8), all), (TraceId(9), vec![])]);
    }

    #[test]
    fn batch_records_the_same_spans_as_single_calls() {
        let sh = ClockDomain::Shard(1);
        let t = TraceId(4);
        let single = collector();
        let e = single.start(t, None, SpanKind::Enqueue, sh, 3);
        single.annotate(e, "latency", 2);
        single.link(e, SpanId(9));
        single.end(e, 5);
        single.instant(t, Some(e), SpanKind::JournalAppend, sh, 5, &[("commit", 1)]);
        let w = single.start(t, None, SpanKind::DispatchWait, sh, 5);
        single.annotate(w, "task", 0);
        single.annotate(w, "job", 7);
        single.end(w, 8);

        let batched = collector();
        {
            let mut b = batched.batch();
            let e = b.start_with(t, None, SpanKind::Enqueue, sh, 3, &[("latency", 2)]);
            b.link(e, SpanId(9));
            b.end(e, 5);
            b.instant(t, Some(e), SpanKind::JournalAppend, sh, 5, &[("commit", 1)]);
            let w = b.start_with(t, None, SpanKind::DispatchWait, sh, 5, &[("task", 0)]);
            b.end_with(w, 8, &[("job", 7)]);
        }
        assert_eq!(batched.recorded(), single.recorded());
        assert_eq!(batched.drain(), single.drain());
    }

    #[test]
    fn finish_truncates_open_spans() {
        let c = collector();
        let t = TraceId(1);
        c.start(t, None, SpanKind::Enqueue, ClockDomain::Shard(2), 50);
        c.finish(|d| match d {
            ClockDomain::Shard(2) => 80,
            _ => 0,
        });
        let spans = c.drain();
        assert_eq!(spans.len(), 1);
        assert!(spans[0].truncated);
        assert_eq!(spans[0].end, 80);
        // A truncated enqueue with no successor phase is legitimate.
        assert!(check_trace(&spans, 0).is_ok());
    }

    #[test]
    fn orphan_enqueue_is_flagged() {
        let c = collector();
        let t = TraceId(3);
        // Enqueue never closed, but the wait phase began: the emitter
        // skipped the close — exactly `SeededBug::OrphanSpan`.
        c.start(t, None, SpanKind::Enqueue, ClockDomain::Shard(0), 100);
        let wait = c.start(t, None, SpanKind::DispatchWait, ClockDomain::Shard(0), 104);
        c.end(wait, 110);
        c.finish(|_| 200);
        let spans = c.drain();
        let check = check_trace(&spans, 0);
        assert!(check
            .defects
            .iter()
            .any(|d| matches!(d, TraceDefect::OrphanPhase { kind: SpanKind::Enqueue, .. })));
    }

    #[test]
    fn phase_mismatch_is_flagged() {
        let c = collector();
        let t = TraceId(4);
        let enq = c.start(t, None, SpanKind::Enqueue, ClockDomain::Shard(0), 100);
        c.end(enq, 103); // should hand off at 104
        let wait = c.start(t, None, SpanKind::DispatchWait, ClockDomain::Shard(0), 104);
        c.end(wait, 110);
        let spans = c.drain();
        let check = check_trace(&spans, 0);
        assert!(check
            .defects
            .iter()
            .any(|d| matches!(d, TraceDefect::PhaseMismatch { .. })));
    }

    #[test]
    fn nesting_and_links_are_checked() {
        let c = collector();
        let t = TraceId(5);
        let parent = c.start(t, None, SpanKind::Route, ClockDomain::Fleet, 10);
        let child = c.start(t, Some(parent), SpanKind::Retry, ClockDomain::Fleet, 8);
        c.end(child, 9);
        c.end(parent, 20);
        let spans = c.drain();
        let check = check_trace(&spans, 0);
        assert!(check
            .defects
            .iter()
            .any(|d| matches!(d, TraceDefect::NestingViolation { .. })));

        // Dangling link.
        let c = collector();
        let s = c.start(TraceId(6), None, SpanKind::Enqueue, ClockDomain::Shard(1), 0);
        c.link(s, SpanId(999));
        c.end(s, 1);
        let spans = c.drain();
        assert!(check_trace(&spans, 0)
            .defects
            .iter()
            .any(|d| matches!(d, TraceDefect::DanglingLink { .. })));
        // …but with displacement the link target may have been evicted.
        assert!(check_trace(&spans, 3).is_ok());
    }

    #[test]
    fn chrome_round_trip() {
        let c = collector();
        record_request(&c, 9);
        // A migration link to exercise flow events.
        let t = TraceId(9);
        let dead = c.start(t, None, SpanKind::DispatchWait, ClockDomain::Shard(0), 120);
        c.end(dead, 130);
        let succ = c.start(t, None, SpanKind::Enqueue, ClockDomain::Shard(1), 40);
        c.link(succ, dead);
        c.end(succ, 40);
        let spans = c.drain();
        let json = render_chrome_trace(&spans);
        let events = parse_chrome_trace(&json).expect("round trip");
        // 6 spans -> 6 X events + 1 flow pair.
        assert_eq!(events.len(), spans.len() + 2);
        assert_eq!(events.iter().filter(|e| e.ph == "X").count(), spans.len());
        assert_eq!(events.iter().filter(|e| e.ph == "s").count(), 1);
        assert_eq!(events.iter().filter(|e| e.ph == "f").count(), 1);
        let exec = events.iter().find(|e| e.name == "execute").expect("execute event");
        assert_eq!(exec.dur, Some(5));
    }

    #[test]
    fn parser_rejects_garbage() {
        assert!(parse_chrome_trace("not json").is_err());
        assert!(parse_chrome_trace("{\"a\":1}").is_err());
        assert!(parse_chrome_trace("{\"traceEvents\":[{\"name\":\"x\"}]}").is_err());
        assert!(parse_chrome_trace("[]").map(|v| v.is_empty()).unwrap_or(false));
    }

    #[test]
    fn registered_counters_surface_in_snapshots() {
        let reg = Registry::new();
        let c = TraceCollector::registered(1, &reg, "trace.spans");
        for i in 0..3 {
            c.instant(TraceId(i), None, SpanKind::Heartbeat, ClockDomain::Fleet, i, &[]);
        }
        let snap = reg.snapshot();
        assert_eq!(snap.counter("trace.spans.recorded"), Some(3));
        assert_eq!(snap.counter("trace.spans.displaced"), Some(2));
    }
}
