//! The traced run's span recorder and per-layer ledger.
//!
//! Spans are recorded from the benchmark's side of each layer boundary:
//! one op span per operation, with a child span `<layer>.<call>` around
//! every public call the operation makes. A call whose work spans
//! several layers (say `TimingVerifier::verify`, which runs the trace
//! and schedule checkers) is refined by *replaying* the inner public
//! calls on the same inputs right after the operation; the replayed time
//! moves from the outer call's layer to the inner one. A layer's self
//! time is the sum of its spans after those moves, and the op time not
//! covered by any call span is reported as unattributed.
//!
//! Spans stay in memory and are written once, at exit, as Chrome
//! trace-event JSON through [`rossl_obs::render_chrome_trace`], then
//! parsed back with [`rossl_obs::parse_chrome_trace`] (the parser the
//! `trace_check` tool uses). The collector's span kinds are fixed, so
//! op spans are exported as `route` events and call spans as `execute`
//! events; the `<layer>.<call>` name is the key of the span's second
//! argument, and the `op` argument (also the trace id) is the op id.

use std::time::Instant;

use rossl_obs::{
    parse_chrome_trace, render_chrome_trace, ClockDomain, Span, SpanId, SpanKind, TraceId,
};

/// The measured layers, named by crate. `fuzz` and `bench` are tooling
/// and are not measured. Every layer reports a share, including those
/// no benchmark span can isolate from outside (their share reads 0).
#[allow(dead_code)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    Model,
    Sockets,
    Trace,
    Journal,
    Obs,
    Checker,
    Prosa,
    Timing,
    Schedule,
    Par,
    Rossl,
    Faults,
    Fleet,
    Core,
    Workloads,
}

/// Every layer's name, indexed by `Layer as usize`.
pub const LAYERS: [&str; 15] = [
    "model",
    "sockets",
    "trace",
    "journal",
    "obs",
    "checker",
    "prosa",
    "timing",
    "schedule",
    "par",
    "rossl",
    "faults",
    "fleet",
    "core",
    "workloads",
];

/// Spans kept for the exported trace; later ones are still counted in
/// the ledger but not written out.
const MAX_SPANS: usize = 20_000;

struct OpState {
    id: u64,
    span: SpanId,
    start: u64,
    children_ns: u64,
}

/// Records spans and per-layer self time for traced operations. When
/// disabled, [`Tracer::call`] runs its closure and records nothing.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    dropped: u64,
    next: u64,
    op: Option<OpState>,
    last_op: u64,
    last_call: [Option<SpanId>; 15],
    self_ns: [i64; 15],
    op_ns: u64,
    unattributed_ns: u64,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            dropped: 0,
            next: 0,
            op: None,
            last_op: 0,
            last_call: [None; 15],
            self_ns: [0; 15],
            op_ns: 0,
            unattributed_ns: 0,
        }
    }

    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn push(&mut self, span: Span) {
        if self.spans.len() < MAX_SPANS {
            self.spans.push(span);
        } else {
            self.dropped += 1;
        }
    }

    fn next_id(&mut self) -> SpanId {
        self.next += 1;
        SpanId(self.next - 1)
    }

    /// A closed span `id` of op `op` on the host-time clock.
    fn span(
        id: SpanId,
        op: u64,
        parent: Option<SpanId>,
        kind: SpanKind,
        start: u64,
        end: u64,
    ) -> Span {
        Span {
            trace: TraceId(op),
            id,
            parent,
            link: None,
            kind,
            domain: ClockDomain::Fleet,
            start,
            end,
            truncated: false,
            args: vec![("op", op)],
        }
    }

    /// Opens the span of operation `id`.
    pub fn begin_op(&mut self, id: u64) {
        if !self.enabled {
            return;
        }
        let start = self.now();
        let span = self.next_id();
        self.op = Some(OpState {
            id,
            span,
            start,
            children_ns: 0,
        });
        self.last_op = id;
    }

    /// Closes the current operation's span.
    pub fn end_op(&mut self) {
        let Some(op) = self.op.take() else {
            return;
        };
        let end = self.now();
        let dur = end - op.start;
        self.op_ns += dur;
        self.unattributed_ns += dur.saturating_sub(op.children_ns);
        self.push(Tracer::span(
            op.span,
            op.id,
            None,
            SpanKind::Route,
            op.start,
            end,
        ));
    }

    /// Runs `f` as public call `name` of `layer` inside the open op.
    pub fn call<T>(&mut self, layer: Layer, name: &'static str, f: impl FnOnce() -> T) -> T {
        let Some(op) = self.op.as_ref() else {
            return f();
        };
        let (op_id, parent) = (op.id, op.span);
        let start = self.now();
        let out = f();
        let end = self.now();
        let id = self.next_id();
        let mut span = Tracer::span(id, op_id, Some(parent), SpanKind::Execute, start, end);
        span.args.push((name, 1));
        self.last_call[layer as usize] = Some(span.id);
        self.push(span);
        self.self_ns[layer as usize] += (end - start) as i64;
        if let Some(op) = self.op.as_mut() {
            op.children_ns += end - start;
        }
        out
    }

    /// Replays public call `name` of layer `to` outside the op, on the
    /// inputs of a call of layer `from` that ran it internally, and
    /// moves the replayed time from `from` to `to`.
    pub fn replay<T>(
        &mut self,
        from: Layer,
        to: Layer,
        name: &'static str,
        f: impl FnOnce() -> T,
    ) -> T {
        if !self.enabled {
            return f();
        }
        let start = self.now();
        let out = f();
        let end = self.now();
        let parent = self.last_call[from as usize];
        let id = self.next_id();
        let mut span = Tracer::span(id, self.last_op, parent, SpanKind::Execute, start, end);
        span.args.push((name, 1));
        span.args.push(("replay", 1));
        self.push(span);
        self.reassign(from, to, end - start);
        out
    }

    /// Moves `ns` of self time from layer `from` to layer `to`.
    pub fn reassign(&mut self, from: Layer, to: Layer, ns: u64) {
        if self.enabled {
            self.self_ns[from as usize] -= ns as i64;
            self.self_ns[to as usize] += ns as i64;
        }
    }

    /// Each layer's self time as a share of traced op time, then the
    /// unattributed share.
    pub fn shares(&self) -> (Vec<(&'static str, f64)>, f64) {
        let total = self.op_ns.max(1) as f64;
        let shares = LAYERS
            .iter()
            .zip(self.self_ns)
            .map(|(name, ns)| (*name, ns as f64 / total))
            .collect();
        (shares, self.unattributed_ns as f64 / total)
    }

    /// Writes the recorded spans to `path` as Chrome trace-event JSON
    /// and parses the file back; returns the number of events.
    pub fn write_chrome(&self, path: &std::path::Path) -> Result<usize, String> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        }
        std::fs::write(path, render_chrome_trace(&self.spans))
            .map_err(|e| format!("{}: {e}", path.display()))?;
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        match parse_chrome_trace(&text) {
            Ok(events) if events.is_empty() => Err(format!("{} holds no events", path.display())),
            Ok(events) => Ok(events.len()),
            Err(e) => Err(format!("{} does not parse: {e:?}", path.display())),
        }
    }

    /// Spans recorded but not kept for the exported trace.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(ns: u64) {
        let t = Instant::now();
        while (t.elapsed().as_nanos() as u64) < ns {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn self_times_and_replays_account_for_the_op() {
        let mut t = Tracer::new(true);
        t.begin_op(1);
        t.call(Layer::Core, "core.verify", || spin(2_000_000));
        t.end_op();
        t.replay(Layer::Core, Layer::Trace, "trace.protocol", || {
            spin(500_000)
        });
        let (shares, unattributed) = t.shares();
        let share = |name: &str| {
            shares
                .iter()
                .find(|(n, _)| *n == name)
                .map(|s| s.1)
                .unwrap()
        };
        assert!(share("trace") > 0.0 && share("trace") < share("core"));
        let sum: f64 = shares.iter().map(|s| s.1).sum::<f64>() + unattributed;
        assert!((sum - 1.0).abs() < 1e-9, "shares sum to {sum}");
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        t.begin_op(1);
        assert_eq!(t.call(Layer::Fleet, "fleet.run", || 7), 7);
        t.end_op();
        assert!(t.spans.is_empty());
        assert_eq!(t.op_ns, 0);
    }
}
