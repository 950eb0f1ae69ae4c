//! Internals shared by the exploration engines ([`crate::ModelChecker`]
//! and [`crate::CrashSweep`]): persistent (`Arc`-linked) trace prefixes
//! and branch paths, and the cross-worker deterministic failure state.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

use rossl_par::MinKeyed;
use rossl_trace::Marker;

/// Persistent (`Arc`-linked) trace prefix. Branching shares the prefix in
/// O(1) instead of cloning the whole marker vector per node — the eager
/// representation cost O(depth²) clones per explored branch — and the
/// vector is materialized only at leaves and failures, where it is needed
/// anyway.
pub(crate) struct TraceNode {
    marker: Marker,
    parent: TraceLink,
}

pub(crate) type TraceLink = Option<Arc<TraceNode>>;

pub(crate) fn push_trace(link: &TraceLink, marker: Marker) -> TraceLink {
    Some(Arc::new(TraceNode {
        marker,
        parent: link.clone(),
    }))
}

pub(crate) fn materialize_trace(link: &TraceLink) -> Vec<Marker> {
    let mut out = Vec::new();
    materialize_trace_into(link, &mut out);
    out
}

/// [`materialize_trace`] into a caller-owned buffer, so engines that
/// check every leaf reuse one allocation per worker.
pub(crate) fn materialize_trace_into(link: &TraceLink, out: &mut Vec<Marker>) {
    out.clear();
    let mut cur = link;
    while let Some(node) = cur {
        out.push(node.marker.clone());
        cur = &node.parent;
    }
    out.reverse();
}

/// Persistent branch-decision path. Lexicographic order on materialized
/// paths equals sequential depth-first discovery order when each engine
/// assigns the digit explored first the smaller value.
pub(crate) struct PathNode {
    digit: u8,
    parent: PathLink,
}

pub(crate) type PathLink = Option<Arc<PathNode>>;

pub(crate) fn push_path(link: &PathLink, digit: u8) -> PathLink {
    Some(Arc::new(PathNode {
        digit,
        parent: link.clone(),
    }))
}

pub(crate) fn materialize_path(link: &PathLink) -> Vec<u8> {
    let mut out = Vec::new();
    let mut cur = link;
    while let Some(node) = cur {
        out.push(node.digit);
        cur = &node.parent;
    }
    out.reverse();
    out
}

/// Cross-worker failure state: the failure with the lexicographically
/// smallest branch path wins, and any subtree whose path can no longer
/// beat the incumbent is skipped. Because nothing that could beat the
/// incumbent is ever skipped, the reported counterexample is independent
/// of thread count and exploration order.
pub(crate) struct FailState<V> {
    found: AtomicBool,
    best: Mutex<MinKeyed<Vec<u8>, V>>,
}

impl<V> FailState<V> {
    pub(crate) fn new() -> FailState<V> {
        FailState {
            found: AtomicBool::new(false),
            best: Mutex::new(MinKeyed::default()),
        }
    }

    pub(crate) fn record(&self, path: Vec<u8>, failure: V) {
        self.best.lock().expect("failure state poisoned").offer(path, failure);
        self.found.store(true, Ordering::SeqCst);
    }

    /// `true` when a recorded failure already beats every node at or
    /// below `path` (keys are unique per node, so `<=` is safe: equality
    /// only recurs for the recording node itself).
    pub(crate) fn beats(&self, path: &[u8]) -> bool {
        if !self.found.load(Ordering::Relaxed) {
            return false;
        }
        let best = self.best.lock().expect("failure state poisoned");
        matches!(best.best_key(), Some(k) if k.as_slice() <= path)
    }

    pub(crate) fn into_best(self) -> Option<V> {
        self.best
            .into_inner()
            .expect("failure state poisoned")
            .take()
            .map(|(_, failure)| failure)
    }
}
