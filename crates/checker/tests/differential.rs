//! Differential testing of the exploration accelerators (DESIGN §6).
//!
//! The parallel and deduplicated modes of [`ModelChecker`] promise the
//! *bit-identical* result of the sequential exhaustive walk: the same
//! [`CheckOutcome`] totals on success and the same first counterexample
//! (trace and reason) on failure. This property test drives all modes —
//! sequential, 2 and 8 pool threads, deduplication, and both combined —
//! over randomly generated configurations (task priorities, per-socket
//! message queues, depth bounds, and optionally a divergent
//! specification that forces a counterexample) and asserts agreement on
//! every case.

use proptest::prelude::*;

use rossl::ClientConfig;
use rossl_model::{Curve, Duration, MsgData, Priority, Task, TaskId, TaskSet};
use rossl_trace::Marker;
use rossl_verify::{CheckOutcome, ModelChecker};

fn tasks(prio0: u32, prio1: u32) -> TaskSet {
    TaskSet::new(vec![
        Task::new(
            TaskId(0),
            "a",
            Priority(prio0),
            Duration(5),
            Curve::sporadic(Duration(10)),
        ),
        Task::new(
            TaskId(1),
            "b",
            Priority(prio1),
            Duration(5),
            Curve::sporadic(Duration(10)),
        ),
    ])
    .unwrap()
}

/// A run result with the counterexample flattened to comparable parts.
type Verdict = Result<CheckOutcome, (Vec<Marker>, String)>;

fn verdict(mc: &ModelChecker) -> Verdict {
    mc.check().map_err(|f| (f.trace, f.reason))
}

/// One random scenario: priorities, a possibly-divergent spec, message
/// queues for up to two sockets, and a depth bound.
#[derive(Debug, Clone)]
struct Scenario {
    prios: (u32, u32),
    /// `Some` overrides the spec task set with swapped priorities — on
    /// most draws this forces a counterexample, exercising the
    /// first-failure selection rather than the outcome totals.
    diverge: bool,
    sockets: usize,
    msgs: Vec<Vec<MsgData>>,
    depth: usize,
}

fn arb_scenario() -> impl Strategy<Value = Scenario> {
    let queue = proptest::collection::vec((0u8..2).prop_map(|b| vec![b]), 0..4);
    (
        (1u32..10, 1u32..10),
        proptest::bool::ANY,
        1usize..=2,
        (queue.clone(), queue),
        12usize..=30,
    )
        .prop_map(|(prios, diverge, sockets, (q0, q1), depth)| {
            let mut msgs = vec![q0, q1];
            msgs.truncate(sockets);
            Scenario {
                prios,
                diverge,
                sockets,
                msgs,
                depth,
            }
        })
}

fn checker_for(s: &Scenario) -> ModelChecker {
    let config = ClientConfig::new(tasks(s.prios.0, s.prios.1), s.sockets).unwrap();
    let mc = ModelChecker::new(config, s.msgs.clone(), s.depth);
    if s.diverge {
        mc.with_spec_tasks(tasks(s.prios.1, s.prios.0))
    } else {
        mc
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every accelerated mode agrees with the sequential reference on
    /// randomly drawn scenarios — identical outcome totals when the
    /// scenario passes, identical first counterexample when it fails.
    #[test]
    fn accelerated_modes_match_sequential(s in arb_scenario()) {
        let mc = checker_for(&s);
        let baseline = verdict(&mc);
        for (threads, dedup) in [(1, true), (2, false), (8, false), (2, true), (8, true)] {
            let variant = verdict(&mc.clone().with_threads(threads).with_dedup(dedup));
            prop_assert_eq!(
                &variant, &baseline,
                "mode (threads={}, dedup={}) diverged on {:?}", threads, dedup, s
            );
        }
    }

    /// With deduplication the outcome still reports full-tree totals:
    /// explored plus pruned work must reconstruct them exactly.
    #[test]
    fn dedup_work_accounting_reconstructs_totals(s in arb_scenario()) {
        let mc = checker_for(&s).with_dedup(true);
        if let Ok((outcome, stats)) = mc.check_with_stats() {
            prop_assert_eq!(stats.explored_paths + stats.pruned_paths, outcome.paths, "{:?}", s);
            prop_assert_eq!(stats.explored_steps + stats.pruned_steps, outcome.steps, "{:?}", s);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Deduplication memoizes subtree roots only — the walk's start and
    /// each branch child. On 1, 2 and 4 threads it must still give the
    /// exhaustive walk's outcome or first counterexample, and its work
    /// split must reconstruct the totals. On success each explore call
    /// is one lookup: the calls form a binary tree whose leaves are the
    /// explored paths and the memo hits, less one inline child per
    /// donated branch.
    #[test]
    fn root_only_dedup_matches_exhaustive(s in arb_scenario()) {
        let mc = checker_for(&s);
        let baseline = verdict(&mc);
        for threads in [1, 2, 4] {
            let run = mc.clone().with_threads(threads).with_dedup(true).check_with_stats();
            let variant: Verdict = run.clone().map(|(o, _)| o).map_err(|f| (f.trace, f.reason));
            prop_assert_eq!(&variant, &baseline, "threads={} diverged on {:?}", threads, s);
            if let Ok((outcome, stats)) = run {
                prop_assert_eq!(stats.explored_paths + stats.pruned_paths, outcome.paths, "{:?}", s);
                prop_assert_eq!(stats.explored_steps + stats.pruned_steps, outcome.steps, "{:?}", s);
                prop_assert_eq!(
                    stats.memo_lookups + stats.donated_subtrees + 1,
                    2 * (stats.explored_paths + stats.memo_hits),
                    "threads={} {}: {:?}", threads, stats, s
                );
            }
        }
    }
}

/// The canonical seeded-bug fixture (scheduler priorities (1, 9), spec
/// expects (9, 1)): all modes must report the exact counterexample the
/// sequential depth-first walk finds first.
#[test]
fn all_modes_report_the_sequential_counterexample_on_the_seeded_bug() {
    let config = ClientConfig::new(tasks(1, 9), 1).unwrap();
    let mc = ModelChecker::new(config, vec![vec![vec![0], vec![1]]], 40).with_spec_tasks(tasks(9, 1));
    let baseline = mc.check().unwrap_err();
    assert!(baseline.reason.contains("higher-priority"));
    for (threads, dedup) in [(1, true), (2, false), (8, false), (2, true), (8, true)] {
        let failure = mc
            .clone()
            .with_threads(threads)
            .with_dedup(dedup)
            .check()
            .unwrap_err();
        assert_eq!(failure.trace, baseline.trace, "threads={threads} dedup={dedup}");
        assert_eq!(failure.reason, baseline.reason, "threads={threads} dedup={dedup}");
    }
}
