//! Property tests for [`rossl_workloads::AdmissionController`]: over
//! arbitrary sequences of committing queries and probes — adds, removes
//! and updates, out-of-range slots, and the same task requested with
//! different deadlines — every `query` equals [`scratch_verdict`] on the
//! candidate set, every `admissible` equals that verdict's
//! `is_accepted()`, and the memo counters are exactly those of a model
//! that remembers every candidate decided so far.

use proptest::prelude::*;
use prosa::{RtaError, SolverError, SolverStats};
use rossl_model::{Curve, Duration, WcetTable};
use rossl_workloads::{
    scratch_verdict, AdmissionController, AdmissionStats, Delta, Rejection, TaskRequest, Verdict,
};

const HORIZON: Duration = Duration(50_000);

/// A small pool of tasks, so candidates repeat and the memo is exercised.
const POOL: [(u32, u64, u64); 5] = [
    (1, 40, 1_000),
    (2, 15, 400),
    (3, 120, 2_500),
    (5, 8, 250),
    (2, 200, 600),
];

/// Pool task `which` with an implicit, halved or impossible deadline —
/// equal tasks that must decide differently.
fn request(which: usize, deadline: u8, name: usize) -> TaskRequest {
    let (priority, wcet, period) = POOL[which % POOL.len()];
    TaskRequest {
        name: format!("r{name}"),
        priority,
        wcet,
        curve: if which % 2 == 0 {
            Curve::sporadic(Duration(period))
        } else {
            Curve::periodic(Duration(period))
        },
        deadline: match deadline % 4 {
            0 | 1 => period,
            2 => period / 2,
            _ => 1,
        },
    }
}

/// The candidate `admitted ⊕ delta`, or `None` for an out-of-range slot.
fn candidate(admitted: &[TaskRequest], delta: &Delta) -> Option<Vec<TaskRequest>> {
    let mut tasks = admitted.to_vec();
    match delta {
        Delta::Add(req) => tasks.push(req.clone()),
        Delta::Remove(slot) if *slot < tasks.len() => {
            tasks.remove(*slot);
        }
        Delta::Update(slot, req) if *slot < tasks.len() => tasks[*slot] = req.clone(),
        Delta::Remove(_) | Delta::Update(..) => return None,
    }
    Some(tasks)
}

/// What the verdict depends on: every slot's content but its name.
fn key(tasks: &[TaskRequest]) -> Vec<(u32, u64, Curve, u64)> {
    tasks
        .iter()
        .map(|r| (r.priority, r.wcet, r.curve.clone(), r.deadline))
        .collect()
}

/// Per-task solves behind a verdict: all of them unless the analysis
/// stopped at a failing task.
fn solved(tasks: &[TaskRequest], verdict: &Verdict) -> u64 {
    match verdict {
        Verdict::Rejected(Rejection::Analysis(RtaError::Solver(
            SolverError::NoConvergence { task, .. } | SolverError::Divergent { task, .. },
        ))) => task.0 as u64 + 1,
        _ => tasks.len() as u64,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    fn controller_matches_scratch_and_counts_exactly(
        ops in proptest::collection::vec((0u8..8, 0usize..6, 0usize..5, 0u8..4), 1..40),
    ) {
        let wcet = WcetTable::example();
        let mut ac = AdmissionController::new(wcet, 1, HORIZON);
        let mut admitted: Vec<TaskRequest> = Vec::new();
        let mut seen: Vec<Vec<(u32, u64, Curve, u64)>> = Vec::new();
        let mut stats = AdmissionStats::default();
        let mut memo = SolverStats::default();
        let mut last = Delta::Remove(0);

        for (i, &(op, slot, which, deadline)) in ops.iter().enumerate() {
            let req = request(which, deadline, i);
            // Ops 6 and 7 repeat the previous delta, as a probe-then-commit
            // or a re-probe after a reject does.
            let (delta, probe) = match op {
                0 => (Delta::Add(req), false),
                1 => (Delta::Remove(slot), false),
                2 => (Delta::Update(slot, req), false),
                3 => (Delta::Add(req), true),
                4 => (Delta::Remove(slot), true),
                5 => (Delta::Update(slot, req), true),
                6 => (last.clone(), false),
                _ => (last.clone(), true),
            };
            last = delta.clone();
            let cand = candidate(&admitted, &delta);
            let reference = cand
                .as_ref()
                .map(|tasks| scratch_verdict(tasks, &wcet, 1, HORIZON));
            if let (Some(tasks), Some(verdict)) = (&cand, &reference) {
                let k = key(tasks);
                let hit = seen.contains(&k);
                if hit {
                    memo.set_hits += 1;
                } else {
                    seen.push(k);
                    memo.set_misses += 1;
                    if !tasks.is_empty() {
                        memo.supplies_built += 1;
                        memo.task_misses += solved(tasks, verdict);
                    }
                }
                if probe {
                    stats.probe_memo_hits += u64::from(hit);
                }
            }

            if probe {
                stats.probes += 1;
                let expected = reference.as_ref().is_some_and(Verdict::is_accepted);
                prop_assert_eq!(ac.admissible(&delta), expected, "probe {:?}", delta);
            } else {
                stats.queries += 1;
                let got = ac.query(delta.clone());
                match (&cand, reference) {
                    (Some(tasks), Some(expected)) => {
                        prop_assert_eq!(&got, &expected, "query {:?}", delta);
                        if let Verdict::Accepted { bounds } = &got {
                            stats.accepted += 1;
                            admitted = tasks.clone();
                            prop_assert_eq!(ac.runtime_cache().len(), bounds.len());
                            for b in bounds {
                                prop_assert_eq!(ac.runtime_cache().bound(b.task), Some(b.total_bound()));
                            }
                        }
                    }
                    _ => {
                        let slot = match delta {
                            Delta::Remove(s) | Delta::Update(s, _) => s,
                            Delta::Add(_) => unreachable!("adds are always in range"),
                        };
                        prop_assert_eq!(got, Verdict::Rejected(Rejection::UnknownSlot(slot)));
                    }
                }
            }
            prop_assert_eq!(ac.current(), &admitted[..]);
            prop_assert_eq!(ac.stats(), stats);
            prop_assert_eq!(ac.solver_stats(), memo);
        }
    }
}
