//! E5 (Fig. 7): release jitter restores priority-policy compliance and
//! work conservation.
//!
//! Rössl's *raw* schedule can violate both properties relative to
//! **arrival** times: a job arriving between the polling and execution
//! phases is invisible to the imminent scheduling decision (Fig. 7a), and
//! a job arriving mid-idle waits for the next polling pass (Fig. 7b).
//! Shifting every job's release by the jitter bound `J` (Def. 4.3) makes
//! both properties hold — which is exactly what lets aRSA analyse the
//! schedule. This experiment measures all four counts on real runs:
//! raw violations are expected (and engineered to occur), jitter-adjusted
//! violations must be zero.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use refined_prosa::SystemBuilder;
use rossl_model::{Curve, Duration, Instant, JobId, Message, Priority, SocketId, TaskId};
use rossl_schedule::{convert, ProcessorState, Schedule};
use rossl_sockets::{ArrivalEvent, ArrivalSequence};
use rossl_timing::{SimulationResult, WorstCase};
use rossl_trace::Marker;

/// Per-job view needed by the compliance counters.
#[derive(Debug, Clone, Copy)]
struct JobView {
    arrived: Instant,
    read_at: Instant,
    exec_start: Option<Instant>,
    priority: u32,
}

fn job_views(
    system: &refined_prosa::RosslSystem,
    run: &SimulationResult,
) -> BTreeMap<JobId, JobView> {
    let mut exec_start: BTreeMap<JobId, Instant> = BTreeMap::new();
    for (m, t) in run.trace.iter() {
        if let Marker::Execution(j) = m {
            exec_start.insert(j.id(), t);
        }
    }
    run.jobs
        .iter()
        .map(|(&id, r)| {
            (
                id,
                JobView {
                    arrived: r.arrived,
                    read_at: r.read_at,
                    exec_start: exec_start.get(&id).copied(),
                    priority: system
                        .tasks()
                        .task(r.task)
                        .expect("task exists")
                        .priority()
                        .0,
                },
            )
        })
        .collect()
}

/// Counts dispatches of a job while a *higher-priority* job counts as
/// ready (`ready_at ≤ dispatch time`) but has not started executing.
/// With `shift = 0`, "ready" means "arrived" (raw, Fig. 7a's defect);
/// with `shift = J`, "ready" means "released".
fn policy_violations(
    system: &refined_prosa::RosslSystem,
    run: &SimulationResult,
    views: &BTreeMap<JobId, JobView>,
    shift: Duration,
) -> usize {
    let mut violations = 0;
    for (m, t) in run.trace.iter() {
        let Marker::Dispatch(dispatched) = m else {
            continue;
        };
        let dp = system
            .tasks()
            .task(dispatched.task())
            .expect("task exists")
            .priority()
            .0;
        for (id, v) in views {
            if *id == dispatched.id() || v.priority <= dp {
                continue;
            }
            let ready = v.arrived.saturating_add(shift);
            let started = v.exec_start.is_some_and(|s| s <= t);
            if ready < t && !started {
                violations += 1;
            }
        }
    }
    violations
}

/// Counts jobs that are "ready" (per `shift`) while the processor idles:
/// the `Idle` interval intersects `(arrival + shift, read)`.
fn work_conservation_violations(
    schedule: &Schedule,
    views: &BTreeMap<JobId, JobView>,
    shift: Duration,
) -> usize {
    let mut violations = 0;
    for v in views.values() {
        let ready = v.arrived.saturating_add(shift);
        if ready >= v.read_at {
            continue;
        }
        let idle_overlaps = schedule.segments().iter().any(|s| {
            s.state == ProcessorState::Idle && s.end > ready + Duration(1) && s.start < v.read_at
                && s.overlap(ready + Duration(1), v.read_at) > Duration::ZERO
        });
        if idle_overlaps {
            violations += 1;
        }
    }
    violations
}

/// Runs the Fig. 7 experiment and formats the table.
pub fn exp_fig7() -> String {
    let mut out = String::new();
    let system = SystemBuilder::new()
        .task("low", Priority(1), Duration(40), Curve::sporadic(Duration(300)))
        .task("high", Priority(9), Duration(10), Curve::sporadic(Duration(300)))
        .sockets(1)
        .build()
        .expect("fig7 system");
    let jitter = prosa::max_release_jitter(system.wcet(), system.n_sockets());

    // Pass 1: only low-priority traffic; locate a polling-phase end so a
    // high-priority arrival can be planted in the policy-blind window
    // (after the final failed read, before the dispatch — Fig. 7a).
    let low_arrivals: Vec<ArrivalEvent> = (0..20)
        .map(|k| ArrivalEvent {
            time: Instant(1 + 300 * k),
            sock: SocketId(0),
            task: TaskId(0),
            msg: Message::new(vec![0]),
        })
        .collect();
    let probe = system
        .simulate(
            &ArrivalSequence::from_events(low_arrivals.clone()),
            WorstCase,
            Instant(7_000),
        )
        .expect("probe run");
    // The blind spot: the timestamp of a failed M_ReadE directly followed
    // by a selection that dispatches.
    let mut blind_spots = Vec::new();
    let markers: Vec<_> = probe.trace.iter().map(|(m, t)| (m.clone(), t)).collect();
    for w in markers.windows(3) {
        if let (
            (Marker::ReadEnd { job: None, .. }, t_read),
            (Marker::Selection, _),
            (Marker::Dispatch(_), _),
        ) = (&w[0], &w[1], &w[2])
        {
            blind_spots.push(*t_read);
        }
    }
    assert!(!blind_spots.is_empty(), "probe run has dispatch decisions");

    // Pass 2: plant high-priority arrivals exactly at the blind spots
    // (arrival at the failed read's own timestamp: consistency demands
    // t_arr < ts for a *successful* read, so this arrival is legitimately
    // missed — and raw policy compliance breaks).
    let mut events = low_arrivals;
    for (i, t) in blind_spots.iter().take(5).enumerate() {
        events.push(ArrivalEvent {
            time: *t,
            sock: SocketId(0),
            task: TaskId(1),
            msg: Message::new(vec![1, i as u8]),
        });
    }
    let arrivals = ArrivalSequence::from_events(events);
    let run = system
        .simulate(&arrivals, WorstCase, Instant(7_000))
        .expect("fig7 run");
    let views = job_views(&system, &run);
    let schedule = convert(&run.trace, 1).expect("convert");

    let raw_policy = policy_violations(&system, &run, &views, Duration::ZERO);
    let adj_policy = policy_violations(&system, &run, &views, jitter);
    let raw_wc = work_conservation_violations(&schedule, &views, Duration::ZERO);
    let adj_wc = work_conservation_violations(&schedule, &views, jitter);
    let max_lag = run.max_read_lag().expect("jobs ran");

    let _ = writeln!(out, "jitter bound J = {} ticks", jitter.ticks());
    let _ = writeln!(out, "property               | vs arrivals (raw) | vs releases (+J)");
    let _ = writeln!(out, "policy compliance      | {raw_policy:>17} | {adj_policy:>16}");
    let _ = writeln!(out, "work conservation      | {raw_wc:>17} | {adj_wc:>16}");
    let _ = writeln!(
        out,
        "max arrival→read lag {} ticks (informational)",
        max_lag.ticks()
    );
    let _ = writeln!(
        out,
        "raw violations exist ({}, {}), jitter-adjusted violations are zero — Fig. 7's claim",
        raw_policy, raw_wc
    );
    assert!(raw_policy > 0, "the engineered blind-spot arrivals must be missed");
    assert_eq!(adj_policy, 0, "jitter must restore policy compliance");
    assert_eq!(adj_wc, 0, "jitter must restore work conservation");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig7_experiment_shows_the_jitter_effect() {
        let _shared = crate::shared_lock();
        let report = exp_fig7();
        assert!(report.contains("jitter-adjusted violations are zero"));
    }
}
