//! `admission-churn`: one caller issues admission deltas back to back (a
//! closed loop). Each add is probed a fixed number of times with
//! `admissible` (reads), then committed with `query`; remove deltas tear
//! each set down again (writes).

use std::time::Instant as Wall;

use prosa::{AnalysisParams, IncrementalSolver};
use rossl_model::{Duration, Priority, Task, TaskId, TaskSet, WcetTable};
use rossl_workloads::{
    generate, scratch_verdict, AdmissionController, ArrivalFamily, Delta, GeneratorConfig,
    Rejection, SplitRng, TaskRequest, Verdict,
};

use crate::digest::{mix, Digest};
use crate::ledger::{Layer, Tracer};
use crate::{keep_going, Budget, Metrics, Run};

/// Busy-window search horizon of the controller and the reference.
const HORIZON: Duration = Duration(200_000);
/// `admissible` calls per add before it is committed.
const PROBES: usize = 4;
/// Every this-many-th query is checked against `scratch_verdict`.
const SAMPLE_EVERY: u64 = 16;
/// Cap on the sampled queries, bounding the post-run check's time.
const MAX_SAMPLES: usize = 1_500;

#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Generated sets per cycle; a fresh controller starts each cycle,
    /// so every cycle meets the memos in the same state.
    pub sets: u64,
}

impl Scale {
    pub const FULL: Scale = Scale { sets: 2100 };
    pub const TINY: Scale = Scale { sets: 140 };
}

pub struct Inputs {
    seed: u64,
    sets: Vec<Vec<TaskRequest>>,
}

/// Set `j` of a cycle: utilization 0.3–0.9 and the three arrival
/// families in turn, three or four tasks, every other block of sets
/// mixed-criticality.
fn generate_set(seed: u64, j: u64) -> Vec<TaskRequest> {
    let family = [
        ArrivalFamily::Sporadic,
        ArrivalFamily::Periodic,
        ArrivalFamily::Bursty,
    ][(j / 7 % 3) as usize];
    let cfg = GeneratorConfig {
        n_tasks: 3 + (j / 21 % 2) as usize,
        utilization: 0.3 + 0.1 * (j % 7) as f64,
        period_range: (500, 8_000),
        family,
        mixed_criticality: j / 42 % 2 == 1,
    };
    TaskRequest::from_spec(&generate(&cfg, &mut SplitRng::new(mix(seed, j))))
}

impl Inputs {
    pub fn new(seed: u64, scale: Scale) -> Inputs {
        Inputs {
            seed,
            sets: (0..scale.sets).map(|j| generate_set(seed, j)).collect(),
        }
    }
}

fn controller() -> AdmissionController {
    AdmissionController::new(WcetTable::example(), 1, HORIZON)
}

/// The analysis parameters the controller builds for `tasks`.
fn params_of(tasks: &[TaskRequest]) -> Option<AnalysisParams> {
    if tasks.is_empty() {
        return None;
    }
    let set = TaskSet::new(
        tasks
            .iter()
            .enumerate()
            .map(|(i, r)| {
                Task::new(
                    TaskId(i),
                    r.name.clone(),
                    Priority(r.priority),
                    Duration(r.wcet),
                    r.curve.clone(),
                )
            })
            .collect(),
    )
    .ok()?;
    AnalysisParams::new(set, WcetTable::example(), 1).ok()
}

/// The task set an add of `req` would leave the controller with.
fn with_task(current: &[TaskRequest], req: &TaskRequest) -> Vec<TaskRequest> {
    let mut tasks = current.to_vec();
    tasks.push(req.clone());
    tasks
}

fn digest_verdict(d: &mut Digest, v: &Verdict) {
    match v {
        Verdict::Accepted { bounds } => d.add_all(bounds.iter().map(|b| b.total_bound().ticks())),
        Verdict::Rejected(Rejection::DeadlineMiss {
            task,
            bound,
            deadline,
        }) => {
            d.add_all([u64::MAX - 1, task.0 as u64, bound.ticks(), deadline.ticks()]);
        }
        Verdict::Rejected(Rejection::Analysis(_)) => d.add(u64::MAX - 2),
        Verdict::Rejected(Rejection::UnknownSlot(s)) => d.add_all([u64::MAX - 3, *s as u64]),
    }
}

/// Drives the delta stream until the budget is spent. The op is one
/// set: its adds, each probed then committed, and its teardown. Op time
/// is the time spent inside `admissible` and `query` calls.
pub fn run(inputs: &Inputs, budget: &Budget, tracer: &mut Tracer) -> Run {
    let mut out = Run::default();
    let started = Wall::now();
    let n_sets = inputs.sets.len() as u64;
    let mut ctl = controller();
    let mut shadow = IncrementalSolver::new();
    let mut samples: Vec<(Vec<TaskRequest>, Verdict)> = Vec::new();
    let (mut queries, mut probes, mut probe_ns, mut bad_removes) = (0u64, 0u64, 0u64, 0u64);
    let mut j = 0u64;
    while keep_going(started, budget, j) {
        if j > 0 && j % n_sets == 0 {
            ctl = controller();
            shadow = IncrementalSolver::new();
        }
        let traced = budget.traced(j);
        tracer.set_enabled(traced);
        let set = &inputs.sets[(j % n_sets) as usize];
        // Per delta: the probe answers, whether a probe missed the
        // decision memo (and so ran the solver), and the verdict.
        let mut log: Vec<(Vec<bool>, bool, Verdict)> = Vec::with_capacity(2 * set.len());
        let mut op_ns = 0u64;
        tracer.begin_op(j);
        for req in set {
            let delta = Delta::Add(req.clone());
            let hits_before = ctl.stats().probe_memo_hits;
            let t = Wall::now();
            let answers = tracer.call(Layer::Workloads, "workloads.admissible", || {
                (0..PROBES)
                    .map(|_| ctl.admissible(&delta))
                    .collect::<Vec<bool>>()
            });
            let probe = t.elapsed().as_nanos() as u64;
            let t = Wall::now();
            let verdict = tracer.call(Layer::Workloads, "workloads.query", || ctl.query(delta));
            op_ns += probe + t.elapsed().as_nanos() as u64;
            if !traced {
                probe_ns += probe;
                probes += PROBES as u64;
            }
            let missed = ctl.stats().probe_memo_hits - hits_before < PROBES as u64;
            log.push((answers, missed, verdict));
        }
        for slot in (0..ctl.current().len()).rev() {
            let t = Wall::now();
            let verdict = tracer.call(Layer::Workloads, "workloads.query", || {
                ctl.query(Delta::Remove(slot))
            });
            op_ns += t.elapsed().as_nanos() as u64;
            log.push((Vec::new(), false, verdict));
        }
        tracer.end_op();
        out.push_op(op_ns, traced, log.len() as f64);

        // Outside the op: rebuild each query's candidate set (sets start
        // empty, and the teardown removes the newest task first) for
        // the solver replay and the sampled reference check.
        let mut current: Vec<TaskRequest> = Vec::new();
        for (k, (answers, missed, verdict)) in log.into_iter().enumerate() {
            let is_add = k < set.len();
            let cand = if is_add {
                with_task(&current, &set[k])
            } else {
                current[..current.len() - 1].to_vec()
            };
            if traced {
                // The controller's solver ran once for a probe that
                // missed its decision memo, then once for the query.
                if let Some(params) = params_of(&cand) {
                    for _ in 0..=usize::from(missed) {
                        let _ = tracer.replay(
                            Layer::Workloads,
                            Layer::Prosa,
                            "prosa.incremental_analyse",
                            || shadow.analyse(&params, HORIZON).is_ok(),
                        );
                    }
                }
            }
            if !is_add && !verdict.is_accepted() {
                bad_removes += 1;
            }
            if j < n_sets {
                out.digest.add_all(answers.iter().map(|&a| u64::from(a)));
                digest_verdict(&mut out.digest, &verdict);
                if let (true, Verdict::Accepted { bounds }) = (is_add, &verdict) {
                    out.ticks
                        .extend(bounds.last().map(|b| b.total_bound().ticks()));
                }
            }
            let sampled = samples.len() < MAX_SAMPLES
                && mix(inputs.seed ^ 0x5a3b1e, queries) % SAMPLE_EVERY == 0;
            let accepted = verdict.is_accepted();
            if sampled {
                samples.push((cand.clone(), verdict));
            }
            if accepted || !is_add {
                current = cand;
            }
            queries += 1;
        }
        j += 1;
    }
    // Outside timing: the sampled verdicts against the memo-free reference.
    let mismatches = samples
        .iter()
        .filter(|(cand, verdict)| {
            scratch_verdict(cand, &WcetTable::example(), 1, HORIZON) != *verdict
        })
        .count() as u64;
    out.tally.record(queries, mismatches + bad_removes);
    out.notes
        .push(("scratch_checked", samples.len().to_string()));
    out.notes.push((
        "probes_per_s",
        format!("{:.0}", probes as f64 / (probe_ns.max(1) as f64 / 1e9)),
    ));
    out
}

/// The per-layer section of `admission-churn`: memo effectiveness, the
/// no-memo reference cost and the runtime feasibility check, over the
/// first sets of a cycle.
pub fn ledger(seed: u64, m: &mut Metrics) {
    let sets: Vec<Vec<TaskRequest>> = (0..210).map(|j| generate_set(seed ^ 0xad317, j)).collect();
    let mut ctl = controller();
    let mut candidates = Vec::new();
    let (mut probe_ns, mut feasible_ns, mut feasible_calls) = (0f64, 0f64, 0f64);
    let (mut adds, mut accepted_adds) = (0u64, 0u64);
    for set in &sets {
        for req in set {
            let delta = Delta::Add(req.clone());
            let t = Wall::now();
            for _ in 0..PROBES {
                std::hint::black_box(ctl.admissible(&delta));
            }
            probe_ns += t.elapsed().as_nanos() as f64;
            candidates.push(with_task(ctl.current(), req));
            adds += 1;
            if ctl.query(delta).is_accepted() {
                accepted_adds += 1;
                let t = Wall::now();
                for _ in 0..10 {
                    std::hint::black_box(ctl.feasible_online());
                }
                feasible_ns += t.elapsed().as_nanos() as f64;
                feasible_calls += 10.0;
            }
        }
        // Tear the set down, newest slot first.
        for slot in (0..ctl.current().len()).rev() {
            candidates.push(ctl.current()[..slot].to_vec());
            ctl.query(Delta::Remove(slot));
        }
    }
    let t = Wall::now();
    for cand in &candidates {
        std::hint::black_box(scratch_verdict(cand, &WcetTable::example(), 1, HORIZON));
    }
    let scratch_ns = t.elapsed().as_nanos() as f64;
    let solver = ctl.solver_stats();
    let stats = ctl.stats();
    let ratio = |hits: u64, misses: u64| hits as f64 / (hits + misses).max(1) as f64;
    m.put(
        "prosa.set_memo_hit_ratio",
        ratio(solver.set_hits, solver.set_misses),
        "ratio",
    );
    m.put(
        "prosa.task_memo_hit_ratio",
        ratio(solver.task_hits, solver.task_misses),
        "ratio",
    );
    m.put(
        "prosa.supplies_built_per_query",
        solver.supplies_built as f64 / stats.queries as f64,
        "ratio",
    );
    m.put(
        "workloads.probe_memo_hit_ratio",
        stats.probe_memo_hits as f64 / stats.probes as f64,
        "ratio",
    );
    m.put(
        "workloads.probe_queries_per_s",
        stats.probes as f64 / (probe_ns / 1e9),
        "1/s",
    );
    m.put(
        "prosa.scratch_verdict_us",
        scratch_ns / candidates.len() as f64 / 1e3,
        "us",
    );
    m.put(
        "rossl.feasible_online_ns",
        feasible_ns / feasible_calls.max(1.0),
        "ns",
    );
    m.put(
        "workloads.accept_ratio",
        accepted_adds as f64 / adds as f64,
        "ratio",
    );
}
