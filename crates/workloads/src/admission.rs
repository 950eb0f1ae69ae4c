//! Online admission control over one verdict memo.
//!
//! An [`AdmissionController`] owns the currently admitted task set and
//! answers add / remove / update queries ([`Delta`]) with a typed
//! [`Verdict`]. Accepting commits the delta; rejecting leaves the
//! admitted set untouched. The design-time/run-time split:
//!
//! * **Design time** — a verdict the controller has not seen runs one
//!   plain [`prosa::analyse`] of the candidate set plus the deadline
//!   test, so it is bit-identical to the from-scratch [`scratch_verdict`]
//!   (experiment E24's differential check).
//! * **Run time** — accepted bounds are installed into a
//!   [`rossl::AdmissionCache`], the table the scheduler side consults
//!   via `feasible_online` (with the pessimistic `R_i = T_i` fallback
//!   while a verdict is pending).
//!
//! Every verdict is memoized, keyed by a 128-bit content fingerprint of
//! the candidate — length plus each slot's priority, WCET, curve **and
//! deadline**, in slot order — folded straight off the [`TaskRequest`]s
//! without materializing a task set. The deadline is in the key because
//! equal tasks with different deadlines decide differently; slot order
//! is in it because the verdict's task ids are slot indices. Admission
//! traffic is highly repetitive (probe–commit, probe–reject–revert,
//! teardown to a prefix seen on the way up), so both `admissible` and
//! `query` look the memo up first: a repeat is one fingerprint plus one
//! hash lookup — this is what the ≥1M queries/sec budget in
//! `BENCH_admission.json` measures.

use std::collections::hash_map::Entry;
use std::collections::HashMap;

use prosa::{analyse, curve_fingerprint, AnalysisParams, RtaError, SolverStats, TaskBound};
use rossl::AdmissionCache;
use rossl_model::{Curve, Duration, Priority, Task, TaskId, TaskSet, WcetTable};

use crate::generator::WorkloadSpec;

const FNV_OFFSET: u128 = 0x6c62272e07bb014262b821756295c58d;
const FNV_PRIME: u128 = 0x0000000001000000000000000000013b;

fn fold(mut fp: u128, v: u64) -> u128 {
    for byte in v.to_le_bytes() {
        fp ^= u128::from(byte);
        fp = fp.wrapping_mul(FNV_PRIME);
    }
    fp
}

fn fold128(fp: u128, v: u128) -> u128 {
    fold(fold(fp, v as u64), (v >> 64) as u64)
}

/// Folds one request's decision-relevant content (everything but the
/// diagnostic name) into a candidate fingerprint. The deadline is part
/// of the key: two candidates with equal tasks but different deadlines
/// can decide differently.
fn fold_request(fp: u128, r: &TaskRequest) -> u128 {
    let fp = fold(fp, u64::from(r.priority));
    let fp = fold(fp, r.wcet);
    let fp = fold128(fp, curve_fingerprint(&r.curve));
    fold(fp, r.deadline)
}

/// A task proposed for admission: everything needed to analyse it plus
/// its deadline.
#[derive(Debug, Clone, PartialEq)]
pub struct TaskRequest {
    /// Human-readable name (diagnostics only; not part of the verdict).
    pub name: String,
    /// Fixed priority (higher wins).
    pub priority: u32,
    /// Worst-case execution time, ticks.
    pub wcet: u64,
    /// Arrival curve.
    pub curve: Curve,
    /// Relative deadline, ticks; the admission test is
    /// `R_i + J_i ≤ D_i`.
    pub deadline: u64,
}

impl TaskRequest {
    /// The admission requests for every task of a generated workload,
    /// with implicit deadlines (`D_i = T_i`, the curve's rate window).
    pub fn from_spec(spec: &WorkloadSpec) -> Vec<TaskRequest> {
        spec.tasks
            .iter()
            .enumerate()
            .map(|(i, t)| TaskRequest {
                name: format!("gen{i}"),
                priority: t.priority,
                wcet: t.wcet,
                curve: spec.curve_of(t),
                deadline: t.period,
            })
            .collect()
    }
}

/// A requested change to the admitted task set.
#[derive(Debug, Clone, PartialEq)]
pub enum Delta {
    /// Admit a new task.
    Add(TaskRequest),
    /// Remove the task at this slot (index into
    /// [`AdmissionController::current`]).
    Remove(usize),
    /// Replace the task at this slot.
    Update(usize, TaskRequest),
}

/// Why a delta was rejected.
#[derive(Debug, Clone, PartialEq)]
pub enum Rejection {
    /// A task's bound exceeds its deadline in the candidate set. The id
    /// indexes the candidate set (admitted tasks in slot order, an added
    /// task last).
    DeadlineMiss {
        /// The violating task.
        task: TaskId,
        /// Its bound `R_i + J_i`.
        bound: Duration,
        /// Its deadline `D_i`.
        deadline: Duration,
    },
    /// The analysis itself failed — a genuine fixed-point failure
    /// (`NoConvergence`) or solver divergence, never a shortcut.
    Analysis(RtaError),
    /// The delta referenced a slot that does not exist.
    UnknownSlot(usize),
}

/// The outcome of one admission query.
#[derive(Debug, Clone, PartialEq)]
pub enum Verdict {
    /// The delta was admitted (and, for [`AdmissionController::query`],
    /// committed). Carries the per-task bounds of the new set, in slot
    /// order — bit-identical to a from-scratch [`prosa::analyse`].
    Accepted {
        /// Bounds of the candidate set (empty when the set became empty).
        bounds: Vec<TaskBound>,
    },
    /// The delta was rejected; the admitted set is unchanged.
    Rejected(Rejection),
}

impl Verdict {
    /// `true` for [`Verdict::Accepted`].
    pub fn is_accepted(&self) -> bool {
        matches!(self, Verdict::Accepted { .. })
    }
}

/// Query counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AdmissionStats {
    /// Total committing queries.
    pub queries: u64,
    /// Accepted committing queries.
    pub accepted: u64,
    /// Non-committing `admissible` probes.
    pub probes: u64,
    /// Probes answered from the verdict memo.
    pub probe_memo_hits: u64,
}

/// The admission controller: admitted set + runtime bound cache +
/// verdict memo. See the module docs.
#[derive(Debug)]
pub struct AdmissionController {
    admitted: Vec<TaskRequest>,
    wcet: WcetTable,
    n_sockets: usize,
    horizon: Duration,
    runtime: AdmissionCache,
    verdicts: HashMap<u128, Verdict>,
    stats: AdmissionStats,
    memo_stats: SolverStats,
}

impl AdmissionController {
    /// A controller with an empty admitted set, analysing against this
    /// overhead table, socket count, and busy-window horizon.
    pub fn new(wcet: WcetTable, n_sockets: usize, horizon: Duration) -> AdmissionController {
        AdmissionController {
            admitted: Vec::new(),
            wcet,
            n_sockets,
            horizon,
            runtime: AdmissionCache::new(),
            verdicts: HashMap::new(),
            stats: AdmissionStats::default(),
            memo_stats: SolverStats::default(),
        }
    }

    /// The currently admitted tasks, in slot order.
    pub fn current(&self) -> &[TaskRequest] {
        &self.admitted
    }

    /// The runtime-side bound cache (the `feasible_online` table).
    pub fn runtime_cache(&self) -> &AdmissionCache {
        &self.runtime
    }

    /// Query counters.
    pub fn stats(&self) -> AdmissionStats {
        self.stats
    }

    /// The verdict memo's counters, in the solver's vocabulary:
    /// `set_hits`/`set_misses` are memo lookups by `admissible` and
    /// `query` alike, `supplies_built` counts the analyses the misses
    /// ran (an empty candidate needs none), `task_misses` their per-task
    /// solves, and `task_hits` is 0.
    pub fn solver_stats(&self) -> SolverStats {
        self.memo_stats
    }

    /// The verdict on `self ⊕ delta` and whether the memo held it, or
    /// the offending slot for an out-of-range delta. A miss runs one
    /// analysis plus the deadline test and memoizes the verdict. Does
    /// not commit.
    fn verdict(&mut self, delta: &Delta) -> Result<(&Verdict, bool), usize> {
        let (len, tasks) = candidate(&self.admitted, delta)?;
        let fp = tasks.clone().fold(fold(FNV_OFFSET, len as u64), fold_request);
        match self.verdicts.entry(fp) {
            Entry::Occupied(hit) => {
                self.memo_stats.set_hits += 1;
                Ok((hit.into_mut(), true))
            }
            Entry::Vacant(miss) => {
                self.memo_stats.set_misses += 1;
                let verdict = decide(
                    tasks,
                    &self.wcet,
                    self.n_sockets,
                    self.horizon,
                    &mut self.memo_stats,
                );
                Ok((miss.insert(verdict), false))
            }
        }
    }

    /// The committing query: decide `self ⊕ delta`; on acceptance the
    /// delta is applied and the runtime cache is rebuilt with the new
    /// bounds, on rejection nothing changes. The verdict's bounds (and
    /// its rejection reasons) are bit-identical to running
    /// [`prosa::analyse`] from scratch on the candidate set.
    pub fn query(&mut self, delta: Delta) -> Verdict {
        self.stats.queries += 1;
        let verdict = match self.verdict(&delta) {
            Ok((verdict, _)) => verdict.clone(),
            Err(slot) => return Verdict::Rejected(Rejection::UnknownSlot(slot)),
        };
        if let Verdict::Accepted { bounds } = &verdict {
            self.stats.accepted += 1;
            match delta {
                Delta::Add(req) => self.admitted.push(req),
                Delta::Remove(slot) => {
                    self.admitted.remove(slot);
                }
                Delta::Update(slot, req) => self.admitted[slot] = req,
            }
            // Slots shift on remove, so ids are re-dense: rebuild the
            // runtime table rather than patching it.
            self.runtime.clear();
            for b in bounds {
                self.runtime.install(b.task, b.total_bound());
            }
        }
        verdict
    }

    /// The non-committing probe: would `self ⊕ delta` be admitted?
    /// Shares the verdict memo with [`AdmissionController::query`], so a
    /// repeated probe against a warm memo is a fingerprint plus a hash
    /// lookup — the ≥1M queries/sec path of experiment E24.
    pub fn admissible(&mut self, delta: &Delta) -> bool {
        self.stats.probes += 1;
        match self.verdict(delta) {
            Ok((verdict, hit)) => {
                let accepted = verdict.is_accepted();
                self.stats.probe_memo_hits += u64::from(hit);
                accepted
            }
            Err(_) => false,
        }
    }

    /// Runs the runtime-side feasibility check on the admitted set
    /// (cached bounds, `R_i = T_i` fallback) — the cheap gate the
    /// scheduler consults between design-time verdicts.
    pub fn feasible_online(&self) -> bool {
        if self.admitted.is_empty() {
            return true;
        }
        let deadlines: Vec<Duration> = self.admitted.iter().map(|r| Duration(r.deadline)).collect();
        self.runtime
            .feasible_online(&task_set(self.admitted.iter()), &deadlines)
    }
}

/// The candidate task list `admitted ⊕ delta` in slot order, with its
/// length, or the offending slot for an out-of-range delta.
fn candidate<'a>(
    admitted: &'a [TaskRequest],
    delta: &'a Delta,
) -> Result<(usize, impl Iterator<Item = &'a TaskRequest> + Clone), usize> {
    let n = admitted.len();
    let (len, skip, replace, add) = match delta {
        Delta::Add(req) => (n + 1, None, None, Some(req)),
        Delta::Remove(slot) if *slot < n => (n - 1, Some(*slot), None, None),
        Delta::Update(slot, req) if *slot < n => (n, None, Some((*slot, req)), None),
        Delta::Remove(slot) | Delta::Update(slot, _) => return Err(*slot),
    };
    let tasks = admitted
        .iter()
        .enumerate()
        .filter(move |&(i, _)| Some(i) != skip)
        .map(move |(i, r)| match replace {
            Some((slot, req)) if slot == i => req,
            _ => r,
        })
        .chain(add);
    Ok((len, tasks))
}

/// Lowers a candidate list to a task set: dense ids in slot order.
fn task_set<'a>(tasks: impl Iterator<Item = &'a TaskRequest>) -> TaskSet {
    TaskSet::new(
        tasks
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
    .expect("admission candidates are dense, nonzero-wcet, valid-curve")
}

/// The verdict on a candidate list: one [`prosa::analyse`] plus the
/// deadline test `R_i + J_i ≤ D_i`, counted into `stats`. An empty
/// system is trivially feasible and needs no analysis.
fn decide<'a>(
    tasks: impl Iterator<Item = &'a TaskRequest> + Clone,
    wcet: &WcetTable,
    n_sockets: usize,
    horizon: Duration,
    stats: &mut SolverStats,
) -> Verdict {
    if tasks.clone().next().is_none() {
        return Verdict::Accepted { bounds: Vec::new() };
    }
    let params = AnalysisParams::new(task_set(tasks.clone()), *wcet, n_sockets)
        .expect("controller construction validated wcet and sockets");
    let result = analyse(&params, horizon);
    stats.record_analysis(&params, &result);
    match result {
        Err(e) => Verdict::Rejected(Rejection::Analysis(e)),
        Ok(result) => {
            for (bound, r) in result.bounds().iter().zip(tasks) {
                let deadline = Duration(r.deadline);
                if bound.total_bound() > deadline {
                    return Verdict::Rejected(Rejection::DeadlineMiss {
                        task: bound.task,
                        bound: bound.total_bound(),
                        deadline,
                    });
                }
            }
            Verdict::Accepted {
                bounds: result.bounds().to_vec(),
            }
        }
    }
}

/// The from-scratch reference decision for a candidate task list: the
/// exact verdict [`AdmissionController::query`] must produce, computed
/// with [`prosa::analyse`] and no memo anywhere. E24 and the property
/// tests difference the controller against this.
pub fn scratch_verdict(
    tasks: &[TaskRequest],
    wcet: &WcetTable,
    n_sockets: usize,
    horizon: Duration,
) -> Verdict {
    decide(tasks.iter(), wcet, n_sockets, horizon, &mut SolverStats::default())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(priority: u32, wcet: u64, period: u64) -> TaskRequest {
        TaskRequest {
            name: format!("p{priority}"),
            priority,
            wcet,
            curve: Curve::sporadic(Duration(period)),
            deadline: period,
        }
    }

    fn controller() -> AdmissionController {
        AdmissionController::new(WcetTable::example(), 1, Duration(200_000))
    }

    #[test]
    fn accepts_commit_and_rejects_roll_back() {
        let mut ac = controller();
        assert!(ac.query(Delta::Add(req(5, 50, 2_000))).is_accepted());
        assert_eq!(ac.current().len(), 1);
        // An impossible deadline is rejected and nothing changes.
        let mut tight = req(4, 100, 4_000);
        tight.deadline = 1;
        let verdict = ac.query(Delta::Add(tight));
        assert!(matches!(
            verdict,
            Verdict::Rejected(Rejection::DeadlineMiss { .. })
        ));
        assert_eq!(ac.current().len(), 1);
        // Removal back to empty is trivially accepted.
        assert!(ac.query(Delta::Remove(0)).is_accepted());
        assert!(ac.current().is_empty());
        assert!(ac.runtime_cache().is_empty());
    }

    #[test]
    fn verdicts_match_the_scratch_reference() {
        let mut ac = controller();
        let deltas = [
            Delta::Add(req(5, 50, 2_000)),
            Delta::Add(req(7, 30, 1_000)),
            Delta::Add(req(2, 400, 900)), // heavy: may miss its deadline
            Delta::Update(0, req(5, 60, 2_000)),
            Delta::Remove(1),
        ];
        for delta in deltas {
            let candidate = candidate(ac.current(), &delta)
                .map(|(_, tasks)| tasks.cloned().collect::<Vec<_>>());
            let verdict = ac.query(delta);
            if let Ok(tasks) = candidate {
                let reference =
                    scratch_verdict(&tasks, &WcetTable::example(), 1, Duration(200_000));
                assert_eq!(verdict, reference);
            }
        }
    }

    #[test]
    fn unknown_slots_are_rejected() {
        let mut ac = controller();
        assert_eq!(
            ac.query(Delta::Remove(3)),
            Verdict::Rejected(Rejection::UnknownSlot(3))
        );
        assert!(!ac.admissible(&Delta::Update(0, req(1, 1, 100))));
    }

    #[test]
    fn probes_hit_the_decision_memo() {
        let mut ac = controller();
        let delta = Delta::Add(req(5, 50, 2_000));
        assert!(ac.admissible(&delta));
        for _ in 0..100 {
            assert!(ac.admissible(&delta));
        }
        let stats = ac.stats();
        assert_eq!(stats.probes, 101);
        assert_eq!(stats.probe_memo_hits, 100);
    }

    #[test]
    fn probe_memo_distinguishes_deadlines() {
        // Same task content, different deadlines: the decision memo must
        // key on the deadline too, or the second probe replays a stale
        // verdict.
        let mut ac = controller();
        let mut tight = req(5, 50, 2_000);
        tight.deadline = 1;
        assert!(!ac.admissible(&Delta::Add(tight)));
        assert!(ac.admissible(&Delta::Add(req(5, 50, 2_000))));
        assert_eq!(ac.stats().probe_memo_hits, 0);
    }

    #[test]
    fn runtime_cache_tracks_admissions() {
        let mut ac = controller();
        ac.query(Delta::Add(req(5, 50, 2_000)));
        ac.query(Delta::Add(req(7, 30, 1_000)));
        assert_eq!(ac.runtime_cache().len(), 2);
        assert!(ac.feasible_online());
        let b0 = ac.runtime_cache().bound(TaskId(0)).unwrap();
        assert!(b0 >= Duration(50));
    }
}
