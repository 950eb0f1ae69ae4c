//! Thm. 5.1 ("timing correctness") as an executable verifier.
//!
//! The theorem: for a Rössl client with valid arrival curves, WCETs and a
//! run whose timed trace respects the WCET assumptions and is consistent
//! with an arrival sequence bounded by the curves, every job of task `τ_i`
//! that arrives at `t_arr` with `t_arr + R_i + J_i < t_hrzn` has a
//! completion marker with timestamp `≤ t_arr + R_i + J_i`.
//!
//! [`TimingVerifier::verify`] checks, in order:
//!
//! 1. the arrival sequence respects the arrival curves (Eq. 2);
//! 2. the trace satisfies the scheduler protocol (Def. 3.1);
//! 3. the trace is functionally correct (Def. 3.2);
//! 4. every basic action respects its WCET (§2.3);
//! 5. the timed trace is consistent with the arrivals (Def. 2.1);
//! 6. the converted schedule satisfies the validity constraints (§2.4);
//! 7. **the conclusion**: every sufficiently-early arrival completes
//!    within `R_i + J_i`.
//!
//! Steps 1–6 are the theorem's *hypotheses*: a failure there means the run
//! is outside the theorem's scope (and is reported as a
//! [`VerificationError`]). Bound violations in step 7 — which the paper
//! proves impossible — are collected in the [`VerificationReport`]; the
//! headline experiment (E7) demonstrates the count stays zero across
//! millions of simulated jobs.

use std::collections::BTreeMap;
use std::fmt;

use prosa::{analyse, AnalysisParams, AnalysisResult, RtaError};
use rossl_model::{CurveViolation, Duration, Instant, JobId, OverheadBounds, TaskId};
use rossl_schedule::{check_validity, convert_run, ConversionError, ValidityError};
use rossl_sockets::ArrivalSequence;
use rossl_timing::{
    check_consistency, check_wcet_run, ConsistencyError, SimulationResult, WcetViolation,
};
use rossl_trace::{check_functional, FunctionalError, Marker, ProtocolAutomaton, ProtocolError};

/// A hypothesis of Thm. 5.1 failed to hold for the run under scrutiny.
#[derive(Debug)]
pub enum VerificationError {
    /// The arrival sequence exceeds a task's arrival curve.
    ArrivalCurve {
        /// The offending task.
        task: TaskId,
        /// The witnessing window.
        violation: CurveViolation,
    },
    /// The trace violates the scheduler protocol (Def. 3.1).
    Protocol(ProtocolError),
    /// The trace violates functional correctness (Def. 3.2).
    Functional(FunctionalError),
    /// A basic action exceeded its WCET (§2.3).
    Wcet(WcetViolation),
    /// The timed trace is inconsistent with the arrivals (Def. 2.1).
    Consistency(ConsistencyError),
    /// The trace could not be converted to a schedule.
    Conversion(ConversionError),
    /// The schedule violates a validity constraint (§2.4).
    Validity(ValidityError),
    /// The analysis itself failed (unschedulable parameters).
    Analysis(RtaError),
}

impl fmt::Display for VerificationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VerificationError::ArrivalCurve { task, violation } => {
                write!(f, "arrival curve of {task} violated: {violation}")
            }
            VerificationError::Protocol(e) => write!(f, "{e}"),
            VerificationError::Functional(e) => write!(f, "functional correctness: {e}"),
            VerificationError::Wcet(e) => write!(f, "wcet assumption: {e}"),
            VerificationError::Consistency(e) => write!(f, "arrival consistency: {e}"),
            VerificationError::Conversion(e) => write!(f, "{e}"),
            VerificationError::Validity(e) => write!(f, "schedule validity: {e}"),
            VerificationError::Analysis(e) => write!(f, "{e}"),
        }
    }
}

impl VerificationError {
    /// The short name of the hypothesis checker that raised the error —
    /// the detector column of the fault-detection matrix (experiment
    /// E16). Stable across releases; fault campaigns key on it.
    pub fn checker_name(&self) -> &'static str {
        match self {
            VerificationError::ArrivalCurve { .. } => "arrival-curve",
            VerificationError::Protocol(_) => "protocol",
            VerificationError::Functional(_) => "functional",
            VerificationError::Wcet(_) => "wcet",
            VerificationError::Consistency(_) => "consistency",
            VerificationError::Conversion(_) => "conversion",
            VerificationError::Validity(_) => "validity",
            VerificationError::Analysis(_) => "analysis",
        }
    }
}

impl std::error::Error for VerificationError {}

/// A job that outlived its analytical bound — the event Thm. 5.1 proves
/// cannot happen.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BoundViolation {
    /// The job (if it was ever read; `None` means the arrival was never
    /// read although its deadline passed within the horizon).
    pub job: Option<JobId>,
    /// The job's task.
    pub task: TaskId,
    /// Arrival instant.
    pub arrived: Instant,
    /// The bound `t_arr + R_i + J_i` that was missed.
    pub deadline: Instant,
    /// Completion instant, if the job completed at all.
    pub completed: Option<Instant>,
}

/// Per-task comparison of the analytical bound with the measured worst
/// case.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TaskOutcome {
    /// The task.
    pub task: TaskId,
    /// The analytical bound `R_i + J_i`.
    pub bound: Duration,
    /// The worst measured response time (over completed jobs).
    pub max_observed: Option<Duration>,
    /// Completed jobs of the task.
    pub completed: usize,
}

impl TaskOutcome {
    /// `max_observed / bound`, the experiment's tightness metric
    /// (`None` until a job completes).
    pub fn tightness(&self) -> Option<f64> {
        let observed = self.max_observed?;
        Some(observed.ticks() as f64 / self.bound.ticks().max(1) as f64)
    }
}

/// The outcome of verifying one run against Thm. 5.1.
#[derive(Debug, Clone)]
pub struct VerificationReport {
    /// Arrivals in the run.
    pub jobs_arrived: usize,
    /// Completions observed.
    pub jobs_completed: usize,
    /// Arrivals whose deadline `t_arr + R_i + J_i` lies within the
    /// horizon and therefore *must* have completed in time.
    pub jobs_with_due_deadline: usize,
    /// Violations of the theorem's conclusion (always zero in our
    /// experiments; non-empty would witness an analysis bug).
    pub violations: Vec<BoundViolation>,
    /// Count of [`VerificationReport::violations`].
    pub bound_violations: usize,
    /// Per-task bound vs measurement.
    pub per_task: Vec<TaskOutcome>,
    /// The worst arrival→read lag observed (informational; related to the
    /// release-jitter experiments of Fig. 7).
    pub max_read_lag: Option<Duration>,
}

impl fmt::Display for VerificationReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} arrivals, {} completed, {} due, {} bound violations",
            self.jobs_arrived, self.jobs_completed, self.jobs_with_due_deadline, self.bound_violations
        )
    }
}

/// Verifies concrete runs of Rössl against the analytical bounds of the
/// RefinedProsa analysis — the executable Thm. 5.1.
#[derive(Debug, Clone)]
pub struct TimingVerifier {
    params: AnalysisParams,
    bounds: AnalysisResult,
}

impl TimingVerifier {
    /// Runs the analysis for `params` (searching busy windows up to
    /// `analysis_horizon`) and prepares the verifier.
    ///
    /// # Errors
    ///
    /// Returns [`VerificationError::Analysis`] when the task set is
    /// unschedulable at these parameters.
    pub fn new(
        params: AnalysisParams,
        analysis_horizon: Duration,
    ) -> Result<TimingVerifier, VerificationError> {
        let bounds = analyse(&params, analysis_horizon).map_err(VerificationError::Analysis)?;
        Ok(TimingVerifier { params, bounds })
    }

    /// A verifier for externally computed bounds (e.g. the tightened
    /// per-task analysis, `prosa::analyse_tight`) — the hypothesis checks
    /// are identical; only the conclusion's bounds differ.
    pub fn with_bounds(params: AnalysisParams, bounds: AnalysisResult) -> TimingVerifier {
        TimingVerifier { params, bounds }
    }

    /// The per-task analytical bounds.
    pub fn bounds(&self) -> &AnalysisResult {
        &self.bounds
    }

    /// The analysis parameters.
    pub fn params(&self) -> &AnalysisParams {
        &self.params
    }

    /// Checks all hypotheses of Thm. 5.1 on the run and evaluates its
    /// conclusion.
    ///
    /// # Errors
    ///
    /// Returns the first violated *hypothesis* as a
    /// [`VerificationError`]. Violations of the *conclusion* (missed
    /// bounds) are reported in the returned
    /// [`VerificationReport::violations`] instead.
    pub fn verify(
        &self,
        arrivals: &ArrivalSequence,
        run: &SimulationResult,
    ) -> Result<VerificationReport, VerificationError> {
        let tasks = self.params.tasks();
        let n_sockets = self.params.n_sockets();
        let wcet = self.params.wcet();

        // Hypothesis 1: arrivals respect the curves (Eq. 2).
        arrivals
            .check_respects_curves(tasks)
            .map_err(|(task, violation)| VerificationError::ArrivalCurve { task, violation })?;

        // Hypothesis 2: scheduler protocol (Def. 3.1). The accepted run
        // delimits the basic actions hypotheses 4 and 6 are about, so the
        // trace is accepted once here and the run passed on.
        let actions = ProtocolAutomaton::new(n_sockets)
            .accept(run.trace.markers())
            .map_err(VerificationError::Protocol)?;

        // Hypothesis 3: functional correctness (Def. 3.2).
        check_functional(run.trace.markers(), tasks).map_err(VerificationError::Functional)?;

        // Hypothesis 4: WCET compliance (§2.3).
        check_wcet_run(&actions, &run.trace, tasks, wcet).map_err(VerificationError::Wcet)?;

        // Hypothesis 5: consistency with the arrivals (Def. 2.1).
        check_consistency(&run.trace, arrivals).map_err(VerificationError::Consistency)?;

        // Hypothesis 6: schedule validity (§2.4).
        let schedule = convert_run(&actions, &run.trace).map_err(VerificationError::Conversion)?;
        let bounds = OverheadBounds::derive(wcet, n_sockets);
        check_validity(&schedule, tasks, &bounds).map_err(VerificationError::Validity)?;

        Ok(self.conclusion(arrivals, run))
    }

    /// The theorem's conclusion on a run whose hypotheses hold: every due
    /// arrival completes within `R_i + J_i`.
    fn conclusion(&self, arrivals: &ArrivalSequence, run: &SimulationResult) -> VerificationReport {
        let tasks = self.params.tasks();
        let arrival_jobs = match_arrivals_to_jobs(arrivals, run.trace.markers());
        // Precomputed completion instants (one trace pass instead of one
        // per arrival).
        let completions: BTreeMap<JobId, Instant> = run
            .trace
            .completions()
            .into_iter()
            .map(|(job, _, at)| (job, at))
            .collect();
        let mut violations = Vec::new();
        let mut due = 0usize;
        for (idx, event) in arrivals.events().iter().enumerate() {
            let bound = self
                .bounds
                .bound_for(event.task)
                .expect("analysis covers all tasks")
                .total_bound();
            let deadline = event.time.saturating_add(bound);
            if deadline >= run.horizon {
                continue; // outside the theorem's t_hrzn condition
            }
            due += 1;
            let job = arrival_jobs.get(&idx).copied();
            let completed = job.and_then(|j| completions.get(&j).copied());
            let in_time = completed.is_some_and(|c| c <= deadline);
            if !in_time {
                violations.push(BoundViolation {
                    job,
                    task: event.task,
                    arrived: event.time,
                    deadline,
                    completed,
                });
            }
        }

        let per_task = tasks
            .iter()
            .map(|t| TaskOutcome {
                task: t.id(),
                bound: self
                    .bounds
                    .bound_for(t.id())
                    .expect("analysis covers all tasks")
                    .total_bound(),
                max_observed: run.max_response_time(t.id()),
                completed: run
                    .jobs
                    .values()
                    .filter(|r| r.task == t.id() && r.completed.is_some())
                    .count(),
            })
            .collect();

        VerificationReport {
            jobs_arrived: arrivals.len(),
            jobs_completed: run.completed_count(),
            jobs_with_due_deadline: due,
            bound_violations: violations.len(),
            violations,
            per_task,
            max_read_lag: run.max_read_lag(),
        }
    }
}

/// Matches arrival events (by index) to the jobs that read them, using the
/// per-socket FIFO discipline: the `k`-th successful read on a socket
/// consumes the `k`-th arrival on that socket.
fn match_arrivals_to_jobs(
    arrivals: &ArrivalSequence,
    markers: &[Marker],
) -> BTreeMap<usize, JobId> {
    // Per socket, the arrival-event indices in FIFO order.
    let mut per_socket: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
    for (idx, e) in arrivals.events().iter().enumerate() {
        per_socket.entry(e.sock.0).or_default().push(idx);
    }
    let mut consumed: BTreeMap<usize, usize> = BTreeMap::new();
    let mut out = BTreeMap::new();
    for m in markers {
        if let Marker::ReadEnd { sock, job: Some(j) } = m {
            let k = consumed.entry(sock.0).or_insert(0);
            if let Some(idx) = per_socket.get(&sock.0).and_then(|v| v.get(*k)) {
                out.insert(*idx, j.id());
            }
            *k += 1;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rossl::{ClientConfig, FirstByteCodec};
    use rossl_model::{Curve, Priority, Task, TaskSet, WcetTable};
    use rossl_timing::{workload, Simulator, WorstCase};

    fn verifier(n_sockets: usize) -> TimingVerifier {
        let tasks = TaskSet::new(vec![
            Task::new(
                TaskId(0),
                "low",
                Priority(1),
                Duration(30),
                Curve::sporadic(Duration(1_500)),
            ),
            Task::new(
                TaskId(1),
                "high",
                Priority(9),
                Duration(10),
                Curve::sporadic(Duration(900)),
            ),
        ])
        .unwrap();
        let params = AnalysisParams::new(tasks, WcetTable::example(), n_sockets).unwrap();
        TimingVerifier::new(params, Duration(300_000)).unwrap()
    }

    #[test]
    fn clean_runs_verify_with_zero_violations() {
        for n_sockets in [1usize, 2] {
            let v = verifier(n_sockets);
            let tasks = v.params().tasks().clone();
            let arrivals = workload::saturating(
                &tasks,
                &FirstByteCodec,
                &workload::round_robin_sockets(n_sockets),
                Instant(20_000),
            );
            let config = ClientConfig::new(tasks, n_sockets).unwrap();
            let run = Simulator::new(config, FirstByteCodec, *v.params().wcet(), WorstCase)
                .unwrap()
                .run(&arrivals, Instant(30_000))
                .unwrap();
            let report = v.verify(&arrivals, &run).unwrap();
            assert_eq!(report.bound_violations, 0, "report: {report}");
            assert!(report.jobs_with_due_deadline > 0);
            assert!(report.jobs_completed > 0);
            for t in &report.per_task {
                if let Some(tightness) = t.tightness() {
                    assert!(tightness <= 1.0, "observed exceeds bound: {tightness}");
                }
            }
        }
    }

    #[test]
    fn curve_violating_workloads_are_rejected() {
        use rossl_model::{Message, SocketId};
        use rossl_sockets::ArrivalEvent;
        let v = verifier(1);
        // Two arrivals of the sporadic(900) task 1 tick apart.
        let arrivals = ArrivalSequence::from_events(vec![
            ArrivalEvent {
                time: Instant(10),
                sock: SocketId(0),
                task: TaskId(1),
                msg: Message::new(vec![1]),
            },
            ArrivalEvent {
                time: Instant(11),
                sock: SocketId(0),
                task: TaskId(1),
                msg: Message::new(vec![1]),
            },
        ]);
        let config = ClientConfig::new(v.params().tasks().clone(), 1).unwrap();
        let run = Simulator::new(config, FirstByteCodec, *v.params().wcet(), WorstCase)
            .unwrap()
            .run(&arrivals, Instant(10_000))
            .unwrap();
        assert!(matches!(
            v.verify(&arrivals, &run),
            Err(VerificationError::ArrivalCurve { task: TaskId(1), .. })
        ));
    }

    #[test]
    fn unschedulable_parameters_fail_analysis() {
        let tasks = TaskSet::new(vec![Task::new(
            TaskId(0),
            "hot",
            Priority(1),
            Duration(100),
            Curve::sporadic(Duration(50)),
        )])
        .unwrap();
        let params = AnalysisParams::new(tasks, WcetTable::example(), 1).unwrap();
        assert!(matches!(
            TimingVerifier::new(params, Duration(10_000)),
            Err(VerificationError::Analysis(_))
        ));
    }

    /// `verify` accepts the trace once and passes the run to hypotheses
    /// 4 and 6. These properties pin it, and the run entry points it
    /// uses, to the standalone composition in which each of hypotheses
    /// 2, 4 and 6 accepts the trace itself.
    mod single_accept {
        use super::*;
        use crate::{RosslSystem, SystemBuilder};
        use proptest::prelude::*;
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        use rossl_faults::{FaultClass, FaultPlan};
        use rossl_schedule::convert;
        use rossl_timing::{check_wcet_compliance, TimedTrace, UniformCost};

        /// The standalone composition: `check_wcet_compliance` and
        /// `convert` each accept the trace again.
        fn reference_verify(
            v: &TimingVerifier,
            arrivals: &ArrivalSequence,
            run: &SimulationResult,
        ) -> Result<VerificationReport, VerificationError> {
            let tasks = v.params.tasks();
            let n_sockets = v.params.n_sockets();
            let wcet = v.params.wcet();
            arrivals
                .check_respects_curves(tasks)
                .map_err(|(task, violation)| VerificationError::ArrivalCurve { task, violation })?;
            ProtocolAutomaton::new(n_sockets)
                .accept(run.trace.markers())
                .map_err(VerificationError::Protocol)?;
            check_functional(run.trace.markers(), tasks).map_err(VerificationError::Functional)?;
            check_wcet_compliance(&run.trace, tasks, wcet, n_sockets)
                .map_err(VerificationError::Wcet)?;
            check_consistency(&run.trace, arrivals).map_err(VerificationError::Consistency)?;
            let schedule = convert(&run.trace, n_sockets).map_err(VerificationError::Conversion)?;
            let bounds = OverheadBounds::derive(wcet, n_sockets);
            check_validity(&schedule, tasks, &bounds).map_err(VerificationError::Validity)?;
            Ok(v.conclusion(arrivals, run))
        }

        /// The `pipeline_properties` systems: 1–3 tasks, 1–2 sockets.
        fn arb_system() -> impl Strategy<Value = RosslSystem> {
            (
                proptest::collection::vec((1u32..10, 5u64..30), 1..4),
                1usize..3,
            )
                .prop_map(|(specs, n_sockets)| {
                    let mut b = SystemBuilder::new().sockets(n_sockets);
                    for (i, (prio, wcet)) in specs.iter().enumerate() {
                        b = b.task(
                            format!("t{i}"),
                            Priority(*prio),
                            Duration(*wcet),
                            Curve::sporadic(Duration(700 + 400 * i as u64)),
                        );
                    }
                    b.build().expect("valid")
                })
        }

        /// The E16 socket and cost fault classes (process and fleet
        /// faults never reach the timing pipeline).
        fn arb_fault() -> impl Strategy<Value = Option<FaultClass>> {
            proptest::option::of(prop_oneof![
                Just(FaultClass::Drop),
                Just(FaultClass::Duplicate),
                Just(FaultClass::Reroute),
                (2u32..5).prop_map(|factor| FaultClass::Burst { factor }),
                (1u64..40).prop_map(|d| FaultClass::DelayedVisibility { delay: Duration(d) }),
                (1u64..60).prop_map(|s| FaultClass::UniformDelay { shift: Duration(s) }),
                (2u32..5).prop_map(|factor| FaultClass::WcetOverrun { factor }),
                (1u64..10).prop_map(|e| FaultClass::ClockJitter { extra: Duration(e) }),
                (2u32..4).prop_map(|factor| FaultClass::StalledIdle { factor }),
                (1u32..4).prop_map(|divisor| FaultClass::ExecutionSlack { divisor }),
            ])
        }

        /// How a simulated trace is corrupted before checking.
        #[derive(Debug, Clone, Copy)]
        enum Mutation {
            Keep,
            /// Cut the trace after a marker.
            Truncate,
            /// Remove one marker.
            Drop,
            /// Exchange two adjacent markers (timestamps stay).
            Swap,
            /// Delay every marker from one on by `extra` ticks.
            Stretch(u64),
        }

        fn arb_mutation() -> impl Strategy<Value = (Mutation, u16)> {
            (
                prop_oneof![
                    Just(Mutation::Keep),
                    Just(Mutation::Truncate),
                    Just(Mutation::Drop),
                    Just(Mutation::Swap),
                    (1u64..40).prop_map(Mutation::Stretch),
                ],
                0u16..=u16::MAX,
            )
        }

        fn mutate(trace: &TimedTrace, mutation: Mutation, at: u16) -> TimedTrace {
            let mut markers = trace.markers().to_vec();
            let mut stamps = trace.timestamps().to_vec();
            let at = usize::from(at) * markers.len() / (usize::from(u16::MAX) + 1);
            match mutation {
                Mutation::Keep => {}
                Mutation::Truncate => {
                    markers.truncate(at);
                    stamps.truncate(at);
                }
                Mutation::Drop if at < markers.len() => {
                    markers.remove(at);
                    stamps.remove(at);
                }
                Mutation::Swap if at + 1 < markers.len() => markers.swap(at, at + 1),
                Mutation::Stretch(extra) => {
                    for t in &mut stamps[at..] {
                        *t = t.saturating_add(Duration(extra));
                    }
                }
                Mutation::Drop | Mutation::Swap => {}
            }
            TimedTrace::new(markers, stamps).expect("mutations keep timestamps monotone")
        }

        /// A seeded run of `system`, under `fault` when given, with its
        /// trace mutated; and the arrival sequence verification claims.
        fn case(
            system: &RosslSystem,
            seed: u64,
            fault: Option<FaultClass>,
            (mutation, at): (Mutation, u16),
        ) -> (ArrivalSequence, SimulationResult) {
            let horizon = Instant(6_000);
            let arrivals = system.random_workload(seed, horizon);
            let cost = UniformCost::new(StdRng::seed_from_u64(seed ^ 0xABCD));
            let (claimed, mut run) = match fault {
                None => {
                    let run = system
                        .simulate(&arrivals, cost, horizon)
                        .expect("simulation");
                    (arrivals, run)
                }
                Some(class) => {
                    let plan = FaultPlan::single(seed ^ 0x51, class, 600);
                    let faulty = system
                        .simulate_faulty(&arrivals, cost, &plan, None, horizon)
                        .expect("faulty simulation");
                    (faulty.claimed(&plan, &arrivals).clone(), faulty.result)
                }
            };
            run.trace = mutate(&run.trace, mutation, at);
            (claimed, run)
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            /// `check_wcet_run` and `convert_run` on the accepted run give
            /// what the standalone checks give: the same `Ok`, or the same
            /// error (a protocol error when the trace is not accepted).
            #[test]
            fn run_entry_points_match_standalone_checks(
                system in arb_system(),
                seed in 0u64..500,
                fault in arb_fault(),
                mutation in arb_mutation(),
            ) {
                let (_, run) = case(&system, seed, fault, mutation);
                let (tasks, wcet, n) = (system.tasks(), system.wcet(), system.n_sockets());
                let staged = match ProtocolAutomaton::new(n).accept(run.trace.markers()) {
                    Ok(actions) => (
                        check_wcet_run(&actions, &run.trace, tasks, wcet),
                        convert_run(&actions, &run.trace),
                    ),
                    Err(e) => (
                        Err(WcetViolation::Protocol(e.clone())),
                        Err(ConversionError::Protocol(e)),
                    ),
                };
                let standalone = (
                    check_wcet_compliance(&run.trace, tasks, wcet, n),
                    convert(&run.trace, n),
                );
                prop_assert_eq!(staged, standalone);
            }

            /// `verify` returns the report or error of the standalone
            /// composition, hypothesis order included.
            #[test]
            fn verify_matches_standalone_composition(
                system in arb_system(),
                seed in 0u64..500,
                fault in arb_fault(),
                mutation in arb_mutation(),
            ) {
                let Ok(verifier) = system.verifier(Duration(300_000)) else {
                    return Ok(()); // unschedulable
                };
                let (claimed, run) = case(&system, seed, fault, mutation);
                prop_assert_eq!(
                    format!("{:?}", verifier.verify(&claimed, &run)),
                    format!("{:?}", reference_verify(&verifier, &claimed, &run))
                );
            }
        }
    }
}
