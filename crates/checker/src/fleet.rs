//! Cross-shard stitched checking for fleet failover (DESIGN §10).
//!
//! A fleet run partitions history per shard: each shard carries its own
//! crash-separated segments, and a failover moves a dead shard's
//! uncompleted jobs to a successor under fresh job ids, recorded in a
//! [`MigrationManifest`]. [`check_fleet`] extends the single-shard
//! stitched check ([`rossl_trace::check_stitched`]) across that
//! cross-shard seam:
//!
//! * **Per shard** — every shard's segments must pass the same three
//!   layers as a crashing single scheduler (per-segment protocol,
//!   cross-segment functional correctness, per-socket consumed-message
//!   accounting), except that jobs re-pended by a manifest are injected
//!   into the successor's pending set at the migration seam — without
//!   the manifest their dispatches would be `DispatchOfNonPending`,
//!   which is exactly what makes a forged migration detectable.
//! * **Conservation across the seam** — for each dead shard, the set of
//!   jobs accepted but not completed on its committed history must
//!   *equal* the set migrated away (matched by task and payload): a
//!   leftover job with no manifest entry is a lost job
//!   ([`FleetCheckError::LostShardJobs`] — the `dropped-failover`
//!   oracle), and a manifest entry with no matching leftover is a
//!   fabricated one ([`FleetCheckError::PhantomMigration`]).
//! * **Justification** — only dead shards may be migrated from
//!   ([`FleetCheckError::UnjustifiedMigration`]): an unforced failover
//!   is itself a bug, not resilience.

use std::collections::{BTreeMap, HashSet};
use std::fmt;

use rossl_model::{Job, JobId, Mode, SocketId, TaskSet};
use rossl_trace::{
    FunctionalError, Marker, ProtocolAutomaton, SeamViolation, StitchedError, Trace,
};

/// One shard's complete observable history in a fleet run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardHistory {
    /// The shard's index in the fleet.
    pub shard: usize,
    /// Crash-separated trace segments, oldest first. For a dead shard
    /// the final segment is the journal's committed prefix and may end
    /// mid-action.
    pub segments: Vec<Trace>,
    /// Messages the environment recorded as consumed per socket
    /// (index = socket id) on this shard.
    pub consumed: Vec<usize>,
    /// `true` when the fleet supervisor declared this shard dead
    /// (restart budget exhausted or heartbeat timeout).
    pub dead: bool,
}

/// One job carried across a shard boundary by failover migration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MigratedJob {
    /// The job's id on the dead shard.
    pub old: JobId,
    /// The re-pended job on the successor: same task and payload, a
    /// fresh id from the successor's id space.
    pub job: Job,
}

/// The record of one failover migration, written by the fleet
/// supervisor as it replays a dead shard's journal onto a successor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MigrationManifest {
    /// The dead shard migrated from.
    pub from_shard: usize,
    /// The successor migrated to.
    pub to_shard: usize,
    /// Index of the successor segment that begins after the migration
    /// restart: the moved jobs enter the successor's pending set at
    /// that seam.
    pub at_segment: usize,
    /// The jobs that moved.
    pub moved: Vec<MigratedJob>,
}

/// Why a fleet history was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FleetCheckError {
    /// A single shard's history fails the stitched check on its own
    /// (with migrations already accounted for).
    Shard {
        /// The offending shard.
        shard: usize,
        /// The underlying per-shard error.
        error: StitchedError,
    },
    /// A migration was recorded from a shard never declared dead.
    UnjustifiedMigration {
        /// The (live) shard migrated from.
        from_shard: usize,
        /// The successor migrated to.
        to_shard: usize,
    },
    /// A dead shard's uncompleted accepted jobs were not all migrated —
    /// the failover dropped work (the `dropped-failover` oracle).
    LostShardJobs {
        /// The dead shard.
        shard: usize,
        /// The accepted-but-neither-completed-nor-migrated jobs.
        jobs: Vec<JobId>,
    },
    /// A manifest entry has no matching uncompleted job on the dead
    /// shard (wrong id, task, or payload): migrated state was
    /// fabricated or corrupted in flight.
    PhantomMigration {
        /// The shard migrated from.
        from_shard: usize,
        /// The unmatched dead-shard job id claimed by the manifest.
        job: JobId,
    },
}

impl fmt::Display for FleetCheckError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FleetCheckError::Shard { shard, error } => write!(f, "shard {shard}: {error}"),
            FleetCheckError::UnjustifiedMigration {
                from_shard,
                to_shard,
            } => write!(
                f,
                "migration from live shard {from_shard} to {to_shard} without a declared death"
            ),
            FleetCheckError::LostShardJobs { shard, jobs } => write!(
                f,
                "dead shard {shard} lost {} accepted job(s) never migrated: {jobs:?}",
                jobs.len()
            ),
            FleetCheckError::PhantomMigration { from_shard, job } => write!(
                f,
                "manifest migrates job {job} that shard {from_shard} never had pending"
            ),
        }
    }
}

impl std::error::Error for FleetCheckError {}

/// What a successful fleet check established.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FleetReport {
    /// Shards checked.
    pub shards: usize,
    /// Shards that died during the run.
    pub dead_shards: usize,
    /// Migrations verified against their manifests.
    pub migrations: usize,
    /// Jobs carried across shard boundaries.
    pub migrated_jobs: usize,
    /// Jobs completed across the whole fleet.
    pub jobs_completed: usize,
    /// Jobs still pending (or in flight) when every history ends —
    /// includes a dead shard's leftovers, which conservation has proven
    /// re-pended on a successor.
    pub jobs_pending_at_end: usize,
}

/// Checks a fleet's per-shard histories against its migration
/// manifests; see the [module docs](self) for the layers.
///
/// Every shard is assumed to run the same `tasks` / `n_sockets`
/// configuration, as the fleet constructor enforces.
///
/// # Errors
///
/// Returns the first [`FleetCheckError`] found, checking per-shard
/// functional/seam layers first (so a forged migration is diagnosed as
/// the dispatch-of-nonpending it causes), then cross-shard
/// conservation, then per-segment protocol.
pub fn check_fleet(
    shards: &[ShardHistory],
    manifests: &[MigrationManifest],
    tasks: &TaskSet,
    n_sockets: usize,
) -> Result<FleetReport, FleetCheckError> {
    let dead: HashSet<usize> = shards.iter().filter(|s| s.dead).map(|s| s.shard).collect();
    for m in manifests {
        if !dead.contains(&m.from_shard) {
            return Err(FleetCheckError::UnjustifiedMigration {
                from_shard: m.from_shard,
                to_shard: m.to_shard,
            });
        }
    }

    let mut jobs_completed = 0usize;
    let mut jobs_pending_at_end = 0usize;
    // Per dead shard: the uncompleted accepted jobs its history leaves
    // behind, to be matched against the manifests.
    let mut leftovers: BTreeMap<usize, BTreeMap<JobId, Job>> = BTreeMap::new();

    for shard in shards {
        let (pending, completed) = check_one_shard(shard, manifests, tasks, n_sockets)?;
        jobs_completed += completed;
        jobs_pending_at_end += pending.len();
        if shard.dead {
            leftovers.insert(shard.shard, pending);
        }
    }

    // Conservation: each dead shard's leftovers equal what its
    // manifests moved, matched by (old id, task, payload).
    let mut migrated_jobs = 0usize;
    for m in manifests {
        let left = leftovers.entry(m.from_shard).or_default();
        for mj in &m.moved {
            match left.remove(&mj.old) {
                Some(orig)
                    if orig.task() == mj.job.task() && orig.data() == mj.job.data() =>
                {
                    migrated_jobs += 1;
                }
                _ => {
                    return Err(FleetCheckError::PhantomMigration {
                        from_shard: m.from_shard,
                        job: mj.old,
                    })
                }
            }
        }
    }
    for (shard, left) in &leftovers {
        if !left.is_empty() {
            return Err(FleetCheckError::LostShardJobs {
                shard: *shard,
                jobs: left.keys().copied().collect(),
            });
        }
    }

    // Protocol: each segment independently, from the initial state.
    let sts = ProtocolAutomaton::new(n_sockets);
    for shard in shards {
        for (segment, trace) in shard.segments.iter().enumerate() {
            sts.validate(trace).map_err(|error| FleetCheckError::Shard {
                shard: shard.shard,
                error: StitchedError::Protocol { segment, error },
            })?;
        }
    }

    Ok(FleetReport {
        shards: shards.len(),
        dead_shards: dead.len(),
        migrations: manifests.len(),
        migrated_jobs,
        jobs_completed,
        jobs_pending_at_end,
    })
}

/// The stitched functional + seam pass for one shard, with manifest
/// jobs injected at their migration seams. Returns the uncompleted
/// accepted jobs at the end of the history and the completion count.
#[allow(clippy::too_many_lines)]
fn check_one_shard(
    shard: &ShardHistory,
    manifests: &[MigrationManifest],
    tasks: &TaskSet,
    n_sockets: usize,
) -> Result<(BTreeMap<JobId, Job>, usize), FleetCheckError> {
    let fail = |segment: usize, error: FunctionalError| FleetCheckError::Shard {
        shard: shard.shard,
        error: StitchedError::Functional { segment, error },
    };
    let seam = |violation: SeamViolation| FleetCheckError::Shard {
        shard: shard.shard,
        error: StitchedError::Seam(violation),
    };
    let priority_of = |segment: usize, index: usize, job: &Job| {
        tasks.task(job.task()).map(|t| t.priority()).ok_or_else(|| {
            fail(
                segment,
                FunctionalError::UnknownTask {
                    index,
                    task: job.task(),
                },
            )
        })
    };
    let eligible_in = |segment: usize, index: usize, mode: Mode, job: &Job| {
        tasks
            .task(job.task())
            .map(|t| mode.serves(t.criticality()))
            .ok_or_else(|| {
                fail(
                    segment,
                    FunctionalError::UnknownTask {
                        index,
                        task: job.task(),
                    },
                )
            })
    };

    let mut pending: BTreeMap<JobId, Job> = BTreeMap::new();
    let mut seen_ids: HashSet<JobId> = HashSet::new();
    let mut completed: HashSet<JobId> = HashSet::new();
    let mut in_flight: Option<Job> = None;
    let mut voided: HashSet<JobId> = HashSet::new();
    let mut reads_per_sock: Vec<usize> = vec![0; n_sockets];
    let mut mode = Mode::default();

    for (segment, trace) in shard.segments.iter().enumerate() {
        if segment > 0 {
            // Restart seam, exactly as in `check_stitched`: an in-flight
            // dispatch is voided and the job returns to pending.
            if let Some(j) = in_flight.take() {
                voided.insert(j.id());
                pending.insert(j.id(), j);
            }
        }
        // Migration seam: jobs replayed from a dead shard's journal
        // enter this shard's pending set under their fresh ids.
        for m in manifests {
            if m.to_shard != shard.shard || m.at_segment != segment {
                continue;
            }
            for mj in &m.moved {
                if !seen_ids.insert(mj.job.id()) {
                    return Err(fail(
                        segment,
                        FunctionalError::DuplicateJobId {
                            index: 0,
                            id: mj.job.id(),
                        },
                    ));
                }
                priority_of(segment, 0, &mj.job)?;
                pending.insert(mj.job.id(), mj.job.clone());
            }
        }
        for (index, marker) in trace.iter().enumerate() {
            match marker {
                Marker::ReadEnd { sock, job: Some(j) } => {
                    if !seen_ids.insert(j.id()) {
                        return Err(fail(
                            segment,
                            FunctionalError::DuplicateJobId { index, id: j.id() },
                        ));
                    }
                    priority_of(segment, index, j)?;
                    if sock.0 < n_sockets {
                        reads_per_sock[sock.0] += 1;
                    }
                    pending.insert(j.id(), j.clone());
                }
                Marker::Dispatch(j) => {
                    if completed.contains(&j.id()) {
                        return Err(seam(SeamViolation::DuplicateDispatch {
                            segment,
                            index,
                            job: j.id(),
                        }));
                    }
                    if !pending.contains_key(&j.id()) {
                        return Err(fail(
                            segment,
                            FunctionalError::DispatchOfNonPending { index, job: j.id() },
                        ));
                    }
                    if !eligible_in(segment, index, mode, j)? {
                        return Err(fail(
                            segment,
                            FunctionalError::DispatchOfSuspended { index, job: j.id() },
                        ));
                    }
                    let p = priority_of(segment, index, j)?;
                    for other in pending.values() {
                        if eligible_in(segment, index, mode, other)?
                            && priority_of(segment, index, other)? > p
                        {
                            return Err(fail(
                                segment,
                                FunctionalError::DispatchNotHighestPriority {
                                    index,
                                    dispatched: j.id(),
                                    better: other.id(),
                                },
                            ));
                        }
                    }
                    pending.remove(&j.id());
                    in_flight = Some(j.clone());
                }
                Marker::Completion(j) => {
                    if !completed.insert(j.id()) {
                        return Err(seam(SeamViolation::DuplicateCompletion {
                            segment,
                            index,
                            job: j.id(),
                        }));
                    }
                    in_flight = None;
                }
                Marker::Idling => {
                    let mut eligible = 0usize;
                    for job in pending.values() {
                        if eligible_in(segment, index, mode, job)? {
                            eligible += 1;
                        }
                    }
                    if eligible > 0 {
                        return Err(fail(
                            segment,
                            FunctionalError::IdleWithPendingJobs {
                                index,
                                pending: eligible,
                            },
                        ));
                    }
                }
                Marker::ModeSwitch { from, to } => {
                    if *from != mode {
                        return Err(fail(
                            segment,
                            FunctionalError::InconsistentModeSwitch {
                                index,
                                expected: mode,
                                found: *from,
                            },
                        ));
                    }
                    mode = *to;
                }
                _ => {}
            }
        }
    }

    // Accepted-job accounting against the environment, per socket.
    for (sock, &observed) in reads_per_sock.iter().enumerate() {
        let consumed = shard.consumed.get(sock).copied().unwrap_or(0);
        if consumed != observed {
            return Err(seam(SeamViolation::LostAcceptedJob {
                sock: SocketId(sock),
                consumed,
                observed,
            }));
        }
    }

    // A dead shard's in-flight job is voided by the migration replay:
    // it counts among the uncompleted leftovers to be moved.
    if let Some(j) = in_flight {
        pending.insert(j.id(), j);
    }
    Ok((pending, completed.len()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rossl_model::{Curve, Duration, Priority, Task, TaskId};

    fn tasks() -> TaskSet {
        TaskSet::new(vec![Task::new(
            TaskId(0),
            "only",
            Priority(5),
            Duration(5),
            Curve::sporadic(Duration(10)),
        )])
        .unwrap()
    }

    fn job(id: u64) -> Job {
        Job::new(JobId(id), TaskId(0), vec![0, id as u8])
    }

    fn read_ok(j: Job) -> Vec<Marker> {
        vec![
            Marker::ReadStart,
            Marker::ReadEnd {
                sock: SocketId(0),
                job: Some(j),
            },
        ]
    }

    fn read_fail() -> Vec<Marker> {
        vec![
            Marker::ReadStart,
            Marker::ReadEnd {
                sock: SocketId(0),
                job: None,
            },
        ]
    }

    /// One polling round that accepts `j`, then drains it: poll-success,
    /// poll-fail, select, dispatch, execute, complete.
    fn accept_and_complete(j: Job) -> Vec<Marker> {
        let mut t = read_ok(j.clone());
        t.extend(read_fail());
        t.push(Marker::Selection);
        t.push(Marker::Dispatch(j.clone()));
        t.push(Marker::Execution(j.clone()));
        t.push(Marker::Completion(j));
        t
    }

    /// A trace that accepts `j` and dies before dispatching it.
    fn accept_and_die(j: Job) -> Vec<Marker> {
        let mut t = read_ok(j);
        t.extend(read_fail());
        t.push(Marker::Selection);
        t
    }

    #[test]
    fn migration_reconciles_dead_shard_leftovers() {
        // Shard 0 accepts job 7 and dies; shard 1 receives it as its
        // own job 100 and completes it.
        let moved = Job::new(JobId(100), TaskId(0), vec![0, 7]);
        let shards = [
            ShardHistory {
                shard: 0,
                segments: vec![accept_and_die(job(7))],
                consumed: vec![1],
                dead: true,
            },
            ShardHistory {
                shard: 1,
                segments: vec![
                    accept_and_complete(job(0)),
                    {
                        let mut t = read_fail();
                        t.push(Marker::Selection);
                        t.push(Marker::Dispatch(moved.clone()));
                        t.push(Marker::Execution(moved.clone()));
                        t.push(Marker::Completion(moved.clone()));
                        t
                    },
                ],
                consumed: vec![1],
                dead: false,
            },
        ];
        let manifests = [MigrationManifest {
            from_shard: 0,
            to_shard: 1,
            at_segment: 1,
            moved: vec![MigratedJob {
                old: JobId(7),
                job: moved,
            }],
        }];
        let report = check_fleet(&shards, &manifests, &tasks(), 1).expect("fleet checks");
        assert_eq!(report.shards, 2);
        assert_eq!(report.dead_shards, 1);
        assert_eq!(report.migrations, 1);
        assert_eq!(report.migrated_jobs, 1);
        assert_eq!(report.jobs_completed, 2);
        // The dead shard's leftover is accounted for by the migration.
        assert_eq!(report.jobs_pending_at_end, 1);
    }

    #[test]
    fn dropped_failover_is_lost_shard_jobs() {
        // Shard 0 dies with job 7 pending and nothing is migrated.
        let shards = [
            ShardHistory {
                shard: 0,
                segments: vec![accept_and_die(job(7))],
                consumed: vec![1],
                dead: true,
            },
            ShardHistory {
                shard: 1,
                segments: vec![accept_and_complete(job(0))],
                consumed: vec![1],
                dead: false,
            },
        ];
        let err = check_fleet(&shards, &[], &tasks(), 1).unwrap_err();
        assert_eq!(
            err,
            FleetCheckError::LostShardJobs {
                shard: 0,
                jobs: vec![JobId(7)],
            }
        );
    }

    #[test]
    fn migration_from_live_shard_is_unjustified() {
        let shards = [ShardHistory {
            shard: 0,
            segments: vec![accept_and_complete(job(0))],
            consumed: vec![1],
            dead: false,
        }];
        let manifests = [MigrationManifest {
            from_shard: 0,
            to_shard: 1,
            at_segment: 1,
            moved: vec![],
        }];
        let err = check_fleet(&shards, &manifests, &tasks(), 1).unwrap_err();
        assert_eq!(
            err,
            FleetCheckError::UnjustifiedMigration {
                from_shard: 0,
                to_shard: 1,
            }
        );
    }

    #[test]
    fn fabricated_migration_is_phantom() {
        // Shard 0 dies clean (everything completed); the manifest still
        // claims a job moved.
        let shards = [
            ShardHistory {
                shard: 0,
                segments: vec![accept_and_complete(job(3))],
                consumed: vec![1],
                dead: true,
            },
            ShardHistory {
                shard: 1,
                segments: vec![read_fail()],
                consumed: vec![0],
                dead: false,
            },
        ];
        let manifests = [MigrationManifest {
            from_shard: 0,
            to_shard: 1,
            at_segment: 1,
            moved: vec![MigratedJob {
                old: JobId(3),
                job: Job::new(JobId(50), TaskId(0), vec![0, 3]),
            }],
        }];
        let err = check_fleet(&shards, &manifests, &tasks(), 1).unwrap_err();
        assert!(matches!(err, FleetCheckError::PhantomMigration { .. }));
    }

    #[test]
    fn dispatch_of_unmigrated_job_is_nonpending() {
        // Shard 1 dispatches a job that no manifest delivered: without
        // the manifest layer this is the forged-migration signature.
        let ghost = Job::new(JobId(100), TaskId(0), vec![0, 9]);
        let mut t = read_fail();
        t.push(Marker::Selection);
        t.push(Marker::Dispatch(ghost));
        let shards = [ShardHistory {
            shard: 1,
            segments: vec![t],
            consumed: vec![0],
            dead: false,
        }];
        let err = check_fleet(&shards, &[], &tasks(), 1).unwrap_err();
        assert!(matches!(
            err,
            FleetCheckError::Shard {
                shard: 1,
                error: StitchedError::Functional {
                    error: FunctionalError::DispatchOfNonPending { .. },
                    ..
                },
            }
        ));
    }
}
