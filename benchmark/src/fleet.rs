//! `fleet-steady`: fault-free `Fleet::run` drives on the E22 fleet
//! system. Traffic is the fleet's own open loop in virtual ticks, fixed
//! by the op seed, so it never lags behind host time. The chaos shape
//! (one kill or pause per run) is measured in the ledger.

use std::sync::{Arc, OnceLock};
use std::time::Instant as Wall;

use refined_prosa::{RosslSystem, SystemBuilder};
use rossl::{ClientConfig, SeededBug};
use rossl_faults::{FaultClass, FaultPlan, FaultSpec};
use rossl_fleet::{
    payload, seq_of, splitmix64, Fleet, FleetConfig, FleetOutcome, Router, Shard, ShardEvent,
    ShardStatus, Workload,
};
use rossl_journal::{recover, JournalWriter, TimedEvent};
use rossl_model::{Criticality, Curve, Duration, Priority, SocketId, TaskId};
use rossl_obs::Registry;
use rossl_trace::Marker;
use rossl_verify::{check_fleet, ShardHistory};

use crate::digest::{mix, Digest};
use crate::ledger::{Layer, Tracer};
use crate::stats::{median, median_ns, summarise, P90};
use crate::{keep_going, Budget, Metrics, Run};

/// Traffic shape of one run and how many leading runs make up the
/// digest and tick samples.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    pub workload: Workload,
    pub cycle: u64,
}

impl Scale {
    /// E22's gap; 40 jobs per key keeps one run near 15 ms, so a run of
    /// the benchmark holds a thousand or more of them.
    pub const STEADY: Scale = Scale {
        workload: Workload {
            jobs_per_key: 40,
            gap_ticks: 400,
        },
        cycle: 400,
    };
    pub const TINY: Scale = Scale {
        workload: Workload {
            jobs_per_key: 20,
            gap_ticks: 400,
        },
        cycle: 6,
    };
}

/// The chaos shape: two surviving shards start shedding near gap 40;
/// 48 stays below that point, so every schedule completes all its jobs.
const CHAOS: Workload = Workload {
    jobs_per_key: 40,
    gap_ticks: 48,
};

pub struct Inputs {
    seed: u64,
    scale: Scale,
    system: RosslSystem,
}

/// The E22 fleet system: three equal tasks on three sockets, so any
/// shard can absorb any other shard's jobs at failover.
fn fleet_system() -> RosslSystem {
    let mut builder = SystemBuilder::new();
    for (i, name) in ["telemetry", "control", "safety"].iter().enumerate() {
        builder = builder.task(
            *name,
            Priority(10 + i as u32),
            Duration(2),
            Curve::sporadic(Duration(300)),
        );
    }
    builder.sockets(3).build().expect("fleet system builds")
}

impl Inputs {
    pub fn new(seed: u64, scale: Scale) -> Inputs {
        Inputs {
            seed,
            scale,
            system: fleet_system(),
        }
    }
}

/// Chaos schedule `i`: a kill (even `i`) or a pause (odd `i`) of one
/// shard in the first half of the traffic, with the tick it fires at.
fn chaos_plan(seed: u64, i: u64) -> (FaultPlan, u64) {
    let horizon = CHAOS.jobs_per_key * CHAOS.gap_ticks;
    let shard = (splitmix64(seed) % 3) as usize;
    let at_tick = 1 + splitmix64(seed ^ 0xA7) % (horizon / 2);
    let class = if i % 2 == 0 {
        FaultClass::ShardKill { shard, at_tick }
    } else {
        FaultClass::ShardPause {
            shard,
            at_tick,
            for_ticks: 1 + splitmix64(seed ^ 0xB3) % 300,
        }
    };
    (
        FaultPlan::empty(seed).with(FaultSpec::always(class)),
        at_tick,
    )
}

/// Does the outcome pass every chaos oracle: nothing accepted was lost,
/// no in-model shard broke its bound, every failover had a fault behind
/// it, and the cross-shard checker accepts the histories?
fn oracles_hold(o: &FleetOutcome) -> bool {
    o.lost.is_empty()
        && o.unjustified_failovers.is_empty()
        && o.bound_violations == 0
        && o.fleet_check.is_ok()
}

fn digest_outcome(d: &mut Digest, o: &FleetOutcome) {
    d.add_all([
        o.ticks,
        o.submissions,
        o.delivered,
        o.completed,
        o.shed,
        o.failed,
        o.resent,
        o.bound_violations,
    ]);
    d.add_all(o.failovers.iter().flat_map(|f| {
        [
            f.dead as u64,
            f.detect_tick,
            f.migrated_tick,
            f.migrated_jobs as u64,
            f.resent as u64,
        ]
    }));
    d.add_all(
        o.responses
            .iter()
            .flat_map(|r| [r.seq, r.shard as u64, r.response]),
    );
}

/// Runs whole fault-free fleets back to back until the budget is spent.
pub fn run(inputs: &Inputs, budget: &Budget, tracer: &mut Tracer) -> Run {
    let mut out = Run::default();
    let started = Wall::now();
    let workload = inputs.scale.workload;
    let mut i = 0u64;
    while keep_going(started, budget, i) {
        let seed = mix(inputs.seed, i);
        let config = FleetConfig {
            seed,
            ..FleetConfig::default()
        };
        let horizon = config.analysis_horizon;
        let traced = budget.traced(i);
        tracer.set_enabled(traced);

        let t = Wall::now();
        tracer.begin_op(i);
        let fleet = tracer.call(Layer::Fleet, "fleet.new", || {
            Fleet::new(&inputs.system, config)
        });
        let outcome = fleet.ok().map(|mut fleet| {
            tracer.call(Layer::Fleet, "fleet.run", || {
                fleet.run(workload, &FaultPlan::empty(seed))
            })
        });
        tracer.end_op();
        let ns = t.elapsed().as_nanos() as u64;

        let Some(o) = outcome else {
            out.push_op(ns, traced, 0.0);
            out.tally.record(1, 1);
            i += 1;
            continue;
        };
        out.push_op(ns, traced, o.completed as f64);
        let refused = o.shed + o.failed + o.lost.len() as u64;
        let failed = if oracles_hold(&o) {
            refused
        } else {
            o.submissions
        };
        out.tally.record(o.submissions, failed);

        if traced {
            for _ in 0..FleetConfig::default().n_shards {
                let _ = tracer.replay(Layer::Fleet, Layer::Prosa, "prosa.analyse", || {
                    inputs.system.analyse(horizon)
                });
            }
            replay_layers(tracer, &inputs.system, seed, workload);
        }
        if i < inputs.scale.cycle {
            digest_outcome(&mut out.digest, &o);
            out.ticks.extend(o.responses.iter().map(|r| r.response));
        }
        i += 1;
    }
    out
}

/// Splits a traced steady run's `fleet.run` time by replaying its
/// layers on the same schedule: the shard steps (the `rossl` scheduler
/// and its journal), the journal's append/commit, the bound
/// observatory, and the cross-shard checker. The router and the drive
/// loop stay with `fleet`.
fn replay_layers(tracer: &mut Tracer, system: &RosslSystem, seed: u64, workload: Workload) {
    let r = tracer.replay(Layer::Fleet, Layer::Fleet, "fleet.replica", || {
        Replica::drive(system, seed, workload)
    });
    let events = r.shard_events();
    let journal = tracer.replay(Layer::Fleet, Layer::Fleet, "journal.append_commit", || {
        replay_journal(&events, 1)
    });
    let step_ns = r.step_idle_ns + r.step_busy_ns;
    let journal_ns = (journal.append_ns + journal.commit_ns).min(step_ns);
    tracer.reassign(Layer::Fleet, Layer::Journal, journal_ns);
    tracer.reassign(Layer::Fleet, Layer::Rossl, step_ns - journal_ns);
    if let Ok(obs) = system.observatory(&Registry::new(), FleetConfig::default().analysis_horizon) {
        tracer.replay(Layer::Fleet, Layer::Obs, "obs.observe_completion", || {
            for &(task, job, rt) in &r.responses {
                obs.observe_completion(task, job, rt);
            }
        });
    }
    let histories = r.histories();
    let _ = tracer.replay(Layer::Fleet, Layer::Checker, "checker.check_fleet", || {
        check_fleet(&histories, &[], system.tasks(), system.n_sockets()).is_ok()
    });
}

/// The cost of one `Instant::now` / `elapsed` pair, taken off every
/// short interval the replica times.
fn timer_overhead_ns() -> u64 {
    static OVERHEAD: OnceLock<u64> = OnceLock::new();
    *OVERHEAD.get_or_init(|| {
        let mut v: Vec<f64> = (0..1_001)
            .map(|_| {
                let t = Wall::now();
                t.elapsed().as_nanos() as f64
            })
            .collect();
        median(&mut v) as u64
    })
}

fn interval_ns(t: Wall) -> u64 {
    (t.elapsed().as_nanos() as u64).saturating_sub(timer_overhead_ns())
}

/// A replica of the fault-free `Fleet::run` drive built from the fleet
/// crate's public parts (`Router`, `Shard`), timing each part.
struct Replica {
    shards: Vec<Shard>,
    submissions: u64,
    completed: u64,
    ticks: u64,
    router_ns: u64,
    deliver_ns: u64,
    step_idle_ns: u64,
    step_busy_ns: u64,
    idle_steps: u64,
    busy_steps: u64,
    /// `(task, job, response ticks)` per completion.
    responses: Vec<(usize, u64, u64)>,
}

impl Replica {
    fn drive(system: &RosslSystem, seed: u64, workload: Workload) -> Replica {
        let tasks = system.tasks();
        let n_sockets = system.n_sockets();
        let config = FleetConfig {
            seed,
            ..FleetConfig::default()
        };
        let client = Arc::new(
            ClientConfig::new(tasks.clone(), n_sockets).expect("fleet system config is valid"),
        );
        let mut router = Router::new(
            config.n_shards,
            seed,
            config.router.clone(),
            &Registry::new(),
        );
        let mut shards: Vec<Shard> = (0..config.n_shards)
            .map(|id| {
                Shard::new(
                    id,
                    Arc::clone(&client),
                    *system.wcet(),
                    config.restart_policy,
                )
            })
            .collect();
        // Fleet::run's submission schedule: one key per task, `gap`
        // apart, staggered per key by a seed hash.
        let gap = workload.gap_ticks.max(1);
        let mut schedule: Vec<(u64, u64)> = (0..tasks.len() as u64)
            .flat_map(|key| {
                let stagger = splitmix64(seed ^ (key << 8)) % gap;
                (0..workload.jobs_per_key).map(move |j| (stagger + j * gap, key))
            })
            .collect();
        schedule.sort_unstable();
        let horizon = schedule.last().map_or(0, |s| s.0);
        let mut arrival = vec![0u64; schedule.len()];
        let mut r = Replica {
            shards: Vec::new(),
            submissions: schedule.len() as u64,
            completed: 0,
            ticks: 0,
            router_ns: 0,
            deliver_ns: 0,
            step_idle_ns: 0,
            step_busy_ns: 0,
            idle_steps: 0,
            busy_steps: 0,
            responses: Vec::new(),
        };
        let (mut next, mut refused, mut tick) = (0usize, 0u64, 0u64);
        loop {
            let status: Vec<ShardStatus> = shards
                .iter()
                .map(|s| ShardStatus {
                    reachable: s.reachable(tick),
                    depth: s.depth(),
                })
                .collect();
            let t = Wall::now();
            while next < schedule.len() && schedule[next].0 == tick {
                let key = schedule[next].1;
                let task = key as usize % tasks.len();
                let crit = tasks
                    .task(TaskId(task))
                    .map_or(Criticality::Hi, |t| t.criticality());
                router.submit(tick, next as u64, key, crit, payload(task, next as u64));
                next += 1;
            }
            let res = router.process(tick, &status);
            r.router_ns += interval_ns(t);
            refused += (res.shed.len() + res.failed.len()) as u64;
            let t = Wall::now();
            for d in res.deliveries {
                let shard = &mut shards[d.shard];
                arrival[d.seq as usize] = shard.clock();
                shard.deliver(SocketId(d.key as usize % n_sockets), d.seq, d.data);
            }
            r.deliver_ns += interval_ns(t);
            for shard in &mut shards {
                let idle = shard.quiescent();
                let t = Wall::now();
                let events = shard.step(tick);
                let ns = interval_ns(t);
                if idle {
                    r.step_idle_ns += ns;
                    r.idle_steps += 1;
                } else {
                    r.step_busy_ns += ns;
                    r.busy_steps += 1;
                }
                for ev in events {
                    if let ShardEvent::Completed { job, at } = ev {
                        if let Some(seq) = seq_of(job.data()) {
                            r.responses.push((
                                job.task().0,
                                job.id().0,
                                at - arrival[seq as usize],
                            ));
                            r.completed += 1;
                        }
                    }
                }
            }
            let drained =
                next == schedule.len() && router.idle() && r.completed + refused == r.submissions;
            if (tick >= horizon && drained) || tick >= horizon + config.drain_ticks {
                break;
            }
            tick += 1;
        }
        r.ticks = tick;
        r.shards = shards;
        r
    }

    fn histories(&self) -> Vec<ShardHistory> {
        self.shards.iter().map(Shard::history).collect()
    }

    /// Each shard's committed journal events.
    fn shard_events(&self) -> Vec<Vec<TimedEvent>> {
        self.shards
            .iter()
            .map(|s| {
                recover(s.journal_bytes())
                    .map(|r| r.committed)
                    .unwrap_or_default()
            })
            .collect()
    }

    fn journal_bytes(&self) -> usize {
        self.shards.iter().map(|s| s.journal_bytes().len()).sum()
    }
}

/// Journal replay costs: appends alone, and the commits added on top.
struct JournalCost {
    append_ns: u64,
    commit_ns: u64,
}

/// Re-journals each shard's events the way the shard does, one commit
/// per append, into a writer of its own (median of `reps` passes).
fn replay_journal(shards: &[Vec<TimedEvent>], reps: usize) -> JournalCost {
    let mut cost = JournalCost {
        append_ns: 0,
        commit_ns: 0,
    };
    for events in shards {
        let append = median_ns(reps, || {
            let mut w = JournalWriter::new();
            for e in events {
                w.append(&e.marker, e.at);
            }
            std::hint::black_box(w.bytes().len());
        });
        let both = median_ns(reps, || {
            let mut w = JournalWriter::new();
            for e in events {
                w.append(&e.marker, e.at);
                w.commit();
            }
            std::hint::black_box(w.bytes().len());
        });
        cost.append_ns += append as u64;
        cost.commit_ns += (both - append).max(0.0) as u64;
    }
    cost
}

/// Journal commit records in the shards' own bytes: whatever a shard's
/// journal holds beyond its header and event frames is commit frames.
fn commit_records(r: &Replica, shards: &[Vec<TimedEvent>]) -> f64 {
    let mut one = JournalWriter::new();
    let header = one.bytes().len();
    one.commit();
    let commit_frame = (one.bytes().len() - header) as f64;
    let mut commit_bytes = 0f64;
    for (shard, events) in r.shards.iter().zip(shards) {
        let mut events_only = JournalWriter::new();
        for e in events {
            events_only.append(&e.marker, e.at);
        }
        commit_bytes += (shard.journal_bytes().len() - events_only.bytes().len()) as f64;
    }
    commit_bytes / commit_frame
}

/// The per-layer section of `fleet-steady`: the fleet's own run cost,
/// and its layers replayed on the same schedules.
pub fn steady_ledger(seed: u64, m: &mut Metrics) -> Result<(), String> {
    let system = fleet_system();
    let workload = Scale::STEADY.workload;
    let (mut run_ns, mut ticks, mut completed) = (0f64, 0f64, 0f64);
    let (mut router_ns, mut deliver_ns, mut process_calls) = (0f64, 0f64, 0f64);
    let (mut idle_ns, mut busy_ns, mut idle_steps, mut busy_steps) = (0f64, 0f64, 0f64, 0f64);
    let (mut append_ns, mut commit_ns, mut events_n, mut commits, mut journal_bytes) =
        (0f64, 0f64, 0f64, 0f64, 0f64);
    let (mut obs_ns, mut idles, mut markers) = (0f64, 0f64, 0f64);
    for rep in 0..5 {
        let seed = mix(seed ^ 0x57ead9, rep);
        let mut fleet = Fleet::new(
            &system,
            FleetConfig {
                seed,
                ..FleetConfig::default()
            },
        )
        .map_err(|e| e.to_string())?;
        let t = Wall::now();
        let o = fleet.run(workload, &FaultPlan::empty(seed));
        run_ns += t.elapsed().as_nanos() as f64;
        ticks += o.ticks as f64;
        completed += o.completed as f64;

        let r = Replica::drive(&system, seed, workload);
        if r.completed != o.completed || r.ticks != o.ticks {
            return Err(format!(
                "fleet replica diverged: {} jobs in {} ticks vs the fleet's {} in {}",
                r.completed, r.ticks, o.completed, o.ticks
            ));
        }
        router_ns += r.router_ns as f64;
        deliver_ns += r.deliver_ns as f64;
        idle_ns += r.step_idle_ns as f64;
        busy_ns += r.step_busy_ns as f64;
        idle_steps += r.idle_steps as f64;
        busy_steps += r.busy_steps as f64;
        for h in r.histories() {
            for seg in &h.segments {
                markers += seg.len() as f64;
                idles += seg.iter().filter(|m| matches!(m, Marker::Idling)).count() as f64;
            }
        }
        let events = r.shard_events();
        let cost = replay_journal(&events, 3);
        append_ns += cost.append_ns as f64;
        commit_ns += cost.commit_ns as f64;
        events_n += events.iter().map(Vec::len).sum::<usize>() as f64;
        commits += commit_records(&r, &events);
        process_calls += (r.ticks + 1) as f64;
        journal_bytes += r.journal_bytes() as f64;
        let obs = system
            .observatory(&Registry::new(), FleetConfig::default().analysis_horizon)
            .map_err(|e| e.to_string())?;
        let t = Wall::now();
        for &(task, job, rt) in &r.responses {
            obs.observe_completion(task, job, rt);
        }
        obs_ns += t.elapsed().as_nanos() as f64;
    }
    m.put("fleet.run_ns_per_tick", run_ns / ticks, "ns");
    m.put("fleet.ticks_per_job", ticks / completed, "ticks");
    m.put("rossl.sched_idle_ratio", idles / markers, "ratio");
    m.put("fleet.shard_step_idle_ns", idle_ns / idle_steps, "ns");
    m.put(
        "fleet.shard_step_busy_ns",
        busy_ns / busy_steps.max(1.0),
        "ns",
    );
    m.put("journal.append_ns", append_ns / events_n, "ns");
    m.put("journal.commit_ns", commit_ns / events_n, "ns");
    m.put("journal.commits_per_marker", commits / events_n, "ratio");
    m.put("journal.bytes_per_job", journal_bytes / completed, "bytes");
    m.put(
        "fleet.router_ns_per_decision",
        router_ns / process_calls,
        "ns",
    );
    m.put("obs.observe_completion_ns", obs_ns / completed, "ns");
    let layers = router_ns + deliver_ns + idle_ns + busy_ns + obs_ns;
    m.put("fleet.loop_self_share", (run_ns - layers) / run_ns, "ratio");
    Ok(())
}

/// The per-layer section of `fleet-chaos`: fleet construction, journal
/// recovery, the cross-shard checker and the failover counters.
pub fn chaos_ledger(seed: u64, m: &mut Metrics) -> Result<(), String> {
    let system = fleet_system();
    let workload = CHAOS;
    let new_ns = median_ns(51, || {
        std::hint::black_box(Fleet::new(&system, FleetConfig::default()).is_ok());
    });
    m.put("fleet.new_ms", new_ns / 1e6, "ms");

    let r = Replica::drive(&system, mix(seed, 0xC4A05), workload);
    let bytes = r.shards[0].journal_bytes();
    let events = recover(bytes)
        .map_err(|e| format!("{e:?}"))?
        .committed
        .len()
        .max(1);
    let recover_ns = median_ns(21, || {
        std::hint::black_box(recover(bytes).is_ok());
    });
    m.put(
        "journal.recover_ns_per_event",
        recover_ns / events as f64,
        "ns",
    );
    let histories = r.histories();
    let check_ns = median_ns(21, || {
        std::hint::black_box(
            check_fleet(&histories, &[], system.tasks(), system.n_sockets()).is_ok(),
        );
    });
    m.put("checker.check_fleet_ms", check_ns / 1e6, "ms");

    let (mut failovers, mut migrated, mut retries, mut submissions) = (0u64, 0u64, 0u64, 0u64);
    let (mut run_ns, mut failover_ticks) = (0f64, Vec::new());
    let runs = 1_000u64;
    for i in 0..runs {
        let seed = mix(seed ^ 0xC4A05, i);
        let (plan, at_tick) = chaos_plan(seed, i);
        let mut fleet = Fleet::new(
            &system,
            FleetConfig {
                seed,
                ..FleetConfig::default()
            },
        )
        .map_err(|e| e.to_string())?;
        let t = Wall::now();
        let o = fleet.run(workload, &plan);
        run_ns += t.elapsed().as_nanos() as f64;
        if !oracles_hold(&o) {
            return Err(format!("chaos schedule {i} broke a fleet oracle"));
        }
        failover_ticks.extend(o.failovers.iter().map(|f| f.migrated_tick - at_tick));
        let snap = fleet.registry().snapshot();
        failovers += snap.counter("fleet.failovers").unwrap_or(0);
        migrated += snap.histogram("fleet.migrated_jobs").map_or(0, |h| h.sum);
        retries += snap.counter("router.retries").unwrap_or(0);
        submissions += o.submissions;
    }
    m.put(
        "fleet.failovers_per_run",
        failovers as f64 / runs as f64,
        "count",
    );
    m.put(
        "fleet.migrated_jobs_per_failover",
        migrated as f64 / failovers.max(1) as f64,
        "count",
    );
    m.put(
        "router.retries_per_job",
        retries as f64 / submissions.max(1) as f64,
        "ratio",
    );
    m.put(
        "fleet.chaos_runs_per_s",
        runs as f64 / (run_ns / 1e9),
        "1/s",
    );
    m.put(
        "fleet.failover_ticks_p90",
        summarise(&failover_ticks, P90).tail,
        "ticks",
    );
    Ok(())
}

/// Outside timing: a fleet with the seeded `DroppedFailover` bug must
/// fail the chaos oracles on one of the first kill schedules.
pub fn dropped_failover_caught(seed: u64) -> bool {
    let system = fleet_system();
    (0..64u64).step_by(2).any(|i| {
        let seed = mix(seed, i);
        let (plan, _) = chaos_plan(seed, i);
        Fleet::new(
            &system,
            FleetConfig {
                seed,
                ..FleetConfig::default()
            },
        )
        .map(|f| {
            !oracles_hold(
                &f.with_seeded_bug(SeededBug::DroppedFailover)
                    .run(CHAOS, &plan),
            )
        })
        .unwrap_or(false)
    })
}
