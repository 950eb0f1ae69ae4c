//! Golden digests for the fleet drive.
//!
//! Every digest below was recorded on the fleet drive as it was before
//! its hot path stopped allocating per marker and per tick (payload
//! buffers, byte-at-a-time CRC, status vectors, history clones). Any
//! change to `Fleet::run`, `Shard::step`, the journal writer or the
//! cross-shard checker must keep them: the outcome, the `check_fleet`
//! report, the router's decision trace and every shard's journal bytes
//! and history stay byte-identical or the test fails.
//!
//! * **Steady** — eight fault-free seeds at the E22 gap of 400 ticks.
//!   The journal bytes and histories come from a shard-level drive of
//!   the same schedule built from `Router` and `Shard`, which is checked
//!   against `Fleet::run` on ticks and completions.
//! * **Chaos** — eight seeds at gap 48, each with one kill, pause or
//!   partition of one shard.

use std::fmt::Write as _;
use std::sync::Arc;

use refined_prosa::{RosslSystem, SystemBuilder};
use rossl::{ClientConfig, SeededBug};
use rossl_faults::{FaultClass, FaultPlan, FaultSpec};
use rossl_fleet::{
    payload, seq_of, splitmix64, Fleet, FleetConfig, FleetOutcome, Router, Shard, ShardEvent,
    ShardStatus, Workload,
};
use rossl_model::{Criticality, Curve, Duration, Priority, SocketId, TaskId};
use rossl_obs::Registry;

const STEADY: Workload = Workload { jobs_per_key: 12, gap_ticks: 400 };
const CHAOS: Workload = Workload { jobs_per_key: 40, gap_ticks: 48 };

/// FNV-1a, 64 bit: independent of the journal's CRC, which is one of
/// the things under test.
#[derive(Clone, Copy)]
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xCBF2_9CE4_8422_2325)
    }
    fn bytes(&mut self, data: &[u8]) {
        for &b in data {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
}

/// The E22 fleet system: three equal tasks on three sockets.
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

fn config(seed: u64) -> FleetConfig {
    FleetConfig { seed, ..FleetConfig::default() }
}

/// Chaos plan `i`: a kill, a pause or a partition of one shard, aimed
/// a few ticks after a delivery that the fault-free run of the same
/// seed makes to it, so the fault catches work in flight.
fn chaos_plan(system: &RosslSystem, seed: u64, i: u64) -> FaultPlan {
    let mut probe = Fleet::new(system, config(seed)).expect("fleet analyses");
    probe.run(CHAOS, &FaultPlan::empty(seed));
    let deliveries: Vec<(u64, usize)> = probe
        .routing_trace()
        .lines()
        .filter_map(|line| {
            let (tick, rest) = line.split_once(" deliver ")?;
            let shard = rest.split_once("shard=s")?.1.split_whitespace().next()?;
            Some((tick.parse().ok()?, shard.parse().ok()?))
        })
        .collect();
    let (tick, shard) = deliveries[(splitmix64(seed ^ 0xA7) % deliveries.len() as u64) as usize];
    let at_tick = tick + 3 + splitmix64(seed ^ 0x5C) % 6;
    let for_ticks = 1 + splitmix64(seed ^ 0xB3) % 300;
    let class = match i % 3 {
        0 => FaultClass::ShardKill { shard, at_tick },
        1 => FaultClass::ShardPause { shard, at_tick, for_ticks },
        _ => FaultClass::Partition { shard, at_tick, for_ticks },
    };
    FaultPlan::empty(seed).with(FaultSpec::always(class))
}

/// Digest of everything a fleet run reports.
fn outcome_digest(o: &FleetOutcome, routing_trace: &str) -> u64 {
    let mut d = Fnv::new();
    for v in [
        o.ticks,
        o.submissions,
        o.delivered,
        o.completed,
        o.shed,
        o.failed,
        o.resent,
        o.bound_violations,
        o.compliant_shards as u64,
        o.compliant_completions,
    ] {
        d.u64(v);
    }
    let mut text = String::new();
    let _ = write!(text, "{:?}|{:?}|", o.lost, o.fleet_check);
    for f in o.failovers.iter().chain(&o.unjustified_failovers) {
        let _ = write!(
            text,
            "{} {:?} {:?} {} {} {} {};",
            f.dead, f.successor, f.cause, f.detect_tick, f.migrated_tick, f.migrated_jobs, f.resent
        );
    }
    d.bytes(text.as_bytes());
    for &t in &o.completion_ticks {
        d.u64(t);
    }
    for r in &o.responses {
        for v in [r.seq, r.task as u64, r.shard as u64, r.response] {
            d.u64(v);
        }
    }
    d.bytes(routing_trace.as_bytes());
    d.0
}

/// A shard-level drive of the fault-free `Fleet::run` schedule. Returns
/// `(ticks, completed, digest of every shard's journal bytes and
/// history)`.
fn shard_drive(system: &RosslSystem, seed: u64, workload: Workload) -> (u64, u64, u64) {
    let tasks = system.tasks();
    let n_sockets = system.n_sockets();
    let config = config(seed);
    let client = Arc::new(ClientConfig::new(tasks.clone(), n_sockets).expect("valid config"));
    let mut router = Router::new(config.n_shards, seed, config.router.clone(), &Registry::new());
    let mut shards: Vec<Shard> = (0..config.n_shards)
        .map(|id| Shard::new(id, Arc::clone(&client), *system.wcet(), config.restart_policy))
        .collect();
    let gap = workload.gap_ticks.max(1);
    let mut schedule: Vec<(u64, u64)> = (0..tasks.len() as u64)
        .flat_map(|key| {
            let stagger = splitmix64(seed ^ (key << 8)) % gap;
            (0..workload.jobs_per_key).map(move |j| (stagger + j * gap, key))
        })
        .collect();
    schedule.sort_unstable();
    let horizon = schedule.last().map_or(0, |s| s.0);
    let (mut next, mut refused, mut completed, mut tick) = (0usize, 0u64, 0u64, 0u64);
    loop {
        let status: Vec<ShardStatus> = shards
            .iter()
            .map(|s| ShardStatus { reachable: s.reachable(tick), depth: s.depth() })
            .collect();
        while next < schedule.len() && schedule[next].0 == tick {
            let key = schedule[next].1;
            let task = key as usize % tasks.len();
            let crit = tasks.task(TaskId(task)).map_or(Criticality::Hi, |t| t.criticality());
            router.submit(tick, next as u64, key, crit, payload(task, next as u64));
            next += 1;
        }
        let res = router.process(tick, &status);
        refused += (res.shed.len() + res.failed.len()) as u64;
        for d in res.deliveries {
            shards[d.shard].deliver(SocketId(d.key as usize % n_sockets), d.seq, d.data);
        }
        for shard in &mut shards {
            for ev in shard.step(tick) {
                if let ShardEvent::Completed { job, .. } = ev {
                    if seq_of(job.data()).is_some() {
                        completed += 1;
                    }
                }
            }
        }
        let drained = next == schedule.len()
            && router.idle()
            && completed + refused == schedule.len() as u64;
        if (tick >= horizon && drained) || tick >= horizon + config.drain_ticks {
            break;
        }
        tick += 1;
    }
    let mut d = Fnv::new();
    for shard in &shards {
        d.bytes(shard.journal_bytes());
        d.bytes(format!("{:?}", shard.history()).as_bytes());
    }
    (tick, completed, d.0)
}

fn steady_seed(i: u64) -> u64 {
    splitmix64(0x5EAD_0000 + i)
}

fn chaos_seed(i: u64) -> u64 {
    splitmix64(0xC4A0_0000 + i)
}

/// `(fleet outcome digest, shard-level journal/history digest)` per
/// steady seed.
const STEADY_GOLDEN: [(u64, u64); 8] = [
    (0xba5d_55c8_0bee_1419, 0x86fd_496e_88f3_3f7b),
    (0x0613_4465_c7d6_4d51, 0xea31_6ef9_edfb_3374),
    (0xdf4f_c662_7c77_4ebc, 0x142c_0b24_5254_ae0b),
    (0x6661_3fec_9b77_1313, 0x914b_fe91_7dcd_6d95),
    (0xc18c_e270_309a_ca29, 0x8863_f0f3_7078_82e2),
    (0xd622_ec84_66a0_75f9, 0x4e66_18e0_550f_69ff),
    (0xcd4e_2acd_1633_8fd3, 0x9e10_a1fd_1fbb_64cd),
    (0xe80a_29d3_a0e3_268a, 0xf1ab_9370_0a2f_41dd),
];

/// Fleet outcome digest per chaos seed.
const CHAOS_GOLDEN: [u64; 8] = [
    0xd047_c350_75c2_3ea1,
    0x226b_f647_ee5c_dae9,
    0xd1a8_b6b7_9165_24b2,
    0x5e39_81f3_f923_59ef,
    0xdc0f_4e5b_32f6_1cda,
    0x7175_f4f6_5bb3_e566,
    0x4877_dbf0_bd0e_63af,
    0x5d47_7059_d191_b9fa,
];

#[test]
fn steady_runs_match_their_golden_digests() {
    let system = fleet_system();
    let mut got = Vec::new();
    for i in 0..8 {
        let seed = steady_seed(i);
        let mut fleet = Fleet::new(&system, config(seed)).expect("fleet analyses");
        let o = fleet.run(STEADY, &FaultPlan::empty(seed));
        assert_eq!(o.completed, o.submissions, "steady seed {i} completes everything");
        let (ticks, completed, journals) = shard_drive(&system, seed, STEADY);
        assert_eq!((ticks, completed), (o.ticks, o.completed), "shard drive diverged");
        got.push((outcome_digest(&o, &fleet.routing_trace()), journals));
    }
    assert_eq!(got, STEADY_GOLDEN);
}

#[test]
fn chaos_runs_match_their_golden_digests() {
    let system = fleet_system();
    let (mut got, mut failovers, mut migrated, mut caught) = (Vec::new(), 0, 0, 0);
    for i in 0..8 {
        let seed = chaos_seed(i);
        let plan = chaos_plan(&system, seed, i);
        let buggy = Fleet::new(&system, config(seed))
            .expect("fleet analyses")
            .with_seeded_bug(SeededBug::DroppedFailover)
            .run(CHAOS, &plan);
        if !buggy.lost.is_empty() || buggy.fleet_check.is_err() {
            caught += 1;
        }
        let mut fleet = Fleet::new(&system, config(seed)).expect("fleet analyses");
        let o = fleet.run(CHAOS, &plan);
        assert!(o.lost.is_empty(), "chaos seed {i} lost {:?}", o.lost);
        assert!(o.fleet_check.is_ok(), "chaos seed {i}: {:?}", o.fleet_check);
        failovers += o.failovers.len();
        migrated += o.failovers.iter().map(|f| f.migrated_jobs).sum::<usize>();
        got.push(outcome_digest(&o, &fleet.routing_trace()));
    }
    // The chaos seeds must exercise failover migration, or the digests
    // would not cover the journal-replay path; and the oracles must
    // still catch a fleet that drops its failover work.
    assert!(failovers >= 3 && migrated >= 2, "{failovers} failovers, {migrated} migrated");
    assert!(caught >= 2, "DroppedFailover caught on only {caught} chaos seed(s)");
    assert_eq!(got, CHAOS_GOLDEN);
}
