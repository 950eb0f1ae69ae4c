//! Differential oracle for the quiet-window fast-forward (DESIGN
//! §10.8): [`Fleet::run`]'s drive must leave exactly what the
//! tick-stepped reference drive leaves — outcome, routing trace, every
//! shard's journal bytes and history, the fleet and shard registries,
//! and the drained spans — while actually fast-forwarding.

use std::sync::Arc;

use refined_prosa::{RosslSystem, SystemBuilder};
use rossl::SeededBug;
use rossl_faults::{FaultClass, FaultPlan, FaultSpec};
use rossl_model::{Curve, Duration, Priority};
use rossl_obs::{Snapshot, Span, TraceCollector};
use rossl_verify::ShardHistory;

use super::{Fleet, FleetConfig, Workload};
use crate::ring::splitmix64;
use crate::shard::Shard;

const STEADY: Workload = Workload { jobs_per_key: 12, gap_ticks: 400 };
const CHAOS: Workload = Workload { jobs_per_key: 40, gap_ticks: 48 };

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

/// The steady and chaos seeds of `tests/fleet_golden.rs`.
fn steady_seed(i: u64) -> u64 {
    splitmix64(0x5EAD_0000 + i)
}

fn chaos_seed(i: u64) -> u64 {
    splitmix64(0xC4A0_0000 + i)
}

/// `tests/fleet_golden.rs`'s chaos plan `i`: a kill, pause or partition
/// of one shard, aimed a few ticks after a delivery to it.
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

/// Everything one drive leaves behind.
#[derive(Debug, PartialEq)]
struct Observed {
    journals: Vec<Vec<u8>>,
    histories: Vec<ShardHistory>,
    outcome: String,
    routing: String,
    registry: Snapshot,
    shard_registries: Vec<Snapshot>,
    spans: Option<Vec<Span>>,
}

/// One drive of `workload` under `plan`; returns what it left and the
/// number of quiet windows it fast-forwarded.
fn observe(
    seed: u64,
    plan: &FaultPlan,
    workload: Workload,
    bug: Option<SeededBug>,
    traced: bool,
    fast_forward: bool,
) -> (Observed, u64) {
    let mut fleet = Fleet::new(&fleet_system(), config(seed)).expect("fleet analyses");
    if let Some(bug) = bug {
        fleet = fleet.with_seeded_bug(bug);
    }
    let collector = traced.then(|| Arc::new(TraceCollector::new(1 << 16)));
    if let Some(c) = &collector {
        fleet = fleet.with_tracer(Arc::clone(c));
    }
    let (ticks, windows) = fleet.drive(workload, plan, fast_forward);
    let journals = fleet.shards.iter().map(|s| s.journal_bytes().to_vec()).collect();
    let histories = fleet.shards.iter().map(Shard::history).collect();
    let outcome = fleet.outcome(ticks, plan);
    let observed = Observed {
        journals,
        histories,
        outcome: format!("{outcome:?}"),
        routing: fleet.routing_trace(),
        registry: fleet.registry().snapshot(),
        shard_registries: fleet.shard_registries().iter().map(|r| r.snapshot()).collect(),
        spans: collector.map(|c| c.drain()),
    };
    (observed, windows)
}

/// Asserts the fast-forwarded drive equals the tick-stepped one, field
/// by field; returns the windows the fast drive took.
fn assert_identical(
    label: &str,
    seed: u64,
    plan: &FaultPlan,
    workload: Workload,
    bug: Option<SeededBug>,
    traced: bool,
) -> u64 {
    let (fast, windows) = observe(seed, plan, workload, bug, traced, true);
    let (reference, none) = observe(seed, plan, workload, bug, traced, false);
    assert_eq!(none, 0, "{label}: the reference drive fast-forwarded");
    assert!(fast.journals == reference.journals, "{label}: journal bytes differ");
    assert_eq!(fast.histories, reference.histories, "{label}: histories");
    assert_eq!(fast.outcome, reference.outcome, "{label}: outcome");
    assert_eq!(fast.routing, reference.routing, "{label}: routing trace");
    assert_eq!(fast.registry, reference.registry, "{label}: fleet registry");
    assert_eq!(fast.shard_registries, reference.shard_registries, "{label}: shard registries");
    assert_eq!(fast.spans, reference.spans, "{label}: spans");
    assert!(fast.registry.counter("fleet.health_checks").is_some_and(|n| n > 0));
    windows
}

#[test]
fn steady_runs_fast_forward_and_match_the_tick_stepped_drive() {
    for i in 0..8 {
        let seed = steady_seed(i);
        let plan = FaultPlan::empty(seed);
        for traced in [false, true] {
            let label = format!("steady seed {i}, traced {traced}");
            let windows = assert_identical(&label, seed, &plan, STEADY, None, traced);
            // Each of the 36 submissions is followed by a quiet stretch
            // once its job completes; a disabled fast path takes none.
            assert!(windows >= 30, "{label}: only {windows} quiet windows");
        }
    }
}

#[test]
fn chaos_runs_match_the_tick_stepped_drive() {
    let system = fleet_system();
    for i in 0..8 {
        let seed = chaos_seed(i);
        let plan = chaos_plan(&system, seed, i);
        for (bug, traced) in [
            (None, false),
            (None, true),
            (Some(SeededBug::DroppedFailover), false),
            (Some(SeededBug::OrphanSpan), true),
        ] {
            let label = format!("chaos seed {i}, bug {bug:?}, traced {traced}");
            let windows = assert_identical(&label, seed, &plan, CHAOS, bug, traced);
            // Even 48 ticks apart, most jobs finish well before the
            // next submission, so chaos runs have quiet stretches too.
            assert!(windows >= 20, "{label}: only {windows} quiet windows");
        }
    }
}
