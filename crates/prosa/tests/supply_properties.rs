//! Property tests for [`prosa::RosslSupply`]: its fixed-point inverse
//! equals the trait's default binary search over `sbf`, and its lazily
//! built interval table equals the defining running maximum
//! `SBF(Δ) = max_{δ ≤ Δ}(δ − BB(δ))` at every window length.

use proptest::prelude::*;
use prosa::{BlackoutBound, RosslSupply, SupplyBound};
use rossl_model::{Curve, Duration, Priority, Task, TaskId, TaskSet, WcetTable};

/// Every curve shape, with parameters small enough that a few thousand
/// ticks cross many increase points.
fn arb_curve() -> impl Strategy<Value = Curve> {
    prop_oneof![
        (20u64..2_000).prop_map(|t| Curve::sporadic(Duration(t))),
        (20u64..2_000).prop_map(|t| Curve::periodic(Duration(t))),
        (1u64..4, 0u64..3, 50u64..1_500).prop_map(|(b, n, d)| Curve::leaky_bucket(b, n, d)),
        proptest::collection::vec((1u64..600, 0u64..3), 1..5).prop_map(|steps| {
            let (mut at, mut count) = (0u64, 1u64);
            Curve::staircase(
                steps
                    .into_iter()
                    .map(|(gap, inc)| {
                        at += gap;
                        count += inc;
                        (Duration(at), count)
                    })
                    .collect(),
            )
        }),
    ]
}

fn arb_tasks() -> impl Strategy<Value = TaskSet> {
    proptest::collection::vec((1u32..6, 1u64..30, arb_curve()), 1..5).prop_map(|specs| {
        TaskSet::new(
            specs
                .into_iter()
                .enumerate()
                .map(|(i, (p, c, curve))| {
                    Task::new(TaskId(i), format!("t{i}"), Priority(p), Duration(c), curve)
                })
                .collect(),
        )
        .expect("generated tasks are valid")
    })
}

/// The blackout bound of one of the three constructions the analyses
/// and ablations use: whole-set, per-task, or with overridden
/// straddlers.
fn blackout(tasks: &TaskSet, n_sockets: usize, kind: u8, pick: usize) -> BlackoutBound {
    let wcet = WcetTable::example();
    match kind % 3 {
        0 => BlackoutBound::for_config(tasks, &wcet, n_sockets),
        1 => BlackoutBound::for_task(tasks, &wcet, n_sockets, TaskId(pick % tasks.len())),
        _ => BlackoutBound::for_config(tasks, &wcet, n_sockets).with_straddlers(pick as u64 % 6),
    }
}

/// A supply that implements only `sbf`, so `inverse` is the trait's
/// default binary search over it.
struct TableOnly<'a>(&'a RosslSupply);

impl SupplyBound for TableOnly<'_> {
    fn sbf(&self, delta: Duration) -> Duration {
        self.0.sbf(delta)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// `inverse` equals the default binary search for supplies from 0 to
    /// unreachable and caps below, at and above the horizon.
    fn inverse_matches_binary_search(
        tasks in arb_tasks(),
        n_sockets in 1usize..5,
        kind in 0u8..3,
        pick in 0usize..8,
        horizon in 1u64..6_000,
        probes in proptest::collection::vec(0u64..8_000, 6),
    ) {
        let horizon = Duration(horizon);
        let supply = RosslSupply::new(blackout(&tasks, n_sockets, kind, pick), horizon);
        let reference = TableOnly(&supply);
        let top = supply.sbf(horizon);
        let mut supplies = vec![Duration::ZERO, Duration(1), top, top + Duration(1), Duration(u64::MAX / 2)];
        supplies.extend(probes.iter().map(|&p| Duration(p % (top.ticks() + 2))));
        let caps = [
            Duration(horizon.ticks() / 2),
            horizon - Duration(1),
            horizon,
            horizon + Duration(1),
            Duration(horizon.ticks() * 3),
            Duration(probes[0]),
        ];
        for &s in &supplies {
            for &cap in &caps {
                prop_assert_eq!(
                    supply.inverse(s, cap),
                    reference.inverse(s, cap),
                    "supply {} cap {} horizon {}", s, cap, horizon
                );
            }
        }
    }

    /// The lazily built table answers the defining running maximum at
    /// every window length up to (and past) the horizon.
    fn sbf_is_the_running_maximum(
        tasks in arb_tasks(),
        n_sockets in 1usize..5,
        kind in 0u8..3,
        pick in 0usize..8,
        horizon in 1u64..3_000,
    ) {
        let bb = blackout(&tasks, n_sockets, kind, pick);
        let supply = RosslSupply::new(bb.clone(), Duration(horizon));
        let mut best = Duration::ZERO;
        for d in 0..=horizon + 20 {
            if d <= horizon {
                best = best.max(Duration(d).saturating_sub(bb.bound(Duration(d))));
            }
            prop_assert_eq!(supply.sbf(Duration(d)), best, "Δ = {}", d);
        }
    }
}
