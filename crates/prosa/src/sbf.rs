//! Supply bound functions (§4.4).
//!
//! A supply bound function `SBF(Δ)` lower-bounds the service (non-blackout
//! time) the platform provides in any interval of length `Δ` within a busy
//! window. aRSA requires `SBF` to be monotone; the paper achieves this by
//! defining
//!
//! ```text
//! SBF(Δ) ≜ max_{0 ≤ δ ≤ Δ} (δ − BlackoutBound(δ))
//! ```
//!
//! since `δ − BlackoutBound(δ)` need not be monotone in `δ`.

use std::fmt;
use std::sync::OnceLock;

use rossl_model::Duration;

use crate::blackout::BlackoutBound;

/// A monotone lower bound on supplied service per interval length.
pub trait SupplyBound {
    /// The guaranteed supply in any window of length `delta` (within a
    /// busy window). Must be monotone and satisfy `sbf(Δ) ≤ Δ`.
    fn sbf(&self, delta: Duration) -> Duration;

    /// The smallest window length `d ≤ cap` with `sbf(d) ≥ supply`, or
    /// `None` if even `cap` does not provide that much supply. Implemented
    /// by binary search over the monotone [`SupplyBound::sbf`].
    fn inverse(&self, supply: Duration, cap: Duration) -> Option<Duration> {
        if self.sbf(cap) < supply {
            return None;
        }
        let (mut lo, mut hi) = (0u64, cap.ticks());
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if self.sbf(Duration(mid)) >= supply {
                hi = mid;
            } else {
                lo = mid + 1;
            }
        }
        Some(Duration(lo))
    }
}

/// The ideal processor: every tick is supply (`SBF(Δ) = Δ`). Used by the
/// overhead-oblivious baseline RTA.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IdealSupply;

impl SupplyBound for IdealSupply {
    fn sbf(&self, delta: Duration) -> Duration {
        delta
    }

    fn inverse(&self, supply: Duration, cap: Duration) -> Option<Duration> {
        (supply <= cap).then_some(supply)
    }
}

/// The Rössl supply bound function: `SBF(Δ) = max_{δ ≤ Δ}(δ − BB(δ))`
/// against a [`BlackoutBound`], up to a horizon.
///
/// Construction is O(1). [`SupplyBound::inverse`] — the only call the
/// RTA solver makes — works on the blackout bound directly: because
/// `SBF` is the running maximum of `δ − BB(δ)`, the least `δ` with
/// `SBF(δ) ≥ s ≥ 1` is the least `δ` with `δ ≥ s + BB(δ)`, the least
/// fixed point of the monotone map `δ ↦ s + BB(δ)`, which iterating from
/// `δ = s` reaches from below.
///
/// [`SupplyBound::sbf`] reads an interval table built on its first call.
/// `BlackoutBound` is a right-continuous step function, so `δ − BB(δ)`
/// increases with slope one between its jump points; the running maximum
/// is therefore fully determined by the values just before each jump.
/// Queries beyond the horizon return `SBF(horizon)` — a sound (monotone)
/// underestimate — and `inverse` answers within the horizon accordingly.
///
/// # Examples
///
/// ```
/// use prosa::{BlackoutBound, RosslSupply, SupplyBound};
/// use rossl_model::*;
///
/// let tasks = TaskSet::new(vec![Task::new(
///     TaskId(0), "t", Priority(1), Duration(10), Curve::sporadic(Duration(100)),
/// )])?;
/// let bb = BlackoutBound::for_config(&tasks, &WcetTable::example(), 1);
/// let sbf = RosslSupply::new(bb, Duration(10_000));
/// assert_eq!(sbf.sbf(Duration(0)), Duration(0));
/// // Monotone and never exceeding Δ:
/// assert!(sbf.sbf(Duration(500)) <= Duration(500));
/// assert!(sbf.sbf(Duration(500)) <= sbf.sbf(Duration(501)));
/// // The inverse is the least window that supplies the requested amount.
/// let d = sbf.inverse(Duration(100), Duration(10_000)).unwrap();
/// assert!(sbf.sbf(d) >= Duration(100) && sbf.sbf(d - Duration(1)) < Duration(100));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct RosslSupply {
    blackout: BlackoutBound,
    horizon: Duration,
    /// `(p_k, BB on [p_k, p_{k+1}), best supply over δ < p_k)`, built by
    /// the first [`SupplyBound::sbf`] call.
    intervals: OnceLock<Vec<(Duration, Duration, Duration)>>,
}

impl RosslSupply {
    /// The SBF of `blackout` for window lengths up to `horizon`.
    pub fn new(blackout: BlackoutBound, horizon: Duration) -> RosslSupply {
        RosslSupply {
            blackout,
            horizon,
            intervals: OnceLock::new(),
        }
    }

    /// The precomputation horizon.
    pub fn horizon(&self) -> Duration {
        self.horizon
    }

    fn intervals(&self) -> &[(Duration, Duration, Duration)] {
        self.intervals
            .get_or_init(|| build_intervals(&self.blackout, self.horizon))
    }
}

/// Sweeps the increase points of `blackout` up to `horizon` into the
/// interval table [`RosslSupply::sbf`] reads.
fn build_intervals(
    blackout: &BlackoutBound,
    horizon: Duration,
) -> Vec<(Duration, Duration, Duration)> {
    let mut points = blackout.increase_points(horizon);
    points.retain(|p| !p.is_zero());

    let mut intervals = Vec::with_capacity(points.len() + 1);
    let mut best = Duration::ZERO; // max(0, δ − BB(δ)) over δ seen so far
    let mut start = Duration::ZERO;
    let mut level = blackout.bound(Duration::ZERO);
    for p in points {
        // Interval [start, p): BB constant at `level`; the supremum of
        // δ − level is at δ = p − 1.
        intervals.push((start, level, best));
        let at_end = (p - Duration(1)).saturating_sub(level);
        best = best.max(at_end);
        start = p;
        level = blackout.bound(p);
    }
    intervals.push((start, level, best));
    intervals
}

impl SupplyBound for RosslSupply {
    fn sbf(&self, delta: Duration) -> Duration {
        let delta = delta.min(self.horizon);
        let intervals = self.intervals();
        let idx = intervals
            .partition_point(|&(start, _, _)| start <= delta)
            .saturating_sub(1);
        let (_, level, best) = intervals[idx];
        best.max(delta.saturating_sub(level))
    }

    /// The least `δ ≤ min(cap, horizon)` with `δ ≥ supply + BB(δ)`, by
    /// iterating `δ ← supply + BB(δ)` from `δ = supply`. Every iterate is
    /// at most every such `δ` (induction over the monotone `BB`), and the
    /// iterates rise until one is a fixed point — the answer — or passes
    /// the limit, in which case no window within it suffices. Each step
    /// that does not settle crosses a jump of `BB`, so the loop runs at
    /// most once per jump below the answer.
    fn inverse(&self, supply: Duration, cap: Duration) -> Option<Duration> {
        if supply.is_zero() {
            return Some(Duration::ZERO);
        }
        let limit = cap.min(self.horizon);
        let mut delta = supply;
        loop {
            if delta > limit {
                return None;
            }
            let next = Duration(supply.0.checked_add(self.blackout.bound(delta).0)?);
            if next <= delta {
                return Some(delta);
            }
            delta = next;
        }
    }
}

impl fmt::Display for RosslSupply {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "RosslSupply({} intervals up to {})",
            self.intervals().len(),
            self.horizon
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rossl_model::{Curve, Priority, Task, TaskId, TaskSet, WcetTable};

    fn supply() -> RosslSupply {
        let tasks = TaskSet::new(vec![
            Task::new(
                TaskId(0),
                "a",
                Priority(1),
                Duration(10),
                Curve::sporadic(Duration(100)),
            ),
            Task::new(
                TaskId(1),
                "b",
                Priority(2),
                Duration(5),
                Curve::leaky_bucket(2, 1, 80),
            ),
        ])
        .unwrap();
        RosslSupply::new(
            BlackoutBound::for_config(&tasks, &WcetTable::example(), 2),
            Duration(5_000),
        )
    }

    fn brute_sbf(s: &RosslSupply, bb: &BlackoutBound, delta: u64) -> Duration {
        let _ = s;
        (0..=delta)
            .map(|d| Duration(d).saturating_sub(bb.bound(Duration(d))))
            .max()
            .unwrap_or(Duration::ZERO)
    }

    #[test]
    fn matches_brute_force_definition() {
        let tasks = TaskSet::new(vec![Task::new(
            TaskId(0),
            "a",
            Priority(1),
            Duration(10),
            Curve::sporadic(Duration(37)),
        )])
        .unwrap();
        let bb = BlackoutBound::for_config(&tasks, &WcetTable::example(), 1);
        let s = RosslSupply::new(bb.clone(), Duration(1_000));
        for d in (0..1_000).step_by(7) {
            assert_eq!(
                s.sbf(Duration(d)),
                brute_sbf(&s, &bb, d),
                "mismatch at Δ = {d}"
            );
        }
    }

    /// The eager supply table as `RosslSupply::new` built it before the
    /// table became lazy: the oracle for the lazy `sbf`.
    struct EagerSupply {
        intervals: Vec<(Duration, Duration, Duration)>,
        horizon: Duration,
    }

    impl EagerSupply {
        fn new(blackout: BlackoutBound, horizon: Duration) -> EagerSupply {
            let mut points = blackout.increase_points(horizon);
            points.retain(|p| !p.is_zero());
            let mut intervals = Vec::with_capacity(points.len() + 1);
            let mut best = Duration::ZERO;
            let mut start = Duration::ZERO;
            let mut level = blackout.bound(Duration::ZERO);
            for p in points {
                intervals.push((start, level, best));
                let at_end = (p - Duration(1)).saturating_sub(level);
                best = best.max(at_end);
                start = p;
                level = blackout.bound(p);
            }
            intervals.push((start, level, best));
            EagerSupply { intervals, horizon }
        }
    }

    impl SupplyBound for EagerSupply {
        fn sbf(&self, delta: Duration) -> Duration {
            let delta = delta.min(self.horizon);
            let idx = self
                .intervals
                .partition_point(|&(start, _, _)| start <= delta)
                .saturating_sub(1);
            let (_, level, best) = self.intervals[idx];
            best.max(delta.saturating_sub(level))
        }
    }

    #[test]
    fn lazy_table_matches_the_eager_builder() {
        let tasks = TaskSet::new(vec![
            Task::new(TaskId(0), "a", Priority(1), Duration(10), Curve::sporadic(Duration(97))),
            Task::new(TaskId(1), "b", Priority(3), Duration(4), Curve::periodic(Duration(61))),
            Task::new(TaskId(2), "c", Priority(2), Duration(6), Curve::leaky_bucket(2, 1, 45)),
            Task::new(
                TaskId(3),
                "d",
                Priority(5),
                Duration(3),
                Curve::staircase(vec![(Duration(5), 1), (Duration(40), 3), (Duration(300), 4)]),
            ),
        ])
        .unwrap();
        let wcet = WcetTable::example();
        for n_sockets in 1..=3 {
            let mut bounds = vec![
                BlackoutBound::for_config(&tasks, &wcet, n_sockets),
                BlackoutBound::for_config(&tasks, &wcet, n_sockets).with_straddlers(1),
            ];
            bounds.extend(
                tasks
                    .iter()
                    .map(|t| BlackoutBound::for_task(&tasks, &wcet, n_sockets, t.id())),
            );
            for bb in bounds {
                for horizon in [1u64, 57, 800, 4_000] {
                    let lazy = RosslSupply::new(bb.clone(), Duration(horizon));
                    let eager = EagerSupply::new(bb.clone(), Duration(horizon));
                    for d in 0..=horizon + 10 {
                        assert_eq!(
                            lazy.sbf(Duration(d)),
                            eager.sbf(Duration(d)),
                            "Δ = {d}, horizon {horizon}, {bb}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn sbf_is_monotone_and_below_identity() {
        let s = supply();
        let mut prev = Duration::ZERO;
        for d in 0..3_000u64 {
            let v = s.sbf(Duration(d));
            assert!(v >= prev, "not monotone at {d}");
            assert!(v <= Duration(d), "exceeds identity at {d}");
            prev = v;
        }
    }

    #[test]
    fn queries_beyond_horizon_saturate() {
        let s = supply();
        assert_eq!(s.sbf(Duration(1_000_000)), s.sbf(s.horizon()));
    }

    #[test]
    fn inverse_is_exact_minimum() {
        let s = supply();
        for target in [1u64, 5, 50, 500] {
            if let Some(d) = s.inverse(Duration(target), Duration(5_000)) {
                assert!(s.sbf(d) >= Duration(target));
                assert!(d.is_zero() || s.sbf(d - Duration(1)) < Duration(target));
            }
        }
    }

    #[test]
    fn inverse_answers_the_supply_itself_without_blackout() {
        // No straddlers and no release before Δ = 40: BB is 0 on short
        // windows, so the least window supplying s is s itself.
        let tasks = TaskSet::new(vec![Task::new(
            TaskId(0),
            "late",
            Priority(1),
            Duration(5),
            Curve::staircase(vec![(Duration(50), 1)]),
        )])
        .unwrap();
        let bb = BlackoutBound::for_config(&tasks, &WcetTable::example(), 1).with_straddlers(0);
        let s = RosslSupply::new(bb, Duration(1_000));
        assert_eq!(s.inverse(Duration(1), Duration(1_000)), Some(Duration(1)));
        assert_eq!(s.inverse(Duration(7), Duration(1_000)), Some(Duration(7)));
        assert_eq!(s.inverse(Duration(7), Duration(6)), None);
    }

    #[test]
    fn inverse_none_when_unreachable() {
        let s = supply();
        assert_eq!(s.inverse(Duration(u64::MAX / 2), Duration(5_000)), None);
    }

    #[test]
    fn ideal_supply_is_identity() {
        assert_eq!(IdealSupply.sbf(Duration(42)), Duration(42));
        assert_eq!(
            IdealSupply.inverse(Duration(7), Duration(100)),
            Some(Duration(7))
        );
        assert_eq!(IdealSupply.inverse(Duration(200), Duration(100)), None);
    }
}
