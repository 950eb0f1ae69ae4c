//! E16: environment-level fault injection — the detection and soundness
//! matrices (see DESIGN.md §5 and EXPERIMENTS.md row E16).
//!
//! The campaign sweeps every fault class of the taxonomy through
//! [`refined_prosa::run_fault_campaign`] and asserts the two-sided
//! robustness property: every out-of-model fault is flagged by at least
//! one named checker, and every in-model perturbation verifies with zero
//! bound violations. A second section demonstrates the scheduler
//! watchdog: under injected WCET overruns the scheduler enters degraded
//! mode, sheds its lowest-priority pending jobs and recovers — without
//! panicking.

use std::fmt::Write as _;

use rand::rngs::StdRng;
use rand::SeedableRng;
use refined_prosa::faults::{FaultClass, FaultPlan, FaultSpec};
use refined_prosa::{run_fault_campaign, FaultCampaignConfig};
use rossl::WatchdogConfig;
use rossl_model::Instant;
use rossl_timing::UniformCost;

use crate::setup;

/// E16: the fault campaign over the canonical system, plus a watchdog
/// degradation demonstration.
pub fn exp_faults(seeds: u64, horizon: Instant) -> String {
    let mut out = String::new();
    let system = setup::canonical();

    let mut config = FaultCampaignConfig::new(horizon);
    config.seeds = (0..seeds.max(1)).map(|s| s.wrapping_mul(7).wrapping_add(11)).collect();
    let outcome = run_fault_campaign(&system, &config).expect("campaign infrastructure");
    let _ = writeln!(
        out,
        "campaign: {} classes x {} seeds at {} permille",
        config.classes.len(),
        config.seeds.len(),
        config.rate_permille
    );
    let _ = write!(out, "{outcome}");
    assert!(
        outcome.holds(),
        "two-sided robustness property failed:\n{outcome}"
    );
    let _ = writeln!(
        out,
        "two-sided property: every out-of-model class detected, every in-model class sound"
    );

    // Watchdog demonstration: sustained WCET overruns trip degraded mode
    // while arrival bursts pile up the pending queue; the scheduler sheds
    // rather than panics, and recovers when idle.
    let plan = FaultPlan::single(42, FaultClass::WcetOverrun { factor: 6 }, 700)
        .with(FaultSpec::at_rate(FaultClass::Burst { factor: 5 }, 500));
    let arrivals = system.random_workload(42, horizon);
    let run = system
        .simulate_faulty(
            &arrivals,
            UniformCost::new(StdRng::seed_from_u64(42)),
            &plan,
            Some(WatchdogConfig::new(2)),
            horizon,
        )
        .expect("watchdog run");
    let overruns = run
        .result
        .degradation
        .iter()
        .filter(|e| matches!(e, rossl::DegradedEvent::WcetOverrun { .. }))
        .count();
    let shed = run
        .result
        .degradation
        .iter()
        .filter(|e| matches!(e, rossl::DegradedEvent::JobShed { .. }))
        .count();
    let recovered = run
        .result
        .degradation
        .iter()
        .filter(|e| matches!(e, rossl::DegradedEvent::Recovered))
        .count();
    let _ = writeln!(
        out,
        "watchdog under wcet-overrun x6 + burst x5: {} overruns detected, {} jobs shed, {} recoveries, {} jobs still completed",
        overruns, shed, recovered, run.result.completed_count()
    );
    assert!(overruns > 0, "the watchdog must observe injected overruns");
    assert!(shed > 0, "degraded mode must shed the overfull pending queue");
    assert!(recovered > 0, "the scheduler must recover after shedding");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn faults_experiment_reports_both_matrices() {
        let _shared = crate::shared_lock();
        let report = exp_faults(2, Instant(15_000));
        assert!(report.contains("Detection matrix"), "report:\n{report}");
        assert!(report.contains("Soundness matrix"), "report:\n{report}");
        assert!(report.contains("watchdog under wcet-overrun"), "report:\n{report}");
    }
}
