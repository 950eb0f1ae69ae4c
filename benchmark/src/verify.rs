//! `verify-config`: each operation verifies one configuration — a
//! bounded model check of its `ClientConfig`, then the Thm. 5.1
//! pipeline (workload, simulation, analysis, verification).

use std::hint::black_box;
use std::time::Instant as Wall;

use rand::rngs::StdRng;
use rand::SeedableRng;
use refined_prosa::{RosslSystem, SystemBuilder, TimingVerifier};
use rossl::ClientConfig;
use rossl_model::{Curve, Duration, Instant, OverheadBounds, Priority};
use rossl_obs::{Registry, VerifierMetrics};
use rossl_schedule::{check_validity, convert};
use rossl_timing::{check_consistency, check_wcet_compliance, UniformCost};
use rossl_trace::{check_functional, ProtocolAutomaton};
use rossl_verify::ModelChecker;

use crate::digest::mix;
use crate::ledger::{Layer, Tracer};
use crate::stats::median_ns;
use crate::{keep_going, Budget, Metrics, Run};

/// How big one configuration's verification is.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Simulated horizon, ticks. Every configuration emits about one
    /// marker per two ticks, so op cost is nearly equal across kinds.
    pub horizon: u64,
    /// Model-check depth for the two-socket configurations, sized so
    /// the check is about a quarter of the op.
    pub mc_depth: usize,
    /// Model-check depth for the one-socket configuration, whose
    /// behaviour tree grows far more slowly.
    pub mc_depth_single: usize,
    /// Leading ops whose outputs make up the digest and tick samples.
    pub cycle: u64,
}

impl Scale {
    pub const FULL: Scale = Scale {
        horizon: 100_000,
        mc_depth: 36,
        mc_depth_single: 50,
        cycle: 400,
    };
    pub const TINY: Scale = Scale {
        horizon: 40_000,
        mc_depth: 24,
        mc_depth_single: 40,
        cycle: 6,
    };
}

/// One configuration kind: the system, and the model checker of its
/// client configuration.
struct Config {
    system: RosslSystem,
    mc: ModelChecker,
}

pub struct Inputs {
    seed: u64,
    scale: Scale,
    threads: usize,
    configs: Vec<Config>,
}

fn scaled(n_tasks: usize) -> RosslSystem {
    let mut b = SystemBuilder::new().sockets(2);
    for i in 0..n_tasks {
        b = b.task(
            format!("t{i}"),
            Priority((n_tasks - i) as u32),
            Duration(10 + 5 * i as u64),
            Curve::sporadic(Duration(2_000 + 500 * i as u64)),
        );
    }
    b.build().expect("scaled system is valid")
}

/// The repository's benchmark configurations (`setup::{single,
/// canonical, bursty, scaled(4|8|16)}` of the bench crate).
fn systems() -> Vec<RosslSystem> {
    let single = SystemBuilder::new()
        .task(
            "only",
            Priority(1),
            Duration(20),
            Curve::sporadic(Duration(500)),
        )
        .sockets(1)
        .build()
        .expect("single-task system is valid");
    let canonical = SystemBuilder::new()
        .task(
            "logging",
            Priority(0),
            Duration(60),
            Curve::sporadic(Duration(4_000)),
        )
        .task(
            "control",
            Priority(5),
            Duration(25),
            Curve::sporadic(Duration(1_500)),
        )
        .task(
            "safety",
            Priority(9),
            Duration(10),
            Curve::sporadic(Duration(1_000)),
        )
        .sockets(2)
        .build()
        .expect("canonical system is valid");
    let bursty = SystemBuilder::new()
        .task(
            "bursty",
            Priority(3),
            Duration(15),
            Curve::leaky_bucket(3, 1, 1_500),
        )
        .task(
            "steady",
            Priority(6),
            Duration(10),
            Curve::sporadic(Duration(800)),
        )
        .sockets(2)
        .build()
        .expect("bursty system is valid");
    vec![single, canonical, bursty, scaled(4), scaled(8), scaled(16)]
}

impl Inputs {
    pub fn new(seed: u64, scale: Scale, threads: usize) -> Inputs {
        let configs = systems()
            .into_iter()
            .map(|system| {
                let n_sockets = system.n_sockets();
                let n_tasks = system.tasks().len();
                let client = ClientConfig::new(system.tasks().clone(), n_sockets)
                    .expect("benchmark systems have valid client configurations");
                // Two messages per socket for distinct tasks; the single
                // socket gets a longer queue of its only task.
                let (pending, depth) = if n_sockets == 1 {
                    (vec![vec![vec![0u8]; 6]], scale.mc_depth_single)
                } else {
                    let pending = (0..n_sockets)
                        .map(|s| {
                            vec![
                                vec![((2 * s) % n_tasks) as u8],
                                vec![((2 * s + 1) % n_tasks) as u8],
                            ]
                        })
                        .collect();
                    (pending, scale.mc_depth)
                };
                let mc = ModelChecker::new(client, pending, depth)
                    .with_threads(threads)
                    .with_dedup(true);
                Config { system, mc }
            })
            .collect();
        Inputs {
            seed,
            scale,
            threads,
            configs,
        }
    }

    fn analysis_horizon(&self) -> Duration {
        Duration(self.scale.horizon.max(100_000) * 4)
    }
}

/// Runs configurations back to back until the budget is spent.
pub fn run(inputs: &Inputs, budget: &Budget, tracer: &mut Tracer) -> Run {
    let mut out = Run::default();
    let started = Wall::now();
    let horizon = Instant(inputs.scale.horizon);
    let mut i = 0u64;
    while keep_going(started, budget, i) {
        let kind = (i % inputs.configs.len() as u64) as usize;
        let config = &inputs.configs[kind];
        let system = &config.system;
        let seed = mix(inputs.seed, i);
        let traced = budget.traced(i);
        tracer.set_enabled(traced);

        let t = Wall::now();
        tracer.begin_op(i);
        let mc = tracer.call(Layer::Checker, "checker.check_with_stats", || {
            config.mc.check_with_stats()
        });
        let arrivals = tracer.call(Layer::Timing, "timing.random_workload", || {
            system.random_workload(seed, horizon)
        });
        let run = tracer.call(Layer::Timing, "timing.simulate", || {
            system.simulate(
                &arrivals,
                UniformCost::new(StdRng::seed_from_u64(seed ^ 0x5eed)),
                horizon,
            )
        });
        let verifier = tracer.call(Layer::Prosa, "prosa.analyse", || {
            TimingVerifier::new(system.params().clone(), inputs.analysis_horizon())
        });
        let report = match (&run, &verifier) {
            (Ok(run), Ok(verifier)) => Some(tracer.call(Layer::Core, "core.verify", || {
                verifier.verify(&arrivals, run)
            })),
            _ => None,
        };
        tracer.end_op();
        let ns = t.elapsed().as_nanos() as u64;
        out.push_op(ns, traced, 1.0);

        let ok = matches!(&report, Some(Ok(r)) if r.bound_violations == 0) && mc.is_ok();
        out.tally.record(1, u64::from(!ok));

        if traced {
            if let Ok(run) = &run {
                replay_hypotheses(tracer, system, &arrivals, run);
            }
        }
        if i < inputs.scale.cycle {
            let d = &mut out.digest;
            d.add(kind as u64);
            match &mc {
                Ok((o, _)) => d.add_all([o.paths, o.steps, o.max_trace_len as u64]),
                Err(f) => d.add_all([u64::MAX, f.trace.len() as u64]),
            }
            if let Ok(run) = &run {
                d.add(run.trace.markers().len() as u64);
                let responses: Vec<u64> =
                    run.response_times().map(|(_, _, rt)| rt.ticks()).collect();
                out.ticks.extend(&responses);
                d.add_all(responses);
            }
            if let Some(Ok(r)) = &report {
                d.add_all(
                    [
                        r.jobs_arrived,
                        r.jobs_completed,
                        r.jobs_with_due_deadline,
                        r.bound_violations,
                    ]
                    .map(|v| v as u64),
                );
                for t in &r.per_task {
                    d.add_all([
                        t.bound.ticks(),
                        t.max_observed.map_or(u64::MAX, |m| m.ticks()),
                        t.completed as u64,
                    ]);
                }
            }
        }
        i += 1;
    }
    out
}

/// Replays the six hypothesis checks `TimingVerifier::verify` ran, so
/// their time moves from `core` to the layers that own them.
fn replay_hypotheses(
    tracer: &mut Tracer,
    system: &RosslSystem,
    arrivals: &rossl_sockets::ArrivalSequence,
    run: &rossl_timing::SimulationResult,
) {
    let tasks = system.tasks();
    let n_sockets = system.n_sockets();
    let markers = run.trace.markers();
    let _ = tracer.replay(
        Layer::Core,
        Layer::Sockets,
        "sockets.check_respects_curves",
        || arrivals.check_respects_curves(tasks).is_ok(),
    );
    let _ = tracer.replay(Layer::Core, Layer::Trace, "trace.protocol_accept", || {
        ProtocolAutomaton::new(n_sockets).accept(markers).is_ok()
    });
    let _ = tracer.replay(Layer::Core, Layer::Trace, "trace.check_functional", || {
        check_functional(markers, tasks).is_ok()
    });
    let _ = tracer.replay(
        Layer::Core,
        Layer::Timing,
        "timing.check_wcet_compliance",
        || check_wcet_compliance(&run.trace, tasks, system.wcet(), n_sockets).is_ok(),
    );
    let _ = tracer.replay(
        Layer::Core,
        Layer::Timing,
        "timing.check_consistency",
        || check_consistency(&run.trace, arrivals).is_ok(),
    );
    let schedule = tracer.replay(Layer::Core, Layer::Schedule, "schedule.convert", || {
        convert(&run.trace, n_sockets)
    });
    if let Ok(schedule) = schedule {
        let bounds = OverheadBounds::derive(system.wcet(), n_sockets);
        let _ = tracer.replay(
            Layer::Core,
            Layer::Schedule,
            "schedule.check_validity",
            || check_validity(&schedule, tasks, &bounds).is_ok(),
        );
    }
}

/// Timing repetitions per ledger measurement; the median is kept.
const REPS: usize = 3;

/// The per-layer section of `verify-config`: every public call of the
/// pipeline timed on its own (median of [`REPS`]), over one
/// configuration of each kind.
pub fn ledger(inputs: &Inputs, m: &mut Metrics) {
    // [simulate, curves, protocol, functional, wcet, consistency,
    //  convert, validity, verify, analyse, mc] nanoseconds.
    let mut ns = [0f64; 11];
    let (mut markers, mut arrivals_n, mut segments) = (0f64, 0f64, 0f64);
    let registry = Registry::new();
    let metrics = VerifierMetrics::register(&registry);
    let (mut explored, mut pruned, mut steps, mut hits, mut lookups) =
        (0f64, 0f64, 0f64, 0f64, 0f64);
    let horizon = Instant(inputs.scale.horizon);
    let kinds = inputs.configs.len();
    for (k, config) in inputs.configs.iter().enumerate() {
        let system = &config.system;
        let tasks = system.tasks();
        let n_sockets = system.n_sockets();
        let seed = mix(inputs.seed ^ 0x1ed9e5, k as u64);
        let arrivals = system.random_workload(seed, horizon);
        let simulate = || {
            system.simulate(
                &arrivals,
                UniformCost::new(StdRng::seed_from_u64(seed)),
                horizon,
            )
        };
        let run = simulate().expect("benchmark configurations simulate");
        ns[0] += median_ns(REPS, || {
            black_box(simulate().is_ok());
        });
        let trace = &run.trace;
        markers += trace.markers().len() as f64;
        arrivals_n += arrivals.len() as f64;
        let schedule = convert(trace, n_sockets).expect("benchmark traces convert");
        segments += schedule.segments().len() as f64;
        let bounds = OverheadBounds::derive(system.wcet(), n_sockets);
        let verifier = TimingVerifier::new(system.params().clone(), inputs.analysis_horizon())
            .expect("benchmark configurations are schedulable");
        ns[1] += median_ns(REPS, || {
            black_box(arrivals.check_respects_curves(tasks).is_ok());
        });
        ns[2] += median_ns(REPS, || {
            black_box(
                ProtocolAutomaton::new(n_sockets)
                    .accept(trace.markers())
                    .is_ok(),
            );
        });
        ns[3] += median_ns(REPS, || {
            black_box(check_functional(trace.markers(), tasks).is_ok());
        });
        ns[4] += median_ns(REPS, || {
            black_box(check_wcet_compliance(trace, tasks, system.wcet(), n_sockets).is_ok());
        });
        ns[5] += median_ns(REPS, || {
            black_box(check_consistency(trace, &arrivals).is_ok());
        });
        ns[6] += median_ns(REPS, || {
            black_box(convert(trace, n_sockets).is_ok());
        });
        ns[7] += median_ns(REPS, || {
            black_box(check_validity(&schedule, tasks, &bounds).is_ok());
        });
        ns[8] += median_ns(REPS, || {
            black_box(verifier.verify(&arrivals, &run).is_ok());
        });
        ns[9] += median_ns(REPS, || {
            black_box(
                TimingVerifier::new(system.params().clone(), inputs.analysis_horizon()).is_ok(),
            );
        });
        let mc = config
            .mc
            .clone()
            .with_metrics(std::sync::Arc::clone(&metrics));
        let mut last = None;
        ns[10] += median_ns(REPS, || last = Some(mc.check_with_stats()));
        let (outcome, stats) = last
            .expect("the model check ran")
            .expect("benchmark configurations model-check");
        explored += stats.explored_steps as f64;
        pruned += stats.pruned_steps as f64;
        steps += outcome.steps as f64;
        hits += stats.memo_hits as f64;
        lookups += stats.memo_lookups as f64;
    }
    let kinds = kinds as f64;
    m.put("timing.simulate_ns_per_marker", ns[0] / markers, "ns");
    m.put("sockets.curves_ns_per_arrival", ns[1] / arrivals_n, "ns");
    m.put("trace.protocol_ns_per_marker", ns[2] / markers, "ns");
    m.put("trace.functional_ns_per_marker", ns[3] / markers, "ns");
    m.put("timing.wcet_ns_per_marker", ns[4] / markers, "ns");
    m.put("timing.consistency_ns_per_marker", ns[5] / markers, "ns");
    m.put("schedule.convert_ns_per_marker", ns[6] / markers, "ns");
    m.put("schedule.validity_ns_per_segment", ns[7] / segments, "ns");
    let hypotheses: f64 = ns[1..8].iter().sum();
    m.put(
        "core.conclusion_ms",
        (ns[8] - hypotheses) / kinds / 1e6,
        "ms",
    );
    m.put("prosa.analyse_us", ns[9] / kinds / 1e3, "us");
    m.put("checker.mc_ms", ns[10] / kinds / 1e6, "ms");
    m.put("checker.mc_steps_per_s", explored / (ns[10] / 1e9), "1/s");
    m.put("checker.mc_prune_ratio", pruned / steps, "ratio");
    m.put(
        "checker.mc_memo_hit_ratio",
        hits / lookups.max(1.0),
        "ratio",
    );
    m.put("par.threads", inputs.threads as f64, "count");
    let donated = registry.snapshot().counter("verify.donations").unwrap_or(0);
    m.put(
        "par.donations_per_check",
        donated as f64 / (kinds * REPS as f64),
        "count",
    );
}
