//! Criterion benchmarks of the analytical side (benches B5–B6 in
//! DESIGN.md): SBF evaluation, the aRSA NPFP solve as the task set grows,
//! and the end-to-end verified pipeline.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use prosa::{analyse, analyse_baseline, BlackoutBound, RosslSupply, SupplyBound};
use refined_prosa_bench::setup;
use rossl_model::{Duration, Instant};

/// B5a: supply-bound-function table construction (on the first `sbf`
/// call), point evaluation, and the solver's fixed-point inverse.
fn bench_sbf(c: &mut Criterion) {
    let system = setup::canonical();
    let mut group = c.benchmark_group("sbf");
    group.bench_function("construct_100k", |b| {
        b.iter(|| {
            let bb = BlackoutBound::for_config(system.tasks(), system.wcet(), system.n_sockets());
            RosslSupply::new(bb, Duration(100_000)).sbf(Duration(100_000))
        })
    });
    let bb = BlackoutBound::for_config(system.tasks(), system.wcet(), system.n_sockets());
    let sbf = RosslSupply::new(bb, Duration(100_000));
    group.bench_function("eval_sweep", |b| {
        b.iter(|| {
            let mut acc = Duration::ZERO;
            for d in (0..100_000u64).step_by(997) {
                acc = acc.saturating_add(sbf.sbf(Duration(d)));
            }
            acc
        })
    });
    group.bench_function("inverse_sweep", |b| {
        b.iter(|| {
            let mut acc = Duration::ZERO;
            for s in (1..20_000u64).step_by(997) {
                let d = sbf.inverse(Duration(s), Duration(100_000)).unwrap_or(Duration::ZERO);
                acc = acc.saturating_add(d);
            }
            acc
        })
    });
    group.finish();
}

/// B5b: the full RTA solve as the number of tasks grows, overhead-aware
/// vs the ideal-processor baseline.
fn bench_rta_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("rta_solve");
    for n_tasks in [2usize, 4, 8, 16] {
        let system = setup::scaled(n_tasks, 2);
        group.bench_with_input(BenchmarkId::new("aware", n_tasks), &system, |b, s| {
            b.iter(|| analyse(s.params(), Duration(400_000)).expect("schedulable"))
        });
        group.bench_with_input(BenchmarkId::new("baseline", n_tasks), &system, |b, s| {
            b.iter(|| analyse_baseline(s.params(), Duration(400_000)).expect("schedulable"))
        });
    }
    group.finish();
}

/// B6: the end-to-end verified run (workload generation, simulation,
/// all hypothesis checks, bound check).
fn bench_end_to_end(c: &mut Criterion) {
    let system = setup::canonical();
    c.bench_function("run_verified_20k_ticks", |b| {
        b.iter(|| {
            system
                .run_verified(7, Instant(20_000))
                .expect("verified")
                .jobs_completed
        })
    });
}

criterion_group!(benches, bench_sbf, bench_rta_scaling, bench_end_to_end);
criterion_main!(benches);
