//! The repository benchmark: one command per workload, driving the
//! public APIs of `core`, `fleet` and `workloads` from one process.
//!
//! ```sh
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload verify-config --seed 1 --seconds 10 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`, with the end-to-end
//! metrics under `--trace 0` and the per-layer ledger under `--trace 1`.
//! The line before it records provenance. See `README.md`.

mod admission;
mod calib;
mod digest;
mod fleet;
mod ledger;
mod share;
mod stats;
mod verify;

use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Instant as Wall;

use calib::Calibration;
use digest::Digest;
use ledger::Tracer;
use share::Share;
use stats::{mean, median, summarise, summarise_f64, Tally};

const WORKLOADS: [&str; 3] = ["verify-config", "fleet-steady", "admission-churn"];

/// Set-up is repeated this many times per process and the median of
/// all repetitions reported.
const SETUP_REPS: usize = 5;

/// Processes an untraced run is split over. Code and data land at
/// different addresses in each process, and on the baseline host that
/// alone moved the calibrated time of `verify-config`'s pipeline by up
/// to 16% from one process to the next while it held within 2% inside
/// each; pooling several processes averages the layouts.
const PROCESSES: u64 = 5;

/// Seed of the known-answer inputs every run re-checks during set-up.
const KNOWN_SEED: u64 = 0x00C0_FFEE;

/// Digests of each workload's outputs on its tiny known-answer input.
/// A run whose known answer differs fails and exits non-zero.
const KNOWN_DIGESTS: [(&str, &str); 3] = [
    ("verify-config", "bef48e1d40fd1ad3"),
    ("fleet-steady", "b94fba47dff0e8b6"),
    ("admission-churn", "aa38c668cac76519"),
];

/// A seed kept out of every tuning run, for confirming later claims
/// on inputs the change was not written against.
const HELD_OUT_SEED: u64 = 90_210;

/// How long a workload measures, and the leading ops it always runs
/// (configs, fleet runs or admission sets): at least the digest cycle,
/// and enough for the tail percentile to be the same on every run.
pub struct Budget {
    pub seconds: f64,
    pub min_ops: u64,
    pub trace: bool,
}

impl Budget {
    /// Is op `i` traced? Traced runs alternate blocks of six ops, so
    /// traced and untraced ops see the same mix of configuration kinds
    /// and fault kinds, and the tracing overhead compares like with like.
    pub fn traced(&self, i: u64) -> bool {
        self.trace && (i / 6) % 2 == 0
    }
}

/// Should the measuring loop start op number `ops`?
pub fn keep_going(started: Wall, budget: &Budget, ops: u64) -> bool {
    ops < budget.min_ops || started.elapsed().as_secs_f64() < budget.seconds
}

/// What a workload's measuring loop produced.
#[derive(Default)]
pub struct Run {
    pub tally: Tally,
    /// Untraced op latencies, ns, and the work each op did, in run order.
    pub op_ns: Vec<u64>,
    pub op_work: Vec<f64>,
    /// The untraced op latencies at the reference host speed, ns.
    pub op_cal_ns: Vec<f64>,
    pub calibration: Calibration,
    /// Traced op latencies, ns (traced runs only).
    pub traced_op_ns: Vec<u64>,
    /// Modelled (virtual-tick) outcomes of the leading digest cycle.
    pub ticks: Vec<u64>,
    pub digest: Digest,
    pub notes: Vec<(&'static str, String)>,
}

impl Run {
    pub fn push_op(&mut self, ns: u64, traced: bool, work: f64) {
        if traced {
            self.traced_op_ns.push(ns);
        } else {
            self.op_ns.push(ns);
            self.op_work.push(work);
            let scale = self.calibration.scale();
            self.op_cal_ns.push(ns as f64 * scale);
        }
    }
}

/// Named metric values with their units, in insertion order.
#[derive(Default)]
pub struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.push((name.to_string(), value, unit));
    }

    fn json(&self) -> String {
        let mut out = String::from("{");
        for (i, (name, value, unit)) in self.0.iter().enumerate() {
            let value = if value.is_finite() { *value } else { 0.0 };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push('}');
        out
    }
}

enum Inputs {
    Verify(verify::Inputs),
    Fleet(fleet::Inputs),
    Admission(admission::Inputs),
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The workload's inputs at full scale (`tiny == false`) or on its
/// known-answer size, with the op count that makes up one digest cycle.
fn inputs(workload: &str, seed: u64, tiny: bool) -> (Inputs, u64) {
    use fleet::Scale as F;
    match (workload, tiny) {
        ("verify-config", false) => (
            Inputs::Verify(verify::Inputs::new(seed, verify::Scale::FULL, nproc())),
            verify::Scale::FULL.cycle,
        ),
        ("verify-config", true) => (
            Inputs::Verify(verify::Inputs::new(seed, verify::Scale::TINY, nproc())),
            verify::Scale::TINY.cycle,
        ),
        ("fleet-steady", false) => (
            Inputs::Fleet(fleet::Inputs::new(seed, F::STEADY)),
            F::STEADY.cycle,
        ),
        ("fleet-steady", true) => (
            Inputs::Fleet(fleet::Inputs::new(seed, F::TINY)),
            F::TINY.cycle,
        ),
        (_, false) => (
            Inputs::Admission(admission::Inputs::new(seed, admission::Scale::FULL)),
            admission::Scale::FULL.sets,
        ),
        (_, true) => (
            Inputs::Admission(admission::Inputs::new(seed, admission::Scale::TINY)),
            admission::Scale::TINY.sets,
        ),
    }
}

fn run(inputs: &Inputs, budget: &Budget, tracer: &mut Tracer) -> Run {
    match inputs {
        Inputs::Verify(i) => verify::run(i, budget, tracer),
        Inputs::Fleet(i) => fleet::run(i, budget, tracer),
        Inputs::Admission(i) => admission::run(i, budget, tracer),
    }
}

/// The digest of `workload`'s outputs on its known-answer input.
fn known_answer(workload: &str) -> String {
    let (inputs, cycle) = inputs(workload, KNOWN_SEED, true);
    let budget = Budget {
        seconds: 0.0,
        min_ops: cycle,
        trace: false,
    };
    run(&inputs, &budget, &mut Tracer::new(false)).digest.hex()
}

/// Ops every run executes at least, so the median and the tail always
/// rest on a thousand samples whatever the host speed.
const MIN_OPS: u64 = 1_000;

fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn git_commit() -> String {
    std::process::Command::new("git")
        .args(["--git-dir", ".git", "rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown (not a git checkout)".to_string())
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Set on the measuring processes of an untraced run, which print
    /// their [`Share`] instead of a result.
    child: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut child = false;
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {value:?} is not {what}");
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value),
            "--workload" => return Err(bad(&format!("one of {WORKLOADS:?}"))),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("a whole number"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| *s >= 0.0)
                        .ok_or_else(|| bad("a duration"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                })
            }
            "--child" if value == "1" => child = true,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
        child,
    })
}

fn main() -> ExitCode {
    let process_start = Wall::now();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("benchmark: {e}");
            eprintln!(
                "usage: --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    if args.trace {
        traced(&args, process_start)
    } else if args.child {
        let (measured, _) = measure(&args, process_start, PROCESSES);
        print!("{}", measured.share().lines());
        exit_code(measured.correct)
    } else {
        untraced(&args)
    }
}

/// What one process measured: its set-ups, its measuring loop, and the
/// checks around them.
struct Measured {
    /// Wall and calibrated time of each set-up repetition, s.
    setup_s: Vec<f64>,
    setup_cal_s: Vec<f64>,
    known: String,
    cycle: u64,
    run: Run,
    teeth_ok: bool,
    correct: bool,
}

/// Sets the workload up [`SETUP_REPS`] times, then measures it for
/// `--seconds`, running at least its digest cycle and a `processes`-th
/// of [`MIN_OPS`].
fn measure(args: &Args, process_start: Wall, processes: u64) -> (Measured, Tracer) {
    let workload = args.workload.as_str();
    let expected = KNOWN_DIGESTS
        .iter()
        .find(|(w, _)| *w == workload)
        .map_or("", |(_, d)| *d);

    // Set-up: build the inputs and re-check the known answer; the first
    // repetition counts from process start. A kernel timing between two
    // repetitions calibrates both of its neighbours (see `calib`).
    let (mut setup_s, mut setup_cal_s) = (Vec::new(), Vec::new());
    let mut known = String::new();
    let mut built = None;
    let mut kernel_before = None;
    for rep in 0..SETUP_REPS {
        let t0 = if rep == 0 { process_start } else { Wall::now() };
        built = Some(inputs(workload, args.seed, false));
        known = known_answer(workload);
        let s = t0.elapsed().as_secs_f64();
        let kernel_after = calib::kernel_ns();
        let kernel = kernel_before.map_or(kernel_after, |b: f64| (b + kernel_after) / 2.0);
        setup_s.push(s);
        setup_cal_s.push(s * calib::scale_for(kernel));
        kernel_before = Some(kernel_after);
    }
    let (inputs, cycle) = built.expect("at least one set-up repetition");

    let budget = Budget {
        seconds: args.seconds,
        min_ops: cycle.max(MIN_OPS.div_ceil(processes)),
        trace: args.trace,
    };
    let mut tracer = Tracer::new(args.trace);
    let run = run(&inputs, &budget, &mut tracer);
    let teeth_ok = workload != "fleet-steady" || fleet::dropped_failover_caught(args.seed);
    let correct = run.tally.failed == 0 && known == expected && teeth_ok;
    let measured = Measured {
        setup_s,
        setup_cal_s,
        known,
        cycle,
        run,
        teeth_ok,
        correct,
    };
    (measured, tracer)
}

impl Measured {
    fn share(&self) -> Share {
        let r = &self.run;
        Share {
            setup_s: self.setup_s.clone(),
            setup_cal_s: self.setup_cal_s.clone(),
            op_ns: r.op_ns.iter().map(|&n| n as f64).collect(),
            op_cal_ns: r.op_cal_ns.clone(),
            work: r.op_work.iter().sum(),
            kernel_ns: r.calibration.kernel_ns.clone(),
            ticks: summarise(&r.ticks, stats::MODEL_TAIL_CAP),
            ticks_mean: mean(&r.ticks),
            peak_rss_mb: peak_rss_mb(),
            tally: r.tally,
            correct: self.correct,
            teeth_ok: self.teeth_ok,
            digest: r.digest.hex(),
            known: self.known.clone(),
            cycle: self.cycle,
        }
    }
}

/// An untraced run: [`PROCESSES`] child processes of this program, one
/// after the other, each set up afresh and measuring an equal part of
/// `--seconds` on the same inputs; their samples are pooled.
fn untraced(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("benchmark: cannot find its own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut shares = Vec::new();
    for _ in 0..PROCESSES {
        let out = std::process::Command::new(&exe)
            .args(["--workload", &args.workload])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &(args.seconds / PROCESSES as f64).to_string()])
            .args(["--trace", "0", "--child", "1"])
            .stderr(std::process::Stdio::inherit())
            .output();
        match out.map(|o| Share::parse(&String::from_utf8_lossy(&o.stdout))) {
            Ok(Ok(share)) => shares.push(share),
            Ok(Err(e)) => {
                eprintln!("benchmark: a measuring process printed no result: {e}");
                return ExitCode::FAILURE;
            }
            Err(e) => {
                eprintln!("benchmark: cannot start a measuring process: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    let first = &shares[0];
    // Every process ran the same inputs, so their outputs must agree.
    let agree = shares
        .iter()
        .all(|s| s.digest == first.digest && s.known == first.known);
    let correct = agree && shares.iter().all(|s| s.correct);
    let pool = |f: fn(&Share) -> &Vec<f64>| -> Vec<f64> {
        shares.iter().flat_map(|s| f(s).iter().copied()).collect()
    };
    let (mut setup_s, mut setup_cal_s) = (pool(|s| &s.setup_s), pool(|s| &s.setup_cal_s));
    let (op_ns, op_cal_ns) = (pool(|s| &s.op_ns), pool(|s| &s.op_cal_ns));
    let mut kernel_ns = pool(|s| &s.kernel_ns);
    let mut rss: Vec<f64> = shares.iter().map(|s| s.peak_rss_mb).collect();
    let mut tally = Tally::default();
    for s in &shares {
        tally.record(s.tally.attempted, s.tally.failed);
    }
    let op = summarise_f64(&op_cal_ns, stats::HOST_TAIL_CAP);
    let wall = summarise_f64(&op_ns, stats::HOST_TAIL_CAP);
    let busy_s = op_cal_ns.iter().sum::<f64>().max(1.0) / 1e9;

    let mut m = Metrics::default();
    m.put("setup_s", median(&mut setup_cal_s), "s");
    m.put("peak_rss_mb", median(&mut rss), "MiB");
    m.put("ok_ratio", tally.ok_ratio(), "ratio");
    m.put(
        "throughput_per_s",
        shares.iter().map(|s| s.work).sum::<f64>() / busy_s,
        "1/s",
    );
    m.put("op_ms_p50", op.p50 / 1e6, "ms");
    m.put("op_ms_tail", op.tail / 1e6, "ms");
    m.put("model_ticks_mean", first.ticks_mean, "ticks");
    m.put("model_ticks_tail", first.ticks.tail, "ticks");
    let notes = vec![
        ("processes", PROCESSES.to_string()),
        ("outputs_agree", agree.to_string()),
        ("wall_setup_s", median(&mut setup_s).to_string()),
        ("wall_op_ms_p50", (wall.p50 / 1e6).to_string()),
        ("wall_op_ms_tail", (wall.tail / 1e6).to_string()),
        ("kernel_us_p50", (median(&mut kernel_ns) / 1e3).to_string()),
        ("kernel_timings", kernel_ns.len().to_string()),
        ("op_samples", op.n.to_string()),
        ("op_tail_permille", op.tail_permille.to_string()),
        ("tick_samples", first.ticks.n.to_string()),
        ("tick_tail_permille", first.ticks.tail_permille.to_string()),
        ("digest_cycle_ops", first.cycle.to_string()),
        (
            "teeth_dropped_failover_caught",
            shares.iter().all(|s| s.teeth_ok).to_string(),
        ),
    ];
    let digest = first.digest.clone();
    let known = first.known.clone();
    finish(args, tally, &digest, &known, &m, &notes, correct)
}

/// A traced run: one process, measuring with tracing on for alternate
/// blocks of ops, then the ledger sections.
fn traced(args: &Args, process_start: Wall) -> ExitCode {
    let (measured, tracer) = measure(args, process_start, 1);
    let result = &measured.run;
    let mut m = Metrics::default();
    let mut notes = result.notes.clone();
    let verify_inputs = verify::Inputs::new(args.seed, verify::Scale::FULL, nproc());
    verify::ledger(&verify_inputs, &mut m);
    let mut ledger_ok = true;
    for section in [fleet::steady_ledger, fleet::chaos_ledger] {
        if let Err(e) = section(args.seed, &mut m) {
            eprintln!("benchmark: {e}");
            ledger_ok = false;
        }
    }
    admission::ledger(args.seed, &mut m);
    let (shares, unattributed) = tracer.shares();
    for (layer, share) in shares {
        m.put(&format!("{layer}.share"), share, "ratio");
    }
    m.put("ledger.unattributed_share", unattributed, "ratio");
    let (mut traced, mut plain): (Vec<f64>, Vec<f64>) = (
        result.traced_op_ns.iter().map(|&n| n as f64).collect(),
        result.op_ns.iter().map(|&n| n as f64).collect(),
    );
    m.put(
        "ledger.overhead_ratio",
        median(&mut traced) / median(&mut plain),
        "ratio",
    );
    let workload = &args.workload;
    let path = std::path::PathBuf::from(format!(".bench_out/trace-{workload}-{}.json", args.seed));
    match tracer.write_chrome(&path) {
        Ok(events) => m.put("ledger.trace_events", events as f64, "count"),
        Err(e) => {
            eprintln!("benchmark: trace export failed: {e}");
            ledger_ok = false;
        }
    }
    notes.push(("trace_file", path.display().to_string()));
    notes.push(("spans_dropped", tracer.dropped().to_string()));
    notes.push(("ledger_ok", ledger_ok.to_string()));
    notes.push(("digest_cycle_ops", measured.cycle.to_string()));
    notes.push((
        "teeth_dropped_failover_caught",
        measured.teeth_ok.to_string(),
    ));
    finish(
        args,
        result.tally,
        &result.digest.hex(),
        &measured.known,
        &m,
        &notes,
        measured.correct && ledger_ok,
    )
}

fn exit_code(correct: bool) -> ExitCode {
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn finish(
    args: &Args,
    tally: Tally,
    digest: &str,
    known: &str,
    m: &Metrics,
    notes: &[(&'static str, String)],
    correct: bool,
) -> ExitCode {
    let threads = if args.workload == "verify-config" {
        nproc()
    } else {
        1
    };
    let mut prov = format!(
        "{{\"provenance\": {{\"workload\": \"{}\", \"seed\": {}, \"held_out_seed\": {HELD_OUT_SEED}, \
         \"seconds\": {}, \"trace\": {}, \"nproc\": {}, \"threads_used\": {threads}, \"rustc\": \"{}\", \
         \"profile\": \"{}\", \"git_commit\": \"{}\", \"digest\": \"{digest}\", \"known_answer\": \"{known}\"",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        nproc(),
        env!("BENCH_RUSTC_VERSION"),
        env!("BENCH_PROFILE"),
        git_commit(),
    );
    for (k, v) in notes {
        let _ = write!(prov, ", \"{k}\": \"{v}\"");
    }
    prov.push_str("}}");
    println!("{prov}");
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        tally.attempted.max(1),
        tally.failed,
        m.json()
    );
    exit_code(correct)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_answers_are_stable_and_recorded() {
        for (workload, recorded) in KNOWN_DIGESTS {
            let first = known_answer(workload);
            assert_eq!(
                first,
                known_answer(workload),
                "{workload} digest is not deterministic"
            );
            assert_eq!(first, recorded, "{workload} known answer changed");
        }
    }
}
