//! `rtlflow-benchmark`: the repo benchmark behind `BENCHMARK.json`.
//!
//! `--workload <name> --seed <n> --seconds <s> --trace <0|1>` runs one
//! workload and prints every metric as `workload name value unit`, then
//! one JSON object as the last line of stdout. With `--trace 0` the JSON
//! holds the end-to-end metrics, measured with no probe or span in the
//! path; with `--trace 1` it holds the per-layer metrics of a traced run.
//!
//! Every timing metric is the lower decile of per-job (or per-bring-up)
//! samples; `README.md` shows why that estimator and not the mean.

mod local;
mod spans;
mod stats;
mod trace;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use desim::Json;

use trace::Traced;
use workloads::Workload;

/// Jobs run before timing starts; their median sets the watchdog limit.
const WARM_UP_JOBS: usize = 10;
/// No end-to-end metric is computed from fewer timed jobs…
const MIN_JOBS: usize = 400;
/// …or fewer cold bring-ups.
const MIN_SETUPS: usize = 50;
/// Bring-ups are spread evenly over the run at this many per run.
const SETUPS_PER_RUN: f64 = 64.0;
/// A job slower than this many warm-up medians is a hang, not a sample.
const WATCHDOG_FACTOR: f64 = 20.0;
/// …but never less than this, so a host stall does not read as a hang.
const WATCHDOG_FLOOR: Duration = Duration::from_secs(5);
/// A run that cannot reach its minimum sample counts gives up here (the
/// driver's cap on one run is 180 s).
const HARD_CAP: Duration = Duration::from_secs(150);
/// Share of a traced run spent untraced first, for `run.trace_overhead`.
const UNTRACED_SHARE: f64 = 1.0 / 3.0;
/// Timelines and per-run temporary directories go here, next to the
/// package's sources, wherever the run was started from.
const OUT_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/out");

const END_TO_END: [(&str, &str); 4] = [
    ("stimulus_cycles_per_s", "1/s"),
    ("job_latency_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Every per-layer metric of `BENCHMARK.json`, in its order. A layer a
/// workload does not exercise reports 0.
const PER_LAYER: [(&str, &str); 49] = [
    ("rtlir.elaborate_s", "s"),
    ("rtlir.graph_build_s", "s"),
    ("transpile.partition_s", "s"),
    ("transpile.program_build_s", "s"),
    ("cudasim.instantiate_s", "s"),
    ("cluster.bringup_s", "s"),
    ("cluster.first_batch_s", "s"),
    ("serve.start_s", "s"),
    ("serve.first_job_s", "s"),
    ("stimulus.fill_s", "s"),
    ("stimulus.fill_calls", "count"),
    ("transpile.poke_s", "s"),
    ("transpile.poke_calls", "count"),
    ("pipeline.set_inputs_share", "ratio"),
    ("cudasim.exec_s", "s"),
    ("cudasim.run_cycle_calls", "count"),
    ("cudasim.ops_per_cycle", "count"),
    ("cudasim.device_bytes_per_stimulus", "B"),
    ("transpile.digest_s", "s"),
    ("pipeline.alloc_s", "s"),
    ("pipeline.model_s", "s"),
    ("pipeline.self_s", "s"),
    ("pipeline.modeled_makespan_ns", "ns"),
    ("cluster.materialize_s", "s"),
    ("cluster.encode_s", "s"),
    ("cluster.decode_s", "s"),
    ("cluster.worker_busy_s", "s"),
    ("cluster.local_equiv_s", "s"),
    ("cluster.wire_overhead_s", "s"),
    ("cluster.dispatch_bytes_per_stimulus_cycle", "B"),
    ("cluster.dispatches", "count"),
    ("cluster.requeues", "count"),
    ("serve.submit_s", "s"),
    ("serve.queue_wait_p50_ms", "ms"),
    ("serve.batch_stimulus_mean", "count"),
    ("serve.coalescing_efficiency", "ratio"),
    ("serve.cache_hit_rate", "ratio"),
    ("serve.rejections", "count"),
    ("serve.local_equiv_s", "s"),
    ("serve.overhead_ms", "ms"),
    ("run.jobs", "count"),
    ("run.job_wall_p50_ms", "ms"),
    ("run.job_wall_p99_ms", "ms"),
    ("run.sustained_stimulus_cycles_per_s", "1/s"),
    ("run.interference_ratio", "ratio"),
    ("run.setup_samples", "count"),
    ("run.trace_coverage", "ratio"),
    ("run.trace_overhead", "ratio"),
    ("run.digest_checksum", "count"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 30.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !workloads::NAMES.contains(&args.workload.as_str()) {
        return Err(format!("--workload must be one of {:?}", workloads::NAMES));
    }
    if !(args.seconds > 0.0 && args.seconds <= 120.0) {
        return Err("--seconds must be in (0, 120]".into());
    }
    Ok(args)
}

/// Fails the run when one operation outlives its limit: cluster waits
/// have no deadline of their own, so a lost frame would otherwise hang
/// the benchmark until the driver kills it.
struct Watchdog {
    epoch: Instant,
    /// Nanoseconds after `epoch` at which the armed operation is
    /// declared hung; 0 while nothing is armed.
    deadline_ns: AtomicU64,
    stop: AtomicBool,
}

impl Watchdog {
    fn spawn(tmp: PathBuf) -> (Arc<Watchdog>, std::thread::JoinHandle<()>) {
        let dog = Arc::new(Watchdog {
            epoch: Instant::now(),
            deadline_ns: AtomicU64::new(0),
            stop: AtomicBool::new(false),
        });
        let watch = Arc::clone(&dog);
        let handle = std::thread::spawn(move || {
            while !watch.stop.load(Ordering::SeqCst) {
                std::thread::sleep(Duration::from_millis(50));
                let deadline = watch.deadline_ns.load(Ordering::SeqCst);
                if deadline != 0 && watch.epoch.elapsed().as_nanos() as u64 > deadline {
                    eprintln!("watchdog: an operation exceeded its limit; failing the run");
                    let _ = std::fs::remove_dir_all(&tmp);
                    print_result(false, 1, 1, &Metrics::new());
                    std::process::exit(3);
                }
            }
        });
        (dog, handle)
    }

    fn arm(&self, limit: Duration) {
        let at = self.epoch.elapsed() + limit;
        self.deadline_ns
            .store(at.as_nanos() as u64, Ordering::SeqCst);
    }

    fn disarm(&self) {
        self.deadline_ns.store(0, Ordering::SeqCst);
    }
}

/// Samples of one untraced measuring loop.
#[derive(Default)]
struct Run {
    /// Wall seconds of each timed unit of work.
    walls: Vec<f64>,
    /// Latency seconds of each job (one per unit, eight in a burst).
    latencies: Vec<f64>,
    /// Seconds of each cold bring-up.
    setups: Vec<f64>,
}

struct Limits {
    job: Duration,
    setup: Duration,
}

/// Warm up, then derive the watchdog limits from what a job and a
/// bring-up take on this host.
fn warm_up(w: &mut dyn Workload, dog: &Watchdog) -> Result<Limits, String> {
    let limit = |median: f64| Duration::from_secs_f64(median * WATCHDOG_FACTOR).max(WATCHDOG_FLOOR);
    dog.arm(Duration::from_secs(60));
    let mut walls = Vec::with_capacity(WARM_UP_JOBS);
    let mut sink = Vec::new();
    for i in 0..WARM_UP_JOBS {
        walls.push(w.job(i, &mut sink)?.as_secs_f64());
    }
    let setup = w.bring_up(None)?.as_secs_f64();
    dog.disarm();
    Ok(Limits {
        job: limit(stats::p50(&walls)),
        setup: limit(setup),
    })
}

enum Op {
    Job(usize),
    BringUp,
}

/// Operations attempted and failed, and how many of each kind succeeded.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    jobs: usize,
    setups: usize,
}

/// The closed loop: jobs back to back, with one cold bring-up every
/// `seconds / SETUPS_PER_RUN` between two of them, never concurrent with
/// one. Runs for `seconds`, and on until the minimum counts are met.
/// `step` performs the operation and keeps its own samples.
fn closed_loop(
    dog: &Watchdog,
    limits: &Limits,
    seconds: f64,
    min_jobs: usize,
    min_setups: usize,
    mut step: impl FnMut(Op) -> Result<(), String>,
) -> Tally {
    let mut tally = Tally::default();
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let every = Duration::from_secs_f64(seconds / SETUPS_PER_RUN);
    let mut next_setup = start + every / 2;
    let mut next_job = WARM_UP_JOBS;
    let mut guarded = |op: Op, limit: Duration, what: &str, tally: &mut Tally| {
        tally.attempted += 1;
        dog.arm(limit);
        let result = step(op);
        dog.disarm();
        if let Err(e) = &result {
            tally.failed += 1;
            if tally.failed <= 5 {
                eprintln!("{what} failed: {e}");
            }
        }
        result.is_ok()
    };
    loop {
        let now = Instant::now();
        let enough = tally.jobs >= min_jobs && tally.setups >= min_setups;
        if (now >= deadline && enough) || now >= start + HARD_CAP {
            return tally;
        }
        let ok = guarded(Op::Job(next_job), limits.job, "job", &mut tally);
        tally.jobs += usize::from(ok);
        next_job += 1;
        if Instant::now() >= next_setup {
            next_setup += every;
            let ok = guarded(Op::BringUp, limits.setup, "bring-up", &mut tally);
            tally.setups += usize::from(ok);
        }
    }
}

/// `VmHWM` of this process, in MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

/// Metric name → (value, unit), in print order.
type Metrics = Vec<(&'static str, f64, &'static str)>;

fn run_diagnostics(run: &Run, work: u64) -> Metrics {
    let p10 = stats::p10(&run.walls);
    let p50 = stats::p50(&run.walls);
    let total: f64 = run.walls.iter().sum();
    vec![
        ("run.jobs", run.walls.len() as f64, "count"),
        ("run.job_wall_p50_ms", p50 * 1e3, "ms"),
        ("run.job_wall_p99_ms", stats::p_high(&run.walls) * 1e3, "ms"),
        (
            "run.sustained_stimulus_cycles_per_s",
            run.walls.len() as f64 * work as f64 / total,
            "1/s",
        ),
        ("run.interference_ratio", p50 / p10, "ratio"),
        ("run.setup_samples", run.setups.len() as f64, "count"),
    ]
}

fn print_lines(workload: &str, metrics: &Metrics) {
    for (name, value, unit) in metrics {
        println!("{workload} {name} {value} {unit}");
    }
}

fn print_result(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) {
    let mut obj = Json::obj();
    for (name, value, unit) in metrics {
        obj = obj.field(
            name,
            Json::obj().field("value", *value).field("unit", *unit),
        );
    }
    println!(
        "{}",
        Json::obj()
            .field("correct", correct)
            .field("attempted", attempted.max(1))
            .field("failed", failed)
            .field("metrics", obj)
    );
}

/// The low 48 bits of the digest fold: exact in a JSON number.
fn checksum48(checksum: u64) -> f64 {
    (checksum & ((1 << 48) - 1)) as f64
}

fn run(args: &Args, dog: &Watchdog) -> Result<ExitCode, String> {
    dog.arm(Duration::from_secs(120));
    let mut w = workloads::build(&args.workload, args.seed)?;
    dog.disarm();
    let limits = warm_up(w.as_mut(), dog)?;
    if args.trace {
        run_traced(args, dog, w, &limits)
    } else {
        run_untraced(args, dog, w, &limits)
    }
}

/// What repeats exactly for one (workload, seed), traced or not.
fn exact_counts(w: &dyn Workload) -> Metrics {
    let local = w.local();
    vec![
        (
            "pipeline.modeled_makespan_ns",
            local.modeled_makespan_ns as f64,
            "ns",
        ),
        ("run.digest_checksum", checksum48(local.checksum), "count"),
    ]
}

fn untraced_loop(
    w: &mut dyn Workload,
    dog: &Watchdog,
    limits: &Limits,
    seconds: f64,
    min_jobs: usize,
    min_setups: usize,
) -> (Run, Tally) {
    let mut run = Run::default();
    let tally = closed_loop(dog, limits, seconds, min_jobs, min_setups, |op| match op {
        Op::Job(i) => {
            let wall = w.job(i, &mut run.latencies)?;
            run.walls.push(wall.as_secs_f64());
            Ok(())
        }
        Op::BringUp => {
            let wall = w.bring_up(None)?;
            run.setups.push(wall.as_secs_f64());
            Ok(())
        }
    });
    (run, tally)
}

/// `--trace 0`: the end-to-end metrics, nothing else in the path.
fn run_untraced(
    args: &Args,
    dog: &Watchdog,
    mut w: Box<dyn Workload>,
    limits: &Limits,
) -> Result<ExitCode, String> {
    let name = args.workload.as_str();
    let work = w.local().work();
    let exact = exact_counts(w.as_ref());
    let (run, mut tally) =
        untraced_loop(w.as_mut(), dog, limits, args.seconds, MIN_JOBS, MIN_SETUPS);
    let mut faults = Traced::new();
    if let Err(e) = w.finish(&mut faults) {
        eprintln!("teardown: {e}");
        tally.failed += 1;
    }
    if tally.jobs < MIN_JOBS || tally.setups < MIN_SETUPS {
        return Err(format!(
            "only {} jobs and {} bring-ups succeeded within {HARD_CAP:?}; \
             need {MIN_JOBS} and {MIN_SETUPS}",
            tally.jobs, tally.setups
        ));
    }
    let values = [
        work as f64 / stats::p10(&run.walls),
        stats::p10(&run.latencies) * 1e3,
        stats::p10(&run.setups),
        peak_rss_mb()?,
    ];
    let e2e: Metrics = END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), value)| (name, value, unit))
        .collect();
    print_lines(name, &e2e);
    print_lines(name, &run_diagnostics(&run, work));
    print_lines(name, &exact);
    let fault = |key: &'static str| (key, faults.get_count(key) as f64, "count");
    print_lines(
        name,
        &vec![fault("cluster.requeues"), fault("serve.rejections")],
    );
    print_result(tally.failed == 0, tally.attempted, tally.failed, &e2e);
    Ok(ExitCode::SUCCESS)
}

/// `--trace 1`: a third of the time exactly as `--trace 0` measures, then
/// the same workload with probes and spans.
fn run_traced(
    args: &Args,
    dog: &Watchdog,
    mut w: Box<dyn Workload>,
    limits: &Limits,
) -> Result<ExitCode, String> {
    let name = args.workload.as_str();
    let work = w.local().work();
    let exact = exact_counts(w.as_ref());
    let (untraced, first) = untraced_loop(
        w.as_mut(),
        dog,
        limits,
        args.seconds * UNTRACED_SHARE,
        WARM_UP_JOBS,
        1,
    );

    let mut t = Traced::new();
    w.local().static_counts(&mut t);
    // A traced iteration also runs the job's local equivalents, and a
    // traced bring-up the engine-build stages by hand.
    let traced_limits = Limits {
        job: limits.job * 8,
        setup: limits.setup * 2,
    };
    let second = closed_loop(
        dog,
        &traced_limits,
        args.seconds * (1.0 - UNTRACED_SHARE),
        WARM_UP_JOBS,
        1,
        |op| match op {
            Op::Job(i) => w.traced_job(i, &mut t),
            Op::BringUp => w.bring_up(Some(&mut t)).map(drop),
        },
    );
    let attempted = first.attempted + second.attempted;
    let mut failed = first.failed + second.failed;
    let min_coverage = w.min_coverage();
    let dominant = w.dominant();
    if let Err(e) = w.finish(&mut t) {
        eprintln!("teardown: {e}");
        failed += 1;
    }
    if untraced.walls.is_empty() || t.series("traced.job_wall_s").is_empty() {
        return Err("no job succeeded; nothing to report".into());
    }

    let timeline = Path::new(OUT_DIR).join(format!("{name}.seed{}.trace.json", args.seed));
    t.rec
        .write_chrome(&timeline)
        .map_err(|e| format!("{}: {e}", timeline.display()))?;

    let coverage = t.p50("run.trace_coverage");
    let overhead = t.p10("traced.job_wall_s") / stats::p10(&untraced.walls);
    let diagnostics = run_diagnostics(&untraced, work);
    let lookup = |from: &Metrics, metric: &str| {
        from.iter()
            .find(|m| m.0 == metric)
            .expect("metric listed in PER_LAYER")
            .1
    };
    let layers: Metrics = PER_LAYER
        .iter()
        .map(|&(metric, unit)| {
            let value = match metric {
                "run.trace_coverage" => coverage,
                "run.trace_overhead" => overhead,
                "run.digest_checksum" | "pipeline.modeled_makespan_ns" => lookup(&exact, metric),
                // A share, and a difference of two walls: the lower decile
                // of either is not the share or difference of lower deciles.
                "pipeline.set_inputs_share" | "pipeline.self_s" => t.p50(metric),
                "serve.queue_wait_p50_ms" => t.p50("serve.queue_wait_ms"),
                "serve.batch_stimulus_mean" => t.mean("serve.batch_stimulus"),
                "serve.coalescing_efficiency" | "serve.cache_hit_rate" => t.mean(metric),
                "cluster.dispatch_bytes_per_stimulus_cycle" => {
                    t.get_count("cluster.tx_bytes_per_job") as f64 / work as f64
                }
                m if m.starts_with("run.") => lookup(&diagnostics, m),
                m if unit == "count" || unit == "B" => t.get_count(m) as f64,
                m => t.p10(m),
            };
            (metric, value, unit)
        })
        .collect();
    print_lines(name, &layers);
    let share = t.p50(dominant.series);
    print_result(failed == 0, attempted, failed, &layers);
    eprintln!("{name}: timeline written to {}", timeline.display());
    eprintln!(
        "{name}: {} is {share:.3}; the workload was sized for >= {}{}",
        dominant.series,
        dominant.floor,
        if share < dominant.floor { ", NOT MET" } else { "" }
    );

    // Self-check: the trace must account for the job, and a count must
    // be a property of (workload, seed), not of the job it was read on.
    let mut broken = Vec::new();
    if coverage < min_coverage {
        broken.push(format!("run.trace_coverage {coverage:.4} < {min_coverage}"));
    }
    let (real, unit) = (
        t.get_count("stimulus.fill_calls"),
        t.get_count("unit.fill_calls"),
    );
    if real != unit {
        broken.push(format!(
            "the job made {real} fill calls, its hand-driven unit {unit}"
        ));
    }
    broken.extend(
        t.unstable
            .iter()
            .map(|c| format!("count changed between jobs: {c}")),
    );
    for b in &broken {
        eprintln!("trace self-check: {b}");
    }
    Ok(if broken.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(4)
    })
}

/// Everything a run writes besides the timeline lives here and is
/// removed at exit; the tuned-artifact cache is pointed at an empty
/// directory inside it so no artifact in `~/.cache/rtlflow/tuned` can
/// change the engine between runs.
fn hermetic_dir() -> Result<PathBuf, String> {
    let tmp = Path::new(OUT_DIR).join(format!("tmp-{}", std::process::id()));
    let cache = tmp.join("tuned");
    std::fs::create_dir_all(&cache).map_err(|e| format!("{}: {e}", cache.display()))?;
    std::env::set_var("RTLFLOW_TUNE_CACHE", &cache);
    Ok(tmp)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("rtlflow-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    // Before any thread exists: `set_var` is not thread-safe.
    let tmp = match hermetic_dir() {
        Ok(t) => t,
        Err(e) => {
            eprintln!("rtlflow-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    let (dog, handle) = Watchdog::spawn(tmp.clone());
    let result = run(&args, &dog);
    dog.stop.store(true, Ordering::SeqCst);
    let _ = handle.join();
    let _ = std::fs::remove_dir_all(&tmp);
    match result {
        Ok(code) => code,
        Err(e) => {
            eprintln!("rtlflow-benchmark: {e}");
            ExitCode::from(1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` and the tables above must name the same metrics.
    #[test]
    fn metric_tables_match_benchmark_json() {
        let json = include_str!("../../BENCHMARK.json");
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let listed = json.matches("\"unit\":").count();
        assert_eq!(listed, END_TO_END.len() + PER_LAYER.len());
        for w in workloads::NAMES {
            assert!(json.contains(&format!("\"name\": \"{w}\"")));
        }
    }
}
