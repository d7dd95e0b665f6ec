//! The repository benchmark: three workloads against the release
//! binary, end-to-end metrics from untraced runs, and a traced re-drive
//! that times each layer from outside the program. See `README.md`.
//!
//! ```text
//! perfbench --bin PATH --workload sniff_batch|serve_stream|serve_explain
//!           --seed N --seconds S --trace 0|1
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}` — with `--trace 0` the
//! end-to-end metrics, with `--trace 1` the per-layer ones.

mod layers;
mod proc;
mod serve;
mod sniff;

use std::path::{Path, PathBuf};
use std::time::Instant;

use layers::Layers;
use ph_exec::ExecConfig;
use ph_store::Manifest;

/// The benchmark process runs under the same counting allocator as the
/// system binary, so traced re-drives allocate at the binary's cost.
#[global_allocator]
static ALLOC: ph_prof::CountingAllocator = ph_prof::CountingAllocator::new();

/// Worker threads for every stage: the host's two cores, spelled out so
/// the numbers do not move when a stage starts honouring `--threads`.
pub const THREADS: usize = 2;

/// The manifest every workload shares; only the seed varies.
pub fn manifest(seed: u64, hours: u64) -> Manifest {
    Manifest {
        sim_seed: seed,
        organic: 3_000,
        campaigns: 8,
        per_campaign: 20,
        runner_seed: seed,
        gt_hours: 30,
        hours,
        buffer_capacity: ph_twitter_sim::api::DEFAULT_QUEUE_CAPACITY as u64,
        taste_flip: ph_store::manifest::NO_TASTE_FLIP,
    }
}

/// The CLI arguments that describe `manifest` (the binary's defaults
/// cover per-campaign size, buffer capacity and taste flip).
pub fn manifest_args(m: &Manifest) -> Vec<String> {
    [
        "--seed".to_string(),
        m.sim_seed.to_string(),
        "--organic".to_string(),
        m.organic.to_string(),
        "--campaigns".to_string(),
        m.campaigns.to_string(),
        "--gt-hours".to_string(),
        m.gt_hours.to_string(),
        "--hours".to_string(),
        m.hours.to_string(),
        "--threads".to_string(),
        THREADS.to_string(),
    ]
    .into()
}

/// The execution configuration matching `--threads THREADS`.
pub fn exec() -> ExecConfig {
    ExecConfig::with_threads(THREADS)
}

/// Linear-interpolated `p`-quantile (0 for an empty slice).
pub fn quantile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = p * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// What one workload run measured and checked.
#[derive(Default)]
pub struct Outcome {
    /// Operations attempted (tweets sent or verdicts expected).
    pub attempted: u64,
    /// Operations failed: shed tweets, missing or extra verdicts, or
    /// everything when the system process exits non-zero.
    pub failed: u64,
    /// Failed output checks, one line each.
    pub problems: Vec<String>,
    /// End-to-end metric values by name.
    pub e2e: Vec<(&'static str, f64)>,
    /// Per-layer times and counts of the traced re-drive.
    pub layers: Layers,
    /// The system process's CPU seconds.
    pub cpu_s: f64,
    /// 99th percentile of how late the open-loop generator sent frames.
    pub gen_late_p99_ms: f64,
    /// Traced re-drive wall clock and the untraced wall it is compared
    /// against, when the run was traced.
    pub traced: Option<(f64, f64)>,
    /// Extra human-readable lines for the report.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Records a failed check.
    pub fn problem(&mut self, what: String) {
        self.problems.push(what);
    }
}

/// End-to-end metrics: name, unit.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("verdict_tps", "1/s"),
    ("lag_p50_ms", "ms"),
    ("lag_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("precision", "ratio"),
    ("recall", "ratio"),
];

/// Layers timed by the re-drives, reported as `<name>_s` totals.
const LAYER_TOTALS: &[&str] = &[
    "sim.build",
    "monitor.gt_run",
    "label.suspended",
    "label.clustering",
    "label.rules",
    "label.manual",
    "features.training",
    "ml.train",
    "monitor.sniff_run",
    "store.read",
    "detect.classify_batch",
    "wire.decode",
    "serve.queue",
    "monitor.begin_hour",
    "sim.restamp",
    "monitor.finish_hour",
    "detect.classify_hour",
    "serve.verdict_write",
    "store.append",
    "store.checkpoint",
    "observe.explanations",
    "observe.drift_finalize",
    "store.write_explain",
    "store.write_drift",
    "store.write_telemetry",
    "serve.drain",
];

/// Hourly calls, additionally reported as `<name>_p50_ms` / `_p90_ms`.
const LAYER_HOURLY: &[&str] = &[
    "wire.decode",
    "monitor.begin_hour",
    "monitor.finish_hour",
    "detect.classify_hour",
    "serve.verdict_write",
    "store.append",
    "store.checkpoint",
];

/// Counts and ratios recorded by the re-drives: name, unit.
const LAYER_VALUES: &[(&str, &str)] = &[
    ("label.yield", "ratio"),
    ("features.rows", "count"),
    ("monitor.collect_ratio", "ratio"),
    ("serve.verdict_bytes", "bytes"),
    ("store.bytes", "bytes"),
    ("observe.retained", "count"),
];

/// Layers whose sum is the set-up the end-to-end `setup_s` measures.
pub const SETUP_LAYERS: &[&str] = &[
    "sim.build",
    "monitor.gt_run",
    "label.suspended",
    "label.clustering",
    "label.rules",
    "label.manual",
    "features.training",
    "ml.train",
];

fn per_layer(out: &Outcome, host_probe_s: f64) -> Vec<(String, f64, &'static str)> {
    let l = &out.layers;
    let mut metrics = Vec::new();
    for name in LAYER_TOTALS {
        metrics.push((format!("{name}_s"), l.total(name), "s"));
    }
    for name in LAYER_HOURLY {
        metrics.push((
            format!("{name}_p50_ms"),
            l.hour_quantile_ms(name, 0.5),
            "ms",
        ));
        metrics.push((
            format!("{name}_p90_ms"),
            l.hour_quantile_ms(name, 0.9),
            "ms",
        ));
    }
    for (name, unit) in LAYER_VALUES {
        metrics.push((name.to_string(), l.value(name), unit));
    }
    let (traced, untraced) = out.traced.unwrap_or((0.0, 0.0));
    let residual = if out.traced.is_some() {
        traced - l.busy_s()
    } else {
        0.0
    };
    let overhead = if untraced > 0.0 {
        traced / untraced - 1.0
    } else {
        0.0
    };
    metrics.push(("proc.cpu_s".to_string(), out.cpu_s, "s"));
    metrics.push((
        "harness.gen_late_p99_ms".to_string(),
        out.gen_late_p99_ms,
        "ms",
    ));
    metrics.push(("harness.host_probe_s".to_string(), host_probe_s, "s"));
    metrics.push(("trace.residual_s".to_string(), residual, "s"));
    metrics.push(("trace.overhead_frac".to_string(), overhead, "ratio"));
    metrics
}

/// A fixed single-threaded task timed before each run, so host drift
/// shows next to the figures it would move. Recorded, never used to
/// normalise.
fn host_probe() -> f64 {
    let start = Instant::now();
    let mut engine = layers::engine_for(&manifest(7, 0));
    engine.run_hours(120);
    std::hint::black_box(engine.stats().tweets);
    start.elapsed().as_secs_f64()
}

struct Args {
    bin: PathBuf,
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut bin = None;
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} expects a whole number, got '{value}'"))
        };
        match flag.as_str() {
            "--bin" => bin = Some(PathBuf::from(&value)),
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--trace" => trace = Some(number()? != 0),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        bin: bin.ok_or("--bin is required")?,
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    // The re-drives call library code that logs; keep the harness's own
    // output to the report below.
    ph_telemetry::set_quiet();
    let work = PathBuf::from(".perfbench_work");
    let _ = std::fs::remove_dir_all(&work);
    if let Err(e) = std::fs::create_dir_all(&work) {
        eprintln!("perfbench: cannot create {}: {e}", work.display());
        std::process::exit(1);
    }
    let host_probe_s = host_probe();
    let result = match args.workload.as_str() {
        "sniff_batch" => sniff::run(&args.bin, &work, args.seed, args.seconds, args.trace),
        "serve_stream" => serve::run(&args.bin, &work, args.seed, args.trace, false),
        "serve_explain" => serve::run(&args.bin, &work, args.seed, args.trace, true),
        other => Err(std::io::Error::other(format!("unknown workload '{other}'"))),
    };
    let _ = std::fs::remove_dir_all(&work);
    let out = match result {
        Ok(out) => out,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload);
            std::process::exit(1);
        }
    };
    report(&args, &out, host_probe_s);
}

fn report(args: &Args, out: &Outcome, host_probe_s: f64) {
    let e2e: Vec<(String, f64, &str)> = END_TO_END
        .iter()
        .map(|&(name, unit)| {
            let value = out
                .e2e
                .iter()
                .find(|(n, _)| *n == name)
                .map_or(f64::NAN, |&(_, v)| v);
            (name.to_string(), value, unit)
        })
        .collect();
    let metrics = if args.trace {
        per_layer(out, host_probe_s)
    } else {
        e2e.clone()
    };
    let correct = out.problems.is_empty()
        && out.failed == 0
        && metrics.iter().all(|(_, value, _)| value.is_finite());
    let cores = std::thread::available_parallelism().map_or(0, usize::from);
    println!(
        "workload {} seed {} trace {} on {cores} cores",
        args.workload, args.seed, args.trace as u8
    );
    for (name, value, unit) in &e2e {
        println!("  {name:<14} {value:>14.4} {unit}");
    }
    let failed_frac = out.failed as f64 / out.attempted.max(1) as f64;
    println!("  {:<14} {failed_frac:>14.4} ratio", "failed_frac");
    println!("  {:<14} {host_probe_s:>14.4} s", "host_probe_s");
    for note in &out.notes {
        println!("  {note}");
    }
    for problem in &out.problems {
        println!("  CHECK FAILED: {problem}");
    }
    if args.trace {
        for (name, value, unit) in &metrics {
            println!("  {name:<32} {value:>14.6} {unit}");
        }
    }
    // A run that fails a check records no timings.
    let body: Vec<String> = metrics
        .iter()
        .filter(|_| correct)
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted.max(1),
        out.failed,
        body.join(", ")
    );
}

/// Total size of the regular files in `dir` whose names start with one
/// of `prefixes`.
pub fn dir_bytes(dir: &Path, prefixes: &[&str]) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .filter_map(Result::ok)
        .filter(|e| {
            let name = e.file_name();
            let name = name.to_string_lossy();
            prefixes.iter().any(|p| name.starts_with(p))
        })
        .filter_map(|e| e.metadata().ok())
        .map(|m| m.len())
        .sum()
}
