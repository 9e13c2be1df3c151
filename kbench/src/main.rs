//! The kboost benchmark: one process per workload, end-to-end metrics
//! from an untraced run, per-layer metrics from a traced one.
//!
//! ```text
//! cargo run --release --offline --manifest-path kbench/Cargo.toml -- \
//!     --workload <solve_pa|churn_trace|serve_churn|tree_dp|all> \
//!     --seed N --seconds S --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. Every output check
//! runs, untimed, on every invocation; a failed check exits with code 1.

mod checks;
mod churn_trace;
mod context;
mod probes;
mod serve_churn;
mod solve_pa;
mod stats;
mod trace;
mod tree_dp;

use std::process::{Command, ExitCode};
use std::time::Instant;

use trace::Tracer;

pub const WORKLOADS: [&str; 4] = ["solve_pa", "churn_trace", "serve_churn", "tree_dp"];

/// The per-layer metrics every workload's traced run reports in its
/// result line (`BENCHMARK.json` lists the same). Figures of layers that
/// only some workloads use are printed on the `layer` lines above it.
const PER_LAYER: [&str; 15] = [
    "graph.gen_s",
    "prr.sample_us",
    "prr.sample_fp_us",
    "prr.ns_per_edge",
    "prr.stored",
    "prr.arena_edges",
    "prr.arena_bytes",
    "prr.absorb_ms",
    "prr.compact_ms",
    "prr.select_ms",
    "rrset.extend_s",
    "rrset.scaling_eff",
    "rrset.mu_select_ms",
    "obs.overhead_frac",
    "trace.unexplained_frac",
];

#[derive(Clone, Debug)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut args = Args {
        workload: "all".into(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad)?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad)?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.workload != "all" && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("unknown workload {}", args.workload));
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

/// One named value with its unit.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

/// What a workload measured and checked.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Output checks: name, instances checked, and the first failure.
    pub checks: Vec<(&'static str, usize, Result<(), String>)>,
    /// Set-up durations, one per instance.
    pub setup_s: Vec<f64>,
    /// Peak resident set of each instance, in MiB.
    pub peak_rss_mb: Vec<f64>,
    /// Latencies of the workload's user-facing operation, in seconds.
    pub op_s: Vec<f64>,
    /// Every end-to-end figure the workload defines, by its own name.
    pub report: Vec<Metric>,
    /// Per-layer figures (traced run only).
    pub layers: Vec<Metric>,
    /// Workload sizes and working-set bytes for the context header.
    pub sizes: Vec<(&'static str, f64)>,
    pub tracer: Option<Tracer>,
}

impl Outcome {
    /// Records one instance's verdict of a named check; the first
    /// failure of a check is kept.
    pub fn check(&mut self, name: &'static str, verdict: Result<(), String>) {
        match self.checks.iter_mut().find(|(n, _, _)| *n == name) {
            Some((_, runs, kept)) => {
                *runs += 1;
                if kept.is_ok() {
                    *kept = verdict;
                }
            }
            None => self.checks.push((name, 1, verdict)),
        }
    }
}

/// The seed of instance `i` of a run (splitmix64 of the run's seed).
pub fn instance_seed(seed: u64, i: u64) -> u64 {
    let mut z = seed.wrapping_add(i.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Runs instances `0, 1, …` of a workload until the measured seconds they
/// report (set-up and operations, not checks) reach `seconds` and at
/// least `min` ran. `one` gets the instance's index and seed and returns
/// its measured seconds, its peak resident set (read with
/// [`context::peak_rss_mb`] before its checks run) and the instance.
/// Each instance is dropped before the next one starts, and then the peak
/// is reset where the kernel allows, so no instance's peak holds another's
/// memory. Returns the peaks and the last instance.
pub fn for_instances<T>(
    args: &Args,
    min: usize,
    mut one: impl FnMut(usize, u64) -> (f64, f64, T),
) -> (Vec<f64>, Option<T>) {
    let (mut spent, mut i) = (0.0, 0);
    let mut peaks = Vec::new();
    let mut last = None;
    while i < min || spent < args.seconds {
        drop(last.take());
        context::reset_peak_rss();
        let (secs, peak, inst) = one(i, instance_seed(args.seed, i as u64));
        spent += secs;
        peaks.push(peak);
        last = Some(inst);
        i += 1;
    }
    (peaks, last)
}

/// Threads an engine may use: two, or fewer on a smaller box.
pub fn engine_threads() -> usize {
    context::available_parallelism().min(2)
}

/// Runs `f` and returns its result with the wall time in seconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64())
}

/// The traced run's ledger: each layer's self time, and the part of the
/// traced wall time (summed over lanes) that no span accounts for.
pub fn ledger(tr: &Tracer) -> Vec<Metric> {
    let mut lanes: Vec<(u32, f64, f64)> = Vec::new();
    for s in &tr.spans {
        match lanes.iter_mut().find(|(l, _, _)| *l == s.lane) {
            Some((_, lo, hi)) => {
                *lo = lo.min(s.start);
                *hi = hi.max(s.end);
            }
            None => lanes.push((s.lane, s.start, s.end)),
        }
    }
    // The main lane is charged from the tracer's start to now.
    let wall: f64 = lanes
        .iter()
        .map(|&(l, lo, hi)| if l == 0 { tr.now() } else { hi - lo })
        .sum();
    let covered = trace::covered_secs(&tr.spans);
    let mut out: Vec<Metric> = trace::self_times(&tr.spans)
        .into_iter()
        .map(|(layer, secs)| metric(format!("self.{layer}_s"), secs, "s"))
        .collect();
    out.push(metric("trace.wall_s", wall, "s"));
    out.push(metric("trace.unexplained_s", wall - covered, "s"));
    out.push(metric(
        "trace.unexplained_frac",
        (wall - covered) / wall,
        "ratio",
    ));
    out
}

/// `graph.gen_s`: the median of the traced pass's graph-generation spans.
pub fn graph_gen(tr: &Tracer) -> Metric {
    let gen: Vec<f64> = tr
        .spans
        .iter()
        .filter(|s| s.layer == "graph")
        .map(|s| s.secs())
        .collect();
    metric("graph.gen_s", stats::median(&gen), "s")
}

/// `obs.overhead_frac`: the traced run's median operation time against
/// the untraced median measured in the same process.
pub fn overhead(traced: &[f64], untraced: &[f64]) -> Metric {
    metric(
        "obs.overhead_frac",
        stats::median(traced) / stats::median(untraced) - 1.0,
        "ratio",
    )
}

fn run_workload(args: &Args) -> Outcome {
    match args.workload.as_str() {
        "solve_pa" => solve_pa::run(args),
        "churn_trace" => churn_trace::run(args),
        "serve_churn" => serve_churn::run(args),
        "tree_dp" => tree_dp::run(args),
        other => unreachable!("workload {other} was validated"),
    }
}

fn json_metrics(metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let v = if m.value.is_finite() { m.value } else { -1.0 };
            format!(
                "\"{}\": {{\"value\": {v:e}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {}}}",
        json_metrics(metrics)
    )
}

/// The end-to-end metrics every workload reports, each a median over the
/// run's instances or operations. The workload's own figures (tails
/// included) are printed by name beside them.
fn end_to_end(out: &Outcome) -> Vec<Metric> {
    vec![
        metric("setup_s", stats::median(&out.setup_s), "s"),
        metric("peak_rss_mb", stats::median(&out.peak_rss_mb), "MB"),
        metric("op_p50_ms", stats::median(&out.op_s) * 1e3, "ms"),
    ]
}

fn run_one(args: &Args) -> ExitCode {
    let mut out = run_workload(args);
    println!(
        "context: {}",
        context::header_json(&args.workload, args.seed, args.trace, &out.sizes)
    );
    for m in &out.report {
        println!("{:<24} {:>14.4} {}", m.name, m.value, m.unit);
    }
    let e2e = end_to_end(&out);
    for m in &e2e {
        println!("{:<24} {:>14.4} {}", m.name, m.value, m.unit);
    }
    if let Some(tracer) = out.tracer.take() {
        for m in &out.layers {
            println!("layer {:<30} {:>14.4} {}", m.name, m.value, m.unit);
        }
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
        let path = format!("{dir}/{}-seed{}.spans.jsonl", args.workload, args.seed);
        match std::fs::create_dir_all(dir)
            .and_then(|_| std::fs::write(&path, trace::to_json_lines(&tracer.spans)))
        {
            Ok(()) => println!("spans written to {path}"),
            Err(e) => eprintln!("could not write {path}: {e}"),
        }
    }
    let mut correct = true;
    for (name, runs, res) in &out.checks {
        match res {
            Ok(()) => println!("check {name}: ok on {runs} instances"),
            Err(why) => {
                correct = false;
                println!("check {name}: FAILED: {why}");
            }
        }
    }
    if out.checks.is_empty() {
        correct = false;
        println!("no output check ran");
    }
    let metrics = if args.trace {
        let mut picked = Vec::new();
        for name in PER_LAYER {
            match out.layers.iter().find(|m| m.name == name) {
                Some(m) => picked.push(m.clone()),
                None => {
                    correct = false;
                    println!("per-layer metric {name} missing");
                }
            }
        }
        picked
    } else {
        e2e
    };
    println!(
        "{}",
        result_line(correct, out.attempted.max(1), out.failed, &metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs every workload, each in its own process so peak RSS is per
/// workload, and passes their reports through.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("cannot locate the benchmark binary: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut ok = true;
    for w in WORKLOADS {
        println!("== {w}");
        let status = Command::new(&exe)
            .args(["--workload", w, "--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .status();
        match status {
            Ok(s) if s.success() => {}
            Ok(s) => {
                ok = false;
                println!("workload {w} failed: {s}");
            }
            Err(e) => {
                ok = false;
                println!("workload {w} did not start: {e}");
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        run_all(&args)
    } else {
        run_one(&args)
    }
}
