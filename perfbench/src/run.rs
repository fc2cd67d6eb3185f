//! One benchmark run: parse the command-line arguments, run the workload,
//! keep a result record, and print the result as the last line.

use std::path::PathBuf;
use std::time::{SystemTime, UNIX_EPOCH};

use crate::meter::Summary;
use crate::metrics::END_TO_END;
use crate::out::{metrics_obj, Metric, Obj};

/// The workload names.
pub const WORKLOADS: [&str; 2] = ["validate-bulk", "session-durable"];

/// Where every run writes, relative to the checkout root: work files
/// (removed after the run) and result records (kept for `compare`).
pub const WORK_ROOT: &str = ".bench_work";

/// The parameters of one run.
pub struct Ctx {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Length of the measured phase.
    pub seconds: f64,
    /// Traced run (per-layer metrics) or not (end-to-end metrics).
    pub trace: bool,
    /// Scale-down for the smoke tests: 1 in a real run.
    pub scale: usize,
    /// This run's private work directory.
    pub work: PathBuf,
    /// Where result records go.
    pub results: PathBuf,
    /// Unique stem for this run's files.
    pub stem: String,
    /// CPUs available to the benchmark before it pins itself to one.
    pub nproc: usize,
}

impl Ctx {
    /// The span file of a traced run.
    pub fn spans_path(&self) -> PathBuf {
        self.results.join(format!("{}.spans.jsonl", self.stem))
    }
}

/// What a workload reports.
pub struct Outcome {
    /// Every correctness gate passed.
    pub correct: bool,
    /// Ops attempted.
    pub attempted: u64,
    /// Ops that failed, were refused or returned wrong output.
    pub failed: u64,
    /// The [`END_TO_END`] metrics, in catalogue order.
    pub end_to_end: Vec<Metric>,
    /// The per-layer metrics (traced runs only).
    pub per_layer: Vec<Metric>,
    /// Input sizes and run conditions.
    pub info: Obj,
    /// Per-layer self times, from the trace (traced runs only).
    pub trace_summary: Option<String>,
}

/// The end-to-end metrics from a run's measured phase, its peak memory
/// and its set-up time.
pub fn e2e(s: &Summary, peak_rss_mb: f64, setup_s: f64) -> Vec<Metric> {
    let values = [
        s.ops_per_s,
        s.latency_p50_ms,
        s.latency_tail_ms,
        s.cpu_ms_per_op,
        peak_rss_mb,
        setup_s,
    ];
    END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), value)| Metric {
            name: name.to_owned(),
            value,
            unit,
        })
        .collect()
}

/// Parsed `--workload W --seed N --seconds S --trace 0|1 [--scale K]`.
/// `--scale K` divides every input size by `K`; only the smoke tests
/// use it.
pub fn parse_args(args: &[String]) -> Result<(String, u64, f64, bool, usize), String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut scale = 1;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0)
                        .ok_or_else(|| format!("bad seconds {value}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                })
            }
            "--scale" => {
                scale = value
                    .parse::<usize>()
                    .ok()
                    .filter(|k| (1..=100).contains(k))
                    .ok_or_else(|| format!("bad scale {value}"))?
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload} (expected one of {})",
            WORKLOADS.join(", ")
        ));
    }
    Ok((
        workload,
        seed.ok_or("--seed is required")?,
        seconds.ok_or("--seconds is required")?,
        trace.unwrap_or(false),
        scale,
    ))
}

/// Builds the run context under `root` (the checkout root in a real
/// run, a temporary directory in the smoke tests).
pub fn context(
    root: &std::path::Path,
    workload: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
    scale: usize,
) -> Result<Ctx, String> {
    let nanos = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| d.as_nanos());
    let stem = format!(
        "{workload}-seed{seed}-trace{}-{nanos}-{}",
        trace as u8,
        std::process::id()
    );
    let work = root.join(WORK_ROOT).join("work").join(&stem);
    let results = root.join(WORK_ROOT).join("results");
    for dir in [&work, &results] {
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    }
    Ok(Ctx {
        workload: workload.to_owned(),
        seed,
        seconds,
        trace,
        scale,
        work,
        results,
        stem,
        nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
    })
}

/// Runs the workload named in `ctx`.
pub fn execute(ctx: &Ctx) -> Result<Outcome, String> {
    let outcome = match ctx.workload.as_str() {
        "validate-bulk" => crate::bulk::run(ctx, 16_000 / ctx.scale),
        "session-durable" => crate::durable::run(ctx, 24 / ctx.scale.min(6), 2_000 / ctx.scale),
        other => Err(format!("unknown workload {other}")),
    };
    let _ = std::fs::remove_dir_all(&ctx.work);
    outcome
}

/// The checked-out commit, read from `.git` in the working directory
/// only (the benchmark reads nothing outside its checkout).
fn commit() -> Option<String> {
    let head = std::fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_owned());
    };
    if let Ok(id) = std::fs::read_to_string(format!(".git/{reference}")) {
        return Some(id.trim().to_owned());
    }
    let packed = std::fs::read_to_string(".git/packed-refs").ok()?;
    packed
        .lines()
        .find_map(|l| l.strip_suffix(reference)?.strip_suffix(' '))
        .map(str::to_owned)
}

/// The conditions every result records.
fn environment(ctx: &Ctx) -> Obj {
    let rustc = std::process::Command::new("rustc")
        .arg("-V")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
        .unwrap_or_else(|| "unknown".to_owned());
    let commit = commit().unwrap_or_else(|| "unknown (not a git checkout)".to_owned());
    Obj::new()
        .str("commit", &commit)
        .int("nproc", ctx.nproc as u64)
        .int("cpus_used", 1)
        .str("rustc", &rustc)
}

/// Renders the result line (the last line of stdout), and writes the full
/// record (plus the trace summary of a traced run) under `results`.
pub fn report(ctx: &Ctx, outcome: &Outcome) -> Result<String, String> {
    let metrics = if ctx.trace {
        &outcome.per_layer
    } else {
        &outcome.end_to_end
    };
    let line = Obj::new()
        .bool("correct", outcome.correct)
        .int("attempted", outcome.attempted)
        .int("failed", outcome.failed)
        .obj("metrics", metrics_obj(metrics))
        .render();
    let record = Obj::new()
        .str("workload", &ctx.workload)
        .int("seed", ctx.seed)
        .num("seconds", ctx.seconds)
        .bool("trace", ctx.trace)
        .bool("correct", outcome.correct)
        .int("attempted", outcome.attempted)
        .int("failed", outcome.failed)
        .obj("end_to_end", metrics_obj(&outcome.end_to_end))
        .obj("per_layer", metrics_obj(&outcome.per_layer))
        .obj("environment", environment(ctx))
        .obj("inputs", outcome.info.clone());
    let record = match &outcome.trace_summary {
        Some(summary) => record
            .raw("trace_summary", summary.clone())
            .str("spans_file", &ctx.spans_path().display().to_string()),
        None => record,
    };
    let path = ctx.results.join(format!("{}.json", ctx.stem));
    std::fs::write(&path, record.render() + "\n")
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    Ok(line)
}
