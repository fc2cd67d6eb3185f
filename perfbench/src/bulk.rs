//! `validate-bulk`: the CLI/batch path on one thread. A worker process
//! (the process under test) loads the generated graph document and runs
//! ops back to back: JSON text → `Json::parse` → `graph_from_value` →
//! `PgSchema::parse` → `validate(Indexed)` → `report.to_json()`.

use std::io::BufRead;
use std::time::Instant;

use pg_schema::{validate, Engine, ValidationOptions};
use pgraph::json::Json;

use crate::gen::{self, Rng};
use crate::layers::{self, fnv};
use crate::meter::{Meter, Summary};
use crate::metrics::{self, Outside};
use crate::out::{number, Obj};
use crate::run::{e2e, Ctx, Outcome};
use crate::stats;
use crate::sys::{self, Worker};
use crate::trace::Tracer;

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;

/// Runs the workload at `nodes_per_type` (16000 in the benchmark).
pub fn run(ctx: &Ctx, nodes_per_type: usize) -> Result<Outcome, String> {
    let gen_started = Instant::now();
    let schema = gen::social_schema();
    let mut graph = gen::social_graph(&schema, nodes_per_type, ctx.seed);
    let defects = gen::elements(&graph) / 100;
    let injected = gen::inject_defects(&mut graph, defects, &mut Rng::new(ctx.seed, 1));
    let text = pgraph::json::to_json(&graph);
    let input = ctx.work.join("bulk-graph.json");
    std::fs::write(&input, &text).map_err(|e| format!("write input: {e}"))?;
    // The reference: the same engine on the in-memory graph, so the
    // gate also covers the JSON round trip.
    let reference = validate(
        &graph,
        &schema,
        &ValidationOptions::with_engine(Engine::Indexed),
    );
    let reference_hash = fnv(reference.to_json().as_bytes());
    let counts = reference.counts();
    let missing: Vec<String> = injected
        .iter()
        .filter(|r| !counts.contains_key(r))
        .map(|r| r.to_string())
        .collect();
    let gen_s = gen_started.elapsed().as_secs_f64();

    let input_arg = input.display().to_string();
    let seconds = ctx.seconds.to_string();
    let trace = if ctx.trace { "1" } else { "0" };
    let spans_arg = ctx.spans_path().display().to_string();
    let mut setups = Vec::new();
    let mut worker = None;
    let mut warmup_hashes = Vec::new();
    for i in 0..SETUPS {
        let started = Instant::now();
        let mut w = Worker::spawn(&["bulk-worker", &input_arg, &seconds, trace, &spans_arg])
            .map_err(|e| format!("spawn worker: {e}"))?;
        let line = w.read_line().map_err(|e| format!("worker set-up: {e}"))?;
        setups.push(started.elapsed().as_secs_f64());
        let hash = line
            .strip_prefix("ready ")
            .and_then(|h| h.parse::<u64>().ok())
            .ok_or_else(|| format!("unexpected worker line {line:?}"))?;
        warmup_hashes.push(hash);
        if i + 1 < SETUPS {
            w.finish().map_err(|e| format!("worker exit: {e}"))?;
        } else {
            worker = Some(w);
        }
    }
    let mut w = worker.expect("SETUPS > 0");
    w.send("run").map_err(|e| format!("start worker: {e}"))?;
    let line = w.read_line().map_err(|e| format!("worker run: {e}"))?;
    w.finish().map_err(|e| format!("worker exit: {e}"))?;
    let doc = Json::parse(&line).map_err(|e| format!("worker result: {e}"))?;
    let num = |k: &str| doc.get(k).and_then(number).unwrap_or(0.0);
    let summary = Summary {
        ops_per_s: num("ops_per_s"),
        latency_p50_ms: num("latency_p50_ms"),
        latency_tail_ms: num("latency_tail_ms"),
        tail_percentile: num("tail_percentile"),
        cpu_ms_per_op: num("cpu_ms_per_op"),
        ops: num("ops") as usize,
        phase_ops_per_s: num("phase_ops_per_s"),
        phase_cpu_ms_per_op: num("phase_cpu_ms_per_op"),
        phase_p50_ms: num("phase_p50_ms"),
        windows: Vec::new(),
    };
    let hashes: Vec<u64> = doc
        .get("hashes")
        .and_then(Json::as_array)
        .unwrap_or(&[])
        .iter()
        .filter_map(|h| h.as_i64().map(|h| h as u64))
        .collect();
    let ops = summary.ops as u64;
    let failed = hashes
        .iter()
        .chain(&warmup_hashes)
        .filter(|&&h| h != reference_hash)
        .count() as u64;
    let correct = failed == 0 && missing.is_empty() && ops > 0;
    let end_to_end = e2e(&summary, num("hwm_kib") / 1024.0, stats::median(&setups));
    let layer = doc
        .get("per_layer")
        .map(crate::out::parse_metrics)
        .unwrap_or_default();
    let info = Obj::new()
        .int("nodes", graph.node_count() as u64)
        .int("edges", graph.edge_count() as u64)
        .int("input_bytes", text.len() as u64)
        .int("defects_injected", defects as u64)
        .str(
            "rules_injected",
            &injected
                .iter()
                .map(|r| r.to_string())
                .collect::<Vec<_>>()
                .join(","),
        )
        .int("outstanding_violations", reference.len() as u64)
        .str("missing_rules", &missing.join(","))
        .num("generation_s", gen_s)
        .raw("setup_samples_s", format!("{setups:?}"))
        .num("tail_percentile", summary.tail_percentile)
        .int("latency_samples", ops)
        .num("phase_ops_per_s", summary.phase_ops_per_s)
        .num("phase_cpu_ms_per_op", summary.phase_cpu_ms_per_op)
        .num("phase_p50_ms", summary.phase_p50_ms)
        .raw(
            "windows",
            doc.get("windows").map_or("[]".to_owned(), |w| w.to_string()),
        )
        .str("fsync", "n/a (no store)")
        .int("reactor_cores", 0)
        .int("connections", 0)
        .str("process_under_test", "perfbench bulk-worker (one thread)");
    Ok(Outcome {
        correct,
        attempted: ops + warmup_hashes.len() as u64,
        failed,
        end_to_end,
        per_layer: layer,
        info,
        trace_summary: doc.get("trace_summary").map(|s| s.to_string()),
    })
}

/// The worker side: `perfbench bulk-worker <input> <seconds> <trace>
/// <spans-out>`. Prints `ready <hash>` after one warm-up op, then waits
/// for `run` (or `exit`) on stdin.
pub fn worker(args: &[String]) -> Result<(), String> {
    let [input, seconds, trace, spans_out] = args else {
        return Err("usage: bulk-worker <input> <seconds> <trace> <spans-out>".to_owned());
    };
    let seconds: f64 = seconds.parse().map_err(|_| "bad seconds")?;
    let traced = trace == "1";
    let text = std::fs::read_to_string(input).map_err(|e| format!("read {input}: {e}"))?;
    let sdl = gen::social_sdl();
    let mut idle = Tracer::new(false);
    let warm = layers::bulk_op(&mut idle, &text, sdl)?;
    println!("ready {}", fnv(warm.as_bytes()));
    let mut command = String::new();
    std::io::stdin()
        .lock()
        .read_line(&mut command)
        .map_err(|e| e.to_string())?;
    if command.trim() != "run" {
        return Ok(());
    }
    // A traced run alternates traced and untraced ops, so the tracing
    // overhead is measured under the same conditions.
    let mut tracer = Tracer::new(false);
    let mut untraced = Vec::new();
    let mut traced_net = Vec::new();
    let mut hashes = Vec::new();
    let mut meter = Meter::start("self", seconds).map_err(|e| e.to_string())?;
    while meter.running() {
        let trace_this = traced && hashes.len() % 2 == 1;
        tracer.set_on(trace_this);
        let first_span = tracer.spans().len();
        let op_started = Instant::now();
        let out = layers::bulk_op(&mut tracer, &text, sdl)?;
        let us = op_started.elapsed().as_secs_f64() * 1e6;
        meter.record(us / 1e3).map_err(|e| e.to_string())?;
        if trace_this {
            let probe: f64 = tracer.spans()[first_span..]
                .iter()
                .filter(|s| s.name == "pgraph.columnar.freeze")
                .map(|s| s.micros())
                .sum();
            traced_net.push(us - probe);
        } else {
            untraced.push(us);
        }
        hashes.push(fnv(out.as_bytes()));
    }
    let s = meter.finish().map_err(|e| e.to_string())?;
    let mut result = Obj::new()
        .num("ops_per_s", s.ops_per_s)
        .num("latency_p50_ms", s.latency_p50_ms)
        .num("latency_tail_ms", s.latency_tail_ms)
        .num("tail_percentile", s.tail_percentile)
        .num("cpu_ms_per_op", s.cpu_ms_per_op)
        .int("ops", s.ops as u64)
        .num("phase_ops_per_s", s.phase_ops_per_s)
        .num("phase_cpu_ms_per_op", s.phase_cpu_ms_per_op)
        .num("phase_p50_ms", s.phase_p50_ms)
        .raw("windows", s.windows_json())
        .int(
            "hwm_kib",
            sys::usage("self").map_err(|e| e.to_string())?.hwm_kib,
        )
        .raw("hashes", format!("{hashes:?}"));
    if traced {
        let outside = Outside {
            overhead_us: stats::median(&traced_net) - stats::median(&untraced),
            ..Outside::default()
        };
        let per_layer = metrics::per_layer(&tracer, &outside);
        result = result
            .obj("per_layer", crate::out::metrics_obj(&per_layer))
            .obj("trace_summary", tracer.summary());
        std::fs::write(spans_out, tracer.span_lines())
            .map_err(|e| format!("write {spans_out}: {e}"))?;
    }
    println!("{}", result.render());
    Ok(())
}
