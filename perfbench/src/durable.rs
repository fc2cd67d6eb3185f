//! `session-durable`: a daemon with a data dir and `--fsync always`,
//! one reactor core and one closed-loop connection.
//!
//! Set-up creates the sessions (each a social-schema graph carrying
//! about 1% injected violations), compacts, shuts the daemon down and
//! restarts it on the same dir, which leaves every session dormant. The
//! run sends one delta to each dormant session first (the wake
//! samples), then goes round-robin across the sessions: 7 of 8 requests
//! are 4-op deltas of a stationary [`DeltaCycle`], 1 of 8 a report read.

use std::path::Path;
use std::time::Instant;

use pg_schema::{IncrementalEngine, PgSchema, ValidationOptions};
use pg_store::{FsyncPolicy, Store};
use pgraph::json::delta_to_json;
use pgraph::snapshot::SnapshotView;
use pgraph::PropertyGraph;

use crate::gen::{self, DeltaCycle, Rng};
use crate::layers;
use crate::meter::Meter;
use crate::metrics::{self, Outside};
use crate::out::Obj;
use crate::run::{e2e, Ctx, Outcome};
use crate::stats;
use crate::sys::{self, Client, Daemon};
use crate::trace::Tracer;

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Users per session the delta cycle toggles.
const CYCLE_USERS: usize = 64;
/// Requests the traced run replays in process.
const REPLAY_MAX: usize = 3_000;
/// The daemon's default auto-compaction threshold, which the workload
/// keeps: set-up's session creations cross it several times, while a
/// run's small deltas stay below it. (With a threshold low enough to
/// compact within a run, the fsyncs after each compaction stalled, and
/// tail latency varied fivefold from run to run.)
fn compact_after_bytes() -> u64 {
    pg_server::ServerConfig::default().compact_after_bytes
}

/// One session's generated input.
struct SessionInput {
    graph: PropertyGraph,
    users: Vec<pgraph::NodeId>,
    body: String,
}

/// One scheduled request of the measured phase.
#[derive(Debug, Clone, Copy)]
enum Op {
    Delta(usize),
    Report(usize),
}

/// Runs the workload with `sessions` sessions of `nodes_per_type`.
pub fn run(ctx: &Ctx, sessions: usize, nodes_per_type: usize) -> Result<Outcome, String> {
    let gen_started = Instant::now();
    let schema = gen::social_schema();
    let inputs: Vec<SessionInput> = (0..sessions as u64)
        .map(|i| {
            let seed = ctx.seed.wrapping_mul(1_000).wrapping_add(i);
            let original = gen::social_graph(&schema, nodes_per_type, seed);
            let mut graph = original.clone();
            let defects = gen::elements(&graph) / 100;
            gen::inject_defects(&mut graph, defects, &mut Rng::new(seed, 3));
            let users = gen::clean_users(&original, &graph, CYCLE_USERS);
            let body = gen::envelope(gen::social_sdl(), &graph);
            SessionInput { graph, users, body }
        })
        .collect();
    let gen_s = gen_started.elapsed().as_secs_f64();

    // Set-up, several times: bind, create, compact, restart.
    let mut setups = Vec::new();
    let mut live = None;
    for i in 0..SETUPS {
        let dir = ctx.work.join(format!("data-{i}"));
        let started = Instant::now();
        let (daemon, ids) = set_up(&dir, &inputs)?;
        setups.push(started.elapsed().as_secs_f64());
        if i + 1 < SETUPS {
            daemon.stop().map_err(|e| format!("stop daemon: {e}"))?;
            let _ = std::fs::remove_dir_all(&dir);
        } else {
            live = Some((daemon, ids, dir));
        }
    }
    let (daemon, ids, dir) = live.expect("SETUPS > 0");
    let mut client = daemon.connect().map_err(|e| format!("connect: {e}"))?;
    let mut cycles: Vec<DeltaCycle> = inputs
        .iter()
        .zip(&ids)
        .map(|(input, &id)| {
            DeltaCycle::new(id, input.users.clone(), input.graph.node_index_bound())
        })
        .collect();
    let mut failed = 0u64;
    let mut send_delta = |client: &mut Client, cycles: &mut [DeltaCycle], s: usize| -> f64 {
        let body = delta_to_json(&cycles[s].next_delta());
        let path = format!("/sessions/{}/deltas", ids[s]);
        let sent = Instant::now();
        let reply = client.request("POST", &path, body.as_bytes());
        let ms = sent.elapsed().as_secs_f64() * 1e3;
        let expect = format!("\"deltas_applied\":{},", cycles[s].step);
        if !matches!(&reply, Ok(r) if r.status == 200 && r.text().contains(&expect)) {
            failed += 1;
        }
        ms
    };

    // Wake samples: the first delta to each dormant session.
    let wake_ms: Vec<f64> = (0..sessions)
        .map(|s| send_delta(&mut client, &mut cycles, s))
        .collect();

    let snapshots_before = store_snapshots(&mut client)?;
    let pid = daemon.worker.pid();
    let written_before = sys::usage(&pid).map_err(|e| e.to_string())?.write_bytes;
    let mut meter = Meter::start(&pid, ctx.seconds).map_err(|e| e.to_string())?;
    let mut ops = Vec::new();
    let mut rtt_us: [Vec<f64>; 2] = Default::default();
    let mut deltas = 0u64;
    let mut report_failures = 0u64;
    let mut k = 0;
    while meter.running() {
        let s = k % sessions;
        let op = if (k / sessions) % 8 == 7 {
            Op::Report(s)
        } else {
            Op::Delta(s)
        };
        let ms = match op {
            Op::Delta(s) => {
                deltas += 1;
                send_delta(&mut client, &mut cycles, s)
            }
            Op::Report(s) => {
                let path = format!("/sessions/{}/report", ids[s]);
                let sent = Instant::now();
                let reply = client.request("GET", &path, b"");
                let ms = sent.elapsed().as_secs_f64() * 1e3;
                // Every session keeps its injected violations.
                if !matches!(&reply, Ok(r) if r.status == 200 && layers::conforms(r.text()) == Some(false))
                {
                    report_failures += 1;
                }
                ms
            }
        };
        meter.record(ms).map_err(|e| e.to_string())?;
        if ops.len() < REPLAY_MAX {
            ops.push(op);
            rtt_us[matches!(op, Op::Report(_)) as usize].push(ms * 1e3);
        }
        k += 1;
    }
    let summary = meter.finish().map_err(|e| e.to_string())?;
    let after = sys::usage(&pid).map_err(|e| e.to_string())?;
    let compactions = store_snapshots(&mut client)? - snapshots_before;
    let failed = failed + report_failures;
    let attempted = summary.ops as u64 + sessions as u64;
    let storage_bytes_per_op = (after.write_bytes - written_before) as f64 / deltas.max(1) as f64;

    let mut outside = if ctx.trace {
        http_layer(&mut client)?
    } else {
        Outside::default()
    };
    drop(client);

    // The gate: every session's report equals a library replay of its
    // acked deltas, before and after a crash and restart.
    let expected: Vec<String> = inputs
        .iter()
        .zip(ids.iter().zip(&cycles))
        .map(|(input, (&id, cycle))| library_report(&schema, input, id, cycle.step))
        .collect();
    let mut mismatches = reports_mismatch(&daemon, &ids, &expected)?;
    daemon
        .worker
        .crash()
        .map_err(|e| format!("crash daemon: {e}"))?;
    let daemon = Daemon::start(Some(&dir)).map_err(|e| format!("restart daemon: {e}"))?;
    mismatches += reports_mismatch(&daemon, &ids, &expected)?;
    daemon.stop().map_err(|e| format!("stop daemon: {e}"))?;

    let rtt_p50_us = rtt_us.each_ref().map(|v| stats::median(v));
    let mut replay_p50_us = [0.0; 2];
    let mut per_layer = Vec::new();
    let mut trace_summary = None;
    if ctx.trace {
        let replay = replay(ctx, &inputs, &ids, &ops)?;
        replay_p50_us = replay.route_us;
        outside.self_us_delta = rtt_p50_us[0] - replay.route_us[0];
        outside.self_us_report = rtt_p50_us[1] - replay.route_us[1];
        outside.overhead_us = replay.overhead_us;
        outside.wake_p50_ms = stats::median(&wake_ms);
        outside.storage_bytes_per_op = storage_bytes_per_op;
        outside.compactions = compactions;
        outside.failed_ratio = failed as f64 / attempted as f64;
        per_layer = metrics::per_layer(&replay.tracer, &outside);
        trace_summary = Some(replay.tracer.summary().render());
        std::fs::write(ctx.spans_path(), replay.tracer.span_lines())
            .map_err(|e| format!("write spans: {e}"))?;
    }

    let ops_count = summary.ops as u64;
    let end_to_end = e2e(
        &summary,
        after.hwm_kib as f64 / 1024.0,
        stats::median(&setups),
    );
    let outstanding: Vec<u64> = inputs
        .iter()
        .map(|i| pg_schema::validate(&i.graph, &schema, &ValidationOptions::default()).len() as u64)
        .collect();
    let info = Obj::new()
        .int("sessions", sessions as u64)
        .int("nodes_per_session", inputs[0].graph.node_count() as u64)
        .int("edges_per_session", inputs[0].graph.edge_count() as u64)
        .int("create_body_bytes", inputs[0].body.len() as u64)
        .raw("outstanding_violations", format!("{outstanding:?}"))
        .num("generation_s", gen_s)
        .raw("setup_samples_s", format!("{setups:?}"))
        .num("wake_p50_ms", stats::median(&wake_ms))
        .num("storage_bytes_per_op", storage_bytes_per_op)
        .num("failed_ratio", failed as f64 / attempted as f64)
        .num("compactions", compactions)
        .int("deltas", deltas)
        .int("report_mismatches", mismatches)
        .raw("rtt_p50_us", format!("{rtt_p50_us:?}"))
        .raw("replay_p50_us", format!("{replay_p50_us:?}"))
        .num("tail_percentile", summary.tail_percentile)
        .int("latency_samples", ops_count)
        .num("phase_ops_per_s", summary.phase_ops_per_s)
        .num("phase_cpu_ms_per_op", summary.phase_cpu_ms_per_op)
        .num("phase_p50_ms", summary.phase_p50_ms)
        .raw("windows", summary.windows_json())
        .str("fsync", "always")
        .int("compact_after_bytes", compact_after_bytes())
        .int("reactor_cores", 1)
        .int("connections", 1)
        .str("loop", "closed");
    Ok(Outcome {
        correct: failed == 0 && mismatches == 0 && ops_count > 0,
        attempted,
        failed,
        end_to_end,
        per_layer,
        info,
        trace_summary,
    })
}

/// Starts a daemon on the empty `dir`, creates every session, compacts,
/// shuts down and restarts on the same dir. Returns the restarted
/// daemon and the session ids.
fn set_up(dir: &Path, inputs: &[SessionInput]) -> Result<(Daemon, Vec<u64>), String> {
    let daemon = Daemon::start(Some(dir)).map_err(|e| format!("start daemon: {e}"))?;
    let mut client = daemon.connect().map_err(|e| format!("connect: {e}"))?;
    let ids = inputs
        .iter()
        .map(|input| create(&mut client, &input.body))
        .collect::<Result<Vec<u64>, String>>()?;
    let reply = client
        .request("POST", &format!("/sessions/{}/compact", ids[0]), b"")
        .map_err(|e| format!("compact: {e}"))?;
    if reply.status != 200 {
        return Err(format!(
            "compact answered {}: {}",
            reply.status,
            reply.text()
        ));
    }
    drop(client);
    daemon.stop().map_err(|e| format!("stop daemon: {e}"))?;
    let daemon = Daemon::start(Some(dir)).map_err(|e| format!("restart daemon: {e}"))?;
    Ok((daemon, ids))
}

/// Creates one session from `body`; returns its id.
fn create(client: &mut Client, body: &str) -> Result<u64, String> {
    let reply = client
        .request("POST", "/sessions", body.as_bytes())
        .map_err(|e| format!("create session: {e}"))?;
    let text = reply.text();
    let id = text
        .strip_prefix("{\"session\":")
        .and_then(|rest| rest.split(',').next())
        .and_then(|id| id.parse().ok());
    match (reply.status, id) {
        (201, Some(id)) => Ok(id),
        _ => Err(format!(
            "create session answered {}: {:.200}",
            reply.status, text
        )),
    }
}

/// What the traced run measures over HTTP: `/healthz` round trips and
/// the daemon's own `/metrics`.
fn http_layer(client: &mut Client) -> Result<Outside, String> {
    let mut rtt = Vec::new();
    for _ in 0..200 {
        let sent = Instant::now();
        let reply = client
            .request("GET", "/healthz", b"")
            .map_err(|e| format!("healthz: {e}"))?;
        rtt.push(sent.elapsed().as_secs_f64() * 1e6);
        if reply.status != 200 {
            return Err(format!("healthz answered {}", reply.status));
        }
    }
    let requests = client.sent as f64;
    let reply = client
        .request("GET", "/metrics", b"")
        .map_err(|e| format!("metrics: {e}"))?;
    let text = reply.text();
    Ok(Outside {
        healthz_rtt_us: stats::median(&rtt),
        wal_append_p50_us: histogram_p50(text, "pgschemad_wal_append_duration_micros"),
        wakeups_per_op: sum_series(text, "pgschemad_wakeups_total{") / requests,
        ..Outside::default()
    })
}

/// Sum of every sample line starting with `prefix`.
fn sum_series(text: &str, prefix: &str) -> f64 {
    text.lines()
        .filter(|l| l.starts_with(prefix))
        .filter_map(|l| l.rsplit(' ').next()?.parse::<f64>().ok())
        .sum()
}

/// The median of a Prometheus histogram, interpolated linearly inside
/// its bucket as `histogram_quantile` does; 0 when it is empty.
fn histogram_p50(text: &str, name: &str) -> f64 {
    let prefix = format!("{name}_bucket{{le=\"");
    let buckets: Vec<(f64, f64)> = text
        .lines()
        .filter_map(|l| {
            let rest = l.strip_prefix(&prefix)?;
            let (bound, count) = rest.split_once("\"} ")?;
            let bound = if bound == "+Inf" {
                f64::INFINITY
            } else {
                bound.parse().ok()?
            };
            Some((bound, count.trim().parse().ok()?))
        })
        .collect();
    let total = buckets.last().map_or(0.0, |b| b.1);
    if total == 0.0 {
        return 0.0;
    }
    let rank = total / 2.0;
    let mut lower = (0.0, 0.0);
    for &(bound, cumulative) in &buckets {
        if cumulative >= rank {
            if bound.is_infinite() {
                return lower.0;
            }
            let width = cumulative - lower.1;
            let frac = if width > 0.0 {
                (rank - lower.1) / width
            } else {
                1.0
            };
            return lower.0 + (bound - lower.0) * frac;
        }
        lower = (bound, cumulative);
    }
    lower.0
}

/// Snapshots the daemon's store has written (`/metrics`).
fn store_snapshots(client: &mut Client) -> Result<f64, String> {
    let reply = client
        .request("GET", "/metrics", b"")
        .map_err(|e| format!("metrics: {e}"))?;
    Ok(sum_series(reply.text(), "pgschemad_store_snapshots_total"))
}

/// The report a library `IncrementalEngine` holds after session `id`'s
/// acked deltas (the first `steps` of its cycle), without metrics.
fn library_report(schema: &PgSchema, input: &SessionInput, id: u64, steps: u64) -> String {
    let mut engine =
        IncrementalEngine::new(input.graph.clone(), schema, &ValidationOptions::default());
    let mut cycle = DeltaCycle::new(id, input.users.clone(), input.graph.node_index_bound());
    for _ in 0..steps {
        // A failed apply still leaves its deterministic effects, as on
        // the daemon; the report comparison catches any divergence.
        let _ = engine.apply(&cycle.next_delta());
    }
    engine.report().to_json()
}

/// Sessions whose daemon report differs from `expected`.
fn reports_mismatch(daemon: &Daemon, ids: &[u64], expected: &[String]) -> Result<u64, String> {
    let mut client = daemon.connect().map_err(|e| format!("connect: {e}"))?;
    let mut mismatches = 0;
    for (id, want) in ids.iter().zip(expected) {
        let reply = client
            .request("GET", &format!("/sessions/{id}/report"), b"")
            .map_err(|e| format!("report: {e}"))?;
        if reply.status != 200 || layers::strip_metrics(reply.text()) != *want {
            mismatches += 1;
        }
    }
    Ok(mismatches)
}

/// The in-process replay of a durable run.
struct Replay {
    tracer: Tracer,
    /// Median untraced replay time of a delta and of a report (µs).
    route_us: [f64; 2],
    overhead_us: f64,
}

/// Replays set-up, wake and the first ops of the measured phase through
/// the functions the handlers call, on a store with the workload's
/// fsync policy. Set-up's compaction, recovery and the wakes are traced;
/// the measured ops alternate untraced and traced, so the tracing
/// overhead is measured under the same conditions. A traced delta is
/// also appended to a second store that never fsyncs, so the fsync
/// share of an append shows as the difference.
fn replay(ctx: &Ctx, inputs: &[SessionInput], ids: &[u64], ops: &[Op]) -> Result<Replay, String> {
    let io = |e: std::io::Error| e.to_string();
    let sdl = gen::social_sdl();
    let mut tracer = Tracer::new(false);
    let dir = ctx.work.join("replay");
    let (store, _) = Store::open(dir.join("always"), FsyncPolicy::Always).map_err(io)?;
    let (nosync, _) = Store::open(dir.join("never"), FsyncPolicy::Never).map_err(io)?;
    let mut last_seq = Vec::new();
    for (input, &id) in inputs.iter().zip(ids) {
        last_seq.push(store.append_create(id, sdl, &input.graph).map_err(io)?);
        nosync.append_create(id, sdl, &input.graph).map_err(io)?;
    }
    // Set-up's compaction is traced: with the daemon's default
    // threshold it is the compaction the workload runs.
    tracer.set_on(true);
    let graphs: Vec<&PropertyGraph> = inputs.iter().map(|i| &i.graph).collect();
    compact(&mut tracer, &store, ids, &last_seq, &graphs)?;
    drop(store);
    let h = tracer.enter("store.open");
    let (store, recovered) = Store::open(dir.join("always"), FsyncPolicy::Always).map_err(io)?;
    tracer.exit(h, 0.0, 0.0);

    // Wake: open and thaw each mapped graph, parse the schema, seed.
    let mut engines = Vec::new();
    let mut cycles = Vec::new();
    for (input, &id) in inputs.iter().zip(ids) {
        let session = recovered
            .sessions
            .iter()
            .find(|s| s.id == id)
            .ok_or_else(|| format!("session {id} not recovered"))?;
        let root = tracer.enter("op.wake");
        let graph = match session.graph.pgcs() {
            Some(bytes) => {
                let view = tracer.time("pgraph.snapshot.open", || SnapshotView::parse(bytes));
                let view = view.map_err(|e| e.to_string())?;
                tracer
                    .time("pgraph.snapshot.thaw", || view.thaw())
                    .map_err(|e| e.to_string())?
            }
            None => session
                .graph
                .loaded()
                .cloned()
                .ok_or("graph neither mapped nor loaded")?,
        };
        // Seeding freezes the graph internally; the traced wake also
        // freezes it on its own, so the trace shows that share.
        tracer.time("pgraph.columnar.freeze", || {
            std::hint::black_box(pgraph::ColumnarGraph::freeze(&graph));
        });
        let schema = layers::parse_schema(&mut tracer, &session.schema_sdl)?;
        engines.push(layers::seed(&mut tracer, graph, schema));
        tracer.exit(root, 0.0, 0.0);
        cycles.push(DeltaCycle::new(
            id,
            input.users.clone(),
            input.graph.node_index_bound(),
        ));
    }

    // The wake deltas (traced), then the measured ops.
    let mut route_us: [Vec<f64>; 2] = Default::default();
    let mut untraced = Vec::new();
    let mut traced = Vec::new();
    let wake_ops: Vec<Op> = (0..inputs.len()).map(Op::Delta).collect();
    for (n, &op) in wake_ops.iter().chain(ops).enumerate() {
        let measured = n >= wake_ops.len();
        tracer.set_on(!measured || n % 2 == 1);
        let body = match op {
            Op::Delta(s) => delta_to_json(&cycles[s].next_delta()),
            Op::Report(_) => String::new(),
        };
        let first = tracer.spans().len();
        let started = Instant::now();
        match op {
            Op::Delta(s) => {
                let root = tracer.enter("op.delta");
                let delta = layers::apply_delta(&mut tracer, &mut engines[s], &body)?;
                let appended = store.stats().appended_bytes;
                let h = tracer.enter("store.append");
                last_seq[s] = store.append_delta(ids[s], &delta).map_err(io)?;
                let bytes = store.stats().appended_bytes - appended;
                tracer.exit(h, bytes as f64, 0.0);
                if tracer.is_on() {
                    tracer
                        .time("store.append_nosync", || nosync.append_delta(ids[s], &delta))
                        .map_err(io)?;
                }
                layers::session_report(&mut tracer, &engines[s]);
                tracer.exit(root, 0.0, 0.0);
            }
            Op::Report(s) => {
                let root = tracer.enter("op.report");
                layers::session_report(&mut tracer, &engines[s]);
                tracer.exit(root, 0.0, 0.0);
            }
        }
        let us = started.elapsed().as_secs_f64() * 1e6;
        if store.wal_size_bytes() >= compact_after_bytes() {
            let graphs: Vec<&PropertyGraph> = engines.iter().map(|e| e.graph()).collect();
            compact(&mut tracer, &store, ids, &last_seq, &graphs)?;
        }
        if !measured {
            continue;
        }
        if tracer.is_on() {
            let probe: f64 = tracer.spans()[first..]
                .iter()
                .filter(|s| s.name == "store.append_nosync")
                .map(|s| s.micros())
                .sum();
            traced.push(us - probe);
        } else {
            untraced.push(us);
            route_us[matches!(op, Op::Report(_)) as usize].push(us);
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
    Ok(Replay {
        tracer,
        route_us: route_us.each_ref().map(|v| stats::median(v)),
        overhead_us: stats::median(&traced) - stats::median(&untraced),
    })
}

/// Compacts `store` over the sessions' current graphs, as the daemon's
/// registry does.
fn compact(
    tracer: &mut Tracer,
    store: &Store,
    ids: &[u64],
    last_seq: &[u64],
    graphs: &[&PropertyGraph],
) -> Result<(), String> {
    let h = tracer.enter("store.compaction");
    let mut compaction = store
        .try_begin_compaction()
        .map_err(|e| e.to_string())?
        .ok_or("compaction already running")?;
    for ((&id, &seq), &graph) in ids.iter().zip(last_seq).zip(graphs) {
        compaction.add_session(id, seq, 0, gen::social_sdl(), graph, None);
    }
    let next_id = ids.iter().max().map_or(1, |m| m + 1);
    let outcome = compaction.finish(next_id).map_err(|e| e.to_string())?;
    tracer.exit(h, outcome.snapshot_bytes as f64, 0.0);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_median_interpolates_within_its_bucket() {
        let text = "x_bucket{le=\"10\"} 2\nx_bucket{le=\"20\"} 6\nx_bucket{le=\"+Inf\"} 8\n\
                    x_sum 100\nx_count 8\n";
        // rank 4 lies halfway through the (10, 20] bucket's 4 samples.
        assert_eq!(histogram_p50(text, "x"), 15.0);
        assert_eq!(histogram_p50("", "x"), 0.0);
        assert_eq!(
            sum_series("w{core=\"0\"} 3\nw{core=\"1\"} 4\nwx 9\n", "w{"),
            7.0
        );
    }
}
