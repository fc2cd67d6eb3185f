//! `pgload` — the load generator and smoke tester for `pg-schema serve`.
//!
//! Drives N concurrent keep-alive connections of one-shot `/validate`
//! and/or incremental-session delta traffic against a running daemon
//! and reports throughput plus p50/p95/p99 client-observed latency —
//! the measurement behind the E3s/E3e tables in EXPERIMENTS.md.
//!
//! Closed-loop by default (each connection fires its next request when
//! the previous response lands — measures capacity). `--rate R` switches
//! to an open loop with a fixed arrival schedule spread across the
//! connections; latency is then measured from each request's *scheduled*
//! arrival time, so server stalls surface as tail latency instead of
//! silently thinning the sample (the coordinated-omission trap).
//! `--hold N` parks N idle keep-alive connections to exercise
//! connection-scale rather than request throughput.
//!
//! ```text
//! pgload --addr 127.0.0.1:7878 --mode oneshot --connections 8 --duration 10
//! pgload --addr 127.0.0.1:7878 --mode session --connections 8 --duration 10
//! pgload --addr 127.0.0.1:7878 --mode mixed   --connections 8 --duration 10
//! pgload --addr 127.0.0.1:7878 --mode oneshot --rate 5000 --duration 10
//! pgload --addr 127.0.0.1:7878 --hold 5000 --duration 10
//! pgload --cluster 127.0.0.1:7878,127.0.0.1:7879 --mode session --duration 10
//! pgload --addr 127.0.0.1:7878 --smoke   # CI: one pass over the surface
//! pgload --restart-check path/to/pgschema   # CI: durability across SIGKILL
//! pgload --failover-check path/to/pgschema  # CI: promote a follower, lose nothing
//! pgload --migrate-check path/to/pgschema   # CI: dual-schema window survives SIGKILL
//! ```
//!
//! `--cluster a,b,c` shards session traffic across independent leaders
//! with the same consistent-hash ring every other client computes
//! ([`pg_server::ring::Ring`]); `--failover-check` spawns a leader and
//! two followers, kills the leader under acknowledged traffic, promotes
//! a follower and requires zero acked-write loss.

use std::io::{self, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use pg_server::http::read_response;
use pg_server::ring::Ring;
use pg_server::workload::{sample_graph, toggle_delta, user_ids, SCHEMA_SDL};
use pgraph::json::{self, Json};

/// Status, response headers (lowercased names), body.
type FullResponse = (u16, Vec<(String, String)>, Vec<u8>);

/// One keep-alive client connection.
struct Client {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl Client {
    fn connect(addr: &str) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(10)))?;
        Ok(Client {
            stream,
            buf: Vec::new(),
        })
    }

    fn request(&mut self, method: &str, target: &str, body: &[u8]) -> io::Result<(u16, Vec<u8>)> {
        let (status, _headers, body) = self.request_full(method, target, body)?;
        Ok((status, body))
    }

    fn request_full(
        &mut self,
        method: &str,
        target: &str,
        body: &[u8],
    ) -> io::Result<FullResponse> {
        let head = format!(
            "{method} {target} HTTP/1.1\r\nhost: pgload\r\ncontent-length: {}\r\n\r\n",
            body.len()
        );
        let mut out = Vec::with_capacity(head.len() + body.len());
        out.extend_from_slice(head.as_bytes());
        out.extend_from_slice(body);
        self.stream.write_all(&out)?;
        read_response(&mut self.stream, &mut self.buf)
    }
}

/// Set once from `--lang pgschema`: the workload then posts the
/// PG-Schema rendering of the worked-example schema, and schema-carrying
/// creation requests add `lang=pgschema`. Deltas, reports and graphs are
/// language-neutral, so everything downstream is unchanged — which is
/// the point: E5f measures the per-language frontend cost in isolation.
static USE_PGSCHEMA: AtomicBool = AtomicBool::new(false);

fn use_pgschema() -> bool {
    USE_PGSCHEMA.load(Ordering::Relaxed)
}

/// The workload schema in the selected language.
fn workload_schema() -> String {
    if use_pgschema() {
        let doc = gql_sdl::parse(SCHEMA_SDL).expect("workload schema parses");
        pg_pgschema::print_pgschema(&doc, "Workload", pg_pgschema::TypeMode::Strict)
            .expect("workload schema is inside the PG-Schema fragment")
    } else {
        SCHEMA_SDL.to_owned()
    }
}

/// The session-creation target in the selected language.
fn sessions_target() -> &'static str {
    if use_pgschema() {
        "/sessions?lang=pgschema"
    } else {
        "/sessions"
    }
}

/// The one-shot validation target in the selected language.
fn validate_target(engine: &str) -> String {
    let lang = if use_pgschema() { "&lang=pgschema" } else { "" };
    format!("/validate?engine={engine}{lang}")
}

/// The `{"schema": …, "graph": …}` envelope for the worked-example
/// workload.
fn envelope(users: usize) -> String {
    let graph = sample_graph(users);
    let mut out = String::new();
    out.push_str("{\"schema\":");
    pg_server::http::push_json_string(&mut out, &workload_schema());
    out.push_str(",\"graph\":");
    out.push_str(&json::to_json(&graph));
    out.push('}');
    out
}

#[derive(Clone, Copy, PartialEq)]
enum Mode {
    Oneshot,
    Session,
    Mixed,
}

struct WorkerStats {
    latencies_micros: Vec<u64>,
    errors: u64,
    shed: u64,
}

/// One worker's slice of the open-loop arrival schedule: its k-th
/// request is *due* at `start + offset_s + k * interval_s`, regardless
/// of how the server is doing. Latency is measured from that due time —
/// a stalled server accumulates schedule debt that shows up as tail
/// latency, which is what makes the recording coordinated-omission safe.
#[derive(Clone, Copy)]
struct Pace {
    start: Instant,
    interval_s: f64,
    offset_s: f64,
}

/// One worker driving a single connection until `deadline`.
fn run_worker(
    addr: &str,
    oneshot: bool,
    users: usize,
    engine: &str,
    deadline: Instant,
    stop: &AtomicBool,
    pace: Option<Pace>,
) -> WorkerStats {
    let mut stats = WorkerStats {
        latencies_micros: Vec::with_capacity(1 << 16),
        errors: 0,
        shed: 0,
    };
    let body = envelope(users);
    let graph = sample_graph(users);
    let user = user_ids(&graph)[0];
    let target = validate_target(engine);

    // The arrival index persists across reconnects so the schedule is
    // never silently thinned by a dropped connection.
    let mut k = 0u64;
    'reconnect: loop {
        if stop.load(Ordering::Relaxed) || Instant::now() >= deadline {
            return stats;
        }
        let mut client = match Client::connect(addr) {
            Ok(client) => client,
            Err(_) => {
                stats.errors += 1;
                std::thread::sleep(Duration::from_millis(10));
                continue;
            }
        };

        // Session mode: create this connection's own session first.
        let session_id = if oneshot {
            None
        } else {
            match client.request("POST", sessions_target(), body.as_bytes()) {
                Ok((201, response)) => {
                    let text = String::from_utf8_lossy(&response).into_owned();
                    match Json::parse(&text)
                        .ok()
                        .and_then(|d| d.get("session")?.as_i64())
                    {
                        Some(id) => Some(id as u64),
                        None => {
                            stats.errors += 1;
                            continue 'reconnect;
                        }
                    }
                }
                Ok((503, _)) => {
                    stats.shed += 1;
                    std::thread::sleep(Duration::from_millis(20));
                    continue 'reconnect;
                }
                _ => {
                    stats.errors += 1;
                    continue 'reconnect;
                }
            }
        };
        let delta_target = session_id.map(|id| format!("/sessions/{id}/deltas"));
        let report_target = session_id.map(|id| format!("/sessions/{id}/report"));

        let mut i = 0u64;
        loop {
            // Open loop: wait for the k-th arrival to come due. If the
            // previous response came back late the due time is already in
            // the past and the request fires immediately, carrying the
            // backlog in its recorded latency.
            let started = match pace {
                Some(p) => {
                    let due =
                        p.start + Duration::from_secs_f64(p.offset_s + k as f64 * p.interval_s);
                    let now = Instant::now();
                    if due > now {
                        std::thread::sleep(due - now);
                    }
                    due
                }
                None => Instant::now(),
            };
            if stop.load(Ordering::Relaxed) || Instant::now() >= deadline {
                if let Some(id) = session_id {
                    let _ = client.request("DELETE", &format!("/sessions/{id}"), b"");
                }
                return stats;
            }
            let result = if oneshot {
                client.request("POST", &target, body.as_bytes())
            } else if i % 16 == 15 {
                client.request("GET", report_target.as_deref().unwrap(), b"")
            } else {
                let delta = json::delta_to_json(&toggle_delta(user, i));
                client.request("POST", delta_target.as_deref().unwrap(), delta.as_bytes())
            };
            let micros = started.elapsed().as_micros() as u64;
            i += 1;
            k += 1;
            match result {
                Ok((200, _)) => stats.latencies_micros.push(micros),
                Ok((503, _)) => {
                    stats.shed += 1;
                    std::thread::sleep(Duration::from_millis(20));
                    continue 'reconnect;
                }
                Ok((_, _)) => stats.errors += 1,
                Err(_) => {
                    stats.errors += 1;
                    continue 'reconnect;
                }
            }
        }
    }
}

fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((sorted.len() as f64) * p).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

#[allow(clippy::too_many_arguments)]
fn run_load(
    addr: &str,
    cluster: Option<&Ring>,
    mode: Mode,
    connections: usize,
    seconds: u64,
    users: usize,
    engine: &str,
    rate: Option<f64>,
) {
    let start = Instant::now();
    let deadline = start + Duration::from_secs(seconds);
    let stop = AtomicBool::new(false);
    let stop_ref = &stop;
    // With `--cluster`, each worker's session key picks its node off the
    // consistent-hash ring — the same placement every client computes
    // from the same node list, no coordinator involved.
    let targets: Vec<String> = (0..connections)
        .map(|c| match cluster {
            Some(ring) => ring
                .node_for_key(format!("pgload-{c}").as_bytes())
                .to_owned(),
            None => addr.to_owned(),
        })
        .collect();
    let stats: Vec<WorkerStats> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..connections)
            .map(|c| {
                let oneshot = match mode {
                    Mode::Oneshot => true,
                    Mode::Session => false,
                    Mode::Mixed => c % 2 == 0,
                };
                // Open loop: the aggregate rate R is interleaved across
                // the C connections — worker c owns arrivals c, c+C,
                // c+2C, … of the global schedule.
                let pace = rate.map(|r| Pace {
                    start,
                    interval_s: connections as f64 / r,
                    offset_s: c as f64 / r,
                });
                let target = targets[c].as_str();
                scope.spawn(move || {
                    run_worker(target, oneshot, users, engine, deadline, stop_ref, pace)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let elapsed = start.elapsed().as_secs_f64();

    let mut latencies: Vec<u64> = Vec::new();
    let mut errors = 0u64;
    let mut shed = 0u64;
    for s in &stats {
        latencies.extend_from_slice(&s.latencies_micros);
        errors += s.errors;
        shed += s.shed;
    }
    latencies.sort_unstable();
    let requests = latencies.len() as u64;
    let mode_name = match mode {
        Mode::Oneshot => "oneshot",
        Mode::Session => "session",
        Mode::Mixed => "mixed",
    };
    let mut target = match rate {
        Some(r) => format!(" target_rps={r:.0}"),
        None => String::new(),
    };
    if let Some(ring) = cluster {
        target.push_str(&format!(" cluster_nodes={}", ring.nodes().len()));
    }
    println!(
        "mode={mode_name} connections={connections} duration_s={elapsed:.1}{target} \
         requests={requests} errors={errors} shed={shed} \
         throughput_rps={:.0} p50_us={} p95_us={} p99_us={}",
        requests as f64 / elapsed,
        percentile(&latencies, 0.50),
        percentile(&latencies, 0.95),
        percentile(&latencies, 0.99),
    );
}

/// Connection-scale check (`--hold N`): opens N keep-alive connections,
/// proves each is live with one `/healthz`, parks them all for the
/// duration, then re-verifies a sample and the server's own
/// `pgschemad_connections_open` gauge before closing them. Exercises the
/// reactor's idle-connection capacity, which a closed-loop run never
/// does.
fn run_hold(addr: &str, count: usize, seconds: u64) -> Result<(), String> {
    let started = Instant::now();
    let mut clients = Vec::with_capacity(count);
    for n in 0..count {
        let mut client =
            Client::connect(addr).map_err(|e| format!("connect #{n} of {count}: {e}"))?;
        match client.request("GET", "/healthz", b"") {
            Ok((200, _)) => clients.push(client),
            Ok((503, _)) => return Err(format!("connection #{n} shed with 503")),
            Ok((status, _)) => return Err(format!("connection #{n}: healthz status {status}")),
            Err(e) => return Err(format!("connection #{n}: healthz: {e}")),
        }
    }
    let ramp_s = started.elapsed().as_secs_f64();
    println!("hold: {count} connections open after {ramp_s:.1}s, holding {seconds}s");
    std::thread::sleep(Duration::from_secs(seconds));

    // Every sampled connection must still be alive after idling.
    let sample = [0, count / 2, count.saturating_sub(1)];
    for &n in &sample {
        let Some(client) = clients.get_mut(n) else {
            continue;
        };
        match client.request("GET", "/healthz", b"") {
            Ok((200, _)) => {}
            Ok((status, _)) => return Err(format!("held connection #{n}: status {status}")),
            Err(e) => return Err(format!("held connection #{n} died while idle: {e}")),
        }
    }
    // The server must agree it is holding them all (+1 for this probe).
    let mut probe = Client::connect(addr).map_err(|e| format!("metrics probe: {e}"))?;
    let (status, body) = probe
        .request("GET", "/metrics", b"")
        .map_err(|e| format!("metrics probe: {e}"))?;
    if status != 200 {
        return Err(format!("metrics probe: status {status}"));
    }
    let text = String::from_utf8_lossy(&body);
    let open = text
        .lines()
        .find_map(|l| l.strip_prefix("pgschemad_connections_open "))
        .and_then(|v| v.trim().parse::<usize>().ok())
        .ok_or("metrics probe: no pgschemad_connections_open gauge")?;
    if open < count {
        return Err(format!(
            "server reports {open} open connections, expected at least {count}"
        ));
    }
    println!("hold: ok ({count} connections held, server gauge {open})");
    Ok(())
}

/// One deterministic pass over the HTTP surface; any unexpected response
/// is a process-exit failure. CI runs this between daemon start and
/// SIGTERM.
fn run_smoke(addr: &str) -> Result<(), String> {
    let mut client = Client::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;

    let (status, body) = client
        .request("GET", "/healthz", b"")
        .map_err(|e| format!("healthz: {e}"))?;
    if status != 200 {
        return Err(format!("healthz: status {status}"));
    }
    if body != b"ok\n" {
        return Err("healthz: unexpected body".into());
    }

    // Stateless validation on every engine agrees the sample conforms.
    let envelope = envelope(4);
    for &engine in pg_schema::Engine::NAMES {
        let (status, body) = client
            .request("POST", &validate_target(engine), envelope.as_bytes())
            .map_err(|e| format!("validate({engine}): {e}"))?;
        if status != 200 {
            return Err(format!("validate({engine}): status {status}"));
        }
        let report = Json::parse(&String::from_utf8_lossy(&body))
            .map_err(|e| format!("validate({engine}): bad report JSON: {e}"))?;
        if report.get("conforms") != Some(&Json::Bool(true)) {
            return Err(format!("validate({engine}): sample should conform"));
        }
    }

    // Session round trip: create, break, observe, repair, verify.
    let (status, body) = client
        .request("POST", sessions_target(), envelope.as_bytes())
        .map_err(|e| format!("create session: {e}"))?;
    if status != 201 {
        return Err(format!("create session: status {status}"));
    }
    let created = Json::parse(&String::from_utf8_lossy(&body))
        .map_err(|e| format!("create session: bad JSON: {e}"))?;
    let id = created
        .get("session")
        .and_then(Json::as_i64)
        .ok_or("create session: no id")?;
    let graph = sample_graph(4);
    let user = user_ids(&graph)[0];

    let break_delta = json::delta_to_json(&toggle_delta(user, 0));
    let (status, body) = client
        .request(
            "POST",
            &format!("/sessions/{id}/deltas"),
            break_delta.as_bytes(),
        )
        .map_err(|e| format!("breaking delta: {e}"))?;
    if status != 200 {
        return Err(format!("breaking delta: status {status}"));
    }
    let patched = Json::parse(&String::from_utf8_lossy(&body))
        .map_err(|e| format!("breaking delta: bad JSON: {e}"))?;
    if patched.get("report").and_then(|r| r.get("conforms")) != Some(&Json::Bool(false)) {
        return Err("breaking delta: report should not conform".into());
    }

    let repair_delta = json::delta_to_json(&toggle_delta(user, 1));
    let (status, _) = client
        .request(
            "POST",
            &format!("/sessions/{id}/deltas"),
            repair_delta.as_bytes(),
        )
        .map_err(|e| format!("repair delta: {e}"))?;
    if status != 200 {
        return Err(format!("repair delta: status {status}"));
    }

    let (status, body) = client
        .request("GET", &format!("/sessions/{id}/report"), b"")
        .map_err(|e| format!("report: {e}"))?;
    if status != 200 {
        return Err(format!("report: status {status}"));
    }
    let report = Json::parse(&String::from_utf8_lossy(&body))
        .map_err(|e| format!("report: bad JSON: {e}"))?;
    if report.get("conforms") != Some(&Json::Bool(true)) {
        return Err("report: repaired session should conform".into());
    }
    if report.get("rule_counts").is_none() {
        return Err("report: missing per-rule counts".into());
    }

    let (status, body) = client
        .request("GET", "/metrics", b"")
        .map_err(|e| format!("metrics: {e}"))?;
    let text = String::from_utf8_lossy(&body).into_owned();
    if status != 200 || !text.contains("pgschemad_validations_total") {
        return Err("metrics: missing pgschemad_validations_total".into());
    }
    if !text.contains("pgschemad_sessions_live 1") {
        return Err("metrics: expected one live session".into());
    }
    if !text.contains("pgschemad_rule_violations_total{rule=\"WS1\"}")
        || !text.contains("pgschemad_rule_nanos_total{rule=\"DS7\"}")
    {
        return Err("metrics: missing per-rule counter families".into());
    }
    if !text.contains("pgschemad_wakeups_total{core=\"0\"}")
        || !text.contains("pgschemad_connections_open")
        || !text.contains("pgschemad_core_connections{core=\"0\"}")
    {
        return Err("metrics: missing reactor counter families".into());
    }

    let (status, _) = client
        .request("DELETE", &format!("/sessions/{id}"), b"")
        .map_err(|e| format!("delete session: {e}"))?;
    if status != 200 {
        return Err(format!("delete session: status {status}"));
    }

    println!("smoke: ok");
    Ok(())
}

/// Strips the volatile `metrics` member (wall times differ run to run)
/// so two reports over the same state compare byte-for-byte.
fn canonical_report(body: &[u8]) -> Result<String, String> {
    let doc = Json::parse(&String::from_utf8_lossy(body)).map_err(|e| format!("bad JSON: {e}"))?;
    let canonical = match doc {
        Json::Object(members) => Json::Object(
            members
                .into_iter()
                .filter(|(name, _)| name != "metrics")
                .collect(),
        ),
        other => other,
    };
    Ok(canonical.to_string())
}

/// The restart check (`--restart-check <pgschema-binary>`): load durable
/// sessions into a freshly spawned daemon, SIGKILL it, relaunch it on
/// the same `--data-dir`, and require every session's report and graph
/// to come back byte-for-byte identical (reports compared with their
/// volatile timing metrics stripped). Also checks that a deleted session
/// stays deleted and that new sequence numbers keep flowing after
/// recovery.
fn run_restart_check(server_bin: &str) -> Result<(), String> {
    let data_dir = std::env::temp_dir().join(format!("pgload-restart-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&data_dir);

    // Reserve a port by binding to 0 and releasing it; the daemon binds
    // it back a moment later.
    let port = TcpListener::bind("127.0.0.1:0")
        .and_then(|l| l.local_addr())
        .map_err(|e| format!("cannot pick a port: {e}"))?
        .port();
    let addr = format!("127.0.0.1:{port}");
    let spawn = || -> Result<std::process::Child, String> {
        std::process::Command::new(server_bin)
            .args([
                "serve",
                "--addr",
                &addr,
                "--cores",
                "2",
                "--log-format",
                "off",
                "--fsync",
                "always",
                "--data-dir",
            ])
            .arg(&data_dir)
            .stdout(std::process::Stdio::null())
            .stderr(std::process::Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot spawn {server_bin}: {e}"))
    };
    let wait_ready = || -> Result<Client, String> {
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            if let Ok(mut client) = Client::connect(&addr) {
                if let Ok((200, _)) = client.request("GET", "/healthz", b"") {
                    return Ok(client);
                }
            }
            if Instant::now() >= deadline {
                return Err(format!("daemon on {addr} not ready within 10s"));
            }
            std::thread::sleep(Duration::from_millis(50));
        }
    };

    let mut child = spawn()?;
    let result = (|| -> Result<(), String> {
        let mut client = wait_ready()?;

        // Three sessions with different histories: left broken, broken
        // then repaired, and untouched. Plus one conflicting delta that
        // returns 409 — its deterministic partial effects must survive
        // the restart too.
        let mut ids = Vec::new();
        for users in [2usize, 4, 6] {
            let (status, body) = client
                .request("POST", sessions_target(), envelope(users).as_bytes())
                .map_err(|e| format!("create: {e}"))?;
            if status != 201 {
                return Err(format!("create: status {status}"));
            }
            let id = Json::parse(&String::from_utf8_lossy(&body))
                .ok()
                .and_then(|d| d.get("session")?.as_i64())
                .ok_or("create: no session id")?;
            ids.push((id, users));
        }
        for (i, &(id, users)) in ids.iter().enumerate() {
            let graph = sample_graph(users);
            let user = user_ids(&graph)[0];
            let deltas: u64 = match i {
                0 => 1, // ends broken
                1 => 2, // broken, then repaired
                _ => 0, // untouched
            };
            for d in 0..deltas {
                let delta = json::delta_to_json(&toggle_delta(user, d));
                let (status, _) = client
                    .request("POST", &format!("/sessions/{id}/deltas"), delta.as_bytes())
                    .map_err(|e| format!("delta: {e}"))?;
                if status != 200 {
                    return Err(format!("delta: status {status}"));
                }
            }
        }
        let conflict = r#"{"ops":[{"op":"remove-node","node":99999}]}"#;
        let (status, _) = client
            .request(
                "POST",
                &format!("/sessions/{}/deltas", ids[0].0),
                conflict.as_bytes(),
            )
            .map_err(|e| format!("conflicting delta: {e}"))?;
        if status != 409 {
            return Err(format!("conflicting delta: expected 409, got {status}"));
        }

        // A deleted session must stay deleted across the restart.
        let (status, body) = client
            .request("POST", sessions_target(), envelope(3).as_bytes())
            .map_err(|e| format!("create doomed: {e}"))?;
        if status != 201 {
            return Err(format!("create doomed: status {status}"));
        }
        let doomed = Json::parse(&String::from_utf8_lossy(&body))
            .ok()
            .and_then(|d| d.get("session")?.as_i64())
            .ok_or("create doomed: no session id")?;
        let (status, _) = client
            .request("DELETE", &format!("/sessions/{doomed}"), b"")
            .map_err(|e| format!("delete doomed: {e}"))?;
        if status != 200 {
            return Err(format!("delete doomed: status {status}"));
        }

        let mut before = Vec::new();
        for &(id, _) in &ids {
            let (status, report) = client
                .request("GET", &format!("/sessions/{id}/report"), b"")
                .map_err(|e| format!("report: {e}"))?;
            if status != 200 {
                return Err(format!("report: status {status}"));
            }
            let (status, graph) = client
                .request("GET", &format!("/sessions/{id}/graph"), b"")
                .map_err(|e| format!("graph: {e}"))?;
            if status != 200 {
                return Err(format!("graph: status {status}"));
            }
            before.push((id, canonical_report(&report)?, graph));
        }

        // SIGKILL: no drain, no flush beyond what `--fsync always`
        // already guaranteed per acknowledged append.
        child.kill().map_err(|e| format!("kill: {e}"))?;
        let _ = child.wait();
        child = spawn()?;
        let mut client = wait_ready()?;

        for (id, report_before, graph_before) in &before {
            let (status, report) = client
                .request("GET", &format!("/sessions/{id}/report"), b"")
                .map_err(|e| format!("report after restart: {e}"))?;
            if status != 200 {
                return Err(format!("report after restart: status {status}"));
            }
            if &canonical_report(&report)? != report_before {
                return Err(format!("session {id}: report changed across restart"));
            }
            let (status, graph) = client
                .request("GET", &format!("/sessions/{id}/graph"), b"")
                .map_err(|e| format!("graph after restart: {e}"))?;
            if status != 200 {
                return Err(format!("graph after restart: status {status}"));
            }
            if &graph != graph_before {
                return Err(format!("session {id}: graph changed across restart"));
            }
        }
        let (status, _) = client
            .request("GET", &format!("/sessions/{doomed}/report"), b"")
            .map_err(|e| format!("doomed after restart: {e}"))?;
        if status != 404 {
            return Err(format!("doomed session should stay deleted, got {status}"));
        }
        // Recovery must keep handing out fresh ids.
        let (status, body) = client
            .request("POST", sessions_target(), envelope(2).as_bytes())
            .map_err(|e| format!("post-restart create: {e}"))?;
        if status != 201 {
            return Err(format!("post-restart create: status {status}"));
        }
        let new_id = Json::parse(&String::from_utf8_lossy(&body))
            .ok()
            .and_then(|d| d.get("session")?.as_i64())
            .ok_or("post-restart create: no session id")?;
        if new_id <= doomed {
            return Err(format!(
                "session ids must not be reused: {new_id} after {doomed}"
            ));
        }
        Ok(())
    })();

    let _ = child.kill();
    let _ = child.wait();
    let _ = std::fs::remove_dir_all(&data_dir);
    result?;
    println!("restart-check: ok");
    Ok(())
}

/// Reads one Prometheus gauge/counter value from `/metrics`.
fn metric_value(client: &mut Client, name: &str) -> Result<u64, String> {
    let (status, body) = client
        .request("GET", "/metrics", b"")
        .map_err(|e| format!("metrics: {e}"))?;
    if status != 200 {
        return Err(format!("metrics: status {status}"));
    }
    let text = String::from_utf8_lossy(&body);
    text.lines()
        .find_map(|l| l.strip_prefix(name).and_then(|rest| rest.strip_prefix(' ')))
        .and_then(|v| v.trim().parse().ok())
        .ok_or_else(|| format!("metrics: no `{name}` sample"))
}

/// The failover check (`--failover-check <pgschema-binary>`): spawn a
/// leader and two followers, write sessions with distinct histories
/// through the leader, wait for replication lag to reach zero, verify
/// follower reads match the leader byte-for-byte and that follower
/// writes answer `421` naming the leader — then SIGKILL the leader,
/// promote one follower, and require the promoted node to serve every
/// acknowledged session identically and to accept new writes. This is
/// the zero-acked-write-loss guarantee of docs/replication.md exercised
/// across real processes.
fn run_failover_check(server_bin: &str) -> Result<(), String> {
    let scratch = std::env::temp_dir().join(format!("pgload-failover-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&scratch);
    std::fs::create_dir_all(&scratch).map_err(|e| format!("cannot create {scratch:?}: {e}"))?;

    let pick_port = || -> Result<u16, String> {
        TcpListener::bind("127.0.0.1:0")
            .and_then(|l| l.local_addr())
            .map(|a| a.port())
            .map_err(|e| format!("cannot pick a port: {e}"))
    };
    let leader_addr = format!("127.0.0.1:{}", pick_port()?);
    let f1_addr = format!("127.0.0.1:{}", pick_port()?);
    let f2_addr = format!("127.0.0.1:{}", pick_port()?);

    let spawn =
        |addr: &str, dir: &str, follow: Option<&str>| -> Result<std::process::Child, String> {
            let mut cmd = std::process::Command::new(server_bin);
            cmd.args([
                "serve",
                "--addr",
                addr,
                "--cores",
                "2",
                "--log-format",
                "off",
                "--fsync",
                "always",
                "--data-dir",
            ])
            .arg(scratch.join(dir));
            if let Some(leader) = follow {
                cmd.args(["--follow", leader]);
            }
            cmd.stdout(std::process::Stdio::null())
                .stderr(std::process::Stdio::null())
                .spawn()
                .map_err(|e| format!("cannot spawn {server_bin}: {e}"))
        };
    let wait_ready = |addr: &str| -> Result<Client, String> {
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            if let Ok(mut client) = Client::connect(addr) {
                if let Ok((200, _)) = client.request("GET", "/healthz", b"") {
                    return Ok(client);
                }
            }
            if Instant::now() >= deadline {
                return Err(format!("daemon on {addr} not ready within 10s"));
            }
            std::thread::sleep(Duration::from_millis(50));
        }
    };

    let mut children = Vec::new();
    let result = (|| -> Result<(), String> {
        children.push(spawn(&leader_addr, "leader", None)?);
        let mut leader = wait_ready(&leader_addr)?;

        // Seed the leader before the followers exist, so they must
        // bootstrap from `GET /wal/snapshot` rather than tailing from
        // sequence 1.
        let mut ids = Vec::new();
        for users in [2usize, 4, 6] {
            let (status, body) = leader
                .request("POST", sessions_target(), envelope(users).as_bytes())
                .map_err(|e| format!("create: {e}"))?;
            if status != 201 {
                return Err(format!("create: status {status}"));
            }
            let id = Json::parse(&String::from_utf8_lossy(&body))
                .ok()
                .and_then(|d| d.get("session")?.as_i64())
                .ok_or("create: no session id")?;
            ids.push((id, users));
        }

        children.push(spawn(&f1_addr, "follower-1", Some(&leader_addr))?);
        children.push(spawn(&f2_addr, "follower-2", Some(&leader_addr))?);
        let mut f1 = wait_ready(&f1_addr)?;
        let mut f2 = wait_ready(&f2_addr)?;

        // More history after the followers attached, so live tailing is
        // exercised too: one session left broken, one broken-then-
        // repaired, one untouched.
        for (i, &(id, users)) in ids.iter().enumerate() {
            let graph = sample_graph(users);
            let user = user_ids(&graph)[0];
            let deltas: u64 = match i {
                0 => 1,
                1 => 2,
                _ => 0,
            };
            for d in 0..deltas {
                let delta = json::delta_to_json(&toggle_delta(user, d));
                let (status, _) = leader
                    .request("POST", &format!("/sessions/{id}/deltas"), delta.as_bytes())
                    .map_err(|e| format!("delta: {e}"))?;
                if status != 200 {
                    return Err(format!("delta: status {status}"));
                }
            }
        }

        // Every write above was acknowledged; the oracle is the leader's
        // own view of them.
        let mut oracle = Vec::new();
        for &(id, _) in &ids {
            let (status, report) = leader
                .request("GET", &format!("/sessions/{id}/report"), b"")
                .map_err(|e| format!("oracle report: {e}"))?;
            if status != 200 {
                return Err(format!("oracle report: status {status}"));
            }
            let (status, graph) = leader
                .request("GET", &format!("/sessions/{id}/graph"), b"")
                .map_err(|e| format!("oracle graph: {e}"))?;
            if status != 200 {
                return Err(format!("oracle graph: status {status}"));
            }
            oracle.push((id, canonical_report(&report)?, graph));
        }

        // Both followers must drain their lag before the leader dies —
        // promotion only preserves what replication delivered. A
        // follower's lag gauges freeze between polls, so "lag 0" alone
        // can be a stale pre-write reading; the authoritative bar is the
        // leader's own end sequence, taken from its tail endpoint.
        let (status, headers, _) = leader
            .request_full("GET", "/wal/tail?from=1", b"")
            .map_err(|e| format!("leader tail: {e}"))?;
        if status != 200 {
            return Err(format!("leader tail: status {status}"));
        }
        // `x-wal-end-seq` is the leader's `next_seq` — one past its
        // newest record, so that is the sequence a caught-up follower
        // must have applied.
        let leader_last = headers
            .iter()
            .find(|(k, _)| k == "x-wal-end-seq")
            .and_then(|(_, v)| v.parse::<u64>().ok())
            .ok_or("leader tail: no x-wal-end-seq header")?
            .saturating_sub(1);
        for (name, follower) in [("follower-1", &mut f1), ("follower-2", &mut f2)] {
            let deadline = Instant::now() + Duration::from_secs(10);
            loop {
                let caught_up = metric_value(follower, "pgschemad_replication_last_applied_seq")
                    .map(|seq| seq >= leader_last)
                    .unwrap_or(false);
                if caught_up {
                    break;
                }
                if Instant::now() >= deadline {
                    return Err(format!(
                        "{name} did not reach leader seq {leader_last} within 10s"
                    ));
                }
                std::thread::sleep(Duration::from_millis(50));
            }
            if metric_value(follower, "pgschemad_replication_state") != Ok(2) {
                return Err(format!("{name} is not in the tailing state"));
            }
            if metric_value(follower, "pgschemad_replication_follower") != Ok(1) {
                return Err(format!("{name} does not report itself as a follower"));
            }
        }

        // Follower reads serve the leader's state byte-for-byte.
        for (name, follower) in [("follower-1", &mut f1), ("follower-2", &mut f2)] {
            for (id, report_oracle, graph_oracle) in &oracle {
                let (status, report) = follower
                    .request("GET", &format!("/sessions/{id}/report"), b"")
                    .map_err(|e| format!("{name} report: {e}"))?;
                if status != 200 {
                    return Err(format!("{name} report: status {status}"));
                }
                if &canonical_report(&report)? != report_oracle {
                    return Err(format!("{name}: session {id} report diverges from leader"));
                }
                let (status, graph) = follower
                    .request("GET", &format!("/sessions/{id}/graph"), b"")
                    .map_err(|e| format!("{name} graph: {e}"))?;
                if status != 200 {
                    return Err(format!("{name} graph: status {status}"));
                }
                if &graph != graph_oracle {
                    return Err(format!("{name}: session {id} graph diverges from leader"));
                }
            }
        }

        // Follower writes are misdirected to the leader, not applied.
        let (status, headers, _) = f1
            .request_full("POST", sessions_target(), envelope(2).as_bytes())
            .map_err(|e| format!("follower write: {e}"))?;
        if status != 421 {
            return Err(format!("follower write: expected 421, got {status}"));
        }
        let named_leader = headers
            .iter()
            .find(|(k, _)| k == "x-pgschema-leader")
            .map(|(_, v)| v.as_str());
        if named_leader != Some(leader_addr.as_str()) {
            return Err(format!(
                "follower 421 names leader {named_leader:?}, expected {leader_addr}"
            ));
        }

        // Leader loss: SIGKILL, then promote follower-1.
        children[0]
            .kill()
            .map_err(|e| format!("kill leader: {e}"))?;
        let _ = children[0].wait();
        let promote_started = Instant::now();
        let (status, body) = f1
            .request("POST", "/promote", b"")
            .map_err(|e| format!("promote: {e}"))?;
        if status != 200 {
            return Err(format!("promote: status {status}"));
        }
        let promoted = Json::parse(&String::from_utf8_lossy(&body))
            .map_err(|e| format!("promote: bad JSON: {e}"))?;
        if promoted.get("role") != Some(&Json::Str("leader".into())) {
            return Err("promote: node did not report itself leader".into());
        }
        // Time-to-first-byte after promotion: the first read the new
        // leader serves in its new role.
        let (status, _) = f1
            .request("GET", &format!("/sessions/{}/report", oracle[0].0), b"")
            .map_err(|e| format!("post-promote read: {e}"))?;
        if status != 200 {
            return Err(format!("post-promote read: status {status}"));
        }
        let failover_ms = promote_started.elapsed().as_millis();
        if metric_value(&mut f1, "pgschemad_replication_follower") != Ok(0) {
            return Err("promoted node still reports itself as a follower".into());
        }

        // Zero acked-write loss: every oracle session is intact on the
        // promoted node.
        for (id, report_oracle, graph_oracle) in &oracle {
            let (status, report) = f1
                .request("GET", &format!("/sessions/{id}/report"), b"")
                .map_err(|e| format!("promoted report: {e}"))?;
            if status != 200 {
                return Err(format!("promoted report: status {status}"));
            }
            if &canonical_report(&report)? != report_oracle {
                return Err(format!("promoted node: session {id} lost acked writes"));
            }
            let (status, graph) = f1
                .request("GET", &format!("/sessions/{id}/graph"), b"")
                .map_err(|e| format!("promoted graph: {e}"))?;
            if status != 200 || &graph != graph_oracle {
                return Err(format!("promoted node: session {id} graph diverges"));
            }
        }

        // And it takes writes now: a delta on an old session and a
        // fresh session with an id the old leader never handed out.
        let graph = sample_graph(ids[1].1);
        let user = user_ids(&graph)[0];
        let delta = json::delta_to_json(&toggle_delta(user, 2));
        let (status, _) = f1
            .request(
                "POST",
                &format!("/sessions/{}/deltas", ids[1].0),
                delta.as_bytes(),
            )
            .map_err(|e| format!("post-promote delta: {e}"))?;
        if status != 200 {
            return Err(format!("post-promote delta: status {status}"));
        }
        let (status, body) = f1
            .request("POST", sessions_target(), envelope(3).as_bytes())
            .map_err(|e| format!("post-promote create: {e}"))?;
        if status != 201 {
            return Err(format!("post-promote create: status {status}"));
        }
        let new_id = Json::parse(&String::from_utf8_lossy(&body))
            .ok()
            .and_then(|d| d.get("session")?.as_i64())
            .ok_or("post-promote create: no session id")?;
        if ids.iter().any(|&(id, _)| new_id <= id) {
            return Err(format!("session ids must not be reused: got {new_id}"));
        }

        println!("failover-check: ok (promote-to-first-read {failover_ms}ms)");
        Ok(())
    })();

    for child in &mut children {
        let _ = child.kill();
        let _ = child.wait();
    }
    let _ = std::fs::remove_dir_all(&scratch);
    result
}

/// Builds the `POST /sessions/{id}/migrate` JSON body.
fn migrate_request(action: &str, schema: Option<&str>, force: bool) -> Vec<u8> {
    let mut out = String::new();
    out.push_str("{\"action\":\"");
    out.push_str(action);
    out.push('"');
    if let Some(sdl) = schema {
        out.push_str(",\"schema\":");
        pg_server::http::push_json_string(&mut out, sdl);
    }
    if force {
        out.push_str(",\"force\":true");
    }
    out.push('}');
    out.into_bytes()
}

/// Like [`canonical_report`], but also strips the `engine` member, so a
/// session report (always `incremental`) compares against the one-shot
/// `/validate` oracles of the other engines.
fn canonical_engineless(body: &[u8]) -> Result<String, String> {
    let doc = Json::parse(&String::from_utf8_lossy(body)).map_err(|e| format!("bad JSON: {e}"))?;
    let canonical = match doc {
        Json::Object(members) => Json::Object(
            members
                .into_iter()
                .filter(|(name, _)| name != "metrics" && name != "engine")
                .collect(),
        ),
        other => other,
    };
    Ok(canonical.to_string())
}

/// The migration check (`--migrate-check <pgschema-binary>`): a live
/// dual-schema window across real processes. Plans a breaking and a
/// compatible candidate, opens a breaking window, applies deltas
/// through it, SIGKILLs the leader mid-window and requires recovery to
/// re-open the window (commit still refused), force-commits and checks
/// the post-commit report against every one-shot engine, then runs
/// a clean compatible commit and a begin/abort cycle — with a follower
/// tailing the whole history, required to finish byte-identical to the
/// leader and to answer migrate writes with `421`.
fn run_migrate_check(server_bin: &str) -> Result<(), String> {
    let breaking_sdl = SCHEMA_SDL.replace("endTime: Time!", "endTime: Time! @required");
    let compatible_sdl = SCHEMA_SDL.replace(
        "nicknames: [String!]!",
        "nicknames: [String!]!\n    note: String",
    );

    let scratch = std::env::temp_dir().join(format!("pgload-migrate-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&scratch);
    std::fs::create_dir_all(&scratch).map_err(|e| format!("cannot create {scratch:?}: {e}"))?;

    let pick_port = || -> Result<u16, String> {
        TcpListener::bind("127.0.0.1:0")
            .and_then(|l| l.local_addr())
            .map(|a| a.port())
            .map_err(|e| format!("cannot pick a port: {e}"))
    };
    let leader_addr = format!("127.0.0.1:{}", pick_port()?);
    let follower_addr = format!("127.0.0.1:{}", pick_port()?);

    let spawn =
        |addr: &str, dir: &str, follow: Option<&str>| -> Result<std::process::Child, String> {
            let mut cmd = std::process::Command::new(server_bin);
            cmd.args([
                "serve",
                "--addr",
                addr,
                "--cores",
                "2",
                "--log-format",
                "off",
                "--fsync",
                "always",
                "--data-dir",
            ])
            .arg(scratch.join(dir));
            if let Some(leader) = follow {
                cmd.args(["--follow", leader]);
            }
            cmd.stdout(std::process::Stdio::null())
                .stderr(std::process::Stdio::null())
                .spawn()
                .map_err(|e| format!("cannot spawn {server_bin}: {e}"))
        };
    let wait_ready = |addr: &str| -> Result<Client, String> {
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            if let Ok(mut client) = Client::connect(addr) {
                if let Ok((200, _)) = client.request("GET", "/healthz", b"") {
                    return Ok(client);
                }
            }
            if Instant::now() >= deadline {
                return Err(format!("daemon on {addr} not ready within 10s"));
            }
            std::thread::sleep(Duration::from_millis(50));
        }
    };

    let mut leader_child: Option<std::process::Child> = None;
    let mut follower_child: Option<std::process::Child> = None;
    let result = (|| -> Result<(), String> {
        leader_child = Some(spawn(&leader_addr, "leader", None)?);
        let mut leader = wait_ready(&leader_addr)?;

        let (status, body) = leader
            .request("POST", sessions_target(), envelope(4).as_bytes())
            .map_err(|e| format!("create: {e}"))?;
        if status != 201 {
            return Err(format!("create: status {status}"));
        }
        let id = Json::parse(&String::from_utf8_lossy(&body))
            .ok()
            .and_then(|d| d.get("session")?.as_i64())
            .ok_or("create: no session id")?;
        let migrate = format!("/sessions/{id}/migrate");

        follower_child = Some(spawn(&follower_addr, "follower", Some(&leader_addr))?);
        let mut follower = wait_ready(&follower_addr)?;

        // A caught-up barrier against the leader's own end sequence (the
        // follower's lag gauges freeze between polls).
        let wait_caught_up = |leader: &mut Client, follower: &mut Client| -> Result<(), String> {
            let (status, headers, _) = leader
                .request_full("GET", "/wal/tail?from=1", b"")
                .map_err(|e| format!("leader tail: {e}"))?;
            if status != 200 {
                return Err(format!("leader tail: status {status}"));
            }
            let leader_last = headers
                .iter()
                .find(|(k, _)| k == "x-wal-end-seq")
                .and_then(|(_, v)| v.parse::<u64>().ok())
                .ok_or("leader tail: no x-wal-end-seq header")?
                .saturating_sub(1);
            let deadline = Instant::now() + Duration::from_secs(10);
            loop {
                let caught_up = metric_value(follower, "pgschemad_replication_last_applied_seq")
                    .map(|seq| seq >= leader_last)
                    .unwrap_or(false);
                if caught_up {
                    return Ok(());
                }
                if Instant::now() >= deadline {
                    return Err(format!(
                        "follower did not reach leader seq {leader_last} within 10s"
                    ));
                }
                std::thread::sleep(Duration::from_millis(50));
            }
        };

        // Plans — read-only previews, no window opened.
        let (status, body) = leader
            .request(
                "POST",
                &migrate,
                &migrate_request("plan", Some(&breaking_sdl), false),
            )
            .map_err(|e| format!("plan breaking: {e}"))?;
        if status != 200 {
            return Err(format!("plan breaking: status {status}"));
        }
        let plan = Json::parse(&String::from_utf8_lossy(&body))
            .ok()
            .and_then(|d| d.get("plan").cloned())
            .ok_or("plan breaking: no plan member")?;
        if plan.get("compatible") != Some(&Json::Bool(false)) {
            return Err("plan breaking: `endTime @required` must preview as breaking".into());
        }
        if plan
            .get("violations_added")
            .and_then(Json::as_array)
            .is_none_or(|v| v.is_empty())
        {
            return Err("plan breaking: expected a non-empty violation preview".into());
        }
        let (status, body) = leader
            .request(
                "POST",
                &migrate,
                &migrate_request("plan", Some(&compatible_sdl), false),
            )
            .map_err(|e| format!("plan compatible: {e}"))?;
        let compatible_plan = Json::parse(&String::from_utf8_lossy(&body))
            .ok()
            .and_then(|d| d.get("plan")?.get("compatible").cloned());
        if status != 200 || compatible_plan != Some(Json::Bool(true)) {
            return Err("plan compatible: optional `note` must preview as compatible".into());
        }
        if metric_value(&mut leader, "pgschemad_migration_windows_open") != Ok(0) {
            return Err("plans must not open migration windows".into());
        }

        // Open a breaking window and run delta traffic through it.
        let (status, _) = leader
            .request(
                "POST",
                &migrate,
                &migrate_request("begin", Some(&breaking_sdl), false),
            )
            .map_err(|e| format!("begin: {e}"))?;
        if status != 200 {
            return Err(format!("begin: status {status}"));
        }
        if metric_value(&mut leader, "pgschemad_migration_windows_open") != Ok(1) {
            return Err("begin: expected one open migration window".into());
        }
        let graph = sample_graph(4);
        let user = user_ids(&graph)[0];
        for d in 0..2u64 {
            let delta = json::delta_to_json(&toggle_delta(user, d));
            let (status, _) = leader
                .request("POST", &format!("/sessions/{id}/deltas"), delta.as_bytes())
                .map_err(|e| format!("mid-window delta: {e}"))?;
            if status != 200 {
                return Err(format!("mid-window delta: status {status}"));
            }
        }
        // Mid-window, reads still serve the old schema: the follower's
        // replicated report must conform.
        wait_caught_up(&mut leader, &mut follower)?;
        let (status, body) = follower
            .request("GET", &format!("/sessions/{id}/report"), b"")
            .map_err(|e| format!("mid-window follower report: {e}"))?;
        if status != 200 {
            return Err(format!("mid-window follower report: status {status}"));
        }
        let doc = Json::parse(&String::from_utf8_lossy(&body))
            .map_err(|e| format!("mid-window follower report: bad JSON: {e}"))?;
        if doc.get("conforms") != Some(&Json::Bool(true)) {
            return Err("mid-window follower report must still use the old schema".into());
        }

        // The breaking window has regressions (sessions miss `endTime`),
        // so a plain commit is refused.
        let (status, _) = leader
            .request("POST", &migrate, &migrate_request("commit", None, false))
            .map_err(|e| format!("commit: {e}"))?;
        if status != 409 {
            return Err(format!(
                "commit with regressions: expected 409, got {status}"
            ));
        }

        // SIGKILL mid-window; the WAL-logged Begin must re-open it.
        let child = leader_child.as_mut().expect("leader spawned");
        child.kill().map_err(|e| format!("kill leader: {e}"))?;
        let _ = child.wait();
        leader_child = Some(spawn(&leader_addr, "leader", None)?);
        let mut leader = wait_ready(&leader_addr)?;
        if metric_value(&mut leader, "pgschemad_migration_windows_open") != Ok(1) {
            return Err("recovery must re-open the migration window".into());
        }
        let (status, _) = leader
            .request("POST", &migrate, &migrate_request("commit", None, false))
            .map_err(|e| format!("post-recovery commit: {e}"))?;
        if status != 409 {
            return Err(format!(
                "post-recovery commit: regressions survive recovery, expected 409, got {status}"
            ));
        }

        // Force the swap and check the session's report against the
        // four one-shot engine oracles on the session's own graph.
        let (status, _) = leader
            .request("POST", &migrate, &migrate_request("commit", None, true))
            .map_err(|e| format!("force commit: {e}"))?;
        if status != 200 {
            return Err(format!("force commit: status {status}"));
        }
        let (status, session_report) = leader
            .request("GET", &format!("/sessions/{id}/report"), b"")
            .map_err(|e| format!("post-commit report: {e}"))?;
        if status != 200 {
            return Err(format!("post-commit report: status {status}"));
        }
        let doc = Json::parse(&String::from_utf8_lossy(&session_report))
            .map_err(|e| format!("post-commit report: bad JSON: {e}"))?;
        if doc.get("conforms") != Some(&Json::Bool(false)) {
            return Err("post-commit report must be non-conforming under the new schema".into());
        }
        let (status, graph_json) = leader
            .request("GET", &format!("/sessions/{id}/graph"), b"")
            .map_err(|e| format!("post-commit graph: {e}"))?;
        if status != 200 {
            return Err(format!("post-commit graph: status {status}"));
        }
        let mut oneshot = String::new();
        oneshot.push_str("{\"schema\":");
        pg_server::http::push_json_string(&mut oneshot, &breaking_sdl);
        oneshot.push_str(",\"graph\":");
        oneshot.push_str(&String::from_utf8_lossy(&graph_json));
        oneshot.push('}');
        let session_canonical = canonical_engineless(&session_report)?;
        for &engine in pg_schema::Engine::NAMES {
            let (status, body) = leader
                .request(
                    "POST",
                    &format!("/validate?engine={engine}"),
                    oneshot.as_bytes(),
                )
                .map_err(|e| format!("oracle({engine}): {e}"))?;
            if status != 200 {
                return Err(format!("oracle({engine}): status {status}"));
            }
            if canonical_engineless(&body)? != session_canonical {
                return Err(format!(
                    "oracle({engine}): post-commit session report diverges from \
                     a from-scratch validation under the new schema"
                ));
            }
        }

        // A compatible window commits cleanly, and abort closes without
        // swapping.
        let (status, _) = leader
            .request(
                "POST",
                &migrate,
                &migrate_request("begin", Some(&compatible_sdl), false),
            )
            .map_err(|e| format!("compatible begin: {e}"))?;
        if status != 200 {
            return Err(format!("compatible begin: status {status}"));
        }
        let (status, body) = leader
            .request("POST", &migrate, &migrate_request("commit", None, false))
            .map_err(|e| format!("compatible commit: {e}"))?;
        if status != 200 {
            return Err(format!("compatible commit: status {status}"));
        }
        let doc = Json::parse(&String::from_utf8_lossy(&body))
            .map_err(|e| format!("compatible commit: bad JSON: {e}"))?;
        if doc.get("committed") != Some(&Json::Bool(true)) {
            return Err("compatible commit: expected committed:true".into());
        }
        let (status, _) = leader
            .request(
                "POST",
                &migrate,
                &migrate_request("begin", Some(&breaking_sdl), false),
            )
            .map_err(|e| format!("abort begin: {e}"))?;
        if status != 200 {
            return Err(format!("abort begin: status {status}"));
        }
        let (status, _) = leader
            .request("POST", &migrate, &migrate_request("abort", None, false))
            .map_err(|e| format!("abort: {e}"))?;
        if status != 200 {
            return Err(format!("abort: status {status}"));
        }
        if metric_value(&mut leader, "pgschemad_migration_windows_open") != Ok(0) {
            return Err("abort must close the migration window".into());
        }

        // The follower replays the whole history — kills, commits,
        // aborts — and must finish byte-identical, while refusing
        // migrate writes itself.
        wait_caught_up(&mut leader, &mut follower)?;
        let (status, leader_report) = leader
            .request("GET", &format!("/sessions/{id}/report"), b"")
            .map_err(|e| format!("final leader report: {e}"))?;
        if status != 200 {
            return Err(format!("final leader report: status {status}"));
        }
        let (status, follower_report) = follower
            .request("GET", &format!("/sessions/{id}/report"), b"")
            .map_err(|e| format!("final follower report: {e}"))?;
        if status != 200 {
            return Err(format!("final follower report: status {status}"));
        }
        if canonical_report(&leader_report)? != canonical_report(&follower_report)? {
            return Err("follower report diverges from the leader after the migration".into());
        }
        let (status, _) = follower
            .request(
                "POST",
                &migrate,
                &migrate_request("begin", Some(&compatible_sdl), false),
            )
            .map_err(|e| format!("follower migrate: {e}"))?;
        if status != 421 {
            return Err(format!("follower migrate: expected 421, got {status}"));
        }

        println!("migrate-check: ok");
        Ok(())
    })();

    for child in [&mut leader_child, &mut follower_child]
        .into_iter()
        .flatten()
    {
        let _ = child.kill();
        let _ = child.wait();
    }
    let _ = std::fs::remove_dir_all(&scratch);
    result
}

fn usage() -> ! {
    eprintln!(
        "usage: pgload --addr HOST:PORT [--mode oneshot|session|mixed] \
         [--connections N] [--duration SECS] [--users N] \
         [--engine naive|indexed|incremental] \
         [--lang sdl|pgschema] \
         [--rate REQS_PER_SEC] [--cluster HOST:PORT,HOST:PORT,...] \
         [--hold CONNECTIONS] [--smoke] \
         [--restart-check PGSCHEMA_BIN] [--failover-check PGSCHEMA_BIN] \
         [--migrate-check PGSCHEMA_BIN]"
    );
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut addr = "127.0.0.1:7878".to_owned();
    let mut mode = Mode::Oneshot;
    let mut connections = 8usize;
    let mut duration = 10u64;
    let mut users = 4usize;
    let mut engine = "indexed".to_owned();
    let mut rate: Option<f64> = None;
    let mut cluster: Option<Ring> = None;
    let mut hold: Option<usize> = None;
    let mut smoke = false;
    let mut restart_check: Option<String> = None;
    let mut failover_check: Option<String> = None;
    let mut migrate_check: Option<String> = None;

    let mut i = 0;
    while i < args.len() {
        let flag = args[i].clone();
        let value = |i: &mut usize| -> String {
            *i += 1;
            args.get(*i).cloned().unwrap_or_else(|| usage())
        };
        match flag.as_str() {
            "--addr" => addr = value(&mut i),
            "--mode" => {
                mode = match value(&mut i).as_str() {
                    "oneshot" => Mode::Oneshot,
                    "session" => Mode::Session,
                    "mixed" => Mode::Mixed,
                    _ => usage(),
                }
            }
            "--connections" => connections = value(&mut i).parse().unwrap_or_else(|_| usage()),
            "--duration" => duration = value(&mut i).parse().unwrap_or_else(|_| usage()),
            "--users" => users = value(&mut i).parse().unwrap_or_else(|_| usage()),
            "--engine" => engine = value(&mut i),
            "--lang" => {
                let lang: pg_pgschema::SchemaLanguage = match value(&mut i).parse() {
                    Ok(lang) => lang,
                    Err(e) => {
                        eprintln!("pgload: --lang: {e}");
                        usage();
                    }
                };
                USE_PGSCHEMA.store(
                    lang == pg_pgschema::SchemaLanguage::PgSchema,
                    Ordering::Relaxed,
                );
            }
            "--rate" => {
                let r: f64 = value(&mut i).parse().unwrap_or_else(|_| usage());
                if r <= 0.0 || !r.is_finite() {
                    usage();
                }
                rate = Some(r);
            }
            "--cluster" => {
                let nodes: Vec<String> = value(&mut i)
                    .split(',')
                    .map(|n| n.trim().to_owned())
                    .filter(|n| !n.is_empty())
                    .collect();
                if nodes.is_empty() {
                    usage();
                }
                cluster = Some(Ring::new(nodes));
            }
            "--hold" => hold = Some(value(&mut i).parse().unwrap_or_else(|_| usage())),
            "--smoke" => smoke = true,
            "--restart-check" => restart_check = Some(value(&mut i)),
            "--failover-check" => failover_check = Some(value(&mut i)),
            "--migrate-check" => migrate_check = Some(value(&mut i)),
            "--help" | "-h" => usage(),
            _ => usage(),
        }
        i += 1;
    }

    if let Some(server_bin) = restart_check {
        if let Err(message) = run_restart_check(&server_bin) {
            eprintln!("restart-check: FAIL: {message}");
            std::process::exit(1);
        }
        return;
    }
    if let Some(server_bin) = failover_check {
        if let Err(message) = run_failover_check(&server_bin) {
            eprintln!("failover-check: FAIL: {message}");
            std::process::exit(1);
        }
        return;
    }
    if let Some(server_bin) = migrate_check {
        if let Err(message) = run_migrate_check(&server_bin) {
            eprintln!("migrate-check: FAIL: {message}");
            std::process::exit(1);
        }
        return;
    }
    if smoke {
        if let Err(message) = run_smoke(&addr) {
            eprintln!("smoke: FAIL: {message}");
            std::process::exit(1);
        }
        return;
    }
    if let Some(count) = hold {
        if let Err(message) = run_hold(&addr, count, duration) {
            eprintln!("hold: FAIL: {message}");
            std::process::exit(1);
        }
        return;
    }
    run_load(
        &addr,
        cluster.as_ref(),
        mode,
        connections,
        duration,
        users,
        &engine,
        rate,
    );
}
