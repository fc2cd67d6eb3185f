//! The pg-schema benchmark. One command runs a named workload, checks
//! its outputs, and prints its metrics as the last line of stdout:
//!
//! ```text
//! perfbench --workload <validate-bulk|session-durable>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` it prints the end-to-end metrics; with `--trace 1`
//! the per-layer metrics, from spans it records around each call into a
//! layer. Every run also keeps a full record (inputs, environment,
//! trace summary) under `.bench_work/results/`. Internal subcommands:
//! `serve` (the daemon under test), `bulk-worker` (the bulk process
//! under test) and `compare <parent-dir> <change-dir>`.

mod bulk;
mod compare;
mod durable;
mod gen;
mod layers;
mod meter;
mod metrics;
mod out;
mod run;
mod stats;
mod sys;
mod trace;

use std::io::{BufRead, Write};
use std::process::ExitCode;

use pg_server::{LogFormat, Server, ServerConfig};
use pg_store::FsyncPolicy;

/// `perfbench serve [--data-dir D]`: the daemon with one reactor core
/// on a loopback port, durable with `--fsync always` under a data dir,
/// otherwise in memory; every other setting is the daemon's default.
/// Prints `listening <addr>` once bound and drains and exits when stdin
/// closes.
fn serve(args: &[String]) -> Result<(), String> {
    let mut builder = ServerConfig::builder()
        .addr("127.0.0.1:0")
        .cores(1)
        .log_format(LogFormat::Off);
    match args {
        [] => {}
        [flag, dir] if flag == "--data-dir" => {
            builder = builder.data_dir(dir).fsync(FsyncPolicy::Always);
        }
        _ => return Err(format!("unexpected serve arguments {args:?}")),
    }
    let server = Server::bind(builder.build()).map_err(|e| format!("bind: {e}"))?;
    let handle = server.serve().map_err(|e| format!("serve: {e}"))?;
    let mut stdout = std::io::stdout();
    writeln!(stdout, "listening {}", handle.local_addr()).map_err(|e| e.to_string())?;
    stdout.flush().map_err(|e| e.to_string())?;
    let mut line = String::new();
    while std::io::stdin()
        .lock()
        .read_line(&mut line)
        .is_ok_and(|n| n > 0)
    {
        line.clear();
    }
    handle.shutdown();
    handle.join().map_err(|e| format!("drain: {e}"))
}

fn bench(args: &[String]) -> Result<(), String> {
    let (workload, seed, seconds, trace, scale) = run::parse_args(args)?;
    let ctx = run::context(
        std::path::Path::new("."),
        &workload,
        seed,
        seconds,
        trace,
        scale,
    )?;
    sys::pin_to_one_cpu().map_err(|e| format!("pin to one CPU: {e}"))?;
    let outcome = run::execute(&ctx)?;
    let line = run::report(&ctx, &outcome)?;
    println!("{line}");
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("serve") => serve(&args[1..]),
        Some("bulk-worker") => bulk::worker(&args[1..]),
        Some("compare") => compare::main(&args[1..]),
        _ => bench(&args),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("perfbench: {message}");
            ExitCode::FAILURE
        }
    }
}
