//! The measured phase: per-op latencies, and the CPU time of the process
//! under test, sampled at the end of every one-second window of the phase.
//!
//! Throughput, CPU per op and median latency are read off the windows on
//! their slow side, not totalled over the phase. On a shared host the
//! speed of a virtual CPU moves between a fast and a slow state, up to
//! 1.7× apart, in stretches of a few to tens of seconds; a whole-phase
//! total is a mixture of the two whose shares change from run to run.
//! The slow state is a steadier plateau that nearly every run visits for
//! more than a tenth of its windows, so the slow-side decile of the
//! windows reads it (perfbench/README.md gives the measured spreads):
//!
//! * `ops_per_s`: the rate reached in nine of ten windows (the 10th
//!   percentile of per-window rates);
//! * `cpu_ms_per_op`: the CPU per op not exceeded in nine of ten windows
//!   (the 90th percentile of per-window CPU per op);
//! * `latency_p50_ms`: the median latency not exceeded in nine of ten
//!   windows (the 90th percentile of per-window medians).
//!
//! A program change moves both states alike, so it moves these figures
//! by its own share. The whole-phase figures and every window stay in the
//! result record.
//!
//! `latency_p99_ms` is [`stats::block_p99`] when the phase has two blocks
//! of ops or more. A shorter phase (the bulk workload's few dozen ops)
//! has no p99 of its own; it reports each window's tail
//! ([`stats::tail_or_max`]: with two or three ops a window, its slowest
//! op) on the same slow side, which never reads below `latency_p50_ms`
//! for windows of up to ten ops.

use std::io;
use std::time::Instant;

use crate::out::json_number;
use crate::stats;
use crate::sys;

/// Length of one window. A window closes at the first op that ends
/// after this much wall time, so it always holds at least one op.
const WINDOW_S: f64 = 1.0;

/// The slow-side decile of the windows (see the module docs).
const DECILE: f64 = 0.1;

/// Measured-phase bookkeeping for one process under test.
pub struct Meter {
    pid: String,
    seconds: f64,
    started: Instant,
    cpu_at_start: f64,
    window_started: Instant,
    window_cpu_ms: f64,
    window_first: usize,
    windows: Vec<Window>,
    latencies_ms: Vec<f64>,
}

/// One window of the measured phase.
#[derive(Debug, Clone, Copy)]
pub struct Window {
    /// Ops completed in it.
    pub ops: usize,
    /// Its wall time.
    pub wall_s: f64,
    /// CPU time the process under test used in it.
    pub cpu_ms: f64,
    /// Median latency of its ops.
    pub p50_ms: f64,
    /// Tail latency of its ops, by [`stats::tail_or_max`].
    pub tail_ms: f64,
    /// The percentile `tail_ms` is.
    pub tail_pct: f64,
}

/// The end-to-end figures of a measured phase.
#[derive(Debug, Clone)]
pub struct Summary {
    /// Ops per second reached in nine of ten windows.
    pub ops_per_s: f64,
    /// Median op latency not exceeded in nine of ten windows.
    pub latency_p50_ms: f64,
    /// Tail op latency: [`stats::block_p99`] when the phase has enough
    /// ops, otherwise the window tail not exceeded in nine of ten windows.
    pub latency_tail_ms: f64,
    /// The percentile the tail is (the lowest any window used, for the
    /// window tail).
    pub tail_percentile: f64,
    /// CPU time of the process under test per op, not exceeded in nine
    /// of ten windows.
    pub cpu_ms_per_op: f64,
    /// Completed ops.
    pub ops: usize,
    /// Completed ops per second of the whole phase.
    pub phase_ops_per_s: f64,
    /// CPU time per op over the whole phase.
    pub phase_cpu_ms_per_op: f64,
    /// Median latency over the whole phase.
    pub phase_p50_ms: f64,
    /// The windows, in order.
    pub windows: Vec<Window>,
}

impl Meter {
    /// Starts measuring `pid` (`"self"` for this process) for `seconds`.
    pub fn start(pid: &str, seconds: f64) -> io::Result<Meter> {
        let cpu_ms = sys::cpu_ms(pid)?;
        let now = Instant::now();
        Ok(Meter {
            pid: pid.to_owned(),
            seconds,
            started: now,
            cpu_at_start: cpu_ms,
            window_started: now,
            window_cpu_ms: cpu_ms,
            window_first: 0,
            windows: Vec::new(),
            latencies_ms: Vec::new(),
        })
    }

    /// True until the phase's time is up.
    pub fn running(&self) -> bool {
        self.started.elapsed().as_secs_f64() < self.seconds
    }

    /// Records one completed op.
    pub fn record(&mut self, latency_ms: f64) -> io::Result<()> {
        self.latencies_ms.push(latency_ms);
        if self.window_started.elapsed().as_secs_f64() >= WINDOW_S {
            self.close_window()?;
        }
        Ok(())
    }

    fn close_window(&mut self) -> io::Result<()> {
        let cpu_ms = sys::cpu_ms(&self.pid)?;
        let now = Instant::now();
        let latencies = &self.latencies_ms[self.window_first..];
        let (tail_pct, tail_ms) = stats::tail_or_max(latencies);
        self.windows.push(Window {
            ops: latencies.len(),
            wall_s: (now - self.window_started).as_secs_f64(),
            cpu_ms: cpu_ms - self.window_cpu_ms,
            p50_ms: stats::median(latencies),
            tail_ms,
            tail_pct,
        });
        self.window_started = now;
        self.window_cpu_ms = cpu_ms;
        self.window_first = self.latencies_ms.len();
        Ok(())
    }

    /// Ends the phase. A last, partial window counts when it is at
    /// least half a window long, or when it is the only one.
    pub fn finish(mut self) -> io::Result<Summary> {
        if self.latencies_ms.len() > self.window_first
            && (self.windows.is_empty()
                || self.window_started.elapsed().as_secs_f64() >= WINDOW_S / 2.0)
        {
            self.close_window()?;
        }
        let wall_s = self.started.elapsed().as_secs_f64();
        let cpu_ms = sys::cpu_ms(&self.pid)? - self.cpu_at_start;
        let ops = self.latencies_ms.len();
        let over_windows = |f: &dyn Fn(&Window) -> f64, q: f64| {
            let values: Vec<f64> = self.windows.iter().map(f).collect();
            stats::quantile_sorted(&stats::sorted(&values), q).unwrap_or(0.0)
        };
        let (tail_percentile, latency_tail_ms) = match stats::block_p99(&self.latencies_ms) {
            Some(p99) => (99.0, p99),
            None => (
                self.windows.iter().map(|w| w.tail_pct).fold(100.0, f64::min),
                over_windows(&|w| w.tail_ms, 1.0 - DECILE),
            ),
        };
        Ok(Summary {
            ops_per_s: over_windows(&|w| w.ops as f64 / w.wall_s, DECILE),
            latency_p50_ms: over_windows(&|w| w.p50_ms, 1.0 - DECILE),
            latency_tail_ms,
            tail_percentile,
            cpu_ms_per_op: over_windows(&|w| w.cpu_ms / w.ops as f64, 1.0 - DECILE),
            ops,
            phase_ops_per_s: ops as f64 / wall_s,
            phase_cpu_ms_per_op: cpu_ms / ops.max(1) as f64,
            phase_p50_ms: stats::median(&self.latencies_ms),
            windows: self.windows,
        })
    }
}

impl Summary {
    /// The windows as a JSON array of `[ops, wall_s, cpu_ms, p50_ms,
    /// tail_ms]`.
    pub fn windows_json(&self) -> String {
        let rows: Vec<String> = self
            .windows
            .iter()
            .map(|w| {
                format!(
                    "[{}, {}, {}, {}, {}]",
                    w.ops,
                    json_number(w.wall_s),
                    json_number(w.cpu_ms),
                    json_number(w.p50_ms),
                    json_number(w.tail_ms)
                )
            })
            .collect();
        format!("[{}]", rows.join(", "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_phase_runs_for_its_time_and_summarises_its_ops() {
        let mut m = Meter::start("self", 0.02).unwrap();
        let mut n = 0;
        while m.running() {
            std::thread::sleep(std::time::Duration::from_millis(1));
            m.record(1.0 + (n % 3) as f64).unwrap();
            n += 1;
        }
        let s = m.finish().unwrap();
        assert_eq!(s.ops, n);
        assert_eq!(s.phase_p50_ms, 2.0);
        assert!(s.ops_per_s > 0.0);
        // Shorter than a window: the one partial window holds every op.
        assert_eq!(s.windows.len(), 1);
        assert_eq!(s.windows[0].ops, n);
        assert_eq!(s.latency_p50_ms, 2.0);
    }
}
