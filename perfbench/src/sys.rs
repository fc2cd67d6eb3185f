//! The process under test: spawning it, talking to it over loopback
//! HTTP, and reading its resource use from `/proc`.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::time::Duration;

/// Resource counters of one process, read from `/proc/<pid>`.
#[derive(Debug, Clone, Copy, Default)]
pub struct Usage {
    /// Peak resident set (`VmHWM`) in KiB.
    pub hwm_kib: u64,
    /// Bytes the process caused to be sent to storage (`write_bytes`).
    pub write_bytes: u64,
}

/// Reads [`Usage`] of `pid` (`"self"` for this process).
pub fn usage(pid: &str) -> io::Result<Usage> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status"))?;
    let hwm_kib = field(&status, "VmHWM:").unwrap_or(0);
    let io = std::fs::read_to_string(format!("/proc/{pid}/io"))?;
    let write_bytes = field(&io, "write_bytes:").unwrap_or(0);
    Ok(Usage {
        hwm_kib,
        write_bytes,
    })
}

/// User + system CPU time of `pid` (`"self"` for this process) in
/// milliseconds, summed over its threads' scheduler run times
/// (`/proc/<pid>/task/*/schedstat`, nanoseconds), so a one-second window
/// reads it to the microsecond rather than to the 10 ms clock tick.
pub fn cpu_ms(pid: &str) -> io::Result<f64> {
    let mut ns = 0u64;
    for task in std::fs::read_dir(format!("/proc/{pid}/task"))? {
        let path = task?.path().join("schedstat");
        // A thread that has just exited has no schedstat left.
        let Ok(text) = std::fs::read_to_string(path) else {
            continue;
        };
        ns += text
            .split_whitespace()
            .next()
            .and_then(|f| f.parse::<u64>().ok())
            .unwrap_or(0);
    }
    Ok(ns as f64 / 1e6)
}

fn field(text: &str, key: &str) -> Option<u64> {
    text.lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|v| v.parse().ok())
}

/// A CPU set as `sched_getaffinity(2)` takes it: 1024 CPUs.
type CpuSet = [u64; 16];

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
}

/// Pins this process — and so every process it starts — to the highest
/// CPU it may run on. The load generator and the process under test
/// then share one CPU: in a closed loop only one of them runs at a
/// time, and a round trip never waits for the host to wake a second,
/// idle virtual CPU, a wait that varied threefold between runs on a
/// shared 2-CPU VM. Call it while the process has one thread.
pub fn pin_to_one_cpu() -> io::Result<()> {
    let mut allowed: CpuSet = [0; 16];
    // SAFETY: the kernel writes at most `size_of::<CpuSet>()` bytes
    // into `allowed`, which lives for the call.
    if unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut allowed) } != 0 {
        return Err(io::Error::last_os_error());
    }
    let (word, bits) = allowed
        .iter()
        .enumerate()
        .rev()
        .find(|(_, bits)| **bits != 0)
        .ok_or_else(|| io::Error::other("no CPU allowed"))?;
    let mut one: CpuSet = [0; 16];
    one[word] = 1 << (63 - bits.leading_zeros());
    // SAFETY: the kernel reads `size_of::<CpuSet>()` bytes from `one`.
    if unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &one) } != 0 {
        return Err(io::Error::last_os_error());
    }
    Ok(())
}

/// A child process of this benchmark binary (the daemon or the bulk
/// worker). Dropping it kills and reaps the process, so no run leaves
/// one behind.
pub struct Worker {
    child: Child,
    stdin: Option<ChildStdin>,
    stdout: BufReader<ChildStdout>,
}

impl Worker {
    /// Starts `perfbench <args…>` with piped stdin and stdout.
    pub fn spawn(args: &[&str]) -> io::Result<Worker> {
        let exe = std::env::current_exe()?;
        let mut child = Command::new(exe)
            .args(args)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()?;
        let stdin = child.stdin.take();
        let stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        Ok(Worker {
            child,
            stdin,
            stdout,
        })
    }

    /// The child's pid, as `/proc` names it.
    pub fn pid(&self) -> String {
        self.child.id().to_string()
    }

    /// The next line the child prints; an error at end of output.
    pub fn read_line(&mut self) -> io::Result<String> {
        let mut line = String::new();
        if self.stdout.read_line(&mut line)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "worker exited without answering",
            ));
        }
        Ok(line.trim_end().to_owned())
    }

    /// Sends one line to the child's stdin.
    pub fn send(&mut self, line: &str) -> io::Result<()> {
        let stdin = self.stdin.as_mut().ok_or(io::ErrorKind::BrokenPipe)?;
        writeln!(stdin, "{line}")?;
        stdin.flush()
    }

    /// Closes the child's stdin (its signal to drain and exit) and
    /// waits for it; an error unless it exits with status 0.
    pub fn finish(mut self) -> io::Result<()> {
        drop(self.stdin.take());
        let status = self.child.wait()?;
        if status.success() {
            Ok(())
        } else {
            Err(io::Error::other(format!("worker exited with {status}")))
        }
    }

    /// Kills the child with SIGKILL — a crash, leaving only what it had
    /// written — and reaps it.
    pub fn crash(mut self) -> io::Result<()> {
        self.child.kill()?;
        self.child.wait()?;
        Ok(())
    }
}

impl Drop for Worker {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// A daemon child serving on loopback.
pub struct Daemon {
    /// The process.
    pub worker: Worker,
    /// `127.0.0.1:<port>`.
    pub addr: String,
}

impl Daemon {
    /// Starts `perfbench serve` with one reactor core, in memory or on
    /// `data_dir` with `--fsync always`, and waits until it listens.
    pub fn start(data_dir: Option<&Path>) -> io::Result<Daemon> {
        let dir = data_dir.map(|d| d.display().to_string());
        let mut worker = match &dir {
            Some(dir) => Worker::spawn(&["serve", "--data-dir", dir])?,
            None => Worker::spawn(&["serve"])?,
        };
        let line = worker.read_line()?;
        let addr = line
            .strip_prefix("listening ")
            .ok_or_else(|| io::Error::other(format!("unexpected daemon greeting {line:?}")))?
            .to_owned();
        Ok(Daemon { worker, addr })
    }

    /// A keep-alive client connection.
    pub fn connect(&self) -> io::Result<Client> {
        Client::connect(&self.addr)
    }

    /// Graceful shutdown: drain, flush the store, exit.
    pub fn stop(self) -> io::Result<()> {
        self.worker.finish()
    }
}

/// A minimal HTTP/1.1 keep-alive client: one request in flight, bodies
/// framed by `content-length` (the only framing the daemon uses on the
/// routes this benchmark calls).
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    /// Requests sent on this connection.
    pub sent: u64,
}

/// A response: status and body.
pub struct Reply {
    /// HTTP status.
    pub status: u16,
    /// Body bytes.
    pub body: Vec<u8>,
}

impl Reply {
    /// The body as text (the daemon answers UTF-8 JSON or text).
    pub fn text(&self) -> &str {
        std::str::from_utf8(&self.body).unwrap_or("")
    }
}

impl Client {
    /// Connects with `TCP_NODELAY`, as a latency-sensitive caller does.
    pub fn connect(addr: &str) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(60)))?;
        Ok(Client {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
            sent: 0,
        })
    }

    /// Sends one request and reads its response.
    pub fn request(&mut self, method: &str, path: &str, body: &[u8]) -> io::Result<Reply> {
        let head = format!(
            "{method} {path} HTTP/1.1\r\nhost: bench\r\ncontent-type: application/json\r\n\
             content-length: {}\r\n\r\n",
            body.len()
        );
        self.sent += 1;
        self.writer.write_all(head.as_bytes())?;
        self.writer.write_all(body)?;
        self.writer.flush()?;
        let mut line = String::new();
        self.reader.read_line(&mut line)?;
        let status = line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| io::Error::other(format!("bad status line {line:?}")))?;
        let mut length = None;
        loop {
            line.clear();
            if self.reader.read_line(&mut line)? == 0 {
                return Err(io::ErrorKind::UnexpectedEof.into());
            }
            let header = line.trim_end();
            if header.is_empty() {
                break;
            }
            if let Some((name, value)) = header.split_once(':') {
                if name.eq_ignore_ascii_case("content-length") {
                    length = value.trim().parse::<usize>().ok();
                }
            }
        }
        let length = length.ok_or_else(|| io::Error::other("response without content-length"))?;
        let mut body = vec![0; length];
        self.reader.read_exact(&mut body)?;
        Ok(Reply { status, body })
    }
}
