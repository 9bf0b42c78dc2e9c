//! The daemon under test: `gridsec serve` as a child process, plus the
//! `/proc` readings taken from outside it.

use crate::host::CpuSet;
use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::os::unix::process::CommandExt;
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};

/// Kernel clock ticks per second for `/proc` tick counts (`USER_HZ`, 100
/// on every Linux ABI).
const CLOCK_TICKS: f64 = 100.0;

/// A running `gridsec serve` child. Dropping it kills and reaps the
/// process if it has not exited yet.
pub struct Daemon {
    child: Child,
    /// Kept open so the daemon never writes into a closed pipe.
    _stdout: BufReader<ChildStdout>,
    /// The bound NDJSON address.
    pub addr: SocketAddr,
}

/// How the daemon is launched.
pub struct Launch<'a> {
    /// The `gridsec` binary.
    pub bin: &'a Path,
    /// The experiment spec file.
    pub spec: &'a Path,
    /// `--virtual-clock`.
    pub virtual_clock: bool,
    /// `--shards`.
    pub shards: usize,
    /// `--threads` (the rayon pool).
    pub threads: usize,
    /// `--io-threads` (the epoll pool).
    pub io_threads: usize,
    /// The CPUs the daemon runs on.
    pub cpus: CpuSet,
}

impl Daemon {
    /// Starts the daemon on an ephemeral loopback port and waits for the
    /// banner that names the bound address.
    pub fn spawn(launch: &Launch<'_>) -> Result<Daemon, String> {
        let mut cmd = Command::new(launch.bin);
        cmd.arg("serve")
            .arg(launch.spec)
            .args(["--bind", "127.0.0.1:0"])
            .args(["--shards", &launch.shards.to_string()])
            .args(["--io-threads", &launch.io_threads.to_string()])
            .args(["--threads", &launch.threads.to_string()])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit());
        if launch.virtual_clock {
            cmd.arg("--virtual-clock");
        }
        let cpus = launch.cpus;
        // SAFETY: the hook only makes the async-signal-safe
        // `sched_setaffinity` system call.
        unsafe {
            cmd.pre_exec(move || cpus.pin_current());
        }
        let mut child = cmd
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", launch.bin.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut line = String::new();
        let addr = loop {
            line.clear();
            let n = stdout.read_line(&mut line).unwrap_or(0);
            if n == 0 {
                let _ = child.kill();
                let _ = child.wait();
                return Err("daemon exited before printing its address".into());
            }
            // "gridsec-serve: <scheduler> × 1 shard(s) on 127.0.0.1:PORT (...)"
            if let Some(rest) = line.strip_prefix("gridsec-serve: ") {
                if let Some((_, after)) = rest.split_once(" on ") {
                    let token = after.split_whitespace().next().unwrap_or("");
                    match token.parse() {
                        Ok(a) => break a,
                        Err(_) => return Err(format!("unparseable daemon banner: {line}")),
                    }
                }
            }
        };
        Ok(Daemon {
            child,
            _stdout: stdout,
            addr,
        })
    }

    /// The child's process id.
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Peak resident set (`VmHWM`), MiB.
    pub fn peak_rss_mib(&self) -> Result<f64, String> {
        let status = read_proc(self.pid(), "status")?;
        let kib = status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.split_whitespace().next())
            .and_then(|v| v.parse::<f64>().ok())
            .ok_or("no VmHWM in /proc status")?;
        Ok(kib / 1024.0)
    }

    /// The daemon's soft `RLIMIT_NOFILE` (it raises its own at start).
    pub fn nofile_limit(&self) -> Option<u64> {
        nofile_limit_of(&format!("/proc/{}/limits", self.pid()))
    }

    /// Waits for the daemon to exit after a `shutdown` frame.
    pub fn wait(mut self) -> Result<(), String> {
        let status = self.child.wait().map_err(|e| e.to_string())?;
        if status.success() {
            Ok(())
        } else {
            Err(format!("daemon exited with {status}"))
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if matches!(self.child.try_wait(), Ok(None)) {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// User + system CPU seconds process `pid` has consumed so far, all
/// threads, those that have exited included: `/proc/<pid>/stat` utime +
/// stime, at clock-tick (10 ms) resolution.
pub fn cpu_seconds(pid: u32) -> Result<f64, String> {
    let stat = read_proc(pid, "stat")?;
    // utime and stime are fields 14 and 15 of the line: 11 and 12 after
    // the parenthesised command name.
    let after = stat
        .rsplit_once(')')
        .map(|(_, a)| a)
        .ok_or("malformed /proc stat")?;
    let fields: Vec<&str> = after.split_whitespace().collect();
    let ticks = |i: usize| -> Result<f64, String> {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .ok_or_else(|| "malformed /proc stat".to_string())
    };
    Ok((ticks(11)? + ticks(12)?) / CLOCK_TICKS)
}

fn read_proc(pid: u32, file: &str) -> Result<String, String> {
    std::fs::read_to_string(format!("/proc/{pid}/{file}"))
        .map_err(|e| format!("cannot read /proc/{pid}/{file}: {e}"))
}

/// Host-wide `(steal, total)` CPU ticks from `/proc/stat`.
pub fn host_steal() -> Option<(u64, u64)> {
    let ticks = host_ticks()?;
    Some((*ticks.get(7)?, ticks.iter().take(8).sum()))
}

/// The aggregate `cpu` line of `/proc/stat`: user nice system idle
/// iowait irq softirq steal ..., in clock ticks.
fn host_ticks() -> Option<Vec<u64>> {
    let text = std::fs::read_to_string("/proc/stat").ok()?;
    Some(
        text.lines()
            .next()?
            .strip_prefix("cpu ")?
            .split_whitespace()
            .filter_map(|t| t.parse().ok())
            .collect(),
    )
}

/// The soft "Max open files" limit from a `/proc/*/limits` file.
pub fn nofile_limit_of(path: &str) -> Option<u64> {
    let text = std::fs::read_to_string(path).ok()?;
    let line = text.lines().find(|l| l.starts_with("Max open files"))?;
    line["Max open files".len()..]
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}
