//! Where the benchmark runs: which CPUs the daemon and the load generator
//! get, and how fast the daemon's CPU is running while it is measured.
//!
//! On a shared host a CPU's speed moves from one minute to the next (a
//! busy neighbour on the same physical core or cache), and every timed
//! figure of a run moves with it. So the load generator times a fixed
//! kernel of its own, [`unit`], on the daemon's CPU at moments when the
//! daemon is idle, and the end-to-end figures are scaled by how much
//! slower than [`REFERENCE_UNIT_NS`] it ran. The kernel runs none of the
//! program's code: a change to the program does not move it.

use crate::stats::median;
use std::hint::black_box;
use std::os::raw::c_int;
use std::time::{Duration, Instant};

extern "C" {
    fn sched_getaffinity(pid: c_int, size: usize, mask: *mut u64) -> c_int;
    fn sched_setaffinity(pid: c_int, size: usize, mask: *const u64) -> c_int;
}

/// A CPU set, as the kernel's `cpu_set_t` (1024 CPUs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CpuSet([u64; 16]);

impl CpuSet {
    /// The CPUs the calling thread may run on.
    pub fn current() -> Result<CpuSet, String> {
        let mut mask = [0u64; 16];
        // SAFETY: `mask` is a writable buffer of the size passed.
        let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
        if rc != 0 {
            return Err(format!(
                "sched_getaffinity: {}",
                std::io::Error::last_os_error()
            ));
        }
        Ok(CpuSet(mask))
    }

    /// The set holding only `cpus`.
    pub fn of(cpus: &[usize]) -> CpuSet {
        let mut mask = [0u64; 16];
        for &c in cpus {
            mask[c / 64] |= 1 << (c % 64);
        }
        CpuSet(mask)
    }

    /// The CPUs in the set, ascending.
    pub fn cpus(&self) -> Vec<usize> {
        (0..1024)
            .filter(|&c| self.0[c / 64] >> (c % 64) & 1 == 1)
            .collect()
    }

    /// Restricts the calling thread (and the processes and threads it
    /// starts from now on) to the set. Async-signal-safe: a child may call
    /// it between fork and exec.
    pub fn pin_current(&self) -> std::io::Result<()> {
        // SAFETY: `self.0` is a readable buffer of the size passed.
        let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&self.0), self.0.as_ptr()) };
        if rc == 0 {
            Ok(())
        } else {
            Err(std::io::Error::last_os_error())
        }
    }
}

/// Which CPUs the daemon and the load generator run on.
#[derive(Debug, Clone, Copy)]
pub struct Placement {
    /// The load generator's CPU: the first one the benchmark may use.
    pub loadgen: CpuSet,
    /// The daemon's CPUs: every other one (the same one on a single CPU).
    pub daemon: CpuSet,
    /// How many CPUs were split.
    pub cpus: usize,
}

impl Placement {
    /// Splits the CPUs this process may use; on one CPU both share it.
    pub fn split() -> Result<Placement, String> {
        let cpus = CpuSet::current()?.cpus();
        let (first, rest) = cpus.split_first().ok_or("no CPU to run on")?;
        let daemon = if rest.is_empty() { &cpus[..] } else { rest };
        Ok(Placement {
            loadgen: CpuSet::of(&[*first]),
            daemon: CpuSet::of(daemon),
            cpus: cpus.len(),
        })
    }

    /// The daemon's first CPU, where the speed probe runs.
    pub fn probe_cpu(&self) -> CpuSet {
        CpuSet::of(&self.daemon.cpus()[..1])
    }
}

/// Nanoseconds [`unit`] takes on the reference host (a 2-vCPU Intel Xeon
/// virtual machine, quiet): the speed every scaled figure is quoted at.
pub const REFERENCE_UNIT_NS: f64 = 85_000.0;

/// Table the kernel reads and writes: 256 KiB, past L1, inside L2.
const TABLE: usize = 32_768;
/// Kernel steps in one unit: about 85 µs on the reference host.
const STEPS: usize = 12_000;

/// One unit of the speed probe: pseudo-random table reads and writes,
/// a chain of float multiply-adds and unpredictable branches, the mix the
/// schedulers' inner loops run. Returns its wall time, ns.
pub fn unit() -> f64 {
    let mut table = vec![1.0f64; TABLE];
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut acc = 0.0f64;
    let t = Instant::now();
    for _ in 0..STEPS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let i = x as usize & (TABLE - 1);
        let v = table[i];
        acc = acc * 0.999 + v;
        table[i] = v * 1.000_001 + 1e-9;
        if x >> 63 == 1 {
            acc -= 0.5;
        }
    }
    let ns = t.elapsed().as_nanos() as f64;
    black_box((acc, &table));
    ns
}

/// How often the lock-step loops take one probe sample.
const SAMPLE_EVERY: Duration = Duration::from_millis(20);

/// Speed-probe samples taken through one phase of a run, and the wall
/// time they took (left out of the phase's timed span).
#[derive(Debug, Default, Clone)]
pub struct Probe {
    /// Wall time of each unit, ns.
    pub unit_ns: Vec<f64>,
    /// Wall time spent probing, pinning included.
    pub spent: Duration,
    last: Option<Instant>,
    cpu: Option<(CpuSet, CpuSet)>,
}

impl Probe {
    /// A probe that runs on `probe` and returns the calling thread to
    /// `home` afterwards.
    pub fn on(placement: &Placement) -> Probe {
        Probe {
            cpu: Some((placement.probe_cpu(), placement.loadgen)),
            ..Probe::default()
        }
    }

    /// Takes `units` samples now.
    pub fn burst(&mut self, units: usize) {
        let t = Instant::now();
        // A failed pin leaves the sample on the load generator's CPU.
        if let Some((probe, _)) = &self.cpu {
            let _ = probe.pin_current();
        }
        for _ in 0..units {
            self.unit_ns.push(unit());
        }
        if let Some((_, home)) = &self.cpu {
            let _ = home.pin_current();
        }
        self.spent += t.elapsed();
        self.last = Some(Instant::now());
    }

    /// Takes one sample if the last was [`SAMPLE_EVERY`] ago or longer.
    pub fn tick(&mut self) {
        if self.last.is_none_or(|l| l.elapsed() >= SAMPLE_EVERY) {
            self.burst(1);
        }
    }

    /// Adds another phase's samples.
    pub fn absorb(&mut self, other: &Probe) {
        self.unit_ns.extend_from_slice(&other.unit_ns);
        self.spent += other.spent;
    }

    /// How much slower than the reference host the probe ran (median
    /// unit over [`REFERENCE_UNIT_NS`]); 1 without samples.
    pub fn slowdown(&self) -> f64 {
        if self.unit_ns.is_empty() {
            1.0
        } else {
            median(&self.unit_ns) / REFERENCE_UNIT_NS
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_sets_round_trip() {
        let s = CpuSet::of(&[0, 3, 64, 1023]);
        assert_eq!(s.cpus(), vec![0, 3, 64, 1023]);
        let here = CpuSet::current().unwrap();
        assert!(!here.cpus().is_empty());
        let p = Placement::split().unwrap();
        assert_eq!(p.loadgen.cpus().len(), 1);
        assert!(!p.daemon.cpus().is_empty());
    }

    /// Prints the probe's unit time on this host, the figure
    /// [`REFERENCE_UNIT_NS`] records for the reference host:
    /// `cargo test --release -- --ignored --nocapture unit_time`.
    #[test]
    #[ignore]
    fn unit_time() {
        let mut p = Probe::default();
        p.burst(200);
        let mut v = p.unit_ns.clone();
        v.sort_by(f64::total_cmp);
        eprintln!("unit ns: min {} p50 {} max {}", v[0], v[100], v[199]);
    }

    #[test]
    fn the_probe_measures_and_tallies() {
        let mut p = Probe::default();
        assert_eq!(p.slowdown(), 1.0);
        p.burst(3);
        p.tick(); // too soon after the burst
        assert_eq!(p.unit_ns.len(), 3);
        assert!(p.unit_ns.iter().all(|&ns| ns > 0.0));
        assert!(p.slowdown() > 0.0);
        let mut q = Probe::default();
        q.absorb(&p);
        assert_eq!(q.unit_ns.len(), 3);
    }
}
