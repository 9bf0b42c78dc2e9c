//! The three workloads: what the daemon is started with, the job stream
//! the load generator sends, and how each run warms up.

use gridsec_core::{Grid, Job, RiskMode, Time};
use gridsec_heuristics::{Mct, Sufferage};
use gridsec_sim::{BatchPolicy, BatchScheduler, ShardPlan, SimConfig};
use gridsec_stga::{GaParams, Stga, StgaParams};
use gridsec_workloads::PsaConfig;

/// Workload names, in the order `--self-test` runs them.
pub const NAMES: [&str; 3] = ["stga-online", "sufferage-bulk", "wire-mix"];

/// Open-loop submit rate of `wire-mix`, frames per second (one job per
/// frame): below saturation (the daemon spends ~75 µs of CPU per frame,
/// 0.4 of one of 2 cores), so the latencies measure the serving path,
/// not a queue; yet busy enough that the CPUs rarely halt between
/// frames. At 2000 frames/s they did, and on a virtual machine waking a
/// halted CPU goes through the hypervisor: the p50s then spread twice
/// as much from run to run.
pub const WIRE_MIX_RATE: f64 = 5000.0;

/// Virtual seconds between `sufferage-bulk` batch boundaries: at the PSA
/// arrival rate of 0.008 jobs/s this gives batches of about 300 jobs.
const BULK_INTERVAL: f64 = 37_500.0;

/// Wall seconds between `wire-mix` timer-fired rounds.
const WIRE_MIX_INTERVAL: f64 = 0.05;

/// Jobs `sufferage-bulk` may send in one run. The daemon answers
/// `query what=schedule` with one frame holding every assignment, and a
/// frame larger than the daemon's 8 MiB write bound closes the
/// connection; at ~70 bytes per assignment this cap keeps the frame
/// near 5 MiB. A run ends at `--seconds` or at the cap, whichever is
/// first.
const BULK_JOB_CAP: usize = 72_000;

/// The PSA generator config whose grid every workload runs on (its
/// own default seed); the spec hands it to the daemon with one job.
fn grid_config() -> PsaConfig {
    PsaConfig::default().with_n_jobs(1)
}

/// Which workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// STGA, Table-1 parameters, `hybrid:16` batching, virtual clock.
    StgaOnline,
    /// f-risky Sufferage, periodic batches of ~300 jobs, virtual clock.
    SufferageBulk,
    /// Immediate-mode MCT on 2 shards, wall clock, open-loop submits.
    WireMix,
}

/// How a run warms the daemon up before its timed phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Warmup {
    /// Lock-step submit frames until the daemon reports this many rounds.
    Rounds(usize),
    /// Exactly this many lock-step submit frames.
    Frames(usize),
}

/// One workload instance, fully determined by its name, seed and size.
pub struct Workload {
    /// Which workload.
    pub kind: Kind,
    /// The `--seed`: job stream, simulator and GA streams.
    pub seed: u64,
    /// The Table-1 PSA grid (20 single-node sites), the same for every
    /// seed: 20 sites are too few for their seeded speeds and security
    /// levels to average out, and the benchmark compares runs across
    /// seeds.
    pub grid: Grid,
    /// The job stream, in arrival order; a run sends a prefix of it.
    pub jobs: Vec<Job>,
    /// The daemon's batching configuration.
    pub sim: SimConfig,
    /// STGA parameters (only read by `stga-online`).
    pub stga: StgaParams,
    /// The warm-up prefix rule.
    pub warmup: Warmup,
    /// Jobs per submit frame.
    pub frame_jobs: usize,
    /// Open-loop submit rate (frames/s) on the daemon's wall clock;
    /// `None` = a closed loop on its virtual clock.
    pub rate: Option<f64>,
    /// Grid shards the daemon serves.
    pub shards: usize,
    /// Daemon launches per run; `setup_s` is their median. A set-up of
    /// ~50 ms is mostly process start-up, whose time the host's load moves
    /// more than a set-up of a second; more launches keep the median of the
    /// short ones steady.
    pub setups: usize,
    /// The last launches each serve one timed segment of `--seconds /
    /// segments`. Where a daemon's threads land on the host's CPUs is
    /// settled at launch and moved `stga-online`'s CPU cost per job by up
    /// to a quarter from one launch to the next, so a run samples several
    /// launches and reports the median segment. A `sufferage-bulk`
    /// segment stops at [`BULK_JOB_CAP`] jobs (~3 s), so it takes five
    /// segments to fill most of a 20 s run.
    pub segments: usize,
}

impl Workload {
    /// Builds the named workload for a run of `seconds`. `tiny` shrinks it
    /// to a seconds-long smoke size (the self-test).
    pub fn new(name: &str, seed: u64, seconds: f64, tiny: bool) -> Result<Workload, String> {
        let kind = match name {
            "stga-online" => Kind::StgaOnline,
            "sufferage-bulk" => Kind::SufferageBulk,
            "wire-mix" => Kind::WireMix,
            other => return Err(format!("unknown workload `{other}`")),
        };
        let mut stga = StgaParams {
            ga: GaParams::default().with_seed(seed),
            ..StgaParams::default()
        };
        if tiny {
            stga.ga = stga.ga.with_population(30).with_generations(10);
        }
        let base = SimConfig::default().with_seed(seed);
        let (sim, warmup, frame_jobs, rate, shards, n_jobs) = match kind {
            Kind::StgaOnline => {
                let warm = if tiny { 10 } else { stga.table_capacity };
                // ~8 jobs per round; generous headroom over the fastest
                // round rate the GA loop reaches on one core.
                let n = 10 * warm + (8_000.0 * seconds) as usize;
                let sim = base.with_batch_policy(BatchPolicy::Hybrid(16));
                (sim, Warmup::Rounds(warm), 10, None, 1, n)
            }
            Kind::SufferageBulk => {
                let interval = if tiny {
                    BULK_INTERVAL / 10.0
                } else {
                    BULK_INTERVAL
                };
                let sim = base
                    .with_batch_policy(BatchPolicy::Periodic)
                    .with_interval(Time::new(interval));
                let n = if tiny { 3_000 } else { BULK_JOB_CAP };
                (sim, Warmup::Rounds(3), 10, None, 1, n)
            }
            Kind::WireMix => {
                let rate = if tiny { 500.0 } else { WIRE_MIX_RATE };
                let warm = if tiny { 50 } else { 1_000 };
                let sim = base
                    .with_batch_policy(BatchPolicy::Periodic)
                    .with_interval(Time::new(WIRE_MIX_INTERVAL));
                let n = warm + (rate * seconds).ceil() as usize + 1;
                (sim, Warmup::Frames(warm), 1, Some(rate), 2, n)
            }
        };
        let jobs = PsaConfig::default()
            .with_n_jobs(n_jobs)
            .with_seed(seed)
            .generate()
            .map_err(|e| e.to_string())?
            .jobs;
        Ok(Workload {
            kind,
            seed,
            grid: grid_config().generate().map_err(|e| e.to_string())?.grid,
            jobs,
            sim,
            stga,
            warmup,
            frame_jobs,
            rate,
            shards,
            setups: match (tiny, kind) {
                (true, _) => 3,
                (false, Kind::StgaOnline) => 7,
                (false, _) => 25,
            },
            segments: match (tiny, kind) {
                (false, Kind::SufferageBulk) => 5,
                _ => 3,
            },
        })
    }

    /// The scheduler the daemon builds from [`Workload::spec_json`],
    /// built in-process for the no-wire passes.
    pub fn scheduler(&self) -> Result<Box<dyn BatchScheduler + Send>, String> {
        Ok(match self.kind {
            Kind::StgaOnline => Box::new(Stga::new(self.stga).map_err(|e| e.to_string())?),
            Kind::SufferageBulk => Box::new(Sufferage::new(RiskMode::FRisky(0.5))),
            Kind::WireMix => Box::new(Mct::new(RiskMode::Risky)),
        })
    }

    /// The `gridsec serve` experiment spec: the fixed PSA grid (the spec's
    /// own workload is one job, used for nothing — serving traffic arrives
    /// over the wire), the scheduler, and the batching config.
    pub fn spec_json(&self) -> Result<String, String> {
        let scheduler = match self.kind {
            Kind::StgaOnline => format!(
                r#"{{"algorithm":"stga","params":{},"train_batch":0}}"#,
                json(&self.stga)?
            ),
            Kind::SufferageBulk => format!(
                r#"{{"algorithm":"sufferage","mode":{}}}"#,
                json(&RiskMode::FRisky(0.5))?
            ),
            Kind::WireMix => format!(
                r#"{{"algorithm":"mct","mode":{}}}"#,
                json(&RiskMode::Risky)?
            ),
        };
        Ok(format!(
            r#"{{"workload":{{"kind":"psa","config":{}}},"schedulers":[{}],"sim":{}}}"#,
            json(&grid_config())?,
            scheduler,
            json(&self.sim)?
        ))
    }

    /// Splits the stream into submit frames of `frame_jobs` consecutive
    /// jobs. When the daemon is sharded each frame is tagged with a shard
    /// its first job fits (round-robin over those); a job that does not
    /// fit its frame's shard is refused, which fails the run.
    pub fn frames(&self) -> Result<Vec<Frame>, String> {
        let plan = ShardPlan::contiguous(&self.grid, self.shards).map_err(|e| e.to_string())?;
        let mut out = Vec::with_capacity(self.jobs.len() / self.frame_jobs + 1);
        for (k, jobs) in self.jobs.chunks(self.frame_jobs).enumerate() {
            let shard = if self.shards > 1 {
                let first = &jobs[0];
                let eligible = plan.eligible_shards(&self.grid, first);
                let pick = first.id.0 as usize % eligible.len().max(1);
                let shard = eligible
                    .get(pick)
                    .ok_or(format!("job {} fits no shard", first.id));
                Some(*shard?)
            } else {
                None
            };
            let request = gridsec_serve::Request::Submit {
                jobs: jobs.to_vec(),
                shard,
                tenant: None,
            };
            let start = k * self.frame_jobs;
            out.push(Frame {
                line: gridsec_serve::protocol::encode(&request),
                jobs: start..start + jobs.len(),
            });
        }
        Ok(out)
    }
}

/// One pre-encoded submit frame.
pub struct Frame {
    /// The NDJSON line, newline included.
    pub line: String,
    /// The stream indices of the jobs it carries.
    pub jobs: std::ops::Range<usize>,
}

fn json<T: serde::Serialize>(value: &T) -> Result<String, String> {
    serde_json::to_string(value).map_err(|e| e.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workloads_are_seed_deterministic() {
        for name in NAMES {
            let a = Workload::new(name, 7, 1.0, true).unwrap();
            let b = Workload::new(name, 7, 1.0, true).unwrap();
            assert_eq!(a.jobs, b.jobs);
            assert_eq!(a.spec_json().unwrap(), b.spec_json().unwrap());
            let c = Workload::new(name, 8, 1.0, true).unwrap();
            assert_ne!(a.jobs, c.jobs);
        }
        assert!(Workload::new("nope", 1, 1.0, true).is_err());
    }

    #[test]
    fn frames_cover_the_stream_in_order() {
        for name in NAMES {
            let w = Workload::new(name, 3, 1.0, true).unwrap();
            let frames = w.frames().unwrap();
            let mut next = 0;
            for f in &frames {
                assert_eq!(f.jobs.start, next);
                assert!(f.jobs.len() <= w.frame_jobs);
                assert!(f.line.ends_with('\n'));
                next = f.jobs.end;
            }
            assert_eq!(next, w.jobs.len());
        }
    }
}
