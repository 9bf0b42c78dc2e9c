//! In-process passes: the same stream through the daemon's layers without
//! the wire, each public entry point timed from outside.

use crate::stats::quantile;
use crate::workload::Workload;
use gridsec_core::etc::NodeAvailability;
use gridsec_core::{BatchSchedule, Job, RiskMode, Time};
use gridsec_heuristics::common::{Fallback, MapCtx};
use gridsec_obs::TraceEvent;
use gridsec_serve::protocol::{encode, parse_request};
use gridsec_serve::{OnlineSession, Placed, Response};
use gridsec_sim::{BatchJob, BatchScheduler, GridView};
use gridsec_stga::fitness::FitnessKind;
use gridsec_stga::{FitnessKernel, KernelScratch};
use std::collections::HashMap;
use std::hint::black_box;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Timed-phase batches the probe keeps for the kernel pass.
const CAPTURE_BATCHES: usize = 64;

/// One scheduling round's input, kept for replay.
pub struct Captured {
    batch: Vec<BatchJob>,
    avail: Vec<NodeAvailability>,
    now: Time,
}

#[derive(Default)]
struct ProbeState {
    timed: bool,
    /// `(batch size, nanoseconds)` per timed-phase call.
    calls: Vec<(usize, u64)>,
    captured: Vec<Captured>,
}

/// A [`BatchScheduler`] decorator timing every `schedule` call of the
/// scheduler it wraps and capturing the first timed-phase rounds.
struct Probe {
    inner: Box<dyn BatchScheduler + Send>,
    state: Arc<Mutex<ProbeState>>,
}

impl BatchScheduler for Probe {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn schedule(&mut self, batch: &[BatchJob], view: &GridView<'_>) -> BatchSchedule {
        let t = Instant::now();
        let out = self.inner.schedule(batch, view);
        let nanos = t.elapsed().as_nanos() as u64;
        let mut s = self.state.lock().expect("probe state");
        if s.timed {
            s.calls.push((batch.len(), nanos));
            if s.captured.len() < CAPTURE_BATCHES {
                s.captured.push(Captured {
                    batch: batch.to_vec(),
                    avail: view.avail_clone(),
                    now: view.now,
                });
            }
        }
        out
    }

    fn on_reconfigure(&mut self) {
        self.inner.on_reconfigure();
    }
}

/// What the no-wire session pass measured.
pub struct SessionRun {
    /// The session's committed schedule.
    pub assignments: Vec<Placed>,
    /// Wall seconds of the timed-phase jobs' submits plus the drain.
    pub timed_wall_s: f64,
    /// Per-job `submit` nanoseconds over the timed phase.
    pub submit_ns: Vec<f64>,
    /// Per-round `(batch size, ns)` over the timed phase (probed runs).
    pub sched_calls: Vec<(usize, u64)>,
    /// Captured timed-phase rounds (probed runs).
    pub captured: Vec<Captured>,
}

/// Replays `jobs` through an in-process [`OnlineSession`] built like the
/// daemon's, then drains. Jobs from index `timed_from` on form the timed
/// phase. With `probe`, the scheduler is wrapped in the timing decorator.
pub fn session_pass(
    wl: &Workload,
    jobs: &[Job],
    timed_from: usize,
    probe: bool,
) -> Result<SessionRun, String> {
    let state = Arc::new(Mutex::new(ProbeState::default()));
    let scheduler: Box<dyn BatchScheduler + Send> = if probe {
        Box::new(Probe {
            inner: wl.scheduler()?,
            state: state.clone(),
        })
    } else {
        wl.scheduler()?
    };
    let mut session =
        OnlineSession::new(wl.grid.clone(), scheduler, &wl.sim).map_err(|e| e.to_string())?;
    let mut submit_ns = Vec::with_capacity(jobs.len().saturating_sub(timed_from));
    let mut t0 = Instant::now();
    for (i, job) in jobs.iter().enumerate() {
        if i == timed_from {
            state.lock().expect("probe state").timed = true;
            t0 = Instant::now();
        }
        let t = Instant::now();
        session.submit(job.clone()).map_err(|e| e.to_string())?;
        if i >= timed_from {
            submit_ns.push(t.elapsed().as_nanos() as f64);
        }
    }
    session.drain().map_err(|e| e.to_string())?;
    let timed_wall_s = t0.elapsed().as_secs_f64();
    let mut s = state.lock().expect("probe state");
    Ok(SessionRun {
        assignments: session.assignments().to_vec(),
        timed_wall_s,
        submit_ns,
        sched_calls: std::mem::take(&mut s.calls),
        captured: std::mem::take(&mut s.captured),
    })
}

/// Kernel pass result.
pub struct KernelRun {
    /// Median `FitnessKernel::compile` time, µs.
    pub compile_us_p50: f64,
    /// Median `evaluate_full` time per chromosome, ns.
    pub eval_full_ns_p50: f64,
}

/// Replays captured rounds through the STGA's fitness path:
/// `MapCtx::build(..).with_ffd_order()`, `FitnessKernel::compile`, then
/// `evaluate_full` over random feasible chromosomes.
pub fn kernel_pass(wl: &Workload, captured: &[Captured]) -> KernelRun {
    const COMPILES: usize = 8;
    const CHROMOSOMES: usize = 64;
    let flow_weight = wl.stga.ga.flow_weight;
    let mut rng = SplitMix(wl.seed);
    let mut compile_us = Vec::new();
    let mut eval_ns = Vec::new();
    let mut scratch = KernelScratch::default();
    let mut cts = Vec::new();
    for c in captured {
        let view = GridView {
            grid: &wl.grid,
            avail: &c.avail,
            now: c.now,
            model: wl.sim.security,
        };
        let ctx =
            MapCtx::build(&c.batch, &view, RiskMode::Risky, Fallback::default()).with_ffd_order();
        let mut kernel = FitnessKernel::default();
        for _ in 0..COMPILES {
            let t = Instant::now();
            kernel = black_box(FitnessKernel::compile(
                &ctx,
                &c.avail,
                FitnessKind::Makespan,
                None,
                flow_weight,
            ));
            compile_us.push(t.elapsed().as_nanos() as f64 / 1e3);
        }
        let genes: Vec<Vec<u16>> = (0..CHROMOSOMES)
            .map(|_| {
                ctx.candidates
                    .iter()
                    .map(|cands| cands[rng.below(cands.len())] as u16)
                    .collect()
            })
            .collect();
        let t = Instant::now();
        for g in &genes {
            black_box(kernel.evaluate_full(g, &mut cts, &mut scratch));
        }
        eval_ns.push(t.elapsed().as_nanos() as f64 / CHROMOSOMES as f64);
    }
    KernelRun {
        compile_us_p50: quantile(&compile_us, 0.5),
        eval_full_ns_p50: quantile(&eval_ns, 0.5),
    }
}

/// Protocol pass result.
pub struct ProtocolRun {
    /// Mean `parse_request` time per request frame, ns.
    pub decode_ns: f64,
    /// Mean `encode` time per response frame, ns.
    pub encode_ns: f64,
    /// Mean request frame size, bytes (newline included).
    pub bytes: f64,
}

/// Runs the workload's request frames through `parse_request` and its
/// responses through `encode`, the daemon's codec entry points.
pub fn protocol_pass(requests: &[&str], responses: &[Response]) -> Result<ProtocolRun, String> {
    let t = Instant::now();
    for line in requests {
        let body = line.trim_end_matches('\n').as_bytes();
        if black_box(parse_request(body))?.is_none() {
            return Err("a request frame decoded as empty".into());
        }
    }
    let decode_ns = t.elapsed().as_nanos() as f64 / requests.len().max(1) as f64;
    let t = Instant::now();
    for r in responses {
        black_box(encode(r));
    }
    let encode_ns = t.elapsed().as_nanos() as f64 / responses.len().max(1) as f64;
    let bytes =
        requests.iter().map(|l| l.len()).sum::<usize>() as f64 / requests.len().max(1) as f64;
    Ok(ProtocolRun {
        decode_ns,
        encode_ns,
        bytes,
    })
}

/// Durations (µs) of every complete span named `name` in a trace dump,
/// pairing `begin`/`end` per thread (spans nest but never interleave on
/// one thread).
pub fn span_us(events: &[TraceEvent], name: &str) -> Vec<f64> {
    let mut open: HashMap<u64, Vec<u64>> = HashMap::new();
    let mut out = Vec::new();
    for e in events.iter().filter(|e| e.name == name) {
        match e.kind.as_str() {
            "begin" => open.entry(e.thread).or_default().push(e.t_nanos),
            "end" => {
                if let Some(start) = open.get_mut(&e.thread).and_then(Vec::pop) {
                    out.push(e.t_nanos.saturating_sub(start) as f64 / 1e3);
                }
            }
            _ => {}
        }
    }
    out
}

/// A small deterministic generator for the kernel pass's chromosomes.
struct SplitMix(u64);

impl SplitMix {
    fn below(&mut self, n: usize) -> usize {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        ((z ^ (z >> 31)) % n as u64) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(t: u64, thread: u64, kind: &str, name: &str) -> TraceEvent {
        TraceEvent {
            t_nanos: t,
            thread,
            kind: kind.into(),
            name: name.into(),
            fields: Vec::new(),
        }
    }

    #[test]
    fn spans_pair_per_thread_and_nest() {
        let events = vec![
            ev(0, 1, "begin", "round"),
            ev(1_000, 2, "begin", "round"),
            ev(2_000, 1, "begin", "stga_eval"),
            ev(5_000, 1, "end", "stga_eval"),
            ev(6_000, 2, "end", "round"),
            ev(9_000, 1, "end", "round"),
            ev(9_500, 1, "end", "round"), // unmatched end: ignored
        ];
        assert_eq!(span_us(&events, "round"), vec![5.0, 9.0]);
        assert_eq!(span_us(&events, "stga_eval"), vec![3.0]);
        assert!(span_us(&events, "kernel_compile").is_empty());
    }
}
