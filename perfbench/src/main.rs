//! `perfbench` — the repeatable benchmark of the `gridsec-serve` daemon.
//!
//! Starts `gridsec serve` as a child process and drives it over the
//! NDJSON wire from this one process (at most two threads, two
//! connections):
//!
//! ```console
//! perfbench --gridsec <bin> --workload stga-online --seed 1 --seconds 10 --trace 0
//! perfbench --gridsec <bin> --workload all --seed 1 --seconds 10 --trace 0
//! perfbench --gridsec <bin> --self-test
//! ```
//!
//! `--trace 0` reports the end-to-end metrics; `--trace 1` adds the
//! in-process layer passes and the flight-recorder fetch, and reports the
//! per-layer metrics instead. Every run checks the served schedule. The
//! last stdout line is one JSON object: `correct`, `attempted`, `failed`,
//! `metrics`. See `perfbench/README.md` for every workload and metric.

mod check;
mod daemon;
mod drive;
mod host;
mod layers;
mod stats;
mod workload;

use daemon::{Daemon, Launch};
use drive::{Control, Ops, PollLog, SubmitLog};
use gridsec_core::{Job, Time};
use gridsec_obs::TraceEvent;
use gridsec_serve::{Client, ServeMetrics};
use host::{Placement, Probe};
use stats::{chunked_quantile, mean, median, quantile};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::time::Instant;
use workload::{Frame, Workload};

/// Seconds of lock-step queries the closed-loop workloads send after
/// each segment's drain.
const QUERY_SECONDS: f64 = 0.5;

/// Smallest chunk behind a chunked p50 and p99: at least ten samples
/// above the p99 of every chunk.
const P50_CHUNK: usize = 100;
const P99_CHUNK: usize = 1000;

/// Connections of this load generator, and its threads at most: the
/// submitter and the query poller (the closed loop queries after
/// submitting, on the submitter's thread). Both run on one CPU.
const LOADGEN_THREADS: usize = 2;

const USAGE: &str = "usage: perfbench --gridsec <bin> --workload <name> --seed <n> \
                     --seconds <s> --trace <0|1> [--work-dir <dir>] [--repo-root <dir>]\n       \
                     perfbench --gridsec <bin> --self-test [--work-dir <dir>]\n\
                     workloads: stga-online, sufferage-bulk, wire-mix; all runs the three in turn";

struct Args {
    gridsec: PathBuf,
    work_dir: PathBuf,
    repo_root: PathBuf,
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    self_test: bool,
}

impl Args {
    fn parse(raw: &[String]) -> Result<Args, String> {
        let mut a = Args {
            gridsec: PathBuf::new(),
            work_dir: PathBuf::from("perfbench/target/work"),
            repo_root: PathBuf::from("."),
            workload: None,
            seed: 1,
            seconds: 10.0,
            trace: false,
            self_test: false,
        };
        let mut it = raw.iter();
        while let Some(flag) = it.next() {
            if flag == "--self-test" {
                a.self_test = true;
                continue;
            }
            let value = it.next().ok_or(format!("{flag} needs a value"))?;
            let bad = || format!("bad value for {flag}: {value}");
            match flag.as_str() {
                "--gridsec" => a.gridsec = PathBuf::from(value),
                "--work-dir" => a.work_dir = PathBuf::from(value),
                "--repo-root" => a.repo_root = PathBuf::from(value),
                "--workload" => a.workload = Some(value.clone()),
                "--seed" => a.seed = value.parse().map_err(|_| bad())?,
                "--seconds" => a.seconds = value.parse().map_err(|_| bad())?,
                "--trace" => {
                    a.trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                    }
                }
                other => return Err(format!("unknown option {other}")),
            }
        }
        if a.gridsec.as_os_str().is_empty() {
            return Err("--gridsec is required".into());
        }
        if !(a.seconds > 0.0 && a.seconds <= 60.0) {
            return Err("--seconds must be in (0, 60]".into());
        }
        if !a.self_test && a.workload.is_none() {
            return Err("--workload is required".into());
        }
        Ok(a)
    }
}

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match Args::parse(&raw) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    // The load generator keeps one CPU, the daemon gets the others.
    let placement = match Placement::split() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    };
    if let Err(e) = placement.loadgen.pin_current() {
        eprintln!("error: cannot pin the load generator: {e}");
        std::process::exit(1);
    }
    let threads = pool_threads(&placement);
    if let Err(e) = rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build_global()
    {
        eprintln!("error: cannot size the worker pool: {e}");
        std::process::exit(1);
    }
    let code = if args.self_test {
        self_test(&args, &placement)
    } else {
        let name = args.workload.as_deref().unwrap_or_default();
        let names = if name == "all" {
            workload::NAMES.to_vec()
        } else {
            vec![name]
        };
        let mut code = 0;
        for name in names {
            let cfg = RunConfig {
                args: &args,
                placement: &placement,
                name,
                seed: args.seed,
                seconds: args.seconds,
                trace: args.trace,
                tiny: false,
            };
            match run(&cfg) {
                Ok(out) => {
                    out.print();
                    if !out.correct {
                        code = 1;
                    }
                }
                Err(e) => {
                    eprintln!("perfbench: {name}: {e}");
                    code = 1;
                }
            }
        }
        code
    };
    std::process::exit(code);
}

/// Runs every workload at a tiny size with the traced passes and every
/// check; exit 0 only if all three are correct.
fn self_test(args: &Args, placement: &Placement) -> i32 {
    let mut code = 0;
    for name in workload::NAMES {
        let cfg = RunConfig {
            args,
            placement,
            name,
            seed: 1,
            seconds: 1.0,
            trace: true,
            tiny: true,
        };
        match run(&cfg) {
            Ok(out) if out.correct => eprintln!(
                "self-test {name}: ok ({} ops, {} metrics)",
                out.attempted,
                out.metrics.len()
            ),
            Ok(out) => {
                eprintln!("self-test {name}: FAILED: {}", out.failures.join("; "));
                code = 1;
            }
            Err(e) => {
                eprintln!("self-test {name}: FAILED: {e}");
                code = 1;
            }
        }
    }
    code
}

/// The daemon's rayon pool, and the in-process passes' alike: one thread
/// per CPU the daemon is pinned to. On 2 CPUs that is one thread; there a
/// 2-thread pool ran `stga-online` about 12% slower and at about 1.5× the
/// CPU per job (medians of five runs each), its ~50 µs parallel regions
/// too short to pay for waking a second worker.
fn pool_threads(placement: &Placement) -> usize {
    placement.daemon.cpus().len()
}

struct RunConfig<'a> {
    args: &'a Args,
    placement: &'a Placement,
    name: &'a str,
    seed: u64,
    seconds: f64,
    trace: bool,
    tiny: bool,
}

/// One reported metric.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
    /// Samples behind the value (1 for a ratio of totals).
    samples: usize,
}

/// A run's result.
struct Outcome {
    host: String,
    correct: bool,
    failures: Vec<String>,
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
    /// End-to-end figures printed beside the metrics but left out of the
    /// result object: too much at the host's mercy to bound (see README).
    unbounded: Vec<Metric>,
}

impl Outcome {
    /// The host line, one line per metric with its sample count, then the
    /// result object as the last line.
    fn print(&self) {
        println!("{}", self.host);
        for f in &self.failures {
            println!("check failed: {f}");
        }
        for m in &self.metrics {
            println!(
                "{:<30} {:>16.4} {:<6} samples={}",
                m.name, m.value, m.unit, m.samples
            );
        }
        for m in &self.unbounded {
            println!(
                "{:<30} {:>16.4} {:<6} samples={} (unbounded, not in the result)",
                m.name, m.value, m.unit, m.samples
            );
        }
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    r#""{}": {{"value": {}, "unit": "{}"}}"#,
                    m.name, m.value, m.unit
                )
            })
            .collect();
        println!(
            r#"{{"correct": {}, "attempted": {}, "failed": {}, "metrics": {{{}}}}}"#,
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        );
    }
}

/// Connects with `TCP_NODELAY`, returning the lock-step client and a
/// second handle on the same socket for the open-loop sender.
fn connect(addr: SocketAddr) -> Result<(Client, TcpStream), String> {
    let stream = TcpStream::connect(addr).map_err(|e| e.to_string())?;
    stream.set_nodelay(true).map_err(|e| e.to_string())?;
    let raw = stream.try_clone().map_err(|e| e.to_string())?;
    Ok((Client::from_stream(stream).map_err(|e| e.to_string())?, raw))
}

/// A launched, warmed-up daemon.
struct Setup {
    launched: Instant,
    daemon: Daemon,
    client: Client,
    raw: TcpStream,
    warm: SubmitLog,
    /// The speed-probe samples taken through the warm-up.
    probe: Probe,
    /// The first frame after the warm-up prefix.
    start: usize,
}

impl Setup {
    /// Launches the daemon and sends the warm-up prefix: the span
    /// `setup_s` times.
    fn new(
        launch: &Launch<'_>,
        placement: &Placement,
        wl: &Workload,
        frames: &[Frame],
    ) -> Result<Setup, String> {
        let launched = Instant::now();
        let daemon = Daemon::spawn(launch)?;
        let (mut client, raw) = connect(daemon.addr)?;
        let mut warm = SubmitLog::default();
        let mut probe = Probe::on(placement);
        let start = drive::warm_up(&mut client, frames, wl.warmup, &mut warm, &mut probe)?;
        Ok(Setup {
            launched,
            daemon,
            client,
            raw,
            warm,
            probe,
            start,
        })
    }

    /// Seconds from launch to the end of the warm-up, probing left out.
    fn seconds(&self) -> f64 {
        (self.launched.elapsed() - self.probe.spent).as_secs_f64()
    }

    /// Shuts an unmeasured daemon down.
    fn close(mut self, ops: &mut Ops) -> Result<(), String> {
        ops.add(self.warm.ops);
        Control {
            client: &mut self.client,
            ops,
        }
        .shutdown()?;
        self.daemon.wait()
    }
}

/// The timed figures of a run's segments.
struct Figures {
    /// Jobs per second, per segment.
    rates: Vec<f64>,
    /// Daemon CPU ms per 1000 jobs, per segment.
    cpu_ms_per_kjob: Vec<f64>,
    /// Submit and query round trips of every segment, µs.
    submit_rtt: Vec<f64>,
    query_rtt: Vec<f64>,
}

/// What one daemon's timed segment measured.
struct Segment {
    timed: SubmitLog,
    poll: PollLog,
    m0: ServeMetrics,
    m1: ServeMetrics,
    events: Vec<TraceEvent>,
    session: Option<layers::SessionRun>,
    /// Wall seconds from the first timed submit to the drain reply,
    /// probing left out.
    wall_s: f64,
    /// The speed-probe samples taken through the timed phase.
    probe: Probe,
    /// Daemon CPU seconds over the same span.
    cpu_s: f64,
    drain_us: f64,
    rss_mib: f64,
    steal: Option<f64>,
    nofile: Option<u64>,
}

/// Runs a timed segment of `seconds` on a set-up daemon, reads it, shuts
/// it down and checks what it served. Check failures go to `failures`.
fn measure(
    cfg: &RunConfig<'_>,
    wl: &Workload,
    frames: &[Frame],
    setup: Setup,
    seconds: f64,
    ops: &mut Ops,
    failures: &mut Vec<String>,
) -> Result<Segment, String> {
    let Setup {
        launched,
        daemon,
        mut client,
        raw,
        warm,
        start,
        ..
    } = setup;
    let nofile = daemon.nofile_limit();
    let (mut query_client, query_raw) = connect(daemon.addr)?;
    let mut ctl = Control {
        client: &mut client,
        ops,
    };
    let m0 = ctl.metrics()?;
    let pid = daemon.pid();
    let steal0 = daemon::host_steal();
    let cpu0 = daemon::cpu_seconds(pid)?;
    let mut probe = Probe::on(cfg.placement);
    let t0 = Instant::now();
    let mut polled = None;
    let timed = match wl.rate {
        None => {
            let mut timed = SubmitLog::default();
            drive::closed_loop(ctl.client, frames, start, seconds, &mut timed, &mut probe)?;
            timed
        }
        Some(rate) => {
            let (timed, poll) = drive::open_loop_probed(
                &raw, &query_raw, frames, start, rate, seconds, &mut probe,
            )?;
            polled = Some(poll);
            timed
        }
    };
    let submitted = Instant::now();
    let steal = daemon::host_steal().zip(steal0).map(|(b, a)| {
        let total = b.1.saturating_sub(a.1).max(1);
        b.0.saturating_sub(a.0) as f64 / total as f64
    });
    ctl.drain()?;
    let drain_us = submitted.elapsed().as_secs_f64() * 1e6;
    let wall_s = (t0.elapsed() - probe.spent).as_secs_f64();
    let cpu_s = daemon::cpu_seconds(pid)? - cpu0;
    let poll = match polled {
        Some(p) => p,
        None => drive::query_burst(&mut query_client, QUERY_SECONDS)?,
    };
    let rss_mib = daemon.peak_rss_mib()?;
    let m1 = ctl.metrics()?;
    let events = if cfg.trace {
        ctl.trace_dump()?
    } else {
        Vec::new()
    };
    let served = ctl.schedule(wl.shards)?;
    ctl.shutdown()?;
    daemon.wait()?;
    ops.add(warm.ops);
    ops.add(timed.ops);
    ops.add(poll.ops);

    // Checks.
    let open_loop = wl.rate.is_some();
    let sent_at: Vec<Instant> = warm.sent_at.iter().chain(&timed.sent_at).copied().collect();
    let accepted: Vec<Job> = warm
        .accepted_frames
        .iter()
        .chain(&timed.accepted_frames)
        .flat_map(|&f| {
            let mut jobs = wl.jobs[frames[f].jobs.clone()].to_vec();
            if open_loop {
                // The daemon stamps arrivals from its own clock; the
                // in-process replay uses the client's send instants.
                let at = Time::new(sent_at[f].duration_since(launched).as_secs_f64());
                jobs.iter_mut().for_each(|j| j.arrival = at);
            }
            jobs
        })
        .collect();
    let mut note = |r: Result<(), String>| {
        if let Err(e) = r {
            failures.push(e);
        }
    };
    note(check::schedule_valid(&served, &accepted, &wl.grid));
    note(check::ledger(accepted.len(), &m1, &served));
    let session = if cfg.trace || !open_loop {
        Some(layers::session_pass(wl, &accepted, warm.jobs, cfg.trace)?)
    } else {
        None
    };
    if let (false, Some(s)) = (open_loop, &session) {
        note(check::bit_identical(&served, &s.assignments));
    }
    Ok(Segment {
        timed,
        poll,
        m0,
        m1,
        events,
        session,
        wall_s,
        probe,
        cpu_s,
        drain_us,
        rss_mib,
        steal,
        nofile,
    })
}

fn run(cfg: &RunConfig<'_>) -> Result<Outcome, String> {
    let wl = Workload::new(cfg.name, cfg.seed, cfg.seconds, cfg.tiny)?;
    let frames = wl.frames()?;
    let threads = pool_threads(cfg.placement);
    std::fs::create_dir_all(&cfg.args.work_dir)
        .map_err(|e| format!("cannot create {}: {e}", cfg.args.work_dir.display()))?;
    let spec = cfg
        .args
        .work_dir
        .join(format!("{}-{}.json", cfg.name, cfg.seed));
    std::fs::write(&spec, wl.spec_json()?)
        .map_err(|e| format!("cannot write {}: {e}", spec.display()))?;
    let launch = Launch {
        bin: &cfg.args.gridsec,
        spec: &spec,
        virtual_clock: wl.rate.is_none(),
        shards: wl.shards,
        threads,
        io_threads: 1,
        cpus: cfg.placement.daemon,
    };

    // `wl.setups` launches; the last `wl.segments` of them are measured.
    let mut ops = Ops::default();
    let mut failures = Vec::new();
    // Set-up seconds, as measured and divided by the set-up's own probe.
    let mut setup_s = Vec::with_capacity(wl.setups);
    let mut raw_setup_s = Vec::with_capacity(wl.setups);
    let mut segments = Vec::with_capacity(wl.segments);
    let mut run_probe = Probe::default();
    for i in 0..wl.setups.max(wl.segments) {
        let setup = Setup::new(&launch, cfg.placement, &wl, &frames)?;
        raw_setup_s.push(setup.seconds());
        setup_s.push(setup.seconds() / setup.probe.slowdown());
        run_probe.absorb(&setup.probe);
        if i + wl.segments < wl.setups {
            setup.close(&mut ops)?;
        } else {
            let seconds = cfg.seconds / wl.segments as f64;
            let s = measure(cfg, &wl, &frames, setup, seconds, &mut ops, &mut failures)?;
            segments.push(s);
        }
    }
    let last = segments.last().expect("at least one segment");

    // Each segment's rate and CPU cost are taken over its whole timed
    // phase, drain included; a run reports the median segment, which a
    // host stall in one segment does not move. Each segment's times are
    // divided by its probe's slowdown, giving the figures at the reference
    // host's speed; `raw` leaves that out. An open loop's rate is the
    // generator's, not the host's, and is never scaled.
    for s in &segments {
        run_probe.absorb(&s.probe);
    }
    let figures = |raw: bool| {
        let k = |s: &Segment| if raw { 1.0 } else { s.probe.slowdown() };
        let k_rate = |s: &Segment| if wl.rate.is_some() { 1.0 } else { k(s) };
        let rtt = |f: fn(&Segment) -> &[f64]| -> Vec<f64> {
            segments
                .iter()
                .flat_map(|s| f(s).iter().map(move |t| t / k(s)))
                .collect()
        };
        Figures {
            rates: segments
                .iter()
                .map(|s| s.timed.jobs as f64 / s.wall_s * k_rate(s))
                .collect(),
            cpu_ms_per_kjob: segments
                .iter()
                .map(|s| s.cpu_s * 1e6 / s.timed.jobs.max(1) as f64 / k(s))
                .collect(),
            submit_rtt: rtt(|s| &s.timed.rtt_us),
            query_rtt: rtt(|s| &s.poll.rtt_us),
        }
    };
    let (scaled, raw) = (figures(false), figures(true));
    let Figures {
        rates,
        submit_rtt,
        query_rtt,
        ..
    } = &scaled;
    let jobs_per_s = median(rates);
    let steals: Vec<f64> = segments.iter().filter_map(|s| s.steal).collect();
    let steal = (!steals.is_empty()).then(|| mean(&steals));
    let slowdown = run_probe.slowdown();
    let host = host_line(cfg, &wl, threads, last.nofile, steal, slowdown);

    // Round trips too much at the mercy of the host to bound (see
    // README): printed beside the end-to-end metrics, reported as
    // per-layer metrics of a traced run.
    let tail = |names: [&'static str; 2], sample: &[f64], q: f64| Metric {
        name: names[cfg.trace as usize],
        value: chunked_quantile(sample, q, if q > 0.5 { P99_CHUNK } else { P50_CHUNK }),
        unit: "us",
        samples: sample.len(),
    };
    let tails = vec![
        tail(["submit_rtt_p99_us", "rtt.submit_p99_us"], submit_rtt, 0.99),
        tail(["query_rtt_p50_us", "rtt.query_p50_us"], query_rtt, 0.5),
        tail(["query_rtt_p99_us", "rtt.query_p99_us"], query_rtt, 0.99),
    ];
    let mut unbounded = Vec::new();
    let mut metrics = Vec::new();
    let mut push = |name, value: f64, unit, samples| {
        metrics.push(Metric {
            name,
            value,
            unit,
            samples,
        })
    };
    if !cfg.trace {
        let (n, setups) = (rates.len(), setup_s.len());
        let p50 = |f: &Figures| chunked_quantile(&f.submit_rtt, 0.5, P50_CHUNK);
        push("jobs_per_s", jobs_per_s, "1/s", n);
        push("submit_rtt_p50_us", p50(&scaled), "us", submit_rtt.len());
        push("cpu_ms_per_kjob", median(&scaled.cpu_ms_per_kjob), "ms", n);
        let rss: Vec<f64> = segments.iter().map(|s| s.rss_mib).collect();
        push("peak_rss_mib", median(&rss), "MiB", rss.len());
        push("setup_s", median(&setup_s), "s", setups);
        // The same figures at the speed the host ran at, printed only.
        let m = |name, value, unit, samples| Metric {
            name,
            value,
            unit,
            samples,
        };
        unbounded = vec![
            m("raw.jobs_per_s", median(&raw.rates), "1/s", n),
            m("raw.submit_rtt_p50_us", p50(&raw), "us", submit_rtt.len()),
            m("raw.cpu_ms_per_kjob", median(&raw.cpu_ms_per_kjob), "ms", n),
            m("raw.setup_s", median(&raw_setup_s), "s", setups),
        ];
        unbounded.extend(tails);
    } else {
        // The layer passes replay the last segment.
        let (timed, poll, wall_s) = (&last.timed, &last.poll, last.wall_s);
        let s = last
            .session
            .as_ref()
            .expect("traced runs replay the session");
        let sched_ns: Vec<f64> = s.sched_calls.iter().map(|&(_, ns)| ns as f64).collect();
        let batches: Vec<f64> = s.sched_calls.iter().map(|&(b, _)| b as f64).collect();
        let n = sched_ns.len();
        push("sched.calls", n as f64, "count", n);
        push("sched.batch_mean", mean(&batches), "jobs", n);
        push("sched.us_p50", quantile(&sched_ns, 0.5) / 1e3, "us", n);
        push("sched.us_p99", quantile(&sched_ns, 0.99) / 1e3, "us", n);
        let busy = sched_ns.iter().sum::<f64>() / 1e9 / s.timed_wall_s;
        push("sched.busy_share", busy, "share", n);

        let k = layers::kernel_pass(&wl, &s.captured);
        let n = s.captured.len();
        push("kernel.compile_us_p50", k.compile_us_p50, "us", n);
        push("kernel.eval_full_ns_p50", k.eval_full_ns_p50, "ns", n);

        for (name, span) in [
            ("trace.round_us_p50", "round"),
            ("trace.stga_eval_us_p50", "stga_eval"),
            ("trace.kernel_compile_us_p50", "kernel_compile"),
        ] {
            let spans = layers::span_us(&last.events, span);
            push(name, quantile(&spans, 0.5), "us", spans.len());
        }

        let n = s.submit_ns.len();
        push("session.jobs_per_s", n as f64 / s.timed_wall_s, "1/s", n);
        let p50 = quantile(&s.submit_ns, 0.5);
        push("session.submit_ns_p50", p50, "ns", n);
        let p99 = quantile(&s.submit_ns, 0.99);
        push("session.submit_ns_p99", p99, "ns", n);
        push(
            "serve.wire_share",
            1.0 - s.timed_wall_s / wall_s,
            "share",
            1,
        );

        let requests: Vec<&str> = timed
            .accepted_frames
            .iter()
            .map(|&f| frames[f].line.as_str())
            .collect();
        let replies: Vec<_> = timed.replies.iter().chain(&poll.replies).cloned().collect();
        let p = layers::protocol_pass(&requests, &replies)?;
        let n = requests.len();
        push("protocol.decode_ns_per_frame", p.decode_ns, "ns", n);
        push(
            "protocol.encode_ns_per_frame",
            p.encode_ns,
            "ns",
            replies.len(),
        );
        push("protocol.bytes_per_frame", p.bytes, "bytes", n);

        let (m0, m1) = (&last.m0, &last.m1);
        let rounds = m1.rounds - m0.rounds;
        let hist = (&m1.batch_size_hist, &m0.batch_size_hist);
        let batch_mean =
            (hist.0.sum - hist.1.sum) as f64 / (hist.0.count - hist.1.count).max(1) as f64;
        let sched_s = m1.scheduler_seconds - m0.scheduler_seconds;
        push("round.count", rounds as f64, "count", rounds);
        push("round.batch_mean", batch_mean, "jobs", rounds);
        push("daemon.sched_share", sched_s / wall_s, "share", 1);
        let pending_max = timed.pending_max.max(poll.pending_max);
        push("shard.pending_max", pending_max as f64, "jobs", 1);
        // Only the open loop sends on a schedule; a closed loop is never late.
        let late = &timed.late_us;
        push("gen.late_us_p99", quantile(late, 0.99), "us", late.len());

        // Time the layers account for, against the time the client saw
        // requests outstanding: the session replay (admission, batching,
        // scheduling, commit) plus the codec for every timed frame.
        let codec_s = requests.len() as f64 * (p.decode_ns + p.encode_ns) / 1e9;
        let client_s = (timed.rtt_us.iter().sum::<f64>() + last.drain_us) / 1e6;
        let residual = 1.0 - (s.timed_wall_s + codec_s) / client_s;
        push("residual_share", residual, "share", 1);
        push("trace.e2e_jobs_per_s", jobs_per_s, "1/s", rates.len());
        metrics.extend(tails);
    }
    if let Some(m) = metrics
        .iter()
        .chain(&unbounded)
        .find(|m| !m.value.is_finite())
    {
        return Err(format!("metric {} is not a finite number", m.name));
    }
    let failed = ops.failed;
    Ok(Outcome {
        host,
        correct: failures.is_empty() && failed == 0,
        failures,
        attempted: ops.attempted,
        failed,
        metrics,
        unbounded,
    })
}

/// The host fingerprint, as one JSON line. `cpu_steal_share` is the
/// share of the host's CPU time a hypervisor withheld during the submit
/// phase: a run with a high one was measured on a disturbed host.
fn host_line(
    cfg: &RunConfig<'_>,
    wl: &Workload,
    threads: usize,
    daemon_nofile: Option<u64>,
    steal: Option<f64>,
    slowdown: f64,
) -> String {
    let opt = |v: Option<u64>| v.map_or("null".to_string(), |n| n.to_string());
    let loadgen_threads = if wl.rate.is_some() {
        LOADGEN_THREADS
    } else {
        1
    };
    format!(
        r#"{{"host": {{"available_parallelism": {}, "rlimit_nofile": {}, "daemon_rlimit_nofile": {}, "git_rev": "{}", "workload": "{}", "seed": {}, "seconds": {}, "trace": {}, "daemon_threads": {}, "daemon_io_threads": 1, "loadgen_threads": {}, "loadgen_connections": {}, "cpu_steal_share": {}, "host_slowdown": {:.4}}}}}"#,
        cfg.placement.cpus,
        opt(daemon::nofile_limit_of("/proc/self/limits")),
        opt(daemon_nofile),
        git_rev(&cfg.args.repo_root),
        cfg.name,
        cfg.seed,
        cfg.seconds,
        cfg.trace as u8,
        threads,
        loadgen_threads,
        LOADGEN_THREADS,
        steal.map_or("null".to_string(), |s| format!("{s:.4}")),
        slowdown,
    )
}

/// The commit checked out at `root`; `unknown` where that is no git
/// checkout or git is not installed.
fn git_rev(root: &Path) -> String {
    std::process::Command::new("git")
        .arg("-C")
        .arg(root)
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|r| r.trim().to_string())
        .filter(|r| r.len() == 40 && r.bytes().all(|b| b.is_ascii_hexdigit()))
        .unwrap_or_else(|| "unknown".into())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        let v: Vec<String> = s.split_whitespace().map(str::to_string).collect();
        Args::parse(&v)
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = args("--gridsec g --workload wire-mix --seed 7 --seconds 10 --trace 1").unwrap();
        assert_eq!(a.workload.as_deref(), Some("wire-mix"));
        assert_eq!((a.seed, a.seconds, a.trace), (7, 10.0, true));
        assert!(args("--gridsec g --workload x --trace 2").is_err());
        assert!(args("--workload x").is_err());
        assert!(args("--gridsec g --seconds 5").is_err());
        assert!(args("--gridsec g --self-test").unwrap().self_test);
    }
}
