//! The load generator: at most two threads, two connections. Closed
//! loop: the lock-step submitter on connection 1, then a query burst on
//! connection 2. Open loop: a sender and a reply reader sharing both
//! connections (submits on 1, polls on 2).

use crate::host::Probe;
use crate::workload::{Frame, Warmup};
use epoll::{Events, Interest, Poller};
use gridsec_obs::TraceEvent;
use gridsec_serve::protocol::encode;
use gridsec_serve::{Client, Placed, QueryWhat, Request, Response, ServeMetrics};
use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Interval between the open loop's query frames.
pub const POLL_INTERVAL: Duration = Duration::from_millis(5);

/// Operations attempted and those that failed or were refused.
#[derive(Debug, Default, Clone, Copy)]
pub struct Ops {
    /// Frames sent.
    pub attempted: u64,
    /// Frames answered with anything but the expected success frame.
    pub failed: u64,
}

impl Ops {
    /// Adds another tally.
    pub fn add(&mut self, other: Ops) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// What one submit phase saw.
#[derive(Debug, Default)]
pub struct SubmitLog {
    /// Indices (into the frame list) of fully accepted frames, in order.
    pub accepted_frames: Vec<usize>,
    /// Jobs accepted.
    pub jobs: usize,
    /// Per-frame round-trip, µs (from the due time in open loop).
    pub rtt_us: Vec<f64>,
    /// Per-frame lateness of the send behind its due time, µs (open loop).
    pub late_us: Vec<f64>,
    /// Send instant of every frame, in send order.
    pub sent_at: Vec<Instant>,
    /// Largest shard backlog an `accepted` frame reported.
    pub pending_max: usize,
    /// The replies, for the protocol pass.
    pub replies: Vec<Response>,
    /// Frames sent and refused.
    pub ops: Ops,
}

impl SubmitLog {
    fn append(&mut self, other: SubmitLog) {
        self.accepted_frames.extend(other.accepted_frames);
        self.jobs += other.jobs;
        self.rtt_us.extend(other.rtt_us);
        self.late_us.extend(other.late_us);
        self.sent_at.extend(other.sent_at);
        self.pending_max = self.pending_max.max(other.pending_max);
        self.replies.extend(other.replies);
        self.ops.add(other.ops);
    }

    fn record(&mut self, frame: usize, n_jobs: usize, reply: Response) {
        self.ops.attempted += 1;
        match reply {
            Response::Accepted { jobs, pending, .. } if jobs == n_jobs => {
                self.accepted_frames.push(frame);
                self.jobs += jobs;
                self.pending_max = self.pending_max.max(pending);
                self.replies.push(reply);
            }
            _ => self.ops.failed += 1,
        }
    }
}

/// Sends the warm-up prefix lock-step from frame 0, with a speed-probe
/// sample between frames now and then. Returns the index of the first
/// frame of the timed phase.
pub fn warm_up(
    client: &mut Client,
    frames: &[Frame],
    rule: Warmup,
    log: &mut SubmitLog,
    probe: &mut Probe,
) -> Result<usize, String> {
    let mut i = 0;
    loop {
        let done = match rule {
            Warmup::Frames(n) => i >= n,
            Warmup::Rounds(n) => matches!(
                log.replies.last(),
                Some(Response::Accepted { rounds, .. }) if *rounds >= n
            ),
        };
        if done {
            return Ok(i);
        }
        let frame = frames.get(i).ok_or("job stream exhausted during warm-up")?;
        probe.tick();
        log.sent_at.push(Instant::now());
        let reply = client.send_line(&frame.line).map_err(|e| e.to_string())?;
        log.record(i, frame.jobs.len(), reply);
        i += 1;
    }
}

/// Closed loop: lock-step submit frames from `start` until `seconds`
/// (probing left out) have passed or the stream ends, with a speed-probe
/// sample between frames now and then.
pub fn closed_loop(
    client: &mut Client,
    frames: &[Frame],
    start: usize,
    seconds: f64,
    log: &mut SubmitLog,
    probe: &mut Probe,
) -> Result<(), String> {
    let t0 = Instant::now();
    let spent0 = probe.spent;
    let limit = Duration::from_secs_f64(seconds);
    for (i, frame) in frames.iter().enumerate().skip(start) {
        if t0.elapsed() - (probe.spent - spent0) >= limit {
            break;
        }
        probe.tick();
        let sent = Instant::now();
        log.sent_at.push(sent);
        let reply = client.send_line(&frame.line).map_err(|e| e.to_string())?;
        log.rtt_us.push(sent.elapsed().as_secs_f64() * 1e6);
        log.record(i, frame.jobs.len(), reply);
    }
    Ok(())
}

/// How long before a frame's due time the open-loop sender stops
/// sleeping and yields instead: covers the kernel's timer slack, so
/// frames leave on time without a core spent spinning between them.
const WAKE_EARLY: Duration = Duration::from_micros(100);

/// What the query side saw.
#[derive(Debug, Default)]
pub struct PollLog {
    /// Per-query round trip, µs (from the due time in open loop).
    pub rtt_us: Vec<f64>,
    /// Largest aggregate backlog a metrics reply reported.
    pub pending_max: usize,
    /// The replies, for the protocol pass.
    pub replies: Vec<Response>,
    /// Queries sent and failed.
    pub ops: Ops,
}

impl PollLog {
    fn append(&mut self, other: PollLog) {
        self.rtt_us.extend(other.rtt_us);
        self.pending_max = self.pending_max.max(other.pending_max);
        self.replies.extend(other.replies);
        self.ops.add(other.ops);
    }

    fn record(&mut self, rtt_us: f64, reply: Response) {
        self.rtt_us.push(rtt_us);
        self.ops.attempted += 1;
        match &reply {
            Response::Metrics { metrics } => {
                self.pending_max = self.pending_max.max(metrics.pending)
            }
            Response::Telemetry { .. } => {}
            _ => self.ops.failed += 1,
        }
        self.replies.push(reply);
    }
}

/// The two poll frames, sent alternately.
fn query_lines() -> [String; 2] {
    [QueryWhat::Metrics, QueryWhat::Telemetry]
        .map(|what| encode(&Request::Query { what, shard: None }))
}

/// Lock-step queries for `seconds`, alternating `metrics` and
/// `telemetry`: the closed loops' query measurement, taken on the
/// drained daemon.
pub fn query_burst(client: &mut Client, seconds: f64) -> Result<PollLog, String> {
    let lines = query_lines();
    let mut log = PollLog::default();
    let end = Instant::now() + Duration::from_secs_f64(seconds);
    let mut i = 0;
    while Instant::now() < end {
        let sent = Instant::now();
        let reply = client.send_line(&lines[i % 2]).map_err(|e| e.to_string())?;
        log.record(sent.elapsed().as_secs_f64() * 1e6, reply);
        i += 1;
    }
    Ok(log)
}

/// Length of one open-loop piece, seconds, and the speed-probe units
/// taken before each piece, when no request is outstanding.
const PIECE_SECONDS: f64 = 0.5;
const PIECE_PROBE_UNITS: usize = 20;

/// The open loop of [`open_loop`] for `seconds` (probing left out), cut
/// into pieces of [`PIECE_SECONDS`] with a burst of speed-probe samples
/// before each.
pub fn open_loop_probed(
    submit: &TcpStream,
    query: &TcpStream,
    frames: &[Frame],
    start: usize,
    rate: f64,
    seconds: f64,
    probe: &mut Probe,
) -> Result<(SubmitLog, PollLog), String> {
    let mut log = SubmitLog::default();
    let mut poll = PollLog::default();
    let (mut next, mut left) = (start, seconds);
    while left > 1e-9 {
        let piece = left.min(PIECE_SECONDS);
        probe.burst(PIECE_PROBE_UNITS);
        let (l, p) = open_loop(submit, query, frames, next, rate, piece)?;
        next += l.sent_at.len();
        log.append(l);
        poll.append(p);
        left -= piece;
    }
    Ok((log, poll))
}

/// Open loop on two connections and two threads. This thread sends:
/// submit frame `start + k` is due at `k / rate` s, query `j` (metrics
/// and telemetry alternately, on the second connection) at
/// `j × POLL_INTERVAL`, each sent on time whether or not earlier replies
/// are in. A second thread waits on both sockets with epoll, matches
/// replies to frames in order (the daemon answers each connection in
/// request order) and times each from its due time. Returns once every
/// reply is in. Neither socket may hold unread bytes.
fn open_loop(
    submit: &TcpStream,
    query: &TcpStream,
    frames: &[Frame],
    start: usize,
    rate: f64,
    seconds: f64,
) -> Result<(SubmitLog, PollLog), String> {
    let n = ((rate * seconds) as usize).min(frames.len().saturating_sub(start));
    for s in [submit, query] {
        s.set_nonblocking(true).map_err(|e| e.to_string())?;
    }
    let t0 = Instant::now();
    let end = t0 + Duration::from_secs_f64(seconds);
    let due_submit = |k: usize| t0 + Duration::from_secs_f64(k as f64 / rate);
    let due_query = |j: usize| t0 + POLL_INTERVAL * j as u32;
    let queries_sent = AtomicUsize::new(0);
    let sending = AtomicBool::new(true);
    let lines = query_lines();
    let (sent_at, late_us, received) = std::thread::scope(|scope| {
        let reader = scope.spawn(|| {
            receive(
                [submit, query],
                n,
                &queries_sent,
                &sending,
                [&due_submit, &due_query],
                |k| (start + k, frames[start + k].jobs.len()),
            )
        });
        let mut sent_at = Vec::with_capacity(n);
        let mut late_us = Vec::with_capacity(n);
        let (mut k, mut j) = (0, 0);
        let sent = loop {
            let next_submit = (k < n).then(|| due_submit(k));
            let next_query = Some(due_query(j)).filter(|&d| d < end);
            let due = match (next_submit, next_query) {
                (None, None) => break Ok(()),
                (Some(a), Some(b)) => a.min(b),
                (a, b) => a.or(b).expect("one is due"),
            };
            wait_until(due);
            let now = Instant::now();
            let result = if next_submit == Some(due) {
                sent_at.push(now);
                late_us.push(now.duration_since(due).as_secs_f64() * 1e6);
                k += 1;
                write_all_nonblocking(submit, frames[start + k - 1].line.as_bytes())
            } else {
                j += 1;
                queries_sent.store(j, Ordering::SeqCst);
                write_all_nonblocking(query, lines[(j - 1) % 2].as_bytes())
            };
            if result.is_err() {
                break result;
            }
        };
        sending.store(false, Ordering::SeqCst);
        let received = reader
            .join()
            .map_err(|_| "reply reader panicked".to_string());
        (sent_at, late_us, sent.and(received))
    });
    let (mut log, poll) = received??;
    for s in [submit, query] {
        s.set_nonblocking(false).map_err(|e| e.to_string())?;
    }
    log.sent_at = sent_at;
    log.late_us = late_us;
    Ok((log, poll))
}

/// Sleeps until shortly before `due`, then yields until it.
fn wait_until(due: Instant) {
    loop {
        let now = Instant::now();
        if now >= due {
            return;
        }
        if due - now > WAKE_EARLY {
            std::thread::sleep(due - now - WAKE_EARLY);
        } else {
            std::thread::yield_now();
        }
    }
}

/// The open loop's reply reader: `socks[0]` carries `n` submit replies,
/// `socks[1]` as many query replies as `queries_sent` says once `sending`
/// is false. `frame_of(k)` names submit `k`'s frame index and job count.
fn receive(
    socks: [&TcpStream; 2],
    n: usize,
    queries_sent: &AtomicUsize,
    sending: &AtomicBool,
    due: [&dyn Fn(usize) -> Instant; 2],
    frame_of: impl Fn(usize) -> (usize, usize),
) -> Result<(SubmitLog, PollLog), String> {
    use std::os::fd::AsRawFd;
    let epoll = Poller::new().map_err(|e| e.to_string())?;
    for (key, s) in socks.iter().enumerate() {
        epoll
            .add(s.as_raw_fd(), key as u64, Interest::READ)
            .map_err(|e| e.to_string())?;
    }
    let mut events = Events::with_capacity(4);
    let mut log = SubmitLog::default();
    let mut poll = PollLog::default();
    let mut bufs: [Vec<u8>; 2] = Default::default();
    let mut answered = [0usize; 2];
    let mut chunk = vec![0u8; 1 << 16];
    let mut last_progress = Instant::now();
    loop {
        let done = answered[0] == n
            && !sending.load(Ordering::SeqCst)
            && answered[1] == queries_sent.load(Ordering::SeqCst);
        if done {
            return Ok((log, poll));
        }
        if last_progress.elapsed() > Duration::from_secs(10) {
            return Err("timed out waiting for replies".into());
        }
        epoll
            .wait(&mut events, Some(Duration::from_millis(20)))
            .map_err(|e| e.to_string())?;
        for key in events.iter().map(|e| e.key as usize) {
            let mut sock = socks[key];
            loop {
                match sock.read(&mut chunk) {
                    Ok(0) => return Err("daemon closed a connection".into()),
                    Ok(got) => bufs[key].extend_from_slice(&chunk[..got]),
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(e) => return Err(e.to_string()),
                }
            }
            let at = Instant::now();
            while let Some(pos) = bufs[key].iter().position(|&b| b == b'\n') {
                let line: Vec<u8> = bufs[key].drain(..=pos).collect();
                let reply: Response = serde_json::from_slice(&line[..line.len() - 1])
                    .map_err(|e| format!("bad reply: {e}"))?;
                let i = answered[key];
                answered[key] += 1;
                last_progress = at;
                let rtt_us = at.duration_since(due[key](i)).as_secs_f64() * 1e6;
                if key == 0 {
                    log.rtt_us.push(rtt_us);
                    let (frame, jobs) = frame_of(i);
                    log.record(frame, jobs, reply);
                } else {
                    poll.record(rtt_us, reply);
                }
            }
        }
    }
}

fn write_all_nonblocking(mut stream: &TcpStream, mut bytes: &[u8]) -> Result<(), String> {
    while !bytes.is_empty() {
        match stream.write(bytes) {
            Ok(0) => return Err("daemon closed the connection".into()),
            Ok(n) => bytes = &bytes[n..],
            Err(e) if e.kind() == ErrorKind::WouldBlock => std::thread::yield_now(),
            Err(e) => return Err(e.to_string()),
        }
    }
    Ok(())
}

/// Lock-step request helpers on connection 1, each counted in `ops`.
pub struct Control<'a> {
    /// The connection.
    pub client: &'a mut Client,
    /// The tally.
    pub ops: &'a mut Ops,
}

impl Control<'_> {
    fn send(&mut self, req: &Request) -> Result<Response, String> {
        self.ops.attempted += 1;
        let reply = self.client.send(req).map_err(|e| e.to_string());
        if reply.is_err() {
            self.ops.failed += 1;
        }
        reply
    }

    fn fail(&mut self, what: &str, reply: Response) -> String {
        self.ops.failed += 1;
        format!("{what}: unexpected reply {reply:?}")
    }

    /// `drain`; returns once every shard's queue is empty.
    pub fn drain(&mut self) -> Result<(), String> {
        match self.send(&Request::Drain)? {
            Response::Drained { .. } => Ok(()),
            other => Err(self.fail("drain", other)),
        }
    }

    /// `query what=metrics` over all shards.
    pub fn metrics(&mut self) -> Result<ServeMetrics, String> {
        let req = Request::Query {
            what: QueryWhat::Metrics,
            shard: None,
        };
        match self.send(&req)? {
            Response::Metrics { metrics } => Ok(metrics),
            other => Err(self.fail("metrics", other)),
        }
    }

    /// The served schedule: `query what=schedule` for each of `shards`,
    /// concatenated in shard order. One frame per shard keeps each reply
    /// under the daemon's per-connection write bound (8 MiB, ~100k
    /// assignments) on the longest runs.
    pub fn schedule(&mut self, shards: usize) -> Result<Vec<Placed>, String> {
        let mut out = Vec::new();
        for shard in 0..shards {
            let req = Request::Query {
                what: QueryWhat::Schedule,
                shard: Some(shard),
            };
            match self.send(&req)? {
                Response::Schedule { assignments } => out.extend(assignments),
                other => return Err(self.fail("schedule", other)),
            }
        }
        Ok(out)
    }

    /// `trace_dump`: the flight recorder's rings.
    pub fn trace_dump(&mut self) -> Result<Vec<TraceEvent>, String> {
        match self.send(&Request::TraceDump)? {
            Response::TraceDump { events } => Ok(events),
            other => Err(self.fail("trace_dump", other)),
        }
    }

    /// `shutdown`.
    pub fn shutdown(&mut self) -> Result<(), String> {
        match self.send(&Request::Shutdown)? {
            Response::Bye => Ok(()),
            other => Err(self.fail("shutdown", other)),
        }
    }
}
