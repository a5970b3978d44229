//! The load generator: sends a workload's requests over `WireClient`
//! connections and records what came back.
//!
//! Two sending disciplines are used. Bulk ingest sends jobs back to back
//! in windows no larger than the server's queue, each window closed by a
//! flush, so nothing is shed and the engine applies every job; a block of
//! open-loop queries follows each window. Open-loop
//! streams send on a fixed schedule whatever the server does, and time each
//! request from when it was due, so a stall counts against the request
//! queued behind it. Queries go in short bursts (see [`open_loop`]).

use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

use anc_server::{Request, Response, WireClient};

use crate::inputs::{kind, Job};

/// Attempted and failed operations, per kind.
#[derive(Clone, Debug, Default)]
pub struct Ops {
    pub kinds: BTreeMap<&'static str, (u64, u64)>,
    /// The first few failure messages, for the log.
    pub errors: Vec<String>,
}

impl Ops {
    pub fn record(&mut self, kind: &'static str, ok: Result<(), String>) {
        let entry = self.kinds.entry(kind).or_default();
        entry.0 += 1;
        if let Err(e) = ok {
            entry.1 += 1;
            if self.errors.len() < 8 {
                self.errors.push(format!("{kind}: {e}"));
            }
        }
    }

    pub fn merge(&mut self, other: Ops) {
        for (k, (a, f)) in other.kinds {
            let entry = self.kinds.entry(k).or_default();
            entry.0 += a;
            entry.1 += f;
        }
        self.errors.extend(other.errors);
        self.errors.truncate(8);
    }

    pub fn attempted(&self) -> u64 {
        self.kinds.values().map(|v| v.0).sum()
    }

    pub fn failed(&self) -> u64 {
        self.kinds.values().map(|v| v.1).sum()
    }
}

/// One connection with its own epoch ordering check.
pub struct Conn {
    client: WireClient,
    last_epoch: u64,
    /// Epoch regressions seen on this connection.
    pub epoch_errors: Vec<String>,
    broken: bool,
}

impl Conn {
    pub fn open(addr: SocketAddr) -> Result<Conn, String> {
        let client = WireClient::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        Ok(Conn { client, last_epoch: 0, epoch_errors: Vec::new(), broken: false })
    }

    /// Sends one request. An error frame, a reply of the wrong kind or a
    /// transport failure is an `Err`; after a transport failure every
    /// further call fails without being sent.
    pub fn call(&mut self, req: &Request) -> Result<Response, String> {
        if self.broken {
            return Err("connection lost earlier".into());
        }
        let resp = match self.client.call(req) {
            Ok(resp) => resp,
            Err(e) => {
                self.broken = true;
                return Err(format!("transport: {e}"));
            }
        };
        let epoch = match &resp {
            Response::Error { code, msg } => return Err(format!("{code:?}: {msg}")),
            Response::Flushed { epoch }
            | Response::SameCluster { epoch, .. }
            | Response::Summary { epoch, .. }
            | Response::Labels { epoch, .. }
            | Response::Members { epoch, .. } => Some(*epoch),
            Response::Stats(s) => Some(s.epoch),
            _ => None,
        };
        let expected = match req {
            Request::Ping => matches!(resp, Response::Pong),
            Request::Ingest { .. } => matches!(resp, Response::Ingested { .. }),
            Request::Flush => matches!(resp, Response::Flushed { .. }),
            Request::SameCluster { .. } => matches!(resp, Response::SameCluster { .. }),
            Request::ClusterSummary { .. } => matches!(resp, Response::Summary { .. }),
            Request::ClusterLabels { .. } => matches!(resp, Response::Labels { .. }),
            Request::Members { .. } => matches!(resp, Response::Members { .. }),
            Request::Stats => matches!(resp, Response::Stats(_)),
            Request::Shutdown => matches!(resp, Response::ShuttingDown),
        };
        if !expected {
            return Err(format!("unexpected reply {resp:?}"));
        }
        if let Some(epoch) = epoch {
            if epoch < self.last_epoch && self.epoch_errors.len() < 4 {
                self.epoch_errors.push(format!(
                    "{} answered at epoch {epoch} after epoch {}",
                    kind(req),
                    self.last_epoch
                ));
            }
            self.last_epoch = self.last_epoch.max(epoch);
        }
        Ok(resp)
    }
}

/// What an ingest phase measured.
#[derive(Debug, Default)]
pub struct IngestResult {
    /// Activations in acknowledged and flushed jobs.
    pub applied: u64,
    /// Per window: its activations ÷ (first send → flush reply).
    pub window_eps: Vec<f64>,
    /// Time spent ingesting: from the first ingest sent to the reply of
    /// the final flush, less the query blocks between windows.
    pub secs: f64,
    /// Per job: from its (scheduled) send to the reply of the next flush.
    pub visible_ms: Vec<f64>,
    /// Most the sender fell behind its schedule.
    pub late_max_ms: f64,
    pub ops: Ops,
}

/// Sends `jobs` back to back in windows of `window` jobs, each followed by
/// a flush and then by an equal share of `queries`, sent open loop at
/// `rate` from the flush reply. Interleaving spreads both measurements over
/// the whole traffic phase, so a slow spell of the host weighs on each in
/// proportion to its length instead of landing on one of them.
pub fn windows_then_queries(
    conn: &mut Conn,
    jobs: &[Job],
    window: usize,
    queries: &[Request],
    rate: f64,
) -> (IngestResult, QueryResult) {
    let mut r = IngestResult::default();
    let mut q = QueryResult::default();
    let rounds = jobs.len().div_ceil(window).max(1);
    let per_round = queries.len().div_ceil(rounds);
    let mut sent_at = Vec::with_capacity(window);
    for (i, chunk) in jobs.chunks(window).enumerate() {
        sent_at.clear();
        let mut acked = 0u64;
        let start = Instant::now();
        for job in chunk {
            sent_at.push(Instant::now());
            let res = conn.call(&Request::Ingest { t: job.t, edges: job.edges.clone() });
            if res.is_ok() {
                acked += job.edges.len() as u64;
            }
            r.ops.record("ingest", res.map(|_| ()));
        }
        let res = conn.call(&Request::Flush);
        let done = Instant::now();
        let secs = (done - start).as_secs_f64();
        r.secs += secs;
        if res.is_ok() {
            r.applied += acked;
            r.window_eps.push(acked as f64 / secs);
        }
        r.ops.record("flush", res.map(|_| ()));
        r.visible_ms.extend(sent_at.iter().map(|&s| ms(done - s)));
        let block = queries.get(i * per_round..((i + 1) * per_round).min(queries.len()));
        q.merge(open_loop(conn, block.unwrap_or_default(), rate, done));
    }
    (r, q)
}

/// Sends one job, then a flush, every `1 / rate` seconds from `start`.
pub fn paced_ingest(conn: &mut Conn, jobs: &[Job], rate: f64, start: Instant) -> IngestResult {
    let mut r = IngestResult::default();
    let mut first_send = None;
    let mut last_reply = start;
    for (i, job) in jobs.iter().enumerate() {
        let due = start + Duration::from_secs_f64(i as f64 / rate);
        let sent = wait_until(due);
        r.late_max_ms = r.late_max_ms.max(ms(sent.saturating_duration_since(due)));
        first_send.get_or_insert(sent);
        let res = conn.call(&Request::Ingest { t: job.t, edges: job.edges.clone() });
        let acked = res.is_ok();
        r.ops.record("ingest", res.map(|_| ()));
        let res = conn.call(&Request::Flush);
        last_reply = Instant::now();
        if res.is_ok() && acked {
            r.applied += job.edges.len() as u64;
        }
        r.ops.record("flush", res.map(|_| ()));
        r.visible_ms.push(ms(last_reply - due));
    }
    r.secs = (last_reply - first_send.unwrap_or(start)).as_secs_f64();
    r
}

/// What an open-loop query stream measured.
#[derive(Debug, Default)]
pub struct QueryResult {
    /// Per query: from when it was due to its reply.
    pub latency_us: Vec<f64>,
    pub late_max_ms: f64,
    pub ops: Ops,
}

impl QueryResult {
    fn merge(&mut self, other: QueryResult) {
        self.latency_us.extend(other.latency_us);
        self.late_max_ms = self.late_max_ms.max(other.late_max_ms);
        self.ops.merge(other.ops);
    }
}

/// Queries sent back to back in one burst of the open-loop stream.
pub const BURST: usize = 16;

/// Sends `queries` at `rate` per second from `start`, one connection, in
/// bursts of `BURST`: each burst is due on a fixed schedule, and within it
/// each query is due when the reply to the one before it arrives. The first
/// query of a burst reaches a server whose processors have gone idle, the
/// rest one that is still awake, so the median is the request's own cost
/// (wire, snapshot read, reply) rather than the host's wake-up latency.
pub fn open_loop(conn: &mut Conn, queries: &[Request], rate: f64, start: Instant) -> QueryResult {
    let mut r = QueryResult { latency_us: Vec::with_capacity(queries.len()), ..Default::default() };
    for (b, burst) in queries.chunks(BURST).enumerate() {
        let mut due = start + Duration::from_secs_f64((b * BURST) as f64 / rate);
        let sent = wait_until(due);
        r.late_max_ms = r.late_max_ms.max(ms(sent.saturating_duration_since(due)));
        for q in burst {
            let res = conn.call(q);
            let replied = Instant::now();
            r.latency_us.push((replied - due).as_secs_f64() * 1e6);
            r.ops.record(kind(q), res.map(|_| ()));
            due = replied;
        }
    }
    r
}

/// Sleeps until `due` (no spinning: the generator must not take CPU from
/// the server) and returns the time it woke.
fn wait_until(due: Instant) -> Instant {
    let now = Instant::now();
    if due > now {
        std::thread::sleep(due - now);
        Instant::now()
    } else {
        now
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// The median of the medians of consecutive `chunk`-sized slices of
/// `values` (samples in send order, so each slice is a stretch of time).
/// A slow spell of the host then moves the figure only if it covers most
/// of the run.
pub fn median_of_medians(values: &[f64], chunk: usize) -> f64 {
    let medians: Vec<f64> = values.chunks(chunk.max(1)).map(|c| quantile(c, 0.5)).collect();
    quantile(&medians, 0.5)
}

/// The `q`-quantile (nearest rank) of `values`; `NaN` when empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}
