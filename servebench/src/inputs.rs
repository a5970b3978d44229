//! Workload definitions and the seeded inputs they feed the server.
//!
//! Everything here is a pure function of the workload and `--seed`: the
//! graph (a registry stand-in, the same for every seed), the activation
//! stream, and the query list. The server receives only the edge-list file
//! and wire requests.

use std::io::{BufReader, BufWriter};
use std::path::Path;

use anc_core::ClusterMode;
use anc_data::{registry, stream};
use anc_graph::{io as gio, EdgeId, Graph, NodeId};
use anc_server::Request;

/// The workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Open-loop queries plus a slow paced ingest on a small graph.
    ReadMostly,
    /// Write-ahead-logged ingest on a dense graph, then SIGKILL and recovery.
    DurableRestart,
}

/// Activations per ingest job.
pub const JOB_EDGES: usize = 16;
/// Intra-community bias of the activation stream.
pub const BIAS: f64 = 4.0;
/// Time between consecutive jobs' timestamps.
pub const DT: f64 = 0.01;

/// How a workload's ingest jobs are sent.
#[derive(Clone, Copy, Debug)]
pub enum IngestPace {
    /// `jobs_per_second` jobs per second of run length, sent back to back in
    /// windows of `window` jobs, each followed by a flush and a block of
    /// queries.
    Windows { jobs_per_second: f64, window: usize },
    /// One job (then a flush) every `1 / rate` seconds, alongside the queries.
    Rate(f64),
}

/// The fixed shape of one workload.
#[derive(Clone, Debug)]
pub struct Plan {
    /// Registry dataset the graph stands in for.
    pub dataset: &'static str,
    /// Serve with `--durable-dir` (restart = SIGKILL) or volatile with
    /// `--out` (restart = graceful shutdown, relaunch from the saved file).
    pub durable: bool,
    pub pace: IngestPace,
    /// Query rate of the open-loop query stream.
    pub query_rate: f64,
    /// Seconds the query stream runs per `--seconds` of run length:
    /// concurrent with ingest when the pace is a rate, else in blocks after
    /// each window's flush.
    pub query_share: f64,
    /// Also run the cache probe (see `cache_probe` in `main.rs`).
    pub cache_probe: bool,
    /// `RAYON_NUM_THREADS` for this run and every `anc` process it starts;
    /// `None` leaves the pool at its default (one thread per core).
    pub pool_threads: Option<usize>,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "read_mostly" => Some(Workload::ReadMostly),
            "durable_restart" => Some(Workload::DurableRestart),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::ReadMostly => "read_mostly",
            Workload::DurableRestart => "durable_restart",
        }
    }

    pub fn plan(self) -> Plan {
        match self {
            // 20 jobs/s keeps a 12 s run (3,840 activations) below the
            // engine's first batched rescale (4,096), past which a known
            // cache fault fails the replay check on some seeds only; the
            // cache probe runs past it on a fixed stream instead.
            Workload::ReadMostly => Plan {
                dataset: "CA",
                durable: false,
                pace: IngestPace::Rate(20.0),
                query_rate: 2000.0,
                query_share: 1.0,
                cache_probe: true,
                pool_threads: None,
            },
            // One pool thread: the replay of thousands of 16-activation
            // batches, live and on recovery, then runs on the writer alone.
            // With the default two, every batch hands work to a pool worker
            // on the other core, and how long waking it takes on a shared
            // two-core host moved `ingest_eps`, `visible_p50_ms`
            // and `recover_s` by 0.20–0.37 between runs (0.08–0.17 with one).
            Workload::DurableRestart => Plan {
                dataset: "FB",
                durable: true,
                pace: IngestPace::Windows { jobs_per_second: 600.0, window: 480 },
                query_rate: 1000.0,
                query_share: 0.2,
                cache_probe: false,
                pool_threads: Some(1),
            },
        }
    }
}

/// Jobs of the cache probe: 7,680 activations, past the engine's first
/// batched rescale (every 4,096 activations).
pub const PROBE_JOBS: usize = 480;
/// Seed of the cache probe's stream, whatever `--seed`: the stream that
/// `--seed 8` draws for `PROBE_JOBS` jobs on the CA stand-in, on which the
/// cache's final clusterings differ from a cold extraction.
pub const PROBE_SEED: u64 = 8;

/// Seed of every workload's graph (the `anc generate` default). The graph
/// plays the part of a fixed dataset; `--seed` draws the traffic on it.
pub const GRAPH_SEED: u64 = 42;

/// One ingest job: activations at one timestamp.
#[derive(Clone, Debug)]
pub struct Job {
    pub t: f64,
    pub edges: Vec<EdgeId>,
}

/// The generated inputs of one run.
pub struct Inputs {
    /// The graph exactly as the server reads it back from the edge list.
    pub graph: Graph,
    /// Planted community of each node (server node ids).
    pub planted: Vec<u32>,
    pub jobs: Vec<Job>,
}

/// Small deterministic generator for query sampling (SplitMix64).
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x9E37_79B9_7F4A_7C15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Writes the workload's graph to `graph_path` and builds its ingest jobs.
pub fn generate(plan: &Plan, seed: u64, seconds: u64, graph_path: &Path) -> Result<Inputs, String> {
    let spec = registry::by_name(plan.dataset).ok_or("unknown dataset")?;
    let ds = spec.materialize(GRAPH_SEED);
    let file = std::fs::File::create(graph_path).map_err(|e| e.to_string())?;
    gio::write_edge_list(&ds.graph, BufWriter::new(file)).map_err(|e| e.to_string())?;
    // Node ids as `anc index` assigns them: first appearance in the file.
    let (graph, original) = read_edge_list(graph_path)?;
    let planted = original
        .iter()
        .map(|&o| ds.labels.get(o as usize).copied().ok_or_else(|| format!("node {o} unlabelled")))
        .collect::<Result<Vec<u32>, String>>()?;

    let jobs_per_second = match plan.pace {
        IngestPace::Windows { jobs_per_second, .. } => jobs_per_second,
        IngestPace::Rate(rate) => rate,
    };
    let jobs_n = (jobs_per_second * seconds as f64).round().max(1.0) as usize;
    let jobs = stream_jobs(&graph, &planted, jobs_n, seed)?;
    Ok(Inputs { graph, planted, jobs })
}

/// `count` ingest jobs of the seeded community-biased stream on `graph`.
pub fn stream_jobs(
    graph: &Graph,
    planted: &[u32],
    count: usize,
    seed: u64,
) -> Result<Vec<Job>, String> {
    let frac = JOB_EDGES as f64 / graph.m() as f64;
    let s = stream::community_biased(graph, planted, count, frac, BIAS, seed ^ 0x5eed);
    let jobs =
        s.batches.into_iter().map(|b| Job { t: b.time * DT, edges: b.edges }).collect::<Vec<_>>();
    if jobs.iter().any(|j| j.edges.len() != JOB_EDGES) {
        return Err("activation stream produced a job of the wrong size".into());
    }
    Ok(jobs)
}

/// Reads an edge list the way `anc index` does, with each node's id in
/// the file.
pub fn read_edge_list(path: &Path) -> Result<(Graph, Vec<u64>), String> {
    let file = std::fs::File::open(path).map_err(|e| format!("{path:?}: {e}"))?;
    gio::read_edge_list(BufReader::new(file)).map_err(|e| e.to_string())
}

/// Number of queries the open-loop stream sends in a run.
pub fn query_count(plan: &Plan, seconds: u64) -> usize {
    (plan.query_rate * plan.query_share * seconds as f64).round().max(1.0) as usize
}

/// The query mix. One query in twenty reads a whole label vector (an
/// assumed share: no measured traffic exists, and `labels` is the bulk
/// export, far rarer than point queries). The rest split as the
/// workspace's closed-loop load generator (`anc_bench::loadgen`) splits
/// them: 60 % `same_cluster`, 30 % `summary`, 10 % `members`. Unlike
/// there, half the `same_cluster` pairs are a graph edge (a random pair is
/// almost never in one cluster) and modes alternate at random.
pub fn query_mix(g: &Graph, level: usize, count: usize, seed: u64) -> Vec<Request> {
    let mut rng = Rng::new(seed);
    let n = g.n();
    (0..count)
        .map(|_| {
            let mode = if rng.below(2) == 0 { ClusterMode::Even } else { ClusterMode::Power };
            let labels = rng.below(20) == 0;
            let pick = rng.below(10);
            let u = rng.below(n) as NodeId;
            if labels {
                Request::ClusterLabels { level, mode }
            } else if pick < 6 {
                let nb = g.neighbors(u);
                let v = if rng.below(2) == 0 && !nb.is_empty() {
                    nb[rng.below(nb.len())]
                } else {
                    rng.below(n) as NodeId
                };
                Request::SameCluster { u, v, level, mode }
            } else if pick < 9 {
                Request::ClusterSummary { level, mode }
            } else {
                Request::Members { v: u, level, mode }
            }
        })
        .collect()
}

/// The wire kind name of a request, used to key per-kind counters.
pub fn kind(req: &Request) -> &'static str {
    match req {
        Request::Ping => "ping",
        Request::Ingest { .. } => "ingest",
        Request::Flush => "flush",
        Request::SameCluster { .. } => "same_cluster",
        Request::ClusterSummary { .. } => "summary",
        Request::ClusterLabels { .. } => "labels",
        Request::Members { .. } => "members",
        Request::Stats => "stats",
        Request::Shutdown => "shutdown",
    }
}
