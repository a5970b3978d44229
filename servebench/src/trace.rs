//! The traced run: per-layer figures.
//!
//! Feeds the run's seeded inputs, in the order the server applies them,
//! through each module's public functions in this process, with one timed
//! span per call, and reads counts from the program's own stats structs
//! (`BatchStats`, `QueryStats`, the wire `Stats` reply). The spans live in
//! this file, around the calls; nothing inside the program is instrumented.
//! The pass also prints its own end-to-end figures (`traced.*`), so the cost
//! of tracing shows beside the untraced ones.

use std::path::Path;
use std::time::Instant;

use anc_core::persist::{DurabilityOptions, DurableEngine, SnapshotProfile, WAL_FILE};
use anc_core::{AncConfig, AncEngine, ClusterMode, Pyramids, QueryDecision};
use anc_metrics::Clustering;
use anc_server::{EngineBackend, Request, Response, ServeConfig, ServerCore, StatsReply};

use crate::drive::{quantile, Conn};
use crate::inputs::{kind, IngestPace, Inputs, Plan};
use crate::Metrics;

/// Seed `anc index` builds the index with by default.
const INDEX_SEED: u64 = 42;
/// Repetitions of each micro-timed call (wire codec, snapshot reads, ping).
const REPS: usize = 400;

fn secs(start: Instant) -> f64 {
    start.elapsed().as_secs_f64()
}

/// Median round trip of a `Ping` on an idle connection.
pub fn ping_rtt_us(conn: &mut Conn) -> Result<f64, String> {
    let mut rtt = Vec::with_capacity(REPS);
    for _ in 0..REPS {
        let start = Instant::now();
        conn.call(&Request::Ping)?;
        rtt.push(secs(start) * 1e6);
    }
    Ok(quantile(&rtt, 0.5))
}

/// The serving layer's own counters, from the wire `Stats` reply.
pub fn service_layer(out: &mut Metrics, s: &StatsReply) {
    out.put("service.publishes", s.epoch as f64, "count");
    out.put("service.applied_batches", s.applied_batches as f64, "count");
    out.put("service.coalesced_jobs", s.coalesced_jobs as f64, "count");
    out.put("service.apply_p50_us", s.apply_p50_ns as f64 / 1e3, "us");
    out.put("service.shed", s.shed as f64, "count");
}

/// NMI of the served clusterings against the planted communities.
pub fn quality(out: &mut Metrics, planted: &[u32], even: &[u32], power: &[u32]) {
    let truth = Clustering::from_labels(planted);
    out.put("quality.nmi_even", anc_metrics::nmi(&Clustering::from_labels(even), &truth), "ratio");
    out.put(
        "quality.nmi_power",
        anc_metrics::nmi(&Clustering::from_labels(power), &truth),
        "ratio",
    );
}

#[derive(Default)]
struct CacheTally {
    secs: f64,
    refreshes: u64,
    revoted: u64,
    flips: u64,
    decisions: [u64; 5],
    cold_fill_s: f64,
}

impl CacheTally {
    /// One publish-equivalent refresh: both modes at the served level.
    fn refresh(&mut self, engine: &AncEngine, level: usize) {
        self.refreshes += 1;
        for mode in [ClusterMode::Even, ClusterMode::Power] {
            let start = Instant::now();
            let (_, qs) = engine.cluster_all_cached(level, mode);
            let took = secs(start);
            self.secs += took;
            self.revoted += qs.revoted as u64;
            self.flips += qs.flips as u64;
            let slot = match qs.decision {
                QueryDecision::Hit => 0,
                QueryDecision::Extract => 1,
                QueryDecision::Repair => 2,
                QueryDecision::Rebuild => 3,
                QueryDecision::ColdFill => 4,
            };
            self.decisions[slot] += 1;
            if slot == 4 {
                self.cold_fill_s += took;
            }
        }
    }
}

/// The in-process layer pass.
pub fn layers(
    out: &mut Metrics,
    plan: &Plan,
    inputs: &Inputs,
    engine_file: &Path,
    work: &Path,
    level: usize,
    queries: &[Request],
) -> Result<(), String> {
    let err = |e: anc_core::RestoreError| e.to_string();

    // persist (JSON engine file), engine, pyramid.
    let bytes = std::fs::read(engine_file).map_err(|e| e.to_string())?;
    let start = Instant::now();
    let engine = AncEngine::load_json(&bytes[..]).map_err(err)?;
    let json_load_s = secs(start);
    let json_mb = bytes.len() as f64 / 1e6;
    drop(bytes);
    let cfg = AncConfig::default();
    let start = Instant::now();
    drop(AncEngine::new(inputs.graph.clone(), cfg.clone(), INDEX_SEED));
    let new_s = secs(start);
    let recip: Vec<f64> = engine.sim_anchored().iter().map(|s| 1.0 / s).collect();
    let start = Instant::now();
    drop(Pyramids::build(engine.graph(), &recip, cfg.k, cfg.theta, INDEX_SEED));
    let build_s = secs(start);
    let saved = work.join("trace-engine.json");
    let start = Instant::now();
    let file = std::fs::File::create(&saved).map_err(|e| e.to_string())?;
    engine.save_json(std::io::BufWriter::new(file)).map_err(err)?;
    let json_save_s = secs(start);
    let _ = std::fs::remove_file(&saved);

    // binary snapshot (Exact profile).
    let mut bin = Vec::new();
    let start = Instant::now();
    engine.save_binary(&mut bin, SnapshotProfile::Exact).map_err(err)?;
    let bin_save_s = secs(start);
    let start = Instant::now();
    drop(AncEngine::load_binary(&bin[..]).map_err(err)?);
    let bin_load_s = secs(start);
    let bin_mb = bin.len() as f64 / 1e6;
    drop(bin);

    // cache cold fill, then the stream through the write-ahead log, with a
    // refresh wherever the server publishes at the least.
    let mut cache = CacheTally::default();
    cache.refresh(&engine, level);
    let first_refresh_s = cache.secs;
    let dir = work.join("trace-durable");
    let mut durable =
        DurableEngine::create(engine, &dir, DurabilityOptions::default()).map_err(err)?;
    let every = match plan.pace {
        IngestPace::Windows { window, .. } => window,
        IngestPace::Rate(_) => 1,
    };
    let (mut busy, mut append, mut compact) = (0.0, 0.0, 0.0);
    let (mut records, mut compactions) = (0u64, 0u64);
    let mut batch = anc_core::BatchStats::default();
    let traced_start = Instant::now();
    for (i, job) in inputs.jobs.iter().enumerate() {
        let start = Instant::now();
        let bs = durable.activate_batch(&job.edges, job.t).map_err(err)?;
        let call = secs(start);
        let wall = bs.wall.as_secs_f64();
        busy += wall;
        records += 1;
        if durable.wal_records() == 0 {
            compactions += 1;
            compact += call - wall;
        } else {
            append += call - wall;
        }
        batch += bs;
        if (i + 1) % every == 0 || i + 1 == inputs.jobs.len() {
            cache.refresh(durable.engine(), level);
        }
    }
    let traced_ingest_s = secs(traced_start);
    let wal_mb = std::fs::metadata(dir.join(WAL_FILE)).map(|m| m.len() as f64 / 1e6).unwrap_or(0.0);
    let activations = durable.engine().activations();
    let rescales = durable.engine().rescales();
    drop(durable);
    let start = Instant::now();
    let durable = DurableEngine::open(&dir, DurabilityOptions::default()).map_err(err)?;
    let open_s = secs(start);

    // snapshot reads and the wire codec, on the final state.
    let core = ServerCore::start(
        EngineBackend::Durable(durable),
        ServeConfig {
            levels: vec![level],
            modes: vec![ClusterMode::Even, ClusterMode::Power],
            ..ServeConfig::default()
        },
    )
    .map_err(|e| e.to_string())?;
    let snap = core.reader().snapshot();
    let (mut same, mut members, mut summary) = (Vec::new(), Vec::new(), Vec::new());
    let mut codec: std::collections::BTreeMap<&'static str, (Vec<f64>, Vec<f64>, usize)> =
        Default::default();
    let mut time_codec = |req: &Request, resp: &Response| -> Result<(), String> {
        let mut buf = Vec::new();
        let start = Instant::now();
        req.encode(&mut buf);
        let req_len = buf.len();
        resp.encode(&mut buf);
        let enc = secs(start) * 1e9;
        let start = Instant::now();
        let r = Request::decode(&buf[..req_len]).map_err(|e| e.to_string())?;
        let s = Response::decode(&buf[req_len..]).map_err(|e| e.to_string())?;
        let dec = secs(start) * 1e9;
        std::hint::black_box((r, s));
        let entry = codec.entry(kind(req)).or_default();
        entry.0.push(enc);
        entry.1.push(dec);
        entry.2 = buf.len();
        Ok(())
    };
    for q in queries.iter().cycle().take(REPS.max(queries.len().min(4 * REPS))) {
        let start = Instant::now();
        let resp = match *q {
            Request::SameCluster { u, v, level, mode } => {
                let value = snap.same_cluster_at(u, v, level, mode).ok_or("same_cluster")?;
                same.push(secs(start) * 1e9);
                Response::SameCluster { epoch: snap.epoch, value }
            }
            Request::Members { v, level, mode } => {
                let m = snap.members_at(v, level, mode).ok_or("members")?;
                members.push(secs(start) * 1e6);
                Response::Members { epoch: snap.epoch, members: m }
            }
            Request::ClusterSummary { level, mode } => {
                let c = snap.clusters_at(level, mode).ok_or("summary")?;
                let (num_clusters, num_assigned) =
                    (c.num_clusters() as u64, c.num_assigned() as u64);
                summary.push(secs(start) * 1e9);
                Response::Summary { epoch: snap.epoch, generation: 0, num_clusters, num_assigned }
            }
            Request::ClusterLabels { level, mode } => {
                let c = snap.clusters_at(level, mode).ok_or("labels")?;
                Response::Labels { epoch: snap.epoch, generation: 0, labels: c.labels().to_vec() }
            }
            _ => continue,
        };
        time_codec(q, &resp)?;
    }
    for job in inputs.jobs.iter().take(REPS) {
        time_codec(
            &Request::Ingest { t: job.t, edges: job.edges.clone() },
            &Response::Ingested { seq: 1 },
        )?;
        time_codec(&Request::Flush, &Response::Flushed { epoch: 1 })?;
    }
    drop(snap);
    let report = core.shutdown();
    drop(report);
    let _ = std::fs::remove_dir_all(&dir);

    out.put("engine.new_s", new_s, "s");
    out.put("engine.ingest_busy_s", busy, "s");
    out.put("engine.activations", activations as f64, "count");
    out.put("engine.dirty_edges", batch.dirty_edges as f64, "count");
    out.put("engine.sigma_recomputes", batch.sigma_recomputes as f64, "count");
    out.put("engine.rescales", rescales as f64, "count");
    out.put("pyramid.build_s", build_s, "s");
    out.put("pyramid.repair_updates", batch.repair_updates as f64, "count");
    out.put("pyramid.repair_skips", batch.repair_skips as f64, "count");
    let attempts = (batch.repair_updates + batch.repair_skips).max(1) as f64;
    out.put("pyramid.repair_useful_share", batch.repair_updates as f64 / attempts, "ratio");
    out.put("cache.refresh_s", cache.secs, "s");
    out.put("cache.refreshes", cache.refreshes as f64, "count");
    out.put("cache.revoted_edges", cache.revoted as f64, "count");
    out.put("cache.vote_flips", cache.flips as f64, "count");
    for (i, name) in ["hit", "extract", "repair", "rebuild", "cold_fill"].iter().enumerate() {
        out.put(format!("cache.{name}"), cache.decisions[i] as f64, "count");
    }
    out.put("cache.cold_fill_s", cache.cold_fill_s, "s");
    out.put("persist.json_save_s", json_save_s, "s");
    out.put("persist.json_load_s", json_load_s, "s");
    out.put("persist.json_mb", json_mb, "MB");
    out.put("binary.save_s", bin_save_s, "s");
    out.put("binary.load_s", bin_load_s, "s");
    out.put("binary.mb", bin_mb, "MB");
    out.put("wal.append_s", append, "s");
    out.put("wal.records", records as f64, "count");
    out.put("wal.mb", wal_mb, "MB");
    out.put("wal.compactions", compactions as f64, "count");
    out.put("wal.compact_s", compact, "s");
    out.put("wal.replay_s", (open_s - bin_load_s).max(0.0), "s");
    out.put("snapshot.same_cluster_ns", quantile(&same, 0.5), "ns");
    out.put("snapshot.members_us", quantile(&members, 0.5), "us");
    out.put("snapshot.summary_ns", quantile(&summary, 0.5), "ns");
    for k in ["ingest", "flush", "same_cluster", "summary", "members", "labels"] {
        let (enc, dec, bytes) = codec
            .get(k)
            .map_or((f64::NAN, f64::NAN, 0), |(e, d, b)| (quantile(e, 0.5), quantile(d, 0.5), *b));
        out.put(format!("wire.encode_ns.{k}"), enc, "ns");
        out.put(format!("wire.decode_ns.{k}"), dec, "ns");
        out.put(format!("wire.bytes.{k}"), bytes as f64, "bytes");
    }
    let applied: usize = inputs.jobs.iter().map(|j| j.edges.len()).sum();
    out.put("traced.ingest_eps", applied as f64 / traced_ingest_s, "activations/s");
    out.put("traced.setup_s", new_s + json_save_s + json_load_s + first_refresh_s, "s");
    Ok(())
}
