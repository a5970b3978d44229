//! End-to-end benchmark of `anc serve`.
//!
//! ```text
//! servebench --workload read_mostly|durable_restart --seed N
//!            --seconds S --trace 0|1 --anc PATH [--work DIR]
//! ```
//!
//! Generates the workload's inputs from the seed, launches `anc index` and
//! `anc serve` as separate processes, drives the server over the wire
//! protocol, checks every answer it keeps, and prints each metric by name
//! with its unit. The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 1` the
//! metrics are the per-layer ones from an in-process traced pass over the
//! same inputs (see `trace.rs`); the end-to-end figures are printed above.

mod check;
mod drive;
mod inputs;
mod proc;
mod trace;

use std::path::{Path, PathBuf};
use std::time::Instant;

use anc_core::{AncEngine, ClusterMode};
use anc_server::{Request, Response};

use drive::{quantile, Conn, Ops};
use inputs::{IngestPace, Inputs, Plan, Workload};
use proc::{run_anc, Server};

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Relaunches on the restart's files per run; `recover_s` is their median.
const RECOVERIES: usize = 3;
/// Queries re-sent in the quiet phase and checked against the labels.
const VERIFY_SAMPLES: usize = 256;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    anc: PathBuf,
    work: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |name: &str| -> Result<&str, String> {
        argv.iter()
            .position(|a| a == name)
            .and_then(|i| argv.get(i + 1))
            .map(String::as_str)
            .ok_or_else(|| format!("missing {name}"))
    };
    let workload = get("--workload")?;
    Ok(Args {
        workload: Workload::parse(workload)
            .ok_or_else(|| format!("unknown workload {workload:?}"))?,
        seed: get("--seed")?.parse().map_err(|_| "bad --seed")?,
        seconds: get("--seconds")?.parse().map_err(|_| "bad --seconds")?,
        trace: match get("--trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
        },
        anc: PathBuf::from(get("--anc")?),
        work: PathBuf::from(get("--work").unwrap_or(".bench_work")),
    })
}

/// One named metric.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// Metrics in output order.
#[derive(Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push(Metric { name: name.into(), value, unit });
    }
}

/// Everything one run found.
pub struct Outcome {
    pub end_to_end: Metrics,
    pub layers: Metrics,
    pub ops: Ops,
    pub failures: Vec<String>,
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("servebench: {e}");
            std::process::exit(2);
        }
    };
    // Set before any thread or child process starts; the pool re-reads it
    // on every call, and every `anc` process inherits it.
    if let Some(n) = args.workload.plan().pool_threads {
        std::env::set_var("RAYON_NUM_THREADS", n.to_string());
    }
    let work = args.work.join(format!("{}-{}", args.workload.name(), std::process::id()));
    let result = std::fs::create_dir_all(&work)
        .map_err(|e| format!("cannot create {work:?}: {e}"))
        .and_then(|()| run(&args, &work));
    let _ = std::fs::remove_dir_all(&work);
    let outcome = match result {
        Ok(o) => o,
        Err(e) => {
            eprintln!("servebench: {e}");
            std::process::exit(1);
        }
    };
    for (kind, (attempted, failed)) in &outcome.ops.kinds {
        println!("ops {kind:<13} attempted {attempted:>7}  failed {failed}");
    }
    for e in &outcome.ops.errors {
        println!("op error: {e}");
    }
    for f in &outcome.failures {
        println!("CHECK FAILED: {f}");
    }
    for m in &outcome.end_to_end.0 {
        println!("e2e   {:<28} {:>14.4} {}", m.name, m.value, m.unit);
    }
    for m in &outcome.layers.0 {
        println!("layer {:<28} {:>14.4} {}", m.name, m.value, m.unit);
    }
    let shown = if args.trace { &outcome.layers } else { &outcome.end_to_end };
    let metrics = shown
        .0
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_num(m.value),
                m.unit
            )
        })
        .collect::<Vec<_>>()
        .join(", ");
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        outcome.failures.is_empty(),
        outcome.ops.attempted(),
        outcome.ops.failed(),
    );
}

/// JSON has no NaN or infinity; a metric that could not be measured is 0.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

fn path_str(p: &Path) -> &str {
    p.to_str().unwrap_or_default()
}

fn file_mb(paths: &[PathBuf]) -> f64 {
    paths.iter().filter_map(|p| std::fs::metadata(p).ok()).map(|m| m.len() as f64).sum::<f64>()
        / 1e6
}

/// Where a run's files live.
struct Files {
    graph: PathBuf,
    engine: PathBuf,
    /// Volatile: the state saved at graceful shutdown. Durable: the log dir.
    state: PathBuf,
    work: PathBuf,
}

impl Files {
    fn serve_args<'a>(&'a self, plan: &Plan, from: &'a Path) -> Vec<&'a str> {
        if plan.durable {
            vec!["--engine", path_str(from), "--durable-dir", path_str(&self.state)]
        } else {
            vec!["--engine", path_str(from), "--out", path_str(&self.state)]
        }
    }

    /// What the server keeps on disk across a restart.
    fn state_files(&self, plan: &Plan) -> Vec<PathBuf> {
        if plan.durable {
            vec![self.state.join("snapshot.anc"), self.state.join("wal.anc")]
        } else {
            vec![self.state.clone()]
        }
    }
}

/// One set-up: index the graph, start the server, wait for its first
/// answer. Durable set-ups start from an empty log directory.
fn setup(args: &Args, plan: &Plan, files: &Files, tag: &str) -> Result<(Server, f64), String> {
    if plan.durable {
        let _ = std::fs::remove_dir_all(&files.state);
    }
    let log = files.work.join(format!("{tag}-index.log"));
    let start = Instant::now();
    run_anc(
        &args.anc,
        &["index", "--graph", path_str(&files.graph), "--out", path_str(&files.engine)],
        &log,
    )?;
    let indexed = start.elapsed().as_secs_f64();
    let server =
        Server::launch(&args.anc, &files.serve_args(plan, &files.engine), &files.work, tag)?;
    let total = start.elapsed().as_secs_f64();
    eprintln!("{tag}: index {indexed:.3} s, serve {:.3} s", total - indexed);
    Ok((server, total))
}

/// Both published clusterings, read over one connection at one epoch.
fn read_labels(conn: &mut Conn, level: usize) -> Result<(u64, Vec<u32>, Vec<u32>), String> {
    let mut get = |mode| match conn.call(&Request::ClusterLabels { level, mode })? {
        Response::Labels { epoch, labels, .. } => Ok((epoch, labels)),
        other => Err(format!("labels answered {other:?}")),
    };
    let (e1, even) = get(ClusterMode::Even)?;
    let (e2, power) = get(ClusterMode::Power)?;
    if e1 != e2 {
        return Err(format!("labels read at epochs {e1} and {e2} on a quiet server"));
    }
    Ok((e1, even, power))
}

/// Loads the engine file the servers start from.
fn load_reference(files: &Files) -> Result<AncEngine, String> {
    let file = std::fs::File::open(&files.engine).map_err(|e| e.to_string())?;
    AncEngine::load_json(std::io::BufReader::new(file)).map_err(|e| format!("reference load: {e}"))
}

/// The cache probe: a fresh volatile server on the same engine file gets a
/// stream that does not depend on `--seed`, one job and one flush at a
/// time (so the server publishes after every job, as under paced ingest),
/// past the engine's first batched rescale. Its final labels are compared
/// with the serial-replay reference; a difference is one failed
/// `cache_probe` operation, the same in every run.
fn cache_probe(
    args: &Args,
    files: &Files,
    inputs: &Inputs,
    level: usize,
    ops: &mut Ops,
) -> Result<(), String> {
    let jobs = inputs::stream_jobs(
        &inputs.graph,
        &inputs.planted,
        inputs::PROBE_JOBS,
        inputs::PROBE_SEED,
    )?;
    let server =
        Server::launch(&args.anc, &["--engine", path_str(&files.engine)], &files.work, "probe")?;
    let mut conn = Conn::open(server.addr)?;
    for job in &jobs {
        let res = conn.call(&Request::Ingest { t: job.t, edges: job.edges.clone() });
        ops.record("ingest", res.map(|_| ()));
        let res = conn.call(&Request::Flush);
        ops.record("flush", res.map(|_| ()));
    }
    let served = read_labels(&mut conn, level);
    drop(conn);
    server.kill()?;
    let mut reference = load_reference(files)?;
    check::replay_serial(&mut reference, &jobs);
    let outcome = served.and_then(|(_, even, power)| {
        let expected = |mode| check::cold_labels(&reference, level, mode);
        check::same_labels("probe even vs serial replay", &even, &expected(ClusterMode::Even))?;
        check::same_labels("probe power vs serial replay", &power, &expected(ClusterMode::Power))
    });
    ops.record("cache_probe", outcome);
    Ok(())
}

fn run(args: &Args, work: &Path) -> Result<Outcome, String> {
    let begun = Instant::now();
    let phase = |name: &str| eprintln!("{:>7.2} s  {name} done", begun.elapsed().as_secs_f64());
    let plan = args.workload.plan();
    let files = Files {
        graph: work.join("graph.txt"),
        engine: work.join("engine.json"),
        state: work.join(if plan.durable { "durable" } else { "saved.json" }),
        work: work.to_path_buf(),
    };
    let inputs = inputs::generate(&plan, args.seed, args.seconds, &files.graph)?;
    let mut ops = Ops::default();
    let mut failures = Vec::new();
    let mut e2e = Metrics::default();
    let mut layers = Metrics::default();

    // Set-up, several times; the last server carries the traffic.
    let mut setup_secs = Vec::new();
    let mut server = None;
    for i in 0..SETUPS {
        let (s, secs) = setup(args, &plan, &files, &format!("setup{i}"))?;
        setup_secs.push(secs);
        if i + 1 < SETUPS {
            s.kill()?;
        } else {
            server = Some(s);
        }
    }
    let server = server.ok_or("no set-up ran")?;

    phase("setups");
    // The reference engine: the same file the server loaded.
    let mut reference = load_reference(&files)?;
    let level = reference.default_level();
    let queries = inputs::query_mix(
        &inputs.graph,
        level,
        inputs::query_count(&plan, args.seconds),
        args.seed ^ 0x9ae7,
    );

    phase("reference load");
    // Traffic.
    let cpu0 = server.cpu_s()?;
    let mut conn = Conn::open(server.addr)?;
    let (ingest, query) = match plan.pace {
        IngestPace::Windows { window, .. } => {
            drive::windows_then_queries(&mut conn, &inputs.jobs, window, &queries, plan.query_rate)
        }
        IngestPace::Rate(rate) => {
            let mut side = Conn::open(server.addr)?;
            let start = Instant::now() + std::time::Duration::from_millis(20);
            let jobs = &inputs.jobs;
            std::thread::scope(|s| {
                let h = s.spawn(move || {
                    let r = drive::paced_ingest(&mut side, jobs, rate, start);
                    (r, side)
                });
                let q = drive::open_loop(&mut conn, &queries, plan.query_rate, start);
                let (r, side) = h.join().expect("ingest thread panicked");
                failures.extend(side.epoch_errors);
                (r, q)
            })
        }
    };
    let server_cpu = server.cpu_s()? - cpu0;
    phase("traffic");

    // Quiet phase: counters, labels, and answers re-checked at one epoch.
    let stats = match conn.call(&Request::Stats)? {
        Response::Stats(s) => s,
        other => return Err(format!("stats answered {other:?}")),
    };
    if let Err(e) = check::ingested_all(ingest.applied, stats.ingested_edges) {
        failures.push(e);
    }
    let (epoch, even, power) = read_labels(&mut conn, level)?;
    for q in
        check::sample(queries.len(), VERIFY_SAMPLES, args.seed).into_iter().map(|i| &queries[i])
    {
        let labels = match q {
            Request::SameCluster { mode: ClusterMode::Even, .. }
            | Request::Members { mode: ClusterMode::Even, .. }
            | Request::ClusterSummary { mode: ClusterMode::Even, .. }
            | Request::ClusterLabels { mode: ClusterMode::Even, .. } => &even,
            _ => &power,
        };
        let resp = conn.call(q);
        if let Ok(resp) = &resp {
            let at = match resp {
                Response::SameCluster { epoch, .. }
                | Response::Summary { epoch, .. }
                | Response::Labels { epoch, .. }
                | Response::Members { epoch, .. } => *epoch,
                _ => u64::MAX,
            };
            let agreed = if at == epoch {
                check::agrees(resp, q, labels)
            } else {
                Err(format!(
                    "quiet-phase {} answered at epoch {at}, labels at {epoch}",
                    inputs::kind(q)
                ))
            };
            if let Err(e) = agreed {
                failures.push(e);
            }
        }
        ops.record(inputs::kind(q), resp.map(|_| ()));
    }
    for (what, labels) in [("even", &even), ("power", &power)] {
        if let Err(e) = check::clusters_connected(&inputs.graph, labels) {
            failures.push(format!("{what}: {e}"));
        }
    }
    if let Err(e) = check::power_inside_even(&power, &even) {
        failures.push(e);
    }
    let ping_rtt_us = if args.trace { trace::ping_rtt_us(&mut conn)? } else { 0.0 };
    failures.extend(std::mem::take(&mut conn.epoch_errors));
    drop(conn);
    let peak_rss = server.peak_rss_mb()?;

    phase("quiet phase");
    // Restart: SIGKILL a durable server, stop a volatile one gracefully
    // (it saves its state); then relaunch on what it left on disk, read
    // both clusterings and SIGKILL it, several times. Recovery does not
    // compact the log, and a killed volatile server does not rewrite its
    // saved file, so every relaunch does the same work.
    let (disk_mb, relaunch_args) = if plan.durable {
        let mb = file_mb(&files.state_files(&plan));
        server.kill()?;
        (mb, vec!["--durable-dir", path_str(&files.state)])
    } else {
        server.shutdown()?;
        (file_mb(&files.state_files(&plan)), files.serve_args(&plan, &files.state))
    };
    let mut recover_secs = Vec::new();
    let mut recovered = Vec::new();
    for i in 0..RECOVERIES {
        let start = Instant::now();
        let restarted = Server::launch(&args.anc, &relaunch_args, work, &format!("restart{i}"))?;
        recover_secs.push(start.elapsed().as_secs_f64());
        let mut conn = Conn::open(restarted.addr)?;
        let labels = read_labels(&mut conn, level);
        ops.record("restart", labels.as_ref().map(|_| ()).map_err(Clone::clone));
        recovered.push(labels);
        drop(conn);
        restarted.kill()?;
    }
    let recover_s = quantile(&recover_secs, 0.5);

    phase("restart");
    // The serial-replay reference, against the live and the recovered
    // labels (equal to each other whenever both equal the reference).
    check::replay_serial(&mut reference, &inputs.jobs);
    for (what, mode, live, i) in
        [("even", ClusterMode::Even, &even, 0), ("power", ClusterMode::Power, &power, 1)]
    {
        let expected = check::cold_labels(&reference, level, mode);
        if let Err(e) =
            check::same_labels(&format!("live {what} vs serial replay"), live, &expected)
        {
            failures.push(e);
        }
        for (r, labels) in recovered.iter().enumerate() {
            if let Ok((_, even, power)) = labels {
                let served = [even, power][i];
                let what = format!("relaunch {r} {what} vs serial replay");
                if let Err(e) = check::same_labels(&what, served, &expected) {
                    failures.push(e);
                }
            }
        }
    }
    phase("reference replay");
    drop(reference);
    if plan.cache_probe {
        cache_probe(args, &files, &inputs, level, &mut ops)?;
        phase("cache probe");
    }

    ops.merge(ingest.ops);
    ops.merge(query.ops);
    // Latencies and rates are medians over stretches of the run: one per
    // window (windowed ingest), one per second (paced).
    let (query_chunk, job_chunk, ingest_eps) = match plan.pace {
        IngestPace::Windows { window, .. } => (
            queries.len().div_ceil(inputs.jobs.len().div_ceil(window)),
            window,
            quantile(&ingest.window_eps, 0.5),
        ),
        IngestPace::Rate(rate) => {
            (plan.query_rate as usize, rate as usize, ingest.applied as f64 / ingest.secs)
        }
    };
    e2e.put("setup_s", quantile(&setup_secs, 0.5), "s");
    e2e.put("ingest_eps", ingest_eps, "activations/s");
    e2e.put("query_p50_us", drive::median_of_medians(&query.latency_us, query_chunk), "us");
    e2e.put("visible_p50_ms", drive::median_of_medians(&ingest.visible_ms, job_chunk), "ms");
    e2e.put("recover_s", recover_s, "s");
    e2e.put("disk_mb", disk_mb, "MB");
    e2e.put("peak_rss_mb", peak_rss, "MB");
    e2e.put("server_cpu_s", server_cpu, "s");

    if args.trace {
        layers.put("client.late_max_ms", ingest.late_max_ms.max(query.late_max_ms), "ms");
        layers.put("query.p99_us", quantile(&query.latency_us, 0.99), "us");
        layers.put("query.p999_us", quantile(&query.latency_us, 0.999), "us");
        layers.put("visible.p99_ms", quantile(&ingest.visible_ms, 0.99), "ms");
        layers.put("tcp.ping_rtt_us", ping_rtt_us, "us");
        trace::service_layer(&mut layers, &stats);
        trace::quality(&mut layers, &inputs.planted, &even, &power);
        trace::layers(&mut layers, &plan, &inputs, &files.engine, work, level, &queries)?;
    }
    Ok(Outcome { end_to_end: e2e, layers, ops, failures })
}
