//! Output checks. Each returns `Err` with the first violation it finds.
//!
//! The reference clustering comes from the engine's own per-activation
//! path replayed in this process and extracted cold; the structural checks
//! are computed here from the graph and the served labels alone.

use anc_core::{cluster, AncEngine, ClusterMode};
use anc_graph::{Graph, NodeId};
use anc_metrics::NOISE;
use anc_server::Response;

use crate::inputs::{Job, Rng};

/// Replays `jobs` through `AncEngine::activate`, one activation at a time.
pub fn replay_serial(engine: &mut AncEngine, jobs: &[Job]) {
    for job in jobs {
        for &e in &job.edges {
            engine.activate(e, job.t);
        }
    }
}

/// The cold (cache-free) clustering of `engine` at `level`.
pub fn cold_labels(engine: &AncEngine, level: usize, mode: ClusterMode) -> Vec<u32> {
    cluster::cluster_all(engine.graph(), engine.pyramids(), level, mode).labels().to_vec()
}

/// Served labels equal the expected ones, node for node.
pub fn same_labels(what: &str, served: &[u32], expected: &[u32]) -> Result<(), String> {
    if served.len() != expected.len() {
        return Err(format!("{what}: {} labels, expected {}", served.len(), expected.len()));
    }
    match served.iter().zip(expected).position(|(a, b)| a != b) {
        None => Ok(()),
        Some(v) => Err(format!(
            "{what}: node {v} labelled {} but expected {} (same partition: {})",
            served[v],
            expected[v],
            canonical(served) == canonical(expected)
        )),
    }
}

/// Labels renumbered in first-appearance order (noise kept).
pub fn canonical(labels: &[u32]) -> Vec<u32> {
    let mut map = std::collections::HashMap::new();
    labels
        .iter()
        .map(|&l| {
            if l == NOISE {
                NOISE
            } else {
                let k = map.len() as u32;
                *map.entry(l).or_insert(k)
            }
        })
        .collect()
}

/// The server applied exactly the activations that were sent.
pub fn ingested_all(sent: u64, ingested: u64) -> Result<(), String> {
    if sent == ingested {
        Ok(())
    } else {
        Err(format!("server ingested {ingested} activations, {sent} were sent"))
    }
}

/// Every cluster induces a connected subgraph of `g`.
pub fn clusters_connected(g: &Graph, labels: &[u32]) -> Result<(), String> {
    if labels.len() != g.n() {
        return Err(format!("{} labels for {} nodes", labels.len(), g.n()));
    }
    let clusters = labels.iter().filter(|&&l| l != NOISE).max().map_or(0, |&m| m as usize + 1);
    let mut reached = vec![false; clusters];
    let mut seen = vec![false; g.n()];
    let mut stack: Vec<NodeId> = Vec::new();
    for s in 0..g.n() {
        let l = labels[s];
        if l == NOISE || seen[s] {
            continue;
        }
        if reached[l as usize] {
            return Err(format!("cluster {l} is disconnected (node {s} not reachable inside it)"));
        }
        reached[l as usize] = true;
        seen[s] = true;
        stack.push(s as NodeId);
        while let Some(u) = stack.pop() {
            for &w in g.neighbors(u) {
                if labels[w as usize] == l && !seen[w as usize] {
                    seen[w as usize] = true;
                    stack.push(w);
                }
            }
        }
    }
    Ok(())
}

/// Every power cluster lies inside one even cluster.
pub fn power_inside_even(power: &[u32], even: &[u32]) -> Result<(), String> {
    if power.len() != even.len() {
        return Err("power and even label vectors differ in length".into());
    }
    let clusters = power.iter().filter(|&&l| l != NOISE).max().map_or(0, |&m| m as usize + 1);
    let mut host = vec![None::<u32>; clusters];
    for (v, (&p, &e)) in power.iter().zip(even).enumerate() {
        if p == NOISE {
            continue;
        }
        if e == NOISE {
            return Err(format!("node {v} is in power cluster {p} but is even noise"));
        }
        match host[p as usize] {
            None => host[p as usize] = Some(e),
            Some(h) if h != e => {
                return Err(format!("power cluster {p} spans even clusters {h} and {e}"))
            }
            Some(_) => {}
        }
    }
    Ok(())
}

/// A query reply agrees with `labels` (the clustering of the same mode,
/// read at the same epoch).
pub fn agrees(resp: &Response, query: &anc_server::Request, labels: &[u32]) -> Result<(), String> {
    use anc_server::Request as Q;
    match (query, resp) {
        (Q::SameCluster { u, v, .. }, Response::SameCluster { value, .. }) => {
            let (a, b) = (labels[*u as usize], labels[*v as usize]);
            let want = a != NOISE && a == b;
            if *value == want {
                Ok(())
            } else {
                Err(format!("same_cluster({u}, {v}) = {value}, labels say {want}"))
            }
        }
        (Q::ClusterSummary { .. }, Response::Summary { num_clusters, num_assigned, .. }) => {
            let clusters = labels.iter().filter(|&&l| l != NOISE).max().map_or(0, |&m| m + 1);
            let assigned = labels.iter().filter(|&&l| l != NOISE).count();
            if *num_clusters == u64::from(clusters) && *num_assigned == assigned as u64 {
                Ok(())
            } else {
                Err(format!(
                    "summary says {num_clusters} clusters over {num_assigned} nodes, \
                     labels say {clusters} over {assigned}"
                ))
            }
        }
        (Q::Members { v, .. }, Response::Members { members, .. }) => {
            let l = labels[*v as usize];
            let want: Vec<NodeId> = if l == NOISE {
                Vec::new()
            } else {
                (0..labels.len() as NodeId).filter(|&w| labels[w as usize] == l).collect()
            };
            if *members == want {
                Ok(())
            } else {
                Err(format!("members({v}) has {} nodes, labels say {}", members.len(), want.len()))
            }
        }
        (Q::ClusterLabels { .. }, Response::Labels { labels: got, .. }) => {
            same_labels("labels", got, labels)
        }
        _ => Err(format!("reply {resp:?} does not answer {query:?}")),
    }
}

/// A deterministic sample of `count` indices below `n`.
pub fn sample(n: usize, count: usize, seed: u64) -> Vec<usize> {
    let mut rng = Rng::new(seed);
    (0..count).map(|_| rng.below(n)).collect()
}

#[cfg(test)]
mod tests {
    //! Each check must reject a corrupted input.
    use super::*;
    use anc_core::persist::{DurabilityOptions, DurableEngine, WAL_FILE};
    use anc_core::AncConfig;
    use anc_graph::gen::connected_caveman;

    fn engine() -> AncEngine {
        AncEngine::new(connected_caveman(6, 6).graph, AncConfig::default(), 7)
    }

    fn jobs(engine: &AncEngine, count: usize) -> Vec<Job> {
        let m = engine.graph().m();
        let mut rng = Rng::new(3);
        (0..count)
            .map(|i| Job {
                t: 0.05 * (i + 1) as f64,
                edges: (0..4).map(|_| rng.below(m) as u32).collect(),
            })
            .collect()
    }

    fn labels(engine: &AncEngine) -> (Vec<u32>, Vec<u32>) {
        let level = engine.default_level();
        (
            cold_labels(engine, level, ClusterMode::Even),
            cold_labels(engine, level, ClusterMode::Power),
        )
    }

    #[test]
    fn served_state_passes_every_check() {
        let mut e = engine();
        let stream = jobs(&e, 40);
        replay_serial(&mut e, &stream);
        let (even, power) = labels(&e);
        clusters_connected(e.graph(), &even).unwrap();
        clusters_connected(e.graph(), &power).unwrap();
        power_inside_even(&power, &even).unwrap();
        let mut batch = engine();
        for job in &stream {
            let _ = batch.activate_batch(&job.edges, job.t);
        }
        same_labels(
            "even",
            batch.cluster_all(batch.default_level(), ClusterMode::Even).labels(),
            &even,
        )
        .unwrap();
    }

    #[test]
    fn relabelled_node_is_rejected() {
        let e = engine();
        let (even, power) = labels(&e);
        let mut bad = even.clone();
        let v = bad.iter().position(|&l| l != NOISE).unwrap();
        bad[v] = bad[v].wrapping_add(1) % (*bad.iter().filter(|&&l| l != NOISE).max().unwrap() + 1);
        assert!(same_labels("even", &bad, &even).is_err());
        let q = anc_server::Request::Members { v: v as NodeId, level: 0, mode: ClusterMode::Even };
        let members = (0..even.len() as NodeId).filter(|&w| bad[w as usize] == bad[v]).collect();
        assert!(agrees(&Response::Members { epoch: 0, members }, &q, &even).is_err());
        let mut moved = power.clone();
        let p = moved.iter().position(|&l| l != NOISE).unwrap();
        let foreign = even.iter().position(|&l| l != NOISE && l != even[p]).unwrap();
        moved[foreign] = moved[p];
        assert!(power_inside_even(&moved, &even).is_err());
    }

    #[test]
    fn dropped_activation_is_rejected() {
        let mut full = engine();
        let stream = jobs(&full, 60);
        replay_serial(&mut full, &stream);
        let mut short = stream.clone();
        short[10].edges.pop();
        let mut dropped = engine();
        replay_serial(&mut dropped, &short);
        assert!(ingested_all(full.activations(), dropped.activations()).is_err());
    }

    #[test]
    fn disconnected_cluster_is_rejected() {
        let e = engine();
        let (even, _) = labels(&e);
        let mut bad = even.clone();
        // Give two far-apart clusters the same label.
        let a = even.iter().copied().find(|&l| l != NOISE).unwrap();
        let b = even.iter().copied().rfind(|&l| l != NOISE && l != a).unwrap();
        for l in &mut bad {
            if *l == b {
                *l = a;
            }
        }
        assert!(clusters_connected(e.graph(), &bad).is_err());
    }

    #[test]
    fn truncated_log_is_rejected() {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join(format!("../.bench_work/selftest-wal-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut d = DurableEngine::create(engine(), &dir, DurabilityOptions::default()).unwrap();
        let stream = jobs(d.engine(), 80);
        for job in &stream {
            let _ = d.activate_batch(&job.edges, job.t).unwrap();
        }
        let before = labels(d.engine());
        let acts = d.engine().activations();
        drop(d);
        let wal = dir.join(WAL_FILE);
        let len = std::fs::metadata(&wal).unwrap().len();
        std::fs::OpenOptions::new().write(true).open(&wal).unwrap().set_len(len / 2).unwrap();
        let recovered = DurableEngine::open(&dir, DurabilityOptions::default()).unwrap();
        let after = labels(recovered.engine());
        assert!(recovered.engine().activations() < acts);
        assert!(
            same_labels("even", &after.0, &before.0).is_err()
                || same_labels("power", &after.1, &before.1).is_err(),
            "a log cut in half must change the recovered clustering"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
