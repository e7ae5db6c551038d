//! What every workload shares: the pinned graph configuration, seeded
//! input streams, and an independent sequential BFS that replies are
//! checked against.

use sunbfs::common::{Edge, JsonValue, MachineConfig, SplitMix64};
use sunbfs::core::EngineConfig;
use sunbfs::net::MeshShape;
use sunbfs::part::Thresholds;
use sunbfs::serve::SessionConfig;

/// Every workload runs on this mesh: two rank threads, one per core.
pub const MESH: MeshShape = MeshShape { rows: 1, cols: 2 };

/// The graph a workload runs on: Graph 500 R-MAT at `scale`, edge
/// factor 16, thresholds 256/64, the default (`measured`) direction
/// heuristic, generator seed taken from the benchmark seed.
pub fn session_cfg(scale: u32, seed: u64, mesh: MeshShape) -> SessionConfig {
    SessionConfig {
        scale,
        edge_factor: 16,
        mesh,
        thresholds: Thresholds::new(256, 64),
        engine: EngineConfig::default(),
        machine: MachineConfig::new_sunway(),
        seed,
        max_load_attempts: 1,
    }
}

/// An independent random stream for one purpose of one workload.
pub fn stream(seed: u64, purpose: u64) -> SplitMix64 {
    SplitMix64::new(seed ^ purpose.wrapping_mul(0x9e37_79b9_7f4a_7c15))
}

/// Reference BFS result of one root: reached vertices and how many sit
/// at each depth.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Summary {
    pub visited: u64,
    pub histogram: Vec<u64>,
}

/// Undirected adjacency in CSR form, self-loops dropped.
pub struct RefGraph {
    offsets: Vec<usize>,
    adj: Vec<u32>,
}

impl RefGraph {
    pub fn new<'a>(n: u64, edges: impl Iterator<Item = &'a Edge> + Clone) -> Self {
        let mut offsets = vec![0usize; n as usize + 1];
        for e in edges.clone().filter(|e| !e.is_self_loop()) {
            offsets[e.u as usize + 1] += 1;
            offsets[e.v as usize + 1] += 1;
        }
        for i in 0..n as usize {
            offsets[i + 1] += offsets[i];
        }
        let mut fill = offsets.clone();
        let mut adj = vec![0u32; offsets[n as usize]];
        for e in edges.filter(|e| !e.is_self_loop()) {
            adj[fill[e.u as usize]] = e.v as u32;
            fill[e.u as usize] += 1;
            adj[fill[e.v as usize]] = e.u as u32;
            fill[e.v as usize] += 1;
        }
        RefGraph { offsets, adj }
    }

    pub fn num_vertices(&self) -> u64 {
        (self.offsets.len() - 1) as u64
    }

    /// Vertices with at least one non-loop edge, ascending.
    pub fn non_isolated(&self) -> Vec<u64> {
        (0..self.num_vertices())
            .filter(|&v| self.offsets[v as usize + 1] > self.offsets[v as usize])
            .collect()
    }

    /// Sequential BFS from `root`.
    pub fn summary(&self, root: u64) -> Summary {
        let n = self.num_vertices() as usize;
        let mut depth = vec![u32::MAX; n];
        let mut queue = Vec::with_capacity(n);
        depth[root as usize] = 0;
        queue.push(root as u32);
        let mut head = 0;
        let mut histogram = vec![1u64];
        while head < queue.len() {
            let u = queue[head] as usize;
            head += 1;
            let d = depth[u] + 1;
            for &v in &self.adj[self.offsets[u]..self.offsets[u + 1]] {
                if depth[v as usize] == u32::MAX {
                    depth[v as usize] = d;
                    queue.push(v);
                    if histogram.len() <= d as usize {
                        histogram.push(0);
                    }
                    histogram[d as usize] += 1;
                }
            }
        }
        Summary {
            visited: queue.len() as u64,
            histogram,
        }
    }

    /// [`Self::summary`] for every root, on two threads (untimed).
    pub fn summaries(&self, roots: &[u64]) -> Vec<Summary> {
        let half = roots.len().div_ceil(2);
        std::thread::scope(|s| {
            let parts: Vec<_> = roots
                .chunks(half.max(1))
                .map(|chunk| {
                    s.spawn(move || {
                        chunk
                            .iter()
                            .map(|&r| self.summary(r))
                            .collect::<Vec<Summary>>()
                    })
                })
                .collect();
            parts
                .into_iter()
                .flat_map(|h| h.join().expect("reference BFS thread panicked"))
                .collect::<Vec<Summary>>()
        })
    }
}

/// `k` distinct vertices drawn from `candidates` by `rng`.
pub fn sample_distinct(rng: &mut SplitMix64, candidates: &[u64], k: usize) -> Vec<u64> {
    let mut pool = candidates.to_vec();
    let k = k.min(pool.len());
    for i in 0..k {
        let j = i + rng.next_below((pool.len() - i) as u64) as usize;
        pool.swap(i, j);
    }
    pool.truncate(k);
    pool
}

/// A served `result` reply must carry exactly the reference's visited
/// count and depth histogram.
pub fn check_result(reply: &JsonValue, expect: &Summary) -> Result<(), String> {
    let status = reply.get("status").and_then(JsonValue::as_str);
    if status != Some("served") {
        return Err(format!("status {status:?}, not served"));
    }
    let visited = reply.get("visited").and_then(JsonValue::as_u64);
    if visited != Some(expect.visited) {
        return Err(format!("visited {visited:?}, reference {}", expect.visited));
    }
    let histogram: Option<Vec<u64>> = reply
        .get("depth_histogram")
        .and_then(JsonValue::as_array)
        .and_then(|a| a.iter().map(JsonValue::as_u64).collect());
    if histogram.as_ref() != Some(&expect.histogram) {
        return Err(format!(
            "depth histogram {histogram:?}, reference {:?}",
            expect.histogram
        ));
    }
    Ok(())
}

/// A float field of a reply.
pub fn f64_field(v: &JsonValue, key: &str) -> Option<f64> {
    match v.get(key)? {
        JsonValue::Float(x) => Some(*x),
        JsonValue::UInt(x) => Some(*x as f64),
        JsonValue::Int(x) => Some(*x as f64),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path() -> RefGraph {
        let edges = [Edge::new(0, 1), Edge::new(1, 2), Edge::new(2, 2)];
        RefGraph::new(4, edges.iter())
    }

    #[test]
    fn reference_levels_a_path() {
        let g = path();
        assert_eq!(
            g.summary(0),
            Summary {
                visited: 3,
                histogram: vec![1, 1, 1]
            }
        );
        assert_eq!(g.non_isolated(), vec![0, 1, 2]);
        assert_eq!(g.summaries(&[0, 1, 3]).len(), 3);
    }

    #[test]
    fn a_corrupted_reply_fails_the_check() {
        let expect = path().summary(1);
        let good = JsonValue::parse(
            r#"{"reply":"result","status":"served","visited":3,"depth_histogram":[1,2]}"#,
        )
        .unwrap();
        assert_eq!(check_result(&good, &expect), Ok(()));
        for bad in [
            r#"{"reply":"result","status":"served","visited":2,"depth_histogram":[1,2]}"#,
            r#"{"reply":"result","status":"served","visited":3,"depth_histogram":[1,1,1]}"#,
            r#"{"reply":"result","status":"quarantined","visited":3,"depth_histogram":[1,2]}"#,
        ] {
            let bad = JsonValue::parse(bad).unwrap();
            assert!(check_result(&bad, &expect).is_err(), "{}", bad.render());
        }
    }
}
