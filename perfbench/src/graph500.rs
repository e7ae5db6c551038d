//! `graph500`: the Graph 500 job as the paper runs it. Set-up is
//! `generate_chunk` plus `build_1p5d` on every rank; then each of the
//! 64 search keys from `pick_roots` is traversed single-source and
//! checked with `validate_parents`. The rest of the window traverses
//! the same keys again for more latency samples.

use std::time::Instant;

use sunbfs::common::Edge;
use sunbfs::core::validate::{component_edges, validate_parents};
use sunbfs::core::{run_bfs, BfsOutput, EngineConfig};
use sunbfs::driver::pick_roots;
use sunbfs::net::{Cluster, MeshShape};
use sunbfs::part::{build_1p5d, RankPartition};
use sunbfs::rmat::{generate_chunk, generate_edges};
use sunbfs::serve::SessionConfig;

use crate::graph::{session_cfg, MESH};
use crate::trace::{hmean, mean, median, quantile, SpanId, Tracer};
use crate::{Args, Outcome};

/// Search keys per job, as the Graph 500 specification sets it.
const ROOTS: usize = 64;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;

struct Built {
    cluster: Cluster,
    parts: Vec<RankPartition>,
}

/// Generate every rank's edge chunk and build its 1.5D partition.
fn setup(cfg: &SessionConfig, tracer: &Tracer) -> Built {
    let params = cfg.rmat();
    let n = params.num_vertices();
    let p = cfg.mesh.num_ranks() as u64;
    let cluster = Cluster::new(cfg.mesh, cfg.machine);
    let parts = tracer.span("setup", None, |id| {
        cluster.run(|ctx| {
            let chunk = tracer.span("rmat.generate_chunk", id, |_| {
                generate_chunk(&params, ctx.rank() as u64, p)
            });
            tracer.span("part.build_1p5d", id, |_| {
                build_1p5d(ctx, n, &chunk, cfg.thresholds)
            })
        })
    });
    Built { cluster, parts }
}

/// One root's traversal: its wall time in ms and every rank's output.
fn traverse(
    g: &Built,
    root: u64,
    engine: &EngineConfig,
    tracer: &Tracer,
) -> (f64, Result<Vec<BfsOutput>, String>) {
    let t = Instant::now();
    let outs = tracer.span("traverse", None, |id: Option<SpanId>| {
        g.cluster.run(|ctx| {
            tracer.span("core.engine.run_bfs", id, |_| {
                run_bfs(ctx, &g.parts[ctx.rank()], root, engine)
            })
        })
    });
    let ms = t.elapsed().as_secs_f64() * 1e3;
    let outs = outs
        .into_iter()
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| format!("root {root}: engine error {e}"));
    (ms, outs)
}

/// The global parent array, ranks' owned slices in rank order.
fn gather_parents(outs: &[BfsOutput]) -> Vec<u64> {
    outs.iter()
        .flat_map(|o| o.parents.iter().copied())
        .collect()
}

/// Graph 500 validation of one tree; on success the spec's TEPS edge
/// count of the traversed component.
fn check_tree(n: u64, edges: &[Edge], root: u64, parents: &[u64]) -> Result<u64, String> {
    if parents.len() as u64 != n {
        return Err(format!(
            "root {root}: {} parents for {n} vertices",
            parents.len()
        ));
    }
    validate_parents(n, edges, root, parents).map_err(|e| format!("root {root}: {e:?}"))?;
    Ok(component_edges(edges, parents))
}

/// Deterministic counts of one traversal, from the program's own stats.
struct Counts {
    sim_s: f64,
    iterations: f64,
    collectives: f64,
    bytes: f64,
    comm_s: f64,
    total_s: f64,
}

fn counts(outs: &[BfsOutput]) -> Counts {
    let sum = |f: &dyn Fn(&BfsOutput) -> f64| outs.iter().map(f).sum::<f64>();
    Counts {
        sim_s: outs.iter().map(|o| o.stats.sim_seconds).fold(0.0, f64::max),
        iterations: outs[0].stats.iterations.len() as f64,
        collectives: outs[0]
            .stats
            .comm
            .entries()
            .map(|(_, s)| s.count)
            .sum::<u64>() as f64,
        bytes: sum(&|o| o.stats.comm.entries().map(|(_, s)| s.bytes).sum::<u64>() as f64),
        comm_s: sum(&|o| o.stats.times.total_with_prefix("comm").as_secs()),
        total_s: sum(&|o| o.stats.times.total().as_secs()),
    }
}

/// A search key whose first traversal succeeded.
struct Key {
    root: u64,
    counts: Counts,
    tree: Vec<u64>,
}

/// Traverse every key once more on `g`, checking each tree against the
/// first one; returns per-key times in ms.
fn pass(
    g: &Built,
    keys: &[Key],
    engine: &EngineConfig,
    tracer: &Tracer,
    out: &mut Outcome,
) -> Vec<f64> {
    keys.iter()
        .map(|Key { root, tree, .. }| {
            let root = *root;
            let (ms, outs) = traverse(g, root, engine, tracer);
            out.check(outs.and_then(|o| {
                // The engine is deterministic, so a repeat traversal
                // must reproduce the validated tree exactly.
                if gather_parents(&o) == *tree {
                    Ok(())
                } else {
                    Err(format!("root {root}: repeat traversal differs"))
                }
            }));
            ms
        })
        .collect()
}

pub fn run(args: &Args, tracer: &Tracer) -> Outcome {
    let mut out = Outcome::default();
    let cfg = session_cfg(args.scale, args.seed, MESH);
    let engine = cfg.engine;
    let params = cfg.rmat();
    let n = params.num_vertices();
    let window = Instant::now();

    // Set-up, several times; the last one starts the validated job.
    let mut setup_s = Vec::new();
    let mut job0 = Instant::now();
    let mut g = None;
    for _ in 0..SETUPS {
        // Free the previous graph first, so set-ups never overlap.
        drop(g.take());
        job0 = Instant::now();
        g = Some(setup(&cfg, tracer));
        setup_s.push(job0.elapsed().as_secs_f64());
    }
    let g = g.expect("at least one set-up");
    let roots = pick_roots(&params, ROOTS).expect("R-MAT graph has connected roots");

    let mut keys: Vec<Key> = Vec::new();
    let mut samples: Vec<(usize, f64)> = Vec::new();
    for &root in &roots {
        match traverse(&g, root, &engine, tracer) {
            (ms, Ok(o)) => {
                samples.push((keys.len(), ms));
                keys.push(Key {
                    root,
                    counts: counts(&o),
                    tree: gather_parents(&o),
                });
            }
            (_, Err(e)) => out.check(Err(e)),
        }
    }
    let edges = tracer.span("core.validate.generate_edges", None, |_| {
        generate_edges(&params)
    });
    let mut validate_ms = Vec::new();
    // Spec TEPS edge count per key; 0 where validation failed.
    let mut m = Vec::new();
    for Key { root, tree, .. } in &keys {
        let t = Instant::now();
        let checked = tracer.span("core.validate.validate_parents", None, |_| {
            check_tree(n, &edges, *root, tree)
        });
        validate_ms.push(t.elapsed().as_secs_f64() * 1e3);
        m.push(*checked.as_ref().unwrap_or(&0) as f64);
        out.check(checked.map(|_| ()));
    }
    let job_s = job0.elapsed().as_secs_f64();
    drop(edges);

    // Fill the window with repeat passes over the same keys.
    while window.elapsed().as_secs_f64() < args.seconds {
        let times = pass(&g, &keys, &engine, tracer, &mut out);
        samples.extend(times.into_iter().enumerate());
    }
    let all_ms: Vec<f64> = samples.iter().map(|&(_, ms)| ms).collect();
    let teps: Vec<f64> = samples
        .iter()
        .filter(|&&(i, _)| m[i] > 0.0)
        .map(|&(i, ms)| m[i] / (ms / 1e3))
        .collect();
    let model_gteps = hmean(
        &keys
            .iter()
            .zip(&m)
            .filter(|&(_, &mi)| mi > 0.0)
            .map(|(k, &mi)| mi / k.counts.sim_s / 1e9)
            .collect::<Vec<_>>(),
    );

    let bfs_p50 = median(&all_ms);
    let bfs_p75 = quantile(&all_ms, 0.75);
    let teps_hmean = hmean(&teps);
    let validate_p50 = median(&validate_ms);
    out.end_to_end.insert("setup_s", median(&setup_s));
    out.end_to_end.insert("p50_ms", bfs_p50);
    out.end_to_end.insert("tail_ms", bfs_p75);
    out.end_to_end.insert("throughput", teps_hmean);
    out.named = vec![
        ("setup_s", "s", median(&setup_s)),
        ("bfs_p50_ms", "ms", bfs_p50),
        ("bfs_p75_ms", "ms", bfs_p75),
        ("bfs_samples", "count", all_ms.len() as f64),
        ("teps_hmean", "edges/s", teps_hmean),
        ("model_gteps_hmean", "GTEPS", model_gteps),
        ("validate_p50_ms", "ms", validate_p50),
        ("job_s", "s", job_s),
    ];

    if tracer.is_on() {
        let l = &mut out.layers;
        let setup_spans = |name| median(&tracer.max_per_parent_ms(name)) / 1e3;
        l.insert("rmat.generate_s", setup_spans("rmat.generate_chunk"));
        l.insert("part.build_s", setup_spans("part.build_1p5d"));
        l.insert(
            "core.engine.bfs_ms_p50",
            median(&tracer.max_per_parent_ms("core.engine.run_bfs")),
        );
        l.insert(
            "core.engine.iterations_per_bfs",
            mean(&keys.iter().map(|k| k.counts.iterations).collect::<Vec<_>>()),
        );
        l.insert(
            "net.collectives_per_bfs",
            mean(
                &keys
                    .iter()
                    .map(|k| k.counts.collectives)
                    .collect::<Vec<_>>(),
            ),
        );
        l.insert(
            "net.bytes_per_bfs",
            mean(&keys.iter().map(|k| k.counts.bytes).collect::<Vec<_>>()),
        );
        l.insert("model.gteps_hmean", model_gteps);
        l.insert(
            "model.comm_share",
            keys.iter().map(|k| k.counts.comm_s).sum::<f64>()
                / keys.iter().map(|k| k.counts.total_s).sum::<f64>(),
        );
        l.insert(
            "core.validate.edge_list_s",
            tracer.durations_ms("core.validate.generate_edges")[0] / 1e3,
        );
        l.insert(
            "core.validate.ms_p50",
            median(&tracer.durations_ms("core.validate.validate_parents")),
        );
        l.insert("job_s", job_s);

        // Span cost: the same pass with spans off and on, alternated.
        let (mut off, mut on) = (Vec::new(), Vec::new());
        for _ in 0..2 {
            for (traced, acc) in [(false, &mut off), (true, &mut on)] {
                tracer.set(traced);
                acc.push(
                    pass(&g, &keys, &engine, tracer, &mut out)
                        .iter()
                        .sum::<f64>(),
                );
            }
        }
        out.layers
            .insert("trace.overhead_frac", median(&on) / median(&off) - 1.0);

        // Single-thread baseline: the same keys on a 1x1 mesh.
        tracer.set(false);
        let serial_cfg = session_cfg(args.scale, args.seed, MeshShape::new(1, 1));
        let serial = setup(&serial_cfg, tracer);
        let serial_ms: Vec<f64> = keys
            .iter()
            .map(|k| traverse(&serial, k.root, &engine, tracer).0)
            .collect();
        out.layers
            .insert("core.engine.serial_bfs_ms_p50", median(&serial_ms));
        drop(serial);

        // Counts only on a 2x2 mesh: four rank threads oversubscribe
        // two cores, so its wall time is not reported.
        let mesh_cfg = session_cfg(args.scale, args.seed, MeshShape::new(2, 2));
        let wide = setup(&mesh_cfg, tracer);
        let (mut bytes, mut gteps) = (Vec::new(), Vec::new());
        for (k, &mi) in keys.iter().zip(&m) {
            if let (_, Ok(o)) = traverse(&wide, k.root, &engine, tracer) {
                let c = counts(&o);
                bytes.push(c.bytes);
                gteps.push(mi / c.sim_s / 1e9);
            }
        }
        out.layers.insert("net.bytes_per_bfs_2x2", mean(&bytes));
        out.layers.insert("model.gteps_hmean_2x2", hmean(&gteps));
        tracer.set(true);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use sunbfs::common::INVALID_VERTEX;

    #[test]
    fn a_corrupted_parent_array_fails_validation() {
        let cfg = session_cfg(8, 3, MESH);
        let tracer = Tracer::new();
        let g = setup(&cfg, &tracer);
        let params = cfg.rmat();
        let n = params.num_vertices();
        let edges = generate_edges(&params);
        let root = pick_roots(&params, 1).unwrap()[0];
        let (_, outs) = traverse(&g, root, &cfg.engine, &tracer);
        let parents = gather_parents(&outs.unwrap());
        assert!(check_tree(n, &edges, root, &parents).unwrap() > 0);

        let reached: Vec<usize> = (0..n as usize)
            .filter(|&v| parents[v] != INVALID_VERTEX && v as u64 != root)
            .collect();
        let v = reached[reached.len() / 2];
        let mut orphan = parents.clone();
        orphan[v] = INVALID_VERTEX;
        assert!(check_tree(n, &edges, root, &orphan).is_err());
        let mut bad_root = parents.clone();
        bad_root[root as usize] = reached[0] as u64;
        assert!(check_tree(n, &edges, root, &bad_root).is_err());
        assert!(check_tree(n, &edges, root, &parents[1..]).is_err());
    }
}
