//! `live_update`: writes beside reads on the serve path. A closed loop
//! over one connection; each step commits one `update` of 16 seeded
//! uniform edges, then reads one `batch` of 16 roots. The delta overlay
//! stays resident, so every read goes through incremental repair, and
//! compactions happen at steps the seed fixes.

use std::time::Instant;

use sunbfs::common::{Edge, JsonValue, SplitMix64, INVALID_VERTEX};
use sunbfs::core::UNREACHED_DEPTH;
use sunbfs::net::FaultPlan;
use sunbfs::rmat::generate_edges;
use sunbfs::serve::{serve, BfsService, GraphSession, NetConfig, ServeConfig, SessionConfig};

use crate::client::{kind, Client};
use crate::graph::{check_result, session_cfg, stream, RefGraph, MESH};
use crate::trace::{median, quantile, Tracer};
use crate::{Args, Outcome};

/// Edges per `update` and roots per read `batch`.
const WIDTH: usize = 16;
/// Graph loads per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Steps the traced replay runs, fixed so its counts repeat exactly.
const REPLAY_STEPS: usize = 150;

/// The seeded inputs of consecutive steps.
struct Steps {
    edges: SplitMix64,
    roots: SplitMix64,
    n: u64,
}

impl Steps {
    fn new(seed: u64, n: u64) -> Self {
        Steps {
            edges: stream(seed, 3),
            roots: stream(seed, 4),
            n,
        }
    }

    /// The next step: 16 uniform edges to insert, 16 roots to read.
    fn next(&mut self, candidates: &[u64]) -> (Vec<Edge>, Vec<u64>) {
        let edges = (0..WIDTH)
            .map(|_| Edge::new(self.edges.next_below(self.n), self.edges.next_below(self.n)))
            .collect();
        let roots = (0..WIDTH)
            .map(|_| candidates[self.roots.next_below(candidates.len() as u64) as usize])
            .collect();
        (edges, roots)
    }
}

fn update_line(edges: &[Edge]) -> String {
    let pairs: Vec<String> = edges.iter().map(|e| format!("[{},{}]", e.u, e.v)).collect();
    format!("{{\"cmd\":\"update\",\"edges\":[{}]}}", pairs.join(","))
}

fn batch_line(roots: &[u64]) -> String {
    let list: Vec<String> = roots.iter().map(u64::to_string).collect();
    format!("{{\"cmd\":\"batch\",\"roots\":[{}]}}", list.join(","))
}

fn load(cfg: SessionConfig, tracer: &Tracer) -> GraphSession {
    tracer.span("setup", None, |_| {
        GraphSession::load(cfg, FaultPlan::none()).expect("graph builds")
    })
}

pub fn run(args: &Args, tracer: &Tracer) -> Outcome {
    let mut out = Outcome::default();
    let cfg = session_cfg(args.scale, args.seed, MESH);
    let n = cfg.rmat().num_vertices();

    // Untimed: the base graph's edges, for read roots and the final check.
    let base = generate_edges(&cfg.rmat());
    let candidates = RefGraph::new(n, base.iter()).non_isolated();

    if tracer.is_on() {
        replay(args, cfg, &candidates, tracer, &mut out);
    }

    let window = Instant::now();
    let mut setup_s = Vec::new();
    let mut session = None;
    for _ in 0..SETUPS {
        // Free the previous graph first, so set-ups never overlap.
        drop(session.take());
        let t = Instant::now();
        session = Some(load(cfg, tracer));
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let session = session.expect("at least one load");
    let server = serve(
        BfsService::new(session, ServeConfig::default()),
        "127.0.0.1:0",
        NetConfig::default(),
    )
    .expect("server binds a local port");
    let mut client = Client::connect(server.local_addr()).expect("client connects");

    let mut steps = Steps::new(args.seed, n);
    let mut inserted: Vec<Edge> = Vec::new();
    let (mut commit_ms, mut read_ms) = (Vec::new(), Vec::new());
    let (mut commit_epoch, mut read_epoch) = (0u64, 0u64);
    let mut last_read: Vec<(u64, JsonValue)> = Vec::new();
    let mut lost = false;
    let loop0 = Instant::now();
    while !lost && window.elapsed().as_secs_f64() < args.seconds {
        let (edges, roots) = steps.next(&candidates);

        let sent = client.send(update_line(&edges)).expect("send update");
        match client.recv() {
            Some((at, reply)) if kind(&reply) == "committed" => {
                commit_ms.push((at - sent).as_secs_f64() * 1e3);
                let epoch = reply.get("epoch").and_then(JsonValue::as_u64).unwrap_or(0);
                out.check(if epoch > commit_epoch {
                    Ok(())
                } else {
                    Err(format!("commit epoch {epoch} after {commit_epoch}"))
                });
                commit_epoch = epoch;
                inserted.extend(&edges);
            }
            Some((_, reply)) => out.check(Err(format!("update: {}", reply.render()))),
            None => {
                out.check(Err("update got no reply".into()));
                lost = true;
            }
        }

        let sent = client.send(batch_line(&roots)).expect("send batch");
        let mut ids = Vec::new();
        let mut answered = 0;
        last_read.clear();
        while answered < WIDTH {
            let Some((at, reply)) = client.recv() else {
                out.check(Err("batch read got no reply".into()));
                lost = true;
                break;
            };
            match kind(&reply) {
                "accepted" => ids.push(reply.get("id").and_then(JsonValue::as_u64)),
                "result" => {
                    answered += 1;
                    let epoch = reply.get("epoch").and_then(JsonValue::as_u64).unwrap_or(0);
                    out.check(if epoch >= read_epoch && epoch >= commit_epoch {
                        Ok(())
                    } else {
                        Err(format!(
                            "read at epoch {epoch} after {read_epoch}/{commit_epoch}"
                        ))
                    });
                    read_epoch = epoch;
                    let id = reply.get("id").and_then(JsonValue::as_u64);
                    match ids.iter().position(|&i| i == id) {
                        Some(k) => last_read.push((roots[k], reply)),
                        None => out.check(Err(format!("unexpected result {}", reply.render()))),
                    }
                    if answered == WIDTH {
                        read_ms.push((at - sent).as_secs_f64() * 1e3);
                    }
                }
                "rejected" => {
                    answered += 1;
                    ids.push(None);
                    out.check(Err(format!("batch read: {}", reply.render())));
                }
                _ => out.check(Err(format!("batch read: {}", reply.render()))),
            }
        }
    }
    let loop_s = loop0.elapsed().as_secs_f64();
    drop(client);
    server.shutdown();
    let _ = server.join().expect_clean();

    // The last read's roots against a reference over base + inserts.
    let g = RefGraph::new(n, base.iter().chain(inserted.iter()));
    for (root, reply) in &last_read {
        out.check(check_result(reply, &g.summary(*root)).map_err(|e| format!("root {root}: {e}")));
    }

    // Edges per second of commit round trips, compactions included: a
    // few compactions of ~0.7 s each dominate it, so it swings with how
    // many a run happens to hit and is reported, not gated.
    let committed = (commit_ms.len() * WIDTH) as f64;
    let update_edges_per_s = committed / (commit_ms.iter().sum::<f64>() / 1e3);
    // Edges per second of the closed loop's wall time, reads included.
    let loop_edges_per_s = committed / loop_s;
    let setup = median(&setup_s);
    out.end_to_end.insert("setup_s", setup);
    out.end_to_end.insert("p50_ms", median(&read_ms));
    out.end_to_end.insert("tail_ms", quantile(&read_ms, 0.9));
    out.end_to_end.insert("throughput", loop_edges_per_s);
    out.named = vec![
        ("setup_s", "s", setup),
        ("read_batch_p50_ms", "ms", median(&read_ms)),
        ("read_batch_p90_ms", "ms", quantile(&read_ms, 0.9)),
        ("steps", "count", read_ms.len() as f64),
        ("commit_p50_ms", "ms", median(&commit_ms)),
        ("loop_edges_per_s", "edges/s", loop_edges_per_s),
        ("update_edges_per_s", "edges/s", update_edges_per_s),
    ];
    out
}

/// The first [`REPLAY_STEPS`] steps straight through the session's
/// public calls, once with spans off and once on, each on a fresh graph.
fn replay(args: &Args, cfg: SessionConfig, candidates: &[u64], tracer: &Tracer, out: &mut Outcome) {
    let mut wall = [0.0f64; 2];
    for (pass, traced) in [false, true].into_iter().enumerate() {
        tracer.set(traced);
        let mut session = load(cfg, tracer);
        let dist = session.distribution();
        let n = session.num_vertices() as usize;
        let mut steps = Steps::new(args.seed, session.num_vertices());
        let (mut route_ms, mut compact_ms, mut repair_ms) = (Vec::new(), Vec::new(), Vec::new());
        let (mut scanned, mut delta_max) = (0u64, 0u64);
        let t = Instant::now();
        for _ in 0..REPLAY_STEPS {
            let (edges, roots) = steps.next(candidates);
            let before = session.compactions();
            let t_commit = Instant::now();
            let committed = tracer.span("mutate.apply_updates", None, |_| {
                session.apply_updates(&edges)
            });
            let ms = t_commit.elapsed().as_secs_f64() * 1e3;
            out.check(
                committed
                    .map(|_| ())
                    .map_err(|e| format!("replay commit: {e}")),
            );
            if session.compactions() > before {
                compact_ms.push(ms);
            } else {
                route_ms.push(ms);
            }
            delta_max = delta_max.max(session.delta_entries());

            let ranks = tracer.span("core.batch.run_batch", None, |_| session.run_batch(&roots));
            let Ok(outs) = ranks
                .into_iter()
                .map(|r| r.map_err(|f| f.to_string())?.map_err(|e| e.to_string()))
                .collect::<Result<Vec<_>, String>>()
            else {
                out.check(Err("replay batch lost a rank".into()));
                continue;
            };
            for b in 0..roots.len() {
                let mut parents = vec![INVALID_VERTEX; n];
                let mut depths = vec![u64::MAX; n];
                for (rank, o) in outs.iter().enumerate() {
                    let range = dist.range_of(rank);
                    for li in 0..(range.end - range.start) as usize {
                        let v = range.start as usize + li;
                        parents[v] = o.parent_of(li, b);
                        let d = o.depth_of(li, b);
                        if d != UNREACHED_DEPTH {
                            depths[v] = u64::from(d);
                        }
                    }
                }
                let t_repair = Instant::now();
                let stats = tracer.span("mutate.repair_result", None, |_| {
                    session.repair_result(&mut parents, &mut depths)
                });
                repair_ms.push(t_repair.elapsed().as_secs_f64() * 1e3);
                scanned += stats.scanned_edges;
            }
        }
        wall[pass] = t.elapsed().as_secs_f64();
        if traced {
            let l = &mut out.layers;
            l.insert("mutate.route_ms_p50", median(&route_ms));
            l.insert("mutate.compact_ms_p50", median(&compact_ms));
            l.insert("mutate.compactions", session.compactions() as f64);
            l.insert("mutate.repair_ms_p50", median(&repair_ms));
            l.insert("mutate.repair_scanned_edges", scanned as f64);
            l.insert("mutate.delta_entries_max", delta_max as f64);
            l.insert(
                "core.batch.batch_ms_p50",
                median(&tracer.durations_ms("core.batch.run_batch")),
            );
        }
    }
    out.layers
        .insert("trace.overhead_frac", wall[1] / wall[0] - 1.0);
    // The untraced measurement that follows records no spans.
    tracer.set(false);
}
