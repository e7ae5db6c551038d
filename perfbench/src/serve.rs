//! `serve`: read-only serving through the TCP front door with one
//! client connection, on a graph opened from a store file.
//!
//! Phase 1 is an open loop at a fixed 50 q/s, far below capacity and
//! clear of the saturation cliff; each query is timed from when it was
//! due. Phase 2 is a closed loop that keeps 64 queries (`batch_max`)
//! outstanding, to measure capacity.

use std::collections::{BTreeMap, HashMap};
use std::path::Path;
use std::time::{Duration, Instant};

use sunbfs::common::{JsonValue, SplitMix64};
use sunbfs::net::FaultPlan;
use sunbfs::rmat::generate_edges;
use sunbfs::serve::{parse_request, serve, BfsService, GraphSession, NetConfig, ServeConfig};

use crate::client::{kind, query_line, Client};
use crate::graph::{
    check_result, f64_field, sample_distinct, session_cfg, stream, RefGraph, Summary, MESH,
};
use crate::trace::{mean, median, quantile, Tracer};
use crate::{Args, Outcome};

/// Offered rate of the open loop, queries per second.
const RATE: f64 = 50.0;
/// Queries kept outstanding in the closed loop: one full batch.
const OUTSTANDING: usize = 64;
/// Distinct roots queries are drawn from, each checked against a
/// reference BFS computed before the run.
const POOL: usize = 1024;
/// Store opens per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// In the traced run, a `health` request follows every this many
/// open-loop queries.
const HEALTH_EVERY: usize = 10;

/// One query as the client saw it.
struct Sent {
    pool_index: usize,
    phase: u8,
    due: Instant,
    sent: Instant,
    accepted: Option<Instant>,
    done: bool,
}

/// What the harness learned about one served result.
struct Done {
    query: usize,
    at: Instant,
    batch_id: Option<u64>,
}

/// The client's record of the conversation so far.
#[derive(Default)]
struct Tally {
    queries: Vec<Sent>,
    /// Queries answered `accepted` or `rejected` so far; replies to
    /// queries come back in the order the queries were sent.
    acked: usize,
    /// Queries answered with a `result` or a `rejected` reply.
    completed: usize,
    ids: HashMap<u64, usize>,
    done: Vec<Done>,
    health_sent: Vec<Instant>,
    health_rtt: Vec<f64>,
}

impl Tally {
    /// Account one reply; true when it completed a query.
    fn handle(
        &mut self,
        at: Instant,
        reply: JsonValue,
        refs: &[Summary],
        out: &mut Outcome,
    ) -> bool {
        let id = reply.get("id").and_then(JsonValue::as_u64);
        match kind(&reply) {
            "accepted" => {
                if let (Some(id), Some(q)) = (id, self.queries.get_mut(self.acked)) {
                    q.accepted = Some(at);
                    self.ids.insert(id, self.acked);
                }
                self.acked += 1;
                false
            }
            "result" => {
                let Some(&qi) = id.and_then(|id| self.ids.get(&id)) else {
                    out.check(Err(format!("result for unknown query {}", reply.render())));
                    return false;
                };
                let q = &mut self.queries[qi];
                if q.done {
                    out.check(Err(format!("second reply for query {qi}")));
                    return false;
                }
                q.done = true;
                self.completed += 1;
                out.check(check_result(&reply, &refs[q.pool_index]));
                self.done.push(Done {
                    query: qi,
                    at,
                    batch_id: reply.get("batch_id").and_then(JsonValue::as_u64),
                });
                true
            }
            "rejected" => {
                if let Some(q) = self.queries.get_mut(self.acked) {
                    q.done = true;
                }
                self.acked += 1;
                self.completed += 1;
                out.check(Err(format!("query rejected: {}", reply.render())));
                true
            }
            "health" => {
                if let Some(&s) = self.health_sent.get(self.health_rtt.len()) {
                    self.health_rtt.push((at - s).as_secs_f64() * 1e3);
                }
                false
            }
            _ => {
                out.check(Err(format!("unexpected reply {}", reply.render())));
                false
            }
        }
    }

    /// Send one query for a root drawn from the pool.
    fn send(
        &mut self,
        client: &mut Client,
        pool: &[u64],
        pick: &mut SplitMix64,
        phase: u8,
        due: Option<Instant>,
    ) -> Instant {
        let pool_index = pick.next_below(pool.len() as u64) as usize;
        let sent = client
            .send(query_line(pool[pool_index]))
            .expect("send query");
        self.queries.push(Sent {
            pool_index,
            phase,
            due: due.unwrap_or(sent),
            sent,
            accepted: None,
            done: false,
        });
        sent
    }
}

pub fn run(args: &Args, tracer: &Tracer, out_dir: &Path) -> Outcome {
    let mut out = Outcome::default();
    let cfg = session_cfg(args.scale, args.seed, MESH);
    let n = cfg.rmat().num_vertices();

    // Untimed: build the graph once and store it.
    let path = out_dir.join(format!("serve-{}-{}.store", args.seed, std::process::id()));
    GraphSession::load(cfg, FaultPlan::none())
        .expect("graph builds")
        .save(&path)
        .expect("store file writes");

    let mut open_s = Vec::new();
    let mut session = None;
    for _ in 0..SETUPS {
        // Free the previous graph first, so opens never overlap.
        drop(session.take());
        let t = Instant::now();
        let s = tracer.span("store.open", None, |_| {
            GraphSession::open(&path, cfg, FaultPlan::none())
        });
        open_s.push(t.elapsed().as_secs_f64());
        session = Some(s.expect("store file opens"));
    }
    let _ = std::fs::remove_file(&path);
    let session = session.expect("at least one open");
    let file_bytes = session.store.as_ref().map_or(0, |s| s.file_bytes);

    // Untimed: roots and their reference answers.
    let g = RefGraph::new(n, generate_edges(&cfg.rmat()).iter());
    let pool = sample_distinct(&mut stream(args.seed, 1), &g.non_isolated(), POOL);
    let refs = g.summaries(&pool);
    drop(g);
    let mut pick = stream(args.seed, 2);

    let server = serve(
        BfsService::new(session, ServeConfig::default()),
        "127.0.0.1:0",
        NetConfig::default(),
    )
    .expect("server binds a local port");
    let mut client = Client::connect(server.local_addr()).expect("client connects");

    let mut t = Tally::default();
    let mut late_ms: Vec<f64> = Vec::new();

    // Phase 1: open loop.
    let n_open = ((args.seconds * 0.7) * RATE).round().max(1.0) as usize;
    let period = Duration::from_secs_f64(1.0 / RATE);
    let t0 = Instant::now() + Duration::from_millis(20);
    for i in 0..n_open {
        let due = t0 + period * i as u32;
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        let sent = t.send(&mut client, &pool, &mut pick, 1, Some(due));
        late_ms.push((sent - due).as_secs_f64() * 1e3);
        if tracer.is_on() && i % HEALTH_EVERY == HEALTH_EVERY / 2 {
            // Halfway to the next query, so the probe samples the
            // service at a moment independent of query arrivals.
            std::thread::sleep((due + period / 2).saturating_duration_since(Instant::now()));
            let at = client
                .send("{\"cmd\":\"health\"}".into())
                .expect("send health");
            t.health_sent.push(at);
        }
        while let Some((at, reply)) = client.try_recv() {
            t.handle(at, reply, &refs, &mut out);
        }
    }
    while t.completed < n_open || t.health_rtt.len() < t.health_sent.len() {
        let Some((at, reply)) = client.recv() else {
            break;
        };
        t.handle(at, reply, &refs, &mut out);
    }

    // Phase 2: closed loop.
    let closed0 = Instant::now();
    let closed_end = closed0 + Duration::from_secs_f64(args.seconds * 0.3);
    let mut last_reply = closed0;
    for _ in 0..OUTSTANDING {
        t.send(&mut client, &pool, &mut pick, 2, None);
    }
    let mut outstanding = OUTSTANDING;
    while outstanding > 0 {
        let Some((at, reply)) = client.recv() else {
            break;
        };
        if t.handle(at, reply, &refs, &mut out) {
            outstanding -= 1;
            last_reply = at;
            if at < closed_end {
                t.send(&mut client, &pool, &mut pick, 2, None);
                outstanding += 1;
            }
        }
    }
    let closed_s = (last_reply - closed0).as_secs_f64();

    // Traced: the service's own record of the batches it ran.
    let stats = if tracer.is_on() {
        client
            .send("{\"cmd\":\"stats\"}".into())
            .expect("send stats");
        std::iter::from_fn(|| client.recv())
            .find(|(_, r)| kind(r) == "stats")
            .map(|(_, r)| r)
    } else {
        None
    };
    let sent_lines = std::mem::take(&mut client.sent_lines);
    drop(client);
    server.shutdown();
    let service = server.join().expect_clean().0;

    // Every query must get exactly one reply.
    for q in &t.queries {
        if !q.done {
            out.check(Err("query got no reply".into()));
        }
    }

    let phase_ms = |phase: u8, from_due: bool| -> Vec<f64> {
        t.done
            .iter()
            .filter(|d| t.queries[d.query].phase == phase)
            .map(|d| {
                let q = &t.queries[d.query];
                let start = if from_due { q.due } else { q.sent };
                (d.at - start).as_secs_f64() * 1e3
            })
            .collect()
    };
    let open_ms = phase_ms(1, true);
    let closed_ms = phase_ms(2, false);
    let saturated_qps = closed_ms.len() as f64 / closed_s;
    let setup_s = median(&open_s);
    out.end_to_end.insert("setup_s", setup_s);
    out.end_to_end.insert("p50_ms", median(&open_ms));
    // p95, not p99: a 100 ms host stall delays the five queries due
    // during it, so two stalls move a p99 of ~1000 queries; p95 needs ten.
    out.end_to_end.insert("tail_ms", quantile(&open_ms, 0.95));
    out.end_to_end.insert("throughput", saturated_qps);
    out.named = vec![
        ("setup_s", "s", setup_s),
        ("query_p50_ms", "ms", median(&open_ms)),
        ("query_p95_ms", "ms", quantile(&open_ms, 0.95)),
        ("query_p99_ms", "ms", quantile(&open_ms, 0.99)),
        ("open_loop_queries", "count", open_ms.len() as f64),
        ("saturated_qps", "q/s", saturated_qps),
        ("saturated_p50_ms", "ms", median(&closed_ms)),
        (
            "late_ms_max",
            "ms",
            late_ms.iter().copied().fold(0.0, f64::max),
        ),
    ];

    if tracer.is_on() {
        let l = &mut out.layers;
        l.insert(
            "store.open_s",
            median(&tracer.durations_ms("store.open")) / 1e3,
        );
        l.insert("store.file_bytes", file_bytes as f64);
        l.insert("serve.net.health_rtt_ms_p50", median(&t.health_rtt));
        l.insert(
            "client.late_ms_max",
            late_ms.iter().copied().fold(0.0, f64::max),
        );

        // Parser cost on the exact request lines this run sent.
        for line in &sent_lines {
            let parsed = tracer.span("serve.proto.parse_request", None, |_| parse_request(line));
            out.check(parsed.map(|_| ()).map_err(|e| format!("parse: {e}")));
        }
        let parse_us: Vec<f64> = tracer
            .durations_ms("serve.proto.parse_request")
            .iter()
            .map(|ms| ms * 1e3)
            .collect();
        out.layers
            .insert("serve.proto.parse_us_p50", median(&parse_us));

        // Batches as the service formed them, from its stats reply.
        let batches: BTreeMap<u64, (f64, f64)> = stats
            .as_ref()
            .and_then(|s| s.get("serve"))
            .and_then(|s| s.get("batches"))
            .and_then(JsonValue::as_array)
            .unwrap_or(&[])
            .iter()
            .filter_map(|b| {
                let id = b.get("batch_id")?.as_u64()?;
                Some((
                    id,
                    (f64_field(b, "occupancy")?, f64_field(b, "wall_seconds")?),
                ))
            })
            .collect();
        let mut closed_batches: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
        let mut queue_wait_ms = Vec::new();
        for d in &t.done {
            let q = &t.queries[d.query];
            let Some(batch) = d.batch_id else { continue };
            if q.phase == 2 {
                closed_batches
                    .entry(batch)
                    .or_default()
                    .push(pool[q.pool_index]);
            } else if let (Some(acc), Some(&(_, wall))) = (q.accepted, batches.get(&batch)) {
                // Batch start is the reply's arrival minus the batch's
                // run time; admission is the `accepted` reply.
                let started = (d.at - acc).as_secs_f64() - wall;
                queue_wait_ms.push(started.max(0.0) * 1e3);
            }
        }
        let occupancy: Vec<f64> = closed_batches
            .keys()
            .filter_map(|id| batches.get(id))
            .map(|&(occ, _)| occ / OUTSTANDING as f64)
            .collect();
        let l = &mut out.layers;
        l.insert("serve.service.batch_occupancy_mean", mean(&occupancy));
        l.insert("serve.service.queue_wait_ms_p50", median(&queue_wait_ms));

        // The same batches straight through the session, spans off and
        // on, then full-width batches from the root pool.
        let session = service.session();
        let replay: Vec<&Vec<u64>> = closed_batches.values().collect();
        let run_all = |traced: bool| -> f64 {
            tracer.set(traced);
            let replay0 = Instant::now();
            for roots in &replay {
                tracer.span("core.batch.run_batch", None, |_| session.run_batch(roots));
            }
            replay0.elapsed().as_secs_f64()
        };
        let (off, on) = (run_all(false), run_all(true));
        let batch_ms = median(&tracer.durations_ms("core.batch.run_batch"));
        let wide0 = Instant::now();
        let wide: Vec<&[u64]> = pool.chunks(OUTSTANDING).take(8).collect();
        for roots in &wide {
            session.run_batch(roots);
        }
        let roots_per_s = (wide.len() * OUTSTANDING) as f64 / wide0.elapsed().as_secs_f64();
        let l = &mut out.layers;
        l.insert("core.batch.batch_ms_p50", batch_ms);
        l.insert("core.batch.roots_per_s_w64", roots_per_s);
        l.insert("trace.overhead_frac", on / off - 1.0);
    }
    out
}
