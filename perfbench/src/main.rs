//! sunbfs benchmark: one process runs one workload and prints its
//! metrics as the last line of standard output.
//!
//! ```text
//! perfbench --workload <graph500|serve|live_update> --seed <n>
//!           --seconds <s> --trace <0|1> [--scale <k>]
//! ```
//!
//! `--trace 0` prints the end-to-end metrics, measured with tracing
//! off. `--trace 1` replays the workload's inputs with spans around
//! each layer's public calls and prints the per-layer metrics; its
//! spans go to `.bench_out/`. See `README.md` for what each workload
//! and metric is for.

mod client;
mod graph;
mod graph500;
mod host;
mod live;
mod serve;
mod trace;

use std::collections::BTreeMap;
use std::path::Path;
use std::process::ExitCode;

use sunbfs::common::JsonValue;
use trace::Tracer;

/// Every end-to-end metric with its unit. Each workload reports each
/// one; what the name measures in each workload is in `README.md`.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("p50_ms", "ms"),
    ("tail_ms", "ms"),
    ("throughput", "1/s"),
    ("success_rate", "fraction"),
    ("peak_rss_mb", "MB"),
];

/// Every per-layer metric with its unit. A layer a workload does not
/// exercise reads 0 in that workload's traced run.
pub const PER_LAYER: [(&str, &str); 32] = [
    ("rmat.generate_s", "s"),
    ("part.build_s", "s"),
    ("core.engine.bfs_ms_p50", "ms"),
    ("core.engine.iterations_per_bfs", "count"),
    ("core.engine.serial_bfs_ms_p50", "ms"),
    ("net.collectives_per_bfs", "count"),
    ("net.bytes_per_bfs", "bytes"),
    ("net.bytes_per_bfs_2x2", "bytes"),
    ("model.gteps_hmean", "GTEPS"),
    ("model.gteps_hmean_2x2", "GTEPS"),
    ("model.comm_share", "fraction"),
    ("core.validate.edge_list_s", "s"),
    ("core.validate.ms_p50", "ms"),
    ("job_s", "s"),
    ("store.open_s", "s"),
    ("store.file_bytes", "bytes"),
    ("serve.proto.parse_us_p50", "us"),
    ("serve.net.health_rtt_ms_p50", "ms"),
    ("serve.service.batch_occupancy_mean", "fraction"),
    ("serve.service.queue_wait_ms_p50", "ms"),
    ("core.batch.batch_ms_p50", "ms"),
    ("core.batch.roots_per_s_w64", "1/s"),
    ("mutate.route_ms_p50", "ms"),
    ("mutate.compact_ms_p50", "ms"),
    ("mutate.compactions", "count"),
    ("mutate.repair_ms_p50", "ms"),
    ("mutate.repair_scanned_edges", "count"),
    ("mutate.delta_entries_max", "count"),
    ("client.late_ms_max", "ms"),
    ("host.steal_frac", "fraction"),
    ("host.calib_ms", "ms"),
    ("trace.overhead_frac", "fraction"),
];

/// What a workload hands back: operation counts for `success_rate`,
/// its end-to-end values, the same values under the workload's own
/// metric names, and (traced runs) the per-layer values.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub end_to_end: BTreeMap<&'static str, f64>,
    /// `(name, unit, value)` under the names a reader of this workload
    /// uses (`bfs_p50_ms`, `saturated_qps`, ...).
    pub named: Vec<(&'static str, &'static str, f64)>,
    pub layers: BTreeMap<&'static str, f64>,
    /// First failed checks, for the log.
    pub errors: Vec<String>,
}

impl Outcome {
    /// Count one checked operation.
    pub fn check(&mut self, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = result {
            self.failed += 1;
            if self.errors.len() < 8 {
                self.errors.push(e);
            }
        }
    }
}

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub scale: u32,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut kv = BTreeMap::new();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let key = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument {flag:?}"))?;
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        kv.insert(key.to_string(), value.clone());
    }
    let num = |k: &str, default: Option<u64>| -> Result<u64, String> {
        match kv.get(k) {
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{k} {v:?} is not a number")),
            None => default.ok_or_else(|| format!("--{k} is required")),
        }
    };
    for k in kv.keys() {
        if !["workload", "seed", "seconds", "trace", "scale"].contains(&k.as_str()) {
            return Err(format!("unknown option --{k}"));
        }
    }
    let workload = kv
        .get("workload")
        .cloned()
        .ok_or("--workload is required")?;
    if !["graph500", "serve", "live_update"].contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload:?}"));
    }
    let seconds = num("seconds", None)?;
    let scale = num("scale", Some(16))?;
    if seconds == 0 || !(4..=24).contains(&scale) {
        return Err("--seconds must be positive and --scale within 4..=24".into());
    }
    Ok(Args {
        workload,
        seed: num("seed", None)?,
        seconds: seconds as f64,
        trace: num("trace", Some(0))? != 0,
        scale: scale as u32,
    })
}

/// Clear every `SUNBFS_*` variable and pin one pool worker, so that the
/// busy threads are the two rank threads and never exceed the CPUs.
fn pin_environment() {
    let vars: Vec<_> = std::env::vars_os()
        .filter(|(k, _)| k.to_string_lossy().starts_with("SUNBFS_"))
        .map(|(k, _)| k)
        .collect();
    for k in vars {
        // Runs before this process starts any thread.
        std::env::remove_var(k);
    }
    sunbfs::common::pool::set_workers(1);
}

fn metric(value: f64, unit: &str) -> JsonValue {
    JsonValue::object()
        .field("value", value)
        .field("unit", unit)
        .build()
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    pin_environment();
    let nproc = host::nproc();
    if nproc < 2 {
        eprintln!(
            "perfbench: {nproc} CPU available; the 1x2 mesh needs 2, refusing to oversubscribe"
        );
        return ExitCode::from(3);
    }
    let out_dir = Path::new(".bench_out");
    if let Err(e) = std::fs::create_dir_all(out_dir) {
        eprintln!("perfbench: cannot create {}: {e}", out_dir.display());
        return ExitCode::from(4);
    }

    let jiffies0 = host::cpu_jiffies();
    let calib0 = host::calib_ms();
    let tracer = Tracer::new();
    tracer.set(args.trace);
    let mut out = match args.workload.as_str() {
        "graph500" => graph500::run(&args, &tracer),
        "serve" => serve::run(&args, &tracer, out_dir),
        _ => live::run(&args, &tracer),
    };
    let calib1 = host::calib_ms();
    let steal = host::steal_frac(jiffies0, host::cpu_jiffies());

    let success = if out.attempted == 0 {
        0.0
    } else {
        (out.attempted - out.failed) as f64 / out.attempted as f64
    };
    out.end_to_end.insert("success_rate", success);
    out.end_to_end.insert("peak_rss_mb", host::peak_rss_mb());
    out.named.push(("success_rate", "fraction", success));
    out.layers.insert("host.steal_frac", steal);
    out.layers.insert("host.calib_ms", calib0.max(calib1));

    if args.trace {
        let path = out_dir.join(format!("trace-{}-{}.json", args.workload, args.seed));
        if let Err(e) = std::fs::write(&path, tracer.to_json().render()) {
            eprintln!("perfbench: cannot write {}: {e}", path.display());
        }
    }
    for e in &out.errors {
        eprintln!("perfbench: check failed: {e}");
    }

    let named = out
        .named
        .iter()
        .fold(JsonValue::object(), |o, &(k, unit, v)| {
            o.field(k, metric(v, unit))
        })
        .build();
    let run = JsonValue::object()
        .field("workload", args.workload.as_str())
        .field("seed", args.seed)
        .field("scale", u64::from(args.scale))
        .field("trace", args.trace)
        .field("nproc", nproc)
        .field("cpu_model", host::cpu_model())
        .field("git_commit", host::git_commit())
        .field("steal_frac", steal)
        .field("calib_ms_start", calib0)
        .field("calib_ms_end", calib1)
        .field("named", named)
        .build();
    println!("{}", JsonValue::object().field("run", run).build().render());

    let table: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let values = if args.trace {
        &out.layers
    } else {
        &out.end_to_end
    };
    let metrics = table
        .iter()
        .fold(JsonValue::object(), |o, &(k, unit)| {
            o.field(k, metric(values.get(k).copied().unwrap_or(0.0), unit))
        })
        .build();
    let result = JsonValue::object()
        .field("correct", out.failed == 0)
        .field("attempted", out.attempted)
        .field("failed", out.failed)
        .field("metrics", metrics)
        .build();
    println!("{}", result.render());
    if out.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
