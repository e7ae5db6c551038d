//! Host-noise accounting: what the machine was doing while a run
//! measured, so that a slow run on a contended host can be told apart
//! from slow code.

use std::hint::black_box;
use std::time::Instant;

/// CPUs this process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The first `model name` line of `/proc/cpuinfo`.
pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The commit checked out in the working directory, read from `.git`
/// without running git; "unknown" outside a git checkout.
pub fn git_commit() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok();
    match read(".git/HEAD") {
        Some(head) => match head.trim().strip_prefix("ref: ") {
            Some(r) => read(&format!(".git/{r}"))
                .map(|s| s.trim().to_string())
                .or_else(|| {
                    read(".git/packed-refs")?
                        .lines()
                        .find(|l| l.ends_with(r))
                        .map(|l| l[..l.find(' ').unwrap_or(0)].to_string())
                })
                .unwrap_or_else(|| "unknown".into()),
            None => head.trim().to_string(),
        },
        None => "unknown".into(),
    }
}

/// Aggregate CPU jiffies from the first line of `/proc/stat`:
/// `(total, steal)`.
pub fn cpu_jiffies() -> (u64, u64) {
    let line = std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_default();
    let fields: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal [guest guest_nice]:
    // guest time is already counted in user, so only the first eight sum.
    let total = fields.iter().take(8).sum();
    (total, fields.get(7).copied().unwrap_or(0))
}

/// Share of all CPU time between two [`cpu_jiffies`] readings that the
/// hypervisor gave to other guests.
pub fn steal_frac(start: (u64, u64), end: (u64, u64)) -> f64 {
    let total = end.0.saturating_sub(start.0);
    if total == 0 {
        0.0
    } else {
        end.1.saturating_sub(start.1) as f64 / total as f64
    }
}

/// Milliseconds for a fixed single-thread integer loop. The work never
/// changes, so a slower reading means a slower or busier host.
pub fn calib_ms() -> f64 {
    let t = Instant::now();
    let mut x = black_box(0x9e37_79b9_7f4a_7c15u64);
    for i in 0..20_000_000u64 {
        x = x.rotate_left(7) ^ i.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    }
    black_box(x);
    t.elapsed().as_secs_f64() * 1e3
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
