//! In-memory span recorder for the traced run, plus the order
//! statistics every workload reports.
//!
//! A span has a name, a start, an end and the span that caused it.
//! Spans are kept in memory and written out when the run ends; a
//! layer's self time is its span minus the union of its children.
//! When tracing is off a span costs one relaxed load.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use sunbfs::common::JsonValue;

/// Identifier of a recorded span, handed to the spans it causes.
pub type SpanId = u64;

struct Span {
    id: SpanId,
    parent: Option<SpanId>,
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
}

/// Thread-safe span store shared by the harness and the rank threads.
pub struct Tracer {
    on: AtomicBool,
    t0: Instant,
    next: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A recorder that starts switched off.
    pub fn new() -> Self {
        Tracer {
            on: AtomicBool::new(false),
            t0: Instant::now(),
            next: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Switch recording on or off for spans that start afterwards.
    pub fn set(&self, on: bool) {
        self.on.store(on, Ordering::Relaxed);
    }

    /// True while spans are being recorded.
    pub fn is_on(&self) -> bool {
        self.on.load(Ordering::Relaxed)
    }

    /// Run `f` inside a span called `name`; `f` receives the span's id
    /// to pass to the spans it causes (`None` while tracing is off).
    pub fn span<T>(
        &self,
        name: &'static str,
        parent: Option<SpanId>,
        f: impl FnOnce(Option<SpanId>) -> T,
    ) -> T {
        if !self.on.load(Ordering::Relaxed) {
            return f(None);
        }
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        let start_ns = self.t0.elapsed().as_nanos() as u64;
        let out = f(Some(id));
        let end_ns = self.t0.elapsed().as_nanos() as u64;
        self.spans.lock().expect("span store poisoned").push(Span {
            id,
            parent,
            name,
            start_ns,
            end_ns,
        });
        out
    }

    /// Durations in ms of every span called `name`, in start order.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        let spans = self.spans.lock().expect("span store poisoned");
        let mut v: Vec<(u64, f64)> = spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.start_ns, (s.end_ns - s.start_ns) as f64 / 1e6))
            .collect();
        v.sort_by_key(|&(start, _)| start);
        v.into_iter().map(|(_, d)| d).collect()
    }

    /// For spans called `name` that share a parent (one per rank
    /// thread), the longest duration in ms per parent, in start order.
    pub fn max_per_parent_ms(&self, name: &str) -> Vec<f64> {
        let spans = self.spans.lock().expect("span store poisoned");
        let mut by_parent: BTreeMap<Option<SpanId>, (u64, f64)> = BTreeMap::new();
        for s in spans.iter().filter(|s| s.name == name) {
            let d = (s.end_ns - s.start_ns) as f64 / 1e6;
            let e = by_parent.entry(s.parent).or_insert((s.start_ns, 0.0));
            e.0 = e.0.min(s.start_ns);
            e.1 = e.1.max(d);
        }
        let mut v: Vec<(u64, f64)> = by_parent.into_values().collect();
        v.sort_by_key(|&(start, _)| start);
        v.into_iter().map(|(_, d)| d).collect()
    }

    /// Every span plus per-name totals of wall and self time, as JSON.
    pub fn to_json(&self) -> JsonValue {
        let spans = self.spans.lock().expect("span store poisoned");
        let mut children: BTreeMap<SpanId, Vec<(u64, u64)>> = BTreeMap::new();
        for s in spans.iter() {
            if let Some(p) = s.parent {
                children.entry(p).or_default().push((s.start_ns, s.end_ns));
            }
        }
        // name -> (count, total ns, self ns)
        let mut summary: BTreeMap<&str, (u64, u64, u64)> = BTreeMap::new();
        for s in spans.iter() {
            let covered = children.get(&s.id).map_or(0, |c| union_len(c));
            let total = s.end_ns - s.start_ns;
            let e = summary.entry(s.name).or_default();
            e.0 += 1;
            e.1 += total;
            e.2 += total.saturating_sub(covered);
        }
        let summary = summary
            .into_iter()
            .fold(JsonValue::object(), |o, (name, (count, total, own))| {
                o.field(
                    name,
                    JsonValue::object()
                        .field("count", count)
                        .field("total_ms", total as f64 / 1e6)
                        .field("self_ms", own as f64 / 1e6)
                        .build(),
                )
            })
            .build();
        let list = spans
            .iter()
            .map(|s| {
                JsonValue::object()
                    .field("id", s.id)
                    .field("parent", s.parent.map_or(JsonValue::Null, JsonValue::from))
                    .field("name", s.name)
                    .field("start_us", s.start_ns / 1000)
                    .field("end_us", s.end_ns / 1000)
                    .build()
            })
            .collect::<Vec<_>>();
        JsonValue::object()
            .field("summary", summary)
            .field("spans", list)
            .build()
    }
}

/// Total length covered by a set of possibly overlapping intervals.
fn union_len(intervals: &[(u64, u64)]) -> u64 {
    let mut v = intervals.to_vec();
    v.sort_unstable();
    let (mut total, mut cur) = (0u64, None::<(u64, u64)>);
    for (s, e) in v {
        cur = match cur {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    total + cur.map_or(0, |(s, e)| e - s)
}

/// The `q`-quantile (0..=1) of `xs` by linear interpolation between
/// order statistics; 0 for an empty sample.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Median of `xs`; 0 for an empty sample.
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Harmonic mean of positive rates; 0 for an empty sample.
pub fn hmean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.len() as f64 / xs.iter().map(|x| 1.0 / x).sum::<f64>()
}

/// Arithmetic mean; 0 for an empty sample.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        assert_eq!(union_len(&[(0, 10), (5, 15), (20, 25)]), 20);
        assert_eq!(union_len(&[]), 0);
    }

    #[test]
    fn quantiles_interpolate() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&xs), 2.5);
        assert_eq!(quantile(&xs, 1.0), 4.0);
        assert!((hmean(&[1.0, 2.0]) - 4.0 / 3.0).abs() < 1e-12);
    }
}
