//! Turns phases into the named metrics, the diagnostics and the one-line
//! JSON result.

use crate::harness::percentile;
use crate::trace::{dur_of, has, request_times, self_of, Layer, RequestTimes, ATTRIBUTED, LAYERS};
use crate::workloads::{Phase, Workload};
use std::fmt::Write as _;

/// One named metric with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// The measured value.
    pub value: f64,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// The end-to-end metrics, in `BENCHMARK.json` order.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("p50_us", "us"),
    ("served_ops", "1/s"),
    ("ok_frac", "ratio"),
];

/// The per-layer metrics, in `BENCHMARK.json` order.
pub const PER_LAYER: [(&str, &str); 24] = [
    ("harness.late_us_p50", "us"),
    ("harness.late_us_p99", "us"),
    ("harness.steal_frac", "ratio"),
    ("harness.host_ref_ms", "ms"),
    ("rt.door_ns_p50", "ns"),
    ("rt.queue_us_p50", "us"),
    ("rt.queue_us_p90", "us"),
    ("rt.parked_frac", "ratio"),
    ("rt.depth_p50", "count"),
    ("session.answer_us_p50", "us"),
    ("session.answer_us_p90", "us"),
    ("session.self_us_p50", "us"),
    ("draw.us_p50", "us"),
    ("draw.bytes_per_answer", "bytes"),
    ("draw.share", "ratio"),
    ("journal.append_us_p50", "us"),
    ("journal.syncs_per_answer", "count"),
    ("journal.bytes_per_answer", "bytes"),
    ("journal.read_ms", "ms"),
    ("journal.replay_ms", "ms"),
    ("trace.coverage_frac", "ratio"),
    ("trace.residual_us", "us"),
    ("trace.overhead_us", "us"),
    ("trace.overhead_frac", "ratio"),
];

fn unit_of(table: &[(&'static str, &'static str)], name: &'static str) -> &'static str {
    table
        .iter()
        .find(|(n, _)| *n == name)
        .map(|(_, u)| *u)
        .expect("metric is listed")
}

fn us(ns: u32) -> f64 {
    f64::from(ns) / 1e3
}

fn p_us(sorted_ns: &[u32], p: f64) -> f64 {
    us(percentile(sorted_ns, p))
}

/// The set-up time the run reports, s: the 10th percentile (nearest
/// rank) of its set-ups. On a shared VM the same set-up runs at one of
/// two speeds for stretches of milliseconds to seconds (the count's at
/// ~14 µs or ~20 µs, the histogram's at ~240 µs or ~430 µs on a 2-vCPU
/// Xeon VM), so a median reports which stretch the set-ups fell in. The
/// low percentile reports the set-up itself unless every block of
/// set-ups fell in a slow stretch.
pub fn setup_s(phase: &Phase) -> f64 {
    let mut v = phase.setup_s.clone();
    v.sort_by(f64::total_cmp);
    percentile(&v, 10.0)
}

/// The end-to-end metrics of an untraced phase.
pub fn end_to_end(phase: &Phase) -> Vec<Metric> {
    let ok_frac = if phase.attempted == 0 {
        0.0
    } else {
        phase.answered as f64 / phase.attempted as f64
    };
    let values = [
        setup_s(phase),
        p_us(&phase.lat, 50.0),
        phase.served_ops,
        ok_frac,
    ];
    END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), v)| metric(name, v, unit))
        .collect()
}

/// Nearest-rank percentile of one layer's per-request durations (or self
/// times), over the sampled requests that have that layer; ns.
fn layer_p(times: &[RequestTimes], layer: Layer, p: f64, self_time: bool) -> f64 {
    let mut v: Vec<u64> = times
        .iter()
        .filter(|t| has(t, layer))
        .map(|t| {
            if self_time {
                self_of(t, layer)
            } else {
                dur_of(t, layer)
            }
        })
        .collect();
    v.sort_unstable();
    percentile(&v, p) as f64
}

/// The sampled requests whose latency lies between the 40th and 60th
/// percentile: the attribution of a p50 request averages over them.
fn p50_band(times: &[RequestTimes]) -> Vec<&RequestTimes> {
    let mut roots: Vec<u64> = times.iter().map(|t| dur_of(t, Layer::Request)).collect();
    roots.sort_unstable();
    let (lo, hi) = (percentile(&roots, 40.0), percentile(&roots, 60.0));
    times
        .iter()
        .filter(|t| (lo..=hi).contains(&dur_of(t, Layer::Request)))
        .collect()
}

/// Share of a p50 request that the [`ATTRIBUTED`] layer spans cover, and
/// the uncovered rest in µs.
pub fn coverage(times: &[RequestTimes]) -> (f64, f64) {
    let band = p50_band(times);
    let root: u64 = band.iter().map(|t| dur_of(t, Layer::Request)).sum();
    if root == 0 {
        return (0.0, 0.0);
    }
    let attributed: u64 = band.iter().map(|t| t.attributed).sum();
    (
        attributed as f64 / root as f64,
        (root - attributed) as f64 / band.len() as f64 / 1e3,
    )
}

/// Sorted concatenation of one field of several phases.
fn pooled(phases: &[Phase], field: impl Fn(&Phase) -> &[u32]) -> Vec<u32> {
    let mut v: Vec<u32> = phases
        .iter()
        .flat_map(|p| field(p).iter().copied())
        .collect();
    v.sort_unstable();
    v
}

fn mean(values: impl Iterator<Item = f64>) -> f64 {
    let (sum, n) = values.fold((0.0, 0u32), |(s, n), v| (s + v, n + 1));
    if n == 0 {
        0.0
    } else {
        sum / f64::from(n)
    }
}

fn pooled_times(traced: &[Phase]) -> Vec<RequestTimes> {
    traced
        .iter()
        .flat_map(|p| request_times(p.spans.clone()))
        .collect()
}

/// The per-layer metrics of a traced run, pooled over its traced phases;
/// `plain` are the untraced phases run beside them for the overhead.
pub fn per_layer(plain: &[Phase], traced: &[Phase]) -> Vec<Metric> {
    let times = pooled_times(traced);
    let sum = |f: fn(&Phase) -> u64| traced.iter().map(f).sum::<u64>();
    let answers = sum(|p| p.answers_total).max(1) as f64;
    let p = |layer, q| layer_p(&times, layer, q, false) / 1e3;
    let draw_total: u64 = times.iter().map(|t| dur_of(t, Layer::Draw)).sum();
    let answer_total: u64 = times.iter().map(|t| dur_of(t, Layer::Answer)).sum();
    let depths = pooled(traced, |p| &p.depths);
    let late = pooled(traced, |p| &p.late);
    let parked = if depths.is_empty() {
        0.0
    } else {
        depths.iter().filter(|&&d| d == 0).count() as f64 / depths.len() as f64
    };
    let (coverage_frac, residual_us) = coverage(&times);
    let p50_plain = p_us(&pooled(plain, |p| &p.lat), 50.0);
    let p50_traced = p_us(&pooled(traced, |p| &p.lat), 50.0);
    let values: [(&'static str, f64); 24] = [
        ("harness.late_us_p50", p_us(&late, 50.0)),
        ("harness.late_us_p99", p_us(&late, 99.0)),
        (
            "harness.steal_frac",
            mean(traced.iter().filter_map(|p| p.steal)),
        ),
        (
            "harness.host_ref_ms",
            mean(traced.iter().map(|p| p.host_ref_ms)),
        ),
        ("rt.door_ns_p50", layer_p(&times, Layer::Door, 50.0, false)),
        ("rt.queue_us_p50", p(Layer::Queue, 50.0)),
        ("rt.queue_us_p90", p(Layer::Queue, 90.0)),
        ("rt.parked_frac", parked),
        ("rt.depth_p50", f64::from(percentile(&depths, 50.0))),
        ("session.answer_us_p50", p(Layer::Answer, 50.0)),
        ("session.answer_us_p90", p(Layer::Answer, 90.0)),
        (
            "session.self_us_p50",
            layer_p(&times, Layer::Answer, 50.0, true) / 1e3,
        ),
        ("draw.us_p50", p(Layer::Draw, 50.0)),
        (
            "draw.bytes_per_answer",
            sum(|p| p.draw_bytes) as f64 / answers,
        ),
        (
            "draw.share",
            if answer_total == 0 {
                0.0
            } else {
                draw_total as f64 / answer_total as f64
            },
        ),
        ("journal.append_us_p50", p(Layer::Append, 50.0)),
        (
            "journal.syncs_per_answer",
            sum(|p| p.syncs) as f64 / answers,
        ),
        (
            "journal.bytes_per_answer",
            sum(|p| p.append_bytes) as f64 / answers,
        ),
        ("journal.read_ms", mean(traced.iter().map(|p| p.read_ms))),
        (
            "journal.replay_ms",
            mean(traced.iter().map(|p| p.replay_ms)),
        ),
        ("trace.coverage_frac", coverage_frac),
        ("trace.residual_us", residual_us),
        ("trace.overhead_us", p50_traced - p50_plain),
        (
            "trace.overhead_frac",
            if p50_plain > 0.0 {
                p50_traced / p50_plain - 1.0
            } else {
                0.0
            },
        ),
    ];
    values
        .into_iter()
        .map(|(name, v)| metric(name, v, unit_of(&PER_LAYER, name)))
        .collect()
}

/// The span table of the traced phases: per layer, the sampled requests
/// that have it and their p50 duration and self time.
pub fn span_table(traced: &[Phase]) -> String {
    let times = pooled_times(traced);
    let mut out = format!(
        "# spans: {} sampled requests, {} spans, {} dropped\n# {:<16} {:>8} {:>12} {:>12}\n",
        times.len(),
        traced.iter().map(|p| p.spans.len()).sum::<usize>(),
        traced.iter().map(|p| p.spans_dropped).sum::<u64>(),
        "layer",
        "requests",
        "p50_us",
        "self_p50_us"
    );
    for layer in LAYERS {
        let n = times.iter().filter(|t| has(t, layer)).count();
        if n == 0 {
            continue;
        }
        let _ = writeln!(
            out,
            "# {:<16} {:>8} {:>12.3} {:>12.3}",
            layer.name(),
            n,
            layer_p(&times, layer, 50.0, false) / 1e3,
            layer_p(&times, layer, 50.0, true) / 1e3
        );
    }
    let band = p50_band(&times);
    let root: u64 = band
        .iter()
        .map(|t| dur_of(t, Layer::Request))
        .sum::<u64>()
        .max(1);
    let shares: Vec<String> = ATTRIBUTED
        .iter()
        .map(|&layer| {
            let d: u64 = band.iter().map(|t| dur_of(t, layer)).sum();
            format!("{} {:.3}", layer.name(), d as f64 / root as f64)
        })
        .collect();
    let (frac, residual_us) = coverage(&times);
    let _ = writeln!(
        out,
        "# coverage of a p50 request ({} requests, p40-p60): {}; covered {frac:.3}, uncovered {residual_us:.3} us",
        band.len(),
        shares.join(", ")
    );
    out
}

/// Latency tail and host diagnostics of one phase; printed, not gated.
pub fn diagnostics(workload: Workload, seed: u64, label: &str, phase: &Phase) -> String {
    let mut out = String::new();
    let n = phase.lat.len();
    let tail = |p: f64| {
        let beyond = n - ((p / 100.0) * n as f64).ceil().min(n as f64) as usize;
        format!("{:.3} us ({beyond} beyond)", p_us(&phase.lat, p))
    };
    let _ = writeln!(
        out,
        "# {label} workload={} seed={seed} host_parallelism={}",
        workload.name(),
        std::thread::available_parallelism().map_or(0, std::num::NonZero::get)
    );
    let _ = writeln!(
        out,
        "# {label} latency n={n} p50={} p90={} p99={} p999={} max={:.3} us dropped={}",
        tail(50.0),
        tail(90.0),
        tail(99.0),
        tail(99.9),
        phase.lat.last().map_or(0.0, |&m| us(m)),
        phase.lat_dropped
    );
    let _ = writeln!(
        out,
        "# {label} setup_s={:.6} (p10 of {}) attempted={} answered={} failed={} warmup_failed={}{}",
        setup_s(phase),
        phase.setup_s.len(),
        phase.attempted,
        phase.answered,
        phase.failed,
        phase.warm_failed,
        phase
            .first_error
            .as_ref()
            .map_or(String::new(), |e| format!(" first_error={e:?}"))
    );
    let behind = workload.open_loop() && percentile(&phase.late, 99.0) > 50_000;
    let _ = writeln!(
        out,
        "# {label} steal_frac={} host_ref_ms={:.3} late_p50={:.3} us late_p99={:.3} us late_max={:.3} us behind_schedule={behind}",
        phase
            .steal
            .map_or("unavailable".to_string(), |s| format!("{s:.5}")),
        phase.host_ref_ms,
        p_us(&phase.late, 50.0),
        p_us(&phase.late, 99.0),
        phase.late.last().map_or(0.0, |&m| us(m)),
    );
    for c in &phase.checks {
        let _ = writeln!(
            out,
            "# {label} check {}: {} ({})",
            if c.ok { "PASS" } else { "FAIL" },
            c.name,
            c.detail
        );
    }
    out
}

/// The result line: `correct`, `attempted`, `failed` and the metrics.
pub fn json_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// A finite float in JSON, with all its digits; non-finite values (which
/// a metric never has on a correct run) become 0.
fn json_number(v: f64) -> String {
    if !v.is_finite() {
        return "0".into();
    }
    format!("{v:?}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_line_has_exactly_the_contract_keys() {
        let line = json_line(
            true,
            10,
            1,
            &[
                metric("p50_us", 11.25, "us"),
                metric("ok_frac", 0.9, "ratio"),
            ],
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 1, \"metrics\": \
             {\"p50_us\": {\"value\": 11.25, \"unit\": \"us\"}, \
             \"ok_frac\": {\"value\": 0.9, \"unit\": \"ratio\"}}}"
        );
        assert_eq!(json_number(f64::NAN), "0");
        assert_eq!(json_number(3.0), "3.0");
    }
}
