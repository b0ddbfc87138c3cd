//! Turns repetitions into the named metrics the benchmark prints.

use std::time::Duration;

use crate::outcome::percentile;
use crate::trace::{Layer, Phase, Span};
use crate::Rep;

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Value as measured.
    pub value: f64,
}

fn metric(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric { name, unit, value }
}

/// Median of `values` (mean of the middle two for an even count).
///
/// # Panics
///
/// Panics on an empty slice or a NaN.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

fn secs(values: impl Iterator<Item = Duration>) -> Vec<f64> {
    values.map(|d| d.as_secs_f64()).collect()
}

/// The metrics a user of the system sees, from untraced repetitions.
/// `setups` holds every build timed in the run.
pub fn end_to_end(reps: &[Rep], setups: &[Duration], peak_rss_mb: f64) -> Vec<Metric> {
    let o = &reps[0].outcome;
    vec![
        metric("run_s", "s", median(&secs(reps.iter().map(|r| r.run)))),
        metric("setup_s", "s", median(&secs(setups.iter().copied()))),
        metric("peak_rss_mb", "MB", peak_rss_mb),
        metric("acceptance_ratio", "ratio", o.acceptance_ratio()),
        metric(
            "join_delay_p50_ms",
            "ms",
            percentile(&o.join_delays_ms, 50.0),
        ),
        metric(
            "join_delay_p99_ms",
            "ms",
            percentile(&o.join_delays_ms, 99.0),
        ),
        metric("cdn_used_mbps_hours", "Mbps.h", o.cdn_used_mbps_hours),
        metric(
            "cdn_provisioned_mbps_hours",
            "Mbps.h",
            o.cdn_provisioned_mbps_hours,
        ),
        metric("mean_delay_layer", "layer", o.mean_delay_layer()),
    ]
}

/// Index of each span's top-level ancestor (itself for a root).
fn roots(spans: &[Span]) -> Vec<usize> {
    let mut root = Vec::with_capacity(spans.len());
    for (i, span) in spans.iter().enumerate() {
        let r = span.parent.map_or(i, |p| root[p]);
        root.push(r);
    }
    root
}

/// Host-time figures of one traced repetition.
fn host_figures(rep: &Rep) -> Vec<Metric> {
    let spans = rep.tracer.spans();
    let self_ns = rep.tracer.self_times_ns();
    let root = roots(spans);
    let sum_dur = |pred: &dyn Fn(&Span) -> bool| -> f64 {
        spans
            .iter()
            .filter(|s| pred(s))
            .map(|s| s.duration_ns())
            .sum::<u64>() as f64
            / 1e9
    };
    let self_of = |pred: &dyn Fn(usize, &Span) -> bool| -> f64 {
        spans
            .iter()
            .enumerate()
            .filter(|&(i, s)| pred(i, s))
            .map(|(i, _)| self_ns[i])
            .sum::<u64>() as f64
            / 1e9
    };
    let in_run = |i: usize| spans[root[i]].name == "run";
    let run_root_s = sum_dur(&|s| s.parent.is_none() && s.name == "run");
    let run_layers_s = self_of(&|i, s| in_run(i) && s.layer != Layer::Bench);
    let core_run_s = self_of(&|i, s| in_run(i) && s.layer == Layer::Core);
    let slices: Vec<f64> = spans
        .iter()
        .filter(|s| s.phase != Phase::None)
        .map(|s| s.duration_ns() as f64 / 1e6)
        .collect();
    let events = rep.outcome.events.max(1) as f64;

    let e = &rep.extras;
    let ratio_max_mean = |v: &[u64]| -> f64 {
        let mean = v.iter().sum::<u64>() as f64 / v.len().max(1) as f64;
        if mean > 0.0 {
            *v.iter().max().expect("non-empty") as f64 / mean
        } else {
            0.0
        }
    };
    let mut tenant_ns: Vec<u64> = Vec::new();
    for s in spans.iter().filter(|s| s.name == "tenant.run_until") {
        let tenant = s.key.expect("tenant spans carry their index") as usize;
        if tenant_ns.len() <= tenant {
            tenant_ns.resize(tenant + 1, 0);
        }
        tenant_ns[tenant] += s.duration_ns();
    }
    let busy: u64 = e.pool_busy_ns.iter().sum();
    let wait: u64 = e.pool_wait_ns.iter().sum();
    let layer_self = |layer: Layer| self_of(&|_, s| s.layer == layer);
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    vec![
        metric(
            "media.script_build_s",
            "s",
            sum_dur(&|s| s.name == "script.build"),
        ),
        metric(
            "core.session_build_s",
            "s",
            sum_dur(&|s| s.name == "session.build"),
        ),
        metric("core.ns_per_event", "ns", core_run_s * 1e9 / events),
        metric("core.ramp_s", "s", sum_dur(&|s| s.phase == Phase::Ramp)),
        metric("core.storm_s", "s", sum_dur(&|s| s.phase == Phase::Storm)),
        metric("core.steady_s", "s", sum_dur(&|s| s.phase == Phase::Steady)),
        metric(
            "core.slice_ms_p50",
            "ms",
            if slices.is_empty() {
                0.0
            } else {
                median(&slices)
            },
        ),
        metric(
            "core.slice_ms_max",
            "ms",
            slices.iter().copied().fold(0.0, f64::max),
        ),
        metric(
            "core.fleet.tenant_run_s",
            "s",
            tenant_ns.iter().sum::<u64>() as f64 / 1e9,
        ),
        metric(
            "core.fleet.barrier_s",
            "s",
            sum_dur(&|s| s.name == "fleet.barrier"),
        ),
        metric(
            "core.fleet.tenant_skew",
            "ratio",
            ratio_max_mean(&tenant_ns),
        ),
        metric("sim.pool.busy_s", "s", busy as f64 / 1e9),
        metric("sim.pool.barrier_wait_s", "s", wait as f64 / 1e9),
        metric(
            "sim.pool.utilization",
            "ratio",
            ratio(busy as f64, (busy + wait) as f64),
        ),
        metric(
            "sim.pool.shard_skew",
            "ratio",
            ratio_max_mean(&e.pool_busy_ns),
        ),
        metric("sim.pool.coordinator_s", "s", e.coordinator_ns as f64 / 1e9),
        metric("bench.self_s", "s", layer_self(Layer::Bench)),
        metric("media.self_s", "s", layer_self(Layer::Media)),
        metric("core.self_s", "s", layer_self(Layer::Core)),
        metric(
            "trace.run_coverage",
            "ratio",
            ratio(run_layers_s, run_root_s),
        ),
        metric("trace.spans", "count", spans.len() as f64),
    ]
}

/// The per-layer metrics: host figures are medians over the traced
/// repetitions, counts come from the (identical) simulated outcome, and
/// the tracing overhead compares traced with untraced run times.
pub fn per_layer(traced: &[&Rep], untraced: &[&Rep]) -> Vec<Metric> {
    let per_rep: Vec<Vec<Metric>> = traced.iter().map(|r| host_figures(r)).collect();
    let mut out: Vec<Metric> = per_rep[0]
        .iter()
        .enumerate()
        .map(|(i, m)| {
            let values: Vec<f64> = per_rep.iter().map(|rep| rep[i].value).collect();
            metric(m.name, m.unit, median(&values))
        })
        .collect();
    let traced_run = median(&secs(traced.iter().map(|r| r.run)));
    let untraced_run = median(&secs(untraced.iter().map(|r| r.run)));
    out.push(metric("trace.run_s", "s", traced_run));
    out.push(metric(
        "trace.overhead",
        "ratio",
        traced_run / untraced_run - 1.0,
    ));

    let o = &traced[0].outcome;
    let count = |name, v: u64| metric(name, "count", v as f64);
    out.extend([
        count("core.events", o.events),
        count("core.subscription_messages", o.subscription_messages),
        metric(
            "core.messages_per_event",
            "ratio",
            o.subscription_messages as f64 / o.events.max(1) as f64,
        ),
        count("core.resync_cap_hits", o.resync_cap_hits),
        count("core.displacements", o.displacements),
        count("core.victims", o.victims),
        count("core.victims_repositioned", o.victims_repositioned),
        count("core.layer_drops", o.layer_drops),
        count("core.admissions_refused", o.refused),
        count("bench.requests_skipped", o.skipped),
        count("core.join_delay_samples", o.join_delays_ms.len() as u64),
        count("core.layer_samples", o.layer_samples),
        count("overlay.attach_probes", o.attach_probes),
        metric(
            "overlay.attach_probes_per_stream",
            "ratio",
            o.attach_probes as f64 / o.accepted_streams.max(1) as f64,
        ),
        count("overlay.depth_shifts", o.depth_shifts),
        metric("overlay.mean_tree_depth", "depth", o.mean_tree_depth()),
        count("overlay.fragments_merged", o.fragments_merged),
        count("overlay.groups_retired", o.groups_retired),
        count("cdn.join_retries", o.join_retries),
        count("cdn.peak_retry_queue", o.peak_retry_queue),
        count("cdn.autoscale_ups", o.autoscale_ups),
        count("cdn.autoscale_downs", o.autoscale_downs),
        count("cdn.spill_requests", o.spill_requests),
        count("cdn.spill_admits", o.spill_admits),
        count("cdn.switch_starved", o.switch_starved),
        count("sim.peak_event_queue", o.peak_event_queue),
        count("sim.pool.cross_shard_messages", o.cross_shard_messages),
        count("sim.pool.epochs", o.epochs),
        metric(
            "switch_latency_p50_ms",
            "ms",
            percentile(&o.switch_latency_ms, 50.0),
        ),
        metric(
            "switch_latency_p99_ms",
            "ms",
            percentile(&o.switch_latency_ms, 99.0),
        ),
        count("switch_latency_samples", o.switch_latency_ms.len() as u64),
        metric("wasted_mbps_hours", "Mbps.h", o.wasted_mbps_hours),
    ]);
    out
}

/// Formats the result line: `correct`, `attempted`, `failed` and the
/// metrics by name. Values print with every digit Rust's shortest
/// round-trip formatting gives.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// The process's high-water resident set size in MB (`VmHWM`).
///
/// # Errors
///
/// Describes why `/proc/self/status` gave no reading.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let line = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .ok_or("no VmHWM line in /proc/self/status")?;
    let kb: f64 = line
        .trim_start_matches("VmHWM:")
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .map_err(|e| format!("bad VmHWM line `{line}`: {e}"))?;
    Ok(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn result_line_is_one_json_object() {
        let line = result_line(true, 3, 0, &[metric("run_s", "s", 1.25)]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \
             \"metrics\": {\"run_s\": {\"value\": 1.25, \"unit\": \"s\"}}}"
        );
    }
}
