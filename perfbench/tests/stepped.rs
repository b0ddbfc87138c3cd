//! The stepped runs must simulate exactly what the repository's
//! one-shot scenarios simulate: same seed, same deterministic metrics.

use perfbench::outcome::{percentile, SimOutcome};
use perfbench::trace::Tracer;
use perfbench::{run_rep, sharded_churn, tenant_churn, view_storm, Workload};
use telecast::DelayModelChoice;
use telecast_bench::{
    run_mega, run_tenant_mix, run_view_storm, FigureData, MegaScenario, TenantMixScenario,
    ViewStormScenario,
};
use telecast_sim::SimDuration;

fn scalar(figure: &FigureData, label: &str) -> f64 {
    figure
        .series
        .iter()
        .find(|s| s.label == label)
        .unwrap_or_else(|| panic!("figure has no `{label}` series"))
        .points[0]
        .1
}

/// Runs one workload instance step by step, traced or not.
fn stepped<B>(
    setup: impl Fn(&mut Tracer) -> B,
    run: impl Fn(&mut B, &mut Tracer, &mut SimOutcome),
    traced: bool,
) -> SimOutcome {
    let mut tr = Tracer::new(traced);
    let mut built = setup(&mut tr);
    let mut out = SimOutcome::default();
    run(&mut built, &mut tr, &mut out);
    out.finish();
    out
}

#[test]
fn stepped_view_storm_matches_run_view_storm() {
    let scenario = ViewStormScenario {
        viewers: 300,
        minutes: 4,
        backend: DelayModelChoice::Dense,
        seed: 7,
        refocus_fraction: 0.5,
        prune_floor: 8,
        ..ViewStormScenario::default()
    };
    let params = view_storm::Params {
        viewers: scenario.viewers,
        minutes: scenario.minutes,
        views: scenario.views,
        zipf_view: scenario.zipf_view,
        refocus_fraction: scenario.refocus_fraction,
        backend: scenario.backend,
        seed: scenario.seed,
        pool_mbps: 3_000,
        prune_floor: scenario.prune_floor,
        slice: SimDuration::from_secs(5),
    };
    let reference = run_view_storm(&scenario);
    for traced in [false, true] {
        let o = stepped(|tr| view_storm::setup(&params, tr), view_storm::run, traced);
        let f = &reference.figure;
        assert_eq!(o.final_population, reference.final_population as u64);
        assert_eq!(o.acceptance_ratio(), reference.acceptance_ratio);
        assert_eq!(
            o.switch_latency_ms.len() as u64 + o.switch_starved,
            reference.switches
        );
        assert_eq!(
            percentile(&o.switch_latency_ms, 99.0),
            reference.switch_p99_ms
        );
        assert_eq!(
            percentile(&o.switch_latency_ms, 50.0),
            scalar(f, "switch_latency_p50_ms")
        );
        assert_eq!(o.switch_starved, reference.switch_starved);
        assert_eq!(o.wasted_mbps_hours, reference.wasted_mbps_hours);
        assert_eq!(o.fragments_merged, reference.fragments_merged);
        assert_eq!(o.groups_retired, reference.groups_retired);
        assert_eq!(o.victims as f64, scalar(f, "victims"));
        assert_eq!(o.displacements as f64, scalar(f, "displacements"));
        assert_eq!(o.failed, 0, "a request returned `Err`");
        assert!(
            o.switch_latency_ms.len() > 100,
            "the storms switched too little"
        );
    }
}

#[test]
fn stepped_sharded_churn_matches_run_mega() {
    let scenario = MegaScenario {
        viewers: 3_000,
        minutes: 3,
        churn_per_minute: 0.05,
        backend: DelayModelChoice::Dense,
        seed: 11,
        pool_mbps: Some(6_000),
        threads: 2,
        epoch_secs: 10,
        ..MegaScenario::default()
    };
    let params = sharded_churn::Params {
        viewers: scenario.viewers,
        minutes: scenario.minutes,
        churn_per_minute: scenario.churn_per_minute,
        backend: scenario.backend,
        seed: scenario.seed,
        pool_mbps: 6_000,
        threads: scenario.threads,
        epoch_secs: scenario.epoch_secs,
    };
    let reference = run_mega(&scenario);
    for traced in [false, true] {
        let o = stepped(
            |tr| sharded_churn::setup(&params, tr),
            |b, tr, out| {
                sharded_churn::run(b, tr, out);
            },
            traced,
        );
        assert_eq!(o.final_population, reference.final_population as u64);
        assert_eq!(o.acceptance_ratio(), reference.acceptance_ratio);
        assert_eq!(
            o.attempted,
            reference.arrivals + reference.departures + reference.failures
        );
        assert_eq!(o.spill_requests, reference.spill_requests);
        assert_eq!(o.spill_admits, reference.spill_admits);
        assert_eq!(o.cross_shard_messages, reference.cross_shard_messages);
        assert_eq!(o.peak_event_queue, reference.peak_event_queue);
        let events: u64 = reference
            .shard_stats
            .iter()
            .map(|s| s.events_processed)
            .sum();
        assert_eq!(o.events, events);
        assert!(o.spill_requests > 0, "the pools never spilled");
    }
}

#[test]
fn stepped_tenant_churn_matches_run_tenant_mix() {
    let scenario = TenantMixScenario {
        viewers: 600,
        tenants: 3,
        zipf: 1.0,
        minutes: 10,
        churn_per_minute: 0.3,
        day_minutes: 10,
        amplitude: 0.5,
        spike_multiplier: 6.0,
        backend: DelayModelChoice::Dense,
        seed: 43,
        pool_mbps: Some(400),
        autoscale: true,
        predictive: true,
    };
    let params = tenant_churn::Params {
        viewers: scenario.viewers,
        tenants: scenario.tenants,
        zipf: scenario.zipf,
        minutes: scenario.minutes,
        churn_per_minute: scenario.churn_per_minute,
        day_minutes: scenario.day_minutes,
        amplitude: scenario.amplitude,
        spike_multiplier: scenario.spike_multiplier,
        backend: scenario.backend,
        seed: scenario.seed,
        pool_mbps: 400,
    };
    assert_eq!(params.audiences(), telecast_bench::zipf_split(600, 3, 1.0));
    let reference = run_tenant_mix(&scenario);
    for traced in [false, true] {
        let o = stepped(
            |tr| tenant_churn::setup(&params, tr),
            tenant_churn::run,
            traced,
        );
        let population: usize = reference.final_population_by_tenant.iter().sum();
        assert_eq!(o.final_population, population as u64);
        let retries: u64 = reference.retries_by_tenant.iter().sum();
        assert_eq!(o.join_retries, retries);
        let served: f64 = reference.served_mbps_hours_by_tenant.iter().sum();
        assert_eq!(o.cdn_used_mbps_hours, served);
        assert_eq!(
            o.cdn_provisioned_mbps_hours,
            reference.provisioned_mbps_hours
        );
        assert_eq!(o.autoscale_ups, reference.autoscale_ups);
        assert_eq!(o.autoscale_downs, reference.autoscale_downs);
        assert!(retries > 0, "no parked join was retried");
    }
}

/// The benchmark's own sizes repeat exactly, and the sharded one does
/// not depend on the worker count.
#[test]
fn benchmark_sizes_are_deterministic() {
    let a = run_rep(Workload::ShardedChurn, 5, Some(1), false).expect("books balance");
    let b = run_rep(Workload::ShardedChurn, 5, Some(2), true).expect("books balance");
    assert_eq!(a.outcome, b.outcome);
    let c = run_rep(Workload::ShardedChurn, 6, Some(2), false).expect("books balance");
    assert_ne!(a.outcome, c.outcome, "the seed changed nothing");
}
