//! The view-switching-storm scenario: a Zipf-skewed multi-view audience
//! hit by correlated re-focus events, with per-view tree prune/merge
//! shrinking the abandoned views' overlays.
//!
//! The audience arrives over the first simulated minute, picks views by
//! a Zipf popularity model, and drifts with a Poisson baseline of
//! per-viewer view changes. Three correlated re-focus storms then each
//! pull a configurable fraction of *everyone* onto one target view
//! inside a five-second window — the flash-crowd analogue of a director
//! cut. Every switch tears the viewer out of the old view's trees; the
//! prune pass folds the abandoned fragments back under P2P parents and
//! returns their CDN serves to the pool, retiring fully drained groups.
//!
//! Everything the figure reports is a function of the seed alone —
//! wall-clock numbers are returned separately so the JSON export stays
//! byte-identical across runs and machines.

use telecast::{DelayModelChoice, SessionConfig, TelecastSession};
use telecast_cdn::CdnConfig;
use telecast_media::{
    ArrivalModel, ProducerSite, RefocusEvent, SiteId, ViewId, ViewPopularity, ViewerWorkload,
};
use telecast_net::{Bandwidth, BandwidthProfile};
use telecast_sim::{SimDuration, SimRng, SimTime};

use crate::table::{FigureData, Series};

/// Parameters of one view-storm run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ViewStormScenario {
    /// Audience size (every viewer arrives during the first minute).
    pub viewers: usize,
    /// Simulated duration in minutes.
    pub minutes: u64,
    /// Selectable views (camera count per producer site).
    pub views: usize,
    /// Zipf exponent of view popularity (0 = uniform).
    pub zipf_view: f64,
    /// Fraction of the audience hopping to the target view during each
    /// re-focus storm (0 disables the storms).
    pub refocus_fraction: f64,
    /// Delay substrate; coordinate is the scale-friendly default.
    pub backend: DelayModelChoice,
    /// Master seed (config and workload).
    pub seed: u64,
    /// Starting CDN outbound pool in Mbps; `None` keeps the
    /// population-scaled provisioning shared with the churn bins.
    pub pool_mbps: Option<u64>,
    /// Member floor of the per-view prune pass
    /// ([`SessionConfig::prune_member_floor`]).
    pub prune_floor: usize,
}

impl Default for ViewStormScenario {
    fn default() -> Self {
        ViewStormScenario {
            viewers: 20_000,
            minutes: 10,
            views: 8,
            zipf_view: 1.1,
            refocus_fraction: 0.4,
            backend: DelayModelChoice::Coordinate,
            seed: 0x4D_F0C5,
            pool_mbps: None,
            // Groups are scoped per (region, view): 5 regions x 8 views
            // spread 20k viewers ~500 per group, and the coldest
            // Zipf-1.1 views (~4% share) drop to a few dozen members
            // per region after a 40% storm — below this floor, so the
            // prune pass visibly fires in the committed smoke run.
            prune_floor: 64,
        }
    }
}

/// Deterministic outcome of a view-storm run (everything the JSON
/// reports, plus the raw counters the binary prints).
#[derive(Debug, Clone, PartialEq)]
pub struct ViewStormOutcome {
    /// The exported figure (`results/view_storm.json`).
    pub figure: FigureData,
    /// Connected population at the horizon.
    pub final_population: usize,
    /// View changes processed (switch-latency samples plus starved
    /// switches).
    pub switches: u64,
    /// p99 switch latency (leave-old-tree → first-frame-on-new-tree).
    pub switch_p99_ms: f64,
    /// Switches whose CDN fast path granted no temporary lease.
    pub switch_starved: u64,
    /// Wasted subtree bandwidth in Mbps·hours.
    pub wasted_mbps_hours: f64,
    /// CDN-rooted fragments folded under P2P parents by the prune pass.
    pub fragments_merged: u64,
    /// Drained view groups retired by the prune pass.
    pub groups_retired: u64,
    /// CDN capacity returned by prune merges, in Mbps.
    pub reclaimed_mbps: f64,
    /// Stream acceptance ratio ρ at the horizon.
    pub acceptance_ratio: f64,
    /// Peak CDN outbound usage in Mbps.
    pub peak_cdn_mbps: f64,
    /// §VI resync visits under the visit cap (work counter; printed,
    /// never exported).
    pub resync_visits: u64,
    /// Resync visits that recomputed a viewer's layers.
    pub resync_recomputes: u64,
}

/// The scenario's session configuration: the paper's setup with the
/// camera ring widened to `views` views per site, the CDN pool scaled
/// to the population, and the prune pass armed at the scenario's floor.
fn storm_config(scenario: &ViewStormScenario) -> SessionConfig {
    let pool = Bandwidth::from_mbps(
        scenario
            .pool_mbps
            .unwrap_or((scenario.viewers as u64 * 5).max(3_000)),
    );
    let cameras = u16::try_from(scenario.views).expect("--views fits a camera ring");
    SessionConfig {
        sites: vec![
            ProducerSite::ring(SiteId::new(0), cameras, 2_000, 10),
            ProducerSite::ring(SiteId::new(1), cameras, 2_000, 10),
        ],
        streams_per_local_view: scenario.views.min(3),
        ..SessionConfig::default()
    }
    .with_outbound(BandwidthProfile::uniform_mbps(2, 14))
    .with_cdn(CdnConfig::default().with_outbound(pool))
    .with_delay_model(scenario.backend)
    .with_monitor_period(SimDuration::from_secs(10))
    .with_prune_floor(scenario.prune_floor)
    .with_seed(scenario.seed)
}

/// The audience script: staggered arrivals over the first minute, Zipf
/// view choice, one baseline view change per viewer on average, and
/// three re-focus storms at 40/60/80% of the horizon targeting views
/// 1, 2 and 3 (mod the catalog) with the configured audience fraction.
fn storm_workload(scenario: &ViewStormScenario, catalog_len: usize) -> ViewerWorkload {
    let horizon_secs = scenario.minutes * 60;
    let gap = SimDuration::from_micros(60_000_000 / scenario.viewers.max(1) as u64);
    let mut popularity = ViewPopularity::zipf(scenario.zipf_view);
    if scenario.refocus_fraction > 0.0 {
        for (i, pct) in [40u64, 60, 80].into_iter().enumerate() {
            popularity = popularity.with_refocus(RefocusEvent {
                at: SimTime::from_secs(horizon_secs * pct / 100),
                window: SimDuration::from_secs(5),
                target: ViewId::new(((i + 1) % catalog_len.max(1)) as u32),
                fraction: scenario.refocus_fraction,
            });
        }
    }
    let mut rng = SimRng::seed_from_u64(scenario.seed);
    ViewerWorkload::builder(scenario.viewers, catalog_len)
        .arrivals(ArrivalModel::Staggered { gap })
        .popularity(&popularity)
        .view_changes(1.0, SimDuration::from_secs(horizon_secs * 3 / 4))
        .build(&mut rng)
}

/// Runs the scenario and collapses it into the exported figure. Pure in
/// the seed: equal scenarios produce equal (`==`, and byte-identical
/// JSON) outcomes regardless of host, thread count or repetition.
pub fn run_view_storm(scenario: &ViewStormScenario) -> ViewStormOutcome {
    let config = storm_config(scenario);
    let catalog_len = {
        let probe = TelecastSession::builder(config.clone()).viewers(0).build();
        probe.catalog().len()
    };
    assert_eq!(
        catalog_len, scenario.views,
        "canonical catalog does not match --views"
    );
    let mut session = TelecastSession::builder(config)
        .viewers(scenario.viewers)
        .build();
    let workload = storm_workload(scenario, catalog_len);
    session.run_workload(&workload);

    let m = session.metrics();
    let x = scenario.viewers as f64;
    let population_series: Vec<(f64, f64)> = m
        .population
        .points()
        .iter()
        .map(|&(at, v)| (at.as_secs_f64(), v))
        .collect();
    let switches = m.switch_latency_ms.samples().len() as u64 + m.switch_starved.value();
    let figure = FigureData {
        id: "view_storm".into(),
        title: format!(
            "View storm: {} viewers over {} views (Zipf {}), {:.0}% re-focus storms, \
             {} simulated minutes ({:?} backend)",
            scenario.viewers,
            scenario.views,
            scenario.zipf_view,
            scenario.refocus_fraction * 100.0,
            scenario.minutes,
            scenario.backend,
        ),
        x_label: "viewers (scalars) / seconds (population)".into(),
        y_label: "per-metric value".into(),
        series: vec![
            Series::new("population_over_time", population_series),
            Series::new("acceptance_ratio", vec![(x, m.acceptance_ratio())]),
            Series::new(
                "final_population",
                vec![(x, session.connected_viewers() as f64)],
            ),
            Series::new("view_changes", vec![(x, switches as f64)]),
            Series::new(
                "switch_latency_p50_ms",
                vec![(x, m.switch_latency_ms.percentile(50.0).unwrap_or(0.0))],
            ),
            Series::new(
                "switch_latency_p99_ms",
                vec![(x, m.switch_latency_ms.percentile(99.0).unwrap_or(0.0))],
            ),
            Series::new("switch_starved", vec![(x, m.switch_starved.value() as f64)]),
            Series::new("wasted_mbps_hours", vec![(x, m.wasted_mbps_hours())]),
            Series::new(
                "fragments_merged",
                vec![(x, m.fragments_merged.value() as f64)],
            ),
            Series::new("groups_retired", vec![(x, m.groups_retired.value() as f64)]),
            Series::new(
                "prune_reclaimed_mbps",
                vec![(x, m.prune_reclaimed_kbps.value() as f64 / 1_000.0)],
            ),
            Series::new("victims", vec![(x, m.victims.value() as f64)]),
            Series::new("displacements", vec![(x, m.displacements.value() as f64)]),
            Series::new("peak_cdn_mbps", vec![(x, m.peak_cdn_mbps())]),
            Series::new(
                "view_change_delay_p99_ms",
                vec![(x, m.view_change_delays_ms.percentile(99.0).unwrap_or(0.0))],
            ),
        ],
    };
    ViewStormOutcome {
        final_population: session.connected_viewers(),
        switches,
        switch_p99_ms: m.switch_latency_ms.percentile(99.0).unwrap_or(0.0),
        switch_starved: m.switch_starved.value(),
        wasted_mbps_hours: m.wasted_mbps_hours(),
        fragments_merged: m.fragments_merged.value(),
        groups_retired: m.groups_retired.value(),
        reclaimed_mbps: m.prune_reclaimed_kbps.value() as f64 / 1_000.0,
        acceptance_ratio: m.acceptance_ratio(),
        peak_cdn_mbps: m.peak_cdn_mbps(),
        resync_visits: m.resync_visits.value(),
        resync_recomputes: m.resync_recomputes.value(),
        figure,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> ViewStormScenario {
        ViewStormScenario {
            viewers: 300,
            minutes: 4,
            backend: DelayModelChoice::Dense,
            seed: 7,
            refocus_fraction: 0.5,
            ..ViewStormScenario::default()
        }
    }

    /// A small storm actually switches views, measures the switches,
    /// and prunes the abandoned trees.
    #[test]
    fn small_storm_switches_and_prunes() {
        let outcome = run_view_storm(&small());
        assert!(outcome.final_population > 0, "audience collapsed");
        assert!(
            outcome.switches > 300,
            "three 50% storms over 300 viewers produced only {} switches",
            outcome.switches
        );
        assert!(
            outcome.switch_p99_ms > 0.0 || outcome.switch_starved == outcome.switches,
            "switches happened but no latency was measured"
        );
        assert!(
            outcome.wasted_mbps_hours > 0.0,
            "switching away wasted no subtree bandwidth"
        );
        assert!(
            outcome.fragments_merged > 0,
            "storms fragmented trees but nothing merged"
        );
        // The incremental resync skips visits whose inputs did not
        // change, and its work counters stay out of the figure.
        assert!(outcome.resync_recomputes > 0, "storms triggered no resync");
        assert!(
            outcome.resync_recomputes < outcome.resync_visits,
            "{} recomputes for {} visits",
            outcome.resync_recomputes,
            outcome.resync_visits
        );
        assert!(!outcome.figure.to_json().contains("resync"));
    }

    /// Equal scenarios produce equal outcomes (the JSON byte-identity
    /// check lives in the conformance suite).
    #[test]
    fn outcome_is_deterministic() {
        let a = run_view_storm(&small());
        let b = run_view_storm(&small());
        assert_eq!(a, b);
    }
}
