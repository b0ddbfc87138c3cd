//! `view_storm`: one single-loop session, a Zipf multi-view audience and
//! three correlated re-focus storms, with the prune pass on.
//!
//! The benchmark replays what `TelecastSession::run_workload` does — run the
//! engine up to each scripted instant, then issue the request — but cuts
//! the timeline into fixed simulated slices so every slice, request and
//! `run_until` call can be timed on its own. Extra `run_until` calls at
//! slice boundaries only split a stretch of engine pops that contains no
//! request, so the run stays identical to the one-shot replay.

use telecast::{DelayModelChoice, SessionConfig, TelecastSession, ViewerStatus};
use telecast_cdn::CdnConfig;
use telecast_media::{
    ArrivalModel, ProducerSite, RefocusEvent, SiteId, ViewId, ViewPopularity, ViewerWorkload,
    WorkloadEvent,
};
use telecast_net::{Bandwidth, BandwidthProfile};
use telecast_sim::{SimDuration, SimRng, SimTime};

use crate::outcome::{check_broker, counters, step_integral_hours, SimOutcome};
use crate::trace::{Layer, Phase, Tracer};

/// Parameters of one view-storm run; the fields mirror the repository's
/// `view_storm` scenario.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Params {
    /// Audience size; everyone arrives during the first minute.
    pub viewers: usize,
    /// Simulated minutes.
    pub minutes: u64,
    /// Selectable views.
    pub views: usize,
    /// Zipf exponent of view popularity.
    pub zipf_view: f64,
    /// Share of the audience pulled onto one view by each storm.
    pub refocus_fraction: f64,
    /// Delay substrate.
    pub backend: DelayModelChoice,
    /// Master seed.
    pub seed: u64,
    /// CDN pool in Mbps.
    pub pool_mbps: u64,
    /// Member floor of the prune pass.
    pub prune_floor: usize,
    /// Simulated length of one timed slice.
    pub slice: SimDuration,
}

impl Params {
    /// The benchmark's size of the workload for `seed`.
    pub fn bench(seed: u64) -> Self {
        Params {
            viewers: 1_000,
            minutes: 10,
            views: 8,
            zipf_view: 1.1,
            refocus_fraction: 0.4,
            backend: DelayModelChoice::Coordinate,
            seed,
            pool_mbps: 10_000,
            prune_floor: 8,
            slice: SimDuration::from_secs(5),
        }
    }

    /// Start times of the three re-focus storms.
    pub fn storm_starts(&self) -> [SimTime; 3] {
        let horizon_secs = self.minutes * 60;
        [40u64, 60, 80].map(|pct| SimTime::from_secs(horizon_secs * pct / 100))
    }

    /// Horizon of the script.
    pub fn horizon(&self) -> SimTime {
        SimTime::from_secs(self.minutes * 60)
    }

    /// Which part of the timeline the slice `[start, end)` covers: the
    /// arrival minute, a storm (its window plus 30 s of settling), or
    /// neither.
    pub fn phase(&self, start: SimTime, end: SimTime) -> Phase {
        if start < SimTime::from_secs(60) {
            return Phase::Ramp;
        }
        let in_storm = self.storm_starts().iter().any(|&at| {
            let until = at + SimDuration::from_secs(5 + 30);
            start < until && end > at
        });
        if in_storm {
            Phase::Storm
        } else {
            Phase::Steady
        }
    }

    fn config(&self) -> SessionConfig {
        let cameras = u16::try_from(self.views).expect("views fit a camera ring");
        SessionConfig {
            sites: vec![
                ProducerSite::ring(SiteId::new(0), cameras, 2_000, 10),
                ProducerSite::ring(SiteId::new(1), cameras, 2_000, 10),
            ],
            streams_per_local_view: self.views.min(3),
            ..SessionConfig::default()
        }
        .with_outbound(BandwidthProfile::uniform_mbps(2, 14))
        .with_cdn(CdnConfig::default().with_outbound(Bandwidth::from_mbps(self.pool_mbps)))
        .with_delay_model(self.backend)
        .with_monitor_period(SimDuration::from_secs(10))
        .with_prune_floor(self.prune_floor)
        .with_seed(self.seed)
    }

    fn script(&self, catalog_len: usize) -> ViewerWorkload {
        let horizon_secs = self.minutes * 60;
        let gap = SimDuration::from_micros(60_000_000 / self.viewers.max(1) as u64);
        let mut popularity = ViewPopularity::zipf(self.zipf_view);
        if self.refocus_fraction > 0.0 {
            for (i, at) in self.storm_starts().into_iter().enumerate() {
                popularity = popularity.with_refocus(RefocusEvent {
                    at,
                    window: SimDuration::from_secs(5),
                    target: ViewId::new(((i + 1) % catalog_len.max(1)) as u32),
                    fraction: self.refocus_fraction,
                });
            }
        }
        let mut rng = SimRng::seed_from_u64(self.seed);
        ViewerWorkload::builder(self.viewers, catalog_len)
            .arrivals(ArrivalModel::Staggered { gap })
            .popularity(&popularity)
            .view_changes(1.0, SimDuration::from_secs(horizon_secs * 3 / 4))
            .build(&mut rng)
    }
}

/// A built session and its script, ready to run.
pub struct Built {
    params: Params,
    session: TelecastSession,
    script: ViewerWorkload,
}

/// Builds the session (after a zero-viewer probe that reads the view
/// catalog, as the one-shot scenario does) and the audience script.
pub fn setup(params: &Params, tr: &mut Tracer) -> Built {
    let config = params.config();
    let span = tr.begin(
        Layer::Core,
        "session.build",
        None,
        Phase::None,
        Default::default,
    );
    let catalog_len = TelecastSession::builder(config.clone())
        .viewers(0)
        .build()
        .catalog()
        .len();
    let session = TelecastSession::builder(config)
        .viewers(params.viewers)
        .build();
    tr.end(span, Default::default);
    assert_eq!(
        catalog_len, params.views,
        "catalog does not match the views"
    );

    let span = tr.begin(
        Layer::Media,
        "script.build",
        None,
        Phase::None,
        Default::default,
    );
    let script = params.script(catalog_len);
    tr.end(span, Default::default);
    Built {
        params: *params,
        session,
        script,
    }
}

/// Replays the script slice by slice, drains the session and adds its
/// outcome to `out`.
pub fn run(built: &mut Built, tr: &mut Tracer, out: &mut SimOutcome) {
    let Built {
        params,
        session,
        script,
    } = built;
    let ids = session.viewer_ids().to_vec();
    let mut errors = 0u64;
    let mut skipped = 0u64;
    let mut slice_start = SimTime::ZERO;
    let mut slice_end = slice_start + params.slice;
    let mut slice = tr.begin(
        Layer::Core,
        "slice",
        None,
        params.phase(slice_start, slice_end),
        || counters([&*session]),
    );
    for &(at, ev) in script.events() {
        while at > slice_end {
            let span = tr.begin(Layer::Core, "run_until", None, Phase::None, || {
                counters([&*session])
            });
            session.run_until(slice_end);
            tr.end(span, || counters([&*session]));
            tr.end(slice, || counters([&*session]));
            slice_start = slice_end;
            slice_end = slice_start + params.slice;
            slice = tr.begin(
                Layer::Core,
                "slice",
                None,
                params.phase(slice_start, slice_end),
                || counters([&*session]),
            );
        }
        let span = tr.begin(Layer::Core, "run_until", None, Phase::None, || {
            counters([&*session])
        });
        session.run_until(at);
        tr.end(span, || counters([&*session]));
        let (name, viewer) = match ev {
            WorkloadEvent::Join { viewer, .. } => ("request_join", viewer),
            WorkloadEvent::ViewChange { viewer, .. } => ("request_view_change", viewer),
            WorkloadEvent::Depart { viewer } => ("request_depart", viewer),
        };
        let id = ids[viewer];
        // A client only switches or leaves a stream it is watching. The
        // session would answer `NotJoined` without touching its state, as
        // it does in the one-shot replay, so skipping changes nothing.
        let not_watching = session
            .viewer(id)
            .is_ok_and(|v| v.status != ViewerStatus::Connected);
        if !matches!(ev, WorkloadEvent::Join { .. }) && not_watching {
            skipped += 1;
            continue;
        }
        let span = tr.begin(
            Layer::Core,
            name,
            Some(id.index() as u64),
            Phase::None,
            || counters([&*session]),
        );
        let result = match ev {
            WorkloadEvent::Join { view, .. } => session.request_join_at(id, view, at),
            WorkloadEvent::ViewChange { view, .. } => session.request_view_change(id, view),
            WorkloadEvent::Depart { .. } => session.request_depart(id),
        };
        tr.end(span, || counters([&*session]));
        errors += u64::from(result.is_err());
    }
    let span = tr.begin(Layer::Core, "run_until", None, Phase::None, || {
        counters([&*session])
    });
    session.run_until(slice_end);
    tr.end(span, || counters([&*session]));
    tr.end(slice, || counters([&*session]));

    // Step the quiet tail in slices to the horizon, then drain whatever
    // is still in flight.
    slice_start = slice_end;
    while slice_start < params.horizon() {
        slice_end = slice_start + params.slice;
        let span = tr.begin(
            Layer::Core,
            "slice",
            None,
            params.phase(slice_start, slice_end),
            || counters([&*session]),
        );
        session.run_until(slice_end);
        tr.end(span, || counters([&*session]));
        slice_start = slice_end;
    }
    let span = tr.begin(Layer::Core, "slice", None, Phase::Steady, || {
        counters([&*session])
    });
    session.run_to_idle();
    tr.end(span, || counters([&*session]));

    let horizon = params.horizon();
    out.add_session(session);
    out.cdn_used_mbps_hours += step_integral_hours(&session.metrics().cdn_usage_mbps, horizon);
    out.attempted += script.events().len() as u64 - skipped;
    out.failed += errors;
    out.skipped += skipped;
    out.cdn_provisioned_mbps_hours += session.cdn().provisioned_mbps_hours_at(horizon);
}

/// The broker's books after the run.
///
/// # Errors
///
/// Describes the first imbalance.
pub fn check(built: &Built) -> Result<(), String> {
    let handle = built.session.cdn();
    let broker = handle.broker();
    let broker = broker.lock().expect("broker lock");
    check_broker(&broker, &[handle.tenant()])
}
