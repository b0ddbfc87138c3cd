//! `sharded_churn`: five per-region shards of a `ShardedSession` on the
//! worker pool, under steady 1%/min churn with cross-shard CDN spill.
//!
//! The benchmark steps the session one barrier epoch at a time. That is
//! exactly what `ShardedSession::run_until` does over the same epoch
//! schedule, so the run is identical to the one-shot scenario.

use telecast::{DelayModelChoice, SessionConfig, ShardedSession};
use telecast_cdn::CdnConfig;
use telecast_net::{Bandwidth, BandwidthProfile};
use telecast_sim::{EpochSchedule, SimDuration, SimTime};

use crate::outcome::{check_broker, counters, step_integral_hours, SimOutcome};
use crate::trace::{Layer, Phase, Tracer};

/// Parameters of one sharded-churn run; the fields mirror the
/// repository's `mega_storm` scenario without autoscaling.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Params {
    /// Steady-state population across the shards.
    pub viewers: usize,
    /// Simulated minutes.
    pub minutes: u64,
    /// Share of the population leaving per minute.
    pub churn_per_minute: f64,
    /// Delay substrate.
    pub backend: DelayModelChoice,
    /// Master seed.
    pub seed: u64,
    /// CDN pool in Mbps, split over the regional shards.
    pub pool_mbps: u64,
    /// Worker threads the shards are mapped onto.
    pub threads: usize,
    /// Barrier period in simulated seconds.
    pub epoch_secs: u64,
}

impl Params {
    /// The benchmark's size of the workload for `seed`.
    pub fn bench(seed: u64) -> Self {
        Params {
            viewers: 30_000,
            minutes: 5,
            churn_per_minute: 0.01,
            backend: DelayModelChoice::Coordinate,
            seed,
            pool_mbps: 150_000,
            threads: 2,
            epoch_secs: 10,
        }
    }

    /// Horizon of the run.
    pub fn horizon(&self) -> SimTime {
        SimTime::from_secs(self.minutes * 60)
    }

    /// The first simulated minute, while the prefilled audience joins,
    /// is the ramp; the rest is steady churn.
    pub fn phase(&self, start: SimTime) -> Phase {
        if start < SimTime::from_secs(60) {
            Phase::Ramp
        } else {
            Phase::Steady
        }
    }

    fn config(&self) -> SessionConfig {
        SessionConfig::default()
            .with_outbound(BandwidthProfile::uniform_mbps(2, 14))
            .with_cdn(CdnConfig::default().with_outbound(Bandwidth::from_mbps(self.pool_mbps)))
            .with_delay_model(self.backend)
            .with_monitor_period(SimDuration::from_secs(10))
            .with_seed(self.seed)
    }
}

/// A built sharded session, ready to run.
pub struct Built {
    params: Params,
    session: ShardedSession,
}

/// Builds the five shards and starts their worker pool.
pub fn setup(params: &Params, tr: &mut Tracer) -> Built {
    let span = tr.begin(
        Layer::Core,
        "session.build",
        None,
        Phase::None,
        Default::default,
    );
    let session = ShardedSession::new(
        params.config(),
        params.viewers,
        params.threads,
        SimDuration::from_secs(params.epoch_secs),
    );
    tr.end(span, Default::default);
    Built {
        params: *params,
        session,
    }
}

/// Host time the pool spent on the shards, per shard, in nanoseconds.
fn busy_ns(session: &ShardedSession) -> Vec<u64> {
    session.stats().iter().map(|s| s.busy_ns).collect()
}

/// Starts churn, steps every barrier epoch to the horizon and adds the
/// outcome to `out`. With tracing on, returns the coordinator time: the
/// per-epoch wall time not covered by the slowest shard's work, i.e.
/// dispatch, the barrier merge and the cross-shard apply.
pub fn run(built: &mut Built, tr: &mut Tracer, out: &mut SimOutcome) -> u64 {
    let Built { params, session } = built;
    let horizon = params.horizon();
    let span = tr.begin(Layer::Core, "start_churn", None, Phase::None, || {
        counters(session.shards())
    });
    session.start_churn(params.churn_per_minute, horizon);
    tr.end(span, || counters(session.shards()));

    let mut coordinator_ns = 0u64;
    let mut epochs = 0u64;
    let schedule = EpochSchedule::new(session.now(), horizon, session.epoch());
    for epoch_end in schedule {
        let start = session.now();
        let busy_before = tr.enabled().then(|| busy_ns(session));
        let span = tr.begin(Layer::Core, "epoch", None, params.phase(start), || {
            counters(session.shards())
        });
        session.run_until(epoch_end);
        tr.end(span, || counters(session.shards()));
        if let Some(before) = busy_before {
            let slowest = busy_ns(session)
                .iter()
                .zip(&before)
                .map(|(after, before)| after - before)
                .max()
                .unwrap_or(0);
            let wall = tr.spans().last().expect("epoch span").duration_ns();
            coordinator_ns += wall.saturating_sub(slowest);
        }
        epochs += 1;
    }

    for shard in session.shards() {
        out.add_session(shard);
        out.add_churn_operations(shard);
        out.cdn_used_mbps_hours += step_integral_hours(&shard.metrics().cdn_usage_mbps, horizon);
        out.cdn_provisioned_mbps_hours += shard.cdn().provisioned_mbps_hours_at(horizon);
    }
    out.cross_shard_messages += session
        .stats()
        .iter()
        .map(|s| s.cross_shard_messages)
        .sum::<u64>();
    out.epochs += epochs;
    coordinator_ns
}

/// Per-shard busy and barrier-wait nanoseconds after a run.
pub fn pool_stats(built: &Built) -> (Vec<u64>, Vec<u64>) {
    let stats = built.session.stats();
    (
        stats.iter().map(|s| s.busy_ns).collect(),
        stats.iter().map(|s| s.barrier_wait_ns).collect(),
    )
}

/// The shared broker's books after the run.
///
/// # Errors
///
/// Describes the first imbalance.
pub fn check(built: &Built) -> Result<(), String> {
    let handle = built.session.shards()[0].cdn();
    let broker = handle.broker();
    let broker = broker.lock().expect("broker lock");
    check_broker(&broker, &[handle.tenant()])
}
