//! `tenant_churn`: a `TenantFleet` of Zipf-sized broadcasts sharing the
//! regional CDN pools through one broker, with shared predictive
//! autoscaling, heavy churn and a bursting headline tenant.
//!
//! The benchmark runs every tenant to the epoch end, then calls
//! `TenantFleet::run_until` for the same instant. The fleet finds its
//! sessions already there, so that call is the barrier alone, and the
//! run is identical to the one-shot scenario.

use telecast::{DelayModelChoice, SessionConfig, TenantFleet};
use telecast_cdn::{AutoscalePolicy, CdnConfig, PoolScope, PredictivePolicy, TenantQuota};
use telecast_media::{ChurnSpec, RateProfile, SpikeWindow};
use telecast_net::{Bandwidth, BandwidthProfile};
use telecast_sim::{EpochSchedule, SimDuration, SimTime};

use crate::outcome::{check_broker, counters, SimOutcome};
use crate::trace::{Layer, Phase, Tracer};

/// Salt mixed into each tenant's seed (the repository's `tenant_mix`
/// value, so both derive the same per-tenant streams).
const TENANT_SEED_SALT: u64 = 0xA54F_F53A_5F1D_36F1;

/// Parameters of one tenant-churn run; the fields mirror the
/// repository's `tenant_mix` scenario.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Params {
    /// Steady-state audience across every tenant.
    pub viewers: usize,
    /// Tenant broadcasts.
    pub tenants: u32,
    /// Zipf exponent of the audience split.
    pub zipf: f64,
    /// Simulated minutes.
    pub minutes: u64,
    /// Share of each audience leaving per minute.
    pub churn_per_minute: f64,
    /// Length of one compressed day in minutes.
    pub day_minutes: u64,
    /// Diurnal amplitude.
    pub amplitude: f64,
    /// Rate multiplier of the headline tenant's bursts.
    pub spike_multiplier: f64,
    /// Delay substrate.
    pub backend: DelayModelChoice,
    /// Master seed.
    pub seed: u64,
    /// Starting shared pool in Mbps.
    pub pool_mbps: u64,
}

impl Params {
    /// The benchmark's size of the workload for `seed`.
    pub fn bench(seed: u64) -> Self {
        Params {
            viewers: 2_500,
            tenants: 8,
            zipf: 1.0,
            minutes: 8,
            churn_per_minute: 0.30,
            day_minutes: 8,
            amplitude: 0.5,
            spike_multiplier: 6.0,
            backend: DelayModelChoice::Coordinate,
            seed,
            pool_mbps: 10_000,
        }
    }

    /// Horizon of the run.
    pub fn horizon(&self) -> SimTime {
        SimTime::from_secs(self.minutes * 60)
    }

    /// The headline tenant's two burst windows, at 40% and 70% of the
    /// horizon.
    pub fn spike_windows(&self) -> Vec<SpikeWindow> {
        let horizon_secs = self.minutes * 60;
        let duration = SimDuration::from_secs((horizon_secs / 10).max(60));
        vec![
            SpikeWindow {
                start: SimTime::from_secs(horizon_secs * 2 / 5),
                duration,
                multiplier: self.spike_multiplier,
            },
            SpikeWindow {
                start: SimTime::from_secs(horizon_secs * 7 / 10),
                duration,
                multiplier: self.spike_multiplier * 1.5,
            },
        ]
    }

    /// Ramp in the first minute, storm inside a burst window, steady
    /// otherwise.
    pub fn phase(&self, start: SimTime, end: SimTime) -> Phase {
        if start < SimTime::from_secs(60) {
            return Phase::Ramp;
        }
        let bursting = self
            .spike_windows()
            .iter()
            .any(|w| start < w.start + w.duration && end > w.start);
        if bursting {
            Phase::Storm
        } else {
            Phase::Steady
        }
    }

    /// Zipf audience sizes by the largest-remainder method.
    pub fn audiences(&self) -> Vec<usize> {
        let m = self.tenants as usize;
        let total = self.viewers.max(m);
        let weights: Vec<f64> = (0..m)
            .map(|i| 1.0 / ((i + 1) as f64).powf(self.zipf))
            .collect();
        let weight_sum: f64 = weights.iter().sum();
        let shares: Vec<f64> = weights
            .iter()
            .map(|w| total as f64 * w / weight_sum)
            .collect();
        let mut sizes: Vec<usize> = shares.iter().map(|s| s.floor() as usize).collect();
        let assigned: usize = sizes.iter().sum();
        let mut order: Vec<usize> = (0..m).collect();
        order.sort_by(|&a, &b| {
            let fa = shares[a] - shares[a].floor();
            let fb = shares[b] - shares[b].floor();
            fb.partial_cmp(&fa).expect("finite shares").then(a.cmp(&b))
        });
        for &i in order.iter().cycle().take(total.saturating_sub(assigned)) {
            sizes[i] += 1;
        }
        for i in 0..m {
            if sizes[i] == 0 && sizes[0] > 1 {
                sizes[i] = 1;
                sizes[0] -= 1;
            }
        }
        sizes
    }

    /// Floor of half an even share, ceiling of four even shares.
    fn quota(&self) -> TenantQuota {
        if self.tenants <= 1 {
            return TenantQuota::FULL;
        }
        TenantQuota {
            floor_percent: (100 / (2 * self.tenants)).max(1),
            ceiling_percent: (400 / self.tenants).clamp(1, 100),
        }
    }

    fn tenant_config(&self, index: usize) -> SessionConfig {
        SessionConfig::default()
            .with_outbound(BandwidthProfile::uniform_mbps(2, 14))
            .with_cdn(
                CdnConfig::default()
                    .with_outbound(Bandwidth::from_mbps(self.pool_mbps))
                    .with_pool_scope(PoolScope::PerRegion),
            )
            .with_delay_model(self.backend)
            .with_monitor_period(SimDuration::from_secs(10))
            .with_seed(self.seed ^ TENANT_SEED_SALT.wrapping_mul(index as u64 + 1))
    }

    fn fleet_config(&self) -> SessionConfig {
        let pool = Bandwidth::from_mbps(self.pool_mbps);
        let ceiling = Bandwidth::from_mbps((self.viewers as u64 * 2 * 8).max(6_000));
        self.tenant_config(0)
            .with_seed(self.seed)
            .with_autoscale(AutoscalePolicy::for_pool(pool, ceiling))
            .with_predictive(PredictivePolicy {
                horizon: SimDuration::from_secs(45),
                alpha: 0.5,
                target_utilisation: 0.95,
            })
    }

    fn rate_profile(&self, index: usize) -> RateProfile {
        let day = SimDuration::from_secs(self.day_minutes.max(1) * 60);
        let spikes = if index == 0 {
            self.spike_windows()
        } else {
            Vec::new()
        };
        RateProfile::diurnal_with_spikes(day, self.amplitude, &spikes)
    }
}

/// A built fleet and its churn scripts, ready to run.
pub struct Built {
    params: Params,
    fleet: TenantFleet,
    epoch: SimDuration,
    scripts: Vec<(ChurnSpec, usize)>,
}

/// Builds the fleet, registers every tenant and builds its churn script.
pub fn setup(params: &Params, tr: &mut Tracer) -> Built {
    let fleet_config = params.fleet_config();
    let epoch = fleet_config
        .autoscale
        .as_ref()
        .map_or(SimDuration::from_secs(15), |p| p.period);
    let span = tr.begin(
        Layer::Core,
        "session.build",
        None,
        Phase::None,
        Default::default,
    );
    let mut fleet = TenantFleet::new(&fleet_config, epoch);
    tr.end(span, Default::default);

    let quota = params.quota();
    let mut scripts = Vec::new();
    for (i, audience) in params.audiences().into_iter().enumerate() {
        let span = tr.begin(
            Layer::Core,
            "session.build",
            Some(i as u64),
            Phase::None,
            Default::default,
        );
        fleet.add_tenant(&params.tenant_config(i), quota, (audience * 2).max(2));
        tr.end(span, Default::default);
        let span = tr.begin(
            Layer::Media,
            "script.build",
            Some(i as u64),
            Phase::None,
            Default::default,
        );
        let spec = ChurnSpec::steady_state(audience, params.churn_per_minute)
            .with_rate_profile(params.rate_profile(i));
        tr.end(span, Default::default);
        scripts.push((spec, audience));
    }
    Built {
        params: *params,
        fleet,
        epoch,
        scripts,
    }
}

/// Starts every tenant's churn, steps the fleet epoch by epoch and adds
/// the outcome to `out`.
pub fn run(built: &mut Built, tr: &mut Tracer, out: &mut SimOutcome) {
    let Built {
        params,
        fleet,
        epoch,
        scripts,
    } = built;
    let horizon = params.horizon();
    let n = fleet.tenant_count();
    let all = |fleet: &TenantFleet| counters((0..fleet.tenant_count()).map(|i| fleet.session(i)));

    for (i, (spec, audience)) in scripts.iter().enumerate() {
        let span = tr.begin(
            Layer::Core,
            "start_churn",
            Some(i as u64),
            Phase::None,
            || counters([fleet.session(i)]),
        );
        fleet.session_mut(i).start_churn(*spec, horizon, *audience);
        tr.end(span, || counters([fleet.session(i)]));
    }

    let mut epochs = 0u64;
    for epoch_end in EpochSchedule::new(fleet.now(), horizon, *epoch) {
        let start = fleet.now();
        let slice = tr.begin(
            Layer::Core,
            "epoch",
            None,
            params.phase(start, epoch_end),
            || all(fleet),
        );
        for i in 0..n {
            let span = tr.begin(
                Layer::Core,
                "tenant.run_until",
                Some(i as u64),
                Phase::None,
                || counters([fleet.session(i)]),
            );
            fleet.session_mut(i).run_until(epoch_end);
            tr.end(span, || counters([fleet.session(i)]));
        }
        let span = tr.begin(Layer::Core, "fleet.barrier", None, Phase::None, || {
            all(fleet)
        });
        fleet.run_until(epoch_end);
        tr.end(span, || all(fleet));
        tr.end(slice, || all(fleet));
        epochs += 1;
    }

    for i in 0..n {
        out.add_session(fleet.session(i));
        out.add_churn_operations(fleet.session(i));
        // Every tenant's handle sees the whole shared pool, so its usage
        // series holds the fleet's total: the broker meters each tenant.
        out.cdn_used_mbps_hours += fleet.served_mbps_hours(i);
    }
    out.autoscale_ups += fleet.autoscale_ups();
    out.autoscale_downs += fleet.autoscale_downs();
    out.cdn_provisioned_mbps_hours += fleet.provisioned_mbps_hours_at(horizon);
    out.epochs += epochs;
}

/// The shared broker's books after the run.
///
/// # Errors
///
/// Describes the first imbalance.
pub fn check(built: &Built) -> Result<(), String> {
    let tenants: Vec<_> = (0..built.fleet.tenant_count())
        .map(|i| built.fleet.tenant_id(i))
        .collect();
    let broker = built.fleet.broker();
    let broker = broker.lock().expect("broker lock");
    check_broker(&broker, &tenants)
}
