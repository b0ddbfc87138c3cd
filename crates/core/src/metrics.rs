//! Session-wide measurements — the quantities the paper's figures plot.

use telecast_sim::{Cdf, Counter, Histogram, SimTime, TimeSeries};

/// Accumulated counters and samples of one session run.
#[derive(Debug, Clone)]
pub struct SessionMetrics {
    /// Streams requested across all join attempts (`N_total`).
    pub requested_streams: Counter,
    /// Streams accepted at admission (`N_accepted`).
    pub accepted_streams: Counter,
    /// Viewers admitted (≥ one stream per site).
    pub admitted_viewers: Counter,
    /// Viewers rejected at admission.
    pub rejected_viewers: Counter,
    /// Join delay samples in milliseconds (Fig. 14(c)).
    pub join_delays_ms: Histogram,
    /// View-change delay samples in milliseconds (Fig. 14(c)).
    pub view_change_delays_ms: Histogram,
    /// Switch-latency samples in milliseconds: leave-old-tree →
    /// first-frame-on-new-tree (the CDN fast path of §VI). Unlike
    /// [`SessionMetrics::view_change_delays_ms`] this excludes the
    /// request→teardown control-plane time.
    pub switch_latency_ms: Histogram,
    /// View changes whose CDN fast path granted no temporary lease —
    /// the first frame of the new view waits for the background join.
    pub switch_starved: Counter,
    /// Wasted subtree bandwidth, in kbps·ms: old-view bandwidth still
    /// flowing to a switching viewer between its view-change request
    /// and the old tree's teardown (see
    /// [`SessionMetrics::wasted_mbps_hours`]).
    pub wasted_subtree_kbps_ms: Counter,
    /// CDN-rooted tree fragments folded under P2P parents by the prune
    /// pass (each fold returns one CDN serve to the pool).
    pub fragments_merged: Counter,
    /// Drained view groups retired by the prune pass.
    pub groups_retired: Counter,
    /// CDN capacity returned to the pool by prune merges, in kbps.
    pub prune_reclaimed_kbps: Counter,
    /// Subscription-protocol messages sent (overhead).
    pub subscription_messages: Counter,
    /// Push-down displacements performed by Algorithm 1.
    pub displacements: Counter,
    /// Streams dropped because their layer exceeded the admissible
    /// maximum.
    pub layer_drops: Counter,
    /// Victim viewers produced by departures and view changes.
    pub victims: Counter,
    /// Victims recovered into a P2P position (vs staying on the CDN).
    pub victims_repositioned: Counter,
    /// CDN outbound usage over time, in Mbps (Fig. 13(a) reports the
    /// peak).
    pub cdn_usage_mbps: TimeSeries,
    /// *Provisioned* CDN outbound capacity over time, in Mbps — a flat
    /// line for the paper's static pool, a staircase tracking demand
    /// under autoscaling. With per-region pools this is the aggregate
    /// (the sum over [`SessionMetrics::provisioned_by_slot`]).
    pub provisioned_cdn_mbps: TimeSeries,
    /// Per-pool-slot provisioned capacity over time, in Mbps — one
    /// series per regional pool (a single entry mirroring the aggregate
    /// under the global pool scope). Grown lazily to the slot count.
    pub provisioned_by_slot: Vec<TimeSeries>,
    /// CDN pool utilisation (used / provisioned) over time, sampled by
    /// the GSC monitor event.
    pub cdn_utilisation: TimeSeries,
    /// Connected population over time, sampled by the GSC monitor event.
    pub population: TimeSeries,
    /// §VI resync visits dropped because one viewer exceeded
    /// `RESYNC_VISIT_CAP` visits within a single pass. Non-zero wherever
    /// positive-gain cross-stream cycles keep a chain climbing (about
    /// 495 k per `view_storm` benchmark repetition at seed 1); see ROADMAP
    /// item 1.
    pub resync_cap_hits: Counter,
    /// §VI resync visits popped from the propagation queue under the
    /// visit cap (deterministic work counter).
    pub resync_visits: Counter,
    /// Resync visits that recomputed the viewer's layers; the rest were
    /// skipped because nothing the recompute reads had changed since
    /// the viewer was last stamped clean.
    pub resync_recomputes: Counter,
    /// Viewers admitted by the churn runtime (arrival events that issued
    /// a join).
    pub churn_arrivals: Counter,
    /// Churn dwell expiries that departed gracefully.
    pub churn_departures: Counter,
    /// Churn dwell expiries that failed abruptly.
    pub churn_failures: Counter,
    /// Autoscale actions that grew the CDN pool.
    pub autoscale_ups: Counter,
    /// Autoscale actions that shrank the CDN pool.
    pub autoscale_downs: Counter,
    /// Parked CDN-rejected joins retried after a scale-up.
    pub join_retries: Counter,
    /// Cross-shard CDN spill requests emitted (sharded runtime only):
    /// foreground joins the local regional pool could not serve, offered
    /// to a foreign shard's pool at the next epoch barrier.
    pub spill_requests: Counter,
    /// Spill requests a donor shard's pool admitted.
    pub spill_admits: Counter,
    /// Foreign-lease batches returned to their donor shard when a
    /// spill-served viewer departed.
    pub spill_releases: Counter,
    /// Per-slot forecast error of the predictive autoscaler, in Mbps:
    /// each sample is `forecast − realised` reserved demand, recorded
    /// when a forecast's horizon comes due (positive = over-forecast).
    /// Empty on reactive controllers.
    pub forecast_error_by_slot: Vec<TimeSeries>,
    /// Deepest the event heap has ever been — the queue-pressure figure
    /// a capacity plan needs.
    pub peak_event_queue: u64,
    /// Most CDN-rejected joins ever parked for retry at once.
    pub peak_retry_queue: u64,
}

impl Default for SessionMetrics {
    fn default() -> Self {
        Self::new()
    }
}

impl SessionMetrics {
    /// Creates zeroed metrics.
    pub fn new() -> Self {
        SessionMetrics {
            requested_streams: Counter::new("requested_streams"),
            accepted_streams: Counter::new("accepted_streams"),
            admitted_viewers: Counter::new("admitted_viewers"),
            rejected_viewers: Counter::new("rejected_viewers"),
            join_delays_ms: Histogram::new(),
            view_change_delays_ms: Histogram::new(),
            switch_latency_ms: Histogram::new(),
            switch_starved: Counter::new("switch_starved"),
            wasted_subtree_kbps_ms: Counter::new("wasted_subtree_kbps_ms"),
            fragments_merged: Counter::new("fragments_merged"),
            groups_retired: Counter::new("groups_retired"),
            prune_reclaimed_kbps: Counter::new("prune_reclaimed_kbps"),
            subscription_messages: Counter::new("subscription_messages"),
            displacements: Counter::new("displacements"),
            layer_drops: Counter::new("layer_drops"),
            victims: Counter::new("victims"),
            victims_repositioned: Counter::new("victims_repositioned"),
            cdn_usage_mbps: TimeSeries::new(),
            provisioned_cdn_mbps: TimeSeries::new(),
            provisioned_by_slot: Vec::new(),
            cdn_utilisation: TimeSeries::new(),
            population: TimeSeries::new(),
            resync_cap_hits: Counter::new("resync_cap_hits"),
            resync_visits: Counter::new("resync_visits"),
            resync_recomputes: Counter::new("resync_recomputes"),
            churn_arrivals: Counter::new("churn_arrivals"),
            churn_departures: Counter::new("churn_departures"),
            churn_failures: Counter::new("churn_failures"),
            autoscale_ups: Counter::new("autoscale_ups"),
            autoscale_downs: Counter::new("autoscale_downs"),
            join_retries: Counter::new("join_retries"),
            spill_requests: Counter::new("spill_requests"),
            spill_admits: Counter::new("spill_admits"),
            spill_releases: Counter::new("spill_releases"),
            forecast_error_by_slot: Vec::new(),
            peak_event_queue: 0,
            peak_retry_queue: 0,
        }
    }

    /// The acceptance ratio `ρ = N_accepted / N_total` (1 if nothing was
    /// requested).
    pub fn acceptance_ratio(&self) -> f64 {
        let total = self.requested_streams.value();
        if total == 0 {
            1.0
        } else {
            self.accepted_streams.value() as f64 / total as f64
        }
    }

    /// Peak CDN outbound usage observed, in Mbps.
    pub fn peak_cdn_mbps(&self) -> f64 {
        self.cdn_usage_mbps.peak()
    }

    /// Records a CDN usage sample. The series is a step function, so
    /// consecutive identical values collapse into the first sample —
    /// long churn runs would otherwise accumulate one point per protocol
    /// event.
    pub fn sample_cdn_usage(&mut self, at: SimTime, mbps: f64) {
        if self.cdn_usage_mbps.last() == Some(mbps) {
            return;
        }
        self.cdn_usage_mbps.record(at, mbps);
    }

    /// Records a connected-population sample (GSC monitor event).
    pub fn sample_population(&mut self, at: SimTime, viewers: f64) {
        self.population.record(at, viewers);
    }

    /// Records a provisioned-capacity sample. Like the usage series this
    /// is a step function — consecutive identical values collapse into
    /// the first sample.
    pub fn sample_provisioned(&mut self, at: SimTime, mbps: f64) {
        if self.provisioned_cdn_mbps.last() == Some(mbps) {
            return;
        }
        self.provisioned_cdn_mbps.record(at, mbps);
    }

    /// Records a CDN pool utilisation sample (GSC monitor event).
    pub fn sample_cdn_utilisation(&mut self, at: SimTime, fraction: f64) {
        self.cdn_utilisation.record(at, fraction);
    }

    /// Records a per-slot provisioned-capacity sample, growing the slot
    /// list as needed. Step-function semantics like the aggregate:
    /// consecutive identical values collapse into the first sample.
    pub fn sample_provisioned_slot(&mut self, slot: usize, at: SimTime, mbps: f64) {
        if self.provisioned_by_slot.len() <= slot {
            self.provisioned_by_slot
                .resize_with(slot + 1, TimeSeries::new);
        }
        let series = &mut self.provisioned_by_slot[slot];
        if series.last() == Some(mbps) {
            return;
        }
        series.record(at, mbps);
    }

    /// Records a matured forecast's error for one pool slot, growing
    /// the slot list as needed. `error_mbps` is forecast − realised.
    pub fn sample_forecast_error(&mut self, slot: usize, at: SimTime, error_mbps: f64) {
        if self.forecast_error_by_slot.len() <= slot {
            self.forecast_error_by_slot
                .resize_with(slot + 1, TimeSeries::new);
        }
        self.forecast_error_by_slot[slot].record(at, error_mbps);
    }

    /// Mean absolute forecast error across every slot's matured
    /// forecasts, in Mbps; `None` when no forecast has matured (e.g. a
    /// reactive controller).
    pub fn mean_abs_forecast_error_mbps(&self) -> Option<f64> {
        let mut sum = 0.0;
        let mut n = 0usize;
        for series in &self.forecast_error_by_slot {
            for &(_, error) in series.points() {
                sum += error.abs();
                n += 1;
            }
        }
        if n == 0 {
            None
        } else {
            Some(sum / n as f64)
        }
    }

    /// CDF of join delays (milliseconds).
    pub fn join_delay_cdf(&self) -> Cdf {
        self.join_delays_ms.cdf()
    }

    /// CDF of view-change delays (milliseconds).
    pub fn view_change_delay_cdf(&self) -> Cdf {
        self.view_change_delays_ms.cdf()
    }

    /// CDF of switch latencies (milliseconds).
    pub fn switch_latency_cdf(&self) -> Cdf {
        self.switch_latency_ms.cdf()
    }

    /// Wasted subtree bandwidth in Mbps·hours — the figure-friendly
    /// unit of [`SessionMetrics::wasted_subtree_kbps_ms`]
    /// (1 Mbps·hour = 1000 kbps × 3 600 000 ms).
    pub fn wasted_mbps_hours(&self) -> f64 {
        self.wasted_subtree_kbps_ms.value() as f64 / 3.6e9
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn acceptance_ratio_division() {
        let mut m = SessionMetrics::new();
        assert_eq!(m.acceptance_ratio(), 1.0);
        m.requested_streams.add(10);
        m.accepted_streams.add(7);
        assert!((m.acceptance_ratio() - 0.7).abs() < 1e-12);
    }

    #[test]
    fn cdn_peak_tracks_series() {
        let mut m = SessionMetrics::new();
        m.sample_cdn_usage(SimTime::from_secs(1), 100.0);
        m.sample_cdn_usage(SimTime::from_secs(2), 450.0);
        m.sample_cdn_usage(SimTime::from_secs(3), 20.0);
        assert_eq!(m.peak_cdn_mbps(), 450.0);
    }

    #[test]
    fn wasted_bandwidth_unit_conversion() {
        let mut m = SessionMetrics::new();
        // 2000 kbps wasted for 1.8e6 ms = 2 Mbps for half an hour.
        m.wasted_subtree_kbps_ms.add(2_000 * 1_800_000);
        assert!((m.wasted_mbps_hours() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn delay_cdfs_are_exposed() {
        let mut m = SessionMetrics::new();
        m.join_delays_ms.record(250.0);
        m.join_delays_ms.record(750.0);
        let cdf = m.join_delay_cdf();
        assert!((cdf.fraction_at(500.0) - 0.5).abs() < 1e-9);
    }
}
