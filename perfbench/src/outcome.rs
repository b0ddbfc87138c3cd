//! What one run produces: the deterministic simulated outcome, read
//! from the sessions' public counters, and the output checks every run
//! must pass.

use telecast::TelecastSession;
use telecast_cdn::{CapacityBroker, TenantId};
use telecast_sim::{SimTime, TimeSeries};

use crate::trace::Counters;

/// Everything a run reports that is a pure function of the seed. Two
/// runs of one seed must compare equal.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SimOutcome {
    /// Operations issued: join, view-change and departure requests, and
    /// churn arrivals, departures and failures.
    pub attempted: u64,
    /// Operations whose call returned `Err`.
    pub failed: u64,
    /// Admissions refused for good: answered, and counted by ρ, but
    /// reported on their own too (see [`refused`]).
    pub refused: u64,
    /// Scripted view changes and departures not issued because their
    /// viewer was not connected at that instant.
    pub skipped: u64,
    /// Streams requested by joins.
    pub requested_streams: u64,
    /// Streams accepted.
    pub accepted_streams: u64,
    /// Join delays of completed joins, ascending, in simulated ms.
    pub join_delays_ms: Vec<f64>,
    /// Leave-old-tree → first-frame latencies, ascending, in simulated ms.
    pub switch_latency_ms: Vec<f64>,
    /// Old-subtree bandwidth wasted during switches, Mbps·h.
    pub wasted_mbps_hours: f64,
    /// CDN egress served up to the horizon, Mbps·h.
    pub cdn_used_mbps_hours: f64,
    /// CDN capacity provisioned up to the horizon, Mbps·h.
    pub cdn_provisioned_mbps_hours: f64,
    /// Sum of every connected viewer's playback-delay layer.
    pub layer_sum: u64,
    /// Viewers in the layer snapshot.
    pub layer_samples: u64,
    /// Connected viewers at the end.
    pub final_population: u64,
    /// Engine events fired.
    pub events: u64,
    /// Subscription messages sent by the §VI resync.
    pub subscription_messages: u64,
    /// Resync passes stopped by the visit cap.
    pub resync_cap_hits: u64,
    /// Tree displacements.
    pub displacements: u64,
    /// Victims cut off by departures and failures.
    pub victims: u64,
    /// Victims re-placed in the trees.
    pub victims_repositioned: u64,
    /// Subscriptions that dropped a delay layer.
    pub layer_drops: u64,
    /// Attach-planner level probes.
    pub attach_probes: u64,
    /// Per-node depth updates from subtree moves.
    pub depth_shifts: u64,
    /// Sum over sessions of the mean tree depth.
    pub tree_depth_sum: f64,
    /// Sessions with at least one non-empty tree.
    pub tree_depth_sessions: u64,
    /// CDN fragments folded under P2P parents by the prune pass.
    pub fragments_merged: u64,
    /// Drained view groups retired.
    pub groups_retired: u64,
    /// Parked joins retried.
    pub join_retries: u64,
    /// Deepest retry queue.
    pub peak_retry_queue: u64,
    /// Autoscale actions that grew a pool.
    pub autoscale_ups: u64,
    /// Autoscale actions that shrank a pool.
    pub autoscale_downs: u64,
    /// Cross-shard spill requests.
    pub spill_requests: u64,
    /// Spill requests a foreign pool admitted.
    pub spill_admits: u64,
    /// Switches whose CDN fast path got no temporary lease.
    pub switch_starved: u64,
    /// Deepest event heap of any session.
    pub peak_event_queue: u64,
    /// Cross-shard messages merged at barriers.
    pub cross_shard_messages: u64,
    /// Barrier epochs stepped (shards or fleet).
    pub epochs: u64,
}

impl SimOutcome {
    /// Adds one session's counters. CDN usage and provisioning are left
    /// to the caller, which knows how the sessions share the pools.
    pub fn add_session(&mut self, session: &TelecastSession) {
        let m = session.metrics();
        self.requested_streams += m.requested_streams.value();
        self.accepted_streams += m.accepted_streams.value();
        self.join_delays_ms
            .extend_from_slice(m.join_delays_ms.sorted_samples());
        self.switch_latency_ms
            .extend_from_slice(m.switch_latency_ms.sorted_samples());
        self.wasted_mbps_hours += m.wasted_mbps_hours();
        for layer in session.layer_snapshot() {
            self.layer_sum += layer;
            self.layer_samples += 1;
        }
        self.final_population += session.connected_viewers() as u64;
        self.events += session.events_processed();
        self.subscription_messages += m.subscription_messages.value();
        self.resync_cap_hits += m.resync_cap_hits.value();
        self.displacements += m.displacements.value();
        self.victims += m.victims.value();
        self.victims_repositioned += m.victims_repositioned.value();
        self.layer_drops += m.layer_drops.value();
        self.attach_probes += session.attach_probe_total();
        self.depth_shifts += session.depth_shift_total();
        let depth = session.mean_tree_depth();
        if depth > 0.0 {
            self.tree_depth_sum += depth;
            self.tree_depth_sessions += 1;
        }
        self.fragments_merged += m.fragments_merged.value();
        self.groups_retired += m.groups_retired.value();
        self.join_retries += m.join_retries.value();
        self.peak_retry_queue = self.peak_retry_queue.max(m.peak_retry_queue);
        self.autoscale_ups += m.autoscale_ups.value();
        self.autoscale_downs += m.autoscale_downs.value();
        self.spill_requests += m.spill_requests.value();
        self.spill_admits += m.spill_admits.value();
        self.switch_starved += m.switch_starved.value();
        self.peak_event_queue = self.peak_event_queue.max(m.peak_event_queue);
        self.refused += refused(session);
    }

    /// Adds the churn runtime's operations: every arrival, graceful
    /// departure and failure is one attempt. The runtime issues them
    /// itself, so none returns `Err`.
    pub fn add_churn_operations(&mut self, session: &TelecastSession) {
        let m = session.metrics();
        self.attempted +=
            m.churn_arrivals.value() + m.churn_departures.value() + m.churn_failures.value();
    }

    /// Sorts the concatenated per-session samples.
    pub fn finish(&mut self) {
        let by_value = |a: &f64, b: &f64| a.partial_cmp(b).expect("no NaN samples");
        self.join_delays_ms.sort_by(by_value);
        self.switch_latency_ms.sort_by(by_value);
    }

    /// Paper ρ: accepted over requested streams.
    pub fn acceptance_ratio(&self) -> f64 {
        if self.requested_streams == 0 {
            1.0
        } else {
            self.accepted_streams as f64 / self.requested_streams as f64
        }
    }

    /// Mean playback-delay layer of the connected viewers.
    pub fn mean_delay_layer(&self) -> f64 {
        self.layer_sum as f64 / self.layer_samples.max(1) as f64
    }

    /// Mean over sessions of the mean tree depth.
    pub fn mean_tree_depth(&self) -> f64 {
        self.tree_depth_sum / self.tree_depth_sessions.max(1) as f64
    }
}

/// Admissions refused for good: every rejection, less those a later
/// retry or a foreign pool's spill grant took over (a retried join is
/// counted again by its own outcome).
pub fn refused(session: &TelecastSession) -> u64 {
    let m = session.metrics();
    m.rejected_viewers.value() - m.join_retries.value() - m.spill_admits.value()
}

/// Nearest-rank percentile of ascending samples (the rule the library's
/// `Histogram` uses), or 0 with no samples.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.saturating_sub(1).min(sorted.len() - 1)]
}

/// Integral of a step series in value·hours from its first point up to
/// `horizon`.
pub fn step_integral_hours(series: &TimeSeries, horizon: SimTime) -> f64 {
    let points = series.points();
    let mut total = 0.0;
    for (i, &(at, value)) in points.iter().enumerate() {
        if at >= horizon {
            break;
        }
        let until = points
            .get(i + 1)
            .map_or(horizon, |&(next, _)| next.min(horizon));
        total += value * (until - at).as_secs_f64() / 3_600.0;
    }
    total
}

/// The public counters a span records, summed over `sessions`.
pub fn counters<'a>(sessions: impl IntoIterator<Item = &'a TelecastSession>) -> Counters {
    sessions
        .into_iter()
        .map(|s| {
            let m = s.metrics();
            Counters {
                events: s.events_processed(),
                subscription_messages: m.subscription_messages.value(),
                resync_cap_hits: m.resync_cap_hits.value(),
                accepted_streams: m.accepted_streams.value(),
                displacements: m.displacements.value(),
                victims: m.victims.value(),
                join_retries: m.join_retries.value(),
            }
        })
        .fold(Counters::default(), Counters::plus)
}

/// Checks the broker's books: every pool slot has `used ≤ total`, and
/// the tenants' ledgers sum to each slot's usage.
///
/// # Errors
///
/// Names the first slot whose books do not balance.
pub fn check_broker(broker: &CapacityBroker, tenants: &[TenantId]) -> Result<(), String> {
    let cdn = broker.cdn();
    for slot in 0..cdn.pool_slots() {
        let pool = cdn.pool(slot);
        if pool.used() > pool.total() {
            return Err(format!(
                "pool slot {slot} uses {} of {}",
                pool.used(),
                pool.total()
            ));
        }
        let ledgers: u64 = tenants.iter().map(|&t| broker.used_kbps(t, slot)).sum();
        if ledgers != pool.used().as_kbps() {
            return Err(format!(
                "tenant ledgers hold {ledgers} kbps in slot {slot}, the pool {} kbps",
                pool.used().as_kbps()
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_matches_the_histogram_rule() {
        let mut h = telecast_sim::Histogram::new();
        let samples: Vec<f64> = (1..=250).map(f64::from).collect();
        for &s in &samples {
            h.record(s);
        }
        for p in [1.0, 50.0, 99.0, 100.0] {
            assert_eq!(Some(percentile(&samples, p)), h.percentile(p));
        }
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn step_integral_stops_at_the_horizon() {
        let mut s = TimeSeries::new();
        s.record(SimTime::from_secs(0), 10.0);
        s.record(SimTime::from_secs(1_800), 20.0);
        s.record(SimTime::from_secs(7_200), 99.0);
        let h = step_integral_hours(&s, SimTime::from_secs(3_600));
        assert!((h - 15.0).abs() < 1e-12, "{h}");
    }
}
