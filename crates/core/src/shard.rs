//! The sharded session runtime: per-region parallel event loops with a
//! deterministic cross-shard merge.
//!
//! A [`ShardedSession`] splits the global viewer population into one
//! [`TelecastSession`] per [`Region`] (the same five-way split the
//! per-region CDN pools use), runs the shards on a persistent
//! [`WorkerPool`] (threads spawned once for the session's lifetime,
//! epochs dispatched longest-predicted-first from an EWMA cost model),
//! and synchronises them at a **time-epoch barrier**: every shard advances
//! its own event loop to the epoch boundary, cross-shard effects are
//! collected into per-shard outboxes, and the coordinator merges the
//! outboxes in the canonical `(time, shard_id, seq)` order before
//! applying them one by one. Because the shard count is fixed (five —
//! one per region), intra-epoch execution is single-threaded per shard,
//! and the merge order never mentions a thread id, the run is
//! **byte-identical for a given seed regardless of the worker count**:
//! `--threads` only maps shards onto OS threads.
//!
//! Two cross-shard effects exist today:
//!
//! * **CDN spill** — a foreground join the local regional pool rejected
//!   for capacity is offered to the foreign pool with the most headroom
//!   at the next barrier ([`ShardMessage::SpillRequest`]). The donor
//!   serves the view's streams from its own pool and the owner marks the
//!   viewer connected on those foreign leases.
//! * **Foreign release** — when a spill-served viewer departs, its
//!   foreign leases travel back to the donor shard for release
//!   ([`ShardMessage::ReleaseForeign`]).
//!
//! Wall-clock figures (`busy_ns`, `barrier_wait_ns` in [`ShardStats`])
//! are observability only — they never feed back into simulation state,
//! so they do not perturb determinism.

use std::collections::BTreeMap;

use std::sync::Arc;

use telecast_cdn::{
    split_capacity, CapacityBroker, CdnLease, PoolScope, TenantHandle, TenantQuota,
};
use telecast_media::ViewId;
use telecast_net::{NodeId, Region};
use telecast_sim::{
    merge_outboxes_into, EpochSchedule, FxHashSet, Outbox, OutboxEntry, SimDuration, SimTime,
    TimeSeries, WorkerPool,
};

use crate::config::SessionConfig;
use crate::metrics::SessionMetrics;
use crate::session::TelecastSession;

/// Salt mixed into each shard's seed so the five shards draw independent
/// random streams from one scenario seed (odd constant, multiplied by
/// `shard_id + 1` so no two shards share a seed).
const SHARD_SEED_SALT: u64 = 0x9E37_79B9_7F4A_7C15;

/// A cross-shard effect, stamped into the emitting shard's outbox during
/// an epoch and applied by the coordinator at the barrier.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum ShardMessage {
    /// A foreground join the owning shard's regional pool rejected for
    /// capacity, offered to the foreign pool with the most headroom.
    SpillRequest {
        /// The rejected viewer (still parked on its owner shard).
        viewer: NodeId,
        /// The view it asked for.
        view: ViewId,
        /// Worst-case CDN demand of that view, in Kbps.
        demand_kbps: u64,
    },
    /// Leases held on a donor shard's pool by a spill-served viewer that
    /// has since departed; the donor must release them.
    ReleaseForeign {
        /// The shard whose pool holds the leases.
        donor: usize,
        /// The leases to release, in stream order.
        leases: Vec<CdnLease>,
    },
}

/// A viewer's foreign-pool serve: which shard donated and the leases it
/// holds there (owned by the viewer's home shard, released via a
/// [`ShardMessage::ReleaseForeign`] on departure).
#[derive(Debug)]
pub(crate) struct ForeignServe {
    /// Index of the donor shard.
    pub(crate) donor: usize,
    /// The donor-pool leases serving this viewer's view.
    pub(crate) leases: Vec<CdnLease>,
}

/// Sharded-mode context carried by a [`TelecastSession`] that runs as
/// one shard of a [`ShardedSession`].
#[derive(Debug)]
pub(crate) struct ShardState {
    /// The region whose viewers this shard owns.
    pub(crate) region: Region,
    /// Cross-shard effects emitted this epoch, in emission order.
    pub(crate) outbox: Outbox<ShardMessage>,
    /// Foreign serves held by this shard's viewers.
    pub(crate) foreign: BTreeMap<NodeId, ForeignServe>,
    /// Viewers with a spill request in flight (emitted but not yet
    /// answered at a barrier) — guards against duplicate requests.
    pub(crate) spill_pending: FxHashSet<NodeId>,
}

impl ShardState {
    pub(crate) fn new(id: usize, region: Region) -> Self {
        ShardState {
            region,
            outbox: Outbox::new(id),
            foreign: BTreeMap::new(),
            spill_pending: FxHashSet::default(),
        }
    }
}

/// Per-shard observability exported next to the merged metrics.
///
/// `events_processed`, `cross_shard_messages`, `viewers`, and
/// `peak_event_queue` are deterministic per seed; `busy_ns` and
/// `barrier_wait_ns` are wall-clock and vary run to run — keep them out
/// of any byte-compared artifact.
#[derive(Debug, Clone)]
pub struct ShardStats {
    /// The region this shard owns.
    pub region: Region,
    /// Viewers provisioned on this shard.
    pub viewers: usize,
    /// Events this shard's engine has fired.
    pub events_processed: u64,
    /// Cross-shard messages this shard emitted.
    pub cross_shard_messages: u64,
    /// Wall-clock nanoseconds this shard spent executing epochs.
    pub busy_ns: u64,
    /// Wall-clock nanoseconds this shard idled at barriers waiting for
    /// the slowest shard of each epoch.
    pub barrier_wait_ns: u64,
    /// Deepest this shard's event heap has ever been.
    pub peak_event_queue: u64,
}

impl ShardStats {
    /// Fraction of the runtime's epoch wall-clock this shard spent
    /// executing rather than idling at barriers:
    /// `busy / (busy + barrier wait)`. Wall-clock observability only —
    /// varies run to run. `0.0` before the first epoch.
    pub fn utilization(&self) -> f64 {
        let wall = self.busy_ns + self.barrier_wait_ns;
        if wall == 0 {
            0.0
        } else {
            self.busy_ns as f64 / wall as f64
        }
    }
}

/// The sharded session runtime: five per-region [`TelecastSession`]
/// event loops advancing in lock-step time epochs on a worker pool, with
/// cross-shard effects merged deterministically at each barrier.
///
/// ```
/// use telecast::{SessionConfig, ShardedSession};
/// use telecast_sim::{SimDuration, SimTime};
///
/// let mut session = ShardedSession::new(
///     SessionConfig::default(),
///     500,
///     2,
///     SimDuration::from_secs(10),
/// );
/// session.start_churn(0.05, SimTime::from_secs(60));
/// session.run_until(SimTime::from_secs(60));
/// assert!(session.merged_metrics().churn_arrivals.value() > 0);
/// ```
pub struct ShardedSession {
    shards: Vec<TelecastSession>,
    /// Persistent worker pool: threads are spawned once here and reused
    /// by every epoch. Jobs are dispatched longest-predicted-first (an
    /// EWMA of each shard's measured busy time), which shortens the
    /// barrier without touching the output — results land by shard
    /// index, never by worker identity.
    pool: WorkerPool<TelecastSession, SimTime>,
    epoch: SimDuration,
    threads: usize,
    now: SimTime,
    stats: Vec<ShardStats>,
    spill_denied: u64,
    /// Reused per-shard outbox drain buffers ([`Outbox::take_into`]
    /// swaps allocations, so steady-state epochs drain without
    /// allocating).
    drain_bufs: Vec<Vec<OutboxEntry<ShardMessage>>>,
    /// Reused k-way merge output buffer.
    merge_buf: Vec<OutboxEntry<ShardMessage>>,
}

impl ShardedSession {
    /// Builds one shard per region from `config`: the global viewer
    /// population and the CDN pool are split by the region weights
    /// (remainders land on the first region, mirroring
    /// [`split_capacity`]), the autoscale policy — when present — is
    /// split the same way, and each shard's seed is forked from the
    /// scenario seed so the shards draw independent random streams.
    ///
    /// `threads` maps shards onto OS threads and **cannot change the
    /// output**; `epoch` is the barrier period (shorter epochs tighten
    /// cross-shard latency, longer ones amortise the barrier).
    ///
    /// # Panics
    ///
    /// Panics if `config` is invalid, `viewers` is zero, `threads` is
    /// zero, or `epoch` is zero.
    pub fn new(config: SessionConfig, viewers: usize, threads: usize, epoch: SimDuration) -> Self {
        assert!(viewers > 0, "sharded session needs viewers");
        assert!(threads > 0, "sharded session needs at least one thread");
        assert!(!epoch.is_zero(), "epoch must be positive");

        // Integer split by weight percent, remainder to the first region
        // — the same arithmetic `split_capacity` uses, so a shard's
        // population and its pool share stay proportional.
        let mut counts: Vec<usize> = Region::ALL
            .iter()
            .map(|r| viewers * r.weight_percent() as usize / 100)
            .collect();
        let assigned: usize = counts.iter().sum();
        counts[0] += viewers - assigned;

        let pool_split = split_capacity(config.cdn.outbound_capacity, PoolScope::PerRegion);
        let policy_split = config
            .autoscale
            .as_ref()
            .map(|p| p.split(PoolScope::PerRegion));

        // One broker owns every regional pool; each shard gets a
        // single-slot window onto its own region's slot. The broker's
        // per-region split is the same weight arithmetic as
        // `pool_split`, so every shard sees exactly the pool it owned
        // when it carried a private global-scope `Cdn`.
        let broker = CapacityBroker::shared(config.cdn.with_pool_scope(PoolScope::PerRegion));
        let tenant = broker
            .lock()
            .expect("fresh broker lock")
            .register(TenantQuota::FULL);

        let mut shards = Vec::with_capacity(Region::ALL.len());
        let mut stats = Vec::with_capacity(Region::ALL.len());
        for (id, &region) in Region::ALL.iter().enumerate() {
            let mut cfg = config.clone();
            cfg.cdn = cfg
                .cdn
                .with_outbound(pool_split[id])
                .with_pool_scope(PoolScope::Global);
            cfg.autoscale = policy_split.as_ref().map(|p| p[id]);
            cfg.seed = config.seed ^ SHARD_SEED_SALT.wrapping_mul(id as u64 + 1);
            let handle = TenantHandle::window(Arc::clone(&broker), tenant, id);
            let mut shard = TelecastSession::builder(cfg)
                .viewers_in(counts[id], region)
                .with_cdn_handle(handle)
                .build();
            shard.enable_sharding(id, region);
            shards.push(shard);
            stats.push(ShardStats {
                region,
                viewers: counts[id],
                events_processed: 0,
                cross_shard_messages: 0,
                busy_ns: 0,
                barrier_wait_ns: 0,
                peak_event_queue: 0,
            });
        }
        let shard_count = shards.len();
        let pool = WorkerPool::new(
            shard_count,
            threads,
            |_, shard: &mut TelecastSession, end| {
                shard.run_until(*end);
            },
        );
        ShardedSession {
            shards,
            pool,
            epoch,
            threads,
            now: SimTime::ZERO,
            stats,
            spill_denied: 0,
            drain_bufs: (0..shard_count).map(|_| Vec::new()).collect(),
            merge_buf: Vec::new(),
        }
    }

    /// Starts a steady-state churn runtime on every shard: each shard
    /// churns its own population at `churn_per_minute` (so the global
    /// process is the sum of five independent regional processes) and
    /// prefills to its full population.
    ///
    /// # Panics
    ///
    /// Panics if `churn_per_minute` is outside `(0, 1]` or a churn
    /// runtime is already installed on a shard.
    pub fn start_churn(&mut self, churn_per_minute: f64, horizon: SimTime) {
        for (id, shard) in self.shards.iter_mut().enumerate() {
            let population = self.stats[id].viewers;
            if population == 0 {
                continue;
            }
            let spec = telecast_media::ChurnSpec::steady_state(population, churn_per_minute);
            shard.start_churn(spec, horizon, population);
        }
    }

    /// Runs every shard to `deadline` in bounded time epochs: each epoch
    /// advances all shards to the boundary in parallel, then drains and
    /// merges their outboxes in `(time, shard_id, seq)` order and
    /// applies the cross-shard effects sequentially.
    pub fn run_until(&mut self, deadline: SimTime) {
        let boundaries: Vec<SimTime> = EpochSchedule::new(self.now, deadline, self.epoch).collect();
        for epoch_end in boundaries {
            self.run_epoch(epoch_end);
        }
        if deadline > self.now {
            self.now = deadline;
        }
    }

    fn run_epoch(&mut self, epoch_end: SimTime) {
        self.pool.run_epoch(&mut self.shards, epoch_end);
        let busy = self.pool.last_busy_ns();
        let slowest = busy.iter().copied().max().unwrap_or(0);
        for (id, &busy_ns) in busy.iter().enumerate() {
            self.stats[id].busy_ns += busy_ns;
            self.stats[id].barrier_wait_ns += slowest - busy_ns;
        }
        self.now = epoch_end;

        for (shard, buf) in self.shards.iter_mut().zip(self.drain_bufs.iter_mut()) {
            shard.shard_take_outbox_into(buf);
        }
        let mut merged = std::mem::take(&mut self.merge_buf);
        merge_outboxes_into(&mut self.drain_bufs, &mut merged);
        for entry in merged.drain(..) {
            self.stats[entry.from].cross_shard_messages += 1;
            self.apply(entry);
        }
        self.merge_buf = merged;
        for (id, shard) in self.shards.iter().enumerate() {
            self.stats[id].events_processed = shard.events_processed();
            self.stats[id].peak_event_queue = shard.metrics().peak_event_queue;
        }
    }

    /// Applies one merged cross-shard effect.
    fn apply(&mut self, entry: OutboxEntry<ShardMessage>) {
        match entry.msg {
            ShardMessage::SpillRequest {
                viewer,
                view,
                demand_kbps,
            } => {
                let from = entry.from;
                // Donor: the foreign pool with the most headroom that
                // can take the whole view; ties break on the lower
                // shard index to stay deterministic.
                let donor = (0..self.shards.len())
                    .filter(|&j| j != from)
                    .map(|j| (self.shards[j].shard_headroom_kbps(), j))
                    .filter(|&(headroom, _)| headroom >= demand_kbps)
                    .max_by_key(|&(headroom, j)| (headroom, std::cmp::Reverse(j)))
                    .map(|(_, j)| j);
                let Some(donor) = donor else {
                    self.spill_denied += 1;
                    self.shards[from].shard_spill_denied(viewer);
                    return;
                };
                let Some(leases) = self.shards[donor].shard_grant_view(view) else {
                    // Headroom was there but the grant still failed
                    // (e.g. per-stream packing); treat as denied.
                    self.spill_denied += 1;
                    self.shards[from].shard_spill_denied(viewer);
                    return;
                };
                if let Err(leases) =
                    self.shards[from].shard_apply_spill_grant(viewer, view, donor, leases)
                {
                    // The viewer moved on since the request (dwell
                    // expiry, re-join); hand the leases straight back.
                    self.shards[donor].shard_release_leases(leases);
                }
            }
            ShardMessage::ReleaseForeign { donor, leases } => {
                self.shards[donor].shard_release_leases(leases);
            }
        }
    }

    /// Merges the per-shard metrics into one global [`SessionMetrics`]:
    /// counters and histograms sum/concatenate in shard order, and the
    /// population / CDN-usage / provisioned step series are summed
    /// point-wise ([`telecast_sim::merge_step_sum`]).
    /// `provisioned_by_slot` carries one series per shard (its aggregate
    /// pool), and the utilisation series is left empty — a global
    /// used/provisioned ratio is not recoverable from per-shard samples
    /// taken at different instants.
    pub fn merged_metrics(&self) -> SessionMetrics {
        let mut merged = SessionMetrics::new();
        for shard in &self.shards {
            let m = shard.metrics();
            merged.requested_streams.add(m.requested_streams.value());
            merged.accepted_streams.add(m.accepted_streams.value());
            merged.admitted_viewers.add(m.admitted_viewers.value());
            merged.rejected_viewers.add(m.rejected_viewers.value());
            merged
                .subscription_messages
                .add(m.subscription_messages.value());
            merged.displacements.add(m.displacements.value());
            merged.layer_drops.add(m.layer_drops.value());
            merged.victims.add(m.victims.value());
            merged
                .victims_repositioned
                .add(m.victims_repositioned.value());
            merged.resync_cap_hits.add(m.resync_cap_hits.value());
            merged.resync_visits.add(m.resync_visits.value());
            merged.resync_recomputes.add(m.resync_recomputes.value());
            merged.switch_starved.add(m.switch_starved.value());
            merged
                .wasted_subtree_kbps_ms
                .add(m.wasted_subtree_kbps_ms.value());
            merged.fragments_merged.add(m.fragments_merged.value());
            merged.groups_retired.add(m.groups_retired.value());
            merged
                .prune_reclaimed_kbps
                .add(m.prune_reclaimed_kbps.value());
            merged.churn_arrivals.add(m.churn_arrivals.value());
            merged.churn_departures.add(m.churn_departures.value());
            merged.churn_failures.add(m.churn_failures.value());
            merged.autoscale_ups.add(m.autoscale_ups.value());
            merged.autoscale_downs.add(m.autoscale_downs.value());
            merged.join_retries.add(m.join_retries.value());
            merged.spill_requests.add(m.spill_requests.value());
            merged.spill_admits.add(m.spill_admits.value());
            merged.spill_releases.add(m.spill_releases.value());
            for &v in m.join_delays_ms.sorted_samples() {
                merged.join_delays_ms.record(v);
            }
            for &v in m.view_change_delays_ms.sorted_samples() {
                merged.view_change_delays_ms.record(v);
            }
            for &v in m.switch_latency_ms.sorted_samples() {
                merged.switch_latency_ms.record(v);
            }
            merged.peak_event_queue = merged.peak_event_queue.max(m.peak_event_queue);
            merged.peak_retry_queue = merged.peak_retry_queue.max(m.peak_retry_queue);
        }
        let series = |f: fn(&SessionMetrics) -> &TimeSeries| -> TimeSeries {
            let parts: Vec<&TimeSeries> = self.shards.iter().map(|s| f(s.metrics())).collect();
            telecast_sim::merge_step_sum(&parts)
        };
        merged.population = series(|m| &m.population);
        merged.cdn_usage_mbps = series(|m| &m.cdn_usage_mbps);
        merged.provisioned_cdn_mbps = series(|m| &m.provisioned_cdn_mbps);
        merged.provisioned_by_slot = self
            .shards
            .iter()
            .map(|s| s.metrics().provisioned_cdn_mbps.clone())
            .collect();
        merged
    }

    /// Current virtual time (every shard's clock equals this at a
    /// barrier).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The barrier period.
    pub fn epoch(&self) -> SimDuration {
        self.epoch
    }

    /// Worker threads the shards are mapped onto.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The per-region shard sessions, in [`Region::ALL`] order.
    pub fn shards(&self) -> &[TelecastSession] {
        &self.shards
    }

    /// Per-shard observability, in [`Region::ALL`] order.
    pub fn stats(&self) -> &[ShardStats] {
        &self.stats
    }

    /// Spill requests no foreign pool could take.
    pub fn spill_denied(&self) -> u64 {
        self.spill_denied
    }

    /// Connected viewers across every shard.
    pub fn connected_viewers(&self) -> usize {
        self.shards.iter().map(|s| s.connected_viewers()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SessionConfig;
    use telecast_cdn::CdnConfig;

    fn small_config(seed: u64) -> SessionConfig {
        SessionConfig {
            cdn: CdnConfig::default().with_outbound(telecast_net::Bandwidth::from_mbps(2_000)),
            monitor_period: Some(SimDuration::from_secs(10)),
            seed,
            ..SessionConfig::default()
        }
    }

    fn run_small(seed: u64, threads: usize) -> (SessionMetrics, Vec<ShardStats>) {
        let mut s =
            ShardedSession::new(small_config(seed), 400, threads, SimDuration::from_secs(10));
        let horizon = SimTime::from_secs(120);
        s.start_churn(0.1, horizon);
        s.run_until(horizon);
        (s.merged_metrics(), s.stats().to_vec())
    }

    #[test]
    fn population_split_mirrors_region_weights() {
        let s = ShardedSession::new(small_config(1), 1000, 1, SimDuration::from_secs(1));
        let counts: Vec<usize> = s.stats().iter().map(|st| st.viewers).collect();
        assert_eq!(counts, vec![400, 300, 170, 80, 50]);
        assert_eq!(counts.iter().sum::<usize>(), 1000);
    }

    #[test]
    fn remainder_viewers_land_on_first_region() {
        let s = ShardedSession::new(small_config(1), 7, 1, SimDuration::from_secs(1));
        let counts: Vec<usize> = s.stats().iter().map(|st| st.viewers).collect();
        assert_eq!(counts.iter().sum::<usize>(), 7);
        // 7×40/100=2, 7×30/100=2, 7×17/100=1, 0, 0 → remainder 2 to NA.
        assert_eq!(counts, vec![4, 2, 1, 0, 0]);
    }

    #[test]
    fn thread_count_never_changes_the_outcome() {
        let (one, _) = run_small(42, 1);
        for threads in [2, 4, 8] {
            let (many, _) = run_small(42, threads);
            assert_eq!(
                one.churn_arrivals.value(),
                many.churn_arrivals.value(),
                "arrivals diverged at {threads} threads"
            );
            assert_eq!(one.population.points(), many.population.points());
            assert_eq!(one.cdn_usage_mbps.points(), many.cdn_usage_mbps.points());
            assert_eq!(
                one.requested_streams.value(),
                many.requested_streams.value()
            );
        }
    }

    #[test]
    fn shards_make_progress_and_report_events() {
        let (metrics, stats) = run_small(7, 2);
        assert!(metrics.churn_arrivals.value() > 0);
        for st in &stats {
            if st.viewers > 0 {
                assert!(st.events_processed > 0, "{:?} shard idle", st.region);
            }
        }
    }

    #[test]
    fn spill_serves_capacity_rejected_viewers_from_foreign_pools() {
        // Starve one region: a pool too small for even one view forces
        // NA joins to spill into the other regions' (idle) pools.
        let mut config = small_config(3);
        config.cdn = CdnConfig::default().with_outbound(telecast_net::Bandwidth::from_mbps(120));
        let mut s = ShardedSession::new(config, 300, 2, SimDuration::from_secs(5));
        let horizon = SimTime::from_secs(180);
        s.start_churn(0.05, horizon);
        s.run_until(horizon);
        let m = s.merged_metrics();
        assert!(
            m.spill_requests.value() > 0,
            "starved pools should emit spills"
        );
        assert!(
            m.spill_admits.value() + s.spill_denied() > 0,
            "spills must be answered"
        );
        assert!(m.spill_admits.value() <= m.spill_requests.value());
    }

    #[test]
    fn merged_metrics_sum_view_change_and_prune_metrics() {
        let config = small_config(5).with_prune_floor(8);
        let mut s = ShardedSession::new(config, 300, 2, SimDuration::from_secs(10));
        let views = s.shards[0].catalog().len() as u32;
        for shard in &mut s.shards {
            for (i, v) in shard.viewer_ids().to_vec().into_iter().enumerate() {
                shard
                    .request_join(v, ViewId::new(i as u32 % views))
                    .expect("idle viewer joins");
            }
        }
        s.run_until(SimTime::from_secs(30));
        // Everyone re-focuses on view 0: the other views drain and prune.
        for shard in &mut s.shards {
            for v in shard.viewer_ids().to_vec() {
                let _ = shard.request_view_change(v, ViewId::new(0));
            }
        }
        s.run_until(SimTime::from_secs(90));
        let merged = s.merged_metrics();
        type Metric = fn(&SessionMetrics) -> u64;
        let sum = |f: Metric| -> u64 { s.shards().iter().map(|sh| f(sh.metrics())).sum() };
        let counters: [(&str, Metric); 8] = [
            ("switch_starved", |m| m.switch_starved.value()),
            ("wasted_subtree_kbps_ms", |m| {
                m.wasted_subtree_kbps_ms.value()
            }),
            ("fragments_merged", |m| m.fragments_merged.value()),
            ("groups_retired", |m| m.groups_retired.value()),
            ("prune_reclaimed_kbps", |m| m.prune_reclaimed_kbps.value()),
            ("resync_visits", |m| m.resync_visits.value()),
            ("resync_recomputes", |m| m.resync_recomputes.value()),
            ("switch_latency_samples", |m| {
                m.switch_latency_ms.samples().len() as u64
            }),
        ];
        for (name, f) in counters {
            assert_eq!(f(&merged), sum(f), "{name} is not the sum over shards");
        }
        // Every metric but the starved count (the pool is ample) moved.
        for (name, f) in counters.into_iter().skip(1) {
            assert!(f(&merged) > 0, "{name} stayed 0: the run proves nothing");
        }
        let mut samples: Vec<f64> = s
            .shards()
            .iter()
            .flat_map(|sh| sh.metrics().switch_latency_ms.samples().to_vec())
            .collect();
        samples.sort_by(f64::total_cmp);
        assert_eq!(merged.switch_latency_ms.sorted_samples(), &samples[..]);
    }

    #[test]
    fn merged_metrics_sum_shard_counters() {
        let mut s = ShardedSession::new(small_config(9), 400, 2, SimDuration::from_secs(10));
        let horizon = SimTime::from_secs(60);
        s.start_churn(0.1, horizon);
        s.run_until(horizon);
        let merged = s.merged_metrics();
        let arrivals: u64 = s
            .shards()
            .iter()
            .map(|sh| sh.metrics().churn_arrivals.value())
            .sum();
        assert_eq!(merged.churn_arrivals.value(), arrivals);
        let peak: u64 = s
            .shards()
            .iter()
            .map(|sh| sh.metrics().peak_event_queue)
            .max()
            .unwrap_or(0);
        assert_eq!(merged.peak_event_queue, peak);
    }
}
