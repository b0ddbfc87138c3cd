//! System adaptation (§VI) across crates: view changes, departures,
//! abrupt failures, victim recovery, and resource accounting integrity
//! under churn.

use telecast::{SessionConfig, TelecastSession, ViewerStatus};
use telecast_cdn::CdnConfig;
use telecast_media::{ArrivalModel, ViewChoice, ViewId, ViewerWorkload};
use telecast_net::{Bandwidth, BandwidthProfile};
use telecast_overlay::TreeParent;
use telecast_sim::{SimDuration, SimRng};

fn config(seed: u64) -> SessionConfig {
    SessionConfig::default()
        .with_seed(seed)
        .with_outbound(BandwidthProfile::uniform_mbps(2, 12))
}

/// No connected viewer may be fed by a non-connected parent, and every
/// CDN-parented stream except temporary serves must hold a lease.
fn assert_upstreams_live(session: &TelecastSession) {
    for &v in session.viewer_ids() {
        let state = session.viewer(v).unwrap();
        if state.status != ViewerStatus::Connected {
            continue;
        }
        for (sid, sub) in &state.subs {
            match sub.parent {
                TreeParent::Cdn => {
                    assert!(
                        sub.lease.is_some(),
                        "viewer {v} stream {sid}: CDN parent without lease"
                    );
                }
                TreeParent::Viewer(p) => {
                    let parent = session.viewer(p).unwrap();
                    assert_eq!(
                        parent.status,
                        ViewerStatus::Connected,
                        "viewer {v} stream {sid} fed by dead parent {p}"
                    );
                }
            }
        }
    }
}

#[test]
fn view_change_storm_keeps_upstreams_live() {
    let mut session = TelecastSession::builder(config(1)).viewers(150).build();
    let mut rng = SimRng::seed_from_u64(2);
    let workload = ViewerWorkload::builder(150, 8)
        .arrivals(ArrivalModel::Staggered {
            gap: SimDuration::from_millis(20),
        })
        .view_choice(ViewChoice::Zipf { s: 1.0 })
        .view_changes(3.0, SimDuration::from_secs(40))
        .build(&mut rng);
    session.run_workload(&workload);
    assert_upstreams_live(&session);
    assert!(session.metrics().view_change_delays_ms.len() > 200);
}

#[test]
fn mass_departure_releases_all_resources() {
    let mut session = TelecastSession::builder(config(3)).viewers(100).build();
    let ids = session.viewer_ids().to_vec();
    for &v in &ids {
        session.request_join(v, ViewId::new(0)).expect("valid");
    }
    session.run_to_idle();
    let used_before = session.cdn().outbound().used();
    assert!(!used_before.is_zero());
    for &v in &ids {
        let _ = session.request_depart(v);
    }
    session.run_to_idle();
    // Everyone left: no CDN bandwidth may remain reserved.
    assert_eq!(
        session.cdn().outbound().used(),
        Bandwidth::ZERO,
        "CDN leases leaked after full departure"
    );
    assert_eq!(session.cdn().active_leases(), 0);
    for &v in &ids {
        let state = session.viewer(v).unwrap();
        assert_eq!(state.status, ViewerStatus::Idle);
        assert_eq!(state.stream_count(), 0);
        assert_eq!(state.ports.inbound.used(), Bandwidth::ZERO);
        assert_eq!(state.ports.outbound.used(), Bandwidth::ZERO);
    }
}

#[test]
fn cascading_failures_never_wedge_the_session() {
    let mut session = TelecastSession::builder(config(4)).viewers(80).build();
    let ids = session.viewer_ids().to_vec();
    for &v in &ids {
        session.request_join(v, ViewId::new(0)).expect("valid");
    }
    session.run_to_idle();
    // Fail every third viewer abruptly, including tree roots.
    for &v in ids.iter().step_by(3) {
        let _ = session.fail_viewer(v);
    }
    session.run_to_idle();
    assert_upstreams_live(&session);
    // Survivors still cover their mandatory sites or were degraded
    // gracefully; nobody points at a failed node.
    let connected = ids
        .iter()
        .filter(|&&v| session.viewer(v).unwrap().status == ViewerStatus::Connected)
        .count();
    assert!(connected >= ids.len() / 2);
}

#[test]
fn victims_survive_at_their_layer_when_cdn_has_room() {
    let mut session = TelecastSession::builder(config(5)).viewers(40).build();
    let ids = session.viewer_ids().to_vec();
    for &v in &ids {
        session.request_join(v, ViewId::new(0)).expect("valid");
    }
    session.run_to_idle();
    // Snapshot layers, then fail the strongest forwarders (CDN children).
    let layers_before: std::collections::BTreeMap<_, _> = ids
        .iter()
        .map(|&v| (v, session.viewer(v).unwrap().max_layer()))
        .collect();
    // Fail the five earliest (strongest, nearest the root) viewers.
    for &v in ids.iter().take(5) {
        let _ = session.fail_viewer(v);
    }
    session.run_to_idle();
    assert!(session.metrics().victims.value() > 0);
    for &v in ids.iter().skip(5) {
        let state = session.viewer(v).unwrap();
        if state.status != ViewerStatus::Connected {
            continue;
        }
        if let (Some(before), Some(after)) = (layers_before[&v], state.max_layer()) {
            // Recovery may improve (reposition) or keep the layer, and
            // push-down may deepen it — but never beyond the admissible
            // maximum.
            assert!(after <= session.scheme().max_layer());
            let _ = before;
        }
    }
    assert_upstreams_live(&session);
}

#[test]
fn rejected_viewers_can_retry_after_capacity_frees() {
    // Tiny CDN, no P2P: only 2 viewers fit (2 × 6 × 2 Mbps = 24 Mbps).
    let tight = SessionConfig::default()
        .with_seed(6)
        .with_outbound(BandwidthProfile::fixed_mbps(0))
        .with_cdn(CdnConfig::default().with_outbound(Bandwidth::from_mbps(24)));
    let mut session = TelecastSession::builder(tight).viewers(3).build();
    let ids = session.viewer_ids().to_vec();
    for &v in &ids {
        session.request_join(v, ViewId::new(0)).expect("valid");
    }
    session.run_to_idle();
    let rejected = ids
        .iter()
        .copied()
        .find(|&v| session.viewer(v).unwrap().status == ViewerStatus::Rejected)
        .expect("one viewer must be rejected");
    // A connected viewer leaves; the rejected one retries successfully.
    let connected = ids
        .iter()
        .copied()
        .find(|&v| session.viewer(v).unwrap().status == ViewerStatus::Connected)
        .expect("someone connected");
    session.request_depart(connected).expect("connected");
    session.run_to_idle();
    session
        .request_join(rejected, ViewId::new(0))
        .expect("retry allowed");
    session.run_to_idle();
    assert_eq!(
        session.viewer(rejected).unwrap().status,
        ViewerStatus::Connected,
        "freed capacity admits the retry"
    );
}

#[test]
fn periodic_adaptation_tracks_network_drift() {
    // Enable the §VI delay-layer adaptation loop and stretch the session
    // across several 15-minute trace epochs: delays drift, viewers
    // re-derive layers, and the κ bound must hold at every quiescent
    // point.
    let mut config = config(8);
    config.adaptation_period = Some(SimDuration::from_secs(120));
    let mut session = TelecastSession::builder(config).viewers(60).build();
    let ids = session.viewer_ids().to_vec();
    for &v in &ids {
        session.request_join(v, ViewId::new(0)).expect("valid");
    }
    // Keep the engine busy across two epochs with staggered churn so the
    // adaptation loop keeps ticking.
    for (i, &v) in ids.iter().enumerate().take(20) {
        session.run_until(telecast_sim::SimTime::from_secs(60 * (i as u64 + 1)));
        let _ = session.request_view_change(v, ViewId::new(1 + (i % 7) as u32));
    }
    session.run_to_idle();
    assert!(
        session.now() >= telecast_sim::SimTime::from_secs(16 * 60),
        "session spanned at least one epoch boundary, now={}",
        session.now()
    );
    let kappa = session.scheme().kappa();
    for &v in &ids {
        let state = session.viewer(v).unwrap();
        if state.status != ViewerStatus::Connected || state.subs.is_empty() {
            continue;
        }
        let lo = state.layers().min().unwrap();
        let hi = state.layers().max().unwrap();
        assert!(hi - lo <= kappa, "κ bound broken after drift: {lo}..{hi}");
    }
    assert_upstreams_live(&session);
}

#[test]
fn adaptation_loop_terminates() {
    // The self-scheduling tick must not keep the engine alive forever.
    let mut config = config(9);
    config.adaptation_period = Some(SimDuration::from_secs(30));
    let mut session = TelecastSession::builder(config).viewers(10).build();
    for v in session.viewer_ids().to_vec() {
        session.request_join(v, ViewId::new(0)).expect("valid");
    }
    session.run_to_idle(); // would hang if ticks self-perpetuated
    assert!(session.metrics().admitted_viewers.value() > 0);
}

#[test]
fn temporary_view_change_serves_are_always_reconciled() {
    let mut session = TelecastSession::builder(config(7)).viewers(60).build();
    let ids = session.viewer_ids().to_vec();
    for &v in &ids {
        session.request_join(v, ViewId::new(0)).expect("valid");
    }
    session.run_to_idle();
    for (i, &v) in ids.iter().enumerate() {
        let _ = session.request_view_change(v, ViewId::new(1 + (i % 7) as u32));
    }
    session.run_to_idle();
    for &v in &ids {
        let state = session.viewer(v).unwrap();
        assert!(
            state.temp_leases.is_empty(),
            "viewer {v} kept temporary CDN serves after settling"
        );
    }
}

/// §VI fixpoint audit: once a run with no capped resync pass goes idle,
/// one more resync recompute would change no viewer's layers.
#[test]
fn layers_reach_the_fixpoint_at_idle() {
    let mut session = TelecastSession::builder(config(11)).viewers(120).build();
    let mut rng = SimRng::seed_from_u64(12);
    let workload = ViewerWorkload::builder(120, 8)
        .arrivals(ArrivalModel::Staggered {
            gap: SimDuration::from_millis(50),
        })
        .view_choice(ViewChoice::Zipf { s: 1.0 })
        .view_changes(1.0, SimDuration::from_secs(30))
        .build(&mut rng);
    session.run_workload(&workload);
    let m = session.metrics();
    assert!(m.resync_visits.value() > 0, "the run triggered no resync");
    assert_eq!(m.resync_cap_hits.value(), 0, "a resync pass hit the cap");
    assert_eq!(session.layer_fixpoint_violations(), 0);
}
