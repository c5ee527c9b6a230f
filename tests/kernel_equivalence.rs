//! One simulation kernel: a one-shard `ShardedWorld` is its single
//! `World`, so `Session::run_with_sharded_world` at one shard must
//! reproduce `Session::run_with_world` exactly — event count, event
//! digest, every metric counter, every peer report and the leaf's
//! completion state — fault-free, under a crash, and over bursty loss
//! with NACK repair. Multi-shard event streams are pinned to constants.

use mss::core::config::RepairConfig;
use mss::core::leaf::LeafActor;
use mss::core::prelude::*;
use mss::core::session::Session;
use mss::sim::event::ActorId;
use mss::sim::link::{GilbertElliott, JitterLatency};
use mss::sim::metrics::Metrics;

#[derive(Clone, Copy, Debug)]
enum Case {
    Clean,
    Crash,
    LossyRepair,
}

fn jitter() -> JitterLatency {
    JitterLatency {
        base: SimDuration::from_millis(1),
        jitter: SimDuration::from_millis(1),
    }
}

fn session(protocol: Protocol, n: usize, case: Case) -> Session {
    let mut cfg = SessionConfig::small(n, 4, 900 + n as u64);
    let third = SimDuration::from_micros((cfg.content.duration_secs() * 1e6 / 3.0) as u64);
    if let Case::LossyRepair = case {
        cfg.repair = Some(RepairConfig::default());
    }
    let s = Session::new(cfg, protocol).time_limit(SimDuration::from_secs(30));
    match case {
        Case::Clean => s,
        Case::Crash => s.fault(third, PeerId(3)),
        Case::LossyRepair => s.link_factory(|| GilbertElliott::new(0.005, 0.3, 0.0, 1.0, jitter())),
    }
}

/// Everything a run must reproduce.
#[derive(Debug, PartialEq)]
struct Fingerprint {
    events: u64,
    digest: u64,
    counters: Vec<(String, u64)>,
    reports: Vec<PeerReport>,
    /// complete, completion time, missing, accepted, duplicates,
    /// recovered via parity, bytes received.
    leaf: (bool, Option<u64>, usize, u64, u64, u64, u64),
    outcome: SessionOutcome,
}

fn fingerprint(
    events: u64,
    digest: u64,
    metrics: &Metrics,
    leaf: &LeafActor,
    reports: Vec<PeerReport>,
    outcome: SessionOutcome,
) -> Fingerprint {
    Fingerprint {
        events,
        digest,
        counters: metrics.counters().map(|(k, v)| (k.to_owned(), v)).collect(),
        reports,
        leaf: (
            leaf.is_complete(),
            leaf.complete_nanos(),
            leaf.missing_count(),
            leaf.accepted(),
            leaf.duplicates(),
            leaf.recovered(),
            leaf.received_bytes(),
        ),
        outcome,
    }
}

fn single(protocol: Protocol, n: usize, case: Case) -> Fingerprint {
    let (outcome, w, reports) = session(protocol, n, case).run_with_world();
    let leaf = w.actor_as(ActorId(n as u32)).expect("leaf");
    let (events, digest) = (w.events_dispatched(), w.event_digest());
    fingerprint(events, digest, w.metrics(), leaf, reports, outcome)
}

fn one_shard(protocol: Protocol, n: usize, case: Case) -> Fingerprint {
    let (outcome, w, reports) = session(protocol, n, case)
        .shards(1)
        .run_with_sharded_world();
    assert_eq!(w.shard_count(), 1);
    let leaf = w.actor_as(ActorId(n as u32)).expect("leaf");
    let (events, digest) = (w.events_dispatched(), w.event_digest());
    fingerprint(events, digest, w.metrics(), leaf, reports, outcome)
}

#[test]
fn one_shard_sharded_world_is_the_single_world() {
    for protocol in [Protocol::Dcop, Protocol::Tcop] {
        for n in [20, 100] {
            let mut clean_digest = 0;
            for case in [Case::Clean, Case::Crash, Case::LossyRepair] {
                let a = single(protocol, n, case);
                let b = one_shard(protocol, n, case);
                assert!(a.events > 0 && a.digest != 0);
                assert_eq!(a, b, "{protocol:?} n={n} {case:?}");
                // Each faulty case must actually exercise its fault.
                match case {
                    Case::Clean => clean_digest = a.digest,
                    Case::Crash => assert_ne!(a.digest, clean_digest, "{protocol:?} n={n}"),
                    Case::LossyRepair => assert!(
                        a.counters.iter().any(|(k, v)| k == "net.dropped" && *v > 0),
                        "{protocol:?} n={n}: the lossy link dropped nothing"
                    ),
                }
            }
        }
    }
}

/// `(protocol, shards, event_digest(), events_dispatched())` of
/// `SessionConfig::large(2000, 8, 42)` sessions, recorded before the
/// sharded world was rebuilt on `World`: the multi-shard streams must
/// not move.
const PINNED: [(Protocol, usize, u64, u64); 4] = [
    (Protocol::Dcop, 2, 0x1d51_43e4_00d0_47b5, 18_996),
    (Protocol::Dcop, 4, 0x1a4c_3757_a778_cd87, 18_988),
    (Protocol::Tcop, 2, 0x7470_d022_90cd_bf6d, 37_570),
    (Protocol::Tcop, 4, 0x3cfe_727d_2e18_e21b, 37_586),
];

#[test]
fn multi_shard_streams_are_pinned() {
    for (protocol, shards, digest, events) in PINNED {
        let (_, w, _) = Session::new(SessionConfig::large(2000, 8, 42), protocol)
            .shards(shards)
            .run_with_sharded_world();
        assert_eq!(
            (w.event_digest(), w.events_dispatched()),
            (digest, events),
            "{protocol:?} S={shards}"
        );
    }
}
