//! Simulator vs live host: the identical protocol state machines run on
//! (a) the deterministic discrete-event simulator and (b) the live
//! ready-queue runtime (`LiveSession`: loopback UDP, shared sockets,
//! `recvmmsg`/`sendmmsg` batching) — and agree on the protocol's
//! observable outcomes (coverage, completion, coordination volume class).

use std::time::Duration;

use mss::core::prelude::*;
use mss::core::session::Session;
use mss::net::{LiveOutcome, LiveSession};

fn shared_cfg() -> SessionConfig {
    let mut cfg = SessionConfig::small(8, 3, 1234);
    cfg.content = ContentDesc::small(21, 100);
    cfg
}

/// `shared_cfg` on the live host; a finished session returns at its
/// done signal, the timeout only bounds a stuck one.
fn run_live(protocol: Protocol) -> LiveOutcome {
    LiveSession::new(shared_cfg(), protocol, Duration::from_secs(5))
        .run()
        .expect("live session")
}

#[test]
fn dcop_agrees_across_substrates() {
    let sim = Session::new(shared_cfg(), Protocol::Dcop)
        .time_limit(SimDuration::from_secs(60))
        .run();
    let live = run_live(Protocol::Dcop);

    // Both cover every peer and reconstruct the content.
    assert_eq!(sim.activated, 8);
    assert_eq!(live.activated, 8);
    assert!(sim.complete);
    assert!(live.complete, "live missing {}", live.missing);

    // Coordination volume is in the same class (timing and rng streams
    // differ, so exact counts may not match — an order of magnitude must).
    assert!(
        live.coord_msgs >= sim.coord_msgs_total / 4 && live.coord_msgs <= sim.coord_msgs_total * 4,
        "live coordination volume {} vs simulator {}",
        live.coord_msgs,
        sim.coord_msgs_total
    );
}

#[test]
fn tcop_agrees_across_substrates() {
    let sim = Session::new(shared_cfg(), Protocol::Tcop)
        .time_limit(SimDuration::from_secs(60))
        .run();
    let live = run_live(Protocol::Tcop);
    assert_eq!(sim.activated, 8);
    assert_eq!(live.activated, 8);
    assert!(sim.complete);
    assert!(live.complete, "live missing {}", live.missing);
}

/// Shared config for the at-scale pinning: n in the hundreds on the
/// ready-queue runtime vs the same config on the simulator. Uses the
/// `live` preset (quadratic extensions off, repair on) for both sides
/// so the comparison is apples to apples.
fn scale_cfg(protocol_seed: u64) -> SessionConfig {
    let mut cfg = SessionConfig::live(200, 8, protocol_seed);
    cfg.content = ContentDesc::small(31, 100);
    cfg
}

/// Pin the ready-queue runtime against the simulator at n=200: full
/// activation, complete streaming, and coordination volume in the same
/// class, for both coordination protocols.
#[test]
fn ready_queue_runtime_matches_simulator_at_scale() {
    for (protocol, seed) in [(Protocol::Dcop, 4242u64), (Protocol::Tcop, 4243u64)] {
        let sim = Session::new(scale_cfg(seed), protocol)
            .time_limit(SimDuration::from_secs(120))
            .run();
        let live = LiveSession::new(scale_cfg(seed), protocol, Duration::from_secs(20))
            .run()
            .expect("live session");

        assert_eq!(sim.activated, 200, "{protocol:?} sim activation");
        assert_eq!(
            live.activated,
            200,
            "{protocol:?} live activation (reports: {})",
            live.reports.len()
        );
        assert!(sim.complete, "{protocol:?} sim completion");
        assert!(
            live.complete,
            "{protocol:?} live leaf missing {} packets (rx_dropped {})",
            live.missing,
            live.metrics.counter("net.rx_dropped")
        );
        assert!(
            live.coord_msgs >= sim.coord_msgs_total / 4
                && live.coord_msgs <= sim.coord_msgs_total * 4,
            "{protocol:?} live coordination volume {} vs simulator {}",
            live.coord_msgs,
            sim.coord_msgs_total
        );
        // The batched syscall plane must actually be exercised.
        assert!(live.metrics.counter("net.rx_batches") > 0);
        assert!(live.metrics.counter("net.tx_datagrams") > 0);
    }
}

#[test]
fn centralized_agrees_across_substrates() {
    let sim = Session::new(shared_cfg(), Protocol::Centralized)
        .time_limit(SimDuration::from_secs(60))
        .run();
    let live = run_live(Protocol::Centralized);
    assert!(sim.complete);
    assert!(live.complete, "live missing {}", live.missing);
    // 2PC message count is deterministic: 1 + 3(n−1) in every substrate.
    assert_eq!(sim.coord_msgs_total, 1 + 3 * 7);
    assert_eq!(live.coord_msgs, 1 + 3 * 7);
}
