//! The same DCoP and TCoP state machines, running live instead of in
//! the simulator: every peer is a task on the ready-queue runtime and
//! every message crosses a real UDP loopback socket, framed by the
//! binary wire codec.
//!
//! ```text
//! cargo run --release --example live_session
//! ```

use std::time::{Duration, Instant};

use mss::core::prelude::*;
use mss::net::LiveSession;

fn main() {
    let mut cfg = SessionConfig::small(8, 3, 7);
    cfg.content = ContentDesc::small(3, 120);
    println!(
        "live session: {} peers + leaf, {} packets (~{:.0} ms of stream)\n",
        cfg.n,
        cfg.content.packets,
        cfg.content.duration_secs() * 1e3
    );

    for protocol in [Protocol::Dcop, Protocol::Tcop] {
        let t0 = Instant::now();
        let out = LiveSession::new(cfg.clone(), protocol, Duration::from_secs(2))
            .run()
            .expect("live session");
        println!(
            "{:<4} over udp loopback: activated {}/{} peers, complete={}, missing={}, \
             {} coordination msgs ({:.0} ms wall)",
            protocol.name(),
            out.activated,
            cfg.n,
            out.complete,
            out.missing,
            out.coord_msgs,
            t0.elapsed().as_secs_f64() * 1e3
        );
        assert!(
            out.complete,
            "{} live session failed to stream",
            protocol.name()
        );
    }
    println!("\nsame protocol code as the simulator — swap the Runtime, keep the state machines.");
}
