//! The live plane: real `LiveSession`s over loopback UDP, and the wire
//! codec timed on a captured simulator message mix.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use bytes::BytesMut;
use mss_core::msg::Msg;
use mss_net::bus::SETTLE;
use mss_net::codec::{decode, encode_into};
use mss_net::LiveSession;
use mss_sim::event::ActorId;
use mss_sim::metrics::Metrics;

use crate::assemble::sync_ms;
use crate::workloads::live_config;

/// Wall budget of one live session; a session that has not completed
/// by then counts as failed.
const WALL_TIMEOUT: Duration = Duration::from_secs(10);

/// One live session's figures (wall-clock milliseconds).
pub struct LiveRun {
    pub label: &'static str,
    pub n: usize,
    pub packets: u64,
    pub ok: bool,
    pub activated: usize,
    pub sync_ms: f64,
    pub done_ms: f64,
    /// Wall time outside streaming: socket and task set-up before the
    /// start signal plus teardown after the settle grace.
    pub setup_s: f64,
    pub coord_msgs: u64,
    pub data_msgs: u64,
    pub metrics: Metrics,
    pub error: Option<String>,
}

/// Run live session `i` of a run seeded `seed`. Panics and I/O errors
/// come back as a failed run, never as a skipped one.
pub fn run_live(seed: u64, i: u64) -> LiveRun {
    let (label, protocol, cfg) = live_config(seed, i);
    let (n, packets) = (cfg.n, cfg.content.packets);
    let t0 = Instant::now();
    let res = catch_unwind(AssertUnwindSafe(|| {
        LiveSession::new(cfg, protocol, WALL_TIMEOUT).run()
    }));
    let wall = t0.elapsed();
    let failed = |error: String| LiveRun {
        label,
        n,
        packets,
        ok: false,
        activated: 0,
        sync_ms: 0.0,
        done_ms: 0.0,
        setup_s: 0.0,
        coord_msgs: 0,
        data_msgs: 0,
        metrics: Metrics::new(),
        error: Some(error),
    };
    let out = match res {
        Ok(Ok(out)) => out,
        Ok(Err(e)) => return failed(format!("live I/O error: {e}")),
        Err(_) => return failed("live session panicked".to_string()),
    };
    let Some(done) = out.time_to_done else {
        return failed(format!("no completion within {WALL_TIMEOUT:?}"));
    };
    LiveRun {
        label,
        n,
        packets,
        ok: out.complete,
        activated: out.activated,
        sync_ms: sync_ms(&out.reports),
        done_ms: done.as_secs_f64() * 1e3,
        setup_s: wall.saturating_sub(done + SETTLE).as_secs_f64(),
        coord_msgs: out.coord_msgs,
        data_msgs: out.metrics.counter(mss_core::metrics::DATA_MSGS),
        metrics: out.metrics,
        error: None,
    }
}

/// Wire-codec cost on a message mix: encode and decode nanoseconds per
/// message (medians over `reps` passes) and mean frame bytes.
pub struct CodecCost {
    pub encode_ns: f64,
    pub decode_ns: f64,
    pub bytes: f64,
    pub messages: usize,
    pub decode_errors: usize,
}

pub fn codec_cost(mix: &[(ActorId, Msg)], reps: usize) -> CodecCost {
    let mut buf = BytesMut::with_capacity(256);
    let frames: Vec<Vec<u8>> = mix
        .iter()
        .map(|(from, msg)| {
            encode_into(*from, msg, &mut buf);
            buf.to_vec()
        })
        .collect();
    let bytes = frames.iter().map(Vec::len).sum::<usize>() as f64 / mix.len().max(1) as f64;
    let per = |d: Duration| d.as_nanos() as f64 / mix.len().max(1) as f64;
    let mut enc = Vec::with_capacity(reps);
    let mut dec = Vec::with_capacity(reps);
    let mut decode_errors = 0;
    for _ in 0..reps {
        let t0 = Instant::now();
        for (from, msg) in mix {
            encode_into(*from, std::hint::black_box(msg), &mut buf);
            std::hint::black_box(&buf);
        }
        enc.push(per(t0.elapsed()));
        let t0 = Instant::now();
        for f in &frames {
            match decode(std::hint::black_box(f)) {
                Ok(m) => drop(std::hint::black_box(m)),
                Err(_) => decode_errors += 1,
            }
        }
        dec.push(per(t0.elapsed()));
    }
    CodecCost {
        encode_ns: crate::report::median(&enc),
        decode_ns: crate::report::median(&dec),
        bytes,
        messages: mix.len(),
        decode_errors,
    }
}
