//! # mss-net — the live host for the MSS protocol state machines
//!
//! The simulator answers the paper's quantitative questions; this crate
//! answers "does it actually run on real transports?" — the same
//! `mss-core` actors, unchanged, hosted by [`live::LiveSession`]: peers
//! are cooperative tasks on a ready-queue scheduler (`ready`), I/O is a
//! handful of shared nonblocking loopback UDP sockets driven by epoll
//! with `recvmmsg`/`sendmmsg` batching (`sys`), and every datagram is
//! framed by the hand-rolled binary [`codec`]. Thousands of peers fit
//! on one box; the thread count is the worker pool, not the peer count.
//!
//! ```no_run
//! use std::time::Duration;
//! use mss_core::prelude::*;
//! use mss_net::LiveSession;
//!
//! let cfg = SessionConfig::small(6, 2, 7);
//! let out = LiveSession::new(cfg, Protocol::Dcop, Duration::from_secs(2))
//!     .run()
//!     .expect("loopback sockets");
//! assert!(out.complete);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod codec;
pub mod live;
pub(crate) mod ready;
pub(crate) mod sys;
pub mod views;

/// Former home of [`SETTLE`]. The benchmark package imports it from
/// here and is versioned separately, so the path stays until that
/// import moves to [`live::SETTLE`].
pub mod bus {
    pub use crate::live::SETTLE;
}

pub use live::{LiveOutcome, LiveSession};
