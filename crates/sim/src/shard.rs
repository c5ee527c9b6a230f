//! Sharded parallel simulation: conservative time-window execution of
//! one logical world split across OS threads.
//!
//! # Model
//!
//! A [`ShardedWorld`] is `S` ordinary [`World`]s, one per shard. Every
//! shard world knows every actor id; the actors another shard hosts are
//! `Remote` slots, and the world stages sends to them in per-shard
//! outboxes instead of its own queue. Each shard runs on its own
//! `std::thread::scope` worker, in *windows* of the classic conservative
//! (lookahead) kind:
//!
//! 1. every worker posts the time of its earliest pending event; a
//!    barrier reduction yields the global minimum `t0`;
//! 2. every worker dispatches its local events in `[t0, t0 + L)`, where
//!    the lookahead `L` is the minimum cross-shard link latency
//!    ([`crate::link::LinkModel::min_latency`]);
//! 3. outboxes are flushed through mpsc channels, a second barrier
//!    closes the window, and every worker drains its inboxes, sorts the
//!    arrivals by `(time, source shard, source sequence)` and pushes
//!    them into its queue.
//!
//! Because a message sent at `t ≥ t0` arrives no earlier than `t0 + L`,
//! no event delivered at a window boundary can land inside the window
//! just processed: the per-shard event streams are causally complete.
//! An arrival before the closed window's end would mean the link model
//! overstated its `min_latency`; such events are clamped to the window
//! boundary and counted ([`CLAMPED_CROSS_EVENTS`]), and the run fails
//! hard after joining under `debug_assertions` — the same policy a
//! single world applies to a delivery into the past.
//!
//! One shard is simply one [`World`], run in the calling thread with the
//! unforked master RNG: it dispatches exactly the event stream of a
//! standalone world built the same way.
//!
//! # Determinism
//!
//! For a fixed `(seed, shard count)` pair runs are bit-for-bit
//! reproducible: with `S ≥ 2` each shard draws from its own forked RNG
//! stream, local dispatch order is the calendar queue's total
//! `(time, seq)` order, and cross-shard arrivals are inserted in the
//! deterministic `(time, src shard, src seq)` order — no outcome ever
//! depends on thread scheduling. Different shard counts give equally
//! valid simulations whose streams differ (RNG streams and tie-break
//! interleavings differ).
//!
//! Crash-stop kills and `stop_world` are control signals, not timed
//! events: they apply immediately in the calling shard and reach other
//! shards at the next window boundary.
//!
//! Metrics merge slot-wise across shards ([`Metrics::merge`]): counters
//! add, and gauges written with `set_max` take the maximum.

use std::any::Any;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Barrier;

use crate::event::{ActorId, Event};
use crate::link::LinkModel;
use crate::metrics::Metrics;
use crate::rng::SimRng;
use crate::time::{SimDuration, SimTime};
use crate::world::{assert_no_clamps, Actor, ActorGroup, SimMessage, World};

/// Metric counting deliveries that violated the lookahead contract and
/// were clamped: into the sender's past, or across shards into an
/// already-closed window (release builds only; a debug build fails the
/// run instead).
pub const CLAMPED_CROSS_EVENTS: &str = "shard.clamped_cross_events";

/// An event crossing shards: staged in the sender's outbox during a
/// window, delivered into the destination queue at the boundary.
pub(crate) enum Cross<M> {
    /// A link-delivered message for an actor of the destination shard.
    /// `seq` is the sender shard's monotone cross-send counter — the
    /// deterministic tie-break for same-time arrivals.
    Deliver {
        at: SimTime,
        seq: u64,
        from: ActorId,
        to: ActorId,
        msg: M,
    },
    /// Crash-stop propagation (applied to the destination's liveness
    /// copy before any of the window's deliveries are queued).
    Kill(ActorId),
}

/// Per-shard load and synchronization counters (see
/// [`ShardedWorld::shard_stats`]).
#[derive(Clone, Copy, Debug, Default)]
pub struct ShardStats {
    /// Shard index.
    pub shard: usize,
    /// Actors hosted by this shard.
    pub actors: usize,
    /// Events dispatched by this shard since construction.
    pub dispatched: u64,
    /// Synchronization windows this shard participated in.
    pub windows: u64,
    /// Events this shard sent to other shards.
    pub cross_sent: u64,
    /// Events still pending in this shard's queue.
    pub pending_events: usize,
    /// Most events ever pending at once in this shard's queue.
    pub queue_high_water: usize,
    /// Deliveries clamped for violating the lookahead bound.
    pub clamped: u64,
}

/// Shared worker coordination state for one `run_until` call.
struct ShardSync {
    barrier: Barrier,
    /// Earliest pending event time per shard (`u64::MAX` = idle),
    /// posted before the window-opening barrier.
    next: Vec<AtomicU64>,
    stop: AtomicBool,
}

/// One shard's side of the window protocol, kept across runs.
#[derive(Default)]
struct Lane {
    /// End (exclusive) of the last closed window: the floor below which
    /// a cross-shard arrival is a causality violation.
    floor: SimTime,
    windows: u64,
    cross_sent: u64,
}

impl Lane {
    /// Flush staged cross-shard events, one batch per destination.
    fn flush<M: SimMessage>(&mut self, world: &mut World<M>, txs: &[Sender<Vec<Cross<M>>>]) {
        for (dst, buf) in world.out.iter_mut().enumerate() {
            if !buf.is_empty() {
                self.cross_sent += buf.len() as u64;
                // A send can only fail if the destination worker already
                // exited, which the aligned barrier schedule rules out
                // for live runs; ignore rather than unwind mid-scope.
                let _ = txs[dst].send(std::mem::take(buf));
            }
        }
    }

    /// Drain all inboxes and queue the arrivals in deterministic
    /// `(time, src shard, src seq)` order. Kills apply first; arrivals
    /// below the closed window's floor are clamped and counted.
    fn drain<M: SimMessage>(
        &self,
        world: &mut World<M>,
        rxs: &[Receiver<Vec<Cross<M>>>],
        inbox: &mut Vec<(SimTime, usize, u64, ActorId, ActorId, M)>,
    ) {
        for (src, rx) in rxs.iter().enumerate() {
            for cross in rx.try_iter().flatten() {
                match cross {
                    Cross::Kill(actor) => world.kill(actor),
                    Cross::Deliver {
                        at,
                        seq,
                        from,
                        to,
                        msg,
                    } => inbox.push((at, src, seq, from, to, msg)),
                }
            }
        }
        inbox.sort_by_key(|a| (a.0, a.1, a.2));
        for (mut at, _, _, from, to, msg) in inbox.drain(..) {
            if at < self.floor {
                world.metrics.incr(CLAMPED_CROSS_EVENTS);
                at = self.floor;
            }
            world.queue.push(at, Event::Deliver { from, to, msg });
        }
    }

    /// The worker loop: see the module docs for the window algorithm.
    fn run<M: SimMessage>(
        &mut self,
        world: &mut World<M>,
        limit: SimTime,
        lookahead: SimDuration,
        sync: &ShardSync,
        txs: Vec<Sender<Vec<Cross<M>>>>,
        rxs: Vec<Receiver<Vec<Cross<M>>>>,
    ) {
        let shard = world.shard as usize;
        let mut inbox = Vec::new();
        // Wave −1: `on_start` callbacks run before any event, and their
        // sends are exchanged so the first window's queues are complete.
        world.start_pending();
        self.flush(world, &txs);
        sync.barrier.wait();
        self.drain(world, &rxs, &mut inbox);
        loop {
            // Publish a pending halt only here, strictly between the
            // window-closing barrier below and the window-opening one:
            // no worker can reach this store for window k+1 until every
            // worker has both read the flag for window k and closed k,
            // so all workers read the same value and take the same
            // branch every iteration.
            if world.stop {
                sync.stop.store(true, Ordering::Release);
            }
            let next = world.queue.peek_time().map_or(u64::MAX, |t| t.0);
            sync.next[shard].store(next, Ordering::Release);
            sync.barrier.wait();
            if sync.stop.load(Ordering::Acquire) {
                break;
            }
            let t0 = sync
                .next
                .iter()
                .map(|a| a.load(Ordering::Acquire))
                .min()
                .unwrap_or(u64::MAX);
            if t0 == u64::MAX || t0 > limit.0 {
                break;
            }
            // Process strictly before t0 + L (inclusive bound is
            // t0 + L − 1), never past the caller's limit.
            let end = t0
                .saturating_add(lookahead.as_nanos())
                .saturating_sub(1)
                .min(limit.0);
            while world.step(SimTime(end)) {}
            if end < u64::MAX {
                self.floor = SimTime(end + 1);
            }
            self.windows += 1;
            self.flush(world, &txs);
            sync.barrier.wait();
            self.drain(world, &rxs, &mut inbox);
        }
    }
}

/// One logical world executed by `S` cooperating shard [`World`]s. See
/// the module docs for the synchronization and determinism contract; the
/// registration and inspection API mirrors [`World`] with an explicit
/// shard assignment per actor.
pub struct ShardedWorld<M: SimMessage> {
    worlds: Vec<World<M>>,
    lanes: Vec<Lane>,
    lookahead: SimDuration,
    merged: Metrics,
    now: SimTime,
    stopped: bool,
    ran: bool,
}

impl<M: SimMessage + Send> ShardedWorld<M> {
    /// A world of `shards` shards with per-shard link instances built by
    /// `link_for`. One shard draws from the RNG seeded with `seed`; with
    /// more, shard `k` draws from that RNG's fork `k`.
    ///
    /// `lookahead` must be a sound lower bound on every *cross-shard*
    /// one-way latency (use [`LinkModel::min_latency`] of the link the
    /// factory builds) and must be positive unless `shards == 1`.
    pub fn new(
        shards: usize,
        lookahead: SimDuration,
        seed: u64,
        mut link_for: impl FnMut(usize) -> Box<dyn LinkModel + Send>,
    ) -> Self {
        assert!(shards >= 1, "a sharded world needs at least one shard");
        assert!(
            shards == 1 || lookahead > SimDuration::ZERO,
            "conservative time-window sync needs positive lookahead \
             (the link model's min_latency is zero — run single-shard instead)"
        );
        let master = SimRng::new(seed);
        let worlds = if shards == 1 {
            vec![World::with_rng(link_for(0), master)]
        } else {
            (0..shards)
                .map(|k| {
                    let mut w = World::with_rng(link_for(k), master.fork(k as u64));
                    w.join_shards(k, shards);
                    w
                })
                .collect()
        };
        ShardedWorld {
            worlds,
            lanes: (0..shards).map(|_| Lane::default()).collect(),
            lookahead,
            merged: Metrics::new(),
            now: SimTime::ZERO,
            stopped: false,
            ran: false,
        }
    }

    /// Make room for `count` new ids hosted by `shard`: a `Remote` slot
    /// in every other shard's world.
    fn place(&mut self, shard: usize, count: usize) -> &mut World<M> {
        assert!(!self.ran, "registration after the world has run");
        assert!(shard < self.worlds.len(), "shard index out of range");
        for (k, w) in self.worlds.iter_mut().enumerate() {
            if k != shard {
                w.add_remote(shard, count);
            }
        }
        &mut self.worlds[shard]
    }

    /// Register a solo actor on `shard`; global ids stay dense in
    /// registration order across all shards.
    pub fn add_actor(&mut self, shard: usize, actor: Box<dyn Actor<M>>) -> ActorId {
        self.place(shard, 1).add_actor(actor)
    }

    /// Register a group of `members` co-hosted actors on `shard`,
    /// occupying the next `members` dense global ids (the group's member
    /// `m` is global id `first + m`). Returns the first member's id.
    pub fn add_group(
        &mut self,
        shard: usize,
        members: usize,
        group: Box<dyn ActorGroup<M>>,
    ) -> ActorId {
        self.place(shard, members).add_group(members, group)
    }

    /// The shard worlds, in shard order (one shard: the whole world).
    pub fn into_shards(self) -> Vec<World<M>> {
        self.worlds
    }

    /// Number of registered actors across all shards.
    pub fn actor_count(&self) -> usize {
        self.worlds[0].actor_count()
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.worlds.len()
    }

    /// The conservative lookahead bound this world synchronizes on.
    pub fn lookahead(&self) -> SimDuration {
        self.lookahead
    }

    /// Current virtual time (after a run: the reached horizon).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Merged metrics of every shard (slot-wise [`Metrics::merge`]),
    /// rebuilt after each run.
    pub fn metrics(&self) -> &Metrics {
        &self.merged
    }

    /// Crash-stop an actor from outside the simulation (applied to every
    /// shard's liveness copy at once).
    pub fn kill(&mut self, actor: ActorId) {
        for w in &mut self.worlds {
            w.kill(actor);
        }
    }

    /// True if `actor` has not been killed.
    pub fn is_alive(&self, actor: ActorId) -> bool {
        self.worlds[0].is_alive(actor)
    }

    /// Borrow any registered actor as `Any` for post-run inspection.
    pub fn actor_any(&self, id: ActorId) -> Option<&dyn Any> {
        self.worlds.iter().find_map(|w| w.actor_any(id))
    }

    /// Downcast a registered actor to its concrete type.
    pub fn actor_as<T: 'static>(&self, id: ActorId) -> Option<&T> {
        self.actor_any(id).and_then(|a| a.downcast_ref::<T>())
    }

    /// Total events dispatched across all shards.
    pub fn events_dispatched(&self) -> u64 {
        self.worlds.iter().map(World::events_dispatched).sum()
    }

    /// Order-sensitive digest of every shard's dispatched event stream,
    /// combined in shard order: identical for identical `(seed, shards)`
    /// runs, and a cheap fingerprint for determinism gates. One shard
    /// gives its world's [`World::event_digest`].
    pub fn event_digest(&self) -> u64 {
        self.worlds
            .iter()
            .fold(0u64, |h, w| h.rotate_left(9) ^ w.event_digest())
    }

    /// Deliveries that violated the lookahead contract and were clamped
    /// (always zero for honest link models).
    pub fn clamped_cross_events(&self) -> u64 {
        self.worlds.iter().map(World::clamped_events).sum()
    }

    /// Per-shard load counters, in shard order.
    pub fn shard_stats(&self) -> Vec<ShardStats> {
        self.worlds
            .iter()
            .zip(&self.lanes)
            .enumerate()
            .map(|(shard, (w, lane))| ShardStats {
                shard,
                actors: w.hosted(),
                dispatched: w.events_dispatched(),
                windows: lane.windows,
                cross_sent: lane.cross_sent,
                pending_events: w.pending_events(),
                queue_high_water: w.stats().queue_high_water,
                clamped: w.clamped_events(),
            })
            .collect()
    }

    /// Pre-reserve per-shard queue capacity (allocation hint only).
    pub fn reserve_events(&mut self, events: usize) {
        let per = events / self.worlds.len();
        for w in &mut self.worlds {
            w.reserve_events(per);
        }
    }

    /// Run until every queue drains, an actor stops the world, or
    /// virtual time would pass `limit` (same clock semantics as
    /// [`World::run_until`]). Returns the time reached.
    pub fn run_until(&mut self, limit: SimTime) -> SimTime {
        self.ran = true;
        if let [world] = self.worlds.as_mut_slice() {
            self.now = world.run_until(limit);
        } else {
            self.run_windows(limit);
        }
        self.merged.clear();
        for w in &self.worlds {
            self.merged.merge(w.metrics());
        }
        self.now
    }

    /// [`ShardedWorld::run_until`] for `S ≥ 2`: one scoped worker thread
    /// per shard, joined before returning.
    fn run_windows(&mut self, limit: SimTime) {
        let s = self.worlds.len();
        let sync = ShardSync {
            barrier: Barrier::new(s),
            next: (0..s).map(|_| AtomicU64::new(u64::MAX)).collect(),
            stop: AtomicBool::new(self.stopped),
        };
        // One mpsc channel per ordered shard pair; senders are handed to
        // the source worker, receivers to the destination, both indexed
        // by the opposite end's shard number.
        let mut txs: Vec<Vec<Sender<Vec<Cross<M>>>>> = (0..s).map(|_| Vec::new()).collect();
        let mut rxs: Vec<Vec<Receiver<Vec<Cross<M>>>>> = Vec::with_capacity(s);
        for _dst in 0..s {
            let mut row = Vec::with_capacity(s);
            for tx_row in txs.iter_mut() {
                let (tx, rx) = channel();
                tx_row.push(tx);
                row.push(rx);
            }
            rxs.push(row);
        }
        let lookahead = self.lookahead;
        std::thread::scope(|scope| {
            let sync = &sync;
            let lanes = self.worlds.iter_mut().zip(&mut self.lanes);
            for (((world, lane), tx_row), rx_row) in lanes.zip(txs).zip(rxs) {
                scope.spawn(move || lane.run(world, limit, lookahead, sync, tx_row, rx_row));
            }
        });
        self.stopped = sync.stop.load(Ordering::Acquire);
        self.now = if self.stopped || limit == SimTime::MAX {
            self.worlds
                .iter()
                .map(World::now)
                .max()
                .unwrap_or(SimTime::ZERO)
        } else {
            limit
        };
        assert_no_clamps(self.clamped_cross_events());
    }

    /// Run until every queue drains or an actor stops the world.
    pub fn run(&mut self) -> SimTime {
        self.run_until(SimTime::MAX)
    }
}
