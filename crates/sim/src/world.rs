//! The actor world: scheduler, dispatch, timers, and fault injection.
//!
//! A [`World`] owns a set of actors, an [`EventQueue`], a [`LinkModel`],
//! a seeded RNG, and a [`Metrics`] sink. Actors interact with the world
//! only through the [`Ctx`] handed to their callbacks, which keeps the
//! borrow structure simple and makes actor code look like ordinary
//! message-handler code.
//!
//! A `World` is also one shard of a [`crate::shard::ShardedWorld`]: it
//! then holds a `Remote` slot for every actor another shard hosts, and
//! sends to those actors are staged in a per-shard outbox instead of its
//! own queue. A standalone world has no outbox, so every send is local.
//!
//! Determinism: with a fixed seed, fixed actor registration order, and
//! the same message handlers, a run produces an identical event sequence
//! on every platform, fingerprinted by [`World::event_digest`].

use std::any::Any;

use crate::event::{ActorId, Event, EventQueue, TimerId};
use crate::link::{LinkModel, LinkVerdict};
use crate::metrics::{self, Metrics};
use crate::rng::SimRng;
use crate::shard::{Cross, CLAMPED_CROSS_EVENTS};
use crate::time::{SimDuration, SimTime};

/// Anything that can travel over a simulated link.
pub trait SimMessage: 'static {
    /// Approximate encoded size in bytes, used by bandwidth-limited links
    /// and byte counters.
    fn wire_size(&self) -> usize;
}

impl SimMessage for () {
    fn wire_size(&self) -> usize {
        0
    }
}

impl SimMessage for u32 {
    fn wire_size(&self) -> usize {
        4
    }
}

impl SimMessage for u64 {
    fn wire_size(&self) -> usize {
        8
    }
}

/// The capabilities an actor may use from whatever hosts it.
///
/// The simulator's [`Ctx`] implements this over virtual time; the
/// `mss-net` crate implements it over a ready-queue task scheduler,
/// loopback UDP sockets and the wall clock — the same actor state
/// machines run unchanged on both.
pub trait Runtime<M: SimMessage> {
    /// The id of the actor currently running.
    fn id(&self) -> ActorId;
    /// Current time (virtual in simulation, since-start wall time live).
    fn now(&self) -> SimTime;
    /// Number of actors in the session.
    fn actor_count(&self) -> usize;
    /// True if `actor` has not crashed (live runtimes may not know and
    /// return true).
    fn is_alive(&self, actor: ActorId) -> bool;
    /// Send `msg` to `to` through the hosting transport.
    fn send(&mut self, to: ActorId, msg: M);
    /// Arrange for [`Actor::on_timer`] to run `delay` from now with `tag`.
    fn set_timer(&mut self, delay: SimDuration, tag: u64) -> TimerId;
    /// Cancel a pending timer (no-op if already fired).
    fn cancel_timer(&mut self, timer: TimerId);
    /// Deterministic per-host random number generator.
    fn rng(&mut self) -> &mut SimRng;
    /// Metric sink.
    fn metrics(&mut self) -> &mut Metrics;
    /// Crash-stop an actor (fault injection; live runtimes ignore it).
    fn kill(&mut self, _actor: ActorId) {}
    /// Halt the whole session (live runtimes ignore it).
    fn stop_world(&mut self) {}
    /// Send every `(to, msg)` pair in `batch`, draining it. Exactly
    /// equivalent to calling [`Runtime::send`] once per entry in order
    /// (same delivery times, same RNG draws); hosts may amortize
    /// bookkeeping across the batch. A protocol fan-out pushes its whole
    /// round here and pays the per-send accounting once.
    fn send_batch(&mut self, batch: &mut Vec<(ActorId, M)>) {
        for (to, msg) in batch.drain(..) {
            self.send(to, msg);
        }
    }
}

/// A simulated process. Implementors also provide [`Actor::as_any`] so the
/// harness can inspect final actor state after a run (see
/// [`World::actor_as`]).
pub trait Actor<M: SimMessage>: Send + 'static {
    /// Called once, when the world first runs, in registration order.
    fn on_start(&mut self, _ctx: &mut dyn Runtime<M>) {}

    /// A message from `from` arrived.
    fn on_message(&mut self, ctx: &mut dyn Runtime<M>, from: ActorId, msg: M);

    /// A timer set by this actor fired.
    fn on_timer(&mut self, _ctx: &mut dyn Runtime<M>, _timer: TimerId, _tag: u64) {}

    /// Upcast for post-run state inspection.
    fn as_any(&self) -> &dyn Any;
}

/// Implements [`Actor::as_any`] for a concrete actor type.
#[macro_export]
macro_rules! impl_as_any {
    () => {
        fn as_any(&self) -> &dyn ::core::any::Any {
            self
        }
    };
}

/// A batch of co-hosted actors dispatched through one trait object.
///
/// Members are addressed by a dense index assigned at registration
/// ([`World::add_group`]); each member still owns a full [`ActorId`], so
/// liveness, timers, fault injection and message routing are untouched —
/// only *storage* changes. A group keeps its members in one contiguous
/// slab and can thread shared mutable state (scratch arenas, caches)
/// into every callback, which per-member `Box<dyn Actor>` storage cannot.
pub trait ActorGroup<M: SimMessage>: Send + 'static {
    /// Called once per member, in registration order, when the world
    /// first runs.
    fn on_start(&mut self, _ctx: &mut dyn Runtime<M>, _member: u32) {}

    /// A message for `member` arrived from `from`.
    fn on_message(&mut self, ctx: &mut dyn Runtime<M>, member: u32, from: ActorId, msg: M);

    /// A timer set by `member` fired.
    fn on_timer(&mut self, _ctx: &mut dyn Runtime<M>, _member: u32, _timer: TimerId, _tag: u64) {}

    /// Upcast one member for post-run state inspection.
    fn member_as_any(&self, member: u32) -> &dyn Any;
}

/// Where one [`ActorId`] lives: a free-standing box, a slot of a group
/// slab, or another shard. Kept small (12 bytes): every shard holds one
/// per actor id.
#[derive(Clone, Copy)]
enum Slot {
    /// Free-standing actor `solos[.0]`.
    Solo(u32),
    /// Member `member` of `groups[group]`.
    Member { group: u32, member: u32 },
    /// Hosted by shard `.0` of the enclosing sharded world.
    Remote(u32),
}

const _: () = assert!(std::mem::size_of::<Slot>() <= 12);

/// A dispatch target moved out of its slot for the duration of one
/// callback (the reentrancy guard): the solo actor's box with its
/// `solos` index, or the whole group box plus the addressed member
/// index.
enum Taken<M: SimMessage> {
    Actor(usize, Box<dyn Actor<M>>),
    Group(usize, u32, Box<dyn ActorGroup<M>>),
}

/// Pending-timer bookkeeping: a generation-stamped slot map.
///
/// A [`TimerId`] packs `slot << 32 | generation`. Arming a timer claims a
/// slot at its current generation; *consuming* the id — by cancelling or
/// by firing — bumps the generation and frees the slot. A stale id (one
/// whose generation no longer matches) is simply ignored, so cancelling
/// a timer that already fired is a no-op rather than a permanently
/// leaked tombstone, and the table's size is bounded by the high-water
/// mark of *concurrently* armed timers. A pending timer event could only
/// misfire if its slot were recycled 2³² times before dispatch, which no
/// realistic run approaches.
#[derive(Default)]
struct TimerTable {
    /// Current generation per slot; odd/even carries no meaning, only
    /// equality with the id's stamp.
    gens: Vec<u32>,
    free: Vec<u32>,
    live: usize,
}

impl TimerTable {
    fn arm(&mut self) -> TimerId {
        let slot = match self.free.pop() {
            Some(s) => s,
            None => {
                self.gens.push(0);
                (self.gens.len() - 1) as u32
            }
        };
        self.live += 1;
        TimerId((u64::from(slot) << 32) | u64::from(self.gens[slot as usize]))
    }

    /// Consume `id` (cancel or fire). Returns false when the id is
    /// stale — already fired or already cancelled.
    fn take(&mut self, id: TimerId) -> bool {
        let slot = (id.0 >> 32) as usize;
        let gen = id.0 as u32;
        match self.gens.get_mut(slot) {
            Some(g) if *g == gen => {
                *g = g.wrapping_add(1);
                self.free.push(slot as u32);
                self.live -= 1;
                true
            }
            _ => false,
        }
    }
}

/// Fold one dispatched event into a running stream digest (an FNV-style
/// 64-bit mix; order-sensitive by construction).
#[inline]
fn fold_digest(h: u64, at: SimTime, kind: u64, payload: u64) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01B3;
    let mut x = h ^ at.0.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    x = x.wrapping_mul(PRIME);
    x ^= kind.rotate_left(17);
    x = x.wrapping_mul(PRIME);
    x ^= payload.rotate_left(31);
    x.wrapping_mul(PRIME)
}

/// Fail the run if any delivery violated the lookahead contract (debug
/// builds only; release builds keep the clamped events and their count).
pub(crate) fn assert_no_clamps(clamped: u64) {
    debug_assert_eq!(
        clamped, 0,
        "deliveries violated the lookahead contract (the link model delivered \
         into the past, or sooner than its min_latency)"
    );
}

/// The world handle passed to actor callbacks: the running actor's id
/// over the world hosting it. The actor itself is moved out of its slot
/// for the callback, so the handle may borrow the whole world.
pub struct Ctx<'a, M: SimMessage> {
    self_id: ActorId,
    world: &'a mut World<M>,
}

impl<'a, M: SimMessage> Runtime<M> for Ctx<'a, M> {
    #[inline]
    fn id(&self) -> ActorId {
        self.self_id
    }

    #[inline]
    fn now(&self) -> SimTime {
        self.world.now
    }

    fn actor_count(&self) -> usize {
        self.world.alive.len()
    }

    /// In a shard, kills made by other shards are visible from the next
    /// window boundary on.
    fn is_alive(&self, actor: ActorId) -> bool {
        self.world.is_alive(actor)
    }

    /// The message passes the world's link model and may be delayed,
    /// reordered relative to other pairs, or dropped.
    fn send(&mut self, to: ActorId, msg: M) {
        let w = &mut *self.world;
        let bytes = msg.wire_size();
        w.metrics.incr_id(metrics::NET_SENT_ID);
        w.metrics.add_id(metrics::NET_BYTES_SENT_ID, bytes as u64);
        let verdict = w.link.process(w.now, self.self_id, to, bytes, &mut w.rng);
        w.route(self.self_id, to, verdict, msg);
    }

    fn set_timer(&mut self, delay: SimDuration, tag: u64) -> TimerId {
        let w = &mut *self.world;
        let id = w.timers.arm();
        w.queue.push(
            w.now + delay,
            Event::Timer {
                actor: self.self_id,
                timer: id,
                tag,
            },
        );
        id
    }

    /// Invalidate the timer's slot; the queued event becomes a tombstone
    /// skipped at dispatch. Cancelling an already-fired (or already-
    /// cancelled) timer is a no-op and leaks nothing.
    fn cancel_timer(&mut self, timer: TimerId) {
        self.world.timers.take(timer);
    }

    #[inline]
    fn rng(&mut self) -> &mut SimRng {
        &mut self.world.rng
    }

    #[inline]
    fn metrics(&mut self) -> &mut Metrics {
        &mut self.world.metrics
    }

    /// Crash-stop `actor`: it receives no further messages or timers.
    /// In-flight messages *from* it still arrive (they already left).
    /// Other shards learn of the kill at the next window boundary.
    fn kill(&mut self, actor: ActorId) {
        let w = &mut *self.world;
        w.kill(actor);
        let own = w.shard as usize;
        for (dst, out) in w.out.iter_mut().enumerate() {
            if dst != own {
                out.push(Cross::Kill(actor));
            }
        }
    }

    /// Halt the world after the current callback returns (other shards
    /// finish their open window first).
    fn stop_world(&mut self) {
        self.world.stop = true;
    }

    /// Batched send: one metrics update for the whole fan-out, with link
    /// processing and routing in exact per-message order — the event
    /// stream (delivery times, sequence numbers, RNG draws) is
    /// bit-identical to `batch.len()` individual [`Runtime::send`] calls.
    fn send_batch(&mut self, batch: &mut Vec<(ActorId, M)>) {
        let w = &mut *self.world;
        let count = batch.len() as u64;
        let mut bytes = 0u64;
        for (to, msg) in batch.drain(..) {
            let size = msg.wire_size();
            bytes += size as u64;
            let verdict = w.link.process(w.now, self.self_id, to, size, &mut w.rng);
            w.route(self.self_id, to, verdict, msg);
        }
        w.metrics.add_id(metrics::NET_SENT_ID, count);
        w.metrics.add_id(metrics::NET_BYTES_SENT_ID, bytes);
    }
}

/// A point-in-time snapshot of a world's population and scheduler load —
/// the numbers shard partitioning and capacity planning need, behind one
/// stable API instead of ad-hoc field accessors.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WorldStats {
    /// Registered actors, alive or not (dense id space size).
    pub actors: usize,
    /// Actors not crash-stopped.
    pub alive: usize,
    /// Events currently pending in the queue.
    pub pending_events: usize,
    /// Timers armed but neither fired nor cancelled.
    pub pending_timers: usize,
    /// Events dispatched since construction (timers included).
    pub events_dispatched: u64,
    /// Most events ever pending at once.
    pub queue_high_water: usize,
}

/// Owns the actors and runs the event loop.
pub struct World<M: SimMessage> {
    actors: Vec<Slot>,
    /// Free-standing actors (`None` only transiently during dispatch).
    solos: Vec<Option<Box<dyn Actor<M>>>>,
    groups: Vec<Option<Box<dyn ActorGroup<M>>>>,
    alive: Vec<bool>,
    started: usize,
    pub(crate) queue: EventQueue<M>,
    link: Box<dyn LinkModel>,
    rng: SimRng,
    pub(crate) metrics: Metrics,
    now: SimTime,
    timers: TimerTable,
    pub(crate) stop: bool,
    trace: bool,
    dispatched: u64,
    digest: u64,
    /// This world's index in its sharded world (0 when standalone).
    pub(crate) shard: u32,
    /// One outbox per shard of the enclosing sharded world (own index
    /// unused); empty for a standalone world.
    pub(crate) out: Vec<Vec<Cross<M>>>,
    /// Monotone count of staged cross-shard deliveries: their tie-break.
    xseq: u64,
}

impl<M: SimMessage> World<M> {
    /// A world with the given link model and RNG seed.
    pub fn new(link: impl LinkModel + 'static, seed: u64) -> Self {
        Self::with_rng(Box::new(link), SimRng::new(seed))
    }

    /// A world drawing from `rng` (a sharded world hands each shard a
    /// forked stream).
    pub(crate) fn with_rng(link: Box<dyn LinkModel>, rng: SimRng) -> Self {
        World {
            actors: Vec::new(),
            solos: Vec::new(),
            groups: Vec::new(),
            alive: Vec::new(),
            started: 0,
            queue: EventQueue::new(),
            link,
            rng,
            metrics: Metrics::new(),
            now: SimTime::ZERO,
            timers: TimerTable::default(),
            stop: false,
            trace: false,
            dispatched: 0,
            digest: 0,
            shard: 0,
            out: Vec::new(),
            xseq: 0,
        }
    }

    /// Make this world shard `shard` of `shards`: sends to actors of
    /// other shards go to per-shard outboxes from now on.
    pub(crate) fn join_shards(&mut self, shard: usize, shards: usize) {
        self.shard = shard as u32;
        self.out = (0..shards).map(|_| Vec::new()).collect();
    }

    /// Register an actor; ids are assigned densely in registration order.
    pub fn add_actor(&mut self, actor: Box<dyn Actor<M>>) -> ActorId {
        let id = ActorId(self.actors.len() as u32);
        self.actors.push(Slot::Solo(self.solos.len() as u32));
        self.solos.push(Some(actor));
        self.alive.push(true);
        id
    }

    /// Register a group of `members` co-hosted actors; each member gets
    /// its own dense [`ActorId`] (continuing registration order), so a
    /// group of `k` members occupies the next `k` ids. Returns the first
    /// member's id. Scheduling is indistinguishable from `members`
    /// individual [`World::add_actor`] calls — only storage and the
    /// callback path differ.
    pub fn add_group(&mut self, members: usize, group: Box<dyn ActorGroup<M>>) -> ActorId {
        let first = ActorId(self.actors.len() as u32);
        let gidx = self.groups.len() as u32;
        self.groups.push(Some(group));
        for member in 0..members as u32 {
            self.actors.push(Slot::Member {
                group: gidx,
                member,
            });
            self.alive.push(true);
        }
        first
    }

    /// Reserve the next `count` ids for actors hosted by shard `home`.
    pub(crate) fn add_remote(&mut self, home: usize, count: usize) {
        for _ in 0..count {
            self.actors.push(Slot::Remote(home as u32));
            self.alive.push(true);
        }
    }

    /// Number of registered actors (alive or not).
    pub fn actor_count(&self) -> usize {
        self.actors.len()
    }

    /// Actors this world hosts itself (all of them unless it is a shard).
    pub(crate) fn hosted(&self) -> usize {
        self.actors
            .iter()
            .filter(|s| !matches!(s, Slot::Remote(_)))
            .count()
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Metric sink for this run.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Mutable metric sink (e.g. for harness-side annotations).
    pub fn metrics_mut(&mut self) -> &mut Metrics {
        &mut self.metrics
    }

    /// True if `actor` has not been killed (unknown ids are dead).
    pub fn is_alive(&self, actor: ActorId) -> bool {
        self.alive.get(actor.index()).copied().unwrap_or(false)
    }

    /// Crash-stop an actor from outside the simulation (unknown ids are
    /// a no-op).
    pub fn kill(&mut self, actor: ActorId) {
        if let Some(a) = self.alive.get_mut(actor.index()) {
            *a = false;
        }
    }

    /// Borrow a registered *solo* actor as a trait object for inspection.
    /// Group members have no per-member `dyn Actor` box; use
    /// [`World::actor_any`] / [`World::actor_as`], which resolve both.
    pub fn actor_as_dyn(&self, id: ActorId) -> Option<&dyn Actor<M>> {
        match self.actors.get(id.index())? {
            Slot::Solo(i) => self.solos[*i as usize].as_deref(),
            _ => None,
        }
    }

    /// Borrow any actor this world hosts — solo or group member — as
    /// `Any` for post-run inspection.
    pub fn actor_any(&self, id: ActorId) -> Option<&dyn Any> {
        match self.actors.get(id.index())? {
            Slot::Solo(i) => self.solos[*i as usize].as_deref().map(|a| a.as_any()),
            Slot::Member { group, member } => self
                .groups
                .get(*group as usize)
                .and_then(|g| g.as_deref())
                .map(|g| g.member_as_any(*member)),
            Slot::Remote(_) => None,
        }
    }

    /// Downcast a registered actor to its concrete type for inspection.
    pub fn actor_as<T: 'static>(&self, id: ActorId) -> Option<&T> {
        self.actor_any(id).and_then(|a| a.downcast_ref::<T>())
    }

    /// Queue a link verdict on a message `from → to`: into this world's
    /// queue, or into the outbox of the shard hosting `to`. A delivery
    /// into the past (a link model bug) is clamped to `now` and counted
    /// under [`CLAMPED_CROSS_EVENTS`].
    #[inline]
    fn route(&mut self, from: ActorId, to: ActorId, verdict: LinkVerdict, msg: M) {
        let LinkVerdict::Deliver(mut at) = verdict else {
            self.metrics.incr_id(metrics::NET_DROPPED_ID);
            return;
        };
        if at < self.now {
            self.metrics.incr(CLAMPED_CROSS_EVENTS);
            at = self.now;
        }
        if !self.out.is_empty() {
            if let Some(&Slot::Remote(home)) = self.actors.get(to.index()) {
                let seq = self.xseq;
                self.xseq += 1;
                let cross = Cross::Deliver {
                    at,
                    seq,
                    from,
                    to,
                    msg,
                };
                self.out[home as usize].push(cross);
                return;
            }
        }
        self.queue.push(at, Event::Deliver { from, to, msg });
    }

    /// Run one callback of the actor `id` hosts here, with the actor moved
    /// out of its slot for the duration (unknown, remote or mid-dispatch
    /// ids are skipped).
    #[inline]
    fn with_target(&mut self, id: ActorId, f: impl FnOnce(&mut Taken<M>, &mut Ctx<'_, M>)) {
        let taken = match self.actors.get(id.index()).copied() {
            Some(Slot::Solo(i)) => self.solos[i as usize]
                .take()
                .map(|a| Taken::Actor(i as usize, a)),
            Some(Slot::Member { group, member }) => {
                let g = group as usize;
                self.groups[g].take().map(|b| Taken::Group(g, member, b))
            }
            _ => None,
        };
        let Some(mut taken) = taken else {
            return;
        };
        f(
            &mut taken,
            &mut Ctx {
                self_id: id,
                world: self,
            },
        );
        match taken {
            Taken::Actor(i, a) => self.solos[i] = Some(a),
            Taken::Group(g, _, b) => self.groups[g] = Some(b),
        }
    }

    /// Run pending `on_start` callbacks in registration order.
    pub(crate) fn start_pending(&mut self) {
        while self.started < self.actors.len() {
            let id = ActorId(self.started as u32);
            self.started += 1;
            if self.is_alive(id) {
                self.with_target(id, |t, ctx| match t {
                    Taken::Actor(_, a) => a.on_start(ctx),
                    Taken::Group(_, m, g) => g.on_start(ctx, *m),
                });
            }
        }
    }

    /// Dispatch a single event if one is pending at or before `limit`.
    /// Returns false when nothing was dispatched (empty queue, past the
    /// limit, or the world was stopped).
    pub fn step(&mut self, limit: SimTime) -> bool {
        self.start_pending();
        if self.stop {
            return false;
        }
        let Some((at, event)) = self.queue.pop_at_or_before(limit) else {
            return false;
        };
        debug_assert!(at >= self.now, "time went backwards");
        self.now = at;
        self.dispatched += 1;
        if self.trace {
            match &event {
                Event::Deliver { from, to, .. } => {
                    eprintln!("[{at:?}] deliver {from} -> {to}");
                }
                Event::Timer { actor, tag, .. } => {
                    eprintln!("[{at:?}] timer {actor} tag={tag}");
                }
            }
        }
        match event {
            Event::Deliver { from, to, msg } => {
                let pair = (u64::from(from.0) << 32) | u64::from(to.0);
                self.digest = fold_digest(self.digest, at, 1, pair);
                if !self.is_alive(to) {
                    self.metrics.incr_id(metrics::NET_TO_DEAD_ID);
                    return true;
                }
                self.metrics.incr_id(metrics::NET_DELIVERED_ID);
                self.with_target(to, |t, ctx| match t {
                    Taken::Actor(_, a) => a.on_message(ctx, from, msg),
                    Taken::Group(_, m, g) => g.on_message(ctx, *m, from, msg),
                });
            }
            Event::Timer { actor, timer, tag } => {
                let key = (u64::from(actor.0) << 32) ^ tag;
                self.digest = fold_digest(self.digest, at, 2, key);
                // A stale id means the timer was cancelled (or the slot
                // already consumed); firing consumes it either way.
                if self.timers.take(timer) && self.is_alive(actor) {
                    self.with_target(actor, |t, ctx| match t {
                        Taken::Actor(_, a) => a.on_timer(ctx, timer, tag),
                        Taken::Group(_, m, g) => g.on_timer(ctx, *m, timer, tag),
                    });
                }
            }
        }
        true
    }

    /// Enable/disable stderr tracing of every dispatched event (debug aid).
    pub fn set_trace(&mut self, on: bool) {
        self.trace = on;
    }

    /// Run until the queue drains, an actor stops the world, virtual time
    /// would pass `limit`, or `max_events` events have been dispatched.
    /// Returns the number of events dispatched.
    pub fn run_events(&mut self, limit: SimTime, max_events: u64) -> u64 {
        let mut n = 0;
        while n < max_events && self.step(limit) {
            n += 1;
        }
        n
    }

    /// Run until the queue drains, an actor stops the world, or virtual
    /// time would pass `limit`. Returns the virtual time reached.
    ///
    /// Unless an actor called `stop_world` (in which case time stays at
    /// the stopping event), the clock always advances to `limit` — both
    /// when events remain past it *and* when the queue drains early, so
    /// `run_until(t)` behaves like "simulate through instant `t`" rather
    /// than "stop at whatever happened last". The one exception is
    /// `limit == SimTime::MAX`, the [`World::run`] sentinel meaning "no
    /// limit", where time stays at the last dispatched event.
    ///
    /// # Panics
    /// Under `debug_assertions`, if the link model delivered a message
    /// into the past (see [`World::clamped_events`]).
    pub fn run_until(&mut self, limit: SimTime) -> SimTime {
        while self.step(limit) {}
        if !self.stop && limit != SimTime::MAX && self.now < limit {
            self.now = limit;
        }
        assert_no_clamps(self.clamped_events());
        self.now
    }

    /// Run until the queue drains or an actor stops the world.
    pub fn run(&mut self) -> SimTime {
        self.run_until(SimTime::MAX)
    }

    /// Number of events still pending.
    pub fn pending_events(&self) -> usize {
        self.queue.len()
    }

    /// Number of timers currently armed (set but neither fired nor
    /// cancelled).
    pub fn pending_timers(&self) -> usize {
        self.timers.live
    }

    /// Size of the timer bookkeeping table: the high-water mark of
    /// *concurrently* armed timers. Stays flat under fire/cancel churn —
    /// the leak-regression tests assert on this.
    pub fn timer_slots(&self) -> usize {
        self.timers.gens.len()
    }

    /// Pre-reserve queue capacity for a run expected to hold up to
    /// `events` simultaneous pending events (purely an allocation hint;
    /// has no observable effect on scheduling).
    pub fn reserve_events(&mut self, events: usize) {
        self.queue.reserve(events);
    }

    /// Total events dispatched since construction (timers included).
    pub fn events_dispatched(&self) -> u64 {
        self.dispatched
    }

    /// Order-sensitive digest of every event dispatched so far: identical
    /// for identical runs, and a cheap fingerprint for determinism gates.
    pub fn event_digest(&self) -> u64 {
        self.digest
    }

    /// Deliveries that violated the link's lookahead contract and were
    /// clamped (always zero for honest link models).
    pub fn clamped_events(&self) -> u64 {
        self.metrics.counter(CLAMPED_CROSS_EVENTS)
    }

    /// Most events that were ever pending at once (sizing diagnostics).
    pub fn queue_high_water(&self) -> usize {
        self.queue.high_water()
    }

    /// Population and scheduler-load snapshot (see [`WorldStats`]).
    pub fn stats(&self) -> WorldStats {
        WorldStats {
            actors: self.actors.len(),
            alive: self.alive.iter().filter(|a| **a).count(),
            pending_events: self.queue.len(),
            pending_timers: self.timers.live,
            events_dispatched: self.dispatched,
            queue_high_water: self.queue.high_water(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::FixedLatency;

    #[derive(Clone, Debug, PartialEq)]
    struct Ping(u32);
    impl SimMessage for Ping {
        fn wire_size(&self) -> usize {
            4
        }
    }

    /// Sends `count` pings to a target on start, one per millisecond.
    struct Pinger {
        target: ActorId,
        count: u32,
    }
    impl Actor<Ping> for Pinger {
        fn on_start(&mut self, ctx: &mut dyn Runtime<Ping>) {
            for i in 0..self.count {
                ctx.set_timer(SimDuration::from_millis(u64::from(i) + 1), u64::from(i));
            }
        }
        fn on_message(&mut self, _ctx: &mut dyn Runtime<Ping>, _from: ActorId, _msg: Ping) {}
        fn on_timer(&mut self, ctx: &mut dyn Runtime<Ping>, _timer: TimerId, tag: u64) {
            ctx.send(self.target, Ping(tag as u32));
        }
        impl_as_any!();
    }

    /// Records what it receives and when.
    #[derive(Default)]
    struct Sink {
        got: Vec<(u64, u32)>,
    }
    impl Actor<Ping> for Sink {
        fn on_message(&mut self, ctx: &mut dyn Runtime<Ping>, _from: ActorId, msg: Ping) {
            self.got.push((ctx.now().as_nanos(), msg.0));
        }
        impl_as_any!();
    }

    fn build(latency_ms: u64, pings: u32) -> (World<Ping>, ActorId, ActorId) {
        let mut w = World::new(
            FixedLatency::new(SimDuration::from_millis(latency_ms)),
            1234,
        );
        let sink = w.add_actor(Box::new(Sink::default()));
        let pinger = w.add_actor(Box::new(Pinger {
            target: sink,
            count: pings,
        }));
        (w, pinger, sink)
    }

    #[test]
    fn messages_arrive_after_latency_in_order() {
        let (mut w, _pinger, sink) = build(5, 3);
        w.run();
        let s: &Sink = w.actor_as(sink).unwrap();
        assert_eq!(s.got, vec![(6_000_000, 0), (7_000_000, 1), (8_000_000, 2)]);
        assert_eq!(w.metrics().counter(metrics::NET_SENT), 3);
        assert_eq!(w.metrics().counter(metrics::NET_DELIVERED), 3);
        assert_eq!(w.metrics().counter(metrics::NET_BYTES_SENT), 12);
    }

    #[test]
    fn identical_seeds_give_identical_runs() {
        let (mut w1, _, s1) = build(5, 10);
        let (mut w2, _, s2) = build(5, 10);
        w1.run();
        w2.run();
        let a: &Sink = w1.actor_as(s1).unwrap();
        let b: &Sink = w2.actor_as(s2).unwrap();
        assert_eq!(a.got, b.got);
    }

    #[test]
    fn run_until_stops_at_limit() {
        let (mut w, _, sink) = build(5, 3);
        let reached = w.run_until(SimTime(6_500_000));
        assert_eq!(reached, SimTime(6_500_000));
        let s: &Sink = w.actor_as(sink).unwrap();
        assert_eq!(s.got.len(), 1, "only the first ping fits before limit");
        // Resume to completion.
        w.run();
        let s: &Sink = w.actor_as(sink).unwrap();
        assert_eq!(s.got.len(), 3);
    }

    #[test]
    fn run_until_advances_to_limit_when_queue_drains_early() {
        // All three pings complete by t=8ms; the clock must still report
        // the requested horizon, matching the events-remain case above.
        let (mut w, _, sink) = build(5, 3);
        let reached = w.run_until(SimTime(50_000_000));
        assert_eq!(reached, SimTime(50_000_000));
        assert_eq!(w.now(), SimTime(50_000_000));
        let s: &Sink = w.actor_as(sink).unwrap();
        assert_eq!(s.got.len(), 3, "queue drained before the limit");
        // run() (the MAX sentinel) keeps reporting the last event time.
        let (mut w2, _, _) = build(5, 3);
        let end = w2.run();
        assert_eq!(end, SimTime(8_000_000));
    }

    #[test]
    fn killed_actor_receives_nothing() {
        let (mut w, _, sink) = build(5, 3);
        w.kill(sink);
        w.run();
        let s: &Sink = w.actor_as(sink).unwrap();
        assert!(s.got.is_empty());
        assert_eq!(w.metrics().counter(metrics::NET_TO_DEAD), 3);
    }

    #[test]
    fn cancelled_timer_never_fires() {
        struct Canceller {
            fired: bool,
        }
        impl Actor<Ping> for Canceller {
            fn on_start(&mut self, ctx: &mut dyn Runtime<Ping>) {
                let t = ctx.set_timer(SimDuration::from_millis(1), 7);
                ctx.cancel_timer(t);
                ctx.set_timer(SimDuration::from_millis(2), 8);
            }
            fn on_message(&mut self, _: &mut dyn Runtime<Ping>, _: ActorId, _: Ping) {}
            fn on_timer(&mut self, _: &mut dyn Runtime<Ping>, _: TimerId, tag: u64) {
                assert_eq!(tag, 8, "cancelled timer fired");
                self.fired = true;
            }
            impl_as_any!();
        }
        let mut w: World<Ping> = World::new(FixedLatency::new(SimDuration::ZERO), 9);
        let id = w.add_actor(Box::new(Canceller { fired: false }));
        w.run();
        assert!(w.actor_as::<Canceller>(id).unwrap().fired);
    }

    #[test]
    fn cancel_after_fire_leaks_no_bookkeeping() {
        // Each tick cancels the timer that *already fired* last tick —
        // the exact race that leaked a `cancelled`-set entry per cancel
        // under the old tombstone HashSet. With the generation-stamped
        // table the stale cancel is a no-op and the single slot is
        // reused for all 200 timers.
        struct PostFireCanceller {
            prev: Option<TimerId>,
            fired: u32,
        }
        impl Actor<Ping> for PostFireCanceller {
            fn on_start(&mut self, ctx: &mut dyn Runtime<Ping>) {
                ctx.set_timer(SimDuration::from_millis(1), 0);
            }
            fn on_message(&mut self, _: &mut dyn Runtime<Ping>, _: ActorId, _: Ping) {}
            fn on_timer(&mut self, ctx: &mut dyn Runtime<Ping>, timer: TimerId, tag: u64) {
                if let Some(p) = self.prev.take() {
                    ctx.cancel_timer(p); // fired a whole tick ago
                }
                ctx.cancel_timer(timer); // fired just now
                self.fired += 1;
                if tag < 199 {
                    let next = ctx.set_timer(SimDuration::from_millis(1), tag + 1);
                    self.prev = Some(next);
                }
            }
            impl_as_any!();
        }
        let mut w: World<Ping> = World::new(FixedLatency::new(SimDuration::ZERO), 5);
        let id = w.add_actor(Box::new(PostFireCanceller {
            prev: None,
            fired: 0,
        }));
        w.run();
        assert_eq!(w.actor_as::<PostFireCanceller>(id).unwrap().fired, 200);
        assert_eq!(w.pending_timers(), 0);
        assert_eq!(
            w.timer_slots(),
            1,
            "post-fire cancels must not grow timer bookkeeping"
        );
    }

    #[test]
    fn reused_timer_slots_still_give_unique_ids() {
        // Fire-then-rearm reuses the same slot; the generation stamp
        // must still make every armed id distinct from its predecessor,
        // so actors comparing stored ids by equality never confuse two
        // timers.
        struct Rearm {
            seen: Vec<TimerId>,
        }
        impl Actor<Ping> for Rearm {
            fn on_start(&mut self, ctx: &mut dyn Runtime<Ping>) {
                ctx.set_timer(SimDuration::from_millis(1), 0);
            }
            fn on_message(&mut self, _: &mut dyn Runtime<Ping>, _: ActorId, _: Ping) {}
            fn on_timer(&mut self, ctx: &mut dyn Runtime<Ping>, timer: TimerId, tag: u64) {
                self.seen.push(timer);
                if tag < 9 {
                    ctx.set_timer(SimDuration::from_millis(1), tag + 1);
                }
            }
            impl_as_any!();
        }
        let mut w: World<Ping> = World::new(FixedLatency::new(SimDuration::ZERO), 5);
        let id = w.add_actor(Box::new(Rearm { seen: Vec::new() }));
        w.run();
        let seen = &w.actor_as::<Rearm>(id).unwrap().seen;
        assert_eq!(seen.len(), 10);
        let mut dedup = seen.clone();
        dedup.sort_by_key(|t| t.0);
        dedup.dedup();
        assert_eq!(dedup.len(), 10, "timer ids must be unique across reuse");
        assert_eq!(w.timer_slots(), 1, "all ten timers shared one slot");
    }

    #[test]
    fn stop_world_halts_immediately() {
        struct Stopper;
        impl Actor<Ping> for Stopper {
            fn on_start(&mut self, ctx: &mut dyn Runtime<Ping>) {
                ctx.set_timer(SimDuration::from_millis(1), 0);
                ctx.set_timer(SimDuration::from_millis(2), 1);
            }
            fn on_message(&mut self, _: &mut dyn Runtime<Ping>, _: ActorId, _: Ping) {}
            fn on_timer(&mut self, ctx: &mut dyn Runtime<Ping>, _: TimerId, tag: u64) {
                assert_eq!(tag, 0, "ran past stop_world");
                ctx.stop_world();
            }
            impl_as_any!();
        }
        let mut w: World<Ping> = World::new(FixedLatency::new(SimDuration::ZERO), 9);
        w.add_actor(Box::new(Stopper));
        w.run();
        assert_eq!(w.pending_events(), 1, "second timer left undispatched");
    }

    #[test]
    fn sim_time_never_goes_backwards() {
        struct Clocked {
            last: SimTime,
        }
        impl Actor<Ping> for Clocked {
            fn on_start(&mut self, ctx: &mut dyn Runtime<Ping>) {
                for i in 0..100 {
                    let us = ctx.rng().gen_range(1, 1000);
                    ctx.set_timer(SimDuration::from_micros(us), i);
                }
            }
            fn on_message(&mut self, _: &mut dyn Runtime<Ping>, _: ActorId, _: Ping) {}
            fn on_timer(&mut self, ctx: &mut dyn Runtime<Ping>, _: TimerId, _: u64) {
                assert!(ctx.now() >= self.last);
                self.last = ctx.now();
            }
            impl_as_any!();
        }
        let mut w: World<Ping> = World::new(FixedLatency::new(SimDuration::ZERO), 77);
        w.add_actor(Box::new(Clocked {
            last: SimTime::ZERO,
        }));
        w.run();
    }
}
