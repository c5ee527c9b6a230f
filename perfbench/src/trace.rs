//! Outside-in per-layer tracing: wrappers around each layer's public
//! trait that time the calls crossing the layer boundary.
//!
//! - [`TracedGroup`] wraps an [`ActorGroup`] (the protocol `Plane`) and
//!   times its handlers by message kind;
//! - [`TracedActor`] wraps an [`Actor`] (the leaf);
//! - [`TracedRuntime`] wraps the `ctx` handed to a handler and times the
//!   event-queue calls the handler makes (`send`, `set_timer`);
//! - [`TracedLink`] wraps a [`LinkModel`] and times `process`.
//!
//! Every wrapper forwards each call unchanged, so a traced world
//! dispatches exactly the events of an untraced one. Each keeps its own
//! plain counters (no atomics on the hot path) and adds them to a
//! per-shard slot of a shared [`TraceSink`] when the world drops it.

use std::any::Any;
use std::cell::Cell;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use mss_core::msg::Msg;
use mss_sim::event::{ActorId, TimerId};
use mss_sim::link::{LinkModel, LinkVerdict};
use mss_sim::metrics::Metrics;
use mss_sim::rng::SimRng;
use mss_sim::time::{SimDuration, SimTime};
use mss_sim::world::{Actor, ActorGroup, Runtime};

/// Handler buckets: the protocol plane by message kind, then the leaf.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Bucket {
    PlaneRequest,
    PlaneControl,
    PlaneReply,
    PlaneNack,
    PlaneTimer,
    /// Starts and any message kind the protocols do not route to peers.
    PlaneOther,
    LeafData,
    LeafTimer,
    /// The leaf's start (initial requests) and non-data messages.
    LeafOther,
}

const BUCKETS: usize = 9;

impl Bucket {
    fn plane_message(msg: &Msg) -> Bucket {
        match msg {
            Msg::Request(_) => Bucket::PlaneRequest,
            Msg::Control(_) => Bucket::PlaneControl,
            Msg::Reply(_) => Bucket::PlaneReply,
            Msg::Nack(_) => Bucket::PlaneNack,
            _ => Bucket::PlaneOther,
        }
    }

    fn leaf_message(msg: &Msg) -> Bucket {
        match msg {
            Msg::Data(_) => Bucket::LeafData,
            _ => Bucket::LeafOther,
        }
    }
}

/// Counters and nanosecond totals of one layer boundary (or the sum of
/// several).
#[derive(Clone, Debug, Default)]
pub struct Acc {
    /// Handler calls per [`Bucket`].
    pub calls: [u64; BUCKETS],
    /// Handler time per bucket, minus the runtime calls it made.
    pub self_ns: [u64; BUCKETS],
    /// Handler time including the runtime calls (busy time).
    pub handler_ns: u64,
    /// `Runtime::send` messages (a batch counts each message).
    pub send_calls: u64,
    /// Time inside `send`/`send_batch`, link time included.
    pub send_ns: u64,
    /// Link time spent inside those sends.
    pub send_link_ns: u64,
    /// `Runtime::set_timer` calls.
    pub timer_calls: u64,
    /// Time inside `set_timer` and `cancel_timer`.
    pub timer_ns: u64,
    /// `LinkModel::process` calls.
    pub link_calls: u64,
    /// Time inside `LinkModel::process`.
    pub link_ns: u64,
}

impl Acc {
    pub fn add(&mut self, o: &Acc) {
        for b in 0..BUCKETS {
            self.calls[b] += o.calls[b];
            self.self_ns[b] += o.self_ns[b];
        }
        self.handler_ns += o.handler_ns;
        self.send_calls += o.send_calls;
        self.send_ns += o.send_ns;
        self.send_link_ns += o.send_link_ns;
        self.timer_calls += o.timer_calls;
        self.timer_ns += o.timer_ns;
        self.link_calls += o.link_calls;
        self.link_ns += o.link_ns;
    }

    pub fn calls(&self, b: Bucket) -> u64 {
        self.calls[b as usize]
    }

    pub fn self_ns(&self, b: Bucket) -> u64 {
        self.self_ns[b as usize]
    }

    fn record(&mut self, b: Bucket, total_ns: u64, runtime_ns: u64) {
        self.calls[b as usize] += 1;
        self.self_ns[b as usize] += total_ns.saturating_sub(runtime_ns);
        self.handler_ns += total_ns;
    }
}

/// Where wrappers deposit their counters: one [`Acc`] per shard.
#[derive(Clone)]
pub struct TraceSink {
    shards: Arc<Mutex<Vec<Acc>>>,
}

impl TraceSink {
    pub fn new(shards: usize) -> TraceSink {
        TraceSink {
            shards: Arc::new(Mutex::new(vec![Acc::default(); shards])),
        }
    }

    /// The per-shard totals deposited so far (complete once the world
    /// holding the wrappers has been dropped).
    pub fn per_shard(&self) -> Vec<Acc> {
        self.shards.lock().expect("trace sink poisoned").clone()
    }

    fn deposit(&self, shard: usize, acc: &Acc) {
        // Called from Drop: never panic, a poisoned sink only loses data.
        if let Ok(mut s) = self.shards.lock() {
            if let Some(slot) = s.get_mut(shard) {
                slot.add(acc);
            }
        }
    }
}

thread_local! {
    /// Link nanoseconds spent on this thread, so a send can subtract the
    /// link time that happened inside it.
    static LINK_NS: Cell<u64> = const { Cell::new(0) };
}

fn link_ns_now() -> u64 {
    LINK_NS.with(Cell::get)
}

fn ns_since(t0: Instant) -> u64 {
    t0.elapsed().as_nanos() as u64
}

/// The `ctx` of one handler call, timed.
pub struct TracedRuntime<'a> {
    inner: &'a mut dyn Runtime<Msg>,
    acc: &'a mut Acc,
    capture: Option<&'a Captured>,
    /// Time spent inside runtime calls during this handler call.
    runtime_ns: u64,
}

impl<'a> TracedRuntime<'a> {
    fn new(
        inner: &'a mut dyn Runtime<Msg>,
        acc: &'a mut Acc,
        capture: Option<&'a Captured>,
    ) -> TracedRuntime<'a> {
        TracedRuntime {
            inner,
            acc,
            capture,
            runtime_ns: 0,
        }
    }

    fn capture(&self, msg: &Msg) {
        if let Some(c) = self.capture {
            c.0.lock()
                .expect("capture poisoned")
                .push((self.inner.id(), msg.clone()));
        }
    }
}

impl Runtime<Msg> for TracedRuntime<'_> {
    fn id(&self) -> ActorId {
        self.inner.id()
    }

    fn now(&self) -> SimTime {
        self.inner.now()
    }

    fn actor_count(&self) -> usize {
        self.inner.actor_count()
    }

    fn is_alive(&self, actor: ActorId) -> bool {
        self.inner.is_alive(actor)
    }

    fn send(&mut self, to: ActorId, msg: Msg) {
        self.capture(&msg);
        let l0 = link_ns_now();
        let t0 = Instant::now();
        self.inner.send(to, msg);
        let d = ns_since(t0);
        self.acc.send_calls += 1;
        self.acc.send_ns += d;
        self.acc.send_link_ns += link_ns_now() - l0;
        self.runtime_ns += d;
    }

    fn send_batch(&mut self, batch: &mut Vec<(ActorId, Msg)>) {
        if self.capture.is_some() {
            for (_, m) in batch.iter() {
                self.capture(m);
            }
        }
        let count = batch.len() as u64;
        let l0 = link_ns_now();
        let t0 = Instant::now();
        self.inner.send_batch(batch);
        let d = ns_since(t0);
        self.acc.send_calls += count;
        self.acc.send_ns += d;
        self.acc.send_link_ns += link_ns_now() - l0;
        self.runtime_ns += d;
    }

    fn set_timer(&mut self, delay: SimDuration, tag: u64) -> TimerId {
        let t0 = Instant::now();
        let id = self.inner.set_timer(delay, tag);
        let d = ns_since(t0);
        self.acc.timer_calls += 1;
        self.acc.timer_ns += d;
        self.runtime_ns += d;
        id
    }

    fn cancel_timer(&mut self, timer: TimerId) {
        let t0 = Instant::now();
        self.inner.cancel_timer(timer);
        let d = ns_since(t0);
        self.acc.timer_ns += d;
        self.runtime_ns += d;
    }

    fn rng(&mut self) -> &mut SimRng {
        self.inner.rng()
    }

    fn metrics(&mut self) -> &mut Metrics {
        self.inner.metrics()
    }

    fn kill(&mut self, actor: ActorId) {
        self.inner.kill(actor)
    }

    fn stop_world(&mut self) {
        self.inner.stop_world()
    }
}

/// Times one handler call of a wrapped layer and files it under `b`.
fn timed(
    acc: &mut Acc,
    capture: Option<&Captured>,
    ctx: &mut dyn Runtime<Msg>,
    b: Bucket,
    call: impl FnOnce(&mut dyn Runtime<Msg>),
) {
    let t0 = Instant::now();
    let mut rt = TracedRuntime::new(ctx, acc, capture);
    call(&mut rt);
    let runtime_ns = rt.runtime_ns;
    acc.record(b, ns_since(t0), runtime_ns);
}

/// An [`ActorGroup`] (the protocol plane) with timed handlers.
pub struct TracedGroup<G: ActorGroup<Msg>> {
    inner: G,
    acc: Acc,
    capture: Option<Captured>,
    sink: TraceSink,
    shard: usize,
}

impl<G: ActorGroup<Msg>> TracedGroup<G> {
    pub fn new(inner: G, sink: TraceSink, shard: usize, capture: Option<Captured>) -> Self {
        TracedGroup {
            inner,
            acc: Acc::default(),
            capture,
            sink,
            shard,
        }
    }
}

impl<G: ActorGroup<Msg>> ActorGroup<Msg> for TracedGroup<G> {
    fn on_start(&mut self, ctx: &mut dyn Runtime<Msg>, member: u32) {
        let inner = &mut self.inner;
        timed(
            &mut self.acc,
            self.capture.as_ref(),
            ctx,
            Bucket::PlaneOther,
            |rt| inner.on_start(rt, member),
        );
    }

    fn on_message(&mut self, ctx: &mut dyn Runtime<Msg>, member: u32, from: ActorId, msg: Msg) {
        let inner = &mut self.inner;
        let b = Bucket::plane_message(&msg);
        timed(&mut self.acc, self.capture.as_ref(), ctx, b, |rt| {
            inner.on_message(rt, member, from, msg)
        });
    }

    fn on_timer(&mut self, ctx: &mut dyn Runtime<Msg>, member: u32, timer: TimerId, tag: u64) {
        let inner = &mut self.inner;
        timed(
            &mut self.acc,
            self.capture.as_ref(),
            ctx,
            Bucket::PlaneTimer,
            |rt| inner.on_timer(rt, member, timer, tag),
        );
    }

    fn member_as_any(&self, member: u32) -> &dyn Any {
        self.inner.member_as_any(member)
    }
}

impl<G: ActorGroup<Msg>> Drop for TracedGroup<G> {
    fn drop(&mut self) {
        self.sink.deposit(self.shard, &self.acc);
    }
}

/// An [`Actor`] (the leaf) with timed handlers.
pub struct TracedActor<A: Actor<Msg>> {
    inner: A,
    acc: Acc,
    capture: Option<Captured>,
    sink: TraceSink,
    shard: usize,
}

impl<A: Actor<Msg>> TracedActor<A> {
    pub fn new(inner: A, sink: TraceSink, shard: usize, capture: Option<Captured>) -> Self {
        TracedActor {
            inner,
            acc: Acc::default(),
            capture,
            sink,
            shard,
        }
    }
}

impl<A: Actor<Msg>> Actor<Msg> for TracedActor<A> {
    fn on_start(&mut self, ctx: &mut dyn Runtime<Msg>) {
        let inner = &mut self.inner;
        timed(
            &mut self.acc,
            self.capture.as_ref(),
            ctx,
            Bucket::LeafOther,
            |rt| inner.on_start(rt),
        );
    }

    fn on_message(&mut self, ctx: &mut dyn Runtime<Msg>, from: ActorId, msg: Msg) {
        let inner = &mut self.inner;
        let b = Bucket::leaf_message(&msg);
        timed(&mut self.acc, self.capture.as_ref(), ctx, b, |rt| {
            inner.on_message(rt, from, msg)
        });
    }

    fn on_timer(&mut self, ctx: &mut dyn Runtime<Msg>, timer: TimerId, tag: u64) {
        let inner = &mut self.inner;
        timed(
            &mut self.acc,
            self.capture.as_ref(),
            ctx,
            Bucket::LeafTimer,
            |rt| inner.on_timer(rt, timer, tag),
        );
    }

    fn as_any(&self) -> &dyn Any {
        self.inner.as_any()
    }
}

impl<A: Actor<Msg>> Drop for TracedActor<A> {
    fn drop(&mut self) {
        self.sink.deposit(self.shard, &self.acc);
    }
}

/// A [`LinkModel`] whose `process` calls are timed.
pub struct TracedLink<L> {
    inner: L,
    acc: Acc,
    sink: TraceSink,
    shard: usize,
}

impl<L: LinkModel> TracedLink<L> {
    pub fn new(inner: L, sink: TraceSink, shard: usize) -> Self {
        TracedLink {
            inner,
            acc: Acc::default(),
            sink,
            shard,
        }
    }
}

impl<L: LinkModel> LinkModel for TracedLink<L> {
    fn process(
        &mut self,
        now: SimTime,
        from: ActorId,
        to: ActorId,
        bytes: usize,
        rng: &mut SimRng,
    ) -> LinkVerdict {
        let t0 = Instant::now();
        let v = self.inner.process(now, from, to, bytes, rng);
        let d = ns_since(t0);
        self.acc.link_calls += 1;
        self.acc.link_ns += d;
        LINK_NS.with(|c| c.set(c.get() + d));
        v
    }

    fn min_latency(&self) -> SimDuration {
        self.inner.min_latency()
    }
}

impl<L> Drop for TracedLink<L> {
    fn drop(&mut self) {
        self.sink.deposit(self.shard, &self.acc);
    }
}

/// A shared buffer collecting every message the wrapped handlers send,
/// with its sender (the wire-codec input mix). Capturing clones each
/// message, so timed runs leave it off.
#[derive(Clone, Default)]
pub struct Captured(pub Arc<Mutex<Vec<(ActorId, Msg)>>>);

impl Captured {
    pub fn take(&self) -> Vec<(ActorId, Msg)> {
        std::mem::take(&mut *self.0.lock().expect("capture poisoned"))
    }
}
