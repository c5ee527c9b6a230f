//! One simulated session: its inputs ([`Spec`]), its untraced run through
//! the program's public `Session` API, and a traced twin assembled
//! exactly as `Session` assembles its world, with each layer wrapped.

use std::sync::Arc;
use std::time::Instant;

use mss_core::config::{Protocol, SessionConfig};
use mss_core::dcop::DcopPeer;
use mss_core::leaf::LeafActor;
use mss_core::msg::Msg;
use mss_core::peer_core::PeerReport;
use mss_core::plane::Plane;
use mss_core::session::{peer_reports, shard_blocks, sharded_peer_reports, Session};
use mss_core::tcop::TcopPeer;
use mss_overlay::{Directory, PeerId};
use mss_sim::event::{ActorId, TimerId};
use mss_sim::link::{GilbertElliott, JitterLatency, LinkModel};
use mss_sim::metrics::Metrics;
use mss_sim::shard::{ShardStats, ShardedWorld};
use mss_sim::time::{SimDuration, SimTime};
use mss_sim::world::{Actor, ActorGroup, Runtime, World};

use crate::trace::{Captured, TraceSink, TracedActor, TracedGroup, TracedLink};

/// The network model of a session.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Link {
    /// The program's default link: 1 ms base plus up to 1 ms jitter.
    Default,
    /// Gilbert–Elliott bursty loss over the default link on every edge.
    Bursty {
        p_gb: f64,
        p_bg: f64,
        loss_good: f64,
        loss_bad: f64,
    },
}

/// The program's default link, as `Session` builds it.
fn jitter() -> JitterLatency {
    JitterLatency {
        base: SimDuration::from_millis(1),
        jitter: SimDuration::from_millis(1),
    }
}

impl Link {
    fn build(self) -> Box<dyn LinkModel + Send> {
        match self {
            Link::Default => Box::new(jitter()),
            Link::Bursty {
                p_gb,
                p_bg,
                loss_good,
                loss_bad,
            } => Box::new(GilbertElliott::new(
                p_gb,
                p_bg,
                loss_good,
                loss_bad,
                jitter(),
            )),
        }
    }
}

/// The inputs of one simulated session.
#[derive(Clone, Debug)]
pub struct Spec {
    pub label: &'static str,
    pub protocol: Protocol,
    pub cfg: SessionConfig,
    pub link: Link,
    pub faults: Vec<(SimDuration, PeerId)>,
    /// 1 = the single-threaded `World`; more = `ShardedWorld`.
    pub shards: usize,
    /// Simulated-time guard so a stuck session ends.
    pub limit: SimDuration,
}

impl Spec {
    pub fn session(&self) -> Session {
        let mut s = Session::new(self.cfg.clone(), self.protocol).time_limit(self.limit);
        for &(at, p) in &self.faults {
            s = s.fault(at, p);
        }
        match self.link {
            Link::Default => s.shards(self.shards),
            link => s.link_factory(move || link.build()).shards(self.shards),
        }
    }
}

/// What one finished session leaves behind, whichever way it ran.
#[derive(Clone, Debug, PartialEq)]
pub struct Finished {
    pub events: u64,
    /// Event-stream digest (sharded runs only).
    pub digest: Option<u64>,
    pub counters: Vec<(String, u64)>,
    pub reports: Vec<PeerReport>,
    pub leaf: LeafSummary,
    pub shard_stats: Vec<ShardFigures>,
    /// Single world: the most events ever pending at once.
    pub queue_high_water: Option<usize>,
}

/// A shard's load counters (`ShardStats`, comparable).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ShardFigures {
    pub actors: usize,
    pub dispatched: u64,
    pub windows: u64,
    pub cross_sent: u64,
    pub pending_events: usize,
    pub clamped: u64,
}

fn shard_figures(stats: Vec<ShardStats>) -> Vec<ShardFigures> {
    stats
        .into_iter()
        .map(|s| ShardFigures {
            actors: s.actors,
            dispatched: s.dispatched,
            windows: s.windows,
            cross_sent: s.cross_sent,
            pending_events: s.pending_events,
            clamped: s.clamped,
        })
        .collect()
}

#[derive(Clone, Debug, PartialEq)]
pub struct LeafSummary {
    pub complete: bool,
    pub complete_nanos: Option<u64>,
    pub accepted: u64,
    pub duplicates: u64,
    pub recovered: u64,
    pub missing: usize,
}

impl LeafSummary {
    fn of(leaf: &LeafActor) -> LeafSummary {
        LeafSummary {
            complete: leaf.is_complete(),
            complete_nanos: leaf.complete_nanos(),
            accepted: leaf.accepted(),
            duplicates: leaf.duplicates(),
            recovered: leaf.recovered(),
            missing: leaf.missing_count(),
        }
    }
}

impl Finished {
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0, |(_, v)| *v)
    }

    /// Simulated (or wall) ms from start to the last activation, from
    /// the peer reports.
    pub fn sync_ms(&self) -> f64 {
        sync_ms(&self.reports)
    }

    pub fn activated(&self) -> usize {
        self.reports.iter().filter(|r| r.active).count()
    }
}

/// Ms from the session start to the last activation among the peers
/// that activated.
pub fn sync_ms(reports: &[PeerReport]) -> f64 {
    reports
        .iter()
        .filter(|r| r.active)
        .map(|r| r.activated_nanos)
        .max()
        .unwrap_or(0) as f64
        / 1e6
}

fn counters(m: &Metrics) -> Vec<(String, u64)> {
    m.counters().map(|(n, v)| (n.to_string(), v)).collect()
}

/// An untraced session through the public API, with the figures the
/// benchmark reports and the outcome-vs-report cross-check.
pub struct Untraced {
    pub finished: Finished,
    /// `SessionOutcome.sync_nanos` in ms and `.rounds`, kept to compare
    /// with what the peer reports say.
    pub outcome_sync_ms: f64,
    pub outcome_rounds: u32,
    pub outcome_activated: u64,
}

impl Untraced {
    /// Max activation wave over the peer reports.
    pub fn max_wave(&self) -> u32 {
        self.finished
            .reports
            .iter()
            .filter_map(|r| r.wave)
            .max()
            .unwrap_or(0)
    }
}

/// Run `spec` through `Session::run_with_world` (one shard) or
/// `Session::run_with_sharded_world`.
pub fn run_untraced(spec: &Spec) -> Untraced {
    let session = spec.session();
    let (outcome, finished) = if spec.shards > 1 {
        let (outcome, world, reports) = session.run_with_sharded_world();
        let leaf: &LeafActor = world.actor_as(ActorId(spec.cfg.n as u32)).expect("leaf");
        let f = Finished {
            events: world.events_dispatched(),
            digest: Some(world.event_digest()),
            counters: counters(world.metrics()),
            leaf: LeafSummary::of(leaf),
            reports,
            shard_stats: shard_figures(world.shard_stats()),
            queue_high_water: None,
        };
        (outcome, f)
    } else {
        let (outcome, world, reports) = session.run_with_world();
        let leaf: &LeafActor = world.actor_as(ActorId(spec.cfg.n as u32)).expect("leaf");
        let f = Finished {
            events: world.events_dispatched(),
            digest: None,
            counters: counters(world.metrics()),
            leaf: LeafSummary::of(leaf),
            reports,
            shard_stats: Vec::new(),
            queue_high_water: Some(world.queue_high_water()),
        };
        (outcome, f)
    };
    Untraced {
        outcome_sync_ms: outcome.sync_nanos as f64 / 1e6,
        outcome_rounds: outcome.rounds,
        outcome_activated: outcome.activated,
        finished,
    }
}

/// Crash-stop fault injector, registered and timed exactly like the
/// program's own (which is private to `Session`).
struct FaultInjector {
    faults: Vec<(SimDuration, ActorId)>,
}

impl Actor<Msg> for FaultInjector {
    fn on_start(&mut self, ctx: &mut dyn Runtime<Msg>) {
        for (i, (at, _)) in self.faults.iter().enumerate() {
            ctx.set_timer(*at, i as u64);
        }
    }
    fn on_message(&mut self, _: &mut dyn Runtime<Msg>, _: ActorId, _: Msg) {}
    fn on_timer(&mut self, ctx: &mut dyn Runtime<Msg>, _: TimerId, tag: u64) {
        let (_, target) = self.faults[tag as usize];
        ctx.kill(target);
    }
    mss_sim::impl_as_any!();
}

/// How a world's layers are wrapped.
#[derive(Clone)]
struct Tracer {
    pub sink: TraceSink,
    pub capture: Option<Captured>,
}

/// An assembled, not yet run world. Held only between assembly and the
/// run, so the size difference of the variants does not matter.
#[allow(clippy::large_enum_variant)]
enum Assembled {
    Single(World<Msg>),
    Sharded(ShardedWorld<Msg>),
}

fn plane_group<P>(members: Vec<P>, t: &Tracer, shard: usize) -> Box<dyn ActorGroup<Msg>>
where
    Plane<P>: ActorGroup<Msg>,
    P: mss_core::plane::PlanePeer,
{
    Box::new(TracedGroup::new(
        Plane::new(members),
        t.sink.clone(),
        shard,
        t.capture.clone(),
    ))
}

fn peers_group(
    spec: &Spec,
    dir: &Arc<Directory>,
    block: std::ops::Range<usize>,
    tracer: &Tracer,
    shard: usize,
) -> Box<dyn ActorGroup<Msg>> {
    let members = block.map(|p| PeerId(p as u32));
    match spec.protocol {
        Protocol::Dcop => {
            let m: Vec<DcopPeer> = members
                .map(|me| DcopPeer::new(me, dir.clone(), spec.cfg.clone()))
                .collect();
            plane_group(m, tracer, shard)
        }
        Protocol::Tcop => {
            let m: Vec<TcopPeer> = members
                .map(|me| TcopPeer::new(me, dir.clone(), spec.cfg.clone()))
                .collect();
            plane_group(m, tracer, shard)
        }
        p => panic!("the benchmark runs DCoP and TCoP only, not {}", p.name()),
    }
}

fn leaf_actor(spec: &Spec, dir: &Arc<Directory>, t: &Tracer) -> Box<dyn Actor<Msg>> {
    let leaf = LeafActor::new(spec.cfg.clone(), spec.protocol, dir.clone(), None);
    Box::new(TracedActor::new(leaf, t.sink.clone(), 0, t.capture.clone()))
}

fn link_for(spec: &Spec, t: &Tracer, shard: usize) -> Box<dyn LinkModel + Send> {
    Box::new(TracedLink::new(spec.link.build(), t.sink.clone(), shard))
}

/// Build the world of `spec` the way `Session::run_with_world` /
/// `run_with_sharded_world` do (plane hosting, same registration order,
/// same reservations), with each layer wrapped.
fn assemble(spec: &Spec, tracer: &Tracer) -> Assembled {
    let cfg = &spec.cfg;
    let n = cfg.n;
    let dir = Arc::new(Directory::new(
        (0..n as u32).map(ActorId).collect(),
        ActorId(n as u32),
    ));
    let faults: Vec<(SimDuration, ActorId)> = spec
        .faults
        .iter()
        .map(|(at, p)| (*at, dir.actor_of(*p)))
        .collect();
    let reserve = cfg.content.packets as usize * 2 + n * 8;
    if spec.shards > 1 {
        let shards = spec.shards.clamp(1, n.max(1));
        let lookahead = spec.link.build().min_latency();
        let mut world: ShardedWorld<Msg> =
            ShardedWorld::new(shards, lookahead, cfg.seed, |k| link_for(spec, tracer, k));
        world.reserve_events(reserve);
        let starts = shard_blocks(n, shards);
        for k in 0..shards {
            let block = starts[k]..starts[k + 1];
            if block.is_empty() {
                continue;
            }
            let len = block.len();
            world.add_group(k, len, peers_group(spec, &dir, block, tracer, k));
        }
        world.add_actor(0, leaf_actor(spec, &dir, tracer));
        if !faults.is_empty() {
            world.add_actor(0, Box::new(FaultInjector { faults }));
        }
        Assembled::Sharded(world)
    } else {
        let mut world: World<Msg> = World::new(link_for(spec, tracer, 0), cfg.seed);
        world.reserve_events(reserve);
        world.add_group(n, peers_group(spec, &dir, 0..n, tracer, 0));
        world.add_actor(leaf_actor(spec, &dir, tracer));
        if !faults.is_empty() {
            world.add_actor(Box::new(FaultInjector { faults }));
        }
        Assembled::Single(world)
    }
}

/// A traced session: what it left behind, its run wall time (events
/// only, assembly excluded) and the per-shard layer counters.
pub struct Traced {
    pub finished: Finished,
    pub run_ns: u64,
    pub per_shard: Vec<crate::trace::Acc>,
}

/// Assemble `spec` with every layer wrapped, run it, and collect.
pub fn run_traced(spec: &Spec, capture: Option<Captured>) -> Traced {
    let shards = spec.shards.clamp(1, spec.cfg.n.max(1));
    let tracer = Tracer {
        sink: TraceSink::new(shards),
        capture,
    };
    let limit = SimTime::ZERO + spec.limit;
    let leaf_id = ActorId(spec.cfg.n as u32);
    let (finished, run_ns) = match assemble(spec, &tracer) {
        Assembled::Single(mut world) => {
            let t0 = Instant::now();
            world.run_until(limit);
            let run_ns = t0.elapsed().as_nanos() as u64;
            let leaf: &LeafActor = world.actor_as(leaf_id).expect("leaf");
            let f = Finished {
                events: world.events_dispatched(),
                digest: None,
                counters: counters(world.metrics()),
                leaf: LeafSummary::of(leaf),
                reports: peer_reports(&world, spec.protocol, &directory(spec.cfg.n)),
                shard_stats: Vec::new(),
                queue_high_water: Some(world.queue_high_water()),
            };
            (f, run_ns)
        }
        Assembled::Sharded(mut world) => {
            let t0 = Instant::now();
            world.run_until(limit);
            let run_ns = t0.elapsed().as_nanos() as u64;
            let leaf: &LeafActor = world.actor_as(leaf_id).expect("leaf");
            let f = Finished {
                events: world.events_dispatched(),
                digest: Some(world.event_digest()),
                counters: counters(world.metrics()),
                leaf: LeafSummary::of(leaf),
                reports: sharded_peer_reports(&world, spec.protocol, &directory(spec.cfg.n)),
                shard_stats: shard_figures(world.shard_stats()),
                queue_high_water: None,
            };
            (f, run_ns)
        }
    };
    // The world (and with it every wrapper) is gone: the sink is full.
    Traced {
        finished,
        run_ns,
        per_shard: tracer.sink.per_shard(),
    }
}

fn directory(n: usize) -> Directory {
    Directory::new((0..n as u32).map(ActorId).collect(), ActorId(n as u32))
}
