//! Micro-benchmarks for the hot substrate paths: parity enhancement,
//! division, decoding, slot allocation, view operations, RNG sampling,
//! and the event queue.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

use mss_core::schedule::{merge_assignment, TxSchedule};
use mss_media::parity::{div_all, enhance, esq, Coding, Decoder};
use mss_media::rs;
use mss_media::slots::allocate;
use mss_media::{ContentDesc, PacketId, PacketSeq};
use mss_overlay::select::select_from_complement;
use mss_overlay::{PeerId, View};
use mss_sim::event::{ActorId, Event, EventQueue, TimerId};
use mss_sim::rng::SimRng;
use mss_sim::time::SimTime;

/// Sequence-algebra hot path: `contains`/`union`/`merge_into` on
/// schedules of 1k/10k/100k packets, next to scan-based baselines
/// (`contains_scan`, `union_scan`) equivalent to the pre-index
/// implementation, so the indexed speedup is measured in one run.
fn bench_seq(c: &mut Criterion) {
    let mut g = c.benchmark_group("seq");
    for l in [1_000u64, 10_000, 100_000] {
        // Two interleaved halves: every union case has real merge work.
        let evens = PacketSeq::from_ids(
            (1..=l)
                .filter(|s| s % 2 == 0)
                .map(|s| PacketId::Data(mss_media::Seq(s)))
                .collect(),
        );
        let odds = PacketSeq::from_ids(
            (1..=l)
                .filter(|s| s % 2 == 1)
                .map(|s| PacketId::Data(mss_media::Seq(s)))
                .collect(),
        );
        let probes: Vec<PacketId> = (1..=64u64)
            .map(|k| PacketId::Data(mss_media::Seq(k * l / 64)))
            .collect();

        g.throughput(Throughput::Elements(64));
        g.bench_with_input(BenchmarkId::new("contains", l), &l, |b, _| {
            let whole = PacketSeq::data_range(l);
            whole.contains(&probes[0]); // build the index outside the loop
            b.iter(|| probes.iter().filter(|p| whole.contains(p)).count());
        });
        g.bench_with_input(BenchmarkId::new("contains_scan", l), &l, |b, _| {
            let whole = PacketSeq::data_range(l);
            b.iter(|| {
                probes
                    .iter()
                    .filter(|p| whole.ids().iter().any(|q| &q == p))
                    .count()
            });
        });

        g.throughput(Throughput::Elements(l));
        g.bench_with_input(BenchmarkId::new("union", l), &l, |b, _| {
            b.iter(|| evens.union(&odds).len());
        });
        g.bench_with_input(BenchmarkId::new("union_scan", l), &l, |b, _| {
            b.iter(|| union_scan(&evens, &odds).len());
        });
        g.bench_with_input(BenchmarkId::new("merge_into", l), &l, |b, _| {
            b.iter(|| {
                let mut m = evens.clone();
                m.merge_into(&odds);
                m.len()
            });
        });
        g.bench_with_input(BenchmarkId::new("merge_assignment", l), &l, |b, _| {
            let cur = TxSchedule {
                seq: evens.clone().into(),
                pos: 0,
                interval_nanos: 1_000,
                first_delay_nanos: 1_000,
            };
            let inc = TxSchedule {
                seq: odds.clone().into(),
                pos: 0,
                interval_nanos: 2_000,
                first_delay_nanos: 2_000,
            };
            b.iter(|| merge_assignment(&cur, &inc).seq.len());
        });
    }
    g.finish();
}

/// The seed's union: fresh per-call hash set over `self`, merge by
/// readiness key. Kept here as the baseline the indexed version is
/// measured against.
fn union_scan(a: &PacketSeq, b: &PacketSeq) -> PacketSeq {
    let key = |p: &PacketId| (p.max_seq().0, p.coverage_len());
    let mine: std::collections::HashSet<&PacketId> = a.ids().iter().collect();
    let mut merged: Vec<PacketId> = Vec::with_capacity(a.len() + b.len());
    let mut xs = a.ids().iter().peekable();
    let mut ys = b.ids().iter().filter(|p| !mine.contains(*p)).peekable();
    loop {
        match (xs.peek(), ys.peek()) {
            (Some(x), Some(y)) => {
                if key(x) <= key(y) {
                    merged.push((*x).clone());
                    xs.next();
                } else {
                    merged.push((*y).clone());
                    ys.next();
                }
            }
            (Some(_), None) => {
                merged.extend(xs.by_ref().cloned());
                break;
            }
            (None, Some(_)) => {
                merged.extend(ys.by_ref().cloned());
                break;
            }
            (None, None) => break,
        }
    }
    PacketSeq::from_ids(merged)
}

fn bench_parity(c: &mut Criterion) {
    let mut g = c.benchmark_group("parity");
    for l in [1_000u64, 10_000] {
        g.throughput(Throughput::Elements(l));
        g.bench_with_input(BenchmarkId::new("esq_h8", l), &l, |b, &l| {
            let pkt = PacketSeq::data_range(l);
            b.iter(|| esq(&pkt, 8));
        });
        g.bench_with_input(BenchmarkId::new("div16", l), &l, |b, &l| {
            let e = esq(&PacketSeq::data_range(l), 8);
            b.iter(|| div_all(&e, 16));
        });
    }
    g.finish();
}

fn bench_decoder(c: &mut Criterion) {
    let mut g = c.benchmark_group("decoder");
    let l = 2_000u64;
    let content = ContentDesc::small(1, l);
    let enhanced = esq(&PacketSeq::data_range(l), 8);
    let packets: Vec<_> = enhanced
        .iter()
        .map(|id| (id.clone(), content.materialize(id).payload))
        .collect();
    g.throughput(Throughput::Elements(packets.len() as u64));
    g.bench_function("decode_stream_with_11pct_loss", |b| {
        b.iter(|| {
            let mut dec = Decoder::new();
            for (i, (id, payload)) in packets.iter().enumerate() {
                // One loss per 9-position recovery group (h = 8 data +
                // 1 parity): always recoverable.
                if i % 9 == 3 {
                    continue;
                }
                dec.insert(id, payload);
            }
            assert!(dec.missing(l).is_empty());
            dec.known_count()
        });
    });
    g.finish();
}

fn bench_rs(c: &mut Criterion) {
    let mut g = c.benchmark_group("reed_solomon");
    let k = 8;
    let r = 3;
    let shard = 1350usize; // the paper's video packet size
    let data: Vec<Vec<u8>> = (0..k)
        .map(|j| (0..shard).map(|b| (j * 31 + b) as u8).collect())
        .collect();
    let refs: Vec<&[u8]> = data.iter().map(|d| d.as_slice()).collect();
    g.throughput(Throughput::Bytes((k * shard) as u64));
    g.bench_function("encode_k8_r3_1350B", |b| {
        b.iter(|| rs::encode(&refs, r));
    });
    let parity = rs::encode(&refs, r);
    g.bench_function("decode_3_losses_k8_1350B", |b| {
        b.iter(|| {
            let mut shards: Vec<rs::Shard> = data
                .iter()
                .enumerate()
                .skip(3)
                .map(|(j, d)| rs::Shard::Data(j, d.clone()))
                .collect();
            for (i, p) in parity.iter().enumerate() {
                shards.push(rs::Shard::Parity(i, p.clone()));
            }
            rs::decode(k, &shards).expect("decodable")
        });
    });
    g.bench_function("rs_stream_decode_2000pkts", |b| {
        let content = ContentDesc::small(2, 2_000);
        let enhanced = enhance(&PacketSeq::data_range(2_000), 8, true, Coding::Rs { r: 2 });
        let packets: Vec<_> = enhanced
            .iter()
            .map(|id| (id.clone(), content.materialize(id).payload))
            .collect();
        b.iter(|| {
            let mut dec = Decoder::new();
            for (i, (id, payload)) in packets.iter().enumerate() {
                if i % 10 < 2 {
                    continue; // two losses per 10-position group
                }
                dec.insert(id, payload);
            }
            assert!(dec.missing(2_000).is_empty());
            dec.known_count()
        });
    });
    g.finish();
}

fn bench_gossip(c: &mut Criterion) {
    let mut g = c.benchmark_group("gossip");
    g.bench_function("membership_n256_to_convergence", |b| {
        let mut seed = 0u64;
        b.iter(|| {
            seed += 1;
            let mut gsp = mss_overlay::gossip::Gossip::new(
                256,
                1,
                mss_overlay::gossip::GossipStyle::PushPull,
                seed,
            );
            gsp.run_to_convergence(10_000).expect("converges")
        });
    });
    g.finish();
}

fn bench_slots(c: &mut Criterion) {
    let mut g = c.benchmark_group("slots");
    g.throughput(Throughput::Elements(100_000));
    g.bench_function("allocate_5ch_100k", |b| {
        b.iter(|| allocate(&[250, 100, 40, 35, 8], 100_000));
    });
    g.finish();
}

fn bench_overlay(c: &mut Criterion) {
    let mut g = c.benchmark_group("overlay");
    g.bench_function("view_union_1024", |b| {
        let mut a = View::empty(1024);
        let mut v = View::empty(1024);
        for i in (0..1024).step_by(3) {
            v.insert(PeerId(i));
        }
        b.iter(|| a.union_with(&v));
    });
    g.bench_function("select_60_of_1024", |b| {
        let mut view = View::empty(1024);
        for i in (0..1024).step_by(2) {
            view.insert(PeerId(i));
        }
        let mut rng = SimRng::new(1);
        b.iter(|| select_from_complement(&view, 60, &mut rng));
    });
    g.finish();
}

fn bench_kernel(c: &mut Criterion) {
    let mut g = c.benchmark_group("kernel");
    g.throughput(Throughput::Elements(10_000));
    g.bench_function("event_queue_10k_push_pop", |b| {
        let mut rng = SimRng::new(7);
        b.iter(|| {
            let mut q: EventQueue<()> = EventQueue::new();
            for i in 0..10_000u64 {
                q.push(
                    SimTime(rng.next_u64() % 1_000_000),
                    Event::Timer {
                        actor: ActorId(0),
                        timer: TimerId(i),
                        tag: i,
                    },
                );
            }
            let mut n = 0;
            while q.pop().is_some() {
                n += 1;
            }
            n
        });
    });
    g.bench_function("rng_sample_60_of_100", |b| {
        let pool: Vec<u32> = (0..100).collect();
        let mut rng = SimRng::new(3);
        b.iter(|| rng.sample(&pool, 60));
    });
    g.finish();
}

/// Binary-heap scheduler equivalent to the pre-calendar kernel, kept as
/// the in-run baseline `queue_ops` measures the calendar queue against.
struct HeapQueue<M> {
    heap: std::collections::BinaryHeap<HeapEntry<M>>,
    next_seq: u64,
}

struct HeapEntry<M> {
    time: SimTime,
    seq: u64,
    event: Event<M>,
}

impl<M> PartialEq for HeapEntry<M> {
    fn eq(&self, other: &Self) -> bool {
        (self.time, self.seq) == (other.time, other.seq)
    }
}
impl<M> Eq for HeapEntry<M> {}
impl<M> PartialOrd for HeapEntry<M> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<M> Ord for HeapEntry<M> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (other.time, other.seq).cmp(&(self.time, self.seq))
    }
}

impl<M> HeapQueue<M> {
    fn new() -> Self {
        HeapQueue {
            heap: std::collections::BinaryHeap::new(),
            next_seq: 0,
        }
    }

    fn push(&mut self, time: SimTime, event: Event<M>) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(HeapEntry { time, seq, event });
    }

    fn pop(&mut self) -> Option<(SimTime, Event<M>)> {
        self.heap.pop().map(|e| (e.time, e.event))
    }

    fn pop_at_or_before(&mut self, limit: SimTime) -> Option<(SimTime, Event<M>)> {
        if self.heap.peek()?.time > limit {
            return None;
        }
        self.pop()
    }
}

/// The hold operations the wave shape drives, for both schedulers.
trait HoldQueue {
    fn push_at(&mut self, t: SimTime, i: u64);
    fn pop_due(&mut self, limit: SimTime) -> bool;
}

impl HoldQueue for EventQueue<()> {
    fn push_at(&mut self, t: SimTime, i: u64) {
        self.push(t, timer_event(i));
    }
    fn pop_due(&mut self, limit: SimTime) -> bool {
        self.pop_at_or_before(limit).is_some()
    }
}

impl HoldQueue for HeapQueue<()> {
    fn push_at(&mut self, t: SimTime, i: u64) {
        self.push(t, timer_event(i));
    }
    fn pop_due(&mut self, limit: SimTime) -> bool {
        self.pop_at_or_before(limit).is_some()
    }
}

/// Waves `wave_bursts` runs per iteration.
const WAVES: u64 = 60;
/// Keys `wave_bursts` spreads over its first second before the waves.
const PRELUDE: u64 = 1 << 14;

/// A calendar sized while sparse, then filled densely. [`PRELUDE`]
/// keys spread over one second fix the bucket width and take the
/// bucket count to its cap; then, each simulated millisecond, `burst`
/// keys land at `now + 1 ms + U[0, 20 ms)` in random order and every
/// key due by the new `now` pops. About 11.5·`burst` keys are pending
/// at steady state, stacked a few hundred deep in each bucket of the
/// 20 ms band. That is the shape of a 10⁵-peer session, whose calendar
/// is sized at 4·10³ pending events and later holds 5.8·10⁵. Runs
/// [`WAVES`] waves, then drains; returns the number of pops.
fn wave_bursts(q: &mut impl HoldQueue, burst: u64, rng: &mut SimRng) -> u64 {
    const MS: u64 = 1_000_000;
    let (mut now, mut i, mut popped) = (0u64, 0u64, 0u64);
    for _ in 0..PRELUDE {
        q.push_at(SimTime(rng.gen_below(1_000 * MS)), i);
        i += 1;
    }
    for _ in 0..WAVES {
        for _ in 0..burst {
            q.push_at(SimTime(now + MS + rng.gen_below(20 * MS)), i);
            i += 1;
        }
        now += MS;
        while q.pop_due(SimTime(now)) {
            popped += 1;
        }
    }
    while q.pop_due(SimTime::MAX) {
        popped += 1;
    }
    popped
}

fn timer_event(i: u64) -> Event<()> {
    Event::Timer {
        actor: ActorId(0),
        timer: TimerId(i),
        tag: i,
    }
}

/// The DES hold operation under steady-state load: prefill `n` pending
/// events, then `n` pop-one-push-one rounds, then drain. Run for both
/// schedulers and both timestamp regimes — `uniform` (times anywhere in
/// a second) and `clustered` (each push one link latency, 1–2 ms, past
/// the last pop: the distribution a streaming session produces).
fn bench_queue_ops(c: &mut Criterion) {
    let mut g = c.benchmark_group("queue_ops");
    for n in [1_000u64, 10_000, 100_000] {
        g.throughput(Throughput::Elements(n));
        for clustered in [false, true] {
            let regime = if clustered { "clustered" } else { "uniform" };
            let time_of = move |rng: &mut SimRng, last: SimTime| {
                if clustered {
                    SimTime(last.0 + 1_000_000 + rng.next_u64() % 1_000_000)
                } else {
                    SimTime(rng.next_u64() % 1_000_000_000)
                }
            };
            g.bench_with_input(
                BenchmarkId::new(format!("calendar_{regime}"), n),
                &n,
                |b, &n| {
                    let mut rng = SimRng::new(11);
                    b.iter(|| {
                        let mut q: EventQueue<()> = EventQueue::new();
                        let mut last = SimTime(0);
                        for i in 0..n {
                            q.push(time_of(&mut rng, last), timer_event(i));
                        }
                        for i in 0..n {
                            let (t, _) = q.pop().expect("queue prefilled");
                            last = t;
                            q.push(time_of(&mut rng, last), timer_event(n + i));
                        }
                        let mut popped = 0u64;
                        while q.pop().is_some() {
                            popped += 1;
                        }
                        popped
                    });
                },
            );
            g.bench_with_input(
                BenchmarkId::new(format!("heap_{regime}"), n),
                &n,
                |b, &n| {
                    let mut rng = SimRng::new(11);
                    b.iter(|| {
                        let mut q: HeapQueue<()> = HeapQueue::new();
                        let mut last = SimTime(0);
                        for i in 0..n {
                            q.push(time_of(&mut rng, last), timer_event(i));
                        }
                        for i in 0..n {
                            let (t, _) = q.pop().expect("queue prefilled");
                            last = t;
                            q.push(time_of(&mut rng, last), timer_event(n + i));
                        }
                        let mut popped = 0u64;
                        while q.pop().is_some() {
                            popped += 1;
                        }
                        popped
                    });
                },
            );
        }
    }
    // Population-scale pending sets, where buckets the cursor has not
    // reached fill with out-of-order keys; few samples, as one
    // iteration moves millions of keys.
    g.sample_size(10);
    for pending in [100_000u64, 500_000] {
        let burst = pending * 2 / 23;
        g.throughput(Throughput::Elements(PRELUDE + WAVES * burst));
        g.bench_with_input(
            BenchmarkId::new("calendar_waves", pending),
            &burst,
            |b, &burst| {
                let mut rng = SimRng::new(5);
                b.iter(|| wave_bursts(&mut EventQueue::<()>::new(), burst, &mut rng));
            },
        );
        g.bench_with_input(
            BenchmarkId::new("heap_waves", pending),
            &burst,
            |b, &burst| {
                let mut rng = SimRng::new(5);
                b.iter(|| wave_bursts(&mut HeapQueue::<()>::new(), burst, &mut rng));
            },
        );
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_seq,
    bench_parity,
    bench_decoder,
    bench_rs,
    bench_gossip,
    bench_slots,
    bench_overlay,
    bench_kernel,
    bench_queue_ops
);
criterion_main!(benches);
