use mss_core::config::{Protocol, SessionConfig};
use mss_overlay::PeerId;
use mss_sim::time::SimDuration;

use super::*;
use crate::assemble::Link;
use crate::report::valid_name;

fn tiny(protocol: Protocol, shards: usize, seed: u64) -> Spec {
    Spec {
        label: "tiny",
        protocol,
        cfg: SessionConfig::small(20, 4, seed),
        link: Link::Default,
        faults: Vec::new(),
        shards,
        limit: SimDuration::from_secs(600),
    }
}

/// The traced world dispatches the same events (and, sharded, the same
/// digest) and leaves the same counters, reports and leaf as `Session`.
#[test]
fn wrappers_are_transparent() {
    for protocol in [Protocol::Dcop, Protocol::Tcop] {
        for shards in [1, 2] {
            for seed in [1, 7] {
                let spec = tiny(protocol, shards, seed);
                let u = run_untraced(&spec).finished;
                let t = run_traced(&spec, Some(Captured::default()));
                assert!(u.leaf.complete, "{protocol:?} S={shards} incomplete");
                assert_eq!(u.digest.is_some(), shards > 1);
                assert_eq!(t.finished, u, "{protocol:?} S={shards} seed={seed}");
                assert_eq!(t.per_shard.len(), shards);
                let calls: u64 = t
                    .per_shard
                    .iter()
                    .map(|a| a.calls.iter().sum::<u64>())
                    .sum();
                assert!(calls > 0 && calls <= u.events + 21, "handler calls {calls}");
            }
        }
    }
}

/// Lossy links with crashes go through the same wrapper path.
#[test]
fn wrappers_are_transparent_under_loss_and_crashes() {
    let mut spec = tiny(Protocol::Dcop, 1, 3);
    spec.link = Link::Bursty {
        p_gb: 0.005,
        p_bg: 0.3,
        loss_good: 0.0,
        loss_bad: 1.0,
    };
    spec.cfg.repair = Some(mss_core::config::RepairConfig::default());
    spec.faults = vec![(SimDuration::from_millis(30), PeerId(3))];
    let u = run_untraced(&spec).finished;
    assert_eq!(run_traced(&spec, None).finished, u);
}

/// `setup_s` runs `Session` to simulated time zero: the program's own
/// set-up, with no event due yet, on both protocols and worlds and with
/// faults and loss on.
#[test]
fn zero_time_limit_dispatches_no_event() {
    for protocol in [Protocol::Dcop, Protocol::Tcop] {
        for shards in [1, 2] {
            let mut spec = tiny(protocol, shards, 4);
            spec.limit = SimDuration::ZERO;
            spec.faults = vec![(SimDuration::from_millis(30), PeerId(3))];
            spec.link = Link::Bursty {
                p_gb: 0.005,
                p_bg: 0.3,
                loss_good: 0.0,
                loss_bad: 1.0,
            };
            assert_eq!(run_untraced(&spec).finished.events, 0);
            assert!(setup_once(&spec) > 0.0);
        }
    }
}

/// Every live pass repeats the same sessions, the simulated twins of
/// `Workload::specs`, alternating DCoP and TCoP.
#[test]
fn live_pass_repeats_its_sessions() {
    let specs = Workload::LiveN2000.specs(11);
    assert_eq!(specs.len() as u64, LIVE_PASS);
    for i in 0..3 * LIVE_PASS {
        let (label, protocol, cfg) = workloads::live_config(11, i);
        let spec = &specs[(i % LIVE_PASS) as usize];
        assert_eq!((label, protocol), (spec.label, spec.protocol));
        assert_eq!(cfg.seed, spec.cfg.seed);
        let dcop = i % 2 == 0;
        assert_eq!(protocol == Protocol::Dcop, dcop);
    }
}

/// On the single world, sync time and coverage derived from the peer
/// reports equal the program's `SessionOutcome`.
#[test]
fn report_derived_figures_match_outcome_on_one_shard() {
    for protocol in [Protocol::Dcop, Protocol::Tcop] {
        let u = run_untraced(&tiny(protocol, 1, 9));
        assert_eq!(u.outcome_sync_ms, u.finished.sync_ms());
        assert_eq!(u.outcome_activated, u.finished.activated() as u64);
    }
}

#[test]
fn codec_cost_round_trips_a_captured_mix() {
    let captured = Captured::default();
    run_traced(&tiny(Protocol::Tcop, 1, 2), Some(captured.clone()));
    let mix = captured.take();
    assert!(!mix.is_empty());
    let c = codec_cost(&mix, 1);
    assert_eq!(c.decode_errors, 0);
    assert!(c.bytes > 0.0 && c.encode_ns > 0.0);
}

fn all_metric_names() -> (Vec<String>, Vec<String>) {
    let mut e = Metrics::default();
    end_to_end(
        &mut e,
        EndToEnd {
            sessions_per_s: 1.0,
            cpu_ms_per_session: 1.0,
            setup_s: 1.0,
            sync_ms_p50: 1.0,
            done_ms_p50: 1.0,
            complete_frac: 1.0,
            coverage: 1.0,
            receipt_ratio: 1.0,
            coord_msgs_per_peer: 1.0,
        },
    );
    let mut p = Metrics::default();
    per_layer(&mut p, &LayerTotals::default(), 1.0, &NetLayer::default());
    let names = |m: &Metrics| m.items.iter().map(|i| i.0.clone()).collect::<Vec<_>>();
    (names(&e), names(&p))
}

#[test]
fn metric_names_are_well_formed_and_unique() {
    let (e, p) = all_metric_names();
    let mut all: Vec<&String> = e.iter().chain(&p).collect();
    for n in &all {
        assert!(valid_name(n), "bad metric name {n:?}");
    }
    let len = all.len();
    all.sort();
    all.dedup();
    assert_eq!(all.len(), len, "duplicate metric names");
    assert!(!valid_name("a b") && !valid_name("_x") && !valid_name(""));
}

/// The manifest lists exactly the metrics the command prints, in order.
#[test]
fn manifest_lists_the_printed_metrics() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let manifest = std::fs::read_to_string(path).expect("BENCHMARK.json");
    let listed = |section: &str| -> Vec<String> {
        let start = manifest.find(&format!("\"{section}\"")).expect(section);
        let body = &manifest[start..];
        let body = &body[..body.find(']').expect("list end")];
        body.split("\"name\":")
            .skip(1)
            .map(|s| {
                s.trim_start()
                    .trim_start_matches('"')
                    .split('"')
                    .next()
                    .unwrap()
                    .to_string()
            })
            .collect()
    };
    let (e, p) = all_metric_names();
    assert_eq!(listed("end_to_end"), e);
    assert_eq!(listed("per_layer"), p);
    let workloads: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
    assert_eq!(listed("workloads"), workloads);
}
