//! The named workloads and the inputs each derives from a seed.

use mss_core::config::{Protocol, RepairConfig, SessionConfig};
use mss_media::parity::Coding;
use mss_overlay::PeerId;
use mss_sim::rng::SimRng;
use mss_sim::time::SimDuration;

use crate::assemble::{Link, Spec};

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    PaperN100,
    Scale1e5,
    LossyCrashN100,
    LiveN2000,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::PaperN100,
        Workload::Scale1e5,
        Workload::LossyCrashN100,
        Workload::LiveN2000,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperN100 => "paper_n100",
            Workload::Scale1e5 => "scale_1e5",
            Workload::LossyCrashN100 => "lossy_crash_n100",
            Workload::LiveN2000 => "live_n2000",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The pass quantiles `(rate, cpu)` that `sessions_per_s` and
    /// `cpu_ms_per_session` read. On a shared host a neighbour
    /// slows every pass it overlaps by up to a third; the loaded end (the
    /// 10th-percentile rate, the 90th-percentile CPU) repeats best from
    /// run to run over the many short passes of most workloads.
    /// `scale_1e5` fits only a few long passes in a run, where that end is
    /// the single slowest pass, so it reads the median. Fixed per
    /// workload, so a faster or slower program is read the same way.
    pub fn host_quantiles(self) -> (f64, f64) {
        match self {
            Workload::Scale1e5 => (0.5, 0.5),
            _ => (0.1, 0.9),
        }
    }

    /// The simulated sessions of one pass. For `live_n2000` these are the
    /// same configurations run in the simulator (the traced run's source
    /// of per-layer figures and of the wire-codec message mix).
    pub fn specs(self, seed: u64) -> Vec<Spec> {
        match self {
            Workload::PaperN100 => paper_n100(seed),
            Workload::Scale1e5 => scale(seed, 100_000, 2),
            Workload::LossyCrashN100 => lossy_crash(seed),
            Workload::LiveN2000 => (0..LIVE_PASS)
                .map(|i| live_config(seed, i))
                .map(|(label, protocol, cfg)| Spec {
                    label,
                    protocol,
                    cfg,
                    link: Link::Default,
                    faults: Vec::new(),
                    shards: 1,
                    limit: SIM_LIMIT,
                })
                .collect(),
        }
    }
}

/// Simulated-time guard: far beyond any healthy session here (content
/// plays for about one simulated second).
const SIM_LIMIT: SimDuration = SimDuration::from_secs(600);

/// Seeds per session shape in one `paper_n100` pass.
const PAPER_SEEDS: u64 = 8;
/// Fan-outs of the paper's Figs. 10–12 sweep, with h = H − 1.
const PAPER_FANOUTS: [usize; 6] = [2, 4, 8, 16, 32, 60];
/// Seeds per coding arm in one `lossy_crash_n100` pass.
const LOSSY_SEEDS: u64 = 8;
/// Sessions of one `live_n2000` pass: four DCoP/TCoP pairs.
pub const LIVE_PASS: u64 = 8;

/// A well-mixed 64-bit hash (splitmix64 finalizer): the session seeds of
/// a workload are derived from its seed argument and the session index.
pub fn mix(seed: u64, i: u64) -> u64 {
    let mut z = seed
        .wrapping_add(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(i.wrapping_mul(0xD1B5_4A32_D192_ED03));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

const PROTOCOLS: [(Protocol, &str); 2] = [(Protocol::Dcop, "dcop"), (Protocol::Tcop, "tcop")];

fn paper_label(p: Protocol, h: usize) -> &'static str {
    // Static labels keep `Spec` cheap to clone; one per sweep point.
    const D: [&str; 6] = [
        "dcop_H2", "dcop_H4", "dcop_H8", "dcop_H16", "dcop_H32", "dcop_H60",
    ];
    const T: [&str; 6] = [
        "tcop_H2", "tcop_H4", "tcop_H8", "tcop_H16", "tcop_H32", "tcop_H60",
    ];
    let i = PAPER_FANOUTS.iter().position(|&f| f == h).expect("fanout");
    if p == Protocol::Dcop {
        D[i]
    } else {
        T[i]
    }
}

/// Figs. 10–12 shape: n = 100, 2000-packet content, full data plane.
fn paper_n100(seed: u64) -> Vec<Spec> {
    let mut out = Vec::new();
    let mut i = 0;
    for _ in 0..PAPER_SEEDS {
        for (protocol, _) in PROTOCOLS {
            for h in PAPER_FANOUTS {
                let mut cfg = SessionConfig::paper_eval(h, mix(seed, i));
                cfg.data_plane = true;
                out.push(Spec {
                    label: paper_label(protocol, h),
                    protocol,
                    cfg,
                    link: Link::Default,
                    faults: Vec::new(),
                    shards: 1,
                    limit: SIM_LIMIT,
                });
                i += 1;
            }
        }
    }
    out
}

/// One DCoP and one TCoP `large` session on a sharded world.
fn scale(seed: u64, n: usize, shards: usize) -> Vec<Spec> {
    PROTOCOLS
        .iter()
        .enumerate()
        .map(|(i, &(protocol, label))| Spec {
            label,
            protocol,
            cfg: SessionConfig::large(n, 8, mix(seed, i as u64)),
            link: Link::Default,
            faults: Vec::new(),
            shards,
            limit: SIM_LIMIT,
        })
        .collect()
}

/// The paper shape at H = 8 over bursty loss, with two crashes at a
/// third of the content and NACK repair on; XOR (h = 7) and RS r = 2
/// (h = 6) arms, each over DCoP and TCoP.
fn lossy_crash(seed: u64) -> Vec<Spec> {
    let arms: [(&str, &str, Coding, usize); 2] = [
        ("dcop_xor", "tcop_xor", Coding::Xor, 7),
        ("dcop_rs2", "tcop_rs2", Coding::Rs { r: 2 }, 6),
    ];
    let mut out = Vec::new();
    let mut i = 0;
    for _ in 0..LOSSY_SEEDS {
        for (dl, tl, coding, h) in arms {
            for (protocol, label) in [(Protocol::Dcop, dl), (Protocol::Tcop, tl)] {
                let mut cfg = SessionConfig::paper_eval(8, mix(seed, i));
                cfg.data_plane = true;
                cfg.parity_interval = h;
                cfg.coding = coding;
                cfg.repair = Some(RepairConfig::default());
                let content_ms = (cfg.content.duration_secs() * 1e3) as u64;
                let pool: Vec<PeerId> = (0..cfg.n as u32).map(PeerId).collect();
                let victims = SimRng::new(cfg.seed).fork(7).sample(&pool, 2);
                let faults = victims
                    .into_iter()
                    .map(|v| (SimDuration::from_millis(content_ms / 3), v))
                    .collect();
                out.push(Spec {
                    label,
                    protocol,
                    cfg,
                    link: Link::Bursty {
                        p_gb: 0.005,
                        p_bg: 0.3,
                        loss_good: 0.0,
                        loss_bad: 1.0,
                    },
                    faults,
                    shards: 1,
                    limit: SIM_LIMIT,
                });
                i += 1;
            }
        }
    }
    out
}

/// Live session `i` of a run: `SessionConfig::live(2000, 8, ·)`,
/// alternating DCoP and TCoP. Every pass repeats the same sessions, the
/// configurations of [`Workload::specs`].
pub fn live_config(seed: u64, i: u64) -> (&'static str, Protocol, SessionConfig) {
    let k = i % LIVE_PASS;
    let (protocol, label) = PROTOCOLS[(k % 2) as usize];
    (label, protocol, SessionConfig::live(2000, 8, mix(seed, k)))
}
