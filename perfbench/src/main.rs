//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs one named workload (see `workloads.rs` and `NOTES.md`) built
//! from `--seed`, repeats its pass of sessions until `--seconds` have
//! elapsed, checks the outputs, and prints as its last line one JSON
//! object `{"correct", "attempted", "failed", "metrics"}`. `--trace 0`
//! reports the end-to-end metrics of untraced runs through the public
//! `Session` / `LiveSession` API; `--trace 1` runs every session twice,
//! untraced and with each layer wrapped, checks the two agree event for
//! event, and reports the per-layer metrics.

mod assemble;
mod live;
mod report;
mod trace;
mod workloads;

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use assemble::{run_traced, run_untraced, Spec};
use live::{codec_cost, run_live};
use mss_core::metrics::{COORD_MSGS, DATA_MSGS};
use mss_sim::time::SimDuration;
use report::{cpu_seconds, mean, median, peak_rss_mib, result_line, shape_median, Metrics};
use trace::{Acc, Bucket, Captured};
use workloads::{Workload, LIVE_PASS};

/// Set-ups of a whole pass timed for `setup_s` before the first pass;
/// one more follows every pass, so the median spans the run.
const SETUP_REPS: usize = 5;
/// Live sessions of a traced `live_n2000` run (for the `net.live.*`
/// figures, which come from the program's own counters).
const LIVE_TRACE_SESSIONS: u64 = 4;
/// Codec passes over the captured message mix.
const CODEC_REPS: usize = 5;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::parse(&value).ok_or(format!("unknown workload {value:?}"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err(format!("--seconds {s} out of range"));
                }
                seconds = Some(s)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, not {value:?}")),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// Correctness bookkeeping of one run: every failed check is explained
/// on stderr.
struct Checks {
    ok: bool,
}

impl Checks {
    fn require(&mut self, cond: bool, what: impl FnOnce() -> String) {
        if !cond {
            self.ok = false;
            eprintln!("CHECK FAILED: {}", what());
        }
    }
}

/// What a run hands back to `main`.
struct RunResult {
    attempted: u64,
    failed: u64,
    metrics: Metrics,
    mmsg_active: Option<bool>,
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!(
                "error: {e}\nusage: mss-perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                Workload::ALL.map(Workload::name).join("|")
            );
            std::process::exit(2);
        }
    };
    let mut checks = Checks { ok: true };
    let seconds = Duration::from_secs_f64(args.seconds);
    let r = match (args.workload, args.trace) {
        (Workload::LiveN2000, false) => live_untraced(args.seed, seconds, &mut checks),
        (w, false) => sim_untraced(w, args.seed, seconds, &mut checks),
        (w, true) => traced(w, args.seed, seconds, &mut checks),
    };
    for (name, value, _) in &r.metrics.items {
        checks.require(value.is_finite(), || format!("metric {name} is not finite"));
    }
    println!("provenance: {}", provenance(r.mmsg_active));
    println!(
        "{}",
        result_line(checks.ok, r.attempted, r.failed, &r.metrics)
    );
}

fn provenance(mmsg_active: Option<bool>) -> String {
    let cores = std::thread::available_parallelism().map_or(0, |p| p.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    report::json_object(&[
        ("commit", commit()),
        ("available_parallelism", cores.to_string()),
        ("cpu", cpu),
        ("rustc", command_line("rustc", &["--version"])),
        (
            "net.mmsg_active",
            match mmsg_active {
                Some(a) => u8::from(a).to_string(),
                None => "n/a (no live session in this run)".into(),
            },
        ),
        ("network", "live traffic crosses loopback UDP only".into()),
    ])
}

/// First line of a command's output, or "unknown".
fn command_line(prog: &str, args: &[&str]) -> String {
    std::process::Command::new(prog)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".into())
}

/// The commit under test, from `git` when the working directory is the
/// top of a git checkout.
fn commit() -> String {
    let top = command_line("git", &["rev-parse", "--show-toplevel"]);
    let here = std::env::current_dir().and_then(std::fs::canonicalize);
    match (std::fs::canonicalize(&top), here) {
        (Ok(t), Ok(h)) if t == h => command_line("git", &["rev-parse", "HEAD"]),
        _ => "unknown (not a git checkout)".into(),
    }
}

/// Seconds for the program's `Session` to set up every world of one
/// pass.
fn setup_pass(specs: &[Spec]) -> f64 {
    specs.iter().map(setup_once).sum()
}

/// One set-up through `Session::run_with_world` /
/// `run_with_sharded_world` with a zero time limit: the program
/// assembles the world, runs the actors' start hooks and reads the
/// reports, but dispatches no event, since none is due at time zero
/// (pinned by a test). The world is dropped untimed.
fn setup_once(spec: &Spec) -> f64 {
    let session = spec.session().time_limit(SimDuration::ZERO);
    let t0 = Instant::now();
    if spec.shards > 1 {
        let run = session.run_with_sharded_world();
        let s = t0.elapsed().as_secs_f64();
        drop(run);
        s
    } else {
        let run = session.run_with_world();
        let s = t0.elapsed().as_secs_f64();
        drop(run);
        s
    }
}

/// Wall and CPU time of one pass over a workload's sessions.
struct Pass {
    t0: Instant,
    cpu0: f64,
    attempted0: u64,
    failed0: u64,
}

/// A finished pass: wall seconds, CPU seconds, sessions attempted and
/// completed.
struct PassTime {
    wall: f64,
    cpu: f64,
    attempted: u64,
    completed: u64,
}

impl Pass {
    fn start(attempted: u64, failed: u64) -> Pass {
        Pass {
            t0: Instant::now(),
            cpu0: cpu_seconds(),
            attempted0: attempted,
            failed0: failed,
        }
    }

    fn end(self, attempted: u64, failed: u64) -> PassTime {
        let attempted = attempted - self.attempted0;
        PassTime {
            wall: self.t0.elapsed().as_secs_f64(),
            cpu: cpu_seconds() - self.cpu0,
            attempted,
            completed: attempted - (failed - self.failed0),
        }
    }

    /// Completed sessions per host second: quantile `q` of the per-pass
    /// rates (see [`Workload::host_quantiles`]).
    fn rate(passes: &[PassTime], q: f64) -> f64 {
        let rates: Vec<f64> = passes.iter().map(|p| p.completed as f64 / p.wall).collect();
        report::quantile(&rates, q)
    }

    /// Pass wall-time quantiles, for the log.
    fn summary(passes: &[PassTime]) -> String {
        let w: Vec<f64> = passes.iter().map(|p| p.wall * 1e3).collect();
        let q = |x| report::quantile(&w, x);
        format!(
            "pass wall ms min/p10/p25/p50/p75/p90/max {:.1}/{:.1}/{:.1}/{:.1}/{:.1}/{:.1}/{:.1}",
            q(0.0),
            q(0.1),
            q(0.25),
            q(0.5),
            q(0.75),
            q(0.9),
            q(1.0)
        )
    }

    /// CPU milliseconds per attempted session: quantile `q` over passes.
    fn cpu_ms(passes: &[PassTime], q: f64) -> f64 {
        let cpu: Vec<f64> = passes
            .iter()
            .map(|p| p.cpu * 1e3 / p.attempted as f64)
            .collect();
        report::quantile(&cpu, q)
    }
}

fn sim_untraced(w: Workload, seed: u64, seconds: Duration, checks: &mut Checks) -> RunResult {
    let specs = w.specs(seed);
    let (rate_q, cpu_q) = w.host_quantiles();
    let mut setups: Vec<f64> = (0..SETUP_REPS).map(|_| setup_pass(&specs)).collect();

    let mut attempted = 0u64;
    let mut failed = 0u64;
    // Pass-0 fingerprints: every later pass must repeat them exactly.
    let mut first: Vec<Option<(u64, Option<u64>)>> = vec![None; specs.len()];
    let (mut sync, mut done) = (Vec::new(), Vec::new());
    let (mut coverage, mut receipt, mut coord) = (Vec::new(), Vec::new(), Vec::new());
    let mut passes = Vec::new();
    let t0 = Instant::now();
    loop {
        let pass = Pass::start(attempted, failed);
        for (k, spec) in specs.iter().enumerate() {
            attempted += 1;
            let Ok(u) = catch_unwind(AssertUnwindSafe(|| run_untraced(spec))) else {
                failed += 1;
                checks.require(false, || format!("{} session {k} panicked", spec.label));
                continue;
            };
            let f = &u.finished;
            if !f.leaf.complete {
                failed += 1;
            }
            checks.require(f.leaf.complete, || {
                format!("{} session {k} did not complete", spec.label)
            });
            checks.require(f.counter(mss_sim::shard::CLAMPED_CROSS_EVENTS) == 0, || {
                format!(
                    "{} session {k}: cross-shard events were clamped",
                    spec.label
                )
            });
            let print = (f.events, f.digest);
            match first[k] {
                Some(p) => checks.require(p == print, || {
                    format!(
                        "{} session {k} is not deterministic: {p:?} vs {print:?}",
                        spec.label
                    )
                }),
                None => {
                    first[k] = Some(print);
                    let n = spec.cfg.n as f64;
                    sync.push((spec.label, f.sync_ms()));
                    if let Some(ns) = f.leaf.complete_nanos {
                        done.push((spec.label, ns as f64 / 1e6));
                    }
                    coverage.push(f.activated() as f64 / n);
                    receipt.push(f.counter(DATA_MSGS) as f64 / spec.cfg.content.packets as f64);
                    coord.push(f.counter(COORD_MSGS) as f64 / n);
                    gauge_cross_check(spec, k, &u, checks);
                }
            }
        }
        passes.push(pass.end(attempted, failed));
        setups.push(setup_pass(&specs));
        if t0.elapsed() >= seconds {
            break;
        }
    }
    eprintln!(
        "{}: {} passes of {} sessions in {:.3} s; {}",
        w.name(),
        passes.len(),
        specs.len(),
        t0.elapsed().as_secs_f64(),
        Pass::summary(&passes)
    );
    let mut m = Metrics::default();
    end_to_end(
        &mut m,
        EndToEnd {
            sessions_per_s: Pass::rate(&passes, rate_q),
            cpu_ms_per_session: Pass::cpu_ms(&passes, cpu_q),
            setup_s: median(&setups),
            sync_ms_p50: shape_median(&sync),
            done_ms_p50: shape_median(&done),
            complete_frac: (attempted - failed) as f64 / attempted as f64,
            coverage: mean(&coverage),
            receipt_ratio: mean(&receipt),
            coord_msgs_per_peer: mean(&coord),
        },
    );
    RunResult {
        attempted,
        failed,
        metrics: m,
        mmsg_active: None,
    }
}

/// `sim_sync_ms` and coverage come from the peer reports. On the single
/// world they must equal `SessionOutcome`; on sharded runs the outcome's
/// gauges are summed across shards by `Metrics::merge` (a known program
/// defect, recorded in NOTES.md), so the mismatch is printed, not gated.
fn gauge_cross_check(spec: &Spec, k: usize, u: &assemble::Untraced, checks: &mut Checks) {
    let f = &u.finished;
    if spec.shards > 1 {
        println!(
            "note: sharded-gauge defect ({} S={} n={}): SessionOutcome sync_ms={:.3} rounds={} \
             vs peer reports sync_ms={:.3} max_wave={}",
            spec.label,
            spec.shards,
            spec.cfg.n,
            u.outcome_sync_ms,
            u.outcome_rounds,
            f.sync_ms(),
            u.max_wave()
        );
        return;
    }
    checks.require(
        (u.outcome_sync_ms - f.sync_ms()).abs() < 1e-9
            && u.outcome_activated == f.activated() as u64,
        || {
            format!(
                "{} session {k}: SessionOutcome (sync {} ms, {} active) disagrees with peer \
                 reports (sync {} ms, {} active)",
                spec.label,
                u.outcome_sync_ms,
                u.outcome_activated,
                f.sync_ms(),
                f.activated()
            )
        },
    );
}

struct EndToEnd {
    sessions_per_s: f64,
    cpu_ms_per_session: f64,
    setup_s: f64,
    sync_ms_p50: f64,
    done_ms_p50: f64,
    complete_frac: f64,
    coverage: f64,
    receipt_ratio: f64,
    coord_msgs_per_peer: f64,
}

/// The end-to-end metrics, in `BENCHMARK.json` order.
fn end_to_end(m: &mut Metrics, e: EndToEnd) {
    m.put("sessions_per_s", e.sessions_per_s, "1/s");
    m.put("cpu_ms_per_session", e.cpu_ms_per_session, "ms");
    m.put("peak_rss_mib", peak_rss_mib(), "MiB");
    m.put("setup_s", e.setup_s, "s");
    m.put("sync_ms_p50", e.sync_ms_p50, "ms");
    m.put("done_ms_p50", e.done_ms_p50, "ms");
    m.put("complete_frac", e.complete_frac, "frac");
    m.put("coverage", e.coverage, "frac");
    m.put("receipt_ratio", e.receipt_ratio, "ratio");
    m.put("coord_msgs_per_peer", e.coord_msgs_per_peer, "msg/peer");
}

fn live_untraced(seed: u64, seconds: Duration, checks: &mut Checks) -> RunResult {
    let (rate_q, cpu_q) = Workload::LiveN2000.host_quantiles();
    let mut runs: Vec<live::LiveRun> = Vec::new();
    let mut pairs = Vec::new();
    let t0 = Instant::now();
    let mut i = 0;
    loop {
        // Timed a DCoP/TCoP pair at a time; the run ends on a whole pass.
        let failed = runs.iter().filter(|r| !r.ok).count() as u64;
        let pair = Pass::start(i, failed);
        for _ in 0..2 {
            let r = run_live(seed, i);
            if let Some(e) = &r.error {
                eprintln!("live session {i} ({}) failed: {e}", r.label);
            }
            checks.require(r.ok, || {
                format!("live session {i} ({}) did not complete", r.label)
            });
            checks.require(r.metrics.counter("net.rx_decode_err") == 0, || {
                format!("live session {i}: datagrams failed to decode")
            });
            runs.push(r);
            i += 1;
        }
        let failed = runs.iter().filter(|r| !r.ok).count() as u64;
        pairs.push(pair.end(i, failed));
        if i % LIVE_PASS == 0 && t0.elapsed() >= seconds {
            break;
        }
    }
    let wall = t0.elapsed().as_secs_f64();
    let attempted = runs.len() as u64;
    let ok: Vec<&live::LiveRun> = runs.iter().filter(|r| r.ok).collect();
    let failed = attempted - ok.len() as u64;
    let sync: Vec<(&'static str, f64)> = ok.iter().map(|r| (r.label, r.sync_ms)).collect();
    let done: Vec<(&'static str, f64)> = ok.iter().map(|r| (r.label, r.done_ms)).collect();
    let setups: Vec<f64> = ok.iter().map(|r| r.setup_s).collect();
    eprintln!(
        "live_n2000: {attempted} sessions ({failed} failed) in {wall:.3} s; done ms p50/p90 {:.1}/{:.1} over {} sessions",
        median(&done.iter().map(|d| d.1).collect::<Vec<_>>()),
        report::quantile(&done.iter().map(|d| d.1).collect::<Vec<_>>(), 0.9),
        done.len()
    );
    let mut m = Metrics::default();
    end_to_end(
        &mut m,
        EndToEnd {
            sessions_per_s: Pass::rate(&pairs, rate_q),
            cpu_ms_per_session: Pass::cpu_ms(&pairs, cpu_q),
            setup_s: median(&setups),
            sync_ms_p50: shape_median(&sync),
            done_ms_p50: shape_median(&done),
            complete_frac: ok.len() as f64 / attempted as f64,
            coverage: mean(
                &runs
                    .iter()
                    .map(|r| r.activated as f64 / r.n as f64)
                    .collect::<Vec<_>>(),
            ),
            receipt_ratio: mean(
                &ok.iter()
                    .map(|r| r.data_msgs as f64 / r.packets as f64)
                    .collect::<Vec<_>>(),
            ),
            coord_msgs_per_peer: mean(
                &ok.iter()
                    .map(|r| r.coord_msgs as f64 / r.n as f64)
                    .collect::<Vec<_>>(),
            ),
        },
    );
    RunResult {
        attempted,
        failed,
        metrics: m,
        mmsg_active: runs
            .iter()
            .find(|r| r.error.is_none())
            .map(|r| r.metrics.counter("net.mmsg_active") == 1),
    }
}

/// Per-layer totals over the traced passes.
#[derive(Default)]
struct LayerTotals {
    acc: Acc,
    /// Per shard index: in-handler ns and run-wall ns.
    shard_busy: Vec<(u64, u64)>,
    events: u64,
    dispatch_self_ns: u64,
    queue_high_water: usize,
    windows: u64,
    cross_sent: u64,
    sharded_dispatched: u64,
    imbalance: Vec<f64>,
    clamped: u64,
    recovered: u64,
    duplicates: u64,
    accepted: u64,
    repair_rounds: u64,
    traced_ns: u64,
    untraced_ns: u64,
}

impl LayerTotals {
    fn add(&mut self, t: &assemble::Traced) {
        let f = &t.finished;
        if self.shard_busy.len() < t.per_shard.len() {
            self.shard_busy.resize(t.per_shard.len(), (0, 0));
        }
        for (k, a) in t.per_shard.iter().enumerate() {
            self.acc.add(a);
            self.shard_busy[k].0 += a.handler_ns;
            self.shard_busy[k].1 += t.run_ns;
            self.dispatch_self_ns += t.run_ns.saturating_sub(a.handler_ns);
        }
        self.events += f.events;
        self.queue_high_water = self.queue_high_water.max(f.queue_high_water.unwrap_or(0));
        if let Some(s0) = f.shard_stats.first() {
            self.windows += s0.windows;
            let d: Vec<f64> = f.shard_stats.iter().map(|s| s.dispatched as f64).collect();
            self.imbalance
                .push(d.iter().cloned().fold(0.0, f64::max) / mean(&d).max(1.0));
        }
        for s in &f.shard_stats {
            self.cross_sent += s.cross_sent;
            self.sharded_dispatched += s.dispatched;
            self.clamped += s.clamped;
        }
        self.recovered += f.leaf.recovered;
        self.duplicates += f.leaf.duplicates;
        self.accepted += f.leaf.accepted;
        self.repair_rounds += f.counter("repair.rounds");
    }
}

fn traced(w: Workload, seed: u64, seconds: Duration, checks: &mut Checks) -> RunResult {
    let specs = w.specs(seed);
    let mut t = LayerTotals::default();
    let mut attempted = 0u64;
    let mut failed = 0u64;
    let t0 = Instant::now();
    let mut passes = 0u64;
    loop {
        for (k, spec) in specs.iter().enumerate() {
            attempted += 1;
            let res = catch_unwind(AssertUnwindSafe(|| {
                let a = Instant::now();
                let u = run_untraced(spec);
                let untraced_ns = a.elapsed().as_nanos() as u64;
                let a = Instant::now();
                let tr = run_traced(spec, None);
                (u, untraced_ns, tr, a.elapsed().as_nanos() as u64)
            }));
            let Ok((u, untraced_ns, tr, traced_ns)) = res else {
                failed += 1;
                checks.require(false, || format!("{} session {k} panicked", spec.label));
                continue;
            };
            if !u.finished.leaf.complete {
                failed += 1;
            }
            checks.require(u.finished.leaf.complete, || {
                format!("{} session {k} did not complete", spec.label)
            });
            checks.require(tr.finished == u.finished, || {
                format!(
                    "{} session {k}: traced world diverged from Session (events {} vs {}, digest {:?} vs {:?})",
                    spec.label,
                    tr.finished.events,
                    u.finished.events,
                    tr.finished.digest,
                    u.finished.digest
                )
            });
            t.add(&tr);
            t.traced_ns += traced_ns;
            t.untraced_ns += untraced_ns;
        }
        passes += 1;
        if t0.elapsed() >= seconds {
            break;
        }
    }
    checks.require(t.clamped == 0, || "cross-shard events were clamped".into());
    eprintln!(
        "{} traced: {passes} passes of {} sessions in {:.3} s",
        w.name(),
        specs.len(),
        t0.elapsed().as_secs_f64()
    );

    let mut net = NetLayer::default();
    let mut mmsg_active = None;
    if w == Workload::LiveN2000 {
        // The codec mix: every message one simulated pass sends.
        let captured = Captured::default();
        for spec in &specs {
            run_traced(spec, Some(captured.clone()));
        }
        let mix = captured.take();
        let c = codec_cost(&mix, CODEC_REPS);
        checks.require(c.decode_errors == 0, || {
            format!("{} captured messages failed to decode", c.decode_errors)
        });
        eprintln!("codec mix: {} messages", c.messages);
        net.codec = Some(c);
        for i in 0..LIVE_TRACE_SESSIONS {
            attempted += 1;
            let r = run_live(seed, i);
            if let Some(e) = &r.error {
                eprintln!("live session {i} ({}) failed: {e}", r.label);
            }
            checks.require(r.ok, || {
                format!("live session {i} ({}) did not complete", r.label)
            });
            if !r.ok {
                failed += 1;
                continue;
            }
            mmsg_active = Some(r.metrics.counter("net.mmsg_active") == 1);
            net.add(&r.metrics);
        }
        checks.require(net.rx_decode_err == 0, || {
            "live datagrams failed to decode".into()
        });
    }

    let mut m = Metrics::default();
    per_layer(&mut m, &t, passes as f64, &net);
    RunResult {
        attempted,
        failed,
        metrics: m,
        mmsg_active,
    }
}

/// Live-plane counters summed over the traced live sessions.
#[derive(Default)]
struct NetLayer {
    codec: Option<live::CodecCost>,
    sessions: u64,
    rx_batches: u64,
    rx_datagrams: u64,
    rx_dropped: u64,
    tx_batches: u64,
    tx_datagrams: u64,
    mailbox_hwm: u64,
    rx_decode_err: u64,
}

impl NetLayer {
    fn add(&mut self, m: &mss_sim::metrics::Metrics) {
        self.sessions += 1;
        self.rx_batches += m.counter("net.rx_batches");
        self.rx_datagrams += m.counter("net.rx_datagrams");
        self.rx_dropped += m.counter("net.rx_dropped");
        self.tx_batches += m.counter("net.tx_batches");
        self.tx_datagrams += m.counter("net.tx_datagrams");
        self.mailbox_hwm = self.mailbox_hwm.max(m.counter("net.mailbox_hwm"));
        self.rx_decode_err += m.counter("net.rx_decode_err");
    }
}

fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// The per-layer metrics, in `BENCHMARK.json` order. Counts and times
/// are per pass of the workload's sessions.
fn per_layer(m: &mut Metrics, t: &LayerTotals, passes: f64, net: &NetLayer) {
    let ms = |ns: u64| ns as f64 / 1e6 / passes;
    let count = |c: u64| c as f64 / passes;
    let a = &t.acc;
    for (kind, b) in [
        ("request", Bucket::PlaneRequest),
        ("control", Bucket::PlaneControl),
        ("reply", Bucket::PlaneReply),
        ("nack", Bucket::PlaneNack),
        ("timer", Bucket::PlaneTimer),
    ] {
        m.put(
            &format!("core.plane.{kind}.calls"),
            count(a.calls(b)),
            "count",
        );
        m.put(
            &format!("core.plane.{kind}.self_ms"),
            ms(a.self_ns(b)),
            "ms",
        );
    }
    for (kind, b) in [("data", Bucket::LeafData), ("timer", Bucket::LeafTimer)] {
        m.put(
            &format!("core.leaf.{kind}.calls"),
            count(a.calls(b)),
            "count",
        );
        m.put(&format!("core.leaf.{kind}.self_ms"), ms(a.self_ns(b)), "ms");
    }
    m.put("core.leaf.recovered", count(t.recovered), "count");
    m.put("core.leaf.duplicates", count(t.duplicates), "count");
    m.put(
        "core.leaf.useful_frac",
        ratio(t.accepted as f64, (t.accepted + t.duplicates) as f64),
        "frac",
    );
    m.put("repair.rounds", count(t.repair_rounds), "count");
    m.put("sim.event.send_calls", count(a.send_calls), "count");
    m.put(
        "sim.event.send_self_ms",
        ms(a.send_ns.saturating_sub(a.send_link_ns)),
        "ms",
    );
    m.put("sim.event.timer_calls", count(a.timer_calls), "count");
    m.put("sim.event.timer_ms", ms(a.timer_ns), "ms");
    m.put("sim.link.calls", count(a.link_calls), "count");
    m.put("sim.link.ms", ms(a.link_ns), "ms");
    m.put("sim.world.events", count(t.events), "count");
    m.put("sim.world.dispatch_self_ms", ms(t.dispatch_self_ns), "ms");
    m.put(
        "sim.world.queue_high_water",
        t.queue_high_water as f64,
        "count",
    );
    let busy: Vec<f64> = t
        .shard_busy
        .iter()
        .map(|&(h, wall)| ratio(h as f64, wall as f64))
        .collect();
    m.put(
        "sim.shard.busy_frac_min",
        busy.iter().cloned().fold(f64::INFINITY, f64::min),
        "frac",
    );
    m.put(
        "sim.shard.busy_frac_max",
        busy.iter().cloned().fold(0.0, f64::max),
        "frac",
    );
    m.put(
        "sim.shard.unattributed_ms",
        ms(t.dispatch_self_ns) / t.shard_busy.len().max(1) as f64,
        "ms",
    );
    m.put("sim.shard.windows", count(t.windows), "count");
    m.put(
        "sim.shard.cross_frac",
        ratio(t.cross_sent as f64, t.sharded_dispatched as f64),
        "frac",
    );
    m.put(
        "sim.shard.imbalance",
        if t.imbalance.is_empty() {
            1.0
        } else {
            mean(&t.imbalance)
        },
        "ratio",
    );
    m.put("sim.shard.clamped", t.clamped as f64, "count");
    let c = net.codec.as_ref();
    m.put(
        "net.codec.encode_ns_per_msg",
        c.map_or(0.0, |c| c.encode_ns),
        "ns",
    );
    m.put(
        "net.codec.decode_ns_per_msg",
        c.map_or(0.0, |c| c.decode_ns),
        "ns",
    );
    m.put("net.codec.bytes_per_msg", c.map_or(0.0, |c| c.bytes), "B");
    m.put(
        "net.live.rx_batch_avg",
        ratio(net.rx_datagrams as f64, net.rx_batches as f64),
        "msg",
    );
    m.put(
        "net.live.tx_batch_avg",
        ratio(net.tx_datagrams as f64, net.tx_batches as f64),
        "msg",
    );
    m.put(
        "net.live.rx_drop_frac",
        ratio(
            net.rx_dropped as f64,
            (net.rx_datagrams + net.rx_dropped) as f64,
        ),
        "frac",
    );
    m.put("net.live.mailbox_hwm", net.mailbox_hwm as f64, "count");
    m.put("net.live.rx_decode_err", net.rx_decode_err as f64, "count");
    m.put(
        "net.live.msgs_per_session",
        ratio(net.tx_datagrams as f64, net.sessions as f64),
        "count",
    );
    m.put(
        "trace.overhead_frac",
        ratio(t.traced_ns as f64, t.untraced_ns as f64) - 1.0,
        "frac",
    );
}

#[cfg(test)]
mod tests;
