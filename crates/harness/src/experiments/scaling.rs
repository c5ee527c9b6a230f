//! Large-population scaling: events/sec of DCoP and TCoP activation +
//! streaming as the population and the shard count grow.
//!
//! Each point runs one [`SessionConfig::large`] session (streaming
//! enabled, activation-only re-selection) and reports wall-clock,
//! dispatched events, throughput, and per-shard load imbalance.
//! `shards = 1` is the classic single-threaded `World` kernel — the
//! honest baseline the sharded rows are compared against; rows with
//! more shards use the conservative time-window kernel. Timing rows run
//! strictly sequentially (never under sweep parallelism), so the
//! `--threads` option is ignored here.
//!
//! The default grid stops at n = 10⁴; `--full` adds n = 10⁵. A fixed
//! `--shards N` replaces the shard grid with that single value.

use std::time::Instant;

use mss_core::prelude::*;

use super::{ExperimentOutput, RunOpts};
use crate::table::{f, Table};

/// One measured run.
#[derive(Clone, Debug)]
pub struct ScalePoint {
    /// Protocol measured.
    pub protocol: Protocol,
    /// Population size.
    pub n: usize,
    /// Shard count (1 = one `World` in the calling thread).
    pub shards: usize,
    /// Events dispatched over the whole run.
    pub events: u64,
    /// Wall-clock seconds.
    pub wall_s: f64,
    /// Events per wall-clock second.
    pub events_per_sec: f64,
    /// Peers activated (must equal `n`).
    pub activated: u64,
    /// Leaf finished streaming.
    pub complete: bool,
    /// Max/mean dispatched-events ratio across shards (1.0 = balanced).
    pub imbalance: f64,
}

/// The shard grid for the scaling sweep: a fixed `--shards N`, or
/// `{1, 4, max}` deduplicated and sorted.
pub fn shard_grid(opts: &RunOpts) -> Vec<usize> {
    if opts.shards > 0 {
        return vec![opts.shards];
    }
    let max = std::thread::available_parallelism().map_or(1, |p| p.get());
    let mut grid = vec![1, 4, max];
    grid.sort_unstable();
    grid.dedup();
    grid.retain(|&s| s == 1 || s <= max.max(4));
    grid
}

/// The population grid: powers of ten, topping out at 10⁴ (10⁵ with
/// `--full` — minutes of wall-clock, see EXPERIMENTS.md).
pub fn population_grid(full: bool) -> Vec<usize> {
    let mut g = vec![100, 1_000, 10_000];
    if full {
        g.push(100_000);
    }
    g
}

/// Measure one `(protocol, n, shards)` point.
pub fn measure(protocol: Protocol, n: usize, shards: usize) -> ScalePoint {
    let cfg = SessionConfig::large(n, 8, 42);
    let start = Instant::now();
    let (outcome, events, imbalance) = if shards <= 1 {
        let (outcome, world, _) = Session::new(cfg, protocol).run_with_world();
        (outcome, world.events_dispatched(), 1.0)
    } else {
        let (outcome, world, _) = Session::new(cfg, protocol)
            .shards(shards)
            .run_with_sharded_world();
        let stats = world.shard_stats();
        let max = stats.iter().map(|s| s.dispatched).max().unwrap_or(0);
        let mean = world.events_dispatched() as f64 / stats.len().max(1) as f64;
        let imbalance = if mean > 0.0 { max as f64 / mean } else { 1.0 };
        (outcome, world.events_dispatched(), imbalance)
    };
    let wall_s = start.elapsed().as_secs_f64().max(1e-9);
    ScalePoint {
        protocol,
        n,
        shards,
        events,
        wall_s,
        events_per_sec: events as f64 / wall_s,
        activated: outcome.activated,
        complete: outcome.complete,
        imbalance,
    }
}

/// Run the scaling sweep.
pub fn run(opts: &RunOpts) -> ExperimentOutput {
    let shard_grid = shard_grid(opts);
    let mut t = Table::new(
        "Sharded-kernel scaling — events/sec vs population and shards (H=8)",
        &[
            "protocol",
            "n",
            "shards",
            "events",
            "wall_s",
            "events_per_sec",
            "activated",
            "complete",
            "imbalance",
        ],
    );
    for protocol in [Protocol::Dcop, Protocol::Tcop] {
        for &n in &population_grid(opts.full) {
            for &shards in &shard_grid {
                let p = measure(protocol, n, shards);
                eprintln!(
                    "[scaling] {} n={} shards={}: {:.0} events/s ({:.2}s)",
                    protocol.name(),
                    n,
                    shards,
                    p.events_per_sec,
                    p.wall_s
                );
                t.push(vec![
                    protocol.name().to_owned(),
                    p.n.to_string(),
                    p.shards.to_string(),
                    p.events.to_string(),
                    f(p.wall_s, 3),
                    f(p.events_per_sec, 0),
                    p.activated.to_string(),
                    p.complete.to_string(),
                    f(p.imbalance, 3),
                ]);
            }
        }
    }
    ExperimentOutput {
        name: "scaling",
        tables: vec![t],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_points_cover_and_balance() {
        for shards in [1usize, 2] {
            let p = measure(Protocol::Dcop, 200, shards);
            assert_eq!(p.activated, 200);
            assert!(p.complete);
            assert!(p.events > 0);
            assert!(p.imbalance >= 1.0);
        }
    }

    #[test]
    fn grids_are_sane() {
        let g = population_grid(false);
        assert_eq!(g, vec![100, 1_000, 10_000]);
        assert!(population_grid(true).contains(&100_000));
        let fixed = shard_grid(&RunOpts {
            shards: 3,
            ..RunOpts::default()
        });
        assert_eq!(fixed, vec![3]);
        let auto = shard_grid(&RunOpts::default());
        assert!(auto.contains(&1));
        assert!(auto.windows(2).all(|w| w[0] < w[1]));
    }
}
