//! Network replays. montecarlo-fig5a replays `network::run_once` per seed
//! through `physical_graph`, `CodeAssignment::generate`,
//! `dndp::simulate_pair_with`, `Graph::shortest_path_within` and
//! `mndp::closure_pass`. scale-20k replays `scale::run_scale` up to the
//! end of its D-NDP event phase (struct-of-arrays topology,
//! pre-distribution, one timing-wheel engine per strip); its sharded BFS
//! closure has no public entry point and stays in `run_scale`'s own time.

use crate::spans::span;
use jrsnd::analysis::mndp::t_mndp;
use jrsnd::dndp;
use jrsnd::jammer::Jammer;
use jrsnd::mndp;
use jrsnd::network::{ExperimentConfig, RunResult};
use jrsnd::params::Params;
use jrsnd::predist::CodeAssignment;
use jrsnd::scale::ScaleConfig;
use jrsnd_sim::engine::{Control, Engine};
use jrsnd_sim::rng::SimRng;
use jrsnd_sim::soa::{CsrGraph, NodeStore};
use jrsnd_sim::stats::RunningStats;
use jrsnd_sim::time::SimTime;
use jrsnd_sim::topology::{physical_graph, Graph};
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// Pre-distribution and compromise: the code assignment, the captured
/// nodes' codes, and the jammer holding them.
fn predist(
    params: &Params,
    kind: jrsnd::JammerKind,
    root: &SimRng,
    id: u64,
    layer: &'static str,
) -> (CodeAssignment, Jammer) {
    let assignment = span(layer, id, || {
        CodeAssignment::generate(params, &mut root.fork("predist", 0))
    });
    let compromised = span(layer, id, || {
        let mut order: Vec<usize> = (0..params.n).collect();
        order.shuffle(&mut root.fork("compromise", 0));
        assignment.compromised_codes(&order[..params.q])
    });
    let jammer = span("dndp", id, || Jammer::new(kind, compromised, params));
    (assignment, jammer)
}

/// What a montecarlo replay counted beyond the run itself.
#[derive(Debug, Default, Clone, Copy)]
pub struct NetworkCounts {
    /// Relay-path BFS calls: one per capability check, one per
    /// non-logical physical pair in every closure pass.
    pub bfs_calls: u64,
}

/// Replays `network::run_once(config, seed)`.
pub fn run_once(config: &ExperimentConfig, seed: u64, counts: &mut NetworkCounts) -> RunResult {
    span("montecarlo", seed, || {
        let params = &config.params;
        let root = SimRng::seed_from_u64(seed);
        let field = params.field();
        let physical = span("montecarlo.topology", seed, || {
            let positions = field.sample_uniform_n(params.n, &mut root.fork("placement", 0));
            physical_graph(field, &positions, params.range)
        });
        let mean_degree = physical.mean_degree();
        let (assignment, jammer) = predist(params, config.jammer, &root, seed, "predist");

        let mut protocol_rng = root.fork("dndp", 0);
        let mut logical = Graph::new(params.n);
        let mut dndp_latency = RunningStats::new();
        let mut dndp_pairs = 0usize;
        for (u, v) in physical.edges() {
            let shared = span("predist", seed, || assignment.shared_codes(u, v));
            let outcome = span("dndp", seed, || {
                dndp::simulate_pair_with(params, &shared, &jammer, config.dndp, &mut protocol_rng)
            });
            if outcome.discovered {
                logical.add_edge(u, v);
                dndp_pairs += 1;
                if let Some(t) = outcome.latency {
                    dndp_latency.push(t);
                }
            }
        }

        let mut capable = 0usize;
        for (u, v) in physical.edges() {
            let relay = span("mndp.capability", seed, || {
                let had_direct = logical.remove_edge(u, v);
                let found = logical.shortest_path_within(u, v, params.nu).is_some();
                if had_direct {
                    logical.add_edge(u, v);
                }
                found
            });
            capable += usize::from(relay);
        }
        counts.bfs_calls += physical.edge_count() as u64;

        // One M-NDP round (the paper's setting), then passes to fixpoint.
        let mut mndp_latency = RunningStats::new();
        let mut first_round = 0usize;
        let mut extra = 0usize;
        let mut epochs = 0usize;
        loop {
            counts.bfs_calls += (physical.edge_count() - logical.edge_count()) as u64;
            let found = span("mndp.closure", seed, || {
                mndp::closure_pass(&logical, &physical, params.nu)
            });
            if found.is_empty() {
                break;
            }
            for &(u, v, hops) in &found {
                logical.add_edge(u, v);
                if epochs == 0 {
                    mndp_latency.push(t_mndp(params, hops, mean_degree));
                }
            }
            if epochs == 0 {
                first_round = found.len();
            } else {
                extra += found.len();
            }
            epochs += 1;
        }

        RunResult {
            physical_pairs: physical.edge_count(),
            dndp_pairs,
            mndp_pairs: first_round,
            mndp_extra_steady_pairs: extra,
            mndp_capable_pairs: capable,
            mean_degree,
            mndp_epochs: epochs,
            dndp_latency,
            mndp_latency,
            degraded_pairs: 0,
            retry_attempts: physical.edge_count() as u64,
        }
    })
}

/// What the scale replay reproduces of `run_scale`: the deployment and
/// the D-NDP event phase.
#[derive(Debug, Clone)]
pub struct ScaleReplay {
    /// Physical pairs of the struct-of-arrays topology.
    pub physical_pairs: usize,
    /// Its mean degree.
    pub mean_degree: f64,
    /// Pairs discovered by D-NDP.
    pub dndp_pairs: usize,
    /// D-NDP latencies folded in strip order.
    pub dndp_latency: RunningStats,
    /// Events the strips' timing wheels processed.
    pub events: u64,
}

fn pair_key(u: u32, v: u32) -> u64 {
    (u64::from(u) << 32) | u64::from(v)
}

/// Replays `scale::run_scale(config, seed)` through its D-NDP phase.
pub fn run_scale(config: &ScaleConfig, seed: u64) -> ScaleReplay {
    span("scale", seed, || {
        let params = &config.params;
        let root = SimRng::seed_from_u64(seed);
        let field = params.field();
        let (store, physical) = span("sim.topology", seed, || {
            let store = NodeStore::sample_uniform(field, params.n, &mut root.fork("placement", 0));
            let physical = CsrGraph::build(field, &store, params.range);
            (store, physical)
        });
        let (assignment, jammer) = predist(params, config.jammer, &root, seed, "scale.predist");

        // A pair belongs to the strip of its lower-id endpoint; strips run
        // one after another and fold in strip order.
        let shards = config.shards;
        let mut strips: Vec<Vec<(u32, u32)>> = vec![Vec::new(); shards];
        for (u, v) in physical.edges() {
            let x = store.position(u as usize).x;
            let strip = (((x / field.width()) * shards as f64) as usize).min(shards - 1);
            strips[strip].push((u, v));
        }
        let mut logical_pairs = 0usize;
        let mut latency = RunningStats::new();
        let mut events = 0u64;
        for pairs in &strips {
            span("sim.wheel", seed, || {
                let mut engine: Engine<u32> = Engine::with_scheduler(config.scheduler);
                for (i, &(u, v)) in pairs.iter().enumerate() {
                    let t = root
                        .fork("pair-time", pair_key(u, v))
                        .gen_range(0.0..config.period);
                    engine.schedule_at(SimTime::from_secs_f64(t), i as u32);
                }
                engine.run(SimTime::from_secs_f64(config.period), |_, _, i| {
                    let (u, v) = pairs[i as usize];
                    let shared = assignment.shared_codes(u as usize, v as usize);
                    let mut rng = root.fork("pair", pair_key(u, v));
                    let out = span("dndp", seed, || {
                        dndp::simulate_pair_with(params, &shared, &jammer, config.dndp, &mut rng)
                    });
                    if out.discovered {
                        logical_pairs += 1;
                        if let Some(t) = out.latency {
                            latency.push(t);
                        }
                    }
                    Control::Continue
                });
                events += engine.events_processed();
            });
        }
        ScaleReplay {
            physical_pairs: physical.edge_count(),
            mean_degree: physical.mean_degree(),
            dndp_pairs: logical_pairs,
            dndp_latency: latency,
            events,
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use jrsnd::jammer::JammerKind;
    use jrsnd_perfbench::check::run_fingerprint;

    /// A shrunken fig. 5(a): 400 nodes at Table I density.
    fn small() -> ExperimentConfig {
        let mut config = jrsnd_perfbench::scenario::montecarlo_config();
        config.params.n = 400;
        config.params.l = 8;
        config.params.q = 20;
        config.params.field_w = 2236.0;
        config.params.field_h = 2236.0;
        config
    }

    #[test]
    fn montecarlo_replay_equals_run_once_on_a_small_instance() {
        for jammer in [JammerKind::Reactive, JammerKind::None] {
            let config = ExperimentConfig { jammer, ..small() };
            for seed in [3u64, 11] {
                let want = jrsnd::network::run_once(&config, seed);
                let got = run_once(&config, seed, &mut NetworkCounts::default());
                assert_eq!(run_fingerprint(&got), run_fingerprint(&want), "seed {seed}");
                assert!(want.mndp_pairs > 0, "the instance exercises M-NDP");
            }
        }
    }

    #[test]
    fn scale_replay_reproduces_the_dndp_phase() {
        let mut config = jrsnd_perfbench::scenario::scale_config();
        config.params.n = 2000;
        config.params.l = 40;
        config.params.field_w = 5000.0;
        config.params.field_h = 5000.0;
        let (want, perf) = jrsnd::scale::run_scale(&config, 5);
        let got = run_scale(&config, 5);
        assert_eq!(got.physical_pairs, want.physical_pairs);
        assert_eq!(got.mean_degree.to_bits(), want.mean_degree.to_bits());
        assert_eq!(got.dndp_pairs, want.dndp_pairs);
        assert_eq!(got.dndp_latency.count(), want.dndp_latency.count());
        assert_eq!(
            got.dndp_latency.mean().to_bits(),
            want.dndp_latency.mean().to_bits()
        );
        assert_eq!(got.events, perf.events);
    }
}
