//! The 100k+-node evaluation pipeline: region-sharded D-NDP on the
//! timing-wheel engine, arena topology, and the sharded M-NDP closure.
//!
//! [`crate::network::run_once`] walks every physical pair sequentially —
//! exactly right at the paper's 2000 nodes, hopeless at 100×–500× that.
//! This module re-plans the same experiment for large fields:
//!
//! * placement goes into an SoA [`NodeStore`] and the physical topology
//!   into an arena-allocated [`CsrGraph`] (no per-node allocations);
//! * the field is split into `shards` vertical strips; each strip owns
//!   the physical pairs whose lower-id endpoint lies inside it and runs
//!   them on its own wheel-backed discrete-event [`Engine`], with every
//!   pair's D-NDP draw forked straight off the run seed and the strip's
//!   pairs going through one D-NDP pass (see [`crate::dndp`]), which
//!   reuses its buffers and adds its counts to the registry once;
//! * shard outputs are folded *sequentially in strip order* into the
//!   logical graph, and the M-NDP closure in [`crate::mndp`] — the one
//!   `run_once` runs as a single strip — runs its capability count and
//!   rounds over the same strips against a shared read-only graph, with
//!   a pooled relay BFS per strip.
//!
//! # Determinism contract
//!
//! For a fixed [`ScaleConfig`] (including `shards`) and seed, the
//! [`RunResult`] is a pure function of the inputs: per-pair randomness is
//! `root.fork("pair", u ≪ 32 | v)` (never a shared stream), each shard's
//! event order is the engine's total `(time, seq)` order, and every
//! cross-shard reduction happens in fixed strip order on the calling
//! thread. Worker-thread count (`JRSND_THREADS`) is therefore invisible
//! — byte-identical [`Aggregate::to_json`] output — and so is the
//! scheduler backend (timing wheel vs. reference heap). Changing
//! `shards` itself changes fold order, i.e. the low-order floating-point
//! bits of latency means; it is part of the configuration, not a tuning
//! knob.

use crate::dndp::{self, DndpConfig, DndpOutcome};
use crate::jammer::{Jammer, JammerKind};
use crate::mndp;
use crate::montecarlo::Aggregate;
use crate::network::RunResult;
use crate::params::Params;
use crate::predist::CodeAssignment;
use jrsnd_sim::engine::{Control, Engine, SchedulerKind};
use jrsnd_sim::rng::SimRng;
use jrsnd_sim::soa::{CsrGraph, NodeStore};
use jrsnd_sim::stats::RunningStats;
use jrsnd_sim::time::SimTime;
use jrsnd_sim::topology::Graph;
use jrsnd_sim::{metric_counter, metric_gauge};
use rand::{Rng, SeedableRng};
use std::time::Instant;

/// Configuration of one large-scale run.
#[derive(Debug, Clone)]
pub struct ScaleConfig {
    /// Protocol and deployment parameters (see [`ScaleConfig::scaled`]
    /// for the density-preserving derivation).
    pub params: Params,
    /// The adversary. [`JammerKind::Sweep`] is rejected: its jamming
    /// decisions depend on a global message counter, which per-shard
    /// jammer clones cannot reproduce.
    pub jammer: JammerKind,
    /// D-NDP protocol variant.
    pub dndp: DndpConfig,
    /// Number of vertical field strips. Part of the determinism
    /// contract: results are reproducible per shard count.
    pub shards: usize,
    /// The initiation period `T` (s): each pair's D-NDP fires at a
    /// seed-forked time in `[0, T)` on its shard's event engine.
    pub period: f64,
    /// Discrete-event scheduler backend for the shard engines.
    pub scheduler: SchedulerKind,
}

impl ScaleConfig {
    /// Scales the paper's Table I deployment to `n` nodes while
    /// preserving the fig. 5(a) operating regime:
    ///
    /// * the field side grows as `5000 · √(n/2000)` m, keeping node
    ///   density — and hence mean degree `g` — fixed;
    /// * `m` stays at 100 rounds and the partition size grows as
    ///   `l = n/50`, keeping the pairwise code-sharing probability
    ///   `≈ m(l−1)/(n−1)` fixed;
    /// * the adversary stays at `q = 100` captured nodes *absolute*,
    ///   which keeps the per-code compromise probability
    ///   `1−(1−q/n)^l ≈ 1−e^{−ql/n}` fixed.
    ///
    /// A naive proportional scaling of all three would instead collapse
    /// code sharing (`l` fixed ⇒ sharing `∝ 1/n`) or saturate compromise,
    /// silently changing the regime the figures are drawn in.
    ///
    /// # Panics
    ///
    /// Panics if `n` is not a positive multiple of 50 (so `l = n/50`
    /// divides the population into exact partitions).
    pub fn scaled(n: usize) -> Self {
        assert!(
            n >= 100 && n.is_multiple_of(50),
            "scaled population must be a multiple of 50, got {n}"
        );
        let mut params = Params::table1();
        params.n = n;
        let side = 5000.0 * (n as f64 / 2000.0).sqrt();
        params.field_w = side;
        params.field_h = side;
        params.l = n / 50;
        params.q = 100.min(n);
        ScaleConfig {
            params,
            jammer: JammerKind::Reactive,
            dndp: DndpConfig::default(),
            shards: 16,
            period: 30.0,
            scheduler: SchedulerKind::Wheel,
        }
    }

    fn validate(&self) {
        self.params.validate().expect("invalid parameters");
        assert!(self.shards >= 1, "need at least one shard");
        assert!(
            self.period > 0.0 && self.period.is_finite(),
            "period must be positive"
        );
        assert!(
            self.jammer != JammerKind::Sweep,
            "sweep jamming is stateful across pairs and cannot be sharded \
             deterministically; use the sequential network::run_once driver"
        );
    }
}

/// Wall-clock accounting of one [`run_scale`] invocation.
#[derive(Debug, Clone, Copy)]
pub struct ScalePerf {
    /// Total wall-clock time (s), all phases.
    pub wall_s: f64,
    /// Wall-clock time (s) of the sharded discrete-event D-NDP phase.
    pub dndp_wall_s: f64,
    /// Events processed across all shard engines.
    pub events: u64,
    /// Events per second of the discrete-event phase.
    pub events_per_sec: f64,
    /// Worker threads used.
    pub threads: usize,
    /// Field strips.
    pub shards: usize,
}

/// What one strip's event engine produced: per-pair outcomes in event
/// order, plus the engine's event count.
struct ShardDndp {
    outcomes: Vec<(u32, u32, DndpOutcome)>,
    events: u64,
}

fn pair_key(u: u32, v: u32) -> u64 {
    (u64::from(u) << 32) | u64::from(v)
}

/// Runs one strip's D-NDP on its own discrete-event engine: one event
/// per owned pair at a seed-forked time in `[0, period)`, FIFO at equal
/// times, outcomes recorded in event order. The strip's pairs run through
/// one D-NDP pass, whose counts reach the registry when the strip ends.
fn dndp_shard(
    config: &ScaleConfig,
    root: &SimRng,
    assignment: &CodeAssignment,
    jammer: &Jammer,
    pairs: &[(u32, u32)],
) -> ShardDndp {
    let params = &config.params;
    let mut engine: Engine<u32> = Engine::with_scheduler(config.scheduler);
    for (i, &(u, v)) in pairs.iter().enumerate() {
        let t = root
            .fork("pair-time", pair_key(u, v))
            .gen_range(0.0..config.period);
        engine.schedule_at(SimTime::from_secs_f64(t), i as u32);
    }
    let mut outcomes = Vec::with_capacity(pairs.len());
    let mut shared = Vec::new();
    let mut pass = dndp::PairPass::new(params, jammer, config.dndp);
    engine.run(SimTime::from_secs_f64(config.period), |_, _, i| {
        let (u, v) = pairs[i as usize];
        assignment.shared_codes_into(u as usize, v as usize, &mut shared);
        let mut rng = root.fork("pair", pair_key(u, v));
        outcomes.push((u, v, pass.run(&shared, &mut rng)));
        Control::Continue
    });
    ShardDndp {
        outcomes,
        events: engine.events_processed(),
    }
}

/// Runs one seeded large-scale instance. See the module docs for the
/// pipeline and the determinism contract.
///
/// # Panics
///
/// Panics on invalid parameters, zero shards, a non-positive period, or
/// a sweep jammer.
pub fn run_scale(config: &ScaleConfig, seed: u64) -> (RunResult, ScalePerf) {
    run_scale_with_threads(config, seed, None)
}

/// [`run_scale`] with an explicit worker-thread count (`None` = the
/// `JRSND_THREADS` variable, then available parallelism). The result is
/// byte-identical for every thread count.
///
/// # Panics
///
/// As [`run_scale`], plus if `threads == Some(0)`.
pub fn run_scale_with_threads(
    config: &ScaleConfig,
    seed: u64,
    threads: Option<usize>,
) -> (RunResult, ScalePerf) {
    config.validate();
    let threads = crate::resolve_threads(threads);
    let start = Instant::now();
    let params = &config.params;
    let root = SimRng::seed_from_u64(seed);
    let field = params.field();

    // Placement into the SoA store, physical topology into the CSR arena.
    // Same labelled streams as network::run_once, so the deployment is
    // the one the sequential driver would have produced for this seed.
    let mut placement_rng = root.fork("placement", 0);
    let store = NodeStore::sample_uniform(field, params.n, &mut placement_rng);
    let physical = CsrGraph::build(field, &store, params.range);
    let mean_degree = physical.mean_degree();

    // Pre-distribution and node compromise.
    let (assignment, jammer) = crate::network::draw_adversary(params, config.jammer, &root);

    // Strip ownership: a pair belongs to the strip holding its lower-id
    // endpoint. Pure function of placement, so identical on every worker
    // layout.
    let shards = config.shards;
    let strip_of = |u: u32| -> usize {
        let x = store.position(u as usize).x;
        (((x / field.width()) * shards as f64) as usize).min(shards - 1)
    };
    let mut shard_pairs: Vec<Vec<(u32, u32)>> = vec![Vec::new(); shards];
    for (u, v) in physical.edges() {
        shard_pairs[strip_of(u)].push((u, v));
    }

    // Phase A: sharded discrete-event D-NDP. The jammer holds interior
    // mutability (sweep bookkeeping) and is not Sync, so each strip gets
    // its own clone; the accepted kinds are stateless across pairs.
    let dndp_start = Instant::now();
    let mut work: Vec<(Vec<(u32, u32)>, Jammer)> = shard_pairs
        .into_iter()
        .map(|pairs| (pairs, jammer.clone()))
        .collect();
    let dndp_shards = crate::for_each_shard(&mut work, threads, |(pairs, jam)| {
        dndp_shard(config, &root, &assignment, jam, pairs)
    });
    let dndp_wall_s = dndp_start.elapsed().as_secs_f64();
    let shard_pairs: Vec<Vec<(u32, u32)>> = work.into_iter().map(|(pairs, _)| pairs).collect();

    // Phase B: fold in fixed strip order on this thread — the reduction
    // the determinism contract pins down.
    let mut logical = Graph::new(params.n);
    let mut dndp_latency = RunningStats::new();
    let mut dndp_pairs = 0usize;
    let mut events = 0u64;
    for shard in &dndp_shards {
        events += shard.events;
        for &(u, v, out) in &shard.outcomes {
            if out.discovered {
                logical.add_edge(u as usize, v as usize);
                dndp_pairs += 1;
                if let Some(t) = out.latency {
                    dndp_latency.push(t);
                }
            }
        }
    }

    // Phase C: the M-NDP closure, sharded over the same strips.
    let closure = mndp::close(&logical, &shard_pairs, params, mean_degree, threads);

    let wall_s = start.elapsed().as_secs_f64();
    let perf = ScalePerf {
        wall_s,
        dndp_wall_s,
        events,
        events_per_sec: events as f64 / dndp_wall_s.max(1e-12),
        threads,
        shards,
    };
    metric_counter!("scale.runs").inc();
    metric_counter!("scale.events").add(events);
    metric_gauge!("scale.events_per_sec").set(perf.events_per_sec);
    metric_gauge!("scale.wall_s").set(wall_s);
    let result = RunResult {
        physical_pairs: physical.edge_count(),
        dndp_pairs,
        mndp_pairs: closure.first_round,
        mndp_extra_steady_pairs: closure.later,
        mndp_capable_pairs: closure.capable,
        mean_degree,
        mndp_epochs: closure.rounds,
        dndp_latency,
        mndp_latency: closure.latency,
        degraded_pairs: 0,
        retry_attempts: physical.edge_count() as u64,
    };
    (result, perf)
}

/// Aggregates `reps` seeded [`run_scale`] instances (seeds
/// `base_seed..base_seed+reps`), folding sequentially in seed order.
/// Each instance parallelizes internally over its shards, so repetitions
/// run one after another. The returned [`ScalePerf`] sums events and
/// discrete-event wall time over all repetitions.
///
/// # Panics
///
/// As [`run_scale`], plus if `reps == 0`.
pub fn run_scale_many(config: &ScaleConfig, reps: usize, base_seed: u64) -> (Aggregate, ScalePerf) {
    assert!(reps > 0, "need at least one repetition");
    let start = Instant::now();
    let mut agg = Aggregate::default();
    let mut events = 0u64;
    let mut dndp_wall_s = 0.0f64;
    let mut threads = 1usize;
    for i in 0..reps {
        let (result, perf) = run_scale(config, base_seed + i as u64);
        agg.absorb(&result);
        events += perf.events;
        dndp_wall_s += perf.dndp_wall_s;
        threads = perf.threads;
    }
    let wall_s = start.elapsed().as_secs_f64();
    let perf = ScalePerf {
        wall_s,
        dndp_wall_s,
        events,
        events_per_sec: events as f64 / dndp_wall_s.max(1e-12),
        threads,
        shards: config.shards,
    };
    (agg, perf)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::seq::SliceRandom;

    /// A small scaled config that keeps the Table I density (ca. 550
    /// nodes in a ~2600 m field) so the tests run in milliseconds.
    fn small_config() -> ScaleConfig {
        let mut c = ScaleConfig::scaled(550);
        c.shards = 4;
        c
    }

    #[test]
    fn scaled_preserves_the_operating_regime() {
        let base = Params::table1();
        let big = ScaleConfig::scaled(200_000).params;
        // Density: same field area per node.
        let density = |p: &Params| p.n as f64 / (p.field_w * p.field_h);
        assert!((density(&big) / density(&base) - 1.0).abs() < 1e-9);
        // Code sharing: m(l-1)/(n-1) within a few percent (the -1s
        // bend the ratio slightly as n grows).
        let share = |p: &Params| p.m as f64 * (p.l as f64 - 1.0) / (p.n as f64 - 1.0);
        assert!((share(&big) / share(&base) - 1.0).abs() < 0.05);
        // Per-code compromise 1-(1-q/n)^l stays in the fig5a band
        // (q = 100 at n = 2000 gives ~0.87).
        let compromise = |p: &Params, q: f64| 1.0 - (1.0 - q / p.n as f64).powi(p.l as i32);
        let at_big = compromise(&big, big.q as f64);
        let at_base = compromise(&base, 100.0);
        assert!(
            (at_big - at_base).abs() < 0.02,
            "compromise regime drifted: {at_base} -> {at_big}"
        );
        big.validate().expect("scaled params must validate");
    }

    #[test]
    #[should_panic(expected = "multiple of 50")]
    fn scaled_rejects_odd_populations() {
        ScaleConfig::scaled(12_345);
    }

    #[test]
    #[should_panic(expected = "sweep jamming")]
    fn sweep_jammer_is_rejected() {
        let mut c = small_config();
        c.jammer = JammerKind::Sweep;
        run_scale(&c, 1);
    }

    #[test]
    fn thread_count_is_byte_invisible() {
        let c = small_config();
        let json = |threads| {
            let (r, _) = run_scale_with_threads(&c, 42, Some(threads));
            let mut agg = Aggregate::default();
            agg.absorb(&r);
            agg.to_json()
        };
        let one = json(1);
        assert_eq!(one, json(2));
        assert_eq!(one, json(4));
        assert_eq!(one, json(7));
    }

    #[test]
    fn wheel_and_heap_backends_are_byte_identical() {
        let mut wheel = small_config();
        wheel.scheduler = SchedulerKind::Wheel;
        let mut heap = small_config();
        heap.scheduler = SchedulerKind::ReferenceHeap;
        let json = |c: &ScaleConfig| {
            let (r, _) = run_scale(c, 7);
            let mut agg = Aggregate::default();
            agg.absorb(&r);
            agg.to_json()
        };
        assert_eq!(json(&wheel), json(&heap));
    }

    /// End-to-end semantics check: a sequential in-test reference that
    /// replays each pair's forked RNG and runs mndp's remove-and-search
    /// closure oracle must agree with the sharded pipeline on every count
    /// (floating-point latency means may differ in fold order only).
    #[test]
    fn sharded_pipeline_matches_sequential_reference() {
        let config = small_config();
        let seed = 11u64;
        let (got, perf) = run_scale(&config, seed);

        let params = &config.params;
        let root = SimRng::seed_from_u64(seed);
        let field = params.field();
        let mut placement_rng = root.fork("placement", 0);
        let store = NodeStore::sample_uniform(field, params.n, &mut placement_rng);
        let physical = CsrGraph::build(field, &store, params.range);
        let mut predist_rng = root.fork("predist", 0);
        let assignment = CodeAssignment::generate(params, &mut predist_rng);
        let mut compromise_rng = root.fork("compromise", 0);
        let mut node_order: Vec<usize> = (0..params.n).collect();
        node_order.shuffle(&mut compromise_rng);
        let jammer = Jammer::new(
            config.jammer,
            assignment.compromised_codes(&node_order[..params.q]),
            params,
        );

        let mut logical = Graph::new(params.n);
        let mut dndp_pairs = 0usize;
        let mut latencies = Vec::new();
        for (u, v) in physical.edges() {
            let (u, v) = (u as usize, v as usize);
            let shared = assignment.shared_codes(u, v);
            let mut rng = root.fork("pair", pair_key(u as u32, v as u32));
            let out = dndp::simulate_pair_with(params, &shared, &jammer, config.dndp, &mut rng);
            if out.discovered {
                logical.add_edge(u, v);
                dndp_pairs += 1;
                if let Some(t) = out.latency {
                    latencies.push(t);
                }
            }
        }
        assert_eq!(got.physical_pairs, physical.edge_count());
        assert_eq!(got.dndp_pairs, dndp_pairs);
        assert_eq!(got.mean_degree, physical.mean_degree());
        assert_eq!(got.dndp_latency.count(), latencies.len() as u64);
        assert!(
            (got.dndp_latency.mean() - latencies.iter().sum::<f64>() / latencies.len() as f64)
                .abs()
                < 1e-9
        );

        // Theorem 3's count and the rounds, by remove-and-search on a
        // mutated graph in edge order.
        let pairs: Vec<(usize, usize)> = physical.to_graph().edges().collect();
        let want = mndp::sequential_closure(&logical, &pairs, params, got.mean_degree);
        assert_eq!(got.mndp_capable_pairs, want.capable);
        assert_eq!(got.mndp_pairs, want.first_round);
        assert_eq!(got.mndp_extra_steady_pairs, want.later);
        assert_eq!(got.mndp_epochs, want.rounds);
        assert_eq!(got.mndp_latency.count(), want.latency.count());
        assert!((got.mndp_latency.mean() - want.latency.mean()).abs() < 1e-9);
        assert_eq!(got.retry_attempts, got.physical_pairs as u64);
        assert_eq!(got.degraded_pairs, 0);
        assert_eq!(perf.events, got.physical_pairs as u64);
        assert!(perf.events_per_sec > 0.0);
    }

    #[test]
    fn unbounded_nu_equals_nu_of_n_minus_one() {
        let json = |nu| {
            let mut c = small_config();
            c.params.nu = nu;
            let mut agg = Aggregate::default();
            agg.absorb(&run_scale(&c, 29).0);
            agg.to_json()
        };
        assert_eq!(json(usize::MAX), json(small_config().params.n - 1));
    }

    #[test]
    fn shard_count_changes_only_float_fold_order() {
        let mut one = small_config();
        one.shards = 1;
        let mut many = small_config();
        many.shards = 7;
        let (a, _) = run_scale(&one, 23);
        let (b, _) = run_scale(&many, 23);
        assert_eq!(a.physical_pairs, b.physical_pairs);
        assert_eq!(a.dndp_pairs, b.dndp_pairs);
        assert_eq!(a.mndp_pairs, b.mndp_pairs);
        assert_eq!(a.mndp_extra_steady_pairs, b.mndp_extra_steady_pairs);
        assert_eq!(a.mndp_capable_pairs, b.mndp_capable_pairs);
        assert_eq!(a.mndp_epochs, b.mndp_epochs);
        assert_eq!(a.dndp_latency.count(), b.dndp_latency.count());
        assert!((a.dndp_latency.mean() - b.dndp_latency.mean()).abs() < 1e-9);
    }

    #[test]
    fn run_scale_many_aggregates_in_seed_order() {
        let c = small_config();
        let (agg, perf) = run_scale_many(&c, 3, 100);
        assert_eq!(agg.runs(), 3);
        let mut manual = Aggregate::default();
        for s in 100..103 {
            manual.absorb(&run_scale(&c, s).0);
        }
        assert_eq!(agg.to_json(), manual.to_json());
        assert!(perf.events > 0);
        assert_eq!(perf.shards, c.shards);
    }

    #[test]
    fn probabilities_behave_like_the_sequential_driver() {
        let r = run_scale(&small_config(), 5).0;
        assert!(r.physical_pairs > 100, "degenerate topology");
        assert!((0.0..=1.0).contains(&r.p_dndp()));
        assert!((0.0..=1.0).contains(&r.p_mndp()));
        assert!((0.0..=1.0).contains(&r.p_jrsnd()));
        assert!(r.p_jrsnd() >= r.p_dndp());
        assert!(r.dndp_pairs + r.mndp_pairs <= r.physical_pairs);
    }
}
