//! One end-to-end network instance: placement → pre-distribution →
//! compromise → D-NDP on every physical pair → M-NDP closure.
//!
//! This is the protocol-level simulator behind every figure: it mirrors
//! the paper's own evaluation loop (2000 nodes uniform in 5000×5000 m²,
//! reactive jamming, averages over seeded runs).
//!
//! A run lives on flat arrays: positions in a [`NodeStore`], the physical
//! graph in a [`CsrGraph`], its pairs in canonical order, one D-NDP
//! verdict bit per pair, and the M-NDP closure fed those verdicts. Each
//! worker thread keeps these buffers from seed to seed, so a warm seed
//! allocates only the code assignment and the jammer it draws.

use crate::dndp::{self, DndpConfig, NodeRounds, Pair};
use crate::jammer::{Jammer, JammerKind};
use crate::mndp::{self, CloseScratch, Strip};
use crate::params::Params;
use crate::predist::CodeAssignment;
use jrsnd_sim::faults::{FaultInjector, FaultPlan};
use jrsnd_sim::retry::RetryPolicy;
use jrsnd_sim::rng::SimRng;
use jrsnd_sim::soa::{CsrGraph, CsrScratch, NodeStore};
use jrsnd_sim::stats::RunningStats;
use jrsnd_sim::{metric_counter, sim_trace};
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::cell::RefCell;

/// Configuration of one experiment (a parameter set plus the adversary).
#[derive(Debug, Clone)]
pub struct ExperimentConfig {
    /// The system parameters.
    pub params: Params,
    /// The jamming behaviour.
    pub jammer: JammerKind,
    /// D-NDP protocol variant (redundancy ablation).
    pub dndp: DndpConfig,
}

impl ExperimentConfig {
    /// Table I defaults under reactive jamming — the paper's plotted
    /// worst case.
    pub fn paper_default() -> Self {
        ExperimentConfig {
            params: Params::table1(),
            jammer: JammerKind::Reactive,
            dndp: DndpConfig::default(),
        }
    }
}

/// Fault-injection and retry settings for a resilience experiment.
///
/// Same seed + same plan ⇒ byte-identical results: every fault decision
/// is a pure function of `(run seed, pair index, attempt)`, so the chaos
/// sweep composes with the static seed-sharded Monte-Carlo driver.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ResilienceConfig {
    /// Retry budget and backoff schedule per pair.
    pub retry: RetryPolicy,
    /// Declarative fault plan; `None` disables injection but keeps the
    /// retry loop (useful for isolating retry overhead).
    pub faults: Option<FaultPlan>,
}

impl ResilienceConfig {
    /// No faults, no retries: [`run_once_opt`] with this config draws the
    /// exact same RNG sequence as [`run_once`] only when `faults` is
    /// `None` *and* the budget is one attempt.
    pub fn none() -> Self {
        ResilienceConfig {
            retry: RetryPolicy::none(),
            faults: None,
        }
    }

    /// A fault plan of the given intensity with `extra` budgeted retries.
    pub fn chaos(intensity: f64, extra_retries: u32) -> Self {
        ResilienceConfig {
            retry: RetryPolicy::budgeted(extra_retries),
            faults: Some(FaultPlan::intensity(intensity)),
        }
    }
}

/// The measured outcome of one seeded network instance.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Physical-neighbor pairs in the snapshot.
    pub physical_pairs: usize,
    /// Pairs discovered directly by D-NDP.
    pub dndp_pairs: usize,
    /// Additional pairs discovered by one M-NDP round over the
    /// D-NDP-established links — the paper's evaluation setting.
    pub mndp_pairs: usize,
    /// Further pairs discovered by iterating M-NDP to fixpoint (newly
    /// formed logical links relay later requests) — steady state under
    /// periodic re-initiation; an extension beyond the paper's plots.
    pub mndp_extra_steady_pairs: usize,
    /// Physical pairs connected by a relay path of 2..=ν hops in the
    /// D-NDP logical graph (their own direct edge excluded) — the
    /// unconditional "discoverable via M-NDP" probability that Theorem 3
    /// bounds and Fig. 2(a)/5(a) plot.
    pub mndp_capable_pairs: usize,
    /// Measured mean physical degree `g`.
    pub mean_degree: f64,
    /// M-NDP closure epochs until fixpoint.
    pub mndp_epochs: usize,
    /// Sampled D-NDP latencies (Theorem 2 timeline) in seconds.
    pub dndp_latency: RunningStats,
    /// Per-discovery M-NDP latencies (Theorem 4 at the actual hop count).
    pub mndp_latency: RunningStats,
    /// Pairs whose whole retry budget was exhausted under fault
    /// injection (partial discovery, not an abort). Zero without a
    /// [`ResilienceConfig`].
    pub degraded_pairs: usize,
    /// Total D-NDP attempts spent across all pairs (equals
    /// `physical_pairs` when nothing retries).
    pub retry_attempts: u64,
}

impl RunResult {
    /// `P̂_D`: fraction of physical pairs discovered directly.
    pub fn p_dndp(&self) -> f64 {
        if self.physical_pairs == 0 {
            return 0.0;
        }
        self.dndp_pairs as f64 / self.physical_pairs as f64
    }

    /// `P̂_M`: probability a physical pair is discoverable via M-NDP — a
    /// relay path of 2..=ν hops exists through D-NDP-established links
    /// (the quantity Theorem 3 lower-bounds; unconditional on the pair's
    /// own D-NDP outcome, which is how the paper plots it).
    pub fn p_mndp(&self) -> f64 {
        if self.physical_pairs == 0 {
            return 0.0;
        }
        self.mndp_capable_pairs as f64 / self.physical_pairs as f64
    }

    /// Conditional rescue rate of one M-NDP round: of the pairs D-NDP
    /// missed, the fraction discovered (1.0 when nothing was left).
    pub fn p_mndp_rescued(&self) -> f64 {
        let remaining = self.physical_pairs - self.dndp_pairs;
        if remaining == 0 {
            return 1.0;
        }
        self.mndp_pairs as f64 / remaining as f64
    }

    /// Steady-state discovery probability with M-NDP iterated to fixpoint
    /// (periodic re-initiation lets fresh logical links relay further
    /// requests).
    pub fn p_jrsnd_steady(&self) -> f64 {
        if self.physical_pairs == 0 {
            return 0.0;
        }
        (self.dndp_pairs + self.mndp_pairs + self.mndp_extra_steady_pairs) as f64
            / self.physical_pairs as f64
    }

    /// `P̂`: overall JR-SND discovery probability.
    pub fn p_jrsnd(&self) -> f64 {
        if self.physical_pairs == 0 {
            return 0.0;
        }
        (self.dndp_pairs + self.mndp_pairs) as f64 / self.physical_pairs as f64
    }

    /// `T̄ = max(T̄_D, T̄_M)` over the measured means.
    pub fn t_jrsnd(&self) -> f64 {
        self.dndp_latency.mean().max(self.mndp_latency.mean())
    }
}

/// The seeded deployment every driver runs against: the code
/// pre-distribution, drawn on the root's `"predist"` stream, and the
/// jammer holding the codes of the first `q` nodes of a shuffle on its
/// `"compromise"` stream. `network`, `scale` and `timeline` all draw it
/// here, so one seed deploys the same codes and adversary in each.
pub(crate) fn draw_adversary(
    params: &Params,
    kind: JammerKind,
    root: &SimRng,
) -> (CodeAssignment, Jammer) {
    let assignment = CodeAssignment::generate(params, &mut root.fork("predist", 0));
    let mut order: Vec<usize> = (0..params.n).collect();
    order.shuffle(&mut root.fork("compromise", 0));
    let captured_rows = order[..params.q]
        .iter()
        .flat_map(|&v| assignment.codes_of(v).iter().copied());
    let jammer = Jammer::new(kind, captured_rows, params);
    (assignment, jammer)
}

/// Runs one seeded network instance.
///
/// # Panics
///
/// Panics if the configuration's parameters fail validation.
pub fn run_once(config: &ExperimentConfig, seed: u64) -> RunResult {
    run_once_opt(config, None, seed)
}

/// [`run_once`] with optional fault injection and per-pair retry budgets.
///
/// With `resilience: None` this draws the exact same RNG sequence as
/// [`run_once`] and returns an identical result. With `Some`, every
/// physical pair's D-NDP runs under the retry budget, with a
/// [`FaultInjector`] seeded from the run seed when the plan injects
/// faults; pairs that exhaust the budget degrade to "undiscovered" and
/// are counted in [`RunResult::degraded_pairs`] — the run always
/// completes.
///
/// # Panics
///
/// Panics if the configuration's parameters fail validation.
pub fn run_once_opt(
    config: &ExperimentConfig,
    resilience: Option<&ResilienceConfig>,
    seed: u64,
) -> RunResult {
    RUN_SCRATCH.with(|scratch| run_in(&mut scratch.borrow_mut(), config, resilience, seed))
}

/// The buffers of one network run that a worker thread keeps from seed to
/// seed.
#[derive(Default)]
struct RunScratch {
    store: NodeStore,
    topology: CsrScratch,
    physical: CsrGraph,
    /// The physical pairs `(u, v)`, `u < v`, in canonical order.
    pairs: Vec<(u32, u32)>,
    /// Each real node's rounds whose code the jammer holds.
    known: Vec<u64>,
    /// One bit per pair, set where D-NDP discovered it.
    verdicts: Vec<u64>,
    closure: CloseScratch,
}

thread_local! {
    static RUN_SCRATCH: RefCell<RunScratch> = RefCell::new(RunScratch::default());
}

fn run_in(
    s: &mut RunScratch,
    config: &ExperimentConfig,
    resilience: Option<&ResilienceConfig>,
    seed: u64,
) -> RunResult {
    let params = &config.params;
    params.validate().expect("invalid parameters");
    let root = SimRng::seed_from_u64(seed);

    // 1. Placement and physical topology.
    let field = params.field();
    s.store
        .resample_uniform(field, params.n, &mut root.fork("placement", 0));
    s.physical
        .rebuild(field, &s.store, params.range, &mut s.topology);
    let mean_degree = s.physical.mean_degree();
    s.pairs.clear();
    s.pairs.reserve_exact(s.physical.edge_count());
    s.pairs.extend(s.physical.edges());

    // 2. Pre-distribution and node compromise.
    let (assignment, jammer) = draw_adversary(params, config.jammer, &root);
    let rounds = NodeRounds::new(&assignment, &jammer, &mut s.known);

    // 3. D-NDP on every physical pair, through one pass that tallies the
    //    run's D-NDP and jammer counts and writes one verdict per pair.
    //    Under a ResilienceConfig, each pair gets a fault stream keyed by
    //    its canonical index — stable across worker counts because the
    //    pair order is.
    let mut protocol_rng = root.fork("dndp", 0);
    let injector = resilience
        .and_then(|r| r.faults)
        .filter(|p| !p.is_inert())
        .map(|plan| FaultInjector::new(seed ^ 0xFA17_0000, plan));
    s.verdicts.clear();
    s.verdicts.resize(s.pairs.len().div_ceil(64), 0);
    let mut dndp_latency = RunningStats::new();
    let mut dndp_pairs = 0usize;
    let mut degraded_pairs = 0usize;
    let mut retry_attempts = 0u64;
    let mut pass = dndp::PairPass::new(params, &jammer, config.dndp);
    for (pair_index, &(u, v)) in s.pairs.iter().enumerate() {
        let (u, v) = (u as usize, v as usize);
        let outcome = match resilience {
            None => {
                retry_attempts += 1;
                pass.run_nodes(&rounds, u, v, &mut protocol_rng)
            }
            Some(res) => {
                let r = pass.run_resilient(
                    Pair::Nodes(&rounds, u, v),
                    dndp::PairResilience {
                        faults: injector.as_ref(),
                        retry: &res.retry,
                        pair_stream: pair_index as u64,
                    },
                    &mut protocol_rng,
                );
                retry_attempts += u64::from(r.attempts);
                // "Degraded" means the resilience machinery was in play
                // and the pair still failed — a plain jammed pair under
                // ResilienceConfig::none() is just undiscovered, keeping
                // that config's results identical to run_once's.
                if r.degraded && (res.retry.retries() || injector.is_some()) {
                    degraded_pairs += 1;
                }
                r.outcome
            }
        };
        if outcome.discovered {
            s.verdicts[pair_index / 64] |= 1 << (pair_index % 64);
            dndp_pairs += 1;
            if let Some(t) = outcome.latency {
                dndp_latency.push(t);
            }
        }
    }

    // 4. M-NDP over the D-NDP links, as one strip on this thread: the
    //    Theorem 3 count, one round (the paper's setting), then rounds to
    //    fixpoint (the steady state under periodic re-initiation, an
    //    extension metric). Relay paths run over secret session codes, so
    //    they are jam-proof under the z << N adversary model.
    let strips = &mut s.closure.strips;
    strips.resize_with(1, Strip::default);
    strips[0].pairs.clear();
    strips[0].pairs.extend(0..s.pairs.len() as u32);
    let closure = mndp::close(
        &mut s.closure,
        params.n,
        &s.pairs,
        &s.verdicts,
        params,
        mean_degree,
        1,
    );

    let physical_pairs = s.pairs.len();
    metric_counter!("network.runs").inc();
    metric_counter!("network.physical_pairs").add(physical_pairs as u64);
    metric_counter!("network.dndp_pairs").add(dndp_pairs as u64);
    metric_counter!("network.mndp_pairs").add(closure.first_round as u64);
    sim_trace!(
        0.0,
        "network",
        "seed {seed}: {}/{} pairs direct, {} rescued, {} steady-state extra",
        dndp_pairs,
        physical_pairs,
        closure.first_round,
        closure.later
    );

    RunResult {
        physical_pairs,
        dndp_pairs,
        mndp_pairs: closure.first_round,
        mndp_extra_steady_pairs: closure.later,
        mndp_capable_pairs: closure.capable,
        mean_degree,
        mndp_epochs: closure.rounds,
        dndp_latency,
        mndp_latency: closure.latency,
        degraded_pairs,
        retry_attempts,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A shrunken Table I (400 nodes in a 2200x2200 field keeps the same
    /// density / degree) so unit tests stay fast.
    pub fn small_config() -> ExperimentConfig {
        let mut params = Params::table1();
        params.n = 400;
        params.field_w = 2236.0;
        params.field_h = 2236.0;
        params.l = 20;
        params.m = 60;
        params.q = 8;
        ExperimentConfig {
            params,
            jammer: JammerKind::Reactive,
            dndp: DndpConfig::default(),
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let cfg = small_config();
        let a = run_once(&cfg, 42);
        let b = run_once(&cfg, 42);
        assert_eq!(a.physical_pairs, b.physical_pairs);
        assert_eq!(a.dndp_pairs, b.dndp_pairs);
        assert_eq!(a.mndp_pairs, b.mndp_pairs);
        assert_eq!(a.mndp_epochs, b.mndp_epochs);
        let c = run_once(&cfg, 43);
        assert!(
            a.dndp_pairs != c.dndp_pairs || a.physical_pairs != c.physical_pairs,
            "different seeds should differ"
        );
    }

    #[test]
    fn probabilities_are_well_formed() {
        let r = run_once(&small_config(), 7);
        assert!(r.physical_pairs > 100, "degenerate topology");
        assert!((0.0..=1.0).contains(&r.p_dndp()));
        assert!((0.0..=1.0).contains(&r.p_mndp()));
        assert!((0.0..=1.0).contains(&r.p_jrsnd()));
        assert!(r.p_jrsnd() >= r.p_dndp());
        assert!(
            r.dndp_pairs + r.mndp_pairs <= r.physical_pairs,
            "cannot discover more pairs than exist"
        );
    }

    #[test]
    fn no_jammer_no_compromise_hits_share_probability() {
        let mut cfg = small_config();
        cfg.jammer = JammerKind::None;
        cfg.params.q = 0;
        let r = run_once(&cfg, 11);
        let expect = crate::analysis::predist::pr_share_at_least_one(&cfg.params);
        assert!(
            (r.p_dndp() - expect).abs() < 0.03,
            "measured {} vs theory {}",
            r.p_dndp(),
            expect
        );
        // Dense network: JR-SND should clean up nearly everything.
        assert!(r.p_jrsnd() > 0.98, "p = {}", r.p_jrsnd());
    }

    #[test]
    fn reactive_jamming_lowers_dndp_but_jrsnd_recovers() {
        let mut strong = small_config();
        strong.params.q = 40;
        let weak = run_once(&small_config(), 13);
        let hit = run_once(&strong, 13);
        assert!(
            hit.p_dndp() < weak.p_dndp(),
            "more compromise, less discovery"
        );
        assert!(hit.p_jrsnd() >= hit.p_dndp());
    }

    #[test]
    fn latencies_are_positive_and_bounded() {
        let r = run_once(&small_config(), 17);
        assert!(r.dndp_latency.count() > 0);
        assert!(r.dndp_latency.mean() > 0.0 && r.dndp_latency.mean() < 10.0);
        if r.mndp_latency.count() > 0 {
            assert!(r.mndp_latency.mean() > 0.0 && r.mndp_latency.mean() < 10.0);
        }
        assert!(r.t_jrsnd() >= r.dndp_latency.mean());
    }

    #[test]
    fn reactive_is_at_most_random_in_discovery() {
        let mut reactive_cfg = small_config();
        reactive_cfg.params.q = 30;
        let mut random_cfg = reactive_cfg.clone();
        random_cfg.jammer = JammerKind::Random;
        // Average a few seeds to stabilise the comparison.
        let mean = |cfg: &ExperimentConfig| -> f64 {
            (0..5).map(|s| run_once(cfg, 100 + s).p_dndp()).sum::<f64>() / 5.0
        };
        let p_reactive = mean(&reactive_cfg);
        let p_random = mean(&random_cfg);
        assert!(
            p_reactive <= p_random + 0.02,
            "reactive {p_reactive} should not beat random {p_random}"
        );
    }

    #[test]
    fn run_once_opt_without_resilience_is_run_once() {
        let cfg = small_config();
        let a = run_once(&cfg, 55);
        let b = run_once_opt(&cfg, None, 55);
        assert_eq!(a.physical_pairs, b.physical_pairs);
        assert_eq!(a.dndp_pairs, b.dndp_pairs);
        assert_eq!(a.mndp_pairs, b.mndp_pairs);
        assert_eq!(a.dndp_latency.mean(), b.dndp_latency.mean());
        assert_eq!(b.degraded_pairs, 0);
        assert_eq!(b.retry_attempts, b.physical_pairs as u64);
    }

    #[test]
    fn chaos_runs_are_deterministic_and_degrade_gracefully() {
        let cfg = small_config();
        let res = ResilienceConfig::chaos(0.8, 2);
        let a = run_once_opt(&cfg, Some(&res), 77);
        let b = run_once_opt(&cfg, Some(&res), 77);
        assert_eq!(a.dndp_pairs, b.dndp_pairs);
        assert_eq!(a.degraded_pairs, b.degraded_pairs);
        assert_eq!(a.retry_attempts, b.retry_attempts);
        assert_eq!(a.dndp_latency.mean(), b.dndp_latency.mean());
        // Faults hurt, retries fire, and the run still completes with a
        // partial-discovery outcome instead of aborting.
        assert!(a.degraded_pairs > 0, "intensity 0.8 never degraded a pair");
        assert!(a.retry_attempts > a.physical_pairs as u64);
        assert_eq!(a.dndp_pairs + a.degraded_pairs, a.physical_pairs);
        let clean = run_once(&cfg, 77);
        assert!(a.dndp_pairs < clean.dndp_pairs);
    }

    #[test]
    fn retries_claw_back_discovery_lost_to_faults() {
        let cfg = small_config();
        let no_retry = run_once_opt(&cfg, Some(&ResilienceConfig::chaos(0.6, 0)), 88);
        let budgeted = run_once_opt(&cfg, Some(&ResilienceConfig::chaos(0.6, 4)), 88);
        assert!(
            budgeted.dndp_pairs > no_retry.dndp_pairs,
            "budget 4 ({}) should beat budget 0 ({})",
            budgeted.dndp_pairs,
            no_retry.dndp_pairs
        );
        assert!(budgeted.degraded_pairs < no_retry.degraded_pairs);
    }

    #[test]
    fn unbounded_nu_equals_nu_of_n_minus_one() {
        let json = |nu| {
            let mut cfg = small_config();
            cfg.params.nu = nu;
            let mut agg = crate::montecarlo::Aggregate::default();
            agg.absorb(&run_once(&cfg, 19));
            agg.to_json()
        };
        assert_eq!(json(usize::MAX), json(small_config().params.n - 1));
    }

    #[test]
    fn empty_pair_edge_cases() {
        let r = RunResult {
            physical_pairs: 0,
            dndp_pairs: 0,
            mndp_pairs: 0,
            mndp_extra_steady_pairs: 0,
            mndp_capable_pairs: 0,
            mean_degree: 0.0,
            mndp_epochs: 0,
            dndp_latency: RunningStats::new(),
            mndp_latency: RunningStats::new(),
            degraded_pairs: 0,
            retry_attempts: 0,
        };
        assert_eq!(r.p_dndp(), 0.0);
        assert_eq!(r.p_mndp(), 0.0);
        assert_eq!(r.p_mndp_rescued(), 1.0);
        assert_eq!(r.p_jrsnd(), 0.0);
        assert_eq!(r.p_jrsnd_steady(), 0.0);
    }
}
