//! The Monte-Carlo experiment driver: repeated seeded runs, parallel
//! execution, and parameter sweeps — the machinery behind every figure.
//!
//! The paper reports "the average over 100 simulation runs, each with a
//! different random seed"; [`run_many`] reproduces exactly that (the
//! repetition count is configurable) using one worker thread per core.

use crate::network::{run_once_opt, ExperimentConfig, ResilienceConfig, RunResult};
use crate::params::Params;
use jrsnd_sim::stats::RunningStats;
use jrsnd_sim::{metric_counter, metric_gauge, metric_histogram};
use std::time::Instant;

/// Aggregated metrics over many seeded runs of one configuration.
#[derive(Debug, Clone, Default)]
pub struct Aggregate {
    /// Per-run `P̂_D`.
    pub p_dndp: RunningStats,
    /// Per-run `P̂_M`.
    pub p_mndp: RunningStats,
    /// Per-run `P̂` (JR-SND, one M-NDP round — the paper's metric).
    pub p_jrsnd: RunningStats,
    /// Per-run steady-state `P̂` with M-NDP iterated to fixpoint.
    pub p_jrsnd_steady: RunningStats,
    /// Per-run mean D-NDP latency (s). Runs with no discovered pair
    /// contribute nothing here; see [`Aggregate::runs_without_dndp_latency`].
    pub t_dndp: RunningStats,
    /// Per-run mean M-NDP latency (s). Runs with no multi-hop discovery
    /// contribute nothing here; see [`Aggregate::runs_without_mndp_latency`].
    pub t_mndp: RunningStats,
    /// Per-run `max(T̄_D, T̄_M)` (s).
    pub t_jrsnd: RunningStats,
    /// Per-run measured mean degree.
    pub degree: RunningStats,
    /// Per-run M-NDP epochs to fixpoint.
    pub epochs: RunningStats,
    /// Per-run fraction of physical pairs that exhausted their retry
    /// budget under fault injection (always 0 without a
    /// [`ResilienceConfig`]).
    pub degraded: RunningStats,
    /// Per-run mean D-NDP attempts per physical pair (1.0 when nothing
    /// retries).
    pub retry_attempts: RunningStats,
    /// Runs whose D-NDP latency column was skipped because no pair was
    /// directly discovered. `t_dndp.count() + runs_without_dndp_latency ==
    /// runs()`, so a partial latency column can never be misread as a
    /// full-population mean.
    pub runs_without_dndp_latency: u64,
    /// Runs whose M-NDP latency column was skipped (no multi-hop
    /// discovery happened). Same accounting as the D-NDP counter.
    pub runs_without_mndp_latency: u64,
}

impl Aggregate {
    /// Folds one run into the aggregate.
    pub fn absorb(&mut self, r: &RunResult) {
        self.p_dndp.push(r.p_dndp());
        self.p_mndp.push(r.p_mndp());
        self.p_jrsnd.push(r.p_jrsnd());
        self.p_jrsnd_steady.push(r.p_jrsnd_steady());
        if r.dndp_latency.count() > 0 {
            self.t_dndp.push(r.dndp_latency.mean());
        } else {
            self.runs_without_dndp_latency += 1;
        }
        if r.mndp_latency.count() > 0 {
            self.t_mndp.push(r.mndp_latency.mean());
        } else {
            self.runs_without_mndp_latency += 1;
        }
        self.t_jrsnd.push(r.t_jrsnd());
        self.degree.push(r.mean_degree);
        self.epochs.push(r.mndp_epochs as f64);
        let pairs = r.physical_pairs.max(1) as f64;
        self.degraded.push(r.degraded_pairs as f64 / pairs);
        self.retry_attempts.push(r.retry_attempts as f64 / pairs);
    }

    /// Number of runs absorbed.
    pub fn runs(&self) -> u64 {
        self.p_dndp.count()
    }

    /// Serializes the aggregate as JSON (hand-rolled: the workspace is
    /// vendored-only). Rust formats `f64` with shortest-roundtrip
    /// precision, so bitwise-identical aggregates produce byte-identical
    /// JSON — which is exactly what the determinism tests assert.
    pub fn to_json(&self) -> String {
        fn f(v: f64) -> String {
            if v.is_finite() {
                format!("{v}")
            } else {
                "null".into()
            }
        }
        fn stats(s: &RunningStats) -> String {
            format!(
                "{{\"count\": {}, \"mean\": {}, \"variance\": {}, \"min\": {}, \"max\": {}}}",
                s.count(),
                f(s.mean()),
                f(s.variance()),
                f(s.min()),
                f(s.max())
            )
        }
        let fields: [(&str, String); 11] = [
            ("p_dndp", stats(&self.p_dndp)),
            ("p_mndp", stats(&self.p_mndp)),
            ("p_jrsnd", stats(&self.p_jrsnd)),
            ("p_jrsnd_steady", stats(&self.p_jrsnd_steady)),
            ("t_dndp", stats(&self.t_dndp)),
            ("t_mndp", stats(&self.t_mndp)),
            ("t_jrsnd", stats(&self.t_jrsnd)),
            ("degree", stats(&self.degree)),
            ("epochs", stats(&self.epochs)),
            ("degraded", stats(&self.degraded)),
            ("retry_attempts", stats(&self.retry_attempts)),
        ];
        let mut out = String::from("{");
        for (name, value) in &fields {
            out.push_str(&format!("\"{name}\": {value}, "));
        }
        out.push_str(&format!(
            "\"runs\": {}, \"runs_without_dndp_latency\": {}, \"runs_without_mndp_latency\": {}}}",
            self.runs(),
            self.runs_without_dndp_latency,
            self.runs_without_mndp_latency
        ));
        out
    }
}

/// Wall-clock accounting for one [`run_many`] invocation.
#[derive(Debug, Clone, Copy)]
pub struct RunPerf {
    /// Total wall-clock time of the invocation (s).
    pub wall_s: f64,
    /// Completed runs per wall-clock second.
    pub runs_per_sec: f64,
    /// Worker threads actually used.
    pub threads: usize,
    /// Mean worker-thread utilization in `[0, 1]`: the summed time of
    /// every seed's run over `threads × wall_s`. Low values mean the
    /// static shards were unbalanced for this configuration.
    pub utilization: f64,
}

/// Runs `reps` seeded instances of `config` in parallel (seeds
/// `base_seed..base_seed+reps`) and aggregates them.
///
/// Deterministic — bitwise: seed indices are statically sharded into one
/// contiguous chunk per worker, the per-seed results land in
/// seed-indexed slots, and the final [`Aggregate`] is folded
/// *sequentially in seed order* on the calling thread. The result is
/// therefore a pure function of `(config, reps, base_seed)` — identical
/// to the single-threaded fold for any worker count and any OS
/// scheduling. (An earlier version work-stole seeds with an atomic
/// cursor and merged per-thread partials, which made the floating-point
/// reduction grouping — and thus the low-order bits of mean/variance —
/// depend on scheduling.)
///
/// Worker count defaults to [`std::thread::available_parallelism`]; the
/// `JRSND_THREADS` environment variable or [`run_many_with`] overrides
/// it.
///
/// # Panics
///
/// Panics if `reps == 0` or the parameters are invalid.
pub fn run_many(config: &ExperimentConfig, reps: usize, base_seed: u64) -> Aggregate {
    run_many_with(config, None, reps, base_seed, None).0
}

/// [`run_many`] with optional fault injection and per-pair retry budgets,
/// an explicit worker-thread count (`None` = default resolution:
/// `JRSND_THREADS`, then available parallelism), and wall-clock
/// accounting, which it also records into the global metrics registry
/// (`montecarlo.*` counters/gauges and the `montecarlo.point_wall_s`
/// histogram).
///
/// Inherits the full determinism contract: fault decisions are pure
/// functions of `(seed, pair, attempt)` and the seed shards are static,
/// so the aggregate — including the `degraded` and `retry_attempts`
/// columns — is bitwise identical for every `threads` value.
///
/// # Panics
///
/// Panics if `reps == 0`, `threads == Some(0)`, or the parameters are
/// invalid.
pub fn run_many_with(
    config: &ExperimentConfig,
    resilience: Option<&ResilienceConfig>,
    reps: usize,
    base_seed: u64,
    threads: Option<usize>,
) -> (Aggregate, RunPerf) {
    assert!(reps > 0, "need at least one repetition");
    let threads = crate::resolve_threads(threads).min(reps);
    config.params.validate().expect("invalid parameters");
    let start = Instant::now();
    // One contiguous chunk of seeds per worker, each run into its
    // seed-indexed slot, so nothing downstream can observe scheduling.
    let mut seeds: Vec<u64> = (0..reps as u64).map(|i| base_seed + i).collect();
    let runs = crate::for_each_shard(&mut seeds, threads, |&mut seed| {
        let t0 = Instant::now();
        let run = run_once_opt(config, resilience, seed);
        (run, t0.elapsed().as_secs_f64())
    });
    // Sequential fold in seed order — byte-for-byte the same reduction
    // at every worker count.
    let mut agg = Aggregate::default();
    for (run, _) in &runs {
        agg.absorb(run);
    }
    let busy: f64 = runs.iter().map(|(_, busy)| busy).sum();
    // The workers the pool spawned: one per contiguous chunk of seeds.
    let workers = reps.div_ceil(reps.div_ceil(threads));
    let wall_s = start.elapsed().as_secs_f64();
    let perf = RunPerf {
        wall_s,
        runs_per_sec: reps as f64 / wall_s.max(1e-12),
        threads: workers,
        utilization: (busy / (workers as f64 * wall_s.max(1e-12))).min(1.0),
    };
    metric_counter!("montecarlo.runs").add(reps as u64);
    metric_counter!("montecarlo.points").inc();
    metric_counter!("montecarlo.runs_without_dndp_latency").add(agg.runs_without_dndp_latency);
    metric_counter!("montecarlo.runs_without_mndp_latency").add(agg.runs_without_mndp_latency);
    metric_histogram!("montecarlo.point_wall_s", 0.0, 60.0, 60).record(perf.wall_s);
    metric_gauge!("montecarlo.runs_per_sec").set(perf.runs_per_sec);
    metric_gauge!("montecarlo.utilization").set(perf.utilization);
    metric_gauge!("montecarlo.threads").set(perf.threads as f64);
    (agg, perf)
}

/// One point of a parameter sweep.
#[derive(Debug, Clone)]
pub struct SweepPointResult {
    /// The swept value.
    pub x: f64,
    /// Aggregated metrics at that value.
    pub agg: Aggregate,
    /// Wall-clock accounting for this point.
    pub perf: RunPerf,
}

/// Sweeps a parameter: for each value, `set(params, value)` mutates a copy
/// of the base configuration, which is then run `reps` times.
///
/// # Panics
///
/// Panics if a mutated parameter set fails validation.
pub fn sweep<F>(
    base: &ExperimentConfig,
    values: &[f64],
    reps: usize,
    base_seed: u64,
    set: F,
) -> Vec<SweepPointResult>
where
    F: Fn(&mut Params, f64),
{
    values
        .iter()
        .map(|&x| {
            let mut config = base.clone();
            set(&mut config.params, x);
            config.params.validate().expect("swept parameters invalid");
            let (agg, perf) = run_many_with(&config, None, reps, base_seed, None);
            SweepPointResult { x, agg, perf }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dndp::DndpConfig;
    use crate::jammer::JammerKind;
    use crate::network::run_once;

    fn tiny_config() -> ExperimentConfig {
        let mut params = Params::table1();
        params.n = 150;
        params.field_w = 1400.0;
        params.field_h = 1400.0;
        params.l = 10;
        params.m = 30;
        params.q = 5;
        ExperimentConfig {
            params,
            jammer: JammerKind::Reactive,
            dndp: DndpConfig::default(),
        }
    }

    #[test]
    fn run_many_counts_and_merges() {
        let agg = run_many(&tiny_config(), 8, 1000);
        assert_eq!(agg.runs(), 8);
        assert!(agg.p_jrsnd.mean() >= agg.p_dndp.mean() - 1e-9);
        assert!((0.0..=1.0).contains(&agg.p_dndp.mean()));
    }

    #[test]
    fn parallel_equals_sequential_bitwise() {
        let cfg = tiny_config();
        let par = run_many(&cfg, 6, 500);
        let mut seq = Aggregate::default();
        for i in 0..6 {
            seq.absorb(&run_once(&cfg, 500 + i));
        }
        assert_eq!(par.runs(), seq.runs());
        // Static sharding + seed-order fold makes the parallel path the
        // *same* floating-point reduction as the sequential one, so the
        // comparison is bitwise, not tolerance-based.
        assert_eq!(par.p_dndp.mean().to_bits(), seq.p_dndp.mean().to_bits());
        assert_eq!(
            par.p_jrsnd.variance().to_bits(),
            seq.p_jrsnd.variance().to_bits()
        );
        assert_eq!(par.t_dndp.count(), seq.t_dndp.count());
        assert_eq!(par.t_dndp.mean().to_bits(), seq.t_dndp.mean().to_bits());
        assert_eq!(par.to_json(), seq.to_json());
    }

    #[test]
    fn repeated_invocations_are_identical() {
        let cfg = tiny_config();
        let a = run_many(&cfg, 6, 4242);
        let b = run_many(&cfg, 6, 4242);
        assert_eq!(a.to_json(), b.to_json());
    }

    #[test]
    fn thread_count_does_not_change_the_aggregate() {
        let cfg = tiny_config();
        let reference = run_many_with(&cfg, None, 5, 7000, Some(1)).0;
        for threads in [2, 3, 4, 8] {
            let agg = run_many_with(&cfg, None, 5, 7000, Some(threads)).0;
            assert_eq!(
                agg.to_json(),
                reference.to_json(),
                "worker count {threads} changed the aggregate"
            );
        }
    }

    #[test]
    fn latency_skips_are_accounted() {
        let agg = run_many(&tiny_config(), 6, 900);
        assert_eq!(
            agg.t_dndp.count() + agg.runs_without_dndp_latency,
            agg.runs()
        );
        assert_eq!(
            agg.t_mndp.count() + agg.runs_without_mndp_latency,
            agg.runs()
        );
        let json = agg.to_json();
        assert!(json.contains("\"runs_without_dndp_latency\""));
        assert!(json.contains("\"runs_without_mndp_latency\""));
    }

    #[test]
    fn instrumented_run_reports_perf() {
        let (agg, perf) = run_many_with(&tiny_config(), None, 4, 300, Some(2));
        assert_eq!(agg.runs(), 4);
        assert_eq!(perf.threads, 2);
        assert!(perf.wall_s > 0.0);
        assert!(perf.runs_per_sec > 0.0);
        assert!(perf.utilization > 0.0 && perf.utilization <= 1.0);
    }

    #[test]
    fn resilient_thread_count_does_not_change_the_aggregate() {
        let cfg = tiny_config();
        let res = ResilienceConfig::chaos(0.7, 2);
        let reference = run_many_with(&cfg, Some(&res), 5, 8100, Some(1)).0;
        assert!(reference.degraded.mean() > 0.0, "chaos plan never degraded");
        assert!(reference.retry_attempts.mean() > 1.0, "retries never fired");
        for threads in [2, 4] {
            let agg = run_many_with(&cfg, Some(&res), 5, 8100, Some(threads)).0;
            assert_eq!(
                agg.to_json(),
                reference.to_json(),
                "worker count {threads} changed the chaos aggregate"
            );
        }
    }

    #[test]
    fn resilient_none_matches_run_many_columns() {
        let cfg = tiny_config();
        let plain = run_many(&cfg, 4, 8200);
        let res = run_many_with(&cfg, Some(&ResilienceConfig::none()), 4, 8200, None).0;
        // No faults + single attempt draws the same RNG stream, so the
        // shared columns agree bitwise; the new columns sit at their
        // baselines.
        assert_eq!(plain.to_json(), res.to_json());
        assert_eq!(res.degraded.mean(), plain.degraded.mean());
        assert_eq!(res.retry_attempts.mean(), 1.0);
    }

    #[test]
    fn sweep_applies_parameter() {
        let cfg = tiny_config();
        let pts = sweep(&cfg, &[10.0, 30.0], 4, 2000, |p, v| p.m = v as usize);
        assert_eq!(pts.len(), 2);
        assert_eq!(pts[0].x, 10.0);
        // More codes per node => higher direct-discovery probability.
        assert!(
            pts[1].agg.p_dndp.mean() > pts[0].agg.p_dndp.mean(),
            "m=30 ({}) should beat m=10 ({})",
            pts[1].agg.p_dndp.mean(),
            pts[0].agg.p_dndp.mean()
        );
    }

    #[test]
    #[should_panic(expected = "at least one repetition")]
    fn zero_reps_rejected() {
        run_many(&tiny_config(), 0, 0);
    }
}
