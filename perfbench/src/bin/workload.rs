//! Timed end-to-end workloads. Each run sets up, checks outcomes against
//! the program's oracles outside the timed phase, then repeats one fixed
//! unit of work until `--seconds` have elapsed. The last stdout line is
//! the JSON result.
//!
//! A unit is one or more steps of about a host second each. Before each
//! step the run times one set-up; after it, one call of the host-speed
//! reference ([`hostspeed`]). Each step and set-up is divided by the
//! reference's slowdown around it, giving seconds on the nominal host.
//! A run reports the median of each step over its repetitions, summed
//! over the unit's steps, and the median set-up. Stderr shows the same
//! medians in host seconds and the median slowdown.
//!
//! ```text
//! JRSND_THREADS=1 workload --workload engine-mixed --seed 1 --seconds 10
//! ```

use jrsnd::deployment::Deployment;
use jrsnd::engine::reference;
use jrsnd::jammer::Jammer;
use jrsnd::montecarlo::{self, Aggregate};
use jrsnd::network::{ExperimentConfig, RunResult};
use jrsnd::params::Params;
use jrsnd::predist::CodeAssignment;
use jrsnd::scale::{self, ScaleConfig};
use jrsnd::BatchEngine;
use jrsnd_dsss::code::SpreadCode;
use jrsnd_perfbench::check::{self, guarded, run_fingerprint, UnitCheck};
use jrsnd_perfbench::hostspeed::{self, Reference};
use jrsnd_perfbench::report::{median, peak_rss_mib, Options, Report, END_TO_END};
use jrsnd_perfbench::scenario::{
    self, ENGINE_BATCH, ENGINE_ORACLE_PREFIX, MONTECARLO_SEEDS, MONTECARLO_STEP_SEEDS, SCALE_SEEDS,
};
use jrsnd_sim::engine::SchedulerKind;
use jrsnd_sim::rng::SimRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::hint::black_box;
use std::time::Instant;

/// Timed units per run at least, whatever `--seconds` says.
const MIN_UNITS: usize = 3;

fn main() {
    let opts = match Options::parse(std::env::args().skip(1)) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("workload: {e}");
            std::process::exit(2);
        }
    };
    let report = match opts.workload.as_str() {
        "engine-mixed" => engine_mixed(&opts),
        "montecarlo-fig5a" => montecarlo_fig5a(&opts),
        "scale-20k" => scale_20k(&opts),
        other => unreachable!("Options::parse accepted {other}"),
    };
    println!("{}", report.to_json());
}

/// The timed phase of a run, in nominal-host seconds: every repetition of
/// each step of the unit, and every set-up.
struct Timing {
    steps: Vec<Vec<f64>>,
    setups: Vec<f64>,
}

impl Timing {
    /// One unit: the sum over its steps of each step's median.
    fn unit_s(&self) -> f64 {
        self.steps.iter().map(|s| median(s)).sum()
    }

    fn setup_s(&self) -> f64 {
        median(&self.setups)
    }
}

/// Runs the unit's `steps` steps in order, over and over, until `seconds`
/// have elapsed and at least [`MIN_UNITS`] units have run, handing each
/// step's output to `each`. Times one `setup` before each step and one
/// call of the host-speed reference after it.
fn timed_run<S, T>(
    seconds: f64,
    steps: usize,
    mut setup: impl FnMut() -> S,
    mut step: impl FnMut(usize) -> T,
    mut each: impl FnMut(usize, T),
) -> Timing {
    let mut reference = Reference::default();
    let mut nominal = Timing {
        steps: vec![Vec::new(); steps],
        setups: Vec::new(),
    };
    let mut host = Timing {
        steps: vec![Vec::new(); steps],
        setups: Vec::new(),
    };
    let mut slowdowns = Vec::new();
    let start = Instant::now();
    let mut before = reference.time();
    let mut units = 0;
    while units < MIN_UNITS || start.elapsed().as_secs_f64() < seconds {
        for j in 0..steps {
            let t0 = Instant::now();
            black_box(setup());
            let setup_s = t0.elapsed().as_secs_f64();
            let t0 = Instant::now();
            let out = step(j);
            let step_s = t0.elapsed().as_secs_f64();
            let after = reference.time();
            let slow = hostspeed::slowdown(before, after);
            before = after;
            each(j, out);
            host.steps[j].push(step_s);
            host.setups.push(setup_s);
            nominal.steps[j].push(step_s / slow);
            nominal.setups.push(setup_s / slow);
            slowdowns.push(slow);
        }
        units += 1;
    }
    let step_medians: Vec<String> = nominal
        .steps
        .iter()
        .map(|s| format!("{:.4}", median(s)))
        .collect();
    eprintln!(
        "{units} units: median unit {:.4} s nominal, {:.4} s host; median set-up \
         {:.6} s nominal, {:.6} s host; median slowdown {:.4}; nominal step medians [{}] s",
        nominal.unit_s(),
        host.unit_s(),
        nominal.setup_s(),
        host.setup_s(),
        median(&slowdowns),
        step_medians.join(", ")
    );
    nominal
}

/// Pre-distribution and compromise draw of a network run: the authority's
/// set-up for the run's deployment, as the timed calls draw it.
fn network_setup(params: &Params, kind: jrsnd::JammerKind, seed: u64) -> Jammer {
    let root = SimRng::seed_from_u64(seed);
    let assignment = CodeAssignment::generate(params, &mut root.fork("predist", 0));
    let mut order: Vec<usize> = (0..params.n).collect();
    order.shuffle(&mut root.fork("compromise", 0));
    Jammer::new(
        kind,
        assignment.compromised_codes(&order[..params.q]),
        params,
    )
}

/// The run's result: the outcome checks' verdict and the six end-to-end
/// metrics.
fn report(
    (attempted, failed): (u64, u64),
    throughput: f64,
    p_discovered: f64,
    t_discovery_s: f64,
    setup_s: f64,
) -> Report {
    let mut report = Report {
        attempted,
        failed,
        ..Report::default()
    };
    let values = [
        throughput,
        throughput,
        p_discovered,
        t_discovery_s,
        setup_s,
        // The program's own peak: the reference's keys are not its memory.
        peak_rss_mib() - hostspeed::KEYS_MIB,
    ];
    for ((name, unit), value) in END_TO_END.iter().zip(values) {
        report.push(*name, value, unit);
    }
    report
}

/// Operations checked and failed over the checks of every step.
fn tally<T: PartialEq>(checks: &[UnitCheck<T>]) -> (u64, u64) {
    checks
        .iter()
        .fold((0, 0), |(a, f), c| (a + c.attempted, f + c.failed))
}

/// The engine workload's deployment and its pool as the engine borrows it.
fn deploy(params: &Params, secret: &[u8]) -> (Deployment, Vec<SpreadCode>) {
    let deployment = Deployment::new(params.clone(), secret).expect("valid parameters");
    let pool = scenario::pool_codes(&deployment);
    (deployment, pool)
}

fn engine_mixed(opts: &Options) -> Report {
    let params = scenario::engine_params();
    let config = scenario::engine_config();
    let secret = scenario::master_secret(opts.seed);
    let setup = || {
        let (deployment, pool) = deploy(&params, &secret);
        let engine = BatchEngine::new(
            deployment.params(),
            deployment.authority(),
            &pool,
            config.clone(),
        );
        black_box(&engine);
    };
    let (deployment, pool) = deploy(&params, &secret);
    let engine = BatchEngine::new(
        deployment.params(),
        deployment.authority(),
        &pool,
        config.clone(),
    );
    let specs = scenario::engine_sessions(&deployment, ENGINE_BATCH, opts.seed);

    let oracle = guarded(|| {
        reference::run_sessions(
            deployment.params(),
            deployment.authority(),
            &pool,
            &engine.config().retry,
            &specs[..ENGINE_ORACLE_PREFIX],
        )
    });
    let mut check = UnitCheck::new(oracle, ENGINE_ORACLE_PREFIX);
    let timing = timed_run(
        opts.seconds,
        1,
        setup,
        |_| guarded(|| engine.run(&specs)),
        |_, out| check.unit(out, specs.len()),
    );
    let outcomes = check.first();
    report(
        (check.attempted, check.failed),
        specs.len() as f64 / timing.unit_s(),
        check::p_discovered(outcomes),
        check::t_discovery_s(deployment.params(), outcomes),
        timing.setup_s(),
    )
}

fn montecarlo_fig5a(opts: &Options) -> Report {
    let config: ExperimentConfig = scenario::montecarlo_config();
    let base = scenario::montecarlo_base_seed(opts.seed);
    let seeds: Vec<u64> = (0..MONTECARLO_SEEDS as u64).map(|k| base + k).collect();
    let steps: Vec<&[u64]> = seeds.chunks(MONTECARLO_STEP_SEEDS).collect();
    // No oracle runs here. At one worker `run_many` is `network::run_once`
    // on its seed, so rerunning that would only check determinism, which
    // `UnitCheck` does anyway: every later repetition of a step must
    // repeat its first. The first repetition's aggregates must also keep
    // the model's invariants. The outcome oracle of this workload is the
    // traced run, which replays every seed through the layers' public
    // functions and must reproduce `run_many`'s aggregate bit for bit.
    let mut checks: Vec<UnitCheck<String>> = steps.iter().map(|_| UnitCheck::repeating()).collect();
    let mut first: Vec<Option<Vec<Aggregate>>> = steps.iter().map(|_| None).collect();
    let timing = timed_run(
        opts.seconds,
        steps.len(),
        || network_setup(&config.params, config.jammer, base),
        |j| {
            guarded(|| {
                steps[j]
                    .iter()
                    .map(|&s| montecarlo::run_many(&config, 1, s))
                    .collect::<Vec<_>>()
            })
        },
        |j, out: Option<Vec<Aggregate>>| {
            checks[j].unit(
                out.as_ref()
                    .map(|aggs| aggs.iter().map(Aggregate::to_json).collect()),
                steps[j].len(),
            );
            if first[j].is_none() {
                if let Some(aggs) = &out {
                    checks[j].failed +=
                        aggs.iter().filter(|a| !check::keeps_invariants(a)).count() as u64;
                }
                first[j] = out;
            }
        },
    );
    let aggs: Vec<Aggregate> = first.into_iter().flatten().flatten().collect();
    let pairs: u64 = aggs
        .iter()
        .map(|a| check::physical_pairs(a, config.params.n))
        .sum();
    let mean =
        |f: fn(&Aggregate) -> f64| aggs.iter().map(f).sum::<f64>() / aggs.len().max(1) as f64;
    report(
        tally(&checks),
        pairs as f64 / timing.unit_s(),
        mean(|a| a.p_jrsnd.mean()),
        mean(|a| a.t_jrsnd.mean()),
        timing.setup_s(),
    )
}

fn scale_20k(opts: &Options) -> Report {
    let config: ScaleConfig = scenario::scale_config();
    let first_seed = scenario::scale_seed(opts.seed);
    let seeds: Vec<u64> = (0..SCALE_SEEDS as u64).map(|k| first_seed + k).collect();

    // Oracle: the first seed on the reference binary-heap scheduler, which
    // the scale module promises is byte-identical to the timing wheel.
    let oracle = guarded(|| {
        let heap = ScaleConfig {
            scheduler: SchedulerKind::ReferenceHeap,
            ..config.clone()
        };
        vec![run_fingerprint(&scale::run_scale(&heap, first_seed).0)]
    });
    let mut checks: Vec<UnitCheck<String>> = vec![UnitCheck::new(oracle, 1)];
    checks.extend(seeds[1..].iter().map(|_| UnitCheck::repeating()));
    let mut first: Vec<Option<RunResult>> = seeds.iter().map(|_| None).collect();
    let timing = timed_run(
        opts.seconds,
        seeds.len(),
        || network_setup(&config.params, config.jammer, first_seed),
        |j| guarded(|| scale::run_scale(&config, seeds[j]).0),
        |j, out: Option<RunResult>| {
            checks[j].unit(out.as_ref().map(|r| vec![run_fingerprint(r)]), 1);
            if first[j].is_none() {
                first[j] = out;
            }
        },
    );
    let runs: Vec<RunResult> = first.into_iter().flatten().collect();
    let pairs: usize = runs.iter().map(|r| r.physical_pairs).sum();
    let mean =
        |f: fn(&RunResult) -> f64| runs.iter().map(f).sum::<f64>() / runs.len().max(1) as f64;
    report(
        tally(&checks),
        pairs as f64 / timing.unit_s(),
        mean(RunResult::p_jrsnd),
        mean(RunResult::t_jrsnd),
        timing.setup_s(),
    )
}
