//! Traced per-layer run of one workload. It scopes the program's metric
//! counters to the workload's timed call (run twice: the counts must be
//! identical), replays the same inputs through the layers' public
//! functions with every call in a span, checks that the replay reproduces
//! that call, replays once more untraced for the tracing overhead, and
//! prints per-layer self times and counts as the last stdout line.
//!
//! ```text
//! JRSND_THREADS=1 trace --workload montecarlo-fig5a --seed 1 --seconds 10
//! ```
//!
//! The timed `workload` binary never links this code, so a change to a
//! layer's API breaks the trace, not the end-to-end numbers.

mod engine;
mod network;
mod spans;

use jrsnd::deployment::Deployment;
use jrsnd::engine::reference;
use jrsnd::montecarlo::{self, Aggregate};
use jrsnd::network::RunResult;
use jrsnd::scale;
use jrsnd::BatchEngine;
use jrsnd_perfbench::check::{guarded, mismatches, run_fingerprint};
use jrsnd_perfbench::report::{per_layer, Options, Report, CHIP_LAYERS};
use jrsnd_perfbench::scenario::{self, SessionClass, ENGINE_BATCH, MONTECARLO_SEEDS};
use jrsnd_sim::metrics::{self, MetricsSnapshot};
use std::collections::BTreeMap;
use std::time::Instant;

fn main() {
    let opts = match Options::parse(std::env::args().skip(1)) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("trace: {e}");
            std::process::exit(2);
        }
    };
    let (report, spans) = match opts.workload.as_str() {
        "engine-mixed" => trace_engine(&opts),
        "montecarlo-fig5a" => trace_montecarlo(&opts),
        "scale-20k" => trace_scale(&opts),
        other => unreachable!("Options::parse accepted {other}"),
    };
    let printed: Vec<&str> = report.metrics.iter().map(|m| m.name.as_str()).collect();
    let declared = per_layer(&opts.workload);
    assert!(
        printed.iter().eq(declared.iter().map(|(n, _)| n)),
        "trace printed {printed:?}, declared {declared:?}"
    );
    if let Some(path) = &opts.spans {
        if let Err(e) = spans::write_tsv(path, &spans) {
            eprintln!("trace: could not write {}: {e}", path.display());
        }
    }
    println!("{}", report.to_json());
}

/// The workload's timed call with the metric registry scoped to it:
/// reset before, snapshot after. Returns the output (`None` on panic),
/// the wall time and the snapshot.
fn scoped<T>(f: impl FnOnce() -> T) -> (Option<T>, f64, MetricsSnapshot) {
    metrics::reset();
    let t0 = Instant::now();
    let out = guarded(f);
    let wall = t0.elapsed().as_secs_f64();
    (out, wall, metrics::snapshot())
}

/// Compares the counters of two scoped runs of the same call: each
/// differing counter is one failed operation.
fn check_counts(report: &mut Report, a: &MetricsSnapshot, b: &MetricsSnapshot) {
    let values = |s: &MetricsSnapshot| -> Vec<(String, u64)> {
        s.counters
            .iter()
            .map(|c| (c.name.clone(), c.value))
            .collect()
    };
    let (a, b) = (values(a), values(b));
    report.attempted += a.len() as u64;
    report.failed += mismatches(&a, &b);
}

fn counter(s: &MetricsSnapshot, name: &str) -> f64 {
    s.counter(name).unwrap_or(0) as f64
}

/// Runs `replay` traced, then untraced; returns the traced output, the
/// spans, and the traced and untraced wall times.
fn traced_and_untraced<T>(mut replay: impl FnMut() -> T) -> (T, Vec<spans::Span>, f64, f64) {
    spans::start(true);
    let t0 = Instant::now();
    let out = replay();
    let traced = t0.elapsed().as_secs_f64();
    let recorded = spans::finish();
    spans::start(false);
    let t0 = Instant::now();
    std::hint::black_box(replay());
    let untraced = t0.elapsed().as_secs_f64();
    (out, recorded, traced, untraced)
}

fn push_accounting(report: &mut Report, prefix: &str, traced: f64, untraced: f64, call: f64) {
    report.push(format!("{prefix}.trace.wall_s"), traced, "s");
    report.push(format!("{prefix}.trace.overhead_s"), traced - untraced, "s");
    report.push(format!("{prefix}.call.wall_s"), call, "s");
}

fn trace_engine(opts: &Options) -> (Report, Vec<spans::Span>) {
    let t0 = Instant::now();
    let deployment = Deployment::new(
        scenario::engine_params(),
        &scenario::master_secret(opts.seed),
    )
    .expect("valid parameters");
    let pool = scenario::pool_codes(&deployment);
    let predist_s = t0.elapsed().as_secs_f64();
    let (params, authority) = (deployment.params(), deployment.authority());
    let engine = BatchEngine::new(params, authority, &pool, scenario::engine_config());
    let retry = engine.config().retry;
    let specs = scenario::engine_sessions(&deployment, ENGINE_BATCH, opts.seed);
    let sessions = specs.len();

    let mut report = Report::default();
    let (out, call_wall, snap) = scoped(|| engine.run(&specs));
    let (again, _, snap_again) = scoped(|| engine.run(&specs));
    check_counts(&mut report, &snap, &snap_again);
    let t0 = Instant::now();
    let oracle = guarded(|| reference::run_sessions(params, authority, &pool, &retry, &specs));
    let sequential_wall = t0.elapsed().as_secs_f64();
    let mut lookups = 0;
    let (replay, recorded, traced, untraced) = traced_and_untraced(|| {
        let mut chip = engine::ChipReplay::new(params, authority, &pool, retry);
        let outcomes: Vec<_> = spans::span("engine", u64::MAX, || {
            (0..sessions)
                .map(|i| chip.session(i as u64, &specs[i]))
                .collect()
        });
        lookups = chip.cache_lookups;
        outcomes
    });
    let out = out.unwrap_or_default();
    for other in [again, oracle, Some(replay)] {
        report.attempted += sessions as u64;
        report.failed += other.map_or(sessions as u64, |o| mismatches(&o, &out));
    }

    let by_layer = spans::self_by(&recorded, |s| s.layer);
    for layer in CHIP_LAYERS {
        report.push(
            format!("{layer}.busy_s"),
            by_layer.get(layer).copied().unwrap_or(0.0),
            "s",
        );
    }
    let hits = counter(&snap, "dsss.sync_hits");
    let decoded = counter(&snap, "dsss.frames_decoded");
    let frames_failed = counter(&snap, "dsss.frames_failed");
    report.push(
        "dsss.render.chips",
        counter(&snap, "dsss.chips_rendered"),
        "count",
    );
    report.push(
        "dsss.scan.correlations",
        counter(&snap, "dsss.scan_correlations"),
        "count",
    );
    report.push(
        "dsss.sync.useful_ratio",
        (hits - counter(&snap, "dsss.sync_retries")) / hits.max(1.0),
        "ratio",
    );
    report.push(
        "ecc.blocks",
        counter(&snap, "ecc.blocks_encoded") + counter(&snap, "ecc.blocks_decoded"),
        "count",
    );
    report.push(
        "ecc.frame_fail_ratio",
        frames_failed / (decoded + frames_failed).max(1.0),
        "ratio",
    );
    report.push(
        "crypto.blocks_compressed",
        counter(&snap, "crypto.blocks_compressed"),
        "count",
    );
    report.push(
        "crypto.cache_hit_ratio",
        counter(&snap, "crypto.cache_hits") / (lookups.max(1) as f64),
        "ratio",
    );
    report.push(
        "handshake.frames",
        counter(&snap, "retry.attempts") + decoded + frames_failed,
        "count",
    );
    let attempts: u64 = out.iter().map(|o| u64::from(o.attempts)).sum();
    report.push(
        "engine.self_s",
        by_layer.get("engine").copied().unwrap_or(0.0),
        "s",
    );
    report.push(
        "engine.ns_per_handshake",
        call_wall * 1e9 / attempts.max(1) as f64,
        "ns",
    );
    report.push(
        "engine.attempts_per_session",
        attempts as f64 / sessions as f64,
        "ratio",
    );
    report.push(
        "engine.speedup_vs_sequential",
        sequential_wall / call_wall,
        "ratio",
    );
    report.push("engine.predist.busy_s", predist_s, "s");

    // Per session class; the replay's root span (id u64::MAX) is the
    // replay's own line for the whole batch, not any session's.
    let by_class: BTreeMap<(Option<SessionClass>, &str), f64> = spans::self_by(&recorded, |s| {
        let class = (s.id != u64::MAX).then(|| SessionClass::of(s.id as usize));
        (class, s.layer)
    });
    for class in SessionClass::ALL {
        let c = class.label();
        let get = |l: &str| by_class.get(&(Some(class), l)).copied().unwrap_or(0.0);
        let total = get("engine") + CHIP_LAYERS.iter().map(|l| get(l)).sum::<f64>();
        report.push(format!("engine.{c}.busy_s"), total, "s");
        for layer in CHIP_LAYERS {
            report.push(format!("engine.{c}.{layer}.busy_s"), get(layer), "s");
        }
    }
    push_accounting(&mut report, "engine", traced, untraced, call_wall);
    (report, recorded)
}

fn trace_montecarlo(opts: &Options) -> (Report, Vec<spans::Span>) {
    let config = scenario::montecarlo_config();
    let base = scenario::montecarlo_base_seed(opts.seed);
    let reps = MONTECARLO_SEEDS;

    let mut report = Report::default();
    let (agg, call_wall, snap) = scoped(|| montecarlo::run_many(&config, reps, base));
    let (again, _, snap_again) = scoped(|| montecarlo::run_many(&config, reps, base));
    check_counts(&mut report, &snap, &snap_again);
    let mut counts = network::NetworkCounts::default();
    let (runs, recorded, traced, untraced) = traced_and_untraced(|| {
        counts = network::NetworkCounts::default();
        spans::span("montecarlo", base, || {
            (0..reps)
                .map(|i| network::run_once(&config, base + i as u64, &mut counts))
                .collect::<Vec<RunResult>>()
        })
    });
    let mut replayed = Aggregate::default();
    for r in &runs {
        replayed.absorb(r);
    }
    let want = agg.as_ref().map(Aggregate::to_json);
    for got in [again.map(|a| a.to_json()), Some(replayed.to_json())] {
        report.attempted += reps as u64;
        if want.is_none() || got != want {
            report.failed += reps as u64;
        }
    }
    let pairs: usize = runs.iter().map(|r| r.physical_pairs).sum();
    report.attempted += 1;
    report.failed += u64::from(pairs as f64 != counter(&snap, "network.physical_pairs"));

    let by_layer = spans::self_by(&recorded, |s| s.layer);
    let busy = |l: &str| by_layer.get(l).copied().unwrap_or(0.0);
    report.push("predist.busy_s", busy("predist"), "s");
    report.push("dndp.busy_s", busy("dndp"), "s");
    report.push("dndp.pairs", counter(&snap, "dndp.pair_sessions"), "count");
    report.push(
        "dndp.discovery_ratio",
        counter(&snap, "network.dndp_pairs") / counter(&snap, "network.physical_pairs").max(1.0),
        "ratio",
    );
    report.push("mndp.capability.busy_s", busy("mndp.capability"), "s");
    report.push("mndp.closure.busy_s", busy("mndp.closure"), "s");
    report.push("mndp.bfs_calls", counts.bfs_calls as f64, "count");
    let epochs: usize = runs.iter().map(|r| r.mndp_epochs).sum();
    report.push("mndp.epochs", epochs as f64, "count");
    report.push(
        "montecarlo.topology.busy_s",
        busy("montecarlo.topology"),
        "s",
    );
    report.push("montecarlo.self_s", busy("montecarlo"), "s");
    push_accounting(&mut report, "montecarlo", traced, untraced, call_wall);
    (report, recorded)
}

fn trace_scale(opts: &Options) -> (Report, Vec<spans::Span>) {
    let config = scenario::scale_config();
    let seed = scenario::scale_seed(opts.seed);

    let mut report = Report::default();
    let (run, _, snap) = scoped(|| scale::run_scale(&config, seed));
    let (again, _, snap_again) = scoped(|| scale::run_scale(&config, seed));
    check_counts(&mut report, &snap, &snap_again);
    let (replay, recorded, traced, untraced) =
        traced_and_untraced(|| network::run_scale(&config, seed));

    report.attempted += 2;
    let (result, perf) = match run {
        Some(r) => r,
        None => {
            report.failed += 2;
            return (report, recorded);
        }
    };
    let fingerprint = run_fingerprint(&result);
    report.failed += u64::from(again.map(|a| run_fingerprint(&a.0)) != Some(fingerprint));
    let stats = |s: &jrsnd_sim::stats::RunningStats| (s.count(), s.mean().to_bits());
    let reproduced = replay.physical_pairs == result.physical_pairs
        && replay.mean_degree.to_bits() == result.mean_degree.to_bits()
        && replay.dndp_pairs == result.dndp_pairs
        && stats(&replay.dndp_latency) == stats(&result.dndp_latency)
        && replay.events == perf.events;
    report.failed += u64::from(!reproduced);

    let by_layer = spans::self_by(&recorded, |s| s.layer);
    let busy = |l: &str| by_layer.get(l).copied().unwrap_or(0.0);
    let topology = busy("sim.topology");
    let predist = busy("scale.predist");
    report.push("sim.topology.busy_s", topology, "s");
    report.push("scale.predist.busy_s", predist, "s");
    report.push("sim.wheel.busy_s", busy("sim.wheel"), "s");
    report.push("scale.dndp.pair_busy_s", busy("dndp"), "s");
    report.push("scale.dndp.busy_s", perf.dndp_wall_s, "s");
    report.push("sim.wheel.events", perf.events as f64, "count");
    // `run_scale`'s own time after its D-NDP phase: strip fold, capability
    // count and the sharded BFS closure.
    report.push(
        "scale.closure.busy_s",
        perf.wall_s - perf.dndp_wall_s - topology - predist,
        "s",
    );
    report.push("scale.self_s", busy("scale"), "s");
    push_accounting(&mut report, "scale", traced, untraced, perf.wall_s);
    (report, recorded)
}
