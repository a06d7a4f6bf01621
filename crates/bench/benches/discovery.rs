//! End-to-end discovery benchmarks: one full seeded network instance (the
//! unit of every figure point) at two scales, then three of its phases
//! against their oracles — the M-NDP closure, the D-NDP pair pass, and
//! the timing wheel on one scale strip's events.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use jrsnd::dndp::{self, DndpConfig, DndpOutcome};
use jrsnd::jammer::{Jammer, JammerKind};
use jrsnd::mndp;
use jrsnd::network::{run_once, ExperimentConfig};
use jrsnd::params::Params;
use jrsnd::predist::CodeAssignment;
use jrsnd_dsss::code::CodeId;
use jrsnd_sim::event::EventQueue;
use jrsnd_sim::rng::SimRng;
use jrsnd_sim::time::SimTime;
use jrsnd_sim::topology::{physical_graph, Graph};
use jrsnd_sim::wheel::TimingWheel;
use rand::seq::SliceRandom;
use rand::SeedableRng;

fn config(n: usize, field: f64, q: usize) -> ExperimentConfig {
    let mut params = Params::table1();
    params.n = n;
    params.field_w = field;
    params.field_h = field;
    params.q = q;
    ExperimentConfig {
        params,
        jammer: JammerKind::Reactive,
        dndp: DndpConfig::default(),
    }
}

fn bench_run_once(c: &mut Criterion) {
    let mut group = c.benchmark_group("network_run_once");
    group.sample_size(10);
    for (name, cfg) in [
        ("n500_dense", config(500, 2500.0, 5)),
        ("n2000_paper", config(2000, 5000.0, 20)),
    ] {
        group.bench_with_input(BenchmarkId::from_parameter(name), &cfg, |b, cfg| {
            let mut seed = 0u64;
            b.iter(|| {
                seed += 1;
                black_box(run_once(cfg, seed))
            })
        });
    }
    group.finish();
}

fn bench_heavy_compromise(c: &mut Criterion) {
    // q = 100 (the Fig. 5 regime) makes M-NDP do the most work.
    let cfg = config(2000, 5000.0, 100);
    let mut group = c.benchmark_group("network_heavy_compromise");
    group.sample_size(10);
    group.bench_function("n2000_q100_nu2", |b| {
        let mut seed = 0u64;
        b.iter(|| {
            seed += 1;
            black_box(run_once(&cfg, seed))
        })
    });
    let mut cfg6 = cfg.clone();
    cfg6.params.nu = 6;
    group.bench_function("n2000_q100_nu6", |b| {
        let mut seed = 0u64;
        b.iter(|| {
            seed += 1;
            black_box(run_once(&cfg6, seed))
        })
    });
    group.finish();
}

/// The inputs of `run_once(cfg, seed)`'s D-NDP phase, from the same
/// labelled streams: the physical graph, the jammer, and each physical
/// pair's shared codes in edge order.
fn dndp_inputs(cfg: &ExperimentConfig, seed: u64) -> (Graph, Jammer, Vec<Vec<CodeId>>) {
    let params = &cfg.params;
    let root = SimRng::seed_from_u64(seed);
    let field = params.field();
    let positions = field.sample_uniform_n(params.n, &mut root.fork("placement", 0));
    let physical = physical_graph(field, &positions, params.range);
    let assignment = CodeAssignment::generate(params, &mut root.fork("predist", 0));
    let mut order: Vec<usize> = (0..params.n).collect();
    order.shuffle(&mut root.fork("compromise", 0));
    let jammer = Jammer::new(
        cfg.jammer,
        assignment.compromised_codes(&order[..params.q]),
        params,
    );
    let shared = physical
        .edges()
        .map(|(u, v)| assignment.shared_codes(u, v))
        .collect();
    (physical, jammer, shared)
}

/// The physical graph and the D-NDP logical graph of `run_once(cfg,
/// seed)`: the same labelled streams, up to the M-NDP closure.
fn dndp_graphs(cfg: &ExperimentConfig, seed: u64) -> (Graph, Graph) {
    let (physical, jammer, shared) = dndp_inputs(cfg, seed);
    let mut rng = SimRng::seed_from_u64(seed).fork("dndp", 0);
    let mut logical = Graph::new(cfg.params.n);
    for ((u, v), shared) in physical.edges().zip(&shared) {
        if dndp::simulate_pair_with(&cfg.params, shared, &jammer, cfg.dndp, &mut rng).discovered {
            logical.add_edge(u, v);
        }
    }
    (physical, logical)
}

fn bench_dndp_pass(c: &mut Criterion) {
    // run_once's D-NDP phase at fig. 5(a)'s scale (n = 2000, q = 100),
    // seed 1: every physical pair through one pass against one call of
    // the allocating oracle per pair, on the same shared-code sets and
    // the same RNG stream.
    let mut cfg = config(2000, 5000.0, 100);
    cfg.params.nu = 6;
    let (_, jammer, shared) = dndp_inputs(&cfg, 1);
    let params = &cfg.params;
    let rng = SimRng::seed_from_u64(1).fork("dndp", 0);
    let fast = || -> Vec<DndpOutcome> {
        let mut rng = rng.clone();
        let mut pass = dndp::PairPass::new(params, &jammer, cfg.dndp);
        shared.iter().map(|s| pass.run(s, &mut rng)).collect()
    };
    let reference = || -> Vec<DndpOutcome> {
        let mut rng = rng.clone();
        shared
            .iter()
            .map(|s| dndp::reference::simulate_pair(params, s, &jammer, cfg.dndp, &mut rng).0)
            .collect()
    };
    assert_eq!(fast(), reference());
    let mut group = c.benchmark_group("dndp_pass");
    group.sample_size(10);
    group.bench_function("fast/fig5a_n2000", |b| b.iter(|| black_box(fast())));
    group.bench_function("reference/fig5a_n2000", |b| {
        b.iter(|| black_box(reference()))
    });
    group.finish();
}

fn bench_wheel(c: &mut Criterion) {
    // One scale-20k strip's shape: ~14k events uniform over 30 s, all
    // scheduled, then drained, on the timing wheel against the heap
    // queue it replaced.
    let mut x = 0x2545_F491_4F6C_DD1Du64;
    let times: Vec<SimTime> = (0..14_000)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            SimTime::from_nanos(x % 30_000_000_000)
        })
        .collect();
    fn drain<Q>(
        times: &[SimTime],
        mut queue: Q,
        schedule: impl Fn(&mut Q, SimTime, u32),
        pop: impl Fn(&mut Q) -> Option<(SimTime, u32)>,
    ) -> Vec<(SimTime, u32)> {
        for (i, &t) in times.iter().enumerate() {
            schedule(&mut queue, t, i as u32);
        }
        std::iter::from_fn(|| pop(&mut queue)).collect()
    }
    let fast = || {
        drain(
            &times,
            TimingWheel::new(),
            |w, t, i| {
                w.schedule(t, i);
            },
            TimingWheel::pop,
        )
    };
    let reference = || {
        drain(
            &times,
            EventQueue::new(),
            |q, t, i| {
                q.schedule(t, i);
            },
            EventQueue::pop,
        )
    };
    assert_eq!(fast(), reference());
    let mut group = c.benchmark_group("wheel");
    group.sample_size(20);
    group.bench_function("fast/drain_14k_30s", |b| b.iter(|| black_box(fast())));
    group.bench_function("reference/drain_14k_30s", |b| {
        b.iter(|| black_box(reference()))
    });
    group.finish();
}

fn bench_closure(c: &mut Criterion) {
    // One closure round on fig. 5(a)'s D-NDP graph (n = 2000, q = 100,
    // nu = 6): the bidirectional search over the flat snapshot against
    // the allocating one-sided search on the same pairs.
    let mut cfg = config(2000, 5000.0, 100);
    cfg.params.nu = 6;
    let nu = cfg.params.nu;
    let (physical, logical) = dndp_graphs(&cfg, 1);
    let reference = || -> Vec<(usize, usize, usize)> {
        physical
            .edges()
            .filter(|&(u, v)| !logical.has_edge(u, v))
            .filter_map(|(u, v)| {
                let path = logical.shortest_path_within(u, v, nu)?;
                Some((u, v, path.len() - 1))
            })
            .collect()
    };
    assert_eq!(mndp::closure_pass(&logical, &physical, nu), reference());
    let mut group = c.benchmark_group("closure");
    group.sample_size(10);
    group.bench_function("fast/fig5a_n2000_nu6", |b| {
        b.iter(|| black_box(mndp::closure_pass(&logical, &physical, nu)))
    });
    group.bench_function("reference/fig5a_n2000_nu6", |b| {
        b.iter(|| black_box(reference()))
    });
    group.finish();
}

fn bench_schedule_sim(c: &mut Criterion) {
    use jrsnd::schedule_sim::simulate_identification;
    let params = Params::table1();
    c.bench_function("event_driven_identification_m100", |b| {
        let mut rng = SimRng::seed_from_u64(1);
        b.iter(|| black_box(simulate_identification(&params, &mut rng)))
    });
}

criterion_group!(
    benches,
    bench_run_once,
    bench_heavy_compromise,
    bench_closure,
    bench_dndp_pass,
    bench_wheel,
    bench_schedule_sim
);
criterion_main!(benches);
