//! End-to-end discovery benchmarks: one full seeded network instance (the
//! unit of every figure point) at two scales, and the M-NDP closure alone.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use jrsnd::dndp::{self, DndpConfig};
use jrsnd::jammer::{Jammer, JammerKind};
use jrsnd::mndp;
use jrsnd::network::{run_once, ExperimentConfig};
use jrsnd::params::Params;
use jrsnd::predist::CodeAssignment;
use jrsnd_sim::rng::SimRng;
use jrsnd_sim::topology::{physical_graph, Graph};
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

/// The physical graph and the D-NDP logical graph of `run_once(cfg,
/// seed)`: the same labelled streams, up to the M-NDP closure.
fn dndp_graphs(cfg: &ExperimentConfig, seed: u64) -> (Graph, Graph) {
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
    let mut rng = root.fork("dndp", 0);
    let mut logical = Graph::new(params.n);
    for (u, v) in physical.edges() {
        let shared = assignment.shared_codes(u, v);
        if dndp::simulate_pair_with(params, &shared, &jammer, cfg.dndp, &mut rng).discovered {
            logical.add_edge(u, v);
        }
    }
    (physical, logical)
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
    bench_schedule_sim
);
criterion_main!(benches);
