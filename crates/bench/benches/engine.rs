//! Batch session engine benchmarks, feeding `BENCH_engine.json`:
//! `engine/batch/...` vs `engine/sequential/...` — the end-to-end
//! [`BatchEngine`] against the sequential resilient driver on the exact
//! workload mix `repro sessions` sweeps. Byte-identical outcomes; the
//! end-to-end cost is dominated by per-attempt crypto and scan work that
//! both sides share, so these ids are coverage-only (no `fast/` segment),
//! with the wall-clock ratio reported by the `sessions` experiment
//! instead.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use jrsnd::engine::reference;
use jrsnd::params::Params;
use jrsnd::{BatchEngine, EngineConfig};
use jrsnd_bench::session_workload;
use jrsnd_crypto::ibc::Authority;
use jrsnd_dsss::code::SpreadCode;
use jrsnd_sim::retry::RetryPolicy;
use rand::rngs::StdRng;
use rand::SeedableRng;

const POOL: usize = 48;

/// Same chip-level calibration as the `sessions` experiment.
fn chip_params() -> Params {
    let mut p = Params::table1();
    p.n_chips = 256;
    p.tau = 0.30;
    p
}

fn bench_end_to_end(c: &mut Criterion) {
    let params = chip_params();
    let authority = Authority::from_seed(b"bench-sessions");
    let mut rng = StdRng::seed_from_u64(0xE2617E);
    let pool: Vec<SpreadCode> = (0..POOL)
        .map(|_| SpreadCode::random(params.n_chips, &mut rng))
        .collect();
    let retry = RetryPolicy::budgeted(1);
    let specs = session_workload(POOL, 256, 0x5E55);

    let mut group = c.benchmark_group("engine");
    group.throughput(Throughput::Elements(specs.len() as u64));
    group.bench_function("batch/sessions_256", |b| {
        let engine = BatchEngine::new(
            &params,
            &authority,
            &pool,
            EngineConfig {
                shards: 64,
                retry,
                ..EngineConfig::default()
            },
        );
        b.iter(|| black_box(engine.run(&specs)))
    });
    group.bench_function("sequential/sessions_256", |b| {
        b.iter(|| {
            black_box(reference::run_sessions(
                &params, &authority, &pool, &retry, &specs,
            ))
        })
    });
    group.finish();
}

criterion_group!(benches, bench_end_to_end);
criterion_main!(benches);
