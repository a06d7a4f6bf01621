//! Replayability: every layer of the reproduction is a pure function of
//! its seed — the property that makes "average of 100 seeded runs"
//! meaningful and every figure regenerable bit-for-bit.

use jr_snd::core::montecarlo::{run_many, run_many_with};
use jr_snd::core::network::{run_once, ExperimentConfig};
use jr_snd::core::params::Params;
use jr_snd::core::predist::CodeAssignment;
use jr_snd::sim::rng::SimRng;
use rand::SeedableRng;

fn config() -> ExperimentConfig {
    let mut c = ExperimentConfig::paper_default();
    c.params.n = 250;
    c.params.field_w = 1770.0;
    c.params.field_h = 1770.0;
    c.params.l = 10;
    c.params.m = 40;
    c.params.q = 4;
    c
}

#[test]
fn run_once_replays_exactly() {
    let cfg = config();
    let a = run_once(&cfg, 12345);
    let b = run_once(&cfg, 12345);
    assert_eq!(a.physical_pairs, b.physical_pairs);
    assert_eq!(a.dndp_pairs, b.dndp_pairs);
    assert_eq!(a.mndp_pairs, b.mndp_pairs);
    assert_eq!(a.mndp_capable_pairs, b.mndp_capable_pairs);
    assert_eq!(a.mndp_epochs, b.mndp_epochs);
    assert_eq!(a.dndp_latency.mean(), b.dndp_latency.mean());
    assert_eq!(a.mndp_latency.mean(), b.mndp_latency.mean());
}

#[test]
fn run_many_is_schedule_independent() {
    // The parallel driver must produce the same aggregate regardless of
    // how the OS schedules its worker threads: run it twice.
    let cfg = config();
    let a = run_many(&cfg, 8, 777);
    let b = run_many(&cfg, 8, 777);
    assert_eq!(a.p_dndp.mean(), b.p_dndp.mean());
    assert_eq!(a.p_jrsnd.variance(), b.p_jrsnd.variance());
    assert_eq!(a.t_dndp.mean(), b.t_dndp.mean());
    assert_eq!(a.runs(), b.runs());
}

#[test]
fn run_many_is_bitwise_identical_across_thread_counts() {
    // The static seed sharding in `run_many` guarantees the aggregate is a
    // pure function of (config, reps, base_seed) — the worker count must
    // not leak into a single output bit. JSON via exact shortest-roundtrip
    // f64 formatting makes this a byte-level assertion.
    let cfg = config();
    let reference = run_many_with(&cfg, None, 7, 424_242, Some(1)).0.to_json();
    for threads in [2usize, 4] {
        let parallel = run_many_with(&cfg, None, 7, 424_242, Some(threads))
            .0
            .to_json();
        assert_eq!(
            reference, parallel,
            "aggregate JSON diverged at {threads} worker threads"
        );
    }
    // Repeated invocation at the same thread count is the identity too.
    let again = run_many_with(&cfg, None, 7, 424_242, Some(4)).0.to_json();
    assert_eq!(reference, again);
}

#[test]
fn predistribution_replays_and_seeds_differ() {
    let params = config().params;
    let gen = |seed: u64| {
        let mut rng = SimRng::seed_from_u64(seed);
        CodeAssignment::generate(&params, &mut rng)
    };
    let a = gen(5);
    let b = gen(5);
    for v in 0..params.n {
        assert_eq!(a.codes_of(v), b.codes_of(v));
    }
    let c = gen(6);
    assert!((0..params.n).any(|v| a.codes_of(v) != c.codes_of(v)));
}

#[test]
fn different_seeds_give_statistically_distinct_runs() {
    let cfg = config();
    let outcomes: Vec<usize> = (0..6).map(|s| run_once(&cfg, s).dndp_pairs).collect();
    let all_same = outcomes.windows(2).all(|w| w[0] == w[1]);
    assert!(
        !all_same,
        "six different seeds produced identical runs: {outcomes:?}"
    );
}

#[test]
fn chip_level_handshake_replays() {
    use jr_snd::core::chiplink::run_handshake;
    use jr_snd::crypto::ibc::Authority;
    use jr_snd::dsss::code::SpreadCode;
    use rand::rngs::StdRng;
    let mut params = Params::table1();
    params.n_chips = 256;
    params.tau = 0.30;
    let mut rng = StdRng::seed_from_u64(9);
    let shared = SpreadCode::random(params.n_chips, &mut rng);
    let a_codes = vec![shared.clone(), SpreadCode::random(params.n_chips, &mut rng)];
    let b_codes = vec![SpreadCode::random(params.n_chips, &mut rng), shared];
    let authority = Authority::from_seed(b"replay");
    let r1 = run_handshake(&params, &authority, &a_codes, &b_codes, 0, 1, None, 42);
    let r2 = run_handshake(&params, &authority, &a_codes, &b_codes, 0, 1, None, 42);
    assert_eq!(r1, r2);
}
