//! Property test: the batch session engine is byte-identical to the
//! sequential resilient driver at random session mixes — direct and
//! multi-hop, jammed and clean, with and without retry budgets — and its
//! outputs are invariant under worker count and shard count.

use jrsnd::engine::{reference, BatchEngine, EngineConfig, JamSpec, SessionKind, SessionSpec};
use jrsnd::params::Params;
use jrsnd_crypto::ibc::Authority;
use jrsnd_dsss::code::SpreadCode;
use jrsnd_sim::retry::RetryPolicy;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Shared authority pool size; every spec indexes into it.
const POOL: usize = 8;

/// Chip-level-friendly parameters (same shape as the chiplink tests):
/// shorter codes with tau rescaled to keep cross-code noise sub-threshold.
fn chip_params() -> Params {
    let mut p = Params::table1();
    p.n_chips = 256;
    p.tau = 0.30;
    p
}

fn code_pool(n_chips: usize) -> Vec<SpreadCode> {
    let mut rng = StdRng::seed_from_u64(0xC0DE);
    (0..POOL)
        .map(|_| SpreadCode::random(n_chips, &mut rng))
        .collect()
}

/// Overwrites one position of `set` with `code` so the set provably
/// contains the shared code, returning the position.
fn place(mut set: Vec<usize>, pos: usize, code: usize) -> (Vec<usize>, usize) {
    let pos = pos % set.len();
    set[pos] = code;
    (set, pos)
}

type RawRelay = (Vec<usize>, Vec<usize>, usize, usize, usize);
type RawJam = (bool, usize, u8, i32, usize);

/// 50/50 `Some`/`None` over the wrapped strategy (the vendored proptest
/// shim has no `prop::option`).
fn opt<S>(s: S) -> proptest::strategy::Union<Option<S::Value>>
where
    S: Strategy + 'static,
    S::Value: Clone + 'static,
{
    prop_oneof![s.prop_map(Some), Just(None)]
}

fn arb_spec() -> impl Strategy<Value = SessionSpec> {
    let set = || proptest::collection::vec(0..POOL, 1..4usize);
    (
        (set(), set(), 0..POOL, any::<usize>(), any::<usize>()),
        any::<u64>(),
        opt((set(), set(), 0..POOL, any::<usize>(), any::<usize>())),
        opt((any::<bool>(), 0..POOL, any::<u8>(), 1..=3i32, 0..4usize)),
    )
        .prop_map(
            |((a, b, s1, pa, pb), seed, relay, jam): (_, _, Option<RawRelay>, Option<RawJam>)| {
                let (a_codes, shared_a) = place(a, pa, s1);
                // The engine and the reference both require the shared
                // code to sit at the shared indices of BOTH ends of each
                // leg; the generator guarantees it by construction.
                let (b_codes, shared_b, kind) = match relay {
                    None => {
                        let (b_codes, shared_b) = place(b, pb, s1);
                        (b_codes, shared_b, SessionKind::Direct)
                    }
                    Some((ra, rb, s2, pra, prb)) => {
                        let (relay_a_codes, relay_shared_a) = place(ra, pra, s1);
                        let (relay_b_codes, relay_shared_b) = place(rb, prb, s2);
                        let (b_codes, shared_b) = place(b, pb, s2);
                        (
                            b_codes,
                            shared_b,
                            SessionKind::MultiHop {
                                relay_a_codes,
                                relay_b_codes,
                                relay_shared_a,
                                relay_shared_b,
                            },
                        )
                    }
                };
                let jammer = jam.map(
                    |(on_shared, code, fsel, amplitude, first_message)| JamSpec {
                        // Half the jammers hit the session's own leg-1 code
                        // (effective), half a random pool code (usually not).
                        code: if on_shared { s1 } else { code },
                        fraction: [0.2, 0.6, 1.0][(fsel % 3) as usize],
                        amplitude,
                        first_message,
                    },
                );
                SessionSpec {
                    a_codes,
                    b_codes,
                    shared_a,
                    shared_b,
                    jammer,
                    seed,
                    kind,
                }
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]
    #[test]
    fn engine_is_byte_identical_to_the_sequential_reference(
        specs in proptest::collection::vec(arb_spec(), 1..4),
        retry_extra in 0u32..3,
        shards in 1usize..4,
    ) {
        let params = chip_params();
        let authority = Authority::from_seed(b"engine-prop");
        let pool = code_pool(params.n_chips);
        let retry = if retry_extra == 0 {
            RetryPolicy::none()
        } else {
            RetryPolicy::budgeted(retry_extra)
        };
        let want = reference::run_sessions(&params, &authority, &pool, &retry, &specs);
        for threads in [1usize, 2] {
            let config =
                EngineConfig { shards, retry, threads: Some(threads), ..EngineConfig::default() };
            let engine = BatchEngine::new(&params, &authority, &pool, config);
            let got = engine.run(&specs);
            prop_assert_eq!(&got, &want, "threads = {}", threads);
        }
    }
}

/// The `JRSND_THREADS` environment override resolves worker count exactly
/// like an explicit `threads` setting (outputs already proven invariant).
#[test]
fn jrsnd_threads_env_is_honored() {
    let params = chip_params();
    let authority = Authority::from_seed(b"engine-env");
    let pool = code_pool(params.n_chips);
    let specs: Vec<SessionSpec> = (0..6)
        .map(|i| SessionSpec {
            a_codes: vec![0, 1, 2],
            b_codes: vec![3, 1, 4],
            shared_a: 1,
            shared_b: 1,
            jammer: None,
            seed: 7000 + i,
            kind: SessionKind::Direct,
        })
        .collect();
    let explicit = BatchEngine::new(
        &params,
        &authority,
        &pool,
        EngineConfig {
            threads: Some(2),
            ..EngineConfig::default()
        },
    )
    .run(&specs);
    // SAFETY-free env mutation: tests in this binary that read the var run
    // in this one test only, and the var is restored before returning.
    std::env::set_var("JRSND_THREADS", "2");
    let via_env = BatchEngine::new(&params, &authority, &pool, EngineConfig::default()).run(&specs);
    std::env::remove_var("JRSND_THREADS");
    assert_eq!(explicit, via_env);
}
