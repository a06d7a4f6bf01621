//! The benchmark's inputs. Every scenario parameter is written out here
//! and every session or seed is derived from the workload seed, so a
//! change to the program's defaults or helpers cannot change a workload.
//! Tuning knobs that do not change outcomes (engine chunk and shards,
//! scale shards and scheduler) stay at program defaults, so a retuned
//! default is what gets measured.

use jrsnd::deployment::Deployment;
use jrsnd::dndp::DndpConfig;
use jrsnd::jammer::JammerKind;
use jrsnd::network::ExperimentConfig;
use jrsnd::params::Params;
use jrsnd::scale::ScaleConfig;
use jrsnd::wire::WireFormat;
use jrsnd::{EngineConfig, JamSpec, SessionKind, SessionSpec};
use jrsnd_dsss::code::{CodeId, SpreadCode};
use jrsnd_sim::engine::SchedulerKind;
use jrsnd_sim::retry::RetryPolicy;
use jrsnd_sim::rng::SimRng;
use rand::{Rng, SeedableRng};

/// The workloads, by the name the runner passes.
pub const WORKLOADS: [&str; 3] = ["engine-mixed", "montecarlo-fig5a", "scale-20k"];

/// Sessions per engine batch, the engine unit's one timed step: about
/// one host second at one worker.
pub const ENGINE_BATCH: usize = 1024;
/// Sessions of each batch replayed through the sequential oracle.
pub const ENGINE_ORACLE_PREFIX: usize = 96;
/// Consecutive seeds per Monte-Carlo unit. Work per pair differs from
/// seed to seed by several percent (closure BFS depends on the graph);
/// twenty seeds average that out.
pub const MONTECARLO_SEEDS: usize = 20;
/// Seeds per timed step of a Monte-Carlo unit: about one host second.
pub const MONTECARLO_STEP_SEEDS: usize = 5;
/// Population of the scale workload.
pub const SCALE_N: usize = 20_000;
/// Consecutive seeds per scale unit, one timed step each: one 20k-node
/// field takes about one host second, and its cost differs from seed to
/// seed by up to a fifth (closure work depends on the field); six seeds
/// even that out.
pub const SCALE_SEEDS: usize = 6;

/// SplitMix64 finaliser: spreads a workload seed and an index into an
/// independent 64-bit stream seed.
pub fn mix(seed: u64, index: u64) -> u64 {
    let mut z = seed
        .wrapping_add(index.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The paper's Table I, every field written out.
pub fn table1() -> Params {
    let mut p = Params::table1();
    p.n = 2000;
    p.m = 100;
    p.l = 40;
    p.q = 20;
    p.n_chips = 512;
    p.chip_rate = 22e6;
    p.rho = 1e-11;
    p.mu = 1.0;
    p.nu = 2;
    p.tau = 0.15;
    p.z = 10;
    p.l_t = 5;
    p.l_id = 16;
    p.l_n = 20;
    p.l_mac = 44;
    p.l_nu = 4;
    p.l_sig = 672;
    p.t_key = 11e-3;
    p.t_sig = 5.7e-3;
    p.t_ver = 35.5e-3;
    p.field_w = 5000.0;
    p.field_h = 5000.0;
    p.range = 300.0;
    p.gamma = 5;
    p
}

/// Chip-level calibration of the engine workload: Table I with N = 256
/// chips and τ = 0.30 (the same false-sync rate as τ = 0.15 at N = 512).
/// The pool is Table I's ⌈2000/40⌉ · 100 = 5000 codes.
pub fn engine_params() -> Params {
    let mut p = table1();
    p.n_chips = 256;
    p.tau = 0.30;
    p
}

/// Engine configuration: program defaults except a retry budget of one
/// and the legacy wire format, which changes the bits on the air and is
/// the format the sequential oracle and the traced replay use.
pub fn engine_config() -> EngineConfig {
    EngineConfig {
        retry: RetryPolicy::budgeted(1),
        format: WireFormat::Legacy,
        ..EngineConfig::default()
    }
}

/// The deployment's master secret for a workload seed.
pub fn master_secret(seed: u64) -> Vec<u8> {
    let mut s = b"perfbench/engine-mixed/".to_vec();
    s.extend_from_slice(&seed.to_le_bytes());
    s
}

/// The deployment's pool, materialised as the slice the engine borrows.
pub fn pool_codes(deployment: &Deployment) -> Vec<SpreadCode> {
    let pool = deployment.pool();
    pool.ids().map(|id| pool.code(id).clone()).collect()
}

/// Fig. 5(a) at the paper's scale: n = 2000 in 5000 × 5000 m², reactive
/// jamming, q = 100 captured nodes, ν = 6.
pub fn montecarlo_config() -> ExperimentConfig {
    let mut params = table1();
    params.q = 100;
    params.nu = 6;
    ExperimentConfig {
        params,
        jammer: JammerKind::Reactive,
        dndp: paper_dndp(),
    }
}

/// The density-preserving 20 000-node field: side 5000 · √10 m, l = 400,
/// q = 100, ν = 6 (fig. 5(a)'s regime at ten times the population).
pub fn scale_config() -> ScaleConfig {
    let mut params = table1();
    params.n = SCALE_N;
    let side = 5000.0 * (SCALE_N as f64 / 2000.0).sqrt();
    params.field_w = side;
    params.field_h = side;
    params.l = 400;
    params.q = 100;
    params.nu = 6;
    let defaults = ScaleConfig::scaled(SCALE_N);
    ScaleConfig {
        params,
        jammer: JammerKind::Reactive,
        dndp: paper_dndp(),
        period: 30.0,
        shards: defaults.shards,
        scheduler: SchedulerKind::default(),
    }
}

fn paper_dndp() -> DndpConfig {
    DndpConfig {
        redundancy: true,
        tail_only_attack: false,
        wire_format: WireFormat::Legacy,
    }
}

/// First Monte-Carlo seed of a workload seed's unit.
pub fn montecarlo_base_seed(seed: u64) -> u64 {
    mix(seed, 0x5EED_F15A) >> 16
}

/// The scale workload's first run seed.
pub fn scale_seed(seed: u64) -> u64 {
    mix(seed, 0x5CA1_E20C) >> 16
}

/// The engine mix's session classes, one per session.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum SessionClass {
    /// Clean direct session, shared code at bank index 0.
    Clean,
    /// Clean direct session, shared code at bank index 1 (1/64).
    BankIndex1,
    /// 20% tail jam on the CONFIRM onwards, absorbed by the ECC (1/8).
    TailJam,
    /// Fully jammed from the HELLO: burns the retry budget (1/16).
    FullJam,
    /// Clean two-leg M-NDP session through a relay (1/32).
    MultiHop,
}

impl SessionClass {
    /// All classes, in report order.
    pub const ALL: [SessionClass; 5] = [
        SessionClass::Clean,
        SessionClass::BankIndex1,
        SessionClass::TailJam,
        SessionClass::FullJam,
        SessionClass::MultiHop,
    ];

    /// The class of session `i` of a batch.
    pub fn of(i: usize) -> SessionClass {
        if i % 16 == 7 {
            SessionClass::FullJam
        } else if i % 8 == 3 {
            SessionClass::TailJam
        } else if i % 32 == 12 {
            SessionClass::MultiHop
        } else if i % 64 == 9 {
            SessionClass::BankIndex1
        } else {
            SessionClass::Clean
        }
    }

    /// Metric-name label.
    pub fn label(self) -> &'static str {
        match self {
            SessionClass::Clean => "clean",
            SessionClass::BankIndex1 => "bank_index1",
            SessionClass::TailJam => "tail_jam",
            SessionClass::FullJam => "full_jam",
            SessionClass::MultiHop => "multihop",
        }
    }
}

/// A code of `node` other than `not`, held by none of `avoid`: the filler
/// slot of a 2-code bank, chosen so it cannot create a second shared code.
fn filler(
    deployment: &Deployment,
    node: usize,
    not: CodeId,
    avoid: &[usize],
    rng: &mut SimRng,
) -> CodeId {
    let a = deployment.assignment();
    let codes = a.codes_of(node);
    loop {
        let c = codes[rng.gen_range(0..codes.len())];
        if c != not && a.holders_of(c).iter().all(|h| !avoid.contains(h)) {
            return c;
        }
    }
}

/// A neighbour of `node` through one of its codes: `(peer, shared code)`,
/// with the peer outside `exclude`.
fn peer_of(
    deployment: &Deployment,
    node: usize,
    exclude: &[usize],
    rng: &mut SimRng,
) -> (usize, CodeId) {
    let a = deployment.assignment();
    let codes = a.codes_of(node);
    loop {
        let c = codes[rng.gen_range(0..codes.len())];
        let holders: Vec<usize> = a
            .holders_of(c)
            .iter()
            .copied()
            .filter(|h| *h != node && !exclude.contains(h) && *h < a.n_real())
            .collect();
        if !holders.is_empty() {
            return (holders[rng.gen_range(0..holders.len())], c);
        }
    }
}

/// A 2-code bank with `shared` at `idx` and `other` in the remaining slot.
fn bank(shared: CodeId, other: CodeId, idx: usize) -> (Vec<usize>, usize) {
    let (s, o) = (shared.0 as usize, other.0 as usize);
    if idx == 0 {
        (vec![s, o], 0)
    } else {
        (vec![o, s], 1)
    }
}

/// The engine-mixed batch: `count` sessions between node pairs of the
/// deployment that share a code, in the `repro sessions` class mix
/// ([`SessionClass::of`]). Pairs, relays and session seeds derive from
/// `seed` and the session index only.
pub fn engine_sessions(deployment: &Deployment, count: usize, seed: u64) -> Vec<SessionSpec> {
    let n = deployment.assignment().n_real();
    (0..count)
        .map(|i| {
            let class = SessionClass::of(i);
            let mut rng = SimRng::seed_from_u64(mix(seed, i as u64));
            let a = rng.gen_range(0..n);
            let idx = usize::from(class == SessionClass::BankIndex1);
            let session_seed = mix(seed ^ 0x5E55_1045, i as u64);
            let (a_shared, b, b_shared, relay) = if class == SessionClass::MultiHop {
                let (r, c1) = peer_of(deployment, a, &[], &mut rng);
                let (b, c2) = loop {
                    let (b, c2) = peer_of(deployment, r, &[a], &mut rng);
                    if c2 != c1 {
                        break (b, c2);
                    }
                };
                (c1, b, c2, Some((r, c1, c2)))
            } else {
                let (b, c) = peer_of(deployment, a, &[], &mut rng);
                (c, b, c, None)
            };
            let first_peer = relay.map_or(b, |(r, _, _)| r);
            let fa = filler(deployment, a, a_shared, &[first_peer], &mut rng);
            let (a_codes, shared_a) = bank(a_shared, fa, idx);
            let last_peer = relay.map_or(a, |(r, _, _)| r);
            let fb = filler(deployment, b, b_shared, &[last_peer], &mut rng);
            let (b_codes, shared_b) = bank(b_shared, fb, idx);
            let kind = match relay {
                Some((r, c1, c2)) => {
                    let f1 = filler(deployment, r, c1, &[a], &mut rng);
                    let f2 = filler(deployment, r, c2, &[b], &mut rng);
                    let (relay_a_codes, relay_shared_a) = bank(c1, f1, 0);
                    let (relay_b_codes, relay_shared_b) = bank(c2, f2, 0);
                    SessionKind::MultiHop {
                        relay_a_codes,
                        relay_b_codes,
                        relay_shared_a,
                        relay_shared_b,
                    }
                }
                None => SessionKind::Direct,
            };
            let jam_code = a_shared.0 as usize;
            let jammer = match class {
                SessionClass::FullJam => Some(JamSpec {
                    code: jam_code,
                    fraction: 1.0,
                    amplitude: 3,
                    first_message: 0,
                }),
                SessionClass::TailJam => Some(JamSpec {
                    code: jam_code,
                    fraction: 0.20,
                    amplitude: 2,
                    first_message: 1,
                }),
                _ => None,
            };
            SessionSpec {
                a_codes,
                b_codes,
                shared_a,
                shared_b,
                jammer,
                seed: session_seed,
                kind,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn deployment(seed: u64) -> Deployment {
        Deployment::new(engine_params(), &master_secret(seed)).unwrap()
    }

    #[test]
    fn the_session_mix_is_a_pure_function_of_the_seed() {
        let d = deployment(3);
        let a = engine_sessions(&d, 128, 3);
        let b = engine_sessions(&d, 128, 3);
        let c = engine_sessions(&d, 128, 4);
        let key = |v: &[SessionSpec]| format!("{v:?}");
        assert_eq!(key(&a), key(&b));
        assert_ne!(key(&a), key(&c));
    }

    #[test]
    fn every_session_shares_its_code_where_its_class_says() {
        let d = deployment(5);
        let specs = engine_sessions(&d, ENGINE_BATCH, 5);
        let mut counts = std::collections::BTreeMap::new();
        for (i, s) in specs.iter().enumerate() {
            let class = SessionClass::of(i);
            *counts.entry(class).or_insert(0usize) += 1;
            let idx = usize::from(class == SessionClass::BankIndex1);
            assert_eq!((s.a_codes.len(), s.b_codes.len()), (2, 2));
            assert_eq!((s.shared_a, s.shared_b), (idx, idx), "session {i}");
            match &s.kind {
                SessionKind::Direct => {
                    assert_eq!(s.a_codes[s.shared_a], s.b_codes[s.shared_b]);
                    assert_ne!(s.a_codes[1 - idx], s.b_codes[1 - idx], "one shared code");
                }
                SessionKind::MultiHop {
                    relay_a_codes,
                    relay_b_codes,
                    relay_shared_a,
                    relay_shared_b,
                } => {
                    assert_eq!(class, SessionClass::MultiHop);
                    assert_eq!(s.a_codes[s.shared_a], relay_a_codes[*relay_shared_a]);
                    assert_eq!(s.b_codes[s.shared_b], relay_b_codes[*relay_shared_b]);
                }
            }
            if let Some(j) = &s.jammer {
                assert_eq!(j.code, s.a_codes[s.shared_a], "same-code jammer");
            }
        }
        let n = ENGINE_BATCH;
        assert_eq!(counts[&SessionClass::FullJam], n / 16);
        assert_eq!(counts[&SessionClass::TailJam], n / 8);
        assert_eq!(counts[&SessionClass::MultiHop], n / 32);
        assert_eq!(counts[&SessionClass::BankIndex1], n / 64);
    }
}
