//! D-NDP: the direct neighbor-discovery protocol (Section V-B), simulated
//! pairwise at protocol level.
//!
//! Two physical neighbors sharing `x ≥ 1` secret codes run `x` redundant
//! sub-sessions of the four-message handshake
//! `HELLO → CONFIRM → AUTH_A → AUTH_B`; discovery succeeds iff at least
//! one sub-session survives the jammer. The redundancy design (spreading
//! the CONFIRM and AUTH messages with *all* shared codes) is what defeats
//! the "intelligent attack" that spares the HELLO and targets the later
//! messages — the ablation switch in [`DndpConfig`] reproduces that
//! comparison.

use crate::jammer::Jammer;
use crate::messages::{MessageKind, WireConfig};
use crate::params::Params;
use crate::wire::{self, WireFormat};
use jrsnd_crypto::ibc::NodeId;
use jrsnd_dsss::code::CodeId;
use jrsnd_ecc::expand::ExpansionCode;
use jrsnd_sim::faults::FaultInjector;
use jrsnd_sim::retry::RetryPolicy;
use jrsnd_sim::rng::SimRng;
use jrsnd_sim::{metric_counter, sim_trace};
use rand::Rng;

/// Protocol variants for the redundancy ablation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DndpConfig {
    /// Paper design: spread CONFIRM/AUTH over every shared code (`true`),
    /// or pick one random shared code (`false`, the strawman).
    pub redundancy: bool,
    /// The "intelligent attack": the jammer deliberately spares HELLOs and
    /// targets only the three later messages.
    pub tail_only_attack: bool,
    /// Which wire format frames the HELLO for the coded-airtime accounting
    /// (`dndp.coded_hello_bits`): the [`crate::wire`] HELLO of the
    /// canonical `NodeId(1)` initiator — the same identity the chip
    /// drivers speak as — is Table I's `l_t + l_id` bits in `Legacy` and
    /// less than half that in `Packed`. Outcomes are untouched either way:
    /// the probabilistic model below never reads frame contents.
    pub wire_format: WireFormat,
}

impl Default for DndpConfig {
    fn default() -> Self {
        DndpConfig {
            redundancy: true,
            tail_only_attack: false,
            wire_format: WireFormat::Legacy,
        }
    }
}

/// Outcome of one pairwise D-NDP execution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DndpOutcome {
    /// Whether the pair discovered (and authenticated) each other.
    pub discovered: bool,
    /// Number of shared codes `x`.
    pub shared_codes: usize,
    /// Sub-sessions that survived jamming (0 when not discovered).
    pub surviving_sessions: usize,
    /// Sampled discovery latency in seconds (only when discovered).
    pub latency: Option<f64>,
}

/// Simulates one D-NDP execution between two physical neighbors sharing
/// `shared` codes, under `jammer`, with the protocol/attack variants of
/// `config` ([`DndpConfig::default`] is the paper's design).
pub fn simulate_pair_with(
    params: &Params,
    shared: &[CodeId],
    jammer: &Jammer,
    config: DndpConfig,
    rng: &mut SimRng,
) -> DndpOutcome {
    let x = shared.len();
    metric_counter!("dndp.pair_sessions").inc();
    if x == 0 {
        metric_counter!("dndp.no_shared_code").inc();
        return DndpOutcome {
            discovered: false,
            shared_codes: 0,
            surviving_sessions: 0,
            latency: None,
        };
    }
    metric_counter!("dndp.hellos_sent").add(x as u64);
    // Coded-airtime accounting: each HELLO copy is the canonical
    // NodeId(1) frame's message bits expanded through the (1+mu) ECC.
    // Pure arithmetic via the codec's layout — the probabilistic model
    // below never touches the RNG for this.
    let hello_msg_bits = wire::hello_bits(
        &WireConfig::from_params(params),
        config.wire_format,
        MessageKind::Hello,
        NodeId(1),
    );
    if let Ok(layout) = ExpansionCode::new(params.mu).and_then(|c| c.layout(hello_msg_bits)) {
        metric_counter!("dndp.coded_hello_bits").add((x * layout.coded_bits()) as u64);
    }

    // Phase 1: which HELLO copies does B receive?
    let hello_received: Vec<bool> = shared
        .iter()
        .map(|&c| {
            if config.tail_only_attack {
                true // the intelligent attacker deliberately lets HELLOs through
            } else {
                !jammer.jams_hello(c, rng)
            }
        })
        .collect();

    // Phase 2: which codes does B spread the CONFIRM/AUTH sub-sessions
    // with? Paper design: all received ones. Strawman: one at random.
    let candidate_codes: Vec<CodeId> = shared
        .iter()
        .zip(&hello_received)
        .filter(|(_, &ok)| ok)
        .map(|(&c, _)| c)
        .collect();
    if candidate_codes.is_empty() {
        metric_counter!("dndp.hello_all_jammed").inc();
        sim_trace!(0.0, "dndp", "all {x} HELLO copies jammed; pair lost");
        return DndpOutcome {
            discovered: false,
            shared_codes: x,
            surviving_sessions: 0,
            latency: None,
        };
    }
    let session_codes: Vec<CodeId> = if config.redundancy {
        candidate_codes
    } else {
        let pick = rng.gen_range(0..candidate_codes.len());
        vec![candidate_codes[pick]]
    };

    // Crypto-cost accounting for the batched datapath: each sub-session
    // tail carries two MACs computed and two verified (messages 3/4),
    // while C_AB is derived once per pair — sub-sessions beyond the first
    // hit the session-code cache instead of rederiving the PRF stream.
    metric_counter!("dndp.mac_operations").add(4 * session_codes.len() as u64);
    metric_counter!("dndp.session_derivations").inc();
    metric_counter!("dndp.session_derivations_saved").add(session_codes.len() as u64 - 1);

    // Phase 3: sub-sessions whose remaining three messages all survive.
    let surviving = session_codes
        .iter()
        .filter(|&&c| !jammer.jams_tail(c, rng))
        .count();

    let discovered = surviving > 0;
    metric_counter!("dndp.subsessions").add(session_codes.len() as u64);
    metric_counter!("dndp.subsessions_survived").add(surviving as u64);
    if discovered {
        metric_counter!("dndp.discovered").inc();
    } else {
        metric_counter!("dndp.tail_all_jammed").inc();
        sim_trace!(
            0.0,
            "dndp",
            "all {} sub-session tails jammed; pair lost",
            session_codes.len()
        );
    }
    DndpOutcome {
        discovered,
        shared_codes: x,
        surviving_sessions: surviving,
        latency: discovered.then(|| sample_latency(params, rng)),
    }
}

/// Outcome of a budgeted, fault-aware D-NDP execution.
///
/// Wraps the final attempt's [`DndpOutcome`] with retry bookkeeping so
/// aggregation layers can report partial discovery (degradation) instead
/// of aborting a run when a pair exhausts its budget.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ResilientDndpOutcome {
    /// The last attempt's protocol outcome.
    pub outcome: DndpOutcome,
    /// Attempts consumed (1 when the first attempt succeeded).
    pub attempts: u32,
    /// True when every budgeted attempt failed: the pair degrades to
    /// "undiscovered this round" rather than aborting the run.
    pub degraded: bool,
    /// Total exponential-backoff wait in seconds (deterministic jitter
    /// drawn from the run RNG), already folded into `outcome.latency`.
    pub backoff_s: f64,
}

/// The retry budget and fault stream one pair's D-NDP runs under.
#[derive(Debug, Clone, Copy)]
pub struct PairResilience<'a> {
    /// Injected session faults, if any.
    pub faults: Option<&'a FaultInjector>,
    /// The attempt budget and backoff.
    pub retry: &'a RetryPolicy,
    /// The pair's fault-stream key: faults are keyed by
    /// `(pair_stream, attempt)`, so independent of query order and worker
    /// count.
    pub pair_stream: u64,
}

/// [`simulate_pair_with`] under a retry budget and optional fault
/// injection.
///
/// Each attempt re-runs the pairwise handshake; an injected session
/// fault voids an otherwise-successful attempt. Failed attempts wait out
/// an exponential backoff whose jitter comes from `rng`, keeping the
/// whole schedule reproducible. When the budget is exhausted the pair is
/// reported as degraded — never a panic or an abort — matching the
/// protocol's graceful-degradation contract.
pub fn simulate_pair_resilient(
    params: &Params,
    shared: &[CodeId],
    jammer: &Jammer,
    config: DndpConfig,
    resilience: PairResilience<'_>,
    rng: &mut SimRng,
) -> ResilientDndpOutcome {
    let budget = resilience.retry.max_attempts.max(1);
    let mut backoff_s = 0.0;
    let mut outcome = DndpOutcome {
        discovered: false,
        shared_codes: shared.len(),
        surviving_sessions: 0,
        latency: None,
    };
    let mut attempts = 0;
    for attempt in 1..=budget {
        attempts = attempt;
        backoff_s += resilience.retry.backoff_delay(attempt, rng);
        metric_counter!("retry.attempts").inc();
        outcome = simulate_pair_with(params, shared, jammer, config, rng);
        if outcome.discovered {
            if let Some(inj) = resilience.faults {
                if inj.session_disrupted(resilience.pair_stream, u64::from(attempt)) {
                    // The sub-session completed at protocol level but the
                    // injected chip-layer fault voids it.
                    outcome.discovered = false;
                    outcome.surviving_sessions = 0;
                    outcome.latency = None;
                }
            }
        }
        if outcome.discovered {
            break;
        }
        metric_counter!("session.timeouts").inc();
    }
    let degraded = !outcome.discovered;
    if degraded {
        metric_counter!("session.degraded").inc();
    } else if backoff_s > 0.0 {
        outcome.latency = outcome.latency.map(|t| t + backoff_s);
    }
    ResilientDndpOutcome {
        outcome,
        attempts,
        degraded,
        backoff_s,
    }
}

/// Samples one discovery latency from the Theorem 2 timeline:
/// three uniform residual/processing waits of mean `t_p/2`, one de-spread
/// wait of mean `λt_h/2`, plus the deterministic authentication phase
/// `2Nl_f/R + 2t_key`.
///
/// # Examples
///
/// ```
/// use jrsnd::dndp::sample_latency;
/// use jrsnd::params::Params;
/// use jrsnd_sim::rng::SimRng;
/// use rand::SeedableRng;
///
/// let p = Params::table1();
/// let mut rng = SimRng::seed_from_u64(1);
/// let t = sample_latency(&p, &mut rng);
/// assert!(t > 0.0 && t < 5.0);
/// ```
pub fn sample_latency(params: &Params, rng: &mut SimRng) -> f64 {
    let schedule = params.schedule();
    let t_p = schedule.t_p();
    let t_h = schedule.t_h();
    let lambda = schedule.lambda();
    let t_r_b = rng.gen_range(0.0..t_p.max(f64::MIN_POSITIVE));
    let t_d_b = rng.gen_range(0.0..t_p.max(f64::MIN_POSITIVE));
    let t_r_a = rng.gen_range(0.0..t_p.max(f64::MIN_POSITIVE));
    let t_d_a = rng.gen_range(0.0..(lambda * t_h).max(f64::MIN_POSITIVE));
    let auth =
        2.0 * params.n_chips as f64 * params.l_f() as f64 / params.chip_rate + 2.0 * params.t_key;
    t_r_b + t_d_b + t_r_a + t_d_a + auth
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::jammer::JammerKind;
    use rand::SeedableRng;
    use std::collections::HashSet;

    fn codes(ids: &[u32]) -> Vec<CodeId> {
        ids.iter().map(|&i| CodeId(i)).collect()
    }

    fn reactive(known: &[u32], params: &Params) -> Jammer {
        Jammer::new(
            JammerKind::Reactive,
            known.iter().map(|&i| CodeId(i)).collect::<HashSet<_>>(),
            params,
        )
    }

    #[test]
    fn no_shared_codes_never_discovers() {
        let p = Params::table1();
        let mut rng = SimRng::seed_from_u64(1);
        let out = simulate_pair_with(
            &p,
            &[],
            &Jammer::inactive(&p),
            DndpConfig::default(),
            &mut rng,
        );
        assert!(!out.discovered);
        assert_eq!(out.shared_codes, 0);
        assert_eq!(out.latency, None);
    }

    #[test]
    fn no_jammer_always_discovers() {
        let p = Params::table1();
        let mut rng = SimRng::seed_from_u64(2);
        for x in 1..5 {
            let shared: Vec<CodeId> = (0..x).map(CodeId).collect();
            let out = simulate_pair_with(
                &p,
                &shared,
                &Jammer::inactive(&p),
                DndpConfig::default(),
                &mut rng,
            );
            assert!(out.discovered);
            assert_eq!(out.surviving_sessions, x as usize);
            assert!(out.latency.is_some());
        }
    }

    #[test]
    fn reactive_jammer_kills_fully_compromised_pairs() {
        let p = Params::table1();
        let j = reactive(&[1, 2, 3], &p);
        let mut rng = SimRng::seed_from_u64(3);
        let out = simulate_pair_with(&p, &codes(&[1, 2]), &j, DndpConfig::default(), &mut rng);
        assert!(!out.discovered);
        // One non-compromised code saves the pair.
        let out = simulate_pair_with(&p, &codes(&[1, 9]), &j, DndpConfig::default(), &mut rng);
        assert!(out.discovered);
        assert_eq!(out.surviving_sessions, 1);
    }

    #[test]
    fn packed_wire_format_shrinks_hello_airtime_without_touching_outcomes() {
        let p = Params::table1();
        // The accounting input: the canonical packed HELLO is well under
        // half the legacy l_t + l_id frame.
        let w = WireConfig::from_params(&p);
        let bits = |format| wire::hello_bits(&w, format, MessageKind::Hello, NodeId(1));
        let packed_bits = bits(WireFormat::Packed);
        assert_eq!(bits(WireFormat::Legacy), p.l_t + p.l_id);
        assert!(
            2 * packed_bits < p.l_t + p.l_id,
            "packed {} vs legacy {} hello bits",
            packed_bits,
            p.l_t + p.l_id
        );
        // And the knob is pure accounting: same seed, identical outcomes.
        let j = reactive(&[1], &p);
        let shared = codes(&[1, 2]);
        let packed_cfg = DndpConfig {
            wire_format: WireFormat::Packed,
            ..DndpConfig::default()
        };
        for seed in 0..50u64 {
            let mut rng_a = SimRng::seed_from_u64(seed);
            let mut rng_b = SimRng::seed_from_u64(seed);
            let legacy = simulate_pair_with(&p, &shared, &j, DndpConfig::default(), &mut rng_a);
            let packed = simulate_pair_with(&p, &shared, &j, packed_cfg, &mut rng_b);
            assert_eq!(legacy, packed, "seed {seed}");
        }
    }

    #[test]
    fn redundancy_defeats_tail_only_attack() {
        // x = 2 shared codes, one compromised. The intelligent attacker
        // spares HELLOs and reactively jams tails of compromised codes.
        let p = Params::table1();
        let j = reactive(&[1], &p);
        let shared = codes(&[1, 2]);
        let attack = DndpConfig {
            redundancy: true,
            tail_only_attack: true,
            ..DndpConfig::default()
        };
        let strawman = DndpConfig {
            redundancy: false,
            tail_only_attack: true,
            ..DndpConfig::default()
        };
        let mut rng = SimRng::seed_from_u64(4);
        let trials = 4000;
        let with_red = (0..trials)
            .filter(|_| simulate_pair_with(&p, &shared, &j, attack, &mut rng).discovered)
            .count();
        let without = (0..trials)
            .filter(|_| simulate_pair_with(&p, &shared, &j, strawman, &mut rng).discovered)
            .count();
        // Redundant spreading always survives via the clean code; the
        // strawman picks the compromised code half the time.
        assert_eq!(with_red, trials);
        let rate = without as f64 / trials as f64;
        assert!((rate - 0.5).abs() < 0.05, "strawman survival {rate}");
    }

    #[test]
    fn discovery_rate_tracks_theorem1_for_single_code() {
        // Random jammer, x = 1 compromised code: P(success) = 1 - (b+b'-bb').
        let mut p = Params::table1();
        p.z = 10;
        let pool: HashSet<CodeId> = (0..200).map(CodeId).collect();
        let j = Jammer::new(JammerKind::Random, pool, &p);
        // beta = 20/200 = 0.1, beta' = 0.3; survival = 1-(0.1+0.3-0.03)=0.63.
        let mut rng = SimRng::seed_from_u64(5);
        let trials = 20_000;
        let wins = (0..trials)
            .filter(|_| {
                simulate_pair_with(&p, &codes(&[7]), &j, DndpConfig::default(), &mut rng).discovered
            })
            .count();
        let rate = wins as f64 / trials as f64;
        assert!((rate - 0.63).abs() < 0.015, "survival {rate}");
    }

    #[test]
    fn latency_stats_match_theorem2_mean() {
        let p = Params::table1();
        let mut rng = SimRng::seed_from_u64(6);
        let n = 20_000;
        let mean: f64 = (0..n).map(|_| sample_latency(&p, &mut rng)).sum::<f64>() / n as f64;
        let theory = crate::analysis::dndp::t_dndp(&p);
        assert!(
            (mean - theory).abs() / theory < 0.02,
            "sampled {mean}, theory {theory}"
        );
    }

    #[test]
    fn resilient_single_attempt_without_faults_matches_the_plain_path() {
        use jrsnd_sim::retry::RetryPolicy;
        let p = Params::table1();
        let j = reactive(&[1], &p);
        for seed in 10u64..15 {
            let mut plain_rng = SimRng::seed_from_u64(seed);
            let mut res_rng = SimRng::seed_from_u64(seed);
            let plain = simulate_pair_with(
                &p,
                &codes(&[1, 9]),
                &j,
                DndpConfig::default(),
                &mut plain_rng,
            );
            let resilient = simulate_pair_resilient(
                &p,
                &codes(&[1, 9]),
                &j,
                DndpConfig::default(),
                PairResilience {
                    faults: None,
                    retry: &RetryPolicy::none(),
                    pair_stream: 0,
                },
                &mut res_rng,
            );
            assert_eq!(resilient.outcome, plain, "seed {seed}");
            assert_eq!(resilient.attempts, 1);
            assert_eq!(resilient.backoff_s, 0.0);
        }
    }

    #[test]
    fn resilient_budget_exhaustion_degrades_instead_of_aborting() {
        use jrsnd_sim::faults::{FaultInjector, FaultPlan};
        use jrsnd_sim::retry::RetryPolicy;
        let p = Params::table1();
        // Certain disruption: every attempt that would succeed is voided.
        let plan = FaultPlan {
            drop_prob: 1.0,
            ..FaultPlan::none()
        };
        let inj = FaultInjector::new(3, plan);
        let retry = RetryPolicy::budgeted(3);
        let mut rng = SimRng::seed_from_u64(20);
        let r = simulate_pair_resilient(
            &p,
            &codes(&[4]),
            &Jammer::inactive(&p),
            DndpConfig::default(),
            PairResilience {
                faults: Some(&inj),
                retry: &retry,
                pair_stream: 7,
            },
            &mut rng,
        );
        assert!(r.degraded);
        assert!(!r.outcome.discovered);
        assert_eq!(r.attempts, retry.max_attempts);
        assert_eq!(r.outcome.latency, None);
        assert!(r.backoff_s > 0.0);
    }

    #[test]
    fn resilient_retries_recover_transiently_faulted_pairs() {
        use jrsnd_sim::faults::{FaultInjector, FaultPlan};
        use jrsnd_sim::retry::RetryPolicy;
        let p = Params::table1();
        let inj = FaultInjector::new(11, FaultPlan::intensity(1.0));
        let retry = RetryPolicy::budgeted(5);
        let mut rng = SimRng::seed_from_u64(30);
        let mut recovered = 0u32;
        for pair in 0u64..200 {
            let r = simulate_pair_resilient(
                &p,
                &codes(&[4]),
                &Jammer::inactive(&p),
                DndpConfig::default(),
                PairResilience {
                    faults: Some(&inj),
                    retry: &retry,
                    pair_stream: pair,
                },
                &mut rng,
            );
            if r.attempts > 1 && r.outcome.discovered {
                recovered += 1;
                assert!(r.backoff_s > 0.0);
                // The backoff wait shows up in the reported latency.
                assert!(r.outcome.latency.unwrap() > r.backoff_s);
            }
        }
        assert!(recovered > 0, "no pair ever needed and survived a retry");
    }

    #[test]
    fn latency_only_on_discovery() {
        let p = Params::table1();
        let j = reactive(&[1], &p);
        let mut rng = SimRng::seed_from_u64(7);
        let out = simulate_pair_with(&p, &codes(&[1]), &j, DndpConfig::default(), &mut rng);
        assert!(!out.discovered && out.latency.is_none());
    }
}
