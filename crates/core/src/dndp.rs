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
//!
//! # Passes
//!
//! Drivers that walk many pairs — `network::run_once`, each strip of
//! `scale::run_scale`, and the timeline — run them through one pass
//! (`PairPass`, public only for the discovery bench). The pass works out
//! the coded-HELLO airtime and the latency model once, keeps the HELLO
//! survivors in one reused buffer, and tallies every `dndp.*` and
//! `jammer.*` count in plain integers; nothing else counts `jammer.*`.
//! The tally reaches the metrics registry once, when the pass ends, and
//! only for counters that a call per pair would have touched, so the
//! snapshot keeps its key set. [`simulate_pair_with`] is a one-pair pass. The
//! allocating per-pair body stays as [`reference::simulate_pair`], the
//! oracle a proptest checks the pass against pair by pair: outcomes, the
//! RNG stream and the counts.

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
///
/// A one-pair pass: drivers that walk many pairs run them through one
/// pass instead, which draws the same numbers and adds the same counts.
pub fn simulate_pair_with(
    params: &Params,
    shared: &[CodeId],
    jammer: &Jammer,
    config: DndpConfig,
    rng: &mut SimRng,
) -> DndpOutcome {
    PairPass::new(params, jammer, config).run(shared, rng)
}

/// The `dndp.*` and `jammer.*` counts of D-NDP executions, tallied in
/// plain integers ([`reference::simulate_pair`] reports one pair's).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PairCounts {
    pair_sessions: u64,
    no_shared_code: u64,
    hellos_sent: u64,
    coded_hello_bits: u64,
    hello_all_jammed: u64,
    mac_operations: u64,
    session_derivations: u64,
    session_derivations_saved: u64,
    subsessions: u64,
    subsessions_survived: u64,
    discovered: u64,
    tail_all_jammed: u64,
    hello_checks: u64,
    hello_jams: u64,
    tail_checks: u64,
    tail_jams: u64,
}

impl std::ops::AddAssign for PairCounts {
    fn add_assign(&mut self, other: PairCounts) {
        self.pair_sessions += other.pair_sessions;
        self.no_shared_code += other.no_shared_code;
        self.hellos_sent += other.hellos_sent;
        self.coded_hello_bits += other.coded_hello_bits;
        self.hello_all_jammed += other.hello_all_jammed;
        self.mac_operations += other.mac_operations;
        self.session_derivations += other.session_derivations;
        self.session_derivations_saved += other.session_derivations_saved;
        self.subsessions += other.subsessions;
        self.subsessions_survived += other.subsessions_survived;
        self.discovered += other.discovered;
        self.tail_all_jammed += other.tail_all_jammed;
        self.hello_checks += other.hello_checks;
        self.hello_jams += other.hello_jams;
        self.tail_checks += other.tail_checks;
        self.tail_jams += other.tail_jams;
    }
}

impl PairCounts {
    /// Adds every count to its registry counter, touching a counter only
    /// where one call per pair would have, so the snapshot keeps its key
    /// set: a count that stayed at zero is skipped, except the two a pair
    /// adds zero to (`session_derivations_saved`, `subsessions_survived`),
    /// which follow whether any pair reached its sub-sessions.
    fn flush(&self) {
        macro_rules! moved {
            ($($name:literal => $count:expr),* $(,)?) => {$(
                if $count > 0 {
                    metric_counter!($name).add($count);
                }
            )*};
        }
        moved! {
            "dndp.pair_sessions" => self.pair_sessions,
            "dndp.no_shared_code" => self.no_shared_code,
            "dndp.hellos_sent" => self.hellos_sent,
            "dndp.coded_hello_bits" => self.coded_hello_bits,
            "dndp.hello_all_jammed" => self.hello_all_jammed,
            "dndp.mac_operations" => self.mac_operations,
            "dndp.session_derivations" => self.session_derivations,
            "dndp.subsessions" => self.subsessions,
            "dndp.discovered" => self.discovered,
            "dndp.tail_all_jammed" => self.tail_all_jammed,
            "jammer.hello_checks" => self.hello_checks,
            "jammer.hello_jams" => self.hello_jams,
            "jammer.tail_checks" => self.tail_checks,
            "jammer.tail_jams" => self.tail_jams,
        }
        if self.session_derivations > 0 {
            metric_counter!("dndp.session_derivations_saved").add(self.session_derivations_saved);
            metric_counter!("dndp.subsessions_survived").add(self.subsessions_survived);
        }
    }
}

/// Coded bits of one HELLO copy: the canonical `NodeId(1)` frame's message
/// bits expanded through the (1+mu) ECC, or 0 when the frame has no
/// layout. Pure arithmetic via the codec's layout — the probabilistic
/// model never touches the RNG for this.
fn coded_hello_bits(params: &Params, config: DndpConfig) -> u64 {
    let hello_msg_bits = wire::hello_bits(
        &WireConfig::from_params(params),
        config.wire_format,
        MessageKind::Hello,
        NodeId(1),
    );
    ExpansionCode::new(params.mu)
        .and_then(|c| c.layout(hello_msg_bits))
        .map_or(0, |layout| layout.coded_bits() as u64)
}

/// A run of D-NDP executions sharing one parameter set, jammer and
/// protocol variant: one per `network::run_once`, scale strip and
/// timeline run.
///
/// The coded-HELLO airtime and the latency model are worked out once, the
/// HELLO survivors go into one reused buffer, and the counts are tallied
/// in a [`PairCounts`] that reaches the registry once, when the pass is
/// dropped. Each pair draws exactly what [`reference::simulate_pair`]
/// draws. Public (and hidden) only so the discovery bench can time a
/// pass against that oracle.
#[doc(hidden)]
pub struct PairPass<'a> {
    jammer: &'a Jammer,
    config: DndpConfig,
    coded_hello_bits: u64,
    latency: LatencyModel,
    candidates: Vec<CodeId>,
    counts: PairCounts,
}

impl<'a> PairPass<'a> {
    /// A pass with nothing tallied yet.
    pub fn new(params: &Params, jammer: &'a Jammer, config: DndpConfig) -> Self {
        PairPass {
            jammer,
            config,
            coded_hello_bits: coded_hello_bits(params, config),
            latency: LatencyModel::new(params),
            candidates: Vec::new(),
            counts: PairCounts::default(),
        }
    }

    /// One pair's D-NDP execution ([`simulate_pair_with`]).
    pub fn run(&mut self, shared: &[CodeId], rng: &mut SimRng) -> DndpOutcome {
        let x = shared.len();
        let counts = &mut self.counts;
        counts.pair_sessions += 1;
        if x == 0 {
            counts.no_shared_code += 1;
            return DndpOutcome {
                discovered: false,
                shared_codes: 0,
                surviving_sessions: 0,
                latency: None,
            };
        }
        counts.hellos_sent += x as u64;
        counts.coded_hello_bits += x as u64 * self.coded_hello_bits;

        // Phase 1: which HELLO copies does B receive? The intelligent
        // attacker deliberately lets every HELLO through.
        self.candidates.clear();
        if self.config.tail_only_attack {
            self.candidates.extend_from_slice(shared);
        } else {
            for &code in shared {
                let jammed = self.jammer.jams_hello(code, rng);
                counts.hello_checks += 1;
                counts.hello_jams += u64::from(jammed);
                if !jammed {
                    self.candidates.push(code);
                }
            }
        }
        if self.candidates.is_empty() {
            counts.hello_all_jammed += 1;
            sim_trace!(0.0, "dndp", "all {x} HELLO copies jammed; pair lost");
            return DndpOutcome {
                discovered: false,
                shared_codes: x,
                surviving_sessions: 0,
                latency: None,
            };
        }

        // Phase 2: which codes does B spread the CONFIRM/AUTH sub-sessions
        // with? Paper design: all received ones. Strawman: one at random.
        let session_codes: &[CodeId] = if self.config.redundancy {
            &self.candidates
        } else {
            let pick = rng.gen_range(0..self.candidates.len());
            std::slice::from_ref(&self.candidates[pick])
        };
        let sessions = session_codes.len() as u64;

        // Crypto-cost accounting for the batched datapath: each sub-session
        // tail carries two MACs computed and two verified (messages 3/4),
        // while C_AB is derived once per pair — sub-sessions beyond the first
        // hit the session-code cache instead of rederiving the PRF stream.
        counts.mac_operations += 4 * sessions;
        counts.session_derivations += 1;
        counts.session_derivations_saved += sessions - 1;

        // Phase 3: sub-sessions whose remaining three messages all survive.
        let mut surviving = 0usize;
        for &code in session_codes {
            let jammed = self.jammer.jams_tail(code, rng);
            counts.tail_checks += 1;
            counts.tail_jams += u64::from(jammed);
            surviving += usize::from(!jammed);
        }
        counts.subsessions += sessions;
        counts.subsessions_survived += surviving as u64;

        let discovered = surviving > 0;
        if discovered {
            counts.discovered += 1;
        } else {
            counts.tail_all_jammed += 1;
            sim_trace!(
                0.0,
                "dndp",
                "all {} sub-session tails jammed; pair lost",
                sessions
            );
        }
        DndpOutcome {
            discovered,
            shared_codes: x,
            surviving_sessions: surviving,
            latency: discovered.then(|| self.latency.sample(rng)),
        }
    }

    /// One pair's D-NDP execution ([`PairPass::run`]) under a retry
    /// budget and optional fault injection.
    ///
    /// Each attempt re-runs the pairwise handshake; an injected session
    /// fault voids an otherwise-successful attempt. Failed attempts wait
    /// out an exponential backoff whose jitter comes from `rng`, keeping
    /// the whole schedule reproducible. When the budget is exhausted the
    /// pair is reported as degraded — never a panic or an abort —
    /// matching the protocol's graceful-degradation contract.
    pub(crate) fn run_resilient(
        &mut self,
        shared: &[CodeId],
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
            outcome = self.run(shared, rng);
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
}

impl Drop for PairPass<'_> {
    fn drop(&mut self) {
        // A pass unwound by a panic reports nothing rather than risk a
        // second panic in the registry.
        if !std::thread::panicking() {
            self.counts.flush();
        }
    }
}

/// Outcome of a budgeted, fault-aware D-NDP execution.
///
/// Wraps the final attempt's [`DndpOutcome`] with retry bookkeeping so
/// aggregation layers can report partial discovery (degradation) instead
/// of aborting a run when a pair exhausts its budget.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct ResilientDndpOutcome {
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
pub(crate) struct PairResilience<'a> {
    /// Injected session faults, if any.
    pub faults: Option<&'a FaultInjector>,
    /// The attempt budget and backoff.
    pub retry: &'a RetryPolicy,
    /// The pair's fault-stream key: faults are keyed by
    /// `(pair_stream, attempt)`, so independent of query order and worker
    /// count.
    pub pair_stream: u64,
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
    LatencyModel::new(params).sample(rng)
}

/// The Theorem 2 timeline's constants, worked out once per parameter set.
#[derive(Debug, Clone, Copy)]
struct LatencyModel {
    /// Upper bound of the three residual/processing waits, `t_p`.
    t_p: f64,
    /// Upper bound of the de-spread wait, `λt_h`.
    despread: f64,
    /// The deterministic authentication phase `2Nl_f/R + 2t_key`.
    auth: f64,
}

impl LatencyModel {
    fn new(params: &Params) -> Self {
        let schedule = params.schedule();
        LatencyModel {
            t_p: schedule.t_p().max(f64::MIN_POSITIVE),
            despread: (schedule.lambda() * schedule.t_h()).max(f64::MIN_POSITIVE),
            auth: 2.0 * params.n_chips as f64 * params.l_f() as f64 / params.chip_rate
                + 2.0 * params.t_key,
        }
    }

    fn sample(&self, rng: &mut SimRng) -> f64 {
        let t_r_b = rng.gen_range(0.0..self.t_p);
        let t_d_b = rng.gen_range(0.0..self.t_p);
        let t_r_a = rng.gen_range(0.0..self.t_p);
        let t_d_a = rng.gen_range(0.0..self.despread);
        t_r_b + t_d_b + t_r_a + t_d_a + self.auth
    }
}

/// The allocating per-pair body that the run-scoped D-NDP pass replaced,
/// kept as a test and bench oracle: fresh vectors for the HELLO survivors
/// and the session codes, and the airtime and latency constants worked
/// out per call. It adds nothing to the registry; it reports the counts
/// one [`simulate_pair_with`] call adds instead.
pub mod reference {
    use super::*;

    /// One pair's D-NDP execution and the counts it adds.
    pub fn simulate_pair(
        params: &Params,
        shared: &[CodeId],
        jammer: &Jammer,
        config: DndpConfig,
        rng: &mut SimRng,
    ) -> (DndpOutcome, PairCounts) {
        let mut counts = PairCounts::default();
        let x = shared.len();
        counts.pair_sessions += 1;
        if x == 0 {
            counts.no_shared_code += 1;
            let outcome = DndpOutcome {
                discovered: false,
                shared_codes: 0,
                surviving_sessions: 0,
                latency: None,
            };
            return (outcome, counts);
        }
        counts.hellos_sent += x as u64;
        let hello_msg_bits = wire::hello_bits(
            &WireConfig::from_params(params),
            config.wire_format,
            MessageKind::Hello,
            NodeId(1),
        );
        if let Ok(layout) = ExpansionCode::new(params.mu).and_then(|c| c.layout(hello_msg_bits)) {
            counts.coded_hello_bits += (x * layout.coded_bits()) as u64;
        }

        // Phase 1: which HELLO copies does B receive?
        let hello_received: Vec<bool> = shared
            .iter()
            .map(|&c| {
                if config.tail_only_attack {
                    true
                } else {
                    counts.hello_checks += 1;
                    let jammed = jammer.jams_hello(c, rng);
                    counts.hello_jams += u64::from(jammed);
                    !jammed
                }
            })
            .collect();

        // Phase 2: the sub-session codes.
        let candidate_codes: Vec<CodeId> = shared
            .iter()
            .zip(&hello_received)
            .filter(|(_, &ok)| ok)
            .map(|(&c, _)| c)
            .collect();
        if candidate_codes.is_empty() {
            counts.hello_all_jammed += 1;
            let outcome = DndpOutcome {
                discovered: false,
                shared_codes: x,
                surviving_sessions: 0,
                latency: None,
            };
            return (outcome, counts);
        }
        let session_codes: Vec<CodeId> = if config.redundancy {
            candidate_codes
        } else {
            let pick = rng.gen_range(0..candidate_codes.len());
            vec![candidate_codes[pick]]
        };
        counts.mac_operations += 4 * session_codes.len() as u64;
        counts.session_derivations += 1;
        counts.session_derivations_saved += session_codes.len() as u64 - 1;

        // Phase 3: sub-sessions whose remaining three messages all survive.
        let surviving = session_codes
            .iter()
            .filter(|&&c| {
                counts.tail_checks += 1;
                let jammed = jammer.jams_tail(c, rng);
                counts.tail_jams += u64::from(jammed);
                !jammed
            })
            .count();

        let discovered = surviving > 0;
        counts.subsessions += session_codes.len() as u64;
        counts.subsessions_survived += surviving as u64;
        if discovered {
            counts.discovered += 1;
        } else {
            counts.tail_all_jammed += 1;
        }
        let outcome = DndpOutcome {
            discovered,
            shared_codes: x,
            surviving_sessions: surviving,
            latency: discovered.then(|| sample_latency(params, rng)),
        };
        (outcome, counts)
    }
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
            let resilient = PairPass::new(&p, &j, DndpConfig::default()).run_resilient(
                &codes(&[1, 9]),
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
        let jammer = Jammer::inactive(&p);
        let r = PairPass::new(&p, &jammer, DndpConfig::default()).run_resilient(
            &codes(&[4]),
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
        let jammer = Jammer::inactive(&p);
        let mut pass = PairPass::new(&p, &jammer, DndpConfig::default());
        for pair in 0u64..200 {
            let r = pass.run_resilient(
                &codes(&[4]),
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

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::jammer::JammerKind;
    use proptest::prelude::*;
    use rand::seq::SliceRandom;
    use rand::{RngCore, SeedableRng};
    use std::collections::HashSet;

    fn jammer_kind(index: usize, duty: f64) -> JammerKind {
        [
            JammerKind::None,
            JammerKind::Random,
            JammerKind::Reactive,
            JammerKind::Sweep,
            JammerKind::Pulsed { duty },
        ][index]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        /// Many pairs in a row through one pass against one oracle call per
        /// pair: every jammer kind (the sweep's schedule advancing on a
        /// clone per side), both protocol switches, 0..=8 shared codes and
        /// all m. Outcomes, the RNG stream after each pair and the pass's
        /// tally must all equal the oracle's.
        #[test]
        fn pass_matches_the_reference_oracle(
            kind in 0usize..5,
            duty in 0.0f64..1.0,
            redundancy in any::<bool>(),
            tail_only_attack in any::<bool>(),
            z in 1usize..40,
            seed in any::<u64>(),
            sizes in proptest::collection::vec(prop_oneof![0usize..9, Just(usize::MAX)], 1..48),
        ) {
            let mut params = Params::table1();
            params.z = z;
            let m = params.m;
            let mut setup = SimRng::seed_from_u64(seed);
            let mut pool: Vec<CodeId> = (0..4 * m as u32).map(CodeId).collect();
            let compromised: HashSet<CodeId> =
                pool.iter().copied().filter(|_| setup.gen_bool(0.5)).collect();
            let jammer = Jammer::new(jammer_kind(kind, duty), compromised, &params);
            let oracle_jammer = jammer.clone();
            let config = DndpConfig {
                redundancy,
                tail_only_attack,
                ..DndpConfig::default()
            };
            let mut pass = PairPass::new(&params, &jammer, config);
            let mut want = PairCounts::default();
            let mut rng = SimRng::seed_from_u64(!seed);
            let mut oracle_rng = rng.clone();
            for x in sizes {
                let x = if x == usize::MAX { m } else { x };
                pool.shuffle(&mut setup);
                let mut shared = pool[..x].to_vec();
                shared.sort_unstable();
                let got = pass.run(&shared, &mut rng);
                let (expect, counts) =
                    reference::simulate_pair(&params, &shared, &oracle_jammer, config, &mut oracle_rng);
                prop_assert_eq!(got, expect, "x = {}", x);
                prop_assert_eq!(rng.next_u64(), oracle_rng.next_u64(), "x = {}", x);
                want += counts;
            }
            prop_assert_eq!(pass.counts, want);
        }
    }
}
