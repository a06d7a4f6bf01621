//! Batch session engine: thousands-to-millions of concurrent D-NDP/M-NDP
//! handshakes advanced tick-by-tick against shared chip media.
//!
//! The chip-level driver in [`crate::chiplink`] runs one session at a time:
//! every handshake allocates its own render buffer, prefix sums and code
//! bank, and every retry loop owns a private channel. This module keeps the
//! *exact same* radio/protocol code — [`transmit_hello`], [`scan_hello`],
//! [`transmit_and_receive`] are shared verbatim — but drives many sessions
//! through it at once:
//!
//! * **Arena state.** Per-session state lives in a slot arena with a
//!   struct-of-arrays hot path (stage + deadline per session) so the tick
//!   loop scans cache-friendly arrays, touching the cold per-session slot
//!   only when a session is actually due.
//! * **Per-session HELLO scans on pooled buffers.** Each session due to
//!   broadcast a HELLO transmits it on the shard's [`LinkMedium`], renders
//!   just its own window into a pooled shard buffer, computes that
//!   window's prefix sums into pooled storage
//!   ([`MultiCorrelator::scanner_with`]), and points the shard's pooled
//!   bank at its own (small) code set ([`MultiCorrelator::assign`]). The
//!   windows of different sessions are disjoint, so there is nothing to
//!   share between them, and a window-sized buffer stays cache-resident
//!   through the scan.
//! * **Pooled scratch.** One [`FrameCodec`], [`SessionCodeCache`], decode /
//!   garbage / frame / scan scratch set, render buffer, prefix-sum buffer
//!   and correlator bank per shard, reused by every session; the warm
//!   engine makes no steady-state allocations in its scan machinery.
//! * **Bounded channel memory.** Each shard's [`LinkMedium`] cursor only
//!   moves forward, and every window is retired as soon as it has been
//!   rendered ([`jrsnd_dsss::channel::ChipChannel::retire_before`]), so
//!   channel memory is bounded by one session's window regardless of run
//!   length.
//! * **Static seed sharding.** Session `i` belongs to shard `i % shards`;
//!   workers own fixed shard sets (`shard % workers`). Every per-session
//!   decision is keyed only by the session's own seeded RNGs, so the
//!   engine's outputs are **byte-identical** to the sequential
//!   [`reference`] oracle and invariant under `JRSND_THREADS`.
//!
//! # Why the batch is bit-exact
//!
//! The shared medium is noiseless (ambient noise is a per-chip function of
//! the channel's noise threshold, which stays 0), so a rendered window
//! containing only one session's transmissions is a pure translation of
//! what that session's private channel would render; disjoint cursor
//! windows guarantee exactly that. Pooled codecs, caches, banks and
//! scratch change *work*, never outcomes. Each session draws jam garbage
//! and nonces from its own attempt-seeded RNG, so interleaving sessions
//! cannot perturb any draw. The one deliberate
//! deviation from [`crate::chiplink::run_handshake_resilient`]: the engine
//! does not support fault injection (a fault stream keyed to a shared
//! medium would couple sessions), so batch runs model jamming and retries
//! but not injected chip faults.

use crate::chiplink::{
    scan_hello, transmit_and_receive, transmit_hello, ChipJammer, HandshakeReport, LinkMedium,
    Stage,
};
use crate::handshake::{Established, Initiator, Responder};
use crate::messages::{FrameCodec, MessageKind, WireConfig};
use crate::params::Params;
use crate::wire::WireFormat;
use jrsnd_crypto::ibc::{Authority, NodeId};
use jrsnd_crypto::session::SessionCodeCache;
use jrsnd_dsss::code::{CodeId, SpreadCode};
use jrsnd_dsss::correlate::{MultiCorrelator, PrefixSums};
use jrsnd_dsss::sync::{Frame, ScanScratch};
use jrsnd_sim::retry::RetryPolicy;
use jrsnd_sim::rng::SimRng;
use jrsnd_sim::{metric_counter, metric_gauge};
use rand::SeedableRng;

/// Attempt re-keying increment, shared with the resilient driver.
const ATTEMPT_SALT: u64 = 0x9E37_79B9_7F4A_7C15;
/// Backoff-jitter stream salt, shared with the resilient driver.
const BACKOFF_SALT: u64 = 0xBACC_0FF5;
/// Channel seed salt (irrelevant on a noiseless medium, kept for parity).
const MEDIUM_SALT: u64 = 0x1111;
/// Seed salt separating an M-NDP session's second (relay → B) leg from its
/// first, so the two legs draw independent nonces and jitter.
const MNDP_LEG2_SALT: u64 = 0x6D6E_6470_0002;

/// A same-code reactive jammer attacking one session, by pool index.
#[derive(Debug, Clone)]
pub struct JamSpec {
    /// Pool index of the code the jammer transmits with.
    pub code: usize,
    /// Fraction of each message (from the tail) it covers.
    pub fraction: f64,
    /// Transmit amplitude relative to legitimate nodes.
    pub amplitude: i32,
    /// First handshake message attacked (0 = HELLO … 3 = AUTH_B).
    pub first_message: usize,
}

impl JamSpec {
    fn instantiate(&self, pool: &[SpreadCode]) -> ChipJammer {
        ChipJammer {
            code: pool[self.code].clone(),
            fraction: self.fraction,
            amplitude: self.amplitude,
            first_message: self.first_message,
        }
    }
}

/// Whether a session is a direct discovery or a two-leg multi-hop one.
#[derive(Debug, Clone)]
pub enum SessionKind {
    /// One D-NDP handshake between A and B.
    Direct,
    /// M-NDP through one relay R: leg 1 is A ↔ R (against
    /// `relay_a_codes`), leg 2 is R ↔ B (from `relay_b_codes`). The
    /// session discovers iff **both** legs discover; the jammer (if any)
    /// attacks leg 1 — the over-the-air hop next to A.
    MultiHop {
        /// R's pre-distributed codes for the A-facing leg (pool indices).
        relay_a_codes: Vec<usize>,
        /// R's pre-distributed codes for the B-facing leg (pool indices).
        relay_b_codes: Vec<usize>,
        /// Index in `relay_a_codes` of the code shared with A.
        relay_shared_a: usize,
        /// Index in `relay_b_codes` of the code shared with B.
        relay_shared_b: usize,
    },
}

/// One session's full description: code sets (as indices into the shared
/// pool), the shared-code positions, the optional jammer, the session seed,
/// and the discovery kind.
#[derive(Debug, Clone)]
pub struct SessionSpec {
    /// A's pre-distributed codes, as pool indices.
    pub a_codes: Vec<usize>,
    /// B's pre-distributed codes, as pool indices.
    pub b_codes: Vec<usize>,
    /// Index in `a_codes` of the code shared with the first-leg peer.
    pub shared_a: usize,
    /// Index in `b_codes` of the code shared with the last-leg peer.
    pub shared_b: usize,
    /// Optional same-code jammer attacking the session's first leg.
    pub jammer: Option<JamSpec>,
    /// Session seed: nonces, jam garbage, and backoff jitter derive from it.
    pub seed: u64,
    /// Direct D-NDP or two-leg M-NDP.
    pub kind: SessionKind,
}

/// The final outcome of one engine session (all legs, all retry attempts).
#[derive(Debug, Clone, PartialEq)]
pub struct SessionOutcome {
    /// The last attempt's chip-level report (legs merged for M-NDP).
    pub report: HandshakeReport,
    /// Attempts made across all legs.
    pub attempts: u32,
    /// Whether any leg exhausted its retry budget without discovering.
    pub degraded: bool,
    /// Total backoff spent waiting across all legs, in seconds.
    pub backoff_s: f64,
}

/// Engine tuning knobs. Apart from `format`, none of them affect
/// outcomes — only scheduling — which the equivalence tests assert.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Fixed shard count; session `i` lives on shard `i % shards`.
    /// Outputs are independent of this (each session is self-contained);
    /// it bounds how many workers can help.
    pub shards: usize,
    /// Retry/backoff budget applied to every leg of every session.
    pub retry: RetryPolicy,
    /// Worker threads; `None` resolves `JRSND_THREADS` then available
    /// parallelism. Clamped to `[1, shards]`.
    pub threads: Option<usize>,
    /// Wire codec every session's frames run through. `Legacy` (the
    /// default) keeps all committed outputs byte-identical; `Packed`
    /// switches to the [`crate::wire`] format — unlike the other knobs it
    /// changes the bits on the air (shorter frames), though outcomes on a
    /// clean channel are unaffected.
    pub format: WireFormat,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            shards: 16,
            retry: RetryPolicy::none(),
            threads: None,
            format: WireFormat::Legacy,
        }
    }
}

/// The batch session engine. Borrows the parameter set, the IBC authority,
/// and the deployment's code pool; [`BatchEngine::run`] advances any number
/// of [`SessionSpec`]s to completion.
#[derive(Debug)]
pub struct BatchEngine<'p> {
    params: &'p Params,
    authority: &'p Authority,
    pool: &'p [SpreadCode],
    config: EngineConfig,
}

/// Hot per-session stage marker (struct-of-arrays with `deadline`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SessStage {
    Hello,
    Confirm,
    AuthA,
    AuthB,
    Done,
}

/// Cold per-session state, touched only when the session is due.
struct Slot {
    // Current-leg configuration (rewritten between M-NDP legs).
    a_idx: Vec<usize>,
    b_idx: Vec<usize>,
    shared_b: usize,
    leg_seed: u64,
    jammer: Option<ChipJammer>,
    // Attempt state.
    attempt: u32,
    attempt_seed: u64,
    backoff_rng: SimRng,
    backoff_s: f64,
    rng: SimRng,
    initiator: Option<Initiator>,
    responder: Option<Responder>,
    pending: Vec<bool>,
    est_b: Option<Established>,
    scan_correlations: u64,
    sync_retries: u64,
    // Cross-leg bookkeeping.
    leg1: Option<SessionOutcome>,
    outcome: Option<SessionOutcome>,
}

impl Slot {
    fn new(spec: &SessionSpec, pool: &[SpreadCode]) -> Self {
        // Leg 1 of a multi-hop session runs A against the relay's
        // A-facing code set; a direct session runs A against B.
        let (b_idx, shared_b) = match &spec.kind {
            SessionKind::Direct => (spec.b_codes.clone(), spec.shared_b),
            SessionKind::MultiHop {
                relay_a_codes,
                relay_shared_a,
                ..
            } => (relay_a_codes.clone(), *relay_shared_a),
        };
        Slot {
            a_idx: spec.a_codes.clone(),
            b_idx,
            shared_b,
            leg_seed: spec.seed,
            jammer: spec.jammer.as_ref().map(|j| j.instantiate(pool)),
            attempt: 0,
            attempt_seed: 0,
            backoff_rng: SimRng::seed_from_u64(spec.seed ^ BACKOFF_SALT),
            backoff_s: 0.0,
            rng: SimRng::seed_from_u64(0),
            initiator: None,
            responder: None,
            pending: Vec::new(),
            est_b: None,
            scan_correlations: 0,
            sync_retries: 0,
            leg1: None,
            outcome: None,
        }
    }

    fn on_leg(&self) -> u8 {
        if self.leg1.is_some() {
            2
        } else {
            1
        }
    }
}

/// Merges an M-NDP session's two leg outcomes: discovery requires both,
/// the stage reported is the final leg's, and effort counters sum. Shared
/// by the engine and the [`reference`] oracle so the semantics cannot
/// diverge.
fn merge_mndp_legs(leg1: SessionOutcome, leg2: SessionOutcome) -> SessionOutcome {
    SessionOutcome {
        report: HandshakeReport {
            discovered: leg1.report.discovered && leg2.report.discovered,
            stage: leg2.report.stage,
            scan_correlations: leg1.report.scan_correlations + leg2.report.scan_correlations,
            sync_retries: leg1.report.sync_retries + leg2.report.sync_retries,
        },
        attempts: leg1.attempts + leg2.attempts,
        degraded: leg1.degraded || leg2.degraded,
        backoff_s: leg1.backoff_s + leg2.backoff_s,
    }
}

/// Finalizes the current leg with `report`: either stores the session's
/// outcome (direct, final leg, or a degraded leg) or rewrites the slot for
/// the M-NDP second leg.
fn finalize_leg(
    slot: &mut Slot,
    st: &mut SessStage,
    spec: &SessionSpec,
    report: HandshakeReport,
    active: &mut usize,
) {
    let degraded = !report.discovered;
    if degraded {
        metric_counter!("session.degraded").inc();
    }
    let leg = SessionOutcome {
        report,
        attempts: slot.attempt,
        degraded,
        backoff_s: slot.backoff_s,
    };
    let relay_leg_next =
        matches!(spec.kind, SessionKind::MultiHop { .. }) && slot.on_leg() == 1 && !leg.degraded;
    if relay_leg_next {
        let SessionKind::MultiHop { relay_b_codes, .. } = &spec.kind else {
            unreachable!("relay_leg_next implies MultiHop");
        };
        slot.leg1 = Some(leg);
        slot.a_idx = relay_b_codes.clone();
        slot.b_idx = spec.b_codes.clone();
        slot.shared_b = spec.shared_b;
        slot.leg_seed = spec.seed ^ MNDP_LEG2_SALT;
        slot.jammer = None;
        slot.attempt = 0;
        slot.backoff_s = 0.0;
        slot.backoff_rng = SimRng::seed_from_u64(slot.leg_seed ^ BACKOFF_SALT);
        *st = SessStage::Hello;
    } else {
        slot.outcome = Some(match slot.leg1.take() {
            Some(l1) => merge_mndp_legs(l1, leg),
            None => leg,
        });
        *st = SessStage::Done;
        *active -= 1;
    }
}

/// Books one failed attempt: retries while the budget allows, otherwise
/// finalizes the leg degraded with the failing stage's report.
fn fail_attempt(
    slot: &mut Slot,
    st: &mut SessStage,
    spec: &SessionSpec,
    max_attempts: u32,
    report_stage: Stage,
    active: &mut usize,
) {
    metric_counter!("session.timeouts").inc();
    if slot.attempt < max_attempts {
        *st = SessStage::Hello;
    } else {
        let report = HandshakeReport {
            discovered: false,
            stage: report_stage,
            scan_correlations: slot.scan_correlations,
            sync_retries: slot.sync_retries,
        };
        finalize_leg(slot, st, spec, report, active);
    }
}

fn resolve_workers(threads: Option<usize>, shards: usize) -> usize {
    threads
        .or_else(|| {
            std::env::var("JRSND_THREADS")
                .ok()
                .and_then(|s| s.parse().ok())
                .filter(|&t| t > 0)
        })
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        })
        .clamp(1, shards.max(1))
}

impl<'p> BatchEngine<'p> {
    /// Builds an engine over a deployment's shared code pool.
    ///
    /// # Panics
    ///
    /// Panics if the pool is empty or any pool code's length differs from
    /// `params.n_chips`.
    pub fn new(
        params: &'p Params,
        authority: &'p Authority,
        pool: &'p [SpreadCode],
        config: EngineConfig,
    ) -> Self {
        assert!(!pool.is_empty(), "empty code pool");
        assert!(
            pool.iter().all(|c| c.len() == params.n_chips),
            "pool codes must match params.n_chips"
        );
        assert!(config.shards > 0, "need at least one shard");
        BatchEngine {
            params,
            authority,
            pool,
            config,
        }
    }

    /// The engine's configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    fn validate(&self, spec: &SessionSpec) {
        let check = |idx: &[usize], shared: usize, what: &str| {
            assert!(!idx.is_empty(), "{what}: empty code set");
            assert!(
                idx.iter().all(|&k| k < self.pool.len()),
                "{what}: pool index out of range"
            );
            assert!(shared < idx.len(), "{what}: shared index out of range");
        };
        check(&spec.a_codes, spec.shared_a, "a_codes");
        check(&spec.b_codes, spec.shared_b, "b_codes");
        if let Some(j) = &spec.jammer {
            assert!(j.code < self.pool.len(), "jammer pool index out of range");
        }
        if let SessionKind::MultiHop {
            relay_a_codes,
            relay_b_codes,
            relay_shared_a,
            relay_shared_b,
        } = &spec.kind
        {
            check(relay_a_codes, *relay_shared_a, "relay_a_codes");
            check(relay_b_codes, *relay_shared_b, "relay_b_codes");
        }
    }

    /// Runs every session to completion and returns outcomes in spec
    /// order. Byte-identical to [`reference::run_sessions`] over the same
    /// specs, and invariant under thread count.
    ///
    /// # Panics
    ///
    /// Panics if any spec references a pool or shared index out of range.
    pub fn run(&self, specs: &[SessionSpec]) -> Vec<SessionOutcome> {
        if specs.is_empty() {
            return Vec::new();
        }
        for spec in specs {
            self.validate(spec);
        }
        let shards = self.config.shards.clamp(1, specs.len());
        let workers = resolve_workers(self.config.threads, shards);
        metric_gauge!("engine.sessions_active").set(specs.len() as f64);
        let mut out: Vec<Option<SessionOutcome>> = Vec::new();
        out.resize_with(specs.len(), || None);
        if workers <= 1 {
            for shard in 0..shards {
                for (i, o) in self.run_shard(specs, shard, shards) {
                    out[i] = Some(o);
                }
            }
        } else {
            let results: Vec<Vec<(usize, SessionOutcome)>> = std::thread::scope(|scope| {
                let handles: Vec<_> = (0..workers)
                    .map(|w| {
                        scope.spawn(move || {
                            let mut res = Vec::new();
                            let mut shard = w;
                            while shard < shards {
                                res.extend(self.run_shard(specs, shard, shards));
                                shard += workers;
                            }
                            res
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("engine worker panicked"))
                    .collect()
            });
            for res in results {
                for (i, o) in res {
                    out[i] = Some(o);
                }
            }
        }
        metric_gauge!("engine.sessions_active").set(0.0);
        out.into_iter()
            .map(|o| o.expect("every session finalized"))
            .collect()
    }

    /// Drives shard `shard`'s sessions (spec indices `≡ shard mod shards`)
    /// to completion on one shared medium with one pooled scratch set.
    fn run_shard(
        &self,
        specs: &[SessionSpec],
        shard: usize,
        shards: usize,
    ) -> Vec<(usize, SessionOutcome)> {
        let params = self.params;
        let wire = WireConfig::from_params(params);
        let tau = params.tau;
        let chip_rate = params.chip_rate;
        let n = params.n_chips;
        let max_attempts = self.config.retry.max_attempts.max(1);
        let retry = &self.config.retry;

        let orig: Vec<usize> = (shard..specs.len()).step_by(shards).collect();
        let mut slots: Vec<Slot> = orig
            .iter()
            .map(|&i| Slot::new(&specs[i], self.pool))
            .collect();
        let mut stage: Vec<SessStage> = vec![SessStage::Hello; slots.len()];
        let mut active = slots.len();

        // Shard-pooled machinery: one medium, one codec, one session-code
        // cache, one scratch set for every session of the shard.
        let mut medium = LinkMedium::new((shard as u64) ^ MEDIUM_SALT, None);
        let mut codec = FrameCodec::new(params.mu).expect("mu validated");
        let mut cache = SessionCodeCache::new(1024);
        let mut bank = MultiCorrelator::new(&[]);
        let mut a_refs: Vec<&SpreadCode> = Vec::new();
        let mut hello_coded: Vec<bool> = Vec::new();
        let mut garbage: Vec<bool> = Vec::new();
        let mut decoded: Vec<bool> = Vec::new();
        let mut coded_buf: Vec<bool> = Vec::new();
        let mut hello_decoded: Vec<bool> = Vec::new();
        // Packed-path HELLO staging: the frame is rendered through the
        // codec's pooled wire scratch into this shard-pooled buffer, so a
        // warm packed pass allocates nothing per session.
        let mut hello_frame_buf: Vec<bool> = Vec::new();
        let format = self.config.format;
        let mut frame = Frame {
            bits: Vec::new(),
            erased: Vec::new(),
        };
        let mut scan_scratch = ScanScratch::new();
        let mut window: Vec<i32> = Vec::new();
        let mut prefix = PrefixSums::new();
        let mut due: Vec<usize> = Vec::new();

        while active > 0 {
            metric_counter!("engine.ticks").inc();

            // ---- Phase A: every Hello-due session broadcasts, renders its
            // own window, and scans it. ----
            due.clear();
            due.extend((0..slots.len()).filter(|&i| stage[i] == SessStage::Hello));
            for &i in &due {
                let s = &mut slots[i];
                s.attempt += 1;
                s.backoff_s += retry.backoff_delay(s.attempt, &mut s.backoff_rng);
                metric_counter!("retry.attempts").inc();
                s.attempt_seed = s.leg_seed ^ u64::from(s.attempt - 1).wrapping_mul(ATTEMPT_SALT);
                s.rng = SimRng::seed_from_u64(s.attempt_seed);
                let initiator = Initiator::new_with_format(
                    self.authority.issue(NodeId(1)),
                    wire,
                    format,
                    n,
                    &mut s.rng,
                );
                let responder = Responder::new_with_format(
                    self.authority.issue(NodeId(2)),
                    wire,
                    format,
                    n,
                    256,
                    &mut s.rng,
                );
                let hello_bits_len = match format {
                    WireFormat::Legacy => {
                        let hello_bits = initiator.hello_frame();
                        codec
                            .encode_into(&hello_bits, &mut hello_coded)
                            .expect("non-empty");
                        hello_bits.len()
                    }
                    WireFormat::Packed => {
                        // Every engine session speaks as NodeId(1), so the
                        // packed HELLO is one shared frame rendered through
                        // the codec's pooled wire scratch — no per-session
                        // Vec, no allocation when warm.
                        codec
                            .hello_packed(
                                &wire,
                                MessageKind::Hello,
                                NodeId(1),
                                &mut hello_frame_buf,
                            )
                            .expect("own id fits");
                        codec
                            .encode_into(&hello_frame_buf, &mut hello_coded)
                            .expect("non-empty");
                        hello_frame_buf.len()
                    }
                };
                s.initiator = Some(initiator);
                s.responder = Some(responder);
                a_refs.clear();
                a_refs.extend(s.a_idx.iter().map(|&k| &self.pool[k]));
                let base = medium.cursor;
                let span = hello_coded.len() * n * a_refs.len();
                transmit_hello(
                    &mut medium.channel,
                    base,
                    &hello_coded,
                    &a_refs,
                    s.jammer.as_ref(),
                    chip_rate,
                    &mut s.rng,
                    &mut garbage,
                );
                medium.channel.render_into(&mut window, base, span);
                // The window is consumed by the scan below: retire it.
                medium.advance(span as u64);
                bank.assign(s.b_idx.iter().map(|&k| &self.pool[k]));
                let mut scanner = bank.scanner_with(&window, &mut prefix);
                let (confirm, sc, sr) = scan_hello(
                    &mut scanner,
                    s.shared_b,
                    hello_coded.len(),
                    hello_bits_len,
                    tau,
                    &mut codec,
                    s.responder.as_mut().expect("fresh attempt"),
                    &mut hello_decoded,
                    &mut frame,
                    &mut scan_scratch,
                );
                s.scan_correlations = sc;
                s.sync_retries = sr;
                match confirm {
                    Some(c) => {
                        s.pending = c;
                        stage[i] = SessStage::Confirm;
                    }
                    None => fail_attempt(
                        s,
                        &mut stage[i],
                        &specs[orig[i]],
                        max_attempts,
                        Stage::NoHello,
                        &mut active,
                    ),
                }
            }

            // ---- Phase B: one message exchange per in-flight session. ----
            due.clear();
            due.extend((0..slots.len()).filter(|&i| {
                matches!(
                    stage[i],
                    SessStage::Confirm | SessStage::AuthA | SessStage::AuthB
                )
            }));
            for &i in &due {
                let s = &mut slots[i];
                let (msg_index, salt) = match stage[i] {
                    SessStage::Confirm => (1usize, 0x2222u64),
                    SessStage::AuthA => (2, 0x3333),
                    SessStage::AuthB => (3, 0x4444),
                    _ => unreachable!("phase B only sees in-flight stages"),
                };
                let code = &self.pool[s.b_idx[s.shared_b]];
                let ok = transmit_and_receive(
                    &s.pending,
                    code,
                    &mut codec,
                    &mut coded_buf,
                    s.jammer.as_ref(),
                    msg_index,
                    tau,
                    chip_rate,
                    s.attempt_seed ^ salt,
                    Some(&mut medium),
                    &mut s.rng,
                    &mut garbage,
                    &mut decoded,
                );
                match stage[i] {
                    SessStage::Confirm => {
                        let next = ok
                            .then(|| {
                                s.initiator
                                    .as_mut()
                                    .expect("set at HELLO")
                                    .on_confirm(&decoded, CodeId(s.shared_b as u32))
                                    .ok()
                            })
                            .flatten();
                        match next {
                            Some(auth_a) => {
                                s.pending = auth_a;
                                stage[i] = SessStage::AuthA;
                            }
                            None => fail_attempt(
                                s,
                                &mut stage[i],
                                &specs[orig[i]],
                                max_attempts,
                                Stage::NoConfirm,
                                &mut active,
                            ),
                        }
                    }
                    SessStage::AuthA => {
                        let next = ok
                            .then(|| {
                                s.responder
                                    .as_mut()
                                    .expect("set at HELLO")
                                    .on_auth_a_cached(&decoded, &mut cache)
                                    .ok()
                            })
                            .flatten();
                        match next {
                            Some((auth_b, est_b)) => {
                                s.pending = auth_b;
                                s.est_b = Some(est_b);
                                stage[i] = SessStage::AuthB;
                            }
                            None => fail_attempt(
                                s,
                                &mut stage[i],
                                &specs[orig[i]],
                                max_attempts,
                                Stage::AuthAFailed,
                                &mut active,
                            ),
                        }
                    }
                    SessStage::AuthB => {
                        let next = ok
                            .then(|| {
                                s.initiator
                                    .as_mut()
                                    .expect("set at HELLO")
                                    .on_auth_b_cached(&decoded, &mut cache)
                                    .ok()
                            })
                            .flatten();
                        match next {
                            Some(est_a) => {
                                let discovered = est_a.session_code
                                    == s.est_b.as_ref().expect("set at AUTH_A").session_code;
                                if discovered {
                                    metric_counter!("engine.handshakes_completed").inc();
                                    let report = HandshakeReport {
                                        discovered: true,
                                        stage: Stage::Complete,
                                        scan_correlations: s.scan_correlations,
                                        sync_retries: s.sync_retries,
                                    };
                                    finalize_leg(
                                        s,
                                        &mut stage[i],
                                        &specs[orig[i]],
                                        report,
                                        &mut active,
                                    );
                                } else {
                                    // Completed but session codes disagree:
                                    // a failed attempt, like the resilient
                                    // driver treats it.
                                    fail_attempt(
                                        s,
                                        &mut stage[i],
                                        &specs[orig[i]],
                                        max_attempts,
                                        Stage::Complete,
                                        &mut active,
                                    );
                                }
                            }
                            None => fail_attempt(
                                s,
                                &mut stage[i],
                                &specs[orig[i]],
                                max_attempts,
                                Stage::AuthBFailed,
                                &mut active,
                            ),
                        }
                    }
                    _ => unreachable!("phase B only sees in-flight stages"),
                }
            }
        }

        orig.into_iter()
            .zip(slots)
            .map(|(i, s)| (i, s.outcome.expect("inactive shard session finalized")))
            .collect()
    }
}

/// The sequential oracle: every session run one at a time through
/// [`run_handshake_resilient`](crate::chiplink::run_handshake_resilient),
/// with the same seed derivations and the same leg-merge rule as the
/// engine. The equivalence tests assert the engine's outputs are
/// byte-identical to this at every session mix.
pub mod reference {
    use super::*;

    #[allow(clippy::too_many_arguments)]
    fn run_leg(
        params: &Params,
        authority: &Authority,
        pool: &[SpreadCode],
        retry: &RetryPolicy,
        a_idx: &[usize],
        b_idx: &[usize],
        shared_a: usize,
        shared_b: usize,
        jam: Option<&JamSpec>,
        seed: u64,
        codec: &mut FrameCodec,
        cache: &mut SessionCodeCache,
        format: WireFormat,
    ) -> SessionOutcome {
        let a: Vec<SpreadCode> = a_idx.iter().map(|&k| pool[k].clone()).collect();
        let b: Vec<SpreadCode> = b_idx.iter().map(|&k| pool[k].clone()).collect();
        let jammer = jam.map(|j| j.instantiate(pool));
        let r = crate::chiplink::run_handshake_resilient_fmt(
            params,
            authority,
            &a,
            &b,
            shared_a,
            shared_b,
            jammer.as_ref(),
            seed,
            codec,
            Some(cache),
            None,
            retry,
            format,
        );
        SessionOutcome {
            report: r.report,
            attempts: r.attempts,
            degraded: r.degraded,
            backoff_s: r.backoff_s,
        }
    }

    /// Runs `specs` sequentially, one resilient handshake per leg,
    /// returning outcomes in spec order.
    pub fn run_sessions(
        params: &Params,
        authority: &Authority,
        pool: &[SpreadCode],
        retry: &RetryPolicy,
        specs: &[SessionSpec],
    ) -> Vec<SessionOutcome> {
        run_sessions_fmt(params, authority, pool, retry, specs, WireFormat::Legacy)
    }

    /// [`run_sessions`] with an explicit [`WireFormat`] — the sequential
    /// oracle for format-parameterised engine runs.
    pub fn run_sessions_fmt(
        params: &Params,
        authority: &Authority,
        pool: &[SpreadCode],
        retry: &RetryPolicy,
        specs: &[SessionSpec],
        format: WireFormat,
    ) -> Vec<SessionOutcome> {
        let mut codec = FrameCodec::new(params.mu).expect("mu validated");
        let mut cache = SessionCodeCache::new(1024);
        specs
            .iter()
            .map(|spec| {
                let (b1, sb1): (&[usize], usize) = match &spec.kind {
                    SessionKind::Direct => (&spec.b_codes, spec.shared_b),
                    SessionKind::MultiHop {
                        relay_a_codes,
                        relay_shared_a,
                        ..
                    } => (relay_a_codes, *relay_shared_a),
                };
                let leg1 = run_leg(
                    params,
                    authority,
                    pool,
                    retry,
                    &spec.a_codes,
                    b1,
                    spec.shared_a,
                    sb1,
                    spec.jammer.as_ref(),
                    spec.seed,
                    &mut codec,
                    &mut cache,
                    format,
                );
                match &spec.kind {
                    SessionKind::Direct => leg1,
                    SessionKind::MultiHop {
                        relay_b_codes,
                        relay_shared_b,
                        ..
                    } => {
                        if leg1.degraded {
                            leg1
                        } else {
                            let leg2 = run_leg(
                                params,
                                authority,
                                pool,
                                retry,
                                relay_b_codes,
                                &spec.b_codes,
                                *relay_shared_b,
                                spec.shared_b,
                                None,
                                spec.seed ^ MNDP_LEG2_SALT,
                                &mut codec,
                                &mut cache,
                                format,
                            );
                            super::merge_mndp_legs(leg1, leg2)
                        }
                    }
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;

    fn chip_params() -> Params {
        let mut p = Params::table1();
        p.n_chips = 256;
        p.tau = 0.30;
        p
    }

    fn pool(seed: u64, count: usize, n: usize) -> Vec<SpreadCode> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..count)
            .map(|_| SpreadCode::random(n, &mut rng))
            .collect()
    }

    /// A small mixed workload: clean direct, tail-jammed direct, fully
    /// jammed direct (fails), and a clean multi-hop session.
    fn mixed_specs() -> Vec<SessionSpec> {
        vec![
            SessionSpec {
                a_codes: vec![0, 1, 2],
                b_codes: vec![3, 1, 4],
                shared_a: 1,
                shared_b: 1,
                jammer: None,
                seed: 901,
                kind: SessionKind::Direct,
            },
            SessionSpec {
                a_codes: vec![5, 2],
                b_codes: vec![2, 6],
                shared_a: 1,
                shared_b: 0,
                jammer: Some(JamSpec {
                    code: 2,
                    fraction: 0.20,
                    amplitude: 1,
                    first_message: 0,
                }),
                seed: 902,
                kind: SessionKind::Direct,
            },
            SessionSpec {
                a_codes: vec![0, 3],
                b_codes: vec![3, 7],
                shared_a: 1,
                shared_b: 0,
                jammer: Some(JamSpec {
                    code: 3,
                    fraction: 1.0,
                    amplitude: 3,
                    first_message: 0,
                }),
                seed: 903,
                kind: SessionKind::Direct,
            },
            SessionSpec {
                a_codes: vec![0, 1],
                b_codes: vec![6, 7],
                shared_a: 0,
                shared_b: 1,
                jammer: None,
                seed: 904,
                kind: SessionKind::MultiHop {
                    relay_a_codes: vec![4, 0],
                    relay_b_codes: vec![7, 5],
                    relay_shared_a: 1,
                    relay_shared_b: 0,
                },
            },
        ]
    }

    #[test]
    fn engine_matches_the_sequential_reference_on_a_mixed_workload() {
        let params = chip_params();
        let authority = Authority::from_seed(b"engine");
        let pool = pool(11, 8, params.n_chips);
        let specs = mixed_specs();
        for retry in [RetryPolicy::none(), RetryPolicy::budgeted(2)] {
            let config = EngineConfig {
                shards: 3,
                retry,
                threads: Some(1),
                format: WireFormat::Legacy,
            };
            let engine = BatchEngine::new(&params, &authority, &pool, config);
            let got = engine.run(&specs);
            let want = reference::run_sessions(&params, &authority, &pool, &retry, &specs);
            assert_eq!(got, want, "retry = {retry:?}");
            assert!(got[0].report.discovered, "clean direct session discovers");
            assert!(got[1].report.discovered, "20% tail jam is absorbed");
            assert!(!got[2].report.discovered, "full same-code jam kills it");
            assert!(got[3].report.discovered, "both M-NDP legs complete");
            assert_eq!(got[3].attempts, 2, "one attempt per M-NDP leg");
        }
    }

    #[test]
    fn packed_engine_matches_the_packed_sequential_reference() {
        let params = chip_params();
        let authority = Authority::from_seed(b"engine");
        let pool = pool(11, 8, params.n_chips);
        let specs = mixed_specs();
        let retry = RetryPolicy::budgeted(1);
        let config = EngineConfig {
            shards: 3,
            retry,
            threads: Some(1),
            format: WireFormat::Packed,
        };
        let engine = BatchEngine::new(&params, &authority, &pool, config);
        let got = engine.run(&specs);
        let want = reference::run_sessions_fmt(
            &params,
            &authority,
            &pool,
            &retry,
            &specs,
            WireFormat::Packed,
        );
        assert_eq!(got, want, "packed engine == packed sequential oracle");
        assert!(got[0].report.discovered, "clean packed session discovers");
        assert!(
            !got[2].report.discovered,
            "full same-code jam still kills it"
        );
        assert!(got[3].report.discovered, "packed M-NDP legs complete");
        // Airtime win: the packed HELLO round scans strictly fewer chips.
        let legacy = reference::run_sessions(&params, &authority, &pool, &retry, &specs);
        assert!(
            got[0].report.scan_correlations < legacy[0].report.scan_correlations,
            "packed {} vs legacy {} scan correlations",
            got[0].report.scan_correlations,
            legacy[0].report.scan_correlations
        );
    }

    #[test]
    fn outcomes_are_invariant_under_worker_and_shard_count() {
        let params = chip_params();
        let authority = Authority::from_seed(b"engine");
        let pool = pool(11, 8, params.n_chips);
        let specs = mixed_specs();
        let run = |threads: usize, shards: usize| {
            let config = EngineConfig {
                shards,
                retry: RetryPolicy::budgeted(1),
                threads: Some(threads),
                format: WireFormat::Legacy,
            };
            BatchEngine::new(&params, &authority, &pool, config).run(&specs)
        };
        let baseline = run(1, 1);
        for (threads, shards) in [(1, 16), (2, 4), (4, 2), (3, 3)] {
            assert_eq!(
                run(threads, shards),
                baseline,
                "threads={threads} shards={shards}"
            );
        }
    }

    #[test]
    fn engine_with_no_retries_reproduces_the_one_shot_driver() {
        use crate::chiplink::run_handshake_cached;
        let params = chip_params();
        let authority = Authority::from_seed(b"engine");
        let pool = pool(11, 8, params.n_chips);
        let spec = &mixed_specs()[0];
        let engine = BatchEngine::new(
            &params,
            &authority,
            &pool,
            EngineConfig {
                threads: Some(1),
                ..EngineConfig::default()
            },
        );
        let got = &engine.run(std::slice::from_ref(spec))[0];
        let a: Vec<SpreadCode> = spec.a_codes.iter().map(|&k| pool[k].clone()).collect();
        let b: Vec<SpreadCode> = spec.b_codes.iter().map(|&k| pool[k].clone()).collect();
        let mut codec = FrameCodec::new(params.mu).unwrap();
        let mut cache = SessionCodeCache::new(16);
        let legacy = run_handshake_cached(
            &params,
            &authority,
            &a,
            &b,
            spec.shared_a,
            spec.shared_b,
            None,
            spec.seed,
            &mut codec,
            &mut cache,
        );
        assert_eq!(got.report, legacy);
        assert_eq!(got.attempts, 1);
        assert!(!got.degraded);
        assert_eq!(got.backoff_s, 0.0);
    }
}
