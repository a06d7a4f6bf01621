//! The complete D-NDP handshake executed at chip level.
//!
//! This module glues every substrate together exactly as Section V-B
//! describes: wire-framed messages (`wire`), (1+μ)-expansion ECC
//! (`jrsnd_ecc`), spreading and sliding-window synchronization
//! (`jrsnd_dsss`), a shared chip medium with an optional same-code jammer,
//! and the IBC mutual authentication plus session-code derivation
//! (`jrsnd_crypto`). The Monte-Carlo driver abstracts these steps into
//! per-message jam probabilities; this path validates that abstraction on
//! real chips.
//!
//! [`SessionDriver`] is the one place that runs the handshake. It owns
//! the pooled scratch (ECC codec, session-code cache, correlator bank,
//! HELLO receive buffers and bit buffers), the two endpoints' key rings
//! and the seed salts, and runs on a caller's `LinkMedium`:
//!
//! * an **attempt**: the HELLO broadcast on each of A's codes, B's
//!   sliding-window scan of that window over ℂ_B, then CONFIRM, AUTH_A
//!   and AUTH_B on the shared code;
//! * a **leg**: the retry/backoff loop, re-keying every attempt;
//! * a **session** of the batch engine: leg 1, the M-NDP relay leg, and
//!   their merge.
//!
//! [`run_handshake`], [`crate::engine::BatchEngine::run`] and the engine's
//! sequential oracle are thin callers of it.
//!
//! B's HELLO receive ([`scan_window`]) pays only for what it scans. The
//! window stays on the medium: it is rendered and held as bit planes a
//! segment at a time, only as far as the scan, its refinement and its
//! confirm window reach ([`MultiCorrelator::scanner_on_air`]). Each sync
//! candidate is decoded straight off the medium's transmissions, like
//! messages 2–4, and a candidate one bit period after the last one
//! decoded on the same code reuses that frame's last `n − 1` decisions,
//! computing one new bit. Under a same-code jam, where every bit boundary
//! is a candidate, each decode is one correlation.

use crate::engine::{SessionKind, SessionOutcome, SessionSpec};
use crate::handshake::{Initiator, Responder};
use crate::messages::{FrameCodec, MessageKind, WireConfig};
use crate::params::Params;
use crate::wire::WireFormat;
use jrsnd_crypto::ibc::{Authority, KeyRing, NodeId};
use jrsnd_crypto::session::SessionCodeCache;
use jrsnd_dsss::channel::ChipChannel;
use jrsnd_dsss::code::{CodeId, SpreadCode};
use jrsnd_dsss::correlate::MultiCorrelator;
use jrsnd_dsss::spread::{despread_from_channel_into, spread};
use jrsnd_dsss::sync::{scan_window, Frame, WindowScratch};
use jrsnd_sim::faults::FaultInjector;
use jrsnd_sim::retry::RetryPolicy;
use jrsnd_sim::rng::SimRng;
use jrsnd_sim::{metric_counter, metric_histogram};
use rand::{Rng, SeedableRng};

/// Attempt re-keying increment: attempt `k` of a leg seeded `s` runs on
/// `s ^ (k − 1)·ATTEMPT_SALT`, so the first attempt uses the leg seed.
const ATTEMPT_SALT: u64 = 0x9E37_79B9_7F4A_7C15;
/// Backoff-jitter stream of a leg: `leg seed ^ BACKOFF_SALT`.
const BACKOFF_SALT: u64 = 0xBACC_0FF5;
/// Medium seed salt. The medium is noiseless, so its seed only keys the
/// fault stream.
const MEDIUM_SALT: u64 = 0x1111;
/// Separates an M-NDP session's relay → B leg from its first leg, so the
/// two legs draw independent nonces and jitter.
const MNDP_LEG2_SALT: u64 = 0x6D6E_6470_0002;
/// Replay-window size of B's responder.
const REPLAY_WINDOW: usize = 256;
/// Session codes one driver's cache holds.
const CACHE_CAPACITY: usize = 1024;

/// How the chip-level jammer behaves during the handshake.
#[derive(Debug, Clone)]
pub struct ChipJammer {
    /// The code the jammer transmits with (jamming only works if it equals
    /// the code actually in use).
    pub code: SpreadCode,
    /// Fraction of each message (from the tail) it covers, in `[0, 1]`.
    pub fraction: f64,
    /// Transmit amplitude relative to legitimate nodes; nonzero.
    pub amplitude: i32,
    /// First handshake message to attack (0 = HELLO, 1 = CONFIRM,
    /// 2 = AUTH_A, 3 = AUTH_B) — `> 0` is the Section V-B "intelligent
    /// attack" that spares the HELLO and targets the tail of the
    /// handshake. Messages before this index are left untouched.
    pub first_message: usize,
}

impl ChipJammer {
    /// A jammer attacking every message from the HELLO onwards.
    pub fn from_start(code: SpreadCode, fraction: f64, amplitude: i32) -> Self {
        ChipJammer {
            code,
            fraction,
            amplitude,
            first_message: 0,
        }
    }

    fn attacks(&self, message_index: usize) -> bool {
        message_index >= self.first_message
    }
}

/// Checks a jammer's tail `fraction` and `amplitude`; the driver and the
/// batch engine both validate through it.
///
/// # Panics
///
/// Panics unless `0.0 <= fraction <= 1.0` (so a NaN fraction panics) and
/// `amplitude != 0`.
pub(crate) fn check_jam(fraction: f64, amplitude: i32) {
    assert!(
        (0.0..=1.0).contains(&fraction),
        "jammer fraction {fraction} is outside [0, 1]"
    );
    assert!(amplitude != 0, "jammer amplitude must be nonzero");
}

/// The result of one chip-level D-NDP handshake.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HandshakeReport {
    /// Whether both sides authenticated and derived equal session codes.
    pub discovered: bool,
    /// Which stage the handshake reached.
    pub stage: Stage,
    /// Correlations evaluated by B's initial sliding-window scan.
    pub scan_correlations: u64,
    /// Sync candidates B discarded (noise syncs or jammed frames) before
    /// it either recovered a HELLO or gave up.
    pub sync_retries: u64,
}

/// Handshake progress marker.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Stage {
    /// B never recovered a HELLO.
    NoHello,
    /// A never recovered B's CONFIRM.
    NoConfirm,
    /// B rejected A's authentication message.
    AuthAFailed,
    /// A rejected B's authentication message.
    AuthBFailed,
    /// Completed; session codes match.
    Complete,
}

/// A persistent chip medium: every message of every attempt (and, in the
/// batch engine, of every session of a shard) lands on it at the advancing
/// cursor, and [`LinkMedium::advance`] retires transmissions that ended
/// before the new watermark, so the channel's transmission list stays
/// bounded however long it runs. The channel is noiseless, so a window
/// holding one session's transmissions renders the same at any cursor.
pub(crate) struct LinkMedium {
    channel: ChipChannel,
    /// Next free absolute chip index.
    cursor: u64,
}

impl LinkMedium {
    /// A fresh medium keyed by `seed`. With `faults`, every transmission
    /// on it may be dropped, truncated, burst-corrupted or delayed; the
    /// fault stream is keyed by the seed, so two media under one injector
    /// draw independent faults.
    pub(crate) fn new(seed: u64, faults: Option<&FaultInjector>) -> Self {
        let seed = seed ^ MEDIUM_SALT;
        let channel = ChipChannel::new(seed);
        let channel = match faults {
            Some(inj) => channel.with_faults(*inj, seed),
            None => channel,
        };
        LinkMedium { channel, cursor: 0 }
    }

    /// Moves the cursor past a just-received message window and retires
    /// everything that can no longer be heard.
    fn advance(&mut self, msg_chips: u64) {
        self.cursor += msg_chips;
        let retired = self.channel.retire_before(self.cursor);
        metric_counter!("chiplink.transmissions_retired").add(retired as u64);
    }
}

/// The chip-level session driver: one pooled scratch set that runs
/// handshake attempts, retried legs and whole batch-engine sessions.
///
/// The pooled state changes work, never outcomes: every decision is keyed
/// by the attempt seed, so a driver reused across any number of handshakes
/// reports exactly what a fresh driver per handshake does.
///
/// # Examples
///
/// ```
/// use jrsnd::chiplink::{SessionDriver, Stage};
/// use jrsnd::params::Params;
/// use jrsnd::wire::WireFormat;
/// use jrsnd_crypto::ibc::Authority;
/// use jrsnd_dsss::code::SpreadCode;
/// use rand::SeedableRng;
///
/// let mut params = Params::table1();
/// params.n_chips = 256;
/// params.tau = 0.30;
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let shared = SpreadCode::random(256, &mut rng);
/// let a = vec![shared.clone(), SpreadCode::random(256, &mut rng)];
/// let b = vec![SpreadCode::random(256, &mut rng), shared];
/// let authority = Authority::from_seed(b"doc");
/// let mut driver = SessionDriver::new(&params, &authority, WireFormat::Legacy);
/// for seed in 0..2 {
///     let report = driver.handshake(&a, &b, 0, 1, None, seed);
///     assert_eq!(report.stage, Stage::Complete);
/// }
/// ```
pub struct SessionDriver<'a> {
    params: &'a Params,
    /// The key rings of A (`NodeId(1)`) and B (`NodeId(2)`), issued once
    /// and lent to each attempt's endpoints, so the pair key and its HMAC
    /// pads are derived once per driver.
    rings: Option<(KeyRing, KeyRing)>,
    wire: WireConfig,
    format: WireFormat,
    codec: FrameCodec,
    cache: SessionCodeCache,
    /// The current leg's parties: A's codes, B's bank, and the index in
    /// B's bank of the code they share.
    a_codes: Vec<&'a SpreadCode>,
    bank: MultiCorrelator<'a>,
    shared_b: usize,
    /// B's HELLO receive buffers ([`scan_window`]'s scratch), and the
    /// frame messages 2–4 are despread into.
    rx: WindowScratch,
    frame: Frame,
    /// A's HELLO frame, the coded bits on the air, the last decoded
    /// message and the jammer's garbage bits.
    hello: Vec<bool>,
    coded: Vec<bool>,
    decoded: Vec<bool>,
    garbage: Vec<bool>,
}

/// `idx` as codes of `pool`.
fn pick<'a: 'i, 'i>(
    pool: &'a [SpreadCode],
    idx: &'i [usize],
) -> impl Iterator<Item = &'a SpreadCode> + 'i {
    idx.iter().map(move |&k| &pool[k])
}

impl<'a> SessionDriver<'a> {
    /// A driver for `params` (chip rate, threshold, ECC, wire sizes) that
    /// issues the endpoints' keys from `authority`, once, and frames
    /// messages in `format`.
    ///
    /// # Panics
    ///
    /// Panics if `params.mu` is not a valid expansion factor.
    pub fn new(params: &'a Params, authority: &Authority, format: WireFormat) -> Self {
        SessionDriver {
            params,
            rings: Some((
                KeyRing::new(authority.issue(NodeId(1))),
                KeyRing::new(authority.issue(NodeId(2))),
            )),
            wire: WireConfig::from_params(params),
            format,
            codec: FrameCodec::new(params.mu).expect("mu validated"),
            cache: SessionCodeCache::new(CACHE_CAPACITY),
            a_codes: Vec::new(),
            bank: MultiCorrelator::new(&[]),
            shared_b: 0,
            rx: WindowScratch::new(),
            frame: Frame::default(),
            hello: Vec::new(),
            coded: Vec::new(),
            decoded: Vec::new(),
            garbage: Vec::new(),
        }
    }

    /// Runs one four-message D-NDP handshake between A and B on a fresh
    /// medium, with `seed` as the attempt seed.
    ///
    /// `a_codes`/`b_codes` are each party's pre-distributed codes;
    /// `shared_a`/`shared_b` select the code common to both. `jammer` (if
    /// any) attacks every message from its `first_message` on. A
    /// broadcasts one HELLO per code (one D-NDP round); B locates it with
    /// a sliding-window scan across **all** of ℂ_B, exactly as the paper's
    /// receiver does.
    ///
    /// # Panics
    ///
    /// Panics if a code set is empty, a shared index is out of range, or
    /// the jammer's `fraction` is outside `[0, 1]` (NaN included) or its
    /// `amplitude` is zero.
    pub fn handshake(
        &mut self,
        a_codes: &'a [SpreadCode],
        b_codes: &'a [SpreadCode],
        shared_a: usize,
        shared_b: usize,
        jammer: Option<&ChipJammer>,
        seed: u64,
    ) -> HandshakeReport {
        self.bind(a_codes, b_codes, shared_b);
        assert!(shared_a < a_codes.len(), "shared index out of range");
        self.attempt(&mut LinkMedium::new(seed, None), jammer, seed)
    }

    /// Runs one batch-engine session on `medium`, every leg under `retry`:
    /// leg 1 (A against B, or against the relay's A-facing codes, under
    /// the session's jammer), then for M-NDP the relay → B leg without it.
    /// A degraded first leg ends the session.
    pub(crate) fn session(
        &mut self,
        medium: &mut LinkMedium,
        retry: &RetryPolicy,
        pool: &'a [SpreadCode],
        spec: &SessionSpec,
    ) -> SessionOutcome {
        let jammer = spec.jammer.as_ref().map(|j| j.instantiate(pool));
        let (b1, shared_b1) = match &spec.kind {
            SessionKind::Direct => (&spec.b_codes, spec.shared_b),
            SessionKind::MultiHop {
                relay_a_codes,
                relay_shared_a,
                ..
            } => (relay_a_codes, *relay_shared_a),
        };
        self.bind(pick(pool, &spec.a_codes), pick(pool, b1), shared_b1);
        let leg1 = self.leg(medium, retry, jammer.as_ref(), spec.seed);
        match &spec.kind {
            SessionKind::MultiHop { relay_b_codes, .. } if !leg1.degraded => {
                self.bind(
                    pick(pool, relay_b_codes),
                    pick(pool, &spec.b_codes),
                    spec.shared_b,
                );
                let leg2 = self.leg(medium, retry, None, spec.seed ^ MNDP_LEG2_SALT);
                merge_mndp_legs(leg1, leg2)
            }
            _ => leg1,
        }
    }

    /// Runs the bound leg on `medium`: attempts until one discovers or
    /// `retry`'s budget is spent. Every attempt re-keys nonces and jam
    /// garbage from `seed` and first waits the policy's backoff, with
    /// jitter drawn from the leg's own stream. A leg that exhausts its
    /// budget reports `degraded` — a partial outcome, never an abort.
    pub(crate) fn leg(
        &mut self,
        medium: &mut LinkMedium,
        retry: &RetryPolicy,
        jammer: Option<&ChipJammer>,
        seed: u64,
    ) -> SessionOutcome {
        let mut backoff_rng = SimRng::seed_from_u64(seed ^ BACKOFF_SALT);
        let mut backoff_s = 0.0;
        let max_attempts = retry.max_attempts.max(1);
        let mut attempts = 0u32;
        loop {
            attempts += 1;
            backoff_s += retry.backoff_delay(attempts, &mut backoff_rng);
            metric_counter!("retry.attempts").inc();
            let attempt_seed = seed ^ u64::from(attempts - 1).wrapping_mul(ATTEMPT_SALT);
            let report = self.attempt(medium, jammer, attempt_seed);
            let degraded = !report.discovered;
            if degraded {
                // This attempt timed out; the budget decides whether that
                // becomes a retry or a degraded outcome.
                metric_counter!("session.timeouts").inc();
                if attempts < max_attempts {
                    continue;
                }
                metric_counter!("session.degraded").inc();
            }
            return SessionOutcome {
                report,
                attempts,
                degraded,
                backoff_s,
            };
        }
    }

    /// Points the driver at one leg: A transmits on `a_codes`, B listens
    /// on `b_codes`, and they share B's code `shared_b`.
    fn bind(
        &mut self,
        a_codes: impl IntoIterator<Item = &'a SpreadCode>,
        b_codes: impl IntoIterator<Item = &'a SpreadCode>,
        shared_b: usize,
    ) {
        self.a_codes.clear();
        self.a_codes.extend(a_codes);
        self.bank.assign(b_codes);
        assert!(
            !self.a_codes.is_empty() && !self.bank.is_empty(),
            "empty code sets"
        );
        assert!(
            shared_b < self.bank.num_codes(),
            "shared index out of range"
        );
        self.shared_b = shared_b;
    }

    /// One attempt of the bound leg on `medium`: nonces, then jam garbage,
    /// are drawn from `seed` in message order.
    fn attempt(
        &mut self,
        medium: &mut LinkMedium,
        jammer: Option<&ChipJammer>,
        seed: u64,
    ) -> HandshakeReport {
        if let Some(j) = jammer {
            check_jam(j.fraction, j.amplitude);
        }
        let mut rng = SimRng::seed_from_u64(seed);
        let n_chips = self.params.n_chips;
        // The protocol semantics live in the handshake endpoints; the
        // driver is the radio layer around them. The endpoints borrow the
        // driver's key rings for the attempt and hand them back after it.
        let (ring_a, ring_b) = self.rings.take().expect("rings return after every attempt");
        let mut initiator =
            Initiator::new_with_format(ring_a, self.wire, self.format, n_chips, &mut rng);
        let mut responder = Responder::new_with_format(
            ring_b,
            self.wire,
            self.format,
            n_chips,
            REPLAY_WINDOW,
            &mut rng,
        );
        let report = self.messages(medium, jammer, &mut rng, &mut initiator, &mut responder);
        self.rings = Some((initiator.into_keys(), responder.into_keys()));
        report
    }

    /// The attempt's four messages between its endpoints, every draw from
    /// `rng`.
    fn messages(
        &mut self,
        medium: &mut LinkMedium,
        jammer: Option<&ChipJammer>,
        rng: &mut SimRng,
        initiator: &mut Initiator,
        responder: &mut Responder,
    ) -> HandshakeReport {
        // ---- Message 1: A broadcasts {HELLO, ID_A} with each of its codes. ----
        // A always speaks as NodeId(1), so its HELLO renders through the
        // codec's pooled wire scratch into a pooled buffer: no allocation
        // when warm.
        self.codec
            .hello_packed(
                &self.wire,
                self.format,
                MessageKind::Hello,
                NodeId(1),
                &mut self.hello,
            )
            .expect("own id fits");
        self.codec
            .encode_into(&self.hello, &mut self.coded)
            .expect("non-empty");
        let (confirm, scan_correlations, sync_retries) =
            self.hello_round(medium, jammer, rng, responder);
        let failed = |stage| HandshakeReport {
            discovered: false,
            stage,
            scan_correlations,
            sync_retries,
        };
        let Some(confirm) = confirm else {
            return failed(Stage::NoHello);
        };
        let code = CodeId(self.shared_b as u32);

        // ---- Message 2: B -> A {CONFIRM, ID_B} spread with the shared code. ----
        let Some(auth_a) = self
            .exchange(medium, &confirm, 1, jammer, rng)
            .then(|| initiator.on_confirm(&self.decoded, code).ok())
            .flatten()
        else {
            return failed(Stage::NoConfirm);
        };

        // ---- Message 3: A -> B {ID_A, n_A, f_{K_AB}(ID_A | n_A)}. ----
        let Some((auth_b, est_b)) = self
            .exchange(medium, &auth_a, 2, jammer, rng)
            .then(|| {
                responder
                    .on_auth_a_cached(&self.decoded, &mut self.cache)
                    .ok()
            })
            .flatten()
        else {
            return failed(Stage::AuthAFailed);
        };

        // ---- Message 4: B -> A {ID_B, n_B, f_{K_BA}(ID_B | n_B)}. ----
        let Some(est_a) = self
            .exchange(medium, &auth_b, 3, jammer, rng)
            .then(|| {
                initiator
                    .on_auth_b_cached(&self.decoded, &mut self.cache)
                    .ok()
            })
            .flatten()
        else {
            return failed(Stage::AuthBFailed);
        };

        // ---- Both sides hold the session spread code; they must agree. ----
        let discovered = est_a.session_code == est_b.session_code;
        if discovered {
            metric_counter!("chiplink.completed").inc();
        }
        HandshakeReport {
            discovered,
            stage: Stage::Complete,
            scan_correlations,
            sync_retries,
        }
    }

    /// Message 1 on the air and B's receive side. A's coded HELLO (in
    /// `self.coded`) goes out once per code at consecutive message windows,
    /// under the jammer's burst if it attacks the HELLO. B scans the
    /// spanned window as far as it needs to: a noise-induced sync or an
    /// undecodable (jammed) frame must not stop it from finding a later
    /// clean copy in the same buffer. The window is retired once received.
    ///
    /// Returns B's CONFIRM frame (if it recovered a valid HELLO on the
    /// shared code), the correlations evaluated, and the sync candidates
    /// discarded.
    fn hello_round(
        &mut self,
        medium: &mut LinkMedium,
        jammer: Option<&ChipJammer>,
        rng: &mut SimRng,
        responder: &mut Responder,
    ) -> (Option<Vec<bool>>, u64, u64) {
        let n = self.a_codes[0].len();
        let msg_chips = (self.coded.len() * n) as u64;
        let base = medium.cursor;
        for (copy, code) in self.a_codes.iter().enumerate() {
            let start = base + copy as u64 * msg_chips;
            medium.channel.transmit(start, spread(&self.coded, code), 1);
        }
        if let Some(j) = jammer.filter(|j| j.attacks(0)) {
            for copy in 0..self.a_codes.len() {
                let start = base + copy as u64 * msg_chips;
                self.jam_tail(&mut medium.channel, start, n, j, rng);
            }
        }
        let span = msg_chips * self.a_codes.len() as u64;

        let mut scan_correlations = 0u64;
        let mut sync_retries = 0u64;
        let mut confirm = None;
        let (shared_b, hello_len) = (self.shared_b, self.hello.len());
        let (codec, decoded) = (&mut self.codec, &mut self.decoded);
        metric_counter!("chiplink.handshakes").inc();
        scan_window(
            &self.bank,
            &medium.channel,
            (base, span as usize),
            self.coded.len(),
            self.params.tau,
            &mut self.rx,
            |h, frame| {
                scan_correlations += h.correlations_computed;
                let heard = frame.is_some_and(|f| {
                    codec
                        .decode_into(&f.bits, &f.erased, hello_len, decoded)
                        .is_ok()
                });
                if heard && h.code_index == shared_b {
                    if let Ok(c) = responder.on_hello(decoded, CodeId(shared_b as u32)) {
                        confirm = Some(c);
                        return true;
                    }
                }
                sync_retries += 1;
                false
            },
        );
        medium.advance(span);
        metric_counter!("dsss.scan_correlations").add(scan_correlations);
        metric_counter!("dsss.sync_retries").add(sync_retries);
        (confirm, scan_correlations, sync_retries)
    }

    /// Messages 2–4: ECC-encodes `message`, spreads it with the shared
    /// code onto `medium` at its cursor (under the jammer's burst if it
    /// attacks message `index`), and receives it back through the
    /// render-free despread and ECC decoding into `self.decoded`.
    ///
    /// Returns whether the ECC recovered the frame (`self.decoded` holds
    /// garbage on `false`).
    fn exchange(
        &mut self,
        medium: &mut LinkMedium,
        message: &[bool],
        index: usize,
        jammer: Option<&ChipJammer>,
        rng: &mut SimRng,
    ) -> bool {
        self.codec
            .encode_into(message, &mut self.coded)
            .expect("non-empty message");
        let code = self.bank.codes()[self.shared_b];
        let n = code.len();
        let start = medium.cursor;
        medium.channel.transmit(start, spread(&self.coded, code), 1);
        if let Some(j) = jammer.filter(|j| j.attacks(index)) {
            self.jam_tail(&mut medium.channel, start, n, j, rng);
        }
        // The receiver is bit-synchronized to its own frame, so each bit
        // window's correlation is read straight off the transmissions on
        // the medium, with no sample rendered.
        let frame = &mut self.frame;
        let n_bits = self.coded.len();
        despread_from_channel_into(&medium.channel, start, code, n_bits, self.params.tau, frame);
        medium.advance((n_bits * n) as u64);
        let ok = self
            .codec
            .decode_into(&frame.bits, &frame.erased, message.len(), &mut self.decoded)
            .is_ok();
        if ok {
            metric_counter!("dsss.frames_decoded").inc();
        } else {
            metric_counter!("dsss.frames_failed").inc();
        }
        ok
    }

    /// The reactive jammer's burst over the coded message on the air at
    /// chip `start` (`n` chips per bit): garbage drawn from `rng` over the
    /// tail `fraction` of the message, chip-synchronized and aligned to bit
    /// boundaries (the paper grants the jammer chip sync). Accounts the
    /// chips covered and the jammer's reaction latency — how much of the
    /// message it let through before its garbage landed.
    fn jam_tail(
        &mut self,
        channel: &mut ChipChannel,
        start: u64,
        n: usize,
        j: &ChipJammer,
        rng: &mut SimRng,
    ) {
        let len = self.coded.len();
        let jam_bits = ((len as f64) * j.fraction).round() as usize;
        if jam_bits == 0 {
            return;
        }
        let start_bit = len - jam_bits;
        self.garbage.clear();
        self.garbage
            .extend((0..jam_bits).map(|_| rng.gen::<bool>()));
        metric_counter!("jammer.bursts").inc();
        metric_counter!("jammer.chips_jammed").add((jam_bits * n) as u64);
        metric_histogram!("jammer.reaction_latency_s", 0.0, 0.05, 25)
            .record(start_bit as f64 * n as f64 / self.params.chip_rate);
        channel.transmit(
            start + (start_bit * n) as u64,
            spread(&self.garbage, &j.code),
            j.amplitude,
        );
    }
}

/// Merges an M-NDP session's two leg outcomes: discovery requires both,
/// the stage reported is the final leg's, and effort counters sum.
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

/// Runs the full four-message D-NDP handshake between `A` and `B` at chip
/// level: one attempt of a fresh [`SessionDriver`] on a fresh medium, in
/// the legacy wire format.
///
/// `a_codes`/`b_codes` are each party's pre-distributed codes;
/// `shared_index` selects the code common to both (in both slices).
/// `jammer` (if any) attacks every message of the handshake.
///
/// A broadcasts one HELLO per code (one D-NDP round); B locates it with a
/// sliding-window scan across **all** of ℂ_B, exactly as the paper's
/// receiver does.
///
/// # Panics
///
/// Panics if the shared index is out of range, the code sets are empty,
/// or the jammer's `fraction` is outside `[0, 1]` (NaN included) or its
/// `amplitude` is zero.
#[allow(clippy::too_many_arguments)] // the handshake's full cast of characters
pub fn run_handshake(
    params: &Params,
    authority: &Authority,
    a_codes: &[SpreadCode],
    b_codes: &[SpreadCode],
    shared_a: usize,
    shared_b: usize,
    jammer: Option<&ChipJammer>,
    seed: u64,
) -> HandshakeReport {
    SessionDriver::new(params, authority, WireFormat::Legacy)
        .handshake(a_codes, b_codes, shared_a, shared_b, jammer, seed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use jrsnd_dsss::sync::SyncHit;
    use jrsnd_sim::faults::FaultPlan;
    use rand::rngs::StdRng;

    /// A chip-level-friendly parameter set: shorter codes so the scan in a
    /// unit test finishes quickly. The de-spreading threshold must scale
    /// with the code length (tau ~ k/sqrt(N) for a fixed false-sync rate):
    /// the paper's tau = 0.15 is ~3.4 sigma at N = 512; at N = 256 we use
    /// tau = 0.30 (~4.8 sigma) to keep cross-code noise below threshold.
    fn chip_params() -> Params {
        let mut p = Params::table1();
        p.n_chips = 256;
        p.tau = 0.30;
        p
    }

    struct Setup {
        params: Params,
        authority: Authority,
        a_codes: Vec<SpreadCode>,
        b_codes: Vec<SpreadCode>,
    }

    /// A and B hold 3 codes each; index 1 is shared.
    fn setup(seed: u64) -> Setup {
        let params = chip_params();
        let mut rng = StdRng::seed_from_u64(seed);
        let shared = SpreadCode::random(params.n_chips, &mut rng);
        let a_codes = vec![
            SpreadCode::random(params.n_chips, &mut rng),
            shared.clone(),
            SpreadCode::random(params.n_chips, &mut rng),
        ];
        let b_codes = vec![
            SpreadCode::random(params.n_chips, &mut rng),
            shared,
            SpreadCode::random(params.n_chips, &mut rng),
        ];
        Setup {
            params,
            authority: Authority::from_seed(b"chiplink"),
            a_codes,
            b_codes,
        }
    }

    impl Setup {
        fn driver(&self, format: WireFormat) -> SessionDriver<'_> {
            SessionDriver::new(&self.params, &self.authority, format)
        }

        /// One leg between A and B (shared index 1) on `medium`.
        fn leg<'s>(
            &'s self,
            driver: &mut SessionDriver<'s>,
            medium: &mut LinkMedium,
            retry: &RetryPolicy,
            jammer: Option<&ChipJammer>,
            seed: u64,
        ) -> SessionOutcome {
            driver.bind(&self.a_codes, &self.b_codes, 1);
            driver.leg(medium, retry, jammer, seed)
        }

        fn handshake(&self, jammer: Option<&ChipJammer>, seed: u64) -> HandshakeReport {
            run_handshake(
                &self.params,
                &self.authority,
                &self.a_codes,
                &self.b_codes,
                1,
                1,
                jammer,
                seed,
            )
        }
    }

    #[test]
    fn clean_channel_completes_handshake() {
        let s = setup(1);
        let report = s.handshake(None, 99);
        assert_eq!(report.stage, Stage::Complete);
        assert!(report.discovered);
        assert!(report.scan_correlations > 0, "B really scanned the buffer");
    }

    #[test]
    fn reused_driver_reproduces_fresh_drivers() {
        // One driver (and one medium) reused across the four `repro
        // chiplevel` jammer scenarios, then the clean one again so its
        // session code comes from the warm cache, must report exactly what
        // a fresh driver on a fresh medium does per handshake — in both
        // wire formats and under retry budgets {none, 2}. Pooled codec,
        // cache, bank and buffers change work, never outcomes.
        let s = setup(7);
        let wrong = SpreadCode::random(s.params.n_chips, &mut StdRng::seed_from_u64(70));
        let shared = &s.a_codes[1];
        let scenarios = [
            None,
            Some(ChipJammer::from_start(wrong, 1.0, 3)),
            Some(ChipJammer::from_start(shared.clone(), 0.20, 1)),
            Some(ChipJammer::from_start(shared.clone(), 1.0, 3)),
        ];
        // Clean-channel scan work, legacy then packed.
        let mut clean_scan = [0u64; 2];
        for format in [WireFormat::Legacy, WireFormat::Packed] {
            for retry in [RetryPolicy::none(), RetryPolicy::budgeted(2)] {
                let mut reused = s.driver(format);
                let mut medium = LinkMedium::new(1, None);
                let runs = scenarios.iter().enumerate().chain([(0, &None)]);
                for (run, (i, jammer)) in runs.enumerate() {
                    let (jammer, seed) = (jammer.as_ref(), 300 + i as u64);
                    let what = format!("{format:?}, {} attempts, scenario {i}", retry.max_attempts);
                    let mut one_off = s.driver(format);
                    let fresh = s.leg(
                        &mut one_off,
                        &mut LinkMedium::new(seed, None),
                        &retry,
                        jammer,
                        seed,
                    );
                    let cached = reused.cache.len();
                    let got = s.leg(&mut reused, &mut medium, &retry, jammer, seed);
                    assert_eq!(got, fresh, "{what}");
                    // The clean channel discovers at once; the full
                    // same-code jam degrades after the whole budget.
                    if i == 0 {
                        assert!(got.report.discovered && got.attempts == 1, "{what}");
                    }
                    if i == 3 {
                        assert!(got.degraded, "{what}");
                        assert_eq!(got.attempts, retry.max_attempts, "{what}");
                    }
                    if !retry.retries() {
                        // Without retries a leg is one attempt, no backoff.
                        assert_eq!(got.backoff_s, 0.0);
                        let one = reused.handshake(&s.a_codes, &s.b_codes, 1, 1, jammer, seed);
                        assert_eq!(one, got.report, "{what}");
                        if format == WireFormat::Legacy {
                            assert_eq!(s.handshake(jammer, seed), one, "{what}");
                        }
                    }
                    if i == 0 {
                        clean_scan[usize::from(format == WireFormat::Packed)] =
                            got.report.scan_correlations;
                    }
                    // Each attempt whose AUTH_A B accepts inserts one cache
                    // entry, shared by both endpoints, so a one-attempt
                    // leg inserts iff it got past AUTH_A. The reused
                    // driver inserts what a fresh one does on a seed's
                    // first run, and nothing on a repeat: those all hit.
                    if got.attempts == 1 {
                        let past_auth_a = got.report.stage >= Stage::AuthBFailed;
                        assert_eq!(one_off.cache.len(), usize::from(past_auth_a), "{what}");
                    }
                    let inserted = if run == i { one_off.cache.len() } else { 0 };
                    assert_eq!(reused.cache.len(), cached + inserted, "{what}");
                }
            }
        }
        // Shorter frames mean a smaller scan window: the packed HELLO round
        // costs strictly fewer correlations than the legacy one.
        let [legacy, packed] = clean_scan;
        assert!(
            packed < legacy,
            "packed {packed} vs legacy {legacy} scan correlations"
        );
    }

    /// Every candidate the driver's [`scan_window`] reports on the `span`-chip
    /// window of `channel` at `base`, checked against the reference scan
    /// resumed one bit period past each hit and the reference decode, both
    /// on the fully rendered window. Returns how many frames were decoded.
    fn assert_candidates_match_reference(
        driver: &mut SessionDriver<'_>,
        channel: &ChipChannel,
        base: u64,
        span: usize,
        n_bits: usize,
    ) -> usize {
        let tau = driver.params.tau;
        let mut got = Vec::new();
        let window = (base, span);
        scan_window(
            &driver.bank,
            channel,
            window,
            n_bits,
            tau,
            &mut driver.rx,
            |h, f| {
                got.push((*h, f.cloned()));
                false
            },
        );
        let full = channel.render(base, span);
        let codes = driver.bank.codes();
        let n = driver.bank.code_len();
        let mut want = Vec::new();
        let mut pos = 0;
        while pos + n <= span {
            let Some(h) = jrsnd_dsss::sync::reference::scan(&full[pos..], codes, tau) else {
                break;
            };
            let at = pos + h.offset;
            let frame = jrsnd_dsss::sync::reference::decode_frame(
                &full,
                at,
                codes[h.code_index],
                n_bits,
                tau,
            );
            want.push((SyncHit { offset: at, ..h }, frame));
            pos = at + n;
        }
        assert_eq!(got.len(), want.len(), "candidates");
        for ((g, gf), (w, wf)) in got.iter().zip(&want) {
            assert_eq!((g.offset, g.code_index), (w.offset, w.code_index));
            assert_eq!(g.correlation.to_bits(), w.correlation.to_bits());
            assert_eq!(g.correlations_computed, w.correlations_computed);
            assert_eq!(gf, wf, "frame of the candidate at {}", g.offset);
        }
        got.iter().filter(|(_, f)| f.is_some()).count()
    }

    #[test]
    fn hello_candidates_decode_off_the_medium_as_the_reference_does() {
        use jrsnd_dsss::correlate::SEGMENT_CHIPS;
        let s = setup(16);
        let mut driver = s.driver(WireFormat::Legacy);
        driver.bind(&s.a_codes, &s.b_codes, 1);
        let n = s.params.n_chips;
        let n_bits = 42;
        let mut rng = StdRng::seed_from_u64(16);
        let bits = |rng: &mut StdRng| (0..n_bits).map(|_| rng.gen()).collect::<Vec<bool>>();
        let msg_chips = n_bits * n;

        // A fully jammed window: one copy per code of A, each under a
        // same-code jam at amplitude 3, so every bit boundary is a
        // candidate and each decodable one after the first is one new bit.
        let mut jammed = ChipChannel::new(3);
        let base = 5_000u64;
        for (copy, code) in s.a_codes.iter().enumerate() {
            let at = base + (copy * msg_chips) as u64;
            jammed.transmit(at, spread(&bits(&mut rng), code), 1);
            jammed.transmit(at, spread(&bits(&mut rng), &s.a_codes[1]), 3);
        }
        let span = msg_chips * s.a_codes.len();
        let decoded = assert_candidates_match_reference(&mut driver, &jammed, base, span, n_bits);
        assert_eq!(
            decoded,
            span / n - n_bits + 1,
            "every fitting bit boundary decoded"
        );

        // Windows whose first trigger lands within 3N of a segment end, on
        // either side of it: dead air, then two frames on the shared code.
        let first = (3 * n).next_multiple_of(SEGMENT_CHIPS);
        let ends = [first, first + SEGMENT_CHIPS];
        for lead in ends.iter().flat_map(|&end| {
            [
                end - 3 * n,
                end - 2 * n - 1,
                end - n,
                end - n + 1,
                end - 1,
                end,
                end + 1,
            ]
        }) {
            let mut ch = ChipChannel::new(4);
            let base = 777u64;
            ch.transmit(
                base + lead as u64,
                spread(&bits(&mut rng), &s.a_codes[1]),
                1,
            );
            let second = base + (lead + msg_chips) as u64;
            ch.transmit(second, spread(&bits(&mut rng), &s.a_codes[1]), 1);
            let span = lead + 2 * msg_chips + n / 2;
            let decoded = assert_candidates_match_reference(&mut driver, &ch, base, span, n_bits);
            assert!(decoded >= 1, "lead {lead}");
        }
    }

    #[test]
    fn wrong_code_jammer_cannot_stop_discovery() {
        let s = setup(2);
        let mut rng = StdRng::seed_from_u64(5);
        let jammer = ChipJammer::from_start(SpreadCode::random(s.params.n_chips, &mut rng), 1.0, 1);
        let report = s.handshake(Some(&jammer), 100);
        assert!(report.discovered, "stage: {:?}", report.stage);
    }

    #[test]
    fn correct_code_full_jam_kills_handshake() {
        let s = setup(3);
        let jammer = ChipJammer::from_start(s.a_codes[1].clone(), 1.0, 3);
        let report = s.handshake(Some(&jammer), 101);
        assert!(!report.discovered);
    }

    #[test]
    fn sub_threshold_jam_is_absorbed_by_ecc() {
        // Jamming ~20% of each message is well under mu/(1+mu) = 50%; the
        // Reed-Solomon layer must shrug it off.
        let s = setup(4);
        let jammer = ChipJammer::from_start(s.a_codes[1].clone(), 0.20, 1);
        let report = s.handshake(Some(&jammer), 102);
        assert!(report.discovered, "stage: {:?}", report.stage);
    }

    #[test]
    fn intelligent_attack_reaches_each_later_stage() {
        // Sparing early messages and killing from message k on must fail
        // the handshake at exactly stage k.
        let s = setup(6);
        let cases = [
            (1usize, Stage::NoConfirm),
            (2, Stage::AuthAFailed),
            (3, Stage::AuthBFailed),
        ];
        for (first, expected) in cases {
            let jammer = ChipJammer {
                code: s.a_codes[1].clone(),
                fraction: 1.0,
                amplitude: 3,
                first_message: first,
            };
            let report = s.handshake(Some(&jammer), 200 + first as u64);
            assert!(!report.discovered);
            assert_eq!(report.stage, expected, "first_message = {first}");
        }
    }

    #[test]
    fn resilient_retries_recover_from_transient_faults() {
        let s = setup(10);
        let mut driver = s.driver(WireFormat::Legacy);
        let inj = FaultInjector::new(77, FaultPlan::intensity(0.6));
        // Across several session seeds, retries must discover at least one
        // link that the single-attempt run under the same faults loses.
        let mut single_failures = 0u32;
        let mut retried_recoveries = 0u32;
        for seed in 600u64..640 {
            let once = s.leg(
                &mut driver,
                &mut LinkMedium::new(seed, Some(&inj)),
                &RetryPolicy::none(),
                None,
                seed,
            );
            if once.report.discovered {
                continue;
            }
            single_failures += 1;
            let retried = s.leg(
                &mut driver,
                &mut LinkMedium::new(seed, Some(&inj)),
                &RetryPolicy::budgeted(4),
                None,
                seed,
            );
            if retried.report.discovered {
                retried_recoveries += 1;
                assert!(retried.attempts > 1, "recovery must have used a retry");
                assert!(retried.backoff_s > 0.0, "retries wait before reattempting");
                assert!(!retried.degraded);
            }
        }
        assert!(single_failures > 0, "fault plan never disrupted anything");
        assert!(retried_recoveries > 0, "retries never recovered a session");
    }

    #[test]
    fn resilient_faulted_sessions_are_deterministic() {
        let s = setup(11);
        let run = |seed: u64| {
            let inj = FaultInjector::new(5, FaultPlan::intensity(0.7));
            let mut medium = LinkMedium::new(seed, Some(&inj));
            let retry = RetryPolicy::budgeted(3);
            let outcome = s.leg(
                &mut s.driver(WireFormat::Legacy),
                &mut medium,
                &retry,
                None,
                seed,
            );
            (outcome, medium.cursor, medium.channel.transmission_count())
        };
        for seed in [700u64, 701, 702] {
            assert_eq!(run(seed), run(seed), "seed {seed}");
        }
    }

    #[test]
    fn session_channel_memory_stays_bounded_across_retries() {
        let s = setup(12);
        // A full-strength same-code jammer fails every attempt, forcing
        // the driver through its whole (large) retry budget on one
        // persistent channel.
        let jammer = ChipJammer::from_start(s.a_codes[1].clone(), 1.0, 3);
        let retry = RetryPolicy {
            max_attempts: 12,
            ..RetryPolicy::budgeted(11)
        };
        let mut medium = LinkMedium::new(800, None);
        let r = s.leg(
            &mut s.driver(WireFormat::Legacy),
            &mut medium,
            &retry,
            Some(&jammer),
            800,
        );
        assert_eq!(r.attempts, 12);
        assert!(r.degraded);
        // Every finished message window was retired: what survives is at
        // most the last window's transmissions (HELLO copies + jam bursts
        // for each of A's codes), never 12 attempts' worth (~100+).
        let kept = medium.channel.transmission_count();
        let per_window_bound = 2 * s.a_codes.len() + 2;
        assert!(
            kept <= per_window_bound,
            "channel kept {kept} transmissions after retirement (bound {per_window_bound})"
        );
    }

    #[test]
    fn no_shared_code_means_no_hello() {
        let s = setup(5);
        let mut rng = StdRng::seed_from_u64(50);
        // Replace B's copy of the shared code so nothing overlaps.
        let mut b_codes = s.b_codes.clone();
        b_codes[1] = SpreadCode::random(s.params.n_chips, &mut rng);
        let report = run_handshake(
            &s.params,
            &s.authority,
            &s.a_codes,
            &b_codes,
            1,
            1,
            None,
            103,
        );
        assert_eq!(report.stage, Stage::NoHello);
        assert!(!report.discovered);
    }

    fn jammed_handshake(fraction: f64, amplitude: i32) {
        let s = setup(15);
        let jammer = ChipJammer::from_start(s.a_codes[1].clone(), fraction, amplitude);
        s.handshake(Some(&jammer), 104);
    }

    #[test]
    #[should_panic(expected = "outside [0, 1]")]
    fn jammer_fraction_above_one_panics() {
        jammed_handshake(1.5, 1);
    }

    #[test]
    #[should_panic(expected = "outside [0, 1]")]
    fn negative_jammer_fraction_panics() {
        jammed_handshake(-0.5, 1);
    }

    #[test]
    #[should_panic(expected = "outside [0, 1]")]
    fn nan_jammer_fraction_panics() {
        jammed_handshake(f64::NAN, 1);
    }

    #[test]
    #[should_panic(expected = "amplitude must be nonzero")]
    fn zero_jammer_amplitude_panics() {
        jammed_handshake(0.5, 0);
    }
}
