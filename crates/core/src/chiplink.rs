//! The complete D-NDP handshake executed at chip level.
//!
//! This module glues every substrate together exactly as Section V-B
//! describes: wire-framed messages (`messages`), (1+μ)-expansion ECC
//! (`jrsnd_ecc`), spreading and sliding-window synchronization
//! (`jrsnd_dsss`), a shared chip medium with an optional same-code jammer,
//! and the IBC mutual authentication plus session-code derivation
//! (`jrsnd_crypto`). The Monte-Carlo driver abstracts these steps into
//! per-message jam probabilities; this path validates that abstraction on
//! real chips.

use crate::handshake::{Initiator, Responder};
use crate::messages::{FrameCodec, WireConfig};
use crate::params::Params;
use crate::wire::WireFormat;
use jrsnd_crypto::ibc::{Authority, NodeId};
use jrsnd_crypto::session::SessionCodeCache;
use jrsnd_dsss::channel::ChipChannel;
use jrsnd_dsss::code::{CodeId, SpreadCode};
use jrsnd_dsss::correlate::{BankScanner, MultiCorrelator};
use jrsnd_dsss::spread::{despread_from_channel, spread};
use jrsnd_dsss::sync::{decode_frame_into, scan_from_with, Frame, ScanScratch};
use jrsnd_sim::faults::FaultInjector;
use jrsnd_sim::retry::RetryPolicy;
use jrsnd_sim::rng::SimRng;
use jrsnd_sim::{metric_counter, metric_histogram};
use rand::{Rng, SeedableRng};

/// How the chip-level jammer behaves during the handshake.
#[derive(Debug, Clone)]
pub struct ChipJammer {
    /// The code the jammer transmits with (jamming only works if it equals
    /// the code actually in use).
    pub code: SpreadCode,
    /// Fraction of each message (from the tail) it covers.
    pub fraction: f64,
    /// Transmit amplitude relative to legitimate nodes.
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

/// A persistent chip medium carrying one session: every message of the
/// handshake — and every retry attempt — shares this channel at advancing
/// chip offsets, and [`LinkMedium::advance`] retires transmissions that
/// ended before the new watermark so the channel's transmission list
/// stays bounded no matter how long the session runs.
pub(crate) struct LinkMedium {
    pub(crate) channel: ChipChannel,
    /// Next free absolute chip index.
    pub(crate) cursor: u64,
}

impl LinkMedium {
    pub(crate) fn new(seed: u64, faults: Option<&FaultInjector>) -> Self {
        let channel = match faults {
            // The channel's fault stream is keyed by the link seed, so
            // two links under the same injector draw independent faults.
            Some(inj) => ChipChannel::new(seed).with_faults(*inj, seed),
            None => ChipChannel::new(seed),
        };
        LinkMedium { channel, cursor: 0 }
    }

    /// Moves the cursor past a just-finished message window and retires
    /// everything that can no longer be heard.
    pub(crate) fn advance(&mut self, msg_chips: u64) {
        self.cursor += msg_chips;
        let retired = self.channel.retire_before(self.cursor);
        metric_counter!("chiplink.transmissions_retired").add(retired as u64);
    }
}

/// Transmits `coded` spread with `code` at absolute chip `start`, with
/// `jammer` (if any) covering the tail of the transmission, then
/// despreads the window back off the channel through the fused
/// render→despread path.
#[allow(clippy::too_many_arguments)]
fn exchange_on(
    channel: &mut ChipChannel,
    start: u64,
    coded: &[bool],
    code: &SpreadCode,
    jammer: Option<&ChipJammer>,
    message_index: usize,
    tau: f64,
    chip_rate: f64,
    rng: &mut SimRng,
    garbage: &mut Vec<bool>,
) -> (Vec<bool>, Vec<bool>) {
    let n = code.len();
    channel.transmit(start, spread(coded, code), 1);
    if let Some(j) = jammer.filter(|j| j.attacks(message_index)) {
        // Reactive jammer: chip-synchronized garbage over the tail
        // `fraction` of the message, aligned to bit boundaries.
        let jam_bits_count = ((coded.len() as f64) * j.fraction).round() as usize;
        if jam_bits_count > 0 {
            let start_bit = coded.len() - jam_bits_count;
            garbage.clear();
            garbage.extend((0..jam_bits_count).map(|_| rng.gen::<bool>()));
            record_jam(start_bit, jam_bits_count, n, chip_rate);
            channel.transmit(
                start + (start_bit * n) as u64,
                spread(garbage, &j.code),
                j.amplitude,
            );
        }
    }
    // Fused render→despread: the receiver is bit-synchronized to its own
    // frame, so each bit window is rendered straight into the correlator
    // without materialising the full sample vector. Decisions are
    // bit-identical to render-then-`decode_frame`.
    despread_from_channel(channel, start, code, coded.len(), tau)
}

/// Transmits `message_bits` ECC-coded and spread with `code` onto a
/// channel segment — a fresh channel when `medium` is `None` (the legacy
/// one-shot path), or the session's persistent [`LinkMedium`] at its
/// cursor — with `jammer` (if any) covering the tail of the transmission,
/// then receives it back through ECC decoding.
///
/// `coded_buf` is a caller-owned staging buffer for the coded bits, and
/// `garbage` stages any jam bits, both reused across the handshake's
/// messages; the ECC itself runs through `codec`'s shared scratch, so the
/// per-message ECC work is allocation-free.
///
/// Writes the decoded bits into `decoded` and returns whether the ECC
/// recovered the frame (`decoded` holds garbage on `false`).
#[allow(clippy::too_many_arguments)]
pub(crate) fn transmit_and_receive(
    message_bits: &[bool],
    code: &SpreadCode,
    codec: &mut FrameCodec,
    coded_buf: &mut Vec<bool>,
    jammer: Option<&ChipJammer>,
    message_index: usize,
    tau: f64,
    chip_rate: f64,
    noise_seed: u64,
    medium: Option<&mut LinkMedium>,
    rng: &mut SimRng,
    garbage: &mut Vec<bool>,
    decoded: &mut Vec<bool>,
) -> bool {
    codec
        .encode_into(message_bits, coded_buf)
        .expect("non-empty message");
    let n = code.len();
    let (bits, erased) = match medium {
        Some(m) => {
            let start = m.cursor;
            let result = exchange_on(
                &mut m.channel,
                start,
                coded_buf,
                code,
                jammer,
                message_index,
                tau,
                chip_rate,
                rng,
                garbage,
            );
            m.advance((coded_buf.len() * n) as u64);
            result
        }
        None => {
            let mut channel = ChipChannel::new(noise_seed);
            exchange_on(
                &mut channel,
                0,
                coded_buf,
                code,
                jammer,
                message_index,
                tau,
                chip_rate,
                rng,
                garbage,
            )
        }
    };
    let ok = codec
        .decode_into(&bits, &erased, message_bits.len(), decoded)
        .is_ok();
    if ok {
        metric_counter!("dsss.frames_decoded").inc();
    } else {
        metric_counter!("dsss.frames_failed").inc();
    }
    ok
}

/// Broadcasts one HELLO copy per code in `a_codes` at consecutive message
/// windows starting at absolute chip `base`, with `jammer` (if any)
/// covering the tail of every copy. This is message 1 of the handshake,
/// shared verbatim by the one-session driver below and the batch engine;
/// the caller renders the spanned window and scans it with [`scan_hello`].
///
/// `garbage` stages the jam bits (the random draws from `rng` are
/// identical to an unpooled collect).
#[allow(clippy::too_many_arguments)]
pub(crate) fn transmit_hello(
    channel: &mut ChipChannel,
    base: u64,
    hello_coded: &[bool],
    a_codes: &[&SpreadCode],
    jammer: Option<&ChipJammer>,
    chip_rate: f64,
    rng: &mut SimRng,
    garbage: &mut Vec<bool>,
) {
    let n = a_codes[0].len();
    let msg_chips = hello_coded.len() * n;
    let mut offset = base;
    for code in a_codes {
        channel.transmit(offset, spread(hello_coded, code), 1);
        offset += msg_chips as u64;
    }
    if let Some(j) = jammer.filter(|j| j.attacks(0)) {
        // Reactive jammer: covers the tail `fraction` of every HELLO
        // copy, chip-synchronized (the paper grants the jammer chip
        // sync).
        let jam_bits = ((hello_coded.len() as f64) * j.fraction).round() as usize;
        if jam_bits > 0 {
            for copy in 0..a_codes.len() {
                let start_bit = copy * hello_coded.len() + (hello_coded.len() - jam_bits);
                garbage.clear();
                garbage.extend((0..jam_bits).map(|_| rng.gen::<bool>()));
                record_jam(hello_coded.len() - jam_bits, jam_bits, n, chip_rate);
                channel.transmit(
                    base + (start_bit * n) as u64,
                    spread(garbage, &j.code),
                    j.amplitude,
                );
            }
        }
    }
}

/// B's receive side of message 1: the sliding-window scan over its whole
/// rendered buffering window. The receiver keeps scanning past failed
/// candidates — a noise-induced sync or an undecodable (jammed) frame must
/// not stop it from finding a later clean copy in the same buffer.
///
/// Returns B's CONFIRM frame (if a valid HELLO was recovered), the
/// correlations evaluated, and the sync candidates discarded. Shared
/// verbatim by the one-session driver and the batch engine;
/// `hello_decoded`/`frame`/`scan` are caller-pooled scratch with no effect
/// on decisions.
#[allow(clippy::too_many_arguments)]
pub(crate) fn scan_hello(
    scanner: &mut BankScanner<'_, '_>,
    shared_b: usize,
    hello_coded_len: usize,
    hello_bits_len: usize,
    tau: f64,
    codec: &mut FrameCodec,
    responder: &mut Responder,
    hello_decoded: &mut Vec<bool>,
    frame: &mut Frame,
    scan: &mut ScanScratch,
) -> (Option<Vec<bool>>, u64, u64) {
    let n = scanner.bank().code_len();
    let buffer_len = scanner.samples().len();
    let mut scan_correlations = 0u64;
    let mut sync_retries = 0u64;
    let mut confirm_frame: Option<Vec<bool>> = None;
    let mut pos = 0usize;
    metric_counter!("chiplink.handshakes").inc();
    while pos + n <= buffer_len {
        let Some(h) = scan_from_with(scanner, pos, tau, scan) else {
            metric_counter!("dsss.sync_misses").inc();
            break;
        };
        metric_counter!("dsss.sync_hits").inc();
        scan_correlations += h.correlations_computed;
        let abs_offset = h.offset;
        let code = scanner.bank().codes()[h.code_index];
        let decoded = decode_frame_into(
            scanner.samples(),
            abs_offset,
            code,
            hello_coded_len,
            tau,
            frame,
        ) && codec
            .decode_into(&frame.bits, &frame.erased, hello_bits_len, hello_decoded)
            .is_ok();
        if decoded && h.code_index == shared_b {
            if let Ok(confirm) = responder.on_hello(hello_decoded, CodeId(shared_b as u32)) {
                confirm_frame = Some(confirm);
                break;
            }
        }
        // Skip one bit period: the refinement already searched this window.
        sync_retries += 1;
        pos = abs_offset + n;
    }
    metric_counter!("dsss.scan_correlations").add(scan_correlations);
    metric_counter!("dsss.sync_retries").add(sync_retries);
    (confirm_frame, scan_correlations, sync_retries)
}

/// Accounts one jam burst: chips covered, plus the jammer's reaction
/// latency — how much of the message it let through before its garbage
/// landed (`start_bit` bit periods of `n` chips at `chip_rate` chips/s).
fn record_jam(start_bit: usize, jam_bits: usize, n: usize, chip_rate: f64) {
    metric_counter!("jammer.bursts").inc();
    metric_counter!("jammer.chips_jammed").add((jam_bits * n) as u64);
    metric_histogram!("jammer.reaction_latency_s", 0.0, 0.05, 25)
        .record(start_bit as f64 * n as f64 / chip_rate);
}

/// Runs the full four-message D-NDP handshake between `A` and `B` at chip
/// level.
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
/// Panics if the shared index is out of range or the code sets are empty.
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
    let mut codec = FrameCodec::new(params.mu).expect("mu validated");
    run_handshake_with(
        params, authority, a_codes, b_codes, shared_a, shared_b, jammer, seed, &mut codec,
    )
}

/// [`run_handshake`] with a caller-owned [`FrameCodec`], so a driver
/// running many handshakes (the Monte-Carlo `chiplevel` experiment) reuses
/// one set of ECC scratch buffers across all of them. Results are
/// identical to [`run_handshake`] — the codec carries no cross-call state,
/// only capacity.
#[allow(clippy::too_many_arguments)]
pub fn run_handshake_with(
    params: &Params,
    authority: &Authority,
    a_codes: &[SpreadCode],
    b_codes: &[SpreadCode],
    shared_a: usize,
    shared_b: usize,
    jammer: Option<&ChipJammer>,
    seed: u64,
    codec: &mut FrameCodec,
) -> HandshakeReport {
    run_handshake_inner(
        params,
        authority,
        a_codes,
        b_codes,
        shared_a,
        shared_b,
        jammer,
        seed,
        codec,
        None,
        None,
        WireFormat::Legacy,
    )
}

/// [`run_handshake_with`] plus a caller-owned [`SessionCodeCache`]: both
/// endpoints resolve `C_AB` through the cache, so the second endpoint of
/// each pair (and any retry of the same `(key, nonce pair)`) reuses the
/// first derivation instead of recomputing it. Reports are identical to
/// [`run_handshake`] — the cached derivation is byte-identical.
#[allow(clippy::too_many_arguments)]
pub fn run_handshake_cached(
    params: &Params,
    authority: &Authority,
    a_codes: &[SpreadCode],
    b_codes: &[SpreadCode],
    shared_a: usize,
    shared_b: usize,
    jammer: Option<&ChipJammer>,
    seed: u64,
    codec: &mut FrameCodec,
    cache: &mut SessionCodeCache,
) -> HandshakeReport {
    run_handshake_inner(
        params,
        authority,
        a_codes,
        b_codes,
        shared_a,
        shared_b,
        jammer,
        seed,
        codec,
        Some(cache),
        None,
        WireFormat::Legacy,
    )
}

/// [`run_handshake_cached`] with an explicit [`WireFormat`]: `Legacy`
/// reproduces it bit for bit; `Packed` runs the same four messages over
/// the [`crate::wire`] codec — fewer bits per frame, so fewer chips on
/// the air, with identical crypto and RNG draws.
#[allow(clippy::too_many_arguments)]
pub fn run_handshake_cached_fmt(
    params: &Params,
    authority: &Authority,
    a_codes: &[SpreadCode],
    b_codes: &[SpreadCode],
    shared_a: usize,
    shared_b: usize,
    jammer: Option<&ChipJammer>,
    seed: u64,
    codec: &mut FrameCodec,
    cache: &mut SessionCodeCache,
    format: WireFormat,
) -> HandshakeReport {
    run_handshake_inner(
        params,
        authority,
        a_codes,
        b_codes,
        shared_a,
        shared_b,
        jammer,
        seed,
        codec,
        Some(cache),
        None,
        format,
    )
}

/// The result of a [`run_handshake_resilient`] session: the last
/// attempt's [`HandshakeReport`] plus the retry bookkeeping.
#[derive(Debug, Clone, PartialEq)]
pub struct ResilientHandshakeReport {
    /// The final attempt's chip-level report.
    pub report: HandshakeReport,
    /// Attempts actually made (`1..=policy.max_attempts`).
    pub attempts: u32,
    /// Whether the session exhausted its retry budget without
    /// discovering — a partial outcome, never an abort.
    pub degraded: bool,
    /// Total backoff the retries spent waiting, in seconds
    /// (deterministic jitter drawn from the session seed).
    pub backoff_s: f64,
    /// Transmissions still live on the session channel at the end —
    /// bounded by the last message window regardless of how many
    /// attempts ran, because the driver retires every finished window.
    pub channel_transmissions: usize,
}

/// [`run_handshake_cached`] wrapped in a budgeted retry/backoff loop over
/// one persistent, optionally fault-injected session channel.
///
/// Every attempt reruns the full four-message handshake with a fresh
/// attempt seed (fresh nonces) on the *same* [`ChipChannel`], at
/// advancing chip offsets; finished message windows are retired via
/// [`ChipChannel::retire_before`], so channel memory stays bounded for
/// arbitrarily long chaos runs. With `faults = None` and
/// `RetryPolicy::none()` the first attempt is bit-identical to
/// [`run_handshake_cached`] with the same arguments.
///
/// A session that exhausts its budget reports `degraded = true` — the
/// caller records a partial-discovery outcome and carries on.
#[allow(clippy::too_many_arguments)]
pub fn run_handshake_resilient(
    params: &Params,
    authority: &Authority,
    a_codes: &[SpreadCode],
    b_codes: &[SpreadCode],
    shared_a: usize,
    shared_b: usize,
    jammer: Option<&ChipJammer>,
    seed: u64,
    codec: &mut FrameCodec,
    cache: Option<&mut SessionCodeCache>,
    faults: Option<&FaultInjector>,
    retry: &RetryPolicy,
) -> ResilientHandshakeReport {
    run_handshake_resilient_fmt(
        params,
        authority,
        a_codes,
        b_codes,
        shared_a,
        shared_b,
        jammer,
        seed,
        codec,
        cache,
        faults,
        retry,
        WireFormat::Legacy,
    )
}

/// [`run_handshake_resilient`] with an explicit [`WireFormat`] — the
/// retry/backoff/fault machinery is format-agnostic; only the frame bits
/// on the channel change.
#[allow(clippy::too_many_arguments)]
pub fn run_handshake_resilient_fmt(
    params: &Params,
    authority: &Authority,
    a_codes: &[SpreadCode],
    b_codes: &[SpreadCode],
    shared_a: usize,
    shared_b: usize,
    jammer: Option<&ChipJammer>,
    seed: u64,
    codec: &mut FrameCodec,
    mut cache: Option<&mut SessionCodeCache>,
    faults: Option<&FaultInjector>,
    retry: &RetryPolicy,
    format: WireFormat,
) -> ResilientHandshakeReport {
    let mut medium = LinkMedium::new(seed ^ 0x1111, faults);
    let mut backoff_rng = SimRng::seed_from_u64(seed ^ 0xBACC_0FF5);
    let mut backoff_s = 0.0;
    let mut attempts = 0u32;
    let mut report: Option<HandshakeReport> = None;
    for attempt in 1..=retry.max_attempts.max(1) {
        attempts = attempt;
        backoff_s += retry.backoff_delay(attempt, &mut backoff_rng);
        metric_counter!("retry.attempts").inc();
        // Attempt 1 reuses the session seed unchanged so the no-fault,
        // no-retry configuration reproduces the legacy path exactly;
        // later attempts re-key nonces and jam garbage.
        let attempt_seed = seed ^ (u64::from(attempt) - 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let r = run_handshake_inner(
            params,
            authority,
            a_codes,
            b_codes,
            shared_a,
            shared_b,
            jammer,
            attempt_seed,
            codec,
            cache.as_deref_mut(),
            Some(&mut medium),
            format,
        );
        let discovered = r.discovered;
        report = Some(r);
        if discovered {
            break;
        }
        // This attempt's sub-session timed out; the budget decides
        // whether that becomes a retry or a degraded outcome.
        metric_counter!("session.timeouts").inc();
    }
    let report = report.expect("at least one attempt always runs");
    let degraded = !report.discovered;
    if degraded {
        metric_counter!("session.degraded").inc();
    }
    ResilientHandshakeReport {
        report,
        attempts,
        degraded,
        backoff_s,
        channel_transmissions: medium.channel.transmission_count(),
    }
}

#[allow(clippy::too_many_arguments)]
fn run_handshake_inner(
    params: &Params,
    authority: &Authority,
    a_codes: &[SpreadCode],
    b_codes: &[SpreadCode],
    shared_a: usize,
    shared_b: usize,
    jammer: Option<&ChipJammer>,
    seed: u64,
    codec: &mut FrameCodec,
    mut cache: Option<&mut SessionCodeCache>,
    mut medium: Option<&mut LinkMedium>,
    format: WireFormat,
) -> HandshakeReport {
    assert!(
        !a_codes.is_empty() && !b_codes.is_empty(),
        "empty code sets"
    );
    assert!(shared_a < a_codes.len() && shared_b < b_codes.len());
    debug_assert_eq!(codec.code().mu(), params.mu, "codec/params mu mismatch");
    let mut rng = SimRng::seed_from_u64(seed);
    let wire = WireConfig::from_params(params);
    let tau = params.tau;
    let id_a = NodeId(1);
    let id_b = NodeId(2);
    // The protocol semantics live in the handshake endpoints; this
    // function is the radio layer around them.
    let mut initiator = Initiator::new_with_format(
        authority.issue(id_a),
        wire,
        format,
        params.n_chips,
        &mut rng,
    );
    let mut responder = Responder::new_with_format(
        authority.issue(id_b),
        wire,
        format,
        params.n_chips,
        256,
        &mut rng,
    );

    // ---- Message 1: A broadcasts {HELLO, ID_A} with each of its codes. ----
    let hello_bits = initiator.hello_frame();
    let mut hello_coded = Vec::new();
    codec
        .encode_into(&hello_bits, &mut hello_coded)
        .expect("non-empty");
    let n = a_codes[0].len();
    let msg_chips = hello_coded.len() * n;
    // The broadcast lands on the session's persistent medium (resilient
    // path) at its cursor, or on a fresh channel segment at chip 0 (the
    // legacy one-shot path — noiseless, so the two are byte-identical).
    let base = medium.as_deref().map_or(0, |m| m.cursor);
    let mut fresh_channel;
    // One reused sample buffer per link: B's buffering window is rendered
    // into it once, and the bank scanner borrows it for every resumed scan.
    let mut buffer = Vec::new();
    let mut garbage = Vec::new();
    let a_refs: Vec<&SpreadCode> = a_codes.iter().collect();
    {
        let channel: &mut ChipChannel = match medium.as_deref_mut() {
            Some(m) => &mut m.channel,
            None => {
                fresh_channel = ChipChannel::new(seed ^ 0x1111);
                &mut fresh_channel
            }
        };
        transmit_hello(
            channel,
            base,
            &hello_coded,
            &a_refs,
            jammer,
            params.chip_rate,
            &mut rng,
            &mut garbage,
        );
        channel.render_into(&mut buffer, base, msg_chips * a_codes.len());
    }
    if let Some(m) = medium.as_deref_mut() {
        m.advance((msg_chips * a_codes.len()) as u64);
    }
    let b_refs: Vec<&SpreadCode> = b_codes.iter().collect();
    // One code bank and one prefix-sum pass over the buffer serve every
    // resumed scan (the batched kernel in jrsnd_dsss::correlate).
    let bank = MultiCorrelator::new(&b_refs);
    let mut scanner = bank.scanner(&buffer);
    let mut hello_decoded = Vec::new();
    let mut frame = Frame {
        bits: Vec::new(),
        erased: Vec::new(),
    };
    let mut scan_scratch = ScanScratch::new();
    let (confirm_frame, scan_correlations, sync_retries) = scan_hello(
        &mut scanner,
        shared_b,
        hello_coded.len(),
        hello_bits.len(),
        tau,
        codec,
        &mut responder,
        &mut hello_decoded,
        &mut frame,
        &mut scan_scratch,
    );
    let Some(confirm_bits) = confirm_frame else {
        return HandshakeReport {
            discovered: false,
            stage: Stage::NoHello,
            scan_correlations,
            sync_retries,
        };
    };
    let code = &b_codes[shared_b]; // == a_codes[shared_a]
    debug_assert_eq!(code.chips(), a_codes[shared_a].chips());
    // The HELLO's coded-bit buffer is free now; reuse it as the coded
    // staging buffer for the remaining three messages.
    let mut coded_buf = hello_coded;

    // One decoded-bits buffer reused across the remaining three messages.
    let mut decoded = Vec::new();

    // ---- Message 2: B -> A {CONFIRM, ID_B} spread with the shared code. ----
    let auth_a_frame = transmit_and_receive(
        &confirm_bits,
        code,
        codec,
        &mut coded_buf,
        jammer,
        1,
        tau,
        params.chip_rate,
        seed ^ 0x2222,
        medium.as_deref_mut(),
        &mut rng,
        &mut garbage,
        &mut decoded,
    )
    .then(|| initiator.on_confirm(&decoded, CodeId(shared_b as u32)).ok())
    .flatten();
    let Some(auth_a_bits) = auth_a_frame else {
        return HandshakeReport {
            discovered: false,
            stage: Stage::NoConfirm,
            scan_correlations,
            sync_retries,
        };
    };

    // ---- Message 3: A -> B {ID_A, n_A, f_{K_AB}(ID_A | n_A)}. ----
    let auth_b_frame = transmit_and_receive(
        &auth_a_bits,
        code,
        codec,
        &mut coded_buf,
        jammer,
        2,
        tau,
        params.chip_rate,
        seed ^ 0x3333,
        medium.as_deref_mut(),
        &mut rng,
        &mut garbage,
        &mut decoded,
    )
    .then(|| match cache.as_deref_mut() {
        Some(c) => responder.on_auth_a_cached(&decoded, c).ok(),
        None => responder.on_auth_a(&decoded).ok(),
    })
    .flatten();
    let Some((auth_b_bits, est_b)) = auth_b_frame else {
        return HandshakeReport {
            discovered: false,
            stage: Stage::AuthAFailed,
            scan_correlations,
            sync_retries,
        };
    };

    // ---- Message 4: B -> A {ID_B, n_B, f_{K_BA}(ID_B | n_B)}. ----
    let est_a = transmit_and_receive(
        &auth_b_bits,
        code,
        codec,
        &mut coded_buf,
        jammer,
        3,
        tau,
        params.chip_rate,
        seed ^ 0x4444,
        medium,
        &mut rng,
        &mut garbage,
        &mut decoded,
    )
    .then(|| match cache {
        Some(c) => initiator.on_auth_b_cached(&decoded, c).ok(),
        None => initiator.on_auth_b(&decoded).ok(),
    })
    .flatten();
    let Some(est_a) = est_a else {
        return HandshakeReport {
            discovered: false,
            stage: Stage::AuthBFailed,
            scan_correlations,
            sync_retries,
        };
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

#[cfg(test)]
mod tests {
    use super::*;
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

    #[test]
    fn clean_channel_completes_handshake() {
        let s = setup(1);
        let report = run_handshake(
            &s.params,
            &s.authority,
            &s.a_codes,
            &s.b_codes,
            1,
            1,
            None,
            99,
        );
        assert_eq!(report.stage, Stage::Complete);
        assert!(report.discovered);
        assert!(report.scan_correlations > 0, "B really scanned the buffer");
    }

    #[test]
    fn reused_codec_reproduces_fresh_codec_reports() {
        // One FrameCodec threaded through several handshakes (incl. a
        // jammed one) must report exactly what per-handshake codecs do.
        let s = setup(7);
        let jammer = ChipJammer::from_start(s.a_codes[1].clone(), 0.20, 1);
        let mut codec = crate::messages::FrameCodec::new(s.params.mu).unwrap();
        for (seed, jam) in [(301u64, false), (302, true), (303, false)] {
            let j = jam.then_some(&jammer);
            let fresh = run_handshake(
                &s.params,
                &s.authority,
                &s.a_codes,
                &s.b_codes,
                1,
                1,
                j,
                seed,
            );
            let reused = run_handshake_with(
                &s.params,
                &s.authority,
                &s.a_codes,
                &s.b_codes,
                1,
                1,
                j,
                seed,
                &mut codec,
            );
            assert_eq!(fresh, reused, "seed {seed}, jam {jam}");
        }
    }

    #[test]
    fn shared_session_cache_reproduces_fresh_reports() {
        // One SessionCodeCache threaded through several handshakes (incl.
        // a jammed one) must report exactly what the uncached path does:
        // the cache changes work, never outcomes.
        let s = setup(8);
        let jammer = ChipJammer::from_start(s.a_codes[1].clone(), 0.20, 1);
        let mut codec = crate::messages::FrameCodec::new(s.params.mu).unwrap();
        let mut cache = SessionCodeCache::new(32);
        for (seed, jam) in [(401u64, false), (402, true), (401, false)] {
            let j = jam.then_some(&jammer);
            let fresh = run_handshake(
                &s.params,
                &s.authority,
                &s.a_codes,
                &s.b_codes,
                1,
                1,
                j,
                seed,
            );
            let cached = run_handshake_cached(
                &s.params,
                &s.authority,
                &s.a_codes,
                &s.b_codes,
                1,
                1,
                j,
                seed,
                &mut codec,
                &mut cache,
            );
            assert_eq!(fresh, cached, "seed {seed}, jam {jam}");
        }
        // Each completed handshake inserts one pair entry (both endpoints
        // share it); the repeated seed 401 run hit instead of inserting.
        assert!(cache.len() <= 2, "cache kept one entry per distinct pair");
        assert!(
            !cache.is_empty(),
            "completed handshakes populated the cache"
        );
    }

    #[test]
    fn packed_format_completes_and_is_deterministic() {
        let s = setup(13);
        let mut codec = crate::messages::FrameCodec::new(s.params.mu).unwrap();
        let mut cache = SessionCodeCache::new(16);
        let run =
            |codec: &mut crate::messages::FrameCodec, cache: &mut SessionCodeCache, seed: u64| {
                run_handshake_cached_fmt(
                    &s.params,
                    &s.authority,
                    &s.a_codes,
                    &s.b_codes,
                    1,
                    1,
                    None,
                    seed,
                    codec,
                    cache,
                    WireFormat::Packed,
                )
            };
        let r1 = run(&mut codec, &mut cache, 901);
        assert_eq!(r1.stage, Stage::Complete);
        assert!(
            r1.discovered,
            "packed handshake completes on a clean channel"
        );
        let r2 = run(&mut codec, &mut cache, 901);
        assert_eq!(r1, r2, "packed path is deterministic");
        // Shorter frames mean a smaller scan window: the packed HELLO
        // round costs strictly fewer correlations than the legacy one.
        let legacy = run_handshake(
            &s.params,
            &s.authority,
            &s.a_codes,
            &s.b_codes,
            1,
            1,
            None,
            901,
        );
        assert!(legacy.discovered);
        assert!(
            r1.scan_correlations < legacy.scan_correlations,
            "packed {} vs legacy {} scan correlations",
            r1.scan_correlations,
            legacy.scan_correlations
        );
    }

    #[test]
    fn packed_resilient_retries_behave_like_legacy_machinery() {
        use jrsnd_sim::retry::RetryPolicy;
        let s = setup(14);
        let mut codec = crate::messages::FrameCodec::new(s.params.mu).unwrap();
        // A full-strength same-code jammer defeats every attempt in either
        // format; the retry accounting must agree.
        let jammer = ChipJammer::from_start(s.a_codes[1].clone(), 1.0, 3);
        let retry = RetryPolicy::budgeted(3);
        let packed = run_handshake_resilient_fmt(
            &s.params,
            &s.authority,
            &s.a_codes,
            &s.b_codes,
            1,
            1,
            Some(&jammer),
            950,
            &mut codec,
            None,
            None,
            &retry,
            WireFormat::Packed,
        );
        assert!(packed.degraded);
        assert_eq!(packed.attempts, retry.max_attempts);
        // And without the jammer, packed resilient discovery succeeds on
        // the first attempt.
        let clean = run_handshake_resilient_fmt(
            &s.params,
            &s.authority,
            &s.a_codes,
            &s.b_codes,
            1,
            1,
            None,
            951,
            &mut codec,
            None,
            None,
            &retry,
            WireFormat::Packed,
        );
        assert!(clean.report.discovered);
        assert_eq!(clean.attempts, 1);
    }

    #[test]
    fn wrong_code_jammer_cannot_stop_discovery() {
        let s = setup(2);
        let mut rng = StdRng::seed_from_u64(5);
        let jammer = ChipJammer::from_start(SpreadCode::random(s.params.n_chips, &mut rng), 1.0, 1);
        let report = run_handshake(
            &s.params,
            &s.authority,
            &s.a_codes,
            &s.b_codes,
            1,
            1,
            Some(&jammer),
            100,
        );
        assert!(report.discovered, "stage: {:?}", report.stage);
    }

    #[test]
    fn correct_code_full_jam_kills_handshake() {
        let s = setup(3);
        let jammer = ChipJammer::from_start(s.a_codes[1].clone(), 1.0, 3);
        let report = run_handshake(
            &s.params,
            &s.authority,
            &s.a_codes,
            &s.b_codes,
            1,
            1,
            Some(&jammer),
            101,
        );
        assert!(!report.discovered);
    }

    #[test]
    fn sub_threshold_jam_is_absorbed_by_ecc() {
        // Jamming ~20% of each message is well under mu/(1+mu) = 50%; the
        // Reed-Solomon layer must shrug it off.
        let s = setup(4);
        let jammer = ChipJammer::from_start(s.a_codes[1].clone(), 0.20, 1);
        let report = run_handshake(
            &s.params,
            &s.authority,
            &s.a_codes,
            &s.b_codes,
            1,
            1,
            Some(&jammer),
            102,
        );
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
            let report = run_handshake(
                &s.params,
                &s.authority,
                &s.a_codes,
                &s.b_codes,
                1,
                1,
                Some(&jammer),
                200 + first as u64,
            );
            assert!(!report.discovered);
            assert_eq!(report.stage, expected, "first_message = {first}");
        }
    }

    #[test]
    fn resilient_without_faults_or_retries_matches_the_legacy_path() {
        use jrsnd_sim::retry::RetryPolicy;
        let s = setup(9);
        let jammer = ChipJammer::from_start(s.a_codes[1].clone(), 0.20, 1);
        let mut codec = crate::messages::FrameCodec::new(s.params.mu).unwrap();
        for (seed, jam) in [(501u64, false), (502, true)] {
            let j = jam.then_some(&jammer);
            let legacy = run_handshake(
                &s.params,
                &s.authority,
                &s.a_codes,
                &s.b_codes,
                1,
                1,
                j,
                seed,
            );
            let resilient = run_handshake_resilient(
                &s.params,
                &s.authority,
                &s.a_codes,
                &s.b_codes,
                1,
                1,
                j,
                seed,
                &mut codec,
                None,
                None,
                &RetryPolicy::none(),
            );
            assert_eq!(resilient.report, legacy, "seed {seed}, jam {jam}");
            assert_eq!(resilient.attempts, 1);
            assert_eq!(resilient.backoff_s, 0.0);
            assert_eq!(resilient.degraded, !legacy.discovered);
        }
    }

    #[test]
    fn resilient_retries_recover_from_transient_faults() {
        use jrsnd_sim::faults::{FaultInjector, FaultPlan};
        use jrsnd_sim::retry::RetryPolicy;
        let s = setup(10);
        let mut codec = crate::messages::FrameCodec::new(s.params.mu).unwrap();
        let inj = FaultInjector::new(77, FaultPlan::intensity(0.6));
        let retry = RetryPolicy::budgeted(4);
        // Across several session seeds, retries must discover at least one
        // link that the single-attempt run under the same faults loses.
        let mut single_failures = 0u32;
        let mut retried_recoveries = 0u32;
        for seed in 600u64..640 {
            let single = run_handshake_resilient(
                &s.params,
                &s.authority,
                &s.a_codes,
                &s.b_codes,
                1,
                1,
                None,
                seed,
                &mut codec,
                None,
                Some(&inj),
                &RetryPolicy::none(),
            );
            if single.report.discovered {
                continue;
            }
            single_failures += 1;
            let retried = run_handshake_resilient(
                &s.params,
                &s.authority,
                &s.a_codes,
                &s.b_codes,
                1,
                1,
                None,
                seed,
                &mut codec,
                None,
                Some(&inj),
                &retry,
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
        use jrsnd_sim::faults::{FaultInjector, FaultPlan};
        use jrsnd_sim::retry::RetryPolicy;
        let s = setup(11);
        let run = |seed: u64| {
            let mut codec = crate::messages::FrameCodec::new(s.params.mu).unwrap();
            let mut cache = SessionCodeCache::new(16);
            let inj = FaultInjector::new(5, FaultPlan::intensity(0.7));
            run_handshake_resilient(
                &s.params,
                &s.authority,
                &s.a_codes,
                &s.b_codes,
                1,
                1,
                None,
                seed,
                &mut codec,
                Some(&mut cache),
                Some(&inj),
                &RetryPolicy::budgeted(3),
            )
        };
        for seed in [700u64, 701, 702] {
            assert_eq!(run(seed), run(seed), "seed {seed}");
        }
    }

    #[test]
    fn session_channel_memory_stays_bounded_across_retries() {
        use jrsnd_sim::retry::RetryPolicy;
        let s = setup(12);
        let mut codec = crate::messages::FrameCodec::new(s.params.mu).unwrap();
        // A full-strength same-code jammer fails every attempt, forcing
        // the driver through its whole (large) retry budget on one
        // persistent channel.
        let jammer = ChipJammer::from_start(s.a_codes[1].clone(), 1.0, 3);
        let retry = RetryPolicy {
            max_attempts: 12,
            ..RetryPolicy::budgeted(11)
        };
        let r = run_handshake_resilient(
            &s.params,
            &s.authority,
            &s.a_codes,
            &s.b_codes,
            1,
            1,
            Some(&jammer),
            800,
            &mut codec,
            None,
            None,
            &retry,
        );
        assert_eq!(r.attempts, 12);
        assert!(r.degraded);
        // Every finished message window was retired: what survives is at
        // most the last window's transmissions (HELLO copies + jam bursts
        // for each of A's codes), never 12 attempts' worth (~100+).
        let per_window_bound = 2 * s.a_codes.len() + 2;
        assert!(
            r.channel_transmissions <= per_window_bound,
            "channel kept {} transmissions after retirement (bound {})",
            r.channel_transmissions,
            per_window_bound
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
}
