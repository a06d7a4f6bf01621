//! Sliding-window synchronization: locating a spread message inside a
//! buffered sample stream without knowing when it started.
//!
//! Section V-B: the receiver buffers `f` chips and, for every chip offset
//! `i` and every code in its set ℂ_B, computes the correlation of
//! `(p_i, …, p_{i+N−1})` with the code. The first offset whose correlation
//! clears ±τ marks the start of a message spread with that code; the rest
//! of the message is then de-spread window by window. This scan is exactly
//! the computation whose cost (ρ seconds per correlated bit) produces the
//! processing/buffering gap λ = ρNmR in the latency analysis.
//!
//! The scan sweeps the buffer in blocks that end on multiples of 64
//! offsets, each one call of [`BankScanner::dot_block`]: one
//! popcount-kernel run per code over the buffer's bit planes, at any
//! amplitude, giving each (offset, code) its exact integer dot product.
//! The scan compares those integers and divides by `N` only for the hit
//! it returns and its confirm test:
//!
//! * **Trigger.** `|dot/N| ≥ τ` in `f64` is `|dot| ≥ k` for the least
//!   integer `k` with `k/N ≥ τ` in `f64`, fixed per scan, because
//!   `x ↦ fl(x/N)` is monotone.
//! * **Refinement.** The strongest response after a trigger is the first
//!   (offset, code) holding each block's largest `|dot|`, taken only when
//!   that beats the running best. Comparing `|dot|` in place of
//!   `|dot/N|` keeps the first strict maximum because `fl(x/N)` is also
//!   injective for `|x| ≤ 2^52`, which holds for any `i32` buffer with
//!   `N ≤ 2^21`.
//! * **Bound.** A window's L1 norm `Σ|sᵢ|` bounds `|dot|` against every
//!   ±1 code, so a block of offsets past the scan block where no window's
//!   norm beats the running best cannot hold a new best. Its dot products
//!   are not computed, though its correlations are charged as before. The
//!   norm slides along the rendered samples. So a trigger on a true peak
//!   with no louder window after it refines nothing: the peak is `N` on a
//!   clean window, and `(1 + a)·N` under an amplitude-`a` same-code jam
//!   whose bit matches the sent one.
//!
//! Hits and work counters are therefore those of the chip-at-a-time scan
//! that [`reference`](mod@reference) keeps as the oracle.
//!
//! [`scan_window`] is the HELLO receive of a window still on a
//! [`ChipChannel`]: it renders and holds the window only as far as the
//! scan reaches ([`MultiCorrelator::scanner_on_air`]) and decodes each
//! candidate off the medium's transmissions, one new bit for a candidate
//! one bit period after the last one decoded on the same code.

use crate::channel::ChipChannel;
use crate::code::SpreadCode;
use crate::correlate::{BankScanner, BitPlanes, MultiCorrelator};
use crate::spread::{
    correlate_window, decide, despread_from_channel_into, despread_next_from_channel, BitDecision,
};
use jrsnd_sim::metric_counter;

/// The result of locating a message start in a buffer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SyncHit {
    /// Index into the candidate-code slice that matched.
    pub code_index: usize,
    /// Chip offset of the message start within the buffer.
    pub offset: usize,
    /// The correlation at the hit (|corr| ≥ τ).
    pub correlation: f64,
    /// Number of (offset, code) correlations evaluated before the hit —
    /// the work metric behind ρ and λ.
    pub correlations_computed: u64,
}

/// A decoded frame: bits plus per-bit erasure flags.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Frame {
    /// Decoded bits (erased positions hold `false`).
    pub bits: Vec<bool>,
    /// Per-bit erasure flags (|corr| < τ).
    pub erased: Vec<bool>,
}

impl Frame {
    /// An empty frame with room for `n_bits` decisions.
    pub(crate) fn with_capacity(n_bits: usize) -> Self {
        Frame {
            bits: Vec::with_capacity(n_bits),
            erased: Vec::with_capacity(n_bits),
        }
    }

    /// Appends one bit decision (an erasure reads as `false`, flagged).
    pub(crate) fn push(&mut self, decision: BitDecision) {
        self.bits.push(decision == BitDecision::One);
        self.erased.push(decision == BitDecision::Erased);
    }

    /// Fraction of erased bits.
    pub fn erasure_fraction(&self) -> f64 {
        if self.erased.is_empty() {
            return 0.0;
        }
        self.erased.iter().filter(|&&e| e).count() as f64 / self.erased.len() as f64
    }
}

/// Scans `samples` for the earliest chip offset at which any candidate
/// code's correlation magnitude reaches `tau`.
///
/// Mirrors the paper's algorithm: offsets are scanned in order and for each
/// offset every code is tried, so the earliest message wins regardless of
/// which code spreads it.
///
/// # Examples
///
/// ```
/// use jrsnd_dsss::code::SpreadCode;
/// use jrsnd_dsss::spread::spread;
/// use jrsnd_dsss::sync::scan;
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(3);
/// let code = SpreadCode::random(256, &mut rng);
/// let mut samples = vec![0i32; 100]; // dead air before the message
/// samples.extend(spread(&[true, false], &code).to_levels());
/// let hit = scan(&samples, &[&code], 0.15).unwrap();
/// assert_eq!(hit.offset, 100);
/// assert_eq!(hit.code_index, 0);
/// ```
pub fn scan(samples: &[i32], codes: &[&SpreadCode], tau: f64) -> Option<SyncHit> {
    if codes.is_empty() {
        return None;
    }
    let bank = MultiCorrelator::new(codes);
    let mut scanner = bank.scanner(samples);
    scan_from(&mut scanner, 0, tau)
}

/// [`scan`] over an already-prepared [`BankScanner`], starting at absolute
/// chip offset `start`.
///
/// This is the batched fast path: every window is correlated against the
/// whole bank in one pass and the scanner's bit planes supply each
/// window's sample total, so sliding by one chip never re-reads the buffer
/// to re-total it. A caller that resumes scanning (like [`scan_all`], or a
/// receiver draining one buffering window) builds the scanner once and
/// keeps calling `scan_from` with increasing `start`.
///
/// The returned [`SyncHit::offset`] is absolute within the scanner's
/// buffer. [`SyncHit::correlations_computed`] counts from this call only
/// and replicates the sequential algorithm's early-exit cost (a triggering
/// offset charges only the codes up to and including the trigger), so the
/// work metric is identical to scanning code by code.
pub fn scan_from(scanner: &mut BankScanner<'_, '_>, start: usize, tau: f64) -> Option<SyncHit> {
    scan_from_with(scanner, start, tau, &mut ScanScratch::new())
}

/// Reusable block buffers for [`scan_from_with`], so a receiver scanning
/// many buffers (the batch session engine scans thousands of sessions) pays
/// the block allocations once instead of per scan. A fresh instance
/// behaves exactly like the allocations [`scan_from`] used to make — the
/// buffers are resized and fully overwritten before any read. Each holds
/// one block of exact integer dot products.
#[derive(Debug, Clone, Default)]
pub struct ScanScratch {
    block: Vec<i64>,
    rblock: Vec<i64>,
    refine: RefineStats,
}

impl ScanScratch {
    /// An empty scratch; buffers grow on first use and are then retained.
    pub fn new() -> Self {
        ScanScratch::default()
    }

    /// What the refinement's L1 bound did over every scan this scratch
    /// served.
    pub fn refine_stats(&self) -> RefineStats {
        self.refine
    }
}

/// Counts of the peak refinement's blocks past the scan block, for the
/// scans one [`ScanScratch`] served.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RefineStats {
    /// Blocks skipped because no window's L1 norm beat the running best.
    pub skipped: u64,
    /// Blocks correlated that held a new best: the bound must not skip
    /// these.
    pub raised: u64,
}

/// The largest L1 norm `Σ|sᵢ|` of the `n`-chip windows at offsets
/// `start..start + count`. `norm` holds the norm of one window; it slides
/// from there when that window is the one before `start`, and is left at
/// the block's last window.
fn peak_norm(
    samples: &[i32],
    (start, count): (usize, usize),
    n: usize,
    norm: &mut Option<(usize, u64)>,
) -> u64 {
    let abs = |i: usize| u64::from(samples[i].unsigned_abs());
    let slide = |l1: u64, at: usize| l1 + abs(at + n) - abs(at);
    let mut l1 = match *norm {
        Some((at, l1)) if at + 1 == start => slide(l1, at),
        _ => samples[start..start + n]
            .iter()
            .map(|s| u64::from(s.unsigned_abs()))
            .sum(),
    };
    let mut peak = l1;
    for at in start..start + count - 1 {
        l1 = slide(l1, at);
        peak = peak.max(l1);
    }
    *norm = Some((start + count - 1, l1));
    peak
}

/// The least `k ≥ 0` with `k as f64 / n as f64 >= tau`, so that `|dot| ≥ k`
/// exactly when `|dot as f64 / n as f64| ≥ tau` (`x ↦ fl(x/N)` is
/// monotone): 0 when `tau ≤ 0`, and `u64::MAX`, which no `|dot|` reaches,
/// when nothing can trigger (`tau` NaN or past every `u64`).
fn trigger_level(tau: f64, n: usize) -> u64 {
    let nf = n as f64;
    let reaches = |k: u64| k as f64 / nf >= tau;
    if reaches(0) {
        return 0;
    }
    if !reaches(u64::MAX) {
        return u64::MAX;
    }
    // Bisect with `lo` short of the level and `hi` at or past it, starting
    // from the bracket around `⌈τ·N⌉` that holds it for any τ·N below 2^52.
    let (mut lo, mut hi) = (0u64, u64::MAX);
    let guess = (tau * nf).ceil() as u64;
    let (below, above) = (guess.saturating_sub(1), guess.saturating_add(1));
    if !reaches(below) {
        lo = below;
    }
    if reaches(above) {
        hi = above;
    }
    while hi - lo > 1 {
        let mid = lo + (hi - lo) / 2;
        if reaches(mid) {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    hi
}

/// The index of the first `dot` with `|dot| ≥ level`. Chunks are tested
/// whole, without an early exit, so the test vectorises.
#[inline]
fn first_reaching(dots: &[i64], level: u64) -> Option<usize> {
    const LANES: usize = 16;
    let mut at = 0;
    for chunk in dots.chunks(LANES) {
        if chunk
            .iter()
            .fold(false, |hit, d| hit | (d.unsigned_abs() >= level))
        {
            return chunk
                .iter()
                .position(|d| d.unsigned_abs() >= level)
                .map(|i| at + i);
        }
        at += chunk.len();
    }
    None
}

/// [`scan_from`] with caller-pooled scratch — identical hits and work
/// counters, no per-call allocation once `scratch` has warmed up.
pub fn scan_from_with(
    scanner: &mut BankScanner<'_, '_>,
    start: usize,
    tau: f64,
    scratch: &mut ScanScratch,
) -> Option<SyncHit> {
    /// Offsets per [`BankScanner::dot_block`] call: enough reuse of each
    /// code's masks, small enough that the block result and the spanned
    /// planes stay cache-resident. Blocks end on multiples of `BLOCK`, so
    /// each one is a single 64-offset run of the plane kernel.
    const BLOCK: usize = 64;
    let mut work: u64 = 0;
    let m = scanner.bank().num_codes();
    if m == 0 {
        return None;
    }
    let n = scanner.bank().code_len();
    let last = scanner.last_offset()?;
    let buffer_len = scanner.chips();
    let level = trigger_level(tau, n);
    scratch.block.resize(BLOCK * m, 0);
    scratch.rblock.resize(BLOCK * m, 0);
    let ScanScratch {
        block,
        rblock,
        refine: stats,
    } = scratch;
    // The scan block covers offsets [block_start, block_end); empty until
    // the first offset is scanned.
    let (mut block_start, mut block_end) = (0usize, 0usize);
    let mut offset = start;
    while offset <= last {
        // The sweep consumes dot products block by block; most offsets
        // never trigger, so the eager batch costs nothing extra and lets
        // each mask row serve BLOCK windows per load.
        if offset < block_start || offset >= block_end {
            block_start = offset;
            block_end = ((offset / BLOCK + 1) * BLOCK).min(last + 1);
            scanner.dot_block(offset, block_end - offset, block);
        }
        let from = (offset - block_start) * m;
        let rows = &block[from..(block_end - block_start) * m];
        // Charge what the sequential scan would have computed: all m codes
        // of every offset before the trigger, then codes up to and
        // including it — or all m of every offset on a miss.
        let Some(i) = first_reaching(rows, level) else {
            work += rows.len() as u64;
            offset = block_end;
            continue;
        };
        work += i as u64 + 1;
        offset += i / m;
        let mut best = (offset, i % m, rows[i]);
        // Peak refinement: pure random codes have ~3.5 sigma
        // partial-autocorrelation sidelobes that can clear tau slightly
        // ahead of the true alignment. The true peak (|corr| ~ 1) lies
        // within one code length of any sidelobe, so search that window
        // across all codes and keep the strongest response.
        // The rest of the scan block already holds the first offsets of
        // that window; only the offsets past it are correlated afresh, and
        // only in blocks where some window's L1 norm beats the best.
        let refine_end = (offset + n - 1).min(last);
        let mut o2 = offset + 1;
        let mut norm = None;
        while o2 <= refine_end {
            let fresh = o2 >= block_end;
            let (dots, base, count) = if fresh {
                let count = (BLOCK - o2 % BLOCK).min(refine_end - o2 + 1);
                scanner.reach(o2 + count - 1 + n);
                if peak_norm(scanner.samples(), (o2, count), n, &mut norm) <= best.2.unsigned_abs()
                {
                    stats.skipped += 1;
                    work += (count * m) as u64;
                    o2 += count;
                    continue;
                }
                scanner.dot_block(o2, count, rblock);
                (&rblock[..], o2, count)
            } else {
                (&block[..], block_start, block_end.min(refine_end + 1) - o2)
            };
            work += (count * m) as u64;
            let rows = &dots[(o2 - base) * m..(o2 - base + count) * m];
            let peak = rows.iter().map(|d| d.unsigned_abs()).max().unwrap_or(0);
            if peak > best.2.unsigned_abs() {
                let i = rows
                    .iter()
                    .position(|d| d.unsigned_abs() == peak)
                    .expect("the peak lies in its block");
                best = (o2 + i / m, i % m, rows[i]);
                stats.raised += u64::from(fresh);
            }
            o2 += count;
        }
        let correlation = best.2 as f64 / n as f64;
        // Confirm with the following bit window when the buffer allows;
        // a lone sidelobe with no message behind it fails this check.
        if best.0 + 2 * n <= buffer_len {
            scanner.reach(best.0 + 2 * n);
            let next_corr = scanner.correlate_one(best.0 + n, best.1);
            work += 1;
            if next_corr.abs() < tau && correlation.abs() < 0.5 {
                offset += 1;
                continue;
            }
        }
        return Some(SyncHit {
            code_index: best.1,
            offset: best.0,
            correlation,
            correlations_computed: work,
        });
    }
    None
}

/// Pooled state for [`scan_window`]: the window's rendered prefix and its
/// bit planes, the scan blocks, and the frame of the last candidate
/// decoded. A receiver that keeps one across windows allocates nothing
/// once it has grown to the largest.
#[derive(Debug, Clone, Default)]
pub struct WindowScratch {
    window: Vec<i32>,
    planes: BitPlanes,
    scan: ScanScratch,
    frame: Frame,
}

impl WindowScratch {
    /// An empty scratch; buffers grow on first use and are then retained.
    pub fn new() -> Self {
        WindowScratch::default()
    }

    /// The chips of the last window that [`scan_window`] rendered: the
    /// prefix its scan reached.
    pub fn rendered(&self) -> &[i32] {
        &self.window
    }

    /// [`ScanScratch::refine_stats`] over every window this scratch
    /// scanned.
    pub fn refine_stats(&self) -> RefineStats {
        self.scan.refine_stats()
    }
}

/// Scans the `span`-chip window of `channel` that starts at absolute chip
/// `base` for sync candidates over `bank`, in buffer order, resuming one
/// bit period after each: the refinement already searched that window.
/// The window is rendered and held as bit planes only as far as the scan
/// reaches ([`MultiCorrelator::scanner_on_air`]).
///
/// `take` sees every candidate, with its `n_bits`-bit frame when the frame
/// fits inside the window, and stops the scan by returning `true`. Frames
/// are decoded off the medium ([`despread_from_channel_into`]); a
/// candidate one bit period after the last decoded candidate on the same
/// code reuses that frame's last `n_bits − 1` decisions and computes one
/// bit ([`despread_next_from_channel`]). Every candidate and frame is the
/// one [`scan_from`] and [`decode_frame`] give on the rendered window.
#[allow(clippy::too_many_arguments)]
pub fn scan_window(
    bank: &MultiCorrelator<'_>,
    channel: &ChipChannel,
    (base, span): (u64, usize),
    n_bits: usize,
    tau: f64,
    scratch: &mut WindowScratch,
    mut take: impl FnMut(&SyncHit, Option<&Frame>) -> bool,
) {
    let WindowScratch {
        window,
        planes,
        scan,
        frame,
    } = scratch;
    let mut scanner = bank.scanner_on_air(channel, base, span, window, planes);
    let n = bank.code_len();
    // The (offset, code) of the candidate whose frame `frame` holds.
    let mut held: Option<(usize, usize)> = None;
    let mut pos = 0usize;
    while pos + n <= span {
        let Some(h) = scan_from_with(&mut scanner, pos, tau, scan) else {
            metric_counter!("dsss.sync_misses").inc();
            break;
        };
        metric_counter!("dsss.sync_hits").inc();
        let fits = n_bits
            .checked_mul(n)
            .and_then(|c| h.offset.checked_add(c))
            .is_some_and(|end| end <= span);
        if fits {
            let (at, code) = (base + h.offset as u64, bank.codes()[h.code_index]);
            if h.offset
                .checked_sub(n)
                .is_some_and(|o| held == Some((o, h.code_index)))
            {
                despread_next_from_channel(channel, at, code, tau, frame);
            } else {
                despread_from_channel_into(channel, at, code, n_bits, tau, frame);
            }
            held = Some((h.offset, h.code_index));
        }
        if take(&h, fits.then_some(&*frame)) {
            break;
        }
        pos = h.offset + n;
    }
}

/// De-spreads an `n_bits`-bit frame starting at `offset`, given the code
/// identified by [`scan`].
///
/// Returns `None` if the buffer does not contain the full frame.
pub fn decode_frame(
    samples: &[i32],
    offset: usize,
    code: &SpreadCode,
    n_bits: usize,
    tau: f64,
) -> Option<Frame> {
    let mut frame = Frame::with_capacity(n_bits);
    decode_frame_into(samples, offset, code, n_bits, tau, &mut frame).then_some(frame)
}

/// [`decode_frame`] into a caller-pooled [`Frame`], clearing it first.
/// Returns `false` (frame left empty) if the buffer does not contain the
/// full frame. Identical decisions to [`decode_frame`]; the session
/// driver uses this to keep per-session frame decoding allocation-free
/// once the pooled frame has warmed up.
pub fn decode_frame_into(
    samples: &[i32],
    offset: usize,
    code: &SpreadCode,
    n_bits: usize,
    tau: f64,
    frame: &mut Frame,
) -> bool {
    frame.bits.clear();
    frame.erased.clear();
    let n = code.len();
    let Some(needed) = n_bits.checked_mul(n).and_then(|c| offset.checked_add(c)) else {
        return false;
    };
    if needed > samples.len() {
        return false;
    }
    for j in 0..n_bits {
        let window = &samples[offset + j * n..offset + (j + 1) * n];
        frame.push(decide(correlate_window(window, code), tau));
    }
    true
}

/// Scans the whole buffer and decodes **every** `n_bits`-bit frame found,
/// continuing past each one — the paper's receiver behaviour: "there may
/// be multiple or no valid HELLO messages in the buffer … even after
/// recovering one valid HELLO message from the buffer, B still need\[s to\]
/// process the rest of it" (multiple physical neighbors may initiate
/// discovery within one buffering window).
///
/// After a decodable frame, scanning resumes at its end; after an
/// undecodable hit (a sidelobe or a jammed frame), one bit period is
/// skipped. Returns `(code_index, offset, frame)` triples in buffer order,
/// and nothing for `n_bits == 0`: a frame of no bits is no message.
///
/// One scanner serves the whole buffer: every resumed scan and every
/// candidate's decode ([`BankScanner::decode_frame_into`]) read the same
/// bit planes.
pub fn scan_all(
    samples: &[i32],
    codes: &[&SpreadCode],
    n_bits: usize,
    tau: f64,
) -> Vec<(usize, usize, Frame)> {
    let mut found = Vec::new();
    // A zero-bit frame is decodable at every hit and would resume the
    // scan where it stood, forever.
    if codes.is_empty() || n_bits == 0 {
        return found;
    }
    let bank = MultiCorrelator::new(codes);
    let mut scanner = bank.scanner(samples);
    let n = bank.code_len();
    let mut frame = Frame::with_capacity(n_bits);
    let mut pos = 0usize;
    while pos + n <= samples.len() {
        let Some(hit) = scan_from(&mut scanner, pos, tau) else {
            break;
        };
        let abs = hit.offset;
        if scanner.decode_frame_into(abs, hit.code_index, n_bits, tau, &mut frame)
            && frame.erasure_fraction() < 0.5
        {
            pos = abs + n_bits * n;
            let frame = std::mem::replace(&mut frame, Frame::with_capacity(n_bits));
            found.push((hit.code_index, abs, frame));
        } else {
            pos = abs + n;
        }
    }
    found
}

/// Convenience: scan for a frame spread with any of `codes` and decode
/// `n_bits` bits from the hit. Returns the code index and the frame.
pub fn scan_and_decode(
    samples: &[i32],
    codes: &[&SpreadCode],
    n_bits: usize,
    tau: f64,
) -> Option<(usize, Frame)> {
    let hit = scan(samples, codes, tau)?;
    let frame = decode_frame(samples, hit.offset, codes[hit.code_index], n_bits, tau)?;
    Some((hit.code_index, frame))
}

/// Scalar transcriptions of [`scan`]/[`scan_all`], kept verbatim from
/// before the batched-kernel rewrite as determinism oracles.
///
/// Tests assert the fast paths return byte-identical hit lists and work
/// counters. Not used on any hot path.
pub mod reference {
    use super::{decide, BitDecision, Frame, SpreadCode, SyncHit};
    use crate::spread::reference::correlate_window;

    /// Chip-at-a-time [`super::scan`].
    pub fn scan(samples: &[i32], codes: &[&SpreadCode], tau: f64) -> Option<SyncHit> {
        let mut work: u64 = 0;
        if codes.is_empty() {
            return None;
        }
        let n = codes[0].len();
        assert!(
            codes.iter().all(|c| c.len() == n),
            "all candidate codes must share one chip length"
        );
        if samples.len() < n {
            return None;
        }
        let last = samples.len() - n;
        let mut offset = 0usize;
        while offset <= last {
            let window = &samples[offset..offset + n];
            let mut triggered: Option<(usize, f64)> = None;
            for (code_index, code) in codes.iter().enumerate() {
                let corr = correlate_window(window, code);
                work += 1;
                if corr.abs() >= tau {
                    triggered = Some((code_index, corr));
                    break;
                }
            }
            let Some(mut best) = triggered.map(|(ci, c)| (offset, ci, c)) else {
                offset += 1;
                continue;
            };
            for o2 in (offset + 1)..=(offset + n - 1).min(last) {
                let w2 = &samples[o2..o2 + n];
                for (code_index, code) in codes.iter().enumerate() {
                    let corr = correlate_window(w2, code);
                    work += 1;
                    if corr.abs() > best.2.abs() {
                        best = (o2, code_index, corr);
                    }
                }
            }
            if best.0 + 2 * n <= samples.len() {
                let next = &samples[best.0 + n..best.0 + 2 * n];
                let next_corr = correlate_window(next, codes[best.1]);
                work += 1;
                if next_corr.abs() < tau && best.2.abs() < 0.5 {
                    offset += 1;
                    continue;
                }
            }
            return Some(SyncHit {
                code_index: best.1,
                offset: best.0,
                correlation: best.2,
                correlations_computed: work,
            });
        }
        None
    }

    /// Chip-at-a-time [`super::decode_frame`].
    pub fn decode_frame(
        samples: &[i32],
        offset: usize,
        code: &SpreadCode,
        n_bits: usize,
        tau: f64,
    ) -> Option<Frame> {
        let n = code.len();
        let needed = offset.checked_add(n_bits.checked_mul(n)?)?;
        if needed > samples.len() {
            return None;
        }
        let mut bits = Vec::with_capacity(n_bits);
        let mut erased = Vec::with_capacity(n_bits);
        for j in 0..n_bits {
            let window = &samples[offset + j * n..offset + (j + 1) * n];
            match decide(correlate_window(window, code), tau) {
                BitDecision::One => {
                    bits.push(true);
                    erased.push(false);
                }
                BitDecision::Zero => {
                    bits.push(false);
                    erased.push(false);
                }
                BitDecision::Erased => {
                    bits.push(false);
                    erased.push(true);
                }
            }
        }
        Some(Frame { bits, erased })
    }

    /// Chip-at-a-time [`super::scan_all`].
    pub fn scan_all(
        samples: &[i32],
        codes: &[&SpreadCode],
        n_bits: usize,
        tau: f64,
    ) -> Vec<(usize, usize, Frame)> {
        let mut found = Vec::new();
        if codes.is_empty() || n_bits == 0 {
            return found;
        }
        let n = codes[0].len();
        let mut pos = 0usize;
        while pos + n <= samples.len() {
            let Some(hit) = scan(&samples[pos..], codes, tau) else {
                break;
            };
            let abs = pos + hit.offset;
            match decode_frame(samples, abs, codes[hit.code_index], n_bits, tau) {
                Some(frame) if frame.erasure_fraction() < 0.5 => {
                    pos = abs + n_bits * n;
                    found.push((hit.code_index, abs, frame));
                }
                _ => {
                    pos = abs + n;
                }
            }
        }
        found
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spread::spread;
    use rand::{Rng, SeedableRng};

    fn rng(seed: u64) -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(seed)
    }

    #[test]
    fn finds_message_at_arbitrary_offset() {
        let mut r = rng(1);
        let code = SpreadCode::random(512, &mut r);
        let msg: Vec<bool> = (0..21).map(|i| i % 2 == 0).collect();
        for lead in [0usize, 1, 17, 511, 1000] {
            let mut samples = vec![0i32; lead];
            samples.extend(spread(&msg, &code).to_levels());
            samples.extend(vec![0i32; 64]);
            let (idx, frame) = scan_and_decode(&samples, &[&code], 21, 0.15).unwrap();
            assert_eq!(idx, 0);
            assert_eq!(frame.bits, msg, "lead {lead}");
            assert!(frame.erasure_fraction() == 0.0);
        }
    }

    #[test]
    fn identifies_which_code_matched() {
        let mut r = rng(2);
        let codes: Vec<SpreadCode> = (0..5).map(|_| SpreadCode::random(512, &mut r)).collect();
        let refs: Vec<&SpreadCode> = codes.iter().collect();
        let msg = vec![true, true, false];
        #[allow(clippy::needless_range_loop)] // target doubles as code index
        for target in 0..5 {
            let mut samples = vec![0i32; 37];
            samples.extend(spread(&msg, &codes[target]).to_levels());
            let hit = scan(&samples, &refs, 0.15).unwrap();
            assert_eq!(hit.code_index, target);
            assert_eq!(hit.offset, 37);
            assert!(hit.correlation.abs() >= 0.99);
        }
    }

    #[test]
    fn noise_alone_produces_no_hit() {
        let mut r = rng(3);
        let code = SpreadCode::random(512, &mut r);
        // Sparse random noise, no transmission.
        let samples: Vec<i32> = (0..4096)
            .map(|_| {
                if r.gen_bool(0.05) {
                    if r.gen() {
                        1
                    } else {
                        -1
                    }
                } else {
                    0
                }
            })
            .collect();
        assert!(scan(&samples, &[&code], 0.15).is_none());
    }

    #[test]
    fn short_buffer_and_empty_codes_are_none() {
        let mut r = rng(4);
        let code = SpreadCode::random(512, &mut r);
        assert!(scan(&[0i32; 100], &[&code], 0.15).is_none());
        assert!(scan(&[0i32; 1000], &[], 0.15).is_none());
        assert!(decode_frame(&[0i32; 100], 0, &code, 5, 0.15).is_none());
    }

    #[test]
    fn work_counter_reflects_scan_cost() {
        let mut r = rng(5);
        let code = SpreadCode::random(128, &mut r);
        let msg = vec![true];
        let lead = 50;
        let mut samples = vec![0i32; lead];
        samples.extend(spread(&msg, &code).to_levels());
        let hit = scan(&samples, &[&code], 0.15).unwrap();
        // One correlation per offset, hit at offset `lead`.
        assert_eq!(hit.correlations_computed, lead as u64 + 1);
    }

    #[test]
    fn message_negative_first_bit_still_syncs() {
        // A frame starting with bit 0 correlates at -1; |corr| must trigger.
        let mut r = rng(6);
        let code = SpreadCode::random(512, &mut r);
        let msg = vec![false, true, false];
        let mut samples = vec![0i32; 11];
        samples.extend(spread(&msg, &code).to_levels());
        let (_, frame) = scan_and_decode(&samples, &[&code], 3, 0.15).unwrap();
        assert_eq!(frame.bits, msg);
    }

    #[test]
    fn two_messages_earliest_wins() {
        let mut r = rng(7);
        let code_a = SpreadCode::random(256, &mut r);
        let code_b = SpreadCode::random(256, &mut r);
        let mut samples = vec![0i32; 20];
        samples.extend(spread(&[true, false], &code_b).to_levels());
        samples.extend(vec![0i32; 40]);
        samples.extend(spread(&[true], &code_a).to_levels());
        let hit = scan(&samples, &[&code_a, &code_b], 0.15).unwrap();
        assert_eq!(hit.code_index, 1, "the earlier message (code_b) must win");
        assert_eq!(hit.offset, 20);
    }

    #[test]
    fn scan_all_recovers_multiple_concurrent_initiators() {
        // Three senders' HELLOs land in one buffer, each spread with a
        // different code, separated by dead air — the multi-initiator case.
        let mut r = rng(9);
        let codes: Vec<SpreadCode> = (0..3).map(|_| SpreadCode::random(256, &mut r)).collect();
        let refs: Vec<&SpreadCode> = codes.iter().collect();
        let msgs: Vec<Vec<bool>> = (0..3)
            .map(|s| (0..8).map(|b| (b + s) % 2 == 0).collect())
            .collect();
        let mut samples = Vec::new();
        for (msg, code) in msgs.iter().zip(&codes) {
            samples.extend(vec![0i32; 100]);
            samples.extend(spread(msg, code).to_levels());
        }
        samples.extend(vec![0i32; 300]);
        let found = scan_all(&samples, &refs, 8, 0.15);
        assert_eq!(found.len(), 3, "all three frames recovered");
        for (i, (code_index, _, frame)) in found.iter().enumerate() {
            assert_eq!(*code_index, i, "frames arrive in buffer order");
            assert_eq!(frame.bits, msgs[i]);
        }
    }

    #[test]
    fn scan_all_empty_cases() {
        let mut r = rng(10);
        let code = SpreadCode::random(128, &mut r);
        assert!(scan_all(&[0i32; 1000], &[&code], 4, 0.15).is_empty());
        assert!(scan_all(&[0i32; 1000], &[], 4, 0.15).is_empty());
        assert!(scan_all(&[0i32; 10], &[&code], 4, 0.15).is_empty());
    }

    #[test]
    fn zero_bit_frames_end_the_scan() {
        // An empty frame is never erased, so a scan that accepted it would
        // resume where it stood forever.
        let mut r = rng(11);
        let code = SpreadCode::random(64, &mut r);
        let mut samples = vec![0i32; 10];
        samples.extend(spread(&[true, false, true], &code).to_levels());
        assert!(scan_all(&samples, &[&code], 0, 0.3).is_empty());
        assert!(reference::scan_all(&samples, &[&code], 0, 0.3).is_empty());
        assert_eq!(scan_all(&samples, &[&code], 3, 0.3).len(), 1);
    }

    #[test]
    fn scan_window_reports_the_rendered_scan() {
        // A window on a medium: a frame on code 1 under a same-code jam at
        // amplitude 3, so each of its bit boundaries is a candidate and
        // each decodable one after the first slides the pooled frame by
        // one bit, then a clean frame on code 0. Every candidate and frame
        // equals the resumed scan and the decode of the rendered window,
        // for zero-bit frames too.
        let mut r = rng(13);
        let n = 128usize;
        let codes: Vec<SpreadCode> = (0..2).map(|_| SpreadCode::random(n, &mut r)).collect();
        let refs: Vec<&SpreadCode> = codes.iter().collect();
        let bank = MultiCorrelator::new(&refs);
        let msg: Vec<bool> = (0..6).map(|_| r.gen()).collect();
        let garbage: Vec<bool> = (0..6).map(|_| r.gen()).collect();
        let (base, lead) = (1_000u64, 50u64);
        let mut ch = ChipChannel::new(1);
        ch.transmit(base + lead, spread(&msg, &codes[1]), 1);
        ch.transmit(base + lead, spread(&garbage, &codes[1]), 3);
        ch.transmit(base + lead + 8 * n as u64, spread(&msg, &codes[0]), 1);
        let span = lead as usize + 14 * n + 200;
        let rendered = ch.render(base, span);
        let mut scratch = WindowScratch::new();
        for n_bits in [6usize, 0] {
            let mut got = Vec::new();
            scan_window(
                &bank,
                &ch,
                (base, span),
                n_bits,
                0.3,
                &mut scratch,
                |h, f| {
                    got.push((*h, f.cloned()));
                    false
                },
            );
            let mut scanner = bank.scanner(&rendered);
            let (mut want, mut pos) = (Vec::new(), 0);
            while pos + n <= span {
                let Some(h) = scan_from(&mut scanner, pos, 0.3) else {
                    break;
                };
                let frame = decode_frame(&rendered, h.offset, refs[h.code_index], n_bits, 0.3);
                want.push((h, frame));
                pos = h.offset + n;
            }
            assert_eq!(got, want, "{n_bits}-bit frames");
            assert!(got.len() > 6, "{} candidates", got.len());
            let built = scratch.rendered().len();
            assert_eq!(scratch.rendered(), &rendered[..built]);
        }
        // `take` stops the scan at the first candidate, which reaches only
        // the window's first segment.
        let mut seen = 0;
        scan_window(&bank, &ch, (base, span), 6, 0.3, &mut scratch, |_, f| {
            seen += 1;
            f.is_some()
        });
        assert_eq!(seen, 1);
        assert!(scratch.rendered().len() < span);
    }

    #[test]
    fn trigger_level_is_the_least_reaching_dot() {
        for n in [1usize, 100, 255, 256, 300, 512, 1 << 21] {
            let nf = n as f64;
            for k in [1u64, 29, 30, 31, 76, 77, 90, 154, 1 << 40] {
                let on_grid = k as f64 / nf;
                for tau in [
                    on_grid.next_down(),
                    on_grid,
                    on_grid.next_up(),
                    0.3,
                    0.15,
                    1.0,
                    3.7,
                ] {
                    let level = trigger_level(tau, n);
                    assert!(level as f64 / nf >= tau, "n={n} tau={tau}");
                    assert!(
                        level == 0 || ((level - 1) as f64 / nf) < tau,
                        "n={n} tau={tau}"
                    );
                }
            }
        }
        assert_eq!(trigger_level(0.0, 256), 0);
        assert_eq!(trigger_level(-0.5, 256), 0);
        assert_eq!(trigger_level(-0.0, 256), 0);
        assert_eq!(trigger_level(f64::NAN, 256), u64::MAX);
        assert_eq!(trigger_level(f64::INFINITY, 256), u64::MAX);
        assert_eq!(trigger_level(1e300, 256), u64::MAX);
        assert_eq!(trigger_level(0.30, 256), 77);
    }

    #[test]
    fn nan_and_nonpositive_thresholds_match_the_reference() {
        // NaN triggers nothing; τ ≤ 0 triggers at the first offset.
        let mut r = rng(12);
        let codes: Vec<SpreadCode> = (0..2).map(|_| SpreadCode::random(100, &mut r)).collect();
        let refs: Vec<&SpreadCode> = codes.iter().collect();
        let mut samples = vec![0i32; 150];
        samples.extend(spread(&[true, false, false], &codes[1]).to_levels());
        for tau in [f64::NAN, 0.0, -1.0, f64::INFINITY] {
            assert_eq!(
                scan(&samples, &refs, tau),
                reference::scan(&samples, &refs, tau)
            );
        }
        assert!(scan(&samples, &refs, f64::NAN).is_none());
    }

    #[test]
    fn jammed_suffix_shows_up_as_erasures() {
        let mut r = rng(8);
        let code = SpreadCode::random(512, &mut r);
        let msg: Vec<bool> = (0..20).map(|i| i % 2 == 0).collect();
        let mut levels = spread(&msg, &code).to_levels();
        // Reactive jammer zeroes the second half (perfect cancellation is
        // the worst case for the receiver: correlation drops to 0).
        let half = levels.len() / 2;
        for l in levels.iter_mut().skip(half) {
            *l = 0;
        }
        let frame = decode_frame(&levels, 0, &code, 20, 0.15).unwrap();
        assert_eq!(&frame.bits[..10], &msg[..10]);
        assert!(frame.erased[10..].iter().all(|&e| e));
        assert!((frame.erasure_fraction() - 0.5).abs() < 1e-9);
    }
}
