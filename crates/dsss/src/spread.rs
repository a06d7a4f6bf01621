//! Spreading and de-spreading: message bits ↔ chip streams.
//!
//! Section III: each message bit is NRZ-mapped (`1 ↔ +1`, `0 ↔ −1`) and
//! multiplied by the spread code, so a "1" transmits the code itself and a
//! "0" transmits its negation. The receiver correlates each `N`-chip window
//! with the code: correlation ≥ τ ⇒ bit 1, ≤ −τ ⇒ bit 0, otherwise the bit
//! is unreliable (an *erasure* for the ECC layer).
//!
//! Two receive paths share that rule. [`despread_levels`] despreads
//! rendered samples through the bank correlator of [`crate::correlate`]
//! (bit planes for small amplitudes, masked sums past `max|s| = 7`).
//! [`despread_from_channel`] renders nothing: a bit window's dot product
//! with the code is a sum over the transmissions that overlap it,
//!
//! ```text
//! Σ sᵢ·cᵢ = Σ_tx a·(len − 2·popcnt((tx ⊕ code) ∧ overlap)) + noise,
//! ```
//!
//! read 64 packed chips at a time, with ambient noise entering as two
//! packed masks (+1 and −1 chips) per 64-chip block. Both are exact
//! integers until the final division by `N`, so both reproduce the
//! chip-at-a-time oracle in [`reference`](mod@reference) bit for bit.

use crate::channel::ChipChannel;
use crate::chip::ChipSeq;
use crate::code::SpreadCode;
use crate::sync::Frame;

/// The paper's de-spreading threshold for `N = 512` codes (Section III).
pub const DEFAULT_TAU: f64 = 0.15;

/// One de-spread bit decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BitDecision {
    /// Correlation ≥ τ.
    One,
    /// Correlation ≤ −τ.
    Zero,
    /// |correlation| < τ — unreliable, treated as an erasure.
    Erased,
}

impl BitDecision {
    /// The decided bit value, if reliable.
    pub fn bit(self) -> Option<bool> {
        match self {
            BitDecision::One => Some(true),
            BitDecision::Zero => Some(false),
            BitDecision::Erased => None,
        }
    }
}

/// Spreads message bits with a code into a chip sequence of
/// `bits.len() * code.len()` chips.
///
/// # Examples
///
/// ```
/// use jrsnd_dsss::code::SpreadCode;
/// use jrsnd_dsss::spread::{despread_levels, spread, DEFAULT_TAU};
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let code = SpreadCode::random(512, &mut rng);
/// let msg = [true, false, true];
/// let chips = spread(&msg, &code);
/// let levels = chips.to_levels();
/// let (bits, erasures) = despread_levels(&levels, &code, DEFAULT_TAU);
/// assert_eq!(bits, vec![true, false, true]);
/// assert!(erasures.iter().all(|&e| !e));
/// ```
///
/// # Panics
///
/// Panics if `bits` is empty.
pub fn spread(bits: &[bool], code: &SpreadCode) -> ChipSeq {
    assert!(!bits.is_empty(), "cannot spread an empty message");
    let pos = code.chips();
    let neg = pos.negated();
    let parts: Vec<&ChipSeq> = bits.iter().map(|&b| if b { pos } else { &neg }).collect();
    ChipSeq::concat(&parts)
}

/// Correlates one `N`-chip window of soft samples against a code.
///
/// `samples` are summed amplitudes (own signal + interference + jamming);
/// the correlation is normalised by `N`, so a clean matching window gives
/// exactly ±1.
///
/// This is the bit-parallel fast path ([`ChipSeq::dot_levels`]); the
/// original chip-at-a-time loop lives on as the oracle in
/// [`reference::correlate_window`], and both produce bit-identical `f64`
/// results because the accumulation is exact over `i64` either way.
///
/// # Panics
///
/// Panics if `window.len() != code.len()`.
pub fn correlate_window(window: &[i32], code: &SpreadCode) -> f64 {
    assert_eq!(
        window.len(),
        code.len(),
        "window length must equal the code length"
    );
    code.chips().dot_levels(window) as f64 / code.len() as f64
}

/// Scalar reference implementations kept as correctness oracles for the
/// bit-parallel kernels.
///
/// These are the original one-chip-at-a-time loops, deliberately left
/// untouched by the kernel rewrite: proptests and determinism tests assert
/// that the fast paths reproduce them bit-for-bit. They are not used on any
/// hot path.
pub mod reference {
    use super::{ChipSeq, SpreadCode};

    /// Spreads through a per-chip `Vec<bool>` round trip: every chip of
    /// every code block is unpacked, appended, and packed again.
    ///
    /// # Panics
    ///
    /// Panics if `bits` is empty.
    pub fn spread(bits: &[bool], code: &SpreadCode) -> ChipSeq {
        assert!(!bits.is_empty(), "cannot spread an empty message");
        let pos = code.chips().to_bits();
        let neg = code.chips().negated().to_bits();
        let mut chips = Vec::with_capacity(bits.len() * code.len());
        for &b in bits {
            chips.extend_from_slice(if b { &pos } else { &neg });
        }
        ChipSeq::from_bits(&chips)
    }

    /// Chip-at-a-time correlation of one `N`-chip window against a code.
    ///
    /// # Panics
    ///
    /// Panics if `window.len() != code.len()`.
    pub fn correlate_window(window: &[i32], code: &SpreadCode) -> f64 {
        assert_eq!(
            window.len(),
            code.len(),
            "window length must equal the code length"
        );
        let mut acc: i64 = 0;
        for (i, &s) in window.iter().enumerate() {
            acc += i64::from(s) * i64::from(code.chips().chip(i));
        }
        acc as f64 / code.len() as f64
    }
}

/// Decides one bit from a window's correlation using threshold `tau`.
pub fn decide(correlation: f64, tau: f64) -> BitDecision {
    if correlation >= tau {
        BitDecision::One
    } else if correlation <= -tau {
        BitDecision::Zero
    } else {
        BitDecision::Erased
    }
}

/// De-spreads a soft-sample stream (starting exactly at a bit boundary)
/// into `(bits, erasure_flags)`; erased bits are reported as `false` with
/// their flag set.
///
/// # Panics
///
/// Panics if `samples.len()` is not a multiple of the code length.
pub fn despread_levels(samples: &[i32], code: &SpreadCode, tau: f64) -> (Vec<bool>, Vec<bool>) {
    let n = code.len();
    assert!(
        samples.len().is_multiple_of(n),
        "sample count {} is not a multiple of code length {n}",
        samples.len()
    );
    // One-code bank: the scanner holds the buffer once (bit planes for
    // small amplitudes), and every bit decision is one correlation.
    let bank = crate::correlate::MultiCorrelator::new(&[code]);
    let scanner = bank.scanner(samples);
    let mut frame = Frame::with_capacity(samples.len() / n);
    for bit_idx in 0..samples.len() / n {
        frame.push(decide(scanner.correlate_one(bit_idx * n, 0), tau));
    }
    (frame.bits, frame.erased)
}

/// De-spreads an `n_bits`-bit frame (starting at absolute chip `start`,
/// exactly on a bit boundary) straight off a [`ChipChannel`], rendering
/// nothing.
///
/// Bit decisions are identical to `channel.render(start, n_bits · N)`
/// followed by [`despread_levels`], but no sample is ever materialised:
/// each bit window's dot product is read off the channel's packed
/// transmissions ([`ChipChannel::dot_chips`]) as
/// `Σ_tx a·(len − 2·popcnt((tx ⊕ code) ∧ overlap))`, plus the ambient
/// noise's two packed masks per 64-chip block when noise is on. It is the
/// same exact integer the rendered window would give.
///
/// # Examples
///
/// ```
/// use jrsnd_dsss::channel::ChipChannel;
/// use jrsnd_dsss::code::SpreadCode;
/// use jrsnd_dsss::spread::{despread_from_channel, spread, DEFAULT_TAU};
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(5);
/// let code = SpreadCode::random(512, &mut rng);
/// let msg = [true, false, false, true];
/// let mut ch = ChipChannel::new(1).with_noise(0.02);
/// ch.transmit(2048, spread(&msg, &code), 1);
/// let (bits, erased) = despread_from_channel(&ch, 2048, &code, 4, DEFAULT_TAU);
/// assert_eq!(bits, msg);
/// assert!(erased.iter().all(|&e| !e));
/// ```
pub fn despread_from_channel(
    channel: &ChipChannel,
    start: u64,
    code: &SpreadCode,
    n_bits: usize,
    tau: f64,
) -> (Vec<bool>, Vec<bool>) {
    let n = code.len();
    let mut frame = Frame::with_capacity(n_bits);
    for j in 0..n_bits {
        let dot = channel.dot_chips(start + (j * n) as u64, code.chips());
        frame.push(decide(dot as f64 / n as f64, tau));
    }
    (frame.bits, frame.erased)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng(seed: u64) -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(seed)
    }

    #[test]
    fn spread_length_and_content() {
        let mut r = rng(1);
        let code = SpreadCode::random(16, &mut r);
        let chips = spread(&[true, false], &code);
        assert_eq!(chips.len(), 32);
        let bits = chips.to_bits();
        assert_eq!(&bits[..16], &code.chips().to_bits()[..]);
        assert_eq!(&bits[16..], &code.chips().negated().to_bits()[..]);
    }

    #[test]
    fn clean_round_trip() {
        let mut r = rng(2);
        let code = SpreadCode::random(512, &mut r);
        let msg: Vec<bool> = (0..42).map(|i| i % 3 == 0).collect();
        let levels = spread(&msg, &code).to_levels();
        let (bits, erased) = despread_levels(&levels, &code, DEFAULT_TAU);
        assert_eq!(bits, msg);
        assert!(erased.iter().all(|&e| !e));
    }

    #[test]
    fn wrong_code_despreads_to_erasures() {
        let mut r = rng(3);
        let code = SpreadCode::random(512, &mut r);
        let other = SpreadCode::random(512, &mut r);
        let msg: Vec<bool> = (0..20).map(|i| i % 2 == 0).collect();
        let levels = spread(&msg, &code).to_levels();
        let (_, erased) = despread_levels(&levels, &other, DEFAULT_TAU);
        let erased_count = erased.iter().filter(|&&e| e).count();
        assert!(
            erased_count >= 19,
            "a non-matching code should look like noise; {erased_count}/20 erased"
        );
    }

    #[test]
    fn interference_from_other_codes_is_negligible() {
        // Superpose 5 concurrent transmissions with independent codes; the
        // intended one still decodes (paper's orthogonality assumption).
        let mut r = rng(4);
        let codes: Vec<SpreadCode> = (0..5).map(|_| SpreadCode::random(512, &mut r)).collect();
        let msg: Vec<bool> = (0..30).map(|i| i % 7 < 3).collect();
        let mut sum = spread(&msg, &codes[0]).to_levels();
        for code in &codes[1..] {
            let other_msg: Vec<bool> = (0..30).map(|i| (i + 1) % 2 == 0).collect();
            for (s, l) in sum.iter_mut().zip(spread(&other_msg, code).to_levels()) {
                *s += l;
            }
        }
        let (bits, erased) = despread_levels(&sum, &codes[0], DEFAULT_TAU);
        let bad = bits
            .iter()
            .zip(&msg)
            .zip(&erased)
            .filter(|((b, m), e)| **e || b != m)
            .count();
        assert!(
            bad <= 1,
            "{bad}/30 bits corrupted by cross-code interference"
        );
    }

    #[test]
    fn decision_thresholds() {
        assert_eq!(decide(0.2, 0.15), BitDecision::One);
        assert_eq!(decide(-0.2, 0.15), BitDecision::Zero);
        assert_eq!(decide(0.1, 0.15), BitDecision::Erased);
        assert_eq!(decide(0.15, 0.15), BitDecision::One);
        assert_eq!(decide(-0.15, 0.15), BitDecision::Zero);
        assert_eq!(BitDecision::One.bit(), Some(true));
        assert_eq!(BitDecision::Zero.bit(), Some(false));
        assert_eq!(BitDecision::Erased.bit(), None);
    }

    #[test]
    fn correlate_window_exact_values() {
        let code = SpreadCode::from_bits(&[true, true, false, false]);
        assert_eq!(correlate_window(&[1, 1, -1, -1], &code), 1.0);
        assert_eq!(correlate_window(&[-1, -1, 1, 1], &code), -1.0);
        assert_eq!(correlate_window(&[0, 0, 0, 0], &code), 0.0);
        assert_eq!(correlate_window(&[2, 2, -2, -2], &code), 2.0);
    }

    #[test]
    fn render_free_despread_matches_materialised_path() {
        // The render-free path must reproduce render-everything-then-
        // despread decision for decision, including under same-code
        // jamming and ambient noise, at an unaligned start offset.
        let mut r = rng(6);
        let code = SpreadCode::random(256, &mut r);
        let msg: Vec<bool> = (0..24).map(|i| i % 3 == 0).collect();
        let start = 777u64;
        let mut ch = ChipChannel::new(17).with_noise(0.05);
        ch.transmit(start, spread(&msg, &code), 1);
        let garbage: Vec<bool> = (0..12).map(|i| i % 2 == 0).collect();
        ch.transmit(start + 12 * 256, spread(&garbage, &code), 2);
        let samples = ch.render(start, 24 * 256);
        let (want_bits, want_erased) = despread_levels(&samples, &code, DEFAULT_TAU);
        let (bits, erased) = despread_from_channel(&ch, start, &code, 24, DEFAULT_TAU);
        assert_eq!(bits, want_bits);
        assert_eq!(erased, want_erased);
    }

    #[test]
    #[should_panic(expected = "not a multiple")]
    fn misaligned_despread_panics() {
        let mut r = rng(5);
        let code = SpreadCode::random(8, &mut r);
        despread_levels(&[0i32; 12], &code, 0.15);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use rand::{Rng, SeedableRng};

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]
        #[test]
        fn round_trip_any_message(
            seed in 0u64..1000,
            msg in proptest::collection::vec(any::<bool>(), 1..60),
            n in prop_oneof![(5u32..10).prop_map(|p| 1usize << p), 1usize..600],
        ) {
            let mut r = rand::rngs::StdRng::seed_from_u64(seed);
            let code = SpreadCode::random(n, &mut r);
            // Packed spreading equals the per-chip `Vec<bool>` round trip,
            // word-aligned code lengths or not.
            let chips = spread(&msg, &code);
            prop_assert_eq!(&chips, &reference::spread(&msg, &code));
            let levels = chips.to_levels();
            let (bits, erased) = despread_levels(&levels, &code, DEFAULT_TAU);
            prop_assert_eq!(bits, msg);
            prop_assert!(erased.iter().all(|&e| !e));
        }

        #[test]
        fn render_free_despread_equals_materialised(
            seed in 0u64..1000,
            msg in proptest::collection::vec(any::<bool>(), 1..40),
            n in prop_oneof![Just(64usize), Just(128), 1usize..200],
            start in 0u64..2000,
            noise in prop_oneof![Just(None), (0.0f64..1.0).prop_map(Some)],
            jam_amp in prop_oneof![
                Just(None),
                (1i32..=4, any::<bool>()).prop_map(|(a, neg)| Some(if neg { -a } else { a }))
            ],
            others in proptest::collection::vec((0u64..4000, 1usize..600, -6i32..=6), 0..4),
            faults in prop_oneof![Just(None), (0.0f64..1.0).prop_map(Some)],
        ) {
            use jrsnd_sim::faults::{FaultInjector, FaultPlan};
            let mut r = rand::rngs::StdRng::seed_from_u64(seed);
            let code = SpreadCode::random(n, &mut r);
            let mut ch = ChipChannel::new(seed ^ 0xABCD);
            if let Some(p) = noise {
                ch = ch.with_noise(p);
            }
            if let Some(intensity) = faults {
                // Drops, truncations, chip bursts and delays, keyed by
                // the transmission index.
                ch = ch.with_faults(FaultInjector::new(seed, FaultPlan::intensity(intensity)), 3);
            }
            ch.transmit(start, spread(&msg, &code), 1);
            if let Some(amp) = jam_amp {
                // Same-code jammer over the second half of the frame.
                let garbage: Vec<bool> = msg.iter().map(|&b| !b).collect();
                ch.transmit(start + (msg.len() / 2 * n) as u64, spread(&garbage, &code), amp);
            }
            // Overlapping transmissions at arbitrary chips and ±amplitudes.
            for (at, len, amp) in others {
                let chips: Vec<bool> = (0..len).map(|_| r.gen()).collect();
                ch.transmit(at, ChipSeq::from_bits(&chips), if amp == 0 { 1 } else { amp });
            }
            let samples = ch.render(start, msg.len() * n);
            let want = despread_levels(&samples, &code, DEFAULT_TAU);
            let got = despread_from_channel(&ch, start, &code, msg.len(), DEFAULT_TAU);
            prop_assert_eq!(got, want);
            for j in 0..msg.len() {
                let window = &samples[j * n..(j + 1) * n];
                prop_assert_eq!(
                    ch.dot_chips(start + (j * n) as u64, code.chips()),
                    code.chips().dot_levels(window),
                    "bit window {}",
                    j
                );
            }
        }
    }
}
