//! A shared chip-level wireless medium with superposition and jamming.
//!
//! All transmitters in range contribute their ±1 chip streams (scaled by a
//! transmit amplitude) to a common chip clock; the receiver samples the sum.
//! Jamming is nothing special here — a jammer is just another transmitter,
//! typically spreading garbage bits with a (hopefully compromised) code at
//! equal or higher amplitude, which drives the victim's per-bit correlation
//! below the threshold τ.
//!
//! Rendering is the hot path of every chip-level experiment, so it is a
//! blocked, word-parallel kernel: transmissions are kept sorted by start
//! chip (the scan over them stops at the first one past the window),
//! superposition reads 64 packed chips at a time via [`ChipSeq::word_at`]
//! and expands them with the same branchless sign-select as
//! [`ChipSeq::dot_levels`], and ambient noise is drawn from one SplitMix64
//! stream per 64-chip block instead of one full hash per chip. The original
//! chip-at-a-time loop survives verbatim in [`reference`](mod@reference) as the
//! correctness oracle; proptests assert the two render byte-identical
//! samples, noise included, across arbitrary window boundaries.
//!
//! A receiver that is already bit-synchronised needs no samples at all:
//! [`ChipChannel::dot_chips`] correlates a window against a code straight
//! off the packed transmissions (XOR and popcount per 64 chips of each
//! overlapping transmission, plus two packed noise masks per block).

use crate::chip::ChipSeq;
use jrsnd_sim::faults::FaultInjector;
use jrsnd_sim::metric_counter;

/// SplitMix64's golden-ratio increment, used to key noise streams.
const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;

/// The SplitMix64 output mix (finalizer) — three xor-multiply rounds.
#[inline]
fn splitmix_mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Deterministic per-chip noise in {−1, 0, +1}.
///
/// Chips are keyed by `(block, lane)` with `block = chip / 64`: each
/// 64-chip block owns one SplitMix64 stream (state `seed ^ block·G`,
/// advanced by `G` per lane), so the blocked renderer seeds once per block
/// while any single chip is still computable in O(1) — rendering any range
/// any number of times yields identical samples regardless of alignment.
#[inline]
fn noise_chip(seed: u64, threshold: u64, chip: u64) -> i32 {
    if threshold == 0 {
        return 0;
    }
    let block = chip / 64;
    let lane = chip % 64;
    let x = (seed ^ block.wrapping_mul(GOLDEN)).wrapping_add((lane + 1).wrapping_mul(GOLDEN));
    let z = splitmix_mix(x);
    if u64::from(z as u32) < threshold {
        if z & (1 << 40) != 0 {
            1
        } else {
            -1
        }
    } else {
        0
    }
}

/// The low `bits` bits set (all 64 for `bits ≥ 64`).
#[inline]
fn low_mask(bits: usize) -> u64 {
    if bits >= 64 {
        u64::MAX
    } else {
        (1u64 << bits) - 1
    }
}

/// One scheduled transmission on the medium.
#[derive(Debug, Clone)]
struct Transmission {
    start_chip: u64,
    chips: ChipSeq,
    amplitude: i32,
}

impl Transmission {
    fn end_chip(&self) -> u64 {
        self.start_chip + self.chips.len() as u64
    }
}

/// Fault-injection hookup for a channel: a stateless [`FaultInjector`]
/// plus the stream label this channel draws its decisions from and a
/// per-channel transmission counter used as the decision index. The
/// counter advances once per [`ChipChannel::transmit`] call whether or not
/// a fault fires, so the decision for transmission `k` depends only on
/// `(seed, plan, stream, k)` — never on what happened to transmissions
/// `0..k`.
#[derive(Debug, Clone)]
struct FaultState {
    injector: FaultInjector,
    stream: u64,
    next_index: u64,
}

/// A chip-synchronous shared medium.
///
/// Chip indices are absolute (a global chip clock at rate `R`); the caller
/// maps virtual time to chips. Rendering is deterministic: the same channel
/// state renders identical samples for any overlapping ranges.
///
/// # Examples
///
/// ```
/// use jrsnd_dsss::channel::ChipChannel;
/// use jrsnd_dsss::code::SpreadCode;
/// use jrsnd_dsss::spread::{despread_levels, spread, DEFAULT_TAU};
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(7);
/// let code = SpreadCode::random(512, &mut rng);
/// let msg = [true, false, true, true];
/// let mut ch = ChipChannel::new(0);
/// ch.transmit(1000, spread(&msg, &code), 1);
/// let samples = ch.render(1000, 4 * 512);
/// let (bits, _) = despread_levels(&samples, &code, DEFAULT_TAU);
/// assert_eq!(bits, msg);
/// ```
#[derive(Debug, Clone)]
pub struct ChipChannel {
    /// Sorted by `start_chip` (ties keep insertion order). The sum over
    /// transmissions is exact integer addition, so the evaluation order
    /// never changes the rendered samples — sorting is purely a scan-cost
    /// optimisation.
    transmissions: Vec<Transmission>,
    noise_seed: u64,
    /// Probability threshold in 1/2^32 units, held in `u64` so `p = 1.0`
    /// maps to exactly 2^32 ("every chip") — a `u32` cannot express that.
    noise_threshold: u64,
    /// Optional fault injection applied at `transmit` time.
    faults: Option<FaultState>,
}

impl ChipChannel {
    /// Creates a noiseless channel; `noise_seed` only matters once noise is
    /// enabled with [`ChipChannel::with_noise`].
    pub fn new(noise_seed: u64) -> Self {
        ChipChannel {
            transmissions: Vec::new(),
            noise_seed,
            noise_threshold: 0,
            faults: None,
        }
    }

    /// Enables ambient noise: each chip independently receives a ±1
    /// contribution with probability `p`. `p = 1.0` means every chip.
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 <= p <= 1.0`.
    pub fn with_noise(mut self, p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "noise probability out of range");
        self.noise_threshold = (p * 4_294_967_296.0) as u64;
        self
    }

    /// Attaches a [`FaultInjector`] to this channel: every subsequent
    /// [`ChipChannel::transmit`] call may be dropped, truncated,
    /// burst-corrupted, or delayed according to the injector's plan.
    /// `stream` labels this channel in the injector's decision space, so
    /// two channels with distinct streams draw independent faults from the
    /// same seed. With an inert plan the channel behaves exactly like an
    /// un-faulted one.
    pub fn with_faults(mut self, injector: FaultInjector, stream: u64) -> Self {
        self.faults = Some(FaultState {
            injector,
            stream,
            next_index: 0,
        });
        self
    }

    /// Schedules a chip stream starting at absolute chip index
    /// `start_chip`, with integer `amplitude` (a jammer may shout louder
    /// than 1).
    ///
    /// # Panics
    ///
    /// Panics if `amplitude == 0`.
    pub fn transmit(&mut self, start_chip: u64, chips: ChipSeq, amplitude: i32) {
        assert!(amplitude != 0, "amplitude must be nonzero");
        let (mut start_chip, mut chips) = (start_chip, chips);
        if let Some(faults) = &mut self.faults {
            let (inj, stream, index) = (faults.injector, faults.stream, faults.next_index);
            faults.next_index += 1;
            if inj.drops(stream, index) {
                return;
            }
            let cut = inj.truncated_len(stream, index, chips.len());
            if cut < chips.len() {
                chips = chips.truncated(cut);
            }
            if let Some((at, len)) = inj.burst(stream, index, chips.len()) {
                chips.flip_range(at, len);
            }
            start_chip += inj.delay_chips(stream, index);
        }
        // Sorted insert so rendering can stop scanning at the first
        // transmission starting past its window.
        let at = self
            .transmissions
            .partition_point(|t| t.start_chip <= start_chip);
        self.transmissions.insert(
            at,
            Transmission {
                start_chip,
                chips,
                amplitude,
            },
        );
    }

    /// Number of scheduled transmissions.
    pub fn transmission_count(&self) -> usize {
        self.transmissions.len()
    }

    /// Drops every transmission that ended at or before the `watermark`
    /// chip, so long-lived channels (timeline experiments) stop re-scanning
    /// dead transmissions on every render. Returns how many were retired.
    ///
    /// The determinism contract is unchanged for any window that starts at
    /// or after the watermark: retired transmissions could not contribute a
    /// single chip there, and ambient noise is stateless (keyed by absolute
    /// chip index), so such renders are byte-identical before and after the
    /// call. Windows reaching *before* the watermark lose the retired
    /// signals, as intended.
    pub fn retire_before(&mut self, watermark: u64) -> usize {
        let before = self.transmissions.len();
        // `retain` is stable, so the sorted-by-start order is preserved.
        self.transmissions.retain(|t| t.end_chip() > watermark);
        before - self.transmissions.len()
    }

    /// Samples `len` chips starting at absolute index `start`.
    pub fn render(&self, start: u64, len: usize) -> Vec<i32> {
        let mut out = Vec::new();
        self.render_into(&mut out, start, len);
        out
    }

    /// [`ChipChannel::render`] into a caller-owned buffer, so a receiver
    /// evaluating many windows (or many links) reuses one allocation. The
    /// buffer is cleared first — any previous contents are irrelevant to
    /// the rendered samples.
    pub fn render_into(&self, out: &mut Vec<i32>, start: u64, len: usize) {
        out.clear();
        self.render_append(out, start, len);
    }

    /// Appends the `len` chips from absolute index `start` to `out`: the
    /// segment step of a window rendered only as far as a receiver reads
    /// it ([`crate::correlate::MultiCorrelator::scanner_on_air`]). Chips
    /// are keyed by absolute index, so appending adjacent ranges renders
    /// exactly what one call over their union does.
    pub fn render_append(&self, out: &mut Vec<i32>, start: u64, len: usize) {
        if len > 0 && out.capacity() - out.len() >= len {
            metric_counter!("dsss.render_buffers_reused").inc();
        }
        let at = out.len();
        out.resize(at + len, 0);
        metric_counter!("dsss.chips_rendered").add(len as u64);
        if len == 0 {
            return;
        }
        let out = &mut out[at..];
        if self.noise_threshold != 0 {
            self.fill_noise(out, start);
        }
        let end = start + len as u64;
        for tx in &self.transmissions {
            if tx.start_chip >= end {
                break; // sorted by start: nothing later can overlap
            }
            if tx.end_chip() <= start {
                continue;
            }
            Self::add_transmission(out, start, tx);
        }
    }

    /// Bounds the samples of the window `[start, start + len)` from the
    /// transmissions that overlap it, rendering nothing. Returns `(b,
    /// even)`: every sample `s` of the window has `|s| ≤ b`, and with
    /// `even` set, `s + b` is even at every chip.
    ///
    /// The chips covered by one set of transmissions form runs that start
    /// at the window start or where a transmission starts or ends. On such
    /// a run `|s|` is at most the sum of the covering amplitudes' magnitudes,
    /// plus 1 with noise on, and without noise `s` has that sum's parity
    /// (each chip adds `±a ≡ a mod 2`). `b` is the largest bound over the
    /// runs, capped at `2^31` (no `i32` sample is larger); `even` holds
    /// when every run's parity is `b`'s and noise is off.
    pub fn level_bound(&self, start: u64, len: usize) -> (u32, bool) {
        let end = start + len as u64;
        let overlapping = || {
            self.transmissions
                .iter()
                .take_while(move |t| t.start_chip < end)
                .filter(move |t| t.end_chip() > start)
        };
        let (mut bound, mut parities) = (0u64, 0u8);
        let mut run_at = |chip: u64| {
            if (start..end).contains(&chip) {
                let sum: u64 = overlapping()
                    .filter(|t| (t.start_chip..t.end_chip()).contains(&chip))
                    .map(|t| u64::from(t.amplitude.unsigned_abs()))
                    .sum();
                bound = bound.max(sum);
                parities |= 1 << (sum % 2);
            }
        };
        run_at(start);
        for t in overlapping() {
            run_at(t.start_chip);
            run_at(t.end_chip());
        }
        let noise = self.noise_threshold != 0;
        let bound = bound + u64::from(noise);
        let b = bound.min(1 << 31);
        let even = !noise && b == bound && parities == 1 << (b % 2);
        (b as u32, even)
    }

    /// The dot product `Σ sᵢ·cᵢ` of the window `[start, start + chips.len())`
    /// with the ±1 sequence `chips`, computed straight off the packed
    /// transmissions: each one overlapping the window adds
    /// `a·(len − 2·popcnt((tx ⊕ chips) ∧ overlap))`, and ambient noise adds
    /// the signed popcounts of its two masks per 64-chip block. Exactly
    /// `chips.dot_levels(&self.render(start, chips.len()))` whenever the
    /// rendered samples fit `i32`, with nothing rendered — the receive
    /// path of [`crate::spread::despread_from_channel`].
    pub fn dot_chips(&self, start: u64, chips: &ChipSeq) -> i64 {
        let len = chips.len();
        let end = start + len as u64;
        let mut acc = 0i64;
        if self.noise_threshold != 0 {
            let thr = self.noise_threshold;
            for (i, take, mut x) in self.noise_blocks(start, len) {
                // Bit k of `plus` (`minus`): window chip i + k carries +1
                // (−1) noise.
                let (mut plus, mut minus) = (0u64, 0u64);
                for k in 0..take {
                    let z = splitmix_mix(x);
                    x = x.wrapping_add(GOLDEN);
                    let hit = u64::from(u64::from(z as u32) < thr);
                    let up = (z >> 40) & 1;
                    plus |= (hit & up) << k;
                    minus |= (hit & !up) << k;
                }
                let c = chips.word_at(i) & low_mask(take);
                let (up, down) = (i64::from(plus.count_ones()), i64::from(minus.count_ones()));
                let (up_c, down_c) = (
                    i64::from((plus & c).count_ones()),
                    i64::from((minus & c).count_ones()),
                );
                // +1 noise agrees with +1 chips, −1 noise with −1 chips.
                acc += (2 * up_c - up) - (2 * down_c - down);
            }
        }
        for tx in &self.transmissions {
            if tx.start_chip >= end {
                break; // sorted by start: nothing later can overlap
            }
            if tx.end_chip() <= start {
                continue;
            }
            let from = tx.start_chip.max(start);
            let to = tx.end_chip().min(end);
            let rel = (from - tx.start_chip) as usize;
            let at = (from - start) as usize;
            let overlap = (to - from) as usize;
            let mut mismatches = 0i64;
            for i in (0..overlap).step_by(64) {
                let x = tx.chips.word_at(rel + i) ^ chips.word_at(at + i);
                mismatches += i64::from((x & low_mask(overlap - i)).count_ones());
            }
            acc += i64::from(tx.amplitude) * (overlap as i64 - 2 * mismatches);
        }
        acc
    }

    /// Writes ±1 ambient noise over the zeroed buffer, one block stream at
    /// a time.
    fn fill_noise(&self, out: &mut [i32], start: u64) {
        let thr = self.noise_threshold;
        for (i, take, mut x) in self.noise_blocks(start, out.len()) {
            for slot in &mut out[i..i + take] {
                let z = splitmix_mix(x);
                x = x.wrapping_add(GOLDEN);
                if u64::from(z as u32) < thr {
                    *slot = if z & (1 << 40) != 0 { 1 } else { -1 };
                }
            }
        }
    }

    /// The pieces of the window `[start, start + len)` that lie in one
    /// 64-chip noise block, as `(i, take, x)`: the piece covers window
    /// chips `i .. i + take`, and `x` is the SplitMix64 state of its first
    /// chip. The per-block state is seeded once and advanced by one
    /// golden-ratio add + mix per chip.
    fn noise_blocks(&self, start: u64, len: usize) -> impl Iterator<Item = (usize, usize, u64)> {
        let seed = self.noise_seed;
        let mut i = 0usize;
        std::iter::from_fn(move || {
            if i >= len {
                return None;
            }
            let chip = start + i as u64;
            let (block, lane) = (chip / 64, chip % 64);
            let take = (64 - lane as usize).min(len - i);
            let x =
                (seed ^ block.wrapping_mul(GOLDEN)).wrapping_add((lane + 1).wrapping_mul(GOLDEN));
            let piece = (i, take, x);
            i += take;
            Some(piece)
        })
    }

    /// Superposes one transmission's overlap with the window. The word
    /// loop lives in [`crate::simd::add_levels`], dispatched at runtime to
    /// the widest kernel the CPU supports; this wrapper only computes the
    /// overlap geometry.
    fn add_transmission(out: &mut [i32], start: u64, tx: &Transmission) {
        let end = start + out.len() as u64;
        let from = tx.start_chip.max(start);
        let to = tx.end_chip().min(end);
        let rel = (from - tx.start_chip) as usize;
        let oi = (from - start) as usize;
        let len = (to - from) as usize;
        crate::simd::add_levels(&mut out[oi..oi + len], &tx.chips, rel, tx.amplitude);
    }

    /// Per-chip noise — exposed for the oracle and boundary tests.
    #[cfg(test)]
    fn noise_at(&self, chip: u64) -> i32 {
        noise_chip(self.noise_seed, self.noise_threshold, chip)
    }
}

/// The chip-at-a-time renderer, kept verbatim from before the word-parallel
/// rewrite as the correctness oracle.
///
/// Proptests and the kernel-equivalence suite assert that
/// [`ChipChannel::render`] reproduces it byte-for-byte (noise included,
/// across arbitrary window boundaries). Not used on any hot path.
pub mod reference {
    use super::{noise_chip, ChipChannel};

    /// Chip-at-a-time [`ChipChannel::render`]: one noise evaluation and one
    /// `ChipSeq::chip` bit extraction per chip, full transmission scan.
    pub fn render(channel: &ChipChannel, start: u64, len: usize) -> Vec<i32> {
        let mut out: Vec<i32> = (0..len as u64)
            .map(|i| noise_chip(channel.noise_seed, channel.noise_threshold, start + i))
            .collect();
        let end = start + len as u64;
        for tx in &channel.transmissions {
            let tx_end = tx.start_chip + tx.chips.len() as u64;
            if tx_end <= start || tx.start_chip >= end {
                continue;
            }
            let from = tx.start_chip.max(start);
            let to = tx_end.min(end);
            for abs in from..to {
                let chip_idx = (abs - tx.start_chip) as usize;
                out[(abs - start) as usize] += i32::from(tx.chips.chip(chip_idx)) * tx.amplitude;
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::code::SpreadCode;
    use crate::spread::{despread_levels, spread, DEFAULT_TAU};
    use rand::SeedableRng;

    fn rng(seed: u64) -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(seed)
    }

    #[test]
    fn single_transmission_round_trips() {
        let mut r = rng(1);
        let code = SpreadCode::random(256, &mut r);
        let msg: Vec<bool> = (0..10).map(|i| i % 2 == 0).collect();
        let mut ch = ChipChannel::new(0);
        ch.transmit(500, spread(&msg, &code), 1);
        let samples = ch.render(500, 10 * 256);
        let (bits, erased) = despread_levels(&samples, &code, DEFAULT_TAU);
        assert_eq!(bits, msg);
        assert!(erased.iter().all(|&e| !e));
    }

    #[test]
    fn silence_renders_zero() {
        let ch = ChipChannel::new(9);
        assert!(ch.render(0, 100).iter().all(|&s| s == 0));
    }

    #[test]
    fn partial_overlap_is_windowed_correctly() {
        let mut ch = ChipChannel::new(0);
        let chips = ChipSeq::from_bits(&[true; 8]);
        ch.transmit(10, chips, 1);
        // Window [6, 14): four zeros then four ones.
        let samples = ch.render(6, 8);
        assert_eq!(samples, vec![0, 0, 0, 0, 1, 1, 1, 1]);
        // Window fully past the transmission.
        assert!(ch.render(18, 4).iter().all(|&s| s == 0));
    }

    #[test]
    fn concurrent_different_codes_coexist() {
        let mut r = rng(2);
        let code_a = SpreadCode::random(512, &mut r);
        let code_b = SpreadCode::random(512, &mut r);
        let msg_a: Vec<bool> = (0..8).map(|i| i % 2 == 0).collect();
        let msg_b: Vec<bool> = (0..8).map(|i| i % 3 == 0).collect();
        let mut ch = ChipChannel::new(0);
        ch.transmit(0, spread(&msg_a, &code_a), 1);
        ch.transmit(0, spread(&msg_b, &code_b), 1);
        let samples = ch.render(0, 8 * 512);
        let (bits_a, er_a) = despread_levels(&samples, &code_a, DEFAULT_TAU);
        let (bits_b, er_b) = despread_levels(&samples, &code_b, DEFAULT_TAU);
        assert_eq!(bits_a, msg_a);
        assert_eq!(bits_b, msg_b);
        assert!(er_a.iter().chain(&er_b).all(|&e| !e));
    }

    #[test]
    fn same_code_jamming_destroys_bits() {
        let mut r = rng(3);
        let code = SpreadCode::random(512, &mut r);
        let msg: Vec<bool> = (0..40).map(|i| i % 2 == 0).collect();
        let mut ch = ChipChannel::new(0);
        ch.transmit(0, spread(&msg, &code), 1);
        // Reactive jammer: same code, garbage bits, double amplitude,
        // synchronized to the bit boundaries.
        let garbage: Vec<bool> = (0..40).map(|i| i % 3 == 0).collect();
        ch.transmit(0, spread(&garbage, &code), 2);
        let samples = ch.render(0, 40 * 512);
        let (bits, erased) = despread_levels(&samples, &code, DEFAULT_TAU);
        let corrupted = bits
            .iter()
            .zip(&msg)
            .zip(&erased)
            .filter(|((b, m), e)| **e || b != m)
            .count();
        // Where the garbage bit differs from the data bit (about half the
        // positions) the stronger jammer flips or erases the decision.
        assert!(corrupted >= 10, "only {corrupted}/40 bits corrupted");
    }

    #[test]
    fn wrong_code_jamming_is_harmless() {
        let mut r = rng(4);
        let code = SpreadCode::random(512, &mut r);
        let wrong = SpreadCode::random(512, &mut r);
        let msg: Vec<bool> = (0..40).map(|i| i % 5 < 2).collect();
        let mut ch = ChipChannel::new(0);
        ch.transmit(0, spread(&msg, &code), 1);
        let garbage: Vec<bool> = (0..40).map(|i| i % 2 == 0).collect();
        ch.transmit(0, spread(&garbage, &wrong), 2);
        let samples = ch.render(0, 40 * 512);
        let (bits, erased) = despread_levels(&samples, &code, DEFAULT_TAU);
        let corrupted = bits
            .iter()
            .zip(&msg)
            .zip(&erased)
            .filter(|((b, m), e)| **e || b != m)
            .count();
        assert!(
            corrupted <= 2,
            "{corrupted}/40 bits corrupted by wrong-code jamming"
        );
    }

    #[test]
    fn noise_is_deterministic_and_sparse() {
        let ch = ChipChannel::new(42).with_noise(0.05);
        let a = ch.render(1000, 10_000);
        let b = ch.render(1000, 10_000);
        assert_eq!(a, b);
        // Overlapping window agrees chip-for-chip.
        let c = ch.render(5000, 1000);
        assert_eq!(&a[4000..5000], &c[..]);
        let noisy = a.iter().filter(|&&s| s != 0).count();
        assert!((300..=700).contains(&noisy), "noisy chips: {noisy}");
    }

    #[test]
    fn full_noise_probability_covers_every_chip() {
        // Regression: p = 1.0 must mean *every* chip gets ±1 noise — the
        // old `(p · u32::MAX) as u32` threshold with a strict `<` left a
        // handful of chips noiseless.
        let ch = ChipChannel::new(3).with_noise(1.0);
        let samples = ch.render(0, 50_000);
        assert!(
            samples.iter().all(|&s| s == 1 || s == -1),
            "p = 1.0 left chips noiseless"
        );
        // And both signs occur.
        assert!(samples.contains(&1) && samples.contains(&-1));
    }

    #[test]
    fn noise_matches_per_chip_evaluation() {
        // The blocked stream and the O(1) per-chip formula are the same
        // noise, at every lane of a block and across block boundaries.
        let ch = ChipChannel::new(77).with_noise(0.3);
        for start in [0u64, 1, 63, 64, 100, 127, 1000] {
            let rendered = ch.render(start, 200);
            for (i, &s) in rendered.iter().enumerate() {
                assert_eq!(
                    s,
                    ch.noise_at(start + i as u64),
                    "chip {}",
                    start + i as u64
                );
            }
        }
    }

    #[test]
    fn decoding_survives_light_noise() {
        let mut r = rng(5);
        let code = SpreadCode::random(512, &mut r);
        let msg: Vec<bool> = (0..20).map(|i| i % 4 == 0).collect();
        let mut ch = ChipChannel::new(7).with_noise(0.02);
        ch.transmit(0, spread(&msg, &code), 1);
        let samples = ch.render(0, 20 * 512);
        let (bits, erased) = despread_levels(&samples, &code, DEFAULT_TAU);
        assert_eq!(bits, msg);
        assert!(erased.iter().all(|&e| !e));
    }

    #[test]
    fn subrange_renders_are_byte_identical() {
        // One call vs. two adjacent sub-range calls must agree chip for
        // chip, including with noise enabled and splits that are not
        // 64-aligned (block boundaries must not leak into the samples).
        let mut r = rng(11);
        let code = SpreadCode::random(256, &mut r);
        let msg: Vec<bool> = (0..16).map(|i| i % 3 != 0).collect();
        let mut ch = ChipChannel::new(5).with_noise(0.1);
        ch.transmit(100, spread(&msg, &code), 2);
        ch.transmit(700, spread(&msg, &code), -1);
        let len = 16 * 256 + 400;
        let whole = ch.render(50, len);
        for split in [1usize, 63, 64, 65, 1000, 1001, len - 1] {
            let mut parts = ch.render(50, split);
            parts.extend(ch.render(50 + split as u64, len - split));
            assert_eq!(whole, parts, "split at {split}");
        }
    }

    #[test]
    fn render_into_ignores_dirty_buffers() {
        let mut r = rng(12);
        let code = SpreadCode::random(128, &mut r);
        let mut ch = ChipChannel::new(13).with_noise(0.07);
        ch.transmit(30, spread(&[true, false, true], &code), 1);
        let clean = ch.render(0, 600);
        let mut dirty = vec![i32::MAX; 4096]; // longer than the render, garbage contents
        ch.render_into(&mut dirty, 0, 600);
        assert_eq!(dirty, clean);
        // And a shorter dirty buffer grows correctly.
        let mut short = vec![-7i32; 3];
        ch.render_into(&mut short, 0, 600);
        assert_eq!(short, clean);
    }

    #[test]
    fn retire_before_drops_only_dead_transmissions() {
        let mut ch = ChipChannel::new(0);
        ch.transmit(0, ChipSeq::from_bits(&[true; 64]), 1); // ends at 64
        ch.transmit(50, ChipSeq::from_bits(&[true; 64]), 1); // ends at 114
        ch.transmit(200, ChipSeq::from_bits(&[true; 64]), 1); // ends at 264
        let after = ch.render(100, 200);
        assert_eq!(ch.retire_before(100), 1, "only the first one is dead");
        assert_eq!(ch.transmission_count(), 2);
        // Windows at or after the watermark are byte-identical.
        assert_eq!(ch.render(100, 200), after);
        assert_eq!(ch.retire_before(300), 2);
        assert!(ch.render(300, 50).iter().all(|&s| s == 0));
    }

    #[test]
    fn level_bound_reads_the_overlapping_amplitudes() {
        let mut ch = ChipChannel::new(0);
        let chips = |len: usize| ChipSeq::from_bits(&vec![true; len]);
        ch.transmit(0, chips(100), 1);
        ch.transmit(100, chips(100), -1);
        // Two back-to-back ±1 transmissions: |s| = 1, odd everywhere.
        assert_eq!(ch.level_bound(0, 200), (1, true));
        // Silence past them is even, so the parity is mixed.
        assert_eq!(ch.level_bound(150, 100), (1, false));
        ch.transmit(50, chips(100), 3);
        assert_eq!(ch.level_bound(0, 200), (4, false));
        assert_eq!(ch.level_bound(60, 40), (4, true));
        assert_eq!(ch.level_bound(300, 0), (0, false));
        // Noise adds one and hides the parity.
        let noisy = ch.clone().with_noise(0.1);
        assert_eq!(noisy.level_bound(60, 40), (5, false));
        // Sums past any i32 sample are capped at 2^31.
        ch.transmit(0, chips(10), i32::MIN);
        ch.transmit(0, chips(10), i32::MAX);
        assert_eq!(ch.level_bound(0, 10), (1 << 31, false));
    }

    #[test]
    fn retire_before_keeps_noise_unchanged() {
        let mut ch = ChipChannel::new(21).with_noise(0.2);
        ch.transmit(0, ChipSeq::from_bits(&[true; 32]), 1);
        let before = ch.render(64, 512);
        ch.retire_before(64);
        assert_eq!(ch.render(64, 512), before);
    }

    #[test]
    fn packed_render_matches_reference_with_many_transmissions() {
        let mut r = rng(14);
        let codes: Vec<SpreadCode> = (0..4).map(|_| SpreadCode::random(512, &mut r)).collect();
        let mut ch = ChipChannel::new(99).with_noise(0.05);
        for (i, code) in codes.iter().enumerate() {
            let msg: Vec<bool> = (0..6).map(|b| (b + i) % 2 == 0).collect();
            ch.transmit((i * 777) as u64, spread(&msg, code), (i as i32 % 3) - 4);
        }
        for (start, len) in [(0u64, 8000usize), (1, 100), (770, 3000), (5000, 1)] {
            assert_eq!(
                ch.render(start, len),
                reference::render(&ch, start, len),
                "start {start} len {len}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "amplitude must be nonzero")]
    fn zero_amplitude_rejected() {
        let mut ch = ChipChannel::new(0);
        ch.transmit(0, ChipSeq::from_bits(&[true]), 0);
    }

    #[test]
    fn inert_faults_leave_the_channel_byte_identical() {
        use jrsnd_sim::faults::FaultPlan;
        let inj = FaultInjector::new(99, FaultPlan::none());
        let mut plain = ChipChannel::new(3);
        let mut faulted = ChipChannel::new(3).with_faults(inj, 0);
        let chips: Vec<bool> = (0..300).map(|i| i % 3 != 0).collect();
        for i in 0..8u64 {
            plain.transmit(i * 100, ChipSeq::from_bits(&chips), 1);
            faulted.transmit(i * 100, ChipSeq::from_bits(&chips), 1);
        }
        assert_eq!(plain.render(0, 2000), faulted.render(0, 2000));
    }

    #[test]
    fn faulted_transmissions_are_deterministic_per_seed_and_stream() {
        use jrsnd_sim::faults::FaultPlan;
        let build = |seed: u64, stream: u64| {
            let inj = FaultInjector::new(seed, FaultPlan::intensity(0.9));
            let mut ch = ChipChannel::new(0).with_faults(inj, stream);
            let chips: Vec<bool> = (0..256).map(|i| i % 5 < 2).collect();
            for i in 0..32u64 {
                ch.transmit(i * 300, ChipSeq::from_bits(&chips), 1);
            }
            ch.render(0, 32 * 300 + 512)
        };
        assert_eq!(build(7, 1), build(7, 1));
        assert_ne!(build(7, 1), build(8, 1));
        assert_ne!(build(7, 1), build(7, 2));
    }

    #[test]
    fn drop_faults_bound_the_transmission_list() {
        use jrsnd_sim::faults::FaultPlan;
        let plan = FaultPlan {
            drop_prob: 1.0,
            ..FaultPlan::none()
        };
        let mut ch = ChipChannel::new(0).with_faults(FaultInjector::new(1, plan), 0);
        for i in 0..64u64 {
            ch.transmit(i * 10, ChipSeq::from_bits(&[true; 16]), 1);
        }
        assert_eq!(ch.transmission_count(), 0);
        assert_eq!(ch.render(0, 700), vec![0; 700]);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::chip::ChipSeq;
    use proptest::prelude::*;

    /// A random channel: up to 8 transmissions with arbitrary starts,
    /// lengths, and (nonzero) amplitudes, plus optional noise.
    fn arb_channel() -> impl Strategy<Value = ChipChannel> {
        (
            any::<u64>(),
            prop_oneof![Just(None), (0.0f64..1.0).prop_map(Some)],
            proptest::collection::vec(
                (
                    0u64..4000,
                    proptest::collection::vec(any::<bool>(), 1..500),
                    prop_oneof![-8i32..0, 1i32..=8],
                ),
                0..8,
            ),
        )
            .prop_map(|(seed, noise, txs)| {
                let mut ch = ChipChannel::new(seed);
                if let Some(p) = noise {
                    ch = ch.with_noise(p);
                }
                for (start, bits, amp) in txs {
                    ch.transmit(start, ChipSeq::from_bits(&bits), amp);
                }
                ch
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn packed_render_matches_reference(
            ch in arb_channel(),
            start in 0u64..5000,
            len in 0usize..2000,
        ) {
            let packed = ch.render(start, len);
            let oracle = reference::render(&ch, start, len);
            prop_assert_eq!(packed, oracle);
        }

        #[test]
        fn split_renders_match_whole(
            ch in arb_channel(),
            start in 0u64..3000,
            len in 1usize..1500,
            split_frac in 0.0f64..1.0,
        ) {
            let whole = ch.render(start, len);
            let split = ((len as f64 * split_frac) as usize).min(len);
            let mut parts = ch.render(start, split);
            parts.extend(ch.render(start + split as u64, len - split));
            prop_assert_eq!(whole, parts);
        }

        #[test]
        fn level_bound_holds_every_rendered_sample(
            ch in arb_channel(),
            start in 0u64..5000,
            len in 0usize..2000,
        ) {
            // |s| ≤ b everywhere, and s + b is even everywhere when the
            // bound says so — the plane layout of an on-air window.
            let (b, even) = ch.level_bound(start, len);
            for (i, s) in ch.render(start, len).into_iter().enumerate() {
                prop_assert!(s.unsigned_abs() <= b, "chip {}: |{}| > {}", i, s, b);
                prop_assert!(!even || (i64::from(s) + i64::from(b)) % 2 == 0, "chip {}", i);
            }
        }

        #[test]
        fn render_into_reuse_is_transparent(
            ch in arb_channel(),
            windows in proptest::collection::vec((0u64..4000, 0usize..1200), 1..5),
        ) {
            let mut buf = Vec::new();
            for (start, len) in windows {
                ch.render_into(&mut buf, start, len);
                prop_assert_eq!(&buf, &ch.render(start, len));
            }
        }
    }
}
