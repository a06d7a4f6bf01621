//! Batched correlation of one sample buffer against a whole code bank.
//!
//! Section V-B makes the receiver's buffer processing the cost center of
//! JR-SND: every buffered chip offset is correlated against **all** `m`
//! candidate codes in ℂ_B, and the per-correlation cost ρ drives the
//! processing/buffering gap λ = ρNmR of the latency analysis. This module
//! is the fast path for that computation.
//!
//! The trick: chips are ±1 and already bit-packed
//! ([`ChipSeq`](crate::chip::ChipSeq)), so with `P = Σ_{cᵢ=+1} sᵢ` (the
//! positive-chip partial sum) and `T = Σ sᵢ` (the window total),
//!
//! ```text
//! Σ sᵢ·cᵢ = 2·P − T.
//! ```
//!
//! `T` is independent of the code, so it is computed once per window and
//! shared by every code; [`MultiCorrelator`] evaluates all `m` codes per
//! window so the loaded window is reused `m` times before sliding on.
//!
//! **Bit planes.** Every buffer is held as offset-binary bit planes
//! ([`BitPlanes`]). With `B = max|s|`, the value `u = s + B` lies in
//! `0..=2B`, which is below `2^32` for any `i32` buffer, so the bit length
//! of `2B` planes hold it — at most [`simd::MAX_PLANES`] (`planeₚ` bit `i`
//! = bit `p` of `uᵢ`). Planes that are zero over the whole buffer are not
//! stored: a clean ±1 window keeps one plane, and an amplitude-3
//! same-code jam over it three. For a code with positive-chip mask `c⁺`,
//!
//! ```text
//! Σ sᵢ·cᵢ = 2·Σₚ 2ᵖ·popcnt(planeₚ ∧ c⁺) − 2B·|c⁺| − T,
//! ```
//!
//! the same packed identity that [`ChipSeq::correlate`](crate::chip::ChipSeq::correlate)
//! uses between two codes. Each code's mask is pre-shifted by all 64
//! residues when the bank is assigned, so one block of 64 consecutive
//! offsets is a broadcast plane word ANDed with 64 mask words — vector
//! `popcnt` work ([`simd::plane_sums_at`]). Window totals come from the
//! planes as well (per-word weighted popcounts plus one partial word at
//! each end), so a buffer needs no per-sample prefix pass.
//!
//! Every step is exact integer arithmetic, at any amplitude, until the one
//! final division by `N`, so every correlation is bit-identical to the
//! scalar one-chip-at-a-time implementation that survives as the oracle
//! in [`crate::spread::reference`]; proptests assert the kernel agrees
//! with it bit-for-bit up to the `i32` limits.

use crate::code::SpreadCode;
use crate::simd;
use crate::spread::decide;
use crate::sync::Frame;

/// A bank of equal-length candidate codes, laid out for batched window
/// correlation.
///
/// # Examples
///
/// ```
/// use jrsnd_dsss::code::SpreadCode;
/// use jrsnd_dsss::correlate::MultiCorrelator;
/// use jrsnd_dsss::spread::spread;
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let codes: Vec<SpreadCode> = (0..4).map(|_| SpreadCode::random(256, &mut rng)).collect();
/// let refs: Vec<&SpreadCode> = codes.iter().collect();
/// let bank = MultiCorrelator::new(&refs);
///
/// let samples = spread(&[true], &codes[2]).to_levels();
/// let mut scanner = bank.scanner(&samples);
/// let mut corr = [0.0; 4];
/// scanner.correlate_all(0, &mut corr);
/// assert_eq!(corr[2], 1.0); // the matching code correlates perfectly
/// assert!(corr[0].abs() < 0.15 && corr[1].abs() < 0.15 && corr[3].abs() < 0.15);
/// ```
#[derive(Debug, Clone)]
pub struct MultiCorrelator<'a> {
    codes: Vec<&'a SpreadCode>,
    n: usize,
    /// Words a window touches at any residue: `⌈(N + 63)/64⌉`.
    mask_words: usize,
    /// Each code's positive-chip mask shifted left by every residue
    /// `r < 64`, laid out `[code][word][r]` (`mask_words · 64` words per
    /// code): word `w` of residue `r` covers chips `64w − r ..` of the
    /// code.
    shifted: Vec<u64>,
    /// `|c⁺|`, the number of +1 chips of each code.
    pos_counts: Vec<i64>,
}

impl<'a> MultiCorrelator<'a> {
    /// Builds a bank over `codes`.
    ///
    /// An empty bank is allowed (scans over it find nothing).
    ///
    /// # Panics
    ///
    /// Panics if the codes do not share one chip length.
    pub fn new(codes: &[&'a SpreadCode]) -> Self {
        let mut bank = MultiCorrelator {
            codes: Vec::new(),
            n: 0,
            mask_words: 0,
            shifted: Vec::new(),
            pos_counts: Vec::new(),
        };
        bank.assign(codes.iter().copied());
        bank
    }

    /// Re-points this bank at `codes`, shifting their packed words into
    /// the retained mask storage. Once the storage has grown to the
    /// largest bank assigned, re-pointing allocates nothing — the batch
    /// session engine keeps one bank per shard and assigns each session's
    /// codes to it. Correlations are bit-identical to a fresh
    /// [`MultiCorrelator::new`] over the same codes.
    ///
    /// # Panics
    ///
    /// Panics if the codes do not share one chip length.
    pub fn assign(&mut self, codes: impl IntoIterator<Item = &'a SpreadCode>) {
        self.codes.clear();
        self.codes.extend(codes);
        let n = self.codes.first().map_or(0, |c| c.len());
        assert!(
            self.codes.iter().all(|c| c.len() == n),
            "all candidate codes must share one chip length"
        );
        self.n = n;
        let words = if n == 0 { 0 } else { (n + 63).div_ceil(64) };
        self.mask_words = words;
        self.shifted.clear();
        self.shifted.resize(words * 64 * self.codes.len(), 0);
        self.pos_counts.clear();
        for (rows, code) in self
            .shifted
            .chunks_exact_mut((words * 64).max(1))
            .zip(&self.codes)
        {
            let cw = code.chips().words();
            // Padding bits past N are zero, so shifting whole words keeps
            // every residue's mask confined to its window's N chips.
            let word = |i: usize| cw.get(i).copied().unwrap_or(0);
            for (w, row) in rows.chunks_exact_mut(64).enumerate() {
                row[0] = word(w);
                for (r, slot) in row.iter_mut().enumerate().skip(1) {
                    let below = if w == 0 { 0 } else { word(w - 1) >> (64 - r) };
                    *slot = (word(w) << r) | below;
                }
            }
        }
        self.pos_counts.extend(self.codes.iter().map(|c| {
            c.chips()
                .words()
                .iter()
                .map(|w| i64::from(w.count_ones()))
                .sum::<i64>()
        }));
    }

    /// The candidate codes, in bank order.
    pub fn codes(&self) -> &[&'a SpreadCode] {
        &self.codes
    }

    /// Number of codes `m`.
    pub fn num_codes(&self) -> usize {
        self.codes.len()
    }

    /// Whether the bank holds no codes.
    pub fn is_empty(&self) -> bool {
        self.codes.is_empty()
    }

    /// Chip length `N` shared by every code (0 for an empty bank).
    pub fn code_len(&self) -> usize {
        self.n
    }

    /// Prepares `samples` for repeated window correlation: one pass that
    /// holds the buffer as bit planes for every subsequent offset to
    /// reuse.
    pub fn scanner<'s>(&'s self, samples: &'s [i32]) -> BankScanner<'s, 'a> {
        let mut planes = BitPlanes::new();
        planes.compute(samples);
        BankScanner {
            bank: self,
            samples,
            held: Held::Owned(planes),
        }
    }

    /// [`MultiCorrelator::scanner`] with caller-pooled storage: the pass
    /// over `samples` is written into `planes`, whose storage is retained
    /// across buffers, so a receiver scanning buffer after buffer
    /// allocates nothing once `planes` has grown to the largest one.
    /// Correlations are bit-identical to [`MultiCorrelator::scanner`].
    pub fn scanner_with<'s>(
        &'s self,
        samples: &'s [i32],
        planes: &'s mut BitPlanes,
    ) -> BankScanner<'s, 'a> {
        planes.compute(samples);
        BankScanner {
            bank: self,
            samples,
            held: Held::Pooled(planes),
        }
    }

    /// Code `c`'s residue-shifted mask words.
    #[inline]
    fn shifted(&self, c: usize) -> &[u64] {
        let len = self.mask_words * 64;
        &self.shifted[c * len..(c + 1) * len]
    }
}

/// A sample buffer held as offset-binary bit planes (see the
/// [module docs](self)): its largest magnitude `B = max|s|`, the planes
/// of `u = s + B` that are not zero everywhere, and per-word totals of
/// `u`, from which [`BitPlanes::range_total`] is exact.
///
/// The backing vectors are retained across [`BitPlanes::compute`] calls,
/// so a pooled instance ([`MultiCorrelator::scanner_with`]) reaches a
/// steady state with no per-use allocation.
#[derive(Debug, Clone, Default)]
pub struct BitPlanes {
    /// The stored plane words, `n_planes` per 64-sample chunk, plus one
    /// zero chunk of padding so a window's last word read stays in
    /// bounds.
    planes: Vec<u64>,
    /// The bit of `u` each stored plane holds, ascending.
    bits: [u32; simd::MAX_PLANES],
    /// `cum[w] = Σ uᵢ` over the chunks before chunk `w`.
    cum: Vec<i64>,
    n_planes: usize,
    len: usize,
    max_abs: u32,
}

impl BitPlanes {
    /// An empty instance (covers zero chips until [`BitPlanes::compute`]).
    pub fn new() -> Self {
        BitPlanes::default()
    }

    /// Holds `samples`, reusing the backing storage: one magnitude pass,
    /// then the bit planes, with the planes that are zero everywhere
    /// dropped (a noiseless ±1 buffer keeps one plane of its
    /// `u ∈ {0, 2}`), then each chunk's total.
    pub fn compute(&mut self, samples: &[i32]) {
        self.len = samples.len();
        self.max_abs = samples.iter().map(|s| s.unsigned_abs()).max().unwrap_or(0);
        let chunks = samples.len().div_ceil(64) + 1;
        let all = simd::planes_for(self.max_abs);
        self.planes.clear();
        self.planes.resize(chunks * all, 0);
        // Wraps to i32::MIN when B = 2^31; the kernel reads `u` as `u32`.
        let bias = self.max_abs as i32;
        simd::fill_planes_at(simd::active(), all, samples, bias, &mut self.planes);
        let mut kept = 0;
        for bit in 0..all {
            if self.planes.iter().skip(bit).step_by(all).any(|&w| w != 0) {
                self.bits[kept] = bit as u32;
                kept += 1;
            }
        }
        if kept < all {
            // Compact in place: chunk w's kept words move down to
            // w·kept, never past a word not yet read.
            for w in 0..chunks {
                for i in 0..kept {
                    self.planes[w * kept + i] = self.planes[w * all + self.bits[i] as usize];
                }
            }
            self.planes.truncate(chunks * kept);
        }
        self.n_planes = kept;
        let bits = &self.bits[..kept];
        let planes = &self.planes;
        let mut acc = 0i64;
        self.cum.clear();
        self.cum.extend((0..chunks).map(|w| {
            let at = acc;
            acc += weighted_popcount(bits, &planes[w * kept..(w + 1) * kept], u64::MAX);
            at
        }));
    }

    /// Number of chips covered (the length of the buffer last computed).
    pub fn chips(&self) -> usize {
        self.len
    }

    /// `Σ samples[start..end]`, exactly.
    ///
    /// # Panics
    ///
    /// Panics unless `start <= end <= self.chips()`.
    #[inline]
    pub fn range_total(&self, start: usize, end: usize) -> i64 {
        assert!(start <= end && end <= self.len, "range outside the buffer");
        self.u_prefix(end) - self.u_prefix(start) - (end - start) as i64 * i64::from(self.max_abs)
    }

    /// `Σ_{i<k} uᵢ`: the chunk totals before `k`'s chunk plus the weighted
    /// popcount of its low `k mod 64` lanes.
    #[inline]
    fn u_prefix(&self, k: usize) -> i64 {
        let (bits, planes) = self.planes();
        let (w, p) = (k / 64, bits.len());
        let low = (1u64 << (k % 64)) - 1;
        self.cum[w] + weighted_popcount(bits, &planes[w * p..(w + 1) * p], low)
    }

    /// The largest `|s|` in the buffer last computed (0 if it was empty).
    pub(crate) fn max_abs(&self) -> u32 {
        self.max_abs
    }

    /// The stored planes' bits and words.
    #[inline]
    fn planes(&self) -> (&[u32], &[u64]) {
        (&self.bits[..self.n_planes], &self.planes)
    }
}

/// `Σₚ 2^{bits[p]}·popcnt(words[p] ∧ mask)`: the sum of the offset-binary
/// values selected by `mask` in one plane word.
#[inline]
fn weighted_popcount(bits: &[u32], words: &[u64], mask: u64) -> i64 {
    bits.iter()
        .zip(words)
        .map(|(&bit, &w)| i64::from((w & mask).count_ones()) << bit)
        .sum()
}

/// Where a scanner's planes live: its own pass, or a caller-pooled
/// [`BitPlanes`].
#[derive(Debug)]
enum Held<'s> {
    Owned(BitPlanes),
    Pooled(&'s BitPlanes),
}

impl Held<'_> {
    #[inline]
    fn planes(&self) -> &BitPlanes {
        match self {
            Held::Owned(p) => p,
            Held::Pooled(p) => p,
        }
    }
}

/// A buffer prepared for sliding-window correlation against a bank: the
/// bank, the samples and their bit planes.
#[derive(Debug)]
pub struct BankScanner<'s, 'a> {
    bank: &'s MultiCorrelator<'a>,
    samples: &'s [i32],
    /// The buffer's planes — owned or pooled.
    held: Held<'s>,
}

impl BankScanner<'_, '_> {
    /// The underlying bank.
    pub fn bank(&self) -> &MultiCorrelator<'_> {
        self.bank
    }

    /// The buffered samples.
    pub fn samples(&self) -> &[i32] {
        self.samples
    }

    /// The last chip offset a full window fits at, if any.
    pub fn last_offset(&self) -> Option<usize> {
        if self.bank.n == 0 || self.samples.len() < self.bank.n {
            None
        } else {
            Some(self.samples.len() - self.bank.n)
        }
    }

    /// The window total `Σ sᵢ` at `offset` — shared by every code.
    #[inline]
    pub fn window_total(&self, offset: usize) -> i64 {
        self.held.planes().range_total(offset, offset + self.bank.n)
    }

    /// `Σ sᵢ·cᵢ` of the window at `offset` against code `c`: one residue
    /// of the plane kernel, as scalar popcounts (a lone window has no
    /// lanes to vectorize over).
    #[inline]
    fn plane_dot(&self, offset: usize, c: usize) -> i64 {
        let (bits, planes) = self.held.planes().planes();
        let (q, r) = (offset / 64, offset % 64);
        let p = bits.len();
        let words = &planes[q * p..(q + self.bank.mask_words) * p];
        let masks = self.bank.shifted(c);
        let sum = words
            .chunks_exact(p.max(1))
            .enumerate()
            .map(|(w, pw)| weighted_popcount(bits, pw, masks[w * 64 + r]))
            .sum::<i64>();
        2 * sum - self.plane_bias(c) - self.window_total(offset)
    }

    /// `2B·|c⁺|`: what code `c`'s selected samples gain from the
    /// offset-binary bias, subtracted back out of `2·Σ_{c⁺} u`.
    #[inline]
    fn plane_bias(&self, c: usize) -> i64 {
        2 * i64::from(self.held.planes().max_abs()) * self.bank.pos_counts[c]
    }

    /// Normalised correlations of the window at `offset` against **all**
    /// codes in one pass, written to `out` in bank order.
    ///
    /// # Panics
    ///
    /// Panics if the window does not fit or `out.len() != m`.
    pub fn correlate_all(&mut self, offset: usize, out: &mut [f64]) {
        let n = self.bank.n;
        assert!(n > 0, "cannot correlate against an empty bank");
        assert_eq!(out.len(), self.bank.codes.len(), "one output slot per code");
        for (c, o) in out.iter_mut().enumerate() {
            *o = self.plane_dot(offset, c) as f64 / n as f64;
        }
    }

    /// Correlations for `count` consecutive offsets starting at `start`,
    /// written to `out[i·m + c]` (offset-major, bank order within each
    /// offset) — identical values to `count` calls of
    /// [`BankScanner::correlate_all`].
    ///
    /// This is the throughput shape of the kernel: the offsets are taken
    /// in runs that share one 64-chip plane word, so each run is one call
    /// of the plane kernel per code, and the window totals slide by one
    /// sample per offset.
    ///
    /// # Panics
    ///
    /// Panics if the bank is empty, the last window does not fit, or
    /// `out.len() < count * m`.
    pub fn correlate_block(&mut self, start: usize, count: usize, out: &mut [f64]) {
        let n = self.bank.n;
        let m = self.bank.codes.len();
        assert!(n > 0, "cannot correlate against an empty bank");
        assert!(
            start + count.saturating_sub(1) + n <= self.samples.len(),
            "offset block exceeds the buffer"
        );
        assert!(out.len() >= count * m, "one output slot per (offset, code)");
        let level = simd::active();
        let (bits, planes) = self.held.planes().planes();
        let p = bits.len();
        let nf = n as f64;
        let samples = self.samples;
        let mut totals = [0i64; 64];
        let mut sums = [0u64; 64];
        let mut total = if count > 0 {
            self.window_total(start)
        } else {
            0
        };
        let mut o = start;
        while o < start + count {
            let (q, lo) = (o / 64, o % 64);
            let k = (64 - lo).min(start + count - o);
            // Window totals slide by one sample per offset.
            let slide = |i: usize| i64::from(samples[i + n]) - i64::from(samples[i]);
            totals[0] = total;
            for j in 1..k {
                totals[j] = totals[j - 1] + slide(o + j - 1);
            }
            if o + k < start + count {
                total = totals[k - 1] + slide(o + k - 1);
            }
            let words = &planes[q * p..(q + self.bank.mask_words) * p];
            let base = (o - start) * m;
            for c in 0..m {
                simd::plane_sums_at(level, bits, words, self.bank.shifted(c), lo, &mut sums[..k]);
                let bias = self.plane_bias(c);
                for (j, (&sum, &t)) in sums[..k].iter().zip(&totals[..k]).enumerate() {
                    out[base + j * m + c] = (2 * sum as i64 - bias - t) as f64 / nf;
                }
            }
            o += k;
        }
    }

    /// Normalised correlation of the window at `offset` against the single
    /// code at `code_index`.
    pub fn correlate_one(&self, offset: usize, code_index: usize) -> f64 {
        self.plane_dot(offset, code_index) as f64 / self.bank.n as f64
    }

    /// De-spreads the `n_bits`-bit frame at `offset` against the code at
    /// `code_index` into a caller-pooled [`Frame`], clearing it first —
    /// [`crate::sync::decode_frame_into`] on this scanner's buffer, with
    /// each bit window correlated off the planes through
    /// [`BankScanner::correlate_one`]. Returns `false` (frame left empty)
    /// if the buffer does not contain the full frame; decisions are
    /// identical to the free function's.
    pub fn decode_frame_into(
        &self,
        offset: usize,
        code_index: usize,
        n_bits: usize,
        tau: f64,
        frame: &mut Frame,
    ) -> bool {
        frame.bits.clear();
        frame.erased.clear();
        let n = self.bank.n;
        let Some(needed) = n_bits.checked_mul(n).and_then(|c| offset.checked_add(c)) else {
            return false;
        };
        if needed > self.samples.len() {
            return false;
        }
        for j in 0..n_bits {
            frame.push(decide(self.correlate_one(offset + j * n, code_index), tau));
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::ChipChannel;
    use crate::chip::ChipSeq;
    use crate::spread::{reference, spread};
    use rand::{Rng, SeedableRng};

    fn rng(seed: u64) -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(seed)
    }

    #[test]
    fn matches_scalar_reference_on_random_buffers() {
        let mut r = rng(1);
        for n in [64usize, 100, 512] {
            let codes: Vec<SpreadCode> = (0..7).map(|_| SpreadCode::random(n, &mut r)).collect();
            let refs: Vec<&SpreadCode> = codes.iter().collect();
            let bank = MultiCorrelator::new(&refs);
            let samples: Vec<i32> = (0..3 * n).map(|_| r.gen_range(-5..=5)).collect();
            let mut scanner = bank.scanner(&samples);
            let mut out = vec![0.0; codes.len()];
            for offset in [0usize, 1, 63, 64, 65, n - 1, 2 * n] {
                scanner.correlate_all(offset, &mut out);
                for (ci, code) in codes.iter().enumerate() {
                    let expected = reference::correlate_window(&samples[offset..offset + n], code);
                    assert_eq!(
                        out[ci].to_bits(),
                        expected.to_bits(),
                        "n={n} offset={offset} code={ci}"
                    );
                    let one = scanner.correlate_one(offset, ci);
                    assert_eq!(one.to_bits(), expected.to_bits());
                }
            }
        }
    }

    #[test]
    fn perfect_hit_is_exactly_one() {
        let mut r = rng(2);
        let codes: Vec<SpreadCode> = (0..5).map(|_| SpreadCode::random(128, &mut r)).collect();
        let refs: Vec<&SpreadCode> = codes.iter().collect();
        let bank = MultiCorrelator::new(&refs);
        let samples = spread(&[true, false], &codes[3]).to_levels();
        let mut scanner = bank.scanner(&samples);
        let mut out = [0.0; 5];
        scanner.correlate_all(0, &mut out);
        assert_eq!(out[3], 1.0);
        scanner.correlate_all(128, &mut out);
        assert_eq!(out[3], -1.0, "second bit is a 0: negated code");
    }

    #[test]
    fn window_totals_come_from_prefix_sums() {
        let mut r = rng(3);
        let code = SpreadCode::random(32, &mut r);
        let bank = MultiCorrelator::new(&[&code]);
        let samples: Vec<i32> = (0..100).map(|_| r.gen_range(-100..=100)).collect();
        let scanner = bank.scanner(&samples);
        for offset in 0..=68 {
            let naive: i64 = samples[offset..offset + 32]
                .iter()
                .map(|&s| i64::from(s))
                .sum();
            assert_eq!(scanner.window_total(offset), naive);
        }
        assert_eq!(scanner.last_offset(), Some(68));
    }

    #[test]
    fn block_matches_per_offset() {
        let mut r = rng(6);
        let codes: Vec<SpreadCode> = (0..3).map(|_| SpreadCode::random(96, &mut r)).collect();
        let refs: Vec<&SpreadCode> = codes.iter().collect();
        let bank = MultiCorrelator::new(&refs);
        let samples: Vec<i32> = (0..400).map(|_| r.gen_range(-50..=50)).collect();
        let mut scanner = bank.scanner(&samples);
        let count = 400 - 96 + 1;
        let mut block = vec![0.0; count * 3];
        scanner.correlate_block(0, count, &mut block);
        let mut per_offset = [0.0; 3];
        for o in 0..count {
            scanner.correlate_all(o, &mut per_offset);
            for c in 0..3 {
                assert_eq!(
                    block[o * 3 + c].to_bits(),
                    per_offset[c].to_bits(),
                    "offset {o} code {c}"
                );
            }
        }
    }

    #[test]
    fn pooled_prefix_scanner_is_bit_identical_to_owned() {
        let mut r = rng(8);
        let codes: Vec<SpreadCode> = (0..4).map(|_| SpreadCode::random(64, &mut r)).collect();
        let refs: Vec<&SpreadCode> = codes.iter().collect();
        let bank = MultiCorrelator::new(&refs);
        // One pooled BitPlanes serves buffers of different lengths and
        // amplitudes in turn; stale planes from a longer buffer must not
        // leak.
        let mut sums = BitPlanes::new();
        for (len, amp) in [(300usize, 9i32), (120, 3), (300, i32::MAX / 8)] {
            let buffer: Vec<i32> = (0..len).map(|_| r.gen_range(-amp..=amp)).collect();
            let mut owned = bank.scanner(&buffer);
            let mut pooled = bank.scanner_with(&buffer, &mut sums);
            let mut want = [0.0; 4];
            let mut got = [0.0; 4];
            for offset in 0..=len - 64 {
                assert_eq!(pooled.window_total(offset), owned.window_total(offset));
                owned.correlate_all(offset, &mut want);
                pooled.correlate_all(offset, &mut got);
                for c in 0..4 {
                    assert_eq!(got[c].to_bits(), want[c].to_bits(), "len={len} o={offset}");
                }
                assert_eq!(
                    pooled.correlate_one(offset, 2).to_bits(),
                    owned.correlate_one(offset, 2).to_bits()
                );
            }
            let count = len - 64 + 1;
            let mut bw = vec![0.0; count * 4];
            let mut bg = vec![0.0; count * 4];
            owned.correlate_block(0, count, &mut bw);
            pooled.correlate_block(0, count, &mut bg);
            assert!(bw.iter().zip(&bg).all(|(a, b)| a.to_bits() == b.to_bits()));
            drop(pooled);
            assert_eq!(sums.chips(), len);
            let max = buffer.iter().map(|s| s.unsigned_abs()).max().unwrap();
            assert_eq!(sums.max_abs(), max);
        }
    }

    #[test]
    fn assign_matches_fresh_bank() {
        let mut r = rng(10);
        let pool_codes: Vec<SpreadCode> = (0..8).map(|_| SpreadCode::random(100, &mut r)).collect();
        let samples: Vec<i32> = (0..400).map(|_| r.gen_range(-20..=20)).collect();
        let mut reused = MultiCorrelator::new(&[]);
        for indices in [vec![3usize, 0, 7], vec![5], vec![], vec![1, 2]] {
            let picked: Vec<&SpreadCode> = indices.iter().map(|&i| &pool_codes[i]).collect();
            let fresh = MultiCorrelator::new(&picked);
            reused.assign(indices.iter().map(|&i| &pool_codes[i]));
            assert_eq!(reused.num_codes(), indices.len());
            if indices.is_empty() {
                assert!(reused.is_empty());
                continue;
            }
            assert_eq!(reused.code_len(), 100);
            let mut sf = fresh.scanner(&samples);
            let mut sr = reused.scanner(&samples);
            let mut want = vec![0.0; indices.len()];
            let mut got = vec![0.0; indices.len()];
            for offset in [0usize, 1, 200, 300] {
                sf.correlate_all(offset, &mut want);
                sr.correlate_all(offset, &mut got);
                assert!(want
                    .iter()
                    .zip(&got)
                    .all(|(a, b)| a.to_bits() == b.to_bits()));
            }
        }
    }

    #[test]
    fn planes_that_are_zero_everywhere_are_not_stored() {
        let mut sums = BitPlanes::new();
        let stored = |sums: &BitPlanes| sums.planes().0.to_vec();
        // A clean ±1 window: u ∈ {0, 2}, one plane.
        sums.compute(&[1, -1, -1, 1, 1]);
        assert_eq!(stored(&sums), vec![1]);
        // An amplitude-3 same-code jam over ±1: u ∈ {0, 2, 6, 8}.
        sums.compute(&[4, -2, 2, -4, 2]);
        assert_eq!(stored(&sums), vec![1, 2, 3]);
        // Silence, and a buffer pinned at -B everywhere, store none.
        sums.compute(&[0; 70]);
        assert_eq!(stored(&sums), Vec::<u32>::new());
        sums.compute(&[-3; 70]);
        assert_eq!(stored(&sums), Vec::<u32>::new());
        assert_eq!(sums.range_total(5, 70), -3 * 65);
        // max|s| = 7 fits four planes; at 8, u ∈ {16, 7} takes a fifth
        // and leaves plane 3 empty.
        sums.compute(&[7, -7, 0, 3]);
        assert_eq!(stored(&sums), vec![0, 1, 2, 3]);
        sums.compute(&[8, -1]);
        assert_eq!(stored(&sums), vec![0, 1, 2, 4]);
        assert_eq!(sums.range_total(0, 2), 7);
    }

    #[test]
    fn empty_bank_is_inert() {
        let bank = MultiCorrelator::new(&[]);
        assert!(bank.is_empty());
        assert_eq!(bank.code_len(), 0);
        let samples = [1i32, 2, 3];
        let scanner = bank.scanner(&samples);
        assert_eq!(scanner.last_offset(), None);
    }

    #[test]
    fn extreme_amplitudes_do_not_overflow() {
        // A jammed buffer can carry amplitudes near the i32 limits; the
        // kernel must stay exact there (32 planes, i32::MIN included),
        // and at i32::MAX / 512.
        let mut r = rng(4);
        let code = SpreadCode::random(512, &mut r);
        let bank = MultiCorrelator::new(&[&code]);
        let bound = i32::MAX / 512;
        for (hi, lo) in [
            (i32::MAX, i32::MIN),
            (bound, -bound),
            (bound + 1, -bound - 1),
        ] {
            let samples: Vec<i32> = (0..512).map(|i| if i % 3 == 0 { lo } else { hi }).collect();
            let mut scanner = bank.scanner(&samples);
            let mut out = [0.0];
            scanner.correlate_all(0, &mut out);
            let expected = reference::correlate_window(&samples, &code);
            assert_eq!(out[0].to_bits(), expected.to_bits(), "amplitude {hi}");
            assert_eq!(
                scanner.correlate_one(0, 0).to_bits(),
                expected.to_bits(),
                "amplitude {hi}"
            );
            let mut ch = ChipChannel::new(0);
            let chips = ChipSeq::from_bits(&samples.iter().map(|&s| s > 0).collect::<Vec<_>>());
            ch.transmit(0, chips, hi);
            let rendered = ch.render(0, 512);
            let expected = reference::correlate_window(&rendered, &code);
            let dot = ch.dot_chips(0, code.chips());
            assert_eq!(
                (dot as f64 / 512.0).to_bits(),
                expected.to_bits(),
                "render-free amplitude {hi}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "one chip length")]
    fn mixed_lengths_rejected() {
        let mut r = rng(5);
        let a = SpreadCode::random(64, &mut r);
        let b = SpreadCode::random(128, &mut r);
        MultiCorrelator::new(&[&a, &b]);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::spread::reference;
    use proptest::prelude::*;
    use rand::{Rng, SeedableRng};

    /// A sample amplitude spanning benign levels and jammed buffers near
    /// the `i32` limits — the kernels must stay exact everywhere.
    fn amplitude(r: &mut rand::rngs::StdRng) -> i32 {
        match r.gen_range(0..3) {
            0 => r.gen_range(-8..=8),
            1 => r.gen_range(i32::MIN..=i32::MIN + 16),
            _ => r.gen_range(i32::MAX - 16..=i32::MAX),
        }
    }

    /// A sample for an `n`-chip bank in one of four buffer regimes:
    /// mixed with `i32`-limit extremes (32 planes), benign levels,
    /// magnitudes up to `i32::MAX / n` (where `max|s|·N` just fits
    /// `i32`), and up to just past it.
    fn regime_sample(r: &mut rand::rngs::StdRng, regime: u8, n: usize) -> i32 {
        let bound = (i32::MAX as usize / n) as i32;
        match regime {
            0 => amplitude(r),
            1 => r.gen_range(-8..=8),
            2 => r.gen_range(-bound..=bound),
            _ => r.gen_range(-bound.saturating_add(1)..=bound.saturating_add(1)),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn batched_kernel_matches_scalar_reference(
            code_seed in 0u64..10_000,
            m in 1usize..6,
            n in 1usize..200,
            extra in 0usize..150,
            samples_seed in 0u64..10_000,
            regime in 0u8..4,
        ) {
            let mut cr = rand::rngs::StdRng::seed_from_u64(code_seed);
            let codes: Vec<SpreadCode> =
                (0..m).map(|_| SpreadCode::random(n, &mut cr)).collect();
            let refs: Vec<&SpreadCode> = codes.iter().collect();
            let bank = MultiCorrelator::new(&refs);

            let mut sr = rand::rngs::StdRng::seed_from_u64(samples_seed);
            let samples: Vec<i32> =
                (0..n + extra).map(|_| regime_sample(&mut sr, regime, n)).collect();

            let mut scanner = bank.scanner(&samples);
            let mut out = vec![0.0; m];
            for offset in 0..=extra {
                scanner.correlate_all(offset, &mut out);
                let window = &samples[offset..offset + n];
                for (ci, code) in codes.iter().enumerate() {
                    let expected = reference::correlate_window(window, code);
                    prop_assert_eq!(
                        out[ci].to_bits(),
                        expected.to_bits(),
                        "correlate_all diverged at offset {} code {}",
                        offset,
                        ci
                    );
                    prop_assert_eq!(
                        scanner.correlate_one(offset, ci).to_bits(),
                        expected.to_bits(),
                        "correlate_one diverged at offset {} code {}",
                        offset,
                        ci
                    );
                }
            }
        }

        #[test]
        fn dot_levels_matches_chip_at_a_time(
            code_seed in 0u64..10_000,
            n in 1usize..300,
            samples_seed in 0u64..10_000,
        ) {
            let mut cr = rand::rngs::StdRng::seed_from_u64(code_seed);
            let code = SpreadCode::random(n, &mut cr);
            let mut sr = rand::rngs::StdRng::seed_from_u64(samples_seed);
            let window: Vec<i32> = (0..n).map(|_| amplitude(&mut sr)).collect();

            let naive: i64 = window
                .iter()
                .enumerate()
                .map(|(i, &s)| i64::from(s) * i64::from(code.chips().chip(i)))
                .sum();
            prop_assert_eq!(code.chips().dot_levels(&window), naive);

            // The reconstruction identity the whole module rests on.
            let pos: i64 = window
                .iter()
                .enumerate()
                .filter(|&(i, _)| code.chips().bit(i))
                .map(|(_, &s)| i64::from(s))
                .sum();
            let total: i64 = window.iter().map(|&s| i64::from(s)).sum();
            prop_assert_eq!(2 * pos - total, naive);
        }

        #[test]
        fn plane_kernel_matches_scalar_reference(
            code_seed in 0u64..10_000,
            m in 1usize..4,
            n in prop_oneof![Just(1usize), Just(63), Just(64), Just(65), Just(256), Just(300)],
            extra in 0usize..150,
            samples_seed in 0u64..10_000,
            max_abs in prop_oneof![
                0i32..=8,
                9i32..=1_000,
                Just(1_000_003),
                (i32::MAX - 16)..=i32::MAX,
            ],
            two_level in any::<bool>(),
            block in (0usize..150, 0usize..150),
        ) {
            // max|s| 0..=7 holds the buffer in the monomorphised 0–4
            // planes; louder buffers take up to 32. Two-level buffers
            // (samples ±B only, like a clean or fully jammed engine
            // window) store fewer planes than their bit length.
            let mut cr = rand::rngs::StdRng::seed_from_u64(code_seed);
            let codes: Vec<SpreadCode> =
                (0..m).map(|_| SpreadCode::random(n, &mut cr)).collect();
            let refs: Vec<&SpreadCode> = codes.iter().collect();
            let bank = MultiCorrelator::new(&refs);
            let mut sr = rand::rngs::StdRng::seed_from_u64(samples_seed);
            let mut samples: Vec<i32> = (0..n + extra)
                .map(|_| match two_level {
                    true if sr.gen() => max_abs,
                    true => -max_abs,
                    false => sr.gen_range(-max_abs..=max_abs),
                })
                .collect();
            let pin = sr.gen_range(0..samples.len());
            samples[pin] = if sr.gen() { max_abs } else { -max_abs };

            let mut scanner = bank.scanner(&samples);
            let held = scanner.held.planes().planes().0.len();
            prop_assert!(held <= simd::planes_for(max_abs as u32));

            // A block at an arbitrary (often unaligned, often straddling a
            // 64-offset boundary) start.
            let start = block.0.min(extra);
            let count = block.1.min(extra - start) + 1;
            let mut out = vec![0.0; count * m];
            scanner.correlate_block(start, count, &mut out);
            let mut all = vec![0.0; m];
            for i in 0..count {
                let offset = start + i;
                let window = &samples[offset..offset + n];
                let total: i64 = window.iter().map(|&s| i64::from(s)).sum();
                prop_assert_eq!(scanner.window_total(offset), total);
                scanner.correlate_all(offset, &mut all);
                for (ci, code) in codes.iter().enumerate() {
                    let want = reference::correlate_window(window, code).to_bits();
                    prop_assert_eq!(out[i * m + ci].to_bits(), want, "block {} code {}", offset, ci);
                    prop_assert_eq!(all[ci].to_bits(), want, "all {} code {}", offset, ci);
                    prop_assert_eq!(scanner.correlate_one(offset, ci).to_bits(), want);
                }
            }

            // Frame decoding off the scanner agrees with the free function.
            let n_bits = (extra + n - start) / n;
            let mut frame = Frame::with_capacity(n_bits);
            let ok = scanner.decode_frame_into(start, m - 1, n_bits + 1, 0.3, &mut frame);
            prop_assert_eq!(ok, (n_bits + 1) * n + start <= samples.len());
            let ok = scanner.decode_frame_into(start, m - 1, n_bits, 0.3, &mut frame);
            prop_assert!(ok);
            let want = crate::sync::decode_frame(&samples, start, &codes[m - 1], n_bits, 0.3);
            prop_assert_eq!(Some(frame), want);
        }
    }
}
