//! Batched correlation of one sample buffer against a whole code bank.
//!
//! Section V-B makes the receiver's buffer processing the cost center of
//! JR-SND: every buffered chip offset is correlated against **all** `m`
//! candidate codes in ℂ_B, and the per-correlation cost ρ drives the
//! processing/buffering gap λ = ρNmR of the latency analysis. This module
//! is the fast path for that computation.
//!
//! The trick: chips are ±1 and already bit-packed ([`ChipSeq`]), so with
//! `P = Σ_{cᵢ=+1} sᵢ` (the positive-chip partial sum) and `T = Σ sᵢ` (the
//! window total),
//!
//! ```text
//! Σ sᵢ·cᵢ = 2·P − T.
//! ```
//!
//! `T` is independent of the code, so one prefix-sum pass over the buffer
//! serves every `(offset, code)` pair — the sliding window never re-reads
//! samples to re-total them. `P` is a branch-free masked sum (`s & e` per
//! lane, no per-chip `chip(i)` calls) over mask rows expanded from the
//! bit-packed code words, and [`MultiCorrelator`] evaluates all `m` codes
//! per window so the loaded window is reused `m` times before sliding on.
//!
//! The masked sum accumulates in `i32` lanes — twice as many per vector as
//! `i64` — whenever the buffer's largest `|s|` times `N` fits in `i32`
//! ([`simd::fits_narrow`]); no partial sum can then leave `i32`, so the
//! result is exact. The prefix-sum (or window-total) pass that already
//! reads every sample records that largest magnitude, and buffers past
//! the bound (extreme jamming amplitudes) take the widening `i64` kernel.
//!
//! The scalar one-chip-at-a-time implementation survives as the oracle in
//! [`crate::spread::reference`]; proptests assert the two agree bit-for-bit.

use crate::channel::ChipChannel;
use crate::code::SpreadCode;
use crate::simd;

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
    /// Positive-chip masks expanded one `i32` lane per chip (`-1` where the
    /// chip is +1, `0` where it is −1), one contiguous row per code: the
    /// partial sum is a branch-free stream of `s & e`, which
    /// autovectorizes. Expanding costs `4·N` bytes per code — repaid on
    /// the first scanned offset.
    pos_masks: Vec<i32>,
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
            pos_masks: Vec::new(),
        };
        bank.assign(codes.iter().copied());
        bank
    }

    /// Re-points this bank at `codes`, expanding their packed words into
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
        self.pos_masks.clear();
        self.pos_masks.resize(n * self.codes.len(), 0);
        for (row, code) in self.pos_masks.chunks_exact_mut(n.max(1)).zip(&self.codes) {
            for (lanes, &word) in row.chunks_mut(64).zip(code.chips().words()) {
                for (k, lane) in lanes.iter_mut().enumerate() {
                    *lane = -(((word >> k) & 1) as i32);
                }
            }
        }
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

    /// Prepares `samples` for repeated window correlation: one prefix-sum
    /// pass that every subsequent offset reuses.
    pub fn scanner<'s>(&'s self, samples: &'s [i32]) -> BankScanner<'s, 'a> {
        let mut prefix = PrefixSums::new();
        prefix.compute(samples);
        BankScanner::new(self, samples, Prefix::Owned(prefix))
    }

    /// [`MultiCorrelator::scanner`] with caller-pooled prefix sums: the
    /// pass over `samples` is written into `sums`, whose storage is
    /// retained across buffers, so a receiver scanning buffer after buffer
    /// allocates nothing once `sums` has grown to the largest one.
    /// Correlations are bit-identical to [`MultiCorrelator::scanner`].
    pub fn scanner_with<'s>(
        &'s self,
        samples: &'s [i32],
        sums: &'s mut PrefixSums,
    ) -> BankScanner<'s, 'a> {
        sums.compute(samples);
        BankScanner::new(self, samples, Prefix::Pooled(sums))
    }

    /// Positive-chip partial sums of one window against every code. The
    /// window (a few KB) stays hot in L1 while each code's mask row streams
    /// through once.
    fn pos_sums_into(&self, window: &[i32], narrow: bool, out: &mut [i64]) {
        debug_assert_eq!(window.len(), self.n);
        debug_assert_eq!(out.len(), self.codes.len());
        let level = simd::active();
        for (c, acc) in out.iter_mut().enumerate() {
            simd::masked_sums_at(
                level,
                narrow,
                window,
                self.row(c),
                std::slice::from_mut(acc),
            );
        }
    }

    /// Code `c`'s expanded mask row.
    #[inline]
    fn row(&self, c: usize) -> &[i32] {
        &self.pos_masks[c * self.n..(c + 1) * self.n]
    }
}

/// Exact `i64` prefix sums of a sample buffer, `sums[k] = Σ_{i<k} s[i]`,
/// plus the buffer's largest sample magnitude — the bound that decides
/// whether its masked sums may accumulate in `i32`.
///
/// The backing vector is retained across [`PrefixSums::compute`] calls,
/// so a pooled instance ([`MultiCorrelator::scanner_with`]) reaches a
/// steady state with no per-use allocation.
#[derive(Debug, Clone, Default)]
pub struct PrefixSums {
    sums: Vec<i64>,
    max_abs: u32,
}

impl PrefixSums {
    /// An empty instance (covers zero chips until [`PrefixSums::compute`]).
    pub fn new() -> Self {
        PrefixSums::default()
    }

    /// Recomputes the sums over `samples`, reusing the backing storage.
    pub fn compute(&mut self, samples: &[i32]) {
        self.sums.clear();
        self.sums.resize(samples.len() + 1, 0);
        let mut acc: i64 = 0;
        let mut max_abs = 0u32;
        for (sum, &s) in self.sums[1..].iter_mut().zip(samples) {
            acc += i64::from(s);
            *sum = acc;
            max_abs = max_abs.max(s.unsigned_abs());
        }
        self.max_abs = max_abs;
    }

    /// Number of chips covered (the length of the buffer last computed).
    pub fn chips(&self) -> usize {
        self.sums.len().saturating_sub(1)
    }

    /// `Σ samples[start..end]`, exactly.
    #[inline]
    pub fn range_total(&self, start: usize, end: usize) -> i64 {
        self.sums[end] - self.sums[start]
    }

    /// The largest `|s|` in the buffer last computed (0 if it was empty).
    pub(crate) fn max_abs(&self) -> u32 {
        self.max_abs
    }
}

/// Where a scanner's window totals come from: its own pass, or a
/// caller-pooled [`PrefixSums`].
#[derive(Debug)]
enum Prefix<'s> {
    Owned(PrefixSums),
    Pooled(&'s PrefixSums),
}

impl Prefix<'_> {
    #[inline]
    fn sums(&self) -> &PrefixSums {
        match self {
            Prefix::Owned(p) => p,
            Prefix::Pooled(p) => p,
        }
    }
}

/// The fused render→despread path: bit-aligned windows are rendered one at
/// a time from a [`ChipChannel`] into a reused scratch buffer and
/// correlated against the whole bank, so despreading an `n_bits`-bit frame
/// needs `O(N)` memory instead of materialising the full `n_bits·N` sample
/// vector first.
///
/// Correlations are bit-identical to rendering the whole frame and running
/// a [`BankScanner`] over it: the window total `T` is folded into the same
/// pass and combined with the positive-chip sums via the `2·P − T`
/// identity, all in exact `i64` arithmetic.
///
/// # Examples
///
/// ```
/// use jrsnd_dsss::channel::ChipChannel;
/// use jrsnd_dsss::code::SpreadCode;
/// use jrsnd_dsss::correlate::{FusedDespreader, MultiCorrelator};
/// use jrsnd_dsss::spread::spread;
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(2);
/// let code = SpreadCode::random(256, &mut rng);
/// let mut ch = ChipChannel::new(0);
/// ch.transmit(0, spread(&[true, false], &code), 1);
///
/// let bank = MultiCorrelator::new(&[&code]);
/// let mut fused = FusedDespreader::new(&bank);
/// let mut corr = [0.0];
/// fused.correlate_at(&ch, 0, &mut corr);
/// assert_eq!(corr[0], 1.0);
/// fused.correlate_at(&ch, 256, &mut corr);
/// assert_eq!(corr[0], -1.0);
/// ```
#[derive(Debug)]
pub struct FusedDespreader<'b, 'a> {
    bank: &'b MultiCorrelator<'a>,
    /// The one window ever materialised, reused across bit periods.
    window: Vec<i32>,
    pos_sums: Vec<i64>,
}

impl<'b, 'a> FusedDespreader<'b, 'a> {
    /// Prepares a fused despreader over `bank`.
    pub fn new(bank: &'b MultiCorrelator<'a>) -> Self {
        FusedDespreader {
            bank,
            window: Vec::with_capacity(bank.code_len()),
            pos_sums: vec![0; bank.num_codes()],
        }
    }

    /// The underlying bank.
    pub fn bank(&self) -> &MultiCorrelator<'a> {
        self.bank
    }

    /// Renders the bank-length window at absolute chip `start` from
    /// `channel` and writes the normalised correlations against **all**
    /// codes to `out` in bank order.
    ///
    /// # Panics
    ///
    /// Panics if the bank is empty or `out.len() != m`.
    pub fn correlate_at(&mut self, channel: &ChipChannel, start: u64, out: &mut [f64]) {
        let n = self.bank.n;
        assert!(n > 0, "cannot correlate against an empty bank");
        assert_eq!(out.len(), self.bank.codes.len(), "one output slot per code");
        channel.render_into(&mut self.window, start, n);
        let (total, max_abs) = self.window.iter().fold((0i64, 0u32), |(t, m), &s| {
            (t + i64::from(s), m.max(s.unsigned_abs()))
        });
        let narrow = simd::fits_narrow(max_abs, n);
        self.bank
            .pos_sums_into(&self.window, narrow, &mut self.pos_sums);
        for (o, &p) in out.iter_mut().zip(&self.pos_sums) {
            *o = (2 * p - total) as f64 / n as f64;
        }
    }
}

/// A buffer prepared for sliding-window correlation against a bank: holds
/// its prefix sums and per-code scratch.
#[derive(Debug)]
pub struct BankScanner<'s, 'a> {
    bank: &'s MultiCorrelator<'a>,
    samples: &'s [i32],
    /// Window totals in O(1) per offset — owned or pooled prefix sums.
    prefix: Prefix<'s>,
    /// Whether every window of this buffer fits the `i32` masked-sum
    /// kernel ([`simd::fits_narrow`] on the prefix pass's `max_abs`).
    narrow: bool,
    pos_sums: Vec<i64>,
}

impl<'s, 'a> BankScanner<'s, 'a> {
    fn new(bank: &'s MultiCorrelator<'a>, samples: &'s [i32], prefix: Prefix<'s>) -> Self {
        let narrow = simd::fits_narrow(prefix.sums().max_abs(), bank.n);
        BankScanner {
            bank,
            samples,
            prefix,
            narrow,
            pos_sums: Vec::new(),
        }
    }
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
        self.prefix.sums().range_total(offset, offset + self.bank.n)
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
        let total = self.window_total(offset);
        self.pos_sums.resize(self.bank.codes.len(), 0);
        let window = &self.samples[offset..offset + n];
        self.bank
            .pos_sums_into(window, self.narrow, &mut self.pos_sums);
        for (o, &p) in out.iter_mut().zip(&self.pos_sums) {
            *o = (2 * p - total) as f64 / n as f64;
        }
    }

    /// Correlations for `count` consecutive offsets starting at `start`,
    /// written to `out[i·m + c]` (offset-major, bank order within each
    /// offset) — identical values to `count` calls of
    /// [`BankScanner::correlate_all`].
    ///
    /// This is the throughput shape of the kernel: the loops are tiled
    /// code-outer/offset-inner, so each code's mask row is loaded once per
    /// block while the `N + count` samples the overlapping windows span
    /// stay hot in L1, instead of re-streaming `m` mask rows at every
    /// offset.
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
        let mut sums = [0i64; 64];
        for c in 0..m {
            let row = self.bank.row(c);
            let mut i = 0;
            while i < count {
                let k = (count - i).min(sums.len());
                let o = start + i;
                let span = &self.samples[o..o + k + n - 1];
                simd::masked_sums_at(level, self.narrow, span, row, &mut sums[..k]);
                for (j, &p) in sums[..k].iter().enumerate() {
                    out[(i + j) * m + c] = (2 * p - self.window_total(o + j)) as f64 / n as f64;
                }
                i += k;
            }
        }
    }

    /// Normalised correlation of the window at `offset` against the single
    /// code at `code_index`, reusing the scanner's prefix sums.
    pub fn correlate_one(&self, offset: usize, code_index: usize) -> f64 {
        let n = self.bank.n;
        let window = &self.samples[offset..offset + n];
        let total = self.window_total(offset);
        let mut p = 0i64;
        simd::masked_sums_at(
            simd::active(),
            self.narrow,
            window,
            self.bank.row(code_index),
            std::slice::from_mut(&mut p),
        );
        (2 * p - total) as f64 / n as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
    fn fused_despreader_matches_scanner_on_rendered_frames() {
        use crate::channel::ChipChannel;
        let mut r = rng(7);
        let codes: Vec<SpreadCode> = (0..4).map(|_| SpreadCode::random(128, &mut r)).collect();
        let refs: Vec<&SpreadCode> = codes.iter().collect();
        let bank = MultiCorrelator::new(&refs);
        let n_bits = 9;
        let mut ch = ChipChannel::new(31).with_noise(0.08);
        let msg: Vec<bool> = (0..n_bits).map(|i| i % 2 == 0).collect();
        ch.transmit(0, spread(&msg, &codes[1]), 1);
        ch.transmit(64, spread(&msg, &codes[3]), 2);

        // Materialised path: render the whole frame, scan it.
        let samples = ch.render(0, n_bits * 128);
        let mut scanner = bank.scanner(&samples);
        let mut fused = FusedDespreader::new(&bank);
        let mut want = [0.0; 4];
        let mut got = [0.0; 4];
        for j in 0..n_bits {
            scanner.correlate_all(j * 128, &mut want);
            fused.correlate_at(&ch, (j * 128) as u64, &mut got);
            for c in 0..4 {
                assert_eq!(got[c].to_bits(), want[c].to_bits(), "bit {j} code {c}");
            }
        }
    }

    #[test]
    fn pooled_prefix_scanner_is_bit_identical_to_owned() {
        let mut r = rng(8);
        let codes: Vec<SpreadCode> = (0..4).map(|_| SpreadCode::random(64, &mut r)).collect();
        let refs: Vec<&SpreadCode> = codes.iter().collect();
        let bank = MultiCorrelator::new(&refs);
        // One pooled PrefixSums serves buffers of different lengths and
        // amplitudes in turn; stale sums from a longer buffer must not leak.
        let mut sums = PrefixSums::new();
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
        // kernel must stay exact (such buffers take the i64 kernel), and
        // so must a buffer sitting exactly at the i32 kernel's bound.
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
            let mut fused = FusedDespreader::new(&bank);
            let mut ch = ChipChannel::new(0);
            let chips = ChipSeq::from_bits(&samples.iter().map(|&s| s > 0).collect::<Vec<_>>());
            ch.transmit(0, chips, hi);
            let rendered = ch.render(0, 512);
            fused.correlate_at(&ch, 0, &mut out);
            let expected = reference::correlate_window(&rendered, &code);
            assert_eq!(out[0].to_bits(), expected.to_bits(), "fused amplitude {hi}");
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
    /// mixed with `i32`-limit extremes (the `i64` kernel), benign levels,
    /// magnitudes up to the `i32` kernel's bound `i32::MAX / n` (the
    /// narrow kernel at its edge), and up to just past it (wide again).
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

            let pos: i64 = window
                .iter()
                .enumerate()
                .filter(|&(i, _)| code.chips().bit(i))
                .map(|(_, &s)| i64::from(s))
                .sum();
            prop_assert_eq!(code.chips().masked_sum(&window), pos);

            // The reconstruction identity the whole module rests on.
            let total: i64 = window.iter().map(|&s| i64::from(s)).sum();
            prop_assert_eq!(2 * code.chips().masked_sum(&window) - total, naive);
        }
    }
}
