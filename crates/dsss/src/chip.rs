//! Bit-packed ±1 chip sequences.
//!
//! DSSS works on NRZ chips: each chip is +1 or −1 (Section III). We pack a
//! chip per bit (`1 ↔ +1`, `0 ↔ −1`) into `u64` words so that correlating
//! two `N = 512`-chip sequences is 8 XORs + 8 popcounts instead of 512
//! multiply-adds:
//! `corr(u, v) = (N − 2·hamming(u ⊕ v)) / N`.

/// A fixed-length sequence of ±1 chips, packed one chip per bit.
///
/// # Examples
///
/// ```
/// use jrsnd_dsss::chip::ChipSeq;
///
/// let a = ChipSeq::from_bits(&[true, true, false, false]);
/// let b = ChipSeq::from_bits(&[true, false, true, false]);
/// assert_eq!(a.correlate(&b), 0.0); // orthogonal half-match
/// assert_eq!(a.correlate(&a), 1.0);
/// assert_eq!(a.correlate(&a.negated()), -1.0);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ChipSeq {
    words: Vec<u64>,
    len: usize,
}

impl ChipSeq {
    /// Builds a sequence from bits (`true ↔ +1`).
    ///
    /// # Panics
    ///
    /// Panics on an empty input.
    pub fn from_bits(bits: &[bool]) -> Self {
        assert!(!bits.is_empty(), "chip sequence must be non-empty");
        let mut words = vec![0u64; bits.len().div_ceil(64)];
        for (i, &b) in bits.iter().enumerate() {
            if b {
                words[i / 64] |= 1u64 << (i % 64);
            }
        }
        ChipSeq {
            words,
            len: bits.len(),
        }
    }

    /// Builds a sequence of `len` chips from bytes packed MSB-first
    /// (chip `i` is bit `7 − i % 8` of byte `i / 8`), with no bit
    /// unpacked: every eight bytes make one word.
    ///
    /// # Panics
    ///
    /// Panics if `len` is zero or `bytes` is not `⌈len/8⌉` long.
    pub(crate) fn from_msb_bytes(bytes: &[u8], len: usize) -> Self {
        assert!(len > 0, "chip sequence must be non-empty");
        let n_bytes = len.div_ceil(8);
        assert_eq!(bytes.len(), n_bytes, "{len} chips take {n_bytes} bytes");
        let mut words: Vec<u64> = bytes
            .chunks(8)
            .map(|chunk| {
                let mut be = [0u8; 8];
                be[..chunk.len()].copy_from_slice(chunk);
                // A big-endian load puts chip 0 at bit 63; reversed, at bit 0.
                u64::from_be_bytes(be).reverse_bits()
            })
            .collect();
        // Clear the padding bits a partial last byte brought in.
        let tail = len % 64;
        if tail != 0 {
            *words.last_mut().expect("len > 0") &= (1u64 << tail) - 1;
        }
        ChipSeq { words, len }
    }

    /// Number of chips.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the sequence is empty (never true by construction).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The chip at `i` as a bool (`true ↔ +1`).
    ///
    /// # Panics
    ///
    /// Panics if `i >= len`.
    #[inline]
    pub fn bit(&self, i: usize) -> bool {
        assert!(i < self.len, "chip index {i} out of range {}", self.len);
        self.words[i / 64] & (1u64 << (i % 64)) != 0
    }

    /// The chip at `i` as ±1.
    #[inline]
    pub fn chip(&self, i: usize) -> i8 {
        if self.bit(i) {
            1
        } else {
            -1
        }
    }

    /// The packed chip words, one chip per bit (`1 ↔ +1`), little-endian
    /// within each word. Padding bits past [`ChipSeq::len`] are always zero.
    #[inline]
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// 64 packed chips starting at chip `offset`, as one little-endian word
    /// (`bit k ↔ chip offset + k`) — the unaligned word read behind the
    /// word-parallel channel renderer.
    ///
    /// Bits past [`ChipSeq::len`] are zero; they carry no chip meaning, so
    /// a caller rendering near the end of the sequence must stop at `len`
    /// rather than interpret the padding as −1 chips.
    ///
    /// # Panics
    ///
    /// Panics if `offset >= len`.
    #[inline]
    pub fn word_at(&self, offset: usize) -> u64 {
        assert!(
            offset < self.len,
            "chip offset {offset} out of range {}",
            self.len
        );
        let q = offset / 64;
        let sh = offset % 64;
        let lo = self.words[q] >> sh;
        if sh == 0 {
            lo
        } else {
            lo | (self.words.get(q + 1).copied().unwrap_or(0) << (64 - sh))
        }
    }

    /// The dot product `Σ sᵢ·cᵢ` of soft samples with this ±1 sequence —
    /// the bit-parallel correlation kernel.
    ///
    /// Instead of unpacking each chip, every 64-sample chunk is combined
    /// with its mask word using a branchless sign-select
    /// (`(s ^ e) − e` with `e = bit − 1`), which auto-vectorizes. The
    /// accumulation is exact over `i64`, so any `i32` sample amplitudes
    /// (including jammed buffers near `i32::MIN`/`i32::MAX`) are safe.
    ///
    /// # Panics
    ///
    /// Panics if `window.len() != self.len()`.
    pub fn dot_levels(&self, window: &[i32]) -> i64 {
        assert_eq!(
            window.len(),
            self.len,
            "window length must equal the chip length"
        );
        let mut acc: i64 = 0;
        let mut words = self.words.iter();
        let mut chunks = window.chunks_exact(64);
        for chunk in chunks.by_ref() {
            let w = *words.next().expect("one word per 64 chips");
            let mut part: i64 = 0;
            for (k, &s) in chunk.iter().enumerate() {
                // e = 0 for a +1 chip, −1 (all ones) for a −1 chip.
                let e = ((w >> k) & 1) as i64 - 1;
                part += (i64::from(s) ^ e) - e;
            }
            acc += part;
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            let w = *words.next().expect("one word per 64 chips");
            for (k, &s) in rem.iter().enumerate() {
                let e = ((w >> k) & 1) as i64 - 1;
                acc += (i64::from(s) ^ e) - e;
            }
        }
        acc
    }

    /// The chips as a bool vector.
    pub fn to_bits(&self) -> Vec<bool> {
        (0..self.len).map(|i| self.bit(i)).collect()
    }

    /// The chips as ±1 integers (for soft-sample channels).
    pub fn to_levels(&self) -> Vec<i32> {
        (0..self.len).map(|i| i32::from(self.chip(i))).collect()
    }

    /// The chip-wise negation (every +1 ↔ −1) — how a data bit "0"/−1 is
    /// spread.
    pub fn negated(&self) -> ChipSeq {
        let mut words: Vec<u64> = self.words.iter().map(|w| !w).collect();
        // Clear the padding bits of the last word.
        let tail = self.len % 64;
        if tail != 0 {
            let mask = (1u64 << tail) - 1;
            if let Some(last) = words.last_mut() {
                *last &= mask;
            }
        }
        ChipSeq {
            words,
            len: self.len,
        }
    }

    /// Hamming distance to an equal-length sequence.
    ///
    /// # Panics
    ///
    /// Panics on length mismatch.
    pub fn hamming(&self, other: &ChipSeq) -> u32 {
        assert_eq!(
            self.len, other.len,
            "hamming distance requires equal lengths"
        );
        self.words
            .iter()
            .zip(&other.words)
            .map(|(a, b)| (a ^ b).count_ones())
            .sum()
    }

    /// Normalised correlation in `[-1, 1]`:
    /// `(matches − mismatches) / len`.
    ///
    /// # Panics
    ///
    /// Panics on length mismatch.
    pub fn correlate(&self, other: &ChipSeq) -> f64 {
        let h = self.hamming(other) as f64;
        (self.len as f64 - 2.0 * h) / self.len as f64
    }

    /// A copy keeping only the first `new_len` chips — how the fault
    /// injector models a transmitter cut off mid-frame.
    ///
    /// # Panics
    ///
    /// Panics if `new_len == 0` or `new_len > len`.
    pub fn truncated(&self, new_len: usize) -> ChipSeq {
        assert!(new_len > 0, "truncated sequence must be non-empty");
        assert!(
            new_len <= self.len,
            "truncation length {new_len} exceeds {}",
            self.len
        );
        let mut words = self.words[..new_len.div_ceil(64)].to_vec();
        // Clear the padding bits of the (new) last word so Eq/Hash and
        // word_at's zero-padding contract keep holding.
        let tail = new_len % 64;
        if tail != 0 {
            let mask = (1u64 << tail) - 1;
            if let Some(last) = words.last_mut() {
                *last &= mask;
            }
        }
        ChipSeq {
            words,
            len: new_len,
        }
    }

    /// Inverts the `count` chips starting at `start` in place (clamped to
    /// the sequence end) — how the fault injector models a burst of chip
    /// corruption. A zero `count` or an out-of-range `start` is a no-op.
    pub fn flip_range(&mut self, start: usize, count: usize) {
        if start >= self.len || count == 0 {
            return;
        }
        let end = (start + count).min(self.len);
        let mut i = start;
        while i < end {
            let q = i / 64;
            let lo = i % 64;
            let hi = (end - q * 64).min(64);
            // Mask covering bits [lo, hi) of word q.
            let mask = if hi == 64 {
                u64::MAX << lo
            } else {
                ((1u64 << hi) - 1) & !((1u64 << lo) - 1)
            };
            self.words[q] ^= mask;
            i = (q + 1) * 64;
        }
    }

    /// Concatenates sequences (message spreading glues per-bit chip blocks).
    ///
    /// Each part's packed words are shifted into place a word at a time;
    /// no chip is ever unpacked.
    pub fn concat(parts: &[&ChipSeq]) -> ChipSeq {
        assert!(!parts.is_empty(), "cannot concatenate zero sequences");
        let len: usize = parts.iter().map(|p| p.len).sum();
        let mut words = vec![0u64; len.div_ceil(64)];
        let mut at = 0usize;
        for p in parts {
            or_words_at(&mut words, at, &p.words);
            at += p.len;
        }
        ChipSeq { words, len }
    }
}

/// ORs the packed words `src` (padding bits zero) into the zeroed region of
/// `dst` that starts at chip `at`. A word that straddles a `dst` word
/// boundary is split with two shifts; its high part only runs off the end
/// of `dst` when it is padding, so it is dropped there.
#[inline]
fn or_words_at(dst: &mut [u64], at: usize, src: &[u64]) {
    let (q, sh) = (at / 64, at % 64);
    if sh == 0 {
        for (d, &s) in dst[q..].iter_mut().zip(src) {
            *d |= s;
        }
        return;
    }
    for (j, &s) in src.iter().enumerate() {
        dst[q + j] |= s << sh;
        if let Some(d) = dst.get_mut(q + j + 1) {
            *d |= s >> (64 - sh);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_bits() {
        let bits: Vec<bool> = (0..130).map(|i| i % 3 == 0).collect();
        let seq = ChipSeq::from_bits(&bits);
        assert_eq!(seq.len(), 130);
        assert_eq!(seq.to_bits(), bits);
        for (i, &b) in bits.iter().enumerate() {
            assert_eq!(seq.bit(i), b);
            assert_eq!(seq.chip(i), if b { 1 } else { -1 });
        }
    }

    #[test]
    fn levels_match_chips() {
        let seq = ChipSeq::from_bits(&[true, false, true]);
        assert_eq!(seq.to_levels(), vec![1, -1, 1]);
    }

    #[test]
    fn negation_involutes_and_anticorrelates() {
        let bits: Vec<bool> = (0..77).map(|i| i % 5 < 2).collect();
        let seq = ChipSeq::from_bits(&bits);
        let neg = seq.negated();
        assert_eq!(neg.negated(), seq);
        assert_eq!(seq.correlate(&neg), -1.0);
        // Padding bits in the last word must stay clear for Eq/Hash.
        assert_eq!(neg.hamming(&seq), 77);
    }

    #[test]
    fn correlation_extremes_and_midpoint() {
        let a = ChipSeq::from_bits(&[true; 64]);
        assert_eq!(a.correlate(&a), 1.0);
        assert_eq!(a.correlate(&a.negated()), -1.0);
        let mut half = vec![true; 64];
        for b in half.iter_mut().take(32) {
            *b = false;
        }
        assert_eq!(a.correlate(&ChipSeq::from_bits(&half)), 0.0);
    }

    #[test]
    fn word_at_matches_bit_extraction() {
        let bits: Vec<bool> = (0..200).map(|i| (i * 7 + 3) % 5 < 2).collect();
        let seq = ChipSeq::from_bits(&bits);
        for offset in [0usize, 1, 17, 63, 64, 65, 127, 130, 150, 199] {
            let w = seq.word_at(offset);
            for k in 0..64 {
                let expected = if offset + k < seq.len() {
                    seq.bit(offset + k)
                } else {
                    false // padding reads as zero
                };
                assert_eq!((w >> k) & 1 == 1, expected, "offset {offset} lane {k}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn word_at_past_end_panics() {
        ChipSeq::from_bits(&[true; 10]).word_at(10);
    }

    #[test]
    fn hamming_basics() {
        let a = ChipSeq::from_bits(&[true, true, false]);
        let b = ChipSeq::from_bits(&[true, false, true]);
        assert_eq!(a.hamming(&b), 2);
        assert_eq!(a.hamming(&a), 0);
    }

    #[test]
    fn concat_preserves_order() {
        let a = ChipSeq::from_bits(&[true, false]);
        let b = ChipSeq::from_bits(&[false, false, true]);
        let c = ChipSeq::concat(&[&a, &b]);
        assert_eq!(c.to_bits(), vec![true, false, false, false, true]);
    }

    #[test]
    #[should_panic(expected = "equal lengths")]
    fn hamming_length_mismatch_panics() {
        let a = ChipSeq::from_bits(&[true]);
        let b = ChipSeq::from_bits(&[true, false]);
        a.hamming(&b);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_rejected() {
        ChipSeq::from_bits(&[]);
    }

    #[test]
    fn truncated_keeps_prefix_and_clears_padding() {
        let bits: Vec<bool> = (0..150).map(|i| i % 2 == 0).collect();
        let seq = ChipSeq::from_bits(&bits);
        for new_len in [1usize, 63, 64, 65, 127, 128, 150] {
            let t = seq.truncated(new_len);
            assert_eq!(t.len(), new_len);
            assert_eq!(t, ChipSeq::from_bits(&bits[..new_len]));
        }
    }

    #[test]
    #[should_panic(expected = "exceeds")]
    fn truncated_past_end_panics() {
        ChipSeq::from_bits(&[true; 10]).truncated(11);
    }

    #[test]
    fn flip_range_matches_bitwise_model() {
        let bits: Vec<bool> = (0..200).map(|i| (i * 3 + 1) % 7 < 3).collect();
        for (start, count) in [
            (0usize, 1usize),
            (0, 200),
            (5, 60),
            (63, 2),
            (64, 64),
            (100, 1000),
            (199, 1),
            (200, 5),
            (7, 0),
        ] {
            let mut seq = ChipSeq::from_bits(&bits);
            seq.flip_range(start, count);
            let expected: Vec<bool> = bits
                .iter()
                .enumerate()
                .map(|(i, &b)| b ^ (i >= start && i < start.saturating_add(count)))
                .collect();
            assert_eq!(
                seq,
                ChipSeq::from_bits(&expected),
                "start {start} count {count}"
            );
        }
    }

    #[test]
    fn flip_range_preserves_padding_invariant() {
        let mut seq = ChipSeq::from_bits(&[false; 70]);
        seq.flip_range(0, 70);
        // All 70 chips flipped to +1; Eq against a clean construction
        // fails if padding bits leaked.
        assert_eq!(seq, ChipSeq::from_bits(&[true; 70]));
        assert_eq!(seq.words().last().copied().unwrap() >> 6, 0);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn packed_correlation_matches_naive(
            bits_a in proptest::collection::vec(any::<bool>(), 1..600),
            flip_mask in proptest::collection::vec(any::<bool>(), 600),
            cuts in proptest::collection::vec(1usize..600, 0..5),
        ) {
            // Concatenating the pieces of `bits_a` cut at `cuts` rebuilds
            // it exactly, whatever the pieces' word alignment.
            let mut bounds: Vec<usize> = cuts.iter().map(|&c| c % bits_a.len()).collect();
            bounds.extend([0, bits_a.len()]);
            bounds.sort_unstable();
            bounds.dedup();
            let pieces: Vec<ChipSeq> = bounds
                .windows(2)
                .map(|w| ChipSeq::from_bits(&bits_a[w[0]..w[1]]))
                .collect();
            let refs: Vec<&ChipSeq> = pieces.iter().collect();
            prop_assert_eq!(ChipSeq::concat(&refs), ChipSeq::from_bits(&bits_a));

            let bits_b: Vec<bool> = bits_a
                .iter()
                .zip(&flip_mask)
                .map(|(&a, &f)| a ^ f)
                .collect();
            let a = ChipSeq::from_bits(&bits_a);
            let b = ChipSeq::from_bits(&bits_b);
            let naive: i64 = bits_a
                .iter()
                .zip(&bits_b)
                .map(|(&x, &y)| if x == y { 1i64 } else { -1 })
                .sum();
            let expected = naive as f64 / bits_a.len() as f64;
            prop_assert!((a.correlate(&b) - expected).abs() < 1e-12);
        }

        #[test]
        fn correlation_is_symmetric(
            bits in proptest::collection::vec(any::<bool>(), 1..300),
            flips in proptest::collection::vec(any::<bool>(), 300),
        ) {
            let other: Vec<bool> = bits
                .iter()
                .zip(&flips)
                .map(|(&x, &f)| x ^ f)
                .collect();
            let a = ChipSeq::from_bits(&bits);
            let b = ChipSeq::from_bits(&other);
            prop_assert_eq!(a.correlate(&b), b.correlate(&a));
        }
    }
}
