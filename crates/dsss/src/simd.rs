//! Runtime-dispatched inner loops for the correlate and render kernels.
//!
//! Each hot loop here has exactly one generic body, compiled up to three
//! times behind `#[target_feature]` (baseline, SSE4.1, AVX2). Dispatch
//! happens per call on the process-wide [`jrsnd_sim::simd::active`] level,
//! so a binary built for the portable baseline still runs the wide kernels
//! on a capable CPU — the committed `-C target-cpu=native` flag is a local
//! optimisation, no longer a correctness-of-throughput requirement.
//!
//! All three compilations of a body are bit-identical: the loops are pure
//! integer arithmetic (`&`, widening or in-bound `i32` adds, XOR
//! sign-select), with no floating-point reassociation for the vectorizer
//! to exploit. The `*_at` entry points expose the per-level variants so
//! the kernel-equivalence suite can assert that on the running host.
//!
//! Safety: `#[target_feature]` functions are unsafe to call from
//! un-attributed code; every `unsafe` block below is guarded by the
//! [`SimdLevel`] match, and [`jrsnd_sim::simd::active`] never returns a
//! level above [`jrsnd_sim::simd::detected`].
#![allow(unsafe_code)]

use crate::chip::ChipSeq;
pub use jrsnd_sim::simd::{active, detected, SimdLevel};

/// The positive-chip masked sum `Σ (window[i] & row[i])` with widening
/// `i64` accumulation — exact for any `i32` samples.
#[inline(always)]
fn masked_sum_body(window: &[i32], row: &[i32]) -> i64 {
    window
        .iter()
        .zip(row)
        .map(|(&s, &e)| i64::from(s & e))
        .sum()
}

/// Whether the `i32` masked-sum kernel is exact for windows of `n`
/// samples whose magnitudes are all at most `max_abs`: every partial sum
/// of `s & e` is a sum of at most `n` such samples, so `max_abs · n ≤
/// i32::MAX` keeps each one inside `i32`.
#[inline]
pub fn fits_narrow(max_abs: u32, n: usize) -> bool {
    u64::from(max_abs).saturating_mul(n as u64) <= i32::MAX as u64
}

/// [`masked_sum_body`] with `i32` accumulation: twice the lanes per vector
/// of the widening kernel, exact whenever [`fits_narrow`] holds.
#[inline(always)]
fn masked_sum_narrow_body(window: &[i32], row: &[i32]) -> i32 {
    window
        .iter()
        .zip(row)
        .fold(0i32, |acc, (&s, &e)| acc.wrapping_add(s & e))
}

/// Positive-chip sums of consecutive windows against one mask row:
/// `out[i] = Σ_k samples[i + k] & row[k]` for every `i < out.len()`, so
/// `samples` spans `out.len() + row.len() − 1` chips. `narrow` selects the
/// `i32` kernel for the whole run and must only be set when
/// [`fits_narrow`] holds for `samples`. One dispatch serves every window,
/// and inside it the per-window kernel inlines.
#[inline(always)]
fn masked_sums_body(samples: &[i32], row: &[i32], narrow: bool, out: &mut [i64]) {
    let n = row.len();
    if narrow {
        for (i, o) in out.iter_mut().enumerate() {
            *o = i64::from(masked_sum_narrow_body(&samples[i..i + n], row));
        }
    } else {
        for (i, o) in out.iter_mut().enumerate() {
            *o = masked_sum_body(&samples[i..i + n], row);
        }
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn masked_sums_avx2(samples: &[i32], row: &[i32], narrow: bool, out: &mut [i64]) {
    masked_sums_body(samples, row, narrow, out)
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse4.1")]
fn masked_sums_sse41(samples: &[i32], row: &[i32], narrow: bool, out: &mut [i64]) {
    masked_sums_body(samples, row, narrow, out)
}

/// The masked-sum loop compiled for an explicit `level`, clamped to the
/// host's capability — the inner loop of every bank correlation
/// ([`crate::correlate::MultiCorrelator`]). Hot paths hoist [`active`]
/// once and pass it in; the kernel-equivalence tests pass every level.
///
/// # Panics
///
/// Panics if `samples` is shorter than `out.len() + row.len() − 1`.
#[inline]
pub fn masked_sums_at(
    level: SimdLevel,
    narrow: bool,
    samples: &[i32],
    row: &[i32],
    out: &mut [i64],
) {
    assert!(
        out.is_empty() || samples.len() + 1 >= out.len() + row.len(),
        "samples do not cover every window"
    );
    #[cfg(target_arch = "x86_64")]
    {
        let level = level.min(detected());
        match level {
            // SAFETY: `level` is clamped to `detected()`, so the required
            // feature is present on this CPU.
            SimdLevel::Avx2 => return unsafe { masked_sums_avx2(samples, row, narrow, out) },
            SimdLevel::Sse41 => return unsafe { masked_sums_sse41(samples, row, narrow, out) },
            SimdLevel::Scalar => {}
        }
    }
    let _ = level;
    masked_sums_body(samples, row, narrow, out)
}

/// Most offset-binary bit planes a sample buffer is held in for the
/// popcount kernel: with `B = max|s| ≤ 7`, every `u = s + B` lies in
/// `0..=14` and fits four planes. Buffers with louder samples keep the
/// masked-sum kernels.
pub const MAX_PLANES: usize = 4;

/// The number of planes that hold every `u = s + max_abs` of a buffer
/// whose largest magnitude is `max_abs` (the bit length of `2·max_abs`),
/// or `None` past [`MAX_PLANES`].
#[inline]
pub fn planes_for(max_abs: u32) -> Option<usize> {
    let planes = (u32::BITS - max_abs.saturating_mul(2).leading_zeros()) as usize;
    (planes <= MAX_PLANES).then_some(planes)
}

/// Writes `samples` as `P` offset-binary planes, `P` words per 64-sample
/// chunk: bit `k` of `planes[w·P + p]` is bit `p` of
/// `samples[64w + k] + bias`. A short last chunk leaves its missing
/// lanes zero. Each chunk is narrowed to bytes (every `u` is below 16),
/// and each plane gathers eight lanes' bits per multiply: with bit `p`
/// of each byte moved to bit 0, `x · 0x0102040810204080` collects the
/// eight bits in its top byte.
#[inline(always)]
fn fill_planes_body<const P: usize>(samples: &[i32], bias: i32, planes: &mut [u64]) {
    const LANE_BITS: u64 = 0x0101_0101_0101_0101;
    const GATHER: u64 = 0x0102_0408_1020_4080;
    for (chunk, out) in samples.chunks(64).zip(planes.chunks_exact_mut(P)) {
        let mut bytes = [0u8; 64];
        for (b, &s) in bytes.iter_mut().zip(chunk) {
            *b = (s + bias) as u8;
        }
        let mut words = [0u64; P];
        for (g, lanes) in bytes.chunks_exact(8).enumerate() {
            let x = u64::from_le_bytes(lanes.try_into().expect("eight lanes"));
            for (p, w) in words.iter_mut().enumerate() {
                let bits = ((x >> p) & LANE_BITS).wrapping_mul(GATHER) >> 56;
                *w |= bits << (8 * g);
            }
        }
        out.copy_from_slice(&words);
    }
}

/// Weighted plane popcounts for a run of offsets that share one 64-chip
/// plane word: `out[i] = Σ_w Σ_p 2^{bits[p]}·popcnt(planes[w·P + p] ∧
/// masks[64w + lo + i])`. `planes` holds the `P` stored plane words of
/// each word a window touches and `bits` the bit each stored plane holds;
/// `masks` is one code's mask pre-shifted by each of the 64 residues
/// (`[w][r]` layout), so the inner loop ANDs broadcast plane words with
/// consecutive mask words — vector `popcnt` work.
#[inline(always)]
fn plane_sums_body<const P: usize>(
    bits: &[u32],
    planes: &[u64],
    masks: &[u64],
    lo: usize,
    out: &mut [u64],
) {
    let bits: &[u32; P] = bits.try_into().expect("one bit index per plane");
    out.fill(0);
    for (w, pw) in planes.chunks_exact(P).enumerate() {
        let pw: &[u64; P] = pw.try_into().expect("P words per plane word");
        let row = &masks[w * 64 + lo..][..out.len()];
        for (o, &m) in out.iter_mut().zip(row) {
            let mut s = 0u64;
            for (&plane, &bit) in pw.iter().zip(bits) {
                s += u64::from((plane & m).count_ones()) << bit;
            }
            *o += s;
        }
    }
}

/// [`fill_planes_body`] and [`plane_sums_body`] monomorphised for each
/// plane count, so one `#[target_feature]` wrapper serves them all.
#[inline(always)]
fn fill_planes_any(n_planes: usize, samples: &[i32], bias: i32, planes: &mut [u64]) {
    match n_planes {
        0 => {}
        1 => fill_planes_body::<1>(samples, bias, planes),
        2 => fill_planes_body::<2>(samples, bias, planes),
        3 => fill_planes_body::<3>(samples, bias, planes),
        4 => fill_planes_body::<4>(samples, bias, planes),
        p => unreachable!("{p} planes exceed MAX_PLANES"),
    }
}

#[inline(always)]
fn plane_sums_any(bits: &[u32], planes: &[u64], masks: &[u64], lo: usize, out: &mut [u64]) {
    match bits.len() {
        0 => out.fill(0),
        1 => plane_sums_body::<1>(bits, planes, masks, lo, out),
        2 => plane_sums_body::<2>(bits, planes, masks, lo, out),
        3 => plane_sums_body::<3>(bits, planes, masks, lo, out),
        4 => plane_sums_body::<4>(bits, planes, masks, lo, out),
        p => unreachable!("{p} planes exceed MAX_PLANES"),
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn fill_planes_avx2(n_planes: usize, samples: &[i32], bias: i32, planes: &mut [u64]) {
    fill_planes_any(n_planes, samples, bias, planes)
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse4.1")]
fn fill_planes_sse41(n_planes: usize, samples: &[i32], bias: i32, planes: &mut [u64]) {
    fill_planes_any(n_planes, samples, bias, planes)
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn plane_sums_avx2(bits: &[u32], planes: &[u64], masks: &[u64], lo: usize, out: &mut [u64]) {
    plane_sums_any(bits, planes, masks, lo, out)
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse4.1")]
fn plane_sums_sse41(bits: &[u32], planes: &[u64], masks: &[u64], lo: usize, out: &mut [u64]) {
    plane_sums_any(bits, planes, masks, lo, out)
}

/// Builds the `n_planes` offset-binary planes of `samples` (`u = s +
/// bias`, every `u` in `0..2^n_planes`) into the first `n_planes` words
/// per 64-sample chunk of `planes` — the plane pass of
/// [`crate::correlate::PrefixSums`], compiled for `level` (clamped to the
/// host's capability).
///
/// # Panics
///
/// Panics if `n_planes > MAX_PLANES` or `planes` is shorter than
/// `n_planes` words per chunk.
#[inline]
pub fn fill_planes_at(
    level: SimdLevel,
    n_planes: usize,
    samples: &[i32],
    bias: i32,
    planes: &mut [u64],
) {
    assert!(n_planes <= MAX_PLANES, "at most MAX_PLANES planes");
    assert!(
        planes.len() >= samples.len().div_ceil(64) * n_planes,
        "n_planes words per 64-sample chunk"
    );
    #[cfg(target_arch = "x86_64")]
    {
        let level = level.min(detected());
        match level {
            // SAFETY: `level` is clamped to `detected()`, so the required
            // feature is present on this CPU.
            SimdLevel::Avx2 => return unsafe { fill_planes_avx2(n_planes, samples, bias, planes) },
            SimdLevel::Sse41 => {
                return unsafe { fill_planes_sse41(n_planes, samples, bias, planes) }
            }
            SimdLevel::Scalar => {}
        }
    }
    let _ = level;
    fill_planes_any(n_planes, samples, bias, planes)
}

/// The weighted plane popcounts of `out.len()` consecutive offsets
/// starting at residue `lo` of one plane word, against one code's
/// pre-shifted masks — the inner loop of every plane-held block
/// correlation ([`crate::correlate::BankScanner::correlate_block`]),
/// compiled for `level` (clamped to the host's capability). `bits` names
/// the bit of `u` each stored plane holds, `planes` holds `bits.len()`
/// words for each word the windows touch, and `masks` 64 residue words
/// for each of those words.
///
/// # Panics
///
/// Panics if more than [`MAX_PLANES`] planes are given, if `planes` is
/// not whole plane words, or if `lo + out.len()` exceeds 64 or `masks`.
#[inline]
pub fn plane_sums_at(
    level: SimdLevel,
    bits: &[u32],
    planes: &[u64],
    masks: &[u64],
    lo: usize,
    out: &mut [u64],
) {
    let p = bits.len();
    assert!(p <= MAX_PLANES, "at most MAX_PLANES planes");
    assert!(lo + out.len() <= 64, "offsets share one plane word");
    assert!(
        p == 0 || (planes.len().is_multiple_of(p) && planes.len() / p * 64 <= masks.len()),
        "one 64-residue mask row per plane word"
    );
    #[cfg(target_arch = "x86_64")]
    {
        let level = level.min(detected());
        match level {
            // SAFETY: `level` is clamped to `detected()`, so the required
            // feature is present on this CPU.
            SimdLevel::Avx2 => return unsafe { plane_sums_avx2(bits, planes, masks, lo, out) },
            SimdLevel::Sse41 => return unsafe { plane_sums_sse41(bits, planes, masks, lo, out) },
            SimdLevel::Scalar => {}
        }
    }
    let _ = level;
    plane_sums_any(bits, planes, masks, lo, out)
}

/// Superposes `out.len()` chips of `chips` (starting at chip `rel`) onto
/// `out` at amplitude `amp` — the per-transmission inner loop of
/// [`crate::channel::ChipChannel`] rendering. `e = 0` for a +1 chip and
/// `−1` for a −1 chip, so `(amp ^ e) − e` is ±amp branch-free.
#[inline(always)]
fn add_levels_body(out: &mut [i32], chips: &ChipSeq, mut rel: usize, amp: i32) {
    let mut oi = 0usize;
    let mut remaining = out.len();
    while remaining >= 64 {
        let w = chips.word_at(rel);
        for (k, slot) in out[oi..oi + 64].iter_mut().enumerate() {
            let e = (((w >> k) & 1) as i32).wrapping_sub(1);
            *slot += (amp ^ e) - e;
        }
        rel += 64;
        oi += 64;
        remaining -= 64;
    }
    if remaining > 0 {
        let w = chips.word_at(rel);
        for (k, slot) in out[oi..oi + remaining].iter_mut().enumerate() {
            let e = (((w >> k) & 1) as i32).wrapping_sub(1);
            *slot += (amp ^ e) - e;
        }
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn add_levels_avx2(out: &mut [i32], chips: &ChipSeq, rel: usize, amp: i32) {
    add_levels_body(out, chips, rel, amp)
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse4.1")]
fn add_levels_sse41(out: &mut [i32], chips: &ChipSeq, rel: usize, amp: i32) {
    add_levels_body(out, chips, rel, amp)
}

/// The transmission-add loop compiled for an explicit `level`, clamped to the
/// host's capability. Exposed for the kernel-equivalence tests.
#[inline]
pub fn add_levels_at(level: SimdLevel, out: &mut [i32], chips: &ChipSeq, rel: usize, amp: i32) {
    #[cfg(target_arch = "x86_64")]
    {
        let level = level.min(detected());
        match level {
            // SAFETY: `level` is clamped to `detected()`, so the required
            // feature is present on this CPU.
            SimdLevel::Avx2 => return unsafe { add_levels_avx2(out, chips, rel, amp) },
            SimdLevel::Sse41 => return unsafe { add_levels_sse41(out, chips, rel, amp) },
            SimdLevel::Scalar => {}
        }
    }
    let _ = level;
    add_levels_body(out, chips, rel, amp)
}

/// The dispatched transmission-add at the process-wide active level.
#[inline]
pub(crate) fn add_levels(out: &mut [i32], chips: &ChipSeq, rel: usize, amp: i32) {
    add_levels_at(active(), out, chips, rel, amp)
}

#[cfg(test)]
mod tests {
    use super::*;
    use jrsnd_sim::simd::levels_up_to;
    use rand::{Rng, SeedableRng};

    #[test]
    fn every_runnable_level_agrees_on_masked_sum() {
        let mut r = rand::rngs::StdRng::seed_from_u64(11);
        for n in [1usize, 63, 64, 65, 256, 511] {
            let window: Vec<i32> = (0..n).map(|_| r.gen_range(i32::MIN..=i32::MAX)).collect();
            let row: Vec<i32> = (0..n).map(|_| -i32::from(r.gen::<bool>())).collect();
            let want = masked_sum_body(&window, &row);
            for &level in levels_up_to(detected()) {
                let mut got = [0i64];
                masked_sums_at(level, false, &window, &row, &mut got);
                assert_eq!(got[0], want, "{level:?} n={n}");
            }
        }
    }

    #[test]
    fn every_runnable_level_agrees_on_narrow_masked_sum() {
        let mut r = rand::rngs::StdRng::seed_from_u64(13);
        for (n, count) in [
            (1usize, 5usize),
            (63, 2),
            (64, 1),
            (65, 64),
            (256, 17),
            (511, 3),
        ] {
            let bound = (i32::MAX as usize / n) as i32;
            let row: Vec<i32> = (0..n).map(|_| -i32::from(r.gen::<bool>())).collect();
            // Magnitudes up to the bound fit the i32 kernel; one past it
            // (or i32::MIN, for n = 1) does not, and there an all-selected
            // window of equal samples would overflow i32.
            let past = if n == 1 { i32::MIN } else { -bound - 1 };
            assert!(fits_narrow(bound.unsigned_abs(), n));
            assert!(!fits_narrow(past.unsigned_abs(), n));
            assert!(i64::from(past).abs() * n as i64 > i64::from(i32::MAX));
            let random: Vec<i32> = (0..count + n - 1)
                .map(|_| r.gen_range(-bound..=bound))
                .collect();
            let all = vec![-1i32; n];
            for (samples, row) in [
                (random, &row),
                (vec![bound; count + n - 1], &all),
                (vec![-bound; count + n - 1], &all),
            ] {
                let want: Vec<i64> = (0..count)
                    .map(|i| masked_sum_body(&samples[i..i + n], row))
                    .collect();
                for &level in levels_up_to(detected()) {
                    for narrow in [true, false] {
                        let mut got = vec![0i64; count];
                        masked_sums_at(level, narrow, &samples, row, &mut got);
                        assert_eq!(got, want, "{level:?} n={n} narrow={narrow}");
                    }
                }
            }
        }
    }

    #[test]
    fn every_runnable_level_agrees_on_plane_sums() {
        let mut r = rand::rngs::StdRng::seed_from_u64(14);
        let subsets: [&[u32]; 6] = [&[], &[1], &[0, 1], &[1, 2, 3], &[0, 2, 3], &[0, 1, 2, 3]];
        for bits in subsets {
            let n_planes = bits.len();
            for words in [1usize, 2, 5, 9] {
                let planes: Vec<u64> = (0..words * n_planes).map(|_| r.gen()).collect();
                let masks: Vec<u64> = (0..words * 64).map(|_| r.gen()).collect();
                for (lo, len) in [(0usize, 64usize), (0, 1), (17, 30), (63, 1), (5, 59)] {
                    let want: Vec<u64> = (lo..lo + len)
                        .map(|res| {
                            (0..words)
                                .flat_map(|w| (0..n_planes).map(move |p| (w, p)))
                                .map(|(w, p)| {
                                    let word = planes[w * n_planes + p] & masks[w * 64 + res];
                                    u64::from(word.count_ones()) << bits[p]
                                })
                                .sum()
                        })
                        .collect();
                    for &level in levels_up_to(detected()) {
                        let mut got = vec![u64::MAX; len];
                        plane_sums_at(level, bits, &planes, &masks, lo, &mut got);
                        assert_eq!(got, want, "{level:?} bits={bits:?} words={words} lo={lo}");
                    }
                }
            }
        }
    }

    #[test]
    fn every_runnable_level_agrees_on_fill_planes() {
        let mut r = rand::rngs::StdRng::seed_from_u64(15);
        for max_abs in 0u32..=7 {
            let n_planes = planes_for(max_abs).expect("at most four planes");
            let bias = max_abs as i32;
            for len in [1usize, 63, 64, 65, 300] {
                let samples: Vec<i32> = (0..len).map(|_| r.gen_range(-bias..=bias)).collect();
                let mut want = vec![0u64; len.div_ceil(64) * n_planes];
                for (i, &s) in samples.iter().enumerate() {
                    for p in 0..n_planes {
                        want[i / 64 * n_planes + p] |= (((s + bias) as u64 >> p) & 1) << (i % 64);
                    }
                }
                for &level in levels_up_to(detected()) {
                    let mut got = vec![0u64; want.len()];
                    fill_planes_at(level, n_planes, &samples, bias, &mut got);
                    assert_eq!(got, want, "{level:?} max_abs={max_abs} len={len}");
                }
            }
        }
        assert_eq!(planes_for(0), Some(0));
        assert_eq!(planes_for(1), Some(2));
        assert_eq!(planes_for(3), Some(3));
        assert_eq!(planes_for(4), Some(4));
        assert_eq!(planes_for(7), Some(4));
        assert_eq!(planes_for(8), None);
        assert_eq!(planes_for(u32::MAX), None);
    }

    #[test]
    fn every_runnable_level_agrees_on_add_levels() {
        let mut r = rand::rngs::StdRng::seed_from_u64(12);
        let bits: Vec<bool> = (0..300).map(|_| r.gen()).collect();
        let chips = ChipSeq::from_bits(&bits);
        for (len, rel, amp) in [
            (1usize, 0usize, 1i32),
            (64, 3, -2),
            (200, 64, 3),
            (299, 1, 7),
        ] {
            let base: Vec<i32> = (0..len).map(|_| r.gen_range(-100..=100)).collect();
            let mut want = base.clone();
            add_levels_body(&mut want, &chips, rel, amp);
            for &level in levels_up_to(detected()) {
                let mut got = base.clone();
                add_levels_at(level, &mut got, &chips, rel, amp);
                assert_eq!(got, want, "{level:?} len={len} rel={rel}");
            }
        }
    }
}
