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
//! integer arithmetic (`&`, popcounts, shifts, in-bound integer adds, XOR
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

/// Most offset-binary bit planes a sample buffer is held in for the
/// popcount kernel: with `B = max|s|`, every `u = s + B` lies in `0..=2B`,
/// and `2B ≤ 2^32 − 1` for any `i32` buffer (`B = 2^31` only when the
/// buffer holds `i32::MIN`, whose largest `s` is then `i32::MAX`).
pub const MAX_PLANES: usize = 32;

/// The number of planes that hold every `u = s + max_abs` of a buffer
/// whose largest magnitude is `max_abs`: the bit length of `2·max_abs`,
/// capped at [`MAX_PLANES`].
#[inline]
pub fn planes_for(max_abs: u32) -> usize {
    (u32::BITS - max_abs.saturating_mul(2).leading_zeros()) as usize
}

/// Writes the planes `bits` (ascending) of `samples`, `bits.len()` words
/// per 64-sample chunk: bit `k` of `planes[w·p + j]` is bit `bits[j]` of
/// `u = s + bias` for `s = samples[64w + k]`, taken as a wrapping `i32` add
/// read as `u32` (exact, as every `u` lies in `0..2^32`). A short last
/// chunk leaves its missing lanes zero. Each plane word is one
/// shift-mask-or pass over its chunk's 64 lanes, which vectorises with
/// per-lane shifts, so a window costs in proportion to the planes it
/// stores.
#[inline(always)]
fn fill_planes_body(bits: &[u32], samples: &[i32], bias: i32, planes: &mut [u64]) {
    for (chunk, out) in samples.chunks(64).zip(planes.chunks_exact_mut(bits.len())) {
        for (&bit, word) in bits.iter().zip(out.iter_mut()) {
            *word = chunk.iter().enumerate().fold(0, |w, (k, &s)| {
                w | u64::from(s.wrapping_add(bias) as u32 >> bit & 1) << k
            });
        }
    }
}

/// Weighted plane popcounts for a run of offsets that share one 64-chip
/// plane word: `out[i] = Σ_w Σ_j 2^{bits[j]}·popcnt(planes[w·p + j] ∧
/// masks[64w + lo + i])` with `p = bits.len()`. `planes` holds the `p`
/// stored plane words of each word a window touches and `bits` the bit
/// each stored plane holds; `masks` is one code's mask pre-shifted by
/// each of the 64 residues (`[w][r]` layout), so the inner loop ANDs
/// broadcast plane words with consecutive mask words — vector `popcnt`
/// work.
#[inline(always)]
fn plane_sums_body(bits: &[u32], planes: &[u64], masks: &[u64], lo: usize, out: &mut [u64]) {
    out.fill(0);
    for (w, pw) in planes.chunks_exact(bits.len()).enumerate() {
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

/// [`fill_planes_body`] and [`plane_sums_body`] with the plane counts a
/// clean or moderately jammed window stores (1–4) inlined as constants,
/// so one `#[target_feature]` wrapper serves them all; a louder buffer
/// runs the same body with its count at run time.
#[inline(always)]
fn fill_planes_any(bits: &[u32], samples: &[i32], bias: i32, planes: &mut [u64]) {
    match bits.len() {
        0 => {}
        1 => fill_planes_body(&bits[..1], samples, bias, planes),
        2 => fill_planes_body(&bits[..2], samples, bias, planes),
        3 => fill_planes_body(&bits[..3], samples, bias, planes),
        4 => fill_planes_body(&bits[..4], samples, bias, planes),
        _ => fill_planes_body(bits, samples, bias, planes),
    }
}

#[inline(always)]
fn plane_sums_any(bits: &[u32], planes: &[u64], masks: &[u64], lo: usize, out: &mut [u64]) {
    match bits.len() {
        0 => out.fill(0),
        1 => plane_sums_body(&bits[..1], planes, masks, lo, out),
        2 => plane_sums_body(&bits[..2], planes, masks, lo, out),
        3 => plane_sums_body(&bits[..3], planes, masks, lo, out),
        4 => plane_sums_body(&bits[..4], planes, masks, lo, out),
        _ => plane_sums_body(bits, planes, masks, lo, out),
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn fill_planes_avx2(bits: &[u32], samples: &[i32], bias: i32, planes: &mut [u64]) {
    fill_planes_any(bits, samples, bias, planes)
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse4.1")]
fn fill_planes_sse41(bits: &[u32], samples: &[i32], bias: i32, planes: &mut [u64]) {
    fill_planes_any(bits, samples, bias, planes)
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

/// Builds the offset-binary planes `bits` (ascending bit numbers of `u =
/// s + bias`, a wrapping `i32` add read as `u32`) of `samples` into the
/// `bits.len()` words per 64-sample chunk of `planes` — the plane pass of
/// [`crate::correlate::BitPlanes`], compiled for `level` (clamped to the
/// host's capability). Bits of `u` not named in `bits` are not written.
///
/// # Panics
///
/// Panics if more than [`MAX_PLANES`] planes are named or `planes` is
/// shorter than `bits.len()` words per chunk.
#[inline]
pub fn fill_planes_at(
    level: SimdLevel,
    bits: &[u32],
    samples: &[i32],
    bias: i32,
    planes: &mut [u64],
) {
    assert!(bits.len() <= MAX_PLANES, "at most MAX_PLANES planes");
    assert!(
        planes.len() >= samples.len().div_ceil(64) * bits.len(),
        "one word per plane per 64-sample chunk"
    );
    #[cfg(target_arch = "x86_64")]
    {
        let level = level.min(detected());
        match level {
            // SAFETY: `level` is clamped to `detected()`, so the required
            // feature is present on this CPU.
            SimdLevel::Avx2 => return unsafe { fill_planes_avx2(bits, samples, bias, planes) },
            SimdLevel::Sse41 => return unsafe { fill_planes_sse41(bits, samples, bias, planes) },
            SimdLevel::Scalar => {}
        }
    }
    let _ = level;
    fill_planes_any(bits, samples, bias, planes)
}

/// The weighted plane popcounts of `out.len()` consecutive offsets
/// starting at residue `lo` of one plane word, against one code's
/// pre-shifted masks — the inner loop of every plane-held block
/// correlation ([`crate::correlate::BankScanner::dot_block`]),
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
    fn every_runnable_level_agrees_on_plane_sums() {
        let mut r = rand::rngs::StdRng::seed_from_u64(14);
        // The monomorphised counts (0–4), then louder buffers' 5, 9 (past
        // one byte group, with a plane missing) and 32 planes.
        let all: Vec<u32> = (0..32).collect();
        let subsets: [&[u32]; 9] = [
            &[],
            &[1],
            &[0, 1],
            &[1, 2, 3],
            &[0, 2, 3],
            &[0, 1, 2, 3],
            &[0, 1, 2, 3, 4],
            &[0, 1, 3, 4, 5, 6, 7, 8, 9],
            &all,
        ];
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
        // Every max|s| up to the four-plane arms, then 5, 9, 21 and 32
        // planes; 2^31 is a buffer holding i32::MIN. Each is filled whole,
        // without bit 0 (an even-only window), and as a sparse set that
        // skips bits within and across byte groups.
        let loud = [8u32, 255, 1_000_003, i32::MAX as u32, 1 << 31];
        for max_abs in (0u32..=7).chain(loud) {
            let all: Vec<u32> = (0..planes_for(max_abs) as u32).collect();
            let sparse: Vec<u32> = all.iter().copied().filter(|b| b % 3 != 1).collect();
            let b = i64::from(max_abs);
            let lane = |s: i64| s.clamp(i64::from(i32::MIN), i64::from(i32::MAX)) as i32;
            for bits in [&all[..], &all[all.len().min(1)..], &sparse[..]] {
                for len in [1usize, 63, 64, 65, 300] {
                    let mut samples: Vec<i32> =
                        (0..len).map(|_| lane(r.gen_range(-b..=b))).collect();
                    samples[len / 2] = lane(-b);
                    let mut want = vec![0u64; len.div_ceil(64) * bits.len()];
                    for (i, &s) in samples.iter().enumerate() {
                        let u = (i64::from(s) + b) as u64;
                        for (p, &bit) in bits.iter().enumerate() {
                            want[i / 64 * bits.len() + p] |= ((u >> bit) & 1) << (i % 64);
                        }
                    }
                    for &level in levels_up_to(detected()) {
                        let mut got = vec![u64::MAX; want.len()];
                        // The bias wraps to i32::MIN for 2^31.
                        fill_planes_at(level, bits, &samples, max_abs as i32, &mut got);
                        assert_eq!(
                            got, want,
                            "{level:?} max_abs={max_abs} bits={bits:?} len={len}"
                        );
                    }
                }
            }
        }
        assert_eq!(planes_for(0), 0);
        assert_eq!(planes_for(1), 2);
        assert_eq!(planes_for(3), 3);
        assert_eq!(planes_for(4), 4);
        assert_eq!(planes_for(7), 4);
        assert_eq!(planes_for(8), 5);
        assert_eq!(planes_for(255), 9);
        assert_eq!(planes_for(1_000_003), 21);
        assert_eq!(planes_for(i32::MAX as u32), MAX_PLANES);
        assert_eq!(planes_for(1 << 31), MAX_PLANES);
        assert_eq!(planes_for(u32::MAX), MAX_PLANES);
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
