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

/// [`masked_sums_body`] compiled for an explicit `level`, clamped to the
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

/// [`add_levels_body`] compiled for an explicit `level`, clamped to the
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
