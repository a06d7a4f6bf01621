//! End-to-end equivalence of the bit-parallel batched scan with the scalar
//! reference implementation it replaced.
//!
//! The `jrsnd_dsss::correlate` kernels promise *bit-identical* results, not
//! merely close ones: integer accumulation is exact in both paths, so every
//! correlation value, every hit offset, every work counter and every
//! decoded frame must match the chip-at-a-time originals (kept under
//! `spread::reference` / `sync::reference`). These tests drive whole
//! receiver scenarios — dead air, multiple frames, same-code jamming,
//! noise — through both paths and require equality.

use jrsnd_dsss::code::SpreadCode;
use jrsnd_dsss::correlate::MultiCorrelator;
use jrsnd_dsss::spread::{reference as spread_ref, spread};
use jrsnd_dsss::sync::{reference as sync_ref, scan, scan_all, scan_from_with, ScanScratch};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};

/// Builds a receiver buffer with `frames` spread messages separated by dead
/// air, optional same-code jamming over message tails, and sparse noise.
fn synth_buffer(seed: u64, n: usize, codes: &[SpreadCode], frames: usize) -> Vec<i32> {
    let mut r = rand::rngs::StdRng::seed_from_u64(seed);
    let mut samples: Vec<i32> = Vec::new();
    for _ in 0..frames {
        let lead = r.gen_range(0..2 * n);
        samples.extend(std::iter::repeat_n(0i32, lead));
        let code = &codes[r.gen_range(0..codes.len())];
        let msg: Vec<bool> = (0..8).map(|_| r.gen()).collect();
        let mut levels = spread(&msg, code).to_levels();
        if r.gen_bool(0.3) {
            // Reactive jammer over the tail: large amplitudes, sign flips.
            let start = levels.len() / 2;
            for l in levels[start..].iter_mut() {
                *l = if r.gen() { 1_000_003 } else { -1_000_003 };
            }
        }
        samples.extend(levels);
    }
    samples.extend(std::iter::repeat_n(0i32, n));
    // Sparse background noise on top of everything.
    for s in samples.iter_mut() {
        if r.gen_bool(0.02) {
            *s += r.gen_range(-3..=3);
        }
    }
    samples
}

/// A HELLO-shaped buffer under a same-code reactive jammer covering every
/// bit: dead air, then `frames` back-to-back frames spread with
/// `codes[0]`, each overlaid with garbage bits spread with the same code
/// at amplitude `amp`. Every bit boundary clears τ, so every one of them
/// becomes a sync candidate.
fn fully_jammed_buffer(
    seed: u64,
    n: usize,
    codes: &[SpreadCode],
    frames: usize,
    amp: i32,
) -> Vec<i32> {
    let mut r = rand::rngs::StdRng::seed_from_u64(seed ^ 0x7A33);
    let lead = r.gen_range(0..n);
    let mut samples = vec![0i32; lead];
    for _ in 0..frames {
        let msg: Vec<bool> = (0..12).map(|_| r.gen()).collect();
        let garbage: Vec<bool> = (0..12).map(|_| r.gen()).collect();
        let frame = spread(&msg, &codes[0]).to_levels();
        let jam = spread(&garbage, &codes[0]).to_levels();
        samples.extend(frame.iter().zip(&jam).map(|(&s, &j)| s + amp * j));
    }
    samples.extend(std::iter::repeat_n(0i32, n / 2));
    samples
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]
    #[test]
    fn scan_is_bit_identical_to_reference(
        seed in 0u64..100_000,
        m in 1usize..5,
        frames in 0usize..3,
        jam_amp in prop_oneof![Just(None), (2i32..=4).prop_map(Some)],
    ) {
        let n = 256usize;
        let mut cr = rand::rngs::StdRng::seed_from_u64(seed ^ 0xC0DE);
        let codes: Vec<SpreadCode> = (0..m).map(|_| SpreadCode::random(n, &mut cr)).collect();
        let refs: Vec<&SpreadCode> = codes.iter().collect();
        let samples = match jam_amp {
            None => synth_buffer(seed, n, &codes, frames),
            Some(amp) => fully_jammed_buffer(seed, n, &codes, frames + 1, amp),
        };

        let fast = scan(&samples, &refs, 0.30);
        let slow = sync_ref::scan(&samples, &refs, 0.30);
        match (fast, slow) {
            (None, None) => {}
            (Some(f), Some(s)) => {
                prop_assert_eq!(f.code_index, s.code_index);
                prop_assert_eq!(f.offset, s.offset);
                prop_assert_eq!(f.correlation.to_bits(), s.correlation.to_bits());
                prop_assert_eq!(f.correlations_computed, s.correlations_computed);
            }
            (f, s) => prop_assert!(false, "hit mismatch: fast={:?} reference={:?}", f, s),
        }

        // Resume past every hit the way a HELLO receiver skips an
        // undecodable candidate: one scanner, one pooled scratch, against
        // a fresh reference scan of the remaining buffer each time.
        let bank = MultiCorrelator::new(&refs);
        let mut scanner = bank.scanner(&samples);
        let mut scratch = ScanScratch::new();
        let mut pos = 0usize;
        let mut hits = 0usize;
        while pos + n <= samples.len() {
            let fast = scan_from_with(&mut scanner, pos, 0.30, &mut scratch);
            let slow = sync_ref::scan(&samples[pos..], &refs, 0.30);
            match (fast, slow) {
                (None, None) => break,
                (Some(f), Some(s)) => {
                    prop_assert_eq!(f.code_index, s.code_index);
                    prop_assert_eq!(f.offset, pos + s.offset);
                    prop_assert_eq!(f.correlation.to_bits(), s.correlation.to_bits());
                    prop_assert_eq!(f.correlations_computed, s.correlations_computed);
                    pos = f.offset + n;
                    hits += 1;
                }
                (f, s) => prop_assert!(false, "resumed hit mismatch at {}: fast={:?} reference={:?}", pos, f, s),
            }
        }
        if jam_amp.is_some() {
            // Every jammed bit boundary was a candidate.
            prop_assert_eq!(hits, 12 * (frames + 1));
        }
    }

    #[test]
    fn single_window_correlation_is_bit_identical(
        seed in 0u64..100_000,
        n in 1usize..400,
    ) {
        let mut r = rand::rngs::StdRng::seed_from_u64(seed);
        let code = SpreadCode::random(n, &mut r);
        // Amplitudes up to the i32 limits: a jammed buffer must not change
        // the result by so much as one ULP.
        let window: Vec<i32> = (0..n)
            .map(|_| match r.gen_range(0..4) {
                0 => i32::MIN,
                1 => i32::MAX,
                _ => r.gen_range(-100..=100),
            })
            .collect();
        let fast = jrsnd_dsss::spread::correlate_window(&window, &code);
        let slow = spread_ref::correlate_window(&window, &code);
        prop_assert_eq!(fast.to_bits(), slow.to_bits());
    }
}

/// The hit lists of `scan_all` — every `(code_index, offset, frame)` triple
/// — must be identical to the scalar reference on fixed seeds, so the
/// kernel rewrite is invisible to everything downstream of the receiver.
#[test]
fn scan_all_hit_lists_are_identical_on_fixed_seeds() {
    let n = 256usize;
    for seed in [1u64, 7, 42, 2011, 31_337] {
        let mut cr = rand::rngs::StdRng::seed_from_u64(seed);
        let codes: Vec<SpreadCode> = (0..4).map(|_| SpreadCode::random(n, &mut cr)).collect();
        let refs: Vec<&SpreadCode> = codes.iter().collect();
        let samples = synth_buffer(seed, n, &codes, 4);

        let fast = scan_all(&samples, &refs, 8, 0.30);
        let slow = sync_ref::scan_all(&samples, &refs, 8, 0.30);
        assert_eq!(
            fast, slow,
            "scan_all diverged from reference at seed {seed}"
        );
    }
}

/// Whole receiver scenarios through the chip-medium kernel: the blocked
/// word-parallel `ChipChannel::render` and the render-free
/// `despread_from_channel` must match the chip-at-a-time channel oracle
/// composed with the materialised despread, bit for bit, on a noisy
/// many-transmission medium.
#[test]
fn channel_render_and_fused_despread_match_reference_end_to_end() {
    use jrsnd_dsss::channel::{self, ChipChannel};
    use jrsnd_dsss::spread::{despread_from_channel, despread_levels};

    let n = 256usize;
    for seed in [3u64, 11, 2011, 90_210] {
        let mut r = rand::rngs::StdRng::seed_from_u64(seed);
        let codes: Vec<SpreadCode> = (0..6).map(|_| SpreadCode::random(n, &mut r)).collect();
        let mut chan = ChipChannel::new(seed ^ 0xA5A5).with_noise(0.1);
        let msg: Vec<bool> = (0..10).map(|_| r.gen()).collect();
        for (i, code) in codes.iter().enumerate() {
            let amp = if i % 3 == 2 { -5 } else { 1 + i as i32 };
            chan.transmit(r.gen_range(0..3 * n as u64), spread(&msg, code), amp);
        }
        let total = msg.len() * n + 3 * n;

        let packed = chan.render(0, total);
        let scalar = channel::reference::render(&chan, 0, total);
        assert_eq!(packed, scalar, "render diverged from oracle at seed {seed}");

        for code in &codes {
            let render_free = despread_from_channel(&chan, 0, code, msg.len(), 0.30);
            let materialised = despread_levels(&scalar[..msg.len() * n], code, 0.30);
            assert_eq!(
                render_free, materialised,
                "render-free despread diverged at seed {seed}"
            );
        }
    }
}
