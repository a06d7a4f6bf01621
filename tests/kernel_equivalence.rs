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

use jrsnd_dsss::channel::ChipChannel;
use jrsnd_dsss::code::SpreadCode;
use jrsnd_dsss::correlate::MultiCorrelator;
use jrsnd_dsss::spread::{reference as spread_ref, spread};
use jrsnd_dsss::sync::{
    reference as sync_ref, scan, scan_all, scan_from_with, scan_window, RefineStats, ScanScratch,
    SyncHit, WindowScratch,
};
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

/// A threshold on or beside the `k/N` grid near 0.3: the integer scan
/// triggers at `|dot| ≥ k` exactly where `|dot/N| ≥ τ` holds in `f64`, so
/// `k/N` itself and its neighbouring `f64` values must all agree.
fn grid_tau(n: usize, step: i64, side: u8) -> f64 {
    let k = (0.3 * n as f64).round() as i64 + step;
    let on_grid = k as f64 / n as f64;
    match side {
        0 => 0.30,
        1 => on_grid,
        2 => on_grid.next_down(),
        _ => on_grid.next_up(),
    }
}

/// Scans one synthetic buffer (`synth_buffer`, or `fully_jammed_buffer`
/// at `jam_amp`) with `m` random `n`-chip codes at threshold `tau`, once
/// from the start and then resumed past every hit, asserting each hit,
/// its `correlation` bits and its work against `sync::reference::scan`.
/// Returns the number of resumed hits.
fn scan_matches_reference(
    seed: u64,
    (m, n): (usize, usize),
    frames: usize,
    jam_amp: Option<i32>,
    tau: f64,
) -> Result<usize, TestCaseError> {
    let mut cr = rand::rngs::StdRng::seed_from_u64(seed ^ 0xC0DE);
    let codes: Vec<SpreadCode> = (0..m).map(|_| SpreadCode::random(n, &mut cr)).collect();
    let refs: Vec<&SpreadCode> = codes.iter().collect();
    let samples = match jam_amp {
        None => synth_buffer(seed, n, &codes, frames),
        Some(amp) => fully_jammed_buffer(seed, n, &codes, frames + 1, amp),
    };

    let fast = scan(&samples, &refs, tau);
    let slow = sync_ref::scan(&samples, &refs, tau);
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

    // Resume past every hit the way a HELLO receiver skips an undecodable
    // candidate: one scanner, one pooled scratch, against a fresh
    // reference scan of the remaining buffer each time.
    let bank = MultiCorrelator::new(&refs);
    let mut scanner = bank.scanner(&samples);
    let mut scratch = ScanScratch::new();
    let mut pos = 0usize;
    let mut hits = 0usize;
    while pos + n <= samples.len() {
        let fast = scan_from_with(&mut scanner, pos, tau, &mut scratch);
        let slow = sync_ref::scan(&samples[pos..], &refs, tau);
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
            (f, s) => prop_assert!(
                false,
                "resumed hit mismatch at {}: fast={:?} reference={:?}",
                pos,
                f,
                s
            ),
        }
    }
    Ok(hits)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]
    #[test]
    fn scan_is_bit_identical_to_reference(
        seed in 0u64..100_000,
        m in 1usize..5,
        n in prop_oneof![Just(100usize), Just(255), Just(256), Just(300)],
        frames in 0usize..3,
        jam_amp in prop_oneof![Just(None), (2i32..=4).prop_map(Some)],
        step in -2i64..=2,
        side in 0u8..4,
    ) {
        // Every case runs the engine's configuration, N = 256 at τ = 0.30,
        // and then a drawn code length at a threshold on or beside the k/N
        // grid.
        for (n, tau) in [(256, 0.30), (n, grid_tau(n, step, side))] {
            let hits = scan_matches_reference(seed, (m, n), frames, jam_amp, tau)?;
            if jam_amp.is_some() && n == 256 {
                // Every jammed bit boundary was a candidate. (Shorter
                // codes' sidelobes can outshine a boundary whose bit and
                // garbage nearly cancel, moving the candidates off the
                // grid.)
                prop_assert_eq!(hits, 12 * (frames + 1), "tau {}", tau);
            }
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

/// A hit's fields, with its correlation's bits.
fn hit_bits(h: SyncHit) -> (usize, usize, u64, u64) {
    (
        h.code_index,
        h.offset,
        h.correlation.to_bits(),
        h.correlations_computed,
    )
}

/// Scans the `span`-chip window at the start of `channel` twice: with
/// `scan_from_with` over its rendering, resumed one bit period past every
/// candidate and checked against a fresh `sync::reference::scan` of the
/// rest each time, and with `scan_window` straight off the medium, whose
/// candidates must be the same. Returns the candidates and what the
/// refinement bound did, which both scans must agree on.
fn bounded_scan_matches_reference(
    bank: &MultiCorrelator<'_>,
    channel: &ChipChannel,
    span: usize,
    tau: f64,
) -> (usize, RefineStats) {
    let n = bank.code_len();
    let samples = channel.render(0, span);
    let mut scanner = bank.scanner(&samples);
    let mut scratch = ScanScratch::new();
    let (mut want, mut pos) = (Vec::new(), 0);
    while pos + n <= span {
        let fast = scan_from_with(&mut scanner, pos, tau, &mut scratch);
        let slow = sync_ref::scan(&samples[pos..], bank.codes(), tau).map(|h| SyncHit {
            offset: pos + h.offset,
            ..h
        });
        assert_eq!(fast.map(hit_bits), slow.map(hit_bits), "resumed at {pos}");
        let Some(h) = fast else { break };
        want.push(h);
        pos = h.offset + n;
    }
    let mut got = Vec::new();
    let mut rx = WindowScratch::new();
    scan_window(bank, channel, (0, span), 48, tau, &mut rx, |h, _| {
        got.push(*h);
        false
    });
    assert_eq!(
        got.into_iter().map(hit_bits).collect::<Vec<_>>(),
        want.iter().copied().map(hit_bits).collect::<Vec<_>>()
    );
    assert_eq!(rx.refine_stats(), scratch.refine_stats());
    (want.len(), scratch.refine_stats())
}

/// The refinement's L1 bound skips only blocks that cannot raise the
/// running best, so every hit, correlation and work counter stays the
/// reference's. Two-copy HELLO windows (48 coded bits at N = 256, τ =
/// 0.30, the engine's calibration) go out on codes 2 and 0 to a receiver
/// listening on codes 0 and 1, under a code-0 jam over each copy's tail
/// at amplitudes 1–6 and fractions 0.2, 0.5 and 1.0; then two legitimate
/// senders overlap on codes 0 and 1. Both leave blocks the bound skips,
/// where no window is louder than the best peak so far, and blocks it
/// must not skip, which hold a new best: the jam sweep skips 3024 and
/// raises the best in 58, the overlapping senders 88 and 9.
#[test]
fn refinement_bound_changes_no_hit() {
    let (n, tau, bits) = (256usize, 0.30, 48usize);
    let mut r = rand::rngs::StdRng::seed_from_u64(0xB0C4);
    let codes: Vec<SpreadCode> = (0..3).map(|_| SpreadCode::random(n, &mut r)).collect();
    let bank = MultiCorrelator::new(&[&codes[0], &codes[1]]);
    let hello: Vec<bool> = (0..bits).map(|_| r.gen()).collect();
    let copy = bits * n;

    let mut jammed = RefineStats::default();
    for amplitude in 1..=6 {
        for fraction in [0.2, 0.5, 1.0] {
            let mut channel = ChipChannel::new(1);
            for (c, code) in [&codes[2], &codes[0]].into_iter().enumerate() {
                let start = (c * copy) as u64;
                channel.transmit(start, spread(&hello, code), 1);
                let jam_bits = (bits as f64 * fraction).round() as usize;
                let garbage: Vec<bool> = (0..jam_bits).map(|_| r.gen()).collect();
                let at = start + ((bits - jam_bits) * n) as u64;
                channel.transmit(at, spread(&garbage, &codes[0]), amplitude);
            }
            let (hits, stats) = bounded_scan_matches_reference(&bank, &channel, 2 * copy, tau);
            assert!(hits >= bits, "amplitude {amplitude}, fraction {fraction}");
            jammed.skipped += stats.skipped;
            jammed.raised += stats.raised;
        }
    }
    assert_eq!(
        jammed,
        RefineStats {
            skipped: 3024,
            raised: 58
        },
        "blocks over the jam sweep"
    );

    // The second sender starts two and a half bits into the first.
    let mut channel = ChipChannel::new(1);
    channel.transmit(0, spread(&hello, &codes[0]), 1);
    channel.transmit((5 * n / 2) as u64, spread(&hello, &codes[1]), 1);
    let (hits, overlapping) = bounded_scan_matches_reference(&bank, &channel, copy + 3 * n, tau);
    assert!(hits > 0);
    assert_eq!(
        overlapping,
        RefineStats {
            skipped: 88,
            raised: 9
        },
        "blocks under the overlapping senders"
    );
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
