//! DSSS micro-benchmarks: the bit-packed correlator (and its naive
//! baseline — the ablation justifying the representation), spreading, and
//! the sliding-window scan whose cost is the paper's ρ.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use jrsnd_dsss::channel::{self, ChipChannel};
use jrsnd_dsss::chip::ChipSeq;
use jrsnd_dsss::code::SpreadCode;
use jrsnd_dsss::correlate::MultiCorrelator;
use jrsnd_dsss::spread::{
    correlate_window, despread_from_channel, despread_levels, reference as spread_reference, spread,
};
use jrsnd_dsss::sync::{
    reference as sync_reference, scan, scan_all, scan_from_with, scan_window, Frame, ScanScratch,
    SyncHit, WindowScratch,
};
use rand::{Rng, SeedableRng};

fn naive_correlate(a: &[bool], b: &[bool]) -> f64 {
    let acc: i64 = a
        .iter()
        .zip(b)
        .map(|(&x, &y)| if x == y { 1i64 } else { -1 })
        .sum();
    acc as f64 / a.len() as f64
}

fn bench_correlation(c: &mut Criterion) {
    let mut rng = rand::rngs::StdRng::seed_from_u64(1);
    let mut group = c.benchmark_group("correlation");
    for n in [128usize, 512, 2048] {
        let bits_a: Vec<bool> = (0..n).map(|_| rng.gen()).collect();
        let bits_b: Vec<bool> = (0..n).map(|_| rng.gen()).collect();
        let a = ChipSeq::from_bits(&bits_a);
        let b = ChipSeq::from_bits(&bits_b);
        group.throughput(Throughput::Elements(n as u64));
        group.bench_with_input(BenchmarkId::new("packed", n), &n, |bch, _| {
            bch.iter(|| black_box(a.correlate(&b)))
        });
        group.bench_with_input(BenchmarkId::new("naive", n), &n, |bch, _| {
            bch.iter(|| black_box(naive_correlate(&bits_a, &bits_b)))
        });
    }
    group.finish();
}

fn bench_spread_despread(c: &mut Criterion) {
    let mut rng = rand::rngs::StdRng::seed_from_u64(2);
    let code = SpreadCode::random(512, &mut rng);
    let msg: Vec<bool> = (0..42).map(|i| i % 2 == 0).collect(); // one l_h HELLO
    let levels = spread(&msg, &code).to_levels();
    let mut group = c.benchmark_group("spread");
    // Packed spreading (whole-word copies) vs the per-chip `Vec<bool>`
    // round trip it replaced; ratio-gated by `bench_check`.
    assert_eq!(spread(&msg, &code), spread_reference::spread(&msg, &code));
    group.bench_function("fast/spread_hello_42bits_n512", |b| {
        b.iter(|| black_box(spread(&msg, &code)))
    });
    group.bench_function("reference/spread_hello_42bits_n512", |b| {
        b.iter(|| black_box(spread_reference::spread(&msg, &code)))
    });
    group.bench_function("despread_hello_42bits_n512", |b| {
        b.iter(|| black_box(despread_levels(&levels, &code, 0.15)))
    });
    group.bench_function("correlate_window_n512", |b| {
        b.iter(|| black_box(correlate_window(&levels[..512], &code)))
    });
    group.finish();
}

fn bench_sliding_scan(c: &mut Criterion) {
    // The receiver-side cost model: scanning a buffer against m codes.
    let mut rng = rand::rngs::StdRng::seed_from_u64(3);
    let codes: Vec<SpreadCode> = (0..8).map(|_| SpreadCode::random(512, &mut rng)).collect();
    let refs: Vec<&SpreadCode> = codes.iter().collect();
    let msg = vec![true, false, true];
    let mut samples = vec![0i32; 2000];
    samples.extend(spread(&msg, &codes[5]).to_levels());
    let mut group = c.benchmark_group("sliding_scan");
    group.bench_function("scan_2000_offsets_8_codes_n512", |b| {
        b.iter(|| black_box(scan(&samples, &refs, 0.15)))
    });
    group.finish();
}

/// Builds a receiver buffer of `buf_len` chips holding two real frames
/// amid sparse noise — representative of one buffering window: the scan
/// pays full-bank correlations over the dead air and locks onto the frames.
fn scan_all_buffer(buf_len: usize, codes: &[SpreadCode]) -> Vec<i32> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(4);
    let mut samples: Vec<i32> = (0..buf_len)
        .map(|_| {
            if rng.gen_bool(0.02) {
                rng.gen_range(-1..=1)
            } else {
                0
            }
        })
        .collect();
    let msg: Vec<bool> = (0..8).map(|i| i % 2 == 0).collect();
    for (slot, code) in [(buf_len / 4, 0usize), (3 * buf_len / 4, 1)] {
        let levels = spread(&msg, &codes[code]).to_levels();
        if slot + levels.len() <= buf_len {
            for (dst, src) in samples[slot..slot + levels.len()].iter_mut().zip(levels) {
                *dst += src;
            }
        }
    }
    samples
}

/// The tentpole benchmark: whole-buffer `scan_all` throughput in chips/sec
/// for the batched bit-parallel kernel vs the chip-at-a-time scalar
/// reference, across bank sizes `m` and buffer lengths.
fn bench_scan_all_throughput(c: &mut Criterion) {
    let mut rng = rand::rngs::StdRng::seed_from_u64(5);
    let n = 512usize;
    let codes: Vec<SpreadCode> = (0..30).map(|_| SpreadCode::random(n, &mut rng)).collect();
    let mut group = c.benchmark_group("scan_all");
    for m in [8usize, 30] {
        let refs: Vec<&SpreadCode> = codes[..m].iter().collect();
        for buf_len in [8192usize, 32768] {
            let samples = scan_all_buffer(buf_len, &codes);
            group.throughput(Throughput::Elements(buf_len as u64));
            group.bench_with_input(
                BenchmarkId::new(format!("batched_m{m}"), buf_len),
                &buf_len,
                |b, _| b.iter(|| black_box(scan_all(&samples, &refs, 8, 0.15))),
            );
        }
        // Scalar baseline at the short buffer only — it is the slow side of
        // the comparison and the ratio is what matters.
        let buf_len = 8192usize;
        let samples = scan_all_buffer(buf_len, &codes);
        group.throughput(Throughput::Elements(buf_len as u64));
        group.bench_with_input(
            BenchmarkId::new(format!("scalar_m{m}"), buf_len),
            &buf_len,
            |b, _| b.iter(|| black_box(sync_reference::scan_all(&samples, &refs, 8, 0.15))),
        );
    }
    group.finish();
}

/// A busy chip medium at n = 512: eight concurrent staggered frames plus
/// background noise — the workload named in the ISSUE acceptance criteria.
fn busy_channel(n: usize) -> (ChipChannel, usize) {
    let mut rng = rand::rngs::StdRng::seed_from_u64(6);
    let codes: Vec<SpreadCode> = (0..8).map(|_| SpreadCode::random(n, &mut rng)).collect();
    let msg: Vec<bool> = (0..16).map(|i| i % 3 != 0).collect();
    let mut chan = ChipChannel::new(0xC0FFEE).with_noise(0.05);
    for (i, code) in codes.iter().enumerate() {
        chan.transmit(
            (i * 700) as u64,
            spread(&msg, code),
            if i % 2 == 0 { 1 } else { 2 },
        );
    }
    let window = msg.len() * n; // 8192 chips spans every transmission
    (chan, window)
}

/// The tentpole benchmark: blocked word-parallel channel rendering vs the
/// chip-at-a-time scalar oracle, on the same 8-transmission noisy medium.
fn bench_channel_render(c: &mut Criterion) {
    let (chan, window) = busy_channel(512);
    let mut group = c.benchmark_group("channel_render");
    group.throughput(Throughput::Elements(window as u64));
    group.bench_function("packed_n512_tx8_noisy", |b| {
        let mut buf = Vec::new();
        b.iter(|| {
            chan.render_into(&mut buf, 0, window);
            black_box(buf.last().copied())
        })
    });
    group.bench_function("reference_n512_tx8_noisy", |b| {
        b.iter(|| black_box(channel::reference::render(&chan, 0, window)))
    });
    group.finish();
}

/// Render-free despreading (dot products read straight off the packed
/// transmissions) against materialise-then-despread: same decisions,
/// ratio-gated by `bench_check`.
fn bench_despread(c: &mut Criterion) {
    let (chan, window) = busy_channel(512);
    // Same seed as busy_channel: this is the code of the frame at chip 0.
    let mut rng = rand::rngs::StdRng::seed_from_u64(6);
    let code = SpreadCode::random(512, &mut rng);
    let n_bits = window / 512;
    assert_eq!(
        despread_from_channel(&chan, 0, &code, n_bits, 0.15),
        despread_levels(&chan.render(0, window), &code, 0.15)
    );
    let mut group = c.benchmark_group("despread");
    group.throughput(Throughput::Elements(window as u64));
    group.bench_function("fast/16bits_n512_tx8_noisy", |b| {
        b.iter(|| black_box(despread_from_channel(&chan, 0, &code, n_bits, 0.15)))
    });
    group.bench_function("reference/16bits_n512_tx8_noisy", |b| {
        b.iter(|| {
            let samples = chan.render(0, window);
            black_box(despread_levels(&samples, &code, 0.15))
        })
    });
    group.finish();
}

/// One candidate of a HELLO scan: its offset, code and work, and its
/// frame if the frame fits the window.
type Candidate = (usize, usize, u64, Option<Frame>);

/// The engine's HELLO receive (`sync::scan_window`) of the `len`-chip
/// window of `chan` at chip 0 over `bank`, until `stop` accepts a
/// candidate's frame; every candidate is collected into `found` when
/// given.
fn receive(
    chan: &ChipChannel,
    len: usize,
    bank: &MultiCorrelator<'_>,
    (n_bits, tau): (usize, f64),
    rx: &mut WindowScratch,
    stop: impl Fn(&SyncHit, &Frame) -> bool,
    mut found: Option<&mut Vec<Candidate>>,
) {
    scan_window(bank, chan, (0, len), n_bits, tau, rx, |h, frame| {
        if let Some(found) = found.as_deref_mut() {
            found.push((
                h.offset,
                h.code_index,
                h.correlations_computed,
                frame.cloned(),
            ));
        }
        frame.is_some_and(|f| stop(h, f))
    });
}

/// A two-copy HELLO window at N = 256: the 42-bit coded HELLO spread once
/// with the shared code and once with a filler, at consecutive message
/// windows from chip 0, optionally under a same-code jam at amplitude 3
/// over both copies. Returns the medium, the receiver's codes (shared
/// code first) and the frame's bits.
fn hello_window(jam: bool) -> (ChipChannel, [SpreadCode; 2], usize) {
    let n = 256usize;
    let mut rng = rand::rngs::StdRng::seed_from_u64(7);
    let shared = SpreadCode::random(n, &mut rng);
    let a_filler = SpreadCode::random(n, &mut rng);
    let b_filler = SpreadCode::random(n, &mut rng);
    let hello: Vec<bool> = (0..42).map(|_| rng.gen()).collect();
    let msg_chips = (hello.len() * n) as u64;
    let mut chan = ChipChannel::new(0);
    for (copy, code) in [&shared, &a_filler].into_iter().enumerate() {
        let at = copy as u64 * msg_chips;
        chan.transmit(at, spread(&hello, code), 1);
        let garbage: Vec<bool> = (0..hello.len()).map(|_| rng.gen()).collect();
        if jam {
            chan.transmit(at, spread(&garbage, &shared), 3);
        }
    }
    (chan, [shared, b_filler], hello.len())
}

/// engine-mixed's worst HELLO window: N = 256, a two-code receiver bank,
/// the 42-bit coded HELLO once per code of the sender's two-code bank,
/// and a same-code jammer at amplitude 3 over both copies. Every bit
/// window clears τ and decodes to garbage, so the receiver sweeps all of
/// it one bit period per candidate, as the session engine does — 3-plane
/// popcount work. The fast side is the engine's receive
/// (`sync::scan_window`): the window rendered and held as planes segment
/// by segment as the scan reaches them, every fitting candidate decoded
/// off the medium, each after the first as one new bit. The reference is
/// the chip-at-a-time `sync::reference::scan` and `decode_frame` on the
/// rendered window; both produce the same candidates and frames.
fn bench_jammed_scan(c: &mut Criterion) {
    let tau = 0.30;
    let (chan, codes, n_bits) = hello_window(true);
    let n = codes[0].len();
    let len = 2 * n_bits * n;
    let samples = chan.render(0, len);
    let refs = [&codes[0], &codes[1]];
    let bank = MultiCorrelator::new(&refs);
    let never = |_: &SyncHit, _: &Frame| false;
    let reference = || {
        let mut found: Vec<Candidate> = Vec::new();
        let mut pos = 0;
        while pos + n <= samples.len() {
            let Some(h) = sync_reference::scan(&samples[pos..], &refs, tau) else {
                break;
            };
            let at = pos + h.offset;
            let frame = sync_reference::decode_frame(&samples, at, refs[h.code_index], n_bits, tau);
            found.push((at, h.code_index, h.correlations_computed, frame));
            pos = at + n;
        }
        found
    };
    let mut rx = WindowScratch::new();
    let mut candidates = Vec::new();
    let params = (n_bits, tau);
    receive(
        &chan,
        len,
        &bank,
        params,
        &mut rx,
        never,
        Some(&mut candidates),
    );
    assert!(
        candidates.len() >= n_bits,
        "jammed bit windows are candidates: {}",
        candidates.len()
    );
    assert_eq!(candidates, reference());
    let mut group = c.benchmark_group("jammed_scan");
    group.throughput(Throughput::Elements(samples.len() as u64));
    group.bench_function("fast/hello_window_n256_m2_amp3", |b| {
        b.iter(|| {
            receive(&chan, len, &bank, params, &mut rx, never, None);
            black_box(rx.rendered().len())
        })
    });
    group.bench_function("reference/hello_window_n256_m2_amp3", |b| {
        b.iter(|| black_box(reference()))
    });
    group.finish();
}

/// A clean session's HELLO receive: N = 256, a two-code receiver bank, the
/// 42-bit coded HELLO on the shared code then on a filler. The scan locks
/// onto the first copy at offset 0 and stops there. The fast side is the
/// engine's receive (`sync::scan_window`), which renders and holds as
/// planes only the segments the scan, its refinement and its confirm
/// window reach, and decodes the frame off the medium; the reference is
/// the eager composition it replaced — render the whole window, hold all
/// of it as planes (`MultiCorrelator::scanner`), scan, and decode off the
/// planes (`BankScanner::decode_frame_into`). Both find the same hit and
/// frame.
fn bench_hello_round(c: &mut Criterion) {
    let tau = 0.30;
    let (chan, codes, n_bits) = hello_window(false);
    let n = codes[0].len();
    let len = 2 * n_bits * n;
    let refs = [&codes[0], &codes[1]];
    let bank = MultiCorrelator::new(&refs);
    let heard = |h: &SyncHit, f: &Frame| h.code_index == 0 && f.erasure_fraction() == 0.0;
    let (mut window, mut scan, mut frame) = (Vec::new(), ScanScratch::new(), Frame::default());
    let mut eager = |found: &mut Vec<Candidate>| {
        found.clear();
        chan.render_into(&mut window, 0, len);
        let mut scanner = bank.scanner(&window);
        let mut pos = 0;
        while pos + n <= len {
            let Some(h) = scan_from_with(&mut scanner, pos, tau, &mut scan) else {
                break;
            };
            let fits = scanner.decode_frame_into(h.offset, h.code_index, n_bits, tau, &mut frame);
            found.push((
                h.offset,
                h.code_index,
                h.correlations_computed,
                fits.then(|| frame.clone()),
            ));
            if fits && heard(&h, &frame) {
                break;
            }
            pos = h.offset + n;
        }
    };
    let (mut rx, mut found, mut want) = (WindowScratch::new(), Vec::new(), Vec::new());
    let params = (n_bits, tau);
    receive(&chan, len, &bank, params, &mut rx, heard, Some(&mut found));
    eager(&mut want);
    assert_eq!(found, want);
    assert!(
        matches!(found[..], [(0, 0, _, Some(_))]),
        "one clean hit: {found:?}"
    );
    let mut group = c.benchmark_group("hello_round");
    group.bench_function("fast/clean_n256_m2", |b| {
        b.iter(|| {
            receive(&chan, len, &bank, params, &mut rx, heard, None);
            black_box(rx.rendered().len())
        })
    });
    group.bench_function("reference/clean_n256_m2", |b| {
        b.iter(|| {
            eager(&mut found);
            black_box(found.len())
        })
    });
    group.finish();
}

fn bench_gold_codes(c: &mut Criterion) {
    use jrsnd_dsss::gold::GoldFamily;
    let mut group = c.benchmark_group("gold");
    group.bench_function("family_degree9_construction", |b| {
        b.iter(|| black_box(GoldFamily::degree9()))
    });
    let fam = GoldFamily::degree9();
    group.bench_function("code_materialisation", |b| {
        let mut i = 0usize;
        b.iter(|| {
            i = (i + 1) % fam.len();
            black_box(fam.code(i))
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_correlation,
    bench_spread_despread,
    bench_sliding_scan,
    bench_scan_all_throughput,
    bench_channel_render,
    bench_despread,
    bench_jammed_scan,
    bench_hello_round,
    bench_gold_codes
);
criterion_main!(benches);
