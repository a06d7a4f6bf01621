//! Counting-allocator proof that the engine's per-session HELLO receive
//! (`sync::scan_window`, the function `chiplink::SessionDriver` runs) is
//! allocation-free once warm: re-pointing the pooled bank at the
//! session's codes, scanning the window straight off the medium — each
//! segment the scan reaches rendered into the pooled buffer and held as
//! bit planes in pooled storage — decoding every candidate off the
//! medium's transmissions into the pooled frame (one new bit for a
//! candidate one bit period after the last one decoded), and ECC-decoding
//! it touches the heap **zero** times in steady state, for clean,
//! louder and fully jammed windows alike.
//!
//! A whole warm clean handshake (`SessionDriver::handshake`) is pinned
//! too: its allocations — the endpoint frames, the two session-code
//! vectors, the per-attempt `ReplayGuard` and the medium's transmissions,
//! which are fresh per handshake by design — and its SHA-256
//! compressions, so neither a per-attempt key issue nor a rebuilt RS code
//! can come back unnoticed.

mod support;

use jrsnd::messages::{FrameCodec, WireConfig};
use jrsnd::params::Params;
use jrsnd_dsss::channel::ChipChannel;
use jrsnd_dsss::chip::ChipSeq;
use jrsnd_dsss::code::SpreadCode;
use jrsnd_dsss::correlate::MultiCorrelator;
use jrsnd_dsss::spread::spread;
use jrsnd_dsss::sync::{scan_window, WindowScratch};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use support::{count_allocs, last_alloc_size};

/// The engine's per-shard pooled receive state.
struct Pooled<'p> {
    rx: WindowScratch,
    bank: MultiCorrelator<'p>,
    decoded: Vec<bool>,
    codec: FrameCodec,
}

/// One session's verdict: its sync candidates, and — if the HELLO was
/// recovered on the shared code — whether the ECC decode returned the
/// frame that was sent.
type Verdict = (usize, Option<bool>);

/// One session's HELLO receive, as the engine runs it: point the pooled
/// bank at the receiver's codes, then `sync::scan_window` over the
/// session's window on the medium, ECC-decoding each candidate's frame
/// until one on the shared code decodes.
#[allow(clippy::too_many_arguments)]
fn session_pass<'p>(
    channel: &ChipChannel,
    window: (u64, usize),
    pool: &'p [SpreadCode],
    b_idx: &[usize],
    shared_b: usize,
    tau: f64,
    (hello_coded, hello_bits): (usize, &[bool]),
    p: &mut Pooled<'p>,
) -> Verdict {
    p.bank.assign(b_idx.iter().map(|&k| &pool[k]));
    let (codec, decoded) = (&mut p.codec, &mut p.decoded);
    let mut verdict = (0, None);
    scan_window(
        &p.bank,
        channel,
        window,
        hello_coded,
        tau,
        &mut p.rx,
        |h, frame| {
            verdict.0 += 1;
            let ok = frame.is_some_and(|f| {
                codec
                    .decode_into(&f.bits, &f.erased, hello_bits.len(), decoded)
                    .is_ok()
            });
            if ok && h.code_index == shared_b {
                verdict.1 = Some(decoded[..] == *hello_bits);
            }
            verdict.1.is_some()
        },
    );
    verdict
}

/// [`session_pass`] for every `(b_idx, shared_b, window)` receiver in
/// turn, on one pooled scratch set; writes each one's verdict.
fn receive_all<'p>(
    channel: &ChipChannel,
    receivers: &[(&[usize], usize, (u64, usize))],
    pool: &'p [SpreadCode],
    tau: f64,
    hello: (usize, &[bool]),
    p: &mut Pooled<'p>,
    out: &mut [Verdict],
) {
    for (&(b_idx, shared_b, window), slot) in receivers.iter().zip(out) {
        *slot = session_pass(channel, window, pool, b_idx, shared_b, tau, hello, p);
    }
}

#[test]
fn warm_per_session_scan_makes_zero_allocations() {
    let mut params = Params::table1();
    params.n_chips = 256;
    params.tau = 0.30;
    let n = params.n_chips;
    let wire = WireConfig::from_params(&params);
    let mut rng = StdRng::seed_from_u64(0xA110C);
    let pool: Vec<SpreadCode> = (0..6).map(|_| SpreadCode::random(n, &mut rng)).collect();

    // Four sessions' HELLO broadcasts at consecutive windows of one
    // medium: session 0 spreads with codes {0,1}, session 1 with codes
    // {2,3,5}, so the pooled buffers must serve windows of two sizes. The
    // receivers listen with banks {1,4} and {3,5} (code 1 / code 3
    // shared). Session 2 repeats session 0 with one amplitude-9 chip at
    // the end of its window, so the pooled storage also holds a window
    // in five planes (u = s + 10 reaches 20) with no allocation once
    // warm. Session 3 repeats session 0 under a same-code jam at
    // amplitude 3 over both copies: every bit boundary is a candidate,
    // the whole window is built, and every decodable candidate after the
    // first slides the pooled frame by one bit.
    let mut codec = FrameCodec::new(params.mu).expect("mu validated");
    let hello_bits: Vec<bool> = (0..wire.l_t + wire.l_id).map(|i| i % 3 != 0).collect();
    let mut hello_coded = Vec::new();
    codec.encode_into(&hello_bits, &mut hello_coded).unwrap();
    let msg_chips = hello_coded.len() * n;
    let mut channel = ChipChannel::new(1);
    let sessions: [(&[usize], &[usize], usize, u8); 4] = [
        (&[0, 1], &[1, 4], 0, 0),
        (&[2, 3, 5], &[3, 5], 0, 0),
        (&[0, 1], &[1, 4], 0, 1),
        (&[0, 1], &[1, 4], 0, 2),
    ];
    let mut offset = 0u64;
    let mut receivers: Vec<(&[usize], usize, (u64, usize))> = Vec::new();
    for (a_idx, b_idx, shared_b, kind) in sessions {
        let base = offset;
        for &k in a_idx {
            channel.transmit(offset, spread(&hello_coded, &pool[k]), 1);
            if kind == 2 {
                let garbage: Vec<bool> = (0..hello_coded.len()).map(|_| rng.gen()).collect();
                channel.transmit(offset, spread(&garbage, &pool[1]), 3);
            }
            offset += msg_chips as u64;
        }
        if kind == 1 {
            channel.transmit(offset - 1, ChipSeq::from_bits(&[true]), 9);
        }
        receivers.push((b_idx, shared_b, (base, (offset - base) as usize)));
    }

    let mut pooled = Pooled {
        rx: WindowScratch::new(),
        bank: MultiCorrelator::new(&[]),
        decoded: Vec::new(),
        codec,
    };
    let hello = (hello_coded.len(), &hello_bits[..]);
    let tau = params.tau;

    // Warm-up TWICE: the first pass sizes the pooled buffers, the second
    // executes the code paths that only run with warm buffers (e.g. the
    // `dsss.render_buffers_reused` counter call-site lazily registers its
    // handle — an 8-byte one-time allocation — the first time a reused
    // buffer is seen). The decode must actually work: the clean and loud
    // HELLOs decode to the frame that was sent, the jammed one to none.
    let mut verdicts = [(0usize, None); 4];
    for _ in 0..2 {
        receive_all(
            &channel,
            &receivers,
            &pool,
            tau,
            hello,
            &mut pooled,
            &mut verdicts,
        );
        let heard: Vec<Option<bool>> = verdicts.iter().map(|v| v.1).collect();
        assert_eq!(
            heard,
            [Some(true), Some(true), Some(true), None],
            "the clean and loud HELLOs round-trip"
        );
        assert_eq!(
            verdicts[3].0,
            2 * hello_coded.len(),
            "every jammed bit boundary is a candidate"
        );
    }
    assert_eq!(
        pooled.rx.rendered().len(),
        2 * msg_chips,
        "the jammed window was built whole"
    );

    // Steady state: the identical per-session passes, counted, must not
    // allocate.
    let mut warm = [(0usize, None); 4];
    let allocs = count_allocs(|| {
        receive_all(
            &channel,
            &receivers,
            &pool,
            tau,
            hello,
            &mut pooled,
            &mut warm,
        );
    });
    assert_eq!(warm, verdicts, "warm pass reproduces the warm-up verdicts");
    assert_eq!(
        allocs,
        0,
        "warm per-session receive allocated {allocs} times (last size {})",
        last_alloc_size()
    );
}

/// The wire datapath the batch engine runs per session — the pooled
/// HELLO encode ([`FrameCodec::hello_packed`]), ECC encode, and the
/// stack-buffer HELLO/AUTH parsers on the receive side — is
/// allocation-free once the pooled buffers are warm, in both wire
/// formats.
#[test]
fn warm_packed_wire_datapath_makes_zero_allocations() {
    use jrsnd::messages::MessageKind;
    use jrsnd::wire::{self, WireFormat};
    use jrsnd_crypto::ibc::NodeId;
    use jrsnd_crypto::mac::AuthTag;
    use jrsnd_crypto::nonce::Nonce;

    let params = Params::table1();
    let w = WireConfig::from_params(&params);
    let tag = AuthTag([0x5A; 32]);
    let mac = wire::truncated_tag_value(&w, &tag).expect("l_mac fits u64");
    for format in [WireFormat::Legacy, WireFormat::Packed] {
        let mut codec = FrameCodec::new(params.mu).expect("mu validated");
        // Pooled buffers, as a shard's `SessionDriver` holds them.
        let (mut hello, mut coded) = (Vec::new(), Vec::new());
        // A receive-side fixture built once, cold: the parsers themselves
        // go through a stack frame buffer and must not touch the heap.
        let nonce = Nonce::from_value(0xBEEF);
        let auth =
            wire::auth_frame_bools(&w, format, NodeId(2), nonce, &tag).expect("auth frame encodes");
        let mut pass = || {
            codec
                .hello_packed(&w, format, MessageKind::Hello, NodeId(1), &mut hello)
                .expect("own id fits");
            codec
                .encode_into(&hello, &mut coded)
                .expect("non-empty frame");
            let parsed = wire::parse_hello_bools(&w, format, &hello).expect("clean frame");
            assert_eq!(parsed, (MessageKind::Hello, NodeId(1)));
            let parsed = wire::parse_auth_bools(&w, format, &auth).expect("clean frame");
            assert_eq!(parsed, (NodeId(2), nonce, mac));
        };

        // Warm twice: the first pass sizes the pooled buffers, the second
        // hits the lazy metric-handle registrations (`wire.bytes_encoded`,
        // `wire.frames_parsed`, `wire.scratch_reused`) that allocate once.
        pass();
        pass();
        let allocs = count_allocs(&mut pass);
        assert_eq!(
            allocs,
            0,
            "{format:?}: warm wire datapath allocated {allocs} times (last size {})",
            last_alloc_size()
        );
    }
}

/// A warm clean `SessionDriver::handshake`, as every clean engine session
/// runs it, makes a pinned number of allocations and SHA-256
/// compressions. The allocations are what stays fresh per attempt: the
/// medium's transmissions, B's `ReplayGuard`, the CONFIRM and AUTH frames
/// and the two endpoints' session-code vectors. The compressions are the
/// four AUTH MACs and the one PRF block of a 256-chip session code: the
/// pair key, its HMAC pads and the endpoints' identity keys come from the
/// driver's key rings, and both RS shapes from its ECC scratch.
#[test]
fn warm_clean_handshake_allocations_and_compressions_are_pinned() {
    use jrsnd::chiplink::{SessionDriver, Stage};
    use jrsnd::wire::WireFormat;
    use jrsnd_crypto::ibc::Authority;

    /// Allocations per warm clean handshake.
    const ALLOCS: u64 = 27;
    /// SHA-256 compressions per warm clean handshake: 4 MACs × 2, plus
    /// one PRF block × 2.
    const COMPRESSIONS: u64 = 10;

    let mut params = Params::table1();
    params.n_chips = 256;
    params.tau = 0.30;
    let n = params.n_chips;
    let mut rng = StdRng::seed_from_u64(0x5E55);
    let shared = SpreadCode::random(n, &mut rng);
    let a = vec![shared.clone(), SpreadCode::random(n, &mut rng)];
    let b = vec![SpreadCode::random(n, &mut rng), shared];
    let authority = Authority::from_seed(b"engine-alloc");
    let mut driver = SessionDriver::new(&params, &authority, WireFormat::Legacy);
    // Process-wide; no other test of this binary hashes.
    let compressions = jrsnd_sim::metrics::counter("crypto.blocks_compressed");

    // Warm-up: sizes every pooled buffer, builds both RS shapes and
    // registers the lazily created metric handles.
    for seed in 0..3 {
        assert_eq!(
            driver.handshake(&a, &b, 0, 1, None, seed).stage,
            Stage::Complete
        );
    }
    // Each further seed draws fresh nonces, so its session code is a
    // cache miss, derived once by B and read by A.
    for seed in 3..11 {
        let before = compressions.get();
        let mut stage = None;
        let allocs =
            count_allocs(|| stage = Some(driver.handshake(&a, &b, 0, 1, None, seed).stage));
        assert_eq!(stage, Some(Stage::Complete));
        assert_eq!(
            allocs,
            ALLOCS,
            "seed {seed}: a warm handshake allocated {allocs} times (last size {})",
            last_alloc_size()
        );
        assert_eq!(compressions.get() - before, COMPRESSIONS, "seed {seed}");
    }
}
