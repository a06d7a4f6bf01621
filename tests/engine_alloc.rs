//! Counting-allocator proof that the engine's per-session HELLO scan is
//! allocation-free once warm: rendering one session's window into the
//! pooled buffer, holding it as bit planes (or prefix sums) in pooled
//! storage,
//! re-pointing the pooled bank at the session's codes, and running the
//! full sliding-window scan + frame decode + ECC decode touches the heap
//! **zero** times in steady state.
//!
//! Endpoint frames (nonces, CONFIRM/AUTH payloads) are deliberately out of
//! scope — they are fresh per handshake by design; this pins down the hot
//! per-session machinery each shard's `chiplink::SessionDriver` pools.

mod support;

use jrsnd::messages::{FrameCodec, WireConfig};
use jrsnd::params::Params;
use jrsnd_dsss::channel::ChipChannel;
use jrsnd_dsss::chip::ChipSeq;
use jrsnd_dsss::code::SpreadCode;
use jrsnd_dsss::correlate::{MultiCorrelator, PrefixSums};
use jrsnd_dsss::spread::spread;
use jrsnd_dsss::sync::{scan_from_with, Frame, ScanScratch};
use rand::rngs::StdRng;
use rand::SeedableRng;
use support::{count_allocs, last_alloc_size};

/// The engine's per-shard pooled scan state.
struct Pooled<'p> {
    window: Vec<i32>,
    prefix: PrefixSums,
    bank: MultiCorrelator<'p>,
    frame: Frame,
    scan_scratch: ScanScratch,
    decoded: Vec<bool>,
    codec: FrameCodec,
}

/// One session's HELLO receive, as the engine runs it: render the
/// session's own window, prefix-sum it, point the pooled bank at the
/// receiver's codes, scan, despread and ECC-decode. Returns whether the
/// HELLO was recovered on the shared code.
#[allow(clippy::too_many_arguments)]
fn session_pass<'p>(
    channel: &ChipChannel,
    (base, span): (u64, usize),
    pool: &'p [SpreadCode],
    b_idx: &[usize],
    shared_b: usize,
    tau: f64,
    (hello_coded_len, hello_bits_len): (usize, usize),
    p: &mut Pooled<'p>,
) -> bool {
    channel.render_into(&mut p.window, base, span);
    p.bank.assign(b_idx.iter().map(|&k| &pool[k]));
    let n = p.bank.code_len();
    let mut scanner = p.bank.scanner_with(&p.window, &mut p.prefix);
    let mut pos = 0usize;
    while pos + n <= span {
        let Some(h) = scan_from_with(&mut scanner, pos, tau, &mut p.scan_scratch) else {
            break;
        };
        let ok =
            scanner.decode_frame_into(h.offset, h.code_index, hello_coded_len, tau, &mut p.frame)
                && p.codec
                    .decode_into(
                        &p.frame.bits,
                        &p.frame.erased,
                        hello_bits_len,
                        &mut p.decoded,
                    )
                    .is_ok();
        if ok && h.code_index == shared_b {
            return true;
        }
        pos = h.offset + n;
    }
    false
}

/// [`session_pass`] for every `(b_idx, shared_b, window)` receiver in
/// turn, on one pooled scratch set; returns how many recovered a HELLO.
fn receive_all<'p>(
    channel: &ChipChannel,
    receivers: &[(&[usize], usize, (u64, usize))],
    pool: &'p [SpreadCode],
    tau: f64,
    lens: (usize, usize),
    p: &mut Pooled<'p>,
) -> usize {
    receivers
        .iter()
        .filter(|&&(b_idx, shared_b, window)| {
            session_pass(channel, window, pool, b_idx, shared_b, tau, lens, p)
        })
        .count()
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

    // Three sessions' HELLO broadcasts at consecutive windows of one
    // medium: session 0 spreads with codes {0,1}, session 1 with codes
    // {2,3,5}, so the pooled buffers must serve windows of two sizes. The
    // receivers listen with banks {1,4} and {3,5} (code 1 / code 3
    // shared). Session 2 repeats session 0 with one amplitude-9 chip at
    // the end of its window, too loud for bit planes, so the pooled
    // storage serves both ways of holding a window (planes and prefix
    // sums).
    let mut codec = FrameCodec::new(params.mu).expect("mu validated");
    let hello_bits: Vec<bool> = (0..wire.l_t + wire.l_id).map(|i| i % 3 != 0).collect();
    let mut hello_coded = Vec::new();
    codec.encode_into(&hello_bits, &mut hello_coded).unwrap();
    let msg_chips = hello_coded.len() * n;
    let mut channel = ChipChannel::new(1);
    let sessions: [(&[usize], &[usize], usize, bool); 3] = [
        (&[0, 1], &[1, 4], 0, false),
        (&[2, 3, 5], &[3, 5], 0, false),
        (&[0, 1], &[1, 4], 0, true),
    ];
    let mut offset = 0u64;
    let mut receivers: Vec<(&[usize], usize, (u64, usize))> = Vec::new();
    for (a_idx, b_idx, shared_b, loud) in sessions {
        let base = offset;
        for &k in a_idx {
            channel.transmit(offset, spread(&hello_coded, &pool[k]), 1);
            offset += msg_chips as u64;
        }
        if loud {
            channel.transmit(offset - 1, ChipSeq::from_bits(&[true]), 9);
        }
        receivers.push((b_idx, shared_b, (base, (offset - base) as usize)));
    }

    let mut pooled = Pooled {
        window: Vec::new(),
        prefix: PrefixSums::new(),
        bank: MultiCorrelator::new(&[]),
        frame: Frame {
            bits: Vec::new(),
            erased: Vec::new(),
        },
        scan_scratch: ScanScratch::new(),
        decoded: Vec::new(),
        codec,
    };
    let lens = (hello_coded.len(), hello_bits.len());
    let tau = params.tau;

    // Warm-up TWICE: the first pass sizes the pooled buffers, the second
    // executes the code paths that only run with warm buffers (e.g. the
    // `dsss.render_buffers_reused` counter call-site lazily registers its
    // handle — an 8-byte one-time allocation — the first time a reused
    // buffer is seen). The decode must actually work.
    for _ in 0..2 {
        let hits = receive_all(&channel, &receivers, &pool, tau, lens, &mut pooled);
        assert_eq!(hits, 3, "every receiver recovers its HELLO");
        assert_eq!(
            pooled.decoded, hello_bits,
            "ECC decode round-trips the frame"
        );
    }

    // Steady state: the identical per-session passes, counted, must not
    // allocate.
    let mut hits = 0;
    let allocs = count_allocs(|| {
        hits = receive_all(&channel, &receivers, &pool, tau, lens, &mut pooled);
    });
    assert_eq!(hits, 3, "warm pass reproduces the warm-up verdicts");
    assert_eq!(
        allocs,
        0,
        "warm per-session scan allocated {allocs} times (last size {})",
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
