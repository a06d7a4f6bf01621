//! Proves the steady-state ECC datapath is allocation-free.
//!
//! After one warm-up frame of each shape populates the `ExpansionScratch`
//! buffers and that shape's `RsCode` tables, further encode/decode
//! round-trips of the shapes seen must perform **zero** heap allocations
//! on the calling thread (counted by the per-thread allocator in
//! `support`), also when a handshake's HELLO and AUTH shapes take turns.

mod support;

use jrsnd_ecc::expand::{ExpansionCode, ExpansionScratch};
use jrsnd_ecc::rs::{RsCode, RsScratch};
use rand::{Rng, SeedableRng};

use support::count_allocs;

#[test]
fn rs_encode_decode_steady_state_is_allocation_free() {
    let code = RsCode::new(255, 223).unwrap();
    let mut r = rand::rngs::StdRng::seed_from_u64(1);
    let data: Vec<u8> = (0..223).map(|_| r.gen()).collect();
    let mut word = vec![0u8; 255];
    let mut scratch = RsScratch::new();
    let era: Vec<usize> = (0..16).collect();

    // Warm-up (metrics registry may lazily allocate its counters here).
    code.encode_into(&data, &mut word).unwrap();
    for &p in &era {
        word[p] ^= 0x5A;
    }
    word[100] ^= 0x7;
    code.decode_with(&mut word, &era, &mut scratch).unwrap();

    let n = count_allocs(|| {
        for round in 0..50u8 {
            code.encode_into(&data, &mut word).unwrap();
            for &p in &era {
                word[p] ^= round | 1;
            }
            word[100] ^= 0x7;
            let fixed = code.decode_with(&mut word, &era, &mut scratch).unwrap();
            assert_eq!(fixed, 17);
            assert_eq!(&word[..223], &data[..]);
        }
    });
    assert_eq!(n, 0, "steady-state RS round-trips allocated {n} times");
}

#[test]
fn expansion_round_trip_steady_state_is_allocation_free() {
    let code = ExpansionCode::new(1.0).unwrap();
    let mut r = rand::rngs::StdRng::seed_from_u64(2);
    let msg: Vec<bool> = (0..168).map(|_| r.gen()).collect();
    let mut scratch = ExpansionScratch::new();
    let mut coded = Vec::new();
    let mut out = Vec::new();

    // Warm-up frame sizes every scratch buffer, caches the RsCode, and —
    // by actually corrupting the word — touches every lazily-registered
    // metrics counter (including `ecc.symbols_corrected`) before counting.
    code.encode_bits_into(&msg, &mut scratch, &mut coded)
        .unwrap();
    let burst = coded.len() / 3;
    let mut erased = vec![false; coded.len()];
    for (c, e) in coded.iter_mut().zip(erased.iter_mut()).take(burst) {
        *c = !*c;
        *e = true;
    }
    code.decode_bits_into(&coded, &erased, msg.len(), &mut scratch, &mut out)
        .unwrap();
    assert_eq!(out, msg);

    let n = count_allocs(|| {
        for _ in 0..50 {
            code.encode_bits_into(&msg, &mut scratch, &mut coded)
                .unwrap();
            for (i, c) in coded.iter_mut().enumerate() {
                if erased[i] {
                    *c = !*c;
                }
            }
            code.decode_bits_into(&coded, &erased, msg.len(), &mut scratch, &mut out)
                .unwrap();
            assert_eq!(out, msg);
        }
    });
    assert_eq!(
        n, 0,
        "steady-state expansion round-trips allocated {n} times"
    );
}

#[test]
fn alternating_handshake_shapes_are_allocation_free() {
    // A handshake codes its 21-bit HELLO/CONFIRM frames as RS(6, 3) and
    // its 80-bit AUTH frames as RS(20, 10), in turn, through one scratch.
    let code = ExpansionCode::new(1.0).unwrap();
    let mut r = rand::rngs::StdRng::seed_from_u64(3);
    let frames: Vec<(Vec<bool>, Vec<bool>)> = [(21usize, (6, 3)), (80, (20, 10))]
        .into_iter()
        .map(|(len, shape)| {
            let layout = code.layout(len).unwrap();
            assert_eq!((layout.n, layout.k), shape);
            let msg = (0..len).map(|_| r.gen()).collect();
            // The first third of the coded bits erased and flipped:
            // recoverable at mu = 1.
            let bits = layout.coded_bits();
            (msg, (0..bits).map(|i| i < bits / 3).collect())
        })
        .collect();
    let mut scratch = ExpansionScratch::new();
    let (mut coded, mut out) = (Vec::new(), Vec::new());
    let mut round_trip = |msg: &[bool], erased: &[bool]| {
        code.encode_bits_into(msg, &mut scratch, &mut coded)
            .unwrap();
        for (c, &e) in coded.iter_mut().zip(erased) {
            *c ^= e;
        }
        code.decode_bits_into(&coded, erased, msg.len(), &mut scratch, &mut out)
            .unwrap();
        assert_eq!(out, msg);
    };

    // Warm-up: each shape twice, which also registers the lazily created
    // metric handles.
    for _ in 0..2 {
        for (msg, erased) in &frames {
            round_trip(msg, erased);
        }
    }
    let n = count_allocs(|| {
        for _ in 0..25 {
            for (msg, erased) in &frames {
                round_trip(msg, erased);
            }
        }
    });
    assert_eq!(
        n, 0,
        "alternating HELLO/AUTH round-trips allocated {n} times"
    );
}
