//! Proves the steady-state ECC datapath is allocation-free.
//!
//! After one warm-up frame populates the `ExpansionScratch` buffers and
//! the cached `RsCode` tables, further encode/decode round-trips of the
//! same geometry must perform **zero** heap allocations on the calling
//! thread (counted by the per-thread allocator in `support`).

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
