//! Proves the steady-state crypto datapath is allocation-free.
//!
//! After one warm-up pass sizes the caller-owned byte buffers (and
//! initialises the lazy metric counters), further MAC / PRF /
//! session-code derivations of the same shapes against a precomputed
//! `HmacKey` must perform **zero** heap allocations on the calling thread
//! (counted by the per-thread allocator in `support`).

mod support;

use jrsnd_crypto::hmac::HmacKey;
use jrsnd_crypto::ibc::{Authority, NodeId};
use jrsnd_crypto::nonce::Nonce;
use jrsnd_crypto::prf::prf_expand_into;
use jrsnd_crypto::session::derive_session_code_with;

use support::count_allocs;

#[test]
fn precomputed_mac_is_allocation_free() {
    let key = HmacKey::precompute(b"pair key material");
    let msg = [0xC3u8; 77];
    // Warm-up: the lazily-initialised metric counters allocate once.
    let mut sink = key.mac(&msg);
    let allocs = count_allocs(|| {
        for _ in 0..50 {
            // Chain each tag into the next input so neither call is elided.
            sink = key.mac(&sink);
            sink = key.mac_parts(&[b"f_K", &sink, b"tail"]);
        }
    });
    assert_eq!(allocs, 0, "steady-state MACs must not allocate");
    assert_ne!(sink, [0u8; 32]);
}

#[test]
fn warm_prf_expansion_is_allocation_free() {
    let key = HmacKey::precompute(b"prf key");
    // A 512-chip code's bytes.
    let mut out = [0u8; 512 / 8];
    // Warm-up: the lazily-initialised metric counters allocate once.
    prf_expand_into(&key, b"label", b"ctx", &mut out);
    let allocs = count_allocs(|| {
        for round in 0..50u8 {
            prf_expand_into(&key, b"label", &[round], &mut out);
        }
    });
    assert_eq!(allocs, 0, "warm PRF expansion must not allocate");
    assert_ne!(out, [0u8; 512 / 8]);
}

#[test]
fn warm_session_code_derivation_is_allocation_free() {
    let authority = Authority::from_seed(b"alloc-test");
    let shared = authority.issue(NodeId(1)).shared_key(NodeId(2));
    let key = HmacKey::precompute(shared.as_bytes());
    let mut code = Vec::new();
    // Warm-up: sizes the code's byte buffer.
    derive_session_code_with(
        &key,
        Nonce::from_value(1),
        Nonce::from_value(2),
        512,
        &mut code,
    );
    let allocs = count_allocs(|| {
        for round in 0..50u32 {
            derive_session_code_with(
                &key,
                Nonce::from_value(round),
                Nonce::from_value(round + 1),
                512,
                &mut code,
            );
        }
    });
    assert_eq!(allocs, 0, "warm session-code derivation must not allocate");
    assert_eq!(code.len(), 512 / 8);
}
