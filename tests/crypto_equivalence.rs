//! Cross-crate equivalence and known-answer tests for the crypto
//! datapath: the allocation-free hash, the precomputed-key MAC and the
//! buffer-filling PRF must be byte-identical to the retained `reference`
//! oracles, and both must reproduce the FIPS 180-4 and RFC 4231 vectors.

use jrsnd_crypto::hmac::{self, HmacKey};
use jrsnd_crypto::prf::{self, prf_expand_into};
use jrsnd_crypto::sha256::{self, sha256};
use proptest::prelude::*;

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// FIPS 180-4 vectors, checked through the fast path and the reference.
#[test]
fn sha256_known_answers_on_both_paths() {
    let vectors: [(&[u8], &str); 3] = [
        (
            b"abc",
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad",
        ),
        (
            b"",
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        ),
        (
            b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
        ),
    ];
    for (msg, want) in vectors {
        assert_eq!(hex(&sha256(msg)), want);
        assert_eq!(hex(&sha256::reference::sha256(msg)), want);
    }
}

/// RFC 4231 vectors through the precomputed-key path and the reference.
#[test]
fn hmac_known_answers_on_both_paths() {
    let case1_key = [0x0bu8; 20];
    let vectors: [(&[u8], &[u8], &str); 2] = [
        (
            &case1_key,
            b"Hi There",
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7",
        ),
        (
            b"Jefe",
            b"what do ya want for nothing?",
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843",
        ),
    ];
    for (key, msg, want) in vectors {
        let hk = HmacKey::precompute(key);
        assert_eq!(hex(&hk.mac(msg)), want);
        assert_eq!(hex(&hmac::reference::hmac_sha256(key, msg)), want);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Scalar fast hash == seed reference on arbitrary messages.
    #[test]
    fn sha256_fast_matches_reference(msg in proptest::collection::vec(any::<u8>(), 0..300)) {
        prop_assert_eq!(sha256(&msg), sha256::reference::sha256(&msg));
    }

    /// Precomputed HMAC == seed reference on arbitrary keys and messages.
    #[test]
    fn hmac_fast_matches_reference(
        key in proptest::collection::vec(any::<u8>(), 0..150),
        msg in proptest::collection::vec(any::<u8>(), 0..200),
    ) {
        prop_assert_eq!(
            HmacKey::precompute(&key).mac(&msg),
            hmac::reference::hmac_sha256(&key, &msg)
        );
    }

    /// The `_into` PRF path leaves exactly the reference byte stream in
    /// the caller's buffer, across reuse at varying lengths.
    #[test]
    fn prf_scratch_bytes_match_reference(
        key in proptest::collection::vec(any::<u8>(), 1..64),
        ctx in proptest::collection::vec(any::<u8>(), 0..32),
        len in 1usize..700,
    ) {
        let hk = HmacKey::precompute(&key);
        let mut out = vec![0xA5; 13]; // stale content must be overwritten
        out.resize(len, 0xA5);
        prf_expand_into(&hk, b"label", &ctx, &mut out);
        prop_assert_eq!(&out, &prf::reference::prf_expand(&key, b"label", &ctx, len));
        // Second expansion reusing the same buffer.
        prf_expand_into(&hk, b"label2", &ctx, &mut out);
        prop_assert_eq!(&out, &prf::reference::prf_expand(&key, b"label2", &ctx, len));
    }
}
