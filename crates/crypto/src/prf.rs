//! A pseudorandom function and variable-length key expansion built on
//! HMAC-SHA-256 (HKDF-expand style, RFC 5869).
//!
//! The spread-code pool, session spread codes, and identity-based key
//! material all need more than 32 pseudorandom bytes; [`prf_expand`]
//! stretches a key + label + context to any length up to
//! [`MAX_EXPAND_LEN`] bytes. Against a precomputed [`HmacKey`],
//! [`prf_expand_into`] fills a caller-owned byte buffer with no heap
//! allocation. Spread codes are bytes too: the code pool and the session
//! codes read their ⌈N/8⌉ expanded bytes MSB-first as the `N` chips.
//! [`reference`](mod@reference) keeps the seed implementation, bit
//! expansion included, as the equivalence oracle.

use crate::hmac::HmacKey;
use crate::sha256::DIGEST_LEN;

/// The longest expansion in bytes: HKDF-expand numbers its blocks with a
/// one-byte counter, so at most 255 blocks of 32 bytes.
pub const MAX_EXPAND_LEN: usize = 255 * DIGEST_LEN;

/// Deterministically expands `(key, label, context)` into `out_len`
/// pseudorandom bytes (HKDF-expand with the label/context as info).
///
/// Distinct labels yield independent streams, so every subsystem can carve
/// its own namespace out of one key.
///
/// # Examples
///
/// ```
/// use jrsnd_crypto::prf::prf_expand;
///
/// let a = prf_expand(b"master", b"spread-code", b"\x00\x01", 64);
/// let b = prf_expand(b"master", b"spread-code", b"\x00\x02", 64);
/// assert_eq!(a.len(), 64);
/// assert_ne!(a, b);
/// ```
///
/// # Panics
///
/// Panics if `out_len` exceeds [`MAX_EXPAND_LEN`].
pub fn prf_expand(key: &[u8], label: &[u8], context: &[u8], out_len: usize) -> Vec<u8> {
    let mut out = vec![0u8; out_len];
    prf_expand_into(&HmacKey::precompute(key), label, context, &mut out);
    out
}

/// Fills `out` with the first `out.len()` bytes of the expansion of
/// `(key, label, context)` against a precomputed key. Byte-identical to
/// [`prf_expand`] on the same inputs, and allocation-free.
///
/// # Examples
///
/// ```
/// use jrsnd_crypto::hmac::HmacKey;
/// use jrsnd_crypto::prf::{prf_expand, prf_expand_into};
///
/// let mut bytes = [0u8; 64];
/// prf_expand_into(&HmacKey::precompute(b"k"), b"chips", b"code-7", &mut bytes);
/// assert_eq!(bytes.to_vec(), prf_expand(b"k", b"chips", b"code-7", 64));
/// ```
///
/// # Panics
///
/// Panics if `out` is longer than [`MAX_EXPAND_LEN`].
pub fn prf_expand_into(key: &HmacKey, label: &[u8], context: &[u8], out: &mut [u8]) {
    assert!(
        out.len() <= MAX_EXPAND_LEN,
        "prf_expand output capped at {MAX_EXPAND_LEN} bytes, asked for {}",
        out.len()
    );
    let mut t = [0u8; DIGEST_LEN];
    let mut t_len = 0usize;
    for (i, block) in out.chunks_mut(DIGEST_LEN).enumerate() {
        let counter = u8::try_from(i + 1).expect("the cap keeps block numbers within a u8");
        t = key.mac_parts(&[&t[..t_len], label, &[0x00], context, &[counter]]);
        t_len = DIGEST_LEN;
        block.copy_from_slice(&t[..block.len()]);
    }
}

/// Derives a fixed 32-byte subkey for a labelled purpose.
pub fn derive_key(key: &[u8], label: &[u8], context: &[u8]) -> [u8; DIGEST_LEN] {
    let mut out = [0u8; DIGEST_LEN];
    prf_expand_into(&HmacKey::precompute(key), label, context, &mut out);
    out
}

/// The seed PRF, retained (over [`crate::hmac::reference`]) as the
/// equivalence oracle for the precomputed-key paths.
pub mod reference {
    use crate::hmac::reference::hmac_sha256_parts;
    use crate::sha256::DIGEST_LEN;

    /// Deterministically expands `(key, label, context)` into `out_len`
    /// pseudorandom bytes (seed implementation).
    ///
    /// # Panics
    ///
    /// Panics if `out_len` exceeds [`MAX_EXPAND_LEN`](super::MAX_EXPAND_LEN).
    pub fn prf_expand(key: &[u8], label: &[u8], context: &[u8], out_len: usize) -> Vec<u8> {
        assert!(
            out_len <= super::MAX_EXPAND_LEN,
            "prf_expand output capped at {} bytes, asked for {out_len}",
            super::MAX_EXPAND_LEN
        );
        let mut out = Vec::with_capacity(out_len);
        let mut t: Vec<u8> = Vec::new();
        let mut counter: u8 = 1;
        while out.len() < out_len {
            t = hmac_sha256_parts(key, &[&t, label, &[0x00], context, &[counter]]).to_vec();
            let take = (out_len - out.len()).min(DIGEST_LEN);
            out.extend_from_slice(&t[..take]);
            if out.len() < out_len {
                counter = counter.checked_add(1).expect("block counter overflow");
            }
        }
        out
    }

    /// Expands into a bit vector of exactly `n_bits` pseudorandom bits,
    /// MSB-first per byte (seed implementation): the oracle the pool and
    /// session codes, packed straight from bytes, are checked against.
    pub fn prf_expand_bits(key: &[u8], label: &[u8], context: &[u8], n_bits: usize) -> Vec<bool> {
        let bytes = prf_expand(key, label, context, n_bits.div_ceil(8));
        let mut bits = Vec::with_capacity(n_bits);
        for (i, &byte) in bytes.iter().enumerate() {
            for j in 0..8 {
                if i * 8 + j == n_bits {
                    return bits;
                }
                bits.push(byte & (0x80 >> j) != 0);
            }
        }
        bits
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_and_label_separated() {
        let a1 = prf_expand(b"k", b"l1", b"c", 100);
        let a2 = prf_expand(b"k", b"l1", b"c", 100);
        assert_eq!(a1, a2);
        assert_ne!(a1, prf_expand(b"k", b"l2", b"c", 100));
        assert_ne!(a1, prf_expand(b"k", b"l1", b"d", 100));
        assert_ne!(a1, prf_expand(b"K", b"l1", b"c", 100));
    }

    #[test]
    fn prefix_property() {
        // Expanding to a longer length extends, not replaces, the stream.
        let short = prf_expand(b"k", b"l", b"c", 10);
        let long = prf_expand(b"k", b"l", b"c", 100);
        assert_eq!(&long[..10], &short[..]);
    }

    #[test]
    fn label_context_boundary_is_unambiguous() {
        // ("ab", "c") must differ from ("a", "bc") thanks to the separator.
        let x = prf_expand(b"k", b"ab", b"c", 32);
        let y = prf_expand(b"k", b"a", b"bc", 32);
        assert_ne!(x, y);
    }

    #[test]
    fn exact_multi_block_lengths() {
        for len in [0, 1, 31, 32, 33, 64, 96, 1000] {
            assert_eq!(prf_expand(b"k", b"l", b"", len).len(), len);
        }
    }

    #[test]
    fn derive_key_is_32_bytes_and_stable() {
        let k1 = derive_key(b"master", b"sig", b"");
        let k2 = derive_key(b"master", b"sig", b"");
        assert_eq!(k1, k2);
        assert_ne!(k1, derive_key(b"master", b"nike", b""));
    }

    #[test]
    #[should_panic(expected = "capped")]
    fn oversize_expansion_panics() {
        prf_expand(b"k", b"l", b"", MAX_EXPAND_LEN + 1);
    }

    #[test]
    fn fast_paths_match_reference() {
        // Up to the cap: 255 blocks, the last numbered 255.
        for len in [0usize, 1, 13, 32, 255, 256, 257, 1000, MAX_EXPAND_LEN] {
            assert_eq!(
                prf_expand(b"key", b"lbl", b"ctx", len),
                reference::prf_expand(b"key", b"lbl", b"ctx", len),
                "bytes len {len}"
            );
        }
    }
}
