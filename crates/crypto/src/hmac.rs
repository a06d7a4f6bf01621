//! HMAC-SHA-256 (RFC 2104), plus constant-time tag comparison.
//!
//! HMAC is the root of everything keyed in the reproduction: the message
//! authentication code `f_K(·)` of D-NDP, the PRF behind the simulated
//! identity-based keys, and the keyed hash `h_K(·)` that derives session
//! spread codes. Two shapes:
//!
//! * [`HmacKey`] — ipad/opad compression states precomputed once per key,
//!   so a MAC over a short message costs two compressions instead of
//!   four full hashes (long-lived pair keys are MAC'd on every D-NDP
//!   sub-session, and the code-pool key on every pool code, so the
//!   precompute amortizes immediately);
//! * [`reference`](mod@reference) — the seed implementation retained verbatim as the
//!   equivalence oracle.
//!
//! The one-shot [`hmac_sha256`]/[`hmac_sha256_parts`] entry points keep
//! their seed signatures and now route through [`HmacKey`].

use crate::sha256::{self, compress_block, Sha256, BLOCK_LEN, DIGEST_LEN, INITIAL_STATE};

/// A key with its HMAC ipad/opad compression states precomputed.
///
/// Construction costs two compressions (one per pad block); every
/// subsequent [`mac`](HmacKey::mac) of a message that fits one padded
/// block then costs two compressions total, versus the four a from-scratch
/// HMAC pays. Handshake pair keys and PRF keys live exactly long enough
/// for this to matter.
///
/// # Examples
///
/// ```
/// use jrsnd_crypto::hmac::{hmac_sha256, HmacKey};
///
/// let key = HmacKey::precompute(b"key");
/// let msg = b"The quick brown fox jumps over the lazy dog";
/// assert_eq!(key.mac(msg), hmac_sha256(b"key", msg));
/// ```
#[derive(Debug, Clone)]
pub struct HmacKey {
    /// Compression state after absorbing the ipad block.
    inner: [u32; 8],
    /// Compression state after absorbing the opad block.
    outer: [u32; 8],
}

impl HmacKey {
    /// Precomputes the ipad/opad states for `key` (hashing it first if it
    /// exceeds the SHA-256 block size, per RFC 2104).
    pub fn precompute(key: &[u8]) -> Self {
        let mut k = [0u8; BLOCK_LEN];
        if key.len() > BLOCK_LEN {
            let d = sha256::sha256(key);
            k[..DIGEST_LEN].copy_from_slice(&d);
        } else {
            k[..key.len()].copy_from_slice(key);
        }
        let mut ipad = [0u8; BLOCK_LEN];
        let mut opad = [0u8; BLOCK_LEN];
        for i in 0..BLOCK_LEN {
            ipad[i] = k[i] ^ 0x36;
            opad[i] = k[i] ^ 0x5c;
        }
        let mut inner = INITIAL_STATE;
        let mut outer = INITIAL_STATE;
        compress_block(&mut inner, &ipad);
        compress_block(&mut outer, &opad);
        HmacKey { inner, outer }
    }

    /// `HMAC(key, message)` using the precomputed states.
    pub fn mac(&self, message: &[u8]) -> [u8; DIGEST_LEN] {
        self.mac_parts(&[message])
    }

    /// HMAC over the concatenation of `parts`, without materialising the
    /// concatenation. Allocation-free.
    pub fn mac_parts(&self, parts: &[&[u8]]) -> [u8; DIGEST_LEN] {
        let mut inner = Sha256::resume(self.inner, BLOCK_LEN as u64);
        for p in parts {
            inner.update(p);
        }
        let inner_digest = inner.finalize();
        self.finalize_outer(&inner_digest)
    }

    /// Runs the outer hash over a finished inner digest: exactly one
    /// compression, since `opad-block ++ digest` pads into a single block.
    fn finalize_outer(&self, inner_digest: &[u8; DIGEST_LEN]) -> [u8; DIGEST_LEN] {
        let mut outer = Sha256::resume(self.outer, BLOCK_LEN as u64);
        outer.update(inner_digest);
        outer.finalize()
    }
}

/// Computes `HMAC-SHA256(key, message)`.
///
/// # Examples
///
/// ```
/// use jrsnd_crypto::hmac::hmac_sha256;
///
/// let tag = hmac_sha256(b"key", b"The quick brown fox jumps over the lazy dog");
/// assert_eq!(tag[0], 0xf7);
/// ```
pub fn hmac_sha256(key: &[u8], message: &[u8]) -> [u8; DIGEST_LEN] {
    HmacKey::precompute(key).mac(message)
}

/// Computes HMAC over the concatenation of multiple message parts, without
/// allocating the concatenation.
pub fn hmac_sha256_parts(key: &[u8], parts: &[&[u8]]) -> [u8; DIGEST_LEN] {
    HmacKey::precompute(key).mac_parts(parts)
}

/// Constant-time equality for fixed-length tags.
///
/// Returns `false` for length mismatches without early exit on content.
pub fn ct_eq(a: &[u8], b: &[u8]) -> bool {
    if a.len() != b.len() {
        return false;
    }
    let mut acc = 0u8;
    for (x, y) in a.iter().zip(b) {
        acc |= x ^ y;
    }
    acc == 0
}

/// The seed HMAC, retained verbatim (over [`crate::sha256::reference`]) as
/// the equivalence oracle for the precomputed path.
pub mod reference {
    use crate::sha256::reference::Sha256;
    use crate::sha256::{BLOCK_LEN, DIGEST_LEN};

    /// Computes `HMAC-SHA256(key, message)` (seed implementation).
    pub fn hmac_sha256(key: &[u8], message: &[u8]) -> [u8; DIGEST_LEN] {
        let mut k = [0u8; BLOCK_LEN];
        if key.len() > BLOCK_LEN {
            let d = crate::sha256::reference::sha256(key);
            k[..DIGEST_LEN].copy_from_slice(&d);
        } else {
            k[..key.len()].copy_from_slice(key);
        }
        let mut ipad = [0u8; BLOCK_LEN];
        let mut opad = [0u8; BLOCK_LEN];
        for i in 0..BLOCK_LEN {
            ipad[i] = k[i] ^ 0x36;
            opad[i] = k[i] ^ 0x5c;
        }
        let mut inner = Sha256::new();
        inner.update(&ipad);
        inner.update(message);
        let inner_digest = inner.finalize();
        let mut outer = Sha256::new();
        outer.update(&opad);
        outer.update(&inner_digest);
        outer.finalize()
    }

    /// Computes HMAC over the concatenation of multiple message parts
    /// (seed implementation).
    pub fn hmac_sha256_parts(key: &[u8], parts: &[&[u8]]) -> [u8; DIGEST_LEN] {
        let mut k = [0u8; BLOCK_LEN];
        if key.len() > BLOCK_LEN {
            let d = crate::sha256::reference::sha256(key);
            k[..DIGEST_LEN].copy_from_slice(&d);
        } else {
            k[..key.len()].copy_from_slice(key);
        }
        let mut ipad = [0u8; BLOCK_LEN];
        let mut opad = [0u8; BLOCK_LEN];
        for i in 0..BLOCK_LEN {
            ipad[i] = k[i] ^ 0x36;
            opad[i] = k[i] ^ 0x5c;
        }
        let mut inner = Sha256::new();
        inner.update(&ipad);
        for p in parts {
            inner.update(p);
        }
        let inner_digest = inner.finalize();
        let mut outer = Sha256::new();
        outer.update(&opad);
        outer.update(&inner_digest);
        outer.finalize()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    // RFC 4231 test vectors.
    #[test]
    fn rfc4231_case1() {
        let key = [0x0bu8; 20];
        let tag = hmac_sha256(&key, b"Hi There");
        assert_eq!(
            hex(&tag),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
        );
    }

    #[test]
    fn rfc4231_case2() {
        let tag = hmac_sha256(b"Jefe", b"what do ya want for nothing?");
        assert_eq!(
            hex(&tag),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
        );
    }

    #[test]
    fn rfc4231_case3() {
        let key = [0xaau8; 20];
        let msg = [0xddu8; 50];
        let tag = hmac_sha256(&key, &msg);
        assert_eq!(
            hex(&tag),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"
        );
    }

    #[test]
    fn rfc4231_case6_long_key() {
        let key = [0xaau8; 131];
        let tag = hmac_sha256(
            &key,
            b"Test Using Larger Than Block-Size Key - Hash Key First",
        );
        assert_eq!(
            hex(&tag),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
        );
    }

    #[test]
    fn parts_equal_concatenation() {
        let key = b"k";
        let whole = hmac_sha256(key, b"hello world");
        let parts = hmac_sha256_parts(key, &[b"hello", b" ", b"world"]);
        assert_eq!(whole, parts);
        let empty_parts = hmac_sha256_parts(key, &[]);
        assert_eq!(empty_parts, hmac_sha256(key, b""));
    }

    #[test]
    fn keys_and_messages_separate() {
        assert_ne!(hmac_sha256(b"k1", b"m"), hmac_sha256(b"k2", b"m"));
        assert_ne!(hmac_sha256(b"k", b"m1"), hmac_sha256(b"k", b"m2"));
        // Key/message boundary must matter: ("ab", "c") != ("a", "bc").
        assert_ne!(hmac_sha256(b"ab", b"c"), hmac_sha256(b"a", b"bc"));
    }

    #[test]
    fn ct_eq_behaviour() {
        assert!(ct_eq(b"same", b"same"));
        assert!(!ct_eq(b"same", b"Same"));
        assert!(!ct_eq(b"short", b"longer"));
        assert!(ct_eq(b"", b""));
    }

    #[test]
    fn precomputed_key_matches_reference_across_lengths() {
        for key_len in [0usize, 1, 32, 63, 64, 65, 131] {
            let key = vec![0xA5u8; key_len];
            let hk = HmacKey::precompute(&key);
            for msg_len in [0usize, 1, 23, 55, 56, 64, 100, 200] {
                let msg: Vec<u8> = (0..msg_len as u8).collect();
                assert_eq!(
                    hk.mac(&msg),
                    reference::hmac_sha256(&key, &msg),
                    "key {key_len} msg {msg_len}"
                );
            }
        }
    }
}
