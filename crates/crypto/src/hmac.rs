//! HMAC-SHA-256 (RFC 2104), plus constant-time tag comparison.
//!
//! HMAC is the root of everything keyed in the reproduction: the message
//! authentication code `f_K(·)` of D-NDP, the PRF behind the simulated
//! identity-based keys, and the keyed hash `h_K(·)` that derives session
//! spread codes. Three shapes:
//!
//! * [`HmacKey`] — ipad/opad compression states precomputed once per key,
//!   so a MAC over a short message costs two compressions instead of
//!   four full hashes (long-lived pair keys are MAC'd on every D-NDP
//!   sub-session, so the precompute amortizes immediately);
//! * [`mac_lanes`] — `L` independent (key, message) MACs per call through
//!   the multi-lane compression kernel;
//! * [`reference`](mod@reference) — the seed implementation retained verbatim as the
//!   equivalence oracle.
//!
//! The one-shot [`hmac_sha256`]/[`hmac_sha256_parts`] entry points keep
//! their seed signatures and now route through [`HmacKey`].

use crate::sha256::{
    self, compress_block, compress_lanes, Sha256, BLOCK_LEN, DIGEST_LEN, INITIAL_STATE,
};
use jrsnd_sim::metric_counter;

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

    /// The precomputed inner (ipad) compression state. Exposed for the
    /// lane-parallel kernels in this crate family.
    pub fn inner_state(&self) -> [u32; 8] {
        self.inner
    }

    /// The precomputed outer (opad) compression state.
    pub fn outer_state(&self) -> [u32; 8] {
        self.outer
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

/// Precomputes `L` keys' pad states through the lane kernel: two
/// lane-compressions total instead of the `2·L` scalar ones that `L`
/// separate [`HmacKey::precompute`] calls would pay. Byte-identical per
/// lane. Keys longer than one block are pre-hashed scalar, per RFC 2104.
///
/// # Examples
///
/// ```
/// use jrsnd_crypto::hmac::{precompute_lanes, HmacKey};
///
/// let [a, b] = precompute_lanes([b"k1".as_slice(), b"k2"]);
/// assert_eq!(a.mac(b"m"), HmacKey::precompute(b"k1").mac(b"m"));
/// assert_eq!(b.mac(b"m"), HmacKey::precompute(b"k2").mac(b"m"));
/// ```
pub fn precompute_lanes<const L: usize>(keys: [&[u8]; L]) -> [HmacKey; L] {
    let mut ipads = [[0u8; BLOCK_LEN]; L];
    let mut opads = [[0u8; BLOCK_LEN]; L];
    for l in 0..L {
        let mut k = [0u8; BLOCK_LEN];
        if keys[l].len() > BLOCK_LEN {
            let d = sha256::sha256(keys[l]);
            k[..DIGEST_LEN].copy_from_slice(&d);
        } else {
            k[..keys[l].len()].copy_from_slice(keys[l]);
        }
        for i in 0..BLOCK_LEN {
            ipads[l][i] = k[i] ^ 0x36;
            opads[l][i] = k[i] ^ 0x5c;
        }
    }
    let mut inner = [INITIAL_STATE; L];
    let mut outer = [INITIAL_STATE; L];
    compress_lanes(&mut inner, &ipads);
    compress_lanes(&mut outer, &opads);
    std::array::from_fn(|l| HmacKey {
        inner: inner[l],
        outer: outer[l],
    })
}

/// Computes `L` MACs lane-parallel: `out[l] = HMAC(keys[l], msgs[l])`.
///
/// Keys may repeat (pass the same `&HmacKey` in several lanes) — the
/// batched PRF does exactly that. Byte-identical per lane to
/// [`HmacKey::mac`]; the lanes only buy throughput.
///
/// # Panics
///
/// Panics if the messages do not all share one length (the lanes advance
/// in lock-step through the padded stream).
///
/// # Examples
///
/// ```
/// use jrsnd_crypto::hmac::{mac_lanes, HmacKey};
///
/// let k1 = HmacKey::precompute(b"k1");
/// let k2 = HmacKey::precompute(b"k2");
/// let tags = mac_lanes([&k1, &k2], [b"msg-a".as_slice(), b"msg-b"]);
/// assert_eq!(tags[0], k1.mac(b"msg-a"));
/// assert_eq!(tags[1], k2.mac(b"msg-b"));
/// ```
pub fn mac_lanes<const L: usize>(keys: [&HmacKey; L], msgs: [&[u8]; L]) -> [[u8; DIGEST_LEN]; L] {
    let len = msgs[0].len();
    assert!(
        msgs.iter().all(|m| m.len() == len),
        "mac_lanes requires equal-length messages"
    );
    // Inner pass: resume each lane at its ipad state (one block already
    // absorbed) and stream the padded message through the lane kernel.
    let mut states: [[u32; 8]; L] = std::array::from_fn(|l| keys[l].inner);
    let mut blocks = [[0u8; BLOCK_LEN]; L];
    let total = (BLOCK_LEN + len) as u64;
    for index in 0..sha256::padded_blocks(len) {
        for l in 0..L {
            sha256::fill_padded_block(msgs[l], total, index, &mut blocks[l]);
        }
        compress_lanes(&mut states, &blocks);
    }
    let mut inner_digests = [[0u8; DIGEST_LEN]; L];
    for l in 0..L {
        for (i, w) in states[l].iter().enumerate() {
            inner_digests[l][i * 4..(i + 1) * 4].copy_from_slice(&w.to_be_bytes());
        }
    }
    // Outer pass: opad-block ++ digest pads into exactly one block.
    let mut outer: [[u32; 8]; L] = std::array::from_fn(|l| keys[l].outer);
    let outer_total = (BLOCK_LEN + DIGEST_LEN) as u64;
    for l in 0..L {
        sha256::fill_padded_block(&inner_digests[l], outer_total, 0, &mut blocks[l]);
    }
    compress_lanes(&mut outer, &blocks);
    metric_counter!("crypto.hashes").add(2 * L as u64);
    let mut out = [[0u8; DIGEST_LEN]; L];
    for l in 0..L {
        for (i, w) in outer[l].iter().enumerate() {
            out[l][i * 4..(i + 1) * 4].copy_from_slice(&w.to_be_bytes());
        }
    }
    out
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
/// the equivalence oracle for the precomputed and lane-parallel paths.
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

    #[test]
    fn mac_lanes_match_reference_at_every_supported_width() {
        let keys: Vec<HmacKey> = (0..8u8)
            .map(|i| HmacKey::precompute(&[i ^ 0x3C; 20]))
            .collect();
        let msgs_owned: Vec<Vec<u8>> = (0..8u8).map(|i| vec![i.wrapping_mul(41); 77]).collect();
        macro_rules! check {
            ($l:literal) => {{
                let ks: [&HmacKey; $l] = std::array::from_fn(|i| &keys[i]);
                let ms: [&[u8]; $l] = std::array::from_fn(|i| msgs_owned[i].as_slice());
                let tags = mac_lanes(ks, ms);
                for i in 0..$l {
                    assert_eq!(
                        tags[i],
                        reference::hmac_sha256(&[(i as u8) ^ 0x3C; 20], &msgs_owned[i]),
                        "L={} lane {i}",
                        $l
                    );
                }
            }};
        }
        check!(1);
        check!(2);
        check!(4);
        check!(8);
    }

    #[test]
    fn precompute_lanes_match_scalar_precompute() {
        // Short, block-sized, and over-block keys in one batch.
        let keys: Vec<Vec<u8>> = [0usize, 1, 32, 64, 65, 131, 20, 7]
            .iter()
            .enumerate()
            .map(|(i, &len)| vec![i as u8 ^ 0x7E; len])
            .collect();
        let refs: [&[u8]; 8] = std::array::from_fn(|i| keys[i].as_slice());
        let batched = precompute_lanes(refs);
        for (i, key) in keys.iter().enumerate() {
            assert_eq!(
                batched[i].mac(b"probe"),
                HmacKey::precompute(key).mac(b"probe"),
                "lane {i}"
            );
        }
    }

    #[test]
    fn mac_lanes_share_a_key_across_lanes() {
        let k = HmacKey::precompute(b"shared");
        let tags = mac_lanes([&k, &k], [b"ctx-0".as_slice(), b"ctx-1"]);
        assert_eq!(tags[0], k.mac(b"ctx-0"));
        assert_eq!(tags[1], k.mac(b"ctx-1"));
        assert_ne!(tags[0], tags[1]);
    }

    #[test]
    #[should_panic(expected = "equal-length")]
    fn mac_lanes_reject_ragged_messages() {
        let k = HmacKey::precompute(b"k");
        let _ = mac_lanes([&k, &k], [b"a".as_slice(), b"ab"]);
    }
}
