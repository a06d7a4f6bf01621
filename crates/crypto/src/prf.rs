//! A pseudorandom function and variable-length key expansion built on
//! HMAC-SHA-256 (HKDF-expand style, RFC 5869).
//!
//! The spread-code pool, session spread codes, and identity-based key
//! material all need more than 32 pseudorandom bytes; [`prf_expand`]
//! stretches a key + label + context to any length. On top of the seed
//! API this module adds:
//!
//! * [`prf_expand_bits_into`] — the scalar expansion against a
//!   precomputed [`HmacKey`], writing into a caller-owned buffer so the
//!   warm path performs zero heap allocations;
//! * [`prf_expand_bits_lanes`] — `L` expansions (distinct keys and/or
//!   contexts, one shared label) advanced in lock-step through the
//!   multi-lane HMAC kernel, with round messages staged in a reusable
//!   [`PrfScratch`];
//! * [`reference`](mod@reference) — the seed implementation retained verbatim as the
//!   equivalence oracle.

use crate::hmac::{mac_lanes, HmacKey};
use crate::sha256::DIGEST_LEN;
use jrsnd_sim::metric_counter;

/// Reusable staging for the lane-parallel PRF: per-lane round-message and
/// output-byte buffers. After the first expansion of a given shape, reuse
/// performs zero heap allocations (counted by `crypto.scratch_reused`).
#[derive(Debug, Default)]
pub struct PrfScratch {
    /// Per-lane assembled round messages (`T(i-1) ++ label ++ 0x00 ++
    /// context ++ counter`).
    lane_msgs: Vec<Vec<u8>>,
    /// Per-lane expanded output bytes, before bit unpacking.
    lane_bytes: Vec<Vec<u8>>,
}

impl PrfScratch {
    /// Creates an empty scratch; buffers are sized on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Ensures `lanes` buffer pairs exist, each with at least the given
    /// capacities, and reports whether every buffer was already adequate
    /// (i.e. this use reallocated nothing).
    fn reserve(&mut self, lanes: usize, msg_cap: usize, byte_cap: usize) -> bool {
        let mut warm = self.lane_msgs.len() >= lanes && self.lane_bytes.len() >= lanes;
        self.lane_msgs.resize_with(lanes, Vec::new);
        self.lane_bytes.resize_with(lanes, Vec::new);
        for buf in &mut self.lane_msgs[..lanes] {
            warm &= buf.capacity() >= msg_cap;
            buf.clear();
            buf.reserve(msg_cap);
        }
        for buf in &mut self.lane_bytes[..lanes] {
            warm &= buf.capacity() >= byte_cap;
            buf.clear();
            buf.reserve(byte_cap);
        }
        warm
    }
}

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
/// Panics if `out_len` exceeds `255 * 32` bytes (the HKDF-expand limit).
pub fn prf_expand(key: &[u8], label: &[u8], context: &[u8], out_len: usize) -> Vec<u8> {
    let hk = HmacKey::precompute(key);
    let mut out = Vec::with_capacity(out_len);
    prf_expand_raw(&hk, label, context, out_len, |block| {
        out.extend_from_slice(block)
    });
    out
}

/// The shared HKDF-expand block loop: feeds each `T(i)` prefix (clipped to
/// the remaining output length) to `sink`, in order.
fn prf_expand_raw(
    key: &HmacKey,
    label: &[u8],
    context: &[u8],
    out_len: usize,
    mut sink: impl FnMut(&[u8]),
) {
    assert!(
        out_len <= 255 * DIGEST_LEN,
        "prf_expand output capped at {} bytes, asked for {out_len}",
        255 * DIGEST_LEN
    );
    let mut t = [0u8; DIGEST_LEN];
    let mut t_len = 0usize;
    let mut counter: u8 = 1;
    let mut produced = 0usize;
    while produced < out_len {
        t = key.mac_parts(&[&t[..t_len], label, &[0x00], context, &[counter]]);
        t_len = DIGEST_LEN;
        let take = (out_len - produced).min(DIGEST_LEN);
        sink(&t[..take]);
        produced += take;
        counter = counter.checked_add(1).expect("block counter overflow");
    }
}

/// Derives a fixed 32-byte subkey for a labelled purpose.
pub fn derive_key(key: &[u8], label: &[u8], context: &[u8]) -> [u8; DIGEST_LEN] {
    let v = prf_expand(key, label, context, DIGEST_LEN);
    let mut out = [0u8; DIGEST_LEN];
    out.copy_from_slice(&v);
    out
}

/// Expands into a bit vector of exactly `n_bits` pseudorandom bits
/// (MSB-first per byte) — how spread codes of chip length `N` are drawn.
pub fn prf_expand_bits(key: &[u8], label: &[u8], context: &[u8], n_bits: usize) -> Vec<bool> {
    let hk = HmacKey::precompute(key);
    let mut bits = Vec::with_capacity(n_bits);
    prf_expand_bits_into(&hk, label, context, n_bits, &mut bits);
    bits
}

/// Expands `n_bits` pseudorandom bits against a precomputed key into
/// `out` (cleared first). When `out` already has capacity for `n_bits`
/// the call performs zero heap allocations (`crypto.scratch_reused`).
///
/// Byte-identical to [`prf_expand_bits`] on the same `(key, label,
/// context)`.
///
/// # Examples
///
/// ```
/// use jrsnd_crypto::hmac::HmacKey;
/// use jrsnd_crypto::prf::{prf_expand_bits, prf_expand_bits_into};
///
/// let key = HmacKey::precompute(b"k");
/// let mut bits = Vec::new();
/// prf_expand_bits_into(&key, b"chips", b"code-7", 512, &mut bits);
/// assert_eq!(bits, prf_expand_bits(b"k", b"chips", b"code-7", 512));
/// ```
pub fn prf_expand_bits_into(
    key: &HmacKey,
    label: &[u8],
    context: &[u8],
    n_bits: usize,
    out: &mut Vec<bool>,
) {
    if out.capacity() >= n_bits {
        metric_counter!("crypto.scratch_reused").inc();
    }
    out.clear();
    out.reserve(n_bits);
    prf_expand_raw(key, label, context, n_bits.div_ceil(8), |block| {
        for &byte in block {
            for j in 0..8 {
                if out.len() == n_bits {
                    return;
                }
                out.push(byte & (0x80 >> j) != 0);
            }
        }
    });
}

/// Expands `L` bit strings lane-parallel: lane `l` is the expansion of
/// `(keys[l], label, contexts[l])` to `n_bits` bits, byte-identical to
/// the scalar [`prf_expand_bits_into`]. Contexts must share one length so
/// the lanes' round messages stay in lock-step; keys may repeat.
///
/// This is the bulk path behind the batched session-code derivation and
/// the pre-distributed code pool: m candidate neighbors' codes cost one
/// lane-parallel HMAC sweep instead of m scalar PRF runs.
///
/// # Panics
///
/// Panics if the contexts do not all share one length, or if `n_bits`
/// exceeds `8 * 255 * 32`.
pub fn prf_expand_bits_lanes<const L: usize>(
    keys: [&HmacKey; L],
    label: &[u8],
    contexts: [&[u8]; L],
    n_bits: usize,
    scratch: &mut PrfScratch,
) -> [Vec<bool>; L] {
    let ctx_len = contexts[0].len();
    assert!(
        contexts.iter().all(|c| c.len() == ctx_len),
        "prf_expand_bits_lanes requires equal-length contexts"
    );
    let out_len = n_bits.div_ceil(8);
    assert!(
        out_len <= 255 * DIGEST_LEN,
        "prf_expand output capped at {} bytes, asked for {out_len}",
        255 * DIGEST_LEN
    );
    let msg_cap = DIGEST_LEN + label.len() + 1 + ctx_len + 1;
    if scratch.reserve(L, msg_cap, out_len) {
        metric_counter!("crypto.scratch_reused").inc();
    }
    let mut counter: u8 = 1;
    let mut produced = 0usize;
    let mut t = [[0u8; DIGEST_LEN]; L];
    let mut first_round = true;
    while produced < out_len {
        for l in 0..L {
            let msg = &mut scratch.lane_msgs[l];
            msg.clear();
            if !first_round {
                msg.extend_from_slice(&t[l]);
            }
            msg.extend_from_slice(label);
            msg.push(0x00);
            msg.extend_from_slice(contexts[l]);
            msg.push(counter);
        }
        let msgs: [&[u8]; L] = std::array::from_fn(|l| scratch.lane_msgs[l].as_slice());
        t = mac_lanes(keys, msgs);
        let take = (out_len - produced).min(DIGEST_LEN);
        for (bytes, tag) in scratch.lane_bytes.iter_mut().zip(&t) {
            bytes.extend_from_slice(&tag[..take]);
        }
        produced += take;
        counter = counter.checked_add(1).expect("block counter overflow");
        first_round = false;
    }
    std::array::from_fn(|l| {
        let mut bits = Vec::with_capacity(n_bits);
        'outer: for &byte in &scratch.lane_bytes[l] {
            for j in 0..8 {
                if bits.len() == n_bits {
                    break 'outer;
                }
                bits.push(byte & (0x80 >> j) != 0);
            }
        }
        bits
    })
}

/// The seed PRF, retained verbatim (over [`crate::hmac::reference`]) as
/// the equivalence oracle for the scratch-based and lane-parallel paths.
pub mod reference {
    use crate::hmac::reference::hmac_sha256_parts;
    use crate::sha256::DIGEST_LEN;

    /// Deterministically expands `(key, label, context)` into `out_len`
    /// pseudorandom bytes (seed implementation).
    ///
    /// # Panics
    ///
    /// Panics if `out_len` exceeds `255 * 32` bytes.
    pub fn prf_expand(key: &[u8], label: &[u8], context: &[u8], out_len: usize) -> Vec<u8> {
        assert!(
            out_len <= 255 * DIGEST_LEN,
            "prf_expand output capped at {} bytes, asked for {out_len}",
            255 * DIGEST_LEN
        );
        let mut out = Vec::with_capacity(out_len);
        let mut t: Vec<u8> = Vec::new();
        let mut counter: u8 = 1;
        while out.len() < out_len {
            t = hmac_sha256_parts(key, &[&t, label, &[0x00], context, &[counter]]).to_vec();
            let take = (out_len - out.len()).min(DIGEST_LEN);
            out.extend_from_slice(&t[..take]);
            counter = counter.checked_add(1).expect("block counter overflow");
        }
        out
    }

    /// Expands into a bit vector of exactly `n_bits` pseudorandom bits
    /// (seed implementation).
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
    fn bits_have_expected_length_and_balance() {
        let bits = prf_expand_bits(b"k", b"chips", b"code-7", 512);
        assert_eq!(bits.len(), 512);
        let ones = bits.iter().filter(|&&b| b).count();
        // A pseudorandom 512-bit string has ~256 ones; 4 sigma ~ 45.
        assert!((211..=301).contains(&ones), "ones = {ones}");
        let odd = prf_expand_bits(b"k", b"chips", b"x", 13);
        assert_eq!(odd.len(), 13);
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
        prf_expand(b"k", b"l", b"", 255 * 32 + 1);
    }

    #[test]
    fn fast_paths_match_reference() {
        for len in [0usize, 1, 13, 32, 255, 256, 257, 1000] {
            assert_eq!(
                prf_expand(b"key", b"lbl", b"ctx", len),
                reference::prf_expand(b"key", b"lbl", b"ctx", len),
                "bytes len {len}"
            );
        }
        for n_bits in [0usize, 1, 7, 8, 9, 512, 513, 2048] {
            assert_eq!(
                prf_expand_bits(b"key", b"lbl", b"ctx", n_bits),
                reference::prf_expand_bits(b"key", b"lbl", b"ctx", n_bits),
                "bits {n_bits}"
            );
        }
    }

    #[test]
    fn into_variant_reuses_buffer_and_matches() {
        let key = HmacKey::precompute(b"k");
        let mut out = Vec::new();
        for n_bits in [512usize, 64, 513] {
            prf_expand_bits_into(&key, b"l", b"ctx", n_bits, &mut out);
            assert_eq!(out, reference::prf_expand_bits(b"k", b"l", b"ctx", n_bits));
        }
    }

    #[test]
    fn lanes_match_reference_at_every_supported_width() {
        let keys_raw: Vec<Vec<u8>> = (0..8u8).map(|i| vec![i | 0x40; 16]).collect();
        let keys: Vec<HmacKey> = keys_raw.iter().map(|k| HmacKey::precompute(k)).collect();
        let ctxs: Vec<[u8; 4]> = (0..8u32).map(|i| i.to_be_bytes()).collect();
        let mut scratch = PrfScratch::new();
        macro_rules! check {
            ($l:literal) => {{
                let ks: [&HmacKey; $l] = std::array::from_fn(|i| &keys[i]);
                let cs: [&[u8]; $l] = std::array::from_fn(|i| ctxs[i].as_slice());
                for n_bits in [0usize, 1, 255, 256, 512, 513] {
                    let lanes =
                        prf_expand_bits_lanes(ks, b"session-code", cs, n_bits, &mut scratch);
                    for i in 0..$l {
                        assert_eq!(
                            lanes[i],
                            reference::prf_expand_bits(
                                &keys_raw[i],
                                b"session-code",
                                &ctxs[i],
                                n_bits
                            ),
                            "L={} lane {i} n_bits {n_bits}",
                            $l
                        );
                    }
                }
            }};
        }
        check!(1);
        check!(2);
        check!(4);
        check!(8);
    }

    #[test]
    #[should_panic(expected = "equal-length")]
    fn lanes_reject_ragged_contexts() {
        let k = HmacKey::precompute(b"k");
        let mut scratch = PrfScratch::new();
        let _ = prf_expand_bits_lanes([&k, &k], b"l", [b"a".as_slice(), b"ab"], 8, &mut scratch);
    }
}
