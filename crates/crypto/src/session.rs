//! Session spread-code derivation: `C_AB = h_{K_AB}(n_A ⊗ n_B)`.
//!
//! After mutual authentication, D-NDP (and M-NDP) derive a fresh secret
//! spread code known only to the two endpoints. The paper specifies
//! `h_*(·)` as "a cryptographic hash function of N bits keyed with the
//! subscript"; we realise it as the HMAC-based PRF expanded to ⌈N/8⌉
//! bytes whose bits, read MSB-first, are the `N` chips (the bits past `N`
//! cleared). That is how the authority's pool codes are packed too, so
//! the handshake turns a session code into chips with
//! `SpreadCode::from_msb_bytes`, with no bit unpacked.
//!
//! Beyond the seed [`derive_session_code`], this module provides the
//! allocation-free [`derive_session_code_with`] against a precomputed
//! key, the non-panicking [`try_derive_session_code`] for chip lengths
//! read from untrusted input, and the bounded [`SessionCodeCache`] the
//! handshake resolves its codes through (a retry of the same pair never
//! rederives, and a miss expands from the pair's precomputed pads).

use std::collections::{HashMap, VecDeque};

use crate::hmac::HmacKey;
use crate::ibc::{PairKey, SharedKey};
use crate::nonce::Nonce;
use crate::prf::{prf_expand_into, MAX_EXPAND_LEN};
use jrsnd_sim::metric_counter;

/// The PRF label namespacing session spread codes.
const LABEL: &[u8] = b"session-code";

/// Typed errors from fallible session-code derivation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum SessionCodeError {
    /// The requested chip length was zero — a session code must have at
    /// least one chip.
    ZeroChips,
    /// The requested chip length exceeds the `8 ×`
    /// [`MAX_EXPAND_LEN`] = 65 280 bits one PRF expansion yields.
    TooManyChips,
}

impl std::fmt::Display for SessionCodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SessionCodeError::ZeroChips => {
                write!(f, "session code must have at least one chip")
            }
            SessionCodeError::TooManyChips => {
                write!(f, "session code is capped at {} chips", 8 * MAX_EXPAND_LEN)
            }
        }
    }
}

impl std::error::Error for SessionCodeError {}

/// The bytes an `n_chips`-chip code takes, `⌈n_chips/8⌉`, or why no
/// session code has that many chips.
fn code_bytes(n_chips: usize) -> Result<usize, SessionCodeError> {
    match n_chips {
        0 => Err(SessionCodeError::ZeroChips),
        n if n > 8 * MAX_EXPAND_LEN => Err(SessionCodeError::TooManyChips),
        n => Ok(n.div_ceil(8)),
    }
}

/// Fallible variant of [`derive_session_code`] for callers whose chip
/// length comes from untrusted input (wire frames, config files): instead
/// of panicking on a length the PRF cannot expand it returns a typed
/// [`SessionCodeError`].
///
/// # Errors
///
/// Returns [`SessionCodeError::ZeroChips`] when `n_chips == 0` and
/// [`SessionCodeError::TooManyChips`] when `n_chips` exceeds
/// `8 ×` [`MAX_EXPAND_LEN`].
pub fn try_derive_session_code(
    key: &SharedKey,
    my_nonce: Nonce,
    peer_nonce: Nonce,
    n_chips: usize,
) -> Result<Vec<u8>, SessionCodeError> {
    code_bytes(n_chips)?;
    Ok(derive_session_code(key, my_nonce, peer_nonce, n_chips))
}

/// Derives the `n_chips`-chip session spread code from the pairwise key
/// and the two handshake nonces, as ⌈n_chips/8⌉ bytes: chip `i` is bit
/// `7 − i % 8` of byte `i / 8`, and the bits past `n_chips` are zero.
///
/// Symmetric in the nonces — both endpoints compute the same code — and
/// pseudorandom in the key, so a jammer without `K_AB` cannot predict it.
///
/// # Examples
///
/// ```
/// use jrsnd_crypto::ibc::{Authority, NodeId};
/// use jrsnd_crypto::nonce::Nonce;
/// use jrsnd_crypto::session::derive_session_code;
///
/// let auth = Authority::from_seed(b"demo");
/// let ka = auth.issue(NodeId(1));
/// let kb = auth.issue(NodeId(2));
/// let (na, nb) = (Nonce::from_value(3), Nonce::from_value(9));
/// let c_ab = derive_session_code(&ka.shared_key(NodeId(2)), na, nb, 512);
/// let c_ba = derive_session_code(&kb.shared_key(NodeId(1)), nb, na, 512);
/// assert_eq!(c_ab, c_ba);
/// assert_eq!(c_ab.len(), 512 / 8);
/// ```
///
/// # Panics
///
/// Panics if `n_chips` is zero or exceeds `8 ×` [`MAX_EXPAND_LEN`].
pub fn derive_session_code(
    key: &SharedKey,
    my_nonce: Nonce,
    peer_nonce: Nonce,
    n_chips: usize,
) -> Vec<u8> {
    let mut code = Vec::new();
    let key = HmacKey::precompute(key.as_bytes());
    derive_session_code_with(&key, my_nonce, peer_nonce, n_chips, &mut code);
    code
}

/// Derives the session code against a precomputed [`HmacKey`] into a
/// caller-owned buffer, resized to the code's ⌈n_chips/8⌉ bytes — the
/// allocation-free warm path once `out` has that capacity.
/// Byte-identical to [`derive_session_code`] for an `HmacKey`
/// precomputed from the same pairwise key.
///
/// # Panics
///
/// Panics if `n_chips` is zero or exceeds `8 ×` [`MAX_EXPAND_LEN`].
pub fn derive_session_code_with(
    key: &HmacKey,
    my_nonce: Nonce,
    peer_nonce: Nonce,
    n_chips: usize,
    out: &mut Vec<u8>,
) {
    let len = code_bytes(n_chips).unwrap_or_else(|e| panic!("{e}"));
    out.resize(len, 0);
    prf_expand_into(key, LABEL, &my_nonce.xor(peer_nonce).to_bytes(), out);
    // Clear the bits of the last byte past the code's last chip.
    let tail = n_chips % 8;
    if tail != 0 {
        out[len - 1] &= 0xFF << (8 - tail);
    }
}

/// Cache key: (pairwise key bytes, XOR of the two nonces, chip length).
/// The nonce XOR is exactly what the PRF context binds, so the key is
/// symmetric in the nonce order — the same entry serves both endpoints'
/// derivations of one session.
type CacheKey = ([u8; 32], [u8; 4], u32);

/// A bounded FIFO cache of derived session codes, as their bytes.
///
/// Handshake retries and both ends of a local simulation rederive the
/// same `(key, nonce pair)` code;
/// caching turns those into a lookup (`crypto.cache_hits`). A miss expands
/// the code from the pair key's precomputed pads
/// ([`derive_session_code_with`]). Eviction is oldest-first so a mobile
/// node churning through neighbors cannot grow the cache without bound,
/// and a full cache derives each new code into the evicted one's buffer.
///
/// # Examples
///
/// ```
/// use jrsnd_crypto::ibc::{Authority, NodeId, PairKey};
/// use jrsnd_crypto::nonce::Nonce;
/// use jrsnd_crypto::session::{derive_session_code, SessionCodeCache};
///
/// let auth = Authority::from_seed(b"demo");
/// let k = PairKey::new(auth.issue(NodeId(1)).shared_key(NodeId(2)));
/// let (na, nb) = (Nonce::from_value(3), Nonce::from_value(9));
/// let mut cache = SessionCodeCache::new(16);
/// let first = cache.get_or_derive(&k, na, nb, 512).to_vec();
/// assert_eq!(first.len(), 512 / 8);
/// // Second lookup (even with the nonces swapped) is a cache hit.
/// assert_eq!(cache.get_or_derive(&k, nb, na, 512), &first[..]);
/// assert_eq!(first, derive_session_code(k.shared(), na, nb, 512));
/// ```
#[derive(Debug)]
pub struct SessionCodeCache {
    capacity: usize,
    map: HashMap<CacheKey, Vec<u8>>,
    order: VecDeque<CacheKey>,
}

impl SessionCodeCache {
    /// Creates a cache holding at most `capacity` codes.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "session-code cache needs capacity");
        SessionCodeCache {
            capacity,
            map: HashMap::with_capacity(capacity),
            order: VecDeque::with_capacity(capacity),
        }
    }

    /// Returns the session code's bytes for `(key, nonce pair, n_chips)`,
    /// deriving and inserting them on a miss. Byte-identical to
    /// [`derive_session_code`] on `key`'s pairwise key.
    ///
    /// # Panics
    ///
    /// Panics if `n_chips` is zero or exceeds `8 ×` [`MAX_EXPAND_LEN`].
    pub fn get_or_derive(
        &mut self,
        key: &PairKey,
        my_nonce: Nonce,
        peer_nonce: Nonce,
        n_chips: usize,
    ) -> &[u8] {
        code_bytes(n_chips).unwrap_or_else(|e| panic!("{e}"));
        let ck: CacheKey = (
            *key.shared().as_bytes(),
            my_nonce.xor(peer_nonce).to_bytes(),
            n_chips as u32,
        );
        if self.map.contains_key(&ck) {
            metric_counter!("crypto.cache_hits").inc();
        } else {
            let mut code = Vec::new();
            if self.order.len() == self.capacity {
                if let Some(oldest) = self.order.pop_front() {
                    code = self.map.remove(&oldest).unwrap_or_default();
                }
            }
            derive_session_code_with(key.hmac(), my_nonce, peer_nonce, n_chips, &mut code);
            self.map.insert(ck, code);
            self.order.push_back(ck);
        }
        self.map.get(&ck).expect("just ensured present")
    }

    /// Number of cached codes.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ibc::{Authority, NodeId};
    use crate::prf::reference;

    fn key_pair() -> (SharedKey, SharedKey) {
        let auth = Authority::from_seed(b"session-test");
        let a = auth.issue(NodeId(1));
        let b = auth.issue(NodeId(2));
        (a.shared_key(NodeId(2)), b.shared_key(NodeId(1)))
    }

    #[test]
    fn symmetric_in_nonces() {
        let (kab, kba) = key_pair();
        let (na, nb) = (Nonce::from_value(0xAAAAA), Nonce::from_value(0x55555));
        assert_eq!(
            derive_session_code(&kab, na, nb, 512),
            derive_session_code(&kba, nb, na, 512)
        );
    }

    #[test]
    fn distinct_nonces_distinct_codes() {
        let (kab, _) = key_pair();
        let na = Nonce::from_value(1);
        let c1 = derive_session_code(&kab, na, Nonce::from_value(2), 512);
        let c2 = derive_session_code(&kab, na, Nonce::from_value(3), 512);
        assert_ne!(c1, c2);
    }

    #[test]
    fn distinct_keys_distinct_codes() {
        let auth = Authority::from_seed(b"s");
        let a = auth.issue(NodeId(1));
        let (na, nb) = (Nonce::from_value(4), Nonce::from_value(5));
        let c12 = derive_session_code(&a.shared_key(NodeId(2)), na, nb, 512);
        let c13 = derive_session_code(&a.shared_key(NodeId(3)), na, nb, 512);
        assert_ne!(c12, c13);
    }

    #[test]
    fn code_is_balanced_pseudorandom() {
        let (kab, _) = key_pair();
        let c = derive_session_code(&kab, Nonce::from_value(6), Nonce::from_value(7), 512);
        let ones: u32 = c.iter().map(|b| b.count_ones()).sum();
        assert!((211..=301).contains(&ones), "ones = {ones}");
    }

    #[test]
    fn code_bytes_are_the_reference_bits_with_the_tail_cleared() {
        let (kab, _) = key_pair();
        let (na, nb) = (Nonce::from_value(0x1234), Nonce::from_value(0xFEDC));
        let context = na.xor(nb).to_bytes();
        for n_chips in [1, 100, 512, 8 * MAX_EXPAND_LEN] {
            let bytes = derive_session_code(&kab, na, nb, n_chips);
            assert_eq!(bytes.len(), n_chips.div_ceil(8), "N={n_chips}");
            let bits = reference::prf_expand_bits(kab.as_bytes(), LABEL, &context, n_chips);
            for i in 0..8 * bytes.len() {
                let chip = bytes[i / 8] & (0x80 >> (i % 8)) != 0;
                assert_eq!(chip, i < n_chips && bits[i], "N={n_chips} bit {i}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least one chip")]
    fn zero_length_rejected() {
        let (kab, _) = key_pair();
        derive_session_code(&kab, Nonce::default(), Nonce::default(), 0);
    }

    #[test]
    fn with_variant_matches_scalar() {
        let (kab, _) = key_pair();
        let hk = HmacKey::precompute(kab.as_bytes());
        // Stale bytes of a longer code must not survive a shorter one.
        let mut out = Vec::new();
        for len in [512usize, 1, 1024, 100] {
            let (na, nb) = (Nonce::from_value(8), Nonce::from_value(9));
            derive_session_code_with(&hk, na, nb, len, &mut out);
            assert_eq!(out, derive_session_code(&kab, na, nb, len), "len {len}");
        }
    }

    #[test]
    fn cache_hits_and_is_nonce_symmetric() {
        let (kab, kba) = key_pair();
        let (kab, kba) = (PairKey::new(kab), PairKey::new(kba));
        let (na, nb) = (Nonce::from_value(0xAAAAA), Nonce::from_value(0x55555));
        let mut cache = SessionCodeCache::new(4);
        let expect = derive_session_code(kab.shared(), na, nb, 256);
        assert_eq!(cache.get_or_derive(&kab, na, nb, 256), &expect[..]);
        assert_eq!(cache.len(), 1);
        // Same pair, swapped nonce order (the peer's view): still one entry.
        assert_eq!(cache.get_or_derive(&kba, nb, na, 256), &expect[..]);
        assert_eq!(cache.len(), 1);
        // Different chip length is a distinct entry, not a wrong-size hit.
        assert_eq!(cache.get_or_derive(&kab, na, nb, 128).len(), 128 / 8);
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn cache_eviction_is_bounded_fifo() {
        let auth = Authority::from_seed(b"evict");
        let me = auth.issue(NodeId(0));
        let key = |p: u32| PairKey::new(me.shared_key(NodeId(p)));
        let mut cache = SessionCodeCache::new(2);
        let (na, nb) = (Nonce::from_value(1), Nonce::from_value(2));
        for p in 1..=3u32 {
            cache.get_or_derive(&key(p), na, nb, 64);
        }
        assert_eq!(cache.len(), 2, "capacity bound holds");
        // Oldest (peer 1) was evicted; rederiving it, into the evicted
        // peer 2's buffer, works.
        let k1 = key(1);
        let expect = derive_session_code(k1.shared(), na, nb, 64);
        assert_eq!(cache.get_or_derive(&k1, na, nb, 64), &expect[..]);
        assert_eq!(cache.len(), 2);
        // Every surviving entry still holds its own code.
        let k3 = key(3);
        let expect = derive_session_code(k3.shared(), na, nb, 64);
        assert_eq!(cache.get_or_derive(&k3, na, nb, 64), &expect[..]);
    }

    #[test]
    #[should_panic(expected = "needs capacity")]
    fn zero_capacity_cache_rejected() {
        SessionCodeCache::new(0);
    }

    #[test]
    fn try_derive_matches_the_panicking_path_and_rejects_bad_lengths() {
        let auth = Authority::from_seed(b"try");
        let key = auth.issue(NodeId(1)).shared_key(NodeId(2));
        let (na, nb) = (Nonce::from_value(5), Nonce::from_value(6));
        assert_eq!(
            try_derive_session_code(&key, na, nb, 128).unwrap(),
            derive_session_code(&key, na, nb, 128)
        );
        assert_eq!(
            try_derive_session_code(&key, na, nb, 0),
            Err(SessionCodeError::ZeroChips)
        );
        // The longest code one PRF expansion yields, and one chip more.
        let longest = 8 * MAX_EXPAND_LEN;
        assert_eq!(
            try_derive_session_code(&key, na, nb, longest).unwrap(),
            derive_session_code(&key, na, nb, longest)
        );
        assert_eq!(
            try_derive_session_code(&key, na, nb, longest + 1),
            Err(SessionCodeError::TooManyChips)
        );
    }
}
