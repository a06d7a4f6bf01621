//! Spread codes: pseudorandom ±1 sequences of length `N`.
//!
//! The MANET authority draws a secret pool `ℂ = {C_i}` of `s ≪ 2^N` random
//! spread codes (Section V-A). Codes are long enough (`N = 512`) that
//! distinct pseudorandom codes are nearly orthogonal, so concurrent
//! transmissions under different codes interfere negligibly and a jammer
//! cannot guess a code within the network lifetime.

use crate::chip::ChipSeq;
use rand::Rng;

/// Default chip length (Table I: `N = 512`).
pub const DEFAULT_CODE_LEN: usize = 512;

/// Identifies a code within the authority's pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CodeId(pub u32);

impl std::fmt::Display for CodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "C{}", self.0)
    }
}

/// An `N`-chip pseudorandom spread code.
///
/// # Examples
///
/// ```
/// use jrsnd_dsss::code::SpreadCode;
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let a = SpreadCode::random(512, &mut rng);
/// let b = SpreadCode::random(512, &mut rng);
/// // Pseudorandom codes are near-orthogonal.
/// assert!(a.chips().correlate(b.chips()).abs() < 0.15);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct SpreadCode {
    chips: ChipSeq,
}

impl SpreadCode {
    /// Draws a uniformly random code of `n_chips` chips.
    ///
    /// # Panics
    ///
    /// Panics if `n_chips` is zero.
    pub fn random(n_chips: usize, rng: &mut impl Rng) -> Self {
        assert!(n_chips > 0, "spread code must have at least one chip");
        let bits: Vec<bool> = (0..n_chips).map(|_| rng.gen()).collect();
        SpreadCode {
            chips: ChipSeq::from_bits(&bits),
        }
    }

    /// Builds a code from explicit chip bits.
    ///
    /// # Panics
    ///
    /// Panics if `bits` is empty.
    pub fn from_bits(bits: &[bool]) -> Self {
        SpreadCode {
            chips: ChipSeq::from_bits(bits),
        }
    }

    /// Builds a code of `n_chips` chips packed MSB-first in `bytes`: chip
    /// `i` is bit `7 − i % 8` of byte `i / 8`, the order a PRF byte stream
    /// is read as bits. Equal to [`SpreadCode::from_bits`] of those bits,
    /// without unpacking them.
    ///
    /// # Panics
    ///
    /// Panics if `n_chips` is zero or `bytes` is not `⌈n_chips/8⌉` long.
    pub fn from_msb_bytes(bytes: &[u8], n_chips: usize) -> Self {
        SpreadCode {
            chips: ChipSeq::from_msb_bytes(bytes, n_chips),
        }
    }

    /// Chip length `N`.
    pub fn len(&self) -> usize {
        self.chips.len()
    }

    /// Whether the code has zero chips (never true by construction).
    pub fn is_empty(&self) -> bool {
        self.chips.is_empty()
    }

    /// The underlying chip sequence.
    pub fn chips(&self) -> &ChipSeq {
        &self.chips
    }
}

/// The authority's secret pool of `s` spread codes.
#[derive(Debug, Clone)]
pub struct CodePool {
    codes: Vec<SpreadCode>,
}

impl CodePool {
    /// Generates a pool of `s` random codes of `n_chips` chips each.
    ///
    /// # Panics
    ///
    /// Panics if `s == 0` or `n_chips == 0`.
    pub fn generate(s: usize, n_chips: usize, rng: &mut impl Rng) -> Self {
        assert!(s > 0, "pool must contain at least one code");
        CodePool {
            codes: (0..s).map(|_| SpreadCode::random(n_chips, rng)).collect(),
        }
    }

    /// Wraps explicitly constructed codes (e.g. PRF-derived from an
    /// authority secret, or a permuted Gold family).
    ///
    /// # Panics
    ///
    /// Panics if `codes` is empty or the codes have differing lengths.
    pub fn from_codes(codes: Vec<SpreadCode>) -> Self {
        assert!(!codes.is_empty(), "pool must contain at least one code");
        let n = codes[0].len();
        assert!(
            codes.iter().all(|c| c.len() == n),
            "all pool codes must share one chip length"
        );
        CodePool { codes }
    }

    /// Number of codes `s`.
    pub fn len(&self) -> usize {
        self.codes.len()
    }

    /// Whether the pool is empty (never true by construction).
    pub fn is_empty(&self) -> bool {
        self.codes.is_empty()
    }

    /// The code with the given id.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn code(&self, id: CodeId) -> &SpreadCode {
        &self.codes[id.0 as usize]
    }

    /// Checked lookup.
    pub fn get(&self, id: CodeId) -> Option<&SpreadCode> {
        self.codes.get(id.0 as usize)
    }

    /// All ids in the pool.
    pub fn ids(&self) -> impl Iterator<Item = CodeId> + '_ {
        (0..self.codes.len() as u32).map(CodeId)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng(seed: u64) -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(seed)
    }

    #[test]
    fn random_codes_are_balanced() {
        let mut r = rng(1);
        let code = SpreadCode::random(DEFAULT_CODE_LEN, &mut r);
        let ones = code.chips().to_bits().iter().filter(|&&b| b).count();
        assert!((196..=316).contains(&ones), "ones = {ones}");
        assert_eq!(code.len(), 512);
    }

    #[test]
    fn distinct_random_codes_near_orthogonal() {
        let mut r = rng(2);
        let codes: Vec<SpreadCode> = (0..20)
            .map(|_| SpreadCode::random(DEFAULT_CODE_LEN, &mut r))
            .collect();
        for i in 0..codes.len() {
            for j in (i + 1)..codes.len() {
                let corr = codes[i].chips().correlate(codes[j].chips()).abs();
                // tau = 0.15 is the paper's de-spreading threshold; random
                // pairs must sit well inside it (sigma = 1/sqrt(512) ~ 0.044).
                assert!(corr < 0.15, "|corr({i},{j})| = {corr}");
            }
        }
    }

    #[test]
    fn pool_generation_and_lookup() {
        let mut r = rng(3);
        let pool = CodePool::generate(100, 64, &mut r);
        assert_eq!(pool.len(), 100);
        assert_eq!(pool.ids().count(), 100);
        let c0 = pool.code(CodeId(0));
        assert_eq!(c0.len(), 64);
        assert!(pool.get(CodeId(99)).is_some());
        assert!(pool.get(CodeId(100)).is_none());
    }

    #[test]
    fn pool_codes_are_distinct() {
        let mut r = rng(4);
        let pool = CodePool::generate(200, 128, &mut r);
        let mut seen = std::collections::HashSet::new();
        for id in pool.ids() {
            assert!(seen.insert(pool.code(id).chips().clone()), "duplicate {id}");
        }
    }

    #[test]
    fn from_bits_preserves_chips() {
        let bits = vec![true, false, true, true];
        let code = SpreadCode::from_bits(&bits);
        assert_eq!(code.chips().to_bits(), bits);
    }

    #[test]
    #[should_panic(expected = "at least one chip")]
    fn zero_length_code_rejected() {
        let mut r = rng(5);
        SpreadCode::random(0, &mut r);
    }

    #[test]
    #[should_panic(expected = "at least one code")]
    fn empty_pool_rejected() {
        let mut r = rng(6);
        CodePool::generate(0, 64, &mut r);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn msb_bytes_equal_from_bits_of_the_msb_first_bits(
            n_chips in 1usize..=600,
            pool in proptest::collection::vec(any::<u8>(), 75),
        ) {
            // Random bits past `n_chips` in a partial last byte must not
            // leak into the padding of the last word: `==` compares it.
            let bytes = &pool[..n_chips.div_ceil(8)];
            let bits: Vec<bool> = (0..n_chips)
                .map(|i| bytes[i / 8] & (0x80 >> (i % 8)) != 0)
                .collect();
            prop_assert_eq!(
                SpreadCode::from_msb_bytes(bytes, n_chips),
                SpreadCode::from_bits(&bits)
            );
        }
    }
}
