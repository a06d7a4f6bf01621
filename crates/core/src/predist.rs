//! Random spread-code pre-distribution (Section V-A).
//!
//! Before deployment the authority runs `m` rounds; in round `i` it
//! randomly partitions the `n` nodes into `w = ⌈n/l⌉` subsets of size `l`
//! and assigns code `C_{w(i−1)+j}` to subset `j`. After `m` rounds every
//! node holds exactly `m` codes and every code is held by **at most** `l`
//! nodes — the knob that bounds the blast radius of a node compromise.
//! When `l ∤ n`, the shortfall is covered by *virtual nodes* whose code
//! sets can later be handed to joining nodes.

use crate::params::Params;
use jrsnd_crypto::hmac::HmacKey;
use jrsnd_crypto::prf::{prf_expand_bits_into, prf_expand_bits_lanes, PrfScratch};
use jrsnd_dsss::code::{CodeId, CodePool, SpreadCode};
use jrsnd_sim::rng::SimRng;
use rand::seq::SliceRandom;
use std::collections::HashSet;
use std::sync::OnceLock;

/// Derives the authority's secret code pool ℂ = {C_i} deterministically
/// from its master secret: code `i` is `PRF(secret, "code-pool", i)`
/// expanded to `n_chips` chips. Only parties holding the secret can
/// regenerate any code — the paper's "only the authority has the full
/// knowledge of ℂ".
///
/// # Examples
///
/// ```
/// use jrsnd::predist::derive_code_pool;
///
/// let pool = derive_code_pool(b"authority master secret", 100, 512);
/// assert_eq!(pool.len(), 100);
/// // Deterministic: the authority can re-derive a code to provision a
/// // joining node without storing the pool.
/// let again = derive_code_pool(b"authority master secret", 100, 512);
/// assert_eq!(
///     pool.code(jrsnd_dsss::code::CodeId(7)),
///     again.code(jrsnd_dsss::code::CodeId(7))
/// );
/// ```
///
/// # Panics
///
/// Panics if `s == 0` or `n_chips == 0`.
pub fn derive_code_pool(secret: &[u8], s: usize, n_chips: usize) -> CodePool {
    assert!(s > 0 && n_chips > 0, "pool and code sizes must be positive");
    const LABEL: &[u8] = b"jr-snd/code-pool";
    // One key expansion for the whole pool, then the codes in lane-parallel
    // chunks of eight (scalar tail): the authority's s-code pool is one
    // batched PRF sweep. Byte-identical to s scalar expansions.
    let key = HmacKey::precompute(secret);
    let mut scratch = PrfScratch::new();
    let mut codes = Vec::with_capacity(s);
    let mut i = 0usize;
    while i + 8 <= s {
        let ctxs: [[u8; 8]; 8] = std::array::from_fn(|l| ((i + l) as u64).to_be_bytes());
        let ctx_refs: [&[u8]; 8] = std::array::from_fn(|l| ctxs[l].as_slice());
        let lanes = prf_expand_bits_lanes([&key; 8], LABEL, ctx_refs, n_chips, &mut scratch);
        codes.extend(lanes.iter().map(|bits| SpreadCode::from_bits(bits)));
        i += 8;
    }
    let mut bits = Vec::with_capacity(n_chips);
    for j in i..s {
        prf_expand_bits_into(&key, LABEL, &(j as u64).to_be_bytes(), n_chips, &mut bits);
        codes.push(SpreadCode::from_bits(&bits));
    }
    CodePool::from_codes(codes)
}

/// The result of pre-distribution: who holds which codes.
///
/// Both directions are flat tables. Node `v` holds exactly one code per
/// round, and round `r`'s codes lie in band `[w·r, w·(r+1))`, so row `v`
/// of the round-major `codes` table is its sorted code set with no sort,
/// and two nodes share a code exactly where their rows agree position by
/// position, so one branch-free compare of the two rows gives the mask of
/// the rounds they share. Every code is held by exactly `l` nodes (real or
/// virtual), so `holders` is an `s × l` table, filled in ascending node
/// order the first time [`CodeAssignment::holders_of`] is asked: the
/// D-NDP drivers read only `codes`, and at 20k nodes the holders table
/// is 16 MB.
#[derive(Debug, Clone)]
pub struct CodeAssignment {
    /// `codes[v·m + r]` = the code node `v` received in round `r` (real
    /// nodes first, then any virtual nodes).
    codes: Vec<CodeId>,
    /// `holders[c·l .. (c+1)·l]` = the sorted nodes holding code `c`,
    /// built on first use: the D-NDP drivers never read it.
    holders: OnceLock<Vec<usize>>,
    /// Number of codes in the pool (`s = w·m`).
    pool: usize,
    /// Number of real nodes (`n`); rows beyond are virtual.
    n_real: usize,
    /// Codes per node (`m`).
    m: usize,
    /// Sharing bound (`l`).
    l: usize,
}

impl CodeAssignment {
    /// Runs the `m`-round partition assignment for `params`, drawing
    /// randomness from `rng`.
    ///
    /// # Panics
    ///
    /// Panics if `params` fail validation.
    pub fn generate(params: &Params, rng: &mut SimRng) -> Self {
        params.validate().expect("invalid parameters");
        let n = params.n;
        let l = params.l;
        let m = params.m;
        let w = params.partitions();
        let total = w * l; // real + virtual nodes
        let s = w * m;
        let mut codes = vec![CodeId(0); total * m];
        let mut order: Vec<usize> = (0..total).collect();
        for round in 0..m {
            order.shuffle(&mut rng.fork("predist-round", round as u64));
            for (j, chunk) in order.chunks(l).enumerate() {
                let code = CodeId((w * round + j) as u32);
                for &node in chunk {
                    codes[node * m + round] = code;
                }
            }
        }
        CodeAssignment {
            codes,
            holders: OnceLock::new(),
            pool: s,
            n_real: n,
            m,
            l,
        }
    }

    /// Number of real nodes.
    pub fn n_real(&self) -> usize {
        self.n_real
    }

    /// Number of virtual nodes (0 when `l | n`).
    pub fn n_virtual(&self) -> usize {
        self.codes.len() / self.m - self.n_real
    }

    /// Codes per node `m`.
    pub fn codes_per_node(&self) -> usize {
        self.m
    }

    /// The sharing bound `l`.
    pub fn sharing_bound(&self) -> usize {
        self.l
    }

    /// Total number of codes in the pool.
    pub fn pool_size(&self) -> usize {
        self.pool
    }

    /// The sorted code set ℂ_v of node `v` (real or virtual).
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn codes_of(&self, v: usize) -> &[CodeId] {
        &self.codes[v * self.m..(v + 1) * self.m]
    }

    /// The sorted holders of code `c` (including virtual nodes).
    pub fn holders_of(&self, c: CodeId) -> &[usize] {
        let c = c.0 as usize;
        let (l, m) = (self.l, self.m);
        let holders = self.holders.get_or_init(|| {
            // Visiting nodes in ascending order fills every holder row sorted.
            let mut holders = vec![0usize; self.pool * l];
            let mut filled = vec![0usize; self.pool];
            for (node, row) in self.codes.chunks_exact(m).enumerate() {
                for c in row {
                    let c = c.0 as usize;
                    holders[c * l + filled[c]] = node;
                    filled[c] += 1;
                }
            }
            holders
        });
        &holders[c * l..(c + 1) * l]
    }

    /// Words of a round mask: one bit per round, `⌈m/64⌉` words.
    pub(crate) fn mask_words(&self) -> usize {
        self.m.div_ceil(64)
    }

    /// The rounds in which `u` and `v` received the same code, as a mask
    /// written into `out`: bit `r % 64` of word `r / 64` is set iff their
    /// round-`r` codes agree. Codes of different rounds never coincide, so
    /// these are exactly the shared codes, and ascending rounds are
    /// ascending code ids. One branch-free compare of the two rows.
    ///
    /// # Panics
    ///
    /// Panics if `u` or `v` is out of range or `out` is not
    /// [`CodeAssignment::mask_words`] long.
    pub(crate) fn shared_rounds_into(&self, u: usize, v: usize, out: &mut [u64]) {
        assert_eq!(out.len(), self.mask_words(), "round mask length");
        let (a, b) = (self.codes_of(u), self.codes_of(v));
        for (word, (x, y)) in out.iter_mut().zip(a.chunks(64).zip(b.chunks(64))) {
            *word = agreement(x, y);
        }
    }

    /// Sorted intersection ℂ_u ∩ ℂ_v into a caller's buffer, which is
    /// cleared first: the codes at the positions where the two rows agree,
    /// read off `u`'s row. A caller walking many pairs reuses one buffer,
    /// so the lookup allocates nothing once warm.
    ///
    /// # Panics
    ///
    /// Panics if `u` or `v` is out of range.
    pub fn shared_codes_into(&self, u: usize, v: usize, out: &mut Vec<CodeId>) {
        out.clear();
        let (a, b) = (self.codes_of(u), self.codes_of(v));
        for (x, y) in a.chunks(64).zip(b.chunks(64)) {
            let mut mask = agreement(x, y);
            while mask != 0 {
                out.push(x[mask.trailing_zeros() as usize]);
                mask &= mask - 1;
            }
        }
    }

    /// Sorted intersection ℂ_u ∩ ℂ_v, in a fresh vector
    /// ([`CodeAssignment::shared_codes_into`]).
    ///
    /// # Examples
    ///
    /// ```
    /// use jrsnd::params::Params;
    /// use jrsnd::predist::CodeAssignment;
    /// use jrsnd_sim::rng::SimRng;
    /// use rand::SeedableRng;
    ///
    /// let mut p = Params::table1();
    /// p.n = 200; p.l = 20; p.m = 30;
    /// let mut rng = SimRng::seed_from_u64(1);
    /// let assignment = CodeAssignment::generate(&p, &mut rng);
    /// let shared = assignment.shared_codes(0, 1);
    /// // Expected ~ m*(l-1)/(n-1) = 30*19/199 ~ 2.9 shared codes.
    /// assert!(shared.len() < 15);
    /// ```
    pub fn shared_codes(&self, u: usize, v: usize) -> Vec<CodeId> {
        let mut out = Vec::new();
        self.shared_codes_into(u, v, &mut out);
        out
    }

    /// The set of codes exposed by compromising the given nodes.
    pub fn compromised_codes<'a, I>(&self, compromised_nodes: I) -> HashSet<CodeId>
    where
        I: IntoIterator<Item = &'a usize>,
    {
        self.compromised_codes_sorted(compromised_nodes)
            .into_iter()
            .collect()
    }

    /// [`CodeAssignment::compromised_codes`] as an ascending vector without
    /// repeats, gathered through a bitset over code ids. The D-NDP drivers
    /// build their jammer from it: making and freeing the hash set on
    /// every seed instead made glibc trim and refault the heap top, about
    /// seven times the minor faults on a 20k-node run.
    pub(crate) fn compromised_codes_sorted<'a, I>(&self, compromised_nodes: I) -> Vec<CodeId>
    where
        I: IntoIterator<Item = &'a usize>,
    {
        let mut seen = vec![0u64; self.pool_size().div_ceil(64)];
        for &v in compromised_nodes {
            for c in self.codes_of(v) {
                seen[c.0 as usize / 64] |= 1u64 << (c.0 % 64);
            }
        }
        let mut out = Vec::with_capacity(seen.iter().map(|w| w.count_ones() as usize).sum());
        for (i, &word) in seen.iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                out.push(CodeId((i * 64) as u32 + bits.trailing_zeros()));
                bits &= bits - 1;
            }
        }
        out
    }

    /// Hands a virtual node's code set to a joining node, growing the
    /// assignment by one real node. Returns the new node's index, or
    /// `None` when no virtual slot remains (the authority must then run a
    /// fresh distribution round per Section V-A).
    pub fn admit_new_node(&mut self) -> Option<usize> {
        if self.n_virtual() == 0 {
            return None;
        }
        // The first virtual slot becomes real; its codes are already
        // assigned consistently in `holders`.
        let idx = self.n_real;
        self.n_real += 1;
        Some(idx)
    }
}

/// Bit `i` set iff `x[i] == y[i]`, for rows of at most 64 codes.
fn agreement(x: &[CodeId], y: &[CodeId]) -> u64 {
    x.iter()
        .zip(y)
        .enumerate()
        .fold(0, |mask, (i, (a, b))| mask | u64::from(a == b) << i)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn small_params() -> Params {
        let mut p = Params::table1();
        p.n = 120;
        p.l = 12;
        p.m = 25;
        p.q = 5;
        p
    }

    fn gen(p: &Params, seed: u64) -> CodeAssignment {
        let mut rng = SimRng::seed_from_u64(seed);
        CodeAssignment::generate(p, &mut rng)
    }

    #[test]
    fn every_node_gets_exactly_m_distinct_codes() {
        let p = small_params();
        let a = gen(&p, 1);
        for v in 0..a.n_real() + a.n_virtual() {
            let codes = a.codes_of(v);
            assert_eq!(codes.len(), p.m, "node {v}");
            let distinct: HashSet<_> = codes.iter().collect();
            assert_eq!(distinct.len(), p.m, "node {v} has duplicate codes");
        }
    }

    #[test]
    fn every_code_held_by_exactly_l_nodes_when_divisible() {
        let p = small_params(); // 120 / 12 = 10 partitions, no virtual nodes
        let a = gen(&p, 2);
        assert_eq!(a.n_virtual(), 0);
        assert_eq!(a.pool_size(), p.pool_size());
        for c in 0..a.pool_size() {
            assert_eq!(a.holders_of(CodeId(c as u32)).len(), p.l, "code {c}");
        }
    }

    #[test]
    fn virtual_nodes_cover_non_divisible_n() {
        let mut p = small_params();
        p.n = 115; // 115 = 12*10 - 5: five virtual nodes
        let a = gen(&p, 3);
        assert_eq!(a.n_real(), 115);
        assert_eq!(a.n_virtual(), 5);
        // Codes are held by at most l nodes, counting virtual ones exactly l.
        for c in 0..a.pool_size() {
            assert_eq!(a.holders_of(CodeId(c as u32)).len(), p.l);
        }
    }

    #[test]
    fn codes_of_and_holders_of_are_consistent() {
        let p = small_params();
        let a = gen(&p, 4);
        for v in 0..a.n_real() {
            for &c in a.codes_of(v) {
                assert!(a.holders_of(c).binary_search(&v).is_ok());
            }
        }
        for c in 0..a.pool_size() {
            for &v in a.holders_of(CodeId(c as u32)) {
                assert!(a.codes_of(v).binary_search(&CodeId(c as u32)).is_ok());
            }
        }
    }

    #[test]
    fn round_codes_come_from_round_band() {
        // Round i assigns codes w*i .. w*(i+1): each node gets exactly one
        // code from each band.
        let p = small_params();
        let a = gen(&p, 5);
        let w = p.partitions();
        for v in 0..p.n {
            for round in 0..p.m {
                let band = (w * round) as u32..(w * (round + 1)) as u32;
                let in_band = a.codes_of(v).iter().filter(|c| band.contains(&c.0)).count();
                assert_eq!(in_band, 1, "node {v} round {round}");
            }
        }
    }

    #[test]
    fn empirical_share_count_matches_eq1() {
        // Pr[x] = C(m,x) p^x (1-p)^(m-x), p = (l-1)/(n-1). Check the mean
        // m*p over many pairs.
        let p = small_params();
        let a = gen(&p, 6);
        let mut total_shared = 0usize;
        let mut pairs = 0usize;
        for u in 0..60 {
            for v in (u + 1)..60 {
                total_shared += a.shared_codes(u, v).len();
                pairs += 1;
            }
        }
        let mean = total_shared as f64 / pairs as f64;
        let expect = p.m as f64 * p.share_prob_per_round();
        // 60 choose 2 = 1770 pairs, each ~Binomial(25, 0.0924): allow 10%.
        assert!(
            (mean - expect).abs() / expect < 0.10,
            "mean {mean}, expect {expect}"
        );
    }

    #[test]
    fn compromise_exposes_exactly_member_codes() {
        let p = small_params();
        let a = gen(&p, 7);
        let compromised = vec![3usize, 17, 42];
        let codes = a.compromised_codes(&compromised);
        let mut expect = HashSet::new();
        for &v in &compromised {
            expect.extend(a.codes_of(v).iter().copied());
        }
        assert_eq!(codes, expect);
        // The drivers' sorted form: the same set, ascending, no repeats.
        let mut sorted: Vec<CodeId> = expect.iter().copied().collect();
        sorted.sort_unstable();
        assert_eq!(a.compromised_codes_sorted(&compromised), sorted);
        assert!(codes.len() <= 3 * p.m);
        assert!(
            codes.len() > 2 * p.m / 2,
            "overlap shouldn't collapse the set"
        );
    }

    #[test]
    fn admit_new_node_consumes_virtual_slots() {
        let mut p = small_params();
        p.n = 115;
        let mut a = gen(&p, 8);
        let mut admitted = Vec::new();
        while let Some(v) = a.admit_new_node() {
            admitted.push(v);
        }
        assert_eq!(admitted, vec![115, 116, 117, 118, 119]);
        assert_eq!(a.n_real(), 120);
        assert_eq!(a.n_virtual(), 0);
        assert!(a.admit_new_node().is_none());
        // The admitted node's codes are real assignments.
        assert_eq!(a.codes_of(115).len(), p.m);
    }

    #[test]
    fn derived_pool_is_secret_keyed_and_well_formed() {
        let pool = derive_code_pool(b"secret-1", 64, 256);
        assert_eq!(pool.len(), 64);
        // Distinct codes, near-orthogonal.
        for i in 0..8u32 {
            for j in (i + 1)..8 {
                let c = pool
                    .code(CodeId(i))
                    .chips()
                    .correlate(pool.code(CodeId(j)).chips())
                    .abs();
                assert!(c < 0.25, "|corr({i},{j})| = {c}");
            }
        }
        // A different secret yields a disjoint pool.
        let other = derive_code_pool(b"secret-2", 64, 256);
        assert_ne!(pool.code(CodeId(0)), other.code(CodeId(0)));
    }

    #[test]
    fn batched_pool_matches_scalar_reference() {
        // Lane-batched derivation must be byte-identical to the seed's
        // scalar per-code expansion, across full-lane and tail shapes.
        for s in [1usize, 7, 8, 9, 20] {
            let pool = derive_code_pool(b"pool-equivalence", s, 128);
            for i in 0..s {
                let bits = jrsnd_crypto::prf::reference::prf_expand_bits(
                    b"pool-equivalence",
                    b"jr-snd/code-pool",
                    &(i as u64).to_be_bytes(),
                    128,
                );
                assert_eq!(
                    pool.code(CodeId(i as u32)),
                    &SpreadCode::from_bits(&bits),
                    "s={s} code {i}"
                );
            }
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let p = small_params();
        let a = gen(&p, 9);
        let b = gen(&p, 9);
        for v in 0..p.n {
            assert_eq!(a.codes_of(v), b.codes_of(v));
        }
        let c = gen(&p, 10);
        let differs = (0..p.n).any(|v| a.codes_of(v) != c.codes_of(v));
        assert!(differs);
    }

    #[test]
    fn shared_codes_is_symmetric_intersection() {
        let p = small_params();
        let a = gen(&p, 11);
        for (u, v) in [(0, 1), (5, 80), (33, 99)] {
            let uv = a.shared_codes(u, v);
            let vu = a.shared_codes(v, u);
            assert_eq!(uv, vu);
            for c in &uv {
                assert!(a.codes_of(u).contains(c) && a.codes_of(v).contains(c));
            }
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use rand::SeedableRng;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]
        #[test]
        fn invariants_hold_for_arbitrary_shapes(
            n in 10usize..200,
            l in 2usize..30,
            m in 1usize..40,
            seed in 0u64..1000,
        ) {
            let mut p = Params::table1();
            p.n = n;
            p.l = l.min(n);
            if p.l < 2 { p.l = 2; }
            p.m = m;
            p.q = 0;
            let mut rng = SimRng::seed_from_u64(seed);
            let a = CodeAssignment::generate(&p, &mut rng);
            // Every real node: m distinct codes.
            for v in 0..a.n_real() {
                prop_assert_eq!(a.codes_of(v).len(), p.m);
            }
            // Every code: held by at most l nodes, at least 1.
            for c in 0..a.pool_size() {
                let h = a.holders_of(CodeId(c as u32)).len();
                prop_assert!(h >= 1 && h <= p.l, "code {} held by {}", c, h);
            }
            // Total assignments balance: (real+virtual)*m == sum holders.
            let total: usize = (0..a.pool_size())
                .map(|c| a.holders_of(CodeId(c as u32)).len())
                .sum();
            prop_assert_eq!(total, (a.n_real() + a.n_virtual()) * p.m);
        }

        #[test]
        fn positional_lookup_matches_sorted_merge(
            n in 2usize..200,
            l in 2usize..30,
            m in 1usize..40,
            seed in 0u64..1000,
            pairs in proptest::collection::vec((0usize..1000, 0usize..1000), 1..40),
        ) {
            let mut p = Params::table1();
            p.n = n;
            p.l = l.min(n);
            p.m = m;
            p.q = 0;
            let mut rng = SimRng::seed_from_u64(seed);
            let a = CodeAssignment::generate(&p, &mut rng);
            let total = a.n_real() + a.n_virtual();
            // Rows are sorted code sets and holder rows sorted node lists.
            for v in 0..total {
                prop_assert!(a.codes_of(v).windows(2).all(|w| w[0] < w[1]), "node {}", v);
            }
            for c in 0..a.pool_size() {
                let h = a.holders_of(CodeId(c as u32));
                prop_assert!(h.windows(2).all(|w| w[0] < w[1]), "code {}", c);
            }
            // Pairs over real and virtual nodes, against the sorted-merge
            // intersection the positional compare replaces.
            let mut buf = vec![CodeId(u32::MAX)];
            for (u, v) in pairs {
                let (u, v) = (u % total, v % total);
                let (x, y) = (a.codes_of(u), a.codes_of(v));
                let mut want = Vec::new();
                let (mut i, mut j) = (0, 0);
                while i < x.len() && j < y.len() {
                    match x[i].cmp(&y[j]) {
                        std::cmp::Ordering::Less => i += 1,
                        std::cmp::Ordering::Greater => j += 1,
                        std::cmp::Ordering::Equal => {
                            want.push(x[i]);
                            i += 1;
                            j += 1;
                        }
                    }
                }
                a.shared_codes_into(u, v, &mut buf);
                prop_assert_eq!(&buf, &want, "pair ({}, {})", u, v);
                // The round mask marks exactly the rounds of those codes.
                let mut mask = vec![u64::MAX; a.mask_words()];
                a.shared_rounds_into(u, v, &mut mask);
                let rounds: Vec<CodeId> = (0..p.m)
                    .filter(|&r| mask[r / 64] >> (r % 64) & 1 == 1)
                    .map(|r| x[r])
                    .collect();
                prop_assert_eq!(&rounds, &want, "pair ({}, {})", u, v);
                prop_assert_eq!(a.shared_codes(u, v), want);
            }
        }
    }
}
