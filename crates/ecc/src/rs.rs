//! A systematic Reed–Solomon codec over GF(2⁸) with errors-and-erasures
//! decoding.
//!
//! This is the "\[15\] Reed & Solomon 1960" code the paper cites for encoding
//! every D-NDP message. The decoding pipeline is classical:
//! syndromes → Forney syndromes (folding in known erasures) →
//! Berlekamp–Massey → Chien search → Forney magnitudes.
//!
//! A code `RS(n, k)` with `2t = n − k` parity symbols corrects any pattern
//! of ν errors and e erasures with `2ν + e ≤ 2t`.
//!
//! # Kernel layout
//!
//! The hot paths are **allocation-free and table-driven**:
//!
//! * [`RsCode::encode_into`] is an LFSR: one 256-entry multiply table per
//!   generator coefficient (built once in [`RsCode::new`]) turns each data
//!   symbol into `2t` XORs and lookups — no polynomial division, no per-block
//!   allocation.
//! * [`RsCode::decode_with`] threads a reusable [`RsScratch`] (fixed-size
//!   coefficient arrays bounded by the field size) through the whole
//!   pipeline. The Chien search keeps one incrementally-multiplied register
//!   per locator coefficient instead of re-evaluating the polynomial at all
//!   `n` positions, and the post-correction syndrome recheck is computed
//!   from the *correction delta* (one term per corrected symbol per
//!   syndrome) instead of re-evaluating all `n` received symbols.
//!
//! The original polynomial-arithmetic implementation is preserved verbatim
//! in [`reference`](mod@reference) as the equivalence oracle; `tests/ecc_equivalence.rs`
//! proves the kernels byte-identical to it, success and failure cases alike.

use crate::gf256::{mul_table, raw_tables, Gf256};
use crate::poly::Poly;
use jrsnd_sim::metric_counter;
use std::fmt;

/// Errors returned by the Reed–Solomon codec.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RsError {
    /// The corruption exceeded the code's correction capability.
    TooManyErrors,
    /// An erasure index was out of range or duplicated.
    BadErasure {
        /// The offending position.
        position: usize,
    },
    /// Input length does not match the code dimensions.
    LengthMismatch {
        /// Expected number of symbols.
        expected: usize,
        /// Number of symbols supplied.
        got: usize,
    },
}

impl fmt::Display for RsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RsError::TooManyErrors => write!(f, "corruption exceeds correction capability"),
            RsError::BadErasure { position } => {
                write!(f, "invalid or duplicate erasure position {position}")
            }
            RsError::LengthMismatch { expected, got } => {
                write!(f, "expected {expected} symbols, got {got}")
            }
        }
    }
}

impl std::error::Error for RsError {}

/// Coefficient arrays in the decoder are bounded by the field: `n ≤ 255`,
/// so every polynomial the pipeline touches has at most 256 coefficients.
const MAX_COEFFS: usize = 256;

/// Reusable decoder working memory: every polynomial and bitmap the
/// errors-and-erasures pipeline needs, as fixed-size arrays bounded by the
/// field size (≈ 2.3 KiB, no heap).
///
/// One scratch may be shared across any number of [`RsCode`] instances and
/// calls — [`RsCode::decode_with`] writes every cell it reads. Construct it
/// once per receiver and thread it through; [`RsCode::decode`] is a
/// convenience wrapper that builds one on the stack per call.
#[derive(Clone)]
pub struct RsScratch {
    /// Syndromes `S_j`, `2t` of them.
    synd: [u8; MAX_COEFFS],
    /// Running post-correction check: syndromes plus the correction delta.
    check: [u8; MAX_COEFFS],
    /// Forney syndromes (erasures folded in).
    fsynd: [u8; MAX_COEFFS],
    /// Erasure locator Γ(x).
    gamma: [u8; MAX_COEFFS],
    /// Error locator Λ(x) from Berlekamp–Massey.
    lambda: [u8; MAX_COEFFS],
    /// BM's previous locator B(x).
    prev: [u8; MAX_COEFFS],
    /// BM swap space, then the derivative Ψ'(x) during Forney.
    tmp: [u8; MAX_COEFFS],
    /// Combined locator Ψ(x) = Λ(x)·Γ(x).
    psi: [u8; MAX_COEFFS],
    /// Evaluator Ω(x) = S(x)·Ψ(x) mod x^{2t}.
    omega: [u8; MAX_COEFFS],
    /// Incremental Chien registers, one per Ψ coefficient.
    chien: [u8; MAX_COEFFS],
    /// Locator roots as transmitted positions (descending, as found).
    positions: [u8; MAX_COEFFS],
    /// Erasure-seen bitmap over the ≤ 255 codeword positions.
    seen: [u64; 4],
}

impl RsScratch {
    /// A zeroed scratch; contents never carry information between calls.
    pub fn new() -> Self {
        RsScratch {
            synd: [0; MAX_COEFFS],
            check: [0; MAX_COEFFS],
            fsynd: [0; MAX_COEFFS],
            gamma: [0; MAX_COEFFS],
            lambda: [0; MAX_COEFFS],
            prev: [0; MAX_COEFFS],
            tmp: [0; MAX_COEFFS],
            psi: [0; MAX_COEFFS],
            omega: [0; MAX_COEFFS],
            chien: [0; MAX_COEFFS],
            positions: [0; MAX_COEFFS],
            seen: [0; 4],
        }
    }
}

impl Default for RsScratch {
    fn default() -> Self {
        Self::new()
    }
}

impl fmt::Debug for RsScratch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // The arrays are working memory, not state worth printing.
        f.debug_struct("RsScratch").finish_non_exhaustive()
    }
}

/// `a · b` via the shared exp/log tables (with the usual zero guards).
#[inline]
fn gmul(exp: &[u8; 512], log: &[u8; 256], a: u8, b: u8) -> u8 {
    if a == 0 || b == 0 {
        0
    } else {
        exp[log[a as usize] as usize + log[b as usize] as usize]
    }
}

/// `a / b` for `b ≠ 0`.
#[inline]
fn gdiv(exp: &[u8; 512], log: &[u8; 256], a: u8, b: u8) -> u8 {
    if a == 0 {
        0
    } else {
        exp[log[a as usize] as usize + 255 - log[b as usize] as usize]
    }
}

/// Horner evaluation of `coeffs` (lowest degree first) at `x`.
#[inline]
fn geval(exp: &[u8; 512], log: &[u8; 256], coeffs: &[u8], x: u8) -> u8 {
    let mut acc = 0u8;
    for &c in coeffs.iter().rev() {
        acc = gmul(exp, log, acc, x) ^ c;
    }
    acc
}

/// A systematic `RS(n, k)` code over GF(2⁸); `n ≤ 255`.
///
/// Codewords are laid out `[data (k symbols) | parity (n − k symbols)]`.
///
/// # Examples
///
/// ```
/// use jrsnd_ecc::rs::RsCode;
///
/// let code = RsCode::new(20, 12).unwrap(); // corrects 4 errors / 8 erasures
/// let data = *b"hello jr-snd";
/// let mut cw = code.encode(&data).unwrap();
/// cw[0] ^= 0xAA; // flip a symbol
/// cw[7] ^= 0x55; // and another
/// let corrected = code.decode(&mut cw, &[]).unwrap();
/// assert_eq!(corrected, 2);
/// assert_eq!(&cw[..12], &data);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RsCode {
    n: usize,
    k: usize,
    /// Generator polynomial, kept for the [`reference`](mod@reference) oracle.
    generator: Poly,
    /// LFSR feedback tables: `enc_tables[j][fb] = g_{2t−1−j} · fb`, so the
    /// register update `reg[j] = reg[j+1] ^ enc_tables[j][fb]` is one XOR
    /// and one lookup per parity slot per data symbol.
    enc_tables: Vec<[u8; 256]>,
    /// Syndrome Horner tables: `synd_tables[j][s] = s · α^j`, so each
    /// received symbol updates syndrome `j` with one lookup and one XOR —
    /// branchless, and the `2t` accumulator chains are independent.
    synd_tables: Vec<[u8; 256]>,
    /// Chien step tables: `chien_tables[i][r] = r · α^{−i}` for register
    /// `i`, turning the per-step register update into one lookup.
    chien_tables: Vec<[u8; 256]>,
}

impl RsCode {
    /// Creates an `RS(n, k)` code.
    ///
    /// # Errors
    ///
    /// Returns [`RsError::LengthMismatch`] when the dimensions are invalid
    /// (`k == 0`, `n <= k`, or `n > 255`).
    pub fn new(n: usize, k: usize) -> Result<Self, RsError> {
        if k == 0 || n <= k || n > 255 {
            return Err(RsError::LengthMismatch {
                expected: n,
                got: k,
            });
        }
        // g(x) = prod_{i=0}^{2t-1} (x - alpha^i), first consecutive root alpha^0.
        let mut generator = Poly::one();
        for i in 0..(n - k) {
            let root = Gf256::alpha_pow(i);
            generator = generator.mul(&Poly::from_coeffs(vec![root, Gf256::ONE]));
        }
        let parity = n - k;
        let enc_tables = (0..parity)
            .map(|j| mul_table(generator.coeff(parity - 1 - j)))
            .collect();
        let synd_tables = (0..parity)
            .map(|j| mul_table(Gf256::alpha_pow(j)))
            .collect();
        // α^{−i} = α^{(255−i) mod 255}; i = 0 gives the identity table.
        let chien_tables = (0..=parity)
            .map(|i| mul_table(Gf256::alpha_pow((255 - i) % 255)))
            .collect();
        Ok(RsCode {
            n,
            k,
            generator,
            enc_tables,
            synd_tables,
            chien_tables,
        })
    }

    /// Codeword length in symbols.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Data length in symbols.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Number of parity symbols `2t = n − k`.
    pub fn parity(&self) -> usize {
        self.n - self.k
    }

    /// Maximum number of correctable errors `t` (with no erasures).
    pub fn t(&self) -> usize {
        (self.n - self.k) / 2
    }

    /// Polynomial coefficient index of transmitted position `p`:
    /// position 0 carries the highest-degree coefficient.
    #[inline]
    fn pos_to_exp(&self, p: usize) -> usize {
        self.n - 1 - p
    }

    /// Encodes `data` (exactly `k` bytes) into an `n`-byte codeword,
    /// `[data | parity]`.
    ///
    /// # Errors
    ///
    /// Returns [`RsError::LengthMismatch`] if `data.len() != k`.
    pub fn encode(&self, data: &[u8]) -> Result<Vec<u8>, RsError> {
        let mut out = vec![0u8; self.n];
        self.encode_into(data, &mut out)?;
        Ok(out)
    }

    /// Encodes `data` (exactly `k` bytes) into the caller-provided `n`-byte
    /// codeword buffer, `[data | parity]` — the allocation-free kernel
    /// behind [`RsCode::encode`].
    ///
    /// The parity slots of `out` double as the LFSR remainder register, so
    /// the whole encode is `k · 2t` XOR-plus-lookup steps and two
    /// `memcpy`-class writes.
    ///
    /// # Errors
    ///
    /// Returns [`RsError::LengthMismatch`] if `data.len() != k` or
    /// `out.len() != n`.
    pub fn encode_into(&self, data: &[u8], out: &mut [u8]) -> Result<(), RsError> {
        if data.len() != self.k {
            return Err(RsError::LengthMismatch {
                expected: self.k,
                got: data.len(),
            });
        }
        if out.len() != self.n {
            return Err(RsError::LengthMismatch {
                expected: self.n,
                got: out.len(),
            });
        }
        let parity = self.n - self.k;
        let (head, reg) = out.split_at_mut(self.k);
        head.copy_from_slice(data);
        reg.fill(0);
        let tables = &self.enc_tables[..];
        for &d in data {
            let fb = (d ^ reg[0]) as usize;
            for j in 0..parity - 1 {
                reg[j] = reg[j + 1] ^ tables[j][fb];
            }
            reg[parity - 1] = tables[parity - 1][fb];
        }
        metric_counter!("ecc.blocks_encoded").inc();
        Ok(())
    }

    /// Computes the `2t` syndromes into `synd`; returns whether all are
    /// zero. Horner with `α^j` is one table-add per nonzero accumulator.
    fn syndromes_into(&self, received: &[u8], synd: &mut [u8]) -> bool {
        let parity = self.n - self.k;
        let synd = &mut synd[..parity];
        synd.fill(0);
        // Symbol-major Horner: the 2t accumulator chains are independent,
        // so the table lookups pipeline instead of serialising per chain.
        for &b in received {
            for (s, t) in synd.iter_mut().zip(&self.synd_tables) {
                *s = t[*s as usize] ^ b;
            }
        }
        synd.iter().all(|&s| s == 0)
    }

    /// Decodes in place, correcting errors and the given `erasures`
    /// (transmitted positions). Returns the number of symbols corrected.
    ///
    /// Convenience wrapper over [`RsCode::decode_with`] with a stack-local
    /// [`RsScratch`]; hot paths should hold a scratch and call
    /// [`RsCode::decode_with`] directly.
    ///
    /// # Errors
    ///
    /// * [`RsError::LengthMismatch`] if `received.len() != n`;
    /// * [`RsError::BadErasure`] for out-of-range or duplicate erasures;
    /// * [`RsError::TooManyErrors`] when `2ν + e > 2t` or the locator is
    ///   inconsistent with the syndromes.
    pub fn decode(&self, received: &mut [u8], erasures: &[usize]) -> Result<usize, RsError> {
        self.decode_with(received, erasures, &mut RsScratch::new())
    }

    /// [`RsCode::decode`] with caller-provided working memory: zero heap
    /// allocations, table-driven throughout.
    ///
    /// The post-correction integrity check does **not** re-evaluate all `n`
    /// symbols: the syndromes are linear in the received word, so the check
    /// folds each applied correction `e_p` into the original syndromes as
    /// `S_j ← S_j + e_p·(α^j)^{n−1−p}` and verifies the result vanishes —
    /// `O(corrections · 2t)` instead of `O(n · 2t)`, and identical in value
    /// to the full recheck. In the erasures-only case this is exactly the
    /// "magnitudes already zeroed the syndromes incrementally" fast path.
    ///
    /// # Errors
    ///
    /// As [`RsCode::decode`].
    pub fn decode_with(
        &self,
        received: &mut [u8],
        erasures: &[usize],
        scratch: &mut RsScratch,
    ) -> Result<usize, RsError> {
        if received.len() != self.n {
            return Err(RsError::LengthMismatch {
                expected: self.n,
                got: received.len(),
            });
        }
        let parity = self.n - self.k;
        scratch.seen = [0u64; 4];
        for &e in erasures {
            if e >= self.n || scratch.seen[e >> 6] >> (e & 63) & 1 == 1 {
                return Err(RsError::BadErasure { position: e });
            }
            scratch.seen[e >> 6] |= 1 << (e & 63);
        }
        if erasures.len() > parity {
            return Err(RsError::TooManyErrors);
        }

        if self.syndromes_into(received, &mut scratch.synd) {
            metric_counter!("ecc.blocks_decoded").inc();
            return Ok(0);
        }
        let (exp, log) = raw_tables();

        // Erasure locator Gamma(x) = prod (1 - X_e x), built in place.
        scratch.gamma[0] = 1;
        let mut glen = 1usize;
        for &e in erasures {
            let xe = exp[self.pos_to_exp(e) % 255];
            scratch.gamma[glen] = 0;
            for i in (1..=glen).rev() {
                scratch.gamma[i] ^= gmul(exp, log, xe, scratch.gamma[i - 1]);
            }
            glen += 1;
        }

        // Forney syndromes: (S(x) * Gamma(x)) mod x^{2t}, dropping the first
        // e coefficients.
        let e_count = erasures.len();
        let flen = parity - e_count;
        for i in 0..flen {
            let c = i + e_count;
            let bmax = c.min(glen - 1);
            let mut acc = 0u8;
            for b in 0..=bmax {
                // S has exactly `parity` coefficients and c < parity.
                acc ^= gmul(exp, log, scratch.synd[c - b], scratch.gamma[b]);
            }
            scratch.fsynd[i] = acc;
        }

        // Error locator from Berlekamp-Massey on the Forney syndromes.
        let llen = berlekamp_massey(
            exp,
            log,
            &scratch.fsynd[..flen],
            &mut scratch.lambda,
            &mut scratch.prev,
            &mut scratch.tmp,
        );
        let nu = llen - 1;
        if 2 * nu + e_count > parity {
            return Err(RsError::TooManyErrors);
        }

        // Combined locator Psi = Lambda * Gamma (degree <= 2t here).
        let mut psilen = llen + glen - 1;
        for c in scratch.psi.iter_mut().take(psilen) {
            *c = 0;
        }
        for i in 0..llen {
            let a = scratch.lambda[i];
            if a == 0 {
                continue;
            }
            for j in 0..glen {
                scratch.psi[i + j] ^= gmul(exp, log, a, scratch.gamma[j]);
            }
        }
        while psilen > 0 && scratch.psi[psilen - 1] == 0 {
            psilen -= 1;
        }
        let psi_deg = psilen.saturating_sub(1);

        // Evaluator Omega = (S * Psi) mod x^{2t}.
        for i in 0..parity {
            let bmax = i.min(psilen.saturating_sub(1));
            let mut acc = 0u8;
            for b in 0..=bmax {
                acc ^= gmul(exp, log, scratch.synd[i - b], scratch.psi[b]);
            }
            scratch.omega[i] = acc;
        }

        // Incremental Chien search: register i starts at Psi_i and is
        // multiplied by alpha^{-i} each step, so step s holds the terms of
        // Psi(alpha^{-s}) and the sum never re-evaluates the polynomial.
        // Step s corresponds to transmitted position p = n-1-s.
        scratch.chien[..psilen].copy_from_slice(&scratch.psi[..psilen]);
        let mut found = 0usize;
        for s in 0..self.n {
            let mut val = 0u8;
            for &r in &scratch.chien[..psilen] {
                val ^= r;
            }
            if val == 0 {
                scratch.positions[found] = (self.n - 1 - s) as u8;
                found += 1;
            }
            for (r, t) in scratch.chien[..psilen].iter_mut().zip(&self.chien_tables) {
                *r = t[*r as usize];
            }
        }
        if found != psi_deg {
            // Locator roots missing from the position range: uncorrectable.
            return Err(RsError::TooManyErrors);
        }

        // Forney magnitudes: e_p = X_p * Omega(X_p^{-1}) / Psi'(X_p^{-1}).
        // In characteristic 2 the formal derivative keeps odd coefficients:
        // Psi'(x) = sum_{i odd} Psi_i x^{i-1}.
        let dlen = psilen.saturating_sub(1);
        for i in 0..dlen {
            scratch.tmp[i] = if i % 2 == 0 { scratch.psi[i + 1] } else { 0 };
        }
        // The check syndromes start as the originals and absorb each
        // correction's delta; they must vanish exactly when the full
        // recheck would.
        scratch.check[..parity].copy_from_slice(&scratch.synd[..parity]);
        // Positions were recorded with p descending; apply ascending to
        // mirror the reference pipeline exactly (including the state a
        // mid-loop failure leaves behind).
        for idx in (0..found).rev() {
            let p = scratch.positions[idx] as usize;
            let le = self.pos_to_exp(p); // < 255, the log of X_p
            let x = exp[le];
            let x_inv = exp[255 - le];
            let denom = geval(exp, log, &scratch.tmp[..dlen], x_inv);
            if denom == 0 {
                return Err(RsError::TooManyErrors);
            }
            let num = geval(exp, log, &scratch.omega[..parity], x_inv);
            let mag = gmul(exp, log, x, gdiv(exp, log, num, denom));
            received[p] ^= mag;
            if mag != 0 {
                let lm = log[mag as usize] as usize;
                let mut a = 0usize; // (j * le) mod 255, built incrementally
                for c in scratch.check.iter_mut().take(parity) {
                    *c ^= exp[lm + a];
                    a += le;
                    if a >= 255 {
                        a -= 255;
                    }
                }
            }
        }

        // Delta recheck: all (updated) syndromes must now vanish.
        if scratch.check[..parity].iter().any(|&c| c != 0) {
            return Err(RsError::TooManyErrors);
        }
        metric_counter!("ecc.blocks_decoded").inc();
        metric_counter!("ecc.symbols_corrected").add(found as u64);
        Ok(found)
    }

    /// Decodes `received` in place and returns just the data symbols as a
    /// slice of it — the zero-copy variant behind [`RsCode::decode_to_data`]
    /// (the expansion codec decodes chunks directly inside its staging
    /// buffer instead of copying each block out and back).
    ///
    /// # Errors
    ///
    /// As [`RsCode::decode`].
    pub fn decode_data_in_place<'a>(
        &self,
        received: &'a mut [u8],
        erasures: &[usize],
        scratch: &mut RsScratch,
    ) -> Result<&'a [u8], RsError> {
        self.decode_with(received, erasures, scratch)?;
        Ok(&received[..self.k])
    }

    /// Decodes and returns just the data symbols.
    ///
    /// # Errors
    ///
    /// Propagates the errors of [`RsCode::decode`].
    pub fn decode_to_data(&self, received: &[u8], erasures: &[usize]) -> Result<Vec<u8>, RsError> {
        let mut buf = received.to_vec();
        self.decode(&mut buf, erasures)?;
        buf.truncate(self.k);
        Ok(buf)
    }

    /// Whether `word` is a valid codeword (all syndromes zero).
    pub fn is_codeword(&self, word: &[u8]) -> bool {
        let mut synd = [0u8; MAX_COEFFS];
        word.len() == self.n && self.syndromes_into(word, &mut synd)
    }
}

/// Berlekamp–Massey over (Forney) syndromes on raw coefficient arrays.
///
/// `lambda`/`prev`/`tmp` are caller-provided working arrays; returns the
/// coefficient count of the trimmed locator (`degree + 1`). Mirrors the
/// [`reference`](mod@reference) implementation branch for branch.
fn berlekamp_massey(
    exp: &[u8; 512],
    log: &[u8; 256],
    fsynd: &[u8],
    lambda: &mut [u8; MAX_COEFFS],
    prev: &mut [u8; MAX_COEFFS],
    tmp: &mut [u8; MAX_COEFFS],
) -> usize {
    lambda[0] = 1;
    let mut llen = 1usize;
    prev[0] = 1;
    let mut plen = 1usize;
    let mut l = 0usize;
    let mut m = 1usize;
    let mut prev_disc = 1u8;
    for nn in 0..fsynd.len() {
        let mut d = fsynd[nn];
        for i in 1..=l.min(nn) {
            if i < llen {
                d ^= gmul(exp, log, lambda[i], fsynd[nn - i]);
            }
        }
        if d == 0 {
            m += 1;
            continue;
        }
        let factor = gdiv(exp, log, d, prev_disc);
        if 2 * l <= nn {
            tmp[..llen].copy_from_slice(&lambda[..llen]);
            let tlen = llen;
            llen = add_scaled_shifted(exp, log, lambda, llen, prev, plen, m, factor);
            l = nn + 1 - l;
            prev[..tlen].copy_from_slice(&tmp[..tlen]);
            plen = tlen;
            prev_disc = d;
            m = 1;
        } else {
            llen = add_scaled_shifted(exp, log, lambda, llen, prev, plen, m, factor);
            m += 1;
        }
    }
    llen
}

/// `lambda += factor · prev · x^shift`, trimming trailing zeros; returns
/// the new coefficient count (always ≥ 1: the constant term stays 1).
#[allow(clippy::too_many_arguments)]
fn add_scaled_shifted(
    exp: &[u8; 512],
    log: &[u8; 256],
    lambda: &mut [u8; MAX_COEFFS],
    llen: usize,
    prev: &[u8; MAX_COEFFS],
    plen: usize,
    shift: usize,
    factor: u8,
) -> usize {
    let new_len = llen.max(plen + shift);
    for c in lambda.iter_mut().take(new_len).skip(llen) {
        *c = 0;
    }
    for i in 0..plen {
        lambda[i + shift] ^= gmul(exp, log, factor, prev[i]);
    }
    let mut len = new_len;
    while len > 0 && lambda[len - 1] == 0 {
        len -= 1;
    }
    len
}

/// The original polynomial-arithmetic codec, kept as the equivalence
/// oracle for the table-driven kernels (the PR 1/3 pattern: every fast
/// path ships with the slow implementation it must match byte for byte).
pub mod reference {
    use super::{Gf256, Poly, RsCode, RsError};

    fn syndromes(code: &RsCode, received: &[u8]) -> Vec<Gf256> {
        (0..code.parity())
            .map(|j| {
                let aj = Gf256::alpha_pow(j);
                let mut acc = Gf256::ZERO;
                // Horner over descending positions: c(x) evaluated at alpha^j.
                for &b in received {
                    acc = acc * aj + Gf256::new(b);
                }
                acc
            })
            .collect()
    }

    /// Berlekamp–Massey over (Forney) syndromes; returns the error locator.
    fn berlekamp_massey(synd: &[Gf256]) -> Poly {
        let mut lambda = Poly::one();
        let mut prev = Poly::one();
        let mut l = 0usize;
        let mut m = 1usize;
        let mut prev_disc = Gf256::ONE;
        for nn in 0..synd.len() {
            let mut d = synd[nn];
            for i in 1..=l.min(nn) {
                d += lambda.coeff(i) * synd[nn - i];
            }
            if d.is_zero() {
                m += 1;
            } else if 2 * l <= nn {
                let t = lambda.clone();
                let factor = d * prev_disc.inverse().expect("prev discrepancy nonzero");
                lambda = lambda.add(&prev.shift(m).scale(factor));
                l = nn + 1 - l;
                prev = t;
                prev_disc = d;
                m = 1;
            } else {
                let factor = d * prev_disc.inverse().expect("prev discrepancy nonzero");
                lambda = lambda.add(&prev.shift(m).scale(factor));
                m += 1;
            }
        }
        lambda
    }

    /// Polynomial-division systematic encode (the original
    /// [`RsCode::encode`]).
    ///
    /// # Errors
    ///
    /// Returns [`RsError::LengthMismatch`] if `data.len() != k`.
    pub fn encode(code: &RsCode, data: &[u8]) -> Result<Vec<u8>, RsError> {
        if data.len() != code.k {
            return Err(RsError::LengthMismatch {
                expected: code.k,
                got: data.len(),
            });
        }
        // m(x) * x^{2t} with data[0] as the highest-degree coefficient.
        let mut coeffs = vec![Gf256::ZERO; code.n];
        for (p, &b) in data.iter().enumerate() {
            coeffs[code.pos_to_exp(p)] = Gf256::new(b);
        }
        let shifted = Poly::from_coeffs(coeffs);
        let (_, rem) = shifted.div_rem(&code.generator);
        let mut out = Vec::with_capacity(code.n);
        out.extend_from_slice(data);
        // Parity at positions k..n, i.e. exponents 2t-1 down to 0.
        for p in code.k..code.n {
            out.push(rem.coeff(code.pos_to_exp(p)).value());
        }
        Ok(out)
    }

    /// Polynomial-pipeline errors-and-erasures decode (the original
    /// [`RsCode::decode`]).
    ///
    /// # Errors
    ///
    /// As [`RsCode::decode`].
    pub fn decode(
        code: &RsCode,
        received: &mut [u8],
        erasures: &[usize],
    ) -> Result<usize, RsError> {
        if received.len() != code.n {
            return Err(RsError::LengthMismatch {
                expected: code.n,
                got: received.len(),
            });
        }
        let mut seen = vec![false; code.n];
        for &e in erasures {
            if e >= code.n || seen[e] {
                return Err(RsError::BadErasure { position: e });
            }
            seen[e] = true;
        }
        if erasures.len() > code.parity() {
            return Err(RsError::TooManyErrors);
        }

        let synd = syndromes(code, received);
        if synd.iter().all(|s| s.is_zero()) {
            return Ok(0);
        }

        // Erasure locator Gamma(x) = prod (1 - X_e x).
        let mut gamma = Poly::one();
        for &e in erasures {
            let x_e = Gf256::alpha_pow(code.pos_to_exp(e));
            gamma = gamma.mul(&Poly::from_coeffs(vec![Gf256::ONE, x_e]));
        }

        // Forney syndromes: (S(x) * Gamma(x)) mod x^{2t}, dropping the first
        // e coefficients.
        let s_poly = Poly::from_coeffs(synd.clone());
        let prod = s_poly.mul(&gamma);
        let fsynd: Vec<Gf256> = (erasures.len()..code.parity())
            .map(|i| prod.coeff(i))
            .collect();

        // Error locator from BM on the Forney syndromes.
        let lambda = berlekamp_massey(&fsynd);
        let nu = lambda.degree().unwrap_or(0);
        if 2 * nu + erasures.len() > code.parity() {
            return Err(RsError::TooManyErrors);
        }

        // Combined locator and evaluator.
        let psi = lambda.mul(&gamma);
        let omega_full = s_poly.mul(&psi);
        let omega = Poly::from_coeffs((0..code.parity()).map(|i| omega_full.coeff(i)).collect());

        // Chien search over all transmitted positions.
        let mut positions = Vec::new();
        for p in 0..code.n {
            let x_inv = Gf256::alpha_pow(code.pos_to_exp(p))
                .inverse()
                .expect("alpha powers are nonzero");
            if psi.eval(x_inv).is_zero() {
                positions.push(p);
            }
        }
        let psi_deg = psi.degree().unwrap_or(0);
        if positions.len() != psi_deg {
            // Locator roots missing from the position range: uncorrectable.
            return Err(RsError::TooManyErrors);
        }

        // Forney magnitudes: e_p = X_p * Omega(X_p^{-1}) / Psi'(X_p^{-1}).
        let psi_der = psi.derivative();
        for &p in &positions {
            let x = Gf256::alpha_pow(code.pos_to_exp(p));
            let x_inv = x.inverse().expect("nonzero");
            let denom = psi_der.eval(x_inv);
            if denom.is_zero() {
                return Err(RsError::TooManyErrors);
            }
            let mag = x * omega.eval(x_inv) / denom;
            received[p] ^= mag.value();
        }

        // Re-check: all syndromes must now vanish.
        if syndromes(code, received).iter().any(|s| !s.is_zero()) {
            return Err(RsError::TooManyErrors);
        }
        Ok(positions.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};

    fn rng(seed: u64) -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(seed)
    }

    #[test]
    fn invalid_dimensions_rejected() {
        assert!(RsCode::new(10, 0).is_err());
        assert!(RsCode::new(10, 10).is_err());
        assert!(RsCode::new(256, 100).is_err());
        assert!(RsCode::new(255, 223).is_ok());
    }

    #[test]
    fn encode_is_systematic_and_valid() {
        let code = RsCode::new(15, 9).unwrap();
        let data: Vec<u8> = (0..9).collect();
        let cw = code.encode(&data).unwrap();
        assert_eq!(cw.len(), 15);
        assert_eq!(&cw[..9], &data[..]);
        assert!(code.is_codeword(&cw));
    }

    #[test]
    fn lfsr_encode_matches_reference_across_shapes() {
        let mut r = rng(7);
        for (n, k) in [(2usize, 1usize), (12, 6), (31, 19), (255, 223), (255, 1)] {
            let code = RsCode::new(n, k).unwrap();
            for _ in 0..20 {
                let data: Vec<u8> = (0..k).map(|_| r.gen()).collect();
                assert_eq!(
                    code.encode(&data).unwrap(),
                    reference::encode(&code, &data).unwrap(),
                    "RS({n},{k})"
                );
            }
        }
    }

    #[test]
    fn fast_decode_matches_reference_on_mixed_corruption() {
        let code = RsCode::new(32, 20).unwrap(); // 2t = 12
        let mut r = rng(8);
        let mut scratch = RsScratch::new();
        for trial in 0..200 {
            let data: Vec<u8> = (0..20).map(|_| r.gen()).collect();
            let clean = code.encode(&data).unwrap();
            // Sometimes beyond capacity on purpose.
            let nu = r.gen_range(0..=8);
            let e = r.gen_range(0..=8.min(32 - nu));
            let mut positions: Vec<usize> = (0..32).collect();
            for i in 0..(nu + e) {
                let j = r.gen_range(i..32);
                positions.swap(i, j);
            }
            let mut cw = clean.clone();
            for &p in &positions[..nu] {
                cw[p] ^= r.gen_range(1..=255u8);
            }
            for &p in &positions[nu..nu + e] {
                cw[p] = r.gen();
            }
            let era = &positions[nu..nu + e];
            let mut fast = cw.clone();
            let mut slow = cw.clone();
            let fr = code.decode_with(&mut fast, era, &mut scratch);
            let sr = reference::decode(&code, &mut slow, era);
            assert_eq!(fr, sr, "trial {trial}: nu={nu} e={e}");
            assert_eq!(fast, slow, "trial {trial}: buffers diverged");
        }
    }

    #[test]
    fn clean_codeword_decodes_with_zero_corrections() {
        let code = RsCode::new(20, 12).unwrap();
        let data: Vec<u8> = (100..112).collect();
        let mut cw = code.encode(&data).unwrap();
        assert_eq!(code.decode(&mut cw, &[]).unwrap(), 0);
        assert_eq!(&cw[..12], &data[..]);
    }

    #[test]
    fn corrects_up_to_t_errors() {
        let code = RsCode::new(31, 19).unwrap(); // t = 6
        let mut r = rng(1);
        for trial in 0..50 {
            let data: Vec<u8> = (0..19).map(|_| r.gen()).collect();
            let clean = code.encode(&data).unwrap();
            for nerr in 0..=6 {
                let mut cw = clean.clone();
                let mut positions: Vec<usize> = (0..31).collect();
                for i in 0..nerr {
                    let j = r.gen_range(i..31);
                    positions.swap(i, j);
                }
                for &p in &positions[..nerr] {
                    let flip = r.gen_range(1..=255u8);
                    cw[p] ^= flip;
                }
                let fixed = code.decode(&mut cw, &[]).unwrap();
                assert_eq!(&cw[..19], &data[..], "trial {trial}, {nerr} errors");
                assert_eq!(fixed, nerr);
            }
        }
    }

    #[test]
    fn corrects_up_to_2t_erasures() {
        let code = RsCode::new(24, 12).unwrap(); // 2t = 12 erasures
        let mut r = rng(2);
        for _ in 0..50 {
            let data: Vec<u8> = (0..12).map(|_| r.gen()).collect();
            let clean = code.encode(&data).unwrap();
            let ne = r.gen_range(0..=12);
            let mut positions: Vec<usize> = (0..24).collect();
            for i in 0..ne {
                let j = r.gen_range(i..24);
                positions.swap(i, j);
            }
            let erasures: Vec<usize> = positions[..ne].to_vec();
            let mut cw = clean.clone();
            for &p in &erasures {
                cw[p] = r.gen(); // arbitrary garbage at erased positions
            }
            code.decode(&mut cw, &erasures).unwrap();
            assert_eq!(&cw[..12], &data[..]);
        }
    }

    #[test]
    fn corrects_mixed_errors_and_erasures() {
        let code = RsCode::new(32, 20).unwrap(); // 2t = 12
        let mut r = rng(3);
        for _ in 0..100 {
            let data: Vec<u8> = (0..20).map(|_| r.gen()).collect();
            let clean = code.encode(&data).unwrap();
            // Pick nu errors + e erasures with 2nu + e <= 12.
            let nu = r.gen_range(0..=6);
            let e_max = 12 - 2 * nu;
            let e = r.gen_range(0..=e_max);
            let mut positions: Vec<usize> = (0..32).collect();
            for i in 0..(nu + e) {
                let j = r.gen_range(i..32);
                positions.swap(i, j);
            }
            let err_pos = &positions[..nu];
            let era_pos = &positions[nu..nu + e];
            let mut cw = clean.clone();
            for &p in err_pos {
                cw[p] ^= r.gen_range(1..=255u8);
            }
            for &p in era_pos {
                cw[p] = r.gen();
            }
            code.decode(&mut cw, era_pos).unwrap();
            assert_eq!(&cw[..20], &data[..], "nu={nu}, e={e}");
        }
    }

    #[test]
    fn beyond_capacity_is_detected_not_miscorrected_mostly() {
        // With > t errors decoding must either error out or (rarely) land on
        // a different codeword; it must never return Ok with a non-codeword.
        let code = RsCode::new(20, 14).unwrap(); // t = 3
        let mut r = rng(4);
        let mut failures = 0;
        for _ in 0..200 {
            let data: Vec<u8> = (0..14).map(|_| r.gen()).collect();
            let mut cw = code.encode(&data).unwrap();
            // 5 errors > t = 3.
            let mut positions: Vec<usize> = (0..20).collect();
            for i in 0..5 {
                let j = r.gen_range(i..20);
                positions.swap(i, j);
            }
            for &p in &positions[..5] {
                cw[p] ^= r.gen_range(1..=255u8);
            }
            match code.decode(&mut cw, &[]) {
                Err(RsError::TooManyErrors) => failures += 1,
                Ok(_) => assert!(code.is_codeword(&cw)),
                Err(e) => panic!("unexpected error {e:?}"),
            }
        }
        assert!(failures > 150, "only {failures}/200 detected");
    }

    #[test]
    fn erasure_validation() {
        let code = RsCode::new(10, 6).unwrap();
        let mut cw = code.encode(&[0; 6]).unwrap();
        assert_eq!(
            code.decode(&mut cw.clone(), &[10]),
            Err(RsError::BadErasure { position: 10 })
        );
        assert_eq!(
            code.decode(&mut cw.clone(), &[3, 3]),
            Err(RsError::BadErasure { position: 3 })
        );
        assert_eq!(
            code.decode(&mut cw, &[0, 1, 2, 3, 4]),
            Err(RsError::TooManyErrors)
        );
    }

    #[test]
    fn wrong_lengths_rejected() {
        let code = RsCode::new(10, 6).unwrap();
        assert!(matches!(
            code.encode(&[0; 5]),
            Err(RsError::LengthMismatch {
                expected: 6,
                got: 5
            })
        ));
        let mut short = vec![0u8; 9];
        assert!(matches!(
            code.decode(&mut short, &[]),
            Err(RsError::LengthMismatch {
                expected: 10,
                got: 9
            })
        ));
        let mut small = [0u8; 9];
        assert!(matches!(
            code.encode_into(&[0; 6], &mut small),
            Err(RsError::LengthMismatch {
                expected: 10,
                got: 9
            })
        ));
    }

    #[test]
    fn decode_to_data_strips_parity() {
        let code = RsCode::new(12, 5).unwrap();
        let data = [9, 8, 7, 6, 5];
        let mut cw = code.encode(&data).unwrap();
        cw[2] ^= 0xF0;
        let out = code.decode_to_data(&cw, &[]).unwrap();
        assert_eq!(out, data);
    }

    #[test]
    fn decode_data_in_place_returns_data_slice() {
        let code = RsCode::new(12, 5).unwrap();
        let data = [9, 8, 7, 6, 5];
        let mut cw = code.encode(&data).unwrap();
        cw[2] ^= 0xF0;
        cw[9] ^= 0x0F;
        let mut scratch = RsScratch::new();
        let out = code
            .decode_data_in_place(&mut cw, &[], &mut scratch)
            .unwrap();
        assert_eq!(out, data);
    }

    #[test]
    fn scratch_reuse_is_invisible() {
        // The same scratch threaded through wildly different codes and
        // corruption patterns must never change any outcome.
        let mut r = rng(9);
        let mut scratch = RsScratch::new();
        for trial in 0..60 {
            let k = r.gen_range(1usize..60);
            let parity = r.gen_range(2usize..20);
            let n = k + parity;
            if n > 255 {
                continue;
            }
            let code = RsCode::new(n, k).unwrap();
            let data: Vec<u8> = (0..k).map(|_| r.gen()).collect();
            let mut cw = code.encode(&data).unwrap();
            let nerr = r.gen_range(0..=parity / 2);
            for i in 0..nerr {
                cw[(i * 3) % n] ^= r.gen_range(1..=255u8);
            }
            let mut with_fresh = cw.clone();
            let mut with_reused = cw.clone();
            let fresh = code.decode_with(&mut with_fresh, &[], &mut RsScratch::new());
            let reused = code.decode_with(&mut with_reused, &[], &mut scratch);
            assert_eq!(fresh, reused, "trial {trial}");
            assert_eq!(with_fresh, with_reused, "trial {trial}");
        }
    }

    #[test]
    fn paper_scale_rate_half_code() {
        // The D-NDP HELLO with mu = 1: l_h = 2 * (l_t + l_id) = 42 bits.
        // At byte granularity: 6 data bytes -> RS(12, 6), correcting 6
        // erasures = half the codeword, i.e. mu/(1+mu) of the bits.
        let code = RsCode::new(12, 6).unwrap();
        let data = *b"HELLO!";
        let cw = code.encode(&data).unwrap();
        let mut corrupted = cw.clone();
        let erasures = [0usize, 2, 4, 6, 8, 10];
        for &p in &erasures {
            corrupted[p] = 0xFF;
        }
        let out = code.decode_to_data(&corrupted, &erasures).unwrap();
        assert_eq!(out, data);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn decode_inverts_encode_under_capacity(
            seed in 0u64..10_000,
            k in 1usize..40,
            parity in 2usize..16,
            data in proptest::collection::vec(0u8..=255, 40),
        ) {
            use rand::{Rng, SeedableRng};
            let n = k + parity;
            prop_assume!(n <= 255);
            let code = RsCode::new(n, k).unwrap();
            let data = &data[..k];
            let clean = code.encode(data).unwrap();
            let mut r = rand::rngs::StdRng::seed_from_u64(seed);
            let nu = r.gen_range(0..=parity / 2);
            let e = r.gen_range(0..=(parity - 2 * nu));
            let mut positions: Vec<usize> = (0..n).collect();
            for i in 0..(nu + e) {
                let j = r.gen_range(i..n);
                positions.swap(i, j);
            }
            let mut cw = clean.clone();
            for &p in &positions[..nu] {
                cw[p] ^= r.gen_range(1..=255u8);
            }
            for &p in &positions[nu..nu + e] {
                cw[p] = r.gen();
            }
            code.decode(&mut cw, &positions[nu..nu + e]).unwrap();
            prop_assert_eq!(&cw[..k], data);
        }
    }
}
