//! The paper's (1+μ)-expansion message coding.
//!
//! Section V-B: a D-NDP message of `L = l_t + l_id` bits is ECC-encoded into
//! `l_h = (1+μ)·L` bits such that the result tolerates up to a fraction
//! `μ/(1+μ)` of bit errors *or losses* — so a jammer must hit at least
//! `μ·L` bits with the correct spread code to destroy it.
//!
//! [`ExpansionCode`] realises that contract with Reed–Solomon at byte
//! granularity: a message of `k` data bytes becomes `n = ⌈(1+μ)k⌉` coded
//! bytes per chunk, correcting `n − k` byte erasures — exactly the
//! `μ/(1+μ)` fraction. Long messages (M-NDP requests carry neighbour lists
//! and signatures) are chunked to fit RS(255, ·) and block-interleaved so a
//! contiguous jamming burst spreads evenly across chunks.
//!
//! Jammed chips manifest as *erasures* rather than errors in a DSSS
//! receiver: the correlator sees |correlation| below the threshold τ and
//! knows the bit is unreliable. Decoding therefore takes a per-bit erasure
//! map.
//!
//! # Kernel layout
//!
//! The per-frame path is word-oriented and allocation-free once warm:
//! bit↔byte conversion packs eight bits branchlessly per byte and emits
//! whole `u64` words ([`pack_bits_into`]/[`append_bits_from_bytes`]), the
//! per-bit erasure map collapses into a byte-granularity `u64` bitmask, and
//! chunks are RS-decoded *in place* inside a staging buffer instead of
//! being copied out per chunk. [`ExpansionScratch`] owns every buffer plus
//! the [`RsCode`] (cached per `(n, k)` shape, `ecc.scratch_reused` counts
//! the hits) and the [`RsScratch`], so steady-state Monte-Carlo frames
//! touch the allocator zero times — see
//! [`ExpansionCode::encode_bits_into`] / [`ExpansionCode::decode_bits_into`].
//! The original allocating pipeline is preserved in [`reference`](mod@reference) as the
//! equivalence oracle.

use crate::interleave::BlockInterleaver;
use crate::rs::{RsCode, RsError, RsScratch};
use jrsnd_sim::metric_counter;

/// Errors from the expansion codec.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExpandError {
    /// μ must be positive and finite.
    BadMu,
    /// The message is empty.
    EmptyMessage,
    /// Coded input length does not match the expected geometry.
    LengthMismatch {
        /// Expected number of coded bits.
        expected: usize,
        /// Got this many.
        got: usize,
    },
    /// Too many erasures/errors to recover the message.
    Unrecoverable,
}

impl std::fmt::Display for ExpandError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExpandError::BadMu => write!(f, "mu must be positive and finite"),
            ExpandError::EmptyMessage => write!(f, "message must be non-empty"),
            ExpandError::LengthMismatch { expected, got } => {
                write!(f, "expected {expected} coded bits, got {got}")
            }
            ExpandError::Unrecoverable => write!(f, "too many erasures or errors to recover"),
        }
    }
}

impl std::error::Error for ExpandError {}

impl From<RsError> for ExpandError {
    fn from(_: RsError) -> Self {
        ExpandError::Unrecoverable
    }
}

/// Geometry of one encoded message: chunk count and per-chunk RS shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Layout {
    /// Number of RS chunks.
    pub chunks: usize,
    /// Data bytes per chunk.
    pub k: usize,
    /// Coded bytes per chunk.
    pub n: usize,
}

impl Layout {
    /// Total coded bits.
    pub fn coded_bits(&self) -> usize {
        self.chunks * self.n * 8
    }
}

/// Reusable working memory for the expansion codec: staging buffers, the
/// byte-granularity erasure bitmask, the per-chunk erasure position list,
/// the [`RsScratch`], and a cached [`RsCode`] keyed by the `(n, k)` shape.
///
/// Construct once per transceiver and thread through
/// [`ExpansionCode::encode_bits_into`] / [`ExpansionCode::decode_bits_into`]:
/// after the first frame of a given shape, further frames perform **zero
/// heap allocations** (asserted by `tests/ecc_alloc.rs`). Reuse never
/// affects results — every buffer is fully overwritten per call.
#[derive(Debug, Default)]
pub struct ExpansionScratch {
    /// Packed message/coded bytes; doubles as the interleave output.
    packed: Vec<u8>,
    /// Chunk-major symbol staging; chunks are decoded in place here.
    staging: Vec<u8>,
    /// Byte-granularity erasure bitmask over the interleaved coded bytes.
    era_words: Vec<u64>,
    /// Erasure positions within the current chunk.
    era_pos: Vec<usize>,
    /// The RS code for the last-seen `(n, k)`, rebuilt only on shape change.
    rs_cache: Option<(usize, usize, RsCode)>,
    /// Reed–Solomon decoder working memory.
    rs_scratch: RsScratch,
}

impl ExpansionScratch {
    /// An empty scratch; buffers grow to steady-state size on first use.
    pub fn new() -> Self {
        Self::default()
    }
}

/// The cached-RS-code lookup, as a free function over the cache field so
/// callers can keep disjoint borrows of the other scratch fields.
fn cached_code(cache: &mut Option<(usize, usize, RsCode)>, n: usize, k: usize) -> &RsCode {
    if matches!(cache, Some((cn, ck, _)) if *cn == n && *ck == k) {
        metric_counter!("ecc.scratch_reused").inc();
    } else {
        *cache = Some((
            n,
            k,
            RsCode::new(n, k).expect("layout dimensions are valid"),
        ));
    }
    &cache.as_ref().expect("cache populated").2
}

/// The μ-expansion coder: rate `1/(1+μ)`, tolerating a `μ/(1+μ)` fraction
/// of byte erasures per chunk.
///
/// # Examples
///
/// ```
/// use jrsnd_ecc::expand::ExpansionCode;
///
/// let code = ExpansionCode::new(1.0).unwrap(); // the paper's default mu = 1
/// let msg: Vec<bool> = (0..21).map(|i| i % 3 == 0).collect(); // l_t + l_id bits
/// let coded = code.encode_bits(&msg).unwrap();
/// // Jam (erase) the entire second half: still decodable at mu = 1.
/// let mut erased = vec![false; coded.len()];
/// for e in erased.iter_mut().skip(coded.len() / 2) { *e = true; }
/// let back = code.decode_bits(&coded, &erased, msg.len()).unwrap();
/// assert_eq!(back, msg);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExpansionCode {
    mu: f64,
}

impl ExpansionCode {
    /// Creates a coder with expansion factor μ > 0.
    ///
    /// # Errors
    ///
    /// Returns [`ExpandError::BadMu`] unless `0 < mu` and finite.
    pub fn new(mu: f64) -> Result<Self, ExpandError> {
        if !(mu.is_finite() && mu > 0.0) {
            return Err(ExpandError::BadMu);
        }
        Ok(ExpansionCode { mu })
    }

    /// The expansion factor μ.
    pub fn mu(&self) -> f64 {
        self.mu
    }

    /// The erasure fraction each chunk tolerates, `μ/(1+μ)` (up to byte
    /// rounding in its favour).
    pub fn tolerable_fraction(&self) -> f64 {
        self.mu / (1.0 + self.mu)
    }

    /// Encoded length in bits for a message of `msg_bits` bits, i.e.
    /// `≈ (1+μ)·msg_bits` rounded up to whole RS chunks.
    ///
    /// # Errors
    ///
    /// Returns [`ExpandError::EmptyMessage`] when `msg_bits == 0`.
    pub fn layout(&self, msg_bits: usize) -> Result<Layout, ExpandError> {
        if msg_bits == 0 {
            return Err(ExpandError::EmptyMessage);
        }
        let total_k = msg_bits.div_ceil(8);
        // Pick the largest k per chunk such that n = ceil((1+mu)k) <= 255.
        let k_max = ((255.0 / (1.0 + self.mu)).floor() as usize).max(1);
        let chunks = total_k.div_ceil(k_max);
        let k = total_k.div_ceil(chunks);
        let n = (((1.0 + self.mu) * k as f64).ceil() as usize)
            .min(255)
            .max(k + 1);
        Ok(Layout { chunks, k, n })
    }

    /// Encodes a bit message into its jam-tolerant coded bit stream.
    ///
    /// Convenience wrapper over [`ExpansionCode::encode_bits_into`] with
    /// throwaway scratch; per-frame callers should hold an
    /// [`ExpansionScratch`] instead.
    ///
    /// # Errors
    ///
    /// Returns [`ExpandError::EmptyMessage`] for an empty message.
    pub fn encode_bits(&self, msg: &[bool]) -> Result<Vec<bool>, ExpandError> {
        let mut out = Vec::new();
        self.encode_bits_into(msg, &mut ExpansionScratch::new(), &mut out)?;
        Ok(out)
    }

    /// [`ExpansionCode::encode_bits`] into caller-owned buffers: `out` is
    /// cleared and filled with the coded bits; all intermediates live in
    /// `scratch`. Zero allocations once the buffers reached steady-state
    /// capacity for the message shape.
    ///
    /// # Errors
    ///
    /// Returns [`ExpandError::EmptyMessage`] for an empty message.
    pub fn encode_bits_into(
        &self,
        msg: &[bool],
        scratch: &mut ExpansionScratch,
        out: &mut Vec<bool>,
    ) -> Result<(), ExpandError> {
        let layout = self.layout(msg.len())?;
        let ExpansionScratch {
            packed,
            staging,
            rs_cache,
            ..
        } = scratch;
        pack_bits_into(msg, packed);
        packed.resize(layout.chunks * layout.k, 0);
        let rs = cached_code(rs_cache, layout.n, layout.k);
        staging.clear();
        staging.resize(layout.chunks * layout.n, 0);
        for ci in 0..layout.chunks {
            rs.encode_into(
                &packed[ci * layout.k..(ci + 1) * layout.k],
                &mut staging[ci * layout.n..(ci + 1) * layout.n],
            )
            .expect("chunk length matches k");
        }
        out.clear();
        if layout.chunks > 1 {
            let il = BlockInterleaver::new(layout.chunks, layout.n).expect("nonzero dims");
            packed.resize(layout.chunks * layout.n, 0);
            il.interleave_into(staging, packed)
                .expect("length is chunks*n");
            append_bits_from_bytes(packed, out);
        } else {
            append_bits_from_bytes(staging, out);
        }
        Ok(())
    }

    /// Decodes a coded bit stream given a per-bit erasure map, returning the
    /// original `msg_bits`-bit message.
    ///
    /// A coded byte counts as erased if *any* of its 8 bits is flagged.
    /// Non-flagged corrupted bits are handled as RS errors (each chunk
    /// corrects ν errors + e erasures while `2ν + e ≤ n − k`).
    ///
    /// Convenience wrapper over [`ExpansionCode::decode_bits_into`] with
    /// throwaway scratch.
    ///
    /// # Errors
    ///
    /// * [`ExpandError::LengthMismatch`] if `coded`/`erased` lengths don't
    ///   match the layout for `msg_bits`;
    /// * [`ExpandError::Unrecoverable`] when any chunk fails to decode.
    pub fn decode_bits(
        &self,
        coded: &[bool],
        erased: &[bool],
        msg_bits: usize,
    ) -> Result<Vec<bool>, ExpandError> {
        let mut out = Vec::new();
        self.decode_bits_into(
            coded,
            erased,
            msg_bits,
            &mut ExpansionScratch::new(),
            &mut out,
        )?;
        Ok(out)
    }

    /// [`ExpansionCode::decode_bits`] into caller-owned buffers — the
    /// allocation-free kernel. The erasure map is collapsed to a
    /// byte-granularity `u64` bitmask, symbols are deinterleaved once into
    /// the staging buffer, and each chunk is decoded **in place** there
    /// (via [`RsCode::decode_data_in_place`]) with its erasure positions
    /// read back through the interleaver permutation — no per-chunk copies.
    ///
    /// # Errors
    ///
    /// As [`ExpansionCode::decode_bits`].
    pub fn decode_bits_into(
        &self,
        coded: &[bool],
        erased: &[bool],
        msg_bits: usize,
        scratch: &mut ExpansionScratch,
        out: &mut Vec<bool>,
    ) -> Result<(), ExpandError> {
        let layout = self.layout(msg_bits)?;
        let expected = layout.coded_bits();
        if coded.len() != expected || erased.len() != expected {
            return Err(ExpandError::LengthMismatch {
                expected,
                got: if coded.len() != expected {
                    coded.len()
                } else {
                    erased.len()
                },
            });
        }
        let ExpansionScratch {
            packed,
            staging,
            era_words,
            era_pos,
            rs_cache,
            rs_scratch,
        } = scratch;
        pack_bits_into(coded, packed);
        let total = layout.chunks * layout.n;
        // Byte j of the interleaved stream is erased iff any of its 8 bits
        // is flagged; one bit per byte, packed into u64 words.
        era_words.clear();
        era_words.resize(total.div_ceil(64), 0);
        for (j, group) in erased.chunks(8).enumerate() {
            if group.iter().any(|&b| b) {
                era_words[j >> 6] |= 1 << (j & 63);
            }
        }
        let il = BlockInterleaver::new(layout.chunks, layout.n).expect("nonzero dims");
        if layout.chunks > 1 {
            staging.clear();
            staging.resize(total, 0);
            il.deinterleave_into(packed, staging)
                .expect("geometry checked");
        } else {
            std::mem::swap(packed, staging);
        }
        let rs = cached_code(rs_cache, layout.n, layout.k);
        out.clear();
        for ci in 0..layout.chunks {
            // Erasure positions within this chunk: deinterleaved position i
            // came from interleaved byte permute(ci*n + i).
            era_pos.clear();
            for i in 0..layout.n {
                let j = if layout.chunks > 1 {
                    il.permute(ci * layout.n + i)
                } else {
                    ci * layout.n + i
                };
                if era_words[j >> 6] >> (j & 63) & 1 == 1 {
                    era_pos.push(i);
                }
            }
            if era_pos.len() > layout.n - layout.k {
                return Err(ExpandError::Unrecoverable);
            }
            let chunk = &mut staging[ci * layout.n..(ci + 1) * layout.n];
            let data = rs.decode_data_in_place(chunk, era_pos, rs_scratch)?;
            append_bits_from_bytes(data, out);
        }
        out.truncate(msg_bits);
        Ok(())
    }
}

/// Packs bits (MSB-first within each byte) into `out` (cleared first),
/// zero-padding the final partial byte. The hot loop assembles eight bits
/// branchlessly per byte and writes eight bytes per `u64` word.
pub fn pack_bits_into(bits: &[bool], out: &mut Vec<u8>) {
    #[inline]
    fn pack8(c: &[bool]) -> u8 {
        (c[0] as u8) << 7
            | (c[1] as u8) << 6
            | (c[2] as u8) << 5
            | (c[3] as u8) << 4
            | (c[4] as u8) << 3
            | (c[5] as u8) << 2
            | (c[6] as u8) << 1
            | (c[7] as u8)
    }
    out.clear();
    out.reserve(bits.len().div_ceil(8));
    let mut words = bits.chunks_exact(64);
    for w in words.by_ref() {
        let mut acc = 0u64;
        for (g, byte_bits) in w.chunks_exact(8).enumerate() {
            acc |= u64::from(pack8(byte_bits)) << (56 - 8 * g);
        }
        out.extend_from_slice(&acc.to_be_bytes());
    }
    let mut bytes = words.remainder().chunks_exact(8);
    for c in bytes.by_ref() {
        out.push(pack8(c));
    }
    let rem = bytes.remainder();
    if !rem.is_empty() {
        let mut b = 0u8;
        for (i, &v) in rem.iter().enumerate() {
            b |= (v as u8) << (7 - i);
        }
        out.push(b);
    }
}

/// Appends each byte of `bytes` as 8 bits (MSB-first) to `out`.
pub fn append_bits_from_bytes(bytes: &[u8], out: &mut Vec<bool>) {
    out.reserve(bytes.len() * 8);
    for &b in bytes {
        out.push(b & 0x80 != 0);
        out.push(b & 0x40 != 0);
        out.push(b & 0x20 != 0);
        out.push(b & 0x10 != 0);
        out.push(b & 0x08 != 0);
        out.push(b & 0x04 != 0);
        out.push(b & 0x02 != 0);
        out.push(b & 0x01 != 0);
    }
}

/// Packs bits (MSB-first within each byte) into bytes, zero-padding the
/// final partial byte.
pub fn bits_to_bytes(bits: &[bool]) -> Vec<u8> {
    let mut out = Vec::new();
    pack_bits_into(bits, &mut out);
    out
}

/// Unpacks bytes into bits, MSB-first.
pub fn bytes_to_bits(bytes: &[u8]) -> Vec<bool> {
    let mut out = Vec::with_capacity(bytes.len() * 8);
    append_bits_from_bytes(bytes, &mut out);
    out
}

/// The original allocating expansion pipeline over the [`crate::rs::reference`]
/// Reed–Solomon oracle, kept for equivalence testing: the scratch-backed
/// kernels must produce byte-identical results (including error cases).
pub mod reference {
    use super::{ExpandError, ExpansionCode};
    use crate::interleave::BlockInterleaver;
    use crate::rs::{reference as rs_reference, RsCode};

    /// The original [`ExpansionCode::encode_bits`]: fresh vectors and
    /// polynomial-division RS encoding per chunk.
    ///
    /// # Errors
    ///
    /// As [`ExpansionCode::encode_bits`].
    pub fn encode_bits(code: &ExpansionCode, msg: &[bool]) -> Result<Vec<bool>, ExpandError> {
        let layout = code.layout(msg.len())?;
        let mut data = super::bits_to_bytes(msg);
        data.resize(layout.chunks * layout.k, 0);
        let rs = RsCode::new(layout.n, layout.k).expect("layout dimensions are valid");
        let mut symbols = Vec::with_capacity(layout.chunks * layout.n);
        for chunk in data.chunks(layout.k) {
            symbols.extend(rs_reference::encode(&rs, chunk).expect("chunk length matches k"));
        }
        let symbols = if layout.chunks > 1 {
            BlockInterleaver::new(layout.chunks, layout.n)
                .expect("nonzero dims")
                .interleave(&symbols)
                .expect("length is chunks*n")
        } else {
            symbols
        };
        Ok(super::bytes_to_bits(&symbols))
    }

    /// The original [`ExpansionCode::decode_bits`]: `Vec<bool>` erasure
    /// maps, allocating deinterleave, per-chunk copies, polynomial RS
    /// decoding.
    ///
    /// # Errors
    ///
    /// As [`ExpansionCode::decode_bits`].
    pub fn decode_bits(
        code: &ExpansionCode,
        coded: &[bool],
        erased: &[bool],
        msg_bits: usize,
    ) -> Result<Vec<bool>, ExpandError> {
        let layout = code.layout(msg_bits)?;
        let expected = layout.coded_bits();
        if coded.len() != expected || erased.len() != expected {
            return Err(ExpandError::LengthMismatch {
                expected,
                got: if coded.len() != expected {
                    coded.len()
                } else {
                    erased.len()
                },
            });
        }
        let symbols = super::bits_to_bytes(coded);
        let symbol_erased: Vec<bool> = erased.chunks(8).map(|c| c.iter().any(|&b| b)).collect();
        let (symbols, symbol_erased) = if layout.chunks > 1 {
            let il = BlockInterleaver::new(layout.chunks, layout.n).expect("nonzero dims");
            (
                il.deinterleave(&symbols).expect("geometry checked"),
                il.deinterleave(&symbol_erased).expect("geometry checked"),
            )
        } else {
            (symbols, symbol_erased)
        };
        let rs = RsCode::new(layout.n, layout.k).expect("layout dimensions are valid");
        let mut data = Vec::with_capacity(layout.chunks * layout.k);
        for ci in 0..layout.chunks {
            let mut chunk = symbols[ci * layout.n..(ci + 1) * layout.n].to_vec();
            let erasures: Vec<usize> = (0..layout.n)
                .filter(|&i| symbol_erased[ci * layout.n + i])
                .collect();
            if erasures.len() > layout.n - layout.k {
                return Err(ExpandError::Unrecoverable);
            }
            rs_reference::decode(&rs, &mut chunk, &erasures)?;
            data.extend_from_slice(&chunk[..layout.k]);
        }
        let mut bits = super::bytes_to_bits(&data);
        bits.truncate(msg_bits);
        Ok(bits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};

    fn msg(len: usize, seed: u64) -> Vec<bool> {
        let mut r = rand::rngs::StdRng::seed_from_u64(seed);
        (0..len).map(|_| r.gen()).collect()
    }

    #[test]
    fn bit_byte_round_trip() {
        let bits = msg(37, 1);
        let bytes = bits_to_bytes(&bits);
        let mut back = bytes_to_bits(&bytes);
        back.truncate(37);
        assert_eq!(back, bits);
        assert_eq!(bits_to_bytes(&[true]), vec![0x80]);
        assert!(bytes_to_bits(&[0x80])[0]);
    }

    #[test]
    fn packed_word_conversion_matches_naive() {
        // Cover the 64-bit word path, the 8-bit path, and the ragged tail.
        for len in [0, 1, 7, 8, 9, 63, 64, 65, 200, 1024, 1027] {
            let bits = msg(len, 40 + len as u64);
            let mut naive = vec![0u8; len.div_ceil(8)];
            for (i, &b) in bits.iter().enumerate() {
                if b {
                    naive[i / 8] |= 0x80 >> (i % 8);
                }
            }
            assert_eq!(bits_to_bytes(&bits), naive, "len {len}");
        }
    }

    #[test]
    fn clean_round_trip_various_sizes() {
        let code = ExpansionCode::new(1.0).unwrap();
        for len in [1, 7, 8, 21, 160, 500, 1072, 4096] {
            let m = msg(len, len as u64);
            let coded = code.encode_bits(&m).unwrap();
            let erased = vec![false; coded.len()];
            assert_eq!(
                code.decode_bits(&coded, &erased, len).unwrap(),
                m,
                "len {len}"
            );
        }
    }

    #[test]
    fn fast_path_matches_reference_clean_and_jammed() {
        let mut r = rand::rngs::StdRng::seed_from_u64(77);
        let mut scratch = ExpansionScratch::new();
        let mut coded_buf = Vec::new();
        let mut out_buf = Vec::new();
        for trial in 0..40u64 {
            let len = r.gen_range(1usize..1500);
            let mu = [0.5, 1.0, 2.0][r.gen_range(0usize..3)];
            let code = ExpansionCode::new(mu).unwrap();
            let m = msg(len, 3000 + trial);
            code.encode_bits_into(&m, &mut scratch, &mut coded_buf)
                .unwrap();
            let reference = reference::encode_bits(&code, &m).unwrap();
            assert_eq!(coded_buf, reference, "trial {trial}: encode diverged");
            // Corrupt a random mix of flagged erasures and silent flips.
            let mut coded = coded_buf.clone();
            let total = coded.len();
            let mut erased = vec![false; total];
            for i in 0..total {
                if r.gen_bool(0.25) {
                    erased[i] = true;
                    coded[i] = r.gen();
                } else if r.gen_bool(0.02) {
                    coded[i] = !coded[i];
                }
            }
            let fast = code.decode_bits_into(&coded, &erased, len, &mut scratch, &mut out_buf);
            let slow = reference::decode_bits(&code, &coded, &erased, len);
            match (fast, slow) {
                (Ok(()), Ok(s)) => assert_eq!(out_buf, s, "trial {trial}: decode diverged"),
                (f, s) => assert_eq!(f.err(), s.err(), "trial {trial}: errors diverged"),
            }
        }
    }

    #[test]
    fn scratch_reuse_never_changes_output() {
        let code = ExpansionCode::new(1.0).unwrap();
        let mut scratch = ExpansionScratch::new();
        let mut out = Vec::new();
        for trial in 0..20u64 {
            let len = 21 + (trial as usize * 53) % 1200;
            let m = msg(len, 500 + trial);
            code.encode_bits_into(&m, &mut scratch, &mut out).unwrap();
            assert_eq!(out, code.encode_bits(&m).unwrap(), "trial {trial}");
            // A contiguous 40% burst, safely under the mu = 1 budget.
            let mut erased = vec![false; out.len()];
            let burst = out.len() * 2 / 5;
            for e in erased.iter_mut().take(burst) {
                *e = true;
            }
            let coded = out.clone();
            let mut decoded = Vec::new();
            code.decode_bits_into(&coded, &erased, len, &mut scratch, &mut decoded)
                .unwrap();
            assert_eq!(
                decoded,
                code.decode_bits(&coded, &erased, len).unwrap(),
                "trial {trial}"
            );
            assert_eq!(decoded, m, "trial {trial}");
        }
    }

    #[test]
    fn layout_expansion_near_one_plus_mu() {
        for mu in [0.5, 1.0, 2.0] {
            let code = ExpansionCode::new(mu).unwrap();
            for bits in [21, 160, 1072] {
                let l = code.layout(bits).unwrap();
                let ratio = l.coded_bits() as f64 / bits as f64;
                assert!(
                    ratio >= 1.0 + mu - 0.01 && ratio <= (1.0 + mu) * 1.6,
                    "mu={mu}, bits={bits}, ratio={ratio}"
                );
            }
        }
    }

    #[test]
    fn survives_contiguous_jam_of_tolerable_fraction() {
        // A reactive jammer corrupts a contiguous suffix. At mu = 1 the code
        // must survive erasure of up to half the coded bits (minus a couple
        // of boundary symbols).
        let code = ExpansionCode::new(1.0).unwrap();
        for len in [21, 160, 1072] {
            let m = msg(len, 99 + len as u64);
            let mut coded = code.encode_bits(&m).unwrap();
            let total = coded.len();
            // Erase the last 45% (safely under mu/(1+mu) = 50% incl. byte
            // boundary slop).
            let burst = total * 45 / 100;
            let mut erased = vec![false; total];
            for i in (total - burst)..total {
                coded[i] = !coded[i];
                erased[i] = true;
            }
            let back = code.decode_bits(&coded, &erased, len).unwrap();
            assert_eq!(back, m, "len {len}");
        }
    }

    #[test]
    fn fails_beyond_tolerable_fraction() {
        let code = ExpansionCode::new(1.0).unwrap();
        let m = msg(160, 5);
        let mut coded = code.encode_bits(&m).unwrap();
        let total = coded.len();
        let mut erased = vec![false; total];
        // Erase 60% > 50%.
        for i in (total * 2 / 5)..total {
            coded[i] = !coded[i];
            erased[i] = true;
        }
        assert_eq!(
            code.decode_bits(&coded, &erased, 160),
            Err(ExpandError::Unrecoverable)
        );
    }

    #[test]
    fn corrects_unflagged_bit_errors_within_half_capacity() {
        let code = ExpansionCode::new(1.0).unwrap();
        let m = msg(160, 6);
        let coded = code.encode_bits(&m).unwrap();
        let layout = code.layout(160).unwrap();
        // Flip bits inside a few whole symbols (< (n-k)/2 per chunk).
        let budget = (layout.n - layout.k) / 2;
        let mut corrupted = coded.clone();
        for s in 0..budget.min(3) {
            let bit = s * 8 * (layout.chunks.max(1)) + 3;
            corrupted[bit] = !corrupted[bit];
        }
        let erased = vec![false; coded.len()];
        assert_eq!(code.decode_bits(&corrupted, &erased, 160).unwrap(), m);
    }

    #[test]
    fn random_scattered_erasures_within_budget() {
        let code = ExpansionCode::new(1.0).unwrap();
        let mut r = rand::rngs::StdRng::seed_from_u64(8);
        for trial in 0..20 {
            let len = 1072; // M-NDP-request sized
            let m = msg(len, 1000 + trial);
            let mut coded = code.encode_bits(&m).unwrap();
            let total = coded.len();
            let mut erased = vec![false; total];
            // Erase random 40% of bits.
            for i in 0..total {
                if r.gen_bool(0.40) {
                    erased[i] = true;
                    coded[i] = r.gen();
                }
            }
            match code.decode_bits(&coded, &erased, len) {
                Ok(back) => assert_eq!(back, m),
                Err(ExpandError::Unrecoverable) => {
                    // Random byte-aligned clustering can exceed a chunk's
                    // budget at 40%+; tolerate rare failures but not often.
                }
                Err(e) => panic!("unexpected {e:?}"),
            }
        }
    }

    #[test]
    fn parameter_validation() {
        assert_eq!(ExpansionCode::new(0.0).unwrap_err(), ExpandError::BadMu);
        assert_eq!(ExpansionCode::new(-1.0).unwrap_err(), ExpandError::BadMu);
        assert_eq!(
            ExpansionCode::new(f64::INFINITY).unwrap_err(),
            ExpandError::BadMu
        );
        let code = ExpansionCode::new(1.0).unwrap();
        assert_eq!(code.layout(0).unwrap_err(), ExpandError::EmptyMessage);
        assert!((code.tolerable_fraction() - 0.5).abs() < 1e-12);
        let coded = code.encode_bits(&[true; 21]).unwrap();
        assert!(matches!(
            code.decode_bits(&coded[1..], &vec![false; coded.len() - 1], 21),
            Err(ExpandError::LengthMismatch { .. })
        ));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]
        #[test]
        fn round_trip_with_burst_under_budget(
            len in 1usize..600,
            mu_tenths in 5u32..30,
            start_frac in 0.0f64..1.0,
        ) {
            let mu = f64::from(mu_tenths) / 10.0;
            let code = ExpansionCode::new(mu).unwrap();
            let layout = code.layout(len).unwrap();
            let m: Vec<bool> = (0..len).map(|i| i % 5 < 2).collect();
            let mut coded = code.encode_bits(&m).unwrap();
            let total = coded.len();
            // Guaranteed-recoverable burst, accounting for byte
            // granularity: a burst of B consecutive coded bytes touches at
            // most B+1 distinct bytes, and the interleaver spreads B+1
            // consecutive bytes over the chunks so each sees at most
            // ceil((B+1)/chunks) <= n-k erasures when
            // B = (n-k-1)*chunks.
            let burst_bytes = (layout.n - layout.k).saturating_sub(1) * layout.chunks;
            let burst = burst_bytes * 8;
            prop_assume!(burst > 0);
            let start = ((total - burst) as f64 * start_frac) as usize;
            let mut erased = vec![false; total];
            for i in start..start + burst {
                coded[i] = !coded[i];
                erased[i] = true;
            }
            let back = code.decode_bits(&coded, &erased, len).unwrap();
            prop_assert_eq!(back, m);
        }
    }
}
