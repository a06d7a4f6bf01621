//! The wire codec: every protocol frame, in both wire formats, over one
//! word-packed bitstream.
//!
//! Section V-B frames each D-NDP message in Table-I fixed-width fields —
//! `HELLO`/`CONFIRM` = `[type(l_t) | ID(l_id)]` and
//! `AUTH` = `[ID(l_id) | nonce(l_n) | f_K(ID|n) truncated to l_mac]` —
//! and M-NDP requests/responses carry growing signature chains. This
//! module encodes all of them into one little-endian packed bitstream
//! over `u64` words:
//!
//! * [`PackedBits`] — an append-only bit buffer backed by `Vec<u64>`,
//!   with word-granular writes (one push per field, not per bit) and an
//!   unaligned [`PackedBits::word_at`] read mirroring the chip layer's
//!   `ChipSeq::word_at`.
//! * [`BitCursor`] — a borrowing reader over the same words; parsing a
//!   frame never materialises an intermediate `Vec<bool>` and never
//!   allocates (chain entries excepted — the decoded struct owns them).
//!
//! Each message has one encoder into [`PackedBits`] and one parser over a
//! [`BitCursor`], and both take the [`WireFormat`]. The two formats share
//! field order and differ only in how each field is coded:
//!
//! | field | [`WireFormat::Legacy`] (Table I) | [`WireFormat::Packed`] |
//! |---|---|---|
//! | kind, id, ν | `l_t`, `l_id`, `l_ν` bits MSB-first | varint |
//! | chain length, neighbor count | 8 and 16 bits MSB-first | varint |
//! | nonce, MAC | `l_n`, `l_mac` bits MSB-first | `l_n`, `l_mac` bits LSB-first |
//! | signature | signer + 256-bit tag, zero-padded to `l_sig` | signer varint + 256-bit tag |
//! | after the last field | ignored | TLV extensions, skipped |
//!
//! Legacy frames are bit-identical to the paper's layout and to the
//! `Vec<bool>` oracle in [`crate::messages::reference`]. In both formats
//! the MAC is one `u64` ([`truncated_tag_value`], so `l_mac <= 64`),
//! verified with an integer compare.
//!
//! **Varints** code integers in little-endian groups of 4 payload bits
//! plus 1 continuation bit, so a node id of 1 costs 5 bits on air instead
//! of the fixed `l_id = 16`. **TLV extensions** (`tag = field_id << 1 |
//! wire_type`) may trail every packed frame; parsers consume the required
//! fields in order and then *skip* any extension they do not know, so a
//! v1 parser survives frames from future senders (counted by the
//! `wire.unknown_fields_skipped` metric).
//!
//! # Frame layouts
//!
//! ```text
//! HELLO/CONFIRM  [kind][id]
//! AUTH           [id][n: l_n bits][mac: l_mac bits]
//! signature      [signer][tag: 256 bits]            (Legacy: padded to l_sig)
//! M-NDP request  [source][n: l_n bits][nu][hops][entry]*
//!                with entry = [id][count][neighbor]*[signature]
//! M-NDP response [source][responder][n: l_n bits][nu][hops][entry]*
//! ```
//!
//! Frame boundaries come from the radio driver (it always knows the coded
//! length it despread), so extension skipping runs "until end of frame".
//!
//! # Versioning policy
//!
//! The required-field prefix of each frame is frozen: changing it is a
//! format break and must ship as a new [`WireFormat`] variant. New
//! optional fields are appended as TLV extensions — old parsers skip
//! them, which the fuzz and golden-vector suites pin down. The committed
//! `tests/vectors/*.bin` files are the normative byte-level reference;
//! CI regenerates and diffs them so the format cannot drift silently.
//!
//! `Legacy` stays the default everywhere; the packed format is opt-in per
//! driver via [`WireFormat`]. This module is the only place that decides
//! between them.

use crate::messages::{ChainEntry, MessageKind, MndpRequest, MndpResponse, WireConfig, WireError};
use jrsnd_crypto::ibc::{IbSignature, NodeId};
use jrsnd_crypto::mac::AuthTag;
use jrsnd_crypto::nonce::Nonce;
use jrsnd_sim::metric_counter;

/// Which wire format a driver frames its messages in.
///
/// `Legacy` is the default everywhere — every experiment output is
/// byte-identical to the paper's Table-I frames. `Packed` switches the
/// whole datapath (endpoints, chip driver, batch engine) to varint/TLV
/// frames.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WireFormat {
    /// Table I's fixed-width MSB-first fields.
    #[default]
    Legacy,
    /// Varint integers and trailing TLV extensions.
    Packed,
}

/// Largest stack-parsed frame in bits: HELLO/CONFIRM/AUTH frames are all
/// far smaller, and the endpoint helpers reject anything bigger instead
/// of spilling to the heap.
const STACK_FRAME_BITS: usize = 512;
/// Stack words backing [`STACK_FRAME_BITS`].
const STACK_FRAME_WORDS: usize = STACK_FRAME_BITS / 64;

/// Parse caps for attacker-controlled counts: a corrupt varint must not
/// translate into an unbounded allocation.
const MAX_CHAIN_ENTRIES: u64 = 4096;
/// Cap on per-entry neighbor-list length, same rationale.
const MAX_NEIGHBORS: u64 = 65536;

/// Legacy widths of the chain-length and neighbor-count fields.
const LEGACY_CHAIN_BITS: usize = 8;
const LEGACY_COUNT_BITS: usize = 16;
/// Bits of an identity-based signature's tag.
const TAG_BITS: usize = 256;

// ---------------------------------------------------------------------
// PackedBits: the append-only word-packed bit buffer.
// ---------------------------------------------------------------------

/// A little-endian packed bitstream over `u64` words.
///
/// Bit `i` of the stream is bit `i % 64` of word `i / 64`. The buffer is
/// append-only between [`PackedBits::clear`] calls and is designed to be
/// pooled: `clear` keeps the word capacity, so a warm encode makes no
/// allocations.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PackedBits {
    words: Vec<u64>,
    len: usize,
}

impl PackedBits {
    /// An empty buffer.
    pub fn new() -> Self {
        PackedBits::default()
    }

    /// An empty buffer with room for `bits` bits.
    pub fn with_capacity(bits: usize) -> Self {
        PackedBits {
            words: Vec::with_capacity(bits.div_ceil(64)),
            len: 0,
        }
    }

    /// Length in bits.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the stream holds no bits.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Resets to empty, keeping the allocation.
    pub fn clear(&mut self) {
        self.words.clear();
        self.len = 0;
    }

    /// The backing words (the last word's high bits beyond `len` are 0).
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Current word capacity — used by the scratch-reuse accounting.
    pub fn word_capacity(&self) -> usize {
        self.words.capacity()
    }

    /// Appends the low `width` bits of `value` (`width <= 64`).
    pub fn push(&mut self, value: u64, width: usize) {
        debug_assert!(width <= 64);
        if width == 0 {
            return;
        }
        let value = if width == 64 {
            value
        } else {
            value & ((1u64 << width) - 1)
        };
        let off = self.len % 64;
        if off == 0 {
            self.words.push(value);
        } else {
            *self.words.last_mut().expect("off > 0 implies a word") |= value << off;
            if off + width > 64 {
                self.words.push(value >> (64 - off));
            }
        }
        self.len += width;
    }

    /// Appends one bit.
    pub fn push_bit(&mut self, bit: bool) {
        self.push(u64::from(bit), 1);
    }

    /// Appends `bits` zero bits, a word at a time.
    fn push_zeros(&mut self, mut bits: usize) {
        while bits > 0 {
            let width = bits.min(64);
            self.push(0, width);
            bits -= width;
        }
    }

    /// Appends `v` as a varint: little-endian groups of 4 payload bits,
    /// each followed by 1 continuation bit.
    pub fn push_varint(&mut self, mut v: u64) {
        loop {
            let payload = v & 0xF;
            v >>= 4;
            let more = u64::from(v != 0);
            self.push(payload | (more << 4), 5);
            if more == 0 {
                return;
            }
        }
    }

    /// Appends a `bool` slice, packing 64 bits per word write instead of
    /// one push per bit — the word-parallel bridge from the despread bit
    /// buffer into the packed domain.
    pub fn extend_from_bools(&mut self, bits: &[bool]) {
        for chunk in bits.chunks(64) {
            self.push(pack_word(chunk), chunk.len());
        }
    }

    /// 64 stream bits starting at `bit`, low bit first — the unaligned
    /// read mirroring `ChipSeq::word_at` in the chip layer. Bits past the
    /// end read as 0.
    pub fn word_at(&self, bit: usize) -> u64 {
        word_at(&self.words, bit)
    }

    /// Bit `i` of the stream.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    pub fn bit(&self, i: usize) -> bool {
        assert!(i < self.len, "bit index {i} out of range {}", self.len);
        (self.words[i / 64] >> (i % 64)) & 1 == 1
    }

    /// Unpacks into `out` (cleared first) as one `bool` per bit.
    pub fn write_bools_into(&self, out: &mut Vec<bool>) {
        out.clear();
        out.reserve(self.len);
        for (w, &word) in self.words.iter().enumerate() {
            let take = (self.len - w * 64).min(64);
            for i in 0..take {
                out.push((word >> i) & 1 == 1);
            }
        }
    }

    /// The stream as little-endian bytes, `ceil(len/8)` of them — the
    /// golden-vector serialisation.
    pub fn to_bytes(&self) -> Vec<u8> {
        (0..self.len.div_ceil(8))
            .map(|i| (self.word_at(i * 8) & 0xFF) as u8)
            .collect()
    }

    /// Rebuilds a stream of `len` bits from its [`PackedBits::to_bytes`]
    /// form.
    ///
    /// # Errors
    ///
    /// [`WireError::Truncated`] if `bytes` holds fewer than `len` bits.
    pub fn from_bytes(bytes: &[u8], len: usize) -> Result<Self, WireError> {
        if bytes.len() * 8 < len {
            return Err(WireError::Truncated);
        }
        let mut out = PackedBits::with_capacity(len);
        for (i, &b) in bytes.iter().enumerate() {
            let take = (len - (i * 8).min(len)).min(8);
            if take == 0 {
                break;
            }
            out.push(u64::from(b), take);
        }
        Ok(out)
    }
}

/// Packs up to 64 `bool`s into one word, first bool in the low bit.
fn pack_word(bits: &[bool]) -> u64 {
    bits.iter()
        .enumerate()
        .fold(0, |w, (i, &b)| w | u64::from(b) << i)
}

/// Unaligned 64-bit read at bit offset `bit` over `words` (low bit
/// first; out-of-range bits are 0).
fn word_at(words: &[u64], bit: usize) -> u64 {
    let q = bit / 64;
    let sh = bit % 64;
    let lo = words.get(q).copied().unwrap_or(0) >> sh;
    if sh == 0 {
        lo
    } else {
        lo | words.get(q + 1).copied().unwrap_or(0) << (64 - sh)
    }
}

/// Bits a varint encoding of `v` occupies.
pub fn varint_bits(v: u64) -> usize {
    let groups = if v == 0 {
        1
    } else {
        (67 - v.leading_zeros() as usize) / 4
    };
    groups * 5
}

// ---------------------------------------------------------------------
// BitCursor: the borrowing zero-copy reader.
// ---------------------------------------------------------------------

/// A borrowing reader over a packed bitstream.
///
/// Reads are word-parallel unaligned loads (see [`PackedBits::word_at`]);
/// no intermediate buffers, no allocation.
#[derive(Debug, Clone)]
pub struct BitCursor<'a> {
    words: &'a [u64],
    len: usize,
    pos: usize,
}

impl<'a> BitCursor<'a> {
    /// A cursor over a whole [`PackedBits`] stream.
    pub fn new(bits: &'a PackedBits) -> Self {
        BitCursor {
            words: &bits.words,
            len: bits.len,
            pos: 0,
        }
    }

    /// A cursor over `len` bits of raw words (e.g. a stack array).
    pub fn from_words(words: &'a [u64], len: usize) -> Self {
        debug_assert!(len <= words.len() * 64);
        BitCursor { words, len, pos: 0 }
    }

    /// Bits left to read.
    pub fn remaining(&self) -> usize {
        self.len - self.pos
    }

    /// Whether the cursor consumed the whole stream.
    pub fn at_end(&self) -> bool {
        self.pos == self.len
    }

    /// Reads the next `width` bits (`width <= 64`) as an integer, low
    /// stream bit = low result bit.
    ///
    /// # Errors
    ///
    /// [`WireError::Truncated`] when fewer than `width` bits remain.
    pub fn read(&mut self, width: usize) -> Result<u64, WireError> {
        debug_assert!(width <= 64);
        if width > self.len - self.pos {
            return Err(WireError::Truncated);
        }
        if width == 0 {
            return Ok(0);
        }
        let v = word_at(self.words, self.pos);
        self.pos += width;
        Ok(if width == 64 {
            v
        } else {
            v & ((1u64 << width) - 1)
        })
    }

    /// Reads a varint (see [`PackedBits::push_varint`]).
    ///
    /// # Errors
    ///
    /// [`WireError::Truncated`] on a short stream,
    /// [`WireError::FieldOverflow`] on an encoding longer than 64 payload
    /// bits.
    pub fn read_varint(&mut self) -> Result<u64, WireError> {
        let mut v = 0u64;
        let mut shift = 0usize;
        loop {
            let group = self.read(5)?;
            if shift >= 64 {
                return Err(WireError::FieldOverflow { field: "varint" });
            }
            v |= (group & 0xF) << shift;
            if group & 0x10 == 0 {
                return Ok(v);
            }
            shift += 4;
        }
    }

    /// Skips `width` bits.
    ///
    /// # Errors
    ///
    /// [`WireError::Truncated`] when fewer than `width` bits remain.
    pub fn skip(&mut self, width: usize) -> Result<(), WireError> {
        if width > self.len - self.pos {
            return Err(WireError::Truncated);
        }
        self.pos += width;
        Ok(())
    }
}

// ---------------------------------------------------------------------
// TLV extensions.
// ---------------------------------------------------------------------

/// Appends an unknown-to-us integer extension field (wire type 0):
/// `tag = field_id << 1 | 0`, then the value as a varint. Used to model
/// future senders in tests.
pub fn append_extension_varint(out: &mut PackedBits, field_id: u64, value: u64) {
    debug_assert!(field_id < 1 << 62);
    out.push_varint(field_id << 1);
    out.push_varint(value);
}

/// Appends a bit-string extension field (wire type 1):
/// `tag = field_id << 1 | 1`, a varint bit length, then the raw bits.
pub fn append_extension_bits(out: &mut PackedBits, field_id: u64, bits: &[bool]) {
    debug_assert!(field_id < 1 << 62);
    out.push_varint((field_id << 1) | 1);
    out.push_varint(bits.len() as u64);
    out.extend_from_bools(bits);
}

/// Consumes every remaining TLV extension field, counting each into the
/// `wire.unknown_fields_skipped` metric. Frame boundaries come from the
/// driver, so "until the cursor ends" is exactly "until end of frame".
fn skip_extensions(cur: &mut BitCursor<'_>) -> Result<(), WireError> {
    while !cur.at_end() {
        let tag = cur.read_varint()?;
        if tag & 1 == 0 {
            cur.read_varint()?;
        } else {
            let n = cur.read_varint()?;
            let n = usize::try_from(n).map_err(|_| WireError::Truncated)?;
            cur.skip(n)?;
        }
        metric_counter!("wire.unknown_fields_skipped").inc();
    }
    Ok(())
}

// ---------------------------------------------------------------------
// The per-field coders: the only place the two formats differ.
// ---------------------------------------------------------------------

fn check_width(value: u64, width: usize, field: &'static str) -> Result<(), WireError> {
    if width < 64 && value >> width != 0 {
        return Err(WireError::FieldOverflow { field });
    }
    Ok(())
}

/// The low `width` bits of `v` in reverse order (`width <= 64`): turns an
/// MSB-first field into stream order and back.
fn reversed(v: u64, width: usize) -> u64 {
    if width == 0 {
        0
    } else {
        v.reverse_bits() >> (64 - width)
    }
}

/// One format's field coders over one set of Table-I widths.
#[derive(Clone, Copy)]
struct Schema<'c> {
    cfg: &'c WireConfig,
    format: WireFormat,
}

impl Schema<'_> {
    fn legacy(self) -> bool {
        self.format == WireFormat::Legacy
    }

    /// A fixed-width field of at most 64 bits: MSB-first in `Legacy`,
    /// LSB-first in `Packed`.
    fn put_fixed(
        self,
        out: &mut PackedBits,
        v: u64,
        width: usize,
        field: &'static str,
    ) -> Result<(), WireError> {
        if width > 64 {
            return Err(WireError::FieldOverflow { field });
        }
        out.push(if self.legacy() { reversed(v, width) } else { v }, width);
        Ok(())
    }

    fn get_fixed(
        self,
        cur: &mut BitCursor<'_>,
        width: usize,
        field: &'static str,
    ) -> Result<u64, WireError> {
        if width > 64 {
            return Err(WireError::FieldOverflow { field });
        }
        let v = cur.read(width)?;
        Ok(if self.legacy() { reversed(v, width) } else { v })
    }

    /// An integer field: its Table-I `width` in `Legacy` (which it must
    /// fit), a varint in `Packed`.
    fn put_int(
        self,
        out: &mut PackedBits,
        v: u64,
        width: usize,
        field: &'static str,
    ) -> Result<(), WireError> {
        if self.legacy() {
            check_width(v, width, field)?;
            self.put_fixed(out, v, width, field)
        } else {
            out.push_varint(v);
            Ok(())
        }
    }

    fn get_int(
        self,
        cur: &mut BitCursor<'_>,
        width: usize,
        field: &'static str,
    ) -> Result<u64, WireError> {
        if self.legacy() {
            self.get_fixed(cur, width, field)
        } else {
            cur.read_varint()
        }
    }

    /// Bits [`Schema::put_int`] spends on `v`.
    fn int_bits(self, v: u64, width: usize) -> usize {
        if self.legacy() {
            width
        } else {
            varint_bits(v)
        }
    }

    fn put_id(self, out: &mut PackedBits, id: NodeId) -> Result<(), WireError> {
        let v = u64::from(id.0);
        check_width(v, self.cfg.l_id, "id")?;
        self.put_int(out, v, self.cfg.l_id, "id")
    }

    fn get_id(self, cur: &mut BitCursor<'_>) -> Result<NodeId, WireError> {
        let v = self.get_int(cur, self.cfg.l_id, "id")?;
        check_width(v, self.cfg.l_id.min(32), "id")?;
        Ok(NodeId(v as u32))
    }

    fn put_nonce(self, out: &mut PackedBits, nonce: Nonce) -> Result<(), WireError> {
        let v = u64::from(nonce.value());
        check_width(v, self.cfg.l_n, "nonce")?;
        self.put_fixed(out, v, self.cfg.l_n, "nonce")
    }

    fn get_nonce(self, cur: &mut BitCursor<'_>) -> Result<Nonce, WireError> {
        if self.cfg.l_n > 32 {
            return Err(WireError::FieldOverflow { field: "l_n" });
        }
        Ok(Nonce::from_value(
            self.get_fixed(cur, self.cfg.l_n, "l_n")? as u32
        ))
    }

    /// Zero bits padding a `Legacy` signature to `l_sig`; `None` when
    /// `l_sig` cannot hold the signer and tag.
    fn signature_pad(self) -> Option<usize> {
        if self.legacy() {
            self.cfg.l_sig.checked_sub(self.cfg.l_id + TAG_BITS)
        } else {
            Some(0)
        }
    }

    /// The signer, then the tag as four words of bytes in order, each
    /// byte in the format's bit order, then the `Legacy` pad.
    fn put_signature(self, out: &mut PackedBits, sig: &IbSignature) -> Result<(), WireError> {
        let pad = self
            .signature_pad()
            .ok_or(WireError::FieldOverflow { field: "l_sig" })?;
        self.put_id(out, sig.signer())?;
        for chunk in sig.tag().chunks(8) {
            let bytes: [u8; 8] = chunk.try_into().expect("8-byte chunk");
            let word = if self.legacy() {
                u64::from_be_bytes(bytes)
            } else {
                u64::from_le_bytes(bytes)
            };
            self.put_fixed(out, word, 64, "tag")?;
        }
        out.push_zeros(pad);
        Ok(())
    }

    fn get_signature(self, cur: &mut BitCursor<'_>) -> Result<IbSignature, WireError> {
        if self.legacy() && cur.remaining() < self.cfg.l_sig {
            return Err(WireError::Truncated);
        }
        let pad = self.signature_pad().ok_or(WireError::Truncated)?;
        let signer = self.get_id(cur)?;
        let mut tag = [0u8; 32];
        for chunk in tag.chunks_mut(8) {
            let word = self.get_fixed(cur, 64, "tag")?;
            chunk.copy_from_slice(&if self.legacy() {
                word.to_be_bytes()
            } else {
                word.to_le_bytes()
            });
        }
        cur.skip(pad)?;
        Ok(IbSignature::from_parts(signer, tag))
    }

    fn put_chain(self, out: &mut PackedBits, chain: &[ChainEntry]) -> Result<(), WireError> {
        self.put_int(out, chain.len() as u64, LEGACY_CHAIN_BITS, "chain")?;
        for entry in chain {
            self.put_id(out, entry.id)?;
            let count = entry.neighbors.len() as u64;
            self.put_int(out, count, LEGACY_COUNT_BITS, "neighbors")?;
            for &nb in &entry.neighbors {
                self.put_id(out, nb)?;
            }
            self.put_signature(out, &entry.signature)?;
        }
        Ok(())
    }

    fn get_chain(self, cur: &mut BitCursor<'_>) -> Result<Vec<ChainEntry>, WireError> {
        let hops = self.get_int(cur, LEGACY_CHAIN_BITS, "chain")?;
        if hops > MAX_CHAIN_ENTRIES {
            return Err(WireError::FieldOverflow { field: "chain" });
        }
        // Every entry carries a tag, and every neighbor at least the
        // shortest id: counts cannot claim more than the bits left, which
        // bounds each allocation before it happens.
        if hops as usize * TAG_BITS > cur.remaining() {
            return Err(WireError::Truncated);
        }
        let mut chain = Vec::with_capacity(hops as usize);
        for _ in 0..hops {
            let id = self.get_id(cur)?;
            let count = self.get_int(cur, LEGACY_COUNT_BITS, "neighbors")?;
            if count > MAX_NEIGHBORS {
                return Err(WireError::FieldOverflow { field: "neighbors" });
            }
            if (count as usize).saturating_mul(self.int_bits(0, self.cfg.l_id)) > cur.remaining() {
                return Err(WireError::Truncated);
            }
            let neighbors = (0..count)
                .map(|_| self.get_id(cur))
                .collect::<Result<_, _>>()?;
            let signature = self.get_signature(cur)?;
            chain.push(ChainEntry {
                id,
                neighbors,
                signature,
            });
        }
        Ok(chain)
    }

    /// Ends a parse: `Packed` skips the trailing extensions, `Legacy`
    /// ignores whatever follows the last field.
    fn finish<T>(self, cur: &mut BitCursor<'_>, frame: T) -> Result<T, WireError> {
        if !self.legacy() {
            skip_extensions(cur)?;
        }
        metric_counter!("wire.frames_parsed").inc();
        Ok(frame)
    }
}

/// Clears `out`, runs `fields` into it and accounts the frame.
fn encode_frame(
    out: &mut PackedBits,
    fields: impl FnOnce(&mut PackedBits) -> Result<(), WireError>,
) -> Result<(), WireError> {
    let cap = out.word_capacity();
    out.clear();
    fields(out)?;
    metric_counter!("wire.bytes_encoded").add(out.len().div_ceil(8) as u64);
    if cap > 0 && out.word_capacity() == cap {
        metric_counter!("wire.scratch_reused").inc();
    }
    Ok(())
}

/// The first `l_mac` bits of `tag` (MSB-first over the tag bytes) as one
/// integer — the MAC both formats carry, so an AUTH frame verifies with a
/// `u64` compare.
///
/// # Errors
///
/// [`WireError::FieldOverflow`] when `l_mac > 64`.
pub fn truncated_tag_value(cfg: &WireConfig, tag: &AuthTag) -> Result<u64, WireError> {
    if cfg.l_mac > 64 {
        return Err(WireError::FieldOverflow { field: "l_mac" });
    }
    // Byte-at-a-time: big-endian fold of the covering bytes, then shift
    // off the sub-byte tail — identical to the bit-by-bit MSB-first walk.
    let nbytes = cfg.l_mac.div_ceil(8);
    let mut v = 0u64;
    for &b in &tag.0[..nbytes] {
        v = (v << 8) | u64::from(b);
    }
    Ok(v >> (nbytes * 8 - cfg.l_mac))
}

// ---------------------------------------------------------------------
// The four messages.
// ---------------------------------------------------------------------

/// Encodes a HELLO or CONFIRM into `out` (cleared first; a warm pooled
/// buffer is reused allocation-free).
///
/// # Errors
///
/// [`WireError::FieldOverflow`] when `id` exceeds `l_id` bits (or, in
/// `Legacy`, the kind code exceeds `l_t` bits).
pub fn encode_hello(
    cfg: &WireConfig,
    format: WireFormat,
    kind: MessageKind,
    id: NodeId,
    out: &mut PackedBits,
) -> Result<(), WireError> {
    let s = Schema { cfg, format };
    encode_frame(out, |out| {
        s.put_int(out, kind.code(), cfg.l_t, "type")?;
        s.put_id(out, id)
    })
}

/// Parses a HELLO/CONFIRM from a cursor.
///
/// # Errors
///
/// [`WireError`] on truncation, unknown kind, or an id wider than `l_id`.
pub fn parse_hello(
    cfg: &WireConfig,
    format: WireFormat,
    cur: &mut BitCursor<'_>,
) -> Result<(MessageKind, NodeId), WireError> {
    let s = Schema { cfg, format };
    let code = s.get_int(cur, cfg.l_t, "type")?;
    let kind = MessageKind::from_code(code).ok_or(WireError::UnknownKind(code))?;
    let id = s.get_id(cur)?;
    s.finish(cur, (kind, id))
}

/// HELLO/CONFIRM size in bits (no extensions): `l_t + l_id` in `Legacy`.
pub fn hello_bits(cfg: &WireConfig, format: WireFormat, kind: MessageKind, id: NodeId) -> usize {
    let s = Schema { cfg, format };
    s.int_bits(kind.code(), cfg.l_t) + s.int_bits(u64::from(id.0), cfg.l_id)
}

/// Encodes an AUTH_A/AUTH_B frame `{ID, n, f_K(ID|n)}` into `out`.
///
/// # Errors
///
/// [`WireError::FieldOverflow`] on oversized fields or `l_mac > 64`.
pub fn encode_auth(
    cfg: &WireConfig,
    format: WireFormat,
    id: NodeId,
    nonce: Nonce,
    tag: &AuthTag,
    out: &mut PackedBits,
) -> Result<(), WireError> {
    let s = Schema { cfg, format };
    encode_frame(out, |out| {
        s.put_id(out, id)?;
        s.put_nonce(out, nonce)?;
        s.put_fixed(out, truncated_tag_value(cfg, tag)?, cfg.l_mac, "l_mac")
    })
}

/// Parses an AUTH frame into `(ID, n, truncated-tag value)`; compare the
/// value against [`truncated_tag_value`] of the locally computed tag.
///
/// # Errors
///
/// [`WireError`] on truncation, field overflow or `l_mac > 64`.
pub fn parse_auth(
    cfg: &WireConfig,
    format: WireFormat,
    cur: &mut BitCursor<'_>,
) -> Result<(NodeId, Nonce, u64), WireError> {
    let s = Schema { cfg, format };
    let id = s.get_id(cur)?;
    let nonce = s.get_nonce(cur)?;
    let mac = s.get_fixed(cur, cfg.l_mac, "l_mac")?;
    s.finish(cur, (id, nonce, mac))
}

/// Encodes an M-NDP request into `out` (cleared first).
///
/// # Errors
///
/// [`WireError::FieldOverflow`] on oversized fields.
pub fn encode_request(
    cfg: &WireConfig,
    format: WireFormat,
    req: &MndpRequest,
    out: &mut PackedBits,
) -> Result<(), WireError> {
    let s = Schema { cfg, format };
    encode_frame(out, |out| {
        s.put_id(out, req.source)?;
        s.put_nonce(out, req.nonce)?;
        s.put_int(out, req.nu as u64, cfg.l_nu, "nu")?;
        s.put_chain(out, &req.chain)
    })
}

/// Parses an M-NDP request.
///
/// # Errors
///
/// [`WireError`] on truncation or malformed counts.
pub fn parse_request(
    cfg: &WireConfig,
    format: WireFormat,
    cur: &mut BitCursor<'_>,
) -> Result<MndpRequest, WireError> {
    let s = Schema { cfg, format };
    let source = s.get_id(cur)?;
    let nonce = s.get_nonce(cur)?;
    let nu = s.get_int(cur, cfg.l_nu, "nu")? as usize;
    let chain = s.get_chain(cur)?;
    s.finish(
        cur,
        MndpRequest {
            source,
            nonce,
            nu,
            chain,
        },
    )
}

/// Encodes an M-NDP response into `out` (cleared first).
///
/// # Errors
///
/// [`WireError::FieldOverflow`] on oversized fields.
pub fn encode_response(
    cfg: &WireConfig,
    format: WireFormat,
    resp: &MndpResponse,
    out: &mut PackedBits,
) -> Result<(), WireError> {
    let s = Schema { cfg, format };
    encode_frame(out, |out| {
        s.put_id(out, resp.source)?;
        s.put_id(out, resp.responder)?;
        s.put_nonce(out, resp.nonce)?;
        s.put_int(out, resp.nu as u64, cfg.l_nu, "nu")?;
        s.put_chain(out, &resp.chain)
    })
}

/// Parses an M-NDP response.
///
/// # Errors
///
/// [`WireError`] on truncation or malformed counts.
pub fn parse_response(
    cfg: &WireConfig,
    format: WireFormat,
    cur: &mut BitCursor<'_>,
) -> Result<MndpResponse, WireError> {
    let s = Schema { cfg, format };
    let source = s.get_id(cur)?;
    let responder = s.get_id(cur)?;
    let nonce = s.get_nonce(cur)?;
    let nu = s.get_int(cur, cfg.l_nu, "nu")? as usize;
    let chain = s.get_chain(cur)?;
    s.finish(
        cur,
        MndpResponse {
            source,
            responder,
            nonce,
            nu,
            chain,
        },
    )
}

// ---------------------------------------------------------------------
// Endpoint bridges: the handshake's `Vec<bool>` frames.
// ---------------------------------------------------------------------

/// Packs a despread frame into a stack word array (no heap) for the
/// endpoint parsers. HELLO/AUTH frames are far under the 512-bit cap;
/// anything larger is malformed by construction.
fn pack_stack(bits: &[bool]) -> Result<([u64; STACK_FRAME_WORDS], usize), WireError> {
    if bits.len() > STACK_FRAME_BITS {
        return Err(WireError::FieldOverflow { field: "frame" });
    }
    let mut words = [0u64; STACK_FRAME_WORDS];
    for (word, chunk) in words.iter_mut().zip(bits.chunks(64)) {
        *word = pack_word(chunk);
    }
    Ok((words, bits.len()))
}

/// [`parse_hello`] over a despread bit buffer, allocation-free.
///
/// # Errors
///
/// [`WireError`] as [`parse_hello`], plus oversized frames.
pub fn parse_hello_bools(
    cfg: &WireConfig,
    format: WireFormat,
    bits: &[bool],
) -> Result<(MessageKind, NodeId), WireError> {
    let (words, len) = pack_stack(bits)?;
    parse_hello(cfg, format, &mut BitCursor::from_words(&words, len))
}

/// [`parse_auth`] over a despread bit buffer, allocation-free.
///
/// # Errors
///
/// [`WireError`] as [`parse_auth`], plus oversized frames.
pub fn parse_auth_bools(
    cfg: &WireConfig,
    format: WireFormat,
    bits: &[bool],
) -> Result<(NodeId, Nonce, u64), WireError> {
    let (words, len) = pack_stack(bits)?;
    parse_auth(cfg, format, &mut BitCursor::from_words(&words, len))
}

/// Runs `encode` into a fresh stream and unpacks it to a `Vec<bool>`.
fn frame_bools(
    encode: impl FnOnce(&mut PackedBits) -> Result<(), WireError>,
) -> Result<Vec<bool>, WireError> {
    let mut packed = PackedBits::new();
    encode(&mut packed)?;
    let mut out = Vec::new();
    packed.write_bools_into(&mut out);
    Ok(out)
}

/// Encodes a HELLO/CONFIRM and unpacks it to the `Vec<bool>` the radio
/// layer spreads — the endpoint-side convenience.
///
/// # Errors
///
/// As [`encode_hello`].
pub fn hello_frame_bools(
    cfg: &WireConfig,
    format: WireFormat,
    kind: MessageKind,
    id: NodeId,
) -> Result<Vec<bool>, WireError> {
    frame_bools(|out| encode_hello(cfg, format, kind, id, out))
}

/// Encodes an AUTH frame and unpacks it to a `Vec<bool>`.
///
/// # Errors
///
/// As [`encode_auth`].
pub fn auth_frame_bools(
    cfg: &WireConfig,
    format: WireFormat,
    id: NodeId,
    nonce: Nonce,
    tag: &AuthTag,
) -> Result<Vec<bool>, WireError> {
    frame_bools(|out| encode_auth(cfg, format, id, nonce, tag, out))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::Params;
    use proptest::collection::vec;
    use proptest::prelude::*;

    const FORMATS: [WireFormat; 2] = [WireFormat::Legacy, WireFormat::Packed];

    fn cfg() -> WireConfig {
        WireConfig::from_params(&Params::table1())
    }

    /// A signature whose tag bytes all differ, so a byte- or bit-order
    /// slip in the codec cannot round-trip unnoticed.
    fn sig(signer: u32, fill: u8) -> IbSignature {
        let tag = core::array::from_fn(|i| fill.wrapping_add((i as u8).wrapping_mul(17)));
        IbSignature::from_parts(NodeId(signer), tag)
    }

    /// An oracle frame as a packed stream.
    fn packed(bits: &[bool]) -> PackedBits {
        let mut out = PackedBits::new();
        out.extend_from_bools(bits);
        out
    }

    fn bools(bits: &PackedBits) -> Vec<bool> {
        let mut out = Vec::new();
        bits.write_bools_into(&mut out);
        out
    }

    /// The oracle's truncated tag bits folded MSB-first into one integer.
    fn fold(bits: &[bool]) -> u64 {
        bits.iter().fold(0u64, |a, &b| (a << 1) | u64::from(b))
    }

    #[test]
    fn push_and_cursor_round_trip_across_word_boundaries() {
        let mut b = PackedBits::new();
        b.push(0b101, 3);
        b.push(u64::MAX, 64);
        b.push(0x1234_5678_9ABC, 48);
        b.push(0, 0);
        b.push_bit(true);
        let mut cur = BitCursor::new(&b);
        assert_eq!(cur.read(3).unwrap(), 0b101);
        assert_eq!(cur.read(64).unwrap(), u64::MAX);
        assert_eq!(cur.read(48).unwrap(), 0x1234_5678_9ABC);
        assert_eq!(cur.read(1).unwrap(), 1);
        assert!(cur.at_end());
        assert_eq!(cur.read(1), Err(WireError::Truncated));
    }

    #[test]
    fn varint_sizes_match_the_size_function() {
        for v in [
            0u64,
            1,
            15,
            16,
            255,
            256,
            4095,
            4096,
            u32::MAX as u64,
            u64::MAX,
        ] {
            let mut b = PackedBits::new();
            b.push_varint(v);
            assert_eq!(b.len(), varint_bits(v), "v = {v}");
            assert_eq!(BitCursor::new(&b).read_varint().unwrap(), v, "v = {v}");
        }
    }

    #[test]
    fn word_at_mirrors_the_chip_layer_semantics() {
        let mut b = PackedBits::new();
        b.push(0xDEAD_BEEF_CAFE_F00D, 64);
        b.push(0x1234_5678, 32);
        assert_eq!(b.word_at(0), 0xDEAD_BEEF_CAFE_F00D);
        assert_eq!(b.word_at(4), (0xDEAD_BEEF_CAFE_F00D >> 4) | (0x8 << 60));
        assert_eq!(b.word_at(64), 0x1234_5678);
        assert_eq!(b.word_at(200), 0, "past-the-end reads are zero");
    }

    #[test]
    fn bools_round_trip_word_parallel() {
        let bits: Vec<bool> = (0..173).map(|i| i % 7 < 3).collect();
        let mut b = PackedBits::new();
        b.push(0b11, 2); // unaligned start
        b.extend_from_bools(&bits);
        let mut out = Vec::new();
        b.write_bools_into(&mut out);
        assert_eq!(&out[2..], bits.as_slice());
    }

    #[test]
    fn byte_serialisation_round_trips() {
        let mut b = PackedBits::new();
        b.push_varint(77);
        b.push(0x3FF, 10);
        let bytes = b.to_bytes();
        assert_eq!(bytes.len(), b.len().div_ceil(8));
        let back = PackedBits::from_bytes(&bytes, b.len()).unwrap();
        assert_eq!(back, b);
        assert_eq!(
            PackedBits::from_bytes(&bytes, 8 * bytes.len() + 1),
            Err(WireError::Truncated)
        );
    }

    #[test]
    fn hello_round_trips_and_packed_beats_legacy_airtime() {
        let cfg = cfg();
        let mut sizes = Vec::new();
        for format in FORMATS {
            let mut out = PackedBits::new();
            encode_hello(&cfg, format, MessageKind::Hello, NodeId(1), &mut out).unwrap();
            assert_eq!(
                out.len(),
                hello_bits(&cfg, format, MessageKind::Hello, NodeId(1))
            );
            let (kind, id) = parse_hello(&cfg, format, &mut BitCursor::new(&out)).unwrap();
            assert_eq!((kind, id), (MessageKind::Hello, NodeId(1)));
            sizes.push(out.len());
        }
        assert_eq!(sizes, [cfg.l_t + cfg.l_id, 10]);
    }

    fn sample_request() -> MndpRequest {
        MndpRequest {
            source: NodeId(3),
            nonce: Nonce::from_value(0x5_1234),
            nu: 2,
            chain: vec![
                ChainEntry {
                    id: NodeId(3),
                    neighbors: vec![NodeId(10), NodeId(600)],
                    signature: sig(3, 0x11),
                },
                ChainEntry {
                    id: NodeId(10),
                    neighbors: vec![],
                    signature: sig(10, 0x22),
                },
            ],
        }
    }

    #[test]
    fn legacy_frames_have_table1_sizes() {
        // HELLO: l_t + l_id = 21. AUTH: l_id + l_n + l_mac = 80, which the
        // mu = 1 expansion turns into Table I's l_f = 160.
        let p = Params::table1();
        let cfg = WireConfig::from_params(&p);
        let mut out = PackedBits::new();
        let legacy = WireFormat::Legacy;
        encode_hello(&cfg, legacy, MessageKind::Confirm, NodeId(0xFFFF), &mut out).unwrap();
        assert_eq!(out.len(), 21);
        let tag = AuthTag([1; 32]);
        encode_auth(
            &cfg,
            legacy,
            NodeId(7),
            Nonce::from_value(9),
            &tag,
            &mut out,
        )
        .unwrap();
        assert_eq!(out.len(), 80);
        assert_eq!(p.l_f(), 2 * out.len());
        // A request adds l_id + 8 + 16 framing bits per entry to the
        // paper's bit_len accounting (source id, chain length, counts).
        let req = sample_request();
        encode_request(&cfg, legacy, &req, &mut out).unwrap();
        assert_eq!(
            out.len(),
            req.bit_len(&p) + p.l_id + 8 + 16 * req.chain.len()
        );
    }

    #[test]
    fn unknown_extensions_are_skipped_and_legacy_ignores_trailers() {
        let cfg = cfg();
        for format in FORMATS {
            let mut out = PackedBits::new();
            encode_hello(&cfg, format, MessageKind::Confirm, NodeId(9), &mut out).unwrap();
            append_extension_varint(&mut out, 7, 123_456);
            append_extension_bits(&mut out, 8, &[true, false, true, true, false]);
            let parsed = parse_hello(&cfg, format, &mut BitCursor::new(&out)).unwrap();
            assert_eq!(parsed, (MessageKind::Confirm, NodeId(9)), "{format:?}");
        }
        // A truncated packed extension is a typed error, not a panic.
        let mut out = PackedBits::new();
        encode_hello(
            &cfg,
            WireFormat::Packed,
            MessageKind::Hello,
            NodeId(9),
            &mut out,
        )
        .unwrap();
        append_extension_varint(&mut out, 7, 123_456);
        let mut cur = BitCursor::from_words(out.words(), out.len() - 3);
        assert!(parse_hello(&cfg, WireFormat::Packed, &mut cur).is_err());
    }

    #[test]
    fn auth_round_trips_with_the_oracle_mac_in_both_formats() {
        let cfg = cfg();
        let tag = AuthTag([0xA5; 32]);
        let n = Nonce::from_value(0xBEEF);
        let oracle_mac = fold(&cfg.truncate_tag(&tag));
        for format in FORMATS {
            let mut out = PackedBits::new();
            encode_auth(&cfg, format, NodeId(2), n, &tag, &mut out).unwrap();
            let (id, nonce, mac) = parse_auth(&cfg, format, &mut BitCursor::new(&out)).unwrap();
            assert_eq!((id, nonce), (NodeId(2), n));
            assert_eq!(mac, truncated_tag_value(&cfg, &tag).unwrap());
            assert_eq!(mac, oracle_mac, "{format:?}");
        }
    }

    #[test]
    fn truncated_frames_fail_cleanly_in_both_formats() {
        let cfg = cfg();
        for format in FORMATS {
            let mut hello = PackedBits::new();
            encode_hello(&cfg, format, MessageKind::Hello, NodeId(300), &mut hello).unwrap();
            for cut in 0..hello.len() {
                let mut cur = BitCursor::from_words(hello.words(), cut);
                assert_eq!(
                    parse_hello(&cfg, format, &mut cur),
                    Err(WireError::Truncated),
                    "{format:?} cut at {cut}"
                );
            }
            let mut req = PackedBits::new();
            encode_request(&cfg, format, &sample_request(), &mut req).unwrap();
            let mut cur = BitCursor::from_words(req.words(), req.len() - 10);
            assert_eq!(
                parse_request(&cfg, format, &mut cur),
                Err(WireError::Truncated)
            );
        }
    }

    #[test]
    fn request_round_trips_and_packed_shrinks_versus_legacy() {
        let cfg = cfg();
        let req = sample_request();
        let mut sizes = Vec::new();
        for format in FORMATS {
            let mut out = PackedBits::new();
            encode_request(&cfg, format, &req, &mut out).unwrap();
            let back = parse_request(&cfg, format, &mut BitCursor::new(&out)).unwrap();
            assert_eq!(back, req, "{format:?}");
            sizes.push(out.len());
        }
        assert!(sizes[1] * 2 < sizes[0], "packed vs legacy bits: {sizes:?}");
    }

    #[test]
    fn response_round_trips_with_extensions() {
        let cfg = cfg();
        let resp = MndpResponse {
            source: NodeId(3),
            responder: NodeId(77),
            nonce: Nonce::from_value(7),
            nu: 2,
            chain: vec![ChainEntry {
                id: NodeId(77),
                neighbors: vec![NodeId(3)],
                signature: sig(77, 0x33),
            }],
        };
        for format in FORMATS {
            let mut out = PackedBits::new();
            encode_response(&cfg, format, &resp, &mut out).unwrap();
            append_extension_varint(&mut out, 12, 9);
            let back = parse_response(&cfg, format, &mut BitCursor::new(&out)).unwrap();
            assert_eq!(back, resp, "{format:?}");
        }
    }

    #[test]
    fn oversized_fields_are_rejected() {
        let cfg = cfg();
        let mut out = PackedBits::new();
        for format in FORMATS {
            assert_eq!(
                encode_hello(&cfg, format, MessageKind::Hello, NodeId(1 << 20), &mut out),
                Err(WireError::FieldOverflow { field: "id" })
            );
            let n = Nonce::from_value(u32::MAX);
            assert_eq!(
                encode_auth(&cfg, format, NodeId(1), n, &AuthTag([0; 32]), &mut out),
                Err(WireError::FieldOverflow { field: "nonce" })
            );
        }
        // Legacy-only widths: the l_sig slot, the 8-bit chain length and
        // the l_t type field.
        let legacy = WireFormat::Legacy;
        let tight = WireConfig { l_sig: 100, ..cfg };
        assert_eq!(
            encode_request(&tight, legacy, &sample_request(), &mut out),
            Err(WireError::FieldOverflow { field: "l_sig" })
        );
        let mut long = sample_request();
        long.chain = vec![long.chain[1].clone(); 256];
        assert_eq!(
            encode_request(&cfg, legacy, &long, &mut out),
            Err(WireError::FieldOverflow { field: "chain" })
        );
        let narrow = WireConfig { l_t: 1, ..cfg };
        assert_eq!(
            encode_hello(&narrow, legacy, MessageKind::Confirm, NodeId(1), &mut out),
            Err(WireError::FieldOverflow { field: "type" })
        );
    }

    #[test]
    fn hostile_counts_cannot_force_allocation() {
        let cfg = cfg();
        let packed = WireFormat::Packed;
        // source + nonce + nu, then a chain claiming 4095 entries with no
        // backing bits: must error before allocating entry storage.
        let mut out = PackedBits::new();
        out.push_varint(1);
        out.push(0, cfg.l_n);
        out.push_varint(2);
        out.push_varint(4095);
        assert_eq!(
            parse_request(&cfg, packed, &mut BitCursor::new(&out)),
            Err(WireError::Truncated)
        );
        // And an over-cap claim is a typed overflow.
        let mut out = PackedBits::new();
        out.push_varint(1);
        out.push(0, cfg.l_n);
        out.push_varint(2);
        out.push_varint(MAX_CHAIN_ENTRIES + 1);
        assert_eq!(
            parse_request(&cfg, packed, &mut BitCursor::new(&out)),
            Err(WireError::FieldOverflow { field: "chain" })
        );
    }

    prop_compose! {
        fn arb_chain()(
            hops in vec((0u32..=0xFFFF, vec(0u32..=0xFFFF, 0..6), vec(any::<u8>(), 32)), 0..4),
        ) -> Vec<ChainEntry> {
            hops.into_iter().map(|(id, nbs, tag)| ChainEntry {
                id: NodeId(id),
                neighbors: nbs.into_iter().map(NodeId).collect(),
                signature: IbSignature::from_parts(NodeId(id), tag.try_into().unwrap()),
            }).collect()
        }
    }

    /// `frame` with bit `flip` inverted and cut to `cut` bits (both taken
    /// modulo the frame length), as a jammer would leave it.
    fn corrupt(frame: &[bool], flip: usize, cut: usize) -> Vec<bool> {
        let mut bits = frame.to_vec();
        if !bits.is_empty() {
            let i = flip % bits.len();
            bits[i] = !bits[i];
        }
        bits.truncate(cut % (bits.len() + 1));
        bits
    }

    /// The Legacy parsers over a cursor and the oracle's over the bools
    /// return the same value or both fail on `bits` (the oracle's MAC
    /// bits folded MSB-first).
    fn parsers_agree(cfg: &WireConfig, bits: &[bool]) -> Result<(), TestCaseError> {
        let p = packed(bits);
        let legacy = WireFormat::Legacy;
        let cur = || BitCursor::new(&p);
        prop_assert_eq!(
            parse_hello(cfg, legacy, &mut cur()).ok(),
            cfg.decode_hello(bits).ok()
        );
        let oracle_auth = cfg
            .decode_auth(bits)
            .ok()
            .map(|(id, n, t)| (id, n, fold(&t)));
        prop_assert_eq!(parse_auth(cfg, legacy, &mut cur()).ok(), oracle_auth);
        prop_assert_eq!(
            parse_request(cfg, legacy, &mut cur()).ok(),
            cfg.decode_request(bits).ok()
        );
        prop_assert_eq!(
            parse_response(cfg, legacy, &mut cur()).ok(),
            cfg.decode_response(bits).ok()
        );
        Ok(())
    }

    proptest! {
        /// The Legacy encoders emit exactly the oracle's bits for every
        /// message, and on those frames — clean, or bit-flipped and cut
        /// — the Legacy parsers agree with the oracle's.
        #[test]
        fn legacy_encoders_match_the_oracle_bit_for_bit(
            id in 0u32..=0xFFFF,
            responder in 0u32..=0xFFFF,
            confirm in any::<bool>(),
            nonce in 0u32..(1 << 20),
            nu in 0usize..16,
            tag in vec(any::<u8>(), 32),
            chain in arb_chain(),
            flip in any::<usize>(),
            cut in any::<usize>(),
        ) {
            let cfg = cfg();
            let legacy = WireFormat::Legacy;
            let kind = if confirm { MessageKind::Confirm } else { MessageKind::Hello };
            let (n, tag) = (Nonce::from_value(nonce), AuthTag(tag.try_into().unwrap()));
            let req = MndpRequest { source: NodeId(id), nonce: n, nu, chain: chain.clone() };
            let resp = MndpResponse {
                source: NodeId(id), responder: NodeId(responder), nonce: n, nu, chain,
            };
            let mut out = PackedBits::new();
            let frames = [
                (encode_hello(&cfg, legacy, kind, NodeId(id), &mut out).map(|()| bools(&out)),
                 cfg.encode_hello(kind, NodeId(id))),
                (encode_auth(&cfg, legacy, NodeId(id), n, &tag, &mut out).map(|()| bools(&out)),
                 cfg.encode_auth(NodeId(id), n, &tag)),
                (encode_request(&cfg, legacy, &req, &mut out).map(|()| bools(&out)),
                 cfg.encode_request(&req)),
                (encode_response(&cfg, legacy, &resp, &mut out).map(|()| bools(&out)),
                 cfg.encode_response(&resp)),
            ];
            for (codec, oracle) in frames {
                let oracle = oracle.unwrap();
                prop_assert_eq!(&codec.unwrap(), &oracle);
                parsers_agree(&cfg, &oracle)?;
                parsers_agree(&cfg, &corrupt(&oracle, flip, cut))?;
            }
        }

        /// On arbitrary bit strings the Legacy parsers and the oracle
        /// return the same value or both fail.
        #[test]
        fn legacy_parsers_agree_with_the_oracle_on_arbitrary_bits(
            bits in vec(any::<bool>(), 0..1600),
        ) {
            parsers_agree(&cfg(), &bits)?;
        }

        /// The same HELLO decodes to the same structure through the
        /// packed format and the oracle.
        #[test]
        fn hello_equivalence_with_reference(id in 0u32..(1 << 16), confirm in any::<bool>()) {
            let cfg = cfg();
            let kind = if confirm { MessageKind::Confirm } else { MessageKind::Hello };
            let legacy = cfg.decode_hello(&cfg.encode_hello(kind, NodeId(id)).unwrap()).unwrap();
            let frame = hello_frame_bools(&cfg, WireFormat::Packed, kind, NodeId(id)).unwrap();
            let packed = parse_hello_bools(&cfg, WireFormat::Packed, &frame).unwrap();
            prop_assert_eq!(legacy, packed);
        }

        /// AUTH equivalence: identity and nonce identical, and the packed
        /// integer MAC is the oracle's truncated bit pattern.
        #[test]
        fn auth_equivalence_with_reference(
            id in 0u32..(1 << 16),
            nonce in 0u32..(1 << 20),
            fill in any::<u8>(),
        ) {
            let cfg = cfg();
            let tag = AuthTag([fill; 32]);
            let n = Nonce::from_value(nonce);
            let (lid, ln, ltag) = cfg.decode_auth(&cfg.encode_auth(NodeId(id), n, &tag).unwrap()).unwrap();
            let frame = auth_frame_bools(&cfg, WireFormat::Packed, NodeId(id), n, &tag).unwrap();
            let (pid, pn, pmac) = parse_auth_bools(&cfg, WireFormat::Packed, &frame).unwrap();
            prop_assert_eq!((lid, ln), (pid, pn));
            prop_assert_eq!(pmac, fold(&ltag));
        }

        /// M-NDP request equivalence: the packed format and the oracle
        /// round-trip to the same decoded struct, and the packed frame
        /// beats the paper's bit accounting.
        #[test]
        fn request_equivalence_with_reference(
            source in 0u32..2000,
            nonce in 0u32..(1 << 20),
            nu in 0usize..15,
            hops in vec((0u32..2000, 0usize..4, any::<u8>()), 0..4),
        ) {
            let cfg = cfg();
            let chain: Vec<ChainEntry> = hops.iter().map(|&(id, nb, fill)| ChainEntry {
                id: NodeId(id),
                neighbors: (0..nb).map(|k| NodeId(id.wrapping_add(k as u32 + 1) % 2000)).collect(),
                signature: sig(id, fill),
            }).collect();
            let req = MndpRequest { source: NodeId(source), nonce: Nonce::from_value(nonce), nu, chain };
            let legacy = cfg.decode_request(&cfg.encode_request(&req).unwrap()).unwrap();
            let mut packed = PackedBits::new();
            encode_request(&cfg, WireFormat::Packed, &req, &mut packed).unwrap();
            let back = parse_request(&cfg, WireFormat::Packed, &mut BitCursor::new(&packed)).unwrap();
            prop_assert_eq!(&legacy, &back);
            prop_assert_eq!(&back, &req);
            if !req.chain.is_empty() {
                prop_assert!(packed.len() < req.bit_len(&Params::table1()));
            }
        }

        /// M-NDP response equivalence, mirroring the request property.
        #[test]
        fn response_equivalence_with_reference(
            source in 0u32..2000,
            responder in 0u32..2000,
            nonce in 0u32..(1 << 20),
            nu in 0usize..15,
            hops in vec((0u32..2000, 0usize..4, any::<u8>()), 0..4),
        ) {
            let cfg = cfg();
            let chain: Vec<ChainEntry> = hops.iter().map(|&(id, nb, fill)| ChainEntry {
                id: NodeId(id),
                neighbors: (0..nb).map(|k| NodeId(id.wrapping_add(k as u32 + 1) % 2000)).collect(),
                signature: sig(id, fill),
            }).collect();
            let resp = MndpResponse {
                source: NodeId(source),
                responder: NodeId(responder),
                nonce: Nonce::from_value(nonce),
                nu,
                chain,
            };
            let legacy = cfg.decode_response(&cfg.encode_response(&resp).unwrap()).unwrap();
            let mut packed = PackedBits::new();
            encode_response(&cfg, WireFormat::Packed, &resp, &mut packed).unwrap();
            let back = parse_response(&cfg, WireFormat::Packed, &mut BitCursor::new(&packed)).unwrap();
            prop_assert_eq!(&legacy, &back);
            prop_assert_eq!(&back, &resp);
        }

        /// Random word soup never panics any parser in either format.
        #[test]
        fn parsers_survive_arbitrary_streams(words in vec(any::<u64>(), 0..24), trim in 0usize..64) {
            let cfg = cfg();
            let len = (words.len() * 64).saturating_sub(trim);
            for format in FORMATS {
                let _ = parse_hello(&cfg, format, &mut BitCursor::from_words(&words, len));
                let _ = parse_auth(&cfg, format, &mut BitCursor::from_words(&words, len));
                let _ = parse_request(&cfg, format, &mut BitCursor::from_words(&words, len));
                let _ = parse_response(&cfg, format, &mut BitCursor::from_words(&words, len));
            }
        }
    }
}
