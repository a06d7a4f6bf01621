//! The original `Vec<bool>` codec: the bit-exact oracle for
//! [`crate::wire`]'s `Legacy` format.
//!
//! An MSB-first [`BitWriter`]/[`BitReader`] over one `bool` per bit,
//! with Table I's fixed field widths and the truncated MAC carried as
//! bits. No production path calls it. It stays as the oracle: proptests
//! in `wire.rs` check that the `Legacy` encoders emit exactly these bits,
//! and that on any bit string the `Legacy` parsers return what these
//! decoders return or both fail. It is also the `wire/reference/*` side
//! of the wire bench (`BENCH_wire.json`).

use super::{ChainEntry, MessageKind, MndpRequest, MndpResponse, WireConfig, WireError};
use jrsnd_crypto::ibc::{IbSignature, NodeId};
use jrsnd_crypto::mac::AuthTag;
use jrsnd_crypto::nonce::Nonce;

/// An MSB-first bit writer.
#[derive(Debug, Default, Clone)]
pub struct BitWriter {
    bits: Vec<bool>,
}

impl BitWriter {
    /// Creates an empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends the low `width` bits of `value`, MSB first.
    ///
    /// # Errors
    ///
    /// Returns [`WireError::FieldOverflow`] if `value` needs more than
    /// `width` bits.
    pub fn write(
        &mut self,
        value: u64,
        width: usize,
        field: &'static str,
    ) -> Result<(), WireError> {
        if width < 64 && value >> width != 0 {
            return Err(WireError::FieldOverflow { field });
        }
        for i in (0..width).rev() {
            self.bits.push(value >> i & 1 == 1);
        }
        Ok(())
    }

    /// Appends raw bits.
    pub fn write_bits(&mut self, bits: &[bool]) {
        self.bits.extend_from_slice(bits);
    }

    /// Finishes, returning the bit vector.
    pub fn into_bits(self) -> Vec<bool> {
        self.bits
    }

    /// Current length in bits.
    pub fn len(&self) -> usize {
        self.bits.len()
    }

    /// Whether nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.bits.is_empty()
    }
}

/// An MSB-first bit reader.
#[derive(Debug)]
pub struct BitReader<'a> {
    bits: &'a [bool],
    pos: usize,
}

impl<'a> BitReader<'a> {
    /// Wraps a bit slice.
    pub fn new(bits: &'a [bool]) -> Self {
        BitReader { bits, pos: 0 }
    }

    /// Reads `width` bits as an MSB-first integer.
    ///
    /// # Errors
    ///
    /// Returns [`WireError::Truncated`] past the end.
    pub fn read(&mut self, width: usize) -> Result<u64, WireError> {
        if self.pos + width > self.bits.len() {
            return Err(WireError::Truncated);
        }
        let mut v = 0u64;
        for _ in 0..width {
            v = (v << 1) | u64::from(self.bits[self.pos]);
            self.pos += 1;
        }
        Ok(v)
    }

    /// Reads `width` raw bits.
    ///
    /// # Errors
    ///
    /// Returns [`WireError::Truncated`] past the end.
    pub fn read_bits(&mut self, width: usize) -> Result<Vec<bool>, WireError> {
        if self.pos + width > self.bits.len() {
            return Err(WireError::Truncated);
        }
        let out = self.bits[self.pos..self.pos + width].to_vec();
        self.pos += width;
        Ok(out)
    }

    /// Bits not yet consumed.
    pub fn remaining(&self) -> usize {
        self.bits.len() - self.pos
    }
}

/// The legacy encoders and decoders.
impl WireConfig {
    /// Encodes an [`IbSignature`] into its `l_sig` wire bits: the signer
    /// id, the 256-bit tag, zero padding.
    ///
    /// # Errors
    ///
    /// Returns [`WireError::FieldOverflow`] if `l_sig` cannot hold
    /// `l_id + 256` bits or the signer id exceeds `l_id` bits.
    pub fn encode_signature(&self, sig: &IbSignature) -> Result<Vec<bool>, WireError> {
        if self.l_sig < self.l_id + 256 {
            return Err(WireError::FieldOverflow { field: "l_sig" });
        }
        let mut w = BitWriter::new();
        w.write(u64::from(sig.signer().0), self.l_id, "signer")?;
        for byte in sig.tag() {
            w.write(u64::from(*byte), 8, "tag")?;
        }
        let mut bits = w.into_bits();
        bits.resize(self.l_sig, false);
        Ok(bits)
    }

    /// Decodes an `l_sig`-bit signature field.
    ///
    /// # Errors
    ///
    /// Returns [`WireError::Truncated`] on short input.
    pub fn decode_signature(&self, r: &mut BitReader<'_>) -> Result<IbSignature, WireError> {
        let field = r.read_bits(self.l_sig)?;
        let mut fr = BitReader::new(&field);
        let signer = NodeId(fr.read(self.l_id)? as u32);
        let mut tag = [0u8; 32];
        for byte in &mut tag {
            *byte = fr.read(8)? as u8;
        }
        Ok(IbSignature::from_parts(signer, tag))
    }

    fn encode_chain_entry(&self, w: &mut BitWriter, entry: &ChainEntry) -> Result<(), WireError> {
        w.write(u64::from(entry.id.0), self.l_id, "entry id")?;
        w.write(entry.neighbors.len() as u64, 16, "neighbor count")?;
        for n in &entry.neighbors {
            w.write(u64::from(n.0), self.l_id, "neighbor id")?;
        }
        w.write_bits(&self.encode_signature(&entry.signature)?);
        Ok(())
    }

    fn decode_chain_entry(&self, r: &mut BitReader<'_>) -> Result<ChainEntry, WireError> {
        let id = NodeId(r.read(self.l_id)? as u32);
        let count = r.read(16)? as usize;
        let mut neighbors = Vec::with_capacity(count);
        for _ in 0..count {
            neighbors.push(NodeId(r.read(self.l_id)? as u32));
        }
        let signature = self.decode_signature(r)?;
        Ok(ChainEntry {
            id,
            neighbors,
            signature,
        })
    }

    /// Serialises an M-NDP request to wire bits:
    /// `[source | n_A | ν | chain-len(8) | entries…]`.
    ///
    /// # Errors
    ///
    /// Returns [`WireError::FieldOverflow`] on oversized fields (incl. a
    /// chain longer than 255 entries).
    pub fn encode_request(&self, req: &MndpRequest) -> Result<Vec<bool>, WireError> {
        let mut w = BitWriter::new();
        w.write(u64::from(req.source.0), self.l_id, "source")?;
        w.write(u64::from(req.nonce.value()), self.l_n, "nonce")?;
        w.write(req.nu as u64, self.l_nu, "nu")?;
        if req.chain.len() > 255 {
            return Err(WireError::FieldOverflow { field: "chain" });
        }
        w.write(req.chain.len() as u64, 8, "chain length")?;
        for entry in &req.chain {
            self.encode_chain_entry(&mut w, entry)?;
        }
        Ok(w.into_bits())
    }

    /// Deserialises an M-NDP request.
    ///
    /// # Errors
    ///
    /// Returns [`WireError::Truncated`] on short input.
    pub fn decode_request(&self, bits: &[bool]) -> Result<MndpRequest, WireError> {
        let mut r = BitReader::new(bits);
        let source = NodeId(r.read(self.l_id)? as u32);
        let nonce = Nonce::from_value(r.read(self.l_n)? as u32);
        let nu = r.read(self.l_nu)? as usize;
        let len = r.read(8)? as usize;
        let mut chain = Vec::with_capacity(len);
        for _ in 0..len {
            chain.push(self.decode_chain_entry(&mut r)?);
        }
        Ok(MndpRequest {
            source,
            nonce,
            nu,
            chain,
        })
    }

    /// Serialises an M-NDP response:
    /// `[source | responder | n_B | ν | chain-len(8) | entries…]`.
    ///
    /// # Errors
    ///
    /// Returns [`WireError::FieldOverflow`] on oversized fields.
    pub fn encode_response(&self, resp: &MndpResponse) -> Result<Vec<bool>, WireError> {
        let mut w = BitWriter::new();
        w.write(u64::from(resp.source.0), self.l_id, "source")?;
        w.write(u64::from(resp.responder.0), self.l_id, "responder")?;
        w.write(u64::from(resp.nonce.value()), self.l_n, "nonce")?;
        w.write(resp.nu as u64, self.l_nu, "nu")?;
        if resp.chain.len() > 255 {
            return Err(WireError::FieldOverflow { field: "chain" });
        }
        w.write(resp.chain.len() as u64, 8, "chain length")?;
        for entry in &resp.chain {
            self.encode_chain_entry(&mut w, entry)?;
        }
        Ok(w.into_bits())
    }

    /// Deserialises an M-NDP response.
    ///
    /// # Errors
    ///
    /// Returns [`WireError::Truncated`] on short input.
    pub fn decode_response(&self, bits: &[bool]) -> Result<MndpResponse, WireError> {
        let mut r = BitReader::new(bits);
        let source = NodeId(r.read(self.l_id)? as u32);
        let responder = NodeId(r.read(self.l_id)? as u32);
        let nonce = Nonce::from_value(r.read(self.l_n)? as u32);
        let nu = r.read(self.l_nu)? as usize;
        let len = r.read(8)? as usize;
        let mut chain = Vec::with_capacity(len);
        for _ in 0..len {
            chain.push(self.decode_chain_entry(&mut r)?);
        }
        Ok(MndpResponse {
            source,
            responder,
            nonce,
            nu,
            chain,
        })
    }

    /// Encodes `{kind, ID}` — the HELLO/CONFIRM frame.
    ///
    /// # Errors
    ///
    /// Returns [`WireError::FieldOverflow`] if the ID exceeds `l_id` bits.
    pub fn encode_hello(&self, kind: MessageKind, id: NodeId) -> Result<Vec<bool>, WireError> {
        let mut w = BitWriter::new();
        w.write(kind.code(), self.l_t, "type")?;
        w.write(u64::from(id.0), self.l_id, "id")?;
        Ok(w.into_bits())
    }

    /// Decodes a HELLO/CONFIRM frame.
    ///
    /// # Errors
    ///
    /// [`WireError::Truncated`] or [`WireError::UnknownKind`].
    pub fn decode_hello(&self, bits: &[bool]) -> Result<(MessageKind, NodeId), WireError> {
        let mut r = BitReader::new(bits);
        let code = r.read(self.l_t)?;
        let kind = MessageKind::from_code(code).ok_or(WireError::UnknownKind(code))?;
        let id = NodeId(r.read(self.l_id)? as u32);
        Ok((kind, id))
    }

    /// Truncates a full MAC tag to the `l_mac` wire bits.
    pub fn truncate_tag(&self, tag: &AuthTag) -> Vec<bool> {
        let mut bits = Vec::with_capacity(self.l_mac);
        for i in 0..self.l_mac {
            bits.push(tag.0[i / 8] & (0x80 >> (i % 8)) != 0);
        }
        bits
    }

    /// Encodes `{ID, n, f_K(ID|n)}` — the third/fourth D-NDP message.
    ///
    /// # Errors
    ///
    /// Returns [`WireError::FieldOverflow`] on oversized fields.
    pub fn encode_auth(
        &self,
        id: NodeId,
        nonce: Nonce,
        tag: &AuthTag,
    ) -> Result<Vec<bool>, WireError> {
        let mut w = BitWriter::new();
        w.write(u64::from(id.0), self.l_id, "id")?;
        w.write(u64::from(nonce.value()), self.l_n, "nonce")?;
        w.write_bits(&self.truncate_tag(tag));
        Ok(w.into_bits())
    }

    /// Decodes an AUTH frame into `(ID, n, truncated tag bits)`.
    ///
    /// # Errors
    ///
    /// Returns [`WireError::Truncated`] on short input.
    pub fn decode_auth(&self, bits: &[bool]) -> Result<(NodeId, Nonce, Vec<bool>), WireError> {
        let mut r = BitReader::new(bits);
        let id = NodeId(r.read(self.l_id)? as u32);
        let nonce = Nonce::from_value(r.read(self.l_n)? as u32);
        let tag_bits = r.read_bits(self.l_mac)?;
        Ok((id, nonce, tag_bits))
    }

    /// Verifies a received truncated tag against a locally computed full
    /// tag.
    pub fn tag_matches(&self, received: &[bool], local: &AuthTag) -> bool {
        received == self.truncate_tag(local).as_slice()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::messages::tests::sample_request;
    use crate::params::Params;
    use jrsnd_crypto::ibc::Authority;
    use jrsnd_crypto::mac::auth_tag;

    fn cfg() -> WireConfig {
        WireConfig::from_params(&Params::table1())
    }

    #[test]
    fn bit_writer_reader_round_trip() {
        let mut w = BitWriter::new();
        w.write(0b101, 3, "a").unwrap();
        w.write(0xFFFF, 16, "b").unwrap();
        w.write(0, 5, "c").unwrap();
        let bits = w.into_bits();
        assert_eq!(bits.len(), 24);
        let mut r = BitReader::new(&bits);
        assert_eq!(r.read(3).unwrap(), 0b101);
        assert_eq!(r.read(16).unwrap(), 0xFFFF);
        assert_eq!(r.read(5).unwrap(), 0);
        assert_eq!(r.remaining(), 0);
        assert_eq!(r.read(1), Err(WireError::Truncated));
    }

    #[test]
    fn field_overflow_detected() {
        let mut w = BitWriter::new();
        assert_eq!(
            w.write(0b1000, 3, "x"),
            Err(WireError::FieldOverflow { field: "x" })
        );
        // Full-width writes never overflow.
        w.write(u64::MAX, 64, "wide").unwrap();
        assert_eq!(w.len(), 64);
    }

    #[test]
    fn hello_round_trip() {
        let cfg = cfg();
        for kind in [MessageKind::Hello, MessageKind::Confirm] {
            let bits = cfg.encode_hello(kind, NodeId(1234)).unwrap();
            assert_eq!(bits.len(), cfg.l_t + cfg.l_id);
            let (k, id) = cfg.decode_hello(&bits).unwrap();
            assert_eq!(k, kind);
            assert_eq!(id, NodeId(1234));
        }
    }

    #[test]
    fn hello_rejects_unknown_kind_and_oversized_id() {
        let cfg = cfg();
        let mut bits = cfg.encode_hello(MessageKind::Hello, NodeId(1)).unwrap();
        // Corrupt the type field to an unknown value.
        for b in bits.iter_mut().take(cfg.l_t) {
            *b = true;
        }
        assert!(matches!(
            cfg.decode_hello(&bits),
            Err(WireError::UnknownKind(_))
        ));
        // 17-bit ID into a 16-bit field.
        assert!(matches!(
            cfg.encode_hello(MessageKind::Hello, NodeId(1 << 16)),
            Err(WireError::FieldOverflow { .. })
        ));
    }

    #[test]
    fn auth_round_trip_and_tag_verification() {
        let cfg = cfg();
        let authority = Authority::from_seed(b"wire");
        let ka = authority.issue(NodeId(7));
        let key = ka.shared_key(NodeId(8));
        let n = Nonce::from_value(0xBEEF);
        let tag = auth_tag(&key, NodeId(7), n);
        let bits = cfg.encode_auth(NodeId(7), n, &tag).unwrap();
        assert_eq!(bits.len(), cfg.l_id + cfg.l_n + cfg.l_mac);
        let (id, nonce, tag_bits) = cfg.decode_auth(&bits).unwrap();
        assert_eq!(id, NodeId(7));
        assert_eq!(nonce, n);
        assert!(cfg.tag_matches(&tag_bits, &tag));
        // A different key's tag must not match.
        let other = authority.issue(NodeId(7)).shared_key(NodeId(9));
        let wrong = auth_tag(&other, NodeId(7), n);
        assert!(!cfg.tag_matches(&tag_bits, &wrong));
    }

    #[test]
    fn truncated_tag_has_l_mac_bits_and_prefixes_tag() {
        let cfg = cfg();
        let tag = AuthTag([0xA5; 32]);
        let bits = cfg.truncate_tag(&tag);
        assert_eq!(bits.len(), cfg.l_mac);
        // 0xA5 = 10100101 repeated.
        assert_eq!(
            &bits[..8],
            &[true, false, true, false, false, true, false, true]
        );
    }

    #[test]
    fn decode_truncated_streams_error_cleanly() {
        let cfg = cfg();
        let hello = cfg.encode_hello(MessageKind::Hello, NodeId(3)).unwrap();
        for cut in 0..hello.len() {
            assert_eq!(
                cfg.decode_hello(&hello[..cut]).unwrap_err(),
                WireError::Truncated,
                "cut at {cut}"
            );
        }
        let auth = cfg
            .encode_auth(NodeId(3), Nonce::from_value(1), &AuthTag([1; 32]))
            .unwrap();
        assert_eq!(
            cfg.decode_auth(&auth[..10]).unwrap_err(),
            WireError::Truncated
        );
    }

    #[test]
    fn mndp_request_round_trips_and_signature_still_verifies() {
        let p = Params::table1();
        let cfg = WireConfig::from_params(&p);
        let req = sample_request();
        let bits = cfg.encode_request(&req).unwrap();
        let back = cfg.decode_request(&bits).unwrap();
        assert_eq!(back, req);
        // The reassembled signature must still verify against the payload.
        let authority = Authority::from_seed(b"chain");
        let payload = back.signing_payload(0);
        assert!(authority
            .verifier()
            .verify(&payload, &back.chain[0].signature));
    }

    #[test]
    fn mndp_response_round_trips() {
        let p = Params::table1();
        let cfg = WireConfig::from_params(&p);
        let resp = MndpResponse {
            source: NodeId(1),
            responder: NodeId(4),
            nonce: Nonce::from_value(9),
            nu: 2,
            chain: vec![ChainEntry {
                id: NodeId(4),
                neighbors: vec![NodeId(1), NodeId(7)],
                signature: IbSignature::forged(NodeId(4), 0x3C),
            }],
        };
        let bits = cfg.encode_response(&resp).unwrap();
        assert_eq!(cfg.decode_response(&bits).unwrap(), resp);
    }

    #[test]
    fn wire_serialization_rejects_bad_shapes() {
        let p = Params::table1();
        let cfg = WireConfig::from_params(&p);
        // l_sig too small to carry the simulated tag.
        let tight = WireConfig { l_sig: 100, ..cfg };
        assert!(matches!(
            tight.encode_signature(&IbSignature::forged(NodeId(1), 0)),
            Err(WireError::FieldOverflow { field: "l_sig" })
        ));
        // Truncated stream.
        let req = sample_request();
        let bits = cfg.encode_request(&req).unwrap();
        assert_eq!(
            cfg.decode_request(&bits[..bits.len() - 10]).unwrap_err(),
            WireError::Truncated
        );
        // Oversized neighbor id.
        let mut big = sample_request();
        big.chain[0].neighbors.push(NodeId(1 << 16));
        assert!(matches!(
            cfg.encode_request(&big),
            Err(WireError::FieldOverflow { .. })
        ));
    }

    #[test]
    fn encoded_request_length_tracks_paper_accounting() {
        // The paper's bit_len counts l_id + |L|*l_id + l_sig per entry plus
        // the n_A/nu header; our framing adds explicit chain-length and
        // neighbor-count prefixes. The overhead must be exactly
        // l_id + 8 + 16 * entries bits.
        let p = Params::table1();
        let cfg = WireConfig::from_params(&p);
        let req = sample_request();
        let encoded = cfg.encode_request(&req).unwrap().len();
        let accounted = req.bit_len(&p);
        let overhead = p.l_id + 8 + 16 * req.chain.len();
        assert_eq!(encoded, accounted + overhead);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::messages::{ChainEntry, MessageKind, MndpRequest, MndpResponse, WireConfig};
    use crate::params::Params;
    use proptest::prelude::*;

    prop_compose! {
        fn arb_entry()(
            id in 0u32..=0xFFFF,
            neighbors in proptest::collection::vec(0u32..=0xFFFF, 0..12),
            filler in any::<u8>(),
        ) -> ChainEntry {
            ChainEntry {
                id: NodeId(id),
                neighbors: neighbors.into_iter().map(NodeId).collect(),
                signature: IbSignature::forged(NodeId(id), filler),
            }
        }
    }

    proptest! {
        #[test]
        fn mndp_request_wire_round_trips(
            source in 0u32..=0xFFFF,
            nonce in 0u32..(1 << 20),
            nu in 1usize..=15,
            chain in proptest::collection::vec(arb_entry(), 1..6),
        ) {
            let cfg = WireConfig::from_params(&Params::table1());
            let req = MndpRequest {
                source: NodeId(source),
                nonce: Nonce::from_value(nonce),
                nu,
                chain,
            };
            let bits = cfg.encode_request(&req).unwrap();
            prop_assert_eq!(cfg.decode_request(&bits).unwrap(), req);
        }

        #[test]
        fn mndp_response_wire_round_trips(
            source in 0u32..=0xFFFF,
            responder in 0u32..=0xFFFF,
            nonce in 0u32..(1 << 20),
            nu in 1usize..=15,
            chain in proptest::collection::vec(arb_entry(), 1..6),
        ) {
            let cfg = WireConfig::from_params(&Params::table1());
            let resp = MndpResponse {
                source: NodeId(source),
                responder: NodeId(responder),
                nonce: Nonce::from_value(nonce),
                nu,
                chain,
            };
            let bits = cfg.encode_response(&resp).unwrap();
            prop_assert_eq!(cfg.decode_response(&bits).unwrap(), resp);
        }

        #[test]
        fn bit_writer_reader_round_trips_any_fields(
            values in proptest::collection::vec((0u64..=u64::MAX, 1usize..=64), 1..20),
        ) {
            let mut w = BitWriter::new();
            let mut masked = Vec::new();
            for &(v, width) in &values {
                let m = if width == 64 { v } else { v & ((1u64 << width) - 1) };
                masked.push((m, width));
                w.write(m, width, "field").unwrap();
            }
            let bits = w.into_bits();
            let mut r = BitReader::new(&bits);
            for &(m, width) in &masked {
                prop_assert_eq!(r.read(width).unwrap(), m);
            }
            prop_assert_eq!(r.remaining(), 0);
        }

        #[test]
        fn hello_round_trips_any_id(id in 0u32..=0xFFFF, confirm in any::<bool>()) {
            let cfg = WireConfig::from_params(&Params::table1());
            let kind = if confirm { MessageKind::Confirm } else { MessageKind::Hello };
            let bits = cfg.encode_hello(kind, NodeId(id)).unwrap();
            let (k, got) = cfg.decode_hello(&bits).unwrap();
            prop_assert_eq!(k, kind);
            prop_assert_eq!(got, NodeId(id));
        }

        #[test]
        fn auth_round_trips_any_fields(
            id in 0u32..=0xFFFF,
            nonce in 0u32..(1 << 20),
            tag_seed in any::<u8>(),
        ) {
            let cfg = WireConfig::from_params(&Params::table1());
            let tag = AuthTag([tag_seed; 32]);
            let bits = cfg.encode_auth(NodeId(id), Nonce::from_value(nonce), &tag).unwrap();
            let (gid, gnonce, tag_bits) = cfg.decode_auth(&bits).unwrap();
            prop_assert_eq!(gid, NodeId(id));
            prop_assert_eq!(gnonce.value(), nonce);
            prop_assert!(cfg.tag_matches(&tag_bits, &tag));
        }
    }
}
