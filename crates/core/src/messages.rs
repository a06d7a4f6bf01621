//! Protocol message types and the per-transceiver frame codec.
//!
//! D-NDP messages are framed exactly as the paper frames them (Section
//! V-B), so the chip-level path transmits real frames:
//!
//! * `HELLO`   = `[type(l_t) | ID(l_id)]`
//! * `CONFIRM` = `[type(l_t) | ID(l_id)]`
//! * `AUTH`    = `[ID(l_id) | nonce(l_n) | f_K(ID|n) truncated to l_mac]`
//!
//! M-NDP requests/responses carry growing signature chains; the protocol
//! runs them as structured values (their transport runs over established
//! secret session codes) with exact bit-length accounting for the latency
//! model.
//!
//! This module holds the message types, the field widths ([`WireConfig`])
//! and the [`FrameCodec`] a transceiver pools its ECC and wire scratch
//! in. The encoders and parsers, in both wire formats, live in
//! [`crate::wire`]; [`mod@reference`] keeps the original `Vec<bool>` codec as
//! their bit-exact oracle.

use crate::wire::{PackedBits, WireFormat};
use jrsnd_crypto::ibc::{IbSignature, NodeId};
use jrsnd_crypto::nonce::Nonce;
use jrsnd_ecc::expand::{ExpandError, ExpansionCode, ExpansionScratch};
use std::fmt;

pub mod reference;

/// A per-transceiver ECC frame codec: the (1+μ)-expansion code bundled
/// with its reusable [`ExpansionScratch`], so every frame a node sends or
/// receives shares the same staging buffers and cached Reed–Solomon
/// tables. Construct once per link/handshake and thread `&mut` through;
/// steady-state frames then perform zero ECC heap allocations.
#[derive(Debug)]
pub struct FrameCodec {
    code: ExpansionCode,
    scratch: ExpansionScratch,
    /// Pooled wire encode buffer (see [`crate::wire`]); warm HELLO
    /// encodes through this codec allocate nothing.
    wire_enc: PackedBits,
}

impl FrameCodec {
    /// Creates a codec for expansion factor `mu`.
    ///
    /// # Errors
    ///
    /// Returns [`ExpandError::BadMu`] unless `0 < mu` and finite.
    pub fn new(mu: f64) -> Result<Self, ExpandError> {
        Ok(FrameCodec {
            code: ExpansionCode::new(mu)?,
            scratch: ExpansionScratch::new(),
            wire_enc: PackedBits::new(),
        })
    }

    /// The underlying expansion code (for layout queries).
    pub fn code(&self) -> &ExpansionCode {
        &self.code
    }

    /// ECC-encodes `msg` into `out` (cleared first) through the shared
    /// scratch.
    ///
    /// # Errors
    ///
    /// As [`ExpansionCode::encode_bits_into`].
    pub fn encode_into(&mut self, msg: &[bool], out: &mut Vec<bool>) -> Result<(), ExpandError> {
        self.code.encode_bits_into(msg, &mut self.scratch, out)
    }

    /// Decodes `coded` with its per-bit erasure map into `out` (cleared
    /// first), recovering the original `msg_bits`-bit message.
    ///
    /// # Errors
    ///
    /// As [`ExpansionCode::decode_bits_into`].
    pub fn decode_into(
        &mut self,
        coded: &[bool],
        erased: &[bool],
        msg_bits: usize,
        out: &mut Vec<bool>,
    ) -> Result<(), ExpandError> {
        self.code
            .decode_bits_into(coded, erased, msg_bits, &mut self.scratch, out)
    }

    /// HELLO/CONFIRM encode through the codec's pooled wire scratch:
    /// renders the [`crate::wire`] frame in `format` into `out` (cleared
    /// first) as the `bool` stream the spreader consumes. Warm calls make
    /// zero allocations — the packed words live in the codec, and `out`
    /// is a pooled driver buffer.
    ///
    /// # Errors
    ///
    /// As [`crate::wire::encode_hello`].
    pub fn hello_packed(
        &mut self,
        cfg: &WireConfig,
        format: WireFormat,
        kind: MessageKind,
        id: NodeId,
        out: &mut Vec<bool>,
    ) -> Result<(), WireError> {
        crate::wire::encode_hello(cfg, format, kind, id, &mut self.wire_enc)?;
        self.wire_enc.write_bools_into(out);
        Ok(())
    }
}

/// Message-type identifiers carried in the type field (`l_t` bits in the
/// legacy format).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MessageKind {
    /// D-NDP broadcast HELLO.
    Hello,
    /// D-NDP CONFIRM reply.
    Confirm,
}

impl MessageKind {
    /// Wire code of the message type.
    pub fn code(self) -> u64 {
        match self {
            MessageKind::Hello => 0x01,
            MessageKind::Confirm => 0x02,
        }
    }

    /// Parses a wire code.
    pub fn from_code(code: u64) -> Option<Self> {
        match code {
            0x01 => Some(MessageKind::Hello),
            0x02 => Some(MessageKind::Confirm),
            _ => None,
        }
    }
}

/// Errors from message encoding/decoding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The bit stream ended prematurely.
    Truncated,
    /// A field value does not fit its declared width.
    FieldOverflow {
        /// Field name.
        field: &'static str,
    },
    /// Unknown message type code.
    UnknownKind(u64),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated => write!(f, "bit stream ended prematurely"),
            WireError::FieldOverflow { field } => write!(f, "field `{field}` overflows its width"),
            WireError::UnknownKind(c) => write!(f, "unknown message type code {c:#x}"),
        }
    }
}

impl std::error::Error for WireError {}

/// Field widths needed to frame D-NDP and M-NDP messages.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WireConfig {
    /// Type-field width `l_t`.
    pub l_t: usize,
    /// ID width `l_id`.
    pub l_id: usize,
    /// Nonce width `l_n`.
    pub l_n: usize,
    /// MAC width `l_mac` (at most 64: the codec carries the MAC as one
    /// `u64`).
    pub l_mac: usize,
    /// Hop-limit width `l_ν`.
    pub l_nu: usize,
    /// Signature width `l_sig` (must hold the 256-bit simulated tag).
    pub l_sig: usize,
}

impl WireConfig {
    /// Extracts the widths from [`crate::params::Params`].
    pub fn from_params(params: &crate::params::Params) -> Self {
        WireConfig {
            l_t: params.l_t,
            l_id: params.l_id,
            l_n: params.l_n,
            l_mac: params.l_mac,
            l_nu: params.l_nu,
            l_sig: params.l_sig,
        }
    }
}

/// One hop's entry in an M-NDP signature chain: the forwarder's identity,
/// its logical-neighbor list, and its signature over the accumulated
/// request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChainEntry {
    /// The forwarder.
    pub id: NodeId,
    /// The forwarder's logical neighbors ℒ at send time.
    pub neighbors: Vec<NodeId>,
    /// Signature over the canonical request prefix up to this entry.
    pub signature: IbSignature,
}

/// An M-NDP request: the source's identity/list/nonce/hop-limit plus one
/// [`ChainEntry`] per traversed hop (the source's entry first).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MndpRequest {
    /// The discovery source (node `A`).
    pub source: NodeId,
    /// Source nonce `n_A`.
    pub nonce: Nonce,
    /// Maximum hops `ν`.
    pub nu: usize,
    /// Signature chain: entry 0 is the source, subsequent entries are
    /// forwarders in path order.
    pub chain: Vec<ChainEntry>,
}

impl MndpRequest {
    /// Canonical byte encoding of the chain prefix `0..=upto` for signing:
    /// the source header plus each entry's id and neighbor list.
    pub fn signing_payload(&self, upto: usize) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(b"mndp-req");
        out.extend_from_slice(&self.source.to_bytes());
        out.extend_from_slice(&self.nonce.to_bytes());
        out.extend_from_slice(&(self.nu as u32).to_be_bytes());
        for entry in self.chain.iter().take(upto + 1) {
            out.extend_from_slice(&entry.id.to_bytes());
            out.extend_from_slice(&(entry.neighbors.len() as u32).to_be_bytes());
            for n in &entry.neighbors {
                out.extend_from_slice(&n.to_bytes());
            }
        }
        out
    }

    /// Number of hops the request has traversed (chain length minus the
    /// source's own entry).
    pub fn hops(&self) -> usize {
        self.chain.len().saturating_sub(1)
    }

    /// Wire length in bits: the source header plus per-entry
    /// `l_id + |ℒ|·l_id + l_sig` (Theorem 4 accounting).
    pub fn bit_len(&self, params: &crate::params::Params) -> usize {
        let mut bits = params.l_n + params.l_nu;
        for entry in &self.chain {
            bits += params.l_id + entry.neighbors.len() * params.l_id + params.l_sig;
        }
        bits
    }
}

/// An M-NDP response travelling back along the request path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MndpResponse {
    /// The original source `A` (final recipient of the response).
    pub source: NodeId,
    /// The responder `B`.
    pub responder: NodeId,
    /// Responder nonce `n_B`.
    pub nonce: Nonce,
    /// Hop limit copied from the request.
    pub nu: usize,
    /// Signature chain: entry 0 is the responder, subsequent entries the
    /// reverse-path forwarders.
    pub chain: Vec<ChainEntry>,
}

impl MndpResponse {
    /// Canonical signing payload for chain prefix `0..=upto`.
    pub fn signing_payload(&self, upto: usize) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(b"mndp-resp");
        out.extend_from_slice(&self.source.to_bytes());
        out.extend_from_slice(&self.responder.to_bytes());
        out.extend_from_slice(&self.nonce.to_bytes());
        out.extend_from_slice(&(self.nu as u32).to_be_bytes());
        for entry in self.chain.iter().take(upto + 1) {
            out.extend_from_slice(&entry.id.to_bytes());
            out.extend_from_slice(&(entry.neighbors.len() as u32).to_be_bytes());
            for n in &entry.neighbors {
                out.extend_from_slice(&n.to_bytes());
            }
        }
        out
    }

    /// Wire length in bits (headers + chain entries).
    pub fn bit_len(&self, params: &crate::params::Params) -> usize {
        let mut bits = 2 * params.l_id + params.l_n + params.l_nu;
        for entry in &self.chain {
            bits += params.l_id + entry.neighbors.len() * params.l_id + params.l_sig;
        }
        bits
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::Params;
    use jrsnd_crypto::ibc::Authority;

    #[test]
    fn frame_codec_round_trips_and_matches_one_shot_api() {
        let mut codec = FrameCodec::new(1.0).unwrap();
        let one_shot = jrsnd_ecc::expand::ExpansionCode::new(1.0).unwrap();
        let mut coded = Vec::new();
        let mut decoded = Vec::new();
        for len in [21usize, 80, 1072] {
            let msg: Vec<bool> = (0..len).map(|i| i % 7 < 3).collect();
            codec.encode_into(&msg, &mut coded).unwrap();
            assert_eq!(coded, one_shot.encode_bits(&msg).unwrap(), "len {len}");
            let mut erased = vec![false; coded.len()];
            let burst = coded.len() * 2 / 5;
            for e in erased.iter_mut().take(burst) {
                *e = true;
            }
            codec
                .decode_into(&coded, &erased, len, &mut decoded)
                .unwrap();
            assert_eq!(decoded, msg, "len {len}");
        }
        assert!(FrameCodec::new(0.0).is_err());
    }

    pub(super) fn sample_request() -> MndpRequest {
        let authority = Authority::from_seed(b"chain");
        let ka = authority.issue(NodeId(1));
        let mut req = MndpRequest {
            source: NodeId(1),
            nonce: Nonce::from_value(5),
            nu: 2,
            chain: vec![ChainEntry {
                id: NodeId(1),
                neighbors: vec![NodeId(2), NodeId(3)],
                signature: IbSignature::forged(NodeId(1), 0),
            }],
        };
        let payload = req.signing_payload(0);
        req.chain[0].signature = ka.sign(&payload);
        req
    }

    #[test]
    fn request_signing_payload_is_prefix_sensitive() {
        let mut req = sample_request();
        let p0 = req.signing_payload(0);
        req.chain.push(ChainEntry {
            id: NodeId(2),
            neighbors: vec![NodeId(9)],
            signature: IbSignature::forged(NodeId(2), 0),
        });
        let p0_after = req.signing_payload(0);
        let p1 = req.signing_payload(1);
        assert_eq!(
            p0, p0_after,
            "prefix payload must not change as the chain grows"
        );
        assert_ne!(p0, p1);
        assert_eq!(req.hops(), 1);
    }

    #[test]
    fn request_bit_len_accounting() {
        let p = Params::table1();
        let req = sample_request();
        // header l_n + l_nu = 24; entry: 16 + 2*16 + 672 = 720.
        assert_eq!(req.bit_len(&p), 24 + 720);
    }

    #[test]
    fn response_bit_len_and_payload() {
        let p = Params::table1();
        let resp = MndpResponse {
            source: NodeId(1),
            responder: NodeId(4),
            nonce: Nonce::from_value(9),
            nu: 2,
            chain: vec![ChainEntry {
                id: NodeId(4),
                neighbors: vec![NodeId(1)],
                signature: IbSignature::forged(NodeId(4), 0),
            }],
        };
        // headers 2*16 + 20 + 4 = 56; entry 16 + 16 + 672 = 704.
        assert_eq!(resp.bit_len(&p), 56 + 704);
        assert_ne!(resp.signing_payload(0), sample_request().signing_payload(0));
    }
}
