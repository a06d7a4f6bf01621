//! Golden wire vectors: the frames of both wire formats — `Packed` and
//! the Table-I `Legacy` layout — are byte-frozen under `tests/vectors/`.
//! Any change to the bit layout — field order, field widths, varint
//! grouping, TLV tags — breaks these tests, forcing a deliberate
//! format-version decision instead of a silent on-air incompatibility
//! (see the versioning policy in `crates/core/src/wire.rs`). Each
//! `Legacy` frame is also checked against the `messages::reference`
//! oracle, bit for bit.
//!
//! Vector file format: `[u32 LE bit length][payload]`, payload being the
//! frame's `PackedBits::to_bytes()` (LSB-first within each byte). To
//! regenerate after an intentional format bump:
//! `JRSND_WIRE_REGEN=1 cargo test --test wire_vectors` — CI diffs the
//! regenerated files against the committed ones and fails on drift. Each
//! test writes and reads only its own vectors, each write lands through a
//! temporary file and a `rename`, so concurrent tests never see a
//! half-written vector.

use jr_snd::core::messages::{ChainEntry, MessageKind, MndpRequest, MndpResponse, WireConfig};
use jr_snd::core::params::Params;
use jr_snd::core::wire::{
    encode_auth, encode_hello, encode_request, encode_response, parse_auth, parse_hello,
    parse_request, parse_response, truncated_tag_value, BitCursor, PackedBits, WireFormat,
};
use jr_snd::crypto::ibc::{IbSignature, NodeId};
use jr_snd::crypto::mac::AuthTag;
use jr_snd::crypto::nonce::Nonce;
use std::path::PathBuf;

fn cfg() -> WireConfig {
    WireConfig::from_params(&Params::table1())
}

fn vector_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/vectors")
        .join(format!("{name}.bin"))
}

fn serialize(bits: &PackedBits) -> Vec<u8> {
    let mut out = (u32::try_from(bits.len()).expect("frame fits u32"))
        .to_le_bytes()
        .to_vec();
    out.extend_from_slice(&bits.to_bytes());
    out
}

fn deserialize(bytes: &[u8]) -> PackedBits {
    let (head, payload) = bytes.split_at(4);
    let len = u32::from_le_bytes(head.try_into().expect("4-byte header")) as usize;
    PackedBits::from_bytes(payload, len).expect("committed vector is well-formed")
}

/// Compares `bits` against the committed vector, or rewrites it when
/// `JRSND_WIRE_REGEN=1`. Returns the committed frame for parse checks.
fn check_vector(name: &str, bits: &PackedBits) -> PackedBits {
    let path = vector_path(name);
    let encoded = serialize(bits);
    if std::env::var("JRSND_WIRE_REGEN").is_ok_and(|v| v == "1") {
        std::fs::create_dir_all(path.parent().expect("vectors dir")).expect("mkdir vectors");
        let tmp = path.with_extension(format!("bin.{}.tmp", std::process::id()));
        std::fs::write(&tmp, &encoded).expect("write vector");
        std::fs::rename(&tmp, &path).expect("move vector into place");
    }
    let committed = std::fs::read(&path).unwrap_or_else(|e| {
        panic!("missing golden vector {name}.bin ({e}); run with JRSND_WIRE_REGEN=1 to create")
    });
    assert_eq!(
        committed, encoded,
        "{name}: encoder output drifted from the committed golden vector — \
         this is a wire-format break; bump the format version or fix the encoder"
    );
    deserialize(&committed)
}

fn legacy_packed(bits: &[bool]) -> PackedBits {
    let mut out = PackedBits::new();
    out.extend_from_bools(bits);
    out
}

fn bools(bits: &PackedBits) -> Vec<bool> {
    let mut out = Vec::new();
    bits.write_bools_into(&mut out);
    out
}

fn canonical_tag() -> AuthTag {
    AuthTag(core::array::from_fn(|i| {
        (i as u8).wrapping_mul(31).wrapping_add(5)
    }))
}

fn canonical_request() -> MndpRequest {
    MndpRequest {
        source: NodeId(3),
        nonce: Nonce::from_value(0x5_1234),
        nu: 2,
        chain: vec![
            ChainEntry {
                id: NodeId(3),
                neighbors: vec![NodeId(10), NodeId(600)],
                signature: IbSignature::from_parts(NodeId(3), [0x11; 32]),
            },
            ChainEntry {
                id: NodeId(10),
                neighbors: vec![],
                signature: IbSignature::from_parts(NodeId(10), [0x22; 32]),
            },
        ],
    }
}

fn canonical_response() -> MndpResponse {
    let req = canonical_request();
    MndpResponse {
        source: req.source,
        responder: NodeId(77),
        nonce: Nonce::from_value(7),
        nu: req.nu,
        chain: vec![ChainEntry {
            id: NodeId(77),
            neighbors: vec![NodeId(3)],
            signature: IbSignature::from_parts(NodeId(77), [0x33; 32]),
        }],
    }
}

/// The two formats with their vector-name suffixes, packed first.
const FORMATS: [(WireFormat, &str); 2] = [
    (WireFormat::Packed, "packed"),
    (WireFormat::Legacy, "legacy"),
];

const HELLO: (MessageKind, NodeId) = (MessageKind::Hello, NodeId(0xBEE));
/// A 7-bit id: packed AUTH beats legacy for typical ids, while the
/// multi-group varint path is exercised by the 12-bit HELLO id.
const AUTH_ID: NodeId = NodeId(0x42);
const AUTH_NONCE: u32 = 0xA_BCDE;

fn hello_frame(format: WireFormat, out: &mut PackedBits) {
    encode_hello(&cfg(), format, HELLO.0, HELLO.1, out).unwrap();
}

fn auth_frame(format: WireFormat, out: &mut PackedBits) {
    let nonce = Nonce::from_value(AUTH_NONCE);
    encode_auth(&cfg(), format, AUTH_ID, nonce, &canonical_tag(), out).unwrap();
}

fn request_frame(format: WireFormat, out: &mut PackedBits) {
    encode_request(&cfg(), format, &canonical_request(), out).unwrap();
}

fn response_frame(format: WireFormat, out: &mut PackedBits) {
    encode_response(&cfg(), format, &canonical_response(), out).unwrap();
}

/// `encode`'s frame in each of [`FORMATS`], encoded in memory.
fn frames(encode: fn(WireFormat, &mut PackedBits)) -> [PackedBits; 2] {
    FORMATS.map(|(format, _)| {
        let mut frame = PackedBits::new();
        encode(format, &mut frame);
        frame
    })
}

/// Checks one message's frames: the `Legacy` frame carries exactly the
/// oracle's bits, and each frame matches its committed vector and parses
/// back from it.
fn check_formats(
    name: &str,
    encode: fn(WireFormat, &mut PackedBits),
    oracle: Vec<bool>,
    parses_back: impl Fn(WireFormat, &PackedBits),
) {
    let frames = frames(encode);
    assert_eq!(
        frames[1],
        legacy_packed(&oracle),
        "{name}: legacy vs oracle"
    );
    for ((format, suffix), frame) in FORMATS.into_iter().zip(&frames) {
        let committed = check_vector(&format!("{name}_{suffix}"), frame);
        parses_back(format, &committed);
    }
}

#[test]
fn hello_vectors_are_byte_stable() {
    let cfg = cfg();
    let oracle = cfg.encode_hello(HELLO.0, HELLO.1).unwrap();
    check_formats("hello", hello_frame, oracle, |format, committed| {
        let parsed = parse_hello(&cfg, format, &mut BitCursor::new(committed)).unwrap();
        assert_eq!(parsed, HELLO);
        if format == WireFormat::Legacy {
            assert_eq!(cfg.decode_hello(&bools(committed)).unwrap(), HELLO);
        }
    });
}

#[test]
fn auth_vectors_are_byte_stable() {
    let cfg = cfg();
    let (tag, nonce) = (canonical_tag(), Nonce::from_value(AUTH_NONCE));
    let oracle = cfg.encode_auth(AUTH_ID, nonce, &tag).unwrap();
    check_formats("auth", auth_frame, oracle, |format, committed| {
        let (id, n, mac) = parse_auth(&cfg, format, &mut BitCursor::new(committed)).unwrap();
        assert_eq!((id, n), (AUTH_ID, nonce));
        assert_eq!(mac, truncated_tag_value(&cfg, &tag).unwrap());
        if format == WireFormat::Legacy {
            let (id, n, tag_bits) = cfg.decode_auth(&bools(committed)).unwrap();
            assert_eq!((id, n), (AUTH_ID, nonce));
            assert_eq!(tag_bits, cfg.truncate_tag(&tag));
        }
    });
}

#[test]
fn request_vectors_are_byte_stable() {
    let cfg = cfg();
    let req = canonical_request();
    let oracle = cfg.encode_request(&req).unwrap();
    check_formats("request", request_frame, oracle, |format, committed| {
        let parsed = parse_request(&cfg, format, &mut BitCursor::new(committed)).unwrap();
        assert_eq!(parsed, req);
        if format == WireFormat::Legacy {
            assert_eq!(cfg.decode_request(&bools(committed)).unwrap(), req);
        }
    });
}

#[test]
fn response_vectors_are_byte_stable() {
    let cfg = cfg();
    let resp = canonical_response();
    let oracle = cfg.encode_response(&resp).unwrap();
    check_formats("response", response_frame, oracle, |format, committed| {
        let parsed = parse_response(&cfg, format, &mut BitCursor::new(committed)).unwrap();
        assert_eq!(parsed, resp);
        if format == WireFormat::Legacy {
            assert_eq!(cfg.decode_response(&bools(committed)).unwrap(), resp);
        }
    });
}

/// The packed frames must stay strictly smaller than the legacy frames
/// they replace — the headline airtime win this format exists for. The
/// frames are encoded in memory (the tests above pin their bytes), never
/// read from the vector files another test may be regenerating.
#[test]
fn packed_vectors_beat_legacy_sizes() {
    for (name, encode) in [
        ("hello", hello_frame as fn(WireFormat, &mut PackedBits)),
        ("auth", auth_frame),
        ("request", request_frame),
        ("response", response_frame),
    ] {
        let [packed, legacy] = frames(encode);
        assert!(
            packed.len() < legacy.len(),
            "{name}: packed {} bits should beat legacy {}",
            packed.len(),
            legacy.len()
        );
    }
}
