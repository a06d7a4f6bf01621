//! Wire codec benchmarks: the packed word-parallel TLV framing from
//! `jrsnd::wire` against the `Vec<bool>` codec in
//! `jrsnd::messages::reference` (kept as the bit-exact oracle of the
//! `Legacy` format).
//!
//! Two stories, both feeding `BENCH_wire.json`:
//!
//! * `wire/fast/...` vs `wire/reference/...` — full encode+parse
//!   round-trips of the same frames through both codecs. The packed path
//!   writes whole `u64` words into pooled scratch and parses by unaligned
//!   word reads; the reference path materialises a `Vec<bool>` per frame
//!   and walks it bit by bit. These pairs are ratio-gated by
//!   `bench_check`.
//! * `wire/encode_*` / `wire/parse_*` — the packed halves in isolation,
//!   recorded so either direction regressing is visible on its own.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use jrsnd::messages::{ChainEntry, MessageKind, MndpRequest, WireConfig};
use jrsnd::params::Params;
use jrsnd::wire::{self, BitCursor, PackedBits, WireFormat};
use jrsnd_crypto::ibc::{IbSignature, NodeId};
use jrsnd_crypto::mac::AuthTag;
use jrsnd_crypto::nonce::Nonce;

/// The `wire/fast/*` side runs the packed format.
const PACKED: WireFormat = WireFormat::Packed;

fn cfg() -> WireConfig {
    WireConfig::from_params(&Params::table1())
}

/// A three-hop M-NDP request with populated neighbor lists: the largest
/// frame the protocol ships, dominated by the 256-bit signature tags the
/// packed format copies word-at-a-time.
fn sample_request() -> MndpRequest {
    let hop = |id: u32, fill: u8, neighbors: &[u32]| ChainEntry {
        id: NodeId(id),
        neighbors: neighbors.iter().map(|&n| NodeId(n)).collect(),
        signature: IbSignature::from_parts(NodeId(id), [fill; 32]),
    };
    MndpRequest {
        source: NodeId(3),
        nonce: Nonce::from_value(0x5_1234),
        nu: 3,
        chain: vec![
            hop(3, 0x11, &[10, 600, 77]),
            hop(10, 0x22, &[3, 42]),
            hop(600, 0x33, &[10]),
        ],
    }
}

fn bench_hello_pair(c: &mut Criterion) {
    let w = cfg();
    let mut group = c.benchmark_group("wire");
    group.throughput(Throughput::Elements(1));
    let mut scratch = PackedBits::new();
    group.bench_function("fast/hello_roundtrip", |b| {
        b.iter(|| {
            wire::encode_hello(&w, PACKED, MessageKind::Hello, NodeId(0xBEE), &mut scratch)
                .unwrap();
            black_box(wire::parse_hello(&w, PACKED, &mut BitCursor::new(&scratch)).unwrap())
        })
    });
    group.bench_function("reference/hello_roundtrip", |b| {
        b.iter(|| {
            let bits = w.encode_hello(MessageKind::Hello, NodeId(0xBEE)).unwrap();
            black_box(w.decode_hello(&bits).unwrap())
        })
    });
    group.finish();
}

fn bench_auth_pair(c: &mut Criterion) {
    let w = cfg();
    let tag = AuthTag([0xA5; 32]);
    let mut group = c.benchmark_group("wire");
    group.throughput(Throughput::Elements(1));
    let mut scratch = PackedBits::new();
    group.bench_function("fast/auth_roundtrip", |b| {
        b.iter(|| {
            wire::encode_auth(
                &w,
                PACKED,
                NodeId(2),
                Nonce::from_value(0xBEEF),
                &tag,
                &mut scratch,
            )
            .unwrap();
            black_box(wire::parse_auth(&w, PACKED, &mut BitCursor::new(&scratch)).unwrap())
        })
    });
    group.bench_function("reference/auth_roundtrip", |b| {
        b.iter(|| {
            let bits = w
                .encode_auth(NodeId(2), Nonce::from_value(0xBEEF), &tag)
                .unwrap();
            black_box(w.decode_auth(&bits).unwrap())
        })
    });
    group.finish();
}

fn bench_request_pair(c: &mut Criterion) {
    let w = cfg();
    let req = sample_request();
    let mut group = c.benchmark_group("wire");
    group.throughput(Throughput::Elements(1));
    let mut scratch = PackedBits::new();
    group.bench_function("fast/request_roundtrip", |b| {
        b.iter(|| {
            wire::encode_request(&w, PACKED, &req, &mut scratch).unwrap();
            black_box(wire::parse_request(&w, PACKED, &mut BitCursor::new(&scratch)).unwrap())
        })
    });
    group.bench_function("reference/request_roundtrip", |b| {
        b.iter(|| {
            let bits = w.encode_request(&req).unwrap();
            black_box(w.decode_request(&bits).unwrap())
        })
    });
    group.finish();
}

fn bench_halves(c: &mut Criterion) {
    let w = cfg();
    let req = sample_request();
    let mut group = c.benchmark_group("wire");
    group.throughput(Throughput::Elements(1));
    let mut scratch = PackedBits::new();
    group.bench_function("encode_hello", |b| {
        b.iter(|| {
            wire::encode_hello(&w, PACKED, MessageKind::Hello, NodeId(0xBEE), &mut scratch)
                .unwrap();
            black_box(scratch.len())
        })
    });
    let mut hello = PackedBits::new();
    wire::encode_hello(&w, PACKED, MessageKind::Hello, NodeId(0xBEE), &mut hello).unwrap();
    group.bench_function("parse_hello", |b| {
        b.iter(|| black_box(wire::parse_hello(&w, PACKED, &mut BitCursor::new(&hello)).unwrap()))
    });
    let mut enc_scratch = PackedBits::new();
    group.bench_function("encode_request", |b| {
        b.iter(|| {
            wire::encode_request(&w, PACKED, &req, &mut enc_scratch).unwrap();
            black_box(enc_scratch.len())
        })
    });
    let mut request = PackedBits::new();
    wire::encode_request(&w, PACKED, &req, &mut request).unwrap();
    group.bench_function("parse_request", |b| {
        b.iter(|| {
            black_box(wire::parse_request(&w, PACKED, &mut BitCursor::new(&request)).unwrap())
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_hello_pair,
    bench_auth_pair,
    bench_request_pair,
    bench_halves
);
criterion_main!(benches);
