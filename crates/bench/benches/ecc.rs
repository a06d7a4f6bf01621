//! Reed–Solomon and μ-expansion codec benchmarks at the message shapes
//! the protocol actually uses (HELLO = 21 bits, AUTH = 80 bits, M-NDP
//! request ≈ 1 kbit).

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use jrsnd_ecc::expand::{self, ExpansionCode, ExpansionScratch};
use jrsnd_ecc::rs::{self, RsCode, RsScratch};
use rand::{Rng, SeedableRng};

fn bench_rs(c: &mut Criterion) {
    let mut rng = rand::rngs::StdRng::seed_from_u64(1);
    let mut group = c.benchmark_group("reed_solomon");
    for (n, k) in [(12usize, 6usize), (40, 20), (255, 127)] {
        let code = RsCode::new(n, k).unwrap();
        let data: Vec<u8> = (0..k).map(|_| rng.gen()).collect();
        let clean = code.encode(&data).unwrap();
        group.bench_with_input(
            BenchmarkId::new("encode", format!("{n}/{k}")),
            &k,
            |b, _| b.iter(|| black_box(code.encode(&data).unwrap())),
        );
        // Worst-case decode: t errors present.
        let mut corrupted = clean.clone();
        for i in 0..code.t() {
            corrupted[i * 2] ^= 0x5A;
        }
        group.bench_with_input(
            BenchmarkId::new("decode_t_errors", format!("{n}/{k}")),
            &k,
            |b, _| {
                b.iter(|| {
                    let mut buf = corrupted.clone();
                    black_box(code.decode(&mut buf, &[]).unwrap())
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("decode_clean", format!("{n}/{k}")),
            &k,
            |b, _| {
                b.iter(|| {
                    let mut buf = clean.clone();
                    black_box(code.decode(&mut buf, &[]).unwrap())
                })
            },
        );
    }
    group.finish();
}

/// The codec as a transceiver runs it: every frame through one pooled
/// `ExpansionScratch`, which keeps one RS code per frame shape.
fn bench_expansion(c: &mut Criterion) {
    let code = ExpansionCode::new(1.0).unwrap();
    let mut scratch = ExpansionScratch::new();
    let (mut coded, mut out) = (Vec::new(), Vec::new());
    let mut group = c.benchmark_group("mu_expansion");
    let mut frames = Vec::new();
    for (name, bits) in [
        ("hello_21b", 21usize),
        ("auth_80b", 80),
        ("mndp_req_1072b", 1072),
    ] {
        let msg: Vec<bool> = (0..bits).map(|i| i % 3 == 0).collect();
        let clean = code.encode_bits(&msg).unwrap();
        let mut erased = vec![false; clean.len()];
        for e in erased.iter_mut().take(clean.len() * 2 / 5) {
            *e = true;
        }
        group.bench_function(BenchmarkId::new("encode", name), |b| {
            b.iter(|| {
                code.encode_bits_into(&msg, &mut scratch, &mut coded)
                    .unwrap();
                black_box(coded.len())
            })
        });
        group.bench_function(BenchmarkId::new("decode_40pct_erased", name), |b| {
            b.iter(|| {
                code.decode_bits_into(&clean, &erased, bits, &mut scratch, &mut out)
                    .unwrap();
                black_box(out.len())
            })
        });
        frames.push((msg, erased));
    }
    // A handshake's frame sequence: a HELLO, then an AUTH, each encoded
    // and decoded, through the one scratch.
    group.bench_function("handshake_frames", |b| {
        b.iter(|| {
            for (msg, erased) in &frames[..2] {
                code.encode_bits_into(msg, &mut scratch, &mut coded)
                    .unwrap();
                code.decode_bits_into(&coded, erased, msg.len(), &mut scratch, &mut out)
                    .unwrap();
            }
            black_box(out.len())
        })
    });
    group.finish();
}

/// Table-driven LFSR encoder vs the Poly long-division reference, at the
/// classic RS(255,223) shape.
fn bench_rs_encode_kernels(c: &mut Criterion) {
    let mut rng = rand::rngs::StdRng::seed_from_u64(2);
    let code = RsCode::new(255, 223).unwrap();
    let data: Vec<u8> = (0..223).map(|_| rng.gen()).collect();
    let mut out = vec![0u8; 255];
    let mut group = c.benchmark_group("rs_encode");
    group.bench_function("fast/255_223", |b| {
        b.iter(|| {
            code.encode_into(black_box(&data), &mut out).unwrap();
            black_box(out[254])
        })
    });
    group.bench_function("reference/255_223", |b| {
        b.iter(|| black_box(rs::reference::encode(&code, black_box(&data)).unwrap()))
    });
    group.finish();
}

/// Scratch-reusing errors-and-erasures decode vs the Poly reference, with
/// the mixed corruption a reactive jammer produces: a flagged erasure
/// burst plus scattered silent errors.
fn bench_rs_decode_kernels(c: &mut Criterion) {
    let mut rng = rand::rngs::StdRng::seed_from_u64(3);
    let code = RsCode::new(255, 223).unwrap();
    let data: Vec<u8> = (0..223).map(|_| rng.gen()).collect();
    let clean = code.encode(&data).unwrap();
    // 20 erasures + 6 errors: 2*6 + 20 = 32 = n - k, full capacity.
    let era: Vec<usize> = (40..60).collect();
    let mut corrupted = clean.clone();
    for &p in &era {
        corrupted[p] ^= 0xA5;
    }
    for i in 0..6 {
        corrupted[i * 37] ^= 0x11;
    }
    let mut scratch = RsScratch::new();
    let mut group = c.benchmark_group("rs_decode");
    group.bench_function("fast/255_223_mixed", |b| {
        b.iter(|| {
            let mut buf = corrupted.clone();
            black_box(code.decode_with(&mut buf, &era, &mut scratch).unwrap())
        })
    });
    group.bench_function("reference/255_223_mixed", |b| {
        b.iter(|| {
            let mut buf = corrupted.clone();
            black_box(rs::reference::decode(&code, &mut buf, &era).unwrap())
        })
    });
    group.finish();
}

/// Whole-frame μ-expansion round-trip (encode, 40% erasure burst, decode)
/// through the word-parallel scratch path vs the allocating reference.
fn bench_expand_roundtrip(c: &mut Criterion) {
    let mut rng = rand::rngs::StdRng::seed_from_u64(4);
    let code = ExpansionCode::new(1.0).unwrap();
    let mut group = c.benchmark_group("expand_roundtrip");
    for (name, bits) in [("hello_42b", 42usize), ("mndp_req_1072b", 1072)] {
        let msg: Vec<bool> = (0..bits).map(|_| rng.gen()).collect();
        let clean = code.encode_bits(&msg).unwrap();
        let mut erased = vec![false; clean.len()];
        let mut jammed = clean.clone();
        for (c, e) in jammed
            .iter_mut()
            .zip(erased.iter_mut())
            .take(clean.len() * 2 / 5)
        {
            *c = !*c;
            *e = true;
        }
        let mut scratch = ExpansionScratch::new();
        let mut coded = Vec::new();
        let mut out = Vec::new();
        group.bench_function(BenchmarkId::new("fast", name), |b| {
            b.iter(|| {
                code.encode_bits_into(black_box(&msg), &mut scratch, &mut coded)
                    .unwrap();
                code.decode_bits_into(black_box(&jammed), &erased, bits, &mut scratch, &mut out)
                    .unwrap();
                black_box(out.len())
            })
        });
        group.bench_function(BenchmarkId::new("reference", name), |b| {
            b.iter(|| {
                black_box(expand::reference::encode_bits(&code, black_box(&msg)).unwrap());
                black_box(
                    expand::reference::decode_bits(&code, black_box(&jammed), &erased, bits)
                        .unwrap(),
                )
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_rs,
    bench_expansion,
    bench_rs_encode_kernels,
    bench_rs_decode_kernels,
    bench_expand_roundtrip
);
criterion_main!(benches);
