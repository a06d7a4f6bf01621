//! Cryptographic primitive benchmarks: hashing, MACs, the simulated IBC
//! operations, the session spread-code derivation, and the authority's
//! code-pool derivation — the fast paths against their retained
//! references (the `fast`/`reference` pairs the CI bench-regression gate
//! watches).

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use jrsnd::predist::derive_code_pool;
use jrsnd_crypto::hmac::{hmac_sha256, HmacKey};
use jrsnd_crypto::ibc::{Authority, KeyRing, NodeId, PairKey};
use jrsnd_crypto::nonce::Nonce;
use jrsnd_crypto::session::{derive_session_code, SessionCodeCache};
use jrsnd_crypto::sha256::sha256;
use jrsnd_dsss::code::{CodeId, SpreadCode};

fn bench_hash(c: &mut Criterion) {
    let mut group = c.benchmark_group("sha256");
    for size in [64usize, 1024, 16 * 1024] {
        let data = vec![0xABu8; size];
        group.throughput(Throughput::Bytes(size as u64));
        group.bench_function(format!("{size}B"), |b| b.iter(|| black_box(sha256(&data))));
    }
    group.finish();
}

fn bench_hmac(c: &mut Criterion) {
    let data = vec![0xCDu8; 256];
    c.bench_function("hmac_sha256_256B", |b| {
        b.iter(|| black_box(hmac_sha256(b"key material", &data)))
    });
}

fn bench_ibc(c: &mut Criterion) {
    let authority = Authority::from_seed(b"bench");
    let key = authority.issue(NodeId(1));
    let mut group = c.benchmark_group("ibc");
    group.bench_function("issue", |b| {
        b.iter(|| black_box(authority.issue(NodeId(7))))
    });
    group.bench_function("shared_key", |b| {
        b.iter(|| black_box(key.shared_key(NodeId(2))))
    });
    let msg = vec![0u8; 200];
    group.bench_function("sign", |b| b.iter(|| black_box(key.sign(&msg))));
    let sig = key.sign(&msg);
    let verifier = authority.verifier();
    group.bench_function("verify", |b| {
        b.iter(|| black_box(verifier.verify(&msg, &sig)))
    });
    group.finish();
}

fn bench_session_code(c: &mut Criterion) {
    let authority = Authority::from_seed(b"bench");
    let key = authority.issue(NodeId(1)).shared_key(NodeId(2));
    c.bench_function("derive_session_code_512chips", |b| {
        b.iter(|| {
            black_box(derive_session_code(
                &key,
                Nonce::from_value(0xAAAA),
                Nonce::from_value(0x5555),
                512,
            ))
        })
    });
}

/// Precomputed-pad HMAC (2 compressions/tag) against the from-scratch
/// allocating reference.
fn bench_hmac_kernel(c: &mut Criterion) {
    let data = vec![0xCDu8; 256];
    let key = HmacKey::precompute(b"key material");
    let mut group = c.benchmark_group("hmac_kernel");
    group.bench_function(BenchmarkId::new("fast", "one_256B"), |b| {
        b.iter(|| black_box(key.mac(&data)))
    });
    group.bench_function(BenchmarkId::new("reference", "one_256B"), |b| {
        b.iter(|| {
            black_box(jrsnd_crypto::hmac::reference::hmac_sha256(
                b"key material",
                &data,
            ))
        })
    });
    group.finish();
}

/// The authority's code pool at engine-mixed's shape (s = 5000 codes of
/// 256 chips): each code's PRF bytes packed straight into chips against
/// one precomputed key, vs the seed's per-code bit expansion (a fresh
/// key per HMAC) and `SpreadCode::from_bits`.
fn bench_code_pool(c: &mut Criterion) {
    const LABEL: &[u8] = b"jr-snd/code-pool";
    let (secret, s, n_chips) = (b"bench master secret".as_slice(), 5000usize, 256usize);
    let reference = || -> Vec<SpreadCode> {
        (0..s as u64)
            .map(|i| {
                SpreadCode::from_bits(&jrsnd_crypto::prf::reference::prf_expand_bits(
                    secret,
                    LABEL,
                    &i.to_be_bytes(),
                    n_chips,
                ))
            })
            .collect()
    };
    let pool = derive_code_pool(secret, s, n_chips);
    for (i, code) in reference().iter().enumerate() {
        assert_eq!(pool.code(CodeId(i as u32)), code, "code {i}");
    }
    let mut group = c.benchmark_group("code_pool");
    group.sample_size(10);
    group.bench_function(BenchmarkId::new("fast", "5000x256"), |b| {
        b.iter(|| black_box(derive_code_pool(secret, s, n_chips)))
    });
    group.bench_function(BenchmarkId::new("reference", "5000x256"), |b| {
        b.iter(|| black_box(reference()))
    });
    group.finish();
}

/// The warm cache-hit path a handshake retry takes, for eight candidate
/// neighbors.
fn bench_session_codes_cached(c: &mut Criterion) {
    let authority = Authority::from_seed(b"bench");
    let mut ring = KeyRing::new(authority.issue(NodeId(1)));
    let keys: Vec<PairKey> = (2..10u32)
        .map(|i| ring.pair_key(NodeId(i)).clone())
        .collect();
    let pairs: Vec<(&PairKey, Nonce, Nonce)> = keys
        .iter()
        .enumerate()
        .map(|(i, key)| (key, Nonce::from_value(0xAAAA), Nonce::from_value(i as u32)))
        .collect();
    let mut group = c.benchmark_group("session_codes");
    let mut cache = SessionCodeCache::new(64);
    group.bench_function(BenchmarkId::new("cached", "m8_512chips"), |b| {
        b.iter(|| {
            for &(key, n_a, n_b) in &pairs {
                black_box(cache.get_or_derive(key, n_a, n_b, 512).len());
            }
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_hash,
    bench_hmac,
    bench_ibc,
    bench_session_code,
    bench_hmac_kernel,
    bench_code_pool,
    bench_session_codes_cached
);
criterion_main!(benches);
