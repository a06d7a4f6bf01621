//! SHA-256, implemented from scratch (FIPS 180-4), in two shapes:
//!
//! * the incremental [`Sha256`] hasher and one-shot [`sha256`] — the one
//!   production path, allocation-free end to end (finalization pads in a
//!   fixed buffer instead of a `Vec`), with every block going through the
//!   single compression function [`compress_block`];
//! * [`reference`](mod@reference) — the seed scalar implementation retained verbatim as
//!   the proptest/KAT oracle.
//!
//! The reproduction needs a concrete cryptographic hash for HMAC, the
//! message authentication codes `f_K(·)`, and the session spread-code
//! derivation `h_K(n_A ⊗ n_B)`; no hashing crate is in the offline
//! dependency set, and the algorithm is 200 lines.

use jrsnd_sim::metric_counter;

/// Digest size in bytes.
pub const DIGEST_LEN: usize = 32;
/// Internal block size in bytes (needed by HMAC).
pub const BLOCK_LEN: usize = 64;

const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

/// The SHA-256 initial state, exposed for resumable-state consumers (HMAC
/// precomputation).
pub const INITIAL_STATE: [u32; 8] = H0;

/// Compresses one 64-byte block into `state` (the FIPS 180-4 round
/// function). This is the single compression primitive every hash, MAC
/// and PRF in the crate funnels through.
pub fn compress_block(state: &mut [u32; 8], block: &[u8; BLOCK_LEN]) {
    metric_counter!("crypto.blocks_compressed").inc();
    let mut w = [0u32; 64];
    for (i, chunk) in block.chunks_exact(4).enumerate() {
        w[i] = u32::from_be_bytes(chunk.try_into().expect("4-byte chunk"));
    }
    for i in 16..64 {
        let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
        let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
        w[i] = w[i - 16]
            .wrapping_add(s0)
            .wrapping_add(w[i - 7])
            .wrapping_add(s1);
    }
    let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
    for i in 0..64 {
        let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
        let ch = (e & f) ^ (!e & g);
        let t1 = h
            .wrapping_add(s1)
            .wrapping_add(ch)
            .wrapping_add(K[i])
            .wrapping_add(w[i]);
        let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
        let maj = (a & b) ^ (a & c) ^ (b & c);
        let t2 = s0.wrapping_add(maj);
        h = g;
        g = f;
        f = e;
        e = d.wrapping_add(t1);
        d = c;
        c = b;
        b = a;
        a = t1.wrapping_add(t2);
    }
    state[0] = state[0].wrapping_add(a);
    state[1] = state[1].wrapping_add(b);
    state[2] = state[2].wrapping_add(c);
    state[3] = state[3].wrapping_add(d);
    state[4] = state[4].wrapping_add(e);
    state[5] = state[5].wrapping_add(f);
    state[6] = state[6].wrapping_add(g);
    state[7] = state[7].wrapping_add(h);
}

/// Incremental SHA-256 hasher.
///
/// # Examples
///
/// ```
/// use jrsnd_crypto::sha256::Sha256;
///
/// let mut h = Sha256::new();
/// h.update(b"abc");
/// let digest = h.finalize();
/// assert_eq!(hex(&digest[..4]), "ba7816bf");
/// # fn hex(b: &[u8]) -> String { b.iter().map(|x| format!("{x:02x}")).collect() }
/// ```
#[derive(Debug, Clone)]
pub struct Sha256 {
    state: [u32; 8],
    buffer: [u8; BLOCK_LEN],
    buffer_len: usize,
    total_len: u64,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    /// Creates a fresh hasher.
    pub fn new() -> Self {
        Sha256 {
            state: H0,
            buffer: [0; BLOCK_LEN],
            buffer_len: 0,
            total_len: 0,
        }
    }

    /// Resumes hashing from a saved compression `state` that already
    /// absorbed `total_len` bytes (a whole number of blocks) — the hook
    /// HMAC's precomputed ipad/opad states plug into.
    pub fn resume(state: [u32; 8], total_len: u64) -> Self {
        debug_assert_eq!(total_len % BLOCK_LEN as u64, 0);
        Sha256 {
            state,
            buffer: [0; BLOCK_LEN],
            buffer_len: 0,
            total_len,
        }
    }

    /// Absorbs `data`.
    pub fn update(&mut self, data: &[u8]) {
        self.total_len = self
            .total_len
            .checked_add(data.len() as u64)
            .expect("SHA-256 input exceeds 2^64 bits");
        let mut rest = data;
        if self.buffer_len > 0 {
            let take = rest.len().min(BLOCK_LEN - self.buffer_len);
            self.buffer[self.buffer_len..self.buffer_len + take].copy_from_slice(&rest[..take]);
            self.buffer_len += take;
            rest = &rest[take..];
            if self.buffer_len == BLOCK_LEN {
                let block = self.buffer;
                compress_block(&mut self.state, &block);
                self.buffer_len = 0;
            }
            if self.buffer_len > 0 {
                // Data fit entirely into the partial buffer.
                return;
            }
        }
        let mut chunks = rest.chunks_exact(BLOCK_LEN);
        for block in &mut chunks {
            let mut b = [0u8; BLOCK_LEN];
            b.copy_from_slice(block);
            compress_block(&mut self.state, &b);
        }
        let tail = chunks.remainder();
        self.buffer[..tail.len()].copy_from_slice(tail);
        self.buffer_len = tail.len();
    }

    /// Finishes and returns the 32-byte digest. Heap-allocation-free: the
    /// padding is written into a fixed one-block buffer.
    pub fn finalize(mut self) -> [u8; DIGEST_LEN] {
        // Padding: the buffered tail, 0x80, zeros, then the message length
        // in bits as the block's last 8 bytes. A tail of 56 bytes or more
        // leaves no room for the length, which then takes a block of its
        // own.
        let n = self.buffer_len;
        let mut block = self.buffer;
        block[n] = 0x80;
        block[n + 1..].fill(0);
        if n >= BLOCK_LEN - 8 {
            compress_block(&mut self.state, &block);
            block = [0; BLOCK_LEN];
        }
        block[BLOCK_LEN - 8..].copy_from_slice(&self.total_len.wrapping_mul(8).to_be_bytes());
        compress_block(&mut self.state, &block);
        metric_counter!("crypto.hashes").inc();
        let mut out = [0u8; DIGEST_LEN];
        for (i, w) in self.state.iter().enumerate() {
            out[i * 4..(i + 1) * 4].copy_from_slice(&w.to_be_bytes());
        }
        out
    }
}

/// One-shot SHA-256.
///
/// # Examples
///
/// ```
/// let d = jrsnd_crypto::sha256::sha256(b"");
/// assert_eq!(d[0], 0xe3);
/// ```
pub fn sha256(data: &[u8]) -> [u8; DIGEST_LEN] {
    let mut h = Sha256::new();
    h.update(data);
    h.finalize()
}

/// The seed scalar implementation, retained verbatim as the equivalence
/// oracle for the allocation-free scalar path.
pub mod reference {
    use super::{BLOCK_LEN, DIGEST_LEN, H0, K};

    /// Incremental SHA-256 hasher (seed implementation).
    #[derive(Debug, Clone)]
    pub struct Sha256 {
        state: [u32; 8],
        buffer: [u8; BLOCK_LEN],
        buffer_len: usize,
        total_len: u64,
    }

    impl Default for Sha256 {
        fn default() -> Self {
            Self::new()
        }
    }

    impl Sha256 {
        /// Creates a fresh hasher.
        pub fn new() -> Self {
            Sha256 {
                state: H0,
                buffer: [0; BLOCK_LEN],
                buffer_len: 0,
                total_len: 0,
            }
        }

        /// Absorbs `data`.
        pub fn update(&mut self, data: &[u8]) {
            self.total_len = self
                .total_len
                .checked_add(data.len() as u64)
                .expect("SHA-256 input exceeds 2^64 bits");
            let mut rest = data;
            if self.buffer_len > 0 {
                let take = rest.len().min(BLOCK_LEN - self.buffer_len);
                self.buffer[self.buffer_len..self.buffer_len + take].copy_from_slice(&rest[..take]);
                self.buffer_len += take;
                rest = &rest[take..];
                if self.buffer_len == BLOCK_LEN {
                    let block = self.buffer;
                    self.compress(&block);
                    self.buffer_len = 0;
                }
                if self.buffer_len > 0 {
                    // Data fit entirely into the partial buffer.
                    return;
                }
            }
            let mut chunks = rest.chunks_exact(BLOCK_LEN);
            for block in &mut chunks {
                let mut b = [0u8; BLOCK_LEN];
                b.copy_from_slice(block);
                self.compress(&b);
            }
            let tail = chunks.remainder();
            self.buffer[..tail.len()].copy_from_slice(tail);
            self.buffer_len = tail.len();
        }

        /// Finishes and returns the 32-byte digest.
        pub fn finalize(mut self) -> [u8; DIGEST_LEN] {
            let bit_len = self.total_len.wrapping_mul(8);
            // Append 0x80 then zeros then the 64-bit length.
            let mut pad = [0u8; BLOCK_LEN * 2];
            pad[0] = 0x80;
            let pad_len = if self.buffer_len < 56 {
                56 - self.buffer_len
            } else {
                BLOCK_LEN + 56 - self.buffer_len
            };
            let mut tail = Vec::with_capacity(pad_len + 8);
            tail.extend_from_slice(&pad[..pad_len]);
            tail.extend_from_slice(&bit_len.to_be_bytes());
            // Bypass total_len accounting for the padding bytes.
            let mut rest: &[u8] = &tail;
            while !rest.is_empty() {
                let take = rest.len().min(BLOCK_LEN - self.buffer_len);
                self.buffer[self.buffer_len..self.buffer_len + take].copy_from_slice(&rest[..take]);
                self.buffer_len += take;
                rest = &rest[take..];
                if self.buffer_len == BLOCK_LEN {
                    let block = self.buffer;
                    self.compress(&block);
                    self.buffer_len = 0;
                }
            }
            debug_assert_eq!(self.buffer_len, 0);
            let mut out = [0u8; DIGEST_LEN];
            for (i, w) in self.state.iter().enumerate() {
                out[i * 4..(i + 1) * 4].copy_from_slice(&w.to_be_bytes());
            }
            out
        }

        fn compress(&mut self, block: &[u8; BLOCK_LEN]) {
            let mut w = [0u32; 64];
            for (i, chunk) in block.chunks_exact(4).enumerate() {
                w[i] = u32::from_be_bytes(chunk.try_into().expect("4-byte chunk"));
            }
            for i in 16..64 {
                let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
                let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
                w[i] = w[i - 16]
                    .wrapping_add(s0)
                    .wrapping_add(w[i - 7])
                    .wrapping_add(s1);
            }
            let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = self.state;
            for i in 0..64 {
                let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
                let ch = (e & f) ^ (!e & g);
                let t1 = h
                    .wrapping_add(s1)
                    .wrapping_add(ch)
                    .wrapping_add(K[i])
                    .wrapping_add(w[i]);
                let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
                let maj = (a & b) ^ (a & c) ^ (b & c);
                let t2 = s0.wrapping_add(maj);
                h = g;
                g = f;
                f = e;
                e = d.wrapping_add(t1);
                d = c;
                c = b;
                b = a;
                a = t1.wrapping_add(t2);
            }
            self.state[0] = self.state[0].wrapping_add(a);
            self.state[1] = self.state[1].wrapping_add(b);
            self.state[2] = self.state[2].wrapping_add(c);
            self.state[3] = self.state[3].wrapping_add(d);
            self.state[4] = self.state[4].wrapping_add(e);
            self.state[5] = self.state[5].wrapping_add(f);
            self.state[6] = self.state[6].wrapping_add(g);
            self.state[7] = self.state[7].wrapping_add(h);
        }
    }

    /// One-shot SHA-256 (seed implementation).
    pub fn sha256(data: &[u8]) -> [u8; DIGEST_LEN] {
        let mut h = Sha256::new();
        h.update(data);
        h.finalize()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    // FIPS 180-4 / NIST CAVP test vectors.
    #[test]
    fn nist_vectors() {
        assert_eq!(
            hex(&sha256(b"")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
        assert_eq!(
            hex(&sha256(b"abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
        assert_eq!(
            hex(&sha256(
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"
            )),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
    }

    #[test]
    fn million_a() {
        let mut h = Sha256::new();
        let chunk = [b'a'; 1000];
        for _ in 0..1000 {
            h.update(&chunk);
        }
        assert_eq!(
            hex(&h.finalize()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    #[test]
    fn incremental_equals_one_shot() {
        let data: Vec<u8> = (0..=255u8).cycle().take(1000).collect();
        for split in [0, 1, 55, 56, 63, 64, 65, 500, 999, 1000] {
            let mut h = Sha256::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finalize(), sha256(&data), "split {split}");
        }
    }

    #[test]
    fn boundary_lengths() {
        // Lengths around the padding boundary (55, 56, 64) against
        // recomputed references via incremental self-consistency and
        // known SHA-256("a" * 64).
        let d64 = sha256(&[b'a'; 64]);
        assert_eq!(
            hex(&d64),
            "ffe054fe7ae0cb6dc65c3af9b61d5209f439851db43d0ba5997337df154668eb"
        );
        for len in [55usize, 56, 57, 63, 64, 65, 119, 120, 121] {
            let data = vec![0xABu8; len];
            let mut h = Sha256::new();
            for b in &data {
                h.update(std::slice::from_ref(b));
            }
            assert_eq!(h.finalize(), sha256(&data), "len {len}");
        }
    }

    #[test]
    fn different_inputs_different_digests() {
        assert_ne!(sha256(b"jr-snd"), sha256(b"jr-sne"));
        assert_ne!(sha256(b""), sha256(b"\0"));
    }

    #[test]
    fn scalar_matches_reference_across_lengths() {
        for len in 0..200usize {
            let data: Vec<u8> = (0..len as u8).collect();
            assert_eq!(sha256(&data), reference::sha256(&data), "len {len}");
        }
    }

    #[test]
    fn resume_continues_a_block_aligned_prefix() {
        let mut whole = Sha256::new();
        whole.update(&[0x36; BLOCK_LEN]);
        whole.update(b"suffix");
        let mut prefix = Sha256::new();
        prefix.update(&[0x36; BLOCK_LEN]);
        let mut resumed = Sha256::resume(prefix.state, BLOCK_LEN as u64);
        resumed.update(b"suffix");
        assert_eq!(whole.finalize(), resumed.finalize());
    }
}
