//! Cryptographic toolbox for the JR-SND reproduction.
//!
//! JR-SND's security rests on three cryptographic building blocks, all
//! provided here with zero external crypto dependencies:
//!
//! * [`sha256`] / [`hmac`] / [`prf`] — SHA-256 (FIPS 180-4, validated
//!   against NIST vectors), HMAC-SHA-256 (RFC 4231 vectors), and an
//!   HKDF-style PRF for key and spread-code expansion. One path runs:
//!   every block goes through the one compression function
//!   ([`sha256::compress_block`]), MACs resume from precomputed
//!   [`hmac::HmacKey`] pad states, and the PRF expands into caller-owned
//!   byte buffers, whose bits, read MSB-first, are a spread code's chips.
//!   The seed implementations are retained in `reference` submodules as
//!   the equivalence oracle;
//! * [`ibc`] — a *simulated* identity-based cryptography layer standing in
//!   for the pairing-based scheme of the paper's refs \[13\]/\[14\]: IDs are
//!   public keys, the [`ibc::Authority`] issues [`ibc::IdPrivateKey`]s,
//!   any two nodes non-interactively derive the same pairwise key (which
//!   an [`ibc::KeyRing`] memoises per peer, with its HMAC pads), and
//!   ID-based signatures verify from the ID alone (see DESIGN.md §3 for
//!   why the simulation preserves exactly the properties JR-SND uses);
//! * [`mac`] / [`nonce`] / [`session`] — the handshake MAC `f_K(ID|n)`,
//!   `l_n`-bit replay nonces, and the session spread-code derivation
//!   `C_AB = h_{K_AB}(n_A ⊗ n_B)` into ⌈N/8⌉ code bytes, with a bounded
//!   [`session::SessionCodeCache`] so retries never rederive.
//!
//! # Examples
//!
//! The cryptographic core of one D-NDP mutual authentication:
//!
//! ```
//! use jrsnd_crypto::ibc::{Authority, NodeId};
//! use jrsnd_crypto::mac::{auth_tag, verify_auth_tag};
//! use jrsnd_crypto::nonce::Nonce;
//! use jrsnd_crypto::session::derive_session_code;
//!
//! let authority = Authority::from_seed(b"deployment");
//! let key_a = authority.issue(NodeId(1));
//! let key_b = authority.issue(NodeId(2));
//!
//! // A -> B: {ID_A, n_A, f_K(ID_A | n_A)}
//! let n_a = Nonce::from_value(0x1111);
//! let tag_a = auth_tag(&key_a.shared_key(NodeId(2)), NodeId(1), n_a);
//! assert!(verify_auth_tag(&key_b.shared_key(NodeId(1)), NodeId(1), n_a, &tag_a));
//!
//! // Both sides derive the same session spread code.
//! let n_b = Nonce::from_value(0x2222);
//! let c_ab = derive_session_code(&key_a.shared_key(NodeId(2)), n_a, n_b, 512);
//! let c_ba = derive_session_code(&key_b.shared_key(NodeId(1)), n_b, n_a, 512);
//! assert_eq!(c_ab, c_ba);
//! ```

// Plain safe Rust throughout: no SIMD dispatch, no `#[target_feature]`.
#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod hmac;
pub mod ibc;
pub mod mac;
pub mod nonce;
pub mod prf;
pub mod replay;
pub mod session;
pub mod sha256;

pub use hmac::HmacKey;
pub use ibc::{
    Authority, IbSignature, IdPrivateKey, KeyRing, NodeId, PairKey, SharedKey, Verifier,
};
pub use nonce::Nonce;
pub use session::SessionCodeCache;
