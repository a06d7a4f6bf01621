//! Simulated identity-based cryptography (IBC).
//!
//! The paper's mutual authentication rests on the certificateless scheme of
//! Zhang et al. \[13\] over Boneh–Franklin pairings \[14\]: every node's ID is
//! its public key, the authority issues an ID-based private key before
//! deployment, any two nodes can *non-interactively* compute a pairwise
//! shared key `K_AB`, and nodes sign M-NDP messages with ID-based
//! signatures that anyone can verify from the ID alone.
//!
//! ## Substitution (documented in DESIGN.md §3)
//!
//! Implementing BN-curve pairings from scratch is out of scope, so this
//! module *simulates* the IBC oracle with HMAC over an authority master
//! secret. The three properties JR-SND actually uses are preserved:
//!
//! 1. `shared_key(A, B)` is computable exactly by A, B (via their issued
//!    [`IdPrivateKey`]s) and the [`Authority`]; it is symmetric.
//! 2. Signatures are unforgeable without the signer's key and verifiable
//!    given only the signer's ID (via the deployment-issued [`Verifier`]).
//! 3. Compromising a node exposes *that node's* key material only — in the
//!    simulation this is enforced at the model level: the adversary model in
//!    `jrsnd::jammer` is only given the [`IdPrivateKey`]s of compromised
//!    nodes, and no public accessor reveals the master secret.
//!
//! The computational costs (`t_key`, `t_sig`, `t_ver` of Table I) are
//! charged as virtual time by the protocol layer, not incurred here.

use crate::hmac::{ct_eq, hmac_sha256_parts, HmacKey};
use crate::prf::derive_key;
use rand::RngCore;
use std::fmt;

/// A node identity — the public key of the IBC scheme.
///
/// The wire format carries `l_id` bits (16 by default, Table I); the ID
/// space is kept `u32` so experiments can exceed 65 536 nodes if desired.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct NodeId(pub u32);

impl NodeId {
    /// Canonical byte encoding used in key derivations.
    pub fn to_bytes(self) -> [u8; 4] {
        self.0.to_be_bytes()
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "node#{}", self.0)
    }
}

impl From<u32> for NodeId {
    fn from(v: u32) -> Self {
        NodeId(v)
    }
}

/// A pairwise shared key `K_AB` (= `K_BA`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SharedKey(pub [u8; 32]);

impl SharedKey {
    /// Borrow the raw key bytes.
    pub fn as_bytes(&self) -> &[u8; 32] {
        &self.0
    }
}

/// A pairwise key with its HMAC pad states precomputed: what a handshake
/// MACs its AUTH frames with and derives its session code from.
#[derive(Debug, Clone)]
pub struct PairKey {
    shared: SharedKey,
    hmac: HmacKey,
}

impl PairKey {
    /// Precomputes the HMAC pads of `shared` (two compressions).
    pub fn new(shared: SharedKey) -> Self {
        PairKey {
            hmac: HmacKey::precompute(shared.as_bytes()),
            shared,
        }
    }

    /// The pairwise key `K_AB`.
    pub fn shared(&self) -> &SharedKey {
        &self.shared
    }

    /// `K_AB`'s precomputed HMAC pads.
    pub fn hmac(&self) -> &HmacKey {
        &self.hmac
    }
}

/// A node's identity key with a memo of the [`PairKey`]s it has derived,
/// one per peer.
///
/// `K_AB` is a non-interactive function of the two identities, so it and
/// its HMAC pads never change: a node that meets the same peer again, or
/// retries a handshake, reads them from the ring instead of deriving them
/// again. The memo holds at most [`KeyRing::CAPACITY`] peers and then
/// replaces its entries oldest first, so a stream of forged peer ids
/// cannot grow it.
///
/// # Examples
///
/// ```
/// use jrsnd_crypto::ibc::{Authority, KeyRing, NodeId, PairKey};
///
/// let authority = Authority::from_seed(b"demo");
/// let mut ring = KeyRing::new(authority.issue(NodeId(1)));
/// let k = *ring.pair_key(NodeId(2)).shared();
/// assert_eq!(k, authority.shared_key(NodeId(1), NodeId(2)));
/// // The second lookup is served from the memo.
/// assert_eq!(ring.pair_key(NodeId(2)).shared(), &k);
/// ```
#[derive(Debug, Clone)]
pub struct KeyRing {
    key: IdPrivateKey,
    pairs: Vec<(NodeId, PairKey)>,
    /// The entry the next miss replaces once the memo is full.
    next: usize,
}

impl KeyRing {
    /// Peers whose pair keys one ring remembers.
    pub const CAPACITY: usize = 64;

    /// A ring over `key` with an empty memo.
    pub fn new(key: IdPrivateKey) -> Self {
        KeyRing {
            key,
            pairs: Vec::new(),
            next: 0,
        }
    }

    /// The identity the ring belongs to.
    pub fn id(&self) -> NodeId {
        self.key.id
    }

    /// The pair key with `peer`: `K_AB` and its pads, derived on the first
    /// request and read from the memo after that.
    pub fn pair_key(&mut self, peer: NodeId) -> &PairKey {
        let at = match self.pairs.iter().position(|(p, _)| *p == peer) {
            Some(at) => at,
            None => {
                let entry = (peer, PairKey::new(self.key.shared_key(peer)));
                if self.pairs.len() < Self::CAPACITY {
                    self.pairs.push(entry);
                    self.pairs.len() - 1
                } else {
                    let at = self.next;
                    self.next = (at + 1) % Self::CAPACITY;
                    self.pairs[at] = entry;
                    at
                }
            }
        };
        &self.pairs[at].1
    }
}

impl From<IdPrivateKey> for KeyRing {
    fn from(key: IdPrivateKey) -> Self {
        KeyRing::new(key)
    }
}

/// An ID-based signature (tag truncated on the wire to `l_sig` bits; the
/// in-memory tag keeps full width).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IbSignature {
    signer: NodeId,
    tag: [u8; 32],
}

impl IbSignature {
    /// The claimed signer.
    pub fn signer(&self) -> NodeId {
        self.signer
    }

    /// The raw tag (for wire-length accounting/tests).
    pub fn tag(&self) -> &[u8; 32] {
        &self.tag
    }

    /// Produces a deliberately invalid signature claiming `signer` — used
    /// by the DoS attack model to inject fake requests.
    pub fn forged(signer: NodeId, filler: u8) -> Self {
        IbSignature {
            signer,
            tag: [filler; 32],
        }
    }

    /// Reassembles a signature from its wire parts (signer + raw tag).
    ///
    /// Grants no forging power beyond [`IbSignature::forged`]: an invalid
    /// tag still fails verification.
    pub fn from_parts(signer: NodeId, tag: [u8; 32]) -> Self {
        IbSignature { signer, tag }
    }
}

/// The MANET authority: generates the master secrets, issues private keys
/// and verifiers before deployment.
#[derive(Debug, Clone)]
pub struct Authority {
    nike_master: [u8; 32],
    sig_master: [u8; 32],
}

impl Authority {
    /// Creates an authority with master secrets drawn from `rng`.
    pub fn new(rng: &mut impl RngCore) -> Self {
        let mut seed = [0u8; 32];
        rng.fill_bytes(&mut seed);
        Authority::from_seed(&seed)
    }

    /// Deterministic construction from a seed (for replayable experiments).
    pub fn from_seed(seed: &[u8]) -> Self {
        Authority {
            nike_master: derive_key(seed, b"jr-snd/ibc/nike-master", b""),
            sig_master: derive_key(seed, b"jr-snd/ibc/sig-master", b""),
        }
    }

    /// Issues the ID-based private key for `id` (pre-deployment step).
    pub fn issue(&self, id: NodeId) -> IdPrivateKey {
        IdPrivateKey {
            id,
            nike_master: self.nike_master,
            sig_key: derive_key(&self.sig_master, b"per-id-sig", &id.to_bytes()),
        }
    }

    /// Issues the signature verifier distributed to every legitimate node.
    pub fn verifier(&self) -> Verifier {
        Verifier {
            sig_master: self.sig_master,
        }
    }

    /// The authority can compute any pairwise key (it knows everything).
    pub fn shared_key(&self, a: NodeId, b: NodeId) -> SharedKey {
        shared_key_internal(&self.nike_master, a, b)
    }
}

fn shared_key_internal(nike_master: &[u8; 32], a: NodeId, b: NodeId) -> SharedKey {
    let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
    let tag = hmac_sha256_parts(nike_master, &[b"nike", &lo.to_bytes(), &hi.to_bytes()]);
    SharedKey(tag)
}

/// A node's ID-based private key `K_A⁻¹`.
///
/// In the real scheme this is a pairing group element; here it is the
/// minimal capability bundle: enough to derive any `K_A·` and to sign as
/// `A`, and nothing that lets other nodes' keys be recovered *through the
/// public API*.
#[derive(Debug, Clone)]
pub struct IdPrivateKey {
    id: NodeId,
    nike_master: [u8; 32],
    sig_key: [u8; 32],
}

impl IdPrivateKey {
    /// The identity this key belongs to.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// Non-interactively computes the shared key with `peer`
    /// (`K_AB = K_BA`, Sakai–Ohgishi–Kasahara-style).
    ///
    /// # Examples
    ///
    /// ```
    /// use jrsnd_crypto::ibc::{Authority, NodeId};
    ///
    /// let authority = Authority::from_seed(b"demo");
    /// let ka = authority.issue(NodeId(7));
    /// let kb = authority.issue(NodeId(13));
    /// assert_eq!(ka.shared_key(NodeId(13)), kb.shared_key(NodeId(7)));
    /// ```
    pub fn shared_key(&self, peer: NodeId) -> SharedKey {
        shared_key_internal(&self.nike_master, self.id, peer)
    }

    /// Signs a message as this identity.
    pub fn sign(&self, message: &[u8]) -> IbSignature {
        IbSignature {
            signer: self.id,
            tag: hmac_sha256_parts(&self.sig_key, &[b"ibs", message]),
        }
    }
}

/// The public verification capability distributed to all legitimate nodes.
///
/// In real IBC this is just the system public parameters; in the simulation
/// it re-derives the per-ID signing key, so it must only ever be handed to
/// model components representing legitimate nodes (the adversary model
/// receives only compromised nodes' [`IdPrivateKey`]s).
#[derive(Debug, Clone)]
pub struct Verifier {
    sig_master: [u8; 32],
}

impl Verifier {
    /// Verifies that `sig` is a valid signature by `sig.signer()` over
    /// `message`.
    pub fn verify(&self, message: &[u8], sig: &IbSignature) -> bool {
        let sig_key = derive_key(&self.sig_master, b"per-id-sig", &sig.signer.to_bytes());
        let expect = hmac_sha256_parts(&sig_key, &[b"ibs", message]);
        ct_eq(&expect, &sig.tag)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (Authority, IdPrivateKey, IdPrivateKey, Verifier) {
        let authority = Authority::from_seed(b"test-seed");
        let a = authority.issue(NodeId(1));
        let b = authority.issue(NodeId(2));
        let v = authority.verifier();
        (authority, a, b, v)
    }

    #[test]
    fn shared_keys_are_symmetric() {
        let (authority, a, b, _) = setup();
        let kab = a.shared_key(NodeId(2));
        let kba = b.shared_key(NodeId(1));
        assert_eq!(kab, kba);
        assert_eq!(authority.shared_key(NodeId(1), NodeId(2)), kab);
        assert_eq!(authority.shared_key(NodeId(2), NodeId(1)), kab);
    }

    #[test]
    fn shared_keys_differ_per_pair() {
        let (_, a, _, _) = setup();
        assert_ne!(a.shared_key(NodeId(2)), a.shared_key(NodeId(3)));
    }

    #[test]
    fn different_authorities_are_disjoint() {
        let auth1 = Authority::from_seed(b"s1");
        let auth2 = Authority::from_seed(b"s2");
        assert_ne!(
            auth1.shared_key(NodeId(1), NodeId(2)),
            auth2.shared_key(NodeId(1), NodeId(2))
        );
    }

    #[test]
    fn signatures_verify_and_bind_signer_and_message() {
        let (_, a, b, v) = setup();
        let msg = b"M-NDP request payload";
        let sig = a.sign(msg);
        assert_eq!(sig.signer(), NodeId(1));
        assert!(v.verify(msg, &sig));
        assert!(!v.verify(b"tampered", &sig));
        // B's signature on the same message differs and claims B.
        let sig_b = b.sign(msg);
        assert!(v.verify(msg, &sig_b));
        assert_ne!(sig.tag(), sig_b.tag());
    }

    #[test]
    fn forged_signature_fails_verification() {
        let (_, _, _, v) = setup();
        let fake = IbSignature::forged(NodeId(1), 0xAB);
        assert!(!v.verify(b"anything", &fake));
    }

    #[test]
    fn signer_substitution_fails() {
        // Taking A's valid tag but claiming B must not verify.
        let (_, a, _, v) = setup();
        let msg = b"payload";
        let sig = a.sign(msg);
        let stolen = IbSignature {
            signer: NodeId(2),
            tag: *sig.tag(),
        };
        assert!(!v.verify(msg, &stolen));
    }

    #[test]
    fn deterministic_issue() {
        let auth = Authority::from_seed(b"x");
        let k1 = auth.issue(NodeId(9));
        let k2 = auth.issue(NodeId(9));
        assert_eq!(k1.shared_key(NodeId(1)), k2.shared_key(NodeId(1)));
        assert_eq!(k1.sign(b"m").tag(), k2.sign(b"m").tag());
    }

    #[test]
    fn rng_constructed_authority_works() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let auth = Authority::new(&mut rng);
        let a = auth.issue(NodeId(1));
        let b = auth.issue(NodeId(2));
        assert_eq!(a.shared_key(NodeId(2)), b.shared_key(NodeId(1)));
        assert!(auth.verifier().verify(b"m", &a.sign(b"m")));
    }

    #[test]
    fn key_ring_serves_the_derived_pair_keys_past_its_capacity() {
        let (authority, a, _, _) = setup();
        let mut ring = KeyRing::new(a.clone());
        assert_eq!(ring.id(), NodeId(1));
        // Three passes over more peers than the memo holds: first misses,
        // then hits, then misses again once the entries have been replaced.
        let peers = (2..KeyRing::CAPACITY as u32 + 12).map(NodeId);
        for _ in 0..3 {
            for peer in peers.clone() {
                let expect = PairKey::new(a.shared_key(peer));
                let got = ring.pair_key(peer);
                assert_eq!(got.shared(), &authority.shared_key(NodeId(1), peer));
                assert_eq!(got.hmac().mac(b"m"), expect.hmac().mac(b"m"));
            }
            assert_eq!(ring.pairs.len(), KeyRing::CAPACITY);
        }
        // A hit returns the remembered entry.
        let again = ring.pair_key(NodeId(KeyRing::CAPACITY as u32 + 11));
        assert_eq!(
            again.shared(),
            &authority.shared_key(NodeId(1), NodeId(KeyRing::CAPACITY as u32 + 11))
        );
    }

    #[test]
    fn node_id_display_and_bytes() {
        assert_eq!(NodeId(42).to_string(), "node#42");
        assert_eq!(NodeId(0x01020304).to_bytes(), [1, 2, 3, 4]);
        assert_eq!(NodeId::from(7u32), NodeId(7));
    }
}
