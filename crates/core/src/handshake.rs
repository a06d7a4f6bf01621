//! The D-NDP handshake as explicit per-node state machines.
//!
//! [`crate::dndp`] simulates handshake *outcomes* for Monte-Carlo scale and
//! [`crate::chiplink`] scripts one straight-line run; a real radio stack
//! instead needs event-driven endpoints that consume decoded frames one at
//! a time, validate them, and emit the next transmission. This module is
//! that endpoint layer: an [`Initiator`] (node A) and a [`Responder`]
//! (node B) that step through
//!
//! ```text
//! A  --HELLO-->  B      (spread with every code of A; B finds a shared one)
//! A  <--CONFIRM--  B
//! A  --AUTH_A-->  B      {ID_A, n_A, f_K(ID_A|n_A)}
//! A  <--AUTH_B--  B      {ID_B, n_B, f_K(ID_B|n_B)}
//! ```
//!
//! with strict state checking, MAC verification, replay protection
//! ([`jrsnd_crypto::replay::ReplayGuard`]), and the session spread code
//! `C_AB = h_{K_AB}(n_A ⊗ n_B)` as the final product on both sides.
//!
//! Crypto datapath: each endpoint holds its identity's [`KeyRing`]. As
//! soon as it learns its peer it takes the [`PairKey`] — `K_AB` with its
//! HMAC ipad/opad states precomputed — from the ring, which derives it
//! only the first time it meets that peer, so every tag computation and
//! verification runs on the two-compressions-per-MAC fast path. A driver
//! that lends the same rings to every attempt ([`Initiator::into_keys`],
//! [`Responder::into_keys`]) derives each pair key once. The final
//! handlers resolve the session code's bytes through a shared
//! [`SessionCodeCache`], which expands a miss from the same pads, so a
//! retry — or the opposite endpoint of a locally simulated pair — never
//! rederives `C_AB`, and pack them into a [`SpreadCode`] as the pool's
//! codes are packed.
//!
//! Frames go through [`crate::wire`]'s codec in the endpoint's
//! [`WireFormat`]; this module never branches on the format. A received
//! MAC is one `u64` in either format, checked against
//! [`wire::truncated_tag_value`] of the locally computed tag.

use crate::messages::{MessageKind, WireConfig};
use crate::wire::{self, WireFormat};
use jrsnd_crypto::hmac::HmacKey;
use jrsnd_crypto::ibc::{KeyRing, NodeId, PairKey};
use jrsnd_crypto::mac::auth_tag_keyed;
use jrsnd_crypto::nonce::Nonce;
use jrsnd_crypto::replay::ReplayGuard;
use jrsnd_crypto::session::SessionCodeCache;
use jrsnd_dsss::code::{CodeId, SpreadCode};
use jrsnd_sim::rng::SimRng;
use std::fmt;

/// Why a handshake step was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HandshakeError {
    /// The frame arrived in a state that does not expect it.
    WrongState {
        /// What the endpoint was doing.
        state: &'static str,
    },
    /// The frame failed to parse.
    Malformed,
    /// The authentication tag did not verify.
    BadTag {
        /// Who the frame claimed to be from.
        claimed: NodeId,
    },
    /// The (peer, nonce) pair was already used — a replay.
    Replayed {
        /// The replayed peer.
        peer: NodeId,
    },
    /// The peer id changed mid-handshake.
    PeerMismatch,
    /// The endpoint timed out and is no longer usable.
    TimedOut,
}

impl fmt::Display for HandshakeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HandshakeError::WrongState { state } => write!(f, "unexpected frame in state {state}"),
            HandshakeError::Malformed => write!(f, "frame failed to parse"),
            HandshakeError::BadTag { claimed } => {
                write!(f, "authentication tag from {claimed} did not verify")
            }
            HandshakeError::Replayed { peer } => write!(f, "replayed nonce from {peer}"),
            HandshakeError::PeerMismatch => write!(f, "peer identity changed mid-handshake"),
            HandshakeError::TimedOut => write!(f, "handshake timed out"),
        }
    }
}

impl std::error::Error for HandshakeError {}

/// Whether the `mac` parsed off an AUTH frame is the truncation of the
/// locally computed tag for `(id, nonce)`.
fn mac_matches(wire: &WireConfig, hk: &HmacKey, id: NodeId, nonce: Nonce, mac: u64) -> bool {
    wire::truncated_tag_value(wire, &auth_tag_keyed(hk, id, nonce)).is_ok_and(|v| v == mac)
}

/// A completed handshake: the authenticated peer and the shared session
/// spread code.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Established {
    /// The authenticated logical neighbor.
    pub peer: NodeId,
    /// The code both sides agreed on during discovery.
    pub discovery_code: CodeId,
    /// The fresh session spread code `C_AB`.
    pub session_code: SpreadCode,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum InitiatorState {
    AwaitConfirm,
    AwaitAuthB,
    Done,
    Failed,
}

/// Node A's half of the handshake.
#[derive(Debug)]
pub struct Initiator {
    keys: KeyRing,
    wire: WireConfig,
    format: WireFormat,
    n_chips: usize,
    nonce: Nonce,
    state: InitiatorState,
    peer: Option<NodeId>,
    code: Option<CodeId>,
    /// The pair key for the confirmed peer, from the ring (set on
    /// CONFIRM, used for AUTH_A and AUTH_B and to key the session-code
    /// cache).
    pair: Option<PairKey>,
}

impl Initiator {
    /// Creates an initiator over `keys` (an identity key, or a ring that
    /// already holds pair keys) speaking the given [`WireFormat`]; `rng`
    /// draws the replay nonce `n_A`, the same draw in either format, so
    /// switching formats never perturbs a seeded simulation's nonce
    /// sequence.
    pub fn new_with_format(
        keys: impl Into<KeyRing>,
        wire: WireConfig,
        format: WireFormat,
        n_chips: usize,
        rng: &mut SimRng,
    ) -> Self {
        let nonce = Nonce::random(rng, wire.l_n as u32);
        Initiator {
            keys: keys.into(),
            wire,
            format,
            n_chips,
            nonce,
            state: InitiatorState::AwaitConfirm,
            peer: None,
            code: None,
            pair: None,
        }
    }

    /// The HELLO payload to broadcast (spread with each code in ℂ_A by the
    /// radio layer).
    ///
    /// # Panics
    ///
    /// Panics if the node id exceeds `l_id` bits (checked at issue time in
    /// practice).
    pub fn hello_frame(&self) -> Vec<bool> {
        wire::hello_frame_bools(&self.wire, self.format, MessageKind::Hello, self.keys.id())
            .expect("own id fits l_id")
    }

    /// Ends the endpoint and hands back its key ring, with every pair key
    /// it derived, for the next attempt to start from.
    pub fn into_keys(self) -> KeyRing {
        self.keys
    }

    /// Handles B's CONFIRM (decoded bits) heard on `code`; returns the
    /// AUTH_A frame to send back on the same code.
    ///
    /// # Errors
    ///
    /// [`HandshakeError`] on state, parse, or identity violations.
    pub fn on_confirm(&mut self, bits: &[bool], code: CodeId) -> Result<Vec<bool>, HandshakeError> {
        if self.state != InitiatorState::AwaitConfirm {
            return Err(self.fail_state());
        }
        let peer = match wire::parse_hello_bools(&self.wire, self.format, bits) {
            Ok((MessageKind::Confirm, peer)) if peer != self.keys.id() => peer,
            _ => {
                self.state = InitiatorState::Failed;
                return Err(HandshakeError::Malformed);
            }
        };
        self.peer = Some(peer);
        self.code = Some(code);
        let pair = self.keys.pair_key(peer).clone();
        let tag = auth_tag_keyed(pair.hmac(), self.keys.id(), self.nonce);
        self.pair = Some(pair);
        let frame =
            wire::auth_frame_bools(&self.wire, self.format, self.keys.id(), self.nonce, &tag)
                .expect("fields fit");
        self.state = InitiatorState::AwaitAuthB;
        Ok(frame)
    }

    /// Handles B's AUTH_B; on success the handshake is complete. The
    /// session code resolves through the shared [`SessionCodeCache`] — a
    /// retry (or the peer endpoint in a local simulation) reuses the
    /// cached derivation.
    ///
    /// # Errors
    ///
    /// [`HandshakeError`] on state, parse, tag, or identity violations.
    pub fn on_auth_b_cached(
        &mut self,
        bits: &[bool],
        cache: &mut SessionCodeCache,
    ) -> Result<Established, HandshakeError> {
        if self.state != InitiatorState::AwaitAuthB {
            return Err(self.fail_state());
        }
        let Ok((peer, n_b, mac)) = wire::parse_auth_bools(&self.wire, self.format, bits) else {
            self.state = InitiatorState::Failed;
            return Err(HandshakeError::Malformed);
        };
        if Some(peer) != self.peer {
            self.state = InitiatorState::Failed;
            return Err(HandshakeError::PeerMismatch);
        }
        let pair = self.pair.as_ref().expect("pair key set on CONFIRM");
        if !mac_matches(&self.wire, pair.hmac(), peer, n_b, mac) {
            self.state = InitiatorState::Failed;
            return Err(HandshakeError::BadTag { claimed: peer });
        }
        self.state = InitiatorState::Done;
        Ok(Established {
            peer,
            discovery_code: self.code.expect("set on CONFIRM"),
            session_code: SpreadCode::from_msb_bytes(
                cache.get_or_derive(pair, self.nonce, n_b, self.n_chips),
                self.n_chips,
            ),
        })
    }

    /// Gives up (monitoring timer expired). The endpoint becomes unusable.
    pub fn on_timeout(&mut self) -> HandshakeError {
        self.state = InitiatorState::Failed;
        HandshakeError::TimedOut
    }

    /// Whether the handshake concluded successfully.
    pub fn is_done(&self) -> bool {
        self.state == InitiatorState::Done
    }

    fn fail_state(&mut self) -> HandshakeError {
        let state = match self.state {
            InitiatorState::AwaitConfirm => "await-confirm",
            InitiatorState::AwaitAuthB => "await-auth-b",
            InitiatorState::Done => "done",
            InitiatorState::Failed => "failed",
        };
        HandshakeError::WrongState { state }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ResponderState {
    AwaitHello,
    AwaitAuthA,
    Done,
    Failed,
}

/// Node B's half of the handshake.
#[derive(Debug)]
pub struct Responder {
    keys: KeyRing,
    wire: WireConfig,
    format: WireFormat,
    n_chips: usize,
    nonce: Nonce,
    state: ResponderState,
    peer: Option<NodeId>,
    code: Option<CodeId>,
    /// The pair key for the peer that said HELLO, from the ring (set on
    /// HELLO, used for AUTH_A and AUTH_B and to key the session-code
    /// cache).
    pair: Option<PairKey>,
    replay: ReplayGuard,
}

impl Responder {
    /// Creates a responder over `keys` (an identity key, or a ring that
    /// already holds pair keys) speaking the given [`WireFormat`], with a
    /// replay window of `replay_capacity` remembered `(peer, nonce)`
    /// pairs; `rng` draws the nonce `n_B`.
    ///
    /// # Panics
    ///
    /// Panics if `replay_capacity` is zero.
    pub fn new_with_format(
        keys: impl Into<KeyRing>,
        wire: WireConfig,
        format: WireFormat,
        n_chips: usize,
        replay_capacity: usize,
        rng: &mut SimRng,
    ) -> Self {
        let nonce = Nonce::random(rng, wire.l_n as u32);
        Responder {
            keys: keys.into(),
            wire,
            format,
            n_chips,
            nonce,
            state: ResponderState::AwaitHello,
            peer: None,
            code: None,
            pair: None,
            replay: ReplayGuard::new(replay_capacity),
        }
    }

    /// Ends the endpoint and hands back its key ring, with every pair key
    /// it derived, for the next attempt to start from.
    pub fn into_keys(self) -> KeyRing {
        self.keys
    }

    /// Handles a decoded HELLO heard on `code`; returns the CONFIRM frame
    /// to send back on that code.
    ///
    /// # Errors
    ///
    /// [`HandshakeError`] on state or parse violations.
    pub fn on_hello(&mut self, bits: &[bool], code: CodeId) -> Result<Vec<bool>, HandshakeError> {
        if self.state != ResponderState::AwaitHello {
            return Err(self.fail_state());
        }
        let peer = match wire::parse_hello_bools(&self.wire, self.format, bits) {
            Ok((MessageKind::Hello, peer)) if peer != self.keys.id() => peer,
            _ => return Err(HandshakeError::Malformed),
        };
        self.peer = Some(peer);
        self.code = Some(code);
        self.pair = Some(self.keys.pair_key(peer).clone());
        self.state = ResponderState::AwaitAuthA;
        Ok(wire::hello_frame_bools(
            &self.wire,
            self.format,
            MessageKind::Confirm,
            self.keys.id(),
        )
        .expect("own id fits l_id"))
    }

    /// Handles A's AUTH_A; on success returns the AUTH_B frame plus the
    /// established session, its code resolved through the shared
    /// [`SessionCodeCache`].
    ///
    /// # Errors
    ///
    /// [`HandshakeError`] on state, parse, tag, identity, or replay
    /// violations.
    pub fn on_auth_a_cached(
        &mut self,
        bits: &[bool],
        cache: &mut SessionCodeCache,
    ) -> Result<(Vec<bool>, Established), HandshakeError> {
        if self.state != ResponderState::AwaitAuthA {
            return Err(self.fail_state());
        }
        let Ok((peer, n_a, mac)) = wire::parse_auth_bools(&self.wire, self.format, bits) else {
            self.state = ResponderState::Failed;
            return Err(HandshakeError::Malformed);
        };
        if Some(peer) != self.peer {
            self.state = ResponderState::Failed;
            return Err(HandshakeError::PeerMismatch);
        }
        let pair = self.pair.as_ref().expect("pair key set on HELLO");
        if !mac_matches(&self.wire, pair.hmac(), peer, n_a, mac) {
            self.state = ResponderState::Failed;
            return Err(HandshakeError::BadTag { claimed: peer });
        }
        // Replay defense: a (peer, nonce) pair is accepted once.
        if !self.replay.check_and_record(peer, n_a) {
            self.state = ResponderState::Failed;
            return Err(HandshakeError::Replayed { peer });
        }
        let tag_b = auth_tag_keyed(pair.hmac(), self.keys.id(), self.nonce);
        let frame =
            wire::auth_frame_bools(&self.wire, self.format, self.keys.id(), self.nonce, &tag_b)
                .expect("fields fit");
        self.state = ResponderState::Done;
        let established = Established {
            peer,
            discovery_code: self.code.expect("set on HELLO"),
            session_code: SpreadCode::from_msb_bytes(
                cache.get_or_derive(pair, self.nonce, n_a, self.n_chips),
                self.n_chips,
            ),
        };
        Ok((frame, established))
    }

    /// Gives up (monitoring timer expired).
    pub fn on_timeout(&mut self) -> HandshakeError {
        self.state = ResponderState::Failed;
        HandshakeError::TimedOut
    }

    /// Whether the handshake concluded successfully.
    pub fn is_done(&self) -> bool {
        self.state == ResponderState::Done
    }

    fn fail_state(&mut self) -> HandshakeError {
        let state = match self.state {
            ResponderState::AwaitHello => "await-hello",
            ResponderState::AwaitAuthA => "await-auth-a",
            ResponderState::Done => "done",
            ResponderState::Failed => "failed",
        };
        HandshakeError::WrongState { state }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::Params;
    use jrsnd_crypto::ibc::Authority;
    use jrsnd_crypto::mac::auth_tag;
    use jrsnd_crypto::session::derive_session_code;
    use rand::SeedableRng;

    const FORMATS: [WireFormat; 2] = [WireFormat::Legacy, WireFormat::Packed];

    fn wire() -> WireConfig {
        WireConfig::from_params(&Params::table1())
    }

    fn authority() -> Authority {
        Authority::from_seed(b"handshake")
    }

    fn initiator(id: u32, format: WireFormat, rng: &mut SimRng) -> Initiator {
        let key = authority().issue(NodeId(id));
        Initiator::new_with_format(key, wire(), format, Params::table1().n_chips, rng)
    }

    fn responder(id: u32, format: WireFormat, rng: &mut SimRng) -> Responder {
        let key = authority().issue(NodeId(id));
        Responder::new_with_format(key, wire(), format, Params::table1().n_chips, 64, rng)
    }

    fn setup(seed: u64, format: WireFormat) -> (Initiator, Responder) {
        let mut rng = SimRng::seed_from_u64(seed);
        let a = initiator(1, format, &mut rng);
        let b = responder(2, format, &mut rng);
        (a, b)
    }

    /// Drives a full clean exchange through one session cache, returning
    /// both sides' sessions and the frame lengths on the air.
    fn run_clean(seed: u64, format: WireFormat) -> (Established, Established, [usize; 4]) {
        let (mut a, mut b) = setup(seed, format);
        let code = CodeId(7);
        let mut cache = SessionCodeCache::new(8);
        let hello = a.hello_frame();
        let confirm = b.on_hello(&hello, code).unwrap();
        let auth_a = a.on_confirm(&confirm, code).unwrap();
        // The responder derives C_AB (a miss) …
        let (auth_b, est_b) = b.on_auth_a_cached(&auth_a, &mut cache).unwrap();
        assert_eq!(cache.len(), 1);
        // … and the initiator's derivation of the same pair is the hit.
        let est_a = a.on_auth_b_cached(&auth_b, &mut cache).unwrap();
        assert_eq!(cache.len(), 1, "nonce-symmetric key: still one entry");
        assert!(a.is_done() && b.is_done());
        // The cached code is the PRF's C_AB = h_K(n_A ⊗ n_B), as chips.
        let key = authority().shared_key(NodeId(1), NodeId(2));
        let n_chips = Params::table1().n_chips;
        let fresh = derive_session_code(&key, a.nonce, b.nonce, n_chips);
        assert_eq!(
            est_a.session_code,
            SpreadCode::from_msb_bytes(&fresh, n_chips)
        );
        let sizes = [hello.len(), confirm.len(), auth_a.len(), auth_b.len()];
        (est_a, est_b, sizes)
    }

    #[test]
    fn clean_exchange_establishes_matching_sessions_in_both_formats() {
        let mut codes = Vec::new();
        for format in FORMATS {
            let (est_a, est_b, _) = run_clean(1, format);
            assert_eq!(est_a.peer, NodeId(2));
            assert_eq!(est_b.peer, NodeId(1));
            assert_eq!(est_a.discovery_code, CodeId(7));
            assert_eq!(est_a.session_code, est_b.session_code);
            assert_eq!(est_a.session_code.len(), 512);
            codes.push(est_a.session_code);
        }
        // Same seed, identical nonce draws: the session code agrees bit
        // for bit across formats.
        assert_eq!(codes[0], codes[1]);
    }

    #[test]
    fn legacy_frames_have_table1_sizes_and_packed_frames_are_shorter() {
        let w = wire();
        let (hello, auth) = (w.l_t + w.l_id, w.l_id + w.l_n + w.l_mac);
        let (_, _, legacy) = run_clean(1, WireFormat::Legacy);
        assert_eq!(legacy, [hello, hello, auth, auth]);
        let (_, _, packed) = run_clean(1, WireFormat::Packed);
        for (p, l) in packed.iter().zip(&legacy) {
            assert!(p < l, "packed {packed:?} vs legacy {legacy:?}");
        }
    }

    #[test]
    fn endpoints_over_warm_key_rings_send_the_same_frames() {
        // A second exchange on the same seed, over the rings the first one
        // handed back (which now hold the pair key), sends the same four
        // frames and derives the same session code.
        for format in FORMATS {
            let exchange = |mut a: Initiator, mut b: Responder| {
                let code = CodeId(5);
                let mut cache = SessionCodeCache::new(8);
                let hello = a.hello_frame();
                let confirm = b.on_hello(&hello, code).unwrap();
                let auth_a = a.on_confirm(&confirm, code).unwrap();
                let (auth_b, est_b) = b.on_auth_a_cached(&auth_a, &mut cache).unwrap();
                let est_a = a.on_auth_b_cached(&auth_b, &mut cache).unwrap();
                assert_eq!(est_a.session_code, est_b.session_code);
                let frames = [hello, confirm, auth_a, auth_b];
                (frames, est_a, a.into_keys(), b.into_keys())
            };
            let (a, b) = setup(11, format);
            let (cold, est, ring_a, ring_b) = exchange(a, b);
            let mut rng = SimRng::seed_from_u64(11);
            let n_chips = Params::table1().n_chips;
            let a = Initiator::new_with_format(ring_a, wire(), format, n_chips, &mut rng);
            let b = Responder::new_with_format(ring_b, wire(), format, n_chips, 64, &mut rng);
            let (warm, warm_est, ..) = exchange(a, b);
            assert_eq!(warm, cold);
            assert_eq!(warm_est, est);
        }
    }

    #[test]
    fn sessions_differ_across_runs() {
        let (a1, _, _) = run_clean(1, WireFormat::Legacy);
        let (a2, _, _) = run_clean(2, WireFormat::Legacy);
        assert_ne!(a1.session_code, a2.session_code, "fresh nonces, fresh code");
    }

    #[test]
    fn tampered_auth_a_is_rejected_in_both_formats() {
        for format in FORMATS {
            let (mut a, mut b) = setup(3, format);
            let code = CodeId(0);
            let confirm = b.on_hello(&a.hello_frame(), code).unwrap();
            let mut auth_a = a.on_confirm(&confirm, code).unwrap();
            // Flip a bit inside the MAC region.
            let idx = auth_a.len() - 1;
            auth_a[idx] = !auth_a[idx];
            let mut cache = SessionCodeCache::new(8);
            assert!(matches!(
                b.on_auth_a_cached(&auth_a, &mut cache),
                Err(HandshakeError::BadTag { claimed: NodeId(1) })
            ));
            assert!(!b.is_done());
            assert!(cache.is_empty(), "no session derived for a bad tag");
        }
    }

    #[test]
    fn replayed_auth_a_is_rejected_by_a_fresh_responder() {
        // Capture a valid AUTH_A, then replay it to a new responder whose
        // replay guard has already seen the (peer, nonce) pair.
        let mut rng = SimRng::seed_from_u64(4);
        let mut cache = SessionCodeCache::new(8);
        let mut a = initiator(1, WireFormat::Legacy, &mut rng);
        let mut b = responder(2, WireFormat::Legacy, &mut rng);
        let code = CodeId(9);
        let confirm = b.on_hello(&a.hello_frame(), code).unwrap();
        let auth_a = a.on_confirm(&confirm, code).unwrap();
        b.on_auth_a_cached(&auth_a, &mut cache).unwrap();
        // The attacker replays the captured AUTH_A against the responder
        // identity's next session, which shares the long-lived guard.
        let mut b2 = responder(2, WireFormat::Legacy, &mut rng);
        b2.on_hello(&a.hello_frame(), code).unwrap();
        // Seed b2's guard with the observed pair, as a long-lived node
        // would have.
        assert!(b2.replay.check_and_record(NodeId(1), a.nonce));
        assert!(matches!(
            b2.on_auth_a_cached(&auth_a, &mut cache),
            Err(HandshakeError::Replayed { peer: NodeId(1) })
        ));
    }

    #[test]
    fn out_of_order_frames_are_rejected() {
        let (mut a, mut b) = setup(5, WireFormat::Legacy);
        let code = CodeId(1);
        let hello = a.hello_frame();
        let confirm = b.on_hello(&hello, code).unwrap();
        // HELLO twice on the responder.
        assert!(matches!(
            b.on_hello(&hello, code),
            Err(HandshakeError::WrongState { .. })
        ));
        let _auth_a = a.on_confirm(&confirm, code).unwrap();
        // CONFIRM twice on the initiator.
        assert!(matches!(
            a.on_confirm(&confirm, code),
            Err(HandshakeError::WrongState { .. })
        ));
    }

    #[test]
    fn peer_substitution_is_rejected() {
        // A third identity answers AUTH_B claiming to be someone else.
        let mut rng = SimRng::seed_from_u64(6);
        let mut cache = SessionCodeCache::new(8);
        let mut a = initiator(1, WireFormat::Legacy, &mut rng);
        let mut b = responder(2, WireFormat::Legacy, &mut rng);
        let mut mallory = responder(3, WireFormat::Legacy, &mut rng);
        let code = CodeId(2);
        let confirm = b.on_hello(&a.hello_frame(), code).unwrap();
        let auth_a = a.on_confirm(&confirm, code).unwrap();
        // Mallory intercepts AUTH_A, but it is keyed to K_{A,B}: her
        // K_{A,Mallory} check fails, so she cannot even accept it.
        let _ = mallory.on_hello(&a.hello_frame(), code).unwrap();
        assert!(matches!(
            mallory.on_auth_a_cached(&auth_a, &mut cache),
            Err(HandshakeError::BadTag { claimed: NodeId(1) })
        ));
        // And a forged AUTH_B claiming a different identity than the one A
        // confirmed with is rejected as a peer mismatch before any crypto.
        let mallory_key = authority().issue(NodeId(3));
        let n_m = Nonce::from_value(0x1234);
        let tag = auth_tag(&mallory_key.shared_key(NodeId(1)), NodeId(3), n_m);
        let forged =
            wire::auth_frame_bools(&wire(), WireFormat::Legacy, NodeId(3), n_m, &tag).unwrap();
        assert!(matches!(
            a.on_auth_b_cached(&forged, &mut cache),
            Err(HandshakeError::PeerMismatch)
        ));
        assert!(!a.is_done());
    }

    #[test]
    fn timeout_poisons_the_endpoint() {
        let (mut a, mut b) = setup(7, WireFormat::Legacy);
        assert_eq!(a.on_timeout(), HandshakeError::TimedOut);
        assert_eq!(b.on_timeout(), HandshakeError::TimedOut);
        let code = CodeId(3);
        assert!(matches!(
            b.on_hello(&a.hello_frame(), code),
            Err(HandshakeError::WrongState { state: "failed" })
        ));
    }

    #[test]
    fn malformed_frames_are_rejected() {
        for format in FORMATS {
            let (mut a, mut b) = setup(8, format);
            let code = CodeId(4);
            assert!(matches!(
                b.on_hello(&[true; 3], code),
                Err(HandshakeError::Malformed)
            ));
            // A CONFIRM whose type field says HELLO.
            let confirm_wrong_kind = a.hello_frame();
            b.on_hello(&a.hello_frame(), code).unwrap();
            assert!(matches!(
                a.on_confirm(&confirm_wrong_kind, code),
                Err(HandshakeError::Malformed)
            ));
        }
    }
}
