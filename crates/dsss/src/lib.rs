//! Chip-level Direct Sequence Spread Spectrum (DSSS) substrate for the
//! JR-SND reproduction.
//!
//! JR-SND (Zhang, Zhang & Huang, ICDCS 2011) builds anti-jamming neighbor
//! discovery on DSSS: a sender multiplies each NRZ message bit by a secret
//! pseudorandom ±1 *spread code* of `N = 512` chips; a receiver that knows
//! the code recovers bits by correlation, while a jammer that does not
//! cannot predict — or efficiently disturb — the transmission. This crate
//! implements that physical layer from the chips up:
//!
//! * [`chip`] — bit-packed ±1 chip sequences with popcount correlation;
//! * [`code`] — pseudorandom spread codes and the authority's secret pool;
//! * [`mod@spread`] — spreading/de-spreading with the threshold-τ decision
//!   rule (reliable 1 / reliable 0 / erasure);
//! * [`channel`] — a chip-synchronous shared medium: superposed
//!   transmissions, jammers as louder transmitters, deterministic noise —
//!   rendered by a blocked word-parallel kernel (64 chips per iteration)
//!   with the chip-at-a-time oracle retained under `channel::reference`,
//!   or correlated against a code with nothing rendered
//!   ([`ChipChannel::dot_chips`]);
//! * [`correlate`] — the batched kernel: one buffer against a whole code
//!   bank, held as offset-binary bit planes at any amplitude and
//!   correlated by popcount (64 offsets per kernel call) into exact
//!   integer dot products; a window still on a channel is rendered and
//!   held only as far as the reads reach;
//! * [`sync`] — the sliding-window scan that locates a message start among
//!   buffered chips by comparing those integers (and counts the
//!   correlations it cost), and the HELLO receive of a window still on
//!   the medium ([`sync::scan_window`]);
//! * [`timing`] — the buffer/process schedule constants (`t_h`, `t_b`, λ,
//!   `t_p`, `r`) that the protocol and Theorem 2 depend on.
//!
//! # Examples
//!
//! A full chip-level link: an unsynchronized receiver finds and decodes a
//! HELLO while a wrong-code jammer screams over it:
//!
//! ```
//! use jrsnd_dsss::channel::ChipChannel;
//! use jrsnd_dsss::code::SpreadCode;
//! use jrsnd_dsss::spread::spread;
//! use jrsnd_dsss::sync::scan_and_decode;
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(2011);
//! let code = SpreadCode::random(512, &mut rng);
//! let jammer_code = SpreadCode::random(512, &mut rng); // not the right one
//!
//! let hello: Vec<bool> = (0..21).map(|i| i % 2 == 0).collect();
//! let mut medium = ChipChannel::new(0);
//! medium.transmit(700, spread(&hello, &code), 1);
//! // The paper's adversary has "similar transmitters to legitimate nodes":
//! // same amplitude. Without the right code it is just background noise.
//! medium.transmit(0, spread(&vec![true; 30], &jammer_code), 1);
//!
//! let samples = medium.render(0, 700 + 22 * 512);
//! let (_, frame) = scan_and_decode(&samples, &[&code], 21, 0.15).unwrap();
//! assert_eq!(frame.bits, hello);
//! ```

// `deny` instead of `forbid`: the runtime-dispatch module (`simd`) needs
// `unsafe` strictly to call its `#[target_feature]` kernel variants, each
// guarded by CPU detection; everything else in the crate stays unsafe-free.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod channel;
pub mod chip;
pub mod code;
pub mod correlate;
pub mod gold;
pub mod simd;
pub mod spread;
pub mod sync;
pub mod timing;

pub use channel::ChipChannel;
pub use chip::ChipSeq;
pub use code::{CodeId, CodePool, SpreadCode, DEFAULT_CODE_LEN};
pub use correlate::{BankScanner, BitPlanes, MultiCorrelator};
pub use spread::{despread_levels, spread, BitDecision, DEFAULT_TAU};
pub use sync::{
    decode_frame, decode_frame_into, scan, scan_all, scan_and_decode, scan_from, scan_from_with,
    Frame, ScanScratch, SyncHit,
};
pub use timing::Schedule;
