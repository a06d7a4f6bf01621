//! JR-SND: jamming-resilient secure neighbor discovery for MANETs.
//!
//! A from-scratch Rust reproduction of *"JR-SND: Jamming-Resilient Secure
//! Neighbor Discovery in Mobile Ad Hoc Networks"* (Rui Zhang, Yanchao
//! Zhang, Xiaoxia Huang — ICDCS 2011). JR-SND breaks the circular
//! dependency between anti-jamming communication and key establishment by
//! pre-loading every node with `m` secret DSSS spread codes drawn from an
//! authority pool such that any code is shared by at most `l` nodes:
//!
//! * [`predist`] — the random spread-code pre-distribution scheme
//!   (Section V-A): `m` rounds of random `l`-sized partitions, virtual
//!   nodes, and late join;
//! * [`dndp`] — D-NDP, the direct four-message discovery handshake with
//!   `x`-fold sub-session redundancy (Section V-B);
//! * [`mndp`] — M-NDP, multi-hop discovery over jamming-resilient paths
//!   with per-hop signature chains (Section V-C), plus the graph-level
//!   closure behind every network, scale and timeline run;
//! * [`revocation`] — the DoS defense that caps fake-request damage at
//!   `(l−1)γ` verifications per compromised code (Section V-D);
//! * [`jammer`] — the random/reactive adversary of Section IV-B;
//! * [`analysis`] — closed forms for Eq. (1)–(2) and Theorems 1–4;
//! * [`network`] / [`montecarlo`] — the seeded network simulator and the
//!   parallel sweep driver that regenerate every figure of Section VI;
//! * [`chiplink`] — the complete handshake run at chip level through the
//!   DSSS/ECC/crypto substrates, validating the protocol-level
//!   abstraction;
//! * [`engine`] — the batch session engine: thousands-to-millions of
//!   chip-level D-NDP/M-NDP sessions run through one pooled driver per
//!   shard on shared media, with byte-identical outputs to the sequential
//!   oracle;
//! * [`params`] / [`messages`] / [`wire`] / [`node`] — Table I
//!   parameters, message types, the wire codec (both formats), per-node
//!   state.
//!
//! # Examples
//!
//! Reproduce one data point of the paper's evaluation (shrunk for test
//! speed — the `repro` binary runs the full 2000-node version):
//!
//! ```
//! use jrsnd::montecarlo::run_many;
//! use jrsnd::network::ExperimentConfig;
//!
//! let mut config = ExperimentConfig::paper_default();
//! config.params.n = 300;            // shrink the field with the network
//! config.params.field_w = 1940.0;   // to keep the paper's node density
//! config.params.field_h = 1940.0;
//! config.params.q = 3;
//! let agg = run_many(&config, 4, 2011);
//! // Under Table-I-like settings JR-SND discovers nearly every pair.
//! assert!(agg.p_jrsnd.mean() > 0.9);
//! assert!(agg.p_jrsnd.mean() >= agg.p_dndp.mean());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod chiplink;
pub mod decode;
pub mod deployment;
pub mod dndp;
pub mod engine;
pub mod handshake;
pub mod jammer;
pub mod messages;
pub mod mndp;
pub mod montecarlo;
pub mod multiantenna;
pub mod network;
pub mod node;
pub mod params;
pub mod predist;
pub mod revocation;
pub mod scale;
pub mod schedule_sim;
pub mod timeline;
pub mod wire;

pub use decode::DecodeError;
pub use deployment::{Deployment, ProvisionedNode};
pub use engine::{BatchEngine, EngineConfig, JamSpec, SessionKind, SessionOutcome, SessionSpec};
pub use jammer::{Jammer, JammerKind};
pub use network::{run_once, run_once_opt, ExperimentConfig, ResilienceConfig, RunResult};
pub use params::{Params, ParamsError};
pub use predist::CodeAssignment;
pub use scale::{run_scale, run_scale_many, ScaleConfig, ScalePerf};

/// Worker threads for a parallel run: `explicit` if set, else the
/// `JRSND_THREADS` environment variable (when it is a positive integer),
/// else the machine's available parallelism.
///
/// # Panics
///
/// Panics if `explicit` is `Some(0)`.
pub(crate) fn resolve_threads(explicit: Option<usize>) -> usize {
    assert!(explicit != Some(0), "need at least one worker thread");
    explicit
        .or_else(|| {
            std::env::var("JRSND_THREADS")
                .ok()
                .and_then(|s| s.parse().ok())
                .filter(|&t| t > 0)
        })
        .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// Statically chunks the work items over `threads` workers, writing each
/// item's output into its own slot — scheduling-invisible, like the
/// Monte-Carlo seed sharding.
pub(crate) fn for_each_shard<T, W, F>(work: &mut [W], threads: usize, f: F) -> Vec<T>
where
    T: Send,
    W: Send,
    F: Fn(&mut W) -> T + Sync,
{
    let shards = work.len();
    let threads = threads.clamp(1, shards.max(1));
    if threads <= 1 {
        return work.iter_mut().map(&f).collect();
    }
    let chunk = shards.div_ceil(threads);
    let mut slots: Vec<Option<T>> = Vec::with_capacity(shards);
    slots.resize_with(shards, || None);
    let f = &f;
    std::thread::scope(|scope| {
        for (slot_chunk, work_chunk) in slots.chunks_mut(chunk).zip(work.chunks_mut(chunk)) {
            scope.spawn(move || {
                for (slot, w) in slot_chunk.iter_mut().zip(work_chunk) {
                    *slot = Some(f(w));
                }
            });
        }
    });
    slots
        .into_iter()
        .map(|s| s.expect("every shard slot filled"))
        .collect()
}
