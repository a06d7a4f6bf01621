//! Batch session engine: thousands-to-millions of chip-level D-NDP/M-NDP
//! sessions per run, sharded over worker threads.
//!
//! Every session runs through the one chip-level driver, [`SessionDriver`];
//! the engine adds pooling and scheduling around it:
//!
//! * **Static seed sharding.** Session `i` belongs to shard `i % shards`;
//!   workers own fixed shard sets (`shard % workers`). A shard runs its
//!   sessions to completion, in spec order, on one driver and one medium.
//! * **Pooled scratch.** A shard's driver owns one `FrameCodec`,
//!   `SessionCodeCache`, correlator bank (with its residue-shifted code
//!   masks), render window, bit-plane buffer, frame and scan scratch and
//!   bit-buffer set, reused by every session of the shard. Each HELLO
//!   window is rendered, held as offset-binary bit planes and scanned in
//!   those pooled buffers, which stay cache-resident through the scan; the
//!   warm scan machinery makes no steady-state allocations. Messages 2–4
//!   are despread straight off the medium's packed transmissions, with
//!   nothing rendered.
//! * **Bounded channel memory.** A shard's medium cursor only moves
//!   forward, and every window is retired as soon as it has been received
//!   ([`jrsnd_dsss::channel::ChipChannel::retire_before`]), so channel
//!   memory is bounded by one session's window regardless of run length.
//!
//! # Why the batch is bit-exact
//!
//! The shared medium is noiseless (ambient noise is a per-chip function of
//! the channel's noise threshold, which stays 0), so a rendered window
//! containing only one session's transmissions is a pure translation of
//! what a fresh medium would render; disjoint cursor windows guarantee
//! exactly that. Pooled codecs, caches, banks and scratch change *work*,
//! never outcomes, and each session draws nonces, jam garbage and backoff
//! jitter from its own seeded streams. The outputs are therefore
//! **byte-identical** to the sequential [`reference`](mod@reference)
//! oracle, which runs every session on a fresh driver and medium, and
//! invariant under shard count and `JRSND_THREADS`. Neither injects chip
//! faults: a fault stream keyed to positions on a shared medium would
//! couple sessions.
//!
//! Every engine session speaks as `NodeId(1)`/`NodeId(2)`, so all of them
//! share one IBC pair key, and the session-code cache is keyed by that
//! key, the XOR of two 20-bit nonces and the code length. Sessions sharing
//! a cache therefore hit on nonce-XOR collisions across sessions; the shard
//! grouping fixes which sessions do, and so the crypto work counters.

use crate::chiplink::{check_jam, ChipJammer, HandshakeReport, LinkMedium, SessionDriver};
use crate::params::Params;
use crate::wire::WireFormat;
use jrsnd_crypto::ibc::Authority;
use jrsnd_dsss::code::SpreadCode;
use jrsnd_sim::metric_gauge;
use jrsnd_sim::retry::RetryPolicy;

/// A same-code reactive jammer attacking one session, by pool index.
#[derive(Debug, Clone)]
pub struct JamSpec {
    /// Pool index of the code the jammer transmits with.
    pub code: usize,
    /// Fraction of each message (from the tail) it covers, in `[0, 1]`.
    pub fraction: f64,
    /// Transmit amplitude relative to legitimate nodes; nonzero.
    pub amplitude: i32,
    /// First handshake message attacked (0 = HELLO … 3 = AUTH_B).
    pub first_message: usize,
}

impl JamSpec {
    pub(crate) fn instantiate(&self, pool: &[SpreadCode]) -> ChipJammer {
        ChipJammer {
            code: pool[self.code].clone(),
            fraction: self.fraction,
            amplitude: self.amplitude,
            first_message: self.first_message,
        }
    }
}

/// Whether a session is a direct discovery or a two-leg multi-hop one.
#[derive(Debug, Clone)]
pub enum SessionKind {
    /// One D-NDP handshake between A and B.
    Direct,
    /// M-NDP through one relay R: leg 1 is A ↔ R (against
    /// `relay_a_codes`), leg 2 is R ↔ B (from `relay_b_codes`). The
    /// session discovers iff **both** legs discover; the jammer (if any)
    /// attacks leg 1 — the over-the-air hop next to A.
    MultiHop {
        /// R's pre-distributed codes for the A-facing leg (pool indices).
        relay_a_codes: Vec<usize>,
        /// R's pre-distributed codes for the B-facing leg (pool indices).
        relay_b_codes: Vec<usize>,
        /// Index in `relay_a_codes` of the code shared with A.
        relay_shared_a: usize,
        /// Index in `relay_b_codes` of the code shared with B.
        relay_shared_b: usize,
    },
}

/// One session's full description: code sets (as indices into the shared
/// pool), the shared-code positions, the optional jammer, the session seed,
/// and the discovery kind.
#[derive(Debug, Clone)]
pub struct SessionSpec {
    /// A's pre-distributed codes, as pool indices.
    pub a_codes: Vec<usize>,
    /// B's pre-distributed codes, as pool indices.
    pub b_codes: Vec<usize>,
    /// Index in `a_codes` of the code shared with the first-leg peer.
    pub shared_a: usize,
    /// Index in `b_codes` of the code shared with the last-leg peer.
    pub shared_b: usize,
    /// Optional same-code jammer attacking the session's first leg.
    pub jammer: Option<JamSpec>,
    /// Session seed: nonces, jam garbage, and backoff jitter derive from it.
    pub seed: u64,
    /// Direct D-NDP or two-leg M-NDP.
    pub kind: SessionKind,
}

/// The final outcome of one engine session (all legs, all retry attempts).
#[derive(Debug, Clone, PartialEq)]
pub struct SessionOutcome {
    /// The last attempt's chip-level report (legs merged for M-NDP).
    pub report: HandshakeReport,
    /// Attempts made across all legs.
    pub attempts: u32,
    /// Whether any leg exhausted its retry budget without discovering.
    pub degraded: bool,
    /// Total backoff spent waiting across all legs, in seconds.
    pub backoff_s: f64,
}

/// Engine configuration. `retry` and `format` shape every session's
/// outcome; `shards` and `threads` only schedule the work, which the
/// equivalence tests assert.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Fixed shard count; session `i` lives on shard `i % shards`.
    /// Outputs are independent of this (each session is self-contained);
    /// it bounds how many workers can help, and decides which sessions
    /// share a session-code cache (work, not outcomes).
    pub shards: usize,
    /// Retry/backoff budget applied to every leg of every session.
    pub retry: RetryPolicy,
    /// Worker threads; `None` resolves `JRSND_THREADS` then available
    /// parallelism. At most `shards` are used; `Some(0)` makes
    /// [`BatchEngine::run`] panic.
    pub threads: Option<usize>,
    /// Wire format every session's frames are in. `Legacy` (the default,
    /// Table I's frames) keeps all committed outputs byte-identical;
    /// `Packed` switches to [`crate::wire`]'s varint frames — unlike the
    /// other knobs it changes the bits on the air (shorter frames), though
    /// outcomes on a clean channel are unaffected.
    pub format: WireFormat,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            shards: 16,
            retry: RetryPolicy::none(),
            threads: None,
            format: WireFormat::Legacy,
        }
    }
}

/// The batch session engine. Borrows the parameter set, the IBC authority,
/// and the deployment's code pool; [`BatchEngine::run`] advances any number
/// of [`SessionSpec`]s to completion.
#[derive(Debug)]
pub struct BatchEngine<'p> {
    params: &'p Params,
    authority: &'p Authority,
    pool: &'p [SpreadCode],
    config: EngineConfig,
}

impl<'p> BatchEngine<'p> {
    /// Builds an engine over a deployment's shared code pool.
    ///
    /// # Panics
    ///
    /// Panics if the pool is empty, any pool code's length differs from
    /// `params.n_chips`, or `config.shards` is zero.
    pub fn new(
        params: &'p Params,
        authority: &'p Authority,
        pool: &'p [SpreadCode],
        config: EngineConfig,
    ) -> Self {
        assert!(!pool.is_empty(), "empty code pool");
        assert!(
            pool.iter().all(|c| c.len() == params.n_chips),
            "pool codes must match params.n_chips"
        );
        assert!(config.shards > 0, "need at least one shard");
        BatchEngine {
            params,
            authority,
            pool,
            config,
        }
    }

    /// The engine's configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// Runs every session to completion and returns outcomes in spec
    /// order. Byte-identical to [`reference::run_sessions`] over the same
    /// specs, and invariant under thread count.
    ///
    /// # Panics
    ///
    /// Panics if `config.threads` is `Some(0)`, if any spec references a
    /// pool or shared index out of range, or if a jammer's `fraction` is
    /// outside `[0, 1]` (NaN included) or its `amplitude` is zero. Specs
    /// are validated before any session runs.
    pub fn run(&self, specs: &[SessionSpec]) -> Vec<SessionOutcome> {
        let threads = crate::resolve_threads(self.config.threads);
        if specs.is_empty() {
            return Vec::new();
        }
        for spec in specs {
            validate(self.pool, spec);
        }
        let shards = self.config.shards.min(specs.len());
        let workers = threads.min(shards);
        metric_gauge!("engine.sessions_active").set(specs.len() as f64);
        let run_worker = |w: usize| -> Vec<(usize, SessionOutcome)> {
            (w..shards)
                .step_by(workers)
                .flat_map(|shard| self.run_shard(specs, shard, shards))
                .collect()
        };
        let results: Vec<Vec<(usize, SessionOutcome)>> = if workers == 1 {
            vec![run_worker(0)]
        } else {
            std::thread::scope(|scope| {
                let handles: Vec<_> = (0..workers)
                    .map(|w| scope.spawn(move || run_worker(w)))
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("engine worker panicked"))
                    .collect()
            })
        };
        metric_gauge!("engine.sessions_active").set(0.0);
        let mut out: Vec<Option<SessionOutcome>> = vec![None; specs.len()];
        for (i, o) in results.into_iter().flatten() {
            out[i] = Some(o);
        }
        out.into_iter()
            .map(|o| o.expect("every session finalized"))
            .collect()
    }

    /// Runs shard `shard`'s sessions (spec indices `≡ shard mod shards`)
    /// to completion, in spec order, on one driver and one medium.
    fn run_shard(
        &self,
        specs: &[SessionSpec],
        shard: usize,
        shards: usize,
    ) -> Vec<(usize, SessionOutcome)> {
        let mut driver = SessionDriver::new(self.params, self.authority, self.config.format);
        let mut medium = LinkMedium::new(shard as u64, None);
        let retry = &self.config.retry;
        (shard..specs.len())
            .step_by(shards)
            .map(|i| (i, driver.session(&mut medium, retry, self.pool, &specs[i])))
            .collect()
    }
}

/// Checks one spec against `pool`; the engine and its oracle reject the
/// same inputs.
///
/// # Panics
///
/// Panics if the spec references a pool or shared index out of range, a
/// code set is empty, or its jammer fails [`check_jam`].
fn validate(pool: &[SpreadCode], spec: &SessionSpec) {
    let check = |idx: &[usize], shared: usize, what: &str| {
        assert!(!idx.is_empty(), "{what}: empty code set");
        assert!(
            idx.iter().all(|&k| k < pool.len()),
            "{what}: pool index out of range"
        );
        assert!(shared < idx.len(), "{what}: shared index out of range");
    };
    check(&spec.a_codes, spec.shared_a, "a_codes");
    check(&spec.b_codes, spec.shared_b, "b_codes");
    if let Some(j) = &spec.jammer {
        assert!(j.code < pool.len(), "jammer pool index out of range");
        check_jam(j.fraction, j.amplitude);
    }
    if let SessionKind::MultiHop {
        relay_a_codes,
        relay_b_codes,
        relay_shared_a,
        relay_shared_b,
    } = &spec.kind
    {
        check(relay_a_codes, *relay_shared_a, "relay_a_codes");
        check(relay_b_codes, *relay_shared_b, "relay_b_codes");
    }
}

/// The sequential oracle: every session on a fresh [`SessionDriver`] and a
/// fresh medium, one at a time. What the engine adds — a shard's driver
/// and medium reused across its sessions, shards scheduled over threads —
/// is what the equivalence tests check against it, at every session mix.
pub mod reference {
    use super::*;

    /// Runs `specs` sequentially, returning outcomes in spec order.
    pub fn run_sessions(
        params: &Params,
        authority: &Authority,
        pool: &[SpreadCode],
        retry: &RetryPolicy,
        specs: &[SessionSpec],
    ) -> Vec<SessionOutcome> {
        run_sessions_fmt(params, authority, pool, retry, specs, WireFormat::Legacy)
    }

    /// [`run_sessions`] with an explicit [`WireFormat`] — the sequential
    /// oracle for format-parameterised engine runs.
    pub fn run_sessions_fmt(
        params: &Params,
        authority: &Authority,
        pool: &[SpreadCode],
        retry: &RetryPolicy,
        specs: &[SessionSpec],
        format: WireFormat,
    ) -> Vec<SessionOutcome> {
        for spec in specs {
            validate(pool, spec);
        }
        specs
            .iter()
            .map(|spec| {
                SessionDriver::new(params, authority, format).session(
                    &mut LinkMedium::new(spec.seed, None),
                    retry,
                    pool,
                    spec,
                )
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn chip_params() -> Params {
        let mut p = Params::table1();
        p.n_chips = 256;
        p.tau = 0.30;
        p
    }

    fn pool(seed: u64, count: usize, n: usize) -> Vec<SpreadCode> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..count)
            .map(|_| SpreadCode::random(n, &mut rng))
            .collect()
    }

    /// A small mixed workload: clean direct, tail-jammed direct, fully
    /// jammed direct (fails), and a clean multi-hop session.
    fn mixed_specs() -> Vec<SessionSpec> {
        vec![
            SessionSpec {
                a_codes: vec![0, 1, 2],
                b_codes: vec![3, 1, 4],
                shared_a: 1,
                shared_b: 1,
                jammer: None,
                seed: 901,
                kind: SessionKind::Direct,
            },
            SessionSpec {
                a_codes: vec![5, 2],
                b_codes: vec![2, 6],
                shared_a: 1,
                shared_b: 0,
                jammer: Some(JamSpec {
                    code: 2,
                    fraction: 0.20,
                    amplitude: 1,
                    first_message: 0,
                }),
                seed: 902,
                kind: SessionKind::Direct,
            },
            SessionSpec {
                a_codes: vec![0, 3],
                b_codes: vec![3, 7],
                shared_a: 1,
                shared_b: 0,
                jammer: Some(JamSpec {
                    code: 3,
                    fraction: 1.0,
                    amplitude: 3,
                    first_message: 0,
                }),
                seed: 903,
                kind: SessionKind::Direct,
            },
            SessionSpec {
                a_codes: vec![0, 1],
                b_codes: vec![6, 7],
                shared_a: 0,
                shared_b: 1,
                jammer: None,
                seed: 904,
                kind: SessionKind::MultiHop {
                    relay_a_codes: vec![4, 0],
                    relay_b_codes: vec![7, 5],
                    relay_shared_a: 1,
                    relay_shared_b: 0,
                },
            },
        ]
    }

    #[test]
    fn engine_matches_the_sequential_reference_on_a_mixed_workload() {
        let params = chip_params();
        let authority = Authority::from_seed(b"engine");
        let pool = pool(11, 8, params.n_chips);
        let specs = mixed_specs();
        for retry in [RetryPolicy::none(), RetryPolicy::budgeted(2)] {
            let config = EngineConfig {
                shards: 3,
                retry,
                threads: Some(1),
                format: WireFormat::Legacy,
            };
            let engine = BatchEngine::new(&params, &authority, &pool, config);
            let got = engine.run(&specs);
            let want = reference::run_sessions(&params, &authority, &pool, &retry, &specs);
            assert_eq!(got, want, "retry = {retry:?}");
            assert!(got[0].report.discovered, "clean direct session discovers");
            assert!(got[1].report.discovered, "20% tail jam is absorbed");
            assert!(!got[2].report.discovered, "full same-code jam kills it");
            assert!(got[3].report.discovered, "both M-NDP legs complete");
            assert_eq!(got[3].attempts, 2, "one attempt per M-NDP leg");
        }
    }

    #[test]
    fn packed_engine_matches_the_packed_sequential_reference() {
        let params = chip_params();
        let authority = Authority::from_seed(b"engine");
        let pool = pool(11, 8, params.n_chips);
        let specs = mixed_specs();
        let retry = RetryPolicy::budgeted(1);
        let config = EngineConfig {
            shards: 3,
            retry,
            threads: Some(1),
            format: WireFormat::Packed,
        };
        let engine = BatchEngine::new(&params, &authority, &pool, config);
        let got = engine.run(&specs);
        let want = reference::run_sessions_fmt(
            &params,
            &authority,
            &pool,
            &retry,
            &specs,
            WireFormat::Packed,
        );
        assert_eq!(got, want, "packed engine == packed sequential oracle");
        assert!(got[0].report.discovered, "clean packed session discovers");
        assert!(
            !got[2].report.discovered,
            "full same-code jam still kills it"
        );
        assert!(got[3].report.discovered, "packed M-NDP legs complete");
        // Airtime win: the packed HELLO round scans strictly fewer chips.
        let legacy = reference::run_sessions(&params, &authority, &pool, &retry, &specs);
        assert!(
            got[0].report.scan_correlations < legacy[0].report.scan_correlations,
            "packed {} vs legacy {} scan correlations",
            got[0].report.scan_correlations,
            legacy[0].report.scan_correlations
        );
    }

    #[test]
    fn outcomes_are_invariant_under_worker_and_shard_count() {
        let params = chip_params();
        let authority = Authority::from_seed(b"engine");
        let pool = pool(11, 8, params.n_chips);
        let specs = mixed_specs();
        let run = |threads: usize, shards: usize| {
            let config = EngineConfig {
                shards,
                retry: RetryPolicy::budgeted(1),
                threads: Some(threads),
                format: WireFormat::Legacy,
            };
            BatchEngine::new(&params, &authority, &pool, config).run(&specs)
        };
        let baseline = run(1, 1);
        for (threads, shards) in [(1, 16), (2, 4), (4, 2), (3, 3)] {
            assert_eq!(
                run(threads, shards),
                baseline,
                "threads={threads} shards={shards}"
            );
        }
    }

    /// One engine run over `mixed_specs` with `patch` applied to the
    /// tail-jammed session's jammer and `threads` workers.
    fn run_patched(threads: Option<usize>, patch: impl FnOnce(&mut JamSpec)) {
        let params = chip_params();
        let authority = Authority::from_seed(b"engine");
        let pool = pool(11, 8, params.n_chips);
        let mut specs = mixed_specs();
        patch(specs[1].jammer.as_mut().expect("session 1 is jammed"));
        let config = EngineConfig {
            threads,
            ..EngineConfig::default()
        };
        BatchEngine::new(&params, &authority, &pool, config).run(&specs);
    }

    #[test]
    #[should_panic(expected = "outside [0, 1]")]
    fn jammer_fraction_above_one_is_rejected() {
        run_patched(Some(2), |j| j.fraction = 1.5);
    }

    #[test]
    #[should_panic(expected = "outside [0, 1]")]
    fn nan_jammer_fraction_is_rejected() {
        run_patched(Some(2), |j| j.fraction = f64::NAN);
    }

    #[test]
    #[should_panic(expected = "amplitude must be nonzero")]
    fn zero_jammer_amplitude_is_rejected_before_any_worker_runs() {
        run_patched(Some(2), |j| j.amplitude = 0);
    }

    #[test]
    #[should_panic(expected = "need at least one worker thread")]
    fn zero_worker_threads_are_rejected() {
        run_patched(Some(0), |_| {});
    }

    #[test]
    #[should_panic(expected = "relay_b_codes: shared index out of range")]
    fn the_reference_rejects_what_the_engine_rejects() {
        // No leg reads `relay_shared_b`, so only spec validation catches it.
        let params = chip_params();
        let authority = Authority::from_seed(b"engine");
        let pool = pool(11, 8, params.n_chips);
        let mut specs = mixed_specs();
        if let SessionKind::MultiHop { relay_shared_b, .. } = &mut specs[3].kind {
            *relay_shared_b = 2;
        }
        reference::run_sessions(&params, &authority, &pool, &RetryPolicy::none(), &specs);
    }
}
