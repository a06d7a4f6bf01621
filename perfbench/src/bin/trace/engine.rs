//! engine-mixed replay: every session through the chip-level call order of
//! `chiplink::run_handshake_resilient`, which `engine::reference` proves
//! outcome-identical to `BatchEngine::run`, with each public call of the
//! dsss, ecc, crypto and handshake layers in a span. The engine's shared
//! render and prefix-sum pass has no public entry point; it stays in
//! `BatchEngine::run`'s own time (`engine.ns_per_handshake`).

use crate::spans::span;
use jrsnd::chiplink::{HandshakeReport, Stage};
use jrsnd::handshake::{Initiator, Responder};
use jrsnd::messages::{FrameCodec, WireConfig};
use jrsnd::params::Params;
use jrsnd::wire::WireFormat;
use jrsnd::{JamSpec, SessionKind, SessionOutcome, SessionSpec};
use jrsnd_crypto::ibc::{Authority, NodeId};
use jrsnd_crypto::session::SessionCodeCache;
use jrsnd_dsss::channel::ChipChannel;
use jrsnd_dsss::code::{CodeId, SpreadCode};
use jrsnd_dsss::correlate::MultiCorrelator;
use jrsnd_dsss::spread::{despread_from_channel, spread};
use jrsnd_dsss::sync::{decode_frame_into, scan_from_with, Frame, ScanScratch};
use jrsnd_sim::retry::RetryPolicy;
use jrsnd_sim::rng::SimRng;
use rand::{Rng, SeedableRng};

// Seed salts of `chiplink::run_handshake_resilient` and the engine.
const ATTEMPT_SALT: u64 = 0x9E37_79B9_7F4A_7C15;
const BACKOFF_SALT: u64 = 0xBACC_0FF5;
const MEDIUM_SALT: u64 = 0x1111;
const MNDP_LEG2_SALT: u64 = 0x6D6E_6470_0002;

/// The chip-level replay: one codec and one session-code cache for
/// all sessions, as in `engine::reference::run_sessions`.
pub struct ChipReplay<'a> {
    params: &'a Params,
    authority: &'a Authority,
    pool: &'a [SpreadCode],
    retry: RetryPolicy,
    codec: FrameCodec,
    cache: SessionCodeCache,
    /// Session-code lookups made through the cache (one per accepted
    /// AUTH_A or AUTH_B).
    pub cache_lookups: u64,
}

/// One session's medium: its channel and next free chip.
struct Medium {
    channel: ChipChannel,
    cursor: u64,
}

impl Medium {
    fn advance(&mut self, chips: usize) {
        self.cursor += chips as u64;
        self.channel.retire_before(self.cursor);
    }
}

/// Tail-jams `coded` (already on the air at `start`) with garbage drawn
/// from `rng`, as the reactive chip-level jammer does.
fn jam_tail(
    channel: &mut ChipChannel,
    start: u64,
    coded_len: usize,
    n: usize,
    jam: &JamSpec,
    jam_code: &SpreadCode,
    rng: &mut SimRng,
) {
    let jam_bits = ((coded_len as f64) * jam.fraction).round() as usize;
    if jam_bits > 0 {
        let start_bit = coded_len - jam_bits;
        let garbage: Vec<bool> = (0..jam_bits).map(|_| rng.gen::<bool>()).collect();
        channel.transmit(
            start + (start_bit * n) as u64,
            spread(&garbage, jam_code),
            jam.amplitude,
        );
    }
}

fn failed(stage: Stage, scan_correlations: u64, sync_retries: u64) -> HandshakeReport {
    HandshakeReport {
        discovered: false,
        stage,
        scan_correlations,
        sync_retries,
    }
}

impl<'a> ChipReplay<'a> {
    /// A replay over a deployment's pool with the engine's retry policy.
    pub fn new(
        params: &'a Params,
        authority: &'a Authority,
        pool: &'a [SpreadCode],
        retry: RetryPolicy,
    ) -> Self {
        ChipReplay {
            params,
            authority,
            pool,
            retry,
            codec: FrameCodec::new(params.mu).expect("mu validated"),
            cache: SessionCodeCache::new(1024),
            cache_lookups: 0,
        }
    }

    /// Replays session `id`: leg 1, then for M-NDP the relay → B leg.
    pub fn session(&mut self, id: u64, spec: &SessionSpec) -> SessionOutcome {
        span("engine", id, || {
            let (b1, sb1): (&[usize], usize) = match &spec.kind {
                SessionKind::Direct => (&spec.b_codes, spec.shared_b),
                SessionKind::MultiHop {
                    relay_a_codes,
                    relay_shared_a,
                    ..
                } => (relay_a_codes, *relay_shared_a),
            };
            let leg1 = self.leg(id, &spec.a_codes, b1, sb1, spec.jammer.as_ref(), spec.seed);
            match &spec.kind {
                SessionKind::MultiHop { relay_b_codes, .. } if !leg1.degraded => {
                    let leg2 = self.leg(
                        id,
                        relay_b_codes,
                        &spec.b_codes,
                        spec.shared_b,
                        None,
                        spec.seed ^ MNDP_LEG2_SALT,
                    );
                    SessionOutcome {
                        report: HandshakeReport {
                            discovered: leg1.report.discovered && leg2.report.discovered,
                            stage: leg2.report.stage,
                            scan_correlations: leg1.report.scan_correlations
                                + leg2.report.scan_correlations,
                            sync_retries: leg1.report.sync_retries + leg2.report.sync_retries,
                        },
                        attempts: leg1.attempts + leg2.attempts,
                        degraded: leg1.degraded || leg2.degraded,
                        backoff_s: leg1.backoff_s + leg2.backoff_s,
                    }
                }
                _ => leg1,
            }
        })
    }

    /// One leg: the retry loop over one persistent medium.
    fn leg(
        &mut self,
        id: u64,
        a: &[usize],
        b: &[usize],
        shared_b: usize,
        jam: Option<&JamSpec>,
        seed: u64,
    ) -> SessionOutcome {
        let mut medium = Medium {
            channel: ChipChannel::new(seed ^ MEDIUM_SALT),
            cursor: 0,
        };
        let mut backoff_rng = SimRng::seed_from_u64(seed ^ BACKOFF_SALT);
        let mut backoff_s = 0.0;
        let mut attempts = 0;
        let mut report = None;
        for attempt in 1..=self.retry.max_attempts.max(1) {
            attempts = attempt;
            backoff_s += self.retry.backoff_delay(attempt, &mut backoff_rng);
            let attempt_seed = seed ^ u64::from(attempt - 1).wrapping_mul(ATTEMPT_SALT);
            let r = self.attempt(id, a, b, shared_b, jam, attempt_seed, &mut medium);
            let discovered = r.discovered;
            report = Some(r);
            if discovered {
                break;
            }
        }
        let report = report.expect("at least one attempt");
        SessionOutcome {
            degraded: !report.discovered,
            report,
            attempts,
            backoff_s,
        }
    }

    /// One four-message handshake attempt.
    #[allow(clippy::too_many_arguments)]
    fn attempt(
        &mut self,
        id: u64,
        a: &[usize],
        b: &[usize],
        shared_b: usize,
        jam: Option<&JamSpec>,
        seed: u64,
        medium: &mut Medium,
    ) -> HandshakeReport {
        let (params, pool) = (self.params, self.pool);
        let (n, tau) = (params.n_chips, params.tau);
        let codec = &mut self.codec;
        let mut rng = SimRng::seed_from_u64(seed);
        let wire = WireConfig::from_params(params);
        let (key_a, key_b) = span("crypto", id, || {
            (
                self.authority.issue(NodeId(1)),
                self.authority.issue(NodeId(2)),
            )
        });
        let mut initiator = span("handshake", id, || {
            Initiator::new_with_format(key_a, wire, WireFormat::Legacy, n, &mut rng)
        });
        let mut responder = span("handshake", id, || {
            Responder::new_with_format(key_b, wire, WireFormat::Legacy, n, 256, &mut rng)
        });

        // Message 1: one HELLO copy per code of A, jammed from the HELLO
        // on only if the jammer attacks message 0.
        let hello_bits = span("handshake", id, || initiator.hello_frame());
        let mut hello_coded = Vec::new();
        span("ecc", id, || {
            codec.encode_into(&hello_bits, &mut hello_coded)
        })
        .expect("non-empty");
        let msg_chips = hello_coded.len() * n;
        let window = msg_chips * a.len();
        let base = medium.cursor;
        let mut buffer = Vec::new();
        span("dsss.render", id, || {
            for (copy, &k) in a.iter().enumerate() {
                let at = base + (copy * msg_chips) as u64;
                medium
                    .channel
                    .transmit(at, spread(&hello_coded, &pool[k]), 1);
            }
            if let Some(j) = jam.filter(|j| j.first_message == 0) {
                for copy in 0..a.len() {
                    let at = base + (copy * msg_chips) as u64;
                    jam_tail(
                        &mut medium.channel,
                        at,
                        hello_coded.len(),
                        n,
                        j,
                        &pool[j.code],
                        &mut rng,
                    );
                }
            }
            medium.channel.render_into(&mut buffer, base, window);
            medium.advance(window);
        });

        // B's sliding-window scan over its whole buffering window.
        let b_refs: Vec<&SpreadCode> = b.iter().map(|&k| &pool[k]).collect();
        let bank = span("dsss.scan", id, || MultiCorrelator::new(&b_refs));
        let mut scanner = span("dsss.scan", id, || bank.scanner(&buffer));
        let mut scratch = ScanScratch::new();
        let mut frame = Frame {
            bits: Vec::new(),
            erased: Vec::new(),
        };
        let mut hello_decoded = Vec::new();
        let (mut correlations, mut retries) = (0u64, 0u64);
        let mut confirm = None;
        let mut pos = 0usize;
        while pos + n <= buffer.len() {
            let Some(hit) = span("dsss.scan", id, || {
                scan_from_with(&mut scanner, pos, tau, &mut scratch)
            }) else {
                break;
            };
            correlations += hit.correlations_computed;
            let code = scanner.bank().codes()[hit.code_index];
            let framed = span("dsss.despread", id, || {
                decode_frame_into(
                    scanner.samples(),
                    hit.offset,
                    code,
                    hello_coded.len(),
                    tau,
                    &mut frame,
                )
            });
            let decoded = framed
                && span("ecc", id, || {
                    codec.decode_into(
                        &frame.bits,
                        &frame.erased,
                        hello_bits.len(),
                        &mut hello_decoded,
                    )
                })
                .is_ok();
            if decoded && hit.code_index == shared_b {
                let heard = span("handshake", id, || {
                    responder.on_hello(&hello_decoded, CodeId(shared_b as u32))
                });
                if let Ok(c) = heard {
                    confirm = Some(c);
                    break;
                }
            }
            retries += 1;
            pos = hit.offset + n;
        }
        let Some(confirm) = confirm else {
            return failed(Stage::NoHello, correlations, retries);
        };

        // Messages 2-4 on the shared code, each ECC-coded, spread, jammed
        // from `first_message` on, despread and decoded.
        let code = &pool[b[shared_b]];
        let mut coded = hello_coded;
        let mut decoded = Vec::new();
        let mut exchange = |index: usize, msg: &[bool], decoded: &mut Vec<bool>| -> bool {
            span("ecc", id, || codec.encode_into(msg, &mut coded)).expect("non-empty");
            let start = medium.cursor;
            span("dsss.render", id, || {
                medium.channel.transmit(start, spread(&coded, code), 1);
                if let Some(j) = jam.filter(|j| index >= j.first_message) {
                    jam_tail(
                        &mut medium.channel,
                        start,
                        coded.len(),
                        n,
                        j,
                        &pool[j.code],
                        &mut rng,
                    );
                }
            });
            let (bits, erased) = span("dsss.despread", id, || {
                despread_from_channel(&medium.channel, start, code, coded.len(), tau)
            });
            span("dsss.render", id, || medium.advance(coded.len() * n));
            span("ecc", id, || {
                codec.decode_into(&bits, &erased, msg.len(), decoded)
            })
            .is_ok()
        };

        let auth_a = exchange(1, &confirm, &mut decoded)
            .then(|| {
                span("handshake", id, || {
                    initiator.on_confirm(&decoded, CodeId(shared_b as u32)).ok()
                })
            })
            .flatten();
        let Some(auth_a) = auth_a else {
            return failed(Stage::NoConfirm, correlations, retries);
        };
        let cache = &mut self.cache;
        let auth_b = exchange(2, &auth_a, &mut decoded)
            .then(|| {
                span("handshake", id, || {
                    responder.on_auth_a_cached(&decoded, cache).ok()
                })
            })
            .flatten();
        let Some((auth_b, est_b)) = auth_b else {
            return failed(Stage::AuthAFailed, correlations, retries);
        };
        self.cache_lookups += 1;
        let est_a = exchange(3, &auth_b, &mut decoded)
            .then(|| {
                span("handshake", id, || {
                    initiator.on_auth_b_cached(&decoded, cache).ok()
                })
            })
            .flatten();
        let Some(est_a) = est_a else {
            return failed(Stage::AuthBFailed, correlations, retries);
        };
        self.cache_lookups += 1;
        HandshakeReport {
            discovered: est_a.session_code == est_b.session_code,
            stage: Stage::Complete,
            scan_correlations: correlations,
            sync_retries: retries,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jrsnd::deployment::Deployment;
    use jrsnd::BatchEngine;
    use jrsnd_perfbench::scenario::{self, SessionClass};

    #[test]
    fn chip_replay_reproduces_the_engine_on_every_session_class() {
        let deployment =
            Deployment::new(scenario::engine_params(), &scenario::master_secret(7)).unwrap();
        let pool = scenario::pool_codes(&deployment);
        let (params, authority) = (deployment.params(), deployment.authority());
        let config = scenario::engine_config();
        let retry = config.retry;
        let engine = BatchEngine::new(params, authority, &pool, config);
        let specs = scenario::engine_sessions(&deployment, 64, 7);
        let want = engine.run(&specs);
        let mut chip = ChipReplay::new(params, authority, &pool, retry);
        for (i, spec) in specs.iter().enumerate() {
            let got = chip.session(i as u64, spec);
            assert_eq!(got, want[i], "session {i} ({:?})", SessionClass::of(i));
        }
        assert!(want.iter().any(|o| o.report.discovered));
        assert!(want.iter().any(|o| o.attempts > 1), "the retry path ran");
    }
}
