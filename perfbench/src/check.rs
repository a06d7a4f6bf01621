//! Outcome checks and the derived outcome metrics.
//!
//! A failed operation is a session or seeded run whose outcome differs
//! from its oracle, or whose call panicked. An undiscovered session is a
//! simulated outcome, never a failure.

use jrsnd::montecarlo::Aggregate;
use jrsnd::network::RunResult;
use jrsnd::params::Params;
use jrsnd::SessionOutcome;
use jrsnd_sim::stats::RunningStats;

/// Number of positions where `got` differs from `want`, plus any length
/// difference: each is one failed operation.
pub fn mismatches<T: PartialEq>(got: &[T], want: &[T]) -> u64 {
    let differing = got.iter().zip(want).filter(|(g, w)| g != w).count();
    (differing + got.len().abs_diff(want.len())) as u64
}

/// Failure accounting across the timed units of one run: the first
/// unit's outcomes are checked against an oracle covering a prefix of them
/// (or all of them), and every later unit must repeat the first exactly.
#[derive(Debug)]
pub struct UnitCheck<T> {
    oracle: Option<Vec<T>>,
    oracle_len: usize,
    first: Option<Vec<T>>,
    /// Operations checked.
    pub attempted: u64,
    /// Operations whose outcome differed from its reference, or panicked.
    pub failed: u64,
}

impl<T: PartialEq> UnitCheck<T> {
    /// Checks against `oracle`, `None` if the oracle itself panicked
    /// (then its `oracle_len` operations fail). Each outcome is one
    /// operation.
    pub fn new(oracle: Option<Vec<T>>, oracle_len: usize) -> Self {
        UnitCheck {
            oracle,
            oracle_len,
            first: None,
            attempted: 0,
            failed: 0,
        }
    }

    /// Checks without an oracle: every later unit must repeat the first.
    pub fn repeating() -> Self {
        Self::new(Some(Vec::new()), 0)
    }

    /// Books one unit that should yield `outcomes` outcomes; `got` is
    /// `None` if the unit panicked.
    pub fn unit(&mut self, got: Option<Vec<T>>, outcomes: usize) {
        self.attempted += outcomes as u64;
        let Some(got) = got else {
            self.failed += outcomes as u64;
            return;
        };
        let wrong = match (&self.first, &self.oracle) {
            (Some(first), _) => mismatches(&got, first),
            (None, Some(want)) => mismatches(&got[..want.len().min(got.len())], want),
            (None, None) => self.oracle_len as u64,
        };
        self.failed += wrong;
        if self.first.is_none() {
            self.first = Some(got);
        }
    }

    /// The first completed unit's outcomes (empty if every unit panicked).
    pub fn first(&self) -> &[T] {
        self.first.as_deref().unwrap_or_default()
    }
}

/// Runs `f`, turning a panic into `None` so the caller can count the
/// call's operations as failed and carry on.
pub fn guarded<T>(f: impl FnOnce() -> T) -> Option<T> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).ok()
}

fn stats_fingerprint(s: &RunningStats) -> String {
    format!(
        "{}:{:x}:{:x}:{:x}:{:x}",
        s.count(),
        s.mean().to_bits(),
        s.variance().to_bits(),
        s.min().to_bits(),
        s.max().to_bits()
    )
}

/// Every field of a network run, bit-exact, as one comparable string.
pub fn run_fingerprint(r: &RunResult) -> String {
    format!(
        "pairs={} dndp={} mndp={} extra={} capable={} degree={:x} epochs={} \
         t_d={} t_m={} degraded={} attempts={}",
        r.physical_pairs,
        r.dndp_pairs,
        r.mndp_pairs,
        r.mndp_extra_steady_pairs,
        r.mndp_capable_pairs,
        r.mean_degree.to_bits(),
        r.mndp_epochs,
        stats_fingerprint(&r.dndp_latency),
        stats_fingerprint(&r.mndp_latency),
        r.degraded_pairs,
        r.retry_attempts
    )
}

/// Whether a one-run Monte-Carlo aggregate keeps the model's invariants:
/// probabilities in [0, 1], the M-NDP round and its fixpoint only add to
/// what D-NDP found, latency `max(T̄_D, T̄_M)` is at least `T̄_D`, and
/// the topology has edges.
pub fn keeps_invariants(a: &Aggregate) -> bool {
    let p = [
        a.p_dndp.mean(),
        a.p_mndp.mean(),
        a.p_jrsnd.mean(),
        a.p_jrsnd_steady.mean(),
    ];
    a.runs() == 1
        && p.iter().all(|p| (0.0..=1.0).contains(p))
        && a.p_jrsnd.mean() >= a.p_dndp.mean()
        && a.p_jrsnd_steady.mean() >= a.p_jrsnd.mean()
        && (a.t_dndp.count() == 0 || a.t_jrsnd.mean() >= a.t_dndp.mean())
        && a.degree.mean() > 0.0
}

/// Physical node pairs of a one-run aggregate over `n` nodes: the mean
/// degree is exactly `2 · pairs / n`.
pub fn physical_pairs(a: &Aggregate, n: usize) -> u64 {
    (a.degree.mean() * n as f64 / 2.0).round() as u64
}

/// Discovered sessions ÷ sessions.
pub fn p_discovered(outcomes: &[SessionOutcome]) -> f64 {
    let found = outcomes.iter().filter(|o| o.report.discovered).count();
    found as f64 / outcomes.len().max(1) as f64
}

/// Mean simulated time to discovery over the discovered sessions, in the
/// cost model of the paper's Theorem 2: B's identification scan at `ρ`
/// per chip correlated (`N` chips per correlation), two `l_f`-bit AUTH
/// transmissions and two key computations per attempt, plus the retry
/// backoff the session waited.
pub fn t_discovery_s(params: &Params, outcomes: &[SessionOutcome]) -> f64 {
    let n = params.n_chips as f64;
    let per_attempt = 2.0 * n * params.l_f() as f64 / params.chip_rate + 2.0 * params.t_key;
    let mut total = 0.0;
    let mut found = 0usize;
    for o in outcomes.iter().filter(|o| o.report.discovered) {
        total += params.rho * n * o.report.scan_correlations as f64
            + f64::from(o.attempts) * per_attempt
            + o.backoff_s;
        found += 1;
    }
    total / found.max(1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use jrsnd::chiplink::{HandshakeReport, Stage};

    fn outcome(discovered: bool, attempts: u32) -> SessionOutcome {
        SessionOutcome {
            report: HandshakeReport {
                discovered,
                stage: if discovered {
                    Stage::Complete
                } else {
                    Stage::NoHello
                },
                scan_correlations: 100,
                sync_retries: 0,
            },
            attempts,
            degraded: !discovered,
            backoff_s: 0.0,
        }
    }

    #[test]
    fn a_perturbed_outcome_is_one_failed_operation() {
        let want = vec![outcome(true, 1), outcome(false, 2), outcome(true, 2)];
        assert_eq!(mismatches(&want, &want), 0);
        let mut got = want.clone();
        got[1].attempts = 1;
        assert_eq!(mismatches(&got, &want), 1);
        got[2].report.scan_correlations += 1;
        assert_eq!(mismatches(&got, &want), 2);
        assert_eq!(mismatches(&got[..1], &want), 2, "missing outcomes fail");
    }

    #[test]
    fn a_perturbed_unit_outcome_is_a_failed_operation() {
        let want = vec![outcome(true, 1), outcome(false, 2), outcome(true, 2)];
        // The oracle covers the first two outcomes of each unit.
        let mut check = UnitCheck::new(Some(want[..2].to_vec()), 2);
        check.unit(Some(want.clone()), 3);
        assert_eq!((check.attempted, check.failed), (3, 0));
        let mut perturbed = want.clone();
        perturbed[2].backoff_s = 1.0;
        check.unit(Some(perturbed), 3);
        assert_eq!(check.failed, 1, "a later unit must repeat the first");
        check.unit(None, 3);
        assert_eq!(
            (check.attempted, check.failed),
            (9, 4),
            "a panic fails the unit"
        );

        let mut bad_first = want.clone();
        bad_first[0].report.discovered = false;
        let mut check = UnitCheck::new(Some(want[..2].to_vec()), 2);
        check.unit(Some(bad_first), 3);
        assert_eq!(
            check.failed, 1,
            "the first unit is checked against the oracle"
        );

        let mut check = UnitCheck::new(None, 2);
        check.unit(Some(want.clone()), 3);
        assert_eq!(check.failed, 2, "a panicked oracle fails what it covers");
    }

    #[test]
    fn a_perturbed_network_run_changes_its_fingerprint() {
        let config = crate::scenario::montecarlo_config();
        let mut small = config.clone();
        small.params.n = 200;
        small.params.l = 4;
        small.params.field_w = 1581.0;
        small.params.field_h = 1581.0;
        let run = jrsnd::network::run_once(&small, 9);
        let mut perturbed = run.clone();
        perturbed.mndp_pairs += 1;
        assert_ne!(run_fingerprint(&run), run_fingerprint(&perturbed));
        let mut perturbed = run.clone();
        perturbed.dndp_latency.push(1.0);
        assert_ne!(run_fingerprint(&run), run_fingerprint(&perturbed));
    }

    #[test]
    fn a_one_run_aggregate_gives_its_pairs_and_keeps_the_invariants() {
        let mut config = crate::scenario::montecarlo_config();
        config.params.n = 200;
        config.params.l = 4;
        config.params.field_w = 1581.0;
        config.params.field_h = 1581.0;
        let run = jrsnd::network::run_once(&config, 9);
        let mut agg = Aggregate::default();
        agg.absorb(&run);
        assert_eq!(physical_pairs(&agg, 200), run.physical_pairs as u64);
        assert!(keeps_invariants(&agg));
        let mut perturbed = run.clone();
        perturbed.dndp_pairs = run.physical_pairs + 1;
        let mut broken = Aggregate::default();
        broken.absorb(&perturbed);
        assert!(!keeps_invariants(&broken), "P̂_D above one");
        let mut check = UnitCheck::repeating();
        check.unit(Some(vec![agg.to_json()]), 1);
        check.unit(Some(vec![broken.to_json()]), 1);
        assert_eq!((check.attempted, check.failed), (2, 1));
    }

    #[test]
    fn an_undiscovered_session_is_not_a_failure() {
        let want = vec![outcome(false, 2); 4];
        assert_eq!(mismatches(&want.clone(), &want), 0);
        assert_eq!(p_discovered(&want), 0.0);
    }

    #[test]
    fn a_panic_is_caught_for_failure_accounting() {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let r: Option<u32> = guarded(|| panic!("boom"));
        std::panic::set_hook(prev);
        assert_eq!(r, None);
        assert_eq!(guarded(|| 7), Some(7));
    }
}
