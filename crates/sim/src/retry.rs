//! Budgeted retry with exponential backoff and deterministic jitter.
//!
//! Session drivers wrap their sub-session attempts in a [`RetryPolicy`]:
//! a fixed attempt budget, a base delay that doubles (or grows by any
//! multiplier) per attempt up to a cap, and a jitter fraction drawn from
//! the run's [`SimRng`] — so backoff is random in the
//! model sense but fully replayable from the run seed. When the budget is
//! exhausted the caller records a *degraded* outcome and moves on; retry
//! never turns into an abort.

use crate::rng::SimRng;
use rand::Rng;

/// Retry budget and backoff schedule for one class of sub-session.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Total attempts allowed (first try included). Always at least 1.
    pub max_attempts: u32,
    /// Backoff before the second attempt, in seconds.
    pub base_delay_s: f64,
    /// Multiplier applied per further attempt (2.0 = classic doubling).
    pub multiplier: f64,
    /// Upper bound on any single backoff delay, in seconds.
    pub max_delay_s: f64,
    /// Jitter fraction: each delay is scaled by a factor drawn uniformly
    /// from `[1 - jitter, 1 + jitter]` using the run RNG.
    pub jitter: f64,
}

impl RetryPolicy {
    /// No retries: a single attempt, zero backoff.
    pub fn none() -> Self {
        RetryPolicy {
            max_attempts: 1,
            base_delay_s: 0.0,
            multiplier: 2.0,
            max_delay_s: 0.0,
            jitter: 0.0,
        }
    }

    /// The canonical budgeted policy used by the `chaos` experiment:
    /// `extra_attempts` retries on top of the first try, 5 ms base delay
    /// doubling up to 80 ms, ±25 % jitter.
    pub fn budgeted(extra_attempts: u32) -> Self {
        RetryPolicy {
            max_attempts: 1 + extra_attempts,
            base_delay_s: 5e-3,
            multiplier: 2.0,
            max_delay_s: 80e-3,
            jitter: 0.25,
        }
    }

    /// Whether this policy ever retries.
    pub fn retries(&self) -> bool {
        self.max_attempts > 1
    }

    /// Backoff delay before attempt `attempt` (1-based: attempt 1 is the
    /// first try and waits nothing). Jitter is drawn from `rng`, so the
    /// delay sequence is deterministic given the run seed.
    pub fn backoff_delay(&self, attempt: u32, rng: &mut SimRng) -> f64 {
        if attempt <= 1 || self.base_delay_s <= 0.0 {
            return 0.0;
        }
        let exp = (attempt - 2) as i32;
        let raw = self.base_delay_s * self.multiplier.powi(exp);
        let capped = raw.min(self.max_delay_s.max(self.base_delay_s));
        if self.jitter > 0.0 {
            let factor = 1.0 + self.jitter * (2.0 * rng.gen::<f64>() - 1.0);
            capped * factor
        } else {
            capped
        }
    }
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy::none()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn none_policy_is_single_attempt_zero_delay() {
        let p = RetryPolicy::none();
        let mut rng = SimRng::seed_from_u64(1);
        assert!(!p.retries());
        for attempt in 1..6 {
            assert_eq!(p.backoff_delay(attempt, &mut rng), 0.0);
        }
    }

    #[test]
    fn backoff_grows_exponentially_until_the_cap() {
        let p = RetryPolicy {
            jitter: 0.0,
            ..RetryPolicy::budgeted(6)
        };
        let mut rng = SimRng::seed_from_u64(1);
        assert_eq!(p.backoff_delay(1, &mut rng), 0.0);
        assert_eq!(p.backoff_delay(2, &mut rng), 5e-3);
        assert_eq!(p.backoff_delay(3, &mut rng), 10e-3);
        assert_eq!(p.backoff_delay(4, &mut rng), 20e-3);
        assert_eq!(p.backoff_delay(5, &mut rng), 40e-3);
        assert_eq!(p.backoff_delay(6, &mut rng), 80e-3);
        assert_eq!(p.backoff_delay(7, &mut rng), 80e-3); // capped
    }

    #[test]
    fn jitter_is_bounded_and_deterministic() {
        let p = RetryPolicy::budgeted(3);
        let delays = |seed: u64| -> Vec<f64> {
            let mut rng = SimRng::seed_from_u64(seed);
            (2..6).map(|a| p.backoff_delay(a, &mut rng)).collect()
        };
        assert_eq!(delays(9), delays(9));
        assert_ne!(delays(9), delays(10));
        let mut rng = SimRng::seed_from_u64(3);
        for attempt in 2..6 {
            let d = p.backoff_delay(attempt, &mut rng);
            let nominal = (5e-3 * 2f64.powi(attempt as i32 - 2)).min(80e-3);
            assert!(d >= nominal * 0.75 && d <= nominal * 1.25);
        }
    }
}
