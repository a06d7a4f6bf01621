//! Closed-form analysis of D-NDP (Theorems 1 and 2).
//!
//! Theorem 1 brackets the direct-discovery probability:
//! `P̂− ≤ P̂_D ≤ P̂+`, where the lower bound is achieved under reactive
//! jamming (any compromised code is jammed) and the upper bound under
//! random jamming (the jammer must guess which compromised codes to use
//! within its `z`-signal budget).
//!
//! Theorem 2 gives the average discovery latency
//! `T̄_D ≈ ρm(3m+4)N²l_h/2 + 2Nl_f/R + 2t_key`.

use crate::analysis::predist::{alpha, expected_compromised_codes, pr_share_exactly};
use crate::params::Params;

/// `β = min{z(1+μ)/(cμ), 1}`: probability the random jammer hits the
/// HELLO's code, given `c` compromised codes. Zero when `c = 0`.
pub fn beta(params: &Params, c: f64) -> f64 {
    if c <= 0.0 {
        return 0.0;
    }
    (params.z as f64 * (1.0 + params.mu) / (c * params.mu)).min(1.0)
}

/// `β′ = min{3z(1+μ)/(cμ), 1}`: probability at least one of the three
/// post-HELLO messages is jammed. Zero when `c = 0`.
pub fn beta_prime(params: &Params, c: f64) -> f64 {
    if c <= 0.0 {
        return 0.0;
    }
    (3.0 * params.z as f64 * (1.0 + params.mu) / (c * params.mu)).min(1.0)
}

/// Theorem 1 lower bound (reactive jamming):
/// `P̂− = 1 − Σ_x Pr[x]·α^x = 1 − (1 − p(1−α))^m`.
pub fn p_dndp_lower(params: &Params) -> f64 {
    let a = alpha(params);
    let p = params.share_prob_per_round();
    1.0 - (1.0 - p * (1.0 - a)).powi(params.m as i32)
}

/// Theorem 1 upper bound (random jamming):
/// `P̂+ = 1 − Σ_x Pr[x]·(α·(β+β′−ββ′))^x`.
pub fn p_dndp_upper(params: &Params) -> f64 {
    let a = alpha(params);
    let c = expected_compromised_codes(params);
    let b = beta(params, c);
    let bp = beta_prime(params, c);
    let delta = b + bp - b * bp;
    let p = params.share_prob_per_round();
    1.0 - (1.0 - p * (1.0 - a * delta)).powi(params.m as i32)
}

/// Theorem 1 lower bound evaluated by the explicit sum over `x` — used to
/// cross-check the closed form in tests and exposed for transparency.
pub fn p_dndp_lower_by_sum(params: &Params) -> f64 {
    let a = alpha(params);
    let fail: f64 = (0..=params.m)
        .map(|x| pr_share_exactly(params, x) * a.powi(x as i32))
        .sum();
    1.0 - fail
}

/// Theorem 2: average D-NDP latency in seconds,
/// `T̄_D ≈ ρm(3m+4)N²l_h/2 + 2Nl_f/R + 2t_key`.
///
/// The first term is the identification phase (three residual/processing
/// waits of mean `t_p/2` plus one de-spread wait of mean `λt_h/2`); the
/// second is the two authentication transmissions; the third the two
/// ID-based key computations.
///
/// # Examples
///
/// ```
/// use jrsnd::analysis::dndp::t_dndp;
/// use jrsnd::params::Params;
///
/// // "JR-SND has a latency under 2 seconds" at Table I defaults.
/// let t = t_dndp(&Params::table1());
/// assert!(t < 2.0, "T_D = {t}");
/// ```
pub fn t_dndp(params: &Params) -> f64 {
    t_dndp_with_hello_bits(params, params.l_h())
}

/// [`t_dndp`] with an explicit **coded** HELLO length substituted for the
/// Table-I `l_h = (1+μ)(l_t + l_id)`. The identification phase scales
/// linearly in the coded HELLO bit count, so a shorter wire format (e.g.
/// the packed TLV frame from [`crate::wire`], run through the same (1+μ)
/// expansion) shrinks `T̄_D`'s dominant term directly; this variant feeds
/// the packed-vs-legacy theory columns of the latency figure.
pub fn t_dndp_with_hello_bits(params: &Params, l_h_bits: usize) -> f64 {
    let m = params.m as f64;
    let n = params.n_chips as f64;
    let ident = params.rho * m * (3.0 * m + 4.0) * n * n * l_h_bits as f64 / 2.0;
    let auth_tx = 2.0 * n * params.l_f() as f64 / params.chip_rate;
    ident + auth_tx + 2.0 * params.t_key
}

/// The identification-phase component of [`t_dndp`] (useful for the m-sweep
/// figure, where it dominates).
pub fn t_dndp_identification(params: &Params) -> f64 {
    let m = params.m as f64;
    let n = params.n_chips as f64;
    params.rho * m * (3.0 * m + 4.0) * n * n * params.l_h() as f64 / 2.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn closed_form_matches_sum() {
        for (m, q) in [(50usize, 10usize), (100, 20), (200, 60)] {
            let mut p = Params::table1();
            p.m = m;
            p.q = q;
            let closed = p_dndp_lower(&p);
            let sum = p_dndp_lower_by_sum(&p);
            assert!(
                (closed - sum).abs() < 1e-9,
                "m={m}, q={q}: {closed} vs {sum}"
            );
        }
    }

    #[test]
    fn shorter_hello_shrinks_latency() {
        use crate::messages::{MessageKind, WireConfig};
        let p = Params::table1();
        let raw = crate::wire::hello_bits(
            &WireConfig::from_params(&p),
            crate::wire::WireFormat::Packed,
            MessageKind::Hello,
            jrsnd_crypto::ibc::NodeId(1),
        );
        let coded = jrsnd_ecc::expand::ExpansionCode::new(p.mu)
            .and_then(|c| c.layout(raw))
            .map(|l| l.coded_bits())
            .unwrap();
        assert!(coded < p.l_h(), "coded packed HELLO ({coded}) >= l_h");
        let t_packed = t_dndp_with_hello_bits(&p, coded);
        assert!(t_packed < t_dndp(&p));
        // Delegation: the explicit-length form at l_h is exactly t_dndp.
        assert_eq!(t_dndp_with_hello_bits(&p, p.l_h()), t_dndp(&p));
    }

    #[test]
    fn table1_lower_bound_value() {
        // p = 39/1999, alpha ~ 0.333:
        // P- = 1 - (1 - p*0.667)^100 ~ 0.73.
        let p = Params::table1();
        let lower = p_dndp_lower(&p);
        assert!((0.70..0.76).contains(&lower), "P- = {lower}");
    }

    #[test]
    fn bounds_are_ordered() {
        for q in [0usize, 10, 20, 50, 100] {
            let mut p = Params::table1();
            p.q = q;
            let lo = p_dndp_lower(&p);
            let hi = p_dndp_upper(&p);
            assert!(lo <= hi + 1e-12, "q={q}: {lo} > {hi}");
            assert!((0.0..=1.0).contains(&lo) && (0.0..=1.0).contains(&hi));
        }
    }

    #[test]
    fn no_compromise_no_jamming_effect() {
        let mut p = Params::table1();
        p.q = 0;
        let lo = p_dndp_lower(&p);
        let hi = p_dndp_upper(&p);
        let share = crate::analysis::predist::pr_share_at_least_one(&p);
        assert!((lo - share).abs() < 1e-12);
        assert!((hi - share).abs() < 1e-12);
    }

    #[test]
    fn q100_l40_gives_pd_about_0_2() {
        // Fig. 5(a)'s premise: "P_D = 0.2 which corresponds to q = 100".
        let mut p = Params::table1();
        p.q = 100;
        let lower = p_dndp_lower(&p);
        assert!((0.15..0.3).contains(&lower), "P_D(q=100) = {lower}");
    }

    #[test]
    fn p_decreases_with_q_increases_with_m() {
        let mut last = 1.0;
        for q in [0usize, 20, 40, 80, 160] {
            let mut p = Params::table1();
            p.q = q;
            let v = p_dndp_lower(&p);
            assert!(v <= last + 1e-12, "not decreasing at q={q}");
            last = v;
        }
        let mut last = 0.0;
        for m in [20usize, 60, 100, 160, 200] {
            let mut p = Params::table1();
            p.m = m;
            let v = p_dndp_lower(&p);
            assert!(v >= last - 1e-12, "not increasing at m={m}");
            last = v;
        }
    }

    #[test]
    fn beta_saturates_and_vanishes() {
        let p = Params::table1();
        assert_eq!(beta(&p, 0.0), 0.0);
        assert_eq!(beta_prime(&p, 0.0), 0.0);
        assert_eq!(beta(&p, 1.0), 1.0, "one compromised code is surely picked");
        // c = 1665 (Table I expectation): beta = 10*2/1665 ~ 0.012.
        let c = expected_compromised_codes(&p);
        assert!((beta(&p, c) - 20.0 / c).abs() < 1e-12);
        assert!((beta_prime(&p, c) - 60.0 / c).abs() < 1e-12);
    }

    #[test]
    fn latency_quadratic_in_m_and_under_2s_at_default() {
        let p = Params::table1();
        let t100 = t_dndp(&p);
        assert!(t100 < 2.0, "T_D(100) = {t100}");
        assert!(t100 > 1.0, "T_D(100) = {t100} suspiciously small");
        // Quadratic growth: T(200)/T(100) ~ (200*604)/(100*304) ~ 3.97
        // for the dominant identification term.
        let mut p2 = Params::table1();
        p2.m = 200;
        let ratio = t_dndp_identification(&p2) / t_dndp_identification(&p);
        assert!((ratio - (200.0 * 604.0) / (100.0 * 304.0)).abs() < 1e-9);
    }

    #[test]
    fn latency_components_positive() {
        let p = Params::table1();
        let ident = t_dndp_identification(&p);
        let total = t_dndp(&p);
        assert!(ident > 0.0 && total > ident);
        // Auth component = 2*N*l_f/R + 2*t_key ~ 7.45ms + 22ms.
        let auth = total - ident;
        assert!((auth - (2.0 * 512.0 * 160.0 / 22e6 + 0.022)).abs() < 1e-9);
    }
}
