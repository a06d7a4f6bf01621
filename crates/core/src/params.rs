//! Evaluation and protocol parameters (Table I of the paper).
//!
//! [`Params`] is the single source of truth for every experiment: the
//! network size, the pre-distribution shape `(m, l)`, the adversary
//! strength `(q, z)`, the DSSS constants `(N, R, ρ, τ)`, the message field
//! widths, and the cryptographic costs. All derived quantities — pool size
//! `s`, encoded message lengths `l_h`/`l_f`, the buffering schedule, the
//! expected degree `g` — are computed here so the analysis, the simulator,
//! and the benches can never drift apart.

use jrsnd_crypto::prf::MAX_EXPAND_LEN;
use jrsnd_dsss::timing::Schedule;
use jrsnd_sim::geom::Field;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Typed parameter-validation errors: one variant per structural
/// constraint, so callers can match on *which* knob is broken instead of
/// parsing a message string.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum ParamsError {
    /// `n < 2`: a network needs at least two nodes.
    TooFewNodes,
    /// `m == 0`: every node must carry at least one spread code.
    ZeroCodesPerNode,
    /// `l < 2`: a code shared by a single node discovers nothing.
    ShareBoundTooSmall,
    /// `q > n`: more compromised nodes than nodes.
    TooManyCompromised,
    /// `N == 0`: the chip length must be positive (a zero code pool
    /// cannot spread anything).
    ZeroChipLength,
    /// `N > 65 280`: pool and session codes are PRF expansions of `N`
    /// bits, and one expansion yields at most 8160 bytes.
    ChipLengthTooLarge,
    /// `R ≤ 0` or non-finite: the chip rate must be positive.
    NonPositiveChipRate,
    /// `ρ ≤ 0` or non-finite: the correlation cost must be positive.
    NonPositiveRho,
    /// `μ ≤ 0` or non-finite: the ECC expansion factor is out of range.
    MuOutOfRange,
    /// `ν == 0`: M-NDP needs at least one hop.
    ZeroHopLimit,
    /// `τ ∉ (0, 1)`: the de-spreading threshold is out of range.
    TauOutOfRange,
    /// `z == 0` or `z ≥ N`: parallel jamming signals must satisfy
    /// `0 < z ≪ N`.
    JammingSignalsOutOfRange,
    /// A message field width (`l_t`, `l_id`, `l_n`, `l_mac`) is zero.
    ZeroMessageField,
    /// `l_n > 32`: nonces are carried in a `u32`.
    NonceWidthTooLarge,
    /// `l_mac > 64`: the wire codec carries the truncated MAC as one
    /// `u64` in both formats.
    MacWidthTooLarge,
    /// A cryptographic cost (`t_key`, `t_sig`, `t_ver`) is negative.
    NegativeCryptoCost,
    /// A field dimension is non-positive or non-finite, or the
    /// transmission range is non-positive.
    NonPositiveGeometry,
    /// `⌈w/range⌉·⌈h/range⌉ > u32::MAX`: the neighbor search tiles the
    /// field with cells of side `range` and numbers them with `u32` ids.
    RangeGridTooLarge,
    /// `γ == 0`: the revocation threshold must be positive.
    ZeroRevocationThreshold,
}

impl ParamsError {
    /// Human-readable description of the violated constraint.
    pub fn message(&self) -> &'static str {
        match self {
            ParamsError::TooFewNodes => "need at least 2 nodes",
            ParamsError::ZeroCodesPerNode => "m must be positive",
            ParamsError::ShareBoundTooSmall => {
                "l must be at least 2 (a code shared by one node is useless)"
            }
            ParamsError::TooManyCompromised => "q cannot exceed n",
            ParamsError::ZeroChipLength => "N must be positive",
            ParamsError::ChipLengthTooLarge => "N is capped at 65280 chips",
            ParamsError::NonPositiveChipRate => "R must be positive and finite",
            ParamsError::NonPositiveRho => "rho must be positive and finite",
            ParamsError::MuOutOfRange => "mu must be positive and finite",
            ParamsError::ZeroHopLimit => "nu must be at least 1",
            ParamsError::TauOutOfRange => "tau must be in (0, 1)",
            ParamsError::JammingSignalsOutOfRange => "z must satisfy 0 < z << N",
            ParamsError::ZeroMessageField => "message field widths must be positive",
            ParamsError::NonceWidthTooLarge => "l_n is capped at 32 bits",
            ParamsError::MacWidthTooLarge => "l_mac is capped at 64 bits",
            ParamsError::NegativeCryptoCost => "crypto costs must be non-negative",
            ParamsError::NonPositiveGeometry => {
                "field must be positive and finite, and range positive"
            }
            ParamsError::RangeGridTooLarge => {
                "the field holds more cells of side range than u32 ids"
            }
            ParamsError::ZeroRevocationThreshold => "gamma must be positive",
        }
    }
}

impl fmt::Display for ParamsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid parameters: {}", self.message())
    }
}

impl std::error::Error for ParamsError {}

/// The full parameter set, defaulting to Table I.
///
/// Fields are public — this is a passive configuration record; call
/// [`Params::validate`] after mutating (every constructor in the crate
/// does).
///
/// # Examples
///
/// ```
/// use jrsnd::params::Params;
///
/// let p = Params::table1();
/// assert_eq!((p.n, p.m, p.l, p.q), (2000, 100, 40, 20));
/// // Sweep a parameter, keeping the rest at defaults:
/// let mut p = Params::table1();
/// p.m = 60;
/// p.validate().unwrap();
/// assert_eq!(p.pool_size(), 50 * 60); // s = ceil(n/l) * m
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Params {
    /// Number of MANET nodes `n`.
    pub n: usize,
    /// Spread codes per node `m`.
    pub m: usize,
    /// Maximum nodes sharing one code `l`.
    pub l: usize,
    /// Number of compromised nodes `q`.
    pub q: usize,
    /// Spread-code chip length `N`.
    pub n_chips: usize,
    /// Chip rate `R` in chips per second.
    pub chip_rate: f64,
    /// Correlation cost `ρ` in seconds per bit.
    pub rho: f64,
    /// ECC expansion factor `μ`.
    pub mu: f64,
    /// Maximum M-NDP hop count `ν`.
    pub nu: usize,
    /// De-spreading threshold `τ`.
    pub tau: f64,
    /// Parallel jamming signals `z` (`z ≪ N`).
    pub z: usize,
    /// Message-type field width `l_t` in bits.
    pub l_t: usize,
    /// Node-ID width `l_id` in bits.
    pub l_id: usize,
    /// Nonce width `l_n` in bits.
    pub l_n: usize,
    /// MAC tag width `l_mac` in bits (chosen so that
    /// `l_f = (1+μ)(l_id + l_n + l_mac)` hits Table I's 160).
    pub l_mac: usize,
    /// Hop-limit field width `l_ν` in bits.
    pub l_nu: usize,
    /// ID-based signature width `l_sig` in bits.
    pub l_sig: usize,
    /// ID-based shared-key computation time `t_key` in seconds.
    pub t_key: f64,
    /// Signature generation time `t_sig` in seconds.
    pub t_sig: f64,
    /// Signature verification time `t_ver` in seconds.
    pub t_ver: f64,
    /// Deployment field edge lengths in metres.
    pub field_w: f64,
    /// Deployment field height in metres.
    pub field_h: f64,
    /// Transmission range in metres.
    pub range: f64,
    /// Revocation threshold `γ` (invalid requests per code before local
    /// revocation, Section V-D).
    pub gamma: u32,
}

impl Params {
    /// The paper's Table I defaults.
    pub fn table1() -> Self {
        Params {
            n: 2000,
            m: 100,
            l: 40,
            q: 20,
            n_chips: 512,
            chip_rate: 22e6,
            rho: 1e-11,
            mu: 1.0,
            nu: 2,
            tau: 0.15,
            z: 10,
            l_t: 5,
            l_id: 16,
            l_n: 20,
            l_mac: 44,
            l_nu: 4,
            l_sig: 672,
            t_key: 11e-3,
            t_sig: 5.7e-3,
            t_ver: 35.5e-3,
            field_w: 5000.0,
            field_h: 5000.0,
            range: 300.0,
            gamma: 5,
        }
    }

    /// Checks all structural constraints.
    ///
    /// # Errors
    ///
    /// Returns the [`ParamsError`] variant naming the violated constraint
    /// (the first one found, in declaration order).
    pub fn validate(&self) -> Result<(), ParamsError> {
        if self.n < 2 {
            return Err(ParamsError::TooFewNodes);
        }
        if self.m == 0 {
            return Err(ParamsError::ZeroCodesPerNode);
        }
        if self.l < 2 {
            return Err(ParamsError::ShareBoundTooSmall);
        }
        if self.q > self.n {
            return Err(ParamsError::TooManyCompromised);
        }
        if self.n_chips == 0 {
            return Err(ParamsError::ZeroChipLength);
        }
        if self.n_chips > 8 * MAX_EXPAND_LEN {
            return Err(ParamsError::ChipLengthTooLarge);
        }
        if !(self.chip_rate > 0.0 && self.chip_rate.is_finite()) {
            return Err(ParamsError::NonPositiveChipRate);
        }
        if !(self.rho > 0.0 && self.rho.is_finite()) {
            return Err(ParamsError::NonPositiveRho);
        }
        if !(self.mu > 0.0 && self.mu.is_finite()) {
            return Err(ParamsError::MuOutOfRange);
        }
        if self.nu == 0 {
            return Err(ParamsError::ZeroHopLimit);
        }
        if !(0.0 < self.tau && self.tau < 1.0) {
            return Err(ParamsError::TauOutOfRange);
        }
        if self.z == 0 || self.z >= self.n_chips {
            return Err(ParamsError::JammingSignalsOutOfRange);
        }
        if self.l_t == 0 || self.l_id == 0 || self.l_n == 0 || self.l_mac == 0 {
            return Err(ParamsError::ZeroMessageField);
        }
        if self.l_n > 32 {
            return Err(ParamsError::NonceWidthTooLarge);
        }
        if self.l_mac > 64 {
            return Err(ParamsError::MacWidthTooLarge);
        }
        if !(self.t_key >= 0.0 && self.t_sig >= 0.0 && self.t_ver >= 0.0) {
            return Err(ParamsError::NegativeCryptoCost);
        }
        let field_ok = |side: f64| side > 0.0 && side.is_finite();
        if !(field_ok(self.field_w) && field_ok(self.field_h) && self.range > 0.0) {
            return Err(ParamsError::NonPositiveGeometry);
        }
        if self.field().grid(self.range).is_none() {
            return Err(ParamsError::RangeGridTooLarge);
        }
        if self.gamma == 0 {
            return Err(ParamsError::ZeroRevocationThreshold);
        }
        Ok(())
    }

    /// Validate-at-construction: consumes a freely mutated record and
    /// returns it only if every structural constraint holds, so invalid
    /// configurations are rejected here instead of panicking deep inside
    /// the DSSS layer.
    ///
    /// ```
    /// use jrsnd::params::{Params, ParamsError};
    ///
    /// let mut p = Params::table1();
    /// p.chip_rate = 0.0;
    /// assert_eq!(p.validated(), Err(ParamsError::NonPositiveChipRate));
    /// ```
    ///
    /// # Errors
    ///
    /// Returns the same [`ParamsError`] as [`Params::validate`].
    pub fn validated(self) -> Result<Self, ParamsError> {
        self.validate()?;
        Ok(self)
    }

    /// Number of partitions per round, `w = ⌈n / l⌉`.
    pub fn partitions(&self) -> usize {
        self.n.div_ceil(self.l)
    }

    /// Pool size `s = w · m`.
    pub fn pool_size(&self) -> usize {
        self.partitions() * self.m
    }

    /// Encoded HELLO/CONFIRM length `l_h = (1+μ)(l_t + l_id)` bits.
    pub fn l_h(&self) -> usize {
        ((1.0 + self.mu) * (self.l_t + self.l_id) as f64).round() as usize
    }

    /// Encoded authentication-message length
    /// `l_f = (1+μ)(l_id + l_n + l_mac)` bits (Table I: 160).
    pub fn l_f(&self) -> usize {
        ((1.0 + self.mu) * (self.l_id + self.l_n + self.l_mac) as f64).round() as usize
    }

    /// The DSSS buffering/processing schedule for these parameters.
    pub fn schedule(&self) -> Schedule {
        Schedule::new(self.n_chips, self.m, self.chip_rate, self.rho, self.l_h())
    }

    /// The deployment field.
    pub fn field(&self) -> Field {
        Field::new(self.field_w, self.field_h)
    }

    /// Analytic expected physical degree `g` (no border correction).
    pub fn expected_degree(&self) -> f64 {
        self.field().expected_degree(self.n, self.range)
    }

    /// Probability that two given nodes are assigned the same code in one
    /// pre-distribution round, `(l−1)/(n−1)`.
    pub fn share_prob_per_round(&self) -> f64 {
        (self.l as f64 - 1.0) / (self.n as f64 - 1.0)
    }
}

impl Default for Params {
    fn default() -> Self {
        Params::table1()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_is_valid_and_matches_paper() {
        let p = Params::table1();
        p.validate().unwrap();
        assert_eq!(p.l_h(), 42, "l_h = (1+1)(5+16)");
        assert_eq!(p.l_f(), 160, "Table I lists l_f = 160");
        assert_eq!(p.partitions(), 50);
        assert_eq!(p.pool_size(), 5000);
        assert!((p.expected_degree() - 22.62).abs() < 0.05);
        assert!((p.share_prob_per_round() - 39.0 / 1999.0).abs() < 1e-12);
    }

    #[test]
    fn schedule_consistency() {
        let p = Params::table1();
        let s = p.schedule();
        assert_eq!(s.l_h, 42);
        // lambda = rho*N*m*R = 1e-11 * 512 * 100 * 22e6
        assert!((s.lambda() - 11.264).abs() < 1e-3);
    }

    #[test]
    fn partitions_round_up() {
        let mut p = Params::table1();
        p.n = 2001;
        assert_eq!(p.partitions(), 51);
        p.n = 2000;
        p.l = 39;
        assert_eq!(p.partitions(), 52); // ceil(2000/39) = 52
    }

    #[test]
    fn validation_catches_each_violation_with_the_right_variant() {
        type Mutator = Box<dyn Fn(&mut Params)>;
        let cases: Vec<(ParamsError, Mutator)> = vec![
            (ParamsError::TooFewNodes, Box::new(|p| p.n = 1)),
            (ParamsError::ZeroCodesPerNode, Box::new(|p| p.m = 0)),
            (ParamsError::ShareBoundTooSmall, Box::new(|p| p.l = 1)),
            (ParamsError::TooManyCompromised, Box::new(|p| p.q = p.n + 1)),
            (ParamsError::ZeroChipLength, Box::new(|p| p.n_chips = 0)),
            (
                ParamsError::ChipLengthTooLarge,
                Box::new(|p| p.n_chips = 65_281),
            ),
            (
                ParamsError::NonPositiveChipRate,
                Box::new(|p| p.chip_rate = 0.0),
            ),
            (
                ParamsError::NonPositiveChipRate,
                Box::new(|p| p.chip_rate = f64::NAN),
            ),
            (ParamsError::NonPositiveRho, Box::new(|p| p.rho = -1.0)),
            (ParamsError::MuOutOfRange, Box::new(|p| p.mu = 0.0)),
            (
                ParamsError::MuOutOfRange,
                Box::new(|p| p.mu = f64::INFINITY),
            ),
            (ParamsError::ZeroHopLimit, Box::new(|p| p.nu = 0)),
            (ParamsError::TauOutOfRange, Box::new(|p| p.tau = 1.5)),
            (ParamsError::TauOutOfRange, Box::new(|p| p.tau = 0.0)),
            (ParamsError::JammingSignalsOutOfRange, Box::new(|p| p.z = 0)),
            (
                ParamsError::JammingSignalsOutOfRange,
                Box::new(|p| p.z = p.n_chips),
            ),
            (ParamsError::ZeroMessageField, Box::new(|p| p.l_id = 0)),
            (ParamsError::NonceWidthTooLarge, Box::new(|p| p.l_n = 40)),
            (ParamsError::MacWidthTooLarge, Box::new(|p| p.l_mac = 65)),
            (
                ParamsError::NegativeCryptoCost,
                Box::new(|p| p.t_key = -0.1),
            ),
            (
                ParamsError::NonPositiveGeometry,
                Box::new(|p| p.range = 0.0),
            ),
            (
                ParamsError::NonPositiveGeometry,
                Box::new(|p| p.field_w = f64::INFINITY),
            ),
            (
                ParamsError::RangeGridTooLarge,
                Box::new(|p| (p.field_w, p.field_h) = (1e12, 1e12)),
            ),
            (
                ParamsError::ZeroRevocationThreshold,
                Box::new(|p| p.gamma = 0),
            ),
        ];
        for (expected, mutate) in cases {
            let mut p = Params::table1();
            mutate(&mut p);
            assert_eq!(p.validate(), Err(expected));
            assert_eq!(p.clone().validated(), Err(expected));
            assert!(!expected.message().is_empty());
        }
        // The widest MAC the wire codec carries is still valid.
        let mut p = Params::table1();
        p.l_mac = 64;
        assert_eq!(p.validate(), Ok(()));
    }

    #[test]
    fn validated_passes_through_a_good_config() {
        let p = Params::table1().validated().unwrap();
        assert_eq!(p, Params::table1());
    }

    #[test]
    fn default_is_table1() {
        assert_eq!(Params::default(), Params::table1());
    }

    #[test]
    fn serde_round_trip_via_clone_eq() {
        // serde derives compile; structural equality sanity.
        let p = Params::table1();
        let q = p.clone();
        assert_eq!(p, q);
    }
}
