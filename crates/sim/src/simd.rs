//! Runtime SIMD capability detection for the dispatched kernels.
//!
//! The workspace historically committed `-C target-cpu=native`, which makes
//! binaries non-portable: the autovectorized correlate/render kernels
//! compile to whatever the build host supports. Runtime dispatch removes
//! that coupling for the service path: the DSSS kernels (`jrsnd_dsss`)
//! compile their hot inner loops three times (baseline, SSE4.1, AVX2)
//! behind `#[target_feature]`, and pick the widest level the *running*
//! CPU reports — detected once per process via
//! [`std::arch::is_x86_feature_detected!`].
//!
//! Every dispatched kernel is pure integer arithmetic, so the three
//! compilations are bit-identical by construction; the kernel-equivalence
//! suite asserts it anyway for each level the host can execute.
//!
//! The selection is overridable for tests and benchmarks through the
//! `JRSND_SIMD` environment variable (`scalar`, `sse4.1`, `avx2`, or
//! `auto`; requests above what the CPU supports clamp down to
//! [`detected`]), read once at first use.

use std::sync::OnceLock;

/// An instruction-set level a dispatched kernel may be compiled for.
///
/// Ordered: `Scalar < Sse41 < Avx2`, so clamping a requested level to the
/// detected one is `min`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SimdLevel {
    /// The compilation baseline — no runtime feature requirement. Still
    /// autovectorized to whatever the build target allows.
    Scalar,
    /// SSE4.1 (x86-64-v2 territory): 128-bit integer lanes.
    Sse41,
    /// AVX2 (x86-64-v3): 256-bit integer lanes.
    Avx2,
}

impl SimdLevel {
    /// Human-readable name, as accepted by `JRSND_SIMD`.
    pub fn name(self) -> &'static str {
        match self {
            SimdLevel::Scalar => "scalar",
            SimdLevel::Sse41 => "sse4.1",
            SimdLevel::Avx2 => "avx2",
        }
    }
}

/// The widest level the running CPU supports, ignoring any override.
///
/// On non-x86-64 targets this is always [`SimdLevel::Scalar`] — the
/// baseline kernels are the only compiled variants there.
pub fn detected() -> SimdLevel {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx2") {
            return SimdLevel::Avx2;
        }
        if std::arch::is_x86_feature_detected!("sse4.1") {
            return SimdLevel::Sse41;
        }
    }
    SimdLevel::Scalar
}

/// The level the dispatched kernels actually run at: [`detected`], capped
/// by the `JRSND_SIMD` environment variable when set. Resolved once per
/// process and cached.
pub fn active() -> SimdLevel {
    static ACTIVE: OnceLock<SimdLevel> = OnceLock::new();
    *ACTIVE.get_or_init(|| {
        let hw = detected();
        match std::env::var("JRSND_SIMD").as_deref() {
            Ok("scalar") => SimdLevel::Scalar,
            Ok("sse4.1" | "sse41") => hw.min(SimdLevel::Sse41),
            Ok("avx2") => hw.min(SimdLevel::Avx2),
            // Unknown values (and "auto") take the hardware's answer: a
            // typo must never silently drop to scalar.
            _ => hw,
        }
    })
}

/// Every level from [`SimdLevel::Scalar`] up to and including `top` —
/// the levels a host with capability `top` can execute. Used by the
/// kernel-equivalence tests to sweep all runnable variants.
pub fn levels_up_to(top: SimdLevel) -> &'static [SimdLevel] {
    match top {
        SimdLevel::Scalar => &[SimdLevel::Scalar],
        SimdLevel::Sse41 => &[SimdLevel::Scalar, SimdLevel::Sse41],
        SimdLevel::Avx2 => &[SimdLevel::Scalar, SimdLevel::Sse41, SimdLevel::Avx2],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn levels_are_ordered() {
        assert!(SimdLevel::Scalar < SimdLevel::Sse41);
        assert!(SimdLevel::Sse41 < SimdLevel::Avx2);
    }

    #[test]
    fn active_never_exceeds_detected() {
        // Whatever JRSND_SIMD says, the cached selection must be runnable.
        assert!(active() <= detected());
    }

    #[test]
    fn levels_up_to_ends_at_top() {
        for top in [SimdLevel::Scalar, SimdLevel::Sse41, SimdLevel::Avx2] {
            let ls = levels_up_to(top);
            assert_eq!(*ls.last().unwrap(), top);
            assert_eq!(ls[0], SimdLevel::Scalar);
            assert!(ls.windows(2).all(|w| w[0] < w[1]));
        }
    }

    #[test]
    fn names_round_trip() {
        assert_eq!(SimdLevel::Avx2.name(), "avx2");
        assert_eq!(SimdLevel::Sse41.name(), "sse4.1");
        assert_eq!(SimdLevel::Scalar.name(), "scalar");
    }

    /// CI hook: when `JRSND_SIMD_EXPECT` names a level, the dispatched
    /// selection must be exactly that level. The portable (x86-64-v2)
    /// job sets `JRSND_SIMD_EXPECT=avx2` to prove runtime detection
    /// engages the AVX2 kernels even when the build target could not
    /// assume them. A no-op when the variable is unset, so local runs on
    /// arbitrary hardware stay green.
    #[test]
    fn dispatch_matches_expectation_env() {
        if let Ok(want) = std::env::var("JRSND_SIMD_EXPECT") {
            let got = active();
            println!("dispatch: active SIMD level = {}", got.name());
            assert_eq!(got.name(), want, "dispatched level != JRSND_SIMD_EXPECT");
        }
    }
}
