//! The host-speed reference: a fixed, benchmark-owned kernel timed
//! between the timed steps of a run, so that each step's wall time can be
//! given in seconds of a nominal host.
//!
//! Why: on a shared host the same step runs up to twice as slowly, in
//! stretches of seconds to tens of minutes, as neighbours come and go.
//! No statistic of a 30 s run can see past a stretch longer than the run,
//! but a kernel timed next to each step slows with it. A step's wall time
//! over the reference's slowdown around it moved far less from run to run
//! than the wall time alone (`NOTES.md`, "Steadiness"). The kernel is
//! defined here and calls nothing from the program, so no change to the
//! program can change it.

use crate::scenario::mix;
use std::hint::black_box;
use std::time::Instant;

/// Keys one reference call fills and sorts: 8 MiB of `u64`, larger than
/// a core's private caches, as the workloads' working sets are.
pub const KEYS: usize = 1 << 20;

/// Resident size of the key buffer in MiB. It is allocated before the
/// first timed step and stays resident for the rest of the run.
pub const KEYS_MIB: f64 = (KEYS * std::mem::size_of::<u64>()) as f64 / (1024.0 * 1024.0);

/// Wall time of one reference call on the nominal host, in seconds:
/// about its median on the host the bounds were set on (a shared 2-vCPU
/// KVM guest, Intel Xeon, Emerald Rapids family) while that host was
/// busy.
pub const NOMINAL_S: f64 = 0.0375;

/// The reference kernel with its key buffer.
#[derive(Debug)]
pub struct Reference {
    keys: Vec<u64>,
    calls: u64,
}

impl Default for Reference {
    fn default() -> Self {
        Reference {
            keys: vec![0; KEYS],
            calls: 0,
        }
    }
}

impl Reference {
    /// Fills the keys from a fresh pseudo-random stream, sorts them, and
    /// returns the call's wall time in seconds.
    pub fn time(&mut self) -> f64 {
        self.calls += 1;
        let t0 = Instant::now();
        for (i, k) in self.keys.iter_mut().enumerate() {
            *k = mix(self.calls, i as u64);
        }
        self.keys.sort_unstable();
        black_box(self.keys[KEYS / 2]);
        t0.elapsed().as_secs_f64()
    }
}

/// How much slower than nominal the host ran a step that was timed
/// between two reference calls of `before_s` and `after_s` seconds.
pub fn slowdown(before_s: f64, after_s: f64) -> f64 {
    (before_s + after_s) / 2.0 / NOMINAL_S
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_reference_sorts_fresh_keys_every_call() {
        let mut r = Reference::default();
        assert!(r.time() > 0.0);
        let first = r.keys.clone();
        assert!(first.windows(2).all(|w| w[0] <= w[1]));
        r.time();
        assert_ne!(first, r.keys, "each call sorts a new key stream");
    }

    #[test]
    fn a_step_between_nominal_calls_is_not_rescaled() {
        assert_eq!(slowdown(NOMINAL_S, NOMINAL_S), 1.0);
        assert_eq!(slowdown(NOMINAL_S, 3.0 * NOMINAL_S), 2.0);
    }
}
