//! Counting-allocator proof that a warm `network::run_once` seed keeps
//! its topology, pair, mask, verdict and closure buffers: each worker
//! thread reuses them from seed to seed, so what a warm seed allocates is
//! only what it draws afresh — the code assignment and the jammer, plus
//! the D-NDP pass's two round masks — and that does not grow with the
//! network. A seed at n = 500 and one at n = 2000 make the same number of
//! allocations.

mod support;

use jrsnd::dndp::DndpConfig;
use jrsnd::jammer::JammerKind;
use jrsnd::network::{run_once, ExperimentConfig};
use jrsnd::params::Params;
use std::hint::black_box;
use support::{count_allocs, last_alloc_size};

/// Table I at `n` nodes on a square field of side `side`, fig. 5(a)'s
/// adversary (q = 100, ν = 6) scaled to the population.
fn config(n: usize, side: f64) -> ExperimentConfig {
    let mut params = Params::table1();
    params.n = n;
    params.field_w = side;
    params.field_h = side;
    params.q = n / 20;
    params.nu = 6;
    ExperimentConfig {
        params,
        jammer: JammerKind::Reactive,
        dndp: DndpConfig::default(),
    }
}

/// Allocations of one seed once the thread has run that seed before, so
/// every reused buffer already has the room the seed needs.
fn warm_seed_allocations(config: &ExperimentConfig, seed: u64) -> u64 {
    black_box(run_once(config, seed));
    count_allocs(|| {
        black_box(run_once(config, seed));
    })
}

#[test]
fn warm_run_once_allocations_do_not_grow_with_the_network() {
    let small = config(500, 2500.0);
    let paper = config(2000, 5000.0);
    for seed in [1u64, 7] {
        let at_500 = warm_seed_allocations(&small, seed);
        let at_2000 = warm_seed_allocations(&paper, seed);
        assert_eq!(
            at_500,
            at_2000,
            "seed {seed}: a warm seed allocated {at_500} times at n = 500 and {at_2000} at \
             n = 2000 (last allocation {} bytes)",
            last_alloc_size()
        );
        // The assignment's table and shuffle order, the compromise draw's
        // node order, code bitset and sorted codes, the jammer's bitset,
        // and the pass's two masks: eight, whatever the population.
        assert!(
            at_2000 <= 8,
            "seed {seed}: {at_2000} allocations per warm seed"
        );
    }
}
