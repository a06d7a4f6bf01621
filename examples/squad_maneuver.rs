//! Squad maneuver: reference-point group mobility plus the multi-antenna
//! extension.
//!
//! Four squads sweep the field as cohesive units. Discovery runs every
//! epoch under reactive jamming; we compare how fast a single-antenna
//! radio (the paper's assumption) and a 4-antenna radio (the paper's
//! future work, implemented in `jrsnd::multiantenna`) complete each
//! epoch's direct discoveries.
//!
//! ```text
//! cargo run --release --example squad_maneuver
//! ```

use jr_snd::core::dndp::{self, DndpConfig};
use jr_snd::core::jammer::{Jammer, JammerKind};
use jr_snd::core::multiantenna;
use jr_snd::core::params::Params;
use jr_snd::core::predist::CodeAssignment;
use jr_snd::sim::mobility::{Mobility, ReferencePointGroup};
use jr_snd::sim::rng::SimRng;
use jr_snd::sim::stats::Histogram;
use jr_snd::sim::time::SimTime;
use jr_snd::sim::topology::physical_graph;
use rand::seq::SliceRandom;
use rand::SeedableRng;

fn main() {
    let mut params = Params::table1();
    params.n = 96; // 4 squads x 24 radios
    params.field_w = 1500.0;
    params.field_h = 1500.0;
    params.l = 12;
    params.m = 48;
    params.q = 2;
    params.validate().expect("parameters are consistent");

    let root = SimRng::seed_from_u64(12);
    let field = params.field();
    let mut mob_rng = root.fork("mobility", 0);
    let squads = ReferencePointGroup::new(
        field,
        4,
        24,
        1.5,
        4.0,
        20.0,
        80.0,
        4.0,
        SimTime::from_secs(1800),
        &mut mob_rng,
    );

    let mut predist_rng = root.fork("predist", 0);
    let assignment = CodeAssignment::generate(&params, &mut predist_rng);
    let mut compromise_rng = root.fork("compromise", 0);
    let mut order: Vec<usize> = (0..params.n).collect();
    order.shuffle(&mut compromise_rng);
    let jammer = Jammer::new(
        JammerKind::Reactive,
        assignment.compromised_codes(&order[..params.q]),
        &params,
    );

    println!("four squads of 24, reference-point group mobility, reactive jamming\n");
    println!(
        "{:>6} {:>10} {:>12} {:>12} {:>14}",
        "t (s)", "physical", "intra-squad", "inter-squad", "P(D-NDP)"
    );
    let mut protocol_rng = root.fork("protocol", 0);
    let mut latencies = Histogram::new(0.0, 2.0, 40);
    for epoch in 0..8u64 {
        let now = SimTime::from_secs(epoch * 180);
        let positions = squads.snapshot(now);
        let physical = physical_graph(field, &positions, params.range);
        let (mut intra, mut inter, mut found) = (0usize, 0usize, 0usize);
        for (u, v) in physical.edges() {
            if squads.group_of(u) == squads.group_of(v) {
                intra += 1;
            } else {
                inter += 1;
            }
            let shared = assignment.shared_codes(u, v);
            let out = dndp::simulate_pair_with(
                &params,
                &shared,
                &jammer,
                DndpConfig::default(),
                &mut protocol_rng,
            );
            if out.discovered {
                found += 1;
                if let Some(t) = out.latency {
                    latencies.record(t);
                }
            }
        }
        println!(
            "{:>6} {:>10} {:>12} {:>12} {:>14.3}",
            now.as_secs_f64() as u64,
            physical.edge_count(),
            intra,
            inter,
            found as f64 / physical.edge_count().max(1) as f64
        );
    }

    println!("\nper-discovery D-NDP latency (single antenna):");
    println!(
        "  p10 = {:.3} s, median = {:.3} s, p90 = {:.3} s ({} samples)",
        latencies.quantile(0.10),
        latencies.quantile(0.50),
        latencies.quantile(0.90),
        latencies.count()
    );

    println!("\nthe multi-antenna extension at these parameters:");
    println!(
        "{:>4} {:>10} {:>6} {:>10}",
        "k", "lambda_k", "r_k", "T_D(k) s"
    );
    for k in [1usize, 2, 4] {
        let s = multiantenna::schedule(&params, k);
        println!(
            "{:>4} {:>10.3} {:>6} {:>10.3}",
            k,
            s.lambda,
            s.r,
            multiantenna::t_dndp_k(&params, k)
        );
    }
    println!("\ninter-squad encounters are brief — exactly where the k-antenna");
    println!("latency cut (or the equivalent-m probability boost) pays off.");
}
