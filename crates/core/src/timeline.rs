//! Continuous-time network lifecycle simulation.
//!
//! Section V-B: "each node periodically initiates neighbor discovery …
//! in every interval of length T, each node initiates the D-NDP process
//! once at a random time point", and Section IV-A adds the monitoring
//! timeout that drops a logical link once its neighbor has moved away.
//! The Monte-Carlo driver evaluates one *snapshot*; this module runs the
//! whole loop on the discrete-event engine over virtual hours: periodic
//! randomized initiations, mobility-driven link churn, link expiry, and
//! re-discovery — producing the operational metrics (coverage over time,
//! time-to-coverage, re-discovery delay) a deployment would care about.

use crate::dndp::{self, DndpConfig, NodeRounds};
use crate::jammer::JammerKind;
use crate::mndp::RelayBfs;
use crate::params::Params;
use jrsnd_sim::engine::{Control, Engine};
use jrsnd_sim::mobility::{Mobility, RandomWaypoint, StaticUniform};
use jrsnd_sim::rng::SimRng;
use jrsnd_sim::soa::{CsrGraph, CsrScratch, NodeStore};
use jrsnd_sim::stats::RunningStats;
use jrsnd_sim::time::{SimDuration, SimTime};
use jrsnd_sim::topology::Graph;
use jrsnd_sim::{metric_counter, metric_gauge, sim_trace};
use rand::{Rng, SeedableRng};
use std::collections::HashMap;

/// Mobility choices for the lifecycle run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MobilityModel {
    /// Frozen uniform snapshot (the paper's evaluation setting).
    Static,
    /// Random waypoint with speeds in `[v_min, v_max]` m/s and
    /// `pause_secs` dwell.
    RandomWaypoint {
        /// Minimum speed (m/s).
        v_min: f64,
        /// Maximum speed (m/s).
        v_max: f64,
        /// Pause at each waypoint (s).
        pause_secs: f64,
    },
}

/// Configuration of a lifecycle run.
#[derive(Debug, Clone)]
pub struct TimelineConfig {
    /// Protocol and deployment parameters.
    pub params: Params,
    /// The adversary.
    pub jammer: JammerKind,
    /// The initiation period `T` in seconds.
    pub period: f64,
    /// Total simulated time in seconds.
    pub duration: f64,
    /// How often the physical topology is re-evaluated (s).
    pub refresh: f64,
    /// Node movement.
    pub mobility: MobilityModel,
}

impl TimelineConfig {
    /// A paper-like default: Table I parameters (shrinkable by the
    /// caller), `T` = 30 s, 10 min of virtual time, 5 s topology refresh,
    /// static placement.
    pub fn paper_default() -> Self {
        TimelineConfig {
            params: Params::table1(),
            jammer: JammerKind::Reactive,
            period: 30.0,
            duration: 600.0,
            refresh: 5.0,
            mobility: MobilityModel::Static,
        }
    }

    fn validate(&self) {
        self.params.validate().expect("invalid parameters");
        assert!(self.period > 0.0, "period must be positive");
        assert!(self.duration > 0.0, "duration must be positive");
        assert!(
            self.refresh > 0.0 && self.refresh <= self.duration,
            "refresh must be in (0, duration]"
        );
    }
}

/// Metrics from a lifecycle run.
#[derive(Debug, Clone)]
pub struct TimelineMetrics {
    /// `(t seconds, logical/physical coverage)` at each refresh.
    pub coverage: Vec<(f64, f64)>,
    /// First time coverage reached 90% (if ever).
    pub time_to_90: Option<f64>,
    /// Total successful pairwise discoveries (D-NDP + M-NDP).
    pub discoveries: u64,
    /// Logical links dropped by the monitoring timeout.
    pub expiries: u64,
    /// Delay from a physical link appearing to its logical establishment.
    pub rediscovery_delay: RunningStats,
    /// Events processed by the engine.
    pub events: u64,
}

#[derive(Debug, Clone, Copy)]
enum Event {
    /// A node's periodic initiation (D-NDP toward current neighbors, then
    /// one M-NDP round).
    Initiate { node: usize },
    /// Recompute the physical topology, expire stale links, sample
    /// coverage.
    Refresh,
}

/// Runs the lifecycle simulation.
pub fn run_timeline(config: &TimelineConfig, seed: u64) -> TimelineMetrics {
    config.validate();
    let params = &config.params;
    let root = SimRng::seed_from_u64(seed);
    let field = params.field();

    // Trajectories.
    let mut mob_rng = root.fork("mobility", 0);
    let horizon = SimTime::from_secs_f64(config.duration);
    enum Mob {
        Static(StaticUniform),
        Waypoint(RandomWaypoint),
    }
    let mobility = match config.mobility {
        MobilityModel::Static => Mob::Static(StaticUniform::new(field, params.n, &mut mob_rng)),
        MobilityModel::RandomWaypoint {
            v_min,
            v_max,
            pause_secs,
        } => Mob::Waypoint(RandomWaypoint::new(
            field,
            params.n,
            v_min,
            v_max,
            pause_secs,
            horizon,
            &mut mob_rng,
        )),
    };
    let position_at = |t: SimTime| -> Vec<jrsnd_sim::geom::Point> {
        match &mobility {
            Mob::Static(m) => m.snapshot(t),
            Mob::Waypoint(m) => m.snapshot(t),
        }
    };

    // Pre-distribution and the adversary.
    let (assignment, jammer) = crate::network::draw_adversary(params, config.jammer, &root);
    let mut known = Vec::new();
    let rounds = NodeRounds::new(&assignment, &jammer, &mut known);

    let mut protocol_rng = root.fork("protocol", 0);
    let mut schedule_rng = root.fork("schedule", 0);

    // Every node initiates once per period at a random point — schedule
    // the first period up front; handlers re-arm themselves, always
    // strictly later, so the horizon alone ends the run.
    let mut engine: Engine<Event> = Engine::new();
    for node in 0..params.n {
        let offset = schedule_rng.gen_range(0.0..config.period);
        engine.schedule_at(SimTime::from_secs_f64(offset), Event::Initiate { node });
    }
    engine.schedule_at(SimTime::from_secs_f64(config.refresh), Event::Refresh);

    // The physical topology, rebuilt from each refresh's snapshot into the
    // same arena: under waypoint mobility nearly every node has moved
    // since the last refresh, so an incremental update would skip little.
    let mut physical = CsrGraph::build(
        field,
        &NodeStore::from_points(&position_at(SimTime::ZERO)),
        params.range,
    );
    let mut scratch = CsrScratch::default();
    let mut logical = Graph::new(params.n);
    let mut relay = RelayBfs::new(params.n);
    let mut pass = dndp::PairPass::new(params, &jammer, DndpConfig::default());
    // When did each currently-physical pair appear? (for rediscovery delay)
    let mut appeared: HashMap<(usize, usize), f64> = physical
        .edges()
        .map(|(u, v)| ((u as usize, v as usize), 0.0))
        .collect();

    let mut metrics = TimelineMetrics {
        coverage: Vec::new(),
        time_to_90: None,
        discoveries: 0,
        expiries: 0,
        rediscovery_delay: RunningStats::new(),
        events: 0,
    };

    engine.run(horizon, |eng, now, ev| {
        let now_s = now.as_secs_f64();
        match ev {
            Event::Initiate { node } => {
                // D-NDP toward every physical neighbor not yet logical,
                // then one M-NDP round toward those D-NDP missed.
                for relayed in [false, true] {
                    for &v in physical.neighbors(node) {
                        let v = v as usize;
                        if logical.has_edge(node, v) {
                            continue;
                        }
                        let found = if relayed {
                            relay.relay_hops(&logical, node, v, params.nu).is_some()
                        } else {
                            pass.run_nodes(&rounds, node, v, &mut protocol_rng)
                                .discovered
                        };
                        if found {
                            logical.add_edge(node, v);
                            metrics.discoveries += 1;
                            if let Some(&t0) = appeared.get(&(node.min(v), node.max(v))) {
                                metrics.rediscovery_delay.push(now_s - t0);
                            }
                        }
                    }
                }
                // Re-arm within the next period at a random point.
                let delay = schedule_rng.gen_range(0.0..config.period)
                    + (config.period - (now_s % config.period));
                eng.schedule_in(SimDuration::from_secs_f64(delay), Event::Initiate { node });
            }
            Event::Refresh => {
                let store = NodeStore::from_points(&position_at(now));
                physical.rebuild(field, &store, params.range, &mut scratch);
                // Expire logical links whose peers moved out of range
                // (the monitoring timeout of Section IV-A).
                let stale: Vec<(usize, usize)> = logical
                    .edges()
                    .filter(|&(u, v)| !physical.has_edge(u, v))
                    .collect();
                for (u, v) in stale {
                    logical.remove_edge(u, v);
                    metrics.expiries += 1;
                    sim_trace!(
                        now_s,
                        "timeline",
                        "link {u}-{v} expired (peer out of range)"
                    );
                }
                // Track appearance times of fresh physical pairs.
                for (u, v) in physical.edges() {
                    appeared.entry((u as usize, v as usize)).or_insert(now_s);
                }
                appeared.retain(|&(u, v), _| physical.has_edge(u, v));
                // Coverage sample: every logical link left is physical.
                let denom = physical.edge_count();
                let cov = if denom == 0 {
                    1.0
                } else {
                    logical.edge_count() as f64 / denom as f64
                };
                metrics.coverage.push((now_s, cov));
                if metrics.time_to_90.is_none() && cov >= 0.90 {
                    metrics.time_to_90 = Some(now_s);
                    sim_trace!(now_s, "timeline", "coverage reached 90%");
                }
                eng.schedule_in(SimDuration::from_secs_f64(config.refresh), Event::Refresh);
            }
        }
        Control::Continue
    });
    metrics.events = engine.events_processed();
    relay.record_work();
    metric_counter!("timeline.runs").inc();
    metric_counter!("timeline.discoveries").add(metrics.discoveries);
    metric_counter!("timeline.expiries").add(metrics.expiries);
    metric_gauge!("timeline.final_coverage").set(metrics.coverage.last().map_or(0.0, |&(_, c)| c));
    metrics
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_config() -> TimelineConfig {
        let mut c = TimelineConfig::paper_default();
        c.params.n = 150;
        c.params.field_w = 1400.0;
        c.params.field_h = 1400.0;
        c.params.l = 10;
        c.params.m = 40;
        c.params.q = 3;
        c.period = 20.0;
        c.duration = 200.0;
        c.refresh = 5.0;
        c
    }

    #[test]
    fn static_network_converges_to_high_coverage() {
        let m = run_timeline(&small_config(), 1);
        assert!(!m.coverage.is_empty());
        let final_cov = m.coverage.last().unwrap().1;
        assert!(final_cov > 0.90, "final coverage {final_cov}");
        let t90 = m.time_to_90.expect("should reach 90%");
        // Everyone initiates within the first period, so coverage should
        // be nearly complete within ~2 periods.
        assert!(t90 <= 3.0 * 20.0, "t90 = {t90}");
        assert_eq!(m.expiries, 0, "static nodes never lose links");
        assert!(m.discoveries > 100);
    }

    #[test]
    fn coverage_is_sampled_at_every_refresh_up_to_the_horizon() {
        let c = small_config();
        let m = run_timeline(&c, 4);
        assert_eq!(m.coverage.len(), (c.duration / c.refresh) as usize);
        assert_eq!(m.coverage.last().unwrap().0, c.duration);
    }

    #[test]
    fn coverage_is_monotone_for_static_networks() {
        let m = run_timeline(&small_config(), 2);
        for w in m.coverage.windows(2) {
            assert!(w[1].1 >= w[0].1 - 1e-12, "coverage dipped: {w:?}");
        }
    }

    #[test]
    fn mobility_causes_churn_and_rediscovery() {
        let mut c = small_config();
        c.duration = 400.0;
        c.mobility = MobilityModel::RandomWaypoint {
            v_min: 5.0,
            v_max: 15.0,
            pause_secs: 5.0,
        };
        let m = run_timeline(&c, 3);
        assert!(m.expiries > 0, "fast movement must break links");
        assert!(m.rediscovery_delay.count() > 0);
        // Re-discovery happens within a couple of periods on average.
        assert!(
            m.rediscovery_delay.mean() < 3.0 * c.period,
            "mean rediscovery delay {}",
            m.rediscovery_delay.mean()
        );
        // Coverage stays useful despite churn.
        let tail: Vec<f64> = m.coverage.iter().rev().take(10).map(|&(_, c)| c).collect();
        let tail_mean = tail.iter().sum::<f64>() / tail.len() as f64;
        assert!(tail_mean > 0.7, "steady-state coverage {tail_mean}");
    }

    #[test]
    fn deterministic_given_seed() {
        let c = small_config();
        let a = run_timeline(&c, 7);
        let b = run_timeline(&c, 7);
        assert_eq!(a.discoveries, b.discoveries);
        assert_eq!(a.expiries, b.expiries);
        assert_eq!(a.coverage, b.coverage);
        assert_eq!(a.events, b.events);
    }

    #[test]
    fn jamming_slows_convergence() {
        let mut calm = small_config();
        calm.params.q = 0;
        calm.jammer = JammerKind::None;
        let mut stormy = small_config();
        stormy.params.q = 30;
        let a = run_timeline(&calm, 11);
        let b = run_timeline(&stormy, 11);
        // Compare coverage at the first sample after one period.
        let at = |m: &TimelineMetrics, t: f64| {
            m.coverage
                .iter()
                .find(|&&(ts, _)| ts >= t)
                .map(|&(_, c)| c)
                .unwrap_or(0.0)
        };
        assert!(
            at(&a, 25.0) >= at(&b, 25.0),
            "jamming should not speed up discovery"
        );
    }

    #[test]
    #[should_panic(expected = "period must be positive")]
    fn bad_period_rejected() {
        let mut c = small_config();
        c.period = 0.0;
        run_timeline(&c, 0);
    }
}
