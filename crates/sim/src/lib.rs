//! Discrete-event MANET simulation substrate for the JR-SND reproduction.
//!
//! The JR-SND paper (Zhang, Zhang & Huang, ICDCS 2011) evaluates its
//! neighbor-discovery scheme entirely in simulation: 2000 nodes placed
//! uniformly in a 5000 × 5000 m² field with a 300 m transmission range,
//! averaged over 100 seeded runs. This crate provides the machinery such an
//! evaluation needs and nothing protocol-specific:
//!
//! * [`time`] — virtual nanosecond clock ([`time::SimTime`],
//!   [`time::SimDuration`]);
//! * [`event`] / [`wheel`] / [`engine`] — a deterministic discrete-event
//!   execution loop with FIFO tie-breaking, running on a hierarchical
//!   timing wheel (O(1) scheduling for 100k+-node runs) with the original
//!   binary-heap queue retained as the reference oracle;
//! * [`rng`] — forkable, labelled deterministic randomness
//!   ([`rng::SimRng`]) so every figure is replayable from one `u64` seed;
//! * [`geom`] — the deployment field and uniform placement;
//! * [`mobility`] — static-uniform snapshots (the paper's setup) and a
//!   random-waypoint model for mobility-driven experiments;
//! * [`soa`] / [`topology`] — node positions as coordinate columns and the
//!   physical-neighbor graph: one cell-sorted kernel builds it in O(n·g)
//!   into a compressed-sparse-row arena, and an adjacency-list [`Graph`]
//!   holds small or mutable graphs, such as the logical links that
//!   discovery establishes;
//! * [`stats`] — Welford accumulators, confidence intervals, sweep series,
//!   and text/CSV tables for the experiment harness;
//! * [`metrics`] — a process-global observability registry (counters,
//!   gauges, fixed-bucket histograms, opt-in trace ring buffer) with a
//!   JSON-serializable [`metrics::MetricsSnapshot`];
//! * [`simd`] — runtime SIMD capability detection ([`simd::SimdLevel`],
//!   `JRSND_SIMD` override) backing the dispatched correlate/render/SHA-256
//!   kernels in the sibling crates;
//! * [`faults`] / [`retry`] — a seeded, stateless fault oracle
//!   ([`faults::FaultInjector`]) plus a budgeted exponential-backoff
//!   policy ([`retry::RetryPolicy`]) for chaos experiments, both pure
//!   functions of the run seed so they compose with seed-sharded
//!   parallelism.
//!
//! # Examples
//!
//! Build the paper's deployment snapshot and measure its mean degree:
//!
//! ```
//! use jrsnd_sim::geom::Field;
//! use jrsnd_sim::rng::SimRng;
//! use jrsnd_sim::topology::physical_graph;
//! use rand::SeedableRng;
//!
//! let field = Field::paper_default();
//! let mut rng = SimRng::seed_from_u64(2011);
//! let positions = field.sample_uniform_n(2000, &mut rng);
//! let graph = physical_graph(field, &positions, 300.0);
//! // ~ n * pi * 300^2 / 5000^2, minus border effects
//! assert!(graph.mean_degree() > 15.0 && graph.mean_degree() < 25.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod engine;
pub mod event;
pub mod faults;
pub mod geom;
pub mod metrics;
pub mod mobility;
pub mod retry;
pub mod rng;
pub mod simd;
pub mod soa;
pub mod stats;
pub mod time;
pub mod topology;
pub mod wheel;

pub use engine::{Control, Engine, RunOutcome, SchedulerKind};
pub use faults::{FaultInjector, FaultPlan};
pub use geom::{Field, Point};
pub use metrics::MetricsSnapshot;
pub use retry::RetryPolicy;
pub use rng::SimRng;
pub use simd::SimdLevel;
pub use stats::RunningStats;
pub use time::{SimDuration, SimTime};
pub use topology::{physical_graph, Graph};
