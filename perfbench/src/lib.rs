//! End-to-end benchmark of the JR-SND workspace.
//!
//! Three workloads, each run in its own process at one worker thread
//! (`JRSND_THREADS=1`): `engine-mixed` times [`jrsnd::BatchEngine::run`],
//! `montecarlo-fig5a` times [`jrsnd::montecarlo::run_many`] and
//! `scale-20k` times [`jrsnd::scale::run_scale`]. The `workload` binary
//! prints the end-to-end metrics; the separate `trace` binary replays the
//! same inputs through the layers' public functions for per-layer times
//! and counts. See `NOTES.md` for the design and `run.py` for the runner.

pub mod check;
pub mod hostspeed;
pub mod report;
pub mod scenario;
