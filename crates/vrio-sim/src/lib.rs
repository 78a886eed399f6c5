//! # vrio-sim
//!
//! Deterministic discrete-event simulation substrate for the
//! [vRIO (Paravirtual Remote I/O, ASPLOS 2016)](https://doi.org/10.1145/2872362.2872378)
//! reproduction.
//!
//! The crate provides four small, orthogonal pieces:
//!
//! * [`SimTime`] / [`SimDuration`] — integer-nanosecond simulated time;
//! * [`Engine`] — an event-queue simulator over a user world type, with
//!   FIFO tie-breaking for reproducibility, scheduled by one 4-ary heap
//!   on a packed `(at, seq)` key; an event is a plain function and one
//!   `u64` argument ([`CallFn`]), a callback whose next event would
//!   fire next anyway may carry on inline ([`Engine::continue_at`]), and
//!   a fixed grid of events is queued one occurrence at a time
//!   ([`Engine::schedule_series`]);
//! * [`SimRng`] — an explicitly-seeded RNG with the distributions the
//!   testbed needs (exponential, log-normal, Pareto);
//! * statistics ([`OnlineStats`], [`Histogram`], [`BusyTracker`]) for
//!   latency percentiles and CPU-utilization traces.
//!
//! Everything upstream (NICs, virtqueues, hypervisors, the vRIO I/O
//! hypervisor itself) is built on these primitives.
//!
//! ## Example: an M/D/1 queue in a few lines
//!
//! ```
//! use vrio_sim::{Engine, Histogram, SimDuration, SimRng, SimTime};
//!
//! struct World {
//!     rng: SimRng,
//!     server_free_at: SimTime,
//!     waits: Histogram,
//!     remaining: u32,
//! }
//!
//! fn arrival(w: &mut World, eng: &mut Engine<World>, _: u64) {
//!     let start = eng.now().max(w.server_free_at);
//!     w.waits.push_duration(start - eng.now());
//!     w.server_free_at = start + SimDuration::micros(8); // deterministic service
//!     if w.remaining > 0 {
//!         w.remaining -= 1;
//!         let gap = w.rng.exp_duration(SimDuration::micros(10));
//!         eng.schedule_in(gap, arrival, 0);
//!     }
//! }
//!
//! let mut world = World {
//!     rng: SimRng::seed_from(1),
//!     server_free_at: SimTime::ZERO,
//!     waits: Histogram::new(),
//!     remaining: 10_000,
//! };
//! let mut engine = Engine::new();
//! engine.schedule_now(arrival, 0);
//! engine.run(&mut world);
//! // rho = 0.8 => significant queueing, but the median wait is finite.
//! assert!(world.waits.percentile(50.0) > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod engine;
mod profiler;
mod rng;
mod stats;
mod time;

pub use engine::{CallFn, Engine, Reserved};
pub use profiler::{ProfGuard, ProfReport, Profiler, ScopeStats};
pub use rng::{scenario_seed, SimRng};
pub use stats::{BusyTracker, Histogram, OnlineStats};
pub use time::{round_u64, SimDuration, SimTime};
