//! # simkit — deterministic virtual-time runtime for systems simulation
//!
//! This crate is the execution substrate for the DLFS reproduction. It lets
//! multi-threaded storage-system code (queue pairs, poll loops, copy-thread
//! pools, multi-node clusters) run under a **deterministic virtual clock**:
//! results are exact, reproducible, and independent of the host machine.
//!
//! The same code can also run against real OS threads and the wall clock
//! (see [`Runtime::real`]), which the runnable examples use.
//!
//! ## Pieces
//!
//! - [`runtime::Runtime`] — spawn tasks and thread-free services,
//!   sleep/work, channels, time.
//! - [`chan`] — MPMC channels integrated with the scheduler.
//! - [`resource`] — links (bandwidth + latency) and k-channel service
//!   centers used to model NICs and NVMe internals.
//! - [`rng`] — splittable deterministic RNG streams.
//! - [`stats`] — summaries, histograms, throughput meters.
//! - [`time`] — `Time`/`Dur` virtual-time newtypes.
//!
//! ## Example
//!
//! ```
//! use simkit::prelude::*;
//!
//! let (total, end) = Runtime::simulate(42, |rt| {
//!     let (tx, rx) = rt.channel::<u64>(None);
//!     for i in 0..4u64 {
//!         let tx = tx.clone();
//!         rt.spawn(&format!("worker-{i}"), move |rt| {
//!             rt.sleep(Dur::micros(10 * (i + 1)));
//!             tx.send(i).unwrap();
//!         });
//!     }
//!     drop(tx);
//!     let mut sum = 0;
//!     while let Ok(v) = rx.recv() {
//!         sum += v;
//!     }
//!     sum
//! });
//! assert_eq!(total, 6);
//! assert_eq!(end.nanos(), 40_000); // latest worker woke at 40us
//! ```

#![forbid(unsafe_code)]

pub mod chan;
mod mpmc;
pub mod plock;
pub mod resource;
pub mod retry;
pub mod rng;
mod sched;
pub mod stats;
pub mod sync;
pub mod telemetry;
pub mod time;
pub mod trace;

pub mod runtime;

pub use chan::{Receiver, RecvError, SendError, Sender, TryRecvError};
pub use resource::{Link, Semaphore, Servers};
pub use retry::RetryPolicy;
pub use rng::{content_sum, fill_deterministic, fnv1a, SplitMix64};
pub use runtime::{JoinHandle, Runtime};
pub use stats::{fmt_bytes, fmt_bytes_rate, fmt_rate, Histogram, Meter, Summary};
pub use sync::{Barrier, Gate, WaitGroup};
pub use telemetry::{Registry, Snapshot};
pub use time::{Dur, Time};
pub use trace::Tracer;

/// Convenient glob import for downstream crates.
pub mod prelude {
    pub use crate::chan::{Receiver, Sender};
    pub use crate::resource::{Link, Semaphore, Servers};
    pub use crate::retry::RetryPolicy;
    pub use crate::rng::SplitMix64;
    pub use crate::runtime::{JoinHandle, Runtime};
    pub use crate::stats::{Histogram, Meter, Summary};
    pub use crate::sync::{Barrier, Gate, WaitGroup};
    pub use crate::time::{Dur, Time};
}
