#![forbid(unsafe_code)]
//! # traces — load-intensity, interference-episode and VM-arrival traces
//!
//! The paper's evaluation is trace-driven (§5.1):
//!
//! * **HotMail load traces** (September 2009): aggregated load across
//!   thousands of servers, averaged over one-hour periods, replayed for
//!   three days to drive the cloud workloads' client intensity.
//! * **EC2 interference episodes**: the authors ran their Data Serving
//!   workload on Amazon EC2 for three days, labelled every interval whose
//!   client-reported degradation exceeded 20% as a performance crisis, and
//!   replayed those time slots as the moments at which to start the stress
//!   workloads.
//! * **VM arrivals**: the scalability analysis assumes 1000 new VMs per day
//!   arriving as a Poisson (Fig. 13) or lognormal (Fig. 14) process, with a
//!   Zipf/Pareto distribution of application popularity.
//!
//! The original traces are not publicly available, so this crate generates
//! faithful synthetic equivalents: a diurnal load profile with day-to-day
//! variation ([`hotmail`]), an episodic interference schedule with tunable
//! intensity ([`ec2`]), and arrival streams ([`arrivals`]) built on the
//! crate's private samplers (`distributions`: Zipf popularity, Poisson and
//! lognormal arrival processes, lognormal lifetimes).

pub mod arrivals;
mod distributions;
pub mod ec2;
pub mod hotmail;
#[cfg(test)]
mod stats;

pub use arrivals::{ec2_sessions, hotmail_sessions, ArrivalModel, VmArrival, VmSession};
pub use ec2::InterferenceSchedule;
pub use hotmail::LoadTrace;
