#![forbid(unsafe_code)]
//! # workloads — cloud and stress workload models
//!
//! The paper evaluates DeepDive with three CloudSuite workloads (§5.1):
//!
//! * **Data Serving** — one Cassandra key-value store instance driven by
//!   YCSB clients with varying key popularity and read/write ratio,
//! * **Web Search** — a Nutch index-serving node with a 2-GB index, driven
//!   by the Faban client emulator with varying word popularity and session
//!   counts, and
//! * **Data Analytics** — a nine-VM Hadoop/Mahout Bayes-classification job
//!   over 35 GB of Wikipedia data,
//!
//! plus three *interfering* workloads (§5.1): a memory-stress kernel in the
//! style of Bubble-Up, `iperf` bidirectional UDP streams, and a disk-stress
//! file copier, each with a tunable intensity.
//!
//! Neither CloudSuite nor the original client emulators can run inside this
//! reproduction, so each workload is modelled as a generator of per-epoch
//! [`hwsim::ResourceDemand`]s whose *normalized* counter signature is stable
//! across load intensities (the property DeepDive's warning system relies
//! on) while qualitative knobs (popularity, read/write mix, remote-fetch
//! fraction) move the signature slightly — giving the same clustering
//! structure as the paper's Figure 4.
//!
//! * [`spec`] — the [`spec::Workload`] trait and application identities.
//! * [`data_serving`], [`web_search`], [`data_analytics`] — the three cloud
//!   workloads.
//! * [`stress`] — the three tunable aggressors.
//! * [`client`] — closed-loop client emulator producing the client-visible
//!   throughput/latency ground truth used by the evaluation.

pub mod client;
pub mod data_analytics;
pub mod data_serving;
pub mod spec;
pub mod stress;
pub mod web_search;

pub use client::{ClientEmulator, ClientObservation};
pub use data_analytics::DataAnalytics;
pub use data_serving::DataServing;
pub use spec::{AppId, Workload};
pub use stress::{DiskStress, MemoryStress, NetworkStress};
pub use web_search::WebSearch;
