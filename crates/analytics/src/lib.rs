#![forbid(unsafe_code)]
//! # analytics — statistics and learning substrate for the DeepDive reproduction
//!
//! DeepDive's warning system learns "normal" VM behaviours with an
//! expectation-maximization clustering algorithm over the N-dimensional
//! metric space, derives per-metric thresholds from the clusters, and its
//! synthetic benchmark is trained with "a standard regression algorithm"
//! (§4.1, §4.3).  The samplers the scalability analysis (Figs. 13–14)
//! draws from live with their one consumer, the `traces` crate.
//!
//! The paper leans on Weka and Matlab for these pieces; this crate implements
//! the required subset from scratch so the reproduction has no external
//! system dependencies:
//!
//! * [`stats`] — the distance helper k-means and the metrics use.
//! * [`kmeans`] — seeded k-means++ (used to initialize EM).
//! * [`gmm`] — diagonal-covariance Gaussian-mixture model fitted by EM.
//! * [`constrained`] — cannot-link constraints: behaviours the analyzer
//!   labelled as interference are kept out of the normal clusters.
//! * [`thresholds`] — per-metric classification thresholds (the `MT` vector).
//! * [`regression`] — multivariate linear least squares plus input inversion.

pub mod constrained;
pub mod gmm;
pub mod kmeans;
pub mod regression;
pub mod stats;
pub mod thresholds;

pub use regression::LinearRegression;
