//! # autofl-cluster
//!
//! Clustering substrate for the AutoFL reproduction:
//!
//! * [`mod@dbscan`] — density-based clustering, used by the paper to convert
//!   continuous state features into the discrete bins of Table 1
//!   ([`dbscan::Discretizer`]).
//!
//! # Examples
//!
//! ```
//! use autofl_cluster::dbscan::Discretizer;
//!
//! // The paper's published S_B bins: small (<8), medium (<32), large (>=32).
//! let bins = Discretizer::from_boundaries(vec![8.0, 32.0]);
//! assert_eq!(bins.bin(16.0), 1);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod dbscan;

pub use dbscan::{dbscan, Assignment, Discretizer};
