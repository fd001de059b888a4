//! # bnm-stats — the paper's statistical toolkit
//!
//! Everything Section 3–4 of the paper computes from its 50-repetition
//! samples:
//!
//! * [`summary::Summary`] — min/median/quartiles/mean/std (quantiles use
//!   the R-7 linear-interpolation rule).
//! * [`boxplot::BoxStats`] — Tukey box-and-whisker statistics with the
//!   1.5·IQR outlier rule, exactly as the caption of Figure 3 describes.
//! * [`cdf::Cdf`] — empirical CDFs (Figure 4), including a discrete-level
//!   detector used to verify the "two discrete levels ~16 ms apart"
//!   finding.
//! * [`ci`] — mean with a 95% Student-t confidence interval (Table 4).
//! * [`jitter`] — inter-sample jitter metrics (the paper argues unstable
//!   overhead corrupts jitter measurement; we quantify it).
//! * [`ascii`] — terminal renderings of box plots and CDFs for the
//!   experiment binaries.
//! * [`sketch::QuantileSketch`] — bounded-memory streaming quantiles
//!   with relative-error guarantees, for crowd-scale sweeps whose raw
//!   per-session samples would otherwise grow with the client count.

pub mod ascii;
pub mod boxplot;
pub mod cdf;
pub mod ci;
pub mod jitter;
pub mod ks;
pub mod sketch;
pub mod summary;

pub use boxplot::BoxStats;
pub use cdf::Cdf;
pub use ci::MeanCi;
pub use ks::{ks_two_sample, KsTest};
pub use sketch::QuantileSketch;
pub use summary::Summary;
