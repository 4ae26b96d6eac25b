//! # mp-webgen
//!
//! Synthetic web population, object-churn model, daily crawler and
//! security-policy scanner for the *Master and Parasite Attack* reproduction.
//!
//! The paper's measurement studies (Figure 3, Figure 5 and the in-text
//! HTTPS/HSTS/Google-Analytics numbers) ran against the live Alexa top lists.
//! Offline, this crate generates a population whose marginals are calibrated
//! to the published results and re-runs the same measurement pipelines over
//! it:
//!
//! * [`population`] — site generation (TLS deployment, HSTS, CSP, analytics
//!   usage, JavaScript objects) and materialisation as servable origins,
//! * [`churn`] — per-object rename / content-change processes (a rename
//!   appends `.v{n}` to the original path, so a site's paths stay distinct),
//! * [`crawler`] — the 100-day daily crawl and Figure 3 persistency series,
//!   counted in place against each object's day-zero path and hash,
//! * [`policy`] — the HTTPS/SSL, HSTS and CSP scans (Figure 5).
#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod churn;
pub mod crawler;
pub mod policy;
pub mod population;

pub use churn::{ChurningObject, StabilityClass};
pub use crawler::{Crawler, PersistencyPoint, PersistencySeries};
pub use policy::{scan, CspStats, HstsStats, PolicyScan, TlsStats};
pub use population::{Population, PopulationConfig, Website, ANALYTICS_HOST, ANALYTICS_PATH};
