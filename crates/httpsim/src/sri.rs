//! Subresource Integrity (SRI).
//!
//! SRI lets a page pin the expected digest of a subresource
//! (`<script integrity="sha256-...">`). The paper recommends it as a
//! countermeasure (§VIII) while noting that it does not help during the
//! *active* injection phase, because the attacker who forges the response
//! also controls the embedding document and can simply omit or rewrite the
//! attribute. The model captures both facts.

use crate::body::{fnv1a, Body};
use std::fmt;

/// An integrity metadata value as it would appear in an `integrity` attribute.
///
/// Real SRI uses SHA-256/384/512; the simulation uses a 64-bit FNV digest,
/// which preserves the property that matters (any byte change is detected with
/// overwhelming probability) without pulling in a crypto dependency.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct IntegrityDigest(u64);

impl IntegrityDigest {
    /// Computes the digest of a body.
    pub fn of(body: &Body) -> Self {
        IntegrityDigest(fnv1a(&body.bytes))
    }

    /// Computes the digest of raw bytes.
    pub fn of_bytes(bytes: &[u8]) -> Self {
        IntegrityDigest(fnv1a(bytes))
    }

    /// Parses an `integrity` attribute value of the form `sim-<hex>`.
    pub fn parse(value: &str) -> Option<Self> {
        let hex = value.trim().strip_prefix("sim-")?;
        u64::from_str_radix(hex, 16).ok().map(IntegrityDigest)
    }

    /// Checks a fetched body against this digest.
    pub fn verify(&self, body: &Body) -> bool {
        Self::of(body) == *self
    }
}

impl fmt::Display for IntegrityDigest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "sim-{:016x}", self.0)
    }
}

/// Outcome of an SRI check during subresource loading.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SriOutcome {
    /// No integrity metadata was present — the load proceeds unchecked.
    NotRequested,
    /// Metadata present and the body matched.
    Verified,
    /// Metadata present and the body did **not** match — the browser blocks
    /// the resource, which stops a *cached* parasite from being re-used by a
    /// cleanly delivered page.
    Blocked,
}

/// Performs the SRI check a browser applies when a document references a
/// subresource with optional integrity metadata.
pub fn check(integrity: Option<&IntegrityDigest>, body: &Body) -> SriOutcome {
    match integrity {
        None => SriOutcome::NotRequested,
        Some(digest) if digest.verify(body) => SriOutcome::Verified,
        Some(_) => SriOutcome::Blocked,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::body::ResourceKind;

    #[test]
    fn digest_round_trips_through_attribute_syntax() {
        let body = Body::text(ResourceKind::JavaScript, "function init(){}");
        let digest = IntegrityDigest::of(&body);
        let attr = digest.to_string();
        assert!(attr.starts_with("sim-"));
        assert_eq!(IntegrityDigest::parse(&attr), Some(digest));
        assert_eq!(IntegrityDigest::parse("sha256-notourformat"), None);
    }

    #[test]
    fn tampered_body_is_blocked() {
        let clean = Body::text(ResourceKind::JavaScript, "function init(){}");
        let digest = IntegrityDigest::of(&clean);
        let infected = Body::text(ResourceKind::JavaScript, "function init(){};PARASITE_CODE;");
        assert_eq!(check(Some(&digest), &clean), SriOutcome::Verified);
        assert_eq!(check(Some(&digest), &infected), SriOutcome::Blocked);
    }

    #[test]
    fn absent_integrity_is_not_checked() {
        let infected = Body::text(ResourceKind::JavaScript, "PARASITE_CODE;");
        assert_eq!(check(None, &infected), SriOutcome::NotRequested);
    }

    #[test]
    fn digest_of_bytes_matches_digest_of_body() {
        let text = "var a = 42;";
        let body = Body::text(ResourceKind::JavaScript, text);
        assert_eq!(IntegrityDigest::of(&body), IntegrityDigest::of_bytes(text.as_bytes()));
    }
}
