//! HTTP caching semantics (RFC 7234 subset).
//!
//! The parasite's persistence (paper §VI-A) is entirely a function of these
//! rules: the attacker rewrites `Cache-Control` so the infected object is
//! stored "for as long as possible", and strips request validators so the
//! origin server never gets the chance to answer `304 Not Modified` with the
//! clean object. This module implements the freshness and revalidation logic
//! that browsers, network caches and the attack code all share.
//!
//! All times are expressed in whole seconds on the simulation clock.

use crate::headers::{names, HeaderMap};
use crate::message::{Request, Response, StatusCode};

/// Parsed `Cache-Control` directives (the subset that matters here).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CacheDirectives {
    /// `max-age=N` in seconds.
    pub max_age: Option<u64>,
    /// `s-maxage=N` in seconds (shared caches).
    pub s_maxage: Option<u64>,
    /// `no-store`.
    pub no_store: bool,
    /// `no-cache` (store but always revalidate).
    pub no_cache: bool,
    /// `private` (end-client caches only).
    pub private: bool,
    /// `public`.
    pub public: bool,
    /// `must-revalidate`.
    pub must_revalidate: bool,
    /// `immutable`.
    pub immutable: bool,
}

impl CacheDirectives {
    /// Parses a `Cache-Control` header value.
    pub fn parse(value: &str) -> Self {
        let mut directives = CacheDirectives::default();
        for token in value.split(',') {
            let token = token.trim().to_ascii_lowercase();
            if let Some(arg) = token.strip_prefix("max-age=") {
                directives.max_age = arg.parse().ok();
            } else if let Some(arg) = token.strip_prefix("s-maxage=") {
                directives.s_maxage = arg.parse().ok();
            } else {
                match token.as_str() {
                    "no-store" => directives.no_store = true,
                    "no-cache" => directives.no_cache = true,
                    "private" => directives.private = true,
                    "public" => directives.public = true,
                    "must-revalidate" => directives.must_revalidate = true,
                    "immutable" => directives.immutable = true,
                    _ => {}
                }
            }
        }
        directives
    }

    /// Parses the directives from a header map (empty directives if absent).
    pub fn from_headers(headers: &HeaderMap) -> Self {
        headers
            .get(names::CACHE_CONTROL)
            .map(CacheDirectives::parse)
            .unwrap_or_default()
    }

    /// Renders the directives back to a `Cache-Control` value.
    pub fn to_header_value(&self) -> String {
        let mut parts = Vec::new();
        if self.public {
            parts.push("public".to_string());
        }
        if self.private {
            parts.push("private".to_string());
        }
        if let Some(age) = self.max_age {
            parts.push(format!("max-age={age}"));
        }
        if let Some(age) = self.s_maxage {
            parts.push(format!("s-maxage={age}"));
        }
        if self.immutable {
            parts.push("immutable".to_string());
        }
        if self.no_cache {
            parts.push("no-cache".to_string());
        }
        if self.no_store {
            parts.push("no-store".to_string());
        }
        if self.must_revalidate {
            parts.push("must-revalidate".to_string());
        }
        parts.join(", ")
    }
}

/// Freshness verdict for a stored response at a given moment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Freshness {
    /// The stored response may be served without contacting the origin.
    Fresh {
        /// Seconds of freshness remaining.
        remaining_secs: u64,
    },
    /// The stored response is stale and should be revalidated.
    Stale {
        /// Seconds past its freshness lifetime.
        stale_for_secs: u64,
    },
    /// The response must always be revalidated before use (`no-cache`).
    AlwaysRevalidate,
    /// The response must not be stored at all (`no-store`).
    Uncacheable,
}

impl Freshness {
    /// Returns `true` if the stored copy may be used without revalidation.
    pub fn is_fresh(self) -> bool {
        matches!(self, Freshness::Fresh { .. })
    }
}

/// Validators carried by a stored response.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Validators {
    /// `ETag` value.
    pub etag: Option<String>,
    /// `Last-Modified` value (opaque string; equality comparison only).
    pub last_modified: Option<String>,
}

impl Validators {
    /// Extracts validators from response headers.
    pub fn from_headers(headers: &HeaderMap) -> Self {
        Validators {
            etag: headers.get(names::ETAG).map(str::to_string),
            last_modified: headers.get(names::LAST_MODIFIED).map(str::to_string),
        }
    }

    /// Returns `true` if any validator is present.
    pub fn any(&self) -> bool {
        self.etag.is_some() || self.last_modified.is_some()
    }
}

/// Caching policy evaluator shared by browser caches and network caches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CachePolicy {
    /// Whether this cache is shared (proxy/CDN) — shared caches ignore
    /// `private` responses and honour `s-maxage`.
    pub shared: bool,
    /// Heuristic freshness (seconds) applied when a cacheable response has no
    /// explicit lifetime. Browsers commonly use a fraction of the resource's
    /// age; a fixed small default keeps the model simple and conservative.
    pub heuristic_lifetime_secs: u64,
}

impl Default for CachePolicy {
    fn default() -> Self {
        CachePolicy {
            shared: false,
            heuristic_lifetime_secs: 300,
        }
    }
}

impl CachePolicy {
    /// Policy for a private (browser) cache.
    pub fn private_cache() -> Self {
        Self::default()
    }

    /// Policy for a shared (proxy/CDN/ISP) cache.
    pub fn shared_cache() -> Self {
        CachePolicy {
            shared: true,
            ..Self::default()
        }
    }

    /// Returns `true` if the response may be stored by this cache at all.
    pub fn is_storable(&self, response: &Response) -> bool {
        if !(response.status.is_success() || response.status == StatusCode::MOVED_PERMANENTLY) {
            return false;
        }
        let directives = CacheDirectives::from_headers(&response.headers);
        if directives.no_store {
            return false;
        }
        if self.shared && directives.private {
            return false;
        }
        true
    }

    /// Explicit freshness lifetime of a response, in seconds, if any.
    pub fn explicit_lifetime(&self, response: &Response) -> Option<u64> {
        let directives = CacheDirectives::from_headers(&response.headers);
        if self.shared {
            if let Some(s) = directives.s_maxage {
                return Some(s);
            }
        }
        if let Some(age) = directives.max_age {
            return Some(age);
        }
        // `Expires` is modelled as an absolute second count on the simulation
        // clock, written as a bare integer (we do not model HTTP-date syntax).
        if let (Some(expires), Some(date)) = (
            response.headers.get(names::EXPIRES).and_then(|v| v.parse::<u64>().ok()),
            response.headers.get(names::DATE).and_then(|v| v.parse::<u64>().ok()),
        ) {
            return Some(expires.saturating_sub(date));
        }
        None
    }

    /// Freshness lifetime including the heuristic fallback.
    pub fn freshness_lifetime(&self, response: &Response) -> u64 {
        self.explicit_lifetime(response)
            .unwrap_or(self.heuristic_lifetime_secs)
    }

    /// Evaluates the freshness of a response stored `age_secs` ago.
    pub fn freshness(&self, response: &Response, age_secs: u64) -> Freshness {
        let directives = CacheDirectives::from_headers(&response.headers);
        if directives.no_store || !self.is_storable(response) {
            return Freshness::Uncacheable;
        }
        if directives.no_cache {
            return Freshness::AlwaysRevalidate;
        }
        let lifetime = self.freshness_lifetime(response);
        if age_secs < lifetime {
            Freshness::Fresh {
                remaining_secs: lifetime - age_secs,
            }
        } else {
            Freshness::Stale {
                stale_for_secs: age_secs - lifetime,
            }
        }
    }

    /// Builds the conditional revalidation request a cache would send for a
    /// stale stored response.
    pub fn revalidation_request(&self, original: &Request, stored: &Response) -> Request {
        let mut request = original.clone();
        let validators = Validators::from_headers(&stored.headers);
        if let Some(etag) = validators.etag {
            request.headers.set(names::IF_NONE_MATCH, etag);
        }
        if let Some(lm) = validators.last_modified {
            request.headers.set(names::IF_MODIFIED_SINCE, lm);
        }
        request
    }

    /// Server-side check: does the conditional request match the current
    /// object (so a `304 Not Modified` is the right answer)?
    pub fn validators_match(&self, request: &Request, current: &Response) -> bool {
        let current_validators = Validators::from_headers(&current.headers);
        if let (Some(sent), Some(have)) = (request.headers.get(names::IF_NONE_MATCH), &current_validators.etag) {
            return sent == have;
        }
        if let (Some(sent), Some(have)) = (
            request.headers.get(names::IF_MODIFIED_SINCE),
            &current_validators.last_modified,
        ) {
            return sent == have;
        }
        false
    }
}

/// Convenience: the `Cache-Control` value the attacker pins on infected
/// objects to keep them cached "as long as possible" (paper §VI-A).
pub fn parasite_pin_header() -> String {
    CacheDirectives {
        public: true,
        max_age: Some(31_536_000),
        immutable: true,
        ..Default::default()
    }
    .to_header_value()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::body::{Body, ResourceKind};
    use crate::url::Url;

    fn js_response(cache_control: &str) -> Response {
        Response::ok(Body::text(ResourceKind::JavaScript, "var a=1;")).with_cache_control(cache_control)
    }

    #[test]
    fn parse_directives() {
        let d = CacheDirectives::parse("public, max-age=31536000, immutable");
        assert_eq!(d.max_age, Some(31_536_000));
        assert!(d.public && d.immutable);
        assert!(!d.no_store);

        let d = CacheDirectives::parse("private, no-cache, s-maxage=60");
        assert!(d.private && d.no_cache);
        assert_eq!(d.s_maxage, Some(60));
    }

    #[test]
    fn directives_round_trip_through_header_value() {
        let d = CacheDirectives::parse("public, max-age=600, must-revalidate");
        let rendered = d.to_header_value();
        let reparsed = CacheDirectives::parse(&rendered);
        assert_eq!(d, reparsed);
    }

    #[test]
    fn freshness_fresh_then_stale() {
        let policy = CachePolicy::private_cache();
        let response = js_response("max-age=100");
        assert_eq!(
            policy.freshness(&response, 40),
            Freshness::Fresh { remaining_secs: 60 }
        );
        assert_eq!(
            policy.freshness(&response, 150),
            Freshness::Stale { stale_for_secs: 50 }
        );
    }

    #[test]
    fn no_store_and_no_cache_are_respected() {
        let policy = CachePolicy::private_cache();
        assert_eq!(policy.freshness(&js_response("no-store"), 0), Freshness::Uncacheable);
        assert!(!policy.is_storable(&js_response("no-store")));
        assert_eq!(
            policy.freshness(&js_response("no-cache, max-age=100"), 0),
            Freshness::AlwaysRevalidate
        );
    }

    #[test]
    fn shared_cache_rejects_private_and_prefers_s_maxage() {
        let shared = CachePolicy::shared_cache();
        let private_resp = js_response("private, max-age=600");
        assert!(!shared.is_storable(&private_resp));
        assert_eq!(shared.freshness(&private_resp, 0), Freshness::Uncacheable);

        let resp = js_response("max-age=60, s-maxage=600");
        assert_eq!(shared.freshness(&resp, 300), Freshness::Fresh { remaining_secs: 300 });
        let browser = CachePolicy::private_cache();
        assert_eq!(browser.freshness(&resp, 300), Freshness::Stale { stale_for_secs: 240 });
    }

    #[test]
    fn expires_minus_date_is_used_when_no_max_age() {
        let policy = CachePolicy::private_cache();
        let response = Response::ok(Body::text(ResourceKind::JavaScript, "x"))
            .with_header(names::DATE, "1000")
            .with_header(names::EXPIRES, "4000");
        assert_eq!(policy.explicit_lifetime(&response), Some(3000));
    }

    #[test]
    fn heuristic_lifetime_applies_without_explicit_headers() {
        let policy = CachePolicy::private_cache();
        let response = Response::ok(Body::text(ResourceKind::JavaScript, "x"));
        assert_eq!(policy.freshness_lifetime(&response), 300);
        assert!(policy.freshness(&response, 10).is_fresh());
        assert!(!policy.freshness(&response, 1000).is_fresh());
    }

    #[test]
    fn error_responses_are_not_stored() {
        let policy = CachePolicy::private_cache();
        let response = Response::not_found();
        assert!(!policy.is_storable(&response));
    }

    #[test]
    fn revalidation_request_carries_stored_validators() {
        let policy = CachePolicy::private_cache();
        let stored = js_response("max-age=1").with_etag("\"v7\"").with_header(names::LAST_MODIFIED, "12345");
        let original = Request::get(Url::parse("http://top1.com/persistent.js").unwrap());
        let revalidation = policy.revalidation_request(&original, &stored);
        assert_eq!(revalidation.headers.get(names::IF_NONE_MATCH), Some("\"v7\""));
        assert_eq!(revalidation.headers.get(names::IF_MODIFIED_SINCE), Some("12345"));
        assert!(revalidation.is_conditional());

        // Server-side: current object still has the same ETag -> 304 applies.
        assert!(policy.validators_match(&revalidation, &stored));
        let changed = js_response("max-age=1").with_etag("\"v8\"");
        assert!(!policy.validators_match(&revalidation, &changed));
    }

    #[test]
    fn parse_is_case_insensitive_and_whitespace_tolerant() {
        let d = CacheDirectives::parse("  Public ,  MAX-AGE=60 ,IMMUTABLE  ");
        assert!(d.public && d.immutable);
        assert_eq!(d.max_age, Some(60));
    }

    #[test]
    fn malformed_and_unknown_directives_are_ignored() {
        let d = CacheDirectives::parse("max-age=abc, s-maxage=, stale-while-revalidate=30, max-age=-5");
        assert_eq!(d, CacheDirectives::default());
        // A later well-formed directive still takes effect.
        let d = CacheDirectives::parse("max-age=oops, max-age=90");
        assert_eq!(d.max_age, Some(90));
    }

    #[test]
    fn freshness_boundary_is_stale() {
        // RFC 7234: a response is fresh while age < lifetime, so at exactly
        // its lifetime it is stale by zero seconds.
        let policy = CachePolicy::private_cache();
        let response = js_response("max-age=100");
        assert_eq!(policy.freshness(&response, 100), Freshness::Stale { stale_for_secs: 0 });
    }

    #[test]
    fn etag_comparison_shadows_last_modified() {
        // When both sides carry an ETag, its verdict is final: a matching
        // Last-Modified must not rescue a failed strong-validator comparison.
        let policy = CachePolicy::private_cache();
        let stored = js_response("max-age=1").with_etag("\"v1\"").with_header(names::LAST_MODIFIED, "777");
        let original = Request::get(Url::parse("http://top1.com/app.js").unwrap());
        let revalidation = policy.revalidation_request(&original, &stored);
        let rotated = js_response("max-age=1").with_etag("\"v2\"").with_header(names::LAST_MODIFIED, "777");
        assert!(!policy.validators_match(&revalidation, &rotated));
    }

    #[test]
    fn last_modified_is_used_when_no_etag() {
        let policy = CachePolicy::private_cache();
        let stored = js_response("max-age=1").with_header(names::LAST_MODIFIED, "777");
        let original = Request::get(Url::parse("http://top1.com/app.js").unwrap());
        let revalidation = policy.revalidation_request(&original, &stored);
        assert!(policy.validators_match(&revalidation, &stored));
        let touched = js_response("max-age=1").with_header(names::LAST_MODIFIED, "778");
        assert!(!policy.validators_match(&revalidation, &touched));
        // No validators anywhere: a 304 is never the right answer.
        let bare = js_response("max-age=1");
        assert!(!policy.validators_match(&original, &bare));
    }

    #[test]
    fn validators_any_reflects_either_field() {
        assert!(!Validators::default().any());
        let stored = js_response("max-age=1").with_etag("\"v1\"");
        assert!(Validators::from_headers(&stored.headers).any());
        let stored = js_response("max-age=1").with_header(names::LAST_MODIFIED, "1");
        assert!(Validators::from_headers(&stored.headers).any());
    }

    #[test]
    fn parasite_pin_header_is_maximally_sticky() {
        let value = parasite_pin_header();
        let d = CacheDirectives::parse(&value);
        assert_eq!(d.max_age, Some(31_536_000));
        assert!(d.public && d.immutable && !d.no_store && !d.no_cache);
    }
}
