//! Content Security Policy parsing and enforcement.
//!
//! CSP is the countermeasure the paper analyses most closely (§VIII,
//! Figure 5): only ≈4.33 % of the 15K-top pages deploy it, 15.3 % of those use
//! a deprecated header name, and of 160 observed `connect-src` directives 17
//! use a wildcard that defeats the purpose. This module models the header
//! names (current and deprecated), directive parsing, source-list matching and
//! the enforcement decisions the browser performs when the parasite tries to
//! exfiltrate data or frame other sites.

use crate::headers::{names, HeaderMap};
use crate::url::Url;
use std::collections::BTreeMap;
use std::fmt;

/// Which header variant carried the policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CspVersion {
    /// The standard `Content-Security-Policy` header.
    Standard,
    /// The deprecated `X-Content-Security-Policy` header.
    XContentSecurityPolicy,
    /// The deprecated `X-Webkit-CSP` header.
    XWebkitCsp,
}

impl CspVersion {
    /// Returns `true` for the deprecated prefixed header names.
    pub fn is_deprecated(self) -> bool {
        !matches!(self, CspVersion::Standard)
    }
}

impl fmt::Display for CspVersion {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            CspVersion::Standard => "Content-Security-Policy",
            CspVersion::XContentSecurityPolicy => "X-Content-Security-Policy",
            CspVersion::XWebkitCsp => "X-Webkit-CSP",
        };
        f.write_str(name)
    }
}

/// CSP directives the reproduction enforces.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Directive {
    /// `default-src`.
    DefaultSrc,
    /// `script-src`.
    ScriptSrc,
    /// `img-src` — governs the C&C downstream channel's image loads.
    ImgSrc,
    /// `connect-src` — governs XHR/WebSocket exfiltration.
    ConnectSrc,
    /// `frame-src` — governs the iframe propagation vector.
    FrameSrc,
    /// `style-src`.
    StyleSrc,
}

impl Directive {
    fn parse(token: &str) -> Option<Directive> {
        match token {
            "default-src" => Some(Directive::DefaultSrc),
            "script-src" => Some(Directive::ScriptSrc),
            "img-src" => Some(Directive::ImgSrc),
            "connect-src" => Some(Directive::ConnectSrc),
            "frame-src" => Some(Directive::FrameSrc),
            "style-src" => Some(Directive::StyleSrc),
            _ => None,
        }
    }

    /// Wire name of the directive.
    pub fn as_str(self) -> &'static str {
        match self {
            Directive::DefaultSrc => "default-src",
            Directive::ScriptSrc => "script-src",
            Directive::ImgSrc => "img-src",
            Directive::ConnectSrc => "connect-src",
            Directive::FrameSrc => "frame-src",
            Directive::StyleSrc => "style-src",
        }
    }
}

/// A single source expression in a directive's source list.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Source {
    /// `*` — matches any origin; the misconfiguration Figure 5 calls out.
    Wildcard,
    /// `'self'`.
    SelfOrigin,
    /// `'none'`.
    None,
    /// `'unsafe-inline'`.
    UnsafeInline,
    /// A host pattern, e.g. `https://cdn.example.com` or `*.example.com`.
    Host(String),
}

impl Source {
    fn parse(token: &str) -> Source {
        match token {
            "*" => Source::Wildcard,
            "'self'" => Source::SelfOrigin,
            "'none'" => Source::None,
            "'unsafe-inline'" => Source::UnsafeInline,
            other => Source::Host(other.to_ascii_lowercase()),
        }
    }

    fn matches(&self, document: &Url, target: &Url) -> bool {
        match self {
            Source::Wildcard => true,
            Source::SelfOrigin => document.same_origin(target),
            Source::None => false,
            Source::UnsafeInline => false,
            Source::Host(pattern) => host_pattern_matches(pattern, target),
        }
    }
}

fn host_pattern_matches(pattern: &str, target: &Url) -> bool {
    // Strip an optional scheme prefix.
    let (scheme, host_part) = match pattern.split_once("://") {
        Some((s, h)) => (Some(s), h),
        None => (None, pattern),
    };
    if let Some(scheme) = scheme {
        if scheme != target.scheme.as_str() {
            return false;
        }
    }
    let host_part = host_part.trim_end_matches('/');
    if let Some(suffix) = host_part.strip_prefix("*.") {
        target.host.ends_with(suffix) && target.host != suffix
    } else {
        target.host == host_part
    }
}

/// A parsed Content Security Policy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ContentSecurityPolicy {
    /// Which header variant delivered the policy.
    pub version: CspVersion,
    directives: BTreeMap<Directive, Vec<Source>>,
}

impl ContentSecurityPolicy {
    /// Parses a policy string such as
    /// `"default-src 'self'; img-src *; connect-src 'self' api.example.com"`.
    pub fn parse(version: CspVersion, value: &str) -> Self {
        let mut directives = BTreeMap::new();
        for clause in value.split(';') {
            let mut tokens = clause.split_whitespace();
            let Some(name) = tokens.next() else { continue };
            let Some(directive) = Directive::parse(&name.to_ascii_lowercase()) else {
                continue;
            };
            let sources: Vec<Source> = tokens.map(Source::parse).collect();
            directives.insert(directive, sources);
        }
        ContentSecurityPolicy { version, directives }
    }

    /// Extracts a policy from response headers, honouring the deprecated
    /// header names the measurement in Figure 5 tracks.
    pub fn from_headers(headers: &HeaderMap) -> Option<Self> {
        if let Some(value) = headers.get(names::CONTENT_SECURITY_POLICY) {
            return Some(Self::parse(CspVersion::Standard, value));
        }
        if let Some(value) = headers.get(names::X_CONTENT_SECURITY_POLICY) {
            return Some(Self::parse(CspVersion::XContentSecurityPolicy, value));
        }
        if let Some(value) = headers.get(names::X_WEBKIT_CSP) {
            return Some(Self::parse(CspVersion::XWebkitCsp, value));
        }
        None
    }

    /// Returns the source list for a directive, falling back to `default-src`.
    pub fn sources_for(&self, directive: Directive) -> Option<&[Source]> {
        self.directives
            .get(&directive)
            .or_else(|| self.directives.get(&Directive::DefaultSrc))
            .map(|v| v.as_slice())
    }

    /// Returns `true` if the policy defines the directive explicitly
    /// (not via `default-src`).
    pub fn defines(&self, directive: Directive) -> bool {
        self.directives.contains_key(&directive)
    }

    /// Returns `true` if the policy has no directives at all (supplied header
    /// with an empty or unparseable value — counted by the measurement as
    /// "CSP supplied but no rules").
    pub fn is_empty(&self) -> bool {
        self.directives.is_empty()
    }

    /// Enforcement check: may a document at `document` load/connect to
    /// `target` under `directive`?
    ///
    /// Absent policy or absent directive (and no `default-src`) means allow —
    /// which is exactly why the parasite strips the header from infected
    /// responses.
    pub fn allows(&self, directive: Directive, document: &Url, target: &Url) -> bool {
        match self.sources_for(directive) {
            None => true,
            Some(sources) => sources.iter().any(|s| s.matches(document, target)),
        }
    }

    /// Returns `true` if the directive's source list contains a bare wildcard
    /// (the `connect-src *` misconfiguration from Figure 5).
    pub fn has_wildcard(&self, directive: Directive) -> bool {
        self.sources_for(directive)
            .map(|sources| sources.contains(&Source::Wildcard))
            .unwrap_or(false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn url(s: &str) -> Url {
        Url::parse(s).unwrap()
    }

    #[test]
    fn parse_and_lookup_directives() {
        let csp = ContentSecurityPolicy::parse(
            CspVersion::Standard,
            "default-src 'self'; img-src *; connect-src 'self' https://api.example.com",
        );
        assert!(csp.defines(Directive::ImgSrc));
        assert!(!csp.defines(Directive::FrameSrc));
        assert!(csp.has_wildcard(Directive::ImgSrc));
        assert!(!csp.has_wildcard(Directive::ConnectSrc));
        assert!(!csp.is_empty());
    }

    #[test]
    fn missing_policy_allows_everything() {
        let headers = HeaderMap::new();
        assert!(ContentSecurityPolicy::from_headers(&headers).is_none());
    }

    #[test]
    fn deprecated_header_names_are_detected() {
        let mut headers = HeaderMap::new();
        headers.set(names::X_WEBKIT_CSP, "default-src 'self'");
        let csp = ContentSecurityPolicy::from_headers(&headers).unwrap();
        assert_eq!(csp.version, CspVersion::XWebkitCsp);
        assert!(csp.version.is_deprecated());
        assert!(!CspVersion::Standard.is_deprecated());
    }

    #[test]
    fn self_source_restricts_to_same_origin() {
        let csp = ContentSecurityPolicy::parse(CspVersion::Standard, "connect-src 'self'");
        let doc = url("https://bank.example/account");
        assert!(csp.allows(Directive::ConnectSrc, &doc, &url("https://bank.example/api")));
        assert!(!csp.allows(Directive::ConnectSrc, &doc, &url("https://evil.example/c2")));
    }

    #[test]
    fn wildcard_connect_src_lets_exfiltration_through() {
        let csp = ContentSecurityPolicy::parse(CspVersion::Standard, "connect-src *");
        let doc = url("https://bank.example/");
        assert!(csp.allows(Directive::ConnectSrc, &doc, &url("http://attacker.example/steal")));
        assert!(csp.has_wildcard(Directive::ConnectSrc));
    }

    #[test]
    fn default_src_is_the_fallback() {
        let csp = ContentSecurityPolicy::parse(CspVersion::Standard, "default-src 'none'; img-src 'self'");
        let doc = url("https://shop.example/");
        // img-src explicitly allows self.
        assert!(csp.allows(Directive::ImgSrc, &doc, &url("https://shop.example/pixel.svg")));
        // frame-src falls back to default-src 'none'.
        assert!(!csp.allows(Directive::FrameSrc, &doc, &url("https://bank.example/")));
        // Absent directive with no default-src: allowed.
        let loose = ContentSecurityPolicy::parse(CspVersion::Standard, "img-src 'self'");
        assert!(loose.allows(Directive::FrameSrc, &doc, &url("https://bank.example/")));
    }

    #[test]
    fn host_patterns_match_subdomains_and_schemes() {
        let csp = ContentSecurityPolicy::parse(
            CspVersion::Standard,
            "script-src *.cdn.example https://static.shop.example",
        );
        let doc = url("https://shop.example/");
        assert!(csp.allows(Directive::ScriptSrc, &doc, &url("https://a.cdn.example/lib.js")));
        assert!(!csp.allows(Directive::ScriptSrc, &doc, &url("https://cdn.example/lib.js")), "bare domain does not match *. pattern");
        assert!(csp.allows(Directive::ScriptSrc, &doc, &url("https://static.shop.example/app.js")));
        assert!(!csp.allows(Directive::ScriptSrc, &doc, &url("http://static.shop.example/app.js")), "scheme-qualified source requires matching scheme");
        assert!(!csp.allows(Directive::ScriptSrc, &doc, &url("https://evil.example/x.js")));
    }

    #[test]
    fn empty_policy_counts_as_supplied_without_rules() {
        let csp = ContentSecurityPolicy::parse(CspVersion::Standard, "upgrade-insecure-requests");
        assert!(csp.is_empty());
    }
}
