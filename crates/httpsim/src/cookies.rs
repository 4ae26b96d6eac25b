//! Cookies and the cookie jar.
//!
//! Cookies matter to the reproduction for two reasons: the parasite's
//! credential-theft modules read them through the browser API (Table V,
//! "Browser Data"), and Table III shows that clearing *cookies/site data* is
//! the only refresh method that also removes Cache-API-stored parasites — so
//! the browser model ties Cache API lifetime to cookie clearing.

use crate::url::Url;
use std::fmt;

/// A single cookie.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cookie {
    /// Cookie name.
    pub name: String,
    /// Cookie value.
    pub value: String,
    /// Domain the cookie is scoped to.
    pub domain: String,
    /// Path prefix the cookie is scoped to.
    pub path: String,
    /// Absolute expiry in simulation seconds (`None` = session cookie).
    pub expires_at: Option<u64>,
    /// Only sent over HTTPS.
    pub secure: bool,
    /// Not visible to scripts.
    pub http_only: bool,
}

impl Cookie {
    /// Creates a session cookie scoped to `domain`.
    pub fn session(name: impl Into<String>, value: impl Into<String>, domain: impl Into<String>) -> Self {
        Cookie {
            name: name.into(),
            value: value.into(),
            domain: domain.into().to_ascii_lowercase(),
            path: "/".into(),
            expires_at: None,
            secure: false,
            http_only: false,
        }
    }

    /// Parses a `Set-Cookie` header value for a response from `url`.
    ///
    /// Returns `None` for values without a `name=value` pair.
    pub fn parse_set_cookie(value: &str, url: &Url) -> Option<Cookie> {
        let mut parts = value.split(';');
        let (name, val) = parts.next()?.split_once('=')?;
        let mut cookie = Cookie::session(name.trim(), val.trim(), url.host.clone());
        for attr in parts {
            let attr = attr.trim();
            let (key, arg) = match attr.split_once('=') {
                Some((k, a)) => (k.trim().to_ascii_lowercase(), a.trim()),
                None => (attr.to_ascii_lowercase(), ""),
            };
            match key.as_str() {
                "domain" => cookie.domain = arg.trim_start_matches('.').to_ascii_lowercase(),
                "path" => cookie.path = arg.to_string(),
                "max-age" => {
                    // Interpreted relative to time zero by the caller via
                    // `CookieJar::set_from_header`, which knows `now`.
                    cookie.expires_at = arg.parse::<u64>().ok();
                }
                "expires" => {
                    // Modelled as an absolute simulation-second count.
                    cookie.expires_at = arg.parse::<u64>().ok();
                }
                "secure" => cookie.secure = true,
                "httponly" => cookie.http_only = true,
                _ => {}
            }
        }
        Some(cookie)
    }

    /// Returns `true` if the cookie applies to requests for `url`.
    pub fn matches(&self, url: &Url) -> bool {
        let host_match = url.host == self.domain || url.host.ends_with(&format!(".{}", self.domain));
        let path_match = url.path.starts_with(&self.path);
        let scheme_ok = !self.secure || url.scheme == crate::url::Scheme::Https;
        host_match && path_match && scheme_ok
    }

    /// Returns `true` if the cookie has expired at `now`.
    pub fn is_expired(&self, now: u64) -> bool {
        matches!(self.expires_at, Some(at) if at <= now)
    }
}

impl fmt::Display for Cookie {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}={}", self.name, self.value)
    }
}

/// A per-browser cookie store.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CookieJar {
    cookies: Vec<Cookie>,
}

impl CookieJar {
    /// Creates an empty jar.
    pub fn new() -> Self {
        Self::default()
    }

    /// Stores a cookie, replacing any existing cookie with the same
    /// (name, domain, path).
    pub fn set(&mut self, cookie: Cookie) {
        self.cookies
            .retain(|c| !(c.name == cookie.name && c.domain == cookie.domain && c.path == cookie.path));
        self.cookies.push(cookie);
    }

    /// Parses and stores a `Set-Cookie` header received from `url` at `now`.
    /// A relative `Max-Age` is converted to an absolute expiry.
    pub fn set_from_header(&mut self, header_value: &str, url: &Url, now: u64) {
        if let Some(mut cookie) = Cookie::parse_set_cookie(header_value, url) {
            if header_value.to_ascii_lowercase().contains("max-age=") {
                cookie.expires_at = cookie.expires_at.map(|rel| now + rel);
            }
            self.set(cookie);
        }
    }

    /// Returns the `Cookie` header value for a request to `url`, or `None` if
    /// no cookies apply.
    pub fn header_for(&self, url: &Url, now: u64) -> Option<String> {
        let mut applicable: Vec<&Cookie> = self
            .cookies
            .iter()
            .filter(|c| c.matches(url) && !c.is_expired(now))
            .collect();
        if applicable.is_empty() {
            return None;
        }
        applicable.sort_by(|a, b| b.path.len().cmp(&a.path.len()).then(a.name.cmp(&b.name)));
        Some(
            applicable
                .iter()
                .map(|c| c.to_string())
                .collect::<Vec<_>>()
                .join("; "),
        )
    }

    /// Cookies visible to a script running on `url`'s origin (`document.cookie`):
    /// everything applicable except `HttpOnly` cookies.
    pub fn script_visible(&self, url: &Url, now: u64) -> Vec<&Cookie> {
        self.cookies
            .iter()
            .filter(|c| c.matches(url) && !c.is_expired(now) && !c.http_only)
            .collect()
    }

    /// Total number of cookies stored.
    pub fn len(&self) -> usize {
        self.cookies.len()
    }

    /// Returns `true` if the jar is empty.
    pub fn is_empty(&self) -> bool {
        self.cookies.is_empty()
    }

    /// Removes every cookie (the "clear cookies / site data" browser action of
    /// Table III).
    pub fn clear(&mut self) {
        self.cookies.clear();
    }

    /// Removes cookies for one domain only.
    pub fn clear_domain(&mut self, domain: &str) {
        let domain = domain.to_ascii_lowercase();
        self.cookies.retain(|c| c.domain != domain);
    }

    /// Drops expired cookies.
    pub fn evict_expired(&mut self, now: u64) {
        self.cookies.retain(|c| !c.is_expired(now));
    }

    /// Iterates over all cookies.
    pub fn iter(&self) -> impl Iterator<Item = &Cookie> {
        self.cookies.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::url::Scheme;

    fn url(s: &str) -> Url {
        Url::parse(s).unwrap()
    }

    #[test]
    fn parse_set_cookie_with_attributes() {
        let u = url("https://mail.example/inbox");
        let cookie = Cookie::parse_set_cookie("SID=abc123; Path=/; Secure; HttpOnly; Max-Age=3600", &u).unwrap();
        assert_eq!(cookie.name, "SID");
        assert_eq!(cookie.value, "abc123");
        assert_eq!(cookie.domain, "mail.example");
        assert!(cookie.secure && cookie.http_only);
        assert_eq!(cookie.expires_at, Some(3600));
        assert!(Cookie::parse_set_cookie("garbage-without-equals", &u).is_none());
    }

    #[test]
    fn jar_returns_matching_cookies_only() {
        let mut jar = CookieJar::new();
        let bank = url("https://bank.example/");
        let mail = url("https://mail.example/");
        jar.set_from_header("auth=tok1; Path=/", &bank, 0);
        jar.set_from_header("session=tok2; Path=/", &mail, 0);
        assert_eq!(jar.header_for(&bank, 10), Some("auth=tok1".to_string()));
        assert_eq!(jar.header_for(&mail, 10), Some("session=tok2".to_string()));
        assert_eq!(jar.len(), 2);
    }

    #[test]
    fn secure_cookies_are_not_sent_over_http() {
        let mut jar = CookieJar::new();
        let https = url("https://bank.example/");
        jar.set_from_header("auth=tok; Secure", &https, 0);
        let http = Url { scheme: Scheme::Http, port: 80, ..https.clone() };
        assert_eq!(jar.header_for(&https, 0), Some("auth=tok".into()));
        assert_eq!(jar.header_for(&http, 0), None);
    }

    #[test]
    fn max_age_expiry_is_relative_to_set_time() {
        let mut jar = CookieJar::new();
        let u = url("http://shop.example/");
        jar.set_from_header("cart=1; Max-Age=100", &u, 1000);
        assert!(jar.header_for(&u, 1050).is_some());
        assert!(jar.header_for(&u, 1101).is_none());
        jar.evict_expired(1101);
        assert!(jar.is_empty());
    }

    #[test]
    fn http_only_cookies_hidden_from_scripts_but_sent_on_requests() {
        let mut jar = CookieJar::new();
        let u = url("https://social.example/");
        jar.set_from_header("sid=secret; HttpOnly", &u, 0);
        jar.set_from_header("theme=dark", &u, 0);
        let visible = jar.script_visible(&u, 0);
        assert_eq!(visible.len(), 1);
        assert_eq!(visible[0].name, "theme");
        assert!(jar.header_for(&u, 0).unwrap().contains("sid=secret"));
    }

    #[test]
    fn subdomain_cookies_match_parent_domain_scope() {
        let mut jar = CookieJar::new();
        let u = url("https://www.example.com/");
        jar.set_from_header("pref=1; Domain=example.com", &u, 0);
        assert!(jar.header_for(&url("https://shop.example.com/x"), 0).is_some());
        assert!(jar.header_for(&url("https://other.org/"), 0).is_none());
    }

    #[test]
    fn clearing_cookies_removes_everything() {
        let mut jar = CookieJar::new();
        let u = url("https://a.example/");
        jar.set_from_header("x=1", &u, 0);
        jar.set_from_header("y=2", &u, 0);
        jar.clear();
        assert!(jar.is_empty());
    }

    #[test]
    fn same_name_domain_path_replaces() {
        let mut jar = CookieJar::new();
        let u = url("https://a.example/");
        jar.set_from_header("x=1", &u, 0);
        jar.set_from_header("x=2", &u, 0);
        assert_eq!(jar.len(), 1);
        assert_eq!(jar.header_for(&u, 0), Some("x=2".into()));
    }
}
