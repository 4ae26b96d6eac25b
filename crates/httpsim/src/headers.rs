//! Case-insensitive HTTP header map.

use std::fmt;

/// Well-known header names used throughout the reproduction.
pub mod names {
    /// `Cache-Control`.
    pub const CACHE_CONTROL: &str = "cache-control";
    /// `Expires`.
    pub const EXPIRES: &str = "expires";
    /// `ETag`.
    pub const ETAG: &str = "etag";
    /// `Last-Modified`.
    pub const LAST_MODIFIED: &str = "last-modified";
    /// `If-None-Match`.
    pub const IF_NONE_MATCH: &str = "if-none-match";
    /// `If-Modified-Since`.
    pub const IF_MODIFIED_SINCE: &str = "if-modified-since";
    /// `Age`.
    pub const AGE: &str = "age";
    /// `Date`.
    pub const DATE: &str = "date";
    /// `Host`.
    pub const HOST: &str = "host";
    /// `Content-Type`.
    pub const CONTENT_TYPE: &str = "content-type";
    /// `Content-Length`.
    pub const CONTENT_LENGTH: &str = "content-length";
    /// `Set-Cookie`.
    pub const SET_COOKIE: &str = "set-cookie";
    /// `Cookie`.
    pub const COOKIE: &str = "cookie";
    /// `Strict-Transport-Security`.
    pub const STRICT_TRANSPORT_SECURITY: &str = "strict-transport-security";
    /// `Content-Security-Policy`.
    pub const CONTENT_SECURITY_POLICY: &str = "content-security-policy";
    /// `X-Content-Security-Policy` (deprecated).
    pub const X_CONTENT_SECURITY_POLICY: &str = "x-content-security-policy";
    /// `X-Webkit-CSP` (deprecated).
    pub const X_WEBKIT_CSP: &str = "x-webkit-csp";
    /// `X-Frame-Options`.
    pub const X_FRAME_OPTIONS: &str = "x-frame-options";
    /// `Vary`.
    pub const VARY: &str = "vary";
    /// `User-Agent`.
    pub const USER_AGENT: &str = "user-agent";
    /// `Referer`.
    pub const REFERER: &str = "referer";
    /// `Location`.
    pub const LOCATION: &str = "location";
    /// `Pragma`.
    pub const PRAGMA: &str = "pragma";
}

/// An ordered, case-insensitive multimap of HTTP headers.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HeaderMap {
    entries: Vec<(String, String)>,
}

impl HeaderMap {
    /// Creates an empty header map.
    pub fn new() -> Self {
        Self::default()
    }

    fn normalise(name: &str) -> String {
        name.to_ascii_lowercase()
    }

    /// Sets a header, replacing all previous values for the same name.
    pub fn set(&mut self, name: &str, value: impl Into<String>) {
        let name = Self::normalise(name);
        self.entries.retain(|(n, _)| *n != name);
        self.entries.push((name, value.into()));
    }

    /// Appends a header value, keeping existing values (used for
    /// `Set-Cookie`, which may legitimately repeat).
    pub fn append(&mut self, name: &str, value: impl Into<String>) {
        self.entries.push((Self::normalise(name), value.into()));
    }

    /// Returns the first value for `name`, if present.
    pub fn get(&self, name: &str) -> Option<&str> {
        let name = Self::normalise(name);
        self.entries
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| v.as_str())
    }

    /// Returns every value for `name`.
    pub fn get_all(&self, name: &str) -> Vec<&str> {
        let name = Self::normalise(name);
        self.entries
            .iter()
            .filter(|(n, _)| *n == name)
            .map(|(_, v)| v.as_str())
            .collect()
    }

    /// Returns `true` if `name` is present.
    pub fn contains(&self, name: &str) -> bool {
        self.get(name).is_some()
    }

    /// Removes all values for `name`, returning `true` if anything was removed.
    pub fn remove(&mut self, name: &str) -> bool {
        let name = Self::normalise(name);
        let before = self.entries.len();
        self.entries.retain(|(n, _)| *n != name);
        before != self.entries.len()
    }

    /// Number of header lines.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Returns `true` if there are no headers.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterates over `(name, value)` pairs in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &str)> {
        self.entries.iter().map(|(n, v)| (n.as_str(), v.as_str()))
    }

    /// Serialises the headers as HTTP/1.1 header lines (without the trailing
    /// blank line).
    pub fn to_wire(&self) -> String {
        let mut out = String::new();
        for (name, value) in &self.entries {
            out.push_str(&title_case(name));
            out.push_str(": ");
            out.push_str(value);
            out.push_str("\r\n");
        }
        out
    }
}

impl FromIterator<(String, String)> for HeaderMap {
    fn from_iter<T: IntoIterator<Item = (String, String)>>(iter: T) -> Self {
        let mut map = HeaderMap::new();
        for (name, value) in iter {
            map.append(&name, value);
        }
        map
    }
}

impl Extend<(String, String)> for HeaderMap {
    fn extend<T: IntoIterator<Item = (String, String)>>(&mut self, iter: T) {
        for (name, value) in iter {
            self.append(&name, value);
        }
    }
}

/// Converts a lowercase header name to the conventional Title-Case wire form.
fn title_case(name: &str) -> String {
    name.split('-')
        .map(|part| {
            let mut chars = part.chars();
            match chars.next() {
                Some(first) => first.to_ascii_uppercase().to_string() + chars.as_str(),
                None => String::new(),
            }
        })
        .collect::<Vec<_>>()
        .join("-")
}

impl fmt::Display for HeaderMap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_wire())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_and_get_is_case_insensitive() {
        let mut headers = HeaderMap::new();
        headers.set("Cache-Control", "max-age=3600");
        assert_eq!(headers.get("cache-control"), Some("max-age=3600"));
        assert_eq!(headers.get("CACHE-CONTROL"), Some("max-age=3600"));
        assert!(headers.contains("Cache-Control"));
    }

    #[test]
    fn set_replaces_but_append_accumulates() {
        let mut headers = HeaderMap::new();
        headers.append("Set-Cookie", "a=1");
        headers.append("Set-Cookie", "b=2");
        assert_eq!(headers.get_all("set-cookie"), vec!["a=1", "b=2"]);
        headers.set("Set-Cookie", "c=3");
        assert_eq!(headers.get_all("set-cookie"), vec!["c=3"]);
    }

    #[test]
    fn remove_reports_whether_anything_was_removed() {
        let mut headers = HeaderMap::new();
        headers.set("ETag", "\"abc\"");
        assert!(headers.remove("etag"));
        assert!(!headers.remove("etag"));
        assert!(headers.is_empty());
    }

    #[test]
    fn wire_form_uses_title_case_and_crlf() {
        let mut headers = HeaderMap::new();
        headers.set("content-type", "text/javascript");
        headers.set("strict-transport-security", "max-age=63072000");
        let wire = headers.to_wire();
        assert!(wire.contains("Content-Type: text/javascript\r\n"));
        assert!(wire.contains("Strict-Transport-Security: max-age=63072000\r\n"));
    }

    #[test]
    fn collect_from_iterator() {
        let headers: HeaderMap = vec![
            ("Host".to_string(), "example.org".to_string()),
            ("Accept".to_string(), "*/*".to_string()),
        ]
        .into_iter()
        .collect();
        assert_eq!(headers.len(), 2);
        assert_eq!(headers.get("host"), Some("example.org"));
    }
}
