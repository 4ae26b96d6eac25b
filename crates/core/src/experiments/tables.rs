//! Table I–V runners and their result types.
//!
//! Each runner takes the uniform [`RunConfig`] and produces a structured
//! result with a paper-shaped `render()` plus a [`ToJson`] conversion; the
//! [`super::Experiment`] impls in the parent module wrap them into
//! [`super::Artifact`]s.

use super::{standard_infector, ExperimentError, RunConfig, RunCtx, MASTER_HOST};
use crate::attacks::{self, AttackReport};
use crate::cnc::CncServer;
use crate::eviction::{junk_origin, EvictionAttack, EvictionReport};
use crate::json::{Json, ToJson};
use crate::master::Master;
use crate::script::Parasite;
use mp_apps::banking::BankingApp;
use mp_apps::webmail::WebMailApp;
use mp_browser::browser::{Browser, FetchSource};
use mp_browser::profile::{BrowserProfile, OperatingSystem};
use bytes::Bytes;
use mp_httpsim::body::{Body, ResourceKind};
use mp_httpsim::headers::names;
use mp_httpsim::message::{Request, Response};
use mp_httpsim::transport::{Exchange, Internet, StaticOrigin};
use mp_httpsim::url::{Scheme, Url};
use mp_netsim::addr::IpAddr;
use mp_netsim::capture::TraceMode;
use mp_netsim::error::NetError;
use mp_netsim::link::MediumKind;
use mp_netsim::sim::{FixedResponder, SharedBudget, Simulator, DEFAULT_EVENT_BUDGET};
use mp_netsim::time::Duration as SimDuration;
use mp_webcache::{table4_entries, SharedCache};

// ---------------------------------------------------------------------------
// Table I — cache eviction
// ---------------------------------------------------------------------------

/// Result of the Table I experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct Table1Result {
    /// One report per evaluated browser.
    pub rows: Vec<EvictionReport>,
}

impl Table1Result {
    /// Renders rows shaped like Table I.
    pub fn render(&self) -> String {
        let mut out = String::from("Table I - cache eviction on popular browsers\n");
        out.push_str("browser                     | eviction | inter-domain | size (MB) | remarks\n");
        for row in &self.rows {
            out.push_str(&format!(
                "{:<27} | {:<8} | {:<12} | {:>9.0} | {}\n",
                row.browser,
                if row.evicted_targets { "yes" } else { "no" },
                if row.inter_domain { "yes" } else { "no" },
                row.cache_capacity_bytes as f64 / 1_000_000.0,
                row.remark
            ));
        }
        out
    }
}

impl ToJson for EvictionReport {
    fn to_json(&self) -> Json {
        Json::obj([
            ("browser", self.browser.to_json()),
            ("evicted_targets", self.evicted_targets.to_json()),
            ("inter_domain", self.inter_domain.to_json()),
            ("junk_objects_loaded", self.junk_objects_loaded.to_json()),
            ("junk_bytes", self.junk_bytes.to_json()),
            ("memory_pressure", self.memory_pressure.to_json()),
            ("cache_capacity_bytes", self.cache_capacity_bytes.to_json()),
            ("remark", self.remark.to_json()),
        ])
    }
}

impl ToJson for Table1Result {
    fn to_json(&self) -> Json {
        Json::obj([("rows", self.rows.to_json())])
    }
}

/// Runs the cache-eviction attack against every Table I browser profile.
///
/// `config.scale` shrinks the cache sizes and junk objects so the experiment
/// runs in milliseconds; the *behaviour* (who evicts, who melts down) is
/// unaffected.
pub(super) fn table1_cache_eviction(
    config: &RunConfig,
    _ctx: &RunCtx,
) -> Result<Table1Result, ExperimentError> {
    let scale = config.scale.max(1);
    let rows = BrowserProfile::table1_browsers()
        .into_iter()
        .map(|profile| {
            let original_capacity = profile.cache_capacity_bytes;
            let scaled = BrowserProfile {
                cache_capacity_bytes: (profile.cache_capacity_bytes / scale).max(10_000),
                ..profile
            };
            let junk_size = 2_048usize;
            let junk_count = (scaled.cache_capacity_bytes as usize / junk_size) + 8;

            let mut victim_site = StaticOrigin::new("bank.example");
            victim_site.put_text(
                "/app.js",
                ResourceKind::JavaScript,
                "function bank(){}",
                "public, max-age=86400",
            );
            let mut net = Internet::new();
            net.register_origin(victim_site);
            net.register_origin(junk_origin(junk_size, junk_count));

            let mut browser = Browser::new(scaled, Box::new(net));
            let target = Url::parse("http://bank.example/app.js").expect("static url");
            browser.fetch(&target, "bank.example");
            let mut report = EvictionAttack::new(junk_size, junk_count).run(&mut browser, &[target]);
            report.cache_capacity_bytes = original_capacity;
            report
        })
        .collect();
    Ok(Table1Result { rows })
}

// ---------------------------------------------------------------------------
// Table II — TCP injection matrix
// ---------------------------------------------------------------------------

/// One cell of the Table II matrix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InjectionCell {
    /// Injection succeeded.
    Success,
    /// Injection failed.
    Failure,
    /// The browser does not ship on this OS.
    NotApplicable,
}

impl ToJson for InjectionCell {
    fn to_json(&self) -> Json {
        Json::Str(
            match self {
                InjectionCell::Success => "success",
                InjectionCell::Failure => "failure",
                InjectionCell::NotApplicable => "n/a",
            }
            .to_string(),
        )
    }
}

/// Result of the Table II experiment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Table2Result {
    /// Browser column labels.
    pub browsers: Vec<String>,
    /// Matrix rows: OS label plus one cell per browser.
    pub rows: Vec<(String, Vec<InjectionCell>)>,
}

impl Table2Result {
    /// Renders the matrix like Table II.
    pub fn render(&self) -> String {
        let mut out = String::from("Table II - TCP injection evaluation\n");
        out.push_str(&format!("{:<9}", "OS"));
        for browser in &self.browsers {
            out.push_str(&format!(" | {browser:<8}"));
        }
        out.push('\n');
        for (os, cells) in &self.rows {
            out.push_str(&format!("{os:<9}"));
            for cell in cells {
                let symbol = match cell {
                    InjectionCell::Success => "ok",
                    InjectionCell::Failure => "FAIL",
                    InjectionCell::NotApplicable => "n/a",
                };
                out.push_str(&format!(" | {symbol:<8}"));
            }
            out.push('\n');
        }
        out
    }

    /// Returns `true` if no supported combination failed.
    pub fn all_supported_succeed(&self) -> bool {
        self.rows
            .iter()
            .flat_map(|(_, cells)| cells.iter())
            .all(|c| *c != InjectionCell::Failure)
    }
}

impl ToJson for Table2Result {
    fn to_json(&self) -> Json {
        Json::obj([
            ("browsers", self.browsers.to_json()),
            (
                "rows",
                Json::Arr(
                    self.rows
                        .iter()
                        .map(|(os, cells)| {
                            Json::obj([("os", os.to_json()), ("cells", cells.to_json())])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

/// Link/attacker timing for one race world. The paper's Figure 2 numbers are
/// [`RaceTiming::PAPER`]; the heterogeneous campaign draws per-AP variants
/// from seeded distributions (see `ApProfile` in the campaign module).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) struct RaceTiming {
    /// Delay between the master's tap seeing the request and forging the
    /// response, in microseconds.
    pub(super) attacker_reaction_us: u64,
    /// One-way latency of the shared-WiFi access medium, in microseconds.
    pub(super) wifi_latency_us: u64,
    /// One-way WAN latency to the genuine server, in microseconds.
    pub(super) server_one_way_us: u64,
    /// Per-packet jitter bound on the shared WiFi, in microseconds.
    pub(super) jitter_us: u64,
}

impl RaceTiming {
    /// The paper's Figure 2 / Table II timing: 0.3 ms attacker reaction, 2 ms
    /// WiFi hop, 40 ms one-way WAN, no jitter.
    pub(super) const PAPER: RaceTiming = RaceTiming {
        attacker_reaction_us: 300,
        wifi_latency_us: 2_000,
        server_one_way_us: 40_000,
        jitter_us: 0,
    };
}

/// Classifies what a victim received: did it end up with the parasite?
///
/// A race world knows the two responses a victim can get, the master's forged
/// one and the genuine one, so their verdicts are computed once and a stream
/// that starts with one of those wires gets its verdict. This is exact:
/// `Response::from_wire` frames the body by `Content-Length` and ignores
/// trailing bytes, so a stream that starts with a complete, exactly framed
/// message parses as that message whatever follows it (a losing master's
/// tail behind the genuine response, say). Any other stream takes the full
/// parse.
struct Verdicts {
    known: Vec<(Bytes, bool)>,
}

impl Verdicts {
    /// Registers every wire that parses and whose `Content-Length` counts
    /// every byte after its head, with the verdict of the full parse.
    fn new(wires: impl IntoIterator<Item = Bytes>) -> Verdicts {
        let framed = |wire: Bytes| {
            let response = Response::from_wire(&wire).ok()?;
            let head = wire.windows(4).position(|w| w == b"\r\n\r\n")?;
            let length = response.headers.get(names::CONTENT_LENGTH)?.parse::<usize>().ok()?;
            let infected = Parasite::detect(&response.body.as_text()).is_some();
            (length == wire.len() - head - 4).then_some((wire, infected))
        };
        Verdicts { known: wires.into_iter().filter_map(framed).collect() }
    }

    /// Whether the victim that received `delivered` ended up with the
    /// parasite.
    fn infected(&self, delivered: &[u8]) -> bool {
        match self.known.iter().find(|(wire, _)| delivered.starts_with(wire)) {
            Some(&(_, infected)) => infected,
            None => parse_verdict(delivered),
        }
    }
}

/// The full classification: parse the stream as an HTTP response and scan
/// its body for the parasite.
fn parse_verdict(delivered: &[u8]) -> bool {
    Response::from_wire(delivered).is_ok_and(|r| Parasite::detect(&r.body.as_text()).is_some())
}

/// The paper's race world before any victims are attached: a shared-WiFi
/// access network with the master's tap on it, and the genuine server for
/// `somesite.com/my.js` across the WAN. [`RaceWorld::race`] attaches the
/// victims of Table II, the campaign fleet and the attack-surface sweep;
/// [`run_race_simulation`] attaches the single traced victim of Figure 2.
pub(super) struct RaceWorld {
    /// The simulator with media, server, responder and tap wired up.
    pub(super) sim: Simulator,
    /// The shared-WiFi medium victims attach to.
    wifi: mp_netsim::link::MediumId,
    /// The genuine server (listening on port 80).
    server: mp_netsim::endpoint::HostId,
    /// The requests for the target object and for `somesite.com/weather.js`,
    /// which the master has not prepared, each encoded once per world.
    requests: [Bytes; 2],
    /// Verdicts of the forged and the genuine response.
    verdicts: Verdicts,
}

impl RaceWorld {
    /// Attaches `victims` clients to the shared WiFi (client `i` at
    /// `10.(i >> 8).(i & 0xff).2`, asking for the unprepared object if
    /// `unprepared(i)`), runs the world to idle and returns, per client,
    /// whether it ended up with the parasite.
    pub(super) fn race(
        &mut self,
        victims: usize,
        unprepared: impl Fn(usize) -> bool,
    ) -> Result<Vec<bool>, NetError> {
        let mut connections = Vec::with_capacity(victims);
        for index in 0..victims {
            let ip = IpAddr::new(10, (index >> 8) as u8, (index & 0xff) as u8, 2);
            let client = self.sim.add_host("client", ip, self.wifi);
            let conn = self.sim.connect(client, self.server, 80)?;
            let request = self.requests[usize::from(unprepared(index))].clone();
            self.sim.send_bytes(client, conn, request)?;
            connections.push((client, conn));
        }
        self.sim.run_until_idle()?;
        Ok(connections
            .into_iter()
            .map(|(client, conn)| self.verdicts.infected(self.sim.host(client).received(conn)))
            .collect())
    }
}

/// Builds the race world under the given [`RaceTiming`], with at most
/// `event_budget` simulator events, the given trace recorder mode, and an
/// optional cross-simulator [`SharedBudget`] every processed event also
/// debits.
pub(super) fn build_race_world(
    seed: u64,
    timing: &RaceTiming,
    event_budget: u64,
    trace_mode: TraceMode,
    shared: Option<&SharedBudget>,
) -> RaceWorld {
    let master = Master::new(MASTER_HOST);
    let target = Url::parse("http://somesite.com/my.js").expect("static url");
    let other = Url::parse("http://somesite.com/weather.js").expect("static url");
    let genuine = Response::ok(Body::text(ResourceKind::JavaScript, "function genuine(){}"))
        .with_cache_control("public, max-age=86400");
    let (tap, _stats) = master.packet_tap(
        &[(target.clone(), genuine.clone())],
        SimDuration::from_micros(timing.attacker_reaction_us),
    );
    let forged = tap.prepared_wire(&target).expect("the target was just prepared").clone();
    let genuine = Bytes::from(genuine.to_wire());

    let mut sim = Simulator::new(seed)
        .with_event_budget(event_budget)
        .with_trace_mode(trace_mode);
    if let Some(shared) = shared {
        sim.set_shared_budget(shared.clone());
    }
    let wifi = sim.add_medium(MediumKind::SharedWireless, timing.wifi_latency_us);
    let wan = sim.add_medium(MediumKind::WideArea, timing.server_one_way_us);
    let server = sim.add_host("server", IpAddr::new(203, 0, 113, 10), wan);
    sim.listen(server, 80);
    sim.set_service(
        server,
        Box::new(FixedResponder::new(genuine.clone(), SimDuration::from_micros(500))),
    );
    sim.add_tap(wifi, Box::new(tap));
    if timing.jitter_us > 0 {
        sim.set_medium_jitter(wifi, SimDuration::from_micros(timing.jitter_us));
    }

    RaceWorld {
        sim,
        wifi,
        server,
        requests: [target, other].map(|url| Bytes::from(Request::get(url).to_wire())),
        verdicts: Verdicts::new([forged, genuine]),
    }
}

/// Builds and runs the paper's injection race with one victim on the shared
/// WiFi of [`build_race_world`] requesting the target object, and returns the
/// simulator so the Figure 2 flow can read its packet trace.
///
/// # Errors
///
/// Returns [`NetError::EventBudgetExhausted`] if the budget runs out.
pub(super) fn run_race_simulation(
    seed: u64,
    event_budget: u64,
    trace_mode: TraceMode,
    shared: Option<&SharedBudget>,
) -> Result<Simulator, NetError> {
    let RaceWorld {
        mut sim,
        wifi,
        server,
        requests: [request, _],
        ..
    } = build_race_world(seed, &RaceTiming::PAPER, event_budget, trace_mode, shared);
    let victim = sim.add_host("victim", IpAddr::new(10, 0, 0, 2), wifi);
    let conn = sim.connect(victim, server, 80).expect("hosts exist");
    sim.send_bytes(victim, conn, request).expect("connection exists");
    sim.run_until_idle()?;
    Ok(sim)
}

/// One packet-level injection race; returns `true` if the victim ends up
/// with the parasite.
fn injection_race(
    seed: u64,
    timing: &RaceTiming,
    event_budget: u64,
    trace_mode: TraceMode,
    shared: Option<&SharedBudget>,
) -> Result<bool, NetError> {
    let mut world = build_race_world(seed, timing, event_budget, trace_mode, shared);
    Ok(world.race(1, |_| false)?[0])
}

/// Runs one packet-level injection race with the paper's standard timing
/// (0.3 ms attacker reaction, 40 ms one-way WAN) and reports whether the
/// victim ended up with the parasite.
pub fn run_injection_race(seed: u64) -> bool {
    injection_race(seed, &RaceTiming::PAPER, DEFAULT_EVENT_BUDGET, TraceMode::SummaryOnly, None)
        .expect("the standard race stays far within the default event budget")
}

/// Parametric variant of the injection race: the attacker reacts after
/// `attacker_reaction_us` and the genuine server sits `server_one_way_us`
/// away (one-way WAN latency). Returns `true` if the victim ends up with the
/// parasite. Used by the race-crossover ablation: the attack only works while
/// the spoofed response beats the genuine one to the victim.
pub fn injection_race_with_timing(attacker_reaction_us: u64, server_one_way_us: u64) -> bool {
    let timing = RaceTiming { attacker_reaction_us, server_one_way_us, ..RaceTiming::PAPER };
    injection_race(1234, &timing, DEFAULT_EVENT_BUDGET, TraceMode::SummaryOnly, None)
        .expect("the parametric race stays far within the default event budget")
}

/// Runs the Table II OS × browser injection matrix.
pub(super) fn table2_injection_matrix(
    config: &RunConfig,
    ctx: &RunCtx,
) -> Result<Table2Result, ExperimentError> {
    let shared = ctx.budget_for(config);
    let browsers = BrowserProfile::table2_browsers();
    let browser_names = browsers.iter().map(|b| b.kind.to_string()).collect();
    let mut rows = Vec::new();
    for (os_index, os) in OperatingSystem::ALL.iter().enumerate() {
        let mut cells = Vec::new();
        for (browser_index, browser) in browsers.iter().enumerate() {
            if !browser.runs_on(*os) {
                cells.push(InjectionCell::NotApplicable);
                continue;
            }
            // TCP injection does not depend on the browser or OS (both follow
            // the TCP specification); run the race to confirm it.
            let seed = config.seed.wrapping_add((os_index * 16 + browser_index) as u64 + 1);
            if injection_race(seed, &RaceTiming::PAPER, config.event_budget, config.trace_mode, shared.as_ref())? {
                cells.push(InjectionCell::Success);
            } else {
                cells.push(InjectionCell::Failure);
            }
        }
        rows.push((os.to_string(), cells));
    }
    Ok(Table2Result {
        browsers: browser_names,
        rows,
    })
}

// ---------------------------------------------------------------------------
// Table III — refresh methods vs Cache-API parasites
// ---------------------------------------------------------------------------

/// The user actions evaluated in Table III.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RefreshMethod {
    /// Ctrl-F5 hard reload.
    HardReload,
    /// Clear the HTTP cache.
    ClearCache,
    /// Clear cookies / site data.
    ClearCookies,
}

impl std::fmt::Display for RefreshMethod {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            RefreshMethod::HardReload => "Ctrl+F5",
            RefreshMethod::ClearCache => "clear cache",
            RefreshMethod::ClearCookies => "clear cookies",
        };
        f.write_str(name)
    }
}

/// One cell of Table III: did the refresh method remove the parasite?
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RemovalCell {
    /// The parasite was removed.
    Removed,
    /// The parasite survived.
    Survived,
    /// The browser has no Cache API (IE).
    NotApplicable,
}

impl ToJson for RemovalCell {
    fn to_json(&self) -> Json {
        Json::Str(
            match self {
                RemovalCell::Removed => "removed",
                RemovalCell::Survived => "survived",
                RemovalCell::NotApplicable => "n/a",
            }
            .to_string(),
        )
    }
}

/// Result of the Table III experiment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Table3Result {
    /// Rows: browser name plus one cell per refresh method
    /// (Ctrl-F5, clear cache, clear cookies).
    pub rows: Vec<(String, Vec<RemovalCell>)>,
}

impl Table3Result {
    /// Renders rows shaped like Table III.
    pub fn render(&self) -> String {
        let mut out = String::from("Table III - refresh methods vs Cache-API parasites\n");
        out.push_str("browser              | Ctrl+F5   | clear cache | clear cookies\n");
        for (browser, cells) in &self.rows {
            let text: Vec<&str> = cells
                .iter()
                .map(|c| match c {
                    RemovalCell::Removed => "removed",
                    RemovalCell::Survived => "stays",
                    RemovalCell::NotApplicable => "n/a",
                })
                .collect();
            out.push_str(&format!(
                "{:<20} | {:<9} | {:<11} | {}\n",
                browser, text[0], text[1], text[2]
            ));
        }
        out
    }
}

impl ToJson for Table3Result {
    fn to_json(&self) -> Json {
        Json::obj([(
            "rows",
            Json::Arr(
                self.rows
                    .iter()
                    .map(|(browser, cells)| {
                        Json::obj([
                            ("browser", browser.to_json()),
                            ("hard_reload", cells[0].to_json()),
                            ("clear_cache", cells[1].to_json()),
                            ("clear_cookies", cells[2].to_json()),
                        ])
                    })
                    .collect(),
            ),
        )])
    }
}

fn parasite_survives_after(profile: BrowserProfile, method: RefreshMethod) -> RemovalCell {
    if !profile.cache_api_supported {
        return RemovalCell::NotApplicable;
    }
    let infector = standard_infector();
    let target = Url::parse("http://top1.com/persistent.js").expect("static url");

    let mut origin = StaticOrigin::new("top1.com");
    origin.put_text("/persistent.js", ResourceKind::JavaScript, "function lib(){}", "public, max-age=86400");
    let mut browser = Browser::new(profile, Box::new(origin));

    // The parasite stored an infected copy through the Cache API.
    let infected = infector.infect_response(
        &Response::ok(Body::text(ResourceKind::JavaScript, "function lib(){}"))
            .with_cache_control("public, max-age=86400"),
    );
    browser
        .cache_api_mut()
        .put(&target.origin().to_string(), "parasite", &target, infected);

    match method {
        RefreshMethod::HardReload => {
            browser.hard_reload(&target);
        }
        RefreshMethod::ClearCache => {
            browser.clear_http_cache();
        }
        RefreshMethod::ClearCookies => {
            browser.clear_cookies_and_site_data();
        }
    }

    let result = browser.fetch(&target, "top1.com");
    let survives = result.source == FetchSource::CacheApi
        && infector.is_infected(&result.response.body.as_text());
    if survives {
        RemovalCell::Survived
    } else {
        RemovalCell::Removed
    }
}

/// Runs the Table III experiment over the paper's browser set.
pub(super) fn table3_refresh_methods(
    _config: &RunConfig,
    _ctx: &RunCtx,
) -> Result<Table3Result, ExperimentError> {
    let browsers = vec![
        BrowserProfile::chrome(),
        BrowserProfile::firefox(),
        BrowserProfile::edge(),
        BrowserProfile::opera(),
        BrowserProfile::internet_explorer(),
    ];
    let rows = browsers
        .into_iter()
        .map(|profile| {
            let name = profile.kind.to_string();
            let cells = vec![
                parasite_survives_after(profile.clone(), RefreshMethod::HardReload),
                parasite_survives_after(profile.clone(), RefreshMethod::ClearCache),
                parasite_survives_after(profile, RefreshMethod::ClearCookies),
            ];
            (name, cells)
        })
        .collect();
    Ok(Table3Result { rows })
}

// ---------------------------------------------------------------------------
// Table IV — caches in the wild
// ---------------------------------------------------------------------------

/// One evaluated cache row.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Table4Row {
    /// Location section.
    pub location: String,
    /// Product class.
    pub class: String,
    /// Instance name.
    pub name: String,
    /// Whether the infection persisted for a second client over HTTP.
    pub infected_over_http: bool,
    /// Whether the infection persisted for a second client over HTTPS
    /// (assuming the deployment makes HTTPS visible to the cache).
    pub infected_over_https: bool,
    /// Comment from the taxonomy.
    pub comment: Option<String>,
}

impl ToJson for Table4Row {
    fn to_json(&self) -> Json {
        Json::obj([
            ("location", self.location.to_json()),
            ("class", self.class.to_json()),
            ("name", self.name.to_json()),
            ("infected_over_http", self.infected_over_http.to_json()),
            ("infected_over_https", self.infected_over_https.to_json()),
            ("comment", self.comment.to_json()),
        ])
    }
}

/// Result of the Table IV experiment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Table4Result {
    /// Rows in the paper's order.
    pub rows: Vec<Table4Row>,
}

impl Table4Result {
    /// Renders rows shaped like Table IV.
    pub fn render(&self) -> String {
        let mut out = String::from("Table IV - caches in the wild (infection persists for a second client?)\n");
        out.push_str(&format!("{:<28} {:<26} {:<34} | http | https\n", "location", "type", "instance"));
        for row in &self.rows {
            out.push_str(&format!(
                "{:<28} {:<26} {:<34} | {:<4} | {}\n",
                row.location,
                row.class,
                row.name,
                if row.infected_over_http { "yes" } else { "no" },
                if row.infected_over_https { "yes" } else { "no" }
            ));
        }
        out
    }
}

impl ToJson for Table4Result {
    fn to_json(&self) -> Json {
        Json::obj([("rows", self.rows.to_json())])
    }
}

fn shared_cache_infection(instance: mp_webcache::CacheInstance, https: bool) -> bool {
    let scheme = if https { Scheme::Https } else { Scheme::Http };
    let host = "top1.com";
    let mut origin = StaticOrigin::new(host);
    origin.put_text("/persistent.js", ResourceKind::JavaScript, "function lib(){}", "public, max-age=86400");

    let infector = standard_infector();
    let mut injecting = crate::injection::InjectingExchange::new(origin, infector.clone());
    let target = Url::from_parts(scheme, host, "/persistent.js");
    injecting.add_target(&target);
    if https {
        // The target site's HTTPS deployment is broken enough to inject
        // (otherwise the transport question is moot for every cache class).
        injecting
            .injectability_mut()
            .set(host, mp_httpsim::tls::TlsDeployment::legacy_ssl(mp_httpsim::tls::TlsVersion::Ssl3));
    }

    // The cache sees HTTPS if the deployment includes interception/offload.
    let mut cache = SharedCache::new(instance, injecting, true);

    // Victim A (on the hostile path) pulls the object through the cache.
    let _ = cache.exchange(&Request::get(target.clone()));
    // The attacker goes away; victim B fetches through the same cache.
    let second = cache.exchange(&Request::get(target.clone()));
    infector.is_infected(&second.body.as_text()) && cache.peek(&target).is_some()
}

/// Runs the Table IV experiment over every taxonomy row.
pub(super) fn table4_caches(
    _config: &RunConfig,
    _ctx: &RunCtx,
) -> Result<Table4Result, ExperimentError> {
    let rows = table4_entries()
        .into_iter()
        .map(|instance| {
            // Browser caches are per-client; the "second client" question only
            // applies to shared caches, so browser rows reuse the Table III
            // persistence result (the parasite persists in the client cache).
            let (http, https) = if !instance.shared_between_clients() {
                (instance.http.possible(), instance.https.possible())
            } else {
                (
                    instance.http.possible() && shared_cache_infection(instance.clone(), false),
                    instance.https.possible() && shared_cache_infection(instance.clone(), true),
                )
            };
            Table4Row {
                location: instance.location.to_string(),
                class: instance.class.to_string(),
                name: instance.name.clone(),
                infected_over_http: http,
                infected_over_https: https,
                comment: instance.comment.clone(),
            }
        })
        .collect();
    Ok(Table4Result { rows })
}

// ---------------------------------------------------------------------------
// Table V — application attacks
// ---------------------------------------------------------------------------

/// Result of the Table V experiment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Table5Result {
    /// One report per attack row exercised.
    pub reports: Vec<AttackReport>,
}

impl Table5Result {
    /// Renders rows shaped like Table V.
    pub fn render(&self) -> String {
        let mut out = String::from("Table V - attacks against applications\n");
        out.push_str(&format!("{:<45} {:<16} {:<10} {}\n", "attack", "property", "succeeded", "target"));
        for report in &self.reports {
            let property = match report.property {
                attacks::SecurityProperty::Confidentiality => "C",
                attacks::SecurityProperty::Integrity => "I",
                attacks::SecurityProperty::Availability => "A",
            };
            out.push_str(&format!(
                "{:<45} {:<16} {:<10} {}\n",
                report.name,
                property,
                if report.succeeded { "yes" } else { "no" },
                report.target
            ));
        }
        out
    }

    /// Number of successful attacks.
    pub fn successes(&self) -> usize {
        self.reports.iter().filter(|r| r.succeeded).count()
    }
}

impl ToJson for AttackReport {
    fn to_json(&self) -> Json {
        Json::obj([
            ("name", self.name.to_json()),
            (
                "property",
                Json::Str(
                    match self.property {
                        attacks::SecurityProperty::Confidentiality => "confidentiality",
                        attacks::SecurityProperty::Integrity => "integrity",
                        attacks::SecurityProperty::Availability => "availability",
                    }
                    .to_string(),
                ),
            ),
            ("target", self.target.to_json()),
            ("succeeded", self.succeeded.to_json()),
            ("requirements_met", self.requirements_met.to_json()),
            ("evidence", self.evidence.to_json()),
        ])
    }
}

impl ToJson for Table5Result {
    fn to_json(&self) -> Json {
        Json::obj([
            ("reports", self.reports.to_json()),
            ("successes", self.successes().to_json()),
        ])
    }
}

/// Runs every Table V attack module against the simulated applications.
pub(super) fn table5_attacks(
    _config: &RunConfig,
    _ctx: &RunCtx,
) -> Result<Table5Result, ExperimentError> {
    let mut reports = Vec::new();
    let mut cnc = CncServer::new(MASTER_HOST);

    // --- Steal login data + fake login overlay (banking).
    let mut bank = BankingApp::default();
    let (mut login_dom, login_form) = bank.login_dom();
    let user = login_dom.by_name("username").expect("login form").id;
    let pass = login_dom.by_name("password").expect("login form").id;
    login_dom.set_attr(user, "value", "alice");
    login_dom.set_attr(pass, "value", "correct-horse");
    let submission = login_dom.submit_form(login_form).expect("form exists");
    let session = bank.login(&submission).expect("credentials are valid");
    reports.push(attacks::steal_login_data(&login_dom, &mut cnc, "campaign-0"));
    let mut overlay_dom = login_dom.clone();
    reports.push(attacks::fake_login_overlay(&mut overlay_dom));

    // --- Browser data.
    let mut browser = Browser::new(BrowserProfile::chrome(), Box::new(Internet::new()));
    let bank_page = Url::parse("https://bank.example/account").expect("static url");
    browser.cookies_mut().set_from_header("session=bank-cookie", &bank_page, 0);
    browser
        .storage_mut()
        .set_item(&bank_page.origin().to_string(), "last_login", "2021-05-17");
    reports.push(attacks::read_browser_data(&browser, &bank_page, &mut cnc, "campaign-0"));

    // --- Personal browser data (domain already has microphone permission).
    reports.push(attacks::capture_personal_data(true, &bank_page));

    // --- Website data (webmail inbox) + phishing.
    let mut mail = WebMailApp::default();
    let (mut mail_dom, mail_form) = mail.login_dom();
    let email = mail_dom.by_name("email").expect("login form").id;
    let password = mail_dom.by_name("password").expect("login form").id;
    mail_dom.set_attr(email, "value", "alice@mail.example");
    mail_dom.set_attr(password, "value", "mail-pass-123");
    let mail_session = mail.login(&mail_dom.submit_form(mail_form).expect("form")).expect("valid");
    let inbox = mail.inbox_dom(&mail_session).expect("session valid");
    reports.push(attacks::read_website_data(&inbox, &mut cnc, "campaign-0"));
    reports.push(attacks::cross_tab_side_channel(&mut cnc, "campaign-0", b"tab-sync"));
    reports.push(attacks::send_phishing_via_webmail(&mut mail, &mail_session, true));

    // --- 2FA bypass / transaction manipulation.
    reports.push(attacks::manipulate_bank_transfer(
        &mut bank,
        &session,
        "FR76 3000 6000 0112 3456 7890 189",
        "GB29 ATTACKER 0000 0000 0000 00",
        "480.00",
    ));

    // --- Resource theft, clickjacking, ad injection, DDoS.
    reports.push(attacks::steal_computation(10_000));
    let mut page_dom = mp_browser::dom::Dom::new(Url::parse("http://news.example/").expect("static url"));
    reports.push(attacks::clickjacking(&mut page_dom, "news.example"));
    reports.push(attacks::ad_injection(&mut page_dom, 4));
    reports.push(attacks::browser_ddos(250, 40, "victim-service.example"));

    // --- OS-level exploits (delivered by the parasite, platform dependent).
    reports.push(attacks::low_level_exploit("JS CPU Cache & Spectre", true));
    reports.push(attacks::low_level_exploit("Rowhammer", true));
    reports.push(attacks::low_level_exploit("0-day on Demand", true));

    // --- Victim network.
    reports.push(attacks::internal_network_recon(&[
        ("192.168.0.1 (router, default credentials)", true),
        ("192.168.0.23 (ip camera)", true),
        ("192.168.0.99 (printer)", false),
    ]));
    reports.push(attacks::browser_ddos(250, 40, "192.168.0.1"));

    Ok(Table5Result { reports })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mp_netsim::endpoint::HostId;
    use proptest::prelude::*;

    fn paper_world() -> RaceWorld {
        build_race_world(1, &RaceTiming::PAPER, DEFAULT_EVENT_BUDGET, TraceMode::SummaryOnly, None)
    }

    /// The forged and the genuine wire of the paper's race world.
    fn known_wires() -> (Bytes, Bytes) {
        let world = paper_world();
        (world.verdicts.known[0].0.clone(), world.verdicts.known[1].0.clone())
    }

    #[test]
    fn both_race_responses_are_registered_with_their_full_parse_verdicts() {
        let world = paper_world();
        let known = &world.verdicts.known;
        assert_eq!(known.len(), 2, "the forged and the genuine wire are exactly framed");
        assert!(known[0].1 && parse_verdict(&known[0].0), "the forged wire carries the parasite");
        assert!(!known[1].1 && !parse_verdict(&known[1].0), "the genuine wire does not");
    }

    #[test]
    fn prefix_verdict_equals_the_full_parse_at_every_cut_and_behind_every_tail() {
        let (forged, genuine) = known_wires();
        let verdicts = Verdicts::new([forged.clone(), genuine.clone()]);
        for wire in [&forged, &genuine] {
            for cut in 0..=wire.len() {
                assert_eq!(verdicts.infected(&wire[..cut]), parse_verdict(&wire[..cut]), "cut {cut}");
            }
        }
        // Each wire followed by any tail of the other: the bytes a losing
        // racer's late segments can leave behind the winner.
        for (first, second) in [(&forged, &genuine), (&genuine, &forged)] {
            for from in 0..=second.len() {
                let stream = [&first[..], &second[from..]].concat();
                assert_eq!(verdicts.infected(&stream), parse_verdict(&stream), "tail from {from}");
                assert_eq!(verdicts.infected(&stream), verdicts.infected(first));
            }
        }
    }

    #[test]
    fn wires_without_exact_framing_are_never_registered() {
        let (forged, _) = known_wires();
        let body = "function genuine(){}";
        let head = "HTTP/1.1 200 OK\r\ncontent-type: application/javascript\r\n";
        let framed = |length: &str| Bytes::from(format!("{head}{length}\r\n{body}"));
        let unframed = framed("");
        let too_long = framed(&format!("content-length: {}\r\n", body.len() + forged.len()));
        let too_short = framed("content-length: 5\r\n");
        let not_a_number = framed("content-length: twenty\r\n");
        let exact = framed(&format!("content-length: {}\r\n", body.len()));
        for wire in [&unframed, &too_long, &too_short, &not_a_number, &Bytes::from_static(b"garbage")] {
            assert!(Verdicts::new([wire.clone()]).known.is_empty(), "{wire:?}");
        }
        assert_eq!(Verdicts::new([exact]).known.len(), 1);
        // Why: without exact framing the parse reads past the wire, so what
        // follows it decides the verdict.
        for wire in [&unframed, &too_long] {
            let stream = [&wire[..], &forged[..]].concat();
            assert!(!parse_verdict(wire) && parse_verdict(&stream));
            assert!(Verdicts::new([wire.clone()]).infected(&stream));
        }
    }

    #[test]
    fn mixed_streams_at_the_race_cliff_classify_like_the_full_parse() {
        // Without jitter the master wins iff its reaction beats
        // 2·wan + 500 µs: 10.5 ms at a 5 ms WAN. Up to 2 ms of WiFi jitter
        // lands on the genuine path's extra WiFi hop, spreading the cliff
        // over 10.5–12.5 ms; a 12 ms reaction scatters victims to both sides.
        let timing = RaceTiming {
            attacker_reaction_us: 12_000,
            server_one_way_us: 5_000,
            jitter_us: 2_000,
            ..RaceTiming::PAPER
        };
        let mut world = build_race_world(7, &timing, DEFAULT_EVENT_BUDGET, TraceMode::SummaryOnly, None);
        let verdicts = world.race(256, |_| false).expect("within the event budget");
        let mut longer_than_known = 0;
        for (index, &verdict) in verdicts.iter().enumerate() {
            // The server is host 0; victims follow in order.
            let client = HostId(index as u64 + 1);
            let conn = world.sim.connections(client)[0];
            let delivered = world.sim.host(client).received(conn);
            assert_eq!(verdict, parse_verdict(delivered), "victim {index}");
            longer_than_known += usize::from(
                world.verdicts.known.iter().any(|(wire, _)| delivered.len() > wire.len() && delivered.starts_with(wire)),
            );
        }
        assert!(verdicts.contains(&true) && verdicts.contains(&false), "both outcomes occur");
        assert!(longer_than_known > 0, "some stream trails a complete wire with more bytes");
    }

    proptest! {
        #[test]
        fn prefix_verdict_equals_the_full_parse_on_arbitrary_streams(
            start in 0usize..3,
            cut in any::<usize>(),
            suffix in proptest::collection::vec(any::<u8>(), 0..512),
        ) {
            let (forged, genuine) = known_wires();
            let verdicts = Verdicts::new([forged.clone(), genuine.clone()]);
            // A cut of the forged wire, of the genuine wire, or nothing,
            // followed by arbitrary bytes.
            let prefix: &[u8] = match start {
                0 => &forged,
                1 => &genuine,
                _ => &[],
            };
            let stream = [&prefix[..cut % (prefix.len() + 1)], &suffix[..]].concat();
            prop_assert_eq!(verdicts.infected(&stream), parse_verdict(&stream));
            let whole = [prefix, &suffix[..]].concat();
            prop_assert_eq!(verdicts.infected(&whole), parse_verdict(&whole));
        }
    }
}
