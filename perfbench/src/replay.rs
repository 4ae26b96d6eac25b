//! Outside-in replay of the race worlds the campaign and the attack-surface
//! sweep simulate, built only from the program's public calls so every layer
//! boundary can carry a span:
//!
//! * `Master::new` + `Master::packet_tap` with the Fig. 2 timing;
//! * `Simulator` `new` … `add_tap` (world build), `add_host`/`connect`/`send`
//!   (client setup), `run_until_idle` and `received`;
//! * `Request::get(..).to_wire()`, `Response::from_wire` + `Body::as_text`
//!   and `Parasite::detect`.
//!
//! The replay must reproduce the program's own counts exactly (day-1 events
//! and infections of the campaign, per-cell race wins and total events of the
//! grid). A mismatch means the replay no longer measures what the program
//! runs, and the traced run fails.

use crate::metrics::median;
use crate::trace::{SpanTotals, Tracer};
use crate::Run;
use mp_httpsim::body::{Body, ResourceKind};
use mp_httpsim::message::{Request, Response};
use mp_httpsim::url::Url;
use mp_netsim::addr::IpAddr;
use mp_netsim::capture::TraceMode;
use mp_netsim::link::MediumKind;
use mp_netsim::sim::{FixedResponder, Simulator};
use mp_netsim::time::Duration as SimDuration;
use parasite::experiments::{RunConfig, MASTER_HOST};
use parasite::{Master, Parasite};
use std::collections::BTreeMap;

/// Seed-stream tag of the campaign's per-day streams (`experiments::multiday`).
const DAY_TAG: u64 = 0xda75_0000_0000_0000;
/// Seed-stream tag of the attack-surface cells (`experiments::surface`).
const SURFACE_TAG: u64 = 0x5caf_ace0_0000_0000;

/// The program's SplitMix64 seed derivation (`experiments::campaign`).
pub fn mix_seed(seed: u64, index: u64) -> u64 {
    let mut z = seed.wrapping_add(index.wrapping_mul(0x9e3779b97f4a7c15));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

/// The surface sweep's cell index packing (`experiments::surface`).
fn cell_tag(vector: usize, delay: usize, wan: usize, jitter: usize) -> u64 {
    ((vector as u64) << 48) | ((delay as u64) << 32) | ((wan as u64) << 16) | jitter as u64
}

/// Link and master timing of one race world, in microseconds.
struct Timing {
    reaction_us: u64,
    wifi_us: u64,
    wan_us: u64,
}

/// The paper's Fig. 2 timing: 0.3 ms reaction, 2 ms WiFi hop, 40 ms WAN.
const PAPER: Timing = Timing {
    reaction_us: 300,
    wifi_us: 2_000,
    wan_us: 40_000,
};

/// Exact counts of a replay; equal inputs must give equal counts.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Counts {
    pub events: u64,
    pub encode_calls: u64,
    /// Encode calls whose URL was already encoded in the same world.
    pub encode_reused: u64,
    pub classified: u64,
    pub detect_calls: u64,
    pub infected: u64,
}

/// Builds one race world, attaches one client per entry of `unprepared`
/// (`true` asks for an object the master has not prepared), runs it to idle
/// and classifies what every client received. Returns the per-client wins.
fn replay_world(
    tr: &mut Tracer,
    seed: u64,
    timing: &Timing,
    jitter_us: u64,
    event_budget: u64,
    unprepared: &[bool],
    counts: &mut Counts,
) -> Result<Vec<bool>, String> {
    let world = tr.enter("replay.world");
    let span = tr.enter("master.packet_tap");
    let master = Master::new(MASTER_HOST);
    let target = Url::parse("http://somesite.com/my.js").expect("static url");
    let genuine = Response::ok(Body::text(ResourceKind::JavaScript, "function genuine(){}"))
        .with_cache_control("public, max-age=86400");
    let (tap, _stats) = master.packet_tap(
        &[(target.clone(), genuine.clone())],
        SimDuration::from_micros(timing.reaction_us),
    );
    tr.exit(span);

    let span = tr.enter("netsim.world_build");
    let mut sim = Simulator::new(seed)
        .with_event_budget(event_budget)
        .with_trace_mode(TraceMode::SummaryOnly);
    let wifi = sim.add_medium(MediumKind::SharedWireless, timing.wifi_us);
    let wan = sim.add_medium(MediumKind::WideArea, timing.wan_us);
    let server = sim.add_host("server", IpAddr::new(203, 0, 113, 10), wan);
    sim.listen(server, 80);
    sim.set_service(
        server,
        Box::new(FixedResponder::new(
            genuine.to_wire(),
            SimDuration::from_micros(500),
        )),
    );
    sim.add_tap(wifi, Box::new(tap));
    if jitter_us > 0 {
        sim.set_medium_jitter(wifi, SimDuration::from_micros(jitter_us));
    }
    tr.exit(span);

    let other = Url::parse("http://somesite.com/weather.js").expect("static url");
    let mut connections = Vec::with_capacity(unprepared.len());
    for (index, &asks_other) in unprepared.iter().enumerate() {
        let span = tr.enter("netsim.client_setup");
        let ip = IpAddr::new(10, (index >> 8) as u8, (index & 0xff) as u8, 2);
        let client = sim.add_host("client", ip, wifi);
        let conn = sim.connect(client, server, 80).map_err(|e| e.to_string())?;
        let url = if asks_other { &other } else { &target };
        let encode = tr.enter("httpsim.encode");
        let wire = Request::get(url.clone()).to_wire();
        tr.exit(encode);
        sim.send(client, conn, &wire).map_err(|e| e.to_string())?;
        tr.exit(span);
        connections.push((client, conn));
    }
    let distinct_urls = [false, true]
        .iter()
        .filter(|&&u| unprepared.contains(&u))
        .count();
    counts.encode_calls += unprepared.len() as u64;
    counts.encode_reused += (unprepared.len() - distinct_urls) as u64;

    let span = tr.enter("netsim.run");
    sim.run_until_idle().map_err(|e| e.to_string())?;
    tr.exit(span);

    let mut wins = Vec::with_capacity(connections.len());
    for (client, conn) in connections {
        let delivered = sim.received(client, conn);
        let parse = tr.enter("httpsim.parse");
        let text = Response::from_wire(&delivered)
            .ok()
            .map(|r| r.body.as_text());
        tr.exit(parse);
        let won = match text {
            Some(text) => {
                let detect = tr.enter("script.detect");
                let found = Parasite::detect(&text).is_some();
                tr.exit(detect);
                counts.detect_calls += 1;
                found
            }
            None => false,
        };
        counts.classified += 1;
        counts.infected += u64::from(won);
        wins.push(won);
    }
    counts.events += sim.events_processed();
    tr.exit(world);
    Ok(wins)
}

/// Replays day 1 of a multi-day campaign AP by AP: every seat is clean on
/// day 1, so every seat is exposed. Clients are split `clients / aps` per AP
/// with the remainder on the first APs; every eighth global seat asks for
/// `weather.js`, and on a day the target object rotated every seat misses.
pub fn fleet_day1(
    tr: &mut Tracer,
    config: &RunConfig,
    object_rotated: bool,
    counts: &mut Counts,
) -> Result<(), String> {
    if config.fleet_hetero || config.fleet_visit_prob != 1.0 {
        return Err("the day-1 replay covers homogeneous, always-visiting fleets only".into());
    }
    let day_seed = mix_seed(config.seed, DAY_TAG ^ 1);
    let aps = config.fleet_aps.max(1);
    let (base, remainder) = (config.fleet_clients / aps, config.fleet_clients % aps);
    let mut seat = 0usize;
    for ap in 0..aps {
        let clients = base + usize::from(ap < remainder);
        let unprepared: Vec<bool> = (seat..seat + clients)
            .map(|global| object_rotated || global % 8 == 7)
            .collect();
        replay_world(
            tr,
            mix_seed(day_seed, ap as u64),
            &PAPER,
            config.jitter_us,
            config.event_budget,
            &unprepared,
            counts,
        )?;
        seat += clients;
    }
    Ok(())
}

/// Linearly spaced axis, as the surface sweep builds it.
fn axis(start: u64, end: u64, steps: usize) -> Vec<u64> {
    let steps = steps.max(1);
    if steps == 1 || start == end {
        return vec![start];
    }
    (0..steps)
        .map(|i| start + (end - start) * i as u64 / (steps - 1) as u64)
        .collect()
}

/// Replays every cell of the attack-surface grid (all vectors, delays, WAN
/// latencies and jitters) and returns the race wins per cell in the sweep's
/// vector-major, delay, WAN, jitter order.
pub fn surface_grid(
    tr: &mut Tracer,
    config: &RunConfig,
    counts: &mut Counts,
) -> Result<Vec<u64>, String> {
    let vectors = if config.surface_vectors == 0 {
        4
    } else {
        config.surface_vectors.count_ones() as usize
    };
    let delays = axis(
        config.surface_delay_start_us,
        config.surface_delay_end_us,
        config.surface_delay_steps,
    );
    let wans = axis(
        config.surface_wan_start_us,
        config.surface_wan_end_us,
        config.surface_wan_steps,
    );
    let jitters = if config.jitter_us == 0 {
        vec![0]
    } else {
        vec![0, config.jitter_us]
    };
    let clients = vec![false; config.surface_trials];
    let mut wins = Vec::with_capacity(vectors * delays.len() * wans.len() * jitters.len());
    for v in 0..vectors {
        for (d, &delay) in delays.iter().enumerate() {
            for (w, &wan) in wans.iter().enumerate() {
                for (j, &jitter) in jitters.iter().enumerate() {
                    let timing = Timing {
                        reaction_us: delay,
                        wan_us: wan,
                        ..PAPER
                    };
                    let seed = mix_seed(config.seed, SURFACE_TAG ^ cell_tag(v, d, w, j));
                    let cell = replay_world(
                        tr,
                        seed,
                        &timing,
                        jitter,
                        config.event_budget,
                        &clients,
                        counts,
                    )?;
                    wins.push(cell.iter().filter(|&&won| won).count() as u64);
                }
            }
        }
    }
    Ok(wins)
}

/// Sum of the layer spans' self times (everything but the replay's own
/// bookkeeping spans).
pub fn layer_time(totals: &BTreeMap<&'static str, SpanTotals>) -> f64 {
    totals
        .iter()
        .filter(|(name, _)| !name.starts_with("replay."))
        .map(|(_, t)| t.self_s)
        .sum()
}

/// Per-layer metrics shared by the fleet and surface replays: medians over
/// repetitions of each layer's self time, plus the replay's counts.
pub fn set_layer_metrics(
    run: &mut Run,
    reps: &[BTreeMap<&'static str, SpanTotals>],
    counts: &Counts,
) {
    let self_s = |name: &str| -> f64 {
        median(
            &reps
                .iter()
                .map(|t| t.get(name).map_or(0.0, |s| s.self_s))
                .collect::<Vec<_>>(),
        )
    };
    let run_s = self_s("netsim.run");
    run.set("netsim.run_s", run_s);
    run.set("netsim.events", counts.events as f64);
    run.set(
        "netsim.events_per_s",
        if run_s > 0.0 {
            counts.events as f64 / run_s
        } else {
            0.0
        },
    );
    run.set("netsim.client_setup_s", self_s("netsim.client_setup"));
    run.set("netsim.world_build_s", self_s("netsim.world_build"));
    run.set("master.packet_tap_s", self_s("master.packet_tap"));
    run.set("httpsim.encode_s", self_s("httpsim.encode"));
    run.set("httpsim.encode_calls", counts.encode_calls as f64);
    run.set("httpsim.parse_s", self_s("httpsim.parse"));
    run.set(
        "httpsim.url_reuse_share",
        counts.encode_reused as f64 / counts.encode_calls.max(1) as f64,
    );
    run.set("script.detect_s", self_s("script.detect"));
    run.set("script.detect_calls", counts.detect_calls as f64);
    run.set(
        "script.infected_ratio",
        counts.infected as f64 / counts.classified.max(1) as f64,
    );
}

/// Gates one repetition's exact counts (see [`Run::gate`]).
pub fn gate_counts(run: &mut Run, counts: &Counts) {
    run.gate("netsim.events", counts.events);
    run.gate("httpsim.encode_calls", counts.encode_calls);
    run.gate("script.detect_calls", counts.detect_calls);
    run.gate(
        "script.infected_ratio",
        (counts.infected as f64 / counts.classified.max(1) as f64).to_bits(),
    );
}
