//! The population-scale campaign experiment: a fleet of café access points.
//!
//! The paper demonstrates the attack against one victim in one café; its
//! measurements (Figures 3–5) presume the attacker operating a *campaign*
//! over many victims. This experiment scales the Figure 2 packet-level race
//! world to a fleet of café APs — `RunConfig::fleet_clients` simulated clients
//! spread over `RunConfig::fleet_aps` independent shared-WiFi simulations,
//! each with its own master tap racing the genuine server — and aggregates
//! infection outcomes and trace summaries across the fleet.
//!
//! Every per-AP simulator runs with [`TraceMode::SummaryOnly`], so a
//! 100k-client sweep retains **no per-packet memory**: only the bounded
//! summary counters survive each AP. APs run in parallel on scoped worker
//! threads, and an AP that exhausts its event budget is isolated (counted in
//! `failed_aps`) instead of aborting the sweep.

use super::multiday::DayStats;
use super::tables::{build_race_world, RaceTiming};
use super::{parallel_tasks, ExperimentError, RunConfig, RunCtx};
use crate::json::{Json, ToJson};
use mp_netsim::capture::TraceMode;
use mp_netsim::dist::Dist;
use mp_netsim::error::NetError;
use mp_netsim::sim::SharedBudget;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// One AP addresses its clients out of `10.x.y.2`, so a single simulation
/// holds at most a /16 of them.
pub(super) const MAX_CLIENTS_PER_AP: usize = 65_536;

/// Seed-stream tag for per-AP heterogeneity profiles: profiles are drawn from
/// `mix_seed(campaign_seed, PROFILE_TAG ^ ap_index)`, a stream disjoint from
/// both the per-AP simulation seeds (`mix_seed(seed, index)`) and the shard
/// seeds (`mix_seed(seed, SHARD_TAG ^ index)`), so heterogeneity never
/// perturbs the race RNG itself.
pub(super) const PROFILE_TAG: u64 = 0x00f1_7e00_ab5e_ed00;

/// Seed-stream tag for shard seed derivation (see [`campaign_fleet`]).
///
/// Follows the 64-bit high-lane convention shared by every tag in
/// [`super::SEED_TAG_REGISTRY`]: the top 16 bits (here `0x5a4d`) identify
/// the stream family. The tag's value migrated from the original 32-bit
/// `0x5eed_5a4d`; shard seeds only feed the classic single-day seed sweep,
/// whose race outcomes are seed-independent at jitter 0 (pinned by
/// `sharded_and_unsharded_fleets_agree_on_the_logical_population` and the
/// byte-identity regression in `tests/shard_tag_migration.rs`), and the
/// checkpoint fingerprint never includes shard scheduling, so old
/// checkpoints and merged reports are unaffected.
pub(super) const SHARD_TAG: u64 = 0x5a4d_0000_0000_0000;

// ---------------------------------------------------------------------------
// Per-AP heterogeneity
// ---------------------------------------------------------------------------

/// Per-AP heterogeneity: link and attacker timing plus a client-population
/// weight, drawn from seeded [`Dist`] distributions when
/// [`RunConfig::fleet_hetero`] is set. Real café APs are not identical —
/// latency, jitter, how fast the resident master reacts and how many clients
/// sit behind each AP all vary; the profile captures one AP's draw.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ApProfile {
    /// Master-tap reaction delay in microseconds.
    pub attacker_reaction_us: u64,
    /// One-way shared-WiFi latency in microseconds.
    pub wifi_latency_us: u64,
    /// One-way WAN latency to the genuine server in microseconds.
    pub wan_latency_us: u64,
    /// Extra per-packet WiFi jitter bound in microseconds (added on top of
    /// `RunConfig::jitter_us`).
    pub jitter_us: u64,
    /// Relative client-population weight: clients are distributed over the
    /// fleet's APs proportionally to this weight (largest-remainder rounding).
    pub client_weight: u64,
}

impl ApProfile {
    /// The distributions one AP's parameters are drawn from: "most APs are
    /// ordinary, a few are slow", centred on the paper's Figure 2 timing.
    /// The reaction and WAN supports deliberately overlap — the master's
    /// spoofed response beats the genuine one iff `reaction < 2·wan + 500 µs`
    /// (the WiFi hop cancels out), so a slow master behind a fast-WAN café
    /// *loses* the race and that AP's clients stay clean. Heterogeneity
    /// changes outcomes, not just timestamps.
    const REACTION: Dist = Dist::Triangular { lo: 150, mode: 300, hi: 15_000 };
    const WIFI: Dist = Dist::Triangular { lo: 800, mode: 2_000, hi: 8_000 };
    const WAN: Dist = Dist::Triangular { lo: 5_000, mode: 40_000, hi: 120_000 };
    const JITTER: Dist = Dist::Uniform { lo: 0, hi: 400 };
    const WEIGHT: Dist = Dist::Uniform { lo: 1, hi: 4 };

    /// Draws one AP's profile from its seed (deterministic per seed).
    pub fn draw(seed: u64) -> ApProfile {
        let mut rng = StdRng::seed_from_u64(seed);
        ApProfile {
            attacker_reaction_us: Self::REACTION.sample(&mut rng),
            wifi_latency_us: Self::WIFI.sample(&mut rng),
            wan_latency_us: Self::WAN.sample(&mut rng),
            jitter_us: Self::JITTER.sample(&mut rng),
            client_weight: Self::WEIGHT.sample(&mut rng),
        }
    }

    /// The profile of AP `ap_index` under `campaign_seed` (the stable,
    /// day-independent heterogeneity stream).
    pub fn for_ap(campaign_seed: u64, ap_index: usize) -> ApProfile {
        ApProfile::draw(mix_seed(campaign_seed, PROFILE_TAG ^ ap_index as u64))
    }

    /// The race-world timing this profile induces.
    pub(super) fn timing(&self) -> RaceTiming {
        RaceTiming {
            attacker_reaction_us: self.attacker_reaction_us,
            wifi_latency_us: self.wifi_latency_us,
            server_one_way_us: self.wan_latency_us,
            jitter_us: self.jitter_us,
        }
    }
}

impl ToJson for ApProfile {
    fn to_json(&self) -> Json {
        Json::obj([
            ("attacker_reaction_us", self.attacker_reaction_us.to_json()),
            ("wifi_latency_us", self.wifi_latency_us.to_json()),
            ("wan_latency_us", self.wan_latency_us.to_json()),
            ("jitter_us", self.jitter_us.to_json()),
            ("client_weight", self.client_weight.to_json()),
        ])
    }
}

/// Distributes `total` clients over APs proportionally to `weights` using
/// largest-remainder rounding (deterministic; counts sum to exactly `total`).
pub(super) fn distribute_by_weight(total: usize, weights: &[u64]) -> Vec<usize> {
    let total_weight: u128 = weights.iter().map(|&w| w.max(1) as u128).sum();
    if total_weight == 0 || weights.is_empty() {
        return vec![0; weights.len()];
    }
    let mut counts: Vec<usize> = Vec::with_capacity(weights.len());
    let mut remainders: Vec<(u128, usize)> = Vec::with_capacity(weights.len());
    let mut assigned = 0usize;
    for (index, &weight) in weights.iter().enumerate() {
        let product = total as u128 * weight.max(1) as u128;
        counts.push((product / total_weight) as usize);
        remainders.push((product % total_weight, index));
        assigned += *counts.last().expect("just pushed");
    }
    // Hand the leftover slots to the largest remainders (ties: lowest index).
    remainders.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
    for &(_, index) in remainders.iter().take(total - assigned) {
        counts[index] += 1;
    }
    counts
}

/// Result of the campaign fleet experiment.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CampaignFleetResult {
    /// Seed-sweep shards the fleet was split across (1 = unsharded).
    pub shards: usize,
    /// Access points simulated.
    pub aps: usize,
    /// Total simulated clients across the fleet.
    pub clients: usize,
    /// Clients that ended up executing the parasite.
    pub infected_clients: usize,
    /// Clients that kept the genuine object (they requested an object the
    /// master had not prepared).
    pub clean_clients: usize,
    /// APs whose simulation failed (event budget exhausted); their clients
    /// count as neither infected nor clean.
    pub failed_aps: usize,
    /// Simulator events processed across the whole fleet.
    pub total_events: u64,
    /// Application payload bytes that crossed the fleet's networks.
    pub payload_bytes: u64,
    /// Spoofed transmissions injected by the masters.
    pub injected_events: u64,
    /// Pre-handshake send buffers evicted fleet-wide (failed connections).
    pub pending_bytes_dropped: u64,
    /// Day-by-day statistics of a multi-day churn campaign
    /// ([`RunConfig::fleet_days`] > 1); empty for the classic single-snapshot
    /// sweep, so the classic artifact stays byte-identical.
    pub day_stats: Vec<DayStats>,
}

impl CampaignFleetResult {
    /// Fraction of simulated clients that ended up infected.
    pub fn infection_rate(&self) -> f64 {
        if self.clients == 0 {
            0.0
        } else {
            self.infected_clients as f64 / self.clients as f64
        }
    }

    /// Renders the campaign summary (plus the Figure 3-style day table for
    /// multi-day churn campaigns).
    pub fn render(&self) -> String {
        let mut out = self.render_summary();
        if !self.day_stats.is_empty() {
            out.push_str("\nday-by-day churn dynamics (Figure 3 model)\n");
            out.push_str(
                "day | arrivals | cleared | rotated | exposed | newly infected | infected | rate %\n",
            );
            for day in &self.day_stats {
                out.push_str(&format!(
                    "{:>3} | {:>8} | {:>7} | {:>7} | {:>7} | {:>14} | {:>8} | {:>6.1}\n",
                    day.day,
                    day.arrivals,
                    day.cache_clears + day.rotation_cured,
                    if day.object_rotated { "yes" } else { "no" },
                    day.exposed,
                    day.newly_infected,
                    day.infected,
                    if self.clients == 0 {
                        0.0
                    } else {
                        day.infected as f64 / self.clients as f64 * 100.0
                    },
                ));
            }
        }
        out
    }

    fn render_summary(&self) -> String {
        format!(
            "Campaign - population-scale cafe-AP fleet sweep\n\
             seed-sweep shards:        {:>10}\n\
             access points:            {:>10}\n\
             simulated clients:        {:>10}\n\
             infected clients:         {:>10}  ({:.1} %)\n\
             clean clients:            {:>10}\n\
             failed APs:               {:>10}\n\
             simulator events:         {:>10}\n\
             payload bytes:            {:>10}\n\
             injected responses:       {:>10}\n\
             pending bytes dropped:    {:>10}\n",
            self.shards,
            self.aps,
            self.clients,
            self.infected_clients,
            self.infection_rate() * 100.0,
            self.clean_clients,
            self.failed_aps,
            self.total_events,
            self.payload_bytes,
            self.injected_events,
            self.pending_bytes_dropped,
        )
    }
}

impl ToJson for CampaignFleetResult {
    fn to_json(&self) -> Json {
        let mut pairs = vec![
            ("shards", self.shards.to_json()),
            ("aps", self.aps.to_json()),
            ("clients", self.clients.to_json()),
            ("infected_clients", self.infected_clients.to_json()),
            ("clean_clients", self.clean_clients.to_json()),
            ("failed_aps", self.failed_aps.to_json()),
            ("infection_rate", self.infection_rate().to_json()),
            ("total_events", self.total_events.to_json()),
            ("payload_bytes", self.payload_bytes.to_json()),
            ("injected_events", self.injected_events.to_json()),
            ("pending_bytes_dropped", self.pending_bytes_dropped.to_json()),
        ];
        // Only multi-day campaigns carry a day table; the classic artifact's
        // JSON stays byte-identical.
        if !self.day_stats.is_empty() {
            pairs.push(("days", self.day_stats.to_json()));
        }
        Json::obj(pairs)
    }
}

/// One AP's share of the fleet.
pub(super) struct ApTask {
    pub(super) seed: u64,
    pub(super) clients: usize,
    /// Heterogeneous per-AP profile; `None` runs the paper's uniform
    /// Figure 2 timing.
    pub(super) profile: Option<ApProfile>,
}

/// Aggregate outcome of one AP simulation.
pub(super) struct ApOutcome {
    pub(super) infected: usize,
    pub(super) clean: usize,
    pub(super) events: u64,
    pub(super) payload_bytes: u64,
    pub(super) injected_events: u64,
    pub(super) pending_bytes_dropped: u64,
    /// Per-client infection outcome by local index (the multi-day loop maps
    /// them back to campaign slots).
    pub(super) infected_flags: Vec<bool>,
}

/// SplitMix64 finaliser, used to derive well-mixed per-AP, per-shard and
/// per-day seed streams from `(campaign_seed, stream ^ index)`.
pub(super) fn mix_seed(seed: u64, index: u64) -> u64 {
    let mut z = seed.wrapping_add(index.wrapping_mul(0x9e3779b97f4a7c15));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

/// Every eighth client asks for an object the master has *not* prepared, so
/// the fleet exercises both the winning race and the passthrough path. The
/// multi-day loop applies the same trait per campaign *slot*, so a seat keeps
/// its browsing habit across churn.
pub(super) fn requests_unprepared_object(client_index: usize) -> bool {
    client_index % 8 == 7
}

/// Simulates one café AP: `task.clients` victims racing in the shared-WiFi
/// world of [`build_race_world`] (the exact Figure 2 / Table II topology and
/// timing, or the AP's heterogeneous profile), with an always-bounded
/// `SummaryOnly` trace. `unprepared(index)` decides which clients ask for an
/// object the master has not prepared.
pub(super) fn simulate_ap_with(
    task: &ApTask,
    config: &RunConfig,
    shared: Option<&SharedBudget>,
    unprepared: &(dyn Fn(usize) -> bool + Sync),
) -> Result<ApOutcome, NetError> {
    let mut timing = task.profile.map(|p| p.timing()).unwrap_or(RaceTiming::PAPER);
    timing.jitter_us += config.jitter_us;
    let mut world = build_race_world(task.seed, &timing, config.event_budget, TraceMode::SummaryOnly, shared);
    let infected_flags = world.race(task.clients, unprepared)?;
    let infected = infected_flags.iter().filter(|&&flag| flag).count();

    let summary = *world.sim.trace().summary();
    Ok(ApOutcome {
        infected,
        clean: infected_flags.len() - infected,
        events: world.sim.events_processed(),
        payload_bytes: summary.payload_bytes,
        injected_events: summary.injected_events,
        pending_bytes_dropped: summary.pending_bytes_dropped,
        infected_flags,
    })
}

/// Divides `total` into `parts` nearly equal slices (earlier slices take the
/// remainder). Shared with the shard planner (`distrib`), so coordinator
/// range splits and seed-sweep shard splits agree.
pub(super) fn share(total: usize, parts: usize, index: usize) -> usize {
    total / parts + usize::from(index < total % parts)
}

/// Runs the campaign fleet. `fleet_days > 1` enters the multi-day churn loop
/// (see the `multiday` module); otherwise: unsharded for `fleet_shards <= 1`,
/// or a seed-sweep of independent shard runs (each an unsharded fleet under
/// its own seed, scheduled on the shared worker pool) whose trace summaries
/// and infection counts are merged into one artifact in shard order. Under
/// `fleet_hetero` the fleet's profiles are pinned to global AP indices, so
/// sharding becomes a scheduling hint: every number in the artifact matches
/// the unsharded run (only the reported `shards` field echoes the request).
pub(super) fn campaign_fleet(
    config: &RunConfig,
    ctx: &RunCtx,
) -> Result<CampaignFleetResult, ExperimentError> {
    if config.fleet_days > 1 {
        return super::multiday::run_multiday(config, ctx, None);
    }
    // One shared budget pool (when requested) spans every shard of the sweep.
    let shared = ctx.budget_for(config);
    let requested = config.fleet_shards.max(1);
    // Never more shards than APs: every shard needs at least one simulation.
    let shards = requested.min(config.fleet_aps.max(1));
    if requested == 1 || config.fleet_hetero {
        // An unsharded request runs the global plan as is. Heterogeneity
        // pins profiles and client weights to *global* AP indices under the
        // campaign seed; slicing the fleet into seed-sweep shards would
        // redraw a different fleet per shard count. Run the global plan
        // directly (the per-AP sweep already parallelises) and report the
        // shard count as a scheduling hint — the artifact is byte-identical
        // across shard counts, like the multi-day loop.
        let mut result = campaign_fleet_shard(config, shared.as_ref())?;
        result.shards = shards;
        return Ok(result);
    }
    let shard_configs: Vec<RunConfig> = (0..shards)
        .map(|index| RunConfig {
            // A distinct, well-mixed seed stream per shard: a splitmix-style
            // hash of (campaign_seed, shard_index) under its own stream tag,
            // so shard seeds can collide neither with each other nor with the
            // unsharded run's per-AP seeds (`mix_seed(seed, ap_index)`).
            seed: mix_seed(config.seed, SHARD_TAG ^ index as u64),
            fleet_clients: share(config.fleet_clients, shards, index),
            fleet_aps: share(config.fleet_aps.max(1), shards, index),
            fleet_shards: 1,
            // Shards already run in parallel; keep each shard's AP sweep
            // sequential so the machine is not oversubscribed.
            fleet_jobs: 1,
            ..*config
        })
        .collect();

    let outcomes = parallel_tasks(&shard_configs, fleet_jobs(config, shards), |shard| {
        campaign_fleet_shard(shard, shared.as_ref())
    });

    let mut merged = CampaignFleetResult {
        shards,
        clients: config.fleet_clients,
        ..CampaignFleetResult::default()
    };
    let mut failed_shards = 0usize;
    let mut first_error: Option<ExperimentError> = None;
    for (outcome, shard_config) in outcomes.into_iter().zip(&shard_configs) {
        match outcome {
            Ok(shard) => {
                merged.aps += shard.aps;
                merged.infected_clients += shard.infected_clients;
                merged.clean_clients += shard.clean_clients;
                merged.failed_aps += shard.failed_aps;
                merged.total_events += shard.total_events;
                merged.payload_bytes += shard.payload_bytes;
                merged.injected_events += shard.injected_events;
                merged.pending_bytes_dropped += shard.pending_bytes_dropped;
            }
            Err(error) => {
                // A shard that failed outright contributes its APs as failed;
                // its clients count as neither infected nor clean.
                first_error.get_or_insert(error);
                merged.aps += shard_config.fleet_aps;
                merged.failed_aps += shard_config.fleet_aps;
                failed_shards += 1;
            }
        }
    }
    if failed_shards == shards {
        // Every shard failed: surface the first shard's *actual* error (e.g.
        // an overpacked-AP Config error), not a synthesized budget failure.
        return Err(first_error.unwrap_or(ExperimentError::Net(
            NetError::EventBudgetExhausted {
                budget: config.event_budget,
            },
        )));
    }
    // A drained global pool means part of the fleet starved: fail the whole
    // run with the typed error instead of reporting a silently-short merge.
    if let Some(shared) = &shared {
        if merged.failed_aps > 0 && shared.exhausted() {
            return Err(ExperimentError::Net(NetError::EventBudgetExhausted {
                budget: shared.total(),
            }));
        }
    }
    Ok(merged)
}

/// Plans one shard's AP tasks: seeds (derived from `sim_seed`, which the
/// multi-day loop varies per day), per-AP client counts (uniform, or
/// weight-distributed when heterogeneity is on) and profiles (always drawn
/// from the campaign seed, so an AP keeps its character across days). Shared
/// between the single-snapshot shard and the multi-day exposure loop.
pub(super) fn plan_ap_tasks(
    config: &RunConfig,
    sim_seed: u64,
    total_clients: usize,
) -> Result<Vec<ApTask>, ExperimentError> {
    let aps = config.fleet_aps.max(1);
    let profiles: Option<Vec<ApProfile>> = config
        .fleet_hetero
        .then(|| (0..aps).map(|index| ApProfile::for_ap(config.seed, index)).collect());
    let counts: Vec<usize> = match &profiles {
        Some(profiles) => distribute_by_weight(
            total_clients,
            &profiles.iter().map(|p| p.client_weight).collect::<Vec<u64>>(),
        ),
        None => {
            let base = total_clients / aps;
            let remainder = total_clients % aps;
            (0..aps).map(|index| base + usize::from(index < remainder)).collect()
        }
    };
    let largest_ap = counts.iter().copied().max().unwrap_or(0);
    if largest_ap > MAX_CLIENTS_PER_AP {
        return Err(ExperimentError::Config(format!(
            "{total_clients} clients over {aps} APs puts {largest_ap} on one AP; \
             one AP holds at most {MAX_CLIENTS_PER_AP} — raise fleet_aps"
        )));
    }
    Ok(counts
        .into_iter()
        .enumerate()
        .map(|(index, clients)| ApTask {
            seed: mix_seed(sim_seed, index as u64),
            clients,
            profile: profiles.as_ref().map(|p| p[index]),
        })
        .collect())
}

/// Resolves the worker-thread count for a fleet sweep of `tasks` tasks.
pub(super) fn fleet_jobs(config: &RunConfig, tasks: usize) -> usize {
    if config.fleet_jobs == 0 {
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4)
    } else {
        config.fleet_jobs
    }
    .min(tasks.max(1))
}

/// Runs one (unsharded) fleet shard: `config.fleet_clients` clients spread
/// over `config.fleet_aps` independent AP simulations executed on scoped
/// worker threads, aggregated deterministically in AP order.
fn campaign_fleet_shard(
    config: &RunConfig,
    shared: Option<&SharedBudget>,
) -> Result<CampaignFleetResult, ExperimentError> {
    let aps = config.fleet_aps.max(1);
    let total_clients = config.fleet_clients;
    let tasks = plan_ap_tasks(config, config.seed, total_clients)?;

    let jobs = fleet_jobs(config, aps);
    let outcomes = parallel_tasks(&tasks, jobs, |task| {
        simulate_ap_with(task, config, shared, &requests_unprepared_object)
    });

    let mut result = CampaignFleetResult {
        shards: 1,
        aps,
        clients: total_clients,
        ..CampaignFleetResult::default()
    };
    for outcome in outcomes {
        match outcome {
            Ok(ap) => {
                result.infected_clients += ap.infected;
                result.clean_clients += ap.clean;
                result.total_events += ap.events;
                result.payload_bytes += ap.payload_bytes;
                result.injected_events += ap.injected_events;
                result.pending_bytes_dropped += ap.pending_bytes_dropped;
            }
            Err(_) => result.failed_aps += 1,
        }
    }
    // A fleet where every single AP failed is a configuration error worth
    // surfacing as such, not an all-zero artifact.
    if result.failed_aps == aps {
        return Err(ExperimentError::Net(NetError::EventBudgetExhausted {
            budget: shared.map(SharedBudget::total).unwrap_or(config.event_budget),
        }));
    }
    Ok(result)
}

#[cfg(test)]
mod tests {
    use super::super::{ExperimentId, Registry};
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn shard_seed_streams_cannot_collide_with_each_other_or_with_ap_seeds() {
        // The splitmix-derived streams must be pairwise disjoint for any
        // realistic campaign. The stream families are swept from
        // SEED_TAG_REGISTRY — the same source of truth the mp-lint seed-tag
        // rule extracts statically — so a tag added anywhere in the
        // workspace is collision-checked here without editing this test.
        // The old additive offsets collided as soon as offsets overlapped;
        // hashed streams do not.
        use super::super::distrib::SEAT_TAG;
        use super::super::multiday::DAY_TAG;
        use super::super::surface::{cell_tag, ADOPT_TAG, SURFACE_TAG};
        use super::super::SEED_TAG_REGISTRY;
        let mut seen = HashSet::new();
        let mut expected = 0usize;
        for campaign_seed in [0u64, 1, 2021, u64::MAX] {
            // First generation: the untagged per-AP stream plus every
            // registered tag stream, over a realistic index range.
            for index in 0..512u64 {
                seen.insert(mix_seed(campaign_seed, index));
                expected += 1;
                for (_name, tag) in SEED_TAG_REGISTRY {
                    seen.insert(mix_seed(campaign_seed, tag ^ index));
                    expected += 1;
                }
            }
            // The per-day streams derive a second generation of seeds: each
            // day's seed (covered by the DAY_TAG sweep above) feeds
            // per-(day, AP) seat streams (SEAT_TAG) and per-(day, AP)
            // simulation seeds (untagged). All of them must stay disjoint
            // from each other and from the first generation.
            for day in 1..=8u64 {
                let day_seed = mix_seed(campaign_seed, DAY_TAG ^ day);
                for ap in 0..64u64 {
                    seen.insert(mix_seed(day_seed, SEAT_TAG ^ ap));
                    seen.insert(mix_seed(day_seed, ap));
                    expected += 2;
                }
            }
            // Surface grid cells use packed (vector, delay, wan, jitter)
            // coordinates; sweep a grid larger than any realistic run.
            // Cells whose packed tag is below 512 are already covered by
            // the registry index sweep.
            for vector in 0..4usize {
                for delay in 0..16usize {
                    for wan in 0..4usize {
                        for jitter in 0..2usize {
                            let tag = cell_tag(vector, delay, wan, jitter);
                            if tag < 512 {
                                continue;
                            }
                            seen.insert(mix_seed(campaign_seed, SURFACE_TAG ^ tag));
                            seen.insert(mix_seed(campaign_seed, ADOPT_TAG ^ tag));
                            expected += 2;
                        }
                    }
                }
            }
        }
        assert_eq!(seen.len(), expected, "all derived seeds pairwise distinct");
    }

    #[test]
    fn sharded_and_unsharded_fleets_agree_on_the_logical_population() {
        // Same logical population, different shard split: the infection
        // complement and the workload counters must agree. Event and payload
        // counts are linear in per-AP client counts, and the uniform split
        // gives both runs the same per-AP count multiset, so the summaries
        // agree exactly even though the seed streams differ.
        let config = RunConfig {
            seed: 11,
            fleet_clients: 1_024,
            fleet_aps: 8,
            fleet_jobs: 1,
            ..RunConfig::default()
        };
        let unsharded = Registry::get(ExperimentId::CampaignFleet).run(&config);
        let unsharded = unsharded.data.as_campaign_fleet().expect("campaign artifact");
        for shards in [2usize, 4, 8] {
            let sharded = Registry::get(ExperimentId::CampaignFleet)
                .run(&RunConfig { fleet_shards: shards, ..config });
            let sharded = sharded.data.as_campaign_fleet().expect("campaign artifact");
            assert_eq!(sharded.shards, shards);
            assert_eq!(sharded.aps, unsharded.aps);
            assert_eq!(sharded.clients, unsharded.clients);
            assert_eq!(sharded.infected_clients, unsharded.infected_clients);
            assert_eq!(sharded.clean_clients, unsharded.clean_clients);
            assert_eq!(sharded.failed_aps, 0);
            assert_eq!(sharded.total_events, unsharded.total_events);
            assert_eq!(sharded.payload_bytes, unsharded.payload_bytes);
            assert_eq!(sharded.injected_events, unsharded.injected_events);
        }
    }

    #[test]
    fn heterogeneous_fleet_is_byte_identical_across_shard_counts() {
        // Profiles and weights are pinned to global AP indices, so sharding
        // a heterogeneous fleet is a scheduling hint: everything but the
        // reported shard count must match the unsharded run exactly.
        let config = RunConfig {
            seed: 11,
            fleet_clients: 1_024,
            fleet_aps: 8,
            fleet_hetero: true,
            fleet_jobs: 1,
            ..RunConfig::default()
        };
        let unsharded = Registry::get(ExperimentId::CampaignFleet).run(&config);
        let unsharded = unsharded.data.as_campaign_fleet().expect("campaign artifact");
        let sharded = Registry::get(ExperimentId::CampaignFleet)
            .run(&RunConfig { fleet_shards: 4, ..config });
        let sharded = sharded.data.as_campaign_fleet().expect("campaign artifact");
        assert_eq!(sharded.shards, 4);
        assert_eq!(
            CampaignFleetResult { shards: 1, ..sharded.clone() },
            *unsharded,
            "same global plan regardless of shard count"
        );
    }

    #[test]
    fn distribute_by_weight_conserves_and_follows_weights() {
        let counts = distribute_by_weight(1_000, &[1, 1, 1, 1]);
        assert_eq!(counts, vec![250, 250, 250, 250]);
        let counts = distribute_by_weight(1_000, &[1, 3]);
        assert_eq!(counts.iter().sum::<usize>(), 1_000);
        assert_eq!(counts, vec![250, 750]);
        // Remainders land deterministically (largest remainder, then index).
        let counts = distribute_by_weight(10, &[1, 1, 1]);
        assert_eq!(counts.iter().sum::<usize>(), 10);
        assert_eq!(counts, vec![4, 3, 3]);
        // Zero weights are clamped to one instead of dividing by zero.
        let counts = distribute_by_weight(9, &[0, 0, 0]);
        assert_eq!(counts.iter().sum::<usize>(), 9);
    }

    #[test]
    fn ap_profiles_are_deterministic_and_heterogeneous() {
        let first = ApProfile::for_ap(2021, 3);
        assert_eq!(first, ApProfile::for_ap(2021, 3));
        // Across a fleet, the draws actually vary.
        let profiles: Vec<ApProfile> = (0..32).map(|ap| ApProfile::for_ap(2021, ap)).collect();
        let wifi: HashSet<u64> = profiles.iter().map(|p| p.wifi_latency_us).collect();
        assert!(wifi.len() > 8, "32 APs should draw many distinct WiFi latencies");
        for profile in &profiles {
            assert!((800..=8_000).contains(&profile.wifi_latency_us));
            assert!((5_000..=120_000).contains(&profile.wan_latency_us));
            assert!((150..=15_000).contains(&profile.attacker_reaction_us));
            assert!((1..=4).contains(&profile.client_weight));
        }
    }

    #[test]
    fn a_slow_master_behind_a_fast_wan_loses_the_race() {
        // The heterogeneity point: outcomes change, not just timestamps. A
        // master that needs 30 ms to forge a response while the genuine
        // server answers over a 5 ms WAN never wins the injection race.
        let slow_master = ApProfile {
            attacker_reaction_us: 30_000,
            wifi_latency_us: 2_000,
            wan_latency_us: 5_000,
            jitter_us: 0,
            client_weight: 1,
        };
        let task = ApTask { seed: 42, clients: 16, profile: Some(slow_master) };
        let config = RunConfig::default();
        let outcome = simulate_ap_with(&task, &config, None, &requests_unprepared_object)
            .expect("simulation completes");
        assert_eq!(outcome.infected, 0, "the genuine response always arrives first");
        assert_eq!(outcome.clean, 16);
        assert!(outcome.infected_flags.iter().all(|&flag| !flag));

        // The paper's timing, for contrast, wins for every prepared request.
        let paper = ApTask { seed: 42, clients: 16, profile: None };
        let outcome = simulate_ap_with(&paper, &config, None, &requests_unprepared_object)
            .expect("simulation completes");
        assert_eq!(outcome.infected, 14, "every prepared request is infected");
        assert_eq!(outcome.clean, 2);
    }
}
