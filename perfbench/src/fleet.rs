//! `fleet_churn`: the 5-day, 100,000-client, 32-AP churn campaign run
//! in-process through `Registry::get(CampaignFleet).try_run_ctx`, one fleet
//! job. With tracing on, day 1 is also replayed AP by AP through the public
//! netsim/httpsim/parasite calls and must reproduce the campaign's own day-1
//! events and infections exactly.

use crate::metrics::{median, Sample};
use crate::replay::{self, gate_counts, layer_time, set_layer_metrics, Counts};
use crate::trace::{SpanTotals, Tracer};
use crate::{closed_loop, closed_loop_pair, secs, Run, LOAD_THREADS, SETUP_REPS};
use parasite::experiments::{
    Artifact, CampaignFleetResult, DaySink, DayStats, ExperimentId, Registry, RunConfig, RunCtx,
};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

fn config(seed: u64, tiny: bool) -> RunConfig {
    RunConfig {
        seed,
        fleet_clients: if tiny { 2_000 } else { 100_000 },
        fleet_aps: if tiny { 4 } else { 32 },
        fleet_days: if tiny { 3 } else { 5 },
        fleet_churn: 0.2,
        fleet_jobs: 1,
        ..RunConfig::default()
    }
}

/// One campaign plus the render of its artifact.
fn campaign(config: &RunConfig, ctx: &RunCtx) -> Result<(Artifact, String), String> {
    let artifact = Registry::get(ExperimentId::CampaignFleet)
        .try_run_ctx(config, ctx)
        .map_err(|error| format!("campaign failed: {error}"))?;
    let text = artifact.render_text();
    Ok((artifact, text))
}

fn fleet(artifact: &Artifact) -> Option<&CampaignFleetResult> {
    artifact.data.as_campaign_fleet()
}

/// Each day: infected + clean = clients, arrivals = departures, no failed
/// AP; day 1 exposes every client; the horizon is complete.
fn check_campaign(config: &RunConfig, result: &CampaignFleetResult) -> Vec<String> {
    let mut problems = Vec::new();
    if result.day_stats.len() != config.fleet_days as usize {
        problems.push(format!(
            "{} day rows for {} days",
            result.day_stats.len(),
            config.fleet_days
        ));
    }
    if result.failed_aps != 0 {
        problems.push(format!("{} failed APs", result.failed_aps));
    }
    for day in &result.day_stats {
        if day.infected + day.clean != config.fleet_clients {
            problems.push(format!("day {}: infected + clean != clients", day.day));
        }
        if day.arrivals != day.departures {
            problems.push(format!("day {}: arrivals != departures", day.day));
        }
        if day.failed_aps != 0 {
            problems.push(format!("day {}: {} failed APs", day.day, day.failed_aps));
        }
    }
    match result.day_stats.first() {
        Some(day1) if day1.exposed == config.fleet_clients => {}
        _ => problems.push("day 1 did not expose every client".to_string()),
    }
    problems
}

fn exposed(result: &CampaignFleetResult) -> u64 {
    result.day_stats.iter().map(|day| day.exposed as u64).sum()
}

pub fn run(run: &mut Run) -> Result<(), String> {
    let (seed, tiny) = (run.args.seed, run.args.tiny);
    let mut setups = Vec::new();
    let mut texts = Vec::new();
    let mut warm = None;
    for _ in 0..SETUP_REPS {
        let (sample, (config, outcome)) = Sample::measure(|| {
            let config = config(seed, tiny);
            (config, campaign(&config, &RunCtx::default()))
        });
        let (artifact, text) = outcome?;
        setups.push(sample);
        texts.push(text);
        warm = Some((config, artifact));
    }
    let (config, artifact) = warm.expect("at least one setup");
    let mut problems = check_campaign(&config, fleet(&artifact).ok_or("not a campaign artifact")?);
    if texts.iter().any(|text| *text != texts[0]) {
        problems.push("the warm-up passes rendered different text".to_string());
    }
    run.tally.record("warm-up campaign", &problems);

    if run.args.trace {
        return traced(run, &config);
    }
    run.set_time("setup_s", &setups);
    run.threads = LOAD_THREADS;
    // Operation k of each load thread simulates the campaign seeded
    // `mix_seed(seed, k)`. Some seeds rotate the target object within the
    // five days and race about half again as many seats; a run that repeated
    // one seed would read fast or slow by its seed alone, while the median
    // over many seeds does not. Both threads walk the same seeds, so every
    // campaign both ran is also checked to render the same text.
    let per_thread = closed_loop_pair(run.args.seconds, 2, |k| {
        let config = RunConfig {
            seed: replay::mix_seed(seed, k as u64),
            ..config
        };
        let (elapsed, outcome) = Sample::measure(|| campaign(&config, &RunCtx::default()));
        match outcome {
            Err(message) => (elapsed, 0, String::new(), vec![message]),
            Ok((artifact, text)) => match fleet(&artifact) {
                Some(result) => (
                    elapsed,
                    exposed(result),
                    text,
                    check_campaign(&config, result),
                ),
                None => (
                    elapsed,
                    0,
                    text,
                    vec!["not a campaign artifact".to_string()],
                ),
            },
        }
    });
    let (mut times, mut rates) = (Vec::new(), Vec::new());
    for (thread, results) in per_thread.iter().enumerate() {
        for (k, (sample, races, text, problems)) in results.iter().enumerate() {
            times.push(*sample);
            if *races > 0 {
                rates.push((*races, *sample));
            }
            let mut problems = problems.clone();
            let twin = per_thread.get(thread + 1).and_then(|other| other.get(k));
            if twin.is_some_and(|(_, _, other, _)| other != text) {
                problems.push(format!(
                    "campaign {k} rendered different text on the two threads"
                ));
            }
            run.tally.record("campaign", &problems);
        }
    }
    run.set_rate("races_per_s", &rates);
    run.set_time("report_s", &times);
    Ok(())
}

/// Layer self times and counts of one traced replay.
struct ReplayRep {
    totals: BTreeMap<&'static str, SpanTotals>,
    counts: Counts,
    wall_s: f64,
    spans: u64,
}

/// Replays day 1 once, traced or not.
fn replay_day1(
    tracer: &mut Tracer,
    config: &RunConfig,
    day1: &DayStats,
) -> Result<ReplayRep, String> {
    let mut counts = Counts::default();
    tracer.begin_op();
    let start = Instant::now();
    let root = tracer.enter("replay.day1");
    replay::fleet_day1(tracer, config, day1.object_rotated, &mut counts)?;
    tracer.exit(root);
    let wall_s = secs(start.elapsed());
    let totals = tracer.take_totals();
    let spans = totals.values().map(|t| t.count).sum();
    Ok(ReplayRep {
        totals,
        counts,
        wall_s,
        spans,
    })
}

fn traced(run: &mut Run, config: &RunConfig) -> Result<(), String> {
    let mut tracer = Tracer::new(true);
    let mut plain = Tracer::new(false);
    let (mut campaign_s, mut day_s) = (Vec::new(), Vec::new());
    let (mut reps, mut traced_wall, mut plain_wall, mut shares) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut last = None;
    let seconds = run.args.seconds;
    let mut failure = None;
    closed_loop(seconds, 2, || {
        if failure.is_some() {
            return;
        }
        // The campaign, with a timestamp per completed day from a DaySink.
        let stamps: Arc<Mutex<Vec<Instant>>> = Arc::default();
        let sink_stamps = Arc::clone(&stamps);
        let ctx = RunCtx {
            day_sink: Some(DaySink::new(move |_| {
                sink_stamps.lock().expect("stamps").push(Instant::now())
            })),
            ..RunCtx::default()
        };
        let start = Instant::now();
        let outcome = campaign(config, &ctx);
        campaign_s.push(secs(start.elapsed()));
        let stamps = stamps.lock().expect("stamps").clone();
        let mut previous = start;
        for stamp in &stamps {
            day_s.push(secs(*stamp - previous));
            previous = *stamp;
        }
        let result = match outcome.as_ref().map(|(artifact, _)| fleet(artifact)) {
            Ok(Some(result)) => result.clone(),
            Ok(None) => {
                return run
                    .tally
                    .record("campaign", &["not a campaign artifact".to_string()])
            }
            Err(message) => return run.tally.record("campaign", std::slice::from_ref(message)),
        };
        let mut problems = check_campaign(config, &result);
        let Some(day1) = result.day_stats.first().copied() else {
            return run.tally.record("campaign", &problems);
        };
        let day1_span = stamps.first().map_or(0.0, |stamp| secs(*stamp - start));
        run.gate("experiments.exposed_per_day", exposed(&result));

        // Day 1 replayed AP by AP, untraced then traced.
        match (
            replay_day1(&mut plain, config, &day1),
            replay_day1(&mut tracer, config, &day1),
        ) {
            (Ok(untraced), Ok(traced)) => {
                if traced.counts.events != day1.events
                    || traced.counts.infected != day1.newly_infected as u64
                {
                    problems.push(format!(
                        "day-1 replay gave {} events / {} infected, the campaign {} / {}",
                        traced.counts.events,
                        traced.counts.infected,
                        day1.events,
                        day1.newly_infected
                    ));
                }
                if untraced.counts != traced.counts {
                    problems.push("the untraced and traced replays disagree".to_string());
                }
                gate_counts(run, &traced.counts);
                plain_wall.push(untraced.wall_s);
                traced_wall.push(traced.wall_s);
                if day1_span > 0.0 {
                    shares.push(layer_time(&traced.totals) / day1_span);
                }
                last = Some((result, traced.counts, traced.spans));
                reps.push(traced.totals);
            }
            (Err(message), _) | (_, Err(message)) => {
                failure = Some(message.clone());
                problems.push(message);
            }
        }
        run.tally
            .record("traced campaign + day-1 replay", &problems);
    });
    if let Some(message) = failure {
        return Err(message);
    }
    let (result, counts, spans) = last.ok_or("no traced repetition completed")?;
    set_layer_metrics(run, &reps, &counts);
    let days = result.day_stats.len().max(1) as f64;
    run.set("experiments.campaign_s", median(&campaign_s));
    run.set("experiments.day_s", median(&day_s));
    run.set(
        "experiments.exposed_per_day",
        exposed(&result) as f64 / days,
    );
    run.set(
        "experiments.program_events",
        result.day_stats[0].events as f64,
    );
    run.set("experiments.replay_share", median(&shares));
    let untraced = median(&plain_wall);
    run.set(
        "trace.overhead_share",
        (median(&traced_wall) - untraced) / untraced,
    );
    run.set("trace.spans", spans as f64);
    run.write_spans(&tracer);
    Ok(())
}
