//! `surface_grid`: the attack-surface sweep over 4 vectors × 32 reaction
//! delays straddling the ~80.5 ms cliff × 8 WAN latencies, 16 trials per
//! cell, one fleet job. About 1,000 small worlds, and about half the races
//! are lost, so genuine bodies go through parse and detect. With tracing on,
//! every cell is replayed through the public calls and must reproduce the
//! grid's per-cell race wins and its total events.

use crate::metrics::{median, Sample};
use crate::replay::{self, gate_counts, layer_time, set_layer_metrics, Counts};
use crate::trace::Tracer;
use crate::{closed_loop, closed_loop_pair, secs, Run, LOAD_THREADS, SETUP_REPS};
use parasite::experiments::{
    Artifact, CurvePoint, ExperimentId, Registry, RunConfig, SurfaceResult,
};
use std::time::Instant;

fn config(seed: u64, tiny: bool) -> RunConfig {
    RunConfig {
        seed,
        surface_trials: if tiny { 4 } else { 16 },
        surface_delay_start_us: 60_000,
        surface_delay_end_us: 100_000,
        surface_delay_steps: if tiny { 4 } else { 32 },
        surface_wan_start_us: 20_000,
        surface_wan_end_us: 60_000,
        surface_wan_steps: if tiny { 2 } else { 8 },
        surface_adoption_steps: 5,
        fleet_jobs: 1,
        ..RunConfig::default()
    }
}

fn grid(config: &RunConfig) -> Result<(Artifact, String), String> {
    let artifact = Registry::get(ExperimentId::AttackSurface)
        .try_run(config)
        .map_err(|error| format!("surface sweep failed: {error}"))?;
    let text = artifact.render_text();
    Ok((artifact, text))
}

/// Races the grid ran: cells × trials.
fn races(result: &SurfaceResult) -> u64 {
    (result.vectors.len()
        * result.delays_us.len()
        * result.wans_us.len()
        * result.jitters_us.len()
        * result.trials) as u64
}

/// The checks CI applies to the sweep: counts within trials,
/// `0 ≤ wilson_lo ≤ rate ≤ wilson_hi ≤ 1`, success non-increasing in delay
/// and adoption, non-decreasing in WAN latency.
fn check_grid(result: &SurfaceResult) -> Vec<String> {
    let mut problems = Vec::new();
    let well_formed = |point: &CurvePoint| {
        point.successes <= point.trials
            && 0.0 <= point.wilson_lo
            && point.wilson_lo <= point.rate
            && point.rate <= point.wilson_hi
            && point.wilson_hi <= 1.0
    };
    let successes = |curve: &[CurvePoint]| curve.iter().map(|p| p.successes).collect::<Vec<_>>();
    for vector in &result.vectors {
        for (name, curve) in [
            ("success_vs_delay", &vector.success_vs_delay),
            ("infection_vs_adoption", &vector.infection_vs_adoption),
        ] {
            if !curve.iter().all(well_formed) {
                problems.push(format!(
                    "{}: {name} has a malformed Wilson interval",
                    vector.vector
                ));
            }
            if !successes(curve).windows(2).all(|w| w[0] >= w[1]) {
                problems.push(format!(
                    "{}: {name} is not monotone non-increasing",
                    vector.vector
                ));
            }
        }
        if !successes(&vector.success_vs_wan)
            .windows(2)
            .all(|w| w[0] <= w[1])
        {
            problems.push(format!(
                "{}: success_vs_wan is not monotone non-decreasing",
                vector.vector
            ));
        }
    }
    if result.vectors.len() != 4 {
        problems.push(format!("{} vectors instead of 4", result.vectors.len()));
    }
    problems
}

fn surface(artifact: &Artifact) -> Result<&SurfaceResult, String> {
    artifact
        .data
        .as_attack_surface()
        .ok_or_else(|| "not a surface artifact".to_string())
}

pub fn run(run: &mut Run) -> Result<(), String> {
    let (seed, tiny) = (run.args.seed, run.args.tiny);
    let mut setups = Vec::new();
    let mut reference = None;
    for _ in 0..SETUP_REPS {
        let (sample, (config, warm)) = Sample::measure(|| {
            let config = config(seed, tiny);
            (config, grid(&config))
        });
        setups.push(sample);
        reference = Some((config, warm?));
    }
    let (config, (warm, warm_text)) = reference.expect("at least one setup");
    let warm = surface(&warm)?.clone();
    run.tally.record("warm-up grid", &check_grid(&warm));

    if run.args.trace {
        return traced(run, &config, &warm);
    }
    run.set_time("setup_s", &setups);
    run.threads = LOAD_THREADS;
    let samples = closed_loop_pair(run.args.seconds, 3, |_| {
        let (sample, outcome) = Sample::measure(|| grid(&config));
        let (races, problems) = match &outcome {
            Err(message) => (0, vec![message.clone()]),
            Ok((artifact, text)) => match surface(artifact) {
                Err(message) => (0, vec![message]),
                Ok(result) => {
                    let mut problems = check_grid(result);
                    if *text != warm_text {
                        problems.push("artifact text differs from the warm-up pass".to_string());
                    }
                    (races(result), problems)
                }
            },
        };
        (sample, races, problems)
    });
    let (mut times, mut rates) = (Vec::new(), Vec::new());
    for (sample, races, problems) in samples.into_iter().flatten() {
        times.push(sample);
        if races > 0 {
            rates.push((races, sample));
        }
        run.tally.record("grid", &problems);
    }
    run.set_rate("races_per_s", &rates);
    run.set_time("report_s", &times);
    Ok(())
}

fn traced(run: &mut Run, config: &RunConfig, warm: &SurfaceResult) -> Result<(), String> {
    let mut tracer = Tracer::new(true);
    let mut plain = Tracer::new(false);
    let expected_wins: Vec<u64> = warm
        .vectors
        .iter()
        .flat_map(|v| v.race_wins.iter().copied())
        .collect();
    let (mut grid_s, mut reps, mut traced_wall, mut plain_wall, mut shares) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut last = None;
    let mut failure = None;
    closed_loop(run.args.seconds, 2, || {
        if failure.is_some() {
            return;
        }
        let start = Instant::now();
        let outcome = grid(config);
        let span = secs(start.elapsed());
        grid_s.push(span);
        let mut problems = match outcome.as_ref().map(|(artifact, _)| surface(artifact)) {
            Ok(Ok(result)) => check_grid(result),
            Ok(Err(message)) => vec![message],
            Err(message) => vec![message.clone()],
        };
        let mut outcomes = Vec::new();
        for tracer in [&mut plain, &mut tracer] {
            let mut counts = Counts::default();
            tracer.begin_op();
            let start = Instant::now();
            let root = tracer.enter("replay.grid");
            let wins = replay::surface_grid(tracer, config, &mut counts);
            tracer.exit(root);
            let wall = secs(start.elapsed());
            outcomes.push((wins, counts, wall, tracer.take_totals()));
        }
        let (traced_out, plain_out) = (
            outcomes.pop().expect("traced"),
            outcomes.pop().expect("plain"),
        );
        match (&traced_out.0, &plain_out.0) {
            (Ok(wins), Ok(_)) => {
                let counts = traced_out.1;
                if *wins != expected_wins {
                    problems
                        .push("the replay's per-cell race wins differ from the grid's".to_string());
                }
                if counts.events != warm.total_events {
                    problems.push(format!(
                        "the replay processed {} events, the grid reports {}",
                        counts.events, warm.total_events
                    ));
                }
                if plain_out.1 != counts {
                    problems.push("the untraced and traced replays disagree".to_string());
                }
                gate_counts(run, &counts);
                plain_wall.push(plain_out.2);
                traced_wall.push(traced_out.2);
                shares.push(layer_time(&traced_out.3) / span);
                let spans: u64 = traced_out.3.values().map(|t| t.count).sum();
                last = Some((counts, spans));
                reps.push(traced_out.3);
            }
            (Err(message), _) | (_, Err(message)) => {
                failure = Some(message.clone());
                problems.push(message.clone());
            }
        }
        run.tally.record("traced grid + replay", &problems);
    });
    if let Some(message) = failure {
        return Err(message);
    }
    let (counts, spans) = last.ok_or("no traced repetition completed")?;
    set_layer_metrics(run, &reps, &counts);
    run.set("experiments.campaign_s", median(&grid_s));
    run.set("experiments.program_events", warm.total_events as f64);
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
