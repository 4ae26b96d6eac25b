//! `paper_report`: the default eleven-artifact report,
//! `run_all(&config, 1)` + `render_report`, with the workload seed as the
//! configuration's seed. With tracing on, each experiment's
//! `Registry::get(id).try_run` and the render are spans of their own.

use crate::metrics::{median, Sample};
use crate::trace::Tracer;
use crate::{closed_loop, closed_loop_pair, secs, Run, LOAD_THREADS, SETUP_REPS};
use mp_bench::{render_report, run_all};
use parasite::experiments::{Artifact, ExperimentId, InjectionCell, Registry, RunConfig};
use std::time::Instant;

fn config(seed: u64) -> RunConfig {
    RunConfig {
        seed,
        ..RunConfig::default()
    }
}

/// The eleven paper artifacts, in order.
fn check_ids(artifacts: &[Artifact]) -> Vec<String> {
    let ids: Vec<ExperimentId> = artifacts.iter().map(|a| a.id).collect();
    if ids == ExperimentId::ALL {
        Vec::new()
    } else {
        vec![format!("artifact ids {ids:?} are not the eleven paper ids")]
    }
}

/// Packet-level injection races in the report: the Table II matrix cells
/// that ran a race (not the browser/OS pairs marked not applicable).
fn races(artifacts: &[Artifact]) -> u64 {
    artifacts
        .iter()
        .filter_map(|a| a.data.as_table2())
        .flat_map(|table| table.rows.iter().flat_map(|(_, cells)| cells.iter()))
        .filter(|cell| !matches!(cell, InjectionCell::NotApplicable))
        .count() as u64
}

const SPANS: [(ExperimentId, &str); 11] = [
    (ExperimentId::Table1, "report.table1"),
    (ExperimentId::Table2, "report.table2"),
    (ExperimentId::Table3, "report.table3"),
    (ExperimentId::Table4, "report.table4"),
    (ExperimentId::Table5, "report.table5"),
    (ExperimentId::Fig1, "report.fig1"),
    (ExperimentId::Fig2, "report.fig2"),
    (ExperimentId::Fig3, "report.fig3"),
    (ExperimentId::Fig4, "report.fig4"),
    (ExperimentId::Fig5, "report.fig5"),
    (ExperimentId::Ablation, "report.ablation"),
];

pub fn run(run: &mut Run) -> Result<(), String> {
    let mut setups = Vec::new();
    let mut reference = None;
    for _ in 0..SETUP_REPS {
        let (sample, warm) = Sample::measure(|| {
            let config = config(run.args.seed);
            let artifacts = run_all(&config, 1);
            let text = render_report(&artifacts);
            (config, artifacts, text)
        });
        setups.push(sample);
        reference = Some(warm);
    }
    let (config, warm, warm_text) = reference.expect("at least one setup");
    run.tally.record("warm-up report", &check_ids(&warm));
    let report_races = races(&warm);
    if report_races == 0 {
        return Err("the report ran no Table II races".into());
    }

    if run.args.trace {
        return traced(run, &config, &warm_text);
    }
    run.set_time("setup_s", &setups);
    run.threads = LOAD_THREADS;
    let samples = closed_loop_pair(run.args.seconds, 3, |_| {
        let (sample, (artifacts, text)) = Sample::measure(|| {
            let artifacts = run_all(&config, 1);
            let text = render_report(&artifacts);
            (artifacts, text)
        });
        let mut problems = check_ids(&artifacts);
        if text != warm_text {
            problems.push("report text differs from the warm-up pass".to_string());
        }
        (sample, problems)
    });
    let mut times = Vec::new();
    for (sample, problems) in samples.into_iter().flatten() {
        times.push(sample);
        run.tally.record("report", &problems);
    }
    let rates: Vec<(u64, Sample)> = times.iter().map(|sample| (report_races, *sample)).collect();
    run.set_time("report_s", &times);
    run.set_rate("races_per_s", &rates);
    Ok(())
}

fn traced(run: &mut Run, config: &RunConfig, warm_text: &str) -> Result<(), String> {
    let mut tracer = Tracer::new(true);
    let (mut reps, mut traced_wall, mut plain_wall) = (Vec::new(), Vec::new(), Vec::new());
    closed_loop(run.args.seconds, 2, || {
        let start = Instant::now();
        let _ = render_report(&run_all(config, 1));
        plain_wall.push(secs(start.elapsed()));

        tracer.begin_op();
        let start = Instant::now();
        let root = tracer.enter("replay.report");
        let mut artifacts = Vec::new();
        let mut problems = Vec::new();
        for (id, name) in SPANS {
            let span = tracer.enter(name);
            match Registry::get(id).try_run(config) {
                Ok(artifact) => artifacts.push(artifact),
                Err(error) => problems.push(format!("{id} failed: {error}")),
            }
            tracer.exit(span);
        }
        let span = tracer.enter("report.render");
        let text = render_report(&artifacts);
        tracer.exit(span);
        tracer.exit(root);
        traced_wall.push(secs(start.elapsed()));
        reps.push(tracer.take_totals());
        problems.extend(check_ids(&artifacts));
        if text != warm_text {
            problems.push("traced report text differs from the warm-up pass".to_string());
        }
        run.tally.record("traced report", &problems);
    });
    for name in SPANS.iter().map(|(_, name)| *name).chain(["report.render"]) {
        let values: Vec<f64> = reps
            .iter()
            .map(|t| t.get(name).map_or(0.0, |s| s.self_s))
            .collect();
        run.set(metric_name(name), median(&values));
    }
    let untraced = median(&plain_wall);
    run.set(
        "trace.overhead_share",
        (median(&traced_wall) - untraced) / untraced,
    );
    run.set(
        "trace.spans",
        reps.last()
            .map_or(0, |t| t.values().map(|s| s.count).sum::<u64>()) as f64,
    );
    run.write_spans(&tracer);
    Ok(())
}

/// `report.fig3` → `report.fig3_s`.
fn metric_name(span: &str) -> &'static str {
    crate::metrics::PER_LAYER
        .iter()
        .map(|(name, _)| *name)
        .find(|name| name.strip_suffix("_s") == Some(span))
        .expect("every report span has a metric")
}
