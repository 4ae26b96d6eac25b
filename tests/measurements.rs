//! Integration tests for the measurement studies: Figure 3 (persistency),
//! Figure 5 / §V (HTTPS, HSTS, CSP adoption) and the C&C channel numbers
//! (Figure 4), compared against the values the paper reports — all run
//! through the experiment registry.

use parasite::experiments::{run_many, ExperimentId, Fig3Result, Fig5Result, Registry, RunConfig};
use parasite::json::ToJson;

fn run_fig3(config: &RunConfig) -> Fig3Result {
    Registry::get(ExperimentId::Fig3)
        .run(config)
        .data
        .as_fig3()
        .expect("fig3 artifact")
        .clone()
}

fn run_fig5(config: &RunConfig) -> Fig5Result {
    Registry::get(ExperimentId::Fig5)
        .run(config)
        .data
        .as_fig5()
        .expect("fig5 artifact")
        .clone()
}

#[test]
fn figure3_endpoints_match_the_paper_within_tolerance() {
    // The defaults encode the paper's setup: a 3000-site crawl over 100 days.
    let result = run_fig3(&RunConfig::default());
    let day5 = result.series.at(5).unwrap();
    let day100 = result.series.at(100).unwrap();

    // Paper: ~87.5 % of sites have a name-persistent object over 5 days.
    assert!((day5.name_persistent - 87.5).abs() < 4.0, "day 5: {}", day5.name_persistent);
    // Paper: 75.3 % still do after ~100 days.
    assert!((day100.name_persistent - 75.3).abs() < 4.0, "day 100: {}", day100.name_persistent);
    // The "any .js" curve stays roughly flat.
    assert!((day5.any_js - day100.any_js).abs() < 3.0);
    // Hash persistency always sits below name persistency.
    assert!(day100.hash_persistent < day100.name_persistent);
}

#[test]
fn figure5_and_in_text_adoption_numbers_match_the_paper() {
    // The defaults encode the paper's 15K-site policy scan.
    let result = run_fig5(&RunConfig::default());
    let s = &result.scan;

    assert!((s.tls.http_only_pct() - 21.0).abs() < 2.0, "http-only {}", s.tls.http_only_pct());
    assert!((s.tls.vulnerable_ssl_pct() - 7.0).abs() < 1.5, "ssl {}", s.tls.vulnerable_ssl_pct());
    assert!((s.hsts.without_hsts_pct() - 67.92).abs() < 3.0, "hsts {}", s.hsts.without_hsts_pct());
    assert!(s.hsts.strippable_pct() > 90.0 && s.hsts.strippable_pct() <= 100.0);
    assert!((s.csp.supplied_pct() - 4.7).abs() < 1.0, "csp supplied {}", s.csp.supplied_pct());
    assert!((s.csp.with_rules_pct() - 4.33).abs() < 1.0, "csp rules {}", s.csp.with_rules_pct());
    assert!((s.csp.deprecated_pct() - 15.3).abs() < 6.0, "deprecated {}", s.csp.deprecated_pct());
    // Paper: 160 connect-src uses, 17 of them wildcards (15K scan).
    assert!((s.csp.connect_src_uses as f64 - 160.0).abs() < 60.0, "connect-src {}", s.csp.connect_src_uses);
    assert!(s.csp.connect_src_wildcards < s.csp.connect_src_uses);
    assert!((s.google_analytics_pct() - 63.0).abs() < 2.0, "ga {}", s.google_analytics_pct());
}

#[test]
fn figure4_channel_capacity_matches_the_paper() {
    let artifact = Registry::get(ExperimentId::Fig4).run(&RunConfig::default());
    let result = artifact.data.as_fig4().expect("fig4 artifact");
    // 4 bytes per image, ~100 bytes per SVG, ≈100 KB/s with parallel requests.
    let (_, goodput_at_25) = result
        .goodput_curve
        .iter()
        .find(|(parallel, _)| *parallel == 25)
        .copied()
        .unwrap();
    assert!((goodput_at_25 - 100_000.0).abs() < 1.0);
    // The functional end-to-end check moved real bytes both ways.
    assert!(result.command_bytes_delivered > 0);
    assert!(result.upstream_bytes_delivered >= 40);
    // Goodput grows with parallelism.
    let goodputs: Vec<f64> = result.goodput_curve.iter().map(|(_, g)| *g).collect();
    assert!(goodputs.windows(2).all(|w| w[1] > w[0]));
}

#[test]
fn measurements_are_reproducible_across_runs_with_the_same_seed() {
    let fig5_config = RunConfig { sites: 2000, seed: 7, ..RunConfig::default() };
    assert_eq!(run_fig5(&fig5_config).scan, run_fig5(&fig5_config).scan);
    let fig3_config = RunConfig { crawl_sites: 500, days: 30, seed: 11, ..RunConfig::default() };
    assert_eq!(run_fig3(&fig3_config).series, run_fig3(&fig3_config).series);
}

#[test]
fn multi_seed_sweeps_run_in_parallel_and_stay_per_seed_deterministic() {
    // A Figure-3 sweep over three seeds on the batch engine: each seed's
    // series must match its own sequential rerun, and distinct seeds must
    // actually produce distinct populations.
    let base = RunConfig { crawl_sites: 300, days: 10, ..RunConfig::default() };
    let configs: Vec<RunConfig> = [3u64, 5, 9]
        .into_iter()
        .map(|seed| RunConfig { seed, ..base })
        .collect();
    let artifacts = run_many(&[ExperimentId::Fig3], &configs, 3);
    assert_eq!(artifacts.len(), 3);
    for artifact in &artifacts {
        let sequential = run_fig3(&artifact.config);
        assert_eq!(artifact.data.as_fig3().unwrap().series, sequential.series);
    }
    assert_ne!(
        artifacts[0].data.as_fig3().unwrap().series,
        artifacts[1].data.as_fig3().unwrap().series,
        "different seeds should generate different populations"
    );
}

/// FNV-1a 64 of the default-config Figure 3 artifact's JSON, captured from
/// the snapshot-based crawler before it was replaced by in-place counting.
const GOLDEN_FIG3_DIGEST: u64 = 0x188d_b568_8ffb_bb0e;

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &byte| {
        (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[test]
fn default_figure3_artifact_matches_the_snapshot_crawler_golden() {
    let artifact = Registry::get(ExperimentId::Fig3).run(&RunConfig::default());
    let json = artifact.to_json().to_string();
    assert_eq!(fnv1a(json.as_bytes()), GOLDEN_FIG3_DIGEST, "{:#018x}", fnv1a(json.as_bytes()));
}
