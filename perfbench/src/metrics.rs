//! Metric names, units and the result line.
//!
//! Every run prints every metric of its kind: the end-to-end metrics with
//! tracing off, the per-layer metrics with tracing on. A per-layer metric
//! whose layer the workload does not reach reads 0. The lists here must
//! equal `BENCHMARK.json`; `test_smoke.py` checks that.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write;
use std::time::Instant;

/// The host probe's time on the reference host (2-core cloud VM, both cores
/// busy). End-to-end times are reported at this probe speed.
const PROBE_REF_S: f64 = 0.016;

thread_local! {
    /// The probe's table, allocated and touched once per thread: a table
    /// allocated per probe would add its 8 MiB to the peak RSS or not,
    /// depending on when the allocator hands memory back.
    static PROBE_TABLE: RefCell<Vec<u64>> = RefCell::new(vec![1; 1 << 20]);
}

/// A fixed piece of work that does not touch the program: xorshift-indexed
/// read-modify-writes over an 8 MiB table. On a shared host the speed of a
/// core drifts by ±20% over minutes with other tenants' load; the probe,
/// run right after each operation on the same thread, drifts with it.
fn host_probe() -> f64 {
    PROBE_TABLE.with(|table| {
        let table = &mut *table.borrow_mut();
        let start = Instant::now();
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        for _ in 0..3_000_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let index = (x as usize) & (table.len() - 1);
            table[index] = table[index].wrapping_add(x);
        }
        std::hint::black_box(&*table);
        start.elapsed().as_secs_f64()
    })
}

/// The wall time of one operation and of the host probe run right after it.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    pub wall_s: f64,
    pub probe_s: f64,
}

impl Sample {
    /// Times `op`, then the host probe.
    pub fn measure<T>(op: impl FnOnce() -> T) -> (Sample, T) {
        let start = Instant::now();
        let value = op();
        let wall_s = start.elapsed().as_secs_f64();
        (
            Sample {
                wall_s,
                probe_s: host_probe(),
            },
            value,
        )
    }

    /// The wall time at the reference host speed.
    pub fn ref_s(&self) -> f64 {
        self.wall_s * PROBE_REF_S / self.probe_s
    }
}

pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("races_per_s", "races/s"),
    ("report_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("ok_ratio", "ratio"),
];

pub const PER_LAYER: &[(&str, &str)] = &[
    ("netsim.run_s", "s"),
    ("netsim.events", "count"),
    ("netsim.events_per_s", "events/s"),
    ("netsim.client_setup_s", "s"),
    ("netsim.world_build_s", "s"),
    ("master.packet_tap_s", "s"),
    ("httpsim.encode_s", "s"),
    ("httpsim.encode_calls", "count"),
    ("httpsim.parse_s", "s"),
    ("httpsim.url_reuse_share", "ratio"),
    ("script.detect_s", "s"),
    ("script.detect_calls", "count"),
    ("script.infected_ratio", "ratio"),
    ("experiments.campaign_s", "s"),
    ("experiments.day_s", "s"),
    ("experiments.exposed_per_day", "count"),
    ("experiments.program_events", "count"),
    ("experiments.replay_share", "ratio"),
    ("experiments.merge_s", "s"),
    ("json.decode_s", "s"),
    ("json.encode_s", "s"),
    ("json.reply_bytes", "bytes"),
    ("service.accept_s", "s"),
    ("service.first_day_s", "s"),
    ("service.stream_s", "s"),
    ("service.submit_done_p50_s", "s"),
    ("service.submit_done_p90_s", "s"),
    ("service.submit_samples", "count"),
    ("service.shard_round_s", "s"),
    ("service.lines", "count"),
    ("service.errors", "count"),
    ("service.errors.bad_request", "count"),
    ("service.errors.queue_full", "count"),
    ("service.errors.cancelled", "count"),
    ("service.errors.internal", "count"),
    ("service.errors.unavailable", "count"),
    ("service.daemon_rss_mb", "MiB"),
    ("shard_worker.reply_s", "s"),
    ("shard_worker.reply_bytes", "bytes"),
    ("distribute.wall_s", "s"),
    ("distribute.retries", "count"),
    ("report.table1_s", "s"),
    ("report.table2_s", "s"),
    ("report.table3_s", "s"),
    ("report.table4_s", "s"),
    ("report.table5_s", "s"),
    ("report.fig1_s", "s"),
    ("report.fig2_s", "s"),
    ("report.fig3_s", "s"),
    ("report.fig4_s", "s"),
    ("report.fig5_s", "s"),
    ("report.ablation_s", "s"),
    ("report.render_s", "s"),
    ("trace.overhead_share", "ratio"),
    ("trace.spans", "count"),
];

/// Operations attempted and failed, with the first few failure messages
/// echoed to stderr.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    /// Records one operation; `problems` empty means it passed its checks.
    pub fn record(&mut self, what: &str, problems: &[String]) {
        self.attempted += 1;
        if !problems.is_empty() {
            self.failed += 1;
            if self.failed <= 5 {
                for problem in problems {
                    eprintln!("check failed ({what}): {problem}");
                }
            }
        }
    }

    /// Records a failure that is not tied to one operation's output (a
    /// replay mismatch, count drift), without counting an attempt.
    pub fn fail(&mut self, what: &str, problem: &str) {
        self.failed += 1;
        self.attempted = self.attempted.max(self.failed);
        eprintln!("check failed ({what}): {problem}");
    }
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Linear-interpolation quantile of `values` (`q` in [0, 1]); 0 when empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let position = q * (sorted.len() - 1) as f64;
    let (lo, hi) = (position.floor() as usize, position.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (position - lo as f64)
}

/// Peak resident set size (`VmHWM`) of a process, in MiB.
pub fn peak_rss_mb(pid: Option<u32>) -> f64 {
    let path = match pid {
        Some(pid) => format!("/proc/{pid}/status"),
        None => "/proc/self/status".to_string(),
    };
    std::fs::read_to_string(path)
        .ok()
        .and_then(|status| {
            status.lines().find_map(|line| {
                let kb = line
                    .strip_prefix("VmHWM:")?
                    .trim()
                    .strip_suffix("kB")?
                    .trim();
                kb.parse::<f64>().ok()
            })
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// Formats the result line: `{"correct", "attempted", "failed", "metrics"}`
/// with every metric of `names` (missing values read 0).
pub fn result_line(
    correct: bool,
    tally: &Tally,
    names: &[(&str, &str)],
    values: &BTreeMap<&'static str, f64>,
) -> String {
    let mut line = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        tally.attempted.max(1),
        tally.failed
    );
    for (index, (name, unit)) in names.iter().enumerate() {
        let value = values.get(name).copied().unwrap_or(0.0);
        let value = if value.is_finite() { value } else { 0.0 };
        if index > 0 {
            line.push_str(", ");
        }
        write!(
            line,
            "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        )
        .expect("string write");
    }
    line.push_str("}}");
    line
}
