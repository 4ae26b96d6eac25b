//! The repository benchmark: four workloads over the reproduction's layers.
//!
//! ```text
//! mp-perfbench --workload <fleet_churn|surface_grid|paper_report|service_mix>
//!              --seed <n> --seconds <s> --trace <0|1>
//!              [--size full|tiny] [--paper-report <path>] [--state-dir <dir>]
//! ```
//!
//! Normally started through `run.py`, which builds this binary and the
//! program's `paper-report` binary first. The last stdout line is the result
//! object; the line before it is the host fingerprint. See README.md.

mod fleet;
mod metrics;
mod replay;
mod report;
mod service;
mod surface;
mod trace;

use metrics::{median, Sample, Tally, END_TO_END, PER_LAYER};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// How many times a run sets its workload up; `setup_s` is the median.
pub const SETUP_REPS: usize = 3;

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub tiny: bool,
    pub paper_report: PathBuf,
    pub state_dir: PathBuf,
}

/// One benchmark run: its arguments, the operation tally, the metric values
/// and the exact counts that must not drift.
pub struct Run {
    pub args: Args,
    pub tally: Tally,
    pub values: BTreeMap<&'static str, f64>,
    counts: BTreeMap<&'static str, u64>,
    /// Wall-clock medians of the time metrics, before host normalisation.
    wall: BTreeMap<&'static str, f64>,
    probes: Vec<f64>,
    /// Worker threads and connections the load generator used.
    pub threads: usize,
    pub connections: usize,
}

impl Run {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// Sets a time metric to the median of per-operation times at the
    /// reference host speed, keeping the wall-clock median alongside.
    pub fn set_time(&mut self, name: &'static str, samples: &[Sample]) {
        let of = |f: fn(&Sample) -> f64| median(&samples.iter().map(f).collect::<Vec<_>>());
        self.set(name, of(Sample::ref_s));
        self.wall.insert(name, of(|s| s.wall_s));
        self.probes.extend(samples.iter().map(|s| s.probe_s));
    }

    /// Sets a per-second rate from per-operation counts, like
    /// [`Run::set_time`].
    pub fn set_rate(&mut self, name: &'static str, samples: &[(u64, Sample)]) {
        let of =
            |f: &dyn Fn(&(u64, Sample)) -> f64| median(&samples.iter().map(f).collect::<Vec<_>>());
        self.set(name, of(&|(count, s)| *count as f64 / s.ref_s()));
        self.wall
            .insert(name, of(&|(count, s)| *count as f64 / s.wall_s));
    }

    /// Records an exact count. Every repetition within the run must give
    /// the same value; a drift fails the run.
    pub fn gate(&mut self, name: &'static str, value: u64) {
        match self.counts.insert(name, value) {
            Some(previous) if previous != value => self.tally.fail(
                "exact-count gate",
                &format!("{name} drifted from {previous} to {value} within one run"),
            ),
            _ => {}
        }
    }

    /// Compares this run's exact counts with the last run of the same
    /// binary, workload, size and seed (kept in the state directory), then
    /// records them for the next run.
    fn gate_across_runs(&mut self) {
        if self.counts.is_empty() {
            return;
        }
        let digest = binary_digest();
        let size = if self.args.tiny { "tiny" } else { "full" };
        let path = self.args.state_dir.join(format!(
            "counts-{}-{size}-{}.txt",
            self.args.workload, self.args.seed
        ));
        let mut current = format!("binary {digest:016x}\n");
        for (name, value) in &self.counts {
            current.push_str(&format!("{name} {value}\n"));
        }
        if let Ok(previous) = std::fs::read_to_string(&path) {
            if previous.lines().next() == current.lines().next() && previous != current {
                self.tally.fail(
                    "exact-count gate",
                    &format!(
                        "counts differ from the previous run recorded in {}",
                        path.display()
                    ),
                );
                eprintln!("previous:\n{previous}current:\n{current}");
            }
        }
        if let Err(error) = std::fs::write(&path, current) {
            eprintln!(
                "warning: cannot record counts in {}: {error}",
                path.display()
            );
        }
    }
}

impl Run {
    /// Writes the tracer's last operation to `spans-<workload>.tsv` in the
    /// state directory.
    pub fn write_spans(&self, tracer: &trace::Tracer) {
        let path = self
            .args
            .state_dir
            .join(format!("spans-{}.tsv", self.args.workload));
        match tracer.write_spans(&path) {
            Ok(()) => eprintln!("spans of the last traced operation: {}", path.display()),
            Err(error) => eprintln!("warning: cannot write spans to {}: {error}", path.display()),
        }
    }
}

/// FNV-1a digest of this executable, so recorded counts are only compared
/// between runs of the same build.
fn binary_digest() -> u64 {
    let bytes = std::env::current_exe()
        .and_then(std::fs::read)
        .unwrap_or_default();
    bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |hash, &byte| {
        (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Runs `op` in a closed loop: the next operation starts when the previous
/// one returns, until `seconds` have passed and at least `min_ops` ran.
pub fn closed_loop(seconds: f64, min_ops: usize, mut op: impl FnMut()) {
    let start = Instant::now();
    let mut done = 0usize;
    while done < min_ops || start.elapsed().as_secs_f64() < seconds {
        op();
        done += 1;
    }
}

/// Load threads of the in-process workloads.
pub const LOAD_THREADS: usize = 2;

/// Runs `op` in [`LOAD_THREADS`] closed loops at once and returns each
/// thread's results in order; `op` receives the operation's index within its
/// thread. Each operation still runs on one thread; keeping both cores busy
/// makes a run's timings far steadier on a shared host, where one idle core
/// lets its sibling speed up and slow down with the host's other load.
pub fn closed_loop_pair<T: Send>(
    seconds: f64,
    min_ops: usize,
    op: impl Fn(usize) -> T + Sync,
) -> Vec<Vec<T>> {
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..LOAD_THREADS)
            .map(|_| {
                scope.spawn(|| {
                    let mut results = Vec::new();
                    closed_loop(seconds, min_ops, || results.push(op(results.len())));
                    results
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load threads do not panic"))
            .collect()
    })
}

pub fn secs(duration: Duration) -> f64 {
    duration.as_secs_f64()
}

fn usage(message: &str) -> ExitCode {
    eprintln!("error: {message}");
    eprintln!(
        "usage: mp-perfbench --workload <fleet_churn|surface_grid|paper_report|service_mix> \
         --seed <n> --seconds <s> --trace <0|1> [--size full|tiny] \
         [--paper-report <path>] [--state-dir <dir>]"
    );
    ExitCode::from(2)
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 2021,
        seconds: 10.0,
        trace: false,
        tiny: false,
        paper_report: PathBuf::from("target/release/paper-report"),
        state_dir: PathBuf::from("."),
    };
    let mut iter = std::env::args().skip(1);
    while let Some(flag) = iter.next() {
        let mut value = || iter.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|_| "--seed takes an integer")?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|_| "--seconds takes a number")?;
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--size" => {
                args.tiny = match value()?.as_str() {
                    "full" => false,
                    "tiny" => true,
                    _ => return Err("--size takes full or tiny".into()),
                }
            }
            "--paper-report" => args.paper_report = PathBuf::from(value()?),
            "--state-dir" => args.state_dir = PathBuf::from(value()?),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if args.workload.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(args)
}

fn command_output(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

fn json_string(text: &str) -> String {
    parasite::json::Json::Str(text.to_string()).to_string()
}

/// The host fingerprint printed with every result, followed by the host
/// probe's median time and the wall-clock medians of the time metrics.
fn fingerprint(run: &Run) -> String {
    let nproc = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(0);
    let git_rev = std::env::var("MP_BENCH_GIT_REV")
        .ok()
        .filter(|rev| !rev.is_empty())
        .unwrap_or_else(|| command_output("git", &["rev-parse", "HEAD"]));
    format!(
        "{{\"fingerprint\": {{\"workload\": {}, \"seed\": {}, \"trace\": {}, \"size\": {}, \
         \"seconds\": {}, \"nproc\": {nproc}, \"rustc\": {}, \"git_rev\": {}, \
         \"binary_fnv\": \"{:016x}\", \"threads\": {}, \"connections\": {}}}, \
         \"host_probe_s\": {:?}, \"wall\": {{{}}}}}",
        json_string(&run.args.workload),
        run.args.seed,
        u8::from(run.args.trace),
        json_string(if run.args.tiny { "tiny" } else { "full" }),
        run.args.seconds,
        json_string(&command_output("rustc", &["-V"])),
        json_string(&git_rev),
        binary_digest(),
        run.threads,
        run.connections,
        median(&run.probes),
        run.wall
            .iter()
            .map(|(name, value)| format!("\"{name}\": {value:?}"))
            .collect::<Vec<_>>()
            .join(", "),
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => return usage(&message),
    };
    if let Err(error) = std::fs::create_dir_all(&args.state_dir) {
        eprintln!(
            "error: cannot create the state directory {}: {error}",
            args.state_dir.display()
        );
        return ExitCode::from(1);
    }
    let workload: fn(&mut Run) -> Result<(), String> = match args.workload.as_str() {
        "fleet_churn" => fleet::run,
        "surface_grid" => surface::run,
        "paper_report" => report::run,
        "service_mix" => service::run,
        other => return usage(&format!("unknown workload {other:?}")),
    };
    let mut run = Run {
        args,
        tally: Tally::default(),
        values: BTreeMap::new(),
        counts: BTreeMap::new(),
        wall: BTreeMap::new(),
        probes: Vec::new(),
        threads: 1,
        connections: 0,
    };
    if let Err(message) = workload(&mut run) {
        // The workload could not run at all: no result line.
        eprintln!("error: {}: {message}", run.args.workload);
        return ExitCode::from(1);
    }
    run.gate_across_runs();
    if !run.args.trace {
        let ok = 1.0 - run.tally.failed as f64 / run.tally.attempted.max(1) as f64;
        run.set("ok_ratio", ok);
        run.set("peak_rss_mb", metrics::peak_rss_mb(None));
    }
    let names = if run.args.trace {
        PER_LAYER
    } else {
        END_TO_END
    };
    println!("{}", fingerprint(&run));
    let correct = run.tally.failed == 0;
    println!(
        "{}",
        metrics::result_line(correct, &run.tally, names, &run.values)
    );
    ExitCode::SUCCESS
}
