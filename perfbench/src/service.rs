//! `service_mix`: the only workload that reaches the daemon, the checkpoint
//! codec, the shard merge and the shard-worker processes. One run starts
//! `paper-report serve --serve-workers 2`, opens 2 connections, and repeats
//! a closed-loop round of
//!
//! * (a) watched `submit`s of a 5,000-client / 8-AP / 3-day campaign, in
//!   turn on each connection from its own thread;
//! * (b) a 200,000-client / 32-AP / 3-day campaign sent as two
//!   `shard_submit` halves, one per connection, decoded, merged and turned
//!   into the fleet result here;
//! * (c) the same campaign through `paper-report distribute --workers 2`.
//!
//! Every daemon artifact, merged artifact and `distribute` output must be
//! byte-equal to the in-process `report_json` of the same configuration.

use crate::metrics::{median, peak_rss_mb, quantile, Sample};
use crate::trace::Tracer;
use crate::{closed_loop, secs, Run, SETUP_REPS};
use mp_bench::report_json;
use parasite::experiments::{
    Artifact, ArtifactData, ExperimentId, Registry, RunConfig, ShardOutcome,
};
use parasite::json::{Json, ToJson};
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Connections to the daemon, one load-generator thread each.
const CONNECTIONS: usize = 2;
/// Watched submits per connection per round.
const SUBMITS_PER_CONNECTION: usize = 20;
/// Protocol error codes (PROTOCOL.md) and the metric counting each.
const CODES: [(&str, &str); 5] = [
    ("bad_request", "service.errors.bad_request"),
    ("queue_full", "service.errors.queue_full"),
    ("cancelled", "service.errors.cancelled"),
    ("internal", "service.errors.internal"),
    ("unavailable", "service.errors.unavailable"),
];

fn campaign(seed: u64, clients: usize, aps: usize, days: u32) -> RunConfig {
    RunConfig {
        seed,
        fleet_clients: clients,
        fleet_aps: aps,
        fleet_days: days,
        fleet_churn: 0.2,
        fleet_jobs: 1,
        ..RunConfig::default()
    }
}

/// The daemon child process; killed and reaped on drop unless it was shut
/// down cleanly.
struct Daemon {
    child: Option<Child>,
    socket: PathBuf,
}

impl Daemon {
    fn start(paper_report: &Path, socket: &Path) -> Result<Daemon, String> {
        let _ = std::fs::remove_file(socket);
        let child = Command::new(paper_report)
            .args(["serve", "--serve-workers", "2", "--socket"])
            .arg(socket)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|error| format!("cannot start {}: {error}", paper_report.display()))?;
        let mut daemon = Daemon {
            child: Some(child),
            socket: socket.to_path_buf(),
        };
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            if let Ok(mut conn) = Conn::open(socket) {
                conn.send("{\"op\":\"status\"}")?;
                let reply = conn.recv()?;
                if reply.starts_with("{\"type\":\"status\"") {
                    return Ok(daemon);
                }
                return Err(format!("unexpected status reply: {reply}"));
            }
            if let Some(status) = daemon
                .child
                .as_mut()
                .and_then(|c| c.try_wait().ok().flatten())
            {
                return Err(format!("the daemon exited with {status} before answering"));
            }
            if Instant::now() > deadline {
                return Err("the daemon did not answer status within 30 s".into());
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    fn pid(&self) -> Option<u32> {
        self.child.as_ref().map(Child::id)
    }

    /// Sends `shutdown` and waits for the daemon to exit.
    fn shutdown(mut self) -> Result<(), String> {
        let mut conn =
            Conn::open(&self.socket).map_err(|e| format!("cannot reach the daemon: {e}"))?;
        conn.send("{\"op\":\"shutdown\"}")?;
        let reply = conn.recv()?;
        let mut child = self.child.take().expect("running daemon");
        let deadline = Instant::now() + Duration::from_secs(30);
        while child.try_wait().map_err(|e| e.to_string())?.is_none() {
            if Instant::now() > deadline {
                let _ = child.kill();
                let _ = child.wait();
                return Err("the daemon did not exit within 30 s of shutdown".into());
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        if reply.starts_with("{\"type\":\"shutting_down\"") {
            Ok(())
        } else {
            Err(format!("unexpected shutdown reply: {reply}"))
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// One newline-JSON connection to the daemon.
struct Conn {
    reader: BufReader<UnixStream>,
    writer: UnixStream,
    lines: u64,
}

impl Conn {
    fn open(socket: &Path) -> std::io::Result<Conn> {
        let stream = UnixStream::connect(socket)?;
        stream.set_read_timeout(Some(Duration::from_secs(120)))?;
        Ok(Conn {
            writer: stream.try_clone()?,
            reader: BufReader::new(stream),
            lines: 0,
        })
    }

    fn send(&mut self, line: &str) -> Result<(), String> {
        self.writer
            .write_all(format!("{line}\n").as_bytes())
            .map_err(|e| format!("send failed: {e}"))
    }

    fn recv(&mut self) -> Result<String, String> {
        let mut line = String::new();
        match self.reader.read_line(&mut line) {
            Ok(0) => Err("the daemon closed the connection".into()),
            Ok(_) => {
                self.lines += 1;
                Ok(line.trim_end_matches('\n').to_string())
            }
            Err(error) => Err(format!("receive failed: {error}")),
        }
    }
}

/// The protocol error code of an `error` line (`"none"` if it has none).
fn error_code(line: &str) -> Option<String> {
    if !line.starts_with("{\"type\":\"error\"") {
        return None;
    }
    let json = Json::parse(line).ok()?;
    (json.get("type")?.as_str()? == "error").then(|| {
        json.get("code")
            .and_then(Json::as_str)
            .unwrap_or("none")
            .to_string()
    })
}

/// Timestamps and outcome of one watched submit.
struct Submit {
    sent: Instant,
    accepted: Instant,
    first_day: Instant,
    done: Instant,
    problems: Vec<String>,
    errors: Vec<String>,
}

fn watched_submit(conn: &mut Conn, config_json: &str, days: u32, reference: &str) -> Submit {
    let sent = Instant::now();
    let mut submit = Submit {
        sent,
        accepted: sent,
        first_day: sent,
        done: sent,
        problems: Vec::new(),
        errors: Vec::new(),
    };
    let request = format!(
        "{{\"op\":\"submit\",\"experiment\":\"campaign_fleet\",\"config\":{config_json},\"watch\":true}}"
    );
    if let Err(message) = conn.send(&request) {
        submit.problems.push(message);
        return submit;
    }
    let mut day_lines = 0u32;
    loop {
        let line = match conn.recv() {
            Ok(line) => line,
            Err(message) => {
                submit.problems.push(message);
                return submit;
            }
        };
        let now = Instant::now();
        if let Some(code) = error_code(&line) {
            submit.errors.push(code);
            submit.problems.push(format!("daemon error: {line}"));
            return submit;
        }
        if line.starts_with("{\"type\":\"accepted\"") {
            submit.accepted = now;
        } else if line.starts_with("{\"type\":\"day\"") {
            if day_lines == 0 {
                submit.first_day = now;
            }
            day_lines += 1;
        } else if line.starts_with("{\"type\":\"done\"") {
            submit.done = now;
            if day_lines != days {
                submit
                    .problems
                    .push(format!("{day_lines} day lines for {days} days"));
            }
            match line
                .split_once("\"artifact\":")
                .and_then(|(_, rest)| rest.strip_suffix("}}"))
            {
                Some(artifact) if artifact == reference => {}
                Some(_) => submit
                    .problems
                    .push("daemon artifact differs from the in-process one".into()),
                None => submit
                    .problems
                    .push(format!("done without an artifact: {line}")),
            }
            return submit;
        } else {
            submit.problems.push(format!("unexpected line: {line}"));
            return submit;
        }
    }
}

/// Raw `outcome` document of a `shard_result` line.
fn outcome_of(line: &str) -> Option<&str> {
    line.strip_prefix("{\"type\":\"shard_result\"")?
        .split_once("\"outcome\":")
        .and_then(|(_, rest)| rest.strip_suffix('}'))
}

/// The two references a round's outputs are compared with.
struct References {
    submit_config: RunConfig,
    submit_config_json: String,
    submit_artifact: String,
    submit_exposed: u64,
    campaign_config: RunConfig,
    campaign_config_json: String,
    campaign_report: String,
    campaign_exposed: u64,
}

fn exposed(artifact: &Artifact) -> u64 {
    artifact.data.as_campaign_fleet().map_or(0, |fleet| {
        fleet.day_stats.iter().map(|day| day.exposed as u64).sum()
    })
}

fn references(seed: u64, tiny: bool) -> Result<References, String> {
    let submit_config = if tiny {
        campaign(seed, 500, 2, 3)
    } else {
        campaign(seed, 5_000, 8, 3)
    };
    let campaign_config = if tiny {
        campaign(seed, 2_000, 4, 3)
    } else {
        campaign(seed, 200_000, 32, 3)
    };
    let run = |config: &RunConfig| {
        Registry::get(ExperimentId::CampaignFleet)
            .try_run(config)
            .map_err(|error| format!("in-process reference failed: {error}"))
    };
    let submit = run(&submit_config)?;
    let whole = run(&campaign_config)?;
    Ok(References {
        submit_config_json: submit_config.to_json().to_string(),
        submit_artifact: submit.to_json().to_string(),
        submit_exposed: exposed(&submit),
        submit_config,
        campaign_config_json: campaign_config.to_json().to_string(),
        campaign_report: report_json(&campaign_config, std::slice::from_ref(&whole)).to_string(),
        campaign_exposed: exposed(&whole),
        campaign_config,
    })
}

/// What one round measured.
#[derive(Default)]
struct Round {
    wall_s: f64,
    races: u64,
    submits: Vec<Submit>,
    shard_round_s: f64,
    decode_s: f64,
    merge_s: f64,
    encode_s: f64,
    reply_bytes: u64,
    distribute_s: f64,
    retries: u64,
    problems: Vec<String>,
}

/// (b): both halves on the two connections at once, then decode, merge and
/// convert here.
fn shard_round(conns: &mut [Conn], refs: &References, round: &mut Round, encode: bool) {
    let config = &refs.campaign_config;
    let aps = config.fleet_aps;
    let halves = [(0, aps / 2), (aps / 2, aps - aps / 2)];
    let start = Instant::now();
    let replies: Vec<Result<String, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = conns
            .iter_mut()
            .zip(halves)
            .map(|(conn, (first_ap, count))| {
                let request = format!(
                    "{{\"op\":\"shard_submit\",\"config\":{},\"first_ap\":{first_ap},\"aps\":{count}}}",
                    refs.campaign_config_json
                );
                scope.spawn(move || conn.send(&request).and_then(|()| conn.recv()))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|_| Err("thread panicked".into())))
            .collect()
    });
    let decode_start = Instant::now();
    let mut outcomes = Vec::new();
    for reply in &replies {
        let decoded = reply.as_ref().map_err(Clone::clone).and_then(|line| {
            let outcome = outcome_of(line).ok_or_else(|| format!("not a shard_result: {line}"))?;
            round.reply_bytes += outcome.len() as u64;
            let json = Json::parse(outcome).map_err(|e| e.to_string())?;
            ShardOutcome::from_checkpoint_json(&json, config)
        });
        match decoded {
            Ok(outcome) => outcomes.push(outcome),
            Err(message) => round.problems.push(format!("shard half: {message}")),
        }
    }
    let merge_start = Instant::now();
    round.decode_s = secs(merge_start - decode_start);
    if outcomes.len() != 2 {
        return;
    }
    let second = outcomes.pop().expect("two halves");
    let merged = match outcomes.pop().expect("two halves").merge(second) {
        Ok(merged) => merged,
        Err(message) => return round.problems.push(format!("merge failed: {message}")),
    };
    let encode_s = encode.then(|| {
        let start = Instant::now();
        let _ = merged.to_checkpoint_json(config).to_string();
        secs(start.elapsed())
    });
    let converted = merged.into_fleet_result(config);
    let end = Instant::now();
    round.merge_s = secs(end - merge_start) - encode_s.unwrap_or(0.0);
    round.encode_s = encode_s.unwrap_or(0.0);
    round.shard_round_s = secs(end - start) - round.encode_s;
    match converted {
        Ok(fleet) => {
            let artifact = Artifact {
                id: ExperimentId::CampaignFleet,
                config: *config,
                data: ArtifactData::CampaignFleet(fleet),
            };
            if report_json(config, &[artifact]).to_string() != refs.campaign_report {
                round
                    .problems
                    .push("merged shard artifact differs from the in-process one".into());
            }
            round.races += refs.campaign_exposed;
        }
        Err(error) => round
            .problems
            .push(format!("merged outcome does not convert: {error}")),
    }
}

/// (c): `paper-report distribute --workers 2` as a child process.
fn distribute(paper_report: &Path, refs: &References, round: &mut Round) {
    let config = &refs.campaign_config;
    let start = Instant::now();
    let output = Command::new(paper_report)
        .args(["distribute", "--workers", "2", "--only", "campaign_fleet"])
        .args(["--fleet-clients", &config.fleet_clients.to_string()])
        .args(["--fleet-aps", &config.fleet_aps.to_string()])
        .args(["--fleet-days", &config.fleet_days.to_string()])
        .args(["--fleet-churn", &config.fleet_churn.to_string()])
        .args(["--fleet-jobs", &config.fleet_jobs.to_string()])
        .args(["--seed", &config.seed.to_string(), "--json"])
        .stdin(Stdio::null())
        .output();
    round.distribute_s = secs(start.elapsed());
    match output {
        Err(error) => round
            .problems
            .push(format!("cannot run distribute: {error}")),
        Ok(output) => {
            let stderr = String::from_utf8_lossy(&output.stderr);
            round.retries += stderr.matches("retrying").count() as u64;
            if !output.status.success() {
                round.problems.push(format!(
                    "distribute exited with {}: {stderr}",
                    output.status
                ));
            } else if String::from_utf8_lossy(&output.stdout).trim_end() != refs.campaign_report {
                round
                    .problems
                    .push("distribute output differs from the in-process report".into());
            } else {
                round.races += refs.campaign_exposed;
            }
            if round.retries > 0 {
                round
                    .problems
                    .push(format!("distribute retried {} time(s)", round.retries));
            }
        }
    }
}

fn round(conns: &mut [Conn], paper_report: &Path, refs: &References, traced: bool) -> Round {
    let mut round = Round::default();
    let start = Instant::now();
    // (a) watched submits, one load-generator thread per connection.
    let submits: Vec<Vec<Submit>> = std::thread::scope(|scope| {
        let handles: Vec<_> = conns
            .iter_mut()
            .map(|conn| {
                scope.spawn(move || {
                    (0..SUBMITS_PER_CONNECTION)
                        .map(|_| {
                            watched_submit(
                                conn,
                                &refs.submit_config_json,
                                refs.submit_config.fleet_days,
                                &refs.submit_artifact,
                            )
                        })
                        .collect()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("submit threads do not panic"))
            .collect()
    });
    round.submits = submits.into_iter().flatten().collect();
    round.races += refs.submit_exposed * round.submits.len() as u64;
    shard_round(conns, refs, &mut round, traced);
    distribute(paper_report, refs, &mut round);
    round.wall_s = secs(start.elapsed());
    for submit in &round.submits {
        round.problems.extend(submit.problems.iter().cloned());
    }
    round
}

/// One `shard_run` assignment sent straight to a `paper-report shard-worker`
/// child: (reply seconds, reply bytes).
fn shard_worker_probe(paper_report: &Path, refs: &References) -> Result<(f64, u64), String> {
    let mut child = Command::new(paper_report)
        .arg("shard-worker")
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .map_err(|error| format!("cannot start shard-worker: {error}"))?;
    let aps = refs.campaign_config.fleet_aps / 2;
    let request = format!(
        "{{\"op\":\"shard_run\",\"config\":{},\"first_ap\":0,\"aps\":{aps}}}\n",
        refs.campaign_config_json
    );
    let start = Instant::now();
    let mut stdin = child.stdin.take().expect("piped stdin");
    let mut reply = String::new();
    let outcome = stdin
        .write_all(request.as_bytes())
        .map_err(|e| e.to_string())
        .and_then(|()| {
            let stdout = child.stdout.as_mut().expect("piped stdout");
            BufReader::new(stdout)
                .read_line(&mut reply)
                .map_err(|e| e.to_string())
        });
    let reply_s = secs(start.elapsed());
    drop(stdin);
    let status = child.wait().map_err(|e| e.to_string())?;
    outcome?;
    let reply = reply.trim_end();
    if !status.success() || !reply.starts_with("{\"type\":\"shard_result\"") {
        return Err(format!(
            "shard-worker replied {reply:?} and exited with {status}"
        ));
    }
    Ok((reply_s, reply.len() as u64))
}

pub fn run(run: &mut Run) -> Result<(), String> {
    run.threads = CONNECTIONS;
    run.connections = CONNECTIONS;
    let socket = run
        .args
        .state_dir
        .join(format!("daemon-{}.sock", std::process::id()));
    let paper_report = run.args.paper_report.clone();
    let mut setups = Vec::new();
    let mut ready = None;
    for rep in 0..SETUP_REPS {
        let (sample, started) = Sample::measure(|| -> Result<_, String> {
            let daemon = Daemon::start(&paper_report, &socket)?;
            Ok((daemon, references(run.args.seed, run.args.tiny)?))
        });
        let (daemon, refs) = started?;
        setups.push(sample);
        if rep + 1 < SETUP_REPS {
            daemon.shutdown()?;
        } else {
            ready = Some((daemon, refs));
        }
    }
    let (daemon, refs) = ready.expect("at least one setup");
    let mut conns = (0..CONNECTIONS)
        .map(|_| Conn::open(&socket).map_err(|e| format!("cannot connect: {e}")))
        .collect::<Result<Vec<_>, _>>()?;

    let traced = run.args.trace;
    let mut tracer = Tracer::new(traced);
    let mut rounds = Vec::new();
    let mut samples = Vec::new();
    let mut probes = Vec::new();
    let mut span_record_s = 0.0;
    closed_loop(run.args.seconds, 2, || {
        let (sample, round) = Sample::measure(|| round(&mut conns, &paper_report, &refs, traced));
        samples.push((round.races, sample));
        run.tally.record("service round", &round.problems);
        if traced {
            let start = Instant::now();
            record_spans(&mut tracer, &round);
            span_record_s += secs(start.elapsed());
            match shard_worker_probe(&paper_report, &refs) {
                Ok(probe) => {
                    run.gate("shard_worker.reply_bytes", probe.1);
                    probes.push(probe);
                }
                Err(message) => run.tally.fail("shard-worker probe", &message),
            }
            run.gate("json.reply_bytes", round.reply_bytes);
        }
        rounds.push(round);
    });
    let lines: u64 = conns.iter().map(|conn| conn.lines).sum();
    drop(conns);
    let daemon_rss = daemon.pid().map_or(0.0, |pid| peak_rss_mb(Some(pid)));
    let shutdown = daemon.shutdown();
    let _ = std::fs::remove_file(&socket);
    if let Err(message) = shutdown {
        run.tally.fail("daemon shutdown", &message);
    }

    let of = |f: &dyn Fn(&Round) -> f64| median(&rounds.iter().map(f).collect::<Vec<_>>());
    if !traced {
        run.set_time("setup_s", &setups);
        run.set_time(
            "report_s",
            &samples
                .iter()
                .map(|(_, sample)| *sample)
                .collect::<Vec<_>>(),
        );
        run.set_rate("races_per_s", &samples);
        return Ok(());
    }
    let submits: Vec<&Submit> = rounds
        .iter()
        .flat_map(|r| &r.submits)
        .filter(|s| s.problems.is_empty())
        .collect();
    let latency =
        |f: &dyn Fn(&Submit) -> Duration| submits.iter().map(|s| secs(f(s))).collect::<Vec<_>>();
    let done = latency(&|s| s.done - s.sent);
    run.set(
        "service.accept_s",
        median(&latency(&|s| s.accepted - s.sent)),
    );
    run.set(
        "service.first_day_s",
        median(&latency(&|s| s.first_day - s.accepted)),
    );
    run.set(
        "service.stream_s",
        median(&latency(&|s| s.done - s.first_day)),
    );
    run.set("service.submit_done_p50_s", median(&done));
    // A p90 needs at least 10 samples beyond it.
    run.set(
        "service.submit_done_p90_s",
        if done.len() >= 100 {
            quantile(&done, 0.9)
        } else {
            0.0
        },
    );
    run.set("service.submit_samples", done.len() as f64);
    run.set("service.shard_round_s", of(&|r| r.shard_round_s));
    run.set("service.lines", lines as f64);
    let errors: Vec<&String> = rounds
        .iter()
        .flat_map(|r| r.submits.iter().flat_map(|s| &s.errors))
        .collect();
    run.set("service.errors", errors.len() as f64);
    for (code, name) in CODES {
        run.set(
            name,
            errors.iter().filter(|e| e.as_str() == code).count() as f64,
        );
    }
    run.set("service.daemon_rss_mb", daemon_rss);
    run.set("json.decode_s", of(&|r| r.decode_s));
    run.set("json.encode_s", of(&|r| r.encode_s));
    run.set(
        "json.reply_bytes",
        rounds.last().map_or(0, |r| r.reply_bytes) as f64,
    );
    run.set("experiments.merge_s", of(&|r| r.merge_s));
    run.set(
        "shard_worker.reply_s",
        median(&probes.iter().map(|p| p.0).collect::<Vec<_>>()),
    );
    run.set(
        "shard_worker.reply_bytes",
        probes.last().map_or(0, |p| p.1) as f64,
    );
    run.set("distribute.wall_s", of(&|r| r.distribute_s));
    run.set(
        "distribute.retries",
        rounds.iter().map(|r| r.retries).sum::<u64>() as f64,
    );
    // The timestamps are taken with tracing off too; tracing adds the span
    // records, so their cost over the rounds' time is the overhead.
    run.set(
        "trace.overhead_share",
        span_record_s / rounds.iter().map(|r| r.wall_s).sum::<f64>(),
    );
    let totals = tracer.take_totals();
    run.set(
        "trace.spans",
        totals.values().map(|t| t.count).sum::<u64>() as f64,
    );
    run.write_spans(&tracer);
    Ok(())
}

/// Turns one round's timestamps into spans: a root per round, a span per
/// submit with its accept / first-day / stream phases, the shard round and
/// the distribute child.
fn record_spans(tracer: &mut Tracer, round: &Round) {
    tracer.begin_op();
    for submit in &round.submits {
        let root = tracer.record("service.submit", submit.sent, submit.done, None);
        tracer.record("service.accept", submit.sent, submit.accepted, Some(root));
        tracer.record(
            "service.first_day",
            submit.accepted,
            submit.first_day,
            Some(root),
        );
        tracer.record("service.stream", submit.first_day, submit.done, Some(root));
    }
}
