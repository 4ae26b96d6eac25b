//! Deterministic fault injection for the distributed-campaign paths.
//!
//! Chaos tests are only worth having when their chaos is reproducible. The
//! `MP_FAULT_PLAN` environment variable carries a seeded fault plan — a
//! comma-separated list of `kind@sequence` entries such as
//! `crash@2,hang@5,garble@1,torn@1,seed=7` — that the `shard-worker`
//! process loop, the `distribute` coordinator and the daemon's
//! `shard_submit` path all consult. Each entry arms exactly one fault at a
//! 1-based position in a *global* sequence:
//!
//! * `crash@n` — the process serving the `n`-th shard assignment exits with
//!   code 3 before replying (a worker death / OOM kill).
//! * `hang@n` — the process serving the `n`-th assignment sleeps
//!   indefinitely instead of replying (a wedged worker the coordinator must
//!   detect via its shard timeout).
//! * `garble@n` — the `n`-th assignment's reply line is truncated at a
//!   seeded cut point (a torn pipe / dropped ssh connection mid-line).
//! * `torn@n` — the coordinator's `n`-th journal write is torn: a truncated
//!   document lands at the final path and the coordinator dies (a power cut
//!   mid-write; the journal scan must discard the fragment on resume).
//!
//! Workers are fresh processes (one per assignment), so a process-local
//! counter cannot number the global sequence. When `MP_FAULT_DIR` names a
//! shared directory, sequence numbers are claimed *cross-process* by
//! atomically creating `assign-NNNNNN` / `journal-NNNNNN` marker files
//! (`create_new` is the atomic claim, the same trick the old crash latch
//! used); the `distribute` coordinator provisions such a directory
//! automatically and hands it to its children. Without a directory the plan
//! falls back to process-local atomic counters (the daemon's in-process
//! case). Either way a claimed fault stays claimed: re-running with the
//! same directory cannot re-fire a spent fault, which is exactly what a
//! resume-after-chaos test wants.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

/// Environment variable carrying the fault-plan spec.
pub const FAULT_PLAN_ENV: &str = "MP_FAULT_PLAN";

/// Environment variable naming the shared claim directory that makes the
/// fault sequence global across worker processes.
pub const FAULT_DIR_ENV: &str = "MP_FAULT_DIR";

/// Seed-stream tag for the garble cut-point draws.
pub(super) const GARBLE_TAG: u64 = 0x9a2b_1e00_0000_0000;

/// One kind of injected fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Exit with code 3 before replying.
    Crash,
    /// Sleep indefinitely instead of replying.
    Hang,
    /// Truncate the reply line at a seeded cut point.
    Garble,
    /// Tear a journal write: publish a truncated document, then die.
    Torn,
}

impl FaultKind {
    fn parse(name: &str) -> Option<FaultKind> {
        match name {
            "crash" => Some(FaultKind::Crash),
            "hang" => Some(FaultKind::Hang),
            "garble" => Some(FaultKind::Garble),
            "torn" => Some(FaultKind::Torn),
            _ => None,
        }
    }
}

/// A parsed, armed fault plan. `crash`/`hang`/`garble` entries index the
/// assignment sequence (claimed by [`claim_assignment`]); `torn` entries
/// index the journal-write sequence (claimed by [`claim_journal`]). The two
/// sequences are independent, so a plan can tear journal write 1 while
/// assignment 1 runs clean.
///
/// [`claim_assignment`]: FaultPlan::claim_assignment
/// [`claim_journal`]: FaultPlan::claim_journal
#[derive(Debug)]
pub struct FaultPlan {
    /// Faults armed on the shard-assignment sequence, by 1-based position.
    assignment: BTreeMap<u64, FaultKind>,
    /// Faults armed on the journal-write sequence, by 1-based position.
    journal: BTreeMap<u64, FaultKind>,
    /// Seed of the garble cut-point draws.
    seed: u64,
    /// Shared claim directory; `None` falls back to the local counters.
    dir: Option<PathBuf>,
    /// Process-local assignment counter (no shared directory).
    local_assignment: AtomicU64,
    /// Process-local journal counter (no shared directory).
    local_journal: AtomicU64,
}

impl FaultPlan {
    /// Parses a plan spec: comma-separated `kind@sequence` entries plus an
    /// optional `seed=<n>`. Sequences are 1-based; duplicate positions in
    /// one sequence are rejected (they would be ambiguous).
    pub fn parse(spec: &str) -> Result<FaultPlan, String> {
        let mut plan = FaultPlan {
            assignment: BTreeMap::new(),
            journal: BTreeMap::new(),
            seed: 0,
            dir: None,
            local_assignment: AtomicU64::new(0),
            local_journal: AtomicU64::new(0),
        };
        for entry in spec.split(',').map(str::trim).filter(|entry| !entry.is_empty()) {
            if let Some(seed) = entry.strip_prefix("seed=") {
                plan.seed = seed
                    .parse::<u64>()
                    .map_err(|_| format!("{FAULT_PLAN_ENV}: seed must be an integer, got {seed:?}"))?;
                continue;
            }
            let Some((name, sequence)) = entry.split_once('@') else {
                return Err(format!(
                    "{FAULT_PLAN_ENV}: expected kind@sequence (e.g. crash@2), got {entry:?}"
                ));
            };
            let kind = FaultKind::parse(name).ok_or_else(|| {
                format!(
                    "{FAULT_PLAN_ENV}: unknown fault kind {name:?} \
                     (expected crash, hang, garble or torn)"
                )
            })?;
            let sequence = sequence
                .parse::<u64>()
                .ok()
                .filter(|&n| n >= 1)
                .ok_or_else(|| {
                    format!(
                        "{FAULT_PLAN_ENV}: {name}@ needs a 1-based sequence number, \
                         got {sequence:?}"
                    )
                })?;
            let map = match kind {
                FaultKind::Torn => &mut plan.journal,
                _ => &mut plan.assignment,
            };
            if map.insert(sequence, kind).is_some() {
                return Err(format!(
                    "{FAULT_PLAN_ENV}: two faults armed at the same position {entry:?}"
                ));
            }
        }
        Ok(plan)
    }

    /// Reads the plan (and the shared claim directory) from the
    /// environment. `Ok(None)` when no plan is armed; `Err` on a malformed
    /// spec — the spec names the fault a test *depends on*, so silently
    /// ignoring a typo would pass a chaos test that injected nothing.
    pub fn from_env() -> Result<Option<FaultPlan>, String> {
        let spec = match std::env::var(FAULT_PLAN_ENV) {
            Ok(spec) if !spec.trim().is_empty() => spec,
            _ => return Ok(None),
        };
        let mut plan = FaultPlan::parse(&spec)?;
        if let Ok(dir) = std::env::var(FAULT_DIR_ENV) {
            if !dir.trim().is_empty() {
                plan = plan.with_dir(PathBuf::from(dir))?;
            }
        }
        Ok(Some(plan))
    }

    /// The process-wide plan, read from the environment once — the hook the
    /// daemon's `shard_submit` path uses. A malformed spec is reported to
    /// stderr (once) and disarms the plan.
    pub fn global() -> Option<&'static FaultPlan> {
        static PLAN: OnceLock<Option<FaultPlan>> = OnceLock::new();
        PLAN.get_or_init(|| match FaultPlan::from_env() {
            Ok(plan) => plan,
            Err(message) => {
                eprintln!("warning: ignoring malformed fault plan: {message}");
                None
            }
        })
        .as_ref()
    }

    /// Routes sequence claims through `dir`, creating it if necessary, so
    /// the sequence is shared by every process pointed at the directory.
    pub fn with_dir(mut self, dir: PathBuf) -> Result<FaultPlan, String> {
        std::fs::create_dir_all(&dir).map_err(|error| {
            format!("{FAULT_DIR_ENV}: cannot create {}: {error}", dir.display())
        })?;
        self.dir = Some(dir);
        Ok(self)
    }

    /// The shared claim directory, when one is configured.
    pub fn dir(&self) -> Option<&Path> {
        self.dir.as_deref()
    }

    /// Claims the next position in the assignment sequence and returns the
    /// fault armed there, if any. Call once per shard assignment served.
    pub fn claim_assignment(&self) -> Option<FaultKind> {
        let sequence = self.next_sequence("assign", &self.local_assignment);
        self.assignment.get(&sequence).copied()
    }

    /// Claims the next assignment and acts out the fault armed there: exit
    /// with code 3 on `crash`, sleep until killed on `hang`. Returns whether
    /// the reply line must be [`garble`](Self::garble)d. The one fault hook
    /// of every process that serves shard assignments.
    pub fn enact_assignment(&self) -> bool {
        match self.claim_assignment() {
            Some(FaultKind::Crash) => std::process::exit(3),
            Some(FaultKind::Hang) => loop {
                // Until the coordinator's shard timeout kills this process.
                std::thread::sleep(std::time::Duration::from_secs(3600));
            },
            // A torn pipe write and a garbled line look the same to the
            // coordinator: a strict prefix that can never parse whole.
            Some(FaultKind::Garble | FaultKind::Torn) => true,
            None => false,
        }
    }

    /// Claims the next position in the journal-write sequence and returns
    /// the fault armed there, if any. Call once per journal entry written.
    pub fn claim_journal(&self) -> Option<FaultKind> {
        let sequence = self.next_sequence("journal", &self.local_journal);
        self.journal.get(&sequence).copied()
    }

    /// The seeded garbling of a reply `line`: a strict prefix, cut back to a
    /// char boundary, so a truncated JSON object can never parse whole.
    pub fn garble<'a>(&self, line: &'a str) -> &'a str {
        if line.is_empty() {
            return line;
        }
        let len = line.len() as u64;
        let mut cut = (super::campaign::mix_seed(self.seed, GARBLE_TAG ^ len) % len) as usize;
        while !line.is_char_boundary(cut) {
            cut -= 1;
        }
        &line[..cut]
    }

    /// Atomically claims the next 1-based sequence number: via `create_new`
    /// marker files in the shared directory when one is configured (the
    /// cross-process path), else via the local counter.
    fn next_sequence(&self, prefix: &str, local: &AtomicU64) -> u64 {
        let Some(dir) = &self.dir else {
            return local.fetch_add(1, Ordering::Relaxed) + 1;
        };
        let mut sequence = 1u64;
        loop {
            let claim = dir.join(format!("{prefix}-{sequence:06}"));
            match std::fs::OpenOptions::new().write(true).create_new(true).open(&claim) {
                Ok(_) => return sequence,
                Err(error) if error.kind() == std::io::ErrorKind::AlreadyExists => {
                    sequence += 1;
                }
                // The directory vanished or is unwritable: degrade to the
                // local counter rather than spin (or worse, panic).
                Err(_) => return local.fetch_add(1, Ordering::Relaxed) + 1,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn specs_parse_into_the_two_sequences() {
        let plan = FaultPlan::parse("crash@2,hang@5,garble@1,torn@3,seed=7").expect("parses");
        assert_eq!(plan.assignment.len(), 3);
        assert_eq!(plan.assignment.get(&2), Some(&FaultKind::Crash));
        assert_eq!(plan.assignment.get(&5), Some(&FaultKind::Hang));
        assert_eq!(plan.assignment.get(&1), Some(&FaultKind::Garble));
        assert_eq!(plan.journal.get(&3), Some(&FaultKind::Torn));
        assert_eq!(plan.seed, 7);
        // Whitespace and empty entries are tolerated; an empty spec is a
        // no-fault plan.
        assert!(FaultPlan::parse(" crash@1 , ,seed=1 ").is_ok());
        assert!(FaultPlan::parse("").expect("empty is fine").assignment.is_empty());
    }

    #[test]
    fn malformed_specs_are_rejected_with_pointed_messages() {
        let cases = [
            ("crash", "kind@sequence"),
            ("fly@1", "unknown fault kind"),
            ("crash@0", "1-based"),
            ("crash@x", "1-based"),
            ("crash@1,crash@1", "same position"),
            ("crash@1,garble@1", "same position"),
            ("seed=abc", "seed"),
        ];
        for (spec, expected) in cases {
            let error = FaultPlan::parse(spec).expect_err(spec);
            assert!(error.contains(expected), "{spec:?}: got {error:?}");
        }
        // Crash and torn at the same position live in different sequences.
        assert!(FaultPlan::parse("crash@1,torn@1").is_ok());
    }

    #[test]
    fn local_claims_walk_the_sequences_independently() {
        let plan = FaultPlan::parse("crash@2,torn@1").expect("parses");
        assert_eq!(plan.claim_assignment(), None);
        assert_eq!(plan.claim_assignment(), Some(FaultKind::Crash));
        assert_eq!(plan.claim_assignment(), None);
        // The journal sequence did not move while assignments were claimed.
        assert_eq!(plan.claim_journal(), Some(FaultKind::Torn));
        assert_eq!(plan.claim_journal(), None);
    }

    #[test]
    fn directory_claims_are_shared_across_plans() {
        let dir = std::env::temp_dir().join(format!("mp-fault-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        // Two plan instances simulate two worker processes: their claims
        // interleave through the shared directory, so the sequence is
        // global — each position fires exactly once.
        let a = FaultPlan::parse("crash@2,garble@3")
            .expect("parses")
            .with_dir(dir.clone())
            .expect("dir");
        let b = FaultPlan::parse("crash@2,garble@3")
            .expect("parses")
            .with_dir(dir.clone())
            .expect("dir");
        assert_eq!(a.claim_assignment(), None); // position 1
        assert_eq!(b.claim_assignment(), Some(FaultKind::Crash)); // position 2
        assert_eq!(a.claim_assignment(), Some(FaultKind::Garble)); // position 3
        assert_eq!(b.claim_assignment(), None); // position 4
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn garble_points_are_deterministic_strict_prefixes() {
        let plan = FaultPlan::parse("seed=42").expect("parses");
        let again = FaultPlan::parse("seed=42").expect("parses");
        let mut lines: Vec<String> = [0, 1, 2, 17, 1024, 65536].map(|len| "x".repeat(len)).into();
        // A multi-byte reply: the cut must walk back to a char boundary.
        lines.push("{\"note\":\"é—🦀\"}".repeat(36));
        for line in &lines {
            let cut = plan.garble(line);
            assert!(line.is_empty() || cut.len() < line.len(), "{cut:?} is not a strict prefix");
            assert!(line.starts_with(cut));
            assert_eq!(cut, again.garble(line), "same seed, same cut");
        }
        // A different seed moves the cut for at least some lengths.
        let other = FaultPlan::parse("seed=43").expect("parses");
        assert!((2usize..200).any(|len| {
            let line = "x".repeat(len);
            plan.garble(&line) != other.garble(&line)
        }));
    }
}
