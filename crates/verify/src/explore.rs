//! Small-scope exhaustive schedule exploration.
//!
//! The coordinator's only source of schedule nondeterminism is which of
//! several *equal-virtual-time* requests it services first
//! (`ksr_machine::ScheduleOracle`). This module enumerates that space:
//! every run is identified by its **decision vector** — the branch taken
//! at each choice point, where a choice point is a moment with two or
//! more tied requests. The driver ([`explore`]) performs a depth-first
//! walk over decision-vector prefixes:
//!
//! 1. run the machine under a `ReplayOracle` with the current prefix
//!    (past the prefix the oracle answers 0, the default order);
//! 2. the run reports back the *actual* fanout and decision at every
//!    choice point it encountered;
//! 3. for each choice point at or beyond the prefix, every untaken
//!    branch becomes a new child prefix.
//!
//! This enumerates each complete decision vector exactly once, in
//! lexicographic order (deterministic output), bounded by a run budget
//! and a choice-point depth. A per-run **state hash** counts distinct
//! terminal states.
//!
//! The module is machine-agnostic: the caller supplies a closure that
//! runs one schedule and reports its [`RunOutcome`], so `ksr-verify`
//! keeps its no-`ksr-machine` dependency rule and the explorer is
//! testable with synthetic tree shapes.

use std::collections::BTreeSet;

/// Exploration bounds.
#[derive(Debug, Clone, Copy)]
pub struct ExploreConfig {
    /// Hard cap on schedules run; hitting it sets
    /// [`ExploreReport::truncated`].
    pub max_runs: usize,
    /// Choice points beyond this depth are never branched on (their
    /// default resolution is still taken).
    pub max_choice_points: usize,
}

impl Default for ExploreConfig {
    fn default() -> Self {
        Self {
            max_runs: 4096,
            max_choice_points: 64,
        }
    }
}

/// What one schedule produced, reported by the caller's runner closure.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// Fanout (number of tied processors) at each choice point hit.
    pub fanouts: Vec<usize>,
    /// Branch actually taken at each choice point (prefix replay, then
    /// zeros).
    pub decisions: Vec<usize>,
    /// A hash of the run's terminal state (final memory values, end
    /// times, violation labels — caller's choice, but it must be
    /// schedule-independent-noise-free).
    pub state_hash: u64,
    /// Violations this schedule exposed, as `(kind, descriptor)` pairs.
    /// Descriptors must be stable across schedules (no timestamps), so
    /// the same bug found under two interleavings deduplicates.
    pub violations: Vec<(String, String)>,
}

/// One violation with the first schedule that exposed it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WitnessedViolation {
    /// Violation class (`"coherence"`, `"race"`, `"invariant"`, ...).
    pub kind: String,
    /// Stable descriptor of the specific violation.
    pub what: String,
    /// The decision vector of the first schedule that exposed it: replay
    /// it through a `ReplayOracle` to reproduce.
    pub schedule: Vec<usize>,
}

/// The result of one exploration.
#[derive(Debug, Clone)]
pub struct ExploreReport {
    /// Schedules actually run.
    pub runs: usize,
    /// Whether the run budget cut enumeration short.
    pub truncated: bool,
    /// Distinct terminal state hashes seen.
    pub distinct_states: usize,
    /// Deduplicated violations, each with its first witness schedule, in
    /// discovery order (deterministic).
    pub violations: Vec<WitnessedViolation>,
}

impl ExploreReport {
    /// Whether every explored schedule was violation-free.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Exhaustively explore the schedule space of `runner`, depth-first in
/// lexicographic decision order.
///
/// `runner` receives a decision-vector prefix, must run the workload
/// once under a replay oracle seeded with it, and report the outcome.
/// With a sufficient budget the walk visits every schedule reachable
/// within `max_choice_points`; the witness schedule attached to each
/// violation is the lexicographically first one exposing it.
pub fn explore(
    cfg: ExploreConfig,
    mut runner: impl FnMut(&[usize]) -> RunOutcome,
) -> ExploreReport {
    let mut stack: Vec<Vec<usize>> = vec![Vec::new()];
    let mut runs = 0;
    let mut truncated = false;
    let mut states: BTreeSet<u64> = BTreeSet::new();
    let mut seen_violations: BTreeSet<(String, String)> = BTreeSet::new();
    let mut violations: Vec<WitnessedViolation> = Vec::new();

    while let Some(prefix) = stack.pop() {
        if runs >= cfg.max_runs {
            truncated = true;
            break;
        }
        runs += 1;
        let outcome = runner(&prefix);
        debug_assert_eq!(
            outcome.fanouts.len(),
            outcome.decisions.len(),
            "runner must report one decision per choice point"
        );
        states.insert(outcome.state_hash);
        for (kind, what) in &outcome.violations {
            if seen_violations.insert((kind.clone(), what.clone())) {
                violations.push(WitnessedViolation {
                    kind: kind.clone(),
                    what: what.clone(),
                    schedule: outcome.decisions.clone(),
                });
            }
        }
        // Children: flip each not-yet-fixed choice point. Only positions
        // at or beyond the prefix can branch (earlier ones were fixed by
        // an ancestor), which makes every decision vector reachable
        // exactly once. Push in reverse so the stack pops lexicographic
        // order.
        let first_free = prefix.len();
        let horizon = outcome.fanouts.len().min(cfg.max_choice_points);
        for i in (first_free..horizon).rev() {
            for alt in (outcome.decisions[i] + 1..outcome.fanouts[i]).rev() {
                let mut child: Vec<usize> = outcome.decisions[..i].to_vec();
                child.push(alt);
                stack.push(child);
            }
        }
    }

    ExploreReport {
        runs,
        truncated,
        distinct_states: states.len(),
        violations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A synthetic workload: `depth` binary choice points; the "state"
    /// is the decision vector interpreted as a binary number; a
    /// violation hides at one specific schedule.
    fn binary_tree_runner(
        depth: usize,
        bug_at: &[usize],
    ) -> impl FnMut(&[usize]) -> RunOutcome + '_ {
        move |prefix: &[usize]| {
            let mut decisions: Vec<usize> = Vec::with_capacity(depth);
            for i in 0..depth {
                decisions.push(prefix.get(i).copied().unwrap_or(0).min(1));
            }
            let state = decisions.iter().fold(0u64, |acc, &d| acc * 2 + d as u64);
            let violations = if decisions == bug_at {
                vec![("invariant".to_string(), "hidden bug".to_string())]
            } else {
                Vec::new()
            };
            RunOutcome {
                fanouts: vec![2; depth],
                decisions,
                state_hash: state,
                violations,
            }
        }
    }

    #[test]
    fn enumerates_every_schedule_exactly_once() {
        // 3 binary choice points -> exactly 8 schedules, 8 states.
        let report = explore(ExploreConfig::default(), binary_tree_runner(3, &[9, 9, 9]));
        assert_eq!(report.runs, 8);
        assert_eq!(report.distinct_states, 8);
        assert!(!report.truncated);
        assert!(report.is_clean());
    }

    #[test]
    fn finds_the_one_bad_schedule_with_a_witness() {
        let bug = vec![1, 0, 1];
        let report = explore(ExploreConfig::default(), binary_tree_runner(3, &bug));
        assert_eq!(report.violations.len(), 1);
        let v = &report.violations[0];
        assert_eq!(v.kind, "invariant");
        assert_eq!(v.schedule, bug, "witness reproduces the bug");
    }

    #[test]
    fn default_schedule_alone_misses_the_bug() {
        // The point of the whole exercise: budget 1 = only the default
        // schedule, which is clean.
        let cfg = ExploreConfig {
            max_runs: 1,
            ..ExploreConfig::default()
        };
        let report = explore(cfg, binary_tree_runner(3, &[0, 1, 1]));
        assert!(report.is_clean());
        assert!(report.truncated);
        let full = explore(ExploreConfig::default(), binary_tree_runner(3, &[0, 1, 1]));
        assert_eq!(full.violations.len(), 1);
    }

    #[test]
    fn budget_truncates_and_reports_it() {
        let cfg = ExploreConfig {
            max_runs: 5,
            ..ExploreConfig::default()
        };
        let report = explore(cfg, binary_tree_runner(4, &[9, 9, 9, 9]));
        assert_eq!(report.runs, 5);
        assert!(report.truncated);
    }

    #[test]
    fn depth_bound_limits_branching() {
        let cfg = ExploreConfig {
            max_choice_points: 2,
            ..ExploreConfig::default()
        };
        // Only the first 2 of 4 choice points may branch: 4 schedules.
        let report = explore(cfg, binary_tree_runner(4, &[9, 9, 9, 9]));
        assert_eq!(report.runs, 4);
        assert!(!report.truncated);
    }

    #[test]
    fn variable_fanout_trees_are_covered() {
        // Choice point 0 has fanout 3; each branch exposes a second
        // choice point of fanout equal to its index + 1: 1 + 2 + 3 = 6
        // schedules.
        let runner = |prefix: &[usize]| {
            let d0 = prefix.first().copied().unwrap_or(0).min(2);
            let f1 = d0 + 1;
            let d1 = prefix.get(1).copied().unwrap_or(0).min(f1 - 1);
            let mut fanouts = vec![3];
            let mut decisions = vec![d0];
            if f1 > 1 {
                fanouts.push(f1);
                decisions.push(d1);
            }
            let state = (d0 * 10 + d1) as u64;
            RunOutcome {
                fanouts,
                decisions,
                state_hash: state,
                violations: Vec::new(),
            }
        };
        let report = explore(ExploreConfig::default(), runner);
        assert_eq!(report.runs, 6);
        assert_eq!(report.distinct_states, 6);
    }
}
