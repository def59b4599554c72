//! Machine-readable rendering of verification results.
//!
//! Helpers turning [`TraceEvent`]s, checker [`Violation`]s, race
//! reports, and lint findings into [`ksr_core::Json`] values, plus the
//! assembler for the `violations.json` document the bench harness writes
//! in `--check` mode. Rendering is deterministic (insertion-order keys),
//! so a fixed seeded run produces a byte-identical file.

use ksr_core::trace::TraceEvent;
use ksr_core::Json;

use crate::checker::Violation;
use crate::lint::LintFinding;
use crate::predict::PredictFinding;
use crate::race::RaceReport;

/// One trace event as a JSON object: `kind`, `at`, and the
/// variant-specific fields.
#[must_use]
pub fn event_to_json(ev: &TraceEvent) -> Json {
    let mut o = Json::obj([
        ("kind", Json::from(ev.kind().label())),
        ("at", Json::from(ev.at())),
    ]);
    match *ev {
        TraceEvent::RingSlot { wait, blocked, .. } => {
            o.push_field("wait", Json::from(wait));
            o.push_field("blocked", Json::from(blocked));
        }
        TraceEvent::Coherence {
            cell,
            subpage,
            from,
            to,
            ..
        } => {
            o.push_field("cell", Json::from(cell));
            o.push_field("subpage", Json::from(subpage));
            o.push_field("from", Json::from(from.label()));
            o.push_field("to", Json::from(to.label()));
        }
        TraceEvent::Snarf { cell, subpage, .. }
        | TraceEvent::Invalidation { cell, subpage, .. }
        | TraceEvent::AtomicRejection { cell, subpage, .. }
        | TraceEvent::LockHandoff { cell, subpage, .. } => {
            o.push_field("cell", Json::from(cell));
            o.push_field("subpage", Json::from(subpage));
        }
        TraceEvent::BarrierEpisode { cell, episode, .. } => {
            o.push_field("cell", Json::from(cell));
            o.push_field("episode", Json::from(episode));
        }
        TraceEvent::DataRead { cell, addr, .. }
        | TraceEvent::DataWrite { cell, addr, .. }
        | TraceEvent::SpinRead { cell, addr, .. } => {
            o.push_field("cell", Json::from(cell));
            o.push_field("addr", Json::from(addr));
        }
        TraceEvent::SyncAcquire {
            cell, subpage, rmw, ..
        }
        | TraceEvent::SyncRelease {
            cell, subpage, rmw, ..
        } => {
            o.push_field("cell", Json::from(cell));
            o.push_field("subpage", Json::from(subpage));
            o.push_field("rmw", Json::from(rmw));
        }
    }
    o
}

/// One coherence violation, including its replay window.
#[must_use]
pub fn violation_to_json(v: &Violation) -> Json {
    Json::obj([
        ("rule", Json::from(v.rule.label())),
        ("at", Json::from(v.at)),
        ("cell", Json::from(v.cell)),
        ("subpage", Json::from(v.subpage)),
        ("message", Json::from(v.message.as_str())),
        ("window", Json::arr(v.window.iter().map(event_to_json))),
    ])
}

/// One race report: the two unordered conflicting accesses.
#[must_use]
pub fn race_to_json(r: &RaceReport) -> Json {
    let side = |cell: usize, at: u64, write: bool| {
        Json::obj([
            ("cell", Json::from(cell)),
            ("at", Json::from(at)),
            ("write", Json::from(write)),
        ])
    };
    Json::obj([
        ("addr", Json::from(r.addr)),
        ("subpage", Json::from(r.subpage)),
        ("first", side(r.first.cell, r.first.at, r.first.write)),
        ("second", side(r.second.cell, r.second.at, r.second.write)),
    ])
}

/// One lint finding.
#[must_use]
pub fn lint_to_json(f: &LintFinding) -> Json {
    Json::obj([
        ("rule", Json::from(f.rule.label())),
        ("proc", f.proc.map_or(Json::Null, Json::from)),
        ("message", Json::from(f.message.as_str())),
    ])
}

/// One predictive finding (lockset / lock-order pass).
#[must_use]
pub fn predict_to_json(f: &PredictFinding) -> Json {
    Json::obj([
        ("rule", Json::from(f.rule.label())),
        ("addr", Json::from(f.addr)),
        ("cells", Json::arr(f.cells.iter().map(|&c| Json::from(c)))),
        ("message", Json::from(f.message.as_str())),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checker::Rule;
    use crate::lint::LintRule;
    use crate::race::Access;
    use ksr_core::trace::TraceState;

    #[test]
    fn event_json_carries_variant_fields() {
        let ev = TraceEvent::Coherence {
            at: 42,
            cell: 3,
            subpage: 9,
            from: TraceState::Shared,
            to: TraceState::Exclusive,
        };
        assert_eq!(
            event_to_json(&ev).render(),
            r#"{"kind":"coherence","at":42,"cell":3,"subpage":9,"from":"shared","to":"exclusive"}"#
        );
        let rmw = TraceEvent::SyncAcquire {
            at: 7,
            cell: 0,
            subpage: 2,
            rmw: true,
        };
        assert_eq!(
            event_to_json(&rmw).render(),
            r#"{"kind":"sync_acquire","at":7,"cell":0,"subpage":2,"rmw":true}"#
        );
    }

    #[test]
    fn violation_json_includes_window() {
        let v = Violation {
            at: 100,
            cell: 1,
            subpage: 5,
            rule: Rule::MultipleWriters,
            message: "two writers".into(),
            window: vec![TraceEvent::DataWrite {
                at: 99,
                cell: 1,
                addr: 640,
            }],
        };
        let j = violation_to_json(&v).render();
        assert!(j.contains(r#""rule":"multiple_writers""#));
        assert!(j.contains(r#""window":[{"kind":"data_write""#));
    }

    #[test]
    fn race_json_renders_both_sides() {
        let r = RaceReport {
            addr: 640,
            subpage: 5,
            first: Access {
                cell: 0,
                at: 10,
                write: true,
            },
            second: Access {
                cell: 1,
                at: 20,
                write: false,
            },
        };
        assert_eq!(
            race_to_json(&r).render(),
            r#"{"addr":640,"subpage":5,"first":{"cell":0,"at":10,"write":true},"second":{"cell":1,"at":20,"write":false}}"#
        );
    }

    #[test]
    fn predict_json_is_stable() {
        use crate::predict::PredictRule;
        let f = PredictFinding {
            rule: PredictRule::PotentialDeadlock,
            addr: 7,
            cells: vec![0, 1],
            message: "m".into(),
        };
        assert_eq!(
            predict_to_json(&f).render(),
            r#"{"rule":"potential_deadlock","addr":7,"cells":[0,1],"message":"m"}"#
        );
    }

    #[test]
    fn lint_json_null_proc_for_global_findings() {
        let f = LintFinding {
            rule: LintRule::BarrierParticipantCount,
            proc: None,
            message: "m".into(),
        };
        assert!(lint_to_json(&f).render().contains(r#""proc":null"#));
    }
}
