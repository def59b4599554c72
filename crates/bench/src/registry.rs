//! The experiment registry.
//!
//! Every paper artifact the harness can regenerate is an
//! [`Experiment`]: an id (the DESIGN.md index key), a human title, and a
//! planner taking [`RunOpts`] and returning an [`ExperimentPlan`] — the
//! experiment's pure jobs plus its reduce. [`REGISTRY`] lists
//! them in DESIGN.md index order; `run_all` resolves `--only` ids through
//! [`find`], and the executor (`crate::exec`) schedules the plans' jobs
//! over its worker pool.

use crate::common::RunOpts;
use crate::exec::ExperimentPlan;

/// One runnable paper artifact (a table, figure, or text measurement),
/// backed by a free planner function.
#[derive(Clone, Copy)]
pub struct Experiment {
    id: &'static str,
    title: &'static str,
    planner: fn(&RunOpts) -> ExperimentPlan,
}

impl Experiment {
    /// Stable id from the DESIGN.md index (e.g. `"FIG4"`).
    #[must_use]
    pub fn id(&self) -> &'static str {
        self.id
    }

    /// Human title.
    #[must_use]
    pub fn title(&self) -> &'static str {
        self.title
    }

    /// The experiment as pure data: jobs + reduce.
    #[must_use]
    pub fn plan(&self, opts: &RunOpts) -> ExperimentPlan {
        (self.planner)(opts)
    }
}

impl std::fmt::Debug for Experiment {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Experiment")
            .field("id", &self.id)
            .finish_non_exhaustive()
    }
}

macro_rules! entry {
    ($id:expr, $title:expr, $planner:path) => {
        Experiment {
            id: $id,
            title: $title,
            planner: $planner,
        }
    };
}

/// Every built-in experiment, in DESIGN.md index order.
pub const REGISTRY: &[Experiment] = &[
    entry!(
        crate::fig2_latency::ID_FIG2,
        crate::fig2_latency::TITLE_FIG2,
        crate::fig2_latency::plan
    ),
    entry!(
        crate::fig2_latency::ID_SEC31A,
        crate::fig2_latency::TITLE_SEC31A,
        crate::fig2_latency::plan_strides
    ),
    entry!(
        crate::fig3_locks::ID,
        crate::fig3_locks::TITLE,
        crate::fig3_locks::plan
    ),
    entry!(
        crate::fig4_barriers::ID_FIG4,
        crate::fig4_barriers::TITLE_FIG4,
        crate::fig4_barriers::plan_fig4
    ),
    entry!(
        crate::fig4_barriers::ID_FIG5,
        crate::fig4_barriers::TITLE_FIG5,
        crate::fig4_barriers::plan_fig5
    ),
    entry!(
        crate::fig4_barriers::ID_SEC323,
        crate::fig4_barriers::TITLE_SEC323,
        crate::fig4_barriers::plan_sec323
    ),
    entry!(
        crate::table1_cg::ID,
        crate::table1_cg::TITLE,
        crate::table1_cg::plan
    ),
    entry!(
        crate::table2_is::ID,
        crate::table2_is::TITLE,
        crate::table2_is::plan
    ),
    entry!(
        crate::fig8_speedup::ID,
        crate::fig8_speedup::TITLE,
        crate::fig8_speedup::plan
    ),
    entry!(
        crate::table3_sp::ID_TAB3,
        crate::table3_sp::TITLE_TAB3,
        crate::table3_sp::plan_table3
    ),
    entry!(
        crate::table3_sp::ID_TAB4,
        crate::table3_sp::TITLE_TAB4,
        crate::table3_sp::plan_table4
    ),
    entry!(
        crate::ep_scaling::ID,
        crate::ep_scaling::TITLE,
        crate::ep_scaling::plan
    ),
    entry!(
        crate::ablations::ID,
        crate::ablations::TITLE,
        crate::ablations::plan
    ),
    entry!(
        crate::ext_wishlist::ID,
        crate::ext_wishlist::TITLE,
        crate::ext_wishlist::plan
    ),
    entry!(
        crate::lad_latency::ID,
        crate::lad_latency::TITLE,
        crate::lad_latency::plan
    ),
    entry!(
        crate::scb_scaling::ID,
        crate::scb_scaling::TITLE,
        crate::scb_scaling::plan
    ),
    entry!(
        crate::cmb_combining::ID,
        crate::cmb_combining::TITLE,
        crate::cmb_combining::plan
    ),
    entry!(
        crate::lck_locks::ID,
        crate::lck_locks::TITLE,
        crate::lck_locks::plan
    ),
    entry!(
        crate::explore_exp::ID,
        crate::explore_exp::TITLE,
        crate::explore_exp::plan
    ),
];

/// Look an experiment up by id, case-insensitively.
#[must_use]
pub fn find(id: &str) -> Option<&'static Experiment> {
    REGISTRY.iter().find(|e| e.id.eq_ignore_ascii_case(id))
}

/// All registered ids, in index order.
#[must_use]
pub fn ids() -> Vec<&'static str> {
    REGISTRY.iter().map(|e| e.id).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_covers_the_design_index() {
        let expect = [
            "FIG2", "SEC31A", "FIG3", "FIG4", "FIG5", "SEC323", "TAB1", "TAB2", "FIG8", "TAB3",
            "TAB4", "EP", "ABL", "EXT", "LAD", "SCB", "CMB", "LCK", "EXPLORE",
        ];
        assert_eq!(ids(), expect);
    }

    #[test]
    fn ids_are_unique() {
        let mut seen = std::collections::HashSet::new();
        for e in REGISTRY {
            assert!(seen.insert(e.id()), "duplicate id {}", e.id());
        }
    }

    #[test]
    fn find_is_case_insensitive() {
        assert_eq!(find("fig4").map(Experiment::id), Some("FIG4"));
        assert_eq!(find("Tab1").map(Experiment::id), Some("TAB1"));
        assert!(find("NOPE").is_none());
    }

    /// A job's label is its only identity: it names the job in progress
    /// lines and `timings.json`. Every label of a quick and of a
    /// full-size run must start with its experiment's id (ignoring case)
    /// and be unique registry-wide. Plans are only built, not run.
    #[test]
    fn job_labels_are_unique_registry_wide_and_name_their_experiment() {
        for opts in [RunOpts::quick(), RunOpts::default()] {
            let mut seen = std::collections::HashSet::new();
            for e in REGISTRY {
                let plan = e.plan(&opts);
                assert_ne!(plan.labels().len(), 0, "{}: plan must have jobs", e.id());
                for label in plan.labels() {
                    assert!(
                        label
                            .get(..e.id().len())
                            .is_some_and(|head| head.eq_ignore_ascii_case(e.id())),
                        "{label:?} does not start with {}",
                        e.id()
                    );
                    assert!(
                        seen.insert(label.to_string()),
                        "duplicate job label {label:?} (quick: {})",
                        opts.quick
                    );
                }
            }
        }
    }
}
