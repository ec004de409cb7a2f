//! The experiment list: one entry per table, figure and extension study,
//! in the order `vap-report all` runs them.
//!
//! Each [`Experiment`] is a name plus a `run` that returns what the
//! experiment writes and prints ([`Output`]). The `vap-report` binary
//! picks entries by name ([`select`]) and does the `--csv`, `--trace-out`
//! and stdout handling once for all of them.

use crate::cli::MainError;
use crate::csv;
use crate::experiments::{
    ablations, drift_study, fig1, fig2, fig3, fig5, fig6, fig7, fig8, fig9, multijob_study,
    sched_study, table1, table2, table4,
};
use crate::options::{RunOptions, USAGE};
use std::cell::OnceCell;

/// What one experiment writes and prints.
#[derive(Debug, Clone, PartialEq)]
pub struct Output {
    /// `(file name, body)` written under `--csv DIR`.
    pub csv: Option<(&'static str, String)>,
    /// `(file name, body)` written under `--trace-out DIR`.
    pub trace: Option<(&'static str, String)>,
    /// The rendered tables, printed to stdout.
    pub text: String,
}

impl Output {
    fn text(text: String) -> Result<Self, MainError> {
        Ok(Output { csv: None, trace: None, text })
    }

    fn with_csv(name: &'static str, body: String, text: String) -> Result<Self, MainError> {
        Ok(Output { csv: Some((name, body)), trace: None, text })
    }
}

/// Per-invocation state shared by the experiments one run selects.
pub struct Context<'a> {
    opts: &'a RunOptions,
    campaign: OnceCell<fig7::Fig7Result>,
}

impl<'a> Context<'a> {
    /// A context with nothing computed yet.
    pub fn new(opts: &'a RunOptions) -> Self {
        Context { opts, campaign: OnceCell::new() }
    }

    /// The Fig. 7 campaign, run on first use, so Fig. 9 audits the
    /// campaign Fig. 7 ran.
    fn campaign(&self) -> &fig7::Fig7Result {
        self.campaign.get_or_init(|| fig7::run(self.opts))
    }
}

/// One regenerable experiment.
pub struct Experiment {
    /// The name `vap-report` selects it by.
    pub name: &'static str,
    /// Run it and return what it writes and prints.
    pub run: fn(&Context) -> Result<Output, MainError>,
}

/// Every experiment, in the order `all` runs them.
pub const EXPERIMENTS: &[Experiment] = &[
    Experiment { name: "table1", run: |_| Output::text(table1::run().render()) },
    Experiment { name: "table2", run: |_| Output::text(table2::run().render()) },
    Experiment {
        name: "fig1",
        run: |cx| {
            let r = fig1::run(cx.opts);
            Output::with_csv("fig1.csv", csv::fig1(&r), fig1::render(&r).render())
        },
    },
    Experiment {
        name: "fig2",
        run: |cx| {
            let r = fig2::run(cx.opts);
            Output::with_csv("fig2.csv", csv::fig2(&r), fig2::render(&r))
        },
    },
    Experiment {
        name: "fig3",
        run: |cx| {
            let r = fig3::run(cx.opts);
            Output::with_csv("fig3.csv", csv::fig3(&r), fig3::render(&r).render())
        },
    },
    Experiment {
        name: "fig5",
        run: |cx| {
            let r = fig5::run(cx.opts)?;
            Output::with_csv("fig5.csv", csv::fig5(&r), fig5::render(&r).render())
        },
    },
    Experiment {
        name: "fig6",
        run: |cx| {
            let r = fig6::run(cx.opts);
            Output::with_csv("fig6.csv", csv::fig6(&r), fig6::render(&r).render())
        },
    },
    Experiment {
        name: "table4",
        run: |cx| {
            let r = table4::run(cx.opts);
            Output::with_csv("table4.csv", csv::table4(&r), table4::render(&r).render())
        },
    },
    Experiment {
        name: "fig7",
        run: |cx| {
            let r = cx.campaign();
            Output::with_csv("fig7.csv", csv::fig7(r), fig7::render(r))
        },
    },
    Experiment {
        name: "fig9",
        run: |cx| {
            let r = fig9::audit(cx.campaign());
            Output::with_csv("fig9.csv", csv::fig9(&r), fig9::render(&r))
        },
    },
    Experiment {
        name: "fig8",
        run: |cx| {
            let r = fig8::run(cx.opts);
            Output::with_csv("fig8.csv", csv::fig8(&r), fig8::render(&r))
        },
    },
    Experiment {
        name: "ablations",
        run: |cx| {
            let r = ablations::run(cx.opts);
            Output::with_csv("ablations.csv", csv::ablations(&r), ablations::render(&r))
        },
    },
    Experiment {
        name: "multijob",
        run: |cx| {
            let r = multijob_study::run(cx.opts)?;
            let text = multijob_study::render(&r).render();
            Output::with_csv("multijob.csv", multijob_study::to_csv(&r), text)
        },
    },
    Experiment {
        name: "schedstudy",
        run: |cx| {
            let r = sched_study::run(cx.opts);
            let (body, text) = (sched_study::to_csv(&r), sched_study::render(&r).render());
            Ok(Output {
                csv: Some(("schedstudy.csv", body)),
                // the *simulated* schedule of the exemplar cell (one lane
                // per job, sim-microsecond timestamps), beside the
                // wall-clock timeline
                trace: Some(("sched_schedule.json", r.timeline_json)),
                text,
            })
        },
    },
    Experiment {
        name: "driftstudy",
        run: |cx| {
            let r = drift_study::run(cx.opts);
            let text = drift_study::render(&r).render();
            Output::with_csv("driftstudy.csv", drift_study::to_csv(&r), text)
        },
    },
];

/// `vap-report`'s usage, naming every experiment.
fn usage() -> String {
    let names: Vec<&str> = EXPERIMENTS.iter().map(|e| e.name).collect();
    format!("usage: vap-report NAME... {USAGE}\nNAME: {} | all", names.join(" | "))
}

/// The experiments `args` names, in the order given; `all` expands to
/// every entry.
///
/// # Errors
///
/// A usage message naming every experiment when `args` names none, or
/// holds an unknown name or flag, or asks for `--help`.
pub fn select(args: Vec<String>) -> Result<Vec<&'static Experiment>, String> {
    let mut picked = Vec::new();
    for arg in &args {
        match arg.as_str() {
            "all" => picked.extend(EXPERIMENTS),
            "--help" | "-h" => return Err(usage()),
            name => picked.push(
                EXPERIMENTS
                    .iter()
                    .find(|e| e.name == name)
                    .ok_or_else(|| format!("unknown experiment or flag `{name}`\n{}", usage()))?,
            ),
        }
    }
    if picked.is_empty() {
        return Err(format!("name at least one experiment\n{}", usage()));
    }
    Ok(picked)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn select_from(args: &[&str]) -> Result<Vec<&'static str>, String> {
        select(args.iter().map(|s| s.to_string()).collect())
            .map(|picked| picked.iter().map(|e| e.name).collect())
    }

    #[test]
    fn names_are_unique_and_all_runs_every_one_in_order() {
        let names: Vec<&str> = EXPERIMENTS.iter().map(|e| e.name).collect();
        let mut unique = names.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), names.len());
        assert_eq!(select_from(&["all"]).unwrap(), names);
        assert_eq!(select_from(&["fig9", "fig7"]).unwrap(), ["fig9", "fig7"]);
    }

    #[test]
    fn hostile_argument_lists_select_known_experiments_or_fail() {
        let flags = ["--modules", "--seed", "--scale", "--csv", "--threads", "--help", "-h"];
        vap_model::rng::check("select", 0x5e1e, crate::cli::HOSTILE_CASES, |rng| {
            let args = crate::cli::hostile_args(rng, &flags);
            let parsed =
                RunOptions::parse_partial(args.into_iter()).and_then(|(_, extras)| select(extras));
            if let Ok(picked) = parsed {
                assert!(!picked.is_empty());
            }
        });
    }
}
