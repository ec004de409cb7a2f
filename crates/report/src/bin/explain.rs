//! Offline scheduler-decision explainer.
//!
//! ```text
//! explain --journal DIR/journal.jsonl [--job N] [--at T] [--window W]
//! ```
//!
//! Answers "why was job J shrunk/deferred/preempted at t=T" from the
//! decision records a `--ledger`/`--trace-out` run left in the journal —
//! no re-simulation. Decisions are printed in simulated-time order; with
//! `--job`, global records that affect the job (cap changes, rebalances
//! moving its budget) are kept as context. `--at T` narrows to decisions
//! within `--window W` seconds of `T` (default 30 s).
//!
//! Exit codes: `0` — matching decisions printed; `1` — journal readable
//! but nothing matched; `2` — usage or I/O error.

use vap_obs::export::JournalLine;
use vap_obs::json::FromJson;
use vap_obs::DecisionKind;

struct Query {
    journal: String,
    job: Option<u64>,
    at: Option<f64>,
    window: f64,
}

const USAGE: &str = "usage: explain --journal PATH [--job N] [--at SECONDS] [--window SECONDS]";

fn parse_args(args: impl Iterator<Item = String>) -> Result<Query, String> {
    let mut journal = None;
    let mut job = None;
    let mut at = None;
    let mut window: f64 = 30.0;
    let mut it = args;
    while let Some(flag) = it.next() {
        let mut take = |name: &str| -> Result<String, String> {
            it.next().ok_or_else(|| format!("{name} requires a value"))
        };
        match flag.as_str() {
            "--journal" => journal = Some(take("--journal")?),
            "--job" => {
                job = Some(take("--job")?.parse().map_err(|e| format!("--job: {e}"))?);
            }
            // `NaN` parses as f64 and compares false both ways, so a NaN
            // time or window would match every decision
            "--at" => {
                let t: f64 = take("--at")?.parse().map_err(|e| format!("--at: {e}"))?;
                if !t.is_finite() {
                    return Err("--at must be a finite number".into());
                }
                at = Some(t);
            }
            "--window" => {
                window = take("--window")?.parse().map_err(|e| format!("--window: {e}"))?;
                if !(window.is_finite() && window >= 0.0) {
                    return Err("--window must be a non-negative finite number".into());
                }
            }
            "--help" | "-h" => return Err(USAGE.into()),
            other => return Err(format!("unknown flag {other} ({USAGE})")),
        }
    }
    let journal = journal.ok_or_else(|| format!("--journal is required ({USAGE})"))?;
    Ok(Query { journal, job, at, window })
}

/// Whether a decision record is relevant to the query.
fn relevant(q: &Query, t_s: f64, job: Option<u64>, kind: &DecisionKind) -> bool {
    if let Some(at) = q.at {
        if (t_s - at).abs() > q.window {
            return false;
        }
    }
    let Some(wanted) = q.job else { return true };
    match job {
        Some(j) => j == wanted,
        // Global records: cap changes always matter; a rebalance matters
        // when it moved the queried job's budget.
        None => match kind {
            DecisionKind::CapChange { .. } => true,
            DecisionKind::Rebalance { deltas, .. } => deltas.iter().any(|d| d.job == wanted),
            _ => false,
        },
    }
}

fn describe(job: Option<u64>, avail_w: f64, cap_w: f64, kind: &DecisionKind) -> String {
    let who = match job {
        Some(j) => format!("job {j}"),
        None => "global".to_string(),
    };
    match kind {
        DecisionKind::Admit { width_requested, width_granted, budget_w, alpha, alternatives } => {
            let mut s = format!(
                "{who}  admit: granted {width_granted}/{width_requested} modules, \
                 budget {budget_w:.1} W, α={alpha:.3} (avail {avail_w:.1} of {cap_w:.1} W)"
            );
            if *width_granted < *width_requested {
                s.push_str(" — SHRUNK");
            }
            for p in alternatives {
                let mark = if p.feasible { "fits" } else { "over budget" };
                s.push_str(&format!(
                    "\n           probed width {}: floor {:.1} W, {mark}",
                    p.width, p.floor_w
                ));
            }
            s
        }
        DecisionKind::Defer { reason } => {
            format!("{who}  defer: {reason} (avail {avail_w:.1} of {cap_w:.1} W)")
        }
        DecisionKind::Kill { reason } => format!("{who}  kill: {reason}"),
        DecisionKind::Preempt { freed_w, width } => {
            format!("{who}  preempt: freed {freed_w:.1} W across {width} modules")
        }
        DecisionKind::Rebalance { policy, deltas } => {
            let mut s = format!("{who}  rebalance ({policy}):");
            for d in deltas {
                s.push_str(&format!(
                    "\n           job {}: {:.1} W → {:.1} W (α={:.3})",
                    d.job, d.before_w, d.after_w, d.alpha
                ));
            }
            s
        }
        DecisionKind::CapChange { old_w, new_w } => {
            format!("{who}  cap change: {old_w:.1} W → {new_w:.1} W")
        }
    }
}

fn main() {
    let q = match parse_args(std::env::args().skip(1)) {
        Ok(q) => q,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    };
    let text = match std::fs::read_to_string(&q.journal) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("explain: cannot read {}: {e}", q.journal);
            std::process::exit(2);
        }
    };

    // (t_s, scope key, seq) keeps ties in journal order.
    let mut hits: Vec<(f64, (u64, u64, u64), String)> = Vec::new();
    let mut decisions = 0u64;
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let parsed = match JournalLine::from_json(line) {
            Ok(p) => p,
            Err(e) => {
                eprintln!("explain: {}:{}: bad journal line: {e}", q.journal, i + 1);
                std::process::exit(2);
            }
        };
        if let JournalLine::Decision { grid, index, seq, record: r } = parsed {
            decisions += 1;
            if relevant(&q, r.t_s, r.job, &r.kind) {
                let key = (grid.unwrap_or(u64::MAX), index.unwrap_or(u64::MAX), seq);
                hits.push((r.t_s, key, describe(r.job, r.avail_w, r.cap_w, &r.kind)));
            }
        }
    }

    hits.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    for (t_s, _, text) in &hits {
        println!("t={t_s:>10.2}s  {text}");
    }
    if hits.is_empty() {
        let what = match q.job {
            Some(j) => format!(" for job {j}"),
            None => String::new(),
        };
        eprintln!(
            "explain: no matching decisions{what} ({decisions} decision records in the journal)"
        );
        std::process::exit(1);
    }
    println!("{} decision(s) shown of {decisions} in the journal", hits.len());
}

#[cfg(test)]
mod tests {
    use super::*;
    use vap_model::rng::check;
    use vap_obs::{BudgetDelta, WidthProbe};
    use vap_report::cli::{hostile_args, HOSTILE_CASES};

    fn parse(args: &[&str]) -> Result<Query, String> {
        parse_args(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn args_parse_and_validate() {
        let q =
            parse(&["--journal", "j.jsonl", "--job", "3", "--at", "120", "--window", "5"]).unwrap();
        assert_eq!(q.journal, "j.jsonl");
        assert_eq!(q.job, Some(3));
        assert_eq!(q.at, Some(120.0));
        assert_eq!(q.window, 5.0);
        assert!(parse(&[]).is_err(), "--journal is required");
        assert!(parse(&["--journal", "j", "--window", "-1"]).is_err());
        assert!(parse(&["--journal", "j", "--bogus"]).is_err());
    }

    #[test]
    fn hostile_argument_lists_parse_to_documented_ranges_or_fail() {
        let flags = ["--journal", "--job", "--at", "--window", "--help", "-h"];
        check("explain_args", 0xe8a1, HOSTILE_CASES, |rng| {
            if let Ok(q) = parse_args(hostile_args(rng, &flags).into_iter()) {
                assert!(q.at.is_none_or(f64::is_finite), "--at {:?}", q.at);
                assert!(q.window.is_finite() && q.window >= 0.0, "--window {}", q.window);
            }
        });
    }

    #[test]
    fn non_finite_times_are_refused() {
        for bad in ["NaN", "nan", "inf", "-inf", "infinity"] {
            for flag in ["--at", "--window"] {
                let err = parse(&["--journal", "j", flag, bad]).err().unwrap();
                assert!(err.contains(flag), "{flag} {bad}: {err}");
            }
        }
    }

    #[test]
    fn job_filter_keeps_global_context_that_touches_the_job() {
        let q = Query { journal: String::new(), job: Some(2), at: None, window: 30.0 };
        let cap = DecisionKind::CapChange { old_w: 100.0, new_w: 80.0 };
        assert!(relevant(&q, 0.0, None, &cap), "cap changes affect every job");
        let moved = DecisionKind::Rebalance {
            policy: "uniform".into(),
            deltas: vec![BudgetDelta { job: 2, before_w: 50.0, after_w: 40.0, alpha: 0.9 }],
        };
        assert!(relevant(&q, 0.0, None, &moved), "a rebalance moving job 2's budget matters");
        let other = DecisionKind::Rebalance {
            policy: "uniform".into(),
            deltas: vec![BudgetDelta { job: 7, before_w: 50.0, after_w: 40.0, alpha: 0.9 }],
        };
        assert!(!relevant(&q, 0.0, None, &other));
        assert!(relevant(&q, 0.0, Some(2), &cap));
        assert!(!relevant(&q, 0.0, Some(5), &cap));
    }

    #[test]
    fn time_window_narrows() {
        let q = Query { journal: String::new(), job: None, at: Some(100.0), window: 10.0 };
        let kind = DecisionKind::Defer { reason: "insufficient_power".into() };
        assert!(relevant(&q, 95.0, Some(1), &kind));
        assert!(relevant(&q, 110.0, Some(1), &kind), "window is inclusive");
        assert!(!relevant(&q, 111.0, Some(1), &kind));
    }

    #[test]
    fn shrunk_admissions_are_called_out_with_their_probes() {
        let kind = DecisionKind::Admit {
            width_requested: 8,
            width_granted: 4,
            budget_w: 300.0,
            alpha: 0.85,
            alternatives: vec![
                WidthProbe { width: 8, floor_w: 520.0, feasible: false },
                WidthProbe { width: 4, floor_w: 260.0, feasible: true },
            ],
        };
        let text = describe(Some(3), 310.0, 1000.0, &kind);
        assert!(text.contains("job 3"));
        assert!(text.contains("granted 4/8"));
        assert!(text.contains("SHRUNK"));
        assert!(text.contains("probed width 8: floor 520.0 W, over budget"));
        assert!(text.contains("probed width 4: floor 260.0 W, fits"));
        let full = DecisionKind::Admit {
            width_requested: 4,
            width_granted: 4,
            budget_w: 300.0,
            alpha: 1.0,
            alternatives: Vec::new(),
        };
        assert!(!describe(Some(3), 310.0, 1000.0, &full).contains("SHRUNK"));
    }
}
