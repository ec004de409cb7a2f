//! A miniature of the paper's §6 evaluation: sweep NPB-BT across power
//! constraints and compare all six budgeting schemes.
//!
//! NPB-BT is the most interesting benchmark in the paper: it stays
//! feasible down to the tightest constraint (96 kW at full scale) where
//! the Naive scheme collapses (5.4× VaFs speedup), and it is the one
//! application whose STREAM-based calibration is noticeably imperfect —
//! visible here as the VaPc / VaPcOr gap.
//!
//! Run with: `cargo run --release --example budget_campaign`

use vap::prelude::*;

const MODULES: usize = 256;
const SEED: u64 = 2015;

fn main() {
    println!("== NPB-BT budgeting campaign on {MODULES} HA8K modules ==\n");

    let mut cluster = Cluster::with_size(SystemSpec::ha8k(), MODULES, SEED);
    let budgeter = Budgeter::install(&mut cluster, SEED);
    let bt = catalog::get(WorkloadId::Bt);
    let ids: Vec<usize> = (0..MODULES).collect();
    let program = bt.program(0.05);
    let comm = CommParams::infiniband_fdr();

    println!(
        "{:>6} {:>6}   {}",
        "Cm[W]",
        "feas",
        SchemeId::ALL.map(|s| format!("{:>8}", s.name())).join(" ")
    );

    for cm in [110.0, 100.0, 90.0, 80.0, 70.0, 60.0, 50.0] {
        let budget = Watts(cm * MODULES as f64);
        let feas =
            budgeter.feasibility(&mut cluster, &bt, budget, &ids).expect("fleet is calibrated");
        let mut line = format!("{cm:>6.0} {:>6}  ", feas.mark());
        if !feas.runnable() {
            println!(
                "{line}   (skipped — {})",
                match feas {
                    Feasibility::NotConstrained => "budget does not bind",
                    _ => "modules cannot run even at f_min",
                }
            );
            continue;
        }
        let mut naive_time = None;
        for scheme in SchemeId::ALL {
            let cell = match budgeter.plan(&mut cluster, scheme, &bt, budget, &ids) {
                Ok(plan) => {
                    let report = run_region(&mut cluster, &plan, &bt, &program, &ids, &comm, SEED);
                    let t = report.makespan().value();
                    if scheme == SchemeId::Naive {
                        naive_time = Some(t);
                        format!("{:>7.1}s", t)
                    } else if let Some(base) = naive_time {
                        format!("{:>7.2}x", base / t)
                    } else {
                        format!("{:>7.1}s", t)
                    }
                }
                Err(_) => format!("{:>8}", "-"),
            };
            line.push_str(&cell);
            line.push(' ');
        }
        println!("{line}");
    }

    println!(
        "\nColumns after Naive show speedup vs Naive. Expect the gap to widen\n\
         as the budget tightens: at the tightest feasible level Naive pushes\n\
         leaky modules into duty-cycle clock modulation while the\n\
         variation-aware schemes keep every module at a common frequency."
    );
}
