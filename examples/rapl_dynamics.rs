//! Watch RAPL's feedback loop converge — the receipts behind the
//! steady-state assumption used throughout the evaluation.
//!
//! Steps one power-hungry and one efficient module through the dynamic
//! control loop under the same cap, printing the power/frequency
//! trajectory, the settling time and the agreement with the analytic
//! steady state.
//!
//! Run with: `cargo run --release --example rapl_dynamics`

use vap::prelude::*;
use vap::sim::dynamics::{enforce, validate_against_steady_state};
use vap::sim::rapl::RaplLimit;

fn main() {
    let mut cluster = Cluster::with_size(SystemSpec::ha8k(), 256, 11);
    let dgemm = catalog::get(WorkloadId::Dgemm);
    dgemm.apply_to(&mut cluster, 11);

    // pick the most and least power-hungry modules of the fleet
    let powers = cluster.cpu_powers();
    let hungry = (0..cluster.len())
        .max_by(|&a, &b| powers[a].value().total_cmp(&powers[b].value()))
        .expect("fleet is non-empty");
    let frugal = (0..cluster.len())
        .min_by(|&a, &b| powers[a].value().total_cmp(&powers[b].value()))
        .expect("fleet is non-empty");

    let cap = Watts(70.0);
    println!("== RAPL dynamics under a {cap:.0} cap (1 ms control intervals) ==\n");

    for (label, id) in [("most power-hungry", hungry), ("most efficient", frugal)] {
        let limit = RaplLimit::with_default_window(cap);
        let r = enforce(&mut cluster, id, limit, Seconds::from_millis(1.0), 300)
            .expect("positive dt and steps");

        println!("module {id} ({label}): uncapped {:.1}", powers[id]);
        print!("  trajectory [GHz]: ");
        for step in [0usize, 2, 4, 6, 8, 10, 15, 20, 40, 299] {
            print!("{:.2}@{}ms ", r.freq[step].value(), step);
        }
        println!();
        println!(
            "  settled after {:.0} ms at {:.2} GHz drawing {:.1} (cap {:.0})",
            r.settling_time().map_or(f64::NAN, |t| t.millis()),
            r.converged_frequency().value(),
            r.converged_power(),
            cap
        );
        let (analytic, dynamic) =
            validate_against_steady_state(&mut cluster, id, limit, Seconds::from_millis(1.0), 300)
                .expect("positive dt and steps");
        println!(
            "  analytic steady state {:.3} GHz vs dynamic {:.3} GHz (|Δ| = {:.3})\n",
            analytic,
            dynamic,
            (analytic - dynamic).abs()
        );
    }

    println!(
        "Convergence in tens of milliseconds against application regions of\n\
         minutes is why the campaign experiments use the analytic steady\n\
         state: the transient is ~0.1% of the runtime."
    );
}
