//! Survey manufacturing variability across the paper's four systems —
//! the Fig. 1 / Fig. 2(i) story as a fleet-inspection tool.
//!
//! For each system, runs the single-socket EP probe uncapped and prints
//! the power distribution (summary and worst-case variation),
//! then demonstrates on HA8K how a uniform cap converts the power spread
//! into a frequency spread.
//!
//! Run with: `cargo run --release --example variability_survey`

use vap::prelude::*;
use vap::sim::rapl::RaplLimit;
use vap::stats::Summary;

fn main() {
    println!("== Manufacturing variability survey ==\n");
    for id in [SystemId::Cab, SystemId::Vulcan, SystemId::Teller, SystemId::Ha8k] {
        survey_system(id);
    }
    println!();
    cap_demo();
}

fn survey_system(id: SystemId) {
    let spec = SystemSpec::get(id);
    // survey a manageable slice of the studied fleet
    let n = spec.modules_studied.min(512);
    let mut cluster = Cluster::with_size(spec.clone(), n, 0xF1EE7 ^ n as u64);
    let ep = catalog::get(WorkloadId::Ep);
    ep.apply_to(&mut cluster, 1);

    let powers: Vec<f64> = cluster.cpu_powers().iter().map(|p| p.value()).collect();
    let s = Summary::of(&powers).expect("non-empty fleet");
    println!(
        "{:<12} {:>4} sockets | CPU power {:6.1} W ± {:4.2} | Vp = {:.2} ({:.0}% spread)",
        spec.name,
        n,
        s.mean,
        s.std_dev,
        s.worst_case_variation(),
        (s.worst_case_variation() - 1.0) * 100.0
    );
}

fn cap_demo() {
    println!("== The same silicon under a uniform RAPL cap (HA8K, EP) ==\n");
    let mut cluster = Cluster::with_size(SystemSpec::ha8k(), 256, 7);
    let ep = catalog::get(WorkloadId::Ep);
    ep.apply_to(&mut cluster, 1);

    for cap_w in [f64::INFINITY, 90.0, 70.0, 55.0] {
        if cap_w.is_finite() {
            cluster.set_uniform_cap(RaplLimit::with_default_window(Watts(cap_w)));
        } else {
            cluster.uncap_all();
        }
        let freqs: Vec<f64> = cluster.effective_frequencies().iter().map(|f| f.value()).collect();
        let powers: Vec<f64> = cluster.cpu_powers().iter().map(|p| p.value()).collect();
        let vf = vap::stats::worst_case_variation(&freqs).expect("non-empty fleet");
        let vp = vap::stats::worst_case_variation(&powers).expect("non-empty fleet");
        let fs = Summary::of(&freqs).expect("non-empty fleet");
        println!(
            "cap {:>9} | mean freq {:4.2} GHz (min {:4.2}) | Vf = {:4.2} | Vp = {:4.2}",
            if cap_w.is_finite() { format!("{cap_w:.0} W") } else { "none".into() },
            fs.mean,
            fs.min,
            vf,
            vp
        );
    }
    println!(
        "\nUncapped: identical frequencies, unequal power. Capped: the power\n\
         spread collapses onto the cap and re-emerges as frequency spread —\n\
         the paper's core observation (Fig. 2(ii))."
    );
}
