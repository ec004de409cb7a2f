//! What-if: how much does the *job scheduler's module choice* matter on a
//! power-constrained system?
//!
//! The paper notes (§1) that under power caps "application performance
//! will depend significantly on the physical processors allocated to it
//! during scheduling", and points to power-aware resource managers (RMAP)
//! as future work. This example quantifies that: a 96-rank MHD job asks
//! for a quarter of a 384-module fleet under a fixed per-module budget,
//! placed by four different allocation policies.
//!
//! Run with: `cargo run --release --example scheduler_whatif`

use vap::prelude::*;

const FLEET: usize = 384;
const JOB: usize = 96;
const SEED: u64 = 7;

fn main() {
    println!("== Scheduler what-if: {JOB}-rank MHD on a {FLEET}-module fleet, Cm = 70 W ==\n");

    let mut cluster = Cluster::with_size(SystemSpec::ha8k(), FLEET, SEED);
    let budgeter = Budgeter::install(&mut cluster, SEED);
    let mhd = catalog::get(WorkloadId::Mhd);
    let program = mhd.program(0.1);
    let comm = CommParams::infiniband_fdr();
    let budget = Watts(70.0 * JOB as f64);

    println!(
        "{:<18} {:>12} {:>12} {:>10} {:>12}",
        "policy", "VaFs[s]", "Naive[s]", "VaFs gain", "plan f[GHz]"
    );

    let policies = [
        ("Contiguous", AllocationPolicy::Contiguous),
        ("Strided(16)", AllocationPolicy::Strided { stride: 16 }),
        ("Random", AllocationPolicy::Random),
        ("LowestPowerFirst", AllocationPolicy::LowestPowerFirst),
    ];

    for (name, policy) in policies {
        let ids = policy.allocate(&cluster, JOB, mhd.activity, SEED);

        let vafs_plan =
            budgeter.plan(&mut cluster, SchemeId::VaFs, &mhd, budget, &ids).expect("feasible");
        let vafs = run_region(&mut cluster, &vafs_plan, &mhd, &program, &ids, &comm, SEED);

        let naive_plan =
            budgeter.plan(&mut cluster, SchemeId::Naive, &mhd, budget, &ids).expect("feasible");
        let naive = run_region(&mut cluster, &naive_plan, &mhd, &program, &ids, &comm, SEED);

        println!(
            "{:<18} {:>12.1} {:>12.1} {:>9.2}x {:>12.2}",
            name,
            vafs.makespan().value(),
            naive.makespan().value(),
            naive.makespan().value() / vafs.makespan().value(),
            vafs_plan.allocations[0].frequency.value(),
        );
    }

    println!(
        "\nLowestPowerFirst hands the job the most power-efficient silicon,\n\
         so the same budget buys a higher common frequency — allocation and\n\
         budgeting compound. Under Naive, the job's worst allocated module\n\
         sets the pace, so the policy matters even more."
    );
}
