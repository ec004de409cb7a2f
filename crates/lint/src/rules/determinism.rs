//! `determinism`: the simulation core must be replay-deterministic.
//!
//! `tests/determinism.rs` asserts that two campaigns with the same seed
//! produce bit-identical plans and power traces. That property dies the
//! moment simulation state iterates a `HashMap` (randomized iteration
//! order since Rust 1.36) or consults OS entropy / wall clocks. In
//! `vap-sim`, `vap-mpi`, `vap-core`, `vap-exec` (the deterministic
//! parallel execution layer lives or dies by this property), `vap-sched`
//! (the discrete-event runtime replays traces byte-for-byte),
//! `vap-scenario` (perturbation schedules are part of the replay's
//! deterministic surface — a wall clock in event generation would make
//! every campaign unrepeatable) and `vap-daemon` (the service plane
//! promises a journal that is invariant under scraper load; its
//! wall-clock pacing side channel carries explicit `vap:allow` markers),
//! non-test code must not use:
//!
//! * `std::collections::HashMap` / `HashSet` — use `BTreeMap` /
//!   `BTreeSet` / `Vec` (deterministic iteration, stable snapshots);
//! * `thread_rng()` / `rand::rng()` — use a seeded
//!   `vap_model::rng::SplitMix64`, the workspace's one RNG;
//! * `SystemTime::now()` / `Instant::now()` — simulated time only.

use super::{report_sites, Context, Rule, Word};
use crate::diag::Finding;
use crate::source::SourceFile;

/// The rule's name.
pub(crate) const NAME: &str = "determinism";

/// Crates whose state must replay deterministically.
const SCOPE: [&str; 7] =
    ["vap-sim", "vap-mpi", "vap-core", "vap-exec", "vap-sched", "vap-scenario", "vap-daemon"];

/// `vap-obs` modules that feed the deterministic journal. The recorder
/// crate as a whole stays out of scope (its session plumbing is host-side
/// glue), but watt-provenance bins, histograms, decision records and
/// drift state are replayed byte-for-byte — a wall clock or hash-ordered
/// map in any of them would silently break journal identity.
const MODULE_SCOPE: [&str; 4] = [
    "crates/obs/src/ledger.rs",
    "crates/obs/src/hist.rs",
    "crates/obs/src/decision.rs",
    "crates/obs/src/drift.rs",
];

/// The help text of each word's finding.
fn help(word: Word) -> &'static str {
    match word {
        Word::HashMap => {
            "use BTreeMap or a Vec keyed by module id — campaign replays must be bit-identical"
        }
        Word::HashSet => "use BTreeSet or a sorted Vec — campaign replays must be bit-identical",
        Word::ThreadRng | Word::RandRng => {
            "use a seeded vap_model::rng::SplitMix64 threaded from the campaign seed"
        }
        // `SystemTime::now` and `Instant::now`
        _ => "simulation time is stepped explicitly (Seconds); wall clocks break replay",
    }
}

/// The `determinism` rule.
pub struct Determinism;

impl Rule for Determinism {
    fn name(&self) -> &'static str {
        NAME
    }

    fn description(&self) -> &'static str {
        "no HashMap/HashSet state or OS entropy/wall clocks in vap-sim/vap-mpi/vap-core/vap-exec/vap-sched/vap-scenario/vap-daemon or the vap-obs ledger/hist/decision/drift modules"
    }

    fn check(&self, file: &SourceFile, _ctx: &Context<'_>, out: &mut Vec<Finding>) {
        let crate_in_scope = SCOPE.contains(&file.crate_name.as_str());
        let module_in_scope = MODULE_SCOPE.iter().any(|suffix| file.path.ends_with(suffix));
        if crate_in_scope || module_in_scope {
            report_sites(file, NAME, help, out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn findings(crate_name: &str, src: &str) -> Vec<Finding> {
        in_file("crates/sim/src/x.rs", crate_name, src)
    }

    fn in_file(path: &str, crate_name: &str, src: &str) -> Vec<Finding> {
        crate::rules::tests::findings(&Determinism, &[(path, crate_name, src)], &[])
    }

    #[test]
    fn fires_on_hash_collections_and_entropy() {
        let src = "use std::collections::HashMap;\nlet s: HashSet<u32> = HashSet::new();\n\
                   let mut rng = rand::rng();\nlet r = thread_rng();\n\
                   let t = std::time::Instant::now();\nlet w = SystemTime::now();\n";
        let hits = findings("vap-sim", src);
        assert_eq!(hits.len(), 7); // HashSet appears twice on its line

        // the workspace has no `rand`: the help names its own RNG
        let entropy: Vec<_> = hits.iter().filter(|f| f.message.contains("entropy")).collect();
        assert_eq!(entropy.len(), 2);
        for f in entropy {
            assert!(f.help.contains("SplitMix64") && !f.help.contains("rand::"), "{}", f.help);
        }
    }

    #[test]
    fn quiet_on_deterministic_alternatives() {
        let src = "use std::collections::BTreeMap;\nlet rng = StdRng::seed_from_u64(seed);\n\
                   use rand::rngs::StdRng;\nlet m: BTreeMap<u32, u32> = BTreeMap::new();\n";
        assert!(findings("vap-sim", src).is_empty());
    }

    #[test]
    fn out_of_scope_crates_are_ignored() {
        assert!(findings("vap-report", "use std::collections::HashMap;\n").is_empty());
    }

    #[test]
    fn the_sched_runtime_is_in_scope() {
        assert_eq!(findings("vap-sched", "let q = HashMap::new();\n").len(), 1);
    }

    #[test]
    fn scenario_event_generation_must_not_consult_wall_clocks() {
        // a `Scenario::events()` schedule stamped from the host clock
        // would differ on every run — the exact failure mode this rule
        // exists to catch
        let src = "let at_s = SystemTime::now().elapsed().unwrap().as_secs_f64();\n\
                   let jitter = thread_rng();\n";
        assert_eq!(findings("vap-scenario", src).len(), 2);
        assert!(findings("vap-scenario", "let rng = SplitMix64::new(seed);\n").is_empty());
    }

    #[test]
    fn the_daemon_is_in_scope() {
        assert_eq!(findings("vap-daemon", "let t = Instant::now();\n").len(), 1);
        // the pacing side channel must carry an explicit allow marker
        let src = "// vap:allow(determinism): wall-clock pacing side channel\n\
                   let start = Instant::now();\n";
        assert!(findings("vap-daemon", src).is_empty());
    }

    #[test]
    fn the_soa_fleet_module_is_in_scope() {
        // the fleet's columns live in vap-sim: a stray wall clock or
        // hash-ordered column there would break the byte-identity that
        // tests/golden_digests.rs pins
        let src = "let order = HashMap::new();\nlet t0 = Instant::now();\n";
        let out = in_file("crates/sim/src/fleet.rs", "vap-sim", src);
        assert_eq!(out.len(), 2, "{out:?}");
    }

    #[test]
    fn the_ledger_modules_are_in_scope_by_path() {
        // wall clocks must stay out of watt-provenance binning even
        // though the wider vap-obs crate is exempt
        for path in super::MODULE_SCOPE {
            let out = in_file(path, "vap-obs", "let t = Instant::now();\n");
            assert_eq!(out.len(), 1, "{path} must be in scope");
        }
        // the session/recorder plumbing stays host-side glue
        let out = in_file("crates/obs/src/recorder.rs", "vap-obs", "let t = Instant::now();\n");
        assert!(out.is_empty(), "recorder.rs is out of scope");
    }

    #[test]
    fn test_code_is_exempt() {
        let src = "#[cfg(test)]\nmod tests {\n    use std::collections::HashMap;\n}\n";
        assert!(findings("vap-sim", src).is_empty());
    }

    #[test]
    fn allow_marker_suppresses() {
        let src = "// vap:allow(determinism): scratch map is drained into a sorted Vec\n\
                   let mut m = HashMap::new();\n";
        assert!(findings("vap-core", src).is_empty());
    }
}
