//! Hostile input to the in-tree JSON readers: seeded byte mutations of
//! real artifacts must come back as `Ok` or `Err`, never as a panic, and
//! pathological nesting must be refused without exhausting the stack.
//!
//! The corpus is one real journal (a scheduling campaign with the ledger
//! armed plus a drift study, so it carries cell, ledger, decision and
//! scenario lines), that session's Chrome trace, a scheduler schedule
//! trace and a PVT file. Each case applies one to three mutations —
//! truncate, flip a bit, duplicate a span, or insert one of `[`, `{`,
//! `"`, `\` — and feeds the result to every reader. The case budget is
//! fixed; a failure names the case seed to replay.
//!
//! The smallest fleets the command line admits are hostile input too:
//! every registered experiment at one to three modules must return its
//! output or an error, never panic.

use vap::prelude::*;
use vap_model::rng::{check, SplitMix64};
use vap_obs::export::JournalLine;
use vap_obs::json::FromJson;
use vap_obs::{validate_journal, validate_trace};
use vap_report::experiments::{drift_study, sched_study};
use vap_report::RunOptions;

/// Mutated inputs fed to each reader.
const CASES: usize = 300;

struct Corpus {
    journal: String,
    traces: Vec<String>,
    pvt: String,
}

fn corpus() -> Corpus {
    let opts = RunOptions { modules: Some(16), seed: 2015, scale: 0.02, ..RunOptions::default() };
    let session = vap_obs::Session::install_with_ledger();
    let sched = sched_study::run(&opts);
    drift_study::run(&opts);
    let report = session.finish();

    let mut cluster = Cluster::with_size(SystemSpec::ha8k(), 8, 7);
    let pvt = PowerVariationTable::generate(&mut cluster, &catalog::get(WorkloadId::Stream), 7);

    let corpus = Corpus {
        journal: report.journal_jsonl,
        traces: vec![report.trace_json, sched.timeline_json],
        pvt: pvt.to_json(),
    };
    // the unmutated corpus is valid, and covers every journal line type
    validate_journal(&corpus.journal).expect("real journal validates");
    for line in ["\"type\":\"ledger\"", "\"type\":\"decision\"", "\"type\":\"scenario\""] {
        assert!(corpus.journal.contains(line), "corpus journal lacks {line}");
    }
    for t in &corpus.traces {
        validate_trace(t).expect("real trace validates");
    }
    PowerVariationTable::from_json(&corpus.pvt).expect("real PVT loads");
    corpus
}

/// One to three seeded byte mutations of `input`, decoded lossily back
/// into text (the readers take `&str`).
fn mutate(rng: &mut SplitMix64, input: &str) -> String {
    let mut bytes = input.as_bytes().to_vec();
    for _ in 0..1 + rng.next_index(3) {
        if bytes.is_empty() {
            break;
        }
        let at = rng.next_index(bytes.len());
        match rng.next_index(4) {
            0 => bytes.truncate(at),
            1 => bytes[at] ^= 1 << rng.next_index(8),
            2 => {
                let end = (at + 1 + rng.next_index(64)).min(bytes.len());
                let span = bytes[at..end].to_vec();
                bytes.splice(at..at, span);
            }
            _ => bytes.insert(at, [b'[', b'{', b'"', b'\\'][rng.next_index(4)]),
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

#[test]
fn mutated_artifacts_never_panic_a_reader() {
    let corpus = corpus();
    let journal_lines: Vec<&str> = corpus.journal.lines().collect();
    check("mutated_journal", 1, CASES, |rng| {
        let journal = mutate(rng, &corpus.journal);
        let _ = validate_journal(&journal);
        // the per-line reader `explain` uses, on one mutated line
        let pick = rng.next_index(journal_lines.len());
        let line = mutate(rng, journal_lines[pick]);
        let _ = JournalLine::from_json(&line);
    });
    check("mutated_trace", 2, CASES, |rng| {
        let trace = &corpus.traces[rng.next_index(corpus.traces.len())];
        let _ = validate_trace(&mutate(rng, trace));
    });
    check("mutated_pvt", 3, CASES, |rng| {
        let _ = PowerVariationTable::from_json(&mutate(rng, &corpus.pvt));
    });
}

#[test]
fn deep_nesting_is_an_error_not_a_stack_overflow() {
    for open in ["[", "{\"a\":"] {
        let deep = open.repeat(100_000);
        assert!(validate_journal(&deep).is_err());
        assert!(JournalLine::from_json(&deep).is_err());
        assert!(validate_trace(&deep).is_err());
        assert!(PowerVariationTable::from_json(&deep).is_err());
        // closed nesting is refused just the same
        let closed = format!("{}{}", "[".repeat(100_000), "]".repeat(100_000));
        assert!(PowerVariationTable::from_json(&closed).is_err());
    }
}

#[test]
fn tiny_fleets_return_output_or_an_error_never_a_panic() {
    use vap_report::registry::{Context, EXPERIMENTS};
    for modules in 1..=3 {
        let opts = RunOptions {
            modules: Some(modules),
            seed: 2015,
            scale: 0.02,
            threads: Some(1),
            ..RunOptions::default()
        };
        let cx = Context::new(&opts);
        for e in EXPERIMENTS {
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                (e.run)(&cx).map(drop).map_err(|err| err.to_string())
            }));
            assert!(outcome.is_ok(), "{} panicked at --modules {modules}", e.name);
        }
    }
}
