//! The vap benchmark harness: one timing path, [`Runner`], behind the
//! `profile` bin, the one program that times anything and writes
//! `BENCH.json`, plus the counting allocator behind the zero-realloc
//! capacity regression test (`tests/alloc_regression.rs`).

use std::alloc::{GlobalAlloc, Layout, System};
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

use vap_obs::json::{ObjectWriter, ToJson, Value};
use vap_obs::Histogram;
use vap_stats::descriptive::quantile;

/// Wall seconds of one call of `f`, the drop of its result included.
/// The result goes through [`black_box`] so the work cannot be optimized
/// away.
pub fn time_s<T>(f: impl FnOnce() -> T) -> f64 {
    let t0 = Instant::now();
    black_box(f());
    t0.elapsed().as_secs_f64()
}

/// `x` to four significant digits: as much as a median of ten samples
/// supports, and short enough to read in the record.
fn round_sig(x: f64) -> f64 {
    format!("{x:.3e}").parse().unwrap_or(x)
}

/// One recorded case: `n` samples of one quantity in one unit,
/// summarized by their median and quartiles.
#[derive(Debug, Clone)]
struct Row {
    name: String,
    unit: &'static str,
    n: usize,
    median: f64,
    q1: f64,
    q3: f64,
    /// The 95th and 99th percentiles, for tail and latency rows.
    tail: Option<[f64; 2]>,
}

impl Row {
    /// A row over `n` samples whose `p`-quantile is `q(p)`.
    fn new(name: &str, unit: &'static str, n: usize, q: impl Fn(f64) -> f64) -> Row {
        Row { name: name.into(), unit, n, median: q(0.5), q1: q(0.25), q3: q(0.75), tail: None }
    }
}

impl std::fmt::Display for Row {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let v = |x: f64| match self.unit {
            "s" => fmt_s(x),
            unit => format!("{} {unit}", round_sig(x)),
        };
        let (median, q1, q3) = (v(self.median), v(self.q1), v(self.q3));
        write!(f, "{:<44} {median:>12}  [{q1} .. {q3}]  n={}", self.name, self.n)
    }
}

impl ToJson for Row {
    fn write_json(&self, out: &mut String) {
        let mut o = ObjectWriter::new(out);
        o.field("name", &self.name)
            .field("unit", self.unit)
            .field("n", &self.n)
            .field("median", &round_sig(self.median))
            .field("q1", &round_sig(self.q1))
            .field("q3", &round_sig(self.q3));
        if let Some([p95, p99]) = self.tail {
            o.field("p95", &round_sig(p95)).field("p99", &round_sig(p99));
        }
        o.end();
    }
}

/// Rows as a JSON array with one row per line, so the committed record
/// diffs line by line.
struct Lines<'a>(&'a [Row]);

impl ToJson for Lines<'_> {
    fn write_json(&self, out: &mut String) {
        out.push('[');
        for (i, row) in self.0.iter().enumerate() {
            out.push_str(if i == 0 { "\n" } else { ",\n" });
            row.write_json(out);
        }
        out.push_str("\n]");
    }
}

/// Usage of `profile`, whose cases run through [`Runner`].
const USAGE: &str = "\
usage: profile [FILTER]

Times every case whose name contains FILTER (every case without one),
printing each row to stderr as it lands, then prints the BENCH.json
record to stdout.

options:
  -h, --help  print this help
";

/// What a command line asks of a [`Runner`].
#[derive(Debug, PartialEq, Eq)]
enum Args {
    /// Time the cases whose name contains `filter`, or every case.
    Run {
        /// The one argument that is not a flag.
        filter: Option<String>,
    },
    /// Print [`USAGE`].
    Help,
}

impl Args {
    /// Parse the arguments after the program name: at most one filter
    /// and `-h`/`--help`. Any other argument starting with `-` is an
    /// error.
    fn parse(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
        let mut filter = None;
        for arg in args {
            match arg.as_str() {
                "-h" | "--help" => return Ok(Args::Help),
                flag if flag.starts_with('-') => return Err(format!("unknown flag `{flag}`")),
                _ => match &filter {
                    Some(first) => {
                        return Err(format!("at most one filter: `{first}`, then `{arg}`"))
                    }
                    None => filter = Some(arg),
                },
            }
        }
        Ok(Args::Run { filter })
    }
}

/// Times cases and keeps one row per case: its median and quartiles
/// over [`Runner::SAMPLES`] timed samples. Each row is also printed to
/// stderr as it lands; [`Runner::report`] renders them all as the
/// `BENCH.json` document.
///
/// The command-line filter (`profile ledger`, `profile report/`) runs
/// only the cases whose name contains it.
#[derive(Debug, Clone)]
pub struct Runner {
    filter: Option<String>,
    rows: Vec<Row>,
}

impl Runner {
    /// Timed samples per case (rounds per interleaved comparison).
    pub const SAMPLES: usize = 10;

    /// A runner configured from the process arguments: at most one
    /// filter. `-h`/`--help` prints the usage and exits 0; any other flag
    /// or a second filter prints the error and the usage to stderr and
    /// exits 2.
    pub fn from_args() -> Self {
        match Args::parse(std::env::args().skip(1)) {
            Ok(Args::Run { filter }) => Runner { filter, rows: Vec::new() },
            Ok(Args::Help) => {
                // vap:allow(no-println-in-lib): usage is profile's output
                print!("{USAGE}");
                std::process::exit(0)
            }
            Err(e) => {
                // vap:allow(no-println-in-lib): usage is profile's output
                eprint!("{e}\n\n{USAGE}");
                std::process::exit(vap_report::cli::EXIT_USAGE)
            }
        }
    }

    /// Whether the command-line filter lets `name` run.
    pub fn selected(&self, name: &str) -> bool {
        self.filter.as_deref().is_none_or(|f| name.contains(f))
    }

    fn push(&mut self, row: Row) {
        // vap:allow(no-println-in-lib): the runner's progress report is
        // the bench binary's output
        eprintln!("{row}");
        self.rows.push(row);
    }

    /// Record `samples` of `name`, measured outside the runner, in `unit`.
    pub fn record(&mut self, name: &str, unit: &'static str, samples: Vec<f64>) {
        if self.selected(name) {
            let q = |p| quantile(&samples, p).unwrap_or(0.0);
            self.push(Row::new(name, unit, samples.len(), q));
        }
    }

    /// Like [`Runner::record`], with the p95 and p99 as well. Over at
    /// most 100 samples the p99 weighs the largest, so a count recorded
    /// this way reads 0 at p99 only if every sample is 0.
    pub fn record_tail(&mut self, name: &str, unit: &'static str, samples: Vec<f64>) {
        if self.selected(name) {
            let q = |p| quantile(&samples, p).unwrap_or(0.0);
            let tail = Some([q(0.95), q(0.99)]);
            self.push(Row { tail, ..Row::new(name, unit, samples.len(), q) });
        }
    }

    /// Record a latency histogram of `name` in `unit`, with its p95 and
    /// p99 as well as its quartiles.
    pub fn record_histogram(&mut self, name: &str, unit: &'static str, hist: &Histogram) {
        if self.selected(name) {
            let q = |p| hist.quantile(p).unwrap_or(0.0);
            let tail = Some([q(0.95), q(0.99)]);
            self.push(Row { tail, ..Row::new(name, unit, hist.count as usize, q) });
        }
    }

    /// Time `f` in seconds per call.
    ///
    /// Fast cases are batched so one timed sample lasts at least a
    /// millisecond, and the per-call time is the batch time divided by
    /// the batch size.
    pub fn case<T>(&mut self, name: &str, mut f: impl FnMut() -> T) {
        if !self.selected(name) {
            return;
        }
        let once = time_s(&mut f);
        let batch = if once > 0.0 { (1e-3 / once).ceil().clamp(1.0, 1e6) as usize } else { 1 };
        let samples = (0..Self::SAMPLES)
            .map(|_| time_s(|| (0..batch).map(|_| black_box(f())).count()) / batch as f64)
            .collect();
        self.record(name, "s", samples);
    }

    /// Time `routine` in seconds per call on a fresh `setup()` value per
    /// call, excluding the setup from the measurement.
    pub fn case_with_setup<S, T>(
        &mut self,
        name: &str,
        setup: impl FnMut() -> S,
        routine: impl FnMut(S) -> T,
    ) {
        if self.selected(name) {
            let samples = fresh_times(setup, routine);
            self.record(name, "s", samples);
        }
    }

    /// Like [`Runner::case_with_setup`], but record the rate `work /
    /// seconds` of each call (events/s, say) in `unit`.
    pub fn rate<S, T>(
        &mut self,
        name: &str,
        unit: &'static str,
        work: f64,
        setup: impl FnMut() -> S,
        routine: impl FnMut(S) -> T,
    ) {
        if self.selected(name) {
            let samples = fresh_times(setup, routine).into_iter().map(|t| work / t).collect();
            self.record(name, unit, samples);
        }
    }

    /// Time `sides` as an untimed round, then [`Runner::SAMPLES`] timed
    /// ones, each starting one side later than the last, so drift falls
    /// on every side alike. A side's call returns the seconds of its own
    /// sample, from [`time_s`], so it can set state up and tear it down
    /// outside the clock. Records every side in seconds per call and
    /// `ratio`, the per-round quotient of the first side over the last.
    pub fn interleave(&mut self, ratio: &str, sides: &mut [(&str, &mut dyn FnMut() -> f64)]) {
        let k = sides.len();
        let mut names = std::iter::once(ratio).chain(sides.iter().map(|(name, _)| *name));
        if k < 2 || !names.any(|name| self.selected(name)) {
            return;
        }
        let mut times = vec![Vec::with_capacity(Self::SAMPLES); k];
        for round in 0..=Self::SAMPLES {
            for side in (0..k).map(|j| (round + j) % k) {
                let t = (sides[side].1)();
                times[side].extend((round > 0).then_some(t));
            }
        }
        let ratios = times[0].iter().zip(&times[k - 1]).map(|(a, b)| a / b).collect();
        for ((name, _), samples) in sides.iter().zip(times) {
            self.record(name, "s", samples);
        }
        self.record(ratio, "ratio", ratios);
    }

    /// Every recorded row as the `BENCH.json` document:
    /// `{"host":{"nproc":N},"cases":[{name, unit, n, median, q1, q3}, ...]}`,
    /// tail and latency rows adding `p95` and `p99`.
    pub fn report(&self) -> String {
        let nproc = vap_exec::available_parallelism() as u64;
        let mut out = String::new();
        let mut o = ObjectWriter::new(&mut out);
        o.field("host", &Value::object([("nproc", Value::from(nproc))]));
        o.field("cases", &Lines(&self.rows));
        o.end();
        out.push('\n');
        out
    }
}

/// Seconds of [`Runner::SAMPLES`] calls of `routine`, each on a fresh
/// `setup()` value made outside the timing, after one untimed call.
fn fresh_times<S, T>(mut setup: impl FnMut() -> S, mut routine: impl FnMut(S) -> T) -> Vec<f64> {
    black_box(routine(setup()));
    (0..Runner::SAMPLES)
        .map(|_| {
            let input = setup();
            time_s(|| routine(input))
        })
        .collect()
}

fn fmt_s(s: f64) -> String {
    if s >= 1.0 {
        format!("{s:.3} s")
    } else if s >= 1e-3 {
        format!("{:.3} ms", s * 1e3)
    } else if s >= 1e-6 {
        format!("{:.3} µs", s * 1e6)
    } else {
        format!("{:.1} ns", s * 1e9)
    }
}

/// Allocation counts observed between [`CountingAllocator::start`] and
/// [`CountingAllocator::stop`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AllocCounts {
    /// Fresh allocations (`alloc` + `alloc_zeroed`).
    pub allocs: u64,
    /// Grow/shrink-in-place-or-move calls — the thing a correctly
    /// preallocated construction path must never trigger.
    pub reallocs: u64,
    /// Frees.
    pub deallocs: u64,
}

/// A `System`-backed global allocator that counts calls while a window is
/// open.
///
/// Install it with `#[global_allocator]` in a `harness = false` test
/// binary, bracket the code under scrutiny with `start()`/`stop()`, and
/// assert on the returned [`AllocCounts`]. Counting uses relaxed atomics:
/// the regression tests are single-threaded and only ever compare against
/// zero, so no ordering subtleties apply.
pub struct CountingAllocator {
    enabled: AtomicBool,
    allocs: AtomicU64,
    reallocs: AtomicU64,
    deallocs: AtomicU64,
}

impl CountingAllocator {
    /// A fresh allocator with counting disabled.
    pub const fn new() -> Self {
        CountingAllocator {
            enabled: AtomicBool::new(false),
            allocs: AtomicU64::new(0),
            reallocs: AtomicU64::new(0),
            deallocs: AtomicU64::new(0),
        }
    }

    /// Zero the counters and open a counting window.
    pub fn start(&self) {
        self.allocs.store(0, Ordering::Relaxed);
        self.reallocs.store(0, Ordering::Relaxed);
        self.deallocs.store(0, Ordering::Relaxed);
        self.enabled.store(true, Ordering::Relaxed);
    }

    /// Close the counting window and return what it saw.
    pub fn stop(&self) -> AllocCounts {
        self.enabled.store(false, Ordering::Relaxed);
        AllocCounts {
            allocs: self.allocs.load(Ordering::Relaxed),
            reallocs: self.reallocs.load(Ordering::Relaxed),
            deallocs: self.deallocs.load(Ordering::Relaxed),
        }
    }

    fn count(&self, counter: &AtomicU64) {
        if self.enabled.load(Ordering::Relaxed) {
            counter.fetch_add(1, Ordering::Relaxed);
        }
    }
}

impl Default for CountingAllocator {
    fn default() -> Self {
        Self::new()
    }
}

// SAFETY: pure pass-through to `System`; the only added behavior is
// relaxed counter bumps, which allocate nothing and cannot reenter.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        self.count(&self.allocs);
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        self.count(&self.allocs);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        self.count(&self.deallocs);
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        self.count(&self.reallocs);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn runner() -> Runner {
        Runner { filter: None, rows: Vec::new() }
    }

    #[test]
    fn report_is_one_row_shape_through_the_json_parser() {
        let mut r = runner();
        r.record("a", "s", vec![3.0, 1.0, 2.0, 5.0, 4.0]);
        let mut hist = Histogram::default();
        (1..=100).for_each(|ms| hist.observe(f64::from(ms)));
        r.record_histogram("lat", "ms", &hist);
        let order = &std::cell::RefCell::new(String::new());
        let side = |id: char, secs: f64| {
            move || {
                order.borrow_mut().push(id);
                secs
            }
        };
        let (mut a, mut b, mut c) = (side('a', 4.0), side('b', 1.0), side('c', 2.0));
        r.interleave("a_over_c", &mut [("pa", &mut a), ("pb", &mut b), ("pc", &mut c)]);
        // rounds start one side later each time; the first is untimed
        assert!(order.borrow().starts_with("abcbcacababc"));

        let doc = vap_obs::json::parse(&r.report()).unwrap();
        assert!(doc.get("host").and_then(|h| h.get("nproc")).is_some());
        let Some(Value::Array(cases)) = doc.get("cases") else { panic!("cases array") };
        let names: Vec<_> = cases.iter().map(|c| c.get("name").unwrap().clone()).collect();
        let expect = ["a", "lat", "pa", "pb", "pc", "a_over_c"];
        assert_eq!(names, expect.map(Value::from));
        assert_eq!(cases[0].get("median"), Some(&Value::from(3.0)));
        assert_eq!(cases[0].get("n"), Some(&Value::from(5u64)));
        assert!(cases[0].get("p99").is_none());
        assert!(cases[1].get("p95").is_some() && cases[1].get("p99").is_some());
        assert_eq!(cases[5].get("unit"), Some(&Value::from("ratio")));
        assert_eq!(cases[5].get("median"), Some(&Value::from(2.0)));
        assert_eq!(cases[5].get("n"), Some(&Value::from(Runner::SAMPLES as u64)));
    }

    #[test]
    fn a_filter_keeps_only_matching_cases() {
        let mut r = Runner { filter: Some("keep".into()), rows: Vec::new() };
        r.case("keep_me", || 1);
        r.case("drop_me", || panic!("a filtered-out case must not run"));
        assert_eq!(r.rows.len(), 1);
        assert_eq!(r.rows[0].name, "keep_me");
    }

    fn parse(args: &[&str]) -> Result<Args, String> {
        Args::parse(args.iter().map(|a| a.to_string()))
    }

    fn run(filter: Option<&str>) -> Result<Args, String> {
        Ok(Args::Run { filter: filter.map(str::to_string) })
    }

    #[test]
    fn at_most_one_filter() {
        assert_eq!(parse(&[]), run(None));
        assert_eq!(parse(&["ledger"]), run(Some("ledger")));
        assert!(parse(&["ledger", "scrape"]).is_err());
    }

    #[test]
    fn help_flags_ask_for_usage() {
        for flag in ["-h", "--help"] {
            assert_eq!(parse(&[flag]), Ok(Args::Help));
            assert_eq!(parse(&["ledger", flag]), Ok(Args::Help));
        }
    }

    #[test]
    fn other_flags_are_usage_errors() {
        for flag in ["--bench", "--bogus", "-x", "--", "-", "--benchmark", "-1"] {
            let err = parse(&[flag]).unwrap_err();
            assert!(err.contains(flag), "{flag}: {err}");
        }
    }

    #[test]
    fn hostile_argument_lists_parse_to_one_filter_or_fail() {
        let flags = ["--bench", "-h", "--help", "--bogus", "-", "ledger", "scrape"];
        vap_model::rng::check("runner_args", 0xbe7c, vap_report::cli::HOSTILE_CASES, |rng| {
            let args = vap_report::cli::hostile_args(rng, &flags);
            let plain: Vec<&String> = args.iter().filter(|a| !a.starts_with('-')).collect();
            let known = |a: &String| !a.starts_with('-') || ["-h", "--help"].contains(&a.as_str());
            match Args::parse(args.clone()) {
                Ok(Args::Help) => assert!(args.iter().any(|a| a == "-h" || a == "--help")),
                Ok(Args::Run { filter }) => {
                    assert!(args.iter().all(|a| !a.starts_with('-')));
                    assert!(plain.len() <= 1, "{plain:?}");
                    assert_eq!(filter.as_ref(), plain.first().copied());
                }
                Err(_) => assert!(!args.iter().all(known) || plain.len() > 1),
            }
        });
    }
}
