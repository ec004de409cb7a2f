//! The session recorder: TLS-scoped, thread-aware, zero-cost when off.
//!
//! # Architecture
//!
//! * A [`Session`] is installed on the driver thread (by `vap-report`'s
//!   `run_main_with` when `--metrics`/`--trace-out` is given, or by a
//!   test). Installation is
//!   **thread-local**: concurrent sessions on other threads — `cargo
//!   test` runs tests in parallel in one process — never cross-talk.
//! * `vap-exec` captures the installing thread's [`SessionRef`] before
//!   spawning workers and brackets every work item with
//!   [`SessionRef::run_item`], which gives the worker an *item context*:
//!   a thread-local `Scope` plus the item's `(grid, index)` identity
//!   and worker lane.
//! * Instrumentation sites ([`incr`], [`observe`], [`ledger_tick`],
//!   [`decision`], [`scenario_event`]) write into the item's scope
//!   lock-free; the scope is merged into the session's per-cell record
//!   when the item completes. Outside an item the calls fall through to
//!   the session's driver scope.
//!
//! # Determinism contract
//!
//! The deterministic journal is a pure function of the work executed:
//! cell records are keyed `(grid, index)` where grid ids are assigned in
//! driver-thread call order and indices are the item indices `vap-exec`'s
//! fan-outs already guarantee; counter/histogram merges are commutative. Thread
//! scheduling decides only *which lane* wall-clock spans land on — and
//! spans live exclusively in the Chrome-trace side channel, never in the
//! journal.
//!
//! # Cost when disabled
//!
//! Every public entry point first reads one relaxed atomic ([`enabled`]).
//! With no live session in the process that load is the entire cost: no
//! TLS access, no allocation (covered by `tests/no_alloc.rs`).

use std::cell::RefCell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

use crate::decision::DecisionRecord;
use crate::export::ObsReport;
use crate::ledger::{LedgerTable, LedgerTick};
use crate::metrics::Metrics;
use crate::scenario::ScenarioRecord;

/// Number of live sessions in the process — the fast-path gate.
// vap:allow(shared-state-in-par): deliberately process-wide; a relaxed counter is race-safe and never feeds results
static LIVE: AtomicUsize = AtomicUsize::new(0);

/// Number of live sessions with the watt-provenance ledger armed. A
/// separate gate from [`LIVE`] so `--metrics` runs don't pay ledger
/// construction, and the ledger-off hot path stays one relaxed load
/// (asserted by `crates/bench/tests/alloc_regression.rs`).
// vap:allow(shared-state-in-par): deliberately process-wide; a relaxed counter is race-safe and never feeds results
static LEDGER: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// The session installed on (or propagated to) this thread.
    // vap:allow(shared-state-in-par): thread-local by construction; propagation into workers is explicit
    static CURRENT: RefCell<Option<SessionRef>> = const { RefCell::new(None) };
    /// The work item this thread is currently executing, if any.
    // vap:allow(shared-state-in-par): thread-local by construction; never shared across workers
    static ITEM: RefCell<Option<ItemCtx>> = const { RefCell::new(None) };
}

/// Whether any session is live in the process (one relaxed atomic load).
#[inline]
pub fn enabled() -> bool {
    LIVE.load(Ordering::Relaxed) != 0
}

/// Whether any ledger-armed session is live (one relaxed atomic load).
#[inline]
pub fn ledger_enabled() -> bool {
    LEDGER.load(Ordering::Relaxed) != 0
}

/// One grid registered by a `par_grid`/`par_map_fleet` call.
#[derive(Debug, Clone)]
pub(crate) struct GridRecord {
    /// Item kind: `"cell"` or `"module"` (`"item"` in `vap-exec`'s tests).
    pub kind: &'static str,
    /// Number of items in the grid.
    pub items: u64,
}

/// Everything one scope records: the driver, an in-flight work item, or
/// a committed cell.
#[derive(Debug, Default)]
pub(crate) struct Scope {
    /// Counters and histograms.
    pub metrics: Metrics,
    /// Watt-provenance ledger ticks.
    pub ledger: LedgerTable,
    /// Scheduler decisions, in record order.
    pub decisions: Vec<DecisionRecord>,
    /// Applied scenario perturbations, in record order.
    pub scenarios: Vec<ScenarioRecord>,
}

impl Scope {
    /// Fold `other` in after this scope's records.
    fn merge(&mut self, other: Scope) {
        self.metrics.merge(&other.metrics);
        self.ledger.merge(&other.ledger);
        self.decisions.extend(other.decisions);
        self.scenarios.extend(other.scenarios);
    }
}

/// Deterministic per-item record: what one work item recorded.
#[derive(Debug)]
pub(crate) struct CellRecord {
    /// Item kind (same vocabulary as [`GridRecord::kind`]).
    pub kind: &'static str,
    /// Human label set via [`label_item`] (e.g. `dgemm@110W`).
    pub label: Option<String>,
    /// What the item recorded.
    pub scope: Scope,
}

/// Wall-clock span for the Chrome-trace side channel.
#[derive(Debug, Clone)]
pub(crate) struct SpanRecord {
    /// Span name (item label, or phase name for driver spans).
    pub name: String,
    /// Trace category (`"phase"` for driver spans, item kind otherwise).
    pub cat: &'static str,
    /// Timeline lane: 0 = driver, `w + 1` = worker slot `w`.
    pub lane: u32,
    /// Microseconds since session install.
    pub ts_us: u64,
    /// Span duration in microseconds.
    pub dur_us: u64,
}

#[derive(Debug, Default)]
pub(crate) struct Inner {
    /// What the driver recorded outside any item.
    pub direct: Scope,
    /// Per-item records, keyed `(grid id, item index)`.
    pub cells: std::collections::BTreeMap<(u64, u64), CellRecord>,
    /// Registered grids, in driver call order (the vec index is the id).
    pub grids: Vec<GridRecord>,
    /// Wall-clock spans (side channel — excluded from the journal).
    pub spans: Vec<SpanRecord>,
}

impl Inner {
    /// Every scope with its `(grid, index)`: the cells in `(grid, index)`
    /// order, then the driver's with `None`s.
    pub fn scopes(&self) -> impl Iterator<Item = (Option<u64>, Option<u64>, &Scope)> {
        let cells = self.cells.iter().map(|(&(g, i), c)| (Some(g), Some(i), &c.scope));
        cells.chain([(None, None, &self.direct)])
    }
}

#[derive(Debug)]
pub(crate) struct Shared {
    /// Wall-clock zero of the trace timeline.
    pub epoch: Instant,
    /// Whether this session records the watt-provenance ledger. The
    /// global [`LEDGER`] count is only the fast gate; the per-session
    /// bit keeps concurrent sessions (parallel tests in one process)
    /// from arming each other.
    pub ledger: bool,
    pub inner: Mutex<Inner>,
}

/// A cheap, cloneable handle to a live session.
#[derive(Debug, Clone)]
pub struct SessionRef(Arc<Shared>);

/// A thread's in-flight work item.
struct ItemCtx {
    session: SessionRef,
    grid: u64,
    kind: &'static str,
    index: u64,
    lane: u32,
    label: Option<String>,
    scope: Scope,
    start: Instant,
}

fn lock(shared: &Shared) -> MutexGuard<'_, Inner> {
    // A poisoned lock means a worker panicked mid-item; the partial data
    // is still worth exporting for the post-mortem.
    shared.inner.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

impl SessionRef {
    /// Register a fan-out of `items` work items of `kind`, returning the
    /// grid id. Must be called from outside any item (grid ids are
    /// deterministic because drivers register grids in program order).
    pub fn begin_grid(&self, kind: &'static str, items: usize) -> u64 {
        let mut inner = lock(&self.0);
        let id = inner.grids.len() as u64;
        inner.grids.push(GridRecord { kind, items: items as u64 });
        id
    }

    /// Execute one work item under this session: metrics recorded inside
    /// `f` accumulate into the `(grid, index)` cell, and the item's wall
    /// time lands on timeline lane `lane`.
    pub fn run_item<T>(
        &self,
        grid: u64,
        kind: &'static str,
        index: usize,
        lane: u32,
        f: impl FnOnce() -> T,
    ) -> T {
        let ctx = ItemCtx {
            session: self.clone(),
            grid,
            kind,
            index: index as u64,
            lane,
            label: None,
            scope: Scope::default(),
            start: Instant::now(),
        };
        // Stack the previous item (nested instrumented grids on the same
        // thread) and propagate the session to this thread so code inside
        // the item sees it as current.
        let prev_item = ITEM.with(|slot| slot.borrow_mut().replace(ctx));
        let prev_current = CURRENT.with(|slot| slot.borrow_mut().replace(self.clone()));
        let out = f();
        CURRENT.with(|slot| *slot.borrow_mut() = prev_current);
        let ctx = ITEM.with(|slot| {
            let mut slot = slot.borrow_mut();
            let ctx = slot.take();
            *slot = prev_item;
            ctx
        });
        if let Some(ctx) = ctx {
            self.commit(ctx);
        }
        out
    }

    fn commit(&self, ctx: ItemCtx) {
        let dur = ctx.start.elapsed();
        let ts = ctx.start.duration_since(self.0.epoch);
        let name = match &ctx.label {
            Some(l) => l.clone(),
            None => format!("{}[{}]", ctx.kind, ctx.index),
        };
        let mut inner = lock(&self.0);
        inner.spans.push(SpanRecord {
            name,
            cat: ctx.kind,
            lane: ctx.lane,
            ts_us: ts.as_micros() as u64,
            dur_us: dur.as_micros() as u64,
        });
        let items_counter = match ctx.kind {
            "cell" => "exec.cells",
            "module" => "exec.modules",
            _ => "exec.items",
        };
        inner.direct.metrics.incr_by(items_counter, 1);
        let cell = inner.cells.entry((ctx.grid, ctx.index)).or_insert_with(|| CellRecord {
            kind: ctx.kind,
            label: None,
            scope: Scope::default(),
        });
        if ctx.label.is_some() {
            cell.label = ctx.label;
        }
        cell.scope.merge(ctx.scope);
    }

    pub(crate) fn record_span(&self, span: SpanRecord) {
        lock(&self.0).spans.push(span);
    }

    pub(crate) fn epoch(&self) -> Instant {
        self.0.epoch
    }
}

/// The session the calling thread should hand to a *new* fan-out: its
/// current session, unless the thread is already inside a work item — a
/// nested grid's workers would register grids in racy order, so nested
/// parallelism runs unobserved (its metrics still accumulate into the
/// enclosing item via the item context).
pub fn grid_session() -> Option<SessionRef> {
    if !enabled() {
        return None;
    }
    let inside_item = ITEM.with(|slot| slot.borrow().is_some());
    if inside_item {
        return None;
    }
    CURRENT.with(|slot| slot.borrow().clone())
}

/// The session current on this thread, if any.
pub(crate) fn current_session() -> Option<SessionRef> {
    if !enabled() {
        return None;
    }
    CURRENT.with(|slot| slot.borrow().clone())
}

/// `(session, lane)` a wall-clock span on this thread should target.
pub(crate) fn span_target() -> Option<(SessionRef, u32)> {
    if !enabled() {
        return None;
    }
    let from_item =
        ITEM.with(|slot| slot.borrow().as_ref().map(|c| (c.session.clone(), c.lane)));
    if from_item.is_some() {
        return from_item;
    }
    CURRENT.with(|slot| slot.borrow().as_ref().map(|s| (s.clone(), 0)))
}

/// Build one record with `make` and apply it with `put` to the calling
/// thread's scope: its work item's if inside one, else its session's
/// driver scope. With no live session `make` never runs; it always runs
/// before any `RefCell` borrow or lock is taken.
#[inline]
fn record<T>(make: impl FnOnce() -> T, put: impl FnOnce(&mut Scope, T)) {
    if !enabled() {
        return;
    }
    let value = make();
    let unplaced = ITEM.with(|slot| match slot.borrow_mut().as_mut() {
        Some(ctx) => {
            put(&mut ctx.scope, value);
            None
        }
        None => Some((put, value)),
    });
    if let (Some((put, value)), Some(s)) = (unplaced, current_session()) {
        put(&mut lock(&s.0).direct, value);
    }
}

/// Add 1 to counter `name` in the current scope (item if inside one,
/// session otherwise; no-op without a session).
#[inline]
pub fn incr(name: &'static str) {
    incr_by(name, 1);
}

/// Add `by` to counter `name` in the current scope.
#[inline]
pub fn incr_by(name: &'static str, by: u64) {
    record(|| by, |scope, by| scope.metrics.incr_by(name, by));
}

/// Record `v` into histogram `name` in the current scope.
#[inline]
pub fn observe(name: &'static str, v: f64) {
    record(|| v, |scope, v| scope.metrics.observe(name, v));
}

/// Record one watt-provenance ledger tick in the current scope. The
/// closure builds the tick only when the scope's session is ledger-armed
/// ([`Session::install_with_ledger`]); with no armed session in the
/// process the entire cost is one relaxed atomic load — the closure
/// never runs, so producers can allocate entry vectors inside it freely.
#[inline]
pub fn ledger_tick(f: impl FnOnce() -> LedgerTick) {
    if !ledger_enabled() {
        return;
    }
    // Resolve the scope's armed bit *before* building the tick: a plain
    // session sharing the process with an armed one must not pay.
    let armed = ITEM
        .with(|slot| slot.borrow().as_ref().map(|c| c.session.0.ledger))
        .or_else(|| current_session().map(|s| s.0.ledger));
    if armed == Some(true) {
        record(f, |scope, tick| scope.ledger.record(tick));
    }
}

/// Record one scheduler decision in the current scope. Gated on
/// [`enabled`] (decisions ride with `--metrics`/`--trace-out`, no
/// separate flag): when no session is live the closure never runs.
#[inline]
pub fn decision(f: impl FnOnce() -> DecisionRecord) {
    record(f, |scope, r| scope.decisions.push(r));
}

/// Record one applied scenario perturbation in the current scope. Gated
/// on [`enabled`] like [`decision`]: when no session is live the closure
/// never runs, so producers pay one relaxed atomic load.
#[inline]
pub fn scenario_event(f: impl FnOnce() -> ScenarioRecord) {
    record(f, |scope, r| scope.scenarios.push(r));
}

/// Label the current work item (e.g. `dgemm@110W`). The closure only
/// runs when a session is live and the thread is inside an item, so the
/// format cost is never paid on unobserved runs.
pub fn label_item(f: impl FnOnce() -> String) {
    if !enabled() {
        return;
    }
    ITEM.with(|slot| {
        if let Some(ctx) = slot.borrow_mut().as_mut() {
            ctx.label = Some(f());
        }
    });
}

/// A live recording session (RAII).
///
/// Installing makes the calling thread's `vap-exec` fan-outs and
/// instrumentation calls record into this session; dropping or
/// [`Session::finish`]ing uninstalls it.
#[derive(Debug)]
pub struct Session {
    shared: Option<SessionRef>,
    prev: Option<SessionRef>,
    ledger: bool,
}

impl Session {
    /// Install a new session on the calling thread.
    pub fn install() -> Session {
        Session::install_inner(false)
    }

    /// Install a new session with the watt-provenance ledger armed:
    /// [`ledger_tick`] calls record (and pay) only under such a session.
    pub fn install_with_ledger() -> Session {
        Session::install_inner(true)
    }

    fn install_inner(ledger: bool) -> Session {
        let shared = SessionRef(Arc::new(Shared {
            epoch: Instant::now(),
            ledger,
            inner: Mutex::new(Inner::default()),
        }));
        let prev = CURRENT.with(|slot| slot.borrow_mut().replace(shared.clone()));
        LIVE.fetch_add(1, Ordering::Relaxed);
        if ledger {
            LEDGER.fetch_add(1, Ordering::Relaxed);
        }
        Session { shared: Some(shared), prev, ledger }
    }

    /// A handle other threads (or nested scopes) can record through.
    #[cfg(test)]
    pub(crate) fn handle(&self) -> Option<SessionRef> {
        self.shared.clone()
    }

    fn uninstall(&mut self) -> Option<SessionRef> {
        let shared = self.shared.take()?;
        CURRENT.with(|slot| *slot.borrow_mut() = self.prev.take());
        if self.ledger {
            LEDGER.fetch_sub(1, Ordering::Relaxed);
        }
        LIVE.fetch_sub(1, Ordering::Relaxed);
        Some(shared)
    }

    /// Uninstall and export everything recorded.
    pub fn finish(mut self) -> ObsReport {
        match self.uninstall() {
            Some(shared) => crate::export::build_report(&lock(&shared.0)),
            // uninstall can only miss if finish ran after a manual drop,
            // which the ownership model prevents; report empty data.
            None => crate::export::build_report(&Inner::default()),
        }
    }
}

impl Drop for Session {
    fn drop(&mut self) {
        let _ = self.uninstall();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_session_means_noop() {
        incr("orphan");
        observe("orphan.h", 1.0);
        label_item(|| panic!("label closure must not run outside an item"));
        assert!(grid_session().is_none() || enabled(), "no session on this thread");
    }

    #[test]
    fn direct_metrics_land_in_the_session() {
        let s = Session::install();
        incr("a");
        incr_by("a", 2);
        observe("h", 2.5);
        let report = s.finish();
        assert!(report.journal_jsonl.contains("\"a\":3"));
        assert!(report.journal_jsonl.contains("\"h\""));
    }

    #[test]
    fn run_item_routes_metrics_to_cells() {
        let s = Session::install();
        let r = s.handle().expect("live session");
        let grid = r.begin_grid("cell", 2);
        for i in 0..2usize {
            r.run_item(grid, "cell", i, 1, || {
                label_item(|| format!("cell-{i}"));
                incr("work");
                observe("w.h", i as f64);
            });
        }
        let report = s.finish();
        assert!(report.journal_jsonl.contains("cell-0"));
        assert!(report.journal_jsonl.contains("cell-1"));
        assert!(report.journal_jsonl.contains("\"exec.cells\":2"));
    }

    #[test]
    fn sessions_are_thread_scoped() {
        let _s = Session::install();
        std::thread::scope(|scope| {
            scope.spawn(|| {
                assert!(grid_session().is_none(), "other threads see no session");
            });
        });
        assert!(grid_session().is_some());
    }

    #[test]
    fn dropping_uninstalls() {
        {
            let _s = Session::install();
            assert!(grid_session().is_some());
        }
        assert!(grid_session().is_none());
    }

    #[test]
    fn nested_fanout_is_unobserved_but_counted_in_parent() {
        let s = Session::install();
        let r = s.handle().expect("live session");
        let grid = r.begin_grid("cell", 1);
        r.run_item(grid, "cell", 0, 1, || {
            assert!(grid_session().is_none(), "no nested grids inside an item");
            incr("inner.work");
        });
        let report = s.finish();
        assert!(report.journal_jsonl.contains("\"inner.work\":1"));
    }
}
