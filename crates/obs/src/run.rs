//! Run-scoped trace context: per-run attribution for metrics and spans.
//!
//! A **run** is one top-level attack invocation (an `Accelerator::run`,
//! a `recover_structures`, a weight recovery). [`begin`] opens a run: it
//! allocates a process-unique run id, records it in the run table
//! ([`list`], served on `/progress`), and installs a [`RunCtx`] in a
//! thread-local so everything the calling thread does — and every worker
//! it fans out to, via [`task_ctx`] / [`enter`] — is attributed to that
//! run.
//!
//! # Propagation rules
//!
//! * [`begin`] installs the context on the *calling* thread and captures
//!   the innermost open span path as the run's parent span.
//! * `exec::map_ordered` captures [`task_ctx`] before it spawns — the
//!   calling thread's context with `parent_span` refreshed to its
//!   innermost span — and each worker re-installs it with [`enter`] for
//!   its lifetime. A span opened on a worker with an empty span stack
//!   therefore parents under the calling thread's span path instead of
//!   starting a fresh root.
//! * Contexts restore on guard drop (LIFO), so nested runs and nested
//!   fan-outs are well-defined: the innermost run wins.
//!
//! Opening a run costs one table entry.
//! When observability is disabled ([`crate::enabled`] is false), [`begin`]
//! is inert: no id is allocated and no context is installed, so the
//! attack hot path pays nothing.

use std::cell::RefCell;

use cnnre_model::sync::atomic::{AtomicU64, Ordering};
use cnnre_model::sync::{Arc, Mutex, OnceLock, PoisonError};

/// The run table keeps at most this many entries; when full, the oldest
/// *inactive* entry is evicted (active runs are never evicted).
const MAX_RUNS: usize = 64;

/// The context propagated from a run's owning thread into its workers.
#[derive(Clone, Debug)]
pub struct RunCtx {
    /// Process-unique run id (1-based; ids are never reused).
    pub run: u64,
    /// Dotted path of the span under which worker-side spans should
    /// parent, if the spawning thread had one open.
    pub parent_span: Option<Arc<str>>,
}

/// Public view of one run-table entry (the `/progress` endpoint's rows).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RunInfo {
    /// Process-unique run id.
    pub id: u64,
    /// Human label passed to [`begin`] (e.g. `"attack.structure"`).
    pub label: String,
    /// Whether the run's guard is still alive.
    pub active: bool,
}

struct RunEntry {
    id: u64,
    label: String,
    active: bool,
}

thread_local! {
    static CURRENT: RefCell<Option<RunCtx>> = const { RefCell::new(None) };
}

static NEXT_ID: AtomicU64 = AtomicU64::new(1);

fn table() -> &'static Mutex<Vec<RunEntry>> {
    static TABLE: OnceLock<Mutex<Vec<RunEntry>>> = OnceLock::new();
    TABLE.get_or_init(|| Mutex::new(Vec::new()))
}

fn lock_table() -> cnnre_model::sync::MutexGuard<'static, Vec<RunEntry>> {
    table().lock().unwrap_or_else(PoisonError::into_inner)
}

/// Opens a run named `label` and installs its [`RunCtx`] on this thread.
///
/// Inert (id 0, nothing installed) while observability is disabled.
#[must_use]
pub fn begin(label: &str) -> RunGuard {
    if !crate::enabled() {
        return RunGuard {
            id: 0,
            prev: None,
            live: false,
        };
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    {
        let mut t = lock_table();
        if t.len() >= MAX_RUNS {
            if let Some(pos) = t.iter().position(|e| !e.active) {
                t.remove(pos);
            }
        }
        if t.len() < MAX_RUNS {
            t.push(RunEntry {
                id,
                label: label.to_owned(),
                active: true,
            });
        }
    }
    let ctx = RunCtx {
        run: id,
        parent_span: crate::span::current_path().map(Arc::from),
    };
    let prev = CURRENT.with(|c| c.borrow_mut().replace(ctx));
    RunGuard {
        id,
        prev,
        live: true,
    }
}

/// Guard returned by [`begin`]; marks the run inactive and restores the
/// previous thread context on drop.
#[derive(Debug)]
pub struct RunGuard {
    id: u64,
    prev: Option<RunCtx>,
    live: bool,
}

impl RunGuard {
    /// The run id (0 while observability is disabled).
    #[must_use]
    pub fn id(&self) -> u64 {
        self.id
    }
}

impl Drop for RunGuard {
    fn drop(&mut self) {
        if !self.live {
            return;
        }
        CURRENT.with(|c| *c.borrow_mut() = self.prev.take());
        let mut t = lock_table();
        if let Some(e) = t.iter_mut().find(|e| e.id == self.id) {
            e.active = false;
        }
    }
}

/// Installs `ctx` on this thread for the guard's lifetime (the worker
/// side of context propagation); the previous context restores on drop.
#[must_use]
pub fn enter(ctx: RunCtx) -> CtxGuard {
    let prev = CURRENT.with(|c| c.borrow_mut().replace(ctx));
    CtxGuard { prev }
}

/// Guard returned by [`enter`]; restores the previous context on drop.
#[derive(Debug)]
pub struct CtxGuard {
    prev: Option<RunCtx>,
}

impl Drop for CtxGuard {
    fn drop(&mut self) {
        CURRENT.with(|c| *c.borrow_mut() = self.prev.take());
    }
}

/// This thread's current run context, if any.
#[must_use]
pub fn current() -> Option<RunCtx> {
    CURRENT.with(|c| c.borrow().clone())
}

/// The parent-span path new root spans on this thread should nest under
/// (the span module consults this when its own stack is empty).
pub(crate) fn current_parent() -> Option<Arc<str>> {
    CURRENT.with(|c| c.borrow().as_ref().and_then(|ctx| ctx.parent_span.clone()))
}

/// The context a task spawned *now* should carry: the current context with
/// `parent_span` refreshed to this thread's innermost open span (so a
/// worker-side span parents under the span that actually spawned it, not
/// the run's root). `None` when no run is active — spawns outside a run
/// propagate nothing.
#[must_use]
pub fn task_ctx() -> Option<RunCtx> {
    current().map(|mut ctx| {
        if let Some(path) = crate::span::current_path() {
            ctx.parent_span = Some(Arc::from(path));
        }
        ctx
    })
}

/// All known runs, oldest first.
#[must_use]
pub fn list() -> Vec<RunInfo> {
    lock_table()
        .iter()
        .map(|e| RunInfo {
            id: e.id,
            label: e.label.clone(),
            active: e.active,
        })
        .collect()
}

/// Clears the run table and resets this thread's context (test teardown).
pub fn reset() {
    lock_table().clear();
    CURRENT.with(|c| *c.borrow_mut() = None);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn begin_is_inert_while_disabled() {
        let _guard = crate::test_lock();
        crate::set_enabled(false);
        reset();
        let g = begin("off");
        assert_eq!(g.id(), 0);
        assert!(current().is_none());
        drop(g);
        assert!(list().is_empty());
    }

    #[test]
    fn begin_installs_and_restores_context() {
        let _guard = crate::test_lock();
        crate::set_enabled(true);
        reset();
        let outer = begin("outer");
        let outer_id = outer.id();
        assert!(outer_id > 0);
        assert_eq!(current().map(|c| c.run), Some(outer_id));
        {
            let inner = begin("inner");
            assert_eq!(current().map(|c| c.run), Some(inner.id()));
        }
        // Dropping the inner run restores the outer context.
        assert_eq!(current().map(|c| c.run), Some(outer_id));
        drop(outer);
        assert!(current().is_none());
        let runs = list();
        assert_eq!(runs.len(), 2);
        assert!(runs.iter().all(|r| !r.active));
        crate::set_enabled(false);
        reset();
    }

    #[test]
    fn task_ctx_carries_the_spawning_span() {
        let _guard = crate::test_lock();
        crate::set_enabled(true);
        reset();
        let run = begin("ctx_run");
        let ctx = {
            let _span = crate::span("ctx_run_spawner");
            task_ctx().expect("run is active")
        };
        assert_eq!(ctx.run, run.id());
        assert_eq!(ctx.parent_span.as_deref(), Some("ctx_run_spawner"));
        // Worker side: entering the ctx makes new root spans parent there.
        let worker = std::thread::spawn(move || {
            let _ctx = enter(ctx);
            let span = crate::span("worker_side");
            span.path().to_owned()
        });
        let path = worker.join().unwrap_or_else(|_| String::new());
        assert_eq!(path, "ctx_run_spawner.worker_side");
        drop(run);
        crate::set_enabled(false);
        crate::global().reset();
        reset();
    }
}
