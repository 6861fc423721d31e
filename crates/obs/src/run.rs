//! Run table: which top-level attack invocations are in flight.
//!
//! A **run** is one top-level attack invocation (an `Accelerator::run`,
//! a `recover_structures`, a weight recovery). [`begin`] opens a run: it
//! allocates a process-unique run id and records it in the run table
//! ([`list`], served on `/progress`); the returned guard marks the run
//! inactive on drop.
//!
//! Runs carry no span context. Spans nest per thread only, so a span
//! opened on an `exec::map_ordered` worker would start a fresh root; the
//! attack engines keep their worker closures silent instead.
//!
//! Opening a run costs one table entry.
//! When observability is disabled ([`crate::enabled`] is false), [`begin`]
//! is inert: no id is allocated and nothing is recorded, so the attack hot
//! path pays nothing.

use cnnre_model::sync::atomic::{AtomicU64, Ordering};
use cnnre_model::sync::{Mutex, OnceLock, PoisonError};

/// The run table keeps at most this many entries; when full, the oldest
/// *inactive* entry is evicted (active runs are never evicted).
const MAX_RUNS: usize = 64;

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

static NEXT_ID: AtomicU64 = AtomicU64::new(1);

fn table() -> &'static Mutex<Vec<RunEntry>> {
    static TABLE: OnceLock<Mutex<Vec<RunEntry>>> = OnceLock::new();
    TABLE.get_or_init(|| Mutex::new(Vec::new()))
}

fn lock_table() -> cnnre_model::sync::MutexGuard<'static, Vec<RunEntry>> {
    table().lock().unwrap_or_else(PoisonError::into_inner)
}

/// Opens a run named `label` in the run table.
///
/// Inert (id 0, nothing recorded) while observability is disabled.
#[must_use]
pub fn begin(label: &str) -> RunGuard {
    if !crate::enabled() {
        return RunGuard { id: 0 };
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
    RunGuard { id }
}

/// Guard returned by [`begin`]; marks the run inactive on drop.
#[derive(Debug)]
pub struct RunGuard {
    /// 0 for an inert guard; ids start at 1.
    id: u64,
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
        if self.id == 0 {
            return;
        }
        let mut t = lock_table();
        if let Some(e) = t.iter_mut().find(|e| e.id == self.id) {
            e.active = false;
        }
    }
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

/// Clears the run table (test teardown).
pub fn reset() {
    lock_table().clear();
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
        let active = || -> Vec<u64> { list().iter().filter(|r| r.active).map(|r| r.id).collect() };
        {
            let inner = begin("inner");
            assert!(inner.id() > outer_id);
            assert_eq!(active(), vec![outer_id, inner.id()]);
        }
        // Dropping the inner run leaves the outer one active.
        assert_eq!(active(), vec![outer_id]);
        drop(outer);
        let runs = list();
        assert_eq!(runs.len(), 2);
        assert!(runs.iter().all(|r| !r.active));
        crate::set_enabled(false);
        reset();
    }
}
