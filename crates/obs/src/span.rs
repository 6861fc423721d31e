//! Hierarchical timing spans.
//!
//! A span measures one region of work. Nesting is tracked per thread, so a
//! span opened while another is active gets a dotted path
//! (`attack.solve_layer`). On drop, a span records into the global
//! registry:
//!
//! * `span.<path>.calls` — counter, number of completed spans;
//! * `span.<path>.wall_ns` — counter, summed wall-clock nanoseconds
//!   (excluded from deterministic exports, see
//!   [`crate::export::is_wall_clock`]);
//! * `span.<path>.cycles` — counter, summed *simulated* accelerator
//!   cycles, if any were attached with [`SpanGuard::add_cycles`].
//!
//! When profiling is also enabled ([`crate::profile::set_enabled`]), each
//! span additionally appends begin/end events — the full timeline, not
//! just the aggregate — to the profile ring buffer (see [`crate::profile`]),
//! except spans opened under [`crate::stream::suppress`]: those still
//! count in the registry but stay off the timeline.
//!
//! ```
//! use cnnre_obs as obs;
//! obs::set_enabled(true);
//! {
//!     let mut s = obs::span("attack");
//!     s.add_cycles(128);
//! }
//! assert_eq!(obs::global().snapshot().get("span.attack.cycles"), Some(128.0));
//! # obs::set_enabled(false);
//! # obs::global().reset();
//! ```

use std::cell::RefCell;
use std::time::Instant;

thread_local! {
    static SPAN_STACK: RefCell<Vec<String>> = const { RefCell::new(Vec::new()) };
}

/// An open span; finishes (and records) on drop.
#[derive(Debug)]
pub struct SpanGuard {
    path: String,
    start: Instant,
    cycles: u64,
    live: bool,
    /// Whether the span went to the profile ring; spans opened under
    /// [`crate::stream::suppress`] do not.
    profiled: bool,
}

impl SpanGuard {
    /// Opens a span named `name`, nested under the thread's innermost open
    /// span. When observability is disabled this is close to free: the
    /// guard is created but records nothing on drop.
    #[must_use]
    pub fn enter(name: &str) -> Self {
        Self::enter_inner(name, None)
    }

    /// Like [`SpanGuard::enter`], but attaches a per-instance display
    /// label to the profile timeline (e.g. the layer name) while keeping
    /// the metric path fixed — so metric cardinality stays bounded and
    /// the Perfetto track still names each occurrence.
    #[must_use]
    pub fn enter_labelled(name: &str, label: &str) -> Self {
        Self::enter_inner(name, Some(label))
    }

    fn enter_inner(name: &str, label: Option<&str>) -> Self {
        let path = if crate::enabled() {
            SPAN_STACK.with(|s| {
                let mut stack = s.borrow_mut();
                let path = match stack.last() {
                    Some(parent) => format!("{parent}.{name}"),
                    None => name.to_owned(),
                };
                stack.push(path.clone());
                path
            })
        } else {
            String::new()
        };
        let live = crate::enabled();
        let profiled = live && !crate::stream::suppressed();
        if profiled {
            crate::profile::record_begin(&path, label);
        }
        Self {
            path,
            start: Instant::now(),
            cycles: 0,
            live,
            profiled,
        }
    }

    /// Attaches simulated accelerator cycles to this span.
    pub fn add_cycles(&mut self, cycles: u64) {
        self.cycles += cycles;
    }

    /// The full dotted path (empty while observability is disabled).
    #[must_use]
    pub fn path(&self) -> &str {
        &self.path
    }

    /// Wall-clock time elapsed since the span opened.
    #[must_use]
    pub fn elapsed(&self) -> std::time::Duration {
        self.start.elapsed()
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if !self.live {
            return;
        }
        SPAN_STACK.with(|s| {
            let mut stack = s.borrow_mut();
            if let Some(pos) = stack.iter().rposition(|p| *p == self.path) {
                stack.remove(pos);
            }
        });
        if self.profiled {
            crate::profile::record_end(&self.path, self.cycles);
        }
        let reg = crate::global();
        reg.counter(&format!("span.{}.calls", self.path)).inc();
        reg.counter(&format!("span.{}.wall_ns", self.path))
            .add(u64::try_from(self.start.elapsed().as_nanos()).unwrap_or(u64::MAX));
        if self.cycles > 0 {
            reg.counter(&format!("span.{}.cycles", self.path))
                .add(self.cycles);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_build_dotted_paths() {
        let _guard = crate::test_lock();
        crate::set_enabled(true);
        {
            let outer = SpanGuard::enter("outer_span_test");
            assert_eq!(outer.path(), "outer_span_test");
            let inner = SpanGuard::enter("inner");
            assert_eq!(inner.path(), "outer_span_test.inner");
        }
        crate::set_enabled(false);
        let snap = crate::global().snapshot();
        assert_eq!(snap.get("span.outer_span_test.calls"), Some(1.0));
        assert_eq!(snap.get("span.outer_span_test.inner.calls"), Some(1.0));
        assert!(snap.get("span.outer_span_test.wall_ns").unwrap_or(0.0) > 0.0);
    }

    #[test]
    fn disabled_spans_record_nothing() {
        let _guard = crate::test_lock();
        crate::set_enabled(false);
        {
            let mut s = SpanGuard::enter("disabled_span_test");
            s.add_cycles(10);
            assert_eq!(s.path(), "");
        }
        assert!(crate::global()
            .snapshot()
            .get("span.disabled_span_test.calls")
            .is_none());
    }
}
