//! [`RaceCell`]: shared data under the eye of the race detector.
//!
//! The model's happens-before engine only reports races on data it can
//! see. `RaceCell<T>` is that data: every access is checked against the
//! FastTrack-style epochs of prior accesses, and two accesses unordered
//! by happens-before (at least one a write) fail the exploration with
//! MC001. In normal builds it degrades to a plain reader–writer lock —
//! safe, modestly priced, and semantically identical.
//!
//! Use it for the payload slots of lock-free structures where the
//! *protocol*, not a lock, is supposed to order access.

#[cfg(not(feature = "model-check"))]
mod imp {
    use std::sync::{Mutex, PoisonError};

    /// Shared storage whose cross-thread ordering the model checker
    /// verifies. See the module docs.
    #[derive(Debug, Default)]
    pub struct RaceCell<T> {
        inner: Mutex<T>,
    }

    impl<T> RaceCell<T> {
        /// Creates a cell (usable in statics).
        pub const fn new(value: T) -> Self {
            RaceCell {
                inner: Mutex::new(value),
            }
        }

        /// Reads through a closure.
        pub fn with<R>(&self, f: impl FnOnce(&T) -> R) -> R {
            f(&self.inner.lock().unwrap_or_else(PoisonError::into_inner))
        }

        /// Writes through a closure.
        pub fn with_mut<R>(&self, f: impl FnOnce(&mut T) -> R) -> R {
            f(&mut self.inner.lock().unwrap_or_else(PoisonError::into_inner))
        }

        /// Copies the value out.
        pub fn get(&self) -> T
        where
            T: Copy,
        {
            self.with(|v| *v)
        }

        /// Overwrites the value.
        pub fn set(&self, value: T) {
            self.with_mut(|v| *v = value);
        }

        /// Swaps in a new value, returning the old one.
        pub fn replace(&self, value: T) -> T {
            self.with_mut(|v| std::mem::replace(v, value))
        }
    }
}

#[cfg(feature = "model-check")]
mod imp {
    use std::sync::{Mutex, PoisonError};

    use crate::runtime::{visible, ObjId, Op};

    /// Shared storage whose cross-thread ordering the model checker
    /// verifies. See the module docs.
    #[derive(Debug, Default)]
    pub struct RaceCell<T> {
        id: ObjId,
        inner: Mutex<T>,
    }

    impl<T> RaceCell<T> {
        /// Creates a cell (usable in statics).
        pub const fn new(value: T) -> Self {
            RaceCell {
                id: ObjId::new(),
                inner: Mutex::new(value),
            }
        }

        /// Reads through a closure; checked against unordered writes.
        pub fn with<R>(&self, f: impl FnOnce(&T) -> R) -> R {
            let _ = visible(Op::CellRead(self.id.get()));
            f(&self.inner.lock().unwrap_or_else(PoisonError::into_inner))
        }

        /// Writes through a closure; checked against unordered accesses.
        pub fn with_mut<R>(&self, f: impl FnOnce(&mut T) -> R) -> R {
            let _ = visible(Op::CellWrite(self.id.get()));
            f(&mut self.inner.lock().unwrap_or_else(PoisonError::into_inner))
        }

        /// Copies the value out.
        pub fn get(&self) -> T
        where
            T: Copy,
        {
            self.with(|v| *v)
        }

        /// Overwrites the value.
        pub fn set(&self, value: T) {
            self.with_mut(|v| *v = value);
        }

        /// Swaps in a new value, returning the old one.
        pub fn replace(&self, value: T) -> T {
            self.with_mut(|v| std::mem::replace(v, value))
        }
    }
}

pub use imp::*;
