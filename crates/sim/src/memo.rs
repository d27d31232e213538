//! The one per-program memo behind every shared derivation in this crate.
//!
//! Experiment sweeps hand the same `Arc<Program>` to every point, so
//! anything derived from the program alone — the replay trace, the
//! front-end table, the oracle's kill plan — is built once per program and
//! shared.  Entries are keyed by `Arc` identity (plus a small key, such as
//! the I-cache line size) and held through a weak reference, so they are
//! dropped when their program is.

use earlyreg_isa::Program;
use std::convert::Infallible;
use std::sync::{Arc, Mutex, Weak};

type Entry<K, T> = (Weak<Program>, K, Arc<T>);

/// A process-wide memo of values derived from a shared program.
pub(crate) struct ProgramMemo<K, T> {
    entries: Mutex<Vec<Entry<K, T>>>,
}

impl<K: PartialEq, T> ProgramMemo<K, T> {
    /// An empty memo (usable in a `static`).
    pub(crate) const fn new() -> Self {
        ProgramMemo {
            entries: Mutex::new(Vec::new()),
        }
    }

    /// The memoized value for (`program`, `key`) if it `fits`, else one made
    /// by `build`, which then replaces the entry that did not fit.  `build`
    /// runs outside the lock so distinct programs derive in parallel; a
    /// racing duplicate derivation is benign (the values are identical) and
    /// the first one stored wins.  A failed `build` stores nothing.
    pub(crate) fn get_or_try_build<E>(
        &self,
        program: &Arc<Program>,
        key: K,
        fits: impl Fn(&T) -> bool,
        build: impl FnOnce() -> Result<T, E>,
    ) -> Result<Arc<T>, E> {
        let is_entry = |(weak, k, _): &Entry<K, T>| {
            *k == key && weak.upgrade().is_some_and(|p| Arc::ptr_eq(&p, program))
        };
        let lookup = |entries: &mut Vec<Entry<K, T>>| {
            entries.retain(|(weak, _, _)| weak.strong_count() > 0);
            entries
                .iter()
                .find(|entry| is_entry(entry) && fits(&entry.2))
                .map(|(_, _, value)| Arc::clone(value))
        };

        if let Some(value) = lookup(&mut self.lock()) {
            return Ok(value);
        }
        let fresh = Arc::new(build()?);
        let mut entries = self.lock();
        if let Some(value) = lookup(&mut entries) {
            return Ok(value);
        }
        entries.retain(|entry| !is_entry(entry));
        entries.push((Arc::downgrade(program), key, Arc::clone(&fresh)));
        Ok(fresh)
    }

    /// [`ProgramMemo::get_or_try_build`] for a derivation that cannot fail.
    pub(crate) fn get_or_build(
        &self,
        program: &Arc<Program>,
        key: K,
        fits: impl Fn(&T) -> bool,
        build: impl FnOnce() -> T,
    ) -> Arc<T> {
        let Ok(value) = self.get_or_try_build(program, key, fits, || Ok::<_, Infallible>(build()));
        value
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<Entry<K, T>>> {
        self.entries.lock().expect("program memo poisoned")
    }
}
