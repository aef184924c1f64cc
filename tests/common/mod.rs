//! Shared by the test binaries that arm fault plans.

use std::sync::{Mutex, MutexGuard};

/// Runs the tests of one binary one at a time.
///
/// `faults::with_faults` and `storage::with_disk_faults` serialize armed
/// sections against each other, but the plans they arm are process-global:
/// an un-armed run in a concurrent test would see the injected crash or
/// advance the armed operation counter. Every test in such a binary takes
/// this guard first and holds it to its end.
pub fn serial() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    // A failed test poisons the lock; the tests after it still run.
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}
