//! The scoped lane fan-out shared by the batched sweep and the windowed
//! engine, and the poison-tolerant lock that the compressed store's
//! capture slot and `masc-serve`'s slot, cache and single-flight gates take.

use std::sync::{Mutex, MutexGuard, PoisonError};

/// Locks `m`, recovering the guard if a panicking thread poisoned it (the
/// guarded values here are plain hand-off slots and pools, valid at every
/// step of every update).
pub fn lock_ignoring_poison<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Runs `f(base + i, &mut items[i])` over `items` on up to `lanes` scoped
/// threads. Items are distributed round-robin; with one lane (or one item)
/// the loop runs inline. On failure the error of the *lowest* index is
/// surfaced, so diagnostics are deterministic regardless of thread timing;
/// a panicking lane surfaces as `on_panic` unless some item failed with an
/// error of its own.
///
/// # Errors
///
/// Returns the lowest-index error `f` produced, or `on_panic`.
pub fn wave<T, E, F>(
    items: &mut [T],
    base: usize,
    lanes: usize,
    on_panic: E,
    f: &F,
) -> Result<(), E>
where
    T: Send,
    E: Send,
    F: Fn(usize, &mut T) -> Result<(), E> + Sync,
{
    let lanes = lanes.max(1).min(items.len());
    if lanes <= 1 {
        for (i, item) in items.iter_mut().enumerate() {
            f(base + i, item)?;
        }
        return Ok(());
    }
    let mut buckets: Vec<Vec<(usize, &mut T)>> = (0..lanes).map(|_| Vec::new()).collect();
    for (i, item) in items.iter_mut().enumerate() {
        buckets[i % lanes].push((base + i, item));
    }
    let mut panicked = false;
    let failures: Vec<(usize, E)> = std::thread::scope(|scope| {
        #[expect(
            clippy::disallowed_methods,
            reason = "`lanes ≤ items.len()`, clamped above"
        )]
        let mut handles = Vec::with_capacity(lanes);
        for bucket in buckets {
            handles.push(scope.spawn(move || {
                for (idx, item) in bucket {
                    if let Err(e) = f(idx, item) {
                        return Some((idx, e));
                    }
                }
                None
            }));
        }
        handles
            .into_iter()
            .filter_map(|h| {
                h.join().unwrap_or_else(|_| {
                    panicked = true;
                    None
                })
            })
            .collect()
    });
    match failures.into_iter().min_by_key(|(idx, _)| *idx) {
        Some((_, e)) => Err(e),
        None if panicked => Err(on_panic),
        None => Ok(()),
    }
}
