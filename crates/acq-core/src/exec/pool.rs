//! A minimal scoped worker pool for fanning a batch out over OS threads.
//!
//! The build environment is offline (no `rayon`), so this is the classic
//! atomic-counter work queue over [`std::thread::scope`]: workers repeatedly
//! claim the next unprocessed index, and every result is written into the
//! slot matching its input index — so the output order is always the input
//! order, no matter how the items are scheduled across threads. The calling
//! thread is one of the workers.

use acq_sync::sync::atomic::{AtomicUsize, Ordering};
use acq_sync::sync::Mutex;

/// The host's core count, for [`effective_threads`]. Asking costs a few
/// cgroup file reads, so an engine asks once, when it is built.
pub(crate) fn available_cores() -> usize {
    acq_sync::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// Resolves a configured worker count for a batch of `batch_len` items on a
/// host with `cores` cores: `0` means one worker per available core, and the
/// count is always clamped to both the item count and the available cores —
/// workers beyond either can only add spawn and contention cost, never
/// throughput (this clamp is what keeps an over-provisioned `threads`
/// setting from regressing below the single-threaded path on small hosts).
pub fn effective_threads(configured: usize, cores: usize, batch_len: usize) -> usize {
    let configured = if configured == 0 { cores } else { configured.min(cores) };
    configured.min(batch_len.max(1))
}

/// Applies `f` to every item and returns the results **in input order**.
///
/// With `threads <= 1` (or fewer than two items) this degenerates to a plain
/// sequential map on the calling thread — no threads are spawned, which is
/// what makes single-threaded batch runs exactly equivalent to a query loop.
/// Otherwise the calling thread takes one worker's share and `threads - 1`
/// scoped threads take the rest: a caller that lives longer than the batch
/// (a connection worker) brings its warm thread-local scratch to the work,
/// and a two-core host spawns one thread per batch, not two.
/// Worker panics propagate to the caller when the scope joins.
pub fn map_ordered<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let n = items.len();
    let workers = threads.max(1).min(n);
    if workers <= 1 {
        return items.iter().enumerate().map(|(i, item)| f(i, item)).collect();
    }

    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let work = || loop {
        let i = next.fetch_add(1, Ordering::Relaxed);
        if i >= n {
            break;
        }
        let result = f(i, &items[i]);
        *slots[i].lock().expect("result slot poisoned") = Some(result);
    };
    acq_sync::thread::scope(|scope| {
        for _ in 1..workers {
            scope.spawn(work);
        }
        work();
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("result slot poisoned")
                .expect("every index was claimed by exactly one worker")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_input_order_across_thread_counts() {
        let items: Vec<usize> = (0..97).collect();
        let expected: Vec<usize> = items.iter().map(|x| x * 3).collect();
        for threads in [0, 1, 2, 3, 8, 200] {
            let out = map_ordered(&items, threads, |_, &x| x * 3);
            assert_eq!(out, expected, "threads = {threads}");
        }
    }

    /// The first two items meet at a barrier, so neither thread can take
    /// both: the caller and the one spawned thread each get a share. (Not
    /// under the model shims, whose scoped threads start only when the scope
    /// body — here the caller's share — has returned.)
    #[cfg(not(acq_model))]
    #[test]
    fn the_calling_thread_is_one_of_two_workers() {
        let items: Vec<usize> = (0..64).collect();
        let both = std::sync::Barrier::new(2);
        let caller = std::thread::current().id();
        let ran_on = map_ordered(&items, 2, |i, _| {
            if i < 2 {
                both.wait();
            }
            std::thread::current().id()
        });
        let threads: std::collections::HashSet<_> = ran_on.into_iter().collect();
        assert!(threads.contains(&caller), "the caller took no share of the batch");
        assert_eq!(threads.len(), 2, "two workers means one spawned thread");
    }

    #[test]
    fn effective_threads_clamps_to_cores_and_batch() {
        assert_eq!(effective_threads(0, 4, 16), 4, "0 means one per core");
        assert_eq!(effective_threads(8, 2, 16), 2, "never more than the cores");
        assert_eq!(effective_threads(8, 4, 3), 3, "never more than the items");
        assert_eq!(effective_threads(0, 4, 0), 1, "an empty batch still resolves");
    }

    #[test]
    fn index_argument_matches_position() {
        let items = ["a", "b", "c", "d"];
        let out = map_ordered(&items, 4, |i, &s| format!("{i}:{s}"));
        assert_eq!(out, vec!["0:a", "1:b", "2:c", "3:d"]);
    }

    #[test]
    fn empty_input_yields_empty_output() {
        let out: Vec<u8> = map_ordered::<u8, u8, _>(&[], 4, |_, &x| x);
        assert!(out.is_empty());
    }
}
