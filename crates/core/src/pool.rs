//! A small thread pool for coarse-grained jobs.
//!
//! Every worker takes its next item from one shared cursor, so a free
//! worker always starts the lowest-index item nobody has taken. Results
//! are delivered two ways: positionally (the returned `Vec` is in input
//! order) and through an in-order streaming callback, which is what lets
//! `mmflow batch` emit JSONL records deterministically while jobs finish
//! out of order.
//!
//! With `threads == 1` everything runs inline on the caller's thread in
//! input order — the reference schedule the determinism guarantee is
//! stated against. `threads == 0` means one thread per item.

use std::sync::Mutex;

/// Runs `f` over `items` on `threads` workers (`0` = one per item, never
/// more than one per item).
///
/// Returns the results in input order. `on_done(index, &result)` is
/// invoked for every item **in input order** (a reorder buffer holds
/// early finishers), regardless of which worker computed it.
///
/// # Panics
///
/// Propagates panics from `f` after the scope unwinds.
pub fn run_ordered<T, R, F, C>(items: Vec<T>, threads: usize, f: F, on_done: C) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, T) -> R + Sync,
    C: FnMut(usize, &R) + Send,
{
    let n = items.len();
    let threads = match threads {
        0 => n,
        t => t.min(n),
    }
    .max(1);
    let cursor = Mutex::new(items.into_iter().enumerate());
    let slots: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let emitter = Mutex::new(Emitter { next: 0, on_done });
    let work = || loop {
        let task = cursor.lock().expect("cursor lock").next();
        let Some((index, item)) = task else { break };
        let result = f(index, item);
        *slots[index].lock().expect("slot lock") = Some(result);
        emitter.lock().expect("emitter lock").drain(&slots);
    };
    if threads == 1 {
        // The reference schedule: strictly sequential, in input order.
        work();
    } else {
        std::thread::scope(|scope| {
            for _ in 0..threads {
                scope.spawn(work);
            }
        });
    }
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("slot lock")
                .expect("all jobs completed")
        })
        .collect()
}

/// The in-order callback and the index it emits next.
struct Emitter<C> {
    next: usize,
    on_done: C,
}

impl<C> Emitter<C> {
    /// Emits every finished result from `next` on, stopping at the first
    /// item still running.
    fn drain<R>(&mut self, slots: &[Mutex<Option<R>>])
    where
        C: FnMut(usize, &R),
    {
        while self.next < slots.len() {
            let slot = slots[self.next].lock().expect("slot lock");
            let Some(result) = slot.as_ref() else { break };
            (self.on_done)(self.next, result);
            self.next += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn preserves_input_order_in_results() {
        let items: Vec<usize> = (0..100).collect();
        let out = run_ordered(items, 4, |_, x| x * 2, |_, _| {});
        assert_eq!(out, (0..100).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn streams_in_order_despite_parallelism() {
        let items: Vec<usize> = (0..64).collect();
        let seen = Mutex::new(Vec::new());
        run_ordered(
            items,
            8,
            |i, x| {
                // Earlier jobs sleep longer: maximal reordering pressure.
                std::thread::sleep(std::time::Duration::from_millis(((64 - i) % 7) as u64));
                x
            },
            |i, &r| {
                assert_eq!(i, r);
                seen.lock().unwrap().push(i);
            },
        );
        let seen = seen.into_inner().unwrap();
        assert_eq!(seen, (0..64).collect::<Vec<_>>(), "callback order");
    }

    #[test]
    fn single_thread_runs_inline() {
        let tid = std::thread::current().id();
        let out = run_ordered(
            vec![1, 2, 3],
            1,
            move |_, x| {
                assert_eq!(std::thread::current().id(), tid);
                x + 1
            },
            |_, _| {},
        );
        assert_eq!(out, vec![2, 3, 4]);
    }

    #[test]
    fn work_is_actually_distributed() {
        // With blocking jobs and one thread per job, every job must run
        // concurrently — otherwise this deadlocks the barrier. `0` asks
        // for one thread per item.
        let n = 4;
        for threads in [n, 0] {
            let barrier = std::sync::Barrier::new(n);
            let count = AtomicUsize::new(0);
            run_ordered(
                (0..n).collect(),
                threads,
                |_, _| {
                    barrier.wait();
                    count.fetch_add(1, Ordering::SeqCst);
                },
                |_, _| {},
            );
            assert_eq!(count.load(Ordering::SeqCst), n, "threads = {threads}");
        }
    }

    #[test]
    fn empty_and_single_item() {
        for threads in [0, 4] {
            let out: Vec<usize> = run_ordered(Vec::<usize>::new(), threads, |_, x| x, |_, _| {});
            assert!(out.is_empty());
        }
        let out = run_ordered(vec![9], 4, |_, x| x, |_, _| {});
        assert_eq!(out, vec![9]);
    }
}
