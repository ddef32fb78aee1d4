//! One LinnOS decision and one completion allocate nothing once the
//! classifier is warm: the per-I/O path of the Figure-2 run stays off the
//! allocator.
//!
//! A counting global allocator counts the allocations made on each thread;
//! the test reads its own thread's count around the measured loop.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use storagesim::{LinnosClassifier, LinnosConfig};

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with`: the allocator may run while a thread's locals are torn down.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

/// Forwards every call to [`System`], counting allocations and reallocations.
struct Counting;

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees are this allocator's; the counter is a
// thread-local `Cell` with const initialization, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// A queue-depth and latency-history row; deep queues are slow.
fn features(i: u64) -> ([f64; 5], bool) {
    let deep = i.is_multiple_of(3);
    let wiggle = (i % 11) as f64;
    if deep {
        ([24.0 + wiggle, 700.0 + wiggle, 650.0, 800.0, 720.0], true)
    } else {
        (
            [0.5 + wiggle / 10.0, 90.0 + wiggle, 88.0, 92.0, 89.0],
            false,
        )
    }
}

#[test]
fn warm_decisions_and_completions_do_not_allocate() {
    let mut clf = LinnosClassifier::new(LinnosConfig::default());
    for i in 0..3000 {
        let (x, slow) = features(i);
        clf.observe(&x, slow);
    }
    clf.train_round();
    // The first inference sizes the classifier's activation rows.
    clf.predict_slow(&features(0).0);

    let before = allocations();
    let mut predicted_slow = 0u32;
    // 3000 + 10 000 completions run the 8192-row replay ring past full, so
    // both appending and overwriting the oldest row are measured.
    for i in 0..10_000 {
        let (x, slow) = features(i);
        if clf.predict_slow(&x) {
            predicted_slow += 1;
        }
        clf.observe(&x, slow);
    }
    let allocated = allocations() - before;

    assert_eq!(
        allocated, 0,
        "10 000 predict_slow + observe pairs allocated {allocated} times"
    );
    // The loop did real work: the model separates the two queue shapes.
    assert!(
        (3000..=3700).contains(&predicted_slow),
        "predicted {predicted_slow} of 10 000 slow"
    );
}
