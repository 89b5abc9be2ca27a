//! Counting global allocator: the deterministic cost metric next to the
//! noisy wall-clock ones.
//!
//! Every `alloc`, `alloc_zeroed` and `realloc` call bumps a process-wide
//! counter (relaxed atomic; it publishes no other data) and a per-thread
//! one. The process-wide count gives `allocs_per_op`; the per-thread count
//! gives spans an exact allocation delta even when ops run concurrently,
//! because one op runs on one thread.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

static TOTAL: AtomicU64 = AtomicU64::new(0);

thread_local! {
    // Const-initialised and without a destructor, so touching it from
    // inside the allocator can neither allocate nor run after teardown.
    static LOCAL: Cell<u64> = const { Cell::new(0) };
}

/// The allocator installed by `main.rs` (and by the unit-test binary).
pub struct Counting;

#[inline]
fn bump() {
    TOTAL.fetch_add(1, Ordering::Relaxed);
    let _ = LOCAL.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the counters are plain
// integers and never influence the returned pointers.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: forwarded unchanged; the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: forwarded unchanged; the caller upholds `alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        // SAFETY: forwarded unchanged; `ptr` came from this allocator, which
        // is `System` underneath.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded unchanged; `ptr` came from this allocator, which
        // is `System` underneath.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Allocation calls made by the whole process so far.
pub fn total() -> u64 {
    TOTAL.load(Ordering::Relaxed)
}

/// Allocation calls made by the calling thread so far.
pub fn local() -> u64 {
    LOCAL.try_with(Cell::get).unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vec_pushes_count_exactly() {
        // The per-thread counter is immune to the other test threads.
        let before = local();
        let mut v: Vec<u64> = Vec::with_capacity(4);
        for i in 0..4 {
            v.push(i); // fits the reserved capacity: no allocation
        }
        assert_eq!(local() - before, 1, "one allocation for the capacity");
        let before = local();
        for i in 0..100 {
            v.push(i); // 4 -> 8 -> 16 -> 32 -> 64 -> 128: five regrowths
        }
        assert_eq!(local() - before, 5);
        let before = local();
        let boxes: Vec<Box<u32>> = (0..10).map(Box::new).collect();
        assert_eq!(local() - before, 11, "ten boxes plus the vector");
        let before_total = total();
        drop(boxes);
        drop(v);
        assert!(
            total() >= before_total,
            "frees are not counted as allocations"
        );
    }
}
