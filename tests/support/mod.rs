//! Per-thread allocation counting for the zero-allocation proofs.
//!
//! Including this module (`mod support;`) installs a counting
//! `#[global_allocator]` that wraps `System` in that test binary. libtest
//! runs a binary's tests on parallel threads, so a process-wide counter
//! would charge one test's warm-up to another test's counted window;
//! here the counter is armed, bumped and read on the calling thread only.
//! The counters are const-initialised `thread_local!` `Cell`s — no
//! destructor, no lazy initialisation — so the allocator hook that
//! touches them never allocates itself.
//!
//! This lives outside the library crates because they forbid `unsafe`,
//! which a `GlobalAlloc` impl requires.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static ARMED: Cell<bool> = const { Cell::new(false) };
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static LAST_SIZE: Cell<usize> = const { Cell::new(0) };
}

/// Books one allocation of `size` bytes if this thread is counting.
fn record(size: usize) {
    // `try_with`: the hook may run while a thread's locals are torn down.
    let _ = ARMED.try_with(|armed| {
        if armed.get() {
            ALLOCS.with(|n| n.set(n.get() + 1));
            LAST_SIZE.with(|s| s.set(size));
        }
    });
}

struct CountingAlloc;

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        record(new_size);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Runs `f` and returns how many heap allocations (including reallocs) it
/// made on the calling thread.
pub fn count_allocs(f: impl FnOnce()) -> u64 {
    ALLOCS.with(|n| n.set(0));
    ARMED.with(|a| a.set(true));
    f();
    ARMED.with(|a| a.set(false));
    ALLOCS.with(Cell::get)
}

/// The size in bytes of the last allocation the latest [`count_allocs`]
/// window on this thread counted — a hint for finding the culprit.
#[allow(dead_code)] // not every test binary reports it
pub fn last_alloc_size() -> usize {
    LAST_SIZE.with(Cell::get)
}
