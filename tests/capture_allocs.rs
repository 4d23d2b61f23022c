//! How many times the capture path calls the heap allocator.
//!
//! The capture script of `capture_golden` plays on the local PASS
//! volume — the topology the ledger's `local_layered` measures — under
//! a counting `#[global_allocator]`. After a warm-up round (tables
//! sized, scratch buffers grown) the allocator calls of the next
//! rounds are counted: every `alloc`, `alloc_zeroed` and `realloc`
//! made on this thread between the first syscall of a round and the
//! sealing of its log. The script's own paths and argument vectors are
//! built outside the window; its `Txn` / `Bundle` building is inside,
//! as it is the application's price of using the DPAPI.
//!
//! The count is deterministic for a build profile — nothing in the
//! window depends on a clock, a seed or a table's iteration order — and
//! it must stay at or under 60% of what the identical body counted at
//! the parent commit. One `#[test]` only: the counter is per thread,
//! but a second test in this binary would still share the allocator.

mod capture_script;

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use capture_script::{round, Machine};

thread_local! {
    /// Allocator calls made by this thread. `const`-initialised and
    /// without a destructor, so touching it never allocates.
    static CALLS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

fn count() {
    // `try_with`: the allocator outlives a thread's locals.
    let _ = CALLS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// whose contract is the one the caller was held to; counting touches
// only a thread-local `Cell`.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: `layout` is the caller's, passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: as `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: `ptr` came from this allocator, which is `System`
        // underneath, with `layout`; both are passed through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as `realloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Rounds counted after the warm-up round.
const COUNTED_ROUNDS: usize = 5;

/// What this file's body counted at commit `5816f0d` (the parent of
/// the capture-path optimisation), debug and release alike.
const PARENT_ALLOCS: u64 = 8_796;
/// Syscalls the kernel dispatched in the same window, there and here.
const SYSCALLS: u64 = 1_033;

#[test]
fn capture_allocates_at_most_60_percent_of_the_parent() {
    let mut m = Machine::local();
    m.play(&round(0));
    m.seal();
    let mut calls = 0u64;
    let mut syscalls = 0u64;
    for r in 1..=COUNTED_ROUNDS {
        let round = round(r);
        let (before, sys_before) = (CALLS.get(), m.kernel.stats().syscalls);
        m.play(&round);
        m.rotate();
        calls += CALLS.get() - before;
        syscalls += m.kernel.stats().syscalls - sys_before;
    }
    println!(
        "capture: {calls} allocator calls over {syscalls} syscalls = {:.2} per syscall \
         (parent {PARENT_ALLOCS} = {:.2})",
        calls as f64 / syscalls as f64,
        PARENT_ALLOCS as f64 / SYSCALLS as f64,
    );
    assert_eq!(
        syscalls, SYSCALLS,
        "the script changed: re-measure the parent"
    );
    assert!(
        calls * 100 <= PARENT_ALLOCS * 60,
        "{calls} allocator calls is more than 60% of the parent's {PARENT_ALLOCS}"
    );
}
