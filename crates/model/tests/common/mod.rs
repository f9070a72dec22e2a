//! The counting allocator of the allocation-contract tests
//! (`alloc_regression.rs`, `alloc_mux.rs`, and `alloc_hop.rs` of
//! `ncc-butterfly`). Each of those files installs it as its own
//! `#[global_allocator]` and holds a single test, so no concurrent test
//! can pollute the counters.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

pub struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

/// Requests are also counted by byte size, below this many bytes.
pub const SIZED_BELOW: usize = 4096;

static BY_SIZE: [AtomicU64; SIZED_BELOW] = [const { AtomicU64::new(0) }; SIZED_BELOW];

/// Allocations (`alloc`, `alloc_zeroed`, `realloc`) since process start.
pub fn allocs() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

/// Requests for exactly `size < SIZED_BELOW` bytes since process start.
#[allow(dead_code)] // each test file uses the counters it needs
pub fn allocs_of_size(size: usize) -> u64 {
    BY_SIZE[size].load(Ordering::Relaxed)
}

fn count(size: usize) {
    ALLOCS.fetch_add(1, Ordering::Relaxed);
    if let Some(sized) = BY_SIZE.get(size) {
        sized.fetch_add(1, Ordering::Relaxed);
    }
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, l: Layout) -> *mut u8 {
        count(l.size());
        unsafe { System.alloc(l) }
    }
    unsafe fn alloc_zeroed(&self, l: Layout) -> *mut u8 {
        count(l.size());
        unsafe { System.alloc_zeroed(l) }
    }
    unsafe fn realloc(&self, p: *mut u8, l: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        unsafe { System.realloc(p, l, new_size) }
    }
    unsafe fn dealloc(&self, p: *mut u8, l: Layout) {
        unsafe { System.dealloc(p, l) }
    }
}
