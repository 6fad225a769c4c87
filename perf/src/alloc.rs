//! Counting global allocator, installed in the `now-perf` binary only.
//!
//! Always on, so both sides of any comparison pay the same relaxed atomic
//! operations per allocation (two adds and two loads) and per release (one
//! add). The counters are statistics: they publish no other data, hence
//! `Relaxed`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);
static FREED: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);

/// Books `size` more bytes requested, and the live total if it is a new
/// peak. (Threads race between the add and the loads, so the peak can be off
/// by what the other threads had in hand at that instant.)
fn took(size: usize) {
    ALLOCS.fetch_add(1, Ordering::Relaxed);
    let requested = BYTES.fetch_add(size as u64, Ordering::Relaxed) + size as u64;
    let live = requested.saturating_sub(FREED.load(Ordering::Relaxed));
    if live > PEAK.load(Ordering::Relaxed) {
        PEAK.fetch_max(live, Ordering::Relaxed);
    }
}

/// `System` plus a count of calls and of bytes requested.
pub struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters touch no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        took(layout.size());
        // SAFETY: the caller guarantees `layout` has non-zero size.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        FREED.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: the caller guarantees `ptr` came from this allocator with
        // `layout`, and this allocator only ever hands out `System` blocks.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        took(layout.size());
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        FREED.fetch_add(layout.size() as u64, Ordering::Relaxed);
        took(new_size);
        // SAFETY: the caller guarantees `ptr`/`layout` describe a live block
        // of this allocator and `new_size` is non-zero and in range.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// `(allocation calls, bytes requested)` since process start, all threads.
pub fn snapshot() -> (u64, u64) {
    (
        ALLOCS.load(Ordering::Relaxed),
        BYTES.load(Ordering::Relaxed),
    )
}

/// Bytes requested and not yet released, all threads.
fn live() -> u64 {
    BYTES
        .load(Ordering::Relaxed)
        .saturating_sub(FREED.load(Ordering::Relaxed))
}

/// Forgets the peak so far: the next [`peak_live`] is the most that was
/// live from now on.
pub fn reset_peak() {
    PEAK.store(live(), Ordering::Relaxed);
}

/// Most bytes live at once since the last [`reset_peak`].
pub fn peak_live() -> u64 {
    PEAK.load(Ordering::Relaxed).max(live())
}
