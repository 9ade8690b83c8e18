//! A counting global allocator: live heap bytes and their high-water mark.
//!
//! `heap_peak_mb` is real allocation as the process sees it, not the
//! map's `approx_bytes` estimate. Every allocation path of the process
//! (server threads included) goes through [`Counting`].

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Live bytes and their high-water mark since the last rebase.
pub struct Meter {
    live: AtomicUsize,
    peak: AtomicUsize,
}

impl Meter {
    pub const fn new() -> Meter {
        Meter {
            live: AtomicUsize::new(0),
            peak: AtomicUsize::new(0),
        }
    }

    fn grow(&self, n: usize) {
        let live = self.live.fetch_add(n, Ordering::Relaxed) + n;
        self.peak.fetch_max(live, Ordering::Relaxed);
    }

    fn shrink(&self, n: usize) {
        self.live.fetch_sub(n, Ordering::Relaxed);
    }

    fn resize(&self, old: usize, new: usize) {
        if new >= old {
            self.grow(new - old);
        } else {
            self.shrink(old - new);
        }
    }

    /// Bytes currently allocated.
    pub fn live(&self) -> usize {
        self.live.load(Ordering::Relaxed)
    }

    /// Restart the high-water mark at the current live level and return
    /// it: the baseline a window's peak is measured above.
    pub fn rebase(&self) -> usize {
        let live = self.live();
        self.peak.store(live, Ordering::Relaxed);
        live
    }

    /// Highest live level since the last [`Meter::rebase`].
    pub fn peak(&self) -> usize {
        self.peak.load(Ordering::Relaxed)
    }
}

/// The process-wide meter behind [`Counting`].
pub static HEAP: Meter = Meter::new();

/// The system allocator with live/peak byte accounting into [`HEAP`].
pub struct Counting;

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            HEAP.grow(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            HEAP.grow(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        HEAP.shrink(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            HEAP.resize(layout.size(), new_size);
        }
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn meter_tracks_live_and_high_water() {
        let m = Meter::new();
        m.grow(100);
        m.grow(50);
        m.shrink(120);
        assert_eq!(m.live(), 30);
        assert_eq!(m.peak(), 150);
        m.resize(30, 80);
        assert_eq!((m.live(), m.peak()), (80, 150));
        m.resize(80, 10);
        assert_eq!((m.live(), m.peak()), (10, 150));
        // A new window starts at the live level, not at zero.
        assert_eq!(m.rebase(), 10);
        assert_eq!(m.peak(), 10);
        m.grow(5);
        assert_eq!(m.peak() - 10, 5);
    }

    // The installed allocator: other test threads allocate concurrently,
    // so only lower bounds this thread alone causes are asserted.
    #[test]
    fn global_allocator_counts_a_live_block() {
        const N: usize = 8 << 20;
        HEAP.rebase();
        let block = vec![7u8; N];
        assert!(HEAP.live() >= N);
        assert!(HEAP.peak() >= N);
        drop(block);
        assert!(HEAP.peak() >= N);
    }
}
