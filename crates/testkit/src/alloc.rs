//! A counting global allocator: memory assertions against what the heap
//! actually holds rather than what the code says it holds.
//!
//! [`Counting`] wraps [`System`] and keeps two relaxed counters, the bytes
//! live right now and their high-water mark. Install it as the
//! `#[global_allocator]` of a test binary that holds a **single**
//! `#[test]`: the counters are process-wide, so a second test running on a
//! parallel thread would show up in the first one's peak.
//!
//! ```no_run
//! use masc_testkit::alloc::Counting;
//!
//! #[global_allocator]
//! static HEAP: Counting = Counting::new();
//!
//! fn main() {
//!     let base = HEAP.reset_peak();
//!     let v = vec![0u8; 1 << 20];
//!     assert!(HEAP.peak() - base >= v.len());
//! }
//! ```

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

/// A [`GlobalAlloc`] over [`System`] that counts live heap bytes and
/// their peak.
#[derive(Debug)]
pub struct Counting {
    current: AtomicUsize,
    peak: AtomicUsize,
}

impl Counting {
    /// A counter at zero, usable in a `static`.
    pub const fn new() -> Self {
        Self {
            current: AtomicUsize::new(0),
            peak: AtomicUsize::new(0),
        }
    }

    /// Bytes currently allocated through this allocator.
    fn current(&self) -> usize {
        self.current.load(Relaxed)
    }

    /// The most bytes ever live at once since the last
    /// [`reset_peak`](Counting::reset_peak).
    pub fn peak(&self) -> usize {
        self.peak.load(Relaxed)
    }

    /// Lowers the high-water mark to what is live now and returns that
    /// figure, so `peak() - reset_peak()` is the extra heap a section
    /// needed.
    pub fn reset_peak(&self) -> usize {
        let now = self.current();
        self.peak.store(now, Relaxed);
        now
    }

    fn grow(&self, bytes: usize) {
        let now = self.current.fetch_add(bytes, Relaxed) + bytes;
        self.peak.fetch_max(now, Relaxed);
    }

    fn shrink(&self, bytes: usize) {
        self.current.fetch_sub(bytes, Relaxed);
    }
}

impl Default for Counting {
    fn default() -> Self {
        Self::new()
    }
}

// SAFETY: every call forwards to `System` with the caller's arguments
// unchanged; the counters only observe sizes and never touch memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            self.grow(layout.size());
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            self.grow(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.dealloc(ptr, layout) };
        self.shrink(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: `ptr` came from `System`; the caller upholds the rest.
        let new = unsafe { System.realloc(ptr, layout, new_size) };
        if !new.is_null() {
            if new_size >= layout.size() {
                self.grow(new_size - layout.size());
            } else {
                self.shrink(layout.size() - new_size);
            }
        }
        new
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_a_private_instance() {
        // Not installed globally: drive the trait methods directly.
        let heap = Counting::new();
        let layout = Layout::from_size_align(4096, 8).unwrap();
        // SAFETY: each pointer is freed once, with the layout (or realloc
        // size) it was last allocated with, and never dereferenced.
        unsafe {
            let p = heap.alloc(layout);
            assert_eq!((heap.current(), heap.peak()), (4096, 4096));
            let p = heap.realloc(p, layout, 1024);
            assert_eq!((heap.current(), heap.peak()), (1024, 4096));
            assert_eq!(heap.reset_peak(), 1024);
            let q = heap.alloc_zeroed(layout);
            assert_eq!(heap.peak(), 1024 + 4096);
            heap.dealloc(q, layout);
            heap.dealloc(p, Layout::from_size_align(1024, 8).unwrap());
        }
        assert_eq!(heap.current(), 0);
        assert_eq!(heap.peak(), 1024 + 4096);
    }
}
