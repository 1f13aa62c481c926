//! Allocation counting for the traced run.
//!
//! With the `alloc-count` feature the process allocates through a wrapper
//! around the system allocator that counts calls while counting is switched
//! on. This is the repository's only `unsafe`; it lives here because
//! `benchmark/` is outside `scope-analyze`'s walk. Without the feature
//! `calls` reports 0.

#[cfg(feature = "alloc-count")]
mod counting {
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

    // Statistics only: nothing is published through these, so `Relaxed`.
    pub static ON: AtomicBool = AtomicBool::new(false);
    pub static CALLS: AtomicU64 = AtomicU64::new(0);

    pub struct Counting;

    // SAFETY: every method forwards its arguments unchanged to `System`,
    // which upholds the `GlobalAlloc` contract; the counter updates touch
    // no allocator state.
    unsafe impl GlobalAlloc for Counting {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            if ON.load(Ordering::Relaxed) {
                CALLS.fetch_add(1, Ordering::Relaxed);
            }
            // SAFETY: the caller's obligations are exactly `System::alloc`'s.
            unsafe { System.alloc(layout) }
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            // SAFETY: `ptr` came from this allocator, i.e. from `System`.
            unsafe { System.dealloc(ptr, layout) }
        }

        unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
            if ON.load(Ordering::Relaxed) {
                CALLS.fetch_add(1, Ordering::Relaxed);
            }
            // SAFETY: as for `alloc`.
            unsafe { System.alloc_zeroed(layout) }
        }

        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            if ON.load(Ordering::Relaxed) {
                CALLS.fetch_add(1, Ordering::Relaxed);
            }
            // SAFETY: `ptr` came from `System` with `layout`; the caller
            // guarantees `new_size` is valid for it.
            unsafe { System.realloc(ptr, layout, new_size) }
        }
    }

    #[global_allocator]
    static GLOBAL: Counting = Counting;
}

/// Switch counting on or off (a no-op without the feature).
pub fn set_counting(on: bool) {
    #[cfg(feature = "alloc-count")]
    counting::ON.store(on, std::sync::atomic::Ordering::Relaxed);
    #[cfg(not(feature = "alloc-count"))]
    let _ = on;
}

/// Allocator calls (`alloc`, `alloc_zeroed`, `realloc`) made by every
/// thread while counting was on; 0 without the feature.
pub fn calls() -> u64 {
    #[cfg(feature = "alloc-count")]
    return counting::CALLS.load(std::sync::atomic::Ordering::Relaxed);
    #[cfg(not(feature = "alloc-count"))]
    0
}

#[cfg(all(test, feature = "alloc-count"))]
mod tests {
    #[test]
    fn counts_allocations_while_switched_on() {
        let before = super::calls();
        super::set_counting(true);
        let v: Vec<Vec<u32>> = (0..10).map(|i| vec![i; 4]).collect();
        super::set_counting(false);
        // Ten inner vectors plus the outer one; other test threads may add.
        assert!(super::calls() - before >= 11);
        drop(v);
    }
}
