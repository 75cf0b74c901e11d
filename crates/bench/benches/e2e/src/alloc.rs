//! A counting global allocator. It lives only in this benchmark crate:
//! the engine crates are compiled unchanged and simply allocate through
//! it. It counts allocation calls and bytes (`engine.allocs_per_op`,
//! `engine.alloc_bytes_per_op`, read around each `Database` call) and
//! the heap bytes currently live (`live_heap_mb`).
//!
//! `strategy` allocates 11 M times a second, so the hot path touches only
//! thread-local cells; a thread folds them into the shared atomics every
//! [`FLUSH_ALLOCS`] calls or [`FLUSH_BYTES`] of net growth, and whenever
//! it asks for a [`snapshot`], and when it exits. The calling thread's
//! counts are therefore exact at a snapshot; a running worker's may lag by
//! less than one flush.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};

/// Fold a thread's counts into the totals after this many allocations …
const FLUSH_ALLOCS: u64 = 1024;
/// … or once its unreported net growth or shrinkage exceeds this.
const FLUSH_BYTES: i64 = 256 * 1024;

// Relaxed everywhere: these are statistics, they publish no other data.
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicI64 = AtomicI64::new(0);

/// One thread's counts since its last flush.
struct Local {
    allocs: Cell<u64>,
    bytes: Cell<u64>,
    live: Cell<i64>,
}

impl Local {
    const fn new() -> Local {
        Local {
            allocs: Cell::new(0),
            bytes: Cell::new(0),
            live: Cell::new(0),
        }
    }
}

// The engine's workers are short-lived scoped threads; what they counted
// must not die with them.
impl Drop for Local {
    fn drop(&mut self) {
        self.flush();
    }
}

thread_local! {
    // Const-initialised, so touching it from inside the allocator never
    // allocates; registering its destructor goes to libc, not back here.
    static LOCAL: Local = const { Local::new() };
}

/// Run `f` on this thread's counts — or, while the thread is tearing its
/// locals down, on a scratch set that is folded in at once.
fn with_local(f: impl Fn(&Local)) {
    if LOCAL.try_with(&f).is_err() {
        f(&Local::new());
    }
}

impl Local {
    fn flush(&self) {
        ALLOCS.fetch_add(self.allocs.take(), Ordering::Relaxed);
        BYTES.fetch_add(self.bytes.take(), Ordering::Relaxed);
        LIVE.fetch_add(self.live.take(), Ordering::Relaxed);
    }

    fn grew(&self, bytes: usize) {
        self.allocs.set(self.allocs.get() + 1);
        self.bytes.set(self.bytes.get() + bytes as u64);
        self.live.set(self.live.get() + bytes as i64);
        if self.allocs.get() >= FLUSH_ALLOCS || self.live.get() > FLUSH_BYTES {
            self.flush();
        }
    }

    fn shrank(&self, bytes: usize) {
        self.live.set(self.live.get() - bytes as i64);
        if self.live.get() < -FLUSH_BYTES {
            self.flush();
        }
    }
}

/// [`System`] with the counters in front of it.
pub struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counters touch no
// allocator state and do not allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        with_local(|l| l.grew(layout.size()));
        // SAFETY: the caller's `layout` obligations pass through as given.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        with_local(|l| l.grew(layout.size()));
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        with_local(|l| {
            l.shrank(layout.size());
            l.grew(new_size);
        });
        // SAFETY: `ptr` was returned by this allocator, i.e. by `System`,
        // with `layout`; the caller guarantees `new_size` is valid.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        with_local(|l| l.shrank(layout.size()));
        // SAFETY: `ptr` was returned by `System` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// `(allocation calls, bytes requested)` since process start.
pub fn snapshot() -> (u64, u64) {
    with_local(Local::flush);
    (
        ALLOCS.load(Ordering::Relaxed),
        BYTES.load(Ordering::Relaxed),
    )
}

/// Heap bytes allocated and not yet freed.
pub fn live_bytes() -> u64 {
    with_local(Local::flush);
    LIVE.load(Ordering::Relaxed).max(0) as u64
}
