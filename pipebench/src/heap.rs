//! A counting global allocator: live heap bytes always, peak heap only
//! while the benchmark is inside a measured phase.
//!
//! Set-up, restart and the update/query loop are measured; input
//! generation, correctness checks and oracles run with tracking off, so
//! their transient allocations never raise the reported peak (their
//! allocations still move the live count, which keeps it exact). The
//! benchmark's records that grow with the number of requests live in a
//! [`StaticLog`], outside the heap, so the peak does not grow with the
//! length of the run.
//!
//! The allocator is kept to two atomic updates per call: even a
//! thread-local read here changes code generation enough to double the
//! measured `SRM1` load time.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);
static TRACKING: AtomicBool = AtomicBool::new(false);

/// The system allocator plus live/peak byte counters.
pub struct Counting;

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    if TRACKING.load(Ordering::Relaxed) {
        PEAK.fetch_max(live, Ordering::Relaxed);
    }
}

fn shrank(bytes: usize) {
    LIVE.fetch_sub(bytes, Ordering::Relaxed);
}

// SAFETY: every method forwards the caller's arguments unchanged to
// `System`, which upholds the `GlobalAlloc` contract; the counters are
// plain atomics and never touch the returned memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded verbatim; the caller guarantees a non-zero size.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded verbatim; the caller guarantees a non-zero size.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator (hence from `System`)
        // with this `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) };
        shrank(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: forwarded verbatim under the caller's guarantees.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            if new_size >= layout.size() {
                grew(new_size - layout.size());
            } else {
                shrank(layout.size() - new_size);
            }
        }
        p
    }
}

/// Starts or stops attributing allocations to the peak. Starting folds
/// in what is already live: state carried into a measured phase counts.
pub fn track(on: bool) {
    TRACKING.store(on, Ordering::SeqCst);
    if on {
        PEAK.fetch_max(LIVE.load(Ordering::SeqCst), Ordering::SeqCst);
    }
}

/// Peak live heap seen while tracking, in bytes.
pub fn peak_bytes() -> usize {
    PEAK.load(Ordering::SeqCst)
}

/// A fixed-capacity log of `u64`s in static storage, for records that
/// grow with the number of requests. One thread writes it.
pub struct StaticLog<const N: usize> {
    len: AtomicUsize,
    slots: [AtomicU64; N],
}

impl<const N: usize> StaticLog<N> {
    /// An empty log.
    pub const fn new() -> Self {
        StaticLog {
            len: AtomicUsize::new(0),
            slots: [const { AtomicU64::new(0) }; N],
        }
    }

    /// Appends `value`; `false` when the log is full.
    pub fn push(&self, value: u64) -> bool {
        let at = self.len.load(Ordering::Relaxed);
        if at == N {
            return false;
        }
        self.slots[at].store(value, Ordering::Relaxed);
        self.len.store(at + 1, Ordering::Relaxed);
        true
    }

    /// The values logged so far, oldest first.
    pub fn values(&self) -> impl Iterator<Item = u64> + '_ {
        self.slots[..self.len.load(Ordering::Relaxed)]
            .iter()
            .map(|v| v.load(Ordering::Relaxed))
    }

    /// Empties the log.
    pub fn clear(&self) {
        self.len.store(0, Ordering::Relaxed);
    }
}
