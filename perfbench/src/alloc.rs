//! Process-level resource probes: a counting global allocator and the
//! peak resident set size.
//!
//! The allocator lives in the benchmark binary only; the simulator crates
//! never see it. Every allocation bumps two process-wide counters, so the
//! allocation count and bytes of a single-threaded run are exact and
//! repeat run to run.

use std::alloc::{GlobalAlloc, Layout, System};
use std::ops::Sub;
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

/// [`System`] plus two counters. A `realloc` counts as one allocation of
/// its new size, since it may move the block.
pub struct Counting;

fn note(bytes: usize) {
    // Relaxed: the counters are statistics and publish no other data.
    ALLOCS.fetch_add(1, Ordering::Relaxed);
    BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters do not touch memory
// handed out to callers.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

/// Cumulative allocation counters at one instant.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Allocs {
    /// Allocations (including reallocations).
    pub count: u64,
    /// Bytes requested by those allocations.
    pub bytes: u64,
}

impl Sub for Allocs {
    type Output = Allocs;

    fn sub(self, earlier: Allocs) -> Allocs {
        Allocs {
            count: self.count - earlier.count,
            bytes: self.bytes - earlier.bytes,
        }
    }
}

/// Read the counters. The difference of two snapshots taken around a
/// single-threaded section is that section's exact allocation count.
pub fn snapshot() -> Allocs {
    Allocs {
        count: ALLOCS.load(Ordering::Relaxed),
        bytes: BYTES.load(Ordering::Relaxed),
    }
}

/// Peak resident set size of this process so far, in MiB: the `VmHWM`
/// line of `/proc/self/status`. (`getrusage`'s `ru_maxrss` is not used: it
/// survives `exec`, so it would report the launching process's peak when
/// that was larger.)
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".into())
}
