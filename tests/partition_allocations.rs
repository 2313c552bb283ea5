//! Counting-allocator proof that building a partition allocates a fixed
//! number of arrays, not one per device.
//!
//! `Partition::new` writes its CSR arrays in place: the offsets, the
//! indices, the class counts and the non-IID flags, plus class pools,
//! cursors, the device order and one Dirichlet buffer as scratch. So a
//! fleet of 100,000 devices must cost as many allocations as a fleet of
//! 1,000, under every distribution.
//!
//! This binary installs a counting `#[global_allocator]`, so it holds
//! exactly one test: any neighbour running concurrently would perturb the
//! counter.

use autofl_data::partition::{DataDistribution, Partition};
use autofl_data::synth;
use autofl_nn::zoo::Workload;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Pass-through allocator that counts every allocation (and reallocation)
/// made by the measuring thread while its `ENABLED` flag is set; the gate
/// is thread-local so the test harness's own threads are not counted.
struct CountingAllocator;

thread_local! {
    static ENABLED: Cell<bool> = const { Cell::new(false) };
}
static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

fn counting_enabled() -> bool {
    // `try_with` never allocates; it only fails during TLS teardown.
    ENABLED.try_with(Cell::get).unwrap_or(false)
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if counting_enabled() {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if counting_enabled() {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if counting_enabled() {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// Allocations `Partition::new` makes for `devices` devices holding
/// eight CNN-MNIST labels each, plus three left over.
fn allocations(devices: usize, distribution: DataDistribution) -> usize {
    let labels = synth::generate_labels(Workload::CnnMnist, devices * 8 + 3, 5);
    ALLOCATIONS.store(0, Ordering::SeqCst);
    ENABLED.with(|f| f.set(true));
    let partition = Partition::new(&labels, devices, distribution, 9);
    ENABLED.with(|f| f.set(false));
    assert_eq!(partition.num_devices(), devices);
    ALLOCATIONS.load(Ordering::SeqCst)
}

#[test]
fn partition_allocations_do_not_grow_with_the_fleet() {
    for distribution in [
        DataDistribution::IidIdeal,
        DataDistribution::non_iid_percent(50),
        DataDistribution::non_iid_percent(100),
    ] {
        let small = allocations(1_000, distribution);
        let large = allocations(100_000, distribution);
        assert_eq!(
            small, large,
            "{distribution:?}: {small} allocations at 1,000 devices, {large} at 100,000"
        );
    }
}
