//! Counting-allocator proof of the round loop's allocation hygiene.
//!
//! The fleet-dynamics hot path — session evolution, on-demand condition
//! reads of the cohort (with the lifecycle throttle), mid-round dropout
//! draws and lifecycle advancement — works entirely in buffers sized at
//! construction. After a short
//! warm-up, steady-state rounds must perform **zero** heap allocations on
//! the inline (`AUTOFL_THREADS=1`) path; multicore runs additionally pay
//! only the pool's per-fan-out bookkeeping, never per-device storage.
//!
//! This binary installs a counting `#[global_allocator]`, so it holds
//! exactly one test: any neighbour running concurrently would perturb the
//! counter.

use autofl_device::fleet::{DeviceId, Fleet};
use autofl_device::scenario::{Conditions, VarianceScenario};
use autofl_device::tier::DeviceTier;
use autofl_fed::conditions::ConditionsView;
use autofl_fed::fleet::{FleetDynamics, FleetStore};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Pass-through allocator that counts every allocation (and reallocation)
/// made by the measuring thread while its `ENABLED` flag is set.
///
/// The gate is thread-local on purpose: the test harness runs threads of
/// its own (timers, result channels) whose incidental allocations are
/// not the round loop's — the contract under test is "the dynamics path
/// itself allocates nothing", and on the `AUTOFL_THREADS=1` inline path
/// every dynamics allocation happens on the calling thread.
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

#[test]
fn steady_state_dynamics_rounds_are_allocation_free() {
    // The inline path is the allocation-free contract; parallel fan-outs
    // may box their jobs.
    std::env::set_var("AUTOFL_THREADS", "1");
    rayon::refresh_thread_count();

    let config = FleetDynamics::with_dropout_rate(0.25);
    let fleet = Fleet::custom(
        &[
            (DeviceTier::High, 2_000),
            (DeviceTier::Mid, 3_000),
            (DeviceTier::Low, 5_000),
        ],
        1,
    );
    let shards = 8;
    let mut store = FleetStore::new(&config, &fleet, 42, shards);
    let scenario = VarianceScenario::realistic();

    // A fixed cohort with per-participant budgets, sized once up front
    // (the engine holds these in its round scratch the same way).
    let participants: Vec<DeviceId> = (0..20).map(|i| DeviceId(i * 97)).collect();
    let busy_s: Vec<f64> = (0..20).map(|i| 5.0 + i as f64).collect();
    let energy_j: Vec<f64> = (0..20).map(|i| 40.0 + 3.0 * i as f64).collect();

    let mut dropouts_seen = 0usize;
    let mut bandwidth_sum = 0.0f64;
    let run_round = |round: usize,
                     store: &mut FleetStore,
                     dropouts_seen: &mut usize,
                     bandwidth_sum: &mut f64| {
        store.begin_round(&config, &fleet, round);
        let conditions =
            ConditionsView::new(scenario, &fleet, 0x5eed ^ (round as u64) << 17, Some(store));
        for id in &participants {
            *bandwidth_sum += conditions.get(id.0).network.bandwidth_mbps;
        }
        for (i, id) in participants.iter().enumerate() {
            if store
                .mid_round_dropout(&config, &fleet, round, *id, energy_j[i])
                .is_some()
            {
                *dropouts_seen += 1;
            }
        }
        store.end_round(&config, &fleet, 60.0, &participants, &busy_s, &energy_j);
    };

    // Warm-up: first rounds may still grow buffers to their steady size.
    for round in 0..3 {
        run_round(round, &mut store, &mut dropouts_seen, &mut bandwidth_sum);
    }

    ALLOCATIONS.store(0, Ordering::SeqCst);
    ENABLED.with(|f| f.set(true));
    for round in 3..10 {
        run_round(round, &mut store, &mut dropouts_seen, &mut bandwidth_sum);
    }
    ENABLED.with(|f| f.set(false));

    let n = ALLOCATIONS.load(Ordering::SeqCst);
    assert_eq!(
        n, 0,
        "steady-state dynamics rounds performed {n} heap allocations"
    );
    // The loop above must exercise the real path, not a degenerate one.
    assert!(dropouts_seen > 0, "25% churn never dropped a participant");
    assert!(
        bandwidth_sum > 0.0,
        "the cohort's conditions were never read"
    );
    assert!(store.eligible_count() > 0, "no device ever checked in");
}
