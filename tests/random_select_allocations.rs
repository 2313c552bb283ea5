//! Counting-allocator proof that a FedAvg-Random draw costs what its
//! cohort costs, not what its fleet costs.
//!
//! `RandomSelector::select` draws `K` distinct ranks over the eligible
//! count and looks them up in the availability bins, so one draw of 20
//! participants from a 1,000,000-device fleet under dynamics must request
//! a few hundred bytes, never a list of the ≈ 700,000 eligible ids
//! (≈ 2.8 MB even as `u32`).
//!
//! This binary installs a counting `#[global_allocator]`, so it holds
//! exactly one test: any neighbour running concurrently would perturb the
//! counter.

use autofl_data::partition::{DataDistribution, Partition};
use autofl_data::synth;
use autofl_device::fleet::Fleet;
use autofl_device::scenario::VarianceScenario;
use autofl_device::tier::DeviceTier;
use autofl_fed::conditions::ConditionsView;
use autofl_fed::fleet::{AvailabilityView, FleetDynamics, FleetStore};
use autofl_fed::global::GlobalParams;
use autofl_fed::selection::{RandomSelector, RoundContext, Selector};
use autofl_nn::zoo::Workload;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Pass-through allocator that sums the bytes every allocation (and
/// reallocation) made by the measuring thread requests while its
/// `ENABLED` flag is set; the gate is thread-local so the test harness's
/// own threads are not counted.
struct CountingAllocator;

thread_local! {
    static ENABLED: Cell<bool> = const { Cell::new(false) };
}
static BYTES: AtomicUsize = AtomicUsize::new(0);

fn count(bytes: usize) {
    // `try_with` never allocates; it only fails during TLS teardown.
    if ENABLED.try_with(Cell::get).unwrap_or(false) {
        BYTES.fetch_add(bytes, Ordering::Relaxed);
    }
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

#[test]
fn a_random_draw_from_a_million_devices_requests_no_fleet_sized_buffer() {
    // The inline path: a parallel fan-out may box its jobs on the
    // calling thread.
    std::env::set_var("AUTOFL_THREADS", "1");
    rayon::refresh_thread_count();

    let fleet = Fleet::custom(
        &[
            (DeviceTier::High, 150_000),
            (DeviceTier::Mid, 350_000),
            (DeviceTier::Low, 500_000),
        ],
        1,
    );
    let dynamics = FleetDynamics::realistic();
    let mut store = FleetStore::new(&dynamics, &fleet, 7, 16);
    store.begin_round(&dynamics, &fleet, 0);
    let conditions = ConditionsView::new(VarianceScenario::calm(), &fleet, 7, Some(&store));
    // FedAvg-Random reads no training data; a one-device partition
    // stands in for the fleet's.
    let labels = synth::generate_labels(Workload::CnnMnist, 8, 1);
    let partition = Partition::new(&labels, 1, DataDistribution::IidIdeal, 1);
    let params = GlobalParams::s3();
    let ctx = RoundContext {
        round: 0,
        fleet: &fleet,
        conditions: &conditions,
        availability: AvailabilityView::Dynamic(&store),
        partition: &partition,
        params: &params,
        workload: Workload::CnnMnist,
        layer_counts: Workload::CnnMnist.reference_layer_counts(),
        prev_accuracy: 0.1,
    };
    let mut rng = SmallRng::seed_from_u64(7);

    BYTES.store(0, Ordering::SeqCst);
    ENABLED.with(|f| f.set(true));
    let decision = RandomSelector.select(&ctx, &mut rng);
    ENABLED.with(|f| f.set(false));

    let bytes = BYTES.load(Ordering::SeqCst);
    assert!(
        bytes < 64 * 1024,
        "one FedAvg-Random draw requested {bytes} bytes"
    );
    // The draw must be the real one, from a partly eligible fleet.
    let eligible = store.eligible_count();
    assert!(eligible > 500_000 && eligible < fleet.len(), "{eligible}");
    assert_eq!(decision.participants.len(), params.num_participants);
    assert!(decision.participants.windows(2).all(|w| w[0] < w[1]));
    assert!(decision
        .participants
        .iter()
        .all(|id| store.is_eligible(id.0)));
}
