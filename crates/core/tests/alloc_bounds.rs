//! Allocation bounds of the Skipper engine once its query is prepared.
//!
//! A counting global allocator pins how many heap allocations an engine
//! build and each delivery make when the dataset already holds the
//! prepared query and its shared segment indexes. Neither count may grow
//! with the number of relations, segments or rows: plans, geometry and
//! indexes come from the shared preparation, and the per-delivery
//! buffers are reused. The counter is per thread, so tests running side
//! by side do not see each other's allocations.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use skipper_core::engine::QueryEngine;
use skipper_core::runtime::{EngineFactory, SkipperFactory};
use skipper_core::CostModel;
use skipper_csd::ObjectId;
use skipper_datagen::{tpch, Dataset, GenConfig};
use skipper_relational::catalog::GIB;
use skipper_relational::query::QuerySpec;

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the only other work is a
// bump of a `const`-initialized thread-local `Cell`, which neither
// allocates nor unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Runs `f`, returning its result and the allocations it made on this
/// thread.
fn counted<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (out, ALLOCS.with(Cell::get) - before)
}

/// Allocations of one warm engine build (the factory's, box included).
const BUILD_BOUND: u64 = 12;
/// Allocations of any one warm delivery without eviction.
const DELIVERY_BOUND: u64 = 8;
/// Allocations of a whole warm query's deliveries, per delivery.
const MEAN_DELIVERY_BOUND: f64 = 3.0;

/// TPC-H SF-4: Q12 reads 5 objects (lineitem 4 + orders 1).
fn sf4() -> Dataset {
    tpch::dataset(&GenConfig::new(7, 4).with_phys_divisor(100_000))
}

/// A factory whose cache holds every object of `spec`: no eviction.
fn roomy(ds: &Dataset, spec: &QuerySpec) -> SkipperFactory {
    SkipperFactory::default().cache_bytes(ds.objects_for_query(spec) as u64 * GIB)
}

/// Answers `engine`'s requests lowest `(segment, table)` first until it
/// finishes; returns the allocations of each `on_object` call.
fn drive(engine: &mut dyn QueryEngine, ds: &Dataset) -> Vec<u64> {
    let mut queue: Vec<ObjectId> = engine.start();
    let mut allocs = Vec::new();
    while let Some(i) = (0..queue.len()).min_by_key(|&i| (queue[i].segment, queue[i].table)) {
        let next = queue.swap_remove(i);
        let payload = ds.segments[next.table as usize][next.segment as usize].clone();
        let (reaction, n) = counted(|| engine.on_object(next, &payload));
        allocs.push(n);
        queue.extend(reaction.requests);
        if reaction.finished {
            break;
        }
    }
    allocs
}

#[test]
fn warm_deliveries_allocate_a_small_constant() {
    let ds = sf4();
    let spec = tpch::q12(&ds);
    let factory = roomy(&ds, &spec);
    let cost = CostModel::paper_calibrated();
    // The first query fills the dataset's shared indexes.
    let mut cold = factory.build(0, &ds, spec.clone(), cost);
    drive(cold.as_mut(), &ds);
    assert!(cold.is_finished());

    let mut warm = factory.build(0, &ds, spec, cost);
    let allocs = drive(warm.as_mut(), &ds);
    assert!(warm.is_finished());
    assert_eq!(allocs.len(), 5, "no eviction: one delivery per object");
    assert_eq!(warm.result(), cold.result());
    let max = allocs.iter().copied().max().unwrap();
    let mean = allocs.iter().sum::<u64>() as f64 / allocs.len() as f64;
    assert!(
        max <= DELIVERY_BOUND && mean <= MEAN_DELIVERY_BOUND,
        "warm Q12 deliveries allocated {allocs:?} (bounds: {DELIVERY_BOUND} per call, \
         {MEAN_DELIVERY_BOUND} mean)"
    );
}

#[test]
fn warm_engine_build_does_not_grow_with_the_plan() {
    let ds = sf4();
    let cost = CostModel::paper_calibrated();
    // Q12 joins 2 relations over 5 objects, Q5 joins 6 over 12.
    let allocs: Vec<(String, u64)> = [tpch::q12(&ds), tpch::q5(&ds)]
        .into_iter()
        .map(|spec| {
            let factory = roomy(&ds, &spec);
            let mut first = factory.build(0, &ds, spec.clone(), cost);
            drive(first.as_mut(), &ds);
            let arg = spec.clone();
            let (engine, n) = counted(|| factory.build(0, &ds, arg, cost));
            assert_eq!(engine.name(), "skipper");
            (spec.name, n)
        })
        .collect();
    assert!(
        allocs.iter().all(|&(_, n)| n <= BUILD_BOUND),
        "warm engine builds: {allocs:?} allocations (bound {BUILD_BOUND})"
    );
}
