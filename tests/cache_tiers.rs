//! Shard-cache tier properties: zero-size collapse, work conservation,
//! determinism, and crash invalidation.
//!
//! The cache plane's contract mirrors the fleet's: it changes *when*
//! bytes arrive (tier bandwidth instead of queue + switch + transfer),
//! never *which* — and a disabled or zero-capacity config must leave
//! the machine byte-identical to before the cache existed.

use std::sync::Arc;

use skipper::core::driver::{EngineKind, Scenario};
use skipper::core::runtime::{
    BasePlacement, FaultPlan, PlacementPolicy, RunResult, SkipperFactory, VanillaFactory, Workload,
};
use skipper::csd::cache::{CacheConfig, CachePolicy};
use skipper::datagen::{tpch, Dataset, GenConfig};
use skipper::sim::{SimDuration, SimTime};

const GIB: u64 = 1 << 30;

fn dataset() -> Arc<Dataset> {
    Arc::new(tpch::dataset(
        &GenConfig::new(31, 4).with_phys_divisor(100_000),
    ))
}

/// Two repeat-round Skipper tenants (their second rounds re-GET the
/// same objects — cache food) plus one pull-based Vanilla tenant.
fn fleet_scenario(ds: &Arc<Dataset>) -> Scenario {
    let q12 = tpch::q12(ds);
    Scenario::from_workloads(vec![
        Workload::new(Arc::clone(ds))
            .repeat_query(q12.clone(), 3)
            .engine(SkipperFactory::default().cache_bytes(30 * GIB)),
        Workload::new(Arc::clone(ds))
            .repeat_query(q12.clone(), 2)
            .engine(SkipperFactory::default().cache_bytes(30 * GIB))
            .start_at(SimDuration::from_secs(60)),
        Workload::new(Arc::clone(ds))
            .repeat_query(q12, 1)
            .engine(VanillaFactory),
    ])
}

/// `cache_size(0)` reproduces the pinned single-device and 4-shard
/// goldens microsecond-exactly, and the whole `RunResult` matches an
/// uncached run bit for bit.
#[test]
fn zero_size_cache_reproduces_the_goldens() {
    let ds = tpch::dataset(&GenConfig::new(7, 8).with_phys_divisor(100_000));
    let run = |cache: bool, shards: usize| {
        let q12 = tpch::q12(&ds);
        let mut sc = Scenario::new(ds.clone())
            .clients(3)
            .engine(EngineKind::Skipper)
            .cache_bytes(8 << 30)
            .shards(shards)
            .placement(PlacementPolicy::RoundRobin)
            .repeat_query(q12, 1);
        if cache {
            sc = sc.cache_size(0);
        }
        sc.run()
    };
    let zero = run(true, 1);
    assert_eq!(zero.makespan.as_micros(), 305_278_730);
    assert_eq!(zero.device.group_switches, 2);
    assert_eq!(zero, run(false, 1), "cache_size(0) drifted on 1 shard");
    assert_eq!(
        zero.cache.lookups(),
        0,
        "a zero cache must never be consulted"
    );

    let zero4 = run(true, 4);
    assert_eq!(zero4.makespan.as_micros(), 138_038_455);
    assert_eq!(zero4, run(false, 4), "cache_size(0) drifted on 4 shards");
}

const POLICIES: [CachePolicy; 3] = [
    CachePolicy::Lru,
    CachePolicy::Clock,
    CachePolicy::GroupAware,
];

const PLACEMENTS: [PlacementPolicy; 3] = [
    PlacementPolicy::RoundRobin,
    PlacementPolicy::HashObject,
    PlacementPolicy::TableAffinity,
];

fn check_accounting(res: &RunResult, baseline: &RunResult, label: &str) {
    // Every GET is either a tier hit or a device delivery — nothing
    // lost, nothing double-served.
    assert_eq!(
        res.delivery_multiset(),
        baseline.delivery_multiset(),
        "{label}: the cache changed which bytes were delivered"
    );
    assert_eq!(
        res.cache.lookups(),
        baseline.delivery_multiset().len() as u64,
        "{label}: lookups != total GETs"
    );
    assert_eq!(
        res.cache.misses, res.device.objects_served,
        "{label}: every miss must be served by the device exactly once"
    );
    let shard_hits: u64 = res.shards.iter().map(|s| s.cache.hits()).sum();
    assert_eq!(res.cache.hits(), shard_hits, "{label}: roll-up drifted");
}

/// The battery: policy × placement × cache-size grid. Every cached run
/// delivers the uncached multiset, the hit/miss ledger partitions the
/// GETs exactly, and hits never slow the run down.
#[test]
fn cached_runs_conserve_the_delivery_multiset() {
    let ds = dataset();
    let sizes: [(&str, CacheConfig); 3] = [
        ("dram-2g", CacheConfig::dram_only(2 * GIB)),
        ("dram-6g", CacheConfig::dram_only(6 * GIB)),
        ("two-tier", CacheConfig::two_tier(2 * GIB, 4 * GIB)),
    ];
    for placement in PLACEMENTS {
        let baseline = fleet_scenario(&ds).shards(2).placement(placement).run();
        assert!(!baseline.delivery_multiset().is_empty());
        for policy in POLICIES {
            for (size_label, config) in sizes {
                let label = format!("{placement:?}/{policy:?}/{size_label}");
                let res = fleet_scenario(&ds)
                    .shards(2)
                    .placement(placement)
                    .shard_cache(config.with_policy(policy))
                    .run();
                check_accounting(&res, &baseline, &label);
                assert!(res.cache.hits() > 0, "{label}: repeat rounds never hit");
                assert!(
                    res.makespan <= baseline.makespan,
                    "{label}: the cache slowed the run down"
                );
            }
        }
    }
}

/// Determinism: a cached multi-shard fleet reproduces its run exactly
/// on repeat, in every tier layout.
#[test]
fn cached_runs_are_deterministic() {
    let ds = dataset();
    for config in [
        CacheConfig::dram_only(4 * GIB),
        CacheConfig::two_tier(2 * GIB, 4 * GIB).with_policy(CachePolicy::GroupAware),
    ] {
        let reference = fleet_scenario(&ds).shards(4).shard_cache(config).run();
        assert!(reference.cache.hits() > 0);
        let repeat = fleet_scenario(&ds).shards(4).shard_cache(config).run();
        assert_eq!(repeat, reference, "cached run not deterministic");
    }
}

/// The chaos cell: a crash wipes the dead shard's cache (DRAM contents
/// do not survive a power cycle), displaced hits are re-served from
/// replicas, and the faulted run still delivers the fault-free
/// multiset — no stale hit can leak a delivery the failover also
/// re-serves.
#[test]
fn crash_invalidates_the_dead_shards_cache() {
    let ds = dataset();
    let secs = |s: u64| SimTime::ZERO + SimDuration::from_secs(s);
    let scenario = || {
        fleet_scenario(&ds)
            .shards(4)
            .placement(PlacementPolicy::Replicated {
                k: 2,
                base: BasePlacement::RoundRobin,
            })
            .shard_cache(CacheConfig::dram_only(4 * GIB))
    };
    // The crash lands mid-run, after round 1 has warmed the caches.
    let plan = || FaultPlan::new().shard_down(1, secs(250), secs(1200));
    let clean = scenario().run();
    assert!(clean.cache.hits() > 0, "cache never warmed");
    let faulted = scenario().faults(plan()).run();
    assert_eq!(
        faulted.delivery_multiset(),
        clean.delivery_multiset(),
        "crash + invalidation lost or duplicated work"
    );
    assert!(
        faulted.shards[1].cache.invalidations >= 1,
        "the dead shard kept its cache across the crash"
    );
    assert_eq!(faulted.shards[1].fault.downs, 1);
    let repeat = scenario().faults(plan()).run();
    assert_eq!(repeat, faulted, "faulted cached run not deterministic");
}
