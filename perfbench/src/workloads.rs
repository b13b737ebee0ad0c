//! The four benchmark workloads, their fleet knobs, and the two ways to
//! run them: through `Scenario::run` (the timed path) and through the
//! same assembly rebuilt from public constructors, so the traced run can
//! wrap the device schedulers.

use std::collections::HashMap;
use std::sync::Arc;

use skipper::core::config::CostModel;
use skipper::core::runtime::client::{ClientState, PlannedQuery};
use skipper::core::runtime::driver::Runtime;
use skipper::core::runtime::{
    ArrivalProcess, BasePlacement, CacheConfig, DeviceFleet, ExecutionMode, FaultPlan, LedgerMode,
    PlacementPolicy, RecordMode, RetryPolicy, RunResult, Scenario, SkipperFactory, TraceMode,
    VanillaFactory, Workload,
};
use skipper::csd::{
    CsdConfig, CsdDevice, GroupScheduler, IntraGroupOrder, Layout, LayoutPolicy, ObjectId,
    ObjectStore, SchedPolicy, StreamModel,
};
use skipper::datagen::{tpch, Dataset, GenConfig};
use skipper::relational::query::QuerySpec;
use skipper::relational::segment::Segment;
use skipper::sim::{SimDuration, SimTime};

use crate::check::Expect;

/// Each object's replica shards, preferred shard first.
pub type Replicas = HashMap<ObjectId, Vec<usize>>;

/// The seed whose fingerprint is pinned.
pub const DEFAULT_SEED: u64 = 7;

/// Every workload, in report order.
pub const NAMES: [&str; 4] = [
    "closed_skipper",
    "open_vanilla",
    "cached_skewed",
    "protected_outage",
];

/// Deadline, retry, hedging and faults: set on `protected_outage` only.
/// The runtime takes these through crate-private setters, so a workload
/// that has them can run only through `Scenario::run`.
pub struct Protection {
    deadline: SimDuration,
    retry: RetryPolicy,
    hedge: SimDuration,
    faults: FaultPlan,
}

/// A workload's inputs, made from the seed: the tenants plus the fleet
/// they share.
pub struct Setup {
    pub tenants: Vec<Workload>,
    shards: usize,
    placement: PlacementPolicy,
    sched: SchedPolicy,
    shard_cache: CacheConfig,
    protection: Option<Protection>,
    seed: u64,
    /// Host seconds spent generating the datasets.
    pub gen_s: f64,
}

/// Builds the named workload's inputs from `seed`.
pub fn setup(name: &str, seed: u64) -> Option<Setup> {
    match name {
        "closed_skipper" => Some(closed_skipper(seed)),
        "open_vanilla" => Some(open_vanilla(seed)),
        "cached_skewed" => Some(cached_skewed(seed)),
        "protected_outage" => Some(protected_outage(seed)),
        _ => None,
    }
}

/// Distinct datasets of each size in a workload; tenant `i` reads
/// instance `i % DATASETS`. Data-dependent work (filter hits, join
/// fan-out, group counts) then averages over several instances instead
/// of riding on one, so the figures move less from seed to seed.
const DATASETS: u64 = 8;

/// `n` TPC-H instances of one size, each with `query` built on it; the
/// generator seeds derive from the workload seed.
fn tpch_instances(
    seed: u64,
    sf: u32,
    divisor: u64,
    n: u64,
    query: fn(&Dataset) -> QuerySpec,
    gen_s: &mut f64,
) -> Vec<(Arc<Dataset>, QuerySpec)> {
    let start = std::time::Instant::now();
    let data: Vec<Arc<Dataset>> = (0..n)
        .map(|j| {
            let cfg = GenConfig::new(seed * DATASETS + j, sf).with_phys_divisor(divisor);
            Arc::new(tpch::dataset(&cfg))
        })
        .collect();
    *gen_s += start.elapsed().as_secs_f64();
    data.into_iter()
        .map(|d| {
            let q = query(&d);
            (d, q)
        })
        .collect()
}

/// Tenant `i`'s workload: `rounds` runs of the query on its instance.
fn tenant(instances: &[(Arc<Dataset>, QuerySpec)], i: u64, rounds: usize) -> Workload {
    let (data, query) = &instances[i as usize % instances.len()];
    Workload::new(Arc::clone(data)).repeat_query(query.clone(), rounds)
}

fn skipper() -> SkipperFactory {
    SkipperFactory::default().cache_bytes(30 << 30)
}

/// `tenants` on `shards` round-robin shards, without shard cache or
/// protection.
fn fleet(
    tenants: Vec<Workload>,
    shards: usize,
    sched: SchedPolicy,
    seed: u64,
    gen_s: f64,
) -> Setup {
    Setup {
        tenants,
        shards,
        placement: PlacementPolicy::RoundRobin,
        sched,
        shard_cache: CacheConfig::disabled(),
        protection: None,
        seed,
        gen_s,
    }
}

/// 256 closed-loop Skipper tenants, Q12 × 5 on SF-8, starts 1 s apart,
/// 8 round-robin shards under the rank scheduler.
fn closed_skipper(seed: u64) -> Setup {
    let mut gen_s = 0.0;
    let sf8 = tpch_instances(seed, 8, 100_000, DATASETS, tpch::q12, &mut gen_s);
    let tenants = (0..256)
        .map(|i| {
            tenant(&sf8, i, 5)
                .engine(skipper())
                .start_at(SimDuration::from_secs(i))
        })
        .collect();
    fleet(tenants, 8, SchedPolicy::RankBased, seed, gen_s)
}

/// 64 pull-based tenants, Q12 × 5 on SF-8 with 5× the physical rows,
/// released by Poisson arrivals past saturation, 8 round-robin shards
/// under the stock object-FCFS scheduler.
fn open_vanilla(seed: u64) -> Setup {
    let mut gen_s = 0.0;
    let sf8 = tpch_instances(seed, 8, 20_000, DATASETS, tpch::q12, &mut gen_s);
    let tenants = (0..64)
        .map(|i| {
            tenant(&sf8, i, 5)
                .engine(VanillaFactory)
                .arrival(ArrivalProcess::Poisson {
                    mean: SimDuration::from_secs(600),
                    seed: seed + i,
                })
        })
        .collect();
    fleet(tenants, 8, SchedPolicy::FcfsObject, seed, gen_s)
}

/// 64 hot Skipper tenants re-running Q12 × 100 on SF-2 (starts 5 s
/// apart) beside 6 cold one-shot Q1 scans on SF-8, over 4 shards with an
/// 8 GiB DRAM shard cache each.
fn cached_skewed(seed: u64) -> Setup {
    let mut gen_s = 0.0;
    let hot = tpch_instances(seed, 2, 100_000, DATASETS, tpch::q12, &mut gen_s);
    let cold = tpch_instances(seed, 8, 100_000, 6, tpch::q1, &mut gen_s);
    let mut tenants: Vec<Workload> = (0..64)
        .map(|i| {
            tenant(&hot, i, 100)
                .engine(skipper())
                .start_at(SimDuration::from_secs(5 * i))
        })
        .collect();
    tenants.extend((0..6).map(|i| tenant(&cold, i, 1).engine(skipper())));
    let mut s = fleet(tenants, 4, SchedPolicy::RankBased, seed, gen_s);
    s.shard_cache = CacheConfig::dram_only(8 << 30);
    s
}

/// 64 Skipper tenants, Q12 × 30 on SF-8 released by Poisson arrivals,
/// alternating priority, on 2-way replicated storage over 4 shards with
/// deadlines, retries, hedged reads, a brown-out and an outage.
fn protected_outage(seed: u64) -> Setup {
    let mut gen_s = 0.0;
    let sf8 = tpch_instances(seed, 8, 100_000, DATASETS, tpch::q12, &mut gen_s);
    let tenants = (0..64)
        .map(|i| {
            tenant(&sf8, i, 30)
                .engine(skipper())
                .arrival(ArrivalProcess::Poisson {
                    mean: SimDuration::from_secs(5000),
                    seed: seed + i,
                })
                .priority((i % 2) as u32)
        })
        .collect();
    let mut s = fleet(tenants, 4, SchedPolicy::RankBased, seed, gen_s);
    s.placement = PlacementPolicy::Replicated {
        k: 2,
        base: BasePlacement::RoundRobin,
    };
    s.protection = Some(Protection {
        deadline: SimDuration::from_secs(3000),
        retry: RetryPolicy::Backoff {
            base: SimDuration::from_secs(5),
            cap: SimDuration::from_secs(120),
            max_attempts: 4,
        },
        hedge: SimDuration::from_secs(60),
        faults: FaultPlan::new()
            .degraded(
                0,
                SimTime::from_secs(2_000),
                SimTime::from_secs(20_000),
                0.05,
            )
            .shard_down(2, SimTime::from_secs(30_000), SimTime::from_secs(36_000))
            .shard_down(3, SimTime::from_secs(35_000), SimTime::from_secs(35_020)),
    });
    s
}

impl Setup {
    /// What every run of these inputs must show.
    pub fn expect(&self) -> Expect {
        Expect {
            planned: self.tenants.iter().map(|w| w.queries.len() as u64).sum(),
            protected: self.protection.is_some(),
            cached: self.shard_cache.enabled(),
        }
    }

    /// The `Scenario` for this workload: sequential, with every trace,
    /// ledger and record regime at `Counters`.
    pub fn scenario(self) -> Scenario {
        let mut s = Scenario::from_workloads(self.tenants)
            .shards(self.shards)
            .placement(self.placement)
            .shard_cache(self.shard_cache)
            .scheduler(self.sched)
            .seed(self.seed)
            .execution(ExecutionMode::Sequential)
            .trace_mode(TraceMode::Counters)
            .ledger_mode(LedgerMode::Counters)
            .record_mode(RecordMode::Counters);
        if let Some(p) = self.protection {
            s = s
                .deadline(p.deadline)
                .retry(p.retry)
                .hedge_after(p.hedge)
                .faults(p.faults);
        }
        s
    }

    /// Placement, per-shard layouts, object stores and devices, built as
    /// `Scenario::run` builds them with its default device knobs;
    /// `wrap` gets each shard's freshly built scheduler.
    pub fn devices(
        &self,
        wrap: impl Fn(Box<dyn GroupScheduler>) -> Box<dyn GroupScheduler>,
    ) -> (Vec<CsdDevice<Arc<Segment>>>, Replicas) {
        let tenant_objects: Vec<Vec<ObjectId>> = self
            .tenants
            .iter()
            .enumerate()
            .map(|(tenant, w)| {
                (0..w.dataset.catalog.len())
                    .flat_map(|t| {
                        (0..w.dataset.catalog.table(t).segment_count)
                            .map(move |s| ObjectId::new(tenant as u16, t as u16, s))
                    })
                    .collect()
            })
            .collect();
        let replicas_of = self.placement.assign_replicas(&tenant_objects, self.shards);
        let devices = (0..self.shards)
            .map(|shard| {
                let shard_objects: Vec<Vec<ObjectId>> = tenant_objects
                    .iter()
                    .map(|objs| {
                        objs.iter()
                            .filter(|o| replicas_of[o].contains(&shard))
                            .copied()
                            .collect()
                    })
                    .collect();
                let layout = Layout::build(LayoutPolicy::OneClientPerGroup, &shard_objects);
                let mut store: ObjectStore<Arc<Segment>> = ObjectStore::new();
                for (tenant, w) in self.tenants.iter().enumerate() {
                    for &id in &shard_objects[tenant] {
                        let table = id.table as usize;
                        store.put_with_layout(
                            id,
                            w.dataset.catalog.table(table).logical_bytes_per_segment,
                            &layout,
                            Arc::clone(&w.dataset.segments[table][id.segment as usize]),
                        );
                    }
                }
                CsdDevice::new(
                    CsdConfig {
                        switch_latency: SimDuration::from_secs(10),
                        bandwidth_bytes_per_sec: 110.0 * 1024.0 * 1024.0,
                        initial_load_free: true,
                        parallel_streams: 1,
                        stream_model: StreamModel::Pipeline,
                        trace_mode: TraceMode::Counters,
                        ledger_mode: LedgerMode::Counters,
                    },
                    store,
                    wrap(self.sched.build()),
                    IntraGroupOrder::SemanticRoundRobin,
                )
            })
            .collect();
        (devices, replicas_of)
    }

    /// The rest of `Scenario::run` for a workload without protection:
    /// fleet, clients and the runtime, run to completion.
    pub fn run_assembled(
        self,
        devices: Vec<CsdDevice<Arc<Segment>>>,
        replicas_of: Replicas,
    ) -> RunResult {
        assert!(
            self.protection.is_none() && self.placement.replicas() == 1,
            "protection and replication need Scenario::run"
        );
        let shard_of = replicas_of.iter().map(|(&o, r)| (o, r[0])).collect();
        let mut fleet = DeviceFleet::new(devices, shard_of);
        if self.shard_cache.enabled() {
            for shard in 0..self.shards {
                fleet.set_cache(shard, self.shard_cache);
            }
        }
        let clients = self
            .tenants
            .into_iter()
            .enumerate()
            .map(|(tenant, w)| {
                let releases = w.release_times(tenant);
                let plan = w
                    .queries
                    .into_iter()
                    .zip(releases)
                    .map(|(spec, release)| PlannedQuery { spec, release })
                    .collect();
                let mut client = ClientState::new(w.dataset, w.engine, plan);
                client.slo = w.slo;
                client.ideal = w.ideal;
                client
            })
            .collect();
        Runtime::new(fleet, clients, CostModel::paper_calibrated())
            .with_record_mode(RecordMode::Counters)
            .run()
    }
}
