//! The scenario facade: fluent experiment description + assembly.
//!
//! [`Scenario`] keeps the seed repository's one-stop builder API
//! (global engine kind, shared queries, device knobs) and adds the
//! multi-tenant workload path: [`Scenario::tenants`] accepts explicit
//! [`Workload`]s so one run can mix Skipper and Vanilla tenants, each
//! with its own cache configuration and arrival process. `run()`
//! assembles the layers — sharding datasets across the device fleet,
//! placing each shard's objects into disk groups, choosing schedulers,
//! planning arrivals — and hands off to [`Runtime`].
//!
//! The device layer scales out through [`Scenario::shards`] /
//! [`Scenario::placement`]: N independently configured CSD shards
//! behind one scenario, with optional per-shard overrides
//! ([`Scenario::shard_scheduler`], [`Scenario::shard_bandwidth`],
//! [`Scenario::shard_switch_latency`]). The default single shard
//! reproduces the seed's exact microsecond-level outputs.

use std::collections::BTreeMap;
use std::sync::Arc;

use skipper_cost::FleetPricing;
use skipper_csd::cache::CacheConfig;
use skipper_csd::{
    CsdConfig, CsdDevice, IntraGroupOrder, Layout, LayoutPolicy, LedgerMode, ObjectId, ObjectStore,
    PlacementPolicy, PowerModel, SchedPolicy, StreamModel,
};
use skipper_datagen::Dataset;
use skipper_relational::query::QuerySpec;
use skipper_relational::segment::Segment;
use skipper_sim::{SimDuration, TraceMode};

use crate::cache::EvictionPolicy;
use crate::config::CostModel;

use super::client::{ClientState, PlannedQuery};
use super::collector::{RecordMode, RunResult};
use super::driver::{ExecutionMode, Runtime};
use super::engines::{factory_for, EngineKind};
use super::fault::{self, FaultPlan};
use super::fleet::DeviceFleet;
use super::protect::{AdmissionPolicy, ClientProtection, RetryPolicy};
use super::workload::Workload;

/// Per-shard deviations from the scenario-wide device knobs.
#[derive(Clone, Copy, Debug, Default)]
struct ShardOverride {
    sched: Option<SchedPolicy>,
    bandwidth: Option<f64>,
    switch_latency: Option<SimDuration>,
    streams: Option<u32>,
    cache: Option<CacheConfig>,
}

/// A complete experiment description; build with the fluent setters and
/// [`Scenario::run`].
pub struct Scenario {
    base: Arc<Dataset>,
    n_clients: usize,
    shared_queries: Vec<QuerySpec>,
    custom_clients: Option<Vec<(Arc<Dataset>, Vec<QuerySpec>)>>,
    tenants: Option<Vec<Workload>>,
    engine: EngineKind,
    sched: Option<SchedPolicy>,
    intra: IntraGroupOrder,
    layout: LayoutPolicy,
    switch_latency: SimDuration,
    bandwidth: f64,
    cache_bytes: u64,
    eviction: EvictionPolicy,
    cost: CostModel,
    prune_empty: bool,
    parallel_streams: u32,
    stream_model: StreamModel,
    stagger: SimDuration,
    shards: usize,
    placement: PlacementPolicy,
    shard_overrides: BTreeMap<usize, ShardOverride>,
    trace_mode: TraceMode,
    ledger_mode: LedgerMode,
    record_mode: RecordMode,
    slo: Option<SimDuration>,
    faults: FaultPlan,
    shard_cache: CacheConfig,
    power: PowerModel,
    pricing: FleetPricing,
    seed: u64,
    deadline: Option<SimDuration>,
    retry: RetryPolicy,
    hedge: Option<SimDuration>,
    admission: Option<AdmissionPolicy>,
}

impl Scenario {
    /// Starts a scenario over a shared dataset with paper-default knobs:
    /// one client, Skipper engine, rank-based scheduling, semantic
    /// intra-group ordering, one-group-per-client layout, 10 s switches,
    /// ~110 MB/s transfers, 30 GiB cache, maximal-progress eviction.
    pub fn new(dataset: Dataset) -> Self {
        Self::with_base(Arc::new(dataset))
    }

    fn with_base(base: Arc<Dataset>) -> Self {
        Scenario {
            base,
            n_clients: 1,
            shared_queries: Vec::new(),
            custom_clients: None,
            tenants: None,
            engine: EngineKind::Skipper,
            sched: None,
            intra: IntraGroupOrder::SemanticRoundRobin,
            layout: LayoutPolicy::OneClientPerGroup,
            switch_latency: SimDuration::from_secs(10),
            bandwidth: 110.0 * 1024.0 * 1024.0,
            cache_bytes: 30 << 30,
            eviction: EvictionPolicy::MaximalProgress,
            cost: CostModel::paper_calibrated(),
            prune_empty: false,
            parallel_streams: 1,
            stream_model: StreamModel::Pipeline,
            stagger: SimDuration::ZERO,
            shards: 1,
            placement: PlacementPolicy::RoundRobin,
            shard_overrides: BTreeMap::new(),
            trace_mode: TraceMode::Full,
            ledger_mode: LedgerMode::Full,
            record_mode: RecordMode::Full,
            slo: None,
            faults: FaultPlan::new(),
            shard_cache: CacheConfig::disabled(),
            power: PowerModel::default(),
            pricing: FleetPricing::default(),
            seed: 42,
            deadline: None,
            retry: RetryPolicy::None,
            hedge: None,
            admission: None,
        }
    }

    /// A scenario built directly from per-tenant [`Workload`]s (the
    /// multi-tenant runtime path; engine and arrival process are per
    /// workload). Device knobs keep their paper defaults and remain
    /// settable.
    pub fn from_workloads(tenants: Vec<Workload>) -> Self {
        assert!(!tenants.is_empty(), "at least one workload");
        let mut s = Scenario::with_base(Arc::clone(&tenants[0].dataset));
        s.tenants = Some(tenants);
        s
    }

    /// Number of identical clients (each gets its own copy of the
    /// dataset on the device, like the paper's per-VM databases).
    pub fn clients(mut self, n: usize) -> Self {
        assert!(n > 0, "at least one client");
        self.n_clients = n;
        self
    }

    /// Every client runs `query` `times` times, back to back.
    pub fn repeat_query(mut self, query: QuerySpec, times: usize) -> Self {
        self.shared_queries = std::iter::repeat_with(|| query.clone())
            .take(times)
            .collect();
        self
    }

    /// Every client runs this query sequence.
    pub fn queries(mut self, queries: Vec<QuerySpec>) -> Self {
        self.shared_queries = queries;
        self
    }

    /// Heterogeneous tenants: explicit `(dataset, query sequence)` per
    /// client (the Figure 8 mixed workload), all running the global
    /// engine. Overrides [`Scenario::clients`]/[`Scenario::queries`];
    /// for per-tenant engines use [`Scenario::tenants`].
    pub fn custom_clients(mut self, clients: Vec<(Arc<Dataset>, Vec<QuerySpec>)>) -> Self {
        assert!(!clients.is_empty());
        self.custom_clients = Some(clients);
        self
    }

    /// Fully heterogeneous tenants, each with its own dataset, queries,
    /// engine factory, and arrival process. Overrides every other
    /// client-construction setter.
    pub fn tenants(mut self, tenants: Vec<Workload>) -> Self {
        assert!(!tenants.is_empty());
        self.tenants = Some(tenants);
        self
    }

    /// Execution engine for clients built via the legacy setters
    /// (ignored by [`Scenario::tenants`] workloads, which carry their
    /// own factories).
    pub fn engine(mut self, kind: EngineKind) -> Self {
        self.engine = kind;
        self
    }

    /// CSD group-switch scheduling policy. When not set, the device
    /// defaults to the fleet-appropriate policy: all-vanilla fleets get
    /// the stock CSD's object-FCFS (§4.4), any Skipper tenant deploys
    /// the rank-based query-aware scheduler.
    pub fn scheduler(mut self, p: SchedPolicy) -> Self {
        self.sched = Some(p);
        self
    }

    /// Intra-group request ordering.
    pub fn intra_order(mut self, o: IntraGroupOrder) -> Self {
        self.intra = o;
        self
    }

    /// Data placement across disk groups.
    pub fn layout(mut self, l: LayoutPolicy) -> Self {
        self.layout = l;
        self
    }

    /// Group-switch latency `S`.
    pub fn switch_latency(mut self, s: SimDuration) -> Self {
        self.switch_latency = s;
        self
    }

    /// Object streaming bandwidth in bytes/s (≤ 0 ⇒ free transfers).
    pub fn bandwidth(mut self, bytes_per_sec: f64) -> Self {
        self.bandwidth = bytes_per_sec;
        self
    }

    /// MJoin buffer-cache capacity in bytes (legacy global engine only).
    pub fn cache_bytes(mut self, bytes: u64) -> Self {
        self.cache_bytes = bytes;
        self
    }

    /// MJoin cache-eviction policy (legacy global engine only).
    pub fn eviction(mut self, p: EvictionPolicy) -> Self {
        self.eviction = p;
        self
    }

    /// Shard-cache tiers installed on every shard: DRAM/SSD capacities,
    /// bandwidths, and the promotion/demotion policy. Distinct from
    /// [`Scenario::cache_bytes`] (the legacy MJoin engine buffer): this
    /// cache fronts the *device*, completing hot GETs at tier bandwidth
    /// without a queue or a group switch. A disabled config (the
    /// default) runs the uncached machine byte-exactly.
    pub fn shard_cache(mut self, config: CacheConfig) -> Self {
        self.shard_cache = config;
        self
    }

    /// Convenience: a DRAM-only shard cache of `bytes` per shard under
    /// LRU at the default DRAM bandwidth. `cache_size(0)` collapses to
    /// the uncached machine byte-exactly.
    pub fn cache_size(mut self, bytes: u64) -> Self {
        self.shard_cache = CacheConfig::dram_only(bytes);
        self
    }

    /// Overrides one shard's cache config (heterogeneous fleets).
    pub fn shard_cache_config(mut self, shard: usize, config: CacheConfig) -> Self {
        self.shard_overrides.entry(shard).or_default().cache = Some(config);
        self
    }

    /// MAID electrical model for the end-of-run energy report.
    pub fn power_model(mut self, model: PowerModel) -> Self {
        self.power = model;
        self
    }

    /// $/GB and $/kWh inputs for the end-of-run cost report.
    pub fn pricing(mut self, pricing: FleetPricing) -> Self {
        self.pricing = pricing;
        self
    }

    /// CPU cost model.
    pub fn cost(mut self, c: CostModel) -> Self {
        self.cost = c;
        self
    }

    /// Enables the §5.2.4 subplan-pruning optimization (legacy global
    /// engine only).
    pub fn prune_empty_objects(mut self, on: bool) -> Self {
        self.prune_empty = on;
        self
    }

    /// Concurrent transfer streams while a group is loaded (default 1,
    /// the paper's serializing middleware; > 1 opens that many service
    /// pipeline slots per device — the §5.2.1 "parallelize servicing
    /// within a group" improvement). Validated here, at build time: a
    /// zero-stream device could never serve a request, so the scenario
    /// rejects it loudly instead of letting a masked config reach the
    /// device layer.
    pub fn streams(mut self, n: u32) -> Self {
        assert!(
            n >= 1,
            "Scenario::streams needs at least 1 transfer stream (got 0): \
             use streams(1) for the paper's serialized middleware"
        );
        self.parallel_streams = n;
        self
    }

    /// How streams > 1 are modelled (default: the true service
    /// pipeline; [`StreamModel::BandwidthMultiplier`] is the historical
    /// compat model kept for A/B comparison in the bench).
    pub fn stream_model(mut self, model: StreamModel) -> Self {
        self.stream_model = model;
        self
    }

    /// Span-log regime of the fleet's activity traces (default:
    /// [`TraceMode::Full`] — every span kept, stall attribution and
    /// timelines exact). [`TraceMode::Counters`] bounds memory for very
    /// large runs: devices keep only per-activity totals, span lists in
    /// the [`ShardResult`](super::collector::ShardResult)s come back
    /// empty, and blocked time attributes as idle.
    pub fn trace_mode(mut self, mode: TraceMode) -> Self {
        self.trace_mode = mode;
        self
    }

    /// Delivery-ledger regime (default: [`LedgerMode::Full`] — every
    /// completed transfer recorded). [`LedgerMode::Counters`] keeps the
    /// [`DeviceMetrics`](skipper_csd::metrics::DeviceMetrics) counters
    /// but leaves the per-shard delivery ledgers empty (bounded memory;
    /// the work-conservation multiset checks need `Full`).
    pub fn ledger_mode(mut self, mode: LedgerMode) -> Self {
        self.ledger_mode = mode;
        self
    }

    /// Per-query record retention (default: [`RecordMode::Full`]).
    /// [`RecordMode::Counters`] drops records as queries finish —
    /// [`RunResult::clients`] comes back empty — while the streaming
    /// [`LatencySummary`](super::collector::LatencySummary) stays fully
    /// populated, so tail latency remains observable on runs too large
    /// to hold per-query records (pair with [`Scenario::trace_mode`] /
    /// [`Scenario::ledger_mode`] `Counters` for a fully bounded drive).
    pub fn record_mode(mut self, mode: RecordMode) -> Self {
        self.record_mode = mode;
        self
    }

    /// Scenario-wide response-time SLO target: applied to every tenant
    /// that does not declare its own
    /// ([`Workload::slo_target`](super::workload::Workload::slo_target)
    /// wins). Feeds the per-tenant attainment counters of the run's
    /// latency summary.
    pub fn slo_target(mut self, target: SimDuration) -> Self {
        self.slo = Some(target);
        self
    }

    /// Root seed for the protection plane's per-client
    /// `"retry/{client}"` backoff-jitter streams (default 42; workload
    /// arrival processes keep their own per-tenant seeds).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Scenario-wide response-time deadline: a query that cannot finish
    /// within it (measured from release, queue wait included) is
    /// cancelled and counted as a miss. Per-workload
    /// [`Workload::deadline`](super::workload::Workload::deadline)
    /// wins; tenants without either knob are never cancelled.
    pub fn deadline(mut self, d: SimDuration) -> Self {
        self.deadline = Some(d);
        self
    }

    /// Scenario-wide retry policy for deadline-cancelled queries and
    /// requests with no live replica (default [`RetryPolicy::None`]:
    /// cancelled queries drop, unroutable requests park until
    /// recovery — the historical behavior byte-exactly). A workload's
    /// own enabled policy wins.
    pub fn retry(mut self, policy: RetryPolicy) -> Self {
        self.retry = policy;
        self
    }

    /// Scenario-wide hedge delay under replicated placement: reads
    /// still undelivered this long after submission are re-issued to
    /// the next live replica; first completion wins. Per-workload
    /// [`Workload::hedge_after`](super::workload::Workload::hedge_after)
    /// wins.
    pub fn hedge_after(mut self, delay: SimDuration) -> Self {
        self.hedge = Some(delay);
        self
    }

    /// Installs fleet-seam admission control (default: none — every
    /// arrival admitted, byte-identical to before the protection plane
    /// existed): per-shard backlog ceilings that shed or defer the
    /// lowest-priority arrivals, plus the optional per-shard breaker.
    pub fn admission(mut self, policy: AdmissionPolicy) -> Self {
        self.admission = Some(policy);
        self
    }

    /// Execution mode of the event loop. [`ExecutionMode`] has one
    /// variant, so this setter selects nothing; it stays only while the
    /// repository benchmark still calls it.
    pub fn execution(self, _mode: ExecutionMode) -> Self {
        self
    }

    /// Staggers client start times: client `i` submits its first query at
    /// `i × delay` (default: everyone at t = 0). This is the arrival-gap
    /// setup of the §4.4 `K` derivation, where query sets arrive `s`
    /// switches apart.
    pub fn stagger(mut self, delay: SimDuration) -> Self {
        self.stagger = delay;
        self
    }

    /// Number of CSD shards behind the scenario (default 1: the paper's
    /// single device, reproduced exactly). Each shard is a fully
    /// independent device — own disk groups, scheduler, bandwidth, and
    /// switch state — and the [`Scenario::placement`] policy decides
    /// which shard stores each object.
    pub fn shards(mut self, n: usize) -> Self {
        assert!(n > 0, "a fleet needs at least one shard");
        self.shards = n;
        self
    }

    /// Object → shard placement policy (default round-robin; irrelevant
    /// with one shard). `PlacementPolicy::Replicated` stores every
    /// object on `k` consecutive shards and serves each request from
    /// the first live replica (see the fault plane,
    /// [`Scenario::faults`]).
    pub fn placement(mut self, p: PlacementPolicy) -> Self {
        self.placement = p;
        self
    }

    /// Installs the deterministic fault plan (default: empty — no
    /// faults, every run byte-identical to before the fault plane
    /// existed). The plan expands at assembly time into timestamped
    /// episodes — seeded stochastic streams and all — and the driver
    /// schedules each as a first-class calendar event. Note that
    /// recovery events keep the simulation alive: a plan whose
    /// episodes outlast the natural drain extends the makespan.
    pub fn faults(mut self, plan: FaultPlan) -> Self {
        self.faults = plan;
        self
    }

    /// Overrides the scheduling policy on one shard (heterogeneous
    /// fleets: e.g. a stock FCFS shard next to rank-based shards).
    pub fn shard_scheduler(mut self, shard: usize, p: SchedPolicy) -> Self {
        self.shard_overrides.entry(shard).or_default().sched = Some(p);
        self
    }

    /// Overrides the streaming bandwidth of one shard (bytes/s).
    pub fn shard_bandwidth(mut self, shard: usize, bytes_per_sec: f64) -> Self {
        self.shard_overrides.entry(shard).or_default().bandwidth = Some(bytes_per_sec);
        self
    }

    /// Overrides the group-switch latency of one shard.
    pub fn shard_switch_latency(mut self, shard: usize, s: SimDuration) -> Self {
        self.shard_overrides
            .entry(shard)
            .or_default()
            .switch_latency = Some(s);
        self
    }

    /// Overrides the transfer stream count of one shard (heterogeneous
    /// fleets: e.g. one upgraded multi-stream shard next to serialized
    /// ones). Validated like [`Scenario::streams`].
    pub fn shard_streams(mut self, shard: usize, n: u32) -> Self {
        assert!(
            n >= 1,
            "Scenario::shard_streams needs at least 1 transfer stream (got 0 for shard {shard})"
        );
        self.shard_overrides.entry(shard).or_default().streams = Some(n);
        self
    }

    /// Resolves the tenant list: explicit workloads win, then custom
    /// clients, then `n_clients` copies of the shared sequence — legacy
    /// paths materialize the global engine kind into per-tenant
    /// factories.
    fn resolve_workloads(&mut self) -> Vec<Workload> {
        if let Some(tenants) = self.tenants.take() {
            return tenants;
        }
        let factory = factory_for(
            self.engine,
            self.cache_bytes,
            self.eviction,
            self.prune_empty,
        );
        let clients: Vec<(Arc<Dataset>, Vec<QuerySpec>)> = match self.custom_clients.take() {
            Some(c) => c,
            None => (0..self.n_clients)
                .map(|_| (Arc::clone(&self.base), self.shared_queries.clone()))
                .collect(),
        };
        clients
            .into_iter()
            .enumerate()
            .map(|(i, (dataset, queries))| {
                Workload::new(dataset)
                    .queries(queries)
                    .engine_arc(Arc::clone(&factory))
                    .start_at(self.stagger * i as u64)
            })
            .collect()
    }

    /// Executes the scenario to completion, returning all measurements.
    pub fn run(mut self) -> RunResult {
        let workloads = self.resolve_workloads();
        assert!(
            workloads.iter().all(|w| !w.queries.is_empty()),
            "every tenant needs at least one query"
        );
        assert!(
            self.shard_overrides.keys().all(|&s| s < self.shards),
            "shard override index outside the fleet (shards = {})",
            self.shards
        );

        // Shard every tenant's dataset across the fleet at layout time,
        // then build each shard's group layout over the objects it owns.
        let tenant_objects: Vec<Vec<ObjectId>> = workloads
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
        // Replica lists per object, preferred shard first (length 1 for
        // plain placements, `k` under `PlacementPolicy::Replicated`):
        // each shard stores every object whose list contains it.
        let replicas_of = self.placement.assign_replicas(&tenant_objects, self.shards);

        // Fleet-appropriate default scheduler: stock CSDs run
        // object-FCFS; one Skipper tenant is enough to deploy the
        // query-aware rank scheduler on every shared device.
        let sched = self.sched.unwrap_or_else(|| {
            if workloads
                .iter()
                .all(|w| w.engine.preferred_scheduler() == SchedPolicy::FcfsObject)
            {
                SchedPolicy::FcfsObject
            } else {
                SchedPolicy::RankBased
            }
        });

        let devices: Vec<CsdDevice<Arc<Segment>>> = (0..self.shards)
            .map(|shard| {
                // This shard's slice of every tenant's storage order.
                let shard_tenant_objects: Vec<Vec<ObjectId>> = tenant_objects
                    .iter()
                    .map(|objs| {
                        objs.iter()
                            .filter(|o| replicas_of[o].contains(&shard))
                            .copied()
                            .collect()
                    })
                    .collect();
                let layout = Layout::build(self.layout, &shard_tenant_objects);
                let mut store: ObjectStore<Arc<Segment>> = ObjectStore::new();
                for (tenant, w) in workloads.iter().enumerate() {
                    for &id in &shard_tenant_objects[tenant] {
                        let table = id.table as usize;
                        store.put_with_layout(
                            id,
                            w.dataset.catalog.table(table).logical_bytes_per_segment,
                            &layout,
                            Arc::clone(&w.dataset.segments[table][id.segment as usize]),
                        );
                    }
                }
                let ov = self
                    .shard_overrides
                    .get(&shard)
                    .copied()
                    .unwrap_or_default();
                CsdDevice::new(
                    CsdConfig {
                        switch_latency: ov.switch_latency.unwrap_or(self.switch_latency),
                        bandwidth_bytes_per_sec: ov.bandwidth.unwrap_or(self.bandwidth),
                        initial_load_free: true,
                        parallel_streams: ov.streams.unwrap_or(self.parallel_streams),
                        stream_model: self.stream_model,
                        trace_mode: self.trace_mode,
                        ledger_mode: self.ledger_mode,
                    },
                    store,
                    ov.sched.unwrap_or(sched).build(),
                    self.intra,
                )
            })
            .collect();

        // Per-client protection knobs, resolved like SLO targets:
        // workload-level settings win over scenario-wide defaults.
        let protection: Vec<ClientProtection> = workloads
            .iter()
            .map(|w| ClientProtection {
                deadline: w.deadline.or(self.deadline),
                retry: if w.retry.enabled() {
                    w.retry
                } else {
                    self.retry
                },
                hedge: w.hedge.or(self.hedge),
                priority: w.priority,
            })
            .collect();

        let clients = workloads
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
                client.slo = w.slo.or(self.slo);
                client.ideal = w.ideal;
                client
            })
            .collect();
        // Single-replica placements keep the historical primary-map
        // fleet path (byte-identical to before replication existed);
        // replicated placements carry the full lists for failover.
        let mut fleet = if self.placement.replicas() == 1 {
            let shard_of = replicas_of.iter().map(|(&o, r)| (o, r[0])).collect();
            DeviceFleet::new(devices, shard_of)
        } else {
            DeviceFleet::with_replicas(devices, replicas_of)
        };

        // Expand the fault plan (stochastic streams and all) into
        // timestamped episodes, install drop-wakeup injections on
        // their pumps, and hand the timed crash/brown-out actions to
        // the driver as calendar events.
        let episodes = self.faults.expand(self.shards);
        for (shard, nth, redeliver_after) in fault::drop_plans(&episodes) {
            fleet.plan_drop(shard, nth, redeliver_after);
        }

        // Install the shard-cache tiers (a disabled config installs
        // nothing, keeping the uncached machine byte-exact).
        for shard in 0..self.shards {
            let cfg = self
                .shard_overrides
                .get(&shard)
                .and_then(|o| o.cache)
                .unwrap_or(self.shard_cache);
            if cfg.enabled() {
                fleet.set_cache(shard, cfg);
            }
        }

        Runtime::new(fleet, clients, self.cost)
            .with_record_mode(self.record_mode)
            .with_faults(fault::timed_actions(&episodes))
            .with_economics(self.power, self.pricing)
            .with_protection(protection, self.admission, self.seed)
            .run()
    }
}
