//! The driver layer: the discrete-event loop wiring clients to the
//! device fleet.
//!
//! The [`Runtime`] owns the assembled parts — a [`DeviceFleet`], the
//! per-tenant [`ClientState`]s, and the event queue — and advances
//! virtual time until every tenant has drained its plan. It reproduces
//! the paper's testbed loop exactly: deliveries wake clients, charged
//! processing blocks them, follow-up GETs go back to the owning shard,
//! and every transition is timestamped for the collector.
//!
//! Multi-shard wake-ups interleave deterministically: each shard keeps
//! its own armed-wake-up protocol, the event queue breaks simultaneous
//! events by insertion order, and shards are always poked in shard
//! order — so a fleet run is exactly reproducible, and a 1-shard fleet
//! replays the single-device event schedule unchanged.
//!
//! The hot loop is engineered for million-request runs: the future
//! event list is the O(1)-amortized [`CalendarQueue`] (pop order
//! identical to the reference `EventQueue` — pinned by the differential
//! sweep in `skipper-sim`), and delivery batches flow through one
//! reusable scratch buffer (`DeviceFleet::on_wakeup_into`), so the
//! steady state of the loop allocates nothing per event.

use std::sync::Arc;

use skipper_cost::FleetPricing;
use skipper_csd::cache::CacheStats;
use skipper_csd::metrics::DeviceMetrics;
use skipper_csd::{Delivery, ObjectId, PowerModel, QueryId};
use skipper_relational::segment::Segment;
use skipper_sim::rng::derive_seed;
use skipper_sim::trace::Span;
use skipper_sim::{CalendarQueue, MergedTimeline, SimDuration, SimTime};

use crate::config::CostModel;

use super::client::{ClientState, PlannedQuery};
use super::collector::{
    attribute_stalls_merged, AvailabilitySummary, LatencyAccumulator, QueryTotals, RecordMode,
    RunResult, ShardResult,
};
use super::fault::{FaultAction, TimedFault};
use super::fleet::DeviceFleet;
use super::protect::{AdmissionPolicy, AdmissionResponse, ClientProtection, ProtectionSummary};

/// Event payloads of the runtime loop.
#[derive(Clone, Copy, Debug)]
enum Event {
    /// Shard `s` finishes its in-flight operation.
    Device(usize),
    /// Client `c` finishes its charged processing.
    ClientReady(usize),
    /// The arrival process releases client `c`'s next query.
    Release(usize),
    /// The fault plan's `i`-th timed action fires.
    Fault(usize),
    /// Client `c`'s query seq `q` hits its response deadline.
    Deadline(usize, u32),
    /// The `i`-th hedge entry fires: re-issue still-undelivered
    /// objects to the next live replica.
    Hedge(usize),
    /// The `i`-th retry entry fires: re-submit one unroutable object.
    Retry(usize),
}

/// A scheduled re-submission of one object that found no live replica.
#[derive(Clone, Copy)]
struct RetryEntry {
    client: usize,
    query: QueryId,
    object: ObjectId,
    attempt: u32,
}

/// A scheduled hedge check covering one submitted batch: the range
/// `start..end` indexes the client's `HedgeState::requested` log.
#[derive(Clone, Copy)]
struct HedgeEntry {
    client: usize,
    qseq: u32,
    start: usize,
    end: usize,
}

/// Per-client hedging ledger for the current query. Cleared on finish
/// and cancel; empty for tenants without a hedge delay.
#[derive(Clone, Default)]
struct HedgeState {
    /// Every object submitted for the current query, in submit order.
    requested: Vec<ObjectId>,
    /// Objects already consumed (first copy delivered); later copies
    /// are hedge losers and are discarded.
    consumed: Vec<ObjectId>,
    /// Objects with a hedge duplicate in flight, and the shard it was
    /// sent to (to tell hedge wins from primary wins).
    hedged: Vec<(ObjectId, usize)>,
}

/// How the event loop executes a run.
///
/// The single-thread discrete-event loop is the only semantics, so
/// this enum has one variant and nothing left to select. It survives,
/// with the `Scenario::execution` setter, only because the repository
/// benchmark names both; they go in the next change to the benchmark.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ExecutionMode {
    /// The single-thread discrete-event loop.
    #[default]
    Sequential,
}

/// The assembled multi-tenant runtime; consumed by [`Runtime::run`].
pub struct Runtime {
    fleet: DeviceFleet,
    clients: Vec<ClientState>,
    events: CalendarQueue<Event>,
    cost: CostModel,
    /// Reusable delivery scratch for multi-stream wake-up batches.
    scratch: Vec<Delivery<Arc<Segment>>>,
    /// Streaming tail-latency sketches, fed in completion order.
    latency: LatencyAccumulator,
    /// Streaming GETs and execution-time sum of finished queries.
    totals: QueryTotals,
    /// Whether finished records are retained for the result.
    record_mode: RecordMode,
    /// The expanded fault schedule, in firing order (empty without a
    /// fault plan). Every action becomes a calendar event up front.
    faults: Vec<TimedFault>,
    /// MAID electrical model for the end-of-run energy estimate.
    power: PowerModel,
    /// $/GB and $/kWh inputs for the end-of-run cost report.
    pricing: FleetPricing,
    /// Per-client protection knobs (deadline, retry, hedge, priority);
    /// one entry per client, all-disabled by default.
    protection: Vec<ClientProtection>,
    /// Fleet-seam admission policy, if any.
    admission: Option<AdmissionPolicy>,
    /// Protection-plane counters for the run result.
    protection_summary: ProtectionSummary,
    /// Per-client seeded SplitMix streams for retry backoff jitter.
    retry_rng: Vec<u64>,
    /// Deadline-retry attempts already spent on the current query.
    query_attempts: Vec<u32>,
    /// Scheduled unroutable-object retries, indexed by `Event::Retry`.
    retries: Vec<RetryEntry>,
    /// Scheduled hedge checks, indexed by `Event::Hedge`.
    hedges: Vec<HedgeEntry>,
    /// Per-client hedging ledgers (empty vectors when unused).
    hedge_state: Vec<HedgeState>,
    /// True when any client hedges: gates the per-delivery ledger work.
    any_hedge: bool,
    /// Whether consumed deliveries are logged (hedged full-record runs).
    log_consumed: bool,
    /// At-most-once consumption log (see `RunResult::consumed`).
    consumed_log: Vec<(usize, QueryId, ObjectId)>,
    /// Reusable buffer for draining the fleet's unroutable requests.
    unroutable_scratch: Vec<(usize, QueryId, ObjectId)>,
    /// Instant of the last event that did anything. Protection events
    /// for queries that already completed pop as stale no-ops and must
    /// not stretch the makespan (a met deadline leaves its far-future
    /// event behind); every other event advances this unconditionally,
    /// so without protection it equals the historical `events.now()`.
    last_activity: SimTime,
}

impl Runtime {
    /// Wires the parts together.
    pub fn new(fleet: DeviceFleet, clients: Vec<ClientState>, cost: CostModel) -> Self {
        let targets: Vec<_> = clients.iter().map(|c| (c.slo, c.ideal)).collect();
        let n = clients.len();
        Runtime {
            fleet,
            clients,
            events: CalendarQueue::new(),
            cost,
            scratch: Vec::new(),
            latency: LatencyAccumulator::new(&targets),
            totals: QueryTotals::default(),
            record_mode: RecordMode::default(),
            faults: Vec::new(),
            power: PowerModel::default(),
            pricing: FleetPricing::default(),
            protection: vec![ClientProtection::default(); n],
            admission: None,
            protection_summary: ProtectionSummary::sized(n),
            retry_rng: vec![0; n],
            query_attempts: vec![0; n],
            retries: Vec::new(),
            hedges: Vec::new(),
            hedge_state: vec![HedgeState::default(); n],
            any_hedge: false,
            log_consumed: false,
            consumed_log: Vec::new(),
            unroutable_scratch: Vec::new(),
            last_activity: SimTime::ZERO,
        }
    }

    /// Installs the electrical model and pricing inputs used for the
    /// end-of-run energy/cost report (builder style; defaults are the
    /// paper's Pelican-style array and Table 1 prices).
    pub fn with_economics(mut self, power: PowerModel, pricing: FleetPricing) -> Self {
        self.power = power;
        self.pricing = pricing;
        self
    }

    /// Installs the expanded fault schedule (builder style; assembly
    /// passes the `FaultPlan`'s timed actions here).
    pub(crate) fn with_faults(mut self, faults: Vec<TimedFault>) -> Self {
        self.faults = faults;
        self
    }

    /// Selects whether per-query records are retained (builder style).
    pub fn with_record_mode(mut self, mode: RecordMode) -> Self {
        self.record_mode = mode;
        self
    }

    /// Installs the protection plane (builder style): per-client knobs,
    /// the optional admission policy, and the root seed the per-client
    /// `"retry/{c}"` backoff streams derive from. With all knobs
    /// disabled this is a no-op and the run is byte-identical to one
    /// that never called it.
    pub(crate) fn with_protection(
        mut self,
        per_client: Vec<ClientProtection>,
        admission: Option<AdmissionPolicy>,
        seed: u64,
    ) -> Self {
        assert_eq!(
            per_client.len(),
            self.clients.len(),
            "one protection entry per client"
        );
        self.any_hedge = per_client.iter().any(|p| p.hedge.is_some());
        let retry_flags: Vec<bool> = per_client.iter().map(|p| p.retry.enabled()).collect();
        if retry_flags.iter().any(|&f| f) {
            self.retry_rng = (0..per_client.len())
                .map(|c| derive_seed(seed, &format!("retry/{c}")))
                .collect();
            self.fleet.set_retry_clients(retry_flags);
        }
        for (c, p) in per_client.iter().enumerate() {
            // A deadline-cancelled query can only be re-planned if its
            // spec survives the cancel.
            self.clients[c].keep_spec = p.deadline.is_some() && p.retry.enabled();
        }
        if let Some(b) = admission.and_then(|a| a.breaker) {
            self.fleet.set_breaker(b);
        }
        self.admission = admission;
        self.protection = per_client;
        self
    }

    /// Executes to completion, returning all measurements.
    ///
    /// # Panics
    /// Panics if any client fails to drain its plan (a simulation
    /// deadlock — always a harness bug).
    pub fn run(mut self) -> RunResult {
        let now = SimTime::ZERO;
        // Scheduled releases (staggered starts, Poisson arrivals) are
        // armed as events, in client order for deterministic ties;
        // closed-loop queries with no release instant start immediately.
        // Starting a client never schedules events, so arming all
        // releases first preserves the historical event order.
        self.log_consumed = self.any_hedge && self.record_mode == RecordMode::Full;
        for (c, client) in self.clients.iter().enumerate() {
            self.protection_summary.per_tenant[c].offered = client.plan.len() as u64;
        }
        // Fault actions are armed first: at equal instants a crash (or
        // recovery) applies before a release routes its query.
        for (i, f) in self.faults.iter().enumerate() {
            self.events.schedule(f.at, Event::Fault(i));
        }
        for (c, client) in self.clients.iter().enumerate() {
            for at in client.plan.iter().filter_map(|p| p.release) {
                self.events.schedule(at, Event::Release(c));
            }
        }
        for c in 0..self.clients.len() {
            self.try_start(c, now);
        }
        self.poke_fleet(now);

        while let Some((t, ev)) = self.events.pop() {
            if !matches!(ev, Event::Deadline(..) | Event::Hedge(_) | Event::Retry(_)) {
                self.last_activity = t;
            }
            match ev {
                Event::Device(shard) => {
                    // A multi-stream wake-up retires every transfer due
                    // at this instant: route the whole batch (device
                    // slot order — deterministic), then poke once.
                    // Stale superseded wake-ups leave the batch empty.
                    // The scratch buffer is taken out of `self` for the
                    // duration of the routing (route_delivery borrows
                    // clients and fleet) and put back drained, so no
                    // per-event allocation survives warm-up.
                    let mut batch = std::mem::take(&mut self.scratch);
                    batch.clear();
                    self.fleet.on_wakeup_into(shard, t, &mut batch);
                    for d in batch.drain(..) {
                        self.route_delivery(t, shard, d.client, d.query, d.object, d.payload);
                    }
                    self.scratch = batch;
                    self.poke_fleet(t);
                }
                Event::ClientReady(c) => self.client_ready(c, t),
                Event::Release(c) => {
                    self.try_start(c, t);
                    self.poke_fleet(t);
                }
                Event::Fault(i) => {
                    let fault = self.faults[i];
                    let mut batch = std::mem::take(&mut self.scratch);
                    batch.clear();
                    match fault.action {
                        FaultAction::Down => self.fleet.fail_shard(fault.shard, t, &mut batch),
                        FaultAction::Recover => self.fleet.recover_shard(fault.shard, t),
                        FaultAction::Degrade(factor) => {
                            self.fleet.set_bandwidth_factor(fault.shard, factor)
                        }
                        FaultAction::Restore => self.fleet.set_bandwidth_factor(fault.shard, 1.0),
                    }
                    // A crash flushes watchdog-parked deliveries (their
                    // transfers finished before the crash): route them
                    // like any retired batch.
                    for d in batch.drain(..) {
                        self.route_delivery(t, fault.shard, d.client, d.query, d.object, d.payload);
                    }
                    self.scratch = batch;
                    // A crash may have displaced a retry tenant's
                    // in-flight requests with no live replica left.
                    if self.fleet.has_unroutable() {
                        self.drain_unroutable(t, 1);
                    }
                    self.poke_fleet(t);
                }
                Event::Deadline(c, qseq) => self.deadline_fired(c, qseq, t),
                Event::Hedge(i) => self.hedge_fired(i, t),
                Event::Retry(i) => self.retry_fired(i, t),
            }
        }

        let makespan = self.last_activity;
        self.fleet.close_downtime(makespan);
        self.protection_summary.breaker_trips = self.fleet.breaker_trips();
        let fault_stats = self.fleet.fault_stats().to_vec();
        let availability = AvailabilitySummary::from_shards(
            &fault_stats,
            self.faults.len() as u64,
            self.fleet.parked_total(),
            makespan,
        );
        for (idx, client) in self.clients.iter().enumerate() {
            assert!(
                client.plan.is_empty() && client.engine.is_none(),
                "client {idx} did not finish its workload (simulation deadlock)"
            );
        }
        assert!(
            self.fleet.is_quiescent(),
            "fleet still has queued work after the event queue drained"
        );
        // Post-hoc stall attribution against the union of every stream
        // trace of every shard: a client blocked while *any* stream is
        // transferring anywhere in the fleet counts as a transfer stall.
        // The fleet timeline is flattened exactly once (one k-way merge
        // over all span lists) and shared by every client's records.
        let clients_out = {
            let lists: Vec<&[Span]> = self
                .fleet
                .pumps()
                .iter()
                .flat_map(|p| p.device().traces())
                .map(|tr| tr.spans())
                .collect();
            let timeline = MergedTimeline::build(&lists);
            self.clients
                .iter_mut()
                .map(|client| {
                    attribute_stalls_merged(&timeline, client.records.drain(..).collect())
                })
                .collect()
        };
        // Tier capacities and resident cold bytes feed the cost report;
        // captured before the pumps are consumed.
        let cold_bytes: u64 = self
            .fleet
            .pumps()
            .iter()
            .map(|p| p.device().store().total_logical_bytes())
            .sum();
        let (dram_bytes, ssd_bytes) =
            self.fleet
                .pumps()
                .iter()
                .fold((0u64, 0u64), |acc, p| match p.cache_config() {
                    Some(cfg) => (
                        acc.0 + cfg.dram.capacity_bytes,
                        acc.1 + cfg.ssd.capacity_bytes,
                    ),
                    None => acc,
                });
        // `run` consumed the runtime, so each shard's spans and delivery
        // ledger move into its ShardResult instead of being cloned.
        // Stream 0 is the control stream (switches + slot-0 transfers);
        // the extra streams' span lists are empty for a serial device.
        let shards: Vec<ShardResult> = self
            .fleet
            .into_pumps()
            .into_iter()
            .enumerate()
            .map(|(shard, mut pump)| {
                let cache = pump.cache_stats();
                let cache_deliveries = pump.take_cache_served_log();
                let mut dev = pump.into_device();
                let mut stream_spans = dev.take_stream_spans().into_iter();
                let spans = stream_spans.next().expect("at least one stream trace");
                ShardResult {
                    shard,
                    scheduler: dev.scheduler_name(),
                    metrics: dev.take_metrics(),
                    fault: fault_stats[shard],
                    spans,
                    extra_stream_spans: stream_spans.collect(),
                    deliveries: dev.take_served_log(),
                    cache,
                    cache_deliveries,
                }
            })
            .collect();
        let device = DeviceMetrics::rolled_up(shards.iter().map(|s| &s.metrics));
        let cache = shards.iter().fold(CacheStats::default(), |mut acc, s| {
            acc.absorb(&s.cache);
            acc
        });
        // The energy estimate sees only the cold device's activity —
        // cache hits bypass it by design, which is exactly where the
        // MAID savings come from on a cached run.
        let energy = self.power.estimate(
            makespan.since(SimTime::ZERO),
            SimDuration::from_micros(device.transfer_busy_micros),
            device.group_switches,
        );
        let latency = self.latency.finish();
        let economics = self.pricing.price_run(
            cold_bytes,
            dram_bytes,
            ssd_bytes,
            makespan.as_secs_f64(),
            energy.maid_wh,
            latency.fleet.count,
        );
        RunResult {
            clients: clients_out,
            device,
            scheduler: shards[0].scheduler,
            shards,
            makespan,
            latency,
            totals: self.totals,
            availability,
            cache,
            energy,
            economics,
            protection: self.protection_summary,
            consumed: self.consumed_log,
        }
    }

    /// Starts client `c`'s next query if its release has come and the
    /// client is idle, after the protection gates: queries whose
    /// deadline already lapsed while queued are abandoned, and
    /// admission control sheds or defers the start when a live shard
    /// is over its backlog ceiling.
    fn try_start(&mut self, c: usize, now: SimTime) {
        loop {
            if !self.clients[c].can_start(now) {
                return;
            }
            if self.protection[c].disabled() && self.admission.is_none() {
                break; // historical fast path, byte-identical
            }
            // Lazy deadline check: an open-arrival query that queued
            // past its whole deadline is a miss before it starts.
            if let Some(d) = self.protection[c].deadline {
                let expired = self.clients[c]
                    .plan
                    .front()
                    .and_then(|p| p.release)
                    .is_some_and(|r| r + d <= now);
                if expired {
                    self.clients[c].plan.pop_front();
                    self.protection_summary.deadline_misses += 1;
                    self.protection_summary.per_tenant[c].deadline_misses += 1;
                    self.query_attempts[c] = 0;
                    continue;
                }
            }
            if let Some(policy) = self.admission {
                let (depth, bytes) = self.fleet.max_live_load();
                if policy.over_limit(self.protection[c].priority, depth, bytes) {
                    match policy.response {
                        AdmissionResponse::Shed => {
                            self.clients[c].plan.pop_front();
                            self.protection_summary.sheds += 1;
                            self.protection_summary.per_tenant[c].shed += 1;
                            self.query_attempts[c] = 0;
                            continue;
                        }
                        AdmissionResponse::Backpressure(delay) => {
                            let at = now + delay;
                            self.clients[c]
                                .plan
                                .front_mut()
                                .expect("can_start saw a front query")
                                .release = Some(at);
                            self.events.schedule(at, Event::Release(c));
                            self.protection_summary.backpressure_deferrals += 1;
                            return;
                        }
                    }
                }
            }
            break;
        }
        let requests = self.clients[c].start_next(c as u16, self.cost, now);
        self.clients[c].draft.upfront_gets = requests.len() as u64;
        let qid = QueryId::new(c as u16, self.clients[c].qseq);
        if let Some(d) = self.protection[c].deadline {
            // The deadline anchors at release (queue wait counts), like
            // the SLO attainment report.
            let anchor = self.clients[c].draft.release.unwrap_or(now);
            let at = anchor + d;
            self.events.schedule(at, Event::Deadline(c, qid.seq));
        }
        self.protected_submit(now, c, qid, &requests);
    }

    /// Arms wake-ups on every shard with pending work and none armed.
    fn poke_fleet(&mut self, now: SimTime) {
        let events = &mut self.events;
        self.fleet
            .poke_all(now, |shard, at| events.schedule(at, Event::Device(shard)));
    }

    /// Routes a finished transfer to its client, dropping stale
    /// deliveries for already-completed queries (reissue races) and —
    /// for hedged tenants — duplicate copies of an already-consumed
    /// object (at-most-once consumption; the winner's cancel may have
    /// raced the loser's dispatch).
    fn route_delivery(
        &mut self,
        now: SimTime,
        shard: usize,
        c: usize,
        query: QueryId,
        object: ObjectId,
        payload: std::sync::Arc<skipper_relational::segment::Segment>,
    ) {
        if !self.clients[c].is_current(query.seq) {
            return; // stale delivery for a completed query
        }
        if self.protection[c].hedge.is_some() {
            let hs = &mut self.hedge_state[c];
            if hs.consumed.contains(&object) {
                self.protection_summary.hedge_losers_discarded += 1;
                return; // the other replica already won this object
            }
            hs.consumed.push(object);
            let hedge_shard = hs
                .hedged
                .iter()
                .find(|&&(o, _)| o == object)
                .map(|&(_, s)| s);
            if let Some(target) = hedge_shard {
                if target == shard {
                    self.protection_summary.hedge_wins += 1;
                }
                // First consumption: dequeue the loser's still-queued
                // copy wherever it sits (the winner's copy left its
                // queue at dispatch, so a fleet-wide scan is safe).
                self.protection_summary.hedge_losers_cancelled +=
                    self.fleet.cancel_object(query, object) as u64;
            }
        }
        if self.log_consumed {
            self.consumed_log.push((c, query, object));
        }
        self.clients[c].inbox.push_back((object, payload));
        self.try_process(c, now);
    }

    /// Feeds the next buffered delivery to the engine and charges its
    /// processing time.
    fn try_process(&mut self, c: usize, now: SimTime) {
        let client = &mut self.clients[c];
        if client.busy || client.engine.is_none() {
            return;
        }
        let Some((object, payload)) = client.inbox.pop_front() else {
            return;
        };
        client.draft.unblock(now);
        let reaction = client
            .engine
            .as_mut()
            .expect("engine present")
            .on_object(object, &payload);
        client.charge(reaction.processing);
        client.busy = true;
        client.pending_after = Some((reaction.requests, reaction.finished));
        self.events
            .schedule(now + reaction.processing, Event::ClientReady(c));
    }

    /// Applies the reaction of the processing that just completed:
    /// submit follow-up GETs, finish the query, or go back to waiting.
    fn client_ready(&mut self, c: usize, now: SimTime) {
        let (requests, finished) = self.clients[c]
            .pending_after
            .take()
            .expect("client_ready without reaction");
        self.clients[c].busy = false;
        if self.clients[c].cancelled {
            // The query this processing belonged to was cancelled while
            // charged: discard the reaction. A successor query may
            // already have started (a release fired during the busy
            // window), so drain its buffered deliveries too.
            self.clients[c].cancelled = false;
            self.try_start(c, now);
            self.poke_fleet(now);
            self.try_process(c, now);
            return;
        }
        let submitted = !requests.is_empty();
        // Reaction contract: a finished query has nothing left to fetch.
        // The single poke below would otherwise let a next-query batch
        // change the device decision the follow-ups should have seen.
        debug_assert!(
            !(submitted && finished),
            "engine finished a query while issuing follow-up GETs"
        );
        if submitted {
            let qid = QueryId::new(c as u16, self.clients[c].qseq);
            self.protected_submit(now, c, qid, &requests);
        }
        if finished {
            // Engines never finish with follow-up GETs in flight, so the
            // next query's upfront batch and the (empty) follow-up set
            // share one poke below instead of the historical two.
            self.clients[c].finish(c, now);
            self.protection_summary.per_tenant[c].completed += 1;
            self.query_attempts[c] = 0;
            self.clear_hedge(c);
            let record = &self.clients[c]
                .records
                .last()
                .expect("finish pushed a record")
                .record;
            self.totals.observe(record);
            self.latency.observe(c, record.response_time());
            if self.record_mode == RecordMode::Counters {
                // Counters mode: the sketches above are the only
                // survivors; drop the record before it accumulates.
                self.clients[c].records.pop();
            }
            self.try_start(c, now);
        }
        if submitted || finished {
            self.poke_fleet(now);
        }
        if !finished {
            self.clients[c].note_waiting(now);
            self.try_process(c, now);
        }
    }

    /// Submits a batch through the protection plane: records a hedge
    /// check for hedge-enabled tenants under replication, routes
    /// through the fleet, and converts any unroutable requests (retry
    /// tenants with no live replica) into scheduled re-submissions.
    fn protected_submit(&mut self, now: SimTime, c: usize, qid: QueryId, objects: &[ObjectId]) {
        if !objects.is_empty() && self.fleet.replicated() {
            if let Some(delay) = self.protection[c].hedge {
                let hs = &mut self.hedge_state[c];
                let start = hs.requested.len();
                hs.requested.extend_from_slice(objects);
                let entry = HedgeEntry {
                    client: c,
                    qseq: self.clients[c].qseq,
                    start,
                    end: start + objects.len(),
                };
                let at = now + delay;
                let idx = self.hedges.len();
                self.hedges.push(entry);
                self.events.schedule(at, Event::Hedge(idx));
            }
        }
        self.fleet.submit(now, c, qid, objects);
        if self.fleet.has_unroutable() {
            self.drain_unroutable(now, 1);
        }
    }

    /// Converts the fleet's pending unroutable requests into scheduled
    /// retries at backoff instant `attempt`.
    fn drain_unroutable(&mut self, now: SimTime, attempt: u32) {
        let mut buf = std::mem::take(&mut self.unroutable_scratch);
        buf.clear();
        self.fleet.take_unroutable(&mut buf);
        for &(client, query, object) in buf.iter() {
            self.schedule_retry(now, client, query, object, attempt);
        }
        buf.clear();
        self.unroutable_scratch = buf;
    }

    /// Schedules re-submission attempt `attempt` for one unroutable
    /// object, or — when the backoff budget is exhausted — cancels the
    /// whole query so the run still drains.
    fn schedule_retry(
        &mut self,
        now: SimTime,
        client: usize,
        query: QueryId,
        object: ObjectId,
        attempt: u32,
    ) {
        if self.clients[client].engine.is_none() || self.clients[client].qseq != query.seq {
            return; // the owning query was cancelled meanwhile
        }
        match self.protection[client]
            .retry
            .delay(attempt, &mut self.retry_rng[client])
        {
            Some(delay) => {
                self.protection_summary.retries += 1;
                let at = now + delay;
                let idx = self.retries.len();
                self.retries.push(RetryEntry {
                    client,
                    query,
                    object,
                    attempt,
                });
                self.events.schedule(at, Event::Retry(idx));
            }
            None => {
                // Out of attempts: the query can never receive this
                // object, so cancel it (no timeout charged — the shard
                // is down, not slow).
                self.protection_summary.retry_exhausted += 1;
                self.cancel_current(client, now, false);
                self.query_attempts[client] = 0;
                if !self.clients[client].busy {
                    self.try_start(client, now);
                }
            }
        }
    }

    /// A scheduled retry instant arrived: re-submit the object if its
    /// query is still in flight; if the fleet still has no live replica
    /// the request comes straight back and re-schedules at the next
    /// backoff step.
    fn retry_fired(&mut self, i: usize, now: SimTime) {
        let RetryEntry {
            client,
            query,
            object,
            attempt,
        } = self.retries[i];
        if self.clients[client].engine.is_none() || self.clients[client].qseq != query.seq {
            return; // cancelled or finished while the retry waited
        }
        self.last_activity = now;
        self.fleet.submit(now, client, query, &[object]);
        if self.fleet.has_unroutable() {
            self.drain_unroutable(now, attempt + 1);
        }
        self.poke_fleet(now);
    }

    /// A hedge delay elapsed: re-issue every still-undelivered object
    /// of the covered batch to the next live replica.
    fn hedge_fired(&mut self, i: usize, now: SimTime) {
        let HedgeEntry {
            client,
            qseq,
            start,
            end,
        } = self.hedges[i];
        if self.clients[client].engine.is_none() || self.clients[client].qseq != qseq {
            return; // the covered query already finished or cancelled
        }
        self.last_activity = now;
        let qid = QueryId::new(client as u16, qseq);
        let mut fired = false;
        for idx in start..end {
            let object = self.hedge_state[client].requested[idx];
            let skip = {
                let hs = &self.hedge_state[client];
                hs.consumed.contains(&object) || hs.hedged.iter().any(|&(o, _)| o == object)
            };
            if skip {
                continue;
            }
            let Some(target) = self.fleet.hedge_target(object) else {
                continue; // no second live replica to hedge to
            };
            self.fleet.submit_to(target, now, client, qid, object);
            self.hedge_state[client].hedged.push((object, target));
            self.protection_summary.hedges_fired += 1;
            fired = true;
        }
        if fired {
            self.poke_fleet(now);
        }
    }

    /// A deadline fired: if the query is still in flight, cancel it
    /// everywhere (client, queues, ledgers), count the miss, and — for
    /// retry tenants — re-plan it at the next backoff instant.
    fn deadline_fired(&mut self, c: usize, qseq: u32, now: SimTime) {
        let live = self.clients[c].engine.is_some() && self.clients[c].qseq == qseq;
        if !live {
            return; // the query beat its deadline
        }
        self.last_activity = now;
        self.protection_summary.deadline_misses += 1;
        self.protection_summary.per_tenant[c].deadline_misses += 1;
        let attempt = self.query_attempts[c] + 1;
        let delay = self.protection[c]
            .retry
            .delay(attempt, &mut self.retry_rng[c]);
        // The timeout is charged to the shards that still held queued
        // work for the query — that is what trips a slow shard's
        // breaker.
        self.cancel_current(c, now, true);
        match delay {
            Some(delay) => {
                self.query_attempts[c] = attempt;
                self.protection_summary.retries += 1;
                let spec = self.clients[c]
                    .current_spec
                    .clone()
                    .expect("retry-enabled client keeps its running spec");
                let at = now + delay;
                self.clients[c].plan.push_front(PlannedQuery {
                    spec,
                    release: Some(at),
                });
                self.events.schedule(at, Event::Release(c));
            }
            None => {
                if self.protection[c].retry.enabled() {
                    self.protection_summary.retry_exhausted += 1;
                }
                self.query_attempts[c] = 0;
            }
        }
        if !self.clients[c].busy {
            self.try_start(c, now);
        }
        self.poke_fleet(now);
    }

    /// Cancels client `c`'s current query end-to-end: fleet queues
    /// (optionally charging the breaker's timeout counter), the client
    /// state machine, and the hedge ledger.
    fn cancel_current(&mut self, c: usize, now: SimTime, charge_timeout: bool) {
        let qid = QueryId::new(c as u16, self.clients[c].qseq);
        self.fleet.cancel_query(qid, now, charge_timeout);
        self.clients[c].cancel();
        self.clear_hedge(c);
    }

    /// Resets client `c`'s hedge ledger (no-op when nothing hedges).
    fn clear_hedge(&mut self, c: usize) {
        if !self.any_hedge {
            return;
        }
        let hs = &mut self.hedge_state[c];
        hs.requested.clear();
        hs.consumed.clear();
        hs.hedged.clear();
    }
}
