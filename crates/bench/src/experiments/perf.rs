//! Wall-clock performance of the simulator's per-event hot path.
//!
//! Everything else in this harness measures *virtual* time; this
//! experiment measures *simulator throughput* — the wall-clock cost of
//! driving the CSD scheduling loop — because simulator speed bounds how
//! many scenarios the suite can sweep. It drives a large synthetic
//! closed-loop scenario (the default: 64 tenants × 12 rounds × 150
//! objects = 115 200 requests; [`PerfScenario::million`]: 64 × 32 × 500
//! = 1 024 000 requests, ~32 000 pending at any instant) across two
//! axes:
//!
//! * **queue** — `indexed` (the production [`RequestQueue`]) vs `naive`
//!   (the pre-index [`NaiveQueue`] reference, O(n) rescans per
//!   decision).
//! * **core** — `v1` (the pre-rebuild event core: full span/ledger
//!   recording, a freshly allocated `Vec<Delivery>` per wake-up,
//!   re-kick *every* shard after a resubmit, linear min-scan over the
//!   per-shard wake-ups per event) vs `v2` (the million-request core:
//!   `TraceMode::Counters` + `LedgerMode::Counters` bounded-memory
//!   observability, `complete_into` with one reusable scratch buffer,
//!   a [`CalendarQueue`] of armed per-shard wake-ups with stale-event
//!   filtering, and re-kicks only for shards actually mutated).
//!
//! Every run must produce the identical delivery multiset (checked via
//! an order-insensitive streaming fingerprint, so the check itself
//! costs no memory), the same makespan, and the same switch count. The
//! reported events/sec quantify both wins; with an allocation probe
//! installed (the `perf` binary's counting `#[global_allocator]`), the
//! v2 samples also report *allocations per event* over the drive loop —
//! the zero-allocation steady-state gauge.
//!
//! A third drive loop leaves the closed-loop regime entirely: **open**
//! ([`drive_open` via `open_sweep`]) releases every round at instants
//! expanded up-front from a seeded [`ArrivalProcess`] (Poisson, bursty
//! on/off, diurnal, trace replay), so load arrives whether or not the
//! fleet keeps up and queues grow past saturation — the internet-facing
//! regime. Each round's response time (release → last delivery,
//! queue-wait included) feeds a fixed-ε Greenwald–Khanna
//! [`QuantileSketch`], giving p50/p95/p99/p999 tail latency in O(1)
//! memory per sample ([`PerfSample::latency`]) without disturbing the
//! allocs/event gauge.
//!
//! `skipper-bench --bin perf` emits the results as `BENCH_perf.json`
//! (schema `BENCH_perf/v5`) and the recorded baselines live in
//! `EXPERIMENTS.md`.

use std::time::Instant;

use skipper_core::runtime::ArrivalProcess;
use skipper_csd::sched::{NaiveQueue, RequestIndex, RequestQueue};
use skipper_csd::{
    CsdConfig, CsdDevice, Delivery, IntraGroupOrder, LedgerMode, ObjectId, ObjectStore, QueryId,
    SchedPolicy, StreamModel,
};
use skipper_sim::rng::splitmix64;
use skipper_sim::{CalendarQueue, QuantileSketch, SimDuration, SimTime, TraceMode};

use crate::report::Table;

const MB: u64 = 1 << 20;

/// The synthetic closed-loop scenario driven against both queues.
#[derive(Clone, Debug)]
pub struct PerfScenario {
    /// Closed-loop synthetic tenants.
    pub tenants: usize,
    /// Rounds ("queries") per tenant; a tenant resubmits the next round
    /// when the previous one is fully delivered.
    pub rounds: usize,
    /// GET requests per round.
    pub objects_per_round: u32,
    /// Disk groups per shard (tenant `t` lives in group `t % groups`).
    pub groups: u32,
    /// Scheduling policy under test.
    pub policy: SchedPolicy,
    /// Transfer streams per device (the service pipeline width). The
    /// multi-stream configuration exercises the earliest-of-K wake-up
    /// path and the armed-switch drain in the hot loop.
    pub streams: u32,
    /// Open-arrival process for the `open` drive loop: round `r` of
    /// tenant `t` is *released* at the process's `r`-th event instead
    /// of on completion of round `r−1`, so load is applied regardless
    /// of whether the fleet keeps up (the internet-facing regime —
    /// queues grow past saturation and the latency sketch sees the
    /// queueing delay). `None` keeps the closed loop; the v1/v2 drives
    /// ignore this field.
    pub arrival: Option<ArrivalProcess>,
}

impl Default for PerfScenario {
    fn default() -> Self {
        PerfScenario {
            tenants: 64,
            rounds: 12,
            objects_per_round: 150,
            groups: 16,
            policy: SchedPolicy::RankBased,
            streams: 1,
            arrival: None,
        }
    }
}

impl PerfScenario {
    /// The million-request configuration: 64 tenants × 32 rounds × 500
    /// objects = 1 024 000 GETs with ~32 000 requests pending at any
    /// instant — the regime the ROADMAP's millions-of-users north star
    /// lives in. Drive it with the v2 core (`Counters` observability);
    /// the naive queue is O(n²) here and should be skipped.
    pub fn million() -> Self {
        PerfScenario {
            tenants: 64,
            rounds: 32,
            objects_per_round: 500,
            groups: 16,
            policy: SchedPolicy::RankBased,
            streams: 1,
            arrival: None,
        }
    }

    /// Total GET requests the scenario issues.
    pub fn total_requests(&self) -> u64 {
        self.tenants as u64 * self.rounds as u64 * self.objects_per_round as u64
    }
}

/// Which drive loop + observability regime a sample ran under.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CoreVersion {
    /// The pre-rebuild loop: full traces/ledgers, per-wake-up `Vec`
    /// allocation, re-kick every shard on resubmit, linear min-scan.
    V1,
    /// The million-request loop: counters-mode observability, reusable
    /// scratch delivery buffer, calendar-queue wake-ups, mutated-shard
    /// re-kicks.
    V2,
}

impl CoreVersion {
    /// Report label.
    pub fn label(self) -> &'static str {
        match self {
            CoreVersion::V1 => "v1",
            CoreVersion::V2 => "v2",
        }
    }
}

/// One timed run of the scenario on one (core, queue) combination.
#[derive(Clone, Debug)]
pub struct PerfSample {
    /// Core label: `"v1"`, `"v2"`, or `"open"` (the open-arrival loop).
    pub core: &'static str,
    /// Queue implementation label: `"indexed"` or `"naive"`.
    pub queue: &'static str,
    /// Fleet size.
    pub shards: usize,
    /// Requests submitted (= objects delivered).
    pub requests: u64,
    /// Device events processed (transfer + switch completions).
    pub events: u64,
    /// Wall-clock seconds for the drive loop.
    pub wall_secs: f64,
    /// Device events per wall-clock second — the headline throughput.
    pub events_per_sec: f64,
    /// Virtual makespan of the run (identical across queues and cores).
    pub makespan_secs: f64,
    /// Total paid group switches (identical across queues and cores).
    pub switches: u64,
    /// Heap allocations per event over the drive loop, when an
    /// allocation probe is installed (v2/open runs only — the
    /// steady-state zero-allocation gauge).
    pub allocs_per_event: Option<f64>,
    /// Round response-time distribution (the `open` core only): the
    /// tail-latency section fed by the streaming quantile sketch.
    pub latency: Option<LatencySample>,
}

/// The tail-latency block of an open-arrival sample: per-round response
/// time (release → last delivery of the round, so queue-wait included)
/// summarized by a fixed-ε [`QuantileSketch`] — O(1) memory no matter
/// how many rounds the drive retires.
#[derive(Clone, Copy, Debug)]
pub struct LatencySample {
    /// Rounds completed (= sketch observations).
    pub count: u64,
    /// Mean response seconds (exact running sum, not sketch-derived).
    pub mean_secs: f64,
    /// Worst response seconds (exact).
    pub max_secs: f64,
    /// Median response seconds (sketch, ±ε rank error).
    pub p50_secs: f64,
    /// 95th-percentile response seconds.
    pub p95_secs: f64,
    /// 99th-percentile response seconds.
    pub p99_secs: f64,
    /// 99.9th-percentile response seconds.
    pub p999_secs: f64,
}

impl LatencySample {
    /// Summarizes a finished response-time sketch plus the exact
    /// mean/max accumulators; `None` when nothing completed.
    fn from_sketch(sketch: &QuantileSketch, sum_secs: f64, max_secs: f64) -> Option<LatencySample> {
        let q = |phi: f64| sketch.quantile(phi).expect("non-empty sketch");
        (sketch.count() > 0).then(|| LatencySample {
            count: sketch.count(),
            mean_secs: sum_secs / sketch.count() as f64,
            max_secs,
            p50_secs: q(0.50),
            p95_secs: q(0.95),
            p99_secs: q(0.99),
            p999_secs: q(0.999),
        })
    }
}

/// Outcome invariants used to cross-check runs without holding the
/// delivery list in memory: an order-insensitive streaming fingerprint.
#[derive(Debug, PartialEq)]
struct Fingerprint {
    count: u64,
    checksum: u64,
    makespan: SimTime,
    switches: u64,
}

/// Commutative delivery digest: the wrapping sum of per-delivery mixes
/// pins the delivery *multiset* regardless of retirement order; the
/// makespan/switch fields catch schedule divergence beyond that.
fn mix_delivery(client: usize, query: QueryId, object: ObjectId) -> u64 {
    let mut h = (client as u64) << 48
        ^ (query.tenant as u64) << 32
        ^ (query.seq as u64) << 40
        ^ (object.tenant as u64) << 16
        ^ (object.table as u64) << 24
        ^ object.segment as u64;
    splitmix64(&mut h)
}

/// Builds the per-shard devices: tenant `t`'s `rounds × objects` GETs
/// target objects `0..rounds*objects` in group `t % groups`, spread
/// round-robin by segment over the shards.
fn build_devices<Q: RequestIndex>(
    sc: &PerfScenario,
    shards: usize,
    core: CoreVersion,
) -> Vec<CsdDevice<(), Q>> {
    let per_tenant = sc.rounds as u32 * sc.objects_per_round;
    let (trace_mode, ledger_mode) = match core {
        CoreVersion::V1 => (TraceMode::Full, LedgerMode::Full),
        CoreVersion::V2 => (TraceMode::Counters, LedgerMode::Counters),
    };
    (0..shards)
        .map(|shard| {
            let mut store = ObjectStore::new();
            for t in 0..sc.tenants {
                for seg in 0..per_tenant {
                    if seg as usize % shards == shard {
                        store.put(
                            ObjectId::new(t as u16, 0, seg),
                            100 * MB,
                            t as u32 % sc.groups,
                            (),
                        );
                    }
                }
            }
            CsdDevice::new(
                CsdConfig {
                    switch_latency: SimDuration::from_secs(10),
                    bandwidth_bytes_per_sec: (100 * MB) as f64,
                    initial_load_free: true,
                    parallel_streams: sc.streams,
                    stream_model: StreamModel::Pipeline,
                    trace_mode,
                    ledger_mode,
                },
                store,
                sc.policy.build(),
                IntraGroupOrder::SemanticRoundRobin,
            )
        })
        .collect()
}

/// Per-tenant closed-loop state shared by both drive loops.
struct ClosedLoop {
    round: Vec<usize>,
    outstanding: Vec<u32>,
    count: u64,
    checksum: u64,
}

impl ClosedLoop {
    fn new(tenants: usize) -> Self {
        ClosedLoop {
            round: vec![0; tenants],
            outstanding: vec![0; tenants],
            count: 0,
            checksum: 0,
        }
    }

    /// Digests a delivery; returns `Some(next_round)` when it completed
    /// tenant `t`'s current round and another round remains.
    fn on_delivery(&mut self, sc: &PerfScenario, d: &Delivery<()>) -> Option<usize> {
        self.count += 1;
        self.checksum = self
            .checksum
            .wrapping_add(mix_delivery(d.client, d.query, d.object));
        let t = d.client;
        self.outstanding[t] -= 1;
        if self.outstanding[t] == 0 {
            self.round[t] += 1;
            if self.round[t] < sc.rounds {
                self.outstanding[t] = sc.objects_per_round;
                return Some(self.round[t]);
            }
        }
        None
    }
}

fn submit_round<Q: RequestIndex>(
    sc: &PerfScenario,
    devices: &mut [CsdDevice<(), Q>],
    now: SimTime,
    t: usize,
    r: usize,
) {
    let shards = devices.len();
    let query = QueryId::new(t as u16, r as u32);
    let base = r as u32 * sc.objects_per_round;
    for seg in base..base + sc.objects_per_round {
        devices[seg as usize % shards].submit(now, t, query, &[ObjectId::new(t as u16, 0, seg)]);
    }
}

/// The pre-rebuild drive loop, preserved verbatim as the `v1` baseline:
/// a `Vec<Delivery>` is allocated per wake-up, a resubmit re-kicks
/// *every* shard, and the next wake-up is re-derived with a linear
/// min-scan over the per-shard completion times on every event.
fn drive_v1<Q: RequestIndex>(
    sc: &PerfScenario,
    shards: usize,
    queue_label: &'static str,
) -> (PerfSample, Fingerprint) {
    let mut devices = build_devices::<Q>(sc, shards, CoreVersion::V1);
    let mut loop_state = ClosedLoop::new(sc.tenants);
    let mut events = 0u64;

    let start = Instant::now();
    for t in 0..sc.tenants {
        submit_round(sc, &mut devices, SimTime::ZERO, t, 0);
        loop_state.outstanding[t] = sc.objects_per_round;
    }
    let mut next: Vec<Option<SimTime>> = (0..shards)
        .map(|s| devices[s].kick(SimTime::ZERO))
        .collect();
    let mut makespan = SimTime::ZERO;
    while let Some((now, s)) = next
        .iter()
        .enumerate()
        .filter_map(|(s, t)| t.map(|t| (t, s)))
        .min()
    {
        makespan = now;
        events += 1;
        let mut resubmitted = false;
        for d in devices[s].complete(now) {
            if let Some(r) = loop_state.on_delivery(sc, &d) {
                submit_round(sc, &mut devices, now, d.client, r);
                resubmitted = true;
            }
        }
        if resubmitted {
            // A round spans every shard, and new work can move a busy
            // shard's earliest completion *earlier* (idle pipeline
            // slots fill): re-kick everything, re-arming on mutation.
            for (o, slot) in next.iter_mut().enumerate() {
                *slot = devices[o].kick(now);
            }
        } else {
            next[s] = devices[s].kick(now);
        }
    }
    let wall = start.elapsed().as_secs_f64();
    finish(
        sc,
        devices,
        loop_state.count,
        loop_state.checksum,
        events,
        wall,
        makespan,
        CoreVersion::V1,
        queue_label,
        None,
    )
}

/// The million-request drive loop (`v2`): armed per-shard wake-ups live
/// in a [`CalendarQueue`] (stale superseded entries are filtered on
/// pop), completions drain into one reusable scratch buffer, and only
/// the shards a resubmit actually touched are re-kicked.
fn drive_v2<Q: RequestIndex>(
    sc: &PerfScenario,
    shards: usize,
    queue_label: &'static str,
    alloc_counter: Option<fn() -> u64>,
) -> (PerfSample, Fingerprint) {
    assert!(
        shards <= 64,
        "v2 drive loop tracks mutated shards in a u64 bitmask"
    );
    let mut devices = build_devices::<Q>(sc, shards, CoreVersion::V2);
    let mut loop_state = ClosedLoop::new(sc.tenants);
    let mut events = 0u64;
    let mut scratch: Vec<Delivery<()>> = Vec::new();

    let start = Instant::now();
    for t in 0..sc.tenants {
        submit_round(sc, &mut devices, SimTime::ZERO, t, 0);
        loop_state.outstanding[t] = sc.objects_per_round;
    }
    let mut wakeups: CalendarQueue<usize> = CalendarQueue::new();
    let mut armed: Vec<Option<SimTime>> = vec![None; shards];
    for (s, slot) in armed.iter_mut().enumerate() {
        if let Some(at) = devices[s].kick(SimTime::ZERO) {
            *slot = Some(at);
            wakeups.schedule(at, s);
        }
    }
    let allocs_before = alloc_counter.map(|f| f());
    let mut makespan = SimTime::ZERO;
    while let Some((now, s)) = wakeups.pop() {
        if armed[s] != Some(now) {
            continue; // superseded by a re-arm at an earlier instant
        }
        armed[s] = None;
        makespan = now;
        events += 1;
        scratch.clear();
        devices[s].complete_into(now, &mut scratch);
        // The completed shard always needs a re-kick; resubmits mark
        // the other shards they touched.
        let mut touched: u64 = 1 << s;
        for d in &scratch {
            let (client, next_round) = match loop_state.on_delivery(sc, d) {
                Some(r) => (d.client, r),
                None => continue,
            };
            submit_round(sc, &mut devices, now, client, next_round);
            touched |= if sc.objects_per_round as usize >= shards {
                // A full round lands on every shard.
                u64::MAX >> (64 - shards)
            } else {
                let mut mask = 0u64;
                let base = next_round as u32 * sc.objects_per_round;
                for seg in base..base + sc.objects_per_round {
                    mask |= 1 << (seg as usize % shards);
                }
                mask
            };
        }
        let mut rest = touched;
        while rest != 0 {
            let s2 = rest.trailing_zeros() as usize;
            rest &= rest - 1;
            match devices[s2].kick(now) {
                Some(at) if armed[s2] == Some(at) => {}
                Some(at) => {
                    armed[s2] = Some(at);
                    wakeups.schedule(at, s2);
                }
                None => armed[s2] = None,
            }
        }
    }
    let allocs_after = alloc_counter.map(|f| f());
    let wall = start.elapsed().as_secs_f64();
    let allocs_per_event = allocs_before.zip(allocs_after).map(|(before, after)| {
        if events > 0 {
            (after - before) as f64 / events as f64
        } else {
            0.0
        }
    });
    finish(
        sc,
        devices,
        loop_state.count,
        loop_state.checksum,
        events,
        wall,
        makespan,
        CoreVersion::V2,
        queue_label,
        allocs_per_event,
    )
}

/// Event payloads of the open-arrival (`open`) drive loop.
#[derive(Clone, Copy, Debug)]
enum OpenEvent {
    /// Shard's armed wake-up fires.
    Wake(usize),
    /// Tenant `t` releases round `r` — scheduled up-front from the
    /// arrival process, fired regardless of earlier rounds' progress.
    Release(usize, usize),
}

/// The open-arrival drive loop (`open` core, v2 observability + event
/// mechanics): every round's release instant is expanded from
/// [`PerfScenario::arrival`] *before* the clock starts, so load arrives
/// whether or not the fleet keeps up and several rounds of one tenant
/// can be in flight at once. Each round's response time (release → last
/// delivery of the round, queue-wait included) feeds one fixed-ε
/// [`QuantileSketch`] — the O(1)-memory tail-latency gauge the closed
/// loops cannot produce, reported as [`PerfSample::latency`].
///
/// `exact_out`, when set, additionally records every response sample in
/// completion order — the rank-error oracle for the sketch tests, never
/// used by the timed sweeps.
fn drive_open<Q: RequestIndex>(
    sc: &PerfScenario,
    shards: usize,
    queue_label: &'static str,
    alloc_counter: Option<fn() -> u64>,
    mut exact_out: Option<&mut Vec<f64>>,
) -> (PerfSample, Fingerprint) {
    assert!(
        shards <= 64,
        "open drive loop tracks mutated shards in a u64 bitmask"
    );
    let arrival = sc
        .arrival
        .as_ref()
        .expect("the open drive loop needs an arrival process");
    let mut devices = build_devices::<Q>(sc, shards, CoreVersion::V2);
    let mut events = 0u64;
    let mut scratch: Vec<Delivery<()>> = Vec::new();

    let start = Instant::now();
    // Expand every release instant up-front (the processes are pure
    // functions of (seed, tenant), so this is bit-reproducible) and
    // schedule them all; ties pop in (tenant, round) insertion order.
    let mut wakeups: CalendarQueue<OpenEvent> = CalendarQueue::new();
    let mut releases: Vec<Vec<SimTime>> = Vec::with_capacity(sc.tenants);
    for t in 0..sc.tenants {
        let times: Vec<SimTime> = arrival
            .release_times(sc.rounds, t, SimDuration::ZERO)
            .into_iter()
            .map(|at| at.expect("open drive needs open-arrival release instants"))
            .collect();
        for (r, &at) in times.iter().enumerate() {
            wakeups.schedule(at, OpenEvent::Release(t, r));
        }
        releases.push(times);
    }
    let mut outstanding: Vec<Vec<u32>> = vec![vec![0; sc.rounds]; sc.tenants];
    let mut armed: Vec<Option<SimTime>> = vec![None; shards];
    let mut count = 0u64;
    let mut checksum = 0u64;
    let mut sketch = QuantileSketch::default_epsilon();
    let mut sum_secs = 0.0f64;
    let mut max_secs = 0.0f64;
    let allocs_before = alloc_counter.map(|f| f());
    let mut makespan = SimTime::ZERO;
    while let Some((now, ev)) = wakeups.pop() {
        match ev {
            OpenEvent::Wake(s) => {
                if armed[s] != Some(now) {
                    continue; // superseded by a re-arm at an earlier instant
                }
                armed[s] = None;
                makespan = now;
                events += 1;
                scratch.clear();
                devices[s].complete_into(now, &mut scratch);
                for d in &scratch {
                    count += 1;
                    checksum = checksum.wrapping_add(mix_delivery(d.client, d.query, d.object));
                    let (t, r) = (d.client, d.query.seq as usize);
                    outstanding[t][r] -= 1;
                    if outstanding[t][r] == 0 {
                        // Round complete: response includes however long
                        // the round waited in the device queues.
                        let response = now.since(releases[t][r]).as_secs_f64();
                        sketch.push(response);
                        sum_secs += response;
                        max_secs = max_secs.max(response);
                        if let Some(exact) = exact_out.as_deref_mut() {
                            exact.push(response);
                        }
                    }
                }
                // Deliveries never breed submits here (the loop is
                // open), so only the completed shard needs a re-kick.
                if let Some(at) = devices[s].kick(now) {
                    armed[s] = Some(at);
                    wakeups.schedule(at, OpenEvent::Wake(s));
                }
            }
            OpenEvent::Release(t, r) => {
                makespan = makespan.max(now);
                outstanding[t][r] = sc.objects_per_round;
                submit_round(sc, &mut devices, now, t, r);
                let mut touched = if sc.objects_per_round as usize >= shards {
                    u64::MAX >> (64 - shards)
                } else {
                    let mut mask = 0u64;
                    let base = r as u32 * sc.objects_per_round;
                    for seg in base..base + sc.objects_per_round {
                        mask |= 1 << (seg as usize % shards);
                    }
                    mask
                };
                while touched != 0 {
                    let s2 = touched.trailing_zeros() as usize;
                    touched &= touched - 1;
                    match devices[s2].kick(now) {
                        Some(at) if armed[s2] == Some(at) => {}
                        Some(at) => {
                            armed[s2] = Some(at);
                            wakeups.schedule(at, OpenEvent::Wake(s2));
                        }
                        None => armed[s2] = None,
                    }
                }
            }
        }
    }
    let allocs_after = alloc_counter.map(|f| f());
    let wall = start.elapsed().as_secs_f64();
    let allocs_per_event = allocs_before.zip(allocs_after).map(|(before, after)| {
        if events > 0 {
            (after - before) as f64 / events as f64
        } else {
            0.0
        }
    });
    assert_eq!(
        sketch.count(),
        sc.tenants as u64 * sc.rounds as u64,
        "open drive lost rounds"
    );
    let (mut sample, fp) = finish(
        sc,
        devices,
        count,
        checksum,
        events,
        wall,
        makespan,
        CoreVersion::V2,
        queue_label,
        allocs_per_event,
    );
    sample.core = "open";
    sample.latency = LatencySample::from_sketch(&sketch, sum_secs, max_secs);
    (sample, fp)
}

#[allow(clippy::too_many_arguments)]
fn finish<Q: RequestIndex>(
    sc: &PerfScenario,
    devices: Vec<CsdDevice<(), Q>>,
    count: u64,
    checksum: u64,
    events: u64,
    wall: f64,
    makespan: SimTime,
    core: CoreVersion,
    queue_label: &'static str,
    allocs_per_event: Option<f64>,
) -> (PerfSample, Fingerprint) {
    assert!(
        devices.iter().all(|d| d.is_quiescent()),
        "perf drive loop left work behind"
    );
    let switches: u64 = devices.iter().map(|d| d.metrics().group_switches).sum();
    assert_eq!(count, sc.total_requests(), "lost deliveries");
    (
        PerfSample {
            core: core.label(),
            queue: queue_label,
            shards: devices.len(),
            requests: count,
            events,
            wall_secs: wall,
            events_per_sec: if wall > 0.0 {
                events as f64 / wall
            } else {
                0.0
            },
            makespan_secs: makespan.as_secs_f64(),
            switches,
            allocs_per_event,
            latency: None,
        },
        Fingerprint {
            count,
            checksum,
            makespan,
            switches,
        },
    )
}

/// Knobs for [`perf_sweep`].
#[derive(Clone, Copy, Debug, Default)]
pub struct SweepOptions {
    /// Skip the naive-queue baseline (mandatory for million-scale runs:
    /// the naive queue is O(n²) in pending depth).
    pub skip_naive: bool,
    /// Skip the v1-core baseline (CI smoke mode).
    pub skip_v1: bool,
    /// Allocation probe: a function reading a process-wide allocation
    /// counter (the perf binary installs a counting
    /// `#[global_allocator]`). When set, v2 samples report
    /// allocations/event.
    pub alloc_counter: Option<fn() -> u64>,
    /// Timed repetitions per configuration; the fastest wall time is
    /// reported (0 is treated as 1). Virtual outcomes are asserted
    /// identical across repeats, so best-of-N only de-noises the
    /// wall-clock measurement.
    pub repeats: usize,
}

/// Runs the scenario on every requested shard count: the v2 core on the
/// indexed queue (the production configuration), plus — unless skipped —
/// the v1 core on the indexed queue (core baseline) and the v1 core on
/// the naive queue (queue baseline). All runs of a shard count must be
/// observationally identical (delivery multiset fingerprint, makespan,
/// switches); samples arrive v2 first per shard count.
pub fn perf_sweep(
    sc: &PerfScenario,
    shard_counts: &[usize],
    opts: SweepOptions,
) -> Vec<PerfSample> {
    let mut samples = Vec::new();
    // Untimed warm-up at the real queue depth: the first timed run would
    // otherwise pay the process's page-fault and allocator warm-up alone,
    // systematically biasing whichever variant runs first.
    if sc.rounds > 1 {
        let warmup = PerfScenario {
            rounds: 1,
            ..sc.clone()
        };
        let shards = shard_counts.first().copied().unwrap_or(1);
        drive_v2::<RequestQueue>(&warmup, shards, "indexed", None);
        drive_v1::<RequestQueue>(&warmup, shards, "indexed");
    }
    let repeats = opts.repeats.max(1);
    let best = |mut run: Box<dyn FnMut() -> (PerfSample, Fingerprint)>| {
        let (mut sample, fp) = run();
        for _ in 1..repeats {
            let (s, f) = run();
            assert_eq!(fp, f, "repeat run diverged");
            if s.wall_secs < sample.wall_secs {
                sample = s;
            }
        }
        (sample, fp)
    };
    for &shards in shard_counts {
        let alloc = opts.alloc_counter;
        let (v2, fp_v2) = best(Box::new(move || {
            drive_v2::<RequestQueue>(sc, shards, "indexed", alloc)
        }));
        samples.push(v2);
        if !opts.skip_v1 {
            let (v1, fp_v1) = best(Box::new(move || {
                drive_v1::<RequestQueue>(sc, shards, "indexed")
            }));
            assert_eq!(fp_v2, fp_v1, "v1/v2 cores diverged at {shards} shards");
            samples.push(v1);
        }
        if !opts.skip_naive {
            let (naive, fp_naive) = best(Box::new(move || {
                drive_v1::<NaiveQueue>(sc, shards, "naive")
            }));
            assert_eq!(
                fp_v2, fp_naive,
                "queue implementations diverged at {shards} shards"
            );
            samples.push(naive);
        }
    }
    samples
}

/// Runs the open-arrival (`open`) drive on every requested shard
/// count. There is no closed-loop twin to diff against (the workload
/// semantics differ by construction), so the cross-check here is
/// repeat-determinism: every repeat must reproduce the fingerprint
/// *and* the full latency block bit-for-bit — arrival expansion,
/// schedule, and sketch are all deterministic.
///
/// # Panics
/// Panics if [`PerfScenario::arrival`] is `None`.
pub fn open_sweep(
    sc: &PerfScenario,
    shard_counts: &[usize],
    opts: SweepOptions,
) -> Vec<PerfSample> {
    assert!(
        sc.arrival.is_some(),
        "open_sweep needs PerfScenario::arrival"
    );
    let mut samples = Vec::new();
    if sc.rounds > 1 {
        let warmup = PerfScenario {
            rounds: 1,
            ..sc.clone()
        };
        let shards = shard_counts.first().copied().unwrap_or(1);
        drive_open::<RequestQueue>(&warmup, shards, "indexed", None, None);
    }
    let repeats = opts.repeats.max(1);
    for &shards in shard_counts {
        let (mut sample, fp) =
            drive_open::<RequestQueue>(sc, shards, "indexed", opts.alloc_counter, None);
        for _ in 1..repeats {
            let (s2, f2) =
                drive_open::<RequestQueue>(sc, shards, "indexed", opts.alloc_counter, None);
            assert_eq!(fp, f2, "open repeat run diverged");
            let (a, b) = (sample.latency.unwrap(), s2.latency.unwrap());
            assert_eq!(
                (a.count, a.p50_secs, a.p95_secs, a.p99_secs, a.p999_secs),
                (b.count, b.p50_secs, b.p95_secs, b.p99_secs, b.p999_secs),
                "open repeat latency diverged"
            );
            if s2.wall_secs < sample.wall_secs {
                sample = s2;
            }
        }
        samples.push(sample);
    }
    samples
}

/// The per-shard-count `naive wall / indexed wall` speedups (both on
/// the v1 core: the PR-3 queue-indexing win).
pub fn queue_speedups(samples: &[PerfSample]) -> Vec<(usize, f64)> {
    ratio(samples, ("v1", "naive"), ("v1", "indexed"))
}

/// The per-shard-count `v1 wall / v2 wall` speedups (both on the
/// indexed queue: the event-core rebuild win).
pub fn core_speedups(samples: &[PerfSample]) -> Vec<(usize, f64)> {
    ratio(samples, ("v1", "indexed"), ("v2", "indexed"))
}

fn ratio(samples: &[PerfSample], num: (&str, &str), den: (&str, &str)) -> Vec<(usize, f64)> {
    let mut out = Vec::new();
    for d in samples.iter().filter(|s| (s.core, s.queue) == den) {
        if let Some(n) = samples
            .iter()
            .find(|s| (s.core, s.queue) == num && s.shards == d.shards)
        {
            if d.wall_secs > 0.0 {
                out.push((d.shards, n.wall_secs / d.wall_secs));
            }
        }
    }
    out
}

/// Renders the sweep as a printable table.
pub fn table(sc: &PerfScenario, samples: &[PerfSample]) -> Table {
    let mut t = Table::new(
        &format!(
            "Simulator hot path: {} tenants x {} rounds x {} objects ({} requests, {} groups, {}, {} streams)",
            sc.tenants,
            sc.rounds,
            sc.objects_per_round,
            sc.total_requests(),
            sc.groups,
            sc.policy.label(),
            sc.streams,
        ),
        &[
            "shards",
            "core",
            "queue",
            "wall(s)",
            "events",
            "events/sec",
            "allocs/evt",
            "makespan(s)",
            "switches",
            "p99(s)",
        ],
    );
    for s in samples {
        t.push_row(vec![
            s.shards.to_string(),
            s.core.into(),
            s.queue.into(),
            format!("{:.3}", s.wall_secs),
            s.events.to_string(),
            format!("{:.0}", s.events_per_sec),
            s.allocs_per_event
                .map_or_else(|| "-".into(), |a| format!("{a:.3}")),
            format!("{:.0}", s.makespan_secs),
            s.switches.to_string(),
            s.latency
                .map_or_else(|| "-".into(), |l| format!("{:.1}", l.p99_secs)),
        ]);
    }
    t
}

/// One scenario's sweep: the scenario plus every sample it produced.
#[derive(Clone, Debug)]
pub struct Sweep {
    /// The driven scenario.
    pub scenario: PerfScenario,
    /// Samples, v2 first per shard count.
    pub samples: Vec<PerfSample>,
}

impl Sweep {
    /// Runs `scenario` over `shard_counts` (see [`perf_sweep`]).
    pub fn run(scenario: PerfScenario, shard_counts: &[usize], opts: SweepOptions) -> Sweep {
        let samples = perf_sweep(&scenario, shard_counts, opts);
        Sweep { scenario, samples }
    }
}

/// Compact arrival-process tag for the scenario block (`null` for the
/// closed-loop sweeps; durations in whole microseconds so the tag is
/// exact).
fn arrival_json(arrival: Option<&ArrivalProcess>) -> String {
    let tag = match arrival {
        None => return "null".into(),
        Some(ArrivalProcess::Closed) => "closed".into(),
        Some(ArrivalProcess::Poisson { mean, seed }) => {
            format!("poisson:mean_us={},seed={}", mean.as_micros(), seed)
        }
        Some(ArrivalProcess::OnOff {
            on_mean,
            on_duration,
            off_duration,
            seed,
        }) => format!(
            "onoff:on_mean_us={},on_us={},off_us={},seed={}",
            on_mean.as_micros(),
            on_duration.as_micros(),
            off_duration.as_micros(),
            seed
        ),
        Some(ArrivalProcess::Diurnal {
            peak_mean,
            period,
            trough,
            seed,
        }) => format!(
            "diurnal:peak_mean_us={},period_us={},trough={},seed={}",
            peak_mean.as_micros(),
            period.as_micros(),
            trough,
            seed
        ),
        Some(ArrivalProcess::TraceReplay(instants)) => {
            format!("trace:{}_instants", instants.len())
        }
    };
    format!("\"{tag}\"")
}

/// The per-sample tail block (`null` for the closed-loop cores).
fn latency_json(latency: Option<&LatencySample>) -> String {
    match latency {
        None => "null".into(),
        Some(l) => format!(
            "{{\"count\": {}, \"mean_secs\": {:.6}, \"max_secs\": {:.6}, \"p50_secs\": {:.6}, \"p95_secs\": {:.6}, \"p99_secs\": {:.6}, \"p999_secs\": {:.6}}}",
            l.count, l.mean_secs, l.max_secs, l.p50_secs, l.p95_secs, l.p99_secs, l.p999_secs
        ),
    }
}

/// Serializes one or more sweeps as the `BENCH_perf.json` document
/// (schema `BENCH_perf/v5`: v4's open-arrival axis — `arrival` per
/// scenario, a `latency` tail block per sample — without the worker
/// axis of v3/v4: no per-scenario think time, per-sample worker count
/// or parallel speed-up section);
/// hand-rolled JSON, no serde in this workspace.
pub fn to_json(sweeps: &[Sweep]) -> String {
    let mut out = String::from("{\n  \"schema\": \"BENCH_perf/v5\",\n  \"sweeps\": [\n");
    let blocks: Vec<String> = sweeps.iter().map(sweep_json).collect();
    out.push_str(&blocks.join(",\n"));
    out.push_str("\n  ]\n}\n");
    out
}

fn sweep_json(sweep: &Sweep) -> String {
    let sc = &sweep.scenario;
    let samples = &sweep.samples;
    let mut out = String::from("    {\n");
    out.push_str(&format!(
        "      \"scenario\": {{\"tenants\": {}, \"rounds\": {}, \"objects_per_round\": {}, \"groups\": {}, \"requests\": {}, \"policy\": \"{}\", \"streams\": {}, \"arrival\": {}}},\n",
        sc.tenants,
        sc.rounds,
        sc.objects_per_round,
        sc.groups,
        sc.total_requests(),
        sc.policy.label(),
        sc.streams,
        arrival_json(sc.arrival.as_ref()),
    ));
    out.push_str("      \"samples\": [\n");
    let rows: Vec<String> = samples
        .iter()
        .map(|s| {
            format!(
                "        {{\"core\": \"{}\", \"queue\": \"{}\", \"shards\": {}, \"requests\": {}, \"events\": {}, \"wall_secs\": {:.6}, \"events_per_sec\": {:.1}, \"allocs_per_event\": {}, \"makespan_secs\": {:.3}, \"switches\": {}, \"latency\": {}}}",
                s.core,
                s.queue,
                s.shards,
                s.requests,
                s.events,
                s.wall_secs,
                s.events_per_sec,
                s.allocs_per_event
                    .map_or_else(|| "null".into(), |a| format!("{a:.4}")),
                s.makespan_secs,
                s.switches,
                latency_json(s.latency.as_ref()),
            )
        })
        .collect();
    out.push_str(&rows.join(",\n"));
    out.push_str("\n      ],\n");
    let section = |name: &str, rows: Vec<(usize, f64)>| {
        let body: Vec<String> = rows
            .into_iter()
            .map(|(shards, x)| format!("        {{\"shards\": {shards}, \"speedup\": {x:.2}}}"))
            .collect();
        format!("      \"{name}\": [\n{}\n      ]", body.join(",\n"))
    };
    out.push_str(&section("queue_speedup", queue_speedups(samples)));
    out.push_str(",\n");
    out.push_str(&section("core_speedup", core_speedups(samples)));
    out.push_str("\n    }");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_sweep_agrees_and_reports() {
        let sc = PerfScenario {
            tenants: 4,
            rounds: 2,
            objects_per_round: 6,
            groups: 2,
            policy: SchedPolicy::RankBased,
            streams: 1,
            arrival: None,
        };
        let samples = perf_sweep(&sc, &[1, 2], SweepOptions::default());
        assert_eq!(samples.len(), 6); // (v2, v1, naive) × 2 shard counts
                                      // Virtual outcomes are queue- and core-independent.
        for trio in samples.chunks(3) {
            assert_eq!(trio[0].core, "v2");
            assert_eq!(trio[1].core, "v1");
            assert_eq!(trio[2].queue, "naive");
            for s in trio {
                assert_eq!(s.makespan_secs, trio[0].makespan_secs);
                assert_eq!(s.switches, trio[0].switches);
                assert_eq!(s.events, trio[0].events);
                assert_eq!(s.requests, sc.total_requests());
            }
        }
        let json = to_json(&[Sweep {
            scenario: sc.clone(),
            samples: samples.clone(),
        }]);
        assert!(json.contains("\"schema\": \"BENCH_perf/v5\""));
        assert!(json.contains("\"queue\": \"naive\""));
        assert!(json.contains("\"core\": \"v2\""));
        assert!(json.contains("\"allocs_per_event\": null"));
        assert!(json.contains("\"arrival\": null"));
        assert!(json.contains("\"latency\": null"));
        assert_eq!(queue_speedups(&samples).len(), 2);
        assert_eq!(core_speedups(&samples).len(), 2);
        assert_eq!(table(&sc, &samples).rows.len(), 6);
    }

    #[test]
    fn multi_stream_cores_agree() {
        // The earliest-of-K wake-up path: with streams > 1 the v2
        // calendar loop sees superseded (stale) wake-ups and must still
        // reproduce the v1 schedule exactly.
        let sc = PerfScenario {
            tenants: 4,
            rounds: 3,
            objects_per_round: 8,
            groups: 2,
            policy: SchedPolicy::RankBased,
            streams: 4,
            arrival: None,
        };
        let samples = perf_sweep(
            &sc,
            &[1, 2],
            SweepOptions {
                skip_naive: true,
                ..Default::default()
            },
        );
        assert_eq!(samples.len(), 4);
    }

    #[test]
    fn skip_flags_run_v2_only() {
        let sc = PerfScenario {
            tenants: 2,
            rounds: 1,
            objects_per_round: 4,
            groups: 2,
            policy: SchedPolicy::MaxQueries,
            streams: 1,
            arrival: None,
        };
        let samples = perf_sweep(
            &sc,
            &[1],
            SweepOptions {
                skip_naive: true,
                skip_v1: true,
                ..Default::default()
            },
        );
        assert_eq!(samples.len(), 1);
        assert_eq!((samples[0].core, samples[0].queue), ("v2", "indexed"));
        assert!(queue_speedups(&samples).is_empty());
        assert!(core_speedups(&samples).is_empty());
    }

    #[test]
    fn million_scenario_is_actually_a_million() {
        assert!(PerfScenario::million().total_requests() >= 1_000_000);
    }

    #[test]
    fn fcfs_policies_agree_across_cores() {
        // The window/oldest-query scopes exercise the slab iteration
        // paths; pin v1 ≡ v2 ≡ naive on them too.
        for policy in [SchedPolicy::FcfsObject, SchedPolicy::FcfsSlack(4)] {
            let sc = PerfScenario {
                tenants: 3,
                rounds: 2,
                objects_per_round: 5,
                groups: 3,
                policy,
                streams: 1,
                arrival: None,
            };
            perf_sweep(&sc, &[1, 2], SweepOptions::default());
        }
    }

    /// A small but genuinely bursty open scenario: releases arrive in
    /// ~5 s ON spurts separated by ~60 s OFF silences while each round
    /// needs multiple seconds of transfer — queues build during bursts.
    fn bursty_scenario() -> PerfScenario {
        PerfScenario {
            tenants: 6,
            rounds: 4,
            objects_per_round: 8,
            groups: 3,
            policy: SchedPolicy::RankBased,
            streams: 2,
            arrival: Some(ArrivalProcess::OnOff {
                on_mean: SimDuration::from_secs(1),
                on_duration: SimDuration::from_secs(5),
                off_duration: SimDuration::from_secs(60),
                seed: 42,
            }),
        }
    }

    #[test]
    fn open_drive_is_deterministic_and_reports_tails() {
        let sc = bursty_scenario();
        let samples = open_sweep(
            &sc,
            &[1, 2],
            SweepOptions {
                repeats: 2,
                ..Default::default()
            },
        );
        assert_eq!(samples.len(), 2);
        for s in &samples {
            assert_eq!(s.core, "open");
            assert_eq!(s.requests, sc.total_requests());
            let l = s.latency.expect("open samples carry a latency block");
            assert_eq!(l.count, (sc.tenants * sc.rounds) as u64);
            // Quantiles are monotone and bracketed by mean-or-less/max.
            assert!(l.p50_secs <= l.p95_secs);
            assert!(l.p95_secs <= l.p99_secs);
            assert!(l.p99_secs <= l.p999_secs);
            assert!(l.p999_secs <= l.max_secs);
            assert!(l.mean_secs > 0.0 && l.max_secs >= l.mean_secs);
        }
        // Under bursty load the tail must actually see queueing: the
        // worst round waits far longer than the median one.
        let l = samples[0].latency.unwrap();
        assert!(
            l.max_secs > 2.0 * l.p50_secs,
            "no queueing tail: max {} vs p50 {}",
            l.max_secs,
            l.p50_secs
        );
        // The JSON carries the arrival tag and the latency block.
        let json = to_json(&[Sweep {
            scenario: sc.clone(),
            samples: samples.clone(),
        }]);
        assert!(json.contains(
            "\"arrival\": \"onoff:on_mean_us=1000000,on_us=5000000,off_us=60000000,seed=42\""
        ));
        assert!(json.contains("\"p999_secs\""));
        let t = table(&sc, &samples);
        assert_eq!(t.rows.len(), 2);
    }

    #[test]
    fn open_drive_sketch_matches_exact_quantiles_under_compression() {
        // Enough rounds that the sketch genuinely compresses (band =
        // ⌊2εn⌋ = 12 at n = 12 800 completions, well past the exact
        // regime), on a saturating Poisson load so responses spread
        // over a wide queueing range. The sketch's answer must sit
        // within ⌈εn⌉ ranks of the true order statistic.
        let sc = PerfScenario {
            tenants: 32,
            rounds: 400,
            objects_per_round: 4,
            groups: 4,
            policy: SchedPolicy::RankBased,
            streams: 1,
            arrival: Some(ArrivalProcess::Poisson {
                mean: SimDuration::from_millis(100),
                seed: 7,
            }),
        };
        let mut exact = Vec::new();
        let (sample, _) = drive_open::<RequestQueue>(&sc, 2, "indexed", None, Some(&mut exact));
        let l = sample.latency.unwrap();
        let n = exact.len();
        assert_eq!(n as u64, l.count);
        let epsilon = QuantileSketch::DEFAULT_EPSILON;
        assert!(
            2.0 * epsilon * n as f64 >= 10.0,
            "config too small to force sketch compression"
        );
        exact.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let err = (epsilon * n as f64).ceil() as usize;
        for (phi, got) in [
            (0.50, l.p50_secs),
            (0.95, l.p95_secs),
            (0.99, l.p99_secs),
            (0.999, l.p999_secs),
        ] {
            let rank = ((phi * n as f64).ceil() as usize).clamp(1, n);
            // Every index in `exact` where the sketch's answer appears.
            let lo = exact.partition_point(|&x| x < got) + 1; // 1-based
            let hi = exact.partition_point(|&x| x <= got);
            assert!(
                lo <= hi,
                "sketch answer {got} for phi={phi} is not an observed sample"
            );
            assert!(
                lo <= rank + err && hi + err >= rank,
                "phi={phi}: sketch rank range [{lo}, {hi}] misses target {rank} ± {err}"
            );
        }
    }
}
