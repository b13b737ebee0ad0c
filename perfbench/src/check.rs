//! The correctness gate: a run's virtual-time fingerprint, the pinned
//! fingerprint of every workload at the default seed, and invariants
//! that hold on any seed.
//!
//! Every count is read from fields that `RecordMode::Counters` keeps:
//! device and cache counters, the streaming latency summary and the
//! protection plane's per-tenant ledger. The per-record summaries
//! (`total_gets`, `mean_query_secs`) read 0 in that regime.

use skipper::core::runtime::RunResult;

/// Virtual-time outputs of one run, exact from run to run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Fingerprint {
    pub makespan_us: u64,
    pub group_switches: u64,
    pub objects_served: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub cache_fills: u64,
    pub completed: u64,
    pub offered: u64,
    pub p50_response_us: u64,
    pub p99_response_us: u64,
    pub deadline_misses: u64,
    pub sheds: u64,
    pub retries: u64,
    pub retry_exhausted: u64,
    pub hedges_fired: u64,
    pub hedge_losers_cancelled: u64,
    pub hedge_losers_discarded: u64,
    pub failovers: u64,
    pub fault_events: u64,
}

fn micros(secs: f64) -> u64 {
    (secs * 1e6).round() as u64
}

impl Fingerprint {
    pub fn of(r: &RunResult) -> Fingerprint {
        let response = r.latency.fleet.response;
        let p = &r.protection;
        Fingerprint {
            makespan_us: r.makespan.as_micros(),
            group_switches: r.device.group_switches,
            objects_served: r.device.objects_served,
            cache_hits: r.cache.hits(),
            cache_misses: r.cache.misses,
            cache_fills: r.cache.fills,
            completed: p.per_tenant.iter().map(|t| t.completed).sum(),
            offered: p.per_tenant.iter().map(|t| t.offered).sum(),
            p50_response_us: response.map_or(0, |q| micros(q.p50)),
            p99_response_us: response.map_or(0, |q| micros(q.p99)),
            deadline_misses: p.deadline_misses,
            sheds: p.sheds,
            retries: p.retries,
            retry_exhausted: p.retry_exhausted,
            hedges_fired: p.hedges_fired,
            hedge_losers_cancelled: p.hedge_losers_cancelled,
            hedge_losers_discarded: p.hedge_losers_discarded,
            failovers: r.availability.failovers,
            fault_events: r.availability.fault_events,
        }
    }

    /// Deliveries the fleet made: device transfers plus cache hits.
    pub fn deliveries(&self) -> u64 {
        self.objects_served + self.cache_hits
    }

    /// Queries offered but not completed: deadline misses, sheds,
    /// exhausted retries and abandoned queries.
    pub fn failed(&self) -> u64 {
        self.offered.saturating_sub(self.completed)
    }

    pub fn fields(&self) -> [(&'static str, u64); 19] {
        [
            ("makespan_us", self.makespan_us),
            ("group_switches", self.group_switches),
            ("objects_served", self.objects_served),
            ("cache_hits", self.cache_hits),
            ("cache_misses", self.cache_misses),
            ("cache_fills", self.cache_fills),
            ("completed", self.completed),
            ("offered", self.offered),
            ("p50_response_us", self.p50_response_us),
            ("p99_response_us", self.p99_response_us),
            ("deadline_misses", self.deadline_misses),
            ("sheds", self.sheds),
            ("retries", self.retries),
            ("retry_exhausted", self.retry_exhausted),
            ("hedges_fired", self.hedges_fired),
            ("hedge_losers_cancelled", self.hedge_losers_cancelled),
            ("hedge_losers_discarded", self.hedge_losers_discarded),
            ("failovers", self.failovers),
            ("fault_events", self.fault_events),
        ]
    }

    /// One line per field that differs from `want`.
    pub fn diff(&self, want: &Fingerprint) -> Vec<String> {
        self.fields()
            .iter()
            .zip(want.fields())
            .filter(|(got, want)| got.1 != want.1)
            .map(|(got, want)| format!("{}: got {}, want {}", got.0, got.1, want.1))
            .collect()
    }
}

/// What a workload's set-up says every run of it must show.
#[derive(Clone, Copy, Debug)]
pub struct Expect {
    /// Queries planned over all tenants.
    pub planned: u64,
    /// Deadlines, retries, hedges or faults are set.
    pub protected: bool,
    /// The shards have a cache.
    pub cached: bool,
}

/// Invariants that hold on every seed. Returns one line per violation.
pub fn invariants(r: &RunResult, expect: Expect) -> Vec<String> {
    let fp = Fingerprint::of(r);
    let mut bad = Vec::new();
    if !expect.cached && fp.cache_hits + fp.cache_misses != 0 {
        bad.push(format!(
            "no shard cache, yet {} hits and {} misses",
            fp.cache_hits, fp.cache_misses
        ));
    }
    if expect.cached && !expect.protected && fp.cache_misses != fp.objects_served {
        // Without hedges or retries each read looks in the cache once,
        // and exactly the misses go on to a device.
        bad.push(format!(
            "cache misses {} != device objects served {}",
            fp.cache_misses, fp.objects_served
        ));
    }
    if r.latency.fleet.count != fp.completed {
        bad.push(format!(
            "latency samples {} != completed queries {}",
            r.latency.fleet.count, fp.completed
        ));
    }
    if fp.offered != expect.planned {
        bad.push(format!(
            "offered {} != planned {}",
            fp.offered, expect.planned
        ));
    }
    if !expect.protected && fp.completed != fp.offered {
        bad.push(format!(
            "unprotected run completed {} of {} queries",
            fp.completed, fp.offered
        ));
    }
    if fp.deliveries() == 0 {
        bad.push("no deliveries".to_string());
    }
    bad
}

/// The fingerprint each workload gives at
/// [`DEFAULT_SEED`](crate::workloads::DEFAULT_SEED).
pub fn pinned(workload: &str) -> Option<Fingerprint> {
    Some(match workload {
        "closed_skipper" => Fingerprint {
            makespan_us: 36_646_856_869,
            group_switches: 10_232,
            objects_served: 12_800,
            completed: 1280,
            offered: 1280,
            p50_response_us: 7_326_254_592,
            p99_response_us: 7_326_254_592,
            ..Fingerprint::default()
        },
        "open_vanilla" => Fingerprint {
            makespan_us: 12_469_518_036,
            group_switches: 3192,
            objects_served: 3200,
            completed: 320,
            offered: 320,
            p50_response_us: 4_913_642_677,
            p99_response_us: 9_822_870_950,
            ..Fingerprint::default()
        },
        "cached_skewed" => Fingerprint {
            makespan_us: 13_751_727_337,
            group_switches: 2111,
            objects_served: 2139,
            cache_hits: 17_109,
            cache_misses: 2139,
            cache_fills: 2139,
            completed: 6406,
            offered: 6406,
            p50_response_us: 16_866_000,
            p99_response_us: 1_096_627_642,
            ..Fingerprint::default()
        },
        "protected_outage" => Fingerprint {
            makespan_us: 208_351_941_409,
            group_switches: 7587,
            objects_served: 20_256,
            completed: 1920,
            offered: 1920,
            p50_response_us: 90_702_091,
            p99_response_us: 239_069_906,
            retries: 4,
            hedges_fired: 3979,
            hedge_losers_cancelled: 2923,
            hedge_losers_discarded: 961,
            failovers: 156,
            fault_events: 6,
            ..Fingerprint::default()
        },
        _ => return None,
    })
}
