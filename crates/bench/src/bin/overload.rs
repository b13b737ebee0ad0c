//! Overload/outage protection sweep + CI smoke gate.
//!
//! Drives two fleets through the protection-plane grid and writes
//! `BENCH_overload.json` (schema `BENCH_overload/v1`):
//!
//! * **Burst** — four open-arrival tenants whose synchronized on/off
//!   bursts saturate a 2-shard fleet (one tenant runs at elevated
//!   priority), swept across {unprotected, deadline-only, admission
//!   shed, admission backpressure}. The headline: priority-scaled
//!   shedding holds the survivors' response p99 far under the
//!   unprotected tail while the high-priority tenant keeps its
//!   throughput.
//! * **Outage** — three open-arrival tenants on a 4-shard
//!   `Replicated { k: 2 }` fleet with one shard browned out to 5 %
//!   bandwidth, unhedged vs hedged. The headline: hedging re-issues
//!   the slow shard's reads to the healthy replica and cuts the
//!   brown-out response p99.
//!
//! The smoke gates (any violation exits non-zero — the CI
//! overload-smoke regression gate):
//!
//! 1. **Disabled ⇒ byte-exact** — the burst fleet with every knob at
//!    its default, but a non-default scenario seed and an explicit
//!    `RetryPolicy::None`, reproduces the knob-free `RunResult` bit
//!    for bit, and its [`ProtectionSummary`] is quiet.
//! 2. **Consumption conservation** — the hedged brown-out run consumes
//!    exactly the clean (fault-free, hedge-free) run's delivery
//!    multiset: duplicate hedge copies are cancelled or discarded,
//!    never double-processed.
//! 3. **Determinism** — repeating the hedged run and the shed run
//!    reproduces them bit for bit.
//! 4. **Headline direction** — shed p99 < unprotected p99 under the
//!    burst, hedged p99 < unhedged p99 under the brown-out.
//! 5. **`--alloc-ceiling C`** — allocations per delivered object on
//!    the hedged run stay ≤ `C`: the protection hot path must not
//!    re-introduce per-event heap traffic.
//!
//! ```text
//! cargo run --release -p skipper-bench --bin overload -- \
//!     --alloc-ceiling 300 --out BENCH_overload.json
//! ```

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use skipper_bench::scenarios::secs;
use skipper_core::runtime::{
    AdmissionPolicy, AdmissionResponse, ArrivalProcess, BasePlacement, FaultPlan, PlacementPolicy,
    RetryPolicy, RunResult, Scenario, SkipperFactory, Workload,
};
use skipper_csd::SchedPolicy;
use skipper_datagen::{tpch, Dataset, GenConfig};
use skipper_sim::SimDuration;

/// Counts every allocation (alloc + realloc) on top of the system
/// allocator, as in the perf harness: the gauge is allocator traffic,
/// not net memory.
struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: delegates directly to `System`, which upholds the GlobalAlloc
// contract; the counter bump has no effect on allocation semantics.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// The saturating burst fleet: four tenants firing synchronized on/off
/// bursts (2 s between releases for 30 s, then 150 s quiet) at a
/// 2-shard fleet whose per-query service time is ~50 s — each burst
/// piles up far more work than the shards can drain before the next.
/// Tenant 0 runs at priority 3; the rest at 0.
fn burst_scenario(ds: &Arc<Dataset>) -> Scenario {
    let q12 = tpch::q12(ds);
    let workloads: Vec<Workload> = (0..4)
        .map(|i| {
            Workload::new(Arc::clone(ds))
                .repeat_query(q12.clone(), 8)
                .engine(SkipperFactory::default().cache_bytes(30 << 30))
                .arrival(ArrivalProcess::OnOff {
                    on_mean: SimDuration::from_secs(2),
                    on_duration: SimDuration::from_secs(30),
                    off_duration: SimDuration::from_secs(150),
                    seed: 42,
                })
                .priority(if i == 0 { 3 } else { 0 })
        })
        .collect();
    Scenario::from_workloads(workloads)
        .shards(2)
        .placement(PlacementPolicy::RoundRobin)
        .scheduler(SchedPolicy::RankBased)
        .slo_target(SimDuration::from_secs(300))
}

/// The admission policy for the burst sweep: a shard over 6 queued
/// requests (priority-scaled) refuses new arrivals.
fn admission(response: AdmissionResponse) -> AdmissionPolicy {
    AdmissionPolicy {
        max_queue_depth: 6,
        max_queued_bytes: u64::MAX >> 8,
        response,
        breaker: None,
    }
}

/// The outage fleet: three Poisson tenants on a 4-shard
/// `Replicated { k: 2 }` fleet; the fault plan browns shard 0 out to
/// 5 % bandwidth for the whole run.
fn outage_scenario(ds: &Arc<Dataset>, faulted: bool) -> Scenario {
    let q12 = tpch::q12(ds);
    let workloads: Vec<Workload> = (0..3)
        .map(|_| {
            Workload::new(Arc::clone(ds))
                .repeat_query(q12.clone(), 8)
                .engine(SkipperFactory::default().cache_bytes(30 << 30))
                .arrival(ArrivalProcess::Poisson {
                    mean: SimDuration::from_secs(25),
                    seed: 42,
                })
        })
        .collect();
    let s = Scenario::from_workloads(workloads)
        .shards(4)
        .placement(PlacementPolicy::Replicated {
            k: 2,
            base: BasePlacement::RoundRobin,
        })
        .scheduler(SchedPolicy::RankBased)
        .slo_target(SimDuration::from_secs(300));
    if faulted {
        s.faults(FaultPlan::new().degraded(0, secs(0), secs(8000), 0.05))
    } else {
        s
    }
}

/// Response p99 in seconds (open-arrival runs always have quantiles).
fn p99(res: &RunResult) -> f64 {
    res.latency
        .fleet
        .response
        .as_ref()
        .expect("open-arrival run has response quantiles")
        .p99
}

/// One JSON sample row for a grid cell.
fn json_row(experiment: &str, label: &str, res: &RunResult) -> String {
    let q = res
        .latency
        .fleet
        .response
        .as_ref()
        .expect("open-arrival run has response quantiles");
    let slo = res.latency.fleet.slo.as_ref().expect("SLO target declared");
    let p = &res.protection;
    let offered: u64 = p.per_tenant.iter().map(|t| t.offered).sum();
    let completed: u64 = p.per_tenant.iter().map(|t| t.completed).sum();
    format!(
        "    {{\"experiment\": \"{experiment}\", \"config\": \"{label}\", \
         \"p50_secs\": {:.6}, \"p99_secs\": {:.6}, \"p999_secs\": {:.6}, \
         \"max_secs\": {:.6}, \"mean_secs\": {:.6}, \"completions\": {}, \
         \"offered\": {offered}, \"completed\": {completed}, \
         \"slo_met\": {}, \"slo_total\": {}, \
         \"deadline_misses\": {}, \"sheds\": {}, \"deferrals\": {}, \
         \"retries\": {}, \"hedges_fired\": {}, \"hedge_wins\": {}, \
         \"breaker_trips\": {}, \"availability\": {:.6}}}",
        q.p50,
        q.p99,
        q.p999,
        res.latency.fleet.max_secs,
        res.latency.fleet.mean_secs,
        res.latency.fleet.count,
        slo.met,
        slo.total,
        p.deadline_misses,
        p.sheds,
        p.backpressure_deferrals,
        p.retries,
        p.hedges_fired,
        p.hedge_wins,
        p.breaker_trips,
        res.availability.availability,
    )
}

fn main() {
    let mut out_path = String::from("BENCH_overload.json");
    let mut alloc_ceiling: Option<f64> = None;
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--out" => {
                i += 1;
                out_path = args.get(i).expect("missing value for --out").to_string();
            }
            "--alloc-ceiling" => {
                i += 1;
                let v = args.get(i).expect("missing value for --alloc-ceiling");
                alloc_ceiling = Some(v.parse().expect("--alloc-ceiling"));
            }
            other => panic!("unknown flag {other:?}"),
        }
        i += 1;
    }

    let ds = Arc::new(tpch::dataset(
        &GenConfig::new(21, 4).with_phys_divisor(100_000),
    ));

    let mut failures = 0u32;
    let mut check = |ok: bool, label: &str| {
        if ok {
            println!("ok   {label}");
        } else {
            eprintln!("FAIL {label}");
            failures += 1;
        }
    };

    // ---- burst sweep -------------------------------------------------
    eprintln!("running burst grid...");
    let unprotected = burst_scenario(&ds).run();
    let deadline_only = burst_scenario(&ds)
        .deadline(SimDuration::from_secs(150))
        .run();
    let shed = burst_scenario(&ds)
        .admission(admission(AdmissionResponse::Shed))
        .run();
    let backpressure = burst_scenario(&ds)
        .admission(admission(AdmissionResponse::Backpressure(
            SimDuration::from_secs(45),
        )))
        .run();

    // ---- outage sweep ------------------------------------------------
    eprintln!("running outage grid...");
    let clean = outage_scenario(&ds, false).run();
    let unhedged = outage_scenario(&ds, true).run();
    let hedged = outage_scenario(&ds, true)
        .hedge_after(SimDuration::from_secs(8))
        .run();

    let rows = [
        json_row("burst", "unprotected", &unprotected),
        json_row("burst", "deadline-150s", &deadline_only),
        json_row("burst", "admission-shed", &shed),
        json_row("burst", "admission-backpressure", &backpressure),
        json_row("outage", "clean", &clean),
        json_row("outage", "unhedged", &unhedged),
        json_row("outage", "hedged-8s", &hedged),
    ];
    let json = format!(
        "{{\n  \"schema\": \"BENCH_overload/v1\",\n  \"samples\": [\n{}\n  ],\n  \
         \"headline\": {{\"unprotected_burst_p99_secs\": {:.6}, \
         \"admission_shed_p99_secs\": {:.6}, \"unhedged_outage_p99_secs\": {:.6}, \
         \"hedged_outage_p99_secs\": {:.6}}}\n}}\n",
        rows.join(",\n"),
        p99(&unprotected),
        p99(&shed),
        p99(&unhedged),
        p99(&hedged),
    );
    std::fs::write(&out_path, &json).unwrap_or_else(|e| panic!("writing {out_path}: {e}"));
    println!("wrote {out_path}");

    // Gate 1: every knob disabled — but a non-default seed and an
    // explicit RetryPolicy::None — is byte-for-byte today's machine.
    let explicit = burst_scenario(&ds).seed(7).retry(RetryPolicy::None).run();
    check(
        explicit == unprotected,
        "disabled protection plane is byte-identical (seed + explicit RetryPolicy::None)",
    );
    check(
        unprotected.protection.is_quiet(),
        "unprotected run's protection summary is quiet",
    );

    // Gate 2: hedge duplicates are consumed at most once — the hedged
    // brown-out run consumes exactly the clean run's delivery multiset.
    check(hedged.protection.hedges_fired > 0, "brown-out fires hedges");
    check(
        hedged.consumed_multiset() == clean.delivery_multiset(),
        "hedged consumption multiset == clean delivery multiset (conservation)",
    );

    // Gate 3: determinism on the protected cells.
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let repeat_hedged = outage_scenario(&ds, true)
        .hedge_after(SimDuration::from_secs(8))
        .run();
    let allocs = ALLOCATIONS.load(Ordering::Relaxed) - before;
    let per_delivery = allocs as f64 / repeat_hedged.device.objects_served.max(1) as f64;
    check(
        repeat_hedged == hedged,
        "repeated hedged run is bit-identical",
    );
    let repeat_shed = burst_scenario(&ds)
        .admission(admission(AdmissionResponse::Shed))
        .run();
    check(repeat_shed == shed, "repeated shed run is bit-identical");

    // Gate 4: the headline directions the JSON records.
    check(
        shed.protection.sheds > 0,
        "saturating burst triggers shedding",
    );
    check(
        p99(&shed) < p99(&unprotected),
        &format!(
            "admission shedding holds p99: {:.1}s < unprotected {:.1}s",
            p99(&shed),
            p99(&unprotected)
        ),
    );
    check(
        p99(&hedged) < p99(&unhedged),
        &format!(
            "hedging (k = 2) cuts the brown-out p99: {:.1}s < unhedged {:.1}s",
            p99(&hedged),
            p99(&unhedged)
        ),
    );

    println!(
        "     burst p99: unprotected {:.1}s, deadline {:.1}s, shed {:.1}s \
         ({} sheds), backpressure {:.1}s ({} deferrals)",
        p99(&unprotected),
        p99(&deadline_only),
        p99(&shed),
        shed.protection.sheds,
        p99(&backpressure),
        backpressure.protection.backpressure_deferrals,
    );
    println!(
        "     outage p99: clean {:.1}s, unhedged {:.1}s, hedged {:.1}s \
         ({} hedges, {} wins); {:.1} allocations/delivery on the hedged run",
        p99(&clean),
        p99(&unhedged),
        p99(&hedged),
        hedged.protection.hedges_fired,
        hedged.protection.hedge_wins,
        per_delivery,
    );
    if let Some(ceiling) = alloc_ceiling {
        check(
            per_delivery <= ceiling,
            &format!("allocations/delivery {per_delivery:.1} <= {ceiling:.1}"),
        );
    }

    if failures > 0 {
        eprintln!("OVERLOAD REGRESSION: {failures} gate(s) violated");
        std::process::exit(1);
    }
    println!(
        "overload smoke clean: byte-identity, conservation, determinism, headline gates all hold"
    );
}
