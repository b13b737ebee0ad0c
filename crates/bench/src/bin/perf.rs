//! Wall-clock perf harness for the simulator's per-event hot path.
//!
//! Drives a large synthetic closed-loop scenario across the queue axis
//! (indexed `RequestQueue` vs the pre-index `NaiveQueue`), the core
//! axis (the pre-rebuild `v1` loop vs the million-request `v2` loop:
//! calendar-queue wake-ups, zero-allocation steady state, counters-mode
//! observability), prints the throughput table, and writes
//! `BENCH_perf.json` (schema `BENCH_perf/v5`).
//!
//! ```text
//! cargo run --release -p skipper-bench --bin perf
//! cargo run --release -p skipper-bench --bin perf -- --million --skip-naive
//! cargo run --release -p skipper-bench --bin perf -- \
//!     --tenants 64 --rounds 16 --objects 100 --groups 16 \
//!     --shards 1,2,4,8 --policy ranking --streams 4 \
//!     --arrival onoff:1,30,300 \
//!     --out BENCH_perf.json [--skip-naive] [--skip-v1] \
//!     [--floor <min v2 events/sec>] [--alloc-ceiling <max allocs/event>]
//! ```
//!
//! `--arrival <spec>` adds, for every planned sweep, an
//! open-arrival (`open`-core) sweep: rounds are *released* at instants
//! drawn from the given process (`poisson:MEAN`,
//! `onoff:ON_MEAN,ON_DUR,OFF_DUR`, or `diurnal:PEAK,PERIOD,TROUGH`;
//! seconds, fixed seed) instead of on completion of the previous round,
//! and each sample carries a p50/p95/p99/p999 response-time block from
//! the streaming quantile sketch.
//!
//! With `--floor`, the binary exits non-zero when any production-core
//! run on the indexed queue (`v2` or `open`) falls below the given
//! events/sec; with `--alloc-ceiling`, when any such run allocates
//! more than the given allocations per event over its drive loop — the
//! CI perf-smoke regression gates.
//!
//! This binary installs a counting `#[global_allocator]` (the library
//! crates forbid `unsafe`, so the probe lives here): every heap
//! allocation bumps a relaxed atomic, which the sweep samples around
//! each drive loop to report allocations/event.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use skipper_bench::experiments::perf::{
    core_speedups, open_sweep, queue_speedups, table, to_json, PerfScenario, Sweep, SweepOptions,
};
use skipper_bench::scenarios::{parse_arrival, parse_policy};
use skipper_core::runtime::ArrivalProcess;

/// Counts every allocation (alloc + realloc) on top of the system
/// allocator. Deallocation is not counted: the gauge is "how often does
/// the hot loop hit the allocator", not net memory.
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

fn allocation_count() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

fn main() {
    let mut sc = PerfScenario::default();
    let mut shard_counts: Vec<usize> = vec![1, 2, 4, 8];
    let mut out_path = String::from("BENCH_perf.json");
    let mut opts = SweepOptions {
        alloc_counter: Some(allocation_count),
        ..Default::default()
    };
    let mut floor: Option<f64> = None;
    let mut alloc_ceiling: Option<f64> = None;
    let mut with_million = false;
    let mut arrival: Option<ArrivalProcess> = None;

    let args: Vec<String> = std::env::args().skip(1).collect();
    // --million is a base configuration, not an override: apply it
    // before the flag loop so `--streams 4 --million` and
    // `--million --streams 4` mean the same thing.
    if args.iter().any(|a| a == "--million") {
        sc = PerfScenario::million();
    }
    let mut i = 0;
    while i < args.len() {
        let value = |i: &mut usize| -> &str {
            *i += 1;
            args.get(*i)
                .unwrap_or_else(|| panic!("missing value for {}", args[*i - 1]))
        };
        match args[i].as_str() {
            "--million" => {} // applied before the loop (order-independent)
            "--tenants" => sc.tenants = value(&mut i).parse().expect("--tenants"),
            "--rounds" => sc.rounds = value(&mut i).parse().expect("--rounds"),
            "--objects" => sc.objects_per_round = value(&mut i).parse().expect("--objects"),
            "--groups" => sc.groups = value(&mut i).parse().expect("--groups"),
            "--policy" => sc.policy = parse_policy(value(&mut i)),
            "--streams" => sc.streams = value(&mut i).parse().expect("--streams"),
            "--shards" => {
                shard_counts = value(&mut i)
                    .split(',')
                    .map(|s| s.parse().expect("--shards"))
                    .collect()
            }
            "--with-million" => with_million = true,
            "--arrival" => arrival = Some(parse_arrival(value(&mut i))),
            "--out" => out_path = value(&mut i).to_string(),
            "--skip-naive" => opts.skip_naive = true,
            "--skip-v1" => opts.skip_v1 = true,
            "--floor" => floor = Some(value(&mut i).parse().expect("--floor")),
            "--alloc-ceiling" => {
                alloc_ceiling = Some(value(&mut i).parse().expect("--alloc-ceiling"))
            }
            "--repeats" => opts.repeats = value(&mut i).parse().expect("--repeats"),
            other => panic!("unknown flag {other:?}"),
        }
        i += 1;
    }
    assert!(
        !shard_counts.is_empty(),
        "--shards needs at least one count"
    );

    // Each plan: scenario, shard counts, options.
    let mut plans: Vec<(PerfScenario, Vec<usize>, SweepOptions)> =
        vec![(sc.clone(), shard_counts, opts)];
    if with_million {
        // The ≥1M-request drive rides along on multi-shard fleets; the
        // naive queue is O(n²) at this depth and never runs here.
        let mut m = PerfScenario::million();
        m.policy = sc.policy;
        let mopts = SweepOptions {
            skip_naive: true,
            ..opts
        };
        plans.push((m, vec![1, 4, 8], mopts));
    }

    let mut sweeps: Vec<Sweep> = Vec::new();
    for (sc, shard_counts, opts) in plans {
        eprintln!(
            "driving {} requests ({} tenants x {} rounds x {} objects) on {:?} shard fleets...",
            sc.total_requests(),
            sc.tenants,
            sc.rounds,
            sc.objects_per_round,
            shard_counts
        );
        let sweep = Sweep::run(sc.clone(), &shard_counts, opts);
        println!("{}", table(&sweep.scenario, &sweep.samples));
        for (shards, x) in queue_speedups(&sweep.samples) {
            println!(
                "queue speedup @ {shards} shard(s): {x:.1}x (naive wall / indexed wall, v1 core)"
            );
        }
        for (shards, x) in core_speedups(&sweep.samples) {
            println!(
                "core speedup @ {shards} shard(s): {x:.1}x (v1 wall / v2 wall, indexed queue)"
            );
        }
        sweeps.push(sweep);
        if let Some(arrival) = &arrival {
            let osc = PerfScenario {
                arrival: Some(arrival.clone()),
                ..sc
            };
            eprintln!("open-arrival drive ({arrival:?}) on {shard_counts:?} shard fleets...");
            let samples = open_sweep(&osc, &shard_counts, opts);
            let sweep = Sweep {
                scenario: osc,
                samples,
            };
            println!("{}", table(&sweep.scenario, &sweep.samples));
            for s in &sweep.samples {
                if let Some(l) = s.latency {
                    println!(
                        "tail latency @ {} shard(s): p50 {:.1}s p95 {:.1}s p99 {:.1}s p999 {:.1}s max {:.1}s ({} rounds)",
                        s.shards, l.p50_secs, l.p95_secs, l.p99_secs, l.p999_secs, l.max_secs, l.count
                    );
                }
            }
            sweeps.push(sweep);
        }
    }

    let json = to_json(&sweeps);
    std::fs::write(&out_path, &json).unwrap_or_else(|e| panic!("writing {out_path}: {e}"));
    println!("wrote {out_path}");

    let production_samples = || {
        sweeps
            .iter()
            .flat_map(|sw| sw.samples.iter())
            .filter(|s| (s.core == "v2" || s.core == "open") && s.queue == "indexed")
    };
    if let Some(floor) = floor {
        let worst = production_samples()
            .map(|s| s.events_per_sec)
            .fold(f64::INFINITY, f64::min);
        if worst < floor {
            eprintln!("PERF REGRESSION: events/sec {worst:.0} below floor {floor:.0}");
            std::process::exit(1);
        }
        println!("perf floor ok: min production-core events/sec {worst:.0} >= {floor:.0}");
    }
    if let Some(ceiling) = alloc_ceiling {
        // The steady-state gauge is v2's — and the open core's, whose
        // quantile sketch must stay O(1) per event.
        let worst = production_samples()
            .filter_map(|s| s.allocs_per_event)
            .fold(0.0f64, f64::max);
        if worst > ceiling {
            eprintln!(
                "ALLOC REGRESSION: v2/open allocations/event {worst:.3} above ceiling {ceiling:.3}"
            );
            std::process::exit(1);
        }
        println!("alloc ceiling ok: max v2/open allocations/event {worst:.3} <= {ceiling:.3}");
    }
}
