//! Streaming-observability invariants.
//!
//! Two contracts guard the million-request observability rebuild:
//!
//! 1. **Merged-timeline exactness** — whole-run stall attribution now
//!    flattens every shard's span lists into one `MergedTimeline` (a
//!    single k-way merge) instead of re-scanning all traces per blocked
//!    interval. For every scheduling policy × shard count, the merged
//!    timeline must agree with the per-interval `attribute_union`
//!    reference on every probe interval — including the exact blocked
//!    intervals the records carry, via the `processing + stalls ==
//!    duration` identity the sharding suite also pins.
//! 2. **Bounded-memory modes** — a `TraceMode::Counters` +
//!    `LedgerMode::Counters` run must reproduce the Full run's
//!    schedule exactly (makespan, per-query times, device counters)
//!    while keeping no spans and no delivery ledger.

use std::sync::Arc;

use skipper::core::runtime::{
    LedgerMode, RecordMode, RunResult, Scenario, SkipperFactory, TraceMode, VanillaFactory,
    Workload,
};
use skipper::csd::SchedPolicy;
use skipper::datagen::{tpch, Dataset, GenConfig};
use skipper::sim::trace::Span;
use skipper::sim::{attribute_union, ActivityTrace, MergedTimeline, SimDuration, SimTime};

const GIB: u64 = 1 << 30;

fn dataset() -> Arc<Dataset> {
    Arc::new(tpch::dataset(
        &GenConfig::new(47, 4).with_phys_divisor(100_000),
    ))
}

/// Mixed tenants (batched Skipper, pull-based Vanilla, staggered third)
/// so the traces carry switches, overlapping transfers, and idle gaps.
fn scenario(ds: &Arc<Dataset>, sched: SchedPolicy, shards: usize) -> Scenario {
    let q12 = tpch::q12(ds);
    Scenario::from_workloads(vec![
        Workload::new(Arc::clone(ds))
            .repeat_query(q12.clone(), 2)
            .engine(SkipperFactory::default().cache_bytes(30 * GIB)),
        Workload::new(Arc::clone(ds))
            .repeat_query(q12.clone(), 1)
            .engine(VanillaFactory),
        Workload::new(Arc::clone(ds))
            .repeat_query(q12, 1)
            .engine(SkipperFactory::default().cache_bytes(30 * GIB))
            .start_at(SimDuration::from_secs(90)),
    ])
    .scheduler(sched)
    .shards(shards)
    .streams(2)
}

const SCHEDULERS: [SchedPolicy; 5] = [
    SchedPolicy::FcfsObject,
    SchedPolicy::FcfsSlack(4),
    SchedPolicy::FcfsQuery,
    SchedPolicy::MaxQueries,
    SchedPolicy::RankBased,
];

/// Every stream span list of every shard, as the attribution sees them.
fn span_lists(res: &RunResult) -> Vec<&[Span]> {
    res.shards
        .iter()
        .flat_map(|s| s.stream_span_lists())
        .collect()
}

/// The merged fleet timeline must equal the per-interval union
/// reference on every policy × shard count, over a probe grid spanning
/// the whole run.
#[test]
fn merged_timeline_matches_attribute_union_everywhere() {
    let ds = dataset();
    for &sched in &SCHEDULERS {
        for shards in [1usize, 2, 4] {
            let res = scenario(&ds, sched, shards).run();
            let lists = span_lists(&res);
            let timeline = MergedTimeline::build(&lists);
            let traces: Vec<ActivityTrace> = lists
                .iter()
                .map(|l| ActivityTrace::from_spans(l.iter().copied()))
                .collect();
            let trace_refs: Vec<&ActivityTrace> = traces.iter().collect();
            let label = format!("{sched:?} x {shards} shards");
            // Probe grid: 40 aligned windows + unaligned odd offsets +
            // degenerate and beyond-the-end intervals.
            let span = res.makespan.as_micros().max(1);
            let mut probes: Vec<(u64, u64)> = Vec::new();
            for i in 0..40u64 {
                let a = span * i / 40;
                let b = span * (i + 2) / 40;
                probes.push((a, b));
                probes.push((a + 13, b + 7919));
            }
            probes.push((0, span));
            probes.push((span / 3, span / 3)); // empty
            probes.push((span, span + 5_000_000)); // past the end
            for (a, b) in probes {
                let (from, to) = (SimTime::from_micros(a), SimTime::from_micros(b));
                assert_eq!(
                    timeline.attribute(from, to),
                    attribute_union(&trace_refs, from, to),
                    "{label}: [{a}, {b}) diverged"
                );
            }
        }
    }
}

/// Counters-mode runs must replay the Full-mode schedule exactly while
/// holding no spans and no ledger.
#[test]
fn counters_modes_reproduce_schedule_with_bounded_memory() {
    let ds = dataset();
    for &sched in &[SchedPolicy::RankBased, SchedPolicy::FcfsObject] {
        for shards in [1usize, 2] {
            let full = scenario(&ds, sched, shards).run();
            let lean = scenario(&ds, sched, shards)
                .trace_mode(TraceMode::Counters)
                .ledger_mode(LedgerMode::Counters)
                .run();
            let label = format!("{sched:?} x {shards} shards");
            assert_eq!(full.makespan, lean.makespan, "{label}: makespan drifted");
            assert_eq!(
                full.device.objects_served, lean.device.objects_served,
                "{label}"
            );
            assert_eq!(
                full.device.group_switches, lean.device.group_switches,
                "{label}"
            );
            assert_eq!(
                full.device.logical_bytes_served, lean.device.logical_bytes_served,
                "{label}"
            );
            // Per-query wall-clock schedule identical.
            let times = |r: &RunResult| -> Vec<(usize, u32, u64, u64)> {
                r.records()
                    .map(|q| (q.client, q.seq, q.start.as_micros(), q.end.as_micros()))
                    .collect()
            };
            assert_eq!(times(&full), times(&lean), "{label}: schedule drifted");
            // Bounded memory: no spans, no ledger entries anywhere.
            for shard in &lean.shards {
                assert!(shard.spans.is_empty(), "{label}: counters mode kept spans");
                assert!(
                    shard.extra_stream_spans.iter().all(|l| l.is_empty()),
                    "{label}: counters mode kept stream spans"
                );
                assert!(
                    shard.deliveries.is_empty(),
                    "{label}: counters mode kept a ledger"
                );
            }
            assert!(lean.delivery_multiset().is_empty(), "{label}");
            // Attribution degrades to idle (documented), but the totals
            // identity still holds: stalls.total() == blocked time.
            for rec in lean.records() {
                let accounted = rec.processing + rec.stalls.total();
                assert_eq!(accounted.as_micros(), rec.duration().as_micros(), "{label}");
            }
        }
    }
}

/// The per-query summaries (`total_gets`, `mean_query_secs`,
/// `cumulative_secs`) stream, so a `RecordMode::Counters` run reports
/// the same values as the Full run, and those equal the sums over the
/// Full run's records.
#[test]
fn counters_mode_keeps_query_summaries() {
    let ds = dataset();
    for shards in [1usize, 2] {
        let full = scenario(&ds, SchedPolicy::RankBased, shards).run();
        let lean = scenario(&ds, SchedPolicy::RankBased, shards)
            .record_mode(RecordMode::Counters)
            .run();
        let label = format!("{shards} shards");
        assert_eq!(
            lean.records().count(),
            0,
            "{label}: counters mode kept records"
        );

        let gets: u64 = full.records().map(|r| r.stats.gets_issued).sum();
        let micros: u64 = full.records().map(|r| r.duration().as_micros()).sum();
        let queries = full.records().count() as u64;
        assert_eq!(queries, 4, "{label}");
        assert!(gets > 0 && micros > 0, "{label}");
        let secs = micros as f64 / 1e6;
        for (mode, res) in [("full", &full), ("counters", &lean)] {
            assert_eq!(res.total_gets(), gets, "{label} {mode}");
            assert_eq!(res.cumulative_secs(), secs, "{label} {mode}");
            assert_eq!(
                res.mean_query_secs(),
                secs / queries as f64,
                "{label} {mode}"
            );
        }
    }
}

/// The borrowed-span timeline renderer must agree with rendering a
/// rebuilt trace (the old copying path).
#[test]
fn timeline_renders_from_borrowed_spans() {
    let ds = dataset();
    let res = scenario(&ds, SchedPolicy::RankBased, 2).run();
    let strip = res.timeline(64);
    assert_eq!(strip.chars().count(), 64);
    let rebuilt = ActivityTrace::from_spans(res.device_spans().iter().copied());
    assert_eq!(
        strip,
        skipper::sim::timeline::render(&rebuilt, SimTime::ZERO, res.makespan, 64)
    );
    let shard_strip = res.shard_timeline(1, 48);
    assert_eq!(shard_strip.chars().count(), 48);
}
