//! `--trace 1`: traced runs beside untraced ones, and the layer table.
//!
//! Layers are timed from outside, at the seams the runtime calls
//! through: the assembly steps, every tenant's engine, and each device's
//! scheduler. Everything else inside `Runtime::run` (event core,
//! fleet/pump routing, device bookkeeping, shard cache, collector) has no
//! public seam and stays one residual row: traced wall time minus the
//! timed layers.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use skipper::core::runtime::RunResult;

use crate::check::Fingerprint;
use crate::trace::{self, Site, Tally, Trace};
use crate::{allocations, check_run, ratio, setup, table, Args, Metric, Report};

/// The metrics and table rows of one traced run.
struct Sample {
    wall_s: f64,
    metrics: Vec<Metric>,
    rows: Vec<Vec<String>>,
}

/// Alternates untraced and traced runs for `--seconds`, then reports the
/// traced run with the median wall time.
pub fn traced(args: &Args) -> Report {
    let window = Duration::from_secs_f64(args.seconds);
    let began = Instant::now();
    let (mut reference, mut errors) = (None, Vec::new());
    let mut samples = Vec::new();
    let mut last = Trace::default();
    while samples.is_empty() || began.elapsed() < window {
        let (sample, trace) = traced_pair(args, &mut reference, &mut errors);
        samples.push(sample);
        last = trace;
    }
    let spans =
        PathBuf::from(".bench_out").join(format!("{}-seed{}.spans.tsv", args.workload, args.seed));
    if let Err(e) = last.write_spans(&spans) {
        errors.push(format!("writing {}: {e}", spans.display()));
    }
    let runs = 2 * samples.len() as u64;
    samples.sort_by(|a, b| a.wall_s.total_cmp(&b.wall_s));
    let mid = samples.swap_remove(samples.len() / 2);
    let value = |name: &str| {
        mid.metrics
            .iter()
            .find(|m| m.0 == name)
            .map_or(0.0, |m| m.1)
    };
    let mut tables = table(
        &[
            "workload",
            "layer",
            "calls",
            "self (s)",
            "share (%)",
            "ns/delivery",
            "allocs/delivery",
        ],
        &mid.rows,
    );
    tables.push_str(&format!(
        "median of {} traced runs: traced wall {:.4} s, tracing overhead {:.4} s over the \
         untraced run; spans of the last traced run in {}\n",
        runs / 2,
        mid.wall_s,
        value("trace.overhead_s"),
        spans.display()
    ));
    tables.push_str(&table(
        &["workload", "metric", "value", "unit"],
        &mid.metrics
            .iter()
            .map(|(name, v, unit)| {
                vec![
                    args.workload.clone(),
                    name.to_string(),
                    format!("{v}"),
                    unit.to_string(),
                ]
            })
            .collect::<Vec<_>>(),
    ));
    Report {
        fingerprint: reference.expect("at least one run"),
        runs,
        errors,
        metrics: mid.metrics,
        tables,
    }
}

/// One untraced run, then one traced run of the same inputs.
fn traced_pair(
    args: &Args,
    reference: &mut Option<Fingerprint>,
    errors: &mut Vec<String>,
) -> (Sample, Trace) {
    let s = setup(args);
    let expect = s.expect();
    let protected = expect.protected;
    let scenario = s.scenario();
    let t0 = Instant::now();
    let r = scenario.run();
    let untraced_wall_s = t0.elapsed().as_secs_f64();
    let untraced = check_run(&r, expect, reference, errors);
    drop(r);

    let mut s = setup(args);
    for w in &mut s.tenants {
        w.engine = trace::timed_factory(Arc::clone(&w.engine));
    }
    let gen_s = s.gen_s;
    let mut assemble_s = 0.0;
    if protected {
        // Faults and protection reach the runtime only through
        // `Scenario::run`, so the schedulers stay unwrapped and the
        // assembly is timed on a copy built before the run.
        let t = Instant::now();
        drop(s.devices(|sched| sched));
        assemble_s = t.elapsed().as_secs_f64();
    }
    let run: Box<dyn FnOnce() -> RunResult> = if protected {
        let scenario = s.scenario();
        Box::new(move || scenario.run())
    } else {
        Box::new(move || {
            let (devices, replicas) =
                trace::assemble(|| s.devices(|sched| Box::new(trace::TimedScheduler(sched))));
            s.run_assembled(devices, replicas)
        })
    };
    trace::begin();
    let a0 = allocations();
    let t0 = Instant::now();
    let r = run();
    let wall_s = t0.elapsed().as_secs_f64();
    let allocs = allocations() - a0;
    let tr = trace::finish();

    let fp = check_run(&r, expect, reference, errors);
    errors.extend(
        fp.diff(&untraced)
            .into_iter()
            .map(|d| format!("traced run differs from untraced: {d}")),
    );
    if !tr.disjoint() {
        errors.push("traced spans overlap".to_string());
    }
    let consumed = tr.tally(|s| s == Site::EngineObject).calls;
    if !protected && consumed != fp.deliveries() {
        // Without hedging or cancellation every delivery reaches an
        // engine exactly once.
        errors.push(format!(
            "engines consumed {consumed} deliveries, the fleet made {}",
            fp.deliveries()
        ));
    }
    if !protected {
        assemble_s = tr.assemble().ns as f64 / 1e9;
    }
    let traced = Traced {
        r: &r,
        tr: &tr,
        wall_s,
        allocs,
        untraced_wall_s,
        gen_s,
        assemble_s,
        protected,
    };
    let sample = Sample {
        wall_s,
        metrics: traced.metrics(),
        rows: traced.rows(&args.workload),
    };
    (sample, tr)
}

/// A finished traced run and what it is compared with.
struct Traced<'a> {
    r: &'a RunResult,
    tr: &'a Trace,
    wall_s: f64,
    allocs: u64,
    untraced_wall_s: f64,
    gen_s: f64,
    assemble_s: f64,
    /// Assembly and scheduler ran inside `Scenario::run`, untimed.
    protected: bool,
}

impl Traced<'_> {
    fn deliveries(&self) -> f64 {
        Fingerprint::of(self.r).deliveries() as f64
    }

    /// Wall time and allocations neither inside a timed layer nor the
    /// tracer's own bookkeeping.
    fn residual(&self) -> (f64, f64) {
        let timed = [
            self.tr.assemble(),
            self.tr.engine(),
            self.tr.sched(),
            self.tr.bookkeeping,
        ];
        let ns: u64 = timed.iter().map(|t| t.ns).sum();
        let allocs: u64 = timed.iter().map(|t| t.allocs).sum();
        (
            self.wall_s * 1e9 - ns as f64,
            self.allocs as f64 - allocs as f64,
        )
    }

    fn metrics(&self) -> Vec<Metric> {
        let (r, tr) = (self.r, self.tr);
        let deliveries = self.deliveries();
        let wall_ns = self.wall_s * 1e9;
        let (eng, sch) = (tr.engine(), tr.sched());
        let build = tr.tally(|s| s == Site::EngineBuild);
        let decide = tr.tally(|s| s == Site::SchedDecide);
        let (residual_ns, residual_allocs) = self.residual();
        let busy: u64 = r
            .shards
            .iter()
            .map(|s| s.metrics.transfer_busy_micros)
            .sum();
        let shard_us = r.makespan.as_micros() as f64 * r.shards.len() as f64;
        let p = &r.protection;
        let stats = &tr.stats;
        vec![
            ("datagen.gen_s", self.gen_s, "s"),
            ("runtime.scenario.assemble_s", self.assemble_s, "s"),
            ("engine.calls", eng.calls as f64, "count"),
            ("engine.self_share", eng.ns as f64 / wall_ns, "ratio"),
            ("engine.ns_per_delivery", eng.ns as f64 / deliveries, "ns"),
            (
                "engine.allocs_per_delivery",
                eng.allocs as f64 / deliveries,
                "count",
            ),
            (
                "engine.build_ns_per_query",
                ratio(build.ns as f64, build.calls as f64),
                "ns",
            ),
            ("engine.gets_issued", stats.gets_issued as f64, "count"),
            (
                "engine.reissue_ratio",
                ratio(stats.reissues as f64, stats.gets_issued as f64),
                "ratio",
            ),
            (
                "engine.subplans_executed",
                stats.subplans_executed as f64,
                "count",
            ),
            ("engine.probe_ops", stats.probe_ops as f64, "count"),
            ("csd.sched.decide_calls", decide.calls as f64, "count"),
            ("csd.sched.self_share", sch.ns as f64 / wall_ns, "ratio"),
            (
                "csd.sched.ns_per_decide",
                ratio(decide.ns as f64, decide.calls as f64),
                "ns",
            ),
            (
                "csd.sched.allocs_per_decide",
                ratio(decide.allocs as f64, decide.calls as f64),
                "count",
            ),
            (
                "csd.sched.idle_decide_share",
                ratio(tr.idle_decides as f64, decide.calls as f64),
                "ratio",
            ),
            (
                "csd.device.group_switches",
                r.device.group_switches as f64,
                "count",
            ),
            (
                "csd.device.objects_served",
                r.device.objects_served as f64,
                "count",
            ),
            (
                "csd.device.transfer_busy_share",
                ratio(busy as f64, shard_us),
                "ratio",
            ),
            (
                "csd.device.requests_cancelled",
                r.device.requests_cancelled as f64,
                "count",
            ),
            ("csd.cache.lookups", r.cache.lookups() as f64, "count"),
            ("csd.cache.hit_rate", r.cache.hit_rate(), "ratio"),
            ("csd.cache.fills", r.cache.fills as f64, "count"),
            ("csd.cache.evictions", r.cache.evictions as f64, "count"),
            (
                "runtime.protect.hedges_fired",
                p.hedges_fired as f64,
                "count",
            ),
            (
                "runtime.protect.hedge_waste",
                ratio(
                    (p.hedge_losers_cancelled + p.hedge_losers_discarded) as f64,
                    p.hedges_fired as f64,
                ),
                "ratio",
            ),
            ("runtime.protect.retries", p.retries as f64, "count"),
            (
                "runtime.protect.deadline_misses",
                p.deadline_misses as f64,
                "count",
            ),
            (
                "runtime.fault.failovers",
                r.availability.failovers as f64,
                "count",
            ),
            (
                "runtime.fault.availability",
                r.availability.availability,
                "ratio",
            ),
            ("runtime.residual_share", residual_ns / wall_ns, "ratio"),
            (
                "runtime.residual_ns_per_delivery",
                residual_ns / deliveries,
                "ns",
            ),
            (
                "runtime.residual_allocs_per_delivery",
                residual_allocs / deliveries,
                "count",
            ),
            ("trace.overhead_s", self.wall_s - self.untraced_wall_s, "s"),
        ]
    }

    /// The layer table: one row per layer, the tracer's bookkeeping, the
    /// residual, then the traced wall, which the rows above it sum to.
    fn rows(&self, workload: &str) -> Vec<Vec<String>> {
        let deliveries = self.deliveries();
        let wall_ns = self.wall_s * 1e9;
        let row = |layer: &str, calls: String, ns: f64, allocs: f64| {
            vec![
                workload.to_string(),
                layer.to_string(),
                calls,
                format!("{:.4}", ns / 1e9),
                format!("{:.1}", 100.0 * ns / wall_ns),
                format!("{:.0}", ns / deliveries),
                format!("{:.2}", allocs / deliveries),
            ]
        };
        let timed =
            |layer: &str, t: Tally| row(layer, t.calls.to_string(), t.ns as f64, t.allocs as f64);
        let untimed = |layer: &str| {
            let mut r = vec!["-".to_string(); 7];
            r[0] = workload.to_string();
            r[1] = format!("{layer} (in residual)");
            r
        };
        let (residual_ns, residual_allocs) = self.residual();
        vec![
            if self.protected {
                untimed("runtime.scenario")
            } else {
                timed("runtime.scenario", self.tr.assemble())
            },
            timed("engine", self.tr.engine()),
            if self.protected {
                untimed("csd.sched")
            } else {
                timed("csd.sched", self.tr.sched())
            },
            timed("trace.bookkeeping", self.tr.bookkeeping),
            row("runtime.residual", "-".into(), residual_ns, residual_allocs),
            row("traced wall", "-".into(), wall_ns, self.allocs as f64),
        ]
    }
}
