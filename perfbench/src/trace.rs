//! Outside-in tracing: timing wrappers around the two public seams the
//! runtime calls through (the tenant's `EngineFactory`/`QueryEngine` and
//! each device's `GroupScheduler`), spans kept in memory, and the layer
//! rows computed from them.

use std::cell::RefCell;
use std::io::Write;
use std::sync::Arc;
use std::time::Instant;

use skipper::core::config::CostModel;
use skipper::core::engine::{EngineStats, QueryEngine, Reaction};
use skipper::core::runtime::EngineFactory;
use skipper::csd::sched::{Decision, GroupScheduler, InFlight, QueueView, ServeScope};
use skipper::csd::{GroupId, ObjectId, SchedPolicy};
use skipper::datagen::Dataset;
use skipper::relational::query::QuerySpec;
use skipper::relational::segment::Segment;
use skipper::relational::tuple::Row;
use skipper::relational::value::Value;

/// Which seam a span was recorded at.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Site {
    /// Placement, layouts, object stores and devices.
    Assemble,
    /// `EngineFactory::build`.
    EngineBuild,
    /// `QueryEngine::start`.
    EngineStart,
    /// `QueryEngine::on_object`.
    EngineObject,
    /// Reading a finished or cancelled query's `stats()` and freeing its
    /// engine.
    EngineDrop,
    /// `GroupScheduler::decide`.
    SchedDecide,
    /// `GroupScheduler::on_switch_complete`.
    SchedSwitch,
}

impl Site {
    fn label(self) -> &'static str {
        match self {
            Site::Assemble => "runtime.scenario.assemble",
            Site::EngineBuild => "engine.build",
            Site::EngineStart => "engine.start",
            Site::EngineObject => "engine.on_object",
            Site::EngineDrop => "engine.drop",
            Site::SchedDecide => "csd.sched.decide",
            Site::SchedSwitch => "csd.sched.on_switch_complete",
        }
    }

    fn is_engine(self) -> bool {
        matches!(
            self,
            Site::EngineBuild | Site::EngineStart | Site::EngineObject | Site::EngineDrop
        )
    }

    fn is_sched(self) -> bool {
        matches!(self, Site::SchedDecide | Site::SchedSwitch)
    }
}

/// The parent of spans that serve no single query: scheduler calls
/// and assembly.
const NO_QUERY: u32 = u32::MAX;

/// One call into a layer: nanoseconds since the trace began, and the
/// heap allocations made inside the call.
#[derive(Clone, Copy, Debug)]
struct Span {
    site: Site,
    /// The query an engine span served; `NO_QUERY` elsewhere.
    parent: u32,
    start_ns: u64,
    end_ns: u64,
    allocs: u64,
}

impl Span {
    fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Everything one traced run recorded.
#[derive(Default)]
pub struct Trace {
    spans: Vec<Span>,
    /// `decide` calls that returned `Decision::Idle`.
    pub idle_decides: u64,
    /// Engine counters summed over every query, finished or cancelled.
    pub stats: EngineStats,
    /// Queries built, which numbers them.
    queries: u64,
    /// The tracer's own time and allocations after each span (recording
    /// it), which fall outside every span.
    pub bookkeeping: Tally,
}

struct Recorder {
    epoch: Instant,
    trace: Trace,
}

thread_local! {
    static RECORDER: RefCell<Recorder> = RefCell::new(Recorder {
        epoch: Instant::now(),
        trace: Trace::default(),
    });
}

/// Starts a fresh trace on this thread.
pub fn begin() {
    RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        r.epoch = Instant::now();
        r.trace = Trace::default();
    });
}

/// Ends the trace and hands back what it recorded.
pub fn finish() -> Trace {
    RECORDER.with(|r| std::mem::take(&mut r.borrow_mut().trace))
}

/// Runs `f` as one span at `site`.
fn timed<T>(site: Site, parent: u32, f: impl FnOnce() -> T) -> T {
    let a0 = crate::allocations();
    let t0 = Instant::now();
    let out = f();
    let t1 = Instant::now();
    let a1 = crate::allocations();
    RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        let epoch = r.epoch;
        r.trace.spans.push(Span {
            site,
            parent,
            start_ns: t0.duration_since(epoch).as_nanos() as u64,
            end_ns: t1.duration_since(epoch).as_nanos() as u64,
            allocs: a1 - a0,
        });
        let b = &mut r.trace.bookkeeping;
        b.calls += 1;
        b.allocs += crate::allocations() - a1;
        b.ns += t1.elapsed().as_nanos() as u64;
    });
    out
}

/// Wraps a tenant's engine factory so every query's engine is timed.
struct TimedFactory(Arc<dyn EngineFactory>);

/// `inner`, with every engine it builds timed. `Workload` holds its
/// factory in an `Arc`; the traced run stays on this thread.
#[allow(clippy::arc_with_non_send_sync)]
pub fn timed_factory(inner: Arc<dyn EngineFactory>) -> Arc<dyn EngineFactory> {
    Arc::new(TimedFactory(inner))
}

impl EngineFactory for TimedFactory {
    fn label(&self) -> &'static str {
        self.0.label()
    }

    fn build(
        &self,
        tenant: u16,
        dataset: &Dataset,
        spec: QuerySpec,
        cost: CostModel,
    ) -> Box<dyn QueryEngine> {
        let query = RECORDER.with(|r| {
            let mut r = r.borrow_mut();
            r.trace.queries += 1;
            r.trace.queries as u32
        });
        let inner = timed(Site::EngineBuild, query, || {
            self.0.build(tenant, dataset, spec, cost)
        });
        Box::new(TimedEngine {
            inner: Some(inner),
            query,
        })
    }

    fn preferred_scheduler(&self) -> SchedPolicy {
        self.0.preferred_scheduler()
    }
}

struct TimedEngine {
    /// Taken only by `drop`.
    inner: Option<Box<dyn QueryEngine>>,
    query: u32,
}

impl TimedEngine {
    fn inner(&self) -> &dyn QueryEngine {
        self.inner.as_deref().expect("engine present until drop")
    }

    fn inner_mut(&mut self) -> &mut dyn QueryEngine {
        self.inner
            .as_deref_mut()
            .expect("engine present until drop")
    }
}

impl QueryEngine for TimedEngine {
    fn name(&self) -> &'static str {
        self.inner().name()
    }

    fn start(&mut self) -> Vec<ObjectId> {
        let query = self.query;
        timed(Site::EngineStart, query, || self.inner_mut().start())
    }

    fn on_object(&mut self, object: ObjectId, payload: &Arc<Segment>) -> Reaction {
        let query = self.query;
        timed(Site::EngineObject, query, || {
            self.inner_mut().on_object(object, payload)
        })
    }

    fn is_finished(&self) -> bool {
        self.inner().is_finished()
    }

    fn result(&self) -> Vec<(Row, Vec<Value>)> {
        self.inner().result()
    }

    fn stats(&self) -> EngineStats {
        self.inner().stats()
    }
}

impl Drop for TimedEngine {
    /// Engines are dropped when their query finishes or is cancelled,
    /// so this sees every query's final counters exactly once. Reading
    /// them and freeing the engine are an engine span.
    fn drop(&mut self) {
        let Some(inner) = self.inner.take() else {
            return;
        };
        let s = timed(Site::EngineDrop, self.query, move || {
            let s = inner.stats();
            drop(inner);
            s
        });
        RECORDER.with(|r| {
            let t = &mut r.borrow_mut().trace.stats;
            t.gets_issued += s.gets_issued;
            t.reissues += s.reissues;
            t.objects_received += s.objects_received;
            t.probe_ops += s.probe_ops;
            t.subplans_executed += s.subplans_executed;
        });
    }
}

/// Wraps one device's scheduler so `decide` and `on_switch_complete`
/// are timed.
pub struct TimedScheduler(pub Box<dyn GroupScheduler>);

impl GroupScheduler for TimedScheduler {
    fn name(&self) -> &'static str {
        self.0.name()
    }

    fn decide(
        &mut self,
        queue: &dyn QueueView,
        active: Option<GroupId>,
        pipe: InFlight,
    ) -> Decision {
        let d = timed(Site::SchedDecide, NO_QUERY, || {
            self.0.decide(queue, active, pipe)
        });
        if d == Decision::Idle {
            RECORDER.with(|r| r.borrow_mut().trace.idle_decides += 1);
        }
        d
    }

    fn serve_scope(&self) -> ServeScope {
        self.0.serve_scope()
    }

    fn on_switch_complete(&mut self, queue: &dyn QueueView, loaded: GroupId) {
        timed(Site::SchedSwitch, NO_QUERY, || {
            self.0.on_switch_complete(queue, loaded)
        })
    }
}

/// Calls, nanoseconds and allocations summed over a set of spans.
#[derive(Clone, Copy, Debug, Default)]
pub struct Tally {
    pub calls: u64,
    pub ns: u64,
    pub allocs: u64,
}

impl Trace {
    /// Sums the spans whose site satisfies `keep`.
    pub fn tally(&self, keep: impl Fn(Site) -> bool) -> Tally {
        let mut t = Tally::default();
        for s in self.spans.iter().filter(|s| keep(s.site)) {
            t.calls += 1;
            t.ns += s.ns();
            t.allocs += s.allocs;
        }
        t
    }

    pub fn engine(&self) -> Tally {
        self.tally(Site::is_engine)
    }

    pub fn sched(&self) -> Tally {
        self.tally(Site::is_sched)
    }

    pub fn assemble(&self) -> Tally {
        self.tally(|s| s == Site::Assemble)
    }

    /// True when no two spans overlap. The seams never call into one
    /// another, so every span's self time is its whole duration and the
    /// layer rows plus the residual add up to the traced wall time.
    pub fn disjoint(&self) -> bool {
        self.spans.windows(2).all(|w| w[1].start_ns >= w[0].end_ns)
    }

    /// Writes every span as one tab-separated line.
    pub fn write_spans(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "site\tparent\tstart_ns\tend_ns\tallocs")?;
        for s in &self.spans {
            let parent = match s.parent {
                NO_QUERY => "-".to_string(),
                q => q.to_string(),
            };
            writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}",
                s.site.label(),
                parent,
                s.start_ns,
                s.end_ns,
                s.allocs
            )?;
        }
        out.flush()
    }
}

/// Times the assembly step as a span with no query.
pub fn assemble<T>(f: impl FnOnce() -> T) -> T {
    timed(Site::Assemble, NO_QUERY, f)
}
