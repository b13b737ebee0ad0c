//! Group-switch scheduling.
//!
//! At any instant the CSD holds a set of pending GET requests, tagged with
//! query identifiers by the Skipper client proxy, spread across disk
//! groups. The scheduler answers the three questions of §4.4:
//!
//! 1. **Which group to switch to?** — policy-specific ([`FcfsObject`],
//!    [`FcfsQuery`], [`MaxQueries`], [`RankBased`]).
//! 2. **When to switch?** — no preemption: the group-centric policies
//!    serve every pending request on the loaded group before switching
//!    (shown optimal for tertiary storage by Prabhakar et al.); the FCFS
//!    policies serve only their fairness scope, which is precisely why
//!    they cause extra switches.
//! 3. **What ordering within a group?** — the device's
//!    [`IntraGroupOrder`](crate::device::IntraGroupOrder) policy
//!    (semantically-smart round-robin across tables vs naive per-table).
//!
//! The scheduler is a pure decision function over the pending-request
//! queue plus whatever internal fairness state it keeps (the rank-based
//! policy tracks per-query waiting times, measured in group switches).
//!
//! # The queue view
//!
//! Policies do not scan the raw request list. They consume a
//! [`QueueView`]: per-group aggregates ([`GroupStats`]), ordered lookups
//! (globally-oldest request, a query's oldest request, the *k*-oldest
//! window) and the residency snapshot — all maintained incrementally by
//! the production [`RequestQueue`](queue::RequestQueue) in O(log n) per
//! submit/serve. The pre-indexing full-rescan semantics survive as
//! [`NaiveQueue`](naive::NaiveQueue), the reference implementation the
//! differential tests and the `skipper-bench --bin perf` baseline run
//! against.
//!
//! Instead of returning request indices, a policy describes *which*
//! requests may be served during the current residency as a declarative
//! [`ServeScope`]; the queue resolves the scope plus the device's
//! intra-group order to a concrete request without rescanning.

mod fcfs;
mod max_queries;
pub mod naive;
pub mod queue;
mod rank;
mod slack;

pub use fcfs::{FcfsObject, FcfsQuery};
pub use max_queries::MaxQueries;
pub use naive::NaiveQueue;
pub use queue::{RequestIndex, RequestQueue};
pub use rank::RankBased;
pub use slack::FcfsSlack;

use std::collections::HashSet;

use skipper_sim::SimTime;

use crate::object::{GroupId, ObjectId, QueryId};

/// The set of request sequence numbers captured when the active group was
/// loaded (or re-picked). Group-centric policies serve exactly this
/// *residency snapshot* before re-deciding — the §4.4 non-preemption rule
/// applied to "the set of active requests", so a steady stream of new
/// arrivals cannot pin the device to one group forever.
///
/// The production [`RequestQueue`](queue::RequestQueue) tracks residency
/// as per-group membership sets updated O(log n) per request; this alias
/// survives for the [`NaiveQueue`](naive::NaiveQueue) reference
/// implementation, which still probes a flat seq set per request.
pub type Residency = HashSet<u64>;

/// One queued GET request as seen by the scheduler.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PendingRequest {
    /// Requested object.
    pub object: ObjectId,
    /// The query this GET belongs to (client-proxy tag).
    pub query: QueryId,
    /// Issuing client index.
    pub client: usize,
    /// Disk group housing the object.
    pub group: GroupId,
    /// Logical object size, captured from the store at submit so the
    /// dispatch path never re-probes the store per event.
    pub bytes: u64,
    /// When the request arrived at the device.
    pub arrival: SimTime,
    /// Global arrival sequence number (FIFO tie-break).
    pub seq: u64,
}

/// A scheduling decision.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Decision {
    /// Serve a request on the active group; the device resolves the
    /// policy's [`ServeScope`] plus its intra-group ordering to the
    /// concrete request.
    ServeActive,
    /// Spin down the active group and load this one. If transfers are
    /// still in flight the device *arms* the switch: it starts the
    /// instant the last one completes (no idle gap, no new transfers).
    SwitchTo(GroupId),
    /// Nothing to start right now. With transfers in flight this is a
    /// *decline*: the device keeps draining and asks again at the next
    /// completion, when the policy has strictly more information.
    Idle,
}

/// The device's service-pipeline occupancy at decision time.
///
/// The multi-stream device consults the scheduler once per idle
/// transfer slot, so — unlike the historical one-op state machine —
/// decisions are routinely made *while transfers are still in flight*.
/// Requests leave the pending queue at dispatch, not at completion, so
/// the queue view alone under-reports what the device is committed to;
/// this context restores the full picture. All in-flight transfers are
/// on the active group (serving never crosses a group switch), so
/// [`InFlight::transfers`] is exactly the active group's occupancy.
///
/// Policies may use it to *decline to switch while the pipe drains*
/// (return [`Decision::Idle`] and re-decide at drain time with
/// complete information — the group-centric policies and the
/// query/slack FCFS variants do this, since their decisions depend on
/// queue state that mid-drain arrivals can flip) or to commit early
/// and let the device arm the switch (strict object-FCFS: its target
/// is the globally-oldest request, which new arrivals — always
/// younger — cannot change, so early commitment is provably identical
/// to re-deciding at drain).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct InFlight {
    /// Transfers currently occupying pipeline slots (all of them on the
    /// active group).
    pub transfers: usize,
    /// Total transfer slots (the device's `streams`). Currently
    /// informational — no canned policy consults capacity yet, but
    /// occupancy-vs-capacity is the natural input for future
    /// utilization-aware policies.
    pub slots: usize,
}

impl InFlight {
    /// The serial baseline: nothing in flight, one slot. Every decision
    /// of the historical one-op device was made in this state.
    pub const NONE: InFlight = InFlight {
        transfers: 0,
        slots: 1,
    };

    /// True while old-group transfers are still draining out of the
    /// pipeline.
    pub fn draining(self) -> bool {
        self.transfers > 0
    }
}

impl Default for InFlight {
    fn default() -> Self {
        InFlight::NONE
    }
}

/// Which pending requests on the active group may be served during the
/// current residency. Policies return a declarative scope; the request
/// queue resolves it — together with the device's
/// [`IntraGroupOrder`](crate::device::IntraGroupOrder) — to a single
/// request in O(log n) instead of materializing index lists.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ServeScope {
    /// Every request of the residency snapshot still pending on the
    /// active group (the default group-centric, non-preemptive scope).
    Residency,
    /// Only the globally-oldest request — strict object-level FCFS.
    OldestObject,
    /// The oldest query's requests on the active group — query-level
    /// FCFS, no merging across queries.
    OldestQuery,
    /// Requests on the active group among the `k` oldest pending
    /// requests — FCFS with a reordering window.
    Window(usize),
}

/// Read access to the pending-request queue: per-group aggregates plus
/// the ordered lookups the policies decide over.
///
/// Two implementations exist: the incrementally-indexed
/// [`RequestQueue`](queue::RequestQueue) (production, O(log n) updates)
/// and the full-rescan [`NaiveQueue`](naive::NaiveQueue) (the pre-index
/// reference the differential suite diffs against).
pub trait QueueView {
    /// Number of pending requests.
    fn len(&self) -> usize;

    /// True when nothing is pending.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The pending request with the smallest arrival sequence number.
    fn oldest(&self) -> Option<PendingRequest>;

    /// Query `q`'s pending request with the smallest sequence number.
    fn oldest_of_query(&self, q: QueryId) -> Option<PendingRequest>;

    /// True when query `q` has at least one pending request on `g`.
    fn group_has_query(&self, g: GroupId, q: QueryId) -> bool;

    /// Number of requests of the current residency snapshot still
    /// pending on `g`. Only meaningful for the group the snapshot was
    /// armed on (the active group).
    fn resident_len(&self, g: GroupId) -> usize;

    /// Visits every group with pending requests in ascending group id,
    /// handing each a borrowed [`GroupLens`]. This is the hot decision
    /// path: the indexed queue implements it without touching the heap
    /// (the lens borrows the incrementally-maintained aggregates in
    /// place), which is what keeps scheduler decisions allocation-free
    /// no matter how often the fleet re-decides.
    fn for_each_group(&self, visit: &mut dyn FnMut(GroupId, &GroupLens<'_>));

    /// Visits the `k` oldest pending requests by arrival sequence,
    /// oldest first (the slack-window decision path, allocation-free
    /// on the indexed queue).
    fn for_each_window(&self, k: usize, visit: &mut dyn FnMut(&PendingRequest));

    /// Visits every distinct query with pending data, each flagged with
    /// whether it has data on group `on`. Visit order is unspecified
    /// (the indexed queue visits in ascending query id).
    fn for_each_query_presence(&self, on: GroupId, visit: &mut dyn FnMut(QueryId, bool));

    /// Per-group aggregates, sorted by group id; groups with no pending
    /// requests are absent. Allocating convenience form of
    /// [`QueueView::for_each_group`] for tests and external callers —
    /// the canned policies never call it.
    fn group_aggregates(&self) -> Vec<(GroupId, GroupStats)> {
        let mut out = Vec::new();
        self.for_each_group(&mut |g, lens| {
            let mut queries = Vec::with_capacity(lens.query_count);
            lens.for_each_query(&mut |q| queries.push(q));
            out.push((
                g,
                GroupStats {
                    queries,
                    requests: lens.requests,
                    oldest_arrival: lens.oldest_arrival,
                    oldest_seq: lens.oldest_seq,
                },
            ));
        });
        out
    }

    /// The `k` oldest pending requests by arrival sequence, oldest
    /// first. Allocating convenience form of
    /// [`QueueView::for_each_window`].
    fn window(&self, k: usize) -> Vec<PendingRequest> {
        let mut out = Vec::with_capacity(k.min(self.len()));
        self.for_each_window(k, &mut |r| out.push(*r));
        out
    }

    /// Every distinct query with pending data, each flagged with
    /// whether it has data on group `on`. Order is unspecified.
    /// Allocating convenience form of
    /// [`QueueView::for_each_query_presence`].
    fn queries_with_presence(&self, on: GroupId) -> Vec<(QueryId, bool)> {
        let mut out = Vec::new();
        self.for_each_query_presence(on, &mut |q, p| out.push((q, p)));
        out
    }
}

/// The borrowed query-visit closure a [`GroupLens`] carries: calling it
/// visits the group's distinct queries in ascending query id.
pub type QueryWalk<'a> = &'a dyn Fn(&mut dyn FnMut(QueryId));

/// One group's aggregates as borrowed during
/// [`QueueView::for_each_group`]: the scalar stats plus an inline walk
/// over the distinct queries with pending data on the group (ascending
/// query id). Nothing is copied out of the queue — the walk re-borrows
/// the queue's own per-group index — so a policy folding over every
/// group (rank, max-queries) costs zero heap traffic per decision.
pub struct GroupLens<'a> {
    /// Distinct queries with pending data on this group.
    pub query_count: usize,
    /// Pending request count.
    pub requests: usize,
    /// Earliest request arrival on this group.
    pub oldest_arrival: Option<SimTime>,
    /// Smallest arrival sequence number (deterministic tie-break).
    pub oldest_seq: u64,
    /// The query walk, borrowed from the queue.
    pub queries: QueryWalk<'a>,
}

impl GroupLens<'_> {
    /// Visits the group's distinct queries in ascending query id.
    pub fn for_each_query(&self, f: &mut dyn FnMut(QueryId)) {
        (self.queries)(f)
    }
}

/// A group-switch scheduling policy.
///
/// `Send` is a supertrait so a boxed policy — and with it the whole
/// device — can move to another thread (say, one independent scenario
/// per thread); policies are plain state machines, so the bound costs
/// nothing.
pub trait GroupScheduler: Send {
    /// Policy name for reports.
    fn name(&self) -> &'static str;

    /// Decides the next action given the queue view, the currently
    /// loaded group (`None` before the first load), and the pipeline
    /// occupancy (`pipe`). Returning [`Decision::ServeActive`] for the
    /// already loaded group after its residency drained makes the
    /// device re-arm a fresh snapshot without paying a switch;
    /// returning [`Decision::SwitchTo`] while `pipe` is draining arms
    /// the switch to begin at drain; returning [`Decision::Idle`]
    /// while draining declines the decision until the next completion.
    fn decide(
        &mut self,
        queue: &dyn QueueView,
        active: Option<GroupId>,
        pipe: InFlight,
    ) -> Decision;

    /// Which requests on the active group may be served during the
    /// current residency. The default (group-centric, non-preemptive)
    /// scope is every request of the residency snapshot still pending.
    fn serve_scope(&self) -> ServeScope {
        ServeScope::Residency
    }

    /// Notifies the policy that a switch to `loaded` completed; fairness
    /// state (waiting counters) updates here.
    fn on_switch_complete(&mut self, _queue: &dyn QueueView, _loaded: GroupId) {}
}

/// Per-group aggregate view used by the group-centric policies.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct GroupStats {
    /// Distinct queries with pending data on this group, sorted by
    /// query id.
    pub queries: Vec<QueryId>,
    /// Pending request count.
    pub requests: usize,
    /// Earliest request arrival on this group.
    pub oldest_arrival: Option<SimTime>,
    /// Smallest arrival sequence number (deterministic tie-break).
    pub oldest_seq: u64,
}

/// Groups the pending queue by disk group, collecting per-group stats.
/// Returned pairs are sorted by group id for determinism.
///
/// This is a thin adapter over the indexed
/// [`RequestQueue`](queue::RequestQueue) kept so external callers and
/// tests that hold a flat request slice stay source-compatible; the
/// device itself maintains the aggregates incrementally and never calls
/// this. Requests must carry distinct sequence numbers.
pub fn group_stats(pending: &[PendingRequest]) -> Vec<(GroupId, GroupStats)> {
    use crate::device::IntraGroupOrder;
    let mut queue = queue::RequestQueue::new(IntraGroupOrder::ArrivalOrder);
    for &r in pending {
        queue.insert(r);
    }
    queue.group_aggregates()
}

/// The canned policies, for configuration plumbing.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SchedPolicy {
    /// Strict object-level FCFS.
    FcfsObject,
    /// FCFS with a reordering window — how stock CSDs (Pelican) schedule
    /// (§4.4). The payload is the slack window size.
    FcfsSlack(usize),
    /// Query-level FCFS ("fairness" in Figure 12).
    FcfsQuery,
    /// Most-pending-queries-first ("maxquery" in Figure 12).
    MaxQueries,
    /// The paper's rank-based policy ("ranking" in Figure 12).
    RankBased,
}

impl SchedPolicy {
    /// Instantiates the policy.
    pub fn build(self) -> Box<dyn GroupScheduler> {
        match self {
            SchedPolicy::FcfsObject => Box::new(FcfsObject::new()),
            SchedPolicy::FcfsSlack(window) => Box::new(FcfsSlack::new(window)),
            SchedPolicy::FcfsQuery => Box::new(FcfsQuery::new()),
            SchedPolicy::MaxQueries => Box::new(MaxQueries::new()),
            SchedPolicy::RankBased => Box::new(RankBased::new()),
        }
    }

    /// Label used in Figure 12.
    pub fn label(self) -> &'static str {
        match self {
            SchedPolicy::FcfsObject => "fcfs-object",
            SchedPolicy::FcfsSlack(_) => "fcfs-slack",
            SchedPolicy::FcfsQuery => "fairness",
            SchedPolicy::MaxQueries => "maxquery",
            SchedPolicy::RankBased => "ranking",
        }
    }

    /// Every canned policy (slack window 4), for sweeps.
    pub fn all() -> [SchedPolicy; 5] {
        [
            SchedPolicy::FcfsObject,
            SchedPolicy::FcfsSlack(4),
            SchedPolicy::FcfsQuery,
            SchedPolicy::MaxQueries,
            SchedPolicy::RankBased,
        ]
    }
}

#[cfg(test)]
pub(crate) mod testutil {
    use super::*;
    use crate::device::IntraGroupOrder;

    /// Builds a pending request with compact syntax for scheduler tests.
    pub fn req(
        group: GroupId,
        tenant: u16,
        qseq: u32,
        seg: u32,
        arrival_s: u64,
        seq: u64,
    ) -> PendingRequest {
        PendingRequest {
            object: ObjectId::new(tenant, 0, seg),
            query: QueryId::new(tenant, qseq),
            client: tenant as usize,
            group,
            bytes: 0,
            arrival: SimTime::from_secs(arrival_s),
            seq,
        }
    }

    /// An indexed queue over `pending`, arrival-ordered intra-group.
    pub fn queue_of(pending: &[PendingRequest]) -> queue::RequestQueue {
        queue_with(IntraGroupOrder::ArrivalOrder, pending)
    }

    /// An indexed queue over `pending` with the given intra order.
    pub fn queue_with(intra: IntraGroupOrder, pending: &[PendingRequest]) -> queue::RequestQueue {
        let mut q = queue::RequestQueue::new(intra);
        for &r in pending {
            q.insert(r);
        }
        q
    }

    /// A queue whose current contents are all resident on `group` —
    /// the "everything in scope" setup the old slice-based tests
    /// modelled with a saturated seq set.
    pub fn armed_queue(pending: &[PendingRequest], group: GroupId) -> queue::RequestQueue {
        let mut q = queue_of(pending);
        q.arm_residency(group);
        q
    }
}

#[cfg(test)]
mod tests {
    use super::testutil::req;
    use super::*;

    #[test]
    fn group_stats_aggregates() {
        let pending = vec![
            req(1, 0, 0, 0, 10, 3),
            req(1, 0, 0, 1, 5, 1),
            req(2, 1, 0, 0, 7, 2),
            req(1, 2, 0, 0, 20, 4),
        ];
        let stats = group_stats(&pending);
        assert_eq!(stats.len(), 2);
        let (g1, s1) = &stats[0];
        assert_eq!(*g1, 1);
        assert_eq!(s1.requests, 3);
        assert_eq!(s1.queries.len(), 2); // tenants 0 and 2
        assert_eq!(s1.oldest_arrival, Some(SimTime::from_secs(5)));
        assert_eq!(s1.oldest_seq, 1);
        let (g2, s2) = &stats[1];
        assert_eq!(*g2, 2);
        assert_eq!(s2.requests, 1);
    }

    #[test]
    fn default_serve_scope_is_residency() {
        struct Dummy;
        impl GroupScheduler for Dummy {
            fn name(&self) -> &'static str {
                "dummy"
            }
            fn decide(&mut self, _: &dyn QueueView, _: Option<GroupId>, _: InFlight) -> Decision {
                Decision::Idle
            }
        }
        assert_eq!(Dummy.serve_scope(), ServeScope::Residency);
    }

    #[test]
    fn in_flight_defaults_to_the_serial_baseline() {
        let pipe = InFlight::default();
        assert_eq!(pipe, InFlight::NONE);
        assert!(!pipe.draining());
        assert!(InFlight {
            transfers: 2,
            slots: 4
        }
        .draining());
    }

    #[test]
    fn policy_labels() {
        assert_eq!(SchedPolicy::FcfsQuery.label(), "fairness");
        assert_eq!(SchedPolicy::MaxQueries.label(), "maxquery");
        assert_eq!(SchedPolicy::RankBased.label(), "ranking");
        assert_eq!(SchedPolicy::RankBased.build().name(), "ranking");
    }
}
