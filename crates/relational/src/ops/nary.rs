//! N-ary probe execution over one segment combination.
//!
//! This is the execution kernel of a Skipper *subplan*: one
//! [`SegmentIndex`] per relation, a [`ProbePlan`], and a sink receiving
//! every joined row. Iterates the driver segment's rows and recursively
//! probes the remaining relations; cyclic join edges are enforced as
//! residual equality checks.
//!
//! Correctness note: a join distributes over the union of its inputs'
//! partitions, so executing every segment combination exactly once and
//! feeding one shared [`Aggregator`](crate::query::Aggregator) yields the
//! same result as joining the full relations — the property MJoin's
//! out-of-order execution relies on (and which the integration tests
//! verify against the binary baseline).

use crate::join_graph::ProbePlan;
use crate::ops::index::SegmentIndex;
use crate::tuple::Row;

/// Work counters from executing one combination, used by the simulation
/// to charge CPU cost to virtual time.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct JoinWork {
    /// Driver tuples iterated.
    pub driver_tuples: usize,
    /// Hash-table probe operations performed.
    pub probes: usize,
    /// Joined rows emitted to the sink.
    pub emitted: usize,
}

impl JoinWork {
    /// Accumulates another work counter.
    pub fn merge(&mut self, other: JoinWork) {
        self.driver_tuples += other.driver_tuples;
        self.probes += other.probes;
        self.emitted += other.emitted;
    }
}

/// Executes the join over one segment per relation.
///
/// `segments[i]` is relation `i`'s segment index. `sink` is invoked with
/// one bound row per relation, positionally matching the query's tables.
pub fn execute_combination(
    plan: &ProbePlan,
    segments: &[&SegmentIndex],
    sink: &mut dyn FnMut(&[&Row]),
) -> JoinWork {
    let n = segments.len();
    let mut work = JoinWork::default();

    // Cheap short-circuit: any empty input ⇒ empty join.
    if segments.iter().any(|s| s.is_empty()) {
        work.driver_tuples = 0;
        return work;
    }

    let mut bound: Vec<Option<&Row>> = vec![None; n];
    let mut emit: Vec<&Row> = Vec::with_capacity(n);
    for driver_row in segments[plan.driver].rows() {
        work.driver_tuples += 1;
        bound[plan.driver] = Some(driver_row);
        descend(plan, segments, &mut bound, &mut emit, 0, &mut work, sink);
    }
    work
}

/// Copies the fully bound row set into the reused `emit` buffer and
/// hands it to `sink`.
fn emit_bound<'a>(
    bound: &[Option<&'a Row>],
    emit: &mut Vec<&'a Row>,
    work: &mut JoinWork,
    sink: &mut dyn FnMut(&[&Row]),
) {
    emit.clear();
    emit.extend(bound.iter().map(|r| r.expect("all bound")));
    work.emitted += 1;
    sink(emit);
}

fn descend<'a>(
    plan: &ProbePlan,
    segments: &[&'a SegmentIndex],
    bound: &mut Vec<Option<&'a Row>>,
    emit: &mut Vec<&'a Row>,
    depth: usize,
    work: &mut JoinWork,
    sink: &mut dyn FnMut(&[&Row]),
) {
    if depth == plan.steps.len() {
        emit_bound(bound, emit, work, sink);
        return;
    }
    let step = &plan.steps[depth];
    let source = bound[step.bound_source.rel].expect("probe source must be bound");
    let key = source.get(step.bound_source.col);
    if key.is_null() {
        return;
    }
    work.probes += 1;
    let seg = segments[step.rel];
    for &pos in seg.probe(step.key_col, key) {
        let candidate = seg.row(pos);
        // Residual checks from cyclic join edges.
        let ok = step.extra_checks.iter().all(|(own_col, bound_col)| {
            let other = bound[bound_col.rel].expect("check source must be bound");
            candidate.get(*own_col) == other.get(bound_col.col)
        });
        if !ok {
            continue;
        }
        bound[step.rel] = Some(candidate);
        descend(plan, segments, bound, emit, depth + 1, work, sink);
    }
    bound[step.rel] = None;
}

/// Most relations a rooted execution binds. Its per-path buffers live
/// on the stack, so a call allocates nothing.
pub const MAX_ROOTED_RELATIONS: usize = 8;

/// Executes the *arrival-rooted* join of symmetric-hash MJoin: the rows
/// of the newly arrived segment `root` (its id and index) probe outward
/// into the union of cached candidate segments of every other relation.
///
/// `plan` must be rooted at the arriving relation
/// ([`ProbePlan::plan_rooted`]). `candidates[r]` lists `(segment id,
/// index)` pairs eligible for relation `r`; the root relation's own list
/// is not read. Each emitted row's segment combination is checked
/// against `already_executed` so that refetched objects (evicted and
/// re-delivered in a later reissue cycle) never double-count results of
/// subplans that ran in an earlier cycle.
///
/// Probe accounting is union-table semantics: one probe per bound prefix
/// per step (a production MJoin keeps one logical hash table per relation
/// with per-segment arenas, so lookup cost does not scale with the number
/// of cached segments).
///
/// # Panics
/// Panics on more than [`MAX_ROOTED_RELATIONS`] relations.
pub fn execute_rooted<I: AsRef<SegmentIndex>>(
    plan: &ProbePlan,
    root: (u32, &SegmentIndex),
    candidates: &[Vec<(u32, I)>],
    already_executed: &dyn Fn(&[u32]) -> bool,
    sink: &mut dyn FnMut(&[&Row]),
) -> JoinWork {
    let n = candidates.len();
    assert!(
        n <= MAX_ROOTED_RELATIONS,
        "rooted execution binds at most {MAX_ROOTED_RELATIONS} relations, got {n}"
    );
    let mut work = JoinWork::default();
    // Any other relation with no cached candidate ⇒ nothing runnable.
    if candidates
        .iter()
        .enumerate()
        .any(|(r, c)| r != plan.driver && c.is_empty())
    {
        return work;
    }
    let (root_seg, root_idx) = root;
    let Some(first) = root_idx.rows().next() else {
        return work;
    };
    // `bound[r]` is relation `r`'s row on the current path. The plan binds
    // every probe source before a step reads it, so the placeholder in a
    // slot not yet bound is never read.
    let mut bound = [first; MAX_ROOTED_RELATIONS];
    let mut combo = [0u32; MAX_ROOTED_RELATIONS];
    combo[plan.driver] = root_seg;
    for row in root_idx.rows() {
        work.driver_tuples += 1;
        bound[plan.driver] = row;
        descend_rooted(
            plan,
            candidates,
            &mut bound[..n],
            &mut combo[..n],
            0,
            &mut work,
            already_executed,
            sink,
        );
    }
    work
}

#[allow(clippy::too_many_arguments)]
fn descend_rooted<'a, I: AsRef<SegmentIndex>>(
    plan: &ProbePlan,
    candidates: &'a [Vec<(u32, I)>],
    bound: &mut [&'a Row],
    combo: &mut [u32],
    depth: usize,
    work: &mut JoinWork,
    already_executed: &dyn Fn(&[u32]) -> bool,
    sink: &mut dyn FnMut(&[&Row]),
) {
    if depth == plan.steps.len() {
        if !already_executed(combo) {
            work.emitted += 1;
            sink(bound);
        }
        return;
    }
    let step = &plan.steps[depth];
    let key = bound[step.bound_source.rel].get(step.bound_source.col);
    if key.is_null() {
        return;
    }
    work.probes += 1; // union-table semantics: one logical probe per step
    for (seg, idx) in &candidates[step.rel] {
        let idx = idx.as_ref();
        for &pos in idx.probe(step.key_col, key) {
            let candidate = idx.row(pos);
            let ok = step.extra_checks.iter().all(|(own_col, bound_col)| {
                candidate.get(*own_col) == bound[bound_col.rel].get(bound_col.col)
            });
            if !ok {
                continue;
            }
            bound[step.rel] = candidate;
            combo[step.rel] = *seg;
            descend_rooted(
                plan,
                candidates,
                bound,
                combo,
                depth + 1,
                work,
                already_executed,
                sink,
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::{AggSpec, JoinCond, QuerySpec};
    use crate::row;
    use crate::schema::{DataType, Schema};
    use crate::segment::Segment;

    fn idx(cols: &[(&str, DataType)], rows: Vec<Row>, join_cols: &[usize]) -> SegmentIndex {
        let seg = Segment::new(Schema::of(cols), rows).unwrap();
        SegmentIndex::build(std::sync::Arc::new(seg), None, join_cols)
    }

    fn spec(n: usize, joins: Vec<JoinCond>, driver: usize) -> QuerySpec {
        QuerySpec {
            name: "t".into(),
            tables: (0..n).map(|i| format!("t{i}")).collect(),
            filters: vec![None; n],
            joins,
            driver,
            plan_order: (0..n).collect(),
            probe_order: None,
            group_by: vec![],
            aggregates: Vec::<AggSpec>::new(),
        }
    }

    #[test]
    fn two_way_join_emits_matches() {
        let a = idx(
            &[("k", DataType::Int)],
            vec![row![1i64], row![2i64], row![2i64]],
            &[0],
        );
        let b = idx(
            &[("k", DataType::Int), ("v", DataType::Int)],
            vec![row![2i64, 20i64], row![3i64, 30i64]],
            &[0],
        );
        let s = spec(2, vec![JoinCond::new(0, 0, 1, 0)], 0);
        let plan = ProbePlan::plan(&s).unwrap();
        let mut out = Vec::new();
        let work = execute_combination(&plan, &[&a, &b], &mut |rows| {
            out.push((rows[0].clone(), rows[1].clone()));
        });
        assert_eq!(out.len(), 2); // two a-rows with k=2 match one b-row
        assert_eq!(work.emitted, 2);
        assert_eq!(work.driver_tuples, 3);
        assert!(out.iter().all(|(a, b)| a.get(0) == b.get(0)));
    }

    #[test]
    fn three_way_chain() {
        // a(k) ⋈ b(k, m) ⋈ c(m): counts of matching paths.
        let a = idx(&[("k", DataType::Int)], vec![row![1i64], row![2i64]], &[0]);
        let b = idx(
            &[("k", DataType::Int), ("m", DataType::Int)],
            vec![row![1i64, 7i64], row![1i64, 8i64], row![2i64, 7i64]],
            &[0, 1],
        );
        let c = idx(&[("m", DataType::Int)], vec![row![7i64], row![7i64]], &[0]);
        let s = spec(
            3,
            vec![JoinCond::new(0, 0, 1, 0), JoinCond::new(1, 1, 2, 0)],
            0,
        );
        let plan = ProbePlan::plan(&s).unwrap();
        let mut count = 0;
        execute_combination(&plan, &[&a, &b, &c], &mut |_| count += 1);
        // paths: a1-b(1,7)-c7 ×2, a2-b(2,7)-c7 ×2 → 4
        assert_eq!(count, 4);
    }

    #[test]
    fn residual_check_filters_cycles() {
        // Triangle query: a(x,y), b(x,z), c(z,y) with c.y = a.y residual.
        let a = idx(
            &[("x", DataType::Int), ("y", DataType::Int)],
            vec![row![1i64, 100i64]],
            &[0, 1],
        );
        let b = idx(
            &[("x", DataType::Int), ("z", DataType::Int)],
            vec![row![1i64, 5i64]],
            &[0, 1],
        );
        let c = idx(
            &[("z", DataType::Int), ("y", DataType::Int)],
            vec![row![5i64, 100i64], row![5i64, 999i64]],
            &[0, 1],
        );
        let s = spec(
            3,
            vec![
                JoinCond::new(0, 0, 1, 0), // a.x = b.x
                JoinCond::new(1, 1, 2, 0), // b.z = c.z
                JoinCond::new(0, 1, 2, 1), // a.y = c.y (cycle)
            ],
            0,
        );
        let plan = ProbePlan::plan(&s).unwrap();
        let mut count = 0;
        execute_combination(&plan, &[&a, &b, &c], &mut |rows| {
            assert_eq!(rows[0].get(1), rows[2].get(1));
            count += 1;
        });
        assert_eq!(count, 1); // the y=999 row is rejected by the residual
    }

    #[test]
    fn empty_segment_short_circuits() {
        let a = idx(&[("k", DataType::Int)], vec![row![1i64]], &[0]);
        let b = idx(&[("k", DataType::Int)], vec![], &[0]);
        let s = spec(2, vec![JoinCond::new(0, 0, 1, 0)], 0);
        let plan = ProbePlan::plan(&s).unwrap();
        let mut count = 0;
        let work = execute_combination(&plan, &[&a, &b], &mut |_| count += 1);
        assert_eq!(count, 0);
        assert_eq!(work.driver_tuples, 0); // short-circuited
    }

    #[test]
    fn work_counters_track_probes() {
        let a = idx(&[("k", DataType::Int)], vec![row![1i64], row![9i64]], &[0]);
        let b = idx(&[("k", DataType::Int)], vec![row![1i64]], &[0]);
        let s = spec(2, vec![JoinCond::new(0, 0, 1, 0)], 0);
        let plan = ProbePlan::plan(&s).unwrap();
        let work = execute_combination(&plan, &[&a, &b], &mut |_| {});
        assert_eq!(work.driver_tuples, 2);
        assert_eq!(work.probes, 2); // one probe per driver tuple
        assert_eq!(work.emitted, 1);
    }

    #[test]
    fn rooted_execution_matches_per_combination_union() {
        // Two segments of `a`, one arriving segment of `b`: rooted
        // execution from b must equal the union of the two combinations.
        let a1 = idx(&[("k", DataType::Int)], vec![row![1i64], row![2i64]], &[0]);
        let a2 = idx(&[("k", DataType::Int)], vec![row![2i64], row![3i64]], &[0]);
        let b = idx(
            &[("k", DataType::Int)],
            vec![row![2i64], row![3i64], row![9i64]],
            &[0],
        );
        let s = spec(2, vec![JoinCond::new(0, 0, 1, 0)], 0);
        // Root the plan at relation 1 (the arriving side).
        let rooted = crate::join_graph::ProbePlan::plan_rooted(&s, 1).unwrap();
        let candidates: Vec<Vec<(u32, &SegmentIndex)>> = vec![vec![(0, &a1), (1, &a2)], vec![]];
        let mut rows = 0;
        let work = execute_rooted(&rooted, (7, &b), &candidates, &|_| false, &mut |_| {
            rows += 1
        });
        // b=2 matches a1 and a2 (one row each); b=3 matches a2; b=9 none.
        assert_eq!(rows, 3);
        assert_eq!(work.driver_tuples, 3);
        assert_eq!(work.emitted, 3);
        // Union probe accounting: one probe per b-row, not per candidate.
        assert_eq!(work.probes, 3);
    }

    #[test]
    fn rooted_execution_skips_executed_combinations() {
        let a1 = idx(&[("k", DataType::Int)], vec![row![2i64]], &[0]);
        let a2 = idx(&[("k", DataType::Int)], vec![row![2i64]], &[0]);
        let b = idx(&[("k", DataType::Int)], vec![row![2i64]], &[0]);
        let s = spec(2, vec![JoinCond::new(0, 0, 1, 0)], 0);
        let rooted = crate::join_graph::ProbePlan::plan_rooted(&s, 1).unwrap();
        let candidates: Vec<Vec<(u32, &SegmentIndex)>> = vec![vec![(0, &a1), (1, &a2)], vec![]];
        // Pretend combination {a seg 0, b seg 5} already ran in an
        // earlier reissue cycle.
        let mut rows = 0;
        let work = execute_rooted(
            &rooted,
            (5, &b),
            &candidates,
            &|combo| combo[0] == 0,
            &mut |_| rows += 1,
        );
        assert_eq!(rows, 1, "only the a2 combination may emit");
        assert_eq!(work.emitted, 1);
    }

    #[test]
    fn rooted_execution_empty_candidate_returns_nothing() {
        let b = idx(&[("k", DataType::Int)], vec![row![1i64]], &[0]);
        let s = spec(2, vec![JoinCond::new(0, 0, 1, 0)], 0);
        let rooted = crate::join_graph::ProbePlan::plan_rooted(&s, 1).unwrap();
        let candidates: Vec<Vec<(u32, &SegmentIndex)>> = vec![vec![], vec![]];
        let work = execute_rooted(&rooted, (0, &b), &candidates, &|_| false, &mut |_| {
            panic!("no rows expected")
        });
        assert_eq!(work, JoinWork::default());
    }

    #[test]
    fn join_work_merge_accumulates() {
        let mut w = JoinWork {
            driver_tuples: 1,
            probes: 2,
            emitted: 3,
        };
        w.merge(JoinWork {
            driver_tuples: 10,
            probes: 20,
            emitted: 30,
        });
        assert_eq!(w.driver_tuples, 11);
        assert_eq!(w.probes, 22);
        assert_eq!(w.emitted, 33);
    }
}
