//! Left-deep binary hash joins: the vanilla-PostgreSQL-style baseline.
//!
//! Classic optimize-then-execute evaluation: relations are consumed in the
//! optimizer-chosen `plan_order`, each step building a hash table over the
//! next relation and probing it with the accumulated intermediate result.
//! This is the *blocking* execution model the paper contrasts with MJoin:
//! every input must be fully available, in order, before results appear —
//! precisely the assumption a shared CSD violates.
//!
//! The join copies no row. Relations are read as filter survivors of
//! shared segments, the intermediate result is one flat buffer of row
//! positions, and hash keys are probed with a reused value buffer. The
//! work counters are unchanged by this layout: `peak_intermediate` still
//! counts tuples (one position per bound relation), not buffer entries.

use std::borrow::Borrow;

use crate::hash::FxHashMap;
use crate::ops::scan::scan;
use crate::query::{Aggregator, QuerySpec};
use crate::segment::Segment;
use crate::tuple::Row;
use crate::value::Value;

/// Work counters from a baseline execution, used for CPU cost accounting.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BinaryWork {
    /// Tuples examined by scans.
    pub scanned: usize,
    /// Tuples surviving filters.
    pub kept: usize,
    /// Tuples inserted into build-side hash tables.
    pub built: usize,
    /// Probe operations.
    pub probes: usize,
    /// Rows in the final joined result.
    pub emitted: usize,
    /// Peak intermediate-result cardinality in tuples (memory pressure
    /// proxy).
    pub peak_intermediate: usize,
}

/// End of a build-side chain of equal-key rows.
const CHAIN_END: u32 = u32::MAX;

/// Executes `spec` with left-deep binary hash joins over fully
/// materialized relations (`relations[i]` = all segments of table `i`),
/// feeding the final rows into a fresh [`Aggregator`]. Every segment is
/// scanned through its relation's filter, then joined by
/// [`join_filtered`].
///
/// # Panics
/// Panics if `plan_order` would require a cross product (no join edge
/// between the next relation and the already-joined prefix) — the static
/// workload plans never do.
pub fn execute_left_deep(
    spec: &QuerySpec,
    relations: &[&[impl Borrow<Segment>]],
) -> (Aggregator, BinaryWork) {
    assert_eq!(relations.len(), spec.num_relations());
    let mut scanned = 0;
    let filtered: Vec<Vec<(&Segment, Vec<u32>)>> = relations
        .iter()
        .enumerate()
        .map(|(rel, segs)| {
            segs.iter()
                .map(|seg| {
                    let seg = seg.borrow();
                    let (survivors, stats) = scan(seg, spec.filters[rel].as_ref());
                    scanned += stats.scanned;
                    (seg, survivors)
                })
                .collect()
        })
        .collect();
    let (agg, mut work) = join_filtered(spec, &filtered);
    work.scanned = scanned;
    (agg, work)
}

/// Joins already-filtered relations: `relations[i]` lists table `i`'s
/// segments in order, each with the ascending positions of its filter
/// survivors (as [`scan`] returns them). Rows are joined in place;
/// `work.scanned` is left at zero since nothing is scanned here.
///
/// # Panics
/// As [`execute_left_deep`].
pub fn join_filtered<S: Borrow<Segment>>(
    spec: &QuerySpec,
    relations: &[Vec<(S, Vec<u32>)>],
) -> (Aggregator, BinaryWork) {
    let n = spec.num_relations();
    assert_eq!(relations.len(), n);
    let mut work = BinaryWork::default();

    // Each relation's survivors, borrowed, concatenated in segment order.
    let rows: Vec<Vec<&Row>> = relations
        .iter()
        .map(|segs| {
            let mut out = Vec::with_capacity(segs.iter().map(|(_, s)| s.len()).sum());
            for (seg, survivors) in segs {
                let seg_rows = seg.borrow().rows();
                out.extend(survivors.iter().map(|&pos| &seg_rows[pos as usize]));
            }
            out
        })
        .collect();
    work.kept = rows.iter().map(Vec::len).sum();

    // Intermediate result: one row position per bound relation, in
    // binding order, flattened tuple after tuple.
    let first = spec.plan_order[0];
    let mut bound: Vec<usize> = vec![first];
    let mut inter: Vec<u32> = (0..rows[first].len() as u32).collect();
    let mut next: Vec<u32> = Vec::new();
    work.peak_intermediate = rows[first].len();

    // Build side: composite join key → (first, last) row of a chain that
    // `chain` links in row order.
    let mut table: FxHashMap<Row, (u32, u32)> = FxHashMap::default();
    let mut chain: Vec<u32> = Vec::new();
    let mut key: Vec<Value> = Vec::new();

    for &rel in &spec.plan_order[1..] {
        // Join edges between `rel` and the bound prefix.
        let edges: Vec<(usize, usize, usize)> = spec
            .joins
            .iter()
            .filter_map(|jc| {
                let own = jc.side_of(rel)?;
                let other = jc.other_side(rel)?;
                let slot = bound.iter().position(|&b| b == other.rel)?;
                Some((own.col, slot, other.col))
            })
            .collect();
        assert!(
            !edges.is_empty(),
            "query {}: plan_order step {rel} has no join edge into {:?} (cross product)",
            spec.name,
            bound
        );

        // Build a hash table over `rel` keyed by its composite join key.
        table.clear();
        table.reserve(rows[rel].len());
        chain.clear();
        chain.resize(rows[rel].len(), CHAIN_END);
        'rows: for (pos, row) in rows[rel].iter().enumerate() {
            key.clear();
            for &(own_col, _, _) in &edges {
                let v = row.get(own_col);
                if v.is_null() {
                    continue 'rows;
                }
                key.push(v.clone());
            }
            work.built += 1;
            let pos = pos as u32;
            match table.get_mut(key.as_slice()) {
                Some(run) => {
                    chain[run.1 as usize] = pos;
                    run.1 = pos;
                }
                None => {
                    table.insert(Row::new(key.clone()), (pos, pos));
                }
            }
        }

        // Probe with the intermediate result.
        let width = bound.len();
        next.clear();
        // Sized for at most one match per tuple, as on a foreign key.
        next.reserve(inter.len() / width * (width + 1));
        'tuples: for tuple in inter.chunks_exact(width) {
            work.probes += 1;
            key.clear();
            for &(_, slot, other_col) in &edges {
                let v = rows[bound[slot]][tuple[slot] as usize].get(other_col);
                if v.is_null() {
                    continue 'tuples;
                }
                key.push(v.clone());
            }
            if let Some(&(head, _)) = table.get(key.as_slice()) {
                let mut pos = head;
                while pos != CHAIN_END {
                    next.extend_from_slice(tuple);
                    next.push(pos);
                    pos = chain[pos as usize];
                }
            }
        }
        bound.push(rel);
        std::mem::swap(&mut inter, &mut next);
        work.peak_intermediate = work.peak_intermediate.max(inter.len() / bound.len());
    }

    // Emit joined rows in relation order into the aggregator.
    let mut slot_of = vec![0usize; n];
    for (slot, &rel) in bound.iter().enumerate() {
        slot_of[rel] = slot;
    }
    let mut agg = Aggregator::for_query(spec);
    let mut ordered: Vec<&Row> = Vec::with_capacity(n);
    for tuple in inter.chunks_exact(bound.len()) {
        ordered.clear();
        ordered.extend((0..n).map(|rel| rows[rel][tuple[slot_of[rel]] as usize]));
        work.emitted += 1;
        agg.update(&ordered);
    }
    (agg, work)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::Expr;
    use crate::query::{AggFunc, AggSpec, JoinCond, JoinExpr, QualifiedCol};
    use crate::row;
    use crate::schema::{DataType, Schema};

    fn seg(cols: &[(&str, DataType)], rows: Vec<Row>) -> Segment {
        Segment::new(Schema::of(cols), rows).unwrap()
    }

    fn count_spec(n: usize, joins: Vec<JoinCond>, plan_order: Vec<usize>) -> QuerySpec {
        QuerySpec {
            name: "t".into(),
            tables: (0..n).map(|i| format!("t{i}")).collect(),
            filters: vec![None; n],
            joins,
            driver: 0,
            plan_order,
            probe_order: None,
            group_by: vec![],
            aggregates: vec![AggSpec::new(
                AggFunc::Count,
                JoinExpr::Lit(Value::Int(1)),
                "cnt",
            )],
        }
    }

    fn result_count(agg: &Aggregator) -> i64 {
        agg.finish()
            .first()
            .and_then(|(_, vals)| vals[0].as_int())
            .unwrap_or(0)
    }

    #[test]
    fn two_way_count() {
        let a = seg(
            &[("k", DataType::Int)],
            vec![row![1i64], row![2i64], row![2i64]],
        );
        let b = seg(&[("k", DataType::Int)], vec![row![2i64], row![3i64]]);
        let spec = count_spec(2, vec![JoinCond::new(0, 0, 1, 0)], vec![1, 0]);
        let (agg, work) = execute_left_deep(&spec, &[&[a], &[b]]);
        assert_eq!(result_count(&agg), 2);
        assert_eq!(work.emitted, 2);
        assert_eq!(work.scanned, 5);
    }

    #[test]
    fn filters_apply_at_scan() {
        let a = seg(
            &[("k", DataType::Int)],
            (0..10i64).map(|i| row![i]).collect(),
        );
        let b = seg(
            &[("k", DataType::Int)],
            (0..10i64).map(|i| row![i]).collect(),
        );
        let mut spec = count_spec(2, vec![JoinCond::new(0, 0, 1, 0)], vec![1, 0]);
        spec.filters[0] = Some(Expr::col(0).lt(Expr::lit(3i64)));
        let (agg, work) = execute_left_deep(&spec, &[&[a], &[b]]);
        assert_eq!(result_count(&agg), 3);
        assert_eq!(work.kept, 13); // 3 from a + 10 from b
    }

    #[test]
    fn three_way_chain_with_grouping() {
        // a(k,g) ⋈ b(k,m) ⋈ c(m), group by a.g
        let a = seg(
            &[("k", DataType::Int), ("g", DataType::Str)],
            vec![row![1i64, "x"], row![2i64, "y"]],
        );
        let b = seg(
            &[("k", DataType::Int), ("m", DataType::Int)],
            vec![row![1i64, 7i64], row![2i64, 7i64], row![2i64, 8i64]],
        );
        let c = seg(&[("m", DataType::Int)], vec![row![7i64]]);
        let mut spec = count_spec(
            3,
            vec![JoinCond::new(0, 0, 1, 0), JoinCond::new(1, 1, 2, 0)],
            vec![2, 1, 0],
        );
        spec.group_by = vec![QualifiedCol::new(0, 1)];
        let (agg, _) = execute_left_deep(&spec, &[&[a], &[b], &[c]]);
        let out = agg.finish();
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].0, row!["x"]);
        assert_eq!(out[0].1, vec![Value::Int(1)]);
        assert_eq!(out[1].0, row!["y"]);
        assert_eq!(out[1].1, vec![Value::Int(1)]);
    }

    #[test]
    fn join_filtered_matches_execute_left_deep() {
        // Pre-scanned, shared segments give the same result and work as
        // scanning inside the join, except that nothing is scanned.
        let a: Vec<std::sync::Arc<Segment>> = (0..3i64)
            .map(|s| {
                let rows = (0..8i64).map(|i| row![s * 8 + i, i % 3]).collect();
                std::sync::Arc::new(seg(&[("k", DataType::Int), ("g", DataType::Int)], rows))
            })
            .collect();
        let b = vec![std::sync::Arc::new(seg(
            &[("k", DataType::Int)],
            (0..24i64).step_by(2).map(|i| row![i]).collect(),
        ))];
        let mut spec = count_spec(2, vec![JoinCond::new(0, 0, 1, 0)], vec![1, 0]);
        spec.filters[0] = Some(Expr::col(1).gt(Expr::lit(0i64)));
        spec.group_by = vec![QualifiedCol::new(0, 1)];
        let (whole, whole_work) = execute_left_deep(&spec, &[&a, &b]);
        let scanned: Vec<Vec<(std::sync::Arc<Segment>, Vec<u32>)>> = [&a, &b]
            .iter()
            .enumerate()
            .map(|(rel, segs)| {
                segs.iter()
                    .map(|s| {
                        (
                            s.clone(),
                            crate::ops::scan::scan(s, spec.filters[rel].as_ref()).0,
                        )
                    })
                    .collect()
            })
            .collect();
        let (joined, work) = join_filtered(&spec, &scanned);
        assert_eq!(joined.finish(), whole.finish());
        assert_eq!(
            work,
            BinaryWork {
                scanned: 0,
                ..whole_work
            }
        );
        assert_eq!(whole_work.scanned, 36);
        assert!(whole_work.emitted > 0);
    }

    #[test]
    fn multi_segment_relations_concatenate() {
        let a1 = seg(&[("k", DataType::Int)], vec![row![1i64]]);
        let a2 = seg(&[("k", DataType::Int)], vec![row![2i64]]);
        let b = seg(&[("k", DataType::Int)], vec![row![1i64], row![2i64]]);
        let spec = count_spec(2, vec![JoinCond::new(0, 0, 1, 0)], vec![1, 0]);
        let (agg, _) = execute_left_deep(&spec, &[&[a1, a2], &[b]]);
        assert_eq!(result_count(&agg), 2);
    }

    #[test]
    fn null_join_keys_never_match() {
        let a = seg(
            &[("k", DataType::Int)],
            vec![Row::new(vec![Value::Null]), row![1i64]],
        );
        let b = seg(
            &[("k", DataType::Int)],
            vec![Row::new(vec![Value::Null]), row![1i64]],
        );
        let spec = count_spec(2, vec![JoinCond::new(0, 0, 1, 0)], vec![1, 0]);
        let (agg, _) = execute_left_deep(&spec, &[&[a], &[b]]);
        assert_eq!(result_count(&agg), 1);
    }

    #[test]
    #[should_panic(expected = "cross product")]
    fn cross_product_plans_rejected() {
        let a = seg(&[("k", DataType::Int)], vec![row![1i64]]);
        let b = seg(&[("k", DataType::Int)], vec![row![1i64]]);
        let c = seg(&[("k", DataType::Int)], vec![row![1i64]]);
        // Join edges only between 0 and 1; plan order visits 2 second.
        let spec = count_spec(3, vec![JoinCond::new(0, 0, 1, 0)], vec![0, 2, 1]);
        let _ = execute_left_deep(&spec, &[&[a], &[b], &[c]]);
    }

    #[test]
    fn composite_key_join() {
        // Two join edges between the same pair of relations form a
        // composite key.
        let a = seg(
            &[("x", DataType::Int), ("y", DataType::Int)],
            vec![row![1i64, 10i64], row![1i64, 20i64]],
        );
        let b = seg(
            &[("x", DataType::Int), ("y", DataType::Int)],
            vec![row![1i64, 10i64]],
        );
        let spec = count_spec(
            2,
            vec![JoinCond::new(0, 0, 1, 0), JoinCond::new(0, 1, 1, 1)],
            vec![1, 0],
        );
        let (agg, _) = execute_left_deep(&spec, &[&[a], &[b]]);
        assert_eq!(result_count(&agg), 1);
    }
}
