//! Per-segment hash indexes.
//!
//! MJoin is a *symmetric* hash join: when a segment arrives, hash tables
//! are built over it on every join column its relation participates in
//! (§4.1 of the paper: "builds appropriate hash tables based on the join
//! conditions"). The index copies no row. It holds a reference to the
//! shared segment, the positions of the filter survivors and, per join
//! column, one flat position table with a `(start, len)` run per key.
//! Eviction drops the whole [`SegmentIndex`] and with it its reference to
//! the segment, which is exactly the paper's "frees space by dropping its
//! hashtable".
//!
//! An index depends only on its segment, the filter and the join
//! columns, so equal queries over one dataset can share it behind an
//! `Arc` (see [`crate::prepared`]). Sharing is host-side memoization:
//! the simulator still charges the scan and build of §4.1 to virtual
//! time on every delivery, from [`SegmentIndex::stats`] and
//! [`SegmentIndex::entries`].

use std::sync::Arc;

use crate::expr::Expr;
use crate::hash::FxHashMap;
use crate::ops::scan::{scan, ScanStats};
use crate::segment::Segment;
use crate::tuple::Row;
use crate::value::Value;

/// One join column's index: key → run of `positions`.
struct ColumnIndex {
    col: usize,
    /// Key → `(start, len)` into `positions`.
    runs: FxHashMap<Value, (u32, u32)>,
    /// Segment row positions grouped by key, ascending within a key.
    positions: Vec<u32>,
}

/// Filter survivors of one shared segment plus hash indexes on its join
/// columns.
pub struct SegmentIndex {
    segment: Arc<Segment>,
    /// Ascending positions of the rows surviving the filter.
    survivors: Vec<u32>,
    columns: Vec<ColumnIndex>,
    stats: ScanStats,
}

impl SegmentIndex {
    /// Scans `segment` through `filter` and builds hash indexes on
    /// `join_cols`.
    pub fn build(segment: Arc<Segment>, filter: Option<&Expr>, join_cols: &[usize]) -> Self {
        let (survivors, stats) = scan(&segment, filter);
        let rows = segment.rows();
        let columns = join_cols
            .iter()
            .map(|&col| {
                // Count each key's survivors, lay the runs out back to
                // back, then fill them in survivor order.
                let mut runs: FxHashMap<Value, (u32, u32)> = FxHashMap::default();
                runs.reserve(survivors.len());
                let mut total = 0u32;
                for &pos in &survivors {
                    let key = rows[pos as usize].get(col);
                    if key.is_null() {
                        continue; // NULL never equi-joins
                    }
                    total += 1;
                    match runs.get_mut(key) {
                        Some(run) => run.1 += 1,
                        None => {
                            runs.insert(key.clone(), (0, 1));
                        }
                    }
                }
                // At most one key per survivor was reserved; give the
                // excess back before the index is cached.
                runs.shrink_to_fit();
                let mut start = 0u32;
                for run in runs.values_mut() {
                    let len = run.1;
                    *run = (start, 0);
                    start += len;
                }
                let mut positions = vec![0u32; total as usize];
                for &pos in &survivors {
                    let key = rows[pos as usize].get(col);
                    if let Some(run) = runs.get_mut(key) {
                        positions[(run.0 + run.1) as usize] = pos;
                        run.1 += 1;
                    }
                }
                ColumnIndex {
                    col,
                    runs,
                    positions,
                }
            })
            .collect();
        SegmentIndex {
            segment,
            survivors,
            columns,
            stats,
        }
    }

    /// The segment this index was built over.
    pub fn segment(&self) -> &Arc<Segment> {
        &self.segment
    }

    /// Rows surviving the filter, in segment order.
    pub fn rows(&self) -> impl Iterator<Item = &Row> + '_ {
        let rows = self.segment.rows();
        self.survivors.iter().map(move |&pos| &rows[pos as usize])
    }

    /// Number of surviving rows.
    pub fn len(&self) -> usize {
        self.survivors.len()
    }

    /// True when no rows survived the filter — the trigger for the
    /// subplan-pruning optimization (§5.2.4).
    pub fn is_empty(&self) -> bool {
        self.survivors.is_empty()
    }

    /// Scan statistics (tuples examined/kept) for cost accounting.
    pub fn stats(&self) -> ScanStats {
        self.stats
    }

    /// Positions of the surviving rows whose column `col` equals `key`,
    /// ascending. `col` must be one of the join columns the index was
    /// built on.
    ///
    /// # Panics
    /// Panics if `col` was not indexed — probing an unindexed column is a
    /// planning bug, not a data condition.
    pub fn probe(&self, col: usize, key: &Value) -> &[u32] {
        let column = self
            .columns
            .iter()
            .find(|c| c.col == col)
            .unwrap_or_else(|| {
                let indexed: Vec<usize> = self.columns.iter().map(|c| c.col).collect();
                panic!("column {col} not indexed (indexed: {indexed:?})")
            });
        match column.runs.get(key) {
            Some(&(start, len)) => &column.positions[start as usize..(start + len) as usize],
            None => &[],
        }
    }

    /// The row at `pos` (positions come from [`SegmentIndex::probe`]).
    #[inline]
    pub fn row(&self, pos: u32) -> &Row {
        &self.segment.rows()[pos as usize]
    }

    /// Approximate number of hash-table entries across all indexes; used
    /// to charge hash-build CPU cost.
    pub fn entries(&self) -> usize {
        self.columns.len() * self.survivors.len()
    }
}

impl AsRef<SegmentIndex> for SegmentIndex {
    fn as_ref(&self) -> &SegmentIndex {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::row;
    use crate::schema::{DataType, Schema};

    fn seg() -> Arc<Segment> {
        let schema = Schema::of(&[("k", DataType::Int), ("g", DataType::Int)]);
        Arc::new(
            Segment::new(
                schema,
                vec![
                    row![1i64, 10i64],
                    row![2i64, 10i64],
                    row![1i64, 20i64],
                    row![3i64, 30i64],
                ],
            )
            .unwrap(),
        )
    }

    #[test]
    fn probes_by_key() {
        let idx = SegmentIndex::build(seg(), None, &[0]);
        assert_eq!(idx.probe(0, &Value::Int(1)), &[0, 2]);
        assert_eq!(idx.probe(0, &Value::Int(3)).len(), 1);
        assert!(idx.probe(0, &Value::Int(99)).is_empty());
        let pos = idx.probe(0, &Value::Int(3))[0];
        assert_eq!(idx.row(pos), &row![3i64, 30i64]);
    }

    #[test]
    fn multiple_indexed_columns() {
        let idx = SegmentIndex::build(seg(), None, &[0, 1]);
        assert_eq!(idx.probe(1, &Value::Int(10)), &[0, 1]);
        assert_eq!(idx.probe(1, &Value::Int(30)), &[3]);
        assert_eq!(idx.entries(), 8);
    }

    #[test]
    fn filter_applied_before_indexing() {
        let pred = Expr::col(1).ge(Expr::lit(20i64));
        let idx = SegmentIndex::build(seg(), Some(&pred), &[0]);
        assert_eq!(idx.len(), 2);
        assert_eq!(idx.stats().scanned, 4);
        assert_eq!(idx.stats().kept, 2);
        assert_eq!(idx.probe(0, &Value::Int(2)).len(), 0); // filtered out
        assert_eq!(idx.probe(0, &Value::Int(1)), &[2]);
        let kept: Vec<&Row> = idx.rows().collect();
        assert_eq!(kept, vec![&row![1i64, 20i64], &row![3i64, 30i64]]);
    }

    #[test]
    fn index_shares_the_segment() {
        let seg = seg();
        let idx = SegmentIndex::build(Arc::clone(&seg), None, &[0]);
        assert!(std::ptr::eq(idx.row(0), &seg.rows()[0]));
        assert_eq!(Arc::strong_count(&seg), 2);
        drop(idx);
        assert_eq!(Arc::strong_count(&seg), 1);
    }

    #[test]
    fn empty_after_filter_flags_prunable() {
        let pred = Expr::col(0).gt(Expr::lit(100i64));
        let idx = SegmentIndex::build(seg(), Some(&pred), &[0]);
        assert!(idx.is_empty());
    }

    #[test]
    fn null_keys_not_indexed() {
        let schema = Schema::of(&[("k", DataType::Int)]);
        let seg = Segment::new(schema, vec![Row::new(vec![Value::Null]), row![1i64]]).unwrap();
        let idx = SegmentIndex::build(Arc::new(seg), None, &[0]);
        assert_eq!(idx.len(), 2);
        assert!(idx.probe(0, &Value::Null).is_empty());
        assert_eq!(idx.probe(0, &Value::Int(1)), &[1]);
    }

    #[test]
    #[should_panic(expected = "not indexed")]
    fn probing_unindexed_column_panics() {
        let idx = SegmentIndex::build(seg(), None, &[0]);
        idx.probe(1, &Value::Int(10));
    }
}
