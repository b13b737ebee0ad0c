//! Prepared queries: the per-dataset work of a query, done once.
//!
//! Part of running a query over a dataset depends only on the query spec
//! and the dataset: validating the spec, planning one rooted probe plan
//! per relation, resolving each relation's table and segment geometry
//! and, per delivered segment, the scan + filter + hash build of §4.1.
//! A [`PreparedQuery`] does the first part when it is made and memoizes
//! the per-segment index in one lazily filled slot per (relation,
//! segment). Every execution of an equal spec over the dataset then
//! shares both.
//!
//! This is host-side memoization only. A simulated engine still charges
//! the scan and the build of every delivery to virtual time, from the
//! index's own counts, exactly as if it had built the index itself.
//!
//! A slot serves a payload only if its index was built over that very
//! segment (`Arc::ptr_eq`). Any other payload gets an index of its own,
//! built by the same function and not shared. An index keeps its segment
//! alive, so a segment's address cannot be reused while the slot lives.

use std::sync::{Arc, OnceLock};

use crate::catalog::Catalog;
use crate::join_graph::ProbePlan;
use crate::ops::index::SegmentIndex;
use crate::query::{Aggregator, QuerySpec};
use crate::segment::Segment;

/// One relation of a [`PreparedQuery`].
pub struct PreparedRelation {
    /// Catalog table index.
    pub table: usize,
    /// Logical-to-physical row scale (virtual-time charges are scaled
    /// by it).
    pub scale: f64,
    /// Logical bytes per segment.
    pub seg_bytes: u64,
    /// Join columns the relation's segments are hash-indexed on.
    pub join_cols: Vec<usize>,
    /// Probe plan rooted at this relation (arrival-rooted execution).
    pub plan: ProbePlan,
    /// One index slot per segment.
    indexes: Vec<OnceLock<Arc<SegmentIndex>>>,
}

/// A query spec prepared against one dataset's catalog and segments.
pub struct PreparedQuery {
    spec: QuerySpec,
    relations: Vec<PreparedRelation>,
    /// Segment count per relation.
    seg_counts: Vec<u32>,
    /// An empty accumulator whose plan every execution shares.
    agg: Aggregator,
}

/// `(segment count, row scale, bytes per segment)` of catalog table `t`.
fn geometry(catalog: &Catalog, segments: &[Vec<Arc<Segment>>], t: usize) -> (u32, f64, u64) {
    let def = catalog.table(t);
    let phys = segments[t].first().map(|s| s.len().max(1)).unwrap_or(1) as f64;
    (
        def.segment_count,
        def.logical_rows_per_segment as f64 / phys,
        def.logical_bytes_per_segment,
    )
}

impl PreparedQuery {
    /// Validates and plans `spec` over `catalog`, whose tables' payloads
    /// are `segments[table][segment]`. No index is built yet.
    ///
    /// # Panics
    /// Panics if the spec is inconsistent, names a table missing from
    /// the catalog, or cannot be planned.
    pub fn new(spec: QuerySpec, catalog: &Catalog, segments: &[Vec<Arc<Segment>>]) -> Self {
        spec.validate();
        let mut seg_counts = Vec::with_capacity(spec.num_relations());
        let relations = (0..spec.num_relations())
            .map(|r| {
                let table = catalog
                    .index_of(&spec.tables[r])
                    .expect("query table in catalog");
                let (count, scale, seg_bytes) = geometry(catalog, segments, table);
                seg_counts.push(count);
                PreparedRelation {
                    table,
                    scale,
                    seg_bytes,
                    join_cols: spec.join_cols(r),
                    plan: ProbePlan::plan_rooted(&spec, r).expect("query must be plannable"),
                    indexes: (0..count).map(|_| OnceLock::new()).collect(),
                }
            })
            .collect();
        PreparedQuery {
            agg: Aggregator::for_query(&spec),
            spec,
            relations,
            seg_counts,
        }
    }

    /// True when this preparation is valid for `spec` over `catalog` and
    /// `segments`: an equal spec whose tables resolve to the same catalog
    /// entries with the same geometry. Allocates nothing.
    pub fn fits(
        &self,
        spec: &QuerySpec,
        catalog: &Catalog,
        segments: &[Vec<Arc<Segment>>],
    ) -> bool {
        self.spec == *spec
            && self
                .relations
                .iter()
                .zip(&self.seg_counts)
                .zip(&spec.tables)
                .all(|((rel, &count), name)| {
                    catalog.index_of(name).is_ok_and(|t| {
                        t == rel.table
                            && geometry(catalog, segments, t) == (count, rel.scale, rel.seg_bytes)
                    })
                })
    }

    /// The query.
    pub fn spec(&self) -> &QuerySpec {
        &self.spec
    }

    /// Per-relation plans and geometry, in query order.
    pub fn relations(&self) -> &[PreparedRelation] {
        &self.relations
    }

    /// Segment count per relation, in query order.
    pub fn seg_counts(&self) -> &[u32] {
        &self.seg_counts
    }

    /// An empty accumulator for this query.
    pub fn aggregator(&self) -> Aggregator {
        self.agg.fresh()
    }

    /// The index of segment `seg` of relation `rel` delivered as
    /// `payload`: the shared one if the slot holds (or can take) an
    /// index over this very payload, otherwise a private one built the
    /// same way.
    pub fn index(&self, rel: usize, seg: u32, payload: &Arc<Segment>) -> Arc<SegmentIndex> {
        let relation = &self.relations[rel];
        let build = || {
            Arc::new(SegmentIndex::build(
                Arc::clone(payload),
                self.spec.filters[rel].as_ref(),
                &relation.join_cols,
            ))
        };
        match relation.indexes.get(seg as usize) {
            Some(slot) => {
                let shared = slot.get_or_init(&build);
                if Arc::ptr_eq(shared.segment(), payload) {
                    Arc::clone(shared)
                } else {
                    build()
                }
            }
            None => build(),
        }
    }

    /// The shared index of segment `seg` of relation `rel`, if one has
    /// been built.
    pub fn shared_index(&self, rel: usize, seg: u32) -> Option<&Arc<SegmentIndex>> {
        self.relations[rel].indexes.get(seg as usize)?.get()
    }

    /// Number of shared indexes built so far.
    pub fn built_indexes(&self) -> usize {
        self.relations
            .iter()
            .flat_map(|r| &r.indexes)
            .filter(|slot| slot.get().is_some())
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::TableDef;
    use crate::expr::Expr;
    use crate::query::JoinCond;
    use crate::row;
    use crate::schema::{DataType, Schema};

    /// Tables `a(k)` and `b(k)` with two segments each.
    fn data() -> (Catalog, Vec<Vec<Arc<Segment>>>) {
        let schema = Schema::of(&[("k", DataType::Int)]);
        let mut catalog = Catalog::new();
        let mut segments = Vec::new();
        for name in ["a", "b"] {
            catalog.register(TableDef {
                name: name.into(),
                schema: schema.clone(),
                segment_count: 2,
                logical_bytes_per_segment: 1 << 30,
                logical_rows_per_segment: 100,
            });
            segments.push(
                (0..2i64)
                    .map(|s| {
                        let rows = vec![row![s], row![s + 10]];
                        Arc::new(Segment::new(schema.clone(), rows).unwrap())
                    })
                    .collect(),
            );
        }
        (catalog, segments)
    }

    fn spec(filter: Option<Expr>) -> QuerySpec {
        QuerySpec {
            name: "ab".into(),
            tables: vec!["a".into(), "b".into()],
            filters: vec![filter, None],
            joins: vec![JoinCond::new(0, 0, 1, 0)],
            driver: 0,
            plan_order: vec![1, 0],
            probe_order: None,
            group_by: vec![],
            aggregates: vec![],
        }
    }

    #[test]
    fn prepares_geometry_and_plans() {
        let (catalog, segments) = data();
        let p = PreparedQuery::new(spec(None), &catalog, &segments);
        assert_eq!(p.seg_counts(), &[2, 2]);
        assert_eq!(p.relations()[1].table, 1);
        assert_eq!(p.relations()[0].scale, 50.0);
        assert_eq!(p.relations()[0].join_cols, vec![0]);
        assert_eq!(p.relations()[1].plan.driver, 1);
        assert_eq!(p.built_indexes(), 0);
    }

    #[test]
    fn fits_only_an_equal_spec_over_the_same_geometry() {
        let (catalog, mut segments) = data();
        let p = PreparedQuery::new(spec(None), &catalog, &segments);
        assert!(p.fits(&spec(None), &catalog, &segments));
        let filtered = spec(Some(Expr::col(0).gt(Expr::lit(5i64))));
        assert!(!p.fits(&filtered, &catalog, &segments));
        // A shorter first segment changes the row scale.
        let schema = Schema::of(&[("k", DataType::Int)]);
        segments[0][0] = Arc::new(Segment::new(schema, vec![row![0i64]]).unwrap());
        assert!(!p.fits(&spec(None), &catalog, &segments));
    }

    #[test]
    fn slot_serves_only_its_own_segment() {
        let (catalog, segments) = data();
        let p = PreparedQuery::new(spec(None), &catalog, &segments);
        let first = p.index(0, 1, &segments[0][1]);
        let again = p.index(0, 1, &segments[0][1]);
        assert!(Arc::ptr_eq(&first, &again));
        assert!(Arc::ptr_eq(p.shared_index(0, 1).unwrap(), &first));
        assert_eq!(p.built_indexes(), 1);

        // An equal-content copy at another address is indexed privately.
        let copy = Arc::new(Segment::clone(&segments[0][1]));
        let private = p.index(0, 1, &copy);
        assert!(!Arc::ptr_eq(&private, &first));
        assert!(Arc::ptr_eq(private.segment(), &copy));
        assert_eq!(private.len(), first.len());
        assert_eq!(p.built_indexes(), 1);
    }
}
