//! Allocation bounds of the zero-copy data plane.
//!
//! A counting global allocator pins how many heap allocations the index
//! build and the binary join make. Both borrow rows from their segments,
//! so the counts scale with the join columns, the relations, the groups
//! and the distinct build keys, never with the rows scanned or joined.
//! The counter is per thread, so tests running side by side do not see
//! each other's allocations.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::BTreeSet;
use std::sync::Arc;

use skipper_relational::expr::Expr;
use skipper_relational::ops::binary;
use skipper_relational::ops::index::SegmentIndex;
use skipper_relational::query::{AggFunc, AggSpec, JoinCond, JoinExpr, QualifiedCol, QuerySpec};
use skipper_relational::schema::{DataType, Schema};
use skipper_relational::segment::Segment;
use skipper_relational::tuple::Row;
use skipper_relational::value::Value;

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the only other work is a
// bump of a `const`-initialized thread-local `Cell`, which neither
// allocates nor unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Runs `f`, returning its result and the allocations it made on this
/// thread.
fn counted<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (out, ALLOCS.with(Cell::get) - before)
}

#[test]
fn index_build_allocates_per_join_column_not_per_row() {
    let schema = Schema::of(&[
        ("k", DataType::Int),
        ("g", DataType::Int),
        ("name", DataType::Str),
    ]);
    let names = [Value::str("MAIL"), Value::str("SHIP"), Value::str("AIR")];
    let rows: Vec<Row> = (0..1_000i64)
        .map(|i| {
            Row::new(vec![
                Value::Int(i),
                Value::Int(i % 50),
                names[i as usize % 3].clone(),
            ])
        })
        .collect();
    let segment = Arc::new(Segment::new(schema, rows).unwrap());

    for join_cols in [&[0usize][..], &[0, 1], &[0, 1, 2]] {
        let (index, allocs) =
            counted(|| SegmentIndex::build(Arc::clone(&segment), None, join_cols));
        assert_eq!(index.len(), 1_000);
        assert_eq!(index.probe(0, &Value::Int(417)), &[417]);
        let bound = 4 + 4 * join_cols.len() as u64;
        assert!(
            allocs <= bound,
            "{} join columns over 1000 rows: {allocs} allocations (bound {bound})",
            join_cols.len()
        );
    }
}

/// Days since 1992-01-01 of 1994-01-01 and 1995-01-01.
const Y1994: i32 = 731;
const Y1995: i32 = 1096;

/// TPC-H Q12 over `orders(o_orderkey, o_orderpriority)` and
/// `lineitem(l_orderkey, l_shipdate, l_commitdate, l_receiptdate,
/// l_shipmode)`, with the predicate, join, grouping and aggregates of
/// the benchmark query.
fn q12() -> QuerySpec {
    let high = vec![Value::str("1-URGENT"), Value::str("2-HIGH")];
    let priority = QualifiedCol::new(0, 1);
    let line_filter = Expr::col(4)
        .in_list(vec![Value::str("MAIL"), Value::str("SHIP")])
        .and(Expr::col(2).lt(Expr::col(3)))
        .and(Expr::col(1).lt(Expr::col(2)))
        .and(Expr::col(3).ge(Expr::lit(Value::Date(Y1994))))
        .and(Expr::col(3).lt(Expr::lit(Value::Date(Y1995))));
    QuerySpec {
        name: "tpch-q12".into(),
        tables: vec!["orders".into(), "lineitem".into()],
        filters: vec![None, Some(line_filter)],
        joins: vec![JoinCond::new(0, 0, 1, 0)],
        driver: 1,
        plan_order: vec![0, 1],
        probe_order: None,
        group_by: vec![QualifiedCol::new(1, 4)],
        aggregates: vec![
            AggSpec::new(
                AggFunc::Sum,
                JoinExpr::CaseInList {
                    probe: priority,
                    list: high.clone(),
                    then: Value::Int(1),
                    otherwise: Value::Int(0),
                },
                "high_line_count",
            ),
            AggSpec::new(
                AggFunc::Sum,
                JoinExpr::CaseInList {
                    probe: priority,
                    list: high,
                    then: Value::Int(0),
                    otherwise: Value::Int(1),
                },
                "low_line_count",
            ),
        ],
    }
}

/// `count` rows from `row(i)`, cut into `segments` equal segments.
fn segments(schema: &Schema, count: i64, segments: i64, row: impl Fn(i64) -> Row) -> Vec<Segment> {
    let per = count / segments;
    (0..segments)
        .map(|s| {
            let rows = (s * per..(s + 1) * per).map(&row).collect();
            Segment::new(schema.clone(), rows).unwrap()
        })
        .collect()
}

#[test]
fn left_deep_join_allocates_per_key_and_group_not_per_row() {
    let priorities = ["1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW"].map(Value::str);
    let modes = ["MAIL", "SHIP", "AIR", "RAIL", "TRUCK", "FOB", "REG AIR"].map(Value::str);
    let orders_schema = Schema::of(&[
        ("o_orderkey", DataType::Int),
        ("o_orderpriority", DataType::Str),
    ]);
    let line_schema = Schema::of(&[
        ("l_orderkey", DataType::Int),
        ("l_shipdate", DataType::Date),
        ("l_commitdate", DataType::Date),
        ("l_receiptdate", DataType::Date),
        ("l_shipmode", DataType::Str),
    ]);
    let orders = segments(&orders_schema, 1_000, 4, |i| {
        Row::new(vec![Value::Int(i), priorities[i as usize % 5].clone()])
    });
    let lineitem = segments(&line_schema, 8_000, 8, |i| {
        let ship = 500 + (i * 37 % 800) as i32;
        let commit = ship + (i * 13 % 60) as i32 - 10;
        let receipt = commit + (i * 7 % 40) as i32 - 5;
        Row::new(vec![
            Value::Int(i / 8),
            Value::Date(ship),
            Value::Date(commit),
            Value::Date(receipt),
            modes[i as usize % 7].clone(),
        ])
    });
    let spec = q12();

    let ((agg, work), allocs) =
        counted(|| binary::execute_left_deep(&spec, &[&orders[..], &lineitem[..]]));
    let result = agg.finish();

    // Q12 shape: the plan builds over the filtered lineitem and probes
    // with every order; each surviving line item joins its one order,
    // into one group per surviving ship mode.
    let line_filter = spec.filters[1].as_ref().unwrap();
    let build_keys = lineitem
        .iter()
        .flat_map(|s| s.rows())
        .filter(|r| line_filter.matches(r))
        .map(|r| r.get(0).as_int().unwrap())
        .collect::<BTreeSet<i64>>()
        .len() as u64;
    let groups = result.len() as u64;
    assert_eq!(groups, 2);
    assert_eq!(work.probes, 1_000);
    assert!(work.built > 100 && work.emitted == work.built, "{work:?}");

    // Per relation and per segment: the survivor and row-reference
    // buffers. Per distinct build key: its hash-table key. Per group:
    // its key and its aggregate states. The constant covers the fixed
    // buffers, the growth of the intermediate and of the hash tables,
    // and the aggregate specs the aggregator copies.
    let relations = spec.num_relations() as u64;
    let segs = (orders.len() + lineitem.len()) as u64;
    let bound = 64 + 4 * relations + segs + build_keys + 2 * groups;
    assert!(
        allocs <= bound,
        "{allocs} allocations for {} scanned / {} joined rows (bound {bound})",
        work.scanned,
        work.emitted
    );
}
