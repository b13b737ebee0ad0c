//! # skipper-relational — minimal relational engine substrate
//!
//! The Skipper paper compares two query-execution strategies over data
//! striped across a cold storage device: classic *pull-based* execution
//! with blocking binary hash joins (vanilla PostgreSQL) and *push-based*
//! out-of-order execution with a cache-aware multi-way join (Skipper).
//! Both strategies need a real relational engine underneath: rows,
//! schemas, predicates, hash tables, joins and aggregation. This crate is
//! that substrate, built from scratch and shared by the baseline and by
//! Skipper's MJoin so that result correctness can be cross-checked.
//!
//! Design notes:
//! * Rows are small boxed slices of [`Value`] owned by their [`Segment`].
//!   Scans, indexes, joins and aggregation borrow them: a scan yields row
//!   positions, an index or join holds positions and `&Row`s, and a key
//!   is copied only when it is new to a hash table.
//! * Hashing uses an FxHash-style hasher ([`hash`]) — the guide-recommended
//!   idiom for integer-keyed join tables.
//! * A [`Segment`] is the unit of storage and transfer:
//!   it corresponds to one "object" on the cold storage device (the
//!   paper's 1 GB PostgreSQL relation segments stored as Swift objects).
//! * [`query::QuerySpec`] is a declarative join-query description consumed
//!   by both engines; [`join_graph`] plans n-ary probe orders over it.
//! * A [`prepared::PreparedQuery`] holds a spec's plans over one dataset
//!   and memoizes each segment's filtered hash index, so equal queries
//!   share that work.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod catalog;
pub mod error;
pub mod expr;
pub mod hash;
pub mod join_graph;
pub mod ops;
pub mod prepared;
pub mod query;
pub mod schema;
pub mod segment;
pub mod tuple;
pub mod value;

pub use catalog::{Catalog, TableDef};
pub use error::RelationalError;
pub use expr::Expr;
pub use query::{AggFunc, AggSpec, JoinCond, QualifiedCol, QuerySpec};
pub use schema::{DataType, Field, Schema};
pub use segment::Segment;
pub use tuple::Row;
pub use value::Value;
