//! Filtered segment scans.
//!
//! Selection predicates are applied at the segment boundary in both
//! engines — the baseline filters each segment as it arrives, MJoin
//! filters before indexing a segment for its symmetric hash joins.
//! Centralizing the scan here keeps the two engines' filter semantics
//! identical. A scan copies no row: it yields the positions of the
//! survivors in the segment, which stays shared.

use crate::expr::Expr;
use crate::segment::Segment;

/// Statistics from one scan.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ScanStats {
    /// Tuples examined.
    pub scanned: usize,
    /// Tuples passing the predicate.
    pub kept: usize,
}

/// Scans `segment`, returning the ascending positions of the rows
/// passing `filter` (all rows when `filter` is `None`) along with scan
/// statistics.
pub fn scan(segment: &Segment, filter: Option<&Expr>) -> (Vec<u32>, ScanStats) {
    let rows = segment.rows();
    let all = 0..rows.len() as u32;
    let survivors: Vec<u32> = match filter {
        None => all.collect(),
        Some(pred) => {
            // One allocation at the upper bound, trimmed once.
            let mut kept = Vec::with_capacity(rows.len());
            kept.extend(all.filter(|&pos| pred.matches(&rows[pos as usize])));
            kept.shrink_to_fit();
            kept
        }
    };
    let stats = ScanStats {
        scanned: rows.len(),
        kept: survivors.len(),
    };
    (survivors, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::row;
    use crate::schema::{DataType, Schema};

    fn seg() -> Segment {
        let schema = Schema::of(&[("k", DataType::Int)]);
        Segment::new(schema, (0..10i64).map(|i| row![i]).collect()).unwrap()
    }

    #[test]
    fn unfiltered_scan_keeps_all() {
        let (survivors, stats) = scan(&seg(), None);
        assert_eq!(survivors, (0..10).collect::<Vec<u32>>());
        assert_eq!(
            stats,
            ScanStats {
                scanned: 10,
                kept: 10
            }
        );
    }

    #[test]
    fn filtered_scan_applies_predicate() {
        let seg = seg();
        let pred = Expr::col(0).ge(Expr::lit(7i64));
        let (survivors, stats) = scan(&seg, Some(&pred));
        assert_eq!(survivors, vec![7, 8, 9]);
        assert_eq!(stats.kept, 3);
        assert_eq!(stats.scanned, 10);
        assert!(survivors
            .iter()
            .all(|&p| seg.rows()[p as usize].get(0).as_int().unwrap() >= 7));
    }

    #[test]
    fn selective_to_empty() {
        let pred = Expr::col(0).gt(Expr::lit(100i64));
        let (survivors, stats) = scan(&seg(), Some(&pred));
        assert!(survivors.is_empty());
        assert_eq!(stats.kept, 0);
    }
}
