//! Subplan bookkeeping for the cache-aware MJoin.
//!
//! A *subplan* is one choice of segment per relation (Table 2 of the
//! paper): joining tables A, B, C with 2, 2, 1 segments yields
//! 2×2×1 = 4 subplans, each of which can execute independently once all
//! of its segments are cached, and the union of their outputs equals the
//! full join. The state manager tracks which subplans are pending vs
//! executed, and the cache-eviction policies need two derived counts:
//!
//! * **pending count** of an object — how many pending subplans it
//!   participates in (the "maximal pending subplans" policy, and the
//!   tie-breaker of the final policy);
//! * **executable count** of an object — how many *new* subplans could
//!   execute given the current cache contents plus the newly arriving
//!   object (the "maximal progress" policy of §4.2).
//!
//! The tracker also implements the §5.2.4 *subplan pruning*
//! optimization: an object whose segment yields no tuples under the
//! query's filters can be pruned, removing every subplan containing it
//! (a 4-table join with 10 segments each drops 10³ subplans per pruned
//! object).
//!
//! Combinations are packed into a `u128` key (up to 8 relations × 16-bit
//! segment ids), and executed-set scans are the only super-constant
//! operations — both bounded by the number of *actually executed*
//! subplans, never the full cross product.

use skipper_relational::hash::{FxHashMap, FxHashSet};

/// An object within a query: `(relation index, segment index)`.
pub type RelSeg = (usize, u32);

/// Packed subplan key: segment choice per relation, 16 bits each.
pub type SubplanKey = u128;

/// Maximum relations per query (u128 packing limit; the paper's widest
/// query, TPC-H Q5, has 6).
pub const MAX_RELATIONS: usize = 8;

/// Tracks pending/executed subplans over the segment cross product.
pub struct SubplanTracker {
    seg_counts: Vec<u32>,
    /// Object `(r, s)` is entry `offsets[r] + s` of the per-object
    /// vectors below.
    offsets: Vec<usize>,
    /// Per object: not pruned.
    alive: Vec<bool>,
    /// Live segments per relation.
    alive_counts: Vec<u64>,
    executed: FxHashSet<SubplanKey>,
    /// Per object: executed subplans containing it (only fully-alive
    /// combos counted).
    executed_per_object: Vec<u64>,
}

impl SubplanTracker {
    /// Creates a tracker for a query whose relation `r` has
    /// `seg_counts[r]` segments.
    ///
    /// # Panics
    /// Panics on more than [`MAX_RELATIONS`] relations, zero-segment
    /// relations, or segment counts beyond 16 bits.
    pub fn new(seg_counts: &[u32]) -> Self {
        assert!(
            (1..=MAX_RELATIONS).contains(&seg_counts.len()),
            "subplan tracker supports 1..={MAX_RELATIONS} relations"
        );
        for &c in seg_counts {
            assert!(c > 0, "relation with zero segments");
            assert!(c <= u16::MAX as u32, "segment count exceeds 16-bit packing");
        }
        let mut offsets = Vec::with_capacity(seg_counts.len() + 1);
        let mut objects = 0;
        offsets.push(objects);
        for &c in seg_counts {
            objects += c as usize;
            offsets.push(objects);
        }
        SubplanTracker {
            seg_counts: seg_counts.to_vec(),
            offsets,
            alive: vec![true; objects],
            alive_counts: seg_counts.iter().map(|&c| c as u64).collect(),
            executed: FxHashSet::default(),
            executed_per_object: vec![0; objects],
        }
    }

    /// Entry of `obj` in the per-object vectors.
    fn slot(&self, (rel, seg): RelSeg) -> usize {
        assert!(
            seg < self.seg_counts[rel],
            "segment {seg} out of range for relation {rel}"
        );
        self.offsets[rel] + seg as usize
    }

    /// Packs a combination (one segment per relation) into a key.
    pub fn pack(combo: &[u32]) -> SubplanKey {
        let mut key: SubplanKey = 0;
        for (r, &seg) in combo.iter().enumerate() {
            key |= (seg as SubplanKey) << (16 * r);
        }
        key
    }

    /// Unpacks a key into a combination of `n` segment indices.
    pub fn unpack(key: SubplanKey, n: usize) -> Vec<u32> {
        (0..n)
            .map(|r| ((key >> (16 * r)) & 0xFFFF) as u32)
            .collect()
    }

    /// Number of relations.
    pub fn num_relations(&self) -> usize {
        self.seg_counts.len()
    }

    /// Segment count of relation `r` (including pruned segments).
    pub fn seg_count(&self, r: usize) -> u32 {
        self.seg_counts[r]
    }

    /// Whether `(rel, seg)` is still alive (not pruned).
    pub fn is_alive(&self, obj: RelSeg) -> bool {
        self.alive[self.slot(obj)]
    }

    /// Total subplans over live segments (`Π alive_r`).
    pub fn total_live_subplans(&self) -> u64 {
        self.alive_counts.iter().product()
    }

    /// Executed subplans so far.
    pub fn executed_count(&self) -> u64 {
        self.executed.len() as u64
    }

    /// Pending (live, unexecuted) subplans.
    pub fn pending_total(&self) -> u64 {
        self.total_live_subplans() - self.executed.len() as u64
    }

    /// True when every live subplan has executed — query complete.
    pub fn is_complete(&self) -> bool {
        self.pending_total() == 0
    }

    /// Number of pending subplans `obj` participates in; 0 for pruned
    /// objects.
    pub fn pending_count(&self, obj: RelSeg) -> u64 {
        if !self.is_alive(obj) {
            return 0;
        }
        let others: u64 = self
            .alive_counts
            .iter()
            .enumerate()
            .filter(|&(r, _)| r != obj.0)
            .map(|(_, &c)| c)
            .product();
        others - self.executed_per_object[self.slot(obj)]
    }

    /// Whether a combination has already executed.
    pub fn is_executed(&self, combo: &[u32]) -> bool {
        self.executed.contains(&Self::pack(combo))
    }

    /// Marks a combination executed. Returns `false` if it was already
    /// executed (callers treat double execution as a bug upstream).
    ///
    /// # Panics
    /// Panics if any coordinate is pruned — the state manager never
    /// caches pruned objects, so this indicates a bookkeeping bug.
    pub fn mark_executed(&mut self, combo: &[u32]) -> bool {
        assert_eq!(combo.len(), self.seg_counts.len());
        for (r, &seg) in combo.iter().enumerate() {
            assert!(
                self.is_alive((r, seg)),
                "executing subplan with pruned segment ({r}, {seg})"
            );
        }
        let key = Self::pack(combo);
        if !self.executed.insert(key) {
            return false;
        }
        for (r, &seg) in combo.iter().enumerate() {
            let slot = self.slot((r, seg));
            self.executed_per_object[slot] += 1;
        }
        true
    }

    /// Prunes `(rel, seg)`: every subplan containing it is removed from
    /// the pending space. Returns the number of *pending* subplans
    /// eliminated. Pruning an already-pruned object is a no-op returning
    /// 0.
    pub fn prune(&mut self, obj: RelSeg) -> u64 {
        let (rel, seg) = obj;
        if !self.is_alive(obj) {
            return 0;
        }
        let eliminated = self.pending_count(obj);
        let slot = self.slot(obj);
        self.alive[slot] = false;
        self.alive_counts[rel] -= 1;
        // Drop executed combos containing the object so per-object counts
        // stay consistent with the shrunken live space.
        let dead: Vec<SubplanKey> = self
            .executed
            .iter()
            .copied()
            .filter(|&k| ((k >> (16 * rel)) & 0xFFFF) as u32 == seg)
            .collect();
        for key in dead {
            self.executed.remove(&key);
            for (r, s) in Self::unpack(key, self.seg_counts.len())
                .into_iter()
                .enumerate()
            {
                let slot = self.slot((r, s));
                self.executed_per_object[slot] -= 1;
            }
        }
        eliminated
    }

    /// The **maximal-progress** scores of §4.2: for every cached object,
    /// how many new subplans become executable given the cache contents
    /// plus `incoming`. `cached[r]` lists relation `r`'s cached segments
    /// (all alive); `incoming` is the arriving object (counted as present
    /// but not scored).
    ///
    /// Returned in the same object order as `candidates`.
    pub fn executable_counts(
        &self,
        cached: &[Vec<u32>],
        incoming: Option<RelSeg>,
        candidates: &[RelSeg],
    ) -> Vec<u64> {
        assert_eq!(cached.len(), self.seg_counts.len());
        // Effective per-relation cache contents including the newcomer.
        let mut present: Vec<Vec<u32>> = cached.to_vec();
        if let Some((r, s)) = incoming {
            if !present[r].contains(&s) {
                present[r].push(s);
            }
        }
        let sizes: Vec<u64> = present.iter().map(|v| v.len() as u64).collect();
        let membership: Vec<FxHashSet<u32>> = present
            .iter()
            .map(|v| v.iter().copied().collect())
            .collect();

        // Executed combos fully inside the effective cache, counted per
        // coordinate, in one pass over the executed set.
        let mut executed_in_cache: FxHashMap<RelSeg, u64> = FxHashMap::default();
        'combos: for &key in &self.executed {
            let combo = Self::unpack(key, self.seg_counts.len());
            for (r, &s) in combo.iter().enumerate() {
                if !membership[r].contains(&s) {
                    continue 'combos;
                }
            }
            for (r, &s) in combo.iter().enumerate() {
                *executed_in_cache.entry((r, s)).or_insert(0) += 1;
            }
        }

        candidates
            .iter()
            .map(|&(rel, seg)| {
                debug_assert!(membership[rel].contains(&seg), "candidate not cached");
                let others: u64 = sizes
                    .iter()
                    .enumerate()
                    .filter(|&(r, _)| r != rel)
                    .map(|(_, &c)| c)
                    .product();
                others - executed_in_cache.get(&(rel, seg)).copied().unwrap_or(0)
            })
            .collect()
    }

    /// Enumerates the not-yet-executed combinations drawable from the
    /// cache that include `fixed` — the subplans that become runnable
    /// when `fixed` arrives (all other fully-cached combinations were
    /// runnable earlier and have already executed). `out` is cleared and
    /// receives them back to back, [`SubplanTracker::num_relations`]
    /// segment ids each, so a reused buffer makes this allocation-free.
    pub fn runnable_with(&self, cached: &[Vec<u32>], fixed: RelSeg, out: &mut Vec<u32>) {
        assert!(self.is_alive(fixed), "runnable_with on pruned object");
        let mut combo = [0u32; MAX_RELATIONS];
        out.clear();
        self.enumerate(cached, fixed, 0, &mut combo[..self.seg_counts.len()], out);
    }

    fn enumerate(
        &self,
        cached: &[Vec<u32>],
        fixed: RelSeg,
        rel: usize,
        combo: &mut [u32],
        out: &mut Vec<u32>,
    ) {
        if rel == combo.len() {
            if !self.executed.contains(&Self::pack(combo)) {
                out.extend_from_slice(combo);
            }
            return;
        }
        if rel == fixed.0 {
            combo[rel] = fixed.1;
            self.enumerate(cached, fixed, rel + 1, combo, out);
        } else {
            for &seg in &cached[rel] {
                debug_assert!(self.is_alive((rel, seg)), "pruned object in cache");
                combo[rel] = seg;
                self.enumerate(cached, fixed, rel + 1, combo, out);
            }
        }
    }

    /// The lexicographically smallest pending combination, if any —
    /// used by the state manager's degraded single-subplan mode at
    /// extreme cache pressure. Cost is bounded by the number of executed
    /// combinations scanned before the first gap.
    pub fn first_pending(&self) -> Option<Vec<u32>> {
        let n = self.seg_counts.len();
        // Odometer over live segments per relation.
        let live: Vec<Vec<u32>> = (0..n)
            .map(|r| {
                (0..self.seg_counts[r])
                    .filter(|&s| self.is_alive((r, s)))
                    .collect()
            })
            .collect();
        if live.iter().any(|l| l.is_empty()) {
            return None;
        }
        let mut cursor = vec![0usize; n];
        loop {
            let combo: Vec<u32> = cursor
                .iter()
                .enumerate()
                .map(|(r, &i)| live[r][i])
                .collect();
            if !self.is_executed(&combo) {
                return Some(combo);
            }
            // Advance the odometer.
            let mut r = n;
            loop {
                if r == 0 {
                    return None;
                }
                r -= 1;
                cursor[r] += 1;
                if cursor[r] < live[r].len() {
                    break;
                }
                cursor[r] = 0;
            }
        }
    }

    /// All live objects still participating in pending subplans —
    /// the refetch universe for reissue cycles.
    pub fn pending_objects(&self) -> Vec<RelSeg> {
        let mut out = Vec::new();
        for (r, &count) in self.seg_counts.iter().enumerate() {
            for s in 0..count {
                let obj = (r, s);
                if self.is_alive(obj) && self.pending_count(obj) > 0 {
                    out.push(obj);
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The Table 2 configuration: tables A, B, C with 2, 2, 2 segments
    /// (A.1/A.2, B.1/B.2, C.1/C.3 in the paper's naming).
    fn table2_tracker() -> SubplanTracker {
        SubplanTracker::new(&[2, 2, 2])
    }

    #[test]
    fn table2_enumerates_eight_subplans() {
        let t = table2_tracker();
        assert_eq!(t.total_live_subplans(), 8);
        assert_eq!(t.pending_total(), 8);
        assert!(!t.is_complete());
    }

    #[test]
    fn paper_sf100_q5_counts() {
        // §5.2.4: "There are 14630 subplans in total" for 95×22×7 (the
        // three multi-segment tables; single-segment dims do not
        // multiply).
        let t = SubplanTracker::new(&[95, 22, 7, 1, 1, 1]);
        assert_eq!(t.total_live_subplans(), 14_630);
    }

    #[test]
    fn mark_executed_updates_counts() {
        let mut t = table2_tracker();
        assert!(t.mark_executed(&[0, 0, 0]));
        assert!(!t.mark_executed(&[0, 0, 0])); // duplicate
        assert_eq!(t.executed_count(), 1);
        assert_eq!(t.pending_total(), 7);
        assert_eq!(t.pending_count((0, 0)), 3); // 4 combos with A.0, 1 done
        assert_eq!(t.pending_count((0, 1)), 4);
    }

    /// The worked example of §4.2: cache {A.1, B.1, A.2, C.3}, executed
    /// {<A.1,B.1,C.3>, <A.2,B.1,C.3>}, arriving C.1.
    /// (0-based: A=rel0 {0,1}, B=rel1 {0,1}, C=rel2 {C.1=0, C.3=1}.)
    #[test]
    fn paper_eviction_example_pending_counts() {
        let mut t = table2_tracker();
        t.mark_executed(&[0, 0, 1]); // <A.1, B.1, C.3>
        t.mark_executed(&[1, 0, 1]); // <A.2, B.1, C.3>
                                     // "we get 4 for C.1, 3 for A.1 and A.2, and 2 for each B.1 and C.3"
        assert_eq!(t.pending_count((2, 0)), 4); // C.1
        assert_eq!(t.pending_count((0, 0)), 3); // A.1
        assert_eq!(t.pending_count((0, 1)), 3); // A.2
        assert_eq!(t.pending_count((1, 0)), 2); // B.1
        assert_eq!(t.pending_count((2, 1)), 2); // C.3
    }

    #[test]
    fn paper_eviction_example_executable_counts() {
        let mut t = table2_tracker();
        t.mark_executed(&[0, 0, 1]);
        t.mark_executed(&[1, 0, 1]);
        // Cache: A.1, A.2 (rel0: {0,1}), B.1 (rel1: {0}), C.3 (rel2: {1}),
        // incoming C.1 (rel2, 0).
        let cached = vec![vec![0, 1], vec![0], vec![1]];
        let candidates = [(0usize, 0u32), (0, 1), (1, 0), (2, 1)];
        let counts = t.executable_counts(&cached, Some((2, 0)), &candidates);
        // "1 for each A.1 and A.2, and 2 for B.1 ... but 0 for C.3"
        assert_eq!(counts, vec![1, 1, 2, 0]);
    }

    #[test]
    fn runnable_with_lists_new_combinations() {
        let mut t = table2_tracker();
        t.mark_executed(&[0, 0, 1]);
        t.mark_executed(&[1, 0, 1]);
        let cached = vec![vec![0, 1], vec![0], vec![1]];
        // C.1 arrives: runnable = {<A.1,B.1,C.1>, <A.2,B.1,C.1>}.
        let mut runnable = Vec::new();
        t.runnable_with(&cached, (2, 0), &mut runnable);
        assert_eq!(runnable, vec![0, 0, 0, 1, 0, 0]);
        // C.3 "arrives" again: both its cached combos already executed.
        t.runnable_with(&cached, (2, 1), &mut runnable);
        assert!(runnable.is_empty());
    }

    #[test]
    fn completes_after_all_subplans() {
        let mut t = SubplanTracker::new(&[2, 1]);
        t.mark_executed(&[0, 0]);
        assert!(!t.is_complete());
        t.mark_executed(&[1, 0]);
        assert!(t.is_complete());
        assert_eq!(t.pending_objects(), Vec::<RelSeg>::new());
    }

    #[test]
    fn pruning_removes_whole_slices() {
        // The §5.2.4 example: 4 tables × 10 segments = 10⁴ subplans;
        // pruning one object removes 10³.
        let mut t = SubplanTracker::new(&[10, 10, 10, 10]);
        assert_eq!(t.total_live_subplans(), 10_000);
        let removed = t.prune((0, 3));
        assert_eq!(removed, 1_000);
        assert_eq!(t.total_live_subplans(), 9_000);
        assert!(!t.is_alive((0, 3)));
        assert_eq!(t.pending_count((0, 3)), 0);
        // Re-pruning is a no-op.
        assert_eq!(t.prune((0, 3)), 0);
    }

    #[test]
    fn pruning_adjusts_executed_bookkeeping() {
        let mut t = table2_tracker();
        t.mark_executed(&[0, 0, 0]);
        t.mark_executed(&[0, 1, 0]);
        // Prune C.0: both executed combos contained it.
        let removed = t.prune((2, 0));
        // Pending combos with C.0 were 4 − 2 executed = 2.
        assert_eq!(removed, 2);
        assert_eq!(t.executed_count(), 0);
        assert_eq!(t.total_live_subplans(), 4);
        assert_eq!(t.pending_count((0, 0)), 2);
        // B.0's executed-per-object count was rolled back too.
        assert_eq!(t.pending_count((1, 0)), 2);
    }

    #[test]
    fn pending_objects_tracks_progress() {
        let mut t = SubplanTracker::new(&[2, 1]);
        assert_eq!(t.pending_objects().len(), 3);
        t.mark_executed(&[0, 0]);
        // A.0 is exhausted; A.1 and B.0 still pending.
        assert_eq!(t.pending_objects(), vec![(0, 1), (1, 0)]);
    }

    #[test]
    fn pack_unpack_roundtrip() {
        let combo = vec![95, 22, 7, 0, 1, 65_535];
        let key = SubplanTracker::pack(&combo);
        assert_eq!(SubplanTracker::unpack(key, 6), combo);
    }

    #[test]
    #[should_panic(expected = "zero segments")]
    fn zero_segment_relation_rejected() {
        SubplanTracker::new(&[2, 0]);
    }

    #[test]
    #[should_panic(expected = "relations")]
    fn too_many_relations_rejected() {
        SubplanTracker::new(&[1; 9]);
    }

    #[test]
    #[should_panic(expected = "pruned segment")]
    fn executing_pruned_combo_panics() {
        let mut t = table2_tracker();
        t.prune((0, 0));
        t.mark_executed(&[0, 0, 0]);
    }

    #[test]
    fn single_relation_scan_degenerates() {
        // A pure scan: every segment is its own subplan.
        let mut t = SubplanTracker::new(&[5]);
        assert_eq!(t.total_live_subplans(), 5);
        for s in 0..5 {
            t.mark_executed(&[s]);
        }
        assert!(t.is_complete());
    }
}
