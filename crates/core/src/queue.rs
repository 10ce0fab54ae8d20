//! The modified priority queue of §4.6.
//!
//! Best-first search over the assignment lattice would otherwise linger on
//! states with few assignments (costs increase monotonically with
//! assignments) and visit exponentially many subsets. The queue is bounded
//! per level: level `i` (states with `i` assignments) holds at most
//! `max(1, ϱ − i + 1)` states. A full level accepts a new state only if it
//! is not worse than every resident of the level, evicting the worst.
//! Polling returns the globally cheapest state; ties prefer more
//! assignments.

use crate::state::SearchState;

/// Undo log of one [`BoundedLevelQueue::poll_batch`]: the `(level, index)`
/// of each removal in poll order, enough for
/// [`BoundedLevelQueue::restore`] to rebuild the exact pre-batch layout.
#[derive(Debug)]
pub struct BatchReceipt {
    removals: Vec<(usize, usize)>,
}

/// Level-bounded priority queue.
#[derive(Debug, Default)]
pub struct BoundedLevelQueue {
    levels: Vec<Vec<SearchState>>,
    rho: usize,
    len: usize,
}

impl BoundedLevelQueue {
    /// Create a queue with width parameter ϱ. `rho = 0` is honoured as
    /// written: every level then holds exactly one state (the paper's
    /// `max(1, ϱ − i + 1)` with ϱ = 0), making the search fully greedy.
    pub fn new(rho: usize) -> BoundedLevelQueue {
        BoundedLevelQueue {
            levels: Vec::new(),
            rho,
            len: 0,
        }
    }

    /// Capacity of level `i`: `max(1, ϱ − i + 1)`.
    pub fn capacity(&self, level: usize) -> usize {
        self.rho.saturating_add(1).saturating_sub(level).max(1)
    }

    /// Number of queued states.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no states are queued.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Insert a state, respecting the level bound. Returns `false` if the
    /// state was rejected (level full of strictly better states).
    pub fn push(&mut self, state: SearchState) -> bool {
        let level = state.level();
        if self.levels.len() <= level {
            self.levels.resize_with(level + 1, Vec::new);
        }
        let cap = self.capacity(level);
        let bucket = &mut self.levels[level];
        if bucket.len() < cap {
            bucket.push(state);
            self.len += 1;
            return true;
        }
        // Find the worst resident (max cost; ties towards older states so
        // fresh equal-cost states replace stale ones deterministically).
        let (worst_idx, worst_cost) = bucket
            .iter()
            .enumerate()
            .map(|(i, s)| (i, s.cost))
            .max_by(|a, b| a.1.partial_cmp(&b.1).expect("costs are never NaN"))
            .expect("bucket is non-empty when full");
        if state.cost <= worst_cost {
            bucket[worst_idx] = state;
            true
        } else {
            false
        }
    }

    /// Position `(level, index)` of the state the next [`poll`] returns.
    ///
    /// [`poll`]: BoundedLevelQueue::poll
    fn poll_position(&self) -> Option<(usize, usize)> {
        let mut best: Option<(usize, usize)> = None; // (level, index)
        let mut best_key: Option<(f64, usize, usize)> = None; // (cost, level, id)
        for (level, bucket) in self.levels.iter().enumerate() {
            for (i, s) in bucket.iter().enumerate() {
                let better = match best_key {
                    None => true,
                    Some((bc, blvl, bid)) => {
                        match s.cost.partial_cmp(&bc).expect("costs are never NaN") {
                            std::cmp::Ordering::Less => true,
                            std::cmp::Ordering::Greater => false,
                            std::cmp::Ordering::Equal => {
                                level > blvl || (level == blvl && s.id < bid)
                            }
                        }
                    }
                };
                if better {
                    best = Some((level, i));
                    best_key = Some((s.cost, level, s.id));
                }
            }
        }
        best
    }

    /// Remove and return the globally cheapest state. Ties are broken
    /// towards states with more assignments ("returns states with a higher
    /// number of assignments first"), then towards *older* ids — children
    /// are generated in ranking order, so earlier ids carry better-ranked
    /// candidates.
    pub fn poll(&mut self) -> Option<SearchState> {
        let (level, idx) = self.poll_position()?;
        self.len -= 1;
        Some(self.levels[level].swap_remove(idx))
    }

    /// Drain up to `max` states in exact successive-[`poll`] order — the
    /// speculation batch of the K-way frontier expansion. The returned
    /// [`BatchReceipt`] lets [`restore`] undo the drain precisely: the
    /// eviction tie-break of [`push`] depends on bucket-internal order, so
    /// putting unconsumed speculated states back must reproduce the exact
    /// pre-poll bucket contents, not merely the same state set.
    ///
    /// [`poll`]: BoundedLevelQueue::poll
    /// [`push`]: BoundedLevelQueue::push
    /// [`restore`]: BoundedLevelQueue::restore
    pub fn poll_batch(&mut self, max: usize) -> (Vec<SearchState>, BatchReceipt) {
        let mut states = Vec::new();
        let mut removals = Vec::new();
        while states.len() < max {
            let Some((level, idx)) = self.poll_position() else {
                break;
            };
            self.len -= 1;
            removals.push((level, idx));
            states.push(self.levels[level].swap_remove(idx));
        }
        (states, BatchReceipt { removals })
    }

    /// Put the states of a [`poll_batch`] back, restoring the queue to its
    /// exact pre-batch contents (bucket order included). Must be called
    /// with the batch's own states and receipt, before any interleaved
    /// `push`/`poll` — the receipt's positions are only meaningful against
    /// the post-drain layout it was recorded from.
    ///
    /// [`poll_batch`]: BoundedLevelQueue::poll_batch
    pub fn restore(&mut self, states: Vec<SearchState>, receipt: BatchReceipt) {
        assert_eq!(
            states.len(),
            receipt.removals.len(),
            "restore needs exactly the states its receipt recorded"
        );
        // Undo the swap_removes in reverse order: the displaced element (if
        // any) was the bucket's last, so it goes back to the end.
        for (state, (level, idx)) in states.into_iter().zip(receipt.removals).rev() {
            let bucket = &mut self.levels[level];
            if idx == bucket.len() {
                bucket.push(state);
            } else {
                let displaced = std::mem::replace(&mut bucket[idx], state);
                bucket.push(displaced);
            }
            self.len += 1;
        }
    }

    /// The state the next [`poll`] would return, without removing it —
    /// lets the driver size up the head of the frontier (e.g. the
    /// speculation fan-out gate) without touching the queue.
    ///
    /// [`poll`]: BoundedLevelQueue::poll
    pub fn peek(&self) -> Option<&SearchState> {
        self.poll_position()
            .map(|(level, idx)| &self.levels[level][idx])
    }

    /// Peek at the cheapest cost without removing.
    pub fn min_cost(&self) -> Option<f64> {
        self.levels
            .iter()
            .flatten()
            .map(|s| s.cost)
            .min_by(|a, b| a.partial_cmp(b).expect("costs are never NaN"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::Assignment;
    use affidavit_blocking::Blocking;
    use affidavit_functions::AttrFunction;
    use std::sync::Arc;

    fn state(id: usize, level: usize, cost: f64) -> SearchState {
        let mut assignments = vec![Assignment::Undecided; 8];
        for a in assignments.iter_mut().take(level) {
            *a = Assignment::Assigned(AttrFunction::Identity);
        }
        SearchState {
            assignments,
            blocking: Arc::new(Blocking::default()),
            cost,
            id,
            parent: None,
        }
    }

    #[test]
    fn capacities_match_paper() {
        let q = BoundedLevelQueue::new(3);
        // max(1, ϱ − i + 1): level 1 → 3, level 2 → 2, level 3 → 1, 4 → 1.
        assert_eq!(q.capacity(1), 3);
        assert_eq!(q.capacity(2), 2);
        assert_eq!(q.capacity(3), 1);
        assert_eq!(q.capacity(4), 1);
        assert_eq!(q.capacity(7), 1);
    }

    #[test]
    fn poll_returns_cheapest() {
        let mut q = BoundedLevelQueue::new(5);
        q.push(state(1, 1, 10.0));
        q.push(state(2, 1, 3.0));
        q.push(state(3, 2, 7.0));
        assert_eq!(q.poll().unwrap().id, 2);
        assert_eq!(q.poll().unwrap().id, 3);
        assert_eq!(q.poll().unwrap().id, 1);
        assert!(q.poll().is_none());
    }

    #[test]
    fn tie_prefers_higher_level() {
        let mut q = BoundedLevelQueue::new(5);
        q.push(state(1, 1, 5.0));
        q.push(state(2, 3, 5.0));
        assert_eq!(q.poll().unwrap().id, 2);
    }

    #[test]
    fn full_level_rejects_worse() {
        let mut q = BoundedLevelQueue::new(1); // level 1 capacity = 1
        assert!(q.push(state(1, 1, 5.0)));
        assert!(!q.push(state(2, 1, 9.0))); // worse than all residents
        assert!(q.push(state(3, 1, 4.0))); // better: evicts
        assert_eq!(q.len(), 1);
        assert_eq!(q.poll().unwrap().id, 3);
    }

    #[test]
    fn equal_cost_is_accepted_on_full_level() {
        // "not worse than all states" — equal cost must be accepted.
        let mut q = BoundedLevelQueue::new(1);
        q.push(state(1, 1, 5.0));
        assert!(q.push(state(2, 1, 5.0)));
        assert_eq!(q.poll().unwrap().id, 2);
    }

    #[test]
    fn eviction_keeps_level_size() {
        let mut q = BoundedLevelQueue::new(2); // level 1 cap = 2
        q.push(state(1, 1, 5.0));
        q.push(state(2, 1, 6.0));
        q.push(state(3, 1, 1.0)); // evicts id 2
        assert_eq!(q.len(), 2);
        let a = q.poll().unwrap();
        let b = q.poll().unwrap();
        assert_eq!((a.id, b.id), (3, 1));
    }

    #[test]
    fn capacity_beyond_rho_clamps_to_one() {
        // Regression: the formula `max(1, ϱ − i + 1)` must clamp for every
        // level past ϱ, not just the ones existing tests touched.
        let q = BoundedLevelQueue::new(3);
        for level in 4..64 {
            assert_eq!(q.capacity(level), 1, "level {level}");
        }
        // And push honours the clamp far beyond ϱ.
        let mut q = BoundedLevelQueue::new(2);
        assert!(q.push(state(1, 7, 5.0)));
        assert!(
            !q.push(state(2, 7, 9.0)),
            "worse state on a full deep level"
        );
        assert!(q.push(state(3, 7, 4.0)), "better state evicts");
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn rho_zero_follows_the_paper_formula() {
        // Regression: ϱ = 0 used to be silently clamped to 1, giving level
        // 0 capacity 2 instead of the paper's max(1, 0 − 0 + 1) = 1.
        let q = BoundedLevelQueue::new(0);
        for level in 0..8 {
            assert_eq!(q.capacity(level), 1, "level {level}");
        }
        let mut q = BoundedLevelQueue::new(0);
        assert!(q.push(state(1, 0, 5.0)));
        assert!(!q.push(state(2, 0, 9.0)), "level 0 holds exactly one state");
        assert!(
            q.push(state(3, 0, 2.0)),
            "cheaper state evicts the resident"
        );
        assert_eq!(q.len(), 1);
        assert_eq!(q.poll().unwrap().id, 3);
    }

    /// Bucket layout fingerprint: state ids per level, in bucket order.
    fn layout(q: &BoundedLevelQueue) -> Vec<Vec<usize>> {
        q.levels
            .iter()
            .map(|bucket| bucket.iter().map(|s| s.id).collect())
            .collect()
    }

    #[test]
    fn poll_batch_matches_successive_polls() {
        let fill = |q: &mut BoundedLevelQueue| {
            for (id, level, cost) in [
                (1, 1, 9.0),
                (2, 1, 3.0),
                (3, 2, 3.0), // ties id 2 on cost; higher level wins
                (4, 2, 7.0),
                (5, 3, 1.0),
                (6, 1, 4.0),
            ] {
                q.push(state(id, level, cost));
            }
        };
        let mut a = BoundedLevelQueue::new(5);
        let mut b = BoundedLevelQueue::new(5);
        fill(&mut a);
        fill(&mut b);
        let (batch, _) = a.poll_batch(4);
        let batch_ids: Vec<usize> = batch.iter().map(|s| s.id).collect();
        let serial_ids: Vec<usize> = (0..4).map(|_| b.poll().unwrap().id).collect();
        assert_eq!(batch_ids, serial_ids);
        // Global cost order with the more-assignments tie-break: cost 1
        // first, then the 3.0 tie resolved towards level 2.
        assert_eq!(batch_ids, vec![5, 3, 2, 6]);
        // The remainder still polls identically.
        assert_eq!(a.poll().unwrap().id, b.poll().unwrap().id);
    }

    #[test]
    fn peek_matches_poll_without_removing() {
        let mut q = BoundedLevelQueue::new(5);
        assert!(q.peek().is_none());
        q.push(state(1, 1, 9.0));
        q.push(state(2, 2, 3.0));
        assert_eq!(q.peek().unwrap().id, 2);
        assert_eq!(q.len(), 2, "peek must not remove");
        assert_eq!(q.poll().unwrap().id, 2);
        assert_eq!(q.peek().unwrap().id, 1);
    }

    #[test]
    fn poll_batch_stops_at_queue_len() {
        let mut q = BoundedLevelQueue::new(3);
        q.push(state(1, 1, 2.0));
        q.push(state(2, 2, 1.0));
        let (batch, _) = q.poll_batch(10);
        assert_eq!(batch.len(), 2);
        assert!(q.is_empty());
        assert!(q.poll().is_none());
    }

    #[test]
    fn poll_batch_sees_only_states_retained_by_level_bounds() {
        // Level capacities govern what the batch can contain: overflowing
        // pushes were rejected/evicted, so the drained sequence reflects
        // the bounded frontier, not everything ever pushed.
        let mut q = BoundedLevelQueue::new(1); // level 1 capacity = 1
        q.push(state(1, 1, 5.0));
        q.push(state(2, 1, 9.0)); // rejected: worse than the resident
        q.push(state(3, 1, 4.0)); // evicts id 1
        let (batch, _) = q.poll_batch(8);
        let ids: Vec<usize> = batch.iter().map(|s| s.id).collect();
        assert_eq!(ids, vec![3]);
    }

    #[test]
    fn restore_rebuilds_exact_pre_poll_contents() {
        let mut q = BoundedLevelQueue::new(5);
        for (id, level, cost) in [
            (1, 1, 9.0),
            (2, 1, 3.0),
            (3, 1, 6.0),
            (4, 2, 7.0),
            (5, 2, 2.0),
            (6, 3, 1.0),
        ] {
            q.push(state(id, level, cost));
        }
        let before = layout(&q);
        let (batch, receipt) = q.poll_batch(4);
        assert_eq!(q.len(), 2);
        q.restore(batch, receipt);
        assert_eq!(q.len(), 6);
        assert_eq!(
            layout(&q),
            before,
            "restore must rebuild exact bucket order, not just the state set"
        );
        // Polling after a restore behaves as if the batch never happened.
        assert_eq!(q.poll().unwrap().id, 6);
        assert_eq!(q.poll().unwrap().id, 5);
    }

    #[test]
    fn restore_preserves_eviction_behavior() {
        // The eviction tie-break (`max_by` keeps the *last* worst) reads
        // bucket order, so a sloppy restore would change which equal-cost
        // resident a later push replaces.
        let build = || {
            let mut q = BoundedLevelQueue::new(1); // level 1 capacity = 1... cap(1)=1
            q.push(state(1, 1, 5.0));
            q
        };
        let mut touched = build();
        let (batch, receipt) = touched.poll_batch(1);
        touched.restore(batch, receipt);
        let mut untouched = build();
        for q in [&mut touched, &mut untouched] {
            assert!(q.push(state(9, 1, 5.0)), "equal cost is accepted");
        }
        assert_eq!(layout(&touched), layout(&untouched));
        assert_eq!(touched.poll().unwrap().id, untouched.poll().unwrap().id);
    }
}
