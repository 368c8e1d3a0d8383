//! The per-batch *first-touch baseline* behind every delta-netting set
//! (`bds_core::SpannerSet`, `bds_sparsify::WeightedSet`): for each key
//! touched since the last drain, the value it had when first touched.
//!
//! An [`EdgeTable`] answers "recorded yet?" and holds the values; a
//! journal lists the recorded keys in first-touch order. Draining walks
//! the journal and resets only those slots, so a batch pays for the
//! keys it touched — never for the table's high-water capacity, which a
//! single large rebuild can leave at thousands of slots for every later
//! small batch. Allocation-free once the table and journal have warmed
//! up.

use crate::edge_table::{pack, EdgeTable};

#[derive(Debug, Default)]
pub struct FirstTouch {
    /// Recorded key → value at first touch.
    table: EdgeTable,
    /// The table's live keys, in first-touch order.
    journal: Vec<u64>,
    /// Slots reset by drains so far.
    slots_reset: u64,
}

impl FirstTouch {
    pub fn new() -> Self {
        Self::default()
    }

    /// Record `val()` for `(u, v)` unless `(u, v)` was already recorded
    /// since the last drain (the first touch wins; `val` is not called).
    #[inline]
    pub fn record_with(&mut self, u: u32, v: u32, val: impl FnOnce() -> u64) {
        let key = pack(u, v);
        if self.table.get_key(key).is_none() {
            self.table.insert_key(key, val());
            self.journal.push(key);
        }
    }

    /// Hand every recorded `(u, v, value)` to `f` in first-touch order
    /// and forget them all: O(recorded keys) work.
    pub fn drain_with(&mut self, f: impl FnMut(u32, u32, u64)) {
        self.slots_reset += self.table.drain_keys(&mut self.journal, f) as u64;
    }

    /// Table slots reset by drains since construction — a deterministic
    /// work count that grows with the keys recorded, not with capacity.
    pub fn slots_reset(&self) -> u64 {
        self.slots_reset
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drained(t: &mut FirstTouch) -> Vec<(u32, u32, u64)> {
        let mut out = Vec::new();
        t.drain_with(|u, v, val| out.push((u, v, val)));
        out
    }

    #[test]
    fn first_touch_wins_in_touch_order() {
        let mut t = FirstTouch::new();
        t.record_with(3, 4, || 1);
        t.record_with(1, 2, || 0);
        t.record_with(3, 4, || panic!("already recorded"));
        assert_eq!(drained(&mut t), vec![(3, 4, 1), (1, 2, 0)]);
        assert_eq!(drained(&mut t), vec![], "a drain forgets everything");
        // A drained key is recordable again, with its new value.
        t.record_with(3, 4, || 9);
        assert_eq!(drained(&mut t), vec![(3, 4, 9)]);
    }

    /// After one batch touches 2^16 keys (growing the table to 2^17
    /// slots), a 1-key batch's drain must reset exactly one slot: work
    /// O(touched), not O(high-water capacity).
    #[test]
    fn drain_after_large_batch_is_o_touched() {
        let mut t = FirstTouch::new();
        let big = 1u32 << 16;
        for i in 0..big {
            t.record_with(i, i + 1, || i as u64);
        }
        assert_eq!(drained(&mut t).len(), big as usize);
        assert_eq!(t.slots_reset(), big as u64);
        assert!(t.table.capacity() >= 2 * big as usize, "capacity kept");
        for round in 0..3u64 {
            let before = t.slots_reset();
            t.record_with(7, 8, || round);
            assert_eq!(drained(&mut t), vec![(7, 8, round)]);
            assert_eq!(
                t.slots_reset() - before,
                1,
                "a 1-key drain reset more than its key's slot"
            );
        }
        assert_eq!(t.table.iter().count(), 0, "every recorded slot was reset");
    }
}
