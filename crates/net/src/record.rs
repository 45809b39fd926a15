//! A FIFO-bounded record of finished sessions.
//!
//! A connection still needs a little about a session after it leaves
//! the live table: that it existed, so a late frame is ignored rather
//! than refused; the verdict late ground truth is graded against; the
//! shard that decided it; the answer a caller has yet to read. A
//! connection that runs forever cannot keep that for every session it
//! ever served, so the server, the router and the client each keep it
//! in one [`Record`]: the newest `cap` ids, oldest evicted first.

use std::collections::{HashMap, VecDeque};

/// Session id → what is still needed about it, holding at most `cap`
/// ids. An insert past capacity evicts the oldest entry. Re-inserting
/// an id (a resume removed it, then it finished again) makes it the
/// newest: the slot its earlier insert left in the queue is stale and
/// evicts nothing.
pub(crate) struct Record<V> {
    cap: usize,
    /// id → (insertion stamp, value).
    entries: HashMap<u64, (u64, V)>,
    /// (id, stamp) in insertion order. A slot whose stamp no longer
    /// matches its id's entry was left by a remove or a re-insert.
    order: VecDeque<(u64, u64)>,
    next_stamp: u64,
}

impl<V> Record<V> {
    /// An empty record holding at most `cap` ids (at least one).
    pub(crate) fn new(cap: usize) -> Record<V> {
        Record {
            cap: cap.max(1),
            entries: HashMap::new(),
            order: VecDeque::new(),
            next_stamp: 0,
        }
    }

    /// Records `id` as the newest entry, replacing what was kept for
    /// it, and evicts the oldest entries past capacity.
    pub(crate) fn insert(&mut self, id: u64, value: V) {
        let stamp = self.next_stamp;
        self.next_stamp += 1;
        self.entries.insert(id, (stamp, value));
        self.order.push_back((id, stamp));
        while self.entries.len() > self.cap {
            let Some((old, old_stamp)) = self.order.pop_front() else {
                break;
            };
            if self.entries.get(&old).is_some_and(|&(s, _)| s == old_stamp) {
                self.entries.remove(&old);
            }
        }
        // Stale slots only leave the queue when eviction reaches them;
        // sweep them once they outnumber the live ones, so the queue
        // stays within twice the capacity however often ids return.
        if self.order.len() > 2 * self.cap {
            let entries = &self.entries;
            self.order
                .retain(|(id, stamp)| entries.get(id).is_some_and(|&(s, _)| s == *stamp));
        }
    }

    /// Forgets `id`, returning what was kept for it.
    pub(crate) fn remove(&mut self, id: u64) -> Option<V> {
        self.entries.remove(&id).map(|(_, v)| v)
    }

    /// What is kept for `id`, if it is still on record.
    pub(crate) fn get(&self, id: u64) -> Option<&V> {
        self.entries.get(&id).map(|(_, v)| v)
    }

    /// Mutable access to what is kept for `id`.
    pub(crate) fn get_mut(&mut self, id: u64) -> Option<&mut V> {
        self.entries.get_mut(&id).map(|(_, v)| v)
    }

    /// Whether `id` is still on record.
    pub(crate) fn contains(&self, id: u64) -> bool {
        self.entries.contains_key(&id)
    }

    /// Whether no id is on record.
    pub(crate) fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Ids on record.
    #[cfg(test)]
    fn len(&self) -> usize {
        self.entries.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eviction_goes_oldest_first() {
        let mut r = Record::new(3);
        for id in 1..=5 {
            r.insert(id, id * 10);
        }
        assert!(!r.contains(1) && !r.contains(2));
        assert_eq!(
            (r.get(3), r.get(4), r.get(5)),
            (Some(&30), Some(&40), Some(&50))
        );
        r.insert(6, 60);
        assert!(!r.contains(3), "the oldest goes next");
        assert!(r.contains(4) && r.contains(6));
    }

    #[test]
    fn length_never_exceeds_capacity() {
        let cap = 8;
        let mut r = Record::new(cap);
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        for step in 0..10_000u64 {
            x = crate::client::splitmix64(x);
            let id = x % 24;
            match x >> 62 {
                0 => {
                    r.remove(id);
                }
                1 => {
                    if let Some(v) = r.get_mut(id) {
                        *v = step;
                    }
                }
                _ => r.insert(id, step),
            }
            assert!(r.len() <= cap, "step {step}: {} ids", r.len());
            assert!(
                r.order.len() <= 2 * cap,
                "step {step}: queue {}",
                r.order.len()
            );
        }
    }

    #[test]
    fn a_reinserted_id_outlives_its_stale_slot() {
        let mut r = Record::new(3);
        r.insert(1, 'a');
        r.insert(2, 'b');
        r.insert(3, 'c');
        // A resume takes 1 out; it finishes again as the newest entry.
        assert_eq!(r.remove(1), Some('a'));
        r.insert(1, 'd');
        // 1's first slot is the oldest in the queue, but stale: the
        // next eviction takes 2, then 3, and only then 1.
        r.insert(4, 'e');
        assert_eq!(r.get(1), Some(&'d'));
        assert!(!r.contains(2));
        r.insert(5, 'f');
        assert!(!r.contains(3));
        assert_eq!(r.get(1), Some(&'d'));
        r.insert(6, 'g');
        assert!(!r.contains(1));
        assert_eq!(r.len(), 3);
    }

    #[test]
    fn replacing_an_entry_keeps_one_copy() {
        let mut r = Record::new(2);
        r.insert(7, 1);
        r.insert(7, 2);
        r.insert(8, 3);
        assert_eq!((r.get(7), r.get(8), r.len()), (Some(&2), Some(&3), 2));
    }
}
