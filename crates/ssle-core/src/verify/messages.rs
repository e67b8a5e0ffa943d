//! The circulating-message store of `DetectCollision_r` (Section 5.1).
//!
//! Messages are triples `(rank, ID, content)`. The `rank` (the *governor*)
//! identifies which agents may rewrite the message, the `ID` distinguishes
//! the messages of one governor, and the `content` carries the governor's
//! signature at the time of the last rewrite. An agent stores the messages it
//! currently holds in a [`MessageStore`] — a sparse map from
//! `(governor position in group, ID)` to content — and keeps a dense
//! `observations` array recording the content it last wrote into each of its
//! *own* messages.
//!
//! Layout: a store is one contiguous buffer of [`Message`]s sorted by
//! `(governor, ID)` plus `m + 1` offsets, so the messages of governor `g` are
//! the buffer range `offsets[g]..offsets[g + 1]`. The same-group kernel of
//! `DetectCollision_r` therefore streams each store front to back, and a
//! cloned store (as the state interner keeps them) carries no spare capacity.
//!
//! Sizing (for a group of size `m`): every rank governs `2m²` message IDs;
//! the agent at in-group position `p` initially holds, for *every* governing
//! rank of its group, the contiguous ID block `[2pm + 1, 2(p+1)m]`. Hence
//! every agent initially holds `2m` messages of each rank (`2m²` in total),
//! and across the `m` agents of the group every `(rank, ID)` pair exists
//! exactly once.

use serde::{Deserialize, Serialize};
use std::ops::Range;

/// The content value every message and observation starts with.
pub const INITIAL_CONTENT: u64 = 1;

/// One circulating message held by an agent: its ID and current content.
/// (The governor is implied by the position of the message inside the
/// [`MessageStore`].)
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Message {
    /// The message ID, `1 ..= ids_per_rank`.
    pub id: u32,
    /// The message content (a signature value).
    pub content: u64,
}

/// The sparse store of circulating messages held by one agent, organised per
/// governing rank of the agent's group.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct MessageStore {
    /// Every held message, sorted by governor and, within a governor, by ID.
    messages: Vec<Message>,
    /// `offsets[g]..offsets[g + 1]` is the run of governor `g` in `messages`:
    /// `offsets[0] == 0`, non-decreasing, last entry `messages.len()`.
    offsets: Vec<usize>,
    /// Number of IDs each governing rank owns (`2m²`).
    ids_per_rank: u32,
}

impl MessageStore {
    /// Creates an empty store for a group of size `group_size` with
    /// `ids_per_rank` message IDs per governing rank.
    pub fn empty(group_size: usize, ids_per_rank: u32) -> Self {
        MessageStore {
            messages: Vec::new(),
            offsets: vec![0; group_size + 1],
            ids_per_rank,
        }
    }

    /// Creates the initial store of the agent at in-group position
    /// `own_position` (0-based): for every governing rank, the contiguous ID
    /// block of length `ids_per_rank / group_size` determined by
    /// `own_position`, all with [`INITIAL_CONTENT`].
    pub fn initial(group_size: usize, ids_per_rank: u32, own_position: usize) -> Self {
        assert!(
            own_position < group_size,
            "position must lie inside the group"
        );
        let block = ids_per_rank / group_size as u32;
        let start = own_position as u32 * block + 1;
        let end = if own_position == group_size - 1 {
            ids_per_rank
        } else {
            start + block - 1
        };
        let per_governor = (start..=end).count();
        let mut messages = Vec::with_capacity(group_size * per_governor);
        for _ in 0..group_size {
            messages.extend((start..=end).map(|id| Message {
                id,
                content: INITIAL_CONTENT,
            }));
        }
        MessageStore {
            messages,
            offsets: (0..=group_size).map(|g| g * per_governor).collect(),
            ids_per_rank,
        }
    }

    /// The number of governing ranks (the group size).
    pub fn group_size(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of message IDs per governing rank.
    pub fn ids_per_rank(&self) -> u32 {
        self.ids_per_rank
    }

    /// Total number of messages currently held.
    pub fn total(&self) -> usize {
        self.messages.len()
    }

    /// Number of messages governed by the rank at in-group position `g`.
    #[inline]
    pub fn count_for(&self, governor: usize) -> usize {
        self.range(governor).len()
    }

    /// The messages governed by in-group position `governor`, sorted by ID.
    #[inline]
    pub fn messages_for(&self, governor: usize) -> &[Message] {
        &self.messages[self.range(governor)]
    }

    /// Mutable access to the messages governed by `governor`.
    #[inline]
    pub fn messages_for_mut(&mut self, governor: usize) -> &mut [Message] {
        let range = self.range(governor);
        &mut self.messages[range]
    }

    /// The content of the message `(governor, id)` if held.
    pub fn content(&self, governor: usize, id: u32) -> Option<u64> {
        let v = self.messages_for(governor);
        v.binary_search_by_key(&id, |m| m.id)
            .ok()
            .map(|idx| v[idx].content)
    }

    /// Inserts or overwrites the message `(governor, id)` with `content`.
    pub fn insert(&mut self, governor: usize, id: u32, content: u64) {
        let start = self.offsets[governor];
        match self
            .messages_for(governor)
            .binary_search_by_key(&id, |m| m.id)
        {
            Ok(idx) => self.messages[start + idx].content = content,
            Err(idx) => {
                self.messages.insert(start + idx, Message { id, content });
                for offset in &mut self.offsets[governor + 1..] {
                    *offset += 1;
                }
            }
        }
    }

    /// Removes the message `(governor, id)`, returning its content if it was
    /// held.
    pub fn remove(&mut self, governor: usize, id: u32) -> Option<u64> {
        let start = self.offsets[governor];
        let idx = self
            .messages_for(governor)
            .binary_search_by_key(&id, |m| m.id)
            .ok()?;
        for offset in &mut self.offsets[governor + 1..] {
            *offset -= 1;
        }
        Some(self.messages.remove(start + idx).content)
    }

    /// Whether this store and `other` both hold a message with the same
    /// `(governor, ID)` pair — the "two copies of the same circulating
    /// message" collision proof of Protocol 3, line 3.
    pub fn shares_message_with(&self, other: &MessageStore) -> bool {
        for governor in 0..self.group_size().min(other.group_size()) {
            let (a, b) = (self.messages_for(governor), other.messages_for(governor));
            let (mut i, mut j) = (0, 0);
            while i < a.len() && j < b.len() {
                match a[i].id.cmp(&b[j].id) {
                    std::cmp::Ordering::Less => i += 1,
                    std::cmp::Ordering::Greater => j += 1,
                    std::cmp::Ordering::Equal => return true,
                }
            }
        }
        false
    }

    /// Per-governor message counts, used by tests and by the load-balancing
    /// experiments.
    pub fn counts(&self) -> Vec<usize> {
        self.offsets.windows(2).map(|w| w[1] - w[0]).collect()
    }

    #[inline]
    fn range(&self, governor: usize) -> Range<usize> {
        self.offsets[governor]..self.offsets[governor + 1]
    }

    /// Starts rewriting the store from scratch with at most `len` messages:
    /// empties it, reusing the buffer when it is large enough and else
    /// allocating exactly what the rebuild needs, so a store never holds more
    /// spare capacity than its own largest size left behind. Then write every
    /// governor's run in turn through [`Self::rebuild_run`] and finish with
    /// [`Self::end_rebuild`].
    pub(crate) fn begin_rebuild(&mut self, len: usize) {
        self.messages.clear();
        if self.messages.capacity() < len + 1 {
            self.messages = Vec::with_capacity(len + 1);
        }
    }

    /// Makes `governor` (governors go in increasing order) a run of `len`
    /// messages and returns its slots plus one spare slot after them, free
    /// for scratch writes. The caller fills the run by increasing ID.
    #[inline]
    pub(crate) fn rebuild_run(&mut self, governor: usize, len: usize) -> &mut [Message] {
        let start = self.offsets[governor];
        self.messages.truncate(start);
        self.messages
            .resize(start + len + 1, Message { id: 0, content: 0 });
        self.offsets[governor + 1] = start + len;
        &mut self.messages[start..]
    }

    /// Drops the spare slot of the last run.
    pub(crate) fn end_rebuild(&mut self) {
        self.messages.truncate(self.offsets[self.group_size()]);
        debug_assert!(
            (0..self.group_size())
                .all(|g| self.messages_for(g).windows(2).all(|w| w[0].id < w[1].id)),
            "runs must be written by strictly increasing ID"
        );
    }
}

/// The dense `observations` array of an agent: `observations[id - 1]` is the
/// content the agent last wrote into its own message with that ID.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Observations {
    values: Vec<u64>,
}

impl Observations {
    /// Creates the initial observations array (all [`INITIAL_CONTENT`]).
    pub fn initial(ids_per_rank: u32) -> Self {
        Observations {
            values: vec![INITIAL_CONTENT; ids_per_rank as usize],
        }
    }

    /// Number of tracked message IDs.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the array is empty (only for degenerate group sizes).
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// The recorded content for message `id` (1-based).
    pub fn get(&self, id: u32) -> u64 {
        self.values[(id - 1) as usize]
    }

    /// Records `content` for message `id` (1-based).
    pub fn set(&mut self, id: u32, content: u64) {
        self.values[(id - 1) as usize] = content;
    }

    /// The whole array as a mutable slice: entry `id - 1` is the observation
    /// recorded for message `id`.
    pub fn raw_values_mut(&mut self) -> &mut [u64] {
        &mut self.values
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn initial_blocks_tile_the_id_space() {
        let m = 4usize;
        let ids = 2 * (m as u32).pow(2); // 32
        let stores: Vec<MessageStore> = (0..m).map(|p| MessageStore::initial(m, ids, p)).collect();
        // Every (governor, id) pair appears exactly once across the group.
        for governor in 0..m {
            let mut seen = vec![0u32; ids as usize + 1];
            for store in &stores {
                for msg in store.messages_for(governor) {
                    seen[msg.id as usize] += 1;
                    assert_eq!(msg.content, INITIAL_CONTENT);
                }
            }
            assert!(
                seen[1..].iter().all(|&c| c == 1),
                "governor {governor}: {seen:?}"
            );
        }
        // Every agent holds ids/m messages of each rank.
        for store in &stores {
            for governor in 0..m {
                assert_eq!(store.count_for(governor) as u32, ids / m as u32);
            }
            assert_eq!(store.total() as u32, ids / m as u32 * m as u32);
        }
    }

    #[test]
    fn initial_blocks_tile_when_ids_not_divisible() {
        // group of size 3, 2*3^2 = 18 ids, block = 6 — divisible; force an
        // odd case by hand to exercise the last-block remainder logic.
        let stores: Vec<MessageStore> = (0..3).map(|p| MessageStore::initial(3, 20, p)).collect();
        let total: usize = stores.iter().map(|s| s.count_for(0)).sum();
        assert_eq!(total, 20);
        assert_eq!(stores[2].messages_for(0).last().unwrap().id, 20);
    }

    #[test]
    fn insert_remove_content_roundtrip() {
        let mut s = MessageStore::empty(2, 8);
        assert_eq!(s.content(0, 3), None);
        s.insert(0, 3, 42);
        s.insert(0, 1, 10);
        s.insert(1, 3, 7);
        assert_eq!(s.content(0, 3), Some(42));
        assert_eq!(s.content(0, 1), Some(10));
        assert_eq!(s.content(1, 3), Some(7));
        assert_eq!(s.total(), 3);
        // Overwrite keeps a single copy.
        s.insert(0, 3, 43);
        assert_eq!(s.content(0, 3), Some(43));
        assert_eq!(s.count_for(0), 2);
        assert_eq!(s.remove(0, 3), Some(43));
        assert_eq!(s.remove(0, 3), None);
        assert_eq!(s.total(), 2);
        // Messages stay sorted by id, and the other governor is untouched.
        let ids: Vec<u32> = s.messages_for(0).iter().map(|m| m.id).collect();
        assert_eq!(ids, vec![1]);
        assert_eq!(s.counts(), vec![1, 1]);
        assert_eq!(s.content(1, 3), Some(7));
    }

    #[test]
    fn equal_messages_make_equal_stores_however_built() {
        // Equality and hashing (and so state interning) see the messages
        // held, not the order they arrived in.
        let initial = MessageStore::initial(3, 18, 1);
        let mut built = MessageStore::empty(3, 18);
        for governor in (0..3).rev() {
            for msg in initial.messages_for(governor).iter().rev() {
                built.insert(governor, msg.id, msg.content);
            }
        }
        assert_eq!(built, initial);
        built.insert(1, 2, 5);
        assert_ne!(built, initial);
        assert_eq!(built.remove(1, 2), Some(5));
        assert_eq!(built, initial);
    }

    #[test]
    fn shares_message_with_detects_duplicates() {
        let a = MessageStore::initial(4, 32, 0);
        let b = MessageStore::initial(4, 32, 1);
        let a2 = MessageStore::initial(4, 32, 0);
        assert!(!a.shares_message_with(&b));
        assert!(a.shares_message_with(&a2), "same position ⇒ same ID blocks");
        let mut c = MessageStore::empty(4, 32);
        c.insert(2, 5, 9);
        let mut d = MessageStore::empty(4, 32);
        d.insert(2, 5, 11);
        assert!(c.shares_message_with(&d));
        d.remove(2, 5);
        d.insert(3, 5, 11);
        assert!(!c.shares_message_with(&d));
    }

    #[test]
    fn observations_get_set() {
        let mut o = Observations::initial(8);
        assert_eq!(o.len(), 8);
        assert!(!o.is_empty());
        assert_eq!(o.get(1), INITIAL_CONTENT);
        assert_eq!(o.get(8), INITIAL_CONTENT);
        o.set(3, 99);
        assert_eq!(o.get(3), 99);
        for v in o.raw_values_mut() {
            *v = 5;
        }
        assert_eq!(o.get(1), 5);
    }

    #[test]
    #[should_panic(expected = "inside the group")]
    fn initial_position_out_of_range_panics() {
        let _ = MessageStore::initial(3, 18, 3);
    }
}
