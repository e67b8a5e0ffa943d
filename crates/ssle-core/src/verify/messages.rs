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
//! `DetectCollision_r` therefore streams each store front to back. A message
//! is one 8-byte word (19 ID bits over 45 content bits), which holds the
//! IDs and signatures of every group of at most [`MAX_GROUP_SIZE`] ranks;
//! `Params` rejects larger groups.
//!
//! Sharing: the buffer with its offsets, and the observations array, are
//! copy-on-write payloads. Cloning a store or an observations array (as the
//! state interner, the support probe and `decode` do) bumps a reference
//! count and shares the buffer; the first mutable access through one of the
//! sharers copies it, except that a rebuild by the kernel starts a fresh
//! buffer instead of copying one it is about to overwrite. Each payload also
//! caches its content hash, so hashing a verifier state reads two cached
//! words instead of its `4m²` message and observation words.
//!
//! Sizing (for a group of size `m`): every rank governs `2m²` message IDs;
//! the agent at in-group position `p` initially holds, for *every* governing
//! rank of its group, the contiguous ID block `[2pm + 1, 2(p+1)m]`. Hence
//! every agent initially holds `2m` messages of each rank (`2m²` in total),
//! and across the `m` agents of the group every `(rank, ID)` pair exists
//! exactly once.

use ppsim::WordHash;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::hash::{BuildHasher, Hash, Hasher};
use std::ops::{Deref, Range};
use std::sync::{Arc, OnceLock};

/// The content value every message and observation starts with.
pub const INITIAL_CONTENT: u64 = 1;

/// A copy-on-write payload: a value behind an [`Arc`], plus its content hash
/// ([`WordHash`]), computed on first use and cleared by every mutable access.
///
/// Cloning shares the allocation. Equality returns early when both sides
/// share one allocation, and [`Hash`] feeds the cached word, not the value.
struct Shared<T>(Arc<Payload<T>>);

struct Payload<T> {
    value: T,
    hash: OnceLock<u64>,
}

impl<T> Shared<T> {
    fn new(value: T) -> Self {
        Shared(Arc::new(Payload {
            value,
            hash: OnceLock::new(),
        }))
    }

    /// Whether another clone holds this allocation too.
    fn is_shared(&self) -> bool {
        Arc::strong_count(&self.0) > 1
    }
}

impl<T: Clone> Shared<T> {
    /// Mutable access, copying the value first if it is shared.
    fn make_mut(&mut self) -> &mut T {
        let payload = Arc::make_mut(&mut self.0);
        payload.hash.take();
        &mut payload.value
    }
}

impl<T: Hash> Shared<T> {
    /// The value's [`WordHash`], computed once per allocation.
    fn content_hash(&self) -> u64 {
        *self.0.hash.get_or_init(|| WordHash.hash_one(&self.0.value))
    }
}

impl<T> Deref for Shared<T> {
    type Target = T;

    fn deref(&self) -> &T {
        &self.0.value
    }
}

impl<T> Clone for Shared<T> {
    fn clone(&self) -> Self {
        Shared(Arc::clone(&self.0))
    }
}

/// A copy taken for writing: the old hash does not carry over.
impl<T: Clone> Clone for Payload<T> {
    fn clone(&self) -> Self {
        Payload {
            value: self.value.clone(),
            hash: OnceLock::new(),
        }
    }
}

impl<T: PartialEq> PartialEq for Shared<T> {
    fn eq(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.0, &other.0) || self.0.value == other.0.value
    }
}

impl<T: Eq> Eq for Shared<T> {}

impl<T: Hash> Hash for Shared<T> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.content_hash());
    }
}

impl<T: fmt::Debug> fmt::Debug for Shared<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.0.value.fmt(f)
    }
}

/// Bits of a packed [`Message`] that hold the content; the ID takes the rest.
const CONTENT_BITS: u32 = 45;
const CONTENT_MASK: u64 = (1 << CONTENT_BITS) - 1;

/// The largest content a [`Message`] holds: `2⁴⁵ − 1`, above the `m⁵`
/// signatures of every group size `m ≤` [`MAX_GROUP_SIZE`].
pub const MAX_CONTENT: u64 = CONTENT_MASK;

/// The largest message ID a [`Message`] holds: `2¹⁹ − 1`, above the `2m²`
/// IDs per rank of every group size `m ≤` [`MAX_GROUP_SIZE`].
pub const MAX_ID: u32 = (1 << (64 - CONTENT_BITS)) - 1;

/// The largest group size whose messages fit a [`Message`]: `2·511² < 2¹⁹`
/// and `511⁵ < 2⁴⁵`, while `512⁵ = 2⁴⁵`.
pub const MAX_GROUP_SIZE: usize = 511;

/// One circulating message held by an agent: its ID and current content.
/// (The governor is implied by the position of the message inside the
/// [`MessageStore`].)
///
/// Packed into one word: the ID in the high 19 bits, the content in the low
/// 45. Word order is therefore `(ID, content)` order, and a store of `k`
/// messages is `8k` bytes.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Message(u64);

impl Message {
    /// The message `id` with `content`.
    ///
    /// # Panics
    ///
    /// Panics if `id` exceeds [`MAX_ID`] or `content` exceeds
    /// [`MAX_CONTENT`].
    #[inline]
    pub fn new(id: u32, content: u64) -> Self {
        assert!(id <= MAX_ID, "message id {id} exceeds {MAX_ID}");
        let mut msg = Message(u64::from(id) << CONTENT_BITS);
        msg.set_content(content);
        msg
    }

    /// The message ID, `1 ..= ids_per_rank`.
    #[inline]
    pub fn id(self) -> u32 {
        (self.0 >> CONTENT_BITS) as u32
    }

    /// The message content (a signature value).
    #[inline]
    pub fn content(self) -> u64 {
        self.0 & CONTENT_MASK
    }

    /// The packed word: the ID above [`MAX_CONTENT`]'s bits, the content in
    /// them.
    #[inline]
    pub(crate) fn word(self) -> u64 {
        self.0
    }

    /// Rewrites the content, keeping the ID.
    ///
    /// # Panics
    ///
    /// Panics if `content` exceeds [`MAX_CONTENT`].
    #[inline]
    pub fn set_content(&mut self, content: u64) {
        assert!(
            content <= MAX_CONTENT,
            "message content {content} exceeds {MAX_CONTENT}"
        );
        self.0 = self.0 & !CONTENT_MASK | content;
    }
}

impl fmt::Debug for Message {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Message")
            .field("id", &self.id())
            .field("content", &self.content())
            .finish()
    }
}

/// The sparse store of circulating messages held by one agent, organised per
/// governing rank of the agent's group: one buffer of 8-byte [`Message`]s,
/// governor by governor, each governor's run in ID order (which is word
/// order, the ID being the high bits).
#[derive(Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct MessageStore {
    runs: Shared<Runs>,
}

/// The payload of a [`MessageStore`].
#[derive(Clone, PartialEq, Eq, Hash)]
struct Runs {
    /// Every held message, sorted by governor and, within a governor, by ID.
    messages: Vec<Message>,
    /// `offsets[g]..offsets[g + 1]` is the run of governor `g` in `messages`:
    /// `offsets[0] == 0`, non-decreasing, last entry `messages.len()`.
    offsets: Vec<usize>,
    /// Number of IDs each governing rank owns (`2m²`).
    ids_per_rank: u32,
}

impl Runs {
    #[inline]
    fn range(&self, governor: usize) -> Range<usize> {
        self.offsets[governor]..self.offsets[governor + 1]
    }
}

impl fmt::Debug for MessageStore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MessageStore")
            .field("messages", &self.runs.messages)
            .field("offsets", &self.runs.offsets)
            .field("ids_per_rank", &self.runs.ids_per_rank)
            .finish()
    }
}

impl MessageStore {
    /// Creates an empty store for a group of size `group_size` with
    /// `ids_per_rank` message IDs per governing rank.
    pub fn empty(group_size: usize, ids_per_rank: u32) -> Self {
        Self::from_runs(Vec::new(), vec![0; group_size + 1], ids_per_rank)
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
            messages.extend((start..=end).map(|id| Message::new(id, INITIAL_CONTENT)));
        }
        let offsets = (0..=group_size).map(|g| g * per_governor).collect();
        Self::from_runs(messages, offsets, ids_per_rank)
    }

    fn from_runs(messages: Vec<Message>, offsets: Vec<usize>, ids_per_rank: u32) -> Self {
        MessageStore {
            runs: Shared::new(Runs {
                messages,
                offsets,
                ids_per_rank,
            }),
        }
    }

    /// The number of governing ranks (the group size).
    pub fn group_size(&self) -> usize {
        self.runs.offsets.len() - 1
    }

    /// Number of message IDs per governing rank.
    pub fn ids_per_rank(&self) -> u32 {
        self.runs.ids_per_rank
    }

    /// Total number of messages currently held.
    pub fn total(&self) -> usize {
        self.runs.messages.len()
    }

    /// Number of messages governed by the rank at in-group position `g`.
    #[inline]
    pub fn count_for(&self, governor: usize) -> usize {
        self.runs.range(governor).len()
    }

    /// The messages governed by in-group position `governor`, sorted by ID.
    #[inline]
    pub fn messages_for(&self, governor: usize) -> &[Message] {
        &self.runs.messages[self.runs.range(governor)]
    }

    /// Mutable access to the messages governed by `governor`. Copies the
    /// store first if it is shared, so take the slice once per governor, not
    /// once per message.
    #[inline]
    pub fn messages_for_mut(&mut self, governor: usize) -> &mut [Message] {
        let runs = self.runs.make_mut();
        let range = runs.range(governor);
        &mut runs.messages[range]
    }

    /// The content of the message `(governor, id)` if held.
    pub fn content(&self, governor: usize, id: u32) -> Option<u64> {
        let v = self.messages_for(governor);
        v.binary_search_by_key(&id, |m| m.id())
            .ok()
            .map(|idx| v[idx].content())
    }

    /// Inserts or overwrites the message `(governor, id)` with `content`.
    pub fn insert(&mut self, governor: usize, id: u32, content: u64) {
        let runs = self.runs.make_mut();
        let start = runs.offsets[governor];
        let msg = Message::new(id, content);
        match runs.messages[runs.range(governor)].binary_search_by_key(&id, |m| m.id()) {
            Ok(idx) => runs.messages[start + idx] = msg,
            Err(idx) => {
                runs.messages.insert(start + idx, msg);
                for offset in &mut runs.offsets[governor + 1..] {
                    *offset += 1;
                }
            }
        }
    }

    /// Removes the message `(governor, id)`, returning its content if it was
    /// held.
    pub fn remove(&mut self, governor: usize, id: u32) -> Option<u64> {
        let idx = self
            .messages_for(governor)
            .binary_search_by_key(&id, |m| m.id())
            .ok()?;
        let runs = self.runs.make_mut();
        for offset in &mut runs.offsets[governor + 1..] {
            *offset -= 1;
        }
        Some(runs.messages.remove(runs.offsets[governor] + idx).content())
    }

    /// Whether this store and `other` both hold a message with the same
    /// `(governor, ID)` pair — the "two copies of the same circulating
    /// message" collision proof of Protocol 3, line 3.
    pub fn shares_message_with(&self, other: &MessageStore) -> bool {
        for governor in 0..self.group_size().min(other.group_size()) {
            let (a, b) = (self.messages_for(governor), other.messages_for(governor));
            let (mut i, mut j) = (0, 0);
            while i < a.len() && j < b.len() {
                match a[i].id().cmp(&b[j].id()) {
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
        self.runs.offsets.windows(2).map(|w| w[1] - w[0]).collect()
    }

    /// Starts rewriting the store from scratch with at most `len` messages.
    /// An unshared store is emptied, reusing its buffer when it is large
    /// enough and else allocating exactly what the rebuild needs, so a store
    /// never holds more spare capacity than its own largest size left
    /// behind. A shared store is not copied: the rebuild writes a buffer of
    /// its own. Append every governor's messages in turn through
    /// [`Rebuild::extend`], close each run with [`Rebuild::close`], and
    /// finish with [`Rebuild::end`].
    pub(crate) fn begin_rebuild(&mut self, len: usize) -> Rebuild<'_> {
        let (group_size, ids_per_rank) = (self.group_size(), self.ids_per_rank());
        if self.runs.is_shared() {
            *self = Self::from_runs(Vec::new(), vec![0; group_size + 1], ids_per_rank);
        }
        let runs = self.runs.make_mut();
        runs.messages.clear();
        if runs.messages.capacity() < len {
            runs.messages = Vec::with_capacity(len);
        }
        Rebuild(runs)
    }
}

/// A [`MessageStore`] being rewritten run by run; see
/// [`MessageStore::begin_rebuild`].
pub(crate) struct Rebuild<'a>(&'a mut Runs);

impl Rebuild<'_> {
    /// Appends `messages` to the run being written. A run is filled by
    /// increasing ID.
    #[inline]
    pub(crate) fn extend(&mut self, messages: &[Message]) {
        self.0.messages.extend_from_slice(messages);
    }

    /// Ends the run of `governor` (governors go in increasing order) after
    /// the messages appended so far.
    #[inline]
    pub(crate) fn close(&mut self, governor: usize) {
        let runs = &mut *self.0;
        runs.offsets[governor + 1] = runs.messages.len();
    }

    /// Finishes the rebuild; every governor's run must have been closed.
    pub(crate) fn end(self) {
        let runs = self.0;
        let group_size = runs.offsets.len() - 1;
        debug_assert_eq!(runs.offsets[group_size], runs.messages.len());
        debug_assert!(
            (0..group_size).all(|g| runs.messages[runs.range(g)]
                .windows(2)
                .all(|w| w[0].id() < w[1].id())),
            "runs must be written by strictly increasing ID"
        );
    }
}

/// The dense `observations` array of an agent: `observations[id - 1]` is the
/// content the agent last wrote into its own message with that ID.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Observations {
    values: Shared<Vec<u64>>,
}

impl Observations {
    /// Creates the initial observations array (all [`INITIAL_CONTENT`]).
    pub fn initial(ids_per_rank: u32) -> Self {
        Observations {
            values: Shared::new(vec![INITIAL_CONTENT; ids_per_rank as usize]),
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

    /// Records `content` for message `id` (1-based). Copies the array first
    /// if it is shared; a loop over many IDs should take
    /// [`Self::raw_values_mut`] once instead.
    pub fn set(&mut self, id: u32, content: u64) {
        self.values.make_mut()[(id - 1) as usize] = content;
    }

    /// The whole array as a mutable slice: entry `id - 1` is the observation
    /// recorded for message `id`. Copies the array first if it is shared.
    pub fn raw_values_mut(&mut self) -> &mut [u64] {
        self.values.make_mut()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn packed_messages_round_trip_at_the_group_size_limit() {
        let m = MAX_GROUP_SIZE as u64;
        let id = 2 * (MAX_GROUP_SIZE as u32).pow(2);
        assert!(id <= MAX_ID);
        for content in [m.pow(5), (1 << 45) - 1, INITIAL_CONTENT] {
            let msg = Message::new(id, content);
            assert_eq!((msg.id(), msg.content()), (id, content));
            let mut rewritten = Message::new(id, 0);
            rewritten.set_content(content);
            assert_eq!(rewritten, msg);
        }
        assert_eq!(std::mem::size_of::<Message>(), 8);
    }

    #[test]
    fn packed_word_order_is_id_then_content_order() {
        let ids = [1, 2, 0x3_FFFE, MAX_ID];
        let contents = [0, 1, 2, 1 << 44, MAX_CONTENT - 1, MAX_CONTENT];
        let messages: Vec<Message> = ids
            .iter()
            .flat_map(|&id| contents.iter().map(move |&c| Message::new(id, c)))
            .collect();
        for a in &messages {
            for b in &messages {
                assert_eq!(
                    a.cmp(b),
                    (a.id(), a.content()).cmp(&(b.id(), b.content())),
                    "{a:?} vs {b:?}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "message content 35184372088832 exceeds 35184372088831")]
    fn oversized_content_panics_instead_of_truncating() {
        let _ = Message::new(1, 1 << 45);
    }

    #[test]
    #[should_panic(expected = "message content 35184372088832 exceeds 35184372088831")]
    fn oversized_rewrite_panics_instead_of_truncating() {
        Message::new(1, 1).set_content(1 << 45);
    }

    #[test]
    #[should_panic(expected = "message id 524288 exceeds 524287")]
    fn oversized_id_panics_instead_of_truncating() {
        let _ = Message::new(1 << 19, 1);
    }

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
                    seen[msg.id() as usize] += 1;
                    assert_eq!(msg.content(), INITIAL_CONTENT);
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
        assert_eq!(stores[2].messages_for(0).last().unwrap().id(), 20);
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
        let ids: Vec<u32> = s.messages_for(0).iter().map(|m| m.id()).collect();
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
                built.insert(governor, msg.id(), msg.content());
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
    fn debug_output_shows_the_payload_fields() {
        let mut store = MessageStore::initial(2, 4, 1);
        store.insert(0, 1, 9);
        let shared = store.clone();
        assert_eq!(
            format!("{shared:?}"),
            "MessageStore { messages: [Message { id: 1, content: 9 }, \
             Message { id: 3, content: 1 }, Message { id: 4, content: 1 }, \
             Message { id: 3, content: 1 }, Message { id: 4, content: 1 }], \
             offsets: [0, 3, 5], ids_per_rank: 4 }"
        );
        assert_eq!(
            format!("{:?}", Observations::initial(2)),
            "Observations { values: [1, 1] }"
        );
    }

    #[test]
    fn shared_states_stay_send_and_sync() {
        fn send_sync<T: Send + Sync>() {}
        send_sync::<MessageStore>();
        send_sync::<Observations>();
        send_sync::<crate::AgentState>();
    }

    /// The payload of `shared` with its cached hash, if computed.
    fn payload<T>(shared: &Shared<T>) -> (usize, &T, Option<u64>) {
        (
            Arc::as_ptr(&shared.0) as usize,
            &shared.0.value,
            shared.0.hash.get().copied(),
        )
    }

    /// A discovered `ElectLeader_r` run interns its verifiers with the
    /// message stores and observations of their parents shared, not copied,
    /// and every cached hash is the payload's current one.
    #[test]
    fn interned_verifiers_share_their_payloads() {
        use crate::{output, AgentState, ElectLeader};
        use ppsim::{DiscoveredProtocol, EngineKind, EnumerableProtocol, SimBuilder};
        use std::collections::HashSet;

        let discovered = DiscoveredProtocol::new(ElectLeader::with_n_r(24, 6).unwrap());
        let handle = discovered.clone();
        let mut sim = SimBuilder::new(discovered)
            .kind(EngineKind::Auto)
            .seed(7)
            .build();
        let out = sim.run_until(
            &mut |c| output::is_correct_output_counts(&handle, c),
            1_000_000,
        );
        assert!(out.satisfied, "the trial stabilizes");
        // Past stabilization, cross-group meetings count probation timers
        // down: new states around their parents' payloads.
        sim.run(2_000);

        let (mut verifiers, mut stores, mut observations) = (0, HashSet::new(), HashSet::new());
        for index in 0..handle.num_states() {
            handle.peek(index, |state| {
                let AgentState::Verifying(agent) = state else {
                    return;
                };
                let Some(dc) = agent.sv.dc.active() else {
                    return;
                };
                verifiers += 1;
                let (ptr, runs, hash) = payload(&dc.msgs.runs);
                if let Some(hash) = hash {
                    assert_eq!(hash, WordHash.hash_one(runs), "stale store hash");
                }
                stores.insert(ptr);
                let (ptr, values, hash) = payload(&dc.observations.values);
                if let Some(hash) = hash {
                    assert_eq!(hash, WordHash.hash_one(values), "stale observations hash");
                }
                observations.insert(ptr);
            });
        }
        // Observed at this seed: 4074 interned verifiers around 920 store
        // and 920 observations payloads. Deep-copying clones would give each
        // verifier a payload of its own.
        assert!(verifiers >= 4_000, "{verifiers} verifiers interned");
        for (what, payloads) in [
            ("stores", stores.len()),
            ("observations", observations.len()),
        ] {
            assert!(
                payloads <= 1_000 && 4 * payloads < verifiers,
                "{payloads} distinct {what} for {verifiers} verifiers"
            );
        }
    }

    #[test]
    #[should_panic(expected = "inside the group")]
    fn initial_position_out_of_range_panics() {
        let _ = MessageStore::initial(3, 18, 3);
    }
}
