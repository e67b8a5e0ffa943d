//! The circulating-message store of `DetectCollision_r` (Section 5.1).
//!
//! Messages are triples `(rank, ID, content)`. The `rank` (the *governor*)
//! identifies which agents may rewrite the message, the `ID` distinguishes
//! the messages of one governor, and the `content` carries the governor's
//! signature at the time of the last rewrite. An agent stores the messages it
//! currently holds in a [`MessageStore`] — a sparse map from
//! `(governor position in group, ID)` to content — and keeps an
//! [`Observations`] array recording the content it last wrote into each of
//! its *own* messages.
//!
//! Layout: a store is class-major. Protocol 14 splits messages per
//! `(governor, content)` class, and a store holds few classes: when a clean
//! `n = 256, r = 64` trial has stabilized, a store's `8192` messages fall
//! into ~300 classes, ~4.8 per governor. So the store writes each content
//! once per class, not once per message. Per governor, in governor order, it
//! keeps one header per class in ascending content order, and each class's
//! IDs as ascending `u32`s in one buffer. The layout is canonical (equal
//! message sets give equal buffers), so `Eq` is set equality. IDs stay
//! explicit: only the content is factored out.
//!
//! Bytes: a held message costs its 4-byte ID, and a class costs a 12-byte
//! header (an 8-byte content and the 4-byte end of its IDs). A fresh store
//! of `2m²` messages in `m` classes takes `8m² + 12m` bytes, against `16m²`
//! for one 8-byte [`Message`] word per message. The worst case is a store in
//! which every message has a content of its own, as after
//! `corrupt_message_system`: 4 bytes plus one header per message, 16 bytes,
//! twice the 8 of a packed word. Contents and IDs keep the [`Message`]
//! bounds, so [`MessageStore::messages_for`] can hand out packed words for
//! every group of at most [`MAX_GROUP_SIZE`] ranks; `Params` rejects larger
//! groups.
//!
//! An observations array takes one byte per ID, an index into a palette of
//! the distinct contents it holds (8 bytes each), since an owner's
//! observations hold only the few signatures its recent stamps wrote. A
//! fresh array is `2m²` zero bytes and a palette of one content, so a fresh
//! verifier's payload is `10m² + 12m + 8` bytes, against `24m² + 12m` with
//! one 8-byte word per observation. An array switches to one word per ID
//! only if all 256 palette entries are in use at once; a group of 16 run
//! for 50 000 same-group steps never gets there.
//!
//! Sharing: a store's buffers, and an observations array's bytes and
//! palette, are copy-on-write payloads. Cloning a store or an observations
//! array (as the state interner, the support probe and `decode` do) bumps a
//! reference count and shares the buffers; the first write through one of
//! the sharers copies them (an array's bytes, not words). The kernel writes
//! each step's stores into buffers of its own and trades them for the
//! buffers of unshared stores (a shared store gets an exact copy). Each
//! payload also caches its content hash, so hashing a verifier state reads
//! two cached words instead of its messages and observations; an
//! observations array hashes as the `Vec<u64>` of its values would.
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

/// Bytes of one class header in a [`MessageStore`]: an 8-byte content and a
/// 4-byte end.
pub const CLASS_HEADER_BYTES: usize = 12;

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
/// (The governor is implied by where the message is read from a
/// [`MessageStore`].)
///
/// Packed into one word: the ID in the high 19 bits, the content in the low
/// 45. Word order is therefore `(ID, content)` order.
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

    /// Rewrites the content, keeping the ID.
    ///
    /// # Panics
    ///
    /// Panics if `content` exceeds [`MAX_CONTENT`].
    #[inline]
    pub fn set_content(&mut self, content: u64) {
        check_content(content);
        self.0 = self.0 & !CONTENT_MASK | content;
    }
}

fn check_content(content: u64) {
    assert!(
        content <= MAX_CONTENT,
        "message content {content} exceeds {MAX_CONTENT}"
    );
}

impl fmt::Debug for Message {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Message")
            .field("id", &self.id())
            .field("content", &self.content())
            .finish()
    }
}

/// The sparse store of circulating messages held by one agent, class-major:
/// per governing rank of the agent's group, its content classes in ascending
/// content order, each class's message IDs in ascending order.
#[derive(Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct MessageStore {
    classes: Shared<Classes>,
}

/// The payload of a [`MessageStore`].
#[derive(Clone, Default, PartialEq, Eq, Hash)]
struct Classes {
    /// Every held message ID: governor by governor, each governor's classes
    /// in ascending content order, each class's IDs ascending.
    ids: Vec<u32>,
    /// The class headers, in the same order: each class's content…
    contents: Vec<u64>,
    /// …and where its IDs end in `ids`. A class starts where the one before
    /// ends; no class is empty.
    ends: Vec<u32>,
    /// `governors[g]..governors[g + 1]` are governor `g`'s classes.
    governors: Vec<u32>,
    /// Number of IDs each governing rank owns (`2m²`).
    ids_per_rank: u32,
}

impl Classes {
    /// Governor `g`'s classes, as indices of `contents` and `ends`.
    #[inline]
    fn class_range(&self, governor: usize) -> Range<usize> {
        self.governors[governor] as usize..self.governors[governor + 1] as usize
    }

    /// Where class `class` (or, past the last class, the end) starts in `ids`.
    #[inline]
    fn start(&self, class: usize) -> usize {
        class
            .checked_sub(1)
            .map_or(0, |before| self.ends[before] as usize)
    }

    /// Governor `g`'s IDs, as a range of `ids`.
    #[inline]
    fn id_range(&self, governor: usize) -> Range<usize> {
        let classes = self.class_range(governor);
        self.start(classes.start)..self.start(classes.end)
    }

    #[inline]
    fn class_ids(&self, class: usize) -> &[u32] {
        &self.ids[self.start(class)..self.ends[class] as usize]
    }

    /// The class holding `(governor, id)` and the ID's index in `ids`.
    fn find(&self, governor: usize, id: u32) -> Option<(usize, usize)> {
        self.class_range(governor).find_map(|class| {
            let index = self.class_ids(class).binary_search(&id).ok()?;
            Some((class, self.start(class) + index))
        })
    }

    /// Adds `delta` to the ends of the classes from `class` on.
    fn shift_ends(&mut self, class: usize, delta: i32) {
        for end in &mut self.ends[class..] {
            *end = end.checked_add_signed(delta).expect("ends stay in range");
        }
    }

    /// Adds `delta` to where the classes of each governor after `governor`
    /// begin.
    fn shift_governors(&mut self, governor: usize, delta: i32) {
        for first in &mut self.governors[governor + 1..] {
            *first = first
                .checked_add_signed(delta)
                .expect("class indices stay in range");
        }
    }

    /// Whether the payload is in canonical form (checked in debug builds).
    fn is_canonical(&self) -> bool {
        let group_size = self.governors.len() - 1;
        self.governors[0] == 0
            && self.governors[group_size] as usize == self.contents.len()
            && self.ends.len() == self.contents.len()
            && self.ends.last().map_or(0, |&end| end as usize) == self.ids.len()
            && (0..group_size).all(|g| {
                let classes = self.class_range(g);
                self.contents[classes.clone()]
                    .windows(2)
                    .all(|w| w[0] < w[1])
                    && classes.into_iter().all(|class| {
                        let ids = self.class_ids(class);
                        !ids.is_empty() && ids.windows(2).all(|w| w[0] < w[1])
                    })
            })
    }

    /// The address and capacity of each of the four buffers.
    #[cfg(test)]
    fn buffers(&self) -> [(usize, usize); 4] {
        [
            (self.ids.as_ptr() as usize, self.ids.capacity()),
            (self.contents.as_ptr() as usize, self.contents.capacity()),
            (self.ends.as_ptr() as usize, self.ends.capacity()),
            (self.governors.as_ptr() as usize, self.governors.capacity()),
        ]
    }
}

impl fmt::Debug for MessageStore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let classes = &self.classes;
        f.debug_struct("MessageStore")
            .field("ids", &classes.ids)
            .field("contents", &classes.contents)
            .field("ends", &classes.ends)
            .field("governors", &classes.governors)
            .field("ids_per_rank", &classes.ids_per_rank)
            .finish()
    }
}

impl MessageStore {
    /// Creates an empty store for a group of size `group_size` with
    /// `ids_per_rank` message IDs per governing rank.
    pub fn empty(group_size: usize, ids_per_rank: u32) -> Self {
        Self::from_classes(Classes {
            governors: vec![0; group_size + 1],
            ids_per_rank,
            ..Classes::default()
        })
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
        // One class per governor, unless the block is empty.
        let classes = usize::from(per_governor > 0);
        let mut ids = Vec::with_capacity(group_size * per_governor);
        for _ in 0..group_size {
            ids.extend(start..=end);
        }
        Self::from_classes(Classes {
            ids,
            contents: vec![INITIAL_CONTENT; group_size * classes],
            ends: (1..=group_size)
                .filter(|_| classes > 0)
                .map(|g| (g * per_governor) as u32)
                .collect(),
            governors: (0..=group_size).map(|g| (g * classes) as u32).collect(),
            ids_per_rank,
        })
    }

    fn from_classes(classes: Classes) -> Self {
        debug_assert!(classes.is_canonical());
        MessageStore {
            classes: Shared::new(classes),
        }
    }

    /// The number of governing ranks (the group size).
    pub fn group_size(&self) -> usize {
        self.classes.governors.len() - 1
    }

    /// Number of message IDs per governing rank.
    pub fn ids_per_rank(&self) -> u32 {
        self.classes.ids_per_rank
    }

    /// Total number of messages currently held.
    pub fn total(&self) -> usize {
        self.classes.ids.len()
    }

    /// Total number of content classes, over all governors.
    pub fn class_count(&self) -> usize {
        self.classes.contents.len()
    }

    /// The bytes the held messages take: 4 per ID plus
    /// [`CLASS_HEADER_BYTES`] per class.
    pub fn payload_bytes(&self) -> usize {
        self.total() * std::mem::size_of::<u32>() + self.class_count() * CLASS_HEADER_BYTES
    }

    /// Number of messages governed by the rank at in-group position `g`.
    #[inline]
    pub fn count_for(&self, governor: usize) -> usize {
        self.classes.id_range(governor).len()
    }

    /// The content classes of `governor`: each class's content with its IDs,
    /// by ascending content, each class's IDs ascending.
    #[inline]
    pub fn classes_for(&self, governor: usize) -> impl Iterator<Item = (u64, &[u32])> + '_ {
        let classes = &*self.classes;
        classes
            .class_range(governor)
            .map(move |class| (classes.contents[class], classes.class_ids(class)))
    }

    /// The messages governed by in-group position `governor`, class by
    /// class: by ascending content, then by ascending ID.
    pub fn messages_for(&self, governor: usize) -> impl Iterator<Item = Message> + '_ {
        self.classes_for(governor)
            .flat_map(|(content, ids)| ids.iter().map(move |&id| Message::new(id, content)))
    }

    /// Every ID of `governor`, class by class.
    #[inline]
    pub(crate) fn ids_for(&self, governor: usize) -> &[u32] {
        &self.classes.ids[self.classes.id_range(governor)]
    }

    /// The content of the message `(governor, id)` if held.
    pub fn content(&self, governor: usize, id: u32) -> Option<u64> {
        let (class, _) = self.classes.find(governor, id)?;
        Some(self.classes.contents[class])
    }

    /// Inserts or overwrites the message `(governor, id)` with `content`.
    ///
    /// # Panics
    ///
    /// Panics if `id` lies outside `1..=ids_per_rank` or `content` exceeds
    /// [`MAX_CONTENT`].
    pub fn insert(&mut self, governor: usize, id: u32, content: u64) {
        let ids_per_rank = self.ids_per_rank();
        assert!(
            (1..=ids_per_rank).contains(&id),
            "message id {id} outside 1..={ids_per_rank}"
        );
        check_content(content);
        self.remove(governor, id);
        let c = self.classes.make_mut();
        let classes = c.class_range(governor);
        let class = match c.contents[classes.clone()].binary_search(&content) {
            Ok(k) => classes.start + k,
            Err(k) => {
                // A new, still empty class.
                let class = classes.start + k;
                let start = c.start(class) as u32;
                c.contents.insert(class, content);
                c.ends.insert(class, start);
                c.shift_governors(governor, 1);
                class
            }
        };
        let at = c.start(class) + c.class_ids(class).partition_point(|&held| held < id);
        c.ids.insert(at, id);
        c.shift_ends(class, 1);
        debug_assert!(c.is_canonical());
    }

    /// Removes the message `(governor, id)`, returning its content if it was
    /// held.
    pub fn remove(&mut self, governor: usize, id: u32) -> Option<u64> {
        let (class, at) = self.classes.find(governor, id)?;
        let c = self.classes.make_mut();
        let content = c.contents[class];
        c.ids.remove(at);
        c.shift_ends(class, -1);
        if c.start(class) == c.ends[class] as usize {
            c.contents.remove(class);
            c.ends.remove(class);
            c.shift_governors(governor, -1);
        }
        debug_assert!(c.is_canonical());
        Some(content)
    }

    /// Rewrites every message of `governor` to `content`, so the governor
    /// holds one class (Protocol 13), and returns its IDs, ascending.
    ///
    /// # Panics
    ///
    /// Panics if `content` exceeds [`MAX_CONTENT`].
    pub fn stamp(&mut self, governor: usize, content: u64) -> &[u32] {
        check_content(content);
        let c = self.classes.make_mut();
        let classes = c.class_range(governor);
        let ids = c.id_range(governor);
        if classes.len() > 1 {
            c.ids[ids.clone()].sort_unstable();
            c.contents.drain(classes.start + 1..classes.end);
            c.ends.drain(classes.start..classes.end - 1);
            c.shift_governors(governor, 1 - classes.len() as i32);
        }
        if !classes.is_empty() {
            c.contents[classes.start] = content;
        }
        debug_assert!(c.is_canonical());
        &c.ids[ids]
    }

    /// Rewrites the content of every message of `governor` to
    /// `content_of(message)`, visiting the messages by ascending ID (the
    /// order in which an adversary draws per message).
    ///
    /// # Panics
    ///
    /// Panics if a new content exceeds [`MAX_CONTENT`].
    pub fn rewrite(&mut self, governor: usize, mut content_of: impl FnMut(Message) -> u64) {
        let mut messages: Vec<Message> = self.messages_for(governor).collect();
        messages.sort_unstable();
        for msg in &mut messages {
            msg.set_content(content_of(*msg));
        }
        messages.sort_unstable_by_key(|msg| (msg.content(), msg.id()));
        let c = self.classes.make_mut();
        let (classes, ids) = (c.class_range(governor), c.id_range(governor));
        let mut end = ids.start as u32;
        let (mut contents, mut ends) = (Vec::new(), Vec::new());
        for class in messages.chunk_by(|a, b| a.content() == b.content()) {
            end += class.len() as u32;
            contents.push(class[0].content());
            ends.push(end);
        }
        c.shift_governors(governor, contents.len() as i32 - classes.len() as i32);
        c.ids.splice(ids, messages.iter().map(|msg| msg.id()));
        c.contents.splice(classes.clone(), contents);
        c.ends.splice(classes, ends);
        debug_assert!(c.is_canonical());
    }

    /// Whether this store and `other` both hold a message with the same
    /// `(governor, ID)` pair, whatever its contents — the "two copies of the
    /// same circulating message" collision proof of Protocol 3, line 3.
    pub fn shares_message_with(&self, other: &MessageStore) -> bool {
        super::detect_collision::shares_a_message(self, other)
    }

    /// Per-governor message counts, used by tests and by the load-balancing
    /// experiments.
    pub fn counts(&self) -> Vec<usize> {
        (0..self.group_size()).map(|g| self.count_for(g)).collect()
    }

    /// Replaces this store's messages with those `writer` holds. An unshared
    /// store trades its buffers for the writer's, which the writer reuses
    /// for the next store it writes; a shared store gets an exact copy.
    pub(crate) fn replace_with(&mut self, writer: &mut StoreWriter) {
        debug_assert!(writer.0.is_canonical());
        if self.classes.is_shared() {
            self.classes = Shared::new(writer.0.clone());
        } else {
            std::mem::swap(self.classes.make_mut(), &mut writer.0);
        }
    }

    /// The address and capacity of each of the store's buffers.
    #[cfg(test)]
    pub(crate) fn buffers(&self) -> [(usize, usize); 4] {
        self.classes.buffers()
    }
}

/// A store being written class by class: governors in order, each
/// governor's classes by ascending content, each from two ascending ID lists.
/// [`MessageStore::replace_with`] hands the result to a store.
#[derive(Default)]
pub(crate) struct StoreWriter(Classes);

impl StoreWriter {
    /// Starts an empty store with room for `ids` messages, reusing the ID
    /// buffer when it is large enough and else allocating exactly that
    /// much. The class headers grow as classes are pushed.
    pub(crate) fn begin(&mut self, group_size: usize, ids_per_rank: u32, ids: usize) {
        let c = &mut self.0;
        c.ids.clear();
        c.contents.clear();
        c.ends.clear();
        c.governors.clear();
        c.ids.reserve_exact(ids);
        c.governors.reserve_exact(group_size + 1);
        c.governors.push(0);
        c.ids_per_rank = ids_per_rank;
    }

    /// Appends a class of `content` holding the IDs of `a` and `b`, two
    /// ascending lists with no ID in common. Nothing is written if both are
    /// empty.
    #[inline]
    pub(crate) fn push_class(&mut self, content: u64, a: &[u32], b: &[u32]) {
        if a.is_empty() && b.is_empty() {
            return;
        }
        let c = &mut self.0;
        merge_into(&mut c.ids, a, b);
        c.contents.push(content);
        c.ends.push(c.ids.len() as u32);
    }

    /// Ends the current governor's classes.
    #[inline]
    pub(crate) fn close_governor(&mut self) {
        let c = &mut self.0;
        c.governors.push(c.contents.len() as u32);
    }

    /// The address and capacity of each of the writer's buffers.
    #[cfg(test)]
    pub(crate) fn buffers(&self) -> [(usize, usize); 4] {
        self.0.buffers()
    }
}

/// Appends the merge of the ascending lists `a` and `b` to `out`, a run at
/// a time: of the list with the smaller head, it copies every ID up to the
/// other list's head in one `extend_from_slice`, found by a binary search.
/// A class merge of two runs of ~25 IDs thus costs two copies and two short
/// searches, not one compare and push per ID. The search takes IDs *at or
/// below* the other head, so equal heads still move on (and both are kept).
#[inline]
fn merge_into(out: &mut Vec<u32>, mut a: &[u32], mut b: &[u32]) {
    while let (Some(&x), Some(&y)) = (a.first(), b.first()) {
        if x <= y {
            let (run, rest) = a.split_at(a.partition_point(|&id| id <= y));
            out.extend_from_slice(run);
            a = rest;
        } else {
            let (run, rest) = b.split_at(b.partition_point(|&id| id <= x));
            out.extend_from_slice(run);
            b = rest;
        }
    }
    out.extend_from_slice(a);
    out.extend_from_slice(b);
}

/// The `observations` array of an agent: entry `id` is the content the agent
/// last wrote into its own message with that ID.
///
/// Stored as one byte per ID, indexing a palette of distinct contents: a
/// content ranges over `m⁵` signatures, but an owner's observations hold
/// only the few its recent stamps wrote. A content missing from a full
/// palette first drops the entries no ID uses any more; only if all 256
/// are in use does the array switch to one word per ID, so it holds any
/// values exactly. `Eq`, `Hash` and `Debug` see the values, not the
/// layout: equal arrays compare and hash equal however they are stored.
#[derive(Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Observations {
    values: Shared<Cells>,
}

/// The most contents a palette holds: one per value of an index byte.
const PALETTE_SIZE: usize = 1 << u8::BITS;

/// The payload of an [`Observations`] array.
#[derive(Clone)]
enum Cells {
    /// `palette[slots[id - 1]]` is the observation of `id`. The palette's
    /// entries are distinct, so equal slots mean equal contents.
    Palette { slots: Vec<u8>, palette: Vec<u64> },
    /// `values[id - 1]` is the observation of `id`.
    Dense(Vec<u64>),
}

impl Cells {
    fn len(&self) -> usize {
        match self {
            Cells::Palette { slots, .. } => slots.len(),
            Cells::Dense(values) => values.len(),
        }
    }

    #[inline]
    fn get(&self, index: usize) -> u64 {
        match self {
            Cells::Palette { slots, palette } => palette[usize::from(slots[index])],
            Cells::Dense(values) => values[index],
        }
    }

    fn values(&self) -> impl Iterator<Item = u64> + '_ {
        (0..self.len()).map(|index| self.get(index))
    }

    /// The slot of `content`, added if missing; `None` once the array is
    /// dense, which it becomes here if the palette is full and every entry
    /// is in use.
    fn slot_of(&mut self, content: u64) -> Option<u8> {
        let Cells::Palette { slots, palette } = self else {
            return None;
        };
        // The latest signatures sit at the end.
        if let Some(slot) = palette.iter().rposition(|&c| c == content) {
            return Some(slot as u8);
        }
        if palette.len() == PALETTE_SIZE {
            drop_unused(slots, palette);
        }
        if palette.len() == PALETTE_SIZE {
            let values = slots.iter().map(|&s| palette[usize::from(s)]).collect();
            *self = Cells::Dense(values);
            return None;
        }
        palette.push(content);
        Some((palette.len() - 1) as u8)
    }
}

/// Drops the palette entries no slot points at, keeping the others in
/// order (so they stay distinct), and renumbers the slots.
fn drop_unused(slots: &mut [u8], palette: &mut Vec<u64>) {
    let mut used = [false; PALETTE_SIZE];
    for &slot in slots.iter() {
        used[usize::from(slot)] = true;
    }
    let mut renumbered = [0u8; PALETTE_SIZE];
    let mut kept = 0;
    for old in 0..palette.len() {
        if used[old] {
            palette[kept] = palette[old];
            renumbered[old] = kept as u8;
            kept += 1;
        }
    }
    palette.truncate(kept);
    for slot in slots {
        *slot = renumbered[usize::from(*slot)];
    }
}

/// Logical equality: two palettes that agree entry by entry compare their
/// slot bytes; any other pair compares value by value.
impl PartialEq for Cells {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (
                Cells::Palette { slots, palette },
                Cells::Palette {
                    slots: other_slots,
                    palette: other_palette,
                },
            ) if palette == other_palette => slots == other_slots,
            _ => self.len() == other.len() && self.values().eq(other.values()),
        }
    }
}

impl Eq for Cells {}

/// The length, then one word per value: under [`WordHash`] exactly the hash
/// of the values as a `Vec<u64>`.
impl Hash for Cells {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_usize(self.len());
        match self {
            Cells::Palette { slots, palette } => {
                for &slot in slots {
                    state.write_u64(palette[usize::from(slot)]);
                }
            }
            Cells::Dense(values) => {
                for &value in values {
                    state.write_u64(value);
                }
            }
        }
    }
}

impl fmt::Debug for Observations {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let values: Vec<u64> = self.values.values().collect();
        f.debug_struct("Observations")
            .field("values", &values)
            .finish()
    }
}

impl Observations {
    /// Creates the initial observations array (all [`INITIAL_CONTENT`]).
    pub fn initial(ids_per_rank: u32) -> Self {
        Observations {
            values: Shared::new(Cells::Palette {
                slots: vec![0; ids_per_rank as usize],
                palette: vec![INITIAL_CONTENT],
            }),
        }
    }

    /// Number of tracked message IDs.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the array is empty (only for degenerate group sizes).
    pub fn is_empty(&self) -> bool {
        self.values.len() == 0
    }

    /// The recorded content for message `id` (1-based).
    pub fn get(&self, id: u32) -> u64 {
        self.values.get((id - 1) as usize)
    }

    /// Records `content` for message `id` (1-based). Copies the array first
    /// if it is shared; a loop over many IDs should call [`Self::record`]
    /// once instead.
    pub fn set(&mut self, id: u32, content: u64) {
        self.record(&[id], content);
    }

    /// Records `content` for every message of `ids` (1-based), as Protocol
    /// 13 does for the IDs it stamps. Copies the array first if it is
    /// shared and `ids` is not empty.
    pub fn record(&mut self, ids: &[u32], content: u64) {
        if ids.is_empty() {
            return;
        }
        let cells = self.values.make_mut();
        let slot = cells.slot_of(content);
        match (cells, slot) {
            (Cells::Palette { slots, .. }, Some(slot)) => {
                for &id in ids {
                    slots[(id - 1) as usize] = slot;
                }
            }
            (Cells::Dense(values), None) => {
                for &id in ids {
                    values[(id - 1) as usize] = content;
                }
            }
            _ => unreachable!("a slot exactly while the array has a palette"),
        }
    }

    /// Whether the content recorded for any message of `ids` (1-based)
    /// differs from `content`: Protocol 12's check of one class of the
    /// owner's messages. A content missing from the palette differs for
    /// every ID.
    pub fn any_differs(&self, ids: &[u32], content: u64) -> bool {
        match &*self.values {
            Cells::Palette { slots, palette } => {
                match palette.iter().rposition(|&c| c == content) {
                    Some(slot) => ids
                        .iter()
                        .any(|&id| usize::from(slots[(id - 1) as usize]) != slot),
                    None => !ids.is_empty(),
                }
            }
            Cells::Dense(values) => ids.iter().any(|&id| values[(id - 1) as usize] != content),
        }
    }

    /// The bytes the array takes: one per ID plus 8 per palette entry, or 8
    /// per ID once it has switched to one word per ID.
    pub fn payload_bytes(&self) -> usize {
        match &*self.values {
            Cells::Palette { slots, palette } => {
                slots.len() + palette.len() * std::mem::size_of::<u64>()
            }
            Cells::Dense(values) => values.len() * std::mem::size_of::<u64>(),
        }
    }

    /// Whether the array has switched to one word per ID.
    #[cfg(test)]
    pub(crate) fn is_dense(&self) -> bool {
        matches!(*self.values, Cells::Dense(_))
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
        let ids: Vec<u32> = s.messages_for(0).map(|m| m.id()).collect();
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
            let held: Vec<Message> = initial.messages_for(governor).collect();
            for msg in held.into_iter().rev() {
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
        o.record(&[1, 2, 3, 4, 5, 6, 7, 8], 5);
        assert_eq!(o.get(1), 5);
        assert_eq!(o.get(3), 5);
        assert!(!o.any_differs(&[1, 3, 8], 5));
        assert!(o.any_differs(&[1, 3, 8], 99), "99 is no longer in use");
        assert!(!o.any_differs(&[], 99));
        // One byte per ID; 1, 99 and 5 have been in the palette.
        assert_eq!(o.payload_bytes(), 8 + 3 * 8);
    }

    #[test]
    fn a_full_palette_drops_the_contents_no_id_holds() {
        let mut o = Observations::initial(4);
        // Contents 1..=256 fill the palette; only the last four stay in use.
        for content in 2..=256 {
            o.set(1 + content as u32 % 4, content);
        }
        assert_eq!(o.payload_bytes(), 4 + 256 * 8);
        let before = o.clone();
        o.set(1, 1_000);
        assert!(!o.is_dense());
        assert_eq!(o.payload_bytes(), 4 + 5 * 8, "252 stale contents dropped");
        assert_eq!(
            (1..=4).map(|id| o.get(id)).collect::<Vec<_>>(),
            [1_000, 253, 254, 255]
        );
        assert_eq!(before.get(1), 256, "the clone kept its copy");
        // Equal values compare and hash equal however they are stored.
        let mut rebuilt = Observations::initial(4);
        for id in 1..=4 {
            rebuilt.set(id, o.get(id));
        }
        assert_eq!(rebuilt, o);
        assert_eq!(
            WordHash.hash_one(&*rebuilt.values),
            WordHash.hash_one(&*o.values)
        );
    }

    #[test]
    fn a_palette_with_every_entry_in_use_switches_to_words() {
        let ids = 300;
        let mut o = Observations::initial(ids);
        // With the initial content, 256 contents fill the palette.
        for id in 1..=255 {
            o.set(id, u64::from(id) * 7);
        }
        assert!(!o.is_dense());
        o.set(256, 5);
        assert!(o.is_dense(), "all 256 entries are in use");
        assert_eq!(o.payload_bytes(), 8 * ids as usize);
        o.record(&[257, 258], 6);
        let expected: Vec<u64> = (1..=u64::from(ids))
            .map(|id| match id {
                ..=255 => id * 7,
                256 => 5,
                257 | 258 => 6,
                _ => INITIAL_CONTENT,
            })
            .collect();
        assert_eq!((1..=ids).map(|id| o.get(id)).collect::<Vec<_>>(), expected);
        assert!(!o.any_differs(&[257, 258], 6));
        assert!(o.any_differs(&[256, 257], 6));
        assert_eq!(
            WordHash.hash_one(&*o.values),
            WordHash.hash_one(&expected),
            "the words hash as a `Vec<u64>` of the values"
        );
    }

    #[test]
    fn debug_output_shows_the_payload_fields() {
        let mut store = MessageStore::initial(2, 4, 1);
        store.insert(0, 1, 9);
        let shared = store.clone();
        assert_eq!(
            format!("{shared:?}"),
            "MessageStore { ids: [3, 4, 1, 3, 4], contents: [1, 9, 1], \
             ends: [2, 3, 5], governors: [0, 2, 3], ids_per_rank: 4 }"
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
                let (ptr, classes, hash) = payload(&dc.msgs.classes);
                if let Some(hash) = hash {
                    assert_eq!(hash, WordHash.hash_one(classes), "stale store hash");
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

    /// The reference merge: one compare and one push per ID.
    fn merge_by_element(a: &[u32], b: &[u32]) -> Vec<u32> {
        let (mut out, mut i, mut j) = (Vec::new(), 0, 0);
        while let (Some(&x), Some(&y)) = (a.get(i), b.get(j)) {
            if x < y {
                out.push(x);
                i += 1;
            } else {
                out.push(y);
                j += 1;
            }
        }
        out.extend_from_slice(&a[i..]);
        out.extend_from_slice(&b[j..]);
        out
    }

    fn merged(a: &[u32], b: &[u32]) -> Vec<u32> {
        // Start from a non-empty buffer: the merge appends.
        let mut out = vec![0];
        merge_into(&mut out, a, b);
        assert_eq!(out.remove(0), 0);
        out
    }

    #[test]
    fn galloping_merge_equals_the_two_pointer_merge() {
        let mut rng = ppsim::SimRng::seed_from_u64(27);
        let mut below = |bound: u64| ppsim::rng::uniform_below(&mut rng, bound) as usize;
        for _ in 0..2_000 {
            // Deal runs of 1..=64 consecutive IDs to `a` and `b` at random.
            let (mut a, mut b) = (Vec::new(), Vec::new());
            let mut next = 1 + below(4) as u32;
            for _ in 0..below(12) {
                let list = if below(2) == 0 { &mut a } else { &mut b };
                let run = 1 + below(64) as u32;
                list.extend(next..next + run);
                // Sometimes leave a gap no list holds.
                next += run + below(2) as u32 * (1 + below(8) as u32);
            }
            let expected = merge_by_element(&a, &b);
            assert!(expected.windows(2).all(|w| w[0] < w[1]));
            assert_eq!(merged(&a, &b), expected, "{a:?} + {b:?}");
            assert_eq!(merged(&b, &a), expected, "{b:?} + {a:?}");
        }
        let ids = [2, 3, 5, 8, 13];
        for (a, b) in [(&[][..], &[][..]), (&ids[..], &[][..]), (&[][..], &ids[..])] {
            assert_eq!(merged(a, b), merge_by_element(a, b));
        }
    }

    #[test]
    fn galloping_merge_keeps_both_copies_of_equal_heads() {
        // Not a case a balance meets (its lists are disjoint), but the run
        // search takes IDs at or below the other head, so it still ends.
        assert_eq!(merged(&[4, 9], &[4, 6]), [4, 4, 6, 9]);
        assert_eq!(merged(&[7], &[7]), [7, 7]);
        assert_eq!(
            merged(&[1, 2, 3], &[1, 2, 3]),
            merge_by_element(&[1, 2, 3], &[1, 2, 3])
        );
    }

    #[test]
    #[should_panic(expected = "inside the group")]
    fn initial_position_out_of_range_panics() {
        let _ = MessageStore::initial(3, 18, 3);
    }
}
