//! `DetectCollision_r` (Section 5.1, Protocols 3 and 12–14).
//!
//! The collision-detection sub-protocol amplifies the number of objects
//! between which a collision can be observed: instead of waiting for two
//! same-rank agents to meet directly (which takes `Ω(n)` time), each rank
//! governs a large pool of circulating messages whose contents only that
//! rank's agents may rewrite — and always rewrite to their current
//! *signature*. If two agents share a rank, one of them eventually rewrites a
//! message to a signature the other never recorded; the moment the other sees
//! that message, the mismatch with its `observations` array proves the
//! collision and it raises the error state `⊤`.
//!
//! Interactions between agents whose ranks fall in different groups of the
//! rank-space partition are ignored, which is what produces the space–time
//! trade-off (Section 3.3).
//!
//! A same-group step moves all `~4m²` messages of both agents. It works on
//! the class-major [`MessageStore`]s: per governor, a few content classes,
//! each an ascending list of IDs.
//!
//! - Protocol 3 tags `u`'s IDs of each governor in a per-thread byte array
//!   and probes `v`'s IDs against it, so an ID the two hold under different
//!   contents is a collision too.
//! - Protocol 12 compares each class of the owner's governor with the
//!   owner's observations, one index byte per ID against the palette slot
//!   of the class's content; Protocol 13 stamps the owner's governor,
//!   merging its classes into one, and records the signature's slot in the
//!   stamped IDs' bytes.
//! - Protocol 14 takes each governor's classes of both stores in content
//!   order. It finds each class's floor split by a binary search for the
//!   `k`-th smallest ID of the two ID lists, and merges both halves straight
//!   into per-thread output stores, whose buffers it then trades for the
//!   stores' own.
//!
//! So a step costs one pass over the IDs for Protocol 3. Protocol 14 costs a
//! binary search per class and, per run of IDs that one side of a merge
//! holds, one short search and one copy (`merge_into` in the `messages`
//! module), not a compare and a push per ID. In a settled `n = 256, r = 64`
//! trial a class merge moves ~48 IDs in ~1.9 runs, and about half the
//! merges find one side empty. Once the buffers have grown to their working
//! size, a step on stores the agents own alone allocates nothing.

use crate::groups::GroupPartition;
use crate::params::Params;
use crate::verify::messages::{MessageStore, Observations, StoreWriter, INITIAL_CONTENT};
use ppsim::InteractionCtx;
use serde::{Deserialize, Serialize};
use std::cell::RefCell;

/// The non-error per-agent state of `DetectCollision_r` (Fig. 3).
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct CollisionState {
    /// The signature currently used as content for this agent's own messages,
    /// drawn (almost) uniformly from `[1, m⁵]`.
    pub signature: u64,
    /// Interaction counter; when it reaches the signature period the
    /// signature is resampled.
    pub counter: u32,
    /// Circulating messages currently held.
    pub msgs: MessageStore,
    /// Contents last written into this agent's own messages, indexed by ID.
    pub observations: Observations,
}

/// The per-agent state of `DetectCollision_r`: either the error state `⊤` or
/// an active [`CollisionState`].
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DetectCollisionState {
    /// The error state `⊤`: a collision (or an inconsistent message system)
    /// was observed.
    Error,
    /// Normal operation.
    Active(CollisionState),
}

impl DetectCollisionState {
    /// Whether this is the error state `⊤`.
    pub fn is_error(&self) -> bool {
        matches!(self, DetectCollisionState::Error)
    }

    /// The active state, if not `⊤`.
    pub fn active(&self) -> Option<&CollisionState> {
        match self {
            DetectCollisionState::Active(s) => Some(s),
            DetectCollisionState::Error => None,
        }
    }

    /// Mutable access to the active state, if not `⊤`.
    pub fn active_mut(&mut self) -> Option<&mut CollisionState> {
        match self {
            DetectCollisionState::Active(s) => Some(s),
            DetectCollisionState::Error => None,
        }
    }
}

/// Builds the initial state `q_{0,DC}` for an agent of the given rank
/// (Section 5.1): signature and counter 1, all observations
/// [`INITIAL_CONTENT`], and the contiguous block of message IDs determined by
/// the rank's position within its group, for every governing rank of the
/// group.
pub fn initial_state(
    params: &Params,
    partition: &GroupPartition,
    rank: u32,
) -> DetectCollisionState {
    let m = partition.group_size_of(rank);
    let ids = params.message_ids_per_rank(m);
    let position = partition.position_in_group(rank);
    DetectCollisionState::Active(CollisionState {
        signature: INITIAL_CONTENT,
        counter: 1,
        msgs: MessageStore::initial(m, ids, position),
        observations: Observations::initial(ids),
    })
}

/// Protocol 3: one `DetectCollision_r` interaction between the (read-only)
/// ranked agents `u` and `v`.
///
/// May set either or both collision states to [`DetectCollisionState::Error`];
/// the caller (`StableVerify_r`) decides how to react.
pub fn detect_collision(
    params: &Params,
    partition: &GroupPartition,
    u_rank: u32,
    u_dc: &mut DetectCollisionState,
    v_rank: u32,
    v_dc: &mut DetectCollisionState,
    ctx: &mut InteractionCtx<'_>,
) {
    // Line 1–2: only same-group agents have non-trivial interactions.
    if !partition.same_group(u_rank, v_rank) {
        return;
    }
    // A pre-existing ⊤ is handled by the wrapper; nothing to do here.
    let (DetectCollisionState::Active(u), DetectCollisionState::Active(v)) =
        (&mut *u_dc, &mut *v_dc)
    else {
        return;
    };

    // Line 3–4: a shared rank is an immediate, obvious collision.
    let error = u_rank == v_rank
        || SCRATCH.with(|scratch| {
            let mut scratch = scratch.borrow_mut();
            // So are two copies of the same circulating message.
            if scratch.shares(&u.msgs, &v.msgs) {
                return true;
            }
            // Line 5: CheckMessageConsistency both ways (may raise the error).
            if check_message_consistency(partition, u_rank, u, v)
                || check_message_consistency(partition, v_rank, v, u)
            {
                return true;
            }
            // Lines 6–7: refresh signatures / message contents, then
            // load-balance.
            update_messages(params, partition, u_rank, u, v, ctx);
            update_messages(params, partition, v_rank, v, u, ctx);
            scratch.balance(&mut u.msgs, &mut v.msgs);
            false
        });
    if error {
        *u_dc = DetectCollisionState::Error;
        *v_dc = DetectCollisionState::Error;
    }
}

/// Protocol 12: does `other` hold a message governed by `owner_rank` whose
/// content differs from what the owner recorded in its observations?
pub fn check_message_consistency(
    partition: &GroupPartition,
    owner_rank: u32,
    owner: &CollisionState,
    other: &CollisionState,
) -> bool {
    let governor = partition.position_in_group(owner_rank);
    other
        .msgs
        .classes_for(governor)
        .any(|(content, ids)| owner.observations.any_differs(ids, content))
}

/// Protocol 13: advance the owner's signature counter (resampling the
/// signature when it expires) and rewrite all messages governed by the owner
/// held by either agent to the owner's current signature, recording the new
/// contents in the owner's observations.
pub fn update_messages(
    params: &Params,
    partition: &GroupPartition,
    owner_rank: u32,
    owner: &mut CollisionState,
    other: &mut CollisionState,
    ctx: &mut InteractionCtx<'_>,
) {
    let m = partition.group_size_of(owner_rank);
    let governor = partition.position_in_group(owner_rank);

    // Lines 1–4: counter / signature refresh.
    owner.counter = owner.counter.saturating_add(1);
    if owner.counter >= params.signature_period(m) {
        owner.signature = 1 + ctx.sample_below(params.signature_space(m));
        owner.counter = 1;
        // Lines 5–8: rewrite the owner's own held messages to the new
        // signature and record the observations.
        let ids = owner.msgs.stamp(governor, owner.signature);
        owner.observations.record(ids, owner.signature);
    }

    // Lines 9–12: rewrite the partner's messages governed by the owner.
    let ids = other.msgs.stamp(governor, owner.signature);
    owner.observations.record(ids, owner.signature);
}

/// Protocol 14: redistribute the messages held by the two agents so that for
/// every `(governing rank, content)` pair each agent ends up with half of the
/// messages (±1), the agent currently holding more messages overall receiving
/// the smaller half.
///
/// Governors are taken in order and each governor's content classes in
/// ascending content order; within a class the smaller half is the lowest
/// IDs. `group_size` must be the group size both stores were built for, and
/// the stores must share no `(governor, ID)` pair (Protocol 3 rules that
/// out before a step balances).
pub fn balance_load(u: &mut CollisionState, v: &mut CollisionState, group_size: usize) {
    assert_eq!(
        u.msgs.group_size(),
        group_size,
        "stores are built for their group's size"
    );
    SCRATCH.with(|scratch| scratch.borrow_mut().balance(&mut u.msgs, &mut v.msgs));
}

/// Whether `u` and `v` hold a common `(governor, ID)` pair, whatever its
/// contents; see [`MessageStore::shares_message_with`].
pub(crate) fn shares_a_message(u: &MessageStore, v: &MessageStore) -> bool {
    SCRATCH.with(|scratch| scratch.borrow_mut().shares(u, v))
}

thread_local! {
    /// The same-group kernel's working memory, kept per thread so steps
    /// reuse it instead of allocating.
    static SCRATCH: RefCell<KernelScratch> = RefCell::new(KernelScratch::default());
}

/// The same-group kernel's working memory.
#[derive(Default)]
struct KernelScratch {
    /// `tags[id] == pass` marks the IDs of the first store's governor that
    /// Protocol 3 is checking (one pass per governor). A byte per ID keeps
    /// the array in cache; when `pass` wraps, the whole array is cleared, so
    /// no tag left by an earlier store, however large, can match again.
    tags: Vec<u8>,
    pass: u8,
    /// The buffers Protocol 14 writes the two agents' next stores into.
    out: [StoreWriter; 2],
}

impl KernelScratch {
    /// Protocol 3, line 3: whether `u` and `v` hold a common
    /// `(governor, ID)` pair, in any classes.
    fn shares(&mut self, u: &MessageStore, v: &MessageStore) -> bool {
        let ids = u.ids_per_rank().max(v.ids_per_rank()) as usize + 1;
        if self.tags.len() < ids {
            self.tags.resize(ids, 0);
        }
        for governor in 0..u.group_size().min(v.group_size()) {
            let (a, b) = (u.ids_for(governor), v.ids_for(governor));
            if a.is_empty() || b.is_empty() {
                continue;
            }
            self.pass = self.pass.wrapping_add(1);
            if self.pass == 0 {
                self.tags.fill(0);
                self.pass = 1;
            }
            for &id in a {
                self.tags[id as usize] = self.pass;
            }
            if b.iter().any(|&id| self.tags[id as usize] == self.pass) {
                return true;
            }
        }
        false
    }

    /// Protocol 14: writes both agents' next stores class by class and
    /// trades them in.
    fn balance(&mut self, u: &mut MessageStore, v: &mut MessageStore) {
        assert_eq!(
            u.group_size(),
            v.group_size(),
            "the two stores belong to one group"
        );
        // Each class's smaller half goes to whichever agent holds more so
        // far, so `u` ends up with half of all messages rounded up and `v`
        // with half rounded down.
        let (group_size, total) = (u.group_size(), u.total() + v.total());
        let [u_out, v_out] = &mut self.out;
        u_out.begin(group_size, u.ids_per_rank(), total.div_ceil(2));
        v_out.begin(group_size, v.ids_per_rank(), total / 2);
        let (mut u_assigned, mut v_assigned) = (0, 0);
        for governor in 0..group_size {
            for (content, a, b) in paired_classes(u.classes_for(governor), v.classes_for(governor))
            {
                let len = a.len() + b.len();
                let floor = len / 2;
                let (i, j) = split(a, b, floor);
                let (low, high) = ((&a[..i], &b[..j]), (&a[i..], &b[j..]));
                let (to_u, to_v) = if u_assigned > v_assigned {
                    u_assigned += floor;
                    v_assigned += len - floor;
                    (low, high)
                } else {
                    v_assigned += floor;
                    u_assigned += len - floor;
                    (high, low)
                };
                u_out.push_class(content, to_u.0, to_u.1);
                v_out.push_class(content, to_v.0, to_v.1);
            }
            u_out.close_governor();
            v_out.close_governor();
        }
        u.replace_with(u_out);
        v.replace_with(v_out);
    }
}

/// One governor's classes of two stores paired by content: every content of
/// either, ascending, with its IDs in the first store and in the second
/// (either may be empty).
fn paired_classes<'a>(
    u: impl Iterator<Item = (u64, &'a [u32])>,
    v: impl Iterator<Item = (u64, &'a [u32])>,
) -> impl Iterator<Item = (u64, &'a [u32], &'a [u32])> {
    let (mut u, mut v) = (u.peekable(), v.peekable());
    std::iter::from_fn(move || {
        // No content reaches `u64::MAX`, so it marks an exhausted side.
        let a = u.peek().map_or(u64::MAX, |&(content, _)| content);
        let b = v.peek().map_or(u64::MAX, |&(content, _)| content);
        let content = a.min(b);
        if content == u64::MAX {
            return None;
        }
        let from_u = if a == content { u.next() } else { None };
        let from_v = if b == content { v.next() } else { None };
        Some((
            content,
            from_u.map_or(&[][..], |(_, ids)| ids),
            from_v.map_or(&[][..], |(_, ids)| ids),
        ))
    })
}

/// How many of the `k` smallest IDs of the ascending, disjoint lists `a` and
/// `b` lie in each: a binary search for the `k`-th smallest.
fn split(a: &[u32], b: &[u32], k: usize) -> (usize, usize) {
    let (mut lo, mut hi) = (k.saturating_sub(b.len()), k.min(a.len()));
    while lo < hi {
        let i = (lo + hi) / 2;
        // Taking `i` IDs of `a` is too few if its next one lies below the
        // last of the `k - i` taken from `b`.
        if a[i] < b[k - i - 1] {
            lo = i + 1;
        } else {
            hi = i;
        }
    }
    (lo, k - lo)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppsim::SimRng;

    fn setup(n: usize, r: usize) -> (Params, GroupPartition) {
        let params = Params::new(n, r).unwrap();
        let partition = GroupPartition::new(&params);
        (params, partition)
    }

    fn active(dc: &DetectCollisionState) -> &CollisionState {
        dc.active().expect("state should be active")
    }

    fn run_interaction(
        params: &Params,
        partition: &GroupPartition,
        u_rank: u32,
        u: &mut DetectCollisionState,
        v_rank: u32,
        v: &mut DetectCollisionState,
        seed: u64,
    ) {
        let mut rng = SimRng::seed_from_u64(seed);
        let mut ctx = InteractionCtx::new(&mut rng, 0);
        detect_collision(params, partition, u_rank, u, v_rank, v, &mut ctx);
    }

    #[test]
    fn initial_state_holds_expected_blocks() {
        let (params, partition) = setup(16, 4);
        let dc = initial_state(&params, &partition, 6);
        let s = active(&dc);
        let m = partition.group_size_of(6);
        assert_eq!(m, 4);
        assert_eq!(s.msgs.total(), 2 * m * m);
        assert_eq!(s.signature, INITIAL_CONTENT);
        assert_eq!(s.observations.len(), 2 * m * m);
    }

    #[test]
    fn different_groups_do_not_interact() {
        let (params, partition) = setup(16, 4);
        let mut u = initial_state(&params, &partition, 1);
        let mut v = initial_state(&params, &partition, 9);
        let before = (u.clone(), v.clone());
        run_interaction(&params, &partition, 1, &mut u, 9, &mut v, 1);
        assert_eq!((u, v), before, "cross-group interaction must be a no-op");
    }

    #[test]
    fn equal_ranks_raise_error_immediately() {
        let (params, partition) = setup(16, 4);
        let mut u = initial_state(&params, &partition, 3);
        let mut v = initial_state(&params, &partition, 3);
        run_interaction(&params, &partition, 3, &mut u, 3, &mut v, 1);
        assert!(u.is_error());
        assert!(v.is_error());
    }

    #[test]
    fn duplicate_circulating_message_raises_error() {
        let (params, partition) = setup(16, 4);
        let mut u = initial_state(&params, &partition, 1);
        let mut v = initial_state(&params, &partition, 2);
        // Plant a copy of one of u's messages into v's store.
        {
            let u_state = u.active().unwrap().clone();
            let governor = 0;
            let msg = u_state.msgs.messages_for(governor).next().unwrap();
            v.active_mut()
                .unwrap()
                .msgs
                .insert(governor, msg.id(), msg.content());
        }
        run_interaction(&params, &partition, 1, &mut u, 2, &mut v, 1);
        assert!(u.is_error() && v.is_error());
    }

    #[test]
    fn inconsistent_message_content_raises_error() {
        let (params, partition) = setup(16, 4);
        let mut u = initial_state(&params, &partition, 1);
        let mut v = initial_state(&params, &partition, 2);
        // Corrupt the content of one of v's messages that is governed by
        // rank 1 (u's rank): u's observation for it still says
        // INITIAL_CONTENT, so u must detect the mismatch.
        {
            let governor = partition.position_in_group(1);
            let v_state = v.active_mut().unwrap();
            let msg = v_state.msgs.messages_for(governor).next().unwrap();
            v_state.msgs.insert(governor, msg.id(), msg.content() + 77);
        }
        run_interaction(&params, &partition, 1, &mut u, 2, &mut v, 1);
        assert!(u.is_error() && v.is_error());
    }

    #[test]
    fn consistent_interaction_is_not_an_error_and_conserves_messages() {
        let (params, partition) = setup(16, 4);
        let mut u = initial_state(&params, &partition, 1);
        let mut v = initial_state(&params, &partition, 2);
        let total_before = active(&u).msgs.total() + active(&v).msgs.total();
        run_interaction(&params, &partition, 1, &mut u, 2, &mut v, 1);
        assert!(!u.is_error() && !v.is_error());
        let total_after = active(&u).msgs.total() + active(&v).msgs.total();
        assert_eq!(
            total_before, total_after,
            "load balancing must conserve messages"
        );
    }

    #[test]
    fn error_state_is_sticky_under_interaction() {
        let (params, partition) = setup(16, 4);
        let mut u = DetectCollisionState::Error;
        let mut v = initial_state(&params, &partition, 2);
        let v_before = v.clone();
        run_interaction(&params, &partition, 1, &mut u, 2, &mut v, 1);
        assert!(u.is_error());
        assert_eq!(v, v_before);
    }

    #[test]
    fn update_messages_rewrites_partner_messages_and_records_observations() {
        let (params, partition) = setup(16, 4);
        let mut u = initial_state(&params, &partition, 1);
        let mut v = initial_state(&params, &partition, 2);
        let governor = partition.position_in_group(1);
        // Force a signature refresh by setting the counter to the period.
        let m = partition.group_size_of(1);
        u.active_mut().unwrap().counter = params.signature_period(m);
        let mut rng = SimRng::seed_from_u64(3);
        let mut ctx = InteractionCtx::new(&mut rng, 0);
        let (u_state, v_state) = (u.active_mut().unwrap(), v.active_mut().unwrap());
        update_messages(&params, &partition, 1, u_state, v_state, &mut ctx);
        let sig = u_state.signature;
        assert!(sig >= 1 && sig <= params.signature_space(m));
        for msg in u_state.msgs.messages_for(governor) {
            assert_eq!(msg.content(), sig);
            assert_eq!(u_state.observations.get(msg.id()), sig);
        }
        for msg in v_state.msgs.messages_for(governor) {
            assert_eq!(msg.content(), sig);
            assert_eq!(u_state.observations.get(msg.id()), sig);
        }
    }

    #[test]
    fn signature_counter_advances_without_refresh() {
        let (params, partition) = setup(16, 4);
        let mut u = initial_state(&params, &partition, 1);
        let mut v = initial_state(&params, &partition, 2);
        let mut rng = SimRng::seed_from_u64(3);
        let mut ctx = InteractionCtx::new(&mut rng, 0);
        let (u_state, v_state) = (u.active_mut().unwrap(), v.active_mut().unwrap());
        let sig_before = u_state.signature;
        update_messages(&params, &partition, 1, u_state, v_state, &mut ctx);
        assert_eq!(u_state.counter, 2);
        assert_eq!(
            u_state.signature, sig_before,
            "signature unchanged before the period"
        );
    }

    #[test]
    fn balance_load_splits_each_content_class_evenly() {
        let (params, partition) = setup(16, 4);
        let mut u = initial_state(&params, &partition, 1);
        let mut v = initial_state(&params, &partition, 2);
        let m = partition.group_size_of(1);
        let (u_state, v_state) = (u.active_mut().unwrap(), v.active_mut().unwrap());
        balance_load(u_state, v_state, m);
        for governor in 0..m {
            let mut counts: std::collections::BTreeMap<u64, (usize, usize)> =
                std::collections::BTreeMap::new();
            for msg in u_state.msgs.messages_for(governor) {
                counts.entry(msg.content()).or_default().0 += 1;
            }
            for msg in v_state.msgs.messages_for(governor) {
                counts.entry(msg.content()).or_default().1 += 1;
            }
            for (content, (a, b)) in counts {
                assert!(
                    a.abs_diff(b) <= 1,
                    "content {content} split {a}/{b} for governor {governor}"
                );
            }
        }
    }

    #[test]
    fn repeated_same_group_steps_reuse_every_buffer() {
        // The kernel trades buffers between the two stores and its scratch,
        // so once warmed up (signature refreshes included), further steps on
        // the same pair keep the set of buffers, with their capacities, that
        // the stores and the scratch hold. A step that allocated would bring
        // in a new buffer or a new capacity.
        let (params, partition) = setup(64, 16);
        let mut u = initial_state(&params, &partition, 1);
        let mut v = initial_state(&params, &partition, 2);
        let buffers = |u: &DetectCollisionState, v: &DetectCollisionState| {
            let mut all = SCRATCH.with(|s| {
                let s = s.borrow();
                let mut all = vec![(s.tags.as_ptr() as usize, s.tags.capacity())];
                for out in &s.out {
                    all.extend(out.buffers());
                }
                all
            });
            all.extend(active(u).msgs.buffers());
            all.extend(active(v).msgs.buffers());
            all.sort_unstable();
            all
        };
        let period = u64::from(params.signature_period(partition.group_size_of(1)));
        for seed in 0..2 * period {
            run_interaction(&params, &partition, 1, &mut u, 2, &mut v, seed);
        }
        let warm = buffers(&u, &v);
        let signature = active(&u).signature;
        for seed in 2 * period..4 * period {
            run_interaction(&params, &partition, 1, &mut u, 2, &mut v, seed);
            assert!(!u.is_error() && !v.is_error());
            assert_eq!(buffers(&u, &v), warm, "step {seed} allocated");
        }
        assert_ne!(active(&u).signature, signature, "a refresh ran");
    }

    /// Stores of a group of `m` holding one message each, of governor 0:
    /// the same ID if `duplicate`, else two different IDs. Protocol 3 makes
    /// one tag pass per check of the two.
    fn one_message_stores(m: usize, duplicate: bool) -> (MessageStore, MessageStore) {
        let ids = 2 * (m * m) as u32;
        let (mut u, mut v) = (MessageStore::empty(m, ids), MessageStore::empty(m, ids));
        u.insert(0, 1, INITIAL_CONTENT);
        v.insert(0, if duplicate { 1 } else { 2 }, INITIAL_CONTENT);
        (u, v)
    }

    #[test]
    fn a_duplicate_is_found_on_the_first_pass_after_the_tags_wrap() {
        let mut scratch = KernelScratch::default();
        let (u, v) = one_message_stores(4, false);
        for _ in 0..u8::MAX {
            assert!(!scratch.shares(&u, &v));
        }
        assert_eq!(scratch.pass, u8::MAX);
        let (u, v) = one_message_stores(4, true);
        assert!(scratch.shares(&u, &v), "duplicate missed after the wrap");
        assert_eq!(scratch.pass, 1, "the pass wrapped");
    }

    #[test]
    fn tags_of_a_larger_store_do_not_outlive_a_wrap() {
        // Two m = 16 stores whose IDs lie above every ID of an m = 4 store:
        // checking `a` against `b` tags `a`'s IDs with the current pass.
        let mut scratch = KernelScratch::default();
        let ids = 2 * 16 * 16;
        let a = MessageStore::initial(16, ids, 2);
        let b = MessageStore::initial(16, ids, 1);
        assert!(!scratch.shares(&a, &b));
        let stale = scratch.pass;
        // Small-store passes, through a wrap, to one short of a full cycle
        // of the 255 non-zero passes; they never tag `a`'s IDs.
        let (u, v) = one_message_stores(4, false);
        for _ in 1..u8::MAX {
            assert!(!scratch.shares(&u, &v));
        }
        assert_eq!(scratch.pass, stale - 1);
        // The next pass reuses `stale`, and probes `a`'s IDs.
        assert!(!scratch.shares(&b, &a), "a stale tag read as a duplicate");
    }

    #[test]
    fn a_long_run_keeps_every_observations_array_in_palette_form() {
        // An owner's observations hold the few signatures its recent stamps
        // wrote, far below the 256 a palette holds, so compaction keeps up
        // and no array switches to one word per ID.
        let (params, partition) = setup(64, 16);
        let ranks: Vec<u32> = partition.ranks_in(0).collect();
        let m = ranks.len();
        assert_eq!(m, 16);
        let mut states: Vec<DetectCollisionState> = ranks
            .iter()
            .map(|&rank| initial_state(&params, &partition, rank))
            .collect();
        let mut rng = SimRng::seed_from_u64(29);
        let mut refreshes = vec![0usize; m];
        for step in 0..50_000u64 {
            let i = ppsim::rng::uniform_below(&mut rng, m as u64) as usize;
            let j = (i + 1 + ppsim::rng::uniform_below(&mut rng, m as u64 - 1) as usize) % m;
            let (a, b) = if i < j {
                let (left, right) = states.split_at_mut(j);
                (&mut left[i], &mut right[0])
            } else {
                let (left, right) = states.split_at_mut(i);
                (&mut right[0], &mut left[j])
            };
            let signatures = (active(a).signature, active(b).signature);
            let mut ctx = InteractionCtx::new(&mut rng, step);
            detect_collision(&params, &partition, ranks[i], a, ranks[j], b, &mut ctx);
            assert!(
                !a.is_error() && !b.is_error(),
                "false positive at step {step}"
            );
            refreshes[i] += usize::from(active(a).signature != signatures.0);
            refreshes[j] += usize::from(active(b).signature != signatures.1);
        }
        // Every owner wrote more signatures than a palette holds, so every
        // palette filled up and dropped its stale contents.
        assert!(refreshes.iter().all(|&r| r >= 256), "{refreshes:?}");
        let ids = 2 * m * m;
        for state in &states {
            let observations = &active(state).observations;
            assert!(!observations.is_dense());
            assert!(observations.payload_bytes() <= ids + 256 * 8);
        }
    }

    #[test]
    fn repeated_interactions_between_distinct_ranks_never_error() {
        // Soundness smoke test at the module level: a correctly initialized
        // group with distinct ranks never produces ⊤, no matter how many
        // interactions happen (Lemma E.2).
        let (params, partition) = setup(8, 4);
        let ranks: Vec<u32> = partition.ranks_in(0).collect();
        let mut states: Vec<DetectCollisionState> = ranks
            .iter()
            .map(|&rank| initial_state(&params, &partition, rank))
            .collect();
        let mut rng = SimRng::seed_from_u64(11);
        for step in 0..5_000u64 {
            let i = (step % ranks.len() as u64) as usize;
            let j = ((step / ranks.len() as u64 + 1 + i as u64) % ranks.len() as u64) as usize;
            if i == j {
                continue;
            }
            let (a, b) = if i < j {
                let (left, right) = states.split_at_mut(j);
                (&mut left[i], &mut right[0])
            } else {
                let (left, right) = states.split_at_mut(i);
                (&mut right[0], &mut left[j])
            };
            let mut ctx = InteractionCtx::new(&mut rng, step);
            detect_collision(&params, &partition, ranks[i], a, ranks[j], b, &mut ctx);
            assert!(
                !a.is_error() && !b.is_error(),
                "false positive at step {step}"
            );
        }
        // Message conservation across the whole run.
        let m = partition.group_size(0);
        let total: usize = states
            .iter()
            .map(|s| s.active().unwrap().msgs.total())
            .sum();
        assert_eq!(total, m * 2 * m * m);
    }
}
