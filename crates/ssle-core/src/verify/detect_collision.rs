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
//! A same-group step moves all `~4m²` messages of both agents, so it is one
//! kernel over the two flat [`MessageStore`]s that reads each message twice.
//! Messages are 8-byte words (see [`Message`]).
//!
//! - The merge pass ID-merges both stores into per-thread scratch (an ID
//!   found in both is the Protocol 3 collision). In the same loop it records
//!   where the content changes: each governor's maximal runs of equal
//!   content, each run's content class and each class's length. A run may
//!   span a switch between `u`'s and `v`'s messages.
//! - Protocols 12 and 13 touch only the two agents' own governors, which are
//!   merged and counted again afterwards.
//! - The routing pass rebuilds both stores from the recorded runs
//!   (Protocol 14). A run lies in one class and arrives by increasing ID, so
//!   what is left of its class's floor half is the run's lowest IDs: each run
//!   is split once, and consecutive pieces bound for one store are copied as
//!   one range.
//!
//! After verification settles at `n = 256, r = 64`, a same-group pair's
//! `16 384` merged messages form ~650–810 runs, in ~3 classes per governor.
//! Once the scratch and the stores have grown to their working size, a step
//! allocates nothing.

use crate::groups::GroupPartition;
use crate::params::Params;
use crate::verify::messages::{Message, MessageStore, Observations, INITIAL_CONTENT, MAX_CONTENT};
use ppsim::InteractionCtx;
use serde::{Deserialize, Serialize};
use std::cell::RefCell;
use std::ops::Range;

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
            if scratch.merge(&u.msgs, &v.msgs) {
                return true;
            }
            // Line 5: CheckMessageConsistency both ways (may raise the error).
            if check_message_consistency(partition, u_rank, u, v)
                || check_message_consistency(partition, v_rank, v, u)
            {
                return true;
            }
            // Lines 6–7: refresh signatures / message contents, then
            // load-balance. Only the two owners' governors changed contents.
            update_messages(params, partition, u_rank, u, v, ctx);
            update_messages(params, partition, v_rank, v, u, ctx);
            for rank in [u_rank, v_rank] {
                scratch.remerge(partition.position_in_group(rank), &u.msgs, &v.msgs);
            }
            scratch.route(&mut u.msgs, &mut v.msgs);
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
        .messages_for(governor)
        .iter()
        .any(|msg| msg.content() != owner.observations.get(msg.id()))
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
        stamp(
            owner.msgs.messages_for_mut(governor),
            owner.observations.raw_values_mut(),
            owner.signature,
        );
    }

    // Lines 9–12: rewrite the partner's messages governed by the owner.
    stamp(
        other.msgs.messages_for_mut(governor),
        owner.observations.raw_values_mut(),
        owner.signature,
    );
}

/// Writes `signature` into every message of `held` and records it in the
/// owner's `observations` (entry `id - 1` per message). Both slices are taken
/// once per call, so a shared store or array is copied at most once.
fn stamp(held: &mut [Message], observations: &mut [u64], signature: u64) {
    for msg in held {
        msg.set_content(signature);
        observations[(msg.id() - 1) as usize] = signature;
    }
}

/// Protocol 14: redistribute the messages held by the two agents so that for
/// every `(governing rank, content)` pair each agent ends up with half of the
/// messages (±1), the agent currently holding more messages overall receiving
/// the smaller half.
///
/// Governors are taken in order and each governor's content classes in
/// ascending content order; within a class the smaller half is the lowest
/// IDs. `group_size` must be the group size both stores were built for.
pub fn balance_load(u: &mut CollisionState, v: &mut CollisionState, group_size: usize) {
    assert_eq!(
        u.msgs.group_size(),
        group_size,
        "stores are built for their group's size"
    );
    SCRATCH.with(|scratch| {
        let mut scratch = scratch.borrow_mut();
        scratch.merge(&u.msgs, &v.msgs);
        scratch.route(&mut u.msgs, &mut v.msgs);
    });
}

thread_local! {
    /// The same-group kernel's working memory, kept per thread so steps
    /// reuse it instead of allocating.
    static SCRATCH: RefCell<KernelScratch> = RefCell::new(KernelScratch::default());
}

/// Both agents' messages merged by governor and ID, with each governor's
/// content runs and content classes, recorded while merging.
#[derive(Default)]
struct KernelScratch {
    /// Both stores' messages, governor by governor, each governor's part
    /// sorted by ID. Only `..bounds[m]` is the current merge; the buffer
    /// keeps the length of the largest merge so far, so a merge overwrites it
    /// in place.
    merged: Vec<Message>,
    /// `bounds[g]..bounds[g + 1]` is governor `g`'s part of `merged`.
    bounds: Vec<usize>,
    /// Where governor `g`'s runs and classes lie in `runs` and `classes`.
    spans: Vec<Span>,
    /// The maximal runs of equal content in each governor's part of
    /// `merged`, in ID order. A re-merged governor appends its runs anew.
    runs: Vec<ContentRun>,
    /// Each governor's content classes, in the order their first messages
    /// were merged. A re-merged governor appends its classes anew.
    classes: Vec<ContentClass>,
    /// One governor's class indices sorted by content: the order in which
    /// Protocol 14 hands out the classes' halves.
    order: Vec<u32>,
}

/// One governor's share of [`KernelScratch::runs`] and
/// [`KernelScratch::classes`].
#[derive(Clone)]
struct Span {
    runs: Range<usize>,
    classes: Range<usize>,
}

/// A maximal run of equal content in one governor's merged messages.
#[derive(Clone, Copy)]
struct ContentRun {
    /// Where the run ends, counted from the governor's first merged message
    /// (a governor has at most `2m² < 2¹⁹` messages).
    end: u32,
    /// The run's class, counted from the governor's first class.
    class: u32,
}

/// One `(governor, content)` class of Protocol 14 and how it is split.
#[derive(Clone, Copy)]
struct ContentClass {
    content: u64,
    len: usize,
    /// Messages of the smaller (floor) half still to hand out; the class's
    /// messages arrive by increasing ID, so the floor half is the lowest IDs.
    floor_left: usize,
    /// Whether `u` receives the floor half.
    floor_to_u: bool,
}

impl KernelScratch {
    /// Merges the two stores governor by governor, recording their content
    /// runs, and returns whether they share a `(governor, ID)` pair.
    fn merge(&mut self, u: &MessageStore, v: &MessageStore) -> bool {
        assert_eq!(
            u.group_size(),
            v.group_size(),
            "the two stores belong to one group"
        );
        let total = u.total() + v.total();
        if self.merged.len() < total {
            self.merged.resize(total, Message::new(0, 0));
        }
        self.bounds.clear();
        self.bounds.push(0);
        self.spans.clear();
        self.runs.clear();
        self.classes.clear();
        let mut shared = false;
        for governor in 0..u.group_size() {
            let start = self.bounds[governor];
            self.bounds
                .push(start + u.count_for(governor) + v.count_for(governor));
            let (shares, span) = self.merge_governor(governor, u, v);
            shared |= shares;
            self.spans.push(span);
        }
        shared
    }

    /// Merges and counts `governor` again after its contents were rewritten
    /// in place.
    fn remerge(&mut self, governor: usize, u: &MessageStore, v: &MessageStore) {
        self.spans[governor] = self.merge_governor(governor, u, v).1;
    }

    /// Writes the merge of `governor`'s ID-sorted messages in `u` and `v`
    /// into its part of `merged` (on equal IDs `u`'s message first) and
    /// appends its content runs and classes. Returns whether an ID occurs in
    /// both, and where the runs and classes went.
    fn merge_governor(
        &mut self,
        governor: usize,
        u: &MessageStore,
        v: &MessageStore,
    ) -> (bool, Span) {
        let (a, b) = (u.messages_for(governor), v.messages_for(governor));
        let out = &mut self.merged[self.bounds[governor]..self.bounds[governor + 1]];
        debug_assert_eq!(out.len(), a.len() + b.len());
        let mut runs = RunCounter::new(&mut self.runs, &mut self.classes);
        let (mut i, mut j) = (0, 0);
        let mut shared = false;
        loop {
            let Some(&next) = b.get(j) else {
                i += runs.copy_while(&mut out[i + j..], i + j, &a[i..], |_| true);
                break;
            };
            // `u`'s messages up to `v`'s next ID: in packed words, those at
            // most that ID with every content bit set.
            let limit = next.word() | MAX_CONTENT;
            i += runs.copy_while(&mut out[i + j..], i + j, &a[i..], |word| word <= limit);
            // An ID in both stores was just copied from `u`.
            shared |= i > 0 && a[i - 1].id() == next.id();
            let Some(&next) = a.get(i) else {
                j += runs.copy_while(&mut out[i + j..], i + j, &b[j..], |_| true);
                break;
            };
            // `v`'s messages below `u`'s next ID.
            let limit = next.word() & !MAX_CONTENT;
            j += runs.copy_while(&mut out[i + j..], i + j, &b[j..], |word| word < limit);
        }
        debug_assert_eq!((i, j), (a.len(), b.len()));
        (shared, runs.finish(out.len()))
    }

    /// Protocol 14 from the recorded runs: rebuilds `u` and `v` from the
    /// merged messages, one run of equal content at a time.
    fn route(&mut self, u: &mut MessageStore, v: &mut MessageStore) {
        // Each class's smaller half goes to whichever agent holds more so
        // far, so neither ends up with more than half (rounded up) of all.
        let half = self.bounds.last().map_or(0, |total| total.div_ceil(2));
        let (mut u_out, mut v_out) = (u.begin_rebuild(half), v.begin_rebuild(half));
        let (mut u_assigned, mut v_assigned) = (0usize, 0usize);
        for (governor, span) in self.spans.iter().enumerate() {
            let classes = &mut self.classes[span.classes.clone()];
            self.order.clear();
            self.order.extend(0..classes.len() as u32);
            self.order
                .sort_unstable_by_key(|&class| classes[class as usize].content);
            for &class in &self.order {
                let class = &mut classes[class as usize];
                class.floor_left = class.len / 2;
                class.floor_to_u = u_assigned > v_assigned;
                let ceil = class.len - class.floor_left;
                if class.floor_to_u {
                    u_assigned += class.floor_left;
                    v_assigned += ceil;
                } else {
                    v_assigned += class.floor_left;
                    u_assigned += ceil;
                }
            }
            let merged = &self.merged[self.bounds[governor]..self.bounds[governor + 1]];
            // The pieces since `piece_start` all go to one store (`u` when
            // `piece_to_u`); they are copied together when the store changes.
            let (mut piece_start, mut piece_to_u) = (0, true);
            let mut send = |at: usize, to_u: bool| {
                if to_u != piece_to_u {
                    let out = if piece_to_u { &mut u_out } else { &mut v_out };
                    out.extend(&merged[piece_start..at]);
                    (piece_start, piece_to_u) = (at, to_u);
                }
            };
            let mut start = 0;
            for run in &self.runs[span.runs.clone()] {
                let end = run.end as usize;
                let class = &mut classes[run.class as usize];
                let floor = class.floor_left.min(end - start);
                class.floor_left -= floor;
                if floor > 0 {
                    send(start, class.floor_to_u);
                }
                if start + floor < end {
                    send(start + floor, !class.floor_to_u);
                }
                start = end;
            }
            let out = if piece_to_u { &mut u_out } else { &mut v_out };
            out.extend(&merged[piece_start..]);
            u_out.close(governor);
            v_out.close(governor);
        }
        u_out.end();
        v_out.end();
    }
}

/// Records one governor's content runs and classes while its messages are
/// merged.
struct RunCounter<'s> {
    runs: &'s mut Vec<ContentRun>,
    classes: &'s mut Vec<ContentClass>,
    /// Where the governor's runs and classes begin in the two buffers.
    first_run: usize,
    first_class: usize,
    /// Where the current run starts, its content (`u64::MAX`, which no
    /// message has, before the first run) and its class.
    start: usize,
    content: u64,
    class: usize,
    /// The class of the run before, tried first for the next run: runs of
    /// two contents often alternate.
    hint: usize,
}

impl<'s> RunCounter<'s> {
    fn new(runs: &'s mut Vec<ContentRun>, classes: &'s mut Vec<ContentClass>) -> Self {
        let (first_run, first_class) = (runs.len(), classes.len());
        RunCounter {
            runs,
            classes,
            first_run,
            first_class,
            start: 0,
            content: u64::MAX,
            class: 0,
            hint: 0,
        }
    }

    /// Copies the leading messages of `from` whose packed words `keep`
    /// accepts to the front of `out`, which starts `at` messages into the
    /// governor's merge, noting every change of content. Returns how many
    /// were copied.
    fn copy_while(
        &mut self,
        out: &mut [Message],
        at: usize,
        from: &[Message],
        keep: impl Fn(u64) -> bool,
    ) -> usize {
        let mut copied = 0;
        for (slot, &msg) in out.iter_mut().zip(from) {
            if !keep(msg.word()) {
                break;
            }
            *slot = msg;
            if msg.content() != self.content {
                self.new_run(at + copied, msg.content());
            }
            copied += 1;
        }
        copied
    }

    /// Ends the current run (if any) at `at`, where a run of `content`
    /// begins.
    fn new_run(&mut self, at: usize, content: u64) {
        if at > 0 {
            self.close(at);
        }
        let classes = &self.classes[self.first_class..];
        let found = if classes.get(self.hint).is_some_and(|c| c.content == content) {
            Some(self.hint)
        } else {
            classes.iter().position(|c| c.content == content)
        };
        let class = found.unwrap_or_else(|| {
            self.classes.push(ContentClass {
                content,
                len: 0,
                floor_left: 0,
                floor_to_u: false,
            });
            self.classes.len() - 1 - self.first_class
        });
        (self.start, self.content) = (at, content);
        (self.hint, self.class) = (self.class, class);
    }

    fn close(&mut self, end: usize) {
        self.runs.push(ContentRun {
            end: end as u32,
            class: self.class as u32,
        });
        self.classes[self.first_class + self.class].len += end - self.start;
    }

    /// Ends the last run at `len`, the governor's merged length.
    fn finish(mut self, len: usize) -> Span {
        if len > 0 {
            self.close(len);
        }
        Span {
            runs: self.first_run..self.runs.len(),
            classes: self.first_class..self.classes.len(),
        }
    }
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
            let msg = u_state.msgs.messages_for(governor)[0];
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
            let msg = v_state.msgs.messages_for(governor)[0];
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
        // After one warm-up step, further steps on the same pair (signature
        // refreshes included) keep both stores' buffers and the scratch.
        let (params, partition) = setup(64, 16);
        let mut u = initial_state(&params, &partition, 1);
        let mut v = initial_state(&params, &partition, 2);
        let buffers = |u: &DetectCollisionState, v: &DetectCollisionState| {
            let scratch = SCRATCH.with(|s| {
                let s = s.borrow();
                (
                    s.merged.as_ptr(),
                    s.bounds.as_ptr(),
                    s.spans.as_ptr(),
                    s.runs.as_ptr(),
                    s.classes.as_ptr(),
                    s.order.as_ptr(),
                )
            });
            let stores = (
                active(u).msgs.messages_for(0).as_ptr(),
                active(v).msgs.messages_for(0).as_ptr(),
            );
            (scratch, stores)
        };
        run_interaction(&params, &partition, 1, &mut u, 2, &mut v, 0);
        let warm = buffers(&u, &v);
        let period = params.signature_period(partition.group_size_of(1));
        for seed in 1..=u64::from(2 * period) {
            run_interaction(&params, &partition, 1, &mut u, 2, &mut v, seed);
            assert!(!u.is_error() && !v.is_error());
            assert_eq!(buffers(&u, &v), warm, "step {seed} reallocated");
        }
        assert_ne!(active(&u).signature, INITIAL_CONTENT, "a refresh ran");
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
