//! The `DetectCollision_r` kernel against a plain transcription of the
//! paper's Protocols 3 and 12–14: on random same-group pairs of warmed
//! groups — plain steps, forced signature refreshes, contents of many classes,
//! planted duplicates, inconsistent contents, equal ranks, `⊤` partners and
//! cross-group pairs, a governor held by one agent only, one message held
//! by both agents under different contents, stores in which every message
//! has a content of its own — the kernel must leave both states exactly as
//! the transcription does and draw exactly as much randomness. One group is
//! warmed long enough to fragment its stores into many content runs, some of
//! which span both agents' messages.
//!
//! Message stores and observations are copy-on-write payloads shared between
//! clones, so the file also checks that stepping clones leaves the originals
//! untouched and that no cached payload hash goes stale.

use ppsim::{InteractionCtx, Protocol, SimRng, WordHash};
use proptest::prelude::*;
use rand::RngCore;
use ssle_core::groups::GroupPartition;
use ssle_core::params::Params;
use ssle_core::verify::{
    balance_load, detect_collision, initial_state, CollisionState, DetectCollisionState, Message,
    MessageStore, Observations, MAX_CONTENT,
};
use ssle_core::{AgentState, ElectLeader};
use std::hash::BuildHasher;
use std::sync::OnceLock;

/// `(n, r, rounds)` of the warmed groups: their first groups have sizes 4,
/// 7, 16, 64 and 16, and each agent refreshes its signature about `rounds`
/// times. The last group runs long enough to fragment its stores.
const SETUPS: [(usize, usize, usize); 5] = [
    (16, 4, 1),
    (40, 7, 1),
    (64, 16, 1),
    (256, 64, 1),
    (64, 16, 4),
];

/// The group size of each setup's first group.
const GROUP_SIZES: [usize; 5] = [4, 7, 16, 64, 16];

/// Protocol 3, written out step by step.
fn reference_detect_collision(
    params: &Params,
    partition: &GroupPartition,
    u_rank: u32,
    u_dc: &mut DetectCollisionState,
    v_rank: u32,
    v_dc: &mut DetectCollisionState,
    ctx: &mut InteractionCtx<'_>,
) {
    if !partition.same_group(u_rank, v_rank) {
        return;
    }
    let (DetectCollisionState::Active(u), DetectCollisionState::Active(v)) =
        (&mut *u_dc, &mut *v_dc)
    else {
        return;
    };
    let error = u_rank == v_rank
        || shares_a_message(u, v)
        || inconsistent(partition, u_rank, u, v)
        || inconsistent(partition, v_rank, v, u);
    if error {
        *u_dc = DetectCollisionState::Error;
        *v_dc = DetectCollisionState::Error;
        return;
    }
    update(params, partition, u_rank, u, v, ctx);
    update(params, partition, v_rank, v, u, ctx);
    balance(u, v);
}

/// Protocol 3, line 3: both agents hold a copy of one `(governor, ID)`.
fn shares_a_message(u: &CollisionState, v: &CollisionState) -> bool {
    (0..u.msgs.group_size()).any(|g| {
        u.msgs
            .messages_for(g)
            .any(|msg| v.msgs.content(g, msg.id()).is_some())
    })
}

/// Protocol 12: `other` holds a message of `owner`'s that `owner` never wrote.
fn inconsistent(
    partition: &GroupPartition,
    owner_rank: u32,
    owner: &CollisionState,
    other: &CollisionState,
) -> bool {
    let g = partition.position_in_group(owner_rank);
    other
        .msgs
        .messages_for(g)
        .any(|msg| msg.content() != owner.observations.get(msg.id()))
}

/// Protocol 13: tick the counter (drawing a fresh signature when it expires)
/// and stamp the signature on the owner's messages held by either agent.
fn update(
    params: &Params,
    partition: &GroupPartition,
    owner_rank: u32,
    owner: &mut CollisionState,
    other: &mut CollisionState,
    ctx: &mut InteractionCtx<'_>,
) {
    let m = partition.group_size_of(owner_rank);
    let g = partition.position_in_group(owner_rank);
    owner.counter = owner.counter.saturating_add(1);
    if owner.counter >= params.signature_period(m) {
        owner.signature = 1 + ctx.sample_below(params.signature_space(m));
        owner.counter = 1;
        let held: Vec<u32> = owner.msgs.messages_for(g).map(|msg| msg.id()).collect();
        for id in held {
            owner.msgs.insert(g, id, owner.signature);
            owner.observations.set(id, owner.signature);
        }
    }
    let held: Vec<u32> = other.msgs.messages_for(g).map(|msg| msg.id()).collect();
    for id in held {
        other.msgs.insert(g, id, owner.signature);
        owner.observations.set(id, owner.signature);
    }
}

/// Protocol 14: per governor, sort both agents' messages by (content, ID),
/// split every content class in halves, hand the smaller half to the agent
/// holding more so far, and re-sort each agent's share by ID.
fn balance(u: &mut CollisionState, v: &mut CollisionState) {
    let (m, ids) = (u.msgs.group_size(), u.msgs.ids_per_rank());
    let mut shares: [(Vec<Vec<Message>>, usize); 2] =
        [(vec![Vec::new(); m], 0), (vec![Vec::new(); m], 0)];
    for g in 0..m {
        let mut pool: Vec<Message> = u.msgs.messages_for(g).collect();
        pool.extend(v.msgs.messages_for(g));
        pool.sort_by_key(|msg| (msg.content(), msg.id()));
        for class in pool.chunk_by(|a, b| a.content() == b.content()) {
            let (floor, ceil) = class.split_at(class.len() / 2);
            let smaller = if shares[0].1 > shares[1].1 { 0 } else { 1 };
            for (agent, half) in [(smaller, floor), (1 - smaller, ceil)] {
                shares[agent].0[g].extend_from_slice(half);
                shares[agent].1 += half.len();
            }
        }
    }
    for (state, (share, _)) in [u, v].into_iter().zip(shares) {
        let mut store = MessageStore::empty(m, ids);
        for (g, mut messages) in share.into_iter().enumerate() {
            messages.sort_by_key(|msg| msg.id());
            for msg in messages {
                store.insert(g, msg.id(), msg.content());
            }
        }
        state.msgs = store;
    }
}

/// The first group of `ElectLeader_r(n, r)` after enough kernel steps for
/// every agent to refresh its signature a few times.
struct Warmed {
    params: Params,
    partition: GroupPartition,
    ranks: Vec<u32>,
    states: Vec<DetectCollisionState>,
}

fn distinct_pair(rng: &mut SimRng, m: usize) -> (usize, usize) {
    let i = (rng.next_u64() % m as u64) as usize;
    let j = (rng.next_u64() % (m as u64 - 1)) as usize;
    (i, if j >= i { j + 1 } else { j })
}

fn warm(n: usize, r: usize, rounds: usize) -> Warmed {
    let params = Params::new(n, r).unwrap();
    let partition = GroupPartition::new(&params);
    let ranks: Vec<u32> = partition.ranks_in(0).collect();
    let m = ranks.len();
    let mut states: Vec<DetectCollisionState> = ranks
        .iter()
        .map(|&rank| initial_state(&params, &partition, rank))
        .collect();
    let mut rng = SimRng::seed_from_u64(n as u64);
    for step in 0..rounds * m * params.signature_period(m) as usize {
        let (i, j) = distinct_pair(&mut rng, m);
        let (mut a, mut b) = (states[i].clone(), states[j].clone());
        let mut ctx = InteractionCtx::new(&mut rng, step as u64);
        detect_collision(
            &params, &partition, ranks[i], &mut a, ranks[j], &mut b, &mut ctx,
        );
        assert!(!a.is_error() && !b.is_error(), "warm-up raised ⊤");
        (states[i], states[j]) = (a, b);
    }
    Warmed {
        params,
        partition,
        ranks,
        states,
    }
}

fn warmed() -> &'static [Warmed] {
    static WARMED: OnceLock<Vec<Warmed>> = OnceLock::new();
    WARMED.get_or_init(|| {
        SETUPS
            .iter()
            .map(|&(n, r, rounds)| warm(n, r, rounds))
            .collect()
    })
}

fn active(dc: &mut DetectCollisionState) -> &mut CollisionState {
    dc.active_mut().expect("warmed states are active")
}

/// Rewrites to a fresh random content about half of the messages `state`
/// holds of every governor except `skip`, as an adversary might. Contents
/// span the whole range `1..=MAX_CONTENT`.
fn scramble(state: &mut CollisionState, skip: [usize; 2], rng: &mut SimRng) {
    for g in (0..state.msgs.group_size()).filter(|g| !skip.contains(g)) {
        state.msgs.rewrite(g, |msg| {
            if rng.next_u32() % 2 == 0 {
                1 + rng.next_u64() % MAX_CONTENT
            } else {
                msg.content()
            }
        });
    }
}

#[test]
fn warmed_groups_have_the_sizes_and_content_classes_under_test() {
    for (w, m) in warmed().iter().zip(GROUP_SIZES) {
        assert_eq!(w.ranks.len(), m);
        let most = w
            .states
            .iter()
            .map(|s| {
                let msgs = &s.active().unwrap().msgs;
                let mut contents: Vec<u64> = (0..m)
                    .flat_map(|g| msgs.messages_for(g).map(|msg| msg.content()))
                    .collect();
                contents.sort_unstable();
                contents.dedup();
                contents.len()
            })
            .max()
            .unwrap();
        assert!(most > 2, "m = {m}: at most {most} contents per store");
    }
}

/// The maximal runs of equal content when governor `g`'s messages of `u`
/// and `v` are merged by ID, each as `(holds u's, holds v's)`.
fn merged_content_runs(u: &CollisionState, v: &CollisionState, g: usize) -> Vec<(bool, bool)> {
    let mut pool: Vec<(u32, u64, bool)> = Vec::new();
    for (s, from_u) in [(u, true), (v, false)] {
        let held = s.msgs.messages_for(g);
        pool.extend(held.map(|msg| (msg.id(), msg.content(), from_u)));
    }
    pool.sort_unstable();
    pool.chunk_by(|a, b| a.1 == b.1)
        .map(|run| (run.iter().any(|x| x.2), run.iter().any(|x| !x.2)))
        .collect()
}

/// The long-warmed group gives the kernel what a long simulation does: a
/// pair's merged governor falls into many content runs (a governor has only
/// a few content classes), and a run may span both agents' messages.
#[test]
fn the_long_warmed_group_has_fragmented_stores() {
    let w = &warmed()[SETUPS.len() - 1];
    let m = w.ranks.len();
    let (mut most, mut spanning) = (0, 0);
    for i in 0..m {
        for j in i + 1..m {
            let (u, v) = (w.states[i].active().unwrap(), w.states[j].active().unwrap());
            for g in 0..m {
                let runs = merged_content_runs(u, v, g);
                most = most.max(runs.len());
                spanning += runs
                    .iter()
                    .filter(|&&(from_u, from_v)| from_u && from_v)
                    .count();
            }
        }
    }
    // Of the 4m messages a pair holds per governor.
    assert!(
        most >= 2 * m,
        "at most {most} content runs in a merged governor"
    );
    assert!(spanning > 0, "no content run spans both agents' messages");
}

proptest! {
    #[test]
    fn kernel_matches_the_protocol_transcription(
        setup in 0usize..SETUPS.len(),
        pair in any::<u64>(),
        case in 0u32..9,
        seed in any::<u64>(),
    ) {
        let w = &warmed()[setup];
        let m = w.ranks.len();
        let mut pick = SimRng::seed_from_u64(pair);
        let (i, j) = distinct_pair(&mut pick, m);
        let (mut u_rank, mut v_rank) = (w.ranks[i], w.ranks[j]);
        let (mut u, mut v) = (w.states[i].clone(), w.states[j].clone());
        let (gu, gv) = (i, j);
        let period = w.params.signature_period(m);
        match case {
            // 0: a plain step.
            1 => {
                // Both signatures expire now: two fresh draws.
                active(&mut u).counter = period - 1;
                active(&mut v).counter = period - 1;
            }
            2 => {
                // Many content classes in the governors being balanced.
                scramble(active(&mut u), [gu, gv], &mut pick);
                scramble(active(&mut v), [gu, gv], &mut pick);
            }
            3 => {
                // A planted copy of one of u's messages in v's store.
                let g = (pick.next_u64() % m as u64) as usize;
                let held: Vec<Message> = active(&mut u).msgs.messages_for(g).collect();
                let msg = held[(pick.next_u64() % held.len() as u64) as usize];
                active(&mut v).msgs.insert(g, msg.id(), msg.content());
            }
            4 => {
                // v holds one of u's messages with a content u never wrote:
                // its `k`-th by ID.
                let msgs = &mut active(&mut v).msgs;
                let k = pick.next_u64() % msgs.count_for(gu) as u64;
                let mut at = 0;
                msgs.rewrite(gu, |msg| {
                    at += 1;
                    msg.content() + u64::from(at - 1 == k)
                });
            }
            5 => v_rank = u_rank,
            6 => v = DetectCollisionState::Error,
            8 => {
                // One agent hands all its messages of one governor to the
                // other, which then holds the governor's whole merge.
                let g = (pick.next_u64() % m as u64) as usize;
                let (from, to) = if pick.next_u32() % 2 == 0 {
                    (&mut u, &mut v)
                } else {
                    (&mut v, &mut u)
                };
                let (from, to) = (active(from), active(to));
                for msg in from.msgs.messages_for(g).collect::<Vec<_>>() {
                    from.msgs.remove(g, msg.id());
                    to.msgs.insert(g, msg.id(), msg.content());
                }
                prop_assert_eq!(from.msgs.count_for(g), 0);
            }
            _ => u_rank = w.partition.ranks_in(1).next().unwrap(),
        }
        let (mut ref_u, mut ref_v) = (u.clone(), v.clone());
        if case != 3 {
            if let (Some(a), Some(b)) = (u.active(), v.active()) {
                // The public balancer alone agrees with Protocol 14 too.
                let (mut a, mut b, mut ra, mut rb) = (a.clone(), b.clone(), a.clone(), b.clone());
                balance_load(&mut a, &mut b, m);
                balance(&mut ra, &mut rb);
                prop_assert!(a == ra && b == rb, "balance_load differs: m {m}, case {case}");
            }
        }
        let mut kernel_rng = SimRng::seed_from_u64(seed);
        let mut reference_rng = SimRng::seed_from_u64(seed);
        detect_collision(
            &w.params, &w.partition, u_rank, &mut u, v_rank, &mut v,
            &mut InteractionCtx::new(&mut kernel_rng, 0),
        );
        reference_detect_collision(
            &w.params, &w.partition, u_rank, &mut ref_u, v_rank, &mut ref_v,
            &mut InteractionCtx::new(&mut reference_rng, 0),
        );
        prop_assert!(u == ref_u && v == ref_v, "states differ: m {m}, pair ({i}, {j}), case {case}");
        prop_assert_eq!(kernel_rng.next_u64(), reference_rng.next_u64());
        let expect_error = matches!(case, 3..=6);
        prop_assert_eq!(u.is_error() || v.is_error(), expect_error, "case {}", case);
    }
}

/// Runs one step of the kernel and of the transcription on clones of
/// `(u, v)` from the same seed, checks that they agree, and returns the
/// kernel's result.
fn step_both(
    w: &Warmed,
    (u_rank, v_rank): (u32, u32),
    (u, v): (&DetectCollisionState, &DetectCollisionState),
    seed: u64,
) -> (DetectCollisionState, DetectCollisionState) {
    let (mut u, mut v) = (u.clone(), v.clone());
    let (mut ref_u, mut ref_v) = (u.clone(), v.clone());
    let mut kernel_rng = SimRng::seed_from_u64(seed);
    let mut reference_rng = SimRng::seed_from_u64(seed);
    detect_collision(
        &w.params,
        &w.partition,
        u_rank,
        &mut u,
        v_rank,
        &mut v,
        &mut InteractionCtx::new(&mut kernel_rng, 0),
    );
    reference_detect_collision(
        &w.params,
        &w.partition,
        u_rank,
        &mut ref_u,
        v_rank,
        &mut ref_v,
        &mut InteractionCtx::new(&mut reference_rng, 0),
    );
    assert!(u == ref_u && v == ref_v, "kernel and transcription differ");
    assert_eq!(kernel_rng.next_u64(), reference_rng.next_u64());
    (u, v)
}

/// Protocol 3 sees a `(governor, ID)` pair held by both agents even when
/// they hold it under different contents, in a governor neither owns (so
/// Protocol 12 cannot catch it): both agents go to `⊤`.
#[test]
fn a_message_held_under_two_contents_is_a_collision() {
    for w in warmed() {
        let m = w.ranks.len();
        let mut pick = SimRng::seed_from_u64(0xD0 ^ m as u64);
        for case in 0..8 {
            let (i, j) = distinct_pair(&mut pick, m);
            let g = (0..m).find(|g| ![i, j].contains(g)).expect("m ≥ 3");
            let (u, mut v) = (w.states[i].clone(), w.states[j].clone());
            let held: Vec<Message> = u.active().unwrap().msgs.messages_for(g).collect();
            let msg = held[(pick.next_u64() % held.len() as u64) as usize];
            // Under a content v already holds for `g`, if it holds another.
            let msgs = &mut active(&mut v).msgs;
            let content = msgs
                .classes_for(g)
                .map(|(content, _)| content)
                .find(|&content| content != msg.content())
                .unwrap_or(msg.content() + 1);
            msgs.insert(g, msg.id(), content);
            let ranks = (w.ranks[i], w.ranks[j]);
            let (u, v) = step_both(w, ranks, (&u, &v), case);
            assert!(u.is_error() && v.is_error(), "m {m}, case {case}");
        }
    }
}

/// A store in which every message has a content of its own, as after
/// `corrupt_message_system`, holds one class per message, 16 bytes each. It
/// round-trips through `insert`, `remove` and `messages_for`, and the kernel
/// steps such stores as the transcription does.
#[test]
fn a_store_of_distinct_contents_round_trips() {
    let (m, ids) = (5, 50);
    let mut rng = SimRng::seed_from_u64(0x5EED);
    let mut expected: Vec<(usize, u32, u64)> = Vec::new();
    let mut content = 0;
    for g in 0..m {
        for id in 1..=ids {
            if rng.next_u32() % 2 == 0 {
                content += 1 + rng.next_u64() % 1000;
                expected.push((g, id, content));
            }
        }
    }
    // Inserted in a random order.
    let mut order = expected.clone();
    for k in (1..order.len()).rev() {
        order.swap(k, (rng.next_u64() % (k as u64 + 1)) as usize);
    }
    let mut store = MessageStore::empty(m, ids);
    for &(g, id, content) in &order {
        store.insert(g, id, content);
    }
    let held = |store: &MessageStore| {
        let mut held: Vec<(usize, u32, u64)> = (0..m)
            .flat_map(|g| {
                store
                    .messages_for(g)
                    .map(move |msg| (g, msg.id(), msg.content()))
            })
            .collect();
        held.sort_unstable();
        held
    };
    assert_eq!(held(&store), expected);
    assert_eq!(store.class_count(), expected.len());
    assert_eq!(store.payload_bytes(), 16 * expected.len());
    // Removing every other message leaves the store built from the rest.
    let mut rest = MessageStore::empty(m, ids);
    for (k, &(g, id, content)) in order.iter().enumerate() {
        if k % 2 == 0 {
            assert_eq!(store.remove(g, id), Some(content));
            assert_eq!(store.content(g, id), None);
        } else {
            rest.insert(g, id, content);
        }
    }
    assert_eq!(store, rest);
    assert_eq!(store.class_count(), store.total());

    // Every message outside the two owners' governors gets a content of its
    // own, then one step.
    for w in warmed() {
        let m = w.ranks.len();
        let (mut u, mut v) = (w.states[0].clone(), w.states[1].clone());
        let mut next = MAX_CONTENT;
        for state in [&mut u, &mut v] {
            let msgs = &mut active(state).msgs;
            for g in 2..m {
                msgs.rewrite(g, |_| {
                    next -= 1;
                    next
                });
            }
            let owned: usize = (0..2).map(|g| msgs.classes_for(g).count()).sum();
            assert_eq!(
                msgs.class_count(),
                owned + (2..m).map(|g| msgs.count_for(g)).sum::<usize>()
            );
        }
        let (u, v) = step_both(w, (w.ranks[0], w.ranks[1]), (&u, &v), m as u64);
        assert!(!u.is_error() && !v.is_error(), "m {m}");
    }
}

/// A copy of `dc` rebuilt message by message and observation by observation:
/// it shares no allocation with `dc`, so comparing against it compares every
/// value and hashing it computes every hash afresh.
fn deep_copy(dc: &DetectCollisionState) -> DetectCollisionState {
    let Some(s) = dc.active() else {
        return DetectCollisionState::Error;
    };
    let (m, ids) = (s.msgs.group_size(), s.msgs.ids_per_rank());
    let mut msgs = MessageStore::empty(m, ids);
    for g in 0..m {
        for msg in s.msgs.messages_for(g) {
            msgs.insert(g, msg.id(), msg.content());
        }
    }
    let mut observations = Observations::initial(ids);
    for id in 1..=ids {
        observations.set(id, s.observations.get(id));
    }
    DetectCollisionState::Active(CollisionState {
        signature: s.signature,
        counter: s.counter,
        msgs,
        observations,
    })
}

/// [`deep_copy`] of a whole `ElectLeader_r` state.
fn deep_copy_agent(state: &AgentState) -> AgentState {
    let mut copy = state.clone();
    if let AgentState::Verifying(agent) = &mut copy {
        agent.sv.dc = deep_copy(&agent.sv.dc);
    }
    copy
}

/// The hash the dynamic state indexer keys its table with.
fn indexer_hash<T: std::hash::Hash>(value: &T) -> u64 {
    WordHash.hash_one(value)
}

/// `state` has the hash of a copy that shares nothing with it: its cached
/// payload hashes are current.
fn assert_hash_is_fresh(state: &AgentState, what: &str) {
    assert_eq!(
        indexer_hash(state),
        indexer_hash(&deep_copy_agent(state)),
        "{what}: stale cached hash"
    );
}

/// A verifier of `protocol` with rank `rank` and collision state `dc`.
fn verifier(protocol: &ElectLeader, rank: u32, dc: &DetectCollisionState) -> AgentState {
    let mut state = protocol.verifier_state(rank);
    if let AgentState::Verifying(agent) = &mut state {
        agent.sv.dc = dc.clone();
    }
    state
}

/// Steps *clones* of warmed same-group pairs — through `detect_collision`
/// (plain and with both signatures expiring), `balance_load`, and
/// `ElectLeader::interact` (with a forced signature refresh, and against a
/// `⊤` partner) — while the originals stay alive and share their payloads.
/// The originals must still equal snapshots rebuilt from scratch, and every
/// state involved must hash like its deep copy.
#[test]
fn stepping_clones_leaves_the_originals_untouched() {
    for (w, &(n, r, _)) in warmed().iter().zip(SETUPS.iter()) {
        let protocol = ElectLeader::with_n_r(n, r).unwrap();
        let m = w.ranks.len();
        let period = w.params.signature_period(m);
        let mut pick = SimRng::seed_from_u64(0xC0 ^ m as u64);
        for case in 0..5 {
            let (i, j) = distinct_pair(&mut pick, m);
            let (u_rank, v_rank) = (w.ranks[i], w.ranks[j]);
            let originals = [
                verifier(&protocol, u_rank, &w.states[i]),
                verifier(&protocol, v_rank, &w.states[j]),
            ];
            let snapshots = originals.clone().map(|s| deep_copy_agent(&s));
            // Cache the shared payloads' hashes before any clone is written.
            for state in &originals {
                assert_hash_is_fresh(state, "original");
            }
            let [mut u, mut v] = originals.clone();
            let mut rng = SimRng::seed_from_u64(case as u64);
            let mut ctx = InteractionCtx::new(&mut rng, 0);
            match case {
                0 | 1 => {
                    let (AgentState::Verifying(a), AgentState::Verifying(b)) = (&mut u, &mut v)
                    else {
                        unreachable!("verifiers")
                    };
                    if case == 1 {
                        active(&mut a.sv.dc).counter = period - 1;
                        active(&mut b.sv.dc).counter = period - 1;
                    }
                    detect_collision(
                        &w.params,
                        &w.partition,
                        u_rank,
                        &mut a.sv.dc,
                        v_rank,
                        &mut b.sv.dc,
                        &mut ctx,
                    );
                    assert!(!a.sv.dc.is_error() && !b.sv.dc.is_error());
                }
                2 => {
                    let (AgentState::Verifying(a), AgentState::Verifying(b)) = (&mut u, &mut v)
                    else {
                        unreachable!("verifiers")
                    };
                    balance_load(active(&mut a.sv.dc), active(&mut b.sv.dc), m);
                }
                3 => {
                    for state in [&mut u, &mut v] {
                        if let AgentState::Verifying(agent) = state {
                            active(&mut agent.sv.dc).counter = period - 1;
                        }
                    }
                    protocol.interact(&mut u, &mut v, &mut ctx);
                }
                _ => {
                    if let AgentState::Verifying(agent) = &mut v {
                        agent.sv.dc = DetectCollisionState::Error;
                    }
                    protocol.interact(&mut u, &mut v, &mut ctx);
                }
            }
            // (A balancing step may find the pair balanced already.)
            assert!(
                case == 2 || (u != originals[0] && v != originals[1]),
                "m {m}, case {case}: the step wrote both clones"
            );
            assert!(
                originals == snapshots,
                "m {m}, case {case}: stepping clones changed the originals"
            );
            for (state, what) in [(&originals[0], "original u"), (&originals[1], "original v")] {
                assert_hash_is_fresh(state, what);
            }
            for (state, what) in [(&u, "stepped u"), (&v, "stepped v")] {
                assert_hash_is_fresh(state, what);
            }
        }
    }
}

/// Every mutating entry point clears the cached hash of a payload it writes
/// in place: hash, mutate, hash, restore, hash — each hash must equal that
/// of a copy rebuilt from scratch, and restoring must restore the hash.
#[test]
fn mutation_never_leaves_a_stale_hash() {
    for w in warmed() {
        let m = w.ranks.len();
        let (gu, gv) = (0, 1);
        let base = deep_copy(&w.states[0]);
        let fresh = |dc: &DetectCollisionState| indexer_hash(&deep_copy(dc));
        let before = indexer_hash(&base);
        assert_eq!(before, fresh(&base));
        let mut held: Vec<Message> = base.active().unwrap().msgs.messages_for(0).collect();
        let first = held[0];
        let observations = &base.active().unwrap().observations;
        let observed: Vec<u64> = (1..=observations.len() as u32)
            .map(|id| observations.get(id))
            .collect();
        // By ID, to look contents up when undoing the stamp.
        held.sort_unstable();
        type Edit = Box<dyn Fn(&mut CollisionState, bool)>;
        let edits: [(&str, Edit); 6] = [
            (
                "rewrite",
                Box::new(move |s, undo| {
                    s.msgs
                        .rewrite(0, |msg| match (msg.id() == first.id(), undo) {
                            (false, _) => msg.content(),
                            (true, false) => msg.content() + 1,
                            (true, true) => msg.content() - 1,
                        });
                }),
            ),
            (
                "stamp",
                Box::new(move |s, undo| {
                    if undo {
                        s.msgs.rewrite(0, |msg| {
                            let at = held.binary_search_by_key(&msg.id(), |m| m.id());
                            held[at.expect("held before")].content()
                        });
                    } else {
                        s.msgs.stamp(0, MAX_CONTENT);
                    }
                }),
            ),
            (
                "insert",
                Box::new(move |s, undo| {
                    let content = if undo {
                        first.content()
                    } else {
                        first.content() + 1
                    };
                    s.msgs.insert(0, first.id(), content);
                }),
            ),
            (
                "remove",
                Box::new(move |s, undo| {
                    if undo {
                        s.msgs.insert(0, first.id(), first.content());
                    } else {
                        assert_eq!(s.msgs.remove(0, first.id()), Some(first.content()));
                    }
                }),
            ),
            (
                "observations.set",
                Box::new(|s, undo| {
                    let value = s.observations.get(1);
                    s.observations
                        .set(1, if undo { value - 1 } else { value + 1 });
                }),
            ),
            (
                "observations.record",
                Box::new(move |s, undo| {
                    if undo {
                        for (id, &value) in (1..).zip(&observed) {
                            s.observations.set(id, value);
                        }
                    } else {
                        let ids: Vec<u32> = (1..=observed.len() as u32).collect();
                        s.observations.record(&ids, MAX_CONTENT);
                    }
                }),
            ),
        ];
        for (what, edit) in edits {
            let mut state = base.clone();
            edit(active(&mut state), false);
            let mutated = indexer_hash(&state);
            assert_eq!(
                mutated,
                fresh(&state),
                "m {m}, {what}: stale after the edit"
            );
            assert_ne!(mutated, before, "m {m}, {what}: the edit changed the value");
            edit(active(&mut state), true);
            assert!(state == base, "m {m}, {what}: undone");
            assert_eq!(
                indexer_hash(&state),
                before,
                "m {m}, {what}: stale after the undo"
            );
        }

        // The kernel rebuilding unshared stores in place.
        let (mut u, mut v) = (deep_copy(&w.states[gu]), deep_copy(&w.states[gv]));
        let _ = (indexer_hash(&u), indexer_hash(&v));
        let mut rng = SimRng::seed_from_u64(m as u64);
        for step in 0..3 {
            let mut ctx = InteractionCtx::new(&mut rng, step);
            detect_collision(
                &w.params,
                &w.partition,
                w.ranks[gu],
                &mut u,
                w.ranks[gv],
                &mut v,
                &mut ctx,
            );
            assert_eq!(indexer_hash(&u), fresh(&u), "m {m}: stale after a step");
            assert_eq!(indexer_hash(&v), fresh(&v), "m {m}: stale after a step");
        }
    }
}
