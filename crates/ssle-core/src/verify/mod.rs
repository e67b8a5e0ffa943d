//! `StableVerify_r` (Section 5, Protocol 2): collision detection plus the
//! soft-reset / probation machinery.
//!
//! Verifiers continuously run [`detect_collision()`] against same-generation
//! partners. When the error state `⊤` appears, the *probation timer* decides
//! what it means:
//!
//! * probation over (timer = 0) — the system has been quiet for a long time,
//!   so a genuine rank collision would already have been caught; the error is
//!   attributed to a badly initialized message system and only the
//!   collision-detection state is re-initialized (*soft reset*), advancing the
//!   agent's generation counter (mod 6) so that stale messages held by other
//!   agents do not re-enter circulation;
//! * still on probation (timer > 0) — either the run just started (a full
//!   reset is cheap) or an earlier soft reset failed to clear the
//!   inconsistency (which, with high probability, means the collision is
//!   real); a *hard reset* of the whole protocol is triggered.
//!
//! The generation counter spreads through the population like an epidemic:
//! an agent one generation behind (and off probation) adopts the newer
//! generation and soft-resets itself; any other generation mismatch triggers
//! a hard reset.

pub mod detect_collision;
pub mod messages;

use crate::groups::GroupPartition;
use crate::params::Params;
use ppsim::InteractionCtx;
use serde::{Deserialize, Serialize};

pub use detect_collision::{
    balance_load, check_message_consistency, detect_collision, initial_state, update_messages,
    CollisionState, DetectCollisionState,
};
pub use messages::{
    Message, MessageStore, Observations, CLASS_HEADER_BYTES, INITIAL_CONTENT, MAX_CONTENT,
    MAX_GROUP_SIZE, MAX_ID,
};

/// Number of generations counted modulo (the paper fixes 6).
pub const GENERATIONS: u8 = 6;

/// The per-agent state of `StableVerify_r` (Fig. 2): the wrapper fields plus
/// the `DetectCollision_r` state.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct VerifyState {
    /// The soft-reset generation, an element of `Z_6`.
    pub generation: u8,
    /// The probation timer, counting down from `P_max`.
    pub probation_timer: u32,
    /// The `DetectCollision_r` sub-state (`qDC`).
    pub dc: DetectCollisionState,
}

impl VerifyState {
    /// The initial verifier state `q_{0,SV}` for an agent of the given rank:
    /// generation 0, a full probation timer, and `q_{0,DC}`.
    pub fn initial(params: &Params, partition: &GroupPartition, rank: u32) -> Self {
        VerifyState {
            generation: 0,
            probation_timer: params.probation_max(),
            dc: initial_state(params, partition, rank),
        }
    }

    /// Performs a soft reset: advance the generation, re-initialize the
    /// collision-detection state, and restart the probation timer.
    pub fn soft_reset(&mut self, params: &Params, partition: &GroupPartition, rank: u32) {
        self.generation = (self.generation + 1) % GENERATIONS;
        self.dc = initial_state(params, partition, rank);
        self.probation_timer = params.probation_max();
    }

    /// Adopts the partner's generation via the soft-reset epidemic.
    fn adopt_generation(
        &mut self,
        params: &Params,
        partition: &GroupPartition,
        rank: u32,
        generation: u8,
    ) {
        self.generation = generation % GENERATIONS;
        self.dc = initial_state(params, partition, rank);
        self.probation_timer = params.probation_max();
    }
}

/// The wrapper's verdict for one agent after a `StableVerify_r` interaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VerifyVerdict {
    /// Keep computing.
    Continue,
    /// The agent must trigger a full (hard) reset of the whole protocol.
    TriggerReset,
}

/// Protocol 2: one `StableVerify_r` interaction between two verifiers.
///
/// Returns the verdict for `(u, v)`; the caller (the `ElectLeader_r` wrapper)
/// turns [`VerifyVerdict::TriggerReset`] into a `PropagateReset` trigger.
pub fn stable_verify(
    params: &Params,
    partition: &GroupPartition,
    u_rank: u32,
    u: &mut VerifyState,
    v_rank: u32,
    v: &mut VerifyState,
    ctx: &mut InteractionCtx<'_>,
) -> (VerifyVerdict, VerifyVerdict) {
    // Lines 1–2: decrement probation timers.
    u.probation_timer = u.probation_timer.saturating_sub(1);
    v.probation_timer = v.probation_timer.saturating_sub(1);

    // Lines 3–9: same-generation verifiers execute DetectCollision_r.
    if u.generation == v.generation {
        detect_collision(params, partition, u_rank, &mut u.dc, v_rank, &mut v.dc, ctx);
        let u_verdict = react_to_error(params, partition, u_rank, u);
        let v_verdict = react_to_error(params, partition, v_rank, v);
        return (u_verdict, v_verdict);
    }

    // Lines 10–12: adopt a successor generation via the soft-reset epidemic.
    if u.probation_timer == 0 && (u.generation + 1) % GENERATIONS == v.generation {
        let generation = v.generation;
        u.adopt_generation(params, partition, u_rank, generation);
        return (VerifyVerdict::Continue, VerifyVerdict::Continue);
    }
    if v.probation_timer == 0 && (v.generation + 1) % GENERATIONS == u.generation {
        let generation = u.generation;
        v.adopt_generation(params, partition, v_rank, generation);
        return (VerifyVerdict::Continue, VerifyVerdict::Continue);
    }

    // Line 13: generations differ but no soft reset is permissible.
    (VerifyVerdict::TriggerReset, VerifyVerdict::Continue)
}

/// Whether a `StableVerify_r` interaction between the two verifier states is
/// a certain no-op: both probation timers already exhausted, same
/// generation, neither in the error state, and ranks in different groups —
/// then the probation decrements are saturated no-ops, `DetectCollision_r`
/// bails on its cross-group check (Protocol 3, lines 1–2), and no verdict
/// can fire.
///
/// These are exactly the pairs that dominate a *stabilized* configuration
/// (all verifiers, distinct ranks, timers run out), which is what lets the
/// batched engine skip them in bulk. Ranks outside `[1, n]` (possible only
/// in corrupted configurations) are conservatively reported non-silent.
pub fn stable_verify_is_silent(
    partition: &GroupPartition,
    u_rank: u32,
    u: &VerifyState,
    v_rank: u32,
    v: &VerifyState,
) -> bool {
    let n = partition.n() as u32;
    if u_rank < 1 || u_rank > n || v_rank < 1 || v_rank > n {
        return false;
    }
    u.probation_timer == 0
        && v.probation_timer == 0
        && u.generation == v.generation
        && !u.dc.is_error()
        && !v.dc.is_error()
        && !partition.same_group(u_rank, v_rank)
}

/// Whether a `StableVerify_r` interaction between the two verifier states
/// *may* consume scheduler randomness: only the signature refresh of
/// `DetectCollision_r` (Protocol 13, line 3) draws, which requires a
/// same-group, same-generation collision-detection step in which at least
/// one counter is about to reach the signature period.
///
/// The answer is a conservative over-approximation — pairs whose
/// error-detection checks would bail before the refresh are still reported
/// as randomized (costing an exact-support fast path, never correctness).
pub fn stable_verify_may_draw_randomness(
    params: &Params,
    partition: &GroupPartition,
    u_rank: u32,
    u: &VerifyState,
    v_rank: u32,
    v: &VerifyState,
) -> bool {
    if u.generation != v.generation {
        return false;
    }
    let n = partition.n() as u32;
    if u_rank < 1 || u_rank > n || v_rank < 1 || v_rank > n {
        // Out-of-range ranks only arise from corrupted configurations; stay
        // conservative rather than guessing the group structure.
        return true;
    }
    if !partition.same_group(u_rank, v_rank) {
        return false;
    }
    let period = params.signature_period(partition.group_size_of(u_rank));
    [u, v].iter().any(|s| {
        s.dc.active()
            .is_some_and(|c| c.counter.saturating_add(1) >= period)
    })
}

/// Lines 5–8 of Protocol 2: if the agent's collision-detection state is `⊤`,
/// either soft-reset it (off probation) or demand a hard reset (on
/// probation).
fn react_to_error(
    params: &Params,
    partition: &GroupPartition,
    rank: u32,
    state: &mut VerifyState,
) -> VerifyVerdict {
    if !state.dc.is_error() {
        return VerifyVerdict::Continue;
    }
    if state.probation_timer == 0 {
        state.soft_reset(params, partition, rank);
        VerifyVerdict::Continue
    } else {
        VerifyVerdict::TriggerReset
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

    fn interact(
        params: &Params,
        partition: &GroupPartition,
        u_rank: u32,
        u: &mut VerifyState,
        v_rank: u32,
        v: &mut VerifyState,
        seed: u64,
    ) -> (VerifyVerdict, VerifyVerdict) {
        let mut rng = SimRng::seed_from_u64(seed);
        let mut ctx = InteractionCtx::new(&mut rng, 0);
        stable_verify(params, partition, u_rank, u, v_rank, v, &mut ctx)
    }

    #[test]
    fn initial_state_has_generation_zero_and_full_probation() {
        let (params, partition) = setup(16, 4);
        let s = VerifyState::initial(&params, &partition, 5);
        assert_eq!(s.generation, 0);
        assert_eq!(s.probation_timer, params.probation_max());
        assert!(!s.dc.is_error());
    }

    #[test]
    fn probation_timers_decrement_each_interaction() {
        let (params, partition) = setup(16, 4);
        let mut u = VerifyState::initial(&params, &partition, 1);
        let mut v = VerifyState::initial(&params, &partition, 2);
        let before = u.probation_timer;
        let (a, b) = interact(&params, &partition, 1, &mut u, 2, &mut v, 0);
        assert_eq!(a, VerifyVerdict::Continue);
        assert_eq!(b, VerifyVerdict::Continue);
        assert_eq!(u.probation_timer, before - 1);
        assert_eq!(v.probation_timer, before - 1);
    }

    #[test]
    fn rank_collision_on_probation_demands_hard_reset() {
        let (params, partition) = setup(16, 4);
        let mut u = VerifyState::initial(&params, &partition, 3);
        let mut v = VerifyState::initial(&params, &partition, 3);
        let (a, b) = interact(&params, &partition, 3, &mut u, 3, &mut v, 0);
        assert_eq!(a, VerifyVerdict::TriggerReset);
        assert_eq!(b, VerifyVerdict::TriggerReset);
    }

    #[test]
    fn rank_collision_off_probation_soft_resets_and_advances_generation() {
        let (params, partition) = setup(16, 4);
        let mut u = VerifyState::initial(&params, &partition, 3);
        let mut v = VerifyState::initial(&params, &partition, 3);
        u.probation_timer = 1; // becomes 0 after the decrement
        v.probation_timer = 1;
        let (a, b) = interact(&params, &partition, 3, &mut u, 3, &mut v, 0);
        assert_eq!(a, VerifyVerdict::Continue);
        assert_eq!(b, VerifyVerdict::Continue);
        assert_eq!(u.generation, 1);
        assert_eq!(v.generation, 1);
        assert!(!u.dc.is_error());
        assert_eq!(u.probation_timer, params.probation_max());
    }

    #[test]
    fn lagging_generation_is_adopted_when_off_probation() {
        let (params, partition) = setup(16, 4);
        let mut u = VerifyState::initial(&params, &partition, 1);
        let mut v = VerifyState::initial(&params, &partition, 2);
        u.probation_timer = 1;
        v.generation = 1;
        let (a, b) = interact(&params, &partition, 1, &mut u, 2, &mut v, 0);
        assert_eq!((a, b), (VerifyVerdict::Continue, VerifyVerdict::Continue));
        assert_eq!(u.generation, 1);
        assert_eq!(u.probation_timer, params.probation_max());
    }

    #[test]
    fn generation_wraps_modulo_six() {
        let (params, partition) = setup(16, 4);
        let mut u = VerifyState::initial(&params, &partition, 1);
        let mut v = VerifyState::initial(&params, &partition, 2);
        u.generation = 5;
        u.probation_timer = 1;
        v.generation = 0;
        let (a, _) = interact(&params, &partition, 1, &mut u, 2, &mut v, 0);
        assert_eq!(a, VerifyVerdict::Continue);
        assert_eq!(u.generation, 0, "generation 5 adopts successor 0");
    }

    #[test]
    fn lagging_generation_on_probation_triggers_hard_reset() {
        let (params, partition) = setup(16, 4);
        let mut u = VerifyState::initial(&params, &partition, 1);
        let mut v = VerifyState::initial(&params, &partition, 2);
        v.generation = 1; // u lags by one but u is still on probation
        let (a, b) = interact(&params, &partition, 1, &mut u, 2, &mut v, 0);
        assert_eq!(a, VerifyVerdict::TriggerReset);
        assert_eq!(b, VerifyVerdict::Continue);
    }

    #[test]
    fn generation_gap_of_two_triggers_hard_reset_even_off_probation() {
        let (params, partition) = setup(16, 4);
        let mut u = VerifyState::initial(&params, &partition, 1);
        let mut v = VerifyState::initial(&params, &partition, 2);
        u.probation_timer = 1;
        v.probation_timer = 1;
        v.generation = 2;
        let (a, b) = interact(&params, &partition, 1, &mut u, 2, &mut v, 0);
        assert_eq!(a, VerifyVerdict::TriggerReset);
        assert_eq!(b, VerifyVerdict::Continue);
    }

    #[test]
    fn distinct_ranks_never_trigger_anything_from_clean_start() {
        let (params, partition) = setup(8, 4);
        let mut states: Vec<VerifyState> = (1..=8u32)
            .map(|rank| VerifyState::initial(&params, &partition, rank))
            .collect();
        let mut rng = SimRng::seed_from_u64(5);
        for step in 0..20_000u64 {
            let i = (rng.next_u64() % 8) as usize;
            let mut j = (rng.next_u64() % 7) as usize;
            if j >= i {
                j += 1;
            }
            let (a, b) = if i < j {
                let (l, r) = states.split_at_mut(j);
                (&mut l[i], &mut r[0])
            } else {
                let (l, r) = states.split_at_mut(i);
                (&mut r[0], &mut l[j])
            };
            let mut ctx = InteractionCtx::new(&mut rng, step);
            let (va, vb) = stable_verify(
                &params,
                &partition,
                (i + 1) as u32,
                a,
                (j + 1) as u32,
                b,
                &mut ctx,
            );
            assert_eq!(va, VerifyVerdict::Continue, "step {step}");
            assert_eq!(vb, VerifyVerdict::Continue, "step {step}");
        }
        assert!(states.iter().all(|s| s.generation == 0));
    }

    use rand::RngCore;
}
