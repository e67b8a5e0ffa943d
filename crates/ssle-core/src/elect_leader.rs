//! `ElectLeader_r` (Section 4, Protocol 1): the top-level protocol.
//!
//! The wrapper is thin: depending on the two agents' roles it dispatches to
//! `PropagateReset`, `AssignRanks_r`, or `StableVerify_r`, and it manages the
//! two role transitions the sub-protocols cannot perform themselves — rankers
//! becoming verifiers (when their countdown expires or they meet a verifier)
//! and verifiers triggering a hard reset.

use crate::groups::GroupPartition;
use crate::params::Params;
use crate::ranking::{assign_ranks, assign_ranks_draws_randomness};
use crate::reset::{propagate_reset, trigger_reset};
use crate::state::{AgentState, VerifyingAgent};
use crate::verify::{
    stable_verify, stable_verify_is_silent, stable_verify_may_draw_randomness, VerifyState,
    VerifyVerdict,
};
use ppsim::indexer::{deterministic_support, StateSupport};
use ppsim::{
    AgentId, CensusKey, CleanInit, InteractionCtx, LeaderOutput, Protocol, RankingOutput, SimError,
    SupportEnumerable,
};

/// The `ElectLeader_r` protocol instance for a fixed `(n, r)`.
///
/// # Examples
///
/// ```
/// use ssle_core::ElectLeader;
/// use ppsim::{Configuration, Simulation};
///
/// let protocol = ElectLeader::with_n_r(16, 4).expect("valid parameters");
/// let config = Configuration::clean(&protocol);
/// let mut sim = Simulation::new(protocol, config, 42);
/// sim.run(1_000);
/// assert_eq!(sim.interactions(), 1_000);
/// ```
#[derive(Debug, Clone)]
pub struct ElectLeader {
    params: Params,
    partition: GroupPartition,
}

impl ElectLeader {
    /// Creates the protocol from a validated parameter set.
    pub fn new(params: Params) -> Self {
        let partition = GroupPartition::new(&params);
        ElectLeader { params, partition }
    }

    /// Convenience constructor from `(n, r)` with default constants.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidParameters`] if the parameters violate
    /// `1 ≤ r ≤ n/2` or `n < 4`.
    pub fn with_n_r(n: usize, r: usize) -> Result<Self, SimError> {
        Params::new(n, r).map(Self::new)
    }

    /// The protocol's parameters.
    pub fn params(&self) -> &Params {
        &self.params
    }

    /// The rank-space partition used by collision detection.
    pub fn partition(&self) -> &GroupPartition {
        &self.partition
    }

    /// Builds the initial verifier sub-state for a committed rank. Exposed so
    /// adversarial initializers and tests can construct verifier
    /// configurations directly.
    pub fn verifier_state(&self, rank: u32) -> AgentState {
        let rank = self.clamp_rank(rank);
        AgentState::Verifying(VerifyingAgent {
            rank,
            sv: VerifyState::initial(&self.params, &self.partition, rank),
        })
    }

    /// Ranks outside `[1, n]` can only arise from corrupted configurations;
    /// they are clamped so that group lookups stay well defined (the
    /// resulting duplicate ranks are then caught by collision detection).
    fn clamp_rank(&self, rank: u32) -> u32 {
        rank.clamp(1, self.params.n as u32)
    }

    /// The ranker → verifier promotion (Protocol 1, lines 7–8).
    fn promote_to_verifier(&self, agent: &mut AgentState) {
        if let AgentState::Ranking(r) = agent {
            let rank = self.clamp_rank(r.qar.rank);
            *agent = AgentState::Verifying(VerifyingAgent {
                rank,
                sv: VerifyState::initial(&self.params, &self.partition, rank),
            });
        }
    }
}

impl Protocol for ElectLeader {
    type State = AgentState;

    fn population_size(&self) -> usize {
        self.params.n
    }

    fn interact(&self, u: &mut AgentState, v: &mut AgentState, ctx: &mut InteractionCtx<'_>) {
        // The promotion epidemic of lines 6–8 is a condition on the partner's
        // role *at the start* of the interaction: a ranker promoted during
        // this very interaction must not drag its partner along in the same
        // breath, or the verifier epidemic would spread two hops per
        // interaction.
        let u_was_verifying = u.is_verifying();
        let v_was_verifying = v.is_verifying();

        // Lines 1–2: PropagateReset. (Non-resetters may become resetters, and
        // dormant resetters may restart as rankers.)
        if u.is_resetting() || v.is_resetting() {
            propagate_reset(&self.params, u, v);
        }

        // Lines 3–5: two rankers execute AssignRanks_r.
        if let (AgentState::Ranking(ru), AgentState::Ranking(rv)) = (&mut *u, &mut *v) {
            assign_ranks(&self.params, &mut ru.qar, &mut rv.qar, ctx);
        }

        // Protocol 1 ages the countdown on *every* interaction a ranker takes
        // part in, whatever the partner's role. Countdowns beyond C_max can
        // only arise from corrupted configurations; clamping them (mirroring
        // `clamp_rank`) keeps the reachable countdown range bounded.
        for agent in [&mut *u, &mut *v] {
            if let AgentState::Ranking(r) = agent {
                r.countdown = r
                    .countdown
                    .min(self.params.countdown_max())
                    .saturating_sub(1);
            }
        }

        // Lines 6–8: rankers become verifiers when their countdown runs out
        // or via the epidemic started by (pre-existing) verifiers.
        let promote_u = matches!(&*u, AgentState::Ranking(r) if r.countdown == 0)
            || (u.is_ranking() && v_was_verifying);
        if promote_u {
            self.promote_to_verifier(u);
        }
        let promote_v = matches!(&*v, AgentState::Ranking(r) if r.countdown == 0)
            || (v.is_ranking() && u_was_verifying);
        if promote_v {
            self.promote_to_verifier(v);
        }

        // Lines 9–10: two verifiers execute StableVerify_r; a TriggerReset
        // verdict starts the hard-reset epidemic.
        let mut verdicts = (VerifyVerdict::Continue, VerifyVerdict::Continue);
        if let (AgentState::Verifying(vu), AgentState::Verifying(vv)) = (&mut *u, &mut *v) {
            verdicts = stable_verify(
                &self.params,
                &self.partition,
                vu.rank,
                &mut vu.sv,
                vv.rank,
                &mut vv.sv,
                ctx,
            );
        }
        if verdicts.0 == VerifyVerdict::TriggerReset {
            trigger_reset(&self.params, u);
        }
        if verdicts.1 == VerifyVerdict::TriggerReset {
            trigger_reset(&self.params, v);
        }
    }

    /// The committed rank, counted over `1..=n`: the census behind
    /// [`crate::output::is_correct_output`] and [`crate::output::leader_count`].
    fn census_key(&self) -> Option<CensusKey<AgentState>> {
        Some(CensusKey {
            key: crate::output::committed_rank_key,
            bound: u32::try_from(self.params.n).expect("ranks are u32, so n fits u32"),
        })
    }
}

impl ElectLeader {
    /// Whether [`Protocol::interact`] on this ordered pair *may* consume
    /// scheduler randomness.
    ///
    /// Only two sub-transitions draw: the identifier draw of
    /// `FastLeaderElect` (see
    /// [`assign_ranks_draws_randomness`]) and the signature refresh of
    /// `DetectCollision_r` (see [`stable_verify_may_draw_randomness`]).
    /// Interactions that convert roles mid-way — resetter meetings, which can
    /// restart an agent straight into identifier-drawing leader election, and
    /// ranker–verifier promotions, which run a same-interaction
    /// `StableVerify_r` step on the freshly promoted state — are reported as
    /// randomized wholesale.
    ///
    /// The answer is a conservative over-approximation, and correctness never
    /// depends on it: a `true` merely skips the exact-support fast path, and
    /// a hypothetical stray `false` would still be caught by the
    /// draw-counting probe of [`deterministic_support`].
    fn interaction_may_draw(&self, u: &AgentState, v: &AgentState) -> bool {
        match (u, v) {
            (AgentState::Ranking(a), AgentState::Ranking(b)) => {
                assign_ranks_draws_randomness(&a.qar, &b.qar)
            }
            (AgentState::Verifying(a), AgentState::Verifying(b)) => {
                stable_verify_may_draw_randomness(
                    &self.params,
                    &self.partition,
                    a.rank,
                    &a.sv,
                    b.rank,
                    &b.sv,
                )
            }
            _ => true,
        }
    }
}

/// State-level transition inspection, which is what lets `ElectLeader_r` run
/// under the batched engine through the dynamic indexer
/// ([`ppsim::DiscoveredProtocol`]) — its reachable state space is far too
/// large for the up-front enumeration of a hand-written
/// [`ppsim::EnumerableProtocol`].
impl SupportEnumerable for ElectLeader {
    /// The only certain no-ops are cross-group verifier meetings whose
    /// probation timers have run out (same generation, no error state):
    /// exactly the pairs that dominate a stabilized configuration.
    /// Everything else acts — resetters infect/count down/restart, rankers
    /// age their countdown on every interaction.
    fn silent_pair(&self, u: &AgentState, v: &AgentState) -> bool {
        match (u, v) {
            (AgentState::Verifying(a), AgentState::Verifying(b)) => {
                stable_verify_is_silent(&self.partition, a.rank, &a.sv, b.rank, &b.sv)
            }
            _ => false,
        }
    }

    fn pair_support(&self, u: &AgentState, v: &AgentState) -> Option<StateSupport<AgentState>> {
        if self.silent_pair(u, v) {
            return Some(vec![((u.clone(), v.clone()), 1.0)]);
        }
        if self.interaction_may_draw(u, v) {
            return None;
        }
        deterministic_support(self, u, v)
    }
}

impl CleanInit for ElectLeader {
    /// The clean start used by experiments: every agent as a freshly reset
    /// ranker (the state produced by the `Reset` routine of Appendix C).
    fn clean_state(&self, _agent: AgentId) -> AgentState {
        AgentState::fresh_ranker(&self.params)
    }

    fn clean_runs(&self) -> Box<dyn Iterator<Item = (AgentState, u64)> + '_> {
        // Uniform clean start: one run covers the whole population, so
        // count-based construction encodes (and, when discovered, interns)
        // the fresh-ranker state exactly once instead of once per agent.
        Box::new(std::iter::once((
            AgentState::fresh_ranker(&self.params),
            self.population_size() as u64,
        )))
    }
}

impl LeaderOutput for ElectLeader {
    /// The leader is the agent that committed to rank 1.
    fn is_leader(&self, state: &AgentState) -> bool {
        state.verified_rank() == Some(1)
    }
}

impl RankingOutput for ElectLeader {
    /// Only verifiers output a rank; the protocol's output is correct once
    /// every agent is a verifier and the committed ranks form a permutation
    /// of `[n]`.
    fn rank(&self, state: &AgentState) -> Option<usize> {
        state.verified_rank().map(|r| r as usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::ResetState;
    use ppsim::{Configuration, Simulation};

    #[test]
    fn constructor_validates_parameters() {
        assert!(ElectLeader::with_n_r(16, 4).is_ok());
        assert!(ElectLeader::with_n_r(16, 9).is_err());
    }

    /// The uniform `clean_runs` override is the ElectLeader_r startup
    /// hotspot fix: through the dynamic indexer, count-based construction
    /// must intern exactly one state (the fresh ranker) — not one per agent
    /// — while producing the same counts and interning order as the
    /// historical per-agent path.
    #[test]
    fn clean_runs_collapses_to_one_interned_state() {
        use ppsim::{CountConfiguration, DiscoveredProtocol, EnumerableProtocol};

        let p = ElectLeader::with_n_r(16, 4).unwrap();
        let runs: Vec<_> = ppsim::CleanInit::clean_runs(&p).collect();
        assert_eq!(runs.len(), 1);
        assert_eq!(runs[0].1, 16);

        let flat = DiscoveredProtocol::new(ElectLeader::with_n_r(16, 4).unwrap());
        let flat_counts = CountConfiguration::from_clean_init(&flat);
        // One encode for the single run, hence exactly one interned state.
        assert_eq!(flat.num_states(), 1);

        let per_agent = DiscoveredProtocol::new(ElectLeader::with_n_r(16, 4).unwrap());
        let config = Configuration::clean(&per_agent);
        let per_agent_counts = CountConfiguration::from_configuration(&per_agent, &config);
        assert_eq!(flat_counts, per_agent_counts);
    }

    #[test]
    fn clean_configuration_is_all_rankers() {
        let p = ElectLeader::with_n_r(16, 4).unwrap();
        let c = Configuration::clean(&p);
        assert!(c.all(|s| s.is_ranking()));
        assert_eq!(p.leader_count(c.as_slice()), 0);
        assert!(!p.is_correct_ranking(c.as_slice()));
    }

    #[test]
    fn verifier_state_builder_clamps_ranks() {
        let p = ElectLeader::with_n_r(16, 4).unwrap();
        let s = p.verifier_state(99);
        assert_eq!(s.verified_rank(), Some(16));
        let s = p.verifier_state(0);
        assert_eq!(s.verified_rank(), Some(1));
        assert!(p.is_leader(&s));
    }

    #[test]
    fn ranker_with_expired_countdown_becomes_verifier() {
        let p = ElectLeader::with_n_r(16, 4).unwrap();
        let countdown_max = p.params().countdown_max();
        let mut config = Configuration::clean(&p);
        if let AgentState::Ranking(r) = &mut config[0] {
            r.countdown = 1;
            r.qar.rank = 5;
        }
        let mut sim = Simulation::with_scheduler(
            p,
            config,
            ppsim::ScriptedScheduler::from_indices([(0, 1)]),
            0,
        );
        sim.run(1);
        assert_eq!(sim.configuration()[0].verified_rank(), Some(5));
        // The partner is *not* dragged along: the verifier epidemic of
        // lines 6–8 is a condition on the roles at the start of the
        // interaction, so it spreads one hop per interaction. The partner
        // merely aged its countdown.
        match &sim.configuration()[1] {
            AgentState::Ranking(r) => assert_eq!(r.countdown, countdown_max - 1),
            other => panic!("partner must still be a ranker, got {other:?}"),
        }
    }

    #[test]
    fn verifier_role_spreads_to_rankers_by_epidemic() {
        let p = ElectLeader::with_n_r(16, 4).unwrap();
        let mut config = Configuration::clean(&p);
        config[3] = p.verifier_state(3);
        for (i, rank) in [(0usize, 7u32), (1, 11)] {
            if let AgentState::Ranking(r) = &mut config[i] {
                r.qar.rank = rank;
            }
        }
        let mut sim = Simulation::with_scheduler(
            p,
            config,
            ppsim::ScriptedScheduler::from_indices([(3, 0), (0, 1)]),
            0,
        );
        sim.run(2);
        assert_eq!(sim.configuration()[0].verified_rank(), Some(7));
        assert_eq!(sim.configuration()[1].verified_rank(), Some(11));
    }

    #[test]
    fn promotion_cascade_with_colliding_default_ranks_triggers_reset() {
        // Two rankers whose countdowns expire in the same interaction both
        // promote carrying the default believed rank 1; StableVerify sees the
        // collision while both are on probation and triggers a hard reset —
        // the designed recovery path for a ranking that never completed.
        // (Expiry is the only way two agents promote simultaneously: the
        // verifier epidemic itself spreads one hop per interaction.)
        let p = ElectLeader::with_n_r(16, 4).unwrap();
        let mut config = Configuration::clean(&p);
        for agent in [0, 1] {
            if let AgentState::Ranking(r) = &mut config[agent] {
                r.countdown = 1;
            }
        }
        let mut sim = Simulation::with_scheduler(
            p,
            config,
            ppsim::ScriptedScheduler::from_indices([(0, 1)]),
            0,
        );
        sim.run(1);
        assert!(sim.configuration()[0].is_resetting());
        assert!(sim.configuration()[1].is_resetting());
    }

    #[test]
    fn ranker_countdown_ages_on_every_interaction() {
        // Protocol 1's countdown is unconditional: it ages even when the
        // partner is a resetter, not just in ranker–ranker meetings. A
        // dormant resetter is the one partner a ranker can meet and remain a
        // ranker (propagating resetters infect, verifiers promote).
        let p = ElectLeader::with_n_r(16, 4).unwrap();
        let params = *p.params();
        let mut config = Configuration::clean(&p);
        if let AgentState::Ranking(r) = &mut config[0] {
            r.countdown = 5;
        }
        config[1] = AgentState::Resetting(ResetState::infected(&params));
        let mut sim = Simulation::with_scheduler(
            p,
            config,
            ppsim::ScriptedScheduler::from_indices([(0, 1)]),
            0,
        );
        sim.run(1);
        match &sim.configuration()[0] {
            AgentState::Ranking(r) => assert_eq!(r.countdown, 4, "countdown must age"),
            other => panic!("agent 0 must still be a ranker, got {other:?}"),
        }
        // The dormant partner was woken by the computing agent and restarted
        // as a fresh ranker, whose countdown aged in the same interaction.
        match &sim.configuration()[1] {
            AgentState::Ranking(r) => {
                assert_eq!(r.countdown, params.countdown_max() - 1);
            }
            other => panic!("agent 1 must have restarted as a ranker, got {other:?}"),
        }
    }

    #[test]
    fn corrupted_countdown_is_clamped_to_the_bound() {
        // Countdowns beyond C_max can only come from corrupted
        // configurations; one interaction clamps them back into range, which
        // is what keeps the reachable state space bounded for the dynamic
        // indexer.
        let p = ElectLeader::with_n_r(16, 4).unwrap();
        let countdown_max = p.params().countdown_max();
        let mut config = Configuration::clean(&p);
        if let AgentState::Ranking(r) = &mut config[0] {
            r.countdown = u32::MAX;
        }
        let mut sim = Simulation::with_scheduler(
            p,
            config,
            ppsim::ScriptedScheduler::from_indices([(0, 1)]),
            0,
        );
        sim.run(1);
        match &sim.configuration()[0] {
            AgentState::Ranking(r) => assert_eq!(r.countdown, countdown_max - 1),
            other => panic!("agent 0 must still be a ranker, got {other:?}"),
        }
    }

    #[test]
    fn two_verifiers_with_equal_rank_on_probation_trigger_a_reset() {
        let p = ElectLeader::with_n_r(16, 4).unwrap();
        let mut config = Configuration::clean(&p);
        config[0] = p.verifier_state(5);
        config[1] = p.verifier_state(5);
        let mut sim = Simulation::with_scheduler(
            p,
            config,
            ppsim::ScriptedScheduler::from_indices([(0, 1)]),
            0,
        );
        sim.run(1);
        assert!(sim.configuration()[0].is_resetting());
        assert!(sim.configuration()[1].is_resetting());
    }

    #[test]
    fn silence_rule_matches_the_transition() {
        let p = ElectLeader::with_n_r(16, 4).unwrap();
        // Ranks 1 and 9 lie in different groups (groups of size 4); ranks 1
        // and 2 share a group.
        assert!(!p.partition().same_group(1, 9));
        let exhausted = |rank: u32| {
            let mut s = p.verifier_state(rank);
            if let AgentState::Verifying(v) = &mut s {
                v.sv.probation_timer = 0;
            }
            s
        };
        let (a, b) = (exhausted(1), exhausted(9));
        assert!(p.silent_pair(&a, &b), "cross-group, off probation: silent");
        // Silent pairs must be fixed points of the transition.
        let (mut a2, mut b2) = (a.clone(), b.clone());
        let mut rng = ppsim::SimRng::seed_from_u64(0);
        let mut ctx = InteractionCtx::new(&mut rng, 0);
        p.interact(&mut a2, &mut b2, &mut ctx);
        assert_eq!((a2, b2), (a.clone(), b));
        // Same group keeps circulating messages: never silent.
        assert!(!p.silent_pair(&a, &exhausted(2)));
        // On probation the timer still ticks: not silent.
        assert!(!p.silent_pair(&p.verifier_state(1), &p.verifier_state(9)));
        // Rankers age their countdown on every interaction: never silent.
        let ranker = AgentState::fresh_ranker(p.params());
        assert!(!p.silent_pair(&ranker, &a));
        assert!(!p.silent_pair(&ranker, &ranker));
    }

    #[test]
    fn pair_support_enumerates_deterministic_outcomes_and_flags_draws() {
        let p = ElectLeader::with_n_r(16, 4).unwrap();
        // Two fresh rankers are in leader election without identifiers: the
        // first interaction draws, so the support cannot be enumerated.
        let ranker = AgentState::fresh_ranker(p.params());
        assert!(p.pair_support(&ranker, &ranker.clone()).is_none());
        // Two fresh verifiers of distinct same-group ranks run a
        // deterministic DetectCollision step (counters far from the
        // signature period): a single enumerated outcome.
        let (a, b) = (p.verifier_state(1), p.verifier_state(2));
        let support = p.pair_support(&a, &b).expect("deterministic transition");
        assert_eq!(support.len(), 1);
        assert_eq!(support[0].1, 1.0);
        let (ref a2, ref b2) = support[0].0;
        assert_ne!((a2, b2), (&a, &b), "probation timers must have aged");
        // The enumerated outcome matches what interact produces.
        let (mut a3, mut b3) = (a.clone(), b.clone());
        let mut rng = ppsim::SimRng::seed_from_u64(1);
        let mut ctx = InteractionCtx::new(&mut rng, 0);
        p.interact(&mut a3, &mut b3, &mut ctx);
        assert_eq!((&a3, &b3), (a2, b2));
        // A verifier whose signature counter is about to refresh draws.
        let mut c = p.verifier_state(3);
        if let AgentState::Verifying(v) = &mut c {
            let m = p.partition().group_size_of(3);
            if let Some(dc) = v.sv.dc.active_mut() {
                dc.counter = p.params().signature_period(m);
            }
        }
        assert!(p.pair_support(&c, &p.verifier_state(2)).is_none());
    }

    #[test]
    fn resetter_infects_computing_partner_via_wrapper() {
        let p = ElectLeader::with_n_r(16, 4).unwrap();
        let params = *p.params();
        let mut config = Configuration::clean(&p);
        config[0] = AgentState::Resetting(ResetState::triggered(&params));
        let mut sim = Simulation::with_scheduler(
            p,
            config,
            ppsim::ScriptedScheduler::from_indices([(0, 1)]),
            0,
        );
        sim.run(1);
        assert!(sim.configuration()[1].is_resetting());
    }
}
