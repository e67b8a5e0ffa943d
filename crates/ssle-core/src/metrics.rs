//! State-space accounting (experiment E2).
//!
//! Theorem 1.1 bounds the number of states by `2^{O(r² log n)}`, i.e. the
//! *bit complexity* (log₂ of the state-space size) by `O(r² log n)`. This
//! module computes, for a given parameter set,
//!
//! * the theoretical bit complexity implied by the state-space structure of
//!   Figs. 1–4 (summing the per-field logarithms), and
//! * the measured in-memory footprint of concrete agent states produced by
//!   the simulator,
//!
//! so experiment E2 can verify the `Θ(r² log n)` growth shape of the space
//! axis of the trade-off.

use crate::groups::GroupPartition;
use crate::params::Params;
use crate::ranking::RankPhase;
use crate::state::AgentState;
use serde::Serialize;

/// Bit-complexity breakdown of the `ElectLeader_r` state space for one
/// parameter set.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct StateBits {
    /// Bits of the `PropagateReset` role (Θ(log log n) + counters).
    pub resetting: f64,
    /// Bits of the `AssignRanks_r` role (2^{O(r log n)} states).
    pub ranking: f64,
    /// Bits of the `StableVerify_r`/`DetectCollision_r` role
    /// (2^{O(r² log n)} states) — the dominant term.
    pub verifying: f64,
}

impl StateBits {
    /// The total bit complexity: `log₂` of the disjoint union of the three
    /// role state spaces, which up to one bit is the maximum of the parts.
    pub fn total(&self) -> f64 {
        // log2(A + B + C) <= log2(3 * max) = log2(max) + log2(3).
        self.resetting.max(self.ranking).max(self.verifying) + (3f64).log2()
    }
}

/// Computes the theoretical bit complexity of the protocol's state space.
pub fn state_bits(params: &Params) -> StateBits {
    let partition = GroupPartition::new(params);
    let n = params.n as f64;
    let r = params.r as f64;
    let log2_n = n.log2().max(1.0);

    // Resetting: role tag + resetCount in [0, R_max] + delayTimer in [0, D_max].
    let resetting = ((params.reset_count_max() as f64 + 1.0).log2()
        + (params.delay_max() as f64 + 1.0).log2())
    .max(1.0);

    // Ranking: countdown × rank × AssignRanks_r state.
    // AssignRanks_r: leader election uses O(n^3) identifiers twice plus a
    // O(log n) counter; the channel field dominates with (c·n/r + 1)^r values.
    let labels = params.labels_per_deputy() as f64 + 1.0;
    let channel_bits = r * labels.log2();
    let le_bits = 2.0 * 3.0 * log2_n + (params.le_count_max() as f64 + 1.0).log2() + 2.0;
    let phase_bits = (2.0 * r.log2().max(1.0)) // sheriff badge range / deputy id
        .max(labels.log2() + r.log2().max(1.0)); // label
    let ranking = (params.countdown_max() as f64 + 1.0).log2()
        + log2_n
        + channel_bits
        + le_bits.max(phase_bits)
        + 3.0;

    // Verifying: rank × generation × probation × DetectCollision_r.
    // DetectCollision_r for the largest group (size m): signature [m^5],
    // counter, msgs (2m² cells over m^5 + 1 values each, sparse but bounded
    // by the dense count), observations (2m² cells over m^5 values).
    let m = (0..partition.num_groups())
        .map(|g| partition.group_size(g))
        .max()
        .unwrap_or(1) as f64;
    let cells = 2.0 * m * m;
    let content_bits = (m.powi(5).max(2.0) + 1.0).log2();
    let dc_bits = m.powi(5).max(2.0).log2()
        + (params.signature_period(m as usize) as f64).log2()
        + cells * content_bits // msgs
        + cells * m.powi(5).max(2.0).log2(); // observations
    let verifying = log2_n + (6f64).log2() + (params.probation_max() as f64 + 1.0).log2() + dc_bits;

    StateBits {
        resetting,
        ranking,
        verifying,
    }
}

/// The *logical* per-agent footprint (in bytes) of one agent state as
/// represented by this implementation: the inline `AgentState` plus its heap
/// payloads — for a verifier, its message IDs (4 bytes each), its class
/// headers ([`CLASS_HEADER_BYTES`](crate::verify::CLASS_HEADER_BYTES) each) and its observations
/// ([`Observations::payload_bytes`](crate::verify::Observations::payload_bytes):
/// a byte per ID plus 8 per palette entry, or 8 per ID once the array has
/// switched to words). A fresh verifier of a size-`m` group holds `2m²` IDs
/// in `m` classes and `2m²` observations of one content: `10m² + 12m + 8`
/// bytes.
///
/// This is the paper's state-size accounting, one agent at a time: a
/// verifier's message store and observations are copy-on-write payloads that
/// clones share, but each agent's shared payloads are counted in full here,
/// as if the agent held its own copy. It is not the simulator's memory use.
pub fn measured_state_bytes(state: &AgentState) -> usize {
    let base = std::mem::size_of::<AgentState>();
    match state {
        AgentState::Resetting(_) => base,
        AgentState::Ranking(r) => {
            let channel = r.qar.channel.capacity() * std::mem::size_of::<u32>();
            let phase = match &r.qar.phase {
                RankPhase::LeaderElection(_) => {
                    std::mem::size_of::<crate::ranking::LeaderElectionState>()
                }
                _ => 0,
            };
            base + channel + phase
        }
        AgentState::Verifying(v) => {
            let dc = v.sv.dc.active().map_or(0, |active| {
                active.msgs.payload_bytes() + active.observations.payload_bytes()
            });
            base + dc
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::elect_leader::ElectLeader;
    use crate::verify::CLASS_HEADER_BYTES;
    use ppsim::stats::log_log_slope;

    #[test]
    fn verifying_role_dominates_the_state_space() {
        let p = Params::new(64, 8).unwrap();
        let bits = state_bits(&p);
        assert!(bits.verifying > bits.ranking);
        assert!(bits.ranking > bits.resetting);
        assert!(bits.total() >= bits.verifying);
    }

    #[test]
    fn bit_complexity_grows_roughly_quadratically_in_r() {
        let n = 256;
        let points: Vec<(f64, f64)> = [4usize, 8, 16, 32, 64, 128]
            .iter()
            .map(|&r| {
                let p = Params::new(n, r).unwrap();
                (r as f64, state_bits(&p).total())
            })
            .collect();
        let slope = log_log_slope(&points);
        assert!(
            (1.6..=2.4).contains(&slope),
            "bit complexity should scale ~r², measured slope {slope}"
        );
    }

    #[test]
    fn bit_complexity_grows_slowly_in_n_for_fixed_r() {
        // For fixed r the dominant DetectCollision term depends on r only;
        // the n-dependence enters through timers, ranks, and channels, all of
        // which are logarithmic or r·log(n/r). Growing n by a factor of 64
        // must therefore increase the bit complexity, but only mildly —
        // consistent with the 2^{O(r² log n)} upper bound of Theorem 1.1.
        let a = state_bits(&Params::new(64, 4).unwrap()).total();
        let b = state_bits(&Params::new(4096, 4).unwrap()).total();
        assert!(b > a, "bits must grow with n ({a} -> {b})");
        assert!(
            b / a < 2.0,
            "growth should be sub-linear in n, ratio was {}",
            b / a
        );
    }

    #[test]
    fn measured_bytes_track_role_sizes() {
        let p = ElectLeader::with_n_r(32, 8).unwrap();
        let params = *p.params();
        let reset = AgentState::Resetting(crate::state::ResetState::triggered(&params));
        let ranker = AgentState::fresh_ranker(&params);
        let verifier = p.verifier_state(3);
        let reset_bytes = measured_state_bytes(&reset);
        let ranker_bytes = measured_state_bytes(&ranker);
        let verifier_bytes = measured_state_bytes(&verifier);
        assert!(verifier_bytes > ranker_bytes);
        assert!(ranker_bytes >= reset_bytes);
    }

    #[test]
    fn fresh_verifier_payload_is_its_messages_and_observations() {
        // A fresh verifier holds 2m messages of each of its group's m
        // governors, one content class per governor, and observes the 2m²
        // IDs its own rank governs, a byte each, all in one palette entry.
        let p = ElectLeader::with_n_r(32, 8).unwrap();
        let m = p.partition().group_size_of(3);
        let cells = 2 * m * m;
        let payload =
            measured_state_bytes(&p.verifier_state(3)) - std::mem::size_of::<AgentState>();
        assert_eq!(CLASS_HEADER_BYTES, 12);
        assert_eq!(payload, cells * 4 + m * CLASS_HEADER_BYTES + cells + 8);
        assert_eq!(payload, 10 * m * m + 12 * m + 8);
    }

    #[test]
    fn measured_verifier_bytes_grow_with_r() {
        let small = ElectLeader::with_n_r(64, 4).unwrap();
        let large = ElectLeader::with_n_r(64, 32).unwrap();
        assert!(
            measured_state_bytes(&large.verifier_state(1))
                > measured_state_bytes(&small.verifier_state(1))
        );
    }
}
