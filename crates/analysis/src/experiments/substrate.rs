//! E8 and E9 — the substrate lemmas.
//!
//! * **E8** measures the two probabilistic workhorses of the paper's
//!   analysis: the one-way-epidemic completion constant (Lemma A.2 uses
//!   `c_epi < 7`) and the convergence of the message load balancing
//!   (Lemma E.6 via the Tight & Simple Load Balancing coupling).
//! * **E9** measures the quality of the synthetic-coin derandomization of
//!   Appendix B: the total-variation distance of the produced samples from
//!   uniform and the per-value probability band (the paper requires every
//!   value to have probability in `[1/(2N), 2/N]`).

use crate::scale::Scale;
use crate::table::{fmt_f64, Table};
use ppsim::epidemic::{epidemic_constant, measure_epidemic_time_with, OneWayEpidemic};
use ppsim::rng::derive_seed;
use ppsim::{
    AgentId, CleanInit, Configuration, EngineKind, InteractionCtx, Protocol, SimRng, Simulation,
    SyntheticCoin, TrialFleet,
};
use rand::RngCore;
use ssle_core::verify::{
    balance_load, CollisionState, MessageStore, Observations, INITIAL_CONTENT,
};

/// E8 — epidemic completion constant and load-balancing convergence.
pub fn e8_substrate(scale: Scale) -> Table {
    let mut table = Table::new(
        "E8 — substrate: epidemic constant (Lemma A.2) and load balancing (Lemma E.6)",
        &[
            "measurement",
            "parameter",
            "trials",
            "mean value",
            "max value",
        ],
    );

    // Epidemic constant: completion interactions / (n ln n).
    for &n in &scale.n_values() {
        let trials = scale.trials();
        // E8's own per-trial seeds, not the fleet's: they pin the table.
        let constants = TrialFleet::new(trials, scale.base_seed() ^ 0xE8).run_indexed(|i, _| {
            let t = measure_epidemic_time_with(
                OneWayEpidemic::new(n, 1),
                EngineKind::PerStep,
                derive_seed(scale.base_seed() ^ 0xE8, (n + i) as u64),
                (200 * n * n) as u64,
            )
            .expect("epidemic completes");
            epidemic_constant(t, n)
        });
        table.push_row([
            "one-way epidemic constant c_epi".to_string(),
            format!("n = {n}"),
            trials.to_string(),
            fmt_f64(constants.iter().sum::<f64>() / constants.len() as f64),
            fmt_f64(constants.iter().cloned().fold(f64::MIN, f64::max)),
        ]);
    }

    // Load balancing: pairwise meetings until an extreme initial message
    // distribution is balanced, normalised by m·ln m.
    let (_, r) = scale.recovery_instance();
    for &m in &[r.max(2), (2 * r).max(4)] {
        let trials = scale.trials();
        // E8's own per-trial seeds, as above.
        let normalised = TrialFleet::new(trials, scale.base_seed() ^ 0xE8B).run_indexed(|i, _| {
            let meetings =
                load_balancing_meetings(m, derive_seed(scale.base_seed() ^ 0xE8B, (m + i) as u64));
            meetings as f64 / (m as f64 * (m as f64).ln().max(1.0))
        });
        table.push_row([
            "pairwise meetings to balance / (m ln m)".to_string(),
            format!("group size m = {m}"),
            trials.to_string(),
            fmt_f64(normalised.iter().sum::<f64>() / normalised.len() as f64),
            fmt_f64(normalised.iter().cloned().fold(f64::MIN, f64::max)),
        ]);
    }

    table.push_note(
        "Expected shape: the epidemic constant stays below the paper's c_epi < 7 and is \
         roughly independent of n; load balancing needs O(m log m) pairwise meetings."
            .to_string(),
    );
    table
}

/// Runs the load-balancing process on one group of size `m` where agent 0
/// initially holds *all* messages, and returns the number of pairwise
/// meetings until every agent's total message count is within a factor of two
/// of the average.
pub fn load_balancing_meetings(m: usize, seed: u64) -> u64 {
    let ids_per_rank = 2 * (m as u32) * (m as u32);
    let mut agents: Vec<CollisionState> = (0..m)
        .map(|_| CollisionState {
            signature: INITIAL_CONTENT,
            counter: 1,
            msgs: MessageStore::empty(m, ids_per_rank),
            observations: Observations::initial(ids_per_rank),
        })
        .collect();
    // Agent 0 holds every message of every governor.
    for governor in 0..m {
        for id in 1..=ids_per_rank {
            agents[0].msgs.insert(governor, id, INITIAL_CONTENT);
        }
    }
    let average = (m as f64 * ids_per_rank as f64) / m as f64;
    let mut rng = SimRng::seed_from_u64(seed);
    let mut meetings = 0u64;
    loop {
        let balanced = agents.iter().all(|a| {
            let total = a.msgs.total() as f64;
            total >= average / 2.0 && total <= average * 2.0
        });
        if balanced || meetings > 10_000_000 {
            return meetings;
        }
        let i = (rng.next_u64() % m as u64) as usize;
        let mut j = (rng.next_u64() % (m as u64 - 1)) as usize;
        if j >= i {
            j += 1;
        }
        let (a, b) = if i < j {
            let (l, rgt) = agents.split_at_mut(j);
            (&mut l[i], &mut rgt[0])
        } else {
            let (l, rgt) = agents.split_at_mut(i);
            (&mut rgt[0], &mut l[j])
        };
        balance_load(a, b, m);
        meetings += 1;
    }
}

/// The per-agent state of the synthetic-coin measurement protocol: the coin
/// mechanism plus a tally of the samples it produced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CoinAgent {
    coin: SyntheticCoin,
    counts: Vec<u64>,
}

/// A protocol that does nothing except exercise the Appendix B synthetic coin
/// under the real scheduler, tallying every sample it produces.
#[derive(Debug, Clone, Copy)]
pub struct CoinHarness {
    n: usize,
    n_values: u64,
}

impl CoinHarness {
    /// Creates the harness for `n` agents sampling from `[0, n_values)`.
    pub fn new(n: usize, n_values: u64) -> Self {
        CoinHarness { n, n_values }
    }
}

impl Protocol for CoinHarness {
    type State = CoinAgent;

    fn population_size(&self) -> usize {
        self.n
    }

    fn interact(&self, u: &mut CoinAgent, v: &mut CoinAgent, _ctx: &mut InteractionCtx<'_>) {
        // Both agents observe each other's *current* coin, then flip (the
        // flip is part of SyntheticCoin::observe).
        let (cu, cv) = (u.coin.own_coin(), v.coin.own_coin());
        u.coin.observe(cv);
        v.coin.observe(cu);
        for agent in [u, v] {
            if let Some(sample) = agent.coin.sample() {
                agent.counts[sample as usize] += 1;
            }
        }
    }
}

impl CleanInit for CoinHarness {
    fn clean_state(&self, agent: AgentId) -> CoinAgent {
        CoinAgent {
            // Half the population starts with each coin side, as the
            // mechanism assumes.
            coin: SyntheticCoin::with_initial_coin(self.n_values, agent.index() % 2 == 0),
            counts: vec![0; self.n_values as usize],
        }
    }
}

/// Aggregated quality measures of a synthetic-coin run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CoinQuality {
    /// Number of samples aggregated over all agents.
    pub samples: u64,
    /// Total-variation distance from the uniform distribution.
    pub tv_distance: f64,
    /// Smallest empirical per-value probability times `n_values`.
    pub min_scaled_probability: f64,
    /// Largest empirical per-value probability times `n_values`.
    pub max_scaled_probability: f64,
}

/// Runs the synthetic-coin harness and aggregates sample quality.
pub fn measure_coin_quality(n: usize, n_values: u64, interactions: u64, seed: u64) -> CoinQuality {
    let harness = CoinHarness::new(n, n_values);
    let config = Configuration::clean(&harness);
    let mut sim = Simulation::new(harness, config, seed);
    sim.run(interactions);
    let mut counts = vec![0u64; n_values as usize];
    for agent in sim.configuration().iter() {
        for (value, &count) in agent.counts.iter().enumerate() {
            counts[value] += count;
        }
    }
    let samples: u64 = counts.iter().sum();
    let uniform = 1.0 / n_values as f64;
    let mut tv = 0.0;
    let mut min_p = f64::MAX;
    let mut max_p = f64::MIN;
    for &count in &counts {
        let p = if samples == 0 {
            0.0
        } else {
            count as f64 / samples as f64
        };
        tv += (p - uniform).abs();
        min_p = min_p.min(p);
        max_p = max_p.max(p);
    }
    CoinQuality {
        samples,
        tv_distance: tv / 2.0,
        min_scaled_probability: min_p * n_values as f64,
        max_scaled_probability: max_p * n_values as f64,
    }
}

/// E9 — synthetic-coin sample quality (Appendix B).
pub fn e9_coin(scale: Scale) -> Table {
    let mut table = Table::new(
        "E9 — synthetic-coin derandomization quality (Appendix B)",
        &[
            "sample space N",
            "population n",
            "samples",
            "TV distance to uniform",
            "min scaled probability (≥ 0.5 required)",
            "max scaled probability (≤ 2 required)",
        ],
    );
    let n = scale.fixed_n();
    let interactions = match scale {
        Scale::Tiny => 60_000u64,
        Scale::Quick => 300_000,
        Scale::Full => 1_500_000,
    };
    for n_values in [8u64, 64, 256] {
        let quality = measure_coin_quality(
            n,
            n_values,
            interactions,
            scale.base_seed() ^ 0xE9 ^ n_values,
        );
        table.push_row([
            n_values.to_string(),
            n.to_string(),
            quality.samples.to_string(),
            fmt_f64(quality.tv_distance),
            fmt_f64(quality.min_scaled_probability),
            fmt_f64(quality.max_scaled_probability),
        ]);
    }
    table.push_note(
        "Appendix B requires every value's probability to lie in [1/(2N), 2/N]; the scaled \
         probabilities must therefore lie in [0.5, 2]."
            .to_string(),
    );
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn load_balancing_balances_an_extreme_start() {
        let meetings = load_balancing_meetings(8, 7);
        assert!(meetings > 0);
        assert!(meetings < 10_000_000, "balancing must terminate");
    }

    #[test]
    fn coin_quality_is_close_to_uniform() {
        let quality = measure_coin_quality(32, 8, 120_000, 11);
        assert!(quality.samples > 1_000);
        assert!(
            quality.tv_distance < 0.1,
            "TV distance {}",
            quality.tv_distance
        );
        assert!(quality.min_scaled_probability >= 0.5);
        assert!(quality.max_scaled_probability <= 2.0);
    }

    #[test]
    fn e9_produces_three_rows() {
        let table = e9_coin(Scale::Tiny);
        assert_eq!(table.rows.len(), 3);
    }

    #[test]
    fn e8_reports_epidemic_constant_below_paper_bound() {
        let table = e8_substrate(Scale::Tiny);
        let epidemic_rows: Vec<_> = table
            .rows
            .iter()
            .filter(|row| row[0].contains("epidemic"))
            .collect();
        assert_eq!(epidemic_rows.len(), Scale::Tiny.n_values().len());
        for row in epidemic_rows {
            let mean: f64 = row[3].parse().unwrap();
            assert!(
                mean < 7.0,
                "epidemic constant {mean} exceeds the paper's c_epi < 7"
            );
        }
    }
}
