//! Property-based tests for the core protocol's data structures and
//! invariants: the rank-space partition, the circulating-message system, the
//! load balancer, collision-detection soundness, the ranking sub-protocol,
//! and the committed-rank census behind the output predicates.

use ppsim::{AgentId, Configuration, InteractionCtx, SimRng, Simulation, WordHash};
use proptest::prelude::*;
use rand::RngCore;
use ssle_core::groups::GroupPartition;
use ssle_core::output;
use ssle_core::params::{Constants, Params};
use ssle_core::verify::{
    balance_load, detect_collision, initial_state, CollisionState, DetectCollisionState,
    MessageStore, Observations, INITIAL_CONTENT, MAX_CONTENT,
};
use ssle_core::{AgentState, ElectLeader, Scenario};
use std::hash::BuildHasher;

fn arb_n_r() -> impl Strategy<Value = (usize, usize)> {
    (4usize..48).prop_flat_map(|n| (Just(n), 1usize..=(n / 2).max(1)))
}

/// A mid-run write to a simulation's configuration, made between two
/// interactions: `(kind, agent, other agent, rank)`.
type Corruption = (u32, usize, usize, u32);

/// Applies a [`Corruption`] through one of the configuration's mutable
/// accessors, each of which must leave the census stale.
fn corrupt(sim: &mut Simulation<ElectLeader>, (kind, i, j, rank): Corruption) {
    let protocol = sim.protocol().clone();
    let n = protocol.params().n;
    let (i, j) = (i % n, j % n);
    let rank = 1 + rank % n as u32;
    let config = sim.configuration_mut();
    match kind {
        // IndexMut: a verifier with a random rank, often a duplicate.
        0 => config[i] = protocol.verifier_state(rank),
        // state_mut: copy another agent's state, duplicating its rank.
        1 => {
            let copy = config[j].clone();
            *config.state_mut(AgentId::new(i)) = copy;
        }
        // iter_mut: every agent from `i` on becomes a fresh ranker or a
        // verifier of a shifted rank.
        2 => {
            for (k, state) in config.iter_mut().enumerate().skip(i) {
                *state = if k % 2 == 0 {
                    AgentState::fresh_ranker(protocol.params())
                } else {
                    protocol.verifier_state(rank + k as u32)
                };
            }
        }
        // Replace the whole configuration through `configuration_mut()`.
        _ => {
            let mut rng = SimRng::seed_from_u64(u64::from(rank));
            let catalog = Scenario::catalog(n);
            *config = catalog[j % catalog.len()].generate(&protocol, &mut rng);
        }
    }
}

/// Asserts that the O(1) predicates equal their scans.
fn assert_census_exact(config: &Configuration<AgentState>) {
    prop_assert_eq!(
        output::is_correct_output(config),
        output::is_correct_output_scan(config)
    );
    prop_assert_eq!(
        output::leader_count(config),
        output::leader_count_scan(config)
    );
}

proptest! {
    /// The rank-space partition covers every rank exactly once, with group
    /// sizes within the prescribed band.
    #[test]
    fn partition_is_exact_and_balanced((n, r) in arb_n_r()) {
        let partition = GroupPartition::with_sizes(n, r);
        let mut covered = vec![0usize; n + 1];
        for g in 0..partition.num_groups() {
            let size = partition.group_size(g);
            prop_assert!(size <= r);
            prop_assert!(2 * size >= r, "group {g} smaller than r/2");
            for rank in partition.ranks_in(g) {
                covered[rank as usize] += 1;
                prop_assert_eq!(partition.group_of(rank), g);
                prop_assert!(partition.position_in_group(rank) < size);
            }
        }
        prop_assert!(covered[1..].iter().all(|&c| c == 1));
    }

    /// Parameter validation accepts exactly the Theorem 1.1 range.
    #[test]
    fn params_validation_matches_theorem_range(n in 0usize..100, r in 0usize..100) {
        let ok = Params::new(n, r).is_ok();
        let expected = n >= 4 && r >= 1 && r <= n / 2;
        prop_assert_eq!(ok, expected);
    }

    /// The initial message stores of a group tile the ID space exactly once
    /// for every governing rank.
    #[test]
    fn initial_message_blocks_tile_the_id_space(m in 1usize..12) {
        let ids = 2 * (m as u32) * (m as u32);
        let stores: Vec<MessageStore> =
            (0..m).map(|p| MessageStore::initial(m, ids, p)).collect();
        for governor in 0..m {
            let mut seen = vec![0u32; ids as usize + 1];
            for store in &stores {
                for msg in store.messages_for(governor) {
                    seen[msg.id() as usize] += 1;
                }
            }
            prop_assert!(seen[1..].iter().all(|&c| c == 1));
        }
    }

    /// Load balancing conserves the multiset of messages and leaves every
    /// (governor, content) class split evenly (difference at most one).
    #[test]
    fn balance_load_conserves_and_balances(
        m in 1usize..6,
        seed in any::<u64>(),
        moves in 1usize..20,
    ) {
        let ids = 2 * (m as u32) * (m as u32);
        let mut rng = SimRng::seed_from_u64(seed);
        // Build two agents with random disjoint message sets and random
        // contents.
        let mut u = CollisionState {
            signature: INITIAL_CONTENT,
            counter: 1,
            msgs: MessageStore::empty(m, ids),
            observations: Observations::initial(ids),
        };
        let mut v = u.clone();
        let mut expected: Vec<(usize, u32, u64)> = Vec::new();
        for governor in 0..m {
            for id in 1..=ids {
                match rng.next_u32() % 3 {
                    0 => {
                        let content = 1 + u64::from(rng.next_u32() % 4);
                        u.msgs.insert(governor, id, content);
                        expected.push((governor, id, content));
                    }
                    1 => {
                        let content = 1 + u64::from(rng.next_u32() % 4);
                        v.msgs.insert(governor, id, content);
                        expected.push((governor, id, content));
                    }
                    _ => {}
                }
            }
        }
        expected.sort_unstable();
        for _ in 0..moves {
            balance_load(&mut u, &mut v, m);
            // Conservation: the union of both stores is exactly the expected
            // multiset (and no (governor, id) is duplicated).
            let mut actual: Vec<(usize, u32, u64)> = Vec::new();
            for governor in 0..m {
                for msg in u.msgs.messages_for(governor) {
                    actual.push((governor, msg.id(), msg.content()));
                }
                for msg in v.msgs.messages_for(governor) {
                    actual.push((governor, msg.id(), msg.content()));
                }
            }
            actual.sort_unstable();
            prop_assert_eq!(&actual, &expected);
            // Balance: per (governor, content) class the counts differ by ≤ 1.
            for governor in 0..m {
                let mut per_content: std::collections::BTreeMap<u64, (i64, i64)> =
                    std::collections::BTreeMap::new();
                for msg in u.msgs.messages_for(governor) {
                    per_content.entry(msg.content()).or_default().0 += 1;
                }
                for msg in v.msgs.messages_for(governor) {
                    per_content.entry(msg.content()).or_default().1 += 1;
                }
                for (content, (a, b)) in per_content {
                    prop_assert!((a - b).abs() <= 1, "content {content}: {a} vs {b}");
                }
            }
        }
    }

    /// An observations array reads, checks, compares and hashes exactly like
    /// a plain `Vec<u64>` of its values, through random `set`s and `record`s
    /// over random ID subsets. Contents come from pools of 4, 300 and `2m²`
    /// values: the larger pools fill the 256-entry palette, so it drops
    /// stale entries, and with enough distinct values in use switches to one
    /// word per ID.
    #[test]
    fn observations_match_a_plain_word_array(
        m in 1usize..=16,
        pool in 0usize..3,
        seed in any::<u64>(),
        ops in 1usize..1000,
        wide_records in any::<bool>(),
    ) {
        let ids = 2 * (m as u32) * (m as u32);
        let pool = [4, 300, u64::from(ids)][pool];
        let mut rng = SimRng::seed_from_u64(seed);
        let mut below = |bound: u64| rng.next_u64() % bound;
        // The pool's contents, spread over the whole content range.
        let content = |index: u64| 1 + (index % pool).wrapping_mul(0x9E37_79B9_7F4A_7C15) % MAX_CONTENT;
        // Every `stride`-th ID from a random start, up to a random count of
        // at most one of `sizes` (so sometimes none).
        let subset = |below: &mut dyn FnMut(u64) -> u64, sizes: &[u64]| -> Vec<u32> {
            let start = 1 + below(u64::from(ids)) as u32;
            let stride = 1 + below(3) as usize;
            let most = sizes[below(sizes.len() as u64) as usize];
            (start..=ids).step_by(stride).take(below(most + 1) as usize).collect()
        };
        let mut observations = Observations::initial(ids);
        let mut model = vec![INITIAL_CONTENT; ids as usize];
        let mut previous = (observations.clone(), model.clone());
        let start = below(u64::from(ids)) as usize;
        for op in 0..ops {
            if below(4) != 0 {
                // Sets take the IDs and the pool's contents in turn, so
                // many contents stay in use at once.
                let (id, value) = (1 + (start + op) as u32 % ids, content(op as u64));
                observations.set(id, value);
                model[(id - 1) as usize] = value;
            } else {
                // Narrow records, too, leave many contents in use.
                let sizes = if wide_records { &[1, 8, 64, u64::from(ids)][..] } else { &[1, 8] };
                let chosen = subset(&mut below, sizes);
                let value = content(below(pool));
                observations.record(&chosen, value);
                for &id in &chosen {
                    model[(id - 1) as usize] = value;
                }
            }
            for id in 1..=ids {
                prop_assert_eq!(observations.get(id), model[(id - 1) as usize], "op {}", op);
            }
            for _ in 0..2 {
                let chosen = subset(&mut below, &[1, 8, 64, u64::from(ids)]);
                // A content held somewhere, or one from the pool.
                let value = if below(2) == 0 {
                    model[below(u64::from(ids)) as usize]
                } else {
                    content(below(pool))
                };
                prop_assert_eq!(
                    observations.any_differs(&chosen, value),
                    chosen.iter().any(|&id| model[(id - 1) as usize] != value)
                );
            }
            prop_assert_eq!(observations == previous.0, model == previous.1);
            // An array feeds its cached content hash, the `WordHash` of its
            // values as a `Vec<u64>`, to the hasher that hashes it.
            prop_assert_eq!(
                WordHash.hash_one(&observations),
                WordHash.hash_one(WordHash.hash_one(&model))
            );
            let (payload, words) = (observations.payload_bytes(), 8 * model.len());
            prop_assert!(payload == words || payload <= model.len() + 8 * 256);
            previous = (observations.clone(), model.clone());
        }
    }

    /// Soundness (Lemma E.2 / E.1(a)) as a property: starting from correctly
    /// initialized collision-detection states on *distinct* ranks, no
    /// sequence of interactions ever produces the error state.
    #[test]
    fn detect_collision_has_no_false_positives(
        (n, r) in (6usize..24).prop_flat_map(|n| (Just(n), 2usize..=(n / 2).max(2))),
        seed in any::<u64>(),
        interactions in 1usize..400,
    ) {
        let params = Params::new(n, r).unwrap();
        let partition = GroupPartition::new(&params);
        // Pick the first group and give each of its ranks to one agent.
        let ranks: Vec<u32> = partition.ranks_in(0).collect();
        prop_assume!(ranks.len() >= 2);
        let mut states: Vec<DetectCollisionState> = ranks
            .iter()
            .map(|&rank| initial_state(&params, &partition, rank))
            .collect();
        let mut rng = SimRng::seed_from_u64(seed);
        for step in 0..interactions {
            let i = (rng.next_u64() % ranks.len() as u64) as usize;
            let mut j = (rng.next_u64() % (ranks.len() as u64 - 1)) as usize;
            if j >= i {
                j += 1;
            }
            let (a, b) = if i < j {
                let (l, rest) = states.split_at_mut(j);
                (&mut l[i], &mut rest[0])
            } else {
                let (l, rest) = states.split_at_mut(i);
                (&mut rest[0], &mut l[j])
            };
            let mut ctx = InteractionCtx::new(&mut rng, step as u64);
            detect_collision(&params, &partition, ranks[i], a, ranks[j], b, &mut ctx);
            prop_assert!(!a.is_error(), "false positive at step {step}");
            prop_assert!(!b.is_error(), "false positive at step {step}");
        }
        // Message conservation across the whole run.
        let per_rank = params.message_ids_per_rank(ranks.len()) as usize;
        let total: usize = states.iter().map(|s| s.active().unwrap().msgs.total()).sum();
        prop_assert_eq!(total, per_rank * ranks.len());
    }

    /// Completeness at the micro level: two correctly initialized agents with
    /// the same rank raise the error on their first interaction.
    #[test]
    fn detect_collision_flags_equal_ranks_immediately(
        (n, r) in arb_n_r(),
        rank_index in 0usize..64,
        seed in any::<u64>(),
    ) {
        let params = Params::new(n, r).unwrap();
        let partition = GroupPartition::new(&params);
        let rank = (rank_index % n) as u32 + 1;
        let mut u = initial_state(&params, &partition, rank);
        let mut v = initial_state(&params, &partition, rank);
        let mut rng = SimRng::seed_from_u64(seed);
        let mut ctx = InteractionCtx::new(&mut rng, 0);
        detect_collision(&params, &partition, rank, &mut u, rank, &mut v, &mut ctx);
        prop_assert!(u.is_error());
        prop_assert!(v.is_error());
    }

    /// The state-bit accounting is monotone in r (more states for a faster
    /// protocol), the quantitative heart of the trade-off.
    #[test]
    fn state_bits_monotone_in_r(n in 8usize..200) {
        let mut last = 0.0f64;
        let mut r = 1usize;
        while r <= n / 2 {
            let bits = ssle_core::state_bits(&Params::new(n, r).unwrap()).total();
            prop_assert!(bits >= last, "bits decreased at r = {r}");
            last = bits;
            r *= 2;
        }
    }

    /// The committed-rank census is exact: on random trajectories from every
    /// catalog scenario, with writes through every mutable accessor between
    /// interactions, `is_correct_output` and `leader_count` equal their
    /// scans at every interaction, and every commit leaves the census fresh
    /// (so the O(1) path is the one checked).
    ///
    /// Half the cases run with short timers. At the default ones a reset
    /// outlasts the trajectory, so a duplicated rank is never resolved into
    /// a correct output, and a census that miscounts a key leaving a
    /// duplicate would go unseen.
    #[test]
    fn rank_census_matches_the_scans(
        n in 8usize..=32,
        rule in 0usize..3,
        scenario in 0usize..12,
        short_timers in any::<bool>(),
        seed in any::<u64>(),
        steps in 1u64..3000,
        corruptions in proptest::collection::vec(
            (0u64..3000, (0u32..4, any::<usize>(), any::<usize>(), any::<u32>())),
            0..5,
        ),
    ) {
        let r = match rule {
            0 => 1,
            1 => (n as f64).sqrt().ceil() as usize,
            _ => n / 4,
        };
        let constants = if short_timers {
            Constants {
                c_countdown: 2.0,
                c_prob: 2.0,
                c_reset_count: 2.0,
                c_delay: 2.0,
                c_sleep: 2.0,
                c_le: 4.0,
                ..Constants::default()
            }
        } else {
            Constants::default()
        };
        let protocol = ElectLeader::new(Params::with_constants(n, r, constants).unwrap());
        let catalog = Scenario::catalog(n);
        let mut rng = SimRng::seed_from_u64(seed);
        let config = catalog[scenario % catalog.len()].generate(&protocol, &mut rng);
        let mut sim = Simulation::new(protocol, config, seed);
        assert_census_exact(sim.configuration());
        for step in 0..steps {
            for &(_, corruption) in corruptions.iter().filter(|(at, _)| *at == step) {
                corrupt(&mut sim, corruption);
                prop_assert!(output::rank_census(sim.configuration()).is_none());
                assert_census_exact(sim.configuration());
            }
            sim.step();
            prop_assert!(output::rank_census(sim.configuration()).is_some(), "stale at {step}");
            assert_census_exact(sim.configuration());
        }
    }
}
