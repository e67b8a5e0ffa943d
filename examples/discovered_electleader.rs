//! `ElectLeader_r` under the count-based engines via the dynamic state
//! indexer, through the unified `ppsim::engine` API.
//!
//! The protocol's reachable state space is far too large to enumerate, so
//! the classic batched-engine route (a hand-written `EnumerableProtocol`
//! bijection) is closed; [`DiscoveredProtocol`] opens it by assigning state
//! indices lazily as states are first reached. This example measures the
//! stabilization time of the correct-ranking predicate under any engine
//! tier (`batched`, `multibatch`, `auto`, `per-step`) and reports how many
//! states were actually discovered — a tiny corner of the nominal space.
//!
//! ```bash
//! cargo run --release --example discovered_electleader -- [n] [r] [trials] [engine]
//! ```

use harness::Cli;
use ppsim::simulation::StabilizationOptions;
use ppsim::{DiscoveredProtocol, EngineKind, EnumerableProtocol, SimBuilder};
use ssle_core::{output, ElectLeader};
use std::time::Instant;

const USAGE: &str =
    "usage: discovered_electleader [n] [r] [trials] [per-step|batched|multibatch|auto]";

fn main() {
    let cli = Cli::new(USAGE, std::env::args().skip(1), 4);
    let n: usize = cli.arg(0).unwrap_or(48);
    let r: usize = cli.arg(1).unwrap_or_else(|| (n / 4).max(1));
    let trials: u64 = cli.arg(2).unwrap_or(3);
    let kind = cli
        .arg_with(3, EngineKind::parse)
        .unwrap_or(EngineKind::Batched);
    if let Err(e) = ElectLeader::with_n_r(n, r) {
        cli.reject(&format!("invalid parameters `{n} {r}`: {e}"));
    }
    if trials == 0 {
        cli.reject("trials `0` must be at least 1");
    }

    println!(
        "ElectLeader_{r} on n = {n} agents, {} engine via dynamic indexing",
        kind.label()
    );
    for trial in 0..trials {
        let protocol = ElectLeader::with_n_r(n, r).expect("parameters checked above");
        let budget = protocol.params().suggested_budget();
        let discovered = DiscoveredProtocol::new(protocol);
        let handle = discovered.clone();
        let mut sim = SimBuilder::new(discovered)
            .kind(kind)
            .seed(0xE11 + trial)
            .build();
        let started = Instant::now();
        let result = sim.measure_stabilization(
            &mut |c| output::is_correct_output_counts(&handle, c),
            StabilizationOptions::new(n, budget),
        );
        let wall_ms = started.elapsed().as_secs_f64() * 1_000.0;
        match result.stabilized_at {
            Some(at) => println!(
                "  trial {trial}: stabilized at interaction {at} \
                 (parallel time {:.1}), {} of {} executed before the stop, \
                 {} states discovered, {wall_ms:.0} ms",
                at as f64 / n as f64,
                at.min(result.interactions),
                result.interactions,
                sim.protocol().num_states(),
            ),
            None => println!(
                "  trial {trial}: did not stabilize within {budget} interactions \
                 ({} states discovered, {wall_ms:.0} ms)",
                sim.protocol().num_states(),
            ),
        }
    }
}
