//! E1 and E2 — the two axes of the Theorem 1.1 trade-off.
//!
//! * **E1 (time)**: over the `(n, r)` grid — `n` from [`Scale::n_values`],
//!   `r` from the rules `R_RULES` `{1, ⌈ln n⌉, ⌈√n⌉, n/4}` — measure the
//!   stabilization time on the per-step engine from both a clean start and
//!   a uniformly random adversarial start. The paper predicts
//!   `O((n²/r) log n)` interactions. E1 fits two kinds of clean-start
//!   log–log slope: in `n` for each rule (≈ 2 at constant `r`, falling
//!   toward ≈ 1 as `r` grows with `n`) and in `r` for each `n` (≈ −1).
//! * **E2 (space)**: at a fixed population size, sweep `r` and report the
//!   bit complexity of the state space (per the Fig. 1–4 structure) and the
//!   measured in-memory footprint of a verifier state. The paper predicts
//!   `2^{O(r² log n)}` states, i.e. bit complexity growing roughly like
//!   `r²`.

use crate::experiments::ssle_trial;
use crate::runner::summarize_trials;
use crate::scale::Scale;
use crate::table::{fmt_f64, Table};
use ppsim::rng::derive_seed;
use ppsim::stats::log_log_slope;
use ppsim::TrialFleet;
use ssle_core::{measured_state_bytes, state_bits, ElectLeader, Params, Scenario};

/// A named `r` rule of the E1 grid: its label and its value as a function
/// of `n`, before clamping.
type RRule = (&'static str, fn(usize) -> usize);

/// The `r` rules of the E1 grid, in ascending-`r` order: the space-frugal
/// extreme, two sub-linear rules, and the fast regime.
const R_RULES: [RRule; 4] = [
    ("r = 1", |_| 1),
    ("r = ceil(ln n)", |n| (n as f64).ln().ceil() as usize),
    ("r = ceil(sqrt n)", |n| (n as f64).sqrt().ceil() as usize),
    ("r = n/4", |n| n / 4),
];

/// The value of `rule` at population size `n`, clamped into the theorem
/// range `1 ≤ r ≤ n/2`.
fn rule_r(rule: &RRule, n: usize) -> usize {
    (rule.1)(n).clamp(1, (n / 2).max(1))
}

/// The `r` values of [`R_RULES`] at population size `n`: clamped,
/// deduplicated, ascending.
fn grid_r_values(n: usize) -> Vec<usize> {
    let mut values: Vec<usize> = R_RULES.iter().map(|rule| rule_r(rule, n)).collect();
    values.sort_unstable();
    values.dedup();
    values
}

/// E1 — stabilization time over the `(n, r)` grid.
pub fn e1_tradeoff_time(scale: Scale) -> Table {
    let mut table = Table::new(
        "E1 — stabilization time over the (n, r) grid (Theorem 1.1 time axis)",
        &[
            "n",
            "r",
            "start",
            "trials",
            "success rate",
            "mean parallel time",
            "p90 parallel time",
            "mean interactions",
            "bound n²·ln n / (r·n)",
        ],
    );

    // (n, r, mean clean-start stabilization interactions) per cell.
    let mut clean: Vec<(usize, usize, f64)> = Vec::new();
    for &n in &scale.n_values() {
        for r in grid_r_values(n) {
            let base_seed = derive_seed(scale.base_seed() ^ 0xE1, (n * 131 + r) as u64);
            for scenario in [Scenario::Clean, Scenario::UniformRandom] {
                let outcomes = TrialFleet::new(scale.trials(), base_seed)
                    .run(|seed| ssle_trial(n, r, scenario, seed));
                let summary = summarize_trials(&outcomes);
                let bound = (n as f64).powi(2) * (n as f64).ln() / (r as f64 * n as f64);
                let mean_pt = summary.mean_parallel_time();
                table.push_row([
                    n.to_string(),
                    r.to_string(),
                    scenario.name(),
                    summary.trials.to_string(),
                    fmt_f64(summary.success_rate()),
                    mean_pt.map(fmt_f64).unwrap_or_else(|| "-".into()),
                    summary
                        .parallel_time
                        .map(|s| fmt_f64(s.p90))
                        .unwrap_or_else(|| "-".into()),
                    mean_pt
                        .map(|t| fmt_f64(t * n as f64))
                        .unwrap_or_else(|| "-".into()),
                    fmt_f64(bound),
                ]);
                if let (Scenario::Clean, Some(mean)) = (scenario, mean_pt) {
                    clean.push((n, r, mean * n as f64));
                }
            }
        }
    }

    for rule in &R_RULES {
        let cells: Vec<(usize, usize, f64)> = clean
            .iter()
            .copied()
            .filter(|&(n, r, _)| rule_r(rule, n) == r)
            .collect();
        if cells.len() >= 2 {
            let measured: Vec<(f64, f64)> = cells.iter().map(|&(n, _, m)| (n as f64, m)).collect();
            let predicted: Vec<(f64, f64)> = cells
                .iter()
                .map(|&(n, r, _)| {
                    let n = n as f64;
                    (n, n * n / r as f64 * n.ln())
                })
                .collect();
            table.push_note(format!(
                "{}: clean-start log–log slope of mean interactions vs n: {:.2} \
                 (n²/r · ln n over the same cells: {:.2})",
                rule.0,
                log_log_slope(&measured),
                log_log_slope(&predicted)
            ));
        }
    }
    for &n in &scale.n_values() {
        let points: Vec<(f64, f64)> = clean
            .iter()
            .filter(|&&(cell_n, _, _)| cell_n == n)
            .map(|&(_, r, m)| (r as f64, m))
            .collect();
        if points.len() >= 2 {
            table.push_note(format!(
                "n = {n}: clean-start log–log slope of mean interactions vs r: {:.2} \
                 (Theorem 1.1 predicts ≈ -1 while the n²/r · log n term dominates, flattening \
                 once fixed overheads take over)",
                log_log_slope(&points)
            ));
        }
    }
    table.push_note(
        "Shape check: at every n, time decreases as r grows; r = n/4 is the fast regime, r = 1 \
         the poly-state regime. Each cell runs on the per-step engine, seeded from (n, r)."
            .to_string(),
    );
    table
}

/// E2 — state-space size versus the trade-off parameter `r`.
pub fn e2_state_space(scale: Scale) -> Table {
    let n = scale.fixed_n();
    let mut table = Table::new(
        format!("E2 — state-space size vs r (n = {n}, Theorem 1.1 space axis)"),
        &[
            "r",
            "groups",
            "group size",
            "bit complexity (total)",
            "bit complexity (verifier role)",
            "measured verifier bytes",
            "bound r²·log₂ n",
        ],
    );
    let mut points: Vec<(f64, f64)> = Vec::new();
    for &r in &scale.r_values() {
        let params = Params::new(n, r).expect("valid parameters");
        let protocol = ElectLeader::new(params);
        let bits = state_bits(&params);
        let partition = protocol.partition();
        let bytes = measured_state_bytes(&protocol.verifier_state(1));
        table.push_row([
            r.to_string(),
            partition.num_groups().to_string(),
            partition.group_size(0).to_string(),
            fmt_f64(bits.total()),
            fmt_f64(bits.verifying),
            bytes.to_string(),
            fmt_f64((r as f64).powi(2) * (n as f64).log2()),
        ]);
        points.push((r as f64, bits.total()));
    }
    if points.len() >= 2 {
        table.push_note(format!(
            "log-log slope of bit complexity vs r: {:.2} (paper bound 2^O(r² log n) predicts ≈ 2)",
            log_log_slope(&points)
        ));
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e2_reports_one_row_per_r_and_growing_bits() {
        let table = e2_state_space(Scale::Tiny);
        assert_eq!(table.rows.len(), Scale::Tiny.r_values().len());
        let first: f64 = table.rows.first().unwrap()[3].parse().unwrap();
        let last: f64 = table.rows.last().unwrap()[3].parse().unwrap();
        assert!(last > first, "bit complexity must grow with r");
        assert!(!table.notes.is_empty());
    }

    #[test]
    fn r_rules_stay_in_the_theorem_range() {
        for scale in [Scale::Tiny, Scale::Quick, Scale::Full] {
            for &n in &scale.n_values() {
                let rs = grid_r_values(n);
                assert!(rs.iter().all(|&r| r >= 1 && r <= n / 2), "{rs:?}");
                assert!(rs.windows(2).all(|w| w[0] < w[1]), "{rs:?}");
                assert!(rs.contains(&1), "the space-frugal extreme must stay");
                assert!(
                    rs.contains(&(n / 4)),
                    "the fast regime must stay: {rs:?} for n = {n}"
                );
            }
        }
    }

    #[test]
    fn e1_runs_at_tiny_scale_and_stabilizes() {
        let table = e1_tradeoff_time(Scale::Tiny);
        let ns = Scale::Tiny.n_values();
        // One clean and one uniform-random row per deduplicated (n, r) cell.
        for &n in &ns {
            for r in grid_r_values(n) {
                for start in ["clean", "uniform-random"] {
                    let matching = table
                        .rows
                        .iter()
                        .filter(|row| {
                            row[0] == n.to_string() && row[1] == r.to_string() && row[2] == start
                        })
                        .count();
                    assert_eq!(matching, 1, "n = {n}, r = {r}, {start}: {table:?}");
                }
            }
        }
        let cells: usize = ns.iter().map(|&n| grid_r_values(n).len()).sum();
        assert_eq!(table.rows.len(), 2 * cells, "{table:?}");
        // Clean-start rows should all stabilize at tiny scale.
        for row in table.rows.iter().filter(|row| row[2] == "clean") {
            let rate: f64 = row[4].parse().unwrap();
            assert_eq!(rate, 1.0, "clean-start success rate should be 1: {row:?}");
        }
        // One slope in n per rule, one slope in r per n.
        for (label, _) in &R_RULES {
            let prefix = format!("{label}: clean-start log–log slope of mean interactions vs n");
            assert!(
                table.notes.iter().any(|note| note.starts_with(&prefix)),
                "{label}: {:?}",
                table.notes
            );
        }
        for &n in &ns {
            let prefix = format!("n = {n}: clean-start log–log slope of mean interactions vs r");
            assert!(
                table.notes.iter().any(|note| note.starts_with(&prefix)),
                "n = {n}: {:?}",
                table.notes
            );
        }
    }
}
