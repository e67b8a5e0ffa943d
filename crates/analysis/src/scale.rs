//! Experiment scales.
//!
//! Every experiment can run at two scales: [`Scale::Quick`] keeps grids and
//! trial counts small enough for CI (seconds to a few minutes in total),
//! [`Scale::Full`] uses the paper-scale grids. Both scales exercise exactly
//! the same code paths. The driver's usage text (`experiments --help`) lists
//! the scale tokens.

use serde::Serialize;

pub use ppsim::EngineKind;

/// How large an experiment run should be.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum Scale {
    /// Minimal instances exercising every code path — used by the unit and
    /// integration tests (debug builds).
    Tiny,
    /// Small grids and few trials — for CI.
    Quick,
    /// The paper-scale grids.
    Full,
}

impl Scale {
    /// Parses a scale from a command-line token.
    pub fn parse(token: &str) -> Option<Scale> {
        match token {
            "tiny" => Some(Scale::Tiny),
            "quick" => Some(Scale::Quick),
            "full" => Some(Scale::Full),
            _ => None,
        }
    }

    /// Parses the optional scale argument of a command line: absent means
    /// [`Scale::Quick`], and a token [`Scale::parse`] rejects is an error
    /// naming it, never a silent fallback.
    pub fn from_arg(token: Option<&str>) -> Result<Scale, String> {
        match token {
            None => Ok(Scale::Quick),
            Some(token) => Scale::parse(token)
                .ok_or_else(|| format!("unknown scale `{token}` (expected tiny, quick or full)")),
        }
    }

    /// The token [`Scale::parse`] accepts for this scale — the canonical
    /// wire spelling used by job specs and CLIs.
    pub fn label(self) -> &'static str {
        match self {
            Scale::Tiny => "tiny",
            Scale::Quick => "quick",
            Scale::Full => "full",
        }
    }

    /// Number of trials per experiment cell.
    pub fn trials(self) -> usize {
        match self {
            Scale::Tiny => 2,
            Scale::Quick => 3,
            Scale::Full => 10,
        }
    }

    /// The population size used by experiments with a fixed `n` and a sweep
    /// over `r`.
    pub fn fixed_n(self) -> usize {
        match self {
            Scale::Tiny => 16,
            Scale::Quick => 48,
            Scale::Full => 96,
        }
    }

    /// The `r` sweep at [`Scale::fixed_n`] used by E2 and E5.
    pub fn r_values(self) -> Vec<usize> {
        let n = self.fixed_n();
        let mut values = vec![1, 2];
        let mut r = 4;
        while r <= n / 2 {
            values.push(r);
            r *= 2;
        }
        if !values.contains(&(n / 2)) {
            values.push(n / 2);
        }
        values
    }

    /// The population sizes used by experiments that sweep `n` (E1's
    /// `(n, r)` grid, E3, E6).
    pub fn n_values(self) -> Vec<usize> {
        match self {
            Scale::Tiny => vec![8, 16],
            Scale::Quick => vec![16, 32, 48],
            Scale::Full => vec![32, 64, 96, 128],
        }
    }

    /// The fixed `(n, r)` pair used by the recovery and soft-reset
    /// experiments (E4/E7).
    pub fn recovery_instance(self) -> (usize, usize) {
        match self {
            Scale::Tiny => (16, 4),
            Scale::Quick => (32, 8),
            Scale::Full => (64, 16),
        }
    }

    /// The population sizes used by the batched-engine scale sweep (E10).
    ///
    /// These are orders of magnitude beyond [`Scale::n_values`]: the batched
    /// engine's cost is proportional to state-*changing* interactions, so
    /// populations of 10⁶–10⁷ agents stay cheap.
    pub fn batched_n_values(self) -> Vec<usize> {
        match self {
            Scale::Tiny => vec![1_000, 10_000],
            Scale::Quick => vec![10_000, 100_000, 1_000_000],
            Scale::Full => vec![100_000, 1_000_000, 10_000_000, 100_000_000],
        }
    }

    /// The number of trials the E10 scale sweep runs at population size `n`.
    ///
    /// [`Scale::trials`] up to `10⁷`; capped at 3 from `10⁸` on, where a
    /// single run is tens of seconds per engine and the sweep's point is
    /// completion (and peak memory) rather than tight confidence intervals.
    pub fn e10_trials(self, n: usize) -> usize {
        if n >= 100_000_000 {
            self.trials().min(3)
        } else {
            self.trials()
        }
    }

    /// The largest population the *per-step* engine is run at in the E10
    /// sweep (beyond this only the batched engine runs — per-step cost grows
    /// as `Θ(n log n)` interactions each paid individually).
    pub fn per_step_n_cap(self) -> usize {
        match self {
            Scale::Tiny => 10_000,
            Scale::Quick => 100_000,
            Scale::Full => 1_000_000,
        }
    }

    /// The engines the E10 scale sweep runs at population size `n`: both
    /// count-based engines and the adaptive `Auto` tier always (the fixed
    /// engines' duel plus the adaptive engine's claim to match the winner
    /// are the point of the experiment), the per-step engine up to
    /// [`Scale::per_step_n_cap`].
    pub fn e10_engines(self, n: usize) -> Vec<EngineKind> {
        let mut engines = vec![
            EngineKind::Batched,
            EngineKind::MultiBatch,
            EngineKind::Auto,
        ];
        if n <= self.per_step_n_cap() {
            engines.insert(0, EngineKind::PerStep);
        }
        engines
    }

    /// The population sizes at which E11 runs `ElectLeader_r` under the
    /// dynamically indexed count engines and the per-step engine.
    ///
    /// Far smaller than [`Scale::batched_n_values`]: `ElectLeader_r` states
    /// are *wide* (message stores of size `Θ(r²)`) and nearly every
    /// interaction is state-changing before stabilization, so the sweep is
    /// bounded by per-state work rather than by silent-run skipping.
    pub fn discovered_n_values(self) -> Vec<usize> {
        match self {
            Scale::Tiny => vec![12, 16],
            Scale::Quick => vec![16, 24, 32, 48],
            Scale::Full => vec![16, 24, 32, 48, 64, 96],
        }
    }

    /// The base seed from which all per-trial seeds are derived.
    pub fn base_seed(self) -> u64 {
        match self {
            Scale::Tiny => 0x5A5A_0000,
            Scale::Quick => 0x5A5A_0001,
            Scale::Full => 0x5A5A_0002,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_round_trips() {
        assert_eq!(Scale::parse("tiny"), Some(Scale::Tiny));
        assert_eq!(Scale::parse("quick"), Some(Scale::Quick));
        assert_eq!(Scale::parse("full"), Some(Scale::Full));
        assert_eq!(Scale::parse("medium"), None);
        for scale in [Scale::Tiny, Scale::Quick, Scale::Full] {
            assert_eq!(Scale::parse(scale.label()), Some(scale));
        }
    }

    #[test]
    fn from_arg_defaults_to_quick_and_rejects_typos() {
        assert_eq!(Scale::from_arg(None), Ok(Scale::Quick));
        assert_eq!(Scale::from_arg(Some("full")), Ok(Scale::Full));
        let err = Scale::from_arg(Some("quik")).unwrap_err();
        assert!(err.contains("`quik`"), "{err}");
    }

    #[test]
    fn r_values_respect_the_theorem_range() {
        for scale in [Scale::Tiny, Scale::Quick, Scale::Full] {
            let n = scale.fixed_n();
            let rs = scale.r_values();
            assert!(rs.iter().all(|&r| r >= 1 && r <= n / 2), "{rs:?}");
            assert!(rs.contains(&(n / 2)), "the fastest regime must be included");
            assert!(rs.contains(&1), "the smallest regime must be included");
            // `windows(2)` checks real strict monotonicity; `dedup()` on the
            // unsorted clone used before only caught *adjacent* duplicates
            // and would have accepted an out-of-order grid.
            assert!(
                rs.windows(2).all(|w| w[0] < w[1]),
                "values must be strictly increasing: {rs:?}"
            );
        }
    }

    #[test]
    fn full_scale_is_larger_than_quick() {
        assert!(Scale::Full.trials() > Scale::Quick.trials());
        assert!(Scale::Full.fixed_n() > Scale::Quick.fixed_n());
        assert!(Scale::Full.n_values().last() > Scale::Quick.n_values().last());
        assert!(Scale::Full.batched_n_values().last() > Scale::Quick.batched_n_values().last());
    }

    #[test]
    fn per_step_cap_keeps_some_overlap_for_comparison() {
        for scale in [Scale::Tiny, Scale::Quick, Scale::Full] {
            let cap = scale.per_step_n_cap();
            assert!(
                scale.batched_n_values().iter().any(|&n| n <= cap),
                "at least one n must run under both engines"
            );
        }
    }

    #[test]
    fn e10_engines_always_include_count_engines_and_auto() {
        for scale in [Scale::Tiny, Scale::Quick, Scale::Full] {
            for &n in &scale.batched_n_values() {
                let engines = scale.e10_engines(n);
                assert!(engines.contains(&EngineKind::Batched));
                assert!(engines.contains(&EngineKind::MultiBatch));
                assert!(engines.contains(&EngineKind::Auto));
                assert_eq!(
                    engines.contains(&EngineKind::PerStep),
                    n <= scale.per_step_n_cap()
                );
            }
        }
    }

    #[test]
    fn e10_trials_cap_only_bites_at_the_largest_populations() {
        for scale in [Scale::Tiny, Scale::Quick, Scale::Full] {
            for &n in &scale.batched_n_values() {
                let trials = scale.e10_trials(n);
                assert!(trials >= 1);
                if n < 100_000_000 {
                    assert_eq!(trials, scale.trials(), "no cap below 10^8");
                } else {
                    assert!(trials <= 3, "10^8 cells must stay cheap: {trials}");
                }
            }
        }
        // The cap is reachable at full scale, where the 10^8 row lives.
        assert!(Scale::Full.batched_n_values().contains(&100_000_000));
        assert_eq!(Scale::Full.e10_trials(100_000_000), 3);
    }

    #[test]
    fn discovered_sweep_is_monotone_and_admits_the_fast_ratio() {
        for scale in [Scale::Tiny, Scale::Quick, Scale::Full] {
            let ns = scale.discovered_n_values();
            assert!(ns.windows(2).all(|w| w[0] < w[1]), "{ns:?}");
            // Every sweep point admits the fast-regime ratio r = max(1, n/4)
            // within the theorem range 1 <= r <= n/2.
            assert!(ns.iter().all(|&n| (n / 4).max(1) <= n / 2));
        }
    }
}
