//! Protocol parameters and tunable constants.
//!
//! `ElectLeader_r` is *strongly non-uniform*: the population size `n` and the
//! trade-off parameter `r` are baked into the transition function, together
//! with a handful of constants that the paper's analysis only fixes up to
//! "sufficiently large" (`C_max`, `P_max`, `R_max`, `D_max`, `c_sleep`, …).
//! [`Params`] collects all of them, supplies defaults matching the paper's
//! asymptotic prescriptions, and validates the constraints of Theorem 1.1
//! (`1 ≤ r ≤ n/2`).

use crate::groups::GroupPartition;
use crate::verify::MAX_GROUP_SIZE;
use ppsim::SimError;
use serde::{Deserialize, Serialize};

/// Tunable constants of `ElectLeader_r`.
///
/// Every field corresponds to a constant the paper leaves as "a sufficiently
/// large constant"; the defaults were chosen so that the protocol stabilizes
/// reliably at simulation scale while keeping running times practical. All
/// timer lengths are expressed as multiples of the asymptotic term they scale
/// (documented per field).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Constants {
    /// `C_max = c_countdown · (n/r) · ln n` — the ranker countdown forcing the
    /// transition to the verifier role (Section 4).
    pub c_countdown: f64,
    /// `P_max = c_prob · (n/r) · ln n` — the probation timer deciding between
    /// soft and hard resets (Section 5).
    pub c_prob: f64,
    /// `R_max = c_reset_count · ln n` — the reset epidemic counter of
    /// `PropagateReset` (Appendix C; the paper uses `60 · log n`).
    pub c_reset_count: f64,
    /// `D_max = c_delay · ln n` — the dormancy delay timer of
    /// `PropagateReset` (Appendix C).
    pub c_delay: f64,
    /// Sleep timer `c_sleep · ln n` used by `AssignRanks_r` (Appendix D).
    pub c_sleep: f64,
    /// Leader-election countdown `c_le · ln n` of `FastLeaderElect`
    /// (Appendix D.2; the paper requires `c > 14`).
    pub c_le: f64,
    /// Signature refresh period `c_sig · ln m` of `DetectCollision_r`
    /// (Section 5.1), where `m` is the group size.
    pub c_sig: f64,
    /// Label-pool blow-up `c_label > 1`: each deputy owns `⌈c_label · n / r⌉`
    /// labels (Section 3.3 / Appendix D).
    pub c_label: f64,
}

impl Constants {
    /// Every field with its name, in declaration order.
    fn fields(&self) -> [(&'static str, f64); 8] {
        [
            ("c_countdown", self.c_countdown),
            ("c_prob", self.c_prob),
            ("c_reset_count", self.c_reset_count),
            ("c_delay", self.c_delay),
            ("c_sleep", self.c_sleep),
            ("c_le", self.c_le),
            ("c_sig", self.c_sig),
            ("c_label", self.c_label),
        ]
    }
}

impl Default for Constants {
    fn default() -> Self {
        Constants {
            c_countdown: 40.0,
            c_prob: 20.0,
            c_reset_count: 32.0,
            c_delay: 48.0,
            c_sleep: 6.0,
            c_le: 20.0,
            c_sig: 3.0,
            c_label: 2.0,
        }
    }
}

/// The full parameter set of an `ElectLeader_r` instance.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Params {
    /// Population size `n`.
    pub n: usize,
    /// Trade-off parameter `r`, `1 ≤ r ≤ n/2`.
    pub r: usize,
    /// The tunable constants.
    pub constants: Constants,
}

impl Params {
    /// Creates a validated parameter set with default constants.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidParameters`] if `n < 4`, `r` is outside
    /// `1..=n/2`, or the largest group of the rank partition exceeds
    /// [`MAX_GROUP_SIZE`].
    pub fn new(n: usize, r: usize) -> Result<Self, SimError> {
        Self::with_constants(n, r, Constants::default())
    }

    /// Creates a validated parameter set with explicit constants.
    ///
    /// Validation only rules out constants that make no timer at all. The
    /// paper's constants must also be "sufficiently large", and below a
    /// threshold the protocol livelocks instead of failing: with
    /// `c_countdown = 1` at n = 256, r = 4, resets recur and no trial
    /// stabilizes within `40·C_max·n` interactions (3 of 3 seeds), while
    /// `c_countdown = 2` stabilizes with no reset. At n = 256, r = 64 the
    /// threshold lies between 4 and 12. A per-cell threshold table for
    /// every constant is still to be measured (ROADMAP, "Size the timers
    /// from measurement").
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidParameters`] if `n < 4`, `r` is outside
    /// `1..=n/2`, the largest group of the rank partition exceeds
    /// [`MAX_GROUP_SIZE`] (its messages would not fit the 8-byte
    /// [`Message`](crate::verify::Message)), a field of `constants` is not
    /// finite and positive (the reason names the field), or `c_label ≤ 1`.
    pub fn with_constants(n: usize, r: usize, constants: Constants) -> Result<Self, SimError> {
        if n < 4 {
            return Err(SimError::InvalidParameters {
                reason: format!("population size n = {n} must be at least 4"),
            });
        }
        if r < 1 || r > n / 2 {
            return Err(SimError::InvalidParameters {
                reason: format!(
                    "trade-off parameter r = {r} must satisfy 1 <= r <= n/2 = {}",
                    n / 2
                ),
            });
        }
        let largest_group = GroupPartition::largest_group_size(n, r);
        if largest_group > MAX_GROUP_SIZE {
            return Err(SimError::InvalidParameters {
                reason: format!(
                    "n = {n}, r = {r} makes a group of {largest_group} ranks; \
                     groups are limited to {MAX_GROUP_SIZE} ranks"
                ),
            });
        }
        for (name, value) in constants.fields() {
            if !(value.is_finite() && value > 0.0) {
                return Err(SimError::InvalidParameters {
                    reason: format!("constant {name} = {value} must be finite and positive"),
                });
            }
        }
        if constants.c_label <= 1.0 {
            return Err(SimError::InvalidParameters {
                reason: format!(
                    "label blow-up c_label = {} must exceed 1",
                    constants.c_label
                ),
            });
        }
        Ok(Params { n, r, constants })
    }

    /// `ln n`, floored at 1 so timer lengths never vanish.
    pub fn log_n(&self) -> f64 {
        (self.n as f64).ln().max(1.0)
    }

    /// The ranker countdown `C_max = Θ((n/r) log n)`.
    pub fn countdown_max(&self) -> u32 {
        timer(self.constants.c_countdown * self.n as f64 / self.r as f64 * self.log_n())
    }

    /// The probation timer `P_max = c_prob · (n/r) · log n`.
    pub fn probation_max(&self) -> u32 {
        timer(self.constants.c_prob * self.n as f64 / self.r as f64 * self.log_n())
    }

    /// The reset counter `R_max = Θ(log n)` of `PropagateReset`.
    pub fn reset_count_max(&self) -> u32 {
        timer(self.constants.c_reset_count * self.log_n())
    }

    /// The dormancy delay `D_max = Θ(log n)` of `PropagateReset`.
    pub fn delay_max(&self) -> u32 {
        timer(self.constants.c_delay * self.log_n())
    }

    /// The sleep timer bound `c_sleep · log n` of `AssignRanks_r`.
    pub fn sleep_max(&self) -> u32 {
        timer(self.constants.c_sleep * self.log_n())
    }

    /// The leader-election countdown of `FastLeaderElect`.
    pub fn le_count_max(&self) -> u32 {
        timer(self.constants.c_le * self.log_n())
    }

    /// The identifier space `[n³]` of `FastLeaderElect`.
    pub fn identifier_space(&self) -> u64 {
        (self.n as u64).pow(3)
    }

    /// Labels per deputy: `⌈c_label · n / r⌉`.
    pub fn labels_per_deputy(&self) -> u32 {
        (self.constants.c_label * self.n as f64 / self.r as f64).ceil() as u32
    }

    /// Signature refresh period for a group of size `m`: `max(2, ⌈c_sig · ln m⌉)`.
    pub fn signature_period(&self, group_size: usize) -> u32 {
        timer(self.constants.c_sig * (group_size as f64).ln().max(1.0)).max(2)
    }

    /// Signature space for a group of size `m`: `max(m⁵, 2)`.
    pub fn signature_space(&self, group_size: usize) -> u64 {
        (group_size as u64).pow(5).max(2)
    }

    /// Number of message IDs governed by each rank of a group of size `m`:
    /// `2m²` (Section 5.1).
    pub fn message_ids_per_rank(&self, group_size: usize) -> u32 {
        2 * (group_size as u32).pow(2)
    }

    /// The budget the experiment harness uses for stabilization runs:
    /// a generous multiple of the paper's `O(n²/r · log n)` bound.
    pub fn suggested_budget(&self) -> u64 {
        let nf = self.n as f64;
        let bound = nf * nf / self.r as f64 * self.log_n();
        (400.0 * bound).ceil() as u64 + 200_000
    }
}

fn timer(value: f64) -> u32 {
    value.ceil().max(1.0) as u32
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn valid_parameters_accepted() {
        let p = Params::new(64, 8).unwrap();
        assert_eq!(p.n, 64);
        assert_eq!(p.r, 8);
        assert!(p.countdown_max() > p.probation_max() / 4);
    }

    #[test]
    fn invalid_r_rejected() {
        assert!(Params::new(64, 0).is_err());
        assert!(Params::new(64, 33).is_err());
        assert!(Params::new(64, 32).is_ok());
        assert!(Params::new(3, 1).is_err());
    }

    #[test]
    fn groups_past_the_message_packing_limit_rejected() {
        let p = Params::new(1024, 511).unwrap();
        assert_eq!(GroupPartition::new(&p).group_size(0), 342);
        // Two groups of 512 ranks: 512⁵ = 2⁴⁵ signatures overflow a message.
        match Params::new(1024, 512) {
            Err(SimError::InvalidParameters { reason }) => {
                assert!(reason.contains("group of 512 ranks"), "{reason}");
                assert!(reason.contains("limited to 511"), "{reason}");
            }
            other => panic!("expected InvalidParameters, got {other:?}"),
        }
        assert!(Params::new(1022, 511).is_ok());
    }

    #[test]
    fn invalid_label_blowup_rejected() {
        let c = Constants {
            c_label: 1.0,
            ..Default::default()
        };
        assert!(Params::with_constants(64, 8, c).is_err());
    }

    /// Sets one field of the default constants to each non-finite or
    /// non-positive value and expects a rejection naming that field.
    fn assert_field_rejected(field: &str, set: fn(&mut Constants, f64)) {
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 0.0, -0.0, -1.0] {
            let mut c = Constants::default();
            set(&mut c, bad);
            match Params::with_constants(64, 8, c) {
                Err(SimError::InvalidParameters { reason }) => {
                    assert!(reason.contains(field), "{field} = {bad}: {reason}");
                }
                other => panic!("{field} = {bad}: expected InvalidParameters, got {other:?}"),
            }
        }
    }

    #[test]
    fn non_finite_or_non_positive_c_countdown_rejected() {
        assert_field_rejected("c_countdown", |c, v| c.c_countdown = v);
    }

    #[test]
    fn non_finite_or_non_positive_c_prob_rejected() {
        assert_field_rejected("c_prob", |c, v| c.c_prob = v);
    }

    #[test]
    fn non_finite_or_non_positive_c_reset_count_rejected() {
        assert_field_rejected("c_reset_count", |c, v| c.c_reset_count = v);
    }

    #[test]
    fn non_finite_or_non_positive_c_delay_rejected() {
        assert_field_rejected("c_delay", |c, v| c.c_delay = v);
    }

    #[test]
    fn non_finite_or_non_positive_c_sleep_rejected() {
        assert_field_rejected("c_sleep", |c, v| c.c_sleep = v);
    }

    #[test]
    fn non_finite_or_non_positive_c_le_rejected() {
        assert_field_rejected("c_le", |c, v| c.c_le = v);
    }

    #[test]
    fn non_finite_or_non_positive_c_sig_rejected() {
        assert_field_rejected("c_sig", |c, v| c.c_sig = v);
    }

    #[test]
    fn non_finite_or_non_positive_c_label_rejected() {
        assert_field_rejected("c_label", |c, v| c.c_label = v);
    }

    #[test]
    fn timers_scale_with_n_over_r() {
        let small_r = Params::new(128, 2).unwrap();
        let large_r = Params::new(128, 64).unwrap();
        assert!(small_r.countdown_max() > large_r.countdown_max());
        assert!(small_r.probation_max() > large_r.probation_max());
        // Reset/delay timers only depend on n.
        assert_eq!(small_r.reset_count_max(), large_r.reset_count_max());
        assert_eq!(small_r.delay_max(), large_r.delay_max());
    }

    #[test]
    fn signature_and_message_sizing() {
        let p = Params::new(64, 8).unwrap();
        assert_eq!(p.signature_space(4), 1024);
        assert_eq!(p.signature_space(1), 2);
        assert_eq!(p.message_ids_per_rank(4), 32);
        assert!(p.signature_period(1) >= 2);
        assert_eq!(p.identifier_space(), 64u64.pow(3));
        assert!(p.labels_per_deputy() as usize * p.r > p.n);
    }

    #[test]
    fn suggested_budget_is_monotone_in_n() {
        let a = Params::new(32, 4).unwrap().suggested_budget();
        let b = Params::new(128, 4).unwrap().suggested_budget();
        assert!(b > a);
    }
}
