//! Deterministic fault injection: the cluster's failure model as a pure
//! function of `(seed, fault kind, machine, round)`.
//!
//! Faults here are *inputs*, not accidents. A [`FaultPlan`] decides every
//! injection by hashing its coordinates with a splitmix64-style mixer, so
//! the same [`FaultConfig`] produces the same crashes, spill I/O errors,
//! and straggler delays on every host and at every pool width. That
//! determinism is what lets the chaos suite assert the flagship
//! invariant: a recovered run is bit-identical to a fault-free run.
//!
//! The plan covers three failure classes:
//!
//! * **Crash-restarts** (`crash_rate`) — a machine loses its in-memory
//!   state after a round; recovery restores the checkpoint taken before
//!   that round and replays the round from its retained inbox deliveries
//!   (see [`checkpoint`](crate::checkpoint)).
//! * **Transient spill I/O errors** (`spill_io_rate`) — injected per
//!   spill operation and retried with a bounded, attempt-count backoff
//!   (no wall-clock enters the model domain); exhausting the retry
//!   budget latches a typed error surfaced as [`ClusterError::SpillIo`].
//! * **Straggler delays** (`straggler_rate`) — bounded host-side spin
//!   delays. They perturb host timing only (which the determinism
//!   contract says must not matter), never the model plane, so there is
//!   nothing to recover: they are counted and otherwise invisible.
//!
//! Unrecoverable situations — a replay budget exhausted, a persistent
//! spill failure — surface as a typed [`ClusterError`] through
//! [`Cluster::try_round`](crate::Cluster::try_round), never as a panic.

use std::fmt;

/// Rates and budgets of the deterministic fault model, carried by
/// [`MpcConfig`](crate::MpcConfig). All rates are probabilities in
/// `[0, 1]` evaluated independently per `(machine, round)` coordinate
/// (per spill operation and attempt for `spill_io_rate`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultConfig {
    /// Seed of the fault plan; independent of the algorithm seed.
    pub seed: u64,
    /// Probability a machine crash-restarts after a round.
    pub crash_rate: f64,
    /// Probability one spill-file I/O attempt fails transiently.
    pub spill_io_rate: f64,
    /// Probability a machine straggles (a bounded host-side delay).
    pub straggler_rate: f64,
    /// Failed spill I/O attempts retried before the error latches.
    pub max_retries: u32,
    /// Crash replays tolerated per machine per run before the run
    /// aborts with [`ClusterError::ReplayBudgetExhausted`].
    pub max_replays: u32,
}

impl FaultConfig {
    /// The fault-free plan: all rates zero, default recovery budgets.
    pub fn none() -> Self {
        FaultConfig {
            seed: 0,
            crash_rate: 0.0,
            spill_io_rate: 0.0,
            straggler_rate: 0.0,
            max_retries: 4,
            max_replays: 64,
        }
    }

    /// Whether any fault class can fire under this configuration.
    pub fn is_active(&self) -> bool {
        self.crash_rate > 0.0 || self.spill_io_rate > 0.0 || self.straggler_rate > 0.0
    }

    /// Replaces the plan seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

impl Default for FaultConfig {
    fn default() -> Self {
        Self::none()
    }
}

/// The injectable failure classes. `SpillIo` is keyed by
/// `(machine, operation, attempt)` rather than `(machine, round)`: spill
/// traffic is per-operation, and independent attempt coordinates are what
/// make the bounded retry deterministic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Machine crash-restart after a round.
    Crash,
    /// Transient spill-file I/O failure.
    SpillIo,
    /// Straggler delay (host-side only).
    Straggle,
}

impl FaultKind {
    /// Hash-domain separator so the classes draw independent decisions
    /// from one seed.
    fn domain(self) -> u64 {
        match self {
            FaultKind::Crash => 0x6372_6173_6800,
            FaultKind::SpillIo => 0x7370_696c_6c00,
            FaultKind::Straggle => 0x7374_7261_6700,
        }
    }
}

/// splitmix64 finalizer: the repo's standard stateless mixer (same family
/// as `owner_of_key`), chosen for full avalanche at two multiplies.
#[inline]
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A compiled, copyable view of a [`FaultConfig`]: every query is a pure
/// hash of its coordinates, so plans need no state and can be consulted
/// from any thread in any order.
#[derive(Debug, Clone, Copy)]
pub struct FaultPlan {
    cfg: FaultConfig,
}

impl FaultPlan {
    /// Compiles `cfg` into a queryable plan.
    pub fn new(cfg: FaultConfig) -> Self {
        FaultPlan { cfg }
    }

    /// The configuration this plan was compiled from.
    pub fn config(&self) -> &FaultConfig {
        &self.cfg
    }

    fn rate(&self, kind: FaultKind) -> f64 {
        match kind {
            FaultKind::Crash => self.cfg.crash_rate,
            FaultKind::SpillIo => self.cfg.spill_io_rate,
            FaultKind::Straggle => self.cfg.straggler_rate,
        }
    }

    /// The deterministic coin: true with probability `rate` at the hashed
    /// coordinate `(seed, domain, a, b)`.
    fn coin(&self, kind: FaultKind, a: u64, b: u64) -> bool {
        let rate = self.rate(kind);
        if rate <= 0.0 {
            return false;
        }
        if rate >= 1.0 {
            return true;
        }
        let h = mix(mix(mix(self.cfg.seed ^ kind.domain()) ^ a) ^ b);
        // 53 uniform bits against the rate threshold: exact for every
        // representable rate, identical on every host.
        ((h >> 11) as f64) < rate * (1u64 << 53) as f64
    }

    /// Whether `kind` fires for `machine` in absolute round `round`.
    /// Not meaningful for [`FaultKind::SpillIo`] (use
    /// [`Self::spill_attempt_fires`]).
    pub fn fires(&self, kind: FaultKind, machine: usize, round: usize) -> bool {
        self.coin(kind, machine as u64, round as u64)
    }

    /// Whether spill operation `op` (a per-machine monotone counter)
    /// fails on retry attempt `attempt` for `machine`.
    pub fn spill_attempt_fires(&self, machine: usize, op: u64, attempt: u32) -> bool {
        self.coin(
            FaultKind::SpillIo,
            (machine as u64) << 32 | u64::from(attempt),
            op,
        )
    }

    /// Whether any round-granular fault (crash, straggle) fires for
    /// `machine` in `round`. Spill I/O faults are op-granular and
    /// excluded: they are injected inside the spill layer itself.
    pub fn round_faulted(&self, machine: usize, round: usize) -> bool {
        self.fires(FaultKind::Crash, machine, round)
            || self.fires(FaultKind::Straggle, machine, round)
    }
}

/// Typed, recoverable-layer errors: every fault the recovery machinery
/// cannot absorb surfaces as one of these through
/// [`Cluster::try_round`](crate::Cluster::try_round) — never as a panic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClusterError {
    /// A spill-file operation failed persistently (injected fault past
    /// the retry budget, or a real I/O error from the host filesystem).
    SpillIo {
        /// Machine whose spill file failed.
        machine: usize,
        /// Failed attempts before the error latched.
        attempts: u32,
        /// Underlying error description.
        message: String,
    },
    /// A machine exceeded its per-run crash-replay budget.
    ReplayBudgetExhausted {
        /// Machine that kept crashing.
        machine: usize,
        /// Absolute round index of the fatal crash.
        round: usize,
        /// The exhausted `max_replays` budget.
        budget: u32,
    },
}

impl fmt::Display for ClusterError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClusterError::SpillIo {
                machine,
                attempts,
                message,
            } => write!(
                f,
                "machine {machine}: spill I/O failed after {attempts} attempt(s): {message}"
            ),
            ClusterError::ReplayBudgetExhausted {
                machine,
                round,
                budget,
            } => write!(
                f,
                "machine {machine}: crash in round {round} exceeded the replay budget \
                 of {budget} replays per run"
            ),
        }
    }
}

impl std::error::Error for ClusterError {}

/// Whether the named chaos mutation is active (`CHAOS_MUTATE=<name>`).
///
/// A seeded bug compiled into the recovery paths that the chaos mutation
/// gates must detect. `skip-retry` gives up on the first failed spill
/// attempt; `skip-replay` restores a crashed machine's checkpoint but
/// skips the replay of its round.
pub fn chaos_mutation(name: &str) -> bool {
    std::env::var("CHAOS_MUTATE").map(|v| v == name) == Ok(true)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn active_plan() -> FaultPlan {
        FaultPlan::new(FaultConfig {
            seed: 7,
            crash_rate: 0.25,
            spill_io_rate: 0.25,
            straggler_rate: 0.25,
            ..FaultConfig::none()
        })
    }

    #[test]
    fn plan_is_a_pure_function_of_coordinates() {
        let a = active_plan();
        let b = active_plan();
        for m in 0..8 {
            for r in 0..64 {
                for kind in [FaultKind::Crash, FaultKind::Straggle] {
                    assert_eq!(a.fires(kind, m, r), b.fires(kind, m, r));
                }
                assert_eq!(
                    a.spill_attempt_fires(m, r as u64, 3),
                    b.spill_attempt_fires(m, r as u64, 3)
                );
            }
        }
    }

    #[test]
    fn rates_zero_and_one_are_exact() {
        let never = FaultPlan::new(FaultConfig::none());
        let always = FaultPlan::new(FaultConfig {
            crash_rate: 1.0,
            ..FaultConfig::none()
        });
        for m in 0..4 {
            for r in 0..32 {
                assert!(!never.fires(FaultKind::Crash, m, r));
                assert!(!never.round_faulted(m, r));
                assert!(always.fires(FaultKind::Crash, m, r));
            }
        }
    }

    #[test]
    fn kinds_draw_independent_decisions() {
        // With every rate at 0.25 under one seed, the per-kind decision
        // sets must differ somewhere — equal sets would mean the domains
        // collapsed into one stream.
        let plan = active_plan();
        let grid: Vec<(usize, usize)> = (0..8).flat_map(|m| (0..64).map(move |r| (m, r))).collect();
        let set = |kind: FaultKind| -> Vec<bool> {
            grid.iter().map(|&(m, r)| plan.fires(kind, m, r)).collect()
        };
        let crash = set(FaultKind::Crash);
        assert_ne!(crash, set(FaultKind::Straggle));
        let hits = crash.iter().filter(|&&b| b).count();
        // ~128 expected at rate 0.25 over 512 coordinates; a loose band
        // guards against a broken mixer collapsing to all/none.
        assert!((32..=224).contains(&hits), "got {hits}");
    }

    #[test]
    fn seed_changes_the_plan() {
        let a = active_plan();
        let b = FaultPlan::new(active_plan().config().with_seed(8));
        let differs = (0..8)
            .flat_map(|m| (0..64).map(move |r| (m, r)))
            .any(|(m, r)| a.fires(FaultKind::Crash, m, r) != b.fires(FaultKind::Crash, m, r));
        assert!(differs);
    }

    #[test]
    fn error_display_names_the_machine() {
        let e = ClusterError::SpillIo {
            machine: 3,
            attempts: 5,
            message: "injected".into(),
        };
        assert!(e.to_string().contains("machine 3"));
        assert!(e.to_string().contains("5 attempt"));
        let e = ClusterError::ReplayBudgetExhausted {
            machine: 1,
            round: 9,
            budget: 2,
        };
        assert!(e.to_string().contains("round 9"));
    }

    #[test]
    fn inactive_config_reports_inactive() {
        assert!(!FaultConfig::none().is_active());
        assert!(FaultConfig {
            straggler_rate: 0.1,
            ..FaultConfig::none()
        }
        .is_active());
    }
}
