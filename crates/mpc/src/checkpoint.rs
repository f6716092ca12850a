//! Round-granular checkpointing and crash replay: the recovery half of
//! the deterministic fault model ([`crate::faults`]).
//!
//! # Design
//!
//! [`Cluster::try_round`] is the Result-returning form of
//! [`Cluster::round`]. A round in which the fault plan fires no
//! round-granular fault (crash or straggler) on any machine — every round
//! under an inactive [`FaultConfig`](crate::FaultConfig) — runs as a
//! plain `round` and only adds the surfacing of latched spill errors, so
//! its trace, events and states are bit-identical to the plain entry
//! point.
//!
//! A faulted round runs under the one-round recovery engine, which
//! executes the same barrier round and layers on:
//!
//! * **A checkpoint** — before the round, each machine's state footprint
//!   is written to a per-machine [`CheckpointStore`] file (built on the
//!   [`SpillFile`] layer; words are accounted as
//!   [`FaultStats::checkpoint_words`](crate::FaultStats) and
//!   `CheckpointWords` ring events, *not* as round spill words — the
//!   per-round [`RoundStats`](crate::RoundStats) stay bit-identical to
//!   the fault-free run) and the state itself is snapshotted in memory.
//! * **Retained deliveries** — the round's inbox contents are copied out
//!   before the computes drain them, so a crash can re-deliver them.
//! * **Crash replay** — a crashed machine's state is restored from the
//!   snapshot and the round is replayed against its retained inbox;
//!   replayed sends and spills are discarded (the original execution
//!   already delivered and charged them), so the recovered state is
//!   bit-identical and the model costs do not double-count. A machine
//!   may be replayed [`max_replays`](crate::FaultConfig::max_replays)
//!   times per run; its next crash aborts with
//!   [`ClusterError::ReplayBudgetExhausted`].
//! * **Straggler delays** — a bounded host-side spin before a machine's
//!   compute. They only perturb host timing, which the model plane
//!   cannot see; they are counted as injected faults and nothing more.
//!
//! On an unrecoverable error the trace simply ends at the failed round;
//! the cluster is not meant to be driven further (callers get a typed
//! [`ClusterError`] and abandon it).
//!
//! # Replay contract
//!
//! Replay re-runs a round body against a restored state and the retained
//! inbox with a *fresh* context: sends and spill writes of a replayed
//! round are discarded. This is exact for round bodies that are pure
//! functions of `(machine id, state, inbox)` — which all of the repo's
//! executors are — and for bodies whose spill usage is confined to
//! rounds they do not crash through (the out-of-core executor drives
//! spills through the plain [`Cluster::round`]).

use crate::cluster::{Cluster, Inbox, MachineCtx, RoundFn};
use crate::events::EventKind;
use crate::faults::{chaos_mutation, ClusterError, FaultKind, FaultPlan};
use crate::router::{route, Outbox};
use crate::spill::SpillFile;
use crate::words::Words;
use std::time::Instant;

/// Words written per chunk when materializing a checkpoint into its
/// backing file.
const CKPT_CHUNK_WORDS: usize = 512;

/// Per-machine recovery checkpoints, built on the [`SpillFile`] layer.
///
/// A checkpoint is modeled, not serialized: machine states are generic
/// over [`Words`] (a footprint, not an encoding), so the store writes a
/// state's exact word count into a real backing file — the words move
/// through the same I/O path the spill layer uses and are accounted as
/// `checkpoint_words` — while the recovery engine keeps the restorable
/// state itself as an in-memory snapshot. Checkpoint files are *not*
/// fault-armed: the store models reliable (replicated) storage, which is
/// what makes crash-restart recovery sound. The store also counts each
/// machine's crash replays over the whole run, the tally the
/// [`max_replays`](crate::FaultConfig::max_replays) budget is checked
/// against.
pub struct CheckpointStore {
    files: Vec<SpillFile>,
    zeros: [u64; CKPT_CHUNK_WORDS],
    replays: Vec<u32>,
}

impl CheckpointStore {
    /// A store with one checkpoint file per machine.
    pub fn new(m: usize) -> Self {
        Self {
            files: (0..m).map(|_| SpillFile::new()).collect(),
            zeros: [0u64; CKPT_CHUNK_WORDS],
            replays: vec![0; m],
        }
    }

    /// Number of machines the store covers.
    pub fn num_machines(&self) -> usize {
        self.files.len()
    }

    /// Replaces `machine`'s checkpoint with one of `words` words,
    /// surfacing any real I/O failure as a typed
    /// [`ClusterError::Checkpoint`].
    pub fn write(&mut self, machine: usize, words: usize) -> Result<(), ClusterError> {
        let file = &mut self.files[machine];
        file.clear();
        let mut left = words;
        while left > 0 {
            let chunk = left.min(CKPT_CHUNK_WORDS);
            file.write_words(&self.zeros[..chunk])
                .map_err(|e| ClusterError::Checkpoint {
                    machine,
                    message: e.to_string(),
                })?;
            left -= chunk;
        }
        Ok(())
    }

    /// Words currently held in `machine`'s checkpoint file.
    pub fn stored_words(&self, machine: usize) -> u64 {
        self.files[machine].stored_words()
    }

    /// Charges one crash replay of `machine` in `round` to its per-run
    /// count, failing once the count exceeds `budget`.
    fn charge_replay(
        &mut self,
        machine: usize,
        round: usize,
        budget: u32,
    ) -> Result<(), ClusterError> {
        let replays = &mut self.replays[machine];
        *replays += 1;
        if *replays > budget {
            return Err(ClusterError::ReplayBudgetExhausted {
                machine,
                round,
                budget,
            });
        }
        Ok(())
    }
}

impl<S, M> Cluster<S, M>
where
    S: Send + Words,
    M: Send + Sync + Words,
{
    /// Drains the first latched spill failure across the machines, if
    /// any, as a typed [`ClusterError::SpillIo`]. Round bodies cannot
    /// propagate `Result`s, so persistent spill failures latch inside
    /// the [`SpillFile`] and [`Cluster::try_round`] (and the out-of-core
    /// executor) surface them here.
    pub fn take_spill_error(&mut self) -> Option<ClusterError> {
        for (machine, spill) in self.spills.iter_mut().enumerate() {
            if let Some((attempts, message)) = spill.take_error() {
                return Some(ClusterError::SpillIo {
                    machine,
                    attempts,
                    message,
                });
            }
        }
        None
    }
}

impl<S, M> Cluster<S, M>
where
    S: Send + Words + Clone,
    M: Send + Sync + Words + Clone,
{
    /// Result-returning form of [`Cluster::round`]: identical semantics
    /// (and bit-identical output) on the fault-free path, typed errors
    /// instead of panics when the configured [`crate::FaultConfig`]
    /// injects an unrecoverable fault. A round the fault plan crashes or
    /// delays runs under the recovery engine (see the module docs).
    pub fn try_round<F>(&mut self, label: &str, f: F) -> Result<(), ClusterError>
    where
        F: for<'a> Fn(&mut MachineCtx<M>, &mut S, Inbox<'a, M>) + Sync + Send,
    {
        let plan = FaultPlan::new(self.config.faults);
        let round = self.trace.rounds.len();
        let faulted = self.config.faults.is_active()
            && (0..self.config.num_machines).any(|i| plan.round_faulted(i, round));
        if faulted {
            return self.run_recoverable(label, &f, plan);
        }
        // Spill I/O faults are op-granular and absorbed inside the spill
        // layer; this round needs no recovery engine.
        self.round(label, f);
        self.take_spill_error().map_or(Ok(()), Err)
    }

    /// The recovery engine: one faulted barrier round with a checkpoint,
    /// retained deliveries, and crash replay. Model output (states,
    /// round stats, critical path, pending messages) is bit-identical to
    /// a fault-free run of the same round; the only additions are the
    /// fault events and [`crate::FaultStats`].
    fn run_recoverable(
        &mut self,
        label: &str,
        body: &RoundFn<'_, S, M>,
        plan: FaultPlan,
    ) -> Result<(), ClusterError> {
        let m = self.config.num_machines;
        let round_index = self.trace.rounds.len();
        let started = Instant::now();
        let mut injected = vec![0u64; m];
        let mut ckpt_words = vec![0u64; m];
        let mut replayed = vec![0u64; m];

        // Checkpoint every machine before the round: the footprint goes
        // to the store's files, the restorable state to a snapshot.
        let store = self.ckpt.get_or_insert_with(|| CheckpointStore::new(m));
        for (i, state) in self.states.iter().enumerate() {
            let words = state.words();
            store.write(i, words)?;
            ckpt_words[i] = words as u64;
            self.trace.faults.checkpoint_words += words as u64;
        }
        let snapshot: Vec<S> = self.states.clone();
        // Retain the round's deliveries before the computes drain them:
        // replay needs to re-deliver them.
        let retained: Vec<Vec<M>> = (0..m).map(|i| self.inboxes.slice(i).to_vec()).collect();

        // Straggler delays: a bounded host-side spin before the
        // machine's compute. Host timing only — the determinism
        // contract says the model plane cannot see it.
        for (i, inj) in injected.iter_mut().enumerate() {
            if plan.fires(FaultKind::Straggle, i, round_index) {
                *inj += 1;
                for _ in 0..256 {
                    std::hint::spin_loop();
                }
            }
        }

        self.compute_all(body);
        let compute_s = started.elapsed().as_secs_f64();
        let route_mark = Instant::now();
        route(
            &self.config,
            round_index,
            &mut self.outboxes,
            &mut self.inboxes,
            &mut self.scratch,
        );
        let route_s = route_mark.elapsed().as_secs_f64();

        // Crash-restarts: restore the snapshot and replay the round
        // against the retained deliveries. Replayed sends/spills are
        // discarded, so model costs stay exact.
        let budget = self.config.faults.max_replays;
        let store = self.ckpt.get_or_insert_with(|| CheckpointStore::new(m));
        for (i, (saved, inbox)) in snapshot.into_iter().zip(retained).enumerate() {
            if !plan.fires(FaultKind::Crash, i, round_index) {
                continue;
            }
            injected[i] += 1;
            store.charge_replay(i, round_index, budget)?;
            self.states[i] = saved;
            // The `skip-replay` seeded mutation leaves the machine at its
            // pre-round checkpoint; the chaos mutation gates must catch
            // the divergence.
            if !chaos_mutation("skip-replay") {
                Self::replay_round(body, i, m, &mut self.states[i], inbox);
            }
            replayed[i] += 1;
            self.trace.faults.replayed_rounds += 1;
            self.state_words[i] = self.states[i].words();
        }

        // Fault events precede the bookkeeping drain and are only
        // recorded when nonzero, so fault-free rounds keep their
        // exact event stream.
        for (i, ring) in self.scratch.rings.iter_mut().enumerate() {
            if injected[i] > 0 {
                ring.record(EventKind::FaultInjected, injected[i]);
                self.trace.faults.injected += injected[i];
            }
            if ckpt_words[i] > 0 {
                ring.record(EventKind::CheckpointWords, ckpt_words[i]);
            }
            if replayed[i] > 0 {
                ring.record(EventKind::ReplayRounds, replayed[i]);
            }
        }

        self.bookkeep_round(label, round_index, compute_s, route_s);
        self.round_wall.push(started.elapsed().as_secs_f64());
        self.take_spill_error().map_or(Ok(()), Err)
    }

    /// Re-runs one round body for one crashed machine against a restored
    /// state and that round's retained deliveries. The replay context is
    /// fresh — its sends and spill writes are discarded on return, since
    /// the original execution already delivered and charged them.
    fn replay_round(
        body: &RoundFn<'_, S, M>,
        machine: usize,
        m: usize,
        state: &mut S,
        mut buf: Vec<M>,
    ) {
        let len = buf.len();
        let ptr = buf.as_mut_ptr();
        // SAFETY: releases the vector's ownership of its `len` messages
        // (leak-on-panic rather than double-drop) before the inbox view
        // takes over; the allocation itself stays with `buf`.
        unsafe { buf.set_len(0) };
        // SAFETY: `ptr..ptr+len` holds `len` initialized messages whose
        // sole owner is now this view; `buf`'s allocation outlives the
        // view (the body consumes the inbox before this frame returns).
        let inbox = unsafe { Inbox::from_raw(ptr, len) };
        let mut ctx = MachineCtx::new(machine, m, Outbox::new(), SpillFile::new());
        body(&mut ctx, state, inbox);
        drop(ctx.into_parts());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::accounting::RoundStats;
    use crate::model::MpcConfig;
    use crate::FaultConfig;

    /// Machine state: a rolling hash of everything received, so replay
    /// divergence is loud.
    #[derive(Clone, Default, Debug, PartialEq)]
    struct Acc {
        hash: u64,
        seen: u64,
    }

    impl Words for Acc {
        fn words(&self) -> usize {
            2 + (self.seen as usize % 3)
        }
    }

    /// Round `r` of the test schedule: fold the inbox into the hash, then
    /// fan values around a ring with id- and round-dependent bursts.
    fn mix(
        r: u64,
    ) -> impl for<'a> Fn(&mut MachineCtx<u64>, &mut Acc, Inbox<'a, u64>) + Sync + Send {
        move |ctx: &mut MachineCtx<u64>, state: &mut Acc, inbox: Inbox<'_, u64>| {
            for v in inbox {
                state.hash = state.hash.wrapping_mul(0x100000001b3).wrapping_add(v);
                state.seen += 1;
            }
            let m = ctx.num_machines();
            for b in 0..1 + (ctx.id + r as usize) % 3 {
                let dest = (ctx.id + b + 1) % m;
                ctx.send(dest, (ctx.id as u64) << 32 | r << 8 | b as u64);
            }
        }
    }

    /// Runs `rounds` rounds of the schedule, one `try_round` per round.
    fn run(cfg: MpcConfig, rounds: u64) -> Result<Cluster<Acc, u64>, ClusterError> {
        let mut c: Cluster<Acc, u64> = Cluster::new(cfg, |_| Acc::default());
        for r in 0..rounds {
            c.try_round("mix", mix(r))?;
        }
        Ok(c)
    }

    /// Strips the informational fields so runs compare on the model
    /// plane the chaos contract pins: states, round stats, critical
    /// path, pending messages.
    fn fingerprint(c: &Cluster<Acc, u64>) -> (Vec<Acc>, Vec<RoundStats>, Vec<Vec<u64>>) {
        (
            c.states().to_vec(),
            c.trace().rounds.clone(),
            (0..c.num_machines())
                .map(|i| c.pending(i).to_vec())
                .collect(),
        )
    }

    /// Crash counts per machine over the first `rounds` rounds of `cfg`'s
    /// plan, and the first `(machine, round)` at which a machine's count
    /// exceeds `cfg.max_replays` — where the run must stop.
    fn crash_tally(
        cfg: FaultConfig,
        m: usize,
        rounds: usize,
    ) -> (Vec<u32>, Option<(usize, usize)>) {
        let plan = FaultPlan::new(cfg);
        let mut crashes = vec![0u32; m];
        let mut first_exhausted = None;
        for round in 0..rounds {
            for (machine, count) in crashes.iter_mut().enumerate() {
                if plan.fires(FaultKind::Crash, machine, round) {
                    *count += 1;
                    if *count > cfg.max_replays && first_exhausted.is_none() {
                        first_exhausted = Some((machine, round));
                    }
                }
            }
        }
        (crashes, first_exhausted)
    }

    #[test]
    fn fault_free_try_round_matches_plain_round() {
        let cfg = MpcConfig::new(4, 10_000);
        let mut plain: Cluster<Acc, u64> = Cluster::new(cfg, |_| Acc::default());
        for r in 0..8 {
            plain.round("mix", mix(r));
        }
        let tried = run(cfg, 8).unwrap();
        assert_eq!(plain.trace(), tried.trace());
        assert_eq!(fingerprint(&plain), fingerprint(&tried));
        assert_eq!(tried.trace().faults, Default::default());
    }

    #[test]
    fn crash_replay_recovers_bit_identical_state() {
        let clean = run(MpcConfig::new(4, 10_000), 12).unwrap();
        let faulted = MpcConfig::new(4, 10_000).with_faults(FaultConfig {
            seed: 3,
            crash_rate: 0.3,
            ..FaultConfig::none()
        });
        let recovered = run(faulted, 12).unwrap();
        assert!(
            recovered.trace().faults.injected > 0,
            "rate 0.3 over 12 rounds x 4 machines must crash somewhere"
        );
        // One replayed round per crash.
        assert_eq!(
            recovered.trace().faults.replayed_rounds,
            recovered.trace().faults.injected
        );
        assert!(recovered.trace().faults.checkpoint_words > 0);
        assert_eq!(fingerprint(&clean), fingerprint(&recovered));
        // The deterministic plane beyond round stats matches too.
        assert_eq!(clean.trace().critical_path, recovered.trace().critical_path);
        assert_eq!(clean.trace().violations, recovered.trace().violations);
    }

    #[test]
    fn mixed_fault_classes_recover_bit_identical_state() {
        let clean = run(MpcConfig::new(5, 10_000), 12).unwrap();
        let faulted = MpcConfig::new(5, 10_000).with_faults(FaultConfig {
            seed: 9,
            crash_rate: 0.15,
            straggler_rate: 0.3,
            ..FaultConfig::none()
        });
        let recovered = run(faulted, 12).unwrap();
        assert!(recovered.trace().faults.injected > 0);
        assert_eq!(fingerprint(&clean), fingerprint(&recovered));
    }

    #[test]
    fn replay_budget_exhaustion_is_a_typed_error() {
        let cfg = MpcConfig::new(3, 10_000).with_faults(FaultConfig {
            crash_rate: 1.0,
            max_replays: 1,
            ..FaultConfig::none()
        });
        // Every machine crashes every round: machine 0's second crash,
        // in round 1, is one past the budget.
        let err = run(cfg, 4).map(|_| ()).unwrap_err();
        assert_eq!(
            err,
            ClusterError::ReplayBudgetExhausted {
                machine: 0,
                round: 1,
                budget: 1,
            }
        );
    }

    #[test]
    fn replay_budget_counts_crashes_across_rounds() {
        let faults = FaultConfig {
            seed: 11,
            crash_rate: 0.5,
            max_replays: 3,
            ..FaultConfig::none()
        };
        let (_, first) = crash_tally(faults, 4, 40);
        let (machine, round) = first.expect("rate 0.5 over 40 rounds crashes a machine 4 times");
        let err = run(MpcConfig::new(4, 10_000).with_faults(faults), 40)
            .map(|_| ())
            .unwrap_err();
        assert_eq!(
            err,
            ClusterError::ReplayBudgetExhausted {
                machine,
                round,
                budget: 3,
            }
        );
    }

    #[test]
    fn replay_budget_at_the_peak_crash_count_recovers() {
        let mut faults = FaultConfig {
            seed: 11,
            crash_rate: 0.5,
            ..FaultConfig::none()
        };
        let (crashes, _) = crash_tally(faults, 4, 40);
        faults.max_replays = crashes.iter().copied().max().unwrap_or(0);
        assert_eq!(crash_tally(faults, 4, 40).1, None);
        let clean = run(MpcConfig::new(4, 10_000), 40).unwrap();
        let recovered = run(MpcConfig::new(4, 10_000).with_faults(faults), 40).unwrap();
        assert_eq!(
            recovered.trace().faults.injected,
            crashes.iter().map(|&c| u64::from(c)).sum::<u64>()
        );
        assert_eq!(fingerprint(&clean), fingerprint(&recovered));
    }

    #[test]
    fn fault_events_flow_through_the_rings() {
        let cfg = MpcConfig::new(3, 10_000).with_faults(FaultConfig {
            seed: 5,
            crash_rate: 0.4,
            ..FaultConfig::none()
        });
        let c = run(cfg, 8).unwrap();
        let events = &c.trace().events;
        let kinds: Vec<EventKind> = events.iter().map(|e| e.kind).collect();
        assert!(kinds.contains(&EventKind::FaultInjected));
        assert!(kinds.contains(&EventKind::CheckpointWords));
        assert!(kinds.contains(&EventKind::ReplayRounds));
        // A crashed machine's row: the router's region events, then the
        // recovery engine's, then the bookkeeping's.
        let crash = events
            .iter()
            .find(|e| e.kind == EventKind::ReplayRounds)
            .expect("a crash was replayed");
        let row: Vec<EventKind> = events
            .iter()
            .filter(|e| e.round == crash.round && e.machine == crash.machine)
            .map(|e| e.kind)
            .collect();
        assert_eq!(
            row,
            [
                EventKind::RegionMsgs,
                EventKind::RegionWords,
                EventKind::FaultInjected,
                EventKind::CheckpointWords,
                EventKind::ReplayRounds,
                EventKind::SpillWords,
                EventKind::SentWords,
                EventKind::StallWords,
            ]
        );
    }

    #[test]
    fn checkpoint_store_writes_and_replaces() {
        let mut store = CheckpointStore::new(2);
        assert_eq!(store.num_machines(), 2);
        store.write(0, 1000).unwrap();
        assert_eq!(store.stored_words(0), 1000);
        store.write(0, 3).unwrap();
        assert_eq!(store.stored_words(0), 3);
        assert_eq!(store.stored_words(1), 0);
    }

    #[test]
    fn try_round_surfaces_latched_spill_errors() {
        let cfg = MpcConfig::new(2, 10_000).with_faults(FaultConfig {
            seed: 5,
            spill_io_rate: 1.0,
            max_retries: 2,
            ..FaultConfig::none()
        });
        let mut c: Cluster<Acc, u64> = Cluster::new(cfg, |_| Acc::default());
        let err = c
            .try_round("spill", |ctx, _s, _i| {
                if ctx.id == 1 {
                    let _ = ctx.spill().write_words(&[1, 2, 3]);
                }
            })
            .unwrap_err();
        assert!(matches!(
            err,
            ClusterError::SpillIo {
                machine: 1,
                attempts: 3,
                ..
            }
        ));
    }
}
