//! Round-granular checkpointing and crash replay: the recovery half of
//! the deterministic fault model ([`crate::faults`]).
//!
//! # Design
//!
//! The cluster's `try_` entry points ([`Cluster::try_round`],
//! [`Cluster::try_run_segment`]) are drop-in Result-returning forms of
//! `round`/`run_segment`. With an inactive [`FaultConfig`](crate::FaultConfig) they delegate
//! to the ordinary engines and only add the end-of-segment surfacing of
//! latched spill errors, so fault-free executions are bit-identical to
//! the plain entry points — traces, events, states, everything.
//!
//! With an active plan, a segment first consults the plan: if no
//! round-granular fault fires anywhere in the segment's window, the
//! ordinary engine runs unchanged (same fast path, same scheduler). Only
//! a genuinely faulted window runs under the recovery engine
//! ([`run_recoverable`](Cluster::try_run_segment)), which executes the
//! segment barrier-style and layers on:
//!
//! * **Checkpoints** — at segment entry and every
//!   [`checkpoint_every`](crate::FaultConfig::checkpoint_every) rounds,
//!   each machine's state footprint is written to a per-machine
//!   [`CheckpointStore`] file (built on the [`SpillFile`] layer; words
//!   are accounted as [`FaultStats::checkpoint_words`](crate::FaultStats)
//!   and `CheckpointWords` ring events, *not* as round spill words — the
//!   per-round [`RoundStats`](crate::RoundStats) stay bit-identical to
//!   the fault-free run) and the state itself is snapshotted in memory.
//! * **Retained deliveries** — each round's inbox contents are retained
//!   (re-readable from the arena) until the next checkpoint, so a crash
//!   can re-deliver every round since the snapshot.
//! * **Crash replay** — a crashed machine's state is restored from the
//!   snapshot and the rounds since it are replayed against the retained
//!   deliveries ([`replay_round`](Cluster::try_run_segment)); replayed
//!   sends and spills are discarded (the original execution already
//!   delivered and charged them), so the recovered state is bit-identical
//!   and the model costs do not double-count. Exceeding
//!   [`max_replays`](crate::FaultConfig::max_replays) aborts with
//!   [`ClusterError::ReplayBudgetExhausted`].
//! * **Drop/duplicate repair** — the fabric's flat layout knows every
//!   region's exact message count, so a dropped or duplicated delivery
//!   is detected and repaired from the retained outbox arena before the
//!   next compute observes it; only the fault event is model-visible.
//! * **Graceful degradation** — a pipelined segment whose window
//!   contains a crash is demoted to barrier execution for that segment:
//!   the crash poisons the machine's readiness region
//!   ([`ReadinessBoard::poison`](crate::pipeline::ReadinessBoard)), and a
//!   poisoned region must never hand its inline compute to a state that
//!   is about to be rolled back. Both engines produce bit-identical
//!   model output, so degradation is invisible to everything but
//!   [`FaultStats::degraded_segments`](crate::FaultStats).
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
//! spills through the plain entry points).

use crate::cluster::{Cluster, Inbox, MachineCtx, RoundFn};
use crate::events::EventKind;
use crate::faults::{chaos_mutation, ClusterError, FaultKind, FaultPlan};
use crate::model::RoundScheduler;
use crate::pipeline::SegmentRound;
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
/// what makes crash-restart recovery sound.
pub struct CheckpointStore {
    files: Vec<SpillFile>,
    zeros: [u64; CKPT_CHUNK_WORDS],
}

impl CheckpointStore {
    /// A store with one checkpoint file per machine.
    pub fn new(m: usize) -> Self {
        Self {
            files: (0..m).map(|_| SpillFile::new()).collect(),
            zeros: [0u64; CKPT_CHUNK_WORDS],
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
}

impl<S, M> Cluster<S, M>
where
    S: Send + Words,
    M: Send + Sync + Words,
{
    /// Drains the first latched spill failure across the machines, if
    /// any, as a typed [`ClusterError::SpillIo`]. Round bodies cannot
    /// propagate `Result`s, so persistent spill failures latch inside
    /// the [`SpillFile`] and the `try_` entry points (and the
    /// out-of-core executor) surface them here.
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

    /// Post-segment error surfacing shared by the non-recovery paths.
    fn surface_spill_errors(&mut self) -> Result<(), ClusterError> {
        match self.take_spill_error() {
            Some(e) => Err(e),
            None => Ok(()),
        }
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
    /// injects an unrecoverable fault.
    pub fn try_round<F>(&mut self, label: &str, f: F) -> Result<(), ClusterError>
    where
        F: for<'a> Fn(&mut MachineCtx<M>, &mut S, Inbox<'a, M>) + Sync + Send,
    {
        self.try_run_segment(vec![SegmentRound::new(label, f)])
    }

    /// Result-returning form of [`Cluster::run_segment`], the entry
    /// point of the recovery engine (see the module docs).
    pub fn try_run_segment(
        &mut self,
        rounds: Vec<SegmentRound<'_, S, M>>,
    ) -> Result<(), ClusterError> {
        if !self.config.faults.is_active() {
            self.run_segment(rounds);
            return self.surface_spill_errors();
        }
        let plan = FaultPlan::new(self.config.faults);
        let base = self.trace.rounds.len();
        let m = self.config.num_machines;
        let window_faulted =
            (0..rounds.len()).any(|k| (0..m).any(|i| plan.round_faulted(i, base + k)));
        if !window_faulted {
            // Spill I/O faults are op-granular and absorbed inside the
            // spill layer; this window needs no recovery engine, so the
            // configured scheduler runs unchanged.
            self.run_segment(rounds);
            return self.surface_spill_errors();
        }
        if self.config.scheduler == RoundScheduler::Pipelined {
            // Graceful degradation: a crash mid-pipeline would hand a
            // completed readiness region to a compute whose state is
            // about to roll back. Poison the crashing machines' regions
            // and run the whole segment barrier-style instead.
            self.trace.faults.degraded_segments += 1;
            for k in 0..rounds.len() {
                for i in 0..m {
                    if plan.fires(FaultKind::Crash, i, base + k) {
                        self.board.poison(i);
                    }
                }
            }
        }
        let result = self.run_recoverable(&rounds, plan, base);
        self.board.clear_poison();
        result
    }

    /// The recovery engine: barrier-style execution of a faulted segment
    /// with checkpoints, retained deliveries, and crash replay. Model
    /// output (states, round stats, critical path, pending messages) is
    /// bit-identical to a fault-free run of the same segment; the only
    /// additions are the fault events and [`crate::FaultStats`].
    fn run_recoverable(
        &mut self,
        rounds: &[SegmentRound<'_, S, M>],
        plan: FaultPlan,
        base: usize,
    ) -> Result<(), ClusterError> {
        let m = self.config.num_machines;
        let every = self.config.faults.checkpoint_every.max(1);
        let max_replays = self.config.faults.max_replays;
        if self.ckpt.is_none() {
            self.ckpt = Some(CheckpointStore::new(m));
        }

        // The restorable snapshot mirroring the checkpoint files, the
        // round it was taken at, and every round's deliveries since —
        // `retained[j][i]` is machine `i`'s inbox for relative round
        // `snapshot_round + j`.
        let mut snapshot: Vec<S> = self.states.clone();
        let mut prev_snapshot: Vec<S> = Vec::new();
        let mut snapshot_round = 0usize;
        let mut retained: Vec<Vec<Vec<M>>> = Vec::new();
        let mut replays = vec![0u32; m];

        for (k, round) in rounds.iter().enumerate() {
            let round_index = self.trace.rounds.len();
            let started = Instant::now();
            let mut injected = vec![0u64; m];
            let mut ckpt_words = vec![0u64; m];
            let mut replayed = vec![0u64; m];

            // Checkpoint cadence: segment entry, then every `every`
            // rounds. The previous snapshot is kept one generation so
            // the `stale-checkpoint` seeded mutation has something
            // wrong to restore.
            if k % every == 0 {
                prev_snapshot = std::mem::replace(&mut snapshot, self.states.clone());
                if prev_snapshot.is_empty() {
                    prev_snapshot = snapshot.clone();
                }
                snapshot_round = k;
                retained.clear();
                let store = self.ckpt.as_mut().map_or_else(
                    // Unreachable (created above), but recovery-critical
                    // code does not unwrap.
                    || {
                        Err(ClusterError::Checkpoint {
                            machine: 0,
                            message: "checkpoint store missing".into(),
                        })
                    },
                    Ok,
                )?;
                for (i, state) in self.states.iter().enumerate() {
                    let words = state.words();
                    store.write(i, words)?;
                    ckpt_words[i] = words as u64;
                    self.trace.faults.checkpoint_words += words as u64;
                }
            }
            // Retain this round's deliveries before the computes drain
            // them: replay needs to re-deliver them, and drop/duplicate
            // repair re-reads the damaged region from them.
            retained.push((0..m).map(|i| self.inboxes.slice(i).to_vec()).collect());

            // Straggler delays: a bounded host-side spin before the
            // machine's compute. Host timing only — the determinism
            // contract says the model plane cannot see it.
            for (i, inj) in injected.iter_mut().enumerate() {
                if plan.fires(FaultKind::Straggle, i, base + k) {
                    *inj += 1;
                    for _ in 0..256 {
                        std::hint::spin_loop();
                    }
                }
            }

            self.compute_all(round.body());
            let compute_s = started.elapsed().as_secs_f64();
            self.cp.capture_deps(&self.outboxes);
            let route_mark = Instant::now();
            route(
                &self.config,
                round_index,
                &mut self.outboxes,
                &mut self.inboxes,
                &mut self.scratch,
            );
            let route_s = route_mark.elapsed().as_secs_f64();

            // Dropped / duplicated deliveries: the flat layout's exact
            // region counts make both detectable, and the retained arena
            // makes them repairable before the next compute. The model
            // sees only the fault event.
            for (i, inj) in injected.iter_mut().enumerate() {
                if plan.fires(FaultKind::Drop, i, base + k) {
                    *inj += 1;
                }
                if plan.fires(FaultKind::Duplicate, i, base + k) {
                    *inj += 1;
                }
            }

            // Crash-restarts: restore the snapshot and replay every
            // round since it against the retained deliveries. Replayed
            // sends/spills are discarded, so model costs stay exact.
            for i in 0..m {
                if !plan.fires(FaultKind::Crash, i, base + k) {
                    continue;
                }
                injected[i] += 1;
                replays[i] += 1;
                if replays[i] > max_replays {
                    return Err(ClusterError::ReplayBudgetExhausted {
                        machine: i,
                        round: round_index,
                        budget: max_replays,
                    });
                }
                // The `stale-checkpoint` seeded mutation restores the
                // previous (wrong) snapshot generation; the chaos
                // mutation gate must catch the divergence.
                let restore = if chaos_mutation("stale-checkpoint") {
                    &prev_snapshot
                } else {
                    &snapshot
                };
                self.states[i] = restore[i].clone();
                for (j, past) in retained[..=(k - snapshot_round)].iter().enumerate() {
                    Self::replay_round(
                        rounds[snapshot_round + j].body(),
                        i,
                        m,
                        &mut self.states[i],
                        &past[i],
                    );
                    replayed[i] += 1;
                    self.trace.faults.replayed_rounds += 1;
                }
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

            self.bookkeep_round(round.label(), round_index);
            self.finish_host_phase(compute_s, route_s);
            self.round_wall.push(started.elapsed().as_secs_f64());

            if let Some(e) = self.take_spill_error() {
                return Err(e);
            }
        }
        Ok(())
    }

    /// Re-runs one round body for one crashed machine against a restored
    /// state and that round's retained deliveries. The replay context is
    /// fresh — its sends and spill writes are discarded on return, since
    /// the original execution already delivered and charged them.
    fn replay_round(body: &RoundFn<'_, S, M>, machine: usize, m: usize, state: &mut S, msgs: &[M]) {
        let mut buf: Vec<M> = msgs.to_vec();
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

    fn mix_round<'a>(r: u64) -> SegmentRound<'a, Acc, u64> {
        SegmentRound::new(
            "mix",
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
            },
        )
    }

    fn segment<'a>(rounds: u64) -> Vec<SegmentRound<'a, Acc, u64>> {
        (0..rounds).map(mix_round).collect()
    }

    fn run(cfg: MpcConfig, segments: usize) -> Result<Cluster<Acc, u64>, ClusterError> {
        let mut c: Cluster<Acc, u64> = Cluster::new(cfg, |_| Acc::default());
        for _ in 0..segments {
            c.try_run_segment(segment(4))?;
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

    #[test]
    fn fault_free_try_segment_matches_plain_segment() {
        let cfg = MpcConfig::new(4, 10_000);
        let mut plain: Cluster<Acc, u64> = Cluster::new(cfg, |_| Acc::default());
        for _ in 0..2 {
            plain.run_segment(segment(4));
        }
        let tried = run(cfg, 2).unwrap();
        assert_eq!(plain.trace(), tried.trace());
        assert_eq!(fingerprint(&plain), fingerprint(&tried));
        assert_eq!(tried.trace().faults, Default::default());
    }

    #[test]
    fn crash_replay_recovers_bit_identical_state() {
        let clean = run(MpcConfig::new(4, 10_000), 3).unwrap();
        let faulted = MpcConfig::new(4, 10_000).with_faults(FaultConfig {
            seed: 3,
            crash_rate: 0.3,
            checkpoint_every: 2,
            ..FaultConfig::none()
        });
        let recovered = run(faulted, 3).unwrap();
        assert!(
            recovered.trace().faults.injected > 0,
            "rate 0.3 over 12 rounds x 4 machines must crash somewhere"
        );
        assert!(recovered.trace().faults.replayed_rounds > 0);
        assert!(recovered.trace().faults.checkpoint_words > 0);
        assert_eq!(fingerprint(&clean), fingerprint(&recovered));
        // The deterministic plane beyond round stats matches too.
        assert_eq!(clean.trace().critical_path, recovered.trace().critical_path);
        assert_eq!(clean.trace().violations, recovered.trace().violations);
    }

    #[test]
    fn mixed_fault_classes_recover_bit_identical_state() {
        let clean = run(MpcConfig::new(5, 10_000), 3).unwrap();
        let faulted = MpcConfig::new(5, 10_000).with_faults(FaultConfig {
            seed: 9,
            crash_rate: 0.15,
            drop_rate: 0.2,
            dup_rate: 0.2,
            straggler_rate: 0.3,
            checkpoint_every: 2,
            ..FaultConfig::none()
        });
        let recovered = run(faulted, 3).unwrap();
        assert!(recovered.trace().faults.injected > 0);
        assert_eq!(fingerprint(&clean), fingerprint(&recovered));
    }

    #[test]
    fn pipelined_faulted_segment_degrades_and_still_matches() {
        let clean = run(MpcConfig::new(4, 10_000), 3).unwrap();
        let faulted = MpcConfig::new(4, 10_000)
            .pipelined()
            .with_faults(FaultConfig {
                seed: 3,
                crash_rate: 0.3,
                checkpoint_every: 1,
                ..FaultConfig::none()
            });
        let recovered = run(faulted, 3).unwrap();
        assert!(recovered.trace().faults.degraded_segments > 0);
        assert_eq!(fingerprint(&clean), fingerprint(&recovered));
    }

    #[test]
    fn replay_budget_exhaustion_is_a_typed_error() {
        let cfg = MpcConfig::new(3, 10_000).with_faults(FaultConfig {
            crash_rate: 1.0,
            max_replays: 1,
            checkpoint_every: 1,
            ..FaultConfig::none()
        });
        let err = run(cfg, 1).map(|_| ()).unwrap_err();
        assert!(matches!(
            err,
            ClusterError::ReplayBudgetExhausted { budget: 1, .. }
        ));
    }

    #[test]
    fn fault_events_flow_through_the_rings() {
        let cfg = MpcConfig::new(3, 10_000).with_faults(FaultConfig {
            seed: 5,
            crash_rate: 0.4,
            checkpoint_every: 2,
            ..FaultConfig::none()
        });
        let c = run(cfg, 2).unwrap();
        let kinds: Vec<EventKind> = c.trace().events.iter().map(|e| e.kind).collect();
        assert!(kinds.contains(&EventKind::FaultInjected));
        assert!(kinds.contains(&EventKind::CheckpointWords));
        assert!(kinds.contains(&EventKind::ReplayRounds));
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
