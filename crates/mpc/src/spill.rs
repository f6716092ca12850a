//! Per-machine spill files: the escape hatch that makes the resident cap
//! `S` a real constraint instead of an accounting fiction.
//!
//! Under [`MemoryBudget::Enforced`](crate::MemoryBudget), a machine whose
//! working set would exceed `S` words must move the excess here — a
//! word-oriented temporary file owned by the cluster and lent to the
//! machine each round alongside its outbox. The accounting layer drains
//! the per-round spilled word count into
//! [`RoundStats::spill_words`](crate::RoundStats), so spill traffic is a
//! first-class, gated model cost rather than an invisible host detail.
//!
//! A `SpillFile` is deliberately dumb: an append-only word log with
//! rewind-and-replay reads. Executors layer their own framing on top
//! (the out-of-core executor spills its adjacency shard, a plain slice
//! of packed half-edge words).
//!
//! # Failure model
//!
//! Spill I/O is recovery-critical, so nothing here unwraps an I/O
//! result. Every operation returns `io::Result`, and a failure also
//! *latches* into the file: once latched, further operations refuse with
//! the same error and the cluster surfaces it at the end of the round as
//! a typed [`ClusterError::SpillIo`](crate::ClusterError) (round bodies
//! cannot propagate `Result`s themselves). When a
//! [`FaultPlan`] with a nonzero `spill_io_rate` is
//! armed, each operation additionally draws injected transient failures
//! and retries them under a bounded, attempt-count backoff — spins, not
//! sleeps, so no wall-clock enters the model domain.

use crate::faults::{chaos_mutation, FaultPlan};
use std::fs::File;
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::PathBuf;

/// Reinterprets a word slice as bytes for bulk file I/O.
fn words_as_bytes(words: &[u64]) -> &[u8] {
    // SAFETY: u64 has no padding, every byte pattern is valid, and the
    // length is scaled by the element size; the byte slice borrows the
    // word slice.
    unsafe { std::slice::from_raw_parts(words.as_ptr().cast::<u8>(), words.len() * 8) }
}

/// Reinterprets a mutable word slice as bytes for bulk file I/O.
fn words_as_bytes_mut(words: &mut [u64]) -> &mut [u8] {
    // SAFETY: as in `words_as_bytes`; any bytes read into the buffer form
    // valid u64 values. Spill files are same-process temporaries, so
    // native byte order roundtrips exactly.
    unsafe { std::slice::from_raw_parts_mut(words.as_mut_ptr().cast::<u8>(), words.len() * 8) }
}

/// Injected-fault state, armed once per cluster when the configured
/// `spill_io_rate` is nonzero.
#[derive(Debug, Clone, Copy)]
struct ArmedFaults {
    plan: FaultPlan,
    machine: usize,
    max_retries: u32,
}

/// An append-only, rewindable word log backed by a lazily created
/// temporary file (deleted on drop). All sizes are in 64-bit words, the
/// simulator's unit of account.
#[derive(Debug, Default)]
pub struct SpillFile {
    /// Lazily created on first write: machines that never exceed their
    /// budget never touch the filesystem.
    file: Option<File>,
    path: Option<PathBuf>,
    /// Total words ever spilled (monotone; survives `clear`).
    spilled_words: u64,
    /// Words spilled since the last `take_round_words` drain.
    round_words: u64,
    /// Words currently stored (reset by `clear`).
    stored_words: u64,
    /// Read position in words, advanced by `read_words`.
    read_cursor: u64,
    /// Host seconds spent in spill I/O since the last
    /// `take_round_secs` drain. Informational only (host-dependent);
    /// feeds the cluster's per-round host-phase split, never the trace.
    round_secs: f64,
    /// Injected-fault plan, if armed.
    faults: Option<ArmedFaults>,
    /// Monotone per-file operation counter: the deterministic coordinate
    /// of injected spill faults.
    op_counter: u64,
    /// Failed-and-retried attempts since the last `take_round_retries`
    /// drain (feeds [`FaultStats::retries`](crate::FaultStats)).
    round_retries: u64,
    /// First unrecovered failure: `(attempts, message)`. Latched until
    /// the accounting layer drains it via `take_error`.
    pending_error: Option<(u32, String)>,
}

impl SpillFile {
    /// A new, empty spill file; no filesystem activity until the first
    /// [`write_words`](Self::write_words).
    pub fn new() -> Self {
        Self::default()
    }

    /// Arms deterministic fault injection for this file as `machine`'s
    /// spill log. Called once per cluster construction; a plan with a
    /// zero `spill_io_rate` never fires, so arming is harmless.
    pub(crate) fn arm_faults(&mut self, plan: FaultPlan, machine: usize) {
        self.faults = Some(ArmedFaults {
            plan,
            machine,
            max_retries: plan.config().max_retries,
        });
    }

    /// Latches `err` (first failure wins) and returns it.
    fn latch(&mut self, attempts: u32, err: io::Error) -> io::Error {
        if self.pending_error.is_none() {
            self.pending_error = Some((attempts, err.to_string()));
        }
        err
    }

    /// The already-latched error, if any, as a fresh `io::Error`.
    fn latched(&self) -> Option<io::Error> {
        self.pending_error
            .as_ref()
            .map(|(_, msg)| io::Error::other(msg.clone()))
    }

    /// The injected-fault gate, run once per spill operation: draws the
    /// deterministic per-attempt coins and retries failed attempts under
    /// an attempt-count backoff (bounded spins — the model domain sees no
    /// wall-clock). Exhausting `max_retries` latches the error. The
    /// `skip-retry` chaos mutation gives up on the first failed attempt,
    /// which the mutation gate must detect.
    fn admit_op(&mut self) -> io::Result<()> {
        let Some(armed) = self.faults else {
            return Ok(());
        };
        let op = self.op_counter;
        self.op_counter += 1;
        let mut attempt: u32 = 0;
        loop {
            if !armed.plan.spill_attempt_fires(armed.machine, op, attempt) {
                return Ok(());
            }
            if chaos_mutation("skip-retry") || attempt >= armed.max_retries {
                return Err(self.latch(
                    attempt + 1,
                    io::Error::other(format!(
                        "injected spill I/O fault persisted through {} attempt(s) (op {op})",
                        attempt + 1
                    )),
                ));
            }
            // Attempt-count backoff: deterministic spin growth, no sleep.
            for _ in 0..(64u32 << attempt.min(8)) {
                std::hint::spin_loop();
            }
            self.round_retries += 1;
            attempt += 1;
        }
    }

    /// Appends words to the log, creating the backing file on first use.
    /// A failure (injected past the retry budget, or a real I/O error)
    /// latches into the file and surfaces as a typed cluster error at
    /// the end of the round.
    pub fn write_words(&mut self, words: &[u64]) -> io::Result<()> {
        if words.is_empty() {
            return Ok(());
        }
        if let Some(e) = self.latched() {
            return Err(e);
        }
        let io_mark = std::time::Instant::now();
        self.admit_op()?;
        if self.file.is_none() {
            static NEXT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
            let uniq = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            let path =
                std::env::temp_dir().join(format!("mpc-spill-{}-{uniq}.words", std::process::id()));
            let file = match File::options()
                .read(true)
                .write(true)
                .create(true)
                .truncate(true)
                .open(&path)
            {
                Ok(f) => f,
                Err(e) => return Err(self.latch(1, e)),
            };
            self.file = Some(file);
            self.path = Some(path);
        }
        let pos = self.stored_words * 8;
        let io = self.file.as_mut().map_or_else(
            // Unreachable (the file was just ensured), but recovery-
            // critical code does not unwrap: treat it as an I/O failure.
            || Err(io::Error::other("spill file missing after creation")),
            |f| {
                f.seek(SeekFrom::Start(pos))?;
                f.write_all(words_as_bytes(words))
            },
        );
        if let Err(e) = io {
            return Err(self.latch(1, e));
        }
        self.stored_words += words.len() as u64;
        self.spilled_words += words.len() as u64;
        self.round_words += words.len() as u64;
        self.round_secs += io_mark.elapsed().as_secs_f64();
        Ok(())
    }

    /// Rewinds the read cursor to the start of the stored words.
    pub fn rewind(&mut self) {
        self.read_cursor = 0;
    }

    /// Reads up to `buf.len()` words from the current read position,
    /// returning how many were filled (0 at end of log). Failures latch
    /// exactly like [`write_words`](Self::write_words).
    pub fn read_words(&mut self, buf: &mut [u64]) -> io::Result<usize> {
        if let Some(e) = self.latched() {
            return Err(e);
        }
        if self.file.is_none() {
            return Ok(0);
        }
        let left = self.stored_words.saturating_sub(self.read_cursor) as usize;
        let take = left.min(buf.len());
        if take == 0 {
            return Ok(0);
        }
        let io_mark = std::time::Instant::now();
        self.admit_op()?;
        let pos = self.read_cursor * 8;
        let io = self.file.as_mut().map_or_else(
            || Err(io::Error::other("spill file missing during read")),
            |f| {
                // Seek explicitly: the OS cursor may sit at the append
                // position after an interleaved write.
                f.seek(SeekFrom::Start(pos))?;
                f.read_exact(words_as_bytes_mut(&mut buf[..take]))
            },
        );
        if let Err(e) = io {
            return Err(self.latch(1, e));
        }
        self.read_cursor += take as u64;
        self.round_secs += io_mark.elapsed().as_secs_f64();
        Ok(take)
    }

    /// Forgets the stored words (the backing file is kept for reuse).
    /// Cumulative spill accounting is unaffected.
    pub fn clear(&mut self) {
        self.stored_words = 0;
        self.read_cursor = 0;
    }

    /// Words currently stored in the log.
    pub fn stored_words(&self) -> u64 {
        self.stored_words
    }

    /// Total words spilled over the file's lifetime.
    pub fn spilled_words(&self) -> u64 {
        self.spilled_words
    }

    /// Drains the words-spilled-since-last-call counter — the accounting
    /// layer calls this once per round to populate the machine's
    /// [`MachineRound::spill_words`](crate::MachineRound) and the round's
    /// [`RoundStats::spill_words`](crate::RoundStats).
    pub fn take_round_words(&mut self) -> u64 {
        std::mem::take(&mut self.round_words)
    }

    /// Drains the host seconds spent in spill I/O since the last call —
    /// the accounting layer folds this into the round's host-phase
    /// split. Informational only, never part of the deterministic trace.
    pub fn take_round_secs(&mut self) -> f64 {
        std::mem::take(&mut self.round_secs)
    }

    /// Drains the failed-and-retried attempt count since the last call —
    /// the accounting layer adds it to
    /// [`FaultStats::retries`](crate::FaultStats). Deterministic
    /// (injected retries are plan-driven).
    pub fn take_round_retries(&mut self) -> u64 {
        std::mem::take(&mut self.round_retries)
    }

    /// Drains the latched unrecovered failure, if any, as
    /// `(attempts, message)` — the cluster turns it into a typed
    /// [`ClusterError::SpillIo`](crate::ClusterError).
    pub fn take_error(&mut self) -> Option<(u32, String)> {
        self.pending_error.take()
    }

    /// Whether an unrecovered failure is latched.
    pub fn has_error(&self) -> bool {
        self.pending_error.is_some()
    }
}

impl Drop for SpillFile {
    fn drop(&mut self) {
        if let Some(p) = self.path.take() {
            let _ = std::fs::remove_file(p);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::FaultConfig;

    #[test]
    fn roundtrip_and_accounting() {
        let mut s = SpillFile::new();
        assert_eq!(s.read_words(&mut [0; 4]).unwrap(), 0);
        s.write_words(&[1, 2, 3]).unwrap();
        s.write_words(&[4, 5]).unwrap();
        assert_eq!(s.stored_words(), 5);
        assert_eq!(s.spilled_words(), 5);
        assert_eq!(s.take_round_words(), 5);
        assert_eq!(s.take_round_words(), 0);
        s.rewind();
        let mut buf = [0u64; 3];
        assert_eq!(s.read_words(&mut buf).unwrap(), 3);
        assert_eq!(buf, [1, 2, 3]);
        assert_eq!(s.read_words(&mut buf).unwrap(), 2);
        assert_eq!(&buf[..2], &[4, 5]);
        assert_eq!(s.read_words(&mut buf).unwrap(), 0);
    }

    #[test]
    fn clear_keeps_cumulative_totals() {
        let mut s = SpillFile::new();
        s.write_words(&[7; 10]).unwrap();
        s.clear();
        assert_eq!(s.stored_words(), 0);
        assert_eq!(s.spilled_words(), 10);
        s.write_words(&[8, 9]).unwrap();
        s.rewind();
        let mut buf = [0u64; 8];
        assert_eq!(s.read_words(&mut buf).unwrap(), 2);
        assert_eq!(&buf[..2], &[8, 9]);
        assert_eq!(s.spilled_words(), 12);
    }

    #[test]
    fn empty_write_creates_no_file() {
        let mut s = SpillFile::new();
        s.write_words(&[]).unwrap();
        assert!(s.path.is_none());
        assert_eq!(s.spilled_words(), 0);
    }

    #[test]
    fn backing_file_removed_on_drop() {
        let path = {
            let mut s = SpillFile::new();
            s.write_words(&[1]).unwrap();
            s.path.clone().unwrap()
        };
        assert!(!path.exists(), "spill file {path:?} leaked");
    }

    fn faulty(rate: f64, max_retries: u32, seed: u64) -> SpillFile {
        let mut s = SpillFile::new();
        s.arm_faults(
            FaultPlan::new(FaultConfig {
                seed,
                spill_io_rate: rate,
                max_retries,
                ..FaultConfig::none()
            }),
            0,
        );
        s
    }

    #[test]
    fn transient_faults_retry_deterministically_to_success() {
        let run = || {
            let mut s = faulty(0.5, 16, 11);
            for i in 0..32u64 {
                s.write_words(&[i]).unwrap();
            }
            s.rewind();
            let mut buf = [0u64; 32];
            assert_eq!(s.read_words(&mut buf).unwrap(), 32);
            assert_eq!(buf[31], 31);
            (s.take_round_retries(), buf)
        };
        let (r1, b1) = run();
        let (r2, b2) = run();
        assert!(r1 > 0, "rate 0.5 over 33 ops must retry at least once");
        assert_eq!(r1, r2, "retry schedule must be deterministic");
        assert_eq!(b1, b2);
        assert!(!faulty(0.5, 16, 11).has_error());
    }

    #[test]
    fn persistent_fault_latches_a_typed_error() {
        let mut s = faulty(1.0, 3, 5);
        let err = s.write_words(&[1, 2, 3]).unwrap_err();
        assert!(err.to_string().contains("injected"), "{err}");
        assert!(s.has_error());
        // The latch sticks: later operations refuse with the same error.
        assert!(s.write_words(&[4]).is_err());
        assert!(s.read_words(&mut [0; 2]).is_err());
        let (attempts, msg) = s.take_error().unwrap();
        assert_eq!(attempts, 4, "initial attempt plus max_retries");
        assert!(msg.contains("injected"));
        assert!(!s.has_error());
        // Nothing was written through the failure.
        assert_eq!(s.stored_words(), 0);
    }

    #[test]
    fn unarmed_file_never_injects() {
        let mut s = SpillFile::new();
        for i in 0..64u64 {
            s.write_words(&[i]).unwrap();
        }
        assert_eq!(s.take_round_retries(), 0);
        assert!(!s.has_error());
    }
}
