//! Out-of-core graph storage: a chunked on-disk CSR format, a streaming
//! builder that sorts and deduplicates under an explicit byte budget, and
//! a bounded-buffer bucket reader.
//!
//! # The format (`OCSR`, version 1)
//!
//! A chunked-CSR file holds the half-edge array of a simple undirected
//! graph — every edge `{u, v}` appears twice, as `(u, v)` and `(v, u)` —
//! globally sorted by `(src, dst)` and deduplicated, cut into fixed-size
//! *buckets* of [`DEFAULT_BUCKET_ENTRIES`] entries each (only the last
//! bucket may be short). Because the array is sorted by source, a bucket
//! range is exactly a contiguous adjacency shard, and the per-bucket index
//! (first source vertex + entry count) lets a consumer map any contiguous
//! bucket range to the source-vertex span it covers without touching the
//! payload.
//!
//! Layout, all little-endian:
//!
//! ```text
//! offset  size  field
//! 0       4     magic "OCSR"
//! 4       4     version (u32, = 1)
//! 8       8     n          (u64, vertex count)
//! 16      8     half_edges (u64, total entries = 2·m)
//! 24      4     bucket_entries (u32, max entries per bucket)
//! 28      4     reserved (0)
//! 32      8     num_buckets (u64)
//! 40      —     payload: half_edges × (src: u32, dst: u32)
//! then    —     index: num_buckets × (first_src: u32, entries: u32)
//! ```
//!
//! # Memory discipline
//!
//! [`StreamingGraphBuilder`] holds its half-edges in one buffer of
//! `B = max(byte_budget, 8 KiB)` bytes. A full buffer becomes one on-disk
//! *run*: it is sorted as one contiguous slice per pool thread, in
//! parallel, each slice deduplicated and converted to little-endian in
//! place and then written out. Each slice keeps a sparse sample of its
//! keys, every `s`-th with stride `s = max(⌈len/1024⌉, 16)`: at most 1025
//! keys (8 KiB). `finish` merges the runs inside the same buffer, in
//! key-range *windows* planned from the samples. The buffer is cut into
//! one region per pool thread, half data and half merge scratch; each
//! window is loaded from every slice into a region's data half, merged
//! pairwise between its halves, deduplicated and appended to the output
//! file, one window per region at a time. The peak heap of a build is
//!
//! ```text
//! max(B, 64 bytes · Σ s) + 8 bytes · (bucket_entries + sampled keys)
//!     + O(slices + windows + buckets) words of bookkeeping
//! ```
//!
//! where `Σ s` sums the strides of all slices. With few runs the first
//! term is `B`: the build holds its budget, one bucket (512 KiB at the
//! default size) and at most 8 KiB of samples per slice. A window must
//! span at least four strides of every slice, so that loads stay mostly
//! useful and the number of windows (each one seek per slice) stays
//! linear in the data. With very many runs for the budget — once
//! `64 bytes · Σ s` exceeds `B`, at 1 KiB or more per slice — that floor
//! wins, and the merge region grows with the run count, as do the
//! samples. Measured on 32 M half-edges: 64.6 MiB of peak heap growth at
//! a 64 MiB budget (4 runs), 7.3 MiB at a 1 MiB budget (245 runs).
//! [`BucketStream`] reads buckets back through one buffer sized by the
//! largest bucket of its range.
//!
//! The produced graph is **identical** to what [`GraphBuilder`](crate::GraphBuilder) builds
//! from the same edge sequence: both paths end at the sorted, deduplicated
//! half-edge array, so [`ChunkedCsr::load_graph`] on the file equals
//! [`GraphBuilder::build`](crate::GraphBuilder::build) on the same inserts (pinned by tests).

use crate::builder::EdgeSink;
use crate::csr::{Graph, VertexId};
use rayon::prelude::*;
use std::fs::File;
use std::io::{Read, Seek, SeekFrom, Write};
use std::ops::Range;
use std::path::{Path, PathBuf};

/// Magic bytes of the chunked-CSR format.
pub const OCSR_MAGIC: [u8; 4] = *b"OCSR";
/// Current format version.
pub const OCSR_VERSION: u32 = 1;
/// Byte offset where the bucket payload starts.
const HEADER_BYTES: u64 = 40;
/// Default entries per bucket (64 Ki half-edges = 512 KiB payload).
pub const DEFAULT_BUCKET_ENTRIES: u32 = 1 << 16;
/// Smallest half-edge buffer the streaming builder will run with, in
/// entries; budgets below this are rounded up so the builder always
/// makes progress.
const MIN_BUFFER_ENTRIES: usize = 1 << 10;
/// Keys sampled per run slice: a slice keeps every
/// `⌈len / SAMPLES_PER_SLICE⌉`-th key (but at least every
/// [`MIN_SAMPLE_STRIDE`]-th), from which the merge plans its windows.
const SAMPLES_PER_SLICE: usize = 1 << 10;
/// Smallest sample stride, so the samples of short slices stay a small
/// fraction of the data they index.
const MIN_SAMPLE_STRIDE: usize = 16;
/// Smallest merge window, in sample strides summed over all slices. A
/// window's load overshoots each slice by less than two strides, so this
/// floor keeps at least half of every load useful and the number of
/// windows (each one seek per slice) linear in the data, not in
/// slices × data.
const WINDOW_FLOOR_STRIDES: usize = 4;

/// Packs a directed half-edge into one `u64` word (`src` in the high
/// half), preserving `(src, dst)` lexicographic order under integer
/// comparison.
#[inline]
pub fn pack_half_edge(src: VertexId, dst: VertexId) -> u64 {
    ((src as u64) << 32) | dst as u64
}

/// Inverse of [`pack_half_edge`].
#[inline]
pub fn unpack_half_edge(packed: u64) -> (VertexId, VertexId) {
    ((packed >> 32) as VertexId, packed as u32)
}

fn io_err<T>(path: &Path, what: &str, e: std::io::Error) -> Result<T, String> {
    Err(format!("{what} {path:?}: {e}"))
}

/// Reinterprets a word slice as bytes for bulk file I/O.
fn words_as_bytes(words: &[u64]) -> &[u8] {
    // SAFETY: u64 has no padding; every byte pattern is valid; the length
    // is scaled by the element size. Lifetime is tied to the input slice.
    unsafe { std::slice::from_raw_parts(words.as_ptr().cast::<u8>(), words.len() * 8) }
}

/// Reinterprets a mutable word slice as bytes for bulk file I/O.
fn words_as_bytes_mut(words: &mut [u64]) -> &mut [u8] {
    // SAFETY: as in `words_as_bytes`, and any byte pattern read into the
    // buffer is a valid u64. Files written by this module are same-machine
    // temporaries, so no endianness conversion is needed.
    unsafe { std::slice::from_raw_parts_mut(words.as_mut_ptr().cast::<u8>(), words.len() * 8) }
}

/// One entry of the bucket index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BucketIndexEntry {
    /// Source vertex of the bucket's first half-edge.
    pub first_src: VertexId,
    /// Number of half-edges stored in the bucket (equals the file's
    /// `bucket_entries` for every bucket but possibly the last).
    pub entries: u32,
}

/// An opened chunked-CSR file: the parsed header and bucket index (a few
/// words per bucket — the only part held in RAM) plus the path, from
/// which any number of independent [`BucketStream`] readers can be
/// opened. Cheap to share across threads; holds no file handle itself.
#[derive(Debug, Clone)]
pub struct ChunkedCsr {
    path: PathBuf,
    n: u64,
    half_edges: u64,
    bucket_entries: u32,
    index: Vec<BucketIndexEntry>,
}

impl ChunkedCsr {
    /// Opens and validates a chunked-CSR file, reading only the header
    /// and the bucket index.
    pub fn open(path: impl Into<PathBuf>) -> Result<ChunkedCsr, String> {
        let path = path.into();
        let mut f = match File::open(&path) {
            Ok(f) => f,
            Err(e) => return io_err(&path, "cannot open", e),
        };
        let mut header = [0u8; HEADER_BYTES as usize];
        if let Err(e) = f.read_exact(&mut header) {
            return io_err(&path, "cannot read header of", e);
        }
        if header[0..4] != OCSR_MAGIC {
            return Err(format!("{path:?} is not a chunked-CSR file (bad magic)"));
        }
        let version = u32::from_le_bytes(header[4..8].try_into().unwrap());
        if version != OCSR_VERSION {
            return Err(format!(
                "{path:?} has chunked-CSR version {version}, this build reads {OCSR_VERSION}"
            ));
        }
        let n = u64::from_le_bytes(header[8..16].try_into().unwrap());
        let half_edges = u64::from_le_bytes(header[16..24].try_into().unwrap());
        let bucket_entries = u32::from_le_bytes(header[24..28].try_into().unwrap());
        let num_buckets = u64::from_le_bytes(header[32..40].try_into().unwrap());
        if bucket_entries == 0 {
            return Err(format!("{path:?}: zero bucket size"));
        }
        if n > u32::MAX as u64 {
            return Err(format!(
                "{path:?}: vertex count {n} exceeds the u32 id space"
            ));
        }
        if num_buckets != half_edges.div_ceil(bucket_entries as u64) {
            return Err(format!(
                "{path:?}: bucket count {num_buckets} inconsistent with \
                 {half_edges} entries of {bucket_entries}"
            ));
        }
        // The header's counts must describe exactly this file before any of
        // them sizes an allocation.
        let index_start = half_edges
            .checked_mul(8)
            .and_then(|payload| payload.checked_add(HEADER_BYTES));
        let expected = index_start.and_then(|i| num_buckets.checked_mul(8)?.checked_add(i));
        let actual = match f.metadata() {
            Ok(m) => m.len(),
            Err(e) => return io_err(&path, "cannot stat", e),
        };
        let (Some(index_start), Some(expected)) = (index_start, expected) else {
            return Err(format!(
                "{path:?}: header counts overflow ({half_edges} entries, {num_buckets} buckets)"
            ));
        };
        if actual != expected {
            return Err(format!(
                "{path:?} is {actual} bytes, its header describes {expected}"
            ));
        }
        if let Err(e) = f.seek(SeekFrom::Start(index_start)) {
            return io_err(&path, "cannot seek to index of", e);
        }
        let mut raw = vec![0u8; num_buckets as usize * 8];
        if let Err(e) = f.read_exact(&mut raw) {
            return io_err(&path, "cannot read bucket index of", e);
        }
        let index: Vec<BucketIndexEntry> = raw
            .chunks_exact(8)
            .map(|c| BucketIndexEntry {
                first_src: u32::from_le_bytes(c[0..4].try_into().unwrap()),
                entries: u32::from_le_bytes(c[4..8].try_into().unwrap()),
            })
            .collect();
        // Every bucket but the last is full, so the entry counts sum to the
        // header's and no bucket exceeds `bucket_entries`.
        let last_entries = half_edges - (num_buckets.max(1) - 1) * bucket_entries as u64;
        let mismatch = index.iter().enumerate().find(|&(i, b)| {
            let want = if i + 1 < index.len() {
                bucket_entries as u64
            } else {
                last_entries
            };
            b.entries as u64 != want
        });
        if let Some((i, b)) = mismatch {
            return Err(format!(
                "{path:?}: bucket {i} holds {} entries, which {half_edges} entries in \
                 buckets of {bucket_entries} do not allow",
                b.entries
            ));
        }
        Ok(ChunkedCsr {
            path,
            n,
            half_edges,
            bucket_entries,
            index,
        })
    }

    /// Path of the underlying file.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> usize {
        self.n as usize
    }

    /// Number of undirected edges (half the stored entries).
    pub fn num_edges(&self) -> u64 {
        self.half_edges / 2
    }

    /// Number of stored half-edges (`2·m`).
    pub fn num_half_edges(&self) -> u64 {
        self.half_edges
    }

    /// Maximum entries per bucket.
    pub fn bucket_entries(&self) -> u32 {
        self.bucket_entries
    }

    /// Number of buckets.
    pub fn num_buckets(&self) -> usize {
        self.index.len()
    }

    /// The bucket index: first source vertex and entry count per bucket.
    pub fn bucket_index(&self) -> &[BucketIndexEntry] {
        &self.index
    }

    /// Total half-edges in the contiguous bucket range `lo..hi`.
    pub fn entries_in_buckets(&self, lo: usize, hi: usize) -> u64 {
        self.index[lo..hi].iter().map(|b| b.entries as u64).sum()
    }

    /// Opens a reader over the contiguous bucket range `lo..hi` with its
    /// own file handle (independent readers may stream concurrently).
    pub fn stream_range(&self, lo: usize, hi: usize) -> Result<BucketStream, String> {
        assert!(
            lo <= hi && hi <= self.index.len(),
            "bucket range out of bounds"
        );
        let mut f = match File::open(&self.path) {
            Ok(f) => f,
            Err(e) => return io_err(&self.path, "cannot open", e),
        };
        let first_entry: u64 = self.entries_in_buckets(0, lo);
        if let Err(e) = f.seek(SeekFrom::Start(HEADER_BYTES + first_entry * 8)) {
            return io_err(&self.path, "cannot seek in", e);
        }
        let sizes: Vec<u32> = self.index[lo..hi].iter().map(|b| b.entries).collect();
        let largest = sizes.iter().copied().max().unwrap_or(0) as usize;
        Ok(BucketStream {
            file: f,
            sizes,
            next: 0,
            words: Vec::with_capacity(largest),
            entries: Vec::with_capacity(largest),
        })
    }

    /// Opens a reader over every bucket.
    pub fn stream(&self) -> Result<BucketStream, String> {
        self.stream_range(0, self.index.len())
    }

    /// Degree of every vertex, computed in one bounded-memory pass over
    /// the file (`O(n)` result + one bucket buffer).
    pub fn degrees(&self) -> Result<Vec<u32>, String> {
        let mut deg = vec![0u32; self.n as usize];
        let mut s = self.stream()?;
        while let Some(bucket) = s.next_bucket()? {
            for &(src, dst) in bucket {
                match (deg.get_mut(src as usize), (dst as u64) < self.n) {
                    (Some(d), true) => *d += 1,
                    _ => {
                        return Err(format!(
                            "{:?}: half-edge ({src}, {dst}) out of range for n = {}",
                            self.path, self.n
                        ))
                    }
                }
            }
        }
        Ok(deg)
    }

    /// Materializes the full in-memory [`Graph`]. This intentionally
    /// abandons the memory bound (`O(m)` RAM) — it exists for control
    /// instances and tests that compare the streamed pipeline against the
    /// in-memory one.
    pub fn load_graph(&self) -> Result<Graph, String> {
        let deg = self.degrees()?;
        let n = self.n as usize;
        let mut offsets = vec![0usize; n + 1];
        for v in 0..n {
            offsets[v + 1] = offsets[v] + deg[v] as usize;
        }
        let mut flat = vec![0 as VertexId; offsets[n]];
        let mut write = 0usize;
        let mut s = self.stream()?;
        while let Some(bucket) = s.next_bucket()? {
            for &(_, dst) in bucket {
                flat[write] = dst;
                write += 1;
            }
        }
        debug_assert_eq!(write, offsets[n]);
        Ok(Graph::from_csr_unchecked(offsets, flat))
    }
}

/// A bounded-buffer reader over a contiguous bucket range of a
/// [`ChunkedCsr`] file: one bucket of half-edges is resident at a time,
/// in one buffer reused across buckets.
pub struct BucketStream {
    file: File,
    /// Entry counts of the remaining buckets, in order.
    sizes: Vec<u32>,
    next: usize,
    /// Reusable packed read buffer.
    words: Vec<u64>,
    /// Reusable decoded view handed to the caller.
    entries: Vec<(VertexId, VertexId)>,
}

impl BucketStream {
    /// Reads the next bucket into the reusable buffer, returning its
    /// half-edges (sorted by `(src, dst)`), or `None` after the last
    /// bucket of the range.
    pub fn next_bucket(&mut self) -> Result<Option<&[(VertexId, VertexId)]>, String> {
        let Some(&count) = self.sizes.get(self.next) else {
            return Ok(None);
        };
        self.next += 1;
        let count = count as usize;
        self.words.resize(count, 0);
        if let Err(e) = self.file.read_exact(words_as_bytes_mut(&mut self.words)) {
            return Err(format!("short read in chunked-CSR payload: {e}"));
        }
        self.entries.clear();
        self.entries.extend(
            self.words
                .iter()
                .map(|&w| unpack_half_edge(u64::from_le(w))),
        );
        Ok(Some(&self.entries))
    }
}

/// Streaming writer of a chunked-CSR file. Input must be strictly
/// increasing packed half-edges (sorted, deduplicated); the writer cuts
/// them into fixed-size buckets and assembles the index and header.
struct ChunkedCsrWriter {
    path: PathBuf,
    file: File,
    bucket_entries: u32,
    bucket: Vec<u64>,
    index: Vec<BucketIndexEntry>,
    written: u64,
    last: Option<u64>,
}

impl ChunkedCsrWriter {
    fn create(path: &Path, n: u64, bucket_entries: u32) -> Result<Self, String> {
        assert!(bucket_entries > 0);
        let mut file = match File::create(path) {
            Ok(f) => f,
            Err(e) => return io_err(path, "cannot create", e),
        };
        // Placeholder header; half_edges and num_buckets are patched in
        // `finish`.
        let mut header = [0u8; HEADER_BYTES as usize];
        header[0..4].copy_from_slice(&OCSR_MAGIC);
        header[4..8].copy_from_slice(&OCSR_VERSION.to_le_bytes());
        header[8..16].copy_from_slice(&n.to_le_bytes());
        header[24..28].copy_from_slice(&bucket_entries.to_le_bytes());
        if let Err(e) = file.write_all(&header) {
            return io_err(path, "cannot write header of", e);
        }
        Ok(ChunkedCsrWriter {
            path: path.to_path_buf(),
            file,
            bucket_entries,
            bucket: Vec::with_capacity(bucket_entries as usize),
            index: Vec::new(),
            written: 0,
            last: None,
        })
    }

    /// Appends a block of packed half-edges. The block is converted to
    /// little-endian in place, and its whole buckets are written straight
    /// from it; only a partial bucket at either end is copied.
    fn push_slice(&mut self, words: &mut [u64]) -> Result<(), String> {
        debug_assert!(
            words.windows(2).all(|w| w[0] < w[1])
                && self
                    .last
                    .is_none_or(|l| words.first().is_none_or(|&f| l < f)),
            "chunked-CSR writer requires strictly increasing input"
        );
        let Some(&last) = words.last() else {
            return Ok(());
        };
        self.last = Some(last);
        let per_bucket = self.bucket_entries as usize;
        let mut rest = words;
        if !self.bucket.is_empty() {
            let (head, tail) = rest.split_at_mut((per_bucket - self.bucket.len()).min(rest.len()));
            self.bucket.extend(head.iter().map(|w| w.to_le()));
            if self.bucket.len() == per_bucket {
                self.flush_bucket()?;
            }
            rest = tail;
        }
        let (whole, tail) = rest.split_at_mut(rest.len() / per_bucket * per_bucket);
        for bucket in whole.chunks_mut(per_bucket) {
            self.index.push(BucketIndexEntry {
                first_src: (bucket[0] >> 32) as u32,
                entries: self.bucket_entries,
            });
            for w in bucket.iter_mut() {
                *w = w.to_le();
            }
        }
        if let Err(e) = self.file.write_all(words_as_bytes(whole)) {
            return io_err(&self.path, "cannot write bucket to", e);
        }
        self.written += whole.len() as u64;
        self.bucket.extend(tail.iter().map(|w| w.to_le()));
        Ok(())
    }

    fn flush_bucket(&mut self) -> Result<(), String> {
        if self.bucket.is_empty() {
            return Ok(());
        }
        let first_src = (u64::from_le(self.bucket[0]) >> 32) as u32;
        self.index.push(BucketIndexEntry {
            first_src,
            entries: self.bucket.len() as u32,
        });
        self.written += self.bucket.len() as u64;
        if let Err(e) = self.file.write_all(words_as_bytes(&self.bucket)) {
            return io_err(&self.path, "cannot write bucket to", e);
        }
        self.bucket.clear();
        Ok(())
    }

    fn finish(mut self) -> Result<ChunkedCsr, String> {
        self.flush_bucket()?;
        let mut raw = Vec::with_capacity(self.index.len() * 8);
        for b in &self.index {
            raw.extend_from_slice(&b.first_src.to_le_bytes());
            raw.extend_from_slice(&b.entries.to_le_bytes());
        }
        if let Err(e) = self.file.write_all(&raw) {
            return io_err(&self.path, "cannot write index to", e);
        }
        if let Err(e) = self.file.seek(SeekFrom::Start(16)) {
            return io_err(&self.path, "cannot seek in", e);
        }
        let mut patch = [0u8; 8];
        patch.copy_from_slice(&self.written.to_le_bytes());
        if let Err(e) = self.file.write_all(&patch) {
            return io_err(&self.path, "cannot patch header of", e);
        }
        if let Err(e) = self.file.seek(SeekFrom::Start(32)) {
            return io_err(&self.path, "cannot seek in", e);
        }
        patch.copy_from_slice(&(self.index.len() as u64).to_le_bytes());
        if let Err(e) = self.file.write_all(&patch) {
            return io_err(&self.path, "cannot patch header of", e);
        }
        if let Err(e) = self.file.sync_all() {
            return io_err(&self.path, "cannot sync", e);
        }
        ChunkedCsr::open(self.path)
    }
}

/// One sorted, deduplicated slice of a run file, with the sparse key
/// sample from which merge windows are planned and located.
struct RunSlice {
    /// Word offset of the slice in its run file.
    offset: u64,
    /// Entries in the slice.
    len: usize,
    /// Distance between sampled positions.
    stride: usize,
    /// `sample[j]` is the key at position `j * stride`.
    sample: Vec<u64>,
}

impl RunSlice {
    /// Sorts and deduplicates `words` in place, samples the result and
    /// converts it to little-endian for the run file. The slice's
    /// entries are then `words[..len]`; its offset is set by the caller.
    fn sort(words: &mut [u64]) -> RunSlice {
        words.sort_unstable();
        let len = dedup_sorted(words);
        let stride = len.div_ceil(SAMPLES_PER_SLICE).max(MIN_SAMPLE_STRIDE);
        let sample = words[..len].iter().step_by(stride).copied().collect();
        for w in &mut words[..len] {
            *w = w.to_le();
        }
        RunSlice {
            offset: 0,
            len,
            stride,
            sample,
        }
    }

    /// Positions of the slice that hold every key in `a..b`, located from
    /// the sample alone: the range overshoots the exact one by less than a
    /// stride at each end.
    fn cover(&self, a: u64, b: u64) -> Range<usize> {
        let below_a = self.sample.partition_point(|&k| k < a);
        let below_b = self.sample.partition_point(|&k| k < b);
        let lo = match below_a {
            0 => 0,
            j => (j - 1) * self.stride + 1,
        };
        lo..(below_b * self.stride).min(self.len)
    }
}

/// One run file: the sorted slices written by one buffer flush.
struct Run {
    path: PathBuf,
    slices: Vec<RunSlice>,
}

/// Removes adjacent duplicates from the sorted `words` in place and
/// returns the deduplicated length.
fn dedup_sorted(words: &mut [u64]) -> usize {
    if words.is_empty() {
        return 0;
    }
    let mut len = 1;
    for i in 1..words.len() {
        if words[i] != words[len - 1] {
            words[len] = words[i];
            len += 1;
        }
    }
    len
}

/// Merges the sorted blocks `a` and `b` into `out`, whose length is the
/// sum of theirs.
fn merge_into(a: &[u64], b: &[u64], out: &mut [u64]) {
    let (mut i, mut j, mut k) = (0, 0, 0);
    while i < a.len() && j < b.len() {
        let take_a = a[i] <= b[j];
        out[k] = if take_a { a[i] } else { b[j] };
        i += take_a as usize;
        j += !take_a as usize;
        k += 1;
    }
    let k_b = k + a.len() - i;
    out[k..k_b].copy_from_slice(&a[i..]);
    out[k_b..].copy_from_slice(&b[j..]);
}

/// Cuts the key space into merge windows `bounds[i]..bounds[i + 1]`,
/// each the longest whose covers summed over `slices` fit in `room`
/// entries. `room` must be at least two strides per slice, which any
/// single key's cover fits in, so every window makes progress.
fn plan_windows(slices: &[&RunSlice], room: usize) -> Vec<u64> {
    let cost = |a: u64, b: u64| -> usize { slices.iter().map(|s| s.cover(a, b).len()).sum() };
    // Packed half-edges never reach u64::MAX (vertex ids are below
    // u32::MAX), so the last window ends there.
    let mut bounds = vec![0];
    let mut a = 0;
    while cost(a, u64::MAX) > room {
        let (mut fits, mut over) = (a + 1, u64::MAX);
        while over - fits > 1 {
            let mid = fits + (over - fits) / 2;
            if cost(a, mid) <= room {
                fits = mid;
            } else {
                over = mid;
            }
        }
        bounds.push(fits);
        a = fits;
    }
    bounds.push(u64::MAX);
    bounds
}

/// Loads the keys in `a..b` from every slice of `runs` into the first
/// half of `region`, merges them pairwise bottom-up between the two
/// halves, and deduplicates. Returns where in `region` the result lies.
/// `seg` is reusable scratch for the block boundaries.
fn merge_window(
    runs: &[Run],
    a: u64,
    b: u64,
    region: &mut [u64],
    seg: &mut Vec<usize>,
) -> Result<Range<usize>, String> {
    let half = region.len() / 2;
    seg.clear();
    seg.push(0);
    let mut end = 0;
    for run in runs {
        let mut file = None;
        for slice in &run.slices {
            let cover = slice.cover(a, b);
            if cover.is_empty() {
                continue;
            }
            let f = match &mut file {
                Some(f) => f,
                None => match File::open(&run.path) {
                    Ok(f) => file.insert(f),
                    Err(e) => return io_err(&run.path, "cannot reopen run", e),
                },
            };
            if let Err(e) = f.seek(SeekFrom::Start((slice.offset + cover.start as u64) * 8)) {
                return io_err(&run.path, "cannot seek in run", e);
            }
            let words = &mut region[end..end + cover.len()];
            if let Err(e) = f.read_exact(words_as_bytes_mut(words)) {
                return io_err(&run.path, "short read in run", e);
            }
            for w in words.iter_mut() {
                *w = u64::from_le(*w);
            }
            let keep = words.partition_point(|&k| k < a)..words.partition_point(|&k| k < b);
            let kept = keep.len();
            words.copy_within(keep, 0);
            if kept > 0 {
                end += kept;
                seg.push(end);
            }
        }
    }
    debug_assert!(end <= half, "window overflows its data half");
    let mut in_first = true;
    while seg.len() > 2 {
        let (first, second) = region.split_at_mut(half);
        let (src, dst): (&[u64], &mut [u64]) = if in_first {
            (first, second)
        } else {
            (second, first)
        };
        let blocks = seg.len() - 1;
        let mut kept = 0;
        for i in (0..blocks).step_by(2) {
            let (lo, mid) = (seg[i], seg[i + 1]);
            if i + 1 < blocks {
                let hi = seg[i + 2];
                merge_into(&src[lo..mid], &src[mid..hi], &mut dst[lo..hi]);
            } else {
                dst[lo..mid].copy_from_slice(&src[lo..mid]);
            }
            seg[kept] = lo;
            kept += 1;
        }
        seg[kept] = seg[blocks];
        seg.truncate(kept + 1);
        in_first = !in_first;
    }
    let start = if in_first { 0 } else { half };
    let len = dedup_sorted(&mut region[start..start + end]);
    Ok(start..start + len)
}

/// Accumulates undirected edges like [`GraphBuilder`](crate::GraphBuilder), but under an
/// explicit byte budget: half-edges beyond the budget are sorted,
/// deduplicated, and flushed to on-disk runs, and
/// [`finish`](StreamingGraphBuilder::finish) merges the runs into a
/// bucketed [`ChunkedCsr`] file. The resulting graph is identical to
/// `GraphBuilder` fed the same edge sequence; only the peak RAM differs.
pub struct StreamingGraphBuilder {
    n: usize,
    /// In-RAM packed half-edges, bounded by the byte budget.
    buf: Vec<u64>,
    cap: usize,
    runs: Vec<Run>,
    scratch_dir: PathBuf,
    tag: String,
    half_edges_pushed: u64,
    /// First run-flush failure, latched: `add_edge` is infallible by
    /// signature ([`EdgeSink`]), so a failed flush parks its error here
    /// and [`finish`](Self::finish) surfaces it as a typed `Err` instead
    /// of panicking mid-stream.
    deferred_error: Option<String>,
}

impl StreamingGraphBuilder {
    /// New streaming builder for a graph on vertices `0..n` that buffers
    /// `byte_budget` bytes of half-edges (floored at a small working
    /// minimum); the module docs give the build's exact peak heap. Run
    /// files are written to `scratch_dir` (the system temp directory if
    /// `None`).
    pub fn new(n: usize, byte_budget: usize, scratch_dir: Option<&Path>) -> Self {
        assert!(n <= u32::MAX as usize, "vertex count exceeds u32 id space");
        let cap = (byte_budget / 8).max(MIN_BUFFER_ENTRIES);
        let scratch_dir = scratch_dir
            .map(Path::to_path_buf)
            .unwrap_or_else(std::env::temp_dir);
        // Unique per builder instance: concurrent builders (e.g. parallel
        // tests) must not collide on run-file names.
        static NEXT_TAG: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let uniq = NEXT_TAG.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let tag = format!("ocsr-run-{}-{uniq}", std::process::id());
        StreamingGraphBuilder {
            n,
            buf: Vec::with_capacity(cap),
            cap,
            runs: Vec::new(),
            scratch_dir,
            tag,
            half_edges_pushed: 0,
            deferred_error: None,
        }
    }

    /// Number of vertices this builder targets.
    pub fn num_vertices(&self) -> usize {
        self.n
    }

    /// Half-edges pushed so far (before deduplication).
    pub fn half_edges_pushed(&self) -> u64 {
        self.half_edges_pushed
    }

    /// Adds the undirected edge `(u, v)`; duplicates collapse at
    /// [`finish`](Self::finish) time, self-loops panic (matching
    /// [`GraphBuilder::add_edge`](crate::GraphBuilder::add_edge)).
    pub fn add_edge(&mut self, u: VertexId, v: VertexId) {
        assert_ne!(u, v, "self-loops are not representable");
        assert!(
            (u as usize) < self.n && (v as usize) < self.n,
            "edge ({u},{v}) out of range for n={}",
            self.n
        );
        if self.buf.len() + 2 > self.cap {
            if let Err(e) = self.flush_run() {
                // Keep the memory bound even while broken: drop the
                // buffered half-edges (finish errors out anyway).
                self.buf.clear();
                self.deferred_error.get_or_insert(e);
            }
        }
        self.buf.push(pack_half_edge(u, v));
        self.buf.push(pack_half_edge(v, u));
        self.half_edges_pushed += 2;
    }

    fn run_path(&self, i: usize) -> PathBuf {
        self.scratch_dir.join(format!("{}-{i}.run", self.tag))
    }

    /// Sorts the in-RAM buffer as one contiguous slice per pool thread,
    /// each deduplicated, sampled and converted to little-endian in
    /// place, and writes the slices out as one run file.
    fn flush_run(&mut self) -> Result<(), String> {
        if self.buf.is_empty() {
            return Ok(());
        }
        let path = self.run_path(self.runs.len());
        let mut f = match File::create(&path) {
            Ok(f) => f,
            Err(e) => return io_err(&path, "cannot create run", e),
        };
        let chunk = self.buf.len().div_ceil(rayon::current_num_threads());
        let parts: Vec<&mut [u64]> = self.buf.chunks_mut(chunk).collect();
        let mut slices: Vec<RunSlice> = parts.into_par_iter().map(RunSlice::sort).collect();
        let mut offset = 0;
        for slice in &mut slices {
            slice.offset = offset;
            offset += slice.len as u64;
        }
        // Recorded before any write, so that Drop removes a partial run.
        self.runs.push(Run { path, slices });
        let run = &self.runs[self.runs.len() - 1];
        for (words, slice) in self.buf.chunks(chunk).zip(&run.slices) {
            if let Err(e) = f.write_all(words_as_bytes(&words[..slice.len])) {
                return io_err(&run.path, "cannot write run", e);
            }
        }
        self.buf.clear();
        Ok(())
    }

    /// Merges every run into `writer` in key-range windows. The builder's
    /// buffer is cut into one region per pool thread (half data, half
    /// merge scratch); each pass merges one window per region in
    /// parallel, then appends the windows to `writer` in key order.
    fn merge_runs(&mut self, writer: &mut ChunkedCsrWriter) -> Result<(), String> {
        let slices: Vec<&RunSlice> = self.runs.iter().flat_map(|r| &r.slices).collect();
        let strides: usize = slices.iter().map(|s| s.stride).sum();
        let floor = WINDOW_FLOOR_STRIDES * strides;
        let regions = rayon::current_num_threads()
            .min(self.cap / (2 * floor))
            .max(1);
        // Below the floor (very many runs for the budget), the one region
        // grows past the budget rather than planning tiny windows.
        let half = (self.cap / regions / 2).max(floor);
        let bounds = plan_windows(&slices, half);
        self.buf.clear();
        self.buf.reserve_exact(regions * 2 * half);
        self.buf.resize(regions * 2 * half, 0);
        let mut segs: Vec<Vec<usize>> = (0..regions)
            .map(|_| Vec::with_capacity(slices.len() + 1))
            .collect();
        let windows = bounds.len() - 1;
        let runs = &self.runs;
        for first in (0..windows).step_by(regions) {
            let batch = (windows - first).min(regions);
            let jobs: Vec<_> = (first..first + batch)
                .zip(self.buf.chunks_mut(2 * half).zip(&mut segs))
                .collect();
            let merged: Vec<Result<Range<usize>, String>> = jobs
                .into_par_iter()
                .map(|(w, (region, seg))| merge_window(runs, bounds[w], bounds[w + 1], region, seg))
                .collect();
            for (region, range) in self.buf.chunks_mut(2 * half).zip(merged) {
                writer.push_slice(&mut region[range?])?;
            }
        }
        Ok(())
    }

    fn remove_runs(&mut self) {
        for run in self.runs.drain(..) {
            let _ = std::fs::remove_file(&run.path);
        }
    }

    /// Merges all runs (and the in-RAM tail) into the bucketed file at
    /// `out_path` with [`DEFAULT_BUCKET_ENTRIES`]-sized buckets, deletes
    /// the runs, and opens the result.
    pub fn finish(self, out_path: &Path) -> Result<ChunkedCsr, String> {
        self.finish_with_buckets(out_path, DEFAULT_BUCKET_ENTRIES)
    }

    /// [`finish`](Self::finish) with an explicit bucket size (mainly for
    /// tests that want many small buckets).
    pub fn finish_with_buckets(
        mut self,
        out_path: &Path,
        bucket_entries: u32,
    ) -> Result<ChunkedCsr, String> {
        if let Some(e) = self.deferred_error.take() {
            return Err(format!("add_edge run flush failed earlier: {e}"));
        }
        let mut writer = ChunkedCsrWriter::create(out_path, self.n as u64, bucket_entries)?;
        if self.runs.is_empty() {
            // Single-run fast path: everything fit in the budget.
            self.buf.sort_unstable();
            self.buf.dedup();
            writer.push_slice(&mut self.buf)?;
            return writer.finish();
        }
        self.flush_run()?;
        self.merge_runs(&mut writer)?;
        self.remove_runs();
        writer.finish()
    }
}

impl Drop for StreamingGraphBuilder {
    fn drop(&mut self) {
        self.remove_runs();
    }
}

impl EdgeSink for StreamingGraphBuilder {
    #[inline]
    fn add_edge(&mut self, u: VertexId, v: VertexId) {
        StreamingGraphBuilder::add_edge(self, u, v);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;

    fn tmp(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("ocsr-test-{}-{name}", std::process::id()))
    }

    /// A deterministic pseudo-random edge sequence with duplicates.
    fn edge_sequence(n: u32, count: u64) -> Vec<(u32, u32)> {
        (0..count)
            .filter_map(|i| {
                let u = ((i.wrapping_mul(2654435761)) % n as u64) as u32;
                let v = ((i.wrapping_mul(40503).wrapping_add(7)) % n as u64) as u32;
                (u != v).then_some((u, v))
            })
            .collect()
    }

    #[test]
    fn pack_preserves_order_and_roundtrips() {
        let pairs = [(0u32, 1u32), (0, 2), (1, 0), (7, 3), (u32::MAX, 0)];
        let mut packed: Vec<u64> = pairs.iter().map(|&(u, v)| pack_half_edge(u, v)).collect();
        packed.sort_unstable();
        let mut sorted = pairs.to_vec();
        sorted.sort_unstable();
        let unpacked: Vec<(u32, u32)> = packed.iter().map(|&w| unpack_half_edge(w)).collect();
        assert_eq!(unpacked, sorted);
    }

    #[test]
    fn streamed_build_equals_in_memory_build() {
        let n = 300u32;
        let edges = edge_sequence(n, 20_000);
        let mut mem = GraphBuilder::new(n as usize);
        // Tiny budget: forces many runs and a real k-way merge.
        let mut ooc = StreamingGraphBuilder::new(n as usize, 4096, None);
        for &(u, v) in &edges {
            mem.add_edge(u, v);
            ooc.add_edge(u, v);
        }
        let path = tmp("equal.ocsr");
        let csr = ooc.finish_with_buckets(&path, 512).unwrap();
        let g_mem = mem.build();
        let g_ooc = csr.load_graph().unwrap();
        assert_eq!(g_mem, g_ooc);
        assert_eq!(csr.num_edges() as usize, g_mem.num_edges());
        assert_eq!(csr.num_vertices(), n as usize);
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn bucket_index_covers_sorted_contiguous_shards() {
        let n = 200u32;
        let edges = edge_sequence(n, 10_000);
        let mut b = StreamingGraphBuilder::new(n as usize, 1 << 16, None);
        for &(u, v) in &edges {
            b.add_edge(u, v);
        }
        let path = tmp("index.ocsr");
        let csr = b.finish_with_buckets(&path, 128).unwrap();
        assert!(csr.num_buckets() > 1, "want a multi-bucket file");
        // Every bucket except the last is full; first_src entries are
        // non-decreasing; payload is globally sorted.
        for (i, e) in csr.bucket_index().iter().enumerate() {
            if i + 1 < csr.num_buckets() {
                assert_eq!(e.entries, 128);
                assert!(e.first_src <= csr.bucket_index()[i + 1].first_src);
            }
        }
        let mut s = csr.stream().unwrap();
        let mut prev: Option<(u32, u32)> = None;
        let mut total = 0u64;
        while let Some(bucket) = s.next_bucket().unwrap() {
            for &e in bucket {
                assert!(prev.is_none_or(|p| p < e), "payload must be sorted");
                prev = Some(e);
                total += 1;
            }
        }
        assert_eq!(total, csr.num_half_edges());
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn stream_range_reads_exactly_its_buckets() {
        let n = 100u32;
        let edges = edge_sequence(n, 5_000);
        let mut b = StreamingGraphBuilder::new(n as usize, 1 << 16, None);
        for &(u, v) in &edges {
            b.add_edge(u, v);
        }
        let path = tmp("range.ocsr");
        let csr = b.finish_with_buckets(&path, 64).unwrap();
        let nb = csr.num_buckets();
        let mid = nb / 2;
        // Concatenating [0, mid) and [mid, nb) reproduces the full stream.
        let collect = |lo: usize, hi: usize| {
            let mut out = Vec::new();
            let mut s = csr.stream_range(lo, hi).unwrap();
            while let Some(bucket) = s.next_bucket().unwrap() {
                out.extend_from_slice(bucket);
            }
            out
        };
        let mut both = collect(0, mid);
        both.extend(collect(mid, nb));
        assert_eq!(both, collect(0, nb));
        assert_eq!(both.len() as u64, csr.num_half_edges());
        let _ = std::fs::remove_file(path);
    }

    /// Writes a chunked-CSR file from raw header fields, payload and index.
    fn write_raw(
        path: &Path,
        (n, half_edges, bucket_entries, num_buckets): (u64, u64, u32, u64),
        payload: &[(u32, u32)],
        index: &[(u32, u32)],
    ) {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&OCSR_MAGIC);
        bytes.extend_from_slice(&OCSR_VERSION.to_le_bytes());
        bytes.extend_from_slice(&n.to_le_bytes());
        bytes.extend_from_slice(&half_edges.to_le_bytes());
        bytes.extend_from_slice(&bucket_entries.to_le_bytes());
        bytes.extend_from_slice(&0u32.to_le_bytes());
        bytes.extend_from_slice(&num_buckets.to_le_bytes());
        for &(u, v) in payload {
            bytes.extend_from_slice(&pack_half_edge(u, v).to_le_bytes());
        }
        for &(first_src, entries) in index {
            bytes.extend_from_slice(&first_src.to_le_bytes());
            bytes.extend_from_slice(&entries.to_le_bytes());
        }
        std::fs::write(path, bytes).unwrap();
    }

    #[test]
    fn open_rejects_corrupt_headers() {
        let path = tmp("corrupt.ocsr");
        std::fs::write(&path, [b'x'; HEADER_BYTES as usize + 8]).unwrap();
        let err = ChunkedCsr::open(&path).unwrap_err();
        assert!(err.contains("bad magic"), "{err}");
        assert!(ChunkedCsr::open(tmp("missing.ocsr")).is_err());

        // A bare header claiming 2^37 one-entry buckets: the index
        // allocation it asks for is checked against the file first.
        write_raw(&path, (4, 1 << 37, 1, 1 << 37), &[], &[]);
        let err = ChunkedCsr::open(&path).unwrap_err();
        assert!(err.contains("bytes"), "{err}");
        // 2^62 entries: the payload size overflows u64.
        write_raw(&path, (4, 1 << 62, 1 << 31, 1 << 31), &[], &[]);
        let err = ChunkedCsr::open(&path).unwrap_err();
        assert!(err.contains("overflow"), "{err}");
        // Entry counts that sum right, but with a short bucket before the
        // last one.
        let path_edges = [(0, 1), (1, 0), (1, 2), (2, 1)];
        write_raw(&path, (3, 4, 2, 2), &path_edges, &[(0, 1), (1, 3)]);
        let err = ChunkedCsr::open(&path).unwrap_err();
        assert!(err.contains("bucket 0 holds 1 entries"), "{err}");
        // A source vertex beyond n: reading it is an error, not a panic.
        write_raw(&path, (2, 4, 4, 1), &path_edges, &[(0, 4)]);
        let err = ChunkedCsr::open(&path).unwrap().degrees().unwrap_err();
        assert!(err.contains("out of range"), "{err}");

        // Well-formed, but with u32::MAX-entry buckets: streaming sizes its
        // buffers by the buckets actually present.
        write_raw(&path, (3, 4, u32::MAX, 1), &path_edges, &[(0, 4)]);
        let csr = ChunkedCsr::open(&path).unwrap();
        assert_eq!(csr.degrees().unwrap(), vec![1, 2, 1]);
        let mut s = csr.stream().unwrap();
        assert_eq!(s.next_bucket().unwrap(), Some(&path_edges[..]));
        assert_eq!(s.next_bucket().unwrap(), None);
        assert_eq!(
            csr.load_graph().unwrap(),
            Graph::from_edges(3, &[(0, 1), (1, 2)])
        );
        let _ = std::fs::remove_file(path);
    }

    /// Builds `edges` at pool width `threads` and byte budget `budget`;
    /// returns the file's bytes and the graph loaded from it.
    fn streamed(n: u32, edges: &[(u32, u32)], threads: usize, budget: usize) -> (Vec<u8>, Graph) {
        let path = tmp(&format!("width-{threads}-budget-{budget}.ocsr"));
        let csr = rayon::ThreadPool::new(threads)
            .install(|| {
                let mut b = StreamingGraphBuilder::new(n as usize, budget, None);
                for &(u, v) in edges {
                    b.add_edge(u, v);
                }
                b.finish_with_buckets(&path, 1000)
            })
            .unwrap();
        let g = csr.load_graph().unwrap();
        let bytes = std::fs::read(&path).unwrap();
        let _ = std::fs::remove_file(path);
        (bytes, g)
    }

    #[test]
    fn streamed_file_is_byte_identical_across_pool_widths_and_budgets() {
        // Pseudo-random edges (index i and i + n repeat an edge), the edge
        // {1, 2} in every run of the smallest budget, and a hub, vertex 0,
        // of degree 20 000: more entries than one merge window holds at the
        // 64 KiB budget at every width.
        let n = 30_000u32;
        let mut edges = Vec::new();
        for (i, e) in edge_sequence(n, 40_000).into_iter().enumerate() {
            edges.push(e);
            if i % 100 == 0 {
                edges.push((2, 1));
            }
            if i % 2 == 0 {
                edges.push((0, 3 + i as u32 / 2));
            }
        }
        let mut mem = GraphBuilder::new(n as usize);
        for &(u, v) in &edges {
            mem.add_edge(u, v);
        }
        let expected = mem.build();
        let (reference, _) = streamed(n, &edges, 1, 1 << 26);
        // 4 KiB: about 120 runs; 64 KiB: about 15; 4 MiB: one in-budget
        // buffer, no run at all.
        for budget in [4 << 10, 64 << 10, 4 << 20] {
            for threads in [1, 2, 5] {
                let (bytes, g) = streamed(n, &edges, threads, budget);
                assert!(
                    bytes == reference,
                    "file differs at width {threads}, budget {budget}"
                );
                assert_eq!(g, expected, "width {threads}, budget {budget}");
            }
        }
    }

    #[test]
    fn unreadable_runs_surface_as_errors_and_runs_are_removed() {
        let edges = edge_sequence(300, 5_000);
        let with_runs = || {
            let mut b = StreamingGraphBuilder::new(300, 4096, None);
            for &(u, v) in &edges {
                b.add_edge(u, v);
            }
            assert!(b.runs.len() > 1, "want a multi-run build");
            let paths: Vec<PathBuf> = b.runs.iter().map(|r| r.path.clone()).collect();
            (b, paths)
        };
        let gone = |paths: &[PathBuf]| paths.iter().all(|p| !p.exists());

        let (b, paths) = with_runs();
        std::fs::remove_file(&paths[1]).unwrap();
        let err = b.finish(&tmp("unreadable.ocsr")).unwrap_err();
        assert!(err.contains("cannot reopen run"), "{err}");
        assert!(gone(&paths), "a failed finish must remove its runs");

        let (b, paths) = with_runs();
        File::options()
            .write(true)
            .open(&paths[0])
            .unwrap()
            .set_len(8)
            .unwrap();
        let err = b.finish(&tmp("unreadable.ocsr")).unwrap_err();
        assert!(err.contains("short read in run"), "{err}");
        assert!(gone(&paths));

        let (b, paths) = with_runs();
        drop(b);
        assert!(gone(&paths), "dropping a builder must remove its runs");

        let (b, paths) = with_runs();
        let out = tmp("readable.ocsr");
        b.finish(&out).unwrap();
        assert!(gone(&paths), "a finished build must remove its runs");
        let _ = std::fs::remove_file(out);
        let _ = std::fs::remove_file(tmp("unreadable.ocsr"));
    }

    #[test]
    fn empty_graph_roundtrips() {
        let b = StreamingGraphBuilder::new(5, 1 << 12, None);
        let path = tmp("empty.ocsr");
        let csr = b.finish(&path).unwrap();
        assert_eq!(csr.num_edges(), 0);
        assert_eq!(csr.num_buckets(), 0);
        let g = csr.load_graph().unwrap();
        assert_eq!(g.num_vertices(), 5);
        assert_eq!(g.num_edges(), 0);
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn failed_run_flush_is_deferred_to_finish_as_a_typed_error() {
        // An unwritable scratch directory makes every run flush fail;
        // add_edge must keep going (latching the first error) and finish
        // must surface it as a clean Err, never a panic.
        let bad_dir = tmp("no-such-scratch-dir");
        let mut b = StreamingGraphBuilder::new(64, 1, Some(&bad_dir));
        for i in 0..4_000u32 {
            b.add_edge(i % 64, (i + 1) % 64);
        }
        let err = b.finish(&tmp("deferred.ocsr")).unwrap_err();
        assert!(err.contains("add_edge run flush failed earlier"), "{err}");
    }

    #[test]
    fn degrees_match_loaded_graph() {
        let n = 80u32;
        let edges = edge_sequence(n, 2_000);
        let mut b = StreamingGraphBuilder::new(n as usize, 2048, None);
        for &(u, v) in &edges {
            b.add_edge(u, v);
        }
        let path = tmp("deg.ocsr");
        let csr = b.finish_with_buckets(&path, 100).unwrap();
        let deg = csr.degrees().unwrap();
        let g = csr.load_graph().unwrap();
        for v in 0..n {
            assert_eq!(deg[v as usize] as usize, g.degree(v));
        }
        let _ = std::fs::remove_file(path);
    }
}
