//! Out-of-core graph snapshots: build once, `mmap` forever.
//!
//! The paper targets Twitter/Friendster-class graphs that do not fit the
//! RAM of a commodity box (§1), yet the `GX_DATASET` loader materializes
//! an in-RAM `Vec`-backed CSR. This module adds the on-disk counterpart:
//! a versioned snapshot format holding the same CSR arrays as
//! [`crate::Graph`], page-aligned and little-endian, so a reader can map
//! the file read-only and serve walks with **zero copies** — the offset
//! and neighbor arrays *are* the page cache, shared across walker
//! threads and across processes.
//!
//! Two formats share one 64-byte header:
//!
//! * **GXSN** ([`MmapGraph`]) — raw CSR. Offsets as `u64`, neighbors as
//!   `u32`, each section page-aligned. Fastest; file size ≈ the in-RAM
//!   CSR.
//! * **GXSC** ([`CompressedGraph`]) — per-node delta-encoded varint
//!   neighbor lists with an explicit degree array and a block-sampled
//!   offset index, decoded on demand through a bounded block LRU. For
//!   snapshots whose raw form exceeds the RAM+disk budget; typically
//!   2–4× smaller on power-law graphs.
//!
//! ```text
//! byte 0                                            64            4096
//! ┌──────┬─────────┬───────┬────────┬────────┬────┬──────┬───┬────┐
//! │magic │ version │ flags │ nodes  │ edges  │ fp │ aux  │ck │ pad│
//! │ 4 B  │ u32     │ u64   │ u64    │ u64    │u64 │2×u64 │u64│    │
//! └──────┴─────────┴───────┴────────┴────────┴────┴──────┴───┴────┘
//! GXSN: [offsets (n+1)×u64][neighbors 2E×u32][original ids n×u64]?
//! GXSC: [degrees n×u32][block index (nb+1)×u64][varint data][ids]?
//! (each section zero-padded to the next 4 KiB page boundary)
//! ```
//!
//! The header embeds the [`graph_fingerprint`] of the stored graph,
//! checksummed together with the counts (FNV-1a over the first 56
//! bytes). That single validated word is what lets
//! `gx_core::Runner::resume_trusted` and `gx-service`'s fingerprint-
//! keyed snapshot cache adopt a mapped snapshot without the O(edges)
//! rescan — the converter paid for the scan exactly once, at write time.
//!
//! # Corruption model
//!
//! Opening validates the header checksum, the exact file length against
//! the layout the header declares, and the structural invariants of the
//! index arrays (offsets monotone and bounded for GXSN; a full decode
//! pass for GXSC) *before* exposing anything. Every corrupt, truncated,
//! or oversized input surfaces as a typed [`SnapshotError`] — never a
//! panic, never a silently-wrong graph — mirroring the checkpoint
//! envelope's contract in `gx_core::checkpoint`.

mod compressed;
mod mmap;

pub use compressed::CompressedGraph;
pub use mmap::MmapGraph;

use crate::access::{fnv1a, graph_fingerprint, GraphAccess};
use crate::NodeId;
use std::fs::File;
use std::io::{BufWriter, Read, Write};
use std::path::{Path, PathBuf};

/// Section alignment: every array starts on a 4 KiB page boundary so a
/// mapped file can be reinterpreted in place and advised per-section.
pub const PAGE: usize = 4096;

/// Header size in bytes (one cache-line pair; the rest of page 0 is
/// zero padding).
pub const HEADER_LEN: usize = 64;

/// Current snapshot format version, shared by GXSN and GXSC.
pub const VERSION: u32 = 1;

/// Header flag bit: an original-id section (`n × u64`) follows the
/// graph arrays, mapping compact node ids back to the source dataset's
/// sparse ids (KONECT-style).
pub const FLAG_ID_MAP: u64 = 1;

/// Default GXSC block granularity: nodes per decode block. 64 keeps a
/// decoded block around a few KiB on power-law graphs while the block
/// index stays at `n/8` bytes.
pub const GXSC_BLOCK: u64 = 64;

const MAGIC_GXSN: [u8; 4] = *b"GXSN";
const MAGIC_GXSC: [u8; 4] = *b"GXSC";

// ---------------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------------

/// Typed refusal reasons for snapshot files. Every corrupt, truncated,
/// foreign, or oversized input maps to one of these — opening a
/// snapshot never panics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SnapshotError {
    /// The file does not start with a known snapshot magic, or carries
    /// the magic of the *other* format than the reader asked for.
    BadMagic,
    /// The header declares a format version this build cannot read.
    UnsupportedVersion {
        /// The version the header declared.
        found: u32,
    },
    /// The header checksum does not match its contents: a torn write or
    /// bit rot in the first 64 bytes.
    HeaderChecksumMismatch,
    /// The file is shorter than the layout its header declares.
    Truncated {
        /// Bytes the layout requires.
        expected: u64,
        /// Bytes actually present.
        found: u64,
    },
    /// A structural invariant of the declared layout does not hold
    /// (non-monotone offsets, varint stream out of bounds, trailing
    /// bytes, unknown flags, …).
    Malformed {
        /// Which invariant was violated.
        what: &'static str,
    },
    /// A size in the header overflows the address space of this host.
    TooLarge {
        /// Which quantity overflowed.
        what: &'static str,
    },
    /// The underlying I/O operation failed.
    Io(std::io::ErrorKind),
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::BadMagic => write!(f, "not a graph snapshot (bad magic)"),
            SnapshotError::UnsupportedVersion { found } => {
                write!(f, "unsupported snapshot version {found} (reader supports {VERSION})")
            }
            SnapshotError::HeaderChecksumMismatch => {
                write!(f, "snapshot header checksum mismatch (corrupted header)")
            }
            SnapshotError::Truncated { expected, found } => {
                write!(f, "snapshot truncated: need {expected} bytes, found {found}")
            }
            SnapshotError::Malformed { what } => write!(f, "malformed snapshot: {what}"),
            SnapshotError::TooLarge { what } => {
                write!(f, "snapshot too large for this host: {what}")
            }
            SnapshotError::Io(kind) => write!(f, "snapshot I/O error: {kind}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

impl From<std::io::Error> for SnapshotError {
    fn from(e: std::io::Error) -> Self {
        SnapshotError::Io(e.kind())
    }
}

// ---------------------------------------------------------------------------
// Header
// ---------------------------------------------------------------------------

/// Which snapshot format a header announces.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SnapshotKind {
    /// Raw page-aligned CSR arrays ([`MmapGraph`]).
    Gxsn,
    /// Delta-varint compressed adjacency ([`CompressedGraph`]).
    Gxsc,
}

impl SnapshotKind {
    fn magic(self) -> [u8; 4] {
        match self {
            SnapshotKind::Gxsn => MAGIC_GXSN,
            SnapshotKind::Gxsc => MAGIC_GXSC,
        }
    }
}

impl std::fmt::Display for SnapshotKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            SnapshotKind::Gxsn => "GXSN",
            SnapshotKind::Gxsc => "GXSC",
        })
    }
}

/// Decoded, checksum-verified snapshot header.
///
/// [`read_header`] reads just these 64 bytes, which is how the service's
/// snapshot cache keys a mapped submission by fingerprint *before*
/// deciding whether mapping the file is needed at all.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SnapshotHeader {
    /// Format of the sections that follow.
    pub kind: SnapshotKind,
    /// Format version ([`VERSION`]).
    pub version: u32,
    /// Flag bits ([`FLAG_ID_MAP`] is the only one defined).
    pub flags: u64,
    /// Node count (including isolated nodes).
    pub num_nodes: u64,
    /// Undirected edge count; adjacency sections hold `2 × num_edges`
    /// entries.
    pub num_edges: u64,
    /// [`graph_fingerprint`] of the stored graph, computed at write
    /// time.
    pub fingerprint: u64,
    /// Format-specific: GXSC block granularity (nodes per block); 0 for
    /// GXSN.
    pub aux_a: u64,
    /// Format-specific: GXSC varint data section length in bytes; 0 for
    /// GXSN.
    pub aux_b: u64,
}

impl SnapshotHeader {
    /// Whether the snapshot carries an original-id section.
    pub fn has_id_map(&self) -> bool {
        self.flags & FLAG_ID_MAP != 0
    }

    fn encode(&self) -> [u8; HEADER_LEN] {
        let mut h = [0u8; HEADER_LEN];
        h[0..4].copy_from_slice(&self.kind.magic());
        h[4..8].copy_from_slice(&self.version.to_le_bytes());
        h[8..16].copy_from_slice(&self.flags.to_le_bytes());
        h[16..24].copy_from_slice(&self.num_nodes.to_le_bytes());
        h[24..32].copy_from_slice(&self.num_edges.to_le_bytes());
        h[32..40].copy_from_slice(&self.fingerprint.to_le_bytes());
        h[40..48].copy_from_slice(&self.aux_a.to_le_bytes());
        h[48..56].copy_from_slice(&self.aux_b.to_le_bytes());
        let ck = fnv1a(&h[..56]);
        h[56..64].copy_from_slice(&ck.to_le_bytes());
        h
    }

    fn parse(h: &[u8]) -> Result<Self, SnapshotError> {
        debug_assert!(h.len() >= HEADER_LEN);
        let kind = if h[0..4] == MAGIC_GXSN {
            SnapshotKind::Gxsn
        } else if h[0..4] == MAGIC_GXSC {
            SnapshotKind::Gxsc
        } else {
            return Err(SnapshotError::BadMagic);
        };
        let declared = rd_u64(h, 56);
        if fnv1a(&h[..56]) != declared {
            return Err(SnapshotError::HeaderChecksumMismatch);
        }
        let version = u32::from_le_bytes([h[4], h[5], h[6], h[7]]);
        if version != VERSION {
            return Err(SnapshotError::UnsupportedVersion { found: version });
        }
        let flags = rd_u64(h, 8);
        if flags & !FLAG_ID_MAP != 0 {
            return Err(SnapshotError::Malformed { what: "unknown header flag bits" });
        }
        Ok(SnapshotHeader {
            kind,
            version,
            flags,
            num_nodes: rd_u64(h, 16),
            num_edges: rd_u64(h, 24),
            fingerprint: rd_u64(h, 32),
            aux_a: rd_u64(h, 40),
            aux_b: rd_u64(h, 48),
        })
    }
}

fn rd_u64(bytes: &[u8], at: usize) -> u64 {
    let mut w = [0u8; 8];
    w.copy_from_slice(&bytes[at..at + 8]);
    u64::from_le_bytes(w)
}

/// Reads and validates just the 64-byte header of a snapshot file —
/// O(1) in the graph size, no mapping.
pub fn read_header<P: AsRef<Path>>(path: P) -> Result<SnapshotHeader, SnapshotError> {
    let mut f = File::open(path)?;
    let mut h = [0u8; HEADER_LEN];
    let mut got = 0;
    while got < HEADER_LEN {
        match f.read(&mut h[got..]) {
            Ok(0) => {
                return Err(SnapshotError::Truncated {
                    expected: HEADER_LEN as u64,
                    found: got as u64,
                })
            }
            Ok(k) => got += k,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e.into()),
        }
    }
    SnapshotHeader::parse(&h)
}

// ---------------------------------------------------------------------------
// Layout arithmetic (overflow-checked: header words are attacker-ish input)
// ---------------------------------------------------------------------------

fn to_usize(x: u64, what: &'static str) -> Result<usize, SnapshotError> {
    usize::try_from(x).map_err(|_| SnapshotError::TooLarge { what })
}

fn ck_mul(a: usize, b: usize, what: &'static str) -> Result<usize, SnapshotError> {
    a.checked_mul(b).ok_or(SnapshotError::TooLarge { what })
}

fn ck_add(a: usize, b: usize, what: &'static str) -> Result<usize, SnapshotError> {
    a.checked_add(b).ok_or(SnapshotError::TooLarge { what })
}

/// Rounds `len` up to the next [`PAGE`] boundary.
fn page_align(len: usize, what: &'static str) -> Result<usize, SnapshotError> {
    ck_add(len, PAGE - 1, what).map(|x| x & !(PAGE - 1))
}

// ---------------------------------------------------------------------------
// LEB128 varints (GXSC payload encoding)
// ---------------------------------------------------------------------------

/// Appends `x` as an LEB128 varint (7 bits per byte, high bit =
/// continuation).
pub(crate) fn varint_encode(mut x: u64, out: &mut Vec<u8>) {
    loop {
        let b = (x & 0x7f) as u8;
        x >>= 7;
        if x == 0 {
            out.push(b);
            return;
        }
        out.push(b | 0x80);
    }
}

/// Encoded length of `x` in bytes, without materializing the bytes —
/// used by the GXSC writer's index-building dry pass.
pub(crate) fn varint_len(x: u64) -> usize {
    (64 - x.max(1).leading_zeros() as usize).div_ceil(7)
}

/// Decodes one LEB128 varint at `pos`. Returns `(value, next_pos)`, or
/// `None` on out-of-bounds or a >64-bit encoding.
pub(crate) fn varint_decode(bytes: &[u8], mut pos: usize) -> Option<(u64, usize)> {
    let mut x = 0u64;
    let mut shift = 0u32;
    loop {
        let &b = bytes.get(pos)?;
        pos += 1;
        if shift >= 64 || (shift == 63 && b & 0x7e != 0) {
            return None;
        }
        x |= u64::from(b & 0x7f) << shift;
        if b & 0x80 == 0 {
            return Some((x, pos));
        }
        shift += 7;
    }
}

// ---------------------------------------------------------------------------
// Atomic streaming writer
// ---------------------------------------------------------------------------

/// Streaming counterpart of `gx_core::checkpoint::write_atomic` for
/// multi-gigabyte section writes: bytes land in a `.tmp` sibling through
/// a buffer, are fsynced, then renamed over the destination — a crash
/// leaves either the old snapshot or the new one, never a torn file.
struct AtomicFile {
    tmp: PathBuf,
    dest: PathBuf,
    w: BufWriter<File>,
    written: u64,
}

impl AtomicFile {
    fn create(path: &Path) -> Result<Self, SnapshotError> {
        let mut tmp = path.as_os_str().to_owned();
        tmp.push(".tmp");
        let tmp = PathBuf::from(tmp);
        let f = File::create(&tmp)?;
        Ok(Self {
            tmp,
            dest: path.to_path_buf(),
            w: BufWriter::with_capacity(1 << 20, f),
            written: 0,
        })
    }

    fn write(&mut self, bytes: &[u8]) -> Result<(), SnapshotError> {
        self.w.write_all(bytes)?;
        self.written += bytes.len() as u64;
        Ok(())
    }

    /// Zero-pads to the next page boundary (section separator).
    fn pad_to_page(&mut self) -> Result<(), SnapshotError> {
        const ZEROS: [u8; 256] = [0; 256];
        let mut gap = (PAGE as u64 - self.written % PAGE as u64) % PAGE as u64;
        while gap > 0 {
            let k = gap.min(ZEROS.len() as u64) as usize;
            self.write(&ZEROS[..k])?;
            gap -= k as u64;
        }
        Ok(())
    }

    fn commit(self) -> Result<u64, SnapshotError> {
        let AtomicFile { tmp, dest, w, written } = self;
        let f = w.into_inner().map_err(|e| SnapshotError::Io(e.error().kind()))?;
        f.sync_all()?;
        drop(f);
        std::fs::rename(&tmp, &dest)?;
        // Rename durability needs the directory entry flushed too; where
        // opening a directory for sync is unsupported, the rename alone
        // is the best available ordering.
        if let Some(dir) = dest.parent().filter(|p| !p.as_os_str().is_empty()) {
            if let Ok(d) = File::open(dir) {
                let _ = d.sync_all();
            }
        }
        Ok(written)
    }
}

/// Runs `build` against a fresh [`AtomicFile`], removing the temp file
/// on any error so failed conversions leave no debris.
fn write_snapshot(
    path: &Path,
    build: impl FnOnce(&mut AtomicFile) -> Result<(), SnapshotError>,
) -> Result<u64, SnapshotError> {
    let mut f = AtomicFile::create(path)?;
    let tmp = f.tmp.clone();
    let result = build(&mut f).and_then(|()| f.commit());
    if result.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    result
}

// ---------------------------------------------------------------------------
// Writers
// ---------------------------------------------------------------------------

/// What a snapshot writer produced — the converter's report line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SnapshotInfo {
    /// Format written.
    pub kind: SnapshotKind,
    /// Nodes stored.
    pub num_nodes: u64,
    /// Undirected edges stored.
    pub num_edges: u64,
    /// Fingerprint embedded in the header.
    pub fingerprint: u64,
    /// Total file size in bytes.
    pub bytes: u64,
}

fn degree_sum<G: GraphAccess + ?Sized>(g: &G) -> u64 {
    let n = g.num_nodes();
    let mut sum = 0u64;
    for v in 0..n {
        sum += g.degree(v as NodeId) as u64;
    }
    sum
}

fn check_ids(ids: Option<&[u64]>, n: usize) -> Result<u64, SnapshotError> {
    match ids {
        None => Ok(0),
        Some(ids) if ids.len() == n => Ok(FLAG_ID_MAP),
        Some(_) => Err(SnapshotError::Malformed { what: "id map length != num_nodes" }),
    }
}

fn write_ids(f: &mut AtomicFile, ids: Option<&[u64]>) -> Result<(), SnapshotError> {
    if let Some(ids) = ids {
        for &id in ids {
            f.write(&id.to_le_bytes())?;
        }
        f.pad_to_page()?;
    }
    Ok(())
}

/// Writes `g` as a raw-CSR **GXSN** snapshot at `path` (atomically).
///
/// `ids`, when given, must map every compact node id to its original
/// dataset id (`ids.len() == num_nodes`) and is stored as the trailing
/// id-map section. Three streaming passes over the graph (fingerprint,
/// degrees, adjacency); never materializes a section in RAM.
pub fn write_gxsn<G: GraphAccess + ?Sized, P: AsRef<Path>>(
    g: &G,
    ids: Option<&[u64]>,
    path: P,
) -> Result<SnapshotInfo, SnapshotError> {
    let n = g.num_nodes();
    let flags = check_ids(ids, n)?;
    let dsum = degree_sum(g);
    if !dsum.is_multiple_of(2) {
        return Err(SnapshotError::Malformed { what: "odd degree sum (graph not undirected)" });
    }
    let header = SnapshotHeader {
        kind: SnapshotKind::Gxsn,
        version: VERSION,
        flags,
        num_nodes: n as u64,
        num_edges: dsum / 2,
        fingerprint: graph_fingerprint(g),
        aux_a: 0,
        aux_b: 0,
    };
    let bytes = write_snapshot(path.as_ref(), |f| {
        f.write(&header.encode())?;
        f.pad_to_page()?;
        let mut running = 0u64;
        f.write(&running.to_le_bytes())?;
        for v in 0..n {
            running += g.degree(v as NodeId) as u64;
            f.write(&running.to_le_bytes())?;
        }
        f.pad_to_page()?;
        let mut err = Ok(());
        for v in 0..n {
            g.visit_neighbors(v as NodeId, &mut |nbrs| {
                if err.is_ok() {
                    err = write_u32s(f, nbrs);
                }
            });
            err?;
        }
        f.pad_to_page()?;
        write_ids(f, ids)
    })?;
    Ok(SnapshotInfo {
        kind: SnapshotKind::Gxsn,
        num_nodes: header.num_nodes,
        num_edges: header.num_edges,
        fingerprint: header.fingerprint,
        bytes,
    })
}

fn write_u32s(f: &mut AtomicFile, xs: &[u32]) -> Result<(), SnapshotError> {
    // Chunked little-endian serialization: one `write` per 4 KiB rather
    // than per entry keeps the BufWriter overhead off the 2E-entry loop.
    let mut buf = [0u8; 4096];
    for chunk in xs.chunks(buf.len() / 4) {
        for (i, &x) in chunk.iter().enumerate() {
            buf[i * 4..i * 4 + 4].copy_from_slice(&x.to_le_bytes());
        }
        f.write(&buf[..chunk.len() * 4])?;
    }
    Ok(())
}

/// Writes `g` as a delta-varint **GXSC** snapshot at `path`
/// (atomically), with the default block granularity [`GXSC_BLOCK`].
pub fn write_gxsc<G: GraphAccess + ?Sized, P: AsRef<Path>>(
    g: &G,
    ids: Option<&[u64]>,
    path: P,
) -> Result<SnapshotInfo, SnapshotError> {
    write_gxsc_with_block(g, ids, path, GXSC_BLOCK)
}

/// [`write_gxsc`] with an explicit block granularity (nodes per decode
/// block; must be ≥ 1). Smaller blocks decode faster per access but
/// grow the block index; 64 is a good default.
pub fn write_gxsc_with_block<G: GraphAccess + ?Sized, P: AsRef<Path>>(
    g: &G,
    ids: Option<&[u64]>,
    path: P,
    block: u64,
) -> Result<SnapshotInfo, SnapshotError> {
    if block == 0 {
        return Err(SnapshotError::Malformed { what: "block size must be >= 1" });
    }
    let n = g.num_nodes();
    let flags = check_ids(ids, n)?;
    let dsum = degree_sum(g);
    if !dsum.is_multiple_of(2) {
        return Err(SnapshotError::Malformed { what: "odd degree sum (graph not undirected)" });
    }
    let bsz = to_usize(block, "block size")?;
    let nb = n.div_ceil(bsz.max(1));
    // Dry pass: per-block encoded sizes -> the block index, without
    // buffering the data section.
    let mut index = Vec::with_capacity(nb + 1);
    index.push(0u64);
    let mut data_len = 0u64;
    for b in 0..nb {
        let lo = b * bsz;
        let hi = ((b + 1) * bsz).min(n);
        for v in lo..hi {
            g.visit_neighbors(v as NodeId, &mut |nbrs| {
                let mut prev = 0u64;
                for (i, &w) in nbrs.iter().enumerate() {
                    let w = u64::from(w);
                    data_len += if i == 0 { varint_len(w) } else { varint_len(w - prev) } as u64;
                    prev = w;
                }
            });
        }
        index.push(data_len);
    }
    let header = SnapshotHeader {
        kind: SnapshotKind::Gxsc,
        version: VERSION,
        flags,
        num_nodes: n as u64,
        num_edges: dsum / 2,
        fingerprint: graph_fingerprint(g),
        aux_a: block,
        aux_b: data_len,
    };
    let bytes = write_snapshot(path.as_ref(), |f| {
        f.write(&header.encode())?;
        f.pad_to_page()?;
        // Degrees: O(1) mapped degree lookups without touching a block.
        let mut dbuf = [0u8; 4096];
        let mut fill = 0usize;
        for v in 0..n {
            dbuf[fill..fill + 4].copy_from_slice(&(g.degree(v as NodeId) as u32).to_le_bytes());
            fill += 4;
            if fill == dbuf.len() {
                f.write(&dbuf)?;
                fill = 0;
            }
        }
        f.write(&dbuf[..fill])?;
        f.pad_to_page()?;
        for &off in &index {
            f.write(&off.to_le_bytes())?;
        }
        f.pad_to_page()?;
        // Encode pass: one reusable per-node scratch buffer.
        let mut scratch: Vec<u8> = Vec::with_capacity(4096);
        let mut err = Ok(());
        for v in 0..n {
            scratch.clear();
            g.visit_neighbors(v as NodeId, &mut |nbrs| {
                let mut prev = 0u64;
                for (i, &w) in nbrs.iter().enumerate() {
                    let w = u64::from(w);
                    varint_encode(if i == 0 { w } else { w - prev }, &mut scratch);
                    prev = w;
                }
            });
            if err.is_ok() {
                err = f.write(&scratch);
            }
            err?;
        }
        f.pad_to_page()?;
        write_ids(f, ids)
    })?;
    Ok(SnapshotInfo {
        kind: SnapshotKind::Gxsc,
        num_nodes: header.num_nodes,
        num_edges: header.num_edges,
        fingerprint: header.fingerprint,
        bytes,
    })
}

// ---------------------------------------------------------------------------
// Backing storage: a raw mmap on x86-64 Linux, an owned aligned buffer
// elsewhere (and on demand, for A/B benchmarking the page-cache path).
// ---------------------------------------------------------------------------

/// The bytes behind an open snapshot.
///
/// `Mapped` is the zero-copy path: the kernel's page cache *is* the CSR,
/// shared read-only across threads and processes. `Owned` reads the file
/// into an 8-byte-aligned private buffer — the portable fallback, and
/// the explicit `open_in_ram` baseline the bench compares against.
pub(crate) enum Backing {
    #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
    Mapped {
        ptr: *const u8,
        len: usize,
    },
    Owned {
        buf: Vec<u64>,
        len: usize,
    },
}

// SAFETY: the mapping is created PROT_READ and never written through;
// the owned buffer is immutable after open (endianness normalization
// happens before the value is shared). All access is via `&self` shared
// reads of plain-old-data.
unsafe impl Send for Backing {}
// SAFETY: as above — read-only after construction, no interior
// mutability.
unsafe impl Sync for Backing {}

impl Backing {
    /// The whole file as bytes. Alignment: page for `Mapped`, 8 bytes
    /// for `Owned` — either satisfies every section (sections start on
    /// page boundaries relative to byte 0).
    pub(crate) fn bytes(&self) -> &[u8] {
        match self {
            #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
            // SAFETY: `ptr` is a live PROT_READ mapping of exactly `len`
            // bytes, valid until `munmap` in `Drop`; the borrow is tied
            // to `&self`, which outlives no drop.
            Backing::Mapped { ptr, len } => unsafe { std::slice::from_raw_parts(*ptr, *len) },
            Backing::Owned { buf, len } => {
                // SAFETY: the u64 buffer owns at least `len` initialized
                // bytes; reinterpreting u64 storage as bytes is always
                // valid.
                unsafe { std::slice::from_raw_parts(buf.as_ptr().cast::<u8>(), *len) }
            }
        }
    }

    /// Maps `path` read-only (zero-copy) where supported, else falls
    /// back to [`Backing::read_owned`].
    pub(crate) fn map(path: &Path) -> Result<Self, SnapshotError> {
        #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
        {
            use std::os::fd::AsRawFd;
            let f = File::open(path)?;
            let len = to_usize(f.metadata()?.len(), "file length")?;
            if len == 0 {
                return Err(SnapshotError::Truncated { expected: HEADER_LEN as u64, found: 0 });
            }
            const SYS_MMAP: usize = 9;
            const PROT_READ: usize = 1;
            const MAP_SHARED: usize = 1;
            let fd = f.as_raw_fd();
            let ret: usize;
            // SAFETY: a fresh PROT_READ/MAP_SHARED mapping of a file we
            // hold open; the kernel picks the address (addr = 0), so no
            // existing mapping is clobbered. The asm block declares every
            // register the `syscall` instruction clobbers (rax, rcx,
            // r11).
            unsafe {
                core::arch::asm!(
                    "syscall",
                    inlateout("rax") SYS_MMAP => ret,
                    in("rdi") 0usize,
                    in("rsi") len,
                    in("rdx") PROT_READ,
                    in("r10") MAP_SHARED,
                    in("r8") fd,
                    in("r9") 0usize,
                    lateout("rcx") _,
                    lateout("r11") _,
                    options(nostack),
                );
            }
            // Linux returns a small negative errno in the canonical
            // -4095..=-1 range on failure.
            if ret >= -4095isize as usize {
                return Err(SnapshotError::Io(std::io::ErrorKind::OutOfMemory));
            }
            // The fd can close now: the mapping keeps the inode pinned.
            drop(f);
            Ok(Backing::Mapped { ptr: ret as *const u8, len })
        }
        #[cfg(not(all(target_os = "linux", target_arch = "x86_64")))]
        {
            Self::read_owned(path)
        }
    }

    /// Reads `path` fully into an owned 8-byte-aligned buffer.
    pub(crate) fn read_owned(path: &Path) -> Result<Self, SnapshotError> {
        let mut f = File::open(path)?;
        let len = to_usize(f.metadata()?.len(), "file length")?;
        let words = len.div_ceil(8);
        let mut buf = vec![0u64; words];
        {
            // SAFETY: the u64 buffer owns `words * 8 >= len` writable
            // bytes; filling them through a byte view is valid.
            let dst = unsafe { std::slice::from_raw_parts_mut(buf.as_mut_ptr().cast::<u8>(), len) };
            let mut got = 0usize;
            while got < len {
                match f.read(&mut dst[got..]) {
                    Ok(0) => break,
                    Ok(k) => got += k,
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                    Err(e) => return Err(e.into()),
                }
            }
            if got < len {
                return Err(SnapshotError::Truncated { expected: len as u64, found: got as u64 });
            }
        }
        Ok(Backing::Owned { buf, len })
    }

    /// True when this is the zero-copy mapped variant.
    pub(crate) fn is_mapped(&self) -> bool {
        match self {
            #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
            Backing::Mapped { .. } => true,
            Backing::Owned { .. } => false,
        }
    }

    /// Best-effort `madvise` over a byte subrange (no-op for owned
    /// backing on non-Linux; harmless anonymous-memory advice
    /// otherwise).
    pub(crate) fn advise(&self, start: usize, len: usize, advice: usize) {
        let bytes = self.bytes();
        let end = start.saturating_add(len).min(bytes.len());
        if start < end {
            crate::csr::madvise_raw(bytes[start..end].as_ptr(), end - start, advice);
        }
    }

    /// Normalizes a section of on-disk little-endian `u64`s to native
    /// order in place. A no-op on little-endian hosts and on mapped
    /// backing (mapping only exists on x86-64 Linux, which is LE).
    #[allow(unused_variables)]
    pub(crate) fn normalize_u64s(&mut self, start: usize, len_bytes: usize) {
        #[cfg(target_endian = "big")]
        if let Backing::Owned { buf, .. } = self {
            let lo = start / 8;
            let hi = (start + len_bytes) / 8;
            for w in &mut buf[lo..hi] {
                *w = u64::from_le(*w);
            }
        }
    }

    /// Normalizes a section of on-disk little-endian `u32`s to native
    /// order in place (see [`Backing::normalize_u64s`]).
    #[allow(unused_variables)]
    pub(crate) fn normalize_u32s(&mut self, start: usize, len_bytes: usize) {
        #[cfg(target_endian = "big")]
        if let Backing::Owned { buf, len } = self {
            // SAFETY: in-bounds u32 view over owned initialized storage.
            let words =
                unsafe { std::slice::from_raw_parts_mut(buf.as_mut_ptr().cast::<u32>(), *len / 4) };
            let lo = start / 4;
            let hi = (start + len_bytes) / 4;
            for w in &mut words[lo..hi] {
                *w = u32::from_le(*w);
            }
        }
    }
}

impl Drop for Backing {
    fn drop(&mut self) {
        #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
        if let Backing::Mapped { ptr, len } = *self {
            const SYS_MUNMAP: usize = 11;
            let mut _ret: isize;
            // SAFETY: unmaps exactly the range this value owns; after
            // Drop no borrow of the bytes can exist (they were all tied
            // to `&self`). Clobbers declared as for every other raw
            // syscall in the crate.
            unsafe {
                core::arch::asm!(
                    "syscall",
                    inlateout("rax") SYS_MUNMAP as isize => _ret,
                    in("rdi") ptr as usize,
                    in("rsi") len,
                    lateout("rcx") _,
                    lateout("r11") _,
                    options(nostack),
                );
            }
        }
    }
}

/// Reinterprets an 8-aligned byte slice as native-order `u64`s.
/// Callers guarantee alignment and `len % 8 == 0` (both hold for every
/// page-aligned section; checked in debug builds).
pub(crate) fn as_u64s(bytes: &[u8]) -> &[u64] {
    debug_assert_eq!(bytes.as_ptr() as usize % 8, 0);
    debug_assert_eq!(bytes.len() % 8, 0);
    // SAFETY: alignment and length are section invariants established at
    // open (sections start on page boundaries of an 8-aligned backing);
    // u64 has no invalid bit patterns.
    unsafe { std::slice::from_raw_parts(bytes.as_ptr().cast::<u64>(), bytes.len() / 8) }
}

/// Reinterprets a 4-aligned byte slice as native-order `u32`s (see
/// [`as_u64s`]).
pub(crate) fn as_u32s(bytes: &[u8]) -> &[u32] {
    debug_assert_eq!(bytes.as_ptr() as usize % 4, 0);
    debug_assert_eq!(bytes.len() % 4, 0);
    // SAFETY: as for `as_u64s`, with 4-byte alignment.
    unsafe { std::slice::from_raw_parts(bytes.as_ptr().cast::<u32>(), bytes.len() / 4) }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn varint_roundtrips_and_lengths_agree() {
        let samples =
            [0u64, 1, 127, 128, 300, 16383, 16384, u32::MAX as u64, u64::MAX / 7, u64::MAX];
        let mut buf = Vec::new();
        for &x in &samples {
            buf.clear();
            varint_encode(x, &mut buf);
            assert_eq!(buf.len(), varint_len(x), "length mismatch for {x}");
            let (y, used) = varint_decode(&buf, 0).expect("decode");
            assert_eq!((y, used), (x, buf.len()), "roundtrip mismatch for {x}");
        }
    }

    #[test]
    fn varint_decode_rejects_truncation_and_overflow() {
        assert_eq!(varint_decode(&[], 0), None);
        assert_eq!(varint_decode(&[0x80], 0), None); // dangling continuation
        let too_wide = [0xffu8; 10]; // 70 bits, all continuations
        assert_eq!(varint_decode(&too_wide, 0), None);
        // Exactly 64 bits is fine: 9 continuation bytes + final 1 bit.
        let mut max = Vec::new();
        varint_encode(u64::MAX, &mut max);
        assert_eq!(varint_decode(&max, 0), Some((u64::MAX, max.len())));
    }

    #[test]
    fn header_roundtrips_and_checksum_catches_any_flip() {
        let h = SnapshotHeader {
            kind: SnapshotKind::Gxsn,
            version: VERSION,
            flags: FLAG_ID_MAP,
            num_nodes: 12345,
            num_edges: 67890,
            fingerprint: 0xdead_beef_cafe_f00d,
            aux_a: 0,
            aux_b: 0,
        };
        let enc = h.encode();
        assert_eq!(SnapshotHeader::parse(&enc), Ok(h));
        for byte in 0..HEADER_LEN {
            for bit in 0..8 {
                let mut bad = enc;
                bad[byte] ^= 1 << bit;
                assert!(
                    SnapshotHeader::parse(&bad).is_err(),
                    "flip at byte {byte} bit {bit} was accepted"
                );
            }
        }
    }

    #[test]
    fn header_rejects_unknown_version_and_flags() {
        let mut h = SnapshotHeader {
            kind: SnapshotKind::Gxsc,
            version: VERSION + 1,
            flags: 0,
            num_nodes: 1,
            num_edges: 0,
            fingerprint: 0,
            aux_a: 64,
            aux_b: 0,
        };
        assert_eq!(
            SnapshotHeader::parse(&h.encode()),
            Err(SnapshotError::UnsupportedVersion { found: VERSION + 1 })
        );
        h.version = VERSION;
        h.flags = 0x10;
        assert_eq!(
            SnapshotHeader::parse(&h.encode()),
            Err(SnapshotError::Malformed { what: "unknown header flag bits" })
        );
    }

    #[test]
    fn snapshot_error_display_is_informative() {
        let cases: [(SnapshotError, &str); 4] = [
            (SnapshotError::BadMagic, "bad magic"),
            (SnapshotError::Truncated { expected: 10, found: 3 }, "need 10 bytes, found 3"),
            (SnapshotError::Malformed { what: "x" }, "malformed"),
            (SnapshotError::Io(std::io::ErrorKind::NotFound), "I/O"),
        ];
        for (e, needle) in cases {
            assert!(e.to_string().contains(needle), "{e} missing {needle:?}");
        }
    }
}
