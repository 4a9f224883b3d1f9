//! Crash-resilient snapshots of a live estimation run.
//!
//! A checkpoint is a versioned, checksummed, self-describing binary image
//! of what a [`crate::runner::RunHandle`] needs to continue a run
//! bit-for-bit and cannot recompute: per-walker RNG state, the
//! non-backtracking memory, the scoring window's ring of states and its
//! slot order, raw graphlet scores, the full batch-means accumulator,
//! and the adaptive tracker's latches. The golden-bit contract is:
//!
//! > checkpoint → drop the process → resume → `finish()` produces the
//! > *same bits* as the uninterrupted run — for fixed and adaptive modes,
//! > any walker count, any checkpoint cadence.
//!
//! This module owns the *transport* layer: a tiny length-checked codec,
//! the envelope (magic, version, payload length, FNV-1a checksum), a
//! graph fingerprint that refuses resume against a different graph, and
//! an atomic write-then-rename file helper. The per-structure field
//! encodings live next to the structures they snapshot
//! (`accuracy.rs`, `window.rs`, `estimator.rs`, `runner.rs`) so a field
//! added to one of those types is added to its encoder in the same diff.
//!
//! A snapshot stores no fact the graph can tell. The walk position is the
//! window's newest state, and the window's degrees, refcounts, adjacency
//! rows and state degrees are rebuilt at resume with a few adjacency
//! fetches per walker. The one window fact kept beyond the ring is the
//! slot order: the eviction history sets it, and it labels the sample
//! mask and fixes the CSS summation order, so it cannot be replayed.
//!
//! # Corruption model
//!
//! The envelope checksum is verified over the *entire payload before a
//! single field is parsed*, so a truncated or bit-flipped snapshot
//! surfaces as a typed [`CheckpointError`] — never a panic, never a
//! silently-wrong resume. FNV-1a's byte step (xor, then multiply by an
//! odd prime) is a bijection of the running 64-bit state, so any
//! single-bit flip in a same-length payload deterministically changes
//! the digest. The declared payload length is honored via a bounded
//! `take`-read, so a corrupted length field yields
//! [`CheckpointError::Truncated`] instead of a pathological allocation.

use crate::error::{CheckpointError, GxError};
use std::io::{Read, Write};
use std::path::Path;

/// Magic bytes opening every checkpoint stream.
pub const MAGIC: [u8; 4] = *b"GXCP";

/// Current checkpoint format version, the only one read or written.
/// Version 5 drops the per-walker health bytes version 4 stored, since
/// a run has no quarantined walkers: every walker scores its full share
/// or the run ends with a typed error. Like version 4 it carries only
/// state the graph cannot tell: per walker, the RNG, the scorer, the
/// non-backtracking memory, the window's ring of state node lists and
/// its slot order. Resume reads the walk position off the ring and
/// rebuilds the window's degrees, refcounts and adjacency rows from the
/// graph. Snapshots are a run's own crash-resume medium, so older
/// versions are refused ([`CheckpointError::UnsupportedVersion`]), not
/// translated.
pub const VERSION: u32 = 5;

/// Hard ceiling on the payload length (64 MiB), enforced on both sides.
/// The reader treats a larger declared length as a corrupted header, so
/// a flipped length bit cannot turn into a giant read loop; the writer
/// refuses a larger payload ([`CheckpointError::TooLarge`]), so no
/// snapshot is ever written that resume would refuse. Real snapshots are
/// kilobytes; only the batch-means series of a very long single-walker
/// adaptive run without [`crate::StoppingRule::bounded_memory`] grows
/// toward the ceiling.
const MAX_PAYLOAD: u64 = 64 << 20;

/// The envelope checksum and the structural graph fingerprint, both
/// defined next to [`gx_graph::GraphAccess`] (on-disk snapshot headers
/// use the same two); re-exported so `gx_core::graph_fingerprint` and
/// every resume/cache call site read them from here.
pub use gx_graph::{fnv1a, graph_fingerprint};

// ---------------------------------------------------------------------------
// Codec: little-endian primitives into a Vec<u8> / out of a slice
// ---------------------------------------------------------------------------

/// Appends primitives to a payload buffer. Free functions (not a trait)
/// so each structure's `encode_into` reads as a flat field list.
pub(crate) fn put_u8(buf: &mut Vec<u8>, v: u8) {
    buf.push(v);
}

pub(crate) fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_u128(buf: &mut Vec<u8>, v: u128) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// `f64` is stored as its IEEE-754 bit pattern — the checkpoint round
/// trip must be bit-exact, including negative zero and any NaN payload.
pub(crate) fn put_f64(buf: &mut Vec<u8>, v: f64) {
    put_u64(buf, v.to_bits());
}

/// `usize` travels as `u64` so snapshots are portable across pointer
/// widths.
pub(crate) fn put_usize(buf: &mut Vec<u8>, v: usize) {
    put_u64(buf, v as u64);
}

/// Bounds-checked cursor over a decoded (checksum-verified) payload.
///
/// Running past the end is [`CheckpointError::Malformed`], not
/// `Truncated`: the envelope already proved the payload arrived intact,
/// so a short read here means the *format* disagrees, which is a
/// different bug than bit rot.
pub(crate) struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    pub(crate) fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Consumes the next `N` bytes as an owned fixed-size array — the
    /// infallible bridge to `from_le_bytes`, so no width conversion
    /// ever panics.
    fn take_arr<const N: usize>(&mut self, what: &'static str) -> Result<[u8; N], CheckpointError> {
        let (chunk, _) = self
            .buf
            .get(self.pos..)
            .and_then(|rest| rest.split_first_chunk::<N>())
            .ok_or(CheckpointError::Malformed { what })?;
        self.pos += N;
        Ok(*chunk)
    }

    pub(crate) fn u8(&mut self, what: &'static str) -> Result<u8, CheckpointError> {
        let [b] = self.take_arr(what)?;
        Ok(b)
    }

    pub(crate) fn u32(&mut self, what: &'static str) -> Result<u32, CheckpointError> {
        Ok(u32::from_le_bytes(self.take_arr(what)?))
    }

    pub(crate) fn u64(&mut self, what: &'static str) -> Result<u64, CheckpointError> {
        Ok(u64::from_le_bytes(self.take_arr(what)?))
    }

    pub(crate) fn u128(&mut self, what: &'static str) -> Result<u128, CheckpointError> {
        Ok(u128::from_le_bytes(self.take_arr(what)?))
    }

    pub(crate) fn f64(&mut self, what: &'static str) -> Result<f64, CheckpointError> {
        Ok(f64::from_bits(self.u64(what)?))
    }

    pub(crate) fn usize(&mut self, what: &'static str) -> Result<usize, CheckpointError> {
        let v = self.u64(what)?;
        usize::try_from(v).map_err(|_| CheckpointError::Malformed { what })
    }

    /// A `usize` that must also fit a sane in-memory bound — used for
    /// element counts before allocating, so a malformed count is a typed
    /// error instead of a capacity panic.
    pub(crate) fn count(
        &mut self,
        max: usize,
        what: &'static str,
    ) -> Result<usize, CheckpointError> {
        let v = self.usize(what)?;
        if v > max {
            return Err(CheckpointError::Malformed { what });
        }
        Ok(v)
    }

    /// Asserts the payload was consumed exactly — leftover bytes mean a
    /// format mismatch.
    pub(crate) fn finish(self) -> Result<(), CheckpointError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(CheckpointError::Malformed { what: "trailing bytes after payload" })
        }
    }
}

// ---------------------------------------------------------------------------
// Envelope
// ---------------------------------------------------------------------------

/// Wraps a payload in the checkpoint envelope and writes it:
/// `MAGIC ∥ version ∥ payload_len ∥ fnv1a(payload) ∥ payload`. A payload
/// over [`MAX_PAYLOAD`] is refused as [`CheckpointError::TooLarge`]
/// before a byte is written.
pub(crate) fn write_envelope<W: Write>(payload: &[u8], w: &mut W) -> Result<(), GxError> {
    let len = payload.len() as u64;
    if len > MAX_PAYLOAD {
        return Err(CheckpointError::TooLarge { len }.into());
    }
    w.write_all(&MAGIC)?;
    w.write_all(&VERSION.to_le_bytes())?;
    w.write_all(&len.to_le_bytes())?;
    w.write_all(&fnv1a(payload).to_le_bytes())?;
    w.write_all(payload)?;
    w.flush()?;
    Ok(())
}

/// Reads and verifies an envelope, returning the checksum-verified
/// payload. Any version but [`VERSION`] is
/// [`CheckpointError::UnsupportedVersion`], and no payload byte is
/// interpreted before the digest matches.
pub(crate) fn read_envelope<R: Read>(r: &mut R) -> Result<Vec<u8>, GxError> {
    // Header fields are read as owned fixed-size words: no slicing, no
    // fallible width conversion, so a short header is always the typed
    // `Truncated` and never a panic.
    let mut magic = [0u8; 4];
    read_exact_or_truncated(r, &mut magic)?;
    if magic != MAGIC {
        return Err(CheckpointError::BadMagic.into());
    }
    let mut word4 = [0u8; 4];
    read_exact_or_truncated(r, &mut word4)?;
    let version = u32::from_le_bytes(word4);
    if version != VERSION {
        return Err(CheckpointError::UnsupportedVersion { found: version }.into());
    }
    let mut word8 = [0u8; 8];
    read_exact_or_truncated(r, &mut word8)?;
    let len = u64::from_le_bytes(word8);
    if len > MAX_PAYLOAD {
        // A flipped length bit must not become a multi-gigabyte read
        // attempt; past the ceiling it is indistinguishable from rot.
        return Err(CheckpointError::Truncated.into());
    }
    read_exact_or_truncated(r, &mut word8)?;
    let expected = u64::from_le_bytes(word8);
    let mut payload = Vec::new();
    r.take(len).read_to_end(&mut payload).map_err(GxError::from)?;
    if payload.len() as u64 != len {
        return Err(CheckpointError::Truncated.into());
    }
    if fnv1a(&payload) != expected {
        return Err(CheckpointError::ChecksumMismatch.into());
    }
    Ok(payload)
}

fn read_exact_or_truncated<R: Read>(r: &mut R, buf: &mut [u8]) -> Result<(), GxError> {
    match r.read_exact(buf) {
        Ok(()) => Ok(()),
        Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => {
            Err(CheckpointError::Truncated.into())
        }
        Err(e) => Err(e.into()),
    }
}

// ---------------------------------------------------------------------------
// Atomic file write
// ---------------------------------------------------------------------------

/// Writes `bytes` to `path` atomically: the data lands in a temporary
/// sibling first, is fsynced, then renamed over the destination. A crash
/// at any point leaves either the old checkpoint or the new one — never
/// a torn half-write — which is the property that makes checkpoint files
/// safe to take on a live cadence.
pub fn write_atomic<P: AsRef<Path>>(path: P, bytes: &[u8]) -> Result<(), GxError> {
    let path = path.as_ref();
    let dir = path.parent().filter(|p| !p.as_os_str().is_empty());
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = std::path::PathBuf::from(tmp);
    let result = (|| {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
        drop(f);
        std::fs::rename(&tmp, path)?;
        // Rename durability needs the directory entry flushed too; on
        // platforms where opening a directory for sync is unsupported,
        // the rename alone is the best available ordering.
        if let Some(dir) = dir {
            if let Ok(d) = std::fs::File::open(dir) {
                let _ = d.sync_all();
            }
        }
        Ok(())
    })();
    if result.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use gx_graph::generators::classic;

    #[test]
    fn fnv1a_distinguishes_single_bit_flips() {
        let base = vec![0xA5u8; 257];
        let h0 = fnv1a(&base);
        for byte in 0..base.len() {
            for bit in 0..8 {
                let mut flipped = base.clone();
                flipped[byte] ^= 1 << bit;
                assert_ne!(fnv1a(&flipped), h0, "flip at byte {byte} bit {bit} collided");
            }
        }
    }

    #[test]
    fn envelope_round_trip() {
        let payload: Vec<u8> = (0..=255).collect();
        let mut out = Vec::new();
        write_envelope(&payload, &mut out).unwrap();
        assert_eq!(read_envelope(&mut out.as_slice()).unwrap(), payload);
    }

    #[test]
    fn envelope_accepts_every_supported_version() {
        // The current version is the only supported one: older formats
        // (1 to 4), the never-issued 0 and a future version are all
        // refused before the payload is read.
        let mut out = Vec::new();
        write_envelope(b"payload", &mut out).unwrap();
        assert_eq!(read_envelope(&mut out.as_slice()).unwrap(), b"payload");
        for v in (0..VERSION).chain([VERSION + 1]) {
            let mut stamped = out.clone();
            stamped[4..8].copy_from_slice(&v.to_le_bytes());
            assert_eq!(
                read_envelope(&mut stamped.as_slice()),
                Err(GxError::Checkpoint(CheckpointError::UnsupportedVersion { found: v }))
            );
        }
    }

    #[test]
    fn envelope_rejects_bad_magic_version_truncation_and_flips() {
        let mut out = Vec::new();
        write_envelope(b"hello checkpoint", &mut out).unwrap();

        let mut bad = out.clone();
        bad[0] = b'X';
        assert_eq!(
            read_envelope(&mut bad.as_slice()),
            Err(GxError::Checkpoint(CheckpointError::BadMagic))
        );

        let mut bad = out.clone();
        bad[4] = 99;
        assert_eq!(
            read_envelope(&mut bad.as_slice()),
            Err(GxError::Checkpoint(CheckpointError::UnsupportedVersion { found: 99 }))
        );

        for cut in 0..out.len() {
            let err = read_envelope(&mut &out[..cut]).unwrap_err();
            assert_eq!(err, GxError::Checkpoint(CheckpointError::Truncated), "cut at {cut}");
        }

        // Any single-bit flip in the payload region is caught by the digest.
        for byte in 24..out.len() {
            let mut bad = out.clone();
            bad[byte] ^= 1;
            assert_eq!(
                read_envelope(&mut bad.as_slice()),
                Err(GxError::Checkpoint(CheckpointError::ChecksumMismatch)),
                "payload flip at byte {byte}"
            );
        }
    }

    #[test]
    fn envelope_huge_declared_length_is_bounded() {
        let mut out = Vec::new();
        write_envelope(b"tiny", &mut out).unwrap();
        out[8..16].copy_from_slice(&u64::MAX.to_le_bytes());
        assert_eq!(
            read_envelope(&mut out.as_slice()),
            Err(GxError::Checkpoint(CheckpointError::Truncated))
        );
    }

    #[test]
    fn writer_refuses_exactly_what_the_reader_would() {
        let at_ceiling = vec![0u8; MAX_PAYLOAD as usize];
        assert_eq!(write_envelope(&at_ceiling, &mut std::io::sink()), Ok(()));
        let over = vec![0u8; MAX_PAYLOAD as usize + 1];
        let mut out = Vec::new();
        assert_eq!(
            write_envelope(&over, &mut out),
            Err(GxError::Checkpoint(CheckpointError::TooLarge { len: MAX_PAYLOAD + 1 }))
        );
        assert!(out.is_empty(), "refused before a byte is written");
    }

    #[test]
    fn reader_round_trips_all_primitives_bit_exactly() {
        let mut buf = Vec::new();
        put_u8(&mut buf, 7);
        put_u32(&mut buf, 0xDEAD_BEEF);
        put_u64(&mut buf, u64::MAX - 1);
        put_u128(&mut buf, u128::MAX / 3);
        put_f64(&mut buf, -0.0);
        put_f64(&mut buf, f64::NAN);
        put_usize(&mut buf, 123_456);
        let mut r = Reader::new(&buf);
        assert_eq!(r.u8("a").unwrap(), 7);
        assert_eq!(r.u32("b").unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.u64("c").unwrap(), u64::MAX - 1);
        assert_eq!(r.u128("d").unwrap(), u128::MAX / 3);
        assert_eq!(r.f64("e").unwrap().to_bits(), (-0.0f64).to_bits());
        assert_eq!(r.f64("f").unwrap().to_bits(), f64::NAN.to_bits());
        assert_eq!(r.usize("g").unwrap(), 123_456);
        r.finish().unwrap();
    }

    #[test]
    fn reader_overrun_and_trailing_bytes_are_malformed() {
        let mut buf = Vec::new();
        put_u32(&mut buf, 1);
        let mut r = Reader::new(&buf);
        assert_eq!(r.u64("field"), Err(CheckpointError::Malformed { what: "field" }));
        let mut r = Reader::new(&buf);
        r.u8("x").unwrap();
        assert!(r.finish().is_err());
        let mut r = Reader::new(&buf);
        assert_eq!(r.count(10, "n"), Err(CheckpointError::Malformed { what: "n" }));
    }

    #[test]
    fn graph_fingerprint_is_structural() {
        let a = classic::petersen();
        let b = classic::petersen();
        assert_eq!(graph_fingerprint(&a), graph_fingerprint(&b));
        let c = classic::lollipop(4, 3);
        assert_ne!(graph_fingerprint(&a), graph_fingerprint(&c));
        // Same node count, different wiring.
        let p = classic::path(5);
        let cyc = classic::cycle(5);
        assert_ne!(graph_fingerprint(&p), graph_fingerprint(&cyc));
    }

    #[test]
    fn write_atomic_replaces_and_cleans_up() {
        let dir = std::env::temp_dir().join(format!("gxcp_atomic_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("snap.gxcp");
        write_atomic(&path, b"first").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"first");
        write_atomic(&path, b"second").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"second");
        assert!(!dir.join("snap.gxcp.tmp").exists(), "tmp sibling must not survive");
        // Unwritable destination surfaces as a typed I/O error.
        let bad = dir.join("no_such_subdir").join("x.gxcp");
        assert!(matches!(write_atomic(&bad, b"x"), Err(GxError::Io(_))));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
