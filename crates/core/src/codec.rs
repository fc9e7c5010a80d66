//! The checkpoint codec plane: delta frames + lossless f64 compression,
//! sitting between *capture* and *ship* in the resilient store.
//!
//! Every snapshot entry the store would ship raw can instead be wrapped in a
//! self-describing **frame**:
//!
//! * **Delta frames** — the payload is split into fixed-size chunks and a
//!   per-chunk FNV digest manifest is compared against the digests carried by
//!   the last committed frame for the same key; only dirty chunks are
//!   stored/shipped. The manifest always covers the *full* new state, so the
//!   next epoch can diff against this frame without decoding it. Chains are
//!   bounded: a full base is re-emitted when the dirty ratio exceeds
//!   `GML_CKPT_DIRTY_MAX`, every `GML_CKPT_FULL_EVERY` epochs, and after
//!   every restore.
//! * **Lossless compression** (`GML_CKPT_LEVEL=1`) — each stored chunk is
//!   XOR-ed against its previous 64-bit word (Gorilla/fpzip idiom: iterative
//!   f64 state mutates low mantissa bits, so residuals are mostly zero
//!   bytes), byte-plane transposed, and run-length packed. Chunks that do
//!   not shrink are stored raw, so the wire size never exceeds raw + frame
//!   overhead. Encoding fans out across the kernel pool; buffers come from
//!   the serial arena.
//! * **Lossy quantization** (`GML_CKPT_LOSSY_TOL`, off by default) — f64
//!   payloads ([`PayloadClass::F64Tail`]) are rounded to a uniform grid of
//!   step `2·tol` *before* digesting, bounding the absolute restore error by
//!   `tol`. Opaque payloads (topology, integer indices, mixed metadata)
//!   reject quantization and stay bit-exact.
//!
//! Restore reconstructs bit-identical state in the lossless modes: the frame
//! carries an FNV digest of the whole logical payload (post-quantization)
//! and every decode re-derives and verifies it, so a corrupt or mismatched
//! chain surfaces as [`GmlError::DataLoss`](crate::error::GmlError) instead
//! of silently wrong data.

use std::sync::atomic::AtomicBool;
use std::sync::Mutex;

use apgas::digest::fnv1a_bytes;
use bytes::{BufMut, Bytes};
use apgas::monitor::{env_parsed, env_parsed_float};
use apgas::pool;
use apgas::serial::arena;
use apgas::stats::StatsSnapshot;

use crate::snapshot::Snapshot;

/// Frame magic: `"GLCK"` little-endian. A payload that does not start with
/// this is not a frame (raw entries never collide: the store tracks
/// framed-ness explicitly and never guesses from content).
const FRAME_MAGIC: u32 = 0x4b43_4c47;

/// Frame flag: the frame stores only dirty chunks against `ref_snap_id`.
const FLAG_DELTA: u8 = 1;
/// Frame flag: at least one stored chunk is RLE-compressed.
const FLAG_COMPRESSED: u8 = 2;
/// Frame flag: the payload was lossily quantized before digesting.
const FLAG_LOSSY: u8 = 4;

/// Fixed header bytes before the chunk-digest manifest.
const HEADER_FIXED: usize = 4 + 1 + 1 + 4 + 8 + 8 + 8 + 4;
/// Per-stored-chunk record overhead: index (u32) + encoding (u8) + len (u32).
const CHUNK_RECORD: usize = 4 + 1 + 4;

/// How the codec treats a snapshot payload for the *lossy* mode.
///
/// Returned by [`Snapshottable::payload_class`](crate::snapshot::Snapshottable::payload_class);
/// the default is [`Opaque`](PayloadClass::Opaque), which keeps every object
/// bit-exact unless it explicitly opts in.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PayloadClass {
    /// Arbitrary bytes (topology, integer indices, mixed metadata).
    /// Quantization is rejected; the payload is always lossless.
    Opaque,
    /// The payload is `offset` header bytes followed by a packed `[f64]`
    /// tail (the layout of the `Serial` impls for `Vector` and
    /// `DenseMatrix`). Only such payloads may be quantized.
    F64Tail {
        /// Byte offset where the packed f64 run begins.
        offset: usize,
    },
}

/// Which frames the store emits.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CodecMode {
    /// Bypass the codec plane entirely: entries are stored and shipped as
    /// the raw capture bytes (the pre-codec store behavior, and the
    /// reference leg of the checkpoint-parity drill).
    Raw,
    /// Emit delta frames against the last committed snapshot when
    /// eligible, full bases otherwise.
    Delta,
}

impl CodecMode {
    /// The mode's `GML_CKPT_CODEC` spelling.
    pub fn label(self) -> &'static str {
        match self {
            CodecMode::Raw => "raw",
            CodecMode::Delta => "delta",
        }
    }
}

/// Parses a `GML_CKPT_CODEC` value: exactly `raw` or `delta`.
impl std::str::FromStr for CodecMode {
    type Err = ();

    fn from_str(s: &str) -> Result<Self, ()> {
        [CodecMode::Raw, CodecMode::Delta].into_iter().find(|m| m.label() == s).ok_or(())
    }
}

impl std::fmt::Display for CodecMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Codec knobs, normally read from the `GML_CKPT_*` environment.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CodecConfig {
    /// Frame emission mode (`GML_CKPT_CODEC` = `raw` | `delta`).
    pub mode: CodecMode,
    /// Compression level (`GML_CKPT_LEVEL`): 0 stores chunks raw, 1 applies
    /// XOR-residual byte-plane RLE.
    pub level: u8,
    /// Chunk size in bytes (`GML_CKPT_CHUNK`), the delta granularity.
    pub chunk: usize,
    /// Dirty-chunk ratio above which a delta degenerates to a full base
    /// (`GML_CKPT_DIRTY_MAX`).
    pub dirty_max: f64,
    /// Emit a full base at least every this many epochs per entry
    /// (`GML_CKPT_FULL_EVERY`); equivalently the maximum chain length.
    pub full_every: u32,
    /// Absolute-error bound for lossy quantization (`GML_CKPT_LOSSY_TOL`);
    /// `None` keeps every payload lossless.
    pub lossy_tol: Option<f64>,
}

impl CodecConfig {
    /// The codec disabled: raw passthrough (what bare
    /// [`ResilientStore::make`](crate::store::ResilientStore::make) uses).
    pub fn raw() -> Self {
        CodecConfig {
            mode: CodecMode::Raw,
            level: 0,
            chunk: 4096,
            dirty_max: 0.5,
            full_every: 16,
            lossy_tol: None,
        }
    }

    /// Read the `GML_CKPT_*` knobs; defaults to delta frames with
    /// compression on and lossy off. Like every knob, an invalid value
    /// warns on stderr and falls back to the default. This is what
    /// [`AppResilientStore::make`](crate::app_store::AppResilientStore::make)
    /// uses, so the whole executor stack runs through the codec by default.
    pub fn from_env() -> Self {
        let mode = env_parsed("GML_CKPT_CODEC", CodecMode::Delta);
        let level = env_parsed::<u64>("GML_CKPT_LEVEL", 1).min(1) as u8;
        let chunk = (env_parsed::<u64>("GML_CKPT_CHUNK", 4096) as usize).clamp(64, 1 << 24);
        let dirty_max = env_parsed_float("GML_CKPT_DIRTY_MAX", 0.5, 0.0, 1.0);
        let full_every = (env_parsed::<u64>("GML_CKPT_FULL_EVERY", 16) as u32).max(1);
        let tol = env_parsed_float("GML_CKPT_LOSSY_TOL", 0.0, 0.0, f64::MAX);
        CodecConfig {
            mode,
            level,
            chunk,
            dirty_max,
            full_every,
            lossy_tol: (tol > 0.0).then_some(tol),
        }
    }

    /// Whether the codec plane is bypassed.
    pub fn is_raw(&self) -> bool {
        self.mode == CodecMode::Raw
    }

    /// One-line config stamp for bench metadata and skip-with-reason
    /// comparisons: `"delta"`, `"raw"`.
    pub fn mode_label(&self) -> &'static str {
        self.mode.label()
    }
}

/// Per-object capture context, set by `AppResilientStore::save` around
/// `make_snapshot` so every place's `save_batch` can see the delta base and
/// the payload class of the object being captured.
#[derive(Clone)]
pub(crate) struct CaptureCtx {
    /// The last committed snapshot of the object, if delta encoding
    /// against it is allowed (fully redundant, no forced full).
    pub ref_snap: Option<Snapshot>,
    /// The object's payload class (gates lossy quantization).
    pub class: PayloadClass,
}

/// Shared codec state hanging off a `ResilientStore` (one `Arc`, shared by
/// every clone of the store across places — places are threads here).
pub(crate) struct CodecState {
    /// The immutable knob set this store was built with.
    pub config: CodecConfig,
    /// The capture context of the object currently inside `make_snapshot`
    /// (captures are serialized by the app thread, so one slot suffices).
    pub capture: parking_lot::Mutex<Option<CaptureCtx>>,
    /// Set by any place that emitted a delta frame during the current
    /// capture; read + cleared by `AppResilientStore::save` to attach the
    /// chain to the built snapshot.
    pub used_delta: AtomicBool,
    /// Force full bases until the next successful commit (set after every
    /// restore: the surviving replicas may be rebuilding).
    pub force_full: AtomicBool,
}

impl CodecState {
    pub(crate) fn new(config: CodecConfig) -> Self {
        CodecState {
            config,
            capture: parking_lot::Mutex::new(None),
            used_delta: AtomicBool::new(false),
            force_full: AtomicBool::new(false),
        }
    }
}

/// The checkpoint-codec slice of a runtime counter snapshot (the
/// `ckpt_*`/`codec_*` counters of [`StatsSnapshot`], which the store
/// charges through its `Ctx` as it encodes and decodes frames).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CodecSnapshot {
    /// Pre-codec (logical) payload bytes encoded.
    pub logical_bytes: u64,
    /// Post-codec (wire) frame bytes produced.
    pub wire_bytes: u64,
    /// Full base frames emitted.
    pub frames_full: u64,
    /// Delta frames emitted.
    pub frames_delta: u64,
    /// Frames whose payload was lossily quantized.
    pub frames_lossy: u64,
    /// Wall nanoseconds spent encoding frames.
    pub encode_nanos: u64,
    /// Wall nanoseconds spent decoding frames (chain replay included).
    pub decode_nanos: u64,
}

impl CodecSnapshot {
    /// Wire/logical ratio (1.0 when nothing was encoded yet).
    pub fn compression_ratio(&self) -> f64 {
        apgas::stats::wire_ratio(self.logical_bytes, self.wire_bytes)
    }
}

impl From<&StatsSnapshot> for CodecSnapshot {
    fn from(s: &StatsSnapshot) -> Self {
        CodecSnapshot {
            logical_bytes: s.ckpt_logical_bytes,
            wire_bytes: s.ckpt_wire_bytes,
            frames_full: s.ckpt_frames_full,
            frames_delta: s.ckpt_frames_delta,
            frames_lossy: s.ckpt_frames_lossy,
            encode_nanos: s.codec_encode_nanos,
            decode_nanos: s.codec_decode_nanos,
        }
    }
}

// ---------------------------------------------------------------------------
// Frame header
// ---------------------------------------------------------------------------

/// Parsed frame header (everything before the stored-chunk records).
pub(crate) struct FrameHeader {
    pub flags: u8,
    /// 0 for a full base, `base.depth + 1` for a delta.
    pub chain_depth: u8,
    pub chunk_size: u32,
    pub logical_len: u64,
    /// FNV-1a of the full logical payload (post-quantization).
    pub payload_fnv: u64,
    /// Snapshot id of the delta base (0 and unused for full frames).
    pub ref_snap_id: u64,
    /// Per-chunk FNV digests of the full logical payload.
    pub digests: Vec<u64>,
    /// Byte offset of the first stored-chunk record.
    pub records_at: usize,
}

impl FrameHeader {
    pub(crate) fn is_delta(&self) -> bool {
        self.flags & FLAG_DELTA != 0
    }

    #[cfg(test)]
    pub(crate) fn is_lossy(&self) -> bool {
        self.flags & FLAG_LOSSY != 0
    }
}

fn rd_u32(b: &[u8], at: usize) -> Option<u32> {
    Some(u32::from_le_bytes(b.get(at..at + 4)?.try_into().ok()?))
}

fn rd_u64(b: &[u8], at: usize) -> Option<u64> {
    Some(u64::from_le_bytes(b.get(at..at + 8)?.try_into().ok()?))
}

/// Parse a frame header; `Err` describes the corruption.
pub(crate) fn parse_header(frame: &[u8]) -> Result<FrameHeader, String> {
    let magic = rd_u32(frame, 0).ok_or("frame truncated before magic")?;
    if magic != FRAME_MAGIC {
        return Err(format!("bad frame magic {magic:#x}"));
    }
    let flags = *frame.get(4).ok_or("frame truncated at flags")?;
    let chain_depth = *frame.get(5).ok_or("frame truncated at depth")?;
    let chunk_size = rd_u32(frame, 6).ok_or("frame truncated at chunk size")?;
    let logical_len = rd_u64(frame, 10).ok_or("frame truncated at logical len")?;
    let payload_fnv = rd_u64(frame, 18).ok_or("frame truncated at payload fnv")?;
    let ref_snap_id = rd_u64(frame, 26).ok_or("frame truncated at ref id")?;
    let n_chunks = rd_u32(frame, 34).ok_or("frame truncated at chunk count")? as usize;
    if chunk_size == 0 {
        return Err("zero chunk size".into());
    }
    let expect = logical_len.div_ceil(chunk_size as u64) as usize;
    if n_chunks != expect {
        return Err(format!("chunk count {n_chunks} != expected {expect}"));
    }
    let mut digests = Vec::with_capacity(n_chunks);
    let mut at = HEADER_FIXED;
    for _ in 0..n_chunks {
        digests.push(rd_u64(frame, at).ok_or("frame truncated in digest manifest")?);
        at += 8;
    }
    Ok(FrameHeader {
        flags,
        chain_depth,
        chunk_size,
        logical_len,
        payload_fnv,
        ref_snap_id,
        digests,
        records_at: at,
    })
}

// ---------------------------------------------------------------------------
// Chunk compression: XOR-vs-previous-word residuals, byte-plane transpose,
// run-length packing of the (mostly zero) planes.
// ---------------------------------------------------------------------------

/// RLE token space: `0x00..=0x7f` introduces a literal run of `t+1` bytes,
/// `0x80..=0xff` encodes a zero run of `t - 0x7f` (1..=128) bytes.
fn rle_pack(plane: &[u8], out: &mut Vec<u8>) {
    let mut i = 0;
    while i < plane.len() {
        if plane[i] == 0 {
            let mut z = 1;
            while z < 128 && i + z < plane.len() && plane[i + z] == 0 {
                z += 1;
            }
            out.push(0x80 + (z - 1) as u8);
            i += z;
        } else {
            let start = i;
            let mut l = 0;
            // A literal run ends at a zero worth encoding (two zeros in a
            // row always are; a lone zero between literals costs the same
            // either way, so break on any zero for simplicity).
            while l < 128 && i < plane.len() && plane[i] != 0 {
                l += 1;
                i += 1;
            }
            out.push((l - 1) as u8);
            out.extend_from_slice(&plane[start..start + l]);
        }
    }
}

/// Inverse of [`rle_pack`]: consume tokens from `src[*at..]` until exactly
/// `n` bytes are produced.
fn rle_unpack(src: &[u8], at: &mut usize, n: usize, out: &mut Vec<u8>) -> Result<(), String> {
    let start = out.len();
    while out.len() - start < n {
        let t = *src.get(*at).ok_or("compressed chunk truncated at token")?;
        *at += 1;
        if t >= 0x80 {
            let z = (t - 0x7f) as usize;
            out.resize(out.len() + z, 0);
        } else {
            let l = t as usize + 1;
            let lit = src.get(*at..*at + l).ok_or("compressed chunk truncated in literal")?;
            out.extend_from_slice(lit);
            *at += l;
        }
    }
    if out.len() - start != n {
        return Err("compressed chunk overran plane boundary".into());
    }
    Ok(())
}

/// Compress one chunk. Returns `(encoding, bytes)` where encoding 0 means
/// the chunk is stored raw (compression did not shrink it) and 1 means
/// XOR + transpose + RLE.
fn compress_chunk(chunk: &[u8]) -> (u8, Vec<u8>) {
    let n_words = chunk.len() / 8;
    let tail = &chunk[n_words * 8..];
    // XOR residuals vs the previous word: iterative-state f64 runs leave
    // most residual bytes zero (sign/exponent/high mantissa unchanged).
    let mut residuals = Vec::with_capacity(n_words);
    let mut prev = 0u64;
    for i in 0..n_words {
        let w = u64::from_le_bytes(chunk[i * 8..i * 8 + 8].try_into().expect("8-byte word"));
        residuals.push(if i == 0 { w } else { w ^ prev });
        prev = w;
    }
    // Byte-plane transpose + per-plane RLE. Planes are self-terminating on
    // decode (each holds exactly n_words bytes).
    let mut out = Vec::with_capacity(chunk.len() / 2);
    let mut plane = Vec::with_capacity(n_words);
    for b in 0..8 {
        plane.clear();
        for r in &residuals {
            plane.push(r.to_le_bytes()[b]);
        }
        rle_pack(&plane, &mut out);
    }
    out.extend_from_slice(tail);
    if out.len() < chunk.len() {
        (1, out)
    } else {
        (0, chunk.to_vec())
    }
}

/// Decompress one chunk of logical length `n` into `out`.
fn decompress_chunk(enc: u8, data: &[u8], n: usize, out: &mut Vec<u8>) -> Result<(), String> {
    match enc {
        0 => {
            if data.len() != n {
                return Err(format!("raw chunk len {} != logical {n}", data.len()));
            }
            out.extend_from_slice(data);
            Ok(())
        }
        1 => {
            let n_words = n / 8;
            let tail_len = n - n_words * 8;
            let mut planes = Vec::with_capacity(n_words * 8);
            let mut at = 0;
            for _ in 0..8 {
                rle_unpack(data, &mut at, n_words, &mut planes)?;
            }
            let tail = data.get(at..at + tail_len).ok_or("compressed chunk missing tail")?;
            if at + tail_len != data.len() {
                return Err("trailing garbage after compressed chunk".into());
            }
            let start = out.len();
            out.resize(start + n, 0);
            let mut prev = 0u64;
            for i in 0..n_words {
                let mut wb = [0u8; 8];
                for (b, byte) in wb.iter_mut().enumerate() {
                    *byte = planes[b * n_words + i];
                }
                let r = u64::from_le_bytes(wb);
                let w = if i == 0 { r } else { r ^ prev };
                out[start + i * 8..start + i * 8 + 8].copy_from_slice(&w.to_le_bytes());
                prev = w;
            }
            out[start + n_words * 8..start + n].copy_from_slice(tail);
            Ok(())
        }
        e => Err(format!("unknown chunk encoding {e}")),
    }
}

// ---------------------------------------------------------------------------
// Frame encode / decode
// ---------------------------------------------------------------------------

/// The result of encoding one entry.
pub(crate) struct EncodeOutcome {
    /// The framed wire bytes.
    pub frame: Bytes,
    /// Whether a delta frame was emitted (the caller must then record the
    /// chain on the snapshot).
    pub delta: bool,
}

/// Encode one logical payload into a frame. `ref_frame` is the candidate
/// delta base (same key, same owner/backup, locally present); `lossy` marks
/// that `payload` was already quantized. Placement eligibility is the
/// caller's job; this function additionally requires matching geometry and a
/// bounded chain before emitting a delta.
pub(crate) fn encode_entry(
    cfg: &CodecConfig,
    payload: &[u8],
    ref_frame: Option<&[u8]>,
    ref_snap_id: u64,
    lossy: bool,
) -> EncodeOutcome {
    let chunk = cfg.chunk;
    let n_chunks = payload.len().div_ceil(chunk);
    let digests: Vec<u64> =
        payload.chunks(chunk.max(1)).map(fnv1a_bytes).collect::<Vec<_>>();
    debug_assert_eq!(digests.len(), n_chunks);

    // Delta eligibility: a parseable base with identical geometry, a bounded
    // chain, and a dirty ratio within the knob.
    let mut delta_base: Option<FrameHeader> = None;
    if cfg.mode == CodecMode::Delta && n_chunks > 0 {
        if let Some(rf) = ref_frame {
            if let Ok(h) = parse_header(rf) {
                let depth_ok = (h.chain_depth as u32 + 1) < cfg.full_every;
                let geo_ok = h.logical_len == payload.len() as u64
                    && h.chunk_size as usize == chunk
                    && h.digests.len() == n_chunks;
                if depth_ok && geo_ok {
                    delta_base = Some(h);
                }
            }
        }
    }
    let (stored, is_delta, depth) = match &delta_base {
        Some(h) => {
            let dirty: Vec<usize> =
                (0..n_chunks).filter(|&i| digests[i] != h.digests[i]).collect();
            if dirty.len() as f64 > cfg.dirty_max * n_chunks as f64 {
                ((0..n_chunks).collect(), false, 0u8)
            } else {
                (dirty, true, h.chain_depth + 1)
            }
        }
        None => ((0..n_chunks).collect::<Vec<usize>>(), false, 0u8),
    };

    // Compress the stored chunks across the kernel pool; deterministic
    // in-order assembly from per-chunk slots.
    let slots: Vec<Mutex<(u8, Vec<u8>)>> =
        (0..stored.len()).map(|_| Mutex::new((0, Vec::new()))).collect();
    if cfg.level >= 1 {
        pool::run(stored.len(), &|i| {
            let ci = stored[i];
            let lo = ci * chunk;
            let hi = (lo + chunk).min(payload.len());
            *slots[i].lock().expect("codec slot") = compress_chunk(&payload[lo..hi]);
        });
    } else {
        for (i, &ci) in stored.iter().enumerate() {
            let lo = ci * chunk;
            let hi = (lo + chunk).min(payload.len());
            *slots[i].lock().expect("codec slot") = (0, payload[lo..hi].to_vec());
        }
    }

    let mut flags = 0u8;
    if is_delta {
        flags |= FLAG_DELTA;
    }
    if lossy {
        flags |= FLAG_LOSSY;
    }
    let any_compressed =
        slots.iter().any(|s| s.lock().expect("codec slot").0 != 0);
    if any_compressed {
        flags |= FLAG_COMPRESSED;
    }
    let stored_bytes: usize =
        slots.iter().map(|s| s.lock().expect("codec slot").1.len()).sum();
    let size = HEADER_FIXED + 8 * n_chunks + stored.len() * CHUNK_RECORD + stored_bytes;
    let frame = arena::encode_with(size, |buf| {
        buf.put_u32_le(FRAME_MAGIC);
        buf.put_u8(flags);
        buf.put_u8(depth);
        buf.put_u32_le(chunk as u32);
        buf.put_u64_le(payload.len() as u64);
        buf.put_u64_le(fnv1a_bytes(payload));
        buf.put_u64_le(if is_delta { ref_snap_id } else { 0 });
        buf.put_u32_le(n_chunks as u32);
        for d in &digests {
            buf.put_u64_le(*d);
        }
        buf.put_u32_le(stored.len() as u32);
        for (i, &ci) in stored.iter().enumerate() {
            let slot = slots[i].lock().expect("codec slot");
            buf.put_u32_le(ci as u32);
            buf.put_u8(slot.0);
            buf.put_u32_le(slot.1.len() as u32);
            buf.extend_from_slice(&slot.1);
        }
    });
    EncodeOutcome { frame, delta: is_delta }
}

/// Decode one frame back into its full logical payload. `base` is the
/// *decoded* logical payload of the delta base (required iff the frame is a
/// delta). The reconstructed payload is verified against the frame's FNV
/// digest — a mismatch is corruption, never returned as data.
pub(crate) fn decode_frame(frame: &[u8], base: Option<&[u8]>) -> Result<Bytes, String> {
    let h = parse_header(frame)?;
    let n = h.logical_len as usize;
    let chunk = h.chunk_size as usize;
    let n_chunks = h.digests.len();
    let n_stored =
        rd_u32(frame, h.records_at).ok_or("frame truncated at stored count")? as usize;
    if n_stored > n_chunks {
        return Err(format!("stored chunk count {n_stored} > chunk count {n_chunks}"));
    }

    let base = if h.is_delta() {
        let b = base.ok_or("delta frame decoded without its base")?;
        if b.len() != n {
            return Err(format!("delta base len {} != logical len {n}", b.len()));
        }
        Some(b)
    } else {
        None
    };

    // Start from the base (delta) or zeroes (full — every chunk is stored),
    // then overwrite the stored chunks.
    let mut out: Vec<u8> = match base {
        Some(b) => b.to_vec(),
        None => Vec::with_capacity(n),
    };
    if base.is_none() {
        out.resize(n, 0);
    }
    let mut covered = vec![base.is_some(); n_chunks];
    let mut at = h.records_at + 4;
    let mut scratch = Vec::new();
    for _ in 0..n_stored {
        let ci = rd_u32(frame, at).ok_or("frame truncated at chunk index")? as usize;
        let enc = *frame.get(at + 4).ok_or("frame truncated at chunk encoding")?;
        let len = rd_u32(frame, at + 5).ok_or("frame truncated at chunk len")? as usize;
        at += CHUNK_RECORD;
        let data = frame.get(at..at + len).ok_or("frame truncated in chunk data")?;
        at += len;
        if ci >= n_chunks {
            return Err(format!("chunk index {ci} out of range"));
        }
        let lo = ci * chunk;
        let hi = (lo + chunk).min(n);
        scratch.clear();
        decompress_chunk(enc, data, hi - lo, &mut scratch)?;
        out[lo..hi].copy_from_slice(&scratch);
        covered[ci] = true;
    }
    if at != frame.len() {
        return Err("trailing garbage after frame".into());
    }
    if let Some(miss) = covered.iter().position(|c| !c) {
        return Err(format!("full frame missing chunk {miss}"));
    }
    if fnv1a_bytes(&out) != h.payload_fnv {
        return Err("decoded payload digest mismatch".into());
    }
    Ok(Bytes::from(out))
}

/// Quantize an f64-tail payload to a uniform grid of step `2·tol` (absolute
/// restore error ≤ `tol`). Returns `None` — leave the payload lossless —
/// when the class is opaque, the tail is misaligned, or `tol` is not
/// positive. Non-finite values pass through unchanged.
pub(crate) fn quantize_payload(payload: &Bytes, class: PayloadClass, tol: f64) -> Option<Bytes> {
    let PayloadClass::F64Tail { offset } = class else {
        return None;
    };
    // `tol <= 0.0` also rejects NaN tolerances (NaN fails every comparison).
    if tol <= 0.0 || tol.is_nan() || payload.len() < offset {
        return None;
    }
    if !(payload.len() - offset).is_multiple_of(8) {
        return None;
    }
    let step = 2.0 * tol;
    let out = arena::encode_with(payload.len(), |buf| {
        buf.extend_from_slice(&payload[..offset]);
        for w in payload[offset..].chunks_exact(8) {
            let v = f64::from_le_bytes(w.try_into().expect("8-byte f64"));
            let q = if v.is_finite() { (v / step).round() * step } else { v };
            buf.put_f64_le(q);
        }
    });
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn roundtrip_full(cfg: &CodecConfig, payload: &[u8]) -> Bytes {
        let out = encode_entry(cfg, payload, None, 0, false);
        assert!(!out.delta);
        decode_frame(&out.frame, None).expect("full frame decodes")
    }

    fn cfg_delta() -> CodecConfig {
        CodecConfig { mode: CodecMode::Delta, level: 1, ..CodecConfig::raw() }
    }

    fn f64_payload(values: &[f64]) -> Vec<u8> {
        let mut v = (values.len() as u64).to_le_bytes().to_vec();
        for x in values {
            v.extend_from_slice(&x.to_le_bytes());
        }
        v
    }

    #[test]
    fn codec_mode_parses_exactly_raw_and_delta() {
        assert_eq!("raw".parse(), Ok(CodecMode::Raw));
        assert_eq!("delta".parse(), Ok(CodecMode::Delta));
        // Any other spelling, `full` included, is invalid: `from_env` warns
        // and keeps the default instead of guessing.
        for bad in ["full", "Raw", "DELTA", "", "delta2", "lossy"] {
            assert_eq!(bad.parse::<CodecMode>(), Err(()), "{bad:?}");
        }
        for mode in [CodecMode::Raw, CodecMode::Delta] {
            assert_eq!(mode.to_string().parse(), Ok(mode), "Display round-trips");
        }
    }

    #[test]
    fn full_frame_roundtrips_bit_identically() {
        let cfg = cfg_delta();
        for payload in [
            vec![],
            vec![1u8],
            vec![0u8; 5000],
            (0..10_000u32).flat_map(|i| i.to_le_bytes()).collect::<Vec<u8>>(),
            f64_payload(&[f64::NAN, -0.0, 0.0, f64::INFINITY, f64::NEG_INFINITY, 5e-324]),
        ] {
            assert_eq!(&roundtrip_full(&cfg, &payload)[..], &payload[..]);
        }
    }

    #[test]
    fn smooth_f64_run_compresses() {
        let cfg = cfg_delta();
        let values: Vec<f64> = (0..4096).map(|i| 1.0 + i as f64 * 1e-9).collect();
        let payload = f64_payload(&values);
        let out = encode_entry(&cfg, &payload, None, 0, false);
        assert!(
            out.frame.len() < payload.len() / 2,
            "smooth run should compress >2x: {} vs {}",
            out.frame.len(),
            payload.len()
        );
        assert_eq!(&decode_frame(&out.frame, None).unwrap()[..], &payload[..]);
    }

    #[test]
    fn delta_ships_only_dirty_chunks_and_replays() {
        let cfg = CodecConfig { chunk: 256, ..cfg_delta() };
        let base: Vec<u8> = (0..4096u32).map(|i| (i % 251) as u8).collect();
        let base_out = encode_entry(&cfg, &base, None, 0, false);
        let mut next = base.clone();
        next[700] ^= 0xff; // dirties exactly one 256-byte chunk
        let delta_out = encode_entry(&cfg, &next, Some(&base_out.frame), 41, false);
        assert!(delta_out.delta);
        assert!(
            delta_out.frame.len() < base_out.frame.len() / 4,
            "one dirty chunk of sixteen must ship small: {} vs {}",
            delta_out.frame.len(),
            base_out.frame.len()
        );
        let hdr = parse_header(&delta_out.frame).unwrap();
        assert_eq!(hdr.ref_snap_id, 41);
        assert_eq!(hdr.chain_depth, 1);
        let base_logical = decode_frame(&base_out.frame, None).unwrap();
        let got = decode_frame(&delta_out.frame, Some(&base_logical)).unwrap();
        assert_eq!(&got[..], &next[..]);
    }

    #[test]
    fn clean_payload_produces_empty_delta() {
        let cfg = CodecConfig { chunk: 512, ..cfg_delta() };
        let data = vec![7u8; 8192];
        let base = encode_entry(&cfg, &data, None, 0, false);
        let delta = encode_entry(&cfg, &data, Some(&base.frame), 1, false);
        assert!(delta.delta);
        assert!(delta.frame.len() < 300, "no dirty chunks: manifest only");
        let got =
            decode_frame(&delta.frame, Some(&decode_frame(&base.frame, None).unwrap())).unwrap();
        assert_eq!(&got[..], &data[..]);
    }

    #[test]
    fn dirty_ratio_knob_forces_full_base() {
        let cfg = CodecConfig { chunk: 256, dirty_max: 0.25, ..cfg_delta() };
        let base: Vec<u8> = vec![1u8; 4096];
        let base_out = encode_entry(&cfg, &base, None, 0, false);
        // Dirty 8 of 16 chunks: over the 25% knob, must fall back to full.
        let mut next = base.clone();
        for c in 0..8 {
            next[c * 512] ^= 1;
        }
        let out = encode_entry(&cfg, &next, Some(&base_out.frame), 1, false);
        assert!(!out.delta, "over-dirty delta degrades to a full base");
        assert_eq!(&decode_frame(&out.frame, None).unwrap()[..], &next[..]);
    }

    #[test]
    fn chain_depth_is_bounded_by_full_every() {
        let cfg = CodecConfig { chunk: 256, full_every: 3, ..cfg_delta() };
        let data = vec![3u8; 1024];
        let f0 = encode_entry(&cfg, &data, None, 0, false);
        let f1 = encode_entry(&cfg, &data, Some(&f0.frame), 1, false);
        assert!(f1.delta, "depth 1 < full_every 3");
        let f2 = encode_entry(&cfg, &data, Some(&f1.frame), 2, false);
        assert!(f2.delta, "depth 2 < full_every 3");
        let f3 = encode_entry(&cfg, &data, Some(&f2.frame), 3, false);
        assert!(!f3.delta, "depth 3 would reach full_every: full base re-emitted");
    }

    #[test]
    fn geometry_mismatch_refuses_delta() {
        let cfg = CodecConfig { chunk: 256, ..cfg_delta() };
        let base = encode_entry(&cfg, &vec![1u8; 1024], None, 0, false);
        let grown = encode_entry(&cfg, &vec![1u8; 2048], Some(&base.frame), 1, false);
        assert!(!grown.delta, "resized payload must emit a full base");
    }

    #[test]
    fn decode_detects_corruption() {
        let cfg = cfg_delta();
        let payload: Vec<u8> = (0..5000u32).flat_map(|i| i.to_le_bytes()).collect();
        let out = encode_entry(&cfg, &payload, None, 0, false);
        let mut bad = out.frame.to_vec();
        let last = bad.len() - 1;
        bad[last] ^= 0x40;
        assert!(decode_frame(&bad, None).is_err(), "bit flip must not decode silently");
        let truncated = &out.frame[..out.frame.len() - 3];
        assert!(decode_frame(truncated, None).is_err());
        assert!(decode_frame(b"not a frame", None).is_err());
    }

    #[test]
    fn delta_without_base_is_an_error() {
        let cfg = CodecConfig { chunk: 256, ..cfg_delta() };
        let data = vec![9u8; 1024];
        let base = encode_entry(&cfg, &data, None, 0, false);
        let delta = encode_entry(&cfg, &data, Some(&base.frame), 7, false);
        assert!(delta.delta);
        assert!(decode_frame(&delta.frame, None).is_err());
        // A wrong base fails the digest check instead of returning garbage.
        let wrong = vec![8u8; 1024];
        assert!(decode_frame(&delta.frame, Some(&wrong)).is_err());
    }

    #[test]
    fn incompressible_chunks_are_stored_raw() {
        let cfg = cfg_delta();
        // xorshift noise: every byte plane is dense, RLE cannot win.
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        let payload: Vec<u8> = (0..8192)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x as u8
            })
            .collect();
        let out = encode_entry(&cfg, &payload, None, 0, false);
        // Wire = payload + frame overhead only (digest manifest + records).
        let overhead = out.frame.len() as i64 - payload.len() as i64;
        assert!(
            (0..1024).contains(&overhead),
            "noise must be stored raw with bounded overhead, got {overhead}"
        );
        assert_eq!(&decode_frame(&out.frame, None).unwrap()[..], &payload[..]);
    }

    #[test]
    fn quantize_bounds_error_and_rejects_opaque() {
        let values = [1.234567, -9.87654, 0.333333, f64::NAN, f64::INFINITY, -0.0];
        let payload = Bytes::from(f64_payload(&values));
        let tol = 1e-3;
        let q = quantize_payload(&payload, PayloadClass::F64Tail { offset: 8 }, tol).unwrap();
        assert_eq!(q.len(), payload.len());
        assert_eq!(&q[..8], &payload[..8], "length prefix untouched");
        for (i, w) in q[8..].chunks_exact(8).enumerate() {
            let got = f64::from_le_bytes(w.try_into().unwrap());
            let want = values[i];
            if want.is_finite() {
                assert!((got - want).abs() <= tol, "|{got} - {want}| > {tol}");
            } else {
                assert_eq!(got.to_bits(), want.to_bits(), "non-finite passes through");
            }
        }
        assert!(quantize_payload(&payload, PayloadClass::Opaque, tol).is_none());
        // Misaligned tail: refuse rather than corrupt.
        let odd = Bytes::from(vec![0u8; 13]);
        assert!(quantize_payload(&odd, PayloadClass::F64Tail { offset: 8 }, tol).is_none());
        // A lossy encode is flagged in the frame header and still decodes to
        // exactly the quantized payload (lossy-to-wire, lossless-from-wire).
        let out = encode_entry(&cfg_delta(), &q, None, 0, true);
        let header = parse_header(&out.frame).unwrap();
        assert!(header.is_lossy());
        assert_eq!(&decode_frame(&out.frame, None).unwrap()[..], &q[..]);
    }

    proptest! {
        // Adversarial payload roundtrip: NaN/±0/inf/denormal f64 soups of
        // every alignment, empty and 1-element included, at level 0 and 1,
        // full and delta — decode must be bit-identical.
        #[test]
        fn codec_roundtrip_bit_identity(
            specials in prop::collection::vec(0u8..8, 0..64),
            raw_tail in prop::collection::vec(any::<u8>(), 0..41),
            chunk_exp in 6u32..10,
            level in 0u8..2,
        ) {
            let mut payload: Vec<u8> = Vec::new();
            for s in &specials {
                let v: f64 = match s {
                    0 => f64::NAN,
                    1 => -0.0,
                    2 => 0.0,
                    3 => f64::INFINITY,
                    4 => f64::NEG_INFINITY,
                    5 => 5e-324,          // smallest positive denormal
                    6 => f64::MIN_POSITIVE,
                    _ => 1.0 + *s as f64,
                };
                payload.extend_from_slice(&v.to_le_bytes());
            }
            payload.extend_from_slice(&raw_tail);
            let cfg = CodecConfig {
                mode: CodecMode::Delta,
                level,
                chunk: 1usize << chunk_exp,
                ..CodecConfig::raw()
            };
            let full = encode_entry(&cfg, &payload, None, 0, false);
            let round = decode_frame(&full.frame, None).unwrap();
            prop_assert_eq!(&round[..], &payload[..]);
            // Mutate one byte (if any) and delta against the base.
            let mut next = payload.clone();
            if !next.is_empty() {
                let mid = next.len() / 2;
                next[mid] = next[mid].wrapping_add(1);
            }
            let second = encode_entry(&cfg, &next, Some(&full.frame), 9, false);
            let base = decode_frame(&full.frame, None).unwrap();
            let got = decode_frame(
                &second.frame,
                if second.delta { Some(&base[..]) } else { None },
            ).unwrap();
            prop_assert_eq!(&got[..], &next[..]);
        }
    }
}
