//! Live attack telemetry: a versioned, length-prefixed, replayable event
//! stream.
//!
//! The pipeline emits incremental **attack events** — a trace segment was
//! classified, a layer boundary was found, the candidate set narrowed, a
//! weight was recovered — onto a global hub. Sinks consume the encoded
//! stream either from a recorded `.evt` file (`--events-out`, replayed
//! with `cnnre-viz --replay FILE`) or live over the HTTP plane
//! (`--serve-obs`, `GET /events?follow=1`, or
//! `cnnre-viz --replay http://ADDR/events`). The same protocol doubles as
//! the job-status stream for a future attack service, so it is versioned
//! and forward-compatible from day one.
//!
//! # Wire format (version 1)
//!
//! ```text
//! stream  := MAGIC "CNNREEVT" (8 bytes) ++ VERSION (u8) ++ frame*
//! frame   := varint(body_len) ++ body
//! body    := tag (u8) ++ varint(seq) ++ varint(cycle) ++ fields…
//! varint  := LEB128 (7 bits per byte, low to high, high bit = continue)
//! string  := varint(byte_len) ++ UTF-8 bytes
//! ```
//!
//! `seq` is a process-wide monotone sequence number; `cycle` is the
//! simulated-cycle cursor at emission time (never wall-clock, so recorded
//! streams are byte-deterministic for seeded runs). Compatibility rules:
//!
//! * readers MUST skip frames with an unknown tag (the length prefix makes
//!   every frame skippable) — they decode as [`EventPayload::Unknown`];
//! * readers MUST ignore trailing bytes after the fields they know inside
//!   a frame body (minor revisions append fields);
//! * a major revision bumps [`VERSION`] and readers reject the stream.
//!
//! # Backpressure
//!
//! Emission never stalls the solver: the recording buffer is a bounded
//! ring with drop-newest overflow, and every live HTTP follow tap has a
//! bounded queue that its serving thread polls — a slow reader loses
//! events (counted in `events.dropped`), and no socket write ever runs on
//! the emitting thread.

use std::cell::Cell;
use std::collections::VecDeque;
use std::io::{self, Read};

use cnnre_model::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use cnnre_model::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};

/// First bytes of every event stream.
pub const MAGIC: &[u8; 8] = b"CNNREEVT";

/// Protocol major version. Bumped only for incompatible changes; additive
/// changes (new tags, appended fields) keep the version.
pub const VERSION: u8 = 1;

/// Capacity of the in-process recording buffer (frames). Overflow drops
/// the newest events and counts them in `events.dropped`.
pub const RECORD_CAPACITY: usize = 1 << 16;

/// Per-tap queue capacity (frames) for live HTTP follow readers. Overflow
/// drops the newest events for that tap only.
pub const CLIENT_QUEUE_CAPACITY: usize = 1024;

/// Upper bound a reader accepts for one frame body — a sanity cap against
/// corrupt length prefixes, far above any real event.
pub const MAX_FRAME_LEN: u64 = 1 << 20;

// ---------------------------------------------------------------------------
// Event model
// ---------------------------------------------------------------------------

/// How a trace segment was classified by the observation pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SegmentKind {
    /// Writes only — the host staging the input feature map.
    Prologue,
    /// A CONV/FC compute layer (reads weights).
    Compute,
    /// An element-wise merge (bypass join).
    Merge,
    /// Anything else (including codes from newer writers).
    Other,
}

impl SegmentKind {
    /// Wire code of this kind.
    #[must_use]
    pub const fn code(self) -> u8 {
        match self {
            SegmentKind::Prologue => 0,
            SegmentKind::Compute => 1,
            SegmentKind::Merge => 2,
            SegmentKind::Other => 3,
        }
    }

    /// Decodes a wire code; unknown codes map to [`SegmentKind::Other`].
    #[must_use]
    pub const fn from_code(code: u8) -> Self {
        match code {
            0 => SegmentKind::Prologue,
            1 => SegmentKind::Compute,
            2 => SegmentKind::Merge,
            _ => SegmentKind::Other,
        }
    }

    /// Human label, as rendered by `cnnre-viz`.
    #[must_use]
    pub const fn label(self) -> &'static str {
        match self {
            SegmentKind::Prologue => "prologue",
            SegmentKind::Compute => "compute",
            SegmentKind::Merge => "merge",
            SegmentKind::Other => "other",
        }
    }
}

/// Which adversary-observable signal produced a layer boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BoundarySignal {
    /// Read-after-write on a feature map produced by the current segment.
    Raw,
    /// First touch of a fresh read-only region after the segment wrote.
    FreshRegion,
}

impl BoundarySignal {
    /// Wire code of this signal.
    #[must_use]
    pub const fn code(self) -> u8 {
        match self {
            BoundarySignal::Raw => 0,
            BoundarySignal::FreshRegion => 1,
        }
    }

    /// Decodes a wire code; unknown codes map to
    /// [`BoundarySignal::FreshRegion`] (the weaker signal).
    #[must_use]
    pub const fn from_code(code: u8) -> Self {
        match code {
            0 => BoundarySignal::Raw,
            _ => BoundarySignal::FreshRegion,
        }
    }

    /// Human label, as rendered by `cnnre-viz`.
    #[must_use]
    pub const fn label(self) -> &'static str {
        match self {
            BoundarySignal::Raw => "raw",
            BoundarySignal::FreshRegion => "fresh_region",
        }
    }
}

/// One incremental attack event.
///
/// The variants map one-to-one onto wire tags (documented per variant);
/// every field is either a varint or a length-prefixed string, so adding a
/// trailing field is a compatible change.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EventPayload {
    /// Tag 0 — a pipeline phase began; resets the cycle cursor to 0.
    RunStarted {
        /// Phase label, e.g. `accel.run_trace_only` or `attack.structure`.
        label: String,
    },
    /// Tag 1 — a trace segment was classified by the observation pass.
    SegmentClassified {
        /// Segment index (0 is usually the prologue).
        index: u64,
        /// Classification.
        kind: SegmentKind,
        /// Cycle stamp of the segment's first event.
        start_cycle: u64,
        /// Cycle stamp of the segment's last event.
        end_cycle: u64,
        /// Distinct IFM blocks read (all sources).
        ifm_blocks: u64,
        /// Distinct OFM blocks written.
        ofm_blocks: u64,
        /// Distinct filter/weight blocks read.
        weight_blocks: u64,
    },
    /// Tag 2 — the segmenter found a layer boundary; the event's cycle is
    /// the boundary cycle (the first event of the next segment).
    LayerBoundary {
        /// 0-based boundary index (boundary `i` closes segment `i`).
        index: u64,
        /// The signal that produced the boundary.
        signal: BoundarySignal,
    },
    /// Tag 3 — the structure solver's candidate set narrowed.
    CandidatesNarrowed {
        /// Observed node index the progress is rooted at.
        layer: u64,
        /// Top-level candidates not yet explored.
        remaining: u64,
        /// Estimated recursion branches left (0 when unknown).
        eta_branches: u64,
        /// Enumeration progress in basis points (0..=10000).
        root_pct_bp: u64,
    },
    /// Tag 4 — chain assembly finished for one observed node.
    LayerChained {
        /// Observed node index.
        layer: u64,
        /// Distinct surviving candidates at this node.
        distinct: u64,
    },
    /// Tag 5 — the weight attack settled one weight, or gave up on it. A
    /// run has one frame per weight, filter after filter: each filter's
    /// settled weights in settle order, then the weights it gave up on.
    /// The event's cycle is `queries`.
    WeightRecovered {
        /// Input channel of the weight.
        channel: u64,
        /// Filter row.
        row: u64,
        /// Filter column.
        col: u64,
        /// The run's cumulative victim queries when the weight settled,
        /// or when its filter finished for a weight given up on.
        queries: u64,
    },
    /// Tag 6 — a defense perturbed the observable trace.
    DefenseObserved {
        /// Defense kind, e.g. `path_oram`.
        kind: String,
        /// Trace events before the defense.
        input_events: u64,
        /// Trace events after the defense.
        output_events: u64,
    },
    /// Tag 7 — one CONV layer of the final recovered structure
    /// (structure 0 of the surviving candidate set, in execution order).
    GraphConv {
        /// Compute-layer index within the recovered structure.
        layer: u64,
        /// Input feature-map width.
        w_ifm: u64,
        /// Input depth.
        d_ifm: u64,
        /// Output feature-map width.
        w_ofm: u64,
        /// Output depth (filter count).
        d_ofm: u64,
        /// Filter size.
        f_conv: u64,
        /// Stride.
        s_conv: u64,
        /// Padding.
        p_conv: u64,
        /// Fused pooling `(f, s, p)`, when present.
        pool: Option<(u64, u64, u64)>,
    },
    /// Tag 8 — one FC layer of the final recovered structure.
    GraphFc {
        /// Compute-layer index within the recovered structure.
        layer: u64,
        /// Input features.
        in_features: u64,
        /// Output features.
        out_features: u64,
    },
    /// Tag 9 — the attack phase finished.
    RunFinished {
        /// Surviving candidate structures (0 for non-solver phases).
        structures: u64,
    },
    /// Any tag this reader does not know — skipped, but kept in the
    /// decoded stream so sequence/cycle audits still see the frame.
    Unknown {
        /// The unrecognized wire tag.
        tag: u8,
    },
}

impl EventPayload {
    /// The wire tag of this payload.
    #[must_use]
    pub const fn tag(&self) -> u8 {
        match self {
            EventPayload::RunStarted { .. } => 0,
            EventPayload::SegmentClassified { .. } => 1,
            EventPayload::LayerBoundary { .. } => 2,
            EventPayload::CandidatesNarrowed { .. } => 3,
            EventPayload::LayerChained { .. } => 4,
            EventPayload::WeightRecovered { .. } => 5,
            EventPayload::DefenseObserved { .. } => 6,
            EventPayload::GraphConv { .. } => 7,
            EventPayload::GraphFc { .. } => 8,
            EventPayload::RunFinished { .. } => 9,
            EventPayload::Unknown { tag } => *tag,
        }
    }
}

/// One decoded stream event: payload plus the hub's stamps.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AttackEvent {
    /// Process-wide monotone sequence number.
    pub seq: u64,
    /// Simulated-cycle cursor at emission (domain resets at
    /// [`EventPayload::RunStarted`]).
    pub cycle: u64,
    /// The event itself.
    pub payload: EventPayload,
}

// ---------------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------------

fn put_varint(buf: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            buf.push(byte);
            return;
        }
        buf.push(byte | 0x80);
    }
}

fn put_string(buf: &mut Vec<u8>, s: &str) {
    put_varint(buf, s.len() as u64);
    buf.extend_from_slice(s.as_bytes());
}

/// The 9-byte stream header (magic + version).
#[must_use]
pub fn header() -> Vec<u8> {
    let mut out = Vec::with_capacity(MAGIC.len() + 1);
    out.extend_from_slice(MAGIC);
    out.push(VERSION);
    out
}

/// Encodes one event as a complete frame (length prefix included).
#[must_use]
pub fn encode_frame(ev: &AttackEvent) -> Vec<u8> {
    let mut body = Vec::with_capacity(48);
    body.push(ev.payload.tag());
    put_varint(&mut body, ev.seq);
    put_varint(&mut body, ev.cycle);
    match &ev.payload {
        EventPayload::RunStarted { label } => put_string(&mut body, label),
        EventPayload::SegmentClassified {
            index,
            kind,
            start_cycle,
            end_cycle,
            ifm_blocks,
            ofm_blocks,
            weight_blocks,
        } => {
            put_varint(&mut body, *index);
            body.push(kind.code());
            for v in [
                start_cycle,
                end_cycle,
                ifm_blocks,
                ofm_blocks,
                weight_blocks,
            ] {
                put_varint(&mut body, *v);
            }
        }
        EventPayload::LayerBoundary { index, signal } => {
            put_varint(&mut body, *index);
            body.push(signal.code());
        }
        EventPayload::CandidatesNarrowed {
            layer,
            remaining,
            eta_branches,
            root_pct_bp,
        } => {
            for v in [layer, remaining, eta_branches, root_pct_bp] {
                put_varint(&mut body, *v);
            }
        }
        EventPayload::LayerChained { layer, distinct } => {
            put_varint(&mut body, *layer);
            put_varint(&mut body, *distinct);
        }
        EventPayload::WeightRecovered {
            channel,
            row,
            col,
            queries,
        } => {
            for v in [channel, row, col, queries] {
                put_varint(&mut body, *v);
            }
        }
        EventPayload::DefenseObserved {
            kind,
            input_events,
            output_events,
        } => {
            put_string(&mut body, kind);
            put_varint(&mut body, *input_events);
            put_varint(&mut body, *output_events);
        }
        EventPayload::GraphConv {
            layer,
            w_ifm,
            d_ifm,
            w_ofm,
            d_ofm,
            f_conv,
            s_conv,
            p_conv,
            pool,
        } => {
            for v in [layer, w_ifm, d_ifm, w_ofm, d_ofm, f_conv, s_conv, p_conv] {
                put_varint(&mut body, *v);
            }
            match pool {
                None => body.push(0),
                Some((f, s, p)) => {
                    body.push(1);
                    for v in [f, s, p] {
                        put_varint(&mut body, *v);
                    }
                }
            }
        }
        EventPayload::GraphFc {
            layer,
            in_features,
            out_features,
        } => {
            for v in [layer, in_features, out_features] {
                put_varint(&mut body, *v);
            }
        }
        EventPayload::RunFinished { structures } => put_varint(&mut body, *structures),
        EventPayload::Unknown { .. } => {}
    }
    let mut frame = Vec::with_capacity(body.len() + 3);
    put_varint(&mut frame, body.len() as u64);
    frame.extend_from_slice(&body);
    frame
}

// ---------------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------------

/// Why a stream failed to decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StreamError {
    /// The stream does not start with [`MAGIC`].
    BadMagic,
    /// The stream's major version is not [`VERSION`].
    UnsupportedVersion(u8),
    /// A frame body ended before its declared fields.
    Truncated,
    /// A varint ran past 10 bytes (not a valid u64).
    VarintOverflow,
    /// A string field was not valid UTF-8.
    BadUtf8,
    /// A frame's declared length exceeds [`MAX_FRAME_LEN`].
    FrameTooLarge(u64),
    /// The underlying reader failed.
    Io(io::ErrorKind),
}

impl core::fmt::Display for StreamError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            StreamError::BadMagic => write!(f, "not an event stream (bad magic)"),
            StreamError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "unsupported event-stream version {v} (reader speaks {VERSION})"
                )
            }
            StreamError::Truncated => write!(f, "truncated event frame"),
            StreamError::VarintOverflow => write!(f, "varint exceeds 64 bits"),
            StreamError::BadUtf8 => write!(f, "string field is not valid UTF-8"),
            StreamError::FrameTooLarge(n) => write!(f, "frame of {n} bytes exceeds the sanity cap"),
            StreamError::Io(kind) => write!(f, "read error: {kind}"),
        }
    }
}

impl std::error::Error for StreamError {}

impl From<io::Error> for StreamError {
    fn from(e: io::Error) -> Self {
        StreamError::Io(e.kind())
    }
}

struct SliceCursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> SliceCursor<'a> {
    fn take_u8(&mut self) -> Result<u8, StreamError> {
        let b = *self.buf.get(self.pos).ok_or(StreamError::Truncated)?;
        self.pos += 1;
        Ok(b)
    }

    fn take_varint(&mut self) -> Result<u64, StreamError> {
        let mut out = 0u64;
        for shift in 0..10 {
            let byte = self.take_u8()?;
            let low = u64::from(byte & 0x7f);
            if shift == 9 && byte > 1 {
                return Err(StreamError::VarintOverflow);
            }
            out |= low << (shift * 7);
            if byte & 0x80 == 0 {
                return Ok(out);
            }
        }
        Err(StreamError::VarintOverflow)
    }

    fn take_string(&mut self) -> Result<String, StreamError> {
        let len = self.take_varint()? as usize;
        let end = self.pos.checked_add(len).ok_or(StreamError::Truncated)?;
        let bytes = self.buf.get(self.pos..end).ok_or(StreamError::Truncated)?;
        self.pos = end;
        String::from_utf8(bytes.to_vec()).map_err(|_| StreamError::BadUtf8)
    }
}

/// Decodes one frame *body* (everything after the length prefix).
///
/// Trailing bytes after the recognized fields are ignored (a newer minor
/// revision may have appended fields); unknown tags decode as
/// [`EventPayload::Unknown`].
///
/// # Errors
///
/// Returns [`StreamError`] when the body ends before its declared fields
/// or contains malformed varint/UTF-8 data.
pub fn decode_frame_body(body: &[u8]) -> Result<AttackEvent, StreamError> {
    let mut c = SliceCursor { buf: body, pos: 0 };
    let tag = c.take_u8()?;
    let seq = c.take_varint()?;
    let cycle = c.take_varint()?;
    let payload = match tag {
        0 => EventPayload::RunStarted {
            label: c.take_string()?,
        },
        1 => {
            let index = c.take_varint()?;
            let kind = SegmentKind::from_code(c.take_u8()?);
            let mut v = [0u64; 5];
            for slot in &mut v {
                *slot = c.take_varint()?;
            }
            EventPayload::SegmentClassified {
                index,
                kind,
                start_cycle: v[0],
                end_cycle: v[1],
                ifm_blocks: v[2],
                ofm_blocks: v[3],
                weight_blocks: v[4],
            }
        }
        2 => EventPayload::LayerBoundary {
            index: c.take_varint()?,
            signal: BoundarySignal::from_code(c.take_u8()?),
        },
        3 => EventPayload::CandidatesNarrowed {
            layer: c.take_varint()?,
            remaining: c.take_varint()?,
            eta_branches: c.take_varint()?,
            root_pct_bp: c.take_varint()?,
        },
        4 => EventPayload::LayerChained {
            layer: c.take_varint()?,
            distinct: c.take_varint()?,
        },
        5 => EventPayload::WeightRecovered {
            channel: c.take_varint()?,
            row: c.take_varint()?,
            col: c.take_varint()?,
            queries: c.take_varint()?,
        },
        6 => EventPayload::DefenseObserved {
            kind: c.take_string()?,
            input_events: c.take_varint()?,
            output_events: c.take_varint()?,
        },
        7 => {
            let mut v = [0u64; 8];
            for slot in &mut v {
                *slot = c.take_varint()?;
            }
            let pool = if c.take_u8()? == 0 {
                None
            } else {
                Some((c.take_varint()?, c.take_varint()?, c.take_varint()?))
            };
            EventPayload::GraphConv {
                layer: v[0],
                w_ifm: v[1],
                d_ifm: v[2],
                w_ofm: v[3],
                d_ofm: v[4],
                f_conv: v[5],
                s_conv: v[6],
                p_conv: v[7],
                pool,
            }
        }
        8 => EventPayload::GraphFc {
            layer: c.take_varint()?,
            in_features: c.take_varint()?,
            out_features: c.take_varint()?,
        },
        9 => EventPayload::RunFinished {
            structures: c.take_varint()?,
        },
        other => EventPayload::Unknown { tag: other },
    };
    Ok(AttackEvent {
        seq,
        cycle,
        payload,
    })
}

/// Incremental frame reader over any [`Read`] — a recorded `.evt` file or
/// an HTTP response body.
pub struct EventReader<R> {
    inner: R,
    header_read: bool,
}

impl<R: Read> EventReader<R> {
    /// Wraps a byte source positioned at the start of the stream.
    pub fn new(inner: R) -> Self {
        Self {
            inner,
            header_read: false,
        }
    }

    fn read_header(&mut self) -> Result<(), StreamError> {
        let mut head = [0u8; 9];
        self.inner.read_exact(&mut head)?;
        if &head[..8] != MAGIC {
            return Err(StreamError::BadMagic);
        }
        if head[8] != VERSION {
            return Err(StreamError::UnsupportedVersion(head[8]));
        }
        self.header_read = true;
        Ok(())
    }

    /// Reads a wire varint byte-by-byte. `Ok(None)` on clean EOF at the
    /// first byte.
    fn read_varint(&mut self) -> Result<Option<u64>, StreamError> {
        let mut out = 0u64;
        for shift in 0..10 {
            let mut byte = [0u8; 1];
            match self.inner.read(&mut byte) {
                Ok(0) if shift == 0 => return Ok(None),
                Ok(0) => return Err(StreamError::Truncated),
                Ok(_) => {}
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {
                    // retry the same byte
                    let mut again = [0u8; 1];
                    self.inner.read_exact(&mut again)?;
                    byte = again;
                }
                Err(e) => return Err(e.into()),
            }
            let b = byte[0];
            if shift == 9 && b > 1 {
                return Err(StreamError::VarintOverflow);
            }
            out |= u64::from(b & 0x7f) << (shift * 7);
            if b & 0x80 == 0 {
                return Ok(Some(out));
            }
        }
        Err(StreamError::VarintOverflow)
    }

    /// Reads the next event; `Ok(None)` at a clean end of stream.
    ///
    /// # Errors
    ///
    /// Returns [`StreamError`] on a malformed header/frame or an I/O
    /// failure.
    pub fn next_event(&mut self) -> Result<Option<AttackEvent>, StreamError> {
        if !self.header_read {
            self.read_header()?;
        }
        let Some(len) = self.read_varint()? else {
            return Ok(None);
        };
        if len > MAX_FRAME_LEN {
            return Err(StreamError::FrameTooLarge(len));
        }
        let mut body = vec![0u8; len as usize];
        self.inner
            .read_exact(&mut body)
            .map_err(|e| match e.kind() {
                io::ErrorKind::UnexpectedEof => StreamError::Truncated,
                kind => StreamError::Io(kind),
            })?;
        decode_frame_body(&body).map(Some)
    }
}

/// Decodes a whole stream (header + frames) into events.
///
/// # Errors
///
/// Returns [`StreamError`] on a malformed header or frame.
pub fn read_stream<R: Read>(r: R) -> Result<Vec<AttackEvent>, StreamError> {
    let mut reader = EventReader::new(r);
    let mut out = Vec::new();
    while let Some(ev) = reader.next_event()? {
        out.push(ev);
    }
    Ok(out)
}

// ---------------------------------------------------------------------------
// The global hub
// ---------------------------------------------------------------------------

static STREAMING: AtomicBool = AtomicBool::new(false);

thread_local! {
    static SUPPRESS: Cell<u32> = const { Cell::new(0) };
}

/// RAII guard from [`suppress`]: emissions on this thread are dropped
/// while it lives.
pub struct SuppressGuard {
    _priv: (),
}

impl Drop for SuppressGuard {
    fn drop(&mut self) {
        SUPPRESS.with(|s| s.set(s.get().saturating_sub(1)));
    }
}

/// Suppresses event emission on the current thread until the returned
/// guard is dropped. Used by sanitizer hooks (the `audit-hooks` re-runs of
/// segmentation) and the weight attack's per-query victim-engine runs,
/// whose events would duplicate or pollute the attack's own stream.
#[must_use]
pub fn suppress() -> SuppressGuard {
    SUPPRESS.with(|s| s.set(s.get() + 1));
    SuppressGuard { _priv: () }
}

/// One live tap's bounded frame queue, shared between the hub and the
/// [`LiveTap`] that drains it.
type TapQueue = Arc<Mutex<VecDeque<Vec<u8>>>>;

struct Hub {
    seq: AtomicU64,
    cycle: AtomicU64,
    recording: AtomicBool,
    dropped: AtomicU64,
    buffer: Mutex<VecDeque<Vec<u8>>>,
    taps: Mutex<Vec<TapQueue>>,
}

fn hub() -> &'static Hub {
    static HUB: OnceLock<Hub> = OnceLock::new();
    HUB.get_or_init(|| Hub {
        seq: AtomicU64::new(0),
        cycle: AtomicU64::new(0),
        recording: AtomicBool::new(false),
        dropped: AtomicU64::new(0),
        buffer: Mutex::new(VecDeque::new()),
        taps: Mutex::new(Vec::new()),
    })
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Turns the event stream on or off. Off (the default) makes every
/// emission a single relaxed atomic load.
pub fn set_enabled(on: bool) {
    STREAMING.store(on, Ordering::Relaxed);
}

/// Whether event streaming is currently enabled.
#[inline]
#[must_use]
pub fn enabled() -> bool {
    STREAMING.load(Ordering::Relaxed)
}

fn active() -> bool {
    enabled() && SUPPRESS.with(|s| s.get() == 0)
}

/// Starts (or restarts) the cycle domain and emits
/// [`EventPayload::RunStarted`]. Call at the top of each pipeline phase.
pub fn start_run(label: &str) {
    if !active() {
        return;
    }
    hub().cycle.store(0, Ordering::Relaxed);
    emit_event(
        0,
        EventPayload::RunStarted {
            label: label.to_string(),
        },
    );
}

/// Advances the monotone cycle cursor to at least `cycle`.
pub fn advance_cycle(cycle: u64) {
    if enabled() {
        hub().cycle.fetch_max(cycle, Ordering::Relaxed);
    }
}

/// Emits an event at the current cycle cursor.
pub fn emit(payload: EventPayload) {
    if active() {
        emit_event(hub().cycle.load(Ordering::Relaxed), payload);
    }
}

/// Emits an event at `max(cursor, cycle)` and advances the cursor — the
/// cursor never moves backwards, so recorded streams stay monotone within
/// a run even if an emitter passes a stale cycle.
pub fn emit_at(cycle: u64, payload: EventPayload) {
    if active() {
        let prev = hub().cycle.fetch_max(cycle, Ordering::Relaxed);
        emit_event(prev.max(cycle), payload);
    }
}

fn emit_event(cycle: u64, payload: EventPayload) {
    let h = hub();
    let seq = h.seq.fetch_add(1, Ordering::Relaxed);
    let frame = encode_frame(&AttackEvent {
        seq,
        cycle,
        payload,
    });
    crate::counter("events.emitted").inc();
    crate::counter("events.bytes").add(frame.len() as u64);
    // lint:allow(cr-relaxed-control): recording toggle — a stale read can
    // only include/skip one frame at the toggle boundary, which set_record
    // callers cannot observe anyway
    if h.recording.load(Ordering::Relaxed) {
        let mut buf = lock(&h.buffer);
        if buf.len() < RECORD_CAPACITY {
            buf.push_back(frame.clone());
        } else {
            h.dropped.fetch_add(1, Ordering::Relaxed);
            crate::counter("events.dropped").inc();
        }
    }
    for tap in lock(&h.taps).iter() {
        // lint:allow(cr-lock-order): order is `taps` → tap queue; LiveTap
        // takes only one of the two at a time, so nothing nests in reverse
        let mut queue = lock(tap);
        if queue.len() < CLIENT_QUEUE_CAPACITY {
            queue.push_back(frame.clone());
        } else {
            h.dropped.fetch_add(1, Ordering::Relaxed);
            crate::counter("events.dropped").inc();
        }
    }
}

/// Turns in-process recording (for `--events-out`) on or off.
pub fn set_record(on: bool) {
    hub().recording.store(on, Ordering::Relaxed);
}

/// Events dropped so far by backpressure (recording overflow or a slow
/// tap), process-wide.
#[must_use]
pub fn dropped() -> u64 {
    hub().dropped.load(Ordering::Relaxed)
}

/// A complete stream (header + every recorded frame) cloned from the
/// recording buffer **without draining**: the `--events-out` file, the
/// HTTP `/events` replay and the `/progress` fold all read this one view,
/// so a held server still serves what the file got.
#[must_use]
pub fn recorded_stream_snapshot() -> Vec<u8> {
    let buf = lock(&hub().buffer);
    let mut out = header();
    for f in buf.iter() {
        out.extend_from_slice(f);
    }
    out
}

/// A live tap on the hub for the HTTP `/events?follow=1` bridge: frames
/// emitted after attach land in a bounded per-tap queue, drained by
/// [`LiveTap::take_queued`] from the serving thread. Dropping the tap
/// detaches it and immediately updates `events.clients`.
pub(crate) struct LiveTap {
    queue: TapQueue,
}

impl LiveTap {
    /// Registers a new tap on the hub.
    pub(crate) fn attach() -> Self {
        let queue: TapQueue = Arc::new(Mutex::new(VecDeque::with_capacity(64)));
        let mut taps = lock(&hub().taps);
        taps.push(Arc::clone(&queue));
        crate::gauge("events.clients").set(taps.len() as f64);
        LiveTap { queue }
    }

    /// Drains every frame currently queued, without blocking.
    pub(crate) fn take_queued(&self) -> Vec<Vec<u8>> {
        lock(&self.queue).drain(..).collect()
    }
}

impl Drop for LiveTap {
    fn drop(&mut self) {
        let mut taps = lock(&hub().taps);
        taps.retain(|q| !Arc::ptr_eq(q, &self.queue));
        crate::gauge("events.clients").set(taps.len() as f64);
    }
}

/// Resets the hub: sequence and cycle counters to 0, recording buffer and
/// drop counter cleared, all live taps detached. Tests and golden
/// recorders call this for deterministic streams.
pub fn reset() {
    let h = hub();
    h.seq.store(0, Ordering::Relaxed);
    h.cycle.store(0, Ordering::Relaxed);
    h.dropped.store(0, Ordering::Relaxed);
    lock(&h.buffer).clear();
    lock(&h.taps).clear();
    crate::gauge("events.clients").set(0.0);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(payload: EventPayload) -> AttackEvent {
        let ev = AttackEvent {
            seq: 7,
            cycle: 1234,
            payload,
        };
        let frame = encode_frame(&ev);
        let mut c = SliceCursor {
            buf: &frame,
            pos: 0,
        };
        let len = c.take_varint().unwrap() as usize;
        assert_eq!(frame.len(), c.pos + len);
        decode_frame_body(&frame[c.pos..]).unwrap()
    }

    #[test]
    fn varint_roundtrip_edges() {
        for v in [0u64, 1, 127, 128, 300, u64::from(u32::MAX), u64::MAX] {
            let mut buf = Vec::new();
            put_varint(&mut buf, v);
            let mut c = SliceCursor { buf: &buf, pos: 0 };
            assert_eq!(c.take_varint().unwrap(), v);
            assert_eq!(c.pos, buf.len());
        }
    }

    #[test]
    fn varint_overflow_rejected() {
        let buf = [0xffu8; 11];
        let mut c = SliceCursor { buf: &buf, pos: 0 };
        assert_eq!(c.take_varint(), Err(StreamError::VarintOverflow));
    }

    #[test]
    fn every_payload_roundtrips() {
        let payloads = vec![
            EventPayload::RunStarted {
                label: "attack.structure".to_string(),
            },
            EventPayload::SegmentClassified {
                index: 3,
                kind: SegmentKind::Compute,
                start_cycle: 10,
                end_cycle: 900,
                ifm_blocks: 64,
                ofm_blocks: 74,
                weight_blocks: 10,
            },
            EventPayload::LayerBoundary {
                index: 2,
                signal: BoundarySignal::FreshRegion,
            },
            EventPayload::CandidatesNarrowed {
                layer: 1,
                remaining: 42,
                eta_branches: 9000,
                root_pct_bp: 2500,
            },
            EventPayload::LayerChained {
                layer: 4,
                distinct: 16,
            },
            EventPayload::WeightRecovered {
                channel: 0,
                row: 4,
                col: 4,
                queries: 137,
            },
            EventPayload::DefenseObserved {
                kind: "path_oram".to_string(),
                input_events: 100,
                output_events: 8800,
            },
            EventPayload::GraphConv {
                layer: 0,
                w_ifm: 32,
                d_ifm: 1,
                w_ofm: 14,
                d_ofm: 6,
                f_conv: 5,
                s_conv: 1,
                p_conv: 0,
                pool: Some((2, 2, 0)),
            },
            EventPayload::GraphConv {
                layer: 1,
                w_ifm: 14,
                d_ifm: 6,
                w_ofm: 10,
                d_ofm: 16,
                f_conv: 5,
                s_conv: 1,
                p_conv: 0,
                pool: None,
            },
            EventPayload::GraphFc {
                layer: 2,
                in_features: 400,
                out_features: 120,
            },
            EventPayload::RunFinished { structures: 16 },
        ];
        for p in payloads {
            let decoded = roundtrip(p.clone());
            assert_eq!(decoded.seq, 7);
            assert_eq!(decoded.cycle, 1234);
            assert_eq!(decoded.payload, p);
        }
    }

    #[test]
    fn unknown_tags_and_trailing_bytes_are_tolerated() {
        // Unknown tag: decodes as Unknown, stamps preserved.
        let body = {
            let mut b = vec![250u8];
            put_varint(&mut b, 11);
            put_varint(&mut b, 22);
            b.extend_from_slice(b"future fields");
            b
        };
        let ev = decode_frame_body(&body).unwrap();
        assert_eq!(ev.seq, 11);
        assert_eq!(ev.cycle, 22);
        assert_eq!(ev.payload, EventPayload::Unknown { tag: 250 });
        // Known tag with appended (future) fields: extras ignored.
        let ev = AttackEvent {
            seq: 1,
            cycle: 2,
            payload: EventPayload::RunFinished { structures: 3 },
        };
        let frame = encode_frame(&ev);
        let mut c = SliceCursor {
            buf: &frame,
            pos: 0,
        };
        let len = c.take_varint().unwrap() as usize;
        let mut body = frame[c.pos..c.pos + len].to_vec();
        body.extend_from_slice(&[9, 9, 9]);
        assert_eq!(decode_frame_body(&body).unwrap(), ev);
    }

    #[test]
    fn truncated_bodies_error() {
        let ev = AttackEvent {
            seq: 5,
            cycle: 6,
            payload: EventPayload::GraphFc {
                layer: 1,
                in_features: 400,
                out_features: 120,
            },
        };
        let frame = encode_frame(&ev);
        let mut c = SliceCursor {
            buf: &frame,
            pos: 0,
        };
        let len = c.take_varint().unwrap() as usize;
        let body = &frame[c.pos..c.pos + len];
        for cut in 0..body.len() {
            assert!(
                decode_frame_body(&body[..cut]).is_err(),
                "cut at {cut} must error"
            );
        }
    }

    #[test]
    fn header_is_validated() {
        assert_eq!(
            read_stream(&b"NOTEVENT\x01"[..]),
            Err(StreamError::BadMagic)
        );
        let mut bad_version = header();
        bad_version[8] = 99;
        assert_eq!(
            read_stream(bad_version.as_slice()),
            Err(StreamError::UnsupportedVersion(99))
        );
        assert_eq!(read_stream(header().as_slice()).unwrap(), vec![]);
    }

    #[test]
    fn hub_records_a_replayable_monotone_stream() {
        let _guard = crate::test_lock();
        crate::set_enabled(true);
        set_enabled(true);
        set_record(true);
        reset();
        start_run("attack.structure");
        emit_at(
            100,
            EventPayload::LayerBoundary {
                index: 0,
                signal: BoundarySignal::Raw,
            },
        );
        // A stale cycle must not move the cursor backwards.
        emit_at(
            40,
            EventPayload::LayerBoundary {
                index: 1,
                signal: BoundarySignal::Raw,
            },
        );
        advance_cycle(500);
        emit(EventPayload::RunFinished { structures: 2 });
        let bytes = recorded_stream_snapshot();
        set_record(false);
        reset();
        set_enabled(false);
        crate::set_enabled(false);
        crate::global().reset();
        let events = read_stream(bytes.as_slice()).unwrap();
        assert_eq!(events.len(), 4);
        let seqs: Vec<u64> = events.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![0, 1, 2, 3]);
        let cycles: Vec<u64> = events.iter().map(|e| e.cycle).collect();
        assert_eq!(cycles, vec![0, 100, 100, 500]);
        assert!(matches!(
            events[0].payload,
            EventPayload::RunStarted { ref label } if label == "attack.structure"
        ));
    }

    #[test]
    fn suppress_guard_drops_emissions() {
        let _guard = crate::test_lock();
        crate::set_enabled(true);
        set_enabled(true);
        set_record(true);
        reset();
        {
            let _s = suppress();
            emit(EventPayload::RunFinished { structures: 1 });
        }
        emit(EventPayload::RunFinished { structures: 2 });
        let events = read_stream(recorded_stream_snapshot().as_slice()).unwrap();
        set_record(false);
        reset();
        set_enabled(false);
        crate::set_enabled(false);
        crate::global().reset();
        assert_eq!(events.len(), 1);
        assert_eq!(
            events[0].payload,
            EventPayload::RunFinished { structures: 2 }
        );
    }

    #[test]
    fn slow_client_drops_newest_without_blocking() {
        let _guard = crate::test_lock();
        crate::set_enabled(true);
        set_enabled(true);
        reset();
        // A tap that is never drained models a stalled reader: its queue
        // fills to capacity and every further event is dropped.
        let tap = LiveTap::attach();
        let before = dropped();
        for i in 0..(CLIENT_QUEUE_CAPACITY + 100) {
            emit(EventPayload::RunFinished {
                structures: i as u64,
            });
        }
        assert_eq!(tap.take_queued().len(), CLIENT_QUEUE_CAPACITY);
        assert_eq!(dropped() - before, 100);
        drop(tap);
        reset();
        set_enabled(false);
        crate::set_enabled(false);
        crate::global().reset();
    }

    #[test]
    fn reset_zeroes_the_clients_gauge() {
        let _guard = crate::test_lock();
        crate::set_enabled(true);
        set_enabled(true);
        reset();
        let tap = LiveTap::attach();
        assert_eq!(crate::global().snapshot().get("events.clients"), Some(1.0));
        reset();
        assert_eq!(crate::global().snapshot().get("events.clients"), Some(0.0));
        emit(EventPayload::RunFinished { structures: 1 });
        assert!(tap.take_queued().is_empty(), "reset detaches the tap");
        drop(tap);
        assert_eq!(crate::global().snapshot().get("events.clients"), Some(0.0));
        set_enabled(false);
        crate::set_enabled(false);
        crate::global().reset();
    }

    #[test]
    fn recorded_snapshot_does_not_drain() {
        let _guard = crate::test_lock();
        crate::set_enabled(true);
        set_enabled(true);
        reset();
        set_record(true);
        start_run("attack.snapshot_test");
        emit(EventPayload::RunFinished { structures: 1 });
        let a = recorded_stream_snapshot();
        let b = recorded_stream_snapshot();
        assert_eq!(a, b, "snapshotting must not drain the buffer");
        let events = read_stream(&a[..]).expect("snapshot is a valid stream");
        assert_eq!(events.len(), 2);
        set_record(false);
        set_enabled(false);
        crate::set_enabled(false);
        crate::global().reset();
        reset();
    }

    #[test]
    fn live_tap_receives_frames_and_detaches() {
        let _guard = crate::test_lock();
        crate::set_enabled(true);
        set_enabled(true);
        reset();
        let tap = LiveTap::attach();
        assert_eq!(crate::global().snapshot().get("events.clients"), Some(1.0));
        emit(EventPayload::RunFinished { structures: 7 });
        let frames = tap.take_queued();
        assert_eq!(frames.len(), 1);
        assert!(tap.take_queued().is_empty(), "take_queued drains");
        drop(tap);
        assert_eq!(
            crate::global().snapshot().get("events.clients"),
            Some(0.0),
            "detach updates the gauge immediately"
        );
        set_enabled(false);
        crate::set_enabled(false);
        crate::global().reset();
        reset();
    }
}
