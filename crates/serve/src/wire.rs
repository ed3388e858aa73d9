//! The length-prefixed binary wire protocol.
//!
//! A frame on the wire is `[u32 LE body length][u8 tag][payload]`; the
//! transport layer (see [`crate::transport`]) owns the length prefix,
//! this module encodes and decodes the body (tag + payload). All
//! integers are little-endian. Client→server bodies carry
//! [`ScriptStep`]-equivalent events — encoded as their script *line*
//! text, so the wire reuses the exact parser and printer that
//! `runapp --script` and the fuzzer already trust — and server→client
//! bodies ship full keyframes, or updates that carry the change against
//! the frame the client already holds as one XOR rect.
//!
//! Every decode path is bounds-checked and capped; malformed, truncated,
//! or hostile input returns [`WireError`], never panics (the proptests
//! in `tests/wire_props.rs` fire random and corrupted buffers at both
//! decoders to hold that line).

use std::sync::Arc;

use atk_core::{EventScript, ScriptStep};
use atk_graphics::{Framebuffer, Rect};

/// Hard cap on one frame body, enforced by both transports and the
/// decoders (a 4096×4096 keyframe is ~64 MiB; nothing legitimate is
/// bigger).
pub const MAX_FRAME_BYTES: usize = 1 << 26;
/// Cap on strings carried in frames (scene names, reasons, script lines).
pub const MAX_STRING_BYTES: usize = 4096;
/// Cap on the stats-snapshot strings in a [`ServerFrame::Stats`] reply
/// (a merged many-session snapshot is far bigger than a script line,
/// but nothing legitimate approaches 4 MiB).
pub const MAX_STATS_BYTES: usize = 1 << 22;
/// Cap on either framebuffer dimension.
pub const MAX_DIM: u32 = 16384;

/// [`ServerFrame::Bye`] reason for an orderly client goodbye.
pub const BYE_BYE: &str = "bye";
/// [`ServerFrame::Bye`] reason for idle eviction on the virtual clock.
pub const BYE_IDLE: &str = "idle";
/// [`ServerFrame::Bye`] reason when the application closed its window.
pub const BYE_CLOSED: &str = "closed";
/// [`ServerFrame::Bye`] reason when the session's shard drained: the
/// session closed cleanly (every acked frame already shipped) and the
/// client is welcome to reconnect — another shard will take it.
pub const BYE_DRAIN: &str = "drain";

/// A decoding failure. The variants matter less than the guarantee:
/// decoding arbitrary bytes returns one of these instead of panicking.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The buffer ended before the frame did.
    Truncated,
    /// Unknown frame tag.
    BadTag(u8),
    /// A string field was not UTF-8 or exceeded [`MAX_STRING_BYTES`].
    BadString,
    /// A step line failed to parse, or encoded to nothing.
    BadStep(String),
    /// A count or dimension exceeded its cap.
    TooLarge,
    /// The frame decoded but left unread payload bytes.
    TrailingBytes,
    /// An update's rect does not lie inside the frame it applies to
    /// (no frame yet counts as a 0×0 one).
    OutsideFrame,
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated => write!(f, "truncated frame"),
            WireError::BadTag(t) => write!(f, "unknown frame tag {t:#04x}"),
            WireError::BadString => write!(f, "bad string field"),
            WireError::BadStep(e) => write!(f, "bad step: {e}"),
            WireError::TooLarge => write!(f, "field exceeds protocol cap"),
            WireError::TrailingBytes => write!(f, "trailing bytes after frame"),
            WireError::OutsideFrame => write!(f, "update rect outside the frame"),
        }
    }
}

impl std::error::Error for WireError {}

/// The change an update carries: one rect of the new frame XORed with
/// the frame the client holds, as a row-delta + RLE block (the layout
/// of a packed keyframe's pixels), so unchanged pixels only lengthen
/// zero runs. Built only by [`XorRect::encode`] or by a decode that
/// checked its runs cover the rect exactly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct XorRect {
    rect: Rect,
    /// `[u32 npairs][npairs × (u32 count, u32 value)]`, as on the wire.
    block: Vec<u8>,
}

/// Bytes of an update frame before its rect: tag, `seq`, rect count.
const UPDATE_HEADER_BYTES: usize = 1 + 8 + 4;
/// Bytes of a rect header: x, y, width, height.
const RECT_HEADER_BYTES: usize = 16;

impl XorRect {
    /// Encodes `cur` XOR `base` over `rect` and brings `base` up to
    /// `cur` there, in one pass: each row is XORed against the
    /// baseline, run-length coded against the XOR row above, and
    /// copied into the baseline. Every pixel of `rect` is coded, so it
    /// should be the bounds of what changed
    /// ([`Framebuffer::diff_bounds_within`]). Reads and writes row by
    /// row, so a baseline band another frame shares is copied once,
    /// when the walk reaches it. Returns `None`, with `base` partly
    /// brought along, once the update frame would pass `limit` bytes.
    ///
    /// # Panics
    ///
    /// Panics if the frames differ in size or `rect` is empty or not
    /// inside them.
    pub fn encode(
        base: &mut Framebuffer,
        cur: &Framebuffer,
        rect: Rect,
        limit: usize,
    ) -> Option<XorRect> {
        assert!(
            base.bounds() == cur.bounds() && !rect.is_empty() && cur.bounds().contains_rect(rect),
            "update rect {rect:?} outside the frames"
        );
        let (x0, x1) = (rect.x as usize, rect.right() as usize);
        let limit = limit.checked_sub(UPDATE_HEADER_BYTES + RECT_HEADER_BYTES)?;
        let mut block = Vec::new();
        let mut runs = Runs::new(&mut block);
        // This row's XOR and the row above's.
        let (mut xor, mut above) = (vec![0u32; x1 - x0], vec![0u32; x1 - x0]);
        for (y, old) in (rect.y..).zip(base.rows_mut(rect.y..rect.bottom())) {
            let (new, old) = (&cur.row(y)[x0..x1], &mut old[x0..x1]);
            xor.iter_mut()
                .zip(new.iter().zip(old.iter()))
                .for_each(|(x, (n, o))| *x = n ^ o);
            if y == rect.y {
                push_raw_runs(&mut runs, &xor);
            } else {
                push_delta_runs(&mut runs, &xor, &above);
            }
            std::mem::swap(&mut xor, &mut above);
            old.copy_from_slice(new);
            if runs.out.len() > limit {
                return None;
            }
        }
        runs.finish();
        (block.len() <= limit).then_some(XorRect { rect, block })
    }

    /// XORs the rect into `fb`, turning the frame the server encoded
    /// against into the one it encoded. The runs land in one row of
    /// XOR values, undoing the row delta in place, and each row is
    /// XORed into `fb` as it completes.
    ///
    /// # Errors
    ///
    /// [`WireError::OutsideFrame`], leaving `fb` untouched, when the
    /// rect does not lie inside `fb`.
    pub fn apply_to(&self, fb: &mut Framebuffer) -> Result<(), WireError> {
        let r = self.rect;
        // Widened so a hostile origin near `i32::MAX` cannot wrap past
        // the bounds check.
        if r.x as i64 + r.width as i64 > fb.width() as i64
            || r.y as i64 + r.height as i64 > fb.height() as i64
        {
            return Err(WireError::OutsideFrame);
        }
        let w = r.width as usize;
        let (mut row, mut x, mut y) = (vec![0u32; w], 0, r.y);
        Reader::new(&self.block).runs(w * r.height as usize, |mut count, value| {
            while count > 0 {
                let n = count.min(w - x);
                let span = &mut row[x..x + n];
                if y == r.y {
                    span.fill(value);
                } else if value != 0 {
                    span.iter_mut().for_each(|p| *p ^= value);
                }
                (x, count) = (x + n, count - n);
                if x == w {
                    fb.xor_rect(Rect::new(r.x, y, r.width, 1), &row);
                    (x, y) = (0, y + 1);
                }
            }
        })?;
        Ok(())
    }
}

/// Client→server frames.
#[derive(Debug, Clone, PartialEq)]
pub enum ClientFrame {
    /// Open a session on the named scene.
    Hello {
        /// Scene name (`fig1`…`fig5`, any `atk_apps::scenes` name).
        scene: String,
        /// Window-system backend to host the session on; `None` takes
        /// the server default. Encoded only when present, so old
        /// clients and servers interoperate unchanged.
        backend: Option<String>,
    },
    /// Open a *replicated* session on a named shared document instead
    /// of a private scene (sent in place of `Hello`). The first
    /// attacher must offer a scene, which creates the document; later
    /// attachers may omit it (or must match). Steps sent afterwards
    /// are serialized through the document's op log and fan out to
    /// every attached replica.
    Attach {
        /// Registry key of the shared document.
        doc_id: String,
        /// Scene to build the document over; `None` joins an existing
        /// document (encoded as the empty string on the wire).
        scene: Option<String>,
    },
    /// One script step, encoded as its script line.
    Step(ScriptStep),
    /// Ask for the server-wide stats snapshot; the server replies with
    /// [`ServerFrame::Stats`] (after any updates for steps already in
    /// flight on this connection).
    StatsReq,
    /// Orderly goodbye; the server replies with its own `Bye`.
    Bye,
}

/// Server→client frames.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServerFrame {
    /// Session accepted; the initial keyframe follows immediately.
    Welcome {
        /// Server-assigned session id.
        session_id: u64,
        /// Window width in pixels.
        width: u32,
        /// Window height in pixels.
        height: u32,
    },
    /// Admission control rejected the connection; try again later.
    Busy,
    /// The change against the frame the client holds. Updates depend
    /// on every frame before them, which the transport delivers in
    /// order and whole until a disconnect, and a disconnect ends the
    /// session.
    Update {
        /// Cumulative count of client steps consumed so far.
        seq: u64,
        /// The changed rect, XORed with the client's pixels; `None`
        /// when no pixel changed (a pure ack).
        patch: Option<XorRect>,
    },
    /// Full frame replacing the client framebuffer (also carries
    /// resizes: the dimensions are authoritative).
    Keyframe {
        /// Cumulative count of client steps consumed so far.
        seq: u64,
        /// The whole frame, shared rather than copied: on the server it
        /// is the session's diff baseline, sharing its bands with the
        /// screen; on the client the decoded pixels, held as one band,
        /// that the reconstruction adopts.
        frame: Arc<Framebuffer>,
    },
    /// Server is closing the session (client `Bye`, idle eviction, app
    /// close).
    Bye {
        /// Why ("bye", "idle", "closed").
        reason: String,
    },
    /// Protocol or session failure; the connection is done.
    Error {
        /// Human-readable description.
        message: String,
    },
    /// Server-wide stats snapshot: all per-session collectors merged
    /// with the server's own (reply to [`ClientFrame::StatsReq`]).
    Stats {
        /// Human-readable summary (`atk_trace::text_summary`).
        text: String,
        /// Machine-readable snapshot (`atk_trace::snapshot_json`).
        json: String,
    },
}

const TAG_HELLO: u8 = 0x01;
const TAG_STEP: u8 = 0x02;
const TAG_C_BYE: u8 = 0x03;
const TAG_STATS_REQ: u8 = 0x04;
const TAG_ATTACH: u8 = 0x05;
const TAG_WELCOME: u8 = 0x81;
const TAG_BUSY: u8 = 0x82;
const TAG_UPDATE: u8 = 0x83;
const TAG_KEYFRAME: u8 = 0x84;
const TAG_S_BYE: u8 = 0x85;
const TAG_ERROR: u8 = 0x86;
const TAG_STATS: u8 = 0x87;
const TAG_KEYFRAME_RLE: u8 = 0x89;

/// Which body encoding [`ServerFrame::encode_packed`] chose for a
/// frame. A keyframe's is chosen per frame, by comparing actual encoded
/// sizes; an update's rect is always run-length coded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Encoding {
    /// Raw little-endian pixels (tag `0x84`), or no pixels at all.
    Raw,
    /// Row-delta + run-length encoded pixels (tag `0x89`, and `0x83`
    /// with a rect).
    Rle,
}

// ---- primitive writers -------------------------------------------------

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

/// A keyframe's header after its tag: `seq` and the frame's size.
fn put_keyframe_header(out: &mut Vec<u8>, seq: u64, frame: &Framebuffer) {
    put_u64(out, seq);
    put_u32(out, frame.width() as u32);
    put_u32(out, frame.height() as u32);
}

/// A frame's pixels raw, row by row.
fn put_pixels(out: &mut Vec<u8>, frame: &Framebuffer) {
    out.reserve(frame.width() as usize * frame.height() as usize * 4);
    for y in 0..frame.height() {
        for p in frame.row(y) {
            out.extend_from_slice(&p.to_le_bytes());
        }
    }
}

/// Row-delta + RLE pixel block: each row of `frame` is XORed with the
/// row above (first row raw), then the delta stream is run-length
/// encoded as `[u32 npairs][npairs × (u32 count, u32 value)]`.
/// Screen content is mostly vertical runs of unchanged background, so
/// the delta stream collapses to a handful of runs on typing workloads.
/// A row equal to the row above is all zero deltas, so it extends the
/// run by a whole row after one slice compare; any other row is cut
/// into maximal runs span by span, one [`Runs::push`] per run.
fn put_rle_pixels(out: &mut Vec<u8>, frame: &Framebuffer) {
    let mut runs = Runs::new(out);
    // A frame 0 wide has no pixels, so no rows to code.
    let rows = if frame.width() == 0 {
        0
    } else {
        frame.height()
    };
    let mut above: Option<&[u32]> = None;
    for row in (0..rows).map(|y| frame.row(y)) {
        match above {
            Some(prev) if row == prev => runs.push(0, row.len() as u32),
            Some(prev) => push_delta_runs(&mut runs, row, prev),
            None => push_raw_runs(&mut runs, row),
        }
        above = Some(row);
    }
    runs.finish();
}

/// Pushes the runs of `row` XOR `prev`: a zero-delta span advances
/// eight pixels per compare (of arrays, which compile inline rather
/// than to a `memcmp` call), and a non-zero run ends at the first pixel
/// whose delta differs.
fn push_delta_runs(runs: &mut Runs<'_>, row: &[u32], prev: &[u32]) {
    let prev = &prev[..row.len()];
    let mut x = 0;
    while x < row.len() {
        let start = x;
        let delta = row[x] ^ prev[x];
        if delta == 0 {
            while let (Some(a), Some(b)) =
                (row[x..].first_chunk::<8>(), prev[x..].first_chunk::<8>())
            {
                if a != b {
                    break;
                }
                x += 8;
            }
            while x < row.len() && row[x] == prev[x] {
                x += 1;
            }
        } else {
            x += 1;
            while x < row.len() && row[x] ^ prev[x] == delta {
                x += 1;
            }
        }
        runs.push(delta, (x - start) as u32);
    }
}

/// Pushes the runs of equal raw values in `row` (the first row, which
/// has no row above to delta against).
fn push_raw_runs(runs: &mut Runs<'_>, row: &[u32]) {
    let mut x = 0;
    while x < row.len() {
        let start = x;
        let value = row[x];
        x += 1;
        while x < row.len() && row[x] == value {
            x += 1;
        }
        runs.push(value, (x - start) as u32);
    }
}

/// The `(count, value)` pair writer behind [`put_rle_pixels`] and
/// [`XorRect::encode`]: a block's pair count, then its pairs.
struct Runs<'a> {
    out: &'a mut Vec<u8>,
    /// Where the pair count goes, patched in by [`Runs::finish`].
    at: usize,
    /// The open run: (delta value, count).
    run: Option<(u32, u32)>,
}

impl Runs<'_> {
    fn new(out: &mut Vec<u8>) -> Runs<'_> {
        let at = out.len();
        put_u32(out, 0);
        Runs { out, at, run: None }
    }

    fn push(&mut self, value: u32, count: u32) {
        match &mut self.run {
            Some((v, c)) if *v == value => *c += count,
            _ => {
                self.flush();
                self.run = Some((value, count));
            }
        }
    }

    fn flush(&mut self) {
        if let Some((v, c)) = self.run.take() {
            put_u32(self.out, c);
            put_u32(self.out, v);
        }
    }

    /// Closes the open run and writes the pair count.
    fn finish(mut self) {
        self.flush();
        // Every pair is 8 bytes.
        let npairs = ((self.out.len() - self.at - 4) / 8) as u32;
        self.out[self.at..self.at + 4].copy_from_slice(&npairs.to_le_bytes());
    }
}

// ---- primitive reader --------------------------------------------------

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        let end = self.pos.checked_add(n).ok_or(WireError::TooLarge)?;
        if end > self.buf.len() {
            return Err(WireError::Truncated);
        }
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn i32(&mut self) -> Result<i32, WireError> {
        Ok(i32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn string(&mut self) -> Result<String, WireError> {
        self.string_capped(MAX_STRING_BYTES)
    }

    /// A string field with a non-default cap (stats snapshots).
    fn string_capped(&mut self, cap: usize) -> Result<String, WireError> {
        let len = self.u32()? as usize;
        if len > cap {
            return Err(WireError::BadString);
        }
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| WireError::BadString)
    }

    /// Reads `count` raw pixels into `px`'s allocation.
    fn pixels(&mut self, count: usize, mut px: Vec<u32>) -> Result<Vec<u32>, WireError> {
        let bytes = self.take(count.checked_mul(4).ok_or(WireError::TooLarge)?)?;
        let le = |c: &[u8]| u32::from_le_bytes(c.try_into().unwrap());
        px.clear();
        px.extend(bytes.chunks_exact(4).map(le));
        Ok(px)
    }

    /// Reads a [`put_rle_pixels`] block covering exactly `count`
    /// pixels, handing each run's `(count, value)` to `run` once it is
    /// checked to fit what is left, and returns the block's bytes.
    /// Hostile counts fail before `run` sees them.
    fn runs(
        &mut self,
        count: usize,
        mut run: impl FnMut(usize, u32),
    ) -> Result<&'a [u8], WireError> {
        let start = self.pos;
        let npairs = self.u32()? as usize;
        // Each pair covers at least one pixel.
        if npairs > count {
            return Err(WireError::TooLarge);
        }
        let mut covered = 0;
        for _ in 0..npairs {
            let c = self.u32()? as usize;
            let v = self.u32()?;
            if c == 0 || covered + c > count {
                return Err(WireError::TooLarge);
            }
            covered += c;
            run(c, v);
        }
        if covered != count {
            return Err(WireError::Truncated);
        }
        Ok(&self.buf[start..self.pos])
    }

    /// Decodes a [`put_rle_pixels`] block into exactly `count` pixels,
    /// in `px`'s allocation. The row delta is undone as each run lands,
    /// so every pixel is written once: the part of a run inside the
    /// first row is the raw value, and the rest copies the row above
    /// (in chunks of at most `width`, each wholly decoded already) and
    /// XORs in the run's value when it is non-zero.
    fn rle_pixels(
        &mut self,
        count: usize,
        width: usize,
        mut px: Vec<u32>,
    ) -> Result<Vec<u32>, WireError> {
        px.clear();
        px.reserve(count);
        // Width 0 carries no rows to delta against: the pixels go raw.
        let first_row = if width == 0 { count } else { width };
        self.runs(count, |c, v| {
            let end = px.len() + c;
            if px.len() < first_row {
                px.resize(end.min(first_row), v);
            }
            while px.len() < end {
                let at = px.len();
                let n = (end - at).min(width);
                px.extend_from_within(at - width..at - width + n);
                if v != 0 {
                    px[at..].iter_mut().for_each(|p| *p ^= v);
                }
            }
        })?;
        Ok(px)
    }

    fn dims(&mut self) -> Result<(u32, u32), WireError> {
        let w = self.u32()?;
        let h = self.u32()?;
        if w > MAX_DIM || h > MAX_DIM {
            return Err(WireError::TooLarge);
        }
        Ok((w, h))
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn finish(self) -> Result<(), WireError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(WireError::TrailingBytes)
        }
    }
}

impl ClientFrame {
    /// Encodes the frame body (tag + payload, no length prefix).
    ///
    /// # Errors
    ///
    /// [`WireError::BadStep`] for the few [`ScriptStep`]s the script
    /// line format cannot carry (`Expose`, raw `MenuSelect` events) —
    /// clients never need to send those.
    pub fn encode(&self) -> Result<Vec<u8>, WireError> {
        let mut out = Vec::new();
        match self {
            ClientFrame::Hello { scene, backend } => {
                out.push(TAG_HELLO);
                put_str(&mut out, scene);
                // Optional trailing field: absent bytes mean "server
                // default", which is exactly what old encoders send.
                if let Some(b) = backend {
                    put_str(&mut out, b);
                }
            }
            ClientFrame::Attach { doc_id, scene } => {
                out.push(TAG_ATTACH);
                put_str(&mut out, doc_id);
                put_str(&mut out, scene.as_deref().unwrap_or(""));
            }
            ClientFrame::Step(step) => {
                let line = step
                    .to_line()
                    .ok_or_else(|| WireError::BadStep(format!("unencodable step {step:?}")))?;
                out.push(TAG_STEP);
                put_str(&mut out, &line);
            }
            ClientFrame::StatsReq => out.push(TAG_STATS_REQ),
            ClientFrame::Bye => out.push(TAG_C_BYE),
        }
        Ok(out)
    }

    /// Decodes a frame body. Never panics on arbitrary input.
    pub fn decode(buf: &[u8]) -> Result<ClientFrame, WireError> {
        let mut r = Reader::new(buf);
        let frame = match r.u8()? {
            TAG_HELLO => {
                let scene = r.string()?;
                // The backend field is optional on the wire: old
                // clients stop after the scene name.
                let backend = if r.remaining() > 0 {
                    Some(r.string()?)
                } else {
                    None
                };
                ClientFrame::Hello { scene, backend }
            }
            TAG_ATTACH => {
                let doc_id = r.string()?;
                let scene = r.string()?;
                ClientFrame::Attach {
                    doc_id,
                    scene: (!scene.is_empty()).then_some(scene),
                }
            }
            TAG_STEP => {
                let line = r.string()?;
                let script =
                    EventScript::parse(&line).map_err(|(_, msg)| WireError::BadStep(msg))?;
                // One frame carries exactly one step ("type …" lines,
                // which expand to many, are not wire format).
                match <[ScriptStep; 1]>::try_from(script.steps) {
                    Ok([step]) => ClientFrame::Step(step),
                    Err(_) => return Err(WireError::BadStep(format!("not one step: {line}"))),
                }
            }
            TAG_STATS_REQ => ClientFrame::StatsReq,
            TAG_C_BYE => ClientFrame::Bye,
            t => return Err(WireError::BadTag(t)),
        };
        r.finish()?;
        Ok(frame)
    }
}

impl ServerFrame {
    /// Encodes the frame body (tag + payload, no length prefix).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            ServerFrame::Welcome {
                session_id,
                width,
                height,
            } => {
                out.push(TAG_WELCOME);
                put_u64(&mut out, *session_id);
                put_u32(&mut out, *width);
                put_u32(&mut out, *height);
            }
            ServerFrame::Busy => out.push(TAG_BUSY),
            ServerFrame::Update { seq, patch } => {
                out.reserve(self.wire_len());
                out.push(TAG_UPDATE);
                put_u64(&mut out, *seq);
                put_u32(&mut out, patch.is_some() as u32);
                if let Some(p) = patch {
                    for v in [p.rect.x, p.rect.y, p.rect.width, p.rect.height] {
                        put_u32(&mut out, v as u32);
                    }
                    out.extend_from_slice(&p.block);
                }
            }
            ServerFrame::Keyframe { seq, frame } => {
                out.push(TAG_KEYFRAME);
                put_keyframe_header(&mut out, *seq, frame);
                put_pixels(&mut out, frame);
            }
            ServerFrame::Bye { reason } => {
                out.push(TAG_S_BYE);
                put_str(&mut out, reason);
            }
            ServerFrame::Error { message } => {
                out.push(TAG_ERROR);
                put_str(&mut out, message);
            }
            ServerFrame::Stats { text, json } => {
                out.push(TAG_STATS);
                put_str(&mut out, text);
                put_str(&mut out, json);
            }
        }
        out
    }

    /// Decodes a frame body. Never panics on arbitrary input: every
    /// count and dimension is capped before any allocation it sizes.
    pub fn decode(buf: &[u8]) -> Result<ServerFrame, WireError> {
        ServerFrame::decode_with(buf, None)
    }

    /// [`ServerFrame::decode`] for a receiver holding the frame `held`.
    /// A keyframe replaces that frame, so it decodes into `held`'s
    /// pixel store, leaving `held` empty (0×0) even if decoding then
    /// fails: replacing a frame allocates nothing, and the receiver
    /// never holds two. Any other frame leaves `held` as it was.
    pub fn decode_replacing(buf: &[u8], held: &mut Framebuffer) -> Result<ServerFrame, WireError> {
        ServerFrame::decode_with(buf, Some(held))
    }

    fn decode_with(buf: &[u8], held: Option<&mut Framebuffer>) -> Result<ServerFrame, WireError> {
        let mut r = Reader::new(buf);
        let frame = match r.u8()? {
            TAG_WELCOME => {
                let session_id = r.u64()?;
                let (width, height) = r.dims()?;
                ServerFrame::Welcome {
                    session_id,
                    width,
                    height,
                }
            }
            TAG_BUSY => ServerFrame::Busy,
            TAG_UPDATE => {
                let seq = r.u64()?;
                let patch = match r.u32()? {
                    0 => None,
                    1 => {
                        let x = r.i32()?;
                        let y = r.i32()?;
                        let (w, h) = r.dims()?;
                        if x < 0 || y < 0 || w == 0 || h == 0 {
                            return Err(WireError::TooLarge);
                        }
                        let count = (w as usize) * (h as usize);
                        if count * 4 > MAX_FRAME_BYTES {
                            return Err(WireError::TooLarge);
                        }
                        Some(XorRect {
                            rect: Rect::new(x, y, w as i32, h as i32),
                            block: r.runs(count, |_, _| ())?.to_vec(),
                        })
                    }
                    _ => return Err(WireError::TooLarge),
                };
                ServerFrame::Update { seq, patch }
            }
            tag @ (TAG_KEYFRAME | TAG_KEYFRAME_RLE) => {
                let seq = r.u64()?;
                let (width, height) = r.dims()?;
                let count = (width as usize) * (height as usize);
                if count * 4 > MAX_FRAME_BYTES {
                    return Err(WireError::TooLarge);
                }
                let store = held.map_or_else(Vec::new, |fb| {
                    std::mem::replace(fb, Framebuffer::from_pixels(0, 0, Vec::new())).into_pixels()
                });
                let pixels = if tag == TAG_KEYFRAME_RLE {
                    r.rle_pixels(count, width as usize, store)?
                } else {
                    r.pixels(count, store)?
                };
                // Both readers return exactly `count` pixels, and the
                // dimension cap keeps them inside `i32`.
                ServerFrame::Keyframe {
                    seq,
                    frame: Arc::new(Framebuffer::from_pixels(
                        width as i32,
                        height as i32,
                        pixels,
                    )),
                }
            }
            TAG_S_BYE => ServerFrame::Bye {
                reason: r.string()?,
            },
            TAG_ERROR => ServerFrame::Error {
                message: r.string()?,
            },
            TAG_STATS => {
                let text = r.string_capped(MAX_STATS_BYTES)?;
                let json = r.string_capped(MAX_STATS_BYTES)?;
                ServerFrame::Stats { text, json }
            }
            t => return Err(WireError::BadTag(t)),
        };
        r.finish()?;
        Ok(frame)
    }

    /// Encodes the frame body. A keyframe ships the smaller of the raw
    /// layout and the row-delta + RLE layout, by comparing the actual
    /// encoded sizes: the raw body's size is [`ServerFrame::wire_len`],
    /// so only the RLE body is built up front, and the raw one only
    /// when it wins. Every other frame has one body, an update's rect
    /// already run-length coded. Either body decodes back to the
    /// identical frame via [`ServerFrame::decode`].
    pub fn encode_packed(&self) -> (Vec<u8>, Encoding) {
        if let ServerFrame::Keyframe { seq, frame } = self {
            let mut rle = vec![TAG_KEYFRAME_RLE];
            put_keyframe_header(&mut rle, *seq, frame);
            put_rle_pixels(&mut rle, frame);
            if rle.len() < self.wire_len() {
                return (rle, Encoding::Rle);
            }
        }
        let coded = matches!(self, ServerFrame::Update { patch: Some(_), .. });
        (
            self.encode(),
            if coded { Encoding::Rle } else { Encoding::Raw },
        )
    }

    /// Size in bytes of the body [`ServerFrame::encode`] writes (the
    /// wire minus its 4-byte length prefix) — the accounting unit for
    /// `serve.diff_bytes` / `serve.full_bytes`. An update has only the
    /// one body, so this is what it ships; a keyframe may ship shorter
    /// (see [`ServerFrame::encode_packed`]).
    pub fn wire_len(&self) -> usize {
        match self {
            ServerFrame::Welcome { .. } => 1 + 8 + 4 + 4,
            ServerFrame::Busy => 1,
            ServerFrame::Update { patch, .. } => {
                UPDATE_HEADER_BYTES
                    + patch
                        .as_ref()
                        .map_or(0, |p| RECT_HEADER_BYTES + p.block.len())
            }
            ServerFrame::Keyframe { frame, .. } => {
                1 + 8 + 4 + 4 + frame.width() as usize * frame.height() as usize * 4
            }
            ServerFrame::Bye { reason } => 1 + 4 + reason.len(),
            ServerFrame::Error { message } => 1 + 4 + message.len(),
            ServerFrame::Stats { text, json } => 1 + 4 + text.len() + 4 + json.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use atk_wm::WindowEvent;

    fn keyframe(seq: u64, width: i32, height: i32, pixels: Vec<u32>) -> ServerFrame {
        ServerFrame::Keyframe {
            seq,
            frame: Arc::new(Framebuffer::from_pixels(width, height, pixels)),
        }
    }

    /// The update from `before` to `after`, over the bounds of what
    /// changed; `before` ends equal to `after`.
    fn update(seq: u64, before: &mut Framebuffer, after: &Framebuffer) -> ServerFrame {
        let changed = before.diff_bounds_within(after, after.bounds()).unwrap();
        let patch = (!changed.is_empty())
            .then(|| XorRect::encode(before, after, changed, usize::MAX).unwrap());
        assert_eq!(before, after, "the encoder brings the baseline along");
        ServerFrame::Update { seq, patch }
    }

    #[test]
    fn client_frames_round_trip() {
        let frames = [
            ClientFrame::Hello {
                scene: "fig5".into(),
                backend: None,
            },
            ClientFrame::Hello {
                scene: "fig1".into(),
                backend: Some("awmsim".into()),
            },
            ClientFrame::Attach {
                doc_id: "doc-0".into(),
                scene: Some("fig5".into()),
            },
            ClientFrame::Attach {
                doc_id: "doc-0".into(),
                scene: None,
            },
            ClientFrame::Step(ScriptStep::Event(WindowEvent::ch('a'))),
            ClientFrame::Step(ScriptStep::MenuSelect("File/Save".into())),
            ClientFrame::StatsReq,
            ClientFrame::Bye,
        ];
        for f in frames {
            let bytes = f.encode().unwrap();
            assert_eq!(ClientFrame::decode(&bytes).unwrap(), f);
        }
    }

    #[test]
    fn hello_without_backend_is_the_pre_backend_encoding() {
        // Hand-built old-format Hello: tag + scene string, nothing else.
        let mut old = vec![TAG_HELLO];
        put_str(&mut old, "fig3");
        assert_eq!(
            ClientFrame::decode(&old).unwrap(),
            ClientFrame::Hello {
                scene: "fig3".into(),
                backend: None,
            }
        );
        // And a backend-less encode emits exactly those bytes.
        let new = ClientFrame::Hello {
            scene: "fig3".into(),
            backend: None,
        };
        assert_eq!(new.encode().unwrap(), old);
    }

    #[test]
    fn server_frames_round_trip() {
        let frames = [
            ServerFrame::Welcome {
                session_id: 7,
                width: 800,
                height: 600,
            },
            ServerFrame::Busy,
            ServerFrame::Update {
                seq: 2,
                patch: None,
            },
            update(
                3,
                &mut Framebuffer::from_pixels(3, 2, vec![0; 6]),
                &Framebuffer::from_pixels(3, 2, vec![1, 2, 3, 4, 5, 6]),
            ),
            keyframe(9, 2, 2, vec![0xAABBCC, 0, 1, 2]),
            ServerFrame::Bye {
                reason: "idle".into(),
            },
            ServerFrame::Error {
                message: "no such scene".into(),
            },
            ServerFrame::Stats {
                // Longer than MAX_STRING_BYTES: stats snapshots ride
                // the bigger MAX_STATS_BYTES cap.
                text: "x".repeat(MAX_STRING_BYTES + 100),
                json: "{\"counters\":{}}".into(),
            },
        ];
        for f in frames {
            let bytes = f.encode();
            assert_eq!(bytes.len(), f.wire_len(), "wire_len of {f:?}");
            assert_eq!(ServerFrame::decode(&bytes).unwrap(), f);
        }
    }

    #[test]
    fn packed_frames_round_trip_and_compress_flat_content() {
        // A typing-workload-shaped change: one glyph strip drawn on a
        // constant background ships as a handful of runs.
        let mut before = Framebuffer::from_pixels(40, 30, vec![0xFFFFFFu32; 40 * 30]);
        let mut after = before.clone();
        after.put_rect(Rect::new(5, 7, 7, 3), &[0; 21]);
        let update = update(11, &mut before, &after);
        let (bytes, enc) = update.encode_packed();
        assert_eq!(enc, Encoding::Rle);
        assert_eq!(bytes.len(), update.wire_len());
        // Header, rect, pair count and two runs: the first row's XOR,
        // then a zero delta for the two rows repeating it.
        assert_eq!(bytes.len(), 13 + 16 + 4 + 2 * 8, "{bytes:?}");
        assert_eq!(ServerFrame::decode(&bytes).unwrap(), update);

        let key = keyframe(3, 64, 48, vec![0xABCDEFu32; 64 * 48]);
        let (bytes, enc) = key.encode_packed();
        assert_eq!(enc, Encoding::Rle);
        assert_eq!(ServerFrame::decode(&bytes).unwrap(), key);
    }

    #[test]
    fn packed_falls_back_to_raw_on_noise() {
        // Incompressible content: every pixel distinct in both row and
        // column direction, so every delta is a 1-run.
        let pixels: Vec<u32> = (0..16u32 * 16)
            .map(|i| i.wrapping_mul(2654435761))
            .collect();
        let key = keyframe(1, 16, 16, pixels);
        let (bytes, enc) = key.encode_packed();
        assert_eq!(enc, Encoding::Raw);
        assert_eq!(bytes.len(), key.wire_len());
        assert_eq!(ServerFrame::decode(&bytes).unwrap(), key);
        // Non-pixel frames are always raw.
        let (_, enc) = ServerFrame::Busy.encode_packed();
        assert_eq!(enc, Encoding::Raw);
    }

    #[test]
    fn hostile_rle_counts_error_not_panic() {
        // A valid compressed frame, then corrupt its run counts.
        let key = keyframe(0, 8, 8, vec![7u32; 64]);
        let (bytes, enc) = key.encode_packed();
        assert_eq!(enc, Encoding::Rle);
        // Truncations at every length.
        for cut in 0..bytes.len() {
            assert!(ServerFrame::decode(&bytes[..cut]).is_err());
        }
        // Run count of 0.
        let mut zero = bytes.clone();
        zero[21..25].copy_from_slice(&0u32.to_le_bytes());
        assert!(ServerFrame::decode(&zero).is_err());
        // Run count past the pixel budget.
        let mut huge = bytes.clone();
        huge[21..25].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(ServerFrame::decode(&huge).is_err());
        // Pair count past the pixel budget.
        let mut pairs = bytes;
        pairs[17..21].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(ServerFrame::decode(&pairs).is_err());
    }

    #[test]
    fn unencodable_step_is_an_error_not_a_panic() {
        use atk_graphics::Rect;
        let f = ClientFrame::Step(ScriptStep::Event(WindowEvent::Expose(Rect::new(
            0, 0, 1, 1,
        ))));
        assert!(matches!(f.encode(), Err(WireError::BadStep(_))));
    }

    #[test]
    fn truncated_frames_error() {
        let full = keyframe(1, 4, 4, vec![0; 16]).encode();
        for cut in 0..full.len() {
            assert!(
                ServerFrame::decode(&full[..cut]).is_err(),
                "prefix of {cut} bytes decoded"
            );
        }
    }

    #[test]
    fn frame_dimensions_are_capped_at_max_dim() {
        let header = |width: u32| {
            let mut buf = vec![TAG_KEYFRAME];
            put_u64(&mut buf, 0);
            put_u32(&mut buf, width);
            put_u32(&mut buf, 1);
            buf
        };
        // One row of MAX_DIM + 1 pixels is far under MAX_FRAME_BYTES,
        // so only the dimension check can refuse it.
        const { assert!((MAX_DIM as usize + 1) * 4 < MAX_FRAME_BYTES) };
        assert_eq!(
            ServerFrame::decode(&header(MAX_DIM + 1)),
            Err(WireError::TooLarge)
        );
        // At the cap the header passes; the missing pixels are the error.
        assert_eq!(
            ServerFrame::decode(&header(MAX_DIM)),
            Err(WireError::Truncated)
        );
    }

    #[test]
    fn strings_are_capped_at_max_string_bytes() {
        let hello = |len: usize| ClientFrame::Hello {
            scene: "s".repeat(len),
            backend: None,
        };
        let over = hello(MAX_STRING_BYTES + 1).encode().unwrap();
        assert_eq!(ClientFrame::decode(&over), Err(WireError::BadString));
        let at = hello(MAX_STRING_BYTES);
        assert_eq!(ClientFrame::decode(&at.encode().unwrap()), Ok(at));
    }

    #[test]
    fn hostile_counts_are_capped_before_allocation() {
        // Keyframe claiming a 16384×16384 buffer with no pixels behind it.
        let mut buf = vec![0x84u8];
        buf.extend_from_slice(&0u64.to_le_bytes());
        buf.extend_from_slice(&16384u32.to_le_bytes());
        buf.extend_from_slice(&16384u32.to_le_bytes());
        assert_eq!(ServerFrame::decode(&buf), Err(WireError::TooLarge));
        // Update claiming two rects, or u32::MAX: an update carries
        // at most one.
        for n in [2, u32::MAX] {
            let mut buf = vec![0x83u8];
            buf.extend_from_slice(&0u64.to_le_bytes());
            buf.extend_from_slice(&n.to_le_bytes());
            assert_eq!(ServerFrame::decode(&buf), Err(WireError::TooLarge));
        }
        // Update claiming a 16384×16384 rect, one run long.
        let mut buf = vec![0x83u8];
        buf.extend_from_slice(&0u64.to_le_bytes());
        for v in [1, 0, 0, 16384, 16384, 1, 16384 * 16384, 0] {
            buf.extend_from_slice(&(v as u32).to_le_bytes());
        }
        assert_eq!(ServerFrame::decode(&buf), Err(WireError::TooLarge));
        // Stats claiming a text blob past MAX_STATS_BYTES.
        let mut buf = vec![0x87u8];
        buf.extend_from_slice(&((MAX_STATS_BYTES as u32) + 1).to_le_bytes());
        assert_eq!(ServerFrame::decode(&buf), Err(WireError::BadString));
    }
}
