//! Property tests over the wire protocol: every well-formed frame
//! round-trips byte-exactly, no byte sequence — truncated, corrupted,
//! or pure noise — makes the decoder or the client panic, the packed
//! encoder and the one-pass update encoder emit exactly what
//! straightforward reference encoders would, and a decoded frame does
//! to a client's framebuffer exactly what a straightforward two-pass
//! reference decoder says, pixels or error.

use std::sync::Arc;

use atk_core::ScriptStep;
use atk_graphics::{Color, Framebuffer, Move, Point, Rect, Size, Written, BAND_ROWS};
use atk_serve::wire::{
    apply_update, ClientFrame, Encoding, ServerFrame, WireError, XorRect, MAX_DIM, MAX_FRAME_BYTES,
    MAX_UPDATE_RECTS,
};
use atk_serve::{ClientError, FrameTransport, MemTransport, ServeClient};
use atk_wm::{Key, MouseAction, WindowEvent};
use proptest::prelude::*;

fn keyframe(seq: u64, width: i32, height: i32, pixels: Vec<u32>) -> ServerFrame {
    ServerFrame::Keyframe {
        seq,
        frame: Arc::new(Framebuffer::from_pixels(width, height, pixels)),
    }
}

fn arb_step() -> impl Strategy<Value = ScriptStep> {
    prop_oneof![
        (0i32..1000, 0i32..1000).prop_map(|(x, y)| ScriptStep::Event(WindowEvent::left_down(x, y))),
        (0i32..1000, 0i32..1000).prop_map(|(x, y)| ScriptStep::Event(WindowEvent::left_up(x, y))),
        (0i32..1000, 0i32..1000).prop_map(|(x, y)| ScriptStep::Event(WindowEvent::left_drag(x, y))),
        (0i32..1000, 0i32..1000).prop_map(|(x, y)| {
            ScriptStep::Event(WindowEvent::Mouse {
                action: MouseAction::Movement,
                pos: Point::new(x, y),
            })
        }),
        "[a-z0-9]{1}".prop_map(|s| ScriptStep::Event(WindowEvent::ch(s.chars().next().unwrap()))),
        Just(ScriptStep::Event(WindowEvent::Key(Key::Return))),
        Just(ScriptStep::Event(WindowEvent::Key(Key::Backspace))),
        (1u64..5000).prop_map(|ms| ScriptStep::Event(WindowEvent::Tick(ms))),
        (1i32..2000, 1i32..2000)
            .prop_map(|(w, h)| ScriptStep::Event(WindowEvent::Resize(Size::new(w, h)))),
        Just(ScriptStep::Event(WindowEvent::MenuRequest {
            pos: Point::ORIGIN
        })),
        Just(ScriptStep::Event(WindowEvent::Close)),
        "[A-Za-z/]{1,16}".prop_map(ScriptStep::MenuSelect),
    ]
}

fn arb_client_frame() -> impl Strategy<Value = ClientFrame> {
    prop_oneof![
        (
            "[a-z0-9_]{0,32}",
            prop_oneof![Just(None), "[a-z0-9_]{1,16}".prop_map(Some)]
        )
            .prop_map(|(scene, backend)| ClientFrame::Hello { scene, backend }),
        (
            "[a-z0-9-]{1,24}",
            prop_oneof![Just(None), "[a-z0-9_]{1,16}".prop_map(Some)]
        )
            .prop_map(|(doc_id, scene)| ClientFrame::Attach { doc_id, scene }),
        arb_step().prop_map(ClientFrame::Step),
        Just(ClientFrame::StatsReq),
        Just(ClientFrame::Bye),
    ]
}

/// The update that brings `before` to `after` as a session builds it:
/// the boxes of what changed, one per run of changed bands, each
/// encoded in one pass. `before` ends equal to `after`.
fn update(seq: u64, before: &mut Framebuffer, after: &Framebuffer) -> ServerFrame {
    moved_update(seq, before, after, None)
}

/// [`update`] after the move `moved`, made on `before` first, as a
/// session makes the window's move on its baseline.
fn moved_update(
    seq: u64,
    before: &mut Framebuffer,
    after: &Framebuffer,
    moved: Option<Move>,
) -> ServerFrame {
    if let Some(m) = moved {
        before.apply_move(m);
    }
    let boxes = before
        .changed_boxes(after, &Written::covering(after.bounds()))
        .unwrap();
    let rects = XorRect::encode_boxes(before, after, boxes, usize::MAX).unwrap();
    ServerFrame::Update { seq, moved, rects }
}

/// The bounds of every pixel where `a` and `b` differ.
fn changed_bounds(a: &Framebuffer, b: &Framebuffer) -> Rect {
    a.changed_boxes(b, &Written::covering(a.bounds()))
        .unwrap()
        .into_iter()
        .fold(Rect::EMPTY, Rect::union)
}

/// A pair from [`arb_pair`] whose second frame first had a move made
/// on it (rows shifted as a reflow or a scroll shifts them, or any
/// rect anywhere), then its blocks and pixels drawn: the frames and
/// the move. A pair with no pixels becomes a 1×1 frame.
fn arb_moved_pair() -> impl Strategy<Value = (Framebuffer, Framebuffer, Move)> {
    (
        arb_pair(),
        (0.0f64..1.0, 0.0f64..1.0, 0.0f64..1.0, 0.0f64..1.0),
        (0.0f64..1.0, 0.0f64..1.0, any::<bool>()),
    )
        .prop_map(|((before, drawn), (x, y, w, h), (dx, dy, rows))| {
            let (before, drawn) = if before.width() == 0 {
                let one = Framebuffer::from_pixels(1, 1, vec![0]);
                (one.clone(), one)
            } else {
                (before, drawn)
            };
            let (fw, fh) = (before.width(), before.height());
            let at = |f: f64, n: i32| ((f * n as f64) as i32).min(n - 1);
            let src = if rows {
                let top = at(y, fh);
                Rect::new(0, top, fw, fh - top)
            } else {
                let (sx, sy) = (at(x, fw), at(y, fh));
                Rect::new(sx, sy, 1 + at(w, fw - sx), 1 + at(h, fh - sy))
            };
            let dst = Point::new(
                if rows { 0 } else { at(dx, fw - src.width + 1) },
                at(dy, fh - src.height + 1),
            );
            let mv = Move { src, dst };
            let mut after = before.clone();
            after.copy_within(src, dst);
            // Whatever the pair drew lands on top of the move.
            let d = changed_bounds(&before, &drawn);
            for y in d.y..d.bottom() {
                let row: Vec<u32> = (d.x..d.right()).map(|x| drawn.get(x, y).0).collect();
                after.put_rect(Rect::new(d.x, y, d.width, 1), &row);
            }
            (before, after, mv)
        })
}

fn arb_server_frame() -> impl Strategy<Value = ServerFrame> {
    prop_oneof![
        (any::<u64>(), 1u32..2000, 1u32..2000).prop_map(|(session_id, width, height)| {
            ServerFrame::Welcome {
                session_id,
                width,
                height,
            }
        }),
        Just(ServerFrame::Busy),
        (any::<u64>(), arb_pair()).prop_map(|(seq, (mut before, after))| update(
            seq,
            &mut before,
            &after
        )),
        (any::<u64>(), arb_moved_pair()).prop_map(|(seq, (mut before, after, mv))| {
            moved_update(seq, &mut before, &after, Some(mv))
        }),
        (any::<u64>(), 1i32..48, 1i32..48, any::<u32>()).prop_map(|(seq, width, height, fill)| {
            keyframe(
                seq,
                width,
                height,
                (0..(width * height) as usize)
                    .map(|i| fill.wrapping_add(i as u32))
                    .collect(),
            )
        }),
        "\\PC{0,40}".prop_map(|reason| ServerFrame::Bye { reason }),
        "\\PC{0,40}".prop_map(|message| ServerFrame::Error { message }),
        ("\\PC{0,200}", "\\PC{0,200}").prop_map(|(text, json)| ServerFrame::Stats { text, json }),
    ]
}

/// A screen-shaped pixel grid `(width, height, pixels)`: rows drawn
/// from a four-row palette, half of them repeating the row above, so
/// the encoder's equal-row path runs often. `shape` 0 forces width 0
/// (no pixels at all), 1 forces a single row; `min` is the smallest
/// width and height otherwise.
fn arb_grid(min: i32) -> impl Strategy<Value = (i32, i32, Vec<u32>)> {
    (
        0u8..8,
        1i32..40,
        proptest::collection::vec(any::<u32>(), 4..5),
        proptest::collection::vec(0u8..8, 0..40),
    )
        .prop_map(move |(shape, width, seeds, picks)| {
            let width = if shape == 0 { 0 } else { width.max(min) };
            let height = if shape == 1 {
                1
            } else {
                (picks.len() as i32).max(min)
            };
            let palette: Vec<Vec<u32>> = seeds
                .iter()
                .map(|&seed| {
                    (0..width as u32)
                        .map(|x| if (x + seed) % 5 == 0 { seed } else { 0xFFFFFF })
                        .collect()
                })
                .collect();
            let mut pixels = Vec::with_capacity((width * height) as usize);
            let mut prev = 0usize;
            for y in 0..height as usize {
                let pick = picks.get(y).copied().unwrap_or(4) as usize;
                // Picks 4..8 repeat the row above.
                if pick < 4 {
                    prev = pick;
                }
                pixels.extend_from_slice(&palette[prev]);
            }
            (width, height, pixels)
        })
}

/// A screen-shaped frame `before` and the frame `after` it becomes: a
/// few blocks filled, a few pixels set and a few rows copied from
/// elsewhere, as typing, selection and scrolling change a screen. Some
/// pairs are equal.
fn arb_pair() -> impl Strategy<Value = (Framebuffer, Framebuffer)> {
    (
        arb_grid(1),
        proptest::collection::vec((0i32..40, 0i32..40, 1i32..12, 1i32..8, 0u32..3), 0..4),
        proptest::collection::vec((0i32..40, 0i32..40, any::<u32>()), 0..12),
        proptest::collection::vec((0i32..40, 0i32..40), 0..3),
    )
        .prop_map(|((w, h, pixels), blocks, dots, rows)| {
            let before = Framebuffer::from_pixels(w, h, pixels);
            let mut after = before.clone();
            for (x, y, bw, bh, c) in blocks {
                after.fill_rect(
                    Rect::new(x, y, bw, bh),
                    Color([0, 0xFFFFFF, 0x123456][c as usize]),
                );
            }
            for (x, y, c) in dots {
                after.set(x, y, Color(c));
            }
            for (from, to) in rows {
                let (from, to) = (from % h, to % h);
                let row: Vec<u32> = (0..w).map(|x| before.get(x, from).0).collect();
                after.put_rect(Rect::new(0, to, w, 1), &row);
            }
            (before, after)
        })
}

/// A pixel-bearing frame from the encoders as sessions use them, with
/// the frame a client holds before it: a keyframe of a screen-shaped
/// grid (any client frame), or the update from a pair's first frame to
/// its second.
fn arb_packed_frame() -> impl Strategy<Value = (ServerFrame, Framebuffer)> {
    prop_oneof![
        (any::<u64>(), arb_grid(0)).prop_map(|(seq, (width, height, pixels))| (
            keyframe(seq, width, height, pixels),
            Framebuffer::new(3, 2, Color::WHITE)
        )),
        (any::<u64>(), arb_pair()).prop_map(|(seq, (before, after))| {
            let held = before.clone();
            (update(seq, &mut before.clone(), &after), held)
        }),
        (any::<u64>(), arb_moved_pair()).prop_map(|(seq, (before, after, mv))| {
            let held = before.clone();
            (
                moved_update(seq, &mut before.clone(), &after, Some(mv)),
                held,
            )
        }),
    ]
}

/// The reference RLE block: the row-delta + run-length layout written
/// one pixel at a time, with no equal-row shortcut.
fn reference_rle_block(out: &mut Vec<u8>, pixels: &[u32], width: usize) {
    let mut pairs: Vec<(u32, u32)> = Vec::new();
    for (i, &p) in pixels.iter().enumerate() {
        let delta = if width > 0 && i >= width {
            p ^ pixels[i - width]
        } else {
            p
        };
        match pairs.last_mut() {
            Some((count, value)) if *value == delta => *count += 1,
            _ => pairs.push((1, delta)),
        }
    }
    out.extend_from_slice(&(pairs.len() as u32).to_le_bytes());
    for (count, value) in pairs {
        out.extend_from_slice(&count.to_le_bytes());
        out.extend_from_slice(&value.to_le_bytes());
    }
}

/// The reference RLE body of a keyframe (`None` for other frames): the
/// `0x89` layout over [`reference_rle_block`].
fn reference_rle_body(frame: &ServerFrame) -> Option<Vec<u8>> {
    let ServerFrame::Keyframe { seq, frame } = frame else {
        return None;
    };
    let mut rle = vec![0x89];
    rle.extend_from_slice(&seq.to_le_bytes());
    rle.extend_from_slice(&(frame.width() as u32).to_le_bytes());
    rle.extend_from_slice(&(frame.height() as u32).to_le_bytes());
    reference_rle_block(&mut rle, frame.pixels(), frame.width() as usize);
    Some(rle)
}

/// The reference encoder decision: build both keyframe bodies, keep
/// the smaller (raw on a tie). An update has one body, RLE coded when
/// it carries a move or a rect; every other frame ships raw.
fn reference_packed(frame: &ServerFrame) -> (Vec<u8>, Encoding) {
    let raw = frame.encode();
    match (frame, reference_rle_body(frame)) {
        (_, Some(rle)) if rle.len() < raw.len() => (rle, Encoding::Rle),
        (ServerFrame::Update { moved, rects, .. }, _) if moved.is_some() || !rects.is_empty() => {
            (raw, Encoding::Rle)
        }
        _ => (raw, Encoding::Raw),
    }
}

/// The reference boxes of what changed from `before` to `after`, found
/// the long way: each band's bounding box of differing pixels by a
/// per-pixel scan, bands joined while they run unbroken, then the two
/// boxes with the fewest rows between them merged until at most
/// [`MAX_UPDATE_RECTS`] are left.
fn reference_boxes(before: &Framebuffer, after: &Framebuffer) -> Vec<Rect> {
    let mut boxes: Vec<Rect> = Vec::new();
    let mut open = false;
    for top in (0..after.height()).step_by(BAND_ROWS as usize) {
        let (mut x0, mut y0, mut x1, mut y1) = (i32::MAX, i32::MAX, i32::MIN, i32::MIN);
        for y in top..(top + BAND_ROWS).min(after.height()) {
            for x in 0..after.width() {
                if before.get(x, y) != after.get(x, y) {
                    (x0, y0, x1, y1) = (x0.min(x), y0.min(y), x1.max(x + 1), y1.max(y + 1));
                }
            }
        }
        let band = if x1 < x0 {
            Rect::EMPTY
        } else {
            Rect::new(x0, y0, x1 - x0, y1 - y0)
        };
        match boxes.last_mut() {
            Some(last) if open && !band.is_empty() => *last = last.union(band),
            _ if !band.is_empty() => boxes.push(band),
            _ => {}
        }
        open = !band.is_empty();
    }
    while boxes.len() > MAX_UPDATE_RECTS {
        let gaps: Vec<i32> = boxes.windows(2).map(|p| p[1].y - p[0].bottom()).collect();
        let min = *gaps.iter().min().unwrap();
        let i = gaps.iter().position(|&g| g == min).unwrap();
        boxes[i] = boxes[i].union(boxes[i + 1]);
        boxes.remove(i + 1);
    }
    boxes
}

/// The reference update body from `before` to `after`, built the long
/// way: the [`reference_boxes`], and for each the XOR of the two
/// frames over it through [`reference_rle_block`].
fn reference_update_body(seq: u64, before: &Framebuffer, after: &Framebuffer) -> Vec<u8> {
    let mut out = vec![0x83];
    out.extend_from_slice(&seq.to_le_bytes());
    let boxes = reference_boxes(before, after);
    out.extend_from_slice(&(boxes.len() as u32).to_le_bytes());
    for r in boxes {
        for v in [r.x, r.y, r.width, r.height] {
            out.extend_from_slice(&(v as u32).to_le_bytes());
        }
        let mut xor = Vec::new();
        for y in r.y..r.bottom() {
            for x in r.x..r.right() {
                xor.push(before.get(x, y).0 ^ after.get(x, y).0);
            }
        }
        reference_rle_block(&mut out, &xor, r.width as usize);
    }
    out
}

/// A bounds-checked cursor over a frame body for the reference
/// decoder.
struct Cursor<'a>(&'a [u8]);

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if n > self.0.len() {
            return Err(WireError::Truncated);
        }
        let (head, rest) = self.0.split_at(n);
        self.0 = rest;
        Ok(head)
    }

    fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn dims(&mut self) -> Result<(u32, u32), WireError> {
        let (w, h) = (self.u32()?, self.u32()?);
        if w > MAX_DIM || h > MAX_DIM {
            return Err(WireError::TooLarge);
        }
        Ok((w, h))
    }
}

/// The reference RLE decoder, in two passes: expand every run, then
/// undo the row delta top-down over the whole block. It makes the same
/// checks in the same order as the production decoder.
fn reference_rle_decode(
    c: &mut Cursor<'_>,
    count: usize,
    width: usize,
) -> Result<Vec<u32>, WireError> {
    let npairs = c.u32()? as usize;
    if npairs > count {
        return Err(WireError::TooLarge);
    }
    let mut px: Vec<u32> = Vec::with_capacity(count);
    for _ in 0..npairs {
        let n = c.u32()? as usize;
        let v = c.u32()?;
        if n == 0 || px.len() + n > count {
            return Err(WireError::TooLarge);
        }
        px.resize(px.len() + n, v);
    }
    if px.len() != count {
        return Err(WireError::Truncated);
    }
    if width > 0 {
        for i in width..count {
            px[i] ^= px[i - width];
        }
    }
    Ok(px)
}

/// What a client holding `held` is left with after a frame body: the
/// frame's `seq` and the client's framebuffer.
type Outcome = Result<(u64, Framebuffer), WireError>;

/// The production path: [`ServerFrame::decode`], then a keyframe
/// replaces `held` and an update XORs its rects into it. `None` for a
/// body that decodes to any other frame.
fn production(body: &[u8], held: &Framebuffer) -> Option<Outcome> {
    let frame = match ServerFrame::decode(body) {
        Ok(frame) => frame,
        Err(e) => return Some(Err(e)),
    };
    match frame {
        ServerFrame::Keyframe { seq, frame } => Some(Ok((seq, (*frame).clone()))),
        ServerFrame::Update { seq, moved, rects } => {
            let mut fb = held.clone();
            Some(apply_update(&mut fb, moved, &rects).map(|()| (seq, fb)))
        }
        _ => None,
    }
}

/// The reference decoder for a `0x83` or `0x8A` update or `0x89`
/// keyframe body, applied to a client holding `held`: make the move one
/// pixel at a time (the copy, then the source it left behind blanked), decode each rect's runs with
/// [`reference_rle_decode`], then XOR the rect in one pixel at a time.
/// `None` for any other tag.
fn reference(body: &[u8], held: &Framebuffer) -> Option<Outcome> {
    let (&tag, rest) = body.split_first()?;
    let mut c = Cursor(rest);
    let outcome = match tag {
        0x83 => reference_update(&mut c, held, false),
        0x8A => reference_update(&mut c, held, true),
        0x89 => reference_keyframe(&mut c),
        _ => return None,
    };
    Some(outcome.and_then(|(seq, fb, fits)| {
        if !c.0.is_empty() {
            Err(WireError::TrailingBytes)
        } else if !fits {
            Err(WireError::OutsideFrame)
        } else {
            Ok((seq, fb))
        }
    }))
}

/// Decodes an update, with a move when `moved`, against `held`; the
/// flag says whether its move and rects fit the frame (checked only
/// once the whole body decoded).
fn reference_update(
    c: &mut Cursor<'_>,
    held: &Framebuffer,
    moved: bool,
) -> Result<(u64, Framebuffer, bool), WireError> {
    let seq = c.u64()?;
    let mut fb = held.clone();
    let mut fits = true;
    // A move's or a rect's corner.
    let corner = |c: &mut Cursor<'_>| -> Result<(i32, i32), WireError> {
        let (x, y) = (c.u32()?, c.u32()?);
        if x > MAX_DIM || y > MAX_DIM {
            return Err(WireError::TooLarge);
        }
        Ok((x as i32, y as i32))
    };
    if moved {
        let (x, y) = corner(c)?;
        let (w, h) = c.dims()?;
        if w == 0 || h == 0 {
            return Err(WireError::TooLarge);
        }
        let (dx, dy) = corner(c)?;
        let (w, h) = (w as i32, h as i32);
        fits = x + w <= fb.width()
            && y + h <= fb.height()
            && dx + w <= fb.width()
            && dy + h <= fb.height();
        if fits {
            // The copy, then every source pixel it did not land on
            // blanked white.
            let old = fb.clone();
            for py in 0..h {
                for px in 0..w {
                    fb.set(dx + px, dy + py, old.get(x + px, y + py));
                }
            }
            let landed = Rect::new(dx, dy, w, h);
            for py in y..y + h {
                for px in x..x + w {
                    if !landed.contains(Point::new(px, py)) {
                        fb.set(px, py, Color::WHITE);
                    }
                }
            }
        }
    }
    let n = c.u32()?;
    if n as usize > MAX_UPDATE_RECTS {
        return Err(WireError::TooLarge);
    }
    // Each rect read so far, as (x0, y0, x1, y1), widened.
    let mut seen: Vec<(i64, i64, i64, i64)> = Vec::new();
    for _ in 0..n {
        let (x, y) = corner(c)?;
        let (w, h) = c.dims()?;
        if w == 0 || h == 0 {
            return Err(WireError::TooLarge);
        }
        let count = (w as usize) * (h as usize);
        if count * 4 > MAX_FRAME_BYTES {
            return Err(WireError::TooLarge);
        }
        let r = (x as i64, y as i64, x as i64 + w as i64, y as i64 + h as i64);
        if seen
            .iter()
            .any(|s| s.0 < r.2 && r.0 < s.2 && s.1 < r.3 && r.1 < s.3)
        {
            return Err(WireError::OverlappingRects);
        }
        seen.push(r);
        let xor = reference_rle_decode(c, count, w as usize)?;
        fits = fits && r.2 <= fb.width() as i64 && r.3 <= fb.height() as i64;
        if fits {
            for (i, v) in xor.into_iter().enumerate() {
                let (px, py) = (x + (i % w as usize) as i32, y + (i / w as usize) as i32);
                fb.set(px, py, Color(fb.get(px, py).0 ^ v));
            }
        }
    }
    Ok((seq, if fits { fb } else { held.clone() }, fits))
}

fn reference_keyframe(c: &mut Cursor<'_>) -> Result<(u64, Framebuffer, bool), WireError> {
    let seq = c.u64()?;
    let (w, h) = c.dims()?;
    let count = (w as usize) * (h as usize);
    if count * 4 > MAX_FRAME_BYTES {
        return Err(WireError::TooLarge);
    }
    let pixels = reference_rle_decode(c, count, w as usize)?;
    Ok((
        seq,
        Framebuffer::from_pixels(w as i32, h as i32, pixels),
        true,
    ))
}

/// `raw` `(length, value)` material laid end to end over `count`
/// pixels: each run is cut to what is left, and a last run of the
/// final value fills any remainder, so the runs cover `count` exactly.
fn fit_runs(raw: &[(u32, u32)], count: u32) -> Vec<(u32, u32)> {
    let mut runs = Vec::new();
    let mut left = count;
    for &(len, value) in raw {
        if left == 0 {
            break;
        }
        let n = len.min(left);
        runs.push((n, value));
        left -= n;
    }
    if left > 0 {
        runs.push((left, raw.last().map_or(0, |&(_, v)| v)));
    }
    runs
}

/// A hand-built RLE block: `(width, height, (count, value) runs)`.
type Block = (u32, u32, Vec<(u32, u32)>);

/// A hand-built RLE block `(width, height, runs)` whose runs cover it
/// exactly: widths 0, 1, 2 and 1..40; runs short or spanning several
/// rows, so they end mid-row as often as not; values mixing zero and
/// non-zero deltas.
fn arb_rle_block() -> impl Strategy<Value = Block> {
    (
        prop_oneof![Just(0u32), Just(1u32), Just(2u32), 1u32..40],
        1u32..10,
        proptest::collection::vec(
            (
                prop_oneof![1u32..4, 1u32..120],
                prop_oneof![Just(0u32), Just(0xFFFFFFu32), any::<u32>()],
            ),
            0..40,
        ),
    )
        .prop_map(|(width, height, raw)| (width, height, fit_runs(&raw, width * height)))
}

/// A hand-built `0x89` keyframe (`key`) or `0x83` update body over
/// `block`; the update's rect lands at `at`.
fn rle_body(key: bool, seq: u64, at: (u32, u32), block: &Block) -> Vec<u8> {
    let (width, height, runs) = block;
    let mut out = vec![if key { 0x89 } else { 0x83 }];
    out.extend_from_slice(&seq.to_le_bytes());
    if !key {
        out.extend_from_slice(&1u32.to_le_bytes());
        out.extend_from_slice(&at.0.to_le_bytes());
        out.extend_from_slice(&at.1.to_le_bytes());
    }
    out.extend_from_slice(&width.to_le_bytes());
    out.extend_from_slice(&height.to_le_bytes());
    out.extend_from_slice(&(runs.len() as u32).to_le_bytes());
    for (count, value) in runs {
        out.extend_from_slice(&count.to_le_bytes());
        out.extend_from_slice(&value.to_le_bytes());
    }
    out
}

/// A frame a client may hold: big enough for every hand-built rect
/// when `fits`, one pixel too narrow for any that sits at x = 1.
fn held_frame(fits: bool) -> Framebuffer {
    let pixels = (0..48u32 * 20)
        .map(|i| i.wrapping_mul(0x9E37_79B9))
        .collect();
    let fb = Framebuffer::from_pixels(48, 20, pixels);
    if fits {
        fb
    } else {
        Framebuffer::from_pixels(1, 20, vec![7; 20])
    }
}

/// A client handshaken against a keyframe of `frame`, and the server
/// half of its transport.
fn client_holding(frame: &Framebuffer) -> (ServeClient<MemTransport>, MemTransport) {
    let (client_half, mut server_half) = MemTransport::pair();
    let welcome = ServerFrame::Welcome {
        session_id: 1,
        width: frame.width() as u32,
        height: frame.height() as u32,
    };
    server_half.send(&welcome.encode()).unwrap();
    let key = keyframe(0, frame.width(), frame.height(), frame.pixels().to_vec());
    server_half.send(&key.encode_packed().0).unwrap();
    let client = ServeClient::connect(client_half, "scene").unwrap();
    (client, server_half)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(600))]

    // The packed encoder builds only the body that ships and takes an
    // equal-row shortcut; neither may change a byte of what the
    // build-both reference picks, on screen-shaped frames or on any
    // other frame.
    #[test]
    fn packed_encoder_matches_the_build_both_reference(
        frame in prop_oneof![arb_packed_frame().prop_map(|(f, _)| f), arb_server_frame()],
    ) {
        prop_assert_eq!(frame.encode_packed(), reference_packed(&frame));
    }

    // The one-pass update encoder against the long way round: the same
    // bytes for any band boxes that hold every change (the written
    // record a window reports), a baseline brought up to the new frame,
    // and a refusal exactly when the body passes the byte limit.
    #[test]
    fn update_encoder_matches_the_reference(
        pair in arb_pair(),
        seq in any::<u64>(),
        pad in (0i32..6, 0i32..6, 0i32..6, 0i32..6),
        slack in -40i64..40,
    ) {
        let (before, after) = pair;
        let want = reference_update_body(seq, &before, &after);
        let within = Rect::new(
            -pad.0,
            -pad.1,
            after.width() + pad.0 + pad.2,
            after.height() + pad.1 + pad.3,
        );
        let within = Written::covering(within.intersect(after.bounds()));
        let mut base = before.clone();
        let boxes = base.changed_boxes(&after, &within).unwrap();
        let rects = XorRect::encode_boxes(&mut base, &after, boxes.clone(), usize::MAX).unwrap();
        let frame = ServerFrame::Update { seq, moved: None, rects };
        prop_assert_eq!(frame.encode(), want.clone());
        prop_assert_eq!(frame.wire_len(), want.len());
        prop_assert_eq!(&base, &after);
        if !boxes.is_empty() {
            let limit = (want.len() as i64 + slack).max(0) as usize;
            let encoded = XorRect::encode_boxes(&mut before.clone(), &after, boxes, limit);
            prop_assert_eq!(encoded.is_some(), want.len() <= limit);
        }
    }

    // The hand-written reference decoder against the production path a
    // client runs: decode, then XOR the rect into the frame it holds.
    #[test]
    fn xor_updates_land_like_the_reference_decoder(
        pair in arb_pair(),
        seq in any::<u64>(),
    ) {
        let (before, after) = pair;
        let body = update(seq, &mut before.clone(), &after).encode();
        prop_assert_eq!(
            reference(&body, &before),
            Some(Ok((seq, after.clone())))
        );
        prop_assert_eq!(production(&body, &before), reference(&body, &before));
        let (mut client, mut server) = client_holding(&before);
        server.send(&body).unwrap();
        prop_assert_eq!(client.drain_frames().unwrap(), 1);
        prop_assert_eq!(client.framebuffer(), &after);
    }

    // Truncated or bit-flipped update bodies, and updates whose rect
    // misses the frame the client holds, give the reference's error
    // (or its frame): `WireError` from the decoder, `Protocol` from the
    // client, never a panic.
    #[test]
    fn hostile_update_bodies_are_errors_not_panics(
        pair in arb_moved_pair(),
        with_move in any::<bool>(),
        at in 0.0f64..1.0,
        flip in 1u8..255,
        cut in 0.0f64..1.0,
        narrow in any::<bool>(),
    ) {
        let (before, after, mv) = pair;
        let mut after = after;
        if !with_move {
            after = before.clone();
            after.fill_rect(Rect::new(0, 0, 2, 1), Color::BLACK);
        }
        let moved = with_move.then_some(mv);
        let body = moved_update(7, &mut before.clone(), &after, moved).encode();
        let keep = ((body.len() as f64 * cut) as usize).min(body.len() - 1);
        prop_assert!(ServerFrame::decode(&body[..keep]).is_err());
        let mut flipped = body.clone();
        let i = ((flipped.len() as f64 * at) as usize).min(flipped.len() - 1);
        flipped[i] ^= flip;
        // A client one column narrower than the frame it was sent for.
        let held = if narrow && before.width() > 1 {
            Framebuffer::from_pixels(
                before.width() - 1,
                before.height(),
                vec![0; ((before.width() - 1) * before.height()) as usize],
            )
        } else {
            before.clone()
        };
        for body in [&body, &flipped] {
            let (mut client, mut server) = client_holding(&held);
            server.send(body).unwrap();
            let got = client.drain_frames();
            // A flipped tag byte leaves the update layout; the client
            // must still not panic on it.
            let Some(want) = reference(body, &held) else {
                continue;
            };
            prop_assert_eq!(production(body, &held), Some(want.clone()));
            match want {
                Ok((_, frame)) => prop_assert_eq!(client.framebuffer(), &frame),
                Err(_) => prop_assert!(
                    matches!(got, Err(ClientError::Protocol(_))),
                    "{:?}",
                    got
                ),
            }
        }
    }

}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(600))]

    #[test]
    fn client_frames_round_trip(frame in arb_client_frame()) {
        let bytes = frame.encode().unwrap();
        prop_assert_eq!(ClientFrame::decode(&bytes).unwrap(), frame);
    }

    #[test]
    fn server_frames_round_trip(frame in arb_server_frame()) {
        let bytes = frame.encode();
        prop_assert_eq!(bytes.len(), frame.wire_len(), "wire_len disagrees with encode");
        prop_assert_eq!(ServerFrame::decode(&bytes).unwrap(), frame);
    }

    #[test]
    fn truncated_frames_error_never_panic(frame in arb_server_frame(), cut in 0.0f64..1.0) {
        let bytes = frame.encode();
        let keep = (bytes.len() as f64 * cut) as usize; // strictly short
        prop_assert!(ServerFrame::decode(&bytes[..keep.min(bytes.len() - 1)]).is_err());
    }

    #[test]
    fn corrupted_frames_never_panic(
        client in arb_client_frame(),
        server in arb_server_frame(),
        at in 0.0f64..1.0,
        flip in 1u8..255,
    ) {
        let mut bytes = server.encode();
        let i = ((bytes.len() as f64 * at) as usize).min(bytes.len() - 1);
        bytes[i] ^= flip;
        let _ = ServerFrame::decode(&bytes); // Ok or Err, never a panic.
        let mut bytes = client.encode().unwrap();
        let i = ((bytes.len() as f64 * at) as usize).min(bytes.len() - 1);
        bytes[i] ^= flip;
        let _ = ClientFrame::decode(&bytes);
    }

    #[test]
    fn byte_noise_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..160)) {
        let _ = ClientFrame::decode(&bytes);
        let _ = ServerFrame::decode(&bytes);
    }

    // The packed encoder: whatever body it picks (raw or RLE) must
    // decode back to the exact frame, and the choice must never be
    // larger than the raw wire length.
    #[test]
    fn packed_frames_round_trip(frame in arb_server_frame()) {
        let (bytes, _encoding) = frame.encode_packed();
        prop_assert!(bytes.len() <= frame.wire_len(), "packed body larger than raw");
        prop_assert_eq!(ServerFrame::decode(&bytes).unwrap(), frame);
    }

    // Runs of repeated pixels are exactly what the row-delta + RLE
    // scheme targets: flat keyframes must compress.
    #[test]
    fn flat_keyframes_compress(
        seq in any::<u64>(),
        width in 8u32..64,
        height in 8u32..64,
        fill in any::<u32>(),
    ) {
        let frame = keyframe(seq, width as i32, height as i32, vec![fill; (width * height) as usize]);
        let (bytes, encoding) = frame.encode_packed();
        prop_assert_eq!(encoding, atk_serve::Encoding::Rle);
        prop_assert!(bytes.len() * 2 < frame.wire_len(), "flat frame barely compressed");
        prop_assert_eq!(ServerFrame::decode(&bytes).unwrap(), frame);
    }

    // Truncating or corrupting an RLE body must produce `WireError`s,
    // never a panic or an allocation blow-up.
    #[test]
    fn mangled_rle_bodies_never_panic(
        frame in arb_server_frame(),
        at in 0.0f64..1.0,
        flip in 1u8..255,
        cut in 0.0f64..1.0,
    ) {
        let (bytes, _) = frame.encode_packed();
        let keep = ((bytes.len() as f64 * cut) as usize).min(bytes.len() - 1);
        prop_assert!(ServerFrame::decode(&bytes[..keep]).is_err());
        let mut mangled = bytes;
        let i = ((mangled.len() as f64 * at) as usize).min(mangled.len() - 1);
        mangled[i] ^= flip;
        let _ = ServerFrame::decode(&mangled); // Ok or Err, never a panic.
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(600))]

    // The one-pass decoders against the two-pass reference: encoded
    // screen-shaped frames land as themselves, and every truncation
    // and bit flip of their bodies gives the reference's result.
    #[test]
    fn rle_decoder_matches_the_reference_on_encoded_frames(
        case in arb_packed_frame(),
        at in 0.0f64..1.0,
        flip in 1u8..255,
        cut in 0.0f64..1.0,
    ) {
        let (frame, held) = case;
        let body = reference_rle_body(&frame).unwrap_or_else(|| frame.encode());
        let decoded = production(&body, &held).unwrap();
        prop_assert_eq!(Some(decoded.clone()), reference(&body, &held));
        prop_assert!(decoded.is_ok());
        prop_assert_eq!(ServerFrame::decode(&body).unwrap(), frame);
        // Keep the tag byte, drop at least one byte after it.
        let keep = 1 + ((body.len() - 1) as f64 * cut) as usize;
        prop_assert_eq!(production(&body[..keep], &held), reference(&body[..keep], &held));
        let mut flipped = body;
        let i = ((flipped.len() as f64 * at) as usize).min(flipped.len() - 1);
        flipped[i] ^= flip;
        // A flipped tag byte leaves the pixel layouts; nothing to compare.
        if let Some(reference) = reference(&flipped, &held) {
            prop_assert_eq!(production(&flipped, &held), Some(reference));
        }
    }

    // Hand-built runs at widths 0, 1, 2 and 1..40 that span rows, end
    // mid-row and mix zero and non-zero values decode like the
    // reference, and an update rect the held frame cannot take is
    // refused the same way.
    #[test]
    fn rle_decoder_matches_the_reference_on_hand_built_runs(
        key in any::<bool>(),
        seq in any::<u64>(),
        block in arb_rle_block(),
        fits in any::<bool>(),
    ) {
        let held = held_frame(fits);
        let body = rle_body(key, seq, (1, 2), &block);
        let decoded = production(&body, &held).unwrap();
        prop_assert_eq!(Some(decoded.clone()), reference(&body, &held));
        // Every well-formed block decodes (an update rect of width 0
        // is the one thing the rect check refuses) and lands when the
        // held frame has room for it.
        prop_assert_eq!(decoded.is_ok(), key || (block.0 > 0 && fits));
    }

    // Run counts that overshoot the block, are 0, fall short, or claim
    // more pairs than pixels give the reference's error.
    #[test]
    fn rle_decoder_matches_the_reference_on_miscounted_runs(
        key in any::<bool>(),
        block in arb_rle_block(),
        mode in 0u8..4,
        at in any::<usize>(),
        extra in 1u32..100,
    ) {
        let (width, height, mut runs) = block;
        // Dropping the last run of an empty block leaves it well formed.
        let still_valid = mode == 2 && runs.is_empty();
        match mode {
            0 => match runs.last_mut() {
                Some((count, _)) => *count += extra,
                None => runs.push((extra, 0)),
            },
            1 => runs.insert(at % (runs.len() + 1), (0, extra)),
            2 => {
                runs.pop();
            }
            _ => runs = vec![(1, extra); (width * height) as usize + 1],
        }
        let held = held_frame(true);
        let body = rle_body(key, 0, (1, 2), &(width, height, runs));
        let decoded = production(&body, &held).unwrap();
        prop_assert_eq!(Some(decoded.clone()), reference(&body, &held));
        prop_assert!(decoded.is_err() || still_valid, "miscounted body decoded");
    }
}

// A move whose corner lies past any frame, or near `i32::MAX` where a
// careless bounds check would wrap, is refused by the decoder; one
// whose source or destination leaves the frame the client holds is
// refused by the client, which keeps its frame. Nothing panics.
#[test]
fn hostile_moves_are_errors_not_panics() {
    let held = held_frame(true);
    let body = |src: Rect, dst: Point| {
        let mut out = vec![0x8A];
        out.extend_from_slice(&3u64.to_le_bytes());
        for v in [src.x, src.y, src.width, src.height, dst.x, dst.y, 0] {
            out.extend_from_slice(&(v as u32).to_le_bytes());
        }
        out
    };
    let (w, h) = (held.width(), held.height());
    let max = i32::MAX;
    for (src, dst) in [
        (Rect::new(max - 1, 0, 4, 1), Point::new(0, 0)),
        (Rect::new(0, max, 1, 2), Point::new(0, 0)),
        (Rect::new(0, 0, 4, 4), Point::new(max - 2, 0)),
        (Rect::new(0, 0, 4, 4), Point::new(0, max)),
        (Rect::new(-1, 0, 4, 4), Point::new(0, 0)),
        (Rect::new(0, 0, 0, 4), Point::new(0, 0)),
        (Rect::new(0, 0, 4, MAX_DIM as i32 + 1), Point::new(0, 0)),
    ] {
        assert_eq!(
            ServerFrame::decode(&body(src, dst)),
            Err(WireError::TooLarge),
            "{src:?} -> {dst:?}"
        );
    }
    for (src, dst) in [
        // Source past the right or bottom edge.
        (Rect::new(w - 3, 0, 4, 4), Point::new(0, 0)),
        (Rect::new(0, h - 1, 4, 2), Point::new(0, 0)),
        // Destination past the right or bottom edge.
        (Rect::new(0, 0, 4, 4), Point::new(w - 3, 0)),
        (Rect::new(0, 0, w, 4), Point::new(0, h - 3)),
        // Both inside a frame of the dimension cap, not this one.
        (Rect::new(0, 0, 4, 4), Point::new(MAX_DIM as i32 - 4, 0)),
    ] {
        let frame = ServerFrame::decode(&body(src, dst)).expect("decodes");
        let mut fb = held.clone();
        let ServerFrame::Update { moved, rects, .. } = frame else {
            panic!("not an update: {frame:?}");
        };
        assert_eq!(
            apply_update(&mut fb, moved, &rects),
            Err(WireError::OutsideFrame),
            "{src:?} -> {dst:?}"
        );
        assert_eq!(fb, held, "a refused move changed the frame");
        let (mut client, mut server) = client_holding(&held);
        server.send(&body(src, dst)).unwrap();
        assert!(matches!(
            client.drain_frames(),
            Err(ClientError::Protocol(_))
        ));
        assert_eq!(client.framebuffer(), &held);
    }
}

// An XOR rect means nothing without the frame it was taken against: a
// client that gets one where the initial keyframe belongs refuses it.
#[test]
fn an_update_before_any_keyframe_is_a_protocol_error() {
    let (client_half, mut server_half) = MemTransport::pair();
    let welcome = ServerFrame::Welcome {
        session_id: 1,
        width: 4,
        height: 2,
    };
    server_half.send(&welcome.encode()).unwrap();
    let mut before = Framebuffer::new(4, 2, Color::WHITE);
    let mut after = before.clone();
    after.set(1, 1, Color::BLACK);
    server_half
        .send(&update(1, &mut before, &after).encode())
        .unwrap();
    assert!(matches!(
        ServeClient::connect(client_half, "scene"),
        Err(ClientError::Protocol(_))
    ));
}

/// An update body of hand-built rects `(x, y, w, h, value)`, each one
/// run of `value` over its pixels.
fn rects_body(rects: &[(u32, u32, u32, u32, u32)]) -> Vec<u8> {
    let mut out = vec![0x83];
    out.extend_from_slice(&5u64.to_le_bytes());
    out.extend_from_slice(&(rects.len() as u32).to_le_bytes());
    for &(x, y, w, h, value) in rects {
        for v in [x, y, w, h, 1, w * h, value] {
            out.extend_from_slice(&v.to_le_bytes());
        }
    }
    out
}

// Updates of several rects: the encoder ships one rect per block of
// changed bands, merged down to MAX_UPDATE_RECTS, and a client applies
// them in order. Two to four hand-built rects are accepted; one rect
// past the cap, two that overlap, and one outside the frame are
// protocol errors that leave the client's frame as it was.
#[test]
fn multi_rect_updates_round_trip_and_bad_rect_lists_are_refused() {
    let blocks = MAX_UPDATE_RECTS + 2;
    let (w, h) = (24, 2 * blocks as i32 * BAND_ROWS);
    let pixels = (0..(w * h) as u32)
        .map(|i| i.wrapping_mul(0x9E37_79B9))
        .collect();
    let before = Framebuffer::from_pixels(w, h, pixels);
    for n in 1..=blocks {
        // `n` changed blocks, each in its own band, unchanged bands
        // between them.
        let mut after = before.clone();
        for k in 0..n as i32 {
            after.fill_rect(Rect::new(k, 2 * k * BAND_ROWS + 3, 5, 4), Color::BLACK);
        }
        let frame = update(9, &mut before.clone(), &after);
        let ServerFrame::Update { rects, .. } = &frame else {
            unreachable!("an update was built");
        };
        assert_eq!(rects.len(), n.min(MAX_UPDATE_RECTS), "{n} blocks");
        let body = frame.encode();
        assert_eq!(ServerFrame::decode(&body).as_ref(), Ok(&frame));
        assert_eq!(reference(&body, &before), Some(Ok((9, after.clone()))));
        let (mut client, mut server) = client_holding(&before);
        server.send(&body).unwrap();
        assert_eq!(client.drain_frames().unwrap(), 1);
        assert_eq!(client.framebuffer(), &after, "{n} blocks");
    }
    let one = |k: u32| (k, 2 * k, 1, 1, 0xFF);
    for n in 2..=MAX_UPDATE_RECTS as u32 {
        let body = rects_body(&(0..n).map(one).collect::<Vec<_>>());
        let want = reference(&body, &before);
        assert!(matches!(want, Some(Ok(_))), "{n} rects: {want:?}");
        assert_eq!(production(&body, &before), want);
    }
    let refused = [
        (
            rects_body(
                &(0..MAX_UPDATE_RECTS as u32 + 1)
                    .map(one)
                    .collect::<Vec<_>>(),
            ),
            WireError::TooLarge,
        ),
        (
            rects_body(&[(0, 0, 4, 4, 1), (8, 0, 2, 2, 1), (3, 3, 2, 2, 1)]),
            WireError::OverlappingRects,
        ),
        (
            rects_body(&[(0, 0, 4, 4, 1), (w as u32 - 1, 0, 2, 1, 1)]),
            WireError::OutsideFrame,
        ),
    ];
    for (body, err) in refused {
        assert_eq!(production(&body, &before), Some(Err(err.clone())));
        assert_eq!(reference(&body, &before), Some(Err(err.clone())));
        let (mut client, mut server) = client_holding(&before);
        server.send(&body).unwrap();
        assert!(
            matches!(client.drain_frames(), Err(ClientError::Protocol(_))),
            "{err:?}"
        );
        assert_eq!(client.framebuffer(), &before, "{err:?}");
    }
}
