//! Property tests over the wire protocol: every well-formed frame
//! round-trips byte-exactly, no byte sequence — truncated, corrupted,
//! or pure noise — makes the decoder panic, the packed encoder emits
//! exactly what a straightforward reference encoder would, and the RLE
//! decoder returns exactly what a straightforward two-pass reference
//! decoder would, pixels or error.

use std::sync::Arc;

use atk_core::ScriptStep;
use atk_graphics::{Framebuffer, Point, Rect, Size};
use atk_serve::wire::{
    ClientFrame, Encoding, PatchRect, ServerFrame, WireError, MAX_DIM, MAX_FRAME_BYTES, MAX_RECTS,
};
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

fn arb_patch() -> impl Strategy<Value = PatchRect> {
    (0i32..500, 0i32..500, 1i32..32, 1i32..32, any::<u32>()).prop_map(|(x, y, w, h, fill)| {
        PatchRect {
            rect: Rect::new(x, y, w, h),
            pixels: (0..(w * h) as usize)
                .map(|i| fill.wrapping_add(i as u32))
                .collect(),
        }
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
        (any::<u64>(), proptest::collection::vec(arb_patch(), 0..6))
            .prop_map(|(seq, rects)| ServerFrame::Update { seq, rects }),
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

fn arb_packed_frame() -> impl Strategy<Value = ServerFrame> {
    prop_oneof![
        (any::<u64>(), arb_grid(0))
            .prop_map(|(seq, (width, height, pixels))| keyframe(seq, width, height, pixels)),
        (
            any::<u64>(),
            proptest::collection::vec((0i32..500, 0i32..500, arb_grid(1)), 0..4),
        )
            .prop_map(|(seq, patches)| ServerFrame::Update {
                seq,
                rects: patches
                    .into_iter()
                    .map(|(x, y, (w, h, pixels))| PatchRect {
                        rect: Rect::new(x, y, w, h),
                        pixels,
                    })
                    .collect(),
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

/// The reference RLE body of a pixel-bearing frame (`None` for the
/// others): the `0x88`/`0x89` layout over [`reference_rle_block`].
fn reference_rle_body(frame: &ServerFrame) -> Option<Vec<u8>> {
    let mut rle = Vec::new();
    match frame {
        ServerFrame::Update { seq, rects } => {
            rle.push(0x88);
            rle.extend_from_slice(&seq.to_le_bytes());
            rle.extend_from_slice(&(rects.len() as u32).to_le_bytes());
            for patch in rects {
                let r = patch.rect;
                for v in [r.x, r.y, r.width, r.height] {
                    rle.extend_from_slice(&(v as u32).to_le_bytes());
                }
                reference_rle_block(&mut rle, &patch.pixels, r.width as usize);
            }
        }
        ServerFrame::Keyframe { seq, frame } => {
            rle.push(0x89);
            rle.extend_from_slice(&seq.to_le_bytes());
            rle.extend_from_slice(&(frame.width() as u32).to_le_bytes());
            rle.extend_from_slice(&(frame.height() as u32).to_le_bytes());
            reference_rle_block(&mut rle, frame.pixels(), frame.width() as usize);
        }
        _ => return None,
    }
    Some(rle)
}

/// The reference encoder decision: build both bodies, keep the smaller
/// (raw on a tie).
fn reference_packed(frame: &ServerFrame) -> (Vec<u8>, Encoding) {
    let raw = frame.encode();
    match reference_rle_body(frame) {
        Some(rle) if rle.len() < raw.len() => (rle, Encoding::Rle),
        _ => (raw, Encoding::Raw),
    }
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

/// Decodes a `0x88` update or `0x89` keyframe body with
/// [`reference_rle_decode`]; `None` for any other tag.
fn reference_decode(buf: &[u8]) -> Option<Result<ServerFrame, WireError>> {
    let (&tag, body) = buf.split_first()?;
    let mut c = Cursor(body);
    let frame = match tag {
        0x88 => reference_update(&mut c),
        0x89 => reference_keyframe(&mut c),
        _ => return None,
    };
    Some(frame.and_then(|f| {
        if c.0.is_empty() {
            Ok(f)
        } else {
            Err(WireError::TrailingBytes)
        }
    }))
}

fn reference_update(c: &mut Cursor<'_>) -> Result<ServerFrame, WireError> {
    let seq = c.u64()?;
    let n = c.u32()? as usize;
    if n > MAX_RECTS {
        return Err(WireError::TooLarge);
    }
    let mut rects = Vec::new();
    let mut total_px = 0usize;
    for _ in 0..n {
        let x = c.u32()? as i32;
        let y = c.u32()? as i32;
        let (w, h) = c.dims()?;
        if x < 0 || y < 0 || w == 0 || h == 0 {
            return Err(WireError::TooLarge);
        }
        let count = (w as usize) * (h as usize);
        total_px += count;
        if total_px * 4 > MAX_FRAME_BYTES {
            return Err(WireError::TooLarge);
        }
        let pixels = reference_rle_decode(c, count, w as usize)?;
        rects.push(PatchRect {
            rect: Rect::new(x, y, w as i32, h as i32),
            pixels,
        });
    }
    Ok(ServerFrame::Update { seq, rects })
}

fn reference_keyframe(c: &mut Cursor<'_>) -> Result<ServerFrame, WireError> {
    let seq = c.u64()?;
    let (w, h) = c.dims()?;
    let count = (w as usize) * (h as usize);
    if count * 4 > MAX_FRAME_BYTES {
        return Err(WireError::TooLarge);
    }
    let pixels = reference_rle_decode(c, count, w as usize)?;
    Ok(keyframe(seq, w as i32, h as i32, pixels))
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

/// A hand-built `0x89` keyframe (`key`, over the first block) or
/// `0x88` update (one rect per block) body.
fn rle_body(key: bool, seq: u64, blocks: &[Block]) -> Vec<u8> {
    let mut out = vec![if key { 0x89 } else { 0x88 }];
    out.extend_from_slice(&seq.to_le_bytes());
    let blocks = if key { &blocks[..1] } else { blocks };
    if !key {
        out.extend_from_slice(&(blocks.len() as u32).to_le_bytes());
    }
    for (i, (width, height, runs)) in blocks.iter().enumerate() {
        if !key {
            out.extend_from_slice(&(i as u32 * 3).to_le_bytes());
            out.extend_from_slice(&(i as u32).to_le_bytes());
        }
        out.extend_from_slice(&width.to_le_bytes());
        out.extend_from_slice(&height.to_le_bytes());
        out.extend_from_slice(&(runs.len() as u32).to_le_bytes());
        for (count, value) in runs {
            out.extend_from_slice(&count.to_le_bytes());
            out.extend_from_slice(&value.to_le_bytes());
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(600))]

    // The packed encoder builds only the body that ships and takes an
    // equal-row shortcut; neither may change a byte of what the
    // build-both reference picks, on screen-shaped frames or on any
    // other frame.
    #[test]
    fn packed_encoder_matches_the_build_both_reference(
        frame in prop_oneof![arb_packed_frame(), arb_server_frame()],
    ) {
        prop_assert_eq!(frame.encode_packed(), reference_packed(&frame));
    }

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

    // The one-pass RLE decoder against the two-pass reference: encoded
    // screen-shaped frames decode to themselves, and every truncation
    // and bit flip of their RLE bodies gives the reference's result.
    #[test]
    fn rle_decoder_matches_the_reference_on_encoded_frames(
        frame in arb_packed_frame(),
        at in 0.0f64..1.0,
        flip in 1u8..255,
        cut in 0.0f64..1.0,
    ) {
        let body = reference_rle_body(&frame).unwrap();
        let decoded = ServerFrame::decode(&body);
        prop_assert_eq!(Some(decoded.clone()), reference_decode(&body));
        // A zero-width update rect is the one thing the rect check
        // refuses; every other frame decodes to itself.
        let zero_width =
            matches!(&frame, ServerFrame::Update { rects, .. } if rects.iter().any(|p| p.rect.width == 0));
        prop_assert_eq!(decoded.is_ok(), !zero_width);
        if let Ok(decoded) = decoded {
            prop_assert_eq!(decoded, frame);
        }
        // Keep the tag byte, drop at least one byte after it.
        let keep = 1 + ((body.len() - 1) as f64 * cut) as usize;
        prop_assert_eq!(Some(ServerFrame::decode(&body[..keep])), reference_decode(&body[..keep]));
        let mut flipped = body;
        let i = ((flipped.len() as f64 * at) as usize).min(flipped.len() - 1);
        flipped[i] ^= flip;
        // A flipped tag byte leaves the RLE layouts; nothing to compare.
        if let Some(reference) = reference_decode(&flipped) {
            prop_assert_eq!(ServerFrame::decode(&flipped), reference);
        }
    }

    // Hand-built runs at widths 0, 1, 2 and 1..40 that span rows, end
    // mid-row and mix zero and non-zero values decode like the
    // reference.
    #[test]
    fn rle_decoder_matches_the_reference_on_hand_built_runs(
        key in any::<bool>(),
        seq in any::<u64>(),
        blocks in proptest::collection::vec(arb_rle_block(), 1..4),
    ) {
        let body = rle_body(key, seq, &blocks);
        let decoded = ServerFrame::decode(&body);
        prop_assert_eq!(Some(decoded.clone()), reference_decode(&body));
        // Every well-formed block decodes (an update rect of width 0
        // is the one thing the rect check refuses).
        prop_assert_eq!(decoded.is_ok(), key || blocks.iter().all(|b| b.0 > 0));
    }

    // Run counts that overshoot the block, are 0, fall short, or claim
    // more pairs than pixels give the reference's error.
    #[test]
    fn rle_decoder_matches_the_reference_on_miscounted_runs(
        key in any::<bool>(),
        blocks in proptest::collection::vec(arb_rle_block(), 1..4),
        which in any::<usize>(),
        mode in 0u8..4,
        at in any::<usize>(),
        extra in 1u32..100,
    ) {
        let mut blocks = blocks;
        // A keyframe carries only the first block.
        let shown = if key { 1 } else { blocks.len() };
        let (width, height, runs) = &mut blocks[which % shown];
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
            _ => *runs = vec![(1, extra); (*width * *height) as usize + 1],
        }
        let body = rle_body(key, 0, &blocks);
        let decoded = ServerFrame::decode(&body);
        prop_assert_eq!(Some(decoded.clone()), reference_decode(&body));
        prop_assert!(decoded.is_err() || still_valid, "miscounted body decoded");
    }
}
