//! The client half: sends steps, applies shipped frames to a local
//! framebuffer reconstruction, and keeps the accounting the loadgen
//! report and the differential oracle are built on.

use std::io;
use std::sync::Arc;
use std::time::{Duration, Instant};

use atk_core::ScriptStep;
use atk_graphics::Framebuffer;

use crate::transport::FrameTransport;
use crate::wire::{apply_update, ClientFrame, ServerFrame, WireError, MAX_FRAME_BYTES};

/// Anything that can go wrong on the client side of a session.
#[derive(Debug)]
pub enum ClientError {
    /// Transport failure.
    Io(io::Error),
    /// Frame failed to decode, or violated the protocol state machine.
    Protocol(String),
    /// The server turned the connection away (admission control).
    Busy,
    /// The server reported an error.
    Server(String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "io: {e}"),
            ClientError::Protocol(e) => write!(f, "protocol: {e}"),
            ClientError::Busy => write!(f, "server busy"),
            ClientError::Server(e) => write!(f, "server error: {e}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> ClientError {
        ClientError::Io(e)
    }
}

impl From<WireError> for ClientError {
    fn from(e: WireError) -> ClientError {
        ClientError::Protocol(e.to_string())
    }
}

/// Byte and latency accounting for one client session.
#[derive(Debug, Default, Clone)]
pub struct ClientStats {
    /// Frames received (updates + keyframes).
    pub frames: u64,
    /// Updates among them (the change against the frame held).
    pub diff_frames: u64,
    /// Full keyframes among them.
    pub key_frames: u64,
    /// Wire bytes of diff updates.
    pub diff_bytes: u64,
    /// Wire bytes of keyframes.
    pub full_bytes: u64,
    /// What the same frames would have cost shipped as keyframes —
    /// the numerator of the diff-compression ratio.
    pub keyframe_equiv_bytes: u64,
    /// Bytes that actually crossed the wire for pixel frames — smaller
    /// than `diff_bytes + full_bytes` when the server's RLE encoder
    /// won any frames.
    pub encoded_bytes: u64,
    /// Per-step latency samples in microseconds (send → frame covering
    /// that step).
    pub latencies_us: Vec<u64>,
    /// Time-to-first-frame: hello sent → initial keyframe applied,
    /// microseconds. The number the template-fork fast path exists to
    /// shrink.
    pub ttff_us: u64,
    /// The client's share of `ttff_us`: decoding the initial keyframe
    /// and adopting its pixels, microseconds.
    pub ttff_decode_us: u64,
}

/// Nearest-rank `q`-quantile of ascending `sorted` samples (0 when
/// empty).
pub(crate) fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((q * sorted.len() as f64).ceil() as usize).max(1) - 1;
    sorted[idx.min(sorted.len() - 1)]
}

/// A connected session viewed from the client side.
pub struct ServeClient<T: FrameTransport> {
    t: T,
    fb: Framebuffer,
    session_id: u64,
    sent: u64,
    acked: u64,
    in_flight: Vec<(u64, Instant)>,
    stats: ClientStats,
    ended: bool,
}

impl<T: FrameTransport> ServeClient<T> {
    /// Performs the hello handshake and applies the initial keyframe.
    pub fn connect(t: T, scene: &str) -> Result<ServeClient<T>, ClientError> {
        ServeClient::connect_backend(t, scene, None)
    }

    /// [`ServeClient::connect`] with an explicit backend request; `None`
    /// takes the server default.
    pub fn connect_backend(
        mut t: T,
        scene: &str,
        backend: Option<&str>,
    ) -> Result<ServeClient<T>, ClientError> {
        t.send(
            &ClientFrame::Hello {
                scene: scene.to_string(),
                backend: backend.map(str::to_string),
            }
            .encode()?,
        )?;
        ServeClient::handshake(t)
    }

    /// Attaches to a shared document instead of opening a private
    /// scene: the initial keyframe already shows the document's whole
    /// edit history. `scene` must name a scene for the first attacher
    /// (it creates the document) and may be `None` for joiners.
    pub fn attach(
        mut t: T,
        doc_id: &str,
        scene: Option<&str>,
    ) -> Result<ServeClient<T>, ClientError> {
        t.send(
            &ClientFrame::Attach {
                doc_id: doc_id.to_string(),
                scene: scene.map(str::to_string),
            }
            .encode()?,
        )?;
        ServeClient::handshake(t)
    }

    fn handshake(mut t: T) -> Result<ServeClient<T>, ClientError> {
        let connect_started = Instant::now();
        let (session_id, pixels) = match ServerFrame::decode(&t.recv()?)? {
            ServerFrame::Welcome {
                session_id,
                width,
                height,
            } => (session_id, width as usize * height as usize),
            ServerFrame::Busy => return Err(ClientError::Busy),
            ServerFrame::Error { message } => return Err(ClientError::Server(message)),
            other => {
                return Err(ClientError::Protocol(format!(
                    "expected welcome, got {other:?}"
                )))
            }
        };
        // The client's one frame store, sized now: the keyframe that
        // follows decodes into it before its bytes take any memory.
        let store = Vec::with_capacity(if pixels * 4 <= MAX_FRAME_BYTES {
            pixels
        } else {
            0
        });
        let mut client = ServeClient {
            t,
            // Empty until the initial keyframe, which always replaces it.
            fb: Framebuffer::from_pixels(0, 0, store),
            session_id,
            sent: 0,
            acked: 0,
            in_flight: Vec::new(),
            stats: ClientStats::default(),
            ended: false,
        };
        // The initial keyframe follows the welcome unconditionally.
        client.stats.ttff_decode_us = client.recv_and_apply()?.as_micros() as u64;
        client.stats.ttff_us = connect_started.elapsed().as_micros() as u64;
        Ok(client)
    }

    /// Server-assigned session id.
    pub fn session_id(&self) -> u64 {
        self.session_id
    }

    /// The reconstructed framebuffer.
    pub fn framebuffer(&self) -> &Framebuffer {
        &self.fb
    }

    /// Accounting so far.
    pub fn stats(&self) -> &ClientStats {
        &self.stats
    }

    /// Sends a step without waiting for its frame (pipelined mode).
    pub fn send_step(&mut self, step: &ScriptStep) -> Result<(), ClientError> {
        self.t.send(&ClientFrame::Step(step.clone()).encode()?)?;
        self.sent += 1;
        self.in_flight.push((self.sent, Instant::now()));
        Ok(())
    }

    /// Sends a step and blocks until a frame covering it arrives
    /// (synchronous mode: one step, one frame).
    pub fn step_sync(&mut self, step: &ScriptStep) -> Result<(), ClientError> {
        self.send_step(step)?;
        self.sync()
    }

    /// Blocks until every step sent so far is covered by a frame.
    pub fn sync(&mut self) -> Result<(), ClientError> {
        while self.acked < self.sent && !self.ended {
            self.recv_and_apply()?;
        }
        Ok(())
    }

    /// Blocks for the next server frame and applies it, returning the
    /// time spent decoding and applying (not waiting for) the frame.
    fn recv_and_apply(&mut self) -> Result<Duration, ClientError> {
        let body = self.t.recv()?;
        let started = Instant::now();
        self.decode_and_apply(&body)?;
        Ok(started.elapsed())
    }

    /// Decodes one frame body, a keyframe into the store of the frame
    /// it replaces, and applies it.
    fn decode_and_apply(&mut self, body: &[u8]) -> Result<(), ClientError> {
        let frame = ServerFrame::decode_replacing(body, &mut self.fb)?;
        self.apply_frame(frame, body.len())
    }

    /// Pipelining window: how many sent steps no frame has covered yet.
    pub fn unacked(&self) -> u64 {
        self.sent - self.acked
    }

    /// Applies every frame already buffered on the transport without
    /// blocking, returning how many were applied. This is the watcher
    /// side of a shared document: a replica that never types still
    /// receives a diff for every remote edit, and draining keeps its
    /// reconstruction current between blocking syncs.
    pub fn drain_frames(&mut self) -> Result<usize, ClientError> {
        let mut applied = 0;
        while !self.ended {
            match self.t.try_recv()? {
                Some(body) => {
                    self.decode_and_apply(&body)?;
                    applied += 1;
                }
                None => break,
            }
        }
        Ok(applied)
    }

    /// True once the server said goodbye (orderly end or eviction).
    pub fn ended(&self) -> bool {
        self.ended
    }

    /// Requests the server-wide stats snapshot and blocks until the
    /// reply arrives, applying any update frames (for steps already in
    /// flight) along the way. Returns `(text, json)`.
    pub fn request_stats(&mut self) -> Result<(String, String), ClientError> {
        self.t.send(&ClientFrame::StatsReq.encode()?)?;
        loop {
            let body = self.t.recv()?;
            let frame = ServerFrame::decode_replacing(&body, &mut self.fb)?;
            if let ServerFrame::Stats { text, json } = frame {
                return Ok((text, json));
            }
            self.apply_frame(frame, body.len())?;
            if self.ended {
                return Err(ClientError::Protocol(
                    "session ended before stats reply".into(),
                ));
            }
        }
    }

    /// Says goodbye, drains the final frames, and returns the stats.
    pub fn finish(self) -> Result<ClientStats, ClientError> {
        self.finish_with_frame().map(|(stats, _)| stats)
    }

    /// [`ServeClient::finish`], but also returns the final
    /// reconstructed framebuffer — after every catch-up frame the
    /// server shipped before its `Bye` was applied. For attached
    /// sessions this is the converged document state, which the
    /// divergence checks compare across replicas.
    pub fn finish_with_frame(mut self) -> Result<(ClientStats, Framebuffer), ClientError> {
        if !self.ended {
            self.t.send(&ClientFrame::Bye.encode()?)?;
            while !self.ended {
                self.recv_and_apply()?;
            }
        }
        Ok((self.stats, self.fb))
    }

    fn note_frame(&mut self, seq: u64, wire_len: usize, encoded_len: usize, key: bool) {
        let now = Instant::now();
        self.acked = self.acked.max(seq);
        let mut done = Vec::new();
        self.in_flight.retain(|(idx, sent_at)| {
            if *idx <= seq {
                done.push(now.duration_since(*sent_at).as_micros() as u64);
                false
            } else {
                true
            }
        });
        self.stats.latencies_us.extend(done);
        self.stats.frames += 1;
        if key {
            self.stats.key_frames += 1;
            self.stats.full_bytes += wire_len as u64;
        } else {
            self.stats.diff_frames += 1;
            self.stats.diff_bytes += wire_len as u64;
        }
        let pixels = self.fb.width() as u64 * self.fb.height() as u64;
        self.stats.keyframe_equiv_bytes += pixels * 4 + 1 + 8 + 4 + 4;
        self.stats.encoded_bytes += encoded_len as u64;
    }

    /// Applies one decoded frame. `encoded_len` is the length of the
    /// wire body it arrived in (a packed keyframe is shorter than
    /// [`ServerFrame::wire_len`], and the stats track both).
    fn apply_frame(&mut self, frame: ServerFrame, encoded_len: usize) -> Result<(), ClientError> {
        let wire_len = frame.wire_len();
        match frame {
            ServerFrame::Update { seq, moved, rects } => {
                apply_update(&mut self.fb, moved, &rects)?;
                self.note_frame(seq, wire_len, encoded_len, false);
            }
            ServerFrame::Keyframe { seq, frame } => {
                // A freshly decoded frame is ours alone: adopt its
                // pixels instead of copying them.
                self.fb = Arc::try_unwrap(frame).unwrap_or_else(|shared| (*shared).clone());
                self.note_frame(seq, wire_len, encoded_len, true);
            }
            ServerFrame::Bye { .. } => {
                self.ended = true;
                self.acked = self.sent;
            }
            ServerFrame::Error { message } => return Err(ClientError::Server(message)),
            ServerFrame::Welcome { .. } | ServerFrame::Busy => {
                return Err(ClientError::Protocol("handshake frame mid-session".into()))
            }
            ServerFrame::Stats { .. } => {
                // Only request_stats expects one; anything else is a
                // protocol violation.
                return Err(ClientError::Protocol("unsolicited stats frame".into()));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::MemTransport;
    use crate::wire::XorRect;
    use atk_graphics::Rect;

    /// A client handshaken against a preloaded `width`×`height`
    /// keyframe of `pixels`, shipped in its packed encoding.
    fn client_of(width: i32, height: i32, pixels: Vec<u32>) -> ServeClient<MemTransport> {
        let (client_half, mut server_half) = MemTransport::pair();
        let welcome = ServerFrame::Welcome {
            session_id: 1,
            width: width as u32,
            height: height as u32,
        };
        let key = ServerFrame::Keyframe {
            seq: 0,
            frame: Arc::new(Framebuffer::from_pixels(width, height, pixels)),
        };
        server_half.send(&welcome.encode()).unwrap();
        server_half.send(&key.encode_packed().0).unwrap();
        let client = ServeClient::handshake(client_half).unwrap();
        // The server half may drop: the client never reads again.
        drop(server_half);
        client
    }

    /// A client handshaken against a preloaded 4×2 keyframe.
    fn client() -> ServeClient<MemTransport> {
        client_of(4, 2, (0..8).collect())
    }

    #[test]
    fn ttff_records_the_keyframe_decode_inside_it() {
        // A fig5-sized frame, shipped RLE-encoded as servers ship it.
        let c = client_of(560, 560, vec![0xFFFFFF; 560 * 560]);
        assert_eq!(c.framebuffer().pixels().len(), 560 * 560);
        let stats = c.stats();
        assert_eq!(stats.key_frames, 1);
        assert!(
            stats.encoded_bytes < stats.full_bytes,
            "the keyframe shipped packed"
        );
        assert!(
            stats.ttff_decode_us <= stats.ttff_us,
            "decode {} us outside ttff {} us",
            stats.ttff_decode_us,
            stats.ttff_us
        );
    }

    #[test]
    fn keyframe_is_adopted_and_patches_land_by_row() {
        let mut c = client();
        assert_eq!(c.framebuffer().pixels(), &[0, 1, 2, 3, 4, 5, 6, 7]);
        // The server's copy of the client's frame, brought to `want` by
        // the update it encodes.
        let mut base = c.framebuffer().clone();
        let want = Framebuffer::from_pixels(4, 2, vec![0, 10, 11, 12, 4, 13, 14, 15]);
        let patch = XorRect::encode(&mut base, &want, Rect::new(1, 0, 3, 2), usize::MAX);
        let update = ServerFrame::Update {
            seq: 0,
            moved: None,
            rects: vec![patch.unwrap()],
        };
        c.decode_and_apply(&update.encode()).unwrap();
        assert_eq!(c.framebuffer(), &want);
        assert_eq!(base, want);
    }

    #[test]
    fn hostile_patch_rects_are_protocol_errors() {
        let mut c = client();
        for rect in [
            // Decodable origins whose far edge overflows `i32`.
            Rect::new(i32::MAX - 1, 0, 4, 1),
            Rect::new(0, i32::MAX, 1, 2),
            Rect::new(2, 1, 3, 1),
        ] {
            // An update body with one run over the whole rect.
            let mut body = vec![0x83];
            body.extend_from_slice(&0u64.to_le_bytes());
            let count = (rect.width * rect.height) as u32;
            for v in [1, rect.x as u32, rect.y as u32, rect.width as u32]
                .into_iter()
                .chain([rect.height as u32, 1, count, 0xFF])
            {
                body.extend_from_slice(&v.to_le_bytes());
            }
            assert!(
                matches!(c.decode_and_apply(&body), Err(ClientError::Protocol(_))),
                "{rect:?}"
            );
        }
        assert_eq!(c.framebuffer().pixels(), &[0, 1, 2, 3, 4, 5, 6, 7]);
    }
}
