//! Fault injection for the transport layer.
//!
//! [`FaultTransport`] wraps any [`FrameTransport`] and re-frames its
//! traffic as a raw byte stream delivered in adversarially-chosen
//! fragments, the way a hostile network or a starved kernel buffer
//! would: seeded short writes and short reads (a frame arrives in 1–N
//! byte segments, never aligned to frame boundaries), `WouldBlock`
//! storms (the readiness poll spuriously reports nothing buffered), and
//! mid-frame disconnects (the stream dies with part of a frame's bytes
//! already delivered).
//!
//! Two guarantees make this a *test substrate* rather than chaos for
//! its own sake:
//!
//! * **Faults are lossless until a disconnect.** Fragmentation and
//!   delay reorder *when* bytes arrive, never *which* bytes — every
//!   frame that completes is byte-identical to what was sent, in order.
//!   The proptests in `tests/fault_props.rs` hold that line for
//!   arbitrary seeded schedules.
//! * **A disconnect is clean.** The victim sees a normal transport
//!   error (`UnexpectedEof`/`BrokenPipe`); a half-delivered frame is
//!   never surfaced as a (truncated, corrupt) frame body.
//!
//! Both halves of a pipe must be fault-wrapped (one may use
//! [`FaultPlan::passthrough`]): the wrapper speaks "byte segments over
//! inner frames" on the wire, so a bare peer would misread segments as
//! frames.

use std::io;
use std::thread::Thread;

use crate::transport::{extract_frame, FrameTransport};

/// A tiny deterministic xorshift64* generator, so fault schedules are
/// reproducible from a seed without any RNG dependency.
#[derive(Debug, Clone)]
pub(crate) struct FaultRng(u64);

impl FaultRng {
    pub(crate) fn new(seed: u64) -> FaultRng {
        // Zero is a fixed point of xorshift; nudge it.
        FaultRng(seed ^ 0x9E37_79B9_7F4A_7C15)
    }

    pub(crate) fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform-ish value in `1..=max`.
    pub(crate) fn chunk(&mut self, max: usize) -> usize {
        1 + (self.next_u64() as usize) % max.max(1)
    }

    /// True with probability `p/256`.
    pub(crate) fn roll(&mut self, p: u8) -> bool {
        (self.next_u64() & 0xFF) < p as u64
    }
}

/// A seeded schedule of transport faults.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    /// Seed for the whole schedule; same seed, same faults.
    pub seed: u64,
    /// Outgoing bytes are split into segments of `1..=max_chunk` bytes
    /// (seeded sizes) — short writes on this side are short reads on
    /// the peer. `0` disables fragmentation (each frame's bytes ship
    /// as one segment).
    pub max_chunk: usize,
    /// Probability (out of 256) that one `try_recv` poll spuriously
    /// reports "nothing ready" even though bytes are buffered — a
    /// `WouldBlock` storm under a repeated-poll loop.
    pub wouldblock_p: u8,
    /// Cut the connection after this many outgoing bytes, which lands
    /// mid-frame for any cut that does not hit a frame boundary. The
    /// peer sees EOF after draining what was already delivered.
    pub disconnect_after: Option<u64>,
}

impl FaultPlan {
    /// Aggressive but lossless: heavy fragmentation and `WouldBlock`
    /// storms, no disconnect. Every frame still arrives byte-identical.
    pub fn lossless(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            max_chunk: 7,
            wouldblock_p: 96,
            disconnect_after: None,
        }
    }

    /// No faults at all — for the peer half of a fault-wrapped pipe.
    pub fn passthrough() -> FaultPlan {
        FaultPlan {
            seed: 0,
            max_chunk: 0,
            wouldblock_p: 0,
            disconnect_after: None,
        }
    }

    /// Lossless faults plus a mid-stream cut after `bytes` outgoing
    /// bytes.
    pub fn disconnecting(seed: u64, bytes: u64) -> FaultPlan {
        FaultPlan {
            disconnect_after: Some(bytes),
            ..FaultPlan::lossless(seed)
        }
    }
}

/// A [`FrameTransport`] wrapper that injects the faults of a
/// [`FaultPlan`] between the wire codec and the real transport. See the
/// module docs for the delivery guarantees.
pub struct FaultTransport<T: FrameTransport> {
    /// `None` once a scheduled disconnect fired; every later operation
    /// fails the way a dead socket would.
    inner: Option<T>,
    plan: FaultPlan,
    rng: FaultRng,
    /// Outgoing bytes shipped so far (for the disconnect budget).
    sent: u64,
    /// Reassembly buffer for incoming segments.
    in_buf: Vec<u8>,
    /// The doorbell, also given to the inner transport. A spurious
    /// not-ready rings it, since the inner transport will not: the data
    /// is already here.
    bell: Option<Thread>,
}

impl<T: FrameTransport> FaultTransport<T> {
    /// Wraps `inner` under `plan`.
    pub fn new(inner: T, plan: FaultPlan) -> FaultTransport<T> {
        let rng = FaultRng::new(plan.seed);
        FaultTransport {
            inner: Some(inner),
            plan,
            rng,
            sent: 0,
            in_buf: Vec::new(),
            bell: None,
        }
    }

    fn inner_mut(&mut self) -> io::Result<&mut T> {
        self.inner
            .as_mut()
            .ok_or_else(|| io::Error::from(io::ErrorKind::BrokenPipe))
    }

    /// Drops the inner transport, which is how the peer learns of the
    /// disconnect (an in-memory peer wakes with EOF; a TCP peer sees
    /// the stream close).
    fn cut(&mut self) -> io::Error {
        self.inner = None;
        io::ErrorKind::BrokenPipe.into()
    }
}

impl<T: FrameTransport> FrameTransport for FaultTransport<T> {
    fn send(&mut self, body: &[u8]) -> io::Result<()> {
        // Re-frame: the length prefix travels inside the byte stream so
        // fragmentation can split it like TCP would.
        let mut bytes = Vec::with_capacity(4 + body.len());
        bytes.extend_from_slice(&(body.len() as u32).to_le_bytes());
        bytes.extend_from_slice(body);

        let mut off = 0usize;
        while off < bytes.len() {
            let mut take = if self.plan.max_chunk == 0 {
                bytes.len() - off
            } else {
                self.rng.chunk(self.plan.max_chunk).min(bytes.len() - off)
            };
            if let Some(cut) = self.plan.disconnect_after {
                let budget = cut.saturating_sub(self.sent);
                if budget == 0 {
                    return Err(self.cut());
                }
                take = take.min(budget as usize);
            }
            self.inner_mut()?.send(&bytes[off..off + take])?;
            off += take;
            self.sent += take as u64;
        }
        Ok(())
    }

    fn recv(&mut self) -> io::Result<Vec<u8>> {
        loop {
            if let Some(body) = extract_frame(&mut self.in_buf)? {
                return Ok(body);
            }
            let seg = self.inner_mut().map_err(|_| {
                // Disconnected with no complete frame left: EOF, not a
                // partial frame.
                io::Error::from(io::ErrorKind::UnexpectedEof)
            })?;
            let seg = seg.recv()?;
            self.in_buf.extend_from_slice(&seg);
        }
    }

    fn try_recv(&mut self) -> io::Result<Option<Vec<u8>>> {
        if self.rng.roll(self.plan.wouldblock_p) {
            // Spurious not-ready: the readiness loop must tolerate
            // polls that lie about buffered data. Ring, or a poller
            // that parks on this answer would sleep through that data.
            if let Some(bell) = &self.bell {
                bell.unpark();
            }
            return Ok(None);
        }
        // Drain everything buffered right now, noting EOF as a *flag*
        // rather than re-probing the inner transport after extraction:
        // a second probe can race a concurrent sender and observe a
        // fresh segment, and any segment it observes but does not
        // buffer is bytes silently dropped from the stream — a desync
        // that surfaces far away as a garbage length prefix.
        let mut peer_eof = false;
        loop {
            match self.inner_mut() {
                Ok(inner) => match inner.try_recv() {
                    Ok(Some(seg)) => {
                        self.in_buf.extend_from_slice(&seg);
                        continue;
                    }
                    Ok(None) => break,
                    Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => {
                        // Peer gone: surface any complete frame first;
                        // the next poll re-observes the EOF.
                        peer_eof = true;
                        break;
                    }
                    Err(e) => return Err(e),
                },
                // Our own scheduled cut fired earlier.
                Err(_) => {
                    peer_eof = true;
                    break;
                }
            }
        }
        match extract_frame(&mut self.in_buf)? {
            Some(body) => Ok(Some(body)),
            // No complete frame and the pipe is down: EOF, so the
            // shard closes the connection instead of polling a dead
            // pipe forever. A trailing partial frame is never
            // surfaced as a frame.
            None if peer_eof => Err(io::ErrorKind::UnexpectedEof.into()),
            None => Ok(None),
        }
    }

    fn set_doorbell(&mut self, bell: Thread) {
        if let Some(inner) = &mut self.inner {
            inner.set_doorbell(bell.clone());
        }
        self.bell = Some(bell);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::MemTransport;

    fn fault_pair(
        a: FaultPlan,
        b: FaultPlan,
    ) -> (FaultTransport<MemTransport>, FaultTransport<MemTransport>) {
        let (x, y) = MemTransport::pair();
        (FaultTransport::new(x, a), FaultTransport::new(y, b))
    }

    #[test]
    fn heavy_fragmentation_delivers_frames_byte_identical_in_order() {
        let (mut a, mut b) = fault_pair(FaultPlan::lossless(7), FaultPlan::lossless(8));
        let frames: Vec<Vec<u8>> = (0..20u8)
            .map(|i| (0..=i).map(|j| i ^ j).collect())
            .collect();
        for f in &frames {
            a.send(f).unwrap();
        }
        for f in &frames {
            assert_eq!(&b.recv().unwrap(), f);
        }
    }

    #[test]
    fn wouldblock_storms_only_delay_never_drop() {
        let plan = FaultPlan {
            wouldblock_p: 250,
            ..FaultPlan::lossless(3)
        };
        let (mut a, mut b) = fault_pair(FaultPlan::passthrough(), plan);
        a.send(b"payload").unwrap();
        // A repeated-poll loop eventually gets the frame despite the
        // storm; 10_000 polls at p=250/256 fail with probability ~0.
        let mut got = None;
        for _ in 0..10_000 {
            if let Some(f) = b.try_recv().unwrap() {
                got = Some(f);
                break;
            }
        }
        assert_eq!(got.as_deref(), Some(&b"payload"[..]));
    }

    #[test]
    fn mid_frame_disconnect_is_a_clean_error_not_a_partial_frame() {
        // Cut lands inside the second frame's bytes.
        let first = vec![1u8; 16];
        let cut_bytes = (4 + first.len() + 9) as u64;
        let (mut a, mut b) = fault_pair(
            FaultPlan::disconnecting(5, cut_bytes),
            FaultPlan::passthrough(),
        );
        a.send(&first).unwrap();
        let err = a.send(&[2u8; 32]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::BrokenPipe);
        // Everything already sent survives intact...
        assert_eq!(b.recv().unwrap(), first);
        // ...and the half-delivered frame is EOF, never a short body.
        let err = b.recv().unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    /// Regression: a segment arriving *between* the drain loop's
    /// not-ready answer and any later same-call probe of the inner
    /// transport must not be lost. The old `try_recv` re-probed the
    /// inner transport after frame extraction (to distinguish idle
    /// from EOF) and discarded a segment that probe observed —
    /// silently dropping bytes whenever a sender raced the poll, which
    /// desynced the stream into garbage length prefixes. The scripted
    /// inner transport below replays that exact interleaving
    /// deterministically.
    #[test]
    fn segment_racing_the_poll_is_never_dropped() {
        use std::collections::VecDeque;

        /// An inner transport that answers `try_recv` from a script.
        struct Scripted(VecDeque<Option<Vec<u8>>>);
        impl FrameTransport for Scripted {
            fn send(&mut self, _body: &[u8]) -> io::Result<()> {
                Ok(())
            }
            fn recv(&mut self) -> io::Result<Vec<u8>> {
                unreachable!("test only polls")
            }
            fn try_recv(&mut self) -> io::Result<Option<Vec<u8>>> {
                Ok(self.0.pop_front().flatten())
            }
            fn set_doorbell(&mut self, _bell: Thread) {}
        }

        // One frame, body "hello", split so the first poll sees only a
        // partial frame, then a not-ready, then (a later observation)
        // the rest — the race schedule that used to lose the tail.
        let mut stream = Vec::new();
        stream.extend_from_slice(&5u32.to_le_bytes());
        stream.extend_from_slice(b"hello");
        let script = VecDeque::from([Some(stream[..6].to_vec()), None, Some(stream[6..].to_vec())]);
        let mut t = FaultTransport::new(Scripted(script), FaultPlan::passthrough());
        let mut got = None;
        for _ in 0..8 {
            if let Some(f) = t.try_recv().unwrap() {
                got = Some(f);
                break;
            }
        }
        assert_eq!(got.as_deref(), Some(&b"hello"[..]));
    }

    #[test]
    fn dead_pipe_fails_every_later_operation() {
        let (mut a, _b) = fault_pair(FaultPlan::disconnecting(1, 0), FaultPlan::passthrough());
        assert!(a.send(b"x").is_err());
        assert!(a.send(b"y").is_err());
        assert!(a.recv().is_err());
    }
}
