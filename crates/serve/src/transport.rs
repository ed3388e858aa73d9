//! Frame transports: length-prefixed byte framing over TCP, plus an
//! in-memory pair for tests and benches.
//!
//! A transport moves opaque frame *bodies* (see [`crate::wire`]); the
//! `[u32 LE length]` prefix is this layer's concern. Both ends of a
//! session hold one transport each. Only the transport halves cross
//! threads — the hosted `World` itself is built inside the connection
//! thread and never moves (it is deliberately `!Send`).

use std::collections::VecDeque;
use std::io::{self, IoSlice, Read, Write};
use std::net::TcpStream;
use std::sync::{Arc, Condvar, Mutex};

use crate::wire::MAX_FRAME_BYTES;

/// A bidirectional, blocking frame pipe.
pub trait FrameTransport: Send {
    /// Sends one frame body.
    fn send(&mut self, body: &[u8]) -> io::Result<()>;
    /// Receives the next frame body, blocking until one arrives.
    /// Returns `ErrorKind::UnexpectedEof` when the peer is gone.
    fn recv(&mut self) -> io::Result<Vec<u8>>;
    /// Receives a frame body only if one is already available, without
    /// blocking. `Ok(None)` means "nothing buffered right now" — this
    /// is what lets the server drain a burst into one batch, and what
    /// the shard readiness loop polls instead of blocking.
    fn try_recv(&mut self) -> io::Result<Option<Vec<u8>>>;
}

// Shards own a mixed bag of transports (TCP, in-memory, fault-wrapped),
// so they hold them boxed; the box forwards the trait.
impl FrameTransport for Box<dyn FrameTransport> {
    fn send(&mut self, body: &[u8]) -> io::Result<()> {
        (**self).send(body)
    }

    fn recv(&mut self) -> io::Result<Vec<u8>> {
        (**self).recv()
    }

    fn try_recv(&mut self) -> io::Result<Option<Vec<u8>>> {
        (**self).try_recv()
    }
}

/// Pops one complete `[u32 LE length][body]` frame from the front of a
/// byte-stream reassembly buffer, if one is fully buffered. Shared by
/// [`TcpTransport`] and [`crate::fault::FaultTransport`], which both
/// re-frame a raw byte stream that may arrive in arbitrary fragments.
pub(crate) fn extract_frame(buf: &mut Vec<u8>) -> io::Result<Option<Vec<u8>>> {
    if buf.len() < 4 {
        return Ok(None);
    }
    let len = u32::from_le_bytes(buf[..4].try_into().unwrap()) as usize;
    if len > MAX_FRAME_BYTES {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame length {len} exceeds cap"),
        ));
    }
    if buf.len() < 4 + len {
        return Ok(None);
    }
    let body = buf[4..4 + len].to_vec();
    buf.drain(..4 + len);
    Ok(Some(body))
}

// ---- TCP ---------------------------------------------------------------

/// [`FrameTransport`] over a `std::net::TcpStream`.
///
/// Keeps a reassembly buffer so `try_recv` can tolerate partial frames:
/// a non-blocking read may deliver half a frame, which stays buffered
/// until the rest arrives.
///
/// The socket stays in whichever mode the last call needed: a shard
/// polling with `try_recv` leaves it non-blocking between sweeps, and
/// only a switch to `send` or `recv` (which block) costs a syscall.
pub struct TcpTransport {
    stream: TcpStream,
    buf: Vec<u8>,
    /// Whether the socket is in `O_NONBLOCK` mode right now.
    nonblocking: bool,
}

impl TcpTransport {
    /// Wraps a connected (blocking) stream.
    pub fn new(stream: TcpStream) -> TcpTransport {
        let _ = stream.set_nodelay(true);
        TcpTransport {
            stream,
            buf: Vec::new(),
            nonblocking: false,
        }
    }

    /// Puts the socket in the mode the caller needs, if it is not
    /// there already.
    fn set_nonblocking(&mut self, on: bool) -> io::Result<()> {
        if self.nonblocking != on {
            self.stream.set_nonblocking(on)?;
            self.nonblocking = on;
        }
        Ok(())
    }

    /// Pops one complete frame from the reassembly buffer, if present.
    fn extract(&mut self) -> io::Result<Option<Vec<u8>>> {
        extract_frame(&mut self.buf)
    }
}

impl FrameTransport for TcpTransport {
    fn send(&mut self, body: &[u8]) -> io::Result<()> {
        if body.len() > MAX_FRAME_BYTES {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "frame too large to send",
            ));
        }
        // Blocking: a write on a non-blocking socket fails with
        // `WouldBlock` once a large frame fills the send buffer.
        self.set_nonblocking(false)?;
        // Prefix and body go out in one vectored write (looping only
        // on a short write), so with TCP_NODELAY a small frame leaves
        // as one segment and the peer never wakes for the prefix alone.
        let prefix = (body.len() as u32).to_le_bytes();
        let mut parts = [IoSlice::new(&prefix), IoSlice::new(body)];
        let mut rest = &mut parts[..];
        while !rest.is_empty() {
            match self.stream.write_vectored(rest) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => IoSlice::advance_slices(&mut rest, n),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        self.stream.flush()
    }

    fn recv(&mut self) -> io::Result<Vec<u8>> {
        loop {
            if let Some(body) = self.extract()? {
                return Ok(body);
            }
            self.set_nonblocking(false)?;
            let mut chunk = [0u8; 16 * 1024];
            let n = self.stream.read(&mut chunk)?;
            if n == 0 {
                return Err(io::ErrorKind::UnexpectedEof.into());
            }
            self.buf.extend_from_slice(&chunk[..n]);
        }
    }

    fn try_recv(&mut self) -> io::Result<Option<Vec<u8>>> {
        if let Some(body) = self.extract()? {
            return Ok(Some(body));
        }
        self.set_nonblocking(true)?;
        let mut chunk = [0u8; 16 * 1024];
        let got = loop {
            match self.stream.read(&mut chunk) {
                Ok(0) => break Err(io::Error::from(io::ErrorKind::UnexpectedEof)),
                Ok(n) => {
                    self.buf.extend_from_slice(&chunk[..n]);
                    // Keep draining while bytes are immediately there.
                    continue;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break Ok(()),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => break Err(e),
            }
        };
        got?;
        self.extract()
    }
}

// ---- in-memory ---------------------------------------------------------

struct MemQueue {
    frames: Mutex<(VecDeque<Vec<u8>>, bool)>, // (queue, peer closed)
    ready: Condvar,
}

impl MemQueue {
    fn new() -> Arc<MemQueue> {
        Arc::new(MemQueue {
            frames: Mutex::new((VecDeque::new(), false)),
            ready: Condvar::new(),
        })
    }
}

/// In-memory [`FrameTransport`]: a pair of condvar-guarded queues. This
/// is what the unit tests, the differential oracle, and the `e11_serve`
/// bench run over — same protocol, no sockets.
pub struct MemTransport {
    tx: Arc<MemQueue>,
    rx: Arc<MemQueue>,
}

impl MemTransport {
    /// Creates a connected pair (client half, server half).
    pub fn pair() -> (MemTransport, MemTransport) {
        let a = MemQueue::new();
        let b = MemQueue::new();
        (
            MemTransport {
                tx: a.clone(),
                rx: b.clone(),
            },
            MemTransport { tx: b, rx: a },
        )
    }
}

impl FrameTransport for MemTransport {
    fn send(&mut self, body: &[u8]) -> io::Result<()> {
        if body.len() > MAX_FRAME_BYTES {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "frame too large to send",
            ));
        }
        let mut q = self.tx.frames.lock().unwrap();
        if q.1 {
            return Err(io::ErrorKind::BrokenPipe.into());
        }
        q.0.push_back(body.to_vec());
        self.tx.ready.notify_one();
        Ok(())
    }

    fn recv(&mut self) -> io::Result<Vec<u8>> {
        let mut q = self.rx.frames.lock().unwrap();
        loop {
            if let Some(body) = q.0.pop_front() {
                return Ok(body);
            }
            if q.1 {
                return Err(io::ErrorKind::UnexpectedEof.into());
            }
            q = self.rx.ready.wait(q).unwrap();
        }
    }

    fn try_recv(&mut self) -> io::Result<Option<Vec<u8>>> {
        let mut q = self.rx.frames.lock().unwrap();
        match q.0.pop_front() {
            Some(body) => Ok(Some(body)),
            None if q.1 => Err(io::ErrorKind::UnexpectedEof.into()),
            None => Ok(None),
        }
    }
}

impl Drop for MemTransport {
    fn drop(&mut self) {
        // Mark both directions closed so a blocked peer wakes with EOF.
        for q in [&self.tx, &self.rx] {
            if let Ok(mut guard) = q.frames.lock() {
                guard.1 = true;
                q.ready.notify_all();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::{TcpListener, TcpStream};

    #[test]
    fn mem_pair_round_trips_and_try_recv_does_not_block() {
        let (mut a, mut b) = MemTransport::pair();
        assert!(b.try_recv().unwrap().is_none());
        a.send(b"hello").unwrap();
        a.send(b"world").unwrap();
        assert_eq!(b.recv().unwrap(), b"hello");
        assert_eq!(b.try_recv().unwrap().unwrap(), b"world");
        assert!(b.try_recv().unwrap().is_none());
    }

    #[test]
    fn dropping_one_half_wakes_the_other_with_eof() {
        let (a, mut b) = MemTransport::pair();
        let waiter = std::thread::spawn(move || b.recv());
        drop(a);
        let err = waiter.join().unwrap().unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn tcp_transport_frames_survive_partial_reads() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = std::thread::spawn(move || {
            let mut t = TcpTransport::new(TcpStream::connect(addr).unwrap());
            t.send(&[7u8; 100_000]).unwrap();
            t.send(b"tail").unwrap();
            t.recv().unwrap()
        });
        let (stream, _) = listener.accept().unwrap();
        let mut server = TcpTransport::new(stream);
        assert_eq!(server.recv().unwrap(), vec![7u8; 100_000]);
        assert_eq!(server.recv().unwrap(), b"tail");
        server.send(b"ok").unwrap();
        assert_eq!(client.join().unwrap(), b"ok");
    }

    #[test]
    fn tcp_vectored_send_frames_empty_and_tiny_bodies() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = std::thread::spawn(move || {
            let mut t = TcpTransport::new(TcpStream::connect(addr).unwrap());
            for body in [&b""[..], b"x", b"", b"yz"] {
                t.send(body).unwrap();
            }
        });
        let (stream, _) = listener.accept().unwrap();
        let mut server = TcpTransport::new(stream);
        for want in [&b""[..], b"x", b"", b"yz"] {
            assert_eq!(server.recv().unwrap(), want);
        }
        client.join().unwrap();
    }

    #[test]
    fn tcp_send_after_try_recv_blocks_through_a_large_frame() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let big = vec![0xA5u8; 12 << 20];
        let want = big.clone();
        let client = std::thread::spawn(move || {
            let mut t = TcpTransport::new(TcpStream::connect(addr).unwrap());
            t.send(b"poke").unwrap();
            // Read slowly, so the server's send buffer fills up and its
            // writes must wait rather than fail with `WouldBlock`.
            std::thread::sleep(std::time::Duration::from_millis(50));
            t.recv().unwrap()
        });
        let (stream, _) = listener.accept().unwrap();
        let mut server = TcpTransport::new(stream);
        // Leaves the socket non-blocking.
        let mut got = None;
        while got.is_none() {
            got = server.try_recv().unwrap();
        }
        assert_eq!(got.unwrap(), b"poke");
        assert!(server.try_recv().unwrap().is_none());
        server.send(&big).unwrap();
        assert_eq!(client.join().unwrap(), want);
    }

    #[test]
    fn tcp_rejects_oversized_length_prefix() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let writer = std::thread::spawn(move || {
            let mut s = TcpStream::connect(addr).unwrap();
            s.write_all(&u32::MAX.to_le_bytes()).unwrap();
            s.write_all(&[0u8; 64]).unwrap();
        });
        let (stream, _) = listener.accept().unwrap();
        let mut server = TcpTransport::new(stream);
        let err = server.recv().unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        writer.join().unwrap();
    }
}
