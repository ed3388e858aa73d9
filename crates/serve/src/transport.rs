//! Frame transports: length-prefixed byte framing over TCP, plus an
//! in-memory pair for tests and benches.
//!
//! A transport moves opaque frame *bodies* (see [`crate::wire`]); the
//! `[u32 LE length]` prefix is this layer's concern. Both ends of a
//! session hold one transport each. Only the transport halves cross
//! threads — the hosted `World` itself is built inside the connection
//! thread and never moves (it is deliberately `!Send`).
//!
//! A transport also owns a *doorbell*: the thread it unparks whenever
//! `try_recv` has something new to say (a frame, EOF or an error). A
//! shard polls its transports and parks when a sweep finds nothing, so
//! every transport it polls must ring it; that is why
//! [`FrameTransport::set_doorbell`] has no default.

use std::collections::VecDeque;
use std::io::{self, IoSlice, Read, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::mpsc::{self, Receiver, Sender, TryRecvError};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::{self, Thread};

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
    /// Makes `bell` the thread to unpark whenever `try_recv` may have
    /// something new: a frame, EOF, or an error. After a `try_recv`
    /// that returned `Ok(None)`, the transport must ring before (or
    /// without) anything new becoming visible to the next `try_recv`,
    /// so a poller that parks after an empty sweep never sleeps through
    /// its work. Setting a bell again replaces the old one.
    fn set_doorbell(&mut self, bell: Thread);
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

    fn set_doorbell(&mut self, bell: Thread) {
        (**self).set_doorbell(bell)
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

/// Bytes one blocking socket read may take.
const READ_CHUNK: usize = 16 * 1024;

/// Stack size of a TCP reader thread: it only reads, frames and sends
/// over a channel, and its read buffer lives on the heap.
const READER_STACK: usize = 64 * 1024;

/// What a reader thread hands its transport: one frame, or the error
/// (EOF included) that ended the stream.
type ReadResult = io::Result<Vec<u8>>;

/// [`FrameTransport`] over a `std::net::TcpStream`.
///
/// The socket always blocks. `send` writes on the caller's thread.
/// `recv` reads on the caller's thread too, until the transport gets a
/// doorbell ([`FrameTransport::set_doorbell`], or the first `try_recv`,
/// which makes the caller the bell): from then on a pooled reader
/// thread does the blocking reads on a clone of the socket, extracts
/// whole frames (the [`MAX_FRAME_BYTES`] cap still applies), passes
/// each one — or the EOF or error that ended the stream — over a
/// channel, and rings. `recv` and `try_recv` then read that channel.
/// Dropping the transport shuts the socket down, which ends the read
/// and returns the reader to the pool. A caller that only ever blocks
/// in `recv` (a client stepping in lockstep) never starts a reader, so
/// its frames take no thread hop.
pub struct TcpTransport {
    stream: TcpStream,
    /// Reassembly buffer for `recv`'s own reads; handed to the reader
    /// when one starts, so bytes read past a frame are not lost.
    buf: Vec<u8>,
    /// The connection's reader, once started.
    reader: Option<ReaderLink>,
}

/// The transport's end of its reader: the frames, and the bell the
/// reader rings (shared, so a later `set_doorbell` can replace it).
struct ReaderLink {
    frames: Receiver<ReadResult>,
    bell: Arc<Mutex<Thread>>,
}

impl TcpTransport {
    /// Wraps a connected (blocking) stream.
    pub fn new(stream: TcpStream) -> TcpTransport {
        let _ = stream.set_nodelay(true);
        TcpTransport {
            stream,
            buf: Vec::new(),
            reader: None,
        }
    }

    /// The running reader, started with `bell` if there is none yet.
    fn reader(&mut self, bell: impl FnOnce() -> Thread) -> io::Result<&ReaderLink> {
        if self.reader.is_none() {
            let (tx, frames) = mpsc::channel();
            let bell = Arc::new(Mutex::new(bell()));
            start_reader(ReadJob {
                stream: self.stream.try_clone()?,
                buf: std::mem::take(&mut self.buf),
                frames: tx,
                bell: Arc::clone(&bell),
            })?;
            self.reader = Some(ReaderLink { frames, bell });
        }
        Ok(self.reader.as_ref().expect("started above"))
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
        if let Some(reader) = &self.reader {
            // The reader's last word was the error that ended it.
            return reader
                .frames
                .recv()
                .unwrap_or_else(|_| Err(io::ErrorKind::UnexpectedEof.into()));
        }
        loop {
            if let Some(body) = extract_frame(&mut self.buf)? {
                return Ok(body);
            }
            let mut chunk = [0u8; READ_CHUNK];
            let n = self.stream.read(&mut chunk)?;
            if n == 0 {
                return Err(io::ErrorKind::UnexpectedEof.into());
            }
            self.buf.extend_from_slice(&chunk[..n]);
        }
    }

    fn try_recv(&mut self) -> io::Result<Option<Vec<u8>>> {
        match self.reader(thread::current)?.frames.try_recv() {
            Ok(frame) => frame.map(Some),
            Err(TryRecvError::Empty) => Ok(None),
            Err(TryRecvError::Disconnected) => Err(io::ErrorKind::UnexpectedEof.into()),
        }
    }

    fn set_doorbell(&mut self, bell: Thread) {
        match &self.reader {
            Some(reader) => *lock(&reader.bell) = bell,
            // A reader that cannot start now is retried (and its error
            // surfaced) by the next `try_recv`.
            None => {
                let _ = self.reader(|| bell);
            }
        }
    }
}

impl Drop for TcpTransport {
    fn drop(&mut self) {
        if self.reader.is_some() {
            // The reader blocks in `read` on a clone of this socket, so
            // closing this handle alone would neither end that read nor
            // tell the peer. Shutting the socket down does both, so from
            // here the reader is on its way back to the pool.
            let _ = self.stream.shutdown(Shutdown::Both);
            lock(&READERS).live -= 1;
        }
    }
}

/// Locks a mutex whose data every update leaves valid.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// One connection's reading, as a pooled reader thread runs it.
struct ReadJob {
    /// A clone of the transport's socket.
    stream: TcpStream,
    /// Bytes read past the last whole frame.
    buf: Vec<u8>,
    frames: Sender<ReadResult>,
    bell: Arc<Mutex<Thread>>,
}

impl ReadJob {
    /// Forwards frames until the stream ends, then forwards why.
    fn run(mut self, chunk: &mut [u8]) {
        let end = self.forward(chunk);
        // Nobody to tell once the transport is gone.
        if self.frames.send(Err(end)).is_ok() {
            self.ring();
        }
    }

    /// Blocking reads, ringing once per read that completed a frame.
    /// Returns the error that ended the stream: EOF, a read error, a
    /// frame over the cap, or the transport hanging up.
    fn forward(&mut self, chunk: &mut [u8]) -> io::Error {
        loop {
            let mut delivered = false;
            loop {
                match extract_frame(&mut self.buf) {
                    Ok(Some(body)) => {
                        if self.frames.send(Ok(body)).is_err() {
                            return io::ErrorKind::BrokenPipe.into();
                        }
                        delivered = true;
                    }
                    Ok(None) => break,
                    Err(e) => return e,
                }
            }
            if delivered {
                self.ring();
            }
            match self.stream.read(chunk) {
                Ok(0) => return io::ErrorKind::UnexpectedEof.into(),
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return e,
            }
        }
    }

    fn ring(&self) {
        lock(&self.bell).unpark();
    }
}

/// The TCP reader pool.
struct ReaderPool {
    /// Reader threads waiting for a connection, each behind its own job
    /// channel.
    idle: Vec<Sender<ReadJob>>,
    /// Reader threads alive.
    threads: usize,
    /// Transports whose reader started and that are not dropped yet.
    live: usize,
}

static READERS: Mutex<ReaderPool> = Mutex::new(ReaderPool {
    idle: Vec::new(),
    threads: 0,
    live: 0,
});

/// Rung whenever a reader rejoins the idle list.
static READER_IDLE: Condvar = Condvar::new();

/// Hands `job` to an idle reader thread, or spawns one if none is idle.
///
/// A busy reader serves a live transport, so with no reader idle, more
/// threads than live transports means one whose transport was dropped
/// is still on its way back (its socket is shut down, so its read has
/// returned or returns at once). That reader is waited for, not
/// doubled: the pool never grows past the peak count of concurrent
/// live transports.
fn start_reader(mut job: ReadJob) -> io::Result<()> {
    let mut pool = lock(&READERS);
    loop {
        match pool.idle.pop() {
            Some(reader) => match reader.send(job) {
                Ok(()) => {
                    pool.live += 1;
                    return Ok(());
                }
                // That reader is gone; look for another.
                Err(mpsc::SendError(back)) => job = back,
            },
            None if pool.threads > pool.live => {
                pool = READER_IDLE.wait(pool).unwrap_or_else(|e| e.into_inner());
            }
            None => break,
        }
    }
    let (tx, rx) = mpsc::channel();
    tx.send(job).expect("the receiver is alive");
    thread::Builder::new()
        .name("atk-tcp-reader".into())
        .stack_size(READER_STACK)
        .spawn(move || reader_thread(tx, rx))?;
    pool.threads += 1;
    pool.live += 1;
    Ok(())
}

/// A pooled reader: runs one job at a time and rejoins the idle list
/// after each. It holds its own sender, so it waits for jobs for the
/// life of the process.
fn reader_thread(me: Sender<ReadJob>, jobs: Receiver<ReadJob>) {
    // Only a panic ends this thread; count it out of the pool then, so
    // `start_reader` never waits for a reader that cannot come back.
    struct Exit;
    impl Drop for Exit {
        fn drop(&mut self) {
            lock(&READERS).threads -= 1;
            READER_IDLE.notify_all();
        }
    }
    let _exit = Exit;
    let mut chunk = vec![0u8; READ_CHUNK];
    while let Ok(job) = jobs.recv() {
        job.run(&mut chunk);
        lock(&READERS).idle.push(me.clone());
        READER_IDLE.notify_all();
    }
}

/// The TCP reader pool's size, for tests and diagnostics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReaderPoolStats {
    /// Reader threads alive (they exit only on a panic).
    pub threads: usize,
    /// Of those, the ones waiting for a connection.
    pub idle: usize,
}

/// How many TCP reader threads exist, and how many are idle.
pub fn reader_pool_stats() -> ReaderPoolStats {
    let pool = lock(&READERS);
    ReaderPoolStats {
        threads: pool.threads,
        idle: pool.idle.len(),
    }
}

// ---- in-memory ---------------------------------------------------------

/// One direction of an in-memory pipe, as its receiving half sees it.
struct MemState {
    frames: VecDeque<Vec<u8>>,
    /// Either half was dropped.
    closed: bool,
    /// The receiving half's doorbell.
    bell: Option<Thread>,
}

impl MemState {
    fn ring(&self) {
        if let Some(bell) = &self.bell {
            bell.unpark();
        }
    }
}

struct MemQueue {
    state: Mutex<MemState>,
    ready: Condvar,
}

impl MemQueue {
    fn new() -> Arc<MemQueue> {
        Arc::new(MemQueue {
            state: Mutex::new(MemState {
                frames: VecDeque::new(),
                closed: false,
                bell: None,
            }),
            ready: Condvar::new(),
        })
    }
}

/// In-memory [`FrameTransport`]: a pair of condvar-guarded queues. This
/// is what the unit tests, the differential oracle, and the loadgen
/// benches (`run_loadgen`) run over — same protocol, no sockets. A send wakes a receiver
/// blocked in `recv` and rings the receiving half's doorbell.
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
        let mut q = self.tx.state.lock().unwrap();
        if q.closed {
            return Err(io::ErrorKind::BrokenPipe.into());
        }
        q.frames.push_back(body.to_vec());
        self.tx.ready.notify_one();
        q.ring();
        Ok(())
    }

    fn recv(&mut self) -> io::Result<Vec<u8>> {
        let mut q = self.rx.state.lock().unwrap();
        loop {
            if let Some(body) = q.frames.pop_front() {
                return Ok(body);
            }
            if q.closed {
                return Err(io::ErrorKind::UnexpectedEof.into());
            }
            q = self.rx.ready.wait(q).unwrap();
        }
    }

    fn try_recv(&mut self) -> io::Result<Option<Vec<u8>>> {
        let mut q = self.rx.state.lock().unwrap();
        match q.frames.pop_front() {
            Some(body) => Ok(Some(body)),
            None if q.closed => Err(io::ErrorKind::UnexpectedEof.into()),
            None => Ok(None),
        }
    }

    fn set_doorbell(&mut self, bell: Thread) {
        lock(&self.rx.state).bell = Some(bell);
    }
}

impl Drop for MemTransport {
    fn drop(&mut self) {
        // Mark both directions closed so a blocked peer wakes with EOF,
        // and ring the peer: its next poll sees the EOF.
        for q in [&self.tx, &self.rx] {
            lock(&q.state).closed = true;
            q.ready.notify_all();
        }
        lock(&self.tx.state).ring();
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
        // Starts the reader thread; the send below still writes on
        // this thread, blocking until the slow reader makes room.
        let mut got = None;
        while got.is_none() {
            got = server.try_recv().unwrap();
        }
        assert_eq!(got.unwrap(), b"poke");
        assert!(server.try_recv().unwrap().is_none());
        server.send(&big).unwrap();
        assert_eq!(client.join().unwrap(), want);
    }

    /// Polls `t` on a fresh thread that parks between empty polls, the
    /// way a shard does, until `try_recv` has an answer; fails if the
    /// reader never rings.
    fn poll_parked(mut t: TcpTransport) -> io::Result<Option<Vec<u8>>> {
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            t.set_doorbell(std::thread::current());
            let got = loop {
                match t.try_recv() {
                    Ok(None) => std::thread::park(),
                    other => break other,
                }
            };
            let _ = tx.send(got);
        });
        rx.recv_timeout(std::time::Duration::from_secs(30))
            .expect("the reader never rang")
    }

    #[test]
    fn tcp_reader_rings_for_frames_and_eof() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (stream, _) = listener.accept().unwrap();
        let server = TcpTransport::new(stream);
        client.write_all(&3u32.to_le_bytes()).unwrap();
        client.write_all(b"abc").unwrap();
        assert_eq!(poll_parked(server).unwrap().unwrap(), b"abc");

        let mut client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (stream, _) = listener.accept().unwrap();
        let server = TcpTransport::new(stream);
        client.write_all(&2u32.to_le_bytes()).unwrap();
        drop(client);
        // A partial frame then EOF is EOF, never a short body.
        let err = poll_parked(server).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn tcp_reader_enforces_the_frame_cap() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (stream, _) = listener.accept().unwrap();
        client.write_all(&u32::MAX.to_le_bytes()).unwrap();
        let err = poll_parked(TcpTransport::new(stream)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
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
