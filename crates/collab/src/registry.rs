//! The document registry: named, shared, append-only documents.
//!
//! A [`Doc`] owns one [`OpLog`] plus, per subscriber, the thread to
//! ring. [`Doc::submit`] appends a step under the document's lock
//! (assigning the monotone seq) and rings every subscriber, the author
//! included: the author applies its own edit only when it reads it
//! back in log order. That round trip is what makes N replicas
//! byte-identical: nobody applies anything except the one total order.
//!
//! The log is the only channel. An [`Attachment`] is a read offset into
//! it, and [`Attachment::drain`] returns every op past that offset and
//! moves it to the head. A fresh attachment starts at offset 0, so its
//! first drain is the backlog and no op can fall between a replica's
//! backlog and the ops it reads later. Each op is stored once, however
//! many replicas read it.
//!
//! Replicas live on shard threads that park while idle; the doorbell
//! is the thread that attached, and `submit` unparks it after the
//! append, so a parked replica wakes for remote ops. Attach from the
//! thread that will drain the attachment.

use std::collections::HashMap;
use std::fmt;
use std::sync::{Arc, Mutex};
use std::thread::{self, Thread};

use atk_core::ScriptStep;

use crate::oplog::{LogFull, Op, OpLog};

/// Why an attach was refused.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AttachError {
    /// No scene was offered and the document does not exist yet —
    /// someone has to say what to build.
    UnknownDoc(String),
    /// The document exists but was created over a different scene.
    SceneMismatch {
        /// The scene the document was created with.
        have: String,
        /// The scene the attacher asked for.
        want: String,
    },
}

impl fmt::Display for AttachError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AttachError::UnknownDoc(id) => {
                write!(f, "document {id:?} does not exist and no scene was offered")
            }
            AttachError::SceneMismatch { have, want } => {
                write!(f, "document scene is {have:?}, not {want:?}")
            }
        }
    }
}

impl std::error::Error for AttachError {}

/// One subscriber: its id and the thread to ring after each append.
struct Sub {
    id: u64,
    bell: Thread,
}

struct DocInner {
    log: OpLog,
    subs: Vec<Sub>,
    next_sub: u64,
}

/// One shared document: a scene name, an op log, and its subscribers.
pub struct Doc {
    id: String,
    scene: String,
    inner: Mutex<DocInner>,
}

impl Doc {
    /// The registry key this document was created under.
    pub fn id(&self) -> &str {
        &self.id
    }

    /// The scene every replica of this document builds.
    pub fn scene(&self) -> &str {
        &self.scene
    }

    /// Seq of the newest op.
    pub fn head(&self) -> u64 {
        self.lock().log.head()
    }

    /// Live subscriber count.
    pub fn replicas(&self) -> usize {
        self.lock().subs.len()
    }

    /// Appends a step to the log and rings every subscriber's doorbell
    /// (the author's included — it applies the op when it drains it,
    /// in log order). Returns the seq the op was assigned.
    ///
    /// # Errors
    ///
    /// [`LogFull`] when the log already holds [`MAX_LOG_OPS`] ops;
    /// nothing is appended and nobody is rung.
    ///
    /// [`MAX_LOG_OPS`]: crate::MAX_LOG_OPS
    pub fn submit(&self, author: u64, step: ScriptStep) -> Result<u64, LogFull> {
        let inner = &mut *self.lock();
        let seq = inner.log.append(author, step)?;
        for sub in &inner.subs {
            sub.bell.unpark();
        }
        Ok(seq)
    }

    /// Ops strictly after `seq`, cloned out of the log: what a replica
    /// that has applied through `seq` still owes.
    pub fn since(&self, seq: u64) -> Vec<Op> {
        self.lock().log.since(seq).to_vec()
    }

    fn subscribe(&self) -> u64 {
        let mut inner = self.lock();
        let id = inner.next_sub;
        inner.next_sub += 1;
        inner.subs.push(Sub {
            id,
            bell: thread::current(),
        });
        id
    }

    fn unsubscribe(&self, sub_id: u64) {
        self.lock().subs.retain(|sub| sub.id != sub_id);
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, DocInner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }
}

impl fmt::Debug for Doc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Doc")
            .field("id", &self.id)
            .field("scene", &self.scene)
            .field("head", &self.head())
            .field("replicas", &self.replicas())
            .finish()
    }
}

/// A live subscription: the document and this replica's offset into
/// its log (the seq of the newest op drained). A fresh attachment
/// stands at offset 0, so its first drain is the whole backlog.
/// Dropping it unsubscribes, so detach is clean on every exit path —
/// orderly `Bye`, idle eviction, shard drain, transport error.
pub struct Attachment {
    doc: Arc<Doc>,
    sub_id: u64,
    offset: u64,
    created: bool,
}

impl Attachment {
    /// The attached document.
    pub fn doc(&self) -> &Arc<Doc> {
        &self.doc
    }

    /// True when this attach created the document.
    pub fn created(&self) -> bool {
        self.created
    }

    /// Seq of the newest op drained so far.
    pub fn offset(&self) -> u64 {
        self.offset
    }

    /// Every op appended since the last drain, oldest first, and the
    /// offset moved past them. A drain that finds nothing new copies
    /// nothing.
    pub fn drain(&mut self) -> Vec<Op> {
        let ops = self.doc.since(self.offset);
        self.offset += ops.len() as u64;
        ops
    }
}

impl Drop for Attachment {
    fn drop(&mut self) {
        self.doc.unsubscribe(self.sub_id);
    }
}

impl fmt::Debug for Attachment {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Attachment")
            .field("doc", &self.doc.id)
            .field("sub_id", &self.sub_id)
            .field("offset", &self.offset)
            .finish()
    }
}

/// Get-or-create registry of named documents. Documents live as long
/// as the registry (the server), so a replica evicted from a draining
/// shard re-attaches elsewhere and replays from its log offset.
#[derive(Default)]
pub struct DocRegistry {
    docs: Mutex<HashMap<String, Arc<Doc>>>,
}

impl DocRegistry {
    /// An empty registry.
    pub fn new() -> DocRegistry {
        DocRegistry::default()
    }

    /// Attaches to `doc_id`, creating the document if a scene is
    /// offered and it does not exist yet. The attachment starts at
    /// offset 0: its first drain returns the whole log so far. The
    /// calling thread becomes the subscription's doorbell.
    pub fn attach(&self, doc_id: &str, scene: Option<&str>) -> Result<Attachment, AttachError> {
        let mut docs = self.docs.lock().unwrap_or_else(|e| e.into_inner());
        let (doc, created) = match docs.get(doc_id) {
            Some(doc) => {
                if let Some(want) = scene {
                    if want != doc.scene() {
                        return Err(AttachError::SceneMismatch {
                            have: doc.scene().to_string(),
                            want: want.to_string(),
                        });
                    }
                }
                (Arc::clone(doc), false)
            }
            None => {
                let scene = scene.ok_or_else(|| AttachError::UnknownDoc(doc_id.to_string()))?;
                let doc = Arc::new(Doc {
                    id: doc_id.to_string(),
                    scene: scene.to_string(),
                    inner: Mutex::new(DocInner {
                        log: OpLog::new(),
                        subs: Vec::new(),
                        next_sub: 0,
                    }),
                });
                docs.insert(doc_id.to_string(), Arc::clone(&doc));
                (doc, true)
            }
        };
        drop(docs);
        let sub_id = doc.subscribe();
        Ok(Attachment {
            doc,
            sub_id,
            offset: 0,
            created,
        })
    }

    /// Looks up an existing document without subscribing.
    pub fn get(&self, doc_id: &str) -> Option<Arc<Doc>> {
        self.docs
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .get(doc_id)
            .cloned()
    }
}

impl fmt::Debug for DocRegistry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let docs = self.docs.lock().unwrap_or_else(|e| e.into_inner());
        f.debug_struct("DocRegistry")
            .field("docs", &docs.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MAX_LOG_OPS;
    use atk_wm::WindowEvent;

    fn step(ch: char) -> ScriptStep {
        ScriptStep::Event(WindowEvent::ch(ch))
    }

    fn seqs(ops: &[Op]) -> Vec<u64> {
        ops.iter().map(|op| op.seq).collect()
    }

    #[test]
    fn attach_creates_then_joins() {
        let reg = DocRegistry::new();
        let a = reg.attach("doc", Some("fig5")).unwrap();
        assert!(a.created());
        let b = reg.attach("doc", None).unwrap();
        assert!(!b.created());
        assert!(Arc::ptr_eq(a.doc(), b.doc()));
        assert_eq!(a.doc().replicas(), 2);
        assert_eq!(b.doc().scene(), "fig5");
    }

    #[test]
    fn unknown_doc_without_scene_is_refused() {
        let reg = DocRegistry::new();
        assert_eq!(
            reg.attach("ghost", None).err(),
            Some(AttachError::UnknownDoc("ghost".to_string()))
        );
    }

    #[test]
    fn scene_mismatch_is_refused() {
        let reg = DocRegistry::new();
        let _a = reg.attach("doc", Some("fig5")).unwrap();
        assert!(matches!(
            reg.attach("doc", Some("fig1")),
            Err(AttachError::SceneMismatch { .. })
        ));
    }

    #[test]
    fn submit_fans_out_to_every_replica_in_order() {
        let reg = DocRegistry::new();
        let mut a = reg.attach("doc", Some("fig5")).unwrap();
        let mut b = reg.attach("doc", None).unwrap();
        let s1 = a.doc().submit(1, step('x')).unwrap();
        let s2 = b.doc().submit(2, step('y')).unwrap();
        assert_eq!((s1, s2), (1, 2));
        for replica in [&mut a, &mut b] {
            let ops = replica.drain();
            assert_eq!(ops.len(), 2);
            assert_eq!((ops[0].seq, ops[0].author), (1, 1));
            assert_eq!((ops[1].seq, ops[1].author), (2, 2));
        }
    }

    #[test]
    fn backlog_plus_channel_misses_nothing() {
        let reg = DocRegistry::new();
        let a = reg.attach("doc", Some("fig5")).unwrap();
        a.doc().submit(1, step('a')).unwrap();
        a.doc().submit(1, step('b')).unwrap();
        let mut late = reg.attach("doc", None).unwrap();
        // The first drain is the backlog; later drains carry what was
        // appended since.
        let mut seen = seqs(&late.drain());
        a.doc().submit(1, step('c')).unwrap();
        seen.extend(seqs(&late.drain()));
        assert_eq!(seen, vec![1, 2, 3]);
        assert!(late.drain().is_empty());
        assert_eq!(late.offset(), 3);
    }

    #[test]
    fn drop_unsubscribes() {
        let reg = DocRegistry::new();
        let a = reg.attach("doc", Some("fig5")).unwrap();
        {
            let _b = reg.attach("doc", None).unwrap();
            assert_eq!(a.doc().replicas(), 2);
        }
        assert_eq!(a.doc().replicas(), 1);
    }

    #[test]
    fn submit_rings_a_parked_subscriber() {
        use std::sync::Barrier;
        use std::time::{Duration, Instant};

        let reg = Arc::new(DocRegistry::new());
        let writer = reg.attach("doc", Some("fig5")).unwrap();
        let ready = Arc::new(Barrier::new(2));
        let watcher_reg = Arc::clone(&reg);
        let watcher_ready = Arc::clone(&ready);
        let watcher = thread::spawn(move || {
            let mut a = watcher_reg.attach("doc", None).unwrap();
            watcher_ready.wait();
            // Parks until rung; an op appended before the park leaves
            // the token set, so this cannot sleep through it.
            loop {
                if let Some(op) = a.drain().pop() {
                    break op.seq;
                }
                thread::park();
            }
        });
        ready.wait();
        writer.doc().submit(1, step('w')).unwrap();
        let deadline = Instant::now() + Duration::from_secs(10);
        while !watcher.is_finished() {
            assert!(
                Instant::now() < deadline,
                "the parked subscriber was never rung"
            );
            thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(watcher.join().unwrap(), 1);
    }

    /// A replica attaching on one thread while another thread submits
    /// sees every seq exactly once, in order, across its first drain
    /// (the backlog) and its later drains.
    #[test]
    fn attach_during_submits_sees_every_seq_once_in_order() {
        use std::time::{Duration, Instant};

        const OPS: u64 = 5_000;
        let reg = DocRegistry::new();
        let doc = Arc::clone(reg.attach("doc", Some("fig5")).unwrap().doc());
        let writer_doc = Arc::clone(&doc);
        let writer = thread::spawn(move || {
            for _ in 0..OPS {
                writer_doc.submit(1, step('k')).unwrap();
            }
        });
        // Attach mid-stream: once the writer is under way, before it
        // is done (unless this thread was starved that long).
        while doc.head() == 0 {
            thread::yield_now();
        }
        let mut late = reg.attach("doc", None).unwrap();
        let mut seen = seqs(&late.drain());
        let deadline = Instant::now() + Duration::from_secs(60);
        while seen.len() < OPS as usize {
            assert!(
                Instant::now() < deadline,
                "drains stalled at {}",
                seen.len()
            );
            seen.extend(seqs(&late.drain()));
            thread::yield_now();
        }
        writer.join().unwrap();
        seen.extend(seqs(&late.drain()));
        assert_eq!(seen, (1..=OPS).collect::<Vec<_>>());
    }

    /// The live log holds [`MAX_LOG_OPS`] ops and refuses the next one,
    /// every op as short as an op can be (`close`). At the cap the
    /// submit is accepted; one past it is refused and appends nothing.
    #[test]
    fn a_log_past_max_log_ops_fails_closed() {
        let reg = DocRegistry::new();
        let a = reg.attach("doc", Some("fig5")).unwrap();
        let close = ScriptStep::Event(WindowEvent::Close);
        for _ in 1..MAX_LOG_OPS {
            a.doc().submit(1, close.clone()).unwrap();
        }
        assert_eq!(a.doc().submit(1, close.clone()), Ok(MAX_LOG_OPS as u64));
        assert_eq!(a.doc().submit(1, close), Err(LogFull));
        assert_eq!(a.doc().head(), MAX_LOG_OPS as u64);
    }

    #[test]
    fn reattach_replays_from_offset() {
        let reg = DocRegistry::new();
        let a = reg.attach("doc", Some("fig5")).unwrap();
        a.doc().submit(1, step('a')).unwrap();
        a.doc().submit(1, step('b')).unwrap();
        // A replica that applied through seq 1 re-attaches: since(1)
        // is exactly the suffix it still owes.
        let missing = a.doc().since(1);
        assert_eq!(missing.len(), 1);
        assert_eq!(missing[0].seq, 2);
    }
}
