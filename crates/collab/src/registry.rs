//! The document registry: named, shared, append-only documents.
//!
//! A [`Doc`] owns one [`OpLog`] plus the list of live subscriber
//! channels. [`DocRegistry::attach`] is the only way in, and it is
//! atomic: under one lock it snapshots the log (the backlog a new
//! replica must replay) and registers the subscription, so no op can
//! fall between snapshot and subscription. [`Doc::submit`] is the
//! other side: under the same lock it appends the step (assigning the
//! monotone seq) and fans the op out to every subscriber — including
//! the author, who applies its own edit only when it comes back in
//! log order. That round trip is what makes N replicas byte-identical:
//! nobody applies anything except the one total order.
//!
//! Channels are `std::sync::mpsc` because replicas live on shard
//! threads; a dead receiver (replica detached without unsubscribing)
//! is pruned on the next submit. Each subscription also carries its
//! replica's doorbell — the thread that attached it — and `submit`
//! unparks that thread after sending, so a replica whose thread parks
//! while idle wakes for remote ops. Attach from the thread that will
//! drain the attachment.

use std::collections::HashMap;
use std::fmt;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::thread::{self, Thread};

use atk_core::ScriptStep;

use crate::oplog::{Op, OpLog};

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

/// What [`Doc::submit`] reports back to the submitter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Submit {
    /// The seq the op was assigned in the total order.
    pub seq: u64,
    /// How many subscriber channels the op was fanned out to
    /// (including the author's own).
    pub fanout: usize,
}

/// One subscriber: its id, its channel, and the thread to ring after
/// sending.
struct Sub {
    id: u64,
    tx: Sender<Op>,
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

    /// Appends a step to the log and fans the new op out to every
    /// subscriber (the author included — it applies the op on the way
    /// back, in log order), ringing each subscriber's doorbell. Dead
    /// subscriber channels are pruned.
    pub fn submit(&self, author: u64, step: ScriptStep) -> Submit {
        let mut inner = self.lock();
        let seq = inner.log.append(author, step);
        let op = inner.log.since(seq - 1)[0].clone();
        inner.subs.retain(|sub| {
            let live = sub.tx.send(op.clone()).is_ok();
            if live {
                sub.bell.unpark();
            }
            live
        });
        Submit {
            seq,
            fanout: inner.subs.len(),
        }
    }

    /// Ops strictly after `seq`, cloned out of the log — the replay a
    /// re-attaching replica needs.
    pub fn since(&self, seq: u64) -> Vec<Op> {
        self.lock().log.since(seq).to_vec()
    }

    fn subscribe(self: &Arc<Self>) -> (u64, Vec<Op>, Receiver<Op>) {
        let mut inner = self.lock();
        let sub_id = inner.next_sub;
        inner.next_sub += 1;
        let (tx, rx) = channel();
        inner.subs.push(Sub {
            id: sub_id,
            tx,
            bell: thread::current(),
        });
        (sub_id, inner.log.since(0).to_vec(), rx)
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

/// A live subscription: the doc, the backlog snapshotted at attach
/// time, and the channel future ops arrive on. Dropping it
/// unsubscribes, so detach is clean on every exit path — orderly
/// `Bye`, idle eviction, shard drain, transport error.
pub struct Attachment {
    doc: Arc<Doc>,
    sub_id: u64,
    rx: Receiver<Op>,
    backlog: Vec<Op>,
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

    /// Takes the backlog (ops appended before this replica attached);
    /// empty after the first call.
    pub fn take_backlog(&mut self) -> Vec<Op> {
        std::mem::take(&mut self.backlog)
    }

    /// Non-blocking receive of the next fanned-out op.
    pub fn try_recv(&mut self) -> Option<Op> {
        self.rx.try_recv().ok()
    }

    /// Drains every op currently buffered on the channel.
    pub fn drain(&mut self) -> Vec<Op> {
        let mut ops = Vec::new();
        while let Ok(op) = self.rx.try_recv() {
            ops.push(op);
        }
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
    /// offered and it does not exist yet. The log snapshot and the
    /// subscription happen under one lock: no op can land between the
    /// backlog a replica replays and the first op its channel carries.
    /// The calling thread becomes the subscription's doorbell.
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
        let (sub_id, backlog, rx) = doc.subscribe();
        Ok(Attachment {
            doc,
            sub_id,
            rx,
            backlog,
            created,
        })
    }

    /// Number of documents ever created.
    pub fn len(&self) -> usize {
        self.docs.lock().unwrap_or_else(|e| e.into_inner()).len()
    }

    /// True when no document has been created.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
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
        f.debug_struct("DocRegistry")
            .field("docs", &self.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use atk_wm::WindowEvent;

    fn step(ch: char) -> ScriptStep {
        ScriptStep::Event(WindowEvent::ch(ch))
    }

    #[test]
    fn attach_creates_then_joins() {
        let reg = DocRegistry::new();
        let a = reg.attach("doc", Some("fig5")).unwrap();
        assert!(a.created());
        let b = reg.attach("doc", None).unwrap();
        assert!(!b.created());
        assert_eq!(reg.len(), 1);
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
        let s1 = a.doc().submit(1, step('x'));
        let s2 = b.doc().submit(2, step('y'));
        assert_eq!((s1.seq, s2.seq), (1, 2));
        assert_eq!((s1.fanout, s2.fanout), (2, 2));
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
        a.doc().submit(1, step('a'));
        a.doc().submit(1, step('b'));
        let mut late = reg.attach("doc", None).unwrap();
        a.doc().submit(1, step('c'));
        let mut seen: Vec<u64> = late.take_backlog().iter().map(|o| o.seq).collect();
        seen.extend(late.drain().iter().map(|o| o.seq));
        assert_eq!(seen, vec![1, 2, 3]);
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
        // A dead channel left behind is pruned on the next submit.
        let s = a.doc().submit(1, step('z'));
        assert_eq!(s.fanout, 1);
    }

    #[test]
    fn submit_rings_a_parked_subscriber() {
        use std::sync::mpsc;
        use std::time::Duration;

        let reg = Arc::new(DocRegistry::new());
        let writer = reg.attach("doc", Some("fig5")).unwrap();
        let (ready_tx, ready_rx) = mpsc::channel();
        let (done_tx, done_rx) = mpsc::channel();
        let watcher_reg = Arc::clone(&reg);
        let watcher = thread::spawn(move || {
            let mut a = watcher_reg.attach("doc", None).unwrap();
            ready_tx.send(()).unwrap();
            // Parks until rung; an op sent before the park leaves the
            // token set, so this cannot sleep through it.
            let op = loop {
                if let Some(op) = a.try_recv() {
                    break op;
                }
                thread::park();
            };
            done_tx.send(op.seq).unwrap();
        });
        ready_rx.recv().unwrap();
        writer.doc().submit(1, step('w'));
        let seq = done_rx
            .recv_timeout(Duration::from_secs(10))
            .expect("the parked subscriber was never rung");
        assert_eq!(seq, 1);
        watcher.join().unwrap();
    }

    #[test]
    fn reattach_replays_from_offset() {
        let reg = DocRegistry::new();
        let a = reg.attach("doc", Some("fig5")).unwrap();
        a.doc().submit(1, step('a'));
        a.doc().submit(1, step('b'));
        // A replica that applied through seq 1 re-attaches: since(1)
        // is exactly the suffix it still owes.
        let missing = a.doc().since(1);
        assert_eq!(missing.len(), 1);
        assert_eq!(missing[0].seq, 2);
    }
}
