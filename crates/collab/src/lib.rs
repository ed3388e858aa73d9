//! # atk-collab — replicated data objects
//!
//! The paper's §2 keeps many simultaneous views of one data object
//! consistent *inside* a process: views observe the object, the object
//! broadcasts change records, each view repairs itself. This crate
//! extends that contract *across* processes. The shared object is a
//! per-document, total-order, append-only **operation log**; an op is
//! one [`ScriptStep`] in the existing script-line wire format, stamped
//! with a monotone sequence number and its author. Replicas do not
//! exchange pixels or trees — they read the log, and each replica's
//! own observer pipeline (dispatch → change record → damage → repaint)
//! turns the identical op stream into identical frames.
//!
//! The pieces:
//!
//! * [`oplog`] — [`Op`] and [`OpLog`], capped at [`MAX_LOG_OPS`] ops
//! * [`registry`] — [`DocRegistry`]: get-or-create named documents;
//!   an [`Attachment`] is one replica's read offset into its
//!   document's log, and [`Doc::submit`] appends and rings every
//!   subscriber
//!
//! Each op is stored once, in its document's log, however many
//! replicas read it. A replica is a function of the log prefix it has
//! drained: two replicas that apply the same prefix are
//! byte-identical, which is what the serve layer's collab differential
//! oracle checks. Nothing in this crate reads a clock or an RNG.
//!
//! [`ScriptStep`]: atk_core::ScriptStep

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod oplog;
pub mod registry;

pub use oplog::{LogFull, Op, OpLog, MAX_LOG_OPS};
pub use registry::{AttachError, Attachment, Doc, DocRegistry};
