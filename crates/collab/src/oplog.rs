//! The per-document operation log: total-order, append-only, one
//! [`ScriptStep`] per op in the script-line format the rest of the
//! toolkit already speaks. Sequence numbers start at 1 and are
//! contiguous; `head()` is the seq of the newest op. The log holds at
//! most [`MAX_LOG_OPS`] ops; an append past that is refused.

use std::fmt;

use atk_core::ScriptStep;

/// Most ops one document's log may hold (a memory cap: a document is
/// kept whole for as long as the server runs).
pub const MAX_LOG_OPS: usize = 1 << 20;

/// An append refused because the log already holds [`MAX_LOG_OPS`] ops.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LogFull;

impl fmt::Display for LogFull {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "document op log is full ({MAX_LOG_OPS} ops)")
    }
}

impl std::error::Error for LogFull {}

/// One operation: a step, its author (session id), and its position
/// in the document's total order.
#[derive(Debug, Clone, PartialEq)]
pub struct Op {
    /// Position in the log, starting at 1.
    pub seq: u64,
    /// Session id of the replica that submitted the step.
    pub author: u64,
    /// The step itself, in the shared script vocabulary.
    pub step: ScriptStep,
}

/// The append-only total order for one document.
#[derive(Debug, Default)]
pub struct OpLog {
    ops: Vec<Op>,
}

impl OpLog {
    /// An empty log (head 0).
    pub fn new() -> OpLog {
        OpLog::default()
    }

    /// Seq of the newest op (0 for an empty log).
    pub fn head(&self) -> u64 {
        self.ops.len() as u64
    }

    /// Appends a step, assigning the next seq, and returns that seq.
    ///
    /// # Errors
    ///
    /// [`LogFull`] when the log already holds [`MAX_LOG_OPS`] ops; the
    /// log is left as it was.
    pub fn append(&mut self, author: u64, step: ScriptStep) -> Result<u64, LogFull> {
        if self.ops.len() >= MAX_LOG_OPS {
            return Err(LogFull);
        }
        let seq = self.head() + 1;
        self.ops.push(Op { seq, author, step });
        Ok(seq)
    }

    /// Ops strictly after `seq` — the replay a replica at offset `seq`
    /// needs to catch up to head.
    pub fn since(&self, seq: u64) -> &[Op] {
        let from = (seq as usize).min(self.ops.len());
        &self.ops[from..]
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
    fn append_assigns_contiguous_seqs_from_one() {
        let mut log = OpLog::new();
        assert_eq!(log.head(), 0);
        assert_eq!(log.append(7, step('a')), Ok(1));
        assert_eq!(log.append(9, step('b')), Ok(2));
        assert_eq!(log.head(), 2);
        assert_eq!(log.since(0).len(), 2);
        assert_eq!(log.since(1).len(), 1);
        assert_eq!(log.since(1)[0].seq, 2);
        assert!(log.since(2).is_empty());
        assert!(log.since(99).is_empty());
    }
}
