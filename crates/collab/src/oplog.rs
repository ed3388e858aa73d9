//! The per-document operation log: total-order, append-only, one
//! [`ScriptStep`] per op in the script-line format the rest of the
//! toolkit already speaks. Sequence numbers start at 1 and are
//! contiguous; `head()` is the seq of the newest op. The binary
//! encoding exists so a log can be shipped or persisted; decode is
//! panic-free and fails closed on truncated or corrupted bytes.

use std::fmt;

use atk_core::{EventScript, ScriptStep};

/// Longest script line an op may carry, matching the serve wire cap.
pub const MAX_LINE_BYTES: usize = 4096;

/// Most ops a decoded log may hold (memory cap against hostile input).
pub const MAX_LOG_OPS: usize = 1 << 20;

/// Why op-log bytes failed to decode (or an op failed to encode).
/// Mirrors the serve wire's fail-closed contract: arbitrary input may
/// error, it may never panic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The buffer ended mid-op.
    Truncated,
    /// A script line was not valid UTF-8.
    BadString,
    /// A script line did not parse to exactly one step, or the step
    /// cannot be carried by the line format.
    BadStep(String),
    /// A length field exceeded [`MAX_LINE_BYTES`] or [`MAX_LOG_OPS`].
    TooLarge,
    /// Sequence numbers were not contiguous from 1.
    BadSeq {
        /// The seq the decoder expected next.
        want: u64,
        /// The seq the buffer carried.
        got: u64,
    },
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated => write!(f, "truncated op log"),
            WireError::BadString => write!(f, "op line is not UTF-8"),
            WireError::BadStep(msg) => write!(f, "bad op step: {msg}"),
            WireError::TooLarge => write!(f, "op log field over cap"),
            WireError::BadSeq { want, got } => {
                write!(f, "op seq {got} where {want} expected")
            }
        }
    }
}

impl std::error::Error for WireError {}

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

impl Op {
    /// Appends the op's binary form:
    /// `[u64 seq][u64 author][u32 len][len script-line bytes]`, all LE.
    ///
    /// # Errors
    ///
    /// [`WireError::BadStep`] for the few steps the line format cannot
    /// carry (`Expose`, raw `MenuSelect` events) — clients cannot send
    /// those, so a served log never contains them.
    pub fn encode_into(&self, out: &mut Vec<u8>) -> Result<(), WireError> {
        let line = self
            .step
            .to_line()
            .ok_or_else(|| WireError::BadStep(format!("unencodable step {:?}", self.step)))?;
        if line.len() > MAX_LINE_BYTES {
            return Err(WireError::TooLarge);
        }
        out.extend_from_slice(&self.seq.to_le_bytes());
        out.extend_from_slice(&self.author.to_le_bytes());
        out.extend_from_slice(&(line.len() as u32).to_le_bytes());
        out.extend_from_slice(line.as_bytes());
        Ok(())
    }
}

/// The append-only total order for one document.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct OpLog {
    ops: Vec<Op>,
}

impl OpLog {
    /// An empty log (head 0).
    pub fn new() -> OpLog {
        OpLog::default()
    }

    /// Number of ops appended so far.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// True when no op has been appended.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Seq of the newest op (0 for an empty log).
    pub fn head(&self) -> u64 {
        self.ops.len() as u64
    }

    /// Appends a step, assigning the next seq, and returns that seq.
    pub fn append(&mut self, author: u64, step: ScriptStep) -> u64 {
        let seq = self.head() + 1;
        self.ops.push(Op { seq, author, step });
        seq
    }

    /// Ops strictly after `seq` — the replay a replica at offset `seq`
    /// needs to catch up to head.
    pub fn since(&self, seq: u64) -> &[Op] {
        let from = (seq as usize).min(self.ops.len());
        &self.ops[from..]
    }

    /// All ops, oldest first.
    pub fn ops(&self) -> &[Op] {
        &self.ops
    }

    /// Encodes the whole log, ops concatenated in order.
    ///
    /// # Errors
    ///
    /// [`WireError::BadStep`] if any op's step has no line form.
    pub fn encode(&self) -> Result<Vec<u8>, WireError> {
        let mut out = Vec::new();
        for op in &self.ops {
            op.encode_into(&mut out)?;
        }
        Ok(out)
    }

    /// Decodes a log from bytes. Never panics on arbitrary input;
    /// truncated, corrupted, or out-of-order bytes fail closed.
    pub fn decode(buf: &[u8]) -> Result<OpLog, WireError> {
        let mut ops = Vec::new();
        let mut pos = 0usize;
        while pos < buf.len() {
            if ops.len() >= MAX_LOG_OPS {
                return Err(WireError::TooLarge);
            }
            let rest = &buf[pos..];
            if rest.len() < 20 {
                return Err(WireError::Truncated);
            }
            let seq = u64::from_le_bytes(rest[0..8].try_into().expect("8 bytes"));
            let author = u64::from_le_bytes(rest[8..16].try_into().expect("8 bytes"));
            let len = u32::from_le_bytes(rest[16..20].try_into().expect("4 bytes")) as usize;
            if len > MAX_LINE_BYTES {
                return Err(WireError::TooLarge);
            }
            if rest.len() < 20 + len {
                return Err(WireError::Truncated);
            }
            let want = ops.len() as u64 + 1;
            if seq != want {
                return Err(WireError::BadSeq { want, got: seq });
            }
            let line =
                std::str::from_utf8(&rest[20..20 + len]).map_err(|_| WireError::BadString)?;
            let script = EventScript::parse(line).map_err(|(_, msg)| WireError::BadStep(msg))?;
            let step = match <[ScriptStep; 1]>::try_from(script.steps) {
                Ok([step]) => step,
                Err(_) => return Err(WireError::BadStep(format!("not one step: {line}"))),
            };
            ops.push(Op { seq, author, step });
            pos += 20 + len;
        }
        Ok(OpLog { ops })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use atk_core::ScriptStep;
    use atk_wm::WindowEvent;

    fn step(ch: char) -> ScriptStep {
        ScriptStep::Event(WindowEvent::ch(ch))
    }

    #[test]
    fn append_assigns_contiguous_seqs_from_one() {
        let mut log = OpLog::new();
        assert_eq!(log.head(), 0);
        assert_eq!(log.append(7, step('a')), 1);
        assert_eq!(log.append(9, step('b')), 2);
        assert_eq!(log.head(), 2);
        assert_eq!(log.since(0).len(), 2);
        assert_eq!(log.since(1).len(), 1);
        assert_eq!(log.since(1)[0].seq, 2);
        assert!(log.since(2).is_empty());
        assert!(log.since(99).is_empty());
    }

    #[test]
    fn encode_decode_round_trips() {
        let mut log = OpLog::new();
        log.append(1, step('h'));
        log.append(2, ScriptStep::Event(WindowEvent::Tick(120)));
        log.append(1, ScriptStep::Event(WindowEvent::left_down(10, 20)));
        let bytes = log.encode().unwrap();
        assert_eq!(OpLog::decode(&bytes).unwrap(), log);
    }

    #[test]
    fn empty_log_round_trips() {
        let log = OpLog::new();
        assert_eq!(OpLog::decode(&log.encode().unwrap()).unwrap(), log);
    }

    #[test]
    fn truncated_bytes_fail_closed() {
        let mut log = OpLog::new();
        log.append(1, step('x'));
        let bytes = log.encode().unwrap();
        for cut in 1..bytes.len() {
            assert!(
                OpLog::decode(&bytes[..cut]).is_err(),
                "cut at {cut} must error"
            );
        }
    }

    #[test]
    fn out_of_order_seq_fails_closed() {
        let mut log = OpLog::new();
        log.append(1, step('x'));
        log.append(1, step('y'));
        let mut bytes = log.encode().unwrap();
        // Overwrite the second op's seq (2 → 9).
        let second = bytes.len() / 2;
        bytes[second] = 9;
        assert!(matches!(
            OpLog::decode(&bytes),
            Err(WireError::BadSeq { want: 2, got: 9 })
        ));
    }

    #[test]
    fn oversized_line_length_fails_closed() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&1u64.to_le_bytes());
        bytes.extend_from_slice(&1u64.to_le_bytes());
        bytes.extend_from_slice(&(u32::MAX).to_le_bytes());
        assert_eq!(OpLog::decode(&bytes), Err(WireError::TooLarge));
    }

    /// A log one op past [`MAX_LOG_OPS`], every op as short as an op
    /// can be (a 20-byte header and a 5-byte `close` line), fails
    /// closed, and the same log one op shorter decodes. The bytes are
    /// built once, by copying one encoded op.
    #[test]
    fn a_log_past_max_log_ops_fails_closed() {
        let close = Op {
            seq: 1,
            author: 1,
            step: ScriptStep::Event(WindowEvent::Close),
        };
        let mut one = Vec::new();
        close.encode_into(&mut one).unwrap();
        assert_eq!(one.len(), 25);
        let ops = MAX_LOG_OPS as u64 + 1;
        let mut bytes = Vec::with_capacity(one.len() * ops as usize);
        for seq in 1..=ops {
            bytes.extend_from_slice(&seq.to_le_bytes());
            bytes.extend_from_slice(&one[8..]);
        }
        assert_eq!(OpLog::decode(&bytes), Err(WireError::TooLarge));
        let at_cap = OpLog::decode(&bytes[..bytes.len() - one.len()]);
        assert_eq!(at_cap.map(|log| log.len()), Ok(MAX_LOG_OPS));
    }

    #[test]
    fn unencodable_step_reports_bad_step() {
        let mut log = OpLog::new();
        log.append(
            1,
            ScriptStep::Event(WindowEvent::Expose(atk_graphics::Rect::new(0, 0, 4, 4))),
        );
        assert!(matches!(log.encode(), Err(WireError::BadStep(_))));
    }
}
