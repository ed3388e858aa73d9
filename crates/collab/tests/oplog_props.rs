//! Property tests over the op log: every sequence of wire-encodable
//! steps round-trips byte-exactly through the binary log format, and
//! no byte sequence — truncated, corrupted, or pure noise — makes the
//! decoder panic (it fails closed with a `WireError`).

use atk_collab::{OpLog, WireError};
use atk_core::ScriptStep;
use atk_graphics::{Point, Size};
use atk_wm::{Key, MouseAction, WindowEvent};
use proptest::prelude::*;

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

fn log_of(steps: Vec<(ScriptStep, u64)>) -> OpLog {
    let mut log = OpLog::new();
    for (step, author) in steps {
        log.append(author, step);
    }
    log
}

fn arb_log() -> impl Strategy<Value = OpLog> {
    proptest::collection::vec((arb_step(), any::<u64>()), 0..24).prop_map(log_of)
}

fn arb_nonempty_log() -> impl Strategy<Value = OpLog> {
    proptest::collection::vec((arb_step(), any::<u64>()), 1..24).prop_map(log_of)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(400))]

    #[test]
    fn logs_round_trip(log in arb_log()) {
        let bytes = log.encode().unwrap();
        prop_assert_eq!(OpLog::decode(&bytes).unwrap(), log);
    }

    #[test]
    fn truncated_logs_fail_closed(log in arb_nonempty_log(), cut in 0.0f64..1.0) {
        let bytes = log.encode().unwrap();
        let keep = ((bytes.len() as f64 * cut) as usize).min(bytes.len() - 1);
        // A cut on an op boundary decodes the shorter prefix — still
        // a valid log, never a panic; any other cut is an error.
        if let Ok(prefix) = OpLog::decode(&bytes[..keep]) {
            prop_assert!(prefix.len() < log.len());
        }
    }

    #[test]
    fn corrupted_logs_never_panic(
        log in arb_nonempty_log(),
        at in 0.0f64..1.0,
        flip in 1u8..255,
    ) {
        let mut bytes = log.encode().unwrap();
        let i = ((bytes.len() as f64 * at) as usize).min(bytes.len() - 1);
        bytes[i] ^= flip;
        let _ = OpLog::decode(&bytes); // Ok or Err, never a panic.
    }

    #[test]
    fn noise_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        match OpLog::decode(&bytes) {
            Ok(log) => prop_assert!(bytes.is_empty() || !log.is_empty() || bytes.len() < 20),
            Err(e) => {
                // Errors carry a human-readable form without panicking.
                let _ = e.to_string();
                prop_assert!(matches!(
                    e,
                    WireError::Truncated
                        | WireError::BadString
                        | WireError::BadStep(_)
                        | WireError::TooLarge
                        | WireError::BadSeq { .. }
                ));
            }
        }
    }
}
