//! Weighted random [`ScriptStep`] generation.
//!
//! The generator is the fuzzer's stand-in for the paper's ~3000 campus
//! users: a seed-stable stream of typing, mouse gestures, keymap chords,
//! menu traffic, clock ticks, and resizes. Generation is interleaved
//! with execution because two step kinds depend on live session state —
//! menu selection picks a label actually offered along the current focus
//! path, and mouse coordinates stay inside the current window size. The
//! *recorded* steps carry concrete values, so replaying them from
//! scratch (for shrinking or `runapp --script`) needs no generator.

use atk_core::{InteractionManager, ScriptStep, World};
use atk_graphics::{Point, Size};
use atk_wm::{Button, Key, MouseAction, WindowEvent};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Printable characters the typing arm draws from.
const TYPABLE: &[char] = &[
    'a', 'b', 'c', 'd', 'e', 'f', 'g', 'h', 'i', 'j', 'k', 'l', 'm', 'n', 'o', 'p', 'q', 'r', 's',
    't', 'u', 'v', 'w', 'x', 'y', 'z', 'A', 'E', 'T', 'Z', '0', '1', '7', '9', '.', ',', '!', '-',
    '=', '(', ')', ' ',
];

/// Editing keys the typing arm mixes in with plain characters.
const EDIT_KEYS: &[Key] = &[
    Key::Return,
    Key::Tab,
    Key::Backspace,
    Key::Delete,
    Key::Up,
    Key::Down,
    Key::Left,
    Key::Right,
    Key::PageUp,
    Key::PageDown,
    Key::Home,
    Key::End,
];

/// Chord keys: enough of the `standard_editing_keymap` bindings to hit
/// bound commands, plus keys that leave a `C-x` prefix dangling or make
/// a chord unbound after a valid prefix.
const CHORD_KEYS: &[Key] = &[
    Key::Ctrl('x'),
    Key::Ctrl('s'),
    Key::Ctrl('a'),
    Key::Ctrl('e'),
    Key::Ctrl('f'),
    Key::Ctrl('b'),
    Key::Ctrl('n'),
    Key::Ctrl('p'),
    Key::Ctrl('d'),
    Key::Ctrl('k'),
    Key::Meta('v'),
    Key::Escape,
];

/// A seed-driven step generator with just enough gesture state to emit
/// coherent mouse streams (drags only while a left press is held).
pub struct StepGen {
    rng: StdRng,
    held: Option<Button>,
}

impl StepGen {
    /// A generator with a fixed seed (same seed → same stream against
    /// the same scene).
    pub fn new(seed: u64) -> StepGen {
        StepGen {
            rng: StdRng::seed_from_u64(seed),
            held: None,
        }
    }

    fn random_point(&mut self, size: Size) -> Point {
        let x = self.rng.gen_range(0..size.width.max(1));
        let y = self.rng.gen_range(0..size.height.max(1));
        Point::new(x, y)
    }

    /// Draws the next step. `world`/`im` are only *read* (window size,
    /// offered menu labels); the session is not advanced here.
    pub fn next_step(&mut self, world: &mut World, im: &mut InteractionManager) -> ScriptStep {
        let size = im.window_mut().size();
        let roll = self.rng.gen_range(0u32..100);
        let ev = match roll {
            // Typing: plain characters and editing keys.
            0..=29 => {
                if self.rng.gen_bool(0.75) {
                    let c = TYPABLE[self.rng.gen_range(0..TYPABLE.len())];
                    WindowEvent::Key(Key::Char(c))
                } else {
                    WindowEvent::Key(EDIT_KEYS[self.rng.gen_range(0..EDIT_KEYS.len())])
                }
            }
            // Chords through the keymap (prefixes, bound, and unbound).
            30..=44 => WindowEvent::Key(CHORD_KEYS[self.rng.gen_range(0..CHORD_KEYS.len())]),
            // Mouse gestures.
            45..=69 => {
                let pos = self.random_point(size);
                let action = match self.held {
                    Some(Button::Left) => {
                        if self.rng.gen_bool(0.6) {
                            MouseAction::Drag(Button::Left)
                        } else {
                            self.held = None;
                            MouseAction::Up(Button::Left)
                        }
                    }
                    Some(b) => {
                        self.held = None;
                        MouseAction::Up(b)
                    }
                    None => {
                        let b = match self.rng.gen_range(0u32..100) {
                            0..=54 => Some(Button::Left),
                            55..=69 => Some(Button::Right),
                            70..=79 => Some(Button::Middle),
                            _ => None,
                        };
                        match b {
                            Some(b) => {
                                self.held = Some(b);
                                MouseAction::Down(b)
                            }
                            None => MouseAction::Movement,
                        }
                    }
                };
                WindowEvent::Mouse { action, pos }
            }
            // Menu request (paints the transient overlay).
            70..=75 => WindowEvent::MenuRequest {
                pos: self.random_point(size),
            },
            // Menu select: a label actually offered on the focus path.
            76..=81 => {
                let menus = im.collect_menus(world);
                if menus.is_empty() {
                    WindowEvent::Mouse {
                        action: MouseAction::Movement,
                        pos: self.random_point(size),
                    }
                } else {
                    let item = &menus[self.rng.gen_range(0..menus.len())];
                    return ScriptStep::MenuSelect(item.label.clone());
                }
            }
            // Virtual time (drives timers and animations).
            82..=91 => WindowEvent::Tick(self.rng.gen_range(1u64..250)),
            // Resize (relayout of the whole tree).
            92..=94 => WindowEvent::Resize(Size::new(
                self.rng.gen_range(160..640),
                self.rng.gen_range(140..560),
            )),
            // Plain pointer motion (cursor arbitration).
            _ => WindowEvent::Mouse {
                action: MouseAction::Movement,
                pos: self.random_point(size),
            },
        };
        ScriptStep::Event(ev)
    }
}

/// Records a seeded interleaving of `writers` independent edit streams
/// against **one shared session** — the generator-side model of a
/// collaborative document. Each writer gets its own [`StepGen`] (so a
/// writer's gesture state stays coherent: its drags release before its
/// next press), and a separate interleave RNG picks which writer moves
/// next, so the merged order is itself seed-stable. Steps are applied
/// to the shared session as they are drawn, because menu selection and
/// mouse coordinates depend on the state every *previous* writer left
/// behind — exactly the situation replicas of a shared document are in.
///
/// The recorded `(writer, step)` pairs replay without the generator:
/// submit each step in order from the numbered writer and any replica
/// set must converge on the same document.
pub fn interleaved_script(
    scene: &str,
    seed: u64,
    writers: usize,
    steps: usize,
) -> Result<Vec<(usize, ScriptStep)>, String> {
    if writers == 0 {
        return Err("interleaved_script needs at least one writer".to_string());
    }
    let mut session = crate::Session::build(scene, "x11sim")?;
    let mut gens: Vec<StepGen> = (0..writers)
        .map(|w| StepGen::new(seed ^ (0x9e37_79b9_7f4a_7c15u64.wrapping_mul(w as u64 + 1))))
        .collect();
    let mut pick = StdRng::seed_from_u64(seed.wrapping_mul(0x2545_f491_4f6c_dd1d));
    let mut recorded = Vec::with_capacity(steps);
    for _ in 0..steps {
        let w = pick.gen_range(0..writers);
        let step = gens[w].next_step(&mut session.world, &mut session.im);
        session.apply(&step);
        recorded.push((w, step));
    }
    Ok(recorded)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record_stream(seed: u64, steps: usize) -> Vec<ScriptStep> {
        let mut session = crate::Session::build("fig2", "x11sim").expect("scene");
        let mut gen = StepGen::new(seed);
        let mut recorded = Vec::with_capacity(steps);
        for _ in 0..steps {
            let step = gen.next_step(&mut session.world, &mut session.im);
            session.apply(&step);
            recorded.push(step);
        }
        recorded
    }

    #[test]
    fn same_seed_same_stream() {
        let a = record_stream(7, 200);
        let b = record_stream(7, 200);
        assert_eq!(a, b);
        let c = record_stream(8, 200);
        assert_ne!(a, c);
    }

    #[test]
    fn streams_cover_every_step_kind() {
        let steps = record_stream(42, 600);
        let has = |pred: &dyn Fn(&ScriptStep) -> bool| steps.iter().any(pred);
        assert!(has(&|s| matches!(
            s,
            ScriptStep::Event(WindowEvent::Key(_))
        )));
        assert!(has(&|s| matches!(
            s,
            ScriptStep::Event(WindowEvent::Mouse { .. })
        )));
        assert!(has(&|s| matches!(
            s,
            ScriptStep::Event(WindowEvent::Tick(_))
        )));
        assert!(has(&|s| matches!(
            s,
            ScriptStep::Event(WindowEvent::Resize(_))
        )));
        assert!(has(&|s| matches!(
            s,
            ScriptStep::Event(WindowEvent::MenuRequest { .. })
        )));
        assert!(has(&|s| matches!(s, ScriptStep::MenuSelect(_))));
    }

    #[test]
    fn every_generated_step_serializes() {
        // The whole point of recording concrete steps is that the stream
        // can be written out and replayed; no generated step may fall
        // outside the line format.
        for step in record_stream(123, 500) {
            assert!(step.to_line().is_some(), "unserializable step {step:?}");
        }
    }

    #[test]
    fn interleaved_scripts_are_seed_stable() {
        let a = interleaved_script("fig2", 7, 3, 120).expect("script");
        let b = interleaved_script("fig2", 7, 3, 120).expect("script");
        assert_eq!(a, b);
        let c = interleaved_script("fig2", 8, 3, 120).expect("script");
        assert_ne!(a, c);
        // Every writer actually gets a turn.
        for w in 0..3 {
            assert!(a.iter().any(|(who, _)| *who == w), "writer {w} never moved");
        }
        // Collab ops travel as script lines; every step must serialize.
        for (_, step) in &a {
            assert!(step.to_line().is_some(), "unserializable step {step:?}");
        }
    }
}
