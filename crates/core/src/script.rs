//! Scripted event sources: the deterministic stand-in for a user at the
//! display.
//!
//! The paper's applications were exercised by ~3000 campus users; ours
//! are exercised by event scripts, which is what makes every snapshot and
//! benchmark reproducible. A script is a line-oriented text format:
//!
//! ```text
//! # move, press, type, choose a menu item, let time pass
//! mouse move 120 80
//! mouse down 120 80
//! mouse up 120 80
//! type Hello, world
//! key C-x
//! key C-s
//! key RET
//! menu request
//! menu select Save
//! tick 250
//! resize 800 600
//! ```

use atk_graphics::{Point, Size};
use atk_trace::{FrameTrace, Stage};
use atk_wm::{Button, Key, MouseAction, WindowEvent};

use crate::im::InteractionManager;
use crate::world::World;

/// One step of a script.
#[derive(Debug, Clone, PartialEq)]
pub enum ScriptStep {
    /// Post a window event.
    Event(WindowEvent),
    /// Request menus, then select the item with this label.
    MenuSelect(String),
}

impl ScriptStep {
    /// Renders the step as one script line (the inverse of
    /// [`EventScript::parse`]), or `None` for events the line format
    /// cannot carry (`Expose`, `MenuSelect` window events).
    pub fn to_line(&self) -> Option<String> {
        let line = match self {
            ScriptStep::MenuSelect(label) => format!("menu select {label}"),
            ScriptStep::Event(ev) => match ev {
                WindowEvent::Mouse { action, pos } => {
                    let verb = match action {
                        MouseAction::Down(Button::Left) => "down",
                        MouseAction::Up(Button::Left) => "up",
                        MouseAction::Drag(Button::Left) => "drag",
                        MouseAction::Movement => "move",
                        MouseAction::Down(Button::Right) => "rdown",
                        MouseAction::Up(Button::Right) => "rup",
                        MouseAction::Down(Button::Middle) => "mdown",
                        MouseAction::Up(Button::Middle) => "mup",
                        // The parser has no verb for non-left drags.
                        MouseAction::Drag(_) => return None,
                    };
                    format!("mouse {verb} {} {}", pos.x, pos.y)
                }
                WindowEvent::Key(key) => format!("key {}", format_key(*key)?),
                WindowEvent::MenuRequest { pos } if *pos == Point::ORIGIN => {
                    "menu request".to_string()
                }
                WindowEvent::MenuRequest { pos } => {
                    format!("menu request {} {}", pos.x, pos.y)
                }
                WindowEvent::Tick(ms) => format!("tick {ms}"),
                WindowEvent::Resize(size) => format!("resize {} {}", size.width, size.height),
                WindowEvent::Close => "close".to_string(),
                WindowEvent::Expose(_) | WindowEvent::MenuSelect(_) => return None,
            },
        };
        Some(line)
    }
}

/// A parsed script.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EventScript {
    /// The steps, in order.
    pub steps: Vec<ScriptStep>,
}

impl EventScript {
    /// Parses script text.
    ///
    /// # Errors
    ///
    /// Returns the 1-based line number and a description for the first
    /// malformed line.
    pub fn parse(src: &str) -> Result<EventScript, (usize, String)> {
        let mut steps = Vec::new();
        for (idx, raw) in src.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let err = |msg: &str| (idx + 1, format!("{msg}: {raw}"));
            let mut words = line.split_whitespace();
            match words.next().unwrap() {
                "mouse" => {
                    let verb = words.next().ok_or_else(|| err("missing mouse verb"))?;
                    let btn = match verb {
                        "down" | "up" | "drag" | "move" => Button::Left,
                        "rdown" | "rup" => Button::Right,
                        "mdown" | "mup" => Button::Middle,
                        _ => return Err(err("unknown mouse verb")),
                    };
                    let action = match verb {
                        "down" | "rdown" | "mdown" => MouseAction::Down(btn),
                        "up" | "rup" | "mup" => MouseAction::Up(btn),
                        "drag" => MouseAction::Drag(btn),
                        "move" => MouseAction::Movement,
                        _ => unreachable!(),
                    };
                    let x: i32 = words
                        .next()
                        .and_then(|w| w.parse().ok())
                        .ok_or_else(|| err("bad x"))?;
                    let y: i32 = words
                        .next()
                        .and_then(|w| w.parse().ok())
                        .ok_or_else(|| err("bad y"))?;
                    steps.push(ScriptStep::Event(WindowEvent::Mouse {
                        action,
                        pos: Point::new(x, y),
                    }));
                }
                "key" => {
                    let name = words.next().ok_or_else(|| err("missing key"))?;
                    let key = parse_key(name).ok_or_else(|| err("unknown key"))?;
                    steps.push(ScriptStep::Event(WindowEvent::Key(key)));
                }
                "type" => {
                    let text = line.strip_prefix("type").unwrap().strip_prefix(' ');
                    let text = text.ok_or_else(|| err("missing text"))?;
                    for ch in text.chars() {
                        steps.push(ScriptStep::Event(WindowEvent::Key(Key::Char(ch))));
                    }
                }
                "menu" => match words.next() {
                    Some("request") => {
                        // Optional request position (defaults to the
                        // origin; older scripts omit it).
                        let pos = match words.next() {
                            None => Point::ORIGIN,
                            Some(xs) => {
                                let x: i32 = xs.parse().map_err(|_| err("bad x"))?;
                                let y: i32 = words
                                    .next()
                                    .and_then(|w| w.parse().ok())
                                    .ok_or_else(|| err("bad y"))?;
                                Point::new(x, y)
                            }
                        };
                        steps.push(ScriptStep::Event(WindowEvent::MenuRequest { pos }));
                    }
                    Some("select") => {
                        let label = line
                            .splitn(3, ' ')
                            .nth(2)
                            .ok_or_else(|| err("missing menu label"))?;
                        steps.push(ScriptStep::MenuSelect(label.to_string()));
                    }
                    _ => return Err(err("unknown menu verb")),
                },
                "tick" => {
                    let ms: u64 = words
                        .next()
                        .and_then(|w| w.parse().ok())
                        .ok_or_else(|| err("bad tick"))?;
                    steps.push(ScriptStep::Event(WindowEvent::Tick(ms)));
                }
                "resize" => {
                    let w: i32 = words
                        .next()
                        .and_then(|x| x.parse().ok())
                        .ok_or_else(|| err("bad width"))?;
                    let h: i32 = words
                        .next()
                        .and_then(|x| x.parse().ok())
                        .ok_or_else(|| err("bad height"))?;
                    steps.push(ScriptStep::Event(WindowEvent::Resize(Size::new(w, h))));
                }
                "close" => steps.push(ScriptStep::Event(WindowEvent::Close)),
                _ => return Err(err("unknown script command")),
            }
        }
        Ok(EventScript { steps })
    }

    /// Renders the script in the line-oriented text format, so any
    /// generated or minimized step stream can be saved and replayed with
    /// `runapp --script`. Steps the format cannot carry are skipped.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        for step in &self.steps {
            if let Some(line) = step.to_line() {
                out.push_str(&line);
                out.push('\n');
            }
        }
        out
    }

    /// Runs every step through the interaction manager with
    /// [`StepDriver`] semantics.
    pub fn run(&self, im: &mut InteractionManager, world: &mut World) {
        let mut driver = StepDriver::default();
        for step in &self.steps {
            driver.apply(im, world, step, &mut FrameTrace::disabled());
        }
    }
}

/// The one meaning of a script step, shared by script replay, the
/// fuzzer's sessions and every hosted session, private or replica.
///
/// Each step lands on a settled world and leaves one behind (paper §2's
/// delayed update): its events are dispatched, then change records and
/// notifications are flushed to quiescence, then the damage is
/// repainted. A server that drains a burst of steps applies them one by
/// one this way and ships one frame for the burst, so what a client
/// sees does not depend on how the transport batched its input.
///
/// A `menu select` re-requests the menu at the position the preceding
/// `menu request` recorded (origin when none was recorded), so replays
/// pop the menu where the user did; the driver carries that position
/// from step to step.
#[derive(Debug, Clone, Copy, Default)]
pub struct StepDriver {
    last_menu_pos: Point,
}

impl StepDriver {
    /// Applies one step and stamps its stages on `ft`: posting the
    /// event (or requesting the menu and selecting the item) and
    /// dispatching every queued event under [`Stage::Apply`],
    /// [`InteractionManager::flush_quiescent`] under [`Stage::Settle`],
    /// and [`InteractionManager::repaint_damage`] under
    /// [`Stage::Paint`]. Callers with no frame to attribute pass
    /// [`FrameTrace::disabled`].
    pub fn apply(
        &mut self,
        im: &mut InteractionManager,
        world: &mut World,
        step: &ScriptStep,
        ft: &mut FrameTrace,
    ) {
        ft.enter(Stage::Apply);
        match step {
            ScriptStep::Event(ev) => {
                self.observe(ev);
                im.window_mut().post_event(ev.clone());
            }
            ScriptStep::MenuSelect(label) => {
                im.feed(
                    world,
                    WindowEvent::MenuRequest {
                        pos: self.last_menu_pos,
                    },
                );
                im.select_menu(world, label);
            }
        }
        im.dispatch_queued(world);
        ft.enter(Stage::Settle);
        im.flush_quiescent(world);
        ft.enter(Stage::Paint);
        im.repaint_damage(world);
        ft.exit();
    }

    /// Records a `MenuRequest` event's position.
    fn observe(&mut self, ev: &WindowEvent) {
        if let WindowEvent::MenuRequest { pos } = ev {
            self.last_menu_pos = *pos;
        }
    }
}

/// Parses a key name: single characters, `C-x` / `M-x` chords, and the
/// special names used by the script format.
pub fn parse_key(name: &str) -> Option<Key> {
    let key = match name {
        "RET" | "RETURN" | "ENTER" => Key::Return,
        "TAB" => Key::Tab,
        "BS" | "BACKSPACE" => Key::Backspace,
        "DEL" | "DELETE" => Key::Delete,
        "ESC" => Key::Escape,
        "UP" => Key::Up,
        "DOWN" => Key::Down,
        "LEFT" => Key::Left,
        "RIGHT" => Key::Right,
        "PGUP" => Key::PageUp,
        "PGDN" => Key::PageDown,
        "HOME" => Key::Home,
        "END" => Key::End,
        "SPC" | "SPACE" => Key::Char(' '),
        _ => {
            if let Some(c) = name.strip_prefix("C-") {
                Key::Ctrl(c.chars().next()?)
            } else if let Some(c) = name.strip_prefix("M-") {
                Key::Meta(c.chars().next()?)
            } else if name.chars().count() == 1 {
                Key::Char(name.chars().next().unwrap())
            } else {
                return None;
            }
        }
    };
    Some(key)
}

/// Renders a key as the script format spells it (the inverse of
/// [`parse_key`]): special names for the named keys, `C-x`/`M-x` for
/// chords, the bare character otherwise. Returns `None` for characters
/// the whitespace-splitting parser cannot read back (e.g. `Char(' ')`
/// is spelled `SPC`, but an embedded control character has no spelling).
pub fn format_key(key: Key) -> Option<String> {
    let name = match key {
        Key::Return => "RET".to_string(),
        Key::Tab => "TAB".to_string(),
        Key::Backspace => "BS".to_string(),
        Key::Delete => "DEL".to_string(),
        Key::Escape => "ESC".to_string(),
        Key::Up => "UP".to_string(),
        Key::Down => "DOWN".to_string(),
        Key::Left => "LEFT".to_string(),
        Key::Right => "RIGHT".to_string(),
        Key::PageUp => "PGUP".to_string(),
        Key::PageDown => "PGDN".to_string(),
        Key::Home => "HOME".to_string(),
        Key::End => "END".to_string(),
        Key::Char(' ') => "SPC".to_string(),
        Key::Char(c) if !c.is_whitespace() && !c.is_control() => c.to_string(),
        Key::Char(_) => return None,
        Key::Ctrl(c) if !c.is_whitespace() && !c.is_control() => format!("C-{c}"),
        Key::Meta(c) if !c.is_whitespace() && !c.is_control() => format!("M-{c}"),
        Key::Ctrl(_) | Key::Meta(_) => return None,
    };
    Some(name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_mixed_script() {
        let script = EventScript::parse(
            "# demo\nmouse down 10 20\nmouse up 10 20\ntype hi\nkey C-x\nkey RET\ntick 50\nmenu request\nmenu select Save\nresize 640 480\nclose\n",
        )
        .unwrap();
        assert_eq!(script.steps.len(), 11);
        assert_eq!(
            script.steps[0],
            ScriptStep::Event(WindowEvent::left_down(10, 20))
        );
        assert_eq!(script.steps[2], ScriptStep::Event(WindowEvent::ch('h')));
        assert_eq!(
            script.steps[4],
            ScriptStep::Event(WindowEvent::Key(Key::Ctrl('x')))
        );
        assert_eq!(script.steps[8], ScriptStep::MenuSelect("Save".to_string()));
    }

    #[test]
    fn parse_errors_carry_line_numbers() {
        let err = EventScript::parse("mouse down 10 20\nbogus line\n").unwrap_err();
        assert_eq!(err.0, 2);
    }

    #[test]
    fn key_names() {
        assert_eq!(parse_key("a"), Some(Key::Char('a')));
        assert_eq!(parse_key("C-s"), Some(Key::Ctrl('s')));
        assert_eq!(parse_key("M-<"), Some(Key::Meta('<')));
        assert_eq!(parse_key("PGDN"), Some(Key::PageDown));
        assert_eq!(parse_key("nope"), None);
    }

    #[test]
    fn type_preserves_interior_spaces() {
        let script = EventScript::parse("type a b\n").unwrap();
        assert_eq!(script.steps.len(), 3);
        assert_eq!(script.steps[1], ScriptStep::Event(WindowEvent::ch(' ')));
    }

    #[test]
    fn to_text_round_trips_through_parse() {
        let script = EventScript {
            steps: vec![
                ScriptStep::Event(WindowEvent::left_down(10, 20)),
                ScriptStep::Event(WindowEvent::left_drag(12, 22)),
                ScriptStep::Event(WindowEvent::left_up(12, 22)),
                ScriptStep::Event(WindowEvent::Mouse {
                    action: MouseAction::Down(Button::Right),
                    pos: Point::new(3, 4),
                }),
                ScriptStep::Event(WindowEvent::Mouse {
                    action: MouseAction::Up(Button::Middle),
                    pos: Point::new(3, 4),
                }),
                ScriptStep::Event(WindowEvent::ch('h')),
                ScriptStep::Event(WindowEvent::ch(' ')),
                ScriptStep::Event(WindowEvent::Key(Key::Ctrl('x'))),
                ScriptStep::Event(WindowEvent::Key(Key::Meta('<'))),
                ScriptStep::Event(WindowEvent::Key(Key::Return)),
                ScriptStep::Event(WindowEvent::Key(Key::PageDown)),
                ScriptStep::Event(WindowEvent::MenuRequest { pos: Point::ORIGIN }),
                ScriptStep::MenuSelect("File/Save".to_string()),
                ScriptStep::Event(WindowEvent::Tick(250)),
                ScriptStep::Event(WindowEvent::Resize(Size::new(640, 480))),
                ScriptStep::Event(WindowEvent::Close),
            ],
        };
        let text = script.to_text();
        let parsed = EventScript::parse(&text).unwrap();
        assert_eq!(parsed, script, "script text was:\n{text}");
    }

    #[test]
    fn unserializable_steps_are_skipped_not_mangled() {
        use atk_graphics::Rect;
        let script = EventScript {
            steps: vec![
                ScriptStep::Event(WindowEvent::Expose(Rect::new(0, 0, 5, 5))),
                ScriptStep::Event(WindowEvent::Key(Key::Char('\u{7}'))),
                ScriptStep::Event(WindowEvent::ch('a')),
            ],
        };
        let text = script.to_text();
        assert_eq!(text, "key a\n");
        assert!(EventScript::parse(&text).is_ok());
    }

    #[test]
    fn format_key_inverts_parse_key() {
        for name in [
            "RET", "TAB", "BS", "DEL", "ESC", "UP", "DOWN", "LEFT", "RIGHT", "PGUP", "PGDN",
            "HOME", "END", "SPC", "a", "Z", "C-x", "M-<",
        ] {
            let key = parse_key(name).unwrap();
            let rendered = format_key(key).unwrap();
            assert_eq!(parse_key(&rendered), Some(key), "{name} -> {rendered}");
        }
    }
}
