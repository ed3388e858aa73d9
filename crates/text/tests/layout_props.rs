//! Differential properties for incremental text layout.
//!
//! Every edit goes through the view's live notification path (the
//! edit-local relayout), then [`TextView::verify_layout_against_full`]
//! demands the resulting line table be byte-identical to a from-scratch
//! re-wrap of the same document at the same width — the invariant the
//! `layout` oracle in atk-check fuzzes at session scale.

use atk_core::{DataId, ViewId, World};
use atk_graphics::{Point, Rect};
use atk_text::{TextData, TextView};
use proptest::prelude::*;

/// Narrow enough that 40-odd chars wrap; tall enough that nothing is
/// scrolled out in a way that matters to layout (it never does).
const BOUNDS: Rect = Rect {
    x: 0,
    y: 0,
    width: 220,
    height: 160,
};

fn build_world(content: &str, insets: &[usize]) -> (World, DataId, ViewId) {
    let mut world = World::new();
    atk_text::register(&mut world.catalog);
    atk_components::register(&mut world.catalog);
    let data = world.insert_data(Box::new(TextData::from_str(content)));
    // Embedded objects: nested text views re-wrap the host line around
    // their desired size, the case where tail reuse must also shift the
    // inset bounds.
    for &pos in insets {
        let inner = world.insert_data(Box::new(TextData::from_str("in set")));
        let rec = world
            .data_mut::<TextData>(data)
            .unwrap()
            .add_embedded(pos, inner, "textview");
        world.notify(data, rec);
    }
    let view = world.new_view("textview").unwrap();
    world.with_view(view, |v, w| v.set_data_object(w, data));
    world.set_view_bounds(view, BOUNDS);
    world.flush_notifications();
    with_tv(&mut world, view, |tv, w| {
        tv.ensure_layout(w);
    });
    (world, data, view)
}

fn with_tv<R>(
    world: &mut World,
    view: ViewId,
    f: impl FnOnce(&mut TextView, &mut World) -> R,
) -> R {
    world
        .with_view(view, |v, w| {
            f(v.as_any_mut().downcast_mut::<TextView>().unwrap(), w)
        })
        .unwrap()
}

/// Applies one text edit the way a live session does — mutate, notify,
/// flush (which drives the incremental relayout) — then checks the
/// differential invariant.
fn check_after(world: &mut World, data: DataId, view: ViewId, op: &Op) -> Result<(), String> {
    let len = world.data::<TextData>(data).unwrap().len();
    let rec = {
        let text = world.data_mut::<TextData>(data).unwrap();
        match *op {
            Op::Insert(pos, ref s) => text.insert(pos.min(len), s),
            Op::Delete(pos, n) => {
                let pos = pos.min(len);
                text.delete(pos, n.min(len - pos))
            }
            Op::Style(pos, n) => {
                let a = pos.min(len);
                let b = (a + n.max(1)).min(len);
                if a >= b {
                    return Ok(());
                }
                let style = text.style_value_at(a).clone().bolded().sized(20);
                text.apply_style(a, b, style)
            }
        }
    };
    world.notify(data, rec);
    world.flush_notifications();
    with_tv(world, view, |tv, w| tv.verify_layout_against_full(w))
}

/// What the layout check must leave as it found: the line table (its
/// length, height and the position under a probe every 4 px down the
/// content) and the bounds of every inset.
fn layout_state(world: &mut World, view: ViewId) -> (Vec<usize>, i32, Vec<Rect>) {
    let table = with_tv(world, view, |tv, w| {
        let probes = (0..tv.content_height())
            .step_by(4)
            .map(|y| tv.pos_at_point(w, Point::new(30, y)));
        let mut table = vec![tv.line_count()];
        table.extend(probes);
        (table, tv.content_height())
    });
    let insets = insets_of(world, view)
        .into_iter()
        .map(|v| world.view_bounds(v))
        .collect();
    (table.0, table.1, insets)
}

fn insets_of(world: &World, view: ViewId) -> Vec<ViewId> {
    world
        .view_ids()
        .into_iter()
        .filter(|&v| world.view_parent(v) == Some(view))
        .collect()
}

#[derive(Debug, Clone)]
enum Op {
    Insert(usize, String),
    Delete(usize, usize),
    Style(usize, usize),
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        // Plain typing and pasting, with spaces and newlines so edits
        // merge, split, and re-wrap lines.
        (0usize..400, "[a-z \\n]{1,8}").prop_map(|(p, s)| Op::Insert(p, s)),
        (0usize..400, "[a-z]{20,40}").prop_map(|(p, s)| Op::Insert(p, s)),
        (0usize..400, Just("\n".to_string())).prop_map(|(p, s)| Op::Insert(p, s)),
        (0usize..400, 1usize..30).prop_map(|(p, n)| Op::Delete(p, n)),
        (0usize..400, 1usize..25).prop_map(|(p, n)| Op::Style(p, n)),
    ]
}

fn arb_doc() -> impl Strategy<Value = String> {
    // A handful of space-separated word lines: several wrapped lines at
    // the 220px bounds, plus hard newlines.
    proptest::collection::vec("[a-z]{1,9}( [a-z]{1,9}){0,9}", 1..8).prop_map(|l| l.join("\n"))
}

proptest! {
    #[test]
    fn incremental_layout_matches_full_relayout(
        doc in arb_doc(),
        ops in proptest::collection::vec(arb_op(), 1..25),
    ) {
        let (mut world, data, view) = build_world(&doc, &[]);
        for op in &ops {
            prop_assert_eq!(check_after(&mut world, data, view, op), Ok(()));
        }
    }

    #[test]
    fn incremental_layout_matches_full_with_insets(
        doc in arb_doc(),
        inset_at in 0usize..60,
        ops in proptest::collection::vec(arb_op(), 1..20),
    ) {
        let (mut world, data, view) = build_world(&doc, &[inset_at]);
        for op in &ops {
            prop_assert_eq!(check_after(&mut world, data, view, op), Ok(()));
        }
    }

    /// The check reports what it finds and repairs nothing. After
    /// random edits the layout is left current (`stale` 0) or made
    /// stale behind the view's back: text inserted with no
    /// notification (1), or the inset moved off its place (2). Either
    /// way a call leaves the line table and the inset's bounds as they
    /// were, and it fails exactly when the layout is stale.
    #[test]
    fn the_layout_check_leaves_the_layout_as_it_was(
        doc in arb_doc(),
        inset_at in 0usize..60,
        ops in proptest::collection::vec(arb_op(), 0..12),
        stale in 0u8..3,
    ) {
        let (mut world, data, view) = build_world(&doc, &[inset_at]);
        for op in &ops {
            prop_assert_eq!(check_after(&mut world, data, view, op), Ok(()));
        }
        // Edits may have deleted the inset's anchor or left it on a
        // newline or past the end, where no line lays it out; moving
        // the inset is then no divergence.
        let text = world.data::<TextData>(data).unwrap();
        let anchored = text
            .anchors()
            .iter()
            .any(|&(p, ..)| text.char_at(p).is_some_and(|c| c != '\n'));
        match stale {
            1 => {
                let _ = world.data_mut::<TextData>(data).unwrap().insert(0, "\n\n\n");
            }
            2 => {
                for v in insets_of(&world, view) {
                    let b = world.view_bounds(v);
                    world.set_view_bounds(v, Rect { y: b.y + 7, ..b });
                }
            }
            _ => {}
        }
        let before = layout_state(&mut world, view);
        let verdict = with_tv(&mut world, view, |tv, w| tv.verify_layout_against_full(w));
        prop_assert_eq!(layout_state(&mut world, view), before);
        let diverged = stale == 1 || (stale == 2 && anchored);
        prop_assert_eq!(verdict.is_err(), diverged, "{:?}", verdict);
    }
}

// --- Named regressions ------------------------------------------------------

#[test]
fn edit_at_eof_relayouts_cleanly() {
    // Appending at the very end: the last line's wrap scan ends at
    // `len`, so an append must re-lay it (and the trailing synthetic
    // line when the text ends in a newline).
    for doc in [
        "alpha beta gamma delta epsilon zeta",
        "ends with newline\n",
        "",
    ] {
        let (mut world, data, view) = build_world(doc, &[]);
        let len = world.data::<TextData>(data).unwrap().len();
        let op = Op::Insert(len, "tail more words here".to_string());
        assert_eq!(
            check_after(&mut world, data, view, &op),
            Ok(()),
            "doc {doc:?}"
        );
        let len = world.data::<TextData>(data).unwrap().len();
        let op = Op::Delete(len.saturating_sub(3), 3);
        assert_eq!(
            check_after(&mut world, data, view, &op),
            Ok(()),
            "doc {doc:?}"
        );
    }
}

#[test]
fn edit_before_first_line_relayouts_cleanly() {
    // Position 0 has no previous line to rewind into; the prefix-keep
    // logic must cope with an empty prefix.
    let (mut world, data, view) = build_world("first line words\nsecond line words here", &[]);
    assert_eq!(
        check_after(&mut world, data, view, &Op::Insert(0, "x".to_string())),
        Ok(())
    );
    assert_eq!(
        check_after(&mut world, data, view, &Op::Insert(0, "\n".to_string())),
        Ok(())
    );
    assert_eq!(
        check_after(&mut world, data, view, &Op::Delete(0, 5)),
        Ok(())
    );
}

#[test]
fn newline_merge_and_split_relayout_cleanly() {
    let (mut world, data, view) = build_world("one two three\nfour five six\nseven eight", &[]);
    // Split the middle line…
    assert_eq!(
        check_after(&mut world, data, view, &Op::Insert(19, "\n".to_string())),
        Ok(())
    );
    // …then merge two lines by deleting a newline.
    assert_eq!(
        check_after(&mut world, data, view, &Op::Delete(13, 1)),
        Ok(())
    );
}

#[test]
fn rewrap_across_inset_relayouts_cleanly() {
    // An inset mid-document; edits before it shift its anchor, edits at
    // its line re-wrap around its desired size, and a tail splice must
    // move its view bounds with the lines.
    let (mut world, data, view) = build_world(
        "words before the object and then quite a few more words\nafter line",
        &[20],
    );
    for op in [
        Op::Insert(0, "shift everything down by quite a lot\n".to_string()),
        Op::Insert(25, "wrap wrap wrap ".to_string()),
        Op::Delete(0, 10),
        Op::Insert(2, "\n\n".to_string()),
    ] {
        assert_eq!(
            check_after(&mut world, data, view, &op),
            Ok(()),
            "op {op:?}"
        );
    }
}

#[test]
fn a_newline_typed_at_an_inset_keeps_it_on_its_object() {
    // A newline typed exactly at an inset's anchor lands before the
    // object character. The anchor must move with that character: left
    // on the newline, no line would lay the inset out, and it would
    // stay where an older layout put it.
    let (mut world, data, view) = build_world("words before the object\nafter line", &[12]);
    assert_eq!(
        check_after(&mut world, data, view, &Op::Insert(12, "\n".to_string())),
        Ok(())
    );
    let text = world.data::<TextData>(data).unwrap();
    let (anchor, ..) = text.anchors()[0];
    assert_eq!((anchor, text.char_at(anchor)), (13, Some('\u{FFFC}')));
    // The inset is laid out on its object, so moving it is a
    // divergence the layout check reports.
    for v in insets_of(&world, view) {
        let b = world.view_bounds(v);
        world.set_view_bounds(v, Rect { y: b.y + 7, ..b });
    }
    let verdict = with_tv(&mut world, view, |tv, w| tv.verify_layout_against_full(w));
    assert!(verdict.is_err(), "{verdict:?}");
}

#[test]
fn edit_local_relayout_reuses_the_tail() {
    // A keystroke near the top of a many-line document must re-wrap a
    // handful of lines and splice the rest — the counters are the whole
    // point of the tentpole, so pin them down.
    let doc = "word ".repeat(400);
    let (mut world, data, view) = build_world(&doc, &[]);
    let collector = std::sync::Arc::new(atk_trace::Collector::new());
    collector.enable();
    world.set_collector(std::sync::Arc::clone(&collector));
    let total_lines = with_tv(&mut world, view, |tv, _| tv.line_count());
    assert!(total_lines > 20, "doc should wrap to many lines");
    let rec = world.data_mut::<TextData>(data).unwrap().insert(3, "xy");
    world.notify(data, rec);
    world.flush_notifications();
    let snap = collector.snapshot();
    assert_eq!(snap.counter("text.layout_reuse_tail"), 1, "tail not reused");
    let relaid = snap.counter("text.relayout_lines") as usize;
    assert!(
        relaid <= 4,
        "edit near the top re-laid {relaid} of {total_lines} lines"
    );
    assert_eq!(
        with_tv(&mut world, view, |tv, w| tv.verify_layout_against_full(w)),
        Ok(())
    );
}

#[test]
fn embedded_data_change_invalidates_host_layout() {
    // Growing the embedded object's content changes its desired size;
    // the host must observe that and re-wrap (the bug the layout oracle
    // caught first: a stale memoized line width).
    let (mut world, data, view) = build_world("host text around an object here", &[10]);
    let inner = world
        .data::<TextData>(data)
        .unwrap()
        .anchors()
        .first()
        .map(|(_, d, _)| *d)
        .unwrap();
    let rec = world
        .data_mut::<TextData>(inner)
        .unwrap()
        .insert(0, "much wider now ");
    world.notify(inner, rec);
    world.flush_notifications();
    // The host heard about it and invalidated; bring layout current the
    // way the next draw would, then both tables must agree.
    with_tv(&mut world, view, |tv, w| {
        tv.ensure_layout(w);
    });
    assert_eq!(
        with_tv(&mut world, view, |tv, w| tv.verify_layout_against_full(w)),
        Ok(())
    );
}
