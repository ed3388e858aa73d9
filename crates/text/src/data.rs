//! The text data object: characters, styles, and embedded-object anchors.
//!
//! "The text data object contains the actual characters, style
//! information and pointers to embedded data objects. It also provides
//! ways to alter the data, such as inserting characters and deleting
//! characters." (paper §2)
//!
//! Mutators return a [`ChangeRec`]; the caller passes it to
//! [`World::notify`] so every view of this data object (there may be
//! many, in many windows) learns exactly what changed — the delayed
//! update protocol.

use std::any::Any;
use std::io;

use atk_core::{
    ChangeRec, DataId, DataObject, DatastreamReader, DatastreamWriter, DsError, Token, World,
};

use crate::buffer::{GapBuffer, Gravity, MarkTable};
use crate::style::{Style, StyleId, StyleRuns, StyleTable};

/// An embedded object's position in the text.
#[derive(Debug, Clone)]
pub struct Anchor {
    mark: crate::buffer::MarkId,
    /// The embedded data object.
    pub data: DataId,
    /// The view class that displays it (the `\view{class,…}` of §5).
    pub view_class: String,
}

/// The multi-font, multi-media text data object.
#[derive(Clone)]
pub struct TextData {
    buffer: GapBuffer,
    runs: StyleRuns,
    /// The interned style table.
    pub styles: StyleTable,
    marks: MarkTable,
    anchors: Vec<Anchor>,
}

impl TextData {
    /// An empty text.
    pub fn new() -> TextData {
        TextData {
            buffer: GapBuffer::new(),
            runs: StyleRuns::new(0),
            styles: StyleTable::new(),
            marks: MarkTable::new(),
            anchors: Vec::new(),
        }
    }

    /// A text initialized with body-styled content.
    #[allow(clippy::should_implement_trait)] // infallible, unlike FromStr
    pub fn from_str(s: &str) -> TextData {
        let mut t = TextData::new();
        t.insert(0, s);
        t
    }

    /// Character count.
    pub fn len(&self) -> usize {
        self.buffer.len()
    }

    /// True if empty.
    pub fn is_empty(&self) -> bool {
        self.buffer.is_empty()
    }

    /// The character at `pos`.
    pub fn char_at(&self, pos: usize) -> Option<char> {
        self.buffer.char_at(pos)
    }

    /// The contents of `start..end`.
    pub fn slice(&self, start: usize, end: usize) -> String {
        self.buffer.slice(start, end)
    }

    /// The whole text.
    pub fn text(&self) -> String {
        self.buffer.to_string()
    }

    /// Inserts `text` at `pos`. Returns the change record to publish.
    pub fn insert(&mut self, pos: usize, text: &str) -> ChangeRec {
        let pos = pos.min(self.len());
        let n = self.buffer.insert(pos, text);
        self.runs.adjust_insert(pos, n);
        self.marks.adjust_insert(pos, n);
        ChangeRec::Text {
            pos,
            inserted: n,
            deleted: 0,
        }
    }

    /// Deletes `count` chars at `pos`. Returns the change record.
    pub fn delete(&mut self, pos: usize, count: usize) -> ChangeRec {
        let pos = pos.min(self.len());
        let n = self.buffer.delete(pos, count);
        self.runs.adjust_delete(pos, n);
        self.marks.adjust_delete(pos, n);
        // Anchors whose mark collapsed into the deletion are orphaned but
        // retained (the data object survives; the view skips it). Real
        // ATK deleted the object with the region; we keep the simpler
        // rule and drop anchors only when their position vanished.
        self.anchors.retain(|a| self.marks.pos(a.mark).is_some());
        ChangeRec::Text {
            pos,
            inserted: 0,
            deleted: n,
        }
    }

    /// Applies `style` to `start..end`. Returns the change record.
    pub fn apply_style(&mut self, start: usize, end: usize, style: Style) -> ChangeRec {
        let id = self.styles.intern(style);
        self.runs.apply(start, end.min(self.len()), id);
        ChangeRec::Text {
            pos: start,
            inserted: end.min(self.len()).saturating_sub(start),
            deleted: end.min(self.len()).saturating_sub(start),
        }
    }

    /// The style id at `pos`.
    pub fn style_at(&self, pos: usize) -> StyleId {
        self.runs.style_at(pos)
    }

    /// The style value at `pos`.
    pub fn style_value_at(&self, pos: usize) -> &Style {
        self.styles.get(self.runs.style_at(pos))
    }

    /// Style runs intersecting `start..end` as `(start, len, style)`.
    pub fn runs_in(&self, start: usize, end: usize) -> Vec<(usize, usize, StyleId)> {
        self.runs.runs_in(start, end)
    }

    /// Embeds `data` at `pos`, displayed by `view_class`. Returns the
    /// change record. This is the generic inclusion mechanism of §1: the
    /// text object needs no knowledge of what it embeds.
    pub fn add_embedded(&mut self, pos: usize, data: DataId, view_class: &str) -> ChangeRec {
        let pos = pos.min(self.len());
        // The anchor occupies one character position: an object
        // replacement character keeps every position calculation uniform.
        self.buffer.insert(pos, "\u{FFFC}");
        self.runs.adjust_insert(pos, 1);
        self.marks.adjust_insert(pos, 1);
        // Right gravity: text typed at the anchor lands before the
        // object character, and the anchor moves with the character.
        let mark = self.marks.create(pos, Gravity::Right);
        self.anchors.push(Anchor {
            mark,
            data,
            view_class: view_class.to_string(),
        });
        ChangeRec::Text {
            pos,
            inserted: 1,
            deleted: 0,
        }
    }

    /// Anchors with their current positions, sorted by position.
    pub fn anchors(&self) -> Vec<(usize, DataId, String)> {
        let mut v: Vec<(usize, DataId, String)> = self
            .anchors
            .iter()
            .filter_map(|a| {
                self.marks
                    .pos(a.mark)
                    .map(|p| (p, a.data, a.view_class.clone()))
            })
            .collect();
        v.sort_by_key(|(p, ..)| *p);
        v
    }

    /// The anchor at exactly `pos`, if any.
    pub fn anchor_at(&self, pos: usize) -> Option<(DataId, String)> {
        self.anchors.iter().find_map(|a| {
            (self.marks.pos(a.mark) == Some(pos)).then(|| (a.data, a.view_class.clone()))
        })
    }

    /// True if an embedded object is anchored inside `range`.
    pub fn has_anchor_in(&self, range: std::ops::Range<usize>) -> bool {
        self.anchors
            .iter()
            .any(|a| self.marks.pos(a.mark).is_some_and(|p| range.contains(&p)))
    }

    /// Line start before `pos`.
    pub fn line_start(&self, pos: usize) -> usize {
        self.buffer.line_start(pos)
    }

    /// Line end (position of `\n` or end) after `pos`.
    pub fn line_end(&self, pos: usize) -> usize {
        self.buffer.line_end(pos)
    }

    /// Start of the word containing or preceding `pos`.
    pub fn word_start(&self, pos: usize) -> usize {
        let mut i = pos.min(self.len());
        while i > 0 {
            match self.buffer.char_at(i - 1) {
                Some(c) if c.is_alphanumeric() => i -= 1,
                _ => break,
            }
        }
        i
    }

    /// End of the word containing `pos`.
    pub fn word_end(&self, pos: usize) -> usize {
        let mut i = pos.min(self.len());
        while i < self.len() {
            match self.buffer.char_at(i) {
                Some(c) if c.is_alphanumeric() => i += 1,
                _ => break,
            }
        }
        i
    }
}

impl Default for TextData {
    fn default() -> Self {
        TextData::new()
    }
}

fn flags_str(s: &Style) -> String {
    format!(
        "{}{}{}",
        if s.bold { 'b' } else { '-' },
        if s.italic { 'i' } else { '-' },
        if s.underline { 'u' } else { '-' }
    )
}

impl DataObject for TextData {
    fn class_name(&self) -> &'static str {
        "text"
    }

    fn write_body(&self, w: &mut DatastreamWriter, world: &World) -> io::Result<()> {
        // Styles and runs.
        w.write_line(&format!("styles {}", self.styles.len()))?;
        for (_, s) in self.styles.iter() {
            w.write_line(&format!(
                "style {} {} {} {}",
                s.family,
                s.size,
                flags_str(s),
                s.indent
            ))?;
        }
        let raw = self.runs.raw_runs();
        w.write_line(&format!("runs {}", raw.len()))?;
        for (len, id) in raw {
            w.write_line(&format!("run {len} {id}"))?;
        }
        // Embedded children, then their anchor placements.
        for (pos, data, view_class) in self.anchors() {
            let sid = w.write_embedded(world, data)?;
            w.write_line(&format!("anchor {pos}"))?;
            w.write_view_ref(&view_class, sid)?;
        }
        // The characters.
        let text = self.text();
        let lines: Vec<&str> = text.split('\n').collect();
        w.write_line(&format!("text {}", lines.len()))?;
        for line in lines {
            w.write_line(line)?;
        }
        Ok(())
    }

    fn read_body(
        &mut self,
        r: &mut DatastreamReader<'_>,
        world: &mut World,
    ) -> Result<(), DsError> {
        let mut styles: Vec<Style> = Vec::new();
        let mut raw_runs: Vec<(usize, StyleId)> = Vec::new();
        let mut pending_anchor: Option<usize> = None;
        let mut anchors: Vec<(usize, DataId, String)> = Vec::new();
        let mut text = String::new();
        let bad = |l: &str| DsError::Malformed(format!("text body: {l}"));

        loop {
            let tok = r.next_token()?.ok_or(DsError::UnexpectedEof)?;
            match tok {
                Token::EndData { .. } => break,
                Token::BeginData { class, sid } => {
                    r.read_object_body(world, &class, sid)?;
                }
                Token::ViewRef { class, sid } => {
                    let pos = pending_anchor.take().ok_or_else(|| bad("stray \\view"))?;
                    let data = r.lookup_sid(sid).ok_or(DsError::DanglingViewRef(sid))?;
                    anchors.push((pos, data, class));
                }
                Token::Line(line) => {
                    let mut words = line.split_whitespace();
                    match words.next() {
                        Some("styles") => {}
                        Some("style") => {
                            let family = words.next().ok_or_else(|| bad(&line))?;
                            let size: u32 = words
                                .next()
                                .and_then(|x| x.parse().ok())
                                .ok_or_else(|| bad(&line))?;
                            let flags = words.next().ok_or_else(|| bad(&line))?;
                            let indent: i32 = words
                                .next()
                                .and_then(|x| x.parse().ok())
                                .ok_or_else(|| bad(&line))?;
                            styles.push(Style {
                                family: family.to_string(),
                                size,
                                bold: flags.contains('b'),
                                italic: flags.contains('i'),
                                underline: flags.contains('u'),
                                indent,
                            });
                        }
                        Some("runs") => {}
                        Some("run") => {
                            let len: usize = words
                                .next()
                                .and_then(|x| x.parse().ok())
                                .ok_or_else(|| bad(&line))?;
                            let id: StyleId = words
                                .next()
                                .and_then(|x| x.parse().ok())
                                .ok_or_else(|| bad(&line))?;
                            raw_runs.push((len, id));
                        }
                        Some("anchor") => {
                            let pos: usize = words
                                .next()
                                .and_then(|x| x.parse().ok())
                                .ok_or_else(|| bad(&line))?;
                            pending_anchor = Some(pos);
                        }
                        Some("text") => {
                            let n: usize = words
                                .next()
                                .and_then(|x| x.parse().ok())
                                .ok_or_else(|| bad(&line))?;
                            let mut parts = Vec::with_capacity(n);
                            for _ in 0..n {
                                match r.next_token()?.ok_or(DsError::UnexpectedEof)? {
                                    Token::Line(l) => parts.push(l),
                                    other => {
                                        return Err(bad(&format!(
                                            "expected content line, got {other:?}"
                                        )))
                                    }
                                }
                            }
                            text = parts.join("\n");
                        }
                        _ => return Err(bad(&line)),
                    }
                }
            }
        }

        // Assemble.
        self.buffer = GapBuffer::from_str(&text);
        self.styles = StyleTable::new();
        let id_map: Vec<StyleId> = styles.into_iter().map(|s| self.styles.intern(s)).collect();
        let mapped: Vec<(usize, StyleId)> = raw_runs
            .into_iter()
            .map(|(len, id)| (len, id_map.get(id).copied().unwrap_or(0)))
            .collect();
        self.runs = StyleRuns::from_raw(mapped, self.buffer.len())
            .map_err(|e| DsError::Malformed(format!("text runs: {e}")))?;
        self.marks = MarkTable::new();
        self.anchors.clear();
        for (pos, data, view_class) in anchors {
            let mark = self
                .marks
                .create(pos.min(self.buffer.len()), Gravity::Right);
            self.anchors.push(Anchor {
                mark,
                data,
                view_class,
            });
        }
        Ok(())
    }

    fn embedded(&self) -> Vec<DataId> {
        self.anchors.iter().map(|a| a.data).collect()
    }

    fn fork(&self) -> Option<Box<dyn DataObject>> {
        Some(Box::new(self.clone()))
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use atk_core::UnknownObject;

    #[test]
    fn insert_delete_round_trip() {
        let mut t = TextData::from_str("hello world");
        let rec = t.insert(5, ",");
        assert_eq!(
            rec,
            ChangeRec::Text {
                pos: 5,
                inserted: 1,
                deleted: 0
            }
        );
        assert_eq!(t.text(), "hello, world");
        t.delete(0, 7);
        assert_eq!(t.text(), "world");
    }

    #[test]
    fn styles_survive_edits() {
        let mut t = TextData::from_str("bold and plain");
        t.apply_style(0, 4, Style::body().bolded());
        assert!(t.style_value_at(0).bold);
        assert!(!t.style_value_at(5).bold);
        t.insert(0, ">> ");
        assert!(t.style_value_at(3).bold);
    }

    #[test]
    fn anchors_ride_edits() {
        let mut world = World::new();
        let table = world.insert_data(Box::new(UnknownObject::new("table")));
        let mut t = TextData::from_str("before after");
        t.add_embedded(6, table, "spread");
        assert_eq!(t.anchors()[0].0, 6);
        t.insert(0, "xxx ");
        assert_eq!(t.anchors()[0].0, 10);
        t.delete(0, 4);
        assert_eq!(t.anchors()[0].0, 6);
        assert_eq!(t.anchor_at(6), Some((table, "spread".to_string())));
        // Text typed exactly at the anchor lands before its object
        // character, and the anchor moves with that character.
        t.insert(6, "ab");
        assert_eq!(t.anchors()[0].0, 8);
        assert_eq!(t.char_at(8), Some('\u{FFFC}'));
        // So does an anchor read back from a datastream.
        world
            .catalog
            .register_data("text", || Box::new(TextData::new()));
        let inner = world.insert_data(Box::new(TextData::from_str("inner")));
        let mut outer = TextData::from_str("before after");
        outer.add_embedded(6, inner, "textview");
        let oid = world.insert_data(Box::new(outer));
        let doc = atk_core::document_to_string(&world, oid);
        let rid = atk_core::read_document(&mut world, &doc).unwrap();
        let read = world.data_mut::<TextData>(rid).unwrap();
        read.insert(6, "\n");
        assert_eq!(read.anchors()[0].0, 7);
        assert_eq!(read.char_at(7), Some('\u{FFFC}'));
    }

    #[test]
    fn anchor_occupies_one_position() {
        let mut world = World::new();
        let d = world.insert_data(Box::new(UnknownObject::new("x")));
        let mut t = TextData::from_str("ab");
        t.add_embedded(1, d, "v");
        assert_eq!(t.len(), 3);
        assert_eq!(t.char_at(1), Some('\u{FFFC}'));
    }

    #[test]
    fn deleting_anchor_char_drops_anchor() {
        let mut world = World::new();
        let d = world.insert_data(Box::new(UnknownObject::new("x")));
        let mut t = TextData::from_str("ab");
        t.add_embedded(1, d, "v");
        t.delete(1, 1);
        // The anchor's mark collapsed to position 1, which still exists;
        // our rule keeps the anchor only if its mark position survives.
        // Deleting everything orphans it.
        t.delete(0, 10);
        assert!(t.anchors().iter().all(|(p, ..)| *p == 0));
    }

    #[test]
    fn word_boundaries() {
        let t = TextData::from_str("the quick brown");
        assert_eq!(t.word_start(5), 4);
        assert_eq!(t.word_end(5), 9);
        assert_eq!(t.word_start(0), 0);
        assert_eq!(t.word_end(15), 15);
    }

    #[test]
    fn plain_serialization_round_trip() {
        let mut world = World::new();
        world
            .catalog
            .register_data("text", || Box::new(TextData::new()));
        let mut t = TextData::from_str("line one\nline two");
        t.apply_style(0, 4, Style::body().bolded());
        let id = world.insert_data(Box::new(t));
        let doc = atk_core::document_to_string(&world, id);
        assert!(doc.starts_with("\\begindata{text,1}"));
        assert!(atk_core::audit_stream(&doc).is_empty());

        let mut world2 = World::new();
        world2
            .catalog
            .register_data("text", || Box::new(TextData::new()));
        let id2 = atk_core::read_document(&mut world2, &doc).unwrap();
        let t2 = world2.data::<TextData>(id2).unwrap();
        assert_eq!(t2.text(), "line one\nline two");
        assert!(t2.style_value_at(0).bold);
        assert!(!t2.style_value_at(4).bold);
    }

    #[test]
    fn nested_serialization_matches_paper_shape() {
        let mut world = World::new();
        world
            .catalog
            .register_data("text", || Box::new(TextData::new()));
        let inner = world.insert_data(Box::new(TextData::from_str("the table data")));
        let mut outer = TextData::from_str("text before after");
        outer.add_embedded(12, inner, "textview");
        let oid = world.insert_data(Box::new(outer));
        let doc = atk_core::document_to_string(&world, oid);
        // Paper §5 shape: nested begindata, then \view at the placement.
        assert!(doc.contains("\\begindata{text,2}"));
        assert!(doc.contains("\\enddata{text,2}"));
        assert!(doc.contains("\\view{textview,2}"));

        let mut world2 = World::new();
        world2
            .catalog
            .register_data("text", || Box::new(TextData::new()));
        let rid = atk_core::read_document(&mut world2, &doc).unwrap();
        let outer2 = world2.data::<TextData>(rid).unwrap();
        let anchors = outer2.anchors();
        assert_eq!(anchors.len(), 1);
        assert_eq!(anchors[0].0, 12);
        let inner2 = world2.data::<TextData>(anchors[0].1).unwrap();
        assert_eq!(inner2.text(), "the table data");
    }

    #[test]
    fn unknown_embedded_object_round_trips() {
        // A "music" component with no module: preserved verbatim.
        let doc = "\\begindata{text,1}\nstyles 1\nstyle andy 12 --- 0\nruns 1\nrun 7 0\n\\begindata{music,2}\nnotes c d e\nscore 42\n\\enddata{music,2}\nanchor 3\n\\view{musicview,2}\ntext 1\nabc\u{FFFC}def\n\\enddata{text,1}\n";
        // The anchor char in the content: rebuild the doc with the
        // escaped form the writer would produce.
        let mut world = World::new();
        world
            .catalog
            .register_data("text", || Box::new(TextData::new()));
        let id = atk_core::read_document(&mut world, doc).unwrap();
        let t = world.data::<TextData>(id).unwrap();
        let anchors = t.anchors();
        assert_eq!(anchors.len(), 1);
        let u = world.data::<UnknownObject>(anchors[0].1).unwrap();
        assert_eq!(u.original_class, "music");
        assert_eq!(*u.raw_lines, vec!["notes c d e", "score 42"]);
        // Writing back preserves the music object.
        let out = atk_core::document_to_string(&world, id);
        assert!(out.contains("\\begindata{music,"));
        assert!(out.contains("notes c d e"));
    }
}
