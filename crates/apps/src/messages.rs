//! The messages application: mail and bulletin boards (paper figures 3–4).
//!
//! "Since both the mail and help applications use the text component for
//! the display of information, they automatically inherit the multi-media
//! functionality of the text component" (§1) — a drawing arrives inside a
//! message body (figure 3) and a raster inside a composition (figure 4)
//! with **zero** mail-specific code.
//!
//! The campus message substrate (AFS bboard directories) is replaced by
//! [`MessageStore`]: a directory tree where each folder is a directory
//! holding numbered datastream messages plus a captions index — the
//! substitution documented in DESIGN.md §2.

use std::any::Any;
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use atk_core::{
    document_to_string, read_document, AppOutcome, Application, ChangeRec, DataId,
    InteractionManager, MenuItem, Update, View, ViewBase, ViewId, World,
};
use atk_graphics::{Point, Rect, Size};
use atk_text::TextData;
use atk_wm::{Graphic, MouseAction, WindowSystem};

use atk_components::{ListView, ScrollView};

use crate::AppArgs;

/// One entry in a folder's captions index.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Caption {
    /// Message number within the folder.
    pub id: u32,
    /// Sender.
    pub from: String,
    /// Subject line.
    pub subject: String,
    /// Date string.
    pub date: String,
}

impl Caption {
    /// The caption as shown in the captions pane (figure 3's style).
    pub fn display(&self) -> String {
        format!("{}  {} ({})", self.date, self.subject, self.from)
    }
}

/// The on-disk message store. Clones share one directory.
#[derive(Clone)]
pub struct MessageStore {
    root: PathBuf,
    /// Set for a store made by [`MessageStore::scratch`]: the last clone
    /// to drop removes the directory.
    scratch: Option<Arc<ScratchDir>>,
}

/// A directory removed, with everything in it, when dropped.
struct ScratchDir(PathBuf);

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

impl MessageStore {
    /// Opens (creating if needed) a store rooted at `root`. The
    /// directory outlives the store.
    pub fn open(root: &Path) -> std::io::Result<MessageStore> {
        fs::create_dir_all(root)?;
        Ok(MessageStore {
            root: root.to_path_buf(),
            scratch: None,
        })
    }

    /// An empty store in a fresh directory under the system temp dir,
    /// named `<prefix>_<pid>_<n>`, which the store owns: the last clone
    /// to drop removes it.
    pub fn scratch(prefix: &str) -> std::io::Result<MessageStore> {
        let root = crate::scenes::unique_temp_dir(prefix);
        let _ = fs::remove_dir_all(&root);
        let mut store = MessageStore::open(&root)?;
        store.scratch = Some(Arc::new(ScratchDir(root)));
        Ok(store)
    }

    /// Folder names (directories), sorted.
    pub fn folders(&self) -> Vec<String> {
        let mut v: Vec<String> = fs::read_dir(&self.root)
            .map(|rd| {
                rd.filter_map(|e| e.ok())
                    .filter(|e| e.path().is_dir())
                    .filter_map(|e| e.file_name().into_string().ok())
                    .collect()
            })
            .unwrap_or_default();
        v.sort();
        v
    }

    fn folder_dir(&self, folder: &str) -> PathBuf {
        self.root.join(folder)
    }

    /// The captions index of a folder, sorted by id.
    pub fn captions(&self, folder: &str) -> Vec<Caption> {
        let index = self.folder_dir(folder).join("captions");
        let Ok(text) = fs::read_to_string(index) else {
            return Vec::new();
        };
        let mut v: Vec<Caption> = text
            .lines()
            .filter_map(|l| {
                let mut parts = l.splitn(4, '\t');
                Some(Caption {
                    id: parts.next()?.parse().ok()?,
                    date: parts.next()?.to_string(),
                    from: parts.next()?.to_string(),
                    subject: parts.next()?.to_string(),
                })
            })
            .collect();
        v.sort_by_key(|c| c.id);
        v
    }

    /// Reads a message body (a datastream document).
    pub fn read_body(&self, folder: &str, id: u32) -> std::io::Result<String> {
        fs::read_to_string(self.folder_dir(folder).join(format!("{id}")))
    }

    /// Delivers a message: writes the body and appends to the captions
    /// index. Returns the assigned id.
    pub fn deliver(
        &self,
        folder: &str,
        from: &str,
        subject: &str,
        date: &str,
        body: &str,
    ) -> std::io::Result<u32> {
        let dir = self.folder_dir(folder);
        fs::create_dir_all(&dir)?;
        let id = self.captions(folder).last().map(|c| c.id + 1).unwrap_or(1);
        fs::write(dir.join(format!("{id}")), body)?;
        let mut index = fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(dir.join("captions"))?;
        writeln!(index, "{id}\t{date}\t{from}\t{subject}")?;
        Ok(id)
    }

    /// Seeds the demo corpus: a bboard folder whose messages carry
    /// multi-media bodies (figure 3's drawing; figure 4's raster).
    pub fn seed_demo(&self, world: &mut World) -> std::io::Result<()> {
        use atk_media::{DrawingData, RasterData, Shape};

        // Message 1: plain text.
        let plain = world.insert_data(Box::new(TextData::from_str(
            "The big picture\n\nThe Andrew message system is, not surprisingly,\ninternally complicated.\n",
        )));
        self.deliver(
            "andrew.messages",
            "Nathaniel Borenstein",
            "The big picture",
            "23-Oct-87",
            &document_to_string(world, plain),
        )?;

        // Message 2: text with an embedded drawing (figure 3).
        let mut drawing = DrawingData::new(260, 90);
        drawing.add_shape(Shape::Rect {
            rect: Rect::new(10, 10, 110, 24),
            filled: false,
        });
        drawing.add_shape(Shape::Label {
            at: Point::new(16, 16),
            text: "Workstations".into(),
            size: 10,
        });
        drawing.add_shape(Shape::Rect {
            rect: Rect::new(140, 10, 110, 24),
            filled: false,
        });
        drawing.add_shape(Shape::Label {
            at: Point::new(146, 16),
            text: "Delivery System".into(),
            size: 10,
        });
        drawing.add_shape(Shape::Line {
            a: Point::new(120, 22),
            b: Point::new(140, 22),
            width: 1,
        });
        drawing.add_shape(Shape::Label {
            at: Point::new(30, 60),
            text: "Internetwork connections".into(),
            size: 10,
        });
        let drawing_id = world.insert_data(Box::new(drawing));
        let mut body = TextData::from_str(
            "The drawing below depicts these complications hierarchically.\n\nBy using the zip hierarchical drawing editor, you can zoom in.\n",
        );
        body.add_embedded(62, drawing_id, "drawingv");
        let body_id = world.insert_data(Box::new(body));
        self.deliver(
            "andrew.messages",
            "Nathaniel Borenstein",
            "The details and pictures",
            "23-Oct-87",
            &document_to_string(world, body_id),
        )?;

        // Message 3: text with a raster (figure 4's "Big Cat").
        let cat = RasterData::from_fn(48, 32, |x, y| {
            // A generated stand-in for the scanned cat: face disc + ears.
            let (cx, cy) = (24.0, 18.0);
            let d = ((x as f64 - cx).powi(2) + (y as f64 - cy).powi(2)).sqrt();
            let face = d < 12.0 && d > 10.0;
            let eye =
                ((x - 19).pow(2) + (y - 15).pow(2)) < 4 || ((x - 29).pow(2) + (y - 15).pow(2)) < 4;
            let ear = y < 10
                && ((x - 14).abs() + (y - 10).abs() < 7 || (x - 34).abs() + (y - 10).abs() < 7);
            face || eye || ear
        });
        let cat_id = world.insert_data(Box::new(cat));
        let mut body = TextData::from_str(
            "Knowing your fondness for big cats, here's a picture I recently found.\n\n",
        );
        let pos = body.len();
        body.add_embedded(pos, cat_id, "rasterview");
        let body_id = world.insert_data(Box::new(body));
        self.deliver(
            "andrew.messages",
            "tpn",
            "Big Cat",
            "11-Feb-88",
            &document_to_string(world, body_id),
        )?;

        // A second folder so the folders pane has structure.
        let note = world.insert_data(Box::new(TextData::from_str(
            "Remember: convert the campus to X.11 by summer 1988.\n",
        )));
        self.deliver(
            "mail.personal",
            "ajp",
            "conversion timetable",
            "11-Feb-88",
            &document_to_string(world, note),
        )?;
        Ok(())
    }
}

/// Timer-free coordinator view: three panes wired through `perform`.
#[derive(Clone)]
pub struct MailView {
    base: ViewBase,
    store: Option<MessageStore>,
    folders_list: Option<ViewId>,
    captions_list: Option<ViewId>,
    body_scroll: Option<ViewId>,
    body_text: Option<ViewId>,
    /// Currently open folder.
    pub current_folder: Option<String>,
    /// Currently displayed message id.
    pub current_message: Option<u32>,
    /// The body document of the displayed message.
    pub body_doc: Option<DataId>,
}

impl MailView {
    /// An unwired mail view; call [`MailView::build`] after insertion.
    pub fn new() -> MailView {
        MailView {
            base: ViewBase::new(),
            store: None,
            folders_list: None,
            captions_list: None,
            body_scroll: None,
            body_text: None,
            current_folder: None,
            current_message: None,
            body_doc: None,
        }
    }

    /// Wires up the three panes. `me` must be this view's id.
    pub fn build(world: &mut World, me: ViewId, store: MessageStore) -> Result<(), String> {
        let folders = {
            let mut lv = ListView::new("folder");
            lv.set_target(me);
            let id = world.insert_view(Box::new(lv));
            world.set_view_parent(id, Some(me));
            id
        };
        let captions = {
            let mut lv = ListView::new("message");
            lv.set_target(me);
            let id = world.insert_view(Box::new(lv));
            world.set_view_parent(id, Some(me));
            id
        };
        let body_doc = world.insert_data(Box::new(TextData::from_str(
            "Select a folder, then a message.",
        )));
        let body_text = world.new_view("textview").map_err(|e| e.to_string())?;
        world.with_view(body_text, |v, w| v.set_data_object(w, body_doc));
        let body_scroll = world.new_view("scroll").map_err(|e| e.to_string())?;
        world.with_view(body_scroll, |v, w| {
            v.as_any_mut()
                .downcast_mut::<ScrollView>()
                .expect("scroll class")
                .set_body(w, body_text);
        });
        world.set_view_parent(body_scroll, Some(me));

        let names = store.folders();
        world.with_view(folders, |v, w| {
            v.as_any_mut()
                .downcast_mut::<ListView>()
                .expect("list class")
                .set_items(w, names);
        });

        let mv = world
            .view_as_mut::<MailView>(me)
            .ok_or("MailView::build on wrong view")?;
        mv.store = Some(store);
        mv.folders_list = Some(folders);
        mv.captions_list = Some(captions);
        mv.body_scroll = Some(body_scroll);
        mv.body_text = Some(body_text);
        mv.body_doc = Some(body_doc);
        Ok(())
    }

    fn open_folder(&mut self, world: &mut World, index: usize) {
        let Some(store) = &self.store else { return };
        let folders = store.folders();
        let Some(name) = folders.get(index) else {
            return;
        };
        self.current_folder = Some(name.clone());
        let items: Vec<String> = store.captions(name).iter().map(Caption::display).collect();
        if let Some(captions) = self.captions_list {
            world.with_view(captions, |v, w| {
                v.as_any_mut()
                    .downcast_mut::<ListView>()
                    .expect("list class")
                    .set_items(w, items);
            });
        }
        world.post_damage_full(self.base.id);
    }

    fn open_message(&mut self, world: &mut World, index: usize) {
        let Some(store) = &self.store else { return };
        let Some(folder) = self.current_folder.clone() else {
            return;
        };
        let caps = store.captions(&folder);
        let Some(cap) = caps.get(index) else { return };
        let Ok(src) = store.read_body(&folder, cap.id) else {
            return;
        };
        // The body is a full datastream document: multi-media for free.
        let Ok(doc) = read_document(world, &src) else {
            return;
        };
        self.current_message = Some(cap.id);
        self.body_doc = Some(doc);
        if let Some(tv) = self.body_text {
            world.with_view(tv, |v, w| v.set_data_object(w, doc));
        }
        world.post_damage_full(self.base.id);
    }
}

impl Default for MailView {
    fn default() -> Self {
        MailView::new()
    }
}

impl View for MailView {
    fn class_name(&self) -> &'static str {
        "mailv"
    }
    fn id(&self) -> ViewId {
        self.base.id
    }
    fn set_id(&mut self, id: ViewId) {
        self.base.id = id;
    }
    fn children(&self) -> Vec<ViewId> {
        [self.folders_list, self.captions_list, self.body_scroll]
            .into_iter()
            .flatten()
            .collect()
    }

    fn desired_size(&mut self, _world: &mut World, budget: i32) -> Size {
        Size::new(budget, 400)
    }

    fn layout(&mut self, world: &mut World) {
        // Figure 3's geometry: folders pane left, captions top-right,
        // body bottom-right.
        let size = world.view_bounds(self.base.id).size();
        let left_w = (size.width / 3).min(220);
        let cap_h = size.height / 3;
        if let Some(f) = self.folders_list {
            world.set_view_bounds(f, Rect::new(0, 0, left_w, size.height));
        }
        if let Some(c) = self.captions_list {
            world.set_view_bounds(c, Rect::new(left_w + 1, 0, size.width - left_w - 1, cap_h));
        }
        if let Some(b) = self.body_scroll {
            world.set_view_bounds(
                b,
                Rect::new(
                    left_w + 1,
                    cap_h + 1,
                    size.width - left_w - 1,
                    size.height - cap_h - 1,
                ),
            );
        }
    }

    fn draw(&mut self, world: &mut World, g: &mut dyn Graphic, update: Update) {
        let size = world.view_bounds(self.base.id).size();
        let left_w = (size.width / 3).min(220);
        let cap_h = size.height / 3;
        g.set_foreground(atk_graphics::Color::BLACK);
        g.draw_line(Point::new(left_w, 0), Point::new(left_w, size.height - 1));
        g.draw_line(Point::new(left_w, cap_h), Point::new(size.width - 1, cap_h));
        for child in self.children() {
            world.draw_child(child, g, update);
        }
    }

    fn mouse(&mut self, world: &mut World, action: MouseAction, pt: Point) -> bool {
        for child in self.children() {
            if world.mouse_to_child(child, action, pt) {
                return true;
            }
        }
        false
    }

    fn perform(&mut self, world: &mut World, command: &str) -> bool {
        if let Some(rest) = command.strip_prefix("folder:") {
            if let Ok(i) = rest.parse::<usize>() {
                self.open_folder(world, i);
                return true;
            }
        }
        if let Some(rest) = command.strip_prefix("message:") {
            if let Ok(i) = rest.parse::<usize>() {
                self.open_message(world, i);
                return true;
            }
        }
        false
    }

    fn menus(&self, _world: &World) -> Vec<MenuItem> {
        vec![
            MenuItem::new("Message", "Compose", "mail-compose"),
            MenuItem::new("Message", "Next", "mail-next"),
        ]
    }

    fn observed_changed(&mut self, world: &mut World, _s: DataId, _c: &ChangeRec) {
        world.post_damage_full(self.base.id);
    }

    fn fork(&self) -> Option<Box<dyn View>> {
        Some(Box::new(self.clone()))
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// The messages application.
pub struct MessagesApp;

impl MessagesApp {
    /// A fresh messages app.
    pub fn new() -> MessagesApp {
        MessagesApp
    }
}

impl Default for MessagesApp {
    fn default() -> Self {
        MessagesApp::new()
    }
}

impl Application for MessagesApp {
    fn name(&self) -> &'static str {
        "messages"
    }

    fn run(
        &mut self,
        world: &mut World,
        ws: &mut dyn WindowSystem,
        args: &[String],
    ) -> Result<AppOutcome, String> {
        let args = AppArgs::parse(args);
        crate::register_components(&mut world.catalog);

        // Store root: positional arg or a temp demo store.
        let root = match &args.doc {
            Some(p) => PathBuf::from(p),
            None => {
                let dir =
                    std::env::temp_dir().join(format!("atk_messages_demo_{}", std::process::id()));
                dir
            }
        };
        let store = MessageStore::open(&root).map_err(|e| e.to_string())?;
        if store.folders().is_empty() {
            store.seed_demo(world).map_err(|e| e.to_string())?;
        }
        let folder_count = store.folders().len();

        let mail = world.insert_view(Box::new(MailView::new()));
        MailView::build(world, mail, store)?;
        let frame = world.new_view("frame").map_err(|e| e.to_string())?;
        world.with_view(frame, |v, w| {
            v.as_any_mut()
                .downcast_mut::<atk_components::FrameView>()
                .expect("frame class")
                .set_body(w, mail);
        });

        let window = ws.open_window("messages", Size::new(760, 480));
        let mut im = InteractionManager::new(world, window, frame);
        world.request_focus(mail);
        im.pump(world);

        if let Some(script) = args.load_script()? {
            script.run(&mut im, world);
        }

        let mut report = vec![format!("folders: {folder_count}")];
        if let Some(path) = &args.snapshot {
            let saved = crate::save_snapshot(&im, path)?;
            report.push(format!("snapshot {path}: {saved}"));
        }
        let mv = world.view_as::<MailView>(mail).expect("mail view");
        report.push(format!(
            "open folder: {:?}, message: {:?}",
            mv.current_folder, mv.current_message
        ));
        Ok(AppOutcome {
            report,
            events_handled: im.stats().events,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::standard_world;

    fn temp_store(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("atk_store_{tag}_{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn store_deliver_and_read() {
        let root = temp_store("basic");
        let store = MessageStore::open(&root).unwrap();
        let id = store
            .deliver(
                "inbox",
                "ajp",
                "hello",
                "11-Feb-88",
                "\\begindata{text,1}\ntext 1\nhi\n\\enddata{text,1}\n",
            )
            .unwrap();
        assert_eq!(id, 1);
        let id2 = store
            .deliver("inbox", "wjh", "again", "12-Feb-88", "body2")
            .unwrap();
        assert_eq!(id2, 2);
        assert_eq!(store.folders(), vec!["inbox".to_string()]);
        let caps = store.captions("inbox");
        assert_eq!(caps.len(), 2);
        assert_eq!(caps[0].subject, "hello");
        assert!(store.read_body("inbox", 1).unwrap().contains("hi"));
    }

    #[test]
    fn seeded_demo_has_multimedia_bodies() {
        let root = temp_store("seed");
        let mut world = standard_world();
        let store = MessageStore::open(&root).unwrap();
        store.seed_demo(&mut world).unwrap();
        assert_eq!(store.folders().len(), 2);
        let caps = store.captions("andrew.messages");
        assert_eq!(caps.len(), 3);
        // The drawing message really embeds a drawing.
        let body = store.read_body("andrew.messages", 2).unwrap();
        assert!(body.contains("\\begindata{drawing,"));
        assert!(body.contains("\\view{drawingv,"));
        // The cat message embeds a raster.
        let body = store.read_body("andrew.messages", 3).unwrap();
        assert!(body.contains("\\begindata{raster,"));
    }

    #[test]
    fn app_opens_folder_and_message_via_script() {
        let root = temp_store("app");
        let mut world = standard_world();
        let mut ws = atk_wm::x11sim::X11Sim::new();
        // Pre-seed so the app's own seed path is exercised elsewhere.
        let store = MessageStore::open(&root).unwrap();
        store.seed_demo(&mut world).unwrap();
        // Click the first folder (folders pane, row 0), then the second
        // caption (captions pane).
        let script = "mouse down 10 20\nmouse up 10 20\nmouse down 300 20\nmouse up 300 20\n";
        let out = MessagesApp::new()
            .run(
                &mut world,
                &mut ws,
                &[
                    root.to_str().unwrap().to_string(),
                    "--script-text".to_string(),
                    script.to_string(),
                ],
            )
            .unwrap();
        let joined = out.report.join("\n");
        assert!(joined.contains("folders: 2"), "{joined}");
        assert!(
            joined.contains("open folder: Some(\"andrew.messages\")"),
            "{joined}"
        );
        assert!(joined.contains("message: Some"), "{joined}");
    }
}
