//! EZ, the multi-media document editor.
//!
//! "Using the dynamic loading facility … we have already used this
//! feature to build a generic multi-media editor (EZ) that can edit a
//! wide variety of components by loading the appropriate code when
//! needed" (§1). EZ is deliberately thin: a frame (message line), a
//! scrollbar, and a text view on whatever document it is given — every
//! capability beyond that arrives with the components the document
//! mentions. Paper §9 notes EZ displaced emacs on campus; experiment E7
//! measures the editing path that made that possible.

use atk_core::{
    document_to_string, read_document, AppOutcome, Application, DataId, InteractionManager, ViewId,
    World,
};
use atk_graphics::Size;
use atk_text::TextData;
use atk_wm::WindowSystem;

use crate::AppArgs;

/// The EZ application.
pub struct EzApp {
    /// Root data object of the open document.
    pub doc: Option<DataId>,
}

impl EzApp {
    /// A fresh EZ.
    pub fn new() -> EzApp {
        EzApp { doc: None }
    }

    /// Builds the classic EZ view tree around a document: frame (message
    /// line) ⊃ scrollbar ⊃ text view — figure 1's window.
    pub fn build_tree(world: &mut World, doc: DataId) -> Result<(ViewId, ViewId), String> {
        let textview = world.new_view("textview").map_err(|e| e.to_string())?;
        world.with_view(textview, |v, w| v.set_data_object(w, doc));
        let scroll = world.new_view("scroll").map_err(|e| e.to_string())?;
        world.with_view(scroll, |v, w| {
            v.as_any_mut()
                .downcast_mut::<atk_components::ScrollView>()
                .expect("scroll class")
                .set_body(w, textview);
        });
        let frame = world.new_view("frame").map_err(|e| e.to_string())?;
        world.with_view(frame, |v, w| {
            v.as_any_mut()
                .downcast_mut::<atk_components::FrameView>()
                .expect("frame class")
                .set_body(w, scroll);
        });
        Ok((frame, textview))
    }
}

impl Default for EzApp {
    fn default() -> Self {
        EzApp::new()
    }
}

impl Application for EzApp {
    fn name(&self) -> &'static str {
        "ez"
    }

    fn run(
        &mut self,
        world: &mut World,
        ws: &mut dyn WindowSystem,
        args: &[String],
    ) -> Result<AppOutcome, String> {
        let args = AppArgs::parse(args);
        crate::register_components(&mut world.catalog);

        // Open the document (or start empty, like `ez` with no file).
        let doc = match &args.doc {
            Some(path) => {
                let src = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
                read_document(world, &src).map_err(|e| e.to_string())?
            }
            None => world.insert_data(Box::new(TextData::new())),
        };
        self.doc = Some(doc);

        let (frame, textview) = EzApp::build_tree(world, doc)?;
        let title = format!("ez: {}", args.doc.as_deref().unwrap_or("(new document)"));
        let window = ws.open_window(&title, Size::new(640, 480));
        let mut im = InteractionManager::new(world, window, frame);
        // Give the text view the input focus so scripts can type at once.
        world.request_focus(textview);
        im.pump(world);

        if let Some(script) = args.load_script()? {
            script.run(&mut im, world);
        }

        let mut report = Vec::new();
        if let Some(path) = &args.save {
            let out = document_to_string(world, doc);
            std::fs::write(path, &out).map_err(|e| e.to_string())?;
            report.push(format!("saved {} bytes to {path}", out.len()));
        }
        if let Some(path) = &args.snapshot {
            let saved = crate::save_snapshot(&im, path)?;
            report.push(format!("snapshot {path}: {saved}"));
        }
        let chars = world.data::<TextData>(doc).map(|t| t.len()).unwrap_or(0);
        report.push(format!("document characters: {chars}"));
        report.push(format!(
            "resident modules: {}",
            world.catalog.loader.stats().resident_modules
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

    #[test]
    fn ez_opens_types_and_saves() {
        let dir = crate::scenes::unique_temp_dir("atk_ez_test");
        std::fs::create_dir_all(&dir).unwrap();
        let save = dir.join("out.d");
        let mut world = standard_world();
        let mut ws = atk_wm::x11sim::X11Sim::new();
        let mut app = EzApp::new();
        let args = vec![
            "--script-text".to_string(),
            "type Hello, Andrew\n".to_string(),
            "--save".to_string(),
            save.to_str().unwrap().to_string(),
        ];
        let out = app.run(&mut world, &mut ws, &args).unwrap();
        assert!(out.events_handled > 10);
        let saved = std::fs::read_to_string(&save).unwrap();
        assert!(saved.contains("Hello, Andrew"));
        assert!(saved.starts_with("\\begindata{text,1}"));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn ez_round_trips_its_own_documents() {
        let dir = crate::scenes::unique_temp_dir("atk_ez_rt");
        std::fs::create_dir_all(&dir).unwrap();
        let first = dir.join("first.d");
        let second = dir.join("second.d");
        // Session 1: create.
        {
            let mut world = standard_world();
            let mut ws = atk_wm::x11sim::X11Sim::new();
            EzApp::new()
                .run(
                    &mut world,
                    &mut ws,
                    &[
                        "--script-text".into(),
                        "type round trip!".into(),
                        "--save".into(),
                        first.to_str().unwrap().into(),
                    ],
                )
                .unwrap();
        }
        // Session 2: open and re-save.
        {
            let mut world = standard_world();
            let mut ws = atk_wm::x11sim::X11Sim::new();
            EzApp::new()
                .run(
                    &mut world,
                    &mut ws,
                    &[
                        first.to_str().unwrap().into(),
                        "--save".into(),
                        second.to_str().unwrap().into(),
                    ],
                )
                .unwrap();
        }
        assert_eq!(
            std::fs::read_to_string(&first).unwrap(),
            std::fs::read_to_string(&second).unwrap()
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn ez_runs_on_both_window_systems_unmodified() {
        // Paper §8's claim, demonstrated at the application level.
        for backend in ["x11sim", "awmsim"] {
            let mut world = standard_world();
            let mut ws = atk_wm::open_window_system(Some(backend)).unwrap();
            let out = EzApp::new()
                .run(
                    &mut world,
                    ws.as_mut(),
                    &["--script-text".into(), "type portable".into()],
                )
                .unwrap();
            assert!(out.events_handled > 0, "backend {backend}");
        }
    }
}
