//! A figure 3 scene and the messages app without a store path keep
//! their message store in a scratch directory of their own, and the
//! directory goes when the last view using it does. This is its own
//! test binary: no other test in the process builds fig3 or runs the
//! messages app, so the temp dir holds only this binary's
//! `atk_fig3_<pid>_*` and `atk_messages_demo_<pid>_*` entries.

use atk_apps::scenes::build_scene;
use atk_apps::{standard_world, MessagesApp};
use atk_core::Application;

/// The temp dir entries this process made under `prefix`.
fn dirs(prefix: &str) -> Vec<String> {
    let prefix = format!("{prefix}_{}_", std::process::id());
    std::fs::read_dir(std::env::temp_dir())
        .unwrap()
        .filter_map(|e| e.ok()?.file_name().into_string().ok())
        .filter(|name| name.starts_with(&prefix))
        .collect()
}

fn fig3_dirs() -> Vec<String> {
    dirs("atk_fig3")
}

#[test]
fn a_fig3_store_is_removed_when_its_last_scene_drops() {
    let scene = build_scene("fig3", "x11sim").unwrap();
    let fork = scene.fork("x11sim").unwrap();
    assert_eq!(fig3_dirs().len(), 1, "fig3 made one store");
    drop(scene);
    // The fork still reads the store lazily.
    assert_eq!(fig3_dirs().len(), 1, "the store went with a live fork");
    drop(fork);
    assert_eq!(
        fig3_dirs(),
        Vec::<String>::new(),
        "the store outlived its scenes"
    );
}

#[test]
fn the_messages_demo_store_is_removed_with_its_world() {
    let mut world = standard_world();
    let mut ws = atk_wm::x11sim::X11Sim::new();
    let out = MessagesApp::new()
        .run(
            &mut world,
            &mut ws,
            &["--script-text".into(), "tick 10".into()],
        )
        .unwrap();
    assert!(out.report.join("\n").contains("folders: 2"), "{out:?}");
    assert_eq!(dirs("atk_messages_demo").len(), 1, "the app made one store");
    drop(world);
    assert_eq!(
        dirs("atk_messages_demo"),
        Vec::<String>::new(),
        "the demo store outlived its world"
    );
}
