//! A figure 3 scene keeps its message store in a scratch directory of
//! its own, and the directory goes when the last scene using it does.
//! This is its own test binary: no other test in the process builds
//! fig3, so the temp dir holds only this test's `atk_fig3_<pid>_*`
//! entries.

use atk_apps::scenes::build_scene;

fn fig3_dirs() -> Vec<String> {
    let prefix = format!("atk_fig3_{}_", std::process::id());
    std::fs::read_dir(std::env::temp_dir())
        .unwrap()
        .filter_map(|e| e.ok()?.file_name().into_string().ok())
        .filter(|name| name.starts_with(&prefix))
        .collect()
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
