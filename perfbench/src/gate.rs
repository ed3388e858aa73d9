//! The correctness gate, applied after the timed window: every
//! session's final framebuffer must equal an in-process replay of its
//! script, and both collab replicas of every document must converge to
//! the replay of the writer's ops.

use std::collections::HashMap;
use std::sync::Arc;

use atk_check::Session;
use atk_core::ScriptStep;
use atk_graphics::Framebuffer;
use atk_serve::{HostedSession, SessionConfig};
use atk_trace::Collector;

use crate::fleet::{digest, FleetRun};
use crate::inputs::{Inputs, Workload, BACKEND};

/// Checks one window's results; returns one line per miss. Identical
/// scripts replay to identical frames, so each distinct script is
/// replayed once.
pub fn check(inputs: &Inputs, fleet: &FleetRun) -> Result<Vec<String>, String> {
    let (w, scene) = (inputs.workload, inputs.workload.scene());
    let mut expected: HashMap<Vec<String>, u64> = HashMap::new();
    let mut misses = Vec::new();
    for (c, run) in fleet.clients.iter().enumerate() {
        for &(k, got) in &run.finals {
            let script = inputs
                .script(c, k)
                .ok_or_else(|| format!("client {c} has no session {k}"))?;
            let key = script.iter().map(line).collect::<Vec<_>>();
            let want = match expected.get(&key) {
                Some(&d) => d,
                None => {
                    let fb = if w == Workload::Collab {
                        replica_reference(scene, script)?
                    } else {
                        reference(scene, script)?
                    };
                    *expected.entry(key).or_insert(digest(&fb))
                }
            };
            if got != want {
                misses.push(format!(
                    "{} client {c} session {k}: final frame differs from replay",
                    w.name()
                ));
            }
        }
    }
    // Both collab replicas must have reached the end of every document
    // the writer finished.
    if let [writer, watcher] = &fleet.clients[..] {
        if w == Workload::Collab && writer.finals.len() != watcher.finals.len() {
            misses.push(format!(
                "collab: writer finished {} documents, watcher {}",
                writer.finals.len(),
                watcher.finals.len()
            ));
        }
    }
    Ok(misses)
}

/// The in-process reference: atk-check's session replaying `steps`.
fn reference(scene: &str, steps: &[ScriptStep]) -> Result<Framebuffer, String> {
    let mut session = Session::build(scene, BACKEND)?;
    for step in steps {
        session.apply(step);
    }
    session
        .im
        .snapshot()
        .ok_or_else(|| "reference backend has no pixels".to_string())
}

/// The replica reference: one hosted session applying `ops` with
/// replica semantics (settle and repaint per op), no wire.
fn replica_reference(scene: &str, ops: &[ScriptStep]) -> Result<Framebuffer, String> {
    let mut session =
        HostedSession::open(scene, SessionConfig::default(), Arc::new(Collector::new()))?;
    session.replay_steps(ops);
    Ok(session.framebuffer())
}

fn line(step: &ScriptStep) -> String {
    step.to_line().unwrap_or_else(|| format!("{step:?}"))
}
