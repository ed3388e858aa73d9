//! The sharded-vs-single differential oracle: a 4-shard server must be
//! observably identical to a 1-shard server — per-session framebuffers
//! byte-identical, server-wide counters equal — across all five paper
//! scenes and four fuzzer seeds. The comparison is deliberately
//! asymmetric about chaos: the single-shard side runs clean, the
//! 4-shard side runs with transport fault injection *and* readiness-
//! order shuffling armed, so one equality proves shard count, fault
//! schedules, and poll order all invisible at once. The only thing
//! allowed to differ is the `serve.shard.*` scheduling plane (and the
//! marks of the per-shard template and keyframe caches), which
//! `ServedRun::shard_invariant_counters` strips. Both runs fork their
//! sessions, and the harness anchors each to the in-process
//! `atk_check::Session` replay.

use atk_serve::{divergence, serve_differential, Topology, Traffic};

const SEEDS: [u64; 4] = [1, 2, 7, 42];
const STEPS: usize = 30;
const SESSIONS: usize = 2;

fn run_scene(scene: &str) {
    for seed in SEEDS {
        let traffic = Traffic::fuzz(scene, None, seed, SESSIONS, STEPS, 1)
            .unwrap_or_else(|e| panic!("{scene} seed {seed}: record: {e}"));
        let single = serve_differential(scene, &traffic, &Topology::default())
            .unwrap_or_else(|e| panic!("{scene} seed {seed}: 1-shard run: {e}"));
        let chaos = Topology {
            shards: 4,
            fault_seed: Some(seed),
            ..Topology::default()
        };
        let multi = serve_differential(scene, &traffic, &chaos)
            .unwrap_or_else(|e| panic!("{scene} seed {seed}: 4-shard chaos run: {e}"));

        assert_eq!(single.framebuffers.len(), SESSIONS);
        assert_eq!(multi.framebuffers.len(), SESSIONS);
        for (k, (a, b)) in single
            .framebuffers
            .iter()
            .zip(&multi.framebuffers)
            .enumerate()
        {
            if let Some(d) = divergence(a, b) {
                panic!("{scene} seed {seed} session {k}: 1-shard and 4-shard diverge: {d}");
            }
        }
        assert_eq!(
            single.shard_invariant_counters(),
            multi.shard_invariant_counters(),
            "{scene} seed {seed}: non-shard counters diverge between 1 and 4 shards"
        );
    }
}

#[test]
fn fig1_sharded_differential() {
    run_scene("fig1");
}

#[test]
fn fig2_sharded_differential() {
    run_scene("fig2");
}

#[test]
fn fig3_sharded_differential() {
    run_scene("fig3");
}

#[test]
fn fig4_sharded_differential() {
    run_scene("fig4");
}

#[test]
fn fig5_sharded_differential() {
    run_scene("fig5");
}
