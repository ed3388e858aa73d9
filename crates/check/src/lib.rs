//! # atk-check — deterministic session fuzzing for the toolkit
//!
//! The paper's toolkit was hardened by ~3000 campus users banging on EZ
//! and its embedded components daily (§9). This crate is the mechanical
//! stand-in: a seed-driven fuzzer that generates weighted random
//! [`ScriptStep`] streams against the real scenes in
//! [`atk_apps::scenes`], and checks six oracles after configurable step
//! windows:
//!
//! * **repaint** — the incremental damage path must converge to the
//!   same framebuffer as a from-scratch full redraw (§2's delayed
//!   update protocol, exercised through PR 2's region algebra);
//! * **roundtrip** — serialize the live document, read it into a fresh
//!   world, re-serialize: byte identity (§5's datastream);
//! * **tree** — parent/child links mutually consistent, no dangling
//!   ids, acyclic, children clipped inside non-scrolling parents, focus
//!   reachable from the root (§3's view tree);
//! * **backend** — the same script on `X11Sim` and `AwmSim` yields
//!   identical framebuffers and damage accounting (§8's window-system
//!   independence);
//! * **layout** — every text view's incrementally maintained line table
//!   is byte-identical to a from-scratch relayout (the differential
//!   anchor for edit-local relayout);
//! * **fork** — a session forked from a pre-warmed template world
//!   ([`atk_apps::TemplateRegistry`]), after a throwaway tenant has
//!   already forked and taken traffic, behaves identically under the
//!   same script to the cold-built session (the differential anchor for
//!   copy-on-write session forking).
//!
//! On failure the event stream is delta-debugged ([`shrink`]) to a
//! 1-minimal script in the line-oriented format `runapp --script`
//! replays. The run exports `check.steps`, `check.oracle_runs`,
//! `check.shrink_rounds`, a `check.oracle_us.<name>` wall-time
//! histogram and a `check.violations.<name>` counter per oracle
//! through `atk-trace`; [`CheckReport::stats`] carries the whole
//! snapshot so multi-scene drivers can merge them.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod gen;
pub mod oracles;
pub mod shrink;

use std::sync::Arc;
use std::time::Instant;

use atk_core::{EventScript, InteractionManager, ScriptStep, StepDriver, World};
use atk_graphics::{Color, Rect};
use atk_trace::{Collector, Snapshot};
use atk_wm::WindowEvent;

pub use oracles::{Oracle, Violation};

/// Which oracles a run checks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OracleSet {
    /// Incremental repaint ≡ full redraw.
    pub repaint: bool,
    /// Datastream save/load/save identity.
    pub roundtrip: bool,
    /// View-tree structural invariants.
    pub tree: bool,
    /// X11Sim / AwmSim differential.
    pub backend: bool,
    /// Incremental text relayout ≡ from-scratch relayout.
    pub layout: bool,
    /// Template-forked session ≡ cold-built session under the same
    /// traffic.
    pub fork: bool,
}

impl OracleSet {
    /// All six oracles.
    pub fn all() -> OracleSet {
        OracleSet {
            repaint: true,
            roundtrip: true,
            tree: true,
            backend: true,
            layout: true,
            fork: true,
        }
    }

    /// No oracles; the building block for `only` and `parse`.
    fn none() -> OracleSet {
        OracleSet {
            repaint: false,
            roundtrip: false,
            tree: false,
            backend: false,
            layout: false,
            fork: false,
        }
    }

    /// Only the named oracle.
    pub fn only(oracle: Oracle) -> OracleSet {
        let mut set = OracleSet::none();
        match oracle {
            Oracle::Repaint => set.repaint = true,
            Oracle::Roundtrip => set.roundtrip = true,
            Oracle::Tree => set.tree = true,
            Oracle::Backend => set.backend = true,
            Oracle::Layout => set.layout = true,
            Oracle::Fork => set.fork = true,
        }
        set
    }

    /// Parses a comma-separated list (`repaint,tree`) or `all`.
    pub fn parse(spec: &str) -> Result<OracleSet, String> {
        if spec == "all" {
            return Ok(OracleSet::all());
        }
        let mut set = OracleSet::none();
        for name in spec.split(',').filter(|s| !s.is_empty()) {
            match name {
                "repaint" => set.repaint = true,
                "roundtrip" => set.roundtrip = true,
                "tree" => set.tree = true,
                "backend" => set.backend = true,
                "layout" => set.layout = true,
                "fork" => set.fork = true,
                other => {
                    return Err(format!(
                        "unknown oracle `{other}` (repaint, roundtrip, tree, backend, \
                         layout, fork, all)"
                    ))
                }
            }
        }
        Ok(set)
    }
}

/// Configuration for one fuzzing run.
#[derive(Debug, Clone)]
pub struct CheckConfig {
    /// RNG seed (same seed + scene → same stream).
    pub seed: u64,
    /// How many steps to generate.
    pub steps: usize,
    /// Check oracles every this many steps (and once at the end).
    pub oracle_every: usize,
    /// Which oracles to check.
    pub oracles: OracleSet,
    /// Primary backend.
    pub backend: String,
    /// Mirror backend for the differential oracle.
    pub mirror_backend: String,
    /// Whether to delta-debug a failing stream down to a minimal script.
    pub shrink: bool,
    /// Test-only fault injection: on every `Tick` step, scribble a pixel
    /// on the primary window *without posting damage* — a planted
    /// repaint bug the repaint oracle must catch and the shrinker must
    /// minimize. Never set outside tests.
    pub sabotage_on_tick: bool,
}

impl Default for CheckConfig {
    fn default() -> CheckConfig {
        CheckConfig {
            seed: 42,
            steps: 1000,
            oracle_every: 25,
            oracles: OracleSet::all(),
            backend: "x11sim".to_string(),
            mirror_backend: "awmsim".to_string(),
            shrink: true,
            sabotage_on_tick: false,
        }
    }
}

/// A live fuzzing session: one scene's world and interaction manager,
/// plus the bit of bookkeeping the repaint oracle needs.
pub struct Session {
    /// The object world.
    pub world: World,
    /// The interaction manager over the scene's window.
    pub im: InteractionManager,
    /// True when menu traffic may have painted the transient pop-up
    /// overlay since the last full redraw (see
    /// [`oracles::check_repaint`]).
    pub overlay_possible: bool,
    /// Step semantics shared with [`EventScript::run`] and the serve
    /// layer's replay.
    driver: StepDriver,
}

impl Session {
    /// Builds the named scene on `backend` and gives its world a fresh,
    /// enabled collector (so `im.*` counters start at zero and the
    /// backend differential can compare them).
    pub fn build(scene: &str, backend: &str) -> Result<Session, String> {
        let built = atk_apps::scenes::build_scene(scene, backend)?;
        let mut session = Session::from_scene(built.world, built.im);
        let collector = Arc::new(Collector::new());
        collector.enable();
        session.world.set_collector(collector);
        Ok(session)
    }

    /// Wraps an already-built world and interaction manager.
    pub fn from_scene(world: World, im: InteractionManager) -> Session {
        Session {
            world,
            im,
            overlay_possible: false,
            driver: StepDriver::default(),
        }
    }

    /// Applies one step with the same semantics as [`EventScript::run`].
    pub fn apply(&mut self, step: &ScriptStep) {
        self.driver.apply(&mut self.im, &mut self.world, step);
        if matches!(
            step,
            ScriptStep::Event(WindowEvent::MenuRequest { .. }) | ScriptStep::MenuSelect(_)
        ) {
            self.overlay_possible = true;
        }
    }

    /// The planted repaint bug: paint a pixel behind the damage
    /// system's back.
    fn sabotage(&mut self) {
        let g = self.im.window_mut().graphic();
        g.set_foreground(Color::RED);
        g.fill_rect(Rect::new(2, 2, 3, 3));
        g.flush();
    }
}

/// Where a violation was found and what the minimized reproduction is.
#[derive(Debug, Clone)]
pub struct FailureReport {
    /// The tripped oracle and its explanation.
    pub violation: Violation,
    /// Step index (0-based into the generated stream) after which the
    /// oracle tripped.
    pub at_step: usize,
    /// The minimized reproducing steps (the full failing prefix when
    /// shrinking is disabled).
    pub minimized: Vec<ScriptStep>,
    /// The minimized steps rendered in the line-oriented script format
    /// (`runapp <app> --script <file>` replays this).
    pub script: String,
}

/// The outcome of one scene's fuzzing run.
#[derive(Debug, Clone)]
pub struct CheckReport {
    /// Scene name.
    pub scene: String,
    /// Steps actually applied.
    pub steps_run: usize,
    /// Oracle checks performed (individual oracle invocations).
    pub oracle_runs: u64,
    /// Candidate replays the shrinker performed.
    pub shrink_rounds: u64,
    /// Steps per second, wall clock, including oracle overhead.
    pub steps_per_sec: f64,
    /// The failure, if any oracle tripped.
    pub failure: Option<FailureReport>,
    /// The run's full trace snapshot: `check.*` counters plus one
    /// `check.oracle_us.<name>` wall-time histogram and one
    /// `check.violations.<name>` counter per oracle. Reports from
    /// several scenes merge with [`atk_trace::Snapshot::merge`].
    pub stats: Snapshot,
}

/// What one pass over a (generated or replayed) stream produced.
enum StreamOutcome {
    Clean,
    Failed {
        prefix: Vec<ScriptStep>,
        violation: Violation,
        at_step: usize,
    },
}

/// Runs one oracle invocation with the shared accounting: bumps
/// `check.oracle_runs`, records wall time into the oracle's
/// `check.oracle_us.*` histogram, and on a trip counts it under
/// `check.violations.*`.
fn timed_oracle(
    collector: &Arc<Collector>,
    oracle: Oracle,
    check: impl FnOnce() -> Option<String>,
) -> Option<Violation> {
    collector.count("check.oracle_runs", 1);
    let start = Instant::now();
    let detail = check();
    collector.observe(oracle.us_key(), start.elapsed().as_micros() as u64);
    detail.map(|detail| {
        collector.count(oracle.violations_key(), 1);
        Violation { oracle, detail }
    })
}

/// Builds the fork oracle's twin: a session forked from a pre-warmed
/// [`atk_apps::TemplateRegistry`] template. The registry first serves a
/// throwaway tenant that takes a little traffic and is dropped, so the
/// twin is a *post-traffic* fork — the adversarial case for
/// copy-on-write isolation: anything that tenant leaked into the
/// template reappears in the twin and trips the oracle. The registry
/// counts its `world.template_builds` / `world.forks` on the run
/// collector; the twin's world gets a fresh collector *after* the fork,
/// exactly as [`Session::build`] does after a cold build, so the two
/// sessions' `im.*` counters are comparable from zero.
fn build_fork_twin(
    scene: &str,
    config: &CheckConfig,
    collector: &Arc<Collector>,
) -> Result<Session, String> {
    let mut registry = atk_apps::TemplateRegistry::new(collector.clone());
    let throwaway = registry.fork_session(scene, &config.backend)?;
    let mut tenant = Session::from_scene(throwaway.world, throwaway.im);
    for tick in 1..=4 {
        tenant.apply(&ScriptStep::Event(WindowEvent::Tick(tick)));
    }
    drop(tenant);
    let forked = registry.fork_session(scene, &config.backend)?;
    let mut twin = Session::from_scene(forked.world, forked.im);
    let twin_collector = Arc::new(Collector::new());
    twin_collector.enable();
    twin.world.set_collector(twin_collector);
    Ok(twin)
}

fn run_oracles(
    primary: &mut Session,
    mirror: Option<&mut Session>,
    fork_twin: Option<&mut Session>,
    oracles: OracleSet,
    collector: &Arc<Collector>,
) -> Option<Violation> {
    // The differentials first: backend and fork both want every
    // incremental framebuffer untouched.
    if oracles.backend {
        if let Some(m) = &mirror {
            if let Some(v) = timed_oracle(collector, Oracle::Backend, || {
                oracles::check_backend(primary, m)
            }) {
                return Some(v);
            }
        }
    }
    if oracles.fork {
        if let Some(t) = &fork_twin {
            if let Some(v) =
                timed_oracle(collector, Oracle::Fork, || oracles::check_fork(primary, t))
            {
                return Some(v);
            }
        }
    }
    // Layout before repaint: a wrong incremental line table usually
    // shows up as a pixel diff too, and the layout oracle names the
    // diverging line rather than a pixel count.
    if oracles.layout {
        if let Some(v) = timed_oracle(collector, Oracle::Layout, || oracles::check_layout(primary))
        {
            return Some(v);
        }
    }
    if oracles.repaint {
        if let Some(v) = timed_oracle(collector, Oracle::Repaint, || {
            oracles::check_repaint(primary)
        }) {
            return Some(v);
        }
        if let Some(m) = mirror {
            if let Some(v) = timed_oracle(collector, Oracle::Repaint, || {
                oracles::check_repaint(m).map(|d| format!("(mirror backend) {d}"))
            }) {
                return Some(v);
            }
        }
        // The fork twin must take the same full-redraw resync as the
        // primary, both because repaint convergence on a forked world is
        // a fork-path invariant in its own right and because skipping it
        // would skew the twin's `im.full_redraws` counter and fail the
        // next fork differential for the wrong reason.
        if let Some(t) = fork_twin {
            if let Some(v) = timed_oracle(collector, Oracle::Fork, || {
                oracles::check_repaint(t).map(|d| format!("(fork twin) {d}"))
            }) {
                return Some(v);
            }
        }
    }
    if oracles.roundtrip {
        if let Some(v) = timed_oracle(collector, Oracle::Roundtrip, || {
            oracles::check_roundtrip(primary)
        }) {
            return Some(v);
        }
    }
    if oracles.tree {
        if let Some(v) = timed_oracle(collector, Oracle::Tree, || oracles::check_tree(primary)) {
            return Some(v);
        }
    }
    None
}

/// Generates and applies `config.steps` steps, checking oracles every
/// `oracle_every` steps and once at the end.
fn run_stream(
    scene: &str,
    config: &CheckConfig,
    collector: &Arc<Collector>,
) -> Result<StreamOutcome, String> {
    let mut primary = Session::build(scene, &config.backend)?;
    let mut mirror = if config.oracles.backend {
        Some(Session::build(scene, &config.mirror_backend)?)
    } else {
        None
    };
    let mut fork_twin = if config.oracles.fork {
        Some(build_fork_twin(scene, config, collector)?)
    } else {
        None
    };
    let mut gen = gen::StepGen::new(config.seed);
    let mut recorded: Vec<ScriptStep> = Vec::with_capacity(config.steps);
    let window = config.oracle_every.max(1);
    for i in 0..config.steps {
        let step = gen.next_step(&mut primary.world, &mut primary.im);
        primary.apply(&step);
        if config.sabotage_on_tick && matches!(step, ScriptStep::Event(WindowEvent::Tick(_))) {
            primary.sabotage();
        }
        if let Some(m) = &mut mirror {
            m.apply(&step);
        }
        if let Some(t) = &mut fork_twin {
            t.apply(&step);
        }
        recorded.push(step);
        collector.count("check.steps", 1);
        let at_window = (i + 1) % window == 0 || i + 1 == config.steps;
        if at_window {
            if let Some(violation) = run_oracles(
                &mut primary,
                mirror.as_mut(),
                fork_twin.as_mut(),
                config.oracles,
                collector,
            ) {
                return Ok(StreamOutcome::Failed {
                    prefix: recorded,
                    violation,
                    at_step: i,
                });
            }
        }
    }
    Ok(StreamOutcome::Clean)
}

/// Replays `steps` against a fresh scene, checking oracles after every
/// step; returns the first violation. This is the shrinker's test
/// function.
fn replay_detect(
    scene: &str,
    config: &CheckConfig,
    steps: &[ScriptStep],
    collector: &Arc<Collector>,
) -> Result<Option<Violation>, String> {
    let mut primary = Session::build(scene, &config.backend)?;
    let mut mirror = if config.oracles.backend {
        Some(Session::build(scene, &config.mirror_backend)?)
    } else {
        None
    };
    let mut fork_twin = if config.oracles.fork {
        Some(build_fork_twin(scene, config, collector)?)
    } else {
        None
    };
    for step in steps {
        primary.apply(step);
        if config.sabotage_on_tick && matches!(step, ScriptStep::Event(WindowEvent::Tick(_))) {
            primary.sabotage();
        }
        if let Some(m) = &mut mirror {
            m.apply(step);
        }
        if let Some(t) = &mut fork_twin {
            t.apply(step);
        }
        if let Some(v) = run_oracles(
            &mut primary,
            mirror.as_mut(),
            fork_twin.as_mut(),
            config.oracles,
            collector,
        ) {
            return Ok(Some(v));
        }
    }
    // An empty candidate can still fail if the scene violates an oracle
    // at rest (an input-independent bug).
    if steps.is_empty() {
        return Ok(run_oracles(
            &mut primary,
            mirror.as_mut(),
            fork_twin.as_mut(),
            config.oracles,
            collector,
        ));
    }
    Ok(None)
}

/// Fuzzes one scene. `scene` is a name from
/// [`atk_apps::scenes::scene_names`] (or a `fig3`-style prefix).
pub fn run_check(scene: &str, config: &CheckConfig) -> Result<CheckReport, String> {
    let collector = Arc::new(Collector::new());
    collector.enable();
    let start = Instant::now();
    let outcome = run_stream(scene, config, &collector)?;
    let failure = match outcome {
        StreamOutcome::Clean => None,
        StreamOutcome::Failed {
            prefix,
            violation,
            at_step,
        } => {
            let minimized = if config.shrink {
                shrink::minimize(&prefix, &collector, |candidate| {
                    matches!(
                        replay_detect(scene, config, candidate, &collector),
                        Ok(Some(_))
                    )
                })
            } else {
                prefix
            };
            let script = EventScript {
                steps: minimized.clone(),
            }
            .to_text();
            Some(FailureReport {
                violation,
                at_step,
                minimized,
                script,
            })
        }
    };
    let elapsed = start.elapsed().as_secs_f64().max(1e-9);
    let snap = collector.snapshot();
    let steps_run = snap.counter("check.steps") as usize;
    Ok(CheckReport {
        scene: scene.to_string(),
        steps_run,
        oracle_runs: snap.counter("check.oracle_runs"),
        shrink_rounds: snap.counter("check.shrink_rounds"),
        steps_per_sec: steps_run as f64 / elapsed,
        failure,
        stats: snap,
    })
}
