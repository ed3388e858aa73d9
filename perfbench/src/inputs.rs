//! Seeded inputs: the scripts every client replays. The server only
//! ever sees these generated steps; the seed is the benchmark's
//! argument, never the program's.
//!
//! Every workload is a run of back-to-back sessions with fixed
//! scripts, so the work a session does never depends on how fast the
//! host ran the sessions before it.

use atk_check::gen::interleaved_script;
use atk_core::ScriptStep;
use atk_serve::loadgen::client_script;
use atk_serve::Profile;

/// Client threads (and open connections) per workload.
pub const CLIENTS: usize = 2;

/// Backend every session is built on (the server default).
pub const BACKEND: &str = "x11sim";

/// Keys per edit session after its focus click: sixteen 24-key lines.
const EDIT_KEYS: usize = 16 * 24;

/// Ops the collab writer submits to each shared document.
const DOC_OPS: usize = 384;

/// Distinct document scripts per collab run, used in turn. Each is
/// recorded against a live session, which costs set-up time.
const DOC_SCRIPTS: usize = 12;

/// Keys per admit session after its focus click.
const ADMIT_KEYS: usize = 2;

/// Sessions generated per client and second of run time: two to three
/// times the rates measured on a 2-CPU host (edit ~2.6 sessions/s per
/// client, admit ~73, collab ~4 documents/s), so a client runs out of
/// script only if the server gets that much faster (its loop then ends
/// early and every per-step and per-session figure stays correct).
const EDIT_SESSIONS_PER_S: f64 = 6.0;
const ADMIT_SESSIONS_PER_S: f64 = 250.0;
const COLLAB_DOCS_PER_S: f64 = 8.0;

/// The three traffic mixes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Two clients typing long fig5 sessions: the per-keystroke path.
    Edit,
    /// Two clients opening back-to-back short sessions: admission.
    Admit,
    /// One writer and one watcher on shared documents.
    Collab,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [Workload::Edit, Workload::Admit, Workload::Collab];

    /// Parses a workload name.
    pub fn parse(s: &str) -> Result<Workload, String> {
        Workload::ALL
            .into_iter()
            .find(|w| w.name() == s)
            .ok_or_else(|| format!("unknown workload `{s}` (edit|admit|collab)"))
    }

    /// The workload's name on the command line and in the report.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Edit => "edit",
            Workload::Admit => "admit",
            Workload::Collab => "collab",
        }
    }

    /// The scene every session of the workload opens.
    pub fn scene(self) -> &'static str {
        match self {
            Workload::Edit | Workload::Admit => "fig5",
            Workload::Collab => "fig2",
        }
    }
}

/// The generated scripts of one run.
#[derive(Debug, Clone, PartialEq)]
pub struct Inputs {
    /// Which traffic mix the scripts are for.
    pub workload: Workload,
    /// Per client, the script of each of its sessions, in order. On
    /// `collab` client 0 is the writer and session `k` is the ops it
    /// submits to document `k`; the watcher (client 1) sends nothing.
    pub sessions: Vec<Vec<Vec<ScriptStep>>>,
}

impl Inputs {
    /// Generates the scripts for `seconds` of `workload` from `seed`.
    /// The same seed always gives the same scripts.
    pub fn generate(workload: Workload, seed: u64, seconds: f64) -> Result<Inputs, String> {
        let budget = |per_s: f64| (per_s * seconds).ceil() as usize;
        let scene = workload.scene();
        let client_seeds = (0..CLIENTS as u64).map(|c| derive_seed(seed, c));
        let sessions = match workload {
            // Each session types its own typing script. A typing script
            // varies with its seed only in the phase of its sentence,
            // and that phase alone moves the wire cost by 40 % (wrapping
            // and scrolling differ), so many short scripts per run let
            // the seed pick the text without picking the cost.
            Workload::Edit => client_seeds
                .map(|s| {
                    (0..budget(EDIT_SESSIONS_PER_S) as u64)
                        .map(|k| {
                            client_script(Profile::Typing, scene, derive_seed(s, k), 2 + EDIT_KEYS)
                        })
                        .collect::<Result<Vec<_>, _>>()
                })
                .collect::<Result<_, _>>()?,
            // Session `k` replays the client's focus click followed by
            // keys `2k` and `2k + 1` of one typing stream.
            Workload::Admit => client_seeds
                .map(|s| {
                    let n = budget(ADMIT_SESSIONS_PER_S);
                    let stream = client_script(Profile::Typing, scene, s, 2 + ADMIT_KEYS * n)?;
                    Ok(stream[2..]
                        .chunks_exact(ADMIT_KEYS)
                        .map(|keys| stream[..2].iter().chain(keys).cloned().collect())
                        .collect())
                })
                .collect::<Result<_, String>>()?,
            // Document `k` gets script `k % DOC_SCRIPTS`; every document
            // is a fresh one on the server.
            Workload::Collab => {
                let scripts = (0..DOC_SCRIPTS as u64)
                    .map(|k| {
                        let ops = interleaved_script(scene, derive_seed(seed, k), 1, DOC_OPS)?;
                        Ok(ops.into_iter().map(|(_, step)| step).collect())
                    })
                    .collect::<Result<Vec<Vec<ScriptStep>>, String>>()?;
                let docs = scripts.iter().cycle().take(budget(COLLAB_DOCS_PER_S));
                vec![docs.cloned().collect(), Vec::new()]
            }
        };
        Ok(Inputs { workload, sessions })
    }

    /// The script of session `k` of client `c`; on `collab`, the ops of
    /// document `k` whichever replica asks.
    pub fn script(&self, c: usize, k: usize) -> Option<&[ScriptStep]> {
        let c = if self.workload == Workload::Collab {
            0
        } else {
            c
        };
        self.sessions.get(c)?.get(k).map(Vec::as_slice)
    }
}

/// A seed derived from `seed` for `salt` (SplitMix64 finalizer).
pub fn derive_seed(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ (salt + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}
