//! The server stats plane, end to end: the `Stats` wire reply must be
//! exactly the sum of the per-session collector snapshots (differential
//! against an independent merge), the SLO watchdog's slow-frame
//! dumps must be byte-deterministic under the manual clock, and the
//! frame-path counters pin how many full-frame copies a session makes,
//! how many pixels its diffs compare, and how often a shard's template
//! keyframe cache serves a `Hello`.

use atk_core::ScriptStep;
use atk_graphics::BAND_ROWS;
use atk_serve::{
    ClientFrame, HostedSession, MemTransport, ServeClient, Server, ServerConfig, ServerFrame,
    SessionConfig,
};
use atk_trace::{snapshot_json, text_summary, validate_json, Collector, Snapshot, Stage};
use atk_wm::WindowEvent;
use std::sync::Arc;
use std::thread;
use std::time::Duration;

/// The shard-plane `serve.shard.wakeups` counter of a one-shard server.
fn shard_wakeups(server: &Server) -> u64 {
    server.shard_snapshots()[0].counter("serve.shard.wakeups")
}

/// Preloads one whole conversation (hello + `text` keys + bye) into a
/// mem transport, admits it, and waits until the shard has served it,
/// retired the session and gone quiet.
fn run_canned_session(server: &Arc<Server>, text: &str) {
    let (mut client, server_half) = MemTransport::pair();
    use atk_serve::FrameTransport;
    client
        .send(
            &ClientFrame::Hello {
                scene: "fig1".into(),
                backend: None,
            }
            .encode()
            .unwrap(),
        )
        .unwrap();
    for ch in text.chars() {
        client
            .send(
                &ClientFrame::Step(ScriptStep::Event(WindowEvent::ch(ch)))
                    .encode()
                    .unwrap(),
            )
            .unwrap();
    }
    client.send(&ClientFrame::Bye.encode().unwrap()).unwrap();
    assert!(server.admit(Box::new(server_half)).is_ok());
    while !matches!(
        ServerFrame::decode(&client.recv().unwrap()).unwrap(),
        ServerFrame::Bye { .. }
    ) {}
    while server.shard_loads() != [0] {
        thread::sleep(Duration::from_millis(1));
    }
    // Dropping the client half rings the shard once more. Wait until
    // that wakeup is counted: the shard then parks with nothing left to
    // ring it, so no counter moves until the next session is admitted.
    let wakeups = shard_wakeups(server);
    drop(client);
    while shard_wakeups(server) == wakeups {
        thread::sleep(Duration::from_millis(1));
    }
}

/// The differential: the `Stats` reply the wire would carry must equal
/// an independent merge of the server-plane and shard-plane snapshots
/// with every (span-stripped) per-session snapshot — the same totals
/// reached by a different code path than the incremental retire-time
/// accumulator.
#[test]
fn stats_reply_is_the_sum_of_session_snapshots() {
    let cfg = ServerConfig {
        manual_clock: Some((1_000, 1)),
        retain_session_traces: true,
        ..ServerConfig::default()
    };
    let server = Server::start(cfg, 1);
    for text in ["abc", "hello", "x"] {
        run_canned_session(&server, text);
    }

    // trace_parts: [("server", plane), ("shard-0", plane),
    // ("session-1", full), ...].
    let parts = server.trace_parts();
    assert_eq!(
        parts.len(),
        5,
        "server plane + shard plane + three retired sessions"
    );
    let stripped: Vec<Snapshot> = parts
        .iter()
        .map(|(label, snap)| {
            if label.starts_with("session-") {
                snap.without_spans()
            } else {
                snap.clone()
            }
        })
        .collect();
    let expected = Snapshot::merge_all(stripped.iter());

    let ServerFrame::Stats { text, json } = server.stats_reply() else {
        panic!("stats_reply is not a Stats frame");
    };
    assert_eq!(text, text_summary(&expected));
    assert_eq!(json, snapshot_json(&expected));
    validate_json(&json).expect("stats JSON must parse");

    // Sanity on the content: every stage histogram made it through the
    // merge with one sample per session frame.
    for stage in Stage::ALL {
        let h = expected
            .histogram(stage.key())
            .unwrap_or_else(|| panic!("missing {}", stage.key()));
        assert_eq!(h.count, 3, "{}: one frame per canned session", stage.key());
        assert!(json.contains(stage.key()), "json lists {}", stage.key());
    }
    assert_eq!(expected.counter("serve.sessions"), 3);
}

/// A live probe session can fetch the same snapshot over the wire.
#[test]
fn stats_request_round_trips_over_the_wire() {
    let server = Server::start(ServerConfig::default(), 1);
    run_canned_session(&server, "hi");

    let mut client = ServeClient::connect(server.connect_mem(None).unwrap(), "fig1").unwrap();
    let (text, json) = client.request_stats().unwrap();
    client.finish().unwrap();

    validate_json(&json).expect("stats JSON must parse");
    assert!(text.contains("serve.sessions"), "text summary: {text}");
    assert!(json.contains("serve.stage_us.apply"), "stage histograms");
    assert_eq!(
        server
            .collector()
            .snapshot()
            .counter("serve.stats_requests"),
        1
    );
}

/// Collects the slow-frame dump lines from one fully deterministic
/// run: manual clock, zero-budget SLO, one canned session.
fn slow_frames_for_canned_run() -> Vec<String> {
    let cfg = ServerConfig {
        manual_clock: Some((5_000, 1)),
        session: SessionConfig {
            slo_us: Some(0),
            ..SessionConfig::default()
        },
        ..ServerConfig::default()
    };
    let server = Server::start(cfg, 1);
    run_canned_session(&server, "ab");
    server.slow_log().entries()
}

/// Golden: under the manual clock the SLO watchdog's dump is exactly
/// reproducible — same trigger line, same per-stage microseconds,
/// byte for byte across independent servers.
#[test]
fn slow_frame_dump_is_deterministic_under_manual_clock() {
    let first = slow_frames_for_canned_run();
    let second = slow_frames_for_canned_run();
    assert_eq!(first, second, "dump must not depend on wall time");

    // One coalesced batch → one frame → one violation of the zero
    // budget, attributed to the batch's last step. Every microsecond
    // below is a deterministic count of clock reads, so the whole dump
    // line is golden.
    assert_eq!(first.len(), 1);
    let line = &first[0];
    assert_eq!(
        line,
        "SLO session=1 seq=2 total=14us budget=0us trigger=key b :: \
         decode 3us | apply 5us | settle 3us | paint 1us | diff 1us | ship 1us"
    );
    for stage in Stage::ALL {
        assert!(
            line.contains(&format!("{} ", stage.name())),
            "dump must attribute every stage: {line}"
        );
    }
    // The stage sum is the frame total (the trace is a partition of the
    // frame, not a sample of it).
    let total: u64 = parse_field(line, "total=");
    let stage_sum: u64 = Stage::ALL
        .iter()
        .map(|s| parse_stage_us(line, s.name()))
        .sum();
    assert!(
        total >= stage_sum && total - stage_sum <= 16,
        "stages ({stage_sum}us) must account for ~all of the frame ({total}us): {line}"
    );
}

/// Serves `sessions` fig5 sessions one after another on a one-shard
/// server, each a focus click plus `keys` typed keys, one frame per
/// step. Returns the server, every session's retired snapshot in
/// admission order, and the shard plane.
fn typing_sessions(
    fork: bool,
    sessions: usize,
    keys: usize,
    think: Duration,
) -> (Arc<Server>, Vec<Snapshot>, Snapshot) {
    let cfg = ServerConfig {
        fork,
        retain_session_traces: true,
        ..ServerConfig::default()
    };
    let server = Server::start(cfg, 1);
    for _ in 0..sessions {
        let mut client = ServeClient::connect(server.connect_mem(None).unwrap(), "fig5").unwrap();
        let mut steps = vec![
            ScriptStep::Event(WindowEvent::left_down(70, 70)),
            ScriptStep::Event(WindowEvent::left_up(70, 70)),
        ];
        steps.extend(
            "typing"
                .chars()
                .cycle()
                .take(keys)
                .map(|c| ScriptStep::Event(WindowEvent::ch(c))),
        );
        for step in &steps {
            if !think.is_zero() {
                thread::sleep(think);
            }
            client.step_sync(step).unwrap();
        }
        client.finish().unwrap();
    }
    // The last close lands after its `Bye`; wait for it.
    while server.shard_loads() != [0] {
        thread::sleep(Duration::from_millis(1));
    }
    let sessions = server
        .trace_parts()
        .into_iter()
        .filter(|(label, _)| label.starts_with("session-"))
        .map(|(_, snap)| snap)
        .collect();
    let shard = server.shard_snapshots().remove(0);
    (server, sessions, shard)
}

/// The copy budget, in bands. A fork shares its template's frame and a
/// keyframe shares the screen's bands, so a session copies only the
/// bands its screen draws on and the bands its updates bring its
/// baseline along on — never a whole frame at a fork, a keyframe or a
/// first update. A fig5 session's focus click and first 16 keys copy
/// fewer bands than one frame holds, forked or cold. 80 keys reflow
/// the paragraph and redraw most of the frame (31 of its 35 bands), so
/// they copy more, but each band at most once on each side: under two
/// frames' worth. 80 keys ship more than 64 pixel frames, so a frame
/// copy per keyframe or per update would show.
#[test]
fn a_typing_session_makes_one_frame_copy_forked_or_cold() {
    let (_, h) = HostedSession::open("fig5", SessionConfig::default(), Arc::new(Collector::new()))
        .unwrap()
        .size();
    let frame_bands = u64::from(h.div_ceil(BAND_ROWS as u32));
    for fork in [true, false] {
        for (keys, budget) in [(16, frame_bands), (80, 2 * frame_bands)] {
            let (_, sessions, _) = typing_sessions(fork, 3, keys, Duration::ZERO);
            assert_eq!(sessions.len(), 3);
            for (k, snap) in sessions.iter().enumerate() {
                assert!(
                    snap.counter("serve.frames") > keys as u64,
                    "session {k}: one frame per step"
                );
                let pixel_frames =
                    snap.counter("serve.frames") - snap.counter("serve.frames_unchanged");
                assert!(
                    pixel_frames > keys as u64 * 4 / 5,
                    "{keys} keys, session {k}: {pixel_frames} pixel frames"
                );
                let copies = snap.counter("serve.band_copies");
                assert!(
                    copies > 0 && copies < budget,
                    "fork={fork} {keys} keys, session {k}: {copies} band copies, \
                     {frame_bands} bands a frame"
                );
            }
        }
    }
}

/// The diff costs what was drawn: each frame compares only the rect
/// the window reports written since the baseline last equalled the
/// screen, so a fig5 typing session compares under a tenth of the
/// pixels a full-frame scan per frame would. A keystroke redraws one
/// 546×20 text line; the focus click and a line wrap redraw most of
/// the frame, which the 48 keys amortize. The count follows the
/// session's drawing alone: a cold session, a template-cache miss and
/// a cache hit (which must clear the bounds when it adopts the cached
/// keyframe) all compare the same pixels.
#[test]
fn a_typing_session_diffs_only_what_it_drew() {
    let (w, h) = HostedSession::open("fig5", SessionConfig::default(), Arc::new(Collector::new()))
        .unwrap()
        .size();
    let mut compared = Vec::new();
    for fork in [true, false] {
        let (_, sessions, _) = typing_sessions(fork, 2, 48, Duration::ZERO);
        for (k, snap) in sessions.iter().enumerate() {
            let full = snap.counter("serve.frames") * u64::from(w) * u64::from(h);
            let px = snap.counter("serve.diff_px");
            assert!(
                px > 0 && px * 10 < full,
                "fork={fork} session {k}: compared {px} of {full} pixels"
            );
            compared.push(px);
        }
    }
    assert!(
        compared.iter().all(|&px| px == compared[0]),
        "pixels compared, per session (forked miss, forked hit, cold, cold): {compared:?}"
    );
}

/// The template keyframe cache counts on the shard plane: the first
/// fig5 `Hello` on a shard encodes the keyframe, every later one is a
/// hit, and `--no-fork` admissions never touch the cache. A hit
/// leaves the session's own keyframe counters as a miss left them.
#[test]
fn keyframe_cache_hits_count_on_the_shard_plane() {
    let (server, sessions, shard) = typing_sessions(true, 3, 4, Duration::ZERO);
    assert_eq!(shard.counter("serve.keyframe_cache_hits"), 2);
    assert_eq!(
        server
            .merged_snapshot()
            .counter("serve.keyframe_cache_hits"),
        2,
        "no session plane counts hits"
    );
    for key in [
        "serve.frames",
        "serve.full_bytes",
        "serve.encoded_bytes",
        "serve.encode.rle",
        "serve.encode.raw",
    ] {
        assert_eq!(
            sessions[1].counter(key),
            sessions[0].counter(key),
            "{key}: the hit counts like the miss"
        );
    }

    let (server, _, shard) = typing_sessions(false, 3, 4, Duration::ZERO);
    assert_eq!(shard.counter("serve.keyframe_cache_hits"), 0);
    assert_eq!(
        server
            .merged_snapshot()
            .counter("serve.keyframe_cache_hits"),
        0
    );
}

/// The shard health counters: a typing session wakes its parked shard
/// (`serve.shard.wakeups`) and the shard spends the client's think time
/// parked (`serve.shard.parked_us`). The client pauses 2 ms before each
/// of its 26 steps, so the shard has parked long before the step lands
/// unless it was descheduled through every pause.
#[test]
fn a_typing_session_records_shard_wakeups() {
    let (_, _, shard) = typing_sessions(true, 1, 24, Duration::from_millis(2));
    assert!(shard.counter("serve.shard.wakeups") > 0, "wakeups");
    assert!(shard.counter("serve.shard.parked_us") > 0, "time parked");
}

/// A started server left idle never wakes its shards: the idle cost,
/// pinned as a count rather than a wall-clock CPU reading.
#[test]
fn an_idle_server_records_no_wakeups() {
    let server = Server::start(ServerConfig::default(), 2);
    thread::sleep(Duration::from_millis(200));
    for (i, shard) in server.shard_snapshots().iter().enumerate() {
        assert_eq!(shard.counter("serve.shard.wakeups"), 0, "shard {i}");
    }
    server.shutdown_shards();
}

/// Extracts the number following `prefix` in a dump line.
fn parse_field(line: &str, prefix: &str) -> u64 {
    let rest = &line[line.find(prefix).unwrap() + prefix.len()..];
    rest.chars()
        .take_while(|c| c.is_ascii_digit())
        .collect::<String>()
        .parse()
        .unwrap()
}

/// Extracts `<name> Nus` from the breakdown tail of a dump line.
fn parse_stage_us(line: &str, name: &str) -> u64 {
    parse_field(line, &format!("{name} "))
}
