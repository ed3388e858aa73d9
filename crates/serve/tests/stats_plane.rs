//! The server stats plane, end to end: the `Stats` wire reply must be
//! exactly the sum of the per-session collector snapshots (differential
//! against an independent merge), the SLO watchdog's slow-frame
//! dumps must be byte-deterministic under the manual clock, and the
//! frame-path counters pin how many full-frame copies a session makes,
//! how many pixels its diffs compare, how often a shard's template
//! keyframe cache serves a `Hello`, how often a keyframe probe packs
//! a keyframe and ships it, that a replica stamps settle and paint
//! in their own stages, and that a shard parks between events.

use atk_core::ScriptStep;
use atk_graphics::{Size, BAND_ROWS};
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

    // One two-step batch → one frame → one violation of the zero
    // budget, attributed to the batch's last step. Every microsecond
    // below is a deterministic count of clock reads (each step stamps
    // its own apply, settle and paint), so the whole dump line is
    // golden.
    assert_eq!(first.len(), 1);
    let line = &first[0];
    assert_eq!(
        line,
        "SLO session=1 seq=2 total=19us budget=0us trigger=key b :: \
         decode 3us | apply 6us | settle 6us | paint 2us | diff 1us | ship 1us"
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

/// A replica stamps each op's settle and paint in their own stages, as
/// a private session does: under the manual clock (every stamp reads
/// it) a silent collab watcher's `serve.stage_us.settle` and
/// `serve.stage_us.paint` sums are positive.
#[test]
fn a_watcher_replica_attributes_settle_and_paint() {
    let cfg = ServerConfig {
        manual_clock: Some((1_000, 1)),
        retain_session_traces: true,
        ..ServerConfig::default()
    };
    let server = Server::start(cfg, 1);
    let attach = |scene| ServeClient::attach(server.connect_mem(None).unwrap(), "doc", scene);
    let mut writer = attach(Some("fig5")).unwrap();
    let watcher = attach(None).unwrap();
    let mut steps = vec![
        ScriptStep::Event(WindowEvent::left_down(70, 70)),
        ScriptStep::Event(WindowEvent::left_up(70, 70)),
    ];
    steps.extend(
        "typing"
            .chars()
            .map(|c| ScriptStep::Event(WindowEvent::ch(c))),
    );
    for step in &steps {
        writer.step_sync(step).unwrap();
    }
    let watcher_id = watcher.session_id();
    watcher.finish_with_frame().unwrap();
    writer.finish().unwrap();
    while server.shard_loads() != [0] {
        thread::sleep(Duration::from_millis(1));
    }
    let (_, snap) = server
        .trace_parts()
        .into_iter()
        .find(|(label, _)| *label == format!("session-{watcher_id}"))
        .expect("the watcher's retained trace");
    for stage in [Stage::Settle, Stage::Paint] {
        let sum = snap.histogram(stage.key()).map_or(0, |h| h.sum);
        assert!(sum > 0, "{}: {sum} us", stage.key());
    }
}

/// A fig5 focus click, then `keys` keys typed.
fn typing_steps(keys: usize) -> Vec<ScriptStep> {
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
    steps
}

/// Serves `sessions` fig5 sessions one after another on a one-shard
/// server on `backend`, each a focus click plus `keys` typed keys, one
/// frame per step. Returns the server, every session's retired
/// snapshot in admission order, and the shard plane.
fn typing_sessions(
    backend: &str,
    sessions: usize,
    keys: usize,
    think: Duration,
) -> (Arc<Server>, Vec<Snapshot>, Snapshot) {
    let cfg = ServerConfig {
        retain_session_traces: true,
        session: SessionConfig {
            backend: backend.to_string(),
            ..SessionConfig::default()
        },
        ..ServerConfig::default()
    };
    let server = Server::start(cfg, 1);
    for _ in 0..sessions {
        let mut client = ServeClient::connect(server.connect_mem(None).unwrap(), "fig5").unwrap();
        for step in &typing_steps(keys) {
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
/// fewer bands than one frame holds. 80 keys reflow
/// the paragraph and redraw most of the frame (31 of its 35 bands), so
/// they copy more, but each band at most once on each side: under two
/// frames' worth. 80 keys ship more than 64 pixel frames, so a frame
/// copy per keyframe or per update would show.
#[test]
fn a_typing_session_makes_one_frame_copy() {
    let (_, h) = HostedSession::open("fig5", SessionConfig::default(), Arc::new(Collector::new()))
        .unwrap()
        .size();
    let frame_bands = u64::from(h.div_ceil(BAND_ROWS as u32));
    for (keys, budget) in [(16, frame_bands), (80, 2 * frame_bands)] {
        let (_, sessions, _) = typing_sessions("x11sim", 3, keys, Duration::ZERO);
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
                "{keys} keys, session {k}: {copies} band copies, \
                 {frame_bands} bands a frame"
            );
        }
    }
}

/// The diff costs what was drawn: each frame compares only the band
/// boxes the window's frame records written since the baseline last equalled
/// the screen, so a fig5 typing session compares under a tenth of the
/// pixels a full-frame scan per frame would, on either backend (a
/// display list records what its replay writes). A keystroke redraws
/// one 546×20 text line; the focus click and a line wrap redraw most
/// of the frame, which the 48 keys amortize. The count follows the
/// session's drawing alone: a template-cache miss, a cache hit (which
/// must clear the record when it adopts the cached keyframe) and an
/// in-process cold session all compare the same pixels.
#[test]
fn a_typing_session_diffs_only_what_it_drew() {
    let (w, h) = HostedSession::open("fig5", SessionConfig::default(), Arc::new(Collector::new()))
        .unwrap()
        .size();
    const KEYS: usize = 48;
    for backend in ["x11sim", "awmsim"] {
        let (_, mut sessions, _) = typing_sessions(backend, 2, KEYS, Duration::ZERO);
        let collector = Arc::new(Collector::new());
        collector.enable();
        let cfg = SessionConfig {
            backend: backend.into(),
            ..SessionConfig::default()
        };
        let mut cold = HostedSession::open("fig5", cfg, collector.clone()).unwrap();
        let _ = cold.initial_keyframe();
        for step in typing_steps(KEYS) {
            let _ = cold.apply_batch(&[step], 0);
        }
        sessions.push(collector.snapshot());
        let mut compared = Vec::new();
        for (k, snap) in sessions.iter().enumerate() {
            let full = snap.counter("serve.frames") * u64::from(w) * u64::from(h);
            let px = snap.counter("serve.diff_px");
            assert!(
                px > 0 && px * 10 < full,
                "{backend} session {k}: compared {px} of {full} pixels"
            );
            compared.push(px);
        }
        assert!(
            compared.iter().all(|&px| px == compared[0]),
            "{backend}: pixels compared, per session \
             (forked miss, forked hit, in-process cold): {compared:?}"
        );
    }
}

/// A Return's frame compares the band boxes of what it drew: the two
/// re-wrapped lines and the rows where the elevator's thumb changed,
/// not the 560×546 bounding box of that damage (305 760 px while the
/// elevator damaged its whole bar and the frame kept one written rect).
/// Every Return of a forty-line fig5 session, the ones that move the
/// thumb and the ones that scroll included, compares under a fifth of
/// the window on either backend.
#[test]
fn a_return_frame_compares_under_a_fifth_of_the_window() {
    for backend in ["x11sim", "awmsim"] {
        let collector = Arc::new(Collector::new());
        collector.enable();
        let cfg = SessionConfig {
            backend: backend.into(),
            ..SessionConfig::default()
        };
        let mut s = HostedSession::open("fig5", cfg, collector.clone()).unwrap();
        let (w, h) = s.size();
        let window = u64::from(w) * u64::from(h);
        let _ = s.initial_keyframe();
        let click = [
            ScriptStep::Event(WindowEvent::left_down(70, 70)),
            ScriptStep::Event(WindowEvent::left_up(70, 70)),
        ];
        let _ = s.apply_batch(&click, 0);
        let mut compared = Vec::new();
        for c in (0..40).flat_map(|i| format!("line {i}\n").chars().collect::<Vec<_>>()) {
            let step = ScriptStep::Event(match c {
                '\n' => WindowEvent::Key(atk_wm::Key::Return),
                c => WindowEvent::ch(c),
            });
            let before = collector.snapshot().counter("serve.diff_px");
            let (frame, _) = s.apply_batch(std::slice::from_ref(&step), 0);
            assert!(matches!(frame, ServerFrame::Update { .. }), "{frame:?}");
            if c == '\n' {
                compared.push(collector.snapshot().counter("serve.diff_px") - before);
            }
        }
        assert_eq!(compared.len(), 40);
        assert!(
            compared.iter().all(|&px| px > 0 && px * 5 < window),
            "{backend}: pixels compared per Return {compared:?} of {window}"
        );
    }
}

/// A Return typed mid-text shifts every line below the caret down one
/// line. The window reports that shift as a move, so the update carries
/// the move and only the re-wrapped lines: a few kilobytes, where an
/// XOR of every shifted line took about 33.7 KB. A typed character
/// shifts the rest of its line sideways, also as a move. `serve.moves`
/// and `serve.moved_px` count the moves shipped and the pixels they
/// moved.
#[test]
fn a_return_ships_its_shifted_lines_as_a_move() {
    let server = Server::start(ServerConfig::default(), 1);
    let mut client = ServeClient::connect(server.connect_mem(None).unwrap(), "fig5").unwrap();
    let mut steps = vec![
        ScriptStep::Event(WindowEvent::left_down(70, 70)),
        ScriptStep::Event(WindowEvent::left_up(70, 70)),
    ];
    for c in (0..12).flat_map(|i| format!("line {i}\n").chars().collect::<Vec<_>>()) {
        steps.push(ScriptStep::Event(match c {
            '\n' => WindowEvent::Key(atk_wm::Key::Return),
            c => WindowEvent::ch(c),
        }));
    }
    let mut returns = Vec::new();
    for step in &steps {
        let before = client.stats().diff_bytes;
        client.step_sync(step).unwrap();
        if *step == ScriptStep::Event(WindowEvent::Key(atk_wm::Key::Return)) {
            returns.push(client.stats().diff_bytes - before);
        }
    }
    client.finish().unwrap();
    while server.shard_loads() != [0] {
        thread::sleep(Duration::from_millis(1));
    }
    let snap = server.merged_snapshot();
    // One move per typed key: a Return shifts the lines below it, a
    // character the rest of its line.
    assert_eq!(
        snap.counter("serve.moves"),
        steps.len() as u64 - 2,
        "one move per key"
    );
    assert!(snap.counter("serve.moved_px") > 12 * 546 * 100);
    assert_eq!(returns.len(), 12);
    assert!(
        returns.iter().all(|&b| b > 0 && b <= 4096),
        "update bytes per Return: {returns:?}"
    );
}

/// An update past the probe size is weighed against the packed
/// keyframe of its screen. fig3 resized smaller, then back: the first
/// resize's update is smaller than the keyframe and ships; after the
/// second the keyframe wins and ships with the bytes the probe packed.
/// `serve.keyframe_probes` counts the keyframes packed to weigh an
/// update, `serve.keyframe_probe_wins` those that shipped.
#[test]
fn keyframe_probes_count_what_they_packed_and_what_shipped() {
    let server = Server::start(ServerConfig::default(), 1);
    let mut client = ServeClient::connect(server.connect_mem(None).unwrap(), "fig3").unwrap();
    for size in [Size::new(400, 300), Size::new(560, 560)] {
        client
            .step_sync(&ScriptStep::Event(WindowEvent::Resize(size)))
            .unwrap();
    }
    client.finish().unwrap();
    while server.shard_loads() != [0] {
        thread::sleep(Duration::from_millis(1));
    }
    let snap = server.merged_snapshot();
    assert_eq!(snap.counter("serve.keyframe_probes"), 2);
    assert_eq!(snap.counter("serve.keyframe_probe_wins"), 1);
    // The shard's fig3 template holds a scratch message store, removed
    // when the template drops: join the shard before the test ends.
    server.shutdown_shards();
}

/// The template keyframe cache counts on the shard plane: the first
/// fig5 `Hello` on a shard encodes the keyframe and every later one is
/// a hit. A hit leaves the session's own keyframe counters as a miss
/// left them.
#[test]
fn keyframe_cache_hits_count_on_the_shard_plane() {
    let (server, sessions, shard) = typing_sessions("x11sim", 3, 4, Duration::ZERO);
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
}

/// The shard health counters: a typing session wakes its parked shard
/// (`serve.shard.wakeups`) and the shard spends the client's think time
/// parked (`serve.shard.parked_us`). The client pauses 2 ms before each
/// of its 26 steps, so the shard has parked long before the step lands
/// unless it was descheduled through every pause.
#[test]
fn a_typing_session_records_shard_wakeups() {
    let (_, _, shard) = typing_sessions("x11sim", 1, 24, Duration::from_millis(2));
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

/// A shard hosting only a silent watcher parks: the watcher polls its
/// document channel every sweep, but a sweep that drains no op is no
/// progress, so once the attach is served the shard's wakeups stop
/// growing, and the watcher's next frame wakes it from the park.
#[test]
fn a_shard_hosting_only_a_silent_watcher_parks() {
    let server = Server::start(ServerConfig::default(), 1);
    let mut watcher =
        ServeClient::attach(server.connect_mem(None).unwrap(), "doc", Some("fig2")).unwrap();
    // Wait until the wakeups the attach brought have settled.
    let mut last = shard_wakeups(&server);
    loop {
        thread::sleep(Duration::from_millis(20));
        let now = shard_wakeups(&server);
        if now == last {
            break;
        }
        last = now;
    }
    thread::sleep(Duration::from_millis(100));
    assert_eq!(
        shard_wakeups(&server),
        last,
        "the watcher's shard kept waking"
    );
    watcher.request_stats().unwrap();
    assert!(
        shard_wakeups(&server) > last,
        "the stats request found the shard awake: it never parked"
    );
    watcher.finish().unwrap();
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
