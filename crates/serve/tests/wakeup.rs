//! The parked shard's wakeup contract: a shard whose sweep finds
//! nothing parks with no timeout, so every event source must ring it.
//! Each test bounds its client work with a timeout, so a lost wakeup
//! fails the test instead of hanging it.
//!
//! The tests run one at a time (see [`serial`]): two of them count
//! process-wide threads — shard threads and the pooled TCP readers.

use std::net::{TcpListener, TcpStream};
use std::sync::mpsc;
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread;
use std::time::{Duration, Instant};

use atk_core::ScriptStep;
use atk_serve::transport::reader_pool_stats;
use atk_serve::wire::{ClientFrame, ServerFrame};
use atk_serve::{
    FaultPlan, FaultTransport, FrameTransport, HostedSession, MemTransport, ServeClient, Server,
    ServerConfig, SessionConfig, TcpTransport,
};
use atk_trace::Collector;
use atk_wm::WindowEvent;

/// How long any one test's client work may take before it counts as a
/// lost wakeup.
const LIMIT: Duration = Duration::from_secs(60);

/// Round trips per transport in the lost-wakeup stress.
const ROUND_TRIPS: usize = 3000;

static SERIAL: Mutex<()> = Mutex::new(());

/// Serializes the tests of this file.
fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

/// Runs `f` on its own thread and returns its result, failing the test
/// if it takes longer than [`LIMIT`]. A stuck thread is left behind;
/// the test has already failed.
fn within<T: Send + 'static>(what: &str, f: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = mpsc::channel();
    thread::spawn(move || {
        let _ = tx.send(f());
    });
    rx.recv_timeout(LIMIT)
        .unwrap_or_else(|e| panic!("{what}: no result within {LIMIT:?} ({e}): a lost wakeup"))
}

/// Polls `done` until it holds, failing after [`LIMIT`].
fn wait_until(what: &str, mut done: impl FnMut() -> bool) {
    let started = Instant::now();
    while !done() {
        assert!(started.elapsed() < LIMIT, "{what}: not within {LIMIT:?}");
        thread::sleep(Duration::from_millis(1));
    }
}

fn tick(ms: u64) -> ScriptStep {
    ScriptStep::Event(WindowEvent::Tick(ms))
}

/// A focus click on fig5's text, then `keys` typed keys.
fn typing(keys: usize) -> Vec<ScriptStep> {
    let mut steps = vec![
        ScriptStep::Event(WindowEvent::left_down(70, 70)),
        ScriptStep::Event(WindowEvent::left_up(70, 70)),
    ];
    steps.extend(
        "the quick brown fox "
            .chars()
            .cycle()
            .take(keys)
            .map(|c| ScriptStep::Event(WindowEvent::ch(c))),
    );
    steps
}

/// Connects a loopback TCP pair and admits the server half.
fn connect_tcp(server: &Server, listener: &TcpListener) -> TcpTransport {
    let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
    let (accepted, _) = listener.accept().unwrap();
    assert!(server.admit(Box::new(TcpTransport::new(accepted))).is_ok());
    TcpTransport::new(client)
}

/// Window-1 round trips of one-ms ticks: each step's frame comes back
/// before the next step goes out, so every step races the shard's
/// empty sweep and park.
fn round_trips<T: FrameTransport + 'static>(what: &str, t: T) {
    let done = within(what, move || {
        let mut client = ServeClient::connect(t, "fig1").unwrap();
        for _ in 0..ROUND_TRIPS {
            client.step_sync(&tick(1)).unwrap();
        }
        client.finish().unwrap().frames
    });
    assert!(done as usize > ROUND_TRIPS, "{what}: one frame per step");
}

#[test]
fn step_sync_round_trips_never_lose_a_wakeup() {
    let _serial = serial();
    let server = Server::start(ServerConfig::default(), 1);
    round_trips("mem", server.connect_mem(None).unwrap());
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    round_trips("tcp", connect_tcp(&server, &listener));
    server.shutdown_shards();
}

/// A server half that spuriously reports "nothing buffered" on 250 of
/// 256 polls still serves a whole script: the fault rings its own bell,
/// because no new data will.
#[test]
fn a_lying_server_transport_still_serves_a_full_script() {
    let _serial = serial();
    let server = Server::start(ServerConfig::default(), 1);
    let (client_half, server_half) = MemTransport::pair();
    let storm = FaultPlan {
        wouldblock_p: 250,
        ..FaultPlan::passthrough()
    };
    assert!(server
        .admit(Box::new(FaultTransport::new(server_half, storm)))
        .is_ok());
    let client_t = FaultTransport::new(client_half, FaultPlan::passthrough());
    let steps = typing(40);
    let script = steps.clone();
    let served = within("wouldblock storm", move || {
        let mut client = ServeClient::connect(client_t, "fig5").unwrap();
        for step in &script {
            client.step_sync(step).unwrap();
        }
        let stats = client.stats().clone();
        let fb = client.framebuffer().clone();
        client.finish().unwrap();
        (stats.frames, fb)
    });
    let mut reference = HostedSession::open_with(
        "fig5",
        SessionConfig::default(),
        Arc::new(Collector::new()),
        None,
    )
    .unwrap();
    for step in &steps {
        reference.apply_batch(std::slice::from_ref(step), 0);
    }
    assert!(served.0 as usize > steps.len(), "one frame per step");
    assert!(
        served.1 == reference.framebuffer(),
        "the served frame matches a session stepped in-process"
    );
    server.shutdown_shards();
}

/// Idle eviction needs no timer: the client's own `Tick` steps move the
/// session's virtual clock past its horizon, and each one rings the
/// otherwise parked shard.
#[test]
fn idle_eviction_needs_no_timer_wakeup() {
    let _serial = serial();
    let cfg = ServerConfig {
        session: SessionConfig {
            idle_ms: Some(50),
            ..SessionConfig::default()
        },
        ..ServerConfig::default()
    };
    let server = Server::start(cfg, 1);
    let mut t = server.connect_mem(None).unwrap();
    within("idle eviction", move || {
        let recv =
            |t: &mut Box<dyn FrameTransport>| ServerFrame::decode(&t.recv().unwrap()).unwrap();
        // One step at a time, each answered before the next goes out,
        // so every step is its own batch.
        let exchange = |t: &mut Box<dyn FrameTransport>, frame: ClientFrame| {
            t.send(&frame.encode().unwrap()).unwrap();
            recv(t)
        };
        let hello = ClientFrame::Hello {
            scene: "fig1".into(),
            backend: None,
        };
        assert!(matches!(
            exchange(&mut t, hello),
            ServerFrame::Welcome { .. }
        ));
        assert!(matches!(recv(&mut t), ServerFrame::Keyframe { .. }));
        let key = ClientFrame::Step(ScriptStep::Event(WindowEvent::ch('a')));
        assert!(matches!(exchange(&mut t, key), ServerFrame::Update { .. }));
        // 20 ms ticks: the third crosses the 50 ms horizon, and its
        // frame is followed by the goodbye.
        for _ in 0..3 {
            let frame = exchange(&mut t, ClientFrame::Step(tick(20)));
            assert!(matches!(frame, ServerFrame::Update { .. }));
        }
        let idle = ServerFrame::Bye {
            reason: "idle".into(),
        };
        assert_eq!(recv(&mut t), idle);
    });
    wait_until("eviction counted", || {
        server.merged_snapshot().counter("serve.idle_evictions") == 1
    });
    server.shutdown_shards();
}

/// Threads of this process whose name starts with `prefix`.
#[cfg(target_os = "linux")]
fn threads_named(prefix: &str) -> usize {
    std::fs::read_dir("/proc/self/task")
        .unwrap()
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .filter(|comm| comm.starts_with(prefix))
        .count()
}

/// Dropping the last `Arc<Server>` rings every parked shard, and each
/// one exits.
#[cfg(target_os = "linux")]
#[test]
fn dropping_the_server_ends_parked_shards() {
    let _serial = serial();
    wait_until("earlier tests' shards gone", || {
        threads_named("atk-shard-") == 0
    });
    let server = Server::start(ServerConfig::default(), 3);
    let t = server.connect_mem(None).unwrap();
    within("one session", move || {
        let mut client = ServeClient::connect(t, "fig1").unwrap();
        client.step_sync(&tick(1)).unwrap();
        client.finish().unwrap();
    });
    // `std` names a thread from inside it, so a shard the OS has not
    // run yet still shows its spawner's name: wait for all three.
    wait_until("every shard thread named", || {
        threads_named("atk-shard-") == 3
    });
    drop(server);
    wait_until("every shard thread exited", || {
        threads_named("atk-shard-") == 0
    });
}

/// TCP reader threads are pooled: back-to-back sessions reuse one, so
/// 50 of them leave at most two readers, all idle.
#[test]
fn tcp_readers_are_reused_across_connections() {
    let _serial = serial();
    let server = Server::start(ServerConfig::default(), 1);
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    for _ in 0..50 {
        let t = connect_tcp(&server, &listener);
        within("tcp session", move || {
            let mut client = ServeClient::connect(t, "fig1").unwrap();
            client.step_sync(&tick(1)).unwrap();
            client.finish().unwrap();
        });
    }
    server.shutdown_shards();
    wait_until("every reader back in the pool", || {
        let pool = reader_pool_stats();
        pool.idle == pool.threads
    });
    let pool = reader_pool_stats();
    assert!(pool.idle <= 2, "{pool:?}");
    #[cfg(target_os = "linux")]
    assert_eq!(threads_named("atk-tcp-reader"), pool.threads);
}
