//! The server under test, hosted in-process exactly as `served` runs
//! it: `Server` with the default `ServerConfig`, accepting loopback TCP
//! through `serve_listener_sharded` onto worker shards.

use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use atk_serve::{serve_listener_sharded, ServeClient, Server, ServerConfig, TcpTransport};
use atk_trace::{Collector, Snapshot};

/// Worker shards: one per CPU of the 2-CPU host the bounds were set on.
pub const SHARDS: usize = 2;

/// Scenes whose templates the warm-up builds on every shard.
const WARM_SCENES: [&str; 2] = ["fig5", "fig2"];

/// How long to wait for every shard to close its connections.
const QUIESCE_LIMIT: Duration = Duration::from_secs(10);

/// A running server plus the address it listens on.
pub struct Host {
    server: Arc<Server>,
    addr: SocketAddr,
}

impl Host {
    /// Starts the server and its acceptor. The acceptor thread blocks
    /// in `accept` for the life of the process, as `served`'s does;
    /// [`Host::shutdown`] stops and joins the shards that do the work.
    pub fn start() -> Result<Host, String> {
        let collector = Arc::new(Collector::new());
        collector.enable();
        let server = Server::new(ServerConfig::default(), collector);
        let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
        let addr = listener.local_addr().map_err(|e| e.to_string())?;
        let srv = Arc::clone(&server);
        thread::Builder::new()
            .name("perfbench-acceptor".into())
            .spawn(move || {
                if let Err(e) = serve_listener_sharded(srv, listener, SHARDS) {
                    eprintln!("perfbench: acceptor stopped: {e}");
                }
            })
            .map_err(|e| format!("spawn acceptor: {e}"))?;
        Ok(Host { server, addr })
    }

    /// A fresh loopback connection to the server.
    pub fn connect(&self) -> Result<TcpTransport, String> {
        TcpStream::connect(self.addr)
            .map(TcpTransport::new)
            .map_err(|e| format!("connect {}: {e}", self.addr))
    }

    /// Builds every shard's fig5 and fig2 templates by holding one
    /// session per shard open at a time (least-loaded admission puts
    /// the second on the other shard), then checks that exactly one
    /// template per shard and scene was built.
    pub fn warm_up(&self) -> Result<(), String> {
        for scene in WARM_SCENES {
            let clients = (0..SHARDS)
                .map(|_| ServeClient::connect(self.connect()?, scene).map_err(|e| e.to_string()))
                .collect::<Result<Vec<_>, String>>()?;
            for c in clients {
                c.finish().map_err(|e| e.to_string())?;
            }
            self.quiesce()?;
        }
        let builds = self.snapshot().counter("world.template_builds");
        let want = (SHARDS * WARM_SCENES.len()) as u64;
        if builds != want {
            return Err(format!(
                "warm-up built {builds} templates, expected {want}: a shard was skipped"
            ));
        }
        Ok(())
    }

    /// Waits until no shard holds a connection, so the next admission
    /// sees true shard loads.
    fn quiesce(&self) -> Result<(), String> {
        let started = Instant::now();
        while self.server.shard_loads().iter().any(|&n| n > 0) {
            if started.elapsed() > QUIESCE_LIMIT {
                return Err(format!(
                    "shards still busy after {QUIESCE_LIMIT:?}: {:?}",
                    self.server.shard_loads()
                ));
            }
            thread::sleep(Duration::from_micros(200));
        }
        Ok(())
    }

    /// The server-wide merged stats snapshot.
    pub fn snapshot(&self) -> Snapshot {
        self.server.merged_snapshot()
    }

    /// Stops and joins the shards; counters stay readable through
    /// [`Host::snapshot`].
    pub fn shutdown(&self) {
        self.server.shutdown_shards();
    }
}
