//! `Acceptor`: the one TCP accept loop behind the loopback shard server
//! and the progressive retrieval server — a thread per connection, a
//! shutdown latch the handlers poll, and join on drop. Each server keeps
//! its own connection handler and idle policy.

use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

/// The shutdown flag an [`Acceptor`] shares with its connections.
#[derive(Debug, Clone, Default)]
pub struct ShutdownLatch(Arc<AtomicBool>);

impl ShutdownLatch {
    /// Whether shutdown has been requested.
    pub fn is_set(&self) -> bool {
        // ORDERING: a latch that guards no data and only has to be seen
        // eventually; `Acceptor::shutdown`'s throwaway connection forces
        // the accept loop around to read it.
        self.0.load(Ordering::Relaxed)
    }
}

/// A running accept loop; dropping it (or calling
/// [`shutdown`](Self::shutdown)) stops accepting and joins the thread.
#[derive(Debug)]
pub struct Acceptor {
    latch: ShutdownLatch,
    addr: SocketAddr,
    thread: Option<JoinHandle<()>>,
}

impl Acceptor {
    /// Accept on `listener`, running `handle(stream, latch)` on a thread
    /// per connection; handlers return once the latch is set.
    pub fn spawn<H>(listener: TcpListener, handle: H) -> std::io::Result<Acceptor>
    where
        H: Fn(TcpStream, &ShutdownLatch) + Send + Sync + 'static,
    {
        let addr = listener.local_addr()?;
        let latch = ShutdownLatch::default();
        let (accept_latch, handle) = (latch.clone(), Arc::new(handle));
        let thread = std::thread::spawn(move || {
            for stream in listener.incoming() {
                if accept_latch.is_set() {
                    break;
                }
                let Ok(stream) = stream else { continue };
                let (handle, latch) = (Arc::clone(&handle), accept_latch.clone());
                std::thread::spawn(move || handle(stream, &latch));
            }
        });
        Ok(Acceptor {
            latch,
            addr,
            thread: Some(thread),
        })
    }

    /// The bound address (with the actual port when `0` was asked).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Block until the accept loop ends.
    pub fn wait(&mut self) {
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }

    /// Stop accepting connections; in-flight ones see the latch at their
    /// next poll.
    pub fn shutdown(&mut self) {
        // ORDERING: as in `ShutdownLatch::is_set`.
        if self.latch.0.swap(true, Ordering::Relaxed) {
            return;
        }
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        self.wait();
    }
}

impl Drop for Acceptor {
    fn drop(&mut self) {
        self.shutdown();
    }
}
