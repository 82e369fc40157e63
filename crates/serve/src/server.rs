//! The TCP front end: a hand-rolled `std::net` accept loop speaking
//! the newline-delimited protocol.
//!
//! Each connection gets a reader thread (parses request lines, submits
//! to the shared scheduler) and a writer thread (serializes every
//! [`Response`] from a per-connection channel to the socket). The
//! channel is the serialization point: scheduler workers, the fanout
//! progress observer, and the reader all send into it, so response
//! lines never interleave mid-frame no matter how many jobs stream
//! progress to one pipelined connection.
//!
//! Nagle is off (`TCP_NODELAY`). The writer flushes every frame, so a
//! cache hit is two small segments, `Accepted` then `Result`; with
//! Nagle on, the second waited ~40 ms for the peer's delayed ACK.

use std::io::{BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::sync::Arc;
use std::thread::JoinHandle;

use crate::protocol::{read_frame, FrameError, Request, Response, MAX_FRAME_BYTES};
use crate::scheduler::{Scheduler, ServeConfig, Subscriber};

/// A running plan-execution service.
pub struct Server {
    scheduler: Arc<Scheduler>,
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
}

impl Server {
    /// Bind `addr` (use port 0 for an ephemeral test port) and start
    /// accepting connections over a fresh scheduler.
    pub fn bind<A: ToSocketAddrs>(addr: A, cfg: ServeConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let scheduler = Arc::new(Scheduler::new(cfg));
        let stop = Arc::new(AtomicBool::new(false));
        let accept = {
            let scheduler = scheduler.clone();
            let stop = stop.clone();
            std::thread::spawn(move || {
                for stream in listener.incoming() {
                    if stop.load(Ordering::SeqCst) {
                        return;
                    }
                    let Ok(stream) = stream else { continue };
                    let scheduler = scheduler.clone();
                    // Connection threads are detached: they exit when
                    // the peer hangs up, and the scheduler they share
                    // outlives them through the Arc.
                    std::thread::spawn(move || handle_connection(stream, &scheduler));
                }
            })
        };
        Ok(Server {
            scheduler,
            addr,
            stop,
            accept: Some(accept),
        })
    }

    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shared scheduler (tests drive `pause`/`resume`/`stats`
    /// through this; the CLI prints its snapshot).
    pub fn scheduler(&self) -> &Arc<Scheduler> {
        &self.scheduler
    }

    /// Block forever serving requests (the CLI foreground mode).
    pub fn join(mut self) {
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
    }

    /// Stop accepting, drain the scheduler (in-flight jobs complete),
    /// and join the accept thread.
    pub fn shutdown(mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // Poke the blocking accept() so the loop observes the flag.
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        self.scheduler.shutdown();
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
    }
}

fn handle_connection(stream: TcpStream, scheduler: &Arc<Scheduler>) {
    // The write half shares the socket, so it shares TCP_NODELAY.
    let Ok(write_half) = stream.set_nodelay(true).and_then(|()| stream.try_clone()) else {
        return;
    };
    let (tx, rx) = mpsc::channel::<Response>();
    let writer = std::thread::spawn(move || {
        let mut out = BufWriter::new(write_half);
        for resp in rx {
            if writeln!(out, "{}", resp.to_line()).is_err() || out.flush().is_err() {
                return;
            }
        }
    });

    let mut reader = BufReader::new(stream);
    let mut buf = Vec::new();
    let mut next_id: u64 = 0;
    loop {
        let line = match read_frame(&mut reader, &mut buf, MAX_FRAME_BYTES) {
            Ok(Some(line)) => line,
            Ok(None) | Err(FrameError::Io(_)) => break,
            Err(e @ FrameError::NotUtf8) => {
                let _ = tx.send(Response::Error {
                    detail: e.to_string(),
                });
                continue;
            }
            Err(e @ FrameError::TooLong { .. }) => {
                // Report the cap, then hang up: there is no newline to
                // resynchronise on.
                let _ = tx.send(Response::Error {
                    detail: e.to_string(),
                });
                break;
            }
        };
        if line.trim().is_empty() {
            continue;
        }
        match Request::parse(line) {
            Err(e) => {
                // Typed decode failure: report and keep the
                // connection alive — one bad frame must not kill a
                // pipelined stream of good ones.
                let _ = tx.send(Response::Error {
                    detail: e.to_string(),
                });
            }
            Ok(Request::Stats) => {
                let _ = tx.send(Response::Stats(scheduler.stats()));
            }
            Ok(Request::Submit {
                plan,
                priority,
                progress,
            }) => {
                let id = next_id;
                next_id += 1;
                let sub = Subscriber {
                    id,
                    progress,
                    tx: tx.clone(),
                };
                // All Accepted/Rejected/Result responses are sent by
                // the scheduler itself, ordered under its state lock.
                let _ = scheduler.submit(*plan, priority, sub);
            }
        }
    }
    // Reader done: drop our sender; the writer drains pending events
    // (workers may still hold subscriber senders for in-flight jobs —
    // the writer exits once the last one resolves or the socket dies).
    drop(tx);
    let _ = writer.join();
}

/// Convenience for `mcs serve`: bind, announce, and serve forever.
pub fn serve_forever<A: ToSocketAddrs>(addr: A, cfg: ServeConfig) -> std::io::Result<()> {
    let server = Server::bind(addr, cfg)?;
    println!(
        "mcs-serve listening on {} ({} workers, queue cap {}, cache cap {})",
        server.local_addr(),
        cfg.workers.max(1),
        cfg.queue_cap,
        cfg.cache_cap
    );
    server.join();
    Ok(())
}
