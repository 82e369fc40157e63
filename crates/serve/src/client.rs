//! A small blocking client for the line protocol.
//!
//! Shared by the integration tests, the load harness, and the README's
//! example session. The client mirrors the server's id assignment
//! (connection-local, dense, in submission order), supports pipelining
//! (submit many, then read events), and buffers out-of-interest events
//! so interleaved streams can be consumed selectively.

use std::collections::VecDeque;
use std::io::{BufReader, BufWriter, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::sync::Arc;

use mcs_core::engine::RunPlan;

use crate::protocol::{
    read_frame, FrameError, Priority, ProtoError, RejectReason, Request, Response, Source,
    StatsSnapshot,
};
use crate::result::ServedResult;

/// Client-side failure.
#[derive(Debug)]
pub enum ClientError {
    /// Socket-level failure (or server hangup mid-stream).
    Io(std::io::Error),
    /// The server sent a frame this client cannot decode.
    Proto(ProtoError),
    /// The server reported a decode failure for one of our frames.
    Remote(String),
    /// The awaited submission was refused.
    Rejected(RejectReason),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "io: {e}"),
            ClientError::Proto(e) => write!(f, "protocol: {e}"),
            ClientError::Remote(d) => write!(f, "server error: {d}"),
            ClientError::Rejected(r) => write!(f, "rejected: {r}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Io(e)
    }
}

/// A blocking connection to an `mcs serve` instance.
pub struct Client {
    writer: BufWriter<TcpStream>,
    reader: BufReader<TcpStream>,
    /// `read_frame`'s line buffer, reused across events.
    frame: Vec<u8>,
    pending: VecDeque<Response>,
    next_id: u64,
}

impl Client {
    /// Connect to a running server.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        // Nagle off, so pipelined submits never wait on the server's
        // ACKs; `send` already writes one whole frame per flush.
        stream.set_nodelay(true)?;
        let write_half = stream.try_clone()?;
        Ok(Client {
            writer: BufWriter::new(write_half),
            reader: BufReader::new(stream),
            frame: Vec::new(),
            pending: VecDeque::new(),
            next_id: 0,
        })
    }

    fn send(&mut self, req: &Request) -> std::io::Result<()> {
        writeln!(self.writer, "{}", req.to_line())?;
        self.writer.flush()
    }

    /// Submit a plan; returns the connection-local id its events will
    /// carry. Pipelines freely — read events later.
    pub fn submit(
        &mut self,
        plan: &RunPlan,
        priority: Priority,
        progress: bool,
    ) -> std::io::Result<u64> {
        self.send(&Request::Submit {
            plan: Box::new(plan.clone()),
            priority,
            progress,
        })?;
        let id = self.next_id;
        self.next_id += 1;
        Ok(id)
    }

    /// Next event from the server (buffered events first).
    pub fn next_event(&mut self) -> Result<Response, ClientError> {
        if let Some(r) = self.pending.pop_front() {
            return Ok(r);
        }
        self.read_event()
    }

    /// Next event straight off the socket, never consulting `pending`.
    /// `wait_event` loops on this: anything it buffers must stay
    /// buffered until a *matching* wait, or the loop would pop and
    /// re-buffer the same event forever.
    fn read_event(&mut self) -> Result<Response, ClientError> {
        loop {
            // Uncapped: the server is the trusted end, and a valid
            // result frame grows with the plan's batch count.
            let line = match read_frame(&mut self.reader, &mut self.frame, usize::MAX) {
                Ok(Some(line)) => line,
                Ok(None) => {
                    return Err(ClientError::Io(std::io::Error::new(
                        std::io::ErrorKind::UnexpectedEof,
                        "server closed the connection",
                    )))
                }
                Err(FrameError::Io(e)) => return Err(ClientError::Io(e)),
                Err(e) => {
                    return Err(ClientError::Proto(ProtoError::Corrupt {
                        detail: e.to_string(),
                    }))
                }
            };
            if line.trim().is_empty() {
                continue;
            }
            return Response::parse(line).map_err(ClientError::Proto);
        }
    }

    /// Read events until one matches `pred`, buffering unrelated
    /// terminal events (`Result`/`Rejected`/`Stats`) for later waits.
    /// Status events (`Accepted`, `Progress`) that don't match are
    /// discarded — observe those through [`Client::next_event`].
    fn wait_event<F: Fn(&Response) -> bool>(&mut self, pred: F) -> Result<Response, ClientError> {
        if let Some(pos) = self.pending.iter().position(&pred) {
            return Ok(self.pending.remove(pos).expect("position just found"));
        }
        loop {
            let event = self.read_event()?;
            if pred(&event) {
                return Ok(event);
            }
            match event {
                Response::Error { detail } => return Err(ClientError::Remote(detail)),
                Response::Accepted { .. } | Response::Progress { .. } => {}
                other => self.pending.push_back(other),
            }
        }
    }

    /// Read events until submission `id`'s terminal event, buffering
    /// terminal events of other submissions.
    pub fn wait_result(&mut self, id: u64) -> Result<(Source, Arc<ServedResult>), ClientError> {
        let event = self.wait_event(|e| {
            matches!(
                e,
                Response::Result { id: rid, .. } | Response::Rejected { id: rid, .. }
                if *rid == id
            )
        })?;
        match event {
            Response::Result { source, result, .. } => Ok((source, result)),
            Response::Rejected { reason, .. } => Err(ClientError::Rejected(reason)),
            _ => unreachable!("wait_event predicate admits only result/rejected"),
        }
    }

    /// Submit and block for the result (the one-shot path).
    pub fn run(
        &mut self,
        plan: &RunPlan,
        priority: Priority,
    ) -> Result<(Source, Arc<ServedResult>), ClientError> {
        let id = self.submit(plan, priority, false)?;
        self.wait_result(id)
    }

    /// Fetch a statistics snapshot (buffers unrelated events).
    pub fn stats(&mut self) -> Result<StatsSnapshot, ClientError> {
        self.send(&Request::Stats)?;
        match self.wait_event(|e| matches!(e, Response::Stats(_)))? {
            Response::Stats(s) => Ok(s),
            _ => unreachable!("wait_event predicate admits only stats"),
        }
    }
}
