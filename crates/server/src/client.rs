//! A blocking client for the progressive retrieval protocol.
//!
//! One [`ProgressiveClient`] owns one connection and runs one request
//! at a time (the protocol is strictly request → response-stream).
//! Pull frames one by one with [`next_event`](ProgressiveClient::next_event)
//! to refine interactively, or drain a whole stream with
//! [`query`](ProgressiveClient::query). Server-side refusals arrive as
//! typed [`RejectHeader`] values, not transport errors.

use crate::protocol::{
    kind, response_limits, ApproxHeader, QueryRequest, RejectHeader, StatsReply, WireFloat,
};
use hpmdr_netstore::wire::{self, WireError};
use hpmdr_netstore::{Frame, FrameLimits};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Instant;

/// Why a client call failed (transport or protocol violation — *not*
/// a server-side refusal, which is a [`RejectHeader`] value).
#[derive(Debug)]
pub enum ClientError {
    /// The transport failed or a frame was malformed at the wire layer.
    Wire(WireError),
    /// The server answered with something the protocol does not allow
    /// here (wrong kind, undecodable header, ragged payload).
    Protocol(String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Wire(e) => write!(f, "wire: {e}"),
            ClientError::Protocol(m) => write!(f, "protocol: {m}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<WireError> for ClientError {
    fn from(e: WireError) -> Self {
        ClientError::Wire(e)
    }
}

/// One server→client message within a query stream.
#[derive(Debug, Clone, PartialEq)]
pub enum ServerEvent<F> {
    /// A refinement frame (decoded payload included).
    Frame(ApproxFrame<F>),
    /// A typed refusal; the stream is over.
    Reject(RejectHeader),
}

/// A decoded [`kind::APPROX`] frame.
#[derive(Debug, Clone, PartialEq)]
pub struct ApproxFrame<F> {
    /// The frame header.
    pub header: ApproxHeader,
    /// The dense values, row-major in `header.shape`.
    pub data: Vec<F>,
}

/// How a drained query ended.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryOutcome<F> {
    /// All frames of the stream, coarse to final (never empty; the last
    /// frame has `is_final = true`).
    Frames(Vec<ApproxFrame<F>>),
    /// The server refused the request (possibly after some frames,
    /// e.g. a strict query that ran the archive dry).
    Rejected(RejectHeader),
}

/// A connected protocol client; see the [module docs](self).
pub struct ProgressiveClient {
    stream: TcpStream,
    limits: FrameLimits,
}

impl ProgressiveClient {
    /// Connect to a server at `addr`.
    pub fn connect(addr: impl ToSocketAddrs) -> std::io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(ProgressiveClient {
            stream,
            limits: response_limits(),
        })
    }

    /// Send a query request. Follow with
    /// [`next_event`](Self::next_event) until a final frame or reject.
    pub fn send_query(&mut self, req: &QueryRequest, deadline: Instant) -> Result<(), ClientError> {
        let header = serde_json::to_vec(req)
            .map_err(|e| ClientError::Protocol(format!("encode request: {e}")))?;
        wire::write_frame(&mut self.stream, &Frame::new(kind::QUERY, header), deadline)?;
        Ok(())
    }

    /// Read the next server message of an in-flight query stream.
    pub fn next_event<F: WireFloat>(
        &mut self,
        deadline: Instant,
    ) -> Result<ServerEvent<F>, ClientError> {
        let frame = wire::read_frame(&mut self.stream, &self.limits, deadline)?
            .ok_or_else(|| ClientError::Protocol("server closed mid-stream".to_string()))?;
        match frame.kind {
            kind::APPROX => {
                let header: ApproxHeader = serde_json::from_slice(&frame.header)
                    .map_err(|e| ClientError::Protocol(format!("approx header: {e}")))?;
                if header.dtype != F::DTYPE {
                    return Err(ClientError::Protocol(format!(
                        "stream dtype {} but decoding {}",
                        header.dtype,
                        F::DTYPE
                    )));
                }
                let data = F::read_le(&frame.payload).ok_or_else(|| {
                    ClientError::Protocol(format!(
                        "ragged payload: {} bytes for {}",
                        frame.payload.len(),
                        F::DTYPE
                    ))
                })?;
                let expect: usize = header.shape.iter().product();
                if data.len() != expect {
                    return Err(ClientError::Protocol(format!(
                        "payload holds {} values, shape {:?} needs {expect}",
                        data.len(),
                        header.shape
                    )));
                }
                Ok(ServerEvent::Frame(ApproxFrame { header, data }))
            }
            kind::REJECT => {
                let reject: RejectHeader = serde_json::from_slice(&frame.header)
                    .map_err(|e| ClientError::Protocol(format!("reject header: {e}")))?;
                Ok(ServerEvent::Reject(reject))
            }
            other => Err(ClientError::Protocol(format!(
                "unexpected frame kind {other} in a query stream"
            ))),
        }
    }

    /// Send `req` and drain the whole refinement stream.
    pub fn query<F: WireFloat>(
        &mut self,
        req: &QueryRequest,
        deadline: Instant,
    ) -> Result<QueryOutcome<F>, ClientError> {
        self.send_query(req, deadline)?;
        let mut frames = Vec::new();
        loop {
            match self.next_event::<F>(deadline)? {
                ServerEvent::Reject(r) => return Ok(QueryOutcome::Rejected(r)),
                ServerEvent::Frame(f) => {
                    let last = f.header.is_final;
                    frames.push(f);
                    if last {
                        return Ok(QueryOutcome::Frames(frames));
                    }
                }
            }
        }
    }

    /// Ask the server for its registry / cache / admission counters.
    pub fn stats(&mut self, deadline: Instant) -> Result<StatsReply, ClientError> {
        wire::write_frame(
            &mut self.stream,
            &Frame::new(kind::STATS, Vec::new()),
            deadline,
        )?;
        let frame = wire::read_frame(&mut self.stream, &self.limits, deadline)?
            .ok_or_else(|| ClientError::Protocol("server closed before stats".to_string()))?;
        match frame.kind {
            kind::STATS_REPLY => serde_json::from_slice(&frame.header)
                .map_err(|e| ClientError::Protocol(format!("stats header: {e}"))),
            kind::REJECT => {
                let reject: RejectHeader = serde_json::from_slice(&frame.header)
                    .map_err(|e| ClientError::Protocol(format!("reject header: {e}")))?;
                Err(ClientError::Protocol(format!(
                    "stats rejected: {:?}: {}",
                    reject.code, reject.message
                )))
            }
            other => Err(ClientError::Protocol(format!(
                "unexpected frame kind {other} answering stats"
            ))),
        }
    }
}
