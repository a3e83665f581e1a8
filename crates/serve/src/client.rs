//! A small blocking client for the daemon, used by the test and bench
//! harnesses (and usable as a library API).
//!
//! The client is deliberately thin: it frames requests, decodes responses,
//! and exposes the raw byte path so robustness tests can send malformed
//! frames.  Pipelining is supported by cloning the socket into independent
//! send and receive halves ([`ServeClient::try_clone`]).

use crate::transport::Stream;
use crate::wire::{
    encode_request, read_frame, write_frame, Request, Response, StatsSnapshot, WireError,
    DEFAULT_MAX_FRAME,
};
use ccchecker::DecodeError;
use std::io::{self, Write};
use std::net::SocketAddr;

/// A blocking connection to a `ccserve` daemon.
pub struct ServeClient {
    stream: Stream,
}

impl ServeClient {
    /// Connects over TCP.
    pub fn connect_tcp(addr: SocketAddr) -> io::Result<ServeClient> {
        Ok(ServeClient {
            stream: Stream::connect_tcp(addr)?,
        })
    }

    /// Connects over a Unix-domain socket.
    #[cfg(unix)]
    pub fn connect_unix(path: &std::path::Path) -> io::Result<ServeClient> {
        Ok(ServeClient {
            stream: Stream::connect_unix(path)?,
        })
    }

    /// An independent handle onto the same connection (e.g. one half
    /// sending, the other receiving).
    pub fn try_clone(&self) -> io::Result<ServeClient> {
        Ok(ServeClient {
            stream: self.stream.try_clone()?,
        })
    }

    /// Sends one request frame without waiting for the response.
    pub fn send(&mut self, req: &Request) -> io::Result<()> {
        write_frame(&mut self.stream, &encode_request(req))
    }

    /// Sends raw payload bytes as one (correctly framed) frame — for
    /// robustness tests that need syntactically valid frames with garbage
    /// inside.
    pub fn send_raw_payload(&mut self, payload: &[u8]) -> io::Result<()> {
        write_frame(&mut self.stream, payload)
    }

    /// Writes raw bytes directly to the socket, bypassing framing — for
    /// robustness tests that corrupt the frame header itself.
    pub fn send_raw_bytes(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.stream.write_all(bytes)?;
        self.stream.flush()
    }

    /// Receives the next response frame.
    pub fn recv(&mut self) -> Result<Response, WireError> {
        let payload = read_frame(&mut self.stream, DEFAULT_MAX_FRAME)?;
        crate::wire::decode_response(&payload)
    }

    /// Sends a request and waits for the next response.
    pub fn request(&mut self, req: &Request) -> Result<Response, WireError> {
        self.send(req)?;
        self.recv()
    }

    /// Receives frames until a *terminal* response arrives, discarding
    /// interim ones (`Progress`, and any interleaved `Stats`/`Pong`).
    /// Returns the terminal response and how many frames were skipped.
    pub fn recv_terminal(&mut self) -> Result<(Response, u64), WireError> {
        let mut skipped = 0;
        loop {
            let resp = self.recv()?;
            if resp.is_terminal() {
                return Ok((resp, skipped));
            }
            skipped += 1;
        }
    }

    /// Liveness probe.
    pub fn ping(&mut self) -> Result<(), WireError> {
        match self.request(&Request::Ping)? {
            Response::Pong => Ok(()),
            _ => Err(DecodeError::Malformed("expected a pong").into()),
        }
    }

    /// Fetches the server counters.
    pub fn stats(&mut self) -> Result<StatsSnapshot, WireError> {
        match self.request(&Request::Stats)? {
            Response::Stats(s) => Ok(s),
            _ => Err(DecodeError::Malformed("expected a stats snapshot").into()),
        }
    }

    /// Closes both socket directions (an explicit disconnect).
    pub fn disconnect(self) {
        self.stream.shutdown_both();
    }
}
