//! A small blocking client for the line protocol, used by the router's
//! upstream pools, `fannr update`, the integration tests, and
//! anyone scripting against the server.

use std::io::{self, BufRead, BufReader, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

use crate::protocol::{Request, Response};

/// The write half of a split connection (see [`Client::split`]).
pub struct ClientWriter {
    stream: TcpStream,
}

impl ClientWriter {
    pub fn send(&mut self, req: &Request) -> io::Result<()> {
        self.send_raw(&req.to_json())
    }

    /// Write one raw line (for driving the server with malformed input).
    /// Line and newline go out in one write: one segment, one wake-up of
    /// the reader on the other end.
    pub fn send_raw(&mut self, line: &str) -> io::Result<()> {
        self.stream.write_all(format!("{line}\n").as_bytes())?;
        self.stream.flush()
    }
}

/// The read half of a split connection (see [`Client::split`]).
pub struct ClientReader {
    reader: BufReader<TcpStream>,
}

impl ClientReader {
    /// Read and parse the next response line.
    pub fn recv(&mut self) -> io::Result<Response> {
        let mut line = String::new();
        loop {
            match self.reader.read_line(&mut line) {
                Ok(0) => {
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "server closed the connection",
                    ))
                }
                Ok(_) => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        Response::parse(line.trim()).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
    }
}

/// One connection speaking the line protocol. Requests may be pipelined:
/// call [`Client::send`] repeatedly, then [`Client::recv`] each response
/// (match them up by `id`). For concurrent pipelining from two threads,
/// [`Client::split`] separates the halves.
pub struct Client {
    reader: ClientReader,
    writer: ClientWriter,
}

impl Client {
    pub fn connect<A: ToSocketAddrs>(addr: A) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        let writer = ClientWriter {
            stream: stream.try_clone()?,
        };
        Ok(Client {
            reader: ClientReader {
                reader: BufReader::new(stream),
            },
            writer,
        })
    }

    /// Bound how long [`Client::recv`] waits for a response line.
    pub fn set_read_timeout(&self, timeout: Option<Duration>) -> io::Result<()> {
        self.reader.reader.get_ref().set_read_timeout(timeout)
    }

    pub fn send(&mut self, req: &Request) -> io::Result<()> {
        self.writer.send(req)
    }

    /// Write one raw line (for driving the server with malformed input).
    pub fn send_raw(&mut self, line: &str) -> io::Result<()> {
        self.writer.send_raw(line)
    }

    /// Read and parse the next response line.
    pub fn recv(&mut self) -> io::Result<Response> {
        self.reader.recv()
    }

    /// Send one request and wait for its response.
    pub fn call(&mut self, req: &Request) -> io::Result<Response> {
        self.send(req)?;
        self.recv()
    }

    /// Split into independently owned read/write halves (one socket
    /// underneath), so a paced writer thread and a response reader can
    /// run concurrently.
    pub fn split(self) -> (ClientReader, ClientWriter) {
        (self.reader, self.writer)
    }
}
