//! Bounded request-line reading, shared by the server's and the router's
//! connection readers.

use std::io::{self, BufRead, BufReader, Read};

/// The longest request line (newline excluded) a connection reader
/// buffers: 16 MiB. The CLI and the benchmark send a few KB a line; every
/// node id of a 700k-node network as `p` is about 5 MB.
pub const MAX_LINE_BYTES: usize = 16 << 20;

/// What [`LineReader::next_line`] read.
#[derive(Debug, PartialEq, Eq)]
pub enum Line<'a> {
    /// One request line, newline stripped (a last line cut off by EOF
    /// counts too).
    Request(&'a str),
    /// A line that cannot be a request, skipped through its newline; the
    /// text is the `error` to reply with.
    Rejected(String),
    /// The peer closed the connection.
    Closed,
}

/// Splits a byte stream into request lines of at most `limit` bytes,
/// buffering at most one byte more: a longer line is dropped as it
/// arrives, up to its newline, and reported as [`Line::Rejected`].
pub struct LineReader<R> {
    inner: BufReader<R>,
    limit: usize,
    buf: Vec<u8>,
    /// `buf` holds the line returned last; clear it before reading on.
    returned: bool,
    /// The current line passed `limit`: drop bytes through its newline.
    skipping: bool,
}

impl<R: Read> LineReader<R> {
    pub fn new(inner: R, limit: usize) -> Self {
        LineReader {
            inner: BufReader::new(inner),
            limit,
            buf: Vec::new(),
            returned: false,
            skipping: false,
        }
    }

    /// The next line. A read error (a read timeout included) leaves a
    /// partial line buffered, and the next call resumes it.
    pub fn next_line(&mut self) -> io::Result<Line<'_>> {
        if std::mem::take(&mut self.returned) {
            self.buf.clear();
        }
        if !self.skipping {
            // Room for the rest of a line at the limit and its newline.
            let room = (self.limit + 1 - self.buf.len()) as u64;
            (&mut self.inner)
                .take(room)
                .read_until(b'\n', &mut self.buf)?;
            // Short of the limit with no newline means EOF cut the line.
            if self.buf.last() == Some(&b'\n') || self.buf.len() <= self.limit {
                if self.buf.is_empty() {
                    return Ok(Line::Closed);
                }
                self.returned = true;
                let line = self.buf.strip_suffix(b"\n").unwrap_or(&self.buf);
                return Ok(match std::str::from_utf8(line) {
                    Ok(line) => Line::Request(line),
                    Err(_) => Line::Rejected("request line is not UTF-8".to_string()),
                });
            }
            // Past the limit with no newline: drop what is held.
            self.buf = Vec::new();
            self.skipping = true;
        }
        loop {
            let chunk = self.inner.fill_buf()?;
            if chunk.is_empty() {
                return Ok(Line::Closed);
            }
            if let Some(i) = chunk.iter().position(|&b| b == b'\n') {
                self.inner.consume(i + 1);
                break;
            }
            let n = chunk.len();
            self.inner.consume(n);
        }
        self.skipping = false;
        Ok(Line::Rejected(format!(
            "request line longer than the {}-byte limit",
            self.limit
        )))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every event a reader with a `limit`-byte cap yields for `input`.
    fn lines(input: &[u8], limit: usize) -> Vec<String> {
        let mut reader = LineReader::new(input, limit);
        let mut out = Vec::new();
        loop {
            match reader.next_line().unwrap() {
                Line::Request(line) => out.push(format!("request {line}")),
                Line::Rejected(error) => out.push(format!("rejected {error}")),
                Line::Closed => return out,
            }
        }
    }

    #[test]
    fn a_line_at_the_limit_passes_and_one_past_it_is_skipped() {
        let too_long = "rejected request line longer than the 4-byte limit";
        assert_eq!(
            lines(b"abcd\nabcde\nxy\n\nabcdefghij\nlast", 4),
            [
                "request abcd",
                too_long,
                "request xy",
                "request ",
                too_long,
                "request last",
            ]
        );
        assert_eq!(
            lines(b"abcdefgh", 4),
            Vec::<String>::new(),
            "cut off by EOF"
        );
    }

    #[test]
    fn a_line_that_is_not_utf8_is_rejected_and_reading_goes_on() {
        assert_eq!(
            lines(b"\xff\xfe\nok\n", 16),
            ["rejected request line is not UTF-8", "request ok"]
        );
    }

    /// A read that times out mid-line keeps the bytes read so far, and a
    /// multi-byte character split across the timeout survives intact.
    #[test]
    fn a_timeout_mid_line_resumes_where_it_stopped() {
        struct Chunks(Vec<&'static [u8]>);
        impl Read for Chunks {
            fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
                if self.0.is_empty() {
                    return Ok(0);
                }
                let chunk = self.0.remove(0);
                if chunk.is_empty() {
                    return Err(io::ErrorKind::WouldBlock.into());
                }
                out[..chunk.len()].copy_from_slice(chunk);
                Ok(chunk.len())
            }
        }
        let input = Chunks(vec![b"{\"id\":\"\xc3", b"", b"\xa9\"}\n"]);
        let mut reader = LineReader::new(input, 64);
        let err = reader.next_line().unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::WouldBlock);
        assert_eq!(reader.next_line().unwrap(), Line::Request("{\"id\":\"é\"}"));
        assert_eq!(reader.next_line().unwrap(), Line::Closed);
    }
}
