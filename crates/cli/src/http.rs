//! Minimal HTTP/1.1 framing shared by `xic serve` and the bench load
//! generator.
//!
//! Both sides of the daemon speak the same tiny dialect — request/status
//! line, headers, `Content-Length`-framed bodies, `Connection:
//! keep-alive` reuse — so the parser and serializer live here once
//! instead of being reimplemented by the server loop and every test or
//! benchmark client. No chunked encoding, no HTTP/2: `Content-Length`
//! framing is what lets a worker serve many requests per connection
//! without ever guessing where a body ends.
//!
//! The server side is `read_request` + `write_response`; the client
//! side is [`HttpClient`], a keep-alive connection that frames requests
//! the same way and parses the response status and body back out.

use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// One parsed HTTP request: the request line, the body (already read to
/// its full `Content-Length`), and whether the client asked to keep the
/// connection open.
#[derive(Debug)]
pub(crate) struct Request {
    /// The HTTP method, as sent (`GET`, `POST`, `PUT`, `DELETE`, …).
    pub method: String,
    /// The request target (path plus optional query string).
    pub path: String,
    /// The request body, exactly `Content-Length` bytes, as UTF-8.
    pub body: String,
    /// False iff the client sent `Connection: close` (HTTP/1.1 defaults
    /// to keep-alive).
    pub keep_alive: bool,
}

/// Why [`read_request`] failed, split by what the server should do next.
#[derive(Debug)]
pub(crate) enum HttpError {
    /// Clean end of stream before any request byte: the client is done
    /// with this keep-alive connection. Not an error to report.
    Closed,
    /// The socket read timed out (a stalled or idle client). The
    /// connection should be dropped so the worker is freed.
    Timeout,
    /// The request is syntactically broken (bad request line, bad
    /// header, bad `Content-Length`, non-UTF-8 body). Answer `400`.
    Malformed(String),
    /// `Content-Length` exceeds the server's body limit. Answer `413`
    /// and close (the body was not read).
    TooLarge {
        /// The declared `Content-Length`.
        declared: usize,
        /// The server's limit.
        limit: usize,
    },
    /// Any other I/O failure mid-request; drop the connection.
    Io(String),
}

impl std::fmt::Display for HttpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HttpError::Closed => write!(f, "connection closed"),
            HttpError::Timeout => write!(f, "read timed out"),
            HttpError::Malformed(m) => write!(f, "{m}"),
            HttpError::TooLarge { declared, limit } => {
                write!(f, "body of {declared} bytes exceeds the {limit}-byte limit")
            }
            HttpError::Io(m) => write!(f, "{m}"),
        }
    }
}

/// Classifies an I/O error: timeouts become [`HttpError::Timeout`],
/// everything else [`HttpError::Io`].
fn io_error(e: std::io::Error) -> HttpError {
    match e.kind() {
        ErrorKind::WouldBlock | ErrorKind::TimedOut => HttpError::Timeout,
        _ => HttpError::Io(e.to_string()),
    }
}

/// Reads one framed HTTP/1.1 request from `reader`: request line,
/// headers (`Content-Length` and `Connection` are interpreted, the rest
/// skipped), then exactly `Content-Length` body bytes. Bodies above
/// `max_body` are rejected *before* being read, so an oversized upload
/// costs the server nothing but the header scan.
pub(crate) fn read_request<R: BufRead>(
    reader: &mut R,
    max_body: usize,
) -> Result<Request, HttpError> {
    let mut line = String::new();
    let n = reader.read_line(&mut line).map_err(io_error)?;
    if n == 0 {
        return Err(HttpError::Closed);
    }
    let mut parts = line.split_whitespace();
    let (Some(method), Some(path), Some(version)) = (parts.next(), parts.next(), parts.next())
    else {
        return Err(HttpError::Malformed(format!(
            "malformed request line {:?}",
            line.trim_end()
        )));
    };
    if !version.starts_with("HTTP/") || parts.next().is_some() {
        return Err(HttpError::Malformed(format!(
            "malformed request line {:?}",
            line.trim_end()
        )));
    }
    let (method, path) = (method.to_string(), path.to_string());
    let mut content_length = 0usize;
    let mut keep_alive = true;
    loop {
        let mut header = String::new();
        let n = reader.read_line(&mut header).map_err(io_error)?;
        if n == 0 {
            return Err(HttpError::Malformed("connection closed mid-headers".into()));
        }
        let header = header.trim_end();
        if header.is_empty() {
            break;
        }
        let Some((name, value)) = header.split_once(':') else {
            return Err(HttpError::Malformed(format!("malformed header {header:?}")));
        };
        if name.eq_ignore_ascii_case("content-length") {
            content_length = value
                .trim()
                .parse()
                .map_err(|_| HttpError::Malformed(format!("bad Content-Length {value:?}")))?;
        } else if name.eq_ignore_ascii_case("connection") {
            keep_alive = !value.trim().eq_ignore_ascii_case("close");
        }
    }
    if content_length > max_body {
        return Err(HttpError::TooLarge {
            declared: content_length,
            limit: max_body,
        });
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body).map_err(|e| {
        if matches!(io_error(e), HttpError::Timeout) {
            HttpError::Timeout
        } else {
            HttpError::Malformed("truncated body".into())
        }
    })?;
    let body =
        String::from_utf8(body).map_err(|_| HttpError::Malformed("body is not UTF-8".into()))?;
    Ok(Request {
        method,
        path,
        body,
        keep_alive,
    })
}

/// Writes one complete `Content-Length`-framed response. With
/// `keep_alive` the connection header invites reuse; otherwise it
/// announces the close the caller is about to perform.
pub(crate) fn write_response<W: Write>(
    w: &mut W,
    status: &str,
    content_type: &str,
    body: &str,
    keep_alive: bool,
) -> std::io::Result<()> {
    let connection = if keep_alive { "keep-alive" } else { "close" };
    let head = format!(
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: {connection}\r\n\r\n",
        body.len()
    );
    w.write_all(head.as_bytes())?;
    w.write_all(body.as_bytes())?;
    w.flush()
}

/// How long [`linger_close`] waits for the client to finish sending.
const LINGER_TIMEOUT: Duration = Duration::from_millis(250);

/// How many unread request bytes [`linger_close`] drains at most.
const LINGER_MAX_BYTES: usize = 1 << 20;

/// Closes a connection the server answered before reading the whole
/// request, without resetting it.
///
/// Closing a TCP socket that still holds unread input makes Linux send an
/// RST, and an RST can destroy the response the client has not read yet.
/// So: half-close the write side (the client sees the response, then
/// EOF), read and discard what the client still sends until it closes,
/// `LINGER_TIMEOUT` passes or 1 MiB is drained, and only then close.
pub(crate) fn linger_close(stream: &TcpStream) {
    if stream.shutdown(Shutdown::Write).is_err() {
        return;
    }
    let deadline = Instant::now() + LINGER_TIMEOUT;
    let mut buf = [0u8; 8192];
    let mut drained = 0usize;
    while drained < LINGER_MAX_BYTES {
        let left = deadline.saturating_duration_since(Instant::now());
        if left.is_zero() || stream.set_read_timeout(Some(left)).is_err() {
            return;
        }
        match (&*stream).read(&mut buf) {
            Ok(0) | Err(_) => return,
            Ok(n) => drained += n,
        }
    }
}

/// A keep-alive HTTP/1.1 client connection: one TCP stream reused across
/// any number of [`HttpClient::request`] calls, with responses parsed by
/// their `Content-Length`. This is the client the serve tests and the
/// e18 load generator drive — the framing mirror of `read_request`.
pub struct HttpClient {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl HttpClient {
    /// Connects to `addr`. `timeout` bounds every subsequent read so a
    /// wedged server cannot hang the client forever.
    pub fn connect(addr: SocketAddr, timeout: Duration) -> std::io::Result<Self> {
        let writer = TcpStream::connect(addr)?;
        writer.set_read_timeout(Some(timeout))?;
        writer.set_nodelay(true)?;
        let reader = BufReader::new(writer.try_clone()?);
        Ok(HttpClient { writer, reader })
    }

    /// Sends one request on the open connection and reads the complete
    /// response. Returns the numeric status code and the body.
    pub fn request(
        &mut self,
        method: &str,
        path: &str,
        body: &str,
    ) -> std::io::Result<(u16, String)> {
        let req = format!(
            "{method} {path} HTTP/1.1\r\nHost: xic\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        );
        self.writer.write_all(req.as_bytes())?;
        self.writer.flush()?;
        self.read_response()
    }

    /// Reads one framed response: status line, headers, then exactly
    /// `Content-Length` body bytes.
    fn read_response(&mut self) -> std::io::Result<(u16, String)> {
        let bad = |m: &str| std::io::Error::new(ErrorKind::InvalidData, m.to_string());
        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Err(std::io::Error::new(
                ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        let status: u16 = line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad(&format!("bad status line {line:?}")))?;
        let mut content_length = 0usize;
        loop {
            let mut header = String::new();
            if self.reader.read_line(&mut header)? == 0 {
                return Err(bad("connection closed mid-headers"));
            }
            let header = header.trim_end();
            if header.is_empty() {
                break;
            }
            if let Some((name, value)) = header.split_once(':') {
                if name.eq_ignore_ascii_case("content-length") {
                    content_length = value
                        .trim()
                        .parse()
                        .map_err(|_| bad(&format!("bad Content-Length {value:?}")))?;
                }
            }
        }
        let mut body = vec![0u8; content_length];
        self.reader.read_exact(&mut body)?;
        String::from_utf8(body)
            .map(|b| (status, b))
            .map_err(|_| bad("response body is not UTF-8"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::io::Cursor;

    fn parse(raw: &str, max: usize) -> Result<Request, HttpError> {
        read_request(&mut Cursor::new(raw.as_bytes()), max)
    }

    #[test]
    fn frames_a_request_with_body() {
        let r = parse(
            "POST /edits HTTP/1.1\r\nHost: x\r\nContent-Length: 5\r\n\r\nhello trailing-garbage",
            1024,
        )
        .unwrap();
        assert_eq!(r.method, "POST");
        assert_eq!(r.path, "/edits");
        assert_eq!(r.body, "hello");
        assert!(r.keep_alive);
    }

    #[test]
    fn connection_close_is_honoured() {
        let r = parse("GET /report HTTP/1.1\r\nConnection: close\r\n\r\n", 1024).unwrap();
        assert!(!r.keep_alive);
    }

    #[test]
    fn malformed_inputs_are_typed() {
        assert!(matches!(parse("", 10), Err(HttpError::Closed)));
        assert!(matches!(
            parse("GARBAGE\r\n\r\n", 10),
            Err(HttpError::Malformed(_))
        ));
        assert!(matches!(
            parse("GET /x HTTP/1.1 extra\r\n\r\n", 10),
            Err(HttpError::Malformed(_))
        ));
        assert!(matches!(
            parse("GET /x HTTP/1.1\r\nno-colon-here\r\n\r\n", 10),
            Err(HttpError::Malformed(_))
        ));
        assert!(matches!(
            parse("GET /x HTTP/1.1\r\nContent-Length: nope\r\n\r\n", 10),
            Err(HttpError::Malformed(_))
        ));
        assert!(matches!(
            parse("POST /x HTTP/1.1\r\nContent-Length: 99\r\n\r\nshort", 1024),
            Err(HttpError::Malformed(_))
        ));
    }

    #[test]
    fn oversized_bodies_are_rejected_before_reading() {
        match parse("POST /x HTTP/1.1\r\nContent-Length: 2048\r\n\r\n", 1024) {
            Err(HttpError::TooLarge { declared, limit }) => {
                assert_eq!((declared, limit), (2048, 1024));
            }
            other => panic!("expected TooLarge, got {other:?}"),
        }
    }

    #[test]
    fn responses_round_trip_through_the_client_parser() {
        let mut wire = Vec::new();
        write_response(&mut wire, "200 OK", "text/plain", "abc", true).unwrap();
        let s = String::from_utf8(wire).unwrap();
        assert!(s.starts_with("HTTP/1.1 200 OK\r\n"), "{s}");
        assert!(s.contains("Content-Length: 3\r\n"));
        assert!(s.contains("Connection: keep-alive\r\n"));
        assert!(s.ends_with("\r\n\r\nabc"));
        let mut wire = Vec::new();
        write_response(&mut wire, "503 Busy", "text/plain", "", false).unwrap();
        let s = String::from_utf8(wire).unwrap();
        assert!(s.contains("Connection: close\r\n"), "{s}");
    }

    /// Fragments requests are made of, plus arbitrary bytes, so random
    /// concatenations reach every branch of the parser.
    fn request_piece() -> BoxedStrategy<Vec<u8>> {
        prop_oneof![
            prop_oneof![
                Just("GET"),
                Just("POST"),
                Just(" "),
                Just("/docs/a"),
                Just("HTTP/1.1"),
                Just("\r\n"),
                Just("\n"),
                Just("Content-Length:"),
                Just("Connection: close"),
                Just(":"),
            ]
            .prop_map(|s| s.as_bytes().to_vec()),
            "[0-9]{1,25}".prop_map(String::into_bytes),
            prop::collection::vec(any::<u8>(), 1..8),
        ]
        .boxed()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1024))]

        /// Arbitrary bytes frame to a request or a typed error, never a
        /// panic, and a framed body never exceeds the limit.
        #[test]
        fn read_request_never_panics_on_arbitrary_bytes(
            pieces in prop::collection::vec(request_piece(), 0..24),
            max_body in 0usize..64,
        ) {
            let bytes = pieces.concat();
            match read_request(&mut Cursor::new(&bytes), max_body) {
                Ok(r) => prop_assert!(r.body.len() <= max_body),
                Err(HttpError::TooLarge { declared, limit }) => {
                    prop_assert!(declared > limit);
                }
                Err(_) => {}
            }
        }
    }
}
