//! The load generator's HTTP/1.1 client: one keep-alive connection, one
//! request in flight, `Content-Length` bodies only — what `server` speaks.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};

/// Bytes of `POST /query` carrying `sql` as a raw-SQL body.
pub fn query_request(sql: &str) -> Vec<u8> {
    format!(
        "POST /query HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\n\r\n{sql}",
        sql.len()
    )
    .into_bytes()
}

/// Reads responses off a stream, keeping bytes that arrive past the end of
/// one response for the next.
pub struct ResponseReader<R> {
    stream: R,
    buf: Vec<u8>,
    /// Bytes of `buf` that belong to responses already returned.
    consumed: usize,
}

fn bad(message: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, message.to_string())
}

impl<R: Read> ResponseReader<R> {
    pub fn new(stream: R) -> ResponseReader<R> {
        ResponseReader {
            stream,
            buf: Vec::with_capacity(256 * 1024),
            consumed: 0,
        }
    }

    fn fill(&mut self) -> io::Result<()> {
        let mut chunk = [0u8; 64 * 1024];
        let n = self.stream.read(&mut chunk)?;
        if n == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection mid-response",
            ));
        }
        self.buf.extend_from_slice(&chunk[..n]);
        Ok(())
    }

    /// Read one whole response; returns its status and body.
    pub fn read_response(&mut self) -> io::Result<(u16, &[u8])> {
        self.buf.drain(..self.consumed);
        self.consumed = 0;
        let head_end = loop {
            if let Some(pos) = self.buf.windows(4).position(|w| w == b"\r\n\r\n") {
                break pos + 4;
            }
            self.fill()?;
        };
        let head = std::str::from_utf8(&self.buf[..head_end])
            .map_err(|_| bad("response head is not UTF-8"))?;
        let status: u16 = head
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad("no status code"))?;
        let length: usize = head
            .split("\r\n")
            .find_map(|line| {
                let (name, value) = line.split_once(':')?;
                name.eq_ignore_ascii_case("content-length")
                    .then(|| value.trim().parse().ok())?
            })
            .ok_or_else(|| bad("no Content-Length"))?;
        while self.buf.len() < head_end + length {
            self.fill()?;
        }
        self.consumed = head_end + length;
        Ok((status, &self.buf[head_end..head_end + length]))
    }
}

/// A connected client.
pub struct Client {
    reader: ResponseReader<TcpStream>,
}

impl Client {
    pub fn connect(addr: SocketAddr) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Client {
            reader: ResponseReader::new(stream),
        })
    }

    /// Send `request` and read the whole response.
    pub fn round_trip(&mut self, request: &[u8]) -> io::Result<(u16, &[u8])> {
        self.reader.stream.write_all(request)?;
        self.reader.read_response()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Hands out its bytes a few at a time, as a socket may.
    struct Trickle {
        data: Vec<u8>,
        at: usize,
        step: usize,
    }

    impl Read for Trickle {
        fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
            let n = self.step.min(self.data.len() - self.at).min(out.len());
            out[..n].copy_from_slice(&self.data[self.at..self.at + n]);
            self.at += n;
            Ok(n)
        }
    }

    #[test]
    fn reads_back_to_back_responses_across_split_reads() {
        let first = server::http::response(200, "application/json", b"{\"a\":1}", true);
        let second = server::http::response(503, "application/json", b"", true);
        let third = server::http::response(200, "text/plain", &[b'x'; 5000], true);
        let mut wire = first.clone();
        wire.extend_from_slice(&second);
        wire.extend_from_slice(&third);
        for step in [1, 3, 7, 64, 100_000] {
            let mut reader = ResponseReader::new(Trickle {
                data: wire.clone(),
                at: 0,
                step,
            });
            let (status, body) = reader.read_response().unwrap();
            assert_eq!((status, body), (200, &b"{\"a\":1}"[..]), "step {step}");
            let (status, body) = reader.read_response().unwrap();
            assert_eq!((status, body.len()), (503, 0), "step {step}");
            let (status, body) = reader.read_response().unwrap();
            assert_eq!((status, body.len()), (200, 5000), "step {step}");
            assert_eq!(
                reader.read_response().unwrap_err().kind(),
                io::ErrorKind::UnexpectedEof
            );
        }
    }

    #[test]
    fn request_is_what_the_server_parses() {
        let sql = "SELECT COUNT(*) AS n FROM lineitem";
        match server::http::parse(&query_request(sql)) {
            server::http::Parse::Complete { request, consumed } => {
                assert_eq!(request.method, "POST");
                assert_eq!(request.path, "/query");
                assert_eq!(request.body, sql.as_bytes());
                assert!(request.keep_alive);
                assert_eq!(consumed, query_request(sql).len());
            }
            other => panic!("expected a complete request, got {other:?}"),
        }
    }
}
