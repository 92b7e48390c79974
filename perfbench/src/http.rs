//! A minimal HTTP/1.1 client for the server under test: one request
//! per connection, matching the server's `Connection: close` framing.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// Longest any single exchange may take. Barrier reads park for up to
/// the server's 10 s barrier timeout, so this sits above it.
const TIMEOUT: Duration = Duration::from_secs(15);

/// Status code and body of one response.
#[derive(Debug)]
pub struct Response {
    pub status: u16,
    pub body: String,
}

/// `GET path`.
pub fn get(addr: SocketAddr, path: &str) -> std::io::Result<Response> {
    exchange(addr, "GET", path, "")
}

/// `POST path` with a JSON body.
pub fn post(addr: SocketAddr, path: &str, body: &str) -> std::io::Result<Response> {
    exchange(addr, "POST", path, body)
}

fn exchange(addr: SocketAddr, method: &str, path: &str, body: &str) -> std::io::Result<Response> {
    let mut stream = TcpStream::connect_timeout(&addr, TIMEOUT)?;
    stream.set_read_timeout(Some(TIMEOUT))?;
    stream.set_write_timeout(Some(TIMEOUT))?;
    let _ = stream.set_nodelay(true);
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw)?;
    parse(&raw)
}

fn parse(raw: &[u8]) -> std::io::Result<Response> {
    let bad = |what: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, what.to_string());
    let text = std::str::from_utf8(raw).map_err(|_| bad("response is not UTF-8"))?;
    let (head, body) = text
        .split_once("\r\n\r\n")
        .ok_or_else(|| bad("response has no header terminator"))?;
    let status = head
        .split_whitespace()
        .nth(1)
        .and_then(|code| code.parse().ok())
        .ok_or_else(|| bad("response has no status code"))?;
    Ok(Response {
        status,
        body: body.to_string(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_status_and_body() {
        let r =
            parse(b"HTTP/1.1 503 Service Unavailable\r\nRetry-After: 1\r\n\r\n{\"e\":1}").unwrap();
        assert_eq!(r.status, 503);
        assert_eq!(r.body, "{\"e\":1}");
        assert!(parse(b"HTTP/1.1 200 OK").is_err());
    }
}
