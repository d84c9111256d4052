//! The client side of the wire: request bytes out, framed responses in,
//! over one keep-alive loopback connection per load lane.

use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use serde::{Deserialize, Serialize};
use sqe_engine::{Predicate, SpjQuery};

/// Body of `POST /v1/<tenant>/estimate`.
#[derive(Serialize)]
struct EstimateRequest {
    tables: Vec<u32>,
    predicates: Vec<Predicate>,
    deadline_ms: Option<u64>,
}

/// A successful estimate as the server encodes it.
#[derive(Debug, Clone, Deserialize, PartialEq)]
pub struct EstimateAnswer {
    pub selectivity: f64,
    pub cardinality: f64,
    pub error: f64,
    pub epoch: u64,
    pub cached: bool,
    pub quality: String,
    pub degraded: Option<String>,
    pub upper_bound: Option<f64>,
}

/// A successful ingest as the server encodes it.
#[derive(Debug, Clone, Deserialize)]
pub struct IngestAnswer {
    pub epoch: u64,
    pub ops_applied: u64,
    pub sits_refreshed: u64,
    pub sits_merged: u64,
    pub cache_carried: u64,
    pub cache_dropped: u64,
}

/// Serializes a full HTTP/1.1 request (keep-alive).
pub fn request_bytes(method: &str, target: &str, body: &[u8]) -> Vec<u8> {
    let mut out = format!(
        "{method} {target} HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\n\r\n",
        body.len()
    )
    .into_bytes();
    out.extend_from_slice(body);
    out
}

/// Wire bytes of an estimate request for `query` on `tenant`.
pub fn estimate_request(tenant: &str, query: &SpjQuery) -> Vec<u8> {
    let body = serde_json::to_string(&EstimateRequest {
        tables: query.tables.iter().map(|t| t.0).collect(),
        predicates: query.predicates.clone(),
        deadline_ms: None,
    })
    .expect("estimate body serializes");
    request_bytes("POST", &format!("/v1/{tenant}/estimate"), body.as_bytes())
}

/// Wire bytes of an ingest request carrying `batch`.
pub fn ingest_request(tenant: &str, batch: &sqe_engine::delta::DeltaBatch) -> Vec<u8> {
    let body = serde_json::to_string(batch).expect("batch serializes");
    request_bytes("POST", &format!("/v1/{tenant}/ingest"), body.as_bytes())
}

/// One framed response.
#[derive(Debug, Clone)]
pub struct Reply {
    pub status: u16,
    /// Whether the server keeps the connection open after this reply.
    pub keep_alive: bool,
    pub body: Vec<u8>,
}

/// Result of trying to frame one response from a receive buffer.
#[derive(Debug)]
pub enum Frame {
    /// More bytes are needed.
    Incomplete,
    /// One complete response occupying the first `consumed` bytes.
    Done { reply: Reply, consumed: usize },
    /// The bytes are not a response this client understands.
    Bad(&'static str),
}

/// Frames one response from the front of `buf` by its `Content-Length`.
pub fn parse_response(buf: &[u8]) -> Frame {
    let Some(head_end) = buf.windows(4).position(|w| w == b"\r\n\r\n") else {
        return Frame::Incomplete;
    };
    let Ok(head) = std::str::from_utf8(&buf[..head_end]) else {
        return Frame::Bad("response head is not UTF-8");
    };
    let mut lines = head.split("\r\n");
    let status_line = lines.next().unwrap_or_default();
    let mut parts = status_line.splitn(3, ' ');
    let (Some(version), Some(code)) = (parts.next(), parts.next()) else {
        return Frame::Bad("malformed status line");
    };
    if !version.starts_with("HTTP/1.") {
        return Frame::Bad("not an HTTP/1.x response");
    }
    let Ok(status) = code.parse::<u16>() else {
        return Frame::Bad("malformed status code");
    };
    let mut length = None;
    let mut keep_alive = true;
    for line in lines {
        let Some((name, value)) = line.split_once(':') else {
            return Frame::Bad("malformed header line");
        };
        let (name, value) = (name.trim(), value.trim());
        if name.eq_ignore_ascii_case("content-length") {
            match value.parse::<usize>() {
                Ok(n) => length = Some(n),
                Err(_) => return Frame::Bad("malformed content-length"),
            }
        } else if name.eq_ignore_ascii_case("connection") {
            keep_alive = !value.eq_ignore_ascii_case("close");
        }
    }
    let Some(length) = length else {
        return Frame::Bad("response without content-length");
    };
    let body_start = head_end + 4;
    if buf.len() < body_start + length {
        return Frame::Incomplete;
    }
    Frame::Done {
        reply: Reply {
            status,
            keep_alive,
            body: buf[body_start..body_start + length].to_vec(),
        },
        consumed: body_start + length,
    }
}

/// Why an exchange did not yield a usable answer.
#[derive(Debug, Clone, PartialEq)]
pub enum Failure {
    /// Socket error, reset, or unframeable bytes.
    Transport(String),
    /// A non-200 status (a 429 refusal included).
    Status(u16),
    /// A 200 whose body does not decode.
    Body(String),
}

/// Decodes a 200 reply's JSON body; every other status is a failure.
pub fn decode<T: serde::Deserialize>(reply: &Reply) -> Result<T, Failure> {
    if reply.status != 200 {
        return Err(Failure::Status(reply.status));
    }
    let text = std::str::from_utf8(&reply.body).map_err(|e| Failure::Body(e.to_string()))?;
    serde_json::from_str(text).map_err(|e| Failure::Body(e.to_string()))
}

/// One keep-alive connection.
pub struct Client {
    stream: TcpStream,
    buf: Vec<u8>,
    /// Request bytes written.
    pub bytes_out: u64,
    /// Response bytes read.
    pub bytes_in: u64,
}

impl Client {
    pub fn connect(addr: SocketAddr) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(60)))?;
        Ok(Client {
            stream,
            buf: Vec::with_capacity(4096),
            bytes_out: 0,
            bytes_in: 0,
        })
    }

    /// Sends one request and reads exactly one framed reply.
    pub fn exchange(&mut self, raw: &[u8]) -> Result<Reply, Failure> {
        let io = |e: std::io::Error| Failure::Transport(e.to_string());
        self.stream.write_all(raw).map_err(io)?;
        self.bytes_out += raw.len() as u64;
        let mut chunk = [0u8; 16 * 1024];
        loop {
            match parse_response(&self.buf) {
                Frame::Done { reply, consumed } => {
                    self.buf.drain(..consumed);
                    self.bytes_in += consumed as u64;
                    if !reply.keep_alive {
                        return Err(Failure::Transport("server closed the connection".into()));
                    }
                    return Ok(reply);
                }
                Frame::Bad(why) => return Err(Failure::Transport(why.to_string())),
                Frame::Incomplete => {}
            }
            match self.stream.read(&mut chunk) {
                Ok(0) => return Err(Failure::Transport("connection closed mid-response".into())),
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(io(e)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqe_server::Response;

    #[test]
    fn frames_by_content_length_and_keeps_pipelined_bytes() {
        let mut raw = Response::json(200, "{\"a\":1}".to_string()).to_bytes(true);
        let first = raw.len();
        raw.extend_from_slice(&Response::text(200, "ok\n").to_bytes(true));
        match parse_response(&raw) {
            Frame::Done { reply, consumed } => {
                assert_eq!(consumed, first);
                assert_eq!(reply.status, 200);
                assert!(reply.keep_alive);
                assert_eq!(reply.body, b"{\"a\":1}");
                match parse_response(&raw[consumed..]) {
                    Frame::Done { reply, .. } => assert_eq!(reply.body, b"ok\n"),
                    other => panic!("second frame: {other:?}"),
                }
            }
            other => panic!("expected a frame, got {other:?}"),
        }
        // Every strict prefix is incomplete: the body is not cut short.
        for cut in 0..first {
            assert!(
                matches!(parse_response(&raw[..cut]), Frame::Incomplete),
                "cut {cut}"
            );
        }
    }

    #[test]
    fn connection_close_is_not_keep_alive() {
        let raw = Response::text(200, "bye").to_bytes(false);
        match parse_response(&raw) {
            Frame::Done { reply, .. } => assert!(!reply.keep_alive),
            other => panic!("{other:?}"),
        }
        assert!(matches!(
            parse_response(b"HTTP/1.1 200 OK\r\nConnection: keep-alive\r\n\r\n"),
            Frame::Bad(_)
        ));
        assert!(matches!(parse_response(b"garbage\r\n\r\n"), Frame::Bad(_)));
    }

    #[test]
    fn a_429_refusal_counts_as_failed() {
        let body = "{\"error\":\"overloaded\",\"scope\":\"quota\",\"retry_after_ms\":5.0}";
        let raw = Response::json(429, body.to_string()).to_bytes(true);
        let Frame::Done { reply, .. } = parse_response(&raw) else {
            panic!("429 frames like any response");
        };
        assert_eq!(reply.status, 429);
        assert_eq!(decode::<EstimateAnswer>(&reply), Err(Failure::Status(429)));
        let ok = "{\"selectivity\":0.25,\"cardinality\":10.0,\"error\":0.0,\"epoch\":3,\
                  \"cached\":true,\"quality\":\"full\",\"degraded\":null,\"upper_bound\":12.0}";
        let Frame::Done { reply, .. } =
            parse_response(&Response::json(200, ok.to_string()).to_bytes(true))
        else {
            panic!("200 frames");
        };
        let a: EstimateAnswer = decode(&reply).expect("a 200 answer decodes");
        assert_eq!(
            (a.selectivity, a.epoch, a.upper_bound),
            (0.25, 3, Some(12.0))
        );
    }

    #[test]
    fn request_bytes_parse_back_on_the_server() {
        let raw = request_bytes("POST", "/v1/t/estimate", b"{}");
        match sqe_server::http::parse_request(&raw) {
            sqe_server::http::Parse::Done { request, consumed } => {
                assert_eq!(consumed, raw.len());
                assert_eq!(request.body, b"{}");
                assert!(!request.wants_close());
            }
            other => panic!("{other:?}"),
        }
    }
}
