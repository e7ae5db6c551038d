//! One TCP client connection to the serve front door: the harness
//! thread writes request lines, a reader thread timestamps each reply
//! line as it arrives.

use std::io::{BufRead, BufReader, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::mpsc::{self, Receiver};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use sunbfs::common::JsonValue;

/// How long the harness waits for any one reply before it counts the
/// outstanding requests as lost.
const REPLY_TIMEOUT: Duration = Duration::from_secs(30);

pub struct Client {
    stream: TcpStream,
    replies: Receiver<(Instant, JsonValue)>,
    reader: Option<JoinHandle<()>>,
    /// Every request line sent, for the traced replay of the parser.
    pub sent_lines: Vec<String>,
}

impl Client {
    pub fn connect(addr: SocketAddr) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let read_half = stream.try_clone()?;
        let (tx, replies) = mpsc::channel();
        let reader = std::thread::spawn(move || {
            for line in BufReader::new(read_half).lines() {
                let Ok(line) = line else { break };
                let at = Instant::now();
                let reply = JsonValue::parse(&line).unwrap_or(JsonValue::Null);
                if tx.send((at, reply)).is_err() {
                    break;
                }
            }
        });
        Ok(Client {
            stream,
            replies,
            reader: Some(reader),
            sent_lines: Vec::new(),
        })
    }

    /// Write one request line; returns when it was handed to the socket.
    pub fn send(&mut self, line: String) -> std::io::Result<Instant> {
        self.stream.write_all(format!("{line}\n").as_bytes())?;
        let at = Instant::now();
        self.sent_lines.push(line);
        Ok(at)
    }

    /// The next reply and when it arrived; `None` after [`REPLY_TIMEOUT`]
    /// or once the server closed the connection.
    pub fn recv(&self) -> Option<(Instant, JsonValue)> {
        self.replies.recv_timeout(REPLY_TIMEOUT).ok()
    }

    /// The next reply if one is already waiting.
    pub fn try_recv(&self) -> Option<(Instant, JsonValue)> {
        self.replies.try_recv().ok()
    }
}

impl Drop for Client {
    fn drop(&mut self) {
        let _ = self.stream.shutdown(Shutdown::Both);
        if let Some(h) = self.reader.take() {
            let _ = h.join();
        }
    }
}

/// A `query` request line.
pub fn query_line(root: u64) -> String {
    format!("{{\"cmd\":\"query\",\"root\":{root}}}")
}

/// The `"reply"` discriminator of a reply line.
pub fn kind(reply: &JsonValue) -> &str {
    reply.get("reply").and_then(JsonValue::as_str).unwrap_or("")
}
