//! The TCP front-end: newline-delimited JSON over `std::net`.
//!
//! One thread per connection (the daemon's concurrency is bounded by the
//! worker pool and the bounded queue, not by connection count — a
//! connection is just a reply pipe), plus a ticker thread driving the
//! mode controller off wall-clock. All virtual-time determinism lives
//! below this layer; the TCP front-end is deliberately the only place
//! the wall clock enters.

use std::io::{self, BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::server::{Server, Submission};

/// The most bytes a request line may hold before its `\n`: 8 MiB, well
/// above any program the daemon is meant to serve. A longer line is
/// discarded without being buffered and answered with a `bad_request`;
/// the connection stays open.
pub(crate) const MAX_LINE_BYTES: usize = 8 << 20;

/// Runs the accept loop forever, ticking the mode controller every
/// `tick_ms` of wall time. Connection handler threads are detached; a
/// client that disconnects mid-job only loses its reply pipe.
pub fn serve(listener: TcpListener, server: Arc<Server>, tick_ms: u64) {
    let epoch = Instant::now();
    {
        let server = Arc::clone(&server);
        std::thread::Builder::new()
            .name("ent-serve-ticker".to_string())
            .spawn(move || loop {
                std::thread::sleep(Duration::from_millis(tick_ms.max(10)));
                server.tick();
            })
            .expect("spawn ticker");
    }
    for stream in listener.incoming() {
        let Ok(stream) = stream else { continue };
        let server = Arc::clone(&server);
        let _ = std::thread::Builder::new()
            .name("ent-serve-conn".to_string())
            .spawn(move || handle_connection(stream, &server, epoch));
    }
}

fn handle_connection(stream: TcpStream, server: &Server, epoch: Instant) {
    // Each reply is one complete write. With Nagle's algorithm on, the
    // second of two pipelined replies waits for the client's delayed ACK
    // of the first (about 40 ms on Linux).
    let _ = stream.set_nodelay(true);
    let Ok(peer) = stream.try_clone() else { return };
    let mut writer = peer;
    let mut reader = BufReader::new(stream);
    // Lines are read as bytes, so a line that is not UTF-8 gets a typed
    // reply instead of ending the connection.
    let mut buf = Vec::new();
    loop {
        let submission = match read_line(&mut reader, &mut buf) {
            Ok(Line::Closed) | Err(_) => return,
            Ok(Line::TooLong) => Submission::Immediate(server.bad_request(format!(
                "request line is longer than {MAX_LINE_BYTES} bytes"
            ))),
            Ok(Line::Read) => {
                let now_ms = epoch.elapsed().as_millis() as u64;
                match std::str::from_utf8(&buf) {
                    Ok(line) if line.trim().is_empty() => continue,
                    Ok(line) => server.handle_line(line, now_ms),
                    Err(e) => Submission::Immediate(server.bad_request(format!(
                        "request line is not UTF-8 (invalid byte at {})",
                        e.valid_up_to()
                    ))),
                }
            }
        };
        let reply = match submission {
            Submission::Immediate(reply) => reply,
            Submission::Queued(rx) => match rx.recv() {
                Ok(reply) => reply,
                // The worker pool is shutting down.
                Err(_) => return,
            },
        };
        if writer
            .write_all(format!("{}\n", reply.to_json()).as_bytes())
            .is_err()
        {
            return;
        }
    }
}

/// How [`read_line`] ended.
enum Line {
    /// The peer closed the connection before sending another byte.
    Closed,
    /// A line is in the buffer.
    Read,
    /// The line was longer than [`MAX_LINE_BYTES`] and was discarded.
    TooLong,
}

/// Reads the next line into `buf` without its `\n` or `\r\n`, as
/// `BufRead::lines` does. A line past [`MAX_LINE_BYTES`] is consumed up to
/// its `\n` but not kept, so `buf` never grows past the cap.
fn read_line(reader: &mut impl BufRead, buf: &mut Vec<u8>) -> io::Result<Line> {
    buf.clear();
    // Bytes of this line so far; past the cap they are counted, not kept.
    let mut len = 0usize;
    let mut ended = false;
    while !ended {
        let chunk = match reader.fill_buf() {
            Ok([]) => break,
            Ok(chunk) => chunk,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        };
        let body = match chunk.iter().position(|&b| b == b'\n') {
            Some(i) => {
                ended = true;
                &chunk[..i]
            }
            None => chunk,
        };
        len = len.saturating_add(body.len());
        if len <= MAX_LINE_BYTES {
            buf.extend_from_slice(body);
        }
        let used = body.len() + usize::from(ended);
        reader.consume(used);
    }
    Ok(if len == 0 && !ended {
        Line::Closed
    } else if len > MAX_LINE_BYTES {
        buf.clear();
        Line::TooLong
    } else {
        if ended && buf.last() == Some(&b'\r') {
            buf.pop();
        }
        Line::Read
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::ServerConfig;
    use std::io::BufRead;

    #[test]
    fn round_trips_requests_over_a_socket() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral");
        let addr = listener.local_addr().unwrap();
        let server = Arc::new(Server::start(ServerConfig::default()));
        std::thread::spawn(move || serve(listener, server, 50));

        let stream = TcpStream::connect(addr).expect("connect");
        let mut writer = stream.try_clone().unwrap();
        let mut reader = BufReader::new(stream);
        let src = "class Main { int main() { return 40 + 2; } }";
        let request = format!(
            "{{\"op\": \"run\", \"id\": \"tcp-1\", \"tenant\": \"t\", \"src\": \"{}\"}}\n\
             {{\"op\": \"health\"}}\n\
             not even json\n",
            ent_runtime::json_escape(src)
        );
        writer.write_all(request.as_bytes()).unwrap();

        let mut lines = Vec::new();
        for _ in 0..3 {
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            assert!(ent_runtime::json_is_valid(line.trim()), "{line}");
            lines.push(line);
        }
        assert!(lines[0].contains("\"id\": \"tcp-1\""), "{}", lines[0]);
        assert!(lines[0].contains("result: 42"), "{}", lines[0]);
        assert!(lines[1].contains("\"ok\": true"), "{}", lines[1]);
        assert!(lines[2].contains("bad_request"), "{}", lines[2]);
    }

    #[test]
    fn a_line_that_is_not_utf8_gets_a_typed_reply_and_keeps_the_connection() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral");
        let addr = listener.local_addr().unwrap();
        let server = Arc::new(Server::start(ServerConfig::default()));
        std::thread::spawn({
            let server = Arc::clone(&server);
            move || serve(listener, server, 50)
        });

        let stream = TcpStream::connect(addr).expect("connect");
        let mut writer = stream.try_clone().unwrap();
        let mut reader = BufReader::new(stream);
        writer
            .write_all(
                b"{\"op\": \"health\", \"id\": \"a\"}\n\xff\xfe\n{\"op\": \"health\", \"id\": \"b\"}\n",
            )
            .unwrap();
        let mut lines = Vec::new();
        for _ in 0..3 {
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            assert!(ent_runtime::json_is_valid(line.trim()), "{line:?}");
            lines.push(line);
        }
        assert!(lines[0].contains("\"id\": \"a\""), "{}", lines[0]);
        assert!(lines[0].contains("\"ok\": true"), "{}", lines[0]);
        assert!(lines[1].contains("bad_request"), "{}", lines[1]);
        assert!(lines[1].contains("not UTF-8"), "{}", lines[1]);
        assert!(lines[2].contains("\"id\": \"b\""), "{}", lines[2]);
        assert!(lines[2].contains("\"ok\": true"), "{}", lines[2]);
        assert_eq!(server.counters().bad_requests, 1);
    }

    #[test]
    fn an_over_long_line_gets_a_typed_reply_and_keeps_the_connection() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral");
        let addr = listener.local_addr().unwrap();
        let server = Arc::new(Server::start(ServerConfig::default()));
        std::thread::spawn({
            let server = Arc::clone(&server);
            move || serve(listener, server, 50)
        });

        let stream = TcpStream::connect(addr).expect("connect");
        let mut writer = stream.try_clone().unwrap();
        let mut reader = BufReader::new(stream);
        // A valid `run` whose source carries more than the cap in comment.
        let src = format!(
            "class Main {{ int main() {{ return 42; }} }}\n//{}",
            "x".repeat(MAX_LINE_BYTES)
        );
        let request = format!(
            "{{\"op\": \"run\", \"id\": \"long\", \"tenant\": \"t\", \"src\": \"{}\"}}\n\
             {{\"op\": \"health\", \"id\": \"after\"}}\n",
            ent_runtime::json_escape(&src)
        );
        writer.write_all(request.as_bytes()).unwrap();
        let mut lines = Vec::new();
        for _ in 0..2 {
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            assert!(ent_runtime::json_is_valid(line.trim()), "{line:?}");
            lines.push(line);
        }
        assert!(lines[0].contains("bad_request"), "{}", lines[0]);
        assert!(
            lines[0].contains(&MAX_LINE_BYTES.to_string()),
            "the reply names the limit: {}",
            lines[0]
        );
        assert!(lines[1].contains("\"id\": \"after\""), "{}", lines[1]);
        assert!(lines[1].contains("\"ok\": true"), "{}", lines[1]);
        assert_eq!(server.counters().bad_requests, 1);
    }

    #[test]
    fn read_line_strips_line_endings_and_discards_over_long_lines() {
        let long = "x".repeat(MAX_LINE_BYTES + 1);
        let input = format!("a\r\n\n{long}\nb");
        let mut reader = io::BufReader::with_capacity(4096, input.as_bytes());
        let mut buf = Vec::new();
        let mut next = || {
            let line = read_line(&mut reader, &mut buf).expect("in-memory reads succeed");
            assert!(buf.len() <= MAX_LINE_BYTES);
            match line {
                Line::Closed => "<closed>".to_string(),
                Line::TooLong => "<too long>".to_string(),
                Line::Read => String::from_utf8(buf.clone()).expect("utf-8 test input"),
            }
        };
        for expected in ["a", "", "<too long>", "b", "<closed>"] {
            assert_eq!(next(), expected);
        }
    }

    #[test]
    fn pipelined_replies_are_not_held_back_by_nagle() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral");
        let addr = listener.local_addr().unwrap();
        let server = Arc::new(Server::start(ServerConfig::default()));
        std::thread::spawn(move || serve(listener, server, 50));

        let stream = TcpStream::connect(addr).expect("connect");
        let mut writer = stream.try_clone().unwrap();
        let mut reader = BufReader::new(stream);
        let mut rounds = Vec::new();
        for _ in 0..5 {
            let started = Instant::now();
            writer
                .write_all(b"{\"op\": \"health\"}\n{\"op\": \"health\"}\n")
                .unwrap();
            for _ in 0..2 {
                let mut line = String::new();
                reader.read_line(&mut line).unwrap();
                assert!(line.contains("\"ok\": true"), "{line}");
            }
            rounds.push(started.elapsed());
        }
        rounds.sort();
        assert!(
            rounds[2] < Duration::from_millis(20),
            "median round of two pipelined requests took {:?} (all: {rounds:?})",
            rounds[2]
        );
    }
}
