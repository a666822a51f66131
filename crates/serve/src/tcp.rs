//! The TCP front-end: newline-delimited JSON over `std::net`.
//!
//! One thread per connection (the daemon's concurrency is bounded by the
//! worker pool and the bounded queue, not by connection count — a
//! connection is just a reply pipe), plus a ticker thread driving the
//! mode controller off wall-clock. All virtual-time determinism lives
//! below this layer; the TCP front-end is deliberately the only place
//! the wall clock enters.

use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::server::{Server, Submission};

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
    let reader = BufReader::new(stream);
    for line in reader.lines() {
        let Ok(line) = line else { return };
        if line.trim().is_empty() {
            continue;
        }
        let now_ms = epoch.elapsed().as_millis() as u64;
        let reply = match server.handle_line(&line, now_ms) {
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
