//! Served programs compile and run on each worker's interpreter stack: a
//! deeply nested program's replies equal one-shot `ent`'s, a recursion
//! that would run off the end of that stack, or fill the host's memory
//! with register files, gets a runtime-error reply, and a daemon whose
//! workers cannot create that stack stops at startup.
//!
//! This is its own test binary: a worker whose stack overflows aborts the
//! whole process, and that must not take other tests down with it.

use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use ent_cli::{EXIT_OK, EXIT_RUNTIME};
use ent_runtime::{default_stack_size, json_escape, with_interp_stack};
use ent_serve::{parse_request, Reply, Server, ServerConfig, Submission};

/// Parenthesis levels around the returned literal. Debug builds use
/// about 11 KiB of native stack per level, most of it in the parser, so
/// this fits the 512 MiB interpreter stack but not a plain thread's
/// 2 MiB.
const DEPTH: usize = 5000;

fn nested_program(depth: usize) -> String {
    format!(
        "class Main {{ int main() {{ return {}1{}; }} }}",
        "(".repeat(depth),
        ")".repeat(depth)
    )
}

#[test]
fn deeply_nested_run_and_check_are_served_like_one_shot() {
    let src = nested_program(DEPTH);
    let server = Server::start(ServerConfig::default());
    for op in ["run", "check"] {
        let line = format!(
            "{{\"op\": \"{op}\", \"id\": \"deep-{op}\", \"tenant\": \"deep\", \"src\": \"{}\"}}",
            json_escape(&src)
        );
        let reply = reply_to(&server, &line);
        // The test thread's own stack cannot compile the program, so the
        // reference runs on an interpreter stack too.
        let request = parse_request(&line).unwrap();
        let one_shot = with_interp_stack(default_stack_size(), || {
            ent_cli::execute(&request.options, &request.src)
        });
        assert_eq!(one_shot.0, EXIT_OK, "{op}: {}", one_shot.1);
        match reply {
            Reply::Done { code, output, .. } => assert_eq!((code, output), one_shot, "{op}"),
            other => panic!("{op}: expected Done, got {other:?}"),
        }
    }
    let Submission::Immediate(Reply::Doc { payload, .. }) =
        server.handle_line("{\"op\": \"health\", \"id\": \"after\"}", 1)
    else {
        panic!("health is synchronous")
    };
    assert!(payload.contains("\"ok\": true"), "{payload}");
    server.shutdown();
}

/// Submits `line` and returns the reply of the job it ran.
fn reply_to(server: &Server, line: &str) -> Reply {
    let Submission::Immediate(reply) = server.handle_line(line, 0) else {
        panic!("every submission is answered before it returns")
    };
    reply
}

/// A `run` request line for `src`.
fn run_line(id: &str, src: &str) -> String {
    format!(
        "{{\"op\": \"run\", \"id\": \"{id}\", \"tenant\": \"deep\", \"src\": \"{}\"}}",
        json_escape(src)
    )
}

/// Asserts that `server` still answers `health`.
fn assert_healthy(server: &Server) {
    let Submission::Immediate(Reply::Doc { payload, .. }) =
        server.handle_line("{\"op\": \"health\", \"id\": \"after\"}", 1)
    else {
        panic!("health is synchronous")
    };
    assert!(payload.contains("\"ok\": true"), "{payload}");
}

#[test]
fn a_recursion_that_would_overflow_the_worker_stack_gets_a_runtime_error() {
    // `go` recurses 100000 deep with each call under 40 additions, and its
    // base case returns a 70000-term sum (about 280 KB of source). The
    // body runs on bytecode, whose nested additions take no native stack,
    // so the call-depth guard stops the recursion at its limit.
    let call = (0..40).fold("this.go(n - 1)".to_string(), |e, _| format!("1 + ({e})"));
    let padding = vec!["0"; 70_000].join(" + ");
    let src = format!(
        "class Main {{ int go(int n) {{ if (n <= 0) {{ return {padding}; }} return {call}; }} \
         int main() {{ return this.go(100000); }} }}"
    );
    let server = Server::start(ServerConfig::default());
    match reply_to(&server, &run_line("hostile", &src)) {
        Reply::Done { code, output, .. } => {
            assert_eq!(code, EXIT_RUNTIME, "{output}");
            assert!(
                output.contains("call depth exceeded the interpreter limit"),
                "{output}"
            );
        }
        other => panic!("expected Done, got {other:?}"),
    }
    assert_healthy(&server);
    server.shutdown();
}

#[test]
fn a_recursion_through_a_large_body_into_a_small_one_is_answered() {
    // `t` recurses 2400 deep under 40 additions, and its base case, a
    // 70000-term sum, starts a 19400-deep recursion of `b`. Had `t` run
    // on the tree walker, as bodies past 16-bit operand words once did,
    // its frames would use up the worker stack the depth guard budgets
    // for `b`, and the worker (the whole daemon) would abort: these
    // depths abort that mix in a debug build. Every frame runs on
    // bytecode.
    let call = (0..40).fold("this.t(n - 1, m)".to_string(), |e, _| format!("1 + ({e})"));
    let padding = vec!["0"; 70_000].join(" + ");
    let src = format!(
        "class Main {{ int t(int n, int m) {{ if (n <= 0) {{ return this.b(m) + {padding}; }} \
         return {call}; }} \
         int b(int m) {{ if (m <= 0) {{ return 0; }} return 1 + this.b(m - 1); }} \
         int main() {{ return this.t(2400, 19400); }} }}"
    );
    let server = Server::start(ServerConfig::default());
    match reply_to(&server, &run_line("mixed", &src)) {
        Reply::Done { code, output, .. } => {
            assert_eq!(code, EXIT_OK, "{output}");
            assert!(output.contains("result: 115400"), "{output}");
        }
        other => panic!("expected Done, got {other:?}"),
    }
    assert_healthy(&server);
    server.shutdown();
}

/// Reads one reply line from the daemon, or `None` when it closed the
/// connection.
fn read_reply(reader: &mut impl BufRead) -> Option<String> {
    let mut line = String::new();
    match reader.read_line(&mut line) {
        Ok(n) if n > 0 => Some(line),
        _ => None,
    }
}

#[test]
fn register_files_past_the_stack_bound_get_a_runtime_error_from_the_daemon() {
    // Each frame of `r` holds a 60000-item array literal's registers
    // (1.4 MB); before the register bound, the recursion's frames took
    // gigabytes, and under this address-space limit the daemon aborted
    // without a reply. On a 16 MiB worker stack the bound (stack size /
    // `Value` size live slots) stops it within a dozen frames.
    let items = vec!["0"; 60_000].join(", ");
    let src = format!(
        "class Main {{ int r(int n) {{ if (n <= 0) {{ return 0; }} \
         return this.r(n - 1) + Arr.len([{items}]); }} \
         int main() {{ return this.r(20000); }} }}"
    );
    // A free loopback port for the daemon (the listener closes at once).
    let port = TcpListener::bind("127.0.0.1:0")
        .and_then(|l| l.local_addr())
        .expect("a free loopback port")
        .port();
    let addr = format!("127.0.0.1:{port}");
    let mut daemon = Command::new("sh")
        .arg("-c")
        .arg("ulimit -v 600000 && exec \"$0\" \"$@\"")
        .arg(env!("CARGO_BIN_EXE_ent-serve"))
        .args(["--addr", &addr, "--workers", "1"])
        .env("ENT_STACK_SIZE", "16m")
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("launch ent-serve");
    let deadline = Instant::now() + Duration::from_secs(30);
    let stream = loop {
        match TcpStream::connect(&addr) {
            Ok(s) => break s,
            Err(e) if Instant::now() > deadline => {
                let _ = daemon.kill();
                let _ = daemon.wait();
                panic!("ent-serve never accepted on {addr}: {e}");
            }
            Err(_) => std::thread::sleep(Duration::from_millis(20)),
        }
    };
    stream
        .set_read_timeout(Some(Duration::from_secs(120)))
        .expect("set a read timeout");
    let mut writer = stream.try_clone().expect("clone the connection");
    let mut reader = BufReader::new(stream);
    let mut ask = |line: &str| {
        writeln!(writer, "{line}").expect("send a request");
        read_reply(&mut reader)
    };
    let run = ask(&run_line("registers", &src));
    let health = ask("{\"op\": \"health\", \"id\": \"after\"}");
    let _ = daemon.kill();
    let _ = daemon.wait();
    let run = run.expect("the daemon replies to the run");
    assert!(run.contains("\"code\": 3"), "{run}");
    assert!(
        run.contains("call depth exceeded the interpreter limit"),
        "{run}"
    );
    let health = health.expect("the daemon answers health after it");
    assert!(health.contains("\"ok\": true"), "{health}");
}

#[test]
fn a_stack_the_host_cannot_create_stops_the_daemon_at_startup() {
    // 2^60 bytes exceeds any host's address space, so no worker can
    // enter its frame; the daemon must exit instead of queueing requests
    // that no worker will answer.
    let mut daemon = Command::new(env!("CARGO_BIN_EXE_ent-serve"))
        .args(["--addr", "127.0.0.1:0", "--workers", "1"])
        .env("ENT_STACK_SIZE", (1u64 << 60).to_string())
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("launch ent-serve");
    let deadline = Instant::now() + Duration::from_secs(30);
    let status = loop {
        if let Some(status) = daemon.try_wait().expect("poll ent-serve") {
            break status;
        }
        if Instant::now() > deadline {
            let _ = daemon.kill();
            let _ = daemon.wait();
            panic!("ent-serve kept running although its worker had no stack");
        }
        std::thread::sleep(Duration::from_millis(20));
    };
    assert!(!status.success(), "{status}");
}
