//! Served programs compile and run on each worker's interpreter stack: a
//! deeply nested program's replies equal one-shot `ent`'s, and a daemon
//! whose workers cannot create that stack stops at startup.
//!
//! This is its own test binary: a worker whose stack overflows aborts the
//! whole process, and that must not take other tests down with it.

use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use ent_cli::EXIT_OK;
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
        let reply = match server.handle_line(&line, 0) {
            Submission::Queued(rx) => rx.recv().expect("worker replies"),
            Submission::Immediate(reply) => panic!("{op} should be queued, got {reply:?}"),
        };
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
