//! The built `ent-serve` over its wire: the hostile-request smoke, one
//! thread per connection (and a typed reply when the host refuses one),
//! and what a connection keeps after a deep job.
//!
//! Each test starts the daemon on a free loopback port and talks
//! newline-delimited JSON to it, as a client would. Inputs are sized so
//! that a debug build answers each well inside a second; a release build
//! (`cargo test --release`) sends the full-size versions.

use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use ent_serve::json::{self, Json};

/// The built daemon, killed when dropped.
struct Daemon {
    child: Child,
    addr: String,
}

impl Daemon {
    /// Starts `ent-serve` with `args` on a free loopback port and waits
    /// until it accepts (the probe connection is closed again).
    fn start(args: &[&str]) -> Daemon {
        Daemon::launch(Command::new(env!("CARGO_BIN_EXE_ent-serve")), args)
    }

    /// [`Daemon::start`] under a `limit_kb` address-space limit, with
    /// `ENT_STACK_SIZE` set to `stack`.
    fn start_limited(limit_kb: u64, stack: &str, args: &[&str]) -> Daemon {
        let mut sh = Command::new("sh");
        sh.arg("-c")
            .arg(format!("ulimit -v {limit_kb} && exec \"$0\" \"$@\""))
            .arg(env!("CARGO_BIN_EXE_ent-serve"))
            .env("ENT_STACK_SIZE", stack);
        Daemon::launch(sh, args)
    }

    /// Runs `cmd`, the daemon, with `args` on a free loopback port.
    fn launch(mut cmd: Command, args: &[&str]) -> Daemon {
        // A free loopback port for the daemon (the listener closes at once).
        let port = TcpListener::bind("127.0.0.1:0")
            .and_then(|l| l.local_addr())
            .expect("a free loopback port")
            .port();
        let addr = format!("127.0.0.1:{port}");
        let child = cmd
            .args(["--addr", &addr])
            .args(args)
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .expect("launch ent-serve");
        let daemon = Daemon { child, addr };
        // Wait for an answer, not just an accepted connection: the reply
        // shows this connection's thread has started, so a test that then
        // waits for the idle thread count sees that thread leave instead
        // of counting it before it starts.
        daemon.connect().assert_healthy("ready");
        daemon
    }

    fn connect(&self) -> Client {
        let deadline = Instant::now() + Duration::from_secs(30);
        let stream = loop {
            match TcpStream::connect(&self.addr) {
                Ok(s) => break s,
                Err(e) if Instant::now() > deadline => {
                    panic!("ent-serve never accepted on {}: {e}", self.addr)
                }
                Err(_) => std::thread::sleep(Duration::from_millis(20)),
            }
        };
        stream
            .set_read_timeout(Some(Duration::from_secs(60)))
            .expect("set a read timeout");
        Client {
            writer: stream.try_clone().expect("clone the connection"),
            reader: BufReader::new(stream),
        }
    }

    /// Polls `read` on the daemon's `/proc` entry until `done` holds;
    /// returns the last value read.
    #[cfg(target_os = "linux")]
    fn poll<T: Copy>(&self, read: impl Fn(u32) -> T, done: impl Fn(T) -> bool) -> T {
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            let value = read(self.child.id());
            if done(value) || Instant::now() > deadline {
                return value;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// One connection to the daemon.
struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    /// Sends `bytes` (one line, without its `\n`) and parses the reply.
    fn send(&mut self, bytes: &[u8]) -> Json {
        self.writer.write_all(bytes).expect("send a request");
        self.writer.write_all(b"\n").expect("send a request");
        self.reply()
    }

    /// Reads and parses the next reply.
    fn reply(&mut self) -> Json {
        let mut line = String::new();
        self.reader.read_line(&mut line).expect("read a reply");
        let reply = json::parse(&line).unwrap_or_else(|e| panic!("{e}: {line:?}"));
        assert_eq!(str_at(&reply, &["schema"]), "ent-serve-proto/1", "{line}");
        reply
    }

    /// Sends a request object; `fields` are its members after `op`.
    fn ask(&mut self, op: &str, fields: &[(&str, &str)]) -> Json {
        self.send(request(op, fields).as_bytes())
    }

    /// Sends a `run` (or `check`) of `src` as request `id`.
    fn run(&mut self, op: &str, id: &str, src: &str) -> Json {
        let reply = self.ask(op, &[("id", id), ("tenant", "ci"), ("src", src)]);
        assert_eq!(str_at(&reply, &["id"]), id);
        reply
    }

    /// Asserts that `health` answers as request `id`.
    fn assert_healthy(&mut self, id: &str) {
        let health = self.ask("health", &[("id", id)]);
        assert_eq!(
            health.get("doc").and_then(|d| d.get("ok")),
            Some(&Json::Bool(true))
        );
    }
}

/// A request line of `op`; `fields` are its members after `op`.
fn request(op: &str, fields: &[(&str, &str)]) -> String {
    json::to_string(json::object(|o| {
        o.field("op", op);
        for (key, value) in fields {
            o.field(key, *value);
        }
    }))
}

fn at<'a>(doc: &'a Json, path: &[&str]) -> &'a Json {
    path.iter().fold(doc, |v, k| {
        v.get(k).unwrap_or_else(|| panic!("no `{k}` in {doc:?}"))
    })
}

fn str_at<'a>(doc: &'a Json, path: &[&str]) -> &'a str {
    at(doc, path).as_str().expect("a string")
}

/// Asserts a finished job: exit `code` and `needle` in its output.
fn assert_done(reply: &Json, code: u64, needle: &str) {
    assert_eq!(at(reply, &["code"]).as_u64(), Some(code), "{reply:?}");
    assert!(str_at(reply, &["output"]).contains(needle), "{reply:?}");
}

/// Asserts a typed `bad_request`.
fn assert_bad_request(reply: &Json) {
    assert_eq!(str_at(reply, &["status"]), "error", "{reply:?}");
    assert_eq!(str_at(reply, &["error"]), "bad_request", "{reply:?}");
}

/// `n` in a release build, `debug` in a debug one.
fn sized(n: usize, debug: usize) -> usize {
    if cfg!(debug_assertions) {
        debug
    } else {
        n
    }
}

/// `call` under 40 nested additions.
fn under_40_additions(call: &str) -> String {
    (0..40).fold(call.to_string(), |e, _| format!("1 + ({e})"))
}

const SRC: &str = "class Main { int main() { return 40 + 2; } }";

/// A `return` nested `depth` parentheses deep.
fn nested(depth: usize) -> String {
    format!(
        "class Main {{ int main() {{ return {}1{}; }} }}",
        "(".repeat(depth),
        ")".repeat(depth)
    )
}

#[test]
fn hostile_requests_get_typed_replies_and_the_connection_stays_usable() {
    let daemon = Daemon::start(&["--workers", "2"]);
    let mut c = daemon.connect();

    assert_done(&c.run("run", "ci-1", SRC), 0, "result: 42");
    let stats = c.ask("stats", &[("id", "ci-2")]);
    assert_eq!(str_at(&stats, &["doc", "schema"]), "ent-serve-stats/1");
    assert!(at(&stats, &["doc", "cache", "entries"]).as_u64() >= Some(1));
    c.assert_healthy("ci-3");
    assert_bad_request(&c.send(b"not even json"));

    // About 1 MiB of comment: the request reader is linear in the line
    // length.
    let padded = format!(
        "{SRC}\n{}",
        "// padding line with é and \"quotes\"\n".repeat(28000)
    );
    assert_done(&c.run("run", "ci-4", &padded), 0, "result: 42");
    // 5000 nested parentheses compile on the connection thread's
    // interpreter stack, not a plain thread's.
    assert_done(&c.run("run", "ci-5", &nested(5000)), 0, "result: 1");
    c.assert_healthy("ci-6");

    // A line that is not UTF-8 gets a typed reply.
    assert_bad_request(&c.send(b"\xff\xfe"));
    c.assert_healthy("ci-7");

    // A line past the 8 MiB cap is discarded unbuffered, and the reply
    // names the limit.
    let huge = format!("{SRC}\n//{}", "x".repeat(9 << 20));
    let long = c.ask("run", &[("id", "ci-8"), ("tenant", "ci"), ("src", &huge)]);
    assert_bad_request(&long);
    assert!(str_at(&long, &["message"]).contains("8388608"), "{long:?}");
    c.assert_healthy("ci-9");

    // A check whose `modes` block declares 5000 modes: the parser refuses
    // it at the 65th.
    let modes: String = (0..5000).map(|i| format!("m{i}; ")).collect();
    let hostile = c.run("check", "ci-10", &format!("modes {{ {modes}}} {SRC}"));
    assert_done(&hostile, 2, "more than 64 modes");
    c.assert_healthy("ci-11");

    // A long empty inheritance chain: the class table walks each link
    // once, and lowering answers subclass queries from pre-order
    // intervals.
    let chain: String = (1..sized(4000, 1500))
        .map(|k| format!("class C{k} extends C{} {{ }}\n", k - 1))
        .collect();
    let chain = format!("class C0 {{ }}\n{chain}{SRC}");
    assert_done(&c.run("run", "ci-12", &chain), 0, "result: 42");
    c.assert_healthy("ci-13");

    // A chain whose every class declares a method: lowering walks each
    // class's chain once, not once per inherited method.
    let methods: String = (1..sized(2000, 600))
        .map(|k| {
            format!(
                "class M{k} extends M{} {{ int m{k}() {{ return {k}; }} }}\n",
                k - 1
            )
        })
        .collect();
    let methods = format!("class M0 {{ int m0() {{ return 0; }} }}\n{methods}{SRC}");
    assert_done(&c.run("run", "ci-14", &methods), 0, "result: 42");
    c.assert_healthy("ci-15");

    // A recursion 100000 deep under 40 additions per call, whose base case
    // is a 70000-term sum (about 280 KB): it runs on bytecode, and the
    // call-depth guard answers before the native stack ends.
    let sum = vec!["0"; 70_000].join(" + ");
    let deep_run = format!(
        "class Main {{ int go(int n) {{ if (n <= 0) {{ return {sum}; }} return {}; }} \
         int main() {{ return this.go(100000); }} }}",
        under_40_additions("this.go(n - 1)")
    );
    assert_done(&c.run("run", "ci-16", &deep_run), 3, "call depth exceeded");
    c.assert_healthy("ci-17");

    // A recursion under 40 additions whose 70000-term base case starts a
    // second, plain recursion (debug frames are larger, so a debug build
    // goes less deep): every frame runs on bytecode.
    let (n, m) = if cfg!(debug_assertions) {
        (2400, 19400)
    } else {
        (28000, 17000)
    };
    let mixed = format!(
        "class Main {{ int t(int n, int m) {{ if (n <= 0) {{ return this.b(m) + {sum}; }} \
         return {}; }} \
         int b(int m) {{ if (m <= 0) {{ return 0; }} return 1 + this.b(m - 1); }} \
         int main() {{ return this.t({n}, {m}); }} }}",
        under_40_additions("this.t(n - 1, m)")
    );
    let result = format!("result: {}", n * 40 + m);
    assert_done(&c.run("run", "ci-18", &mixed), 0, &result);
    c.assert_healthy("ci-19");

    // A recursion under a 30000-term left-nested sum (about 120 KB): the
    // sum compiles into two registers, not two per term, so the frames
    // stay small and the gas limit answers.
    let terms = vec!["0"; 30_000].join(" + ");
    let chain_run = format!(
        "class Main {{ int r(int n) {{ if (n <= 0) {{ return 0; }} return this.r(n - 1) + \
         {terms}; }} int main() {{ return this.r(20000); }} }}"
    );
    assert_done(&c.run("run", "ci-20", &chain_run), 3, "gas limit");
    c.assert_healthy("ci-21");
}

/// The daemon's thread count.
#[cfg(target_os = "linux")]
fn threads(pid: u32) -> usize {
    std::fs::read_dir(format!("/proc/{pid}/task")).map_or(0, Iterator::count)
}

/// The daemon's resident set in KiB.
#[cfg(target_os = "linux")]
fn rss_kib(pid: u32) -> u64 {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).unwrap_or_default();
    let line = status.lines().find(|l| l.starts_with("VmRSS:"));
    let kib = line.and_then(|l| l.split_whitespace().nth(1)?.parse().ok());
    kib.expect("a VmRSS line")
}

#[cfg(target_os = "linux")]
#[test]
fn a_connection_the_host_cannot_give_a_thread_gets_a_typed_reply() {
    // Each connection thread reserves `ENT_STACK_SIZE` of address space,
    // so under this limit only a few fit and a later connection's thread
    // cannot start. That connection reads one `overloaded` line (it once
    // closed without a reply), and the connections already open keep
    // answering.
    let daemon = Daemon::start_limited(1_500_000, "256m", &["--workers", "1"]);
    let mut first = daemon.connect();
    first.assert_healthy("first");
    let mut open = Vec::new();
    let refused = loop {
        assert!(open.len() < 64, "every connection got a thread");
        let mut c = daemon.connect();
        let reply = c.ask("health", &[("id", "next")]);
        if str_at(&reply, &["status"]) != "ok" {
            break reply;
        }
        open.push(c);
    };
    assert_eq!(str_at(&refused, &["error"]), "overloaded", "{refused:?}");
    first.assert_healthy("after");
}

#[test]
fn each_answered_connection_holds_exactly_one_thread() {
    // Eight permits start no thread: idle, the daemon runs its accept
    // loop and its ticker.
    let daemon = Daemon::start(&["--workers", "8"]);
    let idle = daemon.poll(threads, |n| n == 2);
    assert_eq!(idle, 2, "an idle daemon's threads");
    let mut clients = Vec::new();
    for open in 1..=3 {
        let mut c = daemon.connect();
        c.assert_healthy("h");
        clients.push(c);
        assert_eq!(
            threads(daemon.child.id()),
            2 + open,
            "after {open} answered connections"
        );
    }
    while let Some(c) = clients.pop() {
        drop(c);
        let want = 2 + clients.len();
        let now = daemon.poll(threads, |n| n == want);
        assert_eq!(now, want, "a closed connection's thread exits");
    }
}

#[cfg(target_os = "linux")]
#[test]
fn a_deep_job_leaves_its_stack_pages_behind() {
    // A debug build takes about 11 KiB of stack per parenthesis level, so
    // compiling this touches about 55 MB of the connection's stack.
    let daemon = Daemon::start(&["--workers", "2"]);
    let mut c = daemon.connect();
    c.assert_healthy("before");
    let before = rss_kib(daemon.child.id());
    // A `health` pipelined behind the job is answered after the thread
    // has handed the job's stack pages back.
    let deep = nested(5000);
    let run = request("run", &[("id", "deep"), ("tenant", "t"), ("src", &deep)]);
    let health = request("health", &[("id", "pipelined")]);
    let lines = format!("{run}\n{health}\n");
    c.writer
        .write_all(lines.as_bytes())
        .expect("send two requests");
    assert_done(&c.reply(), 0, "result: 1");
    assert_eq!(str_at(&c.reply(), &["id"]), "pipelined");
    let slack = 16 << 10;
    let after = daemon.poll(rss_kib, |kib| kib <= before + slack);
    assert!(
        after <= before + slack,
        "VmRSS {before} KiB before the job, {after} KiB after"
    );
    c.assert_healthy("after");
}
