//! The `ent-serve` daemon binary. See [`ent_serve`] for the library.

use std::net::TcpListener;
use std::process::ExitCode;
use std::sync::Arc;

use ent_serve::server::{Server, ServerConfig};
use ent_serve::tcp;

const USAGE: &str = "\
usage: ent-serve [options]           (or: ent serve [options])

A resident multi-tenant ENT daemon speaking newline-delimited JSON
(ent-serve-proto/1) over TCP. See README.md for the wire protocol.

options:
  --addr <host:port>   listen address (default: 127.0.0.1:7474)
  --workers <n>        worker threads (default: 4)
  --queue <n>          bounded work-queue capacity (default: 64)
  --retries <n>        per-job retry budget (default: 1)
  --tick-ms <n>        mode-controller tick period (default: 500)

Runs use the ENT_ENGINE, ENT_TIER_UP and ENT_ENFORCE defaults, as
`ent run` does; a malformed value exits 1 at startup.
";

fn main() -> ExitCode {
    let mut addr = "127.0.0.1:7474".to_string();
    let mut cfg = ServerConfig::default();
    let mut tick_ms = 500u64;

    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut numeric = |name: &str| -> Result<u64, String> {
            let v = it.next().ok_or_else(|| format!("{name} needs a value"))?;
            let n: u64 = v
                .parse()
                .map_err(|_| format!("malformed {name} value `{v}`"))?;
            if n == 0 {
                return Err(format!("{name} must be at least 1"));
            }
            Ok(n)
        };
        let result = match flag.as_str() {
            "--help" | "-h" => {
                print!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            "--addr" => match it.next() {
                Some(v) => {
                    addr = v.clone();
                    Ok(())
                }
                None => Err("--addr needs a value".to_string()),
            },
            "--workers" => numeric("--workers").map(|n| cfg.workers = n as usize),
            "--queue" => numeric("--queue").map(|n| cfg.queue_capacity = n as usize),
            "--retries" => {
                // Zero retries is legitimate here: one attempt, no re-run.
                match it.next() {
                    Some(v) => match v.parse::<u32>() {
                        Ok(n) => {
                            cfg.policy.retries = n;
                            Ok(())
                        }
                        Err(_) => Err(format!("malformed --retries value `{v}`")),
                    },
                    None => Err("--retries needs a value".to_string()),
                }
            }
            "--tick-ms" => numeric("--tick-ms").map(|n| tick_ms = n),
            other => Err(format!("unknown option `{other}`")),
        };
        if let Err(msg) = result {
            eprintln!("error: {msg}\n\n{USAGE}");
            return ExitCode::from(1);
        }
    }

    if let Err(msg) = ent_runtime::check_env_settings() {
        eprintln!("error: {msg}");
        return ExitCode::from(1);
    }
    let listener = match TcpListener::bind(&addr) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("error: cannot bind `{addr}`: {e}");
            return ExitCode::from(1);
        }
    };
    eprintln!(
        "ent-serve listening on {addr} ({} workers, queue {}, {} retries, tick {tick_ms} ms)",
        cfg.workers, cfg.queue_capacity, cfg.policy.retries
    );
    let server = Arc::new(Server::start(cfg));
    tcp::serve(listener, server, tick_ms);
    ExitCode::SUCCESS
}
