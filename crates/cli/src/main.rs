//! The `ent` command-line driver. See [`ent_cli`] for the implementation.

use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // `ent serve ...` is a thin shim over the `ent-serve` binary built
    // beside this one — the daemon stays its own process so a crashing
    // tenant can never take the CLI contract down with it.
    if args.first().map(String::as_str) == Some("serve") {
        return serve_shim(&args[1..]);
    }
    let options = match ent_cli::parse_args(&args) {
        Ok(o) => o,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(1);
        }
    };
    if let Err(msg) = ent_runtime::check_env_settings() {
        eprintln!("error: {msg}");
        return ExitCode::from(1);
    }
    // `eval` takes the expression text itself; the other commands read a
    // file.
    let src = if options.command == ent_cli::Command::Eval {
        options.path.clone()
    } else {
        match std::fs::read_to_string(&options.path) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("error: cannot read `{}`: {e}", options.path);
                return ExitCode::from(1);
            }
        }
    };
    // Compile and run on one interpreter stack, of the size the run's
    // configuration gets: deeply nested sources do not overflow the main
    // thread, the run inside executes in place, and its call-depth guard
    // matches the stack it runs on.
    let stack_size = options
        .stack_size
        .unwrap_or_else(ent_runtime::default_stack_size);
    match ent_runtime::try_with_interp_stack(stack_size, || ent_cli::execute(&options, &src)) {
        Ok((code, output)) => {
            print!("{output}");
            ExitCode::from(code as u8)
        }
        Err(e) => {
            eprintln!("error: cannot start the interpreter on a {stack_size}-byte stack: {e}");
            ExitCode::from(1)
        }
    }
}

/// Execs `ent-serve` (expected next to the current executable, as cargo
/// lays workspace binaries out) with the remaining arguments. On Unix the
/// daemon replaces this process, so a signal sent to `ent serve` reaches
/// the daemon itself; elsewhere the daemon runs as a child and its exit
/// code is passed on.
fn serve_shim(rest: &[String]) -> ExitCode {
    let sibling = std::env::current_exe()
        .ok()
        .and_then(|p| p.parent().map(|d| d.join("ent-serve")));
    let program = match sibling {
        Some(p) if p.exists() => p,
        _ => std::path::PathBuf::from("ent-serve"),
    };
    let mut daemon = std::process::Command::new(&program);
    daemon.args(rest);
    // `exec` returns only when the process could not be replaced.
    #[cfg(unix)]
    let e = std::os::unix::process::CommandExt::exec(&mut daemon);
    #[cfg(not(unix))]
    let e = match daemon.status() {
        Ok(status) => return ExitCode::from(status.code().unwrap_or(1) as u8),
        Err(e) => e,
    };
    eprintln!(
        "error: cannot launch `{}`: {e} (build it with `cargo build -p ent-serve`)",
        program.display()
    );
    ExitCode::from(1)
}
