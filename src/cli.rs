//! The argument loop every binary of the workspace shares: `--help`
//! answers on stdout and exits 0, every usage error goes to stderr as one
//! `error: ` line and exits 2 — distinct from the exit 1 of a failed or
//! violating run — before any work is done.

use std::process::exit;
use std::str::FromStr;

/// The arguments after the binary's name.
pub struct Args {
    help: String,
    hint: String,
    rest: std::iter::Skip<std::env::Args>,
}

impl Args {
    /// `help` is what `--help` prints; `hint` follows every error message
    /// (the usage line, or a pointer to `--help` where that is long).
    pub fn new(help: &str, hint: &str) -> Args {
        Args {
            help: help.into(),
            hint: hint.into(),
            rest: std::env::args().skip(1),
        }
    }

    /// Report a usage error and exit 2.
    pub fn fail(&self, msg: &str) -> ! {
        eprintln!("error: {msg}");
        eprintln!("{}", self.hint);
        exit(2)
    }

    /// The next argument; `--help`/`-h` is answered here.
    pub fn next_arg(&mut self) -> Option<String> {
        let arg = self.rest.next()?;
        if arg == "--help" || arg == "-h" {
            println!("{}", self.help);
            exit(0);
        }
        Some(arg)
    }

    /// The value that follows `flag`.
    pub fn value(&mut self, flag: &str) -> String {
        let value = self.rest.next();
        value.unwrap_or_else(|| self.fail(&format!("{flag} needs a value")))
    }

    /// The value that follows `flag`, parsed; `what` names what it has to be
    /// ("a positive integer").
    pub fn parsed<T: FromStr>(&mut self, flag: &str, what: &str) -> T {
        let v = self.value(flag);
        v.parse()
            .unwrap_or_else(|_| self.fail(&format!("{flag} needs {what}, not '{v}'")))
    }

    /// The tile-worker count: the value `--tile-threads` was given, else
    /// `DXBAR_TILE_THREADS`; either way a count.
    pub fn tile_threads(&self, flag: Option<String>) -> Option<usize> {
        let (origin, v) = match flag {
            Some(v) => ("--tile-threads", v),
            None => {
                let name = "DXBAR_TILE_THREADS";
                (name, std::env::var(name).ok()?)
            }
        };
        let bad = |_| {
            self.fail(&format!(
                "{origin}: bad tile-thread count '{v}' (want a non-negative integer)"
            ))
        };
        Some(v.trim().parse().unwrap_or_else(bad))
    }
}
