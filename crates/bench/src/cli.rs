//! Command-line arguments for the harness binaries.
//!
//! Bad input never ends in a backtrace: an unknown flag or target, a
//! missing value, or an unparsable one prints the message and the usage
//! text to stderr and exits with status 2. `--help` prints the usage to
//! stdout and exits 0.

use std::str::FromStr;

/// The process arguments of one binary, read front to back.
pub struct Args {
    usage: &'static str,
    args: std::vec::IntoIter<String>,
}

impl Args {
    /// The process arguments (program name skipped) of a binary whose
    /// usage text is `usage`.
    pub fn from_env(usage: &'static str) -> Self {
        let args: Vec<String> = std::env::args().skip(1).collect();
        Args {
            usage,
            args: args.into_iter(),
        }
    }

    /// The next argument; `--help` and `-h` print the usage and exit.
    pub fn next_arg(&mut self) -> Option<String> {
        let arg = self.args.next()?;
        if arg == "--help" || arg == "-h" {
            println!("{}", self.usage);
            std::process::exit(0);
        }
        Some(arg)
    }

    /// Prints `msg` and the usage to stderr and exits with status 2.
    pub fn fail(&self, msg: &str) -> ! {
        eprintln!("error: {msg}\n\n{}", self.usage);
        std::process::exit(2)
    }

    /// The value following `flag`.
    pub fn value(&mut self, flag: &str) -> String {
        match self.args.next() {
            Some(v) => v,
            None => self.fail(&format!("{flag} needs a value")),
        }
    }

    /// The value following `flag`, parsed.
    pub fn parse<T: FromStr>(&mut self, flag: &str) -> T {
        let v = self.value(flag);
        self.parse_as(flag, &v)
    }

    /// `text` (part of `flag`'s value) parsed.
    pub fn parse_as<T: FromStr>(&self, flag: &str, text: &str) -> T {
        text.parse()
            .unwrap_or_else(|_| self.fail(&format!("{flag}: cannot parse {text:?}")))
    }
}
