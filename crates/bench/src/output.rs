//! Stdout for the repro binaries: every line they print goes through
//! [`say!`](crate::say), so a reader that closes the pipe early
//! (`repro_fig5 | head -5`) ends the run quietly instead of with a
//! broken-pipe panic.

use std::io::{ErrorKind, Write as _};

/// Write one line to stdout. A reader that has gone ends the process with
/// exit 0 and nothing on stderr; any other write error ends it with exit 1
/// and the error's message.
pub fn write_line(line: std::fmt::Arguments<'_>) {
    if let Err(e) = writeln!(std::io::stdout().lock(), "{line}") {
        if e.kind() == ErrorKind::BrokenPipe {
            std::process::exit(0);
        }
        eprintln!("writing to stdout: {e}");
        std::process::exit(1);
    }
}

/// `println!` through [`write_line`].
#[macro_export]
macro_rules! say {
    () => {
        $crate::output::write_line(format_args!(""))
    };
    ($($arg:tt)*) => {
        $crate::output::write_line(format_args!($($arg)*))
    };
}
