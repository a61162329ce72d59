//! Standard output for the harness binaries.
//!
//! `println!` panics when the reader closes the pipe early
//! (`all_figures | head -1`), turning an ordinary shell idiom into exit
//! status 101. The binaries print through [`outln!`](crate::outln) and
//! [`print_stdout`] instead.

use std::fmt;
use std::io::{self, ErrorKind, Write};

/// Writes `args` to `out` and flushes it. Returns `false` when the
/// reader has gone away (`BrokenPipe`); panics on any other error, as
/// `print!` does.
fn write_or_gone(out: &mut impl Write, args: fmt::Arguments<'_>) -> bool {
    match out.write_fmt(args).and_then(|()| out.flush()) {
        Ok(()) => true,
        Err(e) if e.kind() == ErrorKind::BrokenPipe => false,
        Err(e) => panic!("failed printing to stdout: {e}"),
    }
}

/// `print!` of `args` that ends the process quietly with status 0 if
/// stdout's reader has gone: nothing more can be delivered.
pub fn print_stdout(args: fmt::Arguments<'_>) {
    if !write_or_gone(&mut io::stdout().lock(), args) {
        std::process::exit(0);
    }
}

/// `println!` that ends the process quietly when stdout's reader is gone.
#[macro_export]
macro_rules! outln {
    ($($arg:tt)*) => { $crate::print_stdout(format_args!("{}\n", format_args!($($arg)*))) };
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A writer that fails every write with one error kind.
    struct Failing(ErrorKind);

    impl Write for Failing {
        fn write(&mut self, _: &[u8]) -> io::Result<usize> {
            Err(io::Error::from(self.0))
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn only_a_closed_pipe_ends_the_output_quietly() {
        let mut buf = Vec::new();
        assert!(write_or_gone(&mut buf, format_args!("{}-{}", 1, 2)));
        assert_eq!(buf, b"1-2");
        let closed = &mut Failing(ErrorKind::BrokenPipe);
        assert!(!write_or_gone(closed, format_args!("line\n")));
    }

    #[test]
    #[should_panic(expected = "failed printing to stdout")]
    fn other_write_errors_still_fail_loudly() {
        write_or_gone(&mut Failing(ErrorKind::PermissionDenied), format_args!("x"));
    }
}
