//! Text trace files (Dinero-style) for interoperability.
//!
//! Every access is one line, `r <hex-addr> <size>` or `w <hex-addr>
//! <size>` — close enough to the classic DineroIV `din` format that
//! external cache simulators can consume our traces, and simple enough
//! that traces from elsewhere can be replayed through this crate's
//! hierarchy.  [`TraceWriter`] is an [`AccessSink`], so it can tee off an
//! interpreter run; [`replay`] feeds a reader's lines into any sink.

use std::io::{self, BufRead, Write};

use mbb_ir::trace::{Access, AccessKind, AccessSink};

/// An [`AccessSink`] that serialises accesses to a writer, one per line.
pub struct TraceWriter<W: Write> {
    out: W,
    /// Records the first I/O error; subsequent accesses are dropped.
    pub error: Option<io::Error>,
    written: u64,
}

impl<W: Write> TraceWriter<W> {
    /// Wraps a writer.
    pub fn new(out: W) -> Self {
        TraceWriter { out, error: None, written: 0 }
    }

    /// Number of accesses written so far.
    pub fn written(&self) -> u64 {
        self.written
    }

    /// Finishes, flushing and surfacing any deferred error.
    pub fn finish(mut self) -> io::Result<u64> {
        if let Some(e) = self.error {
            return Err(e);
        }
        self.out.flush()?;
        Ok(self.written)
    }
}

impl<W: Write> AccessSink for TraceWriter<W> {
    fn access(&mut self, a: Access) {
        if self.error.is_some() {
            return;
        }
        let kind = match a.kind {
            AccessKind::Read => 'r',
            AccessKind::Write => 'w',
        };
        if let Err(e) = writeln!(self.out, "{kind} {:x} {}", a.addr, a.size) {
            self.error = Some(e);
        } else {
            self.written += 1;
        }
    }
}

/// Parses one trace line.
pub fn parse_line(line: &str) -> Result<Access, String> {
    let mut parts = line.split_whitespace();
    let kind = match parts.next() {
        Some("r") | Some("R") => AccessKind::Read,
        Some("w") | Some("W") => AccessKind::Write,
        other => return Err(format!("bad access kind {other:?}")),
    };
    let addr = parts
        .next()
        .ok_or("missing address")
        .and_then(|t| u64::from_str_radix(t, 16).map_err(|_| "bad hex address"))
        .map_err(|e| e.to_string())?;
    let size: u32 = match parts.next() {
        // DineroIV traces omit the size; default to 8 (one f64 cell).
        None => 8,
        Some(t) => t.parse().map_err(|_| format!("bad size `{t}`"))?,
    };
    if parts.next().is_some() {
        return Err("trailing tokens".into());
    }
    Ok(Access { addr, size, kind })
}

/// Replays a trace from a reader into a sink; blank lines and `#` comments
/// are skipped.  Returns the number of accesses replayed.
///
/// Parsed accesses reach the sink one at a time in their original order,
/// so the sink sees exactly the stream the file records.
pub fn replay<R: BufRead>(reader: R, sink: &mut dyn AccessSink) -> io::Result<u64> {
    let mut count = 0;
    for (k, line) in reader.lines().enumerate() {
        let line = line?;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        let a = parse_line(trimmed).map_err(|e| {
            io::Error::new(io::ErrorKind::InvalidData, format!("line {}: {e}", k + 1))
        })?;
        sink.access(a);
        count += 1;
    }
    Ok(count)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::MachineModel;
    use mbb_ir::builder::*;
    use mbb_ir::interp::Interpreter;

    fn little_program() -> mbb_ir::Program {
        let mut b = ProgramBuilder::new("t");
        let a = b.array_out("a", &[64]);
        let i = b.var("i");
        b.nest("k", &[(i, 0, 63)], vec![assign(a.at([v(i)]), ld(a.at([v(i)])) + lit(1.0))]);
        b.finish()
    }

    #[test]
    fn write_and_replay_round_trip() {
        let p = little_program();
        // Record the trace.
        let mut buf = Vec::new();
        {
            let mut w = TraceWriter::new(&mut buf);
            Interpreter::new(&p).run(&mut w).unwrap();
            assert_eq!(w.written(), 128); // 64 loads + 64 stores
        }
        // Replaying it through a hierarchy matches the direct simulation.
        let m = MachineModel::origin2000();
        let mut direct = m.hierarchy();
        Interpreter::new(&p).run(&mut direct).unwrap();
        let mut replayed = m.hierarchy();
        let n = replay(io::BufReader::new(&buf[..]), &mut replayed).unwrap();
        assert_eq!(n, 128);
        assert_eq!(direct.report(), replayed.report());
    }

    #[test]
    fn parse_line_variants() {
        assert_eq!(parse_line("r ff 8").unwrap(), Access::read(0xff, 8));
        assert_eq!(parse_line("W 10 4").unwrap(), Access::write(0x10, 4));
        // Size defaults to 8.
        assert_eq!(parse_line("r 20").unwrap(), Access::read(0x20, 8));
        assert!(parse_line("x 10 8").is_err());
        assert!(parse_line("r zz 8").is_err());
        assert!(parse_line("r 10 8 extra").is_err());
    }

    #[test]
    fn replay_skips_comments_and_blanks() {
        let text = "# header\n\nr 0 8\n  \nw 8 8\n";
        let mut c = mbb_ir::trace::CountingSink::new();
        let n = replay(io::BufReader::new(text.as_bytes()), &mut c).unwrap();
        assert_eq!(n, 2);
        assert_eq!(c.reads, 1);
        assert_eq!(c.writes, 1);
    }

    #[test]
    fn replay_reports_bad_lines_with_numbers() {
        let text = "r 0 8\nbogus\n";
        let mut c = mbb_ir::trace::CountingSink::new();
        let e = replay(io::BufReader::new(text.as_bytes()), &mut c).unwrap_err();
        assert!(e.to_string().contains("line 2"), "{e}");
    }
}
