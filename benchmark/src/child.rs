//! Child processes: starting them so they cannot outlive the benchmark,
//! reaping them with the kernel's resource accounting, and the
//! stale-binary guard.

use std::ffi::{c_int, c_long};
use std::io;
use std::os::unix::process::{CommandExt as _, ExitStatusExt};
use std::path::Path;
use std::process::{Child, Command, ExitStatus};
use std::time::SystemTime;

/// What the kernel accounted to one reaped child.
#[derive(Clone, Copy, Debug)]
pub struct Usage {
    /// How it ended.
    pub status: ExitStatus,
    /// `ru_maxrss` in bytes.  Linux carries the benchmark's own peak
    /// across the fork into this, so it is the child's peak only when
    /// that is the larger; [`Proc::peak_rss`] reads a live child's own.
    pub peak_rss: u64,
}

/// Linux `struct rusage`: two `timeval`s (four longs), then fourteen
/// longs of which `ru_maxrss` (KiB) is the first.
#[repr(C)]
struct Rusage {
    _times: [c_long; 4],
    maxrss: c_long,
    _rest: [c_long; 13],
}

extern "C" {
    fn wait4(pid: c_int, status: *mut c_int, options: c_int, usage: *mut Rusage) -> c_int;
    fn prctl(option: c_int, arg2: std::ffi::c_ulong, ...) -> c_int;
}

const PR_SET_PDEATHSIG: c_int = 1;
const SIGKILL: std::ffi::c_ulong = 9;

/// A command for a process under test, killed by the kernel if the
/// benchmark dies first, so an interrupted run cannot leave a server
/// behind.  It may run on every CPU the benchmark may.
pub fn command(program: &Path) -> Command {
    let mut cmd = Command::new(program);
    // SAFETY: the hook runs in the forked child before `exec` and makes
    // only one system call, which is async-signal-safe.
    unsafe {
        cmd.pre_exec(|| match prctl(PR_SET_PDEATHSIG, SIGKILL) {
            0 => Ok(()),
            _ => Err(io::Error::last_os_error()),
        })
    };
    cmd
}

fn reap(pid: u32) -> io::Result<Usage> {
    let pid = c_int::try_from(pid).map_err(|_| io::Error::other("pid out of range"))?;
    let mut status: c_int = 0;
    let mut ru = Rusage { _times: [0; 4], maxrss: 0, _rest: [0; 13] };
    loop {
        // SAFETY: `status` and `ru` are live, writable locals with the C
        // layouts `wait4` expects; it writes through the pointers only
        // before returning.
        let r = unsafe { wait4(pid, &mut status, 0, &mut ru) };
        if r == pid {
            break;
        }
        let e = io::Error::last_os_error();
        if e.kind() != io::ErrorKind::Interrupted {
            return Err(e);
        }
    }
    Ok(Usage { status: ExitStatus::from_raw(status), peak_rss: (ru.maxrss as u64) * 1024 })
}

/// A child process that is always reaped: [`Proc::wait`] collects its
/// usage, and dropping an unwaited `Proc` kills and reaps it, so a run
/// that fails part-way leaves no process behind.
pub struct Proc {
    child: Option<Child>,
}

impl Proc {
    /// Takes ownership of a spawned child.
    pub fn new(child: Child) -> Proc {
        Proc { child: Some(child) }
    }

    /// The child, for its pipes.
    pub fn child(&mut self) -> &mut Child {
        self.child.as_mut().expect("a Proc holds its child until waited")
    }

    /// The running child's own peak resident set size (`VmHWM`) in bytes.
    pub fn peak_rss(&mut self) -> io::Result<u64> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child().id()))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:")?.trim().strip_suffix("kB")?.trim().parse().ok())
            .map(|kib: u64| kib * 1024)
            .ok_or_else(|| io::Error::other("no VmHWM in /proc/<pid>/status"))
    }

    /// Waits for the child to exit and returns what it used.
    #[expect(clippy::zombie_processes, reason = "`reap` waits for it, with the usage std omits")]
    pub fn wait(mut self) -> io::Result<Usage> {
        let child = self.child.take().expect("a Proc is waited once");
        reap(child.id())
    }
}

impl Drop for Proc {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = reap(child.id());
        }
    }
}

fn mtime(path: &Path) -> Result<SystemTime, String> {
    std::fs::metadata(path)
        .and_then(|m| m.modified())
        .map_err(|e| format!("{}: {e}", path.display()))
}

/// The source files Cargo recorded in a dep-info file (`target: dep …`,
/// spaces inside paths escaped as `\ `).
fn dep_info_sources(text: &str) -> Vec<String> {
    let mut out = Vec::new();
    for line in text.lines() {
        let Some((_, deps)) = line.split_once(": ") else { continue };
        let mut cur = String::new();
        let mut chars = deps.chars().peekable();
        while let Some(c) = chars.next() {
            match c {
                '\\' if chars.peek() == Some(&' ') => cur.push(chars.next().expect("peeked")),
                c if c.is_whitespace() => {
                    out.extend((!cur.is_empty()).then(|| std::mem::take(&mut cur)))
                }
                c => cur.push(c),
            }
        }
        out.extend((!cur.is_empty()).then_some(cur));
    }
    out
}

/// Refuses a binary that is older than any source file it was built from
/// (as listed in Cargo's `<binary>.d`): timing a stale build would credit
/// or blame the wrong code.
pub fn check_fresh(bin: &Path) -> Result<(), String> {
    let built = mtime(bin)?;
    let dep = bin.with_extension("d");
    let text = std::fs::read_to_string(&dep).map_err(|e| format!("{}: {e}", dep.display()))?;
    let sources = dep_info_sources(&text);
    if sources.is_empty() {
        return Err(format!("{} lists no sources", dep.display()));
    }
    for src in sources {
        if mtime(Path::new(&src))? > built {
            return Err(format!(
                "{} is older than {src}; rebuild it (benchmark/run.sh does)",
                bin.display()
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dep_info_parsing_handles_escaped_spaces() {
        let text = "/t/release/mbbc: /r/a.rs /r/my\\ dir/b.rs\n\n/r/a.rs:\n";
        assert_eq!(dep_info_sources(text), ["/r/a.rs", "/r/my dir/b.rs"]);
    }

    #[test]
    fn reaping_reports_status_and_usage() {
        let child = std::process::Command::new("true").spawn().expect("spawn true");
        let u = Proc::new(child).wait().expect("reap");
        assert!(u.status.success());
        assert!(u.peak_rss > 0);
    }

    #[test]
    fn a_live_child_reports_its_own_peak() {
        let child = std::process::Command::new("sleep").arg("5").spawn().expect("spawn sleep");
        let mut p = Proc::new(child);
        let peak = p.peak_rss().expect("VmHWM");
        assert!(peak > 0 && peak < 64 << 20, "{peak}");
    }
}
