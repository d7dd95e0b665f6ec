//! Running the system binary as a child process: spawn with piped
//! output, timestamp each output line as it arrives, and reap with
//! `wait4(2)` so the child's own peak RSS and CPU time come back with its
//! exit status.

use std::io::{self, BufRead, BufReader, Read};
use std::os::unix::process::CommandExt;
use std::path::Path;
use std::process::{Child, ChildStderr, ChildStdout, Command, Stdio};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

#[repr(C)]
#[derive(Default, Clone, Copy)]
struct Timeval {
    tv_sec: i64,
    tv_usec: i64,
}

/// `struct rusage` on 64-bit Linux: two timevals, then fourteen longs of
/// which the first is `ru_maxrss` in KiB.
#[repr(C)]
#[derive(Default, Clone, Copy)]
struct Rusage {
    ru_utime: Timeval,
    ru_stime: Timeval,
    ru_maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
    fn kill(pid: i32, sig: i32) -> i32;
    fn prctl(option: i32, arg2: u64, arg3: u64, arg4: u64, arg5: u64) -> i32;
}

const WNOHANG: i32 = 1;
const SIGKILL: i32 = 9;
const PR_SET_PDEATHSIG: i32 = 1;

/// How a reaped child ended and what it used.
#[derive(Debug, Clone, Copy)]
pub struct Exit {
    /// Exit code, or `None` when a signal ended the process.
    pub code: Option<i32>,
    /// When `wait4` returned.
    pub at: Instant,
    /// Peak resident set size in MiB.
    pub peak_rss_mb: f64,
    /// User plus system CPU seconds.
    pub cpu_s: f64,
}

impl Exit {
    /// Whether the process exited normally with code 0.
    pub fn ok(&self) -> bool {
        self.code == Some(0)
    }
}

/// A line of child output and when the harness read it.
pub type Line = (Instant, String);

/// A running child whose stdout and stderr are collected line by line.
pub struct Proc {
    child: Child,
    /// When the child was spawned.
    pub started: Instant,
    stdout: Option<JoinHandle<Vec<Line>>>,
    stderr: Option<JoinHandle<Vec<Line>>>,
    stderr_tap: std::sync::mpsc::Receiver<Line>,
    exited: Option<Exit>,
}

fn collect<R: Read + Send + 'static>(
    pipe: R,
    tap: Option<std::sync::mpsc::Sender<Line>>,
) -> JoinHandle<Vec<Line>> {
    std::thread::spawn(move || {
        let mut lines = Vec::new();
        for line in BufReader::new(pipe).lines() {
            let Ok(line) = line else { break };
            let entry = (Instant::now(), line);
            if let Some(tap) = &tap {
                let _ = tap.send(entry.clone());
            }
            lines.push(entry);
        }
        lines
    })
}

impl Proc {
    /// Spawns `bin args…` from `cwd`. The child is killed if the harness
    /// dies first, so a killed benchmark leaves no daemon behind. Call it
    /// from the main thread: the kernel ties that signal to the spawning
    /// thread.
    pub fn spawn(bin: &Path, args: &[String], cwd: &Path) -> io::Result<Self> {
        let mut command = Command::new(bin);
        command
            .args(args)
            .current_dir(cwd)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped());
        // SAFETY: the hook runs in the forked child before exec and only
        // makes one async-signal-safe syscall, touching no memory.
        unsafe {
            command.pre_exec(|| {
                if prctl(PR_SET_PDEATHSIG, SIGKILL as u64, 0, 0, 0) != 0 {
                    return Err(io::Error::last_os_error());
                }
                Ok(())
            });
        }
        let started = Instant::now();
        let mut child = command.spawn()?;
        let out: ChildStdout = child.stdout.take().expect("stdout is piped");
        let err: ChildStderr = child.stderr.take().expect("stderr is piped");
        let (tx, rx) = std::sync::mpsc::channel();
        Ok(Self {
            child,
            started,
            stdout: Some(collect(out, None)),
            stderr: Some(collect(err, Some(tx))),
            stderr_tap: rx,
            exited: None,
        })
    }

    /// Waits for a stderr line containing `needle` and returns when it
    /// was read. `None` if the child closed stderr first or `deadline`
    /// passed.
    pub fn wait_stderr(&self, needle: &str, deadline: Instant) -> Option<Instant> {
        loop {
            let left = deadline.checked_duration_since(Instant::now())?;
            match self.stderr_tap.recv_timeout(left) {
                Ok((at, line)) if line.contains(needle) => return Some(at),
                Ok(_) => {}
                Err(_) => return None,
            }
        }
    }

    /// Non-blocking reap: `Some` once the child has exited.
    pub fn try_reap(&mut self) -> io::Result<Option<Exit>> {
        self.reap(WNOHANG)
    }

    fn reap(&mut self, options: i32) -> io::Result<Option<Exit>> {
        if self.exited.is_some() {
            return Ok(self.exited);
        }
        let mut status = 0i32;
        let mut usage = Rusage::default();
        let pid = i32::try_from(self.child.id()).expect("pid fits in pid_t");
        // SAFETY: `status` and `usage` are live, writable locals of the
        // exact C layouts `wait4` fills in; `pid` is our own unreaped
        // child (std never waits on it because `Proc` never calls
        // `Child::wait`).
        let rc = unsafe { wait4(pid, &mut status, options, &mut usage) };
        if rc < 0 {
            return Err(io::Error::last_os_error());
        }
        if rc == 0 {
            return Ok(None);
        }
        let at = Instant::now();
        let code = (status & 0x7f == 0).then_some((status >> 8) & 0xff);
        let secs = |t: Timeval| t.tv_sec as f64 + t.tv_usec as f64 / 1e6;
        self.exited = Some(Exit {
            code,
            at,
            peak_rss_mb: usage.ru_maxrss as f64 / 1024.0,
            cpu_s: secs(usage.ru_utime) + secs(usage.ru_stime),
        });
        Ok(self.exited)
    }

    /// Waits for the child to exit, killing it once `deadline` passes.
    /// Returns the exit and the child's stdout and stderr lines.
    pub fn finish(mut self, deadline: Instant) -> io::Result<(Exit, Vec<Line>, Vec<Line>)> {
        let exit = loop {
            if let Some(exit) = self.try_reap()? {
                break exit;
            }
            if Instant::now() >= deadline {
                self.kill();
                break self.reap(0)?.expect("a blocking wait4 returns the exit");
            }
            std::thread::sleep(Duration::from_millis(1));
        };
        let stdout = self.stdout.take().map(join_lines).unwrap_or_default();
        let stderr = self.stderr.take().map(join_lines).unwrap_or_default();
        Ok((exit, stdout, stderr))
    }

    fn kill(&self) {
        let pid = i32::try_from(self.child.id()).expect("pid fits in pid_t");
        // SAFETY: plain syscall on our own child's pid, which stays
        // reserved for us until we reap it.
        unsafe {
            kill(pid, SIGKILL);
        }
    }
}

fn join_lines(handle: JoinHandle<Vec<Line>>) -> Vec<Line> {
    handle.join().expect("output reader thread panicked")
}

impl Drop for Proc {
    /// A child abandoned on an error path is killed and reaped, so no
    /// process outlives the harness.
    fn drop(&mut self) {
        if self.exited.is_none() {
            self.kill();
            let _ = self.reap(0);
        }
    }
}

/// Joins output lines back into text.
pub fn text(lines: &[Line]) -> String {
    let mut out = String::new();
    for (_, line) in lines {
        out.push_str(line);
        out.push('\n');
    }
    out
}
