//! Building, spawning and stopping the `mlconf` binary.

use std::io::BufRead;

use mlconf_serve::json::Json;

use crate::Env;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, ExitStatus, Stdio};
use std::time::{Duration, Instant};

/// How long a spawned server may take to answer `/healthz`.
const HEALTHZ_DEADLINE: Duration = Duration::from_secs(20);

/// Builds the `mlconf` release binary from the checkout at `repo` into
/// the benchmark's own target directory and returns its path.
///
/// # Errors
///
/// Fails when `repo` holds no `mlconf` sources or the build fails.
pub fn build_mlconf(repo: &Path) -> Result<PathBuf, String> {
    if !repo.join("crates/mlconf-cli/Cargo.toml").is_file() {
        return Err(format!(
            "{} holds no mlconf sources (run from the repository root)",
            repo.display()
        ));
    }
    let target = target_dir()?;
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let status = Command::new(cargo)
        .args([
            "build",
            "--offline",
            "--release",
            "-q",
            "-p",
            "mlconf-cli",
            "--bin",
            "mlconf",
        ])
        .arg("--target-dir")
        .arg(&target)
        .current_dir(repo)
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building mlconf failed: {status}"));
    }
    let bin = target.join("release/mlconf");
    if bin.is_file() {
        Ok(bin)
    } else {
        Err(format!("{} missing after build", bin.display()))
    }
}

/// The cargo target directory this benchmark was built into (it runs
/// from `<target>/release/`).
///
/// # Errors
///
/// Fails when the executable's location is unknown.
pub fn target_dir() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    exe.parent()
        .and_then(Path::parent)
        .map(Path::to_owned)
        .ok_or_else(|| "benchmark binary has no target directory".into())
}

/// A command [`run_to_end`] ran.
#[derive(Debug)]
pub struct Finished {
    /// How it exited.
    pub status: ExitStatus,
    /// Its standard output.
    pub stdout: String,
    /// Its standard error.
    pub stderr: String,
    /// Wall seconds from spawn to exit.
    pub wall_s: f64,
    /// Its resource use, where the platform reports it.
    pub usage: Option<Usage>,
}

/// What a finished process used.
#[derive(Debug, Clone, Copy)]
pub struct Usage {
    /// Peak resident set, in MiB.
    pub peak_rss_mb: f64,
    /// User plus system CPU time, in seconds.
    pub cpu_s: f64,
}

/// Runs `cmd` to its end with captured output, and measures its wall
/// time, peak resident set and CPU time.
///
/// # Errors
///
/// Fails when the command cannot be spawned or waited for.
pub fn run_to_end(cmd: &mut Command) -> Result<Finished, String> {
    let t0 = Instant::now();
    let mut child = cmd
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .map_err(|e| format!("cannot spawn {cmd:?}: {e}"))?;
    let mut out = child.stdout.take().expect("stdout was piped");
    let mut err = child.stderr.take().expect("stderr was piped");
    let (stdout, stderr) = std::thread::scope(|s| {
        let err_reader = s.spawn(move || {
            let mut text = String::new();
            let _ = std::io::Read::read_to_string(&mut err, &mut text);
            text
        });
        let mut text = String::new();
        let _ = std::io::Read::read_to_string(&mut out, &mut text);
        (text, err_reader.join().unwrap_or_default())
    });
    let (status, usage) =
        wait_with_usage(&mut child).map_err(|e| format!("waiting for {cmd:?}: {e}"))?;
    Ok(Finished {
        status,
        stdout,
        stderr,
        wall_s: t0.elapsed().as_secs_f64(),
        usage,
    })
}

/// Reaps `child` with `wait4`, which also reports its resource use.
#[cfg(target_os = "linux")]
fn wait_with_usage(child: &mut Child) -> std::io::Result<(ExitStatus, Option<Usage>)> {
    use std::os::raw::{c_int, c_long};
    use std::os::unix::process::ExitStatusExt;

    /// `struct rusage`: two `timeval`s (user, system), then fourteen
    /// `long`s.
    #[repr(C)]
    struct Rusage {
        times: [c_long; 4],
        maxrss_kib: c_long,
        rest: [c_long; 13],
    }
    extern "C" {
        fn wait4(pid: c_int, status: *mut c_int, options: c_int, usage: *mut Rusage) -> c_int;
    }
    let pid = c_int::try_from(child.id()).expect("pid fits a c_int");
    let mut status: c_int = 0;
    let mut usage = Rusage {
        times: [0; 4],
        maxrss_kib: 0,
        rest: [0; 13],
    };
    loop {
        // SAFETY: `pid` is our unreaped child and both out-pointers are
        // valid for writes of their types.
        if unsafe { wait4(pid, &mut status, 0, &mut usage) } == pid {
            let [user_s, user_us, sys_s, sys_us] = usage.times.map(|t| t as f64);
            let used = Usage {
                peak_rss_mb: usage.maxrss_kib as f64 / 1024.0,
                cpu_s: user_s + sys_s + (user_us + sys_us) * 1e-6,
            };
            return Ok((ExitStatus::from_raw(status), Some(used)));
        }
        let e = std::io::Error::last_os_error();
        if e.kind() != std::io::ErrorKind::Interrupted {
            return Err(e);
        }
    }
}

#[cfg(not(target_os = "linux"))]
fn wait_with_usage(child: &mut Child) -> std::io::Result<(ExitStatus, Option<Usage>)> {
    child.wait().map(|status| (status, None))
}

/// A spawned `mlconf serve`. Dropping it SIGKILLs the process and waits
/// for it.
pub struct Server {
    child: Child,
    /// `host:port` it listens on.
    pub addr: String,
    _stdout: std::io::BufReader<ChildStdout>,
}

impl Server {
    /// Spawns `mlconf serve` over `journal_dir` on an ephemeral port with
    /// `extra` flags, and waits until `/healthz` answers 200.
    ///
    /// # Errors
    ///
    /// Fails when the process cannot start, prints no address, or never
    /// becomes healthy.
    pub fn spawn(bin: &Path, journal_dir: &Path, extra: &[String]) -> Result<Server, String> {
        let mut child = Command::new(bin)
            .args(["serve", "--addr", "127.0.0.1:0", "--journal-dir"])
            .arg(journal_dir)
            .args(extra)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("cannot spawn {}: {e}", bin.display()))?;
        let mut stdout = std::io::BufReader::new(child.stdout.take().expect("stdout was piped"));
        let mut line = String::new();
        let read = stdout.read_line(&mut line);
        let addr = line
            .split_whitespace()
            .skip_while(|w| *w != "on")
            .nth(1)
            .map(str::to_owned);
        let mut server = Server {
            child,
            addr: addr.unwrap_or_default(),
            _stdout: stdout,
        };
        if read.is_err() || server.addr.is_empty() {
            return Err(format!("server printed no address: {line:?}"));
        }
        server.wait_healthy()?;
        Ok(server)
    }

    fn wait_healthy(&mut self) -> Result<(), String> {
        let deadline = Instant::now() + HEALTHZ_DEADLINE;
        loop {
            if let Ok((200, _)) = mlconf_serve::client::request(&self.addr, "GET", "/healthz", None)
            {
                return Ok(());
            }
            if let Ok(Some(status)) = self.child.try_wait() {
                return Err(format!("server exited before becoming healthy: {status}"));
            }
            if Instant::now() > deadline {
                return Err("server never answered /healthz with 200".into());
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    /// User plus system CPU time so far, in seconds, from
    /// `/proc/<pid>/stat` (in units of the kernel's fixed 100 Hz
    /// `USER_HZ`).
    pub fn cpu_s(&self) -> Option<f64> {
        let stat = std::fs::read_to_string(format!("/proc/{}/stat", self.child.id())).ok()?;
        // Fields after the parenthesised command name, from `state` on:
        // `utime` and `stime` are the 12th and 13th.
        let mut fields = stat.rsplit_once(')')?.1.split_whitespace().skip(11);
        let utime: f64 = fields.next()?.parse().ok()?;
        let stime: f64 = fields.next()?.parse().ok()?;
        Some((utime + stime) / 100.0)
    }

    /// Peak resident set (`VmHWM`) so far, in MiB.
    pub fn peak_rss_mb(&self) -> Option<f64> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id())).ok()?;
        let kb: f64 = status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))?
            .trim()
            .trim_end_matches("kB")
            .trim()
            .parse()
            .ok()?;
        Some(kb / 1024.0)
    }

    /// SIGKILLs the server and waits for it to exit.
    pub fn kill(mut self) {
        self.reap();
    }

    fn reap(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.reap();
    }
}

/// Copies the journal tree at `from` to `to` and syncs the copy, so its
/// writeback does not land inside the timed phase that follows.
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn copy_tree(from: &Path, to: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        let dest = to.join(entry.file_name());
        if entry.file_type()?.is_dir() {
            copy_tree(&entry.path(), &dest)?;
        } else {
            std::fs::copy(entry.path(), &dest)?;
            std::fs::File::open(&dest)?.sync_all()?;
        }
    }
    std::fs::File::open(to)?.sync_all()
}

/// A served workload after set-up: the server, its sessions, and the
/// median set-up time.
pub struct Setup {
    /// The running server (the last set-up's).
    pub server: Server,
    /// Its journal directory.
    pub dir: PathBuf,
    /// Session ids, in plan order.
    pub ids: Vec<String>,
    /// Median seconds from spawn to the last session created.
    pub setup_s: f64,
}

/// Sets the service up `reps` times — spawn `mlconf serve` with
/// `extra` flags over a fresh journal directory, wait for `/healthz`,
/// create every session in `specs` — and keeps the last server. The
/// earlier directories stay until the run's work directory is removed,
/// so deleting them cannot stall a timed phase.
///
/// # Errors
///
/// Fails when a spawn or a create fails.
pub fn setup(
    env: &Env,
    name: &str,
    extra: &[String],
    specs: &[Json],
    reps: usize,
) -> Result<Setup, String> {
    let mut times = Vec::with_capacity(reps);
    for rep in 0..reps {
        let dir = env.work.join(format!("{name}-{rep}"));
        let _ = std::fs::remove_dir_all(&dir);
        let t0 = Instant::now();
        let server = Server::spawn(&env.mlconf, &dir, extra)?;
        let ids = crate::loadgen::create_all(&server.addr, specs, env.workers)?;
        times.push(t0.elapsed().as_secs_f64());
        if rep + 1 == reps {
            return Ok(Setup {
                server,
                dir,
                ids,
                setup_s: crate::stats::median(&times),
            });
        }
        server.kill();
    }
    Err("no set-up repetitions".into())
}
