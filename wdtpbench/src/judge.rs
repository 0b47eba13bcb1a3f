//! The judge under test: `serve_judge` processes spawned, measured
//! through `/proc`, and always killed and reaped.

use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use crate::workload::{Workload, FRESH_CACHE_MB};

/// `serve_judge` flags every process of a workload gets, before its own.
fn common_flags(key_file: &Path) -> Vec<String> {
    vec![
        "--addr".into(),
        "127.0.0.1:0".into(),
        "--key-file".into(),
        key_file.display().to_string(),
        "--stats-interval-secs".into(),
        "0".into(),
    ]
}

/// The judge flags of a workload, per process: backends first, the
/// process clients connect to last. `routed` spawns its two backends
/// itself and hands their addresses to the router (`{backends}` below),
/// rather than using `--spawn-backends`, so that the benchmark owns, can
/// measure and reaps every judge process.
pub fn flags(workload: Workload) -> Vec<Vec<String>> {
    let own = |flags: &[&str]| flags.iter().map(|flag| flag.to_string()).collect::<Vec<_>>();
    match workload {
        Workload::Resident => vec![vec![]],
        Workload::Fresh => vec![own(&["--claim-cache-mb", &FRESH_CACHE_MB.to_string()])],
        Workload::Routed => vec![
            own(&["--workers", "1"]),
            own(&["--workers", "1"]),
            own(&["--router", "--backends", "{backends}"]),
        ],
    }
}

/// One running `serve_judge` process.
pub struct Process {
    child: Child,
    pub addr: String,
}

impl Process {
    fn spawn(bin: &Path, flags: &[String], port_file: &Path) -> Result<Process, String> {
        let _ = std::fs::remove_file(port_file);
        let mut child = Command::new(bin)
            .args(flags)
            .arg("--port-file")
            .arg(port_file)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .spawn()
            .map_err(|err| format!("spawning {}: {err}", bin.display()))?;
        let deadline = Instant::now() + Duration::from_secs(60);
        loop {
            if let Ok(addr) = std::fs::read_to_string(port_file) {
                let _ = std::fs::remove_file(port_file);
                return Ok(Process {
                    child,
                    addr: addr.trim().to_string(),
                });
            }
            let exited = child.try_wait().map(|status| status.is_some()).unwrap_or(true);
            if exited || Instant::now() >= deadline {
                let _ = child.kill();
                let _ = child.wait();
                return Err(format!("serve_judge {} never came up", flags.join(" ")));
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    fn stop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// A judge: one process, or a router in front of its backends.
pub struct Judge {
    /// Backends first; the last process is the one clients connect to.
    pub procs: Vec<Process>,
    pub flags: Vec<Vec<String>>,
}

impl Judge {
    /// Spawns every process of `flags` (see [`flags`]), each once the
    /// previous one listens.
    pub fn spawn(
        bin: &Path,
        flags: &[Vec<String>],
        key_file: &Path,
        dir: &Path,
    ) -> Result<Judge, String> {
        let mut judge = Judge {
            procs: Vec::new(),
            flags: Vec::new(),
        };
        for (index, own) in flags.iter().enumerate() {
            let backends: Vec<&str> = judge.procs.iter().map(|proc| proc.addr.as_str()).collect();
            let backends = backends.join(",");
            let mut all = common_flags(key_file);
            all.extend(own.iter().map(|flag| flag.replace("{backends}", &backends)));
            let port_file: PathBuf = dir.join(format!("judge-{index}.port"));
            judge.procs.push(Process::spawn(bin, &all, &port_file)?);
            judge.flags.push(all);
        }
        Ok(judge)
    }

    /// The address clients connect to.
    pub fn addr(&self) -> &str {
        &self.procs.last().expect("a judge has a process").addr
    }

    /// Peak resident set (`VmHWM`) summed over the judge's processes, MiB.
    pub fn peak_rss_mb(&self) -> f64 {
        self.procs
            .iter()
            .map(|proc| status_kb(proc.pid(), "VmHWM:").unwrap_or(0) as f64 / 1024.0)
            .sum()
    }

    /// CPU seconds (user + system) used so far by the judge's processes.
    pub fn cpu_seconds(&self) -> f64 {
        self.procs
            .iter()
            .map(|proc| cpu_seconds(&format!("/proc/{}/stat", proc.pid())))
            .sum()
    }
}

impl Drop for Judge {
    fn drop(&mut self) {
        // Clients first: the router goes before its backends.
        for proc in self.procs.iter_mut().rev() {
            proc.stop();
        }
    }
}

/// A `kB` field of `/proc/<pid>/status`.
fn status_kb(pid: u32, key: &str) -> Option<u64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|line| line.starts_with(key))?;
    line[key.len()..].trim().trim_end_matches("kB").trim().parse().ok()
}

/// User + system CPU seconds from a `/proc/.../stat` file (clock ticks
/// are 1/100 s on Linux).
pub fn cpu_seconds(stat_path: &str) -> f64 {
    let Ok(stat) = std::fs::read_to_string(stat_path) else {
        return 0.0;
    };
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line.
    let after = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let fields: Vec<&str> = after.split_whitespace().collect();
    let ticks =
        |index: usize| fields.get(index).and_then(|value| value.parse::<f64>().ok()).unwrap_or(0.0);
    (ticks(11) + ticks(12)) / 100.0
}

/// Bytes this process has sent and had acknowledged over TCP, summed over
/// its open sockets (`tcpi_bytes_acked` of `TCP_INFO`): on the generator,
/// what its connections sent to the judge. Socket writes go through
/// `send(2)`, which `/proc/self/io` does not count.
pub fn sent_bytes() -> u64 {
    extern "C" {
        fn getsockopt(fd: i32, level: i32, name: i32, value: *mut u8, len: *mut u32) -> i32;
    }
    const IPPROTO_TCP: i32 = 6;
    const TCP_INFO: i32 = 11;
    const BYTES_ACKED: std::ops::Range<usize> = 120..128;
    let Ok(entries) = std::fs::read_dir("/proc/self/fd") else {
        return 0;
    };
    let mut total = 0;
    for entry in entries.flatten() {
        let is_socket = std::fs::read_link(entry.path())
            .is_ok_and(|target| target.to_string_lossy().starts_with("socket:"));
        let Some(fd) = entry.file_name().to_str().and_then(|name| name.parse::<i32>().ok()) else {
            continue;
        };
        if !is_socket {
            continue;
        }
        let mut info = [0u8; 256];
        let mut len = info.len() as u32;
        // SAFETY: `info` is writable for `len` bytes and `len` is a valid
        // out-pointer; the kernel writes at most `len` bytes. A descriptor
        // that is not a TCP socket (or was closed meanwhile) makes the call
        // fail without touching either buffer.
        let status = unsafe { getsockopt(fd, IPPROTO_TCP, TCP_INFO, info.as_mut_ptr(), &mut len) };
        if status == 0 && len as usize >= BYTES_ACKED.end {
            total += u64::from_ne_bytes(info[BYTES_ACKED].try_into().expect("an 8-byte range"));
        }
    }
    total
}
