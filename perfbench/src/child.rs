//! The `lddp-cli serve` child process the HTTP workloads drive.

use std::io::{BufRead, BufReader, Read};
use std::process::{Child, Command, Stdio};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Server flags: two workers, everything else at the binary's defaults.
/// Port 0 lets the kernel pick a free loopback port.
pub const SERVER_ARGS: &[&str] = &["serve", "--addr", "127.0.0.1:0", "--workers", "2"];

pub struct ServerChild {
    child: Child,
    drain: Option<JoinHandle<()>>,
    pub addr: String,
}

impl ServerChild {
    /// Spawns the server and waits for its listening banner.
    pub fn spawn(cli: &str) -> Result<ServerChild, String> {
        let mut child = Command::new(cli)
            .args(SERVER_ARGS)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("spawning {cli}: {e}"))?;
        let mut out = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        let addr = loop {
            line.clear();
            match out.read_line(&mut line) {
                Ok(0) | Err(_) => {
                    let _ = child.kill();
                    let _ = child.wait();
                    return Err("server exited before listening".into());
                }
                Ok(_) => {
                    if let Some(rest) = line.split("http://").nth(1) {
                        break rest.split_whitespace().next().unwrap_or("").to_string();
                    }
                }
            }
        };
        // Keep reading so the drain banner never blocks on a full pipe.
        let drain = std::thread::spawn(move || {
            let _ = out.read_to_end(&mut Vec::new());
        });
        Ok(ServerChild {
            child,
            drain: Some(drain),
            addr,
        })
    }

    /// Peak resident set of the server so far (`VmHWM`), MiB.
    pub fn peak_rss_mib(&self) -> Result<f64, String> {
        vm_field(&format!("/proc/{}/status", self.child.id()), "VmHWM:")
    }

    pub fn get(&self, path: &str) -> Result<String, String> {
        match lddp_serve::http::request(&self.addr, "GET", path, None, Duration::from_secs(10))? {
            (200, body) => Ok(body),
            (status, _) => Err(format!("GET {path}: HTTP {status}")),
        }
    }

    /// Graceful drain, then reap; kills the child if it does not exit.
    pub fn shutdown(mut self) -> Result<(), String> {
        let asked = lddp_serve::http::request(
            &self.addr,
            "POST",
            "/shutdown",
            None,
            Duration::from_secs(10),
        );
        let deadline = Instant::now() + Duration::from_secs(30);
        while Instant::now() < deadline {
            if let Ok(Some(status)) = self.child.try_wait() {
                self.join_drain();
                return match (asked, status.success()) {
                    (Ok(_), true) => Ok(()),
                    (Err(e), _) => Err(format!("shutdown request failed: {e}")),
                    (_, false) => Err(format!("server exited with {status}")),
                };
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        Err("server did not drain within 30 s".into())
    }

    fn join_drain(&mut self) {
        if let Some(h) = self.drain.take() {
            let _ = h.join();
        }
    }
}

impl Drop for ServerChild {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
        self.join_drain();
    }
}

/// A `kB` field of a `/proc/<pid>/status` file, in MiB.
pub fn vm_field(path: &str, field: &str) -> Result<f64, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    text.lines()
        .find_map(|l| l.strip_prefix(field))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| format!("{path}: no {field}"))
}
