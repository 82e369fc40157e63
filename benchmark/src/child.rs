//! Running the program under test as a child process: timing from spawn to
//! exit, draining its output, polling its peak resident set, and the
//! prefault that keeps the hypervisor's first-touch cost out of the timing.

use std::io::Read;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How often a child's `VmHWM` is read.
const RSS_POLL: Duration = Duration::from_millis(50);

/// Allocate, touch every page of, and free `mb` megabytes. On this host a
/// child that touches hundreds of MB of never-used guest memory pays the
/// hypervisor for each page; memory the harness has just touched and freed
/// is handed to the child already backed.
pub fn prefault(mb: usize) {
    const PAGE: usize = 4096;
    let mut block = vec![0u8; mb << 20];
    for i in (0..block.len()).step_by(PAGE) {
        block[i] = 1;
    }
    std::hint::black_box(&mut block);
}

/// Last `VmHWM` of a live process, in MB.
fn vm_hwm_mb(pid: u32) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Polls one child's peak resident set until stopped.
pub struct RssPoller {
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<f64>>,
}

impl RssPoller {
    pub fn start(pid: u32) -> RssPoller {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = stop.clone();
        let thread = std::thread::spawn(move || {
            let mut last = 0.0f64;
            loop {
                // The value is a high-water mark, so the last reading
                // before the process goes away is its peak.
                if let Some(mb) = vm_hwm_mb(pid) {
                    last = last.max(mb);
                }
                if flag.load(Ordering::SeqCst) {
                    return last;
                }
                std::thread::sleep(RSS_POLL);
            }
        });
        RssPoller {
            stop,
            thread: Some(thread),
        }
    }

    /// Take one more reading and return the peak, in MB.
    pub fn finish(mut self) -> f64 {
        self.stop.store(true, Ordering::SeqCst);
        self.thread
            .take()
            .expect("poller joined once")
            .join()
            .expect("rss poller does not panic")
    }
}

/// One finished child.
#[derive(Debug)]
pub struct ChildRun {
    /// Spawn to exit, with stdout drained.
    pub wall_s: f64,
    pub peak_rss_mb: f64,
    pub stdout: String,
    pub success: bool,
}

/// Run `program args...` to completion with stdout drained.
pub fn run_to_exit(program: &Path, args: &[&str]) -> std::io::Result<ChildRun> {
    let t0 = Instant::now();
    let mut child = Command::new(program)
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()?;
    let poller = RssPoller::start(child.id());
    let mut stdout = String::new();
    let read = child
        .stdout
        .take()
        .expect("stdout was piped")
        .read_to_string(&mut stdout);
    let status = child.wait();
    let wall_s = t0.elapsed().as_secs_f64();
    let peak_rss_mb = poller.finish();
    read?;
    Ok(ChildRun {
        wall_s,
        peak_rss_mb,
        stdout,
        success: status?.success(),
    })
}

/// Kills and reaps a child when dropped, so no error path leaves a server
/// behind.
pub struct KillOnDrop(pub Child);

impl Drop for KillOnDrop {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// The deterministic part of `mcs run` output: per-batch k and entropy
/// (the rate column is a timing), checkpoint notes, printed k, the integer
/// tallies and the mesh summary.
pub fn run_signature(stdout: &str) -> String {
    let mut sig = String::new();
    for line in stdout.lines() {
        let cols: Vec<&str> = line.split_whitespace().collect();
        let keep = match cols.as_slice() {
            [_, "active" | "inactive", k, entropy, _rate] => {
                Some(format!("batch {} {} {k} {entropy}", cols[0], cols[1]))
            }
            ["checkpoint", ..] | ["k-effective", ..] | ["tallies:", ..] | ["mesh", ..] => {
                Some(cols.join(" "))
            }
            _ => None,
        };
        if let Some(l) = keep {
            sig.push_str(&l);
            sig.push('\n');
        }
    }
    sig
}

#[cfg(test)]
mod tests {
    use super::*;

    const OUT: &str = "\
 batch      kind    k_track   entropy  rate(n/s)
     0  inactive    0.76071     5.311      96321
     1    active    0.74120     5.402     101223
                  checkpoint after batch 2

k-effective = 0.75988 ± 0.01075
tallies: 1721987 segments, 441113 collisions, 10847 absorptions, 7171 fissions, 12193 leaks
mesh tally: 1156 cells, max relative error 28.48% (cells above 10% of mean)
";

    #[test]
    fn signature_keeps_results_and_drops_timings() {
        let sig = run_signature(OUT);
        assert_eq!(
            sig,
            "batch 0 inactive 0.76071 5.311\n\
             batch 1 active 0.74120 5.402\n\
             checkpoint after batch 2\n\
             k-effective = 0.75988 ± 0.01075\n\
             tallies: 1721987 segments, 441113 collisions, 10847 absorptions, 7171 fissions, 12193 leaks\n\
             mesh tally: 1156 cells, max relative error 28.48% (cells above 10% of mean)\n"
        );
        let slower = OUT.replace("96321", "12").replace("101223", "13");
        assert_eq!(run_signature(&slower), sig);
    }

    #[test]
    fn a_failed_run_has_no_signature() {
        assert_eq!(
            run_signature("error: invalid plan x: plan line 3: nope\n"),
            ""
        );
    }
}
