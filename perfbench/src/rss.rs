//! Peak resident set size per rep.
//!
//! The process-wide high-water mark (`VmHWM`) only grows, so one large
//! rep would decide `peak_rss_mb` for the whole run. A sampler thread
//! instead reads the current resident set (`VmRSS` in
//! `/proc/self/status`) every few milliseconds and keeps the maximum
//! since the last [`RssSampler::take_peak_mb`], so each rep reports its
//! own peak and the run reports the median. [`release_free_memory`]
//! hands the allocator's free pages back first, so a rep's peak does not
//! depend on what earlier reps left cached in the heap.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Sampling period: far shorter than the ingestion and query phases
/// whose buffers make up the peaks.
const PERIOD: Duration = Duration::from_millis(5);

/// Resident set size of this process in KiB; `None` without `/proc`.
fn current_rss_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find(|l| l.starts_with("VmRSS:"))?
        .split_whitespace()
        .nth(1)?
        .parse()
        .ok()
}

/// Returns the allocator's free memory to the kernel (glibc
/// `malloc_trim`, which trims every arena); a no-op elsewhere.
pub fn release_free_memory() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> std::os::raw::c_int;
        }
        // SAFETY: malloc_trim only releases free heap pages; it takes no
        // pointers and is safe to call from any thread at any time.
        unsafe {
            malloc_trim(0);
        }
    }
}

/// A background thread tracking the largest resident set seen.
pub struct RssSampler {
    max_kb: Arc<AtomicU64>,
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
}

impl RssSampler {
    /// Starts sampling.
    pub fn start() -> RssSampler {
        let max_kb = Arc::new(AtomicU64::new(current_rss_kb().unwrap_or(0)));
        let stop = Arc::new(AtomicBool::new(false));
        let thread = {
            let (max_kb, stop) = (Arc::clone(&max_kb), Arc::clone(&stop));
            std::thread::spawn(move || {
                while !stop.load(Ordering::SeqCst) {
                    if let Some(kb) = current_rss_kb() {
                        max_kb.fetch_max(kb, Ordering::SeqCst);
                    }
                    std::thread::sleep(PERIOD);
                }
            })
        };
        RssSampler {
            max_kb,
            stop,
            thread: Some(thread),
        }
    }

    /// The largest resident set since the previous call (or the start),
    /// MiB; restarts the maximum from the current size.
    pub fn take_peak_mb(&self) -> f64 {
        let now = current_rss_kb().unwrap_or(0);
        let peak = self.max_kb.swap(now, Ordering::SeqCst).max(now);
        peak as f64 / 1024.0
    }
}

impl Drop for RssSampler {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sees_an_allocation_and_restarts_after_taking() {
        if current_rss_kb().is_none() {
            return; // no /proc on this platform
        }
        let sampler = RssSampler::start();
        let before = sampler.take_peak_mb();
        let block = vec![1u8; 64 << 20];
        std::thread::sleep(PERIOD * 4);
        std::hint::black_box(&block);
        let with_block = sampler.take_peak_mb();
        assert!(with_block >= before + 32.0, "{before} -> {with_block}");
        drop(block);
        // The window taken next starts at the size it is taken at, so
        // one more window passes before the block is out of the peak.
        sampler.take_peak_mb();
        std::thread::sleep(PERIOD * 4);
        assert!(sampler.take_peak_mb() < with_block);
    }
}
