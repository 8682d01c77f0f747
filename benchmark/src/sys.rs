//! What the benchmark asks the operating system: bytes written, peak
//! memory, directory sizes, scratch directories, allocation counts, and a
//! watchdog so a hung workload fails instead of stalling the pipeline.

use std::alloc::{GlobalAlloc, Layout, System};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::Mutex;
use std::time::Duration;

/// `wchar` and `syscw` of `/proc/self/io`: bytes the process passed to
/// write-like system calls, and how many such calls it made. Reads 0 on a
/// system without the file, which turns `write_amp` into 0 rather than a
/// wrong number.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct IoCounters {
    pub wchar: u64,
    pub syscw: u64,
}

impl IoCounters {
    pub fn read() -> Self {
        let text = std::fs::read_to_string("/proc/self/io").unwrap_or_default();
        let field = |name: &str| {
            text.lines()
                .find_map(|l| l.strip_prefix(name)?.strip_prefix(':')?.trim().parse().ok())
                .unwrap_or(0)
        };
        IoCounters {
            wchar: field("wchar"),
            syscw: field("syscw"),
        }
    }

    pub fn since(self, earlier: IoCounters) -> IoCounters {
        IoCounters {
            wchar: self.wchar - earlier.wchar,
            syscw: self.syscw - earlier.syscw,
        }
    }
}

/// Peak resident set (`VmHWM`) in MiB.
pub fn peak_rss_mib() -> f64 {
    let text = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    text.lines()
        .find_map(|l| {
            l.strip_prefix("VmHWM:")?
                .trim()
                .strip_suffix("kB")?
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Total size of the regular files under `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

fn copy_dir(from: &Path, to: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        let target = to.join(entry.file_name());
        if entry.file_type()?.is_dir() {
            copy_dir(&entry.path(), &target)?;
        } else {
            std::fs::copy(entry.path(), target)?;
        }
    }
    Ok(())
}

static LIVE_SCRATCH: Mutex<Vec<PathBuf>> = Mutex::new(Vec::new());

/// A fresh directory under `benchmark/.tmp/`, inside the checkout (the
/// benchmark may write nowhere else), removed on drop — also when a
/// workload fails, and by the watchdog before it ends the process.
#[derive(Debug)]
pub struct ScratchDir {
    path: PathBuf,
}

impl ScratchDir {
    pub fn new(tag: &str) -> std::io::Result<Self> {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let path = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join(".tmp")
            .join(format!(
                "{tag}-{}-{}",
                std::process::id(),
                NEXT.fetch_add(1, Ordering::Relaxed)
            ));
        std::fs::create_dir_all(&path)?;
        LIVE_SCRATCH
            .lock()
            .expect("scratch registry poisoned")
            .push(path.clone());
        Ok(ScratchDir { path })
    }

    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Copies `from` into a new scratch directory: the bytes a crash
    /// would leave behind, as seen by a process that never saw the
    /// original engine.
    pub fn copy_of(from: &Path, tag: &str) -> std::io::Result<Self> {
        let dir = ScratchDir::new(tag)?;
        copy_dir(from, dir.path())?;
        Ok(dir)
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
        if let Ok(mut live) = LIVE_SCRATCH.lock() {
            live.retain(|p| p != &self.path);
        }
    }
}

fn remove_live_scratch() {
    if let Ok(live) = LIVE_SCRATCH.lock() {
        for path in live.iter() {
            let _ = std::fs::remove_dir_all(path);
        }
    }
}

/// Ends the process with a failure if it is not disarmed within `limit`:
/// a workload that hangs inside the engine is reported as failed (exit
/// code 3, no result line) rather than blocking whoever waits for it.
#[derive(Debug)]
pub struct Watchdog {
    disarm: mpsc::Sender<()>,
    thread: std::thread::JoinHandle<()>,
}

impl Watchdog {
    pub fn arm(what: String, limit: Duration) -> Self {
        let (disarm, armed) = mpsc::channel::<()>();
        let thread = std::thread::spawn(move || {
            if armed.recv_timeout(limit) == Err(RecvTimeoutError::Timeout) {
                eprintln!("watchdog: {what} exceeded {limit:?}; reported as failed");
                remove_live_scratch();
                std::process::exit(3);
            }
        });
        Watchdog { disarm, thread }
    }

    pub fn disarm(self) {
        let _ = self.disarm.send(());
        self.thread.join().expect("watchdog thread never panics");
    }
}

/// Counts allocations while switched on (traced slices only); otherwise
/// the system allocator plus one relaxed load.
pub struct CountingAlloc;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOC_COUNT: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

fn note(bytes: usize) {
    // Statistics only: nothing is published through these counters.
    if COUNTING.load(Ordering::Relaxed) {
        ALLOC_COUNT.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters touch no allocator state.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller's obligations are passed through as they are.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: `ptr` came from `System` with `layout`, as the caller guarantees.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// `(allocations, bytes requested)` counted so far.
pub fn alloc_counters() -> (u64, u64) {
    (
        ALLOC_COUNT.load(Ordering::Relaxed),
        ALLOC_BYTES.load(Ordering::Relaxed),
    )
}

pub fn set_alloc_counting(on: bool) {
    COUNTING.store(on, Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scratch_dirs_are_removed_and_copies_are_independent() {
        let original = ScratchDir::new("test").unwrap();
        std::fs::create_dir_all(original.path().join("sub")).unwrap();
        std::fs::write(original.path().join("sub/a.bin"), [1u8; 100]).unwrap();
        std::fs::write(original.path().join("b.bin"), [2u8; 23]).unwrap();
        assert_eq!(dir_bytes(original.path()), 123);
        let copy = ScratchDir::copy_of(original.path(), "test-copy").unwrap();
        assert_eq!(dir_bytes(copy.path()), 123);
        let (kept, gone) = (copy.path().to_owned(), original.path().to_owned());
        drop(original);
        assert!(!gone.exists() && kept.join("sub/a.bin").exists());
        drop(copy);
        assert!(!kept.exists());
    }

    #[test]
    fn proc_counters_read_on_linux() {
        let before = IoCounters::read();
        let dir = ScratchDir::new("io").unwrap();
        std::fs::write(dir.path().join("x"), vec![0u8; 4096]).unwrap();
        let delta = IoCounters::read().since(before);
        if before != IoCounters::default() {
            assert!(delta.wchar >= 4096 && delta.syscw >= 1);
        }
        assert!(peak_rss_mib() >= 0.0);
    }

    #[test]
    fn a_disarmed_watchdog_lets_the_process_live() {
        Watchdog::arm("test".into(), Duration::from_secs(60)).disarm();
    }
}
