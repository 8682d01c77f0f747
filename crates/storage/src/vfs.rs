//! The storage seam: the only code in the crate that touches files.
//!
//! A table's checkpoint and its write-ahead log reach the file system
//! through [`Vfs`], which offers exactly the calls they make — create a
//! directory, write a whole file, read a file, and open a log for
//! appending at a given length ([`Log`]), then append to it and cut it.
//! Nothing syncs yet: a written byte survives a crash of the process,
//! not of the machine.
//!
//! [`Vfs::Os`] is the real file system. Under `cfg(test)` a second half,
//! `Vfs::Sim`, keeps the files in memory (`SimFs`): deterministic, able
//! to fail or short-write a chosen call, and to drop, as a machine crash
//! would, every byte no sync covered. The storage crate's durability
//! tests run on both halves.

use std::fs::{File, OpenOptions};
use std::io::{self, Write};
use std::path::Path;
#[cfg(test)]
use std::path::PathBuf;
#[cfg(test)]
use std::sync::Arc;

#[cfg(test)]
mod sim;
#[cfg(test)]
pub(crate) use sim::{Fault, SimFs};

/// Where a table's files live.
#[derive(Debug, Clone, Default)]
pub(crate) enum Vfs {
    /// The real file system.
    #[default]
    Os,
    /// An in-memory file system shared by every clone.
    #[cfg(test)]
    Sim(Arc<SimFs>),
}

impl Vfs {
    /// Creates `dir` and every missing parent.
    pub(crate) fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
        match self {
            Vfs::Os => std::fs::create_dir_all(dir),
            #[cfg(test)]
            Vfs::Sim(fs) => fs.create_dir_all(dir),
        }
    }

    /// Replaces the file at `path` with `bytes`, creating it if needed.
    pub(crate) fn write(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        match self {
            Vfs::Os => std::fs::write(path, bytes),
            #[cfg(test)]
            Vfs::Sim(fs) => fs.write(path, bytes),
        }
    }

    /// The whole file at `path`; a missing one is `NotFound`.
    pub(crate) fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        match self {
            Vfs::Os => std::fs::read(path),
            #[cfg(test)]
            Vfs::Sim(fs) => fs.read(path),
        }
    }

    /// Opens the log at `path` for appending, creating it if needed, and
    /// cuts it to `len` bytes, so the next append lands at `len`.
    pub(crate) fn open_log(&self, path: &Path, len: u64) -> io::Result<Log> {
        match self {
            Vfs::Os => {
                let file = OpenOptions::new().create(true).append(true).open(path)?;
                file.set_len(len)?;
                Ok(Log::Os(file))
            }
            #[cfg(test)]
            Vfs::Sim(fs) => {
                fs.open_log(path, len)?;
                Ok(Log::Sim(Arc::clone(fs), path.to_owned()))
            }
        }
    }
}

/// A log file held open for appending ([`Vfs::open_log`]).
#[derive(Debug)]
pub(crate) enum Log {
    Os(File),
    #[cfg(test)]
    Sim(Arc<SimFs>, PathBuf),
}

impl Log {
    /// Appends `bytes` at the end of the file.
    pub(crate) fn append(&mut self, bytes: &[u8]) -> io::Result<()> {
        match self {
            Log::Os(file) => file.write_all(bytes),
            #[cfg(test)]
            Log::Sim(fs, path) => fs.append(path, bytes),
        }
    }

    /// Cuts the file to `len` bytes.
    pub(crate) fn cut(&mut self, len: u64) -> io::Result<()> {
        match self {
            Log::Os(file) => file.set_len(len),
            #[cfg(test)]
            Log::Sim(fs, path) => fs.cut(path, len),
        }
    }
}

#[cfg(test)]
impl Vfs {
    /// Both halves, a fresh in-memory one second: what a durability test
    /// runs on.
    pub(crate) fn halves() -> [Vfs; 2] {
        [Vfs::Os, Vfs::Sim(Arc::default())]
    }

    /// An empty directory for the test `tag`: `nf2_<tag>` under the
    /// system's temp directory, emptied first, or `/sim/<tag>` in memory.
    pub(crate) fn temp_dir(&self, tag: &str) -> PathBuf {
        let dir = match self {
            Vfs::Os => {
                let dir = std::env::temp_dir().join(format!("nf2_{tag}"));
                let _ = std::fs::remove_dir_all(&dir);
                dir
            }
            Vfs::Sim(_) => Path::new("/sim").join(tag),
        };
        self.create_dir_all(&dir).expect("temp dir creatable");
        dir
    }

    /// Removes the file or empty directory at `path`: how a test makes a
    /// file go missing.
    pub(crate) fn remove(&self, path: &Path) -> io::Result<()> {
        match self {
            Vfs::Os if path.is_dir() => std::fs::remove_dir(path),
            Vfs::Os => std::fs::remove_file(path),
            Vfs::Sim(fs) => fs.remove(path),
        }
    }
}
