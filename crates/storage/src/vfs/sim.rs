//! `SimFs`: the in-memory half of the storage seam, for tests.
//!
//! Files and directories live in maps behind one mutex, so a run is
//! deterministic. Every call through the seam is numbered from 1 and
//! traced; one call can be armed to fail ([`Fault::Fail`]) or to write
//! the first half of its bytes and then fail ([`Fault::Short`]), as a
//! full disk or a crash in the middle of a `write` would. [`SimFs::crash`]
//! drops every byte no sync covered, as a machine crash would.

use std::collections::{BTreeMap, BTreeSet};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::MutexGuard;

use parking_lot::Mutex;

/// How the armed call goes wrong.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Fault {
    /// The call fails and changes nothing.
    Fail,
    /// The call writes the first half of its bytes, then fails. A call
    /// that writes no bytes fails as [`Fault::Fail`] does.
    Short,
}

/// An in-memory file system (see the module docs).
#[derive(Debug, Default)]
pub(crate) struct SimFs {
    state: Mutex<State>,
}

#[derive(Debug, Default)]
struct State {
    files: BTreeMap<PathBuf, Vec<u8>>,
    dirs: BTreeSet<PathBuf>,
    /// One line per call made, in order: `"<call> <file name>"`.
    trace: Vec<String>,
    /// The armed call's number and fault; disarmed once it fires.
    armed: Option<(usize, Fault)>,
    /// Bytes [`SimFs::crash`] dropped.
    dropped: u64,
}

impl State {
    /// Fails as opening `path` as a file does: when it is a directory,
    /// or when its directory does not exist.
    fn check_file(&self, path: &Path) -> io::Result<()> {
        if self.dirs.contains(path) {
            return Err(io::Error::other(format!(
                "{} is a directory",
                path.display()
            )));
        }
        match path.parent() {
            Some(dir) if !dir.as_os_str().is_empty() && !self.dirs.contains(dir) => {
                Err(not_found(dir))
            }
            _ => Ok(()),
        }
    }
}

fn not_found(path: &Path) -> io::Error {
    io::Error::new(
        io::ErrorKind::NotFound,
        format!("{} not found", path.display()),
    )
}

/// The error an armed call returns.
fn injected(call: usize) -> io::Error {
    io::Error::other(format!("injected fault at call {call}"))
}

impl SimFs {
    /// Arms call number `call` (counted from 1 over this file system's
    /// life) to go wrong as `fault` says.
    pub(crate) fn arm(&self, call: usize, fault: Fault) {
        self.state.lock().armed = Some((call, fault));
    }

    /// Every call made so far, in order (see `State::trace`).
    pub(crate) fn trace(&self) -> Vec<String> {
        self.state.lock().trace.clone()
    }

    /// A machine crash: drops every byte no sync covered. No call syncs
    /// yet, so every file is left empty.
    pub(crate) fn crash(&self) {
        let mut state = self.state.lock();
        let dropped: usize = state
            .files
            .values_mut()
            .map(std::mem::take)
            .map(|b| b.len())
            .sum();
        state.dropped += dropped as u64;
    }

    /// Bytes the crashes so far dropped.
    pub(crate) fn dropped(&self) -> u64 {
        self.state.lock().dropped
    }

    /// Counts and traces one call, and says whether it is the armed one.
    fn call(&self, what: &str, path: &Path) -> (MutexGuard<'_, State>, Option<Fault>, usize) {
        let mut state = self.state.lock();
        let name = path
            .file_name()
            .unwrap_or(path.as_os_str())
            .to_string_lossy();
        state.trace.push(format!("{what} {name}"));
        let call = state.trace.len();
        let fault = match state.armed {
            Some((armed, fault)) if armed == call => {
                state.armed = None;
                Some(fault)
            }
            _ => None,
        };
        (state, fault, call)
    }

    pub(super) fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
        let (mut state, fault, call) = self.call("mkdir", dir);
        if fault.is_some() {
            return Err(injected(call));
        }
        state.dirs.extend(dir.ancestors().map(Path::to_owned));
        Ok(())
    }

    pub(super) fn write(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        let (mut state, fault, call) = self.call("write", path);
        state.check_file(path)?;
        match fault {
            Some(Fault::Fail) => Err(injected(call)),
            Some(Fault::Short) => {
                state
                    .files
                    .insert(path.to_owned(), bytes[..bytes.len() / 2].to_vec());
                Err(injected(call))
            }
            None => {
                state.files.insert(path.to_owned(), bytes.to_vec());
                Ok(())
            }
        }
    }

    pub(super) fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        let (state, fault, call) = self.call("read", path);
        if fault.is_some() {
            return Err(injected(call));
        }
        state.check_file(path)?;
        state
            .files
            .get(path)
            .cloned()
            .ok_or_else(|| not_found(path))
    }

    pub(super) fn open_log(&self, path: &Path, len: u64) -> io::Result<()> {
        let (mut state, fault, call) = self.call("open", path);
        if fault.is_some() {
            return Err(injected(call));
        }
        state.check_file(path)?;
        let file = state.files.entry(path.to_owned()).or_default();
        file.resize(len as usize, 0);
        Ok(())
    }

    /// Appends to the log at `path`. A log whose file was removed since
    /// it was opened writes nowhere, as an unlinked file's would.
    pub(super) fn append(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        let (mut state, fault, call) = self.call("append", path);
        let written = match fault {
            Some(Fault::Fail) => return Err(injected(call)),
            Some(Fault::Short) => &bytes[..bytes.len() / 2],
            None => bytes,
        };
        if let Some(file) = state.files.get_mut(path) {
            file.extend_from_slice(written);
        }
        match fault {
            Some(_) => Err(injected(call)),
            None => Ok(()),
        }
    }

    pub(super) fn cut(&self, path: &Path, len: u64) -> io::Result<()> {
        let (mut state, fault, call) = self.call("cut", path);
        if fault.is_some() {
            return Err(injected(call));
        }
        if let Some(file) = state.files.get_mut(path) {
            file.resize(len as usize, 0);
        }
        Ok(())
    }

    pub(super) fn remove(&self, path: &Path) -> io::Result<()> {
        let mut state = self.state.lock();
        let removed = state.files.remove(path).is_some() || state.dirs.remove(path);
        if removed {
            Ok(())
        } else {
            Err(not_found(path))
        }
    }
}
