//! A minimal inotify analogue.
//!
//! Waldo (the user-level provenance daemon) uses the Linux `inotify`
//! interface to learn when the kernel closes a provenance log file and
//! opens a new one (paper §5.6). This module provides directory
//! watches with create / close-after-write / remove events.

use std::collections::HashMap;

use crate::proc::FileLoc;

/// Identifies one watch.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct WatchId(pub u64);

/// An event on a watched directory.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum InotifyEvent {
    /// A file was created in the directory.
    Created {
        /// Name within the directory.
        name: String,
        /// Location of the new file.
        loc: FileLoc,
    },
    /// A file opened for writing was closed.
    CloseWrite {
        /// Name within the directory.
        name: String,
        /// Location of the file.
        loc: FileLoc,
    },
    /// A name was removed from the directory.
    Removed {
        /// Name within the directory.
        name: String,
    },
}

/// The kernel's watch table.
#[derive(Debug, Default)]
pub struct InotifyTable {
    watches: HashMap<u64, Watch>,
    next: u64,
}

#[derive(Debug)]
struct Watch {
    dir: FileLoc,
    queue: Vec<InotifyEvent>,
}

impl InotifyTable {
    /// Creates an empty watch table.
    pub fn new() -> Self {
        InotifyTable::default()
    }

    /// Watches the directory at `dir`.
    pub fn add_watch(&mut self, dir: FileLoc) -> WatchId {
        let id = self.next;
        self.next += 1;
        self.watches.insert(
            id,
            Watch {
                dir,
                queue: Vec::new(),
            },
        );
        WatchId(id)
    }

    /// Removes a watch.
    pub fn remove_watch(&mut self, id: WatchId) {
        self.watches.remove(&id.0);
    }

    /// Delivers `event` to every watch on `dir`.
    pub fn deliver(&mut self, dir: FileLoc, event: &InotifyEvent) {
        self.deliver_with(dir, || event.clone());
    }

    /// Delivers the event `make` builds to every watch on `dir`, and
    /// builds it (an event owns a `String`) only if there is one.
    pub fn deliver_with(&mut self, dir: FileLoc, make: impl FnOnce() -> InotifyEvent) {
        let mut watching = self.watches.values_mut().filter(|w| w.dir == dir);
        let Some(first) = watching.next() else {
            return;
        };
        let event = make();
        for w in watching {
            w.queue.push(event.clone());
        }
        first.queue.push(event);
    }

    /// Drains pending events for `id`.
    pub fn poll(&mut self, id: WatchId) -> Vec<InotifyEvent> {
        self.watches
            .get_mut(&id.0)
            .map(|w| std::mem::take(&mut w.queue))
            .unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fs::Ino;
    use crate::proc::MountId;

    fn loc(ino: u64) -> FileLoc {
        FileLoc {
            mount: MountId(0),
            ino: Ino(ino),
        }
    }

    #[test]
    fn events_route_to_matching_watch_only() {
        let mut t = InotifyTable::new();
        let w1 = t.add_watch(loc(1));
        let w2 = t.add_watch(loc(2));
        let ev = InotifyEvent::Created {
            name: "log.0".into(),
            loc: loc(10),
        };
        t.deliver(loc(1), &ev);
        assert_eq!(t.poll(w1), vec![ev]);
        assert!(t.poll(w2).is_empty());
    }

    #[test]
    fn poll_drains_the_queue() {
        let mut t = InotifyTable::new();
        let w = t.add_watch(loc(1));
        t.deliver(loc(1), &InotifyEvent::Removed { name: "old".into() });
        assert_eq!(t.poll(w).len(), 1);
        assert!(t.poll(w).is_empty());
    }

    #[test]
    fn removed_watch_stops_receiving() {
        let mut t = InotifyTable::new();
        let w = t.add_watch(loc(3));
        t.remove_watch(w);
        t.deliver(loc(3), &InotifyEvent::Removed { name: "x".into() });
        assert!(t.poll(w).is_empty());
    }

    #[test]
    fn multiple_watches_on_same_dir_all_receive() {
        let mut t = InotifyTable::new();
        let w1 = t.add_watch(loc(1));
        let w2 = t.add_watch(loc(1));
        let ev = InotifyEvent::CloseWrite {
            name: "log".into(),
            loc: loc(4),
        };
        t.deliver(loc(1), &ev);
        assert_eq!(t.poll(w1).len(), 1);
        assert_eq!(t.poll(w2).len(), 1);
    }
}
