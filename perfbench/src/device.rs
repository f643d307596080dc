//! A `BlockDevice` passthrough that counts and times every call into
//! the wrapped device. Timing is switched on only for traced rounds, so
//! the untraced rounds it is compared against pay one flag read per call.

use prima_storage::{BlockAddr, BlockDevice, IoStats, StorageResult};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

#[derive(Default)]
struct Counters {
    read_calls: AtomicU64,
    read_ns: AtomicU64,
    write_calls: AtomicU64,
    write_ns: AtomicU64,
    wal_appends: AtomicU64,
    wal_append_ns: AtomicU64,
}

/// Point-in-time copy of the passthrough's counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DeviceSnapshot {
    pub read_calls: u64,
    pub read_ns: u64,
    pub write_calls: u64,
    pub write_ns: u64,
    pub wal_appends: u64,
    pub wal_append_ns: u64,
}

impl DeviceSnapshot {
    pub fn delta(&self, earlier: &DeviceSnapshot) -> DeviceSnapshot {
        DeviceSnapshot {
            read_calls: self.read_calls - earlier.read_calls,
            read_ns: self.read_ns - earlier.read_ns,
            write_calls: self.write_calls - earlier.write_calls,
            write_ns: self.write_ns - earlier.write_ns,
            wal_appends: self.wal_appends - earlier.wal_appends,
            wal_append_ns: self.wal_append_ns - earlier.wal_append_ns,
        }
    }
}

pub struct TimedDevice {
    inner: Arc<dyn BlockDevice>,
    on: AtomicBool,
    c: Counters,
}

impl TimedDevice {
    pub fn new(inner: Arc<dyn BlockDevice>) -> TimedDevice {
        TimedDevice {
            inner,
            on: AtomicBool::new(false),
            c: Counters::default(),
        }
    }

    /// Switches counting and timing on or off.
    pub fn set_timing(&self, on: bool) {
        self.on.store(on, Ordering::Relaxed);
    }

    pub fn snapshot(&self) -> DeviceSnapshot {
        let c = &self.c;
        DeviceSnapshot {
            read_calls: c.read_calls.load(Ordering::Relaxed),
            read_ns: c.read_ns.load(Ordering::Relaxed),
            write_calls: c.write_calls.load(Ordering::Relaxed),
            write_ns: c.write_ns.load(Ordering::Relaxed),
            wal_appends: c.wal_appends.load(Ordering::Relaxed),
            wal_append_ns: c.wal_append_ns.load(Ordering::Relaxed),
        }
    }

    fn timed<R>(&self, calls: &AtomicU64, ns: &AtomicU64, f: impl FnOnce() -> R) -> R {
        if !self.on.load(Ordering::Relaxed) {
            return f();
        }
        let started = Instant::now();
        let out = f();
        ns.fetch_add(started.elapsed().as_nanos() as u64, Ordering::Relaxed);
        calls.fetch_add(1, Ordering::Relaxed);
        out
    }
}

impl BlockDevice for TimedDevice {
    fn create_file(&self, file: u32, block_len: usize) -> StorageResult<()> {
        self.inner.create_file(file, block_len)
    }

    fn block_len(&self, file: u32) -> StorageResult<usize> {
        self.inner.block_len(file)
    }

    fn read_block(&self, addr: BlockAddr, buf: &mut [u8]) -> StorageResult<()> {
        self.timed(&self.c.read_calls, &self.c.read_ns, || {
            self.inner.read_block(addr, buf)
        })
    }

    fn write_block(&self, addr: BlockAddr, buf: &[u8]) -> StorageResult<()> {
        self.timed(&self.c.write_calls, &self.c.write_ns, || {
            self.inner.write_block(addr, buf)
        })
    }

    fn read_chained(&self, addr: BlockAddr, count: u32, buf: &mut [u8]) -> StorageResult<()> {
        self.timed(&self.c.read_calls, &self.c.read_ns, || {
            self.inner.read_chained(addr, count, buf)
        })
    }

    fn write_chained(&self, addr: BlockAddr, count: u32, buf: &[u8]) -> StorageResult<()> {
        self.timed(&self.c.write_calls, &self.c.write_ns, || {
            self.inner.write_chained(addr, count, buf)
        })
    }

    fn stats(&self) -> Arc<IoStats> {
        self.inner.stats()
    }

    fn sync(&self) -> StorageResult<()> {
        self.inner.sync()
    }

    fn write_meta(&self, bytes: &[u8]) -> StorageResult<()> {
        self.inner.write_meta(bytes)
    }

    fn read_meta(&self) -> StorageResult<Option<Vec<u8>>> {
        self.inner.read_meta()
    }

    fn wal_append(&self, bytes: &[u8]) -> StorageResult<()> {
        self.timed(&self.c.wal_appends, &self.c.wal_append_ns, || {
            self.inner.wal_append(bytes)
        })
    }

    fn wal_contents(&self) -> StorageResult<Vec<u8>> {
        self.inner.wal_contents()
    }

    fn wal_reset(&self) -> StorageResult<()> {
        self.inner.wal_reset()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prima_storage::SimDisk;

    #[test]
    fn counts_only_while_timing_is_on() {
        let dev = TimedDevice::new(Arc::new(SimDisk::new()));
        dev.create_file(0, 512).unwrap();
        let block = vec![7u8; 512];
        dev.write_block(BlockAddr::new(0, 0), &block).unwrap();
        assert_eq!(dev.snapshot(), DeviceSnapshot::default());
        dev.set_timing(true);
        let mut back = vec![0u8; 512];
        dev.read_block(BlockAddr::new(0, 0), &mut back).unwrap();
        dev.write_block(BlockAddr::new(0, 1), &block).unwrap();
        dev.wal_append(b"rec").unwrap();
        let s = dev.snapshot();
        assert_eq!((s.read_calls, s.write_calls, s.wal_appends), (1, 1, 1));
        assert_eq!(back, block, "the passthrough must not alter data");
        assert_eq!(dev.wal_contents().unwrap(), b"rec");
    }
}
